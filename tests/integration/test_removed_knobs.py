"""The retired execution knobs and values fail loudly at every entry point.

``workers`` (the process pool), ``memory_budget_mb`` (the link-block
planner) and ``mmap`` (the memory-mapped adjacency spill) are gone; the
one in-memory serial join is faster and smaller than each.  A caller
still passing one must get an error naming the key, never a silent
no-op: the dataclass and keyword ``TypeError``, the harness's refusal
of stray options, and argparse's usage error each name it.

``backend="dict"`` (a third copy of the sweep over original node ids)
is gone too: the MapReduce formulation is the one literal reference.
Every surface that takes a backend refuses the value with an error
naming it, and a checkpoint that records it is refused at resume rather
than silently resumed on another backend.
"""

import pytest

from repro.baselines import (
    CommonNeighborsMatcher,
    DegreeSequenceMatcher,
    NarayananShmatikovMatcher,
    StructuralFeatureMatcher,
)
from repro.cli import main
from repro.core.config import MatcherConfig
from repro.core.links_io import load_checkpoint, save_checkpoint
from repro.core.matcher import UserMatching
from repro.core.pipeline import reconcile
from repro.core.reconciler import Reconciler
from repro.errors import MatcherConfigError, ReproError
from repro.evaluation.harness import compare_matchers, run_trial
from repro.generators.preferential_attachment import (
    preferential_attachment_graph,
)
from repro.incremental.engine import IncrementalReconciler
from repro.mapreduce.engine import LocalMapReduce
from repro.mapreduce.matcher_mr import MapReduceUserMatching
from repro.registry import get_matcher, matcher_names
from repro.sampling.edge_sampling import independent_copies
from repro.seeds.generators import sample_seeds

KNOBS = [("workers", 2), ("memory_budget_mb", 64), ("mmap", True)]

#: What a removed keyword raises: the dataclass/keyword ``TypeError``,
#: or the harness's own refusal of options no matcher takes.
REFUSED = (TypeError, MatcherConfigError)


@pytest.fixture(scope="module")
def workload():
    g = preferential_attachment_graph(120, 3, seed=0)
    pair = independent_copies(g, 0.6, seed=1)
    return pair, sample_seeds(pair, 0.1, seed=2)


@pytest.mark.parametrize("key,value", KNOBS)
class TestLibraryEntryPoints:
    def test_matcher_config(self, key, value):
        with pytest.raises(TypeError, match=key):
            MatcherConfig(**{key: value})

    def test_user_matching_from_params(self, key, value):
        with pytest.raises(TypeError, match=key):
            UserMatching.from_params(**{key: value})

    @pytest.mark.parametrize(
        "name", ["user-matching", "common-neighbors", "degree-sequence"]
    )
    def test_registry(self, key, value, name):
        with pytest.raises(TypeError, match=key):
            get_matcher(name, **{key: value})

    def test_reconciler(self, key, value):
        with pytest.raises(TypeError, match=key):
            Reconciler(**{key: value})

    @pytest.mark.parametrize("matcher", [None, "user-matching"])
    def test_run_trial(self, workload, key, value, matcher):
        pair, seeds = workload
        with pytest.raises(REFUSED, match=key):
            run_trial(pair, seeds, matcher=matcher, **{key: value})

    def test_compare_matchers(self, workload, key, value):
        pair, seeds = workload
        with pytest.raises(TypeError, match=key):
            compare_matchers(pair, seeds, ["user-matching"], **{key: value})

    def test_local_mapreduce(self, key, value):
        with pytest.raises(TypeError, match=key):
            LocalMapReduce(**{key: value})


@pytest.mark.parametrize(
    "flag,value",
    [("--workers", "2"), ("--memory-budget-mb", "64"), ("--mmap", None)],
)
def test_cli_flag_is_a_usage_error(capsys, flag, value):
    argv = [flag] if value is None else [flag, value]
    with pytest.raises(SystemExit) as exc:
        main(["run", "table2", *argv])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize("experiment", ["fig2", "table2-million"])
def test_cli_mmap_refused_by_its_former_consumers(capsys, experiment):
    """The drivers that took ``--mmap`` now refuse it like any stray flag."""
    with pytest.raises(SystemExit) as exc:
        main(["run", experiment, "--mmap"])
    assert exc.value.code == 2
    assert "--mmap" in capsys.readouterr().err


#: What ``backend="dict"`` raises everywhere: a config error naming it.
RETIRED_BACKEND = "'dict'"


class TestRetiredDictBackend:
    def test_matcher_config(self):
        with pytest.raises(MatcherConfigError, match=RETIRED_BACKEND):
            MatcherConfig(backend="dict")

    def test_reconciler(self):
        with pytest.raises(MatcherConfigError, match=RETIRED_BACKEND):
            Reconciler(backend="dict")

    @pytest.mark.parametrize(
        "cls",
        [
            CommonNeighborsMatcher,
            DegreeSequenceMatcher,
            NarayananShmatikovMatcher,
            StructuralFeatureMatcher,
        ],
    )
    def test_baseline_constructors(self, cls):
        with pytest.raises(MatcherConfigError, match=RETIRED_BACKEND):
            cls(backend="dict")

    def test_mapreduce_matcher(self):
        with pytest.raises(MatcherConfigError, match=RETIRED_BACKEND):
            MapReduceUserMatching.from_params(backend="dict")

    @pytest.mark.parametrize("name", matcher_names())
    def test_registry(self, name):
        with pytest.raises(MatcherConfigError, match=RETIRED_BACKEND):
            get_matcher(name, backend="dict")

    @pytest.mark.parametrize("matcher", [None, "common-neighbors"])
    def test_reconcile(self, workload, matcher):
        pair, seeds = workload
        with pytest.raises(MatcherConfigError, match=RETIRED_BACKEND):
            reconcile(pair.g1, pair.g2, seeds, matcher, backend="dict")

    @pytest.mark.parametrize("matcher", [None, "user-matching"])
    def test_run_trial(self, workload, matcher):
        pair, seeds = workload
        with pytest.raises(MatcherConfigError, match=RETIRED_BACKEND):
            run_trial(pair, seeds, matcher=matcher, backend="dict")

    def test_compare_matchers(self, workload):
        pair, seeds = workload
        with pytest.raises(MatcherConfigError, match=RETIRED_BACKEND):
            compare_matchers(
                pair,
                seeds,
                ["user-matching", "degree-sequence"],
                backend="dict",
            )

    def test_cli_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "table2", "--backend", "dict"])
        assert exc.value.code == 2
        assert RETIRED_BACKEND in capsys.readouterr().err

    def test_checkpoint_recording_it_is_refused(self, workload, tmp_path):
        pair, seeds = workload
        engine = IncrementalReconciler(MatcherConfig(backend="csr"))
        engine.start(pair.g1.copy(), pair.g2.copy(), seeds)
        path = tmp_path / "engine.npz"
        engine.save_checkpoint(path)
        assert IncrementalReconciler.resume(path).config.backend == "csr"
        arrays, meta = load_checkpoint(path)
        meta["config"]["backend"] = "dict"
        save_checkpoint(path, arrays, meta)
        with pytest.raises(ReproError, match=RETIRED_BACKEND):
            IncrementalReconciler.resume(path)
