"""Experiment harness: one trial = copies + seeds + matcher + evaluation.

Experiments compose a :class:`~repro.sampling.pair.GraphPair`, a seed set
and a matcher, then call :func:`run_trial` to obtain a
:class:`TrialResult` bundling the matching result, its quality report and
the wall-clock cost — the unit every table/figure driver is built from.
Matchers can be passed as instances or resolved by registry name, and
:func:`compare_matchers` runs several registered matchers head-to-head on
the same workload in one call.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Hashable, Sequence

from repro.core.config import (
    MatcherConfig,
    validate_backend,
    validate_candidate_pruning,
    validate_pruning_frontier,
)
from repro.errors import MatcherConfigError
from repro.core.matcher import UserMatching
from repro.core.protocol import Matcher
from repro.core.result import MatchingResult
from repro.evaluation.metrics import MatchingReport, evaluate
from repro.registry import get_matcher
from repro.sampling.pair import GraphPair
from repro.utils.memory import MemoryTracker
from repro.utils.timing import Timer

Node = Hashable


@dataclass
class TrialResult:
    """Everything produced by one matcher trial.

    Attributes:
        result: the matcher output (links + phase history).
        report: quality accounting against ground truth.
        elapsed: matcher wall-clock seconds (the *cold* run when the
            trial streamed deltas).
        params: free-form experiment parameters for tabulation.
        peak_mb: peak matcher allocation in MiB (``None`` when the
            trial ran with ``track_memory=False``).
        delta_outcomes: per-delta
            :class:`~repro.incremental.engine.DeltaOutcome` records
            when the trial was run with ``deltas=``; ``None``
            otherwise.
        pruning_recall_cost: recall of an unpruned reference run minus
            this trial's recall, when the trial ran with
            ``measure_pruning_cost=True``; ``None`` otherwise.
    """

    result: MatchingResult
    report: MatchingReport
    elapsed: float
    params: dict[str, object] = field(default_factory=dict)
    peak_mb: float | None = None
    delta_outcomes: "list | None" = None
    pruning_recall_cost: float | None = None

    def row(self) -> dict[str, object]:
        """Flatten into one table row: params + quality + cost.

        A streamed trial (``deltas=``) additionally carries the
        streaming columns: ``deltas`` (count), ``delta_mean_s`` /
        ``delta_total_s`` (per-delta latency vs the cold ``elapsed_s``),
        and ``dirty_links`` (total re-scored link contributions, when
        the warm engine ran).
        """
        out: dict[str, object] = dict(self.params)
        out.update(self.report.as_dict())
        out["elapsed_s"] = round(self.elapsed, 4)
        # Scored candidate pairs across all phases — the quantity
        # candidate pruning shrinks; 0 for matchers without a
        # candidate-pair stage (they record no phases).
        out["candidate_pairs"] = sum(
            p.candidates for p in self.result.phases
        )
        if self.pruning_recall_cost is not None:
            out["pruning_recall_cost"] = round(self.pruning_recall_cost, 4)
        if self.peak_mb is not None:
            out["peak_mb"] = round(self.peak_mb, 2)
        if self.delta_outcomes is not None:
            total = sum(o.elapsed for o in self.delta_outcomes)
            count = len(self.delta_outcomes)
            out["deltas"] = count
            out["delta_total_s"] = round(total, 4)
            out["delta_mean_s"] = round(total / count if count else 0.0, 4)
            dirty = [
                o.dirty_links
                for o in self.delta_outcomes
                if o.dirty_links is not None
            ]
            if dirty:
                out["dirty_links"] = int(sum(dirty))
        return out


#: (option name, validator) pairs for the execution knobs every trial
#: can apply to a default/named matcher without reconstructing it.
_EXECUTION_KNOBS = (
    ("backend", validate_backend),
    ("candidate_pruning", validate_candidate_pruning),
    ("pruning_frontier", validate_pruning_frontier),
)


def run_trial(
    pair: GraphPair,
    seeds: dict[Node, Node],
    config: MatcherConfig | None = None,
    matcher: "Matcher | str | None" = None,
    params: dict[str, object] | None = None,
    backend: str | None = None,
    candidate_pruning: str | None = None,
    pruning_frontier: int | None = None,
    measure_pruning_cost: bool = False,
    track_memory: bool = False,
    deltas: "Sequence | None" = None,
    **matcher_config: object,
) -> TrialResult:
    """Run one matcher trial and evaluate it.

    Parameters
    ----------
    pair : GraphPair
        The two copies plus ground truth.  With *deltas* this is the
        *base* state; ground truth is evaluated against the post-delta
        graphs.
    seeds : dict
        Initial identification links.
    config : MatcherConfig, optional
        Matcher configuration (ignored when *matcher* is given).
    matcher : Matcher or str, optional
        A :class:`~repro.core.protocol.Matcher` instance or a registry
        name (``"common-neighbors"``, ...) — defaults to
        :class:`UserMatching` with *config*.
    params : dict, optional
        Extra key/values recorded in the result row.
    backend : {"csr", "native"}, optional
        Execution backend applied to the default matcher, a given
        *config*, or a *named* matcher; cannot reconfigure an
        already-constructed instance.  ``None`` keeps the matcher's
        own, which defaults to ``"native"``
        (:data:`~repro.core.config.DEFAULT_BACKEND`).
    candidate_pruning : {"none", "community"}, optional
        Candidate-pruning mode applied exactly like *backend*.  Unlike
        *backend* this one *changes the links* (it
        trades recall for candidate-pair volume — compare the
        ``candidate_pairs`` column, and see *measure_pruning_cost*);
        what stays invariant is backend parity under pruning.
    pruning_frontier : int, optional
        Frontier ring radius for community pruning, applied exactly
        like *backend*.
    measure_pruning_cost : bool, optional
        Additionally run the same matcher with
        ``candidate_pruning="none"`` (untimed) and record the recall
        difference into ``TrialResult.pruning_recall_cost`` / the
        ``pruning_recall_cost`` row column.  Needs a config or a named
        matcher, and does not compose with *deltas*.
    track_memory : bool, optional
        Also measure the matcher's peak allocation (``tracemalloc``)
        into ``TrialResult.peak_mb`` / the ``peak_mb`` row column
        (MiB).  Off by default: tracing costs noticeable wall-clock on
        allocation-heavy dict workloads, which would pollute
        ``elapsed_s`` comparisons.
    deltas : sequence of GraphDelta, optional
        The trial then streams: a cold run on *pair* (timed into
        ``elapsed``), then each delta through an
        :class:`~repro.incremental.engine.IncrementalReconciler`
        (per-delta latency into ``TrialResult.delta_outcomes`` and the
        ``delta_mean_s``/``delta_total_s`` row columns, seconds).  The
        caller's graphs are never mutated — deltas apply to copies,
        and the evaluation runs against the final state.  Links are
        bit-identical to a cold run on that final state.
    **matcher_config
        Configuration for a *named* matcher; refused otherwise, so a
        misspelled or removed option is never silently dropped.

    Returns
    -------
    TrialResult
        Matching result, quality report, wall-clock cost, and (when
        streaming) the per-delta outcomes.
    """
    if matcher_config and not isinstance(matcher, str):
        raise MatcherConfigError(
            f"unexpected options {sorted(matcher_config)}: extra keyword "
            "arguments configure a named matcher only"
        )
    knobs = {
        "backend": backend,
        "candidate_pruning": candidate_pruning,
        "pruning_frontier": pruning_frontier,
    }
    for option, validator in _EXECUTION_KNOBS:
        value = knobs[option]
        if value is None:
            continue
        validator(value)
        if matcher is None:
            config = dataclasses.replace(
                config or MatcherConfig(), **{option: value}
            )
        elif isinstance(matcher, str):
            matcher_config.setdefault(option, value)
        else:
            raise MatcherConfigError(
                f"{option}= cannot reconfigure an already-constructed "
                "matcher instance; pass a registry name or a config"
            )
    reference: "Matcher | None" = None
    if measure_pruning_cost:
        if deltas is not None:
            raise MatcherConfigError(
                "measure_pruning_cost= does not compose with deltas= "
                "streaming trials"
            )
        if matcher is None:
            reference = UserMatching(
                dataclasses.replace(
                    config or MatcherConfig(), candidate_pruning="none"
                )
            )
        elif isinstance(matcher, str):
            reference = get_matcher(
                matcher, **{**matcher_config, "candidate_pruning": "none"}
            )
        else:
            raise MatcherConfigError(
                "measure_pruning_cost= cannot reconfigure an "
                "already-constructed matcher instance; pass a registry "
                "name or a config"
            )
    if matcher is None:
        matcher = UserMatching(config or MatcherConfig())
    elif isinstance(matcher, str):
        matcher = get_matcher(matcher, **matcher_config)
    if deltas is not None:
        return _run_streaming_trial(
            pair, seeds, matcher, deltas, params, track_memory
        )
    peak_mb: float | None = None
    if track_memory:
        with MemoryTracker() as tracker, Timer() as timer:
            result = matcher.run(pair.g1, pair.g2, seeds)
        peak_mb = tracker.peak_mb
    else:
        with Timer() as timer:
            result = matcher.run(pair.g1, pair.g2, seeds)
    report = evaluate(result, pair)
    pruning_recall_cost: float | None = None
    if reference is not None:
        ref_report = evaluate(
            reference.run(pair.g1, pair.g2, seeds), pair
        )
        pruning_recall_cost = ref_report.recall - report.recall
    return TrialResult(
        result=result,
        report=report,
        elapsed=timer.elapsed,
        params=dict(params or {}),
        peak_mb=peak_mb,
        pruning_recall_cost=pruning_recall_cost,
    )


def _run_streaming_trial(
    pair: GraphPair,
    seeds: dict[Node, Node],
    matcher: "Matcher",
    deltas: "Sequence",
    params: dict[str, object] | None,
    track_memory: bool,
) -> TrialResult:
    """Cold-start on the base pair, then stream every delta through it."""
    from repro.incremental.engine import IncrementalReconciler

    g1, g2 = pair.g1.copy(), pair.g2.copy()
    engine = IncrementalReconciler(matcher=matcher)
    peak_mb: float | None = None
    if track_memory:
        with MemoryTracker() as tracker:
            with Timer() as timer:
                engine.start(g1, g2, seeds)
            outcomes = [engine.apply(delta) for delta in deltas]
        peak_mb = tracker.peak_mb
    else:
        with Timer() as timer:
            engine.start(g1, g2, seeds)
        outcomes = [engine.apply(delta) for delta in deltas]
    final_pair = GraphPair(g1, g2, dict(pair.identity))
    report = evaluate(engine.result, final_pair)
    return TrialResult(
        result=engine.result,
        report=report,
        elapsed=timer.elapsed,
        params=dict(params or {}),
        peak_mb=peak_mb,
        delta_outcomes=outcomes,
    )


def compare_matchers(
    pair: GraphPair,
    seeds: dict[Node, Node],
    matchers: Sequence["Matcher | str"],
    params: dict[str, object] | None = None,
    backend: str | None = None,
    candidate_pruning: str | None = None,
    pruning_frontier: int | None = None,
    track_memory: bool = False,
) -> list[TrialResult]:
    """Run several matchers on the same workload, one trial each.

    Each entry of *matchers* is a registry name or a ready matcher
    instance; every trial's ``params["matcher"]`` records which one ran,
    so ``[t.row() for t in trials]`` tabulates the comparison directly::

        trials = compare_matchers(
            pair, seeds, ["user-matching", "common-neighbors"])

    Parameters
    ----------
    pair : GraphPair
        The two copies plus ground truth.
    seeds : dict
        Initial identification links (shared by every trial).
    matchers : sequence of (Matcher or str)
        Registry names and/or matcher instances.
    params : dict, optional
        Extra key/values recorded in every result row.
    backend : {"csr", "native"}, optional
        Run every *named* matcher on this execution backend and record
        it in the ``backend`` column of its row; ``None`` keeps each
        matcher's default, ``"native"``
        (:data:`~repro.core.config.DEFAULT_BACKEND`).  Pre-constructed
        instances keep whatever backend they were built with and get
        no ``backend`` column (the harness cannot reconfigure them).
    candidate_pruning : {"none", "community"}, optional
        Run every *named* matcher under this candidate-pruning mode
        and record it in the ``candidate_pruning`` column of its row;
        same instance caveat as *backend*.  Matchers without a
        candidate-pair stage accept the knob and ignore it.
    pruning_frontier : int, optional
        Frontier ring radius for community pruning, applied and
        recorded like *candidate_pruning*.
    track_memory : bool, optional
        Measure every trial's peak allocation into the shared
        ``peak_mb`` column (MiB; see :func:`run_trial`).

    Returns
    -------
    list of TrialResult
        One per matcher, in input order; each carries
        ``params["matcher"]`` for direct tabulation.
    """
    trials: list[TrialResult] = []
    for entry in matchers:
        named = isinstance(entry, str)
        if named:
            label = entry
        else:
            label = getattr(entry, "matcher_name", type(entry).__name__)
        extra: dict[str, object] = {"matcher": label}
        if named:
            for option, value in (
                ("backend", backend),
                ("candidate_pruning", candidate_pruning),
                ("pruning_frontier", pruning_frontier),
            ):
                if value is not None:
                    extra[option] = value
        trials.append(
            run_trial(
                pair,
                seeds,
                matcher=entry,
                backend=backend if named else None,
                candidate_pruning=candidate_pruning if named else None,
                pruning_frontier=pruning_frontier if named else None,
                track_memory=track_memory,
                # label last: it must win over any caller-supplied key.
                params={**(params or {}), **extra},
            )
        )
    return trials
