"""CLI ``--candidate-pruning`` / ``--pruning-frontier`` plumbing."""

import pytest

from repro.cli import EXPERIMENTS, main


class TestRunPruningFlags:
    def test_pruning_forwarded_to_experiment(self, capsys, monkeypatch):
        from repro.experiments import table2_rmat

        seen = {}
        original = table2_rmat.run

        def spy(seed=0, candidate_pruning="none", pruning_frontier=0):
            seen["candidate_pruning"] = candidate_pruning
            seen["pruning_frontier"] = pruning_frontier
            return original(
                scales=(7, 8),
                edge_factor=4,
                seed=seed,
                backend="csr",
                candidate_pruning=candidate_pruning,
                pruning_frontier=pruning_frontier,
            )

        monkeypatch.setitem(EXPERIMENTS, "table2", (spy, "spy"))
        assert (
            main(
                [
                    "run",
                    "table2",
                    "--candidate-pruning",
                    "community",
                    "--pruning-frontier",
                    "1",
                ]
            )
            == 0
        )
        assert seen["candidate_pruning"] == "community"
        assert seen["pruning_frontier"] == 1
        out = capsys.readouterr().out
        # Pruned rows surface the trade, not just the links.
        assert "candidate_pairs" in out
        assert "pruning_recall_cost" in out

    def test_unknown_mode_rejected_by_argparse(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "fig2", "--candidate-pruning", "bogus"])
        assert "invalid choice" in capsys.readouterr().err

    def test_negative_frontier_rejected(self, capsys):
        assert main(["run", "fig2", "--pruning-frontier", "-1"]) == 2
        err = capsys.readouterr().err
        assert "--pruning-frontier must be >= 0" in err

    def test_pruning_rejected_for_unsupported_experiment(self, capsys):
        assert (
            main(["run", "percolation", "--candidate-pruning", "none"])
            == 2
        )
        err = capsys.readouterr().err
        assert "--candidate-pruning is not supported" in err

    def test_fig2_supports_the_flags(self):
        """The fig2/table2 drivers are the advertised consumers."""
        import inspect

        for exp_name in ("fig2", "table2", "table2-million"):
            params = inspect.signature(
                EXPERIMENTS[exp_name][0]
            ).parameters
            assert "candidate_pruning" in params, exp_name
            assert "pruning_frontier" in params, exp_name

    @pytest.mark.parametrize(
        "flag", ["--candidate-pruning", "--pruning-frontier"]
    )
    def test_help_mentions_flag(self, capsys, flag):
        with pytest.raises(SystemExit):
            main(["run", "--help"])
        assert flag in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flag", ["--mmap", "--workers", "--memory-budget-mb"]
    )
    def test_help_omits_retired_flag(self, capsys, flag):
        with pytest.raises(SystemExit):
            main(["run", "--help"])
        assert flag not in capsys.readouterr().out
