"""CLI ``--track-memory`` plumbing and the million-rung driver."""

import pytest

from repro.cli import EXPERIMENTS, main


class TestRunMemory:
    def test_track_memory_forwarded(self, capsys, monkeypatch):
        from repro.experiments import table2_rmat

        seen = {}
        original = table2_rmat.run

        def spy(seed=0, track_memory=False):
            seen["track_memory"] = track_memory
            return original(
                scales=(7, 8),
                edge_factor=4,
                seed=seed,
                track_memory=track_memory,
            )

        monkeypatch.setitem(EXPERIMENTS, "table2", (spy, "spy"))
        assert main(["run", "table2", "--track-memory"]) == 0
        assert seen["track_memory"] is True
        assert "peak_mb" in capsys.readouterr().out

    def test_million_rung_registered(self):
        assert "table2-million" in EXPERIMENTS

    def test_million_rung_smoke(self, capsys):
        """The million driver at micro scale through the real CLI path."""
        from repro.experiments.table2_rmat import run_million

        result = run_million(scale=8, edge_factor=4, link_prob=0.2)
        assert len(result.rows) == 1
        row = result.rows[0]
        assert row["nodes"] > 0
        assert "peak_rss_mb" in row  # POSIX: resource is available

    def test_help_mentions_flag(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "--help"])
        assert "--track-memory" in capsys.readouterr().out


class TestRunAllExcludesMillionRung:
    def test_all_skips_the_heavy_rung(self, monkeypatch):
        """`repro run all` must not launch a minutes-long RMAT20 run."""
        from repro import cli

        ran = []
        for exp_name, (fn, desc) in list(cli.EXPERIMENTS.items()):
            def spy(seed=0, _name=exp_name, **kwargs):
                ran.append(_name)
                from repro.experiments.common import ExperimentResult

                return ExperimentResult(name=_name, description=desc)

            monkeypatch.setitem(cli.EXPERIMENTS, exp_name, (spy, desc))
        assert cli.main(["run", "all"]) == 0
        assert "table2-million" not in ran
        assert "table2" in ran
