"""CLI `--backend` plumbing tests."""

from repro.cli import main


class TestRunBackend:
    def test_backend_forwarded_to_experiment(self, capsys, monkeypatch):
        from repro.experiments import table2_rmat

        seen = {}
        original = table2_rmat.run

        def spy(seed=0, backend="native"):
            seen.update({"seed": seed, "backend": backend})
            return original(
                scales=(7, 8), edge_factor=4, seed=seed, backend=backend
            )

        monkeypatch.setitem(
            __import__("repro.cli", fromlist=["EXPERIMENTS"]).EXPERIMENTS,
            "table2",
            (spy, "spy"),
        )
        assert main(["run", "table2", "--backend", "csr"]) == 0
        assert seen["backend"] == "csr"
        out = capsys.readouterr().out
        assert "backend=csr" in out

    def test_backend_rejected_for_unsupported_experiment(self, capsys):
        assert main(["run", "percolation", "--backend", "csr"]) == 2
        err = capsys.readouterr().err
        assert "--backend is not supported" in err

    def test_invalid_backend_value_rejected(self, capsys):
        import pytest

        with pytest.raises(SystemExit):
            main(["run", "table2", "--backend", "gpu"])

    def test_fig2_supports_backend_kwarg(self):
        import inspect

        from repro.experiments import fig2_pa, table2_rmat

        for fn in (fig2_pa.run, table2_rmat.run):
            assert "backend" in inspect.signature(fn).parameters
