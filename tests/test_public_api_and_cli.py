"""Public API surface and the experiment CLI."""


import repro
from repro.bench.__main__ import main as bench_main


class TestPublicAPI:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_one_server_class_under_both_names(self):
        import repro.server

        assert repro.WarehouseServer is repro.AsyncWarehouseServer
        assert repro.server.WarehouseServer is repro.WarehouseServer
        assert repro.server.AsyncWarehouseServer is repro.WarehouseServer

    def test_version_is_semver_like(self):
        parts = repro.__version__.split(".")
        assert len(parts) == 3
        assert all(part.isdigit() for part in parts)

    def test_headline_workflow_via_root_imports(self):
        """The README's quickstart must work from root imports alone."""
        warehouse = repro.Warehouse.from_ssb(scale_factor=0.0002, seed=1)
        rows = warehouse.execute_sql(
            "SELECT COUNT(*) FROM lineorder, date "
            "WHERE lo_orderdate = d_datekey"
        )
        assert rows[0][0] == warehouse.catalog.table("lineorder").row_count

    def test_error_hierarchy_is_catchable_at_the_root(self):
        from repro.errors import (
            AdmissionError,
            ParseError,
            PipelineError,
            QueryError,
            ReproError,
            SchemaError,
            SnapshotError,
            StorageError,
        )

        for error_type in (
            AdmissionError,
            ParseError,
            PipelineError,
            QueryError,
            SchemaError,
            SnapshotError,
            StorageError,
        ):
            assert issubclass(error_type, ReproError)
        assert issubclass(SnapshotError, StorageError)
        assert issubclass(ParseError, QueryError)

    def test_parse_error_carries_position(self):
        from repro.errors import ParseError

        error = ParseError("boom", position=17)
        assert error.position == 17
        assert "17" in str(error)


class TestBenchCLI:
    def test_runs_selected_experiments(self, capsys):
        assert bench_main(["tab1", "tab3"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out and "Table 3" in out
        assert "all shape checks passed" in out

    def test_unknown_experiment_id(self, capsys):
        assert bench_main(["fig99"]) == 2
        assert "unknown experiment ids" in capsys.readouterr().out

    def test_default_runs_everything(self, capsys):
        assert bench_main([]) == 0
        out = capsys.readouterr().out
        for marker in ("Figure 4", "Figure 8", "Table 2"):
            assert marker in out
