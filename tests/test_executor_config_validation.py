"""ExecutorConfig and service-knob range validation (ConfigError).

Worker counts (of the sharded drain, ``execute_process_parallel``) and
batch sizes must not silently accept nonsense (zero workers, bool
batch sizes).  The service layer (DESIGN.md section 9) added
``max_concurrent`` / ``max_in_flight`` / ``idle_sleep`` /
``admission_queue_depth`` to the same regime.  Every rejection must
carry an actionable message naming the field and the accepted range.
"""

import pytest

from repro.cjoin.executor import ExecutorConfig
from repro.cjoin.parallel import MAX_WORKERS, execute_process_parallel
from repro.errors import ConfigError, PipelineError
from repro.tuning import (
    MAX_BATCH_SIZE,
    MAX_CONCURRENT_QUERIES,
    MAX_IDLE_SLEEP,
    TuningConfig,
)


class TestNameValidation:
    def test_unknown_execution(self, tiny_star):
        """There is one pipeline: the ``execution`` knob is gone.

        ``Warehouse`` still accepts the one value the frozen layered
        benchmark harness passes; anything else is a typed error.
        """
        from repro.engine.warehouse import Warehouse

        catalog, star = tiny_star
        for execution in ("tuple", "batched"):
            with pytest.raises(TypeError, match="execution"):
                ExecutorConfig(execution=execution)
        with pytest.raises(ConfigError, match="unknown execution 'tuple'"):
            Warehouse(catalog, star, execution="tuple")
        warehouse = Warehouse(catalog, star, execution="batched")
        assert not hasattr(warehouse.cjoin.executor.config, "execution")
        warehouse.close()

    def test_unknown_backend(self, tiny_star):
        """There is one route in: no ``backend``, no ``workers`` knob."""
        from repro.engine.warehouse import Warehouse

        catalog, star = tiny_star
        with pytest.raises(TypeError, match="backend"):
            Warehouse(catalog, star, backend="process")
        with pytest.raises(TypeError, match="backend"):
            ExecutorConfig(backend="process")
        for config in (ExecutorConfig, TuningConfig):
            with pytest.raises(TypeError, match="workers"):
                config(workers=2)

    def test_force_is_gone(self, tiny_star):
        """No caller picks an engine per submission; the baseline is
        ``warehouse.baseline``, not a route."""
        from repro.engine.warehouse import Warehouse
        from repro.query.star import StarQuery

        catalog, star = tiny_star
        warehouse = Warehouse(catalog, star)
        query = StarQuery.build("sales", dimension_predicates={})
        with pytest.raises(TypeError, match="force"):
            warehouse.submit(query, force="baseline")
        with pytest.raises(TypeError, match="force"):
            warehouse.submit_sql("SELECT COUNT(*) FROM sales", force="baseline")
        with pytest.raises(TypeError, match="max_in_flight_baseline"):
            warehouse.run(max_in_flight_baseline=1)
        assert warehouse.submissions == []
        warehouse.close()

    def test_config_error_is_a_pipeline_error(self):
        """Pre-existing callers catching PipelineError keep working."""
        with pytest.raises(PipelineError):
            ExecutorConfig(batch_size=0)


class TestWorkerRange:
    """``execute_process_parallel`` validates its own ``workers``."""

    @pytest.mark.parametrize("workers", [0, -1, MAX_WORKERS + 1])
    def test_out_of_range_workers(self, tiny_star, workers):
        catalog, star = tiny_star
        with pytest.raises(ConfigError, match="workers must be in"):
            execute_process_parallel(catalog, star, [], workers=workers)

    @pytest.mark.parametrize("workers", [1.5, "4", True])
    def test_non_int_workers(self, tiny_star, workers):
        catalog, star = tiny_star
        with pytest.raises(ConfigError, match="workers must be an int"):
            execute_process_parallel(catalog, star, [], workers=workers)

    def test_boundary_workers_accepted(self, tiny_star):
        catalog, star = tiny_star
        assert execute_process_parallel(
            catalog, star, [], workers=MAX_WORKERS
        ) == []


class TestBatchSizeRange:
    @pytest.mark.parametrize("batch_size", [0, -3, MAX_BATCH_SIZE + 1])
    def test_out_of_range_batch_size(self, batch_size):
        with pytest.raises(ConfigError, match="batch_size must be in"):
            ExecutorConfig(batch_size=batch_size)

    @pytest.mark.parametrize("batch_size", [0.5, "256", False])
    def test_non_int_batch_size(self, batch_size):
        with pytest.raises(ConfigError, match="batch_size must be an int"):
            ExecutorConfig(batch_size=batch_size)


class TestServiceKnobs:
    """The always-on service knobs (DESIGN.md section 9)."""

    @pytest.mark.parametrize(
        "max_concurrent", [0, -5, MAX_CONCURRENT_QUERIES + 1]
    )
    def test_out_of_range_max_concurrent(self, tiny_star, max_concurrent):
        from repro.engine.warehouse import Warehouse

        catalog, star = tiny_star
        with pytest.raises(ConfigError, match="max_concurrent must be in"):
            Warehouse(catalog, star, max_concurrent=max_concurrent)

    @pytest.mark.parametrize("max_concurrent", [2.5, "256", True])
    def test_non_int_max_concurrent(self, tiny_star, max_concurrent):
        from repro.engine.warehouse import Warehouse

        catalog, star = tiny_star
        with pytest.raises(ConfigError, match="max_concurrent must be an int"):
            Warehouse(catalog, star, max_concurrent=max_concurrent)

    @pytest.mark.parametrize(
        "max_in_flight", [0, -1, MAX_CONCURRENT_QUERIES + 1, 1.5, False]
    )
    def test_bad_max_in_flight(self, tiny_star, max_in_flight):
        from repro.engine.warehouse import Warehouse

        catalog, star = tiny_star
        with pytest.raises(ConfigError, match="max_in_flight must be"):
            Warehouse(
                catalog, star, tuning=TuningConfig(max_in_flight=max_in_flight)
            )

    def test_max_in_flight_clamped_to_max_concurrent(self, tiny_star):
        from repro.engine.warehouse import Warehouse

        catalog, star = tiny_star
        warehouse = Warehouse(
            catalog, star, max_concurrent=4, tuning=TuningConfig(max_in_flight=64)
        )
        assert warehouse.service.max_in_flight == 4

    @pytest.mark.parametrize(
        "idle_sleep", [-0.001, MAX_IDLE_SLEEP + 1.0, "fast", None, True]
    )
    def test_bad_idle_sleep(self, tiny_star, idle_sleep):
        from repro.engine.warehouse import Warehouse

        catalog, star = tiny_star
        with pytest.raises(ConfigError, match="idle_sleep must be"):
            Warehouse(catalog, star, tuning=TuningConfig(idle_sleep=idle_sleep))

    def test_idle_sleep_accepts_ints(self, tiny_star):
        from repro.engine.warehouse import Warehouse

        catalog, star = tiny_star
        warehouse = Warehouse(catalog, star, tuning=TuningConfig(idle_sleep=1))
        assert warehouse.service.idle_sleep == 1

    @pytest.mark.parametrize("depth", [0, -2, 0.5, "many", False])
    def test_bad_admission_queue_depth(self, tiny_star, depth):
        from repro.engine.warehouse import Warehouse

        catalog, star = tiny_star
        with pytest.raises(ConfigError, match="admission_queue_depth must be"):
            Warehouse(
                catalog, star, tuning=TuningConfig(admission_queue_depth=depth)
            )
