"""Registry error paths and the native shapes of registered experiments.

Complements ``test_registry.py`` / ``test_runner.py``: every failure mode
of the two registries (unknown key, duplicate key, overwrite, unregister of
a missing key) and a sweep asserting that the cheap paper experiments
still return their historical shapes as ``ExperimentResult.raw``.
"""

import pytest

import repro.api as api
from repro.api.backend import BackendNotFoundError, DuplicateBackendError
from repro.api.experiments import (
    DuplicateExperimentError,
    ExperimentNotFoundError,
)
from repro.evaluation.experiments import Fig9Row


class TestBackendRegistryErrorPaths:
    def test_unknown_key_lists_known_backends(self):
        with pytest.raises(BackendNotFoundError) as excinfo:
            api.get_backend("npu")
        message = str(excinfo.value)
        assert "npu" in message
        for known in ("deepcam", "eyeriss", "cpu"):
            assert known in message

    def test_duplicate_registration_raises_and_keeps_original(self):
        with pytest.raises(DuplicateBackendError):
            api.register_backend("cpu", api.DeepCAMBackend)
        # The original registration must be untouched by the failed attempt.
        assert isinstance(api.get_backend("cpu"), api.SkylakeCPUBackend)

    def test_overwrite_replaces_and_can_be_restored(self):
        original_factory = api.SkylakeCPUBackend

        class FakeCPU(api.SkylakeCPUBackend):
            pass

        try:
            api.register_backend("cpu", FakeCPU, overwrite=True)
            assert isinstance(api.get_backend("cpu"), FakeCPU)
        finally:
            api.register_backend("cpu", original_factory, overwrite=True)
        assert type(api.get_backend("cpu")) is api.SkylakeCPUBackend

    def test_unregister_missing_key_is_a_noop(self):
        api.unregister_backend("definitely-not-registered")
        assert "definitely-not-registered" not in api.list_backends()

    def test_factory_kwargs_errors_propagate(self):
        with pytest.raises(TypeError):
            api.get_backend("eyeriss", bogus_option=1)


class TestExperimentRegistryErrorPaths:
    def test_unknown_experiment_lists_known_keys(self):
        with pytest.raises(ExperimentNotFoundError) as excinfo:
            api.ExperimentRunner().run("fig99_nonexistent")
        message = str(excinfo.value)
        assert "fig99_nonexistent" in message
        assert "fig9_cycles" in message

    def test_duplicate_experiment_registration_raises(self):
        spec = api.get_experiment("fig9_cycles")
        with pytest.raises(DuplicateExperimentError):
            api.register_experiment(spec)

    def test_overwrite_reregisters_cleanly(self):
        spec = api.get_experiment("fig9_cycles")
        api.register_experiment(spec, overwrite=True)  # idempotent re-import path
        assert api.get_experiment("fig9_cycles") is spec

    def test_unregister_missing_experiment_is_a_noop(self):
        api.unregister_experiment("never-registered")
        assert "never-registered" not in api.list_experiments()


def _check_fig2(sweep):
    assert set(sweep) == {64}


def _check_fig8(fig8):
    assert isinstance(fig8, dict)


def _check_fig9(rows9):
    assert len(rows9) == 1 and rows9[0].network == "lenet5"
    assert isinstance(rows9[0], Fig9Row)


def _check_fig10(rows10):
    assert all(hasattr(row, "network") for row in rows10)


def _check_table1(table1):
    assert isinstance(table1, list)
    assert all(isinstance(row, dict) for row in table1)


def _check_table2(table2):
    assert isinstance(table2, list) and table2


def _check_headline(headline):
    assert isinstance(headline, dict)
    assert headline  # non-empty claims mapping


#: Every paper experiment with parameters cheap enough for the tier-1 suite
#: (fig5 trains models and is exercised by the evaluation tests instead),
#: with the check of its historical native shape.
CHEAP_EXPERIMENTS = {
    "fig2_dot_product_sweep": ({"hash_lengths": (64,), "seeds": (0,)},
                               _check_fig2),
    "fig8_cam_overhead": ({"row_sizes": (64,), "word_sizes": (256,)},
                          _check_fig8),
    "fig9_cycles": ({"cam_rows": 64, "networks": ("lenet5",)}, _check_fig9),
    "fig10_energy": ({"cam_rows_list": (64,), "networks": ("lenet5",)},
                     _check_fig10),
    "table1_setup": ({}, _check_table1),
    "table2_pim_comparison": ({"cam_rows": 64}, _check_table2),
    "headline_claims": ({"cam_rows": 64}, _check_headline),
}


class TestRegisteredExperimentShapes:
    @pytest.mark.parametrize("experiment", sorted(CHEAP_EXPERIMENTS))
    def test_raw_result_keeps_its_historical_shape(self, experiment):
        params, check = CHEAP_EXPERIMENTS[experiment]
        check(api.ExperimentRunner().run(experiment, **params).raw)
