"""Tests for the experiment registry, runner and observer hooks."""

import pytest

import repro.api as api
from repro.api.experiments import (
    DuplicateExperimentError,
    ExperimentNotFoundError,
    ExperimentSpec,
)


class RecordingObserver:
    """Captures every runner event in order."""

    def __init__(self):
        self.events = []

    def experiment_started(self, name, params):
        self.events.append(("started", name, dict(params)))

    def experiment_row(self, name, index, row):
        self.events.append(("row", name, index))

    def experiment_completed(self, name, result):
        self.events.append(("completed", name, len(result.rows)))

    def experiment_failed(self, name, error):
        self.events.append(("failed", name, type(error).__name__))


def make_spec(name="unit_sweep", runner=None, **kwargs):
    return ExperimentSpec(
        name=name,
        title="unit-test sweep",
        runner=runner or (lambda depth=2: [{"level": i} for i in range(depth)]),
        to_rows=lambda raw: raw,
        **kwargs,
    )


class TestExperimentRegistry:
    def test_all_paper_experiments_are_registered(self):
        names = api.list_experiments()
        for expected in ("fig2_dot_product_sweep", "fig5_accuracy",
                         "fig8_cam_overhead", "fig9_cycles", "fig10_energy",
                         "table1_setup", "table2_pim_comparison",
                         "headline_claims"):
            assert expected in names

    def test_tag_filtering(self):
        fast = api.list_experiments(tag="fast")
        assert "fig9_cycles" in fast
        assert "fig5_accuracy" not in fast  # the training experiment is slow

    def test_duplicate_registration_raises(self):
        with pytest.raises(DuplicateExperimentError):
            api.register_experiment(make_spec(name="fig9_cycles"))

    def test_unknown_experiment_raises_with_known_names(self):
        with pytest.raises(ExperimentNotFoundError) as excinfo:
            api.get_experiment("fig99")
        assert "fig9_cycles" in str(excinfo.value)

    def test_register_and_unregister(self):
        spec = make_spec(name="tmp_exp")
        try:
            api.register_experiment(spec)
            assert api.get_experiment("tmp_exp") is spec
        finally:
            api.unregister_experiment("tmp_exp")
        assert "tmp_exp" not in api.list_experiments()


class TestExperimentRunner:
    def test_observer_receives_ordered_events(self):
        observer = RecordingObserver()
        runner = api.ExperimentRunner([observer])
        result = runner.run(make_spec(), depth=3)

        assert result.rows == [{"level": 0}, {"level": 1}, {"level": 2}]
        assert observer.events[0] == ("started", "unit_sweep", {"depth": 3})
        assert observer.events[1:4] == [("row", "unit_sweep", 0),
                                        ("row", "unit_sweep", 1),
                                        ("row", "unit_sweep", 2)]
        assert observer.events[4] == ("completed", "unit_sweep", 3)

    def test_defaults_merge_under_overrides(self):
        observer = RecordingObserver()
        spec = make_spec(defaults={"depth": 5})
        result = api.ExperimentRunner([observer]).run(spec)
        assert len(result.rows) == 5
        assert result.params == {"depth": 5}
        result = api.ExperimentRunner().run(spec, depth=1)
        assert result.params == {"depth": 1}

    def test_failure_notifies_then_raises(self):
        def boom():
            raise RuntimeError("nope")

        observer = RecordingObserver()
        runner = api.ExperimentRunner([observer])
        with pytest.raises(RuntimeError):
            runner.run(make_spec(runner=boom))
        assert observer.events[-1] == ("failed", "unit_sweep", "RuntimeError")

    def test_partial_observer_missing_hooks_are_skipped(self):
        class RowsOnly:
            def __init__(self):
                self.rows = []

            def experiment_row(self, name, index, row):
                self.rows.append(row)

        observer = RowsOnly()
        api.ExperimentRunner([observer]).run(make_spec(), depth=2)
        assert observer.rows == [{"level": 0}, {"level": 1}]

    def test_callback_observer_adapter(self):
        rows = []
        runner = api.ExperimentRunner(
            [api.CallbackObserver(on_row=lambda name, i, row: rows.append(row))])
        runner.run(make_spec(), depth=2)
        assert rows == [{"level": 0}, {"level": 1}]

    def test_registered_paper_experiment_end_to_end(self):
        result = api.ExperimentRunner().run("fig2_dot_product_sweep",
                                            hash_lengths=(64, 256), seeds=(0, 1))
        assert result.experiment == "fig2_dot_product_sweep"
        assert [row["hash_length"] for row in result.rows] == [64, 256]
        assert result.rows[1]["mean_relative_error"] <= result.rows[0]["mean_relative_error"] * 2
        # raw keeps the legacy shape
        assert set(result.raw) == {64, 256}
        rebuilt = api.ExperimentResult.from_dict(result.to_dict())
        assert rebuilt.rows == result.rows

    def test_run_many(self):
        results = api.ExperimentRunner().run_many(
            ["table1_setup", "fig8_cam_overhead"],
            params_by_name={"fig8_cam_overhead": {"row_sizes": (64,),
                                                  "word_sizes": (256,)}})
        assert set(results) == {"table1_setup", "fig8_cam_overhead"}
        assert len(results["fig8_cam_overhead"].rows) == 1
        assert results["fig8_cam_overhead"].meta["fefet_vs_cmos_energy_ratio"] > 1.0


class TestLegacyWrappers:
    def test_every_legacy_function_has_a_registered_spec(self):
        registered = set(api.list_experiments())
        for experiment in ("fig2_dot_product_sweep", "fig5_accuracy",
                           "fig8_cam_overhead", "fig9_cycles", "fig10_energy",
                           "table1_setup", "table2_pim_comparison",
                           "headline_claims"):
            assert experiment in registered
