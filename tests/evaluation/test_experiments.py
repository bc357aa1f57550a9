"""Tests for the registered paper experiments (fast subsets).

Each experiment runs through ``ExperimentRunner`` and the assertions read
its native return value (``result.raw``).  The slow accuracy experiment
(Fig. 5) is exercised end-to-end in the integration tests and the
benchmark harness; here only its fast path is checked so the unit suite
stays quick.
"""

import pytest

from repro.api import ExperimentRunner
from repro.core.config import Dataflow, DeepCAMConfig
from repro.evaluation.experiments import (
    PAPER_EXAMPLE_X,
    PAPER_EXAMPLE_Y,
    default_vhl_profile,
)
from repro.workloads.specs import vgg16_trace


def run(name, **params):
    """The registered experiment's native result."""
    return ExperimentRunner().run(name, **params).raw


class TestFig2:
    def test_error_decreases_with_hash_length(self):
        sweep = run("fig2_dot_product_sweep", hash_lengths=(64, 2048),
                    seeds=tuple(range(10)), use_exact_cosine=True)
        assert sweep[2048]["mean_relative_error"] < sweep[64]["mean_relative_error"]

    def test_reference_matches_paper_value(self):
        sweep = run("fig2_dot_product_sweep", hash_lengths=(256,), seeds=(0,))
        assert sweep[256]["reference"] == pytest.approx(2.0765, abs=1e-3)

    def test_paper_example_vectors_have_four_elements(self):
        assert len(PAPER_EXAMPLE_X) == len(PAPER_EXAMPLE_Y) == 4


class TestFig8:
    def test_sweep_grid_and_ratios(self):
        result = run("fig8_cam_overhead")
        assert len(result["sweep"]) == 16
        assert result["fefet_vs_cmos_energy_ratio"] > 1.5
        assert result["fefet_vs_cmos_area_ratio"] > 3.0

    def test_energy_monotone_in_word_width(self):
        result = run("fig8_cam_overhead", row_sizes=(64,), word_sizes=(256, 512, 768, 1024))
        energies = [r.search_energy_pj for r in result["sweep"]]
        assert energies == sorted(energies)


class TestVHLProfile:
    def test_profile_covers_all_layers_with_supported_lengths(self):
        trace = vgg16_trace()
        profile = default_vhl_profile(trace)
        assert set(profile) == {layer.name for layer in trace}
        assert set(profile.values()).issubset({256, 512, 768, 1024})

    def test_longer_contexts_get_longer_hashes(self):
        trace = vgg16_trace()
        profile = default_vhl_profile(trace)
        assert profile["conv1"] <= profile["conv13"]


class TestFig9:
    def test_deepcam_beats_eyeriss_and_cpu_everywhere(self):
        rows = run("fig9_cycles", cam_rows=64)
        assert len(rows) == 4
        for row in rows:
            assert row.speedup_vs_eyeriss_as > 1.0
            assert row.speedup_vs_cpu_as > 1.0

    def test_lenet_activation_stationary_beats_weight_stationary(self):
        rows = run("fig9_cycles", cam_rows=64, networks=("lenet5",))
        lenet = rows[0]
        assert lenet.deepcam_as_cycles <= lenet.deepcam_ws_cycles
        assert lenet.deepcam_as_utilization >= lenet.deepcam_ws_utilization

    def test_more_rows_reduce_deepcam_cycles(self):
        small = run("fig9_cycles", cam_rows=64, networks=("resnet18",))[0]
        large = run("fig9_cycles", cam_rows=512, networks=("resnet18",))[0]
        assert large.deepcam_as_cycles < small.deepcam_as_cycles


class TestFig10:
    def test_normalisation_ordering(self):
        rows = run("fig10_energy", cam_rows_list=(64,), networks=("lenet5", "vgg11"),
                   dataflows=(Dataflow.ACTIVATION_STATIONARY,))
        for row in rows:
            assert row.vhl_normalized >= 1.0 - 1e-9          # VHL never cheaper than all-256
            assert row.max_normalized >= row.vhl_normalized  # Max DeepCAM is the ceiling
            assert row.energy_reduction_vs_eyeriss > 1.0     # DeepCAM beats Eyeriss

    def test_row_and_dataflow_grid(self):
        rows = run("fig10_energy", cam_rows_list=(64, 512), networks=("lenet5",))
        assert len(rows) == 4  # 2 row counts x 2 dataflows


class TestTables:
    def test_table1_mentions_all_platforms(self):
        table = run("table1_setup")
        assert any("Eyeriss" in row["systolic"] for row in table)
        assert any("FeFET" in row["deepcam"] for row in table)
        assert any("lenet5" in row["cpu"] for row in table)

    def test_table2_qualitative_claims(self):
        rows = run("table2_pim_comparison", cam_rows=64)
        by_work = {row.work: row for row in rows}
        deepcam = by_work["DeepCAM (ours)"]
        neurosim = by_work["NeuroSim"]
        valavi = by_work["Valavi et al."]
        # DeepCAM is the most energy-efficient of the three (paper: 71.7x and
        # 7.27x better), and needs fewer cycles than the RRAM design.
        assert deepcam.energy_uj < valavi.energy_uj < neurosim.energy_uj
        assert deepcam.cycles < neurosim.cycles
        assert deepcam.dot_product_mode == "Geometric"
        # Paper reference numbers are carried for the report.
        assert neurosim.paper_energy_uj == pytest.approx(34.98)
        assert deepcam.paper_cycles == pytest.approx(2.652e5)


class TestHeadlineClaims:
    def test_directions_of_all_claims(self):
        claims = run("headline_claims", cam_rows=64)
        assert claims["max_speedup_vs_eyeriss"] > 10
        assert claims["max_speedup_vs_cpu"] > 10
        assert claims["min_energy_reduction_vs_eyeriss"] > 1.0
        assert claims["max_energy_reduction_vs_eyeriss"] > claims["min_energy_reduction_vs_eyeriss"]
        # The speedup over the CPU exceeds the speedup over Eyeriss for the
        # large networks, as in the paper's abstract.
        assert claims["max_speedup_vs_cpu"] > claims["resnet18_speedup_vs_eyeriss"]
