#!/usr/bin/env python
"""Smoke-check the unified repro.api runtime: schema violations exit nonzero.

For every registered backend this script runs one tiny estimate and checks
that the resulting :class:`CostReport` obeys the typed schema and survives a
real JSON round-trip; it then runs one tiny registered experiment per
backend family (cycle models, energy models, the CAM overhead model and the
PIM comparison) and checks the :class:`ExperimentResult` schema the same
way.  Finally it runs one micro inference through the DeepCAM backend to
check the :class:`RunResult` path, and recomputes every layer's products of
that pass through the per-element cosine model to check that the tabulated
read-out still equals it bit for bit.

Intended for CI / ``make check``:

    PYTHONPATH=src python scripts/smoke.py
"""

from __future__ import annotations

import json
import sys
import traceback

import numpy as np


def check(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def check_cost_reports(api) -> None:
    trace = api.network_by_name("lenet5")
    for name in api.list_backends():
        report = api.get_backend(name).estimate(trace)
        check(isinstance(report, api.CostReport),
              f"{name}: estimate() must return a CostReport")
        check(report.backend == name, f"{name}: report.backend mismatch")
        check(report.network == trace.name, f"{name}: report.network mismatch")
        check(report.total_cycles > 0, f"{name}: cycles must be positive")
        rebuilt = api.CostReport.from_dict(json.loads(json.dumps(report.to_dict())))
        check(rebuilt == report, f"{name}: CostReport JSON round-trip changed the value")
        print(f"  [ok] backend {name}: {report.total_cycles} cycles, "
              f"energy={report.total_energy_uj}")


def check_experiments(api) -> None:
    # One tiny registered experiment per backend family: fig9 covers the
    # deepcam/eyeriss/cpu cycle models, fig10 the energy models, fig8 the CAM
    # overhead model and table2 the analog PIM backends.
    tiny_params = {
        "fig9_cycles": {"networks": ("lenet5",)},
        "fig10_energy": {"cam_rows_list": (64,), "networks": ("lenet5",)},
        "fig8_cam_overhead": {"row_sizes": (64,), "word_sizes": (256,)},
        "table2_pim_comparison": {"cam_rows": 64},
        "table1_setup": {},
    }
    runner = api.ExperimentRunner()
    for name, params in tiny_params.items():
        result = runner.run(name, **params)
        check(isinstance(result, api.ExperimentResult),
              f"{name}: run() must return an ExperimentResult")
        check(len(result.rows) > 0, f"{name}: no rows produced")
        check(all(isinstance(row, dict) for row in result.rows),
              f"{name}: rows must be plain dicts")
        payload = json.dumps(result.to_dict())  # raises if not JSON-serialisable
        rebuilt = api.ExperimentResult.from_dict(json.loads(payload))
        check(rebuilt.rows == result.rows,
              f"{name}: ExperimentResult JSON round-trip changed the rows")
        print(f"  [ok] experiment {name}: {len(result.rows)} rows")


def check_inference(api) -> None:
    from repro.nn.models.lenet import build_lenet5

    model = build_lenet5(num_classes=4, input_size=28, width_multiplier=0.25, seed=0)
    batch = np.random.default_rng(0).normal(size=(2, 1, 28, 28))
    backend = api.deepcam(rows=64, hash_length=256)
    layers = capture_layer_products(backend.simulator)
    try:
        result = backend.run(model, batch)
    finally:
        del backend.simulator._approximate_matmul
    check(isinstance(result, api.RunResult), "deepcam run() must return a RunResult")
    check(result.num_samples == 2, "RunResult.num_samples mismatch")
    check(result.stats.get("cam_searches", 0) > 0, "simulator stats missing")
    rebuilt = api.RunResult.from_dict(json.loads(json.dumps(result.to_dict())))
    check(rebuilt == result, "RunResult JSON round-trip changed the value")
    print(f"  [ok] deepcam inference: predictions={result.predictions}")
    check_readout(layers, backend.config.use_exact_cosine)


def capture_layer_products(simulator) -> list:
    """Record ``(weights, activations, products)`` of every simulated layer."""
    layers = []
    readout = simulator._approximate_matmul

    def recording(weights, activations, layer_name):
        products = readout(weights, activations, layer_name)
        layers.append((weights, activations, products))
        return products

    simulator._approximate_matmul = recording
    return layers


def check_readout(layers, use_exact: bool) -> None:
    """Each layer's products equal the per-element model path bit for bit."""
    from repro.core.hashing import hamming_distance_matrix_unpacked
    from repro.hw.cosine_unit import CosineUnit

    unit = CosineUnit(use_exact=use_exact)
    check(len(layers) > 0, "the simulator ran no approximate layers")
    for weights, activations, products in layers:
        distances = hamming_distance_matrix_unpacked(weights.bits, activations.bits)
        thetas = np.pi * distances / weights.hash_length
        cosines = np.asarray(unit(thetas.ravel())).reshape(thetas.shape)
        expected = np.outer(weights.norms, activations.norms) * cosines
        check(np.array_equal(products.view(np.uint64), expected.view(np.uint64)),
              f"read-out diverged from the cosine model at k={weights.hash_length}")
    print(f"  [ok] read-out equals the per-element model on {len(layers)} layers")


def main() -> int:
    try:
        import repro.api as api
    except Exception:
        traceback.print_exc()
        print("FAIL: repro.api did not import")
        return 1

    steps = (
        ("cost reports per backend", check_cost_reports),
        ("registered experiments", check_experiments),
        ("functional inference", check_inference),
    )
    for title, step in steps:
        print(f"== {title} ==")
        try:
            step(api)
        except Exception:
            traceback.print_exc()
            print(f"FAIL: {title}")
            return 1
    print("smoke: all API schema checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
