"""Tests for the DeepCAM functional inference simulator."""

import numpy as np
import pytest

from repro.core.accelerator import DeepCAMSimulator
from repro.core.config import DeepCAMConfig
from repro.core.hashing import hamming_distance_matrix_unpacked
from repro.core.minifloat import MINIFLOAT8
from repro.hw.cosine_unit import CosineUnit
from repro.nn.layers import Conv2d, Flatten, Linear, MaxPool2d, ReLU, Sequential
from repro.nn.models.resnet import build_resnet18
from repro.serve.engine import CamPipelineEngine


@pytest.fixture
def tiny_cnn(rng):
    return Sequential(
        Conv2d(1, 4, kernel_size=3, padding=1, rng=rng),
        ReLU(),
        MaxPool2d(2),
        Flatten(),
        Linear(4 * 4 * 4, 3, rng=rng),
    )


class TestBasicOperation:
    def test_output_shape_matches_exact_model(self, tiny_cnn, rng):
        simulator = DeepCAMSimulator(DeepCAMConfig())
        images = rng.normal(size=(3, 1, 8, 8))
        approx = simulator.run(tiny_cnn, images)
        exact = tiny_cnn(images)
        assert approx.shape == exact.shape

    def test_long_hash_approximates_exact_logits(self, tiny_cnn, rng):
        simulator = DeepCAMSimulator(DeepCAMConfig().homogeneous(1024))
        images = rng.normal(size=(2, 1, 8, 8))
        approx = simulator.run(tiny_cnn, images)
        exact = tiny_cnn(images)
        # Values track the exact computation; correlation is the robust check
        # because the PWL cosine introduces a systematic scale factor.
        correlation = np.corrcoef(approx.ravel(), exact.ravel())[0, 1]
        assert correlation > 0.9

    def test_longer_hash_is_more_accurate(self, tiny_cnn, rng):
        images = rng.normal(size=(2, 1, 8, 8))
        exact = tiny_cnn(images)

        def mse(hash_length):
            config = DeepCAMConfig(use_exact_cosine=True).homogeneous(hash_length)
            approx = DeepCAMSimulator(config).run(tiny_cnn, images)
            return float(np.mean((approx - exact) ** 2))

        assert mse(1024) < mse(256)

    def test_deterministic_given_config_seed(self, tiny_cnn, rng):
        images = rng.normal(size=(2, 1, 8, 8))
        a = DeepCAMSimulator(DeepCAMConfig(seed=3)).run(tiny_cnn, images)
        b = DeepCAMSimulator(DeepCAMConfig(seed=3)).run(tiny_cnn, images)
        assert np.array_equal(a, b)

    def test_different_seed_changes_results(self, tiny_cnn, rng):
        images = rng.normal(size=(2, 1, 8, 8))
        a = DeepCAMSimulator(DeepCAMConfig(seed=3)).run(tiny_cnn, images)
        b = DeepCAMSimulator(DeepCAMConfig(seed=4)).run(tiny_cnn, images)
        assert not np.array_equal(a, b)

    def test_rejects_non_nchw_input(self, tiny_cnn, rng):
        with pytest.raises(ValueError):
            DeepCAMSimulator().run(tiny_cnn, rng.normal(size=(2, 8, 8)))

    def test_stats_populated(self, tiny_cnn, rng):
        simulator = DeepCAMSimulator(DeepCAMConfig())
        simulator.run(tiny_cnn, rng.normal(size=(1, 1, 8, 8)))
        stats = simulator.stats
        assert stats.dot_product_layers == 2      # conv + linear
        assert stats.cam_searches > 0
        assert stats.cam_fills > 0
        assert stats.contexts_hashed > 0
        assert set(stats.hash_lengths_used) == {"layer0", "layer1"}

    def test_per_layer_hash_lengths_respected(self, tiny_cnn, rng):
        config = DeepCAMConfig().with_hash_lengths({"layer0": 512, "layer1": 256})
        simulator = DeepCAMSimulator(config)
        simulator.run(tiny_cnn, rng.normal(size=(1, 1, 8, 8)))
        assert simulator.stats.hash_lengths_used == {"layer0": 512, "layer1": 256}

    def test_forward_fn_wrapper(self, tiny_cnn, rng):
        simulator = DeepCAMSimulator()
        forward = simulator.forward_fn(tiny_cnn)
        assert forward(rng.normal(size=(2, 1, 8, 8))).shape == (2, 3)

    def test_unknown_module_type_raises(self, rng):
        class Strange:
            pass

        simulator = DeepCAMSimulator()
        with pytest.raises(TypeError):
            simulator._forward_module(Strange(), rng.normal(size=(1, 1, 4, 4)))


class TestHardwarePathEquivalence:
    def test_cam_hardware_path_matches_vectorised_path(self, rng):
        # The bit-level DynamicCam path and the vectorised NumPy path must
        # produce identical logits when the sense amplifier is noise-free.
        model = Sequential(
            Conv2d(1, 3, kernel_size=3, rng=rng),
            ReLU(),
            Flatten(),
            Linear(3 * 4 * 4, 2, rng=rng),
        )
        images = rng.normal(size=(1, 1, 6, 6))
        config = DeepCAMConfig(cam_rows=16)
        software = DeepCAMSimulator(config, use_cam_hardware=False).run(model, images)
        hardware = DeepCAMSimulator(config, use_cam_hardware=True).run(model, images)
        assert np.allclose(software, hardware)

    def test_hardware_path_counts_fills(self, rng):
        model = Sequential(Conv2d(1, 2, kernel_size=3, rng=rng), Flatten(),
                           Linear(2 * 4 * 4, 2, rng=rng))
        simulator = DeepCAMSimulator(DeepCAMConfig(cam_rows=8), use_cam_hardware=True)
        simulator.run(model, rng.normal(size=(1, 1, 6, 6)))
        assert simulator.stats.cam_fills >= 2  # 16 conv patches over 8 rows


class TestResNetSupport:
    def test_resnet_forward_shape(self, rng):
        model = build_resnet18(num_classes=4, width_multiplier=0.125, seed=0)
        simulator = DeepCAMSimulator(DeepCAMConfig())
        logits = simulator.run(model, rng.normal(size=(1, 3, 32, 32)))
        assert logits.shape == (1, 4)

    def test_resnet_counts_all_dot_product_layers(self, rng):
        model = build_resnet18(num_classes=4, width_multiplier=0.125, seed=0)
        simulator = DeepCAMSimulator(DeepCAMConfig())
        simulator.run(model, rng.normal(size=(1, 3, 32, 32)))
        # stem + 16 block convs + 3 downsample convs + classifier = 21.
        assert simulator.stats.dot_product_layers == 21


def _model_path_products(left_bits, right_bits, left_norms, right_norms,
                         hash_length, use_exact):
    """The read-out recomputed per element: GEMM Hamming distances, the
    angle ``pi * d / k`` and one cosine-unit call over every product."""
    distances = hamming_distance_matrix_unpacked(left_bits, right_bits)
    thetas = np.pi * distances / hash_length
    cosines = np.asarray(CosineUnit(use_exact=use_exact)(thetas.ravel()))
    return np.outer(left_norms, right_norms) * cosines.reshape(thetas.shape)


class _ModelPathSimulator(DeepCAMSimulator):
    """The simulator with a read-out that shares none of its code."""

    def _approximate_matmul(self, weight_contexts, activation_contexts, layer_name):
        return _model_path_products(
            weight_contexts.bits, activation_contexts.bits,
            weight_contexts.norms, activation_contexts.norms,
            weight_contexts.hash_length, self.config.use_exact_cosine)


class TestReadOutOracle:
    """Tabulated read-outs are bit-identical to the per-element model."""

    @pytest.mark.parametrize("use_exact", [False, True])
    def test_simulator_logits_match_model_path(self, rng, use_exact):
        model = Sequential(
            Conv2d(1, 4, kernel_size=3, padding=1, rng=rng),
            ReLU(),
            Conv2d(4, 4, kernel_size=3, padding=1, rng=rng),
            ReLU(),
            MaxPool2d(2),
            Flatten(),
            Linear(4 * 4 * 4, 3, rng=rng),
        )
        images = rng.normal(size=(3, 1, 8, 8))
        config = DeepCAMConfig(use_exact_cosine=use_exact).with_hash_lengths(
            {"layer0": 256, "layer1": 768, "layer2": 512})
        logits = DeepCAMSimulator(config).run(model, images)
        expected = _ModelPathSimulator(config).run(model, images)
        assert np.array_equal(logits.view(np.uint64), expected.view(np.uint64))

    @pytest.mark.parametrize("use_exact", [False, True])
    @pytest.mark.parametrize("hash_length", [256, 768])
    def test_engine_logits_match_model_path(self, rng, use_exact, hash_length):
        prototypes = rng.normal(size=(12, 40))
        queries = rng.normal(size=(9, 40))
        engine = CamPipelineEngine(prototypes, hash_length=hash_length, seed=7,
                                   use_exact_cosine=use_exact,
                                   quantize_norms=MINIFLOAT8)
        prepared = engine.prepare(queries)
        logits = engine.execute(prepared)
        expected = _model_path_products(
            engine.hasher.hash_batch(queries), engine.hasher.hash_batch(prototypes),
            prepared.norms, engine._prototype_norms, hash_length, use_exact)
        assert np.array_equal(logits.view(np.uint64), expected.view(np.uint64))
