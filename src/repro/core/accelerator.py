"""DeepCAM functional simulator: CNN inference with approximate dot-products.

This is the system-level simulator the paper uses for its accuracy results
(Fig. 5): a pre-trained CNN is executed layer by layer, but every conv/FC
dot-product is replaced by DeepCAM's approximate geometric dot-product --
hash the weight and activation contexts with the layer's shared random
projection, measure Hamming distances, convert them to angles, run the
piecewise-linear cosine and scale by the (minifloat-quantised) L2 norms.
All other layers (ReLU, pooling, batch-norm, flatten, residual adds) run
digitally exactly as in the post-processing unit.

Two execution paths are provided:

* the default *vectorised* path computes the Hamming distances in NumPy,
  which is exact and fast; and
* the *hardware* path (``use_cam_hardware=True``) routes every search
  through the :class:`~repro.cam.dynamic.DynamicCam` bit-level model,
  fills/reconfigures the CAM exactly as the mapper would, and therefore also
  exercises the sense-amplifier model.  The two paths produce identical
  results when the sense amplifier is noise-free, which the integration
  tests assert.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.cam.dynamic import DynamicCam, DynamicCamConfig
from repro.core.config import DeepCAMConfig
from repro.core.context import ContextGenerator, LayerContext
from repro.bitops import packed_hamming_matrix
from repro.core.minifloat import MINIFLOAT8
from repro.hw.cosine_unit import CosineUnit, cosine_table, gather_cosines
from repro.nn import functional as F
from repro.nn.layers import (
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    Flatten,
    Linear,
    MaxPool2d,
    Module,
    ReLU,
    Sequential,
)
from repro.nn.models.resnet import BasicBlock, ResNet18


@dataclass
class SimulationStats:
    """Counters accumulated over one simulator invocation."""

    dot_product_layers: int = 0
    cam_searches: int = 0
    cam_fills: int = 0
    contexts_hashed: int = 0
    hash_lengths_used: Dict[str, int] = field(default_factory=dict)


class DeepCAMSimulator:
    """Runs NumPy CNN models with DeepCAM's approximate dot-products.

    Parameters
    ----------
    config:
        Architectural configuration; the per-layer hash lengths and the
        cosine/norm approximation knobs are taken from here.
    use_cam_hardware:
        Route Hamming-distance computation through the bit-level
        :class:`DynamicCam` model instead of the vectorised software path.
        Functionally identical (with a noise-free sense amplifier) but much
        slower; intended for hardware-equivalence tests and small models.
    """

    def __init__(self, config: DeepCAMConfig | None = None,
                 use_cam_hardware: bool = False) -> None:
        self.config = config if config is not None else DeepCAMConfig()
        self.use_cam_hardware = bool(use_cam_hardware)
        self.cosine_unit = CosineUnit(use_exact=self.config.use_exact_cosine)
        self.norm_format = MINIFLOAT8 if self.config.quantize_norms else None
        self.stats = SimulationStats()
        self._weight_context_cache: Dict[int, LayerContext] = {}
        self._generator_cache: Dict[int, ContextGenerator] = {}
        self._layer_counter = 0

    # -- public API ---------------------------------------------------------------------

    def run(self, model: Module, images: np.ndarray) -> np.ndarray:
        """Run ``model`` on a batch of images with approximate dot-products.

        The model is switched to eval mode; its weights are not modified.
        Returns the logits.
        """
        model.eval()
        self.stats = SimulationStats()
        self._layer_counter = 0
        data = np.asarray(images, dtype=np.float64)
        if data.ndim != 4:
            raise ValueError("images must be an NCHW batch")
        return self._forward_module(model, data)

    def forward_fn(self, model: Module):
        """Return a callable suitable for :func:`repro.nn.train.evaluate_accuracy`."""

        def _forward(batch: np.ndarray) -> np.ndarray:
            return self.run(model, batch)

        return _forward

    # -- module dispatch -------------------------------------------------------------------

    def _forward_module(self, module: Module, x: np.ndarray) -> np.ndarray:
        if isinstance(module, Sequential):
            out = x
            for layer in module.layers:
                out = self._forward_module(layer, out)
            return out
        if isinstance(module, ResNet18):
            return self._forward_resnet(module, x)
        if isinstance(module, BasicBlock):
            return self._forward_basic_block(module, x)
        if isinstance(module, Conv2d):
            return self._approximate_conv(module, x)
        if isinstance(module, Linear):
            return self._approximate_linear(module, x)
        if isinstance(module, (ReLU, MaxPool2d, AvgPool2d, BatchNorm2d, Flatten)):
            return module.forward(x)
        raise TypeError(f"DeepCAMSimulator does not know how to execute {type(module).__name__}")

    def _forward_resnet(self, model: ResNet18, x: np.ndarray) -> np.ndarray:
        out = self._approximate_conv(model.stem_conv, x)
        out = model.stem_bn(out)
        out = model.stem_relu(out)
        for block in model.blocks:
            out = self._forward_basic_block(block, out)
        pooled = F.global_avg_pool2d(out).reshape(out.shape[0], -1)
        return self._approximate_linear(model.classifier, pooled)

    def _forward_basic_block(self, block: BasicBlock, x: np.ndarray) -> np.ndarray:
        if block.downsample is not None:
            identity = self._forward_module(block.downsample, x)
        else:
            identity = x
        out = self._approximate_conv(block.conv1, x)
        out = block.relu1(block.bn1(out))
        out = self._approximate_conv(block.conv2, out)
        out = block.bn2(out)
        return block.relu2(out + identity)

    # -- approximate dot-product layers ---------------------------------------------------------

    def _layer_name(self, module: Module) -> str:
        """Stable per-run layer name used for hash-length lookup and seeds."""
        name = f"layer{self._layer_counter}"
        self._layer_counter += 1
        return name

    def _generator_for(self, module: Module, input_dim: int, layer_name: str) -> ContextGenerator:
        key = id(module)
        hash_length = self.config.hash_length_for(layer_name)
        cached = self._generator_cache.get(key)
        if cached is not None and cached.hash_length == hash_length:
            return cached
        seed = self.config.layer_seed(self._layer_counter)
        generator = ContextGenerator(input_dim=input_dim, hash_length=hash_length,
                                     seed=seed, norm_format=self.norm_format,
                                     layer_name=layer_name)
        self._generator_cache[key] = generator
        self._weight_context_cache.pop(key, None)
        return generator

    def _weight_contexts(self, module: Conv2d | Linear,
                         generator: ContextGenerator) -> LayerContext:
        key = id(module)
        cached = self._weight_context_cache.get(key)
        if cached is not None and cached.hash_length == generator.hash_length:
            return cached
        contexts = generator.weight_contexts(module)
        self._weight_context_cache[key] = contexts
        return contexts

    def _approximate_matmul(self, weight_contexts: LayerContext,
                            activation_contexts: LayerContext,
                            layer_name: str) -> np.ndarray:
        """Approximate products between weight rows and activation rows.

        Returns a ``(num_kernels, num_patches)`` matrix.
        """
        hash_length = weight_contexts.hash_length
        if self.use_cam_hardware:
            distances = self._hamming_via_cam(weight_contexts, activation_contexts)
        else:
            # Packed XOR+popcount kernel over the contexts' cached packings;
            # weight packings in particular are reused across every batch.
            distances = packed_hamming_matrix(weight_contexts.packed_bits,
                                              activation_contexts.packed_bits)
            rows = self.config.cam_rows
            stationary = activation_contexts.count
            fills = int(np.ceil(stationary / rows))
            self.stats.cam_fills += fills
            self.stats.cam_searches += fills * weight_contexts.count

        # The cosine unit is called once per layer, on the k + 1 angles a
        # distance can map to; every product then gathers its cosine.
        table = cosine_table(self.cosine_unit, hash_length)
        products = np.multiply.outer(weight_contexts.norms, activation_contexts.norms)
        products *= gather_cosines(table, distances)

        self.stats.dot_product_layers += 1
        self.stats.contexts_hashed += activation_contexts.count
        self.stats.hash_lengths_used[layer_name] = hash_length
        return products

    def _hamming_via_cam(self, weight_contexts: LayerContext,
                         activation_contexts: LayerContext) -> np.ndarray:
        """Bit-level path: activation-stationary fills of a DynamicCam."""
        hash_length = weight_contexts.hash_length
        cam = DynamicCam(DynamicCamConfig(rows=self.config.cam_rows))
        cam.configure_for_hash_length(hash_length)
        distances = np.empty((weight_contexts.count, activation_contexts.count), dtype=np.int64)
        rows = self.config.cam_rows
        for start in range(0, activation_contexts.count, rows):
            cam.clear()
            block = activation_contexts.bits[start:start + rows]
            cam.write_rows(block)
            self.stats.cam_fills += 1
            block_distances, _, _ = cam.search_batch(weight_contexts.bits)
            self.stats.cam_searches += weight_contexts.count
            distances[:, start:start + block.shape[0]] = (
                block_distances[:, : block.shape[0]]
            )
        return distances

    def _approximate_conv(self, module: Conv2d, x: np.ndarray) -> np.ndarray:
        layer_name = self._layer_name(module)
        input_dim = module.in_channels * module.kernel_size * module.kernel_size
        generator = self._generator_for(module, input_dim, layer_name)
        weight_contexts = self._weight_contexts(module, generator)

        batch = x.shape[0]
        out_h, out_w = module.output_shape((x.shape[2], x.shape[3]))
        patches = F.im2col(x, module.kernel_size, module.stride, module.padding)
        flat_patches = patches.reshape(batch * patches.shape[1], input_dim)
        activation_contexts = generator.activation_contexts_from_patches(flat_patches)

        products = self._approximate_matmul(weight_contexts, activation_contexts, layer_name)
        # (M, B*P) -> (B, M, out_h, out_w)
        products = products.reshape(module.out_channels, batch, out_h * out_w)
        output = products.transpose(1, 0, 2).reshape(batch, module.out_channels, out_h, out_w)
        if module.has_bias:
            output = output + module.params["bias"].reshape(1, -1, 1, 1)
        return output

    def _approximate_linear(self, module: Linear, x: np.ndarray) -> np.ndarray:
        layer_name = self._layer_name(module)
        generator = self._generator_for(module, module.in_features, layer_name)
        weight_contexts = self._weight_contexts(module, generator)
        activation_contexts = generator.activation_contexts_from_patches(
            np.asarray(x, dtype=np.float64))
        products = self._approximate_matmul(weight_contexts, activation_contexts, layer_name)
        output = products.T  # (batch, out_features)
        if module.has_bias:
            output = output + module.params["bias"]
        return output
