"""Context generator (paper Sec. III-A, Fig. 4).

A *context* is the pair (L2 norm, hashed signature) that DeepCAM stores in
place of a raw weight kernel or activation patch:

* **weight contexts** are produced offline in software: every filter of a
  conv layer (or row of an FC weight matrix) is flattened, its L2 norm is
  encoded as an 8-bit minifloat, and its sign-random-projection signature is
  computed with the layer's shared projection matrix;
* **activation contexts** are produced the same way, either offline (the
  network input) or on the fly by the post-processing & transformation unit
  (intermediate activations).

This module is the software context generator; the hardware (on-the-fly)
equivalent lives in :mod:`repro.core.postprocess` and is verified against
this one in the integration tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bitops import pack_bits
from repro.core.hashing import RandomProjectionHasher
from repro.core.minifloat import MINIFLOAT8, Minifloat
from repro.nn import functional as F
from repro.nn.layers import Conv2d, Linear


@dataclass(frozen=True)
class LayerContext:
    """Hashed contexts for one operand matrix of one layer.

    Attributes
    ----------
    bits:
        ``(count, hash_length)`` matrix of 0/1 signature bits.
    norms:
        ``(count,)`` vector of (possibly minifloat-quantised) L2 norms.
    hash_length:
        Signature length in bits.
    input_dim:
        Dimensionality of the original context vectors.
    layer_name:
        Name of the layer these contexts belong to.
    """

    bits: np.ndarray
    norms: np.ndarray
    hash_length: int
    input_dim: int
    layer_name: str

    def __post_init__(self) -> None:
        if self.bits.ndim != 2:
            raise ValueError("bits must be a 2-D matrix")
        if self.bits.shape[0] != self.norms.shape[0]:
            raise ValueError("bits and norms must have the same number of rows")
        if self.bits.shape[1] != self.hash_length:
            raise ValueError("bits width must equal hash_length")

    @property
    def count(self) -> int:
        """Number of context vectors."""
        return int(self.bits.shape[0])

    @property
    def packed_bits(self) -> np.ndarray:
        """``(count, ceil(hash_length/64))`` packed ``uint64`` signatures.

        Packed lazily and cached: this is the native currency of the
        Hamming kernels, so every consumer of the same context (simulator
        layers, CAM fills, sweeps) shares one packing.
        """
        cached = self.__dict__.get("_packed_bits")
        if cached is None:
            cached = pack_bits(np.asarray(self.bits, dtype=np.uint8))
            cached.flags.writeable = False
            object.__setattr__(self, "_packed_bits", cached)
        return cached

    def storage_bits(self) -> int:
        """Total storage footprint in bits (signatures + 8-bit norms)."""
        return self.count * (self.hash_length + 8)


class ContextGenerator:
    """Software context generator for one layer.

    Parameters
    ----------
    input_dim:
        Dimensionality of the context vectors (``C_in * kH * kW`` for a conv
        layer, ``in_features`` for an FC layer).
    hash_length:
        Signature length in bits for this layer.
    seed:
        Projection seed shared between the weight and activation contexts of
        this layer.
    norm_format:
        Minifloat format for the norms; ``None`` keeps exact norms.
    layer_name:
        Name used for bookkeeping in the produced contexts.
    """

    def __init__(self, input_dim: int, hash_length: int, seed: int = 0,
                 norm_format: Minifloat | None = MINIFLOAT8,
                 layer_name: str = "layer") -> None:
        self.hasher = RandomProjectionHasher(input_dim, hash_length, seed=seed)
        self.norm_format = norm_format
        self.layer_name = layer_name

    @property
    def input_dim(self) -> int:
        """Context vector dimensionality."""
        return self.hasher.input_dim

    @property
    def hash_length(self) -> int:
        """Signature length in bits."""
        return self.hasher.hash_length

    @property
    def projection_matrix(self) -> np.ndarray:
        """The layer's shared random projection matrix."""
        return self.hasher.projection_matrix

    # -- generic path -----------------------------------------------------------

    def contexts_from_matrix(self, matrix: np.ndarray) -> LayerContext:
        """Build contexts from a ``(count, input_dim)`` matrix of raw vectors."""
        data = np.asarray(matrix, dtype=np.float64)
        if data.ndim != 2 or data.shape[1] != self.input_dim:
            raise ValueError(
                f"expected shape (count, {self.input_dim}), got {data.shape}"
            )
        bits = self.hasher.hash_batch(data)
        norms = np.linalg.norm(data, axis=1)
        if self.norm_format is not None:
            norms = self.norm_format.quantize_array(norms)
        return LayerContext(bits=bits, norms=norms, hash_length=self.hash_length,
                            input_dim=self.input_dim, layer_name=self.layer_name)

    # -- weight contexts ----------------------------------------------------------

    def weight_contexts(self, layer: Conv2d | Linear | np.ndarray) -> LayerContext:
        """Contexts for a layer's weights (one context per output channel).

        Accepts a :class:`~repro.nn.layers.Conv2d`, a
        :class:`~repro.nn.layers.Linear`, or an already flattened
        ``(num_kernels, input_dim)`` weight matrix.
        """
        if isinstance(layer, (Conv2d, Linear)):
            matrix = layer.weight_matrix()
        else:
            matrix = np.asarray(layer, dtype=np.float64)
        return self.contexts_from_matrix(matrix)

    # -- activation contexts --------------------------------------------------------

    def activation_contexts_from_patches(self, patches: np.ndarray) -> LayerContext:
        """Contexts from an already unfolded ``(patches, input_dim)`` matrix."""
        return self.contexts_from_matrix(patches)

    def activation_contexts(self, activations: np.ndarray, kernel_size: int,
                            stride: int = 1, padding: int = 0) -> tuple[LayerContext, tuple[int, int]]:
        """Contexts for a conv layer's input activations (single image).

        Parameters
        ----------
        activations:
            ``(channels, H, W)`` or ``(1, channels, H, W)`` input tensor.
        kernel_size / stride / padding:
            Convolution geometry used to unfold the receptive fields.

        Returns
        -------
        (context, (out_h, out_w)):
            One context per output pixel, plus the output spatial size needed
            to fold the dot-products back into a feature map.
        """
        data = np.asarray(activations, dtype=np.float64)
        if data.ndim == 3:
            data = data[None, ...]
        if data.ndim != 4 or data.shape[0] != 1:
            raise ValueError("activations must be a single image (C, H, W) or (1, C, H, W)")
        patches = F.im2col(data, kernel_size, stride, padding)[0]
        out_h = F.conv_output_size(data.shape[2], kernel_size, stride, padding)
        out_w = F.conv_output_size(data.shape[3], kernel_size, stride, padding)
        if patches.shape[1] != self.input_dim:
            raise ValueError(
                f"patch dimension {patches.shape[1]} does not match input_dim {self.input_dim}"
            )
        return self.contexts_from_matrix(patches), (out_h, out_w)
