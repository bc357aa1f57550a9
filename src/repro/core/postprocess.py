"""Post-processing & transformation unit (paper Sec. III-C, Fig. 7).

Two sub-modules sit downstream of the CAM array:

* :class:`PostProcessor` -- completes the approximate dot-product: converts
  each Hamming distance into an angle, evaluates the piecewise-linear cosine
  (Eq. 5), multiplies by the operand norms, then applies the layer's digital
  peripherals (bias, ReLU, pooling, folded batch-norm).  Every arithmetic
  operation is charged to the 45 nm cost library so the energy model can
  attribute the post-processing share of an inference.

* :class:`OnlineContextGenerator` -- the on-the-fly activation context
  generator: an adder tree plus digital square root produce the L2 norm, and
  an NVM crossbar holding the layer's projection matrix produces the hash
  bits with sign sense amplifiers instead of ADCs.  Its output is
  bit-compatible with the software :class:`~repro.core.context.ContextGenerator`
  (verified by the integration tests), which is what lets weights hashed
  offline and activations hashed online meet in the same CAM.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.core.context import ContextGenerator, LayerContext
from repro.core.minifloat import MINIFLOAT8, Minifloat
from repro.crossbar.crossbar import CrossbarConfig, HashingCrossbar
from repro.hw.adder_tree import AdderTree
from repro.hw.components import CostLibrary, DEFAULT_COST_LIBRARY
from repro.hw.cosine_unit import CosineUnit, cosine_table, gather_cosines
from repro.hw.sqrt import DigitalSquareRoot


@dataclass
class PostProcessEnergyBreakdown:
    """Energy spent in the post-processing unit, by operation class (pJ)."""

    cosine_pj: float = 0.0
    norm_multiply_pj: float = 0.0
    bias_add_pj: float = 0.0
    relu_pj: float = 0.0
    pooling_pj: float = 0.0
    batchnorm_pj: float = 0.0

    @property
    def total_pj(self) -> float:
        """Total post-processing energy."""
        return (self.cosine_pj + self.norm_multiply_pj + self.bias_add_pj
                + self.relu_pj + self.pooling_pj + self.batchnorm_pj)


class PostProcessor:
    """Finishes approximate dot-products and applies digital peripherals."""

    def __init__(self, hash_length: int, use_exact_cosine: bool = False,
                 library: CostLibrary | None = None) -> None:
        if hash_length <= 0:
            raise ValueError("hash_length must be positive")
        self.hash_length = int(hash_length)
        self.cosine_unit = CosineUnit(use_exact=use_exact_cosine)
        self._cosines = cosine_table(self.cosine_unit, self.hash_length)
        self.library = library if library is not None else DEFAULT_COST_LIBRARY
        self.energy = PostProcessEnergyBreakdown()

    # -- dot-product completion -----------------------------------------------------

    def dot_products(self, hamming_distances: np.ndarray,
                     stationary_norms: np.ndarray,
                     query_norms: np.ndarray) -> np.ndarray:
        """Convert a Hamming-distance matrix into approximate dot-products.

        Parameters
        ----------
        hamming_distances:
            ``(stationary, queries)`` matrix of distances from the CAM.
        stationary_norms:
            ``(stationary,)`` norms of the resident contexts.
        query_norms:
            ``(queries,)`` norms of the broadcast contexts.
        """
        distances = np.asarray(hamming_distances)
        if distances.ndim != 2:
            raise ValueError("hamming_distances must be a 2-D matrix")
        s_norms = np.asarray(stationary_norms, dtype=np.float64).ravel()
        q_norms = np.asarray(query_norms, dtype=np.float64).ravel()
        if s_norms.size != distances.shape[0] or q_norms.size != distances.shape[1]:
            raise ValueError("norm vectors must match the distance matrix shape")

        # gather_cosines range-checks the distances against [0, k].
        products = np.multiply.outer(s_norms, q_norms)
        products *= gather_cosines(self._cosines, distances)

        count = distances.size
        self.energy.cosine_pj += self.cosine_unit.hardware_cost().energy_pj * count
        # Two multiplies per output: ||x||*||y|| (minifloat domain) and
        # (norm product) * cosine (fixed point).
        self.energy.norm_multiply_pj += (
            self.library.get("minifloat8_mult").energy_pj
            + self.library.get("int16_mult").energy_pj
        ) * count
        return products

    # -- digital peripherals -----------------------------------------------------------

    def add_bias(self, feature_map: np.ndarray, bias: np.ndarray) -> np.ndarray:
        """Add a per-channel bias to a ``(channels, H, W)`` feature map."""
        data = np.asarray(feature_map, dtype=np.float64)
        bias_vec = np.asarray(bias, dtype=np.float64).ravel()
        if data.shape[0] != bias_vec.size:
            raise ValueError("bias length must equal the channel count")
        self.energy.bias_add_pj += self.library.get("int16_add").energy_pj * data.size
        return data + bias_vec.reshape(-1, 1, 1)

    def relu(self, feature_map: np.ndarray) -> np.ndarray:
        """Digital ReLU."""
        data = np.asarray(feature_map, dtype=np.float64)
        self.energy.relu_pj += self.library.get("relu_8b").energy_pj * data.size
        return np.maximum(data, 0.0)

    def max_pool(self, feature_map: np.ndarray, kernel_size: int, stride: int | None = None) -> np.ndarray:
        """Digital max pooling on a single ``(channels, H, W)`` feature map."""
        from repro.nn import functional as F  # local import to avoid cycles at import time

        data = np.asarray(feature_map, dtype=np.float64)[None, ...]
        pooled, _ = F.max_pool2d(data, kernel_size, stride)
        comparisons = pooled.size * (kernel_size * kernel_size - 1)
        self.energy.pooling_pj += self.library.get("maxpool_compare_8b").energy_pj * comparisons
        return pooled[0]

    def batchnorm(self, feature_map: np.ndarray, scale: np.ndarray, shift: np.ndarray) -> np.ndarray:
        """Apply a folded (scale, shift) batch-norm per channel."""
        data = np.asarray(feature_map, dtype=np.float64)
        scale_vec = np.asarray(scale, dtype=np.float64).ravel()
        shift_vec = np.asarray(shift, dtype=np.float64).ravel()
        if data.shape[0] != scale_vec.size or data.shape[0] != shift_vec.size:
            raise ValueError("scale/shift length must equal the channel count")
        self.energy.batchnorm_pj += self.library.get("batchnorm_8b").energy_pj * data.size
        return data * scale_vec.reshape(-1, 1, 1) + shift_vec.reshape(-1, 1, 1)


@dataclass(frozen=True)
class OnlineContextReport:
    """Cost of generating activation contexts for one layer invocation."""

    contexts: int
    energy_pj: float
    cycles: int
    hash_agreement: float


class OnlineContextGenerator:
    """Hardware activation-context generator (adder tree + sqrt + crossbar).

    Parameters
    ----------
    software_generator:
        The layer's software :class:`ContextGenerator`; its projection matrix
        is programmed into the crossbar, and its norm format is reused so the
        outputs are directly comparable.
    crossbar_config:
        Optional override of the crossbar geometry/device parameters (the
        geometry must match the projection matrix).
    adder_tree_inputs:
        Leaf count of the sum-of-squares adder tree.
    library:
        Digital cost library.
    """

    def __init__(self, software_generator: ContextGenerator,
                 crossbar_config: CrossbarConfig | None = None,
                 adder_tree_inputs: int = 32,
                 library: CostLibrary | None = None,
                 seed: int = 0) -> None:
        self.reference = software_generator
        self.library = library if library is not None else DEFAULT_COST_LIBRARY
        projection = software_generator.projection_matrix
        self.crossbar = HashingCrossbar(projection, config=crossbar_config,
                                        library=self.library, seed=seed)
        self.adder_tree = AdderTree(num_inputs=adder_tree_inputs, input_bits=16,
                                    library=self.library)
        self.sqrt_unit = DigitalSquareRoot(radicand_bits=24, fraction_bits=6,
                                           library=self.library)
        self.norm_format: Minifloat | None = software_generator.norm_format

    # -- functional path --------------------------------------------------------------

    def generate(self, patches: np.ndarray) -> tuple[LayerContext, OnlineContextReport]:
        """Generate contexts for a ``(count, input_dim)`` patch matrix.

        Returns the contexts plus a report of the hardware cost and the
        bit-agreement with the ideal software hash (1.0 when the crossbar is
        configured without device non-idealities).
        """
        data = np.asarray(patches, dtype=np.float64)
        if data.ndim != 2 or data.shape[1] != self.reference.input_dim:
            raise ValueError(
                f"expected shape (count, {self.reference.input_dim}), got {data.shape}"
            )
        count = data.shape[0]

        # Hash bits from the crossbar (sign sense amplifiers).
        bits = self.crossbar.hash_batch(data)

        # L2 norms from the adder tree + digital square root.
        norms = np.empty(count, dtype=np.float64)
        norm_energy_pj = 0.0
        for index, vector in enumerate(data):
            tree_report = self.adder_tree.sum_of_squares(vector)
            sqrt_result = self.sqrt_unit.sqrt(min(tree_report.value,
                                                  (1 << self.sqrt_unit.radicand_bits) - 1))
            norms[index] = sqrt_result.value
            norm_energy_pj += tree_report.energy_pj + sqrt_result.energy_pj
        if self.norm_format is not None:
            norms = self.norm_format.quantize_array(norms)

        context = LayerContext(bits=bits, norms=norms,
                               hash_length=self.reference.hash_length,
                               input_dim=self.reference.input_dim,
                               layer_name=self.reference.layer_name)

        ideal_bits = self.reference.hasher.hash_batch(data)
        agreement = float(np.mean(bits == ideal_bits))

        hash_energy_pj = self.crossbar.energy_per_hash_pj() * count
        cycles = count * (self.crossbar.latency_cycles()
                          + self.adder_tree.depth + self.sqrt_unit.iterations_per_op)
        report = OnlineContextReport(
            contexts=count,
            energy_pj=hash_energy_pj + norm_energy_pj,
            cycles=cycles,
            hash_agreement=agreement,
        )
        return context, report

    # -- cost-only path ------------------------------------------------------------------

    def energy_per_context_pj(self) -> float:
        """Analytical energy of generating one context (no data needed)."""
        input_dim = self.reference.input_dim
        # Squares + adder tree passes for the sum of squares.
        square_energy = self.library.multiplier(16).energy_pj * input_dim
        passes = math.ceil(input_dim / self.adder_tree.num_inputs)
        tree_energy = self.adder_tree.hardware_cost().energy_pj * passes
        sqrt_energy = self.sqrt_unit.hardware_cost().energy_pj
        return (self.crossbar.energy_per_hash_pj() + square_energy
                + tree_energy + sqrt_energy)
