"""DeepCAM core: the paper's primary contribution.

This subpackage contains the approximate geometric dot-product, the context
generator, the variable-hash-length machinery, the CAM mapping/cycle model,
the energy model and the functional inference simulator.
"""

from repro.core.accelerator import DeepCAMSimulator, SimulationStats
from repro.bitops import (
    INT16_SAFE_MAX_BITS,
    pack_bits,
    packed_hamming_matrix,
    packed_hamming_vector,
    popcount,
    unpack_bits,
    words_for_bits,
)
from repro.core.config import (
    Dataflow,
    DeepCAMConfig,
    HashLengthPolicy,
    SUPPORTED_HASH_LENGTHS,
    SUPPORTED_ROW_COUNTS,
)
from repro.core.context import ContextGenerator, LayerContext
from repro.core.energy import (
    DeepCAMEnergyModel,
    LayerEnergy,
    NetworkEnergy,
    energy_vs_hash_policy,
)
from repro.core.geometric import (
    ApproximateDotProduct,
    DotProductResult,
    algebraic_dot,
    dot_product_error_sweep,
    exact_angle,
    geometric_dot,
)
from repro.core.hash_search import (
    HashLengthSearchResult,
    VariableHashLengthSearch,
    accuracy_vs_hash_length,
)
from repro.core.hashing import (
    HashedVector,
    RandomProjectionHasher,
    angle_from_hamming,
    hamming_distance,
    hamming_distance_matrix,
    hamming_distance_matrix_unpacked,
)
from repro.core.mapping import (
    DeepCAMMapper,
    LayerMapping,
    NetworkMapping,
    compare_dataflows,
    sweep_rows,
)
from repro.core.minifloat import MINIFLOAT8, Minifloat
from repro.core.postprocess import (
    OnlineContextGenerator,
    PostProcessor,
)

__all__ = [
    "ApproximateDotProduct",
    "ContextGenerator",
    "Dataflow",
    "DeepCAMConfig",
    "DeepCAMEnergyModel",
    "DeepCAMMapper",
    "DeepCAMSimulator",
    "DotProductResult",
    "HashLengthPolicy",
    "HashLengthSearchResult",
    "HashedVector",
    "INT16_SAFE_MAX_BITS",
    "LayerContext",
    "LayerEnergy",
    "LayerMapping",
    "MINIFLOAT8",
    "Minifloat",
    "NetworkEnergy",
    "NetworkMapping",
    "OnlineContextGenerator",
    "PostProcessor",
    "RandomProjectionHasher",
    "SUPPORTED_HASH_LENGTHS",
    "SUPPORTED_ROW_COUNTS",
    "SimulationStats",
    "VariableHashLengthSearch",
    "accuracy_vs_hash_length",
    "algebraic_dot",
    "angle_from_hamming",
    "compare_dataflows",
    "dot_product_error_sweep",
    "energy_vs_hash_policy",
    "exact_angle",
    "geometric_dot",
    "hamming_distance",
    "hamming_distance_matrix",
    "hamming_distance_matrix_unpacked",
    "pack_bits",
    "packed_hamming_matrix",
    "packed_hamming_vector",
    "popcount",
    "sweep_rows",
    "unpack_bits",
    "words_for_bits",
]
