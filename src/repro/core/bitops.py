"""Canonical public path of the bit-packed signature kernels.

The implementation lives in the dependency-free leaf module
:mod:`repro.bitops` so that both :mod:`repro.core` and :mod:`repro.cam` can
use the kernels without creating an import cycle (the CAM array stores
packed words, and the core simulator imports the CAM).  Import from here in
application code::

    from repro.core.bitops import pack_bits, packed_hamming_matrix
"""

from repro.bitops import (
    EXECUTOR_ENV,
    HAVE_BITWISE_COUNT,
    INT16_SAFE_MAX_BITS,
    KERNEL_BLOCK_ROWS,
    POPCOUNT_LUT,
    WORD_BITS,
    WORD_BYTES,
    accumulator_dtype,
    pack_bits,
    packed_hamming_matrix,
    packed_hamming_vector,
    popcount,
    popcount_lut,
    resolve_num_threads,
    usable_cpus,
    unpack_bits,
    words_for_bits,
)

__all__ = [
    "EXECUTOR_ENV",
    "HAVE_BITWISE_COUNT",
    "INT16_SAFE_MAX_BITS",
    "KERNEL_BLOCK_ROWS",
    "POPCOUNT_LUT",
    "WORD_BITS",
    "WORD_BYTES",
    "accumulator_dtype",
    "pack_bits",
    "packed_hamming_matrix",
    "packed_hamming_vector",
    "popcount",
    "popcount_lut",
    "resolve_num_threads",
    "usable_cpus",
    "unpack_bits",
    "words_for_bits",
]
