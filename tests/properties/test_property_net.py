"""Property-based tests for the wire protocol: encode -> decode identity.

Every frame kind in :data:`repro.net.protocol.FRAME_KINDS` must survive
the round trip bit-for-bit, zero-row batches and ``k = 0`` included.  The
fields are drawn from the kind table itself, so a new kind is covered
without a new test.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.net import protocol


def frame_fields(spec):
    """Fields of one frame kind, drawn from its table entry.

    Every array shares one row count and every 2-D array one column
    count, so the cross-field checks (ids per row, aligned candidate
    shapes) hold by construction.
    """
    def arrays(rows, cols):
        return st.fixed_dictionaries({
            name: hnp.arrays(dtype=np.dtype(dtype),
                             shape=(rows, cols)[:ndim],
                             elements=hnp.from_dtype(np.dtype(dtype)))
            for name, (dtype, ndim) in spec.arrays.items()})

    scalars = st.fixed_dictionaries({
        name: (st.integers(minimum or 0, 2**63) if scalar_type is int
               else st.floats(allow_nan=False, allow_infinity=False))
        for name, (scalar_type, minimum) in spec.scalars.items()})
    return st.tuples(st.integers(0, 6).flatmap(
        lambda rows: st.integers(0, 12).flatmap(
            lambda cols: arrays(rows, cols))), scalars)


@pytest.mark.parametrize("kind", sorted(protocol.FRAME_KINDS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_every_frame_kind_round_trips_bit_exactly(kind, data):
    spec = protocol.FRAME_KINDS[kind]
    arrays, scalars = data.draw(frame_fields(spec))
    decoded = protocol.decode(kind, protocol.encode(kind, **arrays, **scalars))
    assert set(decoded) == set(arrays) | set(scalars)
    for name, array in arrays.items():
        assert decoded[name].dtype == array.dtype
        assert decoded[name].shape == array.shape
        assert decoded[name].tobytes() == array.tobytes()  # exact bits
    for name, value in scalars.items():
        assert type(decoded[name]) is spec.scalars[name][0]
        assert decoded[name] == value


@pytest.mark.parametrize("kind", sorted(protocol.FRAME_KINDS))
def test_zero_rows_and_zero_k_round_trip(kind):
    spec = protocol.FRAME_KINDS[kind]
    arrays = {name: np.zeros((0, 3)[:ndim], dtype=dtype)
              for name, (dtype, ndim) in spec.arrays.items()}
    scalars = {name: scalar_type(minimum or 0)
               for name, (scalar_type, minimum) in spec.scalars.items()}
    decoded = protocol.decode(kind, protocol.encode(kind, **arrays, **scalars))
    for name, array in arrays.items():
        assert decoded[name].shape == array.shape
    assert decoded.get("k", 0) == 0
