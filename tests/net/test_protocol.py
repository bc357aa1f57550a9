"""Wire-protocol unit tests: the frame codec, envelopes, typed errors."""

from __future__ import annotations

import struct

import numpy as np
import pytest

from repro.net import protocol
from repro.net.protocol import WireError


def assemble(header, payload, payload_len=None):
    """A frame from a raw header and payload (lengths may lie)."""
    head = protocol.dumps(header)
    return b"".join((
        protocol.FRAME_MAGIC, struct.pack("<I", len(head)), head,
        struct.pack("<I", len(payload) if payload_len is None
                    else payload_len),
        payload))


def split(frame):
    """A valid frame's ``(header, payload)``."""
    (header_len,) = struct.unpack_from("<I", frame, 4)
    header = protocol.loads(frame[8: 8 + header_len])
    return header, frame[12 + header_len:]


def rewritten(frame, **changes):
    """``frame`` with header fields replaced (``None`` deletes one)."""
    header, payload = split(frame)
    for name, value in changes.items():
        if value is None:
            header.pop(name, None)
        else:
            header[name] = value
    return assemble(header, payload)


def search_frame(rows=2, words=4):
    return protocol.encode("shard_search.request", packed=np.arange(
        rows * words, dtype=np.uint64).reshape(rows, words))


def rejected(kind, frame, code="bad_request"):
    with pytest.raises(WireError) as excinfo:
        protocol.decode(kind, frame)
    assert excinfo.value.code == code
    return excinfo.value


class TestFrameCodec:
    @pytest.mark.parametrize("dtype", ["float64", "int64", "uint64", "uint8"])
    def test_round_trip_exact(self, rng, dtype):
        array = (rng.standard_normal((3, 5)) if dtype == "float64" else
                 rng.integers(0, 200, size=(3, 5)).astype(dtype))
        kind = {"float64": "classify.request", "int64": "shard_search.response",
                "uint64": "shard_search.request",
                "uint8": "shard_write.request"}[dtype]
        spec = protocol.FRAME_KINDS[kind]
        fields = {name: array for name in spec.arrays}
        if kind == "shard_write.request":
            fields["global_ids"] = np.arange(3, dtype=np.int64)
        fields.update({name: 1 for name in spec.scalars})
        decoded = protocol.decode(kind, protocol.encode(kind, **fields))
        (name,) = [name for name in spec.arrays
                   if spec.arrays[name][0] == dtype]
        assert decoded[name].dtype == array.dtype
        assert np.array_equal(decoded[name], array)

    def test_float_bits_survive(self):
        # Exact bytes, not digits: values that would lose bits through a
        # decimal text round-trip come back identical.
        logits = np.array([[np.pi, np.nextafter(1.0, 2.0), -0.0, 1e-308]])
        decoded = protocol.decode_classify_response(
            protocol.encode("classify.response", logits=logits))
        assert logits.tobytes() == decoded.tobytes()

    def test_zero_sized(self):
        frame = protocol.encode("shard_search.response",
                                counts=np.zeros((0, 7), dtype=np.int64),
                                energy_pj=0.0, latency_cycles=0)
        decoded = protocol.decode("shard_search.response", frame)
        assert decoded["counts"].shape == (0, 7)

    def test_scalars_and_arrays_ride_together(self, rng):
        packed = rng.integers(0, 2**63, size=(4, 4)).astype(np.uint64)
        decoded = protocol.decode("shard_topk.request", protocol.encode(
            "shard_topk.request", packed=packed, k=7))
        assert decoded["k"] == 7
        assert np.array_equal(decoded["packed"], packed)

    def test_encode_rejects_misuse(self):
        with pytest.raises(ValueError):
            protocol.encode("topk.request", samples=np.zeros((1, 4)), k=-1)
        with pytest.raises(ValueError):
            protocol.encode("classify.request", samples=np.zeros(4))
        with pytest.raises(TypeError):
            protocol.encode("topk.request", samples=np.zeros((1, 4)))
        with pytest.raises(TypeError):
            protocol.encode("classify.request", samples=np.zeros((1, 4)),
                            k=1)


class TestMalformedFrames:
    def test_bad_magic(self):
        frame = search_frame()
        rejected("shard_search.request", b"XXXX" + frame[4:])

    def test_truncated_frame(self):
        frame = search_frame()
        for cut in (2, 6, len(frame) // 2, len(frame) - 1):
            rejected("shard_search.request", frame[:cut])

    def test_trailing_bytes_rejected(self):
        rejected("shard_search.request", search_frame() + b"tail")

    def test_wrong_kind(self):
        rejected("shard_topk.request", search_frame())
        rejected("shard_search.request",
                 rewritten(search_frame(), kind="classify.request"))

    def test_undecodable_header(self):
        frame = search_frame()
        header, payload = split(frame)
        head = b"{not json"
        damaged = b"".join((protocol.FRAME_MAGIC, struct.pack("<I", len(head)),
                            head, struct.pack("<I", len(payload)), payload))
        rejected("shard_search.request", damaged)
        rejected("shard_search.request", assemble([1, 2], payload))

    @pytest.mark.parametrize("array", [
        {"dtype": "int64", "shape": [2, 4]},        # wrong dtype
        {"dtype": "float32", "shape": [4, 4]},      # wrong dtype, same bytes
        {"dtype": "uint64", "shape": [8]},          # wrong ndim
        {"dtype": "uint64", "shape": [2, 2, 2]},    # wrong ndim
        {"dtype": "uint64", "shape": [-2, -4]},     # negative dimensions
        {"dtype": "no-such-dtype", "shape": [2, 4]},
        {"dtype": "uint64"},                        # no shape
    ], ids=["int64", "float32", "1-D", "3-D", "negative", "unknown-dtype",
            "no-shape"])
    def test_wrong_array_description(self, array):
        rejected("shard_search.request",
                 rewritten(search_frame(), arrays={"packed": array}))

    def test_missing_or_extra_array(self):
        rejected("shard_search.request", rewritten(search_frame(), arrays={}))
        rejected("shard_search.request", rewritten(search_frame(), arrays=None))
        header, _ = split(search_frame())
        rejected("shard_search.request", rewritten(search_frame(), arrays={
            **header["arrays"], "extra": {"dtype": "uint64", "shape": [0]}}))

    def test_payload_length_mismatch(self):
        header, payload = split(search_frame())
        # The length prefix disagrees with the bytes that follow it.
        rejected("shard_search.request",
                 assemble(header, payload, payload_len=len(payload) + 8))
        rejected("shard_search.request",
                 assemble(header, payload, payload_len=len(payload) - 8))
        # Consistent prefix, but the shapes need more or fewer bytes.
        rejected("shard_search.request", assemble(header, payload[:-8]))
        rejected("shard_search.request", assemble(header, payload + b"\0" * 8))

    @pytest.mark.parametrize("kind, name, bad", [
        ("topk.request", "k", None),                # missing
        ("topk.request", "k", -1),                  # negative
        ("topk.request", "k", "three"),             # not a number
        ("topk.request", "k", 2.5),                 # not an integer
        ("topk.request", "k", True),                # a bool is no count
        ("shard_topk.request", "k", -3),
        ("shard_write.request", "start_row", -1),
        ("shard_write.request", "id_bound", 0),     # must be positive
        ("shard_write.request", "id_bound", None),
        ("shard_search.response", "energy_pj", None),
        ("shard_search.response", "energy_pj", "1.5"),
        ("shard_search.response", "latency_cycles", -1),
    ])
    def test_missing_or_out_of_bound_scalar(self, kind, name, bad):
        error = rejected(kind, rewritten(valid_frame(kind), **{name: bad}))
        assert name in error.message

    def test_write_needs_one_global_id_per_row(self):
        bits = np.zeros((4, 8), dtype=np.uint8)
        with pytest.raises(ValueError):
            protocol.encode("shard_write.request", bits=bits, start_row=0,
                            global_ids=np.arange(3), id_bound=32)
        frame = protocol.encode("shard_write.request", bits=bits, start_row=0,
                                global_ids=np.arange(4), id_bound=32)
        header, payload = split(frame)
        header["arrays"]["global_ids"]["shape"] = [3]
        error = rejected("shard_write.request",
                         assemble(header, payload[:-8]))
        assert "global_ids" in error.message

    def test_candidate_shapes_must_agree(self):
        with pytest.raises(ValueError):
            protocol.encode("shard_topk.response",
                            indices=np.zeros((2, 3)), raw=np.zeros((2, 4)),
                            energy_pj=0.0, latency_cycles=0)
        frame = protocol.encode("shard_topk.response",
                                indices=np.zeros((2, 4)), raw=np.zeros((2, 4)),
                                energy_pj=0.0, latency_cycles=0)
        header, payload = split(frame)
        header["arrays"]["indices"]["shape"] = [2, 3]
        error = rejected("shard_topk.response",
                         assemble(header, payload[16:]))
        assert "disagree" in error.message

    def test_older_version_is_unsupported(self):
        rejected("shard_search.request", rewritten(search_frame(), v=1),
                 code="unsupported_version")
        rejected("shard_search.request", rewritten(search_frame(), v=None),
                 code="unsupported_version")


def valid_frame(kind):
    """A well-formed frame of ``kind`` with every scalar at 1."""
    spec = protocol.FRAME_KINDS[kind]
    fields = {name: np.zeros((2,) * ndim, dtype=dtype)
              for name, (dtype, ndim) in spec.arrays.items()}
    fields.update({name: 1 for name in spec.scalars})
    return protocol.encode(kind, **fields)


class TestEnvelopes:
    def test_ok_response_round_trip(self):
        result = {"answer": 42}
        assert protocol.parse_response(protocol.ok_envelope(result)) == result

    def test_version_mismatch(self):
        document = protocol.ok_envelope({})
        document["v"] = 99
        with pytest.raises(WireError) as excinfo:
            protocol.parse_response(document)
        assert excinfo.value.code == "unsupported_version"
        assert excinfo.value.status == 400

    def test_error_response_raises_typed(self):
        document = protocol.error_envelope("unavailable", "busy")
        with pytest.raises(WireError) as excinfo:
            protocol.parse_response(document)
        assert excinfo.value.code == "unavailable"
        assert excinfo.value.status == 503

    def test_unknown_error_code_maps_to_500(self):
        assert protocol.error_status("from-the-future") == 500

    def test_dumps_handles_numpy_scalars(self):
        blob = protocol.dumps({"a": np.int64(3), "b": np.float64(0.5),
                               "c": np.arange(2)})
        assert protocol.loads(blob) == {"a": 3, "b": 0.5, "c": [0, 1]}

    def test_loads_rejects_damage(self):
        with pytest.raises(WireError):
            protocol.loads(b"{not json")
