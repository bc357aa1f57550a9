"""The wire protocol of the network-transparent cluster.

Everything that crosses a socket in :mod:`repro.net` is one of two things,
both pure functions of their inputs with exact round-trip semantics (the
property suite asserts encode -> decode identity for every kind):

* **binary frames** -- every request and response that carries arrays
  (``classify`` and ``topk`` on the serve plane; ``shard/write``,
  ``shard/search`` and ``shard/topk`` on the shard plane) is one
  length-prefixed frame: ``magic | u32 header length | header JSON | u32
  payload length | raw array bytes``.  The header names the frame kind and
  protocol version, the dtype and shape of each named array, and the
  scalar fields (``k``, placement, energy, latency); the payload is the
  arrays' C-order bytes back to back.  Bytes, not digits: float64 logits
  and uint64 packed signature words survive the wire bit-exactly, which is
  what lets the remote loadgen verify against in-process execution with
  ``array_equal`` instead of ``allclose``.  One declarative table,
  :data:`FRAME_KINDS`, fixes every kind's fields (array dtype and rank,
  scalar type and lower bound) and drives both :func:`encode` and
  :func:`decode`; the two checks that span fields (a write's ids per row,
  a candidate set's aligned shapes) are explicit code beside it.
* **JSON envelopes** -- errors and the GET control routes (healthz,
  metrics, trace, slo, shard/info) answer ``{"v", "ok", "result" |
  "error"}``, with typed error codes (:data:`ERROR_STATUS`) mapping 1:1
  onto HTTP statuses.

Frames and envelopes both carry :data:`PROTOCOL_VERSION`, so an
incompatible peer fails fast with ``unsupported_version`` instead of
misreading payloads.
"""

from __future__ import annotations

import json
import math
import struct
from typing import Any, Dict, Mapping, NamedTuple, Optional, Tuple

import numpy as np

from repro.obs.span import (  # re-exported: the wire's trace-context field
    TRACE_HEADER,
    TraceContext,
    format_trace_header,
    parse_trace_header,
)

#: Header naming the tenant a request is attributed to (multi-tenant
#: admission/fair-queueing on the serve plane; absent = default tenant).
TENANT_HEADER = "X-Repro-Tenant"

#: Header carrying the server's retry-after hint on 429 responses
#: (seconds, decimal; the retry layer honours fractions).
RETRY_AFTER_HEADER = "Retry-After"

#: Frame and envelope schema version; peers reject anything else with
#: ``unsupported_version``.  Version 2 moved every array onto frames.
PROTOCOL_VERSION = 2

#: Content types the server negotiates on.
CONTENT_TYPE_JSON = "application/json"
CONTENT_TYPE_FRAME = "application/x-repro-frame"

#: Magic prefix of a binary frame (4 bytes, version folded into the header,
#: so an older peer's frame reads as ``unsupported_version``).
FRAME_MAGIC = b"RPN1"

#: Typed error codes -> HTTP status.  ``error_status`` resolves unknown
#: codes to 500 so a future peer's new code degrades to a generic server
#: error instead of a crash.
ERROR_STATUS: Dict[str, int] = {
    "bad_request": 400,
    "unsupported_version": 400,
    "not_found": 404,
    "method_not_allowed": 405,
    "unsupported_media": 415,
    "engine_error": 500,
    "internal": 500,
    "unavailable": 503,
    "shutting_down": 503,
    "rate_limited": 429,
    "quota_exceeded": 429,
}


def error_status(code: str) -> int:
    """HTTP status of a typed error code (unknown codes -> 500)."""
    return ERROR_STATUS.get(code, 500)


class WireError(Exception):
    """A typed protocol-level failure (either side of the socket).

    Servers map it onto the envelope's ``error`` object and the HTTP
    status; clients raise it back out of :func:`parse_response` when the
    server reported a failure, so callers see one exception type with a
    stable ``code`` regardless of which peer produced it.
    """

    def __init__(self, code: str, message: str,
                 retry_after_s: Optional[float] = None) -> None:
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message
        #: Server's hint of when a retry could succeed (429 responses);
        #: ``None`` when the server gave none.
        self.retry_after_s = (float(retry_after_s)
                              if retry_after_s is not None else None)

    @property
    def status(self) -> int:
        """The HTTP status this error travels under."""
        return error_status(self.code)


# -- envelopes -----------------------------------------------------------------


def ok_envelope(result: Mapping[str, Any]) -> Dict[str, Any]:
    """A success response envelope."""
    return {"v": PROTOCOL_VERSION, "ok": True, "result": dict(result)}


def error_envelope(code: str, message: str,
                   retry_after_s: Optional[float] = None) -> Dict[str, Any]:
    """A failure response envelope with a typed error code.

    ``retry_after_s`` rides inside the error object on rate-limit
    responses so the hint survives transports that drop response headers
    (and direct ``NetApp.handle`` callers see it too).
    """
    error: Dict[str, Any] = {"code": code, "message": message}
    if retry_after_s is not None:
        error["retry_after_s"] = float(retry_after_s)
    return {"v": PROTOCOL_VERSION, "ok": False, "error": error}


def parse_response(document: Any) -> Dict[str, Any]:
    """Validate a response envelope; returns the result or raises the error."""
    if not isinstance(document, Mapping):
        raise WireError("bad_request", "response body must be a JSON object")
    version = document.get("v")
    if version != PROTOCOL_VERSION:
        raise WireError(
            "unsupported_version",
            f"protocol version {version!r} is not {PROTOCOL_VERSION}")
    if document.get("ok"):
        result = document.get("result", {})
        if not isinstance(result, Mapping):
            raise WireError("bad_request", "result must be a JSON object")
        return dict(result)
    error = document.get("error")
    if isinstance(error, Mapping):
        retry_after = error.get("retry_after_s")
        try:
            retry_after = (float(retry_after)
                           if retry_after is not None else None)
        except (TypeError, ValueError):
            retry_after = None
        raise WireError(str(error.get("code", "internal")),
                        str(error.get("message", "unknown server error")),
                        retry_after_s=retry_after)
    raise WireError("internal", "response reported failure with no error")


def dumps(document: Mapping[str, Any]) -> bytes:
    """Serialise one envelope; numpy scalars degrade to plain numbers."""
    def _default(value: Any) -> Any:
        if isinstance(value, np.integer):
            return int(value)
        if isinstance(value, np.floating):
            return float(value)
        if isinstance(value, np.ndarray):
            return value.tolist()
        raise TypeError(f"unserialisable value of type {type(value).__name__}")

    return json.dumps(document, default=_default).encode("utf-8")


def loads(body: bytes) -> Any:
    """Parse a JSON body; raises ``bad_request`` on damage."""
    try:
        return json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise WireError("bad_request",
                        f"undecodable JSON body: {error}") from None




# -- binary frames -------------------------------------------------------------


class FrameKind(NamedTuple):
    """The fields of one frame kind.

    ``arrays`` maps each array field to its ``(dtype, ndim)``; ``scalars``
    maps each header field to its ``(type, minimum)``, ``None`` meaning
    unbounded.
    """

    arrays: Mapping[str, Tuple[str, int]]
    scalars: Mapping[str, Tuple[type, Optional[int]]]


_ACCOUNTING = {"energy_pj": (float, None), "latency_cycles": (int, 0)}

#: Every frame on the wire, one entry per route and direction.
FRAME_KINDS: Dict[str, FrameKind] = {
    "classify.request": FrameKind({"samples": ("float64", 2)}, {}),
    "classify.response": FrameKind({"logits": ("float64", 2)}, {}),
    "topk.request": FrameKind({"samples": ("float64", 2)}, {"k": (int, 0)}),
    # Encoded (n, 2 * k_eff) rows: indices then distances.
    "topk.response": FrameKind({"rows": ("float64", 2)}, {}),
    # global_ids names the global row each local row stores and id_bound
    # the cluster's row count: the shard server needs both for the
    # tie-broken local top-k that makes the remote partial gather exact.
    "shard_write.request": FrameKind(
        {"bits": ("uint8", 2), "global_ids": ("int64", 1)},
        {"start_row": (int, 0), "id_bound": (int, 1)}),
    "shard_write.response": FrameKind(
        {}, {"energy_pj": (float, None), "rows_written": (int, 0)}),
    "shard_search.request": FrameKind({"packed": ("uint64", 2)}, {}),
    "shard_search.response": FrameKind({"counts": ("int64", 2)}, _ACCOUNTING),
    "shard_topk.request": FrameKind({"packed": ("uint64", 2)}, {"k": (int, 0)}),
    # The local candidate set: global ids and their raw mismatch counts.
    "shard_topk.response": FrameKind(
        {"indices": ("int64", 2), "raw": ("int64", 2)}, _ACCOUNTING),
}


def _cross_check(kind: str, fields: Mapping[str, Any]) -> Optional[str]:
    """What is wrong across a frame's fields, or ``None``."""
    if kind == "shard_write.request":
        rows, ids = fields["bits"].shape[0], fields["global_ids"]
        if ids.shape != (rows,):
            return f"global_ids must have shape ({rows},), got {ids.shape}"
    if kind == "shard_topk.response":
        indices, raw = fields["indices"], fields["raw"]
        if indices.shape != raw.shape:
            return (f"candidate shapes disagree: {indices.shape} "
                    f"vs {raw.shape}")
    return None


def encode(kind: str, **fields: Any) -> bytes:
    """One ``kind`` frame; misuse raises ``ValueError``/``TypeError``."""
    spec = FRAME_KINDS[kind]
    if set(fields) != set(spec.arrays) | set(spec.scalars):
        raise TypeError(f"a {kind!r} frame takes fields "
                        f"{sorted(spec.arrays) + sorted(spec.scalars)}, "
                        f"got {sorted(fields)}")
    header: Dict[str, Any] = {"v": PROTOCOL_VERSION, "kind": kind,
                              "arrays": {}}
    for name, (dtype, ndim) in spec.arrays.items():
        array = fields[name] = np.ascontiguousarray(fields[name], dtype=dtype)
        if array.ndim != ndim:
            raise ValueError(
                f"{name} must be {ndim}-D, got shape {array.shape}")
        header["arrays"][name] = {"dtype": dtype, "shape": list(array.shape)}
    for name, (scalar_type, minimum) in spec.scalars.items():
        value = header[name] = scalar_type(fields[name])
        if minimum is not None and value < minimum:
            raise ValueError(f"{name} must be >= {minimum}, got {value}")
    problem = _cross_check(kind, fields)
    if problem is not None:
        raise ValueError(problem)
    head = dumps(header)
    arrays = [fields[name] for name in spec.arrays]
    return b"".join((
        FRAME_MAGIC,
        struct.pack("<I", len(head)),
        head,
        struct.pack("<I", sum(array.nbytes for array in arrays)),
        *arrays,
    ))


def decode(kind: str, blob: bytes) -> Dict[str, Any]:
    """The fields of one ``kind`` frame; any damage raises a ``WireError``."""
    spec = FRAME_KINDS[kind]
    header, payload = _split_frame(blob)
    if header.get("kind") != kind:
        raise WireError("bad_request",
                        f"expected a {kind!r} frame, got {header.get('kind')!r}")
    described = header.get("arrays")
    if (not isinstance(described, Mapping)
            or set(described) != set(spec.arrays)):
        raise WireError("bad_request",
                        f"a {kind!r} frame carries arrays {sorted(spec.arrays)}")
    fields: Dict[str, Any] = {}
    offset = 0
    for name, (dtype, ndim) in spec.arrays.items():
        try:
            wire_dtype = np.dtype(described[name]["dtype"])
            shape = tuple(int(dim) for dim in described[name]["shape"])
        except (KeyError, TypeError, ValueError) as error:
            raise WireError("bad_request",
                            f"malformed {name!r} header: {error}") from None
        if wire_dtype != np.dtype(dtype):
            raise WireError("bad_request", f"expected {name} of dtype {dtype}, "
                                           f"got {wire_dtype.name}")
        if len(shape) != ndim or any(dim < 0 for dim in shape):
            raise WireError("bad_request", f"expected {name} as a {ndim}-D "
                                           f"array, got shape {shape}")
        size = math.prod(shape) * wire_dtype.itemsize
        if offset + size > len(payload):
            raise WireError("bad_request", f"frame payload holds "
                                           f"{len(payload)} bytes, too few for "
                                           f"{name} of shape {shape}")
        fields[name] = np.frombuffer(payload[offset: offset + size],
                                     dtype=wire_dtype).reshape(shape).copy()
        offset += size
    if offset != len(payload):
        raise WireError("bad_request", f"frame payload holds {len(payload)} "
                                       f"bytes, its arrays need {offset}")
    for name, (scalar_type, minimum) in spec.scalars.items():
        value = header.get(name)
        if isinstance(value, bool) or not isinstance(
                value, int if scalar_type is int else (int, float)):
            raise WireError("bad_request",
                            f"{kind!r} frame field {name!r} must be of type "
                            f"{scalar_type.__name__}, got {value!r}")
        if minimum is not None and value < minimum:
            raise WireError("bad_request",
                            f"{name} must be >= {minimum}, got {value}")
        fields[name] = scalar_type(value)
    problem = _cross_check(kind, fields)
    if problem is not None:
        raise WireError("bad_request", problem)
    return fields


def _split_frame(blob: bytes) -> Tuple[Dict[str, Any], memoryview]:
    """One frame's ``(header, payload)``, lengths and version checked."""
    view = memoryview(blob)
    offset = len(FRAME_MAGIC)
    if len(view) < offset + 4:
        raise WireError("bad_request", "binary frame is truncated")
    if view[:offset] != FRAME_MAGIC:
        raise WireError("bad_request", "binary frame has a bad magic prefix")
    (header_len,) = struct.unpack_from("<I", view, offset)
    offset += 4
    if len(view) < offset + header_len + 4:
        raise WireError("bad_request", "binary frame header is truncated")
    header = loads(bytes(view[offset: offset + header_len]))
    if not isinstance(header, Mapping):
        raise WireError("bad_request", "frame header must be a JSON object")
    offset += header_len
    (payload_len,) = struct.unpack_from("<I", view, offset)
    offset += 4
    if len(view) != offset + payload_len:
        raise WireError("bad_request", "binary frame payload length mismatch")
    version = header.get("v")
    if version != PROTOCOL_VERSION:
        raise WireError(
            "unsupported_version",
            f"frame version {version!r} is not {PROTOCOL_VERSION}")
    return header, view[offset:]


def encode_classify_request(samples: np.ndarray) -> bytes:
    """The ``POST /v1/classify`` frame: a float64 ``(n, input_dim)`` batch."""
    return encode("classify.request", samples=samples)


def decode_classify_response(blob: bytes) -> np.ndarray:
    """The ``(n, output_dim)`` logits of a ``POST /v1/classify`` answer."""
    return decode("classify.response", blob)["logits"]
