"""Inference engines: what a coalesced micro-batch executes against.

An *engine* is the batched compute the server amortises its queueing over.
The contract is two-phase so the worker can interleave caching between them:

* ``prepare(queries)`` runs the per-sample preprocessing once for the whole
  micro-batch and returns a :class:`PreparedBatch` -- for the CAM pipeline
  this is the batched hashing pass (``hash_batch_with_norms``), whose packed
  words double as the result-cache keys;
* ``execute(prepared)`` runs the expensive half (the CAM search and
  post-processing) on whatever subset of the batch missed the cache.

:class:`CamPipelineEngine` is the flagship: a prototype classifier served
straight off the packed CAM pipeline
(``hash_batch_packed`` -> :meth:`~repro.cam.array.CamArray.search_batch_packed`
-> angle -> cosine -> norm-scaled logits), the workload whose energy/latency
story the paper's accelerator is built around.  :class:`BackendEngine`
adapts any registered :class:`repro.api.Backend` + model pair so the same
server fronts the exact baselines too.
"""

from __future__ import annotations

import hashlib
import itertools
import threading
from dataclasses import dataclass
from typing import Any, Optional, Protocol, Sequence, Tuple, runtime_checkable

import numpy as np

from repro.cam.array import CamArray
from repro.cam.sense_amplifier import ClockedSelfReferencedSenseAmp
from repro.cam.topk import TopKResult, encode_topk_rows, validate_k
from repro.core.hashing import RandomProjectionHasher
from repro.core.minifloat import Minifloat
from repro.hw.cosine_unit import CosineUnit, cosine_table, gather_cosines


#: Process-unique tokens for engines whose outputs have no content identity.
_ENGINE_TOKENS = itertools.count(1)


@dataclass(frozen=True)
class PreparedBatch:
    """A coalesced micro-batch after one shared preprocessing pass.

    Attributes
    ----------
    queries:
        ``(n, input_dim)`` float64 matrix of the raw samples.
    keys:
        Per-sample cache keys, or ``None`` when the engine's results are
        not memoisable.
    packed_words:
        ``(n, words)`` packed signatures when the engine hashes (else
        ``None``); kept so ``execute`` never re-hashes.
    norms:
        ``(n,)`` query norms when the engine computes them (else ``None``).
    """

    queries: np.ndarray
    keys: Optional[Tuple[bytes, ...]] = None
    packed_words: Optional[np.ndarray] = None
    norms: Optional[np.ndarray] = None

    @property
    def size(self) -> int:
        """Number of samples in the batch."""
        return int(self.queries.shape[0])

    def select(self, indices: Sequence[int]) -> "PreparedBatch":
        """Subset of the batch (the cache misses) with all fields aligned."""
        idx = np.asarray(list(indices), dtype=np.intp)
        return PreparedBatch(
            queries=self.queries[idx],
            keys=None if self.keys is None else tuple(self.keys[i] for i in idx),
            packed_words=None if self.packed_words is None else self.packed_words[idx],
            norms=None if self.norms is None else self.norms[idx],
        )


@runtime_checkable
class InferenceEngine(Protocol):
    """Contract every servable engine satisfies (see module docstring).

    ``prepare`` may accept a ``want_keys`` keyword (both built-in engines
    do); servers detect it and pass ``want_keys=False`` when caching is
    off, so key construction never burdens uncached serving.  Engines may
    also expose ``input_dim`` (per-sample shape validation at submit time)
    and ``output_dim``.
    """

    name: str

    def prepare(self, queries: np.ndarray) -> PreparedBatch:
        """Shared preprocessing of a ``(n, input_dim)`` batch."""
        ...

    def execute(self, prepared: PreparedBatch) -> np.ndarray:
        """Compute ``(n, output_dim)`` logits for a prepared (sub)batch."""
        ...


class CamPipelineEngine:
    """Prototype classifier served off the packed CAM pipeline.

    ``classes`` prototype vectors are hashed once at construction and
    written into the CAM rows (the weight-stationary serving dataflow); a
    query batch is hashed in one GEMM, searched in one packed XOR+popcount
    over the whole batch, and the sensed Hamming distances are turned back
    into geometric dot-products ``||q|| ||p|| cos(pi * HD / k)`` (paper
    Eqs. 2-5).  Logits are a pure function of (packed signature, norm), so
    the :class:`PreparedBatch` keys memoise them exactly.

    Parameters
    ----------
    prototypes:
        ``(classes, input_dim)`` matrix of class prototype vectors.
    hash_length:
        Signature length ``k`` in bits (the CAM word width).
    seed:
        Seed of the shared random projection.
    rows:
        CAM rows to provision (defaults to ``classes``; extra rows stay
        unpopulated exactly as under-filled arrays do in the mapper).
    use_exact_cosine:
        ``True`` swaps the hardware's piecewise-linear Eq. 5 cosine for the
        exact one (ablation knob, mirroring the simulator's).
    quantize_norms:
        Minifloat format applied to prototype *and* query norms (as the
        context generator quantises stored norms); ``None`` keeps exact
        norms.
    sense_amp:
        Sense amplifier used to digitise the CAM's match-line discharge
        (ablation knob for noisy read-out studies); ``None`` keeps the
        noise-free default.  A *noisy* amplifier makes logits depend on the
        amplifier's RNG state, so the engine then stops issuing cache keys
        -- noisy results are not memoisable.
    """

    name = "cam_pipeline"

    def __init__(self, prototypes: np.ndarray, hash_length: int = 256,
                 seed: int = 0, rows: Optional[int] = None,
                 use_exact_cosine: bool = False,
                 quantize_norms: Optional[Minifloat] = None,
                 sense_amp: Optional[ClockedSelfReferencedSenseAmp] = None) -> None:
        protos = np.asarray(prototypes, dtype=np.float64)
        if protos.ndim != 2 or protos.shape[0] == 0:
            raise ValueError("prototypes must be a non-empty 2-D matrix")
        self.classes, self.input_dim = (int(protos.shape[0]), int(protos.shape[1]))
        self.hash_length = int(hash_length)
        self.output_dim = self.classes
        cam_rows = self.classes if rows is None else int(rows)
        if cam_rows < self.classes:
            raise ValueError(
                f"rows {cam_rows} cannot hold {self.classes} prototypes")
        self.sense_amp = sense_amp
        self._memoisable = (sense_amp is None
                            or sense_amp.timing_noise_sigma_ps == 0.0)
        self.hasher = RandomProjectionHasher(self.input_dim, self.hash_length,
                                             seed=seed)
        self.cam = self._build_cam_port(cam_rows)
        self.cam.write_rows(self.hasher.hash_batch(protos))
        self.cosine_unit = CosineUnit(use_exact=use_exact_cosine)
        self._cosines = cosine_table(self.cosine_unit, self.hash_length)
        self.norm_format = quantize_norms
        norms = np.linalg.norm(protos, axis=1)
        if self.norm_format is not None:
            norms = self.norm_format.quantize_array(norms)
        self._prototype_norms = norms
        self._queries_served = 0
        # The CAM array has a single search port; serialising searches also
        # keeps the energy/count accounting and any noisy sense-amp RNG
        # safe under multi-worker servers.
        self._cam_lock = threading.Lock()
        # Cache-key namespace: a digest of everything (besides the query's
        # own signature + norm) the logits depend on.  Two engines built
        # identically share cache entries; engines with different
        # prototypes, seeds or post-processing can never alias, even
        # through one shared PackedSignatureCache.  A sharded engine built
        # over the same prototypes computes bit-identical logits, so it
        # deliberately shares this namespace with its unsharded twin.
        self._cache_namespace = hashlib.blake2b(
            protos.tobytes()
            + f"|{self.hash_length}|{seed}|{use_exact_cosine}"
              f"|{quantize_norms!r}".encode(),
            digest_size=8).digest()

    def _build_cam_port(self, cam_rows: int) -> Any:
        """Build the search port the engine executes against.

        Subclasses (the sharded engine) override this to return any object
        with the :class:`CamArray` batch-search surface:
        ``write_rows(bits, start_row)``, ``search_batch_packed(packed)`` and
        the ``accumulated_search_energy_pj`` / ``search_count`` accounting
        properties.
        """
        return CamArray(rows=cam_rows, word_bits=self.hash_length,
                        sense_amp=self.sense_amp)

    # -- engine contract ---------------------------------------------------------

    def prepare(self, queries: np.ndarray,
                want_keys: bool = True) -> PreparedBatch:
        """One batched hashing pass; packed words + norms become the keys."""
        data = np.asarray(queries, dtype=np.float64)
        if data.ndim != 2 or data.shape[1] != self.input_dim:
            raise ValueError(
                f"expected queries of shape (n, {self.input_dim}), got {data.shape}"
            )
        packed, norms = self.hasher.hash_batch_with_norms(data)
        if self.norm_format is not None:
            norms = self.norm_format.quantize_array(norms)
        keys = None
        if want_keys and self._memoisable:
            row_bytes = packed.shape[1] * packed.dtype.itemsize
            packed_blob = packed.tobytes()
            norm_blob = np.ascontiguousarray(norms, dtype=np.float64).tobytes()
            keys = tuple(
                self._cache_namespace
                + packed_blob[i * row_bytes: (i + 1) * row_bytes]
                + norm_blob[i * 8: (i + 1) * 8]
                for i in range(data.shape[0])
            )
        return PreparedBatch(queries=data, keys=keys, packed_words=packed,
                             norms=norms)

    def execute(self, prepared: PreparedBatch) -> np.ndarray:
        """Packed CAM search + geometric post-processing for one (sub)batch."""
        if prepared.packed_words is None or prepared.norms is None:
            prepared = self.prepare(prepared.queries)
        if prepared.size == 0:
            return np.empty((0, self.classes), dtype=np.float64)
        counts = self._search_counts(prepared)
        logits = np.multiply.outer(prepared.norms, self._prototype_norms)
        logits *= gather_cosines(self._cosines, counts)
        return logits

    def _search_counts(self, prepared: PreparedBatch) -> np.ndarray:
        """Sensed Hamming distances of the prototype rows for one batch.

        Holds the single-port CAM lock for the whole search.  The sharded
        engine overrides this: its cluster is internally synchronised
        (per-replica port locks), so concurrent server workers can search
        different replicas in parallel.
        """
        with self._cam_lock:
            distances, _energy, _latency = self.cam.search_batch_packed(
                prepared.packed_words)
            self._queries_served += prepared.size
        return distances[:, : self.classes]

    # -- retrieval ---------------------------------------------------------------

    def topk_width(self, k: int) -> int:
        """Row width of an encoded top-k answer for this engine.

        ``2 * min(k, classes)``: every populated CAM row is a prototype, so
        asking for more neighbours than prototypes returns them all.
        """
        return 2 * min(validate_k(k), self.classes)

    def execute_topk(self, prepared: PreparedBatch, k: int) -> np.ndarray:
        """The ``k`` nearest prototype rows per query, as encoded rows.

        The retrieval sibling of :meth:`execute`: one packed top-k CAM
        search (``topk_packed`` on the array or the sharded cluster's
        partial gather) returning ``(n, 2 * k_eff)`` rows of
        ``[row ids | sensed Hamming distances]``
        (:func:`~repro.cam.topk.encode_topk_rows`).  Like the logits path,
        the answer is a pure function of (packed signature, k) for
        noise-free amplifiers, so the server memoises it under the
        (query, k)-suffixed cache key.
        """
        if prepared.packed_words is None:
            prepared = self.prepare(prepared.queries)
        width = self.topk_width(k)
        if prepared.size == 0 or width == 0:
            return np.empty((prepared.size, width), dtype=np.float64)
        result = self._topk_result(prepared, k)
        return encode_topk_rows(result.indices, result.distances)

    def _topk_result(self, prepared: PreparedBatch, k: int) -> TopKResult:
        """Top-k search under the single-port CAM lock (see _search_counts)."""
        with self._cam_lock:
            result = self.cam.topk_packed(prepared.packed_words, k)
            self._queries_served += prepared.size
        return result

    # -- reporting ---------------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """Engine counters folded into the server's ``stats()`` snapshot."""
        return {
            "queries_served": self._queries_served,
            "cam_search_energy_pj": self.cam.accumulated_search_energy_pj,
            "cam_search_count": self.cam.search_count,
            "hash_length": self.hash_length,
            "classes": self.classes,
        }


class BackendEngine:
    """Any registered :class:`repro.api.Backend` + model behind the contract.

    ``execute`` stacks the samples and calls ``backend.infer(model, batch)``.
    Generic backends compute from the *full* input, not from a packed
    signature, so a lossy signature key could alias two distinct queries;
    cache keys are therefore exact BLAKE2 digests of the raw sample bytes --
    still memoising repeats, never aliasing.
    """

    def __init__(self, backend: Any, model: Any, name: Optional[str] = None) -> None:
        self.backend = backend
        self.model = model
        self.name = name if name is not None else f"backend/{getattr(backend, 'name', 'unknown')}"
        # Logits depend on the whole (backend, model) pair and there is no
        # content identity to hash, so each BackendEngine gets a fresh
        # process-unique namespace token: only servers sharing this exact
        # engine instance share cache entries.  (An id()-based token would
        # be reusable after garbage collection and could alias a dead
        # engine's entries in a long-lived shared cache.)
        self._cache_namespace = (b"be" +
                                 next(_ENGINE_TOKENS).to_bytes(6, "little"))

    def prepare(self, queries: np.ndarray,
                want_keys: bool = True) -> PreparedBatch:
        """Digest-keyed preparation (no hashing; backends take raw batches)."""
        data = np.asarray(queries, dtype=np.float64)
        keys = None
        if want_keys:
            keys = tuple(
                self._cache_namespace
                + hashlib.blake2b(np.ascontiguousarray(sample).tobytes(),
                                  digest_size=16).digest()
                for sample in data
            )
        return PreparedBatch(queries=data, keys=keys)

    def execute(self, prepared: PreparedBatch) -> np.ndarray:
        """One batched ``infer`` call on the wrapped backend."""
        logits = self.backend.infer(self.model, prepared.queries)
        return np.asarray(logits, dtype=np.float64)


def build_demo_engine(classes: int = 16, input_dim: int = 128,
                      hash_length: int = 256, seed: int = 0,
                      **engine_kwargs: Any) -> CamPipelineEngine:
    """Synthetic prototype classifier shared by loadgen, bench and examples.

    Prototypes are standard-normal vectors; with the matching
    :func:`demo_queries` generator this yields a serving workload whose
    logits, cache behavior and throughput are reproducible from the seed
    alone.
    """
    rng = np.random.default_rng(seed)
    prototypes = rng.standard_normal((classes, input_dim))
    return CamPipelineEngine(prototypes, hash_length=hash_length,
                             seed=seed + 1, **engine_kwargs)


def demo_queries(engine: CamPipelineEngine, count: int,
                 seed: int = 0) -> np.ndarray:
    """``(count, input_dim)`` standard-normal queries for a demo engine."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal((count, engine.input_dim))
