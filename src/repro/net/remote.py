"""Remote shards: the sharded CAM cluster over sockets, with failover.

Three pieces turn :class:`~repro.shard.pipeline.ShardedCamPipeline` into a
network-transparent cluster:

* :class:`RemoteShardTransport` -- one shard replica's *port*.  It speaks
  the shard plane of a :class:`~repro.net.server.NetServer` (write /
  search / local top-k, one binary frame each way) behind the exact
  surface the pipeline expects of a port (``write_rows`` /
  ``mismatch_counts_packed``), so the pipeline's scatter, fan-out and
  re-replication machinery drive it unchanged.  Each transport knows its
  shard's *global placement* (which global row each local row stores) and
  teaches it to the server on every write -- that is what makes the remote
  local top-k return global ids and the remote partial gather exact.
* :class:`RemoteCamCluster` -- a :class:`ShardedCamPipeline` whose ports
  are those transports.  Searches, top-ks and writes run through the
  pipeline's one fan-out exactly as in-process ``"ports"`` mode; the
  cluster only overrides two hooks.  The per-port call seam becomes a
  *failover loop*: a transport failure marks the replica dead in the
  router, a search retries on a surviving replica, a write goes on to
  the shard's other replicas, and -- when a ``replacement_factory`` is
  configured -- the lost replica is *re-replicated* from the pipeline's
  packed row words (the same single copy ``rebalance()`` rebuilds from)
  onto a fresh endpoint, swapped into the replica slot and marked alive
  again.  The local top-k hook asks the server for its candidates, so
  only ``k`` values per shard cross the wire.  Results stay
  bit-identical to the in-process cluster throughout: raw counts merge
  and digitise exactly as before, whichever replica answers.
* :class:`RemoteShardedEngine` -- the :class:`~repro.shard.engine.ShardedEngine`
  twin over a remote cluster, so a :class:`~repro.serve.server.MicroBatchServer`
  (or a serve-plane :class:`NetServer`) fronts the whole remote cluster
  unchanged; :func:`build_demo_remote_engine` mirrors the demo seeds so
  its answers are bit-identical to :func:`~repro.serve.engine.build_demo_engine`.
"""

from __future__ import annotations

import random
import threading
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.net import protocol
from repro.net.transport import (
    HttpTransport,
    RetryingTransport,
    RetryPolicy,
    Transport,
    TransportError,
)
from repro.obs import inject_headers
from repro.shard.engine import ShardedEngine
from repro.shard.pipeline import ShardedCamPipeline
from repro.shard.plan import ShardSpec

#: Shard-plane default: few quick attempts per replica -- the cluster's
#: failover (not the transport's retries) owns recovery from a dead node.
SHARD_RETRY = RetryPolicy(max_attempts=2, base_delay_s=0.01,
                          max_delay_s=0.1, budget_s=2.0)

#: ``base_url -> Transport`` builder (injection point for fault wrappers).
TransportFactory = Callable[[str], Transport]

#: ``shard_index -> base_url`` of a fresh replacement replica server.
ReplacementFactory = Callable[[int], str]


class ShardUnavailableError(TransportError):
    """Every replica of one shard is dead and irreparable."""


class RemoteShardTransport:
    """One remote shard replica behind the pipeline's port surface.

    Parameters
    ----------
    base_url:
        The replica's shard-plane :class:`NetServer`.
    global_rows:
        ``(rows,)`` global row ids this shard stores, in local-row order
        (the plan's :attr:`~repro.shard.plan.ShardSpec.global_rows`).
    id_bound / word_bits:
        The cluster's total row count (the tie-break bound) and word width.
    retry / connect_timeout_s / read_timeout_s / seed:
        The transport core's knobs (see :class:`RetryingTransport`).
    transport_factory:
        Optional ``base_url -> Transport`` override; tests inject
        :class:`~repro.net.transport.FlakyTransport` stacks here.
    """

    def __init__(self, base_url: str, global_rows: np.ndarray,
                 id_bound: int, word_bits: int,
                 retry: Optional[RetryPolicy] = None,
                 connect_timeout_s: float = 5.0,
                 read_timeout_s: float = 30.0,
                 seed: Optional[int] = None,
                 transport_factory: Optional[TransportFactory] = None
                 ) -> None:
        self.base_url = base_url.rstrip("/")
        self.global_rows = np.asarray(global_rows, dtype=np.int64)
        self.id_bound = int(id_bound)
        self.word_bits = int(word_bits)
        if transport_factory is None:
            inner: Transport = HttpTransport(
                self.base_url, connect_timeout_s=connect_timeout_s,
                read_timeout_s=read_timeout_s)
        else:
            inner = transport_factory(self.base_url)
        rng = random.Random(seed) if seed is not None else None
        self.transport = RetryingTransport(
            inner, policy=retry if retry is not None else SHARD_RETRY,
            rng=rng)

    @property
    def rows(self) -> int:
        """Local row capacity of this shard."""
        return int(self.global_rows.size)

    # -- plumbing ----------------------------------------------------------------

    def _get(self, path: str) -> Dict[str, Any]:
        # Any ambient trace context (the serve plane's fan-out span)
        # rides along, so remote shard spans join the request's trace.
        response = self.transport.send("GET", path, b"", inject_headers({}))
        return protocol.parse_response(response.json())

    def _post(self, path: str, kind: str, **fields: Any) -> Dict[str, Any]:
        """One frame each way: ``kind``'s request fields in, answer out."""
        headers = inject_headers({"Content-Type": protocol.CONTENT_TYPE_FRAME})
        response = self.transport.send(
            "POST", path, protocol.encode(f"{kind}.request", **fields),
            headers)
        return protocol.decode(f"{kind}.response", response.frame())

    # -- the port surface --------------------------------------------------------

    def write_rows(self, bits_matrix: np.ndarray, start_row: int = 0) -> float:
        """Store one local row block remotely, teaching the placement."""
        bits = np.asarray(bits_matrix, dtype=np.uint8)
        stop = start_row + bits.shape[0]
        return self._post("/v1/shard/write", "shard_write", bits=bits,
                          start_row=start_row,
                          global_ids=self.global_rows[start_row:stop],
                          id_bound=self.id_bound)["energy_pj"]

    def mismatch_counts_packed(self, packed_queries: np.ndarray
                               ) -> Tuple[np.ndarray, float, int]:
        """Raw mismatch counts of the whole remote shard (full gather)."""
        answer = self._post("/v1/shard/search", "shard_search",
                            packed=packed_queries)
        return (answer["counts"], answer["energy_pj"],
                answer["latency_cycles"])

    def topk_candidates(self, packed_queries: np.ndarray, k: int
                        ) -> Tuple[np.ndarray, np.ndarray, float, int]:
        """The remote local top-k candidate set (global ids + raw counts)."""
        answer = self._post("/v1/shard/topk", "shard_topk",
                            packed=packed_queries, k=k)
        return (answer["indices"], answer["raw"], answer["energy_pj"],
                answer["latency_cycles"])

    # -- health ------------------------------------------------------------------

    def healthz(self) -> Dict[str, Any]:
        """The replica's liveness document (raises on a dead endpoint)."""
        return self._get("/v1/healthz")

    def info(self) -> Dict[str, Any]:
        """The replica's geometry handshake."""
        return self._get("/v1/shard/info")

    def close(self) -> None:
        self.transport.close()

    def stats(self) -> Dict[str, Any]:
        return self.transport.stats()


class RemoteCamCluster(ShardedCamPipeline):
    """A sharded CAM pipeline whose shards live behind sockets.

    ``endpoints[shard][replica]`` names the shard-plane servers; geometry
    (shard count, replicas) is taken from its shape.  Every endpoint must
    be reachable at construction (the initial row load goes over the
    wire); losses *after* that are survived by the failover loop and --
    with a ``replacement_factory`` -- repaired by re-replication from the
    pipeline-owned row storage.  ``rebalance()`` / ``add_shard()`` are not
    supported remotely (the endpoint set is the geometry).

    All other parameters match :class:`ShardedCamPipeline`; fan-out is
    always ``"ports"`` (there is no fused storage across machines).
    """

    def __init__(self, endpoints: Sequence[Sequence[str]], total_rows: int,
                 word_bits: int, policy: str = "contiguous",
                 routing: str = "round_robin",
                 sense_amp: Any = None,
                 replacement_factory: Optional[ReplacementFactory] = None,
                 retry: Optional[RetryPolicy] = None,
                 connect_timeout_s: float = 5.0,
                 read_timeout_s: float = 30.0,
                 transport_factory: Optional[TransportFactory] = None,
                 num_workers: Optional[int] = None,
                 observers: Any = ()) -> None:
        grid = [list(replicas) for replicas in endpoints]
        if not grid or not grid[0]:
            raise ValueError("endpoints must be a non-empty grid of URLs")
        replicas_per_shard = len(grid[0])
        if any(len(replicas) != replicas_per_shard for replicas in grid):
            raise ValueError("every shard needs the same replica count")
        # Everything _build_ports (called inside super().__init__) needs
        # must exist first.
        self._endpoints = grid
        self._replacement_factory = replacement_factory
        self._shard_retry = retry if retry is not None else SHARD_RETRY
        self._connect_timeout_s = float(connect_timeout_s)
        self._read_timeout_s = float(read_timeout_s)
        self._transport_factory = transport_factory
        self._net_lock = threading.Lock()
        self._failovers = 0
        self._re_replications = 0
        self._repair_locks = [threading.Lock() for _ in grid]
        # (shard, replica, port) slots the calling thread's write lost.
        self._lost_writes = threading.local()
        super().__init__(total_rows=total_rows, word_bits=word_bits,
                         num_shards=len(grid), policy=policy,
                         num_replicas=replicas_per_shard, routing=routing,
                         sense_amp=sense_amp, fanout="ports",
                         num_workers=num_workers, observers=observers)

    # -- structure ---------------------------------------------------------------

    def _make_port(self, base_url: str,
                   spec: ShardSpec) -> RemoteShardTransport:
        return RemoteShardTransport(
            base_url, global_rows=spec.global_rows,
            id_bound=self.rows, word_bits=self.word_bits,
            retry=self._shard_retry,
            connect_timeout_s=self._connect_timeout_s,
            read_timeout_s=self._read_timeout_s,
            transport_factory=self._transport_factory)

    def _new_port(self, spec: ShardSpec, replica: int) -> RemoteShardTransport:
        return self._make_port(self._endpoints[spec.index][replica], spec)

    def add_shard(self) -> Any:
        raise NotImplementedError(
            "a remote cluster's endpoint grid is its geometry; "
            "provision servers and build a new cluster to grow")

    def rebalance(self, num_shards: Optional[int] = None,
                  policy: Optional[str] = None) -> Any:
        raise NotImplementedError(
            "a remote cluster's endpoint grid is its geometry; "
            "provision servers and build a new cluster to re-partition")

    # -- writes ------------------------------------------------------------------

    def write_rows(self, bits_matrix: np.ndarray, start_row: int = 0) -> float:
        """Scatter a row block to every replica, surviving replica deaths.

        A replica that fails the write is marked dead while the scatter
        goes on to the others; the pipeline's packed words already hold
        the rows, so once the state lock is released a
        ``replacement_factory`` re-replicates the lost replica from them.
        :class:`ShardUnavailableError` surfaces only when no replica of a
        shard took the write.
        """
        self._lost_writes.slots = lost = []
        energy = super().write_rows(bits_matrix, start_row)
        unwritten: Dict[int, int] = {}
        for shard, replica, port in lost:
            if not self._repair(shard, replica, port):
                unwritten[shard] = unwritten.get(shard, 0) + 1
        dead = [shard for shard, count in unwritten.items()
                if count == self._num_replicas]
        if dead:
            raise ShardUnavailableError(
                f"no replica of shard(s) {dead} took the write")
        return energy

    # -- failover ----------------------------------------------------------------

    def _port_call(self, shard: int, replica: int, ports: List[List[Any]],
                   locks: List[List[threading.Lock]], op: Callable[[Any], Any],
                   failover: bool = True) -> Tuple[Any, int]:
        """The failover call: run one per-port call, surviving replica deaths.

        A :class:`TransportError` marks the replica dead.  Without
        ``failover`` (a write) the slot is queued for repair once the
        write completes and the call reports no energy.  Otherwise it
        triggers an inline repair (re-replication onto a fresh endpoint
        when a replacement factory is configured) and retries -- on the
        repaired replica or on any surviving one.  Only when every replica
        has failed and repair is impossible does
        :class:`ShardUnavailableError` surface; protocol-level errors
        (:class:`~repro.net.protocol.WireError`) are never failover
        triggers -- a peer that answers wrongly is a bug, not a dead node.
        """
        tried: set = set()
        last_error: Optional[Exception] = None
        # Bounded walk: every replica once, plus one repaired retry each.
        for _ in range(2 * self._num_replicas + 2):
            port = ports[shard][replica]
            if id(port) not in tried:
                try:
                    with locks[shard][replica]:
                        # Re-read: a concurrent repair swaps ports in place.
                        return op(ports[shard][replica]), replica
                except TransportError as error:
                    last_error = error
                    tried.add(id(port))
                    self.router.mark_dead(shard, replica)
                    with self._net_lock:
                        self._failovers += 1
                    if not failover:
                        self._lost_writes.slots.append((shard, replica, port))
                        return 0.0, replica
                    if self._repair(shard, replica, port):
                        continue  # the slot now holds a live port
            candidates = [index for index in range(self._num_replicas)
                          if id(ports[shard][index]) not in tried]
            if not candidates:
                break
            live = [index for index in candidates
                    if self.router.alive(shard, index)]
            replica = (live if live else candidates)[0]
        raise ShardUnavailableError(
            f"every replica of shard {shard} is unavailable: {last_error}")

    def _repair(self, shard: int, replica: int, failed_port: Any) -> bool:
        """Re-replicate one lost replica from the pipeline's packed words.

        Serialised per shard; a racer that arrives after the swap sees a
        different port in the slot and reports the router's verdict
        instead of repairing twice.  A write that lands while the fresh
        replica loads triggers a reload, so the swap never loses it.
        Returns whether the slot is live.
        """
        if self._replacement_factory is None:
            return False
        with self._repair_locks[shard]:
            with self._state_lock:
                if self._ports[shard][replica] is not failed_port:
                    return self.router.alive(shard, replica)
                spec = self.plan.shards[shard]
            try:
                port = self._make_port(self._replacement_factory(shard), spec)
                while True:
                    with self._state_lock:
                        store, populated = self._packed, self._populated
                    self._load_port(port, spec, store, populated)
                    with self._state_lock:
                        if self._packed is store:
                            # In-place swap: snapshots share the nested
                            # lists, so in-flight searches see the
                            # repaired port immediately.
                            self._ports[shard][replica] = port
                            self._endpoints[shard][replica] = port.base_url
                            break
            except TransportError:
                return False
            self.router.mark_alive(shard, replica)
            with self._net_lock:
                self._re_replications += 1
            try:
                failed_port.close()
            except Exception:  # noqa: BLE001 -- already dead
                pass
            return True

    def _port_candidates(self, port: Any, packed: np.ndarray, k: int,
                         spec: Any, populated: np.ndarray) -> tuple:
        """The server-side local top-k: only ``k`` values cross the wire."""
        return port.topk_candidates(packed, k)

    # -- health ------------------------------------------------------------------

    def check_health(self) -> Dict[str, Any]:
        """Probe every replica and update the router's health marks."""
        with self._state_lock:
            ports = self._ports
        report: Dict[str, Any] = {"alive": [], "dead": []}
        for shard, replicas in enumerate(ports):
            for replica, port in enumerate(replicas):
                try:
                    port.healthz()
                except (TransportError, protocol.WireError):
                    self.router.mark_dead(shard, replica)
                    report["dead"].append((shard, replica))
                else:
                    self.router.mark_alive(shard, replica)
                    report["alive"].append((shard, replica))
        return report

    def close(self) -> None:
        """Close every replica transport, then the fan-out pool."""
        with self._state_lock:
            ports = [list(replicas) for replicas in self._ports]
        for replicas in ports:
            for port in replicas:
                try:
                    port.close()
                except Exception:  # noqa: BLE001 -- best-effort teardown
                    pass
        super().close()

    # -- reporting ---------------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """The cluster snapshot plus the network/failover counters."""
        base = super().stats()
        with self._net_lock:
            failovers, re_replications = (self._failovers,
                                          self._re_replications)
        with self._state_lock:
            endpoints = [list(replicas) for replicas in self._endpoints]
        base["net"] = {
            "endpoints": endpoints,
            "failovers": failovers,
            "re_replications": re_replications,
            "dead_replicas": list(self.router.dead_replicas()),
        }
        return base


class RemoteShardedEngine(ShardedEngine):
    """The sharded serving engine over a :class:`RemoteCamCluster`.

    Same contract (and bit-identical answers) as
    :class:`~repro.shard.engine.ShardedEngine`; geometry comes from the
    ``endpoints`` grid and the cluster knobs ride along.  Serve it with a
    :class:`~repro.serve.server.MicroBatchServer` -- or front that with a
    serve-plane :class:`~repro.net.server.NetServer` for the full
    client -> server -> remote shards path.
    """

    name = "remote_sharded_cam_pipeline"

    def __init__(self, prototypes: np.ndarray,
                 endpoints: Sequence[Sequence[str]],
                 replacement_factory: Optional[ReplacementFactory] = None,
                 policy: str = "contiguous", routing: str = "round_robin",
                 retry: Optional[RetryPolicy] = None,
                 connect_timeout_s: float = 5.0,
                 read_timeout_s: float = 30.0,
                 transport_factory: Optional[TransportFactory] = None,
                 num_shard_workers: Optional[int] = None,
                 observers: Any = (), **engine_kwargs: Any) -> None:
        grid = [list(replicas) for replicas in endpoints]
        self._net_endpoints = grid
        self._replacement_factory = replacement_factory
        self._net_retry = retry
        self._net_connect_timeout_s = connect_timeout_s
        self._net_read_timeout_s = read_timeout_s
        self._net_transport_factory = transport_factory
        super().__init__(prototypes, num_shards=len(grid), policy=policy,
                         num_replicas=len(grid[0]) if grid else 0,
                         routing=routing, fanout="ports",
                         num_shard_workers=num_shard_workers,
                         observers=observers, **engine_kwargs)

    def _build_cam_port(self, cam_rows: int) -> RemoteCamCluster:
        return RemoteCamCluster(
            endpoints=self._net_endpoints,
            total_rows=cam_rows,
            word_bits=self.hash_length,
            policy=self.policy,
            routing=self.routing,
            sense_amp=self.sense_amp,
            replacement_factory=self._replacement_factory,
            retry=self._net_retry,
            connect_timeout_s=self._net_connect_timeout_s,
            read_timeout_s=self._net_read_timeout_s,
            transport_factory=self._net_transport_factory,
            num_workers=self._num_shard_workers,
            observers=self._shard_observers)

    def rebalance(self, num_shards: Optional[int] = None,
                  policy: Optional[str] = None) -> None:
        raise NotImplementedError("remote clusters have fixed geometry")

    def add_shard(self) -> None:
        raise NotImplementedError("remote clusters have fixed geometry")

    def close(self) -> None:
        """Release every replica transport."""
        self.cam.close()


def build_demo_remote_engine(endpoints: Sequence[Sequence[str]],
                             replacement_factory: Optional[
                                 ReplacementFactory] = None,
                             classes: int = 16, input_dim: int = 128,
                             hash_length: int = 256, seed: int = 0,
                             **engine_kwargs: Any) -> RemoteShardedEngine:
    """Remote twin of :func:`repro.serve.engine.build_demo_engine`.

    Same prototype generation from the same seed, so its responses are
    bit-identical to the in-process demo engine -- the oracle the remote
    loadgen verification leans on.  The shard servers behind ``endpoints``
    must have ``classes`` total rows at ``hash_length`` bits (what
    :class:`~repro.net.cluster.LocalShardCluster` builds).
    """
    rng = np.random.default_rng(seed)
    prototypes = rng.standard_normal((classes, input_dim))
    return RemoteShardedEngine(prototypes, endpoints,
                               replacement_factory=replacement_factory,
                               hash_length=hash_length, seed=seed + 1,
                               **engine_kwargs)
