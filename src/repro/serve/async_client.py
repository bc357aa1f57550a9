"""The one asyncio adapter over the client core, and its serve twin.

:class:`AsyncClient` turns any :class:`~repro.serve.client.ClientCore`
into its awaitable twin without a second execution path.  A request runs
the core's own seam:

* the blocking half -- the enqueue, which a full queue with the
  ``"block"`` policy legitimately stalls (backpressure must stall the
  producer, never the event loop), or the socket I/O of a wire client --
  runs on the event loop's default executor;
* the returned :class:`concurrent.futures.Future` objects are bridged with
  :func:`asyncio.wrap_future` and awaited under
  :func:`asyncio.wait_for` with the core's result bound, so waiting costs
  no thread and concurrent awaits still coalesce into micro-batches.

Every other public method of the core (``close``, and ``healthz`` /
``metrics`` / ``trace`` / ``slo`` on the wire client) becomes a coroutine
that runs the sync call off the loop; ``stats()`` does no I/O and stays
sync.  Attributes (``server``, ``timeout_s``, ``tenant``, ``transport``,
...) read through to the sync core.

:class:`AsyncServeClient` is the adapter over
:class:`~repro.serve.client.ServeClient`::

    from repro.serve import AsyncServeClient, build_demo_engine

    async def main():
        async with AsyncServeClient(build_demo_engine()) as client:
            logits = await client.infer(my_vector)
            many = await client.infer_many(batch)   # concurrent submits
            indices, distances = await client.topk(my_vector, k=8)
"""

from __future__ import annotations

import asyncio
import functools
import inspect
from typing import Any, Callable, Dict, Iterable, Optional, Sequence

import numpy as np

from repro.serve.batching import ServeConfig
from repro.serve.client import ClientCore, ServeClient, as_batch
from repro.serve.engine import InferenceEngine
from repro.serve.server import MicroBatchServer


def _off_loop(name: str, method: Callable[..., Any]) -> Callable[..., Any]:
    """The coroutine twin of a blocking core method."""
    @functools.wraps(method)
    async def call(self: "AsyncClient", *args: Any, **kwargs: Any) -> Any:
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(None, functools.partial(
            getattr(self._sync, name), *args, **kwargs))
    return call


class AsyncClient:
    """Awaitable adapter over one sync :class:`ClientCore` (``self._sync``).

    A subclass names its core class in the class statement
    (``class AsyncServeClient(AsyncClient, sync=ServeClient)``) and builds
    the core in its constructor; every public core method the adapter does
    not define itself gets a coroutine twin.
    """

    def __init_subclass__(cls, sync: type, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        for name, method in inspect.getmembers(sync, inspect.isfunction):
            if not name.startswith("_") and not hasattr(cls, name):
                setattr(cls, name, _off_loop(name, method))

    def __init__(self, sync: ClientCore) -> None:
        self._sync = sync

    def __getattr__(self, name: str) -> Any:
        if name == "_sync":  # not yet constructed
            raise AttributeError(name)
        return getattr(self._sync, name)

    async def __aenter__(self) -> "AsyncClient":
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.close()

    async def _serve(self, samples: Sequence[np.ndarray] | np.ndarray,
                     k: Optional[int], options: Dict[str, Any]) -> Any:
        loop = asyncio.get_running_loop()
        futures, wait = await loop.run_in_executor(None, functools.partial(
            self._sync._submit, as_batch(samples), k, **options))
        results = await asyncio.gather(
            *(asyncio.wait_for(asyncio.wrap_future(future, loop=loop), wait)
              for future in futures))
        return self._sync._answer(list(results), k)

    async def infer(self, sample: np.ndarray, **options: Any) -> np.ndarray:
        """Serve one sample; awaits its logits row."""
        return (await self.infer_many([sample], **options))[0]

    async def infer_many(self, samples: Sequence[np.ndarray] | np.ndarray,
                         **options: Any) -> np.ndarray:
        """Serve several samples; awaits the stacked ``(n, output_dim)`` logits."""
        return await self._serve(samples, None, options)

    async def topk(self, sample: np.ndarray, k: int,
                   **options: Any) -> tuple[np.ndarray, np.ndarray]:
        """One top-k request; awaits ``(indices, distances)``."""
        indices, distances = await self.topk_many([sample], k, **options)
        return indices[0], distances[0]

    async def topk_many(self, samples: Sequence[np.ndarray] | np.ndarray,
                        k: int, **options: Any
                        ) -> tuple[np.ndarray, np.ndarray]:
        """A top-k batch; awaits stacked ``(n, k_eff)`` arrays."""
        return await self._serve(samples, k, options)

    def stats(self) -> Dict[str, Any]:
        """The sync core's ``stats()`` (no I/O, stays sync)."""
        return self._sync.stats()


class AsyncServeClient(AsyncClient, sync=ServeClient):
    """Awaitable request/response facade over a :class:`MicroBatchServer`.

    Parameters are those of :class:`~repro.serve.client.ServeClient`
    (exactly one of ``engine``/``server``; ``config``/``cache``/
    ``observers`` forwarded when the client owns the server; ``timeout_s``
    / ``enqueue_timeout_s`` as the default result / enqueue bounds).
    """

    def __init__(self, engine: Optional[InferenceEngine] = None,
                 server: Optional[MicroBatchServer] = None,
                 config: Optional[ServeConfig] = None,
                 cache: Any = None,
                 observers: Iterable[Any] = (),
                 timeout_s: float = 30.0,
                 enqueue_timeout_s: Optional[float] = None,
                 tenant: Optional[str] = None) -> None:
        super().__init__(ServeClient(engine=engine, server=server,
                                     config=config, cache=cache,
                                     observers=observers, timeout_s=timeout_s,
                                     enqueue_timeout_s=enqueue_timeout_s,
                                     tenant=tenant))
