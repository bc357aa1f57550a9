"""Asyncio facade over the network client SDK.

:class:`AsyncNetClient` is the awaitable twin of
:class:`~repro.net.client.NetClient`: the one
:class:`~repro.serve.async_client.AsyncClient` adapter over the wire
client, exactly as :class:`~repro.serve.async_client.AsyncServeClient` is
over the in-process one.  No second execution path -- every request runs
the sync client's retried transport call on the event loop's default
executor (blocking socket I/O must stall a worker thread, never the
loop)::

    from repro.net import AsyncNetClient

    async def main():
        async with AsyncNetClient("http://127.0.0.1:8451") as client:
            logits = await client.infer(my_vector)
            indices, distances = await client.topk(my_vector, k=8)
            spans = await client.trace()
"""

from __future__ import annotations

from typing import Any, Optional

from repro.net.client import NetClient
from repro.net.transport import RetryPolicy, Transport
from repro.serve.async_client import AsyncClient


class AsyncNetClient(AsyncClient, sync=NetClient):
    """Awaitable request/response facade over a remote ``NetServer``.

    Parameters are those of :class:`~repro.net.client.NetClient` (exactly
    one of ``base_url``/``transport``; retry policy and the connect/read
    timeout split forwarded to the shared transport core).
    """

    def __init__(self, base_url: Optional[str] = None,
                 transport: Optional[Transport] = None,
                 retry: Optional[RetryPolicy] = None,
                 connect_timeout_s: float = 5.0,
                 read_timeout_s: float = 30.0,
                 seed: Optional[int] = None,
                 tracer: Any = None,
                 tenant: Optional[str] = None) -> None:
        super().__init__(NetClient(base_url=base_url, transport=transport,
                                   retry=retry,
                                   connect_timeout_s=connect_timeout_s,
                                   read_timeout_s=read_timeout_s, seed=seed,
                                   tracer=tracer, tenant=tenant))
