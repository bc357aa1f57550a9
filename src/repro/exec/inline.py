"""The serial reference engine: every task runs in the calling thread.

``inline`` is both the baseline the other engines are measured against
and the crash-containment fallback of the process engine -- it has no
pool, no workers and no state, so it can never fail for infrastructure
reasons.  Its count fan-out is the base class's in-process kernel call,
capped at one CPU.
"""

from __future__ import annotations

from repro.exec.base import Executor


class InlineExecutor(Executor):
    """Serial reference execution of the fan-out primitives."""

    name = "inline"
    in_process = True

    def __init__(self) -> None:
        super().__init__(workers=1)
