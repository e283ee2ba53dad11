"""Test-only reference: the step-by-step ring pass the executor replaced.

:class:`StepwiseExecutor` runs every ring step — intra-node hops included —
as its own ``send``/``recv`` pair of events on the member's process, the way
the executed tier worked before ring passes were fused.  The differential
tests hold the fused executor to it: equal result documents untraced, and
an equal multiset of trace spans traced.
"""

from __future__ import annotations

import contextlib
from typing import Generator, Iterator, Sequence

from repro.collectives.executor import CollectiveExecutor
from repro.collectives.p2p import recv, send


class StepwiseExecutor(CollectiveExecutor):
    """:class:`CollectiveExecutor` with the per-step ring loop."""

    def _ring_phase(
        self,
        ring: Sequence[int],
        rank: int,
        chunk: float,
        messages: int,
        tag: str,
        phase: str,
    ) -> Generator:
        d = len(ring)
        i = list(ring).index(rank)
        nxt = ring[(i + 1) % d]
        prev = ring[(i - 1) % d]
        for s in range(d - 1):
            step_tag = f"{tag}:{phase}{s}"
            if self.hooks is not None:
                self.hooks.on_collective_step(tag, rank, chunk)
            yield from send(
                self.fabric, self.channels, rank, nxt, step_tag, chunk,
                self.trace, collective=True, messages=messages,
            )
            yield from recv(self.channels, prev, rank, step_tag, trace=self.trace)


@contextlib.contextmanager
def stepwise_engine() -> Iterator[None]:
    """Make training simulations built inside the block use the stepwise
    reference executor."""
    import repro.core.engine as core_engine

    fused = core_engine.CollectiveExecutor
    core_engine.CollectiveExecutor = StepwiseExecutor
    try:
        yield
    finally:
        core_engine.CollectiveExecutor = fused
