"""Test-only reference: the all-pairs slowest-edge scan.

:class:`AllPairsFabric` is a :class:`~repro.network.fabric.Fabric` whose
:meth:`group_transport` compares every pair of node representatives, the
way the fabric resolved group transports before it grouped nodes into
classes.  The differential tests hold the class-based scan to it: an equal
transport, and equal fallback and rebuild bookkeeping.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.errors import CommunicatorError
from repro.network.fabric import Fabric
from repro.network.transport import Transport


class AllPairsFabric(Fabric):
    def group_transport(self, ranks: Sequence[int]) -> Transport:
        ranks = tuple(sorted(set(ranks)))
        if len(ranks) < 2:
            raise CommunicatorError(f"group transport needs >= 2 ranks: {ranks}")
        cached = self._group_cache.get(ranks)
        if cached is not None and cached[0] == self.health.epoch:
            return cached[1]

        # One representative rank per node.
        reps: Dict[int, int] = {}
        for r in ranks:
            reps.setdefault(self.topology.device(r).node_global, r)
        rep_ranks = list(reps.values())
        if len(rep_ranks) == 1:
            transport = self.transport(ranks[0], ranks[1])
        else:
            worst: Optional[Transport] = None
            for i, a in enumerate(rep_ranks):
                for b in rep_ranks[i + 1 :]:
                    t = self.transport(a, b)
                    if (
                        worst is None
                        or t.bandwidth < worst.bandwidth
                        or (
                            t.bandwidth == worst.bandwidth
                            and t.loss_rate > worst.loss_rate
                        )
                    ):
                        worst = t
            assert worst is not None
            transport = worst
        self._group_cache[ranks] = (self.health.epoch, transport)
        return transport
