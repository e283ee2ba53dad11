"""The invariant sanitizer: opt-in runtime checks for the event simulation.

:class:`ValidationHooks` is threaded (opt-in, default off) through
:class:`~repro.simcore.engine.SimEngine`,
:class:`~repro.simcore.resource.Resource`,
:class:`~repro.simcore.trace.TraceRecorder`,
:class:`~repro.network.fabric.Fabric` and
:class:`~repro.collectives.executor.CollectiveExecutor`.  As events execute
it checks the properties every valid run must satisfy:

- **causality** — virtual time never moves backwards, no span or collective
  member window ends before it starts, and every priced duration is finite
  and non-negative (a corrupted cost model surfaces here, at the event that
  consumed the bad price).
- **resource safety** — a :class:`Resource` never holds more simultaneous
  grants than its capacity; in particular capacity-1 resources (NIC transmit
  serialization) never hold overlapping exclusive grants.
- **byte conservation** — the bytes entering a collective equal the bytes
  its per-step program pushes through the send path, telescoped against the
  closed forms in :mod:`repro.validate.invariants` (the same arithmetic
  ``collective_step_occupancy`` prices one step of), per member and per
  group.
- **trace well-formedness** (:meth:`finalize`) — spans carry valid ranks,
  sit inside the run window, compute spans on a rank never overlap, and
  every NIC-transmit span nests inside its rank's matching send span.

Violations raise :class:`~repro.errors.InvariantViolation` with the
offending event context.  Check and violation counts are tallied per
invariant and can be published into a
:class:`~repro.obs.registry.MetricsRegistry` via :meth:`publish`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Sequence, Set, Tuple

from repro.errors import InvariantViolation
from repro.validate.invariants import (
    expected_group_step_bytes,
    expected_member_step_bytes,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.obs.registry import MetricsRegistry
    from repro.simcore.resource import Resource
    from repro.simcore.trace import Span, TraceRecorder

#: Absolute slack for virtual-time comparisons (matches the engine's own
#: past-scheduling guard).
TIME_EPS = 1e-9

#: Relative tolerance for byte-conservation checks.  The executor splits
#: payloads with float division, so member totals telescope back to the
#: closed forms only up to accumulated rounding.
BYTE_RTOL = 1e-9


@dataclass
class _CollectiveAudit:
    """Open byte-conservation ledger for one collective tag."""

    op: str
    ring: Tuple[int, ...]
    nbytes: float
    node_ids: Tuple[int, ...]
    expected_group: float
    expected_member: Dict[int, float]
    sent: Dict[int, float] = field(default_factory=dict)
    started: Set[int] = field(default_factory=set)
    ended: Set[int] = field(default_factory=set)


@dataclass
class _ResourceAudit:
    """Live grant count for one :class:`Resource` instance, plus the
    exclusive intervals priced outside the event queue (ring passes
    owning a NIC edge) that no grant may overlap."""

    capacity: int
    active: int = 0
    grants: int = 0
    granted_at: float = 0.0
    claims: List[Tuple[float, float]] = field(default_factory=list)


class ValidationHooks:
    """Runtime invariant sanitizer for the discrete-event simulation.

    Create one per run and pass it to
    :class:`~repro.core.engine.TrainingSimulation` (``validation=``) or
    thread it manually through engine/fabric/trace.  All checks raise
    :class:`InvariantViolation` on the first violated property.
    """

    def __init__(self) -> None:
        self.checks: Dict[str, int] = {}
        self.violations: Dict[str, int] = {}
        self._collectives: Dict[str, _CollectiveAudit] = {}
        self._resources: Dict[int, _ResourceAudit] = {}
        self._last_now = 0.0
        self.finalized = False

    # ------------------------------------------------------------------ #
    # bookkeeping
    # ------------------------------------------------------------------ #

    def _check(self, invariant: str) -> None:
        self.checks[invariant] = self.checks.get(invariant, 0) + 1

    def _fail(self, invariant: str, message: str, **context: object) -> None:
        self.violations[invariant] = self.violations.get(invariant, 0) + 1
        raise InvariantViolation(invariant, message, **context)

    @property
    def total_checks(self) -> int:
        return sum(self.checks.values())

    @property
    def total_violations(self) -> int:
        return sum(self.violations.values())

    # ------------------------------------------------------------------ #
    # engine: causality
    # ------------------------------------------------------------------ #

    def on_engine_step(self, when: float, now: float) -> None:
        """Called by the engine run loop before dispatching each event."""
        self._check("causality.time_monotonic")
        if when < now - TIME_EPS:
            self._fail(
                "causality.time_monotonic",
                "event dispatched before current virtual time",
                when=when,
                now=now,
            )
        self._last_now = when

    def check_duration(self, seconds: float, what: str, **context: object) -> float:
        """Audit a priced duration (fabric cost-model output).

        Returns ``seconds`` unchanged so call sites can wrap expressions.
        """
        self._check("causality.duration_sane")
        if not math.isfinite(seconds) or seconds < 0.0:
            self._fail(
                "causality.duration_sane",
                f"cost model produced a non-finite or negative {what} duration",
                what=what,
                seconds=seconds,
                **context,
            )
        return seconds

    # ------------------------------------------------------------------ #
    # resources: capacity / exclusive grants
    # ------------------------------------------------------------------ #

    def _resource_audit(self, resource: "Resource") -> _ResourceAudit:
        audit = self._resources.get(id(resource))
        if audit is None:
            audit = _ResourceAudit(capacity=resource.capacity)
            self._resources[id(resource)] = audit
        return audit

    def on_resource_grant(self, resource: "Resource", now: float) -> None:
        """Called whenever a :class:`Resource` slot is granted (immediately
        or by handoff from a release)."""
        self._check("resource.capacity")
        audit = self._resource_audit(resource)
        audit.active += 1
        audit.grants += 1
        audit.granted_at = now
        if audit.claims:
            self._check_claims(resource, audit, now, now, "a grant")
        if audit.active > audit.capacity:
            kind = "overlapping exclusive grants" if audit.capacity == 1 else (
                "more grants than capacity"
            )
            self._fail(
                "resource.capacity",
                f"resource holds {kind}",
                name=resource.name,
                capacity=audit.capacity,
                active=audit.active,
                now=now,
            )

    def on_resource_release(self, resource: "Resource", now: float) -> None:
        """Called on every :meth:`Resource.release`."""
        self._check("resource.release_balanced")
        audit = self._resource_audit(resource)
        if audit.claims and audit.active == 1:
            self._check_claims(resource, audit, audit.granted_at, now, "a grant")
        audit.active -= 1
        if audit.active < 0:
            self._fail(
                "resource.release_balanced",
                "resource released more times than it was granted",
                name=resource.name,
                capacity=audit.capacity,
                now=now,
            )

    def on_resource_claim(
        self, resource: "Resource", start: float, end: float
    ) -> None:
        """A capacity-1 resource is held exclusively over ``[start, end)``
        without a grant: a ring pass priced a step of a NIC edge it owns.
        The interval may overlap no other claim and no real grant (one
        held now, or one granted later: see :meth:`on_resource_release`)."""
        self._check("resource.capacity")
        audit = self._resource_audit(resource)
        if audit.active and start <= self._last_now + TIME_EPS:
            self._claim_overlap(resource, audit, (start, end), "a held grant")
        # claims over before anything still to be checked are done with
        horizon = (audit.granted_at if audit.active else self._last_now) - TIME_EPS
        audit.claims = [c for c in audit.claims if c[1] > horizon]
        self._check_claims(resource, audit, start, end, "another owned interval")
        audit.claims.append((start, end))

    def _check_claims(
        self,
        resource: "Resource",
        audit: _ResourceAudit,
        start: float,
        end: float,
        what: str,
    ) -> None:
        """Fail when the interval ``[start, end)`` — an instant when
        ``end == start`` — overlaps a recorded claim."""
        for claim in audit.claims:
            if start < claim[1] - TIME_EPS and (
                claim[0] < end - TIME_EPS
                if end > start
                else claim[0] <= start + TIME_EPS
            ):
                self._claim_overlap(resource, audit, claim, what)

    def _claim_overlap(
        self, resource: "Resource", audit: _ResourceAudit, claim: tuple, what: str
    ) -> None:
        self._fail(
            "resource.capacity",
            f"resource holds overlapping exclusive grants: an owned interval "
            f"overlaps {what}",
            name=resource.name,
            capacity=audit.capacity,
            claim=claim,
            now=self._last_now,
        )

    # ------------------------------------------------------------------ #
    # collectives: byte conservation
    # ------------------------------------------------------------------ #

    def begin_collective(
        self,
        tag: str,
        op: str,
        rank: int,
        ring: Sequence[int],
        nbytes: float,
        node_ids: Sequence[int],
    ) -> None:
        """A member entered ``run_op``.  First caller fixes the group shape;
        later members must agree (a tag reused with a different payload or
        rank set is itself a violation)."""
        audit = self._collectives.get(tag)
        if audit is None:
            ring_t = tuple(ring)
            nodes_t = tuple(node_ids)
            audit = _CollectiveAudit(
                op=op,
                ring=ring_t,
                nbytes=float(nbytes),
                node_ids=nodes_t,
                expected_group=expected_group_step_bytes(op, ring_t, nbytes, nodes_t),
                expected_member={
                    r: expected_member_step_bytes(op, ring_t, r, nbytes, nodes_t)
                    for r in ring_t
                },
            )
            self._collectives[tag] = audit
        self._check("collective.group_consistent")
        if (
            audit.op != op
            or audit.ring != tuple(ring)
            or audit.nbytes != float(nbytes)
        ):
            self._fail(
                "collective.group_consistent",
                "members of one collective disagree on op/ring/payload",
                tag=tag,
                rank=rank,
                op=op,
                expected_op=audit.op,
                nbytes=nbytes,
                expected_nbytes=audit.nbytes,
            )
        if rank not in audit.expected_member:
            self._fail(
                "collective.group_consistent",
                "rank entered a collective it is not a member of",
                tag=tag,
                rank=rank,
                ring=audit.ring,
            )
        audit.started.add(rank)
        audit.sent.setdefault(rank, 0.0)

    def on_collective_step(self, tag: str, rank: int, nbytes: float) -> None:
        """A member sent one step payload of ``nbytes`` under ``tag``."""
        self._check("collective.step_bytes_sane")
        if not math.isfinite(nbytes) or nbytes < 0.0:
            self._fail(
                "collective.step_bytes_sane",
                "collective step carries a non-finite or negative payload",
                tag=tag,
                rank=rank,
                nbytes=nbytes,
            )
        audit = self._collectives.get(tag)
        if audit is None or rank not in audit.started:
            self._fail(
                "collective.step_bytes_sane",
                "collective step outside any open member window",
                tag=tag,
                rank=rank,
                nbytes=nbytes,
            )
        assert audit is not None
        audit.sent[rank] = audit.sent.get(rank, 0.0) + float(nbytes)

    def end_collective_member(
        self, tag: str, rank: int, start: float, end: float
    ) -> None:
        """A member finished ``run_op``: settle its byte ledger, and the
        group ledger once every member has ended."""
        self._check("causality.window_ordered")
        if end < start - TIME_EPS:
            self._fail(
                "causality.window_ordered",
                "collective member window ends before it starts",
                tag=tag,
                rank=rank,
                start=start,
                end=end,
            )
        audit = self._collectives.get(tag)
        if audit is None or rank not in audit.started:
            self._fail(
                "collective.byte_conservation",
                "collective member ended without a matching begin",
                tag=tag,
                rank=rank,
            )
        assert audit is not None
        self._check("collective.byte_conservation")
        sent = audit.sent.get(rank, 0.0)
        expected = audit.expected_member[rank]
        if not math.isclose(sent, expected, rel_tol=BYTE_RTOL, abs_tol=1.0):
            self._fail(
                "collective.byte_conservation",
                "member sent bytes diverge from the collective closed form",
                tag=tag,
                op=audit.op,
                rank=rank,
                sent=sent,
                expected=expected,
                nbytes=audit.nbytes,
                group_size=len(audit.ring),
            )
        audit.ended.add(rank)
        if audit.ended == set(audit.ring):
            self._check("collective.byte_conservation")
            total = sum(audit.sent.values())
            if not math.isclose(
                total, audit.expected_group, rel_tol=BYTE_RTOL, abs_tol=1.0
            ):
                self._fail(
                    "collective.byte_conservation",
                    "group sent bytes diverge from the collective closed form",
                    tag=tag,
                    op=audit.op,
                    sent=total,
                    expected=audit.expected_group,
                    nbytes=audit.nbytes,
                    group_size=len(audit.ring),
                )
            del self._collectives[tag]

    # ------------------------------------------------------------------ #
    # trace spans
    # ------------------------------------------------------------------ #

    def on_span(self, span: "Span") -> None:
        """Called by :meth:`TraceRecorder.record` for every emitted span."""
        self._check("trace.span_wellformed")
        if (
            not math.isfinite(span.start)
            or not math.isfinite(span.end)
            or span.end < span.start - TIME_EPS
            or span.start < -TIME_EPS
        ):
            self._fail(
                "trace.span_wellformed",
                "span has a negative or inverted time window",
                rank=span.rank,
                kind=span.kind,
                label=span.label,
                start=span.start,
                end=span.end,
            )
        if span.bytes < 0:
            self._fail(
                "trace.span_wellformed",
                "span carries negative bytes",
                rank=span.rank,
                kind=span.kind,
                label=span.label,
                bytes=span.bytes,
            )

    # ------------------------------------------------------------------ #
    # end of run
    # ------------------------------------------------------------------ #

    def finalize(
        self,
        trace: "TraceRecorder",
        makespan: float,
        world_size: int,
    ) -> None:
        """Whole-trace checks once the run has ended: rank consistency, run
        window bounds, per-rank compute exclusivity, and NIC-in-send span
        nesting.  Synthetic rank ``-1`` spans (attribution summaries, fault
        markers) are exempt from per-rank checks."""
        self.finalized = True
        bound = makespan + TIME_EPS
        compute: Dict[int, List["Span"]] = {}
        sends: Dict[Tuple[int, str], List["Span"]] = {}
        nics: List["Span"] = []
        for span in trace.spans:
            self._check("trace.rank_consistent")
            if not (-1 <= span.rank < world_size):
                self._fail(
                    "trace.rank_consistent",
                    "span rank outside the simulated world",
                    rank=span.rank,
                    world_size=world_size,
                    kind=span.kind,
                    label=span.label,
                )
            if span.rank < 0:
                continue
            self._check("trace.span_in_run_window")
            if span.start < -TIME_EPS or span.end > bound:
                self._fail(
                    "trace.span_in_run_window",
                    "span extends outside the run window",
                    rank=span.rank,
                    kind=span.kind,
                    label=span.label,
                    start=span.start,
                    end=span.end,
                    makespan=makespan,
                )
            if span.kind == "compute":
                compute.setdefault(span.rank, []).append(span)
            elif span.kind == "p2p" and span.label.startswith("send:"):
                key = (span.rank, span.label.split(":", 1)[1])
                sends.setdefault(key, []).append(span)
            elif span.kind == "nic" and span.label.startswith("nic-tx:"):
                nics.append(span)

        for rank, spans in compute.items():
            spans.sort(key=lambda s: (s.start, s.end))
            for prev, cur in zip(spans, spans[1:]):
                self._check("trace.compute_exclusive")
                if cur.start < prev.end - TIME_EPS:
                    self._fail(
                        "trace.compute_exclusive",
                        "compute spans overlap on one rank",
                        rank=rank,
                        first=prev.label,
                        second=cur.label,
                        first_end=prev.end,
                        second_start=cur.start,
                    )

        for span in nics:
            self._check("trace.nic_nested_in_send")
            key = (span.rank, span.label.split(":", 1)[1])
            parents = sends.get(key, ())
            if not any(
                p.start - TIME_EPS <= span.start and span.end <= p.end + TIME_EPS
                for p in parents
            ):
                self._fail(
                    "trace.nic_nested_in_send",
                    "NIC transmit span not nested in its send span",
                    rank=span.rank,
                    label=span.label,
                    start=span.start,
                    end=span.end,
                )

    def publish(self, registry: "MetricsRegistry") -> None:
        """Publish check/violation tallies into the metrics registry."""
        checks = registry.counter(
            "validation_checks_total", "invariant checks performed by the sanitizer"
        )
        for invariant, count in sorted(self.checks.items()):
            checks.inc(count, invariant=invariant)
        violations = registry.counter(
            "validation_violations_total", "invariant violations detected"
        )
        for invariant, count in sorted(self.violations.items()):
            violations.inc(count, invariant=invariant)

    def summary(self) -> Dict[str, object]:
        """JSON-friendly tally of checks and violations."""
        return {
            "checks": self.total_checks,
            "violations": self.total_violations,
            "checks_by_invariant": dict(sorted(self.checks.items())),
            "violations_by_invariant": dict(sorted(self.violations.items())),
        }
