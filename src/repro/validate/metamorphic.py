"""Metamorphic relations over simulated training runs.

A metamorphic relation states how a *transformed* run must relate to its
base run — no oracle for the absolute answer required.  Each relation here
encodes a paper-level physical property the simulator must respect:

``bandwidth_monotonic``
    Doubling every link bandwidth never increases iteration time (Holmes'
    premise that the slow network is the bottleneck would be meaningless in
    a simulator where faster links could hurt).
``straggler_monotonic``
    Slowing one GPU down never shrinks the makespan — synchronous training
    makes one straggler everyone's problem (paper §5 fault study).
``workload_monotonic``
    More microbatches at fixed parallelism never finish earlier.
``allreduce_slowest_link_bound``
    An executed ring all-reduce can never beat the analytic wire-time of
    its slowest link: ``2 (d-1)/d · n / bw`` (Table 1's slowest-NIC
    dominance, telescoped from ``collective_step_occupancy``).
``rank_relabel_invariant``
    Shifting every collective member to the next GPU of its node — a rank
    relabeling under the machine's symmetry — leaves the executed makespan
    exactly unchanged.
``seed_replay``
    Rerunning a scenario (fault plan included) under the same seed is
    byte-identical; the first divergent span is reported otherwise.
``fidelity_conformance``
    Running the scenario at ``fidelity="auto"`` matches the executed tier's
    iteration time within :data:`FIDELITY_RTOL` on contention-free
    scenarios (:data:`FIDELITY_FAULTED_RTOL` on faulted ones, where every
    span falls back to executed anyway), and the ``auto`` tier replays
    byte-identically under its own seed.

Each relation is a pure function ``Scenario -> RelationResult``: it derives
each variant with :func:`dataclasses.replace`, runs it armed with the
invariant sanitizer (``validate=True``) through :func:`repro.api.simulate`,
and compares.  The registry can be driven both by pytest parametrization
(``tests/validate/test_metamorphic.py``) and by the ``repro validate`` CLI
(:func:`run_validation`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence

from repro.collectives.executor import CollectiveExecutor
from repro.collectives.p2p import ChannelRegistry
from repro.errors import InvariantViolation, ReproError
from repro.network.fabric import Fabric
from repro.simcore.engine import SimEngine
from repro.validate.replay import diff_runs
from repro.validate.scenarios import sample_scenarios

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.api import Scenario
    from repro.core.engine import IterationResult

#: Relative slack for monotonicity comparisons.  The DES is not analytically
#: monotone — changing one duration can reorder FIFO grants — but observed
#: inversions are bounded by scheduling noise, far below this.
MONO_RTOL = 1e-9
#: Slack for relations whose transform perturbs *event ordering* (a per-rank
#: straggler reshuffles every NIC FIFO behind it).  Contention systems admit
#: Graham-type scheduling anomalies — slowing one job can genuinely shorten
#: the makespan by reordering queue grants — observed in sweeps at ~0.5%;
#: the relation therefore asserts monotonicity up to this reordering noise,
#: with a transform strong enough (3x slowdown) that the direct effect
#: dominates it.
CONTENTION_RTOL = 0.01
#: Exact-equality slack for the relabeling invariance (pure float identity).
EXACT_RTOL = 1e-12
#: Declared tolerance of the tiered-fidelity engine on contention-free
#: scenarios: the ``auto`` tier's aggregate events are priced by the same
#: closed forms the executed oracle tests pin to <1%, so 2% bounds the
#: composition (measured worst case across the sampler: ~0.2%).
FIDELITY_RTOL = 0.02
#: Looser documented bound for faulted scenarios.  ``auto`` classifies
#: every span of a faulted run as executed, so in practice the two tiers
#: agree exactly; the slack only covers future partial-window fallbacks.
FIDELITY_FAULTED_RTOL = 0.05


@dataclass(frozen=True)
class RelationResult:
    """Outcome of one relation on one scenario."""

    relation: str
    scenario: str
    passed: bool
    details: Dict[str, object] = field(default_factory=dict)
    error: Optional[str] = None


@dataclass(frozen=True)
class Relation:
    """A named metamorphic relation with its checking function."""

    name: str
    description: str
    check: Callable[[Scenario], RelationResult]


def _result(
    name: str, spec: Scenario, passed: bool, **details: object
) -> RelationResult:
    return RelationResult(
        relation=name, scenario=spec.describe(), passed=passed, details=dict(details)
    )


# --------------------------------------------------------------------- #
# full-simulation relations
# --------------------------------------------------------------------- #


def _run(spec: Scenario, **changes: object) -> IterationResult:
    """Simulate ``spec`` (with ``changes`` applied), sanitizer armed."""
    from repro.api import simulate

    return simulate(replace(spec, validate=True, **changes))


def _check_bandwidth(spec: Scenario) -> RelationResult:
    base = _run(spec, fault_seed=None)
    fast = _run(spec, fault_seed=None, bandwidth_scale=2.0)
    t0 = base.metrics.iteration_time
    t1 = fast.metrics.iteration_time
    return _result(
        "bandwidth_monotonic", spec, t1 <= t0 * (1.0 + MONO_RTOL),
        base_time=t0, doubled_time=t1,
    )


def _check_straggler(spec: Scenario) -> RelationResult:
    base = _run(spec, fault_seed=None)
    slow = _run(spec, fault_seed=None, stragglers={0: 3.0})
    t0 = base.makespan
    t1 = slow.makespan
    return _result(
        "straggler_monotonic", spec, t1 >= t0 * (1.0 - CONTENTION_RTOL),
        base_makespan=t0, straggler_makespan=t1,
    )


def _check_workload(spec: Scenario) -> RelationResult:
    base = _run(spec, fault_seed=None)
    more = _run(
        spec, fault_seed=None,
        num_microbatches=spec.num_microbatches * 2, global_batch_size=0,
    )
    t0 = base.metrics.iteration_time
    t1 = more.metrics.iteration_time
    return _result(
        "workload_monotonic", spec, t1 >= t0 * (1.0 - MONO_RTOL),
        base_time=t0, doubled_workload_time=t1,
    )


def _check_seed_replay(spec: Scenario) -> RelationResult:
    report = diff_runs(lambda: _run(spec))
    details: Dict[str, object] = {
        "trace_digest": report.first.trace[:16],
        "num_spans": report.first.num_spans,
        "faulted": spec.fault_seed is not None,
    }
    if not report.identical:
        details["divergence"] = report.describe()
    return _result("seed_replay", spec, report.identical, **details)


def _check_fidelity(spec: Scenario) -> RelationResult:
    executed = _run(spec)
    auto = _run(spec, fidelity="auto")
    t0 = executed.metrics.iteration_time
    t1 = auto.metrics.iteration_time
    faulted = spec.fault_seed is not None
    tol = FIDELITY_FAULTED_RTOL if faulted else FIDELITY_RTOL
    rel = abs(t1 - t0) / t0 if t0 > 0.0 else 0.0
    replay = diff_runs(lambda: _run(spec, fidelity="auto"))
    details: Dict[str, object] = {
        "executed_time": t0,
        "auto_time": t1,
        "rel_error": rel,
        "tolerance": tol,
        "faulted": faulted,
        "replay_identical": replay.identical,
    }
    if not replay.identical:
        details["divergence"] = replay.describe()
    return _result(
        "fidelity_conformance", spec, rel <= tol and replay.identical, **details
    )


# --------------------------------------------------------------------- #
# executor-level relations
# --------------------------------------------------------------------- #


def _executed_allreduce(
    spec: Scenario, ranks: Sequence[int], nbytes: float
) -> tuple:
    """Run a standalone executed ring all-reduce over ``ranks`` on the
    spec's topology; returns (makespan, slowest-edge transport)."""
    topo = spec.topology()
    engine = SimEngine(hooks=None)
    fabric = Fabric(topo, engine=engine)
    channels = ChannelRegistry(engine)
    executor = CollectiveExecutor(fabric, channels)
    for rank in ranks:
        engine.process(
            executor.run_op("allreduce", ranks, rank, nbytes, tag="mr"),
            name=f"ar{rank}",
        )
    makespan = engine.run()
    return makespan, fabric.group_transport(ranks)


def _one_rank_per_node(spec: Scenario, offset: int = 0) -> List[int]:
    return [n * spec.gpus_per_node + offset for n in range(spec.nodes)]


def _check_slowest_link_bound(spec: Scenario) -> RelationResult:
    nbytes = 8 * 1024 * 1024
    ranks = _one_rank_per_node(spec)
    d = len(ranks)
    makespan, edge = _executed_allreduce(spec, ranks, nbytes)
    bound = 2.0 * (d - 1) * nbytes / (d * edge.bandwidth)
    return _result(
        "allreduce_slowest_link_bound", spec, makespan >= bound * (1.0 - MONO_RTOL),
        makespan=makespan, bound=bound, slowest_bandwidth=edge.bandwidth,
    )


def _check_rank_relabel(spec: Scenario) -> RelationResult:
    nbytes = 8 * 1024 * 1024
    base, _ = _executed_allreduce(spec, _one_rank_per_node(spec, 0), nbytes)
    shifted, _ = _executed_allreduce(spec, _one_rank_per_node(spec, 1), nbytes)
    equal = abs(base - shifted) <= EXACT_RTOL * max(abs(base), abs(shifted))
    return _result(
        "rank_relabel_invariant", spec, equal,
        base_makespan=base, relabeled_makespan=shifted,
    )


# --------------------------------------------------------------------- #
# registry / runner
# --------------------------------------------------------------------- #

RELATIONS: Dict[str, Relation] = {
    r.name: r
    for r in (
        Relation(
            "bandwidth_monotonic",
            "doubling every link bandwidth never increases iteration time",
            _check_bandwidth,
        ),
        Relation(
            "straggler_monotonic",
            "slowing one GPU down never decreases the makespan",
            _check_straggler,
        ),
        Relation(
            "workload_monotonic",
            "doubling the microbatch count never decreases iteration time",
            _check_workload,
        ),
        Relation(
            "allreduce_slowest_link_bound",
            "executed ring all-reduce is bounded below by its slowest link's "
            "wire time 2(d-1)/d * n / bw",
            _check_slowest_link_bound,
        ),
        Relation(
            "rank_relabel_invariant",
            "relabeling collective members under node symmetry leaves the "
            "executed makespan unchanged",
            _check_rank_relabel,
        ),
        Relation(
            "seed_replay",
            "rerunning a scenario under the same seed (faults included) is "
            "byte-identical",
            _check_seed_replay,
        ),
        Relation(
            "fidelity_conformance",
            "fidelity='auto' matches the executed tier's iteration time "
            "within the declared tolerance and replays byte-identically",
            _check_fidelity,
        ),
    )
}


def check_relation(name: str, spec: Scenario) -> RelationResult:
    """Run one relation on one scenario, folding library errors (including
    sanitizer :class:`InvariantViolation`) into a failed result."""
    relation = RELATIONS[name]
    try:
        return relation.check(spec)
    except InvariantViolation as exc:
        return RelationResult(
            relation=name,
            scenario=spec.describe(),
            passed=False,
            details={"invariant": exc.invariant, "context": exc.context},
            error=str(exc),
        )
    except ReproError as exc:
        return RelationResult(
            relation=name, scenario=spec.describe(), passed=False, error=str(exc)
        )


def _check_pair(pair: tuple) -> RelationResult:
    """Picklable worker body for the parallel sweep."""
    name, spec = pair
    return check_relation(name, spec)


def run_validation(
    num_scenarios: int,
    seed: int = 0,
    relations: Optional[Sequence[str]] = None,
    jobs: int = 1,
    timeout: Optional[float] = None,
    progress: bool = False,
    fidelity: Optional[str] = None,
) -> List[RelationResult]:
    """Check every selected relation against ``num_scenarios`` seeded random
    scenarios; returns one result per (relation, scenario) pair.

    ``jobs > 1`` fans the (relation, scenario) checks out over the
    resilient executor (:func:`repro.exec.pmap`): scenarios are seeded data
    and each check builds its own simulations, so the result list is
    identical — order included — for any worker count, and a worker killed
    mid-check (OOM, nightly-CI eviction) is retried instead of aborting
    the whole sweep.  ``timeout`` additionally bounds each check's wall
    clock so one wedged check cannot stall a nightly run.  ``progress``
    renders a live completed/failed/ETA line on stderr (routing the sweep
    through the executor even at ``jobs=1``; results are unchanged).
    ``fidelity`` forces every sampled scenario to that tier before the
    relations run (``repro validate --fidelity``).
    """
    names = list(relations) if relations else sorted(RELATIONS)
    unknown = [n for n in names if n not in RELATIONS]
    if unknown:
        raise KeyError(f"unknown relations: {unknown}; have {sorted(RELATIONS)}")
    specs = sample_scenarios(num_scenarios, seed)
    if fidelity is not None:
        specs = [replace(spec, fidelity=fidelity) for spec in specs]
    pairs = [(name, spec) for spec in specs for name in names]
    if jobs == 1 and timeout is None and not progress:
        return [check_relation(name, spec) for name, spec in pairs]
    from repro.exec import pmap

    return pmap(  # type: ignore[return-value]
        _check_pair, pairs, jobs=jobs, timeout=timeout, retries=1,
        progress=progress,
    )
