"""Two-phase layout search: oracle prune -> simulated search -> confirm.

Phase 0 (*oracle*): score every enumerated candidate with the closed-form
oracle, drop layouts that do not fit GPU memory, keep the ``budget`` best.

Phase 1 (*search*): simulate the survivors at the search fidelity tier
(``auto`` by default — PR 8's analytic fast path makes this the cheap leg)
through :func:`repro.api.sweep`, so the phase rides the worker pool, the
content-addressed result cache, and the journal/flight-recorder stack.

Phase 2 (*confirm*): re-run the ``top_k`` survivors plus every
:data:`repro.frameworks.FRAMEWORKS` preset baseline (the base's own layout
under each framework) that the oracle says fits GPU memory at the confirm
tier (``executed``), traced so the
report carries bubble/comm fractions.  The per-candidate deviation between
the search-tier and confirm-tier estimates is the planner's fidelity gate;
its declared tolerance is :data:`PLAN_FIDELITY_RTOL` (the same 2% bound
the metamorphic ``fidelity_conformance`` relation holds the ``auto`` tier
to on fault-free scenarios).

Because the preset baselines are themselves confirmed candidates, the
discovered best layout matches or beats every framework preset that fits
*by construction* — the paper-style "Holmes finds the best partition" claim is
a structural property of the search, checked by the guardrail tests.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.api import FRAMEWORK_PRESETS, RunResult, Scenario, sweep
from repro.errors import ConfigurationError, ParallelismError, SchedulingError
from repro.plan.candidates import enumerate_candidates, preset_scenarios
from repro.plan.oracle import OracleEstimate, oracle_estimate

#: Declared tolerance for the search-tier vs confirm-tier deviation —
#: inherited from the metamorphic harness's fidelity conformance bound.
from repro.validate.metamorphic import FIDELITY_RTOL as PLAN_FIDELITY_RTOL

#: Near-tie tolerance for top-1 ranking agreement between the phases: two
#: layouts within one fidelity band of each other on either side count as
#: the same winner.
PLAN_RANK_RTOL = 2 * PLAN_FIDELITY_RTOL


@dataclass(frozen=True)
class RankedLayout:
    """One confirmed candidate in the final ranking (pure data)."""

    label: str
    digest: str  #: confirm-phase scenario digest
    tensor: int
    pipeline: int
    data: int
    micro_batch_size: int
    num_microbatches: int
    schedule: str
    num_chunks: int
    framework: str
    placement: str
    partition: str
    optimizer: str
    #: closed-form oracle score (0.0 for preset baselines injected past
    #: the oracle phase without a feasible closed form — never in practice)
    oracle_tflops: float
    #: search-phase (e.g. ``auto`` tier) TFLOPS; None for baselines that
    #: entered directly at the confirm phase
    search_tflops: Optional[float]
    tflops: float
    iteration_time: float
    throughput: float
    bubble_fraction: float
    comm_fraction: float
    #: |search - confirmed| / confirmed; None without a search-phase run
    deviation: Optional[float]
    memory_utilization: float
    straddling_stages: int
    #: True for the framework-preset baselines (base layout, preset policy)
    preset: bool

    def describe(self) -> str:
        tag = "preset " if self.preset else ""
        return (
            f"{tag}(t={self.tensor}, p={self.pipeline}, d={self.data}) "
            f"{self.schedule} {self.framework:18s} "
            f"{self.tflops:6.1f} TFLOPS  {self.iteration_time:6.3f}s/iter"
        )

    def to_dict(self) -> Dict[str, object]:
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "RankedLayout":
        names = {f.name for f in dataclasses.fields(cls)}
        extra = sorted(set(data) - names)
        if extra:
            raise ValueError(
                f"RankedLayout.from_dict: unknown keys {extra} — a newer "
                f"plan document cannot be parsed as this version"
            )
        missing = sorted(names - set(data))
        if missing:
            raise ValueError(f"RankedLayout.from_dict: missing keys {missing}")
        return cls(**{name: data[name] for name in names})  # type: ignore[arg-type]


@dataclass(frozen=True)
class PlanResult:
    """Everything ``repro plan`` discovered, as pure data.

    ``ranking`` holds every confirmed candidate (searched survivors and
    preset baselines alike) sorted by confirmed TFLOPS descending; the
    discovered layout is ``ranking[0]``.  ``timings`` carries wall-clock
    phase durations for display only — it is deliberately excluded from
    the :mod:`repro.plan.report` document so warm re-plans emit
    byte-identical reports.
    """

    base: Scenario
    ranking: Tuple[RankedLayout, ...]
    enumerated: int
    feasible: int
    pruned_memory: int
    pruned_infeasible: int
    searched: int
    confirmed: int
    budget: int
    top_k: int
    search_fidelity: str
    confirm_fidelity: str
    tolerance: float
    timings: Dict[str, float] = dataclasses.field(default_factory=dict)

    @property
    def best(self) -> RankedLayout:
        return self.ranking[0]

    @property
    def baselines(self) -> Tuple[RankedLayout, ...]:
        return tuple(r for r in self.ranking if r.preset)

    @property
    def discovered(self) -> Tuple[RankedLayout, ...]:
        return tuple(r for r in self.ranking if not r.preset)

    @property
    def max_deviation(self) -> float:
        """Worst search-vs-confirm deviation across dual-phase candidates."""
        deviations = [r.deviation for r in self.ranking if r.deviation is not None]
        return max(deviations) if deviations else 0.0

    @property
    def within_tolerance(self) -> bool:
        return self.max_deviation <= self.tolerance

    @property
    def beats_presets(self) -> bool:
        """Discovered best >= every framework preset (up to float noise)."""
        if not self.baselines:
            return True
        best_preset = max(r.tflops for r in self.baselines)
        return self.best.tflops >= best_preset * (1.0 - 1e-12)

    def preset_deltas(self) -> List[Dict[str, object]]:
        """The discovered-vs-framework-preset table (one row per preset)."""
        rows = []
        for baseline in sorted(self.baselines, key=lambda r: -r.tflops):
            delta = (
                (self.best.tflops - baseline.tflops) / baseline.tflops
                if baseline.tflops > 0
                else 0.0
            )
            rows.append(
                {
                    "framework": baseline.framework,
                    "preset_tflops": baseline.tflops,
                    "discovered_tflops": self.best.tflops,
                    "delta_fraction": delta,
                }
            )
        return rows

    def to_document(self) -> Dict[str, object]:
        """The ``repro.api.result/v1`` wire document for a plan.

        Unlike the display-oriented ``repro.plan.report/v1`` document,
        this round-trips *exactly* — ``timings`` included — so a served
        plan equals the in-process :class:`PlanResult` field for field.
        """
        from repro.api.schema import build_result

        counts = (
            "enumerated", "feasible", "pruned_memory", "pruned_infeasible",
            "searched", "confirmed", "budget", "top_k",
        )
        payload: Dict[str, object] = {
            "base": self.base.canonical(),
            "ranking": [layout.to_dict() for layout in self.ranking],
            "search_fidelity": self.search_fidelity,
            "confirm_fidelity": self.confirm_fidelity,
            "tolerance": self.tolerance,
            "timings": dict(self.timings),
        }
        payload.update({name: getattr(self, name) for name in counts})
        return build_result("plan", payload)

    @classmethod
    def from_document(cls, doc: Dict[str, object]) -> "PlanResult":
        """Exact inverse of :meth:`to_document` (strict: unknown keys in
        the envelope, the payload, or any ranked layout raise)."""
        from repro.api.schema import SchemaError, check_keys, validate_result

        payload = validate_result(doc, kind="plan")
        counts = (
            "enumerated", "feasible", "pruned_memory", "pruned_infeasible",
            "searched", "confirmed", "budget", "top_k",
        )
        check_keys(
            payload,  # type: ignore[arg-type]
            required=("base", "ranking", "search_fidelity", "confirm_fidelity",
                      "tolerance", "timings") + counts,
            where="plan result payload",
        )
        try:
            base = Scenario.from_canonical(payload["base"])  # type: ignore[index, arg-type]
            ranking = tuple(
                RankedLayout.from_dict(entry)
                for entry in payload["ranking"]  # type: ignore[index, union-attr]
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"plan result payload: {exc}") from exc
        return cls(
            base=base,
            ranking=ranking,
            search_fidelity=str(payload["search_fidelity"]),  # type: ignore[index]
            confirm_fidelity=str(payload["confirm_fidelity"]),  # type: ignore[index]
            tolerance=float(payload["tolerance"]),  # type: ignore[index, arg-type]
            timings={
                str(k): float(v)  # type: ignore[arg-type]
                for k, v in payload["timings"].items()  # type: ignore[index, union-attr]
            },
            **{name: int(payload[name]) for name in counts},  # type: ignore[index, arg-type]
        )


def _ranked_from(
    scenario: Scenario,
    result: RunResult,
    oracle: Optional[OracleEstimate],
    search: Optional[RunResult],
    preset: bool,
) -> RankedLayout:
    spec = FRAMEWORK_PRESETS[scenario.framework]
    deviation = None
    if search is not None and result.tflops > 0:
        deviation = abs(search.tflops - result.tflops) / result.tflops
    return RankedLayout(
        label=scenario.label,
        digest=result.scenario_digest,
        tensor=scenario.tensor,
        pipeline=scenario.pipeline,
        data=scenario.data,
        micro_batch_size=scenario.micro_batch_size,
        num_microbatches=scenario.num_microbatches,
        schedule=scenario.schedule,
        num_chunks=scenario.num_chunks,
        framework=scenario.framework,
        placement=spec.placement_strategy,
        partition=spec.partition_strategy,
        optimizer=spec.optimizer.name,
        oracle_tflops=oracle.tflops if oracle is not None else 0.0,
        search_tflops=search.tflops if search is not None else None,
        tflops=result.tflops,
        iteration_time=result.iteration_time,
        throughput=result.throughput,
        bubble_fraction=result.bubble_fraction,
        comm_fraction=result.comm_fraction,
        deviation=deviation,
        memory_utilization=(
            oracle.memory_utilization if oracle is not None else 0.0
        ),
        straddling_stages=(
            oracle.straddling_stages if oracle is not None else 0
        ),
        preset=preset,
    )


def plan_scenario(
    base: Scenario,
    *,
    budget: int = 32,
    top_k: int = 4,
    search_fidelity: str = "auto",
    confirm_fidelity: str = "executed",
    jobs: int = 1,
    cache: Union[object, str, None] = None,
    resume: bool = False,
    journal: Optional[object] = None,
    progress: bool = False,
    schedules: Optional[Sequence[str]] = None,
    frameworks: Optional[Sequence[str]] = None,
    max_tensor: Optional[int] = None,
    tolerance: float = PLAN_FIDELITY_RTOL,
) -> PlanResult:
    """Search the strategy space around ``base`` and return the ranking.

    ``base`` supplies the machine, model, workload, and perturbations; its
    own layout is what the preset baselines run.  ``budget`` caps the
    simulated search phase; ``top_k`` caps the executed confirm phase.
    All executor knobs (``jobs``, ``cache``, ``resume``, ``journal``,
    ``progress``) pass straight through to :func:`repro.api.sweep` for
    both phases, so a cached re-plan over the same space is near-free.
    """
    if budget < 1:
        raise ConfigurationError(f"budget must be >= 1: {budget}")
    if top_k < 1:
        raise ConfigurationError(f"top_k must be >= 1: {top_k}")

    timings: Dict[str, float] = {}

    # ---- phase 0: enumerate + closed-form oracle prune -----------------
    t0 = time.monotonic()
    candidates = enumerate_candidates(
        base, schedules=schedules, frameworks=frameworks, max_tensor=max_tensor
    )
    enumerated = len(candidates)
    scored: List[Tuple[Scenario, OracleEstimate]] = []
    pruned_memory = 0
    pruned_infeasible = 0
    for candidate in candidates:
        try:
            estimate = oracle_estimate(candidate)
        except (ConfigurationError, ParallelismError, SchedulingError):
            pruned_infeasible += 1
            continue
        if not estimate.fits_memory:
            pruned_memory += 1
            continue
        scored.append((candidate, estimate))
    feasible = len(scored)
    # Deterministic rank: oracle TFLOPS descending, label as tiebreak.
    scored.sort(key=lambda pair: (-pair[1].tflops, pair[0].label))
    survivors = scored[:budget]
    timings["oracle_seconds"] = time.monotonic() - t0

    if not survivors:
        raise ConfigurationError(
            f"no feasible candidate layout for {base.describe()} "
            f"({enumerated} enumerated, {pruned_memory} over memory)"
        )

    sweep_kwargs = dict(
        jobs=jobs, cache=cache, resume=resume, journal=journal,
        progress=progress,
    )

    # ---- phase 1: simulated search at the cheap tier -------------------
    t0 = time.monotonic()
    search_scenarios = [s for s, _ in survivors]
    search_results = sweep(
        search_scenarios, fidelity=search_fidelity, **sweep_kwargs
    )
    timings["search_seconds"] = time.monotonic() - t0
    by_label_oracle = {s.label: est for s, est in survivors}
    ranked_search = sorted(
        zip(search_scenarios, search_results),
        key=lambda pair: (-pair[1].tflops, pair[0].label),
    )
    finalists = ranked_search[: top_k]

    # ---- phase 2: executed confirm (finalists + preset baselines) ------
    t0 = time.monotonic()
    confirm_scenarios: List[Scenario] = []
    search_by_label: Dict[str, RunResult] = {}
    seen = set()
    for scenario, result in finalists:
        confirmed = dataclasses.replace(
            scenario, trace_enabled=True, fidelity=confirm_fidelity
        )
        if confirmed.digest() in seen:
            continue
        seen.add(confirmed.digest())
        confirm_scenarios.append(confirmed)
        search_by_label[confirmed.label] = result
    preset_oracle: Dict[str, Optional[OracleEstimate]] = {}
    for baseline in preset_scenarios(base):
        baseline = dataclasses.replace(baseline, fidelity=confirm_fidelity)
        if baseline.digest() in seen:
            continue
        try:
            estimate: Optional[OracleEstimate] = oracle_estimate(
                dataclasses.replace(baseline, trace_enabled=False)
            )
        except (ConfigurationError, ParallelismError, SchedulingError):
            estimate = None
        if estimate is not None and not estimate.fits_memory:
            # a preset that would not fit is no baseline to beat
            continue
        seen.add(baseline.digest())
        preset_oracle[baseline.label] = estimate
        confirm_scenarios.append(baseline)
    confirm_results = sweep(
        confirm_scenarios, fidelity=confirm_fidelity, **sweep_kwargs
    )
    timings["confirm_seconds"] = time.monotonic() - t0

    ranking: List[RankedLayout] = []
    for scenario, result in zip(confirm_scenarios, confirm_results):
        preset = scenario.label in preset_oracle
        oracle = (
            preset_oracle[scenario.label]
            if preset
            else by_label_oracle[scenario.label]
        )
        ranking.append(
            _ranked_from(
                scenario,
                result,
                oracle,
                search_by_label.get(scenario.label),
                preset,
            )
        )
    ranking.sort(key=lambda r: (-r.tflops, r.label))

    return PlanResult(
        base=base,
        ranking=tuple(ranking),
        enumerated=enumerated,
        feasible=feasible,
        pruned_memory=pruned_memory,
        pruned_infeasible=pruned_infeasible,
        searched=len(search_scenarios),
        confirmed=len(confirm_scenarios),
        budget=budget,
        top_k=top_k,
        search_fidelity=search_fidelity,
        confirm_fidelity=confirm_fidelity,
        tolerance=tolerance,
        timings=timings,
    )
