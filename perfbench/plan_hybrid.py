"""plan-hybrid: ``repro.api.plan`` on hybrid 4x8, parameter group 1.

One pass plans on an empty cache (enumerate, oracle prune, auto-tier
search, executed confirm with traced runs; journal and flight recorder on,
as ``repro plan --resume`` runs it), replans ``REPLAN_REPS`` times on the
same warm cache, and spawns ``CLI_SPAWNS`` cold-shell ``repro simulate``.  Passes
repeat until the run's time is spent.  The planning problem does not
depend on the seed.

A cold plan takes seconds, longer than the host keeps one speed, so it is
timed piecewise (``common.PiecewiseSpeed``): in pieces of about
``common.PIECE_S`` closed between the cells and collective operations it
simulates, and at the bounds of its two sweeps, every piece scaled by the
host's speed at its ends.  After the second pass, a pass that would end
after ``--seconds`` is not started.
"""

from __future__ import annotations

import contextlib
import json
from typing import Dict, Iterator, List, Tuple

import common
from common import PiecewiseSpeed, RunState, WallClock, clock, median

MODULES = "repro.api, repro.plan, repro.bench.paramgroups"
REPLAN_REPS = 10
#: cold-shell ``repro simulate`` spawns per pass
CLI_SPAWNS = 2
PAPER_CELL = (1, 4, "Hybrid")


def base_scenario():
    from repro.api import Scenario
    from repro.bench.paramgroups import PARAM_GROUPS

    return Scenario.from_group(
        "hybrid", 4, PARAM_GROUPS[1],
        framework="holmes-base", trace_enabled=False,
    )


def _plan(state: RunState, base, cache):
    import repro.api as api

    if state.smoke:
        return api.plan(base, budget=4, top_k=1, cache=cache, resume=True)
    return api.plan(base, cache=cache, resume=True)


def _report(result) -> bytes:
    from repro.plan import build_plan_report

    return common.document_bytes(build_plan_report(result))


@contextlib.contextmanager
def checkpoints(pieces, phases: Dict[str, float]) -> Iterator[None]:
    """Time the plan in pieces (``common.cell_checkpoints``), closing one
    at the bounds of each of its sweeps, and add each sweep's time to
    ``phases`` under ``search`` (the auto tier) or ``confirm`` (the
    executed tier)."""
    import repro.plan.search as plan_search

    sweep = plan_search.sweep

    def timed_sweep(*args, **kwargs):
        tier = kwargs.get("fidelity") or "executed"
        key = "confirm" if tier == "executed" else "search"
        start = pieces.checkpoint()
        try:
            return sweep(*args, **kwargs)
        finally:
            phases[key] = phases.get(key, 0.0) + pieces.checkpoint() - start

    plan_search.sweep = timed_sweep
    try:
        with common.cell_checkpoints(pieces):
            yield
    finally:
        plan_search.sweep = sweep


class PlanHybrid:
    def __init__(self, state: RunState, base) -> None:
        self.state = state
        self.base = base
        self.result = None

    def one_pass(self, replans: int = REPLAN_REPS, timed: bool = True
                 ) -> Tuple[List[bytes], Dict[str, float]]:
        """Plan cold, replan warm; returns the plan reports and the times
        of the cold plan, its search and confirm sweeps, and the median
        replan: host times at the reference speed when ``timed``, else
        wall times."""
        state = self.state
        cache = state.fresh_dir("plan")
        times: Dict[str, float] = {}
        pieces = PiecewiseSpeed() if timed else WallClock()
        with checkpoints(pieces, times):
            cold = _plan(state, self.base, cache)
        times["cold"] = pieces.checkpoint()
        state.check(not timed or pieces.pieces > 5,
                    "cold plan was not timed piece by piece")
        self.result = cold
        cold_report = _report(cold)
        state.check(cold.beats_presets, "plan does not beat the presets")
        state.check(cold.within_tolerance,
                    f"search-vs-confirm deviation {cold.max_deviation:.4f} "
                    f"above {cold.tolerance}")
        if state.tamper == "cache":
            common.tamper_cache_entry(cache, cold.best.digest)
        common.between_phases()
        reports = [cold_report]
        pieces, warm = PiecewiseSpeed() if timed else WallClock(), []
        for _ in range(replans):
            reports.append(_report(_plan(state, self.base, cache)))
            before = pieces.total
            warm.append(pieces.checkpoint() - before)
        times["warm"] = median(warm)
        for report in reports[1:]:
            state.check(report == cold_report, "warm plan report differs from cold")
        return reports[:2], times


def _prepare(state: RunState):
    def prepare(rep: int):
        """The base scenario, run once untimed in an empty cache: it is
        Table 3's group-1 hybrid 4-node cell, so it also gives the paper
        error."""
        import repro.api as api

        base = base_scenario()
        result, = api.sweep([base], jobs=1, cache=state.fresh_dir("warmup"))
        return base, result
    return prepare


def _paper_err(result) -> float:
    from repro.bench.paper_data import TABLE3

    paper = TABLE3[PAPER_CELL][0]
    return abs(result.tflops - paper) / paper


def run(state: RunState) -> Dict[str, float]:
    setup_s, (base, base_result) = common.measure_setup(state, MODULES, _prepare(state))
    plan = PlanHybrid(state, base)
    if state.trace:
        return _traced(state, plan)

    samples: Dict[str, List[float]] = {}
    start, passes, pass_s = clock(), 0, 0.0
    while passes < 2 or clock() - start + pass_s <= state.seconds:
        begun = clock()
        _, times = plan.one_pass()
        for key, value in times.items():
            samples.setdefault(key, []).append(value)
        samples.setdefault("cli", []).extend(
            common.cli_simulate_scaled(state, CLI_SPAWNS))
        common.between_phases()
        passes, pass_s = passes + 1, clock() - begun

    result = plan.result
    best_preset = max(r.tflops for r in result.baselines)
    med = {key: median(values) for key, values in samples.items()}
    cold_s = med["cold"]
    report = {
        "plan_s": cold_s,
        "replan_s": med["warm"],
        "plan_gain": result.best.tflops / best_preset,
        "best": result.best.describe(),
        "enumerated": result.enumerated,
        "searched": result.searched,
        "confirmed": result.confirmed,
        "samples": samples,
        "host_speed": common.CAL_REF_S / median(state.speed.samples),
    }
    print(f"plan-hybrid: {json.dumps(report, sort_keys=True)}")
    return {
        "setup_s": setup_s,
        "cli_simulate_s": med["cli"],
        "cold_s": cold_s,
        "warm_s": med["warm"],
        "heavy_s": med["confirm"],
        "fast_s": med["search"],
        "rate_per_s": (result.searched + result.confirmed) / cold_s,
        "paper_err": _paper_err(base_result),
    }


def _traced(state: RunState, plan: PlanHybrid) -> Dict[str, float]:
    from tracer import Tracer, layer_metrics

    start = clock()
    plain, _ = plan.one_pass(replans=1, timed=False)
    untraced_s = clock() - start
    tracer = Tracer().install()
    try:
        start = clock()
        traced, _ = plan.one_pass(replans=1, timed=False)
        traced_s = clock() - start
    finally:
        tracer.uninstall()
    state.check(plain == traced, "traced plan report differs from untraced one")
    tracer.dump(state.trace_path)
    layers = layer_metrics(tracer.summary())
    layers["cli.import_s"] = common.cli_import_s(state)
    layers["trace.overhead"] = traced_s / untraced_s - 1.0
    return layers
