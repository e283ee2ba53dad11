"""sim-grid: the in-process simulate path, serial, cold cache, untraced.

Units, run in a seeded cycle until the run's time is spent (each at least
once):

- ``t3:<g>``: Table 3's twelve cells of parameter group ``g`` swept through
  ``repro.api.sweep`` (``jobs=1``) into an empty cache, then re-swept from
  that warm cache ``WARM_REPS`` times;
- ``exec``: the weak-scaling curve on ``hybrid`` (group-1 model, t1 p2,
  mb 4, 8 micro-batches per replica) at the executed tier, 32-256 GPUs;
- ``auto``: the same curve at the auto tier, 32-1024 GPUs;
- ``cli``: ``CLI_SPAWNS`` cold-shell ``repro simulate`` spawns.

A unit is timed piecewise (``common.PiecewiseSpeed``), in pieces of about
``common.PIECE_S`` closed between cells, collective operations or warm
re-sweeps, each scaled by the host's speed at its ends.

The seed permutes the cell order and the unit cycle; the cells are the same
on every seed, so the simulated figures (``paper_err``) are too.
"""

from __future__ import annotations

import dataclasses
import json
import random
from typing import Dict, List, Tuple

import common
from common import PiecewiseSpeed, RunState, WallClock, clock, median

MODULES = "repro.api, repro.bench.runner, repro.bench.paper_data"

ENVS = ("InfiniBand", "RoCE", "Ethernet", "Hybrid")
GROUPS = (1, 2, 3, 4)
NODES = (4, 6, 8)
EXEC_WORLDS = (32, 64, 128, 256)
AUTO_WORLDS = (32, 64, 128, 256, 512, 1024)
WARM_REPS = 150
#: cold-shell ``repro simulate`` spawns per ``cli`` unit
CLI_SPAWNS = 2

SMOKE = {"groups": (1,), "nodes": (4,), "exec": (16, 32), "auto": (16, 32, 64)}


def scale_scenario(world: int, fidelity: str):
    from repro.api import Scenario
    from repro.bench.paramgroups import PARAM_GROUPS

    model = PARAM_GROUPS[1].model
    return Scenario(
        env="hybrid", nodes=world // 8,
        num_layers=model.num_layers, hidden_size=model.hidden_size,
        num_attention_heads=model.num_attention_heads,
        seq_length=model.seq_length, vocab_size=model.vocab_size,
        tensor=1, pipeline=2, micro_batch_size=4, num_microbatches=8,
        trace_enabled=False, fidelity=fidelity,
        label=f"scale:{fidelity}:{world}",
    )


@dataclasses.dataclass
class Inputs:
    cells: Dict[int, list]  # group -> [(scenario, paper TFLOPS)]
    exec_curve: list
    auto_curve: list
    cycle: List[str]


def make_inputs(seed: int, smoke: bool) -> Inputs:
    from repro.bench.paper_data import TABLE3
    from repro.bench.runner import case_scenario

    rng = random.Random(seed)
    groups = SMOKE["groups"] if smoke else GROUPS
    nodes = SMOKE["nodes"] if smoke else NODES
    cells = {}
    for group in groups:
        row = [(case_scenario(env, n, group), TABLE3[(group, n, env)][0])
               for n in nodes for env in ENVS]
        rng.shuffle(row)
        cells[group] = row
    exec_curve = [scale_scenario(w, "executed")
                  for w in (SMOKE["exec"] if smoke else EXEC_WORLDS)]
    auto_curve = [scale_scenario(w, "auto")
                  for w in (SMOKE["auto"] if smoke else AUTO_WORLDS)]
    # the Table-3 groups alternate with the curves and the CLI spawns, so
    # that one cycle, which every run completes, has a sample of every
    # figure and still fits the run on a slow host
    order = list(groups)
    rng.shuffle(order)
    extras = ["exec", "auto", "cli"] * max(1, len(order) // 2)
    cycle = []
    for index, group in enumerate(order):
        cycle += [f"t3:{group}", extras[index]]
    cycle += extras[len(order):]
    return Inputs(cells, exec_curve, auto_curve, cycle)


def _docs(results) -> List[bytes]:
    return [common.document_bytes(r.to_document()) for r in results]


class SimGrid:
    def __init__(self, state: RunState, inputs: Inputs) -> None:
        self.state = state
        self.inputs = inputs
        #: host-speed-normalised seconds per timing key
        self.samples: Dict[str, List[float]] = {}
        self.first_docs: Dict[str, List[bytes]] = {}
        self.curves: Dict[str, list] = {}
        self.paper_errors: List[float] = []
        self.point_counts: List[Dict[str, float]] = []

    def run_unit(self, unit: str, tracer=None, timed: bool = False
                 ) -> Tuple[List[bytes], Dict[str, float]]:
        """Run one unit; returns its result documents and its times: host
        times at the reference speed when ``timed``, else wall times."""
        pieces = PiecewiseSpeed() if timed else WallClock()
        with common.cell_checkpoints(pieces):
            return self._unit(unit, pieces, tracer)

    def _unit(self, unit: str, pieces, tracer) -> Tuple[List[bytes], Dict[str, float]]:
        import repro.api as api

        state = self.state
        if unit in ("exec", "auto"):
            curve = self.inputs.exec_curve if unit == "exec" else self.inputs.auto_curve
            cache = state.fresh_dir(unit)
            results = []
            for scenario in curve:
                before = dict(tracer.counts) if tracer is not None else None
                results += api.sweep([scenario], jobs=1, cache=cache)
                if tracer is not None and unit == "exec":
                    self.point_counts.append(
                        {k: tracer.counts.get(k, 0) - before.get(k, 0)
                         for k in ("collectives.p2p_sends", "hardware.device_lookups")})
            elapsed = pieces.checkpoint()
            self.curves[unit] = results
            self._check_curves()
            return _docs(results), {unit: elapsed}

        group = int(unit.split(":")[1])
        cells = [scenario for scenario, _ in self.inputs.cells[group]]
        cache = state.fresh_dir("t3")
        cold = api.sweep(cells, jobs=1, cache=cache)
        cold_s = pieces.checkpoint()
        cold_docs = _docs(cold)
        if state.tamper == "cache":
            common.tamper_cache_entry(cache, cells[0].digest())
        pieces.checkpoint()
        start = pieces.total
        for _ in range(WARM_REPS):
            warm = api.sweep(cells, jobs=1, cache=cache)
            pieces.lap()
        warm_s = (pieces.checkpoint() - start) / WARM_REPS
        for scenario, a, b in zip(cells, cold_docs, _docs(warm)):
            state.check(a == b, f"cached result differs from cold: {scenario.label}")
        first = self.first_docs.get(unit)
        if first is None:
            self.first_docs[unit] = cold_docs
            for (scenario, paper), result in zip(self.inputs.cells[group], cold):
                self.paper_errors.append(abs(result.tflops - paper) / paper)
        else:
            state.check(first == cold_docs, f"{unit}: cold results differ between runs")
        return cold_docs, {f"cold:{group}": cold_s, f"warm:{group}": warm_s}

    def _check_curves(self) -> None:
        from repro.validate.metamorphic import FIDELITY_RTOL

        if "exec" not in self.curves or "auto" not in self.curves:
            return
        auto = {r.world_size: r for r in self.curves["auto"]}
        for executed in self.curves["exec"]:
            approx = auto.get(executed.world_size)
            if approx is None:
                continue
            deviation = abs(approx.tflops - executed.tflops) / executed.tflops
            self.state.check(
                deviation <= FIDELITY_RTOL,
                f"auto tier off by {deviation:.4f} at {executed.world_size} GPUs")

    def cycle(self, tracer=None) -> List[bytes]:
        """Every unit but the CLI spawn once (the traced comparison)."""
        docs: List[bytes] = []
        for unit in dict.fromkeys(self.inputs.cycle):
            if unit != "cli":
                docs += self.run_unit(unit, tracer)[0]
                common.between_phases()
        return docs


def _prepare(state: RunState):
    def prepare(rep: int) -> Inputs:
        import repro.api as api

        inputs = make_inputs(state.seed, state.smoke)
        warmup = inputs.cells[min(inputs.cells)][0][0]
        api.sweep([warmup], jobs=1, cache=state.fresh_dir("warmup"))
        return inputs
    return prepare


def run(state: RunState) -> Dict[str, float]:
    setup_s, inputs = common.measure_setup(state, MODULES, _prepare(state))
    grid = SimGrid(state, inputs)
    if state.trace:
        return _traced(state, grid)

    start = clock()
    units = inputs.cycle
    done = 0
    while done < len(units) or clock() - start < state.seconds:
        unit = units[done % len(units)]
        if unit == "cli":
            grid.samples.setdefault("cli", []).extend(
                common.cli_simulate_scaled(state, CLI_SPAWNS))
        else:
            for key, value in grid.run_unit(unit, timed=True)[1].items():
                grid.samples.setdefault(key, []).append(value)
        common.between_phases()
        done += 1

    samples = {key: median(values) for key, values in grid.samples.items()}
    cold_s = sum(v for k, v in samples.items() if k.startswith("cold:"))
    cells = sum(len(v) for v in inputs.cells.values())
    report = {
        "table3_cells_per_s": cells / cold_s,
        "table3_warm_s": sum(v for k, v in samples.items() if k.startswith("warm:")),
        "scale_executed_s": samples["exec"],
        "scale_auto_s": samples["auto"],
        "paper_err": sum(grid.paper_errors) / len(grid.paper_errors),
        "cli_simulate_s": samples["cli"],
        "units_run": done,
        "host_speed": common.CAL_REF_S / median(state.speed.samples),
    }
    print(f"sim-grid: {json.dumps(report, sort_keys=True)}")
    return {
        "setup_s": setup_s,
        "cli_simulate_s": report["cli_simulate_s"],
        "cold_s": cold_s,
        "warm_s": report["table3_warm_s"],
        "heavy_s": report["scale_executed_s"],
        "fast_s": report["scale_auto_s"],
        "rate_per_s": report["table3_cells_per_s"],
        "paper_err": report["paper_err"],
    }


def _traced(state: RunState, grid: SimGrid) -> Dict[str, float]:
    from tracer import Tracer, layer_metrics

    start = clock()
    plain = grid.cycle()
    untraced_s = clock() - start

    tracer = Tracer().install()
    try:
        start = clock()
        traced = grid.cycle(tracer=tracer)
        traced_s = clock() - start
    finally:
        tracer.uninstall()
    state.check(plain == traced, "traced results differ from untraced ones")
    tracer.dump(state.trace_path)

    layers = layer_metrics(tracer.summary())
    exec_counts = grid.point_counts
    for key in ("collectives.p2p_sends", "hardware.device_lookups"):
        last, before = exec_counts[-1][key], exec_counts[-2][key]
        layers[f"{key}_growth"] = last / before if before else 0.0
    layers["cli.import_s"] = common.cli_import_s(state)
    layers["trace.overhead"] = traced_s / untraced_s - 1.0
    return layers
