"""Layer tracing from outside the program.

A :class:`Tracer` replaces public functions and methods of the ``repro``
package with thin wrappers that record spans (name, start, end, parent,
request id) and per-layer counters.  Nothing under ``src/`` is edited: the
wrappers are installed by :meth:`Tracer.install` at run time and removed by
:meth:`Tracer.uninstall`.  Spans are kept in memory and written out by
:meth:`Tracer.dump` when the run ends.

Three kinds of wrapper:

- ``span``: a recorded span plus a call count and busy time;
- ``timed``: call count and busy time only, for hot paths (fabric pricing,
  oracle scoring) whose per-call spans would swamp memory;
- ``count``: call count only, for generator functions (their body runs in
  simulated time, so host time per call means nothing) and hot lookups.

Busy time is counted for the outermost call of each key per thread, so a
method that calls a sibling with the same key is not counted twice.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

_clock = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Tuple[str, float, float, int, int, str]] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self.busy: Dict[str, float] = defaultdict(float)
        self.cache_hits = 0
        self.policies: List[object] = []
        self.plan_counts: Dict[str, int] = defaultdict(int)
        self._ids = itertools.count(1)
        self._parent: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_parent", default=0)
        self.request: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_request", default="")
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------ #
    # wrappers
    # ------------------------------------------------------------------ #

    def _depths(self) -> Dict[str, int]:
        depths = getattr(self._local, "depths", None)
        if depths is None:
            depths = self._local.depths = defaultdict(int)
        return depths

    def _enter(self, key: str) -> bool:
        depths = self._depths()
        depths[key] += 1
        return depths[key] == 1

    def _leave(self, key: str, outer: bool, elapsed: float) -> None:
        self._depths()[key] -= 1
        self._record(key, elapsed if outer else 0.0)

    def _record(self, key: str, elapsed: float) -> None:
        with self._lock:
            self.counts[key] += 1
            self.busy[key] += elapsed

    def _open_span(self) -> Tuple[int, contextvars.Token]:
        span_id = next(self._ids)
        return span_id, self._parent.set(span_id)

    def _close_span(self, name: str, start: float, end: float, span_id: int,
                    token: contextvars.Token) -> None:
        self._parent.reset(token)
        parent = self._parent.get()
        self.spans.append(
            (name, start, end, parent, span_id, self.request.get()))

    def _patch(self, owner: object, attr: str, wrapper: Callable) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def span(self, owner: object, attr: str, name: str,
             on_result: Optional[Callable] = None) -> None:
        fn = getattr(owner, attr)
        tracer = self

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                # coroutines interleave on one thread: every span is busy
                # time of its own, so no outermost-call bookkeeping
                span_id, token = tracer._open_span()
                start = _clock()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    end = _clock()
                    tracer._close_span(name, start, end, span_id, token)
                    tracer._record(name, end - start)
            self._patch(owner, attr, async_wrapper)
            return

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer = tracer._enter(name)
            span_id, token = tracer._open_span()
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _clock()
                tracer._close_span(name, start, end, span_id, token)
                tracer._leave(name, outer, end - start)
            if on_result is not None:
                on_result(args, kwargs, result)
            return result
        self._patch(owner, attr, wrapper)

    def timed(self, owner: object, attr: str, key: str) -> None:
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer = tracer._enter(key)
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._leave(key, outer, _clock() - start)
        self._patch(owner, attr, wrapper)

    def count(self, owner: object, attr: str, key: str,
              wrapper_for: Optional[Dict[int, Callable]] = None) -> None:
        """Count calls.  ``wrapper_for`` shares one wrapper between several
        names bound to the same function (``from m import f`` copies)."""
        fn = getattr(owner, attr)
        if wrapper_for is not None and id(fn) in wrapper_for:
            self._patch(owner, attr, wrapper_for[id(fn)])
            return
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        if wrapper_for is not None:
            wrapper_for[id(fn)] = wrapper
        self._patch(owner, attr, wrapper)

    # ------------------------------------------------------------------ #
    # the layer map
    # ------------------------------------------------------------------ #

    def install(self) -> "Tracer":
        import repro.api as api
        import repro.collectives.executor as executor_mod
        import repro.collectives.p2p as p2p
        import repro.core.engine as core_engine
        import repro.exec as exec_pkg
        import repro.exec.engine as exec_engine
        import repro.plan as plan_pkg
        import repro.plan.search as plan_search
        import repro.validate.replay as replay
        from repro.core.scheduler import HolmesScheduler
        from repro.exec.cache import ResultCache
        from repro.exec.journal import SweepJournal
        from repro.hardware.topology import ClusterTopology
        from repro.network.contention import FidelityPolicy
        from repro.network.costmodel import CollectiveCostModel
        from repro.network.fabric import Fabric
        from repro.obs.flight import FlightLog
        from repro.simcore.engine import SimEngine

        # simcore: host time in the event loop, and events processed
        run = SimEngine.run
        tracer = self

        @functools.wraps(run)
        def sim_run(engine, *args, **kwargs):
            before = engine.steps
            outer = tracer._enter("simcore.run")
            start = _clock()
            try:
                return run(engine, *args, **kwargs)
            finally:
                tracer._leave("simcore.run", outer, _clock() - start)
                tracer.counts["simcore.events"] += engine.steps - before
        self._patch(SimEngine, "run", sim_run)

        # collectives: executed ops, p2p sends (every bound copy), channels
        self.count(executor_mod.CollectiveExecutor, "run_op", "collectives.ops")
        shared: Dict[int, Callable] = {}
        for module in (p2p, executor_mod, core_engine):
            self.count(module, "send", "collectives.p2p_sends", wrapper_for=shared)
        self.count(p2p.Channel, "__init__", "collectives.channels_built")

        # network: fabric step pricing, cost-model calls, fidelity tiers
        for name, member in sorted(vars(Fabric).items()):
            if (inspect.isfunction(member) and not name.startswith("_")
                    and name.endswith(("_occupancy", "_time"))):
                self.timed(Fabric, name, "network.pricing")
        for name, member in sorted(vars(CollectiveCostModel).items()):
            if inspect.isfunction(member) and not name.startswith("_"):
                self.count(CollectiveCostModel, name, "network.costmodel_calls")
        init = FidelityPolicy.__init__

        @functools.wraps(init)
        def policy_init(policy, *args, **kwargs):
            init(policy, *args, **kwargs)
            tracer.policies.append(policy)
        self._patch(FidelityPolicy, "__init__", policy_init)

        # hardware
        self.count(ClusterTopology, "device", "hardware.device_lookups")

        # core engine and the api fold
        self.span(api, "build", "core.build")
        self.span(HolmesScheduler, "plan", "core.scheduler")
        self.span(core_engine.TrainingSimulation, "run", "core.run")
        self.span(api, "summarize", "api.summarize")
        self.span(replay, "fingerprint", "validate.fingerprint")
        self.span(core_engine, "attribute_iteration", "obs.attribution")
        self.count(FlightLog, "emit", "obs.flight_events")

        # exec: cache, journal, sweep wall vs time inside cells
        def count_hit(args, kwargs, result):
            if result is not None:
                tracer.cache_hits += 1
        self.span(ResultCache, "get", "exec.cache_get", on_result=count_hit)
        self.span(ResultCache, "put", "exec.cache_put")
        self.timed(SweepJournal, "_append", "exec.journal")
        self.span(exec_pkg, "run_sweep", "exec.sweep")
        self.span(exec_engine, "_run_one", "exec.cell")

        # plan: phases, and the candidate counts of every plan made
        def plan_result(args, kwargs, result):
            tracer.plan_counts["enumerated"] += result.enumerated
            tracer.plan_counts["searched"] += result.searched
            tracer.plan_counts["confirmed"] += result.confirmed
        self.span(plan_pkg, "plan_scenario", "plan.total", on_result=plan_result)
        self.span(plan_search, "enumerate_candidates", "plan.enumerate")
        self.timed(plan_search, "oracle_estimate", "plan.oracle")
        phase_sweep = plan_search.sweep

        @functools.wraps(phase_sweep)
        def plan_sweep(scenarios, *args, **kwargs):
            tier = kwargs.get("fidelity") or "executed"
            key = "plan.confirm" if tier == "executed" else "plan.search"
            outer = tracer._enter(key)
            span_id, token = tracer._open_span()
            start = _clock()
            try:
                return phase_sweep(scenarios, *args, **kwargs)
            finally:
                end = _clock()
                tracer._close_span(key, start, end, span_id, token)
                tracer._leave(key, outer, end - start)
        self._patch(plan_search, "sweep", plan_sweep)
        return self

    def install_serve(self) -> "Tracer":
        """Spans around the daemon's request handler and job runner; the
        job id becomes the request id of every span a request causes."""
        from repro.serve.server import SimulationService

        tracer = self
        box: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_job", default=None)
        handle = SimulationService.handle

        @functools.wraps(handle)
        async def traced_handle(service, reader, writer):
            slot: Dict[str, str] = {}
            box.set(slot)
            span_id, token = tracer._open_span()
            start = _clock()
            try:
                return await handle(service, reader, writer)
            finally:
                end = _clock()
                request_token = tracer.request.set(slot.get("job", ""))
                tracer._close_span("serve.handle", start, end, span_id, token)
                tracer.request.reset(request_token)
                tracer._record("serve.handle", end - start)
        self._patch(SimulationService, "handle", traced_handle)

        submit = SimulationService.submit

        @functools.wraps(submit)
        def traced_submit(service, *args, **kwargs):
            job = submit(service, *args, **kwargs)
            slot = box.get()
            if slot is not None:
                slot["job"] = job.id
            return job
        self._patch(SimulationService, "submit", traced_submit)

        execute = SimulationService._execute

        @functools.wraps(execute)
        def traced_execute(service, job):
            request_token = tracer.request.set(job.id)
            outer = tracer._enter("serve.exec")
            span_id, token = tracer._open_span()
            start = _clock()
            try:
                return execute(service, job)
            finally:
                end = _clock()
                tracer._close_span("serve.exec", start, end, span_id, token)
                tracer._leave("serve.exec", outer, end - start)
                tracer.request.reset(request_token)
        self._patch(SimulationService, "_execute", traced_execute)
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------ #
    # results
    # ------------------------------------------------------------------ #

    def summary(self) -> Dict[str, float]:
        """Raw totals: counts, busy milliseconds, and derived figures."""
        out: Dict[str, float] = {}
        for key, value in self.counts.items():
            out[f"count:{key}"] = value
        for key, value in self.busy.items():
            out[f"ms:{key}"] = value * 1000.0
        out["cache_hits"] = self.cache_hits
        analytic = executed = 0
        for policy in self.policies:
            report = policy.summary()
            analytic += int(report["rings_analytic"])
            executed += int(report["rings_executed"])
        out["rings_analytic"] = analytic
        out["rings_executed"] = executed
        for key, value in self.plan_counts.items():
            out[f"plan:{key}"] = value
        return out

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, span_id, request in self.spans:
                fh.write(json.dumps({
                    "name": name, "start": start, "end": end,
                    "parent": parent, "id": span_id, "request": request,
                }, separators=(",", ":")) + "\n")
            fh.write(json.dumps({"summary": self.summary()}) + "\n")


def layer_metrics(summary: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metrics from a :meth:`Tracer.summary` (zeros for layers
    the workload never reached)."""
    def count(key: str) -> float:
        return float(summary.get(f"count:{key}", 0))

    def ms(key: str) -> float:
        return float(summary.get(f"ms:{key}", 0.0))

    events = count("simcore.events")
    gets = count("exec.cache_get")
    rings = summary.get("rings_analytic", 0) + summary.get("rings_executed", 0)
    return {
        "simcore.events": events,
        "simcore.run_ms": ms("simcore.run"),
        "simcore.us_per_event": ms("simcore.run") * 1000.0 / events if events else 0.0,
        "collectives.ops": count("collectives.ops"),
        "collectives.p2p_sends": count("collectives.p2p_sends"),
        "collectives.channels_built": count("collectives.channels_built"),
        "network.step_pricings": count("network.pricing"),
        "network.pricing_ms": ms("network.pricing"),
        "network.costmodel_calls": count("network.costmodel_calls"),
        "network.rings_analytic_share": (
            summary.get("rings_analytic", 0) / rings if rings else 0.0),
        "hardware.device_lookups": count("hardware.device_lookups"),
        "core.build_ms": ms("core.build"),
        "core.scheduler_ms": ms("core.scheduler"),
        "core.run_ms": ms("core.run"),
        "api.summarize_ms": ms("api.summarize"),
        "validate.fingerprint_ms": ms("validate.fingerprint"),
        "obs.attribution_ms": ms("obs.attribution"),
        "obs.flight_events": count("obs.flight_events"),
        "exec.cache_gets": gets,
        "exec.cache_hit_ratio": summary.get("cache_hits", 0) / gets if gets else 0.0,
        "exec.cache_get_ms": ms("exec.cache_get"),
        "exec.cache_puts": count("exec.cache_put"),
        "exec.cache_put_ms": ms("exec.cache_put"),
        "exec.journal_appends": count("exec.journal"),
        "exec.journal_ms": ms("exec.journal"),
        "exec.sweep_overhead_ms": max(ms("exec.sweep") - ms("exec.cell"), 0.0),
        "plan.enumerated": float(summary.get("plan:enumerated", 0)),
        "plan.searched": float(summary.get("plan:searched", 0)),
        "plan.confirmed": float(summary.get("plan:confirmed", 0)),
        "plan.enumerate_ms": ms("plan.enumerate"),
        "plan.oracle_ms": ms("plan.oracle"),
        "plan.search_ms": ms("plan.search"),
        "plan.confirm_ms": ms("plan.confirm"),
    }
