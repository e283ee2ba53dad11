"""serve-mixed: ``repro serve`` under seeded open-loop ``/v1/run`` traffic.

The daemon runs in a subprocess (``serve_daemon.py``) with its own empty
cache inside the run directory.  This process is the one load generator:
an asyncio loop that sends each request at its Poisson-drawn due time over
at most ``CONNECTIONS`` concurrent connections, from three tenants.  A
request is timed from its due time, so a stalled server (or generator)
counts against every request behind it; how late the generator sent is
recorded too.

Traffic: in every block of 20 requests, 3 are fresh cells (env x nodes x
group x ``bandwidth_scale``, a miss the daemon simulates and caches) and 17
repeat a hot set of eight Table-3 cells warmed during set-up (cache reads).
Phases: a light rate, a busy rate, then a short fixed ladder above the
busy rate.  The seed draws arrivals, tenants, hot picks and fresh cells.
After the light phase, the busy phase and the ladder, grids of twelve
fresh cells go closed-loop, one request at a time: one grid as twelve
``/v1/run`` misses, one as six two-cell ``/v1/sweep?wait=1`` requests.
They give the cost of a miss and of a sweep served alone, without the
queueing that a seed's arrival bursts add under load.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import random
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import common
from common import RunState, clock, median

MODULES = "repro.api, repro.api.schema, repro.bench.runner"
HERE = Path(__file__).resolve().parent

ENVS = ("InfiniBand", "RoCE", "Ethernet", "Hybrid")
HOT_CELLS = [(group, 4, env) for group in (1, 2) for env in ENVS]
TENANTS = ("alpha", "beta", "gamma")
CONNECTIONS = 2
BLOCK, MISSES_PER_BLOCK = 20, 3

#: (requests per second, share of ``--seconds``) of each phase: light and
#: busy at about a quarter and three quarters of the knee, then the ladder
LIGHT = (5.0, 0.15)
BUSY = (15.0, 0.35)
LADDER = ((20.0, 0.04), (25.0, 0.04), (30.0, 0.12))
#: a ladder rung passes when its tail stays under this, nothing failed,
#: and the generator's lag did not grow across the rung
TAIL_LIMIT_S = 0.25
BACKLOG_LIMIT_S = 0.05
#: cells per ``/v1/sweep`` request of a closed-loop block.  A request is
#: scaled by the host's speed sampled around it, which tracks the host
#: only over short requests: over five seeds, a twelve-cell sweep in one
#: request spread 0.20 of its median, three four-cell sweeps 0.12
SWEEP_CELLS = 2


@dataclasses.dataclass
class Request:
    offset: float  #: due time, seconds after the phase starts
    hot: int  #: index into the hot set, or -1 for a fresh cell
    tenant: str
    body: bytes
    digest: str  #: the scenario's digest (checked on fresh cells)


@dataclasses.dataclass
class Outcome:
    request: Request
    latency: float  #: completion minus due time
    lag: float  #: send minus due time
    status: int
    payload: bytes


def _body(scenario) -> bytes:
    from repro.api.schema import build_request

    return common.document_bytes(build_request("run", [scenario]))


def hot_scenarios():
    from repro.bench.runner import case_scenario

    return [case_scenario(env, nodes, group) for group, nodes, env in HOT_CELLS]


class Traffic:
    """The seeded request stream, phase by phase."""

    def __init__(self, seed: int, seconds: float) -> None:
        from repro.bench.runner import case_scenario

        self._case = case_scenario
        self.rng = random.Random(seed)
        self.hot = hot_scenarios()
        self.hot_bodies = [_body(s) for s in self.hot]
        self.seconds = seconds
        self._block: List[bool] = []
        self._shapes: List[Tuple[int, int]] = []
        self._envs: List[str] = []
        self._seen = {scenario.digest() for scenario in self.hot}

    def _scenario(self, env: str, nodes: int, group: int):
        """A cell no earlier request of this traffic asked for (a miss)."""
        while True:
            scenario = self._case(
                env, nodes, group,
                bandwidth_scale=round(self.rng.uniform(0.5, 1.5), 6),
            )
            digest = scenario.digest()
            if digest not in self._seen:
                self._seen.add(digest)
                return scenario

    def _cell(self, env: str, nodes: int, group: int) -> Request:
        scenario = self._scenario(env, nodes, group)
        return Request(0.0, -1, "", _body(scenario), scenario.digest())

    def _fresh(self) -> Request:
        # (group, nodes) and env come off shuffled decks, restarted with
        # every phase, so the misses of a phase cost about the same on
        # every seed
        rng = self.rng
        if not self._shapes:
            self._shapes = [(g, n) for g in (1, 2, 3, 4) for n in (4, 6, 8)]
            rng.shuffle(self._shapes)
        if not self._envs:
            self._envs = list(ENVS)
            rng.shuffle(self._envs)
        group, nodes = self._shapes.pop()
        return self._cell(self._envs.pop(), nodes, group)

    def _next(self, offset: float) -> Request:
        if not self._block:
            self._block = [True] * MISSES_PER_BLOCK + [False] * (BLOCK - MISSES_PER_BLOCK)
            self.rng.shuffle(self._block)
        if self._block.pop():
            request = self._fresh()
        else:
            hot = self.rng.randrange(len(self.hot))
            request = Request(0.0, hot, "", self.hot_bodies[hot], "")
        request.offset = offset
        request.tenant = self.rng.choice(TENANTS)
        return request

    def phase(self, rate: float, share: float) -> List[Request]:
        """Poisson arrivals at ``rate`` over ``share`` of the run, drawn
        as a fixed count of uniform due times (a Poisson process given its
        count), so every phase carries the same load on every seed."""
        duration = share * self.seconds
        self._block, self._shapes, self._envs = [], [], []
        count = max(1, round(rate * duration))
        offsets = sorted(self.rng.uniform(0.0, duration) for _ in range(count))
        return [self._next(offset) for offset in offsets]

    def grid(self, turn: int) -> List[object]:
        """Grid ``turn`` of fresh cells for the closed-loop requests: the
        twelve (group, nodes) shapes with the envs rotated by ``turn``, so
        a turn holds the same (shape, env) cells on every seed; the seed
        draws their order and ``bandwidth_scale``."""
        shapes = [(g, n) for g in (1, 2, 3, 4) for n in (4, 6, 8)]
        cells = [(ENVS[(i + turn) % len(ENVS)], nodes, group)
                 for i, (group, nodes) in enumerate(shapes)]
        self.rng.shuffle(cells)
        return [self._scenario(*cell) for cell in cells]


# ---------------------------------------------------------------------- #
# the daemon
# ---------------------------------------------------------------------- #


class Daemon:
    def __init__(self, state: RunState, trace_out: Optional[Path] = None) -> None:
        self.cache = state.fresh_dir("serve-cache")
        port_file = self.cache.parent / f"{self.cache.name}.port"
        args = [sys.executable, str(HERE / "serve_daemon.py")]
        if trace_out is not None:
            args += ["--trace-out", str(trace_out)]
        args += ["serve", "--port", "0", "--port-file", str(port_file),
                 "--cache", str(self.cache), "--workers", "2"]
        self.log = open(self.cache.parent / f"{self.cache.name}.log", "w")
        self.proc = subprocess.Popen(args, cwd=state.dir, stdout=self.log,
                                     stderr=subprocess.STDOUT)
        deadline = time.monotonic() + 60
        while not port_file.exists() or not port_file.read_text().strip():
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError("serve daemon did not come up")
            time.sleep(0.01)
        self.port = int(port_file.read_text())

    def stop(self) -> int:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()
        return self.proc.returncode


#: cold-shell ``repro simulate`` spawns at each of three points: before,
#: between and after the light and busy phases
CLI_SPAWNS = 2

#: a request still unanswered after this long counts as failed
REQUEST_TIMEOUT_S = 60.0


async def _http(port: int, method: str, path: str, body: bytes = b"",
                tenant: str = "bench") -> Tuple[int, bytes]:
    return await asyncio.wait_for(
        _exchange(port, method, path, body, tenant), REQUEST_TIMEOUT_S)


async def _exchange(port: int, method: str, path: str, body: bytes,
                    tenant: str) -> Tuple[int, bytes]:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(
            f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"X-Tenant: {tenant}\r\nContent-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
            .encode("latin-1") + body)
        await writer.drain()
        data = await reader.read()
    finally:
        writer.close()
        await writer.wait_closed()
    head, _, payload = data.partition(b"\r\n\r\n")
    return int(head.split(b" ", 2)[1]), payload


def http(port: int, method: str, path: str, body: bytes = b"",
         tenant: str = "bench") -> Tuple[int, bytes]:
    return asyncio.run(_http(port, method, path, body, tenant))


async def _drive(port: int, requests: List[Request]) -> List[Outcome]:
    slots = asyncio.Semaphore(CONNECTIONS)
    outcomes: List[Outcome] = []

    async def one(request: Request, due: float, sent: float) -> None:
        try:
            status, payload = await _http(port, "POST", "/v1/run",
                                          request.body, request.tenant)
        except (OSError, ValueError, IndexError, asyncio.TimeoutError):
            status, payload = 0, b""
        finally:
            slots.release()
        outcomes.append(Outcome(request, clock() - due, sent - due, status, payload))

    tasks = []
    start = clock()
    for request in requests:
        due = start + request.offset
        delay = due - clock()
        if delay > 0:
            await asyncio.sleep(delay)
        await slots.acquire()
        tasks.append(asyncio.create_task(one(request, due, clock())))
    await asyncio.gather(*tasks)
    return outcomes


def drive(port: int, requests: List[Request]) -> List[Outcome]:
    return asyncio.run(_drive(port, requests))


def send_alone(port: int, path: str, request: Request) -> Outcome:
    """Send one request alone and wait for its answer."""
    sent = clock()
    try:
        status, payload = http(port, "POST", path, request.body, request.tenant)
    except (OSError, ValueError, IndexError, asyncio.TimeoutError):
        status, payload = 0, b""
    return Outcome(request, clock() - sent, 0.0, status, payload)


# ---------------------------------------------------------------------- #
# the workload
# ---------------------------------------------------------------------- #


class ServeMixed:
    def __init__(self, state: RunState) -> None:
        self.state = state
        self.daemon: Optional[Daemon] = None
        self.traffic: Optional[Traffic] = None
        self.served_hot: Dict[int, set] = {}
        self.tampered = False

    def boot(self, trace_out: Optional[Path] = None) -> None:
        """Start a daemon on an empty cache and warm the hot set."""
        self.daemon = Daemon(self.state, trace_out)
        for index, body in enumerate(self.traffic.hot_bodies):
            status, payload = http(self.daemon.port, "POST", "/v1/run", body)
            self.state.check(status == 200, f"hot-set warm-up status {status}")
            self.served_hot.setdefault(index, set()).add(payload)

    def stop(self) -> None:
        if self.daemon is not None:
            code = self.daemon.stop()
            self.state.check(code == 0, f"serve daemon exit {code}")
            self.daemon = None

    def prepare(self, rep: int) -> None:
        self.stop()
        self.traffic = Traffic(self.state.seed, self.state.seconds)
        self.boot()

    def record(self, outcomes: List[Outcome]) -> None:
        from repro.api import RunResult

        state = self.state
        for outcome in outcomes:
            request = outcome.request
            if outcome.status != 200:
                state.check(False, f"/v1/run answered {outcome.status}")
                continue
            payload = outcome.payload
            if request.hot >= 0:
                if state.tamper == "served" and not self.tampered:
                    payload = payload.replace(b'"tflops": ', b'"tflops": 1', 1)
                    self.tampered = True
                self.served_hot.setdefault(request.hot, set()).add(payload)
                state.check(True, "hot request")
                continue
            try:
                result = RunResult.from_document(json.loads(payload))
                ok = result.scenario_digest == request.digest
            except ValueError:
                ok = False
            state.check(ok, "fresh cell answered for another scenario")

    def verify_hot(self) -> List[bytes]:
        """Every hot document served must be byte-identical to a local
        ``repro.api.run``; returns the local documents."""
        import repro.api as api

        local = [common.document_bytes(api.run(s).to_document())
                 for s in self.traffic.hot]
        for index, payloads in sorted(self.served_hot.items()):
            for payload in payloads:
                self.state.check(payload == local[index],
                                 f"served hot document {index} differs from local run")
        return local

    def phase(self, requests: List[Request]) -> List[Outcome]:
        common.between_phases()
        outcomes = drive(self.daemon.port, requests)
        self.record(outcomes)
        return outcomes

    def check_sweep(self, outcome: Outcome, scenarios: List[object]) -> None:
        """A served sweep must answer every cell of its grid, in order."""
        from repro.exec.resilience import SweepOutcome

        ok = outcome.status == 200
        if ok:
            try:
                status = json.loads(outcome.payload)
                sweep = SweepOutcome.from_document(status["result"])
                ok = (status["state"] == "done" and not sweep.failures
                      and [r.scenario_digest for r in sweep.results]
                      == [s.digest() for s in scenarios])
            except (ValueError, KeyError, TypeError, AttributeError):
                ok = False
        self.state.check(ok, f"/v1/sweep answered {outcome.status} "
                             "or not for its own grid")

    def closed_loop(self, turn: int, hit_s: float
                    ) -> Tuple[List[float], List[float], List[float]]:
        """Serve closed-loop block ``turn``, one request at a time: grid
        ``turn`` as ``/v1/run`` misses, then another grid ``turn`` as
        ``/v1/sweep?wait=1`` requests of ``SWEEP_CELLS`` cells.

        A request's latency is a hit's (``hit_s``: the daemon's 20 ms job
        poll and the HTTP exchange, timer-bound) plus the simulation it
        runs.  That excess is scaled by the host's speed sampled right
        before and after the request (one calibration loop, to keep the
        block short), since the speed drifts within a grid; the hit's
        part stays raw.  Returns the scaled miss and sweep
        latencies and the raw miss latencies."""
        from repro.api.schema import build_request

        traffic, port = self.traffic, self.daemon.port
        common.between_phases()
        speed = common.HostSpeed(reps=1)

        def scaled(outcome: Outcome) -> float:
            return hit_s + (outcome.latency - hit_s) * speed.factor()

        misses, sweeps, raw = [], [], []
        for scenario in traffic.grid(turn):
            request = Request(0.0, -1, traffic.rng.choice(TENANTS),
                              _body(scenario), scenario.digest())
            outcome = send_alone(port, "/v1/run", request)
            misses.append(scaled(outcome))
            raw.append(outcome.latency)
            self.record([outcome])
        grid = traffic.grid(turn)
        for first in range(0, len(grid), SWEEP_CELLS):
            cells = grid[first:first + SWEEP_CELLS]
            body = common.document_bytes(build_request("sweep", cells))
            request = Request(0.0, -1, traffic.rng.choice(TENANTS), body, "")
            outcome = send_alone(port, "/v1/sweep?wait=1", request)
            sweeps.append(scaled(outcome))
            self.check_sweep(outcome, cells)
        return misses, sweeps, raw


def mean(values: List[float]) -> float:
    return sum(values) / len(values)


def _hot(outcomes: List[Outcome], hot: bool) -> List[float]:
    return [o.latency for o in outcomes if (o.request.hot >= 0) == hot]


def _rung(outcomes: List[Outcome], duration: float
          ) -> Tuple[bool, float, float, float]:
    """Whether a rate step met the limit, the requests it completed per
    second within its own window, its tail, and how much the generator's
    lag grew across it."""
    ordered = sorted(outcomes, key=lambda o: o.request.offset)
    quarter = max(1, len(ordered) // 4)
    lag_growth = (median([o.lag for o in ordered[-quarter:]])
                  - median([o.lag for o in ordered[:quarter]]))
    _, tail_s, _ = common.tail([o.latency for o in ordered])
    ok = (all(o.status == 200 for o in ordered) and tail_s <= TAIL_LIMIT_S
          and lag_growth <= BACKLOG_LIMIT_S)
    done = sum(1 for o in ordered if o.request.offset + o.latency <= duration)
    return ok, done / duration, tail_s, lag_growth


def run(state: RunState) -> Dict[str, float]:
    bench = ServeMixed(state)
    try:
        setup_s, _ = common.measure_setup(state, MODULES, bench.prepare)
        if state.trace:
            return _traced(state, bench)
        return _measured(state, bench, setup_s)
    finally:
        bench.stop()


def _measured(state: RunState, bench: ServeMixed, setup_s: float) -> Dict[str, float]:
    traffic = bench.traffic
    speed = state.speed
    blocks = []

    def serve_block(always: bool = False) -> None:
        if always or not state.smoke:  # a smoke run serves the last block only
            blocks.append(bench.closed_loop(len(blocks), hit_s))

    cli = common.cli_simulate_scaled(state, CLI_SPAWNS)
    light = bench.phase(traffic.phase(*LIGHT))
    hit_s = median(_hot(light, True))
    serve_block()
    cli += common.cli_simulate_scaled(state, CLI_SPAWNS)
    busy = bench.phase(traffic.phase(*BUSY))
    serve_block()
    cli += common.cli_simulate_scaled(state, CLI_SPAWNS)
    steps = [(LIGHT, light), (BUSY, busy)] + [
        ((rate, share), bench.phase(traffic.phase(rate, share)))
        for rate, share in LADDER]
    rungs = [(rate, outcomes, _rung(outcomes, share * state.seconds))
             for (rate, share), outcomes in steps]
    serve_block(always=True)
    # every seed's blocks hold the same cells, so their means compare
    closed_miss = [latency for block, _, _ in blocks for latency in block]
    closed_sweep = [latency for _, block, _ in blocks for latency in block]
    closed_raw = [latency for _, _, block in blocks for latency in block]
    local = bench.verify_hot()

    max_rps = 0.0
    for rate, _, (ok, _, _, _) in rungs:
        if not ok:
            break
        max_rps = rate
    top_completed = rungs[-1][2][1]
    # Under load a seed's arrival bursts queue requests behind misses, so
    # the means of misses and of busy requests spread by a fifth or more
    # from seed to seed: they are reported, not gated.  The gated miss and
    # sweep figures are the closed-loop blocks' means.  The hot figures
    # are medians bound by the daemon's 20 ms job poll, a timer, and stay
    # raw.
    tail_pct, tail_s, beyond = common.tail([o.latency for o in busy])
    misses = _hot(light, False) + _hot(busy, False)
    report = {
        "serve_p50_ms": median(_hot(light, True)) * 1000,
        "serve_busy_p50_ms": median(_hot(busy, True)) * 1000,
        "serve_tail_ms": tail_s * 1000,
        "serve_tail": f"p{tail_pct:g} of {len(busy)} ({beyond} beyond)",
        "serve_max_rps": max_rps,
        "top_rung_completed_per_s": top_completed,
        "miss_mean_ms": mean(misses) * 1000,
        "busy_mean_ms": mean([o.latency for o in busy]) * 1000,
        "closed_miss_ms": mean(closed_miss) * 1000,
        "closed_miss_raw_ms": mean(closed_raw) * 1000,
        "closed_sweep_ms": mean(closed_sweep) * 1000,
        "closed_requests": len(closed_miss) + len(closed_sweep),
        "misses": len(misses),
        "generator_lag_p50_ms": median([o.lag for o in busy]) * 1000,
        "rungs": [[rate, len(o), *r] for rate, o, r in rungs],
        "host_speed": common.CAL_REF_S / median(speed.samples),
    }
    print(f"serve-mixed: {json.dumps(report, sort_keys=True)}")
    return {
        "setup_s": setup_s,
        "cli_simulate_s": median(cli),
        "cold_s": mean(closed_miss),
        "warm_s": report["serve_p50_ms"] / 1000,
        "heavy_s": mean(closed_sweep),
        "fast_s": report["serve_busy_p50_ms"] / 1000,
        "rate_per_s": top_completed,
        "paper_err": _local_paper_err(local),
    }


def _local_paper_err(local_docs: List[bytes]) -> float:
    from repro.bench.paper_data import TABLE3

    errors = []
    for (group, nodes, env), doc in zip(HOT_CELLS, local_docs):
        tflops = json.loads(doc)["result"]["tflops"]
        paper = TABLE3[(group, nodes, env)][0]
        errors.append(abs(tflops - paper) / paper)
    return sum(errors) / len(errors)


def _scrape(port: int) -> Dict[str, float]:
    """serve-side figures from one ``/metrics`` scrape."""
    _, text = http(port, "GET", "/metrics")
    sums: Dict[str, float] = {}
    for line in text.decode("utf-8").splitlines():
        if line.startswith("#") or " " not in line:
            continue
        name, value = line.rsplit(" ", 1)
        labels = ""
        if "{" in name:
            name, labels = name.split("{", 1)
        if name in ("serve_request_seconds_sum", "serve_request_seconds_count"):
            if 'endpoint="/v1/run"' not in labels:
                continue
        sums[name] = sums.get(name, 0.0) + float(value)
    count = sums.get("serve_request_seconds_count", 0.0)
    return {
        "serve.server_mean_ms": (sums.get("serve_request_seconds_sum", 0.0) * 1000 / count
                                 if count else 0.0),
        "serve.cache_hit_rate": sums.get("serve_cache_hit_rate", 0.0),
        "serve.shed": sums.get("serve_shed_total", 0.0),
    }


def _traced(state: RunState, bench: ServeMixed) -> Dict[str, float]:
    from tracer import layer_metrics

    traffic = bench.traffic
    light = traffic.phase(*LIGHT)
    busy = traffic.phase(*BUSY)
    plain = bench.phase(light) + bench.phase(busy)
    bench.stop()
    plain_hot = bench.served_hot
    bench.served_hot = {}

    trace_out = state.dir / "daemon.spans.jsonl"
    bench.boot(trace_out)
    traced = bench.phase(light) + bench.phase(busy)
    scraped = _scrape(bench.daemon.port)
    bench.stop()
    state.check(plain_hot == bench.served_hot,
                "traced daemon served other documents than the untraced one")
    bench.verify_hot()

    spans_lines = trace_out.read_text().splitlines()
    state.trace_path.write_text("\n".join(spans_lines) + "\n")
    summary = json.loads(spans_lines[-1])["summary"]
    layers = layer_metrics(summary)
    handled = summary.get("count:serve.handle", 0)
    executed = summary.get("count:serve.exec", 0)
    handle_ms = summary.get("ms:serve.handle", 0.0) / handled if handled else 0.0
    exec_ms = summary.get("ms:serve.exec", 0.0) / executed if executed else 0.0
    layers.update(scraped)
    layers["serve.handle_ms"] = handle_ms
    layers["serve.exec_ms"] = exec_ms
    layers["serve.overhead_ms"] = handle_ms - exec_ms
    layers["serve.generator_lag_ms"] = (
        sum(o.lag for o in traced) / len(traced) * 1000)
    layers["cli.import_s"] = common.cli_import_s(state)
    mean = lambda outcomes: sum(o.latency for o in outcomes) / len(outcomes)
    layers["trace.overhead"] = mean(traced) / mean(plain) - 1.0
    return layers
