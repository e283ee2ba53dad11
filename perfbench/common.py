"""Shared pieces of the benchmark: run state, statistics, gates, spawns."""

from __future__ import annotations

import contextlib
import gc
import heapq
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import uuid
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

clock = time.perf_counter

#: set-ups per run; ``setup_s`` is their median
SETUP_REPS = 3

#: iterations of the calibration loop, and the loop's time on a 2-vCPU
#: x86-64 container: host-time metrics are reported in seconds at that
#: speed
CAL_ITERS = 30_000
CAL_REF_S = 0.020

#: the calibration of cold-shell spawns: a fresh interpreter importing
#: numpy (a dependency, not the program), and the time its figures are
#: scaled to
SPAWN_CAL = ("-c", "import numpy")
SPAWN_CAL_REF_S = 0.10


def calibration_loop() -> float:
    """A fixed pure-Python workload shaped like the simulator's hot loop
    (heap pushes and pops, dict updates, float arithmetic); returns its
    wall time."""
    start = clock()
    heap: List[Tuple[int, int]] = []
    table: Dict[int, int] = {}
    total = 0.0
    for i in range(CAL_ITERS):
        heapq.heappush(heap, ((i * 7919) % 1009, i))
        if len(heap) > 64:
            total += heapq.heappop(heap)[0] * 0.5
        key = i & 1023
        table[key] = table.get(key, 0) + 1
    return clock() - start


class HostSpeed:
    """The host's speed drifts by tens of percent over minutes, for every
    program alike.  Sampling a fixed calibration loop before and after each
    timed unit and scaling the unit's time by ``CAL_REF_S / loop time``
    cancels that drift; a change to the program's own speed still shows
    in full.  A sample is the median of ``reps`` loops."""

    def __init__(self, reps: int = 3) -> None:
        self.reps = reps
        self.samples: List[float] = []
        self._last = self._sample()

    def _sample(self) -> float:
        value = median([calibration_loop() for _ in range(self.reps)])
        self.samples.append(value)
        return value

    def factor(self) -> float:
        """Scale for the unit that ran since the previous call."""
        now = self._sample()
        factor = CAL_REF_S / ((self._last + now) / 2.0)
        self._last = now
        return factor


#: the length at which ``PiecewiseSpeed.lap`` closes a piece: the host
#: keeps one speed over it, and a calibration loop (20-40 ms) per piece
#: adds about a tenth to a run
PIECE_S = 0.25


class PiecewiseSpeed:
    """Host time at the reference speed of work longer than the host keeps
    one speed.  ``checkpoint()`` closes the piece of work since the last
    one: its wall time is scaled by the calibration loop run at its two
    ends, and the loop's own time is not counted.  A workload calls it at
    the bounds of what it times, and ``lap()`` between the operations
    inside, so that a drift of the host's speed in the middle of a
    multi-second operation is tracked."""

    def __init__(self) -> None:
        self.total = 0.0
        self.pieces = 0
        self._cal = calibration_loop()
        self._start = clock()

    def checkpoint(self) -> float:
        """Close the current piece; returns the scaled total so far."""
        wall = clock() - self._start
        cal = calibration_loop()
        self.total += wall * CAL_REF_S / ((self._cal + cal) / 2.0)
        self.pieces += 1
        self._cal = cal
        self._start = clock()
        return self.total

    def lap(self) -> None:
        """Close the current piece once it is ``PIECE_S`` long."""
        if clock() - self._start >= PIECE_S:
            self.checkpoint()


class WallClock:
    """``PiecewiseSpeed``'s interface over plain wall time, without the
    calibration loop: for passes whose times are not reported (the
    traced comparison), so that both of its passes run the same code."""

    def __init__(self) -> None:
        self.pieces = 0
        self._start = clock()

    @property
    def total(self) -> float:
        return clock() - self._start

    def checkpoint(self) -> float:
        self.pieces += 1
        return self.total

    def lap(self) -> None:
        pass


@contextlib.contextmanager
def cell_checkpoints(pieces) -> Iterator[None]:
    """Lap ``pieces`` after every cell a sweep simulates (the in-process
    ``jobs=1`` path calls ``repro.exec.engine._run_one`` once per cell
    that misses the cache) and, since an executed cell can take seconds,
    at every collective operation the simulation starts (``run_op``
    returns the operation's generator)."""
    import repro.exec.engine as engine
    from repro.collectives.executor import CollectiveExecutor

    run_one, run_op = engine._run_one, CollectiveExecutor.run_op

    def timed_run_one(scenario):
        try:
            return run_one(scenario)
        finally:
            pieces.lap()

    def lapped_run_op(self, *args, **kwargs):
        pieces.lap()
        return run_op(self, *args, **kwargs)

    engine._run_one, CollectiveExecutor.run_op = timed_run_one, lapped_run_op
    try:
        yield
    finally:
        engine._run_one, CollectiveExecutor.run_op = run_one, run_op


class RunState:
    """One benchmark run: its private directory, environment, and the
    operation ledger that ``ok_rate`` and the exit code come from."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 trace: bool, smoke: bool = False,
                 tamper: Optional[str] = None) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.smoke = smoke
        self.tamper = tamper
        self.dir = STATE / f"run-{os.getpid()}-{uuid.uuid4().hex[:8]}"
        self.dir.mkdir(parents=True)
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self._fresh = 0
        self.speed: Optional[HostSpeed] = None
        # The host's CPUs drift in speed independently; pinned to one, this
        # process, the daemon and every spawn run where the calibration
        # loop measures (children inherit the affinity).
        if hasattr(os, "sched_setaffinity"):
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        # Every repro process this run starts — and this one — keeps its
        # cache, journals, flight logs and ledger inside the run directory.
        os.environ["REPRO_CACHE_DIR"] = str(self.dir / "default-cache")
        path = os.environ.get("PYTHONPATH")
        os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")

    @property
    def trace_path(self) -> Path:
        """Where the traced run's spans are written when it ends."""
        path = STATE / "traces" / f"{self.workload}-seed{self.seed}.spans.jsonl"
        path.parent.mkdir(parents=True, exist_ok=True)
        return path

    def fresh_dir(self, tag: str) -> Path:
        """An empty directory, never used before in this run."""
        self._fresh += 1
        path = self.dir / f"{tag}-{self._fresh}"
        path.mkdir()
        return path

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok

    @property
    def ok_rate(self) -> float:
        return (self.attempted - self.failed) / self.attempted if self.attempted else 0.0

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def tail(values: Sequence[float], beyond: int = 10) -> Tuple[float, float, int]:
    """The highest of the usual percentiles with at least ``beyond``
    samples above it (nearest rank).  Returns (percentile, value, beyond);
    with too few samples for p50, the median and its count."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        rank = max(1, math.ceil(pct / 100.0 * n))
        if n - rank >= beyond:
            return pct, ordered[rank - 1], n - rank
    rank = max(1, math.ceil(n / 2))
    return 50.0, ordered[rank - 1], n - rank


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest waited-for
    child (Linux reports kilobytes)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def between_phases() -> None:
    gc.collect()


def spawn(args: Sequence[str], cwd: Path, timeout: float = 120.0
          ) -> Tuple[float, subprocess.CompletedProcess]:
    """Run a fresh interpreter to completion; returns (wall s, process)."""
    start = clock()
    proc = subprocess.run(
        [sys.executable, *args], cwd=cwd, capture_output=True, text=True,
        timeout=timeout,
    )
    return clock() - start, proc


def cli_simulate(state: RunState) -> float:
    """One cold-shell ``repro simulate`` spawn, checked: exit 0 and the
    TFLOPS line printed."""
    wall, proc = spawn(
        ["-m", "repro", "simulate", "--env", "ib", "--nodes", "2", "--group", "1"],
        cwd=state.dir,
    )
    state.check(proc.returncode == 0 and "TFLOPS/GPU:" in proc.stdout,
                f"cli simulate exit {proc.returncode}: {proc.stderr[-200:]}")
    return wall


class SpawnSpeed:
    """``HostSpeed`` for cold-shell spawns, which are bound by imports:
    on a loaded host imports slow by less than the pure-Python loop, so
    the loop over-corrects them.  The calibration is ``SPAWN_CAL``, run
    before and after each timed spawn: scaled by the loop, the median of
    eight ``repro simulate`` spawns spread 0.13 over six processes; scaled
    by the calibration spawn, 0.035."""

    def __init__(self, state: RunState) -> None:
        self.cwd = state.dir
        self._last = self._sample()

    def _sample(self) -> float:
        wall, proc = spawn(SPAWN_CAL, cwd=self.cwd)
        if proc.returncode != 0:
            raise RuntimeError(f"calibration spawn failed: {proc.stderr[-200:]}")
        return wall

    def factor(self) -> float:
        """Scale for the spawn that ran since the previous call."""
        now = self._sample()
        factor = SPAWN_CAL_REF_S / ((self._last + now) / 2.0)
        self._last = now
        return factor


def cli_simulate_scaled(state: RunState, count: int) -> List[float]:
    """``count`` checked ``repro simulate`` spawns, each scaled by the
    calibration spawns right before and after it."""
    spawns = SpawnSpeed(state)
    return [cli_simulate(state) * spawns.factor() for _ in range(count)]


def import_probe(state: RunState, modules: str) -> float:
    """Wall time of a fresh interpreter importing ``modules``."""
    wall, proc = spawn(["-c", f"import {modules}"], cwd=state.dir)
    state.check(proc.returncode == 0, f"import {modules}: {proc.stderr[-200:]}")
    return wall


def cli_import_s(state: RunState, reps: int = 3) -> float:
    """Import cost of ``repro.cli``: a fresh interpreter importing it,
    minus a bare interpreter start (medians of ``reps``)."""
    bare = median([spawn(["-c", "pass"], cwd=state.dir)[0] for _ in range(reps)])
    full = median([import_probe(state, "repro.cli") for _ in range(reps)])
    return max(full - bare, 1e-9)


def measure_setup(state: RunState, modules: str,
                  prepare: Callable[[int], object]) -> Tuple[float, object]:
    """Set the workload up ``reps`` times from scratch and return the
    median set-up time and the last set-up's product.  One set-up is a
    fresh interpreter importing the workload's modules, scaled like a
    spawn, plus ``prepare`` (input generation and the untimed warm-up, in
    fresh state), scaled by the calibration loop."""
    times = []
    product = None
    speed, spawns = HostSpeed(), SpawnSpeed(state)
    for rep in range(1 if state.smoke else SETUP_REPS):
        between_phases()
        probe = import_probe(state, modules) * spawns.factor()
        start = clock()
        product = prepare(rep)
        times.append(probe + (clock() - start) * speed.factor())
    state.speed = speed
    return median(times), product


def document_bytes(doc: object) -> bytes:
    """The canonical wire bytes of a result document (what the serve
    daemon sends)."""
    import json

    return json.dumps(doc, sort_keys=True, allow_nan=False).encode("utf-8")


def tamper_cache_entry(cache_dir: Path, digest: str) -> None:
    """Rewrite one cache entry with a different, still well-formed TFLOPS
    figure: a cache that serves wrong numbers (smoke tests only)."""
    import json

    from repro.exec.cache import ResultCache

    path = ResultCache(cache_dir).path_for(digest)
    entry = json.loads(path.read_text())
    entry["result"]["tflops"] *= 1.01
    path.write_text(json.dumps(entry, sort_keys=True))
