"""Flight recorder x executor integration: the event log narrates a sweep
truthfully, never changes a result byte, and costs ~nothing when off.

Worker functions live at module level so they pickle into pool workers
(same discipline as ``test_resilience.py``).
"""

import threading
import time

from repro.api import Scenario, sweep
from repro.exec import SweepOutcome, pmap, run_sweep
from repro.exec.journal import SweepJournal, sweep_digest
from repro.obs.flight import (
    FlightLog,
    events_path_for,
    read_events,
    scenario_story,
    summarize_events,
)


def tiny(**overrides):
    base = dict(
        env="ib", nodes=2, gpus_per_node=2, num_layers=4, hidden_size=256,
        num_attention_heads=4, seq_length=128, vocab_size=1024,
        pipeline=2, micro_batch_size=1, num_microbatches=2,
    )
    base.update(overrides)
    return Scenario(**base)


def _square(x):
    return x * x


def _fail_on_13(x):
    if x == 13:
        raise ValueError("unlucky")
    return x * x


SCENARIOS = [tiny(label=f"f{i:02d}") for i in range(8)]


# --------------------------------------------------------------------- #
# the byte-identity contract: recording must be invisible to results
# --------------------------------------------------------------------- #


def test_digests_identical_with_recording_on_vs_off(tmp_path):
    plain = sweep(SCENARIOS, jobs=2)
    recorded = sweep(
        SCENARIOS, jobs=2, events=tmp_path / "ev.jsonl",
        progress=False, ledger=tmp_path / "ledger.jsonl",
    )
    assert [r.trace_digest for r in plain] == [
        r.trace_digest for r in recorded
    ]
    assert plain == recorded


def test_recording_does_not_touch_serial_results(tmp_path):
    plain = sweep(SCENARIOS, jobs=1)
    recorded = sweep(SCENARIOS, jobs=1, events=tmp_path / "ev.jsonl")
    assert plain == recorded


# --------------------------------------------------------------------- #
# event-log content for healthy, cached, and failing sweeps
# --------------------------------------------------------------------- #


def test_event_log_narrates_a_parallel_sweep(tmp_path):
    path = tmp_path / "ev.jsonl"
    sweep(SCENARIOS, jobs=2, events=path)
    events = read_events(path)
    counts = summarize_events(events)
    n = len(SCENARIOS)
    assert counts["sweep-begin"] == 1
    assert counts["sweep-end"] == 1
    assert counts["cache-miss"] == n
    assert counts["scenario-dispatched"] == n
    assert counts["scenario-started"] == n
    assert counts["scenario-finished"] == n
    assert counts["worker-spawn"] == 2
    begin = next(e for e in events if e["event"] == "sweep-begin")
    assert begin["total"] == n
    assert begin["jobs"] == 2
    assert begin["sweep_digest"] == sweep_digest(
        s.digest() for s in SCENARIOS
    )
    # per-scenario story: dispatched -> started -> finished, with timing
    for scenario in SCENARIOS:
        story = scenario_story(events, scenario.digest())
        kinds = [e["event"] for e in story]
        assert kinds == [
            "cache-miss", "scenario-dispatched", "scenario-started",
            "scenario-finished",
        ]
        assert story[-1]["seconds"] > 0


def test_dispatch_is_logged_before_a_fast_worker_starts(tmp_path, monkeypatch):
    """Regression: the supervisor used to write ``scenario-dispatched``
    after sending the task, so a fast worker's ``scenario-started`` could
    land first.  Holding back the supervisor's dispatch write makes every
    worker the fast one; the story must still read in causal order."""
    emit = FlightLog.emit

    def slow_dispatch(self, event, **fields):
        if event == "scenario-dispatched":
            time.sleep(0.3)
        emit(self, event, **fields)

    monkeypatch.setattr(FlightLog, "emit", slow_dispatch)
    path = tmp_path / "ev.jsonl"
    sweep(SCENARIOS[:3], jobs=2, events=path)
    events = read_events(path)
    for scenario in SCENARIOS[:3]:
        kinds = [e["event"] for e in scenario_story(events, scenario.digest())]
        assert kinds == [
            "cache-miss", "scenario-dispatched", "scenario-started",
            "scenario-finished",
        ]


def test_event_log_records_cache_hits(tmp_path):
    cache = tmp_path / "cache"
    sweep(SCENARIOS, jobs=1, cache=cache)
    path = tmp_path / "ev.jsonl"
    sweep(SCENARIOS, jobs=1, cache=cache, events=path)
    counts = summarize_events(read_events(path))
    assert counts["cache-hit"] == len(SCENARIOS)
    assert "scenario-dispatched" not in counts
    assert counts["sweep-end"] == 1


def test_events_default_on_iff_journaling(tmp_path):
    # no journal, events=None -> no event log anywhere under tmp_path
    sweep(SCENARIOS[:2], jobs=1)
    # journaled: the event log rides alongside the journal automatically
    sweep(SCENARIOS[:2], jobs=1, resume=True, journal=tmp_path)
    digests = [s.digest() for s in SCENARIOS[:2]]
    journal = SweepJournal.for_sweep(tmp_path, digests)
    events_path = events_path_for(journal.path)
    assert events_path.exists()
    counts = summarize_events(read_events(events_path))
    assert counts["scenario-finished"] == 2
    # a resumed re-run appends journal-replay events to the same log
    sweep(SCENARIOS[:2], jobs=1, resume=True, journal=tmp_path)
    counts = summarize_events(read_events(events_path))
    assert counts["journal-replay"] == 2
    assert counts["sweep-begin"] == 2


def test_events_false_suppresses_recording_even_with_journal(tmp_path):
    sweep(SCENARIOS[:2], jobs=1, resume=True, journal=tmp_path,
          events=False)
    digests = [s.digest() for s in SCENARIOS[:2]]
    journal = SweepJournal.for_sweep(tmp_path, digests)
    assert journal.path.exists()
    assert not events_path_for(journal.path).exists()


def test_quarantine_story_via_pmap(tmp_path):
    """Every quarantined failure has matching retried/quarantined events
    (the chaos suite asserts the same over real scenario digests)."""
    from repro.exec.engine import _build_flight

    flight = _build_flight(
        events=tmp_path / "ev.jsonl", progress=False, textfile=None,
        jrnl=None, store=None, digests=[],
    )
    from repro.exec.resilience import SweepPolicy, resilient_map

    items = [(i, v, f"digest-{v}", f"item{i}") for i, v in
             enumerate([1, 13, 2, 3])]
    _, failures, stats = resilient_map(
        _fail_on_13, items, jobs=2,
        policy=SweepPolicy(retries=1, backoff=0.0, on_error="collect"),
        flight=flight,
    )
    flight.close()
    assert len(failures) == 1
    events = read_events(tmp_path / "ev.jsonl")
    story = scenario_story(events, "digest-13")
    kinds = [e["event"] for e in story]
    assert kinds.count("scenario-dispatched") == 2  # initial + retry
    assert kinds.count("scenario-retried") == 1
    assert kinds.count("scenario-quarantined") == 1
    quarantined = story[-1]
    assert quarantined["event"] == "scenario-quarantined"
    assert quarantined["kind"] == "error"
    assert quarantined["attempts"] == 2
    # healthy items: no retry/quarantine events
    for v in (1, 2, 3):
        healthy = [e["event"] for e in scenario_story(events, f"digest-{v}")]
        assert "scenario-retried" not in healthy
        assert "scenario-quarantined" not in healthy


# --------------------------------------------------------------------- #
# ledger integration
# --------------------------------------------------------------------- #


def test_sweep_records_a_ledger_run(tmp_path):
    from repro.obs.ledger import RunLedger

    ledger_path = tmp_path / "ledger.jsonl"
    cache = tmp_path / "cache"
    sweep(SCENARIOS[:3], jobs=1, cache=cache, ledger=ledger_path)
    sweep(SCENARIOS[:3], jobs=1, cache=cache, ledger=ledger_path)
    records = RunLedger(ledger_path).records()
    assert len(records) == 2
    assert records[0].kind == "sweep"
    assert records[0].outcome == "ok"
    assert records[0].counts["executed"] == 3
    assert records[1].counts["cache_hits"] == 3
    assert records[0].sweep_digest == records[1].sweep_digest
    assert records[0].code_salt


def test_partial_sweep_ledger_outcome(tmp_path):
    from repro.obs.ledger import RunLedger

    ledger_path = tmp_path / "ledger.jsonl"
    outcome = run_sweep(
        [tiny(label="ok"), tiny(label="bad", num_layers=-1)],
        jobs=1, on_error="collect", retries=0, ledger=ledger_path,
    )
    assert isinstance(outcome, SweepOutcome)
    assert len(outcome.failures) == 1
    records = RunLedger(ledger_path).records()
    assert records[-1].outcome == "partial"
    assert records[-1].counts["quarantined"] == 1


# --------------------------------------------------------------------- #
# live tail: reading journal + event log while a sweep appends
# --------------------------------------------------------------------- #


def test_tail_journal_and_events_during_live_sweep(tmp_path):
    """Satellite: concurrent readers see only whole records while a live
    sweep appends — journal replay and event parsing never corrupt."""
    scenarios = [tiny(label=f"live{i:02d}") for i in range(10)]
    digests = [s.digest() for s in scenarios]
    journal = SweepJournal.for_sweep(tmp_path, digests)
    events_path = events_path_for(journal.path)

    snapshots = []
    stop = threading.Event()

    def reader():
        while not stop.is_set():
            progress = SweepJournal(journal.path).progress()
            replayed = SweepJournal(journal.path).replay()
            events = read_events(events_path)
            snapshots.append((progress, len(replayed), len(events)))
            time.sleep(0.005)

    thread = threading.Thread(target=reader)
    thread.start()
    try:
        results = sweep(scenarios, jobs=2, resume=True, journal=tmp_path)
    finally:
        stop.set()
        thread.join()
    assert len(results) == 10
    # the reader observed monotonically growing, never-corrupt state
    assert snapshots
    ok_counts = [p["ok"] for p, _, _ in snapshots]
    assert ok_counts == sorted(ok_counts)
    assert all(replayed <= 10 for _, replayed, _ in snapshots)
    final = SweepJournal(journal.path).progress()
    assert final["ok"] == 10
    assert final["distinct_ok"] == 10
    assert final["corrupt"] == 0
    counts = summarize_events(read_events(events_path))
    assert counts["scenario-finished"] == 10


def test_journal_progress_tolerates_truncated_tail(tmp_path):
    scenarios = [tiny(label="t0"), tiny(label="t1")]
    digests = [s.digest() for s in scenarios]
    sweep(scenarios, jobs=1, resume=True, journal=tmp_path)
    journal = SweepJournal.for_sweep(tmp_path, digests)
    raw = journal.path.read_text()
    # simulate a writer killed mid-line
    journal.path.write_text(raw + raw.splitlines()[0][: len(raw) // 4])
    progress = journal.progress()
    assert progress["ok"] == 2
    assert progress["corrupt"] == 1  # the unterminated tail
    assert journal.replay()  # replay still reconstructs both results


# --------------------------------------------------------------------- #
# disabled-recorder overhead budget
# --------------------------------------------------------------------- #


def _min_wall(fn, rounds=3):
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_disabled_flight_guard_overhead_under_2_percent():
    """With no telemetry surface enabled the executor pays one
    ``flight is not None`` guard per event site.  Time the guards a full
    sweep's worth of events would evaluate against the sweep's own wall
    clock: the budget is <2% (mirrors the validation-hooks overhead
    test; min-of-N keeps it stable on noisy CI machines).
    """
    scenarios = SCENARIOS[:4]
    sweep(scenarios, jobs=1)  # warm imports/caches outside the timing

    sweep_wall = _min_wall(lambda: sweep(scenarios, jobs=1))

    # Guard sites per scenario on the inline path: cache check, dispatch,
    # success; plus begin/end sites.  Over-count generously (x4) so the
    # budget holds even if future emit sites are added.
    num_guards = 4 * (3 * len(scenarios) + 4)
    flight = None

    def guards():
        sink = False
        for _ in range(num_guards):
            sink = flight is not None
        return sink

    guard_wall = _min_wall(guards, rounds=5)
    overhead = guard_wall / sweep_wall
    assert overhead < 0.02, (
        f"disabled-recorder guards cost {overhead:.1%} of a sweep "
        f"({num_guards} guards, {guard_wall * 1e3:.3f}ms vs "
        f"{sweep_wall * 1e3:.1f}ms)"
    )


def test_pmap_progress_smoke(capsys):
    """pmap(progress=True) renders at least a final status line and does
    not disturb results."""
    items = list(range(6))
    assert pmap(_square, items, jobs=2, progress=True) == [
        i * i for i in items
    ]
    err = capsys.readouterr().err
    assert "sweep 6/6" in err
    assert "done" in err
