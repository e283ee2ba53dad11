"""Ring passes that own their NIC-crossing edges.

While a pass provably holds an edge's NIC alone it prices the edge's steps
itself instead of sending each as a ``p2p.send`` process.  These tests pin
that the fast path engages where it should, that the sanitizer and the
metrics registry see owned steps exactly as they saw sends, that the
sanitizer catches an ownership test that lies, and that the executed
curve's event count grows about linearly with the world.
"""

import pytest

from repro.api import simulate
from repro.collectives import executor as executor_mod
from repro.errors import InvariantViolation
from repro.simcore.engine import SimEngine

from tests.collectives.stepwise_reference import stepwise_engine
from tests.collectives.test_fused_ring_differential import curve_scenario


@pytest.fixture
def counted(monkeypatch):
    """Counts of edges taken over by a pass and of ring steps sent."""
    counts = {"owned": 0, "sent": 0}
    own, start_send = executor_mod._RingPass._own, executor_mod._RingPass._start_send

    def counting_own(self, i):
        counts["owned"] += 1
        return own(self, i)

    def counting_send(self, i, s, inline):
        counts["sent"] += 1
        return start_send(self, i, s, inline)

    monkeypatch.setattr(executor_mod._RingPass, "_own", counting_own)
    monkeypatch.setattr(executor_mod._RingPass, "_start_send", counting_send)
    return counts


def test_curve_edges_are_all_owned(counted):
    """On the executed curve no ring step is sent: 2 DP rings x 2 nodes x
    (reduce-scatter + all-gather) edges are owned."""
    simulate(curve_scenario(32))
    assert counted == {"owned": 8, "sent": 0}


def test_uplink_edges_stay_sends(counted):
    """A ring over both clusters owns its in-cluster edges only."""
    simulate(curve_scenario(32, pipeline=1, num_layers=8))
    assert counted["owned"] > 0 and counted["sent"] > 0


@pytest.mark.parametrize(
    "overrides",
    [
        dict(env="ib", tensor=2, num_layers=8),
        dict(framework="holmes-full"),
        dict(stragglers=((5, 1.3),)),
    ],
    ids=["two-rings-per-nic", "overlapped-buckets", "straggler"],
)
def test_demoted_layouts_own_nothing(counted, overrides):
    simulate(curve_scenario(32, **overrides))
    assert counted["owned"] == 0 and counted["sent"] > 0


@pytest.mark.parametrize(
    "overrides", [{}, dict(pipeline=1, num_layers=8)], ids=["curve", "uplink"]
)
def test_owned_steps_published_like_sends(overrides):
    """The run's metrics registry equals the step-by-step reference's:
    every owned step is counted with the bytes and seconds a send adds."""
    scenario = curve_scenario(32, **overrides)
    fused = simulate(scenario)
    with stepwise_engine():
        ref = simulate(scenario)
    assert fused.registry.snapshot() == ref.registry.snapshot()


def test_owned_steps_pass_the_sanitizer(counted):
    """Owned steps feed the byte-conservation ledger step by step and
    claim their NIC intervals; a valid run raises nothing."""
    scenario = curve_scenario(32, validate=True)
    fused = simulate(scenario)
    assert counted["owned"] == 8
    with stepwise_engine():
        ref = simulate(scenario)
    assert fused.iteration_time == ref.iteration_time


def test_lying_ownership_test_is_caught(monkeypatch):
    """Forced true where two rings share every NIC (and no pipeline sends
    do), the owned intervals overlap, and the sanitizer's exclusive-grant
    audit fails the run."""
    monkeypatch.setattr(executor_mod._RingPass, "_owns", lambda self, i: True)
    scenario = curve_scenario(
        32, env="ib", tensor=2, pipeline=1, num_layers=8, validate=True
    )
    with pytest.raises(InvariantViolation) as exc_info:
        simulate(scenario)
    assert exc_info.value.invariant == "resource.capacity"
    assert "another owned interval" in str(exc_info.value)


def test_owned_interval_seen_by_a_real_grant(monkeypatch):
    """Forced true where gradient buckets overlap pipeline sends on one
    NIC, an owned interval meets a real NIC grant and the audit fails."""
    monkeypatch.setattr(executor_mod._RingPass, "_owns", lambda self, i: True)
    scenario = curve_scenario(
        32, env="ethernet", framework="holmes-full", validate=True
    )
    with pytest.raises(InvariantViolation) as exc_info:
        simulate(scenario)
    assert exc_info.value.invariant == "resource.capacity"
    assert "grant" in str(exc_info.value)


def _engine_steps(monkeypatch, scenario) -> int:
    steps = []
    run = SimEngine.run

    def counting_run(engine, *args, **kwargs):
        try:
            return run(engine, *args, **kwargs)
        finally:
            steps.append(engine.steps)

    monkeypatch.setattr(SimEngine, "run", counting_run)
    simulate(scenario)
    monkeypatch.setattr(SimEngine, "run", run)
    return sum(steps)


def test_executed_curve_events_grow_about_linearly(monkeypatch):
    """Engine steps per doubling of the executed curve (32 -> 64 -> 128
    GPUs) stay under 2.5x; a send per NIC step grows them ~3-4x."""
    steps = [
        _engine_steps(monkeypatch, curve_scenario(world))
        for world in (32, 64, 128)
    ]
    for before, after in zip(steps, steps[1:]):
        assert after <= 2.5 * before, steps
