"""Tiered-fidelity engine: classification, telescoping, and diagnostics.

The ``auto`` tier's aggregate collective must *telescope* — one Barrier
event priced by the closed-form oracle spans exactly the window the oracle
reports (float identity, not the 1% executed-vs-oracle band) — and the
:class:`~repro.network.contention.FidelityPolicy` must classify spans
conservatively: anything contended, degraded, or fault-exposed drops down
to executed DES, and forcing ``analytic`` on such a scenario is a loud
:class:`~repro.errors.FidelityError`, never a silently wrong number.
"""

import dataclasses

import pytest

from repro.api import Scenario, simulate
from repro.collectives.executor import CollectiveExecutor
from repro.collectives.p2p import ChannelRegistry
from repro.errors import ConfigurationError, FidelityError
from repro.hardware.nic import NICType
from repro.hardware.presets import homogeneous_topology
from repro.network.contention import FIDELITY_MODES, FidelityPolicy
from repro.network.fabric import Fabric
from repro.simcore.engine import SimEngine
from repro.units import MB
from repro.validate.metamorphic import FIDELITY_RTOL
from repro.validate.scenarios import sample_scenarios

FAMILIES = [NICType.INFINIBAND, NICType.ROCE, NICType.ETHERNET]

#: a contention-free scenario: pure data parallelism, no p2p, no faults
FLAT = Scenario(
    env="ib",
    nodes=4,
    gpus_per_node=1,
    num_layers=4,
    hidden_size=256,
    num_attention_heads=4,
    tensor=1,
    pipeline=1,
    data=4,
    micro_batch_size=1,
    num_microbatches=2,
    framework="holmes-no-overlap",
    label="flat",
)


def run_aggregate(topo, op, ranks, nbytes):
    """Execute one collective through the auto-tier aggregate path."""
    engine = SimEngine()
    fabric = Fabric(topo, engine=engine)
    policy = FidelityPolicy("auto", fabric, [tuple(ranks)])
    assert policy.collective_analytic(ranks)
    executor = CollectiveExecutor(fabric, ChannelRegistry(engine), fidelity=policy)
    for r in ranks:
        engine.process(
            executor.run_op(op, ranks, r, float(nbytes), tag="op"),
            name=f"rank{r}",
        )
    engine.run()
    return engine.now


class TestAggregateTelescopes:
    """Satellite property: the auto-tier aggregate collective telescopes
    *exactly* to the closed form the oracle reports."""

    pytestmark = pytest.mark.property

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("group_size", [2, 4, 8])
    @pytest.mark.parametrize("op", ["reduce_scatter", "allgather", "allreduce"])
    def test_matches_oracle_to_float_identity(self, family, group_size, op):
        topo = homogeneous_topology(group_size, family, gpus_per_node=1)
        ranks = list(range(group_size))
        makespan = run_aggregate(topo, op, ranks, 64 * MB)
        oracle = Fabric(topo).collective_time(op, ranks, 64 * MB)
        assert makespan == pytest.approx(oracle, rel=1e-12)

    def test_hierarchical_matches_oracle(self):
        from repro.collectives.hierarchical import hierarchical_allreduce_time

        topo = homogeneous_topology(4, NICType.INFINIBAND, gpus_per_node=2)
        ranks = list(range(8))
        makespan = run_aggregate(topo, "hierarchical_allreduce", ranks, 64 * MB)
        oracle = hierarchical_allreduce_time(Fabric(topo), ranks, 64 * MB)
        assert makespan == pytest.approx(oracle, rel=1e-12)


class TestPolicyClassification:
    def _fabric(self, nodes=4, gpus_per_node=2):
        topo = homogeneous_topology(nodes, NICType.INFINIBAND, gpus_per_node)
        return Fabric(topo, engine=SimEngine())

    def test_bad_mode_rejected(self):
        with pytest.raises(FidelityError):
            FidelityPolicy("turbo", self._fabric(), [])

    def test_executed_mode_prices_nothing_analytically(self):
        fabric = self._fabric()
        policy = FidelityPolicy("executed", fabric, [(0, 2, 4, 6)])
        assert not policy.collective_analytic((0, 2, 4, 6))
        assert policy.summary()["fallback_reasons"] == []

    def test_single_node_ring_is_analytic(self):
        fabric = self._fabric()
        policy = FidelityPolicy("auto", fabric, [(0, 1)])
        assert policy.collective_analytic((0, 1))

    def test_rings_sharing_a_nic_fall_back(self):
        fabric = self._fabric()
        ring_a, ring_b = (0, 2, 4, 6), (1, 3, 5, 7)
        policy = FidelityPolicy("auto", fabric, [ring_a, ring_b])
        assert not policy.collective_analytic(ring_a)
        assert not policy.collective_analytic(ring_b)
        assert any("shares NIC" in r for r in policy.reasons)

    def test_faults_force_full_fallback(self):
        fabric = self._fabric()
        policy = FidelityPolicy("auto", fabric, [(0, 2, 4, 6)], has_faults=True)
        assert not policy.collective_analytic((0, 2, 4, 6))
        assert any("fault" in r for r in policy.reasons)

    def test_analytic_mode_raises_on_contention(self):
        """Satellite property: ``analytic`` on a scenario it cannot price
        is a clear diagnostic, not a wrong answer."""
        fabric = self._fabric()
        with pytest.raises(FidelityError) as exc:
            FidelityPolicy("analytic", fabric, [(0, 2, 4, 6), (1, 3, 5, 7)])
        assert "executed DES" in str(exc.value)
        assert exc.value.reasons


class TestEndToEnd:
    pytestmark = pytest.mark.property

    def test_auto_matches_executed_within_tolerance(self):
        executed = simulate(FLAT)
        auto = simulate(dataclasses.replace(FLAT, fidelity="auto"))
        rel = abs(auto.iteration_time - executed.iteration_time) / (
            executed.iteration_time
        )
        assert rel <= FIDELITY_RTOL

    def test_analytic_refuses_faulted_scenario(self):
        scenario = next(
            s for s in sample_scenarios(20, seed=0) if s.fault_seed is not None
        )
        with pytest.raises(FidelityError) as exc:
            simulate(dataclasses.replace(scenario, fidelity="analytic"))
        assert "fault" in str(exc.value)


class TestScenarioFidelityContract:
    def test_fidelity_is_part_of_the_digest(self):
        base = FLAT
        auto = dataclasses.replace(base, fidelity="auto")
        assert base.digest() != auto.digest()
        assert base.canonical()["fidelity"] == "executed"
        assert auto.canonical()["fidelity"] == "auto"

    def test_canonical_round_trip_and_legacy_default(self):
        auto = dataclasses.replace(FLAT, fidelity="auto")
        assert Scenario.from_canonical(auto.canonical()) == auto
        legacy = dict(FLAT.canonical())
        legacy.pop("fidelity")
        assert Scenario.from_canonical(legacy).fidelity == "executed"

    def test_invalid_fidelity_rejected(self):
        with pytest.raises(ConfigurationError):
            dataclasses.replace(FLAT, fidelity="bogus")

    def test_modes_constant_exported(self):
        import repro.api as api

        assert api.FIDELITY_MODES == FIDELITY_MODES == (
            "executed", "analytic", "auto",
        )
