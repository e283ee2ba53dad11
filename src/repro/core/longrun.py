"""Long-run training campaign simulation under failures.

:mod:`repro.core.faults` prices checkpointing analytically (Young/Daly);
this module *simulates* the campaign event by event — iterations,
checkpoints on schedule, failures drawn from a seeded exponential
distribution, rollbacks to the last checkpoint, restarts — and reports the
realised goodput.  The test suite checks the simulation converges to the
analytic prediction over long horizons (a strong mutual validation), and
the event log lets examples show *why* a checkpoint interval is right.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.faults import CheckpointPolicy, replan_after_failure
from repro.errors import ConfigurationError
from repro.hardware.topology import ClusterTopology
from repro.model.config import GPTConfig


@dataclass(frozen=True)
class CampaignEvent:
    """One event in the campaign timeline."""

    time: float
    kind: str  # "checkpoint" | "failure" | "restart-complete"
    detail: str = ""


@dataclass
class CampaignResult:
    """Outcome of one simulated campaign."""

    horizon: float
    useful_time: float
    checkpoint_time: float
    lost_time: float
    restart_time: float
    iterations_completed: int
    events: List[CampaignEvent] = field(default_factory=list)

    @property
    def goodput(self) -> float:
        return self.useful_time / self.horizon if self.horizon > 0 else 0.0

    @property
    def num_failures(self) -> int:
        return sum(1 for e in self.events if e.kind == "failure")


def simulate_campaign(
    policy: CheckpointPolicy,
    iteration_time: float,
    horizon: float,
    interval: Optional[float] = None,
    seed: int = 0,
) -> CampaignResult:
    """Simulate ``horizon`` seconds of training under the policy.

    Failures arrive as a Poisson process with rate ``1/policy.mtbf``; on
    failure, all progress since the last checkpoint is lost and a restart
    of ``policy.restart_time`` follows.  Checkpoints happen every
    ``interval`` seconds of progress (default: the Young/Daly optimum),
    each costing ``policy.checkpoint_time`` of blocked time.
    """
    if iteration_time <= 0:
        raise ConfigurationError(f"iteration_time must be positive: {iteration_time}")
    if horizon <= 0:
        raise ConfigurationError(f"horizon must be positive: {horizon}")
    T = interval if interval is not None else policy.optimal_interval
    if T <= 0:
        raise ConfigurationError(f"interval must be positive: {T}")

    import numpy as np

    rng = np.random.default_rng(seed)
    now = 0.0
    useful = 0.0
    ckpt_total = 0.0
    lost = 0.0
    restart_total = 0.0
    since_checkpoint = 0.0
    events: List[CampaignEvent] = []
    next_failure = float(rng.exponential(policy.mtbf))

    while now < horizon:
        # Work until the next checkpoint boundary, failure, or horizon.
        until_ckpt = T - since_checkpoint
        step = min(until_ckpt, next_failure - now, horizon - now)
        if step > 0:
            now += step
            useful += step
            since_checkpoint += step
        if now >= horizon:
            break
        if now >= next_failure:
            # Failure: lose progress since the last checkpoint, restart.
            events.append(CampaignEvent(now, "failure",
                                        f"lost {since_checkpoint:.0f}s"))
            useful -= since_checkpoint
            lost += since_checkpoint
            since_checkpoint = 0.0
            restart_end = min(now + policy.restart_time, horizon)
            restart_total += restart_end - now
            now = restart_end
            events.append(CampaignEvent(now, "restart-complete"))
            next_failure = now + float(rng.exponential(policy.mtbf))
            continue
        # Checkpoint boundary reached.
        ckpt_end = min(now + policy.checkpoint_time, horizon)
        ckpt_total += ckpt_end - now
        now = ckpt_end
        since_checkpoint = 0.0
        events.append(CampaignEvent(now, "checkpoint"))
        if next_failure < now:
            # A failure during the checkpoint window lands after it.
            next_failure = now

    useful = max(0.0, useful)
    # Iterations are counted against *surviving* useful time at the end, so
    # fractional residue carries across work segments instead of being
    # truncated at every checkpoint/failure boundary (which systematically
    # under-counted long campaigns with short intervals).
    return CampaignResult(
        horizon=horizon,
        useful_time=useful,
        checkpoint_time=ckpt_total,
        lost_time=lost,
        restart_time=restart_total,
        iterations_completed=int(useful / iteration_time),
        events=events,
    )


# ---------------------------------------------------------------------- #
# elastic recovery under per-node churn
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class ElasticPolicy:
    """A fleet-level failure/recovery model for elastic training.

    Unlike :class:`~repro.core.faults.CheckpointPolicy` (which sees the job
    as one black box with one MTBF), this models ``num_nodes`` nodes that
    fail *independently* with per-node ``node_mtbf``; with probability
    ``correlated_outage_prob`` a failure is actually a cluster-level outage
    (switch/power domain) taking ``cluster_size`` nodes at once.

    On failure the job recovers *elastically*: progress since the last
    checkpoint is lost, ``reconfig_time`` is paid to drain, replan, and
    rebuild communicators, and training continues on the survivors at a
    degraded throughput fraction.  Repaired nodes return after
    ``repair_time`` and pay another ``reconfig_time`` to rejoin.
    """

    num_nodes: int
    node_mtbf: float  # seconds, per node
    repair_time: float  # seconds until a failed node rejoins
    reconfig_time: float  # drain + replan + communicator rebuild
    correlated_outage_prob: float = 0.0
    cluster_size: int = 1

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise ConfigurationError(f"num_nodes must be >= 1: {self.num_nodes}")
        if self.node_mtbf <= 0:
            raise ConfigurationError(f"node_mtbf must be positive: {self.node_mtbf}")
        if self.repair_time < 0 or self.reconfig_time < 0:
            raise ConfigurationError(
                "repair_time and reconfig_time must be >= 0"
            )
        if not 0.0 <= self.correlated_outage_prob <= 1.0:
            raise ConfigurationError(
                f"correlated_outage_prob must be in [0, 1]: "
                f"{self.correlated_outage_prob}"
            )
        if not 1 <= self.cluster_size <= self.num_nodes:
            raise ConfigurationError(
                f"cluster_size must be in [1, num_nodes]: {self.cluster_size}"
            )

    @property
    def job_failure_rate(self) -> float:
        """First-failure rate of the full fleet (failures per second)."""
        return self.num_nodes / self.node_mtbf


@dataclass
class ElasticCampaignResult:
    """Outcome of one simulated elastic campaign.

    ``useful_time`` is in *full-speed-equivalent* seconds: a second spent
    running on a degraded fleet at throughput fraction phi contributes phi
    seconds, so ``goodput`` is directly comparable to the non-elastic
    :class:`CampaignResult` and to the analytic prediction.
    """

    horizon: float
    useful_time: float
    checkpoint_time: float
    lost_time: float
    reconfig_time: float
    degraded_time: float  # wall seconds running with < num_nodes alive
    idle_time: float  # wall seconds with zero nodes alive
    iterations_completed: int
    min_alive: int
    events: List[CampaignEvent] = field(default_factory=list)

    @property
    def goodput(self) -> float:
        return self.useful_time / self.horizon if self.horizon > 0 else 0.0

    @property
    def num_failures(self) -> int:
        return sum(1 for e in self.events if e.kind == "failure")


def linear_throughput_fraction(alive: int, total: int) -> float:
    """Default degraded-throughput model: throughput scales with the
    surviving share of the fleet (perfect elasticity)."""
    return alive / total if total > 0 else 0.0


def degraded_throughput_fractions(
    topology: ClusterTopology,
    model: GPTConfig,
    global_batch_size: int,
    max_failures: int,
    micro_batch_size: int = 4,
    **kwargs: object,
) -> Dict[int, float]:
    """Replan-derived throughput fractions keyed by number of failed nodes.

    For each failure count ``k`` the planner (:func:`replan_after_failure`)
    is run on the machine with the *last* ``k`` nodes removed — a
    representative blast radius — and the best surviving Holmes layout's
    throughput (``.discovered[0]``) is normalised against the healthy plan.  Feed the result into
    :func:`simulate_elastic_campaign` via ``throughput_fractions`` to
    replace the linear default with planner-backed degradation.
    """
    if max_failures < 0:
        raise ConfigurationError(f"max_failures must be >= 0: {max_failures}")
    if max_failures >= topology.num_nodes:
        raise ConfigurationError(
            f"max_failures={max_failures} leaves no survivors on a "
            f"{topology.num_nodes}-node machine"
        )
    fractions: Dict[int, float] = {}
    baseline: Optional[float] = None
    for k in range(max_failures + 1):
        failed = list(range(topology.num_nodes - k, topology.num_nodes))
        throughput = replan_after_failure(
            topology, failed, model, global_batch_size, micro_batch_size,
            **kwargs,
        ).discovered[0].throughput
        if baseline is None:
            baseline = throughput
        fractions[k] = throughput / baseline if baseline > 0 else 0.0
    return fractions


def simulate_elastic_campaign(
    policy: ElasticPolicy,
    checkpoint: CheckpointPolicy,
    iteration_time: float,
    horizon: float,
    interval: Optional[float] = None,
    throughput_fractions: Optional[Dict[int, float]] = None,
    seed: int = 0,
) -> ElasticCampaignResult:
    """Simulate ``horizon`` seconds of elastic training under node churn.

    Failures arrive per-node (rate ``alive / node_mtbf``); each failure
    kills one node — or, with ``policy.correlated_outage_prob``, a whole
    ``policy.cluster_size``-node cluster.  The job loses progress since the
    last checkpoint, pays ``policy.reconfig_time``, and keeps training on
    the survivors at a degraded throughput fraction: by default the linear
    ``alive / num_nodes``, or ``throughput_fractions[failed_count]`` when a
    planner-derived mapping (see :func:`degraded_throughput_fractions`) is
    given.  Failed nodes rejoin after ``policy.repair_time`` (paying
    another reconfig).  Checkpoints land every ``interval`` seconds of wall
    running time (default: the Young/Daly optimum of ``checkpoint``).
    """
    if iteration_time <= 0:
        raise ConfigurationError(f"iteration_time must be positive: {iteration_time}")
    if horizon <= 0:
        raise ConfigurationError(f"horizon must be positive: {horizon}")
    T = interval if interval is not None else checkpoint.optimal_interval
    if T <= 0:
        raise ConfigurationError(f"interval must be positive: {T}")

    total = policy.num_nodes

    def phi(alive: int) -> float:
        if alive <= 0:
            return 0.0
        if throughput_fractions is not None:
            failed = total - alive
            if failed in throughput_fractions:
                return throughput_fractions[failed]
            # Beyond the mapped range: fall back to the worst mapped value
            # scaled linearly (conservative, keeps the simulation running).
            worst = min(throughput_fractions, key=throughput_fractions.get)
            return throughput_fractions[worst] * linear_throughput_fraction(
                alive, total - worst
            )
        return linear_throughput_fraction(alive, total)

    import numpy as np

    rng = np.random.default_rng(seed)
    now = 0.0
    useful = 0.0  # full-speed-equivalent seconds
    ckpt_total = 0.0
    lost = 0.0
    reconfig_total = 0.0
    degraded_wall = 0.0
    idle_wall = 0.0
    since_ckpt_wall = 0.0  # wall seconds of running since last checkpoint
    since_ckpt_prog = 0.0  # phi-weighted progress since last checkpoint
    alive = total
    min_alive = total
    repairs: List[float] = []  # completion times, sorted
    events: List[CampaignEvent] = []

    def draw_failure() -> float:
        """Next failure time from now, for the current fleet size."""
        if alive == 0:
            return float("inf")
        return now + float(rng.exponential(policy.node_mtbf / alive))

    next_failure = draw_failure()

    def pay_reconfig() -> None:
        nonlocal now, reconfig_total
        end = min(now + policy.reconfig_time, horizon)
        reconfig_total += end - now
        now = end

    while now < horizon:
        next_repair = repairs[0] if repairs else float("inf")
        if alive == 0:
            # Nothing to run on: idle until the first repair lands.
            end = min(next_repair, horizon)
            idle_wall += end - now
            now = end
            if now >= horizon:
                break
            repairs.pop(0)
            alive += 1
            pay_reconfig()
            events.append(CampaignEvent(now, "repair", "alive=1"))
            next_failure = draw_failure()
            continue

        until_ckpt = T - since_ckpt_wall
        step = min(
            until_ckpt, next_failure - now, next_repair - now, horizon - now
        )
        if step > 0:
            now += step
            useful += step * phi(alive)
            since_ckpt_wall += step
            since_ckpt_prog += step * phi(alive)
            if alive < total:
                degraded_wall += step
        if now >= horizon:
            break

        if next_repair <= now:
            # A repaired node rejoins: pay a reconfig, speed back up.
            repairs.pop(0)
            alive += 1
            pay_reconfig()
            events.append(CampaignEvent(now, "repair", f"alive={alive}"))
            next_failure = draw_failure()
            continue

        if next_failure <= now:
            correlated = (
                policy.correlated_outage_prob > 0.0
                and float(rng.uniform()) < policy.correlated_outage_prob
            )
            killed = min(policy.cluster_size if correlated else 1, alive)
            alive -= killed
            min_alive = min(min_alive, alive)
            for _ in range(killed):
                insort(repairs, now + policy.repair_time)
            useful -= since_ckpt_prog
            lost += since_ckpt_prog
            since_ckpt_prog = 0.0
            since_ckpt_wall = 0.0
            kind = "cluster-outage" if correlated else "failure"
            events.append(
                CampaignEvent(
                    now,
                    "failure",
                    f"{kind}: -{killed} node(s), alive={alive}",
                )
            )
            if alive > 0:
                pay_reconfig()
            next_failure = draw_failure()
            continue

        # Checkpoint boundary reached.
        ckpt_end = min(now + checkpoint.checkpoint_time, horizon)
        ckpt_total += ckpt_end - now
        now = ckpt_end
        since_ckpt_wall = 0.0
        since_ckpt_prog = 0.0
        events.append(CampaignEvent(now, "checkpoint"))
        if next_failure < now:
            next_failure = now  # a failure during the write lands after it

    useful = max(0.0, useful)
    return ElasticCampaignResult(
        horizon=horizon,
        useful_time=useful,
        checkpoint_time=ckpt_total,
        lost_time=lost,
        reconfig_time=reconfig_total,
        degraded_time=degraded_wall,
        idle_time=idle_wall,
        iterations_completed=int(useful / iteration_time),
        min_alive=min_alive,
        events=events,
    )


def elastic_goodput_analytic(
    policy: ElasticPolicy,
    checkpoint: CheckpointPolicy,
    interval: Optional[float] = None,
    throughput_fractions: Optional[Dict[int, float]] = None,
) -> float:
    """First-order analytic goodput of an elastic campaign.

    Valid in the rare-failure regime (``node_mtbf >> repair_time, T``),
    mirroring Young/Daly's derivation: with fleet failure rate
    ``lam = num_nodes / node_mtbf``, each failure costs half a checkpoint
    interval of lost work, two reconfigs (leave + rejoin), and a repair
    window run at the one-node-short throughput fraction instead of full
    speed.  Checkpoint writes cost ``C / T`` continuously.

    The seeded simulation (:func:`simulate_elastic_campaign`) converges to
    this value over long horizons — the test suite checks it.
    """
    T = interval if interval is not None else checkpoint.optimal_interval
    if T <= 0:
        raise ConfigurationError(f"interval must be positive: {T}")
    lam = policy.job_failure_rate
    if throughput_fractions is not None and 1 in throughput_fractions:
        phi_short = throughput_fractions[1]
    else:
        phi_short = linear_throughput_fraction(
            policy.num_nodes - 1, policy.num_nodes
        )
    per_failure = (
        T / 2.0
        + 2.0 * policy.reconfig_time
        + policy.repair_time * (1.0 - phi_short)
    )
    fraction = 1.0 - checkpoint.checkpoint_time / T - lam * per_failure
    return max(0.0, fraction)


def campaign_summary(result: CampaignResult) -> str:
    """One-paragraph human-readable campaign accounting."""
    return (
        f"goodput {result.goodput:.1%} over {result.horizon:.0f}s: "
        f"useful {result.useful_time:.0f}s, "
        f"checkpoints {result.checkpoint_time:.0f}s, "
        f"lost {result.lost_time:.0f}s, "
        f"restarts {result.restart_time:.0f}s, "
        f"{result.num_failures} failure(s), "
        f"{result.iterations_completed} iterations"
    )
