"""Parallel trainers over the NumPy GPT, using this library's collectives.

Three trainers with identical interfaces (``step(tokens, targets) ->
loss``):

- :class:`SingleTrainer` — the reference.
- :class:`DataParallelTrainer` — ``d`` model replicas; the batch is split
  along its first axis; each replica computes gradients on its shard and
  the shards are synchronised with a real
  :func:`~repro.collectives.ring.ring_allreduce` over the flattened
  gradient vector, then averaged.  Mathematically identical to the single
  trainer on the full batch (tested to float tolerance).
- :class:`PipelineParallelTrainer` — the block stack is split into
  contiguous stages (optionally by a Holmes-style uneven partition); the
  forward pass hands activations stage to stage, the backward pass hands
  activation-gradients back, exactly like the simulated pipeline's p2p
  traffic — then all stages' gradients are concatenated and applied to
  the single underlying parameter set.  Also identical to the reference.

The correspondence between these trainers and the *timing* simulation in
:mod:`repro.core.engine` is the point: the simulator prices a schedule
whose numerics are proven here.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.collectives.ring import ring_allreduce
from repro.errors import ConfigurationError
from repro.nn.model import TinyGPT, TinyGPTConfig
from repro.nn.optim import Adam
from repro.nn.tensorops import (
    cross_entropy_backward,
    cross_entropy_forward,
    tree_flatten_grads,
    tree_unflatten_grads,
)


class SingleTrainer:
    """Reference single-process trainer, with optional microbatching.

    ``num_microbatches > 1`` splits each step's batch and accumulates
    gradients — numerically identical to the full-batch step (equal-sized
    microbatches average exactly), which is the invariant that lets the
    pipeline schedules split batches at all.

    The knob's spelling is ``num_microbatches`` (matching
    :class:`repro.api.Scenario`).
    """

    def __init__(self, config: TinyGPTConfig, seed: int = 0,
                 lr: float = 1e-3, num_microbatches: int = 1) -> None:
        if num_microbatches < 1:
            raise ConfigurationError("num_microbatches must be >= 1")
        self.model = TinyGPT(config, seed=seed)
        self.optimizer = Adam(lr=lr)
        self.num_microbatches = num_microbatches

    def step(self, tokens: np.ndarray, targets: np.ndarray) -> float:
        m = self.num_microbatches
        if tokens.shape[0] % m != 0:
            raise ConfigurationError(
                f"batch {tokens.shape[0]} not divisible into {m} microbatches"
            )
        if m == 1:
            loss, grads = self.model.loss_and_grads(tokens, targets)
        else:
            total: Dict[str, np.ndarray] = self.model.zero_grads()
            losses = []
            for tok, tgt in zip(np.split(tokens, m), np.split(targets, m)):
                mb_loss, mb_grads = self.model.loss_and_grads(tok, tgt)
                losses.append(mb_loss)
                for key in total:
                    total[key] += mb_grads[key]
            for key in total:
                total[key] /= m  # mean of per-microbatch mean-gradients
            loss, grads = float(np.mean(losses)), total
        self.optimizer.step(self.model.params, grads)
        return loss

    def evaluate(self, tokens: np.ndarray, targets: np.ndarray) -> float:
        return self.model.loss(tokens, targets)


class DataParallelTrainer:
    """``world`` replicas synchronising gradients via ring all-reduce."""

    def __init__(self, config: TinyGPTConfig, world: int, seed: int = 0,
                 lr: float = 1e-3) -> None:
        if world < 1:
            raise ConfigurationError(f"world must be >= 1: {world}")
        self.world = world
        base = TinyGPT(config, seed=seed)
        self.replicas: List[TinyGPT] = [base] + [
            base.clone() for _ in range(world - 1)
        ]
        self.optimizer = Adam(lr=lr)

    @property
    def model(self) -> TinyGPT:
        return self.replicas[0]

    def step(self, tokens: np.ndarray, targets: np.ndarray) -> float:
        B = tokens.shape[0]
        if B % self.world != 0:
            raise ConfigurationError(
                f"batch {B} not divisible by world {self.world}"
            )
        token_shards = np.split(tokens, self.world)
        target_shards = np.split(targets, self.world)

        losses = []
        shard_grads: List[Dict[str, np.ndarray]] = []
        for replica, tok, tgt in zip(self.replicas, token_shards, target_shards):
            loss, grads = replica.loss_and_grads(tok, tgt)
            losses.append(loss)
            shard_grads.append(grads)

        # Gradient aggregation through the actual ring algorithm
        # (the paper's S3.2 "Gradient Aggregation" step).
        flats = [tree_flatten_grads(g) for g in shard_grads]
        reduced = ring_allreduce(flats, op="sum")
        mean_grads = tree_unflatten_grads(
            reduced[0] / self.world, shard_grads[0]
        )

        # Every replica applies the same update (we share one optimizer and
        # copy parameters, mirroring the all-gather of updated weights).
        self.optimizer.step(self.model.params, mean_grads)
        for replica in self.replicas[1:]:
            for key, value in self.model.params.items():
                replica.params[key][...] = value
        return float(np.mean(losses))

    def evaluate(self, tokens: np.ndarray, targets: np.ndarray) -> float:
        return self.model.loss(tokens, targets)

    def replicas_in_sync(self) -> bool:
        """All replicas hold bit-identical parameters (DP invariant)."""
        head = self.model.params
        return all(
            all(np.array_equal(head[k], r.params[k]) for k in head)
            for r in self.replicas[1:]
        )


class PipelineParallelTrainer:
    """Stage-split execution of one model.

    ``stage_blocks[s]`` is the number of transformer blocks owned by stage
    ``s`` (a Holmes-style uneven partition is allowed); the embedding
    belongs to the first stage and the head to the last, matching the
    simulator's layer assignment.
    """

    def __init__(self, config: TinyGPTConfig,
                 stage_blocks: Sequence[int], seed: int = 0,
                 lr: float = 1e-3) -> None:
        if sum(stage_blocks) != config.num_blocks:
            raise ConfigurationError(
                f"stage blocks {list(stage_blocks)} do not sum to "
                f"{config.num_blocks}"
            )
        if any(s < 0 for s in stage_blocks):
            raise ConfigurationError(f"negative stage size: {stage_blocks}")
        self.model = TinyGPT(config, seed=seed)
        self.optimizer = Adam(lr=lr)
        self.boundaries = [0]
        for count in stage_blocks:
            self.boundaries.append(self.boundaries[-1] + count)
        self.num_stages = len(stage_blocks)
        #: activation / gradient tensors exchanged between stages in the
        #: last step (inspectable: this is the simulated p2p payload).
        self.last_boundary_traffic: List[np.ndarray] = []

    def step(self, tokens: np.ndarray, targets: np.ndarray) -> float:
        model = self.model
        grads = model.zero_grads()
        self.last_boundary_traffic = []

        # Forward: stage by stage, handing activations across boundaries.
        x, emb_cache = model.embed(tokens)
        stage_caches = []
        for stage in range(self.num_stages):
            start, stop = self.boundaries[stage], self.boundaries[stage + 1]
            x, caches = model.forward_blocks(x, start, stop)
            stage_caches.append(caches)
            if stage < self.num_stages - 1:
                self.last_boundary_traffic.append(x.copy())
        logits, head_cache = model.head(x)
        loss, ce_cache = cross_entropy_forward(logits, targets)

        # Backward: gradients flow back through the stage boundaries.
        dx = model.head_backward(cross_entropy_backward(ce_cache), head_cache, grads)
        for stage in reversed(range(self.num_stages)):
            start, stop = self.boundaries[stage], self.boundaries[stage + 1]
            dx = model.backward_blocks(dx, stage_caches[stage], start, stop, grads)
            if stage > 0:
                self.last_boundary_traffic.append(dx.copy())
        model.embed_backward(dx, emb_cache, grads)

        self.optimizer.step(model.params, grads)
        return float(loss)

    def evaluate(self, tokens: np.ndarray, targets: np.ndarray) -> float:
        return self.model.loss(tokens, targets)


def make_lm_batch(
    rng: np.random.Generator, config: TinyGPTConfig, batch: int,
    pattern_period: int = 5,
) -> tuple:
    """A learnable synthetic language-modelling batch.

    Every sequence follows the *same fixed* periodic token pattern
    (determined by the model config, not the rng), entered at a random
    phase and corrupted with 5% token noise — so the next token is nearly
    deterministic given the current one, and a capable model's loss falls
    well below the uniform baseline ``log(V)``.  The rng only controls
    phases and noise.
    """
    T = config.seq_length
    # Fixed pattern of distinct tokens: position i -> (3 + 7*i) mod V.
    period = min(pattern_period, config.vocab_size)
    base = (3 + 7 * np.arange(period)) % config.vocab_size
    phases = rng.integers(0, period, size=batch)
    positions = (phases[:, None] + np.arange(T + 1)[None, :]) % period
    sequences = base[positions]
    noise = rng.random((batch, T + 1)) < 0.05
    sequences = np.where(
        noise, rng.integers(0, config.vocab_size, size=(batch, T + 1)),
        sequences,
    )
    return sequences[:, :-1], sequences[:, 1:]
