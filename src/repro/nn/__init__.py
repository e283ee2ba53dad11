"""Numerical training substrate: a NumPy transformer with manual backprop.

The paper validates its system with partial GPT training runs.  This
subpackage is the executable counterpart: a small but complete GPT
(:mod:`repro.nn.model`) whose gradients are hand-derived NumPy
(:mod:`repro.nn.tensorops`, verified against finite differences), an Adam
optimizer (:mod:`repro.nn.optim`), and parallel trainers
(:mod:`repro.nn.parallel_train`) that exercise this library's *actual
collectives*:

- the data-parallel trainer shards the batch over replicas and synchronises
  gradients through :func:`repro.collectives.ring.ring_allreduce`, and is
  numerically equivalent to single-process training;
- the pipeline-parallel trainer splits transformer blocks into stages and
  moves real activations/activation-gradients between them, matching the
  unsharded model's gradients bit-for-bit (up to float tolerance).

Nothing here aims for speed — it aims to prove the parallelism math the
simulator's timing model takes for granted.
"""

from repro._lazy import lazy_exports

__all__ = [
    "TinyGPT",
    "TinyGPTConfig",
    "Adam",
    "SGD",
    "SingleTrainer",
    "DataParallelTrainer",
    "PipelineParallelTrainer",
    "TensorParallelTrainer",
    "shard_block_params",
    "tp_block_forward",
    "tp_block_backward",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.nn.model": ("TinyGPT", "TinyGPTConfig"),
    "repro.nn.optim": ("Adam", "SGD"),
    "repro.nn.parallel_train": ("DataParallelTrainer", "PipelineParallelTrainer", "SingleTrainer"),
    "repro.nn.tensor_parallel": (
        "TensorParallelTrainer",
        "shard_block_params",
        "tp_block_backward",
        "tp_block_forward",
    ),
})
