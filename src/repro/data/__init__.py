"""Data pipeline substrate: corpus, tokenizer, dataset, DP-aware sampling.

The paper trains GPT on text corpora through Megatron's data pipeline; this
subpackage is the reproduction's equivalent, sized for the NumPy training
substrate (:mod:`repro.nn`):

- :mod:`repro.data.corpus` — a deterministic synthetic "language"
  (Markov-chain word generator) standing in for the paper's proprietary
  corpus;
- :mod:`repro.data.tokenizer` — a trainable byte-pair-encoding tokenizer;
- :mod:`repro.data.dataset` — fixed-length LM samples over a token stream,
  plus the data-parallel sampler that hands each DP replica a disjoint,
  epoch-shuffled shard (ranks of the same replica see identical data, the
  Megatron invariant).
"""

from repro._lazy import lazy_exports

__all__ = [
    "SyntheticCorpus",
    "BPETokenizer",
    "CharTokenizer",
    "TokenDataset",
    "DataParallelSampler",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.data.corpus": ("SyntheticCorpus",),
    "repro.data.tokenizer": ("BPETokenizer", "CharTokenizer"),
    "repro.data.dataset": ("DataParallelSampler", "TokenDataset"),
})
