"""Parallel sweep determinism: worker partitioning and serial equality."""

import pytest

from repro.api import Scenario, sweep
from repro.errors import ConfigurationError
from repro.exec import ResultCache, partition, pmap, resolve_jobs


def tiny(**overrides):
    kw = dict(
        env="ib", nodes=2, gpus_per_node=2,
        num_layers=4, hidden_size=256, num_attention_heads=4,
        seq_length=128, vocab_size=1024,
        pipeline=2, micro_batch_size=1, num_microbatches=2,
    )
    kw.update(overrides)
    return Scenario(**kw)


SCENARIOS = [
    tiny(label="a"),
    tiny(env="roce", label="b"),
    tiny(env="hybrid", label="c"),
    tiny(env="ethernet", label="d"),
    tiny(nodes=4, pipeline=2, label="e"),
    tiny(fault_seed=3, fault_count=2, label="f"),
]


def test_partition_is_deterministic_and_covers():
    for count in (0, 1, 5, 6, 17):
        for jobs in (1, 2, 4, 8):
            chunks = partition(count, jobs)
            assert chunks == partition(count, jobs)  # pure function
            flat = sorted(i for chunk in chunks for i in chunk)
            assert flat == list(range(count))  # exact cover
    # round-robin: worker w owns indices w, w+jobs, ...
    assert partition(7, 3) == [[0, 3, 6], [1, 4], [2, 5]]


def test_resolve_jobs():
    assert resolve_jobs(3) == 3
    assert resolve_jobs(0) >= 1
    with pytest.raises(ConfigurationError):
        resolve_jobs(-1)


def test_parallel_sweep_equals_serial():
    serial = sweep(SCENARIOS, jobs=1)
    parallel = sweep(SCENARIOS, jobs=4)
    # same order, same digests, same everything
    assert [r.scenario for r in serial] == [s.label for s in SCENARIOS]
    assert [r.trace_digest for r in parallel] == [r.trace_digest for r in serial]
    assert parallel == serial


def test_parallel_sweep_with_cache_equals_serial(tmp_path):
    serial = sweep(SCENARIOS, jobs=1)
    cache = ResultCache(tmp_path)
    cold = sweep(SCENARIOS, jobs=4, cache=cache)
    warm = sweep(SCENARIOS, jobs=4, cache=cache)
    assert cold == serial
    assert warm == serial
    assert cache.hits == len(SCENARIOS)


def test_partial_cache_hits_preserve_order(tmp_path):
    cache = ResultCache(tmp_path)
    sweep(SCENARIOS[::2], cache=cache)  # pre-warm every other scenario
    mixed = sweep(SCENARIOS, jobs=2, cache=cache)
    assert mixed == sweep(SCENARIOS, jobs=1)


def test_pmap_preserves_order():
    items = list(range(20))
    assert pmap(_square, items, jobs=1) == [i * i for i in items]
    assert pmap(_square, items, jobs=4) == [i * i for i in items]


def _square(x):
    return x * x


def test_isolate_seeds_reseeds_numpy_once_loaded():
    import numpy as np

    from repro.exec.engine import _isolate_seeds

    digest = SCENARIOS[0].digest()
    _isolate_seeds(digest)
    first = np.random.random()
    np.random.random()
    _isolate_seeds(digest)
    assert np.random.random() == first
