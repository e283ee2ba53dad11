"""Metamorphic relations as pytest parametrizations.

Each relation from the registry runs against a small deterministic batch of
sampled scenarios (marker: ``property``). A larger-N sweep rides the ``slow``
marker for nightly CI. The relations themselves encode paper-level physics:
faster links never slow training, stragglers never speed it up, ring
all-reduce cannot beat its slowest link, and rank labels are arbitrary.
"""

import pytest

from repro.validate.metamorphic import (
    RELATIONS,
    check_relation,
    run_validation,
)
from repro.validate.scenarios import sample_scenarios

SMOKE_N = 4
SMOKE_SPECS = sample_scenarios(SMOKE_N, seed=0)

pytestmark = pytest.mark.property


@pytest.mark.parametrize("relation", sorted(RELATIONS))
@pytest.mark.parametrize("spec", SMOKE_SPECS, ids=lambda s: s.label)
def test_relation_holds(relation, spec):
    result = check_relation(relation, spec)
    assert result.passed, (result.error, result.details)


def test_registry_is_complete():
    expected = {
        "bandwidth_monotonic",
        "straggler_monotonic",
        "workload_monotonic",
        "seed_replay",
        "allreduce_slowest_link_bound",
        "rank_relabel_invariant",
        "fidelity_conformance",
    }
    assert set(RELATIONS) == expected
    for name, relation in RELATIONS.items():
        assert relation.name == name
        assert relation.description


def test_run_validation_covers_all_pairs():
    results = run_validation(2, seed=1, relations=["seed_replay"])
    assert len(results) == 2
    assert all(r.relation == "seed_replay" for r in results)
    assert all(r.passed for r in results)


def test_unknown_relation_rejected():
    with pytest.raises(KeyError):
        check_relation("no_such_relation", SMOKE_SPECS[0])


@pytest.mark.slow
@pytest.mark.parametrize("seed", [0, 123])
def test_larger_sweep(seed):
    """Nightly: every relation over a 12-scenario sample per seed."""
    results = run_validation(12, seed=seed)
    failed = [r for r in results if not r.passed]
    assert not failed, [(r.relation, r.scenario, r.error) for r in failed]
