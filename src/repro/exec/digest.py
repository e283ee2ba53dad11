"""Canonical scenario digests: the result cache's content address.

A cache entry may only be served when *nothing* that could change the
simulated outcome has changed.  Two things can: the scenario itself
(environment, model, layout, schedule, fault plan, every knob — all of
which :meth:`repro.api.Scenario.canonical` captures with exact float
tokens) and the simulator's own code.  The code is folded in as
:data:`CODE_VERSION_SALT` — a hand-bumped version string, not a file hash,
so the invalidation point is explicit, reviewable, and deterministic
across machines.

**Bump the salt whenever a change can alter any simulated number**: cost
model arithmetic, event ordering, scheduling policy, fault semantics,
trace layout.  Pure refactors that provably preserve replay digests may
keep it; when in doubt, bump.  Stale-cache bugs are silent — a wrong salt
discipline shows up as "the fix didn't change the benchmark".
"""

from __future__ import annotations

import hashlib
import json
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.api import Scenario

#: Code-version component of every cache key.  Convention:
#: ``<paper-table-era>.<sequence>``; bump the sequence for any
#: behaviour-affecting change (see module docstring).
#:
#: ``.7``: executed ring passes price the NIC-crossing edges they own and
#: hold those steps' ``nic-tx:``/``send:`` spans until the member
#: completes, and a send's uplink leg runs as callbacks, so traced runs
#: record their spans in another order and ``trace_digest`` changed.
#: Every timing and every span is bit-identical to ``.6``.
CODE_VERSION_SALT = "holmes-sim.7"


def canonical_json(scenario: "Scenario") -> str:
    """The scenario's canonical mapping as minified, key-sorted JSON.

    ``allow_nan=False`` is deliberate: non-finite floats are carried as
    exact ``repr`` string tokens by ``Scenario.canonical``, so a raw
    ``inf`` reaching the encoder is a bug, not data.
    """
    return json.dumps(
        scenario.canonical(),
        sort_keys=True,
        separators=(",", ":"),
        allow_nan=False,
    )


def scenario_digest(scenario: "Scenario", salt: str | None = None) -> str:
    """SHA-256 content address of (canonical scenario, code version)."""
    if salt is None:
        # read the module global at call time so tests (and emergency
        # invalidation) can monkeypatch it
        import repro.exec.digest as _self

        salt = _self.CODE_VERSION_SALT
    h = hashlib.sha256()
    h.update(canonical_json(scenario).encode())
    h.update(b"\x00")
    h.update(salt.encode())
    return h.hexdigest()
