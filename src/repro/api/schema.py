"""Versioned wire documents for the run surface.

One schema, three transports: the CLI's ``--json`` outputs, the result
cache on disk, and the :mod:`repro.serve` HTTP daemon all speak the same
two document families defined here:

- ``repro.api.request/v1`` — "please execute this": a kind
  (``run`` / ``sweep`` / ``plan``), a list of canonical scenarios
  (:meth:`repro.api.Scenario.canonical` *is* the request payload), and a
  small kind-specific options mapping.
- ``repro.api.result/v1`` — "here is what happened": the kind plus the
  exact payload of :class:`repro.api.RunResult`,
  :class:`repro.exec.SweepOutcome`, or :class:`repro.plan.PlanResult`,
  produced by their ``to_document()`` methods and consumed by
  ``from_document()`` — round-trips are exact (floats included; JSON's
  shortest-round-trip ``repr`` preserves them bit-for-bit).

Validation is *strict*: unknown keys are a hard :class:`SchemaError`, so
a future v2 document can never half-parse as v1 — absent keys with
defaults are tolerated (documents written before a field existed), extra
keys never are.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

REQUEST_SCHEMA = "repro.api.request/v1"
RESULT_SCHEMA = "repro.api.result/v1"

#: The executable request kinds, in the order the run surface exposes them.
REQUEST_KINDS = ("run", "sweep", "plan")

#: Allowed ``options`` keys per request kind.  ``priority`` orders jobs in
#: the serve queue (lower runs first); the rest mirror the keyword surface
#: of :func:`repro.api.sweep` / :func:`repro.api.plan`.
REQUEST_OPTIONS = {
    "run": ("priority",),
    "sweep": ("priority", "fidelity"),
    "plan": ("priority", "budget", "top_k", "fidelity"),
}


class SchemaError(ValueError):
    """A document failed structural validation (bad schema tag, missing
    required key, or — strictly — an unknown key)."""


def check_keys(
    doc: Mapping[str, object],
    *,
    required: Sequence[str],
    optional: Sequence[str] = (),
    where: str,
) -> None:
    """Strict key validation: every ``required`` key present, nothing
    outside ``required + optional`` tolerated."""
    if not isinstance(doc, Mapping):
        raise SchemaError(f"{where}: expected a mapping, got {type(doc).__name__}")
    missing = [key for key in required if key not in doc]
    if missing:
        raise SchemaError(f"{where}: missing required keys {missing}")
    allowed = set(required) | set(optional)
    unknown = sorted(set(doc) - allowed)
    if unknown:
        raise SchemaError(
            f"{where}: unknown keys {unknown} — refusing to half-parse a "
            f"newer document under this schema version"
        )


def _check_schema_tag(doc: Mapping[str, object], expected: str, where: str) -> None:
    if not isinstance(doc, Mapping):
        raise SchemaError(f"{where}: expected a mapping, got {type(doc).__name__}")
    tag = doc.get("schema")
    if tag != expected:
        raise SchemaError(f"{where}: schema {tag!r} is not {expected!r}")


# ---------------------------------------------------------------------- #
# request documents
# ---------------------------------------------------------------------- #


def build_request(
    kind: str,
    scenarios: Sequence[object],
    options: Optional[Mapping[str, object]] = None,
) -> Dict[str, object]:
    """Assemble a ``repro.api.request/v1`` document.

    ``scenarios`` may be :class:`~repro.api.Scenario` values or already-
    canonical mappings; ``run`` and ``plan`` take exactly one.
    """
    if kind not in REQUEST_KINDS:
        raise SchemaError(f"request kind {kind!r} is not one of {list(REQUEST_KINDS)}")
    canonicals: List[Mapping[str, object]] = []
    for scenario in scenarios:
        canonical = getattr(scenario, "canonical", None)
        canonicals.append(canonical() if callable(canonical) else dict(scenario))  # type: ignore[arg-type]
    if kind in ("run", "plan") and len(canonicals) != 1:
        raise SchemaError(f"{kind} requests take exactly one scenario, got {len(canonicals)}")
    if not canonicals:
        raise SchemaError("request has no scenarios")
    opts = dict(options or {})
    allowed = REQUEST_OPTIONS[kind]
    unknown = sorted(set(opts) - set(allowed))
    if unknown:
        raise SchemaError(f"{kind} request options: unknown keys {unknown} "
                          f"(allowed: {list(allowed)})")
    return {
        "schema": REQUEST_SCHEMA,
        "kind": kind,
        "scenarios": canonicals,
        "options": opts,
    }


def validate_request(
    doc: Mapping[str, object],
) -> Tuple[str, List[object], Dict[str, object]]:
    """Validate a request document and materialise its scenarios.

    Returns ``(kind, [Scenario, ...], options)``.  Raises
    :class:`SchemaError` on any structural problem, including unknown
    top-level or options keys and invalid canonical scenarios.
    """
    from repro.api import Scenario
    from repro.errors import ConfigurationError

    _check_schema_tag(doc, REQUEST_SCHEMA, "request")
    check_keys(doc, required=("schema", "kind", "scenarios"),
               optional=("options",), where="request")
    kind = doc["kind"]
    if kind not in REQUEST_KINDS:
        raise SchemaError(f"request kind {kind!r} is not one of {list(REQUEST_KINDS)}")
    raw = doc["scenarios"]
    if not isinstance(raw, Sequence) or isinstance(raw, (str, bytes)) or not raw:
        raise SchemaError("request scenarios must be a non-empty list")
    if kind in ("run", "plan") and len(raw) != 1:
        raise SchemaError(f"{kind} requests take exactly one scenario, got {len(raw)}")
    scenarios: List[object] = []
    for index, canonical in enumerate(raw):
        if not isinstance(canonical, Mapping):
            raise SchemaError(f"request scenarios[{index}] is not a mapping")
        try:
            scenarios.append(Scenario.from_canonical(canonical))
        except (ConfigurationError, KeyError, TypeError, ValueError) as exc:
            raise SchemaError(
                f"request scenarios[{index}] is not a valid canonical "
                f"scenario: {exc}"
            ) from exc
    options = doc.get("options", {})
    if not isinstance(options, Mapping):
        raise SchemaError("request options must be a mapping")
    allowed = REQUEST_OPTIONS[str(kind)]
    unknown = sorted(set(options) - set(allowed))
    if unknown:
        raise SchemaError(f"{kind} request options: unknown keys {unknown} "
                          f"(allowed: {list(allowed)})")
    for key, value in options.items():
        _check_option(str(kind), key, value)
    return str(kind), scenarios, dict(options)


def _check_option(kind: str, key: str, value: object) -> None:
    """Option values are checked here, so a request that passes the schema
    fails, if at all, inside the simulation and not while it is queued."""
    from repro.network.contention import FIDELITY_MODES

    if key == "fidelity":
        if value not in FIDELITY_MODES:
            raise SchemaError(f"{kind} request options: fidelity {value!r} "
                              f"is not one of {list(FIDELITY_MODES)}")
        return
    least = 1 if key in ("budget", "top_k") else None
    if (not isinstance(value, int) or isinstance(value, bool)
            or (least is not None and value < least)):
        bound = "" if least is None else f" >= {least}"
        raise SchemaError(f"{kind} request options: {key} must be an "
                          f"integer{bound}, got {value!r}")


# ---------------------------------------------------------------------- #
# result documents
# ---------------------------------------------------------------------- #

#: Payload key per result kind — exactly one of these carries the body.
RESULT_PAYLOAD_KEYS = {"run": "result", "sweep": "sweep", "plan": "plan"}


def build_result(kind: str, payload: object) -> Dict[str, object]:
    """Wrap a kind-specific payload in the ``repro.api.result/v1``
    envelope.  The payload is produced by the result types' own
    ``to_document`` bodies — this helper only adds the envelope."""
    if kind not in RESULT_PAYLOAD_KEYS:
        raise SchemaError(
            f"result kind {kind!r} is not one of {sorted(RESULT_PAYLOAD_KEYS)}"
        )
    return {
        "schema": RESULT_SCHEMA,
        "kind": kind,
        RESULT_PAYLOAD_KEYS[kind]: payload,
    }


def validate_result(doc: Mapping[str, object], kind: Optional[str] = None) -> object:
    """Validate the result envelope and return the kind-specific payload.

    ``kind`` pins the expected kind; ``None`` accepts any and the caller
    dispatches on ``doc["kind"]``."""
    _check_schema_tag(doc, RESULT_SCHEMA, "result")
    actual = doc.get("kind")
    if actual not in RESULT_PAYLOAD_KEYS:
        raise SchemaError(
            f"result kind {actual!r} is not one of {sorted(RESULT_PAYLOAD_KEYS)}"
        )
    if kind is not None and actual != kind:
        raise SchemaError(f"result kind {actual!r} is not {kind!r}")
    payload_key = RESULT_PAYLOAD_KEYS[str(actual)]
    check_keys(doc, required=("schema", "kind", payload_key), where="result")
    return doc[payload_key]


def result_to_document(result: object) -> Dict[str, object]:
    """Dispatch any run-surface result value to its wire document."""
    to_document = getattr(result, "to_document", None)
    if callable(to_document):
        return to_document()
    raise SchemaError(
        f"{type(result).__name__} has no to_document(); expected RunResult, "
        f"SweepOutcome, or PlanResult"
    )


def result_from_document(doc: Mapping[str, object]) -> object:
    """Parse any ``repro.api.result/v1`` document back into its result
    type (:class:`RunResult`, :class:`SweepOutcome`, or
    :class:`PlanResult`)."""
    _check_schema_tag(doc, RESULT_SCHEMA, "result")
    kind = doc.get("kind")
    if kind == "run":
        from repro.api import RunResult

        return RunResult.from_document(doc)
    if kind == "sweep":
        from repro.exec.resilience import SweepOutcome

        return SweepOutcome.from_document(doc)
    if kind == "plan":
        from repro.plan.search import PlanResult

        return PlanResult.from_document(doc)
    raise SchemaError(
        f"result kind {kind!r} is not one of {sorted(RESULT_PAYLOAD_KEYS)}"
    )


__all__ = [
    "REQUEST_KINDS",
    "REQUEST_OPTIONS",
    "REQUEST_SCHEMA",
    "RESULT_PAYLOAD_KEYS",
    "RESULT_SCHEMA",
    "SchemaError",
    "build_request",
    "build_result",
    "check_keys",
    "result_from_document",
    "result_to_document",
    "validate_request",
    "validate_result",
]
