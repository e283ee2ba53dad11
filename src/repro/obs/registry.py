"""A structured metrics registry for the simulator.

Modelled on the Prometheus client-library surface (Megatron's timers and
NCCL's proxy counters fill the same role in real stacks): named metrics with
label sets, three instrument types, and text/JSON exporters.

- :class:`Counter` — monotonically increasing totals (bytes moved per link,
  retries paid, communicator rebuilds);
- :class:`Gauge` — point-in-time values (iteration seconds, per-rank busy
  fraction, achieved TFLOPS);
- :class:`HistogramMetric` — fixed-bucket distributions (p2p occupancy
  durations) with cumulative-bucket Prometheus semantics.

Everything is plain Python and deterministic: label sets are sorted tuples,
exporters emit series in sorted order, so two identical simulations produce
byte-identical exports.
"""

from __future__ import annotations

import json
import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError

#: (sorted) label key/value pairs identifying one series of a metric
LabelKey = Tuple[Tuple[str, str], ...]

#: Default histogram buckets (seconds): spans micro-collectives to slow
#: cross-cluster transfers.
DEFAULT_BUCKETS = (
    1e-5, 1e-4, 1e-3, 1e-2, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


def _label_key(labels: Dict[str, object]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class BoundCounter:
    """A counter pre-bound to one label set: ``inc`` is a dict update.

    The simulation hot path (every priced transfer publishes bytes and
    seconds) pays ``_label_key``'s sort/str work once at bind time instead
    of once per increment.  Obtain via :meth:`Counter.labels`.
    """

    __slots__ = ("_values", "_key", "_name")

    def __init__(self, counter: "Counter", key: LabelKey) -> None:
        self._values = counter._values
        self._key = key
        self._name = counter.name

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ConfigurationError(
                f"counter {self._name} cannot decrease (inc {amount})"
            )
        values = self._values
        values[self._key] = values.get(self._key, 0.0) + amount

    @property
    def total(self) -> float:
        """The series' current value."""
        return self._values.get(self._key, 0.0)

    def advance_to(self, total: float) -> None:
        """Set the series to ``total``, a value its caller summed onto
        :attr:`total` itself, one increment at a time (so it equals what
        those ``inc`` calls would have left)."""
        values = self._values
        if total < values.get(self._key, 0.0):
            raise ConfigurationError(
                f"counter {self._name} cannot decrease (to {total})"
            )
        values[self._key] = total


class BoundHistogram:
    """A histogram pre-bound to one label set (see :class:`BoundCounter`)."""

    __slots__ = ("_bounds", "_all_counts", "_sums", "_totals", "_key")

    def __init__(self, histogram: "HistogramMetric", key: LabelKey) -> None:
        self._bounds = histogram.bounds
        self._all_counts = histogram._counts
        self._sums = histogram._sums
        self._totals = histogram._totals
        self._key = key

    def observe(self, value: float) -> None:
        counts = self._all_counts.get(self._key)
        if counts is None:
            counts = self._all_counts[self._key] = [0] * (len(self._bounds) + 1)
        for i, bound in enumerate(self._bounds):
            if value <= bound:
                counts[i] += 1
                break
        else:
            counts[-1] += 1
        key = self._key
        self._sums[key] = self._sums.get(key, 0.0) + value
        self._totals[key] = self._totals.get(key, 0) + 1


def _format_labels(key: LabelKey) -> str:
    if not key:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in key)
    return "{" + inner + "}"


def _escape_label_value(value: str) -> str:
    """Prometheus exposition-format label-value escaping: backslash,
    double-quote, and newline must be escaped or the series line is
    unparseable (a label value is free text — scenario labels and error
    strings end up here)."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _escape_help(text: str) -> str:
    """``# HELP`` lines escape only backslash and newline."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _format_labels_prom(key: LabelKey) -> str:
    """Like :func:`_format_labels` but with exposition-format escaping —
    used only by the Prometheus exporter so the JSON ``snapshot()`` keys
    stay byte-stable."""
    if not key:
        return ""
    inner = ",".join(f'{k}="{_escape_label_value(v)}"' for k, v in key)
    return "{" + inner + "}"


class _Metric:
    """Shared naming/help plumbing for all instrument types."""

    type_name = "untyped"

    def __init__(self, name: str, help_text: str = "") -> None:
        if not name or not name.replace("_", "").replace(":", "").isalnum():
            raise ConfigurationError(f"bad metric name: {name!r}")
        self.name = name
        self.help_text = help_text

    def series(self) -> List[Tuple[LabelKey, float]]:  # pragma: no cover
        raise NotImplementedError


class Counter(_Metric):
    """Monotonically increasing per-label totals."""

    type_name = "counter"

    def __init__(self, name: str, help_text: str = "") -> None:
        super().__init__(name, help_text)
        self._values: Dict[LabelKey, float] = {}

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        if amount < 0:
            raise ConfigurationError(
                f"counter {self.name} cannot decrease (inc {amount})"
            )
        key = _label_key(labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def labels(self, **labels: object) -> BoundCounter:
        """A child pre-bound to one label set, with an O(1) ``inc``."""
        return BoundCounter(self, _label_key(labels))

    def value(self, **labels: object) -> float:
        return self._values.get(_label_key(labels), 0.0)

    def total(self) -> float:
        """Sum across all label sets."""
        return sum(self._values.values())

    def series(self) -> List[Tuple[LabelKey, float]]:
        return sorted(self._values.items())


class Gauge(_Metric):
    """Point-in-time per-label values (last write wins)."""

    type_name = "gauge"

    def __init__(self, name: str, help_text: str = "") -> None:
        super().__init__(name, help_text)
        self._values: Dict[LabelKey, float] = {}

    def set(self, value: float, **labels: object) -> None:
        self._values[_label_key(labels)] = float(value)

    def add(self, amount: float, **labels: object) -> None:
        key = _label_key(labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: object) -> float:
        return self._values.get(_label_key(labels), 0.0)

    def series(self) -> List[Tuple[LabelKey, float]]:
        return sorted(self._values.items())


class HistogramMetric(_Metric):
    """Fixed upper-bound buckets with Prometheus cumulative semantics."""

    type_name = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help_text)
        bounds = sorted(buckets)
        if not bounds:
            raise ConfigurationError(f"histogram {name} needs >= 1 bucket")
        self.bounds: Tuple[float, ...] = tuple(bounds)
        #: label key -> per-bucket counts (+inf bucket last), sum, count
        self._counts: Dict[LabelKey, List[int]] = {}
        self._sums: Dict[LabelKey, float] = {}
        self._totals: Dict[LabelKey, int] = {}

    def labels(self, **labels: object) -> BoundHistogram:
        """A child pre-bound to one label set, with an O(buckets) ``observe``."""
        return BoundHistogram(self, _label_key(labels))

    def observe(self, value: float, **labels: object) -> None:
        key = _label_key(labels)
        counts = self._counts.get(key)
        if counts is None:
            counts = [0] * (len(self.bounds) + 1)
            self._counts[key] = counts
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                counts[i] += 1
                break
        else:
            counts[-1] += 1
        self._sums[key] = self._sums.get(key, 0.0) + value
        self._totals[key] = self._totals.get(key, 0) + 1

    def count(self, **labels: object) -> int:
        return self._totals.get(_label_key(labels), 0)

    def sum(self, **labels: object) -> float:
        return self._sums.get(_label_key(labels), 0.0)

    def quantile(self, q: float, **labels: object) -> float:
        """Approximate quantile from bucket upper bounds."""
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError(f"quantile must be in [0,1]: {q}")
        key = _label_key(labels)
        counts = self._counts.get(key)
        total = self._totals.get(key, 0)
        if not counts or total == 0:
            return 0.0
        target = q * total
        cumulative = 0
        for i, c in enumerate(counts[:-1]):
            cumulative += c
            if cumulative >= target:
                return self.bounds[i]
        return math.inf

    def series(self) -> List[Tuple[LabelKey, float]]:
        return sorted(self._sums.items())

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        out: Dict[str, Dict[str, object]] = {}
        for key in sorted(self._counts):
            out[_format_labels(key) or "{}"] = {
                "count": self._totals[key],
                "sum": self._sums[key],
                "buckets": dict(
                    zip([str(b) for b in self.bounds] + ["+Inf"], self._counts[key])
                ),
            }
        return out


class MetricsRegistry:
    """Creates, deduplicates, and exports metrics.

    ``counter()`` / ``gauge()`` / ``histogram()`` are get-or-create: asking
    for an existing name returns the existing instrument (and rejects a
    type clash), so independent publishers can share series safely.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, _Metric] = {}

    def _get_or_create(self, cls, name: str, help_text: str, **kwargs) -> _Metric:
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ConfigurationError(
                    f"metric {name!r} already registered as {existing.type_name}"
                )
            return existing
        metric = cls(name, help_text, **kwargs)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help_text: str = "") -> Counter:
        return self._get_or_create(Counter, name, help_text)

    def gauge(self, name: str, help_text: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help_text)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> HistogramMetric:
        return self._get_or_create(
            HistogramMetric, name, help_text, buckets=buckets
        )

    def get(self, name: str) -> Optional[_Metric]:
        return self._metrics.get(name)

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def __len__(self) -> int:
        return len(self._metrics)

    def __iter__(self) -> Iterable[_Metric]:
        return iter(self._metrics[n] for n in self.names())

    # ------------------------------------------------------------------ #
    # exporters
    # ------------------------------------------------------------------ #

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """JSON-able view: name -> {type, help, series{label_string: value}}."""
        out: Dict[str, Dict[str, object]] = {}
        for name in self.names():
            metric = self._metrics[name]
            if isinstance(metric, HistogramMetric):
                out[name] = {
                    "type": metric.type_name,
                    "help": metric.help_text,
                    "series": metric.snapshot(),
                }
            else:
                out[name] = {
                    "type": metric.type_name,
                    "help": metric.help_text,
                    "series": {
                        _format_labels(key) or "{}": value
                        for key, value in metric.series()
                    },
                }
        return out

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (one block per metric).

        Every instrument gets ``# HELP`` and ``# TYPE`` lines (HELP even
        when the help text is empty, so scrapers always see the pair),
        and label values / help text are escaped per the format
        (backslash, double-quote, newline).
        """
        lines: List[str] = []
        for name in self.names():
            metric = self._metrics[name]
            lines.append(f"# HELP {name} {_escape_help(metric.help_text)}")
            lines.append(f"# TYPE {name} {metric.type_name}")
            if isinstance(metric, HistogramMetric):
                for key in sorted(metric._counts):
                    cumulative = 0
                    for bound, count in zip(
                        [str(b) for b in metric.bounds] + ["+Inf"],
                        metric._counts[key],
                    ):
                        cumulative += count
                        le_key = key + (("le", bound),)
                        lines.append(
                            f"{name}_bucket{_format_labels_prom(le_key)} "
                            f"{cumulative}"
                        )
                    lines.append(
                        f"{name}_sum{_format_labels_prom(key)} "
                        f"{metric._sums[key]:.9g}"
                    )
                    lines.append(
                        f"{name}_count{_format_labels_prom(key)} "
                        f"{metric._totals[key]}"
                    )
            else:
                for key, value in metric.series():
                    lines.append(
                        f"{name}{_format_labels_prom(key)} {value:.9g}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")
