"""The process-wide metrics registry: counters, gauges, histograms, labels.

One :class:`MetricsRegistry` holds a set of named metric *families*; a family
with labels holds one *series* per distinct label-value tuple.  Three metric
kinds cover the stack's needs:

* :class:`Counter` — monotonically increasing totals (jobs completed, claims
  parked, heartbeats sent),
* :class:`Gauge` — point-in-time values (queue depth, cache entries),
* :class:`Histogram` — latency/throughput distributions over **fixed,
  deterministic bucket bounds** (no adaptive resizing: two processes
  observing the same values render the same buckets).

Everything is thread-safe behind one registry lock: pool callbacks, serve
executor threads, and heartbeat pumps increment concurrently without losing
updates or corrupting exposition output (``tests/test_obs.py`` hammers this).

Exposition (:meth:`MetricsRegistry.render`) is Prometheus text format and
**deterministic**: families sort lexicographically by name, series by label
values, every family carries ``# HELP``/``# TYPE`` lines, and a value
renders identically for identical state — two scrapes of an idle server are
byte-identical, which is what makes ``/metrics`` diffable in tests and CI.

A process-wide default registry (:func:`get_registry`) serves the sweep
claim loop; components that need isolation (each
:class:`~repro.serve.server.SimulationServer`, unit tests) construct their
own.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
]

#: The default histogram bucket bounds (seconds): a fixed 1-2.5-5 ladder from
#: 1 ms to 10 s.  Deterministic by construction — the bounds never depend on
#: observed data — so exposition is comparable across processes and runs.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0,
)

_NumberT = Union[int, float]


def _format_value(value: _NumberT) -> str:
    """Render a sample value: integers without a point, floats via repr.

    ``repr`` round-trips floats exactly, so identical state renders to
    identical bytes — the property the deterministic-exposition test pins.
    """
    if isinstance(value, bool):  # bools are ints; never sensible here
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _validate_name(name: str) -> str:
    if not name or not all(c.isalnum() or c in "_:" for c in name):
        raise ValueError(f"invalid metric name {name!r}")
    if name[0].isdigit():
        raise ValueError(f"metric name must not start with a digit: {name!r}")
    return name


def _label_key(
    labelnames: Tuple[str, ...], labels: Mapping[str, str]
) -> Tuple[str, ...]:
    if set(labels) != set(labelnames):
        raise ValueError(
            f"expected labels {labelnames}, got {tuple(sorted(labels))}"
        )
    return tuple(str(labels[name]) for name in labelnames)


class _Family:
    """Shared machinery of one named metric family (series map + lock)."""

    kind = "untyped"

    def __init__(
        self,
        name: str,
        help_text: str,
        labelnames: Sequence[str],
        lock: threading.RLock,
    ) -> None:
        self.name = _validate_name(name)
        self.help = " ".join(help_text.split()) or name
        self.labelnames: Tuple[str, ...] = tuple(labelnames)
        for label in self.labelnames:
            _validate_name(label)
        self._lock = lock
        self._series: Dict[Tuple[str, ...], object] = {}

    def _series_for(self, labels: Mapping[str, str]) -> object:
        key = _label_key(self.labelnames, labels)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = self._new_series()
                self._series[key] = series
            return series

    def _new_series(self) -> object:
        raise NotImplementedError

    def _render_label_set(self, key: Tuple[str, ...]) -> str:
        if not self.labelnames:
            return ""
        pairs = ",".join(
            f'{name}="{value}"' for name, value in zip(self.labelnames, key)
        )
        return "{" + pairs + "}"

    def _sorted_series(self) -> List[Tuple[Tuple[str, ...], object]]:
        return sorted(self._series.items(), key=lambda item: item[0])

    def render(self) -> List[str]:
        """The family's exposition lines (``# HELP``, ``# TYPE``, samples)."""
        with self._lock:
            lines = [
                f"# HELP {self.name} {self.help}",
                f"# TYPE {self.name} {self.kind}",
            ]
            for key, series in self._sorted_series():
                lines.extend(self._render_series(key, series))
            return lines

    def _render_series(self, key: Tuple[str, ...], series: object) -> List[str]:
        raise NotImplementedError


class Counter(_Family):
    """A monotonically increasing total, optionally labeled."""

    kind = "counter"

    def _new_series(self) -> List[_NumberT]:
        return [0]

    def inc(self, amount: _NumberT = 1, **labels: str) -> None:
        """Add ``amount`` (must be non-negative) to the series."""
        if amount < 0:
            raise ValueError(f"counters only go up; got increment {amount!r}")
        cell = self._series_for(labels)
        with self._lock:
            cell[0] += amount  # type: ignore[index]

    def value(self, **labels: str) -> _NumberT:
        """The series' current total (0 for a never-touched series)."""
        key = _label_key(self.labelnames, labels)
        with self._lock:
            cell = self._series.get(key)
            return cell[0] if cell is not None else 0  # type: ignore[index]

    def _render_series(self, key: Tuple[str, ...], series: object) -> List[str]:
        value = series[0]  # type: ignore[index]
        return [f"{self.name}{self._render_label_set(key)} {_format_value(value)}"]


class Gauge(_Family):
    """A point-in-time value that can move both ways."""

    kind = "gauge"

    def _new_series(self) -> List[_NumberT]:
        return [0]

    def set(self, value: _NumberT, **labels: str) -> None:
        cell = self._series_for(labels)
        with self._lock:
            cell[0] = value  # type: ignore[index]

    def inc(self, amount: _NumberT = 1, **labels: str) -> None:
        cell = self._series_for(labels)
        with self._lock:
            cell[0] += amount  # type: ignore[index]

    def dec(self, amount: _NumberT = 1, **labels: str) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels: str) -> _NumberT:
        key = _label_key(self.labelnames, labels)
        with self._lock:
            cell = self._series.get(key)
            return cell[0] if cell is not None else 0  # type: ignore[index]

    def _render_series(self, key: Tuple[str, ...], series: object) -> List[str]:
        value = series[0]  # type: ignore[index]
        return [f"{self.name}{self._render_label_set(key)} {_format_value(value)}"]


class _HistogramSeries:
    __slots__ = ("buckets", "total", "count")

    def __init__(self, bucket_count: int) -> None:
        self.buckets = [0] * bucket_count
        self.total = 0.0
        self.count = 0


class Histogram(_Family):
    """A distribution over fixed bucket bounds (cumulative on exposition).

    Bounds are set at construction and never adapt to data — determinism
    over cleverness.  ``observe`` costs one binary search plus three
    increments under the registry lock.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str,
        labelnames: Sequence[str],
        lock: threading.RLock,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        bounds = tuple(float(bound) for bound in buckets)
        if not bounds:
            raise ValueError("a histogram needs at least one bucket bound")
        if any(b <= a for a, b in zip(bounds, bounds[1:])):
            raise ValueError(f"bucket bounds must strictly increase: {bounds}")
        self.bounds = bounds
        super().__init__(name, help_text, labelnames, lock)

    def _new_series(self) -> _HistogramSeries:
        return _HistogramSeries(len(self.bounds))

    def observe(self, value: _NumberT, **labels: str) -> None:
        series = self._series_for(labels)
        with self._lock:
            # Linear scan: bucket ladders are short (~13 bounds) and the
            # scan is branch-predictable; a bisect buys nothing at this size.
            for index, bound in enumerate(self.bounds):
                if value <= bound:
                    series.buckets[index] += 1  # type: ignore[union-attr]
                    break
            series.total += float(value)  # type: ignore[union-attr]
            series.count += 1  # type: ignore[union-attr]

    def snapshot(self, **labels: str) -> Tuple[int, float]:
        """``(count, sum)`` of the series — 0s for a never-touched series."""
        key = _label_key(self.labelnames, labels)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                return 0, 0.0
            return series.count, series.total  # type: ignore[union-attr]

    def _render_series(self, key: Tuple[str, ...], series: object) -> List[str]:
        assert isinstance(series, _HistogramSeries)
        lines: List[str] = []
        cumulative = 0
        for bound, bucket in zip(self.bounds, series.buckets):
            cumulative += bucket
            label_set = self._bucket_label_set(key, _format_value(bound))
            lines.append(f"{self.name}_bucket{label_set} {cumulative}")
        label_set = self._bucket_label_set(key, "+Inf")
        lines.append(f"{self.name}_bucket{label_set} {series.count}")
        plain = self._render_label_set(key)
        lines.append(f"{self.name}_sum{plain} {_format_value(series.total)}")
        lines.append(f"{self.name}_count{plain} {series.count}")
        return lines

    def _bucket_label_set(self, key: Tuple[str, ...], le: str) -> str:
        pairs = [
            f'{name}="{value}"' for name, value in zip(self.labelnames, key)
        ]
        pairs.append(f'le="{le}"')
        return "{" + ",".join(pairs) + "}"


class MetricsRegistry:
    """A named collection of metric families with deterministic exposition.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create: the first call
    for a name registers the family, later calls return the same object
    (mismatched kind, labels, or bucket bounds raise — one name, one
    meaning).  All mutation and rendering serializes on one re-entrant lock,
    so concurrent increments from pool callbacks never lose updates and a
    scrape never observes a half-applied histogram sample.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._families: Dict[str, _Family] = {}

    # ------------------------------------------------------------------
    # Family registration (get-or-create)
    # ------------------------------------------------------------------
    def _family(
        self, kind: type, name: str, help_text: str,
        labelnames: Sequence[str], **extra: object,
    ) -> _Family:
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = kind(name, help_text, labelnames, self._lock, **extra)
                self._families[name] = family
                return family
            if type(family) is not kind:
                raise ValueError(
                    f"metric {name!r} already registered as {family.kind}"
                )
            if family.labelnames != tuple(labelnames):
                raise ValueError(
                    f"metric {name!r} already registered with labels "
                    f"{family.labelnames}, not {tuple(labelnames)}"
                )
            if extra.get("buckets") is not None and isinstance(family, Histogram):
                bounds = tuple(float(b) for b in extra["buckets"])  # type: ignore[union-attr]
                if family.bounds != bounds:
                    raise ValueError(
                        f"histogram {name!r} already registered with bounds "
                        f"{family.bounds}, not {bounds}"
                    )
            return family

    def counter(
        self, name: str, help_text: str = "", labelnames: Sequence[str] = ()
    ) -> Counter:
        return self._family(Counter, name, help_text, labelnames)  # type: ignore[return-value]

    def gauge(
        self, name: str, help_text: str = "", labelnames: Sequence[str] = ()
    ) -> Gauge:
        return self._family(Gauge, name, help_text, labelnames)  # type: ignore[return-value]

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        return self._family(  # type: ignore[return-value]
            Histogram, name, help_text, labelnames, buckets=buckets
        )

    # ------------------------------------------------------------------
    # Exposition
    # ------------------------------------------------------------------
    def render(self) -> str:
        """Prometheus text exposition, byte-stable for identical state.

        Families render in lexicographic name order, series in label-value
        order, each family led by its ``# HELP``/``# TYPE`` pair.
        """
        with self._lock:
            lines: List[str] = []
            for name in sorted(self._families):
                lines.extend(self._families[name].render())
            return "\n".join(lines) + "\n" if lines else ""

    def sample_values(self) -> Dict[str, _NumberT]:
        """Flat ``{sample_line_name: value}`` of plain counters and gauges.

        Histograms are omitted (their exposition is multi-line); the helper
        backs quick assertions and the serve layer's drain summary.
        """
        with self._lock:
            values: Dict[str, _NumberT] = {}
            for name in sorted(self._families):
                family = self._families[name]
                if isinstance(family, (Counter, Gauge)):
                    for key, series in family._sorted_series():
                        values[name + family._render_label_set(key)] = series[0]  # type: ignore[index]
            return values

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._families

    def __repr__(self) -> str:
        with self._lock:
            return f"MetricsRegistry({len(self._families)} families)"


#: The process-wide default registry (the sweep claim loop's counters).
_DEFAULT_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return _DEFAULT_REGISTRY
