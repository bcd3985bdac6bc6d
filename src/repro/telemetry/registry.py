"""Backend-agnostic metric registry: counters, gauges, histograms.

The model follows the Prometheus data model — named *families* with a
fixed label schema, each holding one *series* (child) per distinct label
value tuple — but stays dependency-free and export-format-neutral:
:mod:`repro.telemetry.export` renders a registry as Prometheus text or a
JSON snapshot.

Thread safety: every series guards its hot update with one short-held
``threading.Lock`` (a float add / compare under the GIL), and families
guard child creation.  That is "lock-free enough" for pipeline threads
that do milliseconds of compression work per update; perfbench's
``telemetry.overhead_pct`` row reports what it costs.
"""

from __future__ import annotations

import bisect
import math
import re
import threading
from typing import Iterator, Sequence

from repro.util.errors import ValidationError

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default histogram buckets: exponential, microseconds to ~minute.
#: Tuned for per-chunk stage service times (sub-ms codec calls on the
#: live path, seconds on the simulated clock).
DEFAULT_BUCKETS: tuple[float, ...] = (
    1e-6, 1e-5, 1e-4, 5e-4, 1e-3, 5e-3, 0.01, 0.05, 0.1, 0.5,
    1.0, 5.0, 10.0, 60.0,
)


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ValidationError(f"invalid metric name {name!r}")
    return name


def _check_labels(label_names: Sequence[str]) -> tuple[str, ...]:
    out = tuple(label_names)
    for label in out:
        if not _LABEL_RE.match(label):
            raise ValidationError(f"invalid label name {label!r}")
    if len(set(out)) != len(out):
        raise ValidationError(f"duplicate label names in {out!r}")
    return out


class _Series:
    """Base for one labeled series of a family."""

    __slots__ = ("labels", "_lock")

    def __init__(self, labels: tuple[str, ...]) -> None:
        self.labels = labels
        self._lock = threading.Lock()


class CounterSeries(_Series):
    """Monotonically increasing value."""

    __slots__ = ("_value",)

    def __init__(self, labels: tuple[str, ...]) -> None:
        super().__init__(labels)
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValidationError(f"counter increment must be >= 0, got {amount}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class GaugeSeries(_Series):
    """Value that can go up and down (queue depth, occupancy)."""

    __slots__ = ("_value", "_max")

    def __init__(self, labels: tuple[str, ...]) -> None:
        super().__init__(labels)
        self._value = 0.0
        self._max = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)
            if value > self._max:
                self._max = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount
            if self._value > self._max:
                self._max = self._value

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        return self._value

    @property
    def high_water(self) -> float:
        """Largest value ever set — occupancy peaks survive sampling."""
        return self._max


class HistogramSeries(_Series):
    """Bucketed distribution with sum/count and quantile estimates."""

    __slots__ = ("bounds", "bucket_counts", "_sum", "_count", "_min", "_max")

    def __init__(self, labels: tuple[str, ...], bounds: tuple[float, ...]) -> None:
        super().__init__(labels)
        self.bounds = bounds
        #: one slot per finite bound plus the +inf overflow bucket
        self.bucket_counts = [0] * (len(bounds) + 1)
        self._sum = 0.0
        self._count = 0
        self._min = math.inf
        self._max = -math.inf

    def observe(self, value: float) -> None:
        idx = bisect.bisect_left(self.bounds, value)
        with self._lock:
            self.bucket_counts[idx] += 1
            self._sum += value
            self._count += 1
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else math.nan

    def quantile(self, q: float) -> float:
        """Estimated q-quantile via linear interpolation within buckets.

        Exact at the observed extremes (min/max are tracked); elsewhere
        accurate to the bucket width, which is the standard trade of a
        fixed-bucket histogram.
        """
        if not 0.0 <= q <= 1.0:
            raise ValidationError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            total = self._count
            if total == 0:
                return math.nan
            if q <= 0.0:
                return self._min
            if q >= 1.0:
                return self._max
            target = q * total
            cumulative = 0
            for idx, n in enumerate(self.bucket_counts):
                if n == 0:
                    continue
                if cumulative + n >= target:
                    lo = self.bounds[idx - 1] if idx > 0 else min(self._min, self.bounds[0])
                    hi = self.bounds[idx] if idx < len(self.bounds) else self._max
                    lo = max(lo, self._min)
                    hi = min(hi, self._max)
                    if hi <= lo:
                        return hi
                    frac = (target - cumulative) / n
                    return lo + (hi - lo) * frac
                cumulative += n
            return self._max  # pragma: no cover - unreachable


#: Label value a capped label collapses onto once its budget is spent.
OVERFLOW_LABEL = "_other"


class MetricFamily:
    """A named metric with a fixed label schema and many series."""

    def __init__(
        self,
        name: str,
        help: str,
        label_names: Sequence[str] = (),
        *,
        kind: str,
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> None:
        self.name = _check_name(name)
        self.help = help
        self.label_names = _check_labels(label_names)
        self.kind = kind
        self.buckets = tuple(sorted(buckets))
        self._lock = threading.Lock()
        self._series: dict[tuple[str, ...], _Series] = {}
        self._cap_idx: int | None = None
        self._cap: int = 0
        self._cap_values: set[str] = set()

    def limit_cardinality(self, label: str, top_k: int) -> None:
        """Bound the distinct values of ``label`` to ``top_k``.

        The first ``top_k`` distinct values observed keep their own
        series; every later value is folded onto
        ``{label}="_other"`` so a multi-tenant run with thousands of
        streams cannot grow this family without bound.  Admission is
        first-come — in a streaming pipeline the early streams *are*
        the long-lived ones, and a stable mapping keeps counters
        monotonic (re-ranking by traffic would move increments between
        series mid-run).
        """
        if label not in self.label_names:
            raise ValidationError(
                f"{self.name} has no label {label!r} "
                f"(labels: {self.label_names!r})"
            )
        if top_k < 1:
            raise ValidationError(f"top_k must be >= 1, got {top_k}")
        self._cap_idx = self.label_names.index(label)
        self._cap = top_k

    def _capped(self, key: tuple[str, ...]) -> tuple[str, ...]:
        idx = self._cap_idx
        if idx is None:
            return key
        value = key[idx]
        if value == OVERFLOW_LABEL or value in self._cap_values:
            return key
        with self._lock:
            if value in self._cap_values:
                return key
            if len(self._cap_values) < self._cap:
                self._cap_values.add(value)
                return key
        return key[:idx] + (OVERFLOW_LABEL,) + key[idx + 1 :]

    def _make(self, labels: tuple[str, ...]) -> _Series:
        if self.kind == "counter":
            return CounterSeries(labels)
        if self.kind == "gauge":
            return GaugeSeries(labels)
        return HistogramSeries(labels, self.buckets)

    def labels(self, *values: str, **kv: str):
        """The series for one label-value combination (created on demand)."""
        if values and kv:
            raise ValidationError("pass label values positionally or by name, not both")
        if kv:
            try:
                key = tuple(str(kv[name]) for name in self.label_names)
            except KeyError as exc:
                raise ValidationError(
                    f"{self.name}: missing label {exc.args[0]!r}"
                ) from None
            if len(kv) != len(self.label_names):
                extra = set(kv) - set(self.label_names)
                raise ValidationError(f"{self.name}: unknown labels {sorted(extra)}")
        else:
            key = tuple(str(v) for v in values)
            if len(key) != len(self.label_names):
                raise ValidationError(
                    f"{self.name}: expected {len(self.label_names)} label "
                    f"values {self.label_names!r}, got {len(key)}"
                )
        key = self._capped(key)
        series = self._series.get(key)
        if series is None:
            with self._lock:
                series = self._series.setdefault(key, self._make(key))
        return series

    # Unlabeled convenience: family acts as its own single series.

    def _default(self):
        if self.label_names:
            raise ValidationError(
                f"{self.name} has labels {self.label_names!r}; use .labels(...)"
            )
        return self.labels()

    def inc(self, amount: float = 1.0) -> None:
        self._default().inc(amount)

    def set(self, value: float) -> None:
        self._default().set(value)

    def dec(self, amount: float = 1.0) -> None:
        self._default().dec(amount)

    def observe(self, value: float) -> None:
        self._default().observe(value)

    def series(self) -> list[_Series]:
        """Snapshot of this family's series, creation-ordered."""
        with self._lock:
            return list(self._series.values())


class MetricRegistry:
    """Create-or-get store of metric families."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: dict[str, MetricFamily] = {}

    def _register(
        self,
        name: str,
        help: str,
        label_names: Sequence[str],
        kind: str,
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> MetricFamily:
        with self._lock:
            existing = self._families.get(name)
            if existing is not None:
                if existing.kind != kind:
                    raise ValidationError(
                        f"metric {name!r} already registered as {existing.kind}"
                    )
                if existing.label_names != _check_labels(label_names):
                    raise ValidationError(
                        f"metric {name!r} already registered with labels "
                        f"{existing.label_names!r}"
                    )
                return existing
            family = MetricFamily(
                name, help, label_names, kind=kind, buckets=buckets
            )
            self._families[name] = family
            return family

    def counter(
        self, name: str, help: str = "", label_names: Sequence[str] = ()
    ) -> MetricFamily:
        return self._register(name, help, label_names, "counter")

    def gauge(
        self, name: str, help: str = "", label_names: Sequence[str] = ()
    ) -> MetricFamily:
        return self._register(name, help, label_names, "gauge")

    def histogram(
        self,
        name: str,
        help: str = "",
        label_names: Sequence[str] = (),
        *,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> MetricFamily:
        return self._register(name, help, label_names, "histogram", tuple(buckets))

    def get(self, name: str) -> MetricFamily | None:
        return self._families.get(name)

    def families(self) -> Iterator[MetricFamily]:
        with self._lock:
            return iter(list(self._families.values()))

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._families)

    def __contains__(self, name: str) -> bool:
        return name in self._families
