"""Seeded discrete-event simulation of serverless invocations.

Arrivals drive a pool of single-request instances with keep-alive reuse:
an idle instance whose last use is recent enough serves warm, anything
else pays the cold-start penalty on a fresh (or expired) instance.
Service times are resampled with replacement from an empirical latency
profile and rescaled for the configured memory size through the CPU law.

The clock is integer microseconds internally, so a given seed produces
bit-identical results on every run and platform.
"""

from __future__ import annotations

import json
import math
import operator
import reprlib
from fractions import Fraction
from heapq import heappop, heappush
from pathlib import Path
from typing import TYPE_CHECKING, Mapping, NamedTuple, Sequence, Union

from . import _schema
from ._record import dataclass
from .cost import PricingModel, round_up
from .errors import DomainError, ScenarioError
from .metrics import (
    CSV_HEADER,
    SampleSet,
    Summary,
    nearest_rank_index,
    summarize,
    summary_from_dict,
    summary_to_dict,
)
from .providers import CpuScaling, effective_cpu
from .units import GB, UNLIMITED, Unlimited

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

TRAFFIC_KINDS = ("poisson_constant", "on_off_burst", "trace_replay")

DEFAULT_KEEP_ALIVE_S = 600.0
# Placeholder penalty: warm-profile measurements say nothing about cold
# behaviour, so runs that care should set this from their own data.
DEFAULT_COLD_START_MS = 1500.0
# Synthesized profiles ramp from this times the first anchor up to it, and
# from the last anchor up to this times it. Exact binary values of the
# floats 0.8 and 1.05, which the seeded records depend on.
_HEAD_FACTOR = Fraction(0.8)
_TAIL_FACTOR = Fraction(1.05)
# Most exponential gaps drawn at once for a Poisson segment.
_MAX_BLOCK = 1 << 16
# Most requests a traffic pattern may expect, and most periods a burst
# pattern may span. Arrivals are built as whole lists, so a larger count
# would fill memory before a run could start.
MAX_REQUESTS = 10**7


@dataclass(frozen=True)
class LatencyProfile:
    """Warm execution durations observed at a reference memory size."""

    reference_memory_bytes: int
    samples: SampleSet

    def __post_init__(self):
        if self.reference_memory_bytes <= 0:
            raise DomainError("reference_memory_bytes must be positive")
        if len(self.samples) == 0:
            raise DomainError("a latency profile needs at least one sample")

    @classmethod
    def constant(cls, duration_ms: float, reference_memory_bytes: int) -> "LatencyProfile":
        """Degenerate profile: every draw returns ``duration_ms``."""
        return cls(reference_memory_bytes, SampleSet.from_values([duration_ms]))

    @classmethod
    def from_quantile_anchors(
        cls,
        anchors: Mapping[Union[float, str], float],
        n_samples: int,
        reference_memory_bytes: int,
    ) -> "LatencyProfile":
        """Synthesize a sample set whose nearest-rank quantiles hit ``anchors``.

        Values ramp linearly in rank space between anchor ranks; below the
        first anchor they ramp up from 0.8 times its value, above the last
        they ramp to 1.05 times its value. The anchor ranks themselves
        reproduce the anchor values exactly, so summarizing the profile
        returns the anchors verbatim.

        Args:
            anchors: map of quantile (in (0, 1]) to duration in ms.
            n_samples: size of the synthesized set.

        Raises:
            DomainError: on empty anchors, quantiles outside (0, 1],
                anchor values that decrease as q grows, or ``n_samples``
                too small to give each anchor its own rank.
        """
        if not anchors:
            raise DomainError("anchors must not be empty")
        if n_samples <= 0:
            raise DomainError("n_samples must be positive")
        parsed = sorted((float(q), float(v)) for q, v in anchors.items())
        for q, v in parsed:
            if not 0 < q <= 1:
                raise DomainError(f"anchor quantile {q} outside (0, 1]")
            if not math.isfinite(v):
                raise DomainError(f"anchor duration {v} must be finite")
            if v < 0:
                raise DomainError(f"anchor duration {v} must be non-negative")
        for (_, lo), (_, hi) in zip(parsed, parsed[1:]):
            if hi < lo:
                raise DomainError("anchor durations must be non-decreasing in q")
        ranks = [nearest_rank_index(q, n_samples) for q, _ in parsed]
        for r0, r1 in zip(ranks, ranks[1:]):
            if r1 <= r0:
                raise DomainError(
                    f"n_samples={n_samples} is too small to separate the anchor quantiles"
                )
        control: list[tuple[int, Fraction]] = []
        first_value, last_value = parsed[0][1], parsed[-1][1]
        if ranks[0] > 1:
            control.append((1, _HEAD_FACTOR * Fraction(first_value)))
        control.extend((r, Fraction(v)) for r, (_, v) in zip(ranks, parsed))
        if ranks[-1] < n_samples:
            control.append((n_samples, _TAIL_FACTOR * Fraction(last_value)))
        values = [0.0] * n_samples
        # Interpolate in exact rationals, then round once per rank: floats
        # of a non-decreasing rational sequence stay non-decreasing. On a
        # common denominator the value at rank r is
        # (base + (r - r0) * step) / den in integers, and int / int rounds
        # correctly, as float(Fraction) does.
        for (r0, v0), (r1, v1) in zip(control, control[1:]):
            span = r1 - r0
            common = math.lcm(v0.denominator, v1.denominator)
            a0 = v0.numerator * (common // v0.denominator)
            a1 = v1.numerator * (common // v1.denominator)
            base, step, den = a0 * span, a1 - a0, common * span
            values[r0 - 1:r1] = [(base + i * step) / den for i in range(span + 1)]
        if len(control) == 1:
            values = [float(control[0][1])] * n_samples
        return cls(reference_memory_bytes, SampleSet.from_values(values))


@dataclass(frozen=True)
class TrafficPattern:
    """One request-arrival process; fields depend on ``kind``.

    Kinds: ``poisson_constant`` (rate_rps, duration_s), ``on_off_burst``
    (high_rate, low_rate, period_s, duty, duration_s) and
    ``trace_replay`` (explicit non-decreasing timestamps in ms).
    """

    kind: str
    rate_rps: float | None = None
    duration_s: float | None = None
    high_rate: float | None = None
    low_rate: float | None = None
    period_s: float | None = None
    duty: float | None = None
    timestamps: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind not in TRAFFIC_KINDS:
            raise DomainError(f"unknown traffic kind {self.kind!r}; expected one of {TRAFFIC_KINDS}")
        # An infinite rate or duration would draw arrivals without end.
        for name in ("rate_rps", "duration_s", "high_rate", "low_rate", "period_s"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise DomainError(f"{name} must be finite, got {value}")
        if self.kind == "poisson_constant":
            self._require(rate_rps=self.rate_rps, duration_s=self.duration_s)
            if self.rate_rps < 0:
                raise DomainError("rate_rps must be non-negative")
            if self.duration_s <= 0:
                raise DomainError("duration_s must be positive")
            self._check_count(self.rate_rps * self.duration_s)
        elif self.kind == "on_off_burst":
            self._require(
                high_rate=self.high_rate, low_rate=self.low_rate,
                period_s=self.period_s, duty=self.duty, duration_s=self.duration_s,
            )
            if self.high_rate < 0 or self.low_rate < 0:
                raise DomainError("burst rates must be non-negative")
            if self.period_s <= 0 or self.duration_s <= 0:
                raise DomainError("period_s and duration_s must be positive")
            if not 0 <= self.duty <= 1:
                raise DomainError(f"duty must lie in [0, 1], got {self.duty}")
            # generate_arrivals walks every period, even one where no request is expected.
            periods = self.duration_s / self.period_s
            if periods > MAX_REQUESTS:
                raise DomainError(f"period count {periods:g} exceeds the limit of {MAX_REQUESTS:,}")
            # Whole periods, then the last partial one, which starts high.
            full, rest = divmod(self.duration_s, self.period_s)
            high_s = self.duty * self.period_s
            self._check_count(
                full * (high_s * self.high_rate + (self.period_s - high_s) * self.low_rate)
                + min(rest, high_s) * self.high_rate + max(rest - high_s, 0.0) * self.low_rate
            )
        else:
            if self.timestamps is None:
                raise DomainError("trace_replay requires timestamps")
            object.__setattr__(self, "timestamps", tuple(float(t) for t in self.timestamps))
            previous = None
            for t in self.timestamps:
                if not math.isfinite(t) or t < 0:
                    raise DomainError(f"trace timestamps must be finite and non-negative, got {t}")
                if previous is not None and t < previous:
                    raise DomainError("trace timestamps must be non-decreasing")
                previous = t

    def _check_count(self, expected: float) -> None:
        if expected > MAX_REQUESTS:
            raise DomainError(f"expected request count {expected:g} exceeds the limit of {MAX_REQUESTS:,}")

    def _require(self, **fields):
        missing = [name for name, value in fields.items() if value is None]
        if missing:
            raise DomainError(f"{self.kind} requires {', '.join(missing)}")

    @classmethod
    def poisson(cls, rate_rps: float, duration_s: float) -> "TrafficPattern":
        return cls(kind="poisson_constant", rate_rps=rate_rps, duration_s=duration_s)

    @classmethod
    def burst(
        cls, high_rate: float, low_rate: float, period_s: float, duty: float, duration_s: float
    ) -> "TrafficPattern":
        return cls(
            kind="on_off_burst", high_rate=high_rate, low_rate=low_rate,
            period_s=period_s, duty=duty, duration_s=duration_s,
        )

    @classmethod
    def trace(cls, timestamps: Sequence[float]) -> "TrafficPattern":
        return cls(kind="trace_replay", timestamps=tuple(timestamps))

    @classmethod
    def steady(cls, rate_rps: float, duration_s: float) -> "TrafficPattern":
        """Evenly spaced trace: rate*duration requests with exact gaps."""
        if rate_rps < 0 or duration_s <= 0:
            raise DomainError("steady needs rate_rps >= 0 and duration_s > 0")
        cls.poisson(rate_rps, duration_s)  # the finite and count checks of the same fields
        n = round(rate_rps * duration_s)
        gap_ms = 1000.0 / rate_rps if rate_rps > 0 else 0.0
        return cls.trace([i * gap_ms for i in range(n)])


@dataclass(frozen=True)
class SimulationConfig:
    """Knobs of one simulated deployment.

    ``keep_alive_s`` may be ``math.inf`` for platforms modelled as never
    reclaiming idle instances. ``max_instances`` is the concurrency cap;
    at the cap, requests queue FIFO for the earliest-free instance.
    """

    seed: int
    memory_bytes: int
    scaling: CpuScaling = CpuScaling()
    keep_alive_s: float = DEFAULT_KEEP_ALIVE_S
    cold_start_ms: float = DEFAULT_COLD_START_MS
    max_instances: Union[int, Unlimited] = UNLIMITED

    def __post_init__(self):
        if self.memory_bytes <= 0:
            raise DomainError("memory_bytes must be positive")
        if math.isnan(self.keep_alive_s) or self.keep_alive_s < 0:
            raise DomainError("keep_alive_s must be non-negative (math.inf allowed)")
        if not math.isfinite(self.cold_start_ms) or self.cold_start_ms < 0:
            raise DomainError("cold_start_ms must be finite and non-negative")
        if not isinstance(self.max_instances, Unlimited):
            if self.max_instances <= 0:
                raise DomainError("max_instances must be positive or UNLIMITED")


class InvocationRecord(NamedTuple):
    """One simulated request, all times in ms.

    ``end_ms`` is start + exec, plus the cold-start penalty when the
    instance had to be initialized. ``billed_ms`` is exec rounded up to
    the billing granularity; the penalty itself is not billed.
    """

    arrival_ms: float
    start_ms: float
    end_ms: float
    cold: bool
    instance_id: int
    exec_ms: float
    billed_ms: float


def _transpose(records: Sequence[InvocationRecord]) -> InvocationRecord:
    """The records as columns: each field holds that field of every record, in order."""
    if not records:
        return InvocationRecord._make(() for _ in InvocationRecord._fields)
    return InvocationRecord._make(zip(*records))


@dataclass(frozen=True)
class SimulationResult:
    """Everything a finished run produced, in arrival order."""

    records: tuple[InvocationRecord, ...]
    cold_fraction: float
    latency_summary: Summary | None
    total_billed_gb_s: float
    memory_bytes: int

    @property
    def latencies_ms(self) -> tuple[float, ...]:
        return tuple(r.end_ms - r.arrival_ms for r in self.records)


def scale_duration(
    base_ms: float,
    reference_memory_bytes: int,
    target_memory_bytes: int,
    scaling: CpuScaling,
) -> float:
    """Rescale a duration measured at one memory size to another.

    Durations shrink in proportion to the effective-CPU ratio and stop
    improving once the grant saturates; identical memory is the identity.

    Raises:
        DomainError: on non-positive durations or memory sizes.
    """
    if base_ms <= 0:
        raise DomainError(f"base_ms must be positive, got {base_ms}")
    return base_ms * (
        effective_cpu(reference_memory_bytes, scaling) / effective_cpu(target_memory_bytes, scaling)
    )


def _poisson_arrivals(rng: np.random.Generator, rate_rps: float, start_ms: float, end_ms: float) -> list[float]:
    """Arrivals of ``t = start_ms; t += rng.exponential(1000 / rate_rps)`` while ``t < end_ms``.

    Gaps are drawn in blocks and summed in order, which gives the scalar
    loop's values bit for bit. The generator is left where that loop
    leaves it, one draw past the last arrival: burst segments share it,
    so a draw too many would shift every later segment.
    """
    out: list[float] = []
    if rate_rps <= 0:
        return out
    scale = 1000.0 / rate_rps
    t = start_ms
    while True:
        # Enough for the expected count plus several standard deviations,
        # so one block nearly always reaches end_ms.
        expected = max(end_ms - t, 0.0) * rate_rps / 1000
        size = int(min(expected * 1.1 + 64, _MAX_BLOCK))
        state = rng.bit_generator.state
        gaps = rng.exponential(scale, size)
        gaps[0] += t
        times = gaps.cumsum()
        inside = int(times.searchsorted(end_ms))  # times[inside] is the first >= end_ms
        out.extend(times[:inside].tolist())
        if inside < size:
            # Replay only the draws the scalar loop makes: each arrival and the one past end_ms.
            rng.bit_generator.state = state
            rng.exponential(scale, inside + 1)
            return out
        t = float(times[-1])


def generate_arrivals(pattern: TrafficPattern, seed) -> list[float]:
    """Arrival timestamps in ms for one pattern, deterministic per seed.

    ``seed`` may be anything ``numpy.random.default_rng`` accepts. Traces
    replay verbatim and ignore the seed.
    """
    if pattern.kind == "trace_replay":
        return list(pattern.timestamps)
    import numpy as np

    rng = np.random.default_rng(seed)
    if pattern.kind == "poisson_constant":
        return _poisson_arrivals(rng, pattern.rate_rps, 0.0, pattern.duration_s * 1000.0)
    duration_ms = pattern.duration_s * 1000.0
    period_ms = pattern.period_s * 1000.0
    out: list[float] = []
    t0 = 0.0
    while t0 < duration_ms:
        high_end = min(t0 + pattern.duty * period_ms, duration_ms)
        if high_end > t0:
            out.extend(_poisson_arrivals(rng, pattern.high_rate, t0, high_end))
        low_end = min(t0 + period_ms, duration_ms)
        if low_end > high_end:
            out.extend(_poisson_arrivals(rng, pattern.low_rate, high_end, low_end))
        t0 += period_ms
    return out


def simulate(
    profile: LatencyProfile,
    pattern: TrafficPattern,
    config: SimulationConfig,
    pricing: PricingModel,
) -> SimulationResult:
    """Run one seeded deployment simulation.

    Every arrival yields exactly one record. Service times are profile
    draws (seeded, with replacement) passed through :func:`scale_duration`
    for the configured memory. Each arrival picks an instance by these
    rules, in order:

    * warm: among instances idle for at most ``keep_alive_s``, the most
      recently freed one, lowest id on ties;
    * otherwise a new instance, which pays ``cold_start_ms`` before
      executing;
    * at ``max_instances``, the earliest-free instance, lowest id on ties:
      the request waits FIFO for it, and is cold if that instance sat idle
      past keep-alive.

    Instances live in three heaps (busy, idle, expired), so each arrival
    costs O(log instances) amortized, however many instances exist.
    """
    import numpy as np

    seed_seq = np.random.SeedSequence(config.seed)
    arrival_seed, service_seed = seed_seq.spawn(2)
    arrivals_ms = generate_arrivals(pattern, arrival_seed)
    n = len(arrivals_ms)

    # One factor serves every draw; scale_duration(d) == d * factor for d > 0.
    factor = scale_duration(
        1.0, profile.reference_memory_bytes, config.memory_bytes, config.scaling
    )
    base_values = profile.samples.values
    rng = np.random.default_rng(service_seed)
    draw_index = rng.integers(0, len(base_values), size=n).tolist() if n else ()

    keep_alive_us = math.inf if math.isinf(config.keep_alive_s) else round(config.keep_alive_s * 1e6)
    cold_us = round(config.cold_start_ms * 1000)
    granularity_us = pricing.billing_granularity_ms * 1000
    cap = math.inf if isinstance(config.max_instances, Unlimited) else config.max_instances

    busy: list[tuple[int, int]] = []     # (free_at_us, id) until an arrival at or after free_at
    idle: list[tuple[int, int]] = []     # (-free_at_us, id): newest first, lowest id on ties
    expired: list[tuple[int, int]] = []  # (free_at_us, id), idle past keep-alive
    n_instances = 0
    records: list[InvocationRecord] = []
    latencies: list[float] = []
    n_cold = 0

    for i in range(n):
        t = round(arrivals_ms[i] * 1000)
        exec_us = round(base_values[draw_index[i]] * 1000 * factor)
        while busy and busy[0][0] <= t:
            free_at, k = heappop(busy)
            heappush(idle, (-free_at, k))
        if idle and t + idle[0][0] <= keep_alive_us:
            k = heappop(idle)[1]
            start, cold = t, False
        else:
            # The newest idle instance sat past keep-alive, so every idle one
            # did, and arrivals only get later: none can serve warm again.
            for neg_free_at, k in idle:
                heappush(expired, (-neg_free_at, k))
            idle.clear()
            if n_instances < cap:
                k = n_instances
                n_instances += 1
                start, cold = t, True
            else:
                # Expired instances were freed by t, busy ones after it.
                free_at, k = heappop(expired if expired else busy)
                start = max(t, free_at)
                cold = start - free_at > keep_alive_us
        end = start + exec_us + (cold_us if cold else 0)
        heappush(busy, (end, k))
        billed_us = round_up(exec_us, granularity_us)
        n_cold += cold
        records.append(InvocationRecord(
            t / 1000, start / 1000, end / 1000, cold, k, exec_us / 1000, billed_us / 1000,
        ))
        latencies.append((end - t) / 1000)

    memory_gb = config.memory_bytes / GB
    return SimulationResult(
        records=tuple(records),
        cold_fraction=n_cold / n if n else 0.0,
        latency_summary=summarize(latencies) if latencies else None,
        total_billed_gb_s=math.fsum(r.billed_ms for r in records) * memory_gb / 1000,
        memory_bytes=config.memory_bytes,
    )


def export_result_csv(result: SimulationResult, path: str | Path) -> None:
    """Write per-record end-to-end latencies in the shared sample CSV format.

    The bytes are those :func:`~faasplan.metrics.write_samples_csv` writes
    for the same samples, formatted straight from the record columns.

    Raises:
        DomainError: when a latency is negative or not finite.
    """
    columns = _transpose(result.records)
    latencies = tuple(map(float, map(operator.sub, columns.end_ms, columns.arrival_ms)))
    for value in latencies:
        if not 0 <= value < math.inf:
            raise DomainError(f"durations must be finite and non-negative, got {value}")
    rows = map(_CSV_ROW.format, map(float, columns.arrival_ms), latencies,
               map(int, columns.cold), columns.instance_id)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(CSV_HEADER) + "\r\n")
        fh.writelines(rows)


_NUMBER = (int, float)
# The fields of a saved record, in InvocationRecord's order, and the types each may load as.
_RECORD_KINDS = {"arrival_ms": _NUMBER, "start_ms": _NUMBER, "end_ms": _NUMBER, "cold": (bool,),
                 "instance_id": (int,), "exec_ms": _NUMBER, "billed_ms": _NUMBER}
_RECORD_ROW = operator.itemgetter(*_RECORD_KINDS)
_KIND_TEXT = {_NUMBER: "a finite non-negative number", (bool,): "true or false", (int,): "an integer"}
# One record as json.dumps(..., indent=2) lays it out inside the "records" list.
_JSON_RECORD = "    {\n" + ",\n".join(f'      "{key}": %s' for key in InvocationRecord._fields) + "\n    }"
# One row of the sample CSV, as csv.writer writes it: no cell here ever needs quoting.
_CSV_ROW = "{!r},{!r},{},{}\r\n"


def result_header(result: SimulationResult) -> dict:
    """The JSON-ready fields of ``result`` other than its records."""
    return {
        "memory_bytes": result.memory_bytes,
        "cold_fraction": result.cold_fraction,
        "total_billed_gb_s": result.total_billed_gb_s,
        "latency_summary": (
            None if result.latency_summary is None else summary_to_dict(result.latency_summary)
        ),
    }


def result_to_dict(result: SimulationResult) -> dict:
    """JSON-ready dict carrying the full result, including billing detail."""
    return {**result_header(result), "records": [r._asdict() for r in result.records]}


def render_result_json(result: SimulationResult) -> str:
    """``json.dumps(result_to_dict(result), indent=2)``, built column by column.

    The indented encoder runs in pure Python; here each column goes
    through one compact (C-encoded) ``json.dumps`` and the records are
    joined through one template, which gives the same text several times
    faster. Only the header goes through the indented encoder.
    """
    header = json.dumps({**result_header(result), "records": []}, indent=2)
    if not result.records:
        return header
    # A compact dump of a column of numbers and booleans is "[a, b, ...]".
    cells = [json.dumps(column)[1:-1].split(", ") for column in _transpose(result.records)]
    if any(len(column) != len(result.records) for column in cells):  # a value of another kind
        return json.dumps(result_to_dict(result), indent=2)
    body = ",\n".join(map(_JSON_RECORD.__mod__, zip(*cells)))
    return header.removesuffix("[]\n}") + "[\n" + body + "\n  ]\n}"


def result_from_dict(payload: Mapping) -> SimulationResult:
    """Inverse of :func:`result_to_dict`."""
    return SimulationResult(
        records=tuple(map(InvocationRecord._make, map(_RECORD_ROW, payload["records"]))),
        cold_fraction=payload["cold_fraction"],
        latency_summary=(
            None if payload["latency_summary"] is None
            else summary_from_dict(payload["latency_summary"])
        ),
        total_billed_gb_s=payload["total_billed_gb_s"],
        memory_bytes=payload["memory_bytes"],
    )


def save_result_json(result: SimulationResult, path: str | Path) -> None:
    """Write :func:`render_result_json` and a final newline to ``path``."""
    Path(path).write_text(render_result_json(result) + "\n", "utf-8")


def _check_records(records: list, label: str) -> None:
    """Raise naming a saved record that lacks a field or holds a bad value.

    Numbers must be finite and non-negative. Each field is checked over all
    records at once, in passes that run in C: a Python-level check per
    record added a few percent to ``cost --result`` on a 5k-record result.
    """
    try:
        columns = list(zip(*map(_RECORD_ROW, records)))
    except (KeyError, TypeError):  # a record that is not an object, or lacks a field
        for i, record in enumerate(records):
            if type(record) is not dict:
                raise ScenarioError(
                    f"{label}: records[{i}]: must be an object, got {reprlib.repr(record)}") from None
            if not record.keys() >= _RECORD_KINDS.keys():
                missing = sorted(_RECORD_KINDS.keys() - record.keys())
                raise ScenarioError(f"{label}: records[{i}]: missing keys {missing}") from None
        raise
    for (key, types), column in zip(_RECORD_KINDS.items(), columns):
        sound = set(map(type, column)) <= set(types)
        if sound and types is _NUMBER:  # with no NaN, min and max compare every value
            sound = not any(map(math.isnan, column)) and 0 <= min(column) and max(column) < math.inf
        if not sound:
            i, value = next((i, v) for i, v in enumerate(column) if type(v) not in types
                            or (types is _NUMBER and not 0 <= v < math.inf))
            raise ScenarioError(
                f"{label}: records[{i}]: {key}: must be {_KIND_TEXT[types]}, got {reprlib.repr(value)}")


def load_result_json(path: str | Path) -> SimulationResult:
    """Inverse of :func:`save_result_json`.

    Raises:
        ScenarioError: naming the file, when it is unreadable or any key
            :func:`result_from_dict` reads is missing or of the wrong type.
    """
    payload, label = _schema.load(path, "result")
    top = _schema.Block(payload, label)
    _check_records(top.get("records", list), label)
    top.get("cold_fraction", float)
    top.get("total_billed_gb_s", float)
    if top.get("memory_bytes", int) <= 0:
        raise ScenarioError(f"{label}: memory_bytes: must be positive")
    if top.get("latency_summary") is not None:
        summary = top.block("latency_summary")
        summary.get("count", int)
        for key in ("mean_ms", "q50_ms", "q95_ms", "q99_ms"):
            summary.get(key, float)
    return result_from_dict(payload)
