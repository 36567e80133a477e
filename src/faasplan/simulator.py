"""Seeded discrete-event simulation of serverless invocations.

Arrivals drive a pool of single-request instances with keep-alive reuse:
an idle instance whose last use is recent enough serves warm, anything
else pays the cold-start penalty on a fresh (or expired) instance.
Service times are resampled with replacement from an empirical latency
profile and rescaled for the configured memory size through the CPU law.

The clock is integer microseconds internally, so a given seed produces
bit-identical results on every run and platform.

The records, the result and their JSON and CSV files belong to
:mod:`faasplan.results`, which a reader of saved results loads without
this module; the names are re-exported here.
"""

from __future__ import annotations

import math
import sys
from array import array
from fractions import Fraction
from heapq import heappop, heappush
from itertools import chain
from types import ModuleType
from typing import Iterable, Iterator, Mapping, Sequence, Union

from ._record import dataclass, replace
from .cost import PricingModel, round_up
from .errors import DomainError, check_seed
from .metrics import SampleSet, nearest_rank_index, summarize
from .providers import CpuScaling, effective_cpu
from .results import (  # noqa: F401 - re-exported
    InvocationRecord,
    SimulationResult,
    export_result_csv,
    load_result_json,
    render_result_json,
    result_from_dict,
    result_header,
    result_to_dict,
    save_result_json,
)
from .units import GB, UNLIMITED, Unlimited

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
# Standard exponentials numpy draws at once for an arrival walk.
_BLOCK = 4096
# Most requests a traffic pattern may expect, and most periods a burst
# pattern may span. A run that numpy drew holds about 265 B per request at
# its peak, most of it the event loop's per-request lists; the result keeps
# 57 B of it in typed columns. In a fresh process with numpy loaded,
# simulate() raised the peak RSS 250 MiB above the imports at 10^6 Poisson
# requests and 505 MiB at 2*10^6, so a run at this limit needs about 2.7 GB.
# A run drawn in Python builds its columns as lists, about 390 B per request
# (369 MiB at 10^6 with numpy not importable), so 3.9 GB at this limit.
# Writing its JSON file adds one block of records as text, about 15 MiB at
# any run size.
MAX_REQUESTS = 10**7
# A run that finds numpy unloaded draws in pure Python, unless its draws
# would cost more there than importing numpy. Measured on a shared 2-vCPU
# host: `import numpy` took 141-169 ms, and pure Python 1.20-1.34 us per
# arrival gap and 0.62-0.89 us per service-time index (each timed over 100k
# draws; numpy makes either in about 0.1 us). With these rounded figures a
# Poisson or burst run breaks even at 80,000 expected requests and a trace,
# which draws no gaps, at 200,000. The pure-Python arrival walk over a
# stream of exponentials measures 0.8-1.1 us per gap (timed the same way);
# _GAP_NS keeps the higher figure, so those counts and the README's stand.
_IMPORT_NUMPY_NS = 160_000_000
_GAP_NS = 1_200
_INDEX_NS = 800
# Below this many µs, int64 and float64 hold every integer exactly.
_EXACT_US = 2**53


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
            self._check_count()
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
            # Once a stretch can draw, the arrival walk visits every period, even one where no
            # request is expected: 0.5-1.0 us a period with numpy loaded, so 5-10 s at the limit.
            periods = self.duration_s / self.period_s
            if periods > MAX_REQUESTS:
                raise DomainError(f"period count {periods:g} exceeds the limit of {MAX_REQUESTS:,}")
            self._check_count()
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

    @property
    def expected_requests(self) -> float:
        """The mean number of arrivals: exact for a trace, rate times time otherwise."""
        if self.kind == "trace_replay":
            return len(self.timestamps)
        if self.kind == "poisson_constant":
            return self.rate_rps * self.duration_s
        # Whole periods, then the last partial one, which starts high.
        full, rest = divmod(self.duration_s, self.period_s)
        high_s = self.duty * self.period_s
        return (full * (high_s * self.high_rate + (self.period_s - high_s) * self.low_rate)
                + min(rest, high_s) * self.high_rate + max(rest - high_s, 0.0) * self.low_rate)

    def _check_count(self) -> None:
        expected = self.expected_requests
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
        object.__setattr__(self, "seed", check_seed(self.seed))
        if not self.memory_bytes > 0:  # NaN too
            raise DomainError("memory_bytes must be positive")
        if math.isnan(self.keep_alive_s) or self.keep_alive_s < 0:
            raise DomainError("keep_alive_s must be non-negative (math.inf allowed)")
        if not math.isfinite(self.cold_start_ms) or self.cold_start_ms < 0:
            raise DomainError("cold_start_ms must be finite and non-negative")
        cap = self.max_instances
        if not (isinstance(cap, Unlimited)
                or isinstance(cap, int) and not isinstance(cap, bool) and cap >= 1):
            raise DomainError(f"max_instances must be an integer of at least 1 or UNLIMITED, "
                              f"got {cap!r}")


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


def _draws_in_python(pattern: TrafficPattern, seed, service_draws: bool) -> bool:
    """Whether ``seed``'s draws for ``pattern`` come from :mod:`._pcg64` rather than numpy.

    Both draw the same numbers. numpy draws once it is loaded, since its
    draws then cost nothing to set up; for a run whose draws (arrival gaps,
    and one service index per request if ``service_draws``) would cost more
    in Python than importing numpy; and for any seed but a non-negative
    int, which only ``numpy.random.default_rng`` takes. Where numpy cannot
    be imported, Python draws them all.

    Raises:
        DomainError: for a seed that only numpy takes, when it cannot be imported.
    """
    if sys.modules.get("numpy") is not None:
        return False
    if isinstance(seed, int) and seed >= 0:
        requests = pattern.expected_requests
        gaps = 0 if pattern.kind == "trace_replay" else requests
        if gaps * _GAP_NS + (requests * _INDEX_NS if service_draws else 0) < _IMPORT_NUMPY_NS:
            return True
    from importlib.util import find_spec

    if find_spec("numpy") is not None:
        return False
    check_seed(seed)
    return True


def _exponentials(seed, in_python: bool) -> Iterator[float]:
    """The standard exponentials of ``numpy.random.default_rng(seed)``, one by one.

    :mod:`._pcg64` draws them if ``in_python``, else numpy, ``_BLOCK`` at a time.
    """
    if in_python:
        from ._pcg64 import Generator

        return iter(Generator(seed).standard_exponential, None)
    import numpy as np

    rng = np.random.default_rng(seed)
    return chain.from_iterable(iter(lambda: rng.standard_exponential(_BLOCK).tolist(), None))


def _walk(pattern: TrafficPattern, exponentials: Iterator[float]) -> list[float]:
    """Arrival timestamps in ms of ``pattern``, over a stream of standard exponentials.

    Each stretch of positive rate walks ``t += (1000 / rate_rps) * e`` from
    its start while ``t`` stays below its end: numpy's scalar loop
    ``t += rng.exponential(1000 / rate_rps)``, as ``exponential(scale)`` is
    ``scale * standard_exponential()``. It reads the draw that crosses the
    end too, as that loop does, so each later stretch reads the loop's
    draws; draws left after the last stretch do no harm. A Poisson pattern
    is one period, all of it high; traces replay verbatim.
    """
    if pattern.kind == "trace_replay":
        return list(pattern.timestamps)
    duration_ms = pattern.duration_s * 1000.0
    if pattern.kind == "poisson_constant":
        period_ms, high_ms, high_rate, low_rate = duration_ms, duration_ms, pattern.rate_rps, 0.0
    else:
        period_ms = pattern.period_s * 1000.0
        high_ms, high_rate, low_rate = pattern.duty * period_ms, pattern.high_rate, pattern.low_rate
    out: list[float] = []
    if not (high_rate > 0 and high_ms > 0 or low_rate > 0 and period_ms > high_ms):
        return out  # no stretch has both a positive rate and a positive length
    append = out.append
    t0 = 0.0
    while t0 < duration_ms:
        high_end = min(t0 + high_ms, duration_ms)
        low_end = min(t0 + period_ms, duration_ms)
        for t, end_ms, rate_rps in (t0, high_end, high_rate), (high_end, low_end, low_rate):
            if end_ms > t and rate_rps > 0:
                scale = 1000.0 / rate_rps
                for e in exponentials:  # resumes where the previous stretch stopped
                    t += scale * e
                    if not t < end_ms:  # a NaN t (infinite scale, zero draw) ends it too
                        break
                    append(t)
        t0 += period_ms
    return out


def generate_arrivals(pattern: TrafficPattern, seed) -> list[float]:
    """Arrival timestamps in ms for one pattern, deterministic per seed.

    ``seed`` may be anything ``numpy.random.default_rng`` accepts, and the
    arrivals are one walk over its generator's standard exponentials. A
    non-negative int seed draws them in pure Python, bit for bit the same,
    unless numpy is loaded already or the pattern expects more than about
    133,000 requests and numpy can be imported. Without numpy, any other
    seed raises DomainError. Traces replay verbatim and ignore the seed.
    """
    if pattern.kind == "trace_replay":
        return list(pattern.timestamps)
    return _walk(pattern, _exponentials(seed, _draws_in_python(pattern, seed, service_draws=False)))


def _draw_requests(
    pattern: TrafficPattern, seed: int, n_values: int
) -> tuple[list[float], Sequence[int], ModuleType | None]:
    """A run's arrivals in ms, per arrival the index of its profile sample, and who drew.

    They come from the two children of ``SeedSequence(seed)``, drawn by
    numpy or, bit for bit the same, by :mod:`._pcg64` (see
    :func:`_draws_in_python`). The last item is the numpy module when numpy
    drew, and the indices are then its int64 array; else it is None.
    """
    if _draws_in_python(pattern, seed, service_draws=True):
        from ._pcg64 import Generator, SeedSequence

        arrival_seed, service_seed = SeedSequence(seed).spawn(2)
        arrivals_ms = _walk(pattern, _exponentials(arrival_seed, in_python=True))
        return arrivals_ms, Generator(service_seed).integers(n_values, len(arrivals_ms)), None
    import numpy as np

    arrival_seed, service_seed = np.random.SeedSequence(seed).spawn(2)
    arrivals_ms = _walk(pattern, _exponentials(arrival_seed, in_python=False))
    rng = np.random.default_rng(service_seed)
    return arrivals_ms, rng.integers(0, n_values, size=len(arrivals_ms)), np


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

    Each instance is one int, its free time and id packed as
    ``free_at_us << S | id`` with ``S`` the bit length of the arrival
    count, so instances compare in one int comparison. Busy instances live
    in a heap, idle ones in a list sorted by free time (appended to as they
    free up, a tie of simultaneous frees in one reversed run), and, under a
    cap, expired ones in a heap; each arrival costs O(log instances)
    amortized, however many instances exist.

    Arrivals and service draws come from the two children of
    ``SeedSequence(config.seed)`` (see :func:`_draw_requests`). When numpy
    drew them, the per-request arithmetic before and after the event loop
    (µs times, latencies, billing, ms columns) runs on numpy arrays; a run
    whose µs values could reach 2**53 takes the Python columns instead.
    Either way the result holds the same bytes.
    """
    return _run_requests(profile, config, pricing,
                         *_draw_requests(pattern, config.seed, len(profile.samples.values)))


def simulate_sweep(
    profile: LatencyProfile,
    pattern: TrafficPattern,
    config: SimulationConfig,
    pricing: PricingModel,
    memory_sizes: Iterable[int],
) -> Iterator[SimulationResult]:
    """:func:`simulate` at each memory size in bytes, in order, from one set of draws.

    The arrivals and profile draws do not depend on the memory size, so
    they are drawn once; each result equals ``simulate`` with that size in
    ``config``. Every size is checked before anything is drawn or run.
    """
    configs = [replace(config, memory_bytes=memory_bytes) for memory_bytes in memory_sizes]
    draws = _draw_requests(pattern, config.seed, len(profile.samples.values))
    return (_run_requests(profile, c, pricing, *draws) for c in configs)


def _run_requests(
    profile: LatencyProfile,
    config: SimulationConfig,
    pricing: PricingModel,
    arrivals_ms: list[float],
    draw_index: Sequence[int],
    np: ModuleType | None = None,
) -> SimulationResult:
    """The event loop of :func:`simulate` over drawn arrivals and profile sample indices.

    ``np`` is the numpy module when numpy drew the indices. Then the
    arithmetic before and after the loop runs on numpy arrays, for a run
    whose µs values all stay below 2**53: there int64, float64 and Python's
    ints hold the same integers, so each column gets the same bits.
    """
    # One factor serves every draw; scale_duration(d) == d * factor for d > 0.
    factor = scale_duration(
        1.0, profile.reference_memory_bytes, config.memory_bytes, config.scaling
    )
    base_values = profile.samples.values
    cold_us = round(config.cold_start_ms * 1000)
    granularity_us = pricing.billing_granularity_ms * 1000
    vector = np is not None and len(arrivals_ms) > 0
    if vector:
        # A product or sum that overflows is inf, which fails the bound below: the Python
        # columns then raise what they always did, and numpy warns of nothing.
        with np.errstate(over="ignore"):
            # rint rounds half to even, as round() does, after the same products.
            t_us = np.rint(np.array(arrivals_ms) * 1000)
            exec_us = np.rint(np.array(base_values) * 1000 * factor)[draw_index]
            # No end passes the last arrival plus every exec time and cold start, and no
            # billed time passes an exec time plus the granularity. Floats add non-negative
            # integers exactly below 2**53, and give at least 2**53 for a sum that reaches it.
            bound = t_us.max() + exec_us.sum()
        vector = bound < _EXACT_US and int(bound) + len(t_us) * cold_us + granularity_us < _EXACT_US
    if vector:
        t_us, exec_us = t_us.astype(np.int64), exec_us.astype(np.int64)
    else:
        t_us = [round(a * 1000) for a in arrivals_ms]
        exec_us = [round(base_values[j] * 1000 * factor) for j in draw_index]

    keep_alive_us = math.inf if math.isinf(config.keep_alive_s) else round(config.keep_alive_s * 1e6)
    capped = not isinstance(config.max_instances, Unlimited)
    cap = config.max_instances if capped else math.inf

    # Each pool entry is one int, free_at_us << S | id: ids stay below
    # 2**S, so ints order as (free_at_us, id) and the free time is key >> S.
    # An idle entry is its key ^ M, ordered as (free_at_us, -id). idle[-1]
    # is the most recently freed instance, lowest id on ties. Instances
    # leave busy in ascending free time, none before an instance already
    # idle, so each lands at the end of idle. On a tie with idle[-1] too:
    # only a zero-length run at this µs on idle[-1] itself, the lowest id
    # of its tie, can free an instance at a time idle already holds.
    S = max(len(t_us), 1).bit_length()
    M = (1 << S) - 1
    busy: list[int] = []     # heap of keys until an arrival reaches free_at
    idle: list[int] = []     # key ^ M, sorted
    expired: list[int] = []  # heap of keys idle past keep-alive, kept only under a cap
    n_instances = 0
    starts, ends, colds, ids = [], [], [], []  # per arrival: start_us, end_us, cold, id

    for t, e in zip(t_us.tolist(), exec_us.tolist()) if vector else zip(t_us, exec_us):
        while busy and busy[0] >> S <= t:
            key = heappop(busy)
            free_at = key >> S
            if busy and busy[0] >> S == free_at:
                # A tie leaves busy in ascending id, and idle keeps the lowest id
                # last. Appending the run reversed costs O(1) an entry, where
                # inserting each in order would shift the whole run.
                tied = [key ^ M]
                while busy and busy[0] >> S == free_at:
                    tied.append(heappop(busy) ^ M)
                tied.reverse()
                idle += tied
            else:
                idle.append(key ^ M)
        if idle and t - (idle[-1] >> S) <= keep_alive_us:
            k = (idle.pop() ^ M) & M
            start, cold = t, False
        else:
            if idle:
                # The newest idle instance sat past keep-alive, so every idle
                # one did, and arrivals only get later: none can serve warm
                # again. Only a capped pool reuses them, cold.
                if capped:
                    for entry in idle:
                        heappush(expired, entry ^ M)
                idle.clear()
            if n_instances < cap:
                k = n_instances
                n_instances += 1
                start, cold = t, True
            else:
                # Expired instances were freed by t, busy ones after it.
                key = heappop(expired if expired else busy)
                free_at, k = key >> S, key & M
                start = free_at if free_at > t else t
                cold = start - free_at > keep_alive_us
        end = start + e + (cold_us if cold else 0)
        heappush(busy, end << S | k)
        starts.append(start)
        ends.append(end)
        colds.append(cold)
        ids.append(k)

    n = len(colds)
    # Each µs column is dropped as soon as its ms column exists, so a large
    # run never holds both in full.
    if vector:
        # Below 2**53 an int64 converts to float64 exactly, so / 1000 rounds as int / int does.
        start_ms = _ms_column(np.array(starts, dtype=np.int64))
        del starts
        ends = np.array(ends, dtype=np.int64)
        latency_summary = summarize(np.sort((ends - t_us) / 1000).tolist())
        end_ms = _ms_column(ends)
        del ends
        arrival_ms = _ms_column(t_us)
        del t_us
        billed_ms = _ms_column(round_up(exec_us, granularity_us))
        exec_ms = _ms_column(exec_us)
        del exec_us
    else:
        latency_summary = summarize([(end - t) / 1000 for end, t in zip(ends, t_us)]) if n else None
        billed_ms = [round_up(e, granularity_us) / 1000 for e in exec_us]
        arrival_ms = [t / 1000 for t in t_us]
        del t_us
        start_ms = [start / 1000 for start in starts]
        del starts
        end_ms = [end / 1000 for end in ends]
        del ends
        exec_ms = [e / 1000 for e in exec_us]
        del exec_us
    return SimulationResult(
        arrival_ms=arrival_ms,
        start_ms=start_ms,
        end_ms=end_ms,
        cold=colds,
        instance_id=ids,
        exec_ms=exec_ms,
        billed_ms=billed_ms,
        cold_fraction=sum(colds) / n if n else 0.0,
        latency_summary=latency_summary,
        total_billed_gb_s=math.fsum(billed_ms) * (config.memory_bytes / GB) / 1000,
        memory_bytes=config.memory_bytes,
    )


def _ms_column(us) -> array:
    """An int64 numpy array of µs as an ``array('d')`` of ms, copied from the quotient's bytes."""
    return array("d", (us / 1000).tobytes())
