"""Independent reference computations the benchmark checks the program against.

Nothing here imports faasplan. The reference simulator re-derives every
record from the same seed scheme the library documents (one
``SeedSequence(seed).spawn(2)`` pair: arrivals first, service draws
second) with a heap-based instance pool, so a faster simulator core must
still reproduce it bit for bit. Integers are microseconds throughout.
"""

from __future__ import annotations

import hashlib
import heapq
import math
import statistics
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

# (arrival_us, start_us, end_us, cold, instance_id, exec_us, billed_us)
Record = tuple[int, int, int, bool, int, int, int]


def nearest_rank(values: Sequence[float], q: Fraction | float) -> float:
    """The ceil(q*n)-th smallest value (nearest rank, no interpolation)."""
    if not values:
        raise ValueError("nearest rank of an empty list")
    ordered = sorted(values)
    k = math.ceil(Fraction(q).limit_denominator(1_000_000) * len(ordered))
    return ordered[min(max(k, 1), len(ordered)) - 1]


def trimmed_mean(values: Sequence[float], cut: float = 0.2) -> float:
    """Mean of the values left after dropping the ``cut`` share at each end.

    Host stalls come in steps of tens of ms, so a run's timings cluster on a
    few levels; a median jumps between those levels from run to run, while
    the middle 60% averages over them and still ignores rare long stalls.
    """
    ordered = sorted(values)
    k = int(len(ordered) * cut)
    return statistics.fmean(ordered[k:len(ordered) - k])


def poisson_arrivals(rng: np.random.Generator, rate_rps: float, start_ms: float, end_ms: float) -> list[float]:
    out: list[float] = []
    if rate_rps <= 0:
        return out
    scale = 1000.0 / rate_rps
    t = start_ms + rng.exponential(scale)
    while t < end_ms:
        out.append(t)
        t += rng.exponential(scale)
    return out


def arrivals(traffic: dict, seed) -> list[float]:
    """Arrival times in ms for a ``poisson`` or ``burst`` traffic block."""
    rng = np.random.default_rng(seed)
    duration_ms = traffic["duration_s"] * 1000.0
    if traffic["kind"] == "poisson":
        return poisson_arrivals(rng, traffic["rate_rps"], 0.0, duration_ms)
    if traffic["kind"] != "burst":
        raise ValueError(f"unsupported traffic kind {traffic['kind']!r}")
    period_ms = traffic["period_s"] * 1000.0
    out: list[float] = []
    t0 = 0.0
    while t0 < duration_ms:
        high_end = min(t0 + traffic["duty"] * period_ms, duration_ms)
        if high_end > t0:
            out.extend(poisson_arrivals(rng, traffic["high_rate"], t0, high_end))
        low_end = min(t0 + period_ms, duration_ms)
        if low_end > high_end:
            out.extend(poisson_arrivals(rng, traffic["low_rate"], high_end, low_end))
        t0 += period_ms
    return out


def simulate(
    profile_ms: Sequence[float],
    traffic: dict,
    seed: int,
    keep_alive_s: float,
    cold_start_ms: float,
    max_instances: int | None,
    granularity_ms: int,
) -> list[Record]:
    """Reference records for a run at the profile's own memory size.

    Warm reuse picks the most recently freed idle instance (lowest id on
    ties) if it is within keep-alive; otherwise a new instance starts cold
    unless the cap binds, in which case the request waits FIFO for the
    earliest-free instance (lowest id on ties) and is cold when that
    instance sat idle past keep-alive.
    """
    arrival_seed, service_seed = np.random.SeedSequence(seed).spawn(2)
    times_ms = arrivals(traffic, arrival_seed)
    n = len(times_ms)
    draws = np.random.default_rng(service_seed).integers(0, len(profile_ms), size=n) if n else ()
    keep_alive_us = math.inf if math.isinf(keep_alive_s) else round(keep_alive_s * 1e6)
    cold_us = round(cold_start_ms * 1000)
    step_us = granularity_ms * 1000

    busy: list[tuple[int, int]] = []   # (free_at, id)
    idle: list[tuple[int, int]] = []   # (-free_at, id): newest first, lowest id on ties
    free_at: list[int] = []            # per instance, for the capped path
    records: list[Record] = []
    for i in range(n):
        t = round(times_ms[i] * 1000)
        exec_us = round(profile_ms[draws[i]] * 1000 * 1.0)
        while busy and busy[0][0] <= t:
            f, k = heapq.heappop(busy)
            heapq.heappush(idle, (-f, k))
        if idle and t + idle[0][0] <= keep_alive_us:
            _, k = heapq.heappop(idle)
            start, cold = t, False
        elif max_instances is None or len(free_at) < max_instances:
            k = len(free_at)
            free_at.append(0)
            start, cold = t, True
        else:
            k = min(range(len(free_at)), key=lambda j: (free_at[j], j))
            if free_at[k] <= t:
                idle.remove((-free_at[k], k))
                heapq.heapify(idle)
            else:
                busy.remove((free_at[k], k))
                heapq.heapify(busy)
            start = max(t, free_at[k])
            cold = start - free_at[k] > keep_alive_us
        end = start + exec_us + (cold_us if cold else 0)
        free_at[k] = end
        heapq.heappush(busy, (end, k))
        records.append((t, start, end, cold, k, exec_us, -(-exec_us // step_us) * step_us))
    return records


def records_from_dicts(rows: Iterable) -> list[Record]:
    """Integer-microsecond records from objects or dicts with ms fields."""
    out = []
    for r in rows:
        get = r.get if isinstance(r, dict) else lambda key, r=r: getattr(r, key)
        out.append((
            round(get("arrival_ms") * 1000), round(get("start_ms") * 1000),
            round(get("end_ms") * 1000), bool(get("cold")), int(get("instance_id")),
            round(get("exec_ms") * 1000), round(get("billed_ms") * 1000),
        ))
    return out


def digest(records: Sequence[Record]) -> str:
    h = hashlib.sha256()
    for t, s, e, c, k, x, b in records:
        h.update(b"%d,%d,%d,%d,%d,%d,%d\n" % (t, s, e, c, k, x, b))
    return h.hexdigest()


def scan_steps(instance_ids: Iterable[int]) -> int:
    """Instances the per-arrival warm scan walks: sum of (max id before i) + 1."""
    total, top = 0, -1
    for k in instance_ids:
        total += top + 1
        top = max(top, k)
    return total


@dataclass(frozen=True)
class SimStats:
    """Simulated statistics that no host-speed change may alter."""

    records: int
    instances_created: int
    cold_fraction: float
    latency_ms_q50: float
    latency_ms_q99: float
    queue_wait_ms_q50: float
    queue_wait_ms_q99: float
    instance_scan_steps: int

    @classmethod
    def of(cls, records: Sequence[Record]) -> "SimStats":
        latency = [(e - t) / 1000 for t, _, e, *_ in records]
        wait = [(s - t) / 1000 for t, s, *_ in records]
        q50, q99 = Fraction(1, 2), Fraction(99, 100)
        return cls(
            records=len(records),
            instances_created=1 + max(r[4] for r in records),
            cold_fraction=sum(r[3] for r in records) / len(records),
            latency_ms_q50=nearest_rank(latency, q50),
            latency_ms_q99=nearest_rank(latency, q99),
            queue_wait_ms_q50=nearest_rank(wait, q50),
            queue_wait_ms_q99=nearest_rank(wait, q99),
            instance_scan_steps=scan_steps(r[4] for r in records),
        )


def billed_total_ms(durations_ms: Iterable[float], granularity_ms: int) -> int:
    """Sum of durations each rounded up, exactly, to the billing granularity."""
    g = Fraction(granularity_ms)
    return sum(math.ceil(Fraction(d) / g) for d in durations_ms) * granularity_ms


def serverless_total(n_requests: int, billed_ms: int, memory_bytes: int,
                     per_million: Fraction, per_gb_s: Fraction) -> Fraction:
    """Request fee plus GB-second fee, in exact rationals."""
    return (n_requests * per_million / 1_000_000
            + Fraction(billed_ms, 1000) * Fraction(memory_bytes, 1 << 30) * per_gb_s)


def pair_by_timestamp(timestamps: Sequence[float], keys: Sequence[float],
                      values: Sequence[float]) -> list[float | None]:
    """For each timestamp, the value whose key equals it (each key used once).

    The harness stamps every sample with its request's ``sent_ms``, so
    pairing a sample's timestamp against ``sent_ms`` recovers its
    ``scheduled_ms``. A timestamp with no unused matching key pairs to None.
    """
    pool: dict[float, list[float]] = {}
    for key, value in zip(keys, values):
        pool.setdefault(key, []).append(value)
    out: list[float | None] = []
    for ts in timestamps:
        bucket = pool.get(ts)
        out.append(bucket.pop(0) if bucket else None)
    return out
