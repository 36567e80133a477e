"""Profile synthesis, arrival generation and the result writers against the code they replaced.

Each oracle below is the earlier implementation, kept verbatim apart from
being a function instead of a method: ``Fraction`` interpolation per rank,
one scalar exponential draw per arrival, the indented ``json.dumps`` of a
dict per record, and ``write_samples_csv`` of a ``SampleSet``.
"""

import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from faasplan import GB, MB, UNLIMITED, LatencyProfile, PricingModel, SampleSet, SimulationConfig, TrafficPattern
from faasplan.errors import DomainError
from faasplan.metrics import nearest_rank_index, summary_to_dict, write_samples_csv
from faasplan.simulator import (
    InvocationRecord,
    SimulationResult,
    _BLOCK,
    _exponentials,
    _walk,
    export_result_csv,
    generate_arrivals,
    load_result_json,
    render_result_json,
    save_result_json,
    simulate,
)

_HEAD_FACTOR = Fraction(0.8)
_TAIL_FACTOR = Fraction(1.05)
PER_MS = PricingModel(per_million_requests="0.20", per_gb_second="0.0000166667",
                      billing_granularity_ms=1)


def fraction_profile_values(anchors, n_samples):
    """Oracle: ``LatencyProfile.from_quantile_anchors`` interpolating each rank in ``Fraction``s."""
    if not anchors:
        raise DomainError("anchors must not be empty")
    if n_samples <= 0:
        raise DomainError("n_samples must be positive")
    parsed = sorted((float(q), float(v)) for q, v in anchors.items())
    for q, v in parsed:
        if not 0 < q <= 1:
            raise DomainError(f"anchor quantile {q} outside (0, 1]")
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
    # of a non-decreasing rational sequence stay non-decreasing.
    for (r0, v0), (r1, v1) in zip(control, control[1:]):
        span = r1 - r0
        for r in range(r0, r1 + 1):
            t = Fraction(r - r0, span)
            values[r - 1] = float(v0 + t * (v1 - v0))
    if len(control) == 1:
        values = [float(control[0][1])] * n_samples
    return tuple(values)


def scalar_poisson_arrivals(rng, rate_rps, start_ms, end_ms):
    """Oracle: one scalar exponential draw per arrival, plus the one that crosses ``end_ms``."""
    out = []
    if rate_rps <= 0:
        return out
    scale = 1000.0 / rate_rps
    t = start_ms + rng.exponential(scale)
    while t < end_ms:
        out.append(t)
        t += rng.exponential(scale)
    return out


def scalar_generate_arrivals(pattern, seed):
    """Oracle: ``generate_arrivals`` over :func:`scalar_poisson_arrivals`."""
    if pattern.kind == "trace_replay":
        return list(pattern.timestamps)
    return scalar_walk(pattern, np.random.default_rng(seed))


def scalar_walk(pattern, rng):
    """Oracle: the Poisson or burst arrivals of ``pattern``, drawn from ``rng`` by the scalar loop."""
    if pattern.kind == "poisson_constant":
        return scalar_poisson_arrivals(rng, pattern.rate_rps, 0.0, pattern.duration_s * 1000.0)
    duration_ms = pattern.duration_s * 1000.0
    period_ms = pattern.period_s * 1000.0
    segments = []
    t0 = 0.0
    while t0 < duration_ms:
        high_end = min(t0 + pattern.duty * period_ms, duration_ms)
        if high_end > t0:
            segments.append((t0, high_end, pattern.high_rate))
        low_end = min(t0 + period_ms, duration_ms)
        if low_end > high_end:
            segments.append((high_end, low_end, pattern.low_rate))
        t0 += period_ms
    out: list[float] = []
    for seg_start, seg_end, rate in segments:
        out.extend(scalar_poisson_arrivals(rng, rate, seg_start, seg_end))
    return out


def dict_result_text(result):
    """Oracle: the indented dump of one dict per record, as ``save_result_json`` wrote it."""
    payload = {
        "memory_bytes": result.memory_bytes,
        "cold_fraction": result.cold_fraction,
        "total_billed_gb_s": result.total_billed_gb_s,
        "latency_summary": (
            None if result.latency_summary is None else summary_to_dict(result.latency_summary)
        ),
        "records": [
            {
                "arrival_ms": r.arrival_ms,
                "start_ms": r.start_ms,
                "end_ms": r.end_ms,
                "cold": r.cold,
                "instance_id": r.instance_id,
                "exec_ms": r.exec_ms,
                "billed_ms": r.billed_ms,
            }
            for r in result.records
        ],
    }
    return json.dumps(payload, indent=2)


def sample_set_csv(result, path):
    """Oracle: ``export_result_csv`` through a ``SampleSet`` and ``write_samples_csv``."""
    samples = SampleSet(
        values=tuple(r.end_ms - r.arrival_ms for r in result.records),
        timestamps=tuple(r.arrival_ms for r in result.records),
        cold=tuple(r.cold for r in result.records),
        instances=tuple(str(r.instance_id) for r in result.records),
    )
    write_samples_csv(samples, path)


# -- profile synthesis ---------------------------------------------------------

durations = st.one_of(
    st.just(0.0), st.just(5e-324), st.floats(0.0, 1e-300), st.floats(0.0, 1e3), st.floats(0.0, 1e300),
)


@settings(deadline=None, max_examples=400)
@given(
    quantiles=st.lists(st.floats(0.0, 1.0, exclude_min=True), min_size=1, max_size=5, unique=True),
    values=st.lists(durations, min_size=5, max_size=5),
    n_samples=st.one_of(st.integers(1, 12), st.integers(1, 3000)),
)
def test_profile_synthesis_matches_fraction_loop(quantiles, values, n_samples):
    anchors = dict(zip(sorted(quantiles), sorted(values[:len(quantiles)])))
    try:
        expected = fraction_profile_values(anchors, n_samples)
    except DomainError as exc:
        with pytest.raises(DomainError, match=re.escape(str(exc))):
            LatencyProfile.from_quantile_anchors(anchors, n_samples, GB)
        return
    assert LatencyProfile.from_quantile_anchors(anchors, n_samples, GB).samples.values == expected


def test_profile_synthesis_matches_fraction_loop_on_the_bundled_anchors():
    anchors = {0.5: 50.08, 0.95: 80.14, 0.99: 102.65}
    assert (LatencyProfile.from_quantile_anchors(anchors, 5000, GB).samples.values
            == fraction_profile_values(anchors, 5000))


# -- arrivals ------------------------------------------------------------------

rates = st.one_of(st.just(0.0), st.floats(0.0, 5.0), st.floats(0.0, 3000.0))


@settings(deadline=None, max_examples=300)
@given(
    high=rates, low=rates,
    period_s=st.one_of(st.sampled_from([0.001, 0.01, 0.05]), st.floats(0.001, 2.0)),
    duty=st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)),
    duration_s=st.floats(0.01, 3.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_block_arrivals_match_scalar_loop_on_bursts(high, low, period_s, duty, duration_s, seed):
    # Many short segments share one generator: any draw too many or too few shows later on.
    pattern = TrafficPattern.burst(high, low, period_s, duty, duration_s)
    assert generate_arrivals(pattern, seed) == scalar_generate_arrivals(pattern, seed)


def idle_then_poisson(rate, start_ms, length_ms):
    """One burst period: no arrivals for ``start_ms``, then Poisson at ``rate`` for ``length_ms``.

    None if the period is too short to be a positive ``duration_s``.
    """
    duration_s = (start_ms + length_ms) / 1000
    if duration_s == 0:
        return None
    return TrafficPattern.burst(0.0, rate, duration_s, start_ms / (start_ms + length_ms), duration_s)


@settings(deadline=None, max_examples=200)
@given(
    rate=rates,
    start_ms=st.floats(0.0, 1e4),
    length_ms=st.one_of(st.just(0.0), st.floats(0.0, 1.0), st.floats(0.0, 5000.0)),
    seed=st.integers(0, 2**32 - 1),
)
def test_block_arrivals_leave_the_generator_where_the_scalar_loop_does(rate, start_ms, length_ms, seed):
    # The walk reads the draw that crosses the end and no more, so its stream
    # of numpy blocks goes on where the scalar loop's generator stopped.
    pattern = idle_then_poisson(rate, start_ms, length_ms)
    assume(pattern is not None)
    block, scalar = _exponentials(seed, in_python=False), np.random.default_rng(seed)
    assert _walk(pattern, block) == scalar_walk(pattern, scalar)
    assert [next(block) for _ in range(3)] == scalar.standard_exponential(3).tolist()


def duration_ending_at(end_ms):
    """A ``duration_s`` whose end in ms, ``duration_s * 1000.0``, is exactly ``end_ms``, or None."""
    guess = end_ms / 1000
    for candidate in (guess, math.nextafter(guess, 0), math.nextafter(guess, math.inf)):
        if candidate * 1000.0 == end_ms:
            return candidate
    return None


def test_block_arrivals_past_one_block():
    # 1e5 arrivals take many blocks of draws.
    pattern = TrafficPattern.poisson(50_000, 2)
    arrivals = generate_arrivals(pattern, 3)
    assert len(arrivals) > 20 * _BLOCK
    assert arrivals == scalar_generate_arrivals(pattern, 3)


def test_tiny_period_bursts_draw_only_the_blocks_they_read(monkeypatch):
    # Each stretch reads its arrivals and the draw past its end from one
    # stream, so 10^4 one-ms periods draw a few blocks, not one per stretch.
    pattern = TrafficPattern.burst(1000, 0, 0.001, 0.5, 10)
    default_rng, blocks = np.random.default_rng, []

    class Counting:
        def __init__(self, seed):
            self.rng = default_rng(seed)

        def standard_exponential(self, size):
            blocks.append(size)
            return self.rng.standard_exponential(size)

    monkeypatch.setattr(np.random, "default_rng", Counting)
    arrivals = generate_arrivals(pattern, 4)
    monkeypatch.undo()
    stretches = 10_000  # one high stretch a period; the low ones have rate 0 and read nothing
    assert blocks == [_BLOCK] * len(blocks)
    assert len(blocks) <= math.ceil((len(arrivals) + stretches) / _BLOCK)
    assert arrivals == scalar_generate_arrivals(pattern, 4)


# -- result writers ------------------------------------------------------------

def _trace(gaps_ms):
    timestamps, t = [], 0.0
    for gap in gaps_ms:
        t += gap
        timestamps.append(t)
    return TrafficPattern.trace(timestamps)


EMPTY = SimulationResult((), (), (), (), (), (), (), cold_fraction=0.0, latency_summary=None,
                         total_billed_gb_s=0.0, memory_bytes=GB)
# Hand-written: integer times, which a simulation never produces.
HAND_WRITTEN = {
    "memory_bytes": 1073741824, "cold_fraction": 0.5, "total_billed_gb_s": 0.3,
    "latency_summary": {"count": 2, "mean_ms": 150, "q50_ms": 100, "q95_ms": 200.5, "q99_ms": 200.5},
    "records": [
        {"arrival_ms": 0, "start_ms": 0, "end_ms": 100, "cold": True, "instance_id": 0,
         "exec_ms": 100, "billed_ms": 100},
        {"arrival_ms": 1000, "start_ms": 1000.25, "end_ms": 1200.5, "cold": False,
         "instance_id": 0, "exec_ms": 200.25, "billed_ms": 201},
    ],
}


@pytest.fixture
def hand_written(tmp_path):
    path = tmp_path / "hand.json"
    path.write_text(json.dumps(HAND_WRITTEN), "utf-8")
    return load_result_json(path)


def _assert_writers_match(result, tmp_path):
    assert render_result_json(result) == dict_result_text(result)
    save_result_json(result, tmp_path / "new.json")
    assert (tmp_path / "new.json").read_bytes() == (dict_result_text(result) + "\n").encode()
    export_result_csv(result, tmp_path / "new.csv")
    sample_set_csv(result, tmp_path / "old.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_writers_match_on_an_empty_result(tmp_path):
    _assert_writers_match(EMPTY, tmp_path)
    assert (tmp_path / "new.csv").read_bytes() == b"timestamp_ms,duration_ms,cold,instance\r\n"


def test_writers_match_on_integer_times(tmp_path, hand_written):
    assert hand_written.records[0] == (0, 0, 100, True, 0, 100, 100)
    _assert_writers_match(hand_written, tmp_path)
    assert b"\r\n0.0,100.0,1,0\r\n" in (tmp_path / "new.csv").read_bytes()


@settings(deadline=None, max_examples=60)
@given(
    gaps=st.lists(st.sampled_from([0.0, 0.001, 0.5, 3.0, 400.0, 2000.0]), max_size=40),
    profile_values=st.lists(st.floats(0.0, 300.0), min_size=1, max_size=5),
    seed=st.integers(0, 2**32 - 1),
    max_instances=st.one_of(st.just(UNLIMITED), st.integers(1, 6)),
    cold_start_ms=st.floats(0.0, 1500.0),
)
def test_writers_match_on_simulated_results(tmp_path_factory, gaps, profile_values, seed,
                                            max_instances, cold_start_ms):
    profile = LatencyProfile(GB, SampleSet.from_values(profile_values))
    config = SimulationConfig(seed=seed, memory_bytes=512 * MB, keep_alive_s=1.0,
                              cold_start_ms=cold_start_ms, max_instances=max_instances)
    result = simulate(profile, _trace(gaps), config, PER_MS)
    _assert_writers_match(result, tmp_path_factory.mktemp("run"))


def test_csv_rejects_a_negative_latency_as_before(tmp_path):
    bad = SimulationResult(
        (10.0,), (10.0,), (5.0,), (True,), (0,), (1.0,), (1.0,),
        cold_fraction=1.0, latency_summary=None, total_billed_gb_s=0.0, memory_bytes=GB)
    with pytest.raises(DomainError, match="durations must be finite and non-negative, got -5.0"):
        sample_set_csv(bad, tmp_path / "old.csv")
    with pytest.raises(DomainError, match="durations must be finite and non-negative, got -5.0"):
        export_result_csv(bad, tmp_path / "new.csv")
    assert not (tmp_path / "new.csv").exists()


@pytest.mark.parametrize("k", [0, 1, 17])
def test_block_arrivals_stop_before_an_arrival_at_end_ms(k):
    # The scalar loop keeps t only while t < end_ms: an arrival exactly at end_ms is not one.
    first = scalar_poisson_arrivals(np.random.default_rng(9), 100.0, 0.0, 1000.0)
    for end_ms, count in ((first[k], k), (math.nextafter(first[k], math.inf), k + 1)):
        duration_s = duration_ending_at(end_ms)
        assert duration_s is not None
        arrivals = generate_arrivals(TrafficPattern.poisson(100.0, duration_s), 9)
        assert arrivals == first[:count]


ONE_REQUEST = dict(arrival_ms=(1.0,), start_ms=(1.0,), end_ms=(2.0,), cold=(True,),
                   instance_id=(0,), exec_ms=(1.0,), billed_ms=(1.0,))


# The JSON text splits each column's compact dump on ", ", which works only
# for numbers and booleans; the typed columns refuse anything else up front.
@pytest.mark.parametrize("columns, error", [
    (dict(instance_id=("a, b",)), TypeError),
    (dict(instance_id=(1.5,)), TypeError),
    (dict(instance_id=(2**63,)), OverflowError),
    (dict(arrival_ms=("1.0",)), TypeError),
    (dict(exec_ms=(None,)), TypeError),
    (dict(billed_ms=([1.0],)), TypeError),
    (dict(end_ms=(2.0, 3.0)), ValueError),
])
def test_a_column_of_another_kind_is_refused_when_the_result_is_built(columns, error):
    with pytest.raises(error):
        SimulationResult(**{**ONE_REQUEST, **columns}, cold_fraction=1.0, latency_summary=None,
                         total_billed_gb_s=0.0, memory_bytes=GB)


def test_a_result_keeps_typed_columns_and_builds_records_from_them():
    result = SimulationResult(**dict(ONE_REQUEST, cold=[1], instance_id=[3]), cold_fraction=1.0,
                              latency_summary=None, total_billed_gb_s=0.0, memory_bytes=GB)
    assert [(result.arrival_ms.typecode, result.instance_id.typecode)] == [("d", "q")]
    assert result.cold == (True,) and result.records[0].cold is True
    assert result.records == (InvocationRecord(1.0, 1.0, 2.0, True, 3, 1.0, 1.0),)
    assert '"cold": true' in render_result_json(result)
