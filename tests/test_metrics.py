import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faasplan import (
    DomainError,
    SampleSet,
    Summary,
    format_summary_table,
    quantile,
    read_samples_csv,
    summarize,
    warmup_filter,
    write_samples_csv,
)
from faasplan.metrics import (
    nearest_rank_index,
    summary_from_dict,
    summary_to_dict,
)
from faasplan.results import SimulationResult, export_result_csv
from faasplan.units import GB


def oracle_quantile(values, q):
    """Independent nearest-rank oracle: count instead of index.

    The target rank comes from integer ceil division on the snapped
    fraction; the value is the smallest one covering that rank.
    """
    n = len(values)
    frac = Fraction(q).limit_denominator(10**6)
    rank = -(-(frac.numerator * n) // frac.denominator)
    rank = min(max(rank, 1), n)
    for v in sorted(set(values)):
        if sum(1 for x in values if x <= v) >= rank:
            return v
    raise AssertionError("rank not covered")


def test_nearest_rank_decimal_quantiles_snap():
    # 0.95 * 100 is 94.999... in binary; the snap must land on rank 95.
    assert nearest_rank_index(0.95, 100) == 95
    assert nearest_rank_index(0.99, 100) == 99
    assert nearest_rank_index(0.5, 100) == 50
    assert nearest_rank_index(0.5, 101) == 51


def test_nearest_rank_edges():
    assert nearest_rank_index(1.0, 7) == 7
    assert nearest_rank_index(1e-9, 7) == 1
    assert nearest_rank_index(0.3, 1) == 1


def test_nearest_rank_rejects_bad_inputs():
    with pytest.raises(DomainError):
        nearest_rank_index(0.5, 0)
    with pytest.raises(DomainError):
        nearest_rank_index(0.0, 10)
    with pytest.raises(DomainError):
        nearest_rank_index(1.5, 10)


def test_quantile_of_1_to_100():
    values = [float(i) for i in range(1, 101)]
    random.Random(5).shuffle(values)
    assert quantile(values, 0.5) == 50.0
    assert quantile(values, 0.95) == 95.0
    assert quantile(values, 0.99) == 99.0
    assert quantile(values, 1.0) == 100.0


def test_quantile_matches_counting_oracle():
    rng = random.Random(1234)
    for _ in range(300):
        n = rng.randint(1, 400)
        values = [rng.uniform(0, 1000) for _ in range(n)]
        if rng.random() < 0.3:
            values = [round(v, 1) for v in values]  # force duplicates
        q = rng.choice([0.5, 0.9, 0.95, 0.99, 0.999, rng.uniform(0.01, 1.0)])
        assert quantile(values, q) == oracle_quantile(values, q)


def test_quantile_is_an_observed_value():
    values = [3.7, 9.1, 0.2, 5.5]
    for q in (0.25, 0.5, 0.75, 0.95, 1.0):
        assert quantile(values, q) in values


def test_quantile_empty_raises():
    with pytest.raises(DomainError):
        quantile([], 0.5)


@given(
    st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False), min_size=1, max_size=200),
    st.floats(min_value=0.001, max_value=1.0),
)
@settings(max_examples=200, deadline=None)
def test_quantile_oracle_property(values, q):
    assert quantile(values, q) == oracle_quantile(values, q)


def test_summarize_known_set():
    s = summarize([float(i) for i in range(1, 101)])
    assert s == Summary(count=100, mean=50.5, q50=50.0, q95=95.0, q99=99.0)


def test_summarize_single_sample():
    s = summarize([42.0])
    assert (s.count, s.mean, s.q50, s.q95, s.q99) == (1, 42.0, 42.0, 42.0, 42.0)


def test_mean_is_permutation_invariant():
    rng = random.Random(99)
    values = [rng.uniform(0.001, 10000) for _ in range(500)]
    baseline = summarize(values).mean
    for _ in range(20):
        rng.shuffle(values)
        assert summarize(values).mean == baseline


def test_sampleset_rejects_bad_durations():
    with pytest.raises(DomainError):
        SampleSet(values=(1.0, -0.5))
    with pytest.raises(DomainError):
        SampleSet(values=(float("nan"),))


def test_sampleset_rejects_mismatched_columns():
    with pytest.raises(DomainError):
        SampleSet(values=(1.0, 2.0), cold=(True,))
    with pytest.raises(DomainError):
        SampleSet(values=(1.0,), instances=("a", "b"))


def test_warmup_filter_global():
    samples = SampleSet.from_values(range(20))
    kept = warmup_filter(samples, n_warmup=5)
    assert kept.values == tuple(float(i) for i in range(5, 20))


def test_warmup_filter_per_instance():
    # a: 4 samples, b: 2, c: 1. n_warmup=2 keeps a's last two and nothing else.
    values = (10.0, 11.0, 12.0, 13.0, 20.0, 21.0, 30.0)
    instances = ("a", "a", "b", "a", "b", "c", "a")
    kept = warmup_filter(SampleSet(values=values, instances=instances), n_warmup=2)
    assert kept.values == (13.0, 30.0)
    assert kept.instances == ("a", "a")


def test_warmup_filter_zero_is_identity():
    samples = SampleSet(values=(1.0, 2.0), cold=(True, False))
    assert warmup_filter(samples, 0) is samples


def test_warmup_filter_drains_short_sets():
    assert len(warmup_filter(SampleSet.from_values([1.0, 2.0]), 10)) == 0


def test_warmup_filter_negative_raises():
    with pytest.raises(DomainError):
        warmup_filter(SampleSet.from_values([1.0]), -1)


def test_warmup_filter_keeps_columns_aligned():
    samples = SampleSet(
        values=(1.0, 2.0, 3.0),
        timestamps=(0.0, 10.0, 20.0),
        cold=(True, False, None),
        instances=("x", "x", "x"),
    )
    kept = warmup_filter(samples, 1)
    assert kept.values == (2.0, 3.0)
    assert kept.timestamps == (10.0, 20.0)
    assert kept.cold == (False, None)


def test_csv_round_trip(tmp_path):
    samples = SampleSet(
        values=(1.25, 0.1 + 0.2, 97.3),
        timestamps=(0.5, None, 33.25),
        cold=(True, None, False),
        instances=("i0", None, "i1"),
    )
    path = tmp_path / "s.csv"
    write_samples_csv(samples, path)
    assert read_samples_csv(path) == samples


def test_csv_round_trip_bare_values(tmp_path):
    samples = SampleSet.from_values([3.0, 1.0, 2.0])
    path = tmp_path / "bare.csv"
    write_samples_csv(samples, path)
    back = read_samples_csv(path)
    assert back.values == samples.values
    assert back.timestamps is None and back.cold is None and back.instances is None


def test_csv_header_is_stable(tmp_path):
    path = tmp_path / "h.csv"
    write_samples_csv(SampleSet.from_values([1.0]), path)
    first = path.read_text().splitlines()[0]
    assert first == "timestamp_ms,duration_ms,cold,instance"


def test_csv_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("duration_ms\n1.0\n")
    with pytest.raises(DomainError):
        read_samples_csv(path)


def test_csv_rejects_malformed_row(tmp_path):
    path = tmp_path / "bad2.csv"
    path.write_text("timestamp_ms,duration_ms,cold,instance\n1.0,abc,,\n")
    with pytest.raises(DomainError, match=":2:"):
        read_samples_csv(path)


@given(st.lists(st.floats(min_value=0, max_value=1e9, allow_nan=False), max_size=50))
@settings(max_examples=100, deadline=None)
def test_csv_floats_survive_exactly(tmp_path_factory, values):
    path = tmp_path_factory.mktemp("csv") / "x.csv"
    samples = SampleSet.from_values(values)
    write_samples_csv(samples, path)
    assert read_samples_csv(path).values == samples.values


def test_summary_dict_round_trip():
    s = summarize([1.0, 2.0, 3.0, 4.0])
    assert summary_from_dict(summary_to_dict(s)) == s
    assert set(summary_to_dict(s)) == {"count", "mean_ms", "q50_ms", "q95_ms", "q99_ms"}


def test_format_summary_table_shape():
    table = format_summary_table({"warm": summarize([10.0, 20.0, 30.0])})
    lines = table.splitlines()
    assert lines[0].split() == ["count", "mean", "q50", "q95", "q99"]
    assert lines[1].startswith("warm")
    assert "20.00" in lines[1]
    # numeric columns are right-aligned under their headers
    assert lines[0].index("count") + len("count") == lines[1].index("3") + 1


def test_nan_duration_rejected_everywhere():
    for bad in (math.inf, -1.0):
        with pytest.raises(DomainError):
            SampleSet.from_values([bad])


@pytest.mark.parametrize("values", [
    [math.nan, 1.0, 2.0], [1.0, math.nan], [-5.0, math.inf], [1.0, math.inf], [-math.inf, 1.0],
    [2.0, -0.5],
])
def test_plain_sequences_with_bad_durations_are_rejected(values):
    # summarize([nan, 1, 2]) once returned q95=nan, and quantile([-5, inf], 1) inf.
    for call in (summarize, lambda v: quantile(v, 1.0), lambda v: quantile(v, 0.5)):
        with pytest.raises(DomainError, match="durations must be finite and non-negative"):
            call(values)


@settings(deadline=None, max_examples=200)
@given(st.lists(st.one_of(
    st.floats(0.0, 1e300), st.sampled_from([0.0, -0.0, -1.0, -1e-300, math.nan, math.inf, -math.inf]),
), max_size=12))
def test_durations_name_the_first_bad_value_on_every_path(tmp_path_factory, values):
    """SampleSet and the result CSV share one check: the first bad value is named, -0.0 passes."""
    first_bad = next((v for v in values if math.isnan(v) or not 0.0 <= v < math.inf), None)
    # A record from arrival 0.0 to end v has latency v - 0.0 == v, -0.0 and NaN included.
    zeros = [0.0] * len(values)
    result = SimulationResult(
        arrival_ms=zeros, start_ms=zeros, end_ms=values, cold=[False] * len(values),
        instance_id=[0] * len(values), exec_ms=zeros, billed_ms=zeros,
        cold_fraction=0.0, latency_summary=None, total_billed_gb_s=0.0, memory_bytes=GB)
    path = tmp_path_factory.mktemp("csv") / "run.csv"
    checks = (lambda: SampleSet.from_values(values), lambda: export_result_csv(result, path))
    for check in checks:
        if first_bad is None:
            check()
        else:
            with pytest.raises(DomainError) as exc_info:
                check()
            assert str(exc_info.value) == f"durations must be finite and non-negative, got {first_bad}"
    if first_bad is None:
        assert list(map(str, SampleSet.from_values(values).values)) == list(map(str, values))
