"""The pure-Python draws of ``faasplan._pcg64`` against numpy's, bit for bit.

Every in-process test has numpy loaded, so ``simulate`` and
``generate_arrivals`` draw with numpy there; these tests call the pure
generator directly, or hide numpy while a run draws.
"""

import contextlib
import math
import re
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_simulator_oracles import (
    PER_MS,
    duration_ending_at,
    idle_then_poisson,
    scalar_generate_arrivals,
    scalar_poisson_arrivals,
    scalar_walk,
)

from faasplan import GB, DomainError, LatencyProfile, SimulationConfig, TrafficPattern, _pcg64
from faasplan.simulator import _BLOCK, _draws_in_python, _walk, generate_arrivals, simulate

MASK64 = (1 << 64) - 1
MASK128 = (1 << 128) - 1
INVERSE_MULT = pow(_pcg64._MULT, -1, 1 << 128)

seeds = st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**64 + 1),
                  st.integers(2**64, 2**130))
words128 = st.integers(0, MASK128)
# Seeding makes every increment odd. An even one can cycle: state 0 with
# increment 0 outputs 0 forever, and no exponential gap ever grows.
incs = words128.map(lambda inc: inc | 1)


@contextlib.contextmanager
def numpy_hidden():
    """As if numpy were never imported: ``import numpy`` raises ImportError meanwhile."""
    saved = sys.modules["numpy"]
    sys.modules["numpy"] = None
    try:
        yield
    finally:
        sys.modules["numpy"] = saved


@contextlib.contextmanager
def numpy_unloaded():
    """As if numpy were installed but not imported yet: it is missing from ``sys.modules``."""
    saved = sys.modules.pop("numpy")
    try:
        yield
    finally:
        sys.modules["numpy"] = saved


def numpy_state(gen: _pcg64.Generator) -> dict:
    return {"bit_generator": "PCG64", "state": {"state": gen.state, "inc": gen.inc},
            "has_uint32": gen.has_uint32, "uinteger": gen.uinteger}


def pair(state: int, inc: int, has_uint32: int = 0, uinteger: int = 0):
    """A numpy generator and a pure one, both at the given bit-generator state."""
    pure = _pcg64.Generator(0)
    pure.state, pure.inc, pure.has_uint32, pure.uinteger = state, inc, has_uint32, uinteger
    rng = np.random.default_rng(0)
    rng.bit_generator.state = numpy_state(pure)
    return rng, pure


def state_before(outputs: list[int], highs: list[int], inc: int = 1) -> tuple[int, int]:
    """``(state, inc)`` whose next one or two 64-bit outputs are ``outputs``.

    Each output's state has the given high word; the XSL-RR output then
    fixes the low word. A second output fixes ``inc`` as the step between
    the two states, and the state before the first is one inverse step back.
    """
    states = []
    for value, high in zip(outputs, highs):
        rot = high >> 58
        rotated = (value << rot | value >> (64 - rot)) & MASK64
        states.append(high << 64 | (high ^ rotated))
    if len(states) > 1:
        inc = (states[1] - states[0] * _pcg64._MULT) & MASK128
    return ((states[0] - inc) * INVERSE_MULT) & MASK128, inc


# -- seeding -------------------------------------------------------------------

@settings(deadline=None, max_examples=200)
@given(entropy=seeds, n_children=st.integers(1, 3))
def test_seed_sequence_and_its_children_match_numpy(entropy, n_children):
    ours, theirs = _pcg64.SeedSequence(entropy), np.random.SeedSequence(entropy)
    assert ours.pool == theirs.pool.tolist()
    assert ours.generate_state(4) == theirs.generate_state(4, np.uint64).tolist()
    children = ours.spawn(n_children)
    assert len(children) == n_children
    for child, expected in zip(children, theirs.spawn(n_children)):
        assert child.pool == expected.pool.tolist()


@settings(deadline=None, max_examples=200)
@given(seed=seeds)
def test_generator_seeding_matches_numpy(seed):
    assert numpy_state(_pcg64.Generator(seed)) == np.random.default_rng(seed).bit_generator.state
    child = _pcg64.SeedSequence(seed).spawn(2)[1]
    expected = np.random.default_rng(np.random.SeedSequence(seed).spawn(2)[1])
    assert numpy_state(_pcg64.Generator(child)) == expected.bit_generator.state


def test_negative_entropy_is_rejected():
    with pytest.raises(ValueError, match="non-negative"):
        _pcg64.SeedSequence(-1)


# -- raw output ----------------------------------------------------------------

@settings(deadline=None, max_examples=300)
@given(state=words128, inc=incs, has_uint32=st.sampled_from([0, 1]),
       uinteger=st.integers(0, 2**32 - 1))
def test_raw_draws_match_numpy_from_any_state(state, inc, has_uint32, uinteger):
    rng, pure = pair(state, inc, has_uint32, uinteger)
    assert [pure.next_uint32() for _ in range(5)] == [
        int(rng.integers(0, 2**32, dtype=np.uint64)) for _ in range(5)]
    assert pure.next_uint64() == int(rng.bit_generator.random_raw())
    assert numpy_state(pure) == rng.bit_generator.state


# -- exponential ---------------------------------------------------------------

@settings(deadline=None, max_examples=300)
@given(state=words128, inc=incs, n=st.integers(1, 300))
def test_exponentials_match_numpy_from_any_state(state, inc, n):
    rng, pure = pair(state, inc)
    assert [pure.standard_exponential() for _ in range(n)] == rng.standard_exponential(n).tolist()
    assert numpy_state(pure) == rng.bit_generator.state


@pytest.mark.parametrize("idx", range(256))
def test_exponential_at_each_layer_edge_matches_numpy(idx):
    # r = ke[idx] - 1 is the last value of the layer's fast path, r = ke[idx]
    # the first of its slow path: the tail for layer 0, the wedge test for the
    # others. The wedge draws u = 0 (accepted) or u just below 1.
    ke = _pcg64._KE[idx]
    outcomes = []
    for r in (ke - 1, ke):
        if r < 0:
            continue  # layer 1 has no fast path
        for second in (0, MASK64):
            state, inc = state_before([r << 11 | idx << 3 | 5, second],
                                      [idx << 50 | 3, (idx * 37 % 64) << 58 | 11])
            rng, pure = pair(state, inc)
            value = pure.standard_exponential()
            assert value == rng.standard_exponential()
            assert numpy_state(pure) == rng.bit_generator.state
            outcomes.append(value == r * _pcg64._WE[idx])
    if idx == 0:
        assert outcomes == [True, True, False, False]  # the tail draws past the base strip
    elif ke > 0:
        assert outcomes[:3] == [True, True, True]  # fast path, then the wedge accepts u = 0


def test_both_wedge_outcomes_occur():
    # u just below 1 rejects the wedge point of some layers (the draw starts
    # over) and accepts it in others.
    rejected = 0
    for idx in range(1, 256):
        r = _pcg64._KE[idx]
        state, inc = state_before([r << 11 | idx << 3, MASK64], [idx << 50, 7 << 58])
        rng, pure = pair(state, inc)
        value = pure.standard_exponential()
        assert value == rng.standard_exponential()
        rejected += value != r * _pcg64._WE[idx]
    assert 0 < rejected < 255


@settings(deadline=None, max_examples=300)
@given(idx=st.integers(0, 255), offset=st.integers(0, 2**53 - 1), high=st.integers(0, MASK64),
       inc=incs)
def test_exponential_slow_path_matches_numpy(idx, offset, high, inc):
    # Any r >= ke[idx]: the tail or a wedge, then whatever the next draws give.
    r = _pcg64._KE[idx] + offset % (2**53 - _pcg64._KE[idx])
    state, inc = state_before([r << 11 | idx << 3], [high], inc)
    rng, pure = pair(state, inc)
    assert pure.standard_exponential() == rng.standard_exponential()
    assert numpy_state(pure) == rng.bit_generator.state


def test_tail_of_layer_zero():
    state, inc = state_before([_pcg64._KE[0] << 11, 0], [1 << 40, 3 << 58])
    rng, pure = pair(state, inc)
    assert pure.standard_exponential() == rng.standard_exponential() == _pcg64._ZIGGURAT_EXP_R


# -- integers ------------------------------------------------------------------

@settings(deadline=None, max_examples=300)
@given(high=st.one_of(st.sampled_from([1, 2, 2**31 + 5, 2**32 - 1, 2**32]),
                      st.integers(1, 2**32)),
       state=words128, inc=incs, has_uint32=st.sampled_from([0, 1]),
       uinteger=st.integers(0, 2**32 - 1), size=st.integers(0, 50))
def test_integers_match_numpy(high, state, inc, has_uint32, uinteger, size):
    rng, pure = pair(state, inc, has_uint32, uinteger)
    assert pure.integers(high, size) == rng.integers(0, high, size=size).tolist()
    assert numpy_state(pure) == rng.bit_generator.state


def test_integers_rejection_matches_numpy():
    # With high = 2**31 + 5 about half of all 32-bit draws fall below the
    # threshold, so a long run takes the rejection loop many times.
    for seed in range(4):
        rng, pure = np.random.default_rng(seed), _pcg64.Generator(seed)
        assert pure.integers(2**31 + 5, 500) == rng.integers(0, 2**31 + 5, size=500).tolist()
        assert numpy_state(pure) == rng.bit_generator.state


# -- Poisson arrivals ----------------------------------------------------------

rates = st.one_of(st.just(0.0), st.floats(0.0, 5.0), st.floats(0.0, 3000.0))


@settings(deadline=None, max_examples=200)
@given(rate=rates, start_ms=st.floats(0.0, 1e4),
       length_ms=st.one_of(st.just(0.0), st.floats(0.0, 1.0), st.floats(0.0, 5000.0)),
       state=words128, inc=incs)
def test_poisson_times_leave_the_generator_where_the_scalar_loop_does(rate, start_ms, length_ms,
                                                                      state, inc):
    # The walk over the pure generator's draws, one at a time, reads exactly the scalar loop's.
    pattern = idle_then_poisson(rate, start_ms, length_ms)
    assume(pattern is not None)
    rng, pure = pair(state, inc)
    assert _walk(pattern, iter(pure.standard_exponential, None)) == scalar_walk(pattern, rng)
    assert numpy_state(pure) == rng.bit_generator.state


def arrivals_on_both_draw_paths(pattern, seed):
    """``generate_arrivals(pattern, seed)`` drawn by numpy, and drawn in Python."""
    with_numpy = generate_arrivals(pattern, seed)
    with numpy_hidden():
        assert _draws_in_python(pattern, seed, service_draws=False)
        return with_numpy, generate_arrivals(pattern, seed)


@settings(deadline=None, max_examples=200)
@given(rate=st.one_of(rates, st.just(5e-324)),
       duration_s=st.one_of(st.floats(1e-6, 1e-3), st.floats(1e-3, 5.0)), seed=seeds)
def test_poisson_arrivals_on_both_draw_paths_match_the_scalar_loop(rate, duration_s, seed):
    expected = scalar_poisson_arrivals(np.random.default_rng(seed), rate, 0.0, duration_s * 1000.0)
    assert arrivals_on_both_draw_paths(TrafficPattern.poisson(rate, duration_s), seed) == (
        expected, expected)


@settings(deadline=None, max_examples=100)
@given(seed=seeds, rate=st.floats(1.0, 3000.0), k=st.integers(0, 20), past=st.booleans())
def test_arrivals_at_and_just_past_an_arrival_on_both_draw_paths(seed, rate, k, past):
    # A run that ends exactly at arrival k excludes it; one ulp later includes it.
    arrivals = scalar_poisson_arrivals(np.random.default_rng(seed), rate, 0.0, 2e5 / rate)
    end_ms = arrivals[k] if not past else math.nextafter(arrivals[k], math.inf)
    duration_s = duration_ending_at(end_ms)
    assume(duration_s is not None)
    expected = arrivals[:k + past]
    assert arrivals_on_both_draw_paths(TrafficPattern.poisson(rate, duration_s), seed) == (
        expected, expected)


def test_poisson_arrivals_across_several_blocks_on_both_draw_paths():
    pattern = TrafficPattern.poisson(5000, 5)
    expected = scalar_generate_arrivals(pattern, 11)
    assert len(expected) > 5 * _BLOCK
    assert arrivals_on_both_draw_paths(pattern, 11) == (expected, expected)


@settings(deadline=None, max_examples=200)
@given(
    high=rates, low=rates,
    period_s=st.one_of(st.sampled_from([0.001, 0.01, 0.05]), st.floats(0.001, 2.0)),
    duty=st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)),
    duration_s=st.floats(0.01, 3.0),
    seed=seeds,
)
def test_burst_arrivals_without_numpy_match_the_scalar_loop(high, low, period_s, duty,
                                                             duration_s, seed):
    pattern = TrafficPattern.burst(high, low, period_s, duty, duration_s)
    with numpy_hidden():
        assert _draws_in_python(pattern, seed, service_draws=False)
        arrivals = generate_arrivals(pattern, seed)
    assert arrivals == scalar_generate_arrivals(pattern, seed)


# -- the rule and whole runs ---------------------------------------------------

@pytest.mark.parametrize("pattern, service_draws, break_even", [
    # Break-even counts: 160 ms of import over 1.2 us per gap plus 0.8 us per service index.
    (TrafficPattern.poisson, True, 80_000),
    (TrafficPattern.poisson, False, 133_334),  # generate_arrivals alone draws no service indices
    (lambda n, _: TrafficPattern.trace([0.0] * n), True, 200_000),  # a trace draws no gaps
])
def test_draws_in_python_only_without_numpy_below_the_break_even_count(pattern, service_draws,
                                                                        break_even):
    small, large = pattern(break_even - 1, 1.0), pattern(break_even, 1.0)
    numpy_seeds = (-1, None, 1.5, [1, 2], np.random.SeedSequence(3), _pcg64.SeedSequence(3))
    # numpy is loaded: its draws cost nothing to set up
    assert not _draws_in_python(small, 3, service_draws)
    with numpy_unloaded():
        assert _draws_in_python(small, 3, service_draws)
        assert _draws_in_python(small, 2**70, service_draws)
        assert not _draws_in_python(large, 3, service_draws)
        for seed in numpy_seeds:
            assert not _draws_in_python(small, seed, service_draws)
    # numpy cannot be imported: Python draws at any count, and a seed only numpy takes is named
    with numpy_hidden():
        assert _draws_in_python(large, 3, service_draws)
        for seed in (-1, None, 1.5, [1, 2], _pcg64.SeedSequence(3)):
            message = f"seed must be a non-negative integer, got {seed!r}"
            with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
                _draws_in_python(small, seed, service_draws)


PROFILE = LatencyProfile.from_quantile_anchors({0.5: 40.0, 0.95: 70.0, 0.99: 120.0}, 997, GB)


@settings(deadline=None, max_examples=40)
@given(
    high=st.floats(0.0, 400.0), low=st.floats(0.0, 5.0), period_s=st.floats(0.05, 20.0),
    duty=st.floats(0.0, 1.0), duration_s=st.floats(0.1, 10.0), seed=seeds,
    keep_alive_s=st.floats(0.0, 10.0), max_instances=st.one_of(st.just(None), st.integers(1, 8)),
)
def test_simulate_without_numpy_gives_the_same_result(high, low, period_s, duty, duration_s, seed,
                                                       keep_alive_s, max_instances):
    pattern = TrafficPattern.burst(high, low, period_s, duty, duration_s)
    config = SimulationConfig(seed=seed, memory_bytes=GB // 2, keep_alive_s=keep_alive_s,
                              cold_start_ms=300.0,
                              **({} if max_instances is None else {"max_instances": max_instances}))
    with numpy_hidden():
        pure = simulate(PROFILE, pattern, config, PER_MS)
    assert pure == simulate(PROFILE, pattern, config, PER_MS)
