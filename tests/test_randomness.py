"""Distributional oracles for the seeded samplers.

Where a sampler has a known closed-form law, we test against scipy's
implementation of that law (KS at alpha = 1e-3 with fixed seeds).  The
two-stage minimum, drawn through the identity min of b Exp(1) ~ Exp(1)/b,
is checked against the literal sampler that draws every edge of the tree,
and against an independent second implementation for the b = 1 case, where
it collapses to a minimum of Erlang(2) variables.

The samplers draw in place; the plain formulas they replace are kept here
as bit-for-bit oracles, read from a twin stream of the same seed.
"""

import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from treegrowth.families import FamilySpec, build_family
from treegrowth.growth import sample_edge_weights
from treegrowth.randomness import (
    _DRAW_VALUES,
    _stream_ahead,
    check_erlang_head,
    check_erlang_tail,
    check_two_stage_sum,
    check_two_stage_tail,
    erlang_head_bound,
    erlang_tail_bound,
    sample_erlang,
    sample_exponential,
    sample_two_stage_min,
    stream_for,
    two_stage_sum_threshold,
    two_stage_tail_bound,
)

ALPHA = 1e-3


def literal_two_stage_min(stream, a, b, size):
    """Oracle: the two-level tree drawn edge by edge, a(1 + b) draws per sample."""
    out = np.empty(size)
    chunk = max(1, (1 << 22) // (a * b))
    for start in range(0, size, chunk):
        c = min(chunk, size - start)
        child = sample_exponential(stream, (c, a))
        leaf = sample_exponential(stream, (c, a, b))
        out[start : start + c] = (child + leaf.min(axis=2)).min(axis=1)
    return out


def plain_exponential(stream, size=None, rate=1.0):
    """Oracle: the inverse-CDF expression, with its temporaries."""
    return -np.log1p(-stream.random(size)) / rate


def plain_erlang(stream, k, size):
    """Oracle: a zero array plus k plain draws."""
    out = np.zeros(size)
    for _ in range(k):
        out += plain_exponential(stream, size)
    return out


def plain_two_stage_min(stream, a, b, size):
    """Oracle: the Exp(1)/b identity in chunks of 2**20 values, fresh arrays
    every chunk."""
    out = np.empty(size)
    chunk = max(1, (1 << 20) // a)
    for start in range(0, size, chunk):
        c = min(chunk, size - start)
        child = plain_exponential(stream, (c, a))
        leaf = plain_exponential(stream, (c, a), rate=b)
        out[start : start + c] = (child + leaf).min(axis=1)
    return out


def assert_same_draw(draw, oracle, seed):
    """draw and oracle, each called on a stream of ``seed``, give equal
    floats and leave their streams at the same next uniform."""
    stream, twin = stream_for(*seed), stream_for(*seed)
    x, y = draw(stream), oracle(twin)
    assert np.shape(x) == np.shape(y)
    assert np.array_equal(x, y)
    assert stream.random() == twin.random()


@pytest.mark.parametrize("rate", [1, 3.0, 4], ids=["rate1", "rate3.0", "int4"])
@pytest.mark.parametrize("size", [None, 0, 1000, (30, 7), (4, 5, 6)],
                         ids=["scalar", "zero", "int", "2d", "3d"])
def test_exponential_matches_plain_expression_bit_for_bit(size, rate):
    assert_same_draw(lambda s: sample_exponential(s, size, rate=rate),
                     lambda s: plain_exponential(s, size, rate), (29, 0))


@pytest.mark.parametrize("size", [0, 1000, (30, 7)], ids=["zero", "int", "2d"])
@pytest.mark.parametrize("k", [1, 4])
def test_erlang_matches_plain_sum_bit_for_bit(k, size):
    assert_same_draw(lambda s: sample_erlang(s, k, size),
                     lambda s: plain_erlang(s, k, size), (29, 1, k))


def test_erlang_across_draw_buffers_matches_plain_sum_bit_for_bit():
    # 100 003 values are three full draw buffers and part of a fourth, so
    # each of the k passes ends mid-buffer.
    assert 3 * _DRAW_VALUES < 100_003 < 4 * _DRAW_VALUES
    assert_same_draw(lambda s: sample_erlang(s, 3, 100_003),
                     lambda s: plain_erlang(s, 3, 100_003), (29, 1, 3, 1))


@pytest.mark.parametrize(
    "a, b, size",
    [(8, 4, 1000), (16, 16, 70_000), (2**20 + 1, 3, 3), (4, 2, 0),
     (16, 16, 200_003), (3, 5, 100_001), (1, 6, 70_001), (2, 9, 40_000),
     (64, 2, 20_000)],
    ids=["one-chunk", "two-chunks", "a-above-chunk", "zero",
         "many-chunks-and-buffers", "odd-a", "a1", "a2", "a64"],
)
def test_two_stage_min_matches_plain_chunks_bit_for_bit(a, b, size):
    # 70 000 rows at a = 16 span two chunks; at a = 2**20 + 1 each row is
    # a chunk of its own, and its transposed piece is one column of a
    # values.  The leaf minima are drawn _DRAW_VALUES // a rows at a time:
    # 200 003 rows at a = 16 are four chunks, the last cut short, of 32
    # leaf buffers each; at a = 3 the chunk of 349 525 rows is not a
    # multiple of the buffer's 10 922, and 100 001 rows end mid-buffer.
    # At a = 1 the transposed piece is the piece itself, 70 001 rows are
    # three buffers, the last cut short; at a = 2, 40 000 rows are two full
    # buffers of 16 384 rows and part of a third; at a = 64 the chunk of
    # 16 384 rows is 32 buffers of 512, and 20 000 rows start a second
    # chunk that ends mid-buffer.
    assert_same_draw(lambda s: sample_two_stage_min(s, a, b, size),
                     lambda s: plain_two_stage_min(s, a, b, size), (29, 2, a))


@pytest.mark.parametrize("rate", [1.0, 3.0])
def test_exponential_out_is_the_array_given(rate):
    # A row view of a (B, m) matrix, as the harness draws a block's weights.
    weights = np.zeros((3, 11))
    row = weights[1]
    x = sample_exponential(stream_for(29, 3), 11, rate=rate, out=row)
    assert x is row
    assert np.array_equal(weights[1], plain_exponential(stream_for(29, 3), 11, rate))
    assert not weights[0].any() and not weights[2].any()


def test_edge_weights_out_is_the_array_given():
    g, _ = build_family(FamilySpec("grid", {"d": 2, "k": 2}))
    weights = np.empty((2, g.m))
    row = weights[0]
    assert sample_edge_weights(g, stream_for(29, 4), out=row) is row
    assert np.array_equal(row, sample_edge_weights(g, stream_for(29, 4)))


def test_streams_are_reproducible():
    a = stream_for(7, 1, 2).random(5)
    b = stream_for(7, 1, 2).random(5)
    assert np.array_equal(a, b)


def test_streams_differ_across_paths_and_seeds():
    base = stream_for(7, 1, 2).random(5)
    assert not np.array_equal(base, stream_for(7, 1, 3).random(5))
    assert not np.array_equal(base, stream_for(7, 2, 1).random(5))
    assert not np.array_equal(base, stream_for(8, 1, 2).random(5))


def test_exponential_matches_scipy_law():
    x = sample_exponential(stream_for(11, 0), 200_000)
    assert stats.kstest(x, "expon").pvalue > ALPHA


def test_exponential_rate_parameter():
    x = sample_exponential(stream_for(11, 1), 200_000, rate=3.0)
    assert stats.kstest(x, "expon", args=(0, 1 / 3)).pvalue > ALPHA


def test_min_of_exponentials_is_exponential():
    delta = 5
    x = sample_exponential(stream_for(11, 2), (100_000, delta)).min(axis=1)
    assert stats.kstest(x, "expon", args=(0, 1 / delta)).pvalue > ALPHA


def test_memorylessness():
    x = sample_exponential(stream_for(11, 3), 400_000)
    cond = x[x > 1.0] - 1.0
    assert cond.size > 100_000
    assert stats.kstest(cond, "expon").pvalue > ALPHA


@pytest.mark.parametrize("k", [1, 4, 10])
def test_erlang_matches_gamma_law(k):
    x = sample_erlang(stream_for(13, k), k, 100_000)
    assert stats.kstest(x, "gamma", args=(k,)).pvalue > ALPHA


@pytest.mark.parametrize("i, a, b", [(0, 4, 1), (1, 8, 4), (2, 16, 16)])
def test_two_stage_min_matches_literal_oracle(i, a, b):
    # The (a, b) pairs are the ones criterion 7 checks.
    y = sample_two_stage_min(stream_for(23, i, 0), a, b, 50_000)
    oracle = literal_two_stage_min(stream_for(23, i, 1), a, b, 50_000)
    assert stats.ks_2samp(y, oracle).pvalue > ALPHA


@pytest.mark.parametrize("a, b", [(0, 4), (4, 0), (-1, 1), (1, -3)])
def test_two_stage_min_rejects_invalid_branching(a, b):
    with pytest.raises(ValueError, match="branching"):
        sample_two_stage_min(stream_for(23, 9), a, b, 10)


def test_two_stage_min_draws_two_a_uniforms_per_sample():
    # 70 000 rows at a = 16 span two chunks of at most 2**20 values.
    a, b, size = 16, 16, 70_000
    stream, twin = stream_for(23, 10), stream_for(23, 10)
    sample_two_stage_min(stream, a, b, size)
    twin.random(2 * a * size)
    assert stream.random() == twin.random()


def test_two_stage_min_against_second_implementation():
    # With b = 1 each root-to-leaf route is an independent Erlang(2), so the
    # minimum of those is an alternative sampler for the same law.
    y = sample_two_stage_min(stream_for(17, 0), 4, 1, 100_000)
    alt_stream = stream_for(17, 1)
    routes = np.stack([sample_erlang(alt_stream, 2, 100_000) for _ in range(4)])
    assert stats.ks_2samp(y, routes.min(axis=0)).pvalue > ALPHA


def test_two_stage_min_stochastic_sandwich():
    # Route minimum dominates min of a*b Erlang(2) variates and is dominated
    # by a single route; check both orderings via sample means.
    y = sample_two_stage_min(stream_for(17, 2), 8, 4, 50_000)
    s = stream_for(17, 3)
    lower = sample_erlang(s, 2, (50_000 * 32)).reshape(50_000, 32).min(axis=1)
    upper = sample_erlang(s, 2, 50_000)
    assert lower.mean() < y.mean() < upper.mean()


def test_bound_helpers_frozen_values():
    assert erlang_head_bound(10, 8) == pytest.approx((math.e / 8) ** 10)
    assert erlang_tail_bound(5, 4) == pytest.approx(math.exp(-5))
    assert two_stage_tail_bound(16, 16, 8) == pytest.approx(
        math.exp(-2.0) + math.exp(-16.0)
    )
    assert two_stage_sum_threshold(16, 16, 9) == pytest.approx(27 * 68.0)


def test_erlang_head_check_passes():
    rep = check_erlang_head(stream_for(19, 0), 10, 8, 200_000)
    assert rep.passed
    assert rep.rows[0].threshold == pytest.approx(1.25)


def test_erlang_tail_check_passes():
    rep = check_erlang_tail(stream_for(19, 1), 10, [3.0, 5.0], 200_000)
    assert rep.passed
    assert len(rep.rows) == 2


def test_two_stage_tail_check_passes():
    rep = check_two_stage_tail(stream_for(19, 2), 8, 4, [0.5, 1, 2, 4, 8], 100_000)
    assert rep.passed


def test_two_stage_sum_check_passes():
    rep = check_two_stage_sum(stream_for(19, 3), 16, 16, 9, 20_000)
    assert rep.passed


def test_decision_rule_rejects_clear_violation():
    # The closed-form bounds are true for every parameter choice, so the
    # pass/fail rule itself is tested directly on synthetic rates.
    from treegrowth.randomness import _row

    assert not _row(1.0, phat=0.5, bound=0.1, trials=10_000).passed
    assert _row(1.0, phat=0.09, bound=0.1, trials=10_000).passed
    # Within-noise excess is tolerated.
    assert _row(1.0, phat=0.102, bound=0.1, trials=10_000).passed


# -- invalid parameters: rejected before any uniform is drawn ----------------


def assert_rejects_before_drawing(call, match):
    stream = stream_for(31, 0)
    with pytest.raises(ValueError, match=match):
        call(stream)
    assert stream.random() == stream_for(31, 0).random()


@pytest.mark.parametrize("rate", [0, 0.0, -1.0, -1, math.inf, math.nan])
@pytest.mark.parametrize("size", [None, 10])
def test_exponential_rejects_rates_not_positive_and_finite(rate, size):
    assert_rejects_before_drawing(
        lambda s: sample_exponential(s, size, rate=rate), "rate")


@pytest.mark.parametrize("call", [
    lambda s: check_erlang_head(s, 10, 8, 0),
    lambda s: check_erlang_tail(s, 10, [3.0], 0),
    lambda s: check_two_stage_tail(s, 8, 4, [1.0], 0),
    lambda s: check_two_stage_sum(s, 8, 4, 9, 0),
    lambda s: check_two_stage_sum(s, 8, 4, 9, -5),
], ids=["erlang_head", "erlang_tail", "two_stage_tail", "two_stage_sum", "negative"])
def test_checks_reject_zero_trials(call):
    assert_rejects_before_drawing(call, "trials")


@pytest.mark.parametrize("call", [
    lambda s: check_erlang_tail(s, 10, [], 1000),
    lambda s: check_two_stage_tail(s, 8, 4, (), 1000),
    lambda s: check_two_stage_tail(s, 8, 4, iter([]), 1000),
], ids=["erlang_tail", "two_stage_tail", "two_stage_tail_iterator"])
def test_tail_checks_reject_empty_thresholds(call):
    # With no thresholds a check would draw every variate and pass with
    # no rows.
    assert_rejects_before_drawing(call, "thresholds")


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("check", [
    lambda s, t: check_erlang_tail(s, 10, [3.0, t], 1000),
    lambda s, t: check_two_stage_tail(s, 8, 4, (t,), 1000),
], ids=["erlang_tail", "two_stage_tail"])
def test_tail_checks_reject_non_finite_thresholds(check, t):
    # A NaN threshold would read as a FAIL row rather than an invalid call.
    assert_rejects_before_drawing(lambda s: check(s, t), "finite")


@pytest.mark.parametrize("d", [0, 0.0, -2, math.nan, math.inf])
def test_erlang_head_rejects_d_not_positive_and_finite(d):
    # d = 0 drew every variate and then divided by zero; d = -2 and NaN read
    # as FAIL against a meaningless bound.
    assert_rejects_before_drawing(lambda s: check_erlang_head(s, 10, d, 1000), "d must be")


@pytest.mark.parametrize("k", [0, -2])
@pytest.mark.parametrize("check", [
    lambda s, k: check_erlang_head(s, k, 8, 1000),
    lambda s, k: check_erlang_tail(s, k, [3.0], 1000),
    lambda s, k: sample_erlang(s, k, 1000),
], ids=["erlang_head", "erlang_tail", "sample_erlang"])
def test_erlang_rejects_k_below_one(check, k):
    assert_rejects_before_drawing(lambda s: check(s, k), "k must be")


@pytest.mark.parametrize("m", [0, -1])
def test_two_stage_sum_rejects_m_below_one(m):
    assert_rejects_before_drawing(
        lambda s: check_two_stage_sum(s, 8, 4, m, 1000), "m must be")


# -- peak memory, in units of one output array (8 * size bytes) ---------------


def peak_in_outputs(draw, size):
    tracemalloc.start()
    try:
        draw()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / (8 * size)


def test_exponential_draws_in_the_output_array():
    # The expression with its temporaries reads 3.0; in place reads 1.0.
    size = 10**6
    assert peak_in_outputs(lambda: sample_exponential(stream_for(37, 0), size), size) <= 1.5


def test_erlang_holds_the_output_and_one_piece():
    # Fresh arrays every step read 4.0, an output-sized draw buffer 2.0;
    # the output plus a piece accumulator and a draw buffer of _DRAW_VALUES
    # each, 1.07.
    size = 10**6
    assert peak_in_outputs(lambda: sample_erlang(stream_for(37, 1), 10, size), size) <= 1.2


def test_two_stage_min_holds_the_output_and_one_piece():
    # Whole (2**17, 8) chunks of child and leaf weights read 2.08; the
    # output plus one piece of _DRAW_VALUES child weights, as many leaf
    # weights and its row minima, 1.07.
    size = 10**6
    assert peak_in_outputs(
        lambda: sample_two_stage_min(stream_for(37, 2), 8, 4, size), size) <= 1.2


# -- Philox cursors -------------------------------------------------------------


def stream_at(buffer_pos, counter=None):
    """A stream of a fixed seed, four words into its second block, with
    ``buffer_pos`` and optionally the counter words set through its state."""
    stream = stream_for(41, 0)
    stream.random(8)
    state = stream.bit_generator.state
    state["buffer_pos"] = buffer_pos
    if counter is not None:
        state["state"]["counter"][:] = counter
    stream.bit_generator.state = state
    return stream


TOP = 2**64 - 1


@pytest.mark.parametrize("buffer_pos", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("skip", range(10))
def test_stream_ahead_reads_what_follows_skip_uniforms(skip, buffer_pos):
    # The counter as drawn, then with a carry out of word 0, out of words 0
    # and 1, and out of all four (the 256-bit counter wraps to 0).
    for counter in (None, [TOP, 0, 0, 0], [TOP, TOP, 7, 0], [TOP] * 4):
        stream = stream_at(buffer_pos, counter)
        ahead = _stream_ahead(stream, skip)
        twin = stream_at(buffer_pos, counter)
        twin.random(skip)
        assert np.array_equal(ahead.random(13), twin.random(13))
        # The stream itself has not moved.
        assert np.array_equal(stream.random(13), stream_at(buffer_pos, counter).random(13))


@pytest.mark.parametrize("skip", [4 * 2**20, 10**6 + 3])
def test_stream_ahead_skips_whole_blocks(skip):
    ahead = _stream_ahead(stream_at(2), skip)
    twin = stream_at(2)
    twin.random(skip)
    assert np.array_equal(ahead.random(9), twin.random(9))


def test_stream_ahead_refuses_a_stream_that_is_not_philox():
    with pytest.raises(TypeError, match="Philox"):
        _stream_ahead(np.random.default_rng(0), 1)


# -- tail reports, pinned bit for bit ----------------------------------------------

# (check, args, trials, stream path, rows as (repr(threshold), repr(empirical),
# repr(bound), passed)), captured from the samplers that drew each check's
# samples whole.  The first six are the benchmark's tail_battery at seed 1,
# the rest the 10**6-sample checks of criteria 7 and 8 (master seed 7).
PINNED_TAIL_REPORTS = {
    "bench_two_stage_tail_a8_b4": (
        check_two_stage_tail, (8, 4, (0.5, 1, 2, 4, 8)), 200_000, (1, 700, 0), [
            ("0.5", "0.11662", "1.0", True),
            ("1.0", "0.002925", "1.0", True),
            ("2.0", "0.0", "1.0", True),
            ("4.0", "0.0", "1.0", True),
            ("8.0", "0.0", "0.503214724408055", True),
        ],
    ),
    "bench_two_stage_sum_a8_b4_m9": (
        check_two_stage_sum, (8, 4, 9), 20_000, (1, 700, 0, 9), [
            ("5103.522071561416", "0.0", "0.36787944117144233", True),
        ],
    ),
    "bench_two_stage_tail_a16_b16": (
        check_two_stage_tail, (16, 16, (0.5, 1, 2, 4, 8)), 200_000, (1, 700, 1), [
            ("0.5", "0.00099", "1.0", True),
            ("1.0", "0.0", "1.0", True),
            ("2.0", "0.0", "0.9744101008840758", True),
            ("4.0", "0.0", "0.3861950800601765", True),
            ("8.0", "0.0", "0.1353353957717874", True),
        ],
    ),
    "bench_two_stage_sum_a16_b16_m9": (
        check_two_stage_sum, (16, 16, 9), 20_000, (1, 700, 1, 9), [
            ("1836.0", "0.0", "0.36787944117144233", True),
        ],
    ),
    "bench_erlang_head_k10_d4": (
        check_erlang_head, (10, 4), 10**6, (1, 800, 0), [
            ("2.5", "0.000294", "0.02100607470970793", True),
        ],
    ),
    "bench_erlang_tail_k10": (
        check_erlang_tail, (10, (3, 5)), 10**6, (1, 800, 1), [
            ("30", "9e-06", "0.006737946999085467", True),
            ("50", "0.0", "3.059023205018258e-07", True),
        ],
    ),
    "c7_two_stage_tail_a4_b1": (
        check_two_stage_tail, (4, 1, (0.5, 1, 2, 4, 8)), 10**6, (7, 700, 0), [
            ("0.5", "0.685432", "1.0", True),
            ("1.0", "0.293847", "1.0", True),
            ("2.0", "0.026997", "1.0", True),
            ("4.0", "5.9e-05", "1.0", True),
            ("8.0", "0.0", "1.0", True),
        ],
    ),
    "c7_two_stage_tail_a8_b4": (
        check_two_stage_tail, (8, 4, (0.5, 1, 2, 4, 8)), 10**6, (7, 700, 1), [
            ("0.5", "0.115692", "1.0", True),
            ("1.0", "0.003016", "1.0", True),
            ("2.0", "0.0", "1.0", True),
            ("4.0", "0.0", "1.0", True),
            ("8.0", "0.0", "0.503214724408055", True),
        ],
    ),
    "c7_two_stage_tail_a16_b16": (
        check_two_stage_tail, (16, 16, (0.5, 1, 2, 4, 8)), 10**6, (7, 700, 2), [
            ("0.5", "0.000994", "1.0", True),
            ("1.0", "0.0", "1.0", True),
            ("2.0", "0.0", "0.9744101008840758", True),
            ("4.0", "0.0", "0.3861950800601765", True),
            ("8.0", "0.0", "0.1353353957717874", True),
        ],
    ),
    "c8_erlang_head_k5_d4": (
        check_erlang_head, (5, 4), 10**6, (7, 800, 0, 0), [
            ("1.25", "0.009122", "0.14493472568610993", True),
        ],
    ),
    "c8_erlang_head_k5_d8": (
        check_erlang_head, (5, 8), 10**6, (7, 800, 0, 1), [
            ("0.625", "0.000507", "0.004529210177690935", True),
        ],
    ),
    "c8_erlang_tail_k5": (
        check_erlang_tail, (5, (3, 5)), 10**6, (7, 800, 0, 9), [
            ("15", "0.000864", "0.0820849986238988", True),
            ("25", "0.0", "0.0005530843701478336", True),
        ],
    ),
    "c8_erlang_head_k10_d4": (
        check_erlang_head, (10, 4), 10**6, (7, 800, 1, 0), [
            ("2.5", "0.000288", "0.02100607470970793", True),
        ],
    ),
    "c8_erlang_head_k10_d8": (
        check_erlang_head, (10, 8), 10**6, (7, 800, 1, 1), [
            ("1.25", "2e-06", "2.051374483369915e-05", True),
        ],
    ),
    "c8_erlang_tail_k10": (
        check_erlang_tail, (10, (3, 5)), 10**6, (7, 800, 1, 9), [
            ("30", "7e-06", "0.006737946999085467", True),
            ("50", "0.0", "3.059023205018258e-07", True),
        ],
    ),
    "c8_erlang_head_k20_d4": (
        check_erlang_head, (20, 4), 10**6, (7, 800, 2, 0), [
            ("5.0", "0.0", "0.00044125517470983117", True),
        ],
    ),
    "c8_erlang_head_k20_d8": (
        check_erlang_head, (20, 8), 10**6, (7, 800, 2, 1), [
            ("2.5", "0.0", "4.2081372710211866e-10", True),
        ],
    ),
    "c8_erlang_tail_k20": (
        check_erlang_tail, (20, (3, 5)), 10**6, (7, 800, 2, 9), [
            ("60", "0.0", "4.5399929762484854e-05", True),
            ("100", "0.0", "9.357622968840175e-14", True),
        ],
    ),
}


@pytest.mark.parametrize("name", list(PINNED_TAIL_REPORTS))
def test_tail_reports_are_pinned(name):
    check, args, trials, path, rows = PINNED_TAIL_REPORTS[name]
    report = check(stream_for(*path), *args, trials)
    got = [(repr(r.threshold), repr(r.empirical), repr(r.bound), r.passed)
           for r in report.rows]
    assert got == rows
    assert all(type(r.empirical) is float and type(r.passed) is bool for r in report.rows)


# -- traced peak of the checks, which stream their samples -------------------


@pytest.mark.parametrize("call", [
    lambda s: check_two_stage_tail(s, 4, 1, (0.5, 1, 2, 4, 8), 10**6),
    lambda s: check_erlang_head(s, 20, 4, 10**6),
    lambda s: check_erlang_tail(s, 10, (3, 5), 10**6),
    lambda s: check_two_stage_sum(s, 8, 4, 36, 10**5),
], ids=["two_stage_tail_a4", "erlang_head_k20", "erlang_tail_k10", "two_stage_sum_a8_m36"])
def test_checks_hold_their_samples_in_pieces(call):
    # Holding every sample read 15.9, 8.6, 8.6 and 7.9 MiB; in pieces,
    # 0.5-1.4 MiB (the sum keeps its 10**5 totals).
    stream = stream_for(37, 3)
    tracemalloc.start()
    try:
        call(stream)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
