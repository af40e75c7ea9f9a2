"""Seeded random streams and distribution checks.

Streams are derived from a master seed plus an integer path via
``SeedSequence(master_seed, spawn_key=path)``, so every trial of every
experiment gets an independent, reproducible generator no matter how work
is scheduled across processes.

Exponential variates are drawn by inverse CDF (-log(1 - U)) rather than
the generator's ziggurat method: the same uniform stream then yields the
same weights everywhere, which the law-equivalence and replay tests rely
on.  Array draws run in place in the array that receives the uniforms, so
a draw of n variates holds 8n bytes at its peak and no temporaries, and
gives the same floats as the plain expression -log1p(-U) / rate.  The tail
samplers draw in pieces of ``_DRAW_VALUES`` values into one cache-sized
buffer and fold each piece into their output at once: an Erlang sum holds
its output and that buffer, the two-stage sampler its output, one chunk of
child weights and that buffer.  The uniforms are read in the same order
and go through the same elementwise steps as a whole-array draw, so the
floats, and the stream's next uniform, are the same.

The two-stage minimum is drawn through the identity min of b independent
Exp(1) variables ~ Exp(1)/b: each child's cheapest leaf edge is one draw at
rate b, so a sample costs 2a uniforms, not the a(1 + b) of drawing every
edge.  The edge-by-edge sampler lives on in the tests as the oracle the
identity is checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Values per draw in the tail samplers: a 256 KiB buffer, small enough to
# stay in cache between the draw and the fold into the output.
_DRAW_VALUES = 1 << 15


def stream_for(master_seed: int, *path: int) -> np.random.Generator:
    """Independent generator addressed by (master_seed, path)."""
    ss = np.random.SeedSequence(master_seed, spawn_key=tuple(path))
    return np.random.Generator(np.random.Philox(ss))


def sample_exponential(
    stream: np.random.Generator, size=None, rate: float = 1.0, out=None
):
    """Exponential variates at ``rate`` by inverse CDF, -log1p(-U) / rate.

    An array draw fills ``out`` (a new array when it is None) with uniforms
    and turns them into variates in place, one elementwise pass per step of
    the expression, so its peak memory is the array itself; the floats are
    those of the plain expression.  The division is skipped at rate 1,
    where it is exact.  ``size=None`` without ``out`` draws one float.
    """
    if not (rate > 0 and math.isfinite(rate)):
        raise ValueError(f"rate must be positive and finite, got {rate}")
    u = stream.random(size, out=out)
    if size is None and out is None:
        return -np.log1p(-u) / rate
    # out passed by position: cheaper per call than out=, which shows on
    # one small draw per trial.
    np.negative(u, u)
    np.log1p(u, u)
    np.negative(u, u)
    if rate != 1:
        u /= rate
    return u


def sample_erlang(stream: np.random.Generator, k: int, size: int) -> np.ndarray:
    """Sum of k unit-rate exponentials.

    The k passes over the output run in order, each drawn in pieces of
    ``_DRAW_VALUES`` into one buffer and added to its slice of the output.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    out = np.zeros(size)
    flat = out.reshape(-1)
    buf = np.empty(min(_DRAW_VALUES, flat.size))
    for _ in range(k):
        for start in range(0, flat.size, _DRAW_VALUES):
            piece = flat[start : start + _DRAW_VALUES]
            piece += sample_exponential(stream, piece.size, out=buf[: piece.size])
    return out


def sample_two_stage_min(
    stream: np.random.Generator, a: int, b: int, size: int
) -> np.ndarray:
    """Minimum root-to-leaf weight in the two-level tree with branching (a, b).

    The root has a children, each child has b leaf children, and every edge
    carries an independent unit-rate exponential weight.  A child's b leaf
    edges only matter through their minimum, which is Exp(1)/b, so each
    sample takes a child draws and a leaf-minimum draws at rate b: exactly
    2a uniforms.  Rows come in chunks of at most 2**20 values: a chunk's
    child weights are drawn whole, then its leaf minima ``_DRAW_VALUES // a``
    rows at a time into one small buffer, which takes those rows' child
    weights and gives their minima straight to the output.
    """
    if a < 1 or b < 1:
        raise ValueError(f"branching must be >= 1, got a={a}, b={b}")
    out = np.empty(size)
    chunk = max(1, (1 << 20) // a)
    rows = max(1, _DRAW_VALUES // a)
    child = np.empty((min(chunk, size), a))
    leaf = np.empty((min(rows, size), a))
    for start in range(0, size, chunk):
        c = min(chunk, size - start)
        ch = sample_exponential(stream, (c, a), out=child[:c])
        for lo in range(0, c, rows):
            r = min(rows, c - lo)
            lf = sample_exponential(stream, (r, a), rate=b, out=leaf[:r])
            lf += ch[lo : lo + r]  # leaf + child: IEEE addition commutes
            lf.min(axis=1, out=out[start + lo : start + lo + r])
    return out


# -- closed-form bounds -------------------------------------------------------


def erlang_head_bound(k: int, d: float) -> float:
    """Upper bound on Pr{Erlang(k, 1) <= k / d}."""
    return (math.e / d) ** k


def erlang_tail_bound(k: int, t: float) -> float:
    """Upper bound on Pr{Erlang(k, 1) >= k * t}."""
    return math.exp(k - k * t / 2.0)


def two_stage_tail_bound(a: int, b: int, t: float) -> float:
    """Upper bound on Pr{two-stage minimum > t}."""
    return math.exp(-a * t / 64.0) + math.exp(-a * b * t * t / 1024.0)


def two_stage_sum_threshold(a: int, b: int, m: int) -> float:
    """Deviation threshold for a sum of m independent two-stage minima."""
    return 3.0 * m * (64.0 / a + 1024.0 / math.sqrt(a * b))


def two_stage_sum_bound(m: int) -> float:
    """Upper bound on the probability of exceeding the sum threshold."""
    return math.exp(-m / 9.0)


# -- empirical check battery -----------------------------------------------------


@dataclass(frozen=True)
class TailCheckRow:
    threshold: float
    empirical: float
    bound: float
    passed: bool


@dataclass(frozen=True)
class TailCheckReport:
    name: str
    trials: int
    rows: tuple[TailCheckRow, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)


def binomial_margin(phat: float, trials: int) -> float:
    """Three-sigma slack, so a true-but-tight bound does not fail on noise alone."""
    return 3.0 * math.sqrt(phat * (1.0 - phat) / trials)


def _row(threshold: float, phat: float, bound: float, trials: int) -> TailCheckRow:
    capped = min(bound, 1.0)
    return TailCheckRow(
        threshold, phat, capped, phat <= capped + binomial_margin(phat, trials)
    )


def _require_trials(trials: int) -> None:
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")


def _require_thresholds(t_values) -> tuple:
    t_values = tuple(t_values)
    if not t_values:
        raise ValueError("thresholds must not be empty")
    if not all(math.isfinite(t) for t in t_values):
        raise ValueError(f"thresholds must be finite, got {t_values}")
    return t_values


def check_erlang_head(
    stream: np.random.Generator, k: int, d: float, trials: int
) -> TailCheckReport:
    _require_trials(trials)
    if not (d > 0 and math.isfinite(d)):
        raise ValueError(f"d must be positive and finite, got {d}")
    x = sample_erlang(stream, k, trials)
    t = k / d
    phat = float(np.mean(x <= t))
    row = _row(t, phat, erlang_head_bound(k, d), trials)
    return TailCheckReport(f"erlang_head_k{k}_d{d:g}", trials, (row,))


def check_erlang_tail(
    stream: np.random.Generator, k: int, t_values, trials: int
) -> TailCheckReport:
    _require_trials(trials)
    t_values = _require_thresholds(t_values)
    x = sample_erlang(stream, k, trials)
    rows = []
    for t in t_values:
        phat = float(np.mean(x >= k * t))
        rows.append(_row(k * t, phat, erlang_tail_bound(k, t), trials))
    return TailCheckReport(f"erlang_tail_k{k}", trials, tuple(rows))


def check_two_stage_tail(
    stream: np.random.Generator, a: int, b: int, t_values, trials: int
) -> TailCheckReport:
    _require_trials(trials)
    t_values = _require_thresholds(t_values)
    y = sample_two_stage_min(stream, a, b, trials)
    rows = []
    for t in t_values:
        phat = float(np.mean(y > t))
        rows.append(_row(float(t), phat, two_stage_tail_bound(a, b, t), trials))
    return TailCheckReport(f"two_stage_tail_a{a}_b{b}", trials, tuple(rows))


def check_two_stage_sum(
    stream: np.random.Generator, a: int, b: int, m: int, trials: int
) -> TailCheckReport:
    _require_trials(trials)
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    total = np.zeros(trials)
    for _ in range(m):
        total += sample_two_stage_min(stream, a, b, trials)
    thr = two_stage_sum_threshold(a, b, m)
    phat = float(np.mean(total >= thr))
    row = _row(thr, phat, two_stage_sum_bound(m), trials)
    return TailCheckReport(f"two_stage_sum_a{a}_b{b}_m{m}", trials, (row,))
