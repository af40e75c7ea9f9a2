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
gives the same floats as the plain expression -log1p(-U) / rate.

The tail checks stream their samples: the samplers yield them in pieces of
at most ``_DRAW_VALUES`` values, and a check counts or adds each piece
before the next is drawn, so its memory does not grow with the number of
samples.  Where the stream layout puts a piece's uniforms far apart (pass
j of an Erlang sum, the child and leaf weights of a two-stage chunk), a
Philox cursor reads them in place: Philox is counter-based (Salmon et al.,
SC 2011), so any later stretch of a stream is reached by setting its
counter.  Each value is the same float, added in the same order, as when
the stream is drawn straight through, and the stream is left at the same
next uniform.  The public samplers lay the pieces end to end.

The two-stage minimum is drawn through the identity min of b independent
Exp(1) variables ~ Exp(1)/b: each child's cheapest leaf edge is one draw at
rate b, so a sample costs 2a uniforms, not the a(1 + b) of drawing every
edge.  The edge-by-edge sampler lives on in the tests as the oracle the
identity is checked against.  Each piece's row minima are reduced down a
transposed copy of the piece, not along each row: numpy pays a fixed cost
per row when it reduces rows of a few values, and at a = 8 that cost more
than drawing the piece.  A minimum is exact in any order, so the values do
not change.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Values per piece in the tail samplers: 256 KiB buffers, small enough to
# stay in cache between the draw and the count or sum that reads them.
_DRAW_VALUES = 1 << 15
# 64-bit words per step of the Philox4x64 counter, one uniform each.
_PHILOX_BLOCK = 4


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


def _stream_ahead(stream: np.random.Generator, skip: int) -> np.random.Generator:
    """A new generator reading ``stream``'s Philox stream ``skip`` uniforms on.

    ``stream`` is left where it is.  Each step of the 256-bit block counter
    gives four uniforms: what is left of the current block is drawn and
    thrown away, whole blocks are jumped by ``Philox.advance``, and the
    remainder is drawn and thrown away.
    """
    if not isinstance(stream.bit_generator, np.random.Philox):
        raise TypeError(
            f"a stream cursor needs Philox, got {type(stream.bit_generator).__name__}"
        )
    ahead = np.random.Philox()  # its own seed is overwritten at once
    ahead.state = stream.bit_generator.state
    left = min(skip, _PHILOX_BLOCK - ahead.state["buffer_pos"])
    ahead.random_raw(left)
    blocks, rest = divmod(skip - left, _PHILOX_BLOCK)
    if blocks:  # advance(0) would still empty the buffer
        ahead.advance(blocks)
    ahead.random_raw(rest)
    return np.random.Generator(ahead)


def _require_k(k: int) -> None:
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")


def _require_branching(a: int, b: int) -> None:
    if a < 1 or b < 1:
        raise ValueError(f"branching must be >= 1, got a={a}, b={b}")


def _gather(pieces, size) -> np.ndarray:
    """A new array of shape ``size`` holding ``pieces`` end to end."""
    out = np.empty(size)
    flat = out.reshape(-1)
    start = 0
    for piece in pieces:
        flat[start : start + piece.size] = piece
        start += piece.size
    return out


def _erlang_pieces(stream: np.random.Generator, k: int, n: int):
    """The n values of ``sample_erlang(stream, k, n)``, ``_DRAW_VALUES`` at a
    time; each piece is overwritten by the next.

    Pass j of the k reads the n uniforms j*n on in the stream, through a
    cursor of its own, and each piece adds the passes in order to zero.
    """
    cursors = [_stream_ahead(stream, j * n) for j in range(k)]
    acc = np.empty(min(_DRAW_VALUES, n))
    buf = np.empty_like(acc)
    for start in range(0, n, _DRAW_VALUES):
        piece = acc[: min(_DRAW_VALUES, n - start)]
        piece.fill(0.0)
        for cursor in cursors:
            piece += sample_exponential(cursor, piece.size, out=buf[: piece.size])
        yield piece
    stream.bit_generator.state = cursors[-1].bit_generator.state


def _two_stage_pieces(stream: np.random.Generator, a: int, b: int, n: int):
    """The n values of ``sample_two_stage_min(stream, a, b, n)``, at most
    ``_DRAW_VALUES // a`` rows at a time; each piece is overwritten by the
    next.

    Rows come in chunks of at most 2**20 values, and a chunk of c rows
    starting at row s reads its c*a child weights 2*a*s uniforms on in the
    stream, then its c*a leaf minima; a child cursor and a leaf cursor read
    the two side by side.  Once a piece's sums are in the leaf buffer, the
    spent child buffer takes them transposed, a rows of r values, and the
    minima are reduced down those rows: one elementwise pass each, where a
    reduce along each short row pays numpy's per-row overhead r times.
    """
    chunk = max(1, (1 << 20) // a)
    rows = max(1, _DRAW_VALUES // a)
    child = np.empty((min(rows, n), a))
    leaf = np.empty_like(child)
    mins = np.empty(len(child))
    for start in range(0, n, chunk):
        c = min(chunk, n - start)
        child_cursor = _stream_ahead(stream, 2 * a * start)
        leaf_cursor = _stream_ahead(stream, 2 * a * start + c * a)
        for lo in range(0, c, rows):
            r = min(rows, c - lo)
            ch = sample_exponential(child_cursor, (r, a), out=child[:r])
            lf = sample_exponential(leaf_cursor, (r, a), rate=b, out=leaf[:r])
            lf += ch  # leaf + child: IEEE addition commutes
            cols = child.reshape(-1)[: r * a].reshape(a, r)
            np.copyto(cols, lf.T)
            yield np.minimum.reduce(cols, axis=0, out=mins[:r])
    if n:
        stream.bit_generator.state = leaf_cursor.bit_generator.state


def sample_erlang(stream: np.random.Generator, k: int, size: int) -> np.ndarray:
    """Sum of k unit-rate exponentials.

    The k passes over the output read the stream in order, one after the
    other; each value adds them to zero in pass order.
    """
    _require_k(k)
    return _gather(_erlang_pieces(stream, k, int(np.prod(size))), size)


def sample_two_stage_min(
    stream: np.random.Generator, a: int, b: int, size: int
) -> np.ndarray:
    """Minimum root-to-leaf weight in the two-level tree with branching (a, b).

    The root has a children, each child has b leaf children, and every edge
    carries an independent unit-rate exponential weight.  A child's b leaf
    edges only matter through their minimum, which is Exp(1)/b, so each
    sample takes a child draws and a leaf-minimum draws at rate b: exactly
    2a uniforms.  The stream holds the rows in chunks of at most 2**20
    values, each chunk's child weights followed by its leaf minima.
    """
    _require_branching(a, b)
    return _gather(_two_stage_pieces(stream, a, b, size), size)


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


def _tally(pieces, compare, thresholds) -> list[int]:
    """Per threshold t, how many values across ``pieces`` have compare(value, t)."""
    counts = [0] * len(thresholds)
    for piece in pieces:
        for i, t in enumerate(thresholds):
            counts[i] += int(np.count_nonzero(compare(piece, t)))
    return counts


def check_erlang_head(
    stream: np.random.Generator, k: int, d: float, trials: int
) -> TailCheckReport:
    _require_trials(trials)
    if not (d > 0 and math.isfinite(d)):
        raise ValueError(f"d must be positive and finite, got {d}")
    _require_k(k)
    t = k / d
    (hits,) = _tally(_erlang_pieces(stream, k, trials), np.less_equal, (t,))
    row = _row(t, hits / trials, erlang_head_bound(k, d), trials)
    return TailCheckReport(f"erlang_head_k{k}_d{d:g}", trials, (row,))


def check_erlang_tail(
    stream: np.random.Generator, k: int, t_values, trials: int
) -> TailCheckReport:
    _require_trials(trials)
    t_values = _require_thresholds(t_values)
    _require_k(k)
    thresholds = [k * t for t in t_values]
    hits = _tally(_erlang_pieces(stream, k, trials), np.greater_equal, thresholds)
    rows = tuple(
        _row(thr, h / trials, erlang_tail_bound(k, t), trials)
        for t, thr, h in zip(t_values, thresholds, hits)
    )
    return TailCheckReport(f"erlang_tail_k{k}", trials, rows)


def check_two_stage_tail(
    stream: np.random.Generator, a: int, b: int, t_values, trials: int
) -> TailCheckReport:
    _require_trials(trials)
    t_values = _require_thresholds(t_values)
    _require_branching(a, b)
    hits = _tally(_two_stage_pieces(stream, a, b, trials), np.greater, t_values)
    rows = tuple(
        _row(float(t), h / trials, two_stage_tail_bound(a, b, t), trials)
        for t, h in zip(t_values, hits)
    )
    return TailCheckReport(f"two_stage_tail_a{a}_b{b}", trials, rows)


def check_two_stage_sum(
    stream: np.random.Generator, a: int, b: int, m: int, trials: int
) -> TailCheckReport:
    _require_trials(trials)
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    _require_branching(a, b)
    total = np.zeros(trials)
    for _ in range(m):
        start = 0
        for piece in _two_stage_pieces(stream, a, b, trials):
            total[start : start + piece.size] += piece
            start += piece.size
    thr = two_stage_sum_threshold(a, b, m)
    (hits,) = _tally((total,), np.greater_equal, (thr,))
    row = _row(thr, hits / trials, two_stage_sum_bound(m), trials)
    return TailCheckReport(f"two_stage_sum_a{a}_b{b}_m{m}", trials, (row,))
