"""The round testers evaluating every round: the tests' reference.

``setfam.testers`` filters every round by f(x), or for a table of at most
2^12 points by its witness table, and builds the subsets only for the
rounds that can still reject.  These are the chunk bodies that build every
round's x, y1 and y2 (x and y) and evaluate all of them in one call, with
the subset rule written out as a per-row gather, so the tests can compare
the testers' reports against a statement that evaluates every round.
Both read every segment of the stream, the weight batch in one call and the
rest through the testers' own chunk and cursor helpers, but pick points and
downset classes with the plain kernels below: a stable per-row argsort and a compare-sum over the padded
cumulative class sizes.
``witness_array`` keeps the subset-OR transform of ``witness_table`` on an
unpacked array: a uint32 array of unions (uc) or a bool array (int).
"""

from __future__ import annotations

import numpy as np

from setfam.boolfn import (
    _BIT,
    _answers,
    _downset_classes,
    _downset_draws,
    mid_band,
    sample_band_weights,
)
from setfam import testers
from setfam.rng import stream
from setfam.testers import (
    TesterConfig,
    TesterReport,
    _chunks,
    _cursor,
    _tau_rounds,
)
from setfam.violations import IViolatingPair, TripleCertificate


def weight_chunks(n: int, band, rounds: int, rng) -> list:
    """The weight batch as one ``integers`` call of ``rounds`` draws, split at the chunks.

    It leaves rng at W, where the x rows start.
    """
    stops = [stop for _, stop in _chunks(rounds)]
    return np.split(sample_band_weights(n, band, rng, rounds), stops[:-1])


def segments(rng, rounds: int, n: int, count: int) -> list:
    """Readers of the stream from k * rounds * n draws past rng, k = 1..count.

    A run of one chunk reads every segment whole and in stream order, so
    its readers are rng itself.
    """
    if rounds <= testers.CHUNK_MIN:
        return [rng] * count
    return [_cursor(rng, k * rounds * n) for k in range(1, count + 1)]


def lowest(keys: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Per row i, the point whose bits are the columns of its counts[i] smallest keys.

    Equal keys go to the lower column: a stable per-row argsort.
    """
    order = keys.argsort(axis=1, kind="stable")
    taken = np.arange(keys.shape[1]) < counts[:, None]
    return (_BIT[order] * taken).sum(axis=1, dtype=np.uint64)


def downset_class(n: int, band, ws: np.ndarray, us: np.ndarray) -> np.ndarray:
    """Weight class j of each draw u of us below its weight in ws (broadcast).

    j is band.lo plus the number of cumulative class sizes <= u.
    """
    _, cum = _downset_classes(n, band)
    return band.lo + (cum[ws] <= us[..., None]).sum(axis=-1)


def downset_weights(rng, n: int, band, ws: np.ndarray) -> np.ndarray:
    """Weight class j of a uniform banded-downset point below each weight ws[i]."""
    return downset_class(n, band, ws, _downset_draws(rng, n, band, ws))


def subsets(xs: np.ndarray, sizes: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Per round i, the sizes[i]-subset of xs[i]'s bits that rows[i] selects.

    The k-th set bit of xs[i], lowest first, takes the value rows[i, k]; the
    subset is the bits with the sizes[i] smallest values.
    """
    n = rows.shape[1]
    bits = ((xs[:, None] >> np.arange(n, dtype=np.uint64)) & np.uint64(1)).astype(bool)
    rank = np.maximum(np.cumsum(bits, axis=1) - 1, 0)
    keys = np.where(bits, rows[np.arange(len(rows))[:, None], rank], np.inf)
    return lowest(keys, sizes)


def uc_triple_tester(f, cfg: TesterConfig) -> TesterReport:
    n = f.arity
    band = mid_band(n, cfg.eps, widened=True)
    rounds = _tau_rounds(cfg, n)
    rng = stream(cfg.seed)
    weights = weight_chunks(n, band, rounds, rng)
    rows1, rows2, draws = segments(rng, rounds, n, 3)
    for (start, stop), ws in zip(_chunks(rounds), weights):
        size = stop - start
        xs = lowest(rng.random((size, n)), ws)
        r1 = rows1.random((size, n))
        r2 = rows2.random((size, n))
        js = downset_weights(draws, n, band, np.repeat(ws, 2)).reshape(size, 2)
        y1 = subsets(xs, js[:, 0], r1)
        y2 = subsets(xs, js[:, 1], r2)
        fx, f1, f2 = _answers(f, np.concatenate((xs, y1, y2))).reshape(3, size)
        bad = np.flatnonzero((f1 == 1) & (f2 == 1) & ((y1 | y2) == xs) & (fx == 0))
        if bad.size:
            i = int(bad[0])
            cert = TripleCertificate(int(y1[i]), int(y2[i]), int(xs[i]))
            return TesterReport("reject", cert, 3 * (start + i + 1), start + i + 1, cfg.seed)
    return TesterReport("accept", None, 3 * rounds, rounds, cfg.seed)


def int_pair_tester(f, cfg: TesterConfig) -> TesterReport:
    n = f.arity
    full = np.uint64((1 << n) - 1)
    band = mid_band(n, cfg.eps)
    rounds = _tau_rounds(cfg, n)
    rng = stream(cfg.seed)
    weights = weight_chunks(n, band, rounds, rng)
    rows, draws = segments(rng, rounds, n, 2)
    for (start, stop), ws in zip(_chunks(rounds), weights):
        size = stop - start
        xs = lowest(rng.random((size, n)), ws)
        r = rows.random((size, n))
        js = downset_weights(draws, n, band, n - ws)
        ys = subsets(xs ^ full, js, r)
        fx, fy = _answers(f, np.concatenate((xs, ys))).reshape(2, size)
        bad = np.flatnonzero((fx == 1) & (fy == 1))
        if bad.size:
            i = int(bad[0])
            cert = IViolatingPair(int(ys[i]), int(xs[i]))
            return TesterReport("reject", cert, 2 * (start + i + 1), start + i + 1, cfg.seed)
    return TesterReport("accept", None, 2 * rounds, rounds, cfg.seed)


def or_below(values: np.ndarray, n: int) -> np.ndarray:
    """values, with values[z] replaced in place by the OR of values[y] over every y <= z."""
    for i in range(n):
        step = 1 << i
        v = values.reshape(-1, 2 * step)
        v[:, step:] |= v[:, :step]
    return values


def witness_array(f, band, uc: bool) -> np.ndarray:
    """``witness_table(f, band, uc)`` as a bool array over every point.

    int: f(x) = 1 and the OR of the band 1-inputs below the complement of x
    is set.  uc: f(x) = 0, x != 0 and the union of the band 1-inputs below x,
    which lies inside x, has x's weight.
    """
    n = f.arity
    values = f.as_array().astype(bool)
    weights = np.bitwise_count(np.arange(1 << n, dtype=np.uint32))
    ones = values & (weights >= band.lo) & (weights <= band.hi)
    if not uc:
        return values & or_below(ones, n)[::-1]
    unions = np.arange(1 << n, dtype=np.uint32) * ones
    hit = (np.bitwise_count(or_below(unions, n)) == weights) & ~values
    hit[0] = False
    return hit
