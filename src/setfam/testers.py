"""The four query-bounded testing algorithms.

All four are one-sided and non-adaptive: a reject always carries a
certificate that re-verifies against the oracle, and the query set of an
iteration never depends on answers.  Every query is drawn, but the
evaluation may stop early: once an iteration's answers so far rule out a
reject, the rest of its queries need not be evaluated (see Queries).

Randomness contract.  A run derives one Philox stream from its seed and
reads it in this order, R being the number of iterations (rounds):

1. the weight batch: one ``integers(0, total, size=R)`` call, the band
   weight class of each iteration's point;
2. R rows of n doubles; iteration i's point is the coordinates holding the
   w smallest values of row i (stable order), w its weight class;
3. 3-query tester: R rows of n doubles for y1, then R rows for y2;
   2-query tester: R rows of n doubles for y.  Row i orders the set bits of
   x (3-query) or of its complement (2-query), lowest bit first, and the
   subset is the bits holding the j smallest values;
4. 3-/2-query testers: per round, in round order, the downset weight class
   j of y1 and then of y2 (of y), each one ``integers(0, total_w)`` draw
   over the C(w, j) sizes of the band's classes below a weight-w point.

Every double takes one 64-bit draw.  So with W the stream position after
the weight batch, segment 2 starts at W + 0, the y1 (y) rows at W + R*n, the
y2 rows at W + 2R*n, and the scalar draws at W + 3R*n for the 3-query tester
and at W + 2R*n for the 2-query tester.  The scalar draws also keep the
32-bit half-word that the weight batch may have left buffered at W.

Chunks.  The testers work through their iterations in chunks of 64, 128,
... rounds, doubling up to 8192.  Each chunk draws its weights from the
stream itself, and W is found only when a chunk first reads past the weight
batch: the chunks not yet drawn are drawn once to reach W, and again chunk
by chunk from a Philox cursor at the position where that chunk's weights
end.  A witness tester reads its xs from the first chunk on, so its later
chunks are drawn twice.  A 3-/2-query tester reads a chunk's x rows only if
it has a candidate round (every round is one, but with a small table, see
below), and its y rows and scalar draws only if it has a live round (see
Queries).  Every row segment k (0 for x, then y1 and y2, or y) is read by
one rule: a cursor off the stream, which stays at W, opens at W + (k*R +
start)*n at the segment's first read and again at a chunk that does not
follow its last read.  The scalar draws, whose word count varies, have a
cursor of their own, and a live chunk first makes those of the chunks
skipped before it, from their weights drawn again off a saved state of the
weight reader.  So the draws are those of reading every segment whole, and
memory is O(8192 * n) for any R.  A run of one chunk opens no cursor: it
reads every segment in stream order from the stream itself.  A run draws at
most one chunk beyond its last iteration; with no candidate round it draws
each weight once and no x row, and with no live chunk no y row and no
scalar draw.

Queries.  A run reports the queries of the iterations it ran up to and
including the first rejecting one: 1 + |banded downset| per iteration for
the witness testers, and 3 (2) per round for the 3-query (2-query) tester.
The witness testers evaluate a chunk in blocks of at most 2^12 points
(``boolfn.BLOCK``): x and the banded downset of consecutive iterations
together, or one large downset over several blocks.  The round testers
evaluate every round's x first (a small table reads and looks up fewer, see
below), then y only for the live rounds, which can still reject: the
2-query tester where f(x) = 1; the 3-query tester y1 where f(x) = 0 and
|y1| + |y2| >= |x| (y1 | y2 = x needs it), then y2 where also f(y1) = 1.
The first rejecting round in round order is reported; the reported queries
are still 3 (2) per round.  Both use one call of the oracle's ``batch``
method per block or per stage of a chunk when it has one, and evaluate
point by point otherwise, so an oracle may also see points of the
iterations after the rejecting one in its block or chunk; those answers are
not counted and cannot change the report.

A ``TruthTable`` of at most 2^12 points is read whole once per run instead:
its ``violations.witness_table`` for the tester's band (a ``TruthTable``)
answers each chunk's xs with one ``batch`` call.  A witness tester then
evaluates only the rejecting iteration's check, for its certificate.  A
round tester keeps only the rounds whose x has a witness in place of the
f(x) stage, and runs the rest of its stages on them: a rejecting round's
y1 and y2 (y) are band 1-inputs below x whose union is x (below x's
complement), so its x has one.  The table is unpacked once per run, with
the weight classes that hold a witness point, and a round is a candidate
when its weight class is one of them.  A chunk reads its x rows only when
it has a candidate, and picks and looks up the point x only of its
candidates; a chunk with none reads no x row, though it still runs each
stage, on no round.  A chunk with no witness x reads none of its later
draws (see Chunks); the reports do not change, and the reported queries
stay those above.

Identical (f, config) therefore reproduces identical reports byte for byte,
and iterations stay independent given the weight batch.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator

import numpy as np

from .boolfn import (
    BLOCK,
    DEFAULT_ENUMERATION_CAP,
    Band,
    QueryCounter,  # noqa: F401  (benchmark/spans.py patches it here by name)
    ResourceCapError,
    TruthTable,
    _answers,
    _band_draws,
    _batch_band_points,
    _downset_class,
    _downset_draws,
    _lowest,
    _subsets,
    mid_band,
    sample_band_weights,
)
from .rng import stream
from .violations import IViolatingPair, TripleCertificate, witness_scan, witness_table

__all__ = [
    "TesterConfig",
    "TesterReport",
    "uc_tester",
    "int_tester",
    "uc_triple_tester",
    "int_pair_tester",
    "tau_success_rate",
]

#: Computed round counts above this raise instead of looping for hours;
#: pass max_iterations explicitly to run a slice of that many rounds.
ROUNDS_CAP = 10**7


@dataclass(frozen=True)
class TesterConfig:
    """Error parameter and reproducibility knobs shared by all testers."""

    eps: float
    seed: int = 0
    max_iterations: int | None = None
    enumeration_cap: int = DEFAULT_ENUMERATION_CAP
    tau_constant: float = 1.0  # Theta-constant in the 3-/2-query round count

    def __post_init__(self):
        if not 0.0 < self.eps < 1.0:
            raise ValueError(f"eps must lie in (0,1), got {self.eps}")
        if self.max_iterations is not None and self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")
        if not 0.0 <= self.tau_constant < math.inf:
            raise ValueError(f"tau_constant must be finite and >= 0, got {self.tau_constant}")


@dataclass(frozen=True)
class TesterReport:
    """Outcome of one tester run; reject implies a re-verifiable certificate."""

    verdict: str  # "accept" | "reject"
    certificate: object | None
    queries: int
    iterations_run: int
    seed: int

    def to_json_obj(self) -> dict:
        return {
            "verdict": self.verdict,
            "certificate": None
            if self.certificate is None
            else self.certificate.to_json_obj(),
            "queries": self.queries,
            "iterations_run": self.iterations_run,
            "seed": self.seed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True, separators=(",", ":"))


def _iterations(cfg: TesterConfig) -> int:
    if cfg.max_iterations is not None:
        return cfg.max_iterations
    return math.ceil(100.0 / cfg.eps)


def tau_success_rate(n: int, eps: float, c: float = 1.0) -> float:
    """Per-round success floor tau = eps * 2^(-c*sqrt(n log2(n/eps))*log2 n).

    The constant inside the exponent is only determined up to scaling; c
    calibrates it (default 1), and the CLI reports empirical per-round
    success so users can refit.
    """
    if n == 1:
        return eps
    expo = c * math.sqrt(n * math.log2(n / eps)) * math.log2(n)
    return eps * 2.0**-expo


def _tau_rounds(cfg: TesterConfig, n: int) -> int:
    if cfg.max_iterations is not None:
        return cfg.max_iterations
    tau = tau_success_rate(n, cfg.eps, cfg.tau_constant)
    rounds = 100.0 / tau if tau else math.inf  # tau underflows to 0 for a large constant
    if rounds > ROUNDS_CAP:
        predicted = math.ceil(rounds) if rounds < math.inf else None
        what = f"{predicted} rounds" if predicted else f"100/tau (tau = {tau:g})"
        raise ResourceCapError(f"{what} exceeds the cap {ROUNDS_CAP}; set max_iterations",
                               predicted, ROUNDS_CAP)
    return math.ceil(rounds)


#: Rounds per chunk: the first chunk, and the size the doubling stops at.
CHUNK_MIN = 64
CHUNK_MAX = 8192


def _chunks(count: int) -> Iterator[tuple[int, int]]:
    """[start, stop) of consecutive chunks of 64, 128, ... 8192, 8192, ... rounds."""
    start, size = 0, CHUNK_MIN
    while start < count:
        stop = min(count, start + size)
        yield start, stop
        start, size = stop, min(2 * size, CHUNK_MAX)


def _cursor(rng: np.random.Generator, words: int) -> np.random.Generator:
    """A generator reading rng's stream from ``words`` 64-bit draws past its position.

    It keeps the 32-bit half-word rng may hold buffered.
    """
    state = rng.bit_generator.state
    counter = int.from_bytes(state["state"]["counter"].astype("<u8").tobytes(), "little")
    # draw 4c + k is word k of the block made from counter c, which the bit
    # generator makes after bumping its counter from c - 1
    block, skip = divmod(4 * counter + state["buffer_pos"] + words, 4)
    before = ((block - 1) % 2**256).to_bytes(32, "little")
    bg = np.random.Philox(rng.bit_generator.seed_seq)
    bg.state = {**state, "buffer_pos": 4, "state": {
        "counter": np.frombuffer(before, dtype="<u8"), "key": state["state"]["key"]}}
    bg.random_raw(skip)
    return np.random.Generator(bg)


class _RoundReads:
    """A tester's weights chunk by chunk, then the reads of only the chunks that need them.

    The weights come from rng itself until a chunk first reads past the
    weight batch (:meth:`end`).  x rows are read for chunks with a candidate
    round, y rows and scalar draws for live chunks, every row segment through
    :meth:`rows`.  count is the number of y row segments; the scalar draws
    sample below below(ws).  See Chunks in the module docstring.
    """

    def __init__(self, n: int, band: Band, rounds: int, rng: np.random.Generator,
                 count: int, below):
        self.n, self.band, self.rounds, self.count, self.below = n, band, rounds, count, below
        self.rng, self.reader, self.drawn = rng, rng, 0
        first = rng if rounds <= CHUNK_MIN else None  # one chunk reads rng in stream order
        self.segments, self.draws, self.at = [(first, 0)] * (count + 1), first, 0
        if first is None:
            self.mark = rng.bit_generator.state  # the batch's start, for the replay

    def chunks(self) -> Iterator[tuple[int, np.ndarray]]:
        """(start, weights) of each chunk."""
        for start, stop in _chunks(self.rounds):
            ws = sample_band_weights(self.n, self.band, self.reader, stop - start)
            self.drawn = stop
            yield start, ws

    def end(self) -> np.random.Generator:
        """rng, moved to W, the end of the weight batch, the first time a chunk reads past it.

        The batch takes a varying number of draws (integers() rejects some),
        so its end is found by drawing the chunks not yet drawn, which a
        cursor at rng's position then draws again for :meth:`chunks`.  Chunked
        draws give the values of one batch call, because bounded draws under
        2^32 take their 32-bit halves from the bit generator's own buffer.  The
        catch-up makes only the ``integers`` calls (``boolfn._band_draws``), not
        their class lookups.
        """
        if self.reader is self.rng and self.drawn < self.rounds:
            self.reader = _cursor(self.rng, 0)
            for start, stop in _chunks(self.rounds):
                if start >= self.drawn:
                    _band_draws(self.n, self.band, self.rng, stop - start)
        return self.rng

    def rows(self, k: int, start: int, count: int) -> np.ndarray:
        """Rows [start, start + count) of row segment k: 0 for x, then y1 and y2 (y).

        A cursor opens at W + (k*R + start)*n for the segment's first read
        and for a read that does not follow its last one.
        """
        reader, at = self.segments[k]
        if reader is None or start != at:
            reader = _cursor(self.end(), (k * self.rounds + start) * self.n)
        self.segments[k] = reader, start + count
        return reader.random((count, self.n))

    def read(self, start: int, ws: np.ndarray, live: np.ndarray):
        """The chunk's y rows, a (len(ws), n) array per segment, and its downset draws.

        With no live round nothing is read and the arrays are empty.
        """
        n, band, rounds = self.n, self.band, self.rounds
        if not live.size:
            return [np.empty((0, n))] * self.count, np.empty(0, dtype=np.uint64)
        if self.draws is None:
            self.draws = _cursor(self.end(), (self.count + 1) * rounds * n)
        if start > self.at:
            replay = np.random.Generator(np.random.Philox())
            replay.bit_generator.state = self.mark
            for s, e in _chunks(rounds):
                if self.at <= s < start:
                    skipped = sample_band_weights(n, band, replay, e - s)
                    _downset_draws(self.draws, n, band, self.below(skipped))
        rows = [self.rows(k, start, len(ws)) for k in range(1, self.count + 1)]
        us = _downset_draws(self.draws, n, band, self.below(ws))
        self.mark, self.at = self.reader.bit_generator.state, start + len(ws)
        return rows, us


def _small_witness_table(f, band: Band, uc: bool) -> TruthTable | None:
    """f's :func:`witness_table` for band and rule if f is a table of at most BLOCK points.

    Such a table answers every witness check at once; other oracles and
    larger tables get None and evaluate their checks.  The round testers
    unpack it once per run and rank only the rounds of the weight classes
    that hold one of its witness points (:func:`_point_stage`).
    """
    if isinstance(f, TruthTable) and 1 << f.arity <= BLOCK:
        return witness_table(f, band, uc)
    return None


def _round_points(
    ws: np.ndarray, rows: Callable[[], np.ndarray], classes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(rounds, xs): a chunk's rounds whose weight class is in classes, and their points.

    rows() reads the chunk's x rows (segment 0 of :meth:`_RoundReads.rows`),
    and is called only when a round is in a marked class; only those rounds
    are ranked.
    """
    rounds = np.flatnonzero(classes[ws])
    if not rounds.size:
        return rounds, np.empty(0, dtype=np.uint64)
    return rounds, _lowest(rows()[rounds], ws[rounds])


def _point_stage(f, band: Band, uc: bool):
    """A round tester's point stage: (ws, rows) -> (live, xs), the chunk's rounds that can reject.

    rows() reads the chunk's x rows (:func:`_round_points`).  A round can
    reject only at a witness point x, where f(x) = 0 (uc) or 1 (int) at
    least.  A table of at most BLOCK points marks the weight classes that
    hold a witness point and looks its candidates' xs up in its witness
    table, so a chunk with no candidate reads no x row; any other oracle
    marks every class, so it reads and ranks every round, and evaluates f(x).
    """
    n, table = f.arity, _small_witness_table(f, band, uc)
    witness, classes = None, np.ones(n + 1, dtype=bool)
    if table is not None:
        witness, classes = table.as_array().view(bool), np.zeros(n + 1, dtype=bool)
        classes[np.bitwise_count(np.flatnonzero(witness))] = True

    def points(ws: np.ndarray, rows: Callable[[], np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        rounds, xs = _round_points(ws, rows, classes)
        hit = _answers(f, xs) == (0 if uc else 1) if witness is None else witness[xs]
        return rounds[hit], xs[hit]

    return points


def _witness_tester(f, cfg: TesterConfig, uc: bool) -> TesterReport:
    n = f.arity
    band = mid_band(n, cfg.eps)
    m = _iterations(cfg)
    reads = _RoundReads(n, band, m, stream(cfg.seed), 0, None)
    table = _small_witness_table(f, band, uc)
    queries = 0
    for start, ws in reads.chunks():
        xs = _batch_band_points(n, ws, reads.end())
        i, witness, cost = witness_scan(f, xs, band, uc, cfg.enumeration_cap, table)
        queries += cost
        if witness is not None:
            return TesterReport("reject", witness, queries, start + i + 1, cfg.seed)
    return TesterReport("accept", None, queries, m, cfg.seed)


def uc_tester(f, cfg: TesterConfig) -> TesterReport:
    """Union-closedness tester: banded point + full banded-downset witness check.

    Accepts every union-closed function with probability 1; rejects functions
    eps-far from union-closed with probability >= 9/10 over ceil(100/eps)
    iterations.  Queries per iteration: 1 + |banded downset of x|.
    """
    return _witness_tester(f, cfg, uc=True)


def int_tester(f, cfg: TesterConfig) -> TesterReport:
    """Intersectingness tester: banded point vs the complement's banded downset.

    Accepts every intersecting function with probability 1; rejects eps-far
    functions with probability >= 9/10.  Queries per iteration:
    1 + |banded downset of the complement of x|.
    """
    return _witness_tester(f, cfg, uc=False)


def uc_triple_tester(f, cfg: TesterConfig) -> TesterReport:
    """3-query-per-round union-closedness tester over the widened band.

    Each round queries exactly x, y1, y2 with y1, y2 uniform in x's banded
    downset, and rejects on a violating triple.  Perfect completeness; round
    count ceil(100/tau) unless overridden.
    """
    n = f.arity
    band = mid_band(n, cfg.eps, widened=True)
    rounds = _tau_rounds(cfg, n)
    rng = stream(cfg.seed)
    reads = _RoundReads(n, band, rounds, rng, 2, lambda ws: np.repeat(ws, 2))
    points = _point_stage(f, band, True)
    for start, ws in reads.chunks():
        # a round can reject only at a witness point x, and only if
        # |y1| + |y2| >= |x|, then f(y1) = 1
        live, x = points(ws, partial(reads.rows, 0, start, len(ws)))
        (r1, r2), us = reads.read(start, ws, live)
        w = ws[live]
        j1, j2 = _downset_class(n, band, w[:, None], us.reshape(-1, 2)[live]).T
        fits = j1 + j2 >= w
        live, x, j1, j2 = live[fits], x[fits], j1[fits], j2[fits]
        y1 = _subsets(x, j1, r1[live])
        hit = _answers(f, y1) == 1
        live, x, y1 = live[hit], x[hit], y1[hit]
        y2 = _subsets(x, j2[hit], r2[live])
        bad = np.flatnonzero((_answers(f, y2) == 1) & ((y1 | y2) == x))
        if bad.size:
            k = int(bad[0])
            i = int(live[k])
            cert = TripleCertificate(int(y1[k]), int(y2[k]), int(x[k]))
            return TesterReport("reject", cert, 3 * (start + i + 1), start + i + 1, cfg.seed)
    return TesterReport("accept", None, 3 * rounds, rounds, cfg.seed)


def int_pair_tester(f, cfg: TesterConfig) -> TesterReport:
    """2-query-per-round intersectingness tester.

    Each round queries x and one uniform y from the banded downset of the
    complement of x; rejects on an I-violating pair.  Perfect completeness;
    same round calibration as the 3-query tester.
    """
    n = f.arity
    full = np.uint64((1 << n) - 1)
    band = mid_band(n, cfg.eps)
    rounds = _tau_rounds(cfg, n)
    rng = stream(cfg.seed)
    reads = _RoundReads(n, band, rounds, rng, 1, lambda ws: n - ws)
    points = _point_stage(f, band, False)
    for start, ws in reads.chunks():
        live, x = points(ws, partial(reads.rows, 0, start, len(ws)))
        (r,), us = reads.read(start, ws, live)
        js = _downset_class(n, band, n - ws[live], us[live])
        ys = _subsets(x ^ full, js, r[live])
        bad = np.flatnonzero(_answers(f, ys) == 1)
        if bad.size:
            k = int(bad[0])
            i = int(live[k])
            cert = IViolatingPair(int(ys[k]), int(x[k]))
            return TesterReport("reject", cert, 2 * (start + i + 1), start + i + 1, cfg.seed)
    return TesterReport("accept", None, 2 * rounds, rounds, cfg.seed)
