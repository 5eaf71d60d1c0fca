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
... rounds, doubling up to 8192.  A run of more than one chunk draws the
weight batch once to find W, then again chunk by chunk from a Philox cursor
at its start.  A 3-/2-query tester reads a chunk's x rows only if the chunk
has a candidate round (every round is one, but with a small table, see
below), and its y rows and scalar draws only if it has a live round (see
Queries).  The x rows come from the stream itself, which the weight batch
leaves at W, until a chunk skips them; after skipped chunks one cursor
reopens the x segment at W + start*n, and cursors open the y row segments
at W + k*R*n + start*n.  The skipped chunks' scalar draws, whose word count
varies, are made first, from their weights drawn again off a saved state of
the weight cursor.  So the draws are those of reading every segment whole,
and as the catch-up too goes chunk by chunk, memory is O(8192 * n) for any
R.  A run of one chunk reads every segment from the stream itself: it draws
nothing after its x rows unless a round is a candidate.  A run that rejects
early draws at most one chunk beyond its last iteration; a run with no
candidate round draws no x row, and one with no live chunk no y row and no
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


def _weight_reader(
    n: int, band: Band, rounds: int, rng: np.random.Generator
) -> np.random.Generator:
    """A reader of the weight batch from its start; moves rng past the whole batch.

    The batch takes a varying number of draws (integers() rejects some), so
    its end is found by drawing it once, and a cursor at its start draws it
    again chunk by chunk.  Chunked draws give the values of one batch call,
    because bounded draws under 2^32 take their 32-bit halves from the bit
    generator's own buffer.  The first pass makes only the batch's
    ``integers`` calls (``boolfn._band_draws``), not its class lookups.  A run
    of one chunk reads the batch from rng itself, before anything else.
    """
    if rounds <= CHUNK_MIN:
        return rng
    reader = _cursor(rng, 0)
    for start, stop in _chunks(rounds):
        _band_draws(n, band, rng, stop - start)
    return reader


def _weight_chunks(
    n: int, band: Band, rounds: int, rng: np.random.Generator
) -> Iterator[np.ndarray]:
    """The weight batch chunk by chunk, read by :func:`_weight_reader`."""
    reader = _weight_reader(n, band, rounds, rng)
    return (sample_band_weights(n, band, reader, stop - start) for start, stop in _chunks(rounds))


class _RoundReads:
    """A round tester's weights, then the reads of only the chunks that need them.

    x rows are read for chunks with a candidate round, y rows and scalar draws
    for live chunks.  rows is the number of y row segments; the scalar draws
    sample below below(ws).  See Chunks in the module docstring.
    """

    def __init__(self, n: int, band: Band, rounds: int, rng: np.random.Generator,
                 rows: int, below):
        self.n, self.band, self.rounds, self.count, self.below = n, band, rounds, rows, below
        self.reader = _weight_reader(n, band, rounds, rng)  # before any cursor at W
        self.origin, self.rows, self.draws, self.at = rng, [rng] * rows, rng, 0
        self.x_reader, self.x_at = rng, 0
        if rounds > CHUNK_MIN:  # else rng reads every segment in stream order
            self.origin, self.draws = _cursor(rng, 0), None
            self.mark = self.reader.bit_generator.state

    def chunks(self) -> Iterator[tuple[int, np.ndarray]]:
        """(start, weights) of each chunk."""
        for start, stop in _chunks(self.rounds):
            yield start, sample_band_weights(self.n, self.band, self.reader, stop - start)

    def x_rows(self, start: int, ws: np.ndarray) -> np.ndarray:
        """The chunk's x rows, a (len(ws), n) array, from a cursor reopened after skipped chunks."""
        if start > self.x_at:
            self.x_reader = _cursor(self.origin, start * self.n)
        self.x_at = start + len(ws)
        return self.x_reader.random((len(ws), self.n))

    def read(self, start: int, ws: np.ndarray, live: np.ndarray):
        """The chunk's y rows, a (len(ws), n) array per segment, and its downset draws.

        With no live round nothing is read and the arrays are empty.
        """
        n, band, rounds = self.n, self.band, self.rounds
        if not live.size:
            return [np.empty((0, n))] * self.count, np.empty(0, dtype=np.uint64)
        if self.draws is None or start > self.at:
            self.rows = [_cursor(self.origin, (k * rounds + start) * n)
                         for k in range(1, self.count + 1)]
            if self.draws is None:
                self.draws = _cursor(self.origin, (self.count + 1) * rounds * n)
            replay = np.random.Generator(np.random.Philox())
            replay.bit_generator.state = self.mark
            for s, e in _chunks(rounds):
                if self.at <= s < start:
                    skipped = sample_band_weights(n, band, replay, e - s)
                    _downset_draws(self.draws, n, band, self.below(skipped))
        rows = [r.random((len(ws), n)) for r in self.rows]
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
    ws: np.ndarray, rows: Callable[[], np.ndarray], classes: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray]:
    """(rounds, xs): a chunk's rounds whose weight class is in classes, and their points.

    rows() gives the chunk's x rows, and is called only when a round is in
    a marked class; only those rounds are ranked.  classes None marks every
    class.
    """
    if classes is None:
        return np.arange(len(ws)), _lowest(rows(), ws)
    rounds = np.flatnonzero(classes[ws])
    if not rounds.size:
        return rounds, np.empty(0, dtype=np.uint64)
    return rounds, _lowest(rows()[rounds], ws[rounds])


def _point_stage(f, band: Band, uc: bool):
    """A round tester's point stage: (ws, rows) -> (live, xs), the chunk's rounds that can reject.

    rows() gives the chunk's x rows (:meth:`_RoundReads.x_rows`).  A round
    can reject only at a witness point x, where f(x) = 0 (uc) or 1 (int) at
    least.  A table of at most BLOCK points looks its candidates' xs up in
    its witness table, and its candidates are the rounds whose weight class
    holds a witness point, so a chunk with none reads no x row; any other
    oracle reads and ranks every round and evaluates f(x).
    """
    n, table = f.arity, _small_witness_table(f, band, uc)
    classes = witness = None
    if table is not None:
        witness = table.as_array().view(bool)
        classes = np.zeros(n + 1, dtype=bool)
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
    rng = stream(cfg.seed)
    weights = _weight_chunks(n, band, m, rng)
    table = _small_witness_table(f, band, uc)
    queries = 0
    for (start, _), ws in zip(_chunks(m), weights):
        xs = _batch_band_points(n, ws, rng)
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
        live, x = points(ws, partial(reads.x_rows, start, ws))
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
        live, x = points(ws, partial(reads.x_rows, start, ws))
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
