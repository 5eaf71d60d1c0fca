"""The four query-bounded testing algorithms.

All four are one-sided and non-adaptive: a reject always carries a
certificate that re-verifies against the oracle, and the query set of an
iteration never depends on answers.

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
at its start; the 3-/2-query testers also open a cursor at each later
segment's offset.  Reading every segment chunk by chunk gives the same draws
as reading it whole, so memory is O(8192 * n) for any R, and a run that
rejects early draws at most one chunk beyond its last iteration.

Queries.  A run reports the queries of the iterations it ran up to and
including the first rejecting one: 1 + |banded downset| per iteration for
the witness testers, and 3 (2) per round for the 3-query (2-query) tester.
The witness testers evaluate a chunk in blocks of at most 2^12 points
(``boolfn.BLOCK``): x and the banded downset of consecutive iterations
together, or one large downset over several blocks.  The round testers
evaluate a whole chunk at once.  Both use one call of the oracle's ``batch``
method per block or chunk when it has one, and evaluate point by point
otherwise, so an oracle may also see points of the iterations after the
rejecting one in its block or chunk; those answers are not counted and
cannot change the report.  A ``TruthTable`` of at most 2^12 points is read
whole once per run instead: ``violations.witness_table`` marks every point
whose check finds a witness, and only the rejecting iteration's check is
evaluated, for its certificate.  The reported queries stay those above.

Identical (f, config) therefore reproduces identical reports byte for byte,
and iterations stay independent given the weight batch.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .boolfn import (
    BLOCK,
    DEFAULT_ENUMERATION_CAP,
    Band,
    QueryCounter,  # noqa: F401  (benchmark/spans.py patches it here by name)
    ResourceCapError,
    TruthTable,
    _answers,
    _batch_band_points,
    _downset_weights,
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
    rounds = math.ceil(100.0 / tau_success_rate(n, cfg.eps, cfg.tau_constant))
    if rounds > ROUNDS_CAP:
        raise ResourceCapError(
            f"{rounds} rounds exceeds the cap {ROUNDS_CAP}; set max_iterations"
        )
    return rounds


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


def _weight_chunks(
    n: int, band: Band, rounds: int, rng: np.random.Generator
) -> Iterator[np.ndarray]:
    """The weight batch chunk by chunk; moves rng past the whole batch.

    The batch takes a varying number of draws (integers() rejects some), so
    its end is found by drawing it once, and a cursor at its start draws it
    again chunk by chunk.  Chunked draws give the values of one batch call,
    because bounded draws under 2^32 take their 32-bit halves from the bit
    generator's own buffer.
    """
    if rounds <= CHUNK_MIN:
        return iter([sample_band_weights(n, band, rng, rounds)])
    reader = _cursor(rng, 0)
    for start, stop in _chunks(rounds):
        sample_band_weights(n, band, rng, stop - start)
    return (sample_band_weights(n, band, reader, stop - start)
            for start, stop in _chunks(rounds))


def _segments(
    rng: np.random.Generator, rounds: int, n: int, count: int
) -> list[np.random.Generator]:
    """Readers of the stream from k * rounds * n draws past rng, k = 1..count.

    A run of one chunk reads every segment whole and in stream order, so
    its readers are rng itself.
    """
    if rounds <= CHUNK_MIN:
        return [rng] * count
    return [_cursor(rng, k * rounds * n) for k in range(1, count + 1)]


def _witness_tester(f, cfg: TesterConfig, uc: bool) -> TesterReport:
    n = f.arity
    band = mid_band(n, cfg.eps)
    m = _iterations(cfg)
    rng = stream(cfg.seed)
    weights = _weight_chunks(n, band, m, rng)
    # a small table answers every check at once; larger ones enumerate
    small = isinstance(f, TruthTable) and 1 << n <= BLOCK
    table = witness_table(f, band, uc) if small else None
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
    weights = _weight_chunks(n, band, rounds, rng)
    rows1, rows2, draws = _segments(rng, rounds, n, 3)
    for (start, stop), ws in zip(_chunks(rounds), weights):
        size = stop - start
        xs = _batch_band_points(n, ws, rng)
        r1 = rows1.random((size, n))
        r2 = rows2.random((size, n))
        js = _downset_weights(draws, n, band, np.repeat(ws, 2)).reshape(size, 2)
        y1 = _subsets(xs, js[:, 0], r1)
        y2 = _subsets(xs, js[:, 1], r2)
        fx, f1, f2 = _answers(f, np.concatenate((xs, y1, y2))).reshape(3, size)
        bad = np.flatnonzero((f1 == 1) & (f2 == 1) & ((y1 | y2) == xs) & (fx == 0))
        if bad.size:
            i = int(bad[0])
            cert = TripleCertificate(int(y1[i]), int(y2[i]), int(xs[i]))
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
    weights = _weight_chunks(n, band, rounds, rng)
    rows, draws = _segments(rng, rounds, n, 2)
    for (start, stop), ws in zip(_chunks(rounds), weights):
        size = stop - start
        xs = _batch_band_points(n, ws, rng)
        r = rows.random((size, n))
        js = _downset_weights(draws, n, band, n - ws)
        ys = _subsets(xs ^ full, js, r)
        fx, fy = _answers(f, np.concatenate((xs, ys))).reshape(2, size)
        bad = np.flatnonzero((fx == 1) & (fy == 1))
        if bad.size:
            i = int(bad[0])
            cert = IViolatingPair(int(ys[i]), int(xs[i]))
            return TesterReport("reject", cert, 2 * (start + i + 1), start + i + 1, cfg.seed)
    return TesterReport("accept", None, 2 * rounds, rounds, cfg.seed)
