"""Violation predicates, witness detection, and certificate combinatorics.

Three certificate shapes are used throughout the package:

* ``IViolatingPair``: two 1-inputs with empty intersection (the diagonal
  pair (0^n, 0^n) counts: no intersecting family contains the empty set);
* ``UcViolatingTuple``: 1-inputs whose union is a 0-input;
* ``TripleCertificate``: the 3-point special case (y1, y2, y1|y2).

All certificates serialize to JSON with points as little-endian indices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .boolfn import (
    BLOCK,
    DEFAULT_ENUMERATION_CAP,
    Band,
    EnumerationCapError,
    ResourceCapError,
    TruthTable,
    _answers,
    _runs,
    down_band_blocks,
    down_band_counts,
    enumerate_down_band,  # noqa: F401  (benchmark/spans.py patches it here by name)
    popcount_array,
)

__all__ = [
    "IViolatingPair",
    "UcViolatingTuple",
    "TripleCertificate",
    "certificate_from_json_obj",
    "is_monotone_violation",
    "is_i_violation",
    "is_uc_violation",
    "witness_check_uc",
    "witness_check_int",
    "witness_scan",
    "witness_table",
    "is_minimal_tuple",
    "min_disjoint_cover",
    "max_disjoint_i_pairs",
    "level_matching",
    "augment_tuple",
    "locality",
    "min_violation_locality",
]


@dataclass(frozen=True)
class IViolatingPair:
    """1-inputs x, y with x & y == 0; x == y only allowed for the empty set."""

    x: int
    y: int

    def points(self) -> tuple[int, int]:
        return (self.x, self.y)

    def holds_for(self, f) -> bool:
        return f(self.x) == 1 and f(self.y) == 1 and self.x & self.y == 0

    def to_json_obj(self) -> dict:
        return {"type": "i-pair", "points": [self.x, self.y]}


@dataclass(frozen=True)
class UcViolatingTuple:
    """1-inputs whose union ``end`` is a 0-input."""

    members: tuple[int, ...]
    end: int

    def points(self) -> tuple[int, ...]:
        return self.members + (self.end,)

    def holds_for(self, f) -> bool:
        if not self.members:
            return False
        union = 0
        for m in self.members:
            if f(m) != 1:
                return False
            union |= m
        return union == self.end and f(self.end) == 0

    def to_json_obj(self) -> dict:
        return {"type": "uc-tuple", "members": list(self.members), "end": self.end}


@dataclass(frozen=True)
class TripleCertificate:
    """y1, y2 are 1-inputs, z = y1 | y2 is a 0-input."""

    y1: int
    y2: int
    z: int

    def points(self) -> tuple[int, int, int]:
        return (self.y1, self.y2, self.z)

    def holds_for(self, f) -> bool:
        return (
            f(self.y1) == 1
            and f(self.y2) == 1
            and self.y1 | self.y2 == self.z
            and f(self.z) == 0
        )

    def to_json_obj(self) -> dict:
        return {"type": "triple", "points": [self.y1, self.y2, self.z]}


def certificate_from_json_obj(obj: dict):
    kind = obj["type"]
    if kind == "i-pair":
        x, y = obj["points"]
        return IViolatingPair(x, y)
    if kind == "uc-tuple":
        return UcViolatingTuple(tuple(obj["members"]), obj["end"])
    if kind == "triple":
        y1, y2, z = obj["points"]
        return TripleCertificate(y1, y2, z)
    raise ValueError(f"unknown certificate type {kind!r}")


# -- pair/triple predicates ---------------------------------------------------


def _check_arity(f, *points: int) -> None:
    limit = 1 << f.arity
    for p in points:
        if not 0 <= p < limit:
            raise ValueError(f"point {p} outside arity-{f.arity} cube")


def is_monotone_violation(f, x: int, y: int) -> bool:
    """True iff x <= y coordinatewise but f(x) = 1 > 0 = f(y)."""
    _check_arity(f, x, y)
    if x & ~y:
        return False
    return f(x) == 1 and f(y) == 0


def is_i_violation(f, x: int, y: int) -> bool:
    """True iff f(x) = f(y) = 1 and x, y share no coordinate.

    The diagonal x = y = 0^n counts as a violation: an intersecting family
    cannot contain the empty set.
    """
    _check_arity(f, x, y)
    if x & y:
        return False
    if x == y and x != 0:
        return False
    return f(x) == 1 and f(y) == 1


def is_uc_violation(f, y1: int, y2: int) -> TripleCertificate | None:
    """Certificate iff f(y1) = f(y2) = 1 and f(y1 | y2) = 0."""
    _check_arity(f, y1, y2)
    z = y1 | y2
    if f(y1) == 1 and f(y2) == 1 and f(z) == 0:
        return TripleCertificate(y1, y2, z)
    return None


# -- banded witness checks ----------------------------------------------------
#
# A check's query set is x and every point of its banded downset, whatever
# the answers (non-adaptive), so it counts 1 + |downset| queries.  Evaluation
# may stop inside that set once a witness is certain; no report changes.


def witness_scan(
    f, xs: np.ndarray, band: Band, uc: bool, cap: int = DEFAULT_ENUMERATION_CAP,
    table: TruthTable | None = None,
) -> tuple[int, UcViolatingTuple | IViolatingPair | None, int]:
    """The banded witness check of each point of xs in turn, up to the first witness.

    uc: a tuple with end x and members in x's banded downset; otherwise a
    pair (y, x) with y in the banded downset of x's complement.  Returns
    (i, certificate, queries): the index of the first x with a witness and
    that witness, or (-1, None, ...) if none has one, and the queries of
    the checks up to and including it.  Consecutive checks are evaluated
    together in blocks of at most BLOCK points, one oracle call per block,
    so f may also see points of the checks that follow the first witness
    in its block.  Given ``table``, the :func:`witness_table` of f for this
    band and rule, xs are looked up in it with one ``batch`` call and only
    the first witness's check is evaluated.  A check whose downset exceeds
    ``cap`` raises EnumerationCapError, once every check before it found nothing.
    """
    xs = np.asarray(xs, dtype=np.uint64)
    roots = xs if uc else xs ^ np.uint64((1 << f.arity) - 1)
    counts = down_band_counts(roots, band)
    over = np.flatnonzero(counts > cap)
    stop = int(over[0]) if over.size else len(xs)
    if table is None:
        runs = _runs((counts[:stop] + np.uint64(1)).tolist(), BLOCK)
    else:  # the first witness's check alone
        hits = np.flatnonzero(table.batch(xs[:stop]))
        runs = [(int(hits[0]), int(hits[0]) + 1)] if hits.size else []
    for start, end in runs:
        found = _witness_run(f, xs[start:end], roots[start:end], band, uc)
        if found is not None:
            i, cert = found
            i += start
            return i, cert, int(counts[: i + 1].sum()) + i + 1
    if over.size:
        raise EnumerationCapError(int(counts[stop]), cap)
    return -1, None, int(counts[:stop].sum()) + stop


def witness_table(f: TruthTable, band: Band, uc: bool) -> TruthTable:
    """Table over every point x: does x's banded witness check find a witness?

    uc: f(x) = 0, x != 0 and the union of the 1-inputs below x with weight
    in the band is x; otherwise f(x) = 1 and such a 1-input lies below the
    complement of x.  A subset-OR transform over the band's 1-inputs, on f's
    bits as one machine word (n <= 6) or as 2^(n-6) uint64 words, answers
    every x at once in O(n 2^n) time: int reads it at each complement; uc
    needs each coordinate c of x in a band 1-input below x (transform c).
    """
    n = f.arity
    if n <= 6:
        return TruthTable(n, _word_witness(f.bits, n, band, uc))
    words = np.frombuffer(f.bits.to_bytes(1 << (n - 3), "little"), "<u8")
    ones = words & _band_words(n, band)
    if not uc:  # the transform at each complement: bytes in reverse order, each byte's bits too
        hit = _REVERSED[_or_below(ones, n).view(np.uint8)[::-1]]
        hit &= words.view(np.uint8)
    else:
        hit = ~words
        hit[0] &= ~np.uint64(1)  # x = 0 is only below itself, so as a 0-input it has no members
        step = max(1, _SLICE_WORDS >> (n - 6))
        index = np.arange(len(words), dtype=np.uint64)
        for c0 in range(0, n, step):  # transform c for each c0 <= c < c0 + step, a row each
            c = slice(c0, min(n, c0 + step))
            hold = _HOLD[c, None] * (index & _WORD_BIT[c, None] == _WORD_BIT[c, None])
            hit &= np.bitwise_and.reduce(_or_below(ones & hold, n) | ~hold, axis=0)
    return TruthTable(n, int.from_bytes(hit.tobytes(), "little"))


#: Points of a 64-point word: _CLEAR[i] those with coordinate i 0, _LEVEL[w] those of weight w.
_CLEAR = (0x5555555555555555, 0x3333333333333333, 0x0F0F0F0F0F0F0F0F,
          0x00FF00FF00FF00FF, 0x0000FFFF0000FFFF, 0x00000000FFFFFFFF)
_LEVEL = tuple(sum(1 << p for p in range(64) if p.bit_count() == w) for w in range(7))
#: The points that hold coordinate c: _HOLD[c]'s in the words whose index holds _WORD_BIT[c].
_HOLD = ~np.array(_CLEAR + (0,) * 18, dtype=np.uint64)
_WORD_BIT = np.array([0] * 6 + [1 << i for i in range(18)], dtype=np.uint64)
_REVERSED = np.array([int(f"{b:08b}"[::-1], 2) for b in range(256)], dtype=np.uint8)
_SLICE_WORDS = 1 << 18  # words of the coordinate slices that one uc transform runs on


@lru_cache(maxsize=32)
def _band_words(n: int, band: Band) -> np.ndarray:
    """The band's points in each word at n >= 7: _LEVEL shifted by the popcount of its index."""
    masks = [sum(_LEVEL[max(band.lo - s, 0):max(band.hi + 1 - s, 0)]) for s in range(n - 5)]
    out = np.array(masks, dtype=np.uint64)[np.bitwise_count(np.arange(1 << (n - 6)))]
    out.flags.writeable = False
    return out


def _word_witness(bits, n: int, band: Band, uc: bool):
    """The bits of :func:`witness_table` at n <= 6, of an int table or a uint64 array of tables."""
    ones = bits & sum(_LEVEL[band.lo:band.hi + 1])
    if not uc:
        below = _or_below(ones, n)
        for i in range(n):  # swap the halves of each coordinate: every point's complement
            below = (below & _CLEAR[i]) << (1 << i) | (below >> (1 << i)) & _CLEAR[i]
        return below & bits
    hit = ~bits & ((1 << (1 << n)) - 2)  # the 0-inputs but x = 0
    for c in range(n):
        hit &= _or_below(ones & (_CLEAR[c] << (1 << c)), n) | _CLEAR[c]
    return hit


def _or_below(w, n: int):
    """Each point's bit of w ORed, in place, with those of every point below it.

    w is one table's bits as an int, or uint64 words on the last axis (2^(n-6)
    of them, or one per table at n <= 6).  Step i < 6 shifts inside each word;
    step i >= 6 ORs the lower half of each block of 2^(i-5) words into the upper.
    """
    for i in range(n):
        if i < 6:
            w |= (w & _CLEAR[i]) << (1 << i)
        else:
            v = w.reshape(-1, 2, 1 << (i - 6))
            v[:, 1] |= v[:, 0]
    return w


def _witness_run(f, xs, roots, band, uc):
    """(i, certificate) of the first witness among checks evaluated in one run of blocks.

    The first block also carries the points xs themselves.  A pair is the
    first 1-input below a complement whose x is a 1-input; a tuple needs
    the union of all 1-inputs below x, so its members are kept until the
    run ends, for the checks whose x is a 0-input.
    """
    m = len(xs)
    union = np.zeros(m, dtype=np.uint64)
    kept = []
    fx = None
    for owner, ys in down_band_blocks(roots, band, max(1, BLOCK - m)):
        if fx is None:
            answers = _answers(f, np.concatenate((xs, ys)))
            fx, fy = answers[:m], answers[m:]
        else:
            fy = _answers(f, ys)
        keep = fy > fx[owner] if uc else np.logical_and(fy, fx[owner])
        if not uc:
            if keep.any():
                j = int(keep.argmax())
                i = int(owner[j])
                return i, IViolatingPair(int(ys[j]), int(xs[i]))
            continue
        members = owner[keep], ys[keep]
        np.bitwise_or.at(union, *members)
        kept.append(members)
    if not uc:
        return None
    # x = 0 is only below itself, so as a 0-input it has no members
    bad = np.flatnonzero((fx == 0) & (union == xs) & (xs != 0))
    if not bad.size:
        return None
    i = int(bad[0])
    members = tuple(y for owner, ys in kept for y in ys[owner == i].tolist())
    return i, UcViolatingTuple(members, int(xs[i]))


def witness_check_uc(
    f, x: int, band: Band, cap: int = DEFAULT_ENUMERATION_CAP
) -> UcViolatingTuple | None:
    """Tuple with end x and all members in x's banded downset, if one exists.

    Equivalent to searching all member subsets: the full satisfying banded
    downset is itself a candidate tuple, so it suffices to test whether its
    union reaches x while f(x) = 0.  The one-point case of witness_scan.
    """
    return witness_scan(f, np.array([x], dtype=np.uint64), band, True, cap)[1]


def witness_check_int(
    f, x: int, band: Band, cap: int = DEFAULT_ENUMERATION_CAP
) -> IViolatingPair | None:
    """Pair (y, x) with y in the banded downset of the complement of x.

    y is the first 1-input in that downset's enumeration order.  The
    one-point case of witness_scan.
    """
    return witness_scan(f, np.array([x], dtype=np.uint64), band, False, cap)[1]


def _minimal_tuple(points, end: int) -> tuple[int, ...] | None:
    """The points below end, minimalized, if they are nonempty and their union is end.

    Minimalized: ascending, with each point dropped in turn while the others
    still cover end, so no member of the result can be dropped.
    """
    keep = sorted(p for p in points if p & end == p)
    union = 0
    for m in keep:
        union |= m
    if not keep or union != end:
        return None
    i = 0
    while i < len(keep):
        union = 0
        for j, m in enumerate(keep):
            if j != i:
                union |= m
        if union == end:
            keep.pop(i)
        else:
            i += 1
    return tuple(keep)


def is_minimal_tuple(t: UcViolatingTuple) -> bool:
    """The members cover the end, and each adds a coordinate the others do not cover."""
    kept = _minimal_tuple(t.members, t.end)
    return kept is not None and len(kept) == len(t.members)


# -- the disjointness graph on 1-inputs -----------------------------------------

#: Memoised states the disjointness-graph search may store before refusing.
_STATE_CAP = 2_000_000


def _disjointness_graph(
    f: TruthTable, max_vertices: int, cap_name: str
) -> tuple[bool, list[int], list[int]]:
    """(zero, ones, adj): the graph whose edges join disjoint 1-inputs of f.

    0^n is disjoint from every point, itself included, so a search handles
    its self-loop apart: ``zero`` says whether 0^n is a 1-input, and the
    vertices ``ones`` are the other 1-inputs, ascending.  ``adj[i]`` is the
    bitmask of the vertex indices disjoint from ones[i].  More than
    ``max_vertices`` vertices raise ResourceCapError.
    """
    ones = f.ones()
    zero = bool(ones) and ones[0] == 0
    if zero:
        ones = ones[1:]
    if len(ones) > max_vertices:
        raise ResourceCapError(
            f"{len(ones)} one-inputs exceeds the {cap_name} cap {max_vertices}",
            len(ones), max_vertices)
    adj = [0] * len(ones)
    for i, u in enumerate(ones):
        for j in range(i + 1, len(ones)):
            if u & ones[j] == 0:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return zero, ones, adj


def _best(avail: int, adj: list[int], memo: dict[int, int], takes) -> int:
    """The most takes that fit together in avail, a bitmask of vertex indices.

    ``takes(v, nb)`` lists the vertex masks that may be taken with the vertex
    bit v, where nb is v's neighbours in avail; two takes fit together when
    they share no vertex.  A vertex with at most one neighbour goes with that
    neighbour, and scores 1 if takes offers anything; otherwise the search
    branches on the lowest vertex: skip it, or take one of its takes.
    """
    if not avail:
        return 0
    got = memo.get(avail)
    if got is not None:
        return got
    if len(memo) > _STATE_CAP:
        raise ResourceCapError("disjointness-graph search exceeded the state cap",
                               cap=_STATE_CAP)
    m = avail
    while m:
        low = m & -m
        nb = adj[low.bit_length() - 1] & avail
        if nb & (nb - 1) == 0:  # at most one neighbour
            got = (1 if takes(low, nb) else 0) + _best(avail & ~(low | nb), adj, memo, takes)
            break
        m ^= low
    else:
        v = avail & -avail
        got = _best(avail ^ v, adj, memo, takes)
        for t in takes(v, adj[v.bit_length() - 1] & avail):
            alt = 1 + _best(avail & ~t, adj, memo, takes)
            if alt > got:
                got = alt
    memo[avail] = got
    return got


def _replay(avail: int, adj: list[int], takes) -> list[int]:
    """The takes of one optimum of :func:`_best`, in the order of their lowest vertex.

    From the lowest vertex up: skip it when that keeps the optimum, and
    otherwise use its first take that keeps it.
    """
    memo: dict[int, int] = {}
    out = []
    while avail:
        v = avail & -avail
        nb = adj[v.bit_length() - 1] & avail
        if nb:  # else v's takes block only v, so it is skipped only if it has none
            size = _best(avail, adj, memo, takes)
            if _best(avail ^ v, adj, memo, takes) == size:
                avail ^= v
                continue
        for t in takes(v, nb):
            if not nb or 1 + _best(avail & ~t, adj, memo, takes) == size:
                out.append(t)
                avail &= ~t
                break
        else:
            avail ^= v
    return out


def _vertex_and_one_neighbour(v: int, nb: int) -> list[int]:
    out = []
    while nb:
        u = nb & -nb
        out.append(v | u)
        nb ^= u
    return out


def min_disjoint_cover(f: TruthTable, max_vertices: int = 30) -> int:
    """Minimum vertex cover of the disjointness graph on f's 1-inputs, as a point mask.

    Every disjoint pair of 1-inputs has a point in the cover, so f with the
    cover set to 0 is intersecting: the cover is the complement of a largest
    intersecting subfamily, which the shared search finds as the most
    vertices taken each with its neighbours.  0^n, a 1-input disjoint from
    itself, is no vertex, so it is always in the cover.  Exact search,
    memoised, under the same caps as :func:`max_disjoint_i_pairs`.
    """
    _, ones, adj = _disjointness_graph(f, max_vertices, "cover")
    kept = 0
    for t in _replay((1 << len(ones)) - 1, adj, lambda v, nb: (v | nb,)):
        kept |= 1 << ones[(t & -t).bit_length() - 1]
    return f.bits & ~kept


def max_disjoint_i_pairs(
    f: TruthTable, max_vertices: int = 30
) -> tuple[int, list[IViolatingPair]]:
    """Maximum-sized set of disjoint I-violating pairs of f, with a witness.

    This is a maximum matching in the graph on 1-inputs whose edges join
    disjoint pairs, found by the same search as :func:`min_disjoint_cover`
    with each vertex taken together with one neighbour.  0^n, if a 1-input,
    is disjoint from everything including itself: it is taken as the
    self-loop pair (0, 0), which blocks its vertex (pairing it with a
    partner never beats the self-loop plus leaving the partner free).
    Graphs here are sparse because disjoint partners of x live inside the
    complement subcube of x.
    """
    zero, ones, adj = _disjointness_graph(f, max_vertices, "matching")
    pairs = [IViolatingPair(0, 0)] if zero else []
    for t in _replay((1 << len(ones)) - 1, adj, _vertex_and_one_neighbour):
        low = t & -t
        pairs.append(IViolatingPair(ones[low.bit_length() - 1], ones[(t ^ low).bit_length() - 1]))
    return len(pairs), pairs


# -- perfect matchings between complementary levels ----------------------------


def level_matching(a: int, w: int, max_size: int = 200_000) -> list[tuple[int, int]]:
    """Perfect matching of level w onto level a-w of {0,1}^a with p <= q.

    Exists for w < a/2 and is built by the bracket construction of the
    symmetric chain decomposition: read bit i of p as '(' when clear and ')'
    when set, match brackets left to right, and let q be p plus its first
    a - 2w unmatched '(' positions.  Each p's chain meets level a-w exactly
    once, so this is a bijection, found without search in O(C(a, w) * a).
    Pairs are returned sorted by the low point.
    """
    if not 0 <= w < a / 2:
        raise ValueError(f"need 0 <= w < a/2, got w={w}, a={a}")
    n_left = math.comb(a, w)
    if n_left > max_size:
        raise ResourceCapError(f"level has {n_left} points, exceeding cap {max_size}",
                               n_left, max_size)
    from itertools import combinations

    out = []
    for combo in combinations(range(a), w):
        p = 0
        for c in combo:
            p |= 1 << c
        opens = []  # unmatched '(' positions, left to right
        for i in range(a):
            if not (p >> i) & 1:
                opens.append(i)
            elif opens:
                opens.pop()
        q = p
        for i in opens[: a - 2 * w]:
            q |= 1 << i
        out.append((p, q))
    out.sort()
    return out


# -- tuple augmentation and locality ------------------------------------------


def augment_tuple(f, t: UcViolatingTuple) -> tuple[list[int], TripleCertificate]:
    """Prefix-union augmentation of a violating tuple and its violating triple.

    Walking x1, x1|x2, x1|x2|x3, ... from a satisfying start to the 0-valued
    end must cross a step where f flips 1 -> 0; the first such step
    (prefix, next member, new prefix) is a violating triple.
    """
    if not t.holds_for(f):
        raise ValueError("input is not a UC-violating tuple for this function")
    prefixes = [t.members[0]]
    u = t.members[0]
    for m in t.members[1:]:
        u2 = u | m
        prefixes.append(u2)
        if f(u2) == 0:
            return prefixes, TripleCertificate(u, m, u2)
        u = u2
    raise AssertionError("no violating prefix step; tuple was not violating")


def locality(c: TripleCertificate) -> int:
    """Symmetric-difference size of the two lower points of a triple."""
    z = c.z.bit_count()
    return (z - c.y1.bit_count()) + (z - c.y2.bit_count())


def min_violation_locality(f: TruthTable, max_ones: int = 4096) -> int | None:
    """Minimum locality over all violating triples of f; None if union-closed.

    Each 1-input's pairs with the later 1-inputs are looked up together.
    """
    if f.arity > 20:
        raise ResourceCapError("min_violation_locality is capped at n <= 20", f.arity, 20)
    ones = np.array(f.ones(), dtype=np.uint64)
    if len(ones) > max_ones:
        raise ResourceCapError(f"{len(ones)} one-inputs exceeds cap {max_ones}",
                               len(ones), max_ones)
    values = f.as_array()
    weights = popcount_array(ones)
    best: int | None = None
    for i in range(len(ones) - 1):
        z = ones[i] | ones[i + 1:]
        bad = values[z] == 0
        if bad.any():
            loc = int((2 * popcount_array(z[bad]) - weights[i] - weights[i + 1:][bad]).min())
            best = loc if best is None else min(best, loc)
    return best
