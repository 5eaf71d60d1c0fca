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
    table: np.ndarray | None = None,
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
    band and rule, the first witness is looked up there and only its own
    check is evaluated.  A check whose downset exceeds ``cap`` raises
    EnumerationCapError, once every check before it has found nothing.
    """
    xs = np.asarray(xs, dtype=np.uint64)
    roots = xs if uc else xs ^ np.uint64((1 << f.arity) - 1)
    counts = down_band_counts(roots, band)
    over = np.flatnonzero(counts > cap)
    stop = int(over[0]) if over.size else len(xs)
    if table is None:
        runs = _runs((counts[:stop] + np.uint64(1)).tolist(), BLOCK)
    else:  # the first witness's check alone
        hits = np.flatnonzero(table[xs[:stop]])
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


def witness_table(f: TruthTable, band: Band, uc: bool) -> np.ndarray:
    """Bool array over every point x: does x's banded witness check find a witness?

    uc: f(x) = 0, x != 0 and the union of the 1-inputs below x with weight
    in the band is x; otherwise f(x) = 1 and such a 1-input lies below the
    complement of x.  One in-place subset-OR transform over the band's
    1-inputs answers every x at once: O(n 2^n) time, and at most two
    uint32 arrays of 2^n points live.
    """
    n = f.arity
    # unpacked here, not through as_array(), which would keep the copy on f
    values = np.unpackbits(f._packed(), count=1 << n, bitorder="little")
    ones = values != 0
    if band.lo > 0 or band.hi < n:
        weights = np.bitwise_count(np.arange(1 << n, dtype=np.uint32))
        ones &= (weights >= band.lo) & (weights <= band.hi)
    if not uc:
        return _or_below(ones, n)[::-1] & (values != 0)
    points = np.arange(1 << n, dtype=np.uint32)
    hit = _or_below(points * ones, n) == points
    hit &= values == 0
    hit[0] = False  # x = 0 is only below itself, so as a 0-input it has no members
    return hit


def _or_below(values: np.ndarray, n: int) -> np.ndarray:
    """values, with values[z] replaced in place by the OR of values[y] over every y <= z."""
    for i in range(n):
        step = 1 << i
        v = values.reshape(-1, 2 * step)
        v[:, step:] |= v[:, :step]
    return values


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


def is_minimal_tuple(t: UcViolatingTuple) -> bool:
    """Every member contributes a coordinate the others do not cover."""
    k = len(t.members)
    if k == 0:
        return False
    for j in range(k):
        union = 0
        for i, m in enumerate(t.members):
            if i != j:
                union |= m
        if union == t.end:
            return False
    return True


# -- the disjointness graph on 1-inputs -----------------------------------------

#: Memoised states a vertex-cover or matching search may store before refusing.
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
            f"{len(ones)} one-inputs exceeds the {cap_name} cap {max_vertices}"
        )
    adj = [0] * len(ones)
    for i, u in enumerate(ones):
        for j in range(i + 1, len(ones)):
            if u & ones[j] == 0:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return zero, ones, adj


def _strip_isolated(avail: int, adj: list[int]) -> int:
    """avail without its vertices that have no neighbour in avail."""
    out = avail
    m = avail
    while m:
        low = m & -m
        if not adj[low.bit_length() - 1] & avail:
            out ^= low
        m ^= low
    return out


# -- exact maximum matching on the disjointness graph -------------------------


def _matching_size(avail: int, adj: list[int], memo: dict[int, int]) -> int:
    avail = _strip_isolated(avail, adj)
    if avail == 0:
        return 0
    got = memo.get(avail)
    if got is not None:
        return got
    if len(memo) > _STATE_CAP:
        raise ResourceCapError("matching search exceeded the state cap")
    # pendant reduction: a degree-1 vertex can always be matched to its
    # unique neighbor in some maximum matching
    m = avail
    while m:
        low = m & -m
        v = low.bit_length() - 1
        nb = adj[v] & avail
        if nb and nb & (nb - 1) == 0:
            res = 1 + _matching_size(avail & ~(low | nb), adj, memo)
            memo[avail] = res
            return res
        m ^= low
    v = (avail & -avail).bit_length() - 1
    best = _matching_size(avail & ~(1 << v), adj, memo)  # v stays unmatched
    nb = adj[v] & avail
    while nb:
        lowu = nb & -nb
        u = lowu.bit_length() - 1
        best = max(best, 1 + _matching_size(avail & ~((1 << v) | lowu), adj, memo))
        nb ^= lowu
    memo[avail] = best
    return best


def _matching_witness(avail: int, adj: list[int], memo: dict[int, int]) -> list[tuple[int, int]]:
    pairs = []
    while True:
        avail = _strip_isolated(avail, adj)
        if avail == 0:
            return pairs
        size = _matching_size(avail, adj, memo)
        v = (avail & -avail).bit_length() - 1
        if _matching_size(avail & ~(1 << v), adj, memo) == size:
            avail &= ~(1 << v)
            continue
        nb = adj[v] & avail
        while nb:
            lowu = nb & -nb
            u = lowu.bit_length() - 1
            rest = avail & ~((1 << v) | lowu)
            if 1 + _matching_size(rest, adj, memo) == size:
                pairs.append((v, u))
                avail = rest
                break
            nb ^= lowu
        else:  # pragma: no cover - unreachable if sizes are consistent
            raise AssertionError("matching reconstruction failed")


def max_disjoint_i_pairs(
    f: TruthTable, max_vertices: int = 30
) -> tuple[int, list[IViolatingPair]]:
    """Maximum-sized set of disjoint I-violating pairs of f, with a witness.

    This is a maximum matching in the graph on 1-inputs whose edges join
    disjoint pairs.  0^n, if a 1-input, is disjoint from everything including
    itself: it is taken as the self-loop pair (0, 0), which blocks its vertex
    (pairing it with a partner never beats the self-loop plus leaving the
    partner free).  Exact search, branch on the lowest eligible vertex with
    memoization; graphs here are sparse because disjoint partners of x live
    inside the complement subcube of x.
    """
    zero, ones, adj = _disjointness_graph(f, max_vertices, "matching")
    pairs = [IViolatingPair(0, 0)] if zero else []
    memo: dict[int, int] = {}
    full = (1 << len(ones)) - 1
    for i, j in _matching_witness(full, adj, memo):
        pairs.append(IViolatingPair(ones[i], ones[j]))
    return len(pairs), pairs


# -- perfect matchings between complementary levels ----------------------------


def level_matching(a: int, w: int, max_size: int = 200_000) -> list[tuple[int, int]]:
    """Perfect matching of level w onto level a-w of {0,1}^a with p <= q.

    Existence is guaranteed for w < a/2 (the containment graph between the
    levels is biregular); the matching is found by augmenting paths, not by a
    combinatorial formula.  Pairs are returned sorted by the low point.
    """
    if not 0 <= w < a / 2:
        raise ValueError(f"need 0 <= w < a/2, got w={w}, a={a}")
    n_left = math.comb(a, w)
    if n_left > max_size:
        raise ResourceCapError(f"level has {n_left} points, exceeding cap {max_size}")
    from itertools import combinations

    left = []
    for combo in combinations(range(a), w):
        p = 0
        for c in combo:
            p |= 1 << c
        left.append(p)
    left.sort()
    full = (1 << a) - 1
    add = a - 2 * w  # bits to add to reach the upper level

    def neighbors(p: int) -> list[int]:
        free = [c for c in range(a) if not (p >> c) & 1]
        out = []
        for combo in combinations(free, add):
            q = p
            for c in combo:
                q |= 1 << c
            out.append(q)
        return out

    match_right: dict[int, int] = {}

    def try_augment(i: int, seen: set[int]) -> bool:
        for q in neighbors(left[i]):
            if q in seen:
                continue
            seen.add(q)
            if q not in match_right or try_augment(match_right[q], seen):
                match_right[q] = i
                return True
        return False

    for i in range(len(left)):
        if not try_augment(i, set()):  # pragma: no cover - Hall guarantees success
            raise AssertionError(f"no perfect matching found at (a={a}, w={w})")
    out = [(left[i], q) for q, i in match_right.items()]
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
    """Minimum locality over all violating triples of f; None if union-closed."""
    if f.arity > 20:
        raise ResourceCapError("min_violation_locality is capped at n <= 20")
    ones = f.ones()
    if len(ones) > max_ones:
        raise ResourceCapError(f"{len(ones)} one-inputs exceeds cap {max_ones}")
    best: int | None = None
    bits = f.bits
    for i, u in enumerate(ones):
        wu = u.bit_count()
        for v in ones[i + 1:]:
            z = u | v
            if (bits >> z) & 1:
                continue
            loc = 2 * z.bit_count() - wu - v.bit_count()
            if best is None or loc < best:
                best = loc
    return best
