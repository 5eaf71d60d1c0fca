"""Exact distance-to-property computation, property checks, and repairs.

Distances are exact rationals with denominator 2^n; no floating point enters
any distance anywhere.

dist to intersecting reduces to minimum vertex cover: removing a 1 never
creates a disjoint 1-pair and adding a 1 never fixes one, so an optimal
intersecting repair is f minus a minimum vertex cover of the disjointness
graph on 1-inputs (0^n, carrying a self-loop, is forced into every cover).
dist to union-closed has no such structure; it is computed by exhaustion over
all union-closed tables, which caps it at n <= 4.

Dense property checks use subset-sum (zeta) counting transforms: with
Z[m] = #{1-inputs inside m}, Moebius inversion of Z^2 counts, for every z,
the ordered 1-input pairs with union exactly z.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .boolfn import Band, ResourceCapError, TruthTable, popcount_array
from .violations import (
    _STATE_CAP,
    UcViolatingTuple,
    _disjointness_graph,
    _strip_isolated,
    max_disjoint_i_pairs,
)

__all__ = [
    "DistanceResult",
    "is_union_closed",
    "is_intersecting",
    "dist_int_exact",
    "dist_int_bounds",
    "dist_uc_exact",
    "repair_uc",
    "end_distinct_tuple_count",
    "disjoint_tuple_count_lb",
    "union_closure_ones",
    "make_tuple_from_end",
]


@dataclass(frozen=True)
class DistanceResult:
    """Exact distance as flips/2^n plus the method tag and optional repair."""

    flips: int
    total: int
    method: str  # "exhaustive" | "vertex-cover" | "matching-bounds"
    certificate: TruthTable | None = None

    @property
    def value(self) -> Fraction:
        return Fraction(self.flips, self.total)

    def to_json_obj(self) -> dict:
        obj: dict = {"value": f"{self.flips}/{self.total}", "method": self.method}
        if self.certificate is not None:
            obj["certificate"] = self.certificate.to_json_obj()
        return obj


# -- subset-sum transforms -----------------------------------------------------


def _zeta(values: np.ndarray, n: int) -> np.ndarray:
    out = values.astype(np.int64).copy()
    for i in range(n):
        step = 1 << i
        v = out.reshape(-1, 2 * step)
        v[:, step:] += v[:, :step]
    return out


def _pair_union_counts_arr(values: np.ndarray, n: int) -> np.ndarray:
    """counts[z] = #ordered pairs (x, y) of 1-inputs with x | y == z."""
    z = _zeta(values, n)
    sq = z * z
    for i in range(n):
        step = 1 << i
        v = sq.reshape(-1, 2 * step)
        v[:, step:] -= v[:, :step]
    return sq


def _pair_union_counts(f: TruthTable) -> np.ndarray:
    return _pair_union_counts_arr(f.as_array(), f.arity)


def _prefer_dense(n: int, k: int) -> bool:
    # numpy transforms win only once per-call overhead stops dominating
    return n >= 12 and k * k > (1 << n) * n


def _check_table_arity(f: TruthTable, cap: int) -> None:
    if f.arity > cap:
        raise ResourceCapError(f"operation capped at n <= {cap}, got n = {f.arity}")


# -- property checks ------------------------------------------------------------


def is_union_closed(f: TruthTable) -> bool:
    """No pair of 1-inputs whose union is a 0-input (pairwise closure suffices)."""
    _check_table_arity(f, 24)
    ones = f.ones()
    if _prefer_dense(f.arity, len(ones)):
        counts = _pair_union_counts(f)
        return not bool(np.any((counts > 0) & (f.as_array() == 0)))
    bits = f.bits
    for i, u in enumerate(ones):
        for v in ones[i:]:
            if not (bits >> (u | v)) & 1:
                return False
    return True


def is_intersecting(f: TruthTable) -> bool:
    """All pairs of 1-inputs intersect; the diagonal rule bans 0^n."""
    _check_table_arity(f, 24)
    ones = f.ones()
    if not ones:
        return True
    if ones[0] == 0:
        return False
    if _prefer_dense(f.arity, len(ones)):
        z = _zeta(f.as_array(), f.arity)
        # 1-input below the complement of a 1-input <=> disjoint pair
        return not bool(np.any((f.as_array() == 1) & (z[::-1] > 0)))
    for i, u in enumerate(ones):
        for v in ones[i:]:
            if u & v == 0:
                return False
    return True


# -- minimum vertex cover (exact, tiny graphs) ----------------------------------


def _vc_size(avail: int, adj: list[int], memo: dict[int, int]) -> int:
    avail = _strip_isolated(avail, adj)
    if avail == 0:
        return 0
    got = memo.get(avail)
    if got is not None:
        return got
    if len(memo) > _STATE_CAP:
        raise ResourceCapError("vertex-cover search exceeded the state cap")
    # degree-1 reduction: covering the neighbor dominates covering the pendant
    m = avail
    while m:
        low = m & -m
        nb = adj[low.bit_length() - 1] & avail
        if nb and nb & (nb - 1) == 0:
            res = 1 + _vc_size(avail & ~(low | nb), adj, memo)
            memo[avail] = res
            return res
        m ^= low
    # branch on a maximum-degree vertex: either it is in the cover, or its
    # whole neighborhood is
    best_v, best_deg = -1, -1
    m = avail
    while m:
        low = m & -m
        v = low.bit_length() - 1
        deg = (adj[v] & avail).bit_count()
        if deg > best_deg:
            best_v, best_deg = v, deg
        m ^= low
    nb = adj[best_v] & avail
    take_v = 1 + _vc_size(avail & ~(1 << best_v), adj, memo)
    take_nb = nb.bit_count() + _vc_size(avail & ~(nb | (1 << best_v)), adj, memo)
    res = min(take_v, take_nb)
    memo[avail] = res
    return res


def _vc_witness(avail: int, adj: list[int], memo: dict[int, int]) -> list[int]:
    cover = []
    while True:
        avail = _strip_isolated(avail, adj)
        if avail == 0:
            return cover
        size = _vc_size(avail, adj, memo)
        # find any vertex whose inclusion is consistent with the optimum
        m = avail
        while m:
            low = m & -m
            v = low.bit_length() - 1
            if adj[v] & avail and 1 + _vc_size(avail & ~low, adj, memo) == size:
                cover.append(v)
                avail &= ~low
                break
            m ^= low
        else:  # pragma: no cover - unreachable if sizes are consistent
            raise AssertionError("vertex-cover reconstruction failed")


def dist_int_bounds(f: TruthTable, max_ones: int = 30) -> tuple[DistanceResult, DistanceResult]:
    """Certified bracket [|M|, 2|M|]/2^n from a maximum disjoint-pair set.

    The fallback when the exact cover is out of reach: any intersecting
    repair must touch every pair of M, and zeroing both endpoints of each
    pair is a valid repair.
    """
    m, _ = max_disjoint_i_pairs(f, max_ones)
    total = 1 << f.arity
    lower = DistanceResult(m, total, "matching-bounds")
    upper = DistanceResult(min(2 * m, total), total, "matching-bounds")
    return lower, upper


def dist_int_exact(f: TruthTable, max_ones: int = 30) -> DistanceResult:
    """Exact distance to intersectingness via minimum vertex cover.

    The certificate is f with the cover flipped to 0 (only 1 -> 0 flips),
    verified intersecting before returning.
    """
    _check_table_arity(f, 16)
    zero, ones, adj = _disjointness_graph(f, max_ones, "cover")
    memo: dict[int, int] = {}
    cover_idx = _vc_witness((1 << len(ones)) - 1, adj, memo)
    cover = ([0] if zero else []) + [ones[i] for i in cover_idx]  # 0^n: self-loop
    bits = f.bits
    for p in cover:
        bits &= ~(1 << p)
    cert = TruthTable(f.arity, bits)
    assert is_intersecting(cert)
    return DistanceResult(len(cover), 1 << f.arity, "vertex-cover", cert)


# -- exhaustive union-closed distance (n <= 4) ----------------------------------


@lru_cache(maxsize=None)
def _all_union_closed_masks(n: int) -> np.ndarray:
    """All union-closed tables at arity n, ascending, as function bitmasks."""
    size = 1 << n
    out = []
    for mask in range(1 << size):
        ok = True
        m = mask
        ones = []
        while m:
            low = m & -m
            ones.append(low.bit_length() - 1)
            m ^= low
        for i, u in enumerate(ones):
            for v in ones[i:]:
                if not (mask >> (u | v)) & 1:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(mask)
    return np.array(out, dtype=np.uint32)


def dist_uc_exact(f: TruthTable) -> DistanceResult:
    """Exact distance to union-closedness by exhaustion over all tables.

    Capped at n <= 4 (2^16 candidate tables); the certificate is the lowest
    optimal union-closed table in ascending mask order.
    """
    if f.arity > 4:
        raise ResourceCapError("dist_uc_exact is exhaustive and capped at n <= 4")
    candidates = _all_union_closed_masks(f.arity)
    dists = popcount_array(np.bitwise_xor(candidates, np.uint32(f.bits)).astype(np.uint16))
    best = int(np.argmin(dists))
    cert = TruthTable(f.arity, int(candidates[best]))
    return DistanceResult(int(dists[best]), 1 << f.arity, "exhaustive", cert)


# -- union closure, repair, and tuple counts -------------------------------------


def union_closure_ones(f: TruthTable) -> set[int]:
    """All unions of nonempty subsets of f's 1-inputs."""
    _check_table_arity(f, 20)
    ones = f.ones()
    if _prefer_dense(f.arity, len(ones)):
        arr = f.as_array().astype(np.int64)
        while True:
            counts = _pair_union_counts_arr(arr, f.arity)
            grown = ((counts > 0) | (arr > 0)).astype(np.int64)
            if np.array_equal(grown, arr):
                break
            arr = grown
        return {int(p) for p in np.nonzero(arr)[0]}
    closed = set(ones)
    queue = list(ones)
    while queue:
        a = queue.pop()
        new = []
        for b in closed:
            u = a | b
            if u not in closed:
                new.append(u)
        for u in new:
            closed.add(u)
            queue.append(u)
    return closed


def repair_uc(f: TruthTable) -> tuple[TruthTable, frozenset[int]]:
    """Union-closed repair that only flips tuple-end points 0 -> 1.

    g is the indicator of the union closure of f's 1-inputs: g agrees with f
    off the end set B (points that end some violating tuple) and flips exactly
    B, so |B| >= 2^n * dist to union-closedness.
    """
    closure = union_closure_ones(f)
    bits = f.bits
    flipped = []
    g_bits = bits
    for p in closure:
        if not (bits >> p) & 1:
            flipped.append(p)
            g_bits |= 1 << p
    g = TruthTable(f.arity, g_bits)
    assert is_union_closed(g)
    return g, frozenset(flipped)


def end_distinct_tuple_count(f: TruthTable, band: Band | None = None) -> int:
    """Number of distinct points ending some violating tuple.

    With a band, tuple members are restricted to band weights (the end point
    itself is unrestricted).
    """
    if band is None:
        base = f
    else:
        bits = 0
        for p in f.ones():
            if p.bit_count() in band:
                bits |= 1 << p
        base = TruthTable(f.arity, bits)
    if base.bits == 0:
        return 0
    closure = union_closure_ones(base)
    f_bits = f.bits
    return sum(1 for p in closure if not (f_bits >> p) & 1)


def _minimalize(members: list[int], end: int) -> tuple[int, ...]:
    keep = sorted(members)
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


def disjoint_tuple_count_lb(f: TruthTable) -> int:
    """Size of a maximal family of point-disjoint minimal violating tuples.

    Greedy extraction in one ascending pass over candidate end points: the
    available-point set only shrinks, so an end that fails once can never
    become extractable later, and the resulting family is maximal against all
    violating tuples (members get minimalized before points are consumed).
    The count m certifies m disjoint tuples, hence dist >= m/2^n.
    """
    _check_table_arity(f, 16)
    ones = f.ones()
    candidates = sorted(union_closure_ones(f) - set(ones)) if ones else []
    available = set(ones)
    available_ends = set(candidates)
    count = 0
    for z in candidates:
        if z not in available_ends:
            continue
        members = sorted(u for u in available if u & z == u)
        union = 0
        for m in members:
            union |= m
        if union != z:
            continue
        tup = _minimalize(members, z)
        count += 1
        for m in tup:
            available.discard(m)
        available_ends.discard(z)
    return count


def make_tuple_from_end(f: TruthTable, z: int) -> UcViolatingTuple | None:
    """Minimal violating tuple ending at z, if z ends one (test/CLI helper)."""
    if f(z) == 1:
        return None
    members = [u for u in f.ones() if u & z == u]
    union = 0
    for m in members:
        union |= m
    if not members or union != z:
        return None
    return UcViolatingTuple(_minimalize(members, z), z)
