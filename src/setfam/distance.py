"""Exact distance-to-property computation, property checks, and repairs.

Distances are exact rationals with denominator 2^n; no floating point enters
any distance anywhere.

dist to intersecting reduces to minimum vertex cover: removing a 1 never
creates a disjoint 1-pair and adding a 1 never fixes one, so an optimal
intersecting repair is f minus a minimum vertex cover of the disjointness
graph on 1-inputs (0^n, carrying a self-loop, is forced into every cover).
The cover is the complement of a largest intersecting subfamily, an
independent set of that graph; one memoised search in ``violations`` finds
it and also the maximum matching of ``max_disjoint_i_pairs``.
dist to union-closed has no such structure; it is computed by exhaustion over
all union-closed tables, which caps it at n <= 4.

Every closure question is answered by one subset-OR transform over the
whole cube (``violations.witness_table`` with the band [0, n]): U[z], the
union of the 1-inputs inside z, is z exactly when z is a union of 1-inputs,
so a 0-input with U[z] = z breaks union-closedness; a 1-input inside the
complement of a 1-input breaks intersectingness.  The transform's table
marks those 0-inputs, the points that end a violating tuple: the union
closure is f plus them, so ``repair_uc`` flips exactly them,
``end_distinct_tuple_count`` is their count (with members restricted to a
band, the transform's band), ``disjoint_tuple_count_lb`` takes its candidate
ends from them in ascending order, and the exhaustive union-closed distance
keeps the n <= 4 tables that have none.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .boolfn import Band, ResourceCapError, TruthTable, popcount_array
from .violations import (
    UcViolatingTuple,
    _minimal_tuple,
    _word_witness,
    max_disjoint_i_pairs,
    min_disjoint_cover,
    witness_table,
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
    "union_closure",
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


# -- property checks ------------------------------------------------------------


def _prefer_dense(n: int, k: int) -> bool:
    # numpy transforms win only once per-call overhead stops dominating
    return n >= 12 and k * k > (1 << n) * n


def _check_table_arity(f: TruthTable, cap: int) -> None:
    if f.arity > cap:
        raise ResourceCapError(f"operation capped at n <= {cap}, got n = {f.arity}", f.arity, cap)


def is_union_closed(f: TruthTable) -> bool:
    """No pair of 1-inputs whose union is a 0-input (pairwise closure suffices)."""
    if _prefer_dense(f.arity, f.count_ones()):
        # a 0-input that is the union of the 1-inputs below it
        return not witness_table(f, Band(0, f.arity), True).bits
    ones = f.ones()
    bits = f.bits
    for i, u in enumerate(ones):
        for v in ones[i:]:
            if not (bits >> (u | v)) & 1:
                return False
    return True


def is_intersecting(f: TruthTable) -> bool:
    """All pairs of 1-inputs intersect; the diagonal rule bans 0^n."""
    if not f.bits:
        return True
    if f(0):
        return False
    if _prefer_dense(f.arity, f.count_ones()):
        # 1-input below the complement of a 1-input <=> disjoint pair
        return not witness_table(f, Band(0, f.arity), False).bits
    ones = f.ones()
    for i, u in enumerate(ones):
        for v in ones[i:]:
            if u & v == 0:
                return False
    return True


def dist_int_bounds(f: TruthTable, max_ones: int = 30) -> tuple[DistanceResult, DistanceResult]:
    """Certified bracket [|M|, 2|M|]/2^n from a maximum disjoint-pair set.

    It certifies that the distance lies between |M|/2^n and 2|M|/2^n: any
    intersecting repair must touch every pair of M, and zeroing both
    endpoints of each pair is a valid repair.  It is no cheaper substitute
    for :func:`dist_int_exact`: the matching branches once per neighbour,
    so on dense disjointness graphs it runs far longer than the exact cover
    (or stops at the state cap) where the cover takes milliseconds.
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
    cover = min_disjoint_cover(f, max_ones)
    cert = TruthTable(f.arity, f.bits & ~cover)
    assert is_intersecting(cert)
    return DistanceResult(cover.bit_count(), 1 << f.arity, "vertex-cover", cert)


# -- exhaustive union-closed distance (n <= 4) ----------------------------------


@lru_cache(maxsize=None)
def _all_union_closed_masks(n: int) -> np.ndarray:
    """All union-closed tables at arity n, ascending, as bitmasks: those with no tuple end."""
    masks = np.arange(1 << (1 << n), dtype=np.uint64)
    return masks[_word_witness(masks, n, Band(0, n), True) == 0]


def dist_uc_exact(f: TruthTable) -> DistanceResult:
    """Exact distance to union-closedness by exhaustion over all tables.

    Capped at n <= 4 (2^16 candidate tables); the certificate is the lowest
    optimal union-closed table in ascending mask order.
    """
    if f.arity > 4:
        raise ResourceCapError("dist_uc_exact is exhaustive and capped at n <= 4", f.arity, 4)
    candidates = _all_union_closed_masks(f.arity)
    dists = popcount_array(np.bitwise_xor(candidates, np.uint64(f.bits)).astype(np.uint16))
    best = int(np.argmin(dists))
    cert = TruthTable(f.arity, int(candidates[best]))
    return DistanceResult(int(dists[best]), 1 << f.arity, "exhaustive", cert)


# -- union closure, repair, and tuple counts -------------------------------------


def union_closure(f: TruthTable) -> TruthTable:
    """The table of all unions of nonempty subsets of f's 1-inputs."""
    return TruthTable(f.arity, f.bits | witness_table(f, Band(0, f.arity), True).bits)


def repair_uc(f: TruthTable) -> tuple[TruthTable, frozenset[int]]:
    """Union-closed repair that only flips tuple-end points 0 -> 1.

    g is the indicator of the union closure of f's 1-inputs: g agrees with f
    off the end set B (points that end some violating tuple) and flips exactly
    B, so |B| >= 2^n * dist to union-closedness.  Capped at n <= 20 by the
    returned set of flipped points.
    """
    _check_table_arity(f, 20)
    g = union_closure(f)
    return g, frozenset(TruthTable(f.arity, g.bits & ~f.bits).ones())


def end_distinct_tuple_count(f: TruthTable, band: Band | None = None) -> int:
    """Number of distinct points ending some violating tuple.

    With a band, tuple members are restricted to band weights (the end point
    itself is unrestricted).
    """
    return witness_table(f, band or Band(0, f.arity), True).count_ones()


def disjoint_tuple_count_lb(f: TruthTable) -> int:
    """Size of a maximal family of point-disjoint minimal violating tuples.

    Greedy extraction in one ascending pass over the end points: the
    available-point set only shrinks, so an end that fails once can never
    become extractable later, and the resulting family is maximal against all
    violating tuples (members get minimalized before points are consumed).
    The count m certifies m disjoint tuples, hence dist >= m/2^n.
    """
    _check_table_arity(f, 16)
    available = set(f.ones())
    count = 0
    for z in witness_table(f, Band(0, f.arity), True).ones():
        members = _minimal_tuple(available, z)
        if members is not None:
            count += 1
            available.difference_update(members)
    return count


def make_tuple_from_end(f: TruthTable, z: int) -> UcViolatingTuple | None:
    """Minimal violating tuple ending at z, if z ends one (test/CLI helper)."""
    if f(z) == 1:
        return None
    members = _minimal_tuple(f.ones(), z)
    return None if members is None else UcViolatingTuple(members, z)
