"""Exact distances, property checks, repairs, and tuple counts."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setfam.boolfn import Band, TruthTable, dictator, parse_bits
from setfam.distance import (
    disjoint_tuple_count_lb,
    dist_int_bounds,
    dist_int_exact,
    dist_uc_exact,
    end_distinct_tuple_count,
    is_intersecting,
    is_union_closed,
    make_tuple_from_end,
    repair_uc,
    union_closure,
)

bits = parse_bits


def brute_is_intersecting(f: TruthTable) -> bool:
    ones = f.ones()
    return all(u & v for u in ones for v in ones)


def brute_is_union_closed(f: TruthTable) -> bool:
    ones = f.ones()
    return all(f(u | v) == 1 for u in ones for v in ones)


def brute_dist_int(f: TruthTable) -> Fraction:
    n = f.arity
    best = None
    for g_bits in range(1 << (1 << n)):
        g = TruthTable(n, g_bits)
        if brute_is_intersecting(g):
            d = (f.bits ^ g_bits).bit_count()
            if best is None or d < best:
                best = d
    return Fraction(best, 1 << n)


def brute_dist_uc(f: TruthTable) -> Fraction:
    n = f.arity
    best = None
    for g_bits in range(1 << (1 << n)):
        g = TruthTable(n, g_bits)
        if brute_is_union_closed(g):
            d = (f.bits ^ g_bits).bit_count()
            if best is None or d < best:
                best = d
    return Fraction(best, 1 << n)


class TestPropertyChecks:
    def test_monotone_is_union_closed(self):
        f = TruthTable.from_ones(4, [x for x in range(16) if x.bit_count() >= 2])
        assert is_union_closed(f)

    def test_pair_violation_detected(self):
        assert not is_union_closed(TruthTable.from_ones(2, [1, 2]))

    def test_const0_vacuous(self):
        assert is_union_closed(TruthTable(3, 0))
        assert is_intersecting(TruthTable(3, 0))

    def test_dictator_intersecting(self):
        assert is_intersecting(TruthTable.from_callable(dictator(4, 1)))

    def test_const1_not_intersecting(self):
        assert not is_intersecting(TruthTable(3, 0xFF))

    def test_empty_set_breaks_intersecting(self):
        assert not is_intersecting(TruthTable.from_ones(3, [0]))

    @given(st.integers(0, 2**16 - 1))
    @settings(max_examples=400)
    def test_checks_match_brute_force(self, tbl):
        f = TruthTable(4, tbl)
        assert is_union_closed(f) == brute_is_union_closed(f)
        assert is_intersecting(f) == brute_is_intersecting(f)

    def test_dense_path_agrees_with_pairwise(self):
        # tables dense enough to take the vectorized code path at n = 12
        from setfam.rng import stream

        rng = stream(99)
        for _ in range(10):
            ones = [int(v) for v in rng.integers(0, 4096, size=1500)]
            f = TruthTable.from_ones(12, ones)
            assert is_union_closed(f) == brute_is_union_closed(f)
            assert is_intersecting(f) == brute_is_intersecting(f)

    def test_dense_path_agrees_on_tables_with_the_property(self):
        # random 1,500-one tables have neither property; these have it, or
        # miss it by a single point, and still take the dense path at n = 12
        from setfam.distance import _prefer_dense
        from setfam.rng import stream

        rng = stream(98)
        tables = []
        for k in range(4):
            closed: set[int] = set()
            while not _prefer_dense(12, len(closed)):
                pairs = rng.integers(0, 12, size=(13, 2)).tolist()
                closed = _union_closure([1 << a | 1 << b for a, b in pairs])
            tables.append((closed, True, None))
            end = max(closed)  # the union of every set, made a 0-input
            tables.append((closed - {end}, False, None))
            star = [x for x in range(4096) if x >> k & 1 and rng.random() < 0.2]
            tables.append((star, None, True))
            tables.append((star + [star[0] ^ 4095], None, False))
        upper = [x for x in range(4096) if x.bit_count() >= 7 and rng.random() < 0.3]
        tables.append((upper, None, True))
        checked = {True: 0, False: 0}
        for ones, uc, inter in tables:
            f = TruthTable.from_ones(12, ones)
            assert _prefer_dense(12, len(ones))
            if uc is not None:
                assert is_union_closed(f) is uc == brute_is_union_closed(f)
                checked[uc] += 1
            if inter is not None:
                assert is_intersecting(f) is inter == brute_is_intersecting(f)
                checked[inter] += 1
        assert min(checked.values()) >= 8

    def test_dense_closure_matches_the_sparse_closure(self):
        # the closure of the word transform at n = 12 against the set closure
        import numpy as np

        from setfam.rng import stream

        rng = stream(97)
        for k, density in enumerate((0.5, 0.7, 0.95, 0.5)):
            # 1-inputs inside a 9-coordinate subcube keep the set closure small
            coords = np.sort(rng.permutation(12)[:9])
            low = np.flatnonzero(rng.random(512) < density)
            ones = (((low[:, None] >> np.arange(9)) & 1) << coords).sum(axis=1).tolist()
            ones = [x for x in ones if x] + [0] * (k % 2)
            if k == 3:
                ones = sorted(_union_closure(ones))
            f = TruthTable.from_ones(12, ones)
            dense = union_closure(f)
            assert set(dense.ones()) == _union_closure(ones)
            assert dense(0) == (k % 2 == 1)
            assert dense.count_ones() > len(ones) or k == 3


def _union_closure(sets) -> set[int]:
    """Every union of a nonempty subset of sets: grow by one member at a time."""
    closed = set(sets)
    frontier = list(closed)
    while frontier:
        frontier = list({a | u for a in frontier for u in sets} - closed)
        closed.update(frontier)
    return closed


def brute_union_closed_masks(n: int) -> list[int]:
    size = 1 << n
    out = []
    for mask in range(1 << size):
        ones = [p for p in range(size) if mask >> p & 1]
        if all(mask >> (u | v) & 1 for u in ones for v in ones):
            out.append(mask)
    return out


class TestUnionClosedMasks:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_masks_are_every_union_closed_table_ascending(self, n):
        from setfam.distance import _all_union_closed_masks

        got = _all_union_closed_masks(n)
        assert got.tolist() == brute_union_closed_masks(n)
        assert len(got) == {1: 4, 2: 14, 3: 122, 4: 4960}[n]


class TestDistInt:
    def test_const1_n2(self):
        res = dist_int_exact(TruthTable(2, 0b1111))
        assert res.value == Fraction(1, 2)
        assert res.to_json_obj()["value"] == "2/4"
        assert is_intersecting(res.certificate)

    def test_dictator_zero(self):
        res = dist_int_exact(TruthTable.from_callable(dictator(3, 1)))
        assert res.flips == 0

    def test_single_edge(self):
        res = dist_int_exact(TruthTable.from_ones(2, [1, 2]))
        assert res.value == Fraction(1, 4)

    def test_exhaustive_n2_vs_brute(self):
        for tbl in range(16):
            f = TruthTable(2, tbl)
            assert dist_int_exact(f).value == brute_dist_int(f)

    def test_bounds_bracket_the_exact_value(self):
        from setfam.rng import stream

        rng = stream(31)
        for _ in range(100):
            f = TruthTable(4, int(rng.integers(0, 1 << 16)))
            lower, upper = dist_int_bounds(f)
            assert lower.method == upper.method == "matching-bounds"
            d = dist_int_exact(f).value
            assert lower.value <= d <= upper.value

    def test_exhaustive_n3_vs_brute_sampled(self):
        # full 2^(2^3) brute force is 256 functions; check them all
        for tbl in range(256):
            f = TruthTable(3, tbl)
            res = dist_int_exact(f)
            assert res.value == brute_dist_int(f)
            # certificate only removes ones and is intersecting
            assert res.certificate.bits & ~f.bits == 0
            assert is_intersecting(res.certificate)
            assert (f.bits ^ res.certificate.bits).bit_count() == res.flips


class TestDistUc:
    def test_single_pair(self):
        res = dist_uc_exact(TruthTable.from_ones(2, [1, 2]))
        assert res.value == Fraction(1, 4)
        assert is_union_closed(res.certificate)

    def test_monotone_zero(self):
        f = TruthTable.from_ones(4, [x for x in range(16) if x.bit_count() >= 3])
        assert dist_uc_exact(f).flips == 0

    def test_three_singletons_n3(self):
        f = TruthTable.from_ones(3, [bits("100"), bits("010"), bits("001")])
        res = dist_uc_exact(f)
        assert res.value == Fraction(2, 8)

    def test_exhaustive_n2_vs_brute(self):
        for tbl in range(16):
            f = TruthTable(2, tbl)
            assert dist_uc_exact(f).value == brute_dist_uc(f)

    def test_rejects_large_n(self):
        from setfam.boolfn import ResourceCapError

        with pytest.raises(ResourceCapError):
            dist_uc_exact(TruthTable(5, 0))


class TestRepairUc:
    def test_union_closed_is_fixed_point(self):
        f = TruthTable.from_ones(3, [x for x in range(8) if x.bit_count() >= 2])
        g, flipped = repair_uc(f)
        assert g == f and flipped == frozenset()

    def test_single_pair_repair(self):
        f = TruthTable.from_ones(2, [1, 2])
        g, flipped = repair_uc(f)
        assert set(g.ones()) == {1, 2, 3}
        assert flipped == frozenset({3})

    def test_three_singletons_not_optimal_but_certifying(self):
        f = TruthTable.from_ones(3, [1, 2, 4])
        g, flipped = repair_uc(f)
        assert flipped == frozenset({3, 5, 6, 7})
        assert len(flipped) >= 8 * dist_uc_exact(f).value

    @given(st.integers(0, 2**16 - 1))
    @settings(max_examples=300)
    def test_repair_properties(self, tbl):
        f = TruthTable(4, tbl)
        g, flipped = repair_uc(f)
        assert is_union_closed(g)
        # flips are exactly the end set, all 0 -> 1
        assert g.bits & ~(f.bits | sum(1 << p for p in flipped)) == f.bits & ~g.bits == 0
        for p in flipped:
            assert f(p) == 0 and g(p) == 1
        assert len(flipped) >= 16 * dist_uc_exact(f).value


class TestTupleCounts:
    def test_union_closed_zero(self):
        f = TruthTable.from_ones(3, [x for x in range(8) if x.bit_count() >= 2])
        assert end_distinct_tuple_count(f) == 0
        assert disjoint_tuple_count_lb(f) == 0

    def test_single_pair_counts(self):
        f = TruthTable.from_ones(2, [1, 2])
        assert end_distinct_tuple_count(f) == 1
        assert disjoint_tuple_count_lb(f) == 1

    def test_end_distinct_equals_flip_set(self):
        for tbl in range(256):
            f = TruthTable(3, tbl)
            _, flipped = repair_uc(f)
            assert end_distinct_tuple_count(f) == len(flipped)

    def test_end_distinct_lemma_exhaustive_n3(self):
        # far functions have at least dist * 2^n end-distinct tuples
        for tbl in range(256):
            f = TruthTable(3, tbl)
            assert end_distinct_tuple_count(f) >= 8 * dist_uc_exact(f).value

    def test_banded_members_variant(self):
        f = TruthTable.from_ones(3, [bits("100"), bits("010"), bits("001"), bits("011")])
        # all members: ends are every union of >= 2 singletons that is 0
        assert end_distinct_tuple_count(f) == 3  # 101, 110, 111
        # band [2,2]: only 011 is available as a member; no end reachable
        assert end_distinct_tuple_count(f, Band(2, 2)) == 0

    def test_disjoint_tuple_bound_exhaustive_n3(self):
        # greedy maximal disjoint extraction certifies the eps/n fraction
        for tbl in range(256):
            f = TruthTable(3, tbl)
            eps = dist_uc_exact(f).value
            count = disjoint_tuple_count_lb(f)
            assert count >= eps / 3 * 8
            # and the certificate direction: count disjoint tuples force
            # count flips, so dist >= count / 2^n
            assert Fraction(count, 8) <= eps

    def test_extracted_tuples_are_disjoint_and_valid(self):
        from setfam.rng import stream

        rng = stream(4)
        for _ in range(50):
            tbl = int(rng.integers(0, 1 << 16))
            f = TruthTable(4, tbl)
            count = disjoint_tuple_count_lb(f)
            assert Fraction(count, 16) <= dist_uc_exact(f).value


class TestTruncationDistanceSlack:
    # dist_uc(trunc(f)) >= dist_uc(f)/2 - 1/2^n; at these arities the band
    # covers the whole cube, so truncation is the identity and the slack
    # inequality holds with equality — the check still pins the wiring
    @pytest.mark.parametrize("eps", [0.25, 0.5])
    def test_exhaustive_n3(self, eps):
        from setfam.boolfn import truncate_uc

        for tbl in range(256):
            f = TruthTable(3, tbl)
            t = TruthTable.from_callable(truncate_uc(f, eps))
            lhs = dist_uc_exact(t).value
            rhs = dist_uc_exact(f).value / 2 - Fraction(1, 8)
            assert lhs >= rhs

    @pytest.mark.parametrize("eps", [0.25, 0.5])
    def test_sampled_n4(self, eps):
        from setfam.boolfn import truncate_uc
        from setfam.rng import stream

        rng = stream(61)
        for _ in range(300):
            f = TruthTable(4, int(rng.integers(0, 1 << 16)))
            t = TruthTable.from_callable(truncate_uc(f, eps))
            assert dist_uc_exact(t).value >= dist_uc_exact(f).value / 2 - Fraction(1, 16)


class TestClosure:
    @given(st.integers(0, 2**16 - 1))
    @settings(max_examples=200)
    def test_closure_is_union_closed_superset(self, tbl):
        f = TruthTable(4, tbl)
        closure = set(union_closure(f).ones())
        assert set(f.ones()) <= closure
        for a in closure:
            for b in closure:
                assert (a | b) in closure

    def test_make_tuple_from_end(self):
        f = TruthTable.from_ones(3, [1, 2])
        t = make_tuple_from_end(f, 3)
        assert t is not None and t.holds_for(f)
        assert make_tuple_from_end(f, 7) is None


def greedy_minimal(points, end: int) -> tuple[int, ...] | None:
    """The points below end, ascending, each dropped in turn while the rest cover end."""
    keep = sorted(p for p in points if p & ~end == 0)
    if not keep or _union(keep) != end:
        return None
    i = 0
    while i < len(keep):
        if _union(keep[:i] + keep[i + 1:]) == end:
            del keep[i]
        else:
            i += 1
    return tuple(keep)


def _union(points) -> int:
    out = 0
    for p in points:
        out |= p
    return out


class TestClosureReaders:
    """The closure table and its readers against brute force, on each side of
    the one-word cut (n <= 6 one word, n >= 7 an array of words)."""

    @pytest.mark.parametrize("array", [False, True])
    @given(st.data(), st.sampled_from([0.02, 0.1, 0.3, 0.6, 0.95]),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_readers_match_brute_force(self, array, data, density, seed):
        import numpy as np

        from setfam.violations import UcViolatingTuple, is_minimal_tuple, min_violation_locality

        n = data.draw(st.integers(7, 10) if array else st.integers(1, 6), label="n")
        rng = np.random.default_rng(seed)
        f = TruthTable.from_array(n, rng.random(1 << n) < density)
        ones = f.ones()
        closure = _union_closure(ones)
        ends = sorted(closure - set(ones))
        assert set(union_closure(f).ones()) == closure
        g, flipped = repair_uc(f)
        assert set(g.ones()) == closure and flipped == frozenset(ends)
        assert end_distinct_tuple_count(f) == len(ends)
        lo, hi = sorted(int(w) for w in rng.integers(0, n + 1, size=2))
        members = [u for u in ones if lo <= u.bit_count() <= hi]
        banded = _union_closure(members) - set(ones)
        assert end_distinct_tuple_count(f, Band(lo, hi)) == len(banded)
        available, count = set(ones), 0
        for z in ends:
            tup = greedy_minimal(available, z)
            if tup is not None:
                count += 1
                available -= set(tup)
        assert disjoint_tuple_count_lb(f) == count
        for z in range(1 << n):
            t = make_tuple_from_end(f, z)
            assert (t is not None) == (z in ends)
            if t is not None:
                assert t.members == greedy_minimal(ones, z) and t.holds_for(f)
                assert is_minimal_tuple(t)
        for _ in range(20):
            pts = [int(p) for p in rng.integers(0, 1 << n, size=int(rng.integers(0, 5)))]
            end = _union(pts) if rng.random() < 0.7 else int(rng.integers(0, 1 << n))
            minimal = bool(pts) and _union(pts) == end and all(
                _union(pts[:j] + pts[j + 1:]) != end for j in range(len(pts)))
            assert is_minimal_tuple(UcViolatingTuple(tuple(pts), end)) == minimal
        locs = [2 * (u | v).bit_count() - u.bit_count() - v.bit_count()
                for i, u in enumerate(ones) for v in ones[i + 1:] if not f(u | v)]
        assert min_violation_locality(f) == (min(locs) if locs else None)

    def test_the_path_follows_the_table_size(self, monkeypatch):
        import setfam.violations as V

        calls = []  # the band mask of each word: asked for by the word-array path alone
        real = V._band_words
        monkeypatch.setattr(V, "_band_words", lambda *a: calls.append(a) or real(*a))
        for n in range(1, 7):
            f = TruthTable.from_ones(n, [p for p in (1, 2, 4) if p >> n == 0])
            for uc in (True, False):
                V.witness_table(f, Band(0, n), uc)
            union_closure(f)
            repair_uc(f)
            end_distinct_tuple_count(f, Band(1, 1))
            disjoint_tuple_count_lb(f)
        assert not calls  # one machine word: the transform on the bits
        g = union_closure(TruthTable.from_ones(7, [1, 2, 4]))
        assert g == TruthTable.from_ones(7, range(1, 8))
        assert calls == [(7, Band(0, 7))]  # two uint64 words

    def test_closure_peak_memory_at_n20(self):
        import tracemalloc

        import numpy as np

        f = TruthTable.from_array(20, np.random.default_rng(20).random(1 << 20) < 0.5)
        tracemalloc.start()
        try:
            g = union_closure(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.bits & f.bits == f.bits and g.count_ones() > f.count_ones()
        assert peak < 32 << 20

    def test_closure_readers_run_at_the_table_cap(self):
        from setfam.boolfn import ResourceCapError

        sets = [1, 2, 4, 1 << 23]
        f = TruthTable.from_ones(24, sets)
        closure = _union_closure(sets)
        assert set(union_closure(f).ones()) == closure
        assert end_distinct_tuple_count(f) == len(closure) - len(sets)
        with pytest.raises(ResourceCapError):  # the flipped set's own cap
            repair_uc(TruthTable.from_ones(21, sets[:3]))

    def test_union_closed_check_peak_memory_at_n24(self):
        import tracemalloc

        import numpy as np

        raw = np.random.default_rng(24).integers(0, 256, 1 << 21, dtype=np.uint8).tobytes()
        f = TruthTable(24, int.from_bytes(raw, "little"))  # half full: the dense path
        tracemalloc.start()
        try:
            closed = is_union_closed(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not closed
        assert peak < 40 << 20
