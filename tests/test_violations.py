"""Violation predicates, witness checks, matchings, and tuple combinatorics."""

import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_testers
from setfam import violations
from setfam.boolfn import Band, ResourceCapError, TruthTable, dictator, parse_bits
from setfam.violations import (
    IViolatingPair,
    TripleCertificate,
    UcViolatingTuple,
    augment_tuple,
    certificate_from_json_obj,
    is_i_violation,
    is_minimal_tuple,
    is_monotone_violation,
    is_uc_violation,
    level_matching,
    locality,
    max_disjoint_i_pairs,
    min_disjoint_cover,
    min_violation_locality,
    witness_check_int,
    witness_check_uc,
    witness_scan,
    witness_table,
)

bits = parse_bits


class TestPairPredicates:
    def test_monotone_function_has_no_violation(self):
        f = dictator(2, 1)
        assert not is_monotone_violation(f, bits("10"), bits("11"))

    def test_monotone_violation_found(self):
        f = TruthTable.from_ones(2, [bits("01")])
        assert is_monotone_violation(f, bits("01"), bits("11"))

    def test_incomparable_never_violates(self):
        for tbl in range(16):
            f = TruthTable(2, tbl)
            assert not is_monotone_violation(f, bits("10"), bits("01"))

    def test_i_violation_simple(self):
        f = TruthTable(2, 0b1111)
        assert is_i_violation(f, bits("01"), bits("10"))

    def test_dictator_never_i_violates(self):
        f = dictator(3, 1)
        for x in range(8):
            for y in range(8):
                assert not is_i_violation(f, x, y)

    def test_empty_set_diagonal(self):
        # brute force: no family containing the empty set is intersecting,
        # because Eq-style pairwise intersection fails at S1 = S2 = empty
        f = TruthTable.from_ones(2, [0])
        assert is_i_violation(f, 0, 0)
        from setfam.distance import is_intersecting

        for tbl in range(16):
            t = TruthTable(2, tbl)
            if t(0) == 1:
                assert not is_intersecting(t)

    def test_i_violation_matches_definition_exhaustively(self):
        for tbl in range(16):
            f = TruthTable(2, tbl)
            for x in range(4):
                for y in range(4):
                    expected = (
                        f(x) == 1 and f(y) == 1 and x & y == 0 and (x != y or x == 0)
                    )
                    assert is_i_violation(f, x, y) == expected

    def test_uc_violation_examples(self):
        f = TruthTable.from_ones(2, [bits("01"), bits("10")])
        cert = is_uc_violation(f, bits("01"), bits("10"))
        assert cert == TripleCertificate(bits("01"), bits("10"), bits("11"))
        assert cert.holds_for(f)

    def test_monotone_has_no_uc_violation(self):
        f = TruthTable.from_ones(3, [x for x in range(8) if x.bit_count() >= 2])
        for y1 in range(8):
            for y2 in range(8):
                assert is_uc_violation(f, y1, y2) is None

    def test_idempotent_union_is_never_violating(self):
        f = TruthTable.from_ones(2, [bits("01")])
        assert is_uc_violation(f, bits("01"), bits("01")) is None

    def test_arity_mismatch_rejected(self):
        with pytest.raises(ValueError):
            is_i_violation(dictator(2, 1), 5, 0)


def brute_uc_witness_exists(f: TruthTable, x: int, band: Band) -> bool:
    """Oracle: search all member subsets of the banded downset directly."""
    if f(x) == 1:
        return False
    candidates = [
        y for y in range(1 << f.arity)
        if y & x == y and y.bit_count() in band and f(y) == 1
    ]
    for k in range(1, len(candidates) + 1):
        for combo in itertools.combinations(candidates, k):
            u = 0
            for c in combo:
                u |= c
            if u == x:
                return True
    return False


class TestWitnessChecks:
    def test_uc_witness_found(self):
        f = TruthTable.from_ones(2, [bits("01"), bits("10")])
        t = witness_check_uc(f, bits("11"), Band(1, 2))
        assert t == UcViolatingTuple((bits("10"), bits("01")), bits("11"))
        assert t.holds_for(f)

    def test_uc_witness_requires_zero_at_end(self):
        f = TruthTable.from_ones(2, [bits("01"), bits("10"), bits("11")])
        assert witness_check_uc(f, bits("11"), Band(1, 2)) is None

    def test_uc_union_falls_short(self):
        f = TruthTable.from_ones(3, [bits("001"), bits("010")])
        assert witness_check_uc(f, bits("111"), Band(1, 3)) is None

    def test_empty_union_is_not_a_tuple(self):
        f = TruthTable.from_ones(3, [])
        assert witness_check_uc(f, 0, Band(0, 3)) is None

    @given(st.integers(0, 2**16 - 1), st.integers(0, 15),
           st.integers(0, 4), st.integers(0, 4))
    @settings(max_examples=300, deadline=None)
    def test_uc_witness_equals_brute_force(self, tbl, x, lo, hi):
        band = Band(min(lo, hi), max(lo, hi))
        if x.bit_count() not in band:
            return
        f = TruthTable(4, tbl)
        got = witness_check_uc(f, x, band)
        assert (got is not None) == brute_uc_witness_exists(f, x, band)
        if got is not None:
            assert got.holds_for(f)
            assert all(m.bit_count() in band for m in got.members)

    def test_int_witness_found(self):
        f = TruthTable.from_ones(4, [bits("1100"), bits("0011")])
        got = witness_check_int(f, bits("1100"), Band(2, 2))
        assert got == IViolatingPair(bits("0011"), bits("1100"))
        assert got.holds_for(f)

    def test_int_witness_none_for_dictator(self):
        f = TruthTable.from_callable(dictator(4, 1))
        for x in range(16):
            if 1 <= x.bit_count() <= 3:
                assert witness_check_int(f, x, Band(1, 3)) is None

    @given(st.integers(0, 2**16 - 1), st.integers(0, 15),
           st.integers(0, 4), st.integers(0, 4))
    @settings(max_examples=300, deadline=None)
    def test_int_witness_equals_brute_force(self, tbl, x, lo, hi):
        band = Band(min(lo, hi), max(lo, hi))
        if x.bit_count() not in band:
            return
        f = TruthTable(4, tbl)
        got = witness_check_int(f, x, band)
        xbar = x ^ 15
        expected = f(x) == 1 and any(
            y & xbar == y and y.bit_count() in band and f(y) == 1 for y in range(16)
        )
        assert (got is not None) == expected
        if got is not None:
            assert got.holds_for(f)


class TestWitnessTable:
    @given(st.integers(1, 12), st.integers(0, 2**32 - 1), st.floats(0.02, 0.98),
           st.data())
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_witness_scan_on_every_point(self, n, seed, density, data):
        lo = data.draw(st.integers(0, n), label="lo")
        hi = data.draw(st.integers(0, n), label="hi")  # lo > hi: an empty band
        band = Band(lo, hi)
        f = TruthTable.from_array(n, np.random.default_rng(seed).random(1 << n) < density)
        points = np.arange(1 << n, dtype=np.uint64)
        for uc in (True, False):
            table = witness_table(f, band, uc)
            assert isinstance(table, TruthTable) and table.arity == n
            scanned = [witness_scan(f, points[x:x + 1], band, uc)[0] == 0
                       for x in range(1 << n)]
            assert table.as_array().astype(bool).tolist() == scanned

    @pytest.mark.parametrize("n", range(7, 21))
    @given(st.integers(0, 2**32 - 1), st.sampled_from([0.01, 0.1, 0.5, 0.9, 0.99]),
           st.data())
    @settings(max_examples=6, deadline=None)
    def test_words_match_the_array_form(self, n, seed, density, data):
        # the word transform against the unpacked uint32/bool array form, on
        # bands that may be empty (lo > hi) or lie past the top weight
        lo = data.draw(st.integers(0, n + 1), label="lo")
        hi = data.draw(st.integers(0, n + 1), label="hi")
        band = Band(lo, hi)
        f = TruthTable.from_array(n, np.random.default_rng(seed).random(1 << n) < density)
        for uc in (True, False):
            want = reference_testers.witness_array(f, band, uc)
            assert witness_table(f, band, uc).as_array().astype(bool).tolist() == want.tolist()

    def test_full_band_marks_the_property_violations(self):
        # 100 | 010 = 110 and 100 | 011 = 111 are 0-inputs; 100 is disjoint
        # from both other 1-inputs
        f = TruthTable.from_ones(3, [bits("100"), bits("010"), bits("011")])
        full = Band(0, 3)
        assert witness_table(f, full, True).ones() == [bits("110"), bits("111")]
        assert witness_table(f, full, False).ones() == [bits("100"), bits("010"), bits("011")]
        assert not witness_table(f, Band(2, 3), True).bits


def brute_max_disjoint_pairs(f: TruthTable) -> int:
    """Oracle: exhaustive search over pair subsets (tiny inputs only)."""
    ones = f.ones()
    pairs = []
    if ones and ones[0] == 0:
        pairs.append((0, 0))
    for i, u in enumerate(ones):
        for v in ones[i + 1:]:
            if u & v == 0:
                pairs.append((u, v))

    best = 0
    def rec(idx, used, count):
        nonlocal best
        best = max(best, count)
        for k in range(idx, len(pairs)):
            u, v = pairs[k]
            if u not in used and v not in used:
                rec(k + 1, used | {u, v}, count + 1)
    rec(0, set(), 0)
    return best


class TestMaxDisjointPairs:
    def test_const1_n2(self):
        size, pairs = max_disjoint_i_pairs(TruthTable(2, 0b1111))
        assert size == 2
        used = [p for pair in pairs for p in {pair.x, pair.y}]
        assert len(set(used)) == len(used)

    def test_dictator(self):
        f = TruthTable.from_callable(dictator(3, 1))
        assert max_disjoint_i_pairs(f)[0] == 0

    def test_single_edge(self):
        f = TruthTable.from_ones(2, [bits("01"), bits("10")])
        assert max_disjoint_i_pairs(f)[0] == 1

    @given(st.integers(0, 2**16 - 1))
    @settings(max_examples=120, deadline=None)
    def test_matches_brute_force_n4(self, tbl):
        f = TruthTable(4, tbl)
        size, pairs = max_disjoint_i_pairs(f)
        assert size == brute_max_disjoint_pairs(f)
        assert len(pairs) == size
        seen = set()
        for p in pairs:
            assert is_i_violation(f, p.x, p.y)
            pts = {p.x, p.y}
            assert not pts & seen
            seen |= pts


class TestDisjointnessGraphSearch:
    #: sha256 of the covers and matchings below, as min_disjoint_cover and
    #: max_disjoint_i_pairs returned them when this digest was recorded.
    FROZEN = "1076df44c20e5b7a4b0c6bc459f851a66c71639beafb5a905296632b63ff23f9"

    @staticmethod
    def tables():
        """Every 16th n=4 table, then 300 seeded tables at n=5..8 with 1-30 ones."""
        for tbl in range(0, 1 << 16, 16):
            yield TruthTable(4, tbl)
        rng = np.random.default_rng(20261019)
        for _ in range(300):
            n = int(rng.integers(5, 9))
            k = int(rng.integers(1, 31))
            yield TruthTable.from_ones(n, rng.choice(1 << n, k, replace=False).tolist())

    def test_outputs_are_frozen(self):
        digest = hashlib.sha256()
        for f in self.tables():
            size, pairs = max_disjoint_i_pairs(f)
            digest.update(f"{f.arity} {f.bits:x} {min_disjoint_cover(f):x} {size}"
                          f" {[(p.x, p.y) for p in pairs]}\n".encode())
        assert digest.hexdigest() == self.FROZEN

    def test_state_cap_refuses(self, monkeypatch):
        # 30 of the 36 points of weight 1-2 at n=8: most pairs are disjoint
        pool = [p for p in range(1, 256) if p.bit_count() <= 2]
        ones = np.random.default_rng(1).choice(pool, 30, replace=False).tolist()
        f = TruthTable.from_ones(8, ones)
        monkeypatch.setattr(violations, "_STATE_CAP", 100)
        for search in (min_disjoint_cover, max_disjoint_i_pairs):
            with pytest.raises(ResourceCapError, match="state cap"):
                search(f)


class TestLevelMatching:
    def test_a2_w0(self):
        assert level_matching(2, 0) == [(0, 3)]

    # (14, 6) and (16, 7) overflowed the recursion of an augmenting-path search
    @pytest.mark.parametrize("a,w,count", [(4, 1, 4), (6, 2, 15), (5, 1, 5), (7, 3, 35),
                                           (14, 6, 3003), (16, 7, 11440)])
    def test_perfect_and_comparable(self, a, w, count):
        pairs = level_matching(a, w)
        assert len(pairs) == count
        lows = {p for p, _ in pairs}
        highs = {q for _, q in pairs}
        assert len(lows) == len(highs) == count
        for p, q in pairs:
            assert p & q == p
            assert p.bit_count() == w and q.bit_count() == a - w

    def test_rejects_middle(self):
        with pytest.raises(ValueError):
            level_matching(4, 2)


class TestCapRefusals:
    def test_refusals_carry_the_size_and_the_cap(self):
        from setfam.distance import dist_uc_exact

        refusals = [
            (lambda: level_matching(10, 4, max_size=100), 210, 100),
            (lambda: min_violation_locality(TruthTable.from_ones(6, range(10)), max_ones=5), 10, 5),
            (lambda: min_violation_locality(TruthTable(21, 0)), 21, 20),
            (lambda: dist_uc_exact(TruthTable(5, 0)), 5, 4),
        ]
        for call, predicted, cap in refusals:
            with pytest.raises(ResourceCapError) as exc:
                call()
            assert (exc.value.predicted, exc.value.cap) == (predicted, cap)


class TestAugmentAndLocality:
    def test_k2(self):
        f = TruthTable.from_ones(2, [1, 2])
        t = UcViolatingTuple((1, 2), 3)
        prefixes, cert = augment_tuple(f, t)
        assert cert == TripleCertificate(1, 2, 3)
        assert prefixes == [1, 3]

    def test_prefix_scan_hits_later_step(self):
        # f(011)=1 so the violating step is (011, 100, 111)
        f = TruthTable.from_ones(3, [bits("001"), bits("010"), bits("100"), bits("011")])
        t = UcViolatingTuple((bits("001"), bits("010"), bits("100")), bits("111"))
        _, cert = augment_tuple(f, t)
        assert cert == TripleCertificate(bits("011"), bits("100"), bits("111"))
        assert cert.holds_for(f)

    def test_prefix_scan_hits_first_step(self):
        f = TruthTable.from_ones(3, [bits("001"), bits("010"), bits("100")])
        t = UcViolatingTuple((bits("001"), bits("010"), bits("100")), bits("111"))
        _, cert = augment_tuple(f, t)
        assert cert == TripleCertificate(bits("001"), bits("010"), bits("011"))
        assert cert.holds_for(f)

    def test_rejects_non_violating_input(self):
        f = TruthTable.from_ones(2, [1, 2, 3])
        with pytest.raises(ValueError):
            augment_tuple(f, UcViolatingTuple((1, 2), 3))

    @given(st.integers(0, 2**16 - 1), st.integers(1, 15))
    @settings(max_examples=200, deadline=None)
    def test_augmentation_always_yields_valid_triple(self, tbl, x):
        from setfam.distance import make_tuple_from_end

        f = TruthTable(4, tbl)
        t = make_tuple_from_end(f, x)
        if t is None:
            return
        _, cert = augment_tuple(f, t)
        assert cert.holds_for(f)

    def test_locality_values(self):
        assert locality(TripleCertificate(bits("01"), bits("10"), bits("11"))) == 2
        assert locality(TripleCertificate(bits("0011"), bits("1100"), bits("1111"))) == 4

    def test_min_locality_simple(self):
        f = TruthTable.from_ones(2, [1, 2])
        assert min_violation_locality(f) == 2

    def test_min_locality_none_when_union_closed(self):
        f = TruthTable.from_ones(3, [x for x in range(8) if x.bit_count() >= 2])
        assert min_violation_locality(f) is None

    def test_antipodal_pair_has_full_locality(self):
        # the two satisfying points are r and its complement; the only
        # violating triple is (r, comp(r), 1^4), locality 4
        r = bits("0110")
        f = TruthTable.from_ones(4, [r, r ^ 15])
        assert min_violation_locality(f) == 4


class TestMinimalityAndSerialization:
    def test_minimal_tuple_predicate(self):
        assert is_minimal_tuple(UcViolatingTuple((1, 2), 3))
        assert not is_minimal_tuple(UcViolatingTuple((1, 2, 3), 3))

    def test_certificate_json_roundtrip(self):
        for cert in (
            IViolatingPair(3, 4),
            UcViolatingTuple((1, 2), 3),
            TripleCertificate(1, 4, 5),
        ):
            assert certificate_from_json_obj(cert.to_json_obj()) == cert
