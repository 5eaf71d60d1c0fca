"""Core point/band/truncation/sampling machinery."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setfam.boolfn import (
    BLOCK,
    TABLE_BLOCK,
    Band,
    BooleanFunction,
    EnumerationCapError,
    QueryCounter,
    TruthTable,
    _LUT_SIZE,
    _answers,
    _batch_band_points,
    _downset_bounds,
    _downset_class,
    _downset_classes,
    _downset_draws,
    _lowest,
    _scatter,
    _subsets,
    band_weight_counts,
    const_function,
    dictator,
    down_band_blocks,
    down_band_count,
    down_band_counts,
    enumerate_down_band,
    majority,
    mid_band,
    parse_bits,
    popcount_array,
    sample_band_weights,
    truncate_int,
    truncate_uc,
)
from setfam.rng import stream

import reference_testers


def bits(s: str) -> int:
    return parse_bits(s)


class TestMidBand:
    def test_plain_n100(self):
        # independent arithmetic: T = sqrt(100 * 2 ln 8) = 20.393...
        t = math.sqrt(100 * 2 * math.log(4 / 0.5))
        assert math.ceil(50 - t) == 30 and math.floor(50 + t) == 70
        assert mid_band(100, 0.5) == Band(30, 70)

    def test_widened_n100(self):
        t = math.sqrt(100 * 2 * math.log(4 * 100 / 0.5))
        assert math.ceil(50 - t) == 14 and math.floor(50 + t) == 86
        assert mid_band(100, 0.5, widened=True) == Band(14, 86)

    def test_clamped_small_n(self):
        assert mid_band(4, 0.5) == Band(0, 4)

    @pytest.mark.parametrize("eps", [0.0, 1.0, -0.3, 2.0])
    def test_rejects_bad_eps(self, eps):
        with pytest.raises(ValueError):
            mid_band(10, eps)

    @given(st.integers(1, 63), st.floats(0.01, 0.99))
    def test_band_symmetric_under_complement(self, n, eps):
        band = mid_band(n, eps)
        assert 0 <= band.lo <= band.hi <= n
        assert band.lo == n - band.hi  # complements stay in band


class TestParseBits:
    def test_leftmost_is_coordinate_one(self):
        assert bits("10") == 1 and bits("01") == 2 and bits("11") == 3
        assert bits("001") == 4

    def test_rejects_junk(self):
        with pytest.raises(ValueError):
            parse_bits("01x")


class TestTruncations:
    def test_const1_n20_extremes(self):
        f = const_function(20, 1)
        g = truncate_uc(f, 0.5)
        assert g(0) == 0 and g((1 << 20) - 1) == 1
        h = truncate_int(f, 0.5)
        assert h(0) == 0 and h((1 << 20) - 1) == 0

    def test_band_covering_cube_is_identity(self):
        f = TruthTable.from_ones(4, [5, 9, 3])
        g = truncate_uc(f, 0.5)  # band = [0,4]
        assert all(g(x) == f(x) for x in range(16))
        h = truncate_int(f, 0.5)
        assert all(h(x) == f(x) for x in range(16))

    @given(st.integers(0, 2**16 - 1), st.sampled_from([0.1, 0.3, 0.5, 0.9]),
           st.integers(0, 2**16 - 1))
    @settings(max_examples=200)
    def test_idempotent_pointwise(self, table_bits, eps, x):
        f = TruthTable(16, table_bits)
        x &= (1 << 16) - 1
        g = truncate_uc(f, eps)
        assert truncate_uc(g, eps)(x) == g(x)
        h = truncate_int(f, eps)
        assert truncate_int(h, eps)(x) == h(x)

    def test_truncate_uc_preserves_union_closedness(self):
        from setfam.distance import is_union_closed

        # monotone (hence union-closed) threshold functions at n = 8
        for thr in range(9):
            f = TruthTable.from_ones(8, [x for x in range(256) if x.bit_count() >= thr])
            for eps in (0.05, 0.2, 0.6):
                g = TruthTable.from_callable(truncate_uc(f, eps))
                assert is_union_closed(g)

    def test_truncate_int_preserves_intersectingness(self):
        from setfam.distance import is_intersecting

        f = TruthTable.from_ones(8, [x for x in range(256) if x & 1])
        for eps in (0.05, 0.2, 0.6):
            g = TruthTable.from_callable(truncate_int(f, eps))
            assert is_intersecting(g)


class TestEnumerateDownBand:
    def test_proper_nonempty_subsets(self):
        got = sorted(enumerate_down_band(bits("111"), Band(1, 2)))
        assert got == [1, 2, 3, 4, 5, 6]

    def test_singleton(self):
        assert list(enumerate_down_band(bits("101"), Band(2, 2))) == [bits("101")]

    def test_count_matches_binomial_sum(self):
        x = (1 << 10) - 1
        assert math.comb(10, 3) + math.comb(10, 4) + math.comb(10, 5) == 582
        assert down_band_count(x, Band(3, 5)) == 582
        assert len(list(enumerate_down_band(x, Band(3, 5)))) == 582

    def test_cap_refusal(self):
        with pytest.raises(EnumerationCapError) as exc:
            list(enumerate_down_band((1 << 10) - 1, Band(0, 10), cap=100))
        assert exc.value.predicted == 1024

    def test_blocks_concatenate_to_the_itertools_order(self):
        from itertools import combinations

        def reference(x, band):
            coords = [i for i in range(64) if x >> i & 1]
            return [sum(1 << c for c in combo)
                    for j in range(band.lo, min(len(coords), band.hi) + 1)
                    for combo in combinations(coords, j)]

        rng = stream(31)
        for _ in range(40):
            n = int(rng.integers(1, 64))
            roots = rng.integers(0, 1 << min(n, 16), size=int(rng.integers(1, 12)), dtype=np.uint64)
            roots <<= np.uint64(int(rng.integers(0, n - min(n, 16) + 1)))
            lo = int(rng.integers(0, 17))
            band = Band(lo, lo + int(rng.integers(0, 17)))
            size = int(rng.choice([1, 7, 100, BLOCK]))
            owners, ys = [], []
            for owner, block in down_band_blocks(roots, band, size):
                assert len(owner) == len(block) <= size
                owners += owner.tolist()
                ys += block.tolist()
            expected = [reference(int(r), band) for r in roots]
            assert ys == [y for part in expected for y in part]
            assert owners == [i for i, part in enumerate(expected) for _ in part]
            assert down_band_counts(roots, band).tolist() == [len(p) for p in expected]
        # a downset of 2^14 - 1 points, split over four blocks
        x = (1 << 14) - 1 << 20
        band = Band(0, 13)
        blocks = [b for _, b in down_band_blocks(np.array([x], dtype=np.uint64), band)]
        assert [len(b) for b in blocks] == [BLOCK] * 3 + [2**14 - 1 - 3 * BLOCK]
        assert list(enumerate_down_band(x, band)) == reference(x, band)

    @given(st.integers(0, 2**14 - 1), st.integers(0, 14), st.integers(0, 14))
    @settings(max_examples=150)
    def test_membership_and_count(self, x, lo, hi):
        band = Band(min(lo, hi), max(lo, hi))
        ys = list(enumerate_down_band(x, band))
        assert len(ys) == len(set(ys)) == down_band_count(x, band)
        for y in ys:
            assert y & x == y and y.bit_count() in band


class TestSampling:
    def test_weight_class_proportionality_4sigma(self):
        # n=4, band [1,2]: P(w=2)/P(w=1) should be C(4,2)/C(4,1) = 6/4
        n, band, draws = 4, Band(1, 2), 10**6
        ws = sample_band_weights(n, band, stream(42), draws)
        counts = np.bincount(ws, minlength=5)
        total = math.comb(4, 1) + math.comb(4, 2)
        for j, c in ((1, 4), (2, 6)):
            p = c / total
            sigma = math.sqrt(draws * p * (1 - p))
            assert abs(counts[j] - draws * p) < 4 * sigma

    def test_uniform_over_cube_n2(self):
        rng = stream(7)
        xs = _batch_band_points(2, sample_band_weights(2, Band(0, 2), rng, 20000), rng)
        counts = np.bincount(xs.astype(np.intp), minlength=4)
        assert len(counts) == 4
        for x in range(4):
            assert abs(counts[x] - 5000) < 4 * math.sqrt(20000 * 0.25 * 0.75)

    def test_single_weight_class(self):
        rng = stream(3)
        xs = _batch_band_points(3, sample_band_weights(3, Band(1, 1), rng, 200), rng)
        assert set(xs.tolist()) == {1, 2, 4}

    @staticmethod
    def down_band_draws(x: int, band: Band, rng, draws: int) -> list[int]:
        """``draws`` uniform points of x's banded downset, drawn as the testers draw them."""
        n = x.bit_length()
        ws = np.full(draws, x.bit_count())
        js = _downset_class(n, band, ws, _downset_draws(rng, n, band, ws))
        return _subsets(np.full(draws, x, dtype=np.uint64), js, rng.random((draws, n))).tolist()

    def test_downset_sampler_stays_inside(self):
        x = bits("1011010011")
        band = Band(2, 4)
        for y in self.down_band_draws(x, band, stream(5), 500):
            assert y & x == y and y.bit_count() in band

    def test_downset_sampler_is_uniform_4sigma(self):
        x, band, draws = 0b1011010001, Band(1, 3), 50_000
        points = list(enumerate_down_band(x, band))
        assert len(points) == 25
        counts = dict.fromkeys(points, 0)
        for y in self.down_band_draws(x, band, stream(6), draws):
            counts[y] += 1  # KeyError if outside
        p = 1 / len(points)
        sigma = math.sqrt(draws * p * (1 - p))
        for y, c in counts.items():
            assert abs(c - draws * p) < 4 * sigma, (y, c)

    def test_downset_sampler_refuses_an_empty_downset(self):
        with pytest.raises(ValueError, match="high <= 0"):
            self.down_band_draws(0b101, Band(3, 4), stream(1), 1)

    def test_band_weight_counts(self):
        assert band_weight_counts(4, Band(1, 2)) == [4, 6]


class TestRoundKernels:
    """The round testers' kernels against the plain ones in ``reference_testers``."""

    @given(n=st.one_of(st.integers(1, 16), st.integers(17, 63)),
           rows=st.sampled_from([0, 1, 2047, 2048, 4096]),
           keys=st.sampled_from(["distinct", "ties", "padded"]), seed=st.integers(0, 2**32))
    @settings(max_examples=120)
    def test_lowest_matches_the_stable_argsort(self, n, rows, keys, seed):
        rng = stream(seed)
        values = rng.random((rows, n))
        counts = rng.integers(0, n + 1, rows)
        if keys == "ties":  # few distinct keys, so most columns tie
            values = rng.integers(0, 3, (rows, n)).astype(float)
        elif keys == "padded":  # as _subsets pads the columns past a point's weight
            values[np.arange(n) >= rng.integers(0, n + 1, rows)[:, None]] = np.inf
        got = _lowest(values, counts)
        assert got.dtype == np.uint64
        assert got.tolist() == reference_testers.lowest(values, counts).tolist()

    class EveryDraw:
        """A generator stand-in whose ``integers(0, total, size)`` is every draw below total."""

        def integers(self, low, high, size, dtype):
            return np.arange(low, high, dtype=dtype)

    # n <= 11 runs the inverse-CDF table for every band, n = 12, 13 the search for wide ones
    @pytest.mark.parametrize("n", range(1, 14))
    def test_downset_class_matches_the_compare_sum_at_every_draw(self, n):
        for band in {Band(0, n), Band(1, n - 1), mid_band(n, 0.5), mid_band(n, 0.9, widened=True),
                     Band(n // 2, n // 2), Band(n, n), Band(0, 0)}:
            totals, _ = _downset_classes(n, band)
            lut = _downset_bounds(n, band)[3]
            assert (lut is None) == (int(totals.sum()) > _LUT_SIZE)  # the table's own size
            if band == Band(0, n):
                assert (lut is None) == (n > 11)
            if totals[n]:  # the banded cube's own row, drawn through sample_band_weights
                top = np.arange(totals[n], dtype=np.uint64)
                got = sample_band_weights(n, band, self.EveryDraw(), int(totals[n]))
                assert got.dtype == np.int64
                assert got.tolist() == reference_testers.downset_class(n, band, n, top).tolist()
            ws = np.repeat(np.arange(n + 1), totals.astype(np.intp))
            us = np.concatenate([np.arange(t, dtype=np.uint64) for t in totals])
            want = reference_testers.downset_class(n, band, ws, us)
            assert _downset_class(n, band, ws, us).tolist() == want.tolist(), band
            # a (k, 1) x (k, 2) broadcast: each draw and its mirror below the same weight
            pairs = np.stack((us, totals[ws] - np.uint64(1) - us), axis=1)
            got = _downset_class(n, band, ws[:, None], pairs)
            assert got.shape == pairs.shape
            assert got.tolist() == reference_testers.downset_class(n, band, ws[:, None], pairs).tolist()
            empty = _downset_class(n, band, ws[:0], us[:0])
            assert empty.shape == (0,) and empty.dtype.kind == "i"

    @pytest.mark.parametrize("n", [20, 40, 62, 63])
    def test_downset_class_stays_exact_near_2_to_the_64(self, n):
        # the shifted class sizes sum to nearly 2^64; a float anywhere loses them
        rng = stream(96, n)
        for band in (Band(0, n), mid_band(n, 0.5), Band(1, 2)):
            totals, _ = _downset_classes(n, band)
            ws = rng.integers(band.lo, n + 1, 2000)
            us = rng.integers(0, totals[ws], dtype=np.uint64)
            edges = np.concatenate((us, totals[ws] - np.uint64(1), us * np.uint64(0)))
            ws = np.tile(ws, 3)
            want = reference_testers.downset_class(n, band, ws, edges)
            assert _downset_class(n, band, ws, edges).tolist() == want.tolist(), band


class TestEmptyInput:
    """The round testers' later stages often keep no round at all."""

    EMPTY = np.zeros(0, dtype=np.uint64)

    @pytest.mark.parametrize("n", [1, 6, 9, 20, 63])
    def test_subsets_of_no_rounds(self, n):
        none = np.zeros(0, dtype=np.int64)
        for got in (_subsets(self.EMPTY, none, np.zeros((0, n))),
                    _lowest(np.zeros((0, n)), none),
                    _scatter(self.EMPTY, self.EMPTY, np.zeros(0, dtype=np.intp))):
            assert got.dtype == np.uint64 and got.shape == (0,)

    def test_answers_at_no_points(self):
        from setfam.hardness import build_int_instance, build_uc_instance

        table = TruthTable.from_array(6, stream(44).random(64) < 0.5)
        instances = [build_uc_instance("yes", 16, 0.5, 1), build_uc_instance("no", 16, 0.5, 2),
                     build_int_instance("yes", 16, 0.5, 3), build_int_instance("no", 16, 0.5, 4),
                     build_int_instance("one_sided_no", 60, 0.5, 5)]
        oracles = [table, majority(10), const_function(5, 1), dictator(7, 3),
                   BooleanFunction(6, table), QueryCounter(table), *instances,
                   *(inst.function() for inst in instances)]
        for f in oracles:
            got = _answers(f, self.EMPTY)
            assert got.dtype == np.uint8 and got.shape == (0,), f
        assert BooleanFunction(6, table).batch is None  # the point-only path ran


class TestQueryCounter:
    def test_transparent_and_exact(self):
        f = dictator(6, 3)
        qc = QueryCounter(f)
        for x in range(64):
            assert qc(x) == f(x)
        assert qc.count == 64

    def test_batch_counts_each_point_once(self):
        xs = np.arange(64, dtype=np.uint64)
        table = TruthTable.from_array(6, stream(41).random(64) < 0.5)
        for inner in (table, BooleanFunction(6, table)):  # with and without batch
            qc = QueryCounter(inner)
            got = qc.batch(xs)
            assert got.dtype == np.uint8
            assert got.tolist() == [table(x) for x in range(64)]
            assert qc.count == 64
            qc.batch(xs[:5])
            qc(7)
            assert qc.count == 70

    def test_thread_safety(self):
        import threading

        qc = QueryCounter(const_function(4, 1))

        def hammer():
            for _ in range(20000):
                qc(5)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert qc.count == 80000


class TestBuiltins:
    @pytest.mark.parametrize("n", [1, 5, 16, 40, 63])
    def test_batch_matches_scalar(self, n):
        xs = stream(43, n).integers(0, 1 << n, size=500, dtype=np.uint64)
        xs[:2] = [0, (1 << n) - 1]
        fs = [const_function(n, 0), const_function(n, 1), majority(n),
              dictator(n, 1), dictator(n, n)]
        for f in fs:
            got = f.batch(xs)
            assert got.dtype == np.uint8
            assert got.tolist() == [f(x) for x in xs.tolist()]

    def test_from_callable_uses_batch(self):
        calls = []

        def batch(xs):
            calls.append(len(xs))
            return majority(16).batch(xs)

        f = BooleanFunction(16, lambda x: 1 / 0, batch)
        table = TruthTable.from_callable(f)
        assert table == TruthTable.from_callable(BooleanFunction(16, majority(16)))
        assert calls == [TABLE_BLOCK] * ((1 << 16) // TABLE_BLOCK)


class TestTruthTableFormats:
    def test_bftt1_golden_bytes(self):
        # ones {01, 10} = points {2, 1} -> bits 0b0110 = 0x06
        tt = TruthTable.from_ones(2, [bits("01"), bits("10")])
        assert tt.to_bftt1() == b"BFTT1\n2\n\x06"
        assert TruthTable.from_bftt1(tt.to_bftt1()) == tt

    def test_roundtrip_file(self, tmp_path):
        tt = TruthTable.from_ones(11, [0, 5, 77, 2046])
        path = tmp_path / "f.bftt1"
        tt.save(path)
        assert TruthTable.load(path) == tt

    def test_json_roundtrip(self):
        tt = TruthTable.from_ones(3, [1, 6])
        assert TruthTable.from_json_obj(tt.to_json_obj()) == tt
        assert tt.to_json_obj() == {"n": 3, "ones": [1, 6]}

    def test_bad_magic(self):
        with pytest.raises(ValueError):
            TruthTable.from_bftt1(b"BFTTX\n2\n\x06")

    @given(st.integers(1, 10), st.data())
    @settings(max_examples=60)
    def test_array_view_matches_calls(self, n, data):
        tbl = data.draw(st.integers(0, 2 ** (2**n) - 1))
        tt = TruthTable(n, tbl)
        arr = tt.as_array()
        assert len(arr) == 1 << n and tt.as_array() is not arr
        for x in range(1 << n):
            assert arr[x] == tt(x)

    @given(st.integers(1, 12), st.data())
    @settings(max_examples=80)
    def test_batch_matches_calls(self, n, data):
        tbl = data.draw(st.integers(0, 2 ** (2**n) - 1))
        xs = data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=40))
        tt = TruthTable(n, tbl)
        got = tt.batch(np.array(xs, dtype=np.uint64))
        assert got.dtype == np.uint8
        assert got.tolist() == [tt(x) for x in xs]

    @given(st.integers(1, 12), st.data())
    @settings(max_examples=60)
    def test_ones_lists_the_set_bits(self, n, data):
        tbl = data.draw(st.integers(0, 2 ** (2**n) - 1))
        tt = TruthTable(n, tbl)
        assert tt.ones() == [x for x in range(1 << n) if (tbl >> x) & 1]


def test_popcount_array():
    xs = np.array([0, 1, 3, 2**33 - 1, 2**52 + 7], dtype=np.uint64)
    assert list(popcount_array(xs)) == [0, 1, 2, 33, 4]
    for dtype in (np.uint8, np.uint16, np.uint32, np.int64):
        assert list(popcount_array(np.array([0, 1, 3, 127], dtype=dtype))) == [0, 1, 2, 7]
