"""Tester behaviour: completeness, soundness, accounting, determinism."""

import math

import numpy as np
import pytest

from setfam.boolfn import (
    EnumerationCapError,
    ResourceCapError,
    TruthTable,
    dictator,
    down_band_count,
    mid_band,
    parse_bits,
    sample_band_weights,
)
from setfam.distance import is_intersecting, is_union_closed
from setfam.rng import stream
from setfam.testers import (
    TesterConfig,
    int_pair_tester,
    int_tester,
    tau_success_rate,
    uc_tester,
    uc_triple_tester,
)

bits = parse_bits


def all_uc_tables(n: int) -> list[TruthTable]:
    out = []
    for tbl in range(1 << (1 << n)):
        t = TruthTable(n, tbl)
        if is_union_closed(t):
            out.append(t)
    return out


def all_int_tables(n: int) -> list[TruthTable]:
    out = []
    for tbl in range(1 << (1 << n)):
        t = TruthTable(n, tbl)
        if is_intersecting(t):
            out.append(t)
    return out


class TestCompleteness:
    def test_uc_accepts_monotone_always(self):
        f = dictator(12, 1)
        for seed in range(10):
            rep = uc_tester(f, TesterConfig(eps=0.25, seed=seed))
            assert rep.verdict == "accept" and rep.certificate is None
            assert rep.iterations_run == math.ceil(100 / 0.25)

    def test_all_uc_tables_n3_accepted(self):
        for t in all_uc_tables(3):
            for seed in (0, 1):
                assert uc_tester(t, TesterConfig(eps=0.5, seed=seed)).verdict == "accept"
                rep = uc_triple_tester(
                    t, TesterConfig(eps=0.5, seed=seed, max_iterations=50)
                )
                assert rep.verdict == "accept"

    def test_all_int_tables_n3_accepted(self):
        for t in all_int_tables(3):
            for seed in (0, 1):
                assert int_tester(t, TesterConfig(eps=0.5, seed=seed)).verdict == "accept"
                rep = int_pair_tester(
                    t, TesterConfig(eps=0.5, seed=seed, max_iterations=50)
                )
                assert rep.verdict == "accept"

    def test_int_accepts_dictator(self):
        f = dictator(10, 3)
        for seed in range(10):
            assert int_tester(f, TesterConfig(eps=0.3, seed=seed)).verdict == "accept"


class TestSoundnessSmall:
    def test_uc_rejects_antichain_pair_always(self):
        # dist = 1/4 >= eps, and every iteration that samples x = 11 finds it
        f = TruthTable.from_ones(2, [bits("01"), bits("10")])
        for seed in range(50):
            rep = uc_tester(f, TesterConfig(eps=0.2, seed=seed))
            assert rep.verdict == "reject"
            assert rep.certificate.holds_for(f)

    def test_int_rejects_const1_on_band(self):
        f = TruthTable(10, (1 << (1 << 10)) - 1)
        rejects = 0
        for seed in range(20):
            rep = int_tester(f, TesterConfig(eps=0.1, seed=seed))
            rejects += rep.verdict == "reject"
            if rep.verdict == "reject":
                assert rep.certificate.holds_for(f)
        assert rejects >= 18  # the guarantee is >= 9/10

    def test_triple_tester_small_toy(self):
        # per-round success = P(x=11) * P({y1,y2} = {01,10} ordered) = 1/4 * 2/16
        f = TruthTable.from_ones(2, [bits("01"), bits("10")])
        rejected = 0
        for seed in range(30):
            rep = uc_triple_tester(
                f, TesterConfig(eps=0.2, seed=seed, max_iterations=10**4)
            )
            if rep.verdict == "reject":
                rejected += 1
                assert rep.certificate.holds_for(f)
                assert rep.queries == 3 * rep.iterations_run
        # miss probability per run is (1 - 1/32)^10000 ~ 4e-138
        assert rejected == 30

    def test_triple_round_success_matches_closed_form(self):
        # frequency of success in round 1 over many seeds ~ 1/32
        f = TruthTable.from_ones(2, [bits("01"), bits("10")])
        hits = 0
        n_seeds = 3000
        for seed in range(n_seeds):
            rep = uc_triple_tester(f, TesterConfig(eps=0.2, seed=seed, max_iterations=1))
            hits += rep.verdict == "reject"
        p = 1 / 32
        sigma = math.sqrt(n_seeds * p * (1 - p))
        assert abs(hits - n_seeds * p) < 4.5 * sigma

    def test_triple_certificate_locality_is_band_bounded(self):
        # both lower points of a rejected triple lie in the widened band
        # below x, so the locality cannot exceed twice the band width
        from setfam.violations import locality

        rng = stream(33)
        band = mid_band(4, 0.5, widened=True)
        seen = 0
        for _ in range(40):
            f = TruthTable(4, int(rng.integers(0, 1 << 16)))
            rep = uc_triple_tester(
                f, TesterConfig(eps=0.5, seed=3, max_iterations=300))
            if rep.verdict == "reject":
                seen += 1
                assert locality(rep.certificate) <= 2 * (band.hi - band.lo)
                assert rep.certificate.holds_for(f)
        assert seen > 0

    def test_pair_tester_rejects_const1_n2(self):
        f = TruthTable(2, 0b1111)
        rep = int_pair_tester(f, TesterConfig(eps=0.2, seed=0, max_iterations=1000))
        assert rep.verdict == "reject"
        assert rep.queries == 2 * rep.iterations_run
        p = rep.certificate
        assert p.x & p.y == 0 and f(p.x) == 1 and f(p.y) == 1


class TestAccounting:
    def test_uc_query_count_formula(self):
        f = TruthTable.from_ones(4, [1, 2, 4, 8, 3])
        cfg = TesterConfig(eps=0.5, seed=9)
        rep = uc_tester(f, cfg)
        band = mid_band(4, 0.5)
        rng = stream(9)
        m = math.ceil(100 / 0.5)
        ws = sample_band_weights(4, band, rng, m)
        rows = rng.random((m, 4))
        import numpy as np

        expected = 0
        for i in range(rep.iterations_run):
            j = int(ws[i])
            x = 0
            for k in np.argsort(rows[i], kind="stable")[:j]:
                x |= 1 << int(k)
            expected += 1 + down_band_count(x, band)
        assert rep.queries == expected

    def test_int_query_count_formula(self):
        f = dictator(6, 2)
        cfg = TesterConfig(eps=0.4, seed=11)
        rep = int_tester(f, cfg)
        band = mid_band(6, 0.4)
        rng = stream(11)
        m = math.ceil(100 / 0.4)
        ws = sample_band_weights(6, band, rng, m)
        rows = rng.random((m, 6))
        import numpy as np

        expected = 0
        for i in range(m):
            j = int(ws[i])
            x = 0
            for k in np.argsort(rows[i], kind="stable")[:j]:
                x |= 1 << int(k)
            expected += 1 + down_band_count(x ^ 63, band)
        assert rep.iterations_run == m and rep.queries == expected


class TestDeterminismAndConfig:
    def test_reports_reproduce_byte_for_byte(self):
        f = TruthTable.from_ones(6, [7, 41, 22, 9])
        cfg = TesterConfig(eps=0.3, seed=1234)
        for alg in (uc_tester, int_tester):
            assert alg(f, cfg).to_json() == alg(f, cfg).to_json()
        cfg2 = TesterConfig(eps=0.3, seed=1234, max_iterations=40)
        for alg in (uc_triple_tester, int_pair_tester):
            assert alg(f, cfg2).to_json() == alg(f, cfg2).to_json()

    def test_different_seeds_differ(self):
        f = TruthTable.from_ones(8, list(range(17, 80, 3)))
        a = uc_tester(f, TesterConfig(eps=0.5, seed=0))
        b = uc_tester(f, TesterConfig(eps=0.5, seed=1))
        assert a.queries != b.queries or a.to_json() != b.to_json()

    def test_bad_eps_rejected(self):
        with pytest.raises(ValueError):
            TesterConfig(eps=1.0)
        with pytest.raises(ValueError):
            TesterConfig(eps=0.0)

    def test_rounds_cap_guards_runaway(self):
        f = dictator(40, 1)
        with pytest.raises(ResourceCapError):
            uc_triple_tester(f, TesterConfig(eps=0.1, seed=0))

    def test_tau_monotone_in_n(self):
        taus = [tau_success_rate(n, 0.25) for n in range(2, 20)]
        assert all(a > b for a, b in zip(taus, taus[1:]))

    def test_enumeration_cap_surfaces_as_error(self):
        f = TruthTable(16, 0)
        with pytest.raises(ResourceCapError):
            uc_tester(f, TesterConfig(eps=0.5, seed=0, enumeration_cap=4))


class TestChunkedRounds:
    def test_memory_stays_bounded_for_a_million_rounds(self):
        # whole-run (rounds x n) float matrices would take 3 * 10^6 * 10 * 8 B
        # = 240 MB here; chunks keep the peak to the weight batch plus one chunk
        import tracemalloc

        f = TruthTable(10, 0)
        tracemalloc.start()
        try:
            rep = uc_triple_tester(f, TesterConfig(eps=0.5, seed=1, max_iterations=10**6))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rep.verdict == "accept" and rep.queries == 3 * 10**6
        assert peak < 32 * 2**20, peak

    def test_chunk_sizes_do_not_change_reports(self, monkeypatch):
        import setfam.testers as T

        rng = stream(78)
        tables = [TruthTable.from_array(6, rng.random(64) < p) for p in (0.1, 0.3, 0.5)]
        tables.append(TruthTable.from_ones(6, [x for x in range(64) if x & 1]))
        runs = [(alg, f, TesterConfig(eps=0.5, seed=s, max_iterations=150))
                for alg in (uc_tester, int_tester, uc_triple_tester, int_pair_tester)
                for f in tables for s in range(3)]
        before = [alg(f, cfg).to_json() for alg, f, cfg in runs]
        monkeypatch.setattr(T, "CHUNK_MIN", 3)
        monkeypatch.setattr(T, "CHUNK_MAX", 7)
        assert [alg(f, cfg).to_json() for alg, f, cfg in runs] == before

    @pytest.mark.parametrize("n", [2, 4, 7])
    def test_point_oracle_gives_the_batch_oracle_report(self, n):
        # a BooleanFunction made without batch is evaluated point by point;
        # the reports must not depend on that
        from setfam.boolfn import BooleanFunction

        rng = stream(77, n)
        for k in range(6):
            density = 0.5 if k % 2 else 0.1  # sparse tables reject late or never
            table = TruthTable.from_array(n, rng.random(1 << n) < density)
            point = BooleanFunction(n, table)
            for alg in (uc_tester, int_tester, uc_triple_tester, int_pair_tester):
                cfg = TesterConfig(eps=0.5, seed=k, max_iterations=300)
                assert alg(point, cfg).to_json() == alg(table, cfg).to_json()


class TestWitnessBlocks:
    class Recording:
        """Oracle that records the size of every batch call."""

        def __init__(self, f):
            self.arity, self.f, self.calls = f.arity, f, []

        def __call__(self, x):
            raise AssertionError("the witness testers evaluate through batch")

        def batch(self, xs):
            self.calls.append(len(xs))
            return self.f.batch(xs)

    def test_early_reject_evaluates_one_block_not_its_chunk(self):
        from setfam.boolfn import BLOCK, const_function

        f = self.Recording(const_function(16, 1))
        rep = int_tester(f, TesterConfig(eps=0.25, seed=4, max_iterations=64))
        assert rep.verdict == "reject" and rep.iterations_run == 1
        assert len(f.calls) == 1 and f.calls[0] <= BLOCK
        # the whole chunk would have been several blocks
        chunk = int_tester(const_function(16, 0),
                           TesterConfig(eps=0.25, seed=4, max_iterations=64))
        assert chunk.queries > 2 * BLOCK

    def test_reject_before_an_over_cap_iteration_still_rejects(self):
        from setfam.boolfn import ResourceCapError, _batch_band_points, const_function

        n, eps, m = 12, 0.5, 64
        band = mid_band(n, eps)
        for seed in range(100):
            rng = stream(seed)
            xs = _batch_band_points(n, sample_band_weights(n, band, rng, m), rng)
            sizes = [down_band_count(int(x) ^ (1 << n) - 1, band) for x in xs]
            if sizes[0] < max(sizes[1:]):
                break
        assert sizes[0] < max(sizes[1:])
        cfg = TesterConfig(eps=eps, seed=seed, max_iterations=m, enumeration_cap=sizes[0])
        rep = int_tester(const_function(n, 1), cfg)
        assert rep.verdict == "reject" and rep.iterations_run == 1
        assert rep.queries == 1 + sizes[0]
        with pytest.raises(ResourceCapError):
            int_tester(const_function(n, 0), cfg)

    def test_a_million_point_downset_stays_in_bounded_memory(self):
        import tracemalloc

        from setfam.boolfn import const_function

        cfg = TesterConfig(eps=0.5, seed=2, max_iterations=1)
        rng = stream(2)
        band = mid_band(40, 0.5)
        x = int(_batch_band_points_of(40, band, rng))
        tracemalloc.start()
        try:
            rep = uc_tester(const_function(40, 0), cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert down_band_count(x, band) > 5 * 10**5
        assert rep.verdict == "accept" and rep.queries == 1 + down_band_count(x, band)
        assert peak < 16 * 2**20, peak


def _batch_band_points_of(n, band, rng):
    from setfam.boolfn import _batch_band_points

    return _batch_band_points(n, sample_band_weights(n, band, rng, 1), rng)[0]


class TestDenseWitnessPath:
    """A TruthTable of at most BLOCK points is answered from its witness table."""

    @staticmethod
    def outcome(alg, f, cfg) -> str:
        try:
            return alg(f, cfg).to_json()
        except EnumerationCapError as err:
            return f"cap {err.predicted} {err.cap}"

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 10, 12])
    def test_reports_match_the_enumeration_path(self, n, monkeypatch):
        import setfam.testers as T
        from setfam.boolfn import BooleanFunction

        built = []
        real = T.witness_table
        monkeypatch.setattr(T, "witness_table", lambda *a: built.append(a) or real(*a))
        rng = stream(91, n)
        seen = set()
        star = np.arange(1 << n) & 1  # union-closed and intersecting: accepted
        for k, density in enumerate((0.03, 0.15, 0.5, 0.9, None)):
            values = star if density is None else rng.random(1 << n) < density
            t = TruthTable.from_array(n, values)
            point = BooleanFunction(n, t, t.batch)
            # one chunk (40), several chunks (300, and ceil(100/eps) = 400)
            for eps, m in ((0.5, 40), (0.9, 300), (0.25, None)):
                for alg in (uc_tester, int_tester):
                    cfg = TesterConfig(eps=eps, seed=7 * k + n, max_iterations=m)
                    count = len(built)
                    got = self.outcome(alg, t, cfg)
                    assert len(built) == count + 1
                    assert got == self.outcome(alg, point, cfg)
                    assert len(built) == count + 1  # the point oracle enumerates
                    seen.add(got.split('"verdict":')[-1][:8])
        assert seen == {'"accept"', '"reject"'}

    @pytest.mark.parametrize("n", [6, 9, 12])
    def test_cap_errors_fire_as_on_the_enumeration_path(self, n):
        from setfam.boolfn import BooleanFunction

        rng = stream(92, n)
        kinds = set()
        for k, density in enumerate((0.05, 0.3, 0.8)):
            t = TruthTable.from_array(n, rng.random(1 << n) < density)
            point = BooleanFunction(n, t, t.batch)
            for cap in (1, 8, 40, 2 ** (n - 2)):
                for alg in (uc_tester, int_tester):
                    cfg = TesterConfig(eps=0.5, seed=k, max_iterations=200,
                                       enumeration_cap=cap)
                    got = self.outcome(alg, t, cfg)
                    assert got == self.outcome(alg, point, cfg)
                    kinds.add(got.split()[0] if got.startswith("cap") else "report")
        assert kinds == {"cap", "report"}

    def test_a_larger_table_enumerates(self, monkeypatch):
        import setfam.testers as T

        monkeypatch.setattr(T, "witness_table", None)  # calling it would raise
        f = TruthTable.from_ones(13, [1, 2])
        rep = uc_tester(f, TesterConfig(eps=0.5, seed=0, max_iterations=20))
        assert rep.verdict == "accept"


class TestExactIterationSuccess:
    """Each iteration of a witness tester rejects with the exact probability
    p = (band points with a witness) / (band points), independently, so R
    iterations reject with probability 1 - (1 - p)^R."""

    @staticmethod
    def far_tables():
        from setfam.distance import disjoint_tuple_count_lb

        rng = stream(93)
        uc = [TruthTable.from_array(8, rng.random(256) < 0.5)]
        closed = {0}
        for g in rng.integers(1, 1024, size=7).tolist():
            closed |= {c | g for c in closed}
        ends = sorted(closed - {0})[-4:]  # a few unions removed: a rare witness
        uc.append(TruthTable.from_ones(10, [c for c in closed if c and c not in ends]))
        star = [x for x in range(512) if x & 1 and rng.random() < 0.5]
        inter = [TruthTable.from_ones(9, star + [star[-1] ^ 511, star[-2] ^ 511]),
                 TruthTable.from_array(10, rng.random(1024) < 0.1)]
        for f in uc:
            assert disjoint_tuple_count_lb(f) >= 1  # far from union-closed
        for f in inter:
            v = f.as_array()
            assert (v & v[::-1]).sum() >= 2  # antipodal 1-pairs: far from intersecting
        return [(uc_tester, True, f) for f in uc] + [(int_tester, False, f) for f in inter]

    def test_reject_counts_match_the_exact_rate(self):
        from setfam.violations import witness_table

        eps, runs = 0.5, 200
        for alg, uc, f in self.far_tables():
            n = f.arity
            band = mid_band(n, eps)
            weights = np.bitwise_count(np.arange(1 << n))
            in_band = (weights >= band.lo) & (weights <= band.hi)
            p = witness_table(f, band, uc)[in_band].mean()
            assert 0 < p < 1
            r = max(1, round(math.log(2) / -math.log1p(-p)))  # rejects about half the runs
            q = 1 - (1 - p) ** r
            rejects = sum(
                alg(f, TesterConfig(eps=eps, seed=s, max_iterations=r)).verdict == "reject"
                for s in range(runs))
            sigma = math.sqrt(runs * q * (1 - q))
            assert abs(rejects - runs * q) <= 5 * sigma, (alg.__name__, n, p, r, rejects)


class TestCertificateReverification:
    def test_uc_certificates_reverify_on_fresh_oracle(self):
        rng = stream(21)
        for _ in range(20):
            tbl = int(rng.integers(0, 1 << 16))
            f = TruthTable(4, tbl)
            rep = uc_tester(f, TesterConfig(eps=0.5, seed=5))
            if rep.verdict == "reject":
                fresh = TruthTable(4, tbl)
                assert rep.certificate.holds_for(fresh)
                assert all(
                    m.bit_count() in mid_band(4, 0.5) for m in rep.certificate.members
                )

    def test_int_certificates_reverify(self):
        rng = stream(22)
        for _ in range(20):
            tbl = int(rng.integers(0, 1 << 16))
            f = TruthTable(4, tbl)
            rep = int_tester(f, TesterConfig(eps=0.5, seed=5))
            if rep.verdict == "reject":
                assert rep.certificate.holds_for(TruthTable(4, tbl))
