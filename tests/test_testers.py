"""Tester behaviour: completeness, soundness, accounting, determinism."""

import math

import pytest

from setfam.boolfn import (
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
        # BooleanFunction has no batch method, so the testers evaluate it
        # point by point; the reports must not depend on that
        from setfam.boolfn import BooleanFunction

        rng = stream(77, n)
        for k in range(6):
            density = 0.5 if k % 2 else 0.1  # sparse tables reject late or never
            table = TruthTable.from_array(n, rng.random(1 << n) < density)
            point = BooleanFunction(n, table)
            for alg in (uc_tester, int_tester, uc_triple_tester, int_pair_tester):
                cfg = TesterConfig(eps=0.5, seed=k, max_iterations=300)
                assert alg(point, cfg).to_json() == alg(table, cfg).to_json()


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
