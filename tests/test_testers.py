"""Tester behaviour: completeness, soundness, accounting, determinism."""

import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    CHUNK_MAX,
    CHUNK_MIN,
    TesterConfig,
    int_pair_tester,
    int_tester,
    tau_success_rate,
    uc_tester,
    uc_triple_tester,
)

import reference_testers

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

    @staticmethod
    def exact_round_success(f, eps: float, triple: bool) -> Fraction:
        """A round's reject probability, by enumerating (x, y1, y2) or (x, y).

        x is uniform on the banded cube; each y is uniform on the banded
        downset of x (3-query tester, widened band) or of its complement.
        """
        n = f.arity
        band = mid_band(n, eps, widened=triple)
        full = (1 << n) - 1

        def below(z):
            return [y for y in range(1 << n) if y & ~z == 0 and y.bit_count() in band]

        cube = below(full)
        total = Fraction(0)
        for x in cube:
            if triple and f(x) == 0:
                down = below(x)
                ones = [y for y in down if f(y)]
                total += Fraction(sum(y1 | y2 == x for y1 in ones for y2 in ones),
                                  len(down) ** 2)
            elif not triple and f(x) == 1:
                down = below(x ^ full)
                total += Fraction(sum(map(f, down)), len(down))
        return total / len(cube)

    def test_round_success_matches_enumeration_at_small_n(self):
        # one-round runs over many seeds reject Binomial(runs, p) times
        tables = [(uc_triple_tester, TruthTable.from_ones(2, [bits("01"), bits("10")]))]
        tables += [(uc_triple_tester, TruthTable.from_array(n, stream(96, n).random(1 << n) < 0.5))
                   for n in (4, 5)]
        tables += [(int_pair_tester, TruthTable.from_array(n, stream(96, n).random(1 << n) < d))
                   for n, d in ((3, 0.7), (4, 0.5), (5, 0.3))]
        runs, eps = 1000, 0.5
        for alg, f in tables:
            p = self.exact_round_success(f, eps, alg is uc_triple_tester)
            assert p > 0.015, (alg.__name__, f.arity, p)
            if f.arity == 2:
                assert p == Fraction(1, 32)  # the closed form of the toy above
            rejects = sum(
                alg(f, TesterConfig(eps=eps, seed=10**6 + s, max_iterations=1)).verdict == "reject"
                for s in range(runs))
            z = (rejects - runs * p) / math.sqrt(runs * p * (1 - p))
            assert abs(z) < 5, (alg.__name__, f.arity, float(p), rejects)

    #: (tester, n, table seed, density): tables whose witness points fill some
    #: weight classes of the band but not all, with a per-round success p
    #: small enough that a reject rate near 1/2 takes several chunks of rounds
    SPARSE_SUCCESS = [(uc_triple_tester, 4, 11, 0.05), (uc_triple_tester, 5, 3, 0.1),
                      (uc_triple_tester, 6, 79, 0.1), (int_pair_tester, 4, 43, 0.1),
                      (int_pair_tester, 5, 116, 0.1), (int_pair_tester, 6, 22, 0.1)]

    @pytest.mark.parametrize("alg, n, k, density", SPARSE_SUCCESS)
    def test_reject_counts_over_several_chunks_match_the_exact_rate(self, alg, n, k, density):
        # R rounds reject with probability 1 - (1 - p)^R: the chunks that skip
        # their reads must leave the rounds independent and each at p
        import setfam.testers as T

        eps, runs, uc = 0.5, 300, alg is uc_triple_tester
        f = TruthTable.from_array(n, stream(94, n, k).random(1 << n) < density)
        band = mid_band(n, eps, widened=uc)
        witness = reference_testers.witness_array(f, band, uc)
        classes = {int(x).bit_count() for x in np.flatnonzero(witness)}
        assert classes and classes < set(band.weights()), (alg.__name__, n, classes)
        p = float(self.exact_round_success(f, eps, uc))
        rounds = max(200, round(math.log(2) / -math.log1p(-p)))
        q = 1 - (1 - p) ** rounds
        assert len(list(T._chunks(rounds))) >= 3 and 0.2 < q < 0.8, (alg.__name__, n, p)
        rejects = sum(
            alg(f, TesterConfig(eps=eps, seed=2 * 10**6 + s, max_iterations=rounds)).verdict
            == "reject" for s in range(runs))
        z = (rejects - runs * q) / math.sqrt(runs * q * (1 - q))
        assert abs(z) < 5, (alg.__name__, n, p, rounds, rejects)

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

    @pytest.mark.parametrize("alg", [uc_triple_tester, int_pair_tester])
    def test_the_rounds_cap_refusal_carries_its_numbers(self, alg):
        from setfam.testers import ROUNDS_CAP

        rounds = math.ceil(100.0 / tau_success_rate(40, 0.1))
        with pytest.raises(ResourceCapError) as exc:
            alg(dictator(40, 1), TesterConfig(eps=0.1, seed=0))
        assert (exc.value.predicted, exc.value.cap) == (rounds, ROUNDS_CAP)
        assert rounds > ROUNDS_CAP
        assert str(exc.value) == f"{rounds} rounds exceeds the cap {ROUNDS_CAP}; set max_iterations"
        bare = ResourceCapError("no sizes known")
        assert (bare.predicted, bare.cap) == (None, None)

    @pytest.mark.parametrize("tau_constant", [math.nan, math.inf, -math.inf, -50.0, -1e-300])
    def test_a_non_finite_or_negative_tau_constant_is_rejected(self, tau_constant):
        # nan used to escape as "cannot convert float NaN to integer", and -50
        # made tau > eps, one round
        with pytest.raises(ValueError, match="tau_constant"):
            TesterConfig(eps=0.5, tau_constant=tau_constant)

    def test_a_zero_tau_constant_runs_ceil_100_over_eps_rounds(self):
        from setfam.testers import _tau_rounds

        assert _tau_rounds(TesterConfig(eps=0.5, tau_constant=0.0), 8) == 200

    @pytest.mark.parametrize("alg", [uc_triple_tester, int_pair_tester])
    @pytest.mark.parametrize("exponent", [1e6, 1056.0])
    def test_a_tau_too_small_for_a_round_count_meets_the_rounds_cap(self, alg, exponent):
        # tau = eps * 2^-exponent: 0.0 (it used to raise ZeroDivisionError),
        # or subnormal, so that 100 / tau overflows to inf
        from setfam.boolfn import majority
        from setfam.testers import ROUNDS_CAP

        n, eps = 8, 0.5
        c = exponent / (math.sqrt(n * math.log2(n / eps)) * math.log2(n))
        tau = tau_success_rate(n, eps, c)
        assert tau == 0.0 if exponent > 2000 else 0.0 < tau and 100.0 / tau == math.inf
        with pytest.raises(ResourceCapError, match=f"exceeds the cap {ROUNDS_CAP}") as exc:
            alg(majority(n), TesterConfig(eps=eps, tau_constant=c))
        assert (exc.value.predicted, exc.value.cap) == (None, ROUNDS_CAP)

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

    @pytest.mark.parametrize("rounds", [10, 1000])
    def test_an_empty_band_raises_for_one_chunk_or_many(self, rounds):
        import setfam.testers as T
        from setfam.boolfn import Band

        with pytest.raises(ValueError, match="is empty"):
            list(T._RoundReads(4, Band(3, 2), rounds, stream(1), 0, None).chunks())

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


class Recording:
    """Oracle that records the points of every batch call."""

    def __init__(self, f):
        self.arity, self.f, self.calls = f.arity, f, []

    def __call__(self, x):
        raise AssertionError("the testers evaluate through batch")

    def batch(self, xs):
        self.calls.append(np.array(xs))
        return self.f.batch(xs)


class TestRoundCascade:
    """The round testers build y only for rounds that can still reject.

    ``reference_testers`` builds and evaluates every round of a chunk; the
    reports must agree byte for byte.
    """

    ALGS = {"uc": (uc_triple_tester, 3), "int": (int_pair_tester, 2)}  # tester, queries per round

    @staticmethod
    def both(kind, f, cfg):
        alg, _ = TestRoundCascade.ALGS[kind]
        return alg(f, cfg).to_json(), getattr(reference_testers, alg.__name__)(f, cfg).to_json()

    @given(n=st.integers(1, 8), density=st.sampled_from([0.02, 0.1, 0.3, 0.5, 0.7, 0.9, 0.98]),
           table_seed=st.integers(0, 2**16), kind=st.sampled_from(["uc", "int"]),
           eps=st.sampled_from([0.1, 0.25, 0.5, 0.9]), seed=st.integers(0, 2**32),
           rounds=st.integers(1, 300),
           chunks=st.one_of(st.none(), st.tuples(st.integers(1, 6), st.integers(0, 12))))
    @settings(max_examples=300)
    def test_reports_match_the_every_round_reference(
            self, n, density, table_seed, kind, eps, seed, rounds, chunks):
        import setfam.testers as T

        f = TruthTable.from_array(n, stream(table_seed, n).random(1 << n) < density)
        cfg = TesterConfig(eps=eps, seed=seed, max_iterations=rounds)
        with pytest.MonkeyPatch.context() as mp:
            if chunks is not None:
                mp.setattr(T, "CHUNK_MIN", chunks[0])
                mp.setattr(T, "CHUNK_MAX", chunks[0] + chunks[1])
            got, want = self.both(kind, f, cfg)
        assert got == want

    @given(n=st.integers(1, 13), density=st.sampled_from([0.02, 0.1, 0.3, 0.5, 0.7, 0.9, 0.98]),
           table_seed=st.integers(0, 2**16), kind=st.sampled_from(["uc", "int"]),
           eps=st.sampled_from([0.1, 0.25, 0.5, 0.9]), seed=st.integers(0, 2**32),
           rounds=st.integers(1, 300),
           chunks=st.one_of(st.none(), st.tuples(st.integers(1, 6), st.integers(0, 12))))
    @settings(max_examples=200)
    def test_the_witness_table_stage_gives_the_f_x_stage_reports(
            self, n, density, table_seed, kind, eps, seed, rounds, chunks):
        # a table of at most BLOCK points (n <= 12) picks its live rounds from
        # its witness table; the same function behind a BooleanFunction
        # evaluates f(x) instead; n = 13 takes the f(x) stage both ways
        import setfam.testers as T
        from setfam.boolfn import BooleanFunction

        f = TruthTable.from_array(n, stream(table_seed, n).random(1 << n) < density)
        point = BooleanFunction(n, f, f.batch)
        alg, _ = self.ALGS[kind]
        cfg = TesterConfig(eps=eps, seed=seed, max_iterations=rounds)
        with pytest.MonkeyPatch.context() as mp:
            if chunks is not None:
                mp.setattr(T, "CHUNK_MIN", chunks[0])
                mp.setattr(T, "CHUNK_MAX", chunks[0] + chunks[1])
            assert alg(f, cfg).to_json() == alg(point, cfg).to_json()

    def test_grid_covers_accepts_first_round_and_late_rejects(self, monkeypatch):
        import setfam.testers as T

        monkeypatch.setattr(T, "CHUNK_MIN", 2)
        monkeypatch.setattr(T, "CHUNK_MAX", 16)
        seen = {"uc": set(), "int": set()}
        for n in range(1, 9):
            for k, density in enumerate((0.05, 0.2, 0.5, 0.8, 0.97)):
                f = TruthTable.from_array(n, stream(90, n, k).random(1 << n) < density)
                for kind in ("uc", "int"):
                    for seed in range(5):
                        cfg = TesterConfig(eps=0.5, seed=seed, max_iterations=120)
                        got, want = self.both(kind, f, cfg)
                        assert got == want, (n, density, kind, seed)
                        rep = json.loads(got)
                        seen[kind].add("accept" if rep["verdict"] == "accept" else
                                       "first" if rep["iterations_run"] == 1 else
                                       "late" if rep["iterations_run"] > 14 else "early")
        assert {"accept", "first", "late"} <= seen["uc"] & seen["int"], seen

    def test_default_chunks_match_the_reference_past_the_rank_switch(self, monkeypatch):
        # chunks of 2,048 rounds and more pick points by column ranks; the
        # late rejects fall in such a chunk, the accepting runs reach 8,192
        import setfam.boolfn as B
        import setfam.testers as T
        from setfam.boolfn import BooleanFunction

        rows = []  # the rows of each _lowest call: points, then each subset stage, per chunk
        for module in (T, B):  # the testers rank the points, boolfn's _subsets the subsets
            monkeypatch.setattr(module, "_lowest", lambda keys, counts, lowest=B._lowest: (
                rows.append(len(keys)) or lowest(keys, counts)))
        rounds = 16320
        for n in (5, 6, 9):
            dictator_ones = [x for x in range(1 << n) if x & 1]
            accept = {"uc": TruthTable.from_ones(n, [x ^ 1 for x in dictator_ones]),
                      "int": TruthTable.from_ones(n, dictator_ones)}
            k, seed = {5: (0, 7), 6: (1, 0), 9: (1, 7)}[n]  # uc table and seed, int seed
            late = {"uc": (TruthTable.from_array(n, stream(95, n, k).random(1 << n) < 0.05), k),
                    "int": (TruthTable.from_ones(n, [0]), seed)}
            for kind in ("uc", "int"):
                cfg = TesterConfig(0.5, n, rounds)
                # the table's empty witness table marks no class: no point is ranked,
                # and its subset stages get no live row
                rows.clear()
                alg, per_round = self.ALGS[kind]
                assert alg(accept[kind], cfg).verdict == "accept"
                assert rows and not any(rows), (n, kind)
                # the wrapper's f(x) stage sends the rounds with f(x) = 0 (1) on
                rows.clear()
                point = BooleanFunction(n, accept[kind], accept[kind].batch)
                got, want = self.both(kind, point, cfg)
                assert got == want and '"verdict":"accept"' in got, (n, kind)
                large = [r >= B._RANK_ROWS for r in rows]
                assert large.count(True) >= 4, (n, kind)  # points and subsets, in two chunks
                f, seed = late[kind]
                got, want = self.both(kind, f, TesterConfig(0.5, seed, rounds))
                assert got == want, (n, kind)
                assert '"verdict":"reject"' in got and json.loads(got)["iterations_run"] > 1984

    #: (kind, n, density, table seed): sparse tables whose witness points fill
    #: some of the band's weight classes but not all
    PARTIAL = [("uc", 8, 0.01, 2), ("uc", 8, 0.01, 3), ("uc", 9, 0.02, 1),
               ("int", 8, 0.01, 2), ("int", 10, 0.01, 3), ("int", 10, 0.02, 3)]

    @staticmethod
    def partial_table(kind, n, density, k):
        """The table and its witness classes, a proper non-empty subset of its band's."""
        f = TruthTable.from_array(n, stream(93, n, k).random(1 << n) < density)
        band = mid_band(n, 0.5, widened=kind == "uc")
        witness = reference_testers.witness_array(f, band, kind == "uc")
        classes = {int(x).bit_count() for x in np.flatnonzero(witness)}
        assert classes and classes < set(band.weights()), (kind, n, density, k)
        return f, classes

    def test_a_partial_class_mask_gives_the_reference_and_f_x_reports(self, monkeypatch):
        # default chunks, up to 8,192 rounds: the candidates of a large chunk
        # are ranked by column ranks
        import setfam.boolfn as B
        import setfam.testers as T
        from setfam.boolfn import BooleanFunction

        ranked = []  # the rows of each of the point stage's _lowest calls
        monkeypatch.setattr(T, "_lowest", lambda keys, counts, lowest=B._lowest: (
            ranked.append(len(keys)) or lowest(keys, counts)))
        seen = set()
        for kind, n, density, k in self.PARTIAL:
            f, _ = self.partial_table(kind, n, density, k)
            alg, _ = self.ALGS[kind]
            for seed in range(3):
                cfg = TesterConfig(0.5, seed, 16320)
                ranked.clear()
                got, want = self.both(kind, f, cfg)
                large = max(ranked) >= B._RANK_ROWS
                assert got == want == alg(BooleanFunction(n, f, f.batch), cfg).to_json()
                rep = json.loads(got)
                seen.add((kind, rep["verdict"], large and rep["iterations_run"] > 4032))
        assert {(kind, verdict, True) for kind in ("uc", "int")
                for verdict in ("accept", "reject")} <= seen, seen

    @pytest.mark.parametrize("chunking", [None, (2, 16)])
    def test_each_chunk_ranks_the_rounds_of_the_witness_classes(self, chunking, monkeypatch):
        import setfam.boolfn as B
        import setfam.testers as T

        counts = []  # the counts of each of the point stage's _lowest calls
        monkeypatch.setattr(T, "_lowest", lambda keys, cs, lowest=B._lowest: (
            counts.append(cs.tolist()) or lowest(keys, cs)))
        if chunking is not None:
            monkeypatch.setattr(T, "CHUNK_MIN", chunking[0])
            monkeypatch.setattr(T, "CHUNK_MAX", chunking[1])
        tables = [(kind, *self.partial_table(kind, n, density, k))
                  for kind, n, density, k in self.PARTIAL]
        for kind, n in (("uc", 6), ("int", 9)):  # a dictator's table has no witness point
            tables.append((kind, TruthTable.from_ones(
                n, [x ^ (kind == "uc") for x in range(1 << n) if x & 1]), set()))
        skipped = 0
        for kind, f, classes in tables:
            n, (alg, _) = f.arity, self.ALGS[kind]
            band = mid_band(n, 0.5, widened=kind == "uc")
            for seed in range(3):
                counts.clear()
                rep = alg(f, TesterConfig(0.5, seed, 3000))
                want = []
                for (start, _), ws in zip(T._chunks(3000), reference_testers.weight_chunks(
                        n, band, 3000, stream(seed))):
                    if start >= rep.iterations_run:
                        break
                    marked = [w for w in ws.tolist() if w in classes]
                    want += [marked] if marked else []
                    skipped += bool(classes) and not marked
                assert counts == want, (kind, n, seed)
        assert skipped, "no chunk of a run with candidates went unranked"

    @pytest.mark.parametrize("kind", ["uc", "int"])
    def test_each_chunk_evaluates_at_most_every_round(self, kind):
        import setfam.testers as T

        alg, per_round = self.ALGS[kind]
        for k, density in enumerate((0.1, 0.5, 0.9)):
            f = Recording(TruthTable.from_array(6, stream(91, k).random(64) < density))
            rep = alg(f, TesterConfig(eps=0.5, seed=k, max_iterations=5000))
            assert rep.queries == per_round * rep.iterations_run
            chunks = list(T._chunks(5000))
            assert len(f.calls) % per_round == 0
            for c in range(len(f.calls) // per_round):
                start, stop = chunks[c]
                sizes = [len(a) for a in f.calls[per_round * c: per_round * (c + 1)]]
                assert sizes[0] == stop - start  # every x
                assert sizes == sorted(sizes, reverse=True)
                assert sum(sizes) <= per_round * (stop - start)
            if rep.verdict == "reject":  # nothing past the rejecting round's chunk
                start, stop = chunks[len(f.calls) // per_round - 1]
                assert start < rep.iterations_run <= stop

    @pytest.mark.parametrize("kind, value", [("uc", 1), ("int", 0)])
    def test_a_constant_that_cannot_reject_evaluates_only_the_xs(self, kind, value):
        from setfam.boolfn import const_function

        alg, per_round = self.ALGS[kind]
        cfg = TesterConfig(eps=0.5, seed=7, max_iterations=20000)
        f = Recording(const_function(6, value))
        rep = alg(f, cfg)
        assert rep.verdict == "accept" and rep.queries == per_round * rep.iterations_run == per_round * 20000
        every = Recording(const_function(6, value))
        getattr(reference_testers, alg.__name__)(every, cfg)
        xs = [a[: len(a) // per_round] for a in every.calls]  # each call is x, then the ys
        stages = [len(a) if stage == 0 else 0 for a in xs for stage in range(per_round)]
        assert [len(a) for a in f.calls] == stages
        assert np.concatenate(f.calls).tolist() == np.concatenate(xs).tolist()


class Logged:
    """A generator that logs its random() calls; its other attributes are the generator's."""

    def __init__(self, rng, log):
        self.rng, self.log = rng, log

    def random(self, size):
        self.log.append(("rows", size[0]))
        return self.rng.random(size)

    def __getattr__(self, name):
        return getattr(self.rng, name)


def logged_run(alg, f, cfg, x_rows=None, y_rows=None):
    """alg's report and its reads per chunk: [(xs, [("rows" | "draws", count), ...])].

    xs are the chunk's ranked points: every live round's, since a live round's
    class holds a witness point.  Rows are logged at the testers' cursors, so
    in runs of more than one chunk.  A chunk's x rows are logged as their own
    kind, "x rows", from the stream or a cursor alike, and are not in its list;
    x_rows, if given, is filled with each chunk's list of x-row reads (arrays),
    and y_rows with (start, [rows of each y segment]) of each live chunk.
    """
    import setfam.testers as T

    log, live_reads = [], []
    cursor, draws, points = T._cursor, T._downset_draws, T._round_points
    read = T._RoundReads.read

    def round_points(ws, rows, classes):
        def logged_rows():
            mark, keys = len(log), rows()
            log[mark:] = [("x rows", keys)]  # in place of a cursor's "rows" entry
            return keys

        entry = ["points", None]  # before the chunk's x rows, which its cursor may log
        log.append(entry)
        entry[1] = points(ws, logged_rows, classes)
        return entry[1]

    def logged_read(self, start, ws, live):
        rows, us = read(self, start, ws, live)
        if live.size:
            live_reads.append((start, rows))
        return rows, us

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(T, "_cursor", lambda rng, words: Logged(cursor(rng, words), log))
        mp.setattr(T, "_downset_draws", lambda rng, n, band, ws: (
            log.append(("draws", len(ws))) or draws(rng, n, band, ws)))
        mp.setattr(T, "_round_points", round_points)
        mp.setattr(T._RoundReads, "read", logged_read)
        rep = alg(f, cfg)
    chunks, xs_read = [], []
    for kind, value in log:
        if kind == "points":
            chunks.append((value[1], []))
            xs_read.append([])
        elif kind == "x rows":
            xs_read[-1].append(value)
        else:
            chunks[-1][1].append((kind, value))
    if x_rows is not None:
        x_rows[:] = xs_read
    if y_rows is not None:
        y_rows[:] = live_reads
    return rep, chunks


def counted_cursors(alg, f, cfg):
    """alg's report, the number of ``_cursor`` calls it made, and whether each chunk was live."""
    import setfam.testers as T

    opened, live = [], []
    cursor, read = T._cursor, T._RoundReads.read
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(T, "_cursor", lambda rng, words: opened.append(words) or cursor(rng, words))
        mp.setattr(T._RoundReads, "read", lambda self, start, ws, lv: (
            live.append(bool(lv.size)) or read(self, start, ws, lv)))
        rep = alg(f, cfg)
    return rep, len(opened), live


def rare_witness_table(kind: str, n: int) -> TruthTable:
    """A table (n >= 3) with few witness points, which can reject.

    uc: every widened-band point strictly below x0, the band's highest-weight
    point of low bits; x0 is the only witness.  int: b = 0b11 and the points
    inside its complement that miss at most one of its bits; these n points
    are the witnesses, and a round at one of them rejects where y is b.
    """
    if kind == "uc":
        band = mid_band(n, 0.5, widened=True)
        x0 = (1 << min(band.hi, n)) - 1
        return TruthTable.from_ones(n, [y for y in range(x0) if y & x0 == y
                                        and band.lo <= bin(y).count("1") <= band.hi])
    rest = ((1 << n) - 1) ^ 0b11
    return TruthTable.from_ones(n, sorted({0b11, rest} | {rest ^ (1 << i) for i in range(2, n)}))


class TestSkippedReads:
    """A chunk with no live round reads no y row and no downset draw.

    A later live chunk reads the same draws as a run that reads every chunk;
    ``reference_testers`` reads every segment whole.
    """

    # tester, rule, row segments (and downset draws per round)
    KIND = {"uc": (uc_triple_tester, True, 2), "int": (int_pair_tester, False, 1)}

    @staticmethod
    def live(kind, f, xs):
        _, uc, _ = TestSkippedReads.KIND[kind]
        band = mid_band(f.arity, 0.5, widened=uc)
        return bool(reference_testers.witness_array(f, band, uc)[xs.astype(np.intp)].any())

    @pytest.mark.parametrize("kind", ["uc", "int"])
    def test_a_table_with_the_property_reads_no_y_row_and_no_downset_draw(self, kind):
        from setfam.distance import union_closure

        alg, _, _ = self.KIND[kind]
        rng = stream(97)
        for n in range(1, 13):
            for k in range(3):
                values = rng.random(1 << n) < (0.02, 0.2, 0.6)[k]
                if kind == "uc":
                    f = union_closure(TruthTable.from_array(n, values))
                    assert is_union_closed(f)
                else:
                    star = (np.arange(1 << n) >> int(rng.integers(n))) & 1
                    f = TruthTable.from_array(n, values & (star == 1))
                    assert is_intersecting(f)
                rounds = [65, 2000] + ([None] if n in (5, 6) and k == 0 else [])
                for r in rounds:
                    cfg = TesterConfig(eps=0.9 if n == 6 else 0.5, seed=k, max_iterations=r)
                    rep, chunks = logged_run(alg, f, cfg)
                    assert rep.verdict == "accept" and len(chunks) >= 2, (n, k, r)
                    assert all(not reads for _, reads in chunks), (n, k, r)

    @pytest.mark.parametrize("kind", ["uc", "int"])
    def test_the_first_read_is_at_the_first_live_chunk(self, kind):
        import setfam.testers as T

        alg, _, per_chunk = self.KIND[kind]
        lates = 0
        for n, seed, chunking in itertools.product(
                (5, 6, 9), range(20), ((T.CHUNK_MIN, T.CHUNK_MAX), (2, 16))):
            f = rare_witness_table(kind, n)
            cfg = TesterConfig(eps=0.5, seed=seed, max_iterations=3000)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(T, "CHUNK_MIN", chunking[0])
                mp.setattr(T, "CHUNK_MAX", chunking[1])
                rep, chunks = logged_run(alg, f, cfg)
                assert rep.to_json() == getattr(reference_testers, alg.__name__)(f, cfg).to_json()
                sizes = [stop - start for start, stop in T._chunks(3000)]
            first = next(c for c, (xs, _) in enumerate(chunks) if self.live(kind, f, xs))
            assert not any(reads for _, reads in chunks[:first]), (n, seed)
            # the skipped chunks' downset draws, in round order, then the chunk's own reads
            got = chunks[first][1]
            assert got[:first] == [("draws", per_chunk * size) for size in sizes[:first]]
            assert got[first:] == [("rows", sizes[first])] * per_chunk + [
                ("draws", per_chunk * sizes[first])], (n, seed)
            lates += first > 0
        assert lates >= 20, lates

    @pytest.mark.parametrize("kind", ["uc", "int"])
    def test_x_rows_are_read_only_for_the_chunks_with_a_candidate_round(self, kind):
        # a candidate round's weight class holds a witness point; the f(x)
        # stage and a table without witness points mark every class and none.
        # A live chunk's y rows are the rows of their segments at its rounds
        import setfam.testers as T
        from setfam.boolfn import BooleanFunction

        def sizes(x_rows):
            return [[len(rows) for rows in reads] for reads in x_rows]

        def same(x_rows, want):
            return sizes(x_rows) == sizes(want) and all(
                np.array_equal(a, b) for got, rows in zip(x_rows, want) for a, b in zip(got, rows))

        def same_y(y_rows, segments):
            return all(len(rows) == len(segments) - 1 and all(
                np.array_equal(r, segments[k][start:start + len(r)]) for k, r in enumerate(rows, 1))
                for start, rows in y_rows)

        def y_after_a_skip(y_rows):
            return any(start > prev + len(rows[0]) for (prev, rows), (start, _)
                       in zip([(0, [[]])] + y_rows, y_rows))

        alg, uc, count = self.KIND[kind]
        patterns, y_skips = set(), set()
        for n, chunking in itertools.product((5, 6, 9), ((T.CHUNK_MIN, T.CHUNK_MAX), (2, 16))):
            f = rare_witness_table(kind, n)
            band = mid_band(n, 0.5, widened=uc)
            classes = {int(x).bit_count()
                       for x in np.flatnonzero(reference_testers.witness_array(f, band, uc))}
            dictator = TruthTable.from_ones(n, [x ^ uc for x in range(1 << n) if x & 1])
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(T, "CHUNK_MIN", chunking[0])
                mp.setattr(T, "CHUNK_MAX", chunking[1])
                for seed in range(10):
                    cfg = TesterConfig(eps=0.5, seed=seed, max_iterations=3000)
                    x_rows, y_rows = [], []
                    rep, chunks = logged_run(alg, f, cfg, x_rows, y_rows)
                    assert rep.to_json() == getattr(reference_testers, alg.__name__)(
                        f, cfg).to_json(), (n, seed)
                    # each chunk's rows of the whole x segment, which starts where
                    # the weight batch ends, and is followed by the y segments
                    rng = stream(seed)
                    weights = reference_testers.weight_chunks(n, band, 3000, rng)
                    segments = rng.random((count + 1, 3000, n))
                    want, every = [], []
                    for (start, stop), ws in zip(T._chunks(3000), weights):
                        if start >= rep.iterations_run:
                            break
                        rows = segments[0][start:stop]
                        want.append([rows] if classes & set(ws.tolist()) else [])
                        every.append([rows])
                    assert sizes(x_rows) == sizes(want), (n, chunking, seed)
                    assert same(x_rows, want), (n, chunking, seed)
                    assert y_rows and same_y(y_rows, segments), (n, chunking, seed)
                    patterns.add("".join("r" if reads else "s" for reads in x_rows))
                    point = BooleanFunction(n, f, f.batch)
                    assert logged_run(alg, point, cfg, x_rows, y_rows)[0].to_json() == rep.to_json()
                    assert same(x_rows, every), (n, chunking, seed)
                    assert y_rows and same_y(y_rows, segments), (n, chunking, seed)
                    y_skips.add((chunking, y_after_a_skip(y_rows)))
                    accept, chunks = logged_run(alg, dictator, TesterConfig(0.5, seed, 2000),
                                                x_rows)
                    assert accept.verdict == "accept" and len(chunks) >= 2
                    assert x_rows == [[]] * len(chunks), (n, chunking, seed)
        # a read at the first chunk, and a read after skipped chunks from a reopened cursor
        assert any(p.startswith("r") for p in patterns), patterns
        assert any("sr" in p for p in patterns), patterns
        assert {(c, True) for c in ((T.CHUNK_MIN, T.CHUNK_MAX), (2, 16))} <= y_skips, y_skips

    @pytest.mark.parametrize("kind", ["uc", "int"])
    def test_skipped_chunks_then_a_rejecting_live_chunk_give_the_reference_reports(self, kind):
        import setfam.testers as T
        from setfam.boolfn import BooleanFunction

        alg, _, _ = self.KIND[kind]
        seen = {n: set() for n in (5, 6, 9)}
        for n in seen:
            f = rare_witness_table(kind, n)
            point = BooleanFunction(n, f, f.batch)  # the f(x) stage
            for chunking in ((T.CHUNK_MIN, T.CHUNK_MAX), (2, 16)):
                for seed in range(20):
                    cfg = TesterConfig(eps=0.5, seed=seed, max_iterations=3000)
                    with pytest.MonkeyPatch.context() as mp:
                        mp.setattr(T, "CHUNK_MIN", chunking[0])
                        mp.setattr(T, "CHUNK_MAX", chunking[1])
                        rep, chunks = logged_run(alg, f, cfg)
                        want = getattr(reference_testers, alg.__name__)(f, cfg).to_json()
                        assert rep.to_json() == want == alg(point, cfg).to_json(), (n, seed)
                    pattern = "".join("L" if reads else "s" for _, reads in chunks)
                    if rep.verdict == "reject" and "s" in pattern:
                        seen[n].add("skip, then reject")
                    if "Ls" in pattern.rstrip("s"):
                        seen[n].add("live, skip, live")
        assert all(len(s) == 2 for s in seen.values()), seen

    def test_pair_tester_memory_stays_bounded_for_a_million_rounds(self):
        import tracemalloc

        values = stream(98).random(1 << 10) < 0.7
        f = TruthTable.from_array(10, values & ((np.arange(1 << 10) >> 3) & 1 == 1))
        assert is_intersecting(f)
        tracemalloc.start()
        try:
            rep = int_pair_tester(f, TesterConfig(eps=0.5, seed=1, max_iterations=10**6))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rep.verdict == "accept" and rep.queries == 2 * 10**6
        assert peak < 32 * 2**20, peak

    def test_a_late_live_chunk_catches_up_in_bounded_memory(self):
        # f(x) = 1 iff x holds all or none of the low 19 bits, at n = 22: about
        # 1.9e-6 of the rounds are live.  Seed 3 skips its first 107 chunks; a
        # round of chunk 107 with x >= K draws y inside ~K and rejects
        import tracemalloc

        import setfam.testers as T
        from setfam.boolfn import BooleanFunction

        n, low = 22, (1 << 19) - 1
        k = np.uint64(low)
        f = BooleanFunction(n, lambda x: int(x & low in (0, low)),
                            lambda xs: ((xs & k == k) | (xs & k == 0)).astype(np.uint8))
        cfg = TesterConfig(eps=0.5, seed=3, max_iterations=10**6)
        tracemalloc.start()
        try:
            rep = int_pair_tester(f, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20, peak
        assert rep.verdict == "reject" and rep.iterations_run == 834640
        logged, chunks = logged_run(int_pair_tester, f, cfg)
        assert logged.to_json() == rep.to_json()
        starts = [start for start, _ in T._chunks(10**6)]
        last = len(chunks) - 1
        assert starts[last] < rep.iterations_run <= starts[last + 1]
        assert not any(reads for _, reads in chunks[:last])
        assert chunks[last][1][:last] == [("draws", min(64 << c, 8192)) for c in range(last)]
        assert rep.to_json() == reference_testers.int_pair_tester(f, cfg).to_json()


class TestCursorCount:
    """A run of one chunk reads the stream itself; a longer one opens each reader once.

    The readers of a longer run are the weight cursor, one per row segment
    and one for the scalar draws, while every chunk follows the last read.
    """

    KIND = TestSkippedReads.KIND

    @pytest.mark.parametrize("kind", ["uc", "int"])
    def test_a_run_of_one_chunk_opens_no_cursor(self, kind):
        from setfam.boolfn import BooleanFunction

        alg, _, _ = self.KIND[kind]
        rng, lives = stream(101), 0
        for n, seed in itertools.product((4, 5, 6), range(4)):
            f = TruthTable.from_array(n, rng.random(1 << n) < 0.5)
            for g in (f, BooleanFunction(n, f, f.batch)):
                for rounds in (1, 40, CHUNK_MIN):
                    cfg = TesterConfig(eps=0.5, seed=seed, max_iterations=rounds)
                    rep, opened, live = counted_cursors(alg, g, cfg)
                    assert rep.to_json() == getattr(reference_testers, alg.__name__)(
                        f, cfg).to_json(), (n, seed, rounds)
                    assert live and opened == 0, (n, seed, rounds, opened)
                    lives += live == [True]
        assert lives >= 40, lives

    @pytest.mark.parametrize("chunking", [(CHUNK_MIN, CHUNK_MAX), (16, 64)])
    @pytest.mark.parametrize("kind", ["uc", "int"])
    def test_a_run_live_in_every_chunk_opens_each_reader_once(self, kind, chunking,
                                                             monkeypatch):
        # a dictator has the property, and the f(x) stage finds live rounds
        # in every chunk: f(x) = 0 (uc) or 1 (int) at half the points
        import setfam.testers as T
        from setfam.boolfn import BooleanFunction

        monkeypatch.setattr(T, "CHUNK_MIN", chunking[0])
        monkeypatch.setattr(T, "CHUNK_MAX", chunking[1])
        alg, uc, count = self.KIND[kind]
        for n, seed in itertools.product((4, 6, 9), range(3)):
            dictator = TruthTable.from_ones(n, [x ^ uc for x in range(1 << n) if x & 1])
            cfg = TesterConfig(eps=0.5, seed=seed, max_iterations=1000)
            rep, opened, live = counted_cursors(alg, BooleanFunction(n, dictator, dictator.batch),
                                                cfg)
            assert rep.verdict == "accept"
            assert rep.to_json() == getattr(reference_testers, alg.__name__)(
                dictator, cfg).to_json(), (n, seed)
            assert len(live) == len(list(T._chunks(1000))) and all(live), (n, seed)
            # x, the y segments, the scalar draws and the weights
            assert opened == count + 3, (n, seed, opened)


def logged_weight_draws(alg, f, cfg):
    """alg's report and its weight draws in order: [(source, size), ...].

    Every ``_band_draws`` call is logged: a chunk's weights
    (``boolfn.sample_band_weights``) and the catch-up to W
    (``testers._band_draws``) alike.  source is "replay" for a draw made while
    a live chunk replays the skipped chunks' weights, else "stream" for a draw
    from the run's own stream and "cursor" for one from the weight cursor.
    """
    import setfam.boolfn as B
    import setfam.testers as T

    log, runs, replaying = [], [], []
    band_draws, read, make = B._band_draws, T._RoundReads.read, T.stream

    def draws(n, band, rng, size):
        log.append(("replay" if replaying else "stream" if rng is runs[0] else "cursor", size))
        return band_draws(n, band, rng, size)

    def logged_read(self, *args):
        replaying.append(True)
        try:
            return read(self, *args)
        finally:
            replaying.pop()

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(T, "stream", lambda *seed: runs.append(make(*seed)) or runs[-1])
        mp.setattr(B, "_band_draws", draws)
        mp.setattr(T, "_band_draws", draws)
        mp.setattr(T._RoundReads, "read", logged_read)
        rep = alg(f, cfg)
    return rep, log


def weight_draws_of(sizes, first, last, live=()):
    """The weight draws [(source, size), ...] of a run whose chunks have the given sizes.

    Each chunk up to first, the first chunk to read past the weight batch
    (None for none), draws from the stream, and chunk first then draws the
    rest of the batch there; the later ones draw from the weight cursor, up to
    last, the run's last chunk.  Each chunk in live first replays the chunks
    skipped since the previous one.
    """
    want, pending = [], []
    for c, size in enumerate(sizes[: last + 1]):
        want.append(("stream" if first is None or c <= first else "cursor", size))
        if c == first:
            want += [("stream", s) for s in sizes[c + 1:]]
        if c in live:
            want += [("replay", s) for s in pending]
            pending = []
        else:
            pending.append(size)
    return want


class TestWeightDraws:
    """A run draws its weights from the stream until a chunk first reads past the batch.

    Only then are the rest of the batch's draws made, to reach W, and the
    later chunks' weights drawn again from a cursor.
    """

    KIND = TestSkippedReads.KIND
    CHUNKINGS = ((CHUNK_MIN, CHUNK_MAX), (2, 16))

    @staticmethod
    def sizes(rounds):
        import setfam.testers as T

        return [stop - start for start, stop in T._chunks(rounds)]

    @pytest.mark.parametrize("chunking", CHUNKINGS)
    @pytest.mark.parametrize("kind", ["uc", "int"])
    def test_a_run_with_no_candidate_round_draws_each_weight_once(self, kind, chunking,
                                                                 monkeypatch):
        import setfam.testers as T
        from setfam.distance import union_closure

        monkeypatch.setattr(T, "CHUNK_MIN", chunking[0])
        monkeypatch.setattr(T, "CHUNK_MAX", chunking[1])
        alg, uc, _ = self.KIND[kind]
        rng = stream(99)
        for n in range(3, 11):
            values = rng.random(1 << n) < 0.3
            if uc:
                f = union_closure(TruthTable.from_array(n, values))
            else:
                f = TruthTable.from_array(n, values & ((np.arange(1 << n) >> (n // 2)) & 1 == 1))
            dictator = TruthTable.from_ones(n, [x ^ uc for x in range(1 << n) if x & 1])
            for g, seed in itertools.product((f, dictator), range(2)):
                cfg = TesterConfig(eps=0.5, seed=seed, max_iterations=2000)
                rep, log = logged_weight_draws(alg, g, cfg)
                assert rep.verdict == "accept"
                assert rep.to_json() == getattr(reference_testers, alg.__name__)(g, cfg).to_json()
                assert log == [("stream", size) for size in self.sizes(2000)], (n, seed)

    @pytest.mark.parametrize("kind", ["uc", "int"])
    def test_the_first_candidate_chunk_draws_the_rest_of_the_batch(self, kind):
        # chunks 0..k, k the first chunk with a candidate round, are drawn once,
        # the rest of the batch at chunk k, and the chunks after it again from
        # the cursor; the f(x) stage reads x rows from chunk 0 on, so k = 0
        import setfam.testers as T
        from setfam.boolfn import BooleanFunction

        alg, uc, _ = self.KIND[kind]
        seen = set()
        for n, (lo, hi) in itertools.product((5, 6, 9), self.CHUNKINGS):
            f = rare_witness_table(kind, n)
            band = mid_band(n, 0.5, widened=uc)
            classes = {int(x).bit_count()
                       for x in np.flatnonzero(reference_testers.witness_array(f, band, uc))}
            point = BooleanFunction(n, f, f.batch)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(T, "CHUNK_MIN", lo)
                mp.setattr(T, "CHUNK_MAX", hi)
                sizes = self.sizes(3000)
                for seed in range(10):
                    cfg = TesterConfig(eps=0.5, seed=seed, max_iterations=3000)
                    weights = reference_testers.weight_chunks(n, band, 3000, stream(seed))
                    want = getattr(reference_testers, alg.__name__)(f, cfg).to_json()
                    first = next((c for c, ws in enumerate(weights)
                                  if classes & set(ws.tolist())), None)
                    for g in (f, point):
                        rep, log = logged_weight_draws(alg, g, cfg)
                        assert rep.to_json() == want, (n, seed)
                        _, chunks = logged_run(alg, g, cfg)
                        live = {c for c, (_, reads) in enumerate(chunks) if reads}
                        k = first if g is f else 0
                        assert log == weight_draws_of(sizes, k, len(chunks) - 1, live), (n, seed)
                        if g is f and k is not None:
                            seen.add("first" if k == 0 else "later" if k < len(chunks) - 1
                                     else "last")
        assert {"first", "later"} <= seen, seen

    @pytest.mark.parametrize("chunking", CHUNKINGS)
    @pytest.mark.parametrize("alg", [uc_tester, int_tester])
    def test_the_witness_testers_reach_w_at_their_first_chunk(self, alg, chunking, monkeypatch):
        # their xs follow the weight batch from the first chunk on, so chunk 0
        # is drawn once and every later chunk up to the last one run twice
        import setfam.testers as T

        monkeypatch.setattr(T, "CHUNK_MIN", chunking[0])
        monkeypatch.setattr(T, "CHUNK_MAX", chunking[1])
        rng = stream(100)
        lasts = set()
        for n in range(2, 9):
            for density in (0.1, 0.5, 0.9):
                f = TruthTable.from_array(n, rng.random(1 << n) < density)
                for rounds in (1, 100, 1000):
                    rep, log = logged_weight_draws(alg, f, TesterConfig(0.5, 3, rounds))
                    sizes = self.sizes(rounds)
                    last = next(c for c, stop in enumerate(itertools.accumulate(sizes))
                                if stop >= rep.iterations_run)
                    assert log == weight_draws_of(sizes, 0, last), (n, density, rounds)
                    lasts.add(last > 0)
        assert lasts == {False, True}, lasts

    def test_a_catch_up_at_a_million_rounds_stays_bounded(self):
        # an intersecting table of 2^13 points takes the f(x) stage, so chunk 0
        # reads its x rows and draws the other 121 chunks' weights to reach W
        import tracemalloc

        import setfam.testers as T

        n, low = 13, np.uint64(0b111111)
        f = TruthTable.from_array(n, np.arange(1 << n, dtype=np.uint64) & low == low)
        assert is_intersecting(f)
        tracemalloc.start()
        try:
            rep, log = logged_weight_draws(
                int_pair_tester, f, TesterConfig(eps=0.5, seed=1, max_iterations=10**6))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rep.verdict == "accept" and rep.queries == 2 * 10**6
        assert peak < 32 * 2**20, peak
        sizes = self.sizes(10**6)
        assert [d for d in log if d[0] != "replay"] == weight_draws_of(sizes, 0, len(sizes) - 1)
        assert max(size for _, size in log) == T.CHUNK_MAX


class TestWitnessBlocks:
    def test_early_reject_evaluates_one_block_not_its_chunk(self):
        from setfam.boolfn import BLOCK, const_function

        f = Recording(const_function(16, 1))
        rep = int_tester(f, TesterConfig(eps=0.25, seed=4, max_iterations=64))
        assert rep.verdict == "reject" and rep.iterations_run == 1
        assert len(f.calls) == 1 and len(f.calls[0]) <= BLOCK
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
            p = witness_table(f, band, uc).as_array()[in_band].mean()
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
