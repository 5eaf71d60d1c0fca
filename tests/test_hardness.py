"""Random DNFs, adversarial instances, and the Monte Carlo estimators."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setfam.boolfn import TruthTable
from setfam.violations import TripleCertificate
from setfam.distance import dist_int_exact, is_intersecting, is_union_closed
from setfam.hardness import (
    BadEventParams,
    _unique_terms,
    bad_pair_bound,
    build_int_instance,
    build_uc_instance,
    count_int_no_violations,
    count_uc_no_violations,
    estimate_bad_probability,
    load_instance,
    sample_talagrand,
    talagrand_params,
    uc_no_r_tally,
    unique_sat_probability,
    unique_sat_window,
    wilson_interval,
)
from setfam.rng import stream

import reference_instances as ref


class TestTalagrand:
    def test_params_n25(self):
        assert talagrand_params(25, 1.0) == (5, 3)  # 0.1 * 2^5 = 3.2 -> 3

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            talagrand_params(4, 1.0)  # 0.1 * 2^2 = 0.4 -> 0

    def test_sampled_shape(self):
        dnf = sample_talagrand(25, 1.0, stream(1))
        assert dnf.num_terms == 3 and dnf.term_size == 5
        for coords in dnf.term_coordinate_lists():
            assert 1 <= len(coords) <= 5
            assert all(1 <= c <= 25 for c in coords)

    def test_monotone_sat_sets(self):
        rng = stream(2)
        dnf = sample_talagrand(16, 0.5, rng)
        for _ in range(300):
            x = int(rng.integers(0, 1 << 16))
            y = x | int(rng.integers(0, 1 << 16))
            sx, sy = set(ref.sat_terms(dnf, x)), set(ref.sat_terms(dnf, y))
            assert sx <= sy
            assert ref.dnf_value(dnf, x) == (1 if sx else 0)

    def test_unique_term(self):
        dnf = sample_talagrand(25, 1.0, stream(3))
        full = (1 << 25) - 1
        assert ref.sat_count(dnf, full) == dnf.num_terms
        assert _unique_terms(np.array([0], dtype=np.uint64), dnf.terms).tolist() == [-1]

    @given(st.lists(st.integers(0, 2**10 - 1), max_size=6),
           st.lists(st.integers(0, 2**10 - 1), min_size=1, max_size=40))
    @settings(max_examples=200)
    def test_unique_term_scalar_and_vector_agree(self, terms, xs):
        terms = tuple(terms)
        got = _unique_terms(np.array(xs, dtype=np.uint64), terms)
        for x, ell in zip(xs, got.tolist()):
            sat = [i for i, t in enumerate(terms) if x & t == t]
            want = sat[0] if len(sat) == 1 else (-1 if not sat else -2)
            assert ref.unique_term(x, terms) == ell == want


class TestUniqueSat:
    def test_window_rounding(self):
        assert unique_sat_window(25, 1.0) == [13]  # empty inward window -> ceil(n/2)
        assert unique_sat_window(36, 1.0) == [18]
        assert unique_sat_window(49, 1.0) == [25]
        assert unique_sat_window(400, 1.0) == [200, 201]

    def test_all_ones_input(self):
        # every term is satisfied at 1^n, so P[exactly one] = 0 for L = 3
        res = unique_sat_probability(25, 1.0, 2000, stream(4), weights=[25])
        assert res.per_weight[25][0] == 0.0

    def test_all_zeros_input(self):
        res = unique_sat_probability(25, 1.0, 2000, stream(5), weights=[0])
        assert res.per_weight[0][0] == 0.0

    def test_proof_constant_at_n25(self):
        res = unique_sat_probability(25, 1.0, 20000, stream(6))
        est, lo, hi = res.per_weight[13]
        assert lo > 0.03
        assert lo <= est <= hi

    def test_estimator_matches_binomial_law(self):
        # |S_T(x)| is Binomial(L, (w/n)^s) exactly; check against closed form
        n, eps, w = 16, 0.5, 9
        s, L = talagrand_params(n, eps)
        p = (w / n) ** s
        expect = L * p * (1 - p) ** (L - 1)
        res = unique_sat_probability(n, eps, 40000, stream(7), weights=[w])
        est = res.per_weight[w][0]
        sigma = math.sqrt(expect * (1 - expect) / 40000)
        assert abs(est - expect) < 4.5 * sigma

    def test_memory_is_bounded_by_blocks_not_trials(self):
        # 16,384 trials at a time would be a (16384, 102, 10) int64 block: 128 MiB
        import tracemalloc

        tracemalloc.start()
        try:
            res = unique_sat_probability(25, 0.5, 20000, stream(13))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res.trials == 20000 and 0.0 < res.pooled[0] < 1.0
        assert peak < 8 * 2**20, peak

    def test_memory_is_bounded_when_one_trial_exceeds_a_block(self):
        # one trial at n=400, eps=1 is 104,857 terms x 20 draws: 16 MiB of int64
        import tracemalloc

        tracemalloc.start()
        try:
            res = unique_sat_probability(400, 1.0, 2, stream(17))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res.trials == 2 and len(res.per_weight) == 2
        assert peak < 8 * 2**20, peak

    def test_trial_rows_drawn_in_blocks_read_the_whole_trial_draw(self):
        from setfam.hardness import _DRAW_BLOCK, _term_draws

        size, terms = talagrand_params(400, 1.0)
        rows = _DRAW_BLOCK // size
        assert terms > 3 * rows  # each trial spans several blocks of rows
        weights = np.array([250, 300])[:, None, None, None]
        runs = list(_term_draws(stream(5), 400, 2, terms, size,
                                lambda lo, draws: (draws < weights).all(axis=-1)))
        counts = np.concatenate([c for c, _ in runs], axis=1)
        firsts = np.concatenate([f for _, f in runs], axis=1)
        rng = stream(5)
        whole = [(rng.integers(0, 400, size=(terms, size)) < weights[:, 0]).all(axis=-1)
                 for _ in range(2)]
        sat = np.stack(whole, axis=1)  # (weight, trial, term)
        assert counts.tolist() == sat.sum(axis=-1).tolist() and counts.min() > 1
        assert firsts.tolist() == sat.argmax(axis=-1).tolist()
        # some first satisfied term lies past the first block, and some
        # trial has satisfied terms in a later block than its first
        assert firsts.max() >= rows
        last = terms - 1 - sat[..., ::-1].argmax(axis=-1)
        assert (last // rows > firsts // rows).any()

    def test_wilson_sanity(self):
        lo, hi = wilson_interval(900, 1000)
        assert 0.85 < lo < 0.9 < hi < 0.93


class TestIntersectInstances:
    def test_yes_is_intersecting_small(self):
        for seed in range(5):
            inst = build_int_instance("yes", 16, 0.5, seed)
            assert inst.a == 8 and inst.arity == 18
            assert is_intersecting(inst.materialize())

    def test_equal_selector_bits_are_zero(self):
        inst = build_int_instance("yes", 16, 0.5, 3)
        f = inst.function()
        rng = stream(8)
        n = inst.n
        for _ in range(200):
            x = int(rng.integers(0, 1 << n))
            assert f(x) == 0  # (x, 0, 0)
            assert f(x | (1 << n) | (1 << (n + 1))) == 0  # (x, 1, 1)

    def test_no_kind_bottom_row(self):
        # unique term + bit set + action weight below band -> value 1 on (x,0,1)
        inst = build_int_instance("no", 16, 0.5, 17)
        n, a = inst.n, inst.a
        f = inst.materialize()
        hits = 0
        for x in range(1 << n):
            ell = ref.unique_term(x, inst.term_masks)
            if ell < 0 or inst.b[ell] != 1:
                continue
            wa = (x & inst.action_mask).bit_count()
            d = 2 * wa - a
            if d < 0 and d * d > 4 * a:
                hits += 1
                assert f(x | (1 << (n + 1))) == 1
        assert hits > 0

    @pytest.mark.parametrize("kind", ["yes", "no"])
    def test_materialize_matches_pointwise_eval(self, kind):
        inst = build_int_instance(kind, 12, 0.5, 2)
        table = inst.materialize()
        f = inst.function()
        rng = stream(9)
        for _ in range(500):
            u = int(rng.integers(0, 1 << inst.arity))
            assert table(u) == f(u)

    def test_materialize_evaluates_in_bounded_blocks(self):
        # one batch over all 2^18 points peaked at 8 MiB; blocks of 2^15 take 2 MiB
        import tracemalloc

        inst = build_int_instance("no", 16, 0.5, 1)
        whole = TruthTable.from_array(18, inst.batch(np.arange(1 << 18, dtype=np.uint64)))
        tracemalloc.start()
        try:
            table = inst.materialize()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert table == whole
        assert peak < 4 * 2**20, peak

    def test_one_sided_explicit_violating_pair(self):
        # wa = 0 sits below n/200 - K at this eps; pair x with the point
        # carrying the same control part and the full action set
        inst = build_int_instance("one_sided_no", 61, 0.999, 7)
        assert count_int_no_violations(inst) > 0
        n = inst.n
        k = math.sqrt(n * math.log(1 / inst.eps))
        w = math.floor(n / 2)  # inside [n/2 - 10K, n/2]
        assert n / 2 - 10 * k <= w <= n / 2
        x = 0
        for c in inst.control_coords[:w]:
            x |= 1 << c
        y = x | inst.action_mask
        f = inst.function()
        u = x | (1 << (n + 1))  # (x, 0, 1)
        v = (y ^ ((1 << n) - 1)) | (1 << n)  # (complement of y, 1, 0)
        assert f(u) == 1 and f(v) == 1 and u & v == 0

    def test_no_count_certifies_distance(self):
        inst = build_int_instance("no", 12, 0.5, 41)
        count = count_int_no_violations(inst)
        if count:
            # the sandwich gives dist >= |M| / 2^arity; verify via exact
            # distance on the materialized table at this small size
            table = inst.materialize()
            res = dist_int_exact(table, max_ones=200) if table.count_ones() <= 200 else None
            if res is not None:
                assert res.value >= count / (1 << inst.arity)

    def test_yes_kind_counts_zero(self):
        inst = build_int_instance("yes", 16, 0.5, 1)
        assert count_int_no_violations(inst) == 0

    def test_no_count_matches_explicit_pair_construction(self):
        # rebuild the counted pairs point by point: for each control part
        # with an active unique term, pair each bottom-level action point
        # with its matched partner's complement on the other selector side
        from setfam.hardness import _action_region
        from setfam.violations import level_matching

        inst = build_int_instance("no", 12, 0.5, 23)
        n, a = inst.n, inst.a
        m = n - a
        f = inst.materialize()
        control_full = 0
        for c in inst.control_coords:
            control_full |= 1 << c
        good_controls = []
        for v in range(1 << m):
            xc = 0
            for i, c in enumerate(inst.control_coords):
                if (v >> i) & 1:
                    xc |= 1 << c
            sat = [i for i, t in enumerate(inst.term_masks) if xc & t == t]
            if len(sat) == 1 and inst.b[sat[0]] == 1:
                good_controls.append(xc)
        pairs = []
        for w in range(a + 1):
            if _action_region(w, a) != -1:
                continue
            matching = level_matching(a, w)
            for xc in good_controls:
                for low_abs, high_abs in matching:
                    xa = 0
                    ya = 0
                    for i, c in enumerate(inst.action_coords):
                        if (low_abs >> i) & 1:
                            xa |= 1 << c
                        if not (high_abs >> i) & 1:  # complement of the match
                            ya |= 1 << c
                    u = xc | xa | (1 << (n + 1))  # (x, 0, 1)
                    v = (xc ^ control_full) | ya | (1 << n)  # (comp, y, 1, 0)
                    assert f(u) == 1 and f(v) == 1 and u & v == 0
                    pairs.append((u, v))
        assert len(pairs) == count_int_no_violations(inst)
        points = [p for pair in pairs for p in pair]
        assert len(points) == len(set(points))

    def test_all_b_zero_gives_zero_count(self):
        inst = build_int_instance("no", 16, 0.5, 1)
        reset = type(inst)(
            inst.kind, inst.n, inst.eps, inst.seed, inst.a, inst.action_coords,
            inst.control_coords, inst.dnf, inst.term_masks,
            tuple(0 for _ in inst.b),
        )
        assert count_int_no_violations(reset) == 0

    def test_one_sided_layout(self):
        # thresholds only open up for eps near 1 at dense-point scales
        inst = build_int_instance("one_sided_no", 61, 0.999, 5)
        assert inst.a == 1 and inst.arity == 63
        f = inst.function()
        n = inst.n
        rng = stream(10)
        xs = np.array([int(rng.integers(0, 1 << 62) % (1 << n)) for _ in range(300)],
                      dtype=np.uint64)
        assert not f.batch(xs).any() and not f.batch(xs | np.uint64(3 << n)).any()
        v1 = f.batch(xs | np.uint64(1 << (n + 1)))  # (x, 0, 1)
        v2 = f.batch(xs | np.uint64(1 << n))  # (x, 1, 0)
        assert v1.tolist() == v2.tolist() and v1.any()

    def test_one_sided_degenerate_n(self):
        with pytest.raises(ValueError):
            build_int_instance("one_sided_no", 16, 0.5, 0)

    def test_one_sided_pair_count_certifies(self):
        # verify the closed-form count against a brute scan at small scale
        inst = build_int_instance("one_sided_no", 61, 0.999, 7)
        count = count_int_no_violations(inst)
        assert count > 0
        n, a = inst.n, inst.a
        k2 = n * math.log(1 / inst.eps)
        brute = 0
        for wa in range(a + 1):
            for wc in range(n - a + 1):
                w = wa + wc
                e = n - 200 * wa
                below = e > 0 and e * e > 40000.0 * k2
                above = e <= 0 or e * e <= 1000000.0 * k2
                d = n - 2 * w
                window = d >= 0 and d * d <= 400.0 * k2
                if below and above and window:
                    brute += math.comb(a, wa) * math.comb(n - a, wc)
        assert count == brute

    def test_json_roundtrip_regenerates_identical(self):
        inst = build_int_instance("no", 14, 0.5, 77)
        again = load_instance(inst.to_json_obj())
        assert again == inst
        assert again.materialize() == inst.materialize()


class TestUcInstances:
    def test_yes_is_union_closed(self):
        for seed in range(5):
            inst = build_uc_instance("yes", 16, 1 / 16, seed)
            assert inst.a == 4
            assert is_union_closed(inst.materialize())

    def test_yes_union_closed_at_other_eps(self):
        for seed in range(3):
            inst = build_uc_instance("yes", 16, 1 / 4, seed)
            assert inst.a == 2
            assert is_union_closed(inst.materialize())

    @pytest.mark.parametrize("kind", ["yes", "no"])
    def test_materialize_matches_pointwise_eval(self, kind):
        inst = build_uc_instance(kind, 14, 1 / 4, 8)
        table = inst.materialize()
        f = inst.function()
        rng = stream(19)
        for _ in range(500):
            u = int(rng.integers(0, 1 << inst.n))
            assert table(u) == f(u)

    def test_eps_must_be_power_of_half(self):
        with pytest.raises(ValueError):
            build_uc_instance("yes", 16, 0.1, 0)

    def test_no_kind_triple_structure(self):
        found = False
        for seed in range(40):
            inst = build_uc_instance("no", 16, 1 / 16, seed)
            if count_uc_no_violations(inst) == 0:
                continue
            found = True
            f = inst.function()
            amask = inst.action_mask
            # locate one control assignment with an active unique term
            for ell in range(inst.dnf.num_terms):
                if inst.b[ell] != 1 or inst.r[ell] in (0, amask):
                    continue
                base = inst.term_masks[ell]
                if sum(1 for t in inst.term_masks if base & t == t) != 1:
                    continue
                y1 = base | inst.r[ell]
                y2 = base | (inst.r[ell] ^ amask)
                end = base | amask
                cert = TripleCertificate(y1, y2, end)
                assert cert.holds_for(f)
                break
            break
        assert found

    def test_yes_kind_count_is_zero(self):
        inst = build_uc_instance("yes", 16, 1 / 16, 4)
        assert count_uc_no_violations(inst) == 0

    def test_all_b_zero_means_no_ones_outside_multi_term_region(self):
        inst = build_uc_instance("no", 16, 1 / 16, 6)
        silenced = type(inst)(
            inst.kind, inst.n, inst.eps, inst.seed, inst.a, inst.action_coords,
            inst.control_coords, inst.dnf, inst.term_masks, (),
            inst.r, tuple(0 for _ in inst.b),
        )
        for x in silenced.materialize().ones():
            assert sum(1 for t in silenced.term_masks if x & t == t) >= 2

    def test_all_r_bad_means_zero_count(self):
        inst = build_uc_instance("no", 16, 1 / 16, 0)
        frozen = type(inst)(
            inst.kind, inst.n, inst.eps, inst.seed, inst.a, inst.action_coords,
            inst.control_coords, inst.dnf, inst.term_masks, (),
            tuple(0 for _ in inst.r), inst.b,
        )
        assert count_uc_no_violations(frozen) == 0
        good, bad = uc_no_r_tally(frozen)
        assert good == 0 and bad == len(inst.r)

    def test_count_certifies_exactly_disjoint_triples(self):
        from setfam.distance import disjoint_tuple_count_lb

        for seed in range(8):
            inst = build_uc_instance("no", 16, 1 / 16, seed)
            count = count_uc_no_violations(inst)
            table = inst.materialize()
            if count:
                assert not is_union_closed(table)
                assert disjoint_tuple_count_lb(table) >= count

    def test_no_count_matches_explicit_triple_construction(self):
        # one triple per counted control part: the two secret action points
        # and their true union (same control part, all action bits set)
        checked = 0
        for seed in range(12):
            inst = build_uc_instance("no", 16, 1 / 16, seed)
            f = inst.materialize()
            amask = inst.action_mask
            triples = []
            for v in range(1 << (inst.n - inst.a)):
                xc = 0
                for i, c in enumerate(inst.control_coords):
                    if (v >> i) & 1:
                        xc |= 1 << c
                sat = [i for i, t in enumerate(inst.term_masks) if xc & t == t]
                if len(sat) != 1:
                    continue
                ell = sat[0]
                if inst.b[ell] != 1 or inst.r[ell] in (0, amask):
                    continue
                cert = TripleCertificate(
                    xc | inst.r[ell], xc | (inst.r[ell] ^ amask), xc | amask
                )
                assert cert.holds_for(f)
                triples.append(cert)
            assert len(triples) == count_uc_no_violations(inst)
            points = [p for t in triples for p in t.points()]
            assert len(points) == len(set(points))
            checked += len(triples)
        assert checked > 0

    def test_unique_term_pairs_close_upward(self):
        # two 1-inputs with different unique terms union into the >= 2 region
        inst = build_uc_instance("yes", 16, 1 / 4, 9)
        f = inst.function()
        ones = np.flatnonzero(f.batch(np.arange(1 << 14, dtype=np.uint64))).tolist()
        rng = stream(11)
        for _ in range(100):
            if len(ones) < 2:
                break
            i, j = rng.integers(0, len(ones), size=2)
            assert f(ones[int(i)] | ones[int(j)]) == 1

    def test_json_roundtrip(self):
        inst = build_uc_instance("no", 16, 1 / 16, 123)
        again = load_instance(inst.to_json_obj())
        assert again == inst


class TestBadEvent:
    def test_single_point_is_never_bad(self):
        p = BadEventParams((123,), "intersect", 2000)
        est = estimate_bad_probability(p, 16, 0.5, 1)
        assert est.estimate == 0.0

    def test_duplicated_point_is_never_bad(self):
        p = BadEventParams((123, 123), "intersect", 2000)
        est = estimate_bad_probability(p, 16, 0.5, 1)
        assert est.estimate == 0.0
        q = BadEventParams((123, 123), "uc", 2000)
        est = estimate_bad_probability(q, 16, 1 / 16, 1)
        assert est.estimate == 0.0

    def test_antipodal_pair_within_analytic_bound(self):
        x = 0b1010101010101010
        p = BadEventParams((x, x ^ 0xFFFF), "intersect", 20000)
        est = estimate_bad_probability(p, 16, 0.5, 2)
        bound = bad_pair_bound(16, 0.5)
        sigma = math.sqrt(bound * (1 - bound) / 20000)
        assert est.estimate <= bound + 3 * sigma

    def test_memory_is_bounded_when_one_trial_exceeds_a_block(self):
        # one trial at n=63, eps=0.3 is 126,954 terms x 20 draws: 19 MiB of int64
        import tracemalloc

        x = 0x5555555555555555 >> 1
        p = BadEventParams((x, x ^ ((1 << 63) - 1)), "intersect", 3)
        tracemalloc.start()
        try:
            est = estimate_bad_probability(p, 63, 0.3, 5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert est.trials == 3
        assert peak < 8 * 2**20, peak

    def test_memory_is_bounded_when_a_chunk_holds_many_trials(self):
        # one term of 3 coordinates: a chunk is all 100,000 trials, whose
        # partitions as float rows and their argsort take 24 MiB
        import tracemalloc

        p = BadEventParams((0x5555, 0xAAAA), "intersect", 100_000)
        tracemalloc.start()
        try:
            est = estimate_bad_probability(p, 16, 1.0, 5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert est.trials == 100_000
        assert peak < 8 * 2**20, peak

    def test_rejects_empty_query_set(self):
        with pytest.raises(ValueError):
            BadEventParams((), "intersect", 10)

    def test_uc_antipodal_detects_when_forced(self):
        # a = 1: x = 1^13 and y = x minus one bit go bad exactly when the
        # action set lands on the differing coordinate, probability 1/13
        x = (1 << 13) - 1
        p = BadEventParams((x, x ^ 1), "uc", 4000)
        est = estimate_bad_probability(p, 13, 0.5, 3)
        assert abs(est.estimate - 1 / 13) < 4 * math.sqrt((1 / 13) * (12 / 13) / 4000)


class TestInstanceBatch:
    @pytest.mark.parametrize("kind,n,eps,seed", [
        ("int-yes", 9, 0.5, 1), ("int-no", 9, 0.5, 2), ("int-yes", 16, 0.5, 3),
        ("int-no", 14, 0.5, 4), ("int-one-sided-no", 61, 0.5, 6),
        ("uc-yes", 13, 0.5, 3), ("uc-no", 13, 0.5, 5), ("uc-yes", 21, 0.25, 5),
        ("uc-no", 21, 0.5, 7),
    ])
    def test_batch_matches_scalar(self, kind, n, eps, seed):
        # every point up to arity 16, fixed random points above
        inst = load_instance({"kind": kind, "n": n, "eps": eps, "seed": seed})
        arity = inst.arity
        if arity <= 16:
            xs = np.arange(1 << arity, dtype=np.uint64)
        else:
            xs = stream(59, arity).integers(0, 1 << arity, size=4000, dtype=np.uint64)
        got = inst.function().batch(xs)
        assert got.dtype == np.uint8
        assert got.tolist() == [ref.value(inst, x) for x in xs.tolist()]
        assert 0 < got.sum() < len(xs) or arity > 16


class TestInstanceDeterminism:
    def test_same_seed_same_function(self):
        a = build_int_instance("no", 16, 0.5, 55)
        b = build_int_instance("no", 16, 0.5, 55)
        assert a == b

    def test_different_seed_differs(self):
        a = build_uc_instance("yes", 16, 1 / 16, 1)
        b = build_uc_instance("yes", 16, 1 / 16, 2)
        assert a != b
