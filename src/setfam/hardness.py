"""Random monotone DNFs and the adversarial instance families.

The lower-bound constructions hide a small random set of "action"
coordinates inside [n]; the remaining "control" coordinates carry a random
monotone DNF (the Talagrand distribution: ~0.1*2^(sqrt(n)/eps) terms of
~sqrt(n)/eps coordinates each, sampled with replacement, stored dedupped).
An input whose control part satisfies exactly one term gets its value from
the action part; everything hinges on which weight region of the action
subcube the input lands in.

Instances expose their hidden randomness (partition, DNF, per-term bits) for
white-box verification, while ``function()`` gives testers the black-box
oracle view.  Every instance is regenerable from (kind, n, eps, seed), which
is exactly what its JSON serialization stores.

Farness of no-instances is certified constructively (counts of point-disjoint
violating pairs / triples), never by exact distance, which is infeasible at
construction sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np

from .boolfn import (
    MAX_TABLE_ARITY,
    BooleanFunction,
    ResourceCapError,
    TruthTable,
    popcount_array,
)
from .rng import stream

__all__ = [
    "TalagrandDnf",
    "talagrand_params",
    "sample_talagrand",
    "unique_sat_window",
    "UniqueSatResult",
    "unique_sat_probability",
    "IntersectInstance",
    "build_int_instance",
    "count_int_no_violations",
    "UcInstance",
    "build_uc_instance",
    "count_uc_no_violations",
    "uc_no_r_tally",
    "BadEventParams",
    "BadEstimate",
    "estimate_bad_probability",
    "bad_pair_bound",
    "wilson_interval",
    "load_instance",
]

MAX_TERMS = 1 << 20
_DRAW_BLOCK = 1 << 16  # Monte Carlo values drawn per block
_Z99 = 2.5758293035489004
_Z95 = 1.959963984540054


def wilson_interval(successes: int, trials: int, z: float = _Z99) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = phat + z * z / (2 * trials)
    half = z * math.sqrt(phat * (1.0 - phat) / trials + z * z / (4.0 * trials * trials))
    return max(0.0, (center - half) / denom), min(1.0, (center + half) / denom)


# -- Talagrand random DNFs ------------------------------------------------------


def talagrand_params(n: int, eps: float) -> tuple[int, int]:
    """(term_size, num_terms) after integer rounding; rejects degenerate sizes.

    term_size = round(sqrt(n)/eps), num_terms = floor(0.1 * 2^(sqrt(n)/eps));
    a floor of zero is a parameter error, not a silently empty formula.
    """
    if not 0.0 < eps <= 1.0:
        raise ValueError(f"Talagrand eps must lie in (0,1], got {eps}")
    if n < 1:
        raise ValueError("n must be >= 1")
    exponent = math.sqrt(n) / eps
    term_size = round(exponent)
    if term_size < 1:
        raise ValueError(f"term size rounds to 0 at (n={n}, eps={eps})")
    if exponent > 60:
        raise ResourceCapError(f"2^{exponent:.1f} terms is far beyond sampling range")
    num_terms = math.floor(0.1 * 2.0**exponent)
    if num_terms < 1:
        raise ValueError(f"term count rounds to 0 at (n={n}, eps={eps})")
    if num_terms > MAX_TERMS:
        raise ResourceCapError(f"{num_terms} terms exceeds cap {MAX_TERMS}", num_terms, MAX_TERMS)
    return term_size, num_terms


def _unique_terms(xs: np.ndarray, terms: tuple[int, ...]) -> np.ndarray:
    """Per point of a uint64 array, the index of the one term mask it satisfies.

    As int32: -1 where no term is satisfied, -2 where several are.
    """
    seen = np.zeros(xs.shape, dtype=bool)
    many = np.zeros(xs.shape, dtype=bool)
    ell = np.zeros(xs.shape, dtype=np.int32)
    for i, t in enumerate(terms):
        sat = (xs & np.uint64(t)) == np.uint64(t)
        many |= seen & sat
        seen |= sat
        np.putmask(ell, sat, i)
    np.putmask(ell, ~seen, -1)
    np.putmask(ell, many, -2)
    return ell


def _padded(a: np.ndarray) -> np.ndarray:
    """a extended with copies of its last entry to a multiple of 128 entries.

    The instances' vector evaluation makes a dozen temporary arrays of its
    input's length.  numpy keeps freed buffers under 1 KiB for reuse by
    exact size, so inputs of every length up to 1,023 would each leave
    several behind (about 1.5 MB in all); rounded lengths leave a few sizes.
    """
    extra = -len(a) % 128
    return np.concatenate((a, np.repeat(a[-1:], extra))) if extra and len(a) else a


@dataclass(frozen=True)
class TalagrandDnf:
    """Ordered monotone terms over [n], stored as dedupped coordinate masks."""

    n: int
    eps: float
    term_size: int
    terms: tuple[int, ...]

    @property
    def num_terms(self) -> int:
        return len(self.terms)

    def term_coordinate_lists(self) -> list[list[int]]:
        """1-based sorted coordinates per term (for display/serialization)."""
        out = []
        for t in self.terms:
            coords = []
            p = t
            while p:
                low = p & -p
                coords.append(low.bit_length())
                p ^= low
            out.append(coords)
        return out


def sample_talagrand(n: int, eps: float, rng: np.random.Generator) -> TalagrandDnf:
    """Draw term_size coordinates per term, i.i.d. with replacement.

    Consumes one (num_terms x term_size) integer batch from the stream.
    Dedup does not change the sampling distribution of the conjunctions.
    """
    term_size, num_terms = talagrand_params(n, eps)
    draws = rng.integers(0, n, size=(num_terms, term_size))
    return TalagrandDnf(n, eps, term_size, tuple(_mask_of(row) for row in draws))


# -- unique-term probability estimator ------------------------------------------


def unique_sat_window(n: int, eps: float) -> list[int]:
    """Integer weights in [n/2, n/2 + 0.05*eps*sqrt(n)], rounded inward.

    For odd n with a narrow window the inward rounding can leave no integer
    weight at all; the smallest weight at or above n/2 is used then.
    """
    lo = math.ceil(n / 2.0)
    hi = math.floor(n / 2.0 + 0.05 * eps * math.sqrt(n))
    if hi < lo:
        return [lo]
    return list(range(lo, hi + 1))


@dataclass(frozen=True)
class UniqueSatResult:
    """Empirical Pr[exactly one term satisfied] at fixed input weights."""

    n: int
    eps: float
    trials: int
    per_weight: dict[int, tuple[float, float, float]]  # w -> (estimate, lo, hi)
    pooled: tuple[float, float, float]

    def to_json_obj(self) -> dict:
        return {
            "n": self.n,
            "eps": self.eps,
            "trials": self.trials,
            "per_weight": {
                str(w): {"estimate": e, "ci99": [lo, hi]}
                for w, (e, lo, hi) in sorted(self.per_weight.items())
            },
            "pooled": {
                "estimate": self.pooled[0],
                "ci99": [self.pooled[1], self.pooled[2]],
            },
        }


def unique_sat_probability(
    n: int,
    eps: float,
    trials: int,
    rng: np.random.Generator,
    weights: list[int] | None = None,
) -> UniqueSatResult:
    """Monte Carlo over fresh DNF draws of Pr[exactly one term satisfied].

    For a fixed input of weight w the satisfaction of each term depends only
    on whether all its draws land in the support, so the canonical input
    (the w lowest coordinates) represents every weight-w input exactly.
    Wilson 99% intervals per weight class and pooled.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    term_size, num_terms = talagrand_params(n, eps)
    if weights is None:
        weights = unique_sat_window(n, eps)
    per_weight = {}
    total_hits = 0
    for w in weights:
        runs = _term_draws(rng, n, trials, num_terms, term_size,
                           lambda lo, draws: (draws < w).all(axis=-1))
        hits = sum(int(np.count_nonzero(count == 1)) for count, _ in runs)
        lo, hi = wilson_interval(hits, trials)
        per_weight[w] = (hits / trials, lo, hi)
        total_hits += hits
    pool_n = trials * len(weights)
    lo, hi = wilson_interval(total_hits, pool_n)
    pooled = (total_hits / pool_n, lo, hi)
    return UniqueSatResult(n, eps, trials, per_weight, pooled)


def _term_draws(rng: np.random.Generator, high: int, trials: int, num_terms: int,
                term_size: int, satisfied) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Satisfied-term counts and first satisfied terms of ``trials`` fresh DNFs.

    The term coordinates fill one (trials, terms, size) array of draws in
    [0, high) in row order, so blocks of about 2^16 draws read the same
    values: whole trials while a trial fits in a block, one trial in blocks
    of its rows otherwise.  ``satisfied(lo, draws)`` maps the (t, rows, size)
    draws of trials lo..lo+t-1 to a (..., t, rows) array of satisfied terms.
    Yields, per run of whole trials, the (..., t) satisfied-term counts and
    the first satisfied terms (0 where none is).
    """
    per_trial = num_terms * term_size
    if per_trial <= _DRAW_BLOCK:
        chunk = _DRAW_BLOCK // per_trial
        for lo in range(0, trials, chunk):
            t = min(chunk, trials - lo)
            sat = satisfied(lo, rng.integers(0, high, size=(t, num_terms, term_size)))
            yield sat.sum(axis=-1), sat.argmax(axis=-1)
        return
    rows = _DRAW_BLOCK // term_size
    for i in range(trials):
        count = first = 0
        for lo in range(0, num_terms, rows):
            draws = rng.integers(0, high, size=(1, min(rows, num_terms - lo), term_size))
            sat = satisfied(i, draws)
            first = np.where((count == 0) & sat.any(axis=-1), lo + sat.argmax(axis=-1), first)
            count = count + sat.sum(axis=-1)
        yield count, first


# -- shared construction helpers -------------------------------------------------


def _partition(n: int, a: int, rng: np.random.Generator) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Random size-a action set; consumes one permutation from the stream."""
    perm = rng.permutation(n)
    action = tuple(sorted(int(c) for c in perm[:a]))
    control = tuple(sorted(int(c) for c in perm[a:]))
    return action, control


def _mask_of(coords) -> int:
    m = 0
    for c in coords:
        m |= 1 << int(c)
    return m


def _embed(abstract: int, coords: tuple[int, ...]) -> int:
    """Map a mask over [len(coords)] onto the actual coordinate positions."""
    out = 0
    p = abstract
    while p:
        low = p & -p
        out |= 1 << coords[low.bit_length() - 1]
        p ^= low
    return out


def _action_region(wa: int, a: int) -> int:
    """+1 above a/2 + sqrt(a), -1 below a/2 - sqrt(a), 0 in the closed middle.

    Squared integer comparisons: weight wa is above iff 2*wa - a > 0 and
    (2*wa - a)^2 > 4a, symmetrically below; exact at the boundaries.
    """
    d = 2 * wa - a
    if d > 0 and d * d > 4 * a:
        return 1
    if d < 0 and d * d > 4 * a:
        return -1
    return 0


@lru_cache(maxsize=64)
def _action_regions(a: int) -> np.ndarray:
    """:func:`_action_region` of each action weight 0..a, as an int8 table to index."""
    table = np.array([_action_region(w, a) for w in range(a + 1)], dtype=np.int8)
    table.flags.writeable = False  # shared by every caller
    return table


class _Instance:
    """Both instance families' shared methods; ``family`` prefixes the JSON kind."""

    @property
    def action_mask(self) -> int:
        return _mask_of(self.action_coords)

    def function(self) -> BooleanFunction:
        """The black-box view: ``batch``, and one point's value as a one-point batch."""
        batch = self.batch
        return BooleanFunction(
            self.arity, lambda x: int(batch(np.array([x], dtype=np.uint64))[0]), batch)

    def materialize(self) -> TruthTable:
        """Full table over 2^arity points, evaluated a block at a time."""
        if self.arity > MAX_TABLE_ARITY:
            raise ResourceCapError(f"materialize is capped at arity <= {MAX_TABLE_ARITY}",
                                   self.arity, MAX_TABLE_ARITY)
        return TruthTable.from_callable(self)

    def to_json_obj(self) -> dict:
        return {
            "kind": f"{self.family}-{self.kind.replace('_', '-')}",
            "n": self.n,
            "eps": self.eps,
            "seed": self.seed,
            "arity": self.arity,
        }


def _unique_term_counts(dnf: TalagrandDnf) -> np.ndarray:
    """Per term, the control assignments that satisfy it and no other, by a scan of all of them."""
    if dnf.n > 22:
        raise ResourceCapError("control space too large to scan", dnf.n, 22)
    ell = _unique_terms(np.arange(1 << dnf.n, dtype=np.uint64), dnf.terms)
    return np.bincount(ell[ell >= 0], minlength=dnf.num_terms)


# -- intersectingness instances ---------------------------------------------------

INT_KINDS = ("yes", "no", "one_sided_no")


@dataclass(frozen=True)
class IntersectInstance(_Instance):
    """Hard instance for intersectingness testing, over arity n + 2.

    A point is (x, y1, y2): x on [n], then the selector pair, bits n and
    n + 1.  Inputs with equal selector bits evaluate to 0.  The control view
    is x on the (x, 0, 1) side and its complement on the (x, 1, 0) side; a
    view that satisfies no term or several gives 0, and one that satisfies
    exactly one term ell gives a value from b[ell] and the region
    (:func:`_action_region`) of x's action weight:

    - yes: 1 on the (x, 0, 1) side when b[ell] = 1 and on the (x, 1, 0)
      side when b[ell] = 0, and there only outside the middle region;
    - no: 1 in the top region when b[ell] = 0 and in the bottom region
      when b[ell] = 1, identically on both selector sides.

    The one_sided_no kind replaces the DNF machinery with global and action
    weight windows: x gives 1 on either side when |x| lies within 10K of
    n/2 and its action weight below n/200 - K, K = sqrt(n ln(1/eps)).
    """

    kind: str
    n: int
    eps: float
    seed: int
    a: int
    action_coords: tuple[int, ...]
    control_coords: tuple[int, ...]
    dnf: TalagrandDnf | None  # abstract, over len(control_coords) coordinates
    term_masks: tuple[int, ...]  # embedded on the control coordinates
    b: tuple[int, ...]

    family = "int"

    @property
    def arity(self) -> int:
        return self.n + 2

    def batch(self, us: np.ndarray) -> np.ndarray:
        """The instance's value at every point of a uint64 array, as uint8."""
        n = self.n
        size = len(us)
        us = _padded(np.asarray(us, dtype=np.uint64))
        full = np.uint64((1 << n) - 1)
        one = np.uint64(1)
        y1 = (us >> np.uint64(n)) & one
        live = _padded(np.flatnonzero(y1 != ((us >> np.uint64(n + 1)) & one)))
        x, y1 = us[live] & full, y1[live]
        amask = np.uint64(self.action_mask)
        if self.kind == "one_sided_no":
            k2 = n * math.log(1.0 / self.eps)
            d = 2 * popcount_array(x) - n
            e = n - 200 * popcount_array(x & amask)
            hit = (d * d <= 400.0 * k2) & (e > 0) & (e * e > 40000.0 * k2)
        else:
            # per-term tables indexed by ell + 2; entries 0 and 1 (no unique
            # term) hold 2, which no selector bit or region equals
            term = _unique_terms(np.where(y1 == 0, x, x ^ full), self.term_masks) + 2
            region = _action_regions(self.a)[popcount_array(x & amask)]
            if self.kind == "yes":
                # active on the (x, 0, 1) side when b=1 and the (x, 1, 0) side
                # when b=0, outside the middle action band
                side = np.array([2, 2, *(1 - bl for bl in self.b)], dtype=np.uint64)
                hit = (y1 == side[term]) & (region != 0)
            else:
                # the top action region when b=0, the bottom when b=1
                want = np.array([2, 2, *(1 if bl == 0 else -1 for bl in self.b)], dtype=np.int8)
                hit = region == want[term]
        out = np.zeros(len(us), dtype=np.uint8)
        out[live] = hit
        return out[:size]


def build_int_instance(kind: str, n: int, eps: float, seed: int) -> IntersectInstance:
    """Sample an instance; stream order: partition, DNF draws, term bits."""
    if kind not in INT_KINDS:
        raise ValueError(f"kind must be one of {INT_KINDS}, got {kind!r}")
    rng = stream(seed)
    if kind == "one_sided_no":
        if not 0.0 < eps < 1.0:
            raise ValueError("one-sided instances need eps in (0,1)")
        a = round(n / 100.0)
        if a < 1:
            raise ValueError(f"action set rounds to 0 at n={n} (need n >= 50)")
        action, control = _partition(n, a, rng)
        return IntersectInstance(kind, n, eps, seed, a, action, control, None, (), ())
    if not 0.0 < eps <= 1.0:
        raise ValueError("eps must lie in (0,1]")
    a = round(math.sqrt(n) / eps)
    if a < 1:
        raise ValueError(f"action set rounds to 0 at (n={n}, eps={eps})")
    if n - a < 1:
        raise ValueError(f"no control coordinates left at (n={n}, eps={eps})")
    action, control = _partition(n, a, rng)
    dnf = sample_talagrand(n - a, eps, rng)
    b = tuple(int(v) for v in rng.integers(0, 2, size=dnf.num_terms))
    term_masks = tuple(_embed(t, control) for t in dnf.terms)
    return IntersectInstance(kind, n, eps, seed, a, action, control, dnf, term_masks, b)


def _bottom_region_count(a: int) -> int:
    return sum(math.comb(a, w) for w in range(a + 1) if _action_region(w, a) == -1)


def count_int_no_violations(inst: IntersectInstance) -> int:
    """Disjoint I-violating pairs of the construction's explicit form.

    For every control assignment with a unique satisfied term whose bit is 1,
    each bottom-region weight level of the action cube contributes one
    matched pair ((x_C, x_A, 0, 1), (comp(x_C), y_A, 1, 0)); all such pairs
    are point-disjoint, so the total certifies dist >= total / 2^(n+2).
    """
    if inst.kind == "yes":
        return 0
    if inst.kind == "one_sided_no":
        return _count_one_sided_pairs(inst)
    per_term = _unique_term_counts(inst.dnf)
    good = sum(int(c) for c, bl in zip(per_term, inst.b) if bl == 1)
    return good * _bottom_region_count(inst.a)


def _count_one_sided_pairs(inst: IntersectInstance) -> int:
    """Closed-form count of the level-matched pair family, exact binomials.

    Pairs are indexed by x with |x| in [n/2 - 10K, n/2] and action weight in
    [n/200 - 5K, n/200 - K); the matched partner is determined injectively.
    """
    n, a = inst.n, inst.a
    k2 = n * math.log(1.0 / inst.eps)

    def wa_ok(wa: int) -> bool:
        e = n - 200 * wa
        below_k = e > 0 and e * e > 40000.0 * k2  # wa < n/200 - K
        above_5k = e <= 0 or e * e <= 1000000.0 * k2  # wa >= n/200 - 5K
        return below_k and above_5k

    def w_ok(w: int) -> bool:
        d = n - 2 * w
        return d >= 0 and d * d <= 400.0 * k2  # n/2 - 10K <= w <= n/2

    total = 0
    for wa in range(a + 1):
        if not wa_ok(wa):
            continue
        for wc in range(n - a + 1):
            if w_ok(wa + wc):
                total += math.comb(a, wa) * math.comb(n - a, wc)
    return total


# -- union-closedness instances ----------------------------------------------------

UC_KINDS = ("yes", "no")


@dataclass(frozen=True)
class UcInstance(_Instance):
    """Hard instance for union-closedness testing, over arity n.

    eps must be a power of 1/2; the action set has log2(1/eps) coordinates
    and the control DNF is Talagrand with inner parameter 1.  An input that
    satisfies no term gives 0, and one that satisfies two or more gives 1.
    One that satisfies exactly one term ell gives 1 iff its action part is
    the secret string s[ell] (yes), or, when the term bit b[ell] is 1, either
    point r[ell] or r[ell] ^ action_mask of the antipodal secret pair (no).
    """

    kind: str
    n: int
    eps: float
    seed: int
    a: int
    action_coords: tuple[int, ...]
    control_coords: tuple[int, ...]
    dnf: TalagrandDnf
    term_masks: tuple[int, ...]
    s: tuple[int, ...]  # yes: embedded secret strings
    r: tuple[int, ...]  # no: embedded low points of the antipodal pairs
    b: tuple[int, ...]  # no: per-term activation bits

    family = "uc"

    @property
    def arity(self) -> int:
        return self.n

    def batch(self, xs: np.ndarray) -> np.ndarray:
        """The instance's value at every point of a uint64 array, as uint8."""
        size = len(xs)
        xs = _padded(np.asarray(xs, dtype=np.uint64))
        ell = _unique_terms(xs, self.term_masks)
        amask = np.uint64(self.action_mask)
        xa = xs & amask
        out = ell == -2
        for i in range(len(self.term_masks)):
            if self.kind == "yes":
                hit = xa == np.uint64(self.s[i])
            elif self.b[i] == 1:
                r = np.uint64(self.r[i])
                hit = (xa == r) | (xa == r ^ amask)
            else:
                continue
            out |= (ell == i) & hit
        return out.astype(np.uint8)[:size]


def _log2_inverse(eps: float) -> int:
    a = round(math.log2(1.0 / eps))
    if a < 1 or 2.0**-a != eps:
        raise ValueError(f"eps must be a power of 1/2 below 1, got {eps}")
    return a


def build_uc_instance(kind: str, n: int, eps: float, seed: int) -> UcInstance:
    """Sample an instance; stream order: partition, DNF draws, secrets, bits."""
    if kind not in UC_KINDS:
        raise ValueError(f"kind must be one of {UC_KINDS}, got {kind!r}")
    a = _log2_inverse(eps)
    if n - a < 4:
        raise ValueError(f"need n - log2(1/eps) >= 4, got n={n}, eps={eps}")
    rng = stream(seed)
    action, control = _partition(n, a, rng)
    dnf = sample_talagrand(n - a, 1.0, rng)
    term_masks = tuple(_embed(t, control) for t in dnf.terms)
    if kind == "yes":
        secrets = tuple(
            _embed(int(v), action) for v in rng.integers(0, 1 << a, size=dnf.num_terms)
        )
        return UcInstance(
            kind, n, eps, seed, a, action, control, dnf, term_masks, secrets, (), ()
        )
    rs = tuple(
        _embed(int(v), action) for v in rng.integers(0, 1 << a, size=dnf.num_terms)
    )
    b = tuple(int(v) for v in rng.integers(0, 2, size=dnf.num_terms))
    return UcInstance(kind, n, eps, seed, a, action, control, dnf, term_masks, (), rs, b)


def uc_no_r_tally(inst: UcInstance) -> tuple[int, int]:
    """(good, bad) secret-pair tally; bad means r is 0^a or 1^a on the action set."""
    if inst.kind != "no":
        raise ValueError("r tally applies to no-kind instances")
    amask = inst.action_mask
    bad = sum(1 for r in inst.r if r == 0 or r == amask)
    return len(inst.r) - bad, bad


def count_uc_no_violations(inst: UcInstance) -> int:
    """Point-disjoint violating triples of the construction's explicit form.

    For every control assignment uniquely satisfying an active term whose
    secret pair is not {0^a, 1^a}, the two secret points and their true union
    (control part unchanged, all action bits set) form a violating triple;
    distinct control parts make the triples disjoint, so the count certifies
    at least that many disjoint violations.
    """
    if inst.kind == "yes":
        return 0
    per_term = _unique_term_counts(inst.dnf)
    amask = inst.action_mask
    return sum(int(k) for k, bl, r in zip(per_term, inst.b, inst.r)
               if bl == 1 and r not in (0, amask))


def load_instance(obj: dict):
    """Rebuild an instance from its (kind, n, eps, seed) JSON object."""
    kind = obj["kind"]
    n, eps, seed = int(obj["n"]), float(obj["eps"]), int(obj["seed"])
    if kind.startswith("int-"):
        return build_int_instance(kind[4:].replace("-", "_"), n, eps, seed)
    if kind.startswith("uc-"):
        return build_uc_instance(kind[3:], n, eps, seed)
    raise ValueError(f"unknown instance kind {kind!r}")


# -- Bad-event estimator -------------------------------------------------------------


@dataclass(frozen=True)
class BadEventParams:
    """Query set and construction family for the Bad-event probability."""

    points: tuple[int, ...]
    construction: str  # "intersect" | "uc"
    trials: int

    def __post_init__(self):
        if not self.points:
            raise ValueError("query set must be nonempty")
        if self.construction not in ("intersect", "uc"):
            raise ValueError("construction must be 'intersect' or 'uc'")
        if self.trials < 1:
            raise ValueError("trials must be positive")


@dataclass(frozen=True)
class BadEstimate:
    estimate: float
    ci99: tuple[float, float]
    trials: int

    def to_json_obj(self) -> dict:
        return {
            "estimate": self.estimate,
            "ci99": list(self.ci99),
            "trials": self.trials,
        }


def bad_pair_bound(n: int, eps: float) -> float:
    """Per-pair probability bound 2^(-0.25 * n^(1/4) / sqrt(eps))."""
    return 2.0 ** (-0.25 * n**0.25 / math.sqrt(eps))


def estimate_bad_probability(
    params: BadEventParams, n: int, eps: float, seed: int
) -> BadEstimate:
    """Fraction of fresh (partition, DNF) draws on which some pair goes Bad.

    intersect: a pair is Bad when both control parts uniquely satisfy the
    same term and the action weights split strictly below/above the middle
    action band.  uc: same unique term and exactly antipodal action parts.
    Stream order per chunk of trials: one float matrix (partitions, kept as
    uint8 column orders), then the chunk's (trials, terms, size) term draws.
    Both are read in blocks of about 2^16 values, the same values as one
    batch, and Bad pairs are found per run of trials that ``_term_draws``
    yields, so memory grows with the trials only by n bytes each.
    """
    if params.construction == "intersect":
        if not 0.0 < eps <= 1.0:
            raise ValueError("eps must lie in (0,1]")
        a = round(math.sqrt(n) / eps)
        dnf_eps = eps
    else:
        a = _log2_inverse(eps)
        dnf_eps = 1.0
    if a < 1 or n - a < 1:
        raise ValueError(f"degenerate partition at (n={n}, eps={eps})")
    m = n - a
    term_size, num_terms = talagrand_params(m, dnf_eps)
    rng = stream(seed)
    pts = np.array(params.points, dtype=np.uint64)
    bits = ((pts[:, None] >> np.arange(n, dtype=np.uint64)) & np.uint64(1)).astype(bool)
    regions = _action_regions(a)
    hits = 0
    left = params.trials
    chunk = max(1, (1 << 22) // (num_terms * term_size))
    rows = _DRAW_BLOCK // n
    while left:
        batch = min(chunk, left)
        perm = np.empty((batch, n), dtype=np.uint8)
        for r in range(0, batch, rows):
            perm[r:r + rows] = np.argsort(rng.random((min(rows, batch - r), n)), axis=1)
        c_cols = perm[:, a:]

        def satisfied(lo: int, idx: np.ndarray) -> np.ndarray:
            coords = c_cols[np.arange(lo, lo + len(idx))[:, None, None], idx].astype(np.intp)
            return np.stack([b[coords].all(axis=-1) for b in bits])

        start = 0
        for count, term_of in _term_draws(rng, m, batch, num_terms, term_size, satisfied):
            a_cols = perm[start:start + count.shape[-1], :a].astype(np.intp)
            start += len(a_cols)
            uniq = count == 1
            side = regions[np.stack([b[a_cols].sum(axis=1) for b in bits])]
            bad = np.zeros(len(a_cols), dtype=bool)
            for i in range(len(bits)):
                for j in range(i + 1, len(bits)):
                    if params.construction == "intersect":
                        split = side[i] * side[j] == -1
                    else:
                        split = (bits[i] != bits[j])[a_cols].all(axis=1)
                    bad |= uniq[i] & uniq[j] & (term_of[i] == term_of[j]) & split
            hits += int(np.count_nonzero(bad))
        left -= batch
    est = hits / params.trials
    return BadEstimate(est, wilson_interval(hits, params.trials), params.trials)
