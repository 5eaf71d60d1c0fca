"""Reference computations kept apart from setfam.

Nothing here imports setfam.  Each function restates a definition from the
paper (or from the README's file formats) in the most direct form, so the
workloads can check the program's outputs against something that does not
share its code:

* the union-closed and intersecting families at n=4, by brute force over
  all 2^16 tables, and minimum Hamming distances to them;
* property checks on dense tables by OR-zeta transforms (the program uses
  counting transforms or pair loops);
* union closures, point-disjoint violation counts that certify farness,
  the tester round count and the unique-term closed form;
* a BFTT1 reader whose arrays double as function evaluators.

Tables are numpy uint8 arrays of 0/1 values indexed by point (coordinate i
of [n] is bit i-1 of the index).
"""

from __future__ import annotations

import math

import numpy as np

_POP16 = np.array([bin(v).count("1") for v in range(1 << 16)], dtype=np.uint8)


def popcount16(a: np.ndarray) -> np.ndarray:
    """Popcount of values below 2^16."""
    return _POP16[np.asarray(a, dtype=np.int64)]


# -- n = 4 families and distances ----------------------------------------------


def n4_families() -> tuple[np.ndarray, np.ndarray]:
    """(union-closed masks, intersecting masks) at n=4, ascending.

    A mask's bit p is the value at point p.  Union-closed: no two 1-inputs
    whose union is a 0-input.  Intersecting: no two 1-inputs (equal or not)
    with empty intersection, so 0^n is never a 1-input.
    """
    masks = np.arange(1 << 16, dtype=np.int64)
    bit = [(masks >> p) & 1 == 1 for p in range(16)]
    uc = np.ones(masks.size, dtype=bool)
    inter = ~bit[0]
    for u in range(16):
        for v in range(u + 1, 16):
            both = bit[u] & bit[v]
            uc &= ~(both & ~bit[u | v])
            if u & v == 0:
                inter &= ~both
    return masks[uc], masks[inter]


def min_distance(mask: int, family: np.ndarray) -> int:
    """Fewest value flips turning the n=4 table `mask` into a family member."""
    return int(popcount16(family ^ mask).min())


def mask_of(values: np.ndarray) -> int:
    """Table array -> int whose bit p is the value at point p."""
    return sum(1 << int(p) for p in np.flatnonzero(values))


def values_of(mask: int, n: int) -> np.ndarray:
    return np.array([(mask >> p) & 1 for p in range(1 << n)], dtype=np.uint8)


# -- dense property checks and closures ----------------------------------------


def _or_zeta(start: np.ndarray, n: int) -> np.ndarray:
    """out[z] = OR of start[y] over all y contained in z."""
    out = start.copy()
    for i in range(n):
        view = out.reshape(-1, 2, 1 << i)
        view[:, 1, :] |= view[:, 0, :]
    return out


def union_of_ones_below(values: np.ndarray, n: int) -> np.ndarray:
    """u[z] = union of the 1-inputs contained in z (0 if there are none)."""
    idx = np.arange(1 << n, dtype=np.int64)
    return _or_zeta(np.where(values != 0, idx, 0), n)


def is_union_closed(values: np.ndarray, n: int) -> bool:
    """No nonzero 0-input is the union of the 1-inputs below it."""
    idx = np.arange(1 << n, dtype=np.int64)
    u = union_of_ones_below(values, n)
    return not bool(np.any((values == 0) & (u == idx) & (idx != 0)))


def is_intersecting(values: np.ndarray, n: int) -> bool:
    """0^n is a 0-input and no 1-input has a 1-input inside its complement."""
    if values[0]:
        return False
    below = _or_zeta(values != 0, n)
    return not bool(np.any((values != 0) & below[::-1]))


def union_closure(values: np.ndarray, n: int) -> np.ndarray:
    """Indicator of all unions of nonempty sets of 1-inputs."""
    idx = np.arange(1 << n, dtype=np.int64)
    u = union_of_ones_below(values, n)
    return ((u == idx) & (idx != 0) | (values != 0)).astype(np.uint8)


# -- farness certificates --------------------------------------------------------


def antipodal_one_pairs(values: np.ndarray) -> int:
    """Pairs {x, complement of x} of 1-inputs.

    The pairs are point-disjoint I-violations, so each forces its own flip:
    the count certifies distance to intersecting >= count / 2^n.
    """
    half = values.size // 2
    return int(np.count_nonzero(values[:half] & values[::-1][:half]))


def disjoint_uc_triples(values: np.ndarray) -> int:
    """Greedy family of point-disjoint violating triples (y1, y2, y1|y2).

    Each triple needs its own flip, so the count certifies distance to
    union-closed >= count / 2^n.  Scans 1-inputs in ascending order and pairs
    each unused one with the lowest unused partner whose union is an unused
    0-input.
    """
    ones = np.flatnonzero(values)
    used = np.zeros(values.size, dtype=bool)
    count = 0
    for y1 in ones:
        if used[y1]:
            continue
        z = ones | y1
        ok = (values[z] == 0) & ~used[ones] & ~used[z]
        hits = np.flatnonzero(ok)
        if hits.size:
            y2 = ones[hits[0]]
            used[[y1, y2, z[hits[0]]]] = True
            count += 1
    return count


# -- round count and Monte Carlo closed forms --------------------------------------


def tau(n: int, eps: float) -> float:
    """Per-round success floor tau = eps * 2^(-sqrt(n log2(n/eps)) * log2 n)."""
    return eps * 2.0 ** (-math.sqrt(n * math.log2(n / eps)) * math.log2(n))


def default_rounds(n: int, eps: float) -> int:
    """ceil(100 / tau), the 3-/2-query testers' default round count."""
    return math.ceil(100.0 / tau(n, eps))


def talagrand_shape(n: int, eps: float) -> tuple[int, int]:
    """(term size s, term count N): s = round(sqrt(n)/eps), N = floor(0.1 * 2^(sqrt(n)/eps))."""
    e = math.sqrt(n) / eps
    return round(e), math.floor(0.1 * 2.0**e)


def unique_term_probability(n: int, eps: float, w: int) -> float:
    """Pr[exactly one of N i.i.d. terms lies inside a fixed weight-w set].

    A term of s coordinates drawn with replacement lies inside the set with
    probability q = (w/n)^s, so the answer is N q (1-q)^(N-1).
    """
    s, big_n = talagrand_shape(n, eps)
    q = (w / n) ** s
    return big_n * q * (1.0 - q) ** (big_n - 1)


def wilson(successes: int, trials: int, z: float) -> tuple[float, float]:
    """Wilson score interval."""
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = p + z * z / (2 * trials)
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4.0 * trials * trials))
    return max(0.0, (center - half) / denom), min(1.0, (center + half) / denom)


def bad_pair_bound(n: int, eps: float) -> float:
    """The paper's per-pair Bad-event bound 2^(-n^(1/4) / (4 sqrt(eps)))."""
    return 2.0 ** (-(n**0.25) / (4.0 * math.sqrt(eps)))


# -- BFTT1 ---------------------------------------------------------------------------


def read_bftt1(data: bytes) -> tuple[int, np.ndarray]:
    """(arity, values) from BFTT1 bytes: magic, decimal arity line, packed bits.

    Point p lives in byte p//8 at bit p%8.
    """
    magic = b"BFTT1\n"
    if not data.startswith(magic):
        raise ValueError("not a BFTT1 file")
    head, _, payload = data[len(magic):].partition(b"\n")
    n = int(head)
    if len(payload) != ((1 << n) + 7) // 8:
        raise ValueError("BFTT1 payload has the wrong length")
    bits = np.unpackbits(np.frombuffer(payload, dtype=np.uint8), bitorder="little")
    return n, bits[: 1 << n].copy()

