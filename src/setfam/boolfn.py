"""Boolean functions on the hypercube: points, oracles, bands, truncations.

Points of {0,1}^n are plain Python ints: coordinate i of [n] is bit i-1, so
the integer value of a point doubles as its index into a truth table
(little-endian).  The bitstring "011" (coordinate 1 = 0, coordinates 2,3 = 1)
is the int 0b110 = 6.  Hamming weight is ``x.bit_count()``.  Dense points are
restricted to n <= 63.

A function oracle is anything with an ``arity`` attribute that maps a point
int to 0/1 when called.  It may also have a ``batch`` method that maps a
uint64 array of points to a uint8 array of answers; callers evaluate arrays
through it when it is there and point by point otherwise.
``BooleanFunction`` wraps a closure lazily (nothing is materialized, so
composed functions work at any n); ``TruthTable`` is the dense
materialization for n <= 24 and backs the exact oracles.
"""

from __future__ import annotations

import json
import math
import threading
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np

__all__ = [
    "MAX_DENSE_ARITY",
    "MAX_TABLE_ARITY",
    "DEFAULT_ENUMERATION_CAP",
    "EnumerationCapError",
    "ResourceCapError",
    "weight",
    "popcount_array",
    "parse_bits",
    "format_bits",
    "Band",
    "mid_band",
    "BooleanFunction",
    "TruthTable",
    "QueryCounter",
    "truncate_uc",
    "truncate_int",
    "down_band_count",
    "enumerate_down_band",
    "down_band_counts",
    "down_band_blocks",
    "band_weight_counts",
    "sample_band_weights",
    "sample_band_uniform",
    "sample_down_band_uniform",
    "const_function",
    "dictator",
    "majority",
]

MAX_DENSE_ARITY = 63
MAX_TABLE_ARITY = 24

#: Refuse banded-downset enumerations predicted to exceed this many points.
DEFAULT_ENUMERATION_CAP = 2**28

#: Points per block of banded-downset enumeration and per oracle evaluation
#: of the witness checks, and the size of the largest cached pattern table.
#: Larger blocks left their memory resident in the allocator.
BLOCK = 1 << 12


class ResourceCapError(RuntimeError):
    """A computation would exceed a configured resource cap."""


class EnumerationCapError(ResourceCapError):
    """Predicted enumeration size exceeds the cap (reported, never truncated)."""

    def __init__(self, predicted: int, cap: int):
        super().__init__(f"banded downset has {predicted} points, exceeding cap {cap}")
        self.predicted = predicted
        self.cap = cap


def weight(x: int) -> int:
    """Hamming weight |x|."""
    return x.bit_count()


def popcount_array(a: np.ndarray) -> np.ndarray:
    """Elementwise popcount of an integer array (up to 64-bit), as int64.

    Signed values count the bits of their two's complement.
    """
    a = np.asarray(a)
    if a.dtype.kind != "u":
        a = a.astype(np.uint64)
    return np.bitwise_count(a).astype(np.int64)


def parse_bits(s: str) -> int:
    """Point int for a bitstring whose leftmost char is coordinate 1."""
    x = 0
    for i, ch in enumerate(s):
        if ch == "1":
            x |= 1 << i
        elif ch != "0":
            raise ValueError(f"bad bitstring {s!r}")
    return x


def format_bits(x: int, n: int) -> str:
    """Inverse of :func:`parse_bits`."""
    return "".join("1" if (x >> i) & 1 else "0" for i in range(n))


class Band(NamedTuple):
    """Inclusive Hamming-weight interval [lo, hi]."""

    lo: int
    hi: int

    def __contains__(self, w: int) -> bool:  # type: ignore[override]
        return self.lo <= w <= self.hi

    def weights(self) -> range:
        return range(self.lo, self.hi + 1)

    def is_empty(self) -> bool:
        return self.lo > self.hi


def _check_eps(eps: float) -> None:
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0,1), got {eps}")


def mid_band(n: int, eps: float, widened: bool = False) -> Band:
    """Middle-layers band [n/2 - T, n/2 + T] rounded inward and clamped to [0, n].

    T = sqrt(2 n ln(4/eps)); the widened variant (used by the 3-query tester)
    replaces ln(4/eps) with ln(4n/eps).  Endpoints are rounded inward
    (ceil/floor) so the band never contains an excluded weight.
    """
    _check_eps(eps)
    if n < 1:
        raise ValueError("n must be >= 1")
    arg = 4.0 * n / eps if widened else 4.0 / eps
    t = math.sqrt(n * 2.0 * math.log(arg))
    lo = max(0, math.ceil(n / 2.0 - t))
    hi = min(n, math.floor(n / 2.0 + t))
    return Band(lo, hi)


class BooleanFunction:
    """Lazy query oracle over {0,1}^arity; eval must be pure.

    ``batch``, if given, is the same function on a uint64 array of points,
    answering a uint8 array; without it the attribute is None.
    """

    __slots__ = ("arity", "_fn", "batch")

    def __init__(
        self,
        arity: int,
        fn: Callable[[int], int],
        batch: Callable[[np.ndarray], np.ndarray] | None = None,
    ):
        if not 1 <= arity <= MAX_DENSE_ARITY:
            raise ValueError(f"arity must be in [1, {MAX_DENSE_ARITY}]")
        self.arity = arity
        self._fn = fn
        self.batch = batch

    def __call__(self, x: int) -> int:
        return self._fn(x)


def _answers(f, points: np.ndarray) -> np.ndarray:
    """f at each point, as uint8: one ``f.batch`` call, or one call per point."""
    batch = getattr(f, "batch", None)
    if batch is not None:
        return batch(points)
    return np.fromiter(map(f, points.tolist()), dtype=np.uint8, count=len(points))


def const_function(n: int, value: int) -> BooleanFunction:
    v = 1 if value else 0
    return BooleanFunction(n, lambda x: v, lambda xs: np.full(len(xs), v, dtype=np.uint8))


def dictator(n: int, coord: int = 1) -> BooleanFunction:
    """f(x) = x_coord (coordinates are 1-based)."""
    if not 1 <= coord <= n:
        raise ValueError("coordinate out of range")
    bit = coord - 1
    return BooleanFunction(
        n, lambda x: (x >> bit) & 1,
        lambda xs: ((xs >> np.uint64(bit)) & np.uint64(1)).astype(np.uint8))


def majority(n: int) -> BooleanFunction:
    thr = n / 2.0
    return BooleanFunction(
        n, lambda x: 1 if x.bit_count() > thr else 0,
        lambda xs: (popcount_array(xs) > thr).astype(np.uint8))


class QueryCounter:
    """Counting wrapper around an oracle; the tally is thread-safe.

    Wrapping never changes returned values, and the count goes up by exactly
    one per evaluation: ``batch`` adds the number of points once, then
    evaluates them through the inner oracle's ``batch`` or point by point.
    """

    __slots__ = ("arity", "_inner", "_count", "_lock")

    def __init__(self, inner):
        self.arity = inner.arity
        self._inner = inner
        self._count = 0
        self._lock = threading.Lock()

    def __call__(self, x: int) -> int:
        with self._lock:
            self._count += 1
        return self._inner(x)

    def batch(self, xs: np.ndarray) -> np.ndarray:
        with self._lock:
            self._count += len(xs)
        return _answers(self._inner, xs)

    @property
    def count(self) -> int:
        return self._count


BFTT1_MAGIC = b"BFTT1\n"


class TruthTable:
    """Dense bit-packed function on {0,1}^n, n <= 24.

    The underlying storage is a single Python int whose bit p is the value at
    point p; a numpy 0/1 view is materialized on demand for vector transforms.
    """

    __slots__ = ("arity", "bits", "_array")

    def __init__(self, arity: int, bits: int):
        if not 1 <= arity <= MAX_TABLE_ARITY:
            raise ValueError(f"table arity must be in [1, {MAX_TABLE_ARITY}]")
        size = 1 << arity
        if bits < 0 or bits >> size:
            raise ValueError("bits outside table range")
        self.arity = arity
        self.bits = bits
        self._array: np.ndarray | None = None

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_ones(cls, arity: int, ones: Iterable[int]) -> "TruthTable":
        bits = 0
        for p in ones:
            if not 0 <= p < (1 << arity):
                raise ValueError(f"point {p} outside arity-{arity} cube")
            bits |= 1 << p
        return cls(arity, bits)

    @classmethod
    def from_callable(cls, f) -> "TruthTable":
        """Table of an oracle, evaluated a block of points at a time."""
        n = f.arity
        if n > MAX_TABLE_ARITY:
            raise ValueError(f"cannot materialize arity {n} > {MAX_TABLE_ARITY}")
        size = 1 << n
        values = np.empty(size, dtype=np.uint8)
        for lo in range(0, size, BLOCK):
            hi = min(size, lo + BLOCK)
            values[lo:hi] = _answers(f, np.arange(lo, hi, dtype=np.uint64)) != 0
        return cls.from_array(n, values)

    @classmethod
    def from_array(cls, arity: int, values: np.ndarray) -> "TruthTable":
        values = np.asarray(values).astype(np.uint8).ravel()
        if values.size != 1 << arity:
            raise ValueError("array length != 2^arity")
        packed = np.packbits(values, bitorder="little").tobytes()
        return cls(arity, int.from_bytes(packed, "little"))

    # -- oracle interface ----------------------------------------------------

    def __call__(self, x: int) -> int:
        return (self.bits >> x) & 1

    def batch(self, xs: np.ndarray) -> np.ndarray:
        """Values at an array of points, as uint8; caches nothing on the table."""
        xs = np.asarray(xs, dtype=np.uint64)
        out = self._packed()[xs >> np.uint64(3)]
        out >>= (xs & np.uint64(7)).astype(np.uint8)
        out &= 1
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TruthTable)
            and self.arity == other.arity
            and self.bits == other.bits
        )

    def __hash__(self) -> int:
        return hash((self.arity, self.bits))

    def ones(self) -> list[int]:
        """Indices of 1-inputs, ascending."""
        if self.arity <= 6:  # one machine word: peeling bits beats numpy's call overhead
            out = []
            bits = self.bits
            while bits:
                low = bits & -bits
                out.append(low.bit_length() - 1)
                bits ^= low
            return out
        values = np.unpackbits(self._packed(), bitorder="little")
        return np.flatnonzero(values).tolist()

    def count_ones(self) -> int:
        return self.bits.bit_count()

    def as_array(self) -> np.ndarray:
        """0/1 uint8 view of length 2^arity (cached)."""
        if self._array is None:
            values = np.unpackbits(self._packed(), bitorder="little")
            self._array = values[: 1 << self.arity]
        return self._array

    def _packed(self) -> np.ndarray:
        """The BFTT1 payload as uint8: point p is bit p % 8 of byte p // 8."""
        raw = self.bits.to_bytes(((1 << self.arity) + 7) // 8, "little")
        return np.frombuffer(raw, dtype=np.uint8)

    # -- file formats --------------------------------------------------------
    #
    # BFTT1: magic b"BFTT1\n", one decimal arity line, then ceil(2^n/8) raw
    # bytes, point index little-endian within bytes LSB-first (point p lives
    # in byte p//8 at bit p%8).

    def to_bftt1(self) -> bytes:
        size = 1 << self.arity
        return (
            BFTT1_MAGIC
            + f"{self.arity}\n".encode()
            + self.bits.to_bytes((size + 7) // 8, "little")
        )

    @classmethod
    def from_bftt1(cls, data: bytes) -> "TruthTable":
        if not data.startswith(BFTT1_MAGIC):
            raise ValueError("not a BFTT1 file (bad magic)")
        rest = data[len(BFTT1_MAGIC):]
        nl = rest.index(b"\n")
        arity = int(rest[:nl])
        payload = rest[nl + 1:]
        expected = ((1 << arity) + 7) // 8
        if len(payload) != expected:
            raise ValueError(f"BFTT1 payload is {len(payload)} bytes, expected {expected}")
        return cls(arity, int.from_bytes(payload, "little"))

    def save(self, path: str | Path) -> None:
        Path(path).write_bytes(self.to_bftt1())

    @classmethod
    def load(cls, path: str | Path) -> "TruthTable":
        return cls.from_bftt1(Path(path).read_bytes())

    def to_json_obj(self) -> dict:
        return {"n": self.arity, "ones": self.ones()}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "TruthTable":
        return cls.from_ones(int(obj["n"]), obj["ones"])

    @classmethod
    def from_json(cls, text: str) -> "TruthTable":
        return cls.from_json_obj(json.loads(text))


@dataclass(frozen=True)
class _Truncation:
    """Lazy band truncation; callable, pointwise idempotent."""

    arity: int
    band: Band
    low_value: int
    high_value: int
    inner: Callable[[int], int]

    def __call__(self, x: int) -> int:
        w = x.bit_count()
        if w < self.band.lo:
            return self.low_value
        if w > self.band.hi:
            return self.high_value
        return self.inner(x)


def truncate_uc(f, eps: float) -> _Truncation:
    """0 strictly below the mid band, 1 strictly above, f inside.

    Preserves union-closedness and at worst halves distance to it.
    """
    band = mid_band(f.arity, eps)
    return _Truncation(f.arity, band, 0, 1, f)


def truncate_int(f, eps: float) -> _Truncation:
    """Both tails forced to 0, f inside the mid band.

    Preserves intersectingness and at worst halves distance to it.
    """
    band = mid_band(f.arity, eps)
    return _Truncation(f.arity, band, 0, 0, f)


# -- banded downsets ---------------------------------------------------------


def down_band_count(x: int, band: Band) -> int:
    """|{y <= x : |y| in band}| in closed form (sum of binomials)."""
    w = x.bit_count()
    return sum(math.comb(w, j) for j in range(band.lo, min(w, band.hi) + 1))


def enumerate_down_band(
    x: int, band: Band, cap: int = DEFAULT_ENUMERATION_CAP
) -> Iterator[int]:
    """Yield every y <= x (coordinatewise) with |y| in the band, each once.

    Order: ascending weight, then ascending combinations of x's set bits.
    Refuses up front (EnumerationCapError) if the closed-form cardinality
    exceeds ``cap``; the caller must see resource failure, not wrong answers.
    This is :func:`down_band_blocks` of the one root x, flattened.
    """
    predicted = down_band_count(x, band)
    if predicted > cap:
        raise EnumerationCapError(predicted, cap)
    for _, ys in down_band_blocks(np.array([x], dtype=np.uint64), band):
        yield from ys.tolist()


def down_band_counts(roots: np.ndarray, band: Band) -> np.ndarray:
    """:func:`down_band_count` of every point of a uint64 array, as uint64."""
    totals, _ = _downset_classes(MAX_DENSE_ARITY, band)
    return totals[popcount_array(roots)]


def down_band_blocks(
    roots: np.ndarray, band: Band, size: int = BLOCK
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The banded downsets of an array of roots, as blocks (owner, ys) of uint64 points.

    Concatenated, the blocks' ys list the downset of roots[0], then that of
    roots[1], and so on, each in the order of :func:`enumerate_down_band`;
    owner[k] is the index of the root that ys[k] lies below.  Consecutive
    roots share a block while their downsets fit in ``size`` points (at most
    BLOCK); a downset larger than that gets blocks of its own, all full but
    the last.  A nonempty array of roots gives at least one block.
    """
    if not 1 <= size <= BLOCK:
        raise ValueError(f"block size must lie in [1, {BLOCK}]")
    roots = np.asarray(roots, dtype=np.uint64)
    if not len(roots):
        return
    weights = popcount_array(roots)
    totals, _ = _downset_classes(MAX_DENSE_ARITY, band)
    counts = totals[weights].tolist()
    fits = int(np.searchsorted(totals, BLOCK, side="right"))  # weights whose downset fits
    patterns, offsets = _pattern_store(band, min(fits - 1, int(weights.max()) | 7))
    for start, stop in _runs(counts, size):
        if counts[start] > size:  # one root, split into blocks
            one = np.zeros(size, dtype=np.intp)
            for pat in _rechunk(_combination_blocks(int(weights[start]), band), size):
                ys = _scatter(pat, roots[start:stop], one[: len(pat)])
                yield one[: len(pat)] + start, ys
            continue
        sizes = np.array(counts[start:stop], dtype=np.intp)
        ends = np.cumsum(sizes)
        local = np.repeat(np.arange(stop - start), sizes)
        firsts = offsets[weights[start:stop]] - (ends - sizes)
        idx = np.arange(ends[-1]) + firsts[local]
        yield local + start, _scatter(patterns[idx], roots[start:stop], local)


def _runs(costs: list[int], size: int) -> Iterator[tuple[int, int]]:
    """[start, stop) runs of consecutive items whose costs sum to at most size.

    A run stops before the item that would take it past size; an item that
    costs more than size on its own is a run of one.
    """
    start = total = 0
    for i, c in enumerate(costs):
        if i > start and total + c > size:
            yield start, i
            start, total = i, 0
        total += c
    if start < len(costs):
        yield start, len(costs)


def _scatter(patterns: np.ndarray, roots: np.ndarray, owner: np.ndarray) -> np.ndarray:
    """Bit k of each pattern moved to the k-th lowest set bit of its root roots[owner].

    A byte of roots at a time: the byte's set bits take the next pattern
    bits, through a table of all (byte, pattern byte) pairs.
    """
    deposit, pop = _deposit_table()
    out = np.zeros(len(patterns), dtype=np.uint64)
    used = np.zeros(len(roots), dtype=np.uint64)  # pattern bits taken by lower bytes
    for b in range(0, int(roots.max()).bit_length(), 8):
        byte = ((roots >> np.uint64(b)) & np.uint64(0xFF)).astype(np.intp)
        low = ((patterns >> used[owner]) & np.uint64(0xFF)).astype(np.intp)
        out |= deposit[(byte << 8)[owner] | low].astype(np.uint64) << np.uint64(b)
        used += pop[byte]
    return out


@lru_cache(maxsize=1)
def _deposit_table() -> tuple[np.ndarray, np.ndarray]:
    """(deposit, pop): deposit[256 r + p] puts the low bits of p on the set bits of r; pop[r] = |r|."""
    r = np.arange(256, dtype=np.uint8)[:, None]
    p = np.arange(256, dtype=np.uint8)[None, :]
    deposit = np.zeros((256, 256), dtype=np.uint8)
    used = np.zeros((256, 1), dtype=np.uint8)
    for i in range(8):
        bit = (r >> i) & 1
        deposit |= ((p >> used) & bit) << i
        used += bit
    return deposit.ravel(), used.ravel().astype(np.uint64)


def _rechunk(arrays: Iterator[np.ndarray], size: int) -> Iterator[np.ndarray]:
    """The concatenation of arrays, cut into consecutive arrays of size (the last shorter)."""
    held: list[np.ndarray] = []
    room = size
    for a in arrays:
        while len(a) >= room:
            held.append(a[:room])
            yield np.concatenate(held)
            a = a[room:]
            held, room = [], size
        if len(a):
            held.append(a)
            room -= len(a)
    if held:
        yield np.concatenate(held)


#: Subsets of [m] get one cached table per m up to this, 2^m points each.
_TABLE_BITS = BLOCK.bit_length() - 1


@lru_cache(maxsize=None)
def _subset_table(m: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """(table, starts): all subsets of range(m) as bit masks, m <= _TABLE_BITS.

    table[starts[j]:starts[j + 1]] lists the j-subsets in
    itertools.combinations order: those holding 0 first, then the rest,
    each part being the (j-1)- or j-subsets of range(1, m) in that order.
    """
    if m == 0:
        table = np.zeros(1, dtype=np.uint64)
    else:
        prev, cut = _subset_table(m - 1)
        one = np.uint64(1)
        parts = []
        for j in range(m + 1):
            if j:
                parts.append(prev[cut[j - 1]:cut[j]] << one | one)
            if j < m:
                parts.append(prev[cut[j]:cut[j + 1]] << one)
        table = np.concatenate(parts)
    table.flags.writeable = False  # shared by every caller
    starts = (0, *np.cumsum([math.comb(m, j) for j in range(m + 1)]).tolist())
    return table, starts


def _combination_pieces(m: int, j: int) -> Iterator[tuple[int, int, np.ndarray]]:
    """The j-subsets of range(m) in order, as pieces (prefix, shift, table).

    A piece stands for prefix | table << shift, with table a slice of a
    cached subset table; above _TABLE_BITS the split follows the order:
    the subsets holding 0, then the rest.
    """
    if not 0 <= j <= m:
        return
    if m <= _TABLE_BITS:
        table, starts = _subset_table(m)
        yield 0, 0, table[starts[j]:starts[j + 1]]
        return
    for prefix, shift, table in _combination_pieces(m - 1, j - 1):
        yield 1 | prefix << 1, shift + 1, table
    for prefix, shift, table in _combination_pieces(m - 1, j):
        yield prefix << 1, shift + 1, table


def _combination_blocks(w: int, band: Band) -> Iterator[np.ndarray]:
    """The banded downset of the point 2^w - 1 in order, a piece at a time."""
    for j in range(band.lo, min(w, band.hi) + 1):
        for prefix, shift, table in _combination_pieces(w, j):
            yield table << np.uint64(shift) | np.uint64(prefix)


@lru_cache(maxsize=64)
def _pattern_store(band: Band, top: int) -> tuple[np.ndarray, np.ndarray]:
    """(patterns, offsets): the banded downsets of 2^w - 1 for w = 0..top.

    The downset for weight w starts at patterns[offsets[w]].  Callers keep
    each downset within BLOCK points and round top up to 8k - 1, so a band
    has a store or two, of a few BLOCKs at most.
    """
    tables = [np.concatenate([np.zeros(0, dtype=np.uint64), *_combination_blocks(w, band)])
              for w in range(top + 1)]
    offsets = np.zeros(MAX_DENSE_ARITY + 2, dtype=np.intp)
    offsets[1:top + 2] = np.cumsum([len(t) for t in tables])
    patterns = np.concatenate([np.zeros(0, dtype=np.uint64), *tables])
    patterns.flags.writeable = offsets.flags.writeable = False
    return patterns, offsets


# -- band sampling -----------------------------------------------------------


def band_weight_counts(n: int, band: Band) -> list[int]:
    """[C(n, j) for j in band], the weight-class sizes."""
    return [math.comb(n, j) for j in band.weights()]


_BIT_INDEX = np.arange(64, dtype=np.uint64)
_BIT = np.uint64(1) << _BIT_INDEX


@lru_cache(maxsize=256)
def _downset_classes(n: int, band: Band) -> tuple[np.ndarray, np.ndarray]:
    """Class sizes of the banded downset of a weight-w point, for w = 0..n.

    Returns (totals[w], cum[w, t]): the downset's size and the cumulative
    size of its classes band.lo..band.lo + t, padded with the uint64 maximum.
    Row n is the banded cube itself.
    """
    totals = np.zeros(n + 1, dtype=np.uint64)
    width = max(0, min(band.hi, n) - band.lo + 1)
    cum = np.full((n + 1, width), np.iinfo(np.uint64).max, dtype=np.uint64)
    for w in range(n + 1):
        total = 0
        for t, j in enumerate(range(band.lo, min(w, band.hi) + 1)):
            total += math.comb(w, j)
            cum[w, t] = total
        totals[w] = total
    totals.flags.writeable = cum.flags.writeable = False  # shared by every caller
    return totals, cum


def sample_band_weights(n: int, band: Band, rng: np.random.Generator, size: int) -> np.ndarray:
    """Weight classes for ``size`` uniform draws from the banded cube (n <= 63).

    This is the weight layer of :func:`sample_band_uniform`: class j is hit
    with probability C(n,j)/sum over the band, using exact integer arithmetic.
    One ``integers(0, total, size)`` draw.
    """
    totals, cum = _downset_classes(n, band)
    if totals[n] == 0:
        raise ValueError(f"band {band} is empty on {{0..{n}}}")
    us = rng.integers(0, totals[n], size=size, dtype=np.uint64)
    idx = np.searchsorted(cum[n], us, side="right")
    return np.asarray(band.lo + idx, dtype=np.int64)


def _downset_weights(
    rng: np.random.Generator, n: int, band: Band, ws: np.ndarray
) -> np.ndarray:
    """Weight class j of a uniform banded-downset point below each weight ws[i].

    One ``integers(0, total_w)`` draw u per point, then j = band.lo plus the
    number of cumulative class sizes <= u.
    """
    totals, cum = _downset_classes(n, band)
    us = rng.integers(0, totals[ws], dtype=np.uint64)
    return band.lo + (cum[ws] <= us[:, None]).sum(axis=1)


def _lowest(keys: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Per row i, the point whose bits are the columns of its counts[i] smallest keys.

    Equal keys go to the lower column, as in a stable per-row argsort.
    """
    order = np.argsort(keys, axis=1, kind="stable")
    taken = np.arange(keys.shape[1]) < counts[:, None]
    return (_BIT[order] * taken).sum(axis=1, dtype=np.uint64)


def _batch_band_points(n: int, weights: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Band points (uint64) with the given weight classes; one float row each from rng."""
    return _lowest(rng.random((len(weights), n)), weights)


def _subsets(xs: np.ndarray, sizes: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Per round i, the sizes[i]-subset of xs[i]'s bits that rows[i] selects.

    The k-th set bit of xs[i], lowest first, takes the value rows[i, k]; the
    subset is the bits with the sizes[i] smallest values.
    """
    n = rows.shape[1]
    bits = ((xs[:, None] >> _BIT_INDEX[:n]) & np.uint64(1)).astype(bool)
    rank = np.maximum(np.cumsum(bits, axis=1) - 1, 0)
    keys = np.where(bits, rows[np.arange(len(rows))[:, None], rank], np.inf)
    return _lowest(keys, sizes)


def sample_band_uniform(n: int, band: Band, rng: np.random.Generator) -> int:
    """Exactly uniform point with weight in the band (n <= 63).

    Draws the weight class with :func:`sample_band_weights`, then one row of
    n doubles whose j smallest values pick the point's coordinates.
    """
    weights = sample_band_weights(n, band, rng, 1)
    return int(_batch_band_points(n, weights, rng)[0])


def sample_down_band_uniform(x: int, band: Band, rng: np.random.Generator) -> int:
    """Exactly uniform element of the banded downset of x (must be nonempty).

    One ``integers(0, |downset|)`` draw picks the weight class j, then one
    row of x.bit_length() doubles whose j smallest values on x's set bits
    pick the point.
    """
    if down_band_count(x, band) == 0:
        raise ValueError("banded downset is empty")
    n = x.bit_length()
    js = _downset_weights(rng, n, band, np.array([x.bit_count()]))
    return int(_subsets(np.array([x], dtype=np.uint64), js, rng.random((1, n)))[0])
