"""Core value types: points, function specifications, distributions, oracles.

Points of {0,1}^n are represented sparsely by their zero coordinates
(1-based). Functions are small tagged specifications evaluated on demand;
distributions carry exact rational weights and are sampled by exact
inverse-CDF over a uniform integer draw below the common denominator, so each
point is drawn with probability exactly its weight.

Every exact draw reads a _Law: cumulative integer numerators over their
total. Its draws resolve the inverse CDF through a bucket table: the top
bits of each uniform draw pick one of at most 2^12 equal buckets, a bucket
holding no cut maps to its index by one gather, and only the draws that
land in one of the (at most support-size) buckets holding a cut are
searched exactly. Past 2^62 a draw is one 64-bit word, the top bits of a V
uniform in [0, 1), bucketed against the top words of the cuts over the
total; a word whose bucket holds one is counted by _Law.count, which reads
on only on a tie. A distribution holds its law, so every sampler of it
draws through one table, built on the first draw.

A Sampler draws from two streams: draw() and draws(k) hand out (point, label)
pairs in order, and the tester's blocks of groups come from a batch stream
that continues from call to call. rebind() copies it onto a run's streams,
and _conditioned(label) gives the law of the distribution conditioned on a
label, over the support points that have it.
BlackBox.flipped(C) and Sampler.flipped(C) are views that flip the queries
asked or the points handed out, share both streams, and log in the
instance's own coordinates; each checks C once, as Flipped does.
BlackBox.query_until asks a batch of small zero sets in order and stops at
the first whose answer ends the run. BlackBox._required() names P when the
box, flip included, asks a monotone conjunction (P, {}) and does not log,
and decides the tester's known runs; each box and view reads P once.
A quiet, unflipped box whose function has a batch rule answers
_BATCH_ROWS or more queries ahead (BlackBox._batches), then charges them in
sequential order up to the one where its caller stops.

One QueryTranscript is the ledger of a trial: every oracle of the trial,
every flipped view and every amplification attempt charges it. It counts
(and optionally logs) the black-box queries, which a box charges to its
transcript, and the samples, which a sampler charges to its own; with a
limit set it refuses, by raising BudgetExceeded before counting, any call
that would take either count past the limit. A batch of calls is charged
as its calls would be one at a time: the calls that fit are counted, and
the batch is refused at the first that does not. A count already past the
limit refuses every call and does not move.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, chain
from typing import Iterable, Optional

import numpy as np

from .rng import _FAST_BOUND, RandomStream

__all__ = [
    "ZeroSet",
    "FunctionSpec",
    "MonotoneConj",
    "GeneralConj",
    "DecisionList",
    "LinearThreshold",
    "TruthTable",
    "Flipped",
    "FiniteDistribution",
    "QueryTranscript",
    "BudgetExceeded",
    "DimensionMismatch",
    "SizeCapError",
    "InfeasibleParameters",
    "BlackBox",
    "Sampler",
]


class DimensionMismatch(ValueError):
    """A point and a function (or distribution) disagree on n."""


class SizeCapError(ValueError):
    """An exact enumeration was asked to exceed its documented size cap."""


class InfeasibleParameters(ValueError):
    """Generator parameters violate their structural constraints."""


class BudgetExceeded(RuntimeError):
    """An oracle call would take a transcript's count past its limit."""


def _coords(n: int, coords: Iterable, what: str, signed: bool = False) -> frozenset:
    """coords as a frozenset; ValueError unless each is a plain int (not a
    bool) in 1..n, or when signed, an int whose absolute value is."""
    # a tuple, so that a one-shot iterator is both checked and returned
    coords = coords if isinstance(coords, frozenset) else tuple(coords)
    for i in coords:
        if type(i) is not int or not 1 <= (abs(i) if signed else i) <= n:
            raise ValueError(f"{what} {i!r} is not an integer in 1..{n}")
    return coords if isinstance(coords, frozenset) else frozenset(coords)


# the coordinate that pads a row of zeros (FunctionSpec._values_at)
_PAD = frozenset({0})
# The fewest rows asked at once through a batch rule: below it numpy's fixed
# cost outweighs a value_at per row on desk no functions, the costliest rule.
_BATCH_ROWS = 128


# ---------------------------------------------------------------------------
# points


@dataclass(frozen=True)
class ZeroSet:
    """A point of {0,1}^n, given by the set of coordinates that are 0.

    Coordinates are 1-based. The all-ones point has an empty zero set.
    """

    n: int
    zeros: frozenset = frozenset()

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be at least 1")
        object.__setattr__(self, "zeros", _coords(self.n, self.zeros, "zero coordinate"))

    @classmethod
    def _checked(cls, n: int, zeros: frozenset) -> "ZeroSet":
        """The point of zeros, ints in 1..n that the caller has checked."""
        point = object.__new__(cls)
        point.__dict__.update(n=n, zeros=zeros)
        return point

    @classmethod
    def all_ones(cls, n: int) -> "ZeroSet":
        return cls(n, frozenset())

    # zeros, sorted, kept by _sorted() after its first call; set through
    # object.__setattr__, which keeps the instance's attributes inline
    _sorted_zeros = None

    def _sorted(self) -> tuple:
        """zeros as a sorted tuple, sorted once per point: it is immutable."""
        if self._sorted_zeros is None:
            object.__setattr__(self, "_sorted_zeros", tuple(sorted(self.zeros)))
        return self._sorted_zeros

    def sorted_zeros(self) -> list[int]:
        return list(self._sorted())

    def flip(self, coords: Iterable[int]) -> "ZeroSet":
        """The point with every coordinate in coords flipped."""
        return ZeroSet(self.n, self.zeros ^ frozenset(coords))

    def __repr__(self):
        return f"ZeroSet(n={self.n}, zeros={self.sorted_zeros()})"


# ---------------------------------------------------------------------------
# function specifications


class FunctionSpec:
    """Base class for function specifications over {0,1}^n."""

    n: int

    def value_at(self, zeros: frozenset) -> int:
        raise NotImplementedError

    _batched = False  # a batch rule: set only where answers never change

    def _mapped(self, coords: np.ndarray) -> np.ndarray:
        """What a batch rule reads of each coordinate of the int array
        coords, 0 being the pad: by default the coordinate itself."""
        return coords

    def _values_at(self, rows: np.ndarray) -> np.ndarray:
        """The value at each row of rows, as int8s: a row holds _mapped() of
        one point's distinct zeros, padded with _mapped() of 0. A batch rule
        reads every row at once; without one, value_at answers each."""
        return np.array([self.value_at(frozenset(row) - _PAD) for row in rows.tolist()],
                        dtype=np.int8)


@dataclass(frozen=True)
class MonotoneConj(FunctionSpec):
    """AND of positive literals: 1 iff every required coordinate is 1.

    required may be empty (the constant-1 function).
    """

    n: int
    required: frozenset

    def __post_init__(self):
        object.__setattr__(self, "required",
                           _coords(self.n, self.required, "required coordinate"))

    def value_at(self, zeros: frozenset) -> int:
        return 1 if self.required.isdisjoint(zeros) else 0

    _batched = True

    def _mapped(self, coords: np.ndarray) -> np.ndarray:  # whether each is required
        return np.isin(coords, np.fromiter(self.required, dtype=int, count=len(self.required)))

    def _values_at(self, rows: np.ndarray) -> np.ndarray:
        return (~rows.any(axis=1)).astype(np.int8)


@dataclass(frozen=True)
class GeneralConj(FunctionSpec):
    """AND of literals: required_one must be 1, required_zero must be 0.

    The two sets may overlap; an overlapping coordinate makes the function
    constant 0, which is itself a valid conjunction.
    """

    n: int
    required_one: frozenset
    required_zero: frozenset

    def __post_init__(self):
        for name in ("required_one", "required_zero"):
            object.__setattr__(self, name, _coords(self.n, getattr(self, name),
                                                   "literal coordinate"))

    def value_at(self, zeros: frozenset) -> int:
        if not self.required_one.isdisjoint(zeros):
            return 0
        return 1 if self.required_zero <= zeros else 0


@dataclass(frozen=True)
class DecisionList(FunctionSpec):
    """Ordered rules (literal, bit); first satisfied literal decides.

    A literal is a signed coordinate: +i is satisfied when z_i = 1, -i when
    z_i = 0. When no rule fires, the default bit is the value.
    """

    n: int
    rules: tuple
    default: int

    def __post_init__(self):
        rules = tuple((l, int(b)) for l, b in self.rules)
        object.__setattr__(self, "rules", rules)
        if self.default not in (0, 1):
            raise ValueError("default bit must be 0 or 1")
        _coords(self.n, [l for l, _ in rules], "literal", signed=True)
        if any(bit not in (0, 1) for _, bit in rules):
            raise ValueError("rule bit must be 0 or 1")

    def value_at(self, zeros: frozenset) -> int:
        for lit, bit in self.rules:
            if (lit > 0 and lit not in zeros) or (lit < 0 and -lit in zeros):
                return bit
        return self.default


@dataclass(frozen=True)
class LinearThreshold(FunctionSpec):
    """1 iff sum of integer weights over 1-coordinates reaches the threshold."""

    n: int
    weights: tuple
    threshold: int

    def __post_init__(self):
        ws = tuple(int(w) for w in self.weights)
        object.__setattr__(self, "weights", ws)
        object.__setattr__(self, "threshold", int(self.threshold))
        if len(ws) != self.n:
            raise ValueError("need one weight per coordinate")
        object.__setattr__(self, "_total", sum(ws))
        # the weight of each coordinate, the pad's 0 first, as Python ints
        object.__setattr__(self, "_weights", np.array((0,) + ws, dtype=object))

    def value_at(self, zeros: frozenset) -> int:
        acc = self._total
        for i in zeros:
            acc -= self.weights[i - 1]
        return 1 if acc >= self.threshold else 0

    _batched = True

    def _mapped(self, coords: np.ndarray) -> np.ndarray:
        return self._weights[coords]

    def _values_at(self, rows: np.ndarray) -> np.ndarray:
        # 1 iff a row's zeros take at most total - threshold off the total
        return (rows.sum(axis=1) <= self._total - self.threshold).astype(np.int8)


@dataclass(frozen=True)
class TruthTable(FunctionSpec):
    """Explicit table for small n (<= 24).

    bits is a packed integer: the output on input z is bit k of bits, where
    bit (i-1) of k holds z_i.
    """

    n: int
    bits: int

    def __post_init__(self):
        if self.n > 24:
            raise SizeCapError("truth tables are capped at n = 24")
        object.__setattr__(self, "bits", int(self.bits))
        if not 0 <= self.bits < (1 << (1 << self.n)):
            raise ValueError("bits out of range for this n")

    def input_index(self, zeros: frozenset) -> int:
        k = (1 << self.n) - 1
        for i in zeros:
            k &= ~(1 << (i - 1))
        return k

    def value_at(self, zeros: frozenset) -> int:
        return (self.bits >> self.input_index(zeros)) & 1


@dataclass(frozen=True)
class Flipped(FunctionSpec):
    """inner evaluated after flipping a fixed set of coordinates."""

    inner: FunctionSpec
    coords: frozenset

    def __post_init__(self):
        object.__setattr__(self, "coords",
                           _coords(self.inner.n, self.coords, "flip coordinate"))

    @property
    def n(self) -> int:
        return self.inner.n

    def value_at(self, zeros: frozenset) -> int:
        return self.inner.value_at(zeros ^ self.coords)


# ---------------------------------------------------------------------------
# distributions


def _over_lcm(weights: list) -> tuple:
    """Exact weights as integers over their common denominator: (the
    numerators, in order, and the lcm of the denominators)."""
    denom = math.lcm(*{w.denominator for w in weights})
    return [w.numerator * (denom // w.denominator) for w in weights], denom


_BUCKET_BITS = 12
# the most samples _Law.draw and Sampler.draws() draw at a time
_DRAW_SAMPLES = 1 << 16


class _Law:
    """The exact law of cum, sorted cumulative integer numerators over total
    = cum[-1]: index k has chance (cum[k] - cum[k-1]) / total. Its cuts are
    cum[:-1] but those equal to total, which no V in [0, 1) reaches; tops,
    their top 64 bits, and the bucket table of draw are built on first use.

    A law may instead be given brackets = (lo, hi), uint64 arrays, sorted,
    with lo[k] <= tops[k] <= hi[k], and exact, a function that returns cum:
    count then decides each word outside every bracket from the brackets
    alone, and cum, total and tops are built from exact on first read."""

    def __init__(self, cum: Optional[tuple] = None, brackets: Optional[tuple] = None,
                 exact=None):
        if cum is not None:
            self.cum = cum
        self._exact, self._brackets = exact, brackets

    @cached_property
    def cum(self) -> tuple:
        return self._exact()

    @cached_property
    def total(self) -> int:
        return self.cum[-1]

    @cached_property
    def tops(self) -> np.ndarray:
        """The top 64 bits of the cuts over total, as uint64s."""
        return np.array([(c << 64) // self.total for c in self.cum[:-1] if c < self.total],
                        dtype=np.uint64)

    @cached_property
    def _buckets(self) -> tuple:
        """(bounds, shift, table, split). A key is a draw u up to 2^62 and a
        word past it; its index is the number of sorted bounds <= key.
        table[key >> shift] is that index, or -1 (and split is set) when it
        is not constant over the key's bucket or, past 2^62, when a key in
        the bucket equals a bound: a word equal to a cut's top word is not
        decided by that word, and goes to count. The table has the
        narrowest signed dtype that holds -1 and len(bounds), which keeps
        the gather, and every index array drawn through it, small."""
        fast = self.total <= _FAST_BOUND
        bounds = np.array(self.cum, dtype=np.int64) if fast else self.tops
        top = self.total - 1 if fast else (1 << 64) - 1  # the largest key
        shift = max(0, top.bit_length() - _BUCKET_BITS)
        lo = np.arange((top >> shift) + 1, dtype=bounds.dtype) << bounds.dtype.type(shift)
        table = np.searchsorted(bounds, lo + bounds.dtype.type((1 << shift) - 1), side="right")
        table[np.searchsorted(bounds, lo, side="right" if fast else "left") != table] = -1
        table = table.astype(np.min_scalar_type(-len(bounds) - 1))
        return bounds, shift, table, bool((table < 0).any())

    def draw(self, rng: RandomStream, k: int) -> np.ndarray:
        """k exact draws of an index, in parts of at most _DRAW_SAMPLES,
        which bound the buffers a draw takes; the words are the same. Up to
        total = 2^62 they are the inverse CDF over rng.integers(total,
        size=k). Past it each draw is one word of rng, read as count reads
        it."""
        bounds, shift, table, split = self._buckets
        fast = self.total <= _FAST_BOUND
        idx = np.empty(k, dtype=table.dtype)
        for start in range(0, k, _DRAW_SAMPLES):
            part = idx[start:start + _DRAW_SAMPLES]  # a view: misses land in idx
            u = rng.integers(self.total, size=part.size) if fast else rng._words(part.size)
            part[:] = table[u >> shift if shift else u]
            if split and part.min(initial=0) < 0:
                miss = part < 0
                part[miss] = (np.searchsorted(bounds, u[miss], side="right") if fast
                              else self.count(rng, u[miss]))
        return idx

    def count(self, rng: RandomStream, words: np.ndarray) -> np.ndarray:
        """For each word of words, read from rng as the first 64 bits of a V
        uniform in [0, 1), the number of cuts c with c/total <= V. A word
        counts the tops below it; a word equal to a top reads V 64 more
        bits at a time from rng's tie stream, in row order, while some cut
        is undecided (Knuth and Yao's lazy comparison): V's prefix P of b
        bits decides c once it differs from floor(c 2^b / total), or equals
        it with no remainder. So a batch of words reads the words of as
        many single draws. With brackets, a word counts the brackets below
        it, and only a word inside one reads the tops."""
        lo, hi = self._brackets or (self.tops,) * 2
        below = np.searchsorted(hi, words, side="left")
        past = np.searchsorted(lo, words, side="right")
        rows = np.flatnonzero(past > below)
        if rows.size and self._brackets:
            # a word inside a bracket: the exact tops decide, as for an exact law
            below[rows] = np.searchsorted(self.tops, words[rows], side="left")
            past[rows] = np.searchsorted(self.tops, words[rows], side="right")
            rows = rows[past[rows] > below[rows]]
        for row in rows.tolist():
            cuts = self.cum[int(below[row]):int(past[row])]
            prefix, bits = int(words[row]), 64
            while cuts:
                split = [divmod(c << bits, self.total) for c in cuts]
                below[row] += sum(t < prefix or t == prefix and not r for t, r in split)
                cuts = [c for c, (t, r) in zip(cuts, split) if t == prefix and r]
                if cuts:
                    prefix, bits = prefix << 64 | int(rng._ties._words(1)[0]), bits + 64
        return below


@dataclass(frozen=True)
class FiniteDistribution:
    """A finitely supported distribution with exact rational weights.

    Weights are positive Fractions that sum to exactly 1; support points are
    distinct. Sampling is exact: a uniform value below the common
    denominator M is drawn and mapped through the cumulative numerators, so
    every point has probability exactly its weight.
    """

    n: int
    entries: tuple

    def __post_init__(self):
        norm = []
        seen = set()
        for point, weight in self.entries:
            if not isinstance(point, ZeroSet):
                raise TypeError("support points must be ZeroSet")
            if point.n != self.n:
                raise DimensionMismatch("support point has wrong n")
            w = weight if type(weight) is Fraction else Fraction(weight)
            if w.numerator <= 0:
                raise ValueError("weights must be positive")
            if point.zeros in seen:
                raise ValueError("support points must be distinct")
            seen.add(point.zeros)
            norm.append((point, w))
        if not norm:
            raise ValueError("distribution must have non-empty support")
        nums, denom = _over_lcm([w for _, w in norm])
        cum = tuple(accumulate(nums))
        if cum[-1] != denom:
            raise ValueError(
                f"weights must sum to exactly 1, got {Fraction(cum[-1], denom)}")
        object.__setattr__(self, "entries", tuple(norm))
        object.__setattr__(self, "_law", _Law(cum))

    @classmethod
    def _checked(cls, n: int, entries: tuple, cum: tuple) -> "FiniteDistribution":
        """The distribution of entries, (ZeroSet, Fraction) pairs that the
        caller has checked: distinct points of dimension n, positive weights
        whose numerators over their common denominator cum[-1] run up to
        cum."""
        dist = object.__new__(cls)
        dist.__dict__.update(n=n, entries=entries, _law=_Law(cum))
        return dist

    @property
    def denominator(self) -> int:
        return self._law.total


def _batch(func: FunctionSpec, rows: int) -> bool:
    """Whether func's batch rule answers rows points at once."""
    return rows >= _BATCH_ROWS and func._batched and func.n < 1 << 63


def _slices_at(func: FunctionSpec, mapped: np.ndarray, starts: np.ndarray,
               sizes: np.ndarray) -> np.ndarray:
    """func._values_at on the zero sets mapped[start:start + size] (the pad
    last) as one padded batch; split at a quarter of the widest set when
    the pad would take over 3/4 of it, so memory stays that of the sets."""
    width = int(sizes.max(initial=0))
    if width * sizes.size > 4 * int(sizes.sum()):
        small, values = sizes <= width // 4, np.empty(sizes.size, dtype=np.int8)
        for part in (small, ~small):
            values[part] = _slices_at(func, mapped, starts[part], sizes[part])
        return values
    cols = np.arange(width)
    at = np.where(cols < sizes[:, None], starts[:, None] + cols, mapped.size - 1)
    return func._values_at(mapped[at])


def _flat_sets(sets: list) -> tuple:
    """(flat, starts, sizes) of the zero sets in sets, for _slices_at on
    func._mapped(flat): their coordinates, set after set, then the pad 0."""
    sizes = np.fromiter(map(len, sets), dtype=np.int64, count=len(sets))
    flat = np.fromiter(chain(chain.from_iterable(sets), (0,)), dtype=np.int64,
                       count=int(sizes.sum()) + 1)
    return flat, np.cumsum(sizes) - sizes, sizes


def _support_labels(func: FunctionSpec, dist: FiniteDistribution,
                    sets: Optional[tuple] = None) -> np.ndarray:
    """func's labels on dist's support, in entry order, as an int8 array; a
    batch reads sets, the support's _flat_sets, when given. Raises
    DimensionMismatch when func and dist disagree on n, and ValueError
    unless every label is 0 or 1."""
    if func.n != dist.n:
        raise DimensionMismatch("function and distribution disagree on n")
    if _batch(func, len(dist.entries)):
        flat, starts, sizes = sets or _flat_sets([p.zeros for p, _ in dist.entries])
        return _slices_at(func, func._mapped(flat), starts, sizes)
    labels = [func.value_at(p.zeros) for p, _ in dist.entries]
    if not set(labels) <= {0, 1}:
        raise ValueError("labels must be 0 or 1")
    return np.array(labels, dtype=np.int8)


# ---------------------------------------------------------------------------
# transcripts and oracles


@dataclass
class QueryTranscript:
    """The ledger of one trial: counts (and optionally logs) black-box
    queries and sample draws, and caps each count at limit when one is set.

    take_blackbox charges one query and _take a batch of calls, each as it
    would be alone: a call the limit refuses raises BudgetExceeded and is
    never counted.
    """

    blackbox_count: int = 0
    sample_count: int = 0
    log_queries: bool = False
    limit: Optional[int] = None
    blackbox_log: list = field(default_factory=list)
    sample_log: list = field(default_factory=list)
    # support indices actually drawn; below sample_count when Stage 0
    # charges groups undrawn or draws them as their facts
    samples_drawn: int = 0

    def take_blackbox(self, k: int = 1) -> None:
        if self.limit is not None and self.blackbox_count + k > self.limit:
            raise BudgetExceeded("black-box query budget exhausted")
        self.blackbox_count += k

    def _take(self, count: str, calls: int, size: int = 1, charge: bool = True) -> int:
        """Charge a batch of calls, each of size units, on count
        ("blackbox_count" or "sample_count") as the calls would be one at a
        time: those the limit admits are charged, and the first that does
        not fit raises BudgetExceeded. A count already at or past the limit
        admits none and does not move. With charge off, this only asks: it
        returns how many calls fit, and refuses at once when some call is
        asked and none fits. Returns the calls that fit."""
        held = getattr(self, count)
        fit = calls if self.limit is None else max(0, min(calls, (self.limit - held) // size))
        if charge:
            setattr(self, count, held + fit * size)
        if fit < calls and (charge or not fit):
            raise BudgetExceeded("sampling budget exhausted" if count == "sample_count"
                                 else "black-box query budget exhausted")
        return fit


# BlackBox._p before _required() has read it
_UNREAD = object()


def _literals(func: FunctionSpec, flip: frozenset = frozenset()) -> Optional[tuple]:
    """(P, N) when func, with the coordinates in flip flipped, is the
    conjunction of z_i = 1 for i in P and z_i = 0 for i in N; None for any
    other function. A flipped conjunction is again one: flipping i moves it
    from P to N or back."""
    if type(func) is Flipped:
        return _literals(func.inner, func.coords ^ flip)
    if type(func) is MonotoneConj:
        ones, zeros = func.required, frozenset()
    elif type(func) is GeneralConj:
        ones, zeros = func.required_one, func.required_zero
    else:
        return None
    return (ones - flip) | (zeros & flip), (zeros - flip) | (ones & flip)


class BlackBox:
    """Counted membership-query access to a function."""

    def __init__(self, func: FunctionSpec, transcript: QueryTranscript):
        self.func = func
        self.n = func.n
        self.transcript = transcript
        self._flip = frozenset()
        self._p = _UNREAD

    def _required(self) -> Optional[frozenset]:
        """P when the function this box asks, flip included, is the monotone
        conjunction (P, {}) of _literals and the box does not log; else None,
        and a box that logs asks each query. Read on the first call, then kept."""
        if self._p is _UNREAD:
            literals = _literals(self.func, self._flip)
            self._p = literals[0] if literals is not None and not literals[1] else None
        return None if self.transcript.log_queries else self._p

    def query(self, x: ZeroSet) -> int:
        if x.n != self.n:
            raise DimensionMismatch("query point has wrong n")
        return self.query_set(x.zeros)

    def query_set(self, zeros: frozenset) -> int:
        """Same as query, for callers that already hold a validated zero set."""
        t = self.transcript
        t.take_blackbox()
        if self._flip:
            zeros = zeros ^ self._flip
        value = self.func.value_at(zeros)
        if t.log_queries:
            t.blackbox_log.append((zeros, value))
        return value

    def flipped(self, coords: Iterable[int]) -> "BlackBox":
        """A view flipping coords in every query before f sees it. It shares
        this box's transcript: each query is one query of f, logged as the
        point f was asked."""
        view = copy.copy(self)
        view._flip, view._p = self._flip ^ _coords(self.n, coords, "flip coordinate"), _UNREAD
        return view

    def _batches(self, rows: int) -> bool:
        """Whether rows queries are answered ahead, uncharged, by the batch
        rule: a flip or a log asks each as one query_set."""
        return not self._flip and not self.transcript.log_queries and _batch(self.func, rows)

    def query_until(self, rows: np.ndarray, stop: int) -> Optional[int]:
        """Ask the zero sets in rows in order until one is answered stop:
        its index, or None when none is.

        Each row lists the distinct coordinates of one set, padded with 0s,
        and is charged and logged as one query_set. A box that batches asks
        doubling blocks of rows, answers past the stop dropped uncharged."""
        if not self._batches(len(rows)):
            for k, row in enumerate(rows.tolist()):
                if self.query_set(frozenset(row) - _PAD) == stop:
                    return k
            return None
        start, block = 0, _BATCH_ROWS
        while start < len(rows):
            part = rows[start:start + block]
            hit = np.flatnonzero(self.func._values_at(self.func._mapped(part)) == stop)
            self.transcript._take("blackbox_count", int(hit[0]) + 1 if hit.size else len(part))
            if hit.size:
                return start + int(hit[0])
            start, block = start + len(part), 2 * block
        return None


class Sampler:
    """Counted sampling-oracle access to (dist, func): (point, label) pairs."""

    def __init__(self, dist: FiniteDistribution, func: FunctionSpec,
                 transcript: QueryTranscript, rng: RandomStream):
        self._setup(dist, func, transcript, rng, _support_labels(func, dist))

    @classmethod
    def _labelled(cls, dist: FiniteDistribution, func: FunctionSpec,
                  transcript: QueryTranscript, rng: RandomStream,
                  labels: np.ndarray) -> "Sampler":
        """The sampler __init__ builds, on labels the caller has already
        checked to be func's on the support, in entry order."""
        sampler = cls.__new__(cls)
        sampler._setup(dist, func, transcript, rng, labels)
        return sampler

    def _setup(self, dist, func, transcript, rng, labels) -> None:
        self.dist = dist
        self.func = func
        self.n = dist.n
        self.transcript = transcript
        self.rng = rng
        self._points = [p for p, _ in dist.entries]
        self.labels = labels
        # the batch stream of _draw_groups; its label keeps every drawn word
        # the same as in earlier versions, which named it the first "tape"
        self._batch = rng.split("tape", 1)

    def _conditioned(self, label: int) -> Optional[tuple]:
        """(law, members): members, the support indices labelled label, and
        the _Law of the distribution conditioned on that label, over
        positions in members: the members' numerators over their sum. None
        when no support point has the label."""
        members = np.flatnonzero(self.labels == label)
        if not members.size:
            return None
        cum = self.dist._law.cum
        return _Law(tuple(accumulate(cum[i] - (cum[i - 1] if i else 0)
                                     for i in members.tolist()))), members

    # -- support accessors --

    @property
    def support_size(self) -> int:
        return len(self._points)

    def point(self, idx: int) -> ZeroSet:
        return self._points[idx]

    # -- drawing --

    def _log(self, idx: np.ndarray) -> None:
        t = self.transcript
        if t.log_queries:
            entries = self.dist.entries
            t.sample_log.extend((entries[i][0].zeros, label) for i, label
                                in zip(idx.tolist(), self.labels[idx].tolist()))

    def _counted(self, k: int):
        """The support indices of k counted draws, yielded a chunk of at most
        _DRAW_SAMPLES at a time, each chunk charged (and counted as drawn)
        before it is drawn; under a limit, as with one draw() per draw, the
        draws that fit are yielded, then the next is refused."""
        t = self.transcript
        fit = t._take("sample_count", k, charge=False)
        for start in range(0, fit, _DRAW_SAMPLES):
            size = min(_DRAW_SAMPLES, fit - start)
            t._take("sample_count", size)
            t.samples_drawn += size
            yield self.dist._law.draw(self.rng, size)
        t._take("sample_count", k - fit)  # refuses the first draw that did not fit

    def draws(self, k: int):
        """k counted draws, yielded in order a chunk at a time: the words,
        pairs, counts, log and budget refusal of k draw() calls."""
        for idx in self._counted(k):
            self._log(idx)
            yield from zip(map(self._points.__getitem__, idx.tolist()),
                           self.labels[idx].tolist())

    def draw(self) -> tuple[ZeroSet, int]:
        """One counted draw: (point, func(point))."""
        return next(self.draws(1))

    def _draw_many(self, law: _Law, rng: RandomStream, total: int) -> np.ndarray:
        """law.draw(rng, total), counted as drawn but uncharged."""
        idx = law.draw(rng, total)
        self.transcript.samples_drawn += total
        return idx

    def _draw_groups(self, count: int, size: int) -> tuple:
        """count groups of size draws from the batch stream, uncharged: the
        caller charges (and logs) each group before reading it. Returns the
        support indices and their labels, each as a (count, size) array.
        The words, and the indices, are those of count successive draws of
        size from the batch stream."""
        idx = self._draw_many(self.dist._law, self._batch, count * size).reshape(count, size)
        return idx, np.take(self.labels, idx)

    def rebind(self, transcript: QueryTranscript, rng: RandomStream) -> "Sampler":
        """The sampler Sampler(dist, func, transcript, rng) would build, as a
        copy that shares this one's labels (and, as every sampler of dist
        does, dist's law)."""
        view = copy.copy(self)
        view.transcript, view.rng, view._batch = transcript, rng, rng.split("tape", 1)
        return view

    def flipped(self, coords: Iterable[int]) -> "Sampler":
        """A view handing out x with coords flipped, under x's label. It shares
        this sampler's transcript, RNG streams, labels and law, and
        logs each draw as the distribution's own point."""
        view = copy.copy(self)
        flip = _coords(self.n, coords, "flip coordinate")
        view._points = [ZeroSet._checked(self.n, p.zeros ^ flip) for p in self._points]
        return view
