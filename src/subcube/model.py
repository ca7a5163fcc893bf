"""Core value types: points, function specifications, distributions, oracles.

Points of {0,1}^n are represented sparsely by their zero coordinates
(1-based). Functions are small tagged specifications evaluated on demand;
distributions carry exact rational weights and are sampled by exact
inverse-CDF over a uniform integer draw below the common denominator, so each
point is drawn with probability exactly its weight.

The batched sampler resolves the inverse CDF through a bucket table: the top
bits of each uniform draw pick one of at most 2^12 equal buckets, a bucket
holding no CDF boundary maps to its support index by one gather, and only the
draws that land in one of the (at most support-size) buckets holding a
boundary are searched exactly. Past 2^62 a draw is one 64-bit word, the top
bits of a V uniform in [0, 1), bucketed against the top words of the
boundaries over the denominator; a word whose bucket holds one is counted
against the boundaries by rng's exact reader, which reads on only on a tie.

A Sampler draws from two streams: draw() and draws(k) hand out (point, label)
pairs in order, and the tester's blocks of groups come from a batch stream
that continues from call to call. rebind() copies it onto a run's streams,
and _conditioned(label) onto the distribution conditioned on a label,
which it draws through the same bucket-table code.
BlackBox.flipped(C) and Sampler.flipped(C) are views that flip the queries
asked or the points handed out, share both streams, and log in the
instance's own coordinates. BlackBox.query_until asks a batch of small zero
sets in order and stops at the first whose answer ends the run. A
conjunction, flipped or not, is again a conjunction, so the box answers it
for the whole batch from a table of each coordinate's literal; any other
function is asked set by set.

One QueryTranscript is the ledger of a trial: every oracle of the trial,
every flipped view and every amplification attempt charges it. It counts
(and optionally logs) the black-box queries and the samples, and with a
limit set it refuses, by raising BudgetExceeded before counting, any call
that would take either count past the limit. A batch of calls is charged
as its calls would be one at a time: the calls that fit are counted, and
the batch is refused at the first that does not. A count already past the
limit refuses every call and does not move.
"""

from __future__ import annotations

import copy
import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from typing import Iterable, Optional

import numpy as np

from .rng import RandomStream, _below_cuts

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

    def sorted_zeros(self) -> list[int]:
        return sorted(self.zeros)

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

    def value_at(self, zeros: frozenset) -> int:
        acc = self._total
        for i in zeros:
            acc -= self.weights[i - 1]
        return 1 if acc >= self.threshold else 0


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
        object.__setattr__(self, "_denominator", denom)
        object.__setattr__(self, "_cum", cum)

    @property
    def denominator(self) -> int:
        return self._denominator


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


# the coordinate that pads the rows of BlackBox.query_until
_PAD = frozenset({0})


def _literals(func: FunctionSpec) -> Optional[tuple]:
    """(P, N) when func is the conjunction of z_i = 1 for i in P and z_i = 0
    for i in N, None for any other function. A flipped conjunction is again
    one: flipping i moves it from P to N or back."""
    if type(func) is MonotoneConj:
        return func.required, frozenset()
    if type(func) is GeneralConj:
        return func.required_one, func.required_zero
    if type(func) is Flipped:
        inner = _literals(func.inner)
        return None if inner is None else _flip_literals(inner, func.coords)
    return None


def _flip_literals(literals: tuple, coords: frozenset) -> tuple:
    ones, zeros = literals
    return (ones - coords) | (zeros & coords), (zeros - coords) | (ones & coords)


class BlackBox:
    """Counted membership-query access to a function."""

    def __init__(self, func: FunctionSpec, transcript: QueryTranscript):
        self.func = func
        self.n = func.n
        self.transcript = transcript
        self._flip = frozenset()

    @functools.cached_property
    def _codes(self) -> Optional[tuple]:
        """(table, |N|) when the function this box asks, flip included, is
        the conjunction (P, N) of _literals: table[i] has bit 1 when i is in
        P and bit 2 when i is in N. None for any other function."""
        literals = _literals(self.func)
        if literals is None:
            return None
        ones, zeros = _flip_literals(literals, self._flip)
        table = np.zeros(self.n + 1, dtype=np.int8)
        table[np.fromiter(ones, np.intp, len(ones))] = 1
        table[np.fromiter(zeros, np.intp, len(zeros))] |= 2
        return table, len(zeros)

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
        view._flip = self._flip ^ frozenset(coords)
        view.__dict__.pop("_codes", None)  # built for this view when first used
        return view

    def query_until(self, rows: np.ndarray, stop: int) -> Optional[int]:
        """Ask the zero sets in rows in order until one is answered stop:
        its index, or None when none is.

        Each row lists the distinct coordinates of one set, padded with 0s.
        Each set asked is one query, charged and logged as query_set would,
        and a budget runs out at the same query as when they are asked one
        at a time. A conjunction is answered for the whole batch through
        the code table; any other function is asked set by set."""
        if self._codes is None:
            for k, row in enumerate(rows.tolist()):
                if self.query_set(frozenset(row) - _PAD) == stop:
                    return k
            return None
        table, required = self._codes
        codes = table[rows]
        values = (~(codes & 1).any(axis=1)
                  & (np.count_nonzero(codes & 2, axis=1) == required)).astype(np.int8)
        hits = np.flatnonzero(values == stop)
        asked = int(hits[0]) + 1 if hits.size else len(rows)
        t = self.transcript
        if t.log_queries:  # the queries that fit, logged before any refusal
            fit = t._take("blackbox_count", asked, charge=False)
            t.blackbox_log.extend(((frozenset(row) - _PAD) ^ self._flip, value) for row, value
                                  in zip(rows[:fit].tolist(), values[:fit].tolist()))
        t._take("blackbox_count", asked)
        return int(hits[0]) if hits.size else None


_BUCKET_BITS = 12
# the most samples Sampler._draw_many and draws() draw at a time
_DRAW_SAMPLES = 1 << 16


def _bucket_table(bounds: np.ndarray, shift: int, count: int, ties: bool) -> np.ndarray:
    """Support index of each key bucket [b << shift, (b+1) << shift), or -1.

    The index of a key is the number of sorted bounds <= key. A bucket gets -1
    when that number is not constant over it or, with ties, when any key in it
    equals a bound (a word that equals a boundary's top word is not decided
    by that word, and goes to the exact reader). The table has the
    narrowest signed dtype that holds -1 and len(bounds), which keeps the
    gather, and every index array drawn through it, small.
    """
    lo = np.arange(count, dtype=bounds.dtype) << bounds.dtype.type(shift)
    hi = lo + bounds.dtype.type((1 << shift) - 1)
    table = np.searchsorted(bounds, hi, side="right")
    table[np.searchsorted(bounds, lo, side="left" if ties else "right") != table] = -1
    return table.astype(np.min_scalar_type(-len(bounds) - 1))


class Sampler:
    """Counted sampling-oracle access to (dist, func): (point, label) pairs."""

    def __init__(self, dist: FiniteDistribution, func: FunctionSpec,
                 transcript: QueryTranscript, rng: RandomStream):
        if dist.n != func.n:
            raise DimensionMismatch("function and distribution disagree on n")
        self._setup(dist, func, transcript, rng,
                    np.array([func.value_at(p.zeros) for p, _ in dist.entries],
                             dtype=np.int8))

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
        self._set_table(dist._cum)
        # the batch stream of _draw_groups; its label keeps every drawn word
        # the same as in earlier versions, which named it the first "tape"
        self._batch = rng.split("tape", 1)

    def _set_table(self, cum: tuple) -> None:
        """Draw through the inverse CDF of the cumulative numerators cum,
        over the denominator cum[-1]: the bounds and the bucket table."""
        m = self._denominator = cum[-1]
        self._cum = cum
        if m <= 1 << 62:
            # keys are the draws u themselves
            self._bounds = np.array(cum, dtype=np.int64)
            self._key_shift = max(0, (m - 1).bit_length() - _BUCKET_BITS)
            self._table = _bucket_table(self._bounds, self._key_shift,
                                        ((m - 1) >> self._key_shift) + 1, ties=False)
        else:
            # keys are words, the top 64 bits of V; bounds, the top 64 bits
            # of the boundaries cum_i / m below 1
            self._bounds = np.array([(c << 64) // m for c in cum[:-1]], dtype=np.uint64)
            self._key_shift = 64 - _BUCKET_BITS
            self._table = _bucket_table(self._bounds, self._key_shift,
                                        1 << _BUCKET_BITS, ties=True)
        self._split = bool((self._table < 0).any())

    def _conditioned(self, label: int) -> Optional[tuple]:
        """(view, members): members, the support indices labelled label, and
        a copy of this sampler whose _draw_indices_raw draws from the
        distribution conditioned on that label, as positions in members. Its
        weights are the members' numerators over the common denominator, so
        it draws through the same bucket-table code. None when no support
        point has the label."""
        members = np.flatnonzero(self.labels == label)
        if not members.size:
            return None
        view = copy.copy(self)
        cum = self.dist._cum
        view._set_table(tuple(accumulate(cum[i] - (cum[i - 1] if i else 0)
                                         for i in members.tolist())))
        return view, members

    # -- support accessors --

    @property
    def support_size(self) -> int:
        return len(self._points)

    def point(self, idx: int) -> ZeroSet:
        return self._points[idx]

    # -- drawing --

    def _draw_indices_raw(self, rng: RandomStream, k: int) -> np.ndarray:
        """k exact draws from the distribution (support indices); uncounted.

        The indices, and the RNG words consumed, are those of the inverse CDF
        over rng.integers(M, size=k) when M <= 2^62. Otherwise each draw
        reads one word of rng (and, on a tie, words of its tie stream) as V,
        and takes the number of boundaries cum_i / M <= V.
        """
        m = self._denominator
        u = rng.integers(m, size=k) if m <= 1 << 62 else rng._words(k)
        idx = self._table[u >> self._key_shift if self._key_shift else u]
        if self._split and idx.min(initial=0) < 0:
            miss = idx < 0
            if m <= 1 << 62:
                idx[miss] = np.searchsorted(self._bounds, u[miss], side="right")
            else:
                law = self._bounds, lambda lo, hi: (self._cum[lo:hi], m)
                idx[miss] = _below_cuts(rng, law, u[miss])
        return idx

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
            yield self._draw_indices_raw(self.rng, size)
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

    def _draw_many(self, rng: RandomStream, total: int) -> np.ndarray:
        """_draw_indices_raw(rng, total), counted as drawn but uncharged, in
        calls of at most _DRAW_SAMPLES, which bound the buffers that a
        draw takes; the words are the same."""
        idx = np.empty(total, dtype=self._table.dtype)
        for start in range(0, total, _DRAW_SAMPLES):
            stop = min(start + _DRAW_SAMPLES, total)
            idx[start:stop] = self._draw_indices_raw(rng, stop - start)
        self.transcript.samples_drawn += total
        return idx

    def _draw_groups(self, count: int, size: int) -> tuple:
        """count groups of size draws from the batch stream, uncharged: the
        caller charges (and logs) each group before reading it. Returns the
        support indices and their labels, each as a (count, size) array.
        The words, and the indices, are those of count successive draws of
        size from the batch stream."""
        idx = self._draw_many(self._batch, count * size).reshape(count, size)
        return idx, np.take(self.labels, idx)

    def rebind(self, transcript: QueryTranscript, rng: RandomStream) -> "Sampler":
        """The sampler Sampler(dist, func, transcript, rng) would build, as a
        copy that shares this one's labels and bucket table."""
        view = copy.copy(self)
        view.transcript, view.rng, view._batch = transcript, rng, rng.split("tape", 1)
        return view

    def flipped(self, coords: Iterable[int]) -> "Sampler":
        """A view handing out x with coords flipped, under x's label. It shares
        this sampler's transcript, RNG streams, labels and bucket table, and
        logs each draw as the distribution's own point."""
        view = copy.copy(self)
        view._points = [p.flip(coords) for p in self._points]
        return view
