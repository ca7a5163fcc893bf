"""Distribution-free conjunction testers.

The main tester runs in three stages: an up-front sampling stage that also
computes a representative zero coordinate for every 0-sample by binary
search, a stage that probes singletons and random subsets of the union of
1-sample zero sets, and an iterated stage that pits each fresh group's
representative against its 1-strings. All parameters derive from (n, epsilon)
by fixed ceiling rules; base-2 logs throughout. The general-conjunction
tester runs the monotone one on flipped views of the same two oracles.

The monotone tester splits where the paper's stages do. Stages 1 and 2 read
only three facts of each group: its class (too few 1-samples, no 0-sample, or
neither), its first 0-sample, and B, the union of the zero sets of its first t
(Stage 2: t-1) 1-samples. _stage0 returns these facts (_GroupFacts) as one
stream of (few, first0, masks) blocks, a row per group in group order from
group 0, with the representatives, and _stages12 reads nothing else, in order,
up to the group that ends the run.

Stage 0 draws the groups in blocks that double from group 0, which is a block
of its own. While a representative search can still run, or the query log lists
every sample, it draws the groups as samples, reads their facts in numpy
(_block_facts), and charges (and logs) them in runs that end where a search
runs, so a budget or a nil representative lands at the same group as one draw
per group would; the box searches a block's new points together
(BlackBox.representatives), and chooses how it asks them.
Then Stage 0 charges every group left in one step, undrawn, and each later
block is drawn as its groups' facts alone, from their exact law (_GroupLaw),
when _stages12 reads it: runs with logging off have the law of the logged run,
not its draws. A group's class word and missing word are read against brackets
of the cuts' top 64 bits, computed in floats with a written error bound
(_bracket_law); the exact cuts are built only for a word inside a bracket. A
run whose box names P (BlackBox._required(): it does not log and asks a
monotone conjunction (P, {})) and answers every support point with its label is
known: its searches ask nothing (the box's rank walk), and Stage 0
ends it from the groups' classes alone (_known_run), reading class words past
the groups drawn as samples and charging its probes unasked. Queries go to the
box's transcript, samples to the sampler's.

_stages12 asks Stage 2's groups _SUBSET_ROWS at a time: it builds their B
from its flags, as B's coordinates and a table of B's members, decides
step 2.1 from that table, and asks the probes of the rows before the
first step-2.1 group through BlackBox.query_until, which stops at the
first that ends the run. tester.py asks the box and never chooses its path.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate, chain
from typing import Iterator, Optional

import numpy as np

from .model import DimensionMismatch, ZeroSet, _Law
from .rng import RandomStream

__all__ = [
    "TesterParams",
    "Verdict",
    "compute_parameters",
    "ceil_log2",
    "test_monotone_conjunction",
    "test_general_conjunction",
    "amplify",
    "baseline_dolev_ron",
]


def ceil_log2(n: int) -> int:
    """Smallest k with 2^k >= n, for n >= 1."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return (n - 1).bit_length()


def _exact_log2(q: Fraction) -> Optional[int]:
    num, den = q.numerator, q.denominator
    if num & (num - 1) == 0 and den & (den - 1) == 0:
        return (num.bit_length() - 1) - (den.bit_length() - 1)
    return None


def _ceil_cuberoot(n: int) -> int:
    """Smallest r with r^3 >= n, for n >= 0. Newton's integer step from
    above falls to floor(n^(1/3)) and stops there."""
    if n < 2:
        return n
    r = 1 << -(-n.bit_length() // 3)
    while (step := (2 * r + n // (r * r)) // 3) < r:
        r = step
    return r if r ** 3 >= n else r + 1


@dataclass(frozen=True)
class TesterParams:
    """Derived tester parameters for a given (n, epsilon)."""

    n: int
    epsilon: Fraction
    d: int
    d_star: int
    r: int
    t: int
    s: int
    group_size: int
    stage0_samples: int


def _epsilon(value) -> Fraction:
    """value as a Fraction; ValueError unless it lies in (0, 1]."""
    eps = Fraction(value)
    if not 0 < eps <= 1:
        raise ValueError("epsilon must be in (0, 1]")
    return eps


# The most draws a run may plan in one step. A plan past it (the baseline's
# sample count, conj's search for x*, a Stage-0 group drawn as samples, a
# sweep's budget for the baseline) could never finish, so _check_draws
# refuses it before anything is drawn.
_MAX_DRAWS = 1 << 63


def _check_draws(count: int, what: str, n: int, epsilon) -> None:
    """ValueError, naming count, n and epsilon, when count > _MAX_DRAWS."""
    if count > _MAX_DRAWS:
        raise ValueError(f"{what} plans {count} draws, past the 2^63 a run can make "
                         f"(n = {n}, epsilon = {epsilon})")


def compute_parameters(n: int, epsilon) -> TesterParams:
    """All tester parameters from (n, epsilon), everything rounded up.

    d = ceil(log2^2(n/eps)/eps), d_star = ceil(d^2/eps), r = ceil(n^(1/3)),
    t = d*r, s = t*ceil(log2 n), group_size = ceil(3t/eps), and Stage 0 is
    charged group_size*(d_star+1) samples. log2(n/eps) is evaluated exactly when
    n/eps is a power of two, in floating point otherwise. Memoized on (n,
    epsilon as a Fraction): TesterParams is frozen, so equal inputs share it.
    """
    return _parameters(n, _epsilon(epsilon))


@lru_cache(maxsize=256, typed=True)
def _parameters(n: int, eps: Fraction) -> TesterParams:
    if n < 2:
        raise ValueError("n must be at least 2")
    ratio = Fraction(n) / eps
    exact = _exact_log2(ratio)
    if exact is not None:
        d = math.ceil(exact * exact / eps)
    else:
        try:
            lg = math.log2(float(ratio))
        except OverflowError:
            raise ValueError(f"log2(n/epsilon) overflows a float at n = {n}, "
                             f"epsilon = {eps}") from None
        d = math.ceil(Fraction(lg * lg) / eps)
    d_star = math.ceil(d * d / eps)
    r = _ceil_cuberoot(n)
    t = d * r
    s = t * ceil_log2(n)
    group_size = math.ceil(3 * t / eps)
    return TesterParams(
        n=n,
        epsilon=eps,
        d=d,
        d_star=d_star,
        r=r,
        t=t,
        s=s,
        group_size=group_size,
        stage0_samples=group_size * (d_star + 1),
    )


@dataclass
class Verdict:
    """Outcome of one tester run, naming the accept/reject site."""

    accepted: bool
    reason: str
    params: Optional[TesterParams] = None
    # 0-samples of the groups Stage 0 drew as samples; the groups it draws
    # as their facts, or charges undrawn, add none
    stage0_zero_samples: int = 0
    # representative searches Stage 0 ran, one per distinct 0-labelled
    # point, the one that returned nil included
    searches: int = 0

    @property
    def outcome(self) -> str:
        return "accept" if self.accepted else "reject"


# Stage 0 draws its groups in blocks that double from one group up to about
# this many samples (plus one support-sized row of flags per group), so a
# run that ends after a few groups draws few more, and memory stays at one
# block of indices and labels, a few bytes per sample. A block of facts
# holds up to this many flags over the support, and draws each round of
# its D1 draws at most this many at a time.
_BLOCK_SAMPLES = 1 << 18
# A block of facts past group 0 holds at least this many groups: they cost
# a few words each, so a run that ends soon after the first wastes little.
_FACT_GROUPS = 64
# Stages 1 and 2 draw their random subsets this many rows at a time.
_SUBSET_ROWS = 512


def _block_facts(idx: np.ndarray, lab: np.ndarray, need: int, width: int) -> tuple:
    """The facts Stages 1-2 read of each group of a block, given its
    support indices idx (into a support of width points) and their labels
    lab: (few, first0, masks). few[row] is true when the group holds fewer
    than need 1-samples; first0[row] is its first 0-sample, -1 when it has
    none; masks[row] flags, over the support, the points of its first need
    1-samples, and none for a few group. B is read in one pass, as the
    labels' running count against need."""
    count, size = idx.shape
    cum = np.cumsum(lab, axis=1, dtype=np.int32)
    few = cum[:, -1] < need
    first0 = np.where(cum[:, -1] < size, idx[np.arange(count), lab.view(bool).argmin(axis=1)], -1)
    take = lab.view(bool) & (cum <= need) & ~few[:, None]
    masks = np.zeros((count, width), dtype=bool)
    masks[np.nonzero(take)[0], idx[take]] = True
    return few, first0, masks


# The bracket of each Stage-0 cut is its float value widened by this
# relative margin; a word inside one builds the exact cuts, and an exact cut
# past _EXACT_BITS bits is refused (MemoryError) rather than built. The
# class cuts are summed in floats up to _MAX_TERMS terms, and past it bounded
# by Hoeffding's inequality.
_MARGIN = 2.0 ** -30
_EXACT_BITS = 1 << 26
_MAX_TERMS = 1 << 18


def _exact_bits(bits: int) -> None:
    """MemoryError when an exact cut takes more than _EXACT_BITS bits."""
    if bits > _EXACT_BITS:
        raise MemoryError(f"an exact Stage-0 cut would take {bits} bits")


def _power(num: int, den: int, e: int) -> tuple:
    """(f, x) with f 2^x = (num/den)**e, to a relative error below 2^-60,
    f in [0.5, 1) (0.0 when num is 0), for 0 <= num <= den. Fixed point at p = 72 + e.bit_length()
    bits, truncated after each product: the base's truncation, under
    2^(1-p), grows e-fold, and the truncations of the at most 2 log2 e
    products, raised to the powers left, sum to under 8e 2^(1-p) more."""
    prec = 72 + e.bit_length()
    shift = prec + den.bit_length() - num.bit_length()
    base = (num << shift) // den if shift >= 0 else num // (den << -shift)
    m, x = 1, 0
    for bit in bin(e)[2:]:
        m, x = m * m, 2 * x
        if bit == "1":
            m, x = m * base, x - shift
        drop = m.bit_length() - prec
        if drop > 0:
            m, x = m >> drop, x + drop
    f, y = math.frexp(float(m))
    return f, x + y


def _bracket_law(bounds: list, exact) -> _Law:
    """The _Law of the cuts that exact() returns, read through brackets:
    bounds lists (low, high), floats with low <= c/total <= high, for each
    cut c in order but those known to equal total. A bracket is low's and
    high's top 64 bits, made monotone as the tops are."""
    low, high = np.array(bounds, dtype=float).reshape(-1, 2).T * 2.0 ** 64
    # a float below 2^64 converts to its floor; past it, the largest word
    lo = np.where(low < 2.0 ** 64, low, 2.0 ** 63).astype(np.uint64)
    hi = np.where(high < 2.0 ** 64, high, 0).astype(np.uint64)
    hi[high >= 2.0 ** 64] = np.iinfo(np.uint64).max
    return _Law(brackets=(np.maximum.accumulate(lo), np.minimum.accumulate(hi[::-1])[::-1]),
                exact=exact)


def _class_cuts(ones: int, m: int, size: int, need: int) -> _Law:
    """The class law of a group of size draws, each 1-labelled with
    probability ones/m, as counts over m**size: the _Law of (few, few +
    full, m**size), whose count is 0 for few, 1 for no 0-sample and 2 for
    neither. few = sum over k < need of C(size, k) ones^k (m - ones)^(size - k)
    counts the groups with fewer than need 1-samples, and full = ones^size
    those with no 0-sample; the two are disjoint, as need <= size.

    The law is read through brackets (_bracket_law). few/total is summed in
    floats by the terms' ratio recurrence from (zeros/m)^size (_power), each
    term to within 4k+2 roundings and the sum to need more, so (5 need + 8)
    2^-53 < 2^-32 for need <= _MAX_TERMS; past it, or when ones/zeros is past
    2^64, Hoeffding's bounds on Binomial(size, ones/m) hold it. The exact
    cuts are built only for a word inside a bracket."""
    zeros = m - ones

    def exact() -> tuple:
        _exact_bits(size * m.bit_length())
        few = 0
        if zeros and need:
            # term = C(size, k) ones^k zeros^(need - 1 - k), k = 0 .. need - 1;
            # the common factor zeros^(size - need + 1) comes in once, at the end
            term = few = zeros ** (need - 1)
            for k in range(need - 1):
                term = term * (size - k) * ones // ((k + 1) * zeros)
                few += term
            few *= zeros ** (size - need + 1)
        return few, few + ones ** size, m ** size

    if not zeros or not need:
        few = (0.0, 0.0)
    elif not ones:
        return _bracket_law([], exact)  # few = few + full = total
    elif need <= _MAX_TERMS and ones.bit_length() - zeros.bit_length() < 64:
        ratio, term, value, x = ones / zeros, 1.0, 1.0, 0
        for k in range(need - 1):
            term *= (size - k) / (k + 1) * ratio
            value += term
            if term > 2.0 ** 800:
                term, value, x = term * 2.0 ** -800, value * 2.0 ** -800, x + 800
        f, y = math.frexp(value)
        g, z = _power(zeros, m, size)
        value = math.ldexp(f * g, x + y + z)
        few = (value * (1 - _MARGIN), value * (1 + _MARGIN))
    else:
        few = _hoeffding(ones, m, size, need)
    if not zeros or need == size:
        return _bracket_law([few], exact)  # few + full = total
    full = math.ldexp(*_power(ones, m, size))
    return _bracket_law([few, (few[0] + full * (1 - _MARGIN),
                               few[1] + full * (1 + _MARGIN))], exact)


def _hoeffding(ones: int, m: int, size: int, need: int) -> tuple:
    """Bounds (low, high) on P[X < need], X ~ Binomial(size, ones/m), by Hoeffding's
    inequality P[|X - size p| >= d] <= exp(-2 d^2 / size) on the side where need - 1 or need
    lies: size p is above need - 1, or else below need. The exponent is one correctly
    rounded quotient of integers, taken 2^-40 smaller; past a float's range the tail is
    0. The low side 1 - tail is taken _MARGIN smaller, as every bound is widened: a tail
    below 2^-54 rounds it up to 1.0, which bounds nothing from below."""
    def tail(gap: int) -> float:
        # exp(-2 (gap/m)^2 / size)
        try:
            return math.exp(-2 * gap * gap / (m * m * size) * (1 - 2.0 ** -40)) * (1 + _MARGIN)
        except OverflowError:
            return 0.0
    if (gap := size * ones - (need - 1) * m) > 0:
        return 0.0, tail(gap)
    return max(0.0, (1 - tail(need * m - size * ones)) * (1 - _MARGIN)), 1.0


def _missing_cuts(cum: tuple, need: int) -> Optional[_Law]:
    """The law of the 1-labelled point that a group's B misses, for need
    D1 draws, given cum, the cumulative numerators nums of D1's points over
    m1 = cum[-1]: None when U, the sum over the points of the chance that
    B misses each, exceeds 1/2; else the _Law of the cuts C_k = sum over
    j <= k of (m1 - nums[j])**need, over total = m1**need, whose count is
    J, or len(cum) when B misses no point; U is the last cut.

    The law is read through brackets (_bracket_law): each distinct chance
    (1 - v/m1)**need comes from _power, and the running sums in floats are
    within (len(cum) + 2) 2^-53 of the cuts over total. The exact cuts are
    built only for a word inside a bracket, or to decide U against 1/2 when
    U's bracket holds 1/2."""
    m1 = cum[-1]
    nums = [b - a for a, b in zip((0,) + cum[:-1], cum)]

    def exact() -> tuple:
        _exact_bits(need * m1.bit_length())
        powers = {v: (m1 - v) ** need for v in set(nums)}
        return tuple(accumulate(map(powers.__getitem__, nums))) + (m1 ** need,)

    powers = {v: math.ldexp(*_power(m1 - v, m1, need)) for v in set(nums)}
    margin = max(_MARGIN, (len(nums) + 2) * 2.0 ** -51)
    bounds = [(c * (1 - margin), c * (1 + margin))
              for c in accumulate(map(powers.__getitem__, nums))]
    if bounds[-1][0] > 0.5:
        return None
    if bounds[-1][1] > 0.5:
        law = _Law(exact())
        return None if 2 * law.cum[-2] > law.total else law
    return _bracket_law(bounds, exact)


class _GroupLaw:
    """The exact law of the facts of a group of size draws from sampler whose B takes need
    1-samples: the laws of D0 and D1, each with its members, the class law and the missing
    law, each a model._Law. draw(count) draws the facts of count groups on the batch stream,
    not the groups.

    Given its labels, a group's 1-samples are i.i.d. D1 (D conditioned on label 1), its
    0-samples i.i.d. D0, and the two independent. So a group takes one word for its class
    (few; no 0-sample; neither) against the cuts of _class_cuts, read by its count; one D0
    draw, its first 0-sample, when it has both labels; and B, the points of need D1 draws.
    When U <= 1/2 (_missing_cuts), B takes Karp, Luby and Madras's exact sampler of a union
    of events: one word per group, read by the missing law's count, gives B every 1-labelled
    point, or picks a point J with the chance that B misses J. A group with J draws need D1
    draws, each of J redrawn, and, with c points missed, keeps what it saw with chance 1/c
    (one draw below c when c > 1), else every point; so a B that misses the set M comes out
    with chance sum over j in M of P(B) / |M| = P(B). A group stops drawing once it has seen
    every 1-labelled point but J. The words are read in that order: the class words, the D0
    draws, the missing words, the D1 draws, then the draws below c; a tied word reads on
    from the batch stream's tie stream."""

    def __init__(self, sampler, size: int, need: int):
        self.sampler, self.need = sampler, need
        self.zeros, self.ones = sampler._conditioned(0), sampler._conditioned(1)
        ones = self.ones[0].total if self.ones else 0
        self.cuts = _class_cuts(ones, sampler.dist.denominator, size, need)

    @cached_property
    def missing(self) -> Optional[_Law]:
        # lazy: its powers are large, and a known run reads only the class cuts
        return _missing_cuts(self.ones[0].cum, self.need)

    def draw(self, count: int) -> tuple:
        """The facts of count groups, a row per group, as _block_facts returns
        them, but with first0 -1 for a few group; _stage0 yields them unchanged."""
        sampler, need, rng = self.sampler, self.need, self.sampler._batch
        cls = self.cuts.count(rng, rng._words(count))

        first0 = np.full(count, -1, dtype=np.intp)
        both = np.flatnonzero(cls == 2)
        if both.size:
            law, members = self.zeros
            first0[both] = members[sampler._draw_many(law, rng, both.size)]

        masks = np.zeros((count, sampler.support_size), dtype=bool)
        rows = np.flatnonzero(cls > 0)
        if rows.size:
            law, members = self.ones
            missing = self.missing
            width = len(members)
            found = np.zeros((rows.size, width), dtype=bool)
            # live: the positions in rows of the groups not yet settled
            live = np.arange(rows.size)
            skip = None
            if missing is not None:
                # skip: J's position in members, or width when B is every point
                skip = missing.count(rng, rng._words(rows.size))
                found[skip == width] = True
                live = picked = np.flatnonzero(skip < width)
                # J counts as seen, so a row stops once it has seen the rest;
                # got: each row's D1 draws so far, J's aside
                found[picked, skip[picked]] = True
                got = np.zeros(rows.size, dtype=np.int64)
            # Without J, every live row has drawn lo: the first round draws
            # width, the fewest that can show every point, and each later one
            # half as many more as have been drawn. With J, few rows are live,
            # and a round draws all that some row still needs. A round is drawn
            # in parts of at most _BLOCK_SAMPLES.
            flags = found.reshape(-1)
            lo, hi = 0, width
            while live.size and lo < need:
                k = min(hi, need) - lo if skip is None else need - int(got[live].min())
                step = max(1, _BLOCK_SAMPLES // k)
                for start in range(0, live.size, step):
                    part = live[start:start + step]
                    draws = sampler._draw_many(law, rng, part.size * k).reshape(part.size, k)
                    # the flag of each draw: its point's, in its group's row
                    at = draws + (part * width)[:, None]
                    if skip is None:
                        flags[at] = True
                    else:
                        # a draw of J is redrawn: a row reads its first need others
                        keep = draws != skip[part, None]
                        if int(got[part].max()) + k > need:
                            keep &= np.cumsum(keep, axis=1) <= (need - got[part])[:, None]
                        flags[at[keep]] = True
                        got[part] += keep.sum(axis=1)
                live = live[~found[live].all(axis=1)]
                if skip is None:
                    lo, hi = hi, hi + (hi + 1) // 2
                else:
                    live = live[got[live] < need]
            if skip is not None:
                # keep a row's seen set with chance 1/c, c the points it missed
                found[picked, skip[picked]] = False
                c = width - found[picked].sum(axis=1)
                many = np.flatnonzero(c > 1)
                if many.size:
                    found[picked[many[rng._gen.integers(0, c[many]) > 0]]] = True
            masks[np.ix_(rows, members)] = found
        return cls == 0, first0, masks


def _b_rows(zeros: tuple, flags: np.ndarray) -> tuple:
    """The B of each row of flags, from zeros = (point, cols, coord), the
    support's zero pairs with coord indexing cols, their sorted distinct coordinates:
    each B's size and offset in the third array, every B sorted in turn, a 0 pad;
    and bits, the table of B's members, one column per coordinate of cols."""
    point, cols, coord = zeros
    bits = np.zeros((len(flags), len(cols)), dtype=bool)
    for k, row in enumerate(flags):
        bits[k, coord[row[point]]] = True
    sizes = bits.sum(axis=1)
    return sizes, np.cumsum(sizes) - sizes, np.append(cols[np.nonzero(bits)[1]], 0), bits


@dataclass
class _GroupFacts:
    """All Stages 1-2 read of Stage 0's groups. blocks yields (few, first0, masks) blocks,
    each drawn when read, a row per group in order from group 0: too few 1-samples; the
    first 0-sample, or -1; B's points as flags over the support. reps: each searched point's
    representative. zero_count: the 0-samples of the groups drawn as samples."""

    blocks: Iterator
    reps: dict
    zero_count: int


def _out_of_memory(p: TesterParams) -> MemoryError:
    """The MemoryError of Stage 0's draws, naming group_size."""
    return MemoryError(f"Stage 0 ran out of memory on its groups of group_size = "
                       f"{p.group_size} samples (n = {p.n}, epsilon = {p.epsilon}); a "
                       "larger epsilon or a smaller n shrinks group_size")


def _stage0(oracle, sampler, p: TesterParams):
    """Stage 0 after the all-ones probe: every sample group, and a representative search for
    each distinct 0-labelled point drawn. Returns the stage0-nil-representative Verdict, a
    known run's Verdict (_known_run), or the _GroupFacts of the groups up to the first that
    ends the run: _block_facts' rows of those drawn as samples, read here, then
    _GroupLaw.draw's of the rest, drawn as Stages 1-2 read them."""
    transcript = sampler.transcript
    size, groups, width = p.group_size, p.d_star + 1, sampler.support_size
    # reps[si]: the representative of 0-labelled point si, one per search
    reps: dict[int, Optional[int]] = {}
    # done[si]: si is 1-labelled or its representative is already computed
    done = sampler.labels != 0
    pending = width - int(np.count_nonzero(done))
    zero_count, recording, g = 0, True, 0
    blocks = []  # the facts of the groups drawn as samples
    block = 1  # group 0, whose B takes t 1-samples, is a block of its own
    max_block = max(1, _BLOCK_SAMPLES // (size + width))
    max_facts = max(1, _BLOCK_SAMPLES // (2 * width))

    def charge(idx: np.ndarray, lab: np.ndarray, a: int, b: int) -> None:
        # groups a..b-1 of a block, read, in one step
        nonlocal zero_count
        transcript._take("sample_count", b - a, size)
        sampler._log(idx[a:b].ravel())
        zero_count += (b - a) * size - int(np.count_nonzero(lab[a:b]))

    # Groups drawn as samples. Each block's facts are computed up front, but
    # a group is charged (and logged) before any search runs on it, so a
    # budget, a nil representative or the end of the phase lands at the
    # same group as when groups are drawn one at a time. No block holds a
    # refused group; a block none of whose groups fits is refused.
    while g < groups and (pending or transcript.log_queries):
        count = transcript._take("sample_count", min(block, max_block, groups - g), size,
                                 charge=False)
        block = min(2 * block, max(max_block, max_facts))
        try:
            _check_draws(size, "a Stage-0 group", p.n, p.epsilon)
            idx, lab = sampler._draw_groups(count, size)
            if recording:
                few, first0, masks = _block_facts(idx, lab, p.t if g == 0 else p.t - 1, width)
        except MemoryError:
            raise _out_of_memory(p) from None
        # last: the last row the run must read, count when it reads them all
        last = count if transcript.log_queries else -1
        if recording:
            # the block's facts, read up to the first group that ends the run
            blocks.append((few, first0, masks))
            ends = few | (first0 < 0) if g else few
            recording = not ends.any()
            last = max(last, count if recording else int(ends.argmax()))
        # (row, point) of each first appearance of a point not yet searched
        searches = []
        if pending:
            flat = idx.ravel()
            fresh = np.flatnonzero(~done[flat])
            points, first = np.unique(flat[fresh], return_index=True)
            order = np.argsort(first)
            searches = list(zip((fresh[first[order]] // size).tolist(),
                                points[order].tolist()))
            last = max(last, searches[-1][0] if len(searches) == pending else count)
        start, found = 0, oracle.representatives([sampler.point(si) for _, si in searches])
        for row, si in searches:
            if row >= start:
                charge(idx, lab, start, row + 1)
                start = row + 1
            done[si] = True
            pending -= 1
            rep = reps[si] = next(found)
            if rep is None:
                return Verdict(False, "stage0-nil-representative", p, zero_count, len(reps))
        read = min(last + 1, count)
        charge(idx, lab, start, read)
        g += read
    # No group left can start a search, and those past the one that ends
    # the run change no verdict, query or count: charge them all now, in one
    # step, so a budget refuses the group where drawing would exhaust it.
    transcript._take("sample_count", groups - g, size)
    # a known run: the box decides, naming P and answering every support point with its label
    if (required := oracle._required()) is not None and all(
            required.isdisjoint(sampler.point(si).zeros) == label
            for si, label in enumerate(sampler.labels.astype(bool).tolist())):
        return Verdict(*_known_run(oracle, sampler, p, blocks, max_facts), p, zero_count,
                       len(reps))

    def drawn(g: int, block: int):
        # The groups' facts alone, past group 0 at least _FACT_GROUPS groups
        # a block; with no 0-labelled point, group 1 ends the run, alone.
        law, some_zero = None, bool((sampler.labels == 0).any())
        while g < groups:
            block = max(block, _FACT_GROUPS) if some_zero else 1
            count = min(block, max_facts, groups - g)
            block = min(2 * block, max(max_block, max_facts))
            need = p.t if g == 0 else p.t - 1
            if law is None or law.need != need:
                law = _GroupLaw(sampler, size, need)
            try:
                yield law.draw(count)
            except MemoryError:
                raise _out_of_memory(p) from None
            g += count

    # Stages 1-2 read no block past the group that ends the run
    return _GroupFacts(chain(blocks, drawn(g, block) if recording else ()), reps, zero_count)


def _known_run(oracle, sampler, p: TesterParams, blocks: list, max_facts: int) -> tuple:
    """Stages 1 and 2 of a known run: (accepted, reason). Every representative lies in P and
    no B meets P, so step 2.1 never fires, every Stage-1 probe answers 1 and every Stage-2
    probe 0, and past group 0 only a group's class can end the run. The classes are read
    from blocks, _block_facts' rows of the groups drawn as samples, then as class words on
    _GroupLaw.cuts, max_facts groups at a time, or one at a time with no 0-labelled point,
    where group 0 is drawn alone as its facts. Stage 1's 2s probes (none when B0 holds no
    zero) and one per Stage-2 group before the first that ends the run are charged in one
    step, once the words are read."""
    rng, law = sampler._batch, None
    try:
        blocks = blocks or [_GroupLaw(sampler, p.group_size, p.t).draw(1)]
        # each group's class: 0, too few 1-samples; 1, no 0-sample; 2, neither
        cls = np.concatenate([np.where(few, 0, 1 + (first0 >= 0)) for few, first0, _ in blocks])
        if cls[0] == 0:
            return True, "stage1-few-ones"
        g, cls = len(cls), cls[1:]
        while (cls == 2).all() and g <= p.d_star:
            count = min(max_facts if (sampler.labels == 0).any() else 1, p.d_star + 1 - g)
            law = law or _GroupLaw(sampler, p.group_size, p.t - 1)
            cls, g = law.cuts.count(rng, rng._words(count)), g + count
    except MemoryError:
        raise _out_of_memory(p) from None
    # Stage 2 asks the g - 1 - len(cls) groups before the last block read,
    # then that block's up to the first that ends the run
    stop = int((cls < 2).argmax()) if (cls < 2).any() else len(cls)
    stage1 = any(sampler.point(si).zeros for si in np.flatnonzero(blocks[0][2][0]))
    oracle.transcript._take("blackbox_count", 2 * p.s * stage1 + g - 1 - len(cls) + stop)
    if stop == len(cls):
        return True, "end-of-stage-2"
    return True, "stage2-few-ones" if cls[stop] == 0 else "stage2-no-zero"


def _stages12(facts: _GroupFacts, oracle, sampler, p: TesterParams,
              rng: RandomStream) -> tuple:
    """Stages 1 and 2 on Stage 0's facts, probes asked: (accepted, reason).
    Stage 1 reads the first row, group 0, Stage 2 the rest, up to the group that ends the run."""
    few, first0s, flags = next(facts.blocks)
    if few[0]:
        return True, "stage1-few-ones"
    b0 = flags[:1]  # the flags of group 0's B, for Stage 1
    pairs = [(si, j) for si in range(sampler.support_size) for j in sampler.point(si).zeros]
    point, zero = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    zeros = (point, *np.unique(zero, return_inverse=True))
    rep_of = np.array([facts.reps.get(si, 0) for si in range(sampler.support_size)], dtype=np.intp)
    step_rng = rng.split("steps")

    def probes(b: tuple, rows: np.ndarray, k: int) -> np.ndarray:
        # a random k-subset (all, when smaller) of the B of each row of b
        sizes, offsets, coords, _ = b
        pos = step_rng.subset_rows(sizes[rows], k)
        return coords[np.where(pos < 0, -1, offsets[rows, None] + pos)]

    def stage2(masks: np.ndarray, alpha: np.ndarray) -> Optional[str]:
        # up to _SUBSET_ROWS Stage-2 groups, by the flags of their B and their alpha:
        # step 2.1, from B's table at alpha's column (alpha is a zero of its
        # 0-sample); the rows before the first alpha in its B ask their probes
        keys, inverse = np.unique(masks.view(f"V{masks.shape[1]}").ravel(), return_inverse=True)
        b = *_, bits = _b_rows(zeros, keys.view(bool).reshape(len(keys), -1))
        inside = bits[inverse, np.searchsorted(zeros[1], alpha)]
        stop = int(inside.argmax()) if inside.any() else len(inside)
        if oracle.query_until(np.column_stack((alpha[:stop], probes(
                b, inverse[:stop], p.r - 1))), 1) is not None:
            return "step-2.2"
        return "step-2.1" if stop < len(inside) else None

    # Stage 1: the first group feeds the singleton and subset probes.
    b = sizes0, _, coords0, _ = _b_rows(zeros, b0)
    if sizes0[0]:
        try:
            singles = coords0[step_rng.integers(sizes0[0], size=p.s)]
        except MemoryError:
            raise MemoryError(f"Stage 1 ran out of memory on its s = {p.s} singleton "
                              f"probes (n = {p.n}, epsilon = {p.epsilon})") from None
        if oracle.query_until(singles[:, None], 0) is not None:
            return False, "step-1.1"
        for start in range(0, p.s, _SUBSET_ROWS):
            rows = np.zeros(min(_SUBSET_ROWS, p.s - start), dtype=int)
            if oracle.query_until(probes(b, rows, p.r), 0) is not None:
                return False, "step-1.2"
    # Stage 2: one fresh group per iteration, _SUBSET_ROWS at a time. Every
    # 0-sample has its representative, as Stage 0 returns on the first nil
    # one. The first group that lacks B or a 0-sample ends the run unasked.
    masks, alpha, reason = b0[:0], np.zeros(0, dtype=np.intp), "end-of-stage-2"
    few, first0s, flags = few[1:], first0s[1:], flags[1:]  # past group 0
    while few is not None:
        ends = few | (first0s < 0)
        stop = int(ends.argmax()) if ends.any() else len(ends)
        masks = np.concatenate((masks, flags[:stop]))
        alpha = np.concatenate((alpha, rep_of[first0s[:stop]]))
        while len(alpha) >= _SUBSET_ROWS:
            if verdict := stage2(masks[:_SUBSET_ROWS], alpha[:_SUBSET_ROWS]):
                return False, verdict
            masks, alpha = masks[_SUBSET_ROWS:], alpha[_SUBSET_ROWS:]
        if stop < len(ends):
            reason = "stage2-few-ones" if few[stop] else "stage2-no-zero"
            break
        few, first0s, flags = next(facts.blocks, (None,) * 3)
    if len(alpha) and (verdict := stage2(masks, alpha)):
        return False, verdict
    return True, reason


def _check_n(oracle, sampler, n: int, params: Optional[TesterParams] = None) -> None:
    """DimensionMismatch unless the oracle, the sampler and params, when
    given, are all for n; every tester checks this before it draws or asks."""
    if oracle.n != n or sampler.n != n:
        raise DimensionMismatch("oracle/sampler dimension differs from n")
    if params is not None and params.n != n:
        raise DimensionMismatch(f"params are for n = {params.n}, not for n = {n}")


def test_monotone_conjunction(oracle, sampler, n: int, epsilon, rng: RandomStream,
                              params: Optional[TesterParams] = None) -> Verdict:
    """One-sided tester for monotone conjunctions under an unknown distribution.

    Never rejects when the black box is a monotone conjunction; rejects with
    constant probability when the labeled distribution is epsilon-far from
    every monotone conjunction and assigns no weight to strings whose
    representative search fails. params, when given, must be for n.
    """
    _check_n(oracle, sampler, n, params)
    p = params if params is not None else compute_parameters(n, epsilon)
    if oracle.query(ZeroSet.all_ones(n)) == 0:
        return Verdict(False, "stage0-allones", p)
    facts = _stage0(oracle, sampler, p)
    if isinstance(facts, Verdict):
        return facts
    return Verdict(*_stages12(facts, oracle, sampler, p, rng), p, facts.zero_count,
                   len(facts.reps))


def test_general_conjunction(oracle, sampler, n: int, epsilon, rng: RandomStream,
                             params: Optional[TesterParams] = None) -> Verdict:
    """One-sided tester for general conjunctions.

    Draws ceil(3/eps) samples looking for a 1-string x*; with none it accepts.
    Otherwise it flips the coordinates in ZERO(x*), which turns any general
    conjunction consistent with x* into a monotone one, and runs the monotone
    tester on flipped views of the same black box and sampler: every query and
    draw is one call of the underlying oracle, logged in its own coordinates.
    params, when given, must be for n.
    """
    _check_n(oracle, sampler, n, params)
    eps = _epsilon(epsilon)
    k0 = math.ceil(3 / eps)
    _check_draws(k0, "the search for x*", n, eps)
    xstar = None
    for _ in range(k0):
        x, label = sampler.draw()
        if label == 1:
            xstar = x
            break
    if xstar is None:
        return Verdict(True, "conj-no-positive", params)
    return test_monotone_conjunction(oracle.flipped(xstar.zeros),
                                     sampler.flipped(xstar.zeros), n, epsilon,
                                     rng, params)


def amplify(run_trial, k: int, rng: RandomStream) -> Verdict:
    """Run up to k independent one-sided attempts; stop at the first reject.

    run_trial(sub_rng) must build fresh oracles on sub_rng's streams; the
    attempts of one trial share one QueryTranscript, so its counts and logs
    cover every attempt that ran. Returns the verdict of the attempt that
    decided the trial: the first to reject, or else the last.
    """
    if k < 1:
        raise ValueError("amplification count must be at least 1")
    for i in range(1, k + 1):
        verdict = run_trial(rng.split("amp", i))
        if not verdict.accepted:
            break
    return verdict


def baseline_dolev_ron(oracle, sampler, n: int, epsilon,
                       num_samples: Optional[int] = None) -> Verdict:
    """Pair-sampling baseline tester for monotone conjunctions.

    Draws ceil(2*sqrt(n)*log2(n)/epsilon) samples, the product read as a
    float and divided by epsilon exactly (or exactly num_samples when
    given), in one sampler.draws() batch, computes the representative
    of each distinct 0-sample once, in order of first appearance, and
    rejects when some 1-sample is 0 at some computed representative.
    One-sided.
    """
    _check_n(oracle, sampler, n)
    if num_samples is not None:
        total = num_samples
    else:
        eps = _epsilon(epsilon)
        try:
            total = math.ceil(Fraction(2 * math.sqrt(n) * math.log2(n)) / eps)
        except OverflowError:
            raise ValueError(f"the sample count overflows a float at n = {n}, "
                             f"epsilon = {eps}") from None
    if total <= 0:
        return Verdict(True, "baseline-clean")
    _check_draws(total, "dolev-ron", n, epsilon)
    if oracle.query(ZeroSet.all_ones(n)) == 0:
        return Verdict(False, "baseline-allones")
    ones_union = set()
    zero_points: dict[frozenset, ZeroSet] = {}
    for x, label in sampler.draws(total):
        if label == 1:
            ones_union |= x.zeros
        else:
            zero_points.setdefault(x.zeros, x)
    representatives = set()
    for rep in oracle.representatives(list(zero_points.values())):
        if rep is None:
            return Verdict(False, "baseline-nil-representative")
        representatives.add(rep)
    if representatives & ones_union:
        return Verdict(False, "baseline-edge")
    return Verdict(True, "baseline-clean")
