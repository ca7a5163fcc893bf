"""Distribution-free conjunction testers.

The main tester runs in three stages: an up-front sampling stage that also
computes a representative zero coordinate for every 0-sample by binary
search, a stage that probes singletons and random subsets of the union of
1-sample zero sets, and an iterated stage that pits each fresh group's
representative against its 1-strings. All parameters derive from (n, epsilon)
by fixed ceiling rules; base-2 logs throughout. The general-conjunction
tester runs the monotone one on flipped views of the same two oracles.

Stages 1 and 2 read only three facts of each group, so Stage 0 keeps
those and nothing else: its class (too few 1-samples, no 0-sample, or
neither), its first 0-sample, and B, the union of the zero sets of its
first t (Stage 2: t-1) 1-samples. From a group drawn as samples, B's
support points are read in one pass, as a row of flags over the support,
and each distinct row gets an id. Stage 0 draws the groups a block at a
time, group 0 (whose B takes t 1-samples) in a block of its own, and
computes every group's facts in numpy. It charges (and logs) the groups
in runs, each ending at a group where a representative search runs, so a
budget, a nil representative or the stop below lands at the same group as
one draw per group would. Memory stays at one block plus the facts, and
no sample is drawn twice. Under a sample budget a block holds only groups
the budget admits, so a refused group is never drawn.

With query logging on, Stage 0 draws every sample, because the sample log
lists every sample. With it off, once every 0-labelled support point has
its representative, a later group can start no search, so Stage 0 draws
each later group's facts alone, from their exact law (_drawn_facts): a
class word against the exact cuts of _class_cuts, one D0 draw, and for B
a word against the cuts of _missing_cuts or a few D1 draws, where the
group has group_size samples. Both words are read by the exact reader
in rng, _below_cuts, which reads on from the tie stream only on a tie.
Such a run has the law of the logged run, not its draws; the groups it
draws as samples read the logged run's words. Once recording has stopped
and every 0-labelled support point has its representative, no later
group can change the verdict, a query or a count, so Stage 0 charges the
remaining groups in one step, without drawing them.

Stage 2 first finds the group that ends the run by its facts (too few
1-samples, no 0-sample, or step 2.1). On a monotone conjunction (P, {})
whose B0 misses P and whose alphas all lie in P, no probe can end the
run, so a run with logging off asks none and is charged them in one step.
Other runs build B's coordinates from its flags, a block of rows at a
time, draw the block's subsets by RandomStream.subset_rows, on the words
of one subset at a time, and ask its probes in one BlackBox.query_until
call, which stops at the first that ends the run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Optional

import numpy as np

from .model import DimensionMismatch, ZeroSet
from .rng import RandomStream, _below_cuts

__all__ = [
    "TesterParams",
    "Verdict",
    "compute_parameters",
    "ceil_log2",
    "binary_search_representative",
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


def _ceil_fraction(q: Fraction) -> int:
    return -((-q.numerator) // q.denominator)


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


def compute_parameters(n: int, epsilon) -> TesterParams:
    """All tester parameters from (n, epsilon), everything rounded up.

    d = ceil(log2^2(n/eps)/eps), d_star = ceil(d^2/eps), r = ceil(n^(1/3)),
    t = d*r, s = t*ceil(log2 n), group_size = ceil(3t/eps), and Stage 0 is
    charged group_size*(d_star+1) samples. log2(n/eps) is evaluated exactly when
    n/eps is a power of two, in floating point otherwise.
    """
    eps = _epsilon(epsilon)
    if n < 2:
        raise ValueError("n must be at least 2")
    ratio = Fraction(n) / eps
    exact = _exact_log2(ratio)
    if exact is not None:
        d = _ceil_fraction(Fraction(exact * exact) / eps)
    else:
        try:
            lg = math.log2(float(ratio))
        except OverflowError:
            raise ValueError(f"log2(n/epsilon) overflows a float at n = {n}, "
                             f"epsilon = {eps}") from None
        d = _ceil_fraction(Fraction(lg * lg) / eps)
    d_star = _ceil_fraction(Fraction(d * d) / eps)
    r = _ceil_cuberoot(n)
    t = d * r
    s = t * ceil_log2(n)
    group_size = _ceil_fraction(Fraction(3 * t) / eps)
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


def binary_search_representative(oracle, x: ZeroSet) -> Optional[int]:
    """Binary search for a zero coordinate i of x with f({i}) = 0.

    Returns None (nil) when the search loses track, which never happens for a
    monotone conjunction. Deterministic; at most 2*ceil(log2 |ZERO(x)|)
    queries; no query at all when |ZERO(x)| <= 1.
    """
    z = x.sorted_zeros()
    if not z:
        return None
    while len(z) >= 2:
        half = (len(z) + 1) // 2
        z0, z1 = z[:half], z[half:]
        v0 = oracle.query_set(frozenset(z0))
        v1 = oracle.query_set(frozenset(z1))
        if v0 == 0:
            z = z0
        elif v1 == 0:
            z = z1
        else:
            return None
    return z[0]


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


def _class_cuts(ones: int, m: int, size: int, need: int) -> tuple:
    """The class law of a group of size draws, each 1-labelled with
    probability ones/m, as counts over m**size: (few, few + full, m**size).
    few = sum over k < need of C(size, k) ones^k (m - ones)^(size - k)
    counts the groups with fewer than need 1-samples, and full = ones^size
    those with no 0-sample; the two are disjoint, as need <= size."""
    zeros = m - ones
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


def _missing_cuts(cum: tuple, need: int) -> Optional[tuple]:
    """The law of the 1-labelled point that a group's B misses, for need
    D1 draws, given cum, the cumulative numerators nums of D1's points over
    m1 = cum[-1]: None when U, the sum over the points of the chance that
    B misses each, exceeds 1/2; else the law, as _below_cuts reads it, of
    the cuts C_k = sum over j <= k of (m1 - nums[j])**need, over
    total = m1**need; U is the last cut. Each distinct power is held once,
    and the cuts are summed only on a tie."""
    nums = [b - a for a, b in zip((0,) + cum[:-1], cum)]
    total = cum[-1] ** need
    powers = {v: (cum[-1] - v) ** need for v in set(nums)}
    if 2 * sum(map(powers.__getitem__, nums)) > total:
        return None
    tops = np.array([(cut << 64) // total for cut in accumulate(map(powers.__getitem__, nums))],
                    dtype=np.uint64)
    return tops, lambda lo, hi: (list(accumulate(map(powers.__getitem__, nums[:hi])))[lo:], total)


def _drawn_facts(sampler, count: int, size: int, need: int, law: dict) -> tuple:
    """The facts Stages 1-2 read of count groups of size draws, drawn from
    their exact law on the batch stream without drawing the groups: (few,
    first0, masks), as _block_facts returns them, but with first0 -1 for a
    few group. law memoizes, per sampler, the two conditioned samplers and,
    per need, the class law and the missing law, as _below_cuts reads them.

    Given its labels, a group's 1-samples are i.i.d. D1 (D conditioned on
    label 1), its 0-samples i.i.d. D0, and the two independent. So a group
    takes one word for its class (few; no 0-sample; neither) against the
    cuts of _class_cuts, read by _below_cuts; one D0 draw, its first
    0-sample, when it has both labels; and B, the points of need D1
    draws. When U <= 1/2 (_missing_cuts), B takes Karp, Luby and Madras's
    exact sampler of a union of events: one word per group, read by
    _below_cuts too, gives B every 1-labelled point, or picks a point J
    with the chance that B misses J. A group with J draws need D1 draws,
    each of J redrawn, and, with c points missed, keeps what it saw with
    chance 1/c (one draw below c when c > 1), else every point; so a B
    that misses the set M comes out with chance sum over j in M of
    P(B) / |M| = P(B). A group stops drawing once it has seen every
    1-labelled point but J. The words are read in that order: the class
    words, the D0 draws, the missing words, the D1 draws, then the draws
    below c; a tied word reads on from the batch stream's tie stream."""
    rng = sampler._batch
    if not law:
        law.update(zeros=sampler._conditioned(0), ones=sampler._conditioned(1), cuts={})
    if need not in law["cuts"]:
        ones, missing = 0, None
        if law["ones"]:
            cum = law["ones"][0]._cum
            ones, missing = cum[-1], _missing_cuts(cum, need)
        *cuts, total = _class_cuts(ones, sampler._denominator, size, need)
        cuts = [cut for cut in cuts if cut < total]  # a cut of 1 no V reaches
        classes = (np.array([(cut << 64) // total for cut in cuts], dtype=np.uint64),
                   lambda lo, hi: (cuts[lo:hi], total))
        law["cuts"][need] = classes, missing
    classes, missing = law["cuts"][need]

    cls = _below_cuts(rng, classes, rng._words(count))

    first0 = np.full(count, -1, dtype=np.intp)
    both = np.flatnonzero(cls == 2)
    if both.size:
        view, members = law["zeros"]
        first0[both] = members[view._draw_many(rng, both.size)]

    masks = np.zeros((count, sampler.support_size), dtype=bool)
    rows = np.flatnonzero(cls > 0)
    if rows.size:
        view, members = law["ones"]
        width = len(members)
        found = np.zeros((rows.size, width), dtype=bool)
        # live: the positions in rows of the groups not yet settled
        live = np.arange(rows.size)
        skip = None
        if missing is not None:
            # skip: J's position in members, or width when B is every point
            skip = _below_cuts(rng, missing, rng._words(rows.size))
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
                draws = view._draw_many(rng, part.size * k).reshape(part.size, k)
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
    each B's size and offset in the last array, every B sorted in turn, a 0 pad."""
    point, cols, coord = zeros
    bits = np.zeros((len(flags), len(cols)), dtype=bool)
    for k, row in enumerate(flags):
        bits[k, coord[row[point]]] = True
    sizes = bits.sum(axis=1)
    return sizes, np.cumsum(sizes) - sizes, np.append(cols[np.nonzero(bits)[1]], 0)


def _alpha_in_b(point, zero, flags, ids, rep_of, first0) -> np.ndarray:
    """Step 2.1 for each k: is rep_of[first0[k]] in the B of flags[ids[k]]? Read from the
    zero pairs (point, zero) through a table, one row per distinct rep, of its 0 points."""
    distinct, slot = np.unique(rep_of, return_inverse=True)
    at = np.searchsorted(distinct, zero).clip(max=distinct.size - 1)
    hit = distinct[at] == zero
    member = np.zeros((distinct.size, flags.shape[1]), dtype=bool)
    member[at[hit], point[hit]] = True
    step = max(1, _BLOCK_SAMPLES // flags.shape[1])
    return np.concatenate([np.zeros(0, bool)] + [
        (flags[ids[k:k + step]] & member[slot[first0[k:k + step]]]).any(axis=1)
        for k in range(0, len(ids), step)])


def test_monotone_conjunction(oracle, sampler, n: int, epsilon, rng: RandomStream,
                              params: Optional[TesterParams] = None) -> Verdict:
    """One-sided tester for monotone conjunctions under an unknown distribution.

    Never rejects when the black box is a monotone conjunction; rejects with
    constant probability when the labeled distribution is epsilon-far from
    every monotone conjunction and assigns no weight to strings whose
    representative search fails.
    """
    if oracle.n != n or sampler.n != n:
        raise DimensionMismatch("oracle/sampler dimension differs from n")
    p = params if params is not None else compute_parameters(n, epsilon)
    # Stage 0: the all-ones probe, then every sample group up front.
    if oracle.query(ZeroSet.all_ones(n)) == 0:
        return Verdict(False, "stage0-allones", p)

    transcript = sampler.transcript
    size, groups = p.group_size, p.d_star + 1
    # reps[si]: the representative of 0-labelled point si, one per search
    reps: dict[int, Optional[int]] = {}
    # done[si]: si is 1-labelled or its representative is already computed
    done = sampler.labels != 0
    pending = sampler.support_size - int(np.count_nonzero(done))
    zero_count = 0

    def verdict(accepted: bool, reason: str) -> Verdict:
        return Verdict(accepted, reason, p, zero_count, len(reps))

    def charge(idx: np.ndarray, lab: np.ndarray, a: int, b: int) -> None:
        # groups a..b-1 of a block, read, in one step
        nonlocal zero_count
        transcript._take("sample_count", b - a, size)
        sampler._log(idx[a:b].ravel())
        zero_count += (b - a) * size - int(np.count_nonzero(lab[a:b]))

    # The facts of each recorded group, all Stages 1-2 read of it: the id
    # in unions (one per distinct row of masks, as bytes) of B, over its
    # first t (Stage 2: t-1) 1-samples, or -1 when it has fewer; and its
    # first 0-sample, or -1. Recording stops after the first group whose
    # facts end the run.
    b_ids: list[np.ndarray] = []
    first0s: list[np.ndarray] = []
    unions: dict[bytes, int] = {}
    law: dict = {}  # of _drawn_facts
    recording = True
    g = 0
    block = 1  # group 0, whose B takes t 1-samples, is a block of its own
    max_block = max(1, _BLOCK_SAMPLES // (size + sampler.support_size))
    max_facts = max(1, _BLOCK_SAMPLES // (2 * sampler.support_size))
    while g < groups and (recording or pending or transcript.log_queries):
        # Each block's facts are computed up front, but a group is charged
        # (and logged) before any search runs on it, so a budget, a nil
        # representative or the cut-off below lands at the same group as
        # when groups are drawn one at a time. Once no log lists the samples
        # and no search can run, only the facts are drawn.
        facts = not (pending or transcript.log_queries)
        if facts and g:  # with no 0-labelled point, group 1 ends the run
            block = max(block, _FACT_GROUPS) if (sampler.labels == 0).any() else 1
        count = min(block, max_facts if facts else max_block, groups - g)
        # no block holds a refused group; a block none of whose groups fits
        # is refused
        count = transcript._take("sample_count", count, size, charge=False)
        block = min(2 * block, max(max_block, max_facts))
        if not facts:
            idx, lab = sampler._draw_groups(count, size)
        # last: the last row the run must read, count when it reads them all
        last = count if transcript.log_queries else -1
        if recording:
            need = p.t if g == 0 else p.t - 1
            if facts:
                few, first0, masks = _drawn_facts(sampler, count, size, need, law)
            else:
                few, first0, masks = _block_facts(idx, lab, need, sampler.support_size)
            ends = few if g == 0 else few | (first0 < 0)
            stop = int(ends.argmax()) if ends.any() else count
            rec = min(stop + 1, count)
            ids = np.full(rec, -1)
            keep = np.flatnonzero(~few[:rec])
            keys, inverse = np.unique(masks[keep].view(f"V{masks.shape[1]}").ravel(),
                                      return_inverse=True)
            ids[keep] = np.array([unions.setdefault(key, len(unions)) for key in keys.tolist()],
                                 dtype=int)[inverse]
            b_ids.append(ids)
            first0s.append(first0[:rec])
            recording = stop == count
            last = max(last, stop)
            if facts:
                transcript._take("sample_count", rec, size)
                g += rec
                continue
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
        start = 0
        for row, si in searches:
            if row >= start:
                charge(idx, lab, start, row + 1)
                start = row + 1
            done[si] = True
            pending -= 1
            rep = reps[si] = binary_search_representative(oracle, sampler.point(si))
            if rep is None:
                return verdict(False, "stage0-nil-representative")
        read = min(last + 1, count)
        charge(idx, lab, start, read)
        g += read
    # Once recording has stopped and every 0-point has its representative,
    # later groups could change only the 0-sample count: charge them
    # undrawn, so a budget runs out where drawing would have exhausted it.
    transcript._take("sample_count", groups - g, size)

    b_ids, first0s = np.concatenate(b_ids), np.concatenate(first0s)
    if b_ids[0] < 0:
        return verdict(True, "stage1-few-ones")
    # flags[id]: B's support points; b0: B of the first group, for Stage 1
    flags = np.frombuffer(b"".join(unions), dtype=bool).reshape(len(unions), -1)
    pairs = [(si, j) for si in range(sampler.support_size) for j in sampler.point(si).zeros]
    point, zero = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    zeros = (point, *np.unique(zero, return_inverse=True))
    b0 = sizes0, _, coords0 = _b_rows(zeros, flags[b_ids[:1]])

    # Stage 2: one fresh group per iteration. Every 0-sample has its
    # representative, because Stage 0 returns on the first nil one. Only
    # the last recorded group can lack B or a 0-sample; the first group
    # that ends the run that way or by step 2.1 is found before any probe.
    ids, first0s = b_ids[1:], first0s[1:]
    end, reason = len(ids), "end-of-stage-2"
    if end and ids[-1] < 0:
        end, reason = end - 1, "stage2-few-ones"
    elif end and first0s[-1] < 0:
        end, reason = end - 1, "stage2-no-zero"
    rep_of = np.array([reps.get(si, 0) for si in range(sampler.support_size)], dtype=np.intp)
    ids, alpha = ids[:end], rep_of[first0s[:end]]
    if (inside := _alpha_in_b(point, zero, flags, ids, rep_of, first0s[:end])).any():
        end, reason = int(inside.argmax()), "step-2.1"

    # On (P, {}), when B0 misses P every singleton and subset of it answers
    # 1, and when every alpha is in P every alpha + z answers 0: a quiet run
    # asks none of these probes, charged as when it does.
    codes = oracle._codes
    if (not transcript.log_queries and codes is not None and not codes[1]
            and not codes[0][coords0[:-1]].any() and codes[0][alpha[:end]].all()):
        transcript._take("blackbox_count", (2 * p.s if sizes0[0] else 0) + end)
        return verdict(reason != "step-2.1", reason)

    step_rng = rng.split("steps")

    def probes(b: tuple, rows: np.ndarray, k: int) -> np.ndarray:
        # a random k-subset (all, when smaller) of the B of each row of b
        sizes, offsets, coords = b
        pos = step_rng.subset_rows(sizes[rows], k)
        return coords[np.where(pos < 0, -1, offsets[rows, None] + pos)]

    # Stage 1: the first group feeds the singleton and subset probes.
    if sizes0[0]:
        singles = coords0[step_rng.integers(sizes0[0], size=p.s)]
        if oracle.query_until(singles[:, None], 0) is not None:
            return verdict(False, "step-1.1")
        for start in range(0, p.s, _SUBSET_ROWS):
            rows = np.zeros(min(_SUBSET_ROWS, p.s - start), dtype=int)
            if oracle.query_until(probes(b0, rows, p.r), 0) is not None:
                return verdict(False, "step-1.2")
    for start in range(0, end, _SUBSET_ROWS):
        rows = slice(start, min(end, start + _SUBSET_ROWS))
        block, inverse = np.unique(ids[rows], return_inverse=True)
        if oracle.query_until(np.column_stack((alpha[rows], probes(
                _b_rows(zeros, flags[block]), inverse, p.r - 1))), 1) is not None:
            return verdict(False, "step-2.2")
    return verdict(reason != "step-2.1", reason)


def test_general_conjunction(oracle, sampler, n: int, epsilon, rng: RandomStream,
                             params: Optional[TesterParams] = None) -> Verdict:
    """One-sided tester for general conjunctions.

    Draws ceil(3/eps) samples looking for a 1-string x*; with none it accepts.
    Otherwise it flips the coordinates in ZERO(x*), which turns any general
    conjunction consistent with x* into a monotone one, and runs the monotone
    tester on flipped views of the same black box and sampler: every query and
    draw is one call of the underlying oracle, logged in its own coordinates.
    """
    k0 = _ceil_fraction(Fraction(3) / _epsilon(epsilon))
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

    Draws ceil(2*sqrt(n)*log2(n)/epsilon) samples (or exactly num_samples
    when given) in one sampler.draws() batch, computes the representative
    of each distinct 0-sample once, in order of first appearance, and
    rejects when some 1-sample is 0 at some computed representative.
    One-sided.
    """
    if num_samples is not None:
        total = num_samples
    else:
        eps = _epsilon(epsilon)
        try:
            total = math.ceil(2 * math.sqrt(n) * math.log2(n) / float(eps))
        except (OverflowError, ZeroDivisionError):
            raise ValueError(f"the sample count overflows a float at n = {n}, "
                             f"epsilon = {eps}") from None
    if total <= 0:
        return Verdict(True, "baseline-clean")
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
    for x in zero_points.values():
        rep = binary_search_representative(oracle, x)
        if rep is None:
            return Verdict(False, "baseline-nil-representative")
        representatives.add(rep)
    if representatives & ones_union:
        return Verdict(False, "baseline-edge")
    return Verdict(True, "baseline-clean")
