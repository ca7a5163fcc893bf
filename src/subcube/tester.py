"""Distribution-free conjunction testers.

The main tester runs in three stages: an up-front sampling stage that also
computes a representative zero coordinate for every 0-sample by binary
search, a stage that probes singletons and random subsets of the union of
1-sample zero sets, and an iterated stage that pits each fresh group's
representative against its 1-strings. All parameters derive from (n, epsilon)
by fixed ceiling rules; base-2 logs throughout. The general-conjunction
tester runs the monotone one on flipped views of the same two oracles.

Stages 1 and 2 read only a few facts of each group, so Stage 0 records
those as it draws: the zero-set union B of the group's first 1-samples
(memoized, since groups repeat the same few support subsets) and its first
0-sample. It draws the groups a block at a time, with one draw for the
block, and computes every group's facts in numpy; it then walks the groups
in order, charging (and logging) each before reading its facts or running
its representative searches. Memory stays at one block plus the recorded
facts, and no sample is drawn twice. Under a sample budget a block holds
only groups the budget admits, so a refused group is never drawn. Once recording has stopped and every
0-labelled support point has its representative, no later group can change
the verdict, a query or a count, so Stage 0 charges the remaining groups,
one group at a time, without reading them or drawing further blocks. With
query logging on it reads every group, because the sample log lists every
sample. Stages 1 and 2 draw their random subsets in blocks of rows with
RandomStream.subset_rows, on the same words as one subset at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .model import DimensionMismatch, ZeroSet
from .rng import RandomStream

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


def compute_parameters(n: int, epsilon) -> TesterParams:
    """All tester parameters from (n, epsilon), everything rounded up.

    d = ceil(log2^2(n/eps)/eps), d_star = ceil(d^2/eps), r = ceil(n^(1/3)),
    t = d*r, s = t*ceil(log2 n), group_size = ceil(3t/eps), and Stage 0 is
    charged group_size*(d_star+1) samples. log2(n/eps) is evaluated exactly when
    n/eps is a power of two, in floating point otherwise.
    """
    eps = Fraction(epsilon)
    if not 0 < eps <= 1:
        raise ValueError("epsilon must be in (0, 1]")
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
    # 0-samples of the groups Stage 0 read; the groups it charges without
    # reading add none
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
# this many samples (plus one support-sized presence row per group), so a
# run that ends after a few groups draws few more, and memory stays at one
# block.
_BLOCK_SAMPLES = 1 << 16
# Stages 1 and 2 draw their random subsets this many rows at a time.
_SUBSET_ROWS = 512


def _union(cache: dict, sampler, present: np.ndarray) -> tuple:
    """B, the union of the zero sets of the support points marked in
    present, as (set, sorted list). Groups repeat the same few subsets of
    the support, so B is memoized on the mask."""
    key = present.tobytes()
    hit = cache.get(key)
    if hit is None:
        b_set = set().union(*(sampler.point(int(si)).zeros
                              for si in np.flatnonzero(present)))
        hit = cache[key] = (b_set, sorted(b_set))
    return hit


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

    labels = sampler.labels
    transcript = sampler.transcript
    size, groups = p.group_size, p.d_star + 1
    # reps[si]: the representative of 0-labelled point si, one per search
    reps: dict[int, Optional[int]] = {}
    # done[si]: si is 1-labelled or its representative is already computed
    done = labels != 0
    pending = sampler.support_size - int(np.count_nonzero(done))
    zero_count = 0

    def verdict(accepted: bool, reason: str) -> Verdict:
        return Verdict(accepted, reason, p, zero_count, len(reps))

    # facts[g] = (B, first 0-sample) of group g, all Stages 1-2 read of it:
    # B is over its first t (Stage 2: t-1) 1-samples, None when it has fewer.
    # Recording stops after the first group whose facts end the run.
    facts: list[tuple] = []
    unions: dict[bytes, tuple] = {}
    recording = True
    g = 0
    block = 1
    max_block = max(1, _BLOCK_SAMPLES // (size + sampler.support_size))
    while g < groups and (recording or pending or transcript.log_queries):
        # Each block's facts are computed up front, but a group is charged
        # (and logged) before any of them is read, so a budget, a nil
        # representative or the cut-off below lands at the same group as
        # when groups are drawn one at a time.
        count = min(block, groups - g)
        if transcript.limit is not None:  # no block holds a refused group
            count = min(count, (transcript.limit - transcript.sample_count) // size)
            if not count:
                transcript.take_samples(size)  # refused: raises
        idx = sampler._draw_groups(count, size)
        block = min(2 * block, max_block)
        lab = labels[idx]
        ones = np.count_nonzero(lab, axis=1).tolist()
        first0 = idx[np.arange(count), lab.argmin(axis=1)].tolist()
        if recording:
            # present[row]: the support points among the row's first t
            # (Stage 2: t-1) 1-samples
            need = np.full((count, 1), p.t - 1)
            if g == 0:
                need[0] = p.t
            take = np.cumsum(lab, axis=1, dtype=np.min_scalar_type(size)) <= need
            take &= lab != 0
            present = np.zeros((count, sampler.support_size + 1), dtype=bool)
            present[np.arange(count)[:, None],
                    np.where(take, idx, sampler.support_size)] = True
        # (row, point) of each first appearance of a point not yet searched,
        # last one first
        searches = []
        if pending:
            flat = idx.ravel()
            fresh = np.flatnonzero(~done[flat])
            points, first = np.unique(flat[fresh], return_index=True)
            order = np.argsort(first)[::-1]
            searches = list(zip((fresh[first[order]] // size).tolist(),
                                points[order].tolist()))
        for row in range(count):
            if not (recording or pending or transcript.log_queries):
                break
            transcript.take_samples(size)
            sampler._log(idx[row])
            zero_count += size - ones[row]
            if recording:
                b = (_union(unions, sampler, present[row, :-1])
                     if ones[row] >= need[row, 0] else None)
                f0 = first0[row] if ones[row] < size else None
                facts.append((b, f0))
                recording = b is not None and (g == 0 or f0 is not None)
            while searches and searches[-1][0] == row:
                si = searches.pop()[1]
                done[si] = True
                pending -= 1
                rep = reps[si] = binary_search_representative(oracle, sampler.point(si))
                if rep is None:
                    return verdict(False, "stage0-nil-representative")
            g += 1
    # Once recording has stopped and every 0-point has its representative,
    # later groups could change only the 0-sample count: charge them group
    # by group, undrawn, so a budget runs out where drawing would have
    # exhausted it.
    for _ in range(g, groups):
        transcript.take_samples(size)

    step_rng = rng.split("steps")

    # Stage 1: the first group feeds the singleton and subset probes.
    if facts[0][0] is None:
        return verdict(True, "stage1-few-ones")
    _, b_arr = facts[0][0]
    if b_arr:
        for q in step_rng.integers(len(b_arr), size=p.s).tolist():
            if oracle.query_set(frozenset((b_arr[q],))) == 0:
                return verdict(False, "step-1.1")
        for start in range(0, p.s, _SUBSET_ROWS):
            rows = min(_SUBSET_ROWS, p.s - start)
            for pos in step_rng.subset_rows([len(b_arr)] * rows, p.r):
                if oracle.query_set(frozenset([b_arr[q] for q in pos])) == 0:
                    return verdict(False, "step-1.2")

    # Stage 2: one fresh group per iteration. Every 0-sample has its
    # representative, because Stage 0 returns on the first nil one. Only
    # the last recorded group can lack B or a 0-sample, so the subsets are
    # drawn ahead a block at a time; the rows after a terminating group are
    # never read.
    for start in range(1, len(facts), _SUBSET_ROWS):
        chunk = facts[start:start + _SUBSET_ROWS]
        subsets = step_rng.subset_rows(
            [0 if b is None else len(b[1]) for b, _ in chunk], p.r - 1)
        for (b, first0), pos in zip(chunk, subsets):
            if b is None:
                return verdict(True, "stage2-few-ones")
            if first0 is None:
                return verdict(True, "stage2-no-zero")
            b_set, b_arr = b
            alpha = reps[first0]
            if alpha in b_set:
                return verdict(False, "step-2.1")
            if oracle.query_set(frozenset([alpha, *(b_arr[q] for q in pos)])) == 1:
                return verdict(False, "step-2.2")

    return verdict(True, "end-of-stage-2")


def test_general_conjunction(oracle, sampler, n: int, epsilon, rng: RandomStream,
                             params: Optional[TesterParams] = None) -> Verdict:
    """One-sided tester for general conjunctions.

    Draws ceil(3/eps) samples looking for a 1-string x*; with none it accepts.
    Otherwise it flips the coordinates in ZERO(x*), which turns any general
    conjunction consistent with x* into a monotone one, and runs the monotone
    tester on flipped views of the same black box and sampler: every query and
    draw is one call of the underlying oracle, logged in its own coordinates.
    """
    eps = Fraction(epsilon)
    if not 0 < eps <= 1:
        raise ValueError("epsilon must be in (0, 1]")
    k0 = _ceil_fraction(Fraction(3) / eps)
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
    when given) through sampler.draw(), computes the representative of each
    distinct 0-sample once, in order of first appearance, and rejects when
    some 1-sample is 0 at some computed representative. One-sided.
    """
    if num_samples is not None:
        total = num_samples
    else:
        eps = Fraction(epsilon)
        if not 0 < eps <= 1:
            raise ValueError("epsilon must be in (0, 1]")
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
    for _ in range(total):
        x, label = sampler.draw()
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
