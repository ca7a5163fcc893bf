"""Three-stage tester: parameters, representative search, verdict paths."""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
import hashlib
from itertools import accumulate, combinations
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from subcube import (
    BlackBox,
    BudgetExceeded,
    DecisionList,
    DimensionMismatch,
    FiniteDistribution,
    Flipped,
    FunctionSpec,
    GeneralConj,
    LBParams,
    LinearThreshold,
    MonotoneConj,
    QueryTranscript,
    RandomStream,
    Sampler,
    TesterParams as Params,
    TruthTable,
    Verdict,
    ZeroSet,
    amplify,
    baseline_dolev_ron,
    ceil_log2,
    compute_parameters,
)
import subcube
import subcube.model as model_module
import subcube.tester as tester_module
from subcube.adversarial import generate_instance
from subcube.serialize import function_from_obj, function_to_obj
from subcube.tester import (
    test_general_conjunction as run_conj_tester,
    test_monotone_conjunction as run_mconj_tester,
)
from helpers import (
    chi_square_fit,
    chi_square_two_sample,
    flip_distribution,
    group_fact_law,
    light_ones_dist,
    literal_block_facts,
    ones_index,
    rand_dist,
    rand_fractions,
    rand_points,
    reference_mconj_tester,
    reference_query_until,
    reference_search,
    reference_stages12,
    table_of,
    zs,
)


@dataclass(frozen=True)
class OneHole(FunctionSpec):
    """1 everywhere except the single point whose zero set is {hole}."""

    n: int
    hole: int

    def value_at(self, zeros):
        return 0 if zeros == frozenset({self.hole}) else 1


@dataclass(frozen=True)
class PairTrap(FunctionSpec):
    """0 exactly when both trap coordinates are 0."""

    n: int
    trap: frozenset

    def value_at(self, zeros):
        return 0 if self.trap <= zeros else 1


@dataclass(frozen=True)
class MarkedLiteral(FunctionSpec):
    """The single positive literal at `lit`, except 1 on the marked point."""

    n: int
    lit: int
    marked: frozenset

    def value_at(self, zeros):
        if zeros == self.marked:
            return 1
        return 0 if self.lit in zeros else 1


@dataclass(frozen=True)
class ShortLiteral(FunctionSpec):
    """The single positive literal at `lit`, except 1 on every point with
    more than `most` zeros."""

    n: int
    lit: int
    most: int

    def value_at(self, zeros):
        return 0 if self.lit in zeros and len(zeros) <= self.most else 1


def make_instance(func, dist, seed):
    tr = QueryTranscript()
    rng = RandomStream(seed)
    bb = BlackBox(func, tr)
    sm = Sampler(dist, func, tr, rng.split("samples"))
    return bb, sm, rng.split("tester"), tr


def uniform_dist(n, zero_sets):
    pts = [zs(n, *z) for z in zero_sets]
    w = Fraction(1, len(pts))
    return FiniteDistribution(n, tuple((p, w) for p in pts))


# -- parameters ---------------------------------------------------------------


def test_ceil_log2():
    assert [ceil_log2(k) for k in (1, 2, 3, 4, 5, 8, 9)] == \
        [0, 1, 2, 2, 3, 3, 4]
    with pytest.raises(ValueError, match="n must be at least 1"):
        ceil_log2(0)


def test_ceil_cuberoot_is_the_least_r_with_r_cubed_at_least_k():
    r = 0
    for k in range(2001):
        while r ** 3 < k:
            r += 1
        assert tester_module._ceil_cuberoot(k) == r
    for c in [*range(2, 50), *(2 ** j + d for j in range(5, 71) for d in (-1, 0, 1))]:
        cube = c ** 3
        assert [tester_module._ceil_cuberoot(k) for k in (cube - 1, cube, cube + 1)] == \
            [c, c, c + 1]


def test_parameters_power_of_two():
    p = compute_parameters(4096, 1)
    assert (p.d, p.d_star, p.r, p.t, p.s) == (144, 20736, 16, 2304, 27648)
    assert p.group_size == 6912
    assert p.stage0_samples == 6912 * 20737

    q = compute_parameters(64, 1)
    assert (q.d, q.d_star, q.r, q.t, q.s, q.group_size) == \
        (36, 1296, 4, 144, 864, 432)


def test_parameters_epsilon_scaling():
    p = compute_parameters(4096, Fraction(1, 2))
    assert p.d == 338          # ceil(log2(8192)^2 / (1/2))
    assert p.d_star == 228488  # ceil(d^2 / (1/2))
    assert p.t == 338 * 16
    assert p.group_size == 32448


def test_parameters_general_n():
    p = compute_parameters(60, 1)
    assert (p.d, p.r, p.t, p.s) == (35, 4, 140, 840)
    assert p.group_size == 420
    assert p.d_star == 1225


def test_parameters_reject_bad_epsilon():
    for eps in (0, 2, Fraction(-1, 2)):
        with pytest.raises(ValueError):
            compute_parameters(64, eps)


# -- representative search ----------------------------------------------------


def representative(box, x):
    """The box's representative search on the one point x."""
    return next(box.representatives([x]))


def ref_representative(func, zeros):
    """Straight transcription of the halving rule, kept as the oracle."""
    z = sorted(zeros)
    if not z:
        return None
    while len(z) >= 2:
        half = (len(z) + 1) // 2
        z0, z1 = z[:half], z[half:]
        if func.value_at(frozenset(z0)) == 0:
            z = z0
        elif func.value_at(frozenset(z1)) == 0:
            z = z1
        else:
            return None
    return z[0]


def test_representative_empty_and_singleton():
    f = MonotoneConj(6, frozenset({2}))
    tr = QueryTranscript()
    bb = BlackBox(f, tr)
    assert representative(bb, zs(6)) is None
    assert representative(bb, zs(6, 4)) == 4
    assert tr.blackbox_count == 0  # neither case queries


def test_representative_matches_reference_on_random_tables():
    rng = RandomStream(200)
    for trial in range(300):
        n = 2 + rng.randrange(7)
        f = TruthTable(n, rng.randrange(1 << (1 << n)))
        size = 1 + rng.randrange(n)
        zeros = frozenset(rng.sample(list(range(1, n + 1)), size))
        tr = QueryTranscript()
        got = representative(BlackBox(f, tr), ZeroSet(n, zeros))
        assert got == ref_representative(f, zeros)
        assert tr.blackbox_count <= 2 * ceil_log2(size)


def test_representative_lands_in_required_set():
    rng = RandomStream(201)
    for trial in range(100):
        n = 8
        req = frozenset(rng.sample(list(range(1, n + 1)), 3))
        f = MonotoneConj(n, req)
        size = 1 + rng.randrange(n)
        zeros = frozenset(rng.sample(list(range(1, n + 1)), size))
        if f.value_at(zeros) == 1:
            continue
        got = representative(BlackBox(f, QueryTranscript()), ZeroSet(n, zeros))
        assert got in (req & zeros)


@dataclass(frozen=True)
class PairUnion(FunctionSpec):
    n: int

    def value_at(self, zeros):
        return 1 if zeros <= {1, 3} or zeros <= {2, 4} else 0


def test_representative_nil_on_union_function():
    # 1 iff the zeros fit under one of two generators; each half of {1,2}
    # sits under a generator, so the search dead-ends
    f = PairUnion(4)
    tr = QueryTranscript()
    assert representative(BlackBox(f, tr), zs(4, 1, 2)) is None
    assert tr.blackbox_count == 2


# -- monotone tester verdict paths --------------------------------------------


def in_class_mconj(trial):
    sub = RandomStream(202).split(trial)
    n = 16
    req = frozenset(sub.sample(list(range(1, n + 1)), sub.randrange(4)))
    return MonotoneConj(n, req), rand_dist(sub.split("dist"), n, 8, max_zeros=5)


def in_class_conj(trial):
    sub = RandomStream(203).split(trial)
    n = 16
    idx = sub.sample(list(range(1, n + 1)), 4)
    f = GeneralConj(n, frozenset(idx[:2]), frozenset(idx[2:]))
    return f, rand_dist(sub.split("dist"), n, 8, max_zeros=6)


def test_accepts_in_class_instances():
    for trial in range(25):
        f, dist = in_class_mconj(trial)
        n = dist.n
        bb, sm, trng, tr = make_instance(f, dist, 300 + trial)
        v = run_mconj_tester(bb, sm, n, 1, trng)
        assert v.accepted, v.reason
        assert v.outcome == "accept"


def test_stage0_allones_reject():
    f = GeneralConj(8, frozenset({1}), frozenset({1}))  # constant 0
    dist = uniform_dist(8, [(1,), (2,)])
    bb, sm, trng, tr = make_instance(f, dist, 303)
    v = run_mconj_tester(bb, sm, 8, 1, trng)
    assert not v.accepted
    assert v.reason == "stage0-allones"
    assert tr.blackbox_count == 1
    assert tr.sample_count == 0


def test_stage0_nil_representative_reject():
    f = PairUnion(4)
    dist = uniform_dist(4, [(1,), (2,), (1, 2)])
    bb, sm, trng, tr = make_instance(f, dist, 304)
    v = run_mconj_tester(bb, sm, 4, 1, trng)
    assert not v.accepted
    assert v.reason == "stage0-nil-representative"
    p = compute_parameters(4, 1)
    assert tr.sample_count % p.group_size == 0  # whole groups were drawn
    assert tr.sample_count < p.stage0_samples


def test_stage1_few_ones_accept():
    f = MonotoneConj(8, frozenset({1}))
    dist = uniform_dist(8, [(1,)])  # nothing but 0-strings
    bb, sm, trng, tr = make_instance(f, dist, 305)
    v = run_mconj_tester(bb, sm, 8, 1, trng)
    assert v.accepted
    assert v.reason == "stage1-few-ones"
    assert tr.sample_count == compute_parameters(8, 1).stage0_samples


def test_step_1_1_reject():
    n = 16
    hole = 7
    f = OneHole(n, hole)
    y = frozenset({2, 3, 5, 7, 8, 9, 11, 13, 14, 16})
    dist = FiniteDistribution(n, ((zs(n, *y), Fraction(1)),))
    bb, sm, trng, tr = make_instance(f, dist, 306)
    v = run_mconj_tester(bb, sm, n, 1, trng)
    assert not v.accepted
    assert v.reason == "step-1.1"


def test_step_1_2_reject():
    n = 16
    f = PairTrap(n, frozenset({1, 2}))
    dist = uniform_dist(n, [(1, 5), (2, 6)])  # both 1-strings
    bb, sm, trng, tr = make_instance(f, dist, 307)
    v = run_mconj_tester(bb, sm, n, 1, trng)
    assert not v.accepted
    assert v.reason == "step-1.2"


def test_stage2_no_zero_accept():
    n = 16
    f = OneHole(n, 15)  # the hole never enters the sampled zero sets
    dist = uniform_dist(n, [(2, 3), (4, 5, 6)])
    bb, sm, trng, tr = make_instance(f, dist, 308)
    v = run_mconj_tester(bb, sm, n, 1, trng)
    assert v.accepted
    assert v.reason == "stage2-no-zero"


def small_params(n, **over):
    base = dict(n=n, epsilon=Fraction(1), d=4, d_star=3, r=2, t=4, s=0,
                group_size=16)
    base.update(over)
    base["stage0_samples"] = base["group_size"] * (base["d_star"] + 1)
    return Params(**base)


def test_step_2_1_reject():
    # s=0 skips the stage-1 probes so the stage-2 alpha test is reached
    n = 8
    f = MarkedLiteral(n, 7, frozenset({3, 7}))
    dist = FiniteDistribution(n, ((zs(n, 3, 7), Fraction(1, 2)),
                                  (zs(n, 7), Fraction(1, 2))))
    bb, sm, trng, tr = make_instance(f, dist, 309)
    v = run_mconj_tester(bb, sm, n, 1, trng, params=small_params(n))
    assert not v.accepted
    assert v.reason == "step-2.1"


def test_step_2_1_past_the_first_block_matches_reference():
    # alpha = 1, the representative of the 0-point {1}, enters a group's B
    # only through the light 1-point {1, 2}; every other probe {1} answers
    # 0. With 1,500 Stage-2 groups, the first step-2.1 group lies past the
    # first block of _SUBSET_ROWS rows, and every earlier row asks its probe
    n = 4
    f = DecisionList(n, ((1, 1), (-2, 1)), 0)
    light = Fraction(1, 1 << 14)
    dist = FiniteDistribution(n, ((zs(n), Fraction(1, 2)), (zs(n, 1, 2), light),
                                  (zs(n, 1), Fraction(1, 2) - light)))
    p = small_params(n, d_star=1500, t=8, s=16, group_size=64)
    for seed in (2, 8):
        got = one_run(f, dist, seed, p, frozenset(), True)
        assert got == one_run(f, dist, seed, p, frozenset(), True, reference=True)
        # the all-ones probe, then one probe per Stage-2 row before step 2.1
        assert got[1] == "step-2.1" and got[4] - 1 > tester_module._SUBSET_ROWS, (seed, got[:6])


def test_step_2_2_reject():
    n = 8
    f = MarkedLiteral(n, 7, frozenset({3, 7}))
    dist = FiniteDistribution(n, ((zs(n, 3), Fraction(498, 1000)),
                                  (zs(n, 3, 7), Fraction(2, 1000)),
                                  (zs(n, 7), Fraction(500, 1000))))
    bb, sm, trng, tr = make_instance(f, dist, 310)
    v = run_mconj_tester(bb, sm, n, 1, trng,
                         params=small_params(n, d_star=8, group_size=24))
    assert not v.accepted
    assert v.reason == "step-2.2"


def test_end_of_stage_2_accept_counts_exact():
    n = 64
    f = MonotoneConj(n, frozenset({3, 17}))
    pts = [(), (5,), (3,), (9, 11), (3, 17, 20)]
    dist = uniform_dist(n, pts)
    bb, sm, trng, tr = make_instance(f, dist, 311)
    p = compute_parameters(n, 1)
    v = run_mconj_tester(bb, sm, n, 1, trng)
    assert v.accepted
    assert v.reason == "end-of-stage-2"
    assert tr.sample_count == p.stage0_samples  # exact, tape replays free
    bound = 1 + len(pts) * 2 * ceil_log2(n) + 2 * p.s + \
        p.d_star * (2 * ceil_log2(n) + 2)
    assert tr.blackbox_count <= bound


def test_dimension_mismatch_rejected():
    f = MonotoneConj(8, frozenset({1}))
    dist = uniform_dist(8, [(1,)])
    bb, sm, trng, tr = make_instance(f, dist, 312)
    with pytest.raises(ValueError):
        run_mconj_tester(bb, sm, 9, 1, trng)
    # params for another n, refused before the all-ones probe
    with pytest.raises(DimensionMismatch, match="n = 4096"):
        run_mconj_tester(bb, sm, 8, 1, trng, params=compute_parameters(4096, Fraction(1, 2)))
    assert (tr.blackbox_count, tr.sample_count) == (0, 0)


def test_conj_refuses_params_for_another_n():
    # no 1-labelled point: the search for x* finds none, and used to
    # accept with the params of n = 4096
    f = GeneralConj(8, frozenset({1}), frozenset({1}))  # constant 0
    bb, sm, trng, tr = make_instance(f, uniform_dist(8, [(1,), (2, 3)]), 313)
    with pytest.raises(DimensionMismatch, match="n = 4096"):
        run_conj_tester(bb, sm, 8, 1, trng, params=compute_parameters(4096, Fraction(1, 2)))
    assert (tr.blackbox_count, tr.sample_count) == (0, 0)


def test_conj_refuses_oracles_of_another_n():
    f = GeneralConj(16, frozenset({1}), frozenset({1}))
    bb, sm, trng, tr = make_instance(f, uniform_dist(16, [(1,), (2, 3)]), 314)
    with pytest.raises(DimensionMismatch):
        run_conj_tester(bb, sm, 8, 1, trng)
    assert (tr.blackbox_count, tr.sample_count) == (0, 0)


@pytest.mark.parametrize("num_samples", [None, 0])
def test_baseline_refuses_a_sampler_of_another_n(num_samples):
    tr = QueryTranscript()
    bb = BlackBox(MonotoneConj(8, frozenset({1})), tr)
    f = MonotoneConj(16, frozenset({1}))
    sm = Sampler(uniform_dist(16, [(1,), (2,), ()]), f, tr, RandomStream(315))
    with pytest.raises(DimensionMismatch):
        baseline_dolev_ron(bb, sm, 8, 1, num_samples=num_samples)
    assert (tr.blackbox_count, tr.sample_count) == (0, 0)


# -- general-conjunction wrapper ----------------------------------------------


def test_conj_accepts_in_class_instances():
    for trial in range(25):
        f, dist = in_class_conj(trial)
        n = dist.n
        bb, sm, trng, tr = make_instance(f, dist, 400 + trial)
        v = run_conj_tester(bb, sm, n, 1, trng)
        assert v.accepted, v.reason


def test_conj_no_positive_accept():
    f = GeneralConj(8, frozenset({1}), frozenset({1}))  # constant 0
    dist = uniform_dist(8, [(1,), (2, 3)])
    bb, sm, trng, tr = make_instance(f, dist, 401)
    v = run_conj_tester(bb, sm, 8, 1, trng)
    assert v.accepted
    assert v.reason == "conj-no-positive"
    assert tr.sample_count <= 3  # ceil(3/eps) lazy draws


def test_conj_rejects_far_flipped_instance():
    n = 16
    inner = PairTrap(n, frozenset({1, 2}))
    f = Flipped(inner, frozenset({1}))
    base = uniform_dist(n, [(1, 5), (2, 6)])
    dist = flip_distribution(base, {1})
    bb, sm, trng, tr = make_instance(f, dist, 402)
    v = run_conj_tester(bb, sm, n, 1, trng)
    assert not v.accepted
    assert v.reason in ("step-1.1", "step-1.2", "step-2.1", "step-2.2",
                        "stage0-nil-representative")


def test_conj_rejects_bad_epsilon():
    f = GeneralConj(8, frozenset({1}), frozenset())
    dist = uniform_dist(8, [(1,)])
    bb, sm, trng, tr = make_instance(f, dist, 403)
    with pytest.raises(ValueError):
        run_conj_tester(bb, sm, 8, 0, trng)


# -- amplification ------------------------------------------------------------


def test_amplify_stops_at_first_reject():
    calls = []

    def run_trial(sub):
        calls.append(sub.path)
        return Verdict(len(calls) < 3, f"scripted-{len(calls)}", None, len(calls))

    v = amplify(run_trial, 11, RandomStream(500))
    assert not v.accepted
    assert len(calls) == 3  # rejected on the third attempt
    # the verdict is the deciding attempt's own
    assert (v.reason, v.stage0_zero_samples) == ("scripted-3", 3)
    assert len({p for p in calls}) == 3  # distinct sub-streams


def test_amplify_runs_all_attempts_on_accept():
    count = [0]

    def run_trial(sub):
        count[0] += 1
        return Verdict(True, f"scripted-{count[0]}")

    v = amplify(run_trial, 7, RandomStream(501))
    assert v.accepted
    assert count[0] == 7
    assert v.reason == "scripted-7"
    with pytest.raises(ValueError):
        amplify(run_trial, 0, RandomStream(502))


# -- pair-sampling baseline ---------------------------------------------------


def test_baseline_accepts_in_class():
    rng = RandomStream(204)
    for trial in range(50):
        sub = rng.split(trial)
        n = 16
        req = frozenset(sub.sample(list(range(1, n + 1)), sub.randrange(4)))
        f = MonotoneConj(n, req)
        dist = rand_dist(sub.split("dist"), n, 6, max_zeros=5)
        bb, sm, trng, tr = make_instance(f, dist, 600 + trial)
        v = baseline_dolev_ron(bb, sm, n, 1)
        assert v.accepted, v.reason


def test_baseline_sample_count_formula():
    # ceil(2 * sqrt(n) * log2(n) / epsilon), exact at a power of 4: a float
    # division by epsilon draws one sample too many at the last two
    for n, epsilon, count in ((16, 1, 32), (16, Fraction(1, 2), 64),
                              (16, Fraction(1, 49), 1568),
                              (4096, Fraction(3, 47), 24064)):
        f = MonotoneConj(n, frozenset())
        dist = uniform_dist(n, [(), (2,)])
        bb, sm, trng, tr = make_instance(f, dist, 601)
        v = baseline_dolev_ron(bb, sm, n, epsilon)
        assert v.accepted
        assert v.reason == "baseline-clean"
        assert tr.sample_count == count


def test_baseline_zero_samples_accepts_without_queries():
    f = MonotoneConj(16, frozenset({1}))
    dist = uniform_dist(16, [(1,)])
    bb, sm, trng, tr = make_instance(f, dist, 602)
    v = baseline_dolev_ron(bb, sm, 16, 1, num_samples=0)
    assert v.accepted
    assert tr.sample_count == 0
    assert tr.blackbox_count == 0


def test_baseline_allones_reject():
    f = GeneralConj(16, frozenset({1}), frozenset({1}))
    dist = uniform_dist(16, [(1,)])
    bb, sm, trng, tr = make_instance(f, dist, 603)
    v = baseline_dolev_ron(bb, sm, 16, 1)
    assert not v.accepted
    assert v.reason == "baseline-allones"


def test_baseline_nil_representative_reject():
    f = PairUnion(4)
    dist = uniform_dist(4, [(1,), (2,), (1, 2)])
    bb, sm, trng, tr = make_instance(f, dist, 604)
    v = baseline_dolev_ron(bb, sm, 4, 1, num_samples=64)
    assert not v.accepted
    assert v.reason == "baseline-nil-representative"


def test_baseline_edge_reject():
    n = 8
    f = MarkedLiteral(n, 7, frozenset({3, 7}))
    dist = FiniteDistribution(n, ((zs(n, 3, 7), Fraction(1, 2)),
                                  (zs(n, 7), Fraction(1, 2))))
    bb, sm, trng, tr = make_instance(f, dist, 605)
    v = baseline_dolev_ron(bb, sm, n, 1, num_samples=64)
    assert not v.accepted
    assert v.reason == "baseline-edge"


def test_baseline_deterministic_given_seed():
    n = 16
    f = MonotoneConj(n, frozenset({2}))
    dist = uniform_dist(n, [(2,), (3,), ()])
    runs = []
    for _ in range(2):
        bb, sm, trng, tr = make_instance(f, dist, 606)
        v = baseline_dolev_ron(bb, sm, n, 1)
        runs.append((v.accepted, v.reason, tr.blackbox_count,
                     tr.sample_count))
    assert runs[0] == runs[1]



# -- the one-pass tester against the literal reference -------------------------


def conj_flip(func, dist):
    """ZERO(x) of the first 1-labelled support point: the flip a conj run
    makes when that point is its x*. Empty when there is none."""
    return next((p.zeros for p, _ in dist.entries if func.value_at(p.zeros)), frozenset())


def crafted_instances():
    """Every instance the tests above build, as (func, dist, seed, params,
    flip); the conj instances run through views flipped by conj_flip."""
    marked = MarkedLiteral(8, 7, frozenset({3, 7}))
    far = Flipped(PairTrap(16, frozenset({1, 2})), frozenset({1}))
    rows = [
        (GeneralConj(8, frozenset({1}), frozenset({1})), uniform_dist(8, [(1,), (2,)]),
         303, None),
        (PairUnion(4), uniform_dist(4, [(1,), (2,), (1, 2)]), 304, None),
        (MonotoneConj(8, frozenset({1})), uniform_dist(8, [(1,)]), 305, None),
        (OneHole(16, 7), uniform_dist(16, [(2, 3, 5, 7, 8, 9, 11, 13, 14, 16)]),
         306, None),
        (PairTrap(16, frozenset({1, 2})), uniform_dist(16, [(1, 5), (2, 6)]), 307, None),
        (OneHole(16, 15), uniform_dist(16, [(2, 3), (4, 5, 6)]), 308, None),
        (marked, FiniteDistribution(8, ((zs(8, 3, 7), Fraction(1, 2)),
                                        (zs(8, 7), Fraction(1, 2)))),
         309, small_params(8)),
        (marked, FiniteDistribution(8, ((zs(8, 3), Fraction(498, 1000)),
                                        (zs(8, 3, 7), Fraction(2, 1000)),
                                        (zs(8, 7), Fraction(500, 1000)))),
         310, small_params(8, d_star=8, group_size=24)),
        (MonotoneConj(64, frozenset({3, 17})),
         uniform_dist(64, [(), (5,), (3,), (9, 11), (3, 17, 20)]), 311, None),
    ]
    rows = [(f, d, seed, params, frozenset()) for f, d, seed, params in rows]
    rows += [(*in_class_mconj(k), 300 + k, None, frozenset()) for k in range(25)]
    conj = [(far, flip_distribution(uniform_dist(16, [(1, 5), (2, 6)]), {1}), 402)]
    conj += [(*in_class_conj(k), 400 + k) for k in range(25)]
    return rows + [(f, d, seed, None, conj_flip(f, d)) for f, d, seed in conj]


def random_instance(seed):
    """An instance with n <= 12 for eps = 1: a monotone conjunction, a
    conjunction (run through views flipped by conj_flip) or a truth table
    that is a monotone conjunction with a few points mislabelled. The
    1-labelled support points carry a mass spread over 1/12..11/12."""
    rng = RandomStream(seed).split("instance")
    n = 4 + rng.randrange(9)
    coords = list(range(1, n + 1))
    req = frozenset(rng.sample(coords, rng.randrange(4)))
    pts = rand_points(rng, n, 2 + rng.randrange(7), max_zeros=2 + rng.randrange(n - 1))
    light = []
    kind = ("mconj", "conj", "table")[seed % 3]
    if kind == "mconj":
        f = MonotoneConj(n, req)
    elif kind == "conj":
        f = GeneralConj(n, req, frozenset(rng.sample(coords, rng.randrange(3))) - req)
    else:
        # mislabel a few points with 1 to 3 zeros, and a few support points,
        # which get a small weight so that Stage 1 can miss them
        bits = table_of(MonotoneConj(n, req), n)
        for _ in range(rng.randrange(3)):
            bits ^= 1 << ones_index(n, rng.sample(coords, 1 + rng.randrange(3)))
        light = rng.sample(pts, rng.randrange(3))
        for p in light:
            bits ^= 1 << ones_index(n, p.zeros)
        f = TruthTable(n, bits)
    raw = [Fraction(1 + rng.randrange(9), 16 if p in light else 1) for p in pts]
    labels = [f.value_at(p.zeros) for p in pts]
    share = Fraction(1 + rng.randrange(11), 12)
    if len(set(labels)) == 1:
        share = Fraction(labels[0])
    mass = [1 - share, share]
    total = [sum(w for w, v in zip(raw, labels) if v == b) for b in (0, 1)]
    dist = FiniteDistribution(n, tuple((p, w * mass[v] / total[v])
                                       for p, w, v in zip(pts, raw, labels)))
    return f, dist, seed, None, conj_flip(f, dist) if kind == "conj" else frozenset()


# 0..39 end at seven of the ten reasons; 89, 101 and 263 are the first
# seeds to end at step-2.2, step-1.2 and step-2.1
RANDOM_SEEDS = [*range(40), 89, 101, 263]
REASONS = {"stage0-allones", "stage0-nil-representative", "stage1-few-ones",
           "step-1.1", "step-1.2", "stage2-few-ones", "stage2-no-zero",
           "step-2.1", "step-2.2", "end-of-stage-2"}


def one_run(func, dist, seed, params, flip, log, reference=False):
    """One run of the tester, or of reference_mconj_tester, on oracles
    flipped by flip: (accepted, reason, Stage-0 0-samples, searches, counts,
    logs)."""
    p = params or compute_parameters(dist.n, 1)
    tr = QueryTranscript(log_queries=log)
    rng = RandomStream(seed)
    bb = BlackBox(func, tr).flipped(flip)
    sm = Sampler(dist, func, tr, rng.split("samples")).flipped(flip)
    if reference:
        got = reference_mconj_tester(bb, sm, p, rng.split("tester"))
    else:
        v = run_mconj_tester(bb, sm, dist.n, 1, rng.split("tester"), params=params)
        got = (v.accepted, v.reason, v.stage0_zero_samples, v.searches)
        if log and v.reason not in ("stage0-allones", "stage0-nil-representative"):
            # a logged run draws each sample it is charged, and no other
            assert tr.samples_drawn == tr.sample_count, (seed, v.reason)
    return got + (tr.blackbox_count, tr.sample_count, tr.blackbox_log, tr.sample_log)


def twin_runs(func, dist, seed, params, flip):
    """The tester and reference_mconj_tester on twin oracles, logging on,
    then the tester once more with logging off, where Stage 0 may stop
    drawing groups: (accepted, reason, Stage-0 0-samples, searches, counts,
    logs) of each."""
    return [one_run(func, dist, seed, params, flip, log, reference)
            for reference, log in ((False, True), (True, True), (False, False))]


def blackbox_bound(p, n, searches):
    """The closed-form black-box bound of query_budget_report."""
    return 1 + searches * 2 * ceil_log2(n) + 2 * p.s + p.d_star * (2 * ceil_log2(n) + 2)


def check_twins(case, got, want, quiet):
    """got equals want log for log. quiet (logging off) draws the groups
    after its last search as their facts, so its draws, verdict and
    black-box count may differ, but not its law: it has the reference's
    sample count and searches, stays within the black-box bound, and has
    at most the reference's 0-samples. Returns whether quiet drew fewer
    0-samples, which only groups it did not draw explain."""
    label, p, n = case[2], case[3] or compute_parameters(case[1].n, 1), case[1].n
    assert got == want, (label, got[:6], want[:6])
    assert (quiet[3], quiet[5]) == (want[3], want[5]), (label, quiet[:6], want[:6])
    assert quiet[4] <= blackbox_bound(p, n, quiet[3]), (label, quiet[:6])
    assert quiet[2] <= want[2], (label, quiet[2], want[2])
    return quiet[2] < want[2]


def test_one_pass_matches_reference_on_crafted_instances():
    reasons = set()
    skipped = 0
    for case in crafted_instances():
        got, want, quiet = twin_runs(*case)
        skipped += check_twins(case, got, want, quiet)
        reasons.add(got[1])
    assert REASONS - reasons == {"stage2-few-ones"}
    assert skipped


def test_one_pass_matches_reference_on_random_instances():
    reasons = set()
    skipped = 0
    for seed in RANDOM_SEEDS:
        case = random_instance(seed)
        assert case[1].n <= 12
        got, want, quiet = twin_runs(*case)
        skipped += check_twins(case, got, want, quiet)
        reasons.add(got[1])
    assert reasons == REASONS
    assert skipped


def test_quiet_runs_match_logged_runs_in_law():
    """The reasons of runs with logging off, which draw groups as their
    facts, against those of logged runs, which draw every group: Pearson's
    two-sample test at alpha = 0.001 on the reason histograms pooled over
    the random tables (8 runs each) and the crafted instances up to n = 16
    (2 runs each), the two kinds of run on disjoint seeds. Pooling
    instances whose reasons have different laws only shrinks the variance
    of the counts, so the test stays at or below its level."""
    cases = [(random_instance(seed), 8) for seed in RANDOM_SEEDS]
    cases += [(case, 2) for case in crafted_instances() if case[1].n <= 16]
    # some supports are all 1-labelled, where the quiet run draws group 0
    # as its facts too
    assert any(all(func.value_at(point.zeros) for point, _ in dist.entries)
               for (func, dist, *_), _ in cases)
    hists = {True: {}, False: {}}
    for (func, dist, _, params, flip), runs in cases:
        for log, hist in hists.items():
            for k in range(runs):
                reason = one_run(func, dist, k + (0 if log else 10 ** 6), params, flip,
                                 log)[1]
                hist[reason] = hist.get(reason, 0) + 1
    stat, critical, df = chi_square_two_sample(hists[True], hists[False])
    print(f"reason histograms: chi-square {stat:.2f}, critical {critical:.2f} "
          f"at alpha 0.001, {df} df")
    assert stat < critical, (stat, critical, hists)


def large_support_instances():
    """Twin cases on 160-point supports at n = 64, 120 of them light
    1-points, so that B changes from group to group, with small parameters:
    (func, dist, seed, params, flip). The conj case runs through views
    flipped by conj_flip. ShortLiteral(64, 7, 3) is 1 on the light points
    that are 0 at 7, which put 7 in B: with s = 0 a group that holds one
    ends at step 2.1, and with r = 4 the probe of 7 and three points of B
    has four zeros and ends the run at step 2.2."""
    conj = GeneralConj(64, frozenset({5}), frozenset({9}))
    rows = []
    for func, seed, over in ((MonotoneConj(64, frozenset({3, 17})), 320, {"s": 4}),
                             (conj, 321, {"s": 4}),
                             (ShortLiteral(64, 7, 3), 322, {}),
                             (ShortLiteral(64, 7, 3), 324, {"r": 4})):
        dist = light_ones_dist(RandomStream(seed), func, 120, 40)
        flip = conj_flip(func, dist) if func is conj else frozenset()
        params = small_params(64, d_star=8, t=12, group_size=96, **over)
        rows.append((func, dist, seed, params, flip))
    return rows


def test_one_pass_matches_reference_past_64_points():
    # no two logged groups have the same first t-1 1-samples, so B changes
    # from group to group
    reasons = set()
    for case in large_support_instances():
        assert 100 <= len(case[1].entries) <= 200
        got, want, quiet = twin_runs(*case)
        check_twins(case, got, want, quiet)
        reasons.add(got[1])
        size, t = case[3].group_size, case[3].t
        log = got[7]
        firsts = [frozenset([z for z, label in log[k:k + size] if label][:t - 1])
                  for k in range(0, len(log), size)]
        assert len(set(firsts)) == len(firsts)
    assert {"step-2.1", "step-2.2", "end-of-stage-2"} <= reasons


def ones_mass_instance(ones):
    """n = 8, f = x1, and two support points: all-ones with mass `ones`, and
    the point zero at 1 alone."""
    n = 8
    f = MonotoneConj(n, frozenset({1}))
    dist = FiniteDistribution(n, ((zs(n), ones), (zs(n, 1), 1 - ones)))
    return n, f, dist


def test_stage1_few_ones_builds_no_union(monkeypatch):
    # about 0.3 ones mass: group 0 falls short of t, later groups reach t-1,
    # and no B of any of them is built
    calls = []
    b_rows = tester_module._b_rows

    def counted(*args):
        calls.append(args)
        return b_rows(*args)

    monkeypatch.setattr(tester_module, "_b_rows", counted)
    n, f, dist = ones_mass_instance(Fraction(3, 10))
    tr = QueryTranscript(log_queries=True)
    rng = RandomStream(313)
    v = run_mconj_tester(BlackBox(f, tr), Sampler(dist, f, tr, rng.split("samples")),
                         n, 1, rng.split("tester"))
    assert v.reason == "stage1-few-ones"
    assert calls == []
    p = v.params
    labels = [label for _, label in tr.sample_log]
    groups = [labels[k:k + p.group_size] for k in range(0, len(labels), p.group_size)]
    assert max(sum(g) for g in groups[1:]) >= p.t - 1


def test_stage0_skips_draws_once_nothing_can_change(monkeypatch):
    # with logging off, a run that ends at stage1-few-ones draws group 0,
    # which searches the one 0-point, and charges the other groups undrawn
    calls = []
    draw = Sampler._draw_groups

    def counted(self, count, size):
        calls.append(count * size)
        return draw(self, count, size)

    monkeypatch.setattr(Sampler, "_draw_groups", counted)
    n, f, dist = ones_mass_instance(Fraction(3, 10))
    tr = QueryTranscript()
    rng = RandomStream(313)
    v = run_mconj_tester(BlackBox(f, tr), Sampler(dist, f, tr, rng.split("samples")),
                         n, 1, rng.split("tester"))
    p = v.params
    assert v.reason == "stage1-few-ones"
    assert len(calls) == 1 and calls[0] < p.stage0_samples
    assert v.searches == 1
    assert tr.sample_count == p.stage0_samples
    assert v.stage0_zero_samples <= p.group_size


@pytest.mark.parametrize("ones", [Fraction(3, 10), Fraction(9, 10)])
def test_budget_runs_out_at_the_same_count_with_or_without_draws(ones):
    # unbudgeted and with logging off, mass 3/10 ends at stage2-few-ones and
    # draws only groups 0 and 1; mass 9/10 runs to end-of-stage-2 and draws
    # every group
    n, f, dist = ones_mass_instance(ones)
    p = compute_parameters(n, 1)
    for limit, stop in ((p.group_size * 5 + 7, p.group_size * 5),
                        (p.stage0_samples - 1, p.stage0_samples - p.group_size)):
        for log in (False, True):
            tr = QueryTranscript(log_queries=log, limit=limit)
            rng = RandomStream(314)
            with pytest.raises(BudgetExceeded):
                run_mconj_tester(BlackBox(f, tr), Sampler(dist, f, tr, rng.split("samples")),
                                 n, 1, rng.split("tester"))
            assert tr.sample_count == stop, (ones, limit, log)


def fact_reads(monkeypatch):
    """Record, in order, each read of the groups past those drawn as
    samples: ("facts", count, drawn) per _GroupLaw.draw call, drawn the D0
    and D1 samples it drew; ("classes", count, 0) per block of class words
    a known run reads alone on _GroupLaw.cuts (_Law.count inside
    _known_run, but not inside _GroupLaw.draw); and ("known", 0, drawn) as
    each _known_run returns, drawn the samples it drew in all."""
    draw, count = tester_module._GroupLaw.draw, model_module._Law.count
    known = tester_module._known_run
    reads, inside = [], []

    def counted(read, sampler, *args):
        # read(*args), called inside read, and the samples it drew
        before = sampler.transcript.samples_drawn
        inside.append(read)
        try:
            return read(*args), sampler.transcript.samples_drawn - before
        finally:
            inside.pop()

    def facts(law, k):
        out, drawn = counted(draw, law.sampler, law, k)
        reads.append(("facts", k, drawn))
        return out

    def classes(law, rng, words):
        if inside[-1:] == [known]:
            reads.append(("classes", len(words), 0))
        return count(law, rng, words)

    def known_run(oracle, sampler, *args):
        out, drawn = counted(known, sampler, oracle, sampler, *args)
        reads.append(("known", 0, drawn))
        return out

    monkeypatch.setattr(tester_module._GroupLaw, "draw", facts)
    monkeypatch.setattr(model_module._Law, "count", classes)
    monkeypatch.setattr(tester_module, "_known_run", known_run)
    return reads


def block_runs(monkeypatch, func, dist, seed, limit=None):
    """The tester with logging on, reference_mconj_tester, and the tester
    with logging off, on twin oracles capped at limit. Per run: (outcome,
    black-box count, sample count, black-box log, sample log), where the
    outcome is (accepted, reason, Stage-0 0-samples, searches), or
    ("budget",) when the limit ran out; and per tester run, the (first
    group, group count, kind) of every block it drew, kind "groups" for a
    block of groups, "facts" for a block of their facts alone and
    "classes" for a block of class words a known run reads alone."""
    draw, reads = Sampler._draw_groups, fact_reads(monkeypatch)
    blocks = []

    def record(count, kind):
        blocks[-1].append((sum(c for _, c, _ in blocks[-1]), count, kind))

    def recorded(self, count, size):
        record(count, "groups")
        return draw(self, count, size)

    monkeypatch.setattr(Sampler, "_draw_groups", recorded)
    p = compute_parameters(dist.n, 1)
    runs = []
    for reference, log in ((False, True), (True, True), (False, False)):
        tr = QueryTranscript(log_queries=log, limit=limit)
        rng = RandomStream(seed)
        bb = BlackBox(func, tr)
        sm = Sampler(dist, func, tr, rng.split("samples"))
        blocks.append([])
        try:
            if reference:
                got = reference_mconj_tester(bb, sm, p, rng.split("tester"))
            else:
                v = run_mconj_tester(bb, sm, dist.n, 1, rng.split("tester"))
                got = (v.accepted, v.reason, v.stage0_zero_samples, v.searches)
        except BudgetExceeded:
            got = ("budget",)
        # every group read past those drawn as samples comes after them
        for kind, count, _ in reads:
            if kind != "known":
                record(count, kind)
        reads.clear()
        runs.append((got, tr.blackbox_count, tr.sample_count, tr.blackbox_log,
                     tr.sample_log))
    return runs, [blocks[0], blocks[2]]


def _ends_recording(p, labels):
    """The first group that ends the run by its labels: group 0 with fewer
    than t 1-samples, a later one with fewer than t-1 or no 0-sample."""
    size = p.group_size
    for g in range(p.d_star + 1):
        group = labels[g * size:(g + 1) * size]
        if sum(group) < p.t - (g > 0) or (g and all(group)):
            return g
    return None


def _block_cases():
    n = 8
    p = compute_parameters(n, 1)
    # mass 9/10 reads every group; the budget refuses group 5
    budget = (*ones_mass_instance(Fraction(9, 10))[1:], 314, p.group_size * 5 + 7,
              lambda runs: runs[0][2] // p.group_size)
    # the one 0-point has a nil representative and first shows up in group 17
    trap = FiniteDistribution(n, ((zs(n), Fraction(431, 432)),
                                  (zs(n, 1, 2), Fraction(1, 432))))
    nil = (PairTrap(n, frozenset({1, 2})), trap, 504, None,
           lambda runs: runs[0][2] // p.group_size - 1)
    # group 12 is the first without a 0-sample; one weight's denominator
    # takes the sampler past 2^62
    big = Fraction(1, (1 << 64) + 13)
    z = Fraction(1, 29)
    dist = FiniteDistribution(n, ((zs(n), 1 - z - Fraction(3, 10) - big), (zs(n, 1), z),
                                  (zs(n, 2), Fraction(3, 10)), (zs(n, 3), big)))
    assert dist.denominator > 1 << 62
    ends = (MonotoneConj(n, frozenset({1})), dist, 602, None,
            lambda runs: _ends_recording(p, [label for _, label in runs[1][4]]))
    return {"budget": budget, "nil": nil, "recording-ends": ends}


@pytest.mark.parametrize("case", ["budget", "nil", "recording-ends"])
def test_stage0_blocks_match_reference_inside_a_block(monkeypatch, case):
    # the group g that decides the logged run is a later row of a block of
    # groups, except that no block, of groups or of facts, holds a group
    # the budget refuses; the logged run matches the reference log for log.
    # The quiet run reads the logged run's groups up to its last search:
    # under the budget and at the nil representative, which end the run
    # before that, it is the logged run but for its logs. Where recording
    # ends, the one 0-point was searched in group 0, so the quiet run, a
    # known one, reads the later groups' class words alone, and ends where
    # they end it; it has
    # the logged run's sample count and searches, and only group 0's
    # 0-samples
    func, dist, seed, limit, deciding = _block_cases()[case]
    runs, blocks = block_runs(monkeypatch, func, dist, seed, limit)
    got, want, quiet = runs
    g = deciding(runs)
    p = compute_parameters(dist.n, 1)
    logged, quiet_blocks = blocks
    if case == "budget":
        for drawn in blocks:
            assert all(first + count <= g for first, count, _ in drawn), (g, drawn)
    else:
        assert any(first < g < first + count for first, count, _ in logged), (g, logged)
    assert {kind for _, _, kind in logged} == {"groups"}
    assert got == want
    outcome = {"budget": ("budget",)}.get(case, want[0])
    if case == "recording-ends":
        read = want[4][:(g + 1) * p.group_size]
        outcome = (True, "stage2-no-zero", sum(1 for _, label in read if label == 0), 1)
    assert want[0][:2] == outcome[:2]
    if case == "recording-ends":
        assert quiet_blocks[0] == (0, 1, "groups")
        assert {kind for _, _, kind in quiet_blocks[1:]} == {"classes"}
        group0 = want[4][:p.group_size]
        assert quiet[0][0] and quiet[0][2:] == (
            sum(1 for _, label in group0 if label == 0), 1)
        assert quiet[2] == want[2]
        assert quiet[1] <= blackbox_bound(p, dist.n, 1)
    else:
        if case == "nil":
            assert quiet_blocks == logged
        assert quiet[0] == outcome
        assert quiet[1:3] == want[1:3]


def test_stage0_draws_group_0_alone_on_an_all_ones_support(monkeypatch):
    # with logging off and no 0-labelled support point, Stage 0 draws no
    # group as samples: this known run draws group 0, whose B takes t
    # 1-samples, as its facts, in a block of its own, then reads the class
    # word of group 1, which has no 0-sample and ends the run, alone. The
    # logged run draws groups and matches the reference log for log
    n = 8
    func = MonotoneConj(n, frozenset({1}))
    dist = FiniteDistribution(n, ((zs(n, 2), Fraction(1, 2)), (zs(n, 3), Fraction(1, 3)),
                                  (zs(n, 2, 3), Fraction(1, 6))))
    runs, (logged, quiet_blocks) = block_runs(monkeypatch, func, dist, 606)
    got, want, quiet = runs
    assert got == want
    assert want[0] == (True, "stage2-no-zero", 0, 0)
    assert {kind for _, _, kind in logged} == {"groups"}
    assert quiet_blocks == [(0, 1, "facts"), (1, 1, "classes")]
    assert quiet[0] == want[0] and quiet[1:3] == want[1:3]


def test_all_ones_support_draws_one_group_of_facts_after_group_0():
    # the gate's (4096, 1/2) sweep instance, whose support is all
    # 1-labelled: group 1 ends the run, so Stage 0 draws its facts alone,
    # not a block of 64 groups' (12,490 support indices drawn in all). The
    # verdict and every count are as they were
    n, eps = 4096, Fraction(1, 2)
    sub = RandomStream(101).split("mconj", n, str(eps), 0)
    f = MonotoneConj(n, frozenset(sub.sample(list(range(1, n + 1)), sub.randrange(7))))
    dist = rand_dist(sub.split("dist"), n, 16)
    assert all(f.value_at(point.zeros) for point, _ in dist.entries)
    tr = QueryTranscript()
    v = run_mconj_tester(BlackBox(f, tr), Sampler(dist, f, tr, sub.split("samples")), n,
                         eps, sub.split("tester"))
    assert (v.accepted, v.reason, v.searches, v.stage0_zero_samples) == (
        True, "stage2-no-zero", 0, 0)
    assert (tr.blackbox_count, tr.sample_count) == (129_793, 7_414_011_072)
    assert tr.samples_drawn < 12_490


# -- quiet runs on conjunction views: Stages 1-2 charged, not asked -----------


@dataclass(frozen=True)
class Opaque(FunctionSpec):
    """f, as a function BlackBox does not read as a conjunction: a run on
    it asks every Stage 1-2 probe."""

    f: FunctionSpec

    @property
    def n(self):
        return self.f.n

    def value_at(self, zeros):
        return self.f.value_at(zeros)


def shortcut_cases():
    """In-class (algo, function, distribution, seed): monotone conjunctions
    through the mconj tester, and general and flipped monotone conjunctions
    through the conj tester's flipped views."""
    cases = [("mconj", *in_class_mconj(k), 500 + k) for k in range(10)]
    for k in range(10):
        f = GeneralConj(16, frozenset({1 + k, 2 + k}), frozenset({3 + k}))
        cases.append(("conj", f, light_ones_dist(RandomStream(600 + k), f, 12, 4), 600 + k))
        f, dist = in_class_mconj(k)
        flip = frozenset(range(1 + k % 3, 17, 3))
        cases.append(("conj", Flipped(f, flip), flip_distribution(dist, flip), 700 + k))
    large = large_support_instances()[0]
    return cases + [("mconj", large[0], large[1], large[2])]


def quiet_run(algo, box, labels, dist, seed, limit=None, spent=0):
    """A run with logging off on BlackBox(box) and a sampler labelled by
    labels, whose black-box count starts at spent: (accepted, reason,
    searches), or ("budget",) when the limit runs out, then the black-box
    and sample counts."""
    tr = QueryTranscript(limit=limit, blackbox_count=spent)
    rng = RandomStream(seed)
    tester = run_mconj_tester if algo == "mconj" else run_conj_tester
    try:
        v = tester(BlackBox(box, tr), Sampler(dist, labels, tr, rng.split("samples")),
                   dist.n, 1, rng.split("tester"))
        got = (v.accepted, v.reason, v.searches)
    except BudgetExceeded:
        got = ("budget",)
    return got + (tr.blackbox_count, tr.sample_count)


def test_quiet_conjunction_runs_match_the_drawn_path(monkeypatch):
    # a quiet in-class run charges its Stage 1-2 probes in one step and
    # draws no subset; the same run on an opaque twin asks them all on the
    # same words. Verdict, reason, searches and counts agree, unbudgeted
    # and with the budget running out inside Stage 1 and inside Stage 2
    def refuse(*args):
        raise AssertionError("a quiet in-class run drew a subset")

    charges = []
    take = QueryTranscript._take

    def recorded(self, count, k, size=1, charge=True):
        if count == "blackbox_count" and charge:
            charges.append((self.blackbox_count, k))
        return take(self, count, k, size, charge)

    monkeypatch.setattr(QueryTranscript, "_take", recorded)
    limited = set()
    for algo, func, dist, seed in shortcut_cases():
        p = compute_parameters(dist.n, 1)
        charges.clear()
        with monkeypatch.context() as mp:
            mp.setattr(RandomStream, "subset_rows", refuse)
            got = quiet_run(algo, func, func, dist, seed)
        shortcut = charges[:]
        assert got == quiet_run(algo, Opaque(func), func, dist, seed), (algo, seed)
        if got[1] not in ("end-of-stage-2", "stage2-no-zero", "stage2-few-ones"):
            continue
        # every charge but the last is a representative search's, two
        # queries a level; the last is Stages 1-2's, 2s queries (0 with B0
        # empty) and Stage 2's e, which is at most d* < 2s here, so k tells
        # the two apart
        *searches, (stage0, k) = shortcut
        assert all(c % 2 == 0 and c <= 2 * ceil_log2(dist.n) for _, c in searches)
        assert p.d_star < 2 * p.s
        s, e = (p.s, k - 2 * p.s) if k >= 2 * p.s else (0, k)
        assert got[3] == stage0 + k
        rooms = [stage0 + s // 2, stage0 + s + s // 2] if s else []
        rooms += [stage0 + 2 * s + e // 2] if e >= 2 else []
        for room in rooms:
            limit = got[4]  # every sample fits
            with monkeypatch.context() as mp:
                mp.setattr(RandomStream, "subset_rows", refuse)
                capped = quiet_run(algo, func, func, dist, seed, limit, limit - room)
            assert capped == ("budget", limit, limit)
            assert capped == quiet_run(algo, Opaque(func), func, dist, seed, limit,
                                       limit - room)
            limited.add("stage 1" if room < stage0 + 2 * s else "stage 2")
    assert limited == {"stage 1", "stage 2"}


def test_a_box_that_disagrees_with_the_labels_asks_its_probes():
    # the sampler labels points by x5 alone and the box answers x5 x1: B0
    # can hold coordinate 1, so the run asks its probes, and ends where the
    # opaque twin does, at a probe that answers 0
    n = 16
    box, labels = MonotoneConj(n, frozenset({1, 5})), MonotoneConj(n, frozenset({5}))
    dist = uniform_dist(n, [(), (1,), (1, 2), (3,), (5,), (5, 6)])
    for seed in range(5):
        got = quiet_run("mconj", box, labels, dist, seed)
        assert got == quiet_run("mconj", Opaque(box), labels, dist, seed)
        assert got[1] in ("step-1.1", "step-1.2"), got


def test_a_box_that_disagrees_with_one_label_reads_every_fact(monkeypatch):
    # the box answers x6 and the sampler labels by x5, which differ on the
    # 0-labelled point (5,): every Stage-1 probe answers 1, and past group 0
    # the run still draws D0 and D1 up to the group that rejects it; on the
    # box that agrees with every label, a known run, it reads only the class
    # words, and draws nothing. The box x5 x1, which differs on the
    # 1-labelled points zero at 1, rejects in Stage 1 and draws no group
    # past group 0. On a support with a 0-labelled point, as here, group 0
    # is drawn as samples, so every read is past group 0
    n = 16
    dist = uniform_dist(n, [(), (1,), (1, 2), (3,), (5,), (5, 6)])
    labels = MonotoneConj(n, frozenset({5}))
    reads = fact_reads(monkeypatch)
    for seed in range(3):
        quiet_run("mconj", MonotoneConj(n, frozenset({1, 5})), labels, dist, seed)
    assert reads == []
    for box, known in ((MonotoneConj(n, frozenset({6})), False), (labels, True)):
        reads.clear()
        for seed in range(3):
            quiet_run("mconj", box, labels, dist, seed)
        assert any(kind == ("classes" if known else "facts") for kind, _, _ in reads), reads
        assert all((kind != "facts") == known and (drawn == 0) == known
                   for kind, _, drawn in reads), reads


def class_only_instance():
    """n = 8, f = x1, and group_size 6 with t = 3 over nine groups: 1-points
    of mass 3/5 and one 0-point, so a Stage-2 group has fewer than two
    1-samples with chance about 0.04 and no 0-sample with chance about
    0.05, and every reason but step 2.x can end the run."""
    n = 8
    f = MonotoneConj(n, frozenset({1}))
    dist = FiniteDistribution(n, ((zs(n), Fraction(3, 10)), (zs(n, 2), Fraction(3, 10)),
                                  (zs(n, 1, 3), Fraction(2, 5))))
    return f, dist, small_params(n, d_star=8, t=3, group_size=6, s=2)


def reason_fit(runs=600):
    """Pearson's two-sample test of the reasons of runs logged and quiet,
    on disjoint seeds, on class_only_instance: (statistic, critical value
    at alpha = 0.001, df, the two histograms)."""
    f, dist, params = class_only_instance()
    hists = {True: {}, False: {}}
    for log, hist in hists.items():
        for k in range(runs):
            reason = one_run(f, dist, k + (0 if log else 10 ** 6), params, frozenset(),
                             log)[1]
            hist[reason] = hist.get(reason, 0) + 1
    return (*chi_square_two_sample(hists[True], hists[False]), hists)


def test_class_only_runs_match_logged_runs_in_reasons(monkeypatch):
    # quiet runs, known ones, read only the class words past group 0 and
    # draw no D0 or D1 sample, logged runs draw every group; their reasons
    # have one law
    reads = fact_reads(monkeypatch)
    stat, critical, df, hists = reason_fit()
    print(f"class-only reasons: chi-square {stat:.2f}, critical {critical:.2f} "
          f"at alpha 0.001, {df} df; {hists}")
    assert {"stage1-few-ones", "stage2-few-ones", "stage2-no-zero",
            "end-of-stage-2"} <= hists[False].keys()
    assert {kind for kind, _, _ in reads} == {"classes", "known"}
    assert all(drawn == 0 for _, _, drawn in reads)
    assert stat < critical, (stat, critical, hists)


def test_a_class_only_mutant_fails_the_reason_fit(monkeypatch):
    # the mutant reads a group with no 0-sample as one with too few
    # 1-samples, so its quiet runs end at stage2-few-ones, not no-zero: a
    # class word a known run reads alone that counts 1 counts 0
    count, known, inside = model_module._Law.count, tester_module._known_run, []

    def full_as_few(law, rng, words):
        counts = count(law, rng, words)
        return np.where(counts == 1, 0, counts) if inside else counts

    def known_run(*args):
        inside.append(True)
        try:
            return known(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(model_module._Law, "count", full_as_few)
    monkeypatch.setattr(tester_module, "_known_run", known_run)
    stat, critical, df, hists = reason_fit()
    print(f"mutant reasons: chi-square {stat:.2f}, critical {critical:.2f} "
          f"at alpha 0.001, {df} df; {hists}")
    assert stat > critical, (stat, critical, hists)


# -- representative searches by rank --------------------------------------------


def search_run(box, x, limit=None, spent=0, log=False):
    """representative(box(transcript), x) on a transcript
    whose black-box count starts at spent: (the representative, or
    "budget" when the limit runs out, the count, the log)."""
    tr = QueryTranscript(limit=limit, blackbox_count=spent, log_queries=log)
    try:
        got = representative(box(tr), x)
    except BudgetExceeded:
        got = "budget"
    return got, tr.blackbox_count, tr.blackbox_log


def halves_asked(func, zeros):
    """The (half, answer) pairs the halving loop asks of func, in order."""
    z, asked = sorted(zeros), []
    while len(z) >= 2:
        half = (len(z) + 1) // 2
        z0, z1 = z[:half], z[half:]
        asked += [(frozenset(z0), func.value_at(frozenset(z0))),
                  (frozenset(z1), func.value_at(frozenset(z1)))]
        if asked[-2][1] == 0:
            z = z0
        elif asked[-1][1] == 0:
            z = z1
        else:
            break
    return asked


@st.composite
def conjunction_boxes(draw):
    """(n, f, flips) where BlackBox(f), flipped by each of flips in turn,
    asks a monotone conjunction (P, {}): a MonotoneConj, P = {} included; a
    GeneralConj flipped by the zeros of one of its 1-points, as the conj
    tester flips it; or that flip split in two, a view of a view."""
    n = draw(st.integers(2, 80))
    coords = st.frozensets(st.integers(1, n), max_size=8)
    kind = draw(st.sampled_from(["mconj", "conj", "view of a view"]))
    if kind == "mconj":
        return n, MonotoneConj(n, draw(coords)), []
    ones = draw(coords)
    zeros = draw(coords) - ones
    point = zeros | (draw(st.frozensets(st.integers(1, n))) - ones)
    f = GeneralConj(n, ones, zeros)
    if kind == "conj":
        return n, f, [point]
    part = draw(st.frozensets(st.integers(1, n)))
    return n, f, [part, point ^ part]


@settings(max_examples=300, deadline=None)
@given(case=conjunction_boxes(), data=st.data())
def test_the_rank_walk_is_the_search(case, data):
    # with logging off, a box that asks (P, {}) is searched by rank and asks
    # nothing; its opaque twin runs the halving loop. Both give the same
    # representative and count, and under a budget that runs out inside the
    # search, refuse it at the same query
    n, f, flips = case
    size = data.draw(st.integers(0, min(n, 70)))
    order = data.draw(st.permutations(range(1, n + 1)))
    x = ZeroSet(n, frozenset(order[:size]))

    def conj(tr):
        return reduce(BlackBox.flipped, flips, BlackBox(f, tr))

    def opaque(tr):
        return reduce(BlackBox.flipped, flips, BlackBox(Opaque(f), tr))

    assert conj(QueryTranscript())._required() is not None

    def refuse(*args):
        raise AssertionError("the rank walk asked a query")

    want = search_run(opaque, x)
    spent = data.draw(st.integers(0, 40))
    room = data.draw(st.integers(-min(spent, 1), want[1]))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(BlackBox, "query_set", refuse)
        got = search_run(conj, x)
        capped = search_run(conj, x, spent + room, spent)
    assert got == want
    assert capped == search_run(opaque, x, spent + room, spent)
    assert (capped[0] == "budget") == (want[1] > max(room, 0))


@settings(max_examples=200, deadline=None)
@given(n=st.integers(2, 80), data=st.data())
def test_logged_and_non_conjunction_searches_ask_every_half(n, data):
    # a logged run on a conjunction, and a DecisionList box with logging on
    # or off, run the halving loop: every half is asked, and logged when
    # logging is on
    coords = st.frozensets(st.integers(1, n), max_size=8)
    rules = data.draw(st.lists(st.tuples(st.integers(1, n), st.booleans(), st.integers(0, 1)),
                               max_size=6))
    dlist = DecisionList(n, tuple((i if pos else -i, bit) for i, pos, bit in rules),
                         data.draw(st.integers(0, 1)))
    order = data.draw(st.permutations(range(1, n + 1)))
    x = ZeroSet(n, frozenset(order[:data.draw(st.integers(0, min(n, 70)))]))
    for func, logs in ((MonotoneConj(n, data.draw(coords)), (True,)), (dlist, (True, False))):
        asked = halves_asked(func, x.zeros)
        for log in logs:
            got, count, blackbox_log = search_run(lambda tr: BlackBox(func, tr), x, log=log)
            assert got == ref_representative(func, x.zeros)
            assert count == len(asked)
            assert blackbox_log == (asked if log else [])


@pytest.mark.parametrize("log", [False, True])
def test_a_search_past_int64_matches_the_halving_loop(log):
    # at n = 2^70 no coordinate fits an int64, so no batch rule reads them:
    # the decision list (0 exactly when 2^69 is a zero) runs the halving
    # loop, and the monotone conjunction on {2^69} its rank walk when quiet.
    # Each representative, count and log is the reference loop's
    n = 1 << 70
    points = [ZeroSet(n, frozenset({3, 1 << 40, 1 << 69, (1 << 69) + 1, n - 1, n})),
              ZeroSet(n, frozenset({1 << 69})), ZeroSet(n, frozenset({5, 1 << 68, n}))]
    for f in (DecisionList(n, ((-(1 << 69), 0), (1, 1)), 1),
              MonotoneConj(n, frozenset({1 << 69}))):

        def run(search):
            tr = QueryTranscript(log_queries=log)
            return search(BlackBox(f, tr)), tr.blackbox_count, tr.blackbox_log

        want = run(lambda box: [reference_search(box, x.zeros) for x in points])
        assert run(lambda box: list(box.representatives(points))) == want
        assert want[0] == [1 << 69, 1 << 69, None] and want[1] == 4 + 0 + 2


@lru_cache(maxsize=None)
def batch_function(kind, seed):
    """A function with a batch rule over n = 60: a monotone conjunction, an
    LTF, a generated no or no-ltf hidden-block function, or the generated
    no function saved and decoded."""
    rng = RandomStream(seed)
    n = 60
    if kind == "mconj":
        return MonotoneConj(n, frozenset(rng.sample(range(1, n + 1), rng.randrange(4))))
    if kind == "ltf":
        weights = tuple(rng.randrange(6) - 2 for _ in range(n))
        return LinearThreshold(n, weights, sum(weights) - rng.randrange(6))
    params = LBParams(n=60, h=4, r_blocks=7, m=3, s=1, blocks_per_side=2)
    f = generate_instance(params, "no-ltf" if kind == "lb-no-ltf" else "no", rng).function
    return function_from_obj(function_to_obj(f)) if kind == "lb-no-decoded" else f


def batch_sets(f, rng, count, most):
    """count zero sets of f's coordinates, up to most zeros each, near the
    hidden structure when f has one: a share of them inside R."""
    coords = sorted(getattr(f, "R", ())) or list(range(1, f.n + 1))
    return [frozenset(rng.sample(coords if rng.randrange(2) else range(1, f.n + 1),
                                 rng.randrange(min(most, len(coords)) + 1)))
            for _ in range(count)]


# a batch that the limit stops inside, a transcript already past it, a
# nil search, and rows that repeat; counts on either side of a batch
BATCH = model_module._BATCH_ROWS


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(["mconj", "ltf", "lb-no", "lb-no-decoded", "lb-no-ltf"]),
       fseed=st.integers(0, 3), seed=st.integers(0, 2 ** 32), log=st.booleans(),
       nviews=st.integers(0, 2), searches=st.integers(0, 5) | st.integers(BATCH // 2 - 2, BATCH),
       rows=st.integers(0, 8) | st.integers(BATCH - 2, 3 * BATCH), stop=st.integers(0, 1),
       spent=st.integers(0, 3), room=st.none() | st.integers(-1, 3 * BATCH),
       labels=st.integers(1, 8) | st.integers(BATCH - 2, BATCH + 40))
def test_batched_asks_match_the_sequential_references(kind, fseed, seed, log, nviews, searches,
                                                      rows, stop, spent, room, labels):
    # representatives, answers, counts, logs and the point where the budget
    # refuses equal the halving loop's and the per-row loop's, and labels
    # value_at's, whether the box batches (quiet, unflipped, enough rows)
    # or asks one at a time
    f = batch_function(kind, fseed)
    rng = RandomStream(seed)
    points = [ZeroSet(f.n, z) for z in batch_sets(f, rng, searches, 20)]
    pool = batch_sets(f, rng, 1 + rng.randrange(20), 4)
    width = 1 + rng.randrange(4)
    batch = np.array([sorted(z)[:width] + [0] * (width - len(z))
                      for z in (pool[rng.randrange(len(pool))] for _ in range(rows))],
                     dtype=np.intp).reshape(rows, width)
    views = [frozenset(rng.sample(range(1, f.n + 1), rng.randrange(f.n))) for _ in range(nviews)]

    def run(ask):
        tr = QueryTranscript(log_queries=log, blackbox_count=spent,
                             limit=None if room is None else spent + room)
        got = []
        try:
            ask(reduce(BlackBox.flipped, views, BlackBox(f, tr)), got)
        except BudgetExceeded:
            got.append("budget")
        return got, tr.blackbox_count, tr.blackbox_log

    assert run(lambda box, got: got.extend(box.representatives(points))) == \
        run(lambda box, got: got.extend(reference_search(box, x.zeros) for x in points))
    assert run(lambda box, got: got.append(box.query_until(batch, stop))) == \
        run(lambda box, got: got.append(reference_query_until(box, batch, stop)))
    support = sorted(set(batch_sets(f, rng, labels, 20)), key=sorted)
    dist = FiniteDistribution(f.n, tuple((ZeroSet(f.n, z), Fraction(1, len(support)))
                                         for z in support))
    assert model_module._support_labels(f, dist).tolist() == [f.value_at(z) for z in support]


# -- Stage 0's block facts and its one-step charges ----------------------------


@settings(max_examples=200, deadline=None)
@given(support=st.integers(1, 200), count=st.integers(1, 6), size=st.integers(1, 700),
       ones_share=st.floats(0, 1), skew=st.integers(0, 8), full_rows=st.integers(0, 6),
       seed=st.integers(0, 2 ** 32 - 1))
def test_block_facts_match_the_literal_rule(support, count, size, ones_share, skew,
                                            full_rows, seed):
    # random label rows over supports of 1-200 points, some points light;
    # the first full_rows rows hold no 0-sample when some point is
    # 1-labelled. One need per block, from 1 to past the largest 1-count
    gen = np.random.default_rng(seed)
    labels = (gen.random(support) < ones_share).astype(np.int8)
    weights = gen.random(support) ** skew
    idx = gen.choice(support, size=(count, size), p=weights / weights.sum())
    idx = idx.astype(np.min_scalar_type(-support - 1))
    if labels.any():
        idx[:full_rows] = gen.choice(np.flatnonzero(labels), size=idx[:full_rows].shape)
    lab = np.take(labels, idx)
    need = int(1 + gen.integers(0, lab.sum(axis=1).max() + 3))
    few, first0s, masks = tester_module._block_facts(idx, lab, need, support)
    assert masks.shape == (count, support) and masks.dtype == bool
    for row, (ones_count, first0, points) in enumerate(literal_block_facts(idx, lab, need)):
        marked = np.flatnonzero(masks[row])
        assert (few[row], first0s[row]) == (ones_count < need, first0)
        assert set(marked.tolist()) == (points or set()), (row, need)


def test_the_undrawn_tail_runs_out_of_budget_where_the_reference_does():
    # logging off, a run that stops recording in group 1 charges the other
    # groups undrawn; a limit inside that tail stops it at the reference's
    # count, group by group
    n, f, dist = ones_mass_instance(Fraction(3, 10))
    p = compute_parameters(n, 1)
    for limit in (p.group_size * 40 + 5, p.stage0_samples - 1):
        counts = []
        for reference in (False, True):
            tr = QueryTranscript(limit=limit)
            rng = RandomStream(314)
            bb, sm = BlackBox(f, tr), Sampler(dist, f, tr, rng.split("samples"))
            with pytest.raises(BudgetExceeded):
                if reference:
                    reference_mconj_tester(bb, sm, p, rng.split("tester"))
                else:
                    run_mconj_tester(bb, sm, n, 1, rng.split("tester"))
            counts.append((tr.sample_count, tr.blackbox_count))
        assert counts[0] == counts[1]
        assert counts[0][0] == limit - limit % p.group_size


@pytest.mark.parametrize("algo", ["mconj", "conj"])
def test_a_transcript_past_its_limit_refuses_the_tester(algo):
    # a count already past the limit refuses the run's first call of its
    # kind, and does not move
    n, f, dist = ones_mass_instance(Fraction(3, 10))
    tester = run_mconj_tester if algo == "mconj" else run_conj_tester
    for count in ("sample_count", "blackbox_count"):
        tr = QueryTranscript(limit=3, **{count: 5})
        rng = RandomStream(314)
        with pytest.raises(BudgetExceeded):
            tester(BlackBox(f, tr), Sampler(dist, f, tr, rng.split("samples")), n, 1,
                   rng.split("tester"))
        assert getattr(tr, count) == 5


# -- Stages 1-2 on recorded facts ---------------------------------------------


@st.composite
def recorded_groups(draw):
    """(func, dist, flip, kind, log, params, groups, seed): up to six
    uniform points over n <= 6, labelled by the box of kind: a monotone
    conjunction; a conjunction, seen through views flipped by conj_flip;
    or a monotone conjunction's table with a few support points and inputs
    flipped, which is no longer monotone. Small parameters, and d* + 1
    groups of support indices."""
    kind = draw(st.sampled_from(["mconj", "conj", "non-monotone"]))
    shape = draw(st.sampled_from(["step-2.2", "step-2.1", "step-1.2", None])) \
        if kind == "non-monotone" else None
    n = draw(st.integers(3 if shape else 2, 6))
    coords = st.frozensets(st.integers(1, n), max_size=3)
    if shape:
        # a shape that reaches one step: P = {1}, the 1-points' zeros are
        # some of 2..k and the 0-points' are 1 and some past k, so every
        # search returns 1, and each group is the 1-points in turn, then a
        # 0-point. Step 1.2: the 1-points have one zero each, and every set
        # of two or more of 2..k is flipped to 0, so a subset probe of B0
        # answers 0. Step 2.1: a 1-point or two are 1 and some of 2..k,
        # flipped to 1, so a B can hold alpha = 1. Step 2.2: every set of 1
        # and one or two of 2..k is flipped to 1, so each Stage-2 probe
        # answers 1
        k = draw(st.integers(2, n - 1))
        most = 1 if shape == "step-1.2" else None
        zero_sets = draw(st.lists(st.frozensets(st.integers(2, k), min_size=1, max_size=most),
                                  min_size=2 if k > 2 else 1, max_size=4, unique=True))
        marked = draw(st.lists(st.frozensets(st.integers(2, k), min_size=1), min_size=1,
                               max_size=2, unique=True).map(lambda zs: [z | {1} for z in zs]))
        zero_sets += marked if shape == "step-2.1" else []
        one_points = len(zero_sets)
        zero_sets += draw(st.lists(st.frozensets(st.integers(k + 1, n)), min_size=1,
                                   max_size=2, unique=True).map(lambda zs: [z | {1} for z in zs]))
        flips = {"step-1.2": [frozenset(s) for j in range(2, k) for s in
                              combinations(range(2, k + 1), j)],
                 "step-2.1": marked,
                 "step-2.2": [frozenset({1, *s}) for j in (1, 2)
                              for s in combinations(range(2, k + 1), j)]}[shape]
        required = frozenset({1})
    else:
        zero_sets = draw(st.lists(st.frozensets(st.integers(1, n)), min_size=1, max_size=6,
                                  unique=True))
        # flip some support points, so that a B can meet P, and some inputs,
        # so that a probe can answer wrong
        required = draw(st.frozensets(st.integers(1, n), min_size=1, max_size=3))
        flips = draw(st.lists(st.sampled_from(zero_sets), min_size=1, max_size=2))
    dist = FiniteDistribution(n, tuple((ZeroSet(n, z), Fraction(1, len(zero_sets)))
                                       for z in zero_sets))
    flip = frozenset()
    if kind == "mconj":
        func = MonotoneConj(n, draw(coords))
    elif kind == "conj":
        ones = draw(coords)
        func = GeneralConj(n, ones, draw(coords) - ones)
        flip = conj_flip(func, dist)
    else:
        bits = table_of(MonotoneConj(n, required), n)
        for k in [ones_index(n, z) for z in flips] + ([] if shape else draw(
                st.lists(st.integers(0, (1 << n) - 1), max_size=3))):
            bits ^= 1 << k
        func = TruthTable(n, bits)
    t = draw(st.integers(2, 4))
    p = small_params(n, d_star=draw(st.integers(bool(shape), 6)), r=draw(st.integers(2, 3)), t=t,
                     s=draw(st.integers(0, 4)), group_size=draw(st.integers(t + bool(shape), 8)))
    group = st.lists(st.integers(0, len(zero_sets) - 1), min_size=p.group_size,
                     max_size=p.group_size)
    if shape:
        group = st.builds(
            lambda a, z: [(a + j) % one_points for j in range(p.group_size - 1)] + [z],
            st.integers(0, one_points - 1), st.integers(one_points, len(zero_sets) - 1))
    groups = draw(st.lists(group, min_size=p.d_star + 1, max_size=p.d_star + 1))
    return func, dist, flip, kind, draw(st.booleans()), p, groups, draw(st.integers(0, 99))


def facts_by_set_rule(groups, labels, p, reps, width):
    """The _GroupFacts of recorded groups by the set rule, in one block of
    a row per group: few, whether the group has fewer than t (past group 0,
    t - 1) 1-samples; first0, its first 0-labelled support index, or -1;
    and B's flags, the set of its first t (t - 1) 1-labelled support
    indices, none for a few group."""
    few, first0s = [], []
    masks = np.zeros((len(groups), width), dtype=bool)
    for g, group in enumerate(groups):
        ones = [i for i in group if labels[i]]
        zeros = [i for i in group if not labels[i]]
        need = p.t if g == 0 else p.t - 1
        few.append(len(ones) < need)
        if not few[-1]:
            masks[g, ones[:need]] = True
        first0s.append(zeros[0] if zeros else -1)
    return tester_module._GroupFacts(iter([(np.array(few, dtype=bool), np.array(first0s),
                                            masks)]), reps, 0)


# the examples: alpha = 3 lies in B = {1, 3} (step 2.1); alpha = 3 is
# not in B = {2}, and the probe {2, 3} answers 1 (step 2.2)
@settings(max_examples=300, deadline=None)
@given(case=recorded_groups())
@example(case=(MarkedLiteral(4, 3, frozenset({1, 3})), uniform_dist(4, [(1, 3), (3,)]),
               frozenset(), "non-monotone", True, small_params(4, d_star=1, t=2, s=0,
                                                              group_size=4),
               [[0, 0, 1, 1], [0, 0, 1, 1]], 0))
@example(case=(MarkedLiteral(4, 3, frozenset({2, 3})), uniform_dist(4, [(2,), (3,)]),
               frozenset(), "non-monotone", True, small_params(4, d_star=1, t=2, s=2,
                                                              group_size=4),
               [[0, 0, 1, 1], [0, 0, 1, 1]], 0))
def test_stages12_on_recorded_facts_match_the_reference(case):
    # the groups are cut at the first that ends the run, as Stage 0
    # records them, and every 0-sample gets its representative, as Stage 0
    # hands them on; _stages12 asks its probes on every box, a known run's
    # (which Stage 0 ends itself, _known_run) included
    func, dist, flip, kind, log, p, groups, seed = case
    labels = [func.value_at(point.zeros) for point, _ in dist.entries]
    cut = _ends_recording(p, [labels[i] for group in groups for i in group])
    groups = groups if cut is None else groups[:cut + 1]

    def twin():
        tr = QueryTranscript(log_queries=log)
        rng = RandomStream(seed)
        return (tr, BlackBox(func, tr).flipped(flip),
                Sampler(dist, func, tr, rng.split("samples")).flipped(flip),
                rng.split("tester"))

    tr, box, sampler, rng = twin()
    reps = {si: representative(BlackBox(func, QueryTranscript()).flipped(flip),
                               sampler.point(si))
            for group in groups for si in group if not labels[si]}
    assume(None not in reps.values())
    facts = facts_by_set_rule(groups, labels, p, reps, len(labels))
    got = tester_module._stages12(facts, box, sampler, p, rng)
    ref_tr, ref_box, ref_sampler, ref_rng = twin()
    want = reference_stages12(groups, reps, ref_box, ref_sampler, p, ref_rng)
    assert (got, tr.blackbox_count, tr.blackbox_log) == (
        want, ref_tr.blackbox_count, ref_tr.blackbox_log)


_STAGE12_REASONS = {"stage1-few-ones", "step-1.1", "step-1.2", "stage2-few-ones",
                    "stage2-no-zero", "step-2.1", "step-2.2", "end-of-stage-2"}


def test_recorded_groups_reach_every_reason():
    # a fixed sample of the strategy, 400 examples from a fixed seed, ends
    # at every reason of Stages 1-2 on the reference, so the properties on
    # it reach every branch of _stages12, step 2.2's probe loop included
    reasons = {}

    @settings(max_examples=400, derandomize=True, database=None, deadline=None)
    @given(case=recorded_groups())
    def tally(case):
        func, dist, flip, kind, log, p, groups, seed = case
        labels = [func.value_at(point.zeros) for point, _ in dist.entries]
        cut = _ends_recording(p, [labels[i] for group in groups for i in group])
        groups = groups if cut is None else groups[:cut + 1]
        tr, rng = QueryTranscript(), RandomStream(seed)
        box = BlackBox(func, tr).flipped(flip)
        sampler = Sampler(dist, func, tr, rng.split("samples")).flipped(flip)
        reps = {si: representative(box, sampler.point(si))
                for group in groups for si in group if not labels[si]}
        if None not in reps.values():
            reason = reference_stages12(groups, reps, box, sampler, p, rng.split("tester"))[1]
            reasons[reason] = reasons.get(reason, 0) + 1

    tally()
    print(f"reasons of the fixed sample: {reasons}")
    assert reasons.keys() == _STAGE12_REASONS, reasons


def _refuse(*args, **kwargs):
    raise AssertionError("a known run read a word")


@settings(max_examples=300, deadline=None)
@given(case=recorded_groups(), data=st.data())
def test_known_runs_on_recorded_facts_match_the_reference(case, data):
    # a known run (logging off, a conjunction box, which labels the support
    # itself) on the groups up to the first that ends the run, all drawn as
    # samples, as Stage 0 hands them on: _known_run reads no word of any
    # stream, and has the reference's reason and black-box count under a
    # limit up to that count, the count where the budget runs out included
    func, dist, flip, kind, _, p, groups, seed = case
    assume(kind != "non-monotone")
    labels = [func.value_at(point.zeros) for point, _ in dist.entries]
    cut = _ends_recording(p, [labels[i] for group in groups for i in group])
    groups = groups if cut is None else groups[:cut + 1]

    def run(stages12, limit=None):
        tr = QueryTranscript(limit=limit)
        rng = RandomStream(seed)
        box = BlackBox(func, tr).flipped(flip)
        sampler = Sampler(dist, func, tr, rng.split("samples")).flipped(flip)
        try:
            got = stages12(box, sampler, rng.split("tester"))
        except BudgetExceeded:
            got = "budget"
        return got, tr.blackbox_count

    def known(box, sampler, rng):
        assume(box._required() is not None)  # a conjunction read as monotone
        with pytest.MonkeyPatch.context() as mp:
            for name in ("split", "integers", "subset_rows", "_words"):
                mp.setattr(RandomStream, name, _refuse)
            return tester_module._known_run(box, sampler, p, list(facts.blocks), 1)

    sampler = Sampler(dist, func, QueryTranscript(), RandomStream(seed)).flipped(flip)
    reps = {si: representative(BlackBox(func, QueryTranscript()).flipped(flip),
                               sampler.point(si))
            for group in groups for si in group if not labels[si]}
    facts = facts_by_set_rule(groups, labels, p, reps, len(labels))

    def reference(box, sampler, rng):
        return reference_stages12(groups, reps, box, sampler, p, rng)

    limit = data.draw(st.one_of(st.none(), st.integers(0, run(reference)[1])), label="limit")
    assert run(known, limit) == run(reference, limit)


class _Splits(RandomStream):
    """A RandomStream that keeps every stream split from it."""

    __slots__ = ("children",)

    def __init__(self, seed, path=()):
        super().__init__(seed, path)
        self.children = []

    def split(self, *labels):
        child = super().split(*labels)
        self.children.append(child)
        return child


def facts_in_blocks(facts, cuts):
    """facts' one block of groups cut before each group in cuts, as Stage 0
    hands them on: one stream of blocks, a row per group. Also returns the
    list of the positions of the blocks the stream has yielded."""
    rows = next(facts.blocks)
    bounds = [0, *cuts, len(rows[0])]
    read = []

    def blocks():
        for k, (a, b) in enumerate(zip(bounds, bounds[1:])):
            read.append(k)
            yield tuple(column[a:b] for column in rows)

    return tester_module._GroupFacts(blocks(), facts.reps, 0), read


# the example: B = {1, 2} and alpha = 3 in every Stage-2 group, and the
# probe {2, 3} answers 1 (step 2.2), {1, 3} 0; a chunk draws every row's
# probe before it asks them, so the step stream's state tells chunks apart
@settings(max_examples=300, deadline=None)
@given(case=recorded_groups(), limit=st.one_of(st.none(), st.integers(0, 24)),
       cuts=st.sets(st.integers(1, 6)), rows=st.integers(1, 4))
@example(case=(MarkedLiteral(4, 3, frozenset({2, 3})), uniform_dist(4, [(1, 2), (3,)]),
               frozenset(), "non-monotone", True, small_params(4, d_star=6, t=2, s=0,
                                                              group_size=3),
               [[0, 0, 1]] * 7, 0), limit=None, cuts={1, 2, 3, 4, 5, 6}, rows=4)
def test_stages12_on_facts_in_blocks_match_the_one_block_call(case, limit, cuts, rows):
    # the facts of every group, the groups past the first that ends the run
    # included, cut into random blocks under a random black-box limit, with
    # Stage 2 asking its groups in chunks of 1 to 4 rows, small enough to
    # span blocks: the verdict, counts, black-box log, the count where the
    # budget runs out and the state of the step stream are those of the
    # one-block call on the groups up to that one, and no block past it is
    # read
    func, dist, flip, kind, log, p, groups, seed = case
    labels = [func.value_at(point.zeros) for point, _ in dist.entries]
    end = _ends_recording(p, [labels[i] for group in groups for i in group])
    recorded = groups if end is None else groups[:end + 1]
    cuts = sorted(c for c in cuts if c < len(groups))

    def run(kept, cut):
        tr = QueryTranscript(log_queries=log, limit=limit)
        rng = RandomStream(seed)
        box = BlackBox(func, tr).flipped(flip)
        sampler = Sampler(dist, func, tr, rng.split("samples")).flipped(flip)
        reps = {si: representative(
            BlackBox(func, QueryTranscript()).flipped(flip), sampler.point(si))
            for group in recorded for si in group if not labels[si]}
        assume(None not in reps.values())
        facts, read = cut(facts_by_set_rule(kept, labels, p, reps, len(labels)))
        tester = rng.split("tester")
        steps = _Splits(tester.seed, tester.path)
        try:
            got = tester_module._stages12(facts, box, sampler, p, steps)
        except BudgetExceeded:
            got = "budget"
        return (got, tr.blackbox_count, tr.blackbox_log,
                [child._gen.bit_generator.state for child in steps.children]), read

    saved, tester_module._SUBSET_ROWS = tester_module._SUBSET_ROWS, rows
    try:
        want, _ = run(recorded, lambda facts: (facts, []))
        got, read = run(groups, lambda facts: facts_in_blocks(facts, cuts))
    finally:
        tester_module._SUBSET_ROWS = saved
    assert got == want
    if end is not None:
        # the block that holds group end is the last that may be read
        assert all(k <= sum(c <= end for c in cuts) for k in read), (read, cuts, end)


def test_stage0_streams_one_row_per_group_as_the_log_draws_them(monkeypatch):
    # logged runs draw every group as samples, here in blocks of one to
    # three groups: the rows _stage0's stream yields, concatenated, are
    # few, first0 and B's flags of each group read from the sample log, up
    # to the group that ends the run
    n, width = 8, 5
    f = MonotoneConj(n, frozenset({1}))
    dist = uniform_dist(n, [(), (2,), (1,), (1, 3), (2, 4)])
    p = small_params(n, d_star=9, r=2, t=2, s=1, group_size=4)
    monkeypatch.setattr(tester_module, "_BLOCK_SAMPLES", 3 * (p.group_size + width))
    index = {point.zeros: i for i, (point, _) in enumerate(dist.entries)}
    sizes, ends = set(), set()
    for seed in range(30):
        tr = QueryTranscript(log_queries=True)
        box = BlackBox(f, tr)
        sampler = Sampler(dist, f, tr, RandomStream(seed).split("samples"))
        facts = tester_module._stage0(box, sampler, p)
        blocks = list(facts.blocks)
        sizes |= {len(few) for few, _, _ in blocks}
        few, first0, masks = (np.concatenate(column) for column in zip(*blocks))
        drawn = [index[zeros] for zeros, _ in tr.sample_log]
        assert len(drawn) == p.stage0_samples
        for g in range(p.d_star + 1):
            group = drawn[g * p.group_size:(g + 1) * p.group_size]
            ones = [i for i in group if sampler.labels[i]]
            zeros = [i for i in group if not sampler.labels[i]]
            need = p.t if g == 0 else p.t - 1
            want = np.zeros(width, dtype=bool)
            if len(ones) >= need:
                want[ones[:need]] = True
            assert (bool(few[g]), int(first0[g]), masks[g].tolist()) == (
                len(ones) < need, zeros[0] if zeros else -1, want.tolist()), (seed, g)
            if len(ones) < need or (g and not zeros):
                break
        ends.add(g)
    assert sizes == {1, 2, 3} and len(ends) > 3


def quick_start_run(box_tr, sampler_tr):
    """The README's library quick start (seed 7) with its box on box_tr and
    its sampler on sampler_tr: the verdict's reason, or "budget"."""
    n = 64
    f = MonotoneConj(n, frozenset({3, 17}))
    dist = FiniteDistribution(n, ((zs(n), Fraction(1, 2)), (zs(n, 5, 9), Fraction(1, 2))))
    rng = RandomStream(7)
    try:
        return run_mconj_tester(BlackBox(f, box_tr),
                                Sampler(dist, f, sampler_tr, rng.split("samples")), n,
                                Fraction(1), rng.split("tester")).reason
    except BudgetExceeded:
        return "budget"


def test_queries_land_on_the_box_and_samples_on_the_sampler():
    # the quick start is a known run on one transcript; on two, the box's
    # transcript is charged every query, and the box alone decides whether
    # the run is known: a logging box asks and logs each query, and a
    # capped one refuses the query past its limit
    shared = QueryTranscript()
    assert quick_start_run(shared, shared) == "stage2-no-zero"
    assert (shared.blackbox_count, shared.sample_count) == (1729, 560304)
    quiet, logged, capped = (QueryTranscript(), QueryTranscript(log_queries=True),
                             QueryTranscript(limit=10))
    for box_tr, want in ((quiet, "stage2-no-zero"), (logged, "stage2-no-zero"),
                         (capped, "budget")):
        samples = QueryTranscript()
        assert quick_start_run(box_tr, samples) == want
        assert (samples.blackbox_count, samples.blackbox_log) == (0, [])
        assert box_tr.sample_count == 0
    assert quiet.blackbox_count == logged.blackbox_count == 1729
    assert len(logged.blackbox_log) == logged.blackbox_count
    assert capped.blackbox_count == 10


# -- B and step 2.1 from the support's zero pairs ------------------------------


_ZERO_SETS = st.lists(st.sets(st.integers(1, 9), max_size=4), min_size=1, max_size=6)
_FLAG_ROWS = st.lists(st.lists(st.booleans(), min_size=6, max_size=6), min_size=1, max_size=5)
_REPS = st.lists(st.integers(1, 9), min_size=1, max_size=6)
_STAGE2_ROWS = st.lists(st.tuples(st.integers(0, 4), st.integers(0, 5)), max_size=12)


# the example: a point with no zeros flagged alone (an empty B), coordinate
# 2 in two points, a repeated flag row, and alpha 2 in three rows, through
# two 0-points with the same representative
@settings(max_examples=300, deadline=None)
@given(sets=_ZERO_SETS, flag_rows=_FLAG_ROWS, reps=_REPS, stage2=_STAGE2_ROWS)
@example(
    sets=[set(), {1, 2}, {2, 3}],
    flag_rows=[[1, 0, 0, 0, 0, 0], [0, 1, 1, 0, 0, 0], [1, 0, 0, 0, 0, 0]],
    reps=[2, 2, 3, 4], stage2=[(0, 0), (1, 0), (2, 1), (1, 2), (1, 3)])
def test_b_and_step_2_1_match_the_set_rule(sets, flag_rows, reps, stage2):
    # zero sets over 9 coordinates, held as the tester holds them: (point,
    # coordinate) pairs, each coordinate as its index among the distinct ones
    point = np.array([si for si, z in enumerate(sets) for _ in z], dtype=np.intp)
    zero = np.array([j for z in sets for j in z], dtype=np.intp)
    zeros = (point, *np.unique(zero, return_inverse=True))
    flags = np.array(flag_rows, dtype=bool)[:, :len(sets)]
    # the literal rule: B is the sorted union of the flagged points' zero sets
    unions = [sorted(set().union(*(sets[si] for si in np.flatnonzero(row)))) for row in flags]
    sizes, offsets, coords, bits = tester_module._b_rows(zeros, flags)
    assert sizes.tolist() == [len(b) for b in unions]
    assert [coords[o:o + k].tolist() for o, k in zip(offsets, sizes)] == unions
    assert coords.tolist() == [j for b in unions for j in b] + [0]
    # step 2.1: each Stage-2 row (its B's id, its first 0-sample) asks
    # whether the 0-sample's representative is in B, read from bits at the
    # representative's column; the set rule asks by membership. A
    # representative is a zero of its 0-sample, so one of the support's
    # zero coordinates cols: rep r stands for cols[(r - 1) % len(cols)]
    cols = zeros[1]
    if cols.size:
        rows = [(k % len(flags), x % len(reps)) for k, x in stage2]
        ids = np.array([k for k, _ in rows], dtype=int)
        alpha = cols[[(reps[x] - 1) % cols.size for _, x in rows]]
        inside = bits[ids, np.searchsorted(cols, alpha)]
        assert inside.tolist() == [a in unions[k] for (k, _), a in zip(rows, alpha.tolist())]


# -- Stage 0's facts drawn from their law --------------------------------------


def facts_instance(ones_mass):
    """n = 4, f = x1: the 1-points zs() and zs(2) share ones_mass 2:1, the
    0-points zs(1) and zs(1, 3) share the rest evenly; a point of no mass is
    left out."""
    n = 4
    rows = ((zs(n), ones_mass * Fraction(2, 3)), (zs(n, 2), ones_mass / 3),
            (zs(n, 1), (1 - ones_mass) / 2), (zs(n, 1, 3), (1 - ones_mass) / 2))
    return MonotoneConj(n, frozenset({1})), FiniteDistribution(
        n, tuple((p, w) for p, w in rows if w))


def class_law(law):
    """P[few] and P[few or no 0-sample] of a group_fact_law."""
    few = sum(p for (kind, _, _), p in law.items() if kind == "few")
    return few, few + sum(p for (kind, _, _), p in law.items() if kind == "full")


@pytest.mark.parametrize("ones_mass", [Fraction(0), Fraction(1, 3), Fraction(1, 2),
                                       Fraction(1)])
def test_class_cuts_equal_the_enumerated_law(ones_mass):
    # every group size up to 6 and every need up to it, exactly
    f, dist = facts_instance(ones_mass)
    m = dist.denominator
    ones = sum(w for p, w in dist.entries if f.value_at(p.zeros)) * m
    for size in range(1, 7):
        for need in range(1, size + 1):
            few, either, total = tester_module._class_cuts(int(ones), m, size, need).cum
            assert (Fraction(few, total), Fraction(either, total)) == class_law(
                group_fact_law(dist, f, size, need)), (size, need)


def drawn_fact_counts(sampler, size, needs, groups=20_000):
    """Per need in needs, {(class, B, first0): count} over the groups of one
    _GroupLaw per need, in turn, each drawing once; keyed as group_fact_law
    keys its outcomes."""
    counts = {}
    for need in needs:
        few, first0, masks = tester_module._GroupLaw(sampler, size, need).draw(groups)
        counts[need] = {}
        for short, zero, row in zip(few.tolist(), first0.tolist(), masks):
            if short:
                key = ("few", None, None)
            else:
                key = ("both" if zero >= 0 else "full",
                       frozenset(np.flatnonzero(row).tolist()), zero if zero >= 0 else None)
            counts[need][key] = counts[need].get(key, 0) + 1
    return counts


def facts_fits(size, needs, seed, instance=None):
    """Per need in needs, Pearson's statistic, critical value at alpha =
    0.001 and degrees of freedom of 20,000 groups drawn as their facts on
    instance (default facts_instance(1/2)), against the enumerated law."""
    f, dist = instance or facts_instance(Fraction(1, 2))
    sampler = Sampler(dist, f, QueryTranscript(), RandomStream(seed))
    fits = []
    for need, counts in drawn_fact_counts(sampler, size, needs).items():
        fits.append(chi_square_fit(counts, group_fact_law(dist, f, size, need)))
        print(f"size {size}, need {need}: chi-square {fits[-1][0]:.2f}, critical "
              f"{fits[-1][1]:.2f} at alpha 0.001, {fits[-1][2]} df")
    return fits


@pytest.mark.parametrize("size, needs, seed", [(6, (3,), 1), (6, (1,), 2), (5, (4,), 3),
                                               (6, (6,), 4), (6, (4, 6), 5)])
def test_drawn_facts_fit_the_enumerated_law(size, needs, seed):
    # U = (1/3)^need + (2/3)^need, the chance summed over the two 1-points
    # that B misses each, is 1 at need 1, so B takes one D1 draw; at need 3
    # to 6 it is at most 1/3, and B takes the union sampler, where a B that
    # misses a point misses only it (c = 1). With two needs, one law each,
    # as Stage 0 asks for group 0 and then for the others, the second law
    # draws on from where the first stopped
    for stat, critical, df in facts_fits(size, needs, seed):
        assert df >= 3 and stat < critical, (stat, critical)


def test_drawn_facts_mutants_fail_the_same_fit(monkeypatch):
    # the first 0-sample drawn from D, not D0
    conditioned = Sampler._conditioned

    def zeros_from_d(self, label):
        return conditioned(self, 1) if label else (self.dist._law, np.arange(self.support_size))

    with monkeypatch.context() as patch:
        patch.setattr(Sampler, "_conditioned", zeros_from_d)
        (stat, critical, _), = facts_fits(6, (3,), 1)
        assert stat > critical
    # B taken over need + 1 draws, under the class law of need
    cuts = tester_module._class_cuts
    monkeypatch.setattr(tester_module, "_class_cuts",
                        lambda ones, m, size, need: cuts(ones, m, size, need - 1))
    f, dist = facts_instance(Fraction(1, 2))
    sampler = Sampler(dist, f, QueryTranscript(), RandomStream(1))
    stat, critical, _ = chi_square_fit(drawn_fact_counts(sampler, 6, (4,))[4],
                                       group_fact_law(dist, f, 6, 3))
    assert stat > critical


def three_ones_instance():
    """n = 4, f = x1, four points of weight 1/4: the 1-points zs(), zs(2)
    and zs(3), and the 0-point zs(1). B can miss two of the three 1-points,
    so a group whose B misses one point keeps what it saw only with chance
    1/c, c the points it missed."""
    n = 4
    return MonotoneConj(n, frozenset({1})), FiniteDistribution(
        n, tuple((p, Fraction(1, 4)) for p in (zs(n), zs(n, 2), zs(n, 3), zs(n, 1))))


@pytest.mark.parametrize("size, needs, seed", [(8, (6, 5), 6), (7, (7,), 7)])
def test_drawn_facts_with_three_ones_fit_the_enumerated_law(size, needs, seed):
    # D1 is even over three points, so U = 3 (2/3)^need is at most 1/2 for
    # need 5 to 7 and every call takes the union sampler, up to the draw
    # below c
    for stat, critical, df in facts_fits(size, needs, seed, three_ones_instance()):
        assert df >= 3 and stat < critical, (stat, critical)


class _KeepingGen:
    """Stands in for numpy's generator as a mutant that keeps every seen
    set: a draw against an array of bounds, which on this path only the
    draw below c makes, gives 0; every other draw is the generator's."""

    def __init__(self, gen):
        self.gen = gen

    def integers(self, low, high, size=None, dtype=np.int64):
        if isinstance(high, np.ndarray):
            return np.zeros(high.shape, dtype=dtype)
        return self.gen.integers(low, high, size=size, dtype=dtype)


def test_skipping_the_draw_below_c_fails_the_same_fit():
    f, dist = three_ones_instance()
    sampler = Sampler(dist, f, QueryTranscript(), RandomStream(6))
    sampler._batch._gen = _KeepingGen(sampler._batch._gen)
    stat, critical, _ = chi_square_fit(drawn_fact_counts(sampler, 8, (6,))[6],
                                       group_fact_law(dist, f, 8, 6))
    assert stat > critical


class _WordsThenPCG:
    """Stands in for numpy's generator: full-range uint64 draws are read
    from a fixed list, every other draw comes from a PCG64 generator."""

    def __init__(self, words):
        self.words = list(words)
        self.used = 0
        self.gen = np.random.default_rng(0)

    def integers(self, low, high, size=None, dtype=np.int64):
        if (high, dtype) != (1 << 64, np.uint64):
            return self.gen.integers(low, high, size=size, dtype=dtype)
        out = np.array(self.words[self.used:self.used + size], dtype=np.uint64)
        assert len(out) == size, "ran out of words"
        self.used += size
        return out


@pytest.mark.parametrize("ones_mass", [Fraction(1, 2), Fraction(2, 3)])
def test_class_word_ties_resolve_exactly(ones_mass):
    # V's words sit at, and one unit either side of, the first three words
    # of each cut's expansion, so most first words tie. The class of each
    # group is the number of cuts at or below V's prefix as read, and the
    # prefix is the shortest that no cut falls strictly inside. With 1-mass
    # 1/2 the cuts end within their first word (denominator 4^6, a tie is
    # settled by that word alone); with 2/3 (denominator 3^6) they never end.
    # The 1-points hold ones_mass evenly, the one 0-point the rest.
    n, size, need = 4, 6, 3
    f = MonotoneConj(n, frozenset({1}))
    half = ones_mass / 2
    dist = FiniteDistribution(n, ((zs(n), half), (zs(n, 2), half),
                                  (zs(n, 1), 1 - ones_mass)))
    m = dist.denominator
    few, either, total = tester_module._class_cuts(int(ones_mass * m), m, size, need).cum
    mask = (1 << 64) - 1
    prefixes = []
    for cut in (few, either):
        digits = [((cut << (64 * k)) // total) & mask for k in (1, 2, 3)]
        for k in range(3):
            for step in (-1, 0, 1):
                if 0 <= digits[k] + step <= mask:
                    prefixes.append(digits[:k] + [digits[k] + step])

    def settled(prefix):
        # (class, whether no cut falls strictly inside V's interval)
        value = 0
        for word in prefix:
            value = value << 64 | word
        low = Fraction(value, 1 << 64 * len(prefix))
        high = low + Fraction(1, 1 << 64 * len(prefix))
        cuts = [Fraction(c, total) for c in (few, either)]
        return (sum(c <= low for c in cuts), all(c <= low or c >= high for c in cuts))

    # cut each prefix to the part the lazy comparison reads, and drop the
    # ones that settle no cut
    prefixes = [q for q in (next((p[:k] for k in range(1, len(p) + 1)
                                  if settled(p[:k])[1]), None) for p in prefixes)
                if q is not None]
    # Every group with B then reads one word for the point B misses. The
    # 1-points are even in D1, so with need 3 the missing cuts are 1/8 and
    # 1/4, each ending within its first word: a word below the first cut's
    # misses point 0, one below the second's misses point 1, and the rest
    # give B both. With two points c is 1, so no draw decides whether the
    # seen set is kept. The words cycle through one unit below each cut,
    # each cut itself (a tie) and the last word.
    edges = [1 << 61, 1 << 62]
    assert tester_module._missing_cuts((1, 2), need).tops.tolist() == edges
    cycle = [edges[0] - 1, edges[0], edges[1] - 1, edges[1], (1 << 64) - 1]
    with_b = sum(settled(p)[0] > 0 for p in prefixes)
    missing = [cycle[k % len(cycle)] for k in range(with_b)]
    # a tied class word reads on from the batch stream's tie stream
    words, ties = [p[0] for p in prefixes] + missing, [w for p in prefixes for w in p[1:]]
    sampler = Sampler(dist, f, QueryTranscript(), RandomStream(0))
    sampler._batch._gen, sampler._batch._ties._gen = _WordsThenPCG(words), _WordsThenPCG(ties)
    short, first0, masks = tester_module._GroupLaw(sampler, size, need).draw(
        len(prefixes))
    got = np.where(short, 0, np.where(first0 < 0, 1, 2)).tolist()
    assert got == [settled(p)[0] for p in prefixes]
    assert (sampler._batch._gen.used, sampler._batch._ties._gen.used) == (len(words), len(ties))
    assert any(len(p) > 1 for p in prefixes) == (ones_mass == Fraction(2, 3))
    assert with_b >= len(cycle)
    assert [set(np.flatnonzero(row).tolist()) for row in masks[~short]] == [
        {1} if w < edges[0] else {0} if w < edges[1] else {0, 1} for w in missing]


def test_missing_word_ties_resolve_exactly():
    # Three even 1-points and need 6: the missing cuts are k (2/3)^6 for
    # k = 1, 2, 3, whose expansions never end. V's first word is each
    # cut's first word, a tie, and its second one unit either side of the
    # cut's second word; J is the number of cuts at or below V.
    cuts = [Fraction(64 * k, 729) for k in (1, 2, 3)]
    missing = tester_module._missing_cuts((1, 2, 3), 6)
    assert missing.tops.tolist() == [c.numerator * 2 ** 64 // c.denominator for c in cuts]
    mask = (1 << 64) - 1
    prefixes = []
    for cut in cuts:
        first, second = (cut.numerator * 2 ** (64 * k) // cut.denominator for k in (1, 2))
        prefixes += [(first, (second & mask) + step) for step in (-1, 1)]
    rng = RandomStream(0)
    rng._gen, rng._ties._gen = (_WordsThenPCG([p[k] for p in prefixes]) for k in (0, 1))
    picks = missing.count(rng, rng._words(len(prefixes)))
    assert picks.tolist() == [sum(c <= Fraction(a << 64 | b, 1 << 128) for c in cuts)
                              for a, b in prefixes] == [0, 1, 1, 2, 2, 3]
    assert rng._gen.used == rng._ties._gen.used == len(prefixes)


def seeded_support(seed, ones, zeros, n=10):
    """f = x1 x2 and a support of ones 1-points and zeros 0-points, each
    zero at up to three random coordinates, with random weights."""
    rng = RandomStream(seed)
    f = MonotoneConj(n, frozenset({1, 2}))
    points = ([], [])
    while len(points[0]) < zeros or len(points[1]) < ones:
        z = ZeroSet(n, frozenset(rng.sample(list(range(1, n + 1)), rng.randrange(4))))
        label = f.value_at(z.zeros)
        if z not in points[0] + points[1] and len(points[label]) < (zeros, ones)[label]:
            points[label].append(z)
    pts = points[1] + points[0]
    return f, FiniteDistribution(n, tuple(zip(pts, rand_fractions(rng, len(pts)))))


@pytest.mark.parametrize("ones, zeros, size, t, seed, small_u, digest", [
    (3, 2, 40, 16, 1, True, "2e59bc227b12e480"),
    (4, 2, 12, 3, 2, False, "97b0209ea2edf675"),
    (4, 0, 12, 5, 3, None, "9fc999d51e3d958e"),  # no 0-labelled point
    (0, 3, 12, 5, 4, None, "9d1298ea2d001116"),  # no 1-labelled point
])
def test_drawn_facts_word_layout_is_pinned(ones, zeros, size, t, seed, small_u, digest):
    # Stage 0's facts at need t and then t - 1, one law each, as Stage 0
    # asks for them, and the batch stream's state after each call: a change
    # in which words a group reads, or in their order, moves the digest
    # even where no verdict moves. small_u: whether U <= 1/2 at both
    # needs, so that B takes the union sampler, not the D1 rounds
    f, dist = seeded_support(seed, ones, zeros)
    d1 = [w for p, w in dist.entries if f.value_at(p.zeros)]
    if small_u is not None:
        for need in (t, t - 1):
            u = sum((1 - w / sum(d1)) ** need for w in d1)
            assert (u <= Fraction(1, 2)) == small_u, u
    sampler = Sampler(dist, f, QueryTranscript(), RandomStream(seed))
    sha = hashlib.sha256()
    for need in (t, t - 1):
        few, first0, masks = tester_module._GroupLaw(sampler, size, need).draw(300)
        for part in (few, np.asarray(first0, dtype=np.int64), masks):
            sha.update(part.tobytes())
        sha.update(repr(sampler._batch._gen.bit_generator.state).encode())
    assert sha.hexdigest()[:16] == digest


# -- Stage 0's cuts read through brackets ---------------------------------------


def exact_missing_cuts(cum, need):
    """_missing_cuts' cuts as exact integers, U's comparison with 1/2 included."""
    m1 = cum[-1]
    cuts = tuple(accumulate((m1 - (b - a)) ** need for a, b in zip((0,) + cum[:-1], cum)))
    return None if 2 * cuts[-1] > m1 ** need else cuts + (m1 ** need,)


def bracket_words(data, tops):
    """Random words, and each exact top with its two neighbours."""
    mask = (1 << 64) - 1
    words = data.draw(st.lists(st.integers(0, mask), max_size=4))
    words += [w for top in tops for w in (top - 1, top, top + 1) if 0 <= w <= mask]
    return np.array(data.draw(st.permutations(words)), dtype=np.uint64)


def check_brackets(law, cum, words, seed):
    """law, read through brackets, against the exact _Law of cum: the
    brackets hold the exact tops, the counts and the tie-stream words read
    are the same, and law built its exact cuts exactly when a word lies
    inside a bracket."""
    exact = model_module._Law(cum)
    lo, hi = law._brackets
    assert len(lo) == len(hi) == len(exact.tops)
    assert (lo <= exact.tops).all() and (exact.tops <= hi).all()
    inside = bool(((lo[:, None] <= words) & (words <= hi[:, None])).any())
    got, want = RandomStream(seed), RandomStream(seed)
    assert law.count(got, words).tolist() == exact.count(want, words).tolist()
    assert repr(got._ties._gen.bit_generator.state) == repr(want._ties._gen.bit_generator.state)
    assert ("cum" in vars(law)) == inside
    if inside:
        assert law.cum == cum


_DENOMINATORS = st.one_of(st.integers(2, 1 << 20), st.integers(1 << 62, 1 << 70))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), m=_DENOMINATORS, size=st.integers(1, 200), seed=st.integers(0, 99),
       hoeffding=st.booleans())
def test_class_cut_brackets_count_as_the_exact_cuts(data, m, size, seed, hoeffding):
    # hoeffding: bound few by Hoeffding's inequality, as past _MAX_TERMS terms
    ones = data.draw(st.one_of(st.integers(0, m), st.sampled_from([0, 1, m - 1, m])))
    need = data.draw(st.integers(0, size))
    saved = tester_module._MAX_TERMS
    tester_module._MAX_TERMS = 0 if hoeffding else saved
    try:
        law = tester_module._class_cuts(ones, m, size, need)
    finally:
        tester_module._MAX_TERMS = saved
    assert "cum" not in vars(law)
    cum = tester_module._class_cuts(ones, m, size, need).cum
    exact_top = model_module._Law(cum).tops.tolist()
    check_brackets(law, cum, bracket_words(data, exact_top), seed)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), m1=_DENOMINATORS, points=st.integers(1, 6), need=st.integers(0, 300),
       seed=st.integers(0, 99))
def test_missing_cut_brackets_count_as_the_exact_cuts(data, m1, points, need, seed):
    inner = sorted(data.draw(st.sets(st.integers(1, m1 - 1), max_size=min(points, m1) - 1)))
    cum = tuple(inner) + (m1,)
    law, want = tester_module._missing_cuts(cum, need), exact_missing_cuts(cum, need)
    assert (law is None) == (want is None)
    if law is None or law._brackets is None:
        return  # U > 1/2, or U's bracket held 1/2 and the law is exact
    assert "cum" not in vars(law)
    check_brackets(law, want, bracket_words(data, model_module._Law(want).tops.tolist()), seed)


@pytest.mark.parametrize("ones, m, size, need", [
    (1, 3, 200, 5), (2, 3, 200, 199), (1, 2, 150, 75), (1, 2, 150, 76), (5, 7, 1, 1)])
def test_hoeffding_brackets_hold_the_exact_cuts_on_either_side(ones, m, size, need):
    # size p above need - 1 bounds P[X < need] from above, and size p at
    # most need - 1 (the mean 75 with need 76 included) from below; the
    # class law read through those bounds, as past _MAX_TERMS terms, holds
    # the exact tops and counts words at and beside them as the exact cuts do
    low, high = tester_module._hoeffding(ones, m, size, need)
    assert (low == 0.0, high == 1.0) == ((True, False) if size * ones > (need - 1) * m
                                         else (False, True))
    saved, tester_module._MAX_TERMS = tester_module._MAX_TERMS, 0
    try:
        law = tester_module._class_cuts(ones, m, size, need)
    finally:
        tester_module._MAX_TERMS = saved
    cum = tester_module._class_cuts(ones, m, size, need).cum
    tops = model_module._Law(cum).tops.tolist()
    words = sorted({w for top in tops for w in (top - 1, top, top + 1) if 0 <= w < 1 << 64})
    check_brackets(law, cum, np.array(words + [0, (1 << 64) - 1], dtype=np.uint64), 0)


def test_hoeffding_past_a_floats_range_puts_the_exact_top_word_at_an_end():
    # size = 2^1100 draws of chance 1/2: -2 gap^2 / (m^2 size) is past a
    # float's range, so the tail is 0. The exact cuts are too large to
    # build, but P[X < 1] and P[X >= size] are 2^-size, so the exact top
    # word of few is 0 for need 1 and 2^64 - 1 for need = size, and the
    # bracket holds it; for need = size the class law has that one cut, whose
    # low side 1 - 0 is widened by the margin, as every bound is
    m, size = 2, 1 << 1100
    assert tester_module._hoeffding(1, m, size, 1) == (0.0, 0.0)
    assert tester_module._hoeffding(1, m, size, size) == (1 - tester_module._MARGIN, 1.0)
    law = tester_module._class_cuts(1, m, size, size)
    lo, hi = law._brackets
    assert lo.tolist() == [(1 << 64) - (1 << 34)] and hi.tolist() == [(1 << 64) - 1]
    # a word below the bracket counts 0, too few 1-samples, with no exact cut built
    assert law.count(RandomStream(0), np.array([0, 1, (1 << 63) - 1], dtype=np.uint64)
                     ).tolist() == [0, 0, 0]
    assert "cum" not in vars(law)


def test_a_hoeffding_low_side_that_rounds_to_one_keeps_the_bracket_narrow():
    # need past _MAX_TERMS with few almost sure: P[X < need] is within 2^-54
    # of 1, so 1 - tail rounds to 1.0 in floats. Widened by the margin, the
    # bracket of both cuts is [2^64 - 2^34, 2^64 - 1], and a word in the
    # upper half of all words (here 2^63 + 5) counts 0 from the brackets
    # alone, with no exact cut built
    law = tester_module._class_cuts(1, 10, 786435, 262145)
    lo, hi = law._brackets
    assert lo.tolist() == [(1 << 64) - (1 << 34)] * 2
    assert hi.tolist() == [(1 << 64) - 1] * 2
    words = np.array([1 << 63, (1 << 63) + 5, (1 << 64) - (1 << 34) - 1], dtype=np.uint64)
    assert law.count(RandomStream(0), words).tolist() == [0, 0, 0]
    assert "cum" not in vars(law)


@pytest.mark.parametrize("cum, need, under", [
    ((1, 2), 2, True), (((1 << 40) - 232354146752, 1 << 40), 3, True),
    (((1 << 39) - 1, 1 << 40), 2, False)])
def test_missing_cuts_decide_u_exactly_when_its_bracket_holds_one_half(monkeypatch, cum,
                                                                      need, under):
    # U is 1/2 exactly for two points of chance 1/2 at need 2, 1/2 - 1.3e-12
    # for two points at need 3, and 1/2 + 2^-79 for two points of chance
    # 1/2 -+ 2^-40 at need 2: each lies within U's bracket of 1/2, so
    # _missing_cuts builds the exact cuts, one _Law of them, and decides U
    # against 1/2 from them
    built, law_class = [], model_module._Law

    def recorded(*args, **kwargs):
        if args:
            built.append(args[0])
        return law_class(*args, **kwargs)

    m1 = cum[-1]
    cuts = tuple(accumulate((m1 - (b - a)) ** need for a, b in zip((0,) + cum[:-1], cum)))
    cuts += (m1 ** need,)
    assert (2 * cuts[-2] <= cuts[-1]) == under
    monkeypatch.setattr(tester_module, "_Law", recorded)
    law = tester_module._missing_cuts(cum, need)
    assert built == [cuts]
    assert (law is not None) == under == (exact_missing_cuts(cum, need) is not None)
    if under:
        assert law.cum == cuts and law._brackets is None


def test_cuts_past_the_exact_bits_are_refused_only_inside_a_bracket():
    # n = 10^17, epsilon = 1, all-ones support: group 0's class law and
    # missing law hold cuts of 0, each bracket [0, 0]; word 0 lies inside it
    # and its exact cuts would take billions of bits
    p = compute_parameters(10 ** 17, 1)
    law = tester_module._class_cuts(4, 4, p.group_size, p.t)
    missing = tester_module._missing_cuts((1, 4), p.t)
    for cuts in (law, missing):
        words = np.array([1, 1 << 63, (1 << 64) - 1], dtype=np.uint64)
        assert cuts.count(RandomStream(0), words).tolist() == [len(cuts._brackets[0])] * 3
        with pytest.raises(MemoryError, match="bits"):
            cuts.count(RandomStream(0), np.zeros(1, dtype=np.uint64))


# -- a known run reads its class words in one block ----------------------------


def reference_conj_tester(oracle, sampler, p, rng):
    """test_general_conjunction's search for x*, then reference_mconj_tester
    on the views flipped at ZERO(x*)."""
    for _ in range(-(-3 // p.epsilon)):
        x, label = sampler.draw()
        if label == 1:
            return reference_mconj_tester(oracle.flipped(x.zeros), sampler.flipped(x.zeros),
                                          p, rng)
    return True, "conj-no-positive", 0, 0


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 10 ** 6), conj=st.booleans(), ones=st.integers(60, 90),
       budget=st.one_of(st.none(), st.integers(2, 448)), small=st.booleans())
@example(seed=331, conj=True, ones=60, budget=None, small=False)  # conj-no-positive
def test_class_words_come_in_one_block_per_max_facts_groups(seed, conj, ones, budget, small):
    # An in-class quiet run at n = 64, epsilon = 1 (1,297 groups of 432): the
    # all-ones point and a second 1-point hold ones/100 of the mass, two
    # 0-points the rest. budget: the groups the sample budget admits, fewer
    # than the run's, so it refuses a group of Stage 0.
    # small: blocks of facts capped at 100 groups, not 2^18 / (2 width).
    # The run matches the reference run in verdict, counts and logs; its
    # searches are the reference's; and past group 0 it reads only class
    # words, one block per max_facts groups, and draws no D0 or D1 sample
    n = 64
    p = compute_parameters(n, 1)
    rng = RandomStream(seed)
    f = GeneralConj(n, frozenset({1}), frozenset({2})) if conj else MonotoneConj(n, frozenset({1}))
    base = frozenset({2}) if conj else frozenset()
    points = (zs(n, *base), zs(n, *(base | {3 + rng.randrange(60)})),
              zs(n, *(base | {1})), zs(n, *(base | {1, 5 + rng.randrange(59)})))
    weights = (Fraction(ones, 200), Fraction(ones, 200), Fraction(100 - ones, 200),
               Fraction(100 - ones, 200))
    dist = FiniteDistribution(n, tuple(zip(points, weights)))
    limit = None if budget is None else p.group_size * budget + rng.randrange(p.group_size)
    saved = tester_module._BLOCK_SAMPLES
    runs = []
    with pytest.MonkeyPatch.context() as mp:
        reads = fact_reads(mp)
        mp.setattr(tester_module, "_BLOCK_SAMPLES", 2 * len(points) * 100 if small else saved)
        for reference in (True, False):
            tr = QueryTranscript(limit=limit)
            sub = RandomStream(seed)
            bb, sm = BlackBox(f, tr), Sampler(dist, f, tr, sub.split("samples"))
            try:
                if reference:
                    got = (reference_conj_tester if conj else reference_mconj_tester)(
                        bb, sm, p, sub.split("tester"))
                else:
                    v = (run_conj_tester if conj else run_mconj_tester)(bb, sm, n, 1,
                                                                      sub.split("tester"))
                    got = (v.accepted, v.reason, v.stage0_zero_samples, v.searches)
            except BudgetExceeded:
                got = ("budget",)
            runs.append((got[:2] + got[3:], tr.blackbox_count, tr.sample_count,
                         tr.blackbox_log, tr.sample_log))
    want, got = runs
    assert got == want
    assert want[0][0] is not False
    max_facts = max(1, tester_module._BLOCK_SAMPLES // (2 * len(points))) if not small else 100
    counts = [count for kind, count, _ in reads if kind == "classes"]
    assert all(kind != "facts" and drawn == 0 for kind, _, drawn in reads)
    if budget is not None or want[0][1] in ("conj-no-positive", "stage1-few-ones"):
        # no class word is read: the run ends before Stage 0 or at group 0,
        # or the budget refuses a Stage-0 group, which the charge of every
        # group left finds first
        assert not counts
        return
    assert counts and all(c == max_facts for c in counts[:-1]) and counts[-1] <= max_facts


def test_compute_parameters_is_memoized_after_the_epsilon_check():
    # equal inputs, in any form epsilon takes, share one TesterParams; what
    # _epsilon refuses is refused as before, and nothing is cached for it
    p = compute_parameters(512, Fraction(1, 2))
    assert compute_parameters(512, Fraction(1, 2)) is p
    assert compute_parameters(512, 0.5) is p and compute_parameters(512, "1/2") is p
    assert compute_parameters(512, 1) is not p
    for bad, error, match in ((1.5, ValueError, r"epsilon must be in \(0, 1\]"),
                              (float("nan"), ValueError, "NaN"),
                              ("half", ValueError, "Invalid literal"),
                              (0, ValueError, r"epsilon must be in \(0, 1\]"),
                              (Fraction(3, 2), ValueError, r"epsilon must be in \(0, 1\]")):
        for _ in range(2):
            with pytest.raises(error, match=match):
                compute_parameters(512, bad)
    with pytest.raises(ValueError, match="n must be at least 2"):
        compute_parameters(1, 1)


# generates a yes and a no instance, runs a quiet mconj and a conj trial on
# each and the violation pipeline on the no instance, through the CLI, then
# prints whether numpy.ma was ever imported
_NO_MASKED_ARRAYS = """
import contextlib, io, os, sys, tempfile
from subcube.cli import main
d = tempfile.mkdtemp()
with contextlib.redirect_stdout(io.StringIO()):
    for variant in ("yes", "no"):
        path = os.path.join(d, variant + ".json")
        assert main(["gen-instance", "--variant", variant, "--n", "60", "--scaled",
                     "h=4,r_blocks=7,m=3,s=1,bps=2", "--seed", "5", "--out", path]) == 0
        for algo in ("mconj", "conj"):
            assert main(["test", "--instance", path, "--algo", algo, "--epsilon", "1",
                         "--seed", "0"]) == 0
    assert main(["violation", "--instance", path, "--epsilon", "1",
                 "--emit", "prune-report"]) == 0
print("numpy.ma" in sys.modules)
"""


def test_trials_and_violation_pipeline_never_import_numpy_ma():
    # numpy imports numpy.ma on the first plain np.unique(x) in a process,
    # about 9-14 ms and 1.5-1.7 MB; the tester's np.unique calls all pass
    # return_index or return_inverse, which do not
    src = os.path.dirname(os.path.dirname(subcube.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", _NO_MASKED_ARRAYS], capture_output=True,
                          text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
