"""Three-stage tester: parameters, representative search, verdict paths."""

from dataclasses import dataclass
from fractions import Fraction
import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from subcube import (
    BlackBox,
    BudgetExceeded,
    FiniteDistribution,
    Flipped,
    FunctionSpec,
    GeneralConj,
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
import subcube.tester as tester_module
from subcube.tester import (
    binary_search_representative,
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
    assert binary_search_representative(bb, zs(6)) is None
    assert binary_search_representative(bb, zs(6, 4)) == 4
    assert tr.blackbox_count == 0  # neither case queries


def test_representative_matches_reference_on_random_tables():
    rng = RandomStream(200)
    for trial in range(300):
        n = 2 + rng.randrange(7)
        f = TruthTable(n, rng.randrange(1 << (1 << n)))
        size = 1 + rng.randrange(n)
        zeros = frozenset(rng.sample(list(range(1, n + 1)), size))
        tr = QueryTranscript()
        got = binary_search_representative(BlackBox(f, tr), ZeroSet(n, zeros))
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
        got = binary_search_representative(BlackBox(f, QueryTranscript()),
                                           ZeroSet(n, zeros))
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
    assert binary_search_representative(BlackBox(f, tr), zs(4, 1, 2)) is None
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
    n = 16  # ceil(2 * sqrt(16) * log2(16) / epsilon)
    f = MonotoneConj(n, frozenset())
    dist = uniform_dist(n, [(), (2,)])
    for epsilon, count in ((1, 32), (Fraction(1, 2), 64)):
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


def block_runs(monkeypatch, func, dist, seed, limit=None):
    """The tester with logging on, reference_mconj_tester, and the tester
    with logging off, on twin oracles capped at limit. Per run: (outcome,
    black-box count, sample count, black-box log, sample log), where the
    outcome is (accepted, reason, Stage-0 0-samples, searches), or
    ("budget",) when the limit ran out; and per tester run, the (first
    group, group count, kind) of every block it drew, kind "groups" for a
    block of groups and "facts" for a block of their facts alone."""
    draw, facts = Sampler._draw_groups, tester_module._drawn_facts
    blocks = []

    def record(count, kind):
        blocks[-1].append((sum(c for _, c, _ in blocks[-1]), count, kind))

    def recorded(self, count, size):
        record(count, "groups")
        return draw(self, count, size)

    def recorded_facts(sampler, count, size, need, law):
        record(count, "facts")
        return facts(sampler, count, size, need, law)

    monkeypatch.setattr(Sampler, "_draw_groups", recorded)
    monkeypatch.setattr(tester_module, "_drawn_facts", recorded_facts)
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
    # ends, the one 0-point was searched in group 0, so the quiet run draws
    # the later groups as their facts, and ends where they end it; it has
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
        assert {kind for _, _, kind in quiet_blocks[1:]} == {"facts"}
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
    # with logging off and no 0-labelled support point, Stage 0 draws every
    # group as its facts from group 0 on: group 0, whose B takes t
    # 1-samples, in a block of its own, then group 1, which has no 0-sample
    # and ends the run, in a block of one. The logged run draws groups and
    # matches the reference log for log
    n = 8
    func = MonotoneConj(n, frozenset({1}))
    dist = FiniteDistribution(n, ((zs(n, 2), Fraction(1, 2)), (zs(n, 3), Fraction(1, 3)),
                                  (zs(n, 2, 3), Fraction(1, 6))))
    runs, (logged, quiet_blocks) = block_runs(monkeypatch, func, dist, 606)
    got, want, quiet = runs
    assert got == want
    assert want[0] == (True, "stage2-no-zero", 0, 0)
    assert {kind for _, _, kind in logged} == {"groups"}
    assert quiet_blocks == [(0, 1, "facts"), (1, 1, "facts")]
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
        # one charge, 2s queries (0 with B0 empty) and Stage 2's e, which
        # is at most d* < 2s here, so k tells the two apart
        ((stage0, k),) = shortcut
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
    sizes, offsets, coords = tester_module._b_rows(zeros, flags)
    assert sizes.tolist() == [len(b) for b in unions]
    assert [coords[o:o + k].tolist() for o, k in zip(offsets, sizes)] == unions
    assert coords.tolist() == [j for b in unions for j in b] + [0]
    # step 2.1: each Stage-2 row (its B's id, its first 0-sample) asks
    # whether the 0-sample's representative is in B, by set membership
    rows = [(k % len(flags), x % len(reps)) for k, x in stage2]
    ids = np.array([k for k, _ in rows], dtype=int)
    first0 = np.array([x for _, x in rows], dtype=int)
    rep_of = np.array(reps, dtype=np.intp)
    inside = tester_module._alpha_in_b(point, zero, flags, ids, rep_of, first0)
    assert inside.tolist() == [reps[x] in unions[k] for k, x in rows]


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
            few, either, total = tester_module._class_cuts(int(ones), m, size, need)
            assert (Fraction(few, total), Fraction(either, total)) == class_law(
                group_fact_law(dist, f, size, need)), (size, need)


def drawn_fact_counts(sampler, size, needs, groups=20_000):
    """Per need in needs, {(class, B, first0): count} over the groups of one
    _drawn_facts call per need, in turn, on one law memo; keyed as
    group_fact_law keys its outcomes."""
    counts = {}
    law = {}
    for need in needs:
        few, first0, masks = tester_module._drawn_facts(sampler, groups, size, need, law)
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
    # misses a point misses only it (c = 1). With two needs, one call each,
    # as Stage 0 asks for group 0 and then for the others, the second call
    # reads the first's memoized law
    for stat, critical, df in facts_fits(size, needs, seed):
        assert df >= 3 and stat < critical, (stat, critical)


def test_drawn_facts_mutants_fail_the_same_fit(monkeypatch):
    # the first 0-sample drawn from D, not D0
    conditioned = Sampler._conditioned

    def zeros_from_d(self, label):
        return conditioned(self, 1) if label else (self, np.arange(self.support_size))

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
    few, either, total = tester_module._class_cuts(int(ones_mass * m), m, size, need)
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
    assert tester_module._missing_cuts((1, 2), need)[0].tolist() == edges
    cycle = [edges[0] - 1, edges[0], edges[1] - 1, edges[1], (1 << 64) - 1]
    with_b = sum(settled(p)[0] > 0 for p in prefixes)
    missing = [cycle[k % len(cycle)] for k in range(with_b)]
    # a tied class word reads on from the batch stream's tie stream
    words, ties = [p[0] for p in prefixes] + missing, [w for p in prefixes for w in p[1:]]
    sampler = Sampler(dist, f, QueryTranscript(), RandomStream(0))
    sampler._batch._gen, sampler._batch._ties._gen = _WordsThenPCG(words), _WordsThenPCG(ties)
    short, first0, masks = tester_module._drawn_facts(sampler, len(prefixes), size, need, {})
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
    assert missing[0].tolist() == [c.numerator * 2 ** 64 // c.denominator for c in cuts]
    mask = (1 << 64) - 1
    prefixes = []
    for cut in cuts:
        first, second = (cut.numerator * 2 ** (64 * k) // cut.denominator for k in (1, 2))
        prefixes += [(first, (second & mask) + step) for step in (-1, 1)]
    rng = RandomStream(0)
    rng._gen, rng._ties._gen = (_WordsThenPCG([p[k] for p in prefixes]) for k in (0, 1))
    picks = tester_module._below_cuts(rng, missing, rng._words(len(prefixes)))
    assert picks.tolist() == [sum(c <= Fraction(a << 64 | b, 1 << 128) for c in cuts)
                              for a, b in prefixes] == [0, 1, 1, 2, 2, 3]
    assert rng._gen.used == rng._ties._gen.used == len(prefixes)


_TOTALS = st.one_of(st.integers(0, 200).map(lambda k: 1 << k),
                    st.integers(0, 1 << 200).map(lambda k: 2 * k + 1))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), total=_TOTALS)
def test_below_cuts_counts_the_cuts_at_or_below_the_words_read(data, total):
    # Power-of-two totals end their expansions within a few words; odd ones
    # never do. 1-5 sorted cuts, a cut of 0 and equal cuts allowed. Each
    # group's first word sits at, or one unit either side of, some cut's
    # first word, or ties it and goes on at, or one unit either side of,
    # the cut's second word. A group reads the shortest prefix that no cut
    # falls strictly inside: its first word from the stream, and each tied
    # group's continuations, in row order, from the tie stream. Its count is
    # the number of cuts at or below that prefix, and the exact cuts are
    # asked for only on a tie.
    cuts = data.draw(st.lists(st.integers(0, total - 1), min_size=1, max_size=3))
    cuts = sorted(cuts + data.draw(st.lists(st.sampled_from(cuts), max_size=2)))
    mask = (1 << 64) - 1

    def inside(prefix):
        # (the cuts at or below the prefix, the cuts strictly inside its interval)
        value = 0
        for word in prefix:
            value = value << 64 | word
        low = Fraction(value, 1 << 64 * len(prefix))
        high = low + Fraction(1, 1 << 64 * len(prefix))
        values = [Fraction(c, total) for c in cuts]
        return sum(v <= low for v in values), sum(low < v < high for v in values)

    groups = []
    for cut in cuts:
        first, second = (((cut << 64 * k) // total) & mask for k in (1, 2))
        for plan in [[first + step] for step in (-1, 0, 1)] + [
                [first, second + step] for step in (-1, 0, 1)]:
            if 0 <= plan[-1] <= mask:
                # cut to the prefix the lazy comparison reads, if it settles
                read = next((plan[:k] for k in range(1, len(plan) + 1)
                             if not inside(plan[:k])[1]), None)
                if read is not None and read not in groups:
                    groups.append(read)
    groups = data.draw(st.permutations(groups))
    tops = np.array([(c << 64) // total for c in cuts], dtype=np.uint64)
    asked = []

    def exact(lo, hi):
        asked.append((lo, hi))
        return cuts[lo:hi], total

    rng = RandomStream(0)
    ties = [w for p in groups for w in p[1:]]
    rng._gen, rng._ties._gen = _WordsThenPCG([p[0] for p in groups]), _WordsThenPCG(ties)
    got = tester_module._below_cuts(rng, (tops, exact), rng._words(len(groups)))
    assert got.tolist() == [inside(p)[0] for p in groups]
    assert (rng._gen.used, rng._ties._gen.used) == (len(groups), len(ties))
    assert len(asked) == sum(p[0] in tops.tolist() for p in groups)


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
    # Stage 0's facts at need t and then t - 1 on one law memo, as Stage 0
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
    sha, law = hashlib.sha256(), {}
    for need in (t, t - 1):
        few, first0, masks = tester_module._drawn_facts(sampler, 300, size, need, law)
        for part in (few, np.asarray(first0, dtype=np.int64), masks):
            sha.update(part.tobytes())
        sha.update(repr(sampler._batch._gen.bit_generator.state).encode())
    assert sha.hexdigest()[:16] == digest
