"""Three-stage tester: parameters, representative search, verdict paths."""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    group_fact_law,
    light_ones_dist,
    literal_block_facts,
    ones_index,
    rand_dist,
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
    dist = base.flipped({1})
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
    conj = [(far, uniform_dist(16, [(1, 5), (2, 6)]).flipped({1}), 402)]
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
    # and none of them is looked at
    calls = []
    union = tester_module._union

    def counted(*args):
        calls.append(args)
        return union(*args)

    monkeypatch.setattr(tester_module, "_union", counted)
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
    # 1-samples, in a block of its own, then blocks of 64 groups and more.
    # Group 1 has no 0-sample and ends the run, so only two blocks are
    # drawn; the logged run draws groups and matches the reference log for log
    n = 8
    func = MonotoneConj(n, frozenset({1}))
    dist = FiniteDistribution(n, ((zs(n, 2), Fraction(1, 2)), (zs(n, 3), Fraction(1, 3)),
                                  (zs(n, 2, 3), Fraction(1, 6))))
    runs, (logged, quiet_blocks) = block_runs(monkeypatch, func, dist, 606)
    got, want, quiet = runs
    assert got == want
    assert want[0] == (True, "stage2-no-zero", 0, 0)
    assert {kind for _, _, kind in logged} == {"groups"}
    assert quiet_blocks == [(0, 1, "facts"), (1, 64, "facts")]
    assert quiet[0] == want[0] and quiet[1:3] == want[1:3]


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


@settings(max_examples=200, deadline=None)
@given(start=st.integers(0, 60), k=st.integers(0, 40), size=st.integers(1, 9),
       room=st.one_of(st.none(), st.integers(0, 400)))
def test_charging_groups_in_one_step_matches_the_per_group_loop(start, k, size, room):
    # the same count, and BudgetExceeded at the same group, when the limit
    # falls inside the groups charged
    def charged(charge):
        tr = QueryTranscript(limit=None if room is None else start + room)
        tr.take_samples(start)
        try:
            charge(tr)
        except BudgetExceeded:
            return "budget", tr.sample_count
        return "charged", tr.sample_count

    loop = charged(lambda tr: [tr.take_samples(size) for _ in range(k)])
    assert charged(lambda tr: tester_module._charge_groups(tr, k, size)) == loop


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


def facts_fits(size, needs, seed):
    """Per need in needs, Pearson's statistic, critical value at alpha =
    0.001 and degrees of freedom of 20,000 groups drawn as their facts on
    facts_instance(1/2), against the enumerated law."""
    f, dist = facts_instance(Fraction(1, 2))
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
    # B's rounds start at the two 1-points and grow by half (2, 3, 5, 8
    # draws), so need 3 to 6 takes two to four rounds; with two needs, one
    # call each, as Stage 0 asks for group 0 and then for the others, the
    # second call reads the first's memoized law
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
    words = [p[0] for p in prefixes] + [w for p in prefixes for w in p[1:]]
    sampler = Sampler(dist, f, QueryTranscript(), RandomStream(0))
    sampler._batch._gen = _WordsThenPCG(words)
    short, first0, _ = tester_module._drawn_facts(sampler, len(prefixes), size, need, {})
    got = np.where(short, 0, np.where(first0 < 0, 1, 2)).tolist()
    assert got == [settled(p)[0] for p in prefixes]
    assert sampler._batch._gen.used == len(words)
    assert any(len(p) > 1 for p in prefixes) == (ones_mass == Fraction(2, 3))
