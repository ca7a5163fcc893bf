"""Trial harness, budget accounting, experiments, and the CLI."""

import contextlib
import dataclasses
import functools
import gc
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import threading
import time
import weakref
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import subcube
import subcube.cli as cli
import subcube.harness as harness
import subcube.model as model_module
import subcube.tester as tester_module
from subcube import (
    BlackBox,
    DecisionList,
    ExperimentConfig,
    FiniteDistribution,
    FunctionSpec,
    LBInstance,
    LBParams,
    MonotoneConj,
    QueryTranscript,
    RandomStream,
    Sampler,
    TruthTable,
    ZeroSet,
    build_violation_bigraph,
    compute_parameters,
    desk_params,
    distinguishing_experiment,
    exact_distance_dlist,
    exact_distance_ltf,
    exact_distance_mconj,
    generate_instance,
    load_instance,
    prune_to_regular,
    query_budget_report,
    run_trials,
    save_instance,
    simulate_p,
    write_experiment_csv,
    write_trials_csv,
)
from subcube.harness import ALGOS, CSV_HEADER, EXPERIMENT_HEADER, _SimWorld, _run_one
from subcube.serialize import fraction_to_str
from helpers import (collect, rand_dist, reference_distinguishing_experiment,
                     strong_sample, zs)

SMALL_LB = LBParams(n=60, h=4, r_blocks=7, m=3, s=1, blocks_per_side=2)


@dataclass(frozen=True)
class PairUnion(FunctionSpec):
    n: int

    def value_at(self, zeros):
        return 1 if zeros <= {1, 3} or zeros <= {2, 4} else 0


def inclass_instance(n=16, seed=900):
    f = MonotoneConj(n, frozenset({2, 5}))
    dist = rand_dist(RandomStream(seed), n, 6, max_zeros=5)
    return (n, f, dist)


def far_instance():
    pts = [(1,), (2,), (1, 2)]
    dist = FiniteDistribution(4, tuple(
        (zs(4, *p), Fraction(1, 3)) for p in pts))
    return (4, PairUnion(4), dist)


def key_of(r):
    return (r.trial, r.accepted, r.reason, r.blackbox_queries,
            r.sample_queries)


# -- configuration ------------------------------------------------------------


def test_config_validation():
    inst = inclass_instance()
    with pytest.raises(ValueError):
        ExperimentConfig(algo="magic", epsilon=Fraction(1), trials=1, seed=0,
                         instance=inst)
    with pytest.raises(ValueError):
        ExperimentConfig(algo="mconj", epsilon=Fraction(1), trials=-1, seed=0,
                         instance=inst)
    with pytest.raises(ValueError):
        ExperimentConfig(algo="mconj", epsilon=Fraction(1), trials=1, seed=0,
                         amplify_k=0, instance=inst)
    with pytest.raises(ValueError):
        ExperimentConfig(algo="dolev-ron", epsilon=Fraction(1), trials=1,
                         seed=0, budget=-1, instance=inst)
    with pytest.raises(ValueError):
        ExperimentConfig(algo="mconj", epsilon=Fraction(1), trials=1, seed=0)
    with pytest.raises(ValueError):
        ExperimentConfig(algo="mconj", epsilon=Fraction(1), trials=1, seed=0,
                         instance=inst, generator=(SMALL_LB, "no"))
    cfg = ExperimentConfig(algo="mconj", epsilon=Fraction(1), trials=1,
                           seed=0, instance=inst)
    assert cfg.n == 16
    assert ExperimentConfig(algo="mconj", epsilon=Fraction(1), trials=1,
                            seed=0, generator=(SMALL_LB, "no")).n == 60


# -- running trials -----------------------------------------------------------


def test_trials_on_fixed_instance():
    cfg = ExperimentConfig(algo="mconj", epsilon=Fraction(1), trials=4,
                           seed=1, instance=inclass_instance())
    results = run_trials(cfg)
    assert [r.trial for r in results] == [0, 1, 2, 3]
    for r in results:
        assert r.accepted
        assert r.outcome == "accept"
        assert r.verdict is not None
        assert r.attempts == 1
        assert (r.transcript.blackbox_count, r.transcript.sample_count) == (
            r.blackbox_queries, r.sample_queries)
        assert r.wall_ms >= 0
        assert r.instance is None  # fixed instances are not echoed back
        assert r.reason in {"end-of-stage-2", "stage2-no-zero",
                            "stage1-few-ones"}


def test_trials_deterministic_and_thread_invariant():
    # the second instance has a 0-point, found in group 0, so Stage 0 draws
    # the later groups as their facts, and Stage 2 ends where they say
    f = MonotoneConj(8, frozenset({1}))
    facts = (8, f, FiniteDistribution(8, ((zs(8), Fraction(7, 8)),
                                          (zs(8, 1), Fraction(1, 8)))))
    for instance in (inclass_instance(), facts):
        cfg = ExperimentConfig(algo="mconj", epsilon=Fraction(1), trials=4,
                               seed=2, instance=instance)
        runs = [[key_of(r) + (r.transcript.samples_drawn,) for r in run_trials(cfg)]
                for _ in range(2)]
        assert runs[1] == runs[0]
        assert all(drawn < r[4] for *r, drawn in runs[0])


def test_trials_regenerate_instances_per_trial():
    cfg = ExperimentConfig(algo="mconj", epsilon=Fraction(1), trials=2,
                           seed=4, generator=(SMALL_LB, "no"))
    results = run_trials(cfg)
    for r in results:
        assert isinstance(r.instance, LBInstance)
    assert results[0].instance.R.tolist() != results[1].instance.R.tolist()


def test_budget_forces_accept():
    cfg = ExperimentConfig(algo="mconj", epsilon=Fraction(1), trials=2,
                           seed=5, instance=inclass_instance(),
                           budget=100)
    for r in run_trials(cfg):
        assert r.accepted
        assert r.reason == "budget-exhausted"
        assert r.verdict is None
        assert r.sample_queries <= 100

    zero_bb = ExperimentConfig(algo="mconj", epsilon=Fraction(1), trials=1,
                               seed=6, instance=inclass_instance(),
                               budget=0)
    r = run_trials(zero_bb)[0]
    assert r.reason == "budget-exhausted"
    assert r.blackbox_queries == 0  # refused before counting


@pytest.mark.parametrize("algo", ["mconj", "conj"])
def test_budget_refuses_a_stage0_group_before_drawing_it(algo):
    # one Stage-0 group here is 3,023,304,000 samples, far more memory than
    # a draw of it could take; the budget refuses it undrawn
    eps = Fraction(1, 1000)
    assert compute_parameters(60, eps).group_size == 3_023_304_000
    cfg = ExperimentConfig(algo=algo, epsilon=eps, trials=2, seed=0,
                           generator=(desk_params(60), "yes"), budget=16)
    for r in run_trials(cfg):
        assert (r.accepted, r.reason) == (True, "budget-exhausted")
        assert r.sample_queries <= 16


def test_amplified_far_instance_stops_on_reject():
    cfg = ExperimentConfig(algo="mconj", epsilon=Fraction(1), trials=3,
                           seed=7, amplify_k=5, instance=far_instance())
    for r in run_trials(cfg):
        assert not r.accepted
        assert r.reason == "stage0-nil-representative"
        assert r.attempts == 1  # first attempt already rejects
        assert r.sample_queries == r.transcript.sample_count


def test_baseline_samples_override():
    cfg = ExperimentConfig(algo="dolev-ron", epsilon=Fraction(1), trials=2,
                           seed=8, instance=inclass_instance(),
                           budget=64)
    for r in run_trials(cfg):
        assert r.accepted
        assert r.sample_queries == 64


def test_amplified_attempts_share_one_budget():
    # each dolev-ron attempt draws exactly `budget` samples, so the first
    # attempt spends the whole sample budget and the second runs out at its
    # first draw
    q = 64
    cfg = ExperimentConfig(algo="dolev-ron", epsilon=Fraction(1), trials=2,
                           seed=8, amplify_k=3, instance=inclass_instance(),
                           budget=q)
    for r in run_trials(cfg):
        assert r.accepted
        assert r.reason == "budget-exhausted"
        assert r.sample_queries == q
        assert r.attempts == 2
        assert r.blackbox_queries <= q


# -- CSV ----------------------------------------------------------------------


def test_trials_csv_shape():
    cfg = ExperimentConfig(algo="mconj", epsilon=Fraction(1), trials=2,
                           seed=9, instance=far_instance())
    results = run_trials(cfg)
    buf = io.StringIO()
    write_trials_csv(buf, results)
    lines = buf.getvalue().splitlines()
    assert lines[0] == ",".join(CSV_HEADER)
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "0"
    assert first[1] == "reject"
    assert first[2] == "stage0-nil-representative"
    assert int(first[3]) >= 0 and int(first[4]) > 0 and int(first[5]) >= 0


def test_experiment_csv_formatting():
    rows = [{"budget": 4, "yes_accept": 1.0, "no_accept": 0.5, "gap": 0.5,
             "sim_yes_accept": 1.0, "sim_no_accept": 1 / 3, "sim_gap": 2 / 3}]
    buf = io.StringIO()
    write_experiment_csv(buf, rows)
    lines = buf.getvalue().splitlines()
    assert lines[0] == ",".join(EXPERIMENT_HEADER)
    assert lines[1] == "4,1.000000,0.500000,0.500000,1.000000,0.333333,0.666667"


# -- query accounting ---------------------------------------------------------


def test_query_budget_report_happy_path():
    n = 64
    cfg = ExperimentConfig(algo="mconj", epsilon=Fraction(1), trials=6,
                           seed=10, instance=(
                               n, MonotoneConj(n, frozenset({3, 17})),
                               rand_dist(RandomStream(901), n, 6,
                                         max_zeros=6)))
    results = run_trials(cfg)
    params = compute_parameters(n, Fraction(1))
    report = query_budget_report(results, params, n)
    assert report["trials"] == 6
    assert set(report) == {"trials", "mean_total_queries", "max_total_queries",
                           "closed_form", "ratio_to_closed_form",
                           "worst_blackbox_fraction_of_bound"}
    assert report["ratio_to_closed_form"] < 1.0
    assert report["worst_blackbox_fraction_of_bound"] <= 1.0
    assert report["max_total_queries"] >= report["mean_total_queries"]


def test_query_budget_report_rejects_unusable_batches():
    params = compute_parameters(16, Fraction(1))
    with pytest.raises(ValueError):
        query_budget_report([], params, 16)

    amped = ExperimentConfig(algo="mconj", epsilon=Fraction(1), trials=1,
                             seed=11, amplify_k=2, instance=inclass_instance())
    with pytest.raises(ValueError, match="unamplified"):
        query_budget_report(run_trials(amped), params, 16)

    capped = ExperimentConfig(algo="mconj", epsilon=Fraction(1), trials=1,
                              seed=13, instance=inclass_instance(),
                              budget=50)
    with pytest.raises(ValueError, match="unbudgeted"):
        query_budget_report(run_trials(capped), params, 16)


def test_query_budget_report_names_the_trial_that_breaks_a_bound():
    # one in-class trial, reported as trial 7 with its sample count off by
    # one, then with its black-box count one past the bound
    n = 16
    params = compute_parameters(n, Fraction(1))
    (r,) = run_trials(ExperimentConfig(algo="mconj", epsilon=Fraction(1), trials=1,
                                       seed=12, instance=inclass_instance()))
    assert r.sample_queries == params.stage0_samples
    query_budget_report([r], params, n)
    lg = math.ceil(math.log2(n))
    bound = 1 + r.verdict.searches * 2 * lg + 2 * params.s + params.d_star * (2 * lg + 2)
    off = dataclasses.replace(r, trial=7, sample_queries=r.sample_queries + 1)
    with pytest.raises(AssertionError, match=f"^trial 7: sample_count "
                                             f"{params.stage0_samples + 1} != "):
        query_budget_report([r, off], params, n)
    past = dataclasses.replace(r, trial=7, blackbox_queries=bound + 1)
    with pytest.raises(AssertionError, match=f"^trial 7: blackbox_count {bound + 1} "
                                             f"exceeds bound {bound}$"):
        query_budget_report([r, past], params, n)


@st.composite
def in_class_cases(draw):
    """(n, f, dist): a random monotone conjunction f at n <= 8 and a random
    rational distribution on 1-6 distinct points. Half the supports are all
    1-labelled, and in about half of those with two points or more the
    first numerator is past 2^64, which takes the denominator past 2^62."""
    n = draw(st.integers(2, 8))
    required = draw(st.frozensets(st.integers(1, n), min_size=1, max_size=3))
    zeros = st.frozensets(st.integers(1, n))
    if draw(st.booleans()):  # no point is 0 at a required coordinate
        zeros = zeros.map(lambda z: z - required)
    points = draw(st.lists(zeros, min_size=1, max_size=6, unique=True))
    raw = draw(st.lists(st.integers(1, 9), min_size=len(points), max_size=len(points)))
    if len(points) > 1 and draw(st.booleans()):
        raw[0] = draw(st.integers(1 << 64, 1 << 70))
    dist = FiniteDistribution(n, tuple((ZeroSet(n, z), Fraction(w, sum(raw)))
                                       for z, w in zip(points, raw)))
    return n, MonotoneConj(n, required), dist


_ALL_ONES_BIG = (8, MonotoneConj(8, frozenset({1})), FiniteDistribution(8, (
    (zs(8), Fraction(1, (1 << 64) + 13)), (zs(8, 2, 3), Fraction((1 << 64) + 12, (1 << 64) + 13)))))


@settings(max_examples=60, deadline=None)
@given(case=in_class_cases(), seed=st.integers(0, 2 ** 32 - 1))
@example(case=_ALL_ONES_BIG, seed=0)
def test_readme_contracts_hold_on_random_in_class_inputs(case, seed):
    # at eps = 1, logging on and off: the tester never rejects, every run
    # (none ends in Stage 0) is charged exactly stage0_samples (4,428 at
    # n = 8), and query_budget_report passes
    n = case[0]
    params = compute_parameters(n, 1)
    for log in (False, True):
        results = run_trials(ExperimentConfig(algo="mconj", epsilon=Fraction(1), trials=2,
                                              seed=seed, instance=case, log_queries=log))
        for r in results:
            assert r.accepted, (r.reason, log)
            assert r.sample_queries == params.stage0_samples, (r.reason, log)
            if log:
                assert len(r.transcript.sample_log) == r.sample_queries
        query_budget_report(results, params, n)


# -- distinguishing experiments -----------------------------------------------


def test_experiment_rows_schema_and_zero_budget():
    rows = distinguishing_experiment(
        algo="dolev-ron", params=SMALL_LB, yes_variant="yes", no_variant="no",
        epsilon=Fraction(1), trials=4, seed=14, budgets=[0, 8])
    assert [row["budget"] for row in rows] == [0, 8]
    for row in rows:
        assert set(row) == set(EXPERIMENT_HEADER)
    first = rows[0]
    assert first["yes_accept"] == first["no_accept"] == 1.0
    assert first["gap"] == 0.0 and first["sim_gap"] == 0.0
    assert rows[1]["yes_accept"] == 1.0  # the baseline is one-sided
    assert 0.0 <= rows[1]["no_accept"] <= 1.0

    again = distinguishing_experiment(
        algo="dolev-ron", params=SMALL_LB, yes_variant="yes", no_variant="no",
        epsilon=Fraction(1), trials=4, seed=14, budgets=[0, 8])
    assert again == rows


@pytest.mark.parametrize("algo", ("mconj", "conj"))
def test_experiment_with_primary_testers(algo):
    def sweep():
        return distinguishing_experiment(
            algo=algo, params=SMALL_LB, yes_variant="yes", no_variant="no",
            epsilon=Fraction(1), trials=4, seed=15, budgets=[0, 8, 64])

    rows = sweep()
    assert [row["budget"] for row in rows] == [0, 8, 64]
    for row in rows:
        assert row["yes_accept"] == 1.0  # one-sided under every budget
    assert rows[0] == {"budget": 0, "yes_accept": 1.0, "no_accept": 1.0,
                       "gap": 0.0, "sim_yes_accept": 1.0,
                       "sim_no_accept": 1.0, "sim_gap": 0.0}
    assert sweep() == rows


def test_experiment_draws_one_instance_per_variant_and_trial(monkeypatch):
    """2 * trials instances, each drawn on its own stream and held alone;
    every budget in both worlds of trial i runs on trial i's instance, each
    run on the same stream as when every run drew its own instance, and all
    the real-world runs of trial i share one Sampler of that instance."""
    seed, budgets = 17, [0, 4, 16]
    root = RandomStream(seed)
    streams = {root.split("exp", "instance", v, i).path: (v, i)
               for v in ("yes", "no") for i in range(3)}
    drawn, runs, samplers = {}, [], {}
    generate, run_one = harness.generate_instance, harness._run_one

    def counting(params, variant, rng):
        gc.collect()
        assert sum(ref() is not None for ref in drawn.values()) <= 1
        cell = streams[rng.path]
        assert cell[0] == variant and cell not in drawn
        inst = generate(params, variant, rng)
        drawn[cell] = weakref.ref(inst)
        return inst

    def recording(config, trial, rng=None, inst=None, sim=False, sampler=None):
        world = "sim" if sim else "real"
        variant = config.generator[1]
        assert rng.path == root.split("exp", config.budget, world, variant,
                                      trial).path
        assert drawn[variant, trial]() is inst
        runs.append((variant, trial, config.budget, world))
        if not sim:
            assert sampler.dist is inst.distribution
            assert sampler.func is inst.function
            assert samplers.setdefault((variant, trial), sampler) is sampler
        return run_one(config, trial, rng, inst, sim=sim, sampler=sampler)

    monkeypatch.setattr(harness, "generate_instance", counting)
    monkeypatch.setattr(harness, "_run_one", recording)
    distinguishing_experiment(
        algo="dolev-ron", params=SMALL_LB, yes_variant="yes", no_variant="no",
        epsilon=Fraction(1), trials=3, seed=seed, budgets=budgets)
    assert sorted(drawn) == sorted(streams.values())
    assert sorted(runs) == sorted((v, i, q, w) for v, i in streams.values()
                                  for q in budgets for w in ("real", "sim"))
    assert sorted(samplers) == sorted(streams.values())


RATES = ("yes_accept", "no_accept", "sim_yes_accept", "sim_no_accept")


@pytest.mark.parametrize("pair", [("yes", "no"), ("yes-ltf", "no-ltf")])
def test_shared_instances_match_the_per_run_design_in_law(pair):
    """Each rate has the law of the per-run design, and trials stay
    independent.

    Rows: both designs run T = 150 trials, on independent seeds. For a rate
    column with values p1 and p2, the pooled p = (p1 + p2) / 2 gives the
    two-proportion standard error sigma = sqrt(2 p (1 - p) / T); for a gap
    column, the difference of two independent rates, sigma = sqrt(2 (py (1 -
    py) + pn (1 - pn)) / T) with py and pn the pooled yes and no rates of
    the same world. Every column of every row must agree within 4 sigma (a
    column that both designs answer without randomness must agree exactly).

    Independence: K = 30 calls of T = 10 trials at q = 16. If the trials of
    a call are independent, a rate column's accept counts x_k are binomial,
    and D = sum_k (x_k - T p)^2 / (T p (1 - p)), with p the pooled rate, is
    about chi-square with K - 1 degrees of freedom: D must stay within
    K - 1 + 4 sqrt(2 (K - 1)). Trials that share an instance draw their
    counts from a mixture of binomials, which inflates D.
    """
    yes, no = pair
    trials, budgets = 150, [4, 16, 64]
    shared = distinguishing_experiment(
        algo="dolev-ron", params=SMALL_LB, yes_variant=yes, no_variant=no,
        epsilon=Fraction(1), trials=trials, seed=18, budgets=budgets)
    per_run = reference_distinguishing_experiment(
        _run_one, "dolev-ron", SMALL_LB, yes, no, Fraction(1), trials, 19,
        budgets)
    assert [r["budget"] for r in shared] == [r["budget"] for r in per_run]
    for a, b in zip(shared, per_run):
        for prefix in ("", "sim_"):
            py = (a[prefix + "yes_accept"] + b[prefix + "yes_accept"]) / 2
            pn = (a[prefix + "no_accept"] + b[prefix + "no_accept"]) / 2
            sigmas = {
                prefix + "yes_accept": math.sqrt(2 * py * (1 - py) / trials),
                prefix + "no_accept": math.sqrt(2 * pn * (1 - pn) / trials),
                prefix + "gap": math.sqrt(
                    2 * (py * (1 - py) + pn * (1 - pn)) / trials),
            }
            for key, sigma in sigmas.items():
                assert abs(a[key] - b[key]) <= 4 * sigma + 1e-12, (
                    f"{key} at q={a['budget']}: {a[key]} vs {b[key]}, "
                    f"4 sigma = {4 * sigma:.4f}")

    calls, trials = 30, 10
    counts = {key: [] for key in RATES}
    for k in range(calls):
        row, = distinguishing_experiment(
            algo="dolev-ron", params=SMALL_LB, yes_variant=yes, no_variant=no,
            epsilon=Fraction(1), trials=trials, seed=100 + k, budgets=[16])
        for key in RATES:
            counts[key].append(round(row[key] * trials))
    bound = calls - 1 + 4 * math.sqrt(2 * (calls - 1))
    for key, xs in counts.items():
        p = sum(xs) / (calls * trials)
        if 0 < p < 1:
            dispersion = sum((x - trials * p) ** 2 for x in xs) / (
                trials * p * (1 - p))
            assert dispersion <= bound, (
                f"{key} counts {xs}: D = {dispersion:.1f} > {bound:.1f}")


def test_sim_baseline_searches_each_zero_sample_once(monkeypatch):
    """Against the no-black-box responder the baseline searches a repeated
    0-sample once, as it does against the real oracles."""
    searched = []
    search = BlackBox.representatives

    def recording(oracle, points):
        for x, rep in zip(points, search(oracle, points)):
            searched.append(x.zeros)
            yield rep

    monkeypatch.setattr(BlackBox, "representatives", recording)
    config = ExperimentConfig(algo="dolev-ron", epsilon=Fraction(1), trials=1,
                              seed=32, generator=(SMALL_LB, "no"))
    result = _run_one(config, 0, sim=True)
    assert result.sample_queries == 92  # ceil(2 * sqrt(60) * log2(60))
    assert len(result.instance.distribution.entries) == 9
    assert len(searched) >= 2
    assert len(set(searched)) == len(searched)


@functools.lru_cache(maxsize=None)
def sim_instance(big):
    """A SMALL_LB no instance; with big, the same instance reweighted over a
    denominator past 2^64, which sends its draws down the bigint path."""
    inst = generate_instance(SMALL_LB, "no", RandomStream(40))
    if not big:
        return inst
    den = (1 << 64) + 13
    points = [p for p, _ in inst.distribution.entries]
    nums = [den // (2 * len(points))] * (len(points) - 1)
    return dataclasses.replace(inst, distribution=FiniteDistribution(inst.n, tuple(
        zip(points, (Fraction(w, den) for w in nums + [den - sum(nums)])))))


# a limit of 0, a limit inside the batch, a transcript already at its
# limit, and a limit past the batch
@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 1 << 32), k=st.integers(0, 40),
       limit=st.none() | st.integers(0, 45), spent=st.integers(0, 45),
       big=st.booleans(), chunk=st.sampled_from([None, 1, 3, 7]), log=st.booleans())
@example(seed=1, k=30, limit=0, spent=0, big=False, chunk=None, log=True)
@example(seed=2, k=30, limit=20, spent=5, big=False, chunk=4, log=True)
@example(seed=3, k=30, limit=12, spent=12, big=True, chunk=None, log=True)
@example(seed=4, k=40, limit=25, spent=0, big=True, chunk=7, log=True)
def test_sim_world_draws_match_strong_sample_calls(seed, k, limit, spent, big,
                                                   chunk, log):
    # one batch of k strong samples hands out the points of k strong_sample
    # calls, with Gamma after each draw and each label the responder's bit
    # at draw time; it charges and logs the draws that fit, refuses the
    # next, and leaves the stream at their word
    inst = sim_instance(big)
    spent = spent if limit is None else min(spent, limit)

    def run(draws):
        tr = QueryTranscript(log_queries=log, limit=limit, sample_count=spent)
        rng, gamma = RandomStream(seed), set()
        with pytest.MonkeyPatch.context() as mp:
            if chunk:
                mp.setattr(model_module, "_DRAW_SAMPLES", chunk)
            taken, refused = collect(draws(rng, tr, gamma), lambda: frozenset(gamma))
        return (taken, refused, tr.sample_count, tr.sample_log,
                rng.randrange(1000), rng.randrange(1 << 70))

    def batch(rng, tr, gamma):
        world = _SimWorld(inst, rng, tr, Sampler(inst.distribution, inst.function,
                                                 QueryTranscript(), RandomStream(0)))
        world.gamma = gamma
        return world.draws(k)

    def per_draw(rng, tr, gamma):
        for _ in range(k):
            point, alpha = strong_sample(inst, rng, tr)
            if alpha is not None:
                gamma.add(alpha)
            yield point, simulate_p(point.zeros, inst.r_set, gamma)

    got = run(batch)
    assert got == run(per_draw)
    fit = k if limit is None else min(k, limit - spent)
    assert len(got[0]) == fit and got[1] == (fit < k) and got[2] == spent + fit


def test_sim_world_reveals_each_gamma_as_an_int():
    # an alpha_i read off the instance's array is an np.int64, which passes
    # every == check against the int; the world must reveal the int itself
    inst = generate_instance(SMALL_LB, "no", RandomStream(43))
    tr = QueryTranscript(log_queries=True)
    world = _SimWorld(inst, RandomStream(44), tr, Sampler(
        inst.distribution, inst.function, QueryTranscript(), RandomStream(0)))
    list(world.draws(60))
    logged = [gamma for _, gamma in tr.sample_log if gamma is not None]
    assert logged and world.gamma
    assert {type(gamma) for gamma in logged + list(world.gamma)} == {int}


@pytest.mark.parametrize("algo, variant, sim", [
    ("mconj", "no", False), ("conj", "no", False), ("dolev-ron", "no", False),
    ("dolev-ron", "no", True), ("dolev-ron", "yes", False), ("dolev-ron", "yes", True)])
def test_shared_sampler_runs_as_a_fresh_sampler(monkeypatch, algo, variant, sim):
    """Runs that draw through one instance Sampler equal runs that build a
    fresh Sampler per attempt, and a run made after another on the same
    Sampler still does: no transcript or stream state leaks between them.
    On the no instance every run rejects in its first attempt; on the yes
    instance the baseline accepts, so both attempts run."""
    inst = generate_instance(SMALL_LB, variant, RandomStream(41))
    config = ExperimentConfig(algo=algo, epsilon=Fraction(1), trials=1, seed=0,
                              amplify_k=2, generator=(SMALL_LB, variant),
                              log_queries=True)
    streams = [RandomStream(42).split("run", j) for j in range(2)]

    def key(r):
        return (r.accepted, r.reason, r.blackbox_queries, r.sample_queries,
                r.verdict, r.attempts, r.transcript.blackbox_log,
                r.transcript.sample_log)

    shared = Sampler(inst.distribution, inst.function, QueryTranscript(),
                     RandomStream(43))
    runs = [key(_run_one(config, 0, rng, inst, sim, shared)) for rng in streams]
    # the reference builds a new Sampler for every attempt
    monkeypatch.setattr(Sampler, "rebind", lambda self, tr, rng: Sampler(
        self.dist, self.func, tr, rng))
    monkeypatch.setattr(harness, "_SimWorld", lambda inst, rng, tr, sampler: _SimWorld(
        inst, rng, tr, Sampler(inst.distribution, inst.function, tr, rng)))
    fresh = [key(_run_one(config, 0, rng, inst, sim)) for rng in streams]
    assert runs == fresh
    assert [r[5] for r in runs] == [2 if variant == "yes" else 1] * 2
    assert shared.transcript.sample_count == 0


def test_experiment_input_validation(tmp_path, capsys):
    with pytest.raises(ValueError):
        distinguishing_experiment(algo="magic", params=SMALL_LB,
                                  yes_variant="yes", no_variant="no",
                                  epsilon=Fraction(1), trials=1, seed=0,
                                  budgets=[1])
    with pytest.raises(ValueError):
        distinguishing_experiment(algo="dolev-ron", params=SMALL_LB,
                                  yes_variant="yes", no_variant="no",
                                  epsilon=Fraction(1), trials=1, seed=0,
                                  budgets=[-1])
    for trials in (-3, 0):
        # an empty batch has no acceptance rate to report
        with pytest.raises(ValueError):
            distinguishing_experiment(algo="dolev-ron", params=SMALL_LB,
                                      yes_variant="yes", no_variant="no",
                                      epsilon=Fraction(1), trials=trials, seed=0,
                                      budgets=[1])
    out = tmp_path / "sweep.csv"
    for trials in ("-3", "0"):
        for dest in ("-", str(out)):
            rc = cli.main(["experiment", "--algo", "dolev-ron", "--variant-pair",
                           "yes:no", "--n", "60", "--epsilon", "1", "--trials",
                           trials, "--budget", "0,4", "--out", dest])
            assert rc == 2
            captured = capsys.readouterr()
            assert captured.err.startswith("error: ")
            assert captured.out == ""
    for budget in (",", ""):
        for dest in ("-", str(out)):
            rc = cli.main(["experiment", "--algo", "dolev-ron", "--variant-pair",
                           "yes:no", "--n", "60", "--epsilon", "1", "--trials",
                           "1", "--budget", budget, "--out", dest])
            assert rc == 2
            captured = capsys.readouterr()
            assert captured.err == "error: empty budget list\n"
            assert captured.out == ""
    assert not out.exists()


def test_cli_experiment_opens_its_output_before_the_sweep(tmp_path, capsys,
                                                         monkeypatch):
    def sweep(**kwargs):
        raise AssertionError("the sweep started before the output was opened")

    monkeypatch.setattr(cli, "distinguishing_experiment", sweep)
    for dest in (tmp_path / "missing" / "x.csv", tmp_path):
        rc = cli.main(["experiment", "--algo", "dolev-ron", "--variant-pair",
                       "yes:no", "--n", "4096", "--epsilon", "1", "--trials",
                       "20", "--budget", "0,16,64", "--out", str(dest)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.out == ""


@pytest.mark.parametrize("command", ["test", "experiment", "violation"])
@pytest.mark.parametrize("epsilon", ["0", "-1", "3/2"])
def test_cli_rejects_epsilon_outside_unit_interval(tmp_path, capsys, command, epsilon):
    if command == "experiment":
        argv = ["experiment", "--variant-pair", "yes:no", "--n", "60",
                "--trials", "1", "--budget", "0,4", "--out", "-",
                "--algo", "dolev-ron"]
    else:
        path = gen_file(tmp_path)
        capsys.readouterr()
        argv = [command, "--instance", str(path)]
        if command == "test":
            argv += ["--seed", "3", "--algo", "dolev-ron"]
    rc = cli.main(argv + [f"--epsilon={epsilon}"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.out == ""
    with pytest.raises(ValueError):
        ExperimentConfig(algo="dolev-ron", epsilon=Fraction(epsilon), trials=1,
                         seed=0, generator=(SMALL_LB, "yes"))


# -- command line -------------------------------------------------------------


SCALED = "h=4,r_blocks=7,m=3,s=1,bps=2"


def gen_file(tmp_path, variant="no", seed=5):
    path = tmp_path / f"{variant}.json"
    rc = cli.main(["gen-instance", "--variant", variant, "--n", "60",
                   "--scaled", SCALED, "--seed", str(seed),
                   "--out", str(path)])
    assert rc == 0
    return path


def test_cli_gen_instance_writes_instance_and_sidecar(tmp_path, capsys):
    path = gen_file(tmp_path)
    out = capsys.readouterr().out
    assert f"wrote {path}" in out
    inst = load_instance(path)
    assert inst.n == 60
    assert len(inst.distribution.entries) == 9
    sidecar = json.loads((tmp_path / "no.json.sidecar.json").read_text())
    assert sidecar["variant"] == "no"
    assert sidecar["params"]["m"] == 3
    assert len(sidecar["alpha"]) == 3


def test_cli_test_emits_csv_row(tmp_path, capsys):
    path = gen_file(tmp_path)
    capsys.readouterr()
    rc = cli.main(["test", "--instance", str(path), "--algo", "mconj",
                   "--epsilon", "1", "--seed", "3"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == ",".join(CSV_HEADER)
    row = lines[1].split(",")
    assert row[0] == "0"
    assert row[1] in ("accept", "reject")


def test_trials_run_in_order_on_the_calling_thread(tmp_path, capsys, monkeypatch):
    # every trial runs on the caller's thread, in trial order, and
    # SUBCUBE_THREADS is not read
    seen = []

    def one(config, trial):
        seen.append((trial, threading.get_ident()))
        return _run_one(config, trial)

    monkeypatch.setattr(harness, "_run_one", one)
    cfg = ExperimentConfig(algo="mconj", epsilon=Fraction(1), trials=4,
                           seed=2, instance=inclass_instance())
    assert [r.trial for r in run_trials(cfg)] == [0, 1, 2, 3]
    assert seen == [(i, threading.get_ident()) for i in range(4)]

    path = gen_file(tmp_path)
    capsys.readouterr()
    argv = ["test", "--instance", str(path), "--algo", "mconj", "--epsilon", "1",
            "--seed", "3"]

    def rows():  # the CSV without its wall_ms column
        assert cli.main(argv) == 0
        return [line.rsplit(",", 1)[0] for line in capsys.readouterr().out.splitlines()]

    monkeypatch.delenv("SUBCUBE_THREADS", raising=False)
    plain = rows()
    monkeypatch.setenv("SUBCUBE_THREADS", "abc")
    assert rows() == plain


def test_cli_test_logs_queries(tmp_path, capsys):
    path = gen_file(tmp_path)
    capsys.readouterr()
    rc = cli.main(["test", "--instance", str(path), "--algo", "dolev-ron",
                   "--epsilon", "1", "--seed", "3", "--log-queries"])
    assert rc == 0
    err = capsys.readouterr().err
    assert "query zeros=" in err
    assert "sample zeros=" in err


@pytest.mark.parametrize("algo", ALGOS)
def test_cli_amplified_log_lists_every_attempt(tmp_path, capsys, algo):
    path = gen_file(tmp_path, variant="yes")
    capsys.readouterr()
    rc = cli.main(["test", "--instance", str(path), "--algo", algo,
                   "--epsilon", "1", "--seed", "3", "--amplify", "2",
                   "--log-queries"])
    assert rc == 0
    captured = capsys.readouterr()
    row = dict(zip(CSV_HEADER, captured.out.splitlines()[1].split(",")))
    kinds = [line.split(" ", 1)[0] for line in captured.err.splitlines()]
    # the yes instance is in class, so both attempts run and accept
    assert row["verdict"] == "accept"
    assert kinds.count("query") == int(row["blackbox_queries"])
    assert kinds.count("sample") == int(row["sample_queries"])
    assert len(kinds) == kinds.count("query") + kinds.count("sample")
    # every attempt's queries come first, then every attempt's samples
    assert kinds == sorted(kinds)


@pytest.mark.parametrize("variant", ["yes", "no"])
def test_cli_conj_logs_in_the_instance_frame(tmp_path, capsys, variant):
    # the conj tester queries and draws through flipped views; the log must
    # still read in the instance's own coordinates
    path = tmp_path / f"{variant}.json"
    assert cli.main(["gen-instance", "--variant", variant, "--n", "16",
                     "--scaled", "h=2,r_blocks=4,m=2,s=1,bps=1", "--seed", "6",
                     "--out", str(path)]) == 0
    inst = load_instance(path)
    f = inst.function
    support = {p.zeros for p, _ in inst.distribution.entries}
    capsys.readouterr()
    rc = cli.main(["test", "--instance", str(path), "--algo", "conj",
                   "--epsilon", "1", "--seed", "2", "--log-queries"])
    assert rc == 0
    seen = {"query": 0, "sample": 0}
    for line in capsys.readouterr().err.splitlines():
        kind, rest = line.split(" zeros=")
        zeros, value = rest.split(" -> ")
        zeros = frozenset(json.loads(zeros))
        assert f.value_at(zeros) == int(value), line
        if kind == "sample":
            assert zeros in support, line
        seen[kind] += 1
    assert seen["query"] > 1 and seen["sample"] > 1


def test_cli_distance_value_and_witness(tmp_path, capsys):
    path = gen_file(tmp_path)
    capsys.readouterr()
    rc = cli.main(["distance", "--instance", str(path), "--class", "mconj"])
    assert rc == 0
    value = capsys.readouterr().out.strip()
    inst = load_instance(path)
    want = exact_distance_mconj(inst.function, inst.distribution)
    num, den = value.split("/")
    assert Fraction(int(num), int(den)) == want == Fraction(1, 3)

    rc = cli.main(["distance", "--instance", str(path), "--class", "mconj",
                   "--witness"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == value
    assert lines[1].startswith("witness: ")
    spec = json.loads(lines[1][len("witness: "):])
    assert spec["type"] == "monotone-conjunction"


def test_cli_violation_graph_and_prune(tmp_path, capsys):
    path = gen_file(tmp_path)
    capsys.readouterr()
    rc = cli.main(["violation", "--instance", str(path), "--epsilon", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "left 0:" in out and "right 0:" in out and "edge: " in out

    rc = cli.main(["violation", "--instance", str(path), "--epsilon", "1",
                   "--emit", "prune-report"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "exit_reason: " in out
    assert "W: " in out


@pytest.mark.parametrize("klass, oracle", [("dlist", exact_distance_dlist),
                                           ("ltf", exact_distance_ltf)])
def test_cli_distance_witness_prints_the_flips(tmp_path, capsys, klass, oracle):
    # x1 xor x2, uniform on the four points of n = 2: each class is a flip away
    n = 2
    f = TruthTable(n, 0b0110)
    dist = FiniteDistribution(n, tuple((zs(n, *z), Fraction(1, 4))
                                       for z in ((), (1,), (2,), (1, 2))))
    path = tmp_path / "xor.json"
    save_instance(path, n, f, dist)
    rc = cli.main(["distance", "--instance", str(path), "--class", klass, "--witness"])
    value, flips = oracle(f, dist, return_witness=True)
    assert rc == 0 and flips
    assert capsys.readouterr().out == (
        f"{fraction_to_str(value)}\nflip: {json.dumps([sorted(p.zeros) for p in flips])}\n")


def _graph_lines(G):
    """The lines `subcube violation` prints for the graph G."""
    return ([f"left {k}: zeros={p.sorted_zeros()} weight={fraction_to_str(w)}"
             for k, (p, w) in enumerate(G.left)]
            + [f"right {k}: index={j} weight={fraction_to_str(w)}"
               for k, (j, w) in enumerate(G.right)]
            + [f"edge: {li} {ri}" for li, ri in G.edges]
            + [f"empty: zeros={p.sorted_zeros()} weight={fraction_to_str(w)}"
               for p, w in G.empty_strings])


def test_cli_prune_report_lists_the_removed_vertices(tmp_path, capsys):
    # a truth table at n = 4 whose pruning removes a left and a right vertex
    # before it finds a cheap cover
    n = 4
    f = TruthTable(n, 0x3ab)
    raw = ((), 1), ((1, 2, 3, 4), 2), ((1, 2, 4), 2), ((2,), 1), ((2, 3), 2), ((3,), 5)
    dist = FiniteDistribution(n, tuple((zs(n, *z), Fraction(w, 13)) for z, w in raw))
    path = tmp_path / "pruned.json"
    save_instance(path, n, f, dist)
    rc = cli.main(["violation", "--instance", str(path), "--epsilon", "1",
                   "--emit", "prune-report"])
    d = compute_parameters(n, 1).d
    report = prune_to_regular(build_violation_bigraph(f, dist), Fraction(1), d)
    assert rc == 0 and report.exit_reason == "cheap-cover-found"
    removed = [f"removed left: zeros={v.sorted_zeros()} weight={fraction_to_str(w)}"
               if side == "left" else f"removed right: index={v} weight={fraction_to_str(w)}"
               for side, v, w in report.removed_S]
    assert {line.split(":")[0] for line in removed} == {"removed left", "removed right"}
    want = [f"exit_reason: {report.exit_reason}", f"rounds: {report.rounds}", f"d: {d}",
            f"W: {fraction_to_str(report.W)}", *removed,
            f"L_prime_size: {len(report.L_prime)}", "G_star:", *_graph_lines(report.G_star)]
    assert capsys.readouterr().out == "".join(line + "\n" for line in want)


@pytest.mark.parametrize("argv, message", [
    (["test", "--instance", "x.json", "--algo", "mconj", "--epsilon", "1",
      "--seed", str(1 << 64)], "argument --seed: seed must fit in 64 bits"),
    (["gen-instance", "--variant", "no", "--n", "60", "--out", "x.json",
      "--scaled", "h4,r_blocks=7,m=3,s=1,bps=2"], "argument --scaled: bad scaled field 'h4'"),
], ids=["seed-past-64-bits", "scaled-field-without-equals"])
def test_cli_bad_arguments_exit_2_naming_the_problem(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.err.splitlines()[-1].endswith(message) and captured.out == ""


def test_cli_experiment_to_stdout_and_file(tmp_path, capsys):
    argv = ["experiment", "--algo", "dolev-ron", "--variant-pair", "yes:no",
            "--n", "60", "--epsilon", "1", "--trials", "2", "--seed", "4",
            "--budget", "0,4", "--out", "-"]
    rc = cli.main(argv)
    assert rc == 0
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert lines[0] == ",".join(EXPERIMENT_HEADER)
    assert len(lines) == 3
    assert captured.err == ""

    out = tmp_path / "sweep.csv"
    argv[-1] = str(out)
    rc = cli.main(argv)
    assert rc == 0
    assert out.read_text().splitlines()[0] == ",".join(EXPERIMENT_HEADER)

    argv[argv.index("dolev-ron")] = "mconj"
    argv[-1] = "-"
    capsys.readouterr()
    rc = cli.main(argv)
    assert rc == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines()[0] == ",".join(EXPERIMENT_HEADER)
    assert captured.err.splitlines() == [
        "note: the sim_* columns run the dolev-ron baseline, not mconj"]


def test_cli_semantic_errors_exit_2(tmp_path, capsys):
    rc = cli.main(["gen-instance", "--variant", "no", "--n", "60",
                   "--out", str(tmp_path / "x.json")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")

    rc = cli.main(["test", "--instance", str(tmp_path / "missing.json"),
                   "--algo", "mconj", "--epsilon", "1"])
    assert rc == 2
    assert "error: " in capsys.readouterr().err


def test_cli_paper_recipe_names_h_and_s(tmp_path, capsys):
    # at n = 4096 the recipe's h rounds down to 0; the error names the
    # recipe's own h > s rule, and no file is written
    out = tmp_path / "x.json"
    rc = cli.main(["gen-instance", "--variant", "yes", "--n", "4096", "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err == "error: paper recipe needs h > s; got h=0, s=144 at n=4096\n"
    assert list(tmp_path.iterdir()) == []


_HUGE_N = str(10 ** 400)
_TINY_EPS = f"1/{10 ** 400}"


@pytest.mark.parametrize("argv", [
    ["experiment", "--algo", "mconj", "--variant-pair", "yes:no", "--n", _HUGE_N,
     "--epsilon", "1/2", "--trials", "1", "--budget", "4", "--out", "-"],
    ["gen-instance", "--variant", "no", "--n", _HUGE_N, "--out", "{tmp}/g.json"],
    ["test", "--instance", "{huge}", "--algo", "mconj", "--epsilon", "1/2"],
    ["test", "--instance", "{small}", "--algo", "mconj", "--epsilon", _TINY_EPS],
    ["test", "--instance", "{small}", "--algo", "dolev-ron", "--epsilon", _TINY_EPS],
    ["violation", "--instance", "{huge}", "--epsilon", "1/2", "--emit", "prune-report"],
    ["violation", "--instance", "{small}", "--epsilon", _TINY_EPS,
     "--emit", "prune-report"],
], ids=["experiment-n", "gen-instance-n", "test-n", "test-epsilon",
        "dolev-ron-epsilon", "prune-report-n", "prune-report-epsilon"])
def test_cli_rules_past_float_range_exit_2(tmp_path, capsys, argv):
    # n = 10^400 (+1 in a file) and epsilon = 10^-400 take n, n/epsilon or
    # epsilon itself past what a float holds
    for name, n in (("huge", 10 ** 400 + 1), ("small", 8)):
        points = (zs(n, 1), zs(n, 2))
        save_instance(tmp_path / f"{name}.json", n, MonotoneConj(n, frozenset({1})),
                      FiniteDistribution(n, tuple((p, Fraction(1, 2)) for p in points)))
    files = {"tmp": tmp_path, "huge": tmp_path / "huge.json",
             "small": tmp_path / "small.json"}
    rc = cli.main([arg.format(**files) for arg in argv])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err
    assert any(value in captured.err
               for value in (_HUGE_N, str(10 ** 400 + 1), _TINY_EPS))
    assert captured.out == ""


_FAR_EPS = Fraction(1, 10 ** 30)


@pytest.mark.parametrize("algo", ALGOS)
def test_cli_plans_past_2_63_draws_exit_2(tmp_path, capsys, algo):
    # at n = 60, epsilon = 10^-30 plans more draws than a run can ever make:
    # a Stage-0 group (mconj), the search for x* (conj), the baseline's
    # samples (dolev-ron). Each is refused before it is drawn, by count
    count = {"mconj": compute_parameters(60, _FAR_EPS).group_size,
             "conj": 3 * 10 ** 30,
             "dolev-ron": math.ceil(Fraction(2 * math.sqrt(60) * math.log2(60)) / _FAR_EPS)}
    assert count[algo] > 1 << 63
    inst = generate_instance(SMALL_LB, "no", RandomStream(5))
    save_instance(tmp_path / "demo.json", inst.n, inst.function, inst.distribution)
    started = time.perf_counter()
    rc = cli.main(["test", "--instance", str(tmp_path / "demo.json"), "--algo", algo,
                   "--epsilon", str(_FAR_EPS)])
    assert time.perf_counter() - started < 1
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and f" {count[algo]} draws" in captured.err
    assert str(_FAR_EPS) in captured.err and "n = 60" in captured.err


def test_cli_experiment_budget_past_2_63_draws_exits_2(tmp_path, capsys):
    # the sim world runs the baseline with exactly budget draws: a budget
    # past 2^63 is refused before the output is opened
    out = tmp_path / "e.csv"
    started = time.perf_counter()
    rc = cli.main(["experiment", "--algo", "dolev-ron", "--variant-pair", "yes:no",
                   "--n", "60", "--epsilon", "1", "--trials", "1",
                   "--budget", str(10 ** 30), "--out", str(out)])
    assert time.perf_counter() - started < 1
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and f" {10 ** 30} draws" in captured.err
    assert not out.exists()


def test_sweep_budgets_stop_at_2_63_draws():
    sweep = dict(algo="mconj", params=SMALL_LB, yes_variant="yes", no_variant="no",
                 epsilon=1, trials=1, seed=0)
    assert len(harness.sweep_configs(**sweep, budgets=[1 << 63])) == 4
    with pytest.raises(ValueError, match=f"{(1 << 63) + 1} draws"):
        harness.sweep_configs(**sweep, budgets=[(1 << 63) + 1])


# the CLI under a 2 GiB address-space limit, so that a huge allocation fails
_LIMITED_CLI = ("import resource, sys; "
                "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30)); "
                "from subcube.cli import main; sys.exit(main(sys.argv[1:]))")


def _run_limited_cli(path, algo, epsilon="1"):
    src = os.path.dirname(os.path.dirname(subcube.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, "-c", _LIMITED_CLI, "test", "--instance",
                           str(path), "--algo", algo, "--epsilon", epsilon, "--seed", "1"],
                          capture_output=True, text=True, env=env, timeout=300)


@pytest.mark.parametrize("algo", ["mconj", "conj"])
def test_cli_allocation_failure_exits_2(tmp_path, algo):
    # at n = 10^17 the searches of {1} are still pending after x*, so
    # Stage 0 draws group 0 as samples: 4,442,001,630 of them, whose 4.14
    # GiB of indices do not fit, so the run fails to allocate them; that
    # must end in an error line, not a traceback
    n = 10 ** 17
    path = tmp_path / "deep.json"
    save_instance(path, n, MonotoneConj(n, frozenset({1})), FiniteDistribution(
        n, ((zs(n), Fraction(3, 4)), (zs(n, 1), Fraction(1, 4)))))
    proc = _run_limited_cli(path, algo)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_cli_stage0_allocation_failure_names_group_size_n_and_epsilon(tmp_path, capsys):
    # the README's demo instance at epsilon = 1/1000: group 0 alone is
    # 3,023,304,000 samples, whose labels do not fit in 2 GiB; the error
    # names the three numbers that set that size
    path = tmp_path / "demo.json"
    assert cli.main(["gen-instance", "--variant", "no", "--n", "60", "--scaled",
                     "h=4,r_blocks=7,m=3,s=1,bps=2", "--seed", "5", "--out", str(path)]) == 0
    capsys.readouterr()
    size = tester_module.compute_parameters(60, Fraction(1, 1000)).group_size
    proc = _run_limited_cli(path, "mconj", "1/1000")
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
    assert all(part in proc.stderr for part in (f"group_size = {size}", "n = 60",
                                                "epsilon = 1/1000"))
    assert proc.stdout == ""


@pytest.mark.parametrize("epsilon", ["1/32", "1/100"])
def test_cli_demo_rejects_at_step_1_1_from_group_0_alone(tmp_path, capsys, epsilon):
    # the README's demo instance: Stage 1 rejects from group 0's B, so no
    # later group's facts are drawn, where a record of each of the 2.5e10
    # groups at epsilon = 1/100 ran out of 2 GiB
    path = tmp_path / "demo.json"
    assert cli.main(["gen-instance", "--variant", "no", "--n", "60", "--scaled",
                     "h=4,r_blocks=7,m=3,s=1,bps=2", "--seed", "5", "--out", str(path)]) == 0
    capsys.readouterr()
    proc = _run_limited_cli(path, "mconj", epsilon)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[1].startswith("0,reject,step-1.1,")


def test_cli_stage1_allocation_failure_names_s_n_and_epsilon(tmp_path):
    # n = 2^70, both points 1-labelled by a decision list, which no quiet
    # run reads as a conjunction: B0 = {1}, and Stage 1's s = 3.6e12
    # singleton probes do not fit in 2 GiB; the error names s, n and epsilon
    n = 1 << 70
    path = tmp_path / "wide.json"
    save_instance(path, n, DecisionList(n, ((1, 1),), 1), FiniteDistribution(
        n, ((zs(n), Fraction(1, 2)), (zs(n, 1), Fraction(1, 2)))))
    proc = _run_limited_cli(path, "mconj")
    s = tester_module.compute_parameters(n, 1).s
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
    assert all(part in proc.stderr for part in (f"s = {s}", f"n = {n}", "epsilon = 1"))
    assert proc.stdout == ""


def _deep_all_ones(tmp_path):
    # n = 10^17, every support point 1-labelled: Stage 0 draws every group as
    # its facts, from class and missing cuts over 4^group_size and 4^t
    n = 10 ** 17
    path = tmp_path / "deep-ones.json"
    save_instance(path, n, MonotoneConj(n, frozenset()), FiniteDistribution(
        n, ((zs(n), Fraction(3, 4)), (zs(n, 1), Fraction(1, 4)))))
    return path


@pytest.mark.parametrize("algo, samples", [("mconj", 45202257229044630),
                                           ("conj", 45202257229044631)])
def test_cli_facts_path_reads_its_cuts_through_brackets(tmp_path, algo, samples):
    # the cuts' brackets decide every word, so no exact power of 4 with
    # billions of bits is built and the run ends at group 1 (no 0-sample)
    proc = _run_limited_cli(_deep_all_ones(tmp_path), algo)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[1].startswith(
        f"0,accept,stage2-no-zero,168796061941,{samples},")


# _LIMITED_CLI with every batch word rigged to 0, which lies inside the
# bracket [0, 0] of a cut of 0
_RIGGED_CLI = _LIMITED_CLI.replace(
    "from subcube.cli", "import numpy as np; from subcube.rng import RandomStream; "
    "RandomStream._words = lambda self, k: np.zeros(k, dtype=np.uint64); from subcube.cli")


def test_cli_word_inside_a_bracket_past_the_exact_bits_exits_2(tmp_path):
    # group 0's class law holds few = 0, whose bracket is [0, 0]: word 0
    # asks for the exact cuts over 4^group_size, which are refused, and the
    # error names group_size, n and epsilon
    src = os.path.dirname(os.path.dirname(subcube.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", _RIGGED_CLI, "test", "--instance",
                           str(_deep_all_ones(tmp_path)), "--algo", "mconj", "--epsilon", "1"],
                          capture_output=True, text=True, env=env, timeout=300)
    size = tester_module.compute_parameters(10 ** 17, 1).group_size
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
    assert all(part in proc.stderr for part in (f"group_size = {size}", f"n = {10 ** 17}",
                                                "epsilon = 1"))
    assert proc.stdout == ""


@pytest.mark.parametrize("algo, samples", [("mconj", 120590417700000),
                                           ("conj", 120590417700001)])
def test_cli_conjunction_box_holds_no_table_over_the_coordinates(tmp_path, algo, samples):
    # n = 10^12: a table of one byte per coordinate would take 931 GiB. The
    # box reads the conjunction's P as a set, so the run fits in 2 GiB; conj
    # draws one more sample, x*
    n = 10 ** 12
    path = tmp_path / "wide.json"
    save_instance(path, n, MonotoneConj(n, frozenset()), FiniteDistribution(
        n, ((zs(n), Fraction(1, 2)), (zs(n, 1), Fraction(1, 2)))))
    proc = _run_limited_cli(path, algo)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[1].startswith(
        f"0,accept,stage2-no-zero,1272000001,{samples},")


def test_cli_tester_holds_no_table_over_the_coordinates(tmp_path):
    # n = 2^33: a support x (n + 1) table of zero flags would take 24 GiB,
    # and the run fits in 2 GiB: {1, 2} is 0-labelled and its search
    # returns nil
    n = 1 << 33
    path = tmp_path / "wide.json"
    save_instance(path, n, DecisionList(n, ((1, 1), (2, 1)), 0), FiniteDistribution(
        n, tuple((zs(n, *zeros), Fraction(1, 3)) for zeros in ((), (1,), (1, 2)))))
    proc = _run_limited_cli(path, "mconj")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[1].startswith("0,reject,stage0-nil-representative,3,6690816,")


def test_cli_coordinate_past_int64_exits_2(tmp_path):
    # n = 2^70, one 1-labelled point whose zero 2^69 no numpy integer holds:
    # Stage 0 ends at group 1 (no 0-sample), and holding B's coordinates
    # overflows; that must end in an error line, not a traceback
    n = 1 << 70
    path = tmp_path / "wide.json"
    save_instance(path, n, DecisionList(n, ((1, 1),), 0), FiniteDistribution(
        n, ((zs(n, 1 << 69), Fraction(1)),)))
    proc = _run_limited_cli(path, "mconj")
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_cli_names_a_memory_error_without_a_message(monkeypatch, capsys):
    def out_of_memory(args):
        raise MemoryError

    monkeypatch.setitem(cli._COMMANDS, "distance", out_of_memory)
    rc = cli.main(["distance", "--instance", "x.json", "--class", "mconj"])
    assert rc == 2
    assert capsys.readouterr().err == "error: MemoryError\n"


_SCALED_KEYS = ("h", "r_blocks", "m", "s", "bps")
# feasible values in a random order; hypothesis favours mutation 0, no change
_SCALED_FIELDS = st.builds(
    lambda values, order: [(key, str(values[key])) for key in order],
    st.fixed_dictionaries({"h": st.integers(1, 4), "r_blocks": st.integers(4, 8),
                           "m": st.integers(1, 3), "s": st.integers(0, 2),
                           "bps": st.integers(1, 2)}),
    st.permutations(_SCALED_KEYS))


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 64), variant=st.sampled_from(["yes", "no", "yes-ltf", "no-ltf"]),
       fields=_SCALED_FIELDS, mutation=st.integers(0, 7),
       key=st.sampled_from(_SCALED_KEYS + ("k",)),
       text=st.sampled_from(["", "x", " 3", "1_0", "+2", "2.5", "0", "-1"]))
def test_cli_scaled_fuzz_writes_its_params_or_exits_2(n, variant, fields, mutation,
                                                      key, text):
    # each string either writes a sidecar with exactly its values or exits 2
    if mutation == 1:
        fields = fields[1:]
    elif mutation == 2:
        fields = fields + [(key, "2")]  # a repeated or an unknown key
    elif mutation >= 3:
        fields[0] = (fields[0][0], text)
    text = ",".join(f"{key}={value}" for key, value in fields)
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "inst.json")
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            try:
                rc = cli.main(["gen-instance", "--variant", variant, "--n", str(n),
                               f"--scaled={text}", "--out", out])
            except SystemExit as exc:  # argparse rejects the option itself
                rc = exc.code
        assert "Traceback" not in err.getvalue()
        if rc != 0:
            assert rc == 2 and "error:" in err.getvalue()
            return
        assert sorted(key for key, _ in fields) == sorted(_SCALED_KEYS)
        want = {key: int(value) for key, value in fields}
        want["blocks_per_side"] = want.pop("bps")
        with open(out + ".sidecar.json", encoding="utf-8") as fh:
            assert json.load(fh)["params"] == {"n": n, **want}


def _violation_function(kind, n, coords, bits):
    """A function object of the instance file format over 1..n."""
    picked = [c for c in coords if c <= n]
    if kind == "mconj":
        return {"type": "monotone-conjunction", "n": n, "required": picked[:2]}
    if kind == "conj":
        return {"type": "conjunction", "n": n, "required_one": picked[:1],
                "required_zero": picked[1:3]}
    if kind == "dlist":
        return {"type": "decision-list", "n": n,
                "rules": [[-c if c % 2 else c, c % 2] for c in picked], "default": 1}
    if kind == "table":
        return {"type": "truth-table", "n": n, "bits": hex(bits % (1 << (1 << min(n, 4))))}
    return {"type": "flipped", "coords": picked[:2],
            "inner": _violation_function("conj", n, coords, bits)}


# malformed values for an instance file, and --epsilon values, good ones
# first (hypothesis favours them), then out-of-range and malformed ones
_BAD_WEIGHTS = ["0", "-1/2", "1/0", "x", "1e-400", "1e-100000000", "nan", 0.5, None, [1]]
_BAD_N = [0, -1, "3", 3.0, True, None]
_EPSILONS = ["1", "1/2", "1/3", "0", "-1/2", "3/2", "1/0", "x", "1e-400", "1e-100000000",
             ""]


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 6), kind=st.sampled_from(["mconj", "conj", "dlist", "table",
                                                  "flipped"]),
       coords=st.lists(st.integers(1, 6), max_size=4, unique=True),
       bits=st.integers(0, 1 << 16),
       points=st.lists(st.lists(st.integers(1, 6), max_size=4, unique=True),
                       min_size=1, max_size=5),
       mutation=st.integers(0, 6), bad=st.integers(0, 20),
       epsilon=st.sampled_from(_EPSILONS),
       emit=st.sampled_from(["graph", "prune-report"]))
def test_cli_violation_fuzz_exits_0_or_2(n, kind, coords, bits, points, mutation, bad,
                                         epsilon, emit):
    # random and malformed instance files and --epsilon values end in exit 0,
    # or in exit 2 with "error:" on stderr, never in a traceback
    obj = {"n": n, "function": _violation_function(kind, n, coords, bits),
           "distribution": [{"zeros": [c for c in zeros if c <= n],
                             "weight": f"1/{len(points)}"} for zeros in points]}
    rows = obj["distribution"]
    if mutation == 1:  # a weight that is not a positive rational
        rows[0]["weight"] = _BAD_WEIGHTS[bad % len(_BAD_WEIGHTS)]
    elif mutation == 2:  # a repeated point
        rows.append(dict(rows[0]))
    elif mutation == 3:  # a coordinate outside 1..n
        rows[-1]["zeros"] = rows[-1]["zeros"] + [(n + 1, 0, -1)[bad % 3]]
    elif mutation == 4:  # an n that is not a positive integer
        obj["n"] = _BAD_N[bad % len(_BAD_N)]
    elif mutation == 5:  # a zero weight beside weights that sum to 1
        rows.append({"zeros": [n] if [n] not in points else [], "weight": "0"})
    elif mutation == 6:  # a missing key
        del rows[0]["weight" if bad % 2 else "zeros"]
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "inst.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            try:
                rc = cli.main(["violation", "--instance", path, f"--epsilon={epsilon}",
                               "--emit", emit])
            except SystemExit as exc:  # argparse rejects the option itself
                rc = exc.code
    assert "Traceback" not in err.getvalue()
    assert rc == 0 or (rc == 2 and "error:" in err.getvalue()), (rc, err.getvalue())


@pytest.mark.parametrize("weight, epsilon, message", [
    ("1e-100000000", "1", "distribution[0].weight: '1e-100000000' is not an integer or num/den"),
    ("1", "1e-100000000", "argument --epsilon: not a rational: '1e-100000000'"),
])
def test_cli_refuses_exponent_rationals_at_once(tmp_path, capsys, weight, epsilon, message):
    # Fraction(str) expands 1eK into 10^K, which takes seconds to minutes
    # before it fails; only an integer or num/den is read, so both end at once
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({
        "n": 1, "function": {"type": "monotone-conjunction", "n": 1, "required": [1]},
        "distribution": [{"zeros": [], "weight": weight}]}))
    started = time.perf_counter()
    try:
        rc = cli.main(["test", "--instance", str(path), "--algo", "mconj",
                       "--epsilon", epsilon, "--seed", "0"])
    except SystemExit as exc:  # argparse rejects the option itself
        rc = exc.code
    assert time.perf_counter() - started < 1
    assert rc == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("emit", ["graph", "prune-report"])
def test_cli_violation_n1_exits_2_on_prune_report_only(tmp_path, capsys, emit):
    # at n = 1 the graph is defined, but the prune report needs d, which
    # compute_parameters refuses below n = 2
    path = tmp_path / "n1.json"
    save_instance(path, 1, MonotoneConj(1, frozenset({1})),
                  FiniteDistribution(1, ((zs(1, 1), Fraction(1, 2)), (zs(1), Fraction(1, 2)))))
    rc = cli.main(["violation", "--instance", str(path), "--epsilon", "1", "--emit", emit])
    captured = capsys.readouterr()
    if emit == "graph":
        assert rc == 0 and "right 0: index=1 " in captured.out
    else:
        assert rc == 2 and captured.err.startswith("error: ") and "n must be" in captured.err
