"""Seeded trial runner, query accounting, and budget-sweep experiments.

Trials run in order on the calling thread, each on an RNG substream
derived from (seed, trial id), so a trial's result does not depend on the
trials before it in the batch. Each trial also owns one
QueryTranscript, shared by all its oracles and amplification attempts: its
counts are the trial's query counts, and its limit is the trial's budget.
A budget overrun surfaces as a forced accept, which keeps every tester
one-sided under any budget. Distinguishing experiments also run each trial
in the simulated world of its instance, one object that is both the
trial's sampler and the function behind its black box.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, replace
from fractions import Fraction
from math import log2
from typing import Optional

from .adversarial import LBInstance, LBParams, generate_instance, simulate_p
from .model import (
    BlackBox,
    BudgetExceeded,
    FunctionSpec,
    QueryTranscript,
    Sampler,
)
from .rng import RandomStream
from .tester import (
    TesterParams,
    Verdict,
    _epsilon,
    amplify,
    baseline_dolev_ron,
    ceil_log2,
    test_general_conjunction,
    test_monotone_conjunction,
)

__all__ = [
    "ALGOS",
    "CSV_HEADER",
    "EXPERIMENT_HEADER",
    "ExperimentConfig",
    "TrialResult",
    "run_trials",
    "write_trials_csv",
    "query_budget_report",
    "distinguishing_experiment",
    "sweep_configs",
    "write_experiment_csv",
]

ALGOS = ("mconj", "conj", "dolev-ron")
CSV_HEADER = ("trial", "verdict", "reason", "blackbox_queries",
              "sample_queries", "wall_ms")
EXPERIMENT_HEADER = ("budget", "yes_accept", "no_accept", "gap",
                     "sim_yes_accept", "sim_no_accept", "sim_gap")


def worker_count() -> int:
    """1: every batch runs on the calling thread. Kept only for the
    benchmark harness, which still reports it."""
    return 1


@dataclass
class ExperimentConfig:
    """One batch of tester trials.

    Exactly one of instance (a fixed (function, distribution) pair) or
    generator (an (LBParams, variant) pair drawn fresh per trial) must be
    set. budget caps the black-box queries and, separately, the samples of
    each trial, across all its amplification attempts; when set it is also
    the exact sample count of the dolev-ron algorithm.
    """

    algo: str
    epsilon: Fraction
    trials: int
    seed: int
    amplify_k: int = 1
    instance: Optional[tuple] = None  # (n, FunctionSpec, FiniteDistribution)
    generator: Optional[tuple] = None  # (LBParams, variant)
    budget: Optional[int] = None
    log_queries: bool = False

    def __post_init__(self):
        if self.algo not in ALGOS:
            raise ValueError(f"unknown algo {self.algo!r}")
        _epsilon(self.epsilon)
        if self.trials < 0:
            raise ValueError("trials must be >= 0")
        if self.amplify_k < 1:
            raise ValueError("amplify must be >= 1")
        if self.budget is not None and self.budget < 0:
            raise ValueError("budget must be >= 0")
        if (self.instance is None) == (self.generator is None):
            raise ValueError("set exactly one of instance and generator")

    @property
    def n(self) -> int:
        if self.instance is not None:
            return self.instance[0]
        return self.generator[0].n


@dataclass
class TrialResult:
    """One CSV row plus the deciding verdict (None on a budget overrun), the
    trial's transcript, the number of attempts that ran, and the generated
    instance (None for a fixed one)."""

    trial: int
    accepted: bool
    reason: str
    blackbox_queries: int
    sample_queries: int
    wall_ms: int
    verdict: Optional[Verdict]
    transcript: QueryTranscript
    attempts: int
    instance: Optional[LBInstance] = None

    @property
    def outcome(self) -> str:
        return "accept" if self.accepted else "reject"


def _run_one(config: ExperimentConfig, trial: int,
             rng: Optional[RandomStream] = None,
             inst: Optional[LBInstance] = None,
             sim: bool = False, sampler: Optional[Sampler] = None) -> TrialResult:
    """One trial on its own stream, by default split("trial", trial).

    The trial runs on inst when it is given. Otherwise a generator config
    draws its instance from rng.split("instance"), and an instance config
    runs on its fixed instance. With sim set, the trial runs in the
    simulated world of the generated instance (_SimWorld) instead of against
    its real oracles; that world can only drive the dolev-ron baseline.
    sampler, the instance's Sampler, is built here when not given, on the
    labels a generated instance was validated with; each attempt draws
    through a copy of it on the attempt's own streams.
    """
    if rng is None:
        rng = RandomStream(config.seed).split("trial", trial)
    started = time.perf_counter()
    if inst is None and config.generator is not None:
        params, variant = config.generator
        inst = generate_instance(params, variant, rng.split("instance"))
    if inst is not None:
        n, func, dist = inst.n, inst.function, inst.distribution
    else:
        n, func, dist = config.instance
    tr = QueryTranscript(log_queries=config.log_queries, limit=config.budget)
    if sampler is None:
        sampler = (Sampler(dist, func, tr, rng) if inst is None
                   else Sampler._labelled(dist, func, tr, rng, inst._labels))
    attempts = 0

    def attempt(sub: RandomStream) -> Verdict:
        nonlocal attempts
        attempts += 1
        if sim:
            view = _SimWorld(inst, sub.split("samples"), tr, sampler)
            oracle = BlackBox(view, tr)
        else:
            oracle = BlackBox(func, tr)
            view = sampler.rebind(tr, sub.split("samples"))
        if config.algo == "dolev-ron":
            return baseline_dolev_ron(oracle, view, n, config.epsilon,
                                      num_samples=config.budget)
        tester = (test_monotone_conjunction if config.algo == "mconj"
                  else test_general_conjunction)
        return tester(oracle, view, n, config.epsilon, sub.split("tester"))

    try:
        verdict = amplify(attempt, config.amplify_k, rng)
        accepted, reason = verdict.accepted, verdict.reason
    except BudgetExceeded:
        verdict = None
        accepted, reason = True, "budget-exhausted"
    wall_ms = int((time.perf_counter() - started) * 1000)
    return TrialResult(
        trial=trial, accepted=accepted, reason=reason,
        blackbox_queries=tr.blackbox_count, sample_queries=tr.sample_count,
        wall_ms=wall_ms, verdict=verdict, transcript=tr, attempts=attempts,
        instance=inst)


def run_trials(config: ExperimentConfig) -> list[TrialResult]:
    """Run the batch's trials in order, on the calling thread."""
    return [_run_one(config, i) for i in range(config.trials)]


def write_trials_csv(fh, results: list[TrialResult]) -> None:
    """Emit the fixed-schema trial rows to an open text file."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for r in results:
        writer.writerow([r.trial, r.outcome, r.reason, r.blackbox_queries,
                         r.sample_queries, r.wall_ms])


_EARLY_REASONS = frozenset({"stage0-allones", "stage0-nil-representative",
                            "budget-exhausted"})


def query_budget_report(results: list[TrialResult], params: TesterParams,
                        n: int) -> dict:
    """Check every trial's query counts against the closed-form budget.

    Applies to the three-stage monotone tester. Requires unamplified,
    unbudgeted trials. Asserts that the sample count of every trial that
    got past Stage 0 equals the fixed Stage-0 sample count, and that
    black-box queries stay at or below
    1 + S*2*ceil(log2 n) + 2s + d_star*(2*ceil(log2 n) + 2), with S the
    trial's number of representative searches (each distinct 0-labelled
    point is searched once, with at most 2*ceil(log2 n) queries). Reports
    the ratio of the mean total query count to
    (n^(1/3)/eps^5) * log2(n/eps)^7.
    """
    if not results:
        raise ValueError("no results to report on")
    lg = ceil_log2(n)
    worst_ratio = 0.0
    totals = []
    for r in results:
        if r.reason == "budget-exhausted":
            raise ValueError("query accounting needs unbudgeted trials")
        if r.attempts != 1:
            raise ValueError("query accounting needs unamplified trials")
        if r.reason not in _EARLY_REASONS:
            if r.sample_queries != params.stage0_samples:
                raise AssertionError(
                    f"trial {r.trial}: sample_count {r.sample_queries} != "
                    f"stage0 sample count {params.stage0_samples}")
        bound = (1 + r.verdict.searches * 2 * lg + 2 * params.s
                 + params.d_star * (2 * lg + 2))
        if r.blackbox_queries > bound:
            raise AssertionError(
                f"trial {r.trial}: blackbox_count {r.blackbox_queries} "
                f"exceeds bound {bound}")
        totals.append(r.blackbox_queries + r.sample_queries)
        worst_ratio = max(worst_ratio, r.blackbox_queries / bound)
    eps = float(params.epsilon)
    closed_form = (n ** (1.0 / 3.0) / eps ** 5) * log2(n / eps) ** 7
    return {
        "trials": len(results),
        "mean_total_queries": sum(totals) / len(totals),
        "max_total_queries": max(totals),
        "closed_form": closed_form,
        "ratio_to_closed_form": (sum(totals) / len(totals)) / closed_form,
        "worst_blackbox_fraction_of_bound": worst_ratio,
    }


# ---------------------------------------------------------------------------
# distinguishing experiments


class _SimWorld(FunctionSpec):
    """The simulated world of a generated instance: the strong sampling
    oracle and the no-black-box responder, sharing Gamma.

    value_at is the responder, p(z, R, Gamma). draws(k) takes k strong
    samples through the instance's Sampler, charging and logging each one:
    a draw of c^k reveals C_k and its special index alpha_k, which joins
    Gamma, and is logged as (zeros, alpha_k); every other draw is logged
    with None. Each draw is labelled with the response bit at draw time, so
    labels can disagree with the hidden function exactly the way answers
    do. The same object backs the trial's BlackBox and is its
    sampler: draws(k) is all the pair-sampling baseline asks of one.
    """

    def __init__(self, inst: LBInstance, rng: RandomStream,
                 transcript: QueryTranscript, sampler: Sampler):
        self.n = inst.n
        self.inst = inst
        self.transcript = transcript
        self.gamma: set = set()
        # the instance's sampler, drawing on this world's stream and transcript
        self._sampler = sampler.rebind(transcript, rng)

    def value_at(self, zeros: frozenset) -> int:
        return simulate_p(zeros, self.inst.R, self.gamma)

    def draws(self, k: int):
        inst, t = self.inst, self.transcript
        for chunk in self._sampler._counted(k):
            for idx in chunk.tolist():
                kind, i = inst.support_kinds[idx]
                point = inst.distribution.entries[idx][0]
                gamma = inst.alpha[i - 1] if kind == "c" else None
                if gamma is not None:
                    self.gamma.add(gamma)
                if t.log_queries:
                    t.sample_log.append((point.zeros, gamma))
                yield point, self.value_at(point.zeros)


_WORLDS = ("real", "sim")


def sweep_configs(algo: str, params: LBParams, yes_variant: str,
                  no_variant: str, epsilon, trials: int, seed: int,
                  budgets: list, amplify_k: int = 1) -> dict:
    """The config of every (budget, world, variant) cell of a budget sweep.

    Checks every argument of distinguishing_experiment, and raises
    ValueError on a bad one, before anything is drawn. The sim world always
    runs the dolev-ron baseline.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if any(q < 0 for q in budgets):
        raise ValueError("budgets must be >= 0")
    base = ExperimentConfig(algo=algo, epsilon=Fraction(epsilon),
                            trials=trials, seed=seed, amplify_k=amplify_k,
                            generator=(params, yes_variant))
    return {(q, world, variant): replace(
                base, generator=(params, variant), budget=q,
                algo=algo if world == "real" else "dolev-ron")
            for q in budgets for world in _WORLDS
            for variant in (yes_variant, no_variant)}


def distinguishing_experiment(algo: str, params: LBParams, yes_variant: str,
                              no_variant: str, epsilon, trials: int, seed: int,
                              budgets: list, amplify_k: int = 1) -> list[dict]:
    """Acceptance gap between yes and no draws as a function of the budget.

    For every budget q, every oracle is capped at q calls (budget overruns
    force an accept) and the dolev-ron algorithm is sized to draw exactly q
    samples. The sim columns replay the same protocol in the simulated
    world, whose responder answers queries from (R, Gamma) alone.
    They always run the dolev-ron baseline, whatever algo is: the primary
    tester's batch sampling does not interoperate with a responder whose
    answers depend on draw order.

    Trial i of a variant draws one validated instance from split("exp",
    "instance", variant, i), and every budget in both worlds runs on it,
    each run on its own stream split("exp", q, world, variant, i). Only one
    instance is held at a time, with the one Sampler for all its runs, on
    the labels that validating the instance checked. The instance stream is
    independent of the run streams, so each rate is an unbiased estimate
    with the same law as if every run drew its own instance; the rows are
    paired across budgets and worlds (common random numbers), which makes
    the gap curve smoother in q.
    """
    configs = sweep_configs(algo, params, yes_variant, no_variant, epsilon,
                            trials, seed, budgets, amplify_k)
    stream = RandomStream(seed)
    accepted = dict.fromkeys(configs, 0)
    for i in range(trials):
        for variant in dict.fromkeys((yes_variant, no_variant)):
            inst = generate_instance(
                params, variant, stream.split("exp", "instance", variant, i))
            sampler = Sampler._labelled(inst.distribution, inst.function,
                                        QueryTranscript(), stream, inst._labels)
            for (q, world, v), config in configs.items():
                if v == variant:
                    run = stream.split("exp", q, world, variant, i)
                    accepted[q, world, v] += _run_one(
                        config, i, run, inst, world == "sim", sampler).accepted
    rows = []
    for q in budgets:
        rates = {(world, variant): accepted[q, world, variant] / trials
                 for world in _WORLDS for variant in (yes_variant, no_variant)}
        rows.append({
            "budget": q,
            "yes_accept": rates[("real", yes_variant)],
            "no_accept": rates[("real", no_variant)],
            "gap": rates[("real", yes_variant)] - rates[("real", no_variant)],
            "sim_yes_accept": rates[("sim", yes_variant)],
            "sim_no_accept": rates[("sim", no_variant)],
            "sim_gap": (rates[("sim", yes_variant)]
                        - rates[("sim", no_variant)]),
        })
    return rows


def write_experiment_csv(fh, rows: list[dict]) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(EXPERIMENT_HEADER)
    for row in rows:
        writer.writerow([row["budget"]] + [
            "%.6f" % row[key] for key in EXPERIMENT_HEADER[1:]])
