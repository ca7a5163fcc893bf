"""The benchmark's three workloads: inputs drawn from a seed, one timed pass,
and the contract checks that decide whether each operation was correct.

Every call into the package goes through a module attribute looked up at
call time (``sc.harness.run_trials``, not a name bound at import), so the
tracer in ``tracing.py`` can swap in its wrappers after this module loads.
"""

from __future__ import annotations

import hashlib
import io
import time
from dataclasses import asdict, dataclass
from fractions import Fraction

import subcube as sc

# One RNG stream per role, all split from the run's seed.
ROOT_LABEL = "perfbench"


class Digest:
    """sha256 over every output that the determinism contract covers."""

    def __init__(self):
        self._h = hashlib.sha256()

    def add(self, *values) -> None:
        self._h.update(repr(values).encode("utf-8") + b"\n")

    def hexdigest(self) -> str:
        return self._h.hexdigest()


class Checks:
    """Operations attempted and failed; an operation fails on any broken
    contract check or any exception it raises."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def op(self, label: str, body) -> None:
        """Run body(require) as one operation; require(ok, what) records a
        check, and the operation fails when any check or the body fails."""
        self.attempted += 1
        broken: list[str] = []

        def require(ok, what: str) -> None:
            if not ok:
                broken.append(what)

        try:
            body(require)
        except Exception as exc:  # an exception is a failed operation
            broken.append(f"raised {type(exc).__name__}: {exc}")
        if broken:
            self.failed += 1
            if len(self.messages) < 50:
                self.messages.append(f"{label}: {'; '.join(broken)}")


@dataclass
class PassContext:
    """What one pass writes to: checks, digest and per-op seconds; plus the
    hook that names the current op for the tracer, and the one that runs
    the calibration kernel between operations."""

    checks: Checks
    digest: Digest
    ops: dict
    set_label: object = lambda label: None
    calibrate: object = lambda: None

    def record(self, name: str, seconds: float) -> None:
        self.ops.setdefault(name, []).append(seconds)


def _stream(seed: int, *labels) -> sc.RandomStream:
    return sc.RandomStream(seed).split(ROOT_LABEL, *labels)


def _derived_seed(seed: int, *labels) -> int:
    return _stream(seed, "seed", *labels).randrange(1 << 62)


# ---------------------------------------------------------------------------
# input drawing, as the acceptance criteria draw them (restated here so the
# benchmark does not import the test suite)


def rand_fractions(rng, k):
    nums = [rng.randrange(9) + 1 for _ in range(k)]
    total = sum(nums)
    return [Fraction(v, total) for v in nums]


def rand_points(rng, n, k):
    seen = set()
    out = []
    while len(out) < k:
        zeros = frozenset(rng.sample(list(range(1, n + 1)), rng.randrange(n + 1)))
        if zeros not in seen:
            seen.add(zeros)
            out.append(sc.ZeroSet(n, zeros))
    return out


def rand_dist(rng, n, k, points=None):
    pts = points if points is not None else rand_points(rng, n, k)
    return sc.FiniteDistribution(n, tuple(zip(pts, rand_fractions(rng, k))))


def one_points(rng, f, k):
    """k distinct random points on which the conjunction f is 1."""
    if isinstance(f, sc.GeneralConj):
        forced, banned = f.required_zero, f.required_one | f.required_zero
    else:
        forced, banned = frozenset(), f.required
    free = [i for i in range(1, f.n + 1) if i not in banned]
    seen = set()
    while len(seen) < min(k, 1 << len(free)):
        seen.add(forced | frozenset(rng.sample(free, rng.randrange(len(free) + 1))))
    return [sc.ZeroSet(f.n, z) for z in sorted(seen, key=sorted)]


def random_mconj(rng, n):
    k = rng.randrange(min(n, 6) + 1)
    return sc.MonotoneConj(n, frozenset(rng.sample(list(range(1, n + 1)), k)))


def random_conj(rng, n):
    idx = rng.sample(list(range(1, n + 1)), rng.randrange(min(n, 6) + 1))
    cut = rng.randrange(len(idx) + 1)
    return sc.GeneralConj(n, frozenset(idx[:cut]), frozenset(idx[cut:]))


# 14 distinct primes from this pool make a common denominator of ~106 bits,
# past the 62-bit bound of the batched sampler.
_BIGDEN_PRIMES = (131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191,
                  193, 197, 199, 211, 223, 227, 229, 233, 239, 241, 251)


def bigden_dist(rng, n, k=16):
    """k random points whose weights have 14 distinct prime denominators."""
    pts = rand_points(rng, n, k)
    primes = rng.sample(list(_BIGDEN_PRIMES), 14)
    weights = [Fraction(p // k, p) for p in primes]
    rest = 1 - sum(weights)
    weights += [rest / 2] * (k - 14 - 1) + [rest - rest / 2 * (k - 14 - 1)]
    return sc.FiniteDistribution(n, tuple(zip(pts, weights)))


def ones_mass(f, dist) -> Fraction:
    return sum((w for p, w in dist.entries if f.value_at(p.zeros)), Fraction(0))


# The ones mass p1 decides how far a trial replays the tape. A Stage-1 group
# of 3t/eps samples holds t 1-samples when p1 is about eps/3: well below,
# the trial ends after the first replayed group; well above, it replays
# every group. Each run draws the same mix of strata, so runs on different
# seeds do the same work. Above 2/3 the conj tester finds its 1-string in
# three draws but for a chance of at most 1/27, and a zero mass of at least
# 1/6 keeps every Stage-2 group supplied with a 0-sample.
def stratum_bounds(stratum: str, epsilon: Fraction):
    if stratum == "low":
        return Fraction(0), epsilon / 4
    return Fraction(2, 3), Fraction(5, 6)


CANDIDATES = 8


def stratified_instance(rng, n, epsilon, algo, stratum, bigden):
    """A criterion-01 instance whose ones mass lies in the stratum.

    A "low" candidate is a criterion-01 draw; a "high" one puts 12 of its 16
    points on the function's 1-points. The first of CANDIDATES candidates
    that lands in the stratum is used; all CANDIDATES are always drawn, so
    set-up costs the same on every seed.
    """
    lo, hi = stratum_bounds(stratum, epsilon)
    found = None
    attempt = 0
    while found is None or attempt < CANDIDATES:
        if attempt >= 100_000:
            raise RuntimeError(f"no {stratum} instance at n={n}")
        sub = rng.split(attempt)
        attempt += 1
        f = random_mconj(sub, n) if algo == "mconj" else random_conj(sub, n)
        if bigden:
            dist = bigden_dist(sub.split("dist"), n)
        elif stratum == "high":
            pts = one_points(sub.split("ones"), f, 12)
            pts = (pts + [p for p in rand_points(sub.split("dist"), n, 20)
                          if p not in pts])[:16]
            dist = rand_dist(sub.split("weights"), n, len(pts), pts)
        else:
            dist = rand_dist(sub.split("dist"), n, 16)
        if found is None and lo < ones_mass(f, dist) <= hi:
            found = f, dist
    return found


def witness_error(g, f, dist) -> Fraction:
    return sum((w for p, w in dist.entries
                if g.value_at(p.zeros) != f.value_at(p.zeros)), Fraction(0))


# ---------------------------------------------------------------------------
# tester-sweep


@dataclass(frozen=True)
class Cell:
    name: str
    n: int
    epsilon: Fraction
    configs: tuple  # (algo, stratum, instances, trials per run_trials call)
    bigden: bool = False


TESTER_CELLS = (
    Cell("n64", 64, Fraction(1), (("mconj", "low", 3, 2), ("mconj", "high", 3, 2),
                                  ("conj", "high", 3, 2))),
    Cell("n64-half", 64, Fraction(1, 2), (("mconj", "low", 1, 2),)),
    Cell("n512", 512, Fraction(1), (("mconj", "low", 1, 2), ("conj", "high", 1, 2))),
    Cell("n4096", 4096, Fraction(1), (("mconj", "low", 1, 2),)),
    Cell("n16-bigden", 16, Fraction(1), (("mconj", "low", 2, 2),), bigden=True),
)
# criterion 02's generated no family; the tester rejects most of its draws
FAR_CELL = "n60-far"
FAR_PARAMS = (60, 4, 6, 3, 1, 1)
FAR_TRIALS = 8
SMOKE_CELLS = tuple(
    Cell(c.name, 16, Fraction(1), tuple((a, s, 1, 1) for a, s, _, _ in c.configs[:1]),
         c.bigden) for c in TESTER_CELLS)


class TesterSweep:
    name = "tester-sweep"
    # n60-far is left out: whether a trial rejects before or after Stage 0
    # is the tester's coin, and moves its time per trial tenfold.
    ops = tuple(f"trial_s.{c.name}" for c in TESTER_CELLS)

    def __init__(self, smoke: bool):
        self.cells = SMOKE_CELLS if smoke else TESTER_CELLS
        self.far_trials = 1 if smoke else FAR_TRIALS

    def setup(self, seed: int, passes: int) -> dict:
        plan = []
        for k in range(passes):
            for cell in self.cells:
                params = sc.compute_parameters(cell.n, cell.epsilon)
                for algo, stratum, count, trials in cell.configs:
                    for j in range(count):
                        rng = _stream(seed, self.name, k, cell.name, algo, stratum, j)
                        f, dist = stratified_instance(rng, cell.n, cell.epsilon,
                                                      algo, stratum, cell.bigden)
                        cfg = sc.ExperimentConfig(
                            algo=algo, epsilon=cell.epsilon, trials=trials,
                            seed=_derived_seed(seed, self.name, k, cell.name, algo,
                                               stratum, j),
                            instance=(cell.n, f, dist))
                        plan.append((k, cell.name, params, stratum, j, cfg))
        far = sc.LBParams(*FAR_PARAMS)
        fars = [sc.ExperimentConfig(algo="mconj", epsilon=Fraction(1),
                                    trials=self.far_trials,
                                    seed=_derived_seed(seed, self.name, k, FAR_CELL),
                                    generator=(far, "no"))
                for k in range(passes)]
        return {"plan": plan, "far": fars}

    def describe(self, inputs) -> dict:
        """Environment facts: each cell's TesterParams, bigden denominators."""
        params = {}
        bits = []
        for _, cell, p, _, _, cfg in inputs["plan"]:
            params[cell] = {k: str(v) for k, v in asdict(p).items()}
            if cell.endswith("bigden"):
                bits.append(cfg.instance[2].denominator.bit_length())
        far = inputs["far"][0]
        params[FAR_CELL] = {k: str(v) for k, v in asdict(
            sc.compute_parameters(far.n, far.epsilon)).items()}
        return {"tester_params": params, "bigden_denominator_bits": sorted(set(bits))}

    def run_pass(self, inputs, k: int, ctx: PassContext) -> None:
        seconds: dict[str, float] = {}
        trials: dict[str, int] = {}
        for kk, cell, params, stratum, j, cfg in inputs["plan"]:
            if kk != k:
                continue
            ctx.calibrate()
            ctx.set_label(cell)
            t0 = time.perf_counter()
            results = sc.harness.run_trials(cfg)
            seconds[cell] = seconds.get(cell, 0.0) + time.perf_counter() - t0
            trials[cell] = trials.get(cell, 0) + len(results)
            for r in results:
                ctx.digest.add(cell, cfg.algo, stratum, j, *_trial_row(r))
                ctx.checks.op(f"{cell}/{cfg.algo}/{stratum}/{j}/trial{r.trial}",
                              _in_class_check(r, cfg, params))
        cfg = inputs["far"][k]
        params = sc.compute_parameters(cfg.n, cfg.epsilon)
        ctx.calibrate()
        ctx.set_label(FAR_CELL)
        t0 = time.perf_counter()
        results = sc.harness.run_trials(cfg)
        seconds[FAR_CELL] = time.perf_counter() - t0
        trials[FAR_CELL] = len(results)
        for r in results:
            ctx.digest.add(FAR_CELL, *_trial_row(r))
            ctx.checks.op(f"{FAR_CELL}/trial{r.trial}", _accounting_check(r, params))
        ctx.set_label("")
        for cell, total in seconds.items():
            ctx.record(f"trial_s.{cell}", total / trials[cell])


def _trial_row(r) -> tuple:
    z = r.verdict.stage0_zero_samples if r.verdict is not None else None
    return (r.trial, r.accepted, r.reason, r.blackbox_queries, r.sample_queries, z)


def _accounting_check(r, params):
    def body(require):
        sc.harness.query_budget_report([r], params, params.n)
    return body


def _in_class_check(r, cfg, params):
    def body(require):
        require(r.accepted, f"in-class input rejected ({r.reason})")
        if cfg.algo == "mconj":
            sc.harness.query_budget_report([r], params, params.n)
    return body


# ---------------------------------------------------------------------------
# budget-sweep

BUDGETS = [0, 4, 16, 64, 256]
# (op name, yes variant, no variant, trials per call)
SWEEP_PAIRS = (("yes-no", "yes", "no", 2), ("ltf", "yes-ltf", "no-ltf", 1))


class BudgetSweep:
    name = "budget-sweep"
    ops = tuple(f"sweep_s.{p[0]}" for p in SWEEP_PAIRS)

    def __init__(self, smoke: bool):
        self.n = 64 if smoke else 4096

    def setup(self, seed: int, passes: int) -> dict:
        # Warm-up that users of the sweep pay once: one validated instance of
        # every variant at the sweep's parameters.
        params = sc.adversarial.desk_params(self.n)
        warm = [sc.adversarial.generate_instance(params, v, _stream(seed, self.name, v))
                for p in SWEEP_PAIRS for v in p[1:3]]
        calls = [(k, name, yes, no, trials,
                  _derived_seed(seed, self.name, k, name))
                 for k in range(passes) for name, yes, no, trials in SWEEP_PAIRS]
        return {"params": params, "calls": calls,
                "warm": [i.distribution.denominator for i in warm]}

    def describe(self, inputs) -> dict:
        return {"lb_params": asdict(inputs["params"]), "budgets": BUDGETS}

    def run_pass(self, inputs, k: int, ctx: PassContext) -> None:
        for kk, name, yes, no, trials, cseed in inputs["calls"]:
            if kk != k:
                continue
            ctx.calibrate()
            ctx.set_label(name)
            rows = []

            def call(require, name=name, yes=yes, no=no, trials=trials, cseed=cseed):
                t0 = time.perf_counter()
                rows.extend(sc.harness.distinguishing_experiment(
                    "dolev-ron", inputs["params"], yes, no, Fraction(1),
                    trials=trials, seed=cseed, budgets=BUDGETS))
                ctx.record(f"sweep_s.{name}", time.perf_counter() - t0)
                _sweep_checks(name, rows, require)

            ctx.checks.op(f"{name}/pass{k}", call)
            out = io.StringIO()
            sc.harness.write_experiment_csv(out, rows)
            ctx.digest.add(name, k, out.getvalue())
        ctx.set_label("")


def _sweep_checks(name, rows, require) -> None:
    require([r["budget"] for r in rows] == BUDGETS, "budget column")
    if name == "yes-no":
        for r in rows:
            require(r["yes_accept"] == 1.0, f"yes_accept < 1 at q={r['budget']}")
        require(rows[0]["gap"] == 0.0, "gap != 0 at q=0")
    else:
        # yes-ltf has f(1^n) = 0, so yes_accept == 0 at q >= 4 is correct.
        keys = ("yes_accept", "no_accept", "sim_yes_accept", "sim_no_accept")
        require(all(rows[0][key] == 1.0 for key in keys), "q=0 row not all ones")


# ---------------------------------------------------------------------------
# exact-oracles

ORACLE_EPS = (Fraction(1), Fraction(1, 2), Fraction(1, 4))
ORACLE_D = (2, 3, 5, 9)
NO60 = (60, 4, 6, 3, 1, 1)
NOLTF60 = (60, 4, 7, 3, 1, 2)


# (n, support size) of the random truth-table instances; fixed sizes keep
# the exponential flip searches the same size on every seed
TABLE_SIZES = ((4, 6), (5, 7), (6, 8), (7, 9), (8, 10), (6, 10), (5, 10), (4, 9))


class ExactOracles:
    """One instance set per run; every pass runs every oracle on all of it,
    so passes differ only by machine noise."""

    name = "exact-oracles"
    ops = ("distance_s", "violation_s")

    def __init__(self, smoke: bool):
        self.desk_ns = (64, 128) if smoke else (512, 4096)
        self.counts = (1, 1) if smoke else (2, 1)  # no, no-ltf
        self.tables = TABLE_SIZES[:2] if smoke else TABLE_SIZES

    def setup(self, seed: int, passes: int) -> dict:
        gen = sc.adversarial.generate_instance
        rng = _stream(seed, self.name)
        small = []  # (kind, f, dist)
        for i in range(self.counts[0]):
            inst = gen(sc.LBParams(*NO60), "no", rng.split("no", i))
            small.append(("no", inst.function, inst.distribution))
        for i in range(self.counts[1]):
            inst = gen(sc.LBParams(*NOLTF60), "no-ltf", rng.split("no-ltf", i))
            small.append(("no-ltf", inst.function, inst.distribution))
        for i, (n, size) in enumerate(self.tables):
            sub = rng.split("table", i)
            f = sc.TruthTable(n, sub.randrange(1 << (1 << n)))
            small.append(("table", f, rand_dist(sub.split("dist"), n, size)))
        desk = []
        for n in self.desk_ns:
            for variant in ("no", "no-ltf"):
                inst = gen(sc.adversarial.desk_params(n), variant,
                           rng.split("desk", n, variant))
                desk.append((f"desk{n}-{variant}", inst.function, inst.distribution))
        return {"small": small, "desk": desk}

    def describe(self, inputs) -> dict:
        return {"small_instances": [(kind, len(d.entries)) for kind, _, d in inputs["small"]],
                "desk_instances": [(kind, len(d.entries)) for kind, _, d in inputs["desk"]]}

    def run_pass(self, inputs, k: int, ctx: PassContext) -> None:
        small, desk = inputs["small"], inputs["desk"]
        distance_s = 0.0
        mconj_distance = {}
        ctx.set_label("distances")
        for idx, (kind, f, dist) in enumerate(small):
            found = {}

            def distances(require, kind=kind, f=f, dist=dist, found=found):
                t0 = time.perf_counter()
                dm, wm = sc.distances.exact_distance_mconj(f, dist, return_witness=True)
                dc, wc = sc.distances.exact_distance_conj(f, dist, return_witness=True)
                dd = sc.distances.exact_distance_dlist(f, dist)
                dl = sc.distances.exact_distance_ltf(f, dist)
                found["t"] = time.perf_counter() - t0
                found["d"] = (dm, dc, dd, dl)
                require(dl <= dd <= dc <= dm, f"class chain broken: {found['d']}")
                require(witness_error(wm, f, dist) == dm, "mconj witness misses")
                require(witness_error(wc, f, dist) == dc, "conj witness misses")
                if kind == "no":
                    require(dm >= Fraction(1, 3), "no instance closer than 1/3")
                if kind == "no-ltf":
                    require(dl >= Fraction(1, 4), "no-ltf instance closer than 1/4")

            ctx.calibrate()
            ctx.checks.op(f"distances/{kind}/{idx}", distances)
            distance_s += found.get("t", 0.0)
            if "d" in found:
                mconj_distance[idx] = found["d"][0]
            ctx.digest.add("distances", idx, kind, found.get("d"))

        violation_s = 0.0
        ctx.set_label("violation")
        cases = [(idx, kind, f, dist) for idx, (kind, f, dist) in enumerate(small)]
        cases += [(None, kind, f, dist) for kind, f, dist in desk]
        for case, (idx, kind, f, dist) in enumerate(cases):
            eps, d = ORACLE_EPS[case % 3], ORACLE_D[case % 4]
            out = {}

            def pipeline(require, idx=idx, f=f, dist=dist, eps=eps, d=d, out=out):
                t0 = time.perf_counter()
                graph = sc.violation.build_violation_bigraph(f, dist)
                _, cover_w = sc.violation.min_weight_vertex_cover(graph)
                report = sc.violation.prune_to_regular(graph, eps, d)
                diag = None
                if report.exit_reason == "no-heavy-left":
                    diag = sc.violation.regularity_diagnostics(report, eps, d)
                out["t"] = time.perf_counter() - t0
                out["row"] = (len(graph.left), len(graph.right), len(graph.edges),
                              len(graph.empty_strings), cover_w, report.exit_reason,
                              report.rounds, report.W, len(report.removed_S),
                              len(report.L_prime),
                              None if diag is None else sorted(diag.items()))
                if idx in mconj_distance and not graph.empty_strings:
                    require(cover_w >= mconj_distance[idx], "cover lighter than distance")
                require(report.exit_reason in ("cheap-cover-found", "no-heavy-left"),
                        f"exit reason {report.exit_reason}")
                if report.exit_reason == "no-heavy-left":
                    require(_no_heavy(report.G_star, d), "heavy vertex after prune")

            ctx.calibrate()
            ctx.checks.op(f"violation/{kind}/{case}", pipeline)
            violation_s += out.get("t", 0.0)
            ctx.digest.add("violation", case, kind, out.get("row"))
        ctx.set_label("")
        ctx.record("distance_s", distance_s)
        ctx.record("violation_s", violation_s)


def _no_heavy(star, d) -> bool:
    """Criterion 05's independent transcription of the heaviness rule."""
    weight = star.graph_weight()
    deg = [0] * len(star.left)
    inw = [Fraction(0)] * len(star.right)
    for li, ri in star.edges:
        deg[li] += 1
        inw[ri] += star.left[li][1]
    return (all(deg[i] < d * weight for i in range(len(star.left)))
            and all(inw[j] < d * weight * wj for j, (_, wj) in enumerate(star.right)))


WORKLOADS = {w.name: w for w in (TesterSweep, BudgetSweep, ExactOracles)}
