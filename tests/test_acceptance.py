"""Acceptance gate: one test per release criterion, one line each under -v.

Trial counts default to desk scale so the whole gate finishes in a few
minutes. SUBCUBE_ACCEPT_SCALE multiplies every count (counts cap at their
nominal full sizes, so a large scale restores the full run). The one-sided
sweep runs one trial per algorithm at (n=4096, eps=1/2) at scale 1, and
criterion 01 one more that runs to the end of Stage 2. Each mconj trial
there is charged 7.4e9 Stage-0 samples; it draws few of them, because
Stage 0 draws the groups after its last representative search as the
facts Stages 1-2 read, not as samples.
"""

import os
from dataclasses import dataclass
from fractions import Fraction

from subcube import (
    BlackBox,
    ExperimentConfig,
    FiniteDistribution,
    Flipped,
    FunctionSpec,
    GeneralConj,
    LBParams,
    MonotoneConj,
    QueryTranscript,
    RandomStream,
    Sampler,
    TesterParams as Params,
    TruthTable,
    ViolationGraph,
    ZeroSet,
    amplify,
    baseline_dolev_ron,
    build_violation_bigraph,
    ceil_log2,
    compute_parameters,
    desk_params,
    distinguishing_experiment,
    exact_distance_conj,
    exact_distance_dlist,
    exact_distance_ltf,
    exact_distance_mconj,
    generate_instance,
    hypergraph_has_violation,
    min_weight_vertex_cover,
    prune_to_regular,
    query_budget_report,
    run_trials,
)
from subcube.harness import write_experiment_csv
from subcube.tester import (
    test_general_conjunction as run_conj_tester,
    test_monotone_conjunction as run_mconj_tester,
)
from helpers import (
    LabeledSample,
    _reference_dlist_fits,
    _reference_ltf_fits,
    flip_distribution,
    light_ones_dist,
    mconj_tables,
    rand_dist,
    rand_fractions,
    table_of,
)

SCALE = float(os.environ.get("SUBCUBE_ACCEPT_SCALE", "1"))


def scaled(base, cap):
    """Trial count at the current scale, at least 1 and at most cap."""
    return min(cap, max(1, int(round(base * SCALE))))


def pick(rng, items):
    return items[rng.randrange(len(items))]


def make_oracles(func, dist, stream):
    tr = QueryTranscript()
    bb = BlackBox(func, tr)
    sm = Sampler(dist, func, tr, stream.split("samples"))
    return bb, sm, stream.split("tester")


def all_zero_sets(n):
    for mask in range(1 << n):
        yield frozenset(i + 1 for i in range(n) if (mask >> i) & 1)


def random_mconj(rng, n):
    k = rng.randrange(min(n, 6) + 1)
    return MonotoneConj(n, frozenset(rng.sample(list(range(1, n + 1)), k)))


def random_conj(rng, n):
    idx = rng.sample(list(range(1, n + 1)), rng.randrange(min(n, 6) + 1))
    cut = rng.randrange(len(idx) + 1)
    return GeneralConj(n, frozenset(idx[:cut]), frozenset(idx[cut:]))


# -- criterion 1: the testers never reject their own class ---------------

# (n, epsilon, desk-scale trials); nominal size is 1000 per cell
SWEEP_CELLS = (
    (64, Fraction(1), 40),
    (64, Fraction(1, 2), 2),
    (512, Fraction(1), 10),
    (512, Fraction(1, 2), 1),
    (4096, Fraction(1), 1),
    (4096, Fraction(1, 2), 1),
)


def test_criterion_01_one_sided_acceptance():
    """In-class runs under random 16-point distributions, one on an
    800-point support, one (4096, 1/2) run to the end of Stage 2, and one
    on a desk n = 4096 yes instance: zero rejections."""
    rng = RandomStream(101)
    rejects = []
    for n, eps, base in SWEEP_CELLS:
        for trial in range(scaled(base, 1000)):
            sub = rng.split("mconj", n, str(eps), trial)
            f = random_mconj(sub, n)
            dist = rand_dist(sub.split("dist"), n, 16)
            bb, sm, t_rng = make_oracles(f, dist, sub)
            v = run_mconj_tester(bb, sm, n, eps, t_rng)
            if not v.accepted:
                rejects.append(("mconj", n, eps, trial, v.reason))
        for trial in range(scaled(base, 1000)):
            sub = rng.split("conj", n, str(eps), trial)
            f = random_conj(sub, n)
            dist = rand_dist(sub.split("dist"), n, 16)
            bb, sm, t_rng = make_oracles(f, dist, sub)
            v = run_conj_tester(bb, sm, n, eps, t_rng)
            if not v.accepted:
                rejects.append(("conj", n, eps, trial, v.reason))
    assert rejects == []
    # a large support: 800 points at n = 512, 600 of them light 1-points,
    # so nearly every group's B is new, run to the end of Stage 2
    f = MonotoneConj(512, frozenset({1, 2}))
    dist = light_ones_dist(rng.split("large"), f, 600, 200)
    results = run_trials(ExperimentConfig(algo="mconj", epsilon=Fraction(1), trials=1,
                                          seed=105, instance=(512, f, dist)))
    assert [(r.accepted, r.reason) for r in results] == [(True, "end-of-stage-2")]
    query_budget_report(results, compute_parameters(512, 1), 512)
    # the (4096, 1/2) cell run to the end of Stage 2 on 16 points: f = x1 x2,
    # eight 1-points at 1/10 and eight 0-points at 1/40. It is charged 7.4e9
    # samples, and draws all but a few groups as their facts alone
    n, eps = 4096, Fraction(1, 2)
    f = MonotoneConj(n, frozenset({1, 2}))
    dist = FiniteDistribution(n, tuple(
        [(ZeroSet(n, frozenset({3 + 2 * k, 4 + 2 * k})), Fraction(1, 10)) for k in range(8)]
        + [(ZeroSet(n, frozenset({1 + k % 2, 20 + k})), Fraction(1, 40)) for k in range(8)]))
    results = run_trials(ExperimentConfig(algo="mconj", epsilon=eps, trials=1, seed=5,
                                          instance=(n, f, dist)))
    p = compute_parameters(n, eps)
    (r,) = results
    assert (r.accepted, r.reason) == (True, "end-of-stage-2")
    assert r.sample_queries == p.stage0_samples
    query_budget_report(results, p, n)
    assert r.transcript.samples_drawn < r.sample_queries / 1000
    # the paper's hard yes family at desk scale, a monotone conjunction on
    # 512 support points, run to the end of Stage 2. Most groups' B holds
    # every 1-labelled point, so B takes one word, and the trial draws
    # about 1% of its 1.4e8 charged samples
    results = run_trials(ExperimentConfig(algo="mconj", epsilon=Fraction(1), trials=1,
                                          seed=3, generator=(desk_params(4096), "yes")))
    assert [(r.accepted, r.reason) for r in results] == [(True, "end-of-stage-2")]
    query_budget_report(results, compute_parameters(4096, 1), 4096)
    assert results[0].transcript.samples_drawn < 4 * 10 ** 6


# -- criterion 2: exact sample count, black-box query bound --------------


@dataclass(frozen=True)
class UpwardPair(FunctionSpec):
    """1 exactly on the points below either of two anchor zero sets."""

    n: int
    za: frozenset
    zb: frozenset

    def value_at(self, zeros):
        return 1 if zeros <= self.za or zeros <= self.zb else 0


def test_criterion_02_query_accounting():
    """sample_count == group_size*(d*+1) absent early rejection; black-box
    count within 1 + S*2ceil(lg n) + 2s + d*(2ceil(lg n)+2), every trial,
    with S the trial's representative searches."""
    rng = RandomStream(202)
    batches = []
    for i, (n, eps, base) in enumerate(
            ((64, Fraction(1), 10), (64, Fraction(1, 2), 2),
             (512, Fraction(1), 3))):
        sub = rng.split("cell", i)
        f = MonotoneConj(
            n, frozenset(sub.sample(list(range(1, n + 1)),
                                    1 + sub.randrange(4))))
        dist = rand_dist(sub.split("dist"), n, 8 + sub.randrange(9))
        cfg = ExperimentConfig(algo="mconj", epsilon=eps,
                               trials=scaled(base, 1000), seed=300 + i,
                               instance=(n, f, dist))
        batches.append((run_trials(cfg), compute_parameters(n, eps), n))
    lb = LBParams(n=60, h=4, r_blocks=6, m=3, s=1, blocks_per_side=1)
    cfg = ExperimentConfig(algo="mconj", epsilon=Fraction(1),
                           trials=scaled(3, 1000), seed=310,
                           generator=(lb, "no"))
    batches.append((run_trials(cfg), compute_parameters(60, Fraction(1)), 60))
    far = UpwardPair(4, frozenset({1, 3}), frozenset({2, 4}))
    far_dist = FiniteDistribution(4, tuple(
        (ZeroSet(4, z), Fraction(1, 3))
        for z in (frozenset({1, 3}), frozenset({2, 4}), frozenset({1, 2}))))
    cfg = ExperimentConfig(algo="mconj", epsilon=Fraction(1),
                           trials=scaled(5, 1000), seed=320,
                           instance=(4, far, far_dist))
    batches.append((run_trials(cfg), compute_parameters(4, Fraction(1)), 4))

    for results, params, n in batches:
        assert params.stage0_samples == params.group_size * (params.d_star + 1)
        lg = ceil_log2(n)
        for r in results:
            if r.reason not in ("stage0-allones", "stage0-nil-representative"):
                assert r.sample_queries == params.stage0_samples
            bound = (1 + r.verdict.searches * 2 * lg + 2 * params.s
                     + params.d_star * (2 * lg + 2))
            assert r.blackbox_queries <= bound
        report = query_budget_report(results, params, n)
        assert report["worst_blackbox_fraction_of_bound"] <= 1.0


# -- criterion 3: violation hyperedges exist exactly off-class -----------


def test_criterion_03_hypergraph_characterization():
    """Exhaustive at n=4: no hyperedge iff the function is a monotone
    conjunction (65,536 functions, exact)."""
    in_class = mconj_tables(4)
    for bits in range(1 << 16):
        assert hypergraph_has_violation(TruthTable(4, bits)) == \
            (bits not in in_class)


# -- criterion 4: cover weight lower-bounds the distance -----------------


def well_supported_instances(target, seed=404):
    """Random (f, dist, graph) triples where every 0-support point has a
    representative, so the bipartite graph captures the whole support."""
    rng = RandomStream(seed)
    produced = 0
    trial = 0
    while produced < target:
        trial += 1
        assert trial < 60 * target, "redraw guard tripped"
        sub = rng.split(trial)
        n = 4 + sub.randrange(5)
        f = TruthTable(n, sub.randrange(1 << (1 << n)))
        dist = rand_dist(sub.split("dist"), n, 2 + sub.randrange(11))
        graph = build_violation_bigraph(f, dist)
        if graph.empty_strings:
            continue
        produced += 1
        yield f, dist, graph


def test_criterion_04_cover_lower_bounds_distance():
    """Minimum vertex-cover weight >= exact distance, as exact rationals."""
    for f, dist, graph in well_supported_instances(scaled(200, 2000)):
        _, cover_weight = min_weight_vertex_cover(graph)
        assert cover_weight >= exact_distance_mconj(f, dist)


# -- criterion 5: pruning leaves no heavy vertex -------------------------


def assert_no_heavy(star, d):
    weight = star.graph_weight()
    deg = [0] * len(star.left)
    inw = [Fraction(0)] * len(star.right)
    for li, ri in star.edges:
        deg[li] += 1
        inw[ri] += star.left[li][1]
    for i in range(len(star.left)):
        assert deg[i] < d * weight
    for j, (_, wj) in enumerate(star.right):
        assert inw[j] < d * weight * wj


def rand_dense_graph(rng, n=12):
    coords = sorted(rng.sample(list(range(1, n + 1)), 2 + rng.randrange(4)))
    n_left = 2 + rng.randrange(7)
    left_sets = []
    seen = set()
    while len(left_sets) < n_left:
        zeros = frozenset(c for c in coords if rng.randrange(3) < 2)
        extra = frozenset(j for j in range(1, n + 1)
                          if j not in coords and rng.randrange(4) == 0)
        zeros = zeros | extra
        if not zeros or zeros in seen:
            continue
        seen.add(zeros)
        left_sets.append(zeros)
    lw = rand_fractions(rng.split("lw"), n_left)
    rw = rand_fractions(rng.split("rw"), len(coords))
    return ViolationGraph(
        tuple((ZeroSet(n, z), w) for z, w in zip(left_sets, lw)),
        tuple(zip(coords, rw)))


def test_criterion_05_pruning_regularity():
    """Every no-heavy-left exit is re-verified against an independent
    transcription of the heaviness thresholds."""
    eps_pool = (Fraction(1), Fraction(1, 2), Fraction(1, 4))
    d_pool = (2, 3, 5, 9)
    no_heavy_exits = 0
    for i, (_, _, graph) in enumerate(
            well_supported_instances(scaled(200, 2000))):
        report = prune_to_regular(graph, eps_pool[i % 3], d_pool[i % 4])
        assert report.exit_reason in ("cheap-cover-found", "no-heavy-left")
        if report.exit_reason == "no-heavy-left":
            no_heavy_exits += 1
            assert_no_heavy(report.G_star, d_pool[i % 4])
    rng = RandomStream(505)
    for i in range(scaled(100, 1000)):
        graph = rand_dense_graph(rng.split(i))
        report = prune_to_regular(graph, eps_pool[i % 3], d_pool[i % 4])
        if report.exit_reason == "no-heavy-left":
            no_heavy_exits += 1
            assert_no_heavy(report.G_star, d_pool[i % 4])
    assert no_heavy_exits > 0


# -- criterion 6: generated no-instances stay 1/3-far --------------------


def test_criterion_06_no_instance_farness():
    """Every scaled no draw is at least 1/3-far from monotone conjunctions."""
    params = LBParams(n=60, h=4, r_blocks=6, m=3, s=1, blocks_per_side=1)
    rng = RandomStream(606)
    for i in range(scaled(50, 1000)):
        inst = generate_instance(params, "no", rng.split(i))
        assert exact_distance_mconj(inst.function, inst.distribution) >= \
            Fraction(1, 3)


# -- criterion 7: no draws with disjoint C-pairs defeat decision lists ----


def test_criterion_07_decision_list_farness():
    """Six-string supports are decision-list-inconsistent and 1/12-far."""
    params = LBParams(n=60, h=4, r_blocks=6, m=2, s=1, blocks_per_side=1)
    rng = RandomStream(707)
    for i in range(scaled(40, 1000)):
        sub = rng.split(i)
        for attempt in range(200):
            inst = generate_instance(params, "no", sub.split(attempt))
            if not set(inst.C_sets[0]) & set(inst.C_sets[1]):
                break
        else:
            raise AssertionError("no disjoint C-pair in 200 redraws")
        sample = LabeledSample.from_function(inst.function, inst.distribution)
        assert len(sample.entries) == 6
        assert not _reference_dlist_fits(sample)
        assert exact_distance_dlist(inst.function, inst.distribution) >= \
            Fraction(1, 12)


# -- criterion 8: threshold variants separate against LTFs ----------------


def test_criterion_08_ltf_farness():
    """no-ltf quadruples are LTF-inconsistent and the support is 1/4-far;
    yes-ltf draws carry the b=1, a=c=ones=0 label pattern."""
    params = LBParams(n=60, h=4, r_blocks=7, m=3, s=1, blocks_per_side=2)
    rng = RandomStream(808)
    for i in range(scaled(50, 200)):
        inst = generate_instance(params, "no-ltf", rng.split("no", i))
        f = inst.function
        for j in range(params.m):
            pts = (ZeroSet(60, frozenset()),
                   ZeroSet(60, frozenset(inst.A_sets[j])),
                   ZeroSet(60, frozenset(inst.B_sets[j])),
                   ZeroSet(60, frozenset(inst.C_sets[j])))
            quad = LabeledSample(60, tuple(
                (p, f.value_at(p.zeros), Fraction(1, 4)) for p in pts))
            assert not _reference_ltf_fits(quad)
        assert exact_distance_ltf(f, inst.distribution) >= Fraction(1, 4)
    for i in range(scaled(12, 500)):
        inst = generate_instance(params, "yes-ltf", rng.split("yes", i))
        f = inst.function
        assert f.value_at(frozenset()) == 0
        for j in range(params.m):
            assert f.value_at(frozenset(inst.A_sets[j])) == 0
            assert f.value_at(frozenset(inst.B_sets[j])) == 1
            assert f.value_at(frozenset(inst.C_sets[j])) == 0


# -- criterion 9: rejection power on crafted far families -----------------


@dataclass(frozen=True)
class OneHole(FunctionSpec):
    """1 everywhere except the single point whose zero set is {hole}."""

    n: int
    hole: int

    def value_at(self, zeros):
        return 0 if zeros == frozenset({self.hole}) else 1


def run_singleton_probe_family(params, trials, rng, prob_of):
    """Rejection rate of the one-point family that only step 1.1 can catch,
    next to the mean closed-form probability prob_of(|B|)."""
    rejected = 0
    closed_form = 0.0
    for t in range(trials):
        sub = rng.split(t)
        k = 8 + sub.randrange(56)
        zeros = frozenset(sub.sample(list(range(1, 65)), k))
        f = OneHole(64, pick(sub, sorted(zeros)))
        dist = FiniteDistribution(64, ((ZeroSet(64, zeros), Fraction(1)),))
        bb, sm, t_rng = make_oracles(f, dist, sub)
        v = run_mconj_tester(bb, sm, 64, Fraction(1), t_rng, params=params)
        if not v.accepted:
            assert v.reason == "step-1.1"
            rejected += 1
        closed_form += prob_of(k)
    return rejected / trials, closed_form / trials


def make_triple_instance(rng):
    """f(a)=f(b)=1, f(c)=0 with ZERO(c) inside ZERO(a) | ZERO(b), so every
    representative search on c bottoms out nil."""
    n = 8 + rng.randrange(5)
    while True:
        za = frozenset(rng.sample(list(range(1, n + 1)), 2 + rng.randrange(3)))
        zb = frozenset(rng.sample(list(range(1, n + 1)), 2 + rng.randrange(3)))
        if za - zb and zb - za:
            break
    x = pick(rng, sorted(za - zb))
    y = pick(rng, sorted(zb - za))
    union = sorted(za | zb)
    zc = frozenset({x, y}) | frozenset(rng.sample(union, rng.randrange(len(union))))
    bits = 0
    for mask in range(1 << n):
        zeros = frozenset(i + 1 for i in range(n) if not (mask >> i) & 1)
        if zeros <= za or zeros <= zb:
            bits |= 1 << mask
    f = TruthTable(n, bits)
    assert f.value_at(za) == 1 and f.value_at(zb) == 1 and f.value_at(zc) == 0
    dist = FiniteDistribution(n, tuple(
        (ZeroSet(n, z), Fraction(1, 3)) for z in (za, zb, zc)))
    return n, f, dist


def test_criterion_09_rejection_power():
    """(a) step-1.1 rejection rate tracks 1-(1-1/|B|)^s within 0.05, both at
    a mid-range parameter point and at the derived n=64 parameters;
    (b) amplified runs (k=11) of the tester and the baseline each reject
    the nil-representative triple family on at least 2/3 of trials."""
    rng = RandomStream(909)

    mid = Params(n=64, epsilon=Fraction(1), d=16, d_star=2, r=2, t=32, s=32,
                 group_size=64, stage0_samples=192)
    emp, cf = run_singleton_probe_family(
        mid, scaled(500, 5000), rng.split("mid"),
        lambda k: 1.0 - (1.0 - 1.0 / k) ** mid.s)
    assert abs(emp - cf) <= 0.05

    full = compute_parameters(64, Fraction(1))
    emp, cf = run_singleton_probe_family(
        full, scaled(40, 500), rng.split("full"),
        lambda k: 1.0 - (1.0 - 1.0 / k) ** full.s)
    assert abs(emp - cf) <= 0.05

    trials = scaled(300, 3000)
    tester_rejects = baseline_rejects = 0
    for t in range(trials):
        sub = rng.split("triple", t)
        n, f, dist = make_triple_instance(sub.split("make"))

        def tester_once(attempt_rng):
            bb, sm, _ = make_oracles(f, dist, attempt_rng.split("io"))
            return run_mconj_tester(bb, sm, n, Fraction(1),
                                    attempt_rng.split("go"))

        def baseline_once(attempt_rng):
            bb, sm, _ = make_oracles(f, dist, attempt_rng.split("io"))
            return baseline_dolev_ron(bb, sm, n, Fraction(1))

        if not amplify(tester_once, 11, sub.split("amp")).accepted:
            tester_rejects += 1
        if not amplify(baseline_once, 11, sub.split("bamp")).accepted:
            baseline_rejects += 1
    assert 3 * tester_rejects >= 2 * trials
    assert 3 * baseline_rejects >= 2 * trials


# -- criterion 10: flipping around a satisfying point ----------------------


def test_criterion_10_flip_reduction():
    """Flipping a conjunction's zero coordinates at any satisfying point
    yields exactly the monotone conjunction over all its literals; and on
    far instances the conjunction distance equals the monotone distance
    under the best satisfying flip (it can exceed it under a fixed one)."""
    rng = RandomStream(1010)
    for t in range(scaled(500, 5000)):
        sub = rng.split("inclass", t)
        n = 4 + sub.randrange(7)
        f = random_conj(sub, n)
        free = [i for i in range(1, n + 1)
                if i not in f.required_one and i not in f.required_zero]
        zstar = f.required_zero | frozenset(
            i for i in free if sub.randrange(2))
        assert f.value_at(zstar) == 1
        flipped = Flipped(f, zstar)
        target = MonotoneConj(n, f.required_one | f.required_zero)
        assert table_of(flipped, n) == table_of(target, n)

    produced = 0
    trial = 0
    target_count = scaled(200, 2000)
    while produced < target_count:
        trial += 1
        assert trial < 60 * target_count, "redraw guard tripped"
        sub = rng.split("far", trial)
        n = 3 + sub.randrange(3)
        f = TruthTable(n, sub.randrange(1 << (1 << n)))
        dist = rand_dist(sub.split("dist"), n, 2 + sub.randrange(5))
        conj_dist = exact_distance_conj(f, dist)
        if conj_dist == 0:
            continue
        sats = [z for z in all_zero_sets(n) if f.value_at(z) == 1]
        assert sats, "far instance must have a satisfying point"
        best = min(exact_distance_mconj(Flipped(f, c), flip_distribution(dist, c))
                   for c in sats)
        assert best == conj_dist
        produced += 1


# -- criterion 11: acceptance-gap curve against query budget ---------------


def test_criterion_11_distinguishing_illustration(tmp_path):
    """Budget sweep at n=4096: zero gap at q=0 and full acceptance of yes
    draws at every budget. The transition budget is written to the CSV and
    printed, not asserted."""
    rows = distinguishing_experiment(
        "dolev-ron", desk_params(4096), "yes", "no", Fraction(1),
        trials=scaled(30, 1000), seed=1111, budgets=[0, 4, 16, 64, 256])
    assert rows[0]["budget"] == 0
    assert rows[0]["gap"] == 0.0
    assert rows[0]["no_accept"] == 1.0
    for row in rows:
        assert row["yes_accept"] == 1.0
    out = tmp_path / "gap_curve.csv"
    with open(out, "w") as fh:
        write_experiment_csv(fh, rows)
    transition = next((r["budget"] for r in rows if r["gap"] >= 0.5), None)
    print(f"gap first reaches 1/2 at budget {transition} "
          f"(n**(1/3) = {round(4096 ** (1 / 3))}); curve at {out}")
