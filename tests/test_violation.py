"""Violation hypergraph, bipartite cover, and pruning."""

from dataclasses import dataclass
from math import ceil, log2
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from subcube import (
    BlackBox,
    FiniteDistribution,
    FunctionSpec,
    MonotoneConj,
    PruneReport,
    QueryTranscript,
    RandomStream,
    SizeCapError,
    TruthTable,
    ViolationGraph,
    ZeroSet,
    build_violation_bigraph,
    desk_params,
    generate_instance,
    hypergraph_has_violation,
    min_weight_vertex_cover,
    prune_to_regular,
    regularity_diagnostics,
)
import subcube.violation as violation_module
from subcube.adversarial import LBNoFunction
from subcube.violation import PruneReport, _degrees, _heavy, _without
from helpers import (
    brute_min_cover,
    literal_heavy,
    mconj_tables,
    rand_fractions,
    reference_edges,
    reference_min_cover,
    zs,
)


def tt_from(n, pred):
    """Truth table whose value is pred(zero set)."""
    bits = 0
    for k in range(1 << n):
        zeros = frozenset(i for i in range(1, n + 1) if not (k >> (i - 1)) & 1)
        if pred(zeros):
            bits |= 1 << k
    return TruthTable(n, bits)


# -- hypergraph emptiness -----------------------------------------------------


def test_hypergraph_empty_iff_monotone_conjunction():
    n = 3
    good = set(mconj_tables(n))
    for bits in range(1 << (1 << n)):
        f = TruthTable(n, bits)
        assert hypergraph_has_violation(f) == (bits not in good)


def test_hypergraph_witness_structure():
    f = tt_from(4, lambda zrs: zrs <= {1, 3} or zrs <= {2, 4})
    found, witness = hypergraph_has_violation(f, return_witness=True)
    assert found
    x, covering = witness
    assert f.value_at(x.zeros) == 0
    assert covering
    union = frozenset()
    for y in covering:
        assert f.value_at(y.zeros) == 1
        union |= y.zeros
    assert x.zeros <= union


def test_hypergraph_no_witness_for_conjunction():
    f = MonotoneConj(4, frozenset({2, 3}))
    assert hypergraph_has_violation(f) is False
    found, witness = hypergraph_has_violation(f, return_witness=True)
    assert (found, witness) == (False, None)


def test_hypergraph_allzeros_function_has_edge():
    # f(all-ones) = 0 alone forms a hyperedge
    f = tt_from(3, lambda zrs: False)
    assert hypergraph_has_violation(f)


def test_hypergraph_size_cap():
    with pytest.raises(SizeCapError):
        hypergraph_has_violation(MonotoneConj(21, frozenset({1})))


# -- graph construction -------------------------------------------------------


def test_graph_edges_follow_the_zero_rule_and_weight():
    left = ((zs(4, 1, 3), Fraction(1, 3)), (zs(4, 2, 4), Fraction(1, 3)))
    right = ((1, Fraction(1, 3)),)
    g = ViolationGraph(left, right)
    assert g.edges == ((0, 0),)
    assert g.graph_weight() == Fraction(1, 3)


def test_graph_rejects_repeated_right_index():
    left = ((zs(4, 1, 2), Fraction(1, 2)),)
    with pytest.raises(ValueError, match="distinct"):
        ViolationGraph(left, ((1, Fraction(1, 4)), (1, Fraction(1, 4))))
    # empty_strings is keyword-only, so a stale positional edge list fails
    with pytest.raises(TypeError):
        ViolationGraph(left, ((1, Fraction(1, 2)),), ((0, 0),))


_SMALL_WEIGHT = st.integers(1, 9).map(lambda k: Fraction(1, k))


@settings(max_examples=200, deadline=None)
@given(zero_sets=st.lists(st.frozensets(st.integers(1, 6)), max_size=6, unique=True),
       rights=st.lists(st.integers(1, 6), max_size=6, unique=True),
       weight=_SMALL_WEIGHT, data=st.data())
def test_edges_and_without_follow_the_literal_zero_rule(zero_sets, rights, weight,
                                                       data):
    g = ViolationGraph(tuple((zs(6, *z), weight) for z in zero_sets),
                       tuple((j, weight) for j in rights))
    edges = reference_edges(g.left, g.right)
    assert g.edges == edges
    left_out = data.draw(st.sets(st.integers(0, max(len(g.left) - 1, 0))))
    right_out = data.draw(st.sets(st.integers(0, max(len(g.right) - 1, 0))))
    kept = [(li, ri) for li, ri in edges if li not in left_out and ri not in right_out]
    left_ids = sorted({li for li, _ in kept})
    right_ids = sorted({ri for _, ri in kept})
    sub = _without(g, left_out, right_out)
    assert sub.left == tuple(g.left[i] for i in left_ids)
    assert sub.right == tuple(g.right[j] for j in right_ids)
    assert sub.edges == tuple(sorted((left_ids.index(li), right_ids.index(ri))
                                     for li, ri in kept))
    # the edges it keeps are those the zero rule gives its vertices
    assert sub.edges == reference_edges(sub.left, sub.right)
    assert sub == ViolationGraph(sub.left, sub.right)


def test_graph_rejects_nonpositive_weight():
    left = ((zs(4, 1), Fraction(0)),)
    with pytest.raises(ValueError):
        ViolationGraph(left, ())


def test_build_bigraph_matches_worked_example():
    f = tt_from(4, lambda zrs: zrs in (frozenset(), frozenset({1, 3}),
                                       frozenset({2, 4})))
    dist = FiniteDistribution(4, (
        (zs(4, 1, 3), Fraction(1, 3)),
        (zs(4, 2, 4), Fraction(1, 3)),
        (zs(4, 1, 2), Fraction(1, 3)),
    ))
    g = build_violation_bigraph(f, dist)
    assert g.left == ((zs(4, 1, 3), Fraction(1, 3)),
                      (zs(4, 2, 4), Fraction(1, 3)))
    assert g.right == ((1, Fraction(1, 3)),)
    assert g.edges == ((0, 0),)
    assert g.empty_strings == ()
    assert g.graph_weight() == Fraction(1, 3)


def test_build_bigraph_collects_nil_strings():
    f = tt_from(4, lambda zrs: zrs <= {1, 3} or zrs <= {2, 4})
    dist = FiniteDistribution(4, (
        (zs(4, 1), Fraction(1, 2)),
        (zs(4, 1, 2), Fraction(1, 2)),
    ))
    g = build_violation_bigraph(f, dist)
    assert g.left == ((zs(4, 1), Fraction(1, 2)),)
    assert g.right == ()
    assert g.empty_strings == ((zs(4, 1, 2), Fraction(1, 2)),)


def test_build_bigraph_groups_representatives_and_counts_queries():
    f = MonotoneConj(8, frozenset({7}))
    dist = FiniteDistribution(8, (
        (zs(8, 6, 7), Fraction(1, 4)),   # rep 7 via one split round
        (zs(8, 7), Fraction(1, 4)),      # rep 7 with no query
        (zs(8), Fraction(1, 2)),         # the 1-string
    ))
    tr = QueryTranscript()
    g = build_violation_bigraph(f, dist, oracle=BlackBox(f, tr))
    assert g.right == ((7, Fraction(1, 2)),)
    assert g.left == ((zs(8), Fraction(1, 2)),)
    assert g.edges == ()  # the 1-string has no zeros at all
    assert tr.blackbox_count == 2


# -- minimum vertex cover -----------------------------------------------------


def test_cover_empty_graph():
    g = ViolationGraph((), ())
    assert min_weight_vertex_cover(g) == (frozenset(), Fraction(0))


def test_cover_size_cap():
    right = tuple((j, Fraction(1, 10_001)) for j in range(1, 10_002))
    with pytest.raises(SizeCapError, match="capped at 10000 vertices"):
        min_weight_vertex_cover(ViolationGraph((), right))


def test_cover_star_picks_cheaper_side():
    center = (zs(8, 1, 2, 3), Fraction(5))
    rights = tuple((j, Fraction(1)) for j in (1, 2, 3))
    g = ViolationGraph((center,), rights)
    cover, w = min_weight_vertex_cover(g)
    assert w == Fraction(3)
    assert cover == frozenset({("R", 0), ("R", 1), ("R", 2)})

    cheap_center = (zs(8, 1, 2, 3), Fraction(2))
    g2 = ViolationGraph((cheap_center,), rights)
    cover2, w2 = min_weight_vertex_cover(g2)
    assert w2 == Fraction(2)
    assert cover2 == frozenset({("L", 0)})


def test_cover_matching_sums_per_edge_minima():
    left = ((zs(8, 1), Fraction(3)), (zs(8, 2), Fraction(1)))
    right = ((1, Fraction(2)), (2, Fraction(4)))
    g = ViolationGraph(left, right)
    _, w = min_weight_vertex_cover(g)
    assert w == Fraction(3)  # min(3,2) + min(1,4)


def test_cover_takes_the_left_vertex_on_a_tie():
    g = ViolationGraph(((zs(8, 1), Fraction(1)),), ((1, Fraction(1)),))
    assert min_weight_vertex_cover(g) == (frozenset({("L", 0)}), Fraction(1))


def test_cover_sends_flow_back_along_a_right_to_left_edge():
    # a shortest first path can fill right 1 from left 0, and the second
    # unit then reaches right 2 only by pushing that flow back to left 1
    left = ((zs(8, 1, 2), Fraction(1)), (zs(8, 1), Fraction(1)))
    right = ((1, Fraction(1)), (2, Fraction(1)))
    g = ViolationGraph(left, right)
    assert min_weight_vertex_cover(g) == (
        frozenset({("L", 0), ("L", 1)}), Fraction(2))


_HUGE_WEIGHT = st.builds(Fraction, st.integers(1, 1 << 70),
                         st.integers((1 << 64) + 1, 1 << 72))


@settings(max_examples=150, deadline=None)
@given(zero_sets=st.lists(st.frozensets(st.integers(1, 5)), max_size=5,
                          unique=True),
       rights=st.lists(st.integers(1, 5), max_size=5, unique=True),
       data=st.data())
def test_cover_weight_matches_brute_force_with_huge_denominators(
        zero_sets, rights, data):
    weights = data.draw(st.lists(_HUGE_WEIGHT, min_size=len(zero_sets) + len(rights),
                                 max_size=len(zero_sets) + len(rights)))
    g = ViolationGraph(
        tuple((zs(5, *z), w) for z, w in zip(zero_sets, weights)),
        tuple(zip(sorted(rights), weights[len(zero_sets):])))
    cover, w = min_weight_vertex_cover(g)
    assert w == brute_min_cover(g)
    for li, ri in g.edges:
        assert ("L", li) in cover or ("R", ri) in cover
    spent = sum((g.left[i][1] for t, i in cover if t == "L"), Fraction(0))
    spent += sum((g.right[i][1] for t, i in cover if t == "R"), Fraction(0))
    assert spent == w


_MIXED_WEIGHT = st.one_of(_SMALL_WEIGHT, _HUGE_WEIGHT)


@st.composite
def shaped_graphs(draw):
    """Graphs of up to 30 + 30 vertices in three shapes: dense (random
    neighbourhoods), star (left 0 joined to every right vertex, each other
    left vertex to one) and chain (left i joined to right i and i + 1). Each
    left point also has a zero of its own outside the right indices, so the
    points are distinct."""
    nl, nr = draw(st.integers(1, 30)), draw(st.integers(1, 30))
    shape = draw(st.sampled_from(["dense", "star", "chain"]))
    if shape == "dense":
        nbrs = [draw(st.sets(st.integers(0, nr - 1))) for _ in range(nl)]
    elif shape == "star":
        nbrs = [set(range(nr))] + [{(i - 1) % nr} for i in range(1, nl)]
    else:
        nbrs = [{i, i + 1} & set(range(nr)) for i in range(nl)]
    ws = draw(st.lists(_MIXED_WEIGHT, min_size=nl + nr, max_size=nl + nr))
    left = tuple((zs(nr + nl, *(j + 1 for j in nb), nr + 1 + i), w)
                 for i, (nb, w) in enumerate(zip(nbrs, ws)))
    return ViolationGraph(left, tuple((j + 1, w) for j, w in enumerate(ws[nl:])))


@settings(max_examples=200, deadline=None)
@given(g=shaped_graphs())
def test_cover_set_matches_the_unseeded_reference(g):
    # the cover is the minimal source-side cut, the same for every maximum
    # flow, so seeding the flow changes neither the set nor its weight
    assert min_weight_vertex_cover(g) == reference_min_cover(g)


@settings(max_examples=200, deadline=None)
@given(g=shaped_graphs(), d=st.sampled_from([1, 2, 3, 5, 9]))
def test_heavy_in_integers_matches_the_fraction_rule(g, d):
    assert _heavy(g, d) == literal_heavy(g, d)


def rand_graph(rng, n=6):
    nl = 1 + rng.randrange(4)
    nr = 1 + rng.randrange(4)
    rights = sorted(rng.sample(list(range(1, n + 1)), nr))
    left = []
    seen = set()
    while len(left) < nl:
        size = rng.randrange(n + 1)
        zrs = frozenset(rng.sample(list(range(1, n + 1)), size))
        if zrs in seen:
            continue
        seen.add(zrs)
        left.append(zrs)
    lw = rand_fractions(rng.split("lw"), nl)
    rw = rand_fractions(rng.split("rw"), nr)
    return ViolationGraph(
        tuple((zs(n, *sorted(p)), w) for p, w in zip(left, lw)),
        tuple(zip(rights, rw)))


def test_cover_matches_brute_force_on_random_graphs():
    rng = RandomStream(700)
    for trial in range(60):
        g = rand_graph(rng.split(trial))
        cover, w = min_weight_vertex_cover(g)
        assert w == brute_min_cover(g)
        for li, ri in g.edges:
            assert ("L", li) in cover or ("R", ri) in cover
        spent = sum((g.left[i][1] for t, i in cover if t == "L"), Fraction(0))
        spent += sum((g.right[i][1] for t, i in cover if t == "R"), Fraction(0))
        assert spent == w


# -- pruning ------------------------------------------------------------------


def k44_graph(weight=Fraction(1, 16)):
    left = tuple((zs(8, 1, 2, 3, 4, k), weight) for k in (5, 6, 7, 8))
    right = tuple((j, weight) for j in (1, 2, 3, 4))
    return ViolationGraph(left, right)


def test_prune_cheap_cover_exit():
    g = ViolationGraph(
        ((zs(8, 3, 7), Fraction(1, 2)),), ((7, Fraction(1, 2)),))
    report = prune_to_regular(g, Fraction(1), 2)
    assert report.exit_reason == "cheap-cover-found"
    # degree 1 >= d * wt(G) = 2 * 1/2, so the left vertex is removed first
    assert report.removed_S == (("left", zs(8, 3, 7), Fraction(1, 2)),)
    assert report.G_star.left == ()
    assert report.G_star.right == ()


def test_prune_no_heavy_exit_is_verifiable():
    report = prune_to_regular(k44_graph(), Fraction(1, 2), 5)
    assert report.exit_reason == "no-heavy-left"
    assert report.removed_S == ()
    star = report.G_star
    assert report.W == star.graph_weight() == Fraction(1)
    d = 5
    deg = [0] * len(star.left)
    inw = [Fraction(0)] * len(star.right)
    for li, ri in star.edges:
        deg[li] += 1
        inw[ri] += star.left[li][1]
    for i in range(len(star.left)):
        assert deg[i] < d * report.W
    for j, (_, wj) in enumerate(star.right):
        assert inw[j] < d * report.W * wj
    assert report.L_prime == star.left  # every degree is 4 >= W/2


def test_prune_rejects_bad_degree_parameter():
    with pytest.raises(ValueError):
        prune_to_regular(k44_graph(), Fraction(1, 2), 0)


def test_prune_random_graphs_invariants():
    rng = RandomStream(701)
    seen_no_heavy = False
    for trial in range(40):
        sub = rng.split(trial)
        g = rand_graph(sub)
        eps = Fraction(1, 1 + sub.randrange(8))
        d = 1 + sub.randrange(4)
        report = prune_to_regular(g, eps, d)
        assert report.exit_reason in ("cheap-cover-found", "no-heavy-left")
        assert report.rounds >= 1
        star = report.G_star
        assert report.W == star.graph_weight()
        for tag, vertex, w in report.removed_S:
            src = g.left if tag == "left" else g.right
            assert (vertex, w) in src
        if report.exit_reason == "cheap-cover-found":
            _, w = min_weight_vertex_cover(star)
            assert w <= eps / 4
        else:
            seen_no_heavy = True
            deg = [0] * len(star.left)
            inw = [Fraction(0)] * len(star.right)
            for li, ri in star.edges:
                deg[li] += 1
                inw[ri] += star.left[li][1]
            for i in range(len(star.left)):
                assert deg[i] < d * report.W
            for j, (_, wj) in enumerate(star.right):
                assert inw[j] < d * report.W * wj
    assert seen_no_heavy


def reference_prune_to_regular(G, epsilon, d, calls):
    """prune_to_regular as first written, kept as the reference for the
    loop that reuses its heavy sets and covers: each round finds the heavy
    vertices three times and weighs the cover after both batches, whether
    or not a batch removed anything. calls counts its "cover" and "heavy"
    calls. Returns the PruneReport."""
    def heavy(work):
        calls["heavy"] += 1
        return _heavy(work, d)

    def cheap(work):
        calls["cover"] += 1
        return min_weight_vertex_cover(work)[1] <= Fraction(epsilon) / 4

    work, removed, rounds = _without(G), [], 0
    while True:
        rounds += 1
        heavy_left, _ = heavy(work)
        removed += [("left",) + work.left[i] for i in heavy_left]
        work = _without(work, left_out=set(heavy_left))
        if cheap(work):
            exit_reason = "cheap-cover-found"
            break
        _, heavy_right = heavy(work)
        removed += [("right",) + work.right[j] for j in heavy_right]
        work = _without(work, right_out=set(heavy_right))
        if cheap(work):
            exit_reason = "cheap-cover-found"
            break
        if not any(heavy(work)):
            exit_reason = "no-heavy-left"
            break
    W = work.graph_weight()
    l_prime = tuple(v for v, k in zip(work.left, _degrees(work)[0]) if k >= W / 2)
    return PruneReport(work, tuple(removed), W, l_prime, rounds, exit_reason)


def counted_prune(g, eps, d):
    """prune_to_regular(g, eps, d), and its "cover" and "heavy" calls."""
    calls = {"cover": 0, "heavy": 0}
    cover, heavy = violation_module.min_weight_vertex_cover, violation_module._heavy

    def counted(name, func):
        def call(*args):
            calls[name] += 1
            return func(*args)
        return call

    violation_module.min_weight_vertex_cover = counted("cover", cover)
    violation_module._heavy = counted("heavy", heavy)
    try:
        return prune_to_regular(g, eps, d), calls
    finally:
        violation_module.min_weight_vertex_cover, violation_module._heavy = cover, heavy


@settings(max_examples=200, deadline=None)
@given(g=shaped_graphs(), eps=st.sampled_from([Fraction(1), Fraction(1, 4), Fraction(1, 64)]),
       d=st.sampled_from([1, 2, 3, 5, 9]))
def test_prune_matches_the_reference_without_repeating_work(g, eps, d):
    # the report is the reference's, and a batch that removes nothing
    # neither weighs the cover nor finds the heavy vertices again, so the
    # loop makes no more cover or heavy calls than the reference
    want_calls = {"cover": 0, "heavy": 0}
    want = reference_prune_to_regular(g, eps, d, want_calls)
    got, calls = counted_prune(g, eps, d)
    assert got == want
    assert all(calls[k] <= want_calls[k] for k in calls), (calls, want_calls)


def test_prune_skips_the_batches_that_remove_nothing():
    # K(4,4) with d = 5 has no heavy vertex: one round whose two batches
    # remove nothing, so the cover is weighed once and the heavy vertices
    # found once, where the reference weighs it twice and finds them thrice
    want_calls = {"cover": 0, "heavy": 0}
    want = reference_prune_to_regular(k44_graph(), Fraction(1, 2), 5, want_calls)
    report, calls = counted_prune(k44_graph(), Fraction(1, 2), 5)
    assert report == want and report.exit_reason == "no-heavy-left" and report.rounds == 1
    assert (calls, want_calls) == ({"cover": 1, "heavy": 1}, {"cover": 2, "heavy": 3})


# -- regularity diagnostics ---------------------------------------------------


def test_diagnostics_on_regular_graph():
    eps = Fraction(1, 2)
    report = prune_to_regular(k44_graph(), eps, 5)
    diag = regularity_diagnostics(report, eps, 5)
    assert set(diag) == {"W", "wt_L_prime", "min_cover", "flag_W",
                         "flag_L_prime", "flag_cover"}
    assert diag["W"] == Fraction(1)
    assert diag["wt_L_prime"] == Fraction(1, 4)
    assert diag["min_cover"] == Fraction(1, 4)
    assert diag["flag_W"] and diag["flag_L_prime"] and diag["flag_cover"]


def test_diagnostics_require_no_heavy_exit():
    g = ViolationGraph(
        ((zs(8, 3, 7), Fraction(1, 2)),), ((7, Fraction(1, 2)),))
    report = prune_to_regular(g, Fraction(1), 2)
    with pytest.raises(ValueError):
        regularity_diagnostics(report, Fraction(1), 2)


# -- pipeline from a labeled distribution -------------------------------------


def test_far_instance_pipeline_reaches_diagnostics():
    f = tt_from(4, lambda zrs: zrs in (frozenset(), frozenset({1, 3}),
                                       frozenset({2, 4})))
    dist = FiniteDistribution(4, (
        (zs(4, 1, 3), Fraction(1, 3)),
        (zs(4, 2, 4), Fraction(1, 3)),
        (zs(4, 1, 2), Fraction(1, 3)),
    ))
    g = build_violation_bigraph(f, dist)
    report = prune_to_regular(g, Fraction(1, 2), 9)
    assert report.exit_reason == "no-heavy-left"
    diag = regularity_diagnostics(report, Fraction(1, 2), 9)
    assert diag["W"] == Fraction(1, 3)
    assert diag["min_cover"] == Fraction(1, 3)


def test_desk_scale_pipeline_covers_match_the_reference():
    # one no-ltf instance at the experiment's scale, n = 4096: 512 left
    # vertices, about 230 right ones
    inst = generate_instance(desk_params(4096), "no-ltf", RandomStream(1))
    g = build_violation_bigraph(inst.function, inst.distribution)
    assert min_weight_vertex_cover(g) == reference_min_cover(g)
    report = prune_to_regular(g, Fraction(1, 2), 9)
    assert report.G_star.edges
    assert min_weight_vertex_cover(report.G_star) == reference_min_cover(report.G_star)


def test_a_desk_violation_graph_asks_in_batches(monkeypatch):
    # the desk n = 4096 no build labels its support in one batch and runs
    # its searches in lockstep, one batch per level: its zero sets hold at
    # most 18 zeros, so at most 1 + ceil(log2 18) batches and no value_at
    inst = generate_instance(desk_params(4096), "no", RandomStream(0))
    calls = {"value_at": 0, "_values_at": 0}
    for name in calls:
        method = getattr(LBNoFunction, name)

        def counted(self, arg, name=name, method=method):
            calls[name] += 1
            return method(self, arg)

        monkeypatch.setattr(LBNoFunction, name, counted)
    assert max(len(p.zeros) for p, _ in inst.distribution.entries) == 18
    graph = build_violation_bigraph(inst.function, inst.distribution)
    assert graph.right and calls["value_at"] == 0
    assert 1 <= calls["_values_at"] <= 1 + ceil(log2(18))


def test_pruning_a_built_graph_reads_its_integer_weights_once(monkeypatch):
    # the built graph holds its weights over the distribution's
    # denominator, and every subgraph is handed its own: no cover or
    # degree count converts a weight again
    inst = generate_instance(desk_params(512), "no", RandomStream(3))
    graph = build_violation_bigraph(inst.function, inst.distribution)
    want = (min_weight_vertex_cover(graph), prune_to_regular(graph, Fraction(1, 2), 3))
    monkeypatch.setattr(violation_module, "_over_lcm", None)
    again = build_violation_bigraph(inst.function, inst.distribution)
    assert (min_weight_vertex_cover(again), prune_to_regular(again, Fraction(1, 2), 3)) == want
