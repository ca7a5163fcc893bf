"""Hidden-block instance generators and their oracles."""

import dataclasses
import tracemalloc
from fractions import Fraction
from functools import lru_cache
from math import ceil

import pytest
from hypothesis import given, settings, strategies as st

from subcube import (
    BlackBox,
    BudgetExceeded,
    FiniteDistribution,
    InfeasibleParameters,
    LBParams,
    LinearThreshold,
    MonotoneConj,
    QueryTranscript,
    RandomStream,
    Sampler,
    ZeroSet,
    desk_params,
    generate_instance,
    paper_params,
    simulate_p,
    validate_instance,
)
from subcube.harness import _SimWorld
from helpers import collect, is_i_special, ltf_potential

SMALL = LBParams(n=60, h=4, r_blocks=7, m=3, s=1, blocks_per_side=2)


def gen(variant, seed=0, params=SMALL):
    return generate_instance(params, variant, RandomStream(seed))


def triple(inst, i):
    """The points (a^i, b^i, c^i) of triple i (1-based)."""
    return tuple(ZeroSet(inst.n, sets[i - 1])
                 for sets in (inst.A_sets, inst.B_sets, inst.C_sets))


def sim_world(inst, seed, transcript):
    """The sim world of inst, drawing on RandomStream(seed), charged to
    transcript."""
    sampler = Sampler(inst.distribution, inst.function, QueryTranscript(),
                      RandomStream(0))
    return _SimWorld(inst, RandomStream(seed), transcript, sampler)


# -- parameter recipes --------------------------------------------------------


def test_paper_recipe_needs_astronomical_n():
    for n in (1 << 12, 1 << 16, 1 << 20):
        with pytest.raises(InfeasibleParameters):
            paper_params(n)
    p = paper_params(1 << 33)
    assert p.h > p.s
    assert p.r_blocks >= p.blocks_per_C


def test_desk_recipe_values():
    assert desk_params(4096) == LBParams(4096, 4, 512, 256, 1, 2)
    assert desk_params(60) == LBParams(60, 4, 7, 16, 1, 2)


def test_params_invariants():
    with pytest.raises(InfeasibleParameters):
        LBParams(n=30, h=4, r_blocks=7, m=3, s=1, blocks_per_side=2)
    with pytest.raises(InfeasibleParameters):
        LBParams(n=60, h=4, r_blocks=3, m=3, s=1, blocks_per_side=2)
    with pytest.raises(InfeasibleParameters):
        LBParams(n=60, h=4, r_blocks=7, m=3, s=-1, blocks_per_side=2)
    with pytest.raises(InfeasibleParameters):
        LBParams(n=60, h=0, r_blocks=7, m=3, s=1, blocks_per_side=2)


def test_params_derived_properties():
    assert SMALL.blocks_per_C == 4
    assert SMALL.ell == 18
    # blocks required on each side of the specialness rule
    for bps, need in ((SMALL.blocks_per_side, 2), (1, 1)):
        assert (3 * bps + 3) // 4 == ceil(Fraction(3 * bps, 4)) == need


# -- generation and validation ------------------------------------------------


@pytest.mark.parametrize("variant", ["yes", "no", "yes-ltf", "no-ltf"])
def test_generated_structure(variant):
    inst = gen(variant, seed=11)
    validate_instance(inst)
    p = inst.params
    assert len(inst.R) == p.h * p.r_blocks + 2 * p.m
    assert inst.R_prime == inst.R - frozenset(inst.alpha) - frozenset(inst.beta)
    covered = set()
    for blk in inst.blocks:
        assert len(blk) == p.h
        assert not (blk & covered)
        covered |= blk
    assert covered == inst.R_prime
    for i in range(1, p.m + 1):
        a, b, c = triple(inst, i)
        assert len(a.zeros) == len(b.zeros) == p.ell // 2
        assert not (a.zeros & b.zeros)
        assert c.zeros == a.zeros | b.zeros
        assert inst.alpha[i - 1] in a.zeros
        assert inst.beta[i - 1] in b.zeros


@pytest.mark.parametrize("variant,labels", [
    ("yes", (1, 0, 1, 0)),
    ("no", (1, 1, 1, 0)),
    ("yes-ltf", (0, 0, 1, 0)),
    ("no-ltf", (0, 1, 1, 0)),
])
def test_point_labels(variant, labels):
    inst = gen(variant, seed=12)
    ones_label, a_label, b_label, c_label = labels
    f = inst.function
    assert f.value_at(frozenset()) == ones_label
    for i in range(1, inst.params.m + 1):
        assert f.value_at(inst.A_sets[i - 1]) == a_label
        assert f.value_at(inst.B_sets[i - 1]) == b_label
        assert f.value_at(inst.C_sets[i - 1]) == c_label


@pytest.mark.parametrize("variant", ["yes", "no", "yes-ltf", "no-ltf"])
def test_checked_labels_are_the_function_on_the_support(variant):
    # the budget sweep builds each instance's sampler on these labels, in
    # place of evaluating f on the support once more
    for inst in [gen(variant, seed) for seed in range(5)] + [
            gen(variant, 5, desk_params(4096))]:
        want = [inst.function.value_at(p.zeros) for p, _ in inst.distribution.entries]
        assert inst._labels.tolist() == want
        sampler = Sampler._labelled(inst.distribution, inst.function, QueryTranscript(),
                                    RandomStream(0), inst._labels)
        assert sampler.labels.tolist() == want


@pytest.mark.parametrize("variant,weights", [
    ("yes", {"b": Fraction(2, 9), "c": Fraction(1, 9)}),
    ("no", {"a": Fraction(1, 9), "b": Fraction(1, 9), "c": Fraction(1, 9)}),
    ("yes-ltf", {"ones": Fraction(1, 4), "b": Fraction(1, 6),
                 "c": Fraction(1, 12)}),
    ("no-ltf", {"ones": Fraction(1, 4), "a": Fraction(1, 12),
                "b": Fraction(1, 12), "c": Fraction(1, 12)}),
])
def test_distribution_weights(variant, weights):
    inst = gen(variant, seed=13)  # m = 3
    assert set(k for k, _ in inst.support_kinds) == set(weights)
    for (kind, _), (point, w) in zip(inst.support_kinds,
                                     inst.distribution.entries):
        assert w == weights[kind]


def test_generation_is_deterministic():
    a = gen("no", seed=14)
    b = gen("no", seed=14)
    assert a == b
    c = gen("no", seed=15)
    assert c.R != a.R


def test_unknown_variant_rejected():
    with pytest.raises(ValueError):
        gen("maybe")


def test_no_variants_need_room_for_specialness():
    thin = LBParams(n=60, h=1, r_blocks=14, m=3, s=1, blocks_per_side=2)
    generate_instance(thin, "yes", RandomStream(16))  # fine
    for variant in ("no", "no-ltf"):
        with pytest.raises(InfeasibleParameters):
            generate_instance(thin, variant, RandomStream(16))


def test_desk_scale_instance():
    inst = generate_instance(desk_params(4096), "no", RandomStream(17))
    validate_instance(inst)
    assert inst.n == 4096
    assert len(inst.distribution.entries) == 3 * 256


def test_validation_is_sized_by_the_structure_not_by_n():
    # |R| = 12 at n = 2,000,000: checking R against [n] must not build [n]
    params = LBParams(n=2_000_000, h=2, r_blocks=4, m=2, s=1, blocks_per_side=1)
    tracemalloc.start()
    try:
        inst = generate_instance(params, "no", RandomStream(36))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(inst.R) == 12
    assert peak < 10 * 2**20


def test_validation_catches_corruption():
    inst = gen("no", seed=18)
    bad_alpha = (inst.alpha[0],) + inst.alpha[:-1]  # duplicate index
    with pytest.raises(ValueError):
        validate_instance(dataclasses.replace(inst, alpha=bad_alpha))
    shifted = (inst.blocks[0] | {max(inst.R) + 1},) + inst.blocks[1:]
    with pytest.raises(ValueError):
        validate_instance(dataclasses.replace(inst, blocks=shifted))
    row = inst.a_block_ids[0]
    for bad in ((row[0], row[0]), (row[0], inst.params.r_blocks)):
        ids = (bad,) + inst.a_block_ids[1:]
        with pytest.raises(ValueError, match="distinct block ids"):
            validate_instance(dataclasses.replace(inst, a_block_ids=ids))
    entries = inst.distribution.entries
    swapped = FiniteDistribution(inst.n, entries[1:] + entries[:1])
    with pytest.raises(ValueError, match="distribution does not match"):
        validate_instance(dataclasses.replace(inst, distribution=swapped))
    with pytest.raises(ValueError, match="wrong label"):
        validate_instance(dataclasses.replace(
            inst, function=MonotoneConj(inst.n, frozenset())))
    for stray in (0, inst.n + 1):
        with pytest.raises(ValueError, match="R not inside"):
            validate_instance(dataclasses.replace(inst, R=inst.R | {stray}))


def test_validation_names_each_broken_part_of_the_draw():
    # one replaced field per check that corruption above does not reach
    inst = gen("no", seed=18)
    n, h = inst.params.n, inst.params.h
    outside = sorted(set(range(1, n + 1)) - inst.R)
    cases = [
        ({"variant": "maybe"}, "unknown variant"),
        ({"R": inst.R | {outside[0]}}, "R has the wrong size"),
        ({"alpha": (outside[0],) + inst.alpha[1:]}, "special indices must lie in R"),
        ({"blocks": inst.blocks[:-1]}, "wrong number of blocks"),
        ({"blocks": inst.blocks[:1] * 2 + inst.blocks[2:]}, "blocks must be disjoint"),
        ({"blocks": (frozenset(outside[:h]),) + inst.blocks[1:]},
         "blocks must partition R_prime"),
        ({"a_block_ids": inst.a_block_ids[:-1]}, "need m rows of block ids per side"),
    ]
    validate_instance(inst)
    for change, message in cases:
        variant = change.get("variant", "no")
        with pytest.raises(ValueError, match=f"^invalid {variant} instance: {message}$"):
            validate_instance(dataclasses.replace(inst, **change))


# -- specialness --------------------------------------------------------------


def test_a_strings_are_special_on_no_instances():
    inst = gen("no", seed=19)
    for i in range(1, inst.params.m + 1):
        a, b, c = triple(inst, i)
        assert is_i_special(a, inst, i)
        assert not is_i_special(b, inst, i)
        assert not is_i_special(c, inst, i)


def test_no_function_demands_specialness_per_alpha():
    inst = gen("no", seed=20)
    f = inst.function
    alpha_1 = inst.alpha[0]
    # alpha_1 zero without its A-blocks: not 1-special, so the value drops
    assert f.value_at(frozenset({alpha_1})) == 0
    outside = max(frozenset(range(1, inst.n + 1)) - inst.R)
    assert f.value_at(frozenset({outside})) == 0


# -- the simulated responder --------------------------------------------------


def test_simulate_p_rules():
    inst = gen("no", seed=21)
    inside = frozenset({min(inst.R_prime)})
    assert simulate_p(inside, inst.R, frozenset()) == 1
    outside = frozenset({max(frozenset(range(1, inst.n + 1)) - inst.R)})
    assert simulate_p(outside, inst.R, frozenset()) == 0
    gamma = frozenset({inst.alpha[0]})
    hit = frozenset({inst.alpha[0], min(inst.R_prime)})
    assert simulate_p(hit, inst.R, gamma) == 0
    assert simulate_p(hit, inst.R, frozenset()) == 1


def test_sim_world_answers_from_revealed_gammas():
    """Once a draw reveals c^k, the simulated world labels a^k 0 and
    answers the query A_k with 0, where the no function gives a^k 1."""
    inst = gen("no", seed=24)
    world = sim_world(inst, 25, QueryTranscript())
    a_points = {a: i for i, a in enumerate(inst.A_sets, start=1)}
    assert all(world.value_at(a) == 1 for a in a_points)  # nothing revealed
    revealed, a_draws = set(), 0
    for point, label in world.draws(60):
        k = a_points.get(point.zeros)
        if k is not None and k in revealed:
            assert label == 0
            a_draws += 1
        if point.zeros in inst.C_sets:
            revealed.add(inst.C_sets.index(point.zeros) + 1)
    assert a_draws and revealed
    assert world.gamma == {inst.alpha[k - 1] for k in revealed}
    for k in revealed:
        a_k = ZeroSet(inst.n, inst.A_sets[k - 1])
        assert world.value_at(a_k.zeros) == 0
        assert BlackBox(world, world.transcript).query(a_k) == 0
        assert inst.function.value_at(a_k.zeros) == 1


# -- strong sampling ----------------------------------------------------------


def test_strong_sample_reveals_c_structure():
    inst = gen("no", seed=22)
    tr = QueryTranscript(log_queries=True)
    world = sim_world(inst, 23, tr)
    points = [point.zeros for point, _ in world.draws(60)]
    assert [zeros for zeros, _ in tr.sample_log] == points
    seen_c = seen_other = False
    for zeros, gamma in tr.sample_log:
        if gamma is not None:
            i = inst.alpha.index(gamma) + 1
            assert zeros == inst.C_sets[i - 1]
            seen_c = True
        else:
            assert zeros in set(inst.A_sets) | set(inst.B_sets)
            seen_other = True
    assert seen_c and seen_other
    assert world.gamma == {gamma for _, gamma in tr.sample_log} - {None}
    assert tr.sample_count == 60


def test_strong_sample_budget():
    inst = gen("no", seed=26)
    tr = QueryTranscript(limit=5)
    world = sim_world(inst, 27, tr)
    taken, refused = collect(world.draws(6))
    assert len(taken) == 5 and refused
    with pytest.raises(BudgetExceeded):
        next(world.draws(1))
    assert tr.sample_count == 5


def test_strong_sample_deterministic():
    inst = gen("no", seed=28)
    runs = []
    for _ in range(2):
        tr = QueryTranscript(log_queries=True)
        world = sim_world(inst, 29, tr)
        runs.append((list(world.draws(20)), tr.sample_log, world.gamma))
    assert runs[0] == runs[1]


# -- threshold potentials -----------------------------------------------------


@pytest.mark.parametrize("variant,which", [("yes-ltf", "u"), ("no-ltf", "v")])
def test_potential_identities(variant, which):
    inst = gen(variant, seed=30)
    t4 = inst.theta4
    ell = inst.params.ell
    n = inst.n
    if which == "v":  # the no-ltf function's own potential
        def potential(x):
            return inst.function.potential(x.zeros)
    else:
        def potential(x):
            return ltf_potential(x, inst, "u")
    ones = ZeroSet.all_ones(n)
    assert 4 * potential(ones) == t4 - ell
    for i in range(1, inst.params.m + 1):
        ua, ub, uc = (4 * potential(x) for x in triple(inst, i))
        assert ub == t4 + ell
        assert uc == t4 - 20 * n + 3 * ell
        if which == "u":
            assert ua == t4 - 20 * n + ell
        else:
            assert ua == t4 + ell  # specialness credits the flipped a


def test_theta4_closed_form_and_threshold():
    inst = gen("no-ltf", seed=31)
    p = inst.params
    n, r_size = p.n, len(inst.R)
    assert inst.theta4 == 40 * n * n * (n - r_size) + 20 * n * p.m \
        - 4 * n + p.ell
    assert inst.function.threshold == (inst.theta4 + 3) // 4
    yes = gen("yes-ltf", seed=31)
    assert isinstance(yes.function, LinearThreshold)
    assert yes.function.threshold == (yes.theta4 + 3) // 4


def test_yes_ltf_weights_realize_potential():
    inst = gen("yes-ltf", seed=32)
    rng = RandomStream(33)
    pts = [triple(inst, 1)[0], triple(inst, 2)[1], triple(inst, 3)[2],
           ZeroSet.all_ones(inst.n)]
    for k in range(20):
        size = rng.randrange(inst.n + 1)
        pts.append(ZeroSet(inst.n, frozenset(
            rng.sample(list(range(1, inst.n + 1)), size))))
    thr = inst.function.threshold
    for p in pts:
        want = 1 if ltf_potential(p, inst, "u") >= thr else 0
        assert inst.function.value_at(p.zeros) == want


# m = 6 triples on n = 80, so one point can hold many alphas at once
CROWDED = LBParams(n=80, h=3, r_blocks=8, m=6, s=1, blocks_per_side=2)


@lru_cache(maxsize=None)
def crowded(variant, seed):
    return generate_instance(CROWDED, variant, RandomStream(seed))


@settings(max_examples=150, deadline=None)
@given(variant=st.sampled_from(["no", "no-ltf"]), seed=st.integers(0, 3),
       kinds=st.lists(st.sampled_from("abc-"), min_size=6, max_size=6),
       alphas=st.frozensets(st.integers(0, 5)),
       extra=st.frozensets(st.integers(1, 80), max_size=12))
def test_hidden_block_functions_match_the_per_i_loop(variant, seed, kinds,
                                                     alphas, extra):
    inst = crowded(variant, seed)
    n, m = inst.n, inst.params.m
    sets = {"a": inst.A_sets, "b": inst.B_sets, "c": inst.C_sets}
    zeros = set(extra) | {inst.alpha[i] for i in alphas}
    for i, kind in enumerate(kinds):
        if kind != "-":
            zeros |= sets[kind][i]
    zeros = frozenset(zeros)
    x = ZeroSet(n, zeros)
    special = [is_i_special(x, inst, i) for i in range(1, m + 1)]
    v = ltf_potential(x, inst, "v")
    assert inst.function.potential(zeros) == v
    if variant == "no":
        want = zeros <= inst.R and all(
            special[i] for i in range(m) if inst.alpha[i] in zeros)
    else:
        want = v >= inst.function.threshold
    assert inst.function.value_at(zeros) == int(want)


def test_phi_potential_matches_u_under_revealed_gammas():
    inst = gen("yes-ltf", seed=34)
    c1 = triple(inst, 1)[2]
    gamma = frozenset({inst.alpha[0]})
    u = sum(w for k, w in enumerate(inst.function.weights, start=1)
            if k not in c1.zeros)
    assert ltf_potential(c1, inst, "phi", gamma) == \
        ltf_potential(c1, inst, "u") == u


def test_ltf_instances_are_none_for_plain_variants():
    assert gen("yes", seed=35).theta4 is None
    assert gen("no", seed=35).theta4 is None
