"""Hidden-block instance generators and their oracles."""

import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import ceil, perm

import numpy as np

import pytest
from hypothesis import example, given, settings, strategies as st

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
import subcube
from subcube.adversarial import VARIANTS, LBNoFunction, _draw_structure, _positions
from subcube.harness import _SimWorld
from subcube.serialize import save_instance, structure_sidecar
from helpers import (chi_square_fit, collect, hidden_rule_potential,
                     hidden_rule_unmet, is_i_special, ltf_potential)

SMALL = LBParams(n=60, h=4, r_blocks=7, m=3, s=1, blocks_per_side=2)


def gen(variant, seed=0, params=SMALL):
    return generate_instance(params, variant, RandomStream(seed))


def triple(inst, i):
    """The points (a^i, b^i, c^i) of triple i (1-based)."""
    return tuple(ZeroSet(inst.n, sets[i - 1])
                 for sets in (inst.A_sets, inst.B_sets, inst.C_sets))


def r_prime(inst):
    """R minus the special indices, as a set."""
    return inst.r_set - frozenset(np.append(inst.alpha, inst.beta).tolist())


# the six arrays of an instance's draw
DRAW = ("R", "blocks", "alpha", "beta", "a_block_ids", "b_block_ids")


def draw_of(inst):
    """The arrays of inst's draw, as lists."""
    return [getattr(inst, name).tolist() for name in DRAW]


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
    with pytest.raises(InfeasibleParameters, match="n must be at least 2"):
        paper_params(1)


def test_hidden_blocks_refuse_rows_not_aligned_with_alpha():
    with pytest.raises(ValueError, match="need aligned alpha, a_blocks, b_blocks"):
        LBNoFunction(8, frozenset(range(1, 5)), (1, 2), ((frozenset({5}),),),
                     ((frozenset({6}),),), 1)


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
    assert inst.R.tolist() == sorted(inst.r_set)
    assert len(inst.R) == p.h * p.r_blocks + 2 * p.m
    covered = set()
    for blk in map(frozenset, inst.blocks.tolist()):
        assert len(blk) == p.h
        assert not (blk & covered)
        covered |= blk
    assert covered == r_prime(inst)
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
    assert draw_of(a) == draw_of(b)
    assert (a.function, a.distribution) == (b.function, b.distribution)
    c = gen("no", seed=15)
    assert c.R.tolist() != a.R.tolist()


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


@pytest.mark.parametrize("variant", ["no", "no-ltf"])
def test_validation_is_sized_by_the_structure_not_by_n(variant):
    # |R| = 12 at n = 2,000,000: checking R against [n], and the labels by
    # the hidden-block rule on arrays, must not build [n]
    params = LBParams(n=2_000_000, h=2, r_blocks=4, m=2, s=1, blocks_per_side=1)
    tracemalloc.start()
    try:
        inst = generate_instance(params, variant, RandomStream(36))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(inst.R) == 12
    assert peak < 10 * 2**20


def test_validation_catches_corruption():
    inst = gen("no", seed=18)
    bad_alpha = np.append(inst.alpha[:1], inst.alpha[:-1])  # duplicate index
    with pytest.raises(ValueError):
        validate_instance(dataclasses.replace(inst, alpha=bad_alpha))
    shifted = with_entry(inst.blocks, (0, 0), inst.R[-1] + 1)
    with pytest.raises(ValueError):
        validate_instance(dataclasses.replace(inst, blocks=shifted))
    row = inst.a_block_ids[0]
    for bad in ((row[0], row[0]), (row[0], inst.params.r_blocks)):
        ids = with_entry(inst.a_block_ids, 0, bad)
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
            validate_instance(dataclasses.replace(inst, R=np.sort(np.append(inst.R, stray))))


def test_validation_names_each_broken_part_of_the_draw():
    # one replaced field per check that corruption above does not reach
    inst = gen("no", seed=18)
    n, h = inst.params.n, inst.params.h
    outside = sorted(set(range(1, n + 1)) - inst.r_set)
    cases = [
        ({"variant": "maybe"}, "unknown variant"),
        ({"R": np.sort(np.append(inst.R, outside[0]))}, "R has the wrong size"),
        ({"alpha": np.append(outside[0], inst.alpha[1:])}, "special indices must lie in R"),
        ({"blocks": inst.blocks[:-1]}, "wrong number of blocks"),
        ({"blocks": inst.blocks[[0, 0, *range(2, len(inst.blocks))]]},
         "blocks must be disjoint"),
        ({"blocks": np.vstack((outside[:h], inst.blocks[1:]))},
         "blocks must partition R_prime"),
        ({"a_block_ids": inst.a_block_ids[:-1]}, "need m rows of block ids per side"),
    ]
    validate_instance(inst)
    for change, message in cases:
        variant = change.get("variant", "no")
        with pytest.raises(ValueError, match=f"^invalid {variant} instance: {message}$"):
            validate_instance(dataclasses.replace(inst, **change))


@st.composite
def small_params(draw):
    """Small LBParams: h 2-5, blocks_per_side 1-3, s below h, and n with
    room for at least one coordinate outside R."""
    h, bps, m = draw(st.integers(2, 5)), draw(st.integers(1, 3)), draw(st.integers(1, 4))
    rb = draw(st.integers(2 * bps, 2 * bps + 3))
    return LBParams(n=h * rb + 2 * m + draw(st.integers(1, 5)), h=h, r_blocks=rb, m=m,
                    s=draw(st.integers(0, h - 1)), blocks_per_side=bps)


def with_entry(array, at, value):
    """A copy of array with the entry at `at` set to value."""
    out = array.copy()
    out[at] = value
    return out


def corruptions(inst):
    """One broken part of inst's draw per check of the draw, each with the
    message validate_instance gives it."""
    R, a_ids, b_ids = inst.R, inst.a_block_ids, inst.b_block_ids
    outside = min(frozenset(range(1, inst.n + 1)) - inst.r_set)
    distinct = "each triple needs blocks_per_side distinct block ids per side"
    return [
        ({"R": R[[1, 0, *range(2, R.size)]]}, "R must be sorted and distinct"),
        ({"R": with_entry(R, 1, R[0])}, "R must be sorted and distinct"),
        ({"R": np.append(0, R)}, "R not inside [n]"),
        ({"R": np.append(R, inst.n + 1)}, "R not inside [n]"),
        ({"alpha": with_entry(inst.alpha, 0, outside)}, "special indices must lie in R"),
        ({"blocks": inst.blocks[[0, 0, *range(2, len(inst.blocks))]]},
         "blocks must be disjoint"),
        ({"blocks": np.column_stack((inst.blocks, inst.blocks[:, 0]))},
         "block of the wrong size"),
        ({"a_block_ids": with_entry(a_ids, (0, 0), inst.params.r_blocks)}, distinct),
        ({"b_block_ids": with_entry(b_ids, (0, 0), a_ids[0, 0])}, distinct),
        ({"a_block_ids": a_ids[:-1]}, "need m rows of block ids per side"),
    ]


@settings(max_examples=60, deadline=None)
@given(params=small_params(), variant=st.sampled_from(VARIANTS), seed=st.integers(0, 1 << 32))
def test_each_corruption_of_a_drawn_structure_names_its_check(params, variant, seed):
    inst = generate_instance(params, variant, RandomStream(seed))
    validate_instance(inst)
    for change, message in corruptions(inst):
        want = f"^invalid {variant} instance: {re.escape(message)}$"
        with pytest.raises(ValueError, match=want):
            validate_instance(dataclasses.replace(inst, **change))


def test_draw_arrays_are_read_only():
    # the rows and points cached from the draw cannot fall out of step with it
    inst = gen("no", seed=18)
    for name in DRAW:
        with pytest.raises(ValueError, match="read-only"):
            getattr(inst, name)[0] = 0


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
    alpha_1 = int(inst.alpha[0])
    # alpha_1 zero without its A-blocks: not 1-special, so the value drops
    assert f.value_at(frozenset({alpha_1})) == 0
    outside = max(frozenset(range(1, inst.n + 1)) - inst.r_set)
    assert f.value_at(frozenset({outside})) == 0


# -- the simulated responder --------------------------------------------------


def test_simulate_p_rules():
    inst = gen("no", seed=21)
    inside = frozenset({min(r_prime(inst))})
    assert simulate_p(inside, inst.r_set, frozenset()) == 1
    outside = frozenset({max(frozenset(range(1, inst.n + 1)) - inst.r_set)})
    assert simulate_p(outside, inst.r_set, frozenset()) == 0
    alpha_1 = int(inst.alpha[0])
    gamma = frozenset({alpha_1})
    hit = frozenset({alpha_1, min(r_prime(inst))})
    assert simulate_p(hit, inst.r_set, gamma) == 0
    assert simulate_p(hit, inst.r_set, frozenset()) == 1


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
    assert world.gamma == {inst.alpha.tolist()[k - 1] for k in revealed}
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
            i = inst.alpha.tolist().index(gamma) + 1
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
    alpha = inst.alpha.tolist()
    zeros = set(extra) | {alpha[i] for i in alphas}
    for i, kind in enumerate(kinds):
        if kind != "-":
            zeros |= sets[kind][i]
    zeros = frozenset(zeros)
    x = ZeroSet(n, zeros)
    special = [is_i_special(x, inst, i) for i in range(1, m + 1)]
    v = ltf_potential(x, inst, "v")
    assert inst.function.potential(zeros) == v
    if variant == "no":
        want = zeros <= inst.r_set and all(
            special[i] for i in range(m) if alpha[i] in zeros)
    else:
        want = v >= inst.function.threshold
    assert inst.function.value_at(zeros) == int(want)


HAND_N = 10


@st.composite
def hand_built_hidden_blocks(draw):
    """A hand-built hidden-block function on n = 10 and a zero set. Rows
    pick their blocks from a pool of at most four overlapping blocks over
    [10], so a block can sit in two triples or on both sides of one, and the
    sides of a row can differ in length; s ranges past the largest block."""
    pool = draw(st.lists(st.frozensets(st.integers(1, HAND_N), min_size=1,
                                       max_size=4), min_size=1, max_size=4))
    side = st.lists(st.sampled_from(pool), min_size=1, max_size=4)
    m = draw(st.integers(1, 3))
    alpha = draw(st.lists(st.integers(1, HAND_N), min_size=m, max_size=m,
                          unique=True))
    hidden = (HAND_N, draw(st.frozensets(st.integers(1, HAND_N))), alpha,
              [draw(side) for _ in range(m)], [draw(side) for _ in range(m)],
              draw(st.integers(0, 5)))
    zeros = draw(st.frozensets(st.integers(1, HAND_N)))
    if draw(st.booleans()):
        return LBNoFunction(*hidden), zeros
    base = hidden_rule_potential(LBNoFunction(*hidden),
                                 draw(st.frozensets(st.integers(1, HAND_N))))
    return LBNoFunction(*hidden, base + draw(st.integers(-1, 1))), zeros


# both sides of the one triple share a block {1, 2} and overlap in 3; the
# A-side has three blocks (need 3) and the B-side two, so x is never special
@example(case=(LBNoFunction(HAND_N, frozenset(range(1, 8)), (9,),
                            (({1, 2}, {2, 3}, {3, 4}),), (({1, 2}, {3}),), 0),
               frozenset({1, 2, 3, 9})))
# s = 4 is at least every block's size, so no A-block is heavy and the
# potential counts alpha 3 unmet; the threshold sits exactly on it
@example(case=(LBNoFunction(HAND_N, frozenset(range(1, 11)), (3, 7),
                            (({1, 2, 4, 5},), ({6},)), (({8},), ({9},)),
                            4, 45), frozenset({1, 2, 3, 4, 5})))
@settings(max_examples=300, deadline=None)
@given(case=hand_built_hidden_blocks())
def test_hand_built_hidden_block_functions_match_the_written_rule(case):
    f, zeros = case
    v = hidden_rule_potential(f, zeros)
    assert f.potential(zeros) == v
    if f.threshold is not None:
        want = v >= f.threshold
    else:
        want = zeros <= f.R and not hidden_rule_unmet(f, zeros)
    assert f.value_at(zeros) == int(want)


def padded(zero_sets, extra=0):
    """The zero sets as _mapped maps them for _values_at: one row of
    coordinates per set, in a random order, each padded with 0s to the
    longest plus extra."""
    rows = np.zeros((len(zero_sets), max(map(len, zero_sets), default=0) + extra),
                    dtype=np.int64)
    for row, zeros in zip(rows, zero_sets):
        row[:len(zeros)] = np.random.default_rng(len(zeros)).permutation(sorted(zeros))
    return rows


def assert_batch_rule_is_value_at(f, zero_sets, extra=0):
    got = f._values_at(f._mapped(padded(zero_sets, extra)))
    assert got.dtype == np.int8
    assert got.tolist() == [f.value_at(frozenset(zeros)) for zeros in zero_sets]


@lru_cache(maxsize=None)
def drawn(params, variant, seed):
    return generate_instance(params, variant, RandomStream(seed))


@st.composite
def near_the_support(draw):
    """A generated instance's function and zero sets near its support: the
    all-ones point, then points of the support or the all-ones point with up
    to 5 coordinates flipped, each from the point's own zeros, from R or
    from outside R."""
    inst = drawn(draw(st.sampled_from((SMALL, CROWDED))), draw(st.sampled_from(VARIANTS)),
                 draw(st.integers(0, 3)))
    points = [frozenset()] + [point.zeros for point, _ in inst.distribution.entries]
    outside = sorted(frozenset(range(1, inst.n + 1)) - inst.r_set)
    sets = [frozenset()]
    for _ in range(draw(st.integers(1, 6))):
        zeros = draw(st.sampled_from(points))
        coords = st.sampled_from(inst.R.tolist()) | st.sampled_from(outside)
        if zeros:
            coords |= st.sampled_from(sorted(zeros))
        sets.append(zeros ^ frozenset(draw(st.lists(coords, max_size=5))))
    return inst.function, sets


def one_a_block_at_s(variant):
    """The function of a drawn instance and a^1 with its first A-block cut
    down to s zeros: with one heavy A-block of the two it needs, a^1 is not
    1-special, which counting a block of exactly s zeros as heavy misses."""
    inst = drawn(SMALL, variant, 0)
    block = frozenset(inst.blocks[inst.a_block_ids[0, 0]].tolist())
    return inst.function, [inst.A_sets[0] - block | frozenset(sorted(block)[:SMALL.s])]


@example(case=one_a_block_at_s("no"), extra=0)
@example(case=one_a_block_at_s("no-ltf"), extra=2)
@settings(max_examples=300, deadline=None)
@given(case=near_the_support(), extra=st.integers(0, 2))
def test_batch_rules_match_value_at_near_the_support(case, extra):
    f, zero_sets = case
    assert_batch_rule_is_value_at(f, zero_sets, extra)


@settings(max_examples=200, deadline=None)
@given(case=hand_built_hidden_blocks(),
       more=st.lists(st.frozensets(st.integers(1, HAND_N)), max_size=4))
def test_batch_rule_matches_value_at_on_hand_built_hidden_blocks(case, more):
    # overlapping blocks, sides of different lengths, and zeros outside R:
    # a function not built by generation has no seeded table and asks value_at
    f, zeros = case
    assert f._table is None
    assert_batch_rule_is_value_at(f, [zeros, frozenset()] + more)


weight = st.integers(-9, 9) | st.integers(-(1 << 70), 1 << 70) | st.integers((1 << 62) - 9, 1 << 63)


# three weights of 2^62 fit in int64 while their sum does not
@example(weights=[1 << 62] * 3, pivot=frozenset({1, 2, 3}), step=0,
         zero_sets=[frozenset(), frozenset({1}), frozenset({1, 2, 3})])
@settings(max_examples=300, deadline=None)
@given(weights=st.lists(weight, min_size=1, max_size=8),
       pivot=st.frozensets(st.integers(1, 8)), step=st.integers(-1, 1),
       zero_sets=st.lists(st.frozensets(st.integers(1, 8)), min_size=1, max_size=6))
def test_threshold_batch_rule_is_exact_past_int64(weights, pivot, step, zero_sets):
    # the threshold sits on, or next to, the value at the pivot point
    n = len(weights)
    pivot = frozenset(i for i in pivot if i <= n)
    threshold = sum(weights) - sum(weights[i - 1] for i in pivot) + step
    f = LinearThreshold(n, tuple(weights), threshold)
    assert_batch_rule_is_value_at(f, [frozenset(i for i in z if i <= n) for z in zero_sets])


@pytest.mark.parametrize("top", [40, 10**12])
def test_positions_find_each_entry_or_the_end(top):
    # tables over a short and over a long range of values
    rng = np.random.default_rng(top % 97)
    table = np.unique(rng.integers(1, top, size=30))
    x = np.concatenate((table, rng.integers(-3, top + 3, size=60), [0, top + 1]))
    where = {v: k for k, v in enumerate(table.tolist())}
    got = _positions(table, x.reshape(1, -1))
    assert got.tolist() == [[where.get(v, table.size) for v in x.tolist()]]
    assert _positions(table[:0], x).tolist() == [0] * x.size


def test_phi_potential_matches_u_under_revealed_gammas():
    inst = gen("yes-ltf", seed=34)
    c1 = triple(inst, 1)[2]
    gamma = frozenset({int(inst.alpha[0])})
    u = sum(w for k, w in enumerate(inst.function.weights, start=1)
            if k not in c1.zeros)
    assert ltf_potential(c1, inst, "phi", gamma) == \
        ltf_potential(c1, inst, "u") == u


def test_ltf_instances_are_none_for_plain_variants():
    assert gen("yes", seed=35).theta4 is None
    assert gen("no", seed=35).theta4 is None


def id_row_counts(rb, m, seed, sides=lambda a, b: (a, b)):
    """How often each ordered 4-tuple a + b of block ids was drawn over the
    m triples of one blocks_per_side = 2 draw, each row's (a, b) first
    passed through sides."""
    params = LBParams(n=rb + 2 * m, h=1, r_blocks=rb, m=m, s=0, blocks_per_side=2)
    draw = _draw_structure(params, RandomStream(seed))
    return Counter(sum(sides(tuple(a), tuple(b)), ())
                   for a, b in zip(draw[4].tolist(), draw[5].tolist()))


def uniform_ordered_law(rb):
    return {ids: Fraction(1, perm(rb, 4)) for ids in permutations(range(rb), 4)}


# (6, 36,000) has 360 ordered tuples of 100 expected draws each; at
# (4, 2,400) the 4 ids are all of range(4), so only their order is drawn
@pytest.mark.parametrize("rb, m, seed", [(6, 36_000, 1), (4, 2_400, 2)])
def test_block_id_rows_are_uniform_ordered_tuples(rb, m, seed):
    # each triple's a + b ids are the first 4 entries of a uniform
    # permutation of range(rb): every ordered 4-tuple of distinct ids has
    # chance (rb - 4)!/rb!
    stat, critical, df = chi_square_fit(id_row_counts(rb, m, seed),
                                        uniform_ordered_law(rb))
    assert df == perm(rb, 4) - 1
    assert stat < critical


def test_block_id_law_test_catches_rows_left_sorted(monkeypatch):
    # without the permutation of the 4 places, each row is its Floyd subset
    # in sorted order
    monkeypatch.setattr(RandomStream, "permutation_rows",
                        lambda self, rows, pop: np.tile(np.arange(pop), (rows, 1)))
    stat, critical, _ = chi_square_fit(id_row_counts(6, 36_000, 1),
                                       uniform_ordered_law(6))
    assert stat > critical


def test_block_id_law_test_catches_each_side_sorted():
    def each_side_sorted(a, b):
        return tuple(sorted(a)), tuple(sorted(b))

    stat, critical, _ = chi_square_fit(id_row_counts(6, 36_000, 1, each_side_sorted),
                                       uniform_ordered_law(6))
    assert stat > critical


def structure_digest(inst):
    side = structure_sidecar(inst)
    text = json.dumps({key: side[key] for key in ("R", "blocks", "alpha", "beta")},
                      sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("params, variant, digest", [
    *((SMALL, variant,
       "c163fe8cc3ca9cc1f521ab0260d66720a106c9521f744f9065718ae65ca4042d")
      for variant in ("yes", "no", "yes-ltf", "no-ltf")),
    (desk_params(4096), "no",
     "f52700c827524a5dd081858818b825fd79f294f3af954bbd492906f229a434d1"),
])
def test_structure_before_the_block_ids_keeps_its_words(params, variant, digest):
    # R, the blocks and the specials are drawn before the block ids, on the
    # words they had when the ids came from a full permutation of every
    # block: their sha256 digests at seed 33 are the ones pinned then
    inst = generate_instance(params, variant, RandomStream(33))
    assert structure_digest(inst) == digest


@pytest.mark.parametrize("variant, seed, digest", [
    ("yes", 0, "6499a0426b64f7a3a6e783fd5606e71048c11cb4ca057926de8e01a6e9f4d985"),
    ("yes", 1, "5d06cf964bdc1ffc18c3a6a1861fa1509981f0e31734b1380375152720d7610d"),
    ("no", 0, "4f0cfb4a196e4f5e03c234c71c0d1eef5adfd42c113d097a2b7f39c8f7ea2a80"),
    ("no", 1, "478974f1b98f6f93a1fab27ebea9844592f12bb995548e2620a1a0d976743330"),
    ("yes-ltf", 0, "0db432f5f1c76c91201ca2da455db6c60c2d20b4fd858295506e5539d4bfdaad"),
    ("yes-ltf", 1, "c0db05533d01536074350ab87052a88fdff999dbc2245d37bfdab70aae3698e6"),
    ("no-ltf", 0, "025e2c4e30e5b4c357e80a0c98df895c83a9b66ccd8a53bd923085c778327beb"),
    ("no-ltf", 1, "a0e67bce96e4bc7a8b66f477b66c22d805ca09c26a54916832dd962ba0f5d92e"),
])
def test_whole_instance_keeps_its_bytes(variant, seed, digest, tmp_path):
    # the instance file and the sidecar, as gen-instance writes them, at
    # desk_params(512): sha256 of the two files' bytes, one after the other
    inst = generate_instance(desk_params(512), variant, RandomStream(seed))
    path = tmp_path / "inst.json"
    save_instance(path, inst.n, inst.function, inst.distribution)
    sidecar = json.dumps(structure_sidecar(inst), indent=1) + "\n"
    assert hashlib.sha256(path.read_bytes() + sidecar.encode("utf-8")).hexdigest() == digest


# gen-instance under a 1 GiB address-space limit
_LIMITED_CLI = ("import resource, sys; "
                "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
                "from subcube.cli import main; sys.exit(main(sys.argv[1:]))")


def test_gen_instance_holds_no_table_over_every_block(tmp_path):
    # m = 2000 triples over 150,000 blocks: one row of all block ids per
    # triple would take 1.12 GiB, but each triple draws only its 4 ids
    src = os.path.dirname(os.path.dirname(subcube.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-c", _LIMITED_CLI, "gen-instance", "--variant", "no",
         "--n", "154000", "--scaled", "h=1,r_blocks=150000,m=2000,s=0,bps=2",
         "--seed", "1", "--out", str(tmp_path / "wide.json")],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "wide.json").exists()


def limited_gen_instance(*args):
    """gen-instance with args, run under _LIMITED_CLI."""
    src = os.path.dirname(os.path.dirname(subcube.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, "-c", _LIMITED_CLI, "gen-instance", *args],
                          capture_output=True, text=True, env=env, timeout=300)


def test_gen_instance_names_n_and_r_when_the_structure_does_not_fit(tmp_path):
    # the paper recipe at n = 10^11 draws R of 50,040,160,470 indices; its
    # first table does not fit under the limit
    out = tmp_path / "huge.json"
    proc = limited_gen_instance("--variant", "yes", "--n", "100000000000", "--out", str(out))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "|R| = 50040160470" in proc.stderr and "n = 100000000000" in proc.stderr
    assert not out.exists()


def test_gen_instance_checks_wide_triples_without_a_table_per_pair(tmp_path):
    # 400 blocks per side: comparing each of a row's 1,602 zeros with each of
    # its triple's 800 blocks would take 1.19 GiB over the 1,000 (a or c row,
    # triple) pairs, while the points themselves take a few tens of MB
    out = tmp_path / "deep.json"
    proc = limited_gen_instance("--variant", "no", "--n", "10000", "--scaled",
                                "h=2,r_blocks=800,m=500,s=1,bps=400", "--seed", "1",
                                "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert out.exists()
