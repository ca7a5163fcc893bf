"""Exact distances to the four hypothesis classes, against brute force."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import subcube.cli as cli
import subcube.distances as distances
from subcube import (
    DecisionList,
    FiniteDistribution,
    Flipped,
    GeneralConj,
    LabeledSample,
    LBParams,
    LinearThreshold,
    MonotoneConj,
    RandomStream,
    SizeCapError,
    TruthTable,
    exact_distance_conj,
    exact_distance_dlist,
    exact_distance_ltf,
    exact_distance_mconj,
    generate_instance,
    save_instance,
)
from subcube.adversarial import LBNoFunction
from helpers import (
    _reference_dlist_fits,
    _reference_ltf_fits,
    brute_distance,
    brute_flip_distance,
    conj_consistent,
    conj_tables,
    dlist_realizable,
    ltf_tables,
    mconj_consistent,
    mconj_tables,
    rand_dist,
    reference_flip_search,
    table_error,
    table_of,
    zs,
)


def labeled(f, dist):
    return LabeledSample.from_function(f, dist)


def sample_entries(f, dist):
    return labeled(f, dist).entries


# -- labeled samples ----------------------------------------------------------


def test_labeled_sample_validation():
    p, q = zs(3, 1), zs(3, 2)
    ok = LabeledSample(3, ((p, 1, Fraction(1, 2)), (q, 0, Fraction(1, 2))))
    assert len(ok.entries) == 2
    with pytest.raises(ValueError):
        LabeledSample(3, ((zs(4, 1), 1, Fraction(1)),))
    with pytest.raises(ValueError):
        LabeledSample(3, ((p, 1, Fraction(1, 2)), (p, 0, Fraction(1, 2))))
    with pytest.raises(ValueError):
        LabeledSample(3, ((p, 2, Fraction(1)),))
    with pytest.raises(ValueError):
        LabeledSample(3, ((p, 1, Fraction(0)),))
    with pytest.raises(ValueError):
        LabeledSample(3, ((p, 1, Fraction(2, 3)), (q, 0, Fraction(1, 2))))


def test_labeled_sample_from_function():
    f = MonotoneConj(3, frozenset({2}))
    dist = FiniteDistribution(3, ((zs(3, 2), Fraction(1, 4)),
                                  (zs(3, 3), Fraction(3, 4))))
    s = LabeledSample.from_function(f, dist)
    assert s.entries == ((zs(3, 2), 0, Fraction(1, 4)),
                         (zs(3, 3), 1, Fraction(3, 4)))


# -- monotone conjunctions ----------------------------------------------------


def test_mconj_distance_matches_brute_force():
    rng = RandomStream(800)
    for trial in range(60):
        sub = rng.split(trial)
        n = 3 + sub.randrange(2)
        f = TruthTable(n, sub.randrange(1 << (1 << n)))
        dist = rand_dist(sub.split("dist"), n, 2 + sub.randrange(6))
        err = exact_distance_mconj(f, dist)
        assert err == brute_distance(sample_entries(f, dist), n,
                                     mconj_tables(n))


def test_mconj_witness_achieves_distance():
    rng = RandomStream(801)
    for trial in range(30):
        sub = rng.split(trial)
        n = 4
        f = TruthTable(n, sub.randrange(1 << (1 << n)))
        dist = rand_dist(sub.split("dist"), n, 5)
        err, g = exact_distance_mconj(f, dist, return_witness=True)
        assert isinstance(g, MonotoneConj)
        assert table_error(table_of(g, n), n, sample_entries(f, dist)) == err


def test_mconj_zero_distance_for_class_members():
    f = MonotoneConj(5, frozenset({1, 4}))
    dist = rand_dist(RandomStream(802), 5, 8)
    assert exact_distance_mconj(f, dist) == 0
    assert mconj_consistent(labeled(f, dist))


# -- general conjunctions -----------------------------------------------------


def test_conj_distance_matches_brute_force():
    rng = RandomStream(803)
    for trial in range(60):
        sub = rng.split(trial)
        n = 3 + sub.randrange(2)
        f = TruthTable(n, sub.randrange(1 << (1 << n)))
        dist = rand_dist(sub.split("dist"), n, 2 + sub.randrange(6))
        err = exact_distance_conj(f, dist)
        assert err == brute_distance(sample_entries(f, dist), n,
                                     conj_tables(n))


def test_conj_witness_achieves_distance():
    rng = RandomStream(804)
    for trial in range(30):
        sub = rng.split(trial)
        n = 4
        f = TruthTable(n, sub.randrange(1 << (1 << n)))
        dist = rand_dist(sub.split("dist"), n, 5)
        err, g = exact_distance_conj(f, dist, return_witness=True)
        assert isinstance(g, GeneralConj)
        assert table_error(table_of(g, n), n, sample_entries(f, dist)) == err


def test_conj_constant_zero_witness():
    # the all-ones point labeled 0 is matched only by the contradiction
    f = TruthTable(3, 0)
    dist = FiniteDistribution(3, ((zs(3), Fraction(1)),))
    err, g = exact_distance_conj(f, dist, return_witness=True)
    assert err == 0
    assert g == GeneralConj(3, frozenset({1}), frozenset({1}))
    assert g.value_at(frozenset()) == 0


def test_conj_flip_invariance_and_class_gap():
    rng = RandomStream(805)
    for trial in range(25):
        sub = rng.split(trial)
        n = 3
        f = TruthTable(n, sub.randrange(1 << (1 << n)))
        dist = rand_dist(sub.split("dist"), n, 4)
        coords = frozenset({1, 3})
        d_conj = exact_distance_conj(f, dist)
        assert d_conj == exact_distance_conj(Flipped(f, coords),
                                             dist.flipped(coords))
        assert d_conj <= exact_distance_mconj(f, dist)


def test_flip_distance_can_be_strict():
    # flipping the zeros of a satisfying point need not preserve the
    # conjunction distance: every nearest conjunction here disagrees with the
    # chosen point's orientation
    f = TruthTable(2, 0b0110)
    dist = FiniteDistribution(2, (
        (zs(2, 2), Fraction(1, 10)),   # x = 10, f = 1
        (zs(2, 1), Fraction(3, 10)),   # x = 01, f = 1
        (zs(2), Fraction(3, 10)),      # x = 11, f = 0
        (zs(2, 1, 2), Fraction(3, 10)),
    ))
    x_star = zs(2, 2)
    assert f.value_at(x_star.zeros) == 1
    d_conj = exact_distance_conj(f, dist)
    d_flip = exact_distance_mconj(Flipped(f, x_star.zeros),
                                  dist.flipped(x_star.zeros))
    assert d_conj == Fraction(1, 10)
    assert d_flip == Fraction(3, 10)
    assert d_conj < d_flip


# -- decision lists -----------------------------------------------------------


def dlist_fits(n):
    def check(entries):
        return dlist_realizable(n, [(p.zeros, lab) for p, lab, _ in entries])
    return check


def test_dlist_distance_matches_brute_force():
    rng = RandomStream(806)
    for trial in range(60):
        sub = rng.split(trial)
        n = 4
        f = TruthTable(n, sub.randrange(1 << (1 << n)))
        dist = rand_dist(sub.split("dist"), n, 2 + sub.randrange(5))
        err = exact_distance_dlist(f, dist)
        assert err == brute_flip_distance(sample_entries(f, dist),
                                          dlist_fits(n))


def test_dlist_members_have_zero_distance():
    rng = RandomStream(807)
    for trial in range(20):
        sub = rng.split(trial)
        n = 4
        rules = tuple((lit, sub.randrange(2))
                      for lit in sub.sample([1, -2, 3, -4], 2))
        f = DecisionList(n, rules, sub.randrange(2))
        dist = rand_dist(sub.split("dist"), n, 6)
        assert exact_distance_dlist(f, dist) == 0
        assert _reference_dlist_fits(labeled(f, dist))


def test_dlist_witness_flips_to_consistency():
    f = TruthTable(2, 0b0110)  # parity, not a decision list on two variables
    dist = FiniteDistribution(2, (
        (zs(2), Fraction(1, 4)),
        (zs(2, 1), Fraction(1, 4)),
        (zs(2, 2), Fraction(1, 4)),
        (zs(2, 1, 2), Fraction(1, 4)),
    ))
    err, flipped_points = exact_distance_dlist(f, dist, return_witness=True)
    assert err == Fraction(1, 4)
    assert len(flipped_points) == 1
    flip_set = {p.zeros for p in flipped_points}
    entries = tuple((p, lab ^ (p.zeros in flip_set), w)
                    for p, lab, w in sample_entries(f, dist))
    assert _reference_dlist_fits(LabeledSample(2, entries))


# -- linear threshold functions -----------------------------------------------


def test_ltf_table_counts():
    assert len(ltf_tables(2)) == 14
    assert len(ltf_tables(3)) == 104


def test_ltf_distance_matches_brute_force():
    rng = RandomStream(808)
    tables = ltf_tables(3)
    for trial in range(40):
        sub = rng.split(trial)
        n = 3
        f = TruthTable(n, sub.randrange(1 << (1 << n)))
        dist = rand_dist(sub.split("dist"), n, 2 + sub.randrange(5))
        err = exact_distance_ltf(f, dist)
        assert err == brute_distance(sample_entries(f, dist), n, tables)


def test_ltf_members_have_zero_distance():
    f = LinearThreshold(4, (2, -1, 3, 0), 2)
    dist = rand_dist(RandomStream(809), 4, 8)
    assert exact_distance_ltf(f, dist) == 0
    assert _reference_ltf_fits(labeled(f, dist))


def test_ltf_witness_flips_to_consistency():
    f = TruthTable(2, 0b0110)  # parity is not linearly separable
    dist = FiniteDistribution(2, (
        (zs(2), Fraction(1, 8)),
        (zs(2, 1), Fraction(2, 8)),
        (zs(2, 2), Fraction(2, 8)),
        (zs(2, 1, 2), Fraction(3, 8)),
    ))
    err, flipped_points = exact_distance_ltf(f, dist, return_witness=True)
    assert err == Fraction(1, 8)
    flip_set = {p.zeros for p in flipped_points}
    entries = tuple((p, lab ^ (p.zeros in flip_set), w)
                    for p, lab, w in sample_entries(f, dist))
    assert _reference_ltf_fits(LabeledSample(2, entries))


# -- consistency helpers ------------------------------------------------------


def test_consistency_separates_classes():
    # f(00) = 1, f(01) = 0 breaks monotonicity but fits "not x2"
    s = LabeledSample(2, ((zs(2, 1, 2), 1, Fraction(1, 2)),
                          (zs(2, 1), 0, Fraction(1, 2))))
    assert not mconj_consistent(s)
    assert conj_consistent(s)

    parity = LabeledSample(2, tuple(
        (zs(2, *z), lab, Fraction(1, 4))
        for z, lab in (((1, 2), 0), ((1,), 1), ((2,), 1), ((), 0))))
    assert not conj_consistent(parity)
    assert not _reference_dlist_fits(parity)
    assert not _reference_ltf_fits(parity)

    # "if x1 then 1 elif x2 then 0 else 1" labels
    dl = LabeledSample(2, tuple(
        (zs(2, *z), lab, Fraction(1, 4))
        for z, lab in (((1, 2), 1), ((1,), 0), ((2,), 1), ((), 1))))
    assert _reference_dlist_fits(dl)
    assert not conj_consistent(dl)


def test_class_hierarchy_on_random_instances():
    rng = RandomStream(810)
    for trial in range(25):
        sub = rng.split(trial)
        n = 3
        f = TruthTable(n, sub.randrange(1 << (1 << n)))
        dist = rand_dist(sub.split("dist"), n, 4)
        d_m = exact_distance_mconj(f, dist)
        d_c = exact_distance_conj(f, dist)
        d_l = exact_distance_ltf(f, dist)
        d_d = exact_distance_dlist(f, dist)
        assert d_l <= d_c <= d_m  # conjunctions are threshold functions
        assert d_d <= d_c         # and also one-rule-per-literal lists
        sample = labeled(f, dist)
        assert (d_m == 0) == mconj_consistent(sample)
        assert (d_c == 0) == conj_consistent(sample)


# -- size caps ----------------------------------------------------------------


@pytest.mark.parametrize("witness", [False, True])
@pytest.mark.parametrize("distance, cap", [
    (exact_distance_mconj, 20), (exact_distance_conj, 20),
    (exact_distance_dlist, 16), (exact_distance_ltf, 16)])
def test_support_caps(distance, cap, witness):
    # one point past the cap raises, with or without a witness
    dist = rand_dist(RandomStream(811), 8, cap + 1)
    with pytest.raises(SizeCapError, match=f"^support capped at {cap} points$"):
        distance(MonotoneConj(8, frozenset({1})), dist, return_witness=witness)


# -- core-guided flip search --------------------------------------------------


NO60 = LBParams(n=60, h=4, r_blocks=6, m=3, s=1, blocks_per_side=1)
NOLTF60 = LBParams(n=60, h=4, r_blocks=7, m=3, s=1, blocks_per_side=2)
SEARCHES = (("dlist", exact_distance_dlist), ("ltf", exact_distance_ltf))


def assert_matches_reference(f, dist):
    sample = labeled(f, dist)
    for kind, search in SEARCHES:
        assert search(f, dist, return_witness=True) == \
            reference_flip_search(sample, kind), kind


@st.composite
def rational_instances(draw):
    """A random truth table and distribution, n <= 6, support <= 10; huge
    numerators make the weight denominators exceed 2^64."""
    n = draw(st.integers(1, 6))
    inputs = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1,
                           max_size=min(10, 1 << n), unique=True))
    top = draw(st.sampled_from((9, 1 << 70)))
    nums = draw(st.lists(st.integers(1, top), min_size=len(inputs),
                         max_size=len(inputs)))
    points = [zs(n, *(i for i in range(1, n + 1) if not (k >> (i - 1)) & 1))
              for k in inputs]
    dist = FiniteDistribution(n, tuple(
        (p, Fraction(v, sum(nums))) for p, v in zip(points, nums)))
    return TruthTable(n, draw(st.integers(0, (1 << (1 << n)) - 1))), dist


@settings(max_examples=150, deadline=None)
@given(rational_instances())
def test_flip_searches_match_reference_on_random_rationals(instance):
    assert_matches_reference(*instance)


@pytest.mark.parametrize("variant,params", (("no", NO60),
                                            ("no-ltf", NOLTF60)))
def test_flip_searches_match_reference_on_hard_instances(variant, params):
    inst = generate_instance(params, variant, RandomStream(1010).split(variant))
    assert_matches_reference(inst.function, inst.distribution)


def test_flip_sets_missing_a_core_are_still_checked():
    # the lightest fit flips {x2 = x3 = 0}; a search that skips every flip
    # set missing some core (cores found under other flips) returns 3/14
    f = TruthTable(3, 0b111001)
    dist = FiniteDistribution(3, tuple((zs(3, *z), Fraction(w, 14)) for z, w in (
        ((1, 2, 3), 1), ((1,), 3), ((), 1), ((1, 2), 2), ((2, 3), 2),
        ((2,), 2), ((3,), 3))))
    assert exact_distance_ltf(f, dist, return_witness=True) == \
        (Fraction(1, 7), (zs(3, 2, 3),))
    assert brute_distance(sample_entries(f, dist), 3, ltf_tables(3)) == \
        Fraction(1, 7)
    assert_matches_reference(f, dist)


def record_cores(monkeypatch, name):
    """Wrap distances.<name> so every call logs (labels, returned core)."""
    log = []
    check = getattr(distances, name)

    def logged(columns, m, ones):
        log.append((ones, check(columns, m, ones)))
        return log[-1][1]

    monkeypatch.setattr(distances, name, logged)
    return log


@pytest.mark.parametrize("kind,search,fits", (
    ("dlist", exact_distance_dlist, _reference_dlist_fits),
    ("ltf", exact_distance_ltf, _reference_ltf_fits)),
    ids=["dlist-exact_distance_dlist-dlist_reference",
         "ltf-exact_distance_ltf-ltf_reference"])
def test_every_recorded_core_is_inconsistent_on_its_own(
        monkeypatch, kind, search, fits):
    rng = RandomStream(1011)
    cases = [(f"t{t}", TruthTable(4, rng.split(t).randrange(1 << 16)),
              rand_dist(rng.split(t, "dist"), 4, 9)) for t in range(12)]
    inst = generate_instance(NOLTF60, "no-ltf", rng.split("no-ltf"))
    cases.append(("no-ltf", inst.function, inst.distribution))
    checked = 0
    for name, f, dist in cases:
        sample = labeled(f, dist)
        log = record_cores(monkeypatch, f"_{kind}_core")
        search(f, dist)
        monkeypatch.undo()
        assert log and log[-1][1] == 0, name  # the search ends on a fit
        for ones, core in log[:-1]:
            sub = tuple((p, (ones >> i) & 1, w)
                        for i, (p, _, w) in enumerate(sample.entries)
                        if (core >> i) & 1)
            assert not fits(LabeledSample(sample.n, sub)), name
            if kind == "dlist":
                assert not dlist_realizable(
                    sample.n, [(p.zeros, lab) for p, lab, _ in sub]), name
            checked += 1
    assert checked > 10


def test_ltf_search_on_a_hard_instance_runs_few_programs(monkeypatch):
    inst = generate_instance(NOLTF60, "no-ltf", RandomStream(1012))
    log = record_cores(monkeypatch, "_ltf_core")
    assert exact_distance_ltf(inst.function, inst.distribution) >= \
        Fraction(1, 4)
    assert len(log) < 10


def test_wide_inputs_are_capped_by_distinct_columns(tmp_path, capsys):
    # XOR of x1 and x2 on the square {x1, x2} x {1}^98, written with
    # serializable specs: on that square the hidden-block function is 1 at
    # zero sets {} and {1, 2} only, and flipping x1 turns that into XOR
    face = ((), (1,), (2,), (1, 2))
    dist = FiniteDistribution(100, tuple(
        (zs(100, *z), Fraction(1, 4)) for z in face))
    xnor = LBNoFunction(100, frozenset(range(1, 5)), (1, 2),
                        ((frozenset({2}),), (frozenset({1}),)),
                        ((frozenset({3}),), (frozenset({4}),)), 0)
    xor = Flipped(xnor, frozenset({1}))
    small = FiniteDistribution(2, tuple(
        (zs(2, *z), Fraction(1, 4)) for z in face))
    assert [xor.value_at(frozenset(z)) for z in face] == [0, 1, 1, 0]
    for _, search in SEARCHES:
        assert search(xor, dist) == search(TruthTable(2, 0b0110), small) \
            == Fraction(1, 4)
    path = tmp_path / "xor100.json"
    save_instance(path, 100, xor, dist)
    capsys.readouterr()
    for klass in ("dlist", "ltf"):
        assert cli.main(["distance", "--instance", str(path),
                         "--class", klass]) == 0
        assert capsys.readouterr().out.strip() == "1/4"
    # eight points on which coordinates 1..70 have 70 distinct zero patterns
    wide = FiniteDistribution(100, tuple(
        (zs(100, *(j for j in range(1, 71) if (j >> r) & 1)), Fraction(1, 8))
        for r in range(8)))
    with pytest.raises(SizeCapError, match="columns"):
        exact_distance_ltf(xor, wide)
