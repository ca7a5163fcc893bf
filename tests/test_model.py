"""Core data types: points, function specs, distributions, counted oracles."""

from bisect import bisect_right
from fractions import Fraction
import hashlib
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from subcube import (
    BlackBox,
    BudgetExceeded,
    DecisionList,
    DimensionMismatch,
    FiniteDistribution,
    Flipped,
    GeneralConj,
    LBParams,
    LinearThreshold,
    MonotoneConj,
    QueryTranscript,
    RandomStream,
    Sampler,
    SizeCapError,
    TruthTable,
    ZeroSet,
    generate_instance,
)
import subcube.model as model_module
from helpers import (charge_samples, chi_square_fit, collect, draw_indices, flip_distribution,
                     literal_coords, literal_draw, literal_index, rand_dist, rand_points, table_of,
                     word_index, zs)


def test_zeroset_validation_and_flip():
    p = zs(5, 2, 4)
    assert p.sorted_zeros() == [2, 4]
    assert ZeroSet.all_ones(5).zeros == frozenset()
    assert p.flip({4, 5}).zeros == frozenset({2, 5})
    assert p.flip({2, 4}).zeros == frozenset()
    with pytest.raises(ValueError):
        ZeroSet(3, frozenset({4}))
    with pytest.raises(ValueError):
        ZeroSet(0)


def test_monotone_conj_values():
    f = MonotoneConj(4, frozenset({1, 3}))
    assert f.value_at(frozenset()) == 1
    assert f.value_at(frozenset({2, 4})) == 1
    assert f.value_at(frozenset({3})) == 0
    assert MonotoneConj(4, frozenset()).value_at(frozenset({1, 2, 3, 4})) == 1
    with pytest.raises(ValueError):
        MonotoneConj(4, frozenset({5}))


def test_general_conj_values():
    f = GeneralConj(4, frozenset({1}), frozenset({2}))
    assert f.value_at(frozenset({2})) == 1
    assert f.value_at(frozenset()) == 0       # coordinate 2 must be 0
    assert f.value_at(frozenset({1, 2})) == 0  # coordinate 1 must be 1
    # overlapping literal sets give the constant-0 conjunction
    g = GeneralConj(4, frozenset({3}), frozenset({3}))
    assert all(g.value_at(frozenset(sub)) == 0
               for sub in ([], [3], [1, 2, 3, 4]))


def test_decision_list_values():
    f = DecisionList(3, ((-2, 1), (1, 0)), 1)
    assert f.value_at(frozenset({2})) == 1   # first rule fires on z2 = 0
    assert f.value_at(frozenset()) == 0      # second rule fires on z1 = 1
    assert f.value_at(frozenset({1})) == 1   # default
    with pytest.raises(ValueError):
        DecisionList(3, ((0, 1),), 0)
    with pytest.raises(ValueError):
        DecisionList(3, ((4, 1),), 0)


def test_linear_threshold_values():
    maj = LinearThreshold(3, (1, 1, 1), 2)
    assert maj.value_at(frozenset({3})) == 1
    assert maj.value_at(frozenset({2, 3})) == 0
    neg = LinearThreshold(2, (-1, 1), 0)
    assert neg.value_at(frozenset({1})) == 1
    assert neg.value_at(frozenset({2})) == 0
    with pytest.raises(ValueError):
        LinearThreshold(3, (1, 1), 0)


def test_truth_table_round_trip():
    rng = RandomStream(101)
    for n in (1, 2, 3, 4):
        bits = rng.randrange(1 << (1 << n))
        f = TruthTable(n, bits)
        assert table_of(f, n) == bits
    with pytest.raises(SizeCapError):
        TruthTable(25, 0)


def test_truth_table_input_index():
    f = TruthTable(3, 0)
    assert f.input_index(frozenset()) == 7
    assert f.input_index(frozenset({1, 2, 3})) == 0
    assert f.input_index(frozenset({2})) == 0b101


def test_flipped_spec():
    inner = MonotoneConj(4, frozenset({1, 2}))
    f = Flipped(inner, frozenset({2}))
    # f(x) = inner(x with coordinate 2 flipped)
    assert f.value_at(frozenset({2})) == 1
    assert f.value_at(frozenset()) == 0
    assert f.n == 4
    with pytest.raises(ValueError):
        Flipped(inner, frozenset({5}))


BAD_COORDS = [1.5, 2.0, "2", True, np.int64(2), 0, 5, -5, None]


@pytest.mark.parametrize("bad", BAD_COORDS, ids=repr)
@pytest.mark.parametrize("build", [
    lambda c: ZeroSet(4, frozenset({3, c})),
    lambda c: MonotoneConj(4, frozenset({c})),
    lambda c: GeneralConj(4, frozenset({c}), frozenset()),
    lambda c: GeneralConj(4, frozenset(), frozenset({3, c})),
    lambda c: Flipped(MonotoneConj(4, frozenset({1})), frozenset({c})),
    lambda c: DecisionList(4, ((2, 1), (c, 0)), 1),
], ids=["ZeroSet", "MonotoneConj", "GeneralConj.one", "GeneralConj.zero",
        "Flipped", "DecisionList"])
def test_constructors_reject_non_int_coordinates(build, bad):
    with pytest.raises(ValueError, match=r"not an integer in 1\.\.4"):
        build(bad)
    for good in (1, 4):
        build(good)
    # a decision-list literal is signed
    assert DecisionList(4, ((-4, 1),), 0).rules == ((-4, 1),)


def test_evaluate_checks_dimensions():
    f = MonotoneConj(4, frozenset({1}))
    assert BlackBox(f, QueryTranscript()).query(zs(4, 2)) == 1
    with pytest.raises(DimensionMismatch):
        BlackBox(f, QueryTranscript()).query(zs(5, 2))
    d5 = FiniteDistribution(5, ((zs(5, 2), Fraction(1)),))
    with pytest.raises(DimensionMismatch):
        Sampler(d5, f, QueryTranscript(), RandomStream(0))


def test_distribution_validation():
    with pytest.raises(ValueError):
        FiniteDistribution(2, ((zs(2), Fraction(1, 2)),))
    with pytest.raises(ValueError):
        FiniteDistribution(2, ((zs(2), Fraction(1, 2)),
                               (zs(2), Fraction(1, 2))))
    with pytest.raises(ValueError):
        FiniteDistribution(2, ((zs(2), Fraction(3, 2)),
                               (zs(2, 1), Fraction(-1, 2))))
    with pytest.raises(ValueError):
        FiniteDistribution(2, ())
    with pytest.raises(DimensionMismatch):
        FiniteDistribution(2, ((zs(3), Fraction(1)),))


def test_rand_points_refuses_more_points_than_exist():
    # n = 4 has 1 + 4 = 5 points with at most one zero
    pts = rand_points(RandomStream(58), 4, 5, max_zeros=1)
    assert {p.zeros for p in pts} == {frozenset()} | {
        frozenset({i}) for i in range(1, 5)}
    with pytest.raises(ValueError):
        rand_points(RandomStream(58), 4, 6, max_zeros=1)


def test_distribution_inverse_cdf_is_exact():
    weights = [Fraction(1, 6), Fraction(1, 2), Fraction(1, 3)]
    d = FiniteDistribution(3, tuple(
        zip([zs(3), zs(3, 1), zs(3, 2, 3)], weights)))
    assert d.denominator == 6
    counts = [0, 0, 0]
    for u in range(d.denominator):
        counts[literal_index(d, u)] += 1
    assert [Fraction(c, d.denominator) for c in counts] == weights


def test_distribution_weight_of_and_flip():
    d = FiniteDistribution(3, ((zs(3, 1), Fraction(1, 4)),
                               (zs(3, 2), Fraction(3, 4))))
    weight = {p.zeros: w for p, w in d.entries}
    assert weight[frozenset({1})] == Fraction(1, 4)
    assert frozenset({3}) not in weight
    flipped = {p.zeros: w for p, w in flip_distribution(d, {1, 3}).entries}
    assert flipped == {frozenset({3}): Fraction(1, 4),
                       frozenset({1, 2, 3}): Fraction(3, 4)}


def test_draw_point_matches_index_map():
    d = rand_dist(RandomStream(56), 6, 5)
    f = MonotoneConj(6, frozenset({1}))
    sm = Sampler(d, f, QueryTranscript(), RandomStream(55))
    replay = RandomStream(55)
    for _ in range(40):
        u = int(replay.integers(d.denominator, 1)[0])
        assert sm.draw()[0] == d.entries[literal_index(d, u)][0]


def test_flip_transform_preserves_labels():
    f = GeneralConj(5, frozenset({1}), frozenset({3, 4}))
    d = rand_dist(RandomStream(57), 5, 6)
    g, d2 = Flipped(f, frozenset({3, 4})), flip_distribution(d, {3, 4})
    weight2 = {p.zeros: w for p, w in d2.entries}
    for p, w in d.entries:
        q = p.flip({3, 4})
        assert g.value_at(q.zeros) == f.value_at(p.zeros)
        assert weight2[q.zeros] == w


def test_budget_raises_before_counting():
    t = QueryTranscript(limit=2)
    t.take_blackbox()
    t.take_blackbox()
    with pytest.raises(BudgetExceeded):
        t.take_blackbox()
    assert t.blackbox_count == 2
    # the limit caps each count on its own
    t._take("sample_count", 1, 2)
    with pytest.raises(BudgetExceeded):
        t._take("sample_count", 1)
    assert t.sample_count == 2
    capped = QueryTranscript(limit=5)
    with pytest.raises(BudgetExceeded):
        capped._take("sample_count", 1, 6)  # a call is refused whole
    assert capped.sample_count == 0
    unlimited = QueryTranscript()  # no limit by default
    unlimited._take("sample_count", 1, 10 ** 9)
    unlimited.take_blackbox()
    assert (unlimited.blackbox_count, unlimited.sample_count) == (1, 10 ** 9)


def test_blackbox_counts_and_logs():
    f = MonotoneConj(4, frozenset({2}))
    tr = QueryTranscript(log_queries=True)
    bb = BlackBox(f, tr)
    assert bb.query(zs(4, 1)) == 1
    assert bb.query_set(frozenset({2})) == 0
    assert tr.blackbox_count == 2
    assert tr.blackbox_log == [(frozenset({1}), 1), (frozenset({2}), 0)]
    with pytest.raises(DimensionMismatch):
        bb.query(zs(5, 1))


def test_blackbox_budget_enforced():
    f = MonotoneConj(4, frozenset({2}))
    tr = QueryTranscript(limit=1)
    bb = BlackBox(f, tr)
    bb.query(zs(4))
    with pytest.raises(BudgetExceeded):
        bb.query(zs(4))
    assert tr.blackbox_count == 1


def test_flipped_blackbox_forwards_one_query():
    f = MonotoneConj(4, frozenset({1, 2}))
    tr = QueryTranscript(log_queries=True, limit=4)
    inner = BlackBox(f, tr)
    fb = inner.flipped(frozenset({2}))
    assert fb.query(zs(4, 2)) == f.value_at(frozenset())
    assert fb.query_set(frozenset()) == f.value_at(frozenset({2}))
    assert tr.blackbox_count == 2
    # the log holds the points f was asked, in its own coordinates
    assert tr.blackbox_log == [(frozenset(), 1), (frozenset({2}), 0)]
    # flipping twice by the same set undoes the flip
    assert fb.flipped({2}).query_set(frozenset({1})) == 0
    assert tr.blackbox_log[-1] == (frozenset({1}), 0)
    # the box the view came from stays unflipped (f gets the very set it is
    # given, no XOR copy) and shares the transcript's limit
    z = frozenset({2})
    assert inner.query_set(z) == 0
    assert tr.blackbox_log[-1][0] is z
    with pytest.raises(BudgetExceeded):
        fb.query_set(frozenset())


def test_sampler_draw_and_labels():
    f = MonotoneConj(4, frozenset({1}))
    d = FiniteDistribution(4, ((zs(4, 1), Fraction(1, 3)),
                               (zs(4, 2), Fraction(2, 3))))
    tr = QueryTranscript(log_queries=True)
    sm = Sampler(d, f, tr, RandomStream(8))
    for _ in range(20):
        point, label = sm.draw()
        assert label == f.value_at(point.zeros)
    assert tr.sample_count == 20
    assert len(tr.sample_log) == 20
    assert sm.support_size == 2
    assert sm.point(0).zeros == frozenset({1})
    assert sm.labels[0] == 0


def test_sampler_budget_enforced():
    f = MonotoneConj(4, frozenset())
    d = FiniteDistribution(4, ((zs(4), Fraction(1)),))
    tr = QueryTranscript(limit=3)
    sm = Sampler(d, f, tr, RandomStream(9))
    for _ in range(3):
        sm.draw()
    with pytest.raises(BudgetExceeded):
        sm.draw()
    assert tr.sample_count == 3


def test_draw_indices_charges_and_continues_one_stream():
    f = MonotoneConj(6, frozenset({1}))
    d = rand_dist(RandomStream(60), 6, 5)
    tr = QueryTranscript()
    sm = Sampler(d, f, tr, RandomStream(61))
    parts = [draw_indices(sm, 7) for _ in range(3)]
    assert tr.sample_count == 21
    twin_tr = QueryTranscript()
    twin = Sampler(d, f, twin_tr, RandomStream(61))
    assert np.array_equal(np.concatenate(parts), draw_indices(twin, 21))
    assert twin_tr.sample_count == 21
    # the batch stream is not draw()'s: single draws are unmoved by it
    fresh = Sampler(d, f, QueryTranscript(), RandomStream(61))
    assert [sm.draw() for _ in range(8)] == [fresh.draw() for _ in range(8)]
    # a refused call draws nothing, so each stream goes on where it stood
    capped_tr = QueryTranscript(limit=0)
    capped = Sampler(d, f, capped_tr, RandomStream(61))
    for refused in (lambda: draw_indices(capped, 3), capped.draw):
        with pytest.raises(BudgetExceeded):
            refused()
    capped_tr.limit = None
    assert np.array_equal(draw_indices(capped, 21), np.concatenate(parts))
    again = Sampler(d, f, QueryTranscript(), RandomStream(61))
    assert [capped.draw() for _ in range(8)] == [again.draw() for _ in range(8)]


@pytest.mark.parametrize("big", [False, True])
def test_draw_groups_in_chunks_match_draw_indices(monkeypatch, big):
    # a block drawn a few samples at a time holds the indices, and labels,
    # of one draw_indices call per group, and leaves the stream where they do
    monkeypatch.setattr(model_module, "_DRAW_SAMPLES", 7)
    den = (1 << 64) + 13 if big else 97
    d = FiniteDistribution(3, ((zs(3), Fraction(1, den)), (zs(3, 1), Fraction(30, den)),
                               (zs(3, 2), Fraction(den - 31, den))))
    f = MonotoneConj(3, frozenset({1}))
    sm = Sampler(d, f, QueryTranscript(), RandomStream(66))
    twin = Sampler(d, f, QueryTranscript(), RandomStream(66))
    idx, lab = sm._draw_groups(5, 6)
    want = np.array([draw_indices(twin, 6) for _ in range(5)])
    assert np.array_equal(idx, want)
    assert np.array_equal(lab, sm.labels[want])
    assert np.array_equal(sm._draw_groups(1, 3)[0][0], draw_indices(twin, 3))


def spread_dist(den):
    """Four points of {0,1}^4 with weights over den; past 2^12 the bucket
    table has unresolved buckets, and past 2^62 draws take the bigint path."""
    nums = (1, 30, den // 3)
    return FiniteDistribution(4, tuple(
        (zs(4, *z), Fraction(w, den))
        for z, w in zip(((), (1,), (2,), (1, 2)), nums + (den - sum(nums),))))


@pytest.mark.parametrize("den", [97, (1 << 40) + 15, (1 << 64) + 13, 3 ** 67])
@pytest.mark.parametrize("label", [0, 1])
def test_conditioned_draws_are_the_members_inverse_cdf(den, label):
    # D conditioned on a label draws its members through the inverse CDF of
    # their numerators, on the words of one randrange per draw (past 2^62,
    # of one word_index per draw)
    d, f = spread_dist(den), MonotoneConj(4, frozenset({1}))
    sm = Sampler(d, f, QueryTranscript(), RandomStream(0))
    view, members = sm._conditioned(label)
    assert members.tolist() == [i for i, (p, _) in enumerate(d.entries)
                                if f.value_at(p.zeros) == label]
    cum = list(accumulate(int(d.entries[i][1] * d.denominator) for i in members.tolist()))
    a, b = RandomStream(9), RandomStream(9)
    got = view._draw_indices_raw(a, 300)
    assert got.tolist() == [bisect_right(cum, b.randrange(cum[-1])) if cum[-1] <= 1 << 62
                            else word_index(cum, b) for _ in range(300)]
    assert a.randrange(1 << 70) == b.randrange(1 << 70)
    assert sm.labels is view.labels and sm._table is not view._table
    assert Sampler(d, MonotoneConj(4, frozenset()), QueryTranscript(),
                   RandomStream(0))._conditioned(0) is None


# a limit of 0, a limit inside the batch, a transcript already at its
# limit, and a limit past the batch
@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 1 << 32), k=st.integers(0, 40),
       limit=st.none() | st.integers(0, 45), spent=st.integers(0, 45),
       den=st.sampled_from([97, (1 << 40) + 15, (1 << 64) + 13, 3 ** 67]),
       chunk=st.sampled_from([None, 1, 3, 7]), log=st.booleans())
@example(seed=1, k=12, limit=0, spent=0, den=97, chunk=None, log=True)
@example(seed=2, k=12, limit=20, spent=15, den=97, chunk=3, log=True)
@example(seed=3, k=12, limit=9, spent=9, den=(1 << 64) + 13, chunk=None, log=True)
@example(seed=4, k=30, limit=10, spent=0, den=(1 << 64) + 13, chunk=7, log=True)
def test_sampler_draws_match_draw_calls(seed, k, limit, spent, den, chunk, log):
    # one batch of k draws hands out the points and labels of k draw()
    # calls, and of k literal one-sample draws; it charges and logs the
    # draws that fit, refuses the next, and leaves the stream at their word
    d, f = spread_dist(den), MonotoneConj(4, frozenset({1}))
    spent = spent if limit is None else min(spent, limit)

    def run(draws):
        tr = QueryTranscript(log_queries=log, limit=limit, sample_count=spent)
        sm = Sampler(d, f, tr, RandomStream(seed))
        with pytest.MonkeyPatch.context() as mp:
            if chunk:
                mp.setattr(model_module, "_DRAW_SAMPLES", chunk)
            taken, refused = collect(draws(sm))
        return (taken, refused, tr.sample_count, tr.sample_log,
                sm.rng.randrange(1000), sm.rng.randrange(1 << 70))

    batch = run(lambda sm: sm.draws(k))
    assert batch == run(lambda sm: (sm.draw() for _ in range(k)))
    assert batch == run(lambda sm: (literal_draw(sm) for _ in range(k)))
    fit = k if limit is None else min(k, limit - spent)
    assert len(batch[0]) == fit and batch[1] == (fit < k)
    assert batch[2] == spent + fit


# no limit, and a limit below, at or past the start count (room < 0)
@settings(max_examples=300, deadline=None)
@given(count=st.sampled_from(["blackbox_count", "sample_count"]), start=st.integers(0, 60),
       room=st.none() | st.integers(-60, 400), calls=st.integers(0, 40),
       size=st.integers(1, 9), seed=st.integers(0, 1 << 32))
@example(count="blackbox_count", start=5, room=-3, calls=4, size=1, seed=0)
@example(count="sample_count", start=5, room=-3, calls=3, size=2, seed=0)
@example(count="sample_count", start=5, room=-2, calls=3, size=1, seed=0)
def test_a_batch_is_charged_as_its_calls_one_at_a_time(count, start, room, calls, size,
                                                       seed):
    # _take charges the calls that fit and refuses the first that does not,
    # as a loop of single calls does; asked only, it moves no count; and a
    # count at or past its limit admits no call and never moves. A batch of
    # queries or of draws logs the calls that fit, as its loop does
    limit = None if room is None else max(0, start + room)

    def charged(charge, log=False):
        tr = QueryTranscript(log_queries=log, limit=limit, **{count: start})
        try:
            got = charge(tr)
        except BudgetExceeded:
            got = "budget"
        return got, tr.blackbox_count, tr.sample_count, tr.blackbox_log, tr.sample_log

    # the oracles' batches against their one-call loops, with logging on
    rng = RandomStream(seed)
    if count == "blackbox_count":
        func = MonotoneConj(6, frozenset({1}))
        rows = np.array([[1 + rng.randrange(6)] for _ in range(calls)], dtype=np.intp)
        rows = rows.reshape(calls, 1)

        def ask(tr):
            box = BlackBox(func, tr)
            for k, row in enumerate(rows.tolist()):
                if box.query_set(frozenset(row)) == 0:
                    return k
            return None

        assert charged(lambda tr: BlackBox(func, tr).query_until(rows, 0), True) == \
            charged(ask, True)
    else:
        d, f = spread_dist(97), MonotoneConj(4, frozenset({1}))

        def draw(tr):
            sm = Sampler(d, f, tr, RandomStream(seed))
            return [sm.draw() for _ in range(calls)]

        assert charged(lambda tr: list(Sampler(d, f, tr, RandomStream(seed)).draws(calls)),
                       True) == charged(draw, True)

    # _take against a loop of single calls
    def loop(tr):
        for _ in range(calls):
            if count == "blackbox_count":
                tr.take_blackbox(size)
            else:
                charge_samples(tr, size)
        return calls

    want = charged(loop)
    assert charged(lambda tr: tr._take(count, calls, size)) == want
    fit = (want[1] + want[2] - start) // size  # the calls the loop charged
    assert (want[0] == "budget") == (fit < calls)
    untouched = charged(lambda tr: None)[1:]
    assert charged(lambda tr: tr._take(count, calls, size, charge=False)) == (
        "budget" if calls and not fit else fit, *untouched)
    if limit is not None and start >= limit:
        assert want[1:] == untouched


def test_rebound_sampler_is_a_fresh_sampler():
    # a copy on new streams shares the labels and table, draws as a sampler
    # built on those streams does, and leaves the original's streams alone
    d, f = spread_dist((1 << 40) + 15), MonotoneConj(4, frozenset({1}))
    base = Sampler(d, f, QueryTranscript(), RandomStream(5))
    tr, fresh_tr = QueryTranscript(log_queries=True), QueryTranscript(log_queries=True)
    view = base.rebind(tr, RandomStream(6))
    fresh = Sampler(d, f, fresh_tr, RandomStream(6))
    assert view.labels is base.labels and view._table is base._table
    assert list(view.draws(20)) == list(fresh.draws(20))
    assert np.array_equal(draw_indices(view, 9), draw_indices(fresh, 9))
    assert (tr.sample_count, tr.sample_log) == (fresh_tr.sample_count, fresh_tr.sample_log)
    assert base.transcript.sample_count == 0
    untouched = Sampler(d, f, QueryTranscript(), RandomStream(5))
    assert list(base.draws(5)) == list(untouched.draws(5))
    assert np.array_equal(draw_indices(base, 5), draw_indices(untouched, 5))


def test_streams_build_their_generator_on_the_first_draw(monkeypatch):
    # a stream reads the words of a generator built eagerly on its (seed,
    # path); one that is only split, and a rebound sampler's unread batch
    # stream, build none; flipped views draw from one batch generator
    builds = []
    pcg = np.random.PCG64

    def counted(seq):
        builds.append(seq.spawn_key)
        return pcg(seq)

    monkeypatch.setattr(np.random, "PCG64", counted)
    child = RandomStream(11).split("a", 2)
    child.split("b").split("c")
    assert builds == []
    eager = np.random.Generator(pcg(np.random.SeedSequence(entropy=11, spawn_key=child.path)))
    assert child.integers(1 << 40, size=50).tolist() == \
        eager.integers(0, 1 << 40, size=50).tolist()
    assert child._words(7).tolist() == \
        eager.integers(0, 1 << 64, size=7, dtype=np.uint64).tolist()
    assert builds == [child.path]
    d, f = spread_dist((1 << 40) + 15), MonotoneConj(4, frozenset({1}))
    builds.clear()
    base = Sampler(d, f, QueryTranscript(), RandomStream(5))
    rebound = base.rebind(QueryTranscript(), RandomStream(6))
    assert list(rebound.draws(3)) and len(builds) == 1  # its draw stream only
    view = base.flipped({1, 2})
    first = view._draw_groups(2, 3)[0]
    assert view._batch._gen is base._batch._gen and len(builds) == 2
    after = base._draw_groups(1, 3)[0]
    fresh = Sampler(d, f, QueryTranscript(), RandomStream(5))
    assert np.array_equal(np.vstack((first, after)), fresh._draw_groups(3, 3)[0])


COORD_VALUES = (st.integers(-25, 25) | st.booleans() | st.floats(-30, 30)
                | st.integers(-25, 25).map(np.int64) | st.integers(1, 25).map(float)
                | st.just(None) | st.text(max_size=1))


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 20), values=st.lists(COORD_VALUES, max_size=8),
       kind=st.sampled_from([frozenset, list, tuple, iter]),
       signed=st.booleans())
@example(n=5, values=[1, True], kind=list, signed=False)
@example(n=5, values=[2, 2.0], kind=list, signed=False)
@example(n=5, values=[-5, 3], kind=iter, signed=True)
@example(n=5, values=[0], kind=tuple, signed=True)
@example(n=5, values=[3, np.int64(3)], kind=iter, signed=False)
def test_coords_accepts_and_rejects_as_the_literal_loop(n, values, kind, signed):
    # the same set on every accepted input, and the same message, naming the
    # same first bad coordinate, on every rejected one; iter() makes a
    # one-shot iterator, which must be checked and returned whole
    outcomes = []
    for check in (model_module._coords, literal_coords):
        try:
            outcomes.append(("ok", check(n, kind(values), "coordinate", signed)))
        except ValueError as exc:
            outcomes.append(("error", str(exc)))
    assert outcomes[0] == outcomes[1]
    if outcomes[0][0] == "ok":
        assert type(outcomes[0][1]) is frozenset


def per_draw_reference(d, rng, k):
    """The literal exact sampler past 2^62: one word_index per draw."""
    return [word_index(d._cum, rng) for _ in range(k)]


def assert_same_stream(d, k, seed):
    """Sampler batches equal the literal inverse CDF on a twin stream, and
    both streams end in the same state."""
    sm = Sampler(d, MonotoneConj(d.n, frozenset()), QueryTranscript(),
                 RandomStream(0))
    a, b = RandomStream(seed), RandomStream(seed)
    got = sm._draw_indices_raw(a, k)
    if d.denominator <= 1 << 62:
        cum = np.array(d._cum, dtype=np.int64)
        ref = np.searchsorted(cum, b.integers(d.denominator, size=k), side="right")
    else:
        ref = per_draw_reference(d, b, k)
    assert [int(i) for i in got] == [int(i) for i in ref]
    assert a._gen.bit_generator.state == b._gen.bit_generator.state
    assert a.randrange(1 << 70) == b.randrange(1 << 70)


def test_sampler_bigint_denominator_path():
    # weights with a denominator beyond the batched int64 path, drawn one
    # word per draw
    big = (1 << 64) + 13
    d = FiniteDistribution(3, ((zs(3), Fraction(1, big)),
                               (zs(3, 1), Fraction(big - 1, big))))
    sm = Sampler(d, MonotoneConj(3, frozenset({1})), QueryTranscript(),
                 RandomStream(64))
    a, b = RandomStream(65), RandomStream(65)
    idx = sm._draw_indices_raw(a, 50)
    assert [int(i) for i in idx] == per_draw_reference(d, b, 50)
    assert a.randrange(big) == b.randrange(big)


def dist_from_cuts(denominator, cuts):
    """The distribution whose CDF numerators over denominator are cuts + [M]."""
    bounds = [0] + sorted(cuts) + [denominator]
    n = max(1, (len(bounds) - 2).bit_length())
    entries = []
    for k in range(len(bounds) - 1):
        point = ZeroSet(n, frozenset(j + 1 for j in range(n) if (k >> j) & 1))
        entries.append((point, Fraction(bounds[k + 1] - bounds[k], denominator)))
    return FiniteDistribution(n, tuple(entries))


DENOMINATORS = [2, 3, 4096, 4097, (1 << 40) + 15, 1 << 62, (1 << 62) + 1,
                (1 << 64) + 13, (1 << 105) + 51, 3 ** 67]


@st.composite
def rational_dists(draw):
    """Random rational distributions whose common denominator is exactly M.

    One weight is 1/M, which pins the denominator; with skew, every boundary
    sits in a run of consecutive numerators, so they share one bucket.
    """
    m = draw(st.sampled_from(DENOMINATORS) | st.integers(2, 1 << 110))
    size = draw(st.integers(1, min(m, 40)))
    if size == 1:
        return dist_from_cuts(m, [])
    if draw(st.booleans()):
        c = draw(st.integers(1, m - size + 1))
        cuts = set(range(c, c + size - 1))
    else:
        c = draw(st.integers(0, m - 1))
        cuts = {c, c + 1} - {0, m}
        cuts |= set(draw(st.lists(st.integers(1, m - 1), max_size=size)))
    return dist_from_cuts(m, cuts)


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(rational_dists(), st.integers(0, 400), st.integers(0, 1 << 32))
def test_batched_draws_equal_the_literal_inverse_cdf(d, k, seed):
    assert_same_stream(d, k, seed)


def test_batched_boundary_buckets_resolve_exactly():
    # M = 3 * 2^12 + 1 has 14 bits, so buckets span 4 numerators: a run of
    # 40 unit weights puts boundaries in 10 buckets, and about 160 of the
    # draws land on a boundary exactly
    assert_same_stream(dist_from_cuts(3 * 4096 + 1, range(1, 41)), 50_000, 5)


class _FixedWords:
    """Stands in for numpy's generator: full-range uint64 draws are read
    from a fixed list."""

    def __init__(self, words):
        self.words = list(words)
        self.used = 0

    def integers(self, low, high, size, dtype):
        assert (low, high, dtype) == (0, 1 << 64, np.uint64)
        out = np.array(self.words[self.used:self.used + size], dtype=np.uint64)
        assert len(out) == size, "ran out of words"
        self.used += size
        return out


def fixed_stream(words, ties):
    """A stream that reads its words, and its tie stream's, from fixed lists."""
    rng = RandomStream(0)
    rng._gen, rng._ties._gen = _FixedWords(words), _FixedWords(ties)
    return rng


@pytest.mark.parametrize("m", [(1 << 105) + 51, 3 ** 67, (1 << 64) + 13])
def test_bigint_top_word_ties_resolve_exactly(m):
    # clustered cuts share a top word. A draw's word sits at, or one unit
    # either side of, some cut's top word, or ties it and goes on, on the
    # tie stream, at or one unit either side of the cut's second word. A
    # draw reads the shortest prefix of V that no cut falls strictly inside,
    # and its index is the number of cuts at or below that prefix; draws(k)
    # hands out the points of k draw() calls on the same words
    d = dist_from_cuts(m, [1, 2, 3, m // 3, m // 3 + 1, m // 2])
    cuts = [Fraction(c, m) for c in d._cum[:-1]]
    mask = (1 << 64) - 1

    def inside(prefix):
        # (the cuts at or below the prefix, whether a cut is strictly inside its interval)
        low = Fraction(0)
        for k, word in enumerate(prefix, start=1):
            low += Fraction(word, 1 << 64 * k)
        high = low + Fraction(1, 1 << 64 * len(prefix))
        return sum(c <= low for c in cuts), any(low < c < high for c in cuts)

    draws = []
    for c in d._cum[:-1]:
        first, second = (((c << 64 * k) // m) & mask for k in (1, 2))
        for plan in [[first + step] for step in (-1, 0, 1)] + [
                [first, second + step] for step in (-1, 0, 1)]:
            if 0 <= plan[-1] <= mask:
                read = next((plan[:k] for k in range(1, len(plan) + 1)
                             if not inside(plan[:k])[1]), None)
                if read is not None and read not in draws:
                    draws.append(read)
    words = [p[0] for p in draws]
    ties = [w for p in draws for w in p[1:]]
    assert ties and len(draws) > len(d._cum)
    sm = Sampler(d, MonotoneConj(d.n, frozenset()), QueryTranscript(), RandomStream(0))
    rng = fixed_stream(words, ties)
    want = [inside(p)[0] for p in draws]
    assert sm._draw_indices_raw(rng, len(draws)).tolist() == want
    assert (rng._gen.used, rng._ties._gen.used) == (len(words), len(ties))
    batch, single = (sm.rebind(QueryTranscript(), fixed_stream(words, ties)) for _ in range(2))
    assert list(batch.draws(len(draws))) == [single.draw() for _ in draws] == [
        (d.entries[i][0], 1) for i in want]


def law_points(m):
    """Six points with uneven weights over m, none of them tiny."""
    return dist_from_cuts(m, [m * k // 17 for k in (2, 5, 7, 11, 14)])


# Pearson's statistic of 200,000 draws against the weights on 5 degrees of
# freedom, whose critical value at alpha = 0.001 is 20.52: 7.73 at 65 bits,
# 2.28 at 106 bits and 6.54 at 107 bits
@pytest.mark.parametrize("m", [(1 << 64) + 13, (1 << 105) + 51, 3 ** 67])
def test_draws_past_2_62_fit_their_law(m):
    d = law_points(m)
    sm = Sampler(d, MonotoneConj(d.n, frozenset()), QueryTranscript(), RandomStream(0))
    counts = np.bincount(sm._draw_indices_raw(RandomStream(m), 200_000), minlength=6)
    stat, crit, df = chi_square_fit(dict(enumerate(counts.tolist())),
                                    {i: w for i, (_, w) in enumerate(d.entries)})
    assert df == 5 and round(crit, 2) == 20.52
    assert stat < crit, stat


@pytest.mark.parametrize("m, digest", [((1 << 64) + 13, "1011963324cb9c4c"),
                                       ((1 << 105) + 51, "bb46087d82c30696"),
                                       (3 ** 67, "15ab5757baf87e1a")])
def test_draws_past_2_62_word_layout_is_pinned(m, digest):
    # the indices of 5,000 draws, and the states of the stream and of its
    # tie stream after them: a change in which words a draw reads moves
    # the digest even where the law does not
    d = law_points(m)
    sm = Sampler(d, MonotoneConj(d.n, frozenset()), QueryTranscript(), RandomStream(m))
    sha = hashlib.sha256(np.asarray(sm._draw_indices_raw(sm.rng, 5000), dtype=np.int64).tobytes())
    for stream in (sm.rng, sm.rng._ties):
        sha.update(repr(stream._gen.bit_generator.state).encode())
    assert sha.hexdigest()[:16] == digest


def test_flipped_sampler_flips_points_and_labels():
    calls = []

    class Counted(GeneralConj):
        def value_at(self, zeros):
            calls.append(zeros)
            return super().value_at(zeros)

    f = Counted(4, frozenset({1}), frozenset({2}))
    d = FiniteDistribution(4, ((zs(4, 2), Fraction(1, 2)),
                               (zs(4, 1, 2), Fraction(1, 2))))
    tr = QueryTranscript(log_queries=True)
    base = Sampler(d, f, tr, RandomStream(66))
    assert len(calls) == 2
    fs = base.flipped(frozenset({2}))
    # the view reuses the labels: f is not evaluated on the support again
    assert len(calls) == 2 and fs.labels is base.labels
    for _ in range(10):
        point, label = fs.draw()
        assert label == f.value_at(point.zeros ^ frozenset({2}))
    assert tr.sample_count == 10
    assert fs.point(0).zeros == base.point(0).zeros ^ frozenset({2})
    # the log holds the distribution's own points with their true labels
    support = {p.zeros for p, _ in d.entries}
    assert len(tr.sample_log) == 10
    for zeros, label in tr.sample_log:
        assert zeros in support and label == f.value_at(zeros)
    # batch draws are charged and logged the same way
    first = draw_indices(fs, 5)
    assert tr.sample_count == 15
    assert all(z in support for z, _ in tr.sample_log[10:])
    # the view and its sampler continue one batch stream, not repeat it
    a = draw_indices(base.flipped({2}), 64)
    b = draw_indices(base, 64)
    assert not np.array_equal(a, b)
    twin = Sampler(d, f, QueryTranscript(), RandomStream(66))
    assert np.array_equal(np.concatenate([first, a, b]), draw_indices(twin, 133))


# -- batched probes ------------------------------------------------------------


def _probe_function(kind, n, rng):
    """A function of one kind the batched probes answer: conjunctions in
    every form (table), and two that go through the query_set loop."""
    coords = list(range(1, n + 1))
    if kind == "mconj":
        return MonotoneConj(n, frozenset(rng.sample(coords, rng.randrange(4))))
    if kind in ("conj", "flipped"):
        ones = rng.sample(coords, rng.randrange(3))
        zeros = rng.sample([c for c in coords if c not in ones], rng.randrange(3))
        f = GeneralConj(n, frozenset(ones), frozenset(zeros))
        return f if kind == "conj" else Flipped(f, frozenset(rng.sample(coords, rng.randrange(n))))
    if kind == "const0":  # overlapping literals
        i = rng.randrange(n) + 1
        return GeneralConj(n, frozenset({i, *rng.sample(coords, 1)}), frozenset({i}))
    if kind == "flipped2":
        inner = Flipped(MonotoneConj(n, frozenset(rng.sample(coords, 2))),
                        frozenset(rng.sample(coords, 2)))
        return Flipped(inner, frozenset(rng.sample(coords, rng.randrange(n))))
    if kind == "dlist":
        return DecisionList(n, tuple(((1, -1)[rng.randrange(2)] * (rng.randrange(n) + 1),
                                      rng.randrange(2)) for _ in range(3)),
                            rng.randrange(2))
    return generate_instance(LBParams(n=60, h=4, r_blocks=7, m=3, s=1, blocks_per_side=2),
                             "no", rng).function


def _probe_box(func, tr, views):
    """A box on func: plain, a flipped view, or a view of a view."""
    box = BlackBox(func, tr)
    for coords in views:
        box = box.flipped(coords)
    return box


@settings(max_examples=120, deadline=None)
@given(kind=st.sampled_from(["mconj", "conj", "const0", "flipped", "flipped2", "dlist",
                             "lb-no"]),
       seed=st.integers(0, 2 ** 32), nviews=st.integers(0, 2), rows=st.integers(0, 12),
       stop=st.integers(0, 1), cap=st.one_of(st.none(), st.integers(0, 14)))
def test_query_until_matches_a_query_set_loop(kind, seed, nviews, rows, stop, cap):
    # the index, the count, the log and, under a limit that may land inside
    # the batch, the point where BudgetExceeded is raised all match asking
    # the rows one query_set at a time
    rng = RandomStream(seed)
    n = 60 if kind == "lb-no" else 4 + rng.randrange(6)
    func = _probe_function(kind, n, rng.split("function"))
    coords = list(range(1, n + 1))
    views = [frozenset(rng.sample(coords, rng.randrange(n + 1))) for _ in range(nviews)]
    width = 1 + rng.randrange(4)
    sets = [rng.sample(coords, rng.randrange(width + 1)) for _ in range(rows)]
    batch = np.array([s + [0] * (width - len(s)) for s in sets], dtype=np.intp)
    batch = batch.reshape(rows, width)
    before = rng.randrange(3)  # queries already asked

    def run(ask):
        tr = QueryTranscript(log_queries=True, limit=None if cap is None else before + cap)
        box = _probe_box(func, tr, views)
        for _ in range(before):
            box.query_set(frozenset())
        try:
            got = ask(box)
        except BudgetExceeded:
            got = "budget"
        return got, tr.blackbox_count, tr.blackbox_log

    def loop(box):
        for k, s in enumerate(sets):
            if box.query_set(frozenset(s)) == stop:
                return k
        return None

    want = run(loop)
    assert run(lambda box: box.query_until(batch, stop)) == want
    if cap is None:
        assert want[1] == before + (len(sets) if want[0] is None else want[0] + 1)


def test_query_until_logs_ints_in_the_functions_coordinates():
    # a flipped view of a conjunction logs each point as f was asked it,
    # with an int value, as query_set does
    f = GeneralConj(5, frozenset({1}), frozenset({2}))
    tr = QueryTranscript(log_queries=True)
    box = BlackBox(f, tr).flipped({2, 3})
    assert box.query_until(np.array([[1, 0], [4, 5], [3, 0]]), 1) == 1
    assert tr.blackbox_log == [(frozenset({1, 2, 3}), 0), (frozenset({2, 3, 4, 5}), 1)]
    assert all(type(value) is int for _, value in tr.blackbox_log)
