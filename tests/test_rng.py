"""Determinism and exactness checks for the random stream layer."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from subcube import RandomStream
from helpers import literal_subset_positions, subset_positions


def test_same_seed_same_path_same_draws():
    a = RandomStream(42).split("x", 3)
    b = RandomStream(42).split("x", 3)
    assert [a.randrange(1000) for _ in range(20)] == \
           [b.randrange(1000) for _ in range(20)]


def test_split_is_independent_of_parent_usage():
    parent = RandomStream(7)
    before = parent.split("child").randrange(10 ** 9)
    parent.randrange(10 ** 9)
    parent.randrange(10 ** 9)
    after = parent.split("child").randrange(10 ** 9)
    assert before == after


def test_sibling_streams_differ():
    root = RandomStream(1)
    left = list(root.split("left").integers(1 << 30, size=8))
    right = list(root.split("right").integers(1 << 30, size=8))
    assert left != right


def test_nested_split_path_matters():
    r = RandomStream(5)
    assert r.split("a").split("b").randrange(10 ** 12) == \
           RandomStream(5).split("a", "b").randrange(10 ** 12)
    assert r.split("a", "b").randrange(10 ** 12) != \
           r.split("b", "a").randrange(10 ** 12)


def test_unknown_attribute_raises_attribute_error():
    # only _gen and _ties are built on first use; any other name is missing
    with pytest.raises(AttributeError, match="missing"):
        RandomStream(1).missing
    assert not hasattr(RandomStream(1), "missing")


def test_randrange_rejects_bad_bound():
    with pytest.raises(ValueError):
        RandomStream(0).randrange(0)


def test_randrange_bigint_path():
    r = RandomStream(3)
    bound = (1 << 62) + 12345
    vals = [r.randrange(bound) for _ in range(200)]
    assert all(0 <= v < bound for v in vals)
    assert max(vals) > 1 << 61  # the big path actually explores the range


def test_randrange_small_bound_hits_everything():
    r = RandomStream(11)
    assert {r.randrange(4) for _ in range(200)} == {0, 1, 2, 3}
    assert r.randrange(1) == 0


def test_integers_batch():
    r = RandomStream(13)
    arr = r.integers(37, size=1000)
    assert arr.shape == (1000,)
    assert int(arr.min()) >= 0
    assert int(arr.max()) < 37
    assert len(np.unique(arr)) == 37
    with pytest.raises(ValueError):
        r.integers((1 << 62) + 1, size=4)


def test_subset_positions_sorted_distinct_in_range():
    r = RandomStream(17)
    for _ in range(200):
        pos = subset_positions(r, 30, 7)
        assert pos == sorted(pos)
        assert len(set(pos)) == 7
        assert all(0 <= p < 30 for p in pos)


def test_subset_positions_full_population():
    r = RandomStream(19)
    assert subset_positions(r, 5, 5) == [0, 1, 2, 3, 4]
    assert subset_positions(r, 5, 9) == [0, 1, 2, 3, 4]


def test_subset_positions_covers_uniformly():
    r = RandomStream(23)
    hits = [0] * 10
    for _ in range(2000):
        for p in subset_positions(r, 10, 3):
            hits[p] += 1
    # every position lands in a 3-of-10 subset with probability 3/10
    assert all(450 < h < 750 for h in hits)


# population sizes on both sides of numpy's 32-bit/64-bit bounded branches,
# up to the largest the batched path takes
POPS = (st.integers(0, 40) | st.integers((1 << 32) - 3, (1 << 32) + 3)
        | st.integers(1 << 33, 1 << 62))


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 1 << 32), pops=st.lists(POPS, max_size=24),
       k=st.integers(0, 12), as_array=st.booleans())
@example(seed=1, pops=[3, 0, 5, 9], k=5, as_array=False)  # pop <= k
@example(seed=2, pops=[7, 0, 40], k=0, as_array=False)  # shape (rows, 0)
@example(seed=3, pops=[], k=4, as_array=False)
@example(seed=3, pops=[], k=4, as_array=True)
@example(seed=4, pops=[10, 4, 40, 1 << 40], k=4, as_array=True)
def test_subset_rows_reads_the_words_of_literal_floyd(seed, pops, k, as_array):
    # one batched call per row list, with fewer rows than k and more, equals
    # the per-position randrange loop row by row, padded with -1, and leaves
    # the stream at the same word
    a, b = RandomStream(seed), RandomStream(seed)
    got = a.subset_rows(np.array(pops, dtype=np.int64) if as_array else pops, k)
    want = [literal_subset_positions(b, pop, k) for pop in pops]
    assert got.dtype == np.int64 and got.shape == (len(pops), k)
    assert got.tolist() == [row + [-1] * (k - len(row)) for row in want]
    assert a.randrange(1 << 40) == b.randrange(1 << 40)
    assert a.randrange(1000) == b.randrange(1000)


def test_subset_rows_rejects_populations_past_the_batched_bound():
    with pytest.raises(ValueError):
        RandomStream(0).subset_rows([5, (1 << 62) + 1], 3)


@pytest.mark.parametrize("rows", (1, 3, 256))
@pytest.mark.parametrize("pop", (1, 2, 4, 300))
def test_permutation_rows_reads_the_words_of_one_permutation_per_row(pop, rows):
    # row r is the r-th of rows permutation(pop) calls on a twin stream, and
    # both streams are left at the same word
    a, b = RandomStream(pop * 1000 + rows), RandomStream(pop * 1000 + rows)
    got = a.permutation_rows(rows, pop)
    assert got.shape == (rows, pop)
    assert got.tolist() == [b._gen.permutation(pop).tolist() for _ in range(rows)]
    assert a._gen.bit_generator.state == b._gen.bit_generator.state
    assert a.randrange(1 << 40) == b.randrange(1 << 40)


def test_sample_and_shuffled():
    r = RandomStream(29)
    items = list(range(40))
    got = r.sample(items, 12)
    assert len(set(got)) == 12
    assert set(got) <= set(items)
    sh = r.sample(items, len(items))
    assert sorted(sh) == items
    assert sh != items
    with pytest.raises(ValueError):
        r.sample(items, 41)


@pytest.mark.parametrize("seed", (0, 1, 29, 1000))
@pytest.mark.parametrize("size, k", ((1, 1), (40, 12), (40, 40), (2560, 512)))
def test_sample_of_an_array_reads_the_words_of_a_list(seed, size, k):
    # the same permutation words pick the same items, in the same order, and
    # both streams are left at the same word
    items = [3 * i + 7 for i in range(size)]
    a, b = RandomStream(seed), RandomStream(seed)
    got = a.sample(np.array(items), k)
    assert isinstance(got, np.ndarray)
    assert got.tolist() == b.sample(items, k)
    assert a.randrange(1 << 40) == b.randrange(1 << 40)
