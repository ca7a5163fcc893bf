"""Seedable, splittable random streams.

Every randomized operation in this package takes an explicit stream; nothing
touches global RNG state. Streams are backed by numpy's PCG64. A child stream
is derived from (root seed, path of labels): labels are hashed to 64-bit keys
and appended to the SeedSequence spawn key, so a (seed, path) pair names the
same stream on every platform, in every process, regardless of how much the
parent has already been used.

Word layout. randrange(b) for b <= 2^62 is one numpy bounded draw: Lemire
rejection over 32-bit words for b <= 2^32, over 64-bit words above. numpy
keeps no buffer of its own between bounded draws; only PCG64's spare 32-bit
half-word carries over, and it lives in the generator's state. So
integers(b, size=a+c) reads the same words as integers(b, size=a) followed
by integers(b, size=c), and one draw against an array of bounds reads the
words of the scalar draws in row-major order. Floyd's method draws
t_j < j + 1 for j = pop-k, ..., pop-1, and only its collision rule reads
earlier draws. subset_rows therefore draws every t of many rows in one call
and reads the words of the per-position loop run row by row. The exact
reader _below_cuts takes one full word of a stream per draw as V's first 64
bits, and reads V's further bits, only on a tie with a cut, from the
stream's tie stream split("ties"), in row order; so a batch of exact draws
reads the words of as many single draws.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["RandomStream"]

# numpy's bounded integers() is exact (Lemire rejection) only for bounds that
# fit in int64. Above this bound randrange rejection-samples whole 64-bit
# words instead, and the sampler reads one word per draw by _below_cuts.
_FAST_BOUND = 1 << 62


def _key_of(label) -> int:
    if isinstance(label, (int, np.integer)):
        return int(label) & 0xFFFFFFFFFFFFFFFF
    digest = hashlib.blake2b(str(label).encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


class RandomStream:
    """A deterministic random stream identified by (seed, path)."""

    __slots__ = ("seed", "path", "_gen", "_ties")

    def __init__(self, seed: int, path: tuple = ()):
        self.seed = int(seed)
        self.path = tuple(path)

    def __getattr__(self, name):
        # _gen is built on the first draw, _ties on the first tie: a stream
        # only split builds neither
        if name == "_ties":
            self._ties = self.split("ties")
            return self._ties
        if name != "_gen":
            raise AttributeError(name)
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=self.path)
        self._gen = np.random.Generator(np.random.PCG64(seq))
        return self._gen

    def split(self, *labels) -> "RandomStream":
        """Derive an independent child stream.

        The child depends only on (seed, path, labels), never on how many
        draws the parent has made, so split(...) with the same labels always
        names the same stream.
        """
        return RandomStream(self.seed, self.path + tuple(_key_of(l) for l in labels))

    # -- exact uniform integers --

    def randrange(self, bound: int) -> int:
        """Exactly uniform integer in [0, bound)."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        if bound <= _FAST_BOUND:
            return int(self._gen.integers(0, bound))
        return self._randrange_big(bound)

    def integers(self, bound: int, size: int) -> np.ndarray:
        """Batch of exactly uniform integers in [0, bound); bound must be small."""
        if not 0 < bound <= _FAST_BOUND:
            raise ValueError("bound out of range for the batched path")
        return self._gen.integers(0, bound, size=size)

    def _words(self, count: int) -> np.ndarray:
        """count full-range uint64 words. numpy draws these unbuffered, so
        one call for count words equals count calls for one word each."""
        return self._gen.integers(0, 1 << 64, size=count, dtype=np.uint64)

    def _randrange_big(self, bound: int) -> int:
        # a candidate is `words` words read little-endian, shifted down to
        # the bit length of bound; it is rejected when it reaches bound
        nbits = bound.bit_length()
        words = (nbits + 63) // 64
        shift = words * 64 - nbits
        while True:
            value = int.from_bytes(self._words(words).tobytes(), "little") >> shift
            if value < bound:
                return value

    # -- derived draws --

    def subset_rows(self, pops, k: int) -> np.ndarray:
        """A (len(pops), k) int64 array: for each pop in pops, a row that
        holds a uniformly random k-subset of range(pop) by Floyd's method,
        sorted; all of range(pop), padded with -1 and drawing nothing, when
        k >= pop. The words are those of Floyd's method one position at a
        time, for each pop in turn. Every pop must be at most 2^62."""
        if k and (top := max(pops, default=0)) > _FAST_BOUND:
            raise ValueError(f"population {top} is past 2^62, the bound "
                             "of the batched path")
        pops = np.asarray(pops, dtype=np.int64).reshape(-1)
        out = np.where(np.arange(k) < pops[:, None], np.arange(k), -1)
        rows = np.flatnonzero(pops > k)
        if not (k and rows.size):
            return out
        # highs[row, c] = j + 1 for the c-th Floyd step j = pop - k + c
        highs = pops[rows, None] + np.arange(1 - k, 1)
        chosen = self._gen.integers(0, highs)
        # a draw already chosen in its row is replaced by that step's j
        if len(rows) >= k:
            # many short rows: column by column
            for c in range(1, k):
                hit = (chosen[:, :c] == chosen[:, c, None]).any(axis=1)
                chosen[hit, c] = highs[hit, c] - 1
            chosen.sort(axis=1)
            out[rows] = chosen
        else:
            # few long rows: one row at a time
            for i, draws in zip(rows.tolist(), chosen.tolist()):
                seen: set[int] = set()
                for j, t in enumerate(draws, start=int(pops[i]) - k):
                    seen.add(j if t in seen else t)
                out[i] = sorted(seen)
        return out

    def permutation_rows(self, rows: int, pop: int) -> np.ndarray:
        """rows uniform permutations of range(pop) as a (rows, pop) array, on
        the words of rows permutation(pop) calls, which permuted() reads."""
        base = np.arange(pop, dtype=np.min_scalar_type(pop))
        return self._gen.permuted(np.broadcast_to(base, (rows, pop)), axis=1)

    def sample(self, items: list, k: int) -> list:
        """Uniformly random k-subset of items, in random order."""
        if k > len(items):
            raise ValueError("sample larger than population")
        perm = self._gen.permutation(len(items))
        return [items[i] for i in perm[:k].tolist()]


def _below_cuts(rng: RandomStream, law: tuple, words: np.ndarray) -> np.ndarray:
    """For each word of words, read from rng as the first 64 bits of a V
    uniform in [0, 1), the number of cuts c with c/total <= V, given law =
    (tops, exact): tops, the top 64 bits of the sorted cuts over total,
    each cut below total, and exact(lo, hi), the cuts lo..hi-1 and total.
    A word counts the tops below it; a word equal to a top reads V 64 more
    bits at a time from rng's tie stream, in row order, while some cut is
    undecided (Knuth and Yao's lazy comparison): V's prefix P of b bits
    decides c once it differs from floor(c 2^b / total), or equals it with
    no remainder."""
    tops, exact = law
    below = np.searchsorted(tops, words, side="left")
    past = np.searchsorted(tops, words, side="right")
    for row in np.flatnonzero(past > below).tolist():
        cuts, total = exact(int(below[row]), int(past[row]))
        prefix, bits = int(words[row]), 64
        while cuts:
            split = [divmod(cut << bits, total) for cut in cuts]
            below[row] += sum(top < prefix or top == prefix and not rest for top, rest in split)
            cuts = [cut for cut, (top, rest) in zip(cuts, split) if top == prefix and rest]
            if cuts:
                prefix, bits = prefix << 64 | int(rng._ties._words(1)[0]), bits + 64
    return below
