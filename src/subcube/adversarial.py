"""Hard instance generators for distinguishing experiments.

Each instance hides a random structure in [n]: a set R split into h-sized
blocks plus 2m special indices, from which m aligned triples of points
(a^i, b^i, c^i) are built with ZERO(a^i) and ZERO(b^i) partitioning
ZERO(c^i). The yes variants are genuine monotone conjunctions (or threshold
functions); both no variants are one LBNoFunction, which flips the labels of
the a-strings via a block-counting specialness rule (or, with a threshold,
compares a potential built on that rule with it). That makes them far from
the class while looking identical to samplers that never see inside a
C-set. An instance holds its draw once, as read-only int arrays, with its
function and distribution; the points, and all else, are derived from it.

The lower bound's simulated world has two parts: a strong sampling oracle,
which reveals C_k and its special index alpha_k with every draw of c^k
(support_kinds names the kind and triple of each distribution entry), and
simulate_p, the response bit computed from (R, Gamma) alone. The harness
builds both into one world.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import accumulate, chain, repeat
from math import ceil, log2
from operator import or_
from typing import Optional

import numpy as np

from .model import (
    FiniteDistribution,
    FunctionSpec,
    InfeasibleParameters,
    LinearThreshold,
    MonotoneConj,
    ZeroSet,
    _over_lcm,
)
from .rng import RandomStream
from .tester import _ceil_cuberoot

__all__ = [
    "LBParams",
    "LBInstance",
    "LBNoFunction",
    "paper_params",
    "desk_params",
    "generate_instance",
    "validate_instance",
    "simulate_p",
    "VARIANTS",
]

# Per variant: the distribution as (kind, mass) rows in entry order, each
# kind's mass split evenly over its points (m of them; the all-ones point is
# one), and the labels the function gives the (ones, a, b, c) points.
_FAMILY = {
    "yes": ((("b", Fraction(2, 3)), ("c", Fraction(1, 3))),
            (1, 0, 1, 0)),
    "no": ((("a", Fraction(1, 3)), ("b", Fraction(1, 3)),
            ("c", Fraction(1, 3))),
           (1, 1, 1, 0)),
    "yes-ltf": ((("ones", Fraction(1, 4)), ("b", Fraction(1, 2)),
                 ("c", Fraction(1, 4))),
                (0, 0, 1, 0)),
    "no-ltf": ((("ones", Fraction(1, 4)), ("a", Fraction(1, 4)),
                ("b", Fraction(1, 4)), ("c", Fraction(1, 4))),
               (0, 1, 1, 0)),
}

VARIANTS = tuple(_FAMILY)
# the point kinds, in the order of each variant's labels
_KINDS = ("ones", "a", "b", "c")


@dataclass(frozen=True)
class LBParams:
    """Structure sizes for a hidden-block instance.

    h is the block size, r_blocks the number of blocks, m the number of
    (a, b, c) triples, s the zero-count threshold used by the specialness
    rule, and blocks_per_side the number of blocks feeding each of A_i and
    B_i. Derived: blocks_per_C = 2*blocks_per_side and the C-set size
    ell = blocks_per_C*h + 2 (always even).
    """

    n: int
    h: int
    r_blocks: int
    m: int
    s: int
    blocks_per_side: int

    def __post_init__(self):
        if self.n < 1 or self.h < 1 or self.m < 1 or self.blocks_per_side < 1:
            raise InfeasibleParameters("n, h, m, blocks_per_side must be >= 1")
        if self.s < 0:
            raise InfeasibleParameters("s must be >= 0")
        if self.r_blocks < self.blocks_per_C:
            raise InfeasibleParameters(
                "need at least blocks_per_C blocks to draw from")
        if self.h * self.r_blocks + 2 * self.m > self.n:
            raise InfeasibleParameters(
                f"h*r_blocks + 2m = {self.h * self.r_blocks + 2 * self.m} "
                f"exceeds n = {self.n}")

    @property
    def blocks_per_C(self) -> int:
        return 2 * self.blocks_per_side

    @property
    def ell(self) -> int:
        return self.blocks_per_C * self.h + 2


def paper_params(n: int) -> LBParams:
    """The asymptotic parameter recipe at a concrete n.

    h = floor(n^(2/3) / (2 log2^2 n)), r_blocks = ceil(n^(1/3) log2^2 n),
    m = ceil(n^(2/3)), s = blocks_per_side = ceil(log2^2 n), with r_blocks
    raised to blocks_per_C when short. The recipe needs very large n to be
    feasible (h > s alone needs n beyond 2^33); below that it raises.
    """
    if n < 2:
        raise InfeasibleParameters("n must be at least 2")
    try:
        x = float(n)
    except OverflowError:
        raise InfeasibleParameters(
            f"paper recipe overflows a float at n = {n}") from None
    lg2 = log2(n) ** 2
    h = int(x ** (2.0 / 3.0) / (2.0 * lg2))
    r_blocks = ceil(x ** (1.0 / 3.0) * lg2)
    m = ceil(x ** (2.0 / 3.0))
    s = ceil(lg2)
    bps = ceil(lg2)
    r_blocks = max(r_blocks, 2 * bps)
    # checked first: at h = 0, LBParams would refuse h with a vaguer message
    if h <= s:
        raise InfeasibleParameters(f"paper recipe needs h > s; got h={h}, s={s} at n={n}")
    return LBParams(n=n, h=h, r_blocks=r_blocks, m=m, s=s, blocks_per_side=bps)


def desk_params(n: int) -> LBParams:
    """Small fixed-shape parameters feasible at workstation scale.

    Keeps the paper's proportions loosely (m ~ n^(2/3), h*r_blocks ~ n/2)
    with h = 4, s = 1, blocks_per_side = 2 so the specialness rule is
    non-trivial while instances stay cheap to draw and evaluate.
    """
    m = _ceil_cuberoot(n * n)  # ceil(n^(2/3)), exactly
    h, s, bps = 4, 1, 2
    r_blocks = min((n // 2) // h, (n - 2 * m) // h)
    return LBParams(n=n, h=h, r_blocks=r_blocks, m=m, s=s,
                    blocks_per_side=bps)


# ---------------------------------------------------------------------------
# hidden-structure function specifications


def _positions(table: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The position of each entry of the int array x in table, a sorted 1-D
    int array, or len(table) where it is absent: a binary search, so
    nothing is sized by the range of the values."""
    if not table.size:
        return np.zeros(np.shape(x), dtype=np.int64)
    at = np.searchsorted(table, x)
    at[table.take(at, mode="clip") != x] = table.size
    return at


def _frozen_rows(rows) -> tuple:
    """rows of blocks as a tuple of tuples of frozensets: rows already in
    that form are kept as they are, decoded lists are converted."""
    if (type(rows) is tuple and set(map(type, rows)) <= {tuple}
            and set(map(type, chain.from_iterable(rows))) <= {frozenset}):
        return rows
    return tuple(tuple(frozenset(b) for b in row) for row in rows)


def _rule_table(r_sorted, alpha, members, owner, ids) -> Optional[tuple]:
    """The hidden-block rule on arrays, for LBNoFunction, from R sorted,
    alpha and the blocks' members as positions in R, each member's block id
    and ids, each triple's (2 w) block ids, A side first: places, the
    position in R of each coordinate up to max(R) + 1 (|R| outside R, |R| +
    1 at the pad 0); per position, and at |R| and |R| + 1, the i of the
    alpha_i there and its block id (-1 for none); ids; and need. None when
    places would pass 8 |R| + 64 entries: the function then asks value_at."""
    size = r_sorted.size
    if not size or r_sorted[-1] >= 8 * size + 64:
        return None
    places = np.full(r_sorted[-1] + 2, size, dtype=np.min_scalar_type(size + 1))
    places[0], places[r_sorted] = size + 1, np.arange(size)
    alpha_at, block_of = np.full((2, size + 2), -1)
    alpha_at[alpha], block_of[members] = np.arange(alpha.size), owner
    return places, alpha_at, block_of, ids, (3 * ids.shape[1] // 2 + 3) // 4


def _decoded_table(func) -> Optional[tuple]:
    """The _rule_table of an LBNoFunction from its own R, alpha and blocks;
    None where that rule would not be value_at's: a coordinate past 2^63,
    an alpha or block outside R, distinct blocks that meet, unequal widths."""
    widths = {len(row) for row in func.a_blocks + func.b_blocks}
    ids: dict = {}  # each distinct block, to its id
    rows = [[ids.setdefault(blk, len(ids)) for blk in a + b]
            for a, b in zip(func.a_blocks, func.b_blocks)]
    members = list(chain.from_iterable(ids))
    if (func.n >= 1 << 63 or len(widths) > 1 or len(set(members)) < len(members)
            or not func.R.issuperset(members) or not func.R.issuperset(func.alpha)):
        return None
    r_sorted = np.array(sorted(func.R), dtype=np.int64)
    return _rule_table(r_sorted, _positions(r_sorted, np.array(func.alpha, dtype=np.int64)),
                       _positions(r_sorted, np.array(members, dtype=np.int64)),
                       np.repeat(np.arange(len(ids)), list(map(len, ids))),
                       np.array(rows, dtype=int).reshape(len(rows), 2 * min(widths, default=0)))


@dataclass(frozen=True)
class LBNoFunction(FunctionSpec):
    """The no-variant functions, read from one hidden structure.

    With threshold None, the yes conjunction with a-strings flipped: 1 iff
    no coordinate outside R is 0 and every i whose special index alpha_i is
    0 makes the input i-special: at least ceil(3/4 * blocks_per_side)
    A_i-blocks carry more than s zeros and as many B_i-blocks carry at most
    s zeros. Only the i with alpha_i zero are checked. With an integer
    threshold, 1 iff the v-potential reaches it; v is an integer, so
    comparing against the rounded-up ceil(theta) is exact.
    """

    n: int
    R: frozenset
    alpha: tuple
    a_blocks: tuple  # per i: tuple of frozenset blocks
    b_blocks: tuple
    s: int
    threshold: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "R", frozenset(self.R))
        object.__setattr__(self, "alpha", tuple(int(a) for a in self.alpha))
        object.__setattr__(self, "a_blocks", _frozen_rows(self.a_blocks))
        object.__setattr__(self, "b_blocks", _frozen_rows(self.b_blocks))
        if not (len(self.alpha) == len(self.a_blocks) == len(self.b_blocks)):
            raise ValueError("need aligned alpha, a_blocks, b_blocks")
        sides = {a: (self.a_blocks[i], self.b_blocks[i])
                 for i, a in enumerate(self.alpha)}
        if len(sides) != len(self.alpha):
            raise ValueError("alpha indices must be distinct")
        object.__setattr__(self, "_sides", sides)
        object.__setattr__(self, "_alphas", frozenset(sides))

    def _unmet(self, zeros: frozenset) -> int:
        """How many alpha_i are zero in x with x not i-special, where need
        comes from row i's own A-side; only the alphas in zeros are read."""
        s, unmet = self.s, 0
        for a in zeros & self._alphas:
            a_blocks, b_blocks = self._sides[a]
            need = (3 * len(a_blocks) + 3) // 4
            hit = 0
            for blk in a_blocks:
                if len(blk & zeros) > s:
                    hit += 1
            if hit >= need:
                hit = 0
                for blk in b_blocks:
                    if len(blk & zeros) <= s:
                        hit += 1
                if hit >= need:
                    continue
            unmet += 1
        return unmet

    def potential(self, zeros: frozenset) -> int:
        """The v-potential: 10 n^2 (#ones outside R) + 5 n (|J(x)| + #{i not
        in J(x) with x_{alpha_i} = 1}) - #ones, where J(x) collects the i for
        which x is i-special; the middle count is m minus the unmet i."""
        n = self.n
        ones_out = (n - len(self.R)) - len(zeros - self.R)
        term = len(self.alpha) - self._unmet(zeros)
        return 10 * n * n * ones_out + 5 * n * term - (n - len(zeros))

    def value_at(self, zeros: frozenset) -> int:
        if self.threshold is not None:
            return 1 if self.potential(zeros) >= self.threshold else 0
        return 1 if zeros <= self.R and not self._unmet(zeros) else 0

    # the rule on arrays (see _rule_table), which generation and decoding
    # set at construction; without it _values_at asks value_at
    _table = None

    @property
    def _batched(self) -> bool:
        return self._table is not None

    def _mapped(self, coords: np.ndarray) -> np.ndarray:
        # each coordinate's position in R: |R| outside R, |R| + 1 for the pad
        if self._table is None:
            return coords
        return self._table[0][np.minimum(coords, self._table[0].size - 1)]

    def _values_at(self, at: np.ndarray) -> np.ndarray:
        if self._table is None:
            return super()._values_at(at)
        _, alpha_at, block_of, ids, need = self._table
        span = alpha_at.size - 1  # |R| + 1, past every block id
        zeros = np.count_nonzero(at < span, axis=1)
        outside = np.count_nonzero(at == span - 1, axis=1)
        # the block of each zero, as sorted keys row * span + block, and
        # the (row r, triple i) pairs with alpha_i a zero of row r
        blocks = block_of[at]
        keys = np.sort((np.arange(len(at))[:, None] * span + blocks)[blocks >= 0])
        alphas = alpha_at[at]
        r, col = np.nonzero(alphas >= 0)
        # per pair, how many zeros of row r each block of triple i holds
        want = r[:, None] * span + ids[alphas[r, col]]
        hits = np.searchsorted(keys, want, side="right") - np.searchsorted(keys, want)
        width = ids.shape[1] // 2
        special = (((hits[:, :width] > self.s).sum(axis=1) >= need)
                   & ((hits[:, width:] <= self.s).sum(axis=1) >= need))
        unmet = np.bincount(r[~special], minlength=len(at))
        if self.threshold is None:
            return ((outside == 0) & (unmet == 0)).astype(np.int8)
        # the potential, exactly in Python ints: 10 n^3 passes 2^63 near n = 10^6
        n, m = self.n, len(self.alpha)
        ones_out, term, ones = (np.asarray(x, dtype=object) for x in (
            n - len(self.R) - outside, m - unmet, n - zeros))
        return (10 * n * n * ones_out + 5 * n * term - ones >= self.threshold).astype(np.int8)


@dataclass(frozen=True, eq=False)
class LBInstance:
    """A drawn hidden structure with its function and distribution.

    The draw is R, sorted; its blocks, an (r_blocks, h) array partitioning
    R_prime = R minus the specials; the specials alpha and beta; and the
    (m, blocks_per_side) block ids of the A and B sides. Each is a read-only
    int array, held once. Everything else is derived from the draw: the
    zero sets A_sets[i-1] = {alpha_i} with its A-blocks, B_sets likewise
    with beta_i, and C_sets their unions; support_kinds, the (kind, i) origin
    of each distribution entry, kind in {"a", "b", "c", "ones"}; and theta4,
    4x the exact threshold for the threshold-function variants, else None.
    """

    params: LBParams
    variant: str
    R: np.ndarray
    blocks: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    a_block_ids: np.ndarray
    b_block_ids: np.ndarray
    function: FunctionSpec
    distribution: FiniteDistribution

    def __post_init__(self):
        for draw in (self.R, self.blocks, self.alpha, self.beta,
                     self.a_block_ids, self.b_block_ids):
            draw.flags.writeable = False

    @property
    def n(self) -> int:
        return self.params.n

    @cached_property
    def r_set(self) -> frozenset:
        """R as a set, which the simulated world's responder reads."""
        return frozenset(self.R.tolist())

    @cached_property
    def _rows(self) -> tuple:
        """The a and b points as positions in R (see _point_rows), from a
        draw that validate_instance has found well formed."""
        return _point_rows(*(_positions(self.R, x) for x in (self.blocks, self.alpha, self.beta)),
                           self.a_block_ids, self.b_block_ids)

    @cached_property
    def _points(self) -> dict:
        return _point_sets(np.array(self.R.tolist(), dtype=object), *self._rows)

    A_sets = property(lambda self: self._points["a"])
    B_sets = property(lambda self: self._points["b"])
    C_sets = property(lambda self: self._points["c"])

    @cached_property
    def support_kinds(self) -> tuple:
        return tuple((kind, i) for kind, _ in _FAMILY[self.variant][0]
                     for i in ((0,) if kind == "ones"
                               else range(1, self.params.m + 1)))

    @cached_property
    def _gammas(self) -> list:
        """What a strong sample of each distribution entry reveals: alpha_i,
        as a Python int, for c^i, and None for any other point."""
        alpha = self.alpha.tolist()
        return [alpha[i - 1] if kind == "c" else None for kind, i in self.support_kinds]

    @cached_property
    def _labels(self) -> np.ndarray:
        """The label of each distribution entry, by its kind, as int8s: what
        validate_instance checks the function gives each point of a kind."""
        label = dict(zip(_KINDS, _FAMILY[self.variant][1]))
        return np.array([label[kind] for kind, _ in self.support_kinds], dtype=np.int8)

    @property
    def theta4(self) -> Optional[int]:
        return _theta4(self.params, self.R.size) if self.variant.endswith("-ltf") else None


def simulate_p(zeros: frozenset, R: frozenset, gamma_set) -> int:
    """The no-black-box response bit for the query with zero set zeros,
    against (R, Gamma).

    0 iff the query has a zero outside R or a zero in Gamma; 1 otherwise. On
    a no instance with Gamma holding the special indices of all revealed
    C-sets, a 0 answer is always truthful.
    """
    return 1 if zeros <= R and zeros.isdisjoint(gamma_set) else 0


# ---------------------------------------------------------------------------
# generation


def _draw_structure(params: LBParams, rng: RandomStream):
    """The draw as int arrays (R, blocks, alpha, beta, a_block_ids,
    b_block_ids): R sorted; alpha, beta and the blocks, the rows of an
    (r_blocks, h) array, as positions in R; and the block ids as
    (m, blocks_per_side) arrays.

    R, the specials and the blocks come first. Then each triple's 2*bps
    block ids are a Floyd subset of range(r_blocks), put in a uniform order
    by a permutation of its 2*bps places: every ordered tuple of distinct
    ids has chance (r_blocks - 2*bps)!/r_blocks!, the law of the first
    2*bps entries of a uniform permutation of every block, on O(m*bps)
    words rather than O(m*r_blocks). The first bps ids of a row feed A_i
    and the rest B_i. Every table is sized by |R|, none by n."""
    n, h, rb, m, bps = params.n, params.h, params.r_blocks, params.m, params.blocks_per_side
    size = h * rb + 2 * m
    r_sorted = rng.subset_rows([n], size)[0] + 1
    specials = rng.sample(np.arange(size), 2 * m)
    rest = np.ones(size, dtype=bool)
    rest[specials] = False
    blocks = rng.sample(np.flatnonzero(rest), size - 2 * m).reshape(rb, h)
    ids = rng.subset_rows([rb] * m, 2 * bps)
    chosen = np.take_along_axis(ids, rng.permutation_rows(m, 2 * bps), axis=1)
    return r_sorted, blocks, specials[:m], specials[m:], chosen[:, :bps], chosen[:, bps:]


def _point_rows(blocks, alpha, beta, a_ids, b_ids) -> tuple:
    """The a and b points as two (m, ell/2) arrays of positions in R, from
    the blocks, alpha and beta as positions in R and the (m, bps) block ids:
    row i of the first is alpha_i and then the blocks of A_i, and of the
    second beta_i and the blocks of B_i."""
    return tuple(np.column_stack((x, blocks[ids].reshape(len(x), -1)))
                 for x, ids in ((alpha, a_ids), (beta, b_ids)))


def _point_sets(coords: np.ndarray, a_rows: np.ndarray, b_rows: np.ndarray) -> dict:
    """The zero sets of each point kind, in index order, from R's
    coordinates as an object array: the a and b points from their rows of
    positions, c^i the union of a^i and b^i, and none for the all-ones
    point."""
    a_sets = tuple(map(frozenset, coords[a_rows].tolist()))
    b_sets = tuple(map(frozenset, coords[b_rows].tolist()))
    return {"ones": (frozenset(),), "a": a_sets, "b": b_sets,
            "c": tuple(map(or_, a_sets, b_sets))}


def _theta4(params: LBParams, r_size: int) -> int:
    """4x the threshold separating the potential values of the four point
    kinds: theta = 10 n^2 (n - |R|) + 5 n m - n + ell/4."""
    n, m = params.n, params.m
    return 40 * n * n * (n - r_size) + 20 * n * m - 4 * n + params.ell


def generate_instance(params: LBParams, variant: str,
                      rng: RandomStream) -> LBInstance:
    """Draw an instance of the given variant and validate it. A MemoryError
    names n and |R|, the sizes that set the instance's."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if variant in ("no", "no-ltf") and params.h <= params.s:
        raise InfeasibleParameters(
            "no variants need h > s so the a-strings are special")
    try:
        inst = _generate(params, variant, rng)
    except MemoryError:
        raise MemoryError(
            f"generating the instance ran out of memory at n = {params.n}, |R| = "
            f"{params.h * params.r_blocks + 2 * params.m}; a smaller n, or smaller "
            "h, r_blocks and m, shrink it") from None
    validate_instance(inst)
    return inst


def _generate(params: LBParams, variant: str, rng: RandomStream) -> LBInstance:
    """The instance of one draw, its rows and points seeded."""
    r_sorted, blocks, alpha, beta, a_ids, b_ids = _draw_structure(params, rng)
    rows = _point_rows(blocks, alpha, beta, a_ids, b_ids)
    # one Python int per coordinate of R, shared by every set built here, so
    # that the set operations of value_at match them by identity
    ints = np.array(r_sorted.tolist(), dtype=object)
    points, alpha_ints = _point_sets(ints, *rows), ints[alpha].tolist()
    n, alpha_at = params.n, r_sorted[alpha]
    threshold = (_theta4(params, r_sorted.size) + 3) // 4
    if variant == "yes":
        outside = np.ones(n + 1, dtype=bool)
        outside[r_sorted] = outside[0] = False
        func = MonotoneConj(n, frozenset(chain(np.flatnonzero(outside).tolist(), alpha_ints)))
    elif variant == "yes-ltf":
        weights = np.full(n + 1, 10 * n * n - 1, dtype=object)
        weights[r_sorted] = -1
        weights[alpha_at] += 5 * n
        func = LinearThreshold(n, tuple(weights[1:].tolist()), threshold)
    else:
        by_id = np.fromiter(map(frozenset, ints[blocks].tolist()), dtype=object, count=len(blocks))
        func = LBNoFunction(n, frozenset(ints.tolist()), alpha_ints,
                            tuple(zip(*by_id[a_ids.T].tolist())),
                            tuple(zip(*by_id[b_ids.T].tolist())), params.s,
                            threshold if variant == "no-ltf" else None)
        object.__setattr__(func, "_table", _rule_table(
            r_sorted, alpha, blocks.ravel(), np.repeat(np.arange(len(blocks)), blocks.shape[1]),
            np.hstack((a_ids, b_ids))))
    # the entries: each kind's points, all of one weight
    kinds = [(points[kind], mass / len(points[kind])) for kind, mass in _FAMILY[variant][0]]
    nums, _ = _over_lcm([weight for _, weight in kinds])
    entries = tuple(chain.from_iterable(
        zip(map(ZeroSet._checked, repeat(n), zeros), repeat(weight)) for zeros, weight in kinds))
    cum = tuple(accumulate(chain.from_iterable(
        repeat(num, len(zeros)) for (zeros, _), num in zip(kinds, nums))))
    inst = LBInstance(params, variant, r_sorted, r_sorted[blocks], alpha_at, r_sorted[beta], a_ids,
                      b_ids, func, FiniteDistribution._checked(n, entries, cum))
    object.__setattr__(inst, "_rows", rows)
    object.__setattr__(inst, "_points", points)
    return inst


def validate_instance(inst: LBInstance) -> None:
    """Check the draw, the labels and the distribution; raise ValueError on
    any failure. The draw is checked on its arrays, and the labels by the
    function's batch rule over one padded row per point. The derived zero
    sets then hold by construction: A_i and B_i are disjoint sets of size
    ell/2 with union C_i."""
    p = inst.params
    n, h, rb, m, bps = p.n, p.h, p.r_blocks, p.m, p.blocks_per_side

    def fail(msg):
        raise ValueError(f"invalid {inst.variant} instance: {msg}")

    if inst.variant not in VARIANTS:
        fail("unknown variant")
    R = inst.R
    if (R[1:] <= R[:-1]).any():  # _positions is a binary search
        fail("R must be sorted and distinct")
    if R.size and not 1 <= R[0] <= R[-1] <= n:
        fail("R not inside [n]")
    if R.shape != (h * rb + 2 * m,):
        fail("R has the wrong size")
    specials = np.append(inst.alpha, inst.beta)
    ordered = np.sort(specials)
    if inst.alpha.shape != (m,) or inst.beta.shape != (m,) or (ordered[1:] == ordered[:-1]).any():
        fail("need m alphas and m betas, all distinct")
    at = _positions(R, specials)
    if (at == R.size).any():
        fail("special indices must lie in R")
    if inst.blocks.shape != (rb, h):
        fail("block of the wrong size" if inst.blocks.shape[:1] == (rb,)
             else "wrong number of blocks")
    ordered = np.sort(inst.blocks, axis=None)
    if (ordered[1:] == ordered[:-1]).any():
        fail("blocks must be disjoint")
    rest = np.ones(R.size, dtype=bool)
    rest[at] = False
    if not np.array_equal(ordered, R[rest]):
        fail("blocks must partition R_prime")
    if inst.a_block_ids.shape[:1] != (m,) or inst.b_block_ids.shape[:1] != (m,):
        fail("need m rows of block ids per side")
    if inst.a_block_ids.shape != (m, bps) or inst.b_block_ids.shape != (m, bps):
        fail("each triple needs blocks_per_side distinct block ids per side")
    ids = np.sort(np.hstack((inst.a_block_ids, inst.b_block_ids)), axis=1)
    if ids[:, 0].min() < 0 or ids[:, -1].max() >= rb or (ids[:, 1:] == ids[:, :-1]).any():
        fail("each triple needs blocks_per_side distinct block ids per side")

    # one row per point, in _KINDS order, of positions in R padded with |R|
    # to ell
    a_rows, b_rows = inst._rows
    rows = np.full((1 + 3 * m, p.ell), R.size)
    rows[1:1 + m, :p.ell // 2] = a_rows
    rows[1 + m:1 + 2 * m, :p.ell // 2] = b_rows
    rows[1 + 2 * m:, :p.ell // 2] = a_rows
    rows[1 + 2 * m:, p.ell // 2:] = b_rows
    want = np.repeat(_FAMILY[inst.variant][1], (1, m, m, m))
    f = inst.function
    wrong = np.flatnonzero(f._values_at(f._mapped(np.append(R, 0))[rows]) != want)
    if wrong.size:
        k = int(wrong[0]) - 1
        kind, i = divmod(k, m) if k >= 0 else (-1, 0)
        fail(f"wrong label on {_KINDS[kind + 1]} point {i + 1}")
    points = inst._points
    want = [zeros for kind, _ in _FAMILY[inst.variant][0] for zeros in points[kind]]
    if [point.zeros for point, _ in inst.distribution.entries] != want:
        fail("distribution does not match the drawn points")
