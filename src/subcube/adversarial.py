"""Hard instance generators for distinguishing experiments.

Each instance hides a random structure in [n]: a set R split into h-sized
blocks plus 2m special indices, from which m aligned triples of points
(a^i, b^i, c^i) are built with ZERO(a^i) and ZERO(b^i) partitioning
ZERO(c^i). The yes variants are genuine monotone conjunctions (or threshold
functions); both no variants are one LBNoFunction, which flips the labels of
the a-strings via a block-counting specialness rule (or, with a threshold,
compares a potential built on that rule with it). That makes them far from
the class while looking identical to samplers that never see inside a
C-set. An instance keeps only its draw, function and distribution; the
points, and all else, are derived from the draw.

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
from math import ceil, log2
from typing import Optional

import numpy as np

from .model import (
    FiniteDistribution,
    FunctionSpec,
    InfeasibleParameters,
    LinearThreshold,
    MonotoneConj,
    ZeroSet,
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
        object.__setattr__(self, "a_blocks", tuple(
            tuple(frozenset(b) for b in row) for row in self.a_blocks))
        object.__setattr__(self, "b_blocks", tuple(
            tuple(frozenset(b) for b in row) for row in self.b_blocks))
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


@dataclass(frozen=True)
class LBInstance:
    """A drawn hidden structure with its function and distribution.

    The draw is R, its blocks, which partition R_prime = R minus the special
    indices, the specials alpha and beta, and per i the block ids of the A
    and B sides. Everything else is derived from the draw: the zero sets
    A_sets[i-1] = {alpha_i} with its A-blocks, B_sets likewise with beta_i,
    and C_sets their unions; support_kinds, the (kind, i) origin of each
    distribution entry, kind in {"a", "b", "c", "ones"}; and theta4, 4x the
    exact threshold for the threshold-function variants, None otherwise.
    """

    params: LBParams
    variant: str
    R: frozenset
    blocks: tuple
    alpha: tuple
    beta: tuple
    a_block_ids: tuple
    b_block_ids: tuple
    function: FunctionSpec
    distribution: FiniteDistribution

    @property
    def n(self) -> int:
        return self.params.n

    @property
    def R_prime(self) -> frozenset:
        return self.R - frozenset(self.alpha) - frozenset(self.beta)

    @cached_property
    def _points(self) -> dict:
        return _points_by_kind(self.blocks, self.alpha, self.beta,
                               self.a_block_ids, self.b_block_ids)

    A_sets = property(lambda self: self._points["a"])
    B_sets = property(lambda self: self._points["b"])
    C_sets = property(lambda self: self._points["c"])

    @cached_property
    def support_kinds(self) -> tuple:
        return tuple((kind, i) for kind, _ in _FAMILY[self.variant][0]
                     for i in ((0,) if kind == "ones"
                               else range(1, self.params.m + 1)))

    @cached_property
    def _labels(self) -> np.ndarray:
        """The label of each distribution entry, by its kind, as int8s: what
        validate_instance checks the function gives each point of a kind."""
        label = dict(zip(_KINDS, _FAMILY[self.variant][1]))
        return np.array([label[kind] for kind, _ in self.support_kinds], dtype=np.int8)

    @property
    def theta4(self) -> Optional[int]:
        return _theta4(self.params, len(self.R)) if self.variant.endswith("-ltf") else None


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
    """The draw (R, blocks, alpha, beta, a_block_ids, b_block_ids).

    R, the specials and the blocks come first. Then each triple's 2*bps
    block ids are a Floyd subset of range(r_blocks), put in a uniform order
    by a permutation of its 2*bps places: every ordered tuple of distinct
    ids has chance (r_blocks - 2*bps)!/r_blocks!, the law of the first
    2*bps entries of a uniform permutation of every block, on O(m*bps)
    words rather than O(m*r_blocks). The first bps ids of a row feed A_i
    and the rest B_i."""
    n, h, rb, m, bps = params.n, params.h, params.r_blocks, params.m, params.blocks_per_side
    size = h * rb + 2 * m
    r_sorted = (rng.subset_rows([n], size)[0] + 1).tolist()
    specials = rng.sample(r_sorted, 2 * m)
    r_set = frozenset(r_sorted)
    pool = rng.sample(sorted(r_set - frozenset(specials)), size - 2 * m)
    blocks = tuple(frozenset(pool[k * h:(k + 1) * h]) for k in range(rb))
    ids = rng.subset_rows([rb] * m, 2 * bps)
    chosen = np.take_along_axis(ids, rng.permutation_rows(m, 2 * bps), axis=1).tolist()
    return (r_set, blocks, tuple(specials[:m]), tuple(specials[m:]),
            tuple(tuple(row[:bps]) for row in chosen),
            tuple(tuple(row[bps:]) for row in chosen))


def _points_by_kind(blocks, alpha, beta, a_ids, b_ids) -> dict:
    """The zero sets of each point kind, in index order: a^i is alpha_i with
    the blocks of row i of a_ids, b^i is beta_i with those of b_ids, c^i is
    their union, and the all-ones point has none."""
    a_sets = tuple(frozenset((x,)).union(*(blocks[j] for j in row))
                   for x, row in zip(alpha, a_ids))
    b_sets = tuple(frozenset((x,)).union(*(blocks[j] for j in row))
                   for x, row in zip(beta, b_ids))
    return {"ones": (frozenset(),), "a": a_sets, "b": b_sets,
            "c": tuple(a | b for a, b in zip(a_sets, b_sets))}


def _blocks_of(blocks: tuple, ids: tuple) -> tuple:
    """Per i, the blocks that the i-th row of block ids selects."""
    return tuple(tuple(blocks[j] for j in row) for row in ids)


def _theta4(params: LBParams, r_size: int) -> int:
    """4x the threshold separating the potential values of the four point
    kinds: theta = 10 n^2 (n - |R|) + 5 n m - n + ell/4."""
    n, m = params.n, params.m
    return 40 * n * n * (n - r_size) + 20 * n * m - 4 * n + params.ell


def generate_instance(params: LBParams, variant: str,
                      rng: RandomStream) -> LBInstance:
    """Draw an instance of the given variant and validate it."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if variant in ("no", "no-ltf") and params.h <= params.s:
        raise InfeasibleParameters(
            "no variants need h > s so the a-strings are special")
    draw = _draw_structure(params, rng)
    r_set, blocks, alpha, _, a_ids, b_ids = draw
    n = params.n
    threshold = (_theta4(params, len(r_set)) + 3) // 4
    if variant == "yes":
        func = MonotoneConj(n, frozenset(range(1, n + 1)) - r_set | frozenset(alpha))
    elif variant == "yes-ltf":
        alpha_set = frozenset(alpha)
        weights = []
        for k in range(1, n + 1):
            w = -1
            if k not in r_set:
                w += 10 * n * n
            if k in alpha_set:
                w += 5 * n
            weights.append(w)
        func = LinearThreshold(n, tuple(weights), threshold)
    else:
        func = LBNoFunction(n, r_set, alpha, _blocks_of(blocks, a_ids),
                            _blocks_of(blocks, b_ids), params.s,
                            threshold if variant == "no-ltf" else None)
    points = _points_by_kind(*draw[1:])
    entries = []
    for kind, mass in _FAMILY[variant][0]:
        weight = mass / len(points[kind])
        entries += ((ZeroSet._checked(n, zeros), weight) for zeros in points[kind])
    inst = LBInstance(params, variant, *draw, function=func,
                      distribution=FiniteDistribution(n, tuple(entries)))
    # Seed the _points cache with the points just derived from the same draw,
    # so that validation does not derive them again.
    inst.__dict__["_points"] = points
    validate_instance(inst)
    return inst


def validate_instance(inst: LBInstance) -> None:
    """Check the draw, the labels and the distribution; raise ValueError on
    any failure. The derived zero sets then hold by construction: A_i and
    B_i are disjoint sets of size ell/2 with union C_i."""
    p = inst.params
    n, h, rb, m, bps = p.n, p.h, p.r_blocks, p.m, p.blocks_per_side

    def fail(msg):
        raise ValueError(f"invalid {inst.variant} instance: {msg}")

    if inst.variant not in VARIANTS:
        fail("unknown variant")
    if inst.R and not 1 <= min(inst.R) <= max(inst.R) <= n:
        fail("R not inside [n]")
    if len(inst.R) != h * rb + 2 * m:
        fail("R has the wrong size")
    specials = frozenset(inst.alpha + inst.beta)
    if len(inst.alpha) != m or len(inst.beta) != m or len(specials) != 2 * m:
        fail("need m alphas and m betas, all distinct")
    if not specials <= inst.R:
        fail("special indices must lie in R")
    if len(inst.blocks) != rb:
        fail("wrong number of blocks")
    seen = set()
    for blk in inst.blocks:
        if len(blk) != h:
            fail("block of the wrong size")
        if blk & seen:
            fail("blocks must be disjoint")
        seen |= blk
    if seen != inst.R_prime:
        fail("blocks must partition R_prime")
    if len(inst.a_block_ids) != m or len(inst.b_block_ids) != m:
        fail("need m rows of block ids per side")
    for a_ids, b_ids in zip(inst.a_block_ids, inst.b_block_ids):
        ids = a_ids + b_ids
        if (len(a_ids) != bps or len(b_ids) != bps or len(set(ids)) != 2 * bps
                or not all(0 <= j < rb for j in ids)):
            fail("each triple needs blocks_per_side distinct block ids per side")

    points = inst._points
    for kind, label in zip(_KINDS, _FAMILY[inst.variant][1]):
        for i, zeros in enumerate(points[kind], start=1):
            if inst.function.value_at(zeros) != label:
                fail(f"wrong label on {kind} point {i}")
    want = [zeros for kind, _ in _FAMILY[inst.variant][0] for zeros in points[kind]]
    if [point.zeros for point, _ in inst.distribution.entries] != want:
        fail("distribution does not match the drawn points")
