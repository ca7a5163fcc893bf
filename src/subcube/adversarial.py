"""Hard instance generators for distinguishing experiments.

Each instance hides a random structure in [n]: a set R split into h-sized
blocks plus 2m special indices, from which m aligned triples of points
(a^i, b^i, c^i) are built with ZERO(a^i) and ZERO(b^i) partitioning
ZERO(c^i). The yes variants are genuine monotone conjunctions (or threshold
functions); the no variants flip the labels of the a-strings via a
block-counting specialness rule, which makes them far from the class while
looking identical to samplers that never see inside a C-set.

The lower bound's simulated world has two parts here: strong_sample, the
oracle that reveals C_k and its special index alpha_k with every draw of
c^k, and simulate_p, the response bit computed from (R, Gamma) alone. The
harness joins them into one world.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, log2
from typing import Optional

from .model import (
    FiniteDistribution,
    FunctionSpec,
    InfeasibleParameters,
    LinearThreshold,
    MonotoneConj,
    QueryTranscript,
    ZeroSet,
)
from .rng import RandomStream
from .tester import _ceil_cuberoot

__all__ = [
    "LBParams",
    "LBInstance",
    "LBNoFunction",
    "LBNoStarFunction",
    "paper_params",
    "desk_params",
    "generate_instance",
    "validate_instance",
    "strong_sample",
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

    @property
    def special_threshold(self) -> int:
        """Blocks required on each side of the specialness rule."""
        return (3 * self.blocks_per_side + 3) // 4


def paper_params(n: int) -> LBParams:
    """The asymptotic parameter recipe at a concrete n.

    h = floor(n^(2/3) / (2 log2^2 n)), r_blocks = ceil(n^(1/3) log2^2 n),
    m = ceil(n^(2/3)), s = blocks_per_side = ceil(log2^2 n), with r_blocks
    raised to blocks_per_C when short. The recipe needs very large n to be
    feasible (h > s alone needs n beyond 2^33); below that it raises.
    """
    if n < 2:
        raise InfeasibleParameters("n must be at least 2")
    lg2 = log2(n) ** 2
    h = int(n ** (2.0 / 3.0) / (2.0 * lg2))
    r_blocks = ceil(n ** (1.0 / 3.0) * lg2)
    m = ceil(n ** (2.0 / 3.0))
    s = ceil(lg2)
    bps = ceil(lg2)
    r_blocks = max(r_blocks, 2 * bps)
    params = LBParams(n=n, h=h, r_blocks=r_blocks, m=m, s=s,
                      blocks_per_side=bps)
    if params.h <= params.s:
        raise InfeasibleParameters(
            f"paper recipe needs h > s; got h={params.h}, s={params.s} at n={n}")
    return params


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


def _count_special(zeros: frozenset, a_blocks, b_blocks, s: int) -> bool:
    bps = len(a_blocks)
    need = (3 * bps + 3) // 4
    hit_a = sum(1 for blk in a_blocks if len(blk & zeros) > s)
    if hit_a < need:
        return False
    hit_b = sum(1 for blk in b_blocks if len(blk & zeros) <= s)
    return hit_b >= need


@dataclass(frozen=True)
class _HiddenBlocks(FunctionSpec):
    """The hidden structure the no-variant functions are built on."""

    n: int
    R: frozenset
    alpha: tuple
    a_blocks: tuple  # per i: tuple of frozenset blocks
    b_blocks: tuple
    s: int

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

    def _unmet(self, zeros: frozenset) -> list:
        """The alpha_i that are zero in x for i with x not i-special; only the
        alphas inside zeros are looked at."""
        return [a for a in zeros & self._alphas
                if not _count_special(zeros, *self._sides[a], self.s)]

    def potential(self, zeros: frozenset) -> int:
        """The v-potential: 10 n^2 (#ones outside R) + 5 n (|J(x)| + #{i not
        in J(x) with x_{alpha_i} = 1}) - #ones, where J(x) collects the i for
        which x is i-special; the middle count is m minus the unmet i."""
        n = self.n
        ones_out = (n - len(self.R)) - len(zeros - self.R)
        term = len(self.alpha) - len(self._unmet(zeros))
        return 10 * n * n * ones_out + 5 * n * term - (n - len(zeros))


@dataclass(frozen=True)
class LBNoFunction(_HiddenBlocks):
    """The no-variant function: the yes conjunction with a-strings flipped.

    Value 1 iff no coordinate outside R is 0 and every i whose special index
    alpha_i is 0 makes the input i-special: at least ceil(3/4 *
    blocks_per_side) A_i-blocks carry more than s zeros and as many
    B_i-blocks carry at most s zeros. Evaluation is lazy: only the i with
    alpha_i zero are checked.
    """

    def value_at(self, zeros: frozenset) -> int:
        return 1 if zeros <= self.R and not self._unmet(zeros) else 0


@dataclass(frozen=True)
class LBNoStarFunction(_HiddenBlocks):
    """The no-variant threshold function: 1 iff the v-potential reaches the
    (rounded-up) threshold.

    v is an integer, so comparing against ceil(theta) is exact.
    """

    threshold: int

    def value_at(self, zeros: frozenset) -> int:
        return 1 if self.potential(zeros) >= self.threshold else 0


@dataclass(frozen=True)
class LBInstance:
    """A drawn hidden structure with its function and distribution.

    blocks partitions R_prime = R minus the special indices; per i, the
    block-id tuples select the A- and B-side blocks, and A_sets/B_sets/C_sets
    hold the materialized zero sets of a^i, b^i, c^i. support_kinds labels
    each distribution entry with its (kind, i) origin, kind in
    {"a", "b", "c", "ones"}. theta4 is 4x the exact threshold for the
    threshold-function variants, None otherwise.
    """

    params: LBParams
    variant: str
    R: frozenset
    R_prime: frozenset
    blocks: tuple
    alpha: tuple
    beta: tuple
    a_block_ids: tuple
    b_block_ids: tuple
    A_sets: tuple
    B_sets: tuple
    C_sets: tuple
    function: FunctionSpec
    distribution: FiniteDistribution
    support_kinds: tuple
    theta4: Optional[int] = None

    @property
    def n(self) -> int:
        return self.params.n

    def point_a(self, i: int) -> ZeroSet:
        """The a-string of triple i (1-based)."""
        return ZeroSet(self.n, self.A_sets[i - 1])

    def point_b(self, i: int) -> ZeroSet:
        return ZeroSet(self.n, self.B_sets[i - 1])

    def point_c(self, i: int) -> ZeroSet:
        return ZeroSet(self.n, self.C_sets[i - 1])


def simulate_p(zeros: frozenset, R: frozenset, gamma_set) -> int:
    """The no-black-box response bit for the query with zero set zeros,
    against (R, Gamma).

    0 iff the query has a zero outside R or a zero in Gamma; 1 otherwise. On
    a no instance with Gamma holding the special indices of all revealed
    C-sets, a 0 answer is always truthful.
    """
    return 1 if zeros <= R and zeros.isdisjoint(gamma_set) else 0


def strong_sample(inst: LBInstance, rng: RandomStream,
                  transcript: QueryTranscript) -> tuple[ZeroSet, Optional[int]]:
    """One draw from the strong sampling oracle of an instance, charged to
    transcript, which raises BudgetExceeded before drawing when it is at
    its limit.

    Returns (point, gamma): the distribution's own support point, and for a
    c-string, whose zero set is C_k, its special index alpha_k; gamma is
    None for every other point.
    """
    transcript.take_samples(1)
    dist = inst.distribution
    idx = dist.index_from_uniform(rng.randrange(dist.denominator))
    kind, i = inst.support_kinds[idx]
    point = dist.entries[idx][0]
    gamma = inst.alpha[i - 1] if kind == "c" else None
    if transcript.log_queries:
        transcript.sample_log.append((point.zeros, gamma))
    return point, gamma


# ---------------------------------------------------------------------------
# generation


def _draw_structure(params: LBParams, rng: RandomStream):
    n, h, rb, m = params.n, params.h, params.r_blocks, params.m
    size = h * rb + 2 * m
    r_sorted = [p + 1 for p in rng.subset_positions(n, size)]
    specials = rng.sample(r_sorted, 2 * m)
    alpha = tuple(specials[:m])
    beta = tuple(specials[m:])
    r_set = frozenset(r_sorted)
    r_prime = r_set - frozenset(specials)
    pool = rng.sample(sorted(r_prime), len(r_prime))
    blocks = tuple(frozenset(pool[k * h:(k + 1) * h]) for k in range(rb))
    a_ids, b_ids = [], []
    for _ in range(m):
        chosen = rng.sample(list(range(rb)), params.blocks_per_C)
        a_ids.append(tuple(chosen[:params.blocks_per_side]))
        b_ids.append(tuple(chosen[params.blocks_per_side:]))
    a_sets, b_sets, c_sets = [], [], []
    for i in range(m):
        a = frozenset((alpha[i],)).union(*(blocks[j] for j in a_ids[i]))
        b = frozenset((beta[i],)).union(*(blocks[j] for j in b_ids[i]))
        a_sets.append(a)
        b_sets.append(b)
        c_sets.append(a | b)
    return (r_set, r_prime, blocks, alpha, beta,
            tuple(a_ids), tuple(b_ids),
            tuple(a_sets), tuple(b_sets), tuple(c_sets))


def _points_by_kind(a_sets, b_sets, c_sets) -> dict:
    """The zero sets of each point kind, in index order."""
    return {"ones": (frozenset(),), "a": a_sets, "b": b_sets, "c": c_sets}


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
    (r_set, r_prime, blocks, alpha, beta, a_ids, b_ids,
     a_sets, b_sets, c_sets) = _draw_structure(params, rng)
    n = params.n
    theta4 = None
    if variant.endswith("-ltf"):
        theta4 = _theta4(params, len(r_set))
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
        func = LinearThreshold(n, tuple(weights), (theta4 + 3) // 4)
    else:
        hidden = (n, r_set, alpha, _blocks_of(blocks, a_ids),
                  _blocks_of(blocks, b_ids), params.s)
        if variant == "no":
            func = LBNoFunction(*hidden)
        else:
            func = LBNoStarFunction(*hidden, (theta4 + 3) // 4)

    points = _points_by_kind(a_sets, b_sets, c_sets)
    entries, kinds = [], []
    for kind, mass in _FAMILY[variant][0]:
        group = points[kind]
        weight = mass / len(group)
        for i, zeros in enumerate(group, start=1):
            entries.append((ZeroSet(n, zeros), weight))
            kinds.append((kind, 0 if kind == "ones" else i))

    inst = LBInstance(
        params=params, variant=variant, R=r_set, R_prime=r_prime,
        blocks=blocks, alpha=alpha, beta=beta,
        a_block_ids=a_ids, b_block_ids=b_ids,
        A_sets=tuple(a_sets), B_sets=tuple(b_sets), C_sets=tuple(c_sets),
        function=func, distribution=FiniteDistribution(n, tuple(entries)),
        support_kinds=tuple(kinds), theta4=theta4,
    )
    validate_instance(inst)
    return inst


def validate_instance(inst: LBInstance) -> None:
    """Check every structural invariant; raise ValueError on any failure."""
    p = inst.params
    n, h, rb, m = p.n, p.h, p.r_blocks, p.m

    def fail(msg):
        raise ValueError(f"invalid {inst.variant} instance: {msg}")

    if inst.variant not in VARIANTS:
        fail("unknown variant")
    if inst.R and not 1 <= min(inst.R) <= max(inst.R) <= n:
        fail("R not inside [n]")
    if len(inst.R) != h * rb + 2 * m:
        fail("R has the wrong size")
    specials = list(inst.alpha) + list(inst.beta)
    if len(inst.alpha) != m or len(inst.beta) != m:
        fail("need m alphas and m betas")
    if len(set(specials)) != 2 * m:
        fail("special indices must be pairwise distinct")
    if not frozenset(specials) <= inst.R:
        fail("special indices must lie in R")
    if inst.R_prime != inst.R - frozenset(specials):
        fail("R_prime must be R minus the specials")
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
    if frozenset(specials) & seen:
        fail("special indices must avoid the blocks")
    ell = p.ell
    for i in range(m):
        ids = inst.a_block_ids[i] + inst.b_block_ids[i]
        if len(ids) != p.blocks_per_C or len(set(ids)) != len(ids):
            fail("each triple needs blocks_per_C distinct blocks")
        if len(inst.a_block_ids[i]) != p.blocks_per_side:
            fail("A side has the wrong number of blocks")
        a = frozenset((inst.alpha[i],)).union(
            *(inst.blocks[j] for j in inst.a_block_ids[i]))
        b = frozenset((inst.beta[i],)).union(
            *(inst.blocks[j] for j in inst.b_block_ids[i]))
        if a != inst.A_sets[i] or b != inst.B_sets[i]:
            fail("materialized A/B sets disagree with the block ids")
        if len(a) != ell // 2 or len(b) != ell // 2:
            fail("A and B sets must have size ell/2")
        if a & b:
            fail("A and B sets must be disjoint")
        if inst.C_sets[i] != a | b:
            fail("C must be the disjoint union of A and B")

    rows, labels = _FAMILY[inst.variant]
    points = _points_by_kind(inst.A_sets, inst.B_sets, inst.C_sets)
    for kind, label in zip(("ones", "a", "b", "c"), labels):
        for i, zeros in enumerate(points[kind], start=1):
            if inst.function.value_at(zeros) != label:
                fail(f"wrong label on {kind} point {i}")

    kinds_seen = {}
    for (kind, i), (point, _) in zip(inst.support_kinds,
                                     inst.distribution.entries):
        kinds_seen[kind] = kinds_seen.get(kind, 0) + 1
        if point.zeros != points[kind][0 if kind == "ones" else i - 1]:
            fail("support point does not match its kind")
    if set(kinds_seen) != {kind for kind, _ in rows}:
        fail("distribution support has the wrong kinds")
    for kind in kinds_seen:
        if kinds_seen[kind] != (1 if kind == "ones" else m):
            fail(f"wrong number of {kind} entries")
