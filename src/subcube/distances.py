"""Exact distances from a function f, under a finite distribution D, to
small function classes.

Each oracle reads (f, D) directly: f's labels on D's support and D's own
integer weights, in exact rationals. Conjunctions minimize over closure
patterns. Decision lists and threshold functions search label-flip sets
lightest first, enumerated lazily in that order so that a search costs its
checks, and core-guided: each failed consistency check names a set of
points the class cannot fit under those labels, and every later flip set
that gives them the same labels is skipped unchecked. The decision-list
check is greedy elimination. The threshold check first runs that
elimination, since every decision list is a threshold function, and only
when it is stuck solves a fraction-free simplex over merged coordinate
columns on one integer array: int64 up to 13 points, where Hadamard's bound
keeps every update within int64, Python ints past that. Every routine is
exponential in the support size and capped: 20 points, 16 for the flip
searches, 64 columns.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heappop, heappush

import numpy as np

from .model import (
    FiniteDistribution,
    FunctionSpec,
    GeneralConj,
    MonotoneConj,
    SizeCapError,
    _support_labels,
)

__all__ = [
    "exact_distance_mconj",
    "exact_distance_conj",
    "exact_distance_dlist",
    "exact_distance_ltf",
]

_SUPPORT_CAP = 20
_DLIST_CAP = 16
_LTF_CAP = 16
_COLUMN_CAP = 64


def _support(f: FunctionSpec, dist: FiniteDistribution, cap: int) -> tuple:
    """(points, ones, nums, denom): dist's support points in entry order,
    the positions f labels 1 as a bitmask, and dist's own integer weights
    over its denominator. Raises SizeCapError past cap points, before f is
    read; then, through model._support_labels, DimensionMismatch when f and
    dist disagree on n and ValueError on a label other than 0 or 1."""
    if len(dist.entries) > cap:
        raise SizeCapError(f"support capped at {cap} points")
    points = [p for p, _ in dist.entries]
    labels = _support_labels(f, dist).tolist()
    ones = sum(label << pos for pos, label in enumerate(labels))
    cum = dist._law.cum
    nums = [c - prev for prev, c in zip((0,) + cum, cum)]
    return points, ones, nums, dist.denominator


def _masks(points) -> dict:
    """Point bitmasks: for each index j in some zero set, the set of support
    positions whose point has j zero, encoded as a bitmask over positions."""
    patterns = {}
    for pos, point in enumerate(points):
        for j in point.zeros:
            patterns[j] = patterns.get(j, 0) | 1 << pos
    return patterns


def _subset_sums(nums) -> list:
    """The weight of every subset of nums, indexed by its position bitmask."""
    sums = [0]
    for w in nums:
        sums += [s + w for s in sums]
    return sums


def _min_error(ones: int, nums, denom: int, zero_masks):
    """Minimum weighted error, on the points labeled 1 exactly on `ones`
    with weights nums / denom, over functions of the form "0 exactly on a
    union of the given masks" (the empty union gives the constant 1).
    Returns (error, the achieving zero mask). A mask's error is the weight
    of its wrong low positions plus that of its wrong high positions, each
    read from a table of subset weights."""
    m = len(nums)
    low = (m + 1) // 2
    lo, hi = _subset_sums(nums[:low]), _subset_sums(nums[low:])
    low_mask = (1 << low) - 1
    zero_labels = ((1 << m) - 1) & ~ones
    distinct = sorted(set(zero_masks))
    closed = {0}
    frontier = [0]
    while frontier:
        base = frontier.pop()
        for pat in distinct:
            nxt = base | pat
            if nxt not in closed:
                closed.add(nxt)
                frontier.append(nxt)
    best, best_mask = None, 0
    for zeros in closed:
        wrong = zeros ^ zero_labels
        err = lo[wrong & low_mask] + hi[wrong >> low]
        if best is None or err < best:
            best = err
            best_mask = zeros
    return Fraction(best, denom), best_mask


def exact_distance_mconj(f: FunctionSpec, dist: FiniteDistribution,
                         return_witness: bool = False):
    """Distance from f to the monotone conjunctions, measured under dist.

    A monotone conjunction restricted to the support is 0 exactly on a union
    of coordinate patterns p(j) = {x in support : x_j = 0}: requiring index j
    zeroes out exactly p(j), and every function of that shape is realized by
    requiring the chosen indices. Minimizing disagreement over the union
    closure of the patterns is therefore exact. With return_witness, also
    returns a nearest monotone conjunction.
    """
    points, ones, nums, denom = _support(f, dist, _SUPPORT_CAP)
    patterns = _masks(points)
    err, mask = _min_error(ones, nums, denom, list(patterns.values()))
    if not return_witness:
        return err
    required = frozenset(j for j, pat in patterns.items() if pat & ~mask == 0)
    return err, MonotoneConj(f.n, required)


def exact_distance_conj(f: FunctionSpec, dist: FiniteDistribution,
                        return_witness: bool = False):
    """Distance from f to general conjunctions, measured under dist.

    Same closure argument with both polarities of each pattern available, and
    the whole support (the constant 0, from contradictory literals) added.
    With return_witness, also returns a nearest conjunction.
    """
    points, ones, nums, denom = _support(f, dist, _SUPPORT_CAP)
    full = (1 << len(points)) - 1
    patterns = _masks(points)
    masks = [full]
    for pat in patterns.values():
        masks += (pat, ~pat & full)
    err, mask = _min_error(ones, nums, denom, masks)
    if not return_witness:
        return err
    req_one = frozenset(j for j, pat in patterns.items() if pat & ~mask == 0)
    req_zero = frozenset(j for j, pat in patterns.items()
                         if (~pat & full) & ~mask == 0)
    covered = 0
    for j in req_one:
        covered |= patterns[j]
    for j in req_zero:
        covered |= ~patterns[j] & full
    if covered != mask:
        # only the constant 0 realizes this mask; encode it as x_1 and not x_1
        return err, GeneralConj(f.n, frozenset((1,)), frozenset((1,)))
    return err, GeneralConj(f.n, req_one, req_zero)


def _columns(points):
    """The distinct zero patterns of the coordinates that are zero at some
    point, as position bitmasks. Coordinates with one pattern give the same
    literals and the same program column; any other coordinate is 1 on
    every point, so it splits nothing and folds into the threshold."""
    return sorted(set(_masks(points).values()))


def _dlist_core(columns, m: int, ones: int) -> int:
    """Greedy elimination on the m points labeled 1 exactly on `ones`.

    A literal whose satisfying points all share a label can head the list;
    strip those points and repeat. The first rule of a consistent list that
    fires on a remaining point is such a literal, so the pass empties the
    sample iff a list fits it (then 0 is returned), and the points it is
    stuck on fit no list on their own: they are returned as a core.
    """
    alive = full = (1 << m) - 1
    literals = [lit for col in columns for lit in (col, full & ~col)]
    while alive & ones and alive & ~ones:
        for lit in literals:
            hit = alive & lit
            if hit and (hit & ones == 0 or hit & ones == hit):
                alive &= ~hit
                break
        else:
            return alive
    return 0


def _ltf_core(columns, m: int, ones: int) -> int:
    """Margin program on the m points labeled 1 exactly on `ones`.

    Every decision list is a threshold function, so when _dlist_core fits
    the labels, 0 is returned without a program. Otherwise: separability is
    scale-invariant, so it holds iff max delta subject to w.x >= theta +
    delta on 1-points, w.x <= theta - delta on 0-points and delta <= 1 is
    positive; then 0 is returned. Weights and threshold are split into
    nonnegative parts, with one weight pair per column. The tableau is one
    integer array, constraint rows then the objective row, int64 up to 13
    points and Python ints past that (see the bound below). The simplex
    takes the first improving column and the least-ratio row, ties to the
    lowest basic variable (Bland's rule), and pivots fraction-free: every
    entry is its rational value times det, the last pivot taken (1 at the
    start), and each update divides exactly by the previous det. At
    optimum 0 the points with a positive dual (the objective entry of their
    slack column) carry a Farkas certificate: a weighting under which the
    1-points and 0-points have equal mass and equal mean, so they are
    returned as a core.
    """
    if not _dlist_core(columns, m, ones):
        return 0
    num_vars = 2 * len(columns) + 3  # w+, w-, theta+, theta-, delta
    total = num_vars + m + 1
    points = np.arange(m)
    sign = 1 - 2 * (ones >> points & 1)[:, None]
    x = sign * (1 - (np.array(columns, dtype=np.int64) >> points[:, None] & 1))
    tableau = np.zeros((m + 2, total + 1), dtype=np.int64)
    tableau[:m, :num_vars - 1] = np.hstack((x, -x, -sign, sign))
    tableau[:m + 1, num_vars - 1] = 1
    tableau[:m + 1, num_vars:total] = np.eye(m + 1, dtype=np.int64)
    tableau[m, total] = 1  # delta <= 1
    tableau[m + 1, num_vars - 1] = -1
    # Every entry is a minor of order <= m + 2 of the starting array, whose
    # entries are in {-1, 0, 1}. By Hadamard's bound each entry is at most
    # (m+2)^((m+2)/2) in size, so each product p*v and f*q of an update is
    # at most (m+2)^(m+2) < 2^62 for m <= 13, and their difference fits in
    # int64. Past 13 points the same code runs on Python ints.
    if m > 13:
        tableau = tableau.astype(object)
    objective = tableau[m + 1]
    basis = list(range(num_vars, total))
    det = 1
    while True:
        improving = objective[:total] < 0
        col = int(improving.argmax())
        if not improving[col]:
            break
        a = tableau[:m + 1, col].tolist()
        rhs = tableau[:m + 1, total].tolist()
        rows = [r for r in range(m + 1) if a[r] > 0]
        pr = rows[0]  # least ratio rhs/a, compared by cross-multiplying
        for r in rows[1:]:
            diff = rhs[r] * a[pr] - rhs[pr] * a[r]
            if diff < 0 or diff == 0 and basis[r] < basis[pr]:
                pr = r
        pivot = tableau[pr].copy()
        p = pivot[col]
        f = tableau[:, col].copy()
        tableau *= p
        tableau -= f[:, None] * pivot
        tableau //= det
        tableau[pr] = pivot
        det = p
        basis[pr] = col
    if objective[total] > 0:
        return 0
    return sum(1 << int(r)
               for r in np.flatnonzero(objective[num_vars:total - 1] > 0))


def _flip_sets(nums):
    """Every flip set, as (weight, mask), lazily in (weight, popcount, mask)
    order: best-first over the positions sorted by weight, ties by index. A
    set's successors swap its last position for the next or add the next, so
    each set comes once, after its parent (a tied swap moves a bit up)."""
    order = sorted(range(len(nums)), key=nums.__getitem__)
    yield 0, 0
    heap = [(nums[order[0]], 1, 1 << order[0], 0)] if order else []
    while heap:
        total, count, mask, k = heappop(heap)
        yield total, mask
        if k + 1 < len(order):
            last, nxt = order[k], order[k + 1]
            swap = total - nums[last] + nums[nxt]
            heappush(heap, (swap, count, mask ^ 1 << last | 1 << nxt, k + 1))
            heappush(heap, (total + nums[nxt], count + 1, mask | 1 << nxt, k + 1))


def _min_flip_weight(points, ones: int, nums, denom: int, columns, core,
                     return_witness: bool = False):
    """The first flip set in (flipped weight, popcount, mask) order whose
    relabeling of the points labeled 1 exactly on `ones`, with weights
    nums / denom, fits the class, with the flipped points as witness.

    The flip sets come lazily from _flip_sets, so a search costs its checks,
    not a table and sort of all 2^m sets.
    core(columns, m, ones) is 0 when the labels `ones` fit, and otherwise a
    set C of positions whose labels alone no class member fits. A member
    fitting a sample fits every sub-sample, so every later flip set F with
    F & C equal to the checked set's is skipped unchecked. Skipping every F
    that misses C would be unsound: C fails under the labels the checked set
    gave it, and such an F gives C its original labels.
    """
    m = len(points)
    cores = {}  # core C -> every F & C under which C was found
    for total, flips in _flip_sets(nums):
        if any(flips & c in seen for c, seen in cores.items()):
            continue
        found = core(columns, m, ones ^ flips)
        if found:
            cores.setdefault(found, set()).add(flips & found)
            continue
        flipped = Fraction(total, denom)
        if return_witness:
            return flipped, tuple(points[i] for i in range(m) if (flips >> i) & 1)
        return flipped
    raise AssertionError("flipping to a constant labeling always fits")


def exact_distance_dlist(f: FunctionSpec, dist: FiniteDistribution,
                         return_witness: bool = False):
    """Distance from f to decision lists, measured under dist.

    The lightest relabeling the greedy check accepts; with return_witness,
    also returns the flipped points.
    """
    points, ones, nums, denom = _support(f, dist, _DLIST_CAP)
    return _min_flip_weight(points, ones, nums, denom, _columns(points),
                            _dlist_core, return_witness)


def exact_distance_ltf(f: FunctionSpec, dist: FiniteDistribution,
                       return_witness: bool = False):
    """Distance from f to linear threshold functions, measured under dist.

    The lightest relabeling the margin program separates; with
    return_witness, also returns the flipped points.
    """
    points, ones, nums, denom = _support(f, dist, _LTF_CAP)
    columns = _columns(points)
    if len(columns) > _COLUMN_CAP:
        raise SizeCapError(f"threshold program capped at {_COLUMN_CAP} "
                           "distinct coordinate columns")
    return _min_flip_weight(points, ones, nums, denom, columns, _ltf_core,
                            return_witness)
