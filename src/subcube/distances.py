"""Exact distances from a labeled sample to small function classes.

Distances are computed over the support of a finite distribution, in exact
rationals. Conjunctions minimize over closure patterns. Decision lists and
threshold functions search label-flip sets lightest first, enumerated
lazily in that order so that a search costs its checks, and core-guided:
each failed consistency check (greedy elimination; an integer fraction-free
simplex over merged coordinate columns) names a set of points the class
cannot fit under those labels, and every later flip set that gives them the
same labels is skipped unchecked. Every routine is exponential in the
support size and capped: 20 points, 16 for the flip searches, 64 columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from typing import Optional

from .model import (
    DimensionMismatch,
    FiniteDistribution,
    FunctionSpec,
    GeneralConj,
    MonotoneConj,
    SizeCapError,
    ZeroSet,
    _over_lcm,
)

__all__ = [
    "LabeledSample",
    "exact_distance_mconj",
    "exact_distance_conj",
    "exact_distance_dlist",
    "exact_distance_ltf",
]

_SUPPORT_CAP = 20
_DLIST_CAP = 16
_LTF_CAP = 16
_COLUMN_CAP = 64


@dataclass(frozen=True)
class LabeledSample:
    """Distinct labeled points with positive weights summing to at most 1."""

    n: int
    entries: tuple  # ((ZeroSet, label, Fraction), ...)

    def __post_init__(self):
        seen = set()
        total = Fraction(0)
        for point, label, w in self.entries:
            if point.n != self.n:
                raise ValueError("sample point dimension mismatch")
            if point.zeros in seen:
                raise ValueError("sample points must be distinct")
            seen.add(point.zeros)
            if label not in (0, 1):
                raise ValueError("labels must be 0 or 1")
            if w <= 0:
                raise ValueError("weights must be positive")
            total += w
        if total > 1:
            raise ValueError("weights must sum to at most 1")

    @classmethod
    def from_function(cls, f: FunctionSpec, dist: FiniteDistribution):
        if f.n != dist.n:
            raise DimensionMismatch("function and distribution disagree on n")
        entries = tuple((p, f.value_at(p.zeros), w) for p, w in dist.entries)
        return cls(dist.n, entries)


def _masks(sample: LabeledSample):
    """Point bitmasks: for each index j in some zero set, the set of sample
    positions whose point has j zero, encoded as a bitmask over positions."""
    patterns = {}
    for pos, (point, _, _) in enumerate(sample.entries):
        for j in point.zeros:
            patterns.setdefault(j, 0)
            patterns[j] |= 1 << pos
    return patterns


def _min_error(sample: LabeledSample, zero_masks):
    """Minimum weighted error over functions of the form "0 exactly on a
    union of the given masks" (the empty union gives the constant 1).
    Returns (error, the achieving zero mask)."""
    m = len(sample.entries)
    if m > _SUPPORT_CAP:
        raise SizeCapError(f"support capped at {_SUPPORT_CAP} points")
    nums, denom = _over_lcm([w for _, _, w in sample.entries])
    ones_mask = _ones(sample)
    full = (1 << m) - 1
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
    best = None
    best_mask = 0
    for zeros in closed:
        wrong = (zeros & ones_mask) | (~zeros & full & ~ones_mask)
        err = 0
        pos = 0
        while wrong:
            if wrong & 1:
                err += nums[pos]
            wrong >>= 1
            pos += 1
        if best is None or err < best:
            best = err
            best_mask = zeros
    return (Fraction(best, denom) if best is not None else Fraction(0),
            best_mask)


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
    sample = LabeledSample.from_function(f, dist)
    patterns = _masks(sample)
    err, mask = _min_error(sample, list(patterns.values()))
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
    sample = LabeledSample.from_function(f, dist)
    full = (1 << len(sample.entries)) - 1
    patterns = _masks(sample)
    masks = [full]
    for pat in patterns.values():
        masks += (pat, ~pat & full)
    err, mask = _min_error(sample, masks)
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


def _columns(sample: LabeledSample):
    """The distinct zero patterns of the coordinates that are zero somewhere
    in the sample, as position bitmasks. Coordinates with one pattern give
    the same literals and the same program column; any other coordinate is
    1 on every point, so it splits nothing and folds into the threshold."""
    return sorted(set(_masks(sample).values()))


def _ones(sample: LabeledSample) -> int:
    return sum(label << pos for pos, (_, label, _) in enumerate(sample.entries))


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

    Separability is scale-invariant, so it holds iff max delta subject to
    w.x >= theta + delta on 1-points, w.x <= theta - delta on 0-points and
    delta <= 1 is positive; then 0 is returned. Weights and threshold are
    split into nonnegative parts, with one weight pair per column. The
    simplex takes the first improving column and the least-ratio row, ties
    to the lowest basic variable (Bland's rule), and pivots fraction-free:
    every entry is its rational value times det, the last pivot taken (1
    at the start), and each update divides exactly by the previous det. At
    optimum 0 the points with a positive dual (the objective entry of their
    slack column) carry a Farkas certificate: a weighting under which the
    1-points and 0-points have equal mass and equal mean, so they are
    returned as a core.
    """
    num_vars = 2 * len(columns) + 3  # w+, w-, theta+, theta-, delta
    total = num_vars + m + 1
    tableau = []
    for r in range(m + 1):
        row = [0] * (total + 1)
        if r < m:
            sign = -1 if (ones >> r) & 1 else 1
            x = [sign * (((col >> r) & 1) ^ 1) for col in columns]
            row[:num_vars] = x + [-v for v in x] + [-sign, sign, 1]
        else:
            row[num_vars - 1] = row[total] = 1  # delta <= 1
        row[num_vars + r] = 1
        tableau.append(row)
    objective = [0] * (total + 1)
    objective[num_vars - 1] = -1
    basis = list(range(num_vars, total))
    det = 1
    while True:
        col = next((j for j in range(total) if objective[j] < 0), None)
        if col is None:
            break
        rows = [r for r, row in enumerate(tableau) if row[col] > 0]
        pr = rows[0]  # least ratio rhs/a, compared by cross-multiplying
        for r in rows[1:]:
            diff = tableau[r][total] * tableau[pr][col] - tableau[pr][total] * tableau[r][col]
            if diff < 0 or diff == 0 and basis[r] < basis[pr]:
                pr = r
        pivot = tableau[pr]
        p = pivot[col]
        for row in tableau + [objective]:
            if row is not pivot:
                f = row[col]
                row[:] = [(p * v - f * q) // det for v, q in zip(row, pivot)]
        det = p
        basis[pr] = col
    if objective[total] > 0:
        return 0
    return sum(1 << r for r in range(m) if objective[num_vars + r] > 0)


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


def _min_flip_weight(sample: LabeledSample, columns, core,
                     return_witness: bool = False):
    """The first flip set in (flipped weight, popcount, mask) order whose
    relabeled sample fits the class, with the flipped points as witness.

    The flip sets come lazily from _flip_sets, so a search costs its checks,
    not a table and sort of all 2^m sets; the caps are unchanged.
    core(columns, m, ones) is 0 when the labels `ones` fit, and otherwise a
    set C of positions whose labels alone no class member fits. A member
    fitting a sample fits every sub-sample, so every later flip set F with
    F & C equal to the checked set's is skipped unchecked. Skipping every F
    that misses C would be unsound: C fails under the labels the checked set
    gave it, and such an F gives C its original labels.
    """
    m = len(sample.entries)
    if m > _SUPPORT_CAP:
        raise SizeCapError(f"support capped at {_SUPPORT_CAP} points")
    nums, denom = _over_lcm([w for _, _, w in sample.entries])
    ones = _ones(sample)
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
            return flipped, tuple(sample.entries[i][0] for i in range(m)
                                  if (flips >> i) & 1)
        return flipped
    raise AssertionError("flipping to a constant labeling always fits")


def exact_distance_dlist(f: FunctionSpec, dist: FiniteDistribution,
                         return_witness: bool = False):
    """Distance from f to decision lists, measured under dist.

    The lightest relabeling the greedy check accepts; with return_witness,
    also returns the flipped points.
    """
    sample = LabeledSample.from_function(f, dist)
    if len(sample.entries) > _DLIST_CAP:
        raise SizeCapError(f"support capped at {_DLIST_CAP} points")
    return _min_flip_weight(sample, _columns(sample), _dlist_core,
                            return_witness)


def exact_distance_ltf(f: FunctionSpec, dist: FiniteDistribution,
                       return_witness: bool = False):
    """Distance from f to linear threshold functions, measured under dist.

    The lightest relabeling the margin program separates; with
    return_witness, also returns the flipped points.
    """
    sample = LabeledSample.from_function(f, dist)
    if len(sample.entries) > _LTF_CAP:
        raise SizeCapError(f"support capped at {_LTF_CAP} points")
    columns = _columns(sample)
    if len(columns) > _COLUMN_CAP:
        raise SizeCapError(f"threshold program capped at {_COLUMN_CAP} "
                           "distinct coordinate columns")
    return _min_flip_weight(sample, columns, _ltf_core, return_witness)
