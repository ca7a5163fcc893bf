"""Exact distances from a labeled sample to small function classes.

Distances are computed over the support of a finite distribution, in exact
rationals, by brute force over a structured search space: closure patterns
for conjunctions, greedy consistency plus label flips for decision lists,
and rational linear programming for threshold functions. Every routine is
exponential in the support size and guarded by a hard cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import Optional

from .model import (
    DimensionMismatch,
    FiniteDistribution,
    FunctionSpec,
    GeneralConj,
    MonotoneConj,
    SizeCapError,
    ZeroSet,
)

__all__ = [
    "LabeledSample",
    "exact_distance_mconj",
    "exact_distance_conj",
    "exact_distance_dlist",
    "exact_distance_ltf",
    "mconj_consistent",
    "conj_consistent",
    "dlist_consistent",
    "ltf_consistent",
]

_SUPPORT_CAP = 20
_DLIST_CAP = 16
_LTF_CAP = 16
_CONSISTENCY_CAP = 64


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
    weights = [w for _, _, w in sample.entries]
    denom = lcm(*[w.denominator for w in weights]) if weights else 1
    nums = [int(w * denom) for w in weights]
    ones_mask = 0
    for pos, (_, label, _) in enumerate(sample.entries):
        if label == 1:
            ones_mask |= 1 << pos
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


def _distance_mconj(sample: LabeledSample):
    if len(sample.entries) > _SUPPORT_CAP:
        raise SizeCapError(f"support capped at {_SUPPORT_CAP} points")
    patterns = _masks(sample)
    return _min_error(sample, list(patterns.values()))


def _distance_conj(sample: LabeledSample):
    if len(sample.entries) > _SUPPORT_CAP:
        raise SizeCapError(f"support capped at {_SUPPORT_CAP} points")
    m = len(sample.entries)
    full = (1 << m) - 1
    patterns = _masks(sample)
    masks = []
    for pat in patterns.values():
        masks.append(pat)
        masks.append(~pat & full)
    masks.append(full)
    return _min_error(sample, masks)


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
    err, mask = _distance_mconj(sample)
    if not return_witness:
        return err
    patterns = _masks(sample)
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
    err, mask = _distance_conj(sample)
    if not return_witness:
        return err
    m = len(sample.entries)
    full = (1 << m) - 1
    patterns = _masks(sample)
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


def mconj_consistent(sample: LabeledSample) -> bool:
    """Whether some monotone conjunction fits every labeled point."""
    return _distance_mconj(sample)[0] == 0


def conj_consistent(sample: LabeledSample) -> bool:
    """Whether some conjunction fits every labeled point."""
    return _distance_conj(sample)[0] == 0


def _relevant_indices(sample: LabeledSample):
    idx = set()
    for point, _, _ in sample.entries:
        idx |= point.zeros
    return sorted(idx)


def dlist_consistent(sample: LabeledSample) -> bool:
    """Whether some decision list fits every labeled point.

    Greedy elimination: a literal whose satisfying points all share a label
    can head the list; strip those points and repeat. A consistent list
    exists iff the greedy pass empties the sample, since the head literal of
    any consistent list is always available to the greedy pass.
    """
    if len(sample.entries) > _CONSISTENCY_CAP:
        raise SizeCapError(f"consistency check capped at {_CONSISTENCY_CAP} points")
    alive = list(sample.entries)
    indices = _relevant_indices(sample)
    while alive:
        labels = {label for _, label, _ in alive}
        if len(labels) == 1:
            return True
        progressed = False
        for j in indices:
            for want_zero in (True, False):
                hit = [label for point, label, _ in alive
                       if (j in point.zeros) == want_zero]
                if hit and len(set(hit)) == 1:
                    alive = [(p, l, w) for p, l, w in alive
                             if (j in p.zeros) != want_zero]
                    progressed = True
                    break
            if progressed:
                break
        if not progressed:
            return False
    return True


def exact_distance_dlist(f: FunctionSpec, dist: FiniteDistribution,
                         return_witness: bool = False):
    """Distance from f to decision lists, measured under dist.

    Searches label-flip subsets in order of increasing flipped weight and
    returns the first whose relabeled sample is list-consistent. With
    return_witness, also returns the flipped points.
    """
    sample = LabeledSample.from_function(f, dist)
    m = len(sample.entries)
    if m > _DLIST_CAP:
        raise SizeCapError(f"support capped at {_DLIST_CAP} points")
    return _min_flip_weight(sample, dlist_consistent, return_witness)


def _min_flip_weight(sample: LabeledSample, consistent,
                     return_witness: bool = False):
    m = len(sample.entries)
    weights = [w for _, _, w in sample.entries]
    subsets = []
    for mask in range(1 << m):
        flipped = sum((weights[i] for i in range(m) if (mask >> i) & 1),
                      Fraction(0))
        subsets.append((flipped, bin(mask).count("1"), mask))
    subsets.sort()
    for flipped, _, mask in subsets:
        entries = tuple(
            (p, label ^ ((mask >> i) & 1), w)
            for i, (p, label, w) in enumerate(sample.entries))
        if consistent(LabeledSample(sample.n, entries)):
            if return_witness:
                points = tuple(sample.entries[i][0] for i in range(m)
                               if (mask >> i) & 1)
                return flipped, points
            return flipped
    raise AssertionError("flipping every label always yields consistency")


def _simplex_max_delta(rows, num_vars) -> Fraction:
    """Maximize delta subject to rows of (coeffs, bound) meaning
    coeffs . vars <= bound, vars >= 0, with delta the last variable.
    All bounds are nonnegative so the all-slack basis is feasible."""
    m = len(rows)
    total = num_vars + m
    tableau = []
    for r, (coeffs, bound) in enumerate(rows):
        row = [Fraction(c) for c in coeffs] + [Fraction(0)] * m + [Fraction(bound)]
        row[num_vars + r] = Fraction(1)
        tableau.append(row)
    objective = [Fraction(0)] * (total + 1)
    objective[num_vars - 1] = Fraction(-1)
    basis = [num_vars + r for r in range(m)]
    while True:
        pivot_col = None
        for j in range(total):
            if objective[j] < 0:
                pivot_col = j
                break
        if pivot_col is None:
            break
        pivot_row = None
        best = None
        for r in range(m):
            a = tableau[r][pivot_col]
            if a > 0:
                ratio = tableau[r][total] / a
                if best is None or ratio < best or (
                        ratio == best and basis[r] < basis[pivot_row]):
                    best = ratio
                    pivot_row = r
        if pivot_row is None:
            raise AssertionError("objective is bounded by construction")
        piv = tableau[pivot_row][pivot_col]
        tableau[pivot_row] = [v / piv for v in tableau[pivot_row]]
        for r in range(m):
            if r != pivot_row and tableau[r][pivot_col] != 0:
                factor = tableau[r][pivot_col]
                tableau[r] = [v - factor * p
                              for v, p in zip(tableau[r], tableau[pivot_row])]
        if objective[pivot_col] != 0:
            factor = objective[pivot_col]
            objective = [v - factor * p
                         for v, p in zip(objective, tableau[pivot_row])]
        basis[pivot_row] = pivot_col
    # rhs slot holds -z* for the minimization of -delta, i.e. max delta
    return objective[total]


def ltf_consistent(sample: LabeledSample) -> bool:
    """Whether some linear threshold function fits every labeled point.

    Separability is scale-invariant, so it holds iff the margin program
    max delta s.t. w.x >= theta + delta on 1-points, w.x <= theta - 0 and
    slack delta on 0-points, delta <= 1, has a positive optimum. Weights and
    threshold are split into nonnegative parts and only indices that are
    zero somewhere in the sample matter: any other coordinate is 1 on every
    point and folds into the threshold.
    """
    if len(sample.entries) > _CONSISTENCY_CAP:
        raise SizeCapError(f"consistency check capped at {_CONSISTENCY_CAP} points")
    if sample.n > _CONSISTENCY_CAP:
        raise SizeCapError(f"dimension capped at {_CONSISTENCY_CAP}")
    indices = _relevant_indices(sample)
    k = len(indices)
    # variables: w+ (k), w- (k), theta+, theta-, delta
    num_vars = 2 * k + 3
    rows = []
    for point, label, _ in sample.entries:
        x = [0 if j in point.zeros else 1 for j in indices]
        wx = x + [-v for v in x]
        if label == 1:
            # w.x >= theta + delta
            coeffs = [-v for v in wx] + [1, -1, 1]
        else:
            # w.x <= theta - delta
            coeffs = wx + [-1, 1, 1]
        rows.append((coeffs, Fraction(0)))
    delta_cap = [0] * (num_vars - 1) + [1]
    rows.append((delta_cap, Fraction(1)))
    return _simplex_max_delta(rows, num_vars) > 0


def exact_distance_ltf(f: FunctionSpec, dist: FiniteDistribution,
                       return_witness: bool = False):
    """Distance from f to linear threshold functions, measured under dist.

    With return_witness, also returns the flipped points.
    """
    sample = LabeledSample.from_function(f, dist)
    if len(sample.entries) > _LTF_CAP:
        raise SizeCapError(f"support capped at {_LTF_CAP} points")
    return _min_flip_weight(sample, ltf_consistent, return_witness)
