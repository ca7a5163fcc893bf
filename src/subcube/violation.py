"""Violation structures witnessing distance from monotone conjunctions.

A function outside the class always has a violation: either f(1^n) = 0, or
some 0-string's zero set is covered by zero sets of 1-strings. The weighted
bipartite form pairs 1-strings in the support against representative indices
of 0-strings, joining each 1-string to the indices in its zero set, so its
vertices fix its edges. Its minimum-weight vertex cover lower-bounds the
distance to the class, and a heavy-vertex pruning pass extracts the regular
subgraph the distance argument runs on. The cover and the heaviness tests run
in integers, over a common denominator of the weights. The cover is the
minimal source-side cut of a max-flow found by edge-local pushes and then
shortest augmenting paths; that cut is the same for every maximum flow.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Optional

from .model import (
    BlackBox,
    DimensionMismatch,
    FiniteDistribution,
    FunctionSpec,
    QueryTranscript,
    SizeCapError,
    ZeroSet,
    _over_lcm,
)
from .tester import binary_search_representative

__all__ = [
    "ViolationGraph",
    "PruneReport",
    "hypergraph_has_violation",
    "build_violation_bigraph",
    "min_weight_vertex_cover",
    "prune_to_regular",
    "regularity_diagnostics",
]

_SWEEP_CAP = 20
_COVER_CAP = 10_000


@dataclass(frozen=True)
class ViolationGraph:
    """Weighted bipartite graph of 1-strings against representative indices.

    left holds (point, weight) with positive distribution weight and label 1;
    right holds (index, weight) with distinct indices, where the weight sums
    the distribution mass of 0-strings sharing that representative. The
    edges follow from the vertices: a left point is joined to every right
    index in its zero set. empty_strings lists the 0-support points whose
    representative search returned nil, with their weights; they are not
    part of the graph.
    """

    left: tuple
    right: tuple
    empty_strings: tuple = field(default=(), kw_only=True)

    def __post_init__(self):
        if len({j for j, _ in self.right}) != len(self.right):
            raise ValueError("right indices must be distinct")
        for _, w in self.left + self.right:
            if w <= 0:
                raise ValueError("vertex weights must be positive")

    @cached_property
    def edges(self) -> tuple:
        """The (left position, right position) pairs of the zero rule, sorted."""
        pos = {j: k for k, (j, _) in enumerate(self.right)}
        return tuple((li, ri) for li, (point, _) in enumerate(self.left)
                     for ri in sorted(pos[j] for j in point.zeros if j in pos))

    def graph_weight(self) -> Fraction:
        """Total edge weight, each edge weighted by its left endpoint."""
        return sum((self.left[li][1] for li, _ in self.edges), Fraction(0))


@dataclass(frozen=True)
class PruneReport:
    """Result of the heavy-vertex pruning pass."""

    G_star: ViolationGraph
    removed_S: tuple
    W: Fraction
    L_prime: tuple
    rounds: int
    exit_reason: str


def hypergraph_has_violation(f: FunctionSpec, return_witness: bool = False):
    """Whether the violation hypergraph of f has any hyperedge.

    Empty exactly when f is a monotone conjunction. A hyperedge on x exists
    iff ZERO(x) is inside the union U of zero sets of 1-strings: the covering
    family can always be taken to be all 1-strings, and the all-ones string
    forms a hyperedge by itself when f maps it to 0 (its empty zero set is
    inside any U). Checked exhaustively over the cube, so n is capped.
    """
    n = f.n
    if n > _SWEEP_CAP:
        raise SizeCapError(f"exhaustive sweep capped at n = {_SWEEP_CAP}")
    full = (1 << n) - 1
    # zeros[m] holds coordinate i exactly when bit i-1 of m is set; input k
    # is 0 at coordinate i exactly when bit i-1 of k is clear
    zeros = [frozenset()]
    for i in range(1, n + 1):
        zeros += [z | {i} for z in zeros]
    values = [f.value_at(zeros[full ^ k]) for k in range(1 << n)]
    union = 0
    for k in range(1 << n):
        if values[k]:
            union |= full ^ k
    witness_x = None
    for k in range(1 << n):
        if not values[k] and (full ^ k) & ~union == 0:
            witness_x = k
            break
    if not return_witness:
        return witness_x is not None
    if witness_x is None:
        return False, None
    x = ZeroSet(n, zeros[full ^ witness_x])
    covering = []
    need = full ^ witness_x
    for k in range(1 << n):
        if values[k] and (full ^ k) & need:
            covering.append(ZeroSet(n, zeros[full ^ k]))
            need &= ~(full ^ k)
            if not need:
                break
    return True, (x, tuple(covering))


def build_violation_bigraph(f: FunctionSpec, dist: FiniteDistribution,
                            oracle: Optional[BlackBox] = None) -> ViolationGraph:
    """Violation bipartite graph of f restricted to the support of dist.

    Representatives come from the binary search run against oracle (a fresh
    uncounted black box when omitted). Restricting to positive-weight
    vertices preserves the minimum cover weight: an edge at a zero-weight
    vertex is coverable for free.
    """
    if dist.n != f.n:
        raise DimensionMismatch("function and distribution disagree on n")
    if oracle is None:
        oracle = BlackBox(f, QueryTranscript())
    left = []
    right_weights: dict[int, Fraction] = {}
    empties = []
    for point, w in dist.entries:
        if f.value_at(point.zeros) == 1:
            left.append((point, w))
        else:
            rep = binary_search_representative(oracle, point)
            if rep is None:
                empties.append((point, w))
            else:
                right_weights[rep] = right_weights.get(rep, Fraction(0)) + w
    return ViolationGraph(tuple(left), tuple(sorted(right_weights.items())),
                          empty_strings=tuple(empties))


def min_weight_vertex_cover(G: ViolationGraph):
    """Exact minimum-weight vertex cover of a bipartite graph.

    Weighted Koenig duality: the cover weight equals the maximum flow in the
    source -> left -> right -> sink network with vertex weights as capacities
    and unbounded left -> right edges. The flow runs in integers: every weight
    is scaled to the lcm of all weight denominators, so it stays exact. Each
    edge, in G.edges order, first carries what both its endpoints have left;
    BFS augmenting paths, shortest first, then reroute that flow until none is
    left. The cover is the minimal source-side cut: the left vertices the
    source cannot reach in the final residual graph and the right vertices it
    can. That set is the same for every maximum flow, so the seed does not
    change it, and on a tie the left vertex is taken. Returns (cover, weight)
    where cover holds ("L", position) and ("R", position) tags.
    """
    nl, nr = len(G.left), len(G.right)
    if nl + nr > _COVER_CAP:
        raise SizeCapError(f"vertex cover computation capped at {_COVER_CAP} vertices")
    if not G.edges:
        return frozenset(), Fraction(0)
    # residual capacity of source -> left i (node i) and right j -> sink
    # (node nl + j); flow[j] maps left i to the flow on edge i -> j
    cap, denom = _over_lcm([w for _, w in G.left + G.right])
    adj = [[] for _ in range(nl)]
    flow = [{} for _ in range(nr)]
    total = 0
    for li, ri in G.edges:
        adj[li].append(nl + ri)
        push = min(cap[li], cap[nl + ri])
        if push:
            cap[li] -= push
            cap[nl + ri] -= push
            flow[ri][li] = push
            total += push

    def search():
        """BFS over the residual graph: (parent, right node that still
        reaches the sink, or None once the flow is maximum)."""
        queue = [i for i in range(nl) if cap[i]]
        parent = [-1 if u < nl and cap[u] else None for u in range(nl + nr)]
        for u in queue:
            nexts = (adj[u] if u < nl
                     else [i for i, f in flow[u - nl].items() if f])
            for v in nexts:
                if parent[v] is None:
                    parent[v] = u
                    if v >= nl and cap[v]:
                        return parent, v
                    queue.append(v)
        return parent, None

    while True:
        parent, end = search()
        if end is None:
            break
        path = [end]
        while parent[path[-1]] != -1:
            path.append(parent[path[-1]])
        # the path runs back from end to a left node fed by the source; of
        # its steps u -> v only the right -> left ones are bounded
        steps = list(zip(path, path[1:]))
        bottleneck = min(cap[end], cap[path[-1]],
                         *(flow[u - nl][v] for v, u in steps if u >= nl))
        cap[end] -= bottleneck
        cap[path[-1]] -= bottleneck
        for v, u in steps:
            if u < nl:
                flow[v - nl][u] = flow[v - nl].get(u, 0) + bottleneck
            else:
                flow[u - nl][v] -= bottleneck
        total += bottleneck

    cover = {("L", i) for i in range(nl) if parent[i] is None}
    cover |= {("R", j) for j in range(nr) if parent[nl + j] is not None}
    return frozenset(cover), Fraction(total, denom)


def _degrees(G: ViolationGraph):
    """Degree of every left vertex, incoming weight of every right one in
    units of 1/denom, and denom, the lcm of the left weights' denominators."""
    scaled, denom = _over_lcm([w for _, w in G.left])
    deg = [0] * len(G.left)
    inw = [0] * len(G.right)
    for li, ri in G.edges:
        deg[li] += 1
        inw[ri] += scaled[li]
    return deg, inw, denom


def _heavy(G: ViolationGraph, d: int):
    """Positions of the left and of the right vertices heavy against wt(G),
    compared in integers: wt(G) is sum(inw) / denom."""
    deg, inw, denom = _degrees(G)
    dw = d * sum(inw)
    return ([i for i, k in enumerate(deg) if k * denom >= dw],
            [j for j, (_, w) in enumerate(G.right)
             if inw[j] * w.denominator >= dw * w.numerator])


def _without(G: ViolationGraph, left_out=(), right_out=()) -> ViolationGraph:
    """G without the given vertex positions and without every vertex left
    isolated, in order. The subgraph keeps G's checked weights, and its
    edges are G's edges between the vertices it keeps, renumbered; neither
    is checked or derived again."""
    edges = [(li, ri) for li, ri in G.edges
             if li not in left_out and ri not in right_out]
    lefts = {li: k for k, li in enumerate(sorted({li for li, _ in edges}))}
    rights = {ri: k for k, ri in enumerate(sorted({ri for _, ri in edges}))}
    sub = object.__new__(ViolationGraph)
    sub.__dict__.update(left=tuple(G.left[i] for i in lefts),
                        right=tuple(G.right[j] for j in rights), empty_strings=(),
                        edges=tuple((lefts[li], rights[ri]) for li, ri in edges))
    return sub


def prune_to_regular(G: ViolationGraph, epsilon, d: int) -> PruneReport:
    """Heavy-vertex pruning: alternate left/right removals until the rest is
    cheap to cover or has no heavy vertex.

    A left vertex is heavy when its degree reaches d*wt(G); a right vertex
    when its incoming weight reaches d*wt(G)*wt(j). Each batch removes every
    vertex heavy against the current graph weight, then drops newly isolated
    vertices on the other side; the weight is recomputed after every batch
    including that cleanup. The cover tests use the exact minimum cover.
    """
    eps = Fraction(epsilon)
    if d < 1:
        raise ValueError("d must be at least 1")
    work = _without(G)
    removed = []
    rounds = 0
    while True:
        rounds += 1
        heavy_left, _ = _heavy(work, d)
        removed += [("left",) + work.left[i] for i in heavy_left]
        work = _without(work, left_out=set(heavy_left))
        if min_weight_vertex_cover(work)[1] <= eps / 4:
            exit_reason = "cheap-cover-found"
            break
        _, heavy_right = _heavy(work, d)
        removed += [("right",) + work.right[j] for j in heavy_right]
        work = _without(work, right_out=set(heavy_right))
        if min_weight_vertex_cover(work)[1] <= eps / 4:
            exit_reason = "cheap-cover-found"
            break
        if not any(_heavy(work, d)):
            exit_reason = "no-heavy-left"
            break
    W = work.graph_weight()
    l_prime = tuple(v for v, k in zip(work.left, _degrees(work)[0]) if k >= W / 2)
    return PruneReport(work, tuple(removed), W, l_prime, rounds, exit_reason)


def regularity_diagnostics(report: PruneReport, epsilon, d: int) -> dict:
    """Informational regularity figures for a fully pruned graph.

    Reports the graph weight, the weight of the high-degree left part, and
    the minimum cover weight, with flags against the nominal thresholds. The
    flags describe asymptotic constants and are not guarantees at small n.
    """
    if report.exit_reason != "no-heavy-left":
        raise ValueError("diagnostics require a no-heavy-left exit")
    eps = Fraction(epsilon)
    wt_l_prime = sum((w for _, w in report.L_prime), Fraction(0))
    _, cover_w = min_weight_vertex_cover(report.G_star)
    return {
        "W": report.W,
        "wt_L_prime": wt_l_prime,
        "min_cover": cover_w,
        "flag_W": report.W >= eps / 4,
        "flag_L_prime": wt_l_prime >= Fraction(1, 2 * d),
        "flag_cover": cover_w >= 3 * eps / 8,
    }
