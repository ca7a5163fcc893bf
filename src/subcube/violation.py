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
augmenting in phases; that cut is the same for every maximum flow, so the
pruning carries one flow from cover to cover, augmenting it each time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction

import numpy as np

from .model import (
    BlackBox,
    FiniteDistribution,
    FunctionSpec,
    QueryTranscript,
    SizeCapError,
    ZeroSet,
    _batch,
    _flat_sets,
    _over_lcm,
    _support_labels,
)

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
    def _scaled(self) -> tuple:
        """(left, right, denom): the weights as integers over denom."""
        nums, denom = _over_lcm([w for _, w in self.left + self.right])
        return nums[:len(self.left)], nums[len(self.left):], denom

    @cached_property
    def edges(self) -> tuple:
        """The (left position, right position) pairs of the zero rule, sorted."""
        pos = {j: k for k, (j, _) in enumerate(self.right)}
        return tuple(sorted((li, pos[j]) for li, (point, _) in enumerate(self.left)
                            for j in pos.keys() & point.zeros))

    def graph_weight(self) -> Fraction:
        """Total edge weight, each edge weighted by its left endpoint."""
        lw, _, denom = self._scaled
        return Fraction(sum(lw[i] for i, _ in self.edges), denom)


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


def _unchecked(**fields) -> ViolationGraph:
    """The graph of fields, whose weights its maker has checked."""
    graph = object.__new__(ViolationGraph)
    graph.__dict__.update(fields)
    return graph


def build_violation_bigraph(f: FunctionSpec, dist: FiniteDistribution) -> ViolationGraph:
    """Violation bipartite graph of f restricted to the support of dist.

    Representatives come from the binary searches of a fresh black box on f
    (BlackBox.representatives), whose count is not read.
    Restricting to positive-weight vertices preserves the minimum cover
    weight: an edge at a zero-weight vertex is coverable for free. The
    weights are summed as integers over dist's denominator, unchecked. A
    support labelled in one batch is flattened once, for the edges too.
    """
    # entry k weighs cum[k + 1] - cum[k] over denom
    entries, cum, denom = dist.entries, (0,) + dist._law.cum, dist.denominator
    sets = _flat_sets([p._sorted() for p, _ in entries]) if _batch(f, len(entries)) else None
    labels = _support_labels(f, dist, sets)
    left, zeros, right, empties = [], [], {}, []
    for k, label in enumerate(labels.tolist()):
        (left if label else zeros).append(k)
    for k, rep in zip(zeros, BlackBox(f, QueryTranscript()).representatives(
            [entries[k][0] for k in zeros])):
        if rep is None:
            empties.append(entries[k])
        else:
            right[rep] = right.get(rep, 0) + cum[k + 1] - cum[k]
    order, weights = sorted(right), {w: Fraction(w, denom) for w in set(right.values())}
    fields = {}
    if sets is not None:  # the edges, in order: each 1-point's sorted zeros that are in order
        flat, _, sizes = sets
        keep = np.isin(flat[:-1], order) & np.repeat(labels == 1, sizes)
        lefts, rights = np.repeat(np.cumsum(labels) - 1, sizes)[keep], flat[:-1][keep]
        fields["edges"] = tuple(zip(lefts.tolist(), np.searchsorted(order, rights).tolist()))
    return _unchecked(left=tuple(entries[k] for k in left),
                      right=tuple((j, weights[right[j]]) for j in order),
                      empty_strings=tuple(empties),
                      _scaled=([cum[k + 1] - cum[k] for k in left], [right[j] for j in order],
                               denom), **fields)


def min_weight_vertex_cover(G: ViolationGraph):
    """Exact minimum-weight vertex cover of a bipartite graph.

    Weighted Koenig duality: the cover weight equals the maximum flow in the
    source -> left -> right -> sink network with vertex weights as capacities
    and unbounded left -> right edges. The flow runs in integers: every weight
    is scaled to a common denominator (G._scaled), so it stays exact. Each
    edge, in G.edges order, first carries what both its endpoints have left;
    phases of shortest augmenting paths (_Flow.augment) then make it maximum.
    The cover is the minimal source-side cut: the left vertices the source
    cannot reach in the final residual graph and the right ones it can, the
    same set for every maximum flow, whatever the seed, the phases or a flow
    carried over (G keeps its own for prune_to_regular); on a tie the left
    vertex is taken. Returns (cover, weight), cover of ("L"/"R", position) tags.
    """
    if len(G.left) + len(G.right) > _COVER_CAP:
        raise SizeCapError(f"vertex cover computation capped at {_COVER_CAP} vertices")
    if "_cover" not in G.__dict__ and G.edges:
        flow = G.__dict__["_flow"] = _Flow(G)
        flow.augment()
        G.__dict__["_cover"] = flow.cover(range(flow.nl), range(flow.nl, len(flow.w)))
    return G.__dict__.get("_cover", (frozenset(), Fraction(0)))


class _Flow:
    """An integer flow in G's network over the vertices still alive. Left i
    is node i and right j node nl + j; arcs[u] lists node u's (node, edge)
    pairs. cap holds residual source and sink capacities; cap, flow, total,
    inw and weight count in 1/denom. blank is -1 at an alive node and -2 at
    one removed or isolated; reach is the last BFS's levels, or None until
    the flow is maximum again."""

    def __init__(self, G: ViolationGraph):
        """G's network, each edge in order carrying what both its ends have left."""
        (lw, rw, self.denom), nl = G._scaled, len(G.left)
        cap, inw, flow, arcs = lw + rw, [0] * (nl + len(rw)), [], [[] for _ in lw + rw]
        for e, (i, j) in enumerate(G.edges):
            j += nl
            arcs[i].append((j, e))
            arcs[j].append((i, e))
            inw[j] += lw[i]
            push = cap[i] if cap[i] < cap[j] else cap[j]
            cap[i], cap[j] = cap[i] - push, cap[j] - push
            flow.append(push)
        self.nl, self.w, self.cap, self.flow, self.total = nl, lw + rw, cap, flow, sum(flow)
        self.arcs, self.deg, self.inw, self.weight = arcs, [*map(len, arcs)], inw, sum(inw)
        self.blank = [-1 if a else -2 for a in arcs]
        self.reach = None if G.edges else self.blank  # no edge: the zero flow is maximum

    def remove(self, nodes: list) -> None:
        """Take out the nodes, the flow through them and the vertices left isolated."""
        blank, deg, inw, w, cap, flow = self.blank, self.deg, self.inw, self.w, self.cap, self.flow
        weight = total = 0  # what leaves with them
        for u in nodes:
            blank[u] = -2
            for v, e in self.arcs[u]:
                if blank[v] == -1:
                    i, j = (u, v) if u < v else (v, u)  # lefts are numbered first
                    weight, total, cap[v] = weight + w[i], total + flow[e], cap[v] + flow[e]
                    deg[u], deg[v], inw[j], flow[e] = deg[u] - 1, deg[v] - 1, inw[j] - w[i], 0
                    if not deg[v]:
                        blank[v] = -2
        self.weight, self.total, self.reach = self.weight - weight, self.total - total, None

    def augment(self) -> int:
        """Augment to a maximum flow in phases (Dinic 1970); return its total.
        A phase's BFS levels the residual graph up to the first level with a
        right node the sink can take from, and a blocking flow fills those
        shortest paths, traced back from such nodes with current arcs."""
        if self.blank.count(-1) > _COVER_CAP:
            raise SizeCapError(f"vertex cover computation capped at {_COVER_CAP} vertices")
        arcs, cap, flow, nl = self.arcs, self.cap, self.flow, self.nl
        while self.reach is None:
            level, depth, sinks = self.blank[:], 0, []
            frontier = [u for u in range(nl) if cap[u] and level[u] == -1]
            for u in frontier:
                level[u] = 0
            while frontier and not sinks:
                depth, ahead = depth + 1, []
                for u in frontier:
                    for v, e in arcs[u]:
                        # left to right is unbounded, right to left runs back along the flow
                        if level[v] == -1 and (depth & 1 or flow[e]):
                            level[v] = depth
                            ahead.append(v)
                # a left node past level 0 has no source capacity left
                frontier, sinks = ahead, [v for v in ahead if cap[v]]
            self.reach, at = None if sinks else level, [0] * len(arcs)
            for t in sinks:
                path = []  # the (node, edge) steps back from t
                while level[t] > 0 and cap[t]:
                    u = path[-1][0] if path else t
                    if not level[u]:  # at the source: only right to left steps are bounded
                        add = min(cap[t], cap[u], *(flow[e] for _, e in path[1::2]))
                        cap[t], cap[u], self.total = cap[t] - add, cap[u] - add, self.total + add
                        for n, (_, e) in enumerate(path):
                            flow[e] += -add if n & 1 else add
                        path = []
                        continue
                    a, k, up = arcs[u], at[u], level[u] - 1
                    while k < len(a) and not (level[a[k][0]] == up and (
                            flow[a[k][1]] if u < nl else up or cap[a[k][0]])):
                        k += 1
                    at[u] = k
                    if k < len(a):
                        path.append(a[k])
                    else:  # a dead end
                        level[u], path[-1:] = -2, []
        return self.total

    def cover(self, lefts, rights) -> tuple:
        """(cover, weight) of the maximum flow over the given nodes: the
        positions of the lefts unreached and of the rights reached."""
        return (frozenset([("L", k) for k, u in enumerate(lefts) if self.reach[u] == -1]
                          + [("R", k) for k, u in enumerate(rights) if self.reach[u] > 0]),
                Fraction(self.total, self.denom))

    def heavy(self, d: int) -> tuple:
        """The left and the right nodes heavy against the weight, in integers."""
        deg, inw, w, denom, dw = self.deg, self.inw, self.w, self.denom, d * self.weight
        least = max(-(-dw // denom), 1)  # deg * denom >= dw, at an alive node
        return ([u for u in range(self.nl) if deg[u] >= least],
                [u for u in range(self.nl, len(w)) if inw[u] and inw[u] * denom >= dw * w[u]])


def prune_to_regular(G: ViolationGraph, epsilon, d: int) -> PruneReport:
    """Heavy-vertex pruning: alternate left/right removals until the rest is
    cheap to cover or has no heavy vertex.

    A left vertex is heavy when its degree reaches d*wt(G); a right vertex
    when its incoming weight reaches d*wt(G)*wt(j). Each batch removes every
    vertex heavy against the current graph weight, then drops newly isolated
    vertices on the other side; the weight is recomputed after every batch
    including that cleanup. The cover tests augment one flow, taken over
    from min_weight_vertex_cover(G) when it ran, to the exact minimum cover.
    """
    eps = Fraction(epsilon)
    if d < 1:
        raise ValueError("d must be at least 1")
    # heavy: work.heavy(d), or None until it is needed; weighed: the rest's
    # cover weighs more than eps/4. A batch that removes nothing keeps both.
    work, nodes, nl = G.__dict__.pop("_flow", None) or _Flow(G), G.left + G.right, len(G.left)
    removed, rounds, heavy, weighed, exit_reason = [], 0, None, False, None
    while exit_reason is None:
        rounds += 1
        for side, name in enumerate(("left", "right")):
            heavy = heavy or work.heavy(d)
            if heavy[side]:
                removed += [(name,) + nodes[u] for u in heavy[side]]
                work.remove(heavy[side])
                heavy, weighed = None, False
            if not weighed and 4 * eps.denominator * work.augment() <= eps.numerator * work.denom:
                exit_reason = "cheap-cover-found"
                break
            weighed = True
        else:
            heavy = heavy or work.heavy(d)
            exit_reason = None if any(heavy) else "no-heavy-left"
    blank, w = work.blank, work.w  # G_star's edges follow from its vertices
    lefts = [u for u in range(nl) if blank[u] == -1]
    rights = [u for u in range(nl, len(nodes)) if blank[u] == -1]
    star = _unchecked(left=tuple([nodes[u] for u in lefts]),
                      right=tuple([nodes[u] for u in rights]), empty_strings=(),
                      _cover=work.cover(lefts, rights),
                      _scaled=([w[u] for u in lefts], [w[u] for u in rights], work.denom))
    l_prime = tuple([nodes[u] for u in lefts if 2 * work.deg[u] * work.denom >= work.weight])
    return PruneReport(star, tuple(removed), Fraction(work.weight, work.denom), l_prime, rounds,
                       exit_reason)


def regularity_diagnostics(report: PruneReport, epsilon, d: int) -> dict:
    """Informational regularity figures for a fully pruned graph.

    Reports the graph weight, the weight of the high-degree left part, and
    the minimum cover weight, with flags against the nominal thresholds. The
    flags describe asymptotic constants and are not guarantees at small n.
    G_star keeps the cover prune_to_regular found, so none is solved again.
    """
    if report.exit_reason != "no-heavy-left":
        raise ValueError("diagnostics require a no-heavy-left exit")
    eps = Fraction(epsilon)
    nums, denom = _over_lcm([w for _, w in report.L_prime])
    wt_l_prime = Fraction(sum(nums), denom)
    _, cover_w = min_weight_vertex_cover(report.G_star)
    return {
        "W": report.W,
        "wt_L_prime": wt_l_prime,
        "min_cover": cover_w,
        "flag_W": report.W >= eps / 4,
        "flag_L_prime": wt_l_prime >= Fraction(1, 2 * d),
        "flag_cover": cover_w >= 3 * eps / 8,
    }
