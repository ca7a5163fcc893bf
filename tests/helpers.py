"""Brute-force oracles and small builders shared by the test modules.

Everything here is deliberately naive: distances enumerate whole function
classes as truth tables, covers enumerate vertex subsets, decision-list
consistency backtracks over literals, conjunction consistency builds the
most specific conjunction, and the hidden-instance rules count zeros block
by block from an instance's public fields. The package's closed-form
answers are checked against these, so nothing below may import from the
modules under test beyond the basic data types.
"""

from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
import math
from math import ceil, comb
from typing import NamedTuple

from subcube import (
    BudgetExceeded,
    ExperimentConfig,
    FiniteDistribution,
    GeneralConj,
    LinearThreshold,
    MonotoneConj,
    PruneReport,
    RandomStream,
    SizeCapError,
    ViolationGraph,
    ZeroSet,
)


def zs(n, *zeros):
    return ZeroSet(n, frozenset(zeros))


class LabeledSample(NamedTuple):
    """Labeled points ((point, label, weight), ...) in n dimensions, as the
    reference fit checks read them. Nothing is checked."""

    n: int
    entries: tuple

    @classmethod
    def from_function(cls, f, dist):
        """dist's support labeled by f, in entry order."""
        return cls(dist.n, tuple((p, f.value_at(p.zeros), w) for p, w in dist.entries))


def flip_distribution(dist, coords):
    """dist pushed through the flip of coords. With Flipped(f, coords) it
    keeps every distance to a flip-closed class."""
    return FiniteDistribution(dist.n, tuple((p.flip(coords), w) for p, w in dist.entries))


def ones_index(n, zeros):
    """The input index of a point: bit (i-1) set iff coordinate i is 1."""
    k = (1 << n) - 1
    for i in zeros:
        k &= ~(1 << (i - 1))
    return k


def table_of(func, n):
    """Truth table of a function spec as an int, bit k = value at input k."""
    bits = 0
    for k in range(1 << n):
        zeros = frozenset(i for i in range(1, n + 1) if not (k >> (i - 1)) & 1)
        if func.value_at(zeros):
            bits |= 1 << k
    return bits


def table_error(table, n, entries):
    """Weighted disagreement of a truth table with labeled entries."""
    err = Fraction(0)
    for point, label, w in entries:
        if (table >> ones_index(n, point.zeros)) & 1 != label:
            err += w
    return err


@lru_cache(maxsize=None)
def mconj_tables(n):
    tables = set()
    for r in range(n + 1):
        for req in combinations(range(1, n + 1), r):
            tables.add(table_of(MonotoneConj(n, frozenset(req)), n))
    return tuple(sorted(tables))


@lru_cache(maxsize=None)
def conj_tables(n):
    # one literal state per coordinate: positive, negative, or absent;
    # the contradictory (constant-0) conjunction is added explicitly
    tables = {0}
    for states in product((None, 0, 1), repeat=n):
        pos = frozenset(i + 1 for i, s in enumerate(states) if s == 1)
        neg = frozenset(i + 1 for i, s in enumerate(states) if s == 0)
        tables.add(table_of(GeneralConj(n, pos, neg), n))
    return tuple(sorted(tables))


@lru_cache(maxsize=None)
def ltf_tables(n, wmax=3, tspan=10):
    tables = set()
    for ws in product(range(-wmax, wmax + 1), repeat=n):
        for th in range(-tspan, tspan + 1):
            tables.add(table_of(LinearThreshold(n, ws, th), n))
    return tuple(sorted(tables))


def brute_distance(entries, n, tables):
    return min(table_error(t, n, entries) for t in tables)


def fires(lit, zeros):
    """Whether a signed literal is satisfied: +i needs a 1, -i needs a 0."""
    return lit not in zeros if lit > 0 else -lit in zeros


def dlist_realizable(n, items):
    """Backtracking check that labeled points fit some decision list."""
    items = tuple(items)
    if not items or len({lab for _, lab in items}) == 1:
        return True
    for i in range(1, n + 1):
        for lit in (i, -i):
            fired = tuple(it for it in items if fires(lit, it[0]))
            if not fired or len(fired) == len(items):
                continue
            if len({lab for _, lab in fired}) != 1:
                continue
            rest = tuple(it for it in items if not fires(lit, it[0]))
            if dlist_realizable(n, rest):
                return True
    return False


def _most_specific_fits(sample, literals):
    """Whether the conjunction of every literal that all 1-points satisfy
    is 0 on every 0-point. It is the most specific conjunction over
    `literals` that is 1 on the 1-points, so some conjunction over them
    fits the sample iff this one does."""
    ones = [p.zeros for p, label, _ in sample.entries if label == 1]
    kept = [lit for lit in literals if all(fires(lit, z) for z in ones)]
    return all(not all(fires(lit, p.zeros) for lit in kept)
               for p, label, _ in sample.entries if label == 0)


def mconj_consistent(sample):
    """Whether some monotone conjunction fits every labeled point."""
    return _most_specific_fits(sample, range(1, sample.n + 1))


def conj_consistent(sample):
    """Whether some conjunction fits every labeled point. Both literals of
    a coordinate together make the constant 0, which fits when no point is
    labeled 1."""
    return _most_specific_fits(
        sample, [lit for i in range(1, sample.n + 1) for lit in (i, -i)])


def brute_flip_distance(entries, consistent):
    """Minimum weight of labels to flip before consistent() holds."""
    m = len(entries)
    best = None
    for mask in range(1 << m):
        wt = sum(
            (entries[j][2] for j in range(m) if (mask >> j) & 1), Fraction(0))
        if best is not None and wt >= best:
            continue
        flipped = tuple(
            (p, lab ^ ((mask >> j) & 1), w)
            for j, (p, lab, w) in enumerate(entries))
        if consistent(flipped):
            best = wt
    return best


def reference_edges(left, right):
    """The zero rule over every (left, right) pair of positions: a left
    point is joined to a right index in its zero set."""
    return tuple((li, ri) for li, (point, _) in enumerate(left)
                 for ri, (j, _) in enumerate(right) if j in point.zeros)


def brute_min_cover(graph):
    """Minimum-weight vertex cover by subset enumeration."""
    nl, nr = len(graph.left), len(graph.right)
    edges = reference_edges(graph.left, graph.right)
    best = None
    for lm in range(1 << nl):
        for rm in range(1 << nr):
            if not all((lm >> li) & 1 or (rm >> ri) & 1 for li, ri in edges):
                continue
            wt = sum((w for i, (_, w) in enumerate(graph.left)
                      if (lm >> i) & 1), Fraction(0))
            wt += sum((w for i, (_, w) in enumerate(graph.right)
                       if (rm >> i) & 1), Fraction(0))
            if best is None or wt < best:
                best = wt
    return best


def literal_heavy(graph, d):
    """Positions of the left and of the right vertices heavy against the
    graph weight W, by the rule in Fractions: degree at least d*W, and
    incoming weight at least d*W times the vertex's own weight."""
    edges = reference_edges(graph.left, graph.right)
    weight = sum((graph.left[li][1] for li, _ in edges), Fraction(0))
    deg = [0] * len(graph.left)
    inw = [Fraction(0)] * len(graph.right)
    for li, ri in edges:
        deg[li] += 1
        inw[ri] += graph.left[li][1]
    return ([i for i in range(len(graph.left)) if deg[i] >= d * weight],
            [j for j, (_, wj) in enumerate(graph.right) if inw[j] >= d * weight * wj])


def reference_min_cover(G):
    """Minimum-weight vertex cover by an integer max-flow that starts from
    the zero flow and runs one BFS per augmenting path, kept as the
    reference for the package's seeded flow. Returns (cover, weight) with
    ("L", position) and ("R", position) tags; the cover is the minimal
    source-side cut."""
    nl, nr = len(G.left), len(G.right)
    if nl + nr > 10_000:
        raise SizeCapError("vertex cover computation capped at 10000 vertices")
    if not G.edges:
        return frozenset(), Fraction(0)
    weights = [w for _, w in G.left + G.right]
    denom = math.lcm(*(w.denominator for w in weights))
    # residual capacity of source -> left i (node i) and right j -> sink
    # (node nl + j); flow[j] maps left i to the flow on edge i -> j
    cap = [w.numerator * (denom // w.denominator) for w in weights]
    adj = [[] for _ in range(nl)]
    for li, ri in G.edges:
        adj[li].append(nl + ri)
    flow = [{} for _ in range(nr)]

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

    total = 0
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


def _without(G, left_out=(), right_out=()):
    """G without the given vertex positions and without every vertex left
    isolated, in order, built afresh from the vertices it keeps."""
    edges = [(li, ri) for li, ri in reference_edges(G.left, G.right)
             if li not in left_out and ri not in right_out]
    return ViolationGraph(tuple(G.left[i] for i in sorted({li for li, _ in edges})),
                          tuple(G.right[j] for j in sorted({ri for _, ri in edges})))


def _degrees(G):
    """Degree of every left vertex, and incoming weight of every right one,
    in Fractions."""
    deg, inw = [0] * len(G.left), [Fraction(0)] * len(G.right)
    for li, ri in reference_edges(G.left, G.right):
        deg[li] += 1
        inw[ri] += G.left[li][1]
    return deg, inw


def reference_prune_to_regular(G, epsilon, d, calls):
    """prune_to_regular as first written, kept as the reference for the
    loop that reuses its heavy sets and carries one flow: each round finds
    the heavy vertices three times and weighs the cover after both batches,
    whether or not a batch removed anything, on a subgraph built afresh
    each time. calls counts its "cover" and "heavy" calls. Returns the
    PruneReport."""
    def heavy(work):
        calls["heavy"] += 1
        return literal_heavy(work, d)

    def cheap(work):
        calls["cover"] += 1
        return reference_min_cover(work)[1] <= Fraction(epsilon) / 4

    work, removed, rounds = _without(G), [], 0
    while True:
        rounds += 1
        heavy_left, _ = heavy(work)
        removed += [("left",) + work.left[i] for i in heavy_left]
        work = _without(work, left_out=set(heavy_left))
        if cheap(work):
            exit_reason = "cheap-cover-found"
            break
        _, heavy_right = heavy(work)
        removed += [("right",) + work.right[j] for j in heavy_right]
        work = _without(work, right_out=set(heavy_right))
        if cheap(work):
            exit_reason = "cheap-cover-found"
            break
        if not any(heavy(work)):
            exit_reason = "no-heavy-left"
            break
    W = sum(_degrees(work)[1], Fraction(0))
    l_prime = tuple(v for v, k in zip(work.left, _degrees(work)[0]) if k >= W / 2)
    return PruneReport(work, tuple(removed), W, l_prime, rounds, exit_reason)


def rand_fractions(rng, k):
    """k positive exact weights summing to 1."""
    nums = [rng.randrange(9) + 1 for _ in range(k)]
    total = sum(nums)
    return [Fraction(v, total) for v in nums]


def rand_points(rng, n, k, max_zeros=None):
    """k distinct random points, zero-set sizes up to max_zeros.

    ValueError when fewer than k points of {0,1}^n have at most max_zeros
    zeros.
    """
    cap = n if max_zeros is None else max_zeros
    available = 0
    for i in range(min(cap, n) + 1):
        available += comb(n, i)
        if available >= k:
            break
    if k > available:
        raise ValueError(f"only {available} points of n={n} have at most "
                         f"{cap} zeros, asked for {k}")
    seen = set()
    out = []
    while len(out) < k:
        size = rng.randrange(cap + 1)
        zrs = frozenset(rng.sample(list(range(1, n + 1)), size))
        if zrs in seen:
            continue
        seen.add(zrs)
        out.append(ZeroSet(n, zrs))
    return out


def rand_dist(rng, n, k, max_zeros=None):
    pts = rand_points(rng, n, k, max_zeros)
    return FiniteDistribution(n, tuple(zip(pts, rand_fractions(rng, k))))


def light_ones_dist(rng, func, ones, zeros):
    """A distribution over `ones` 1-points and `zeros` 0-points of func,
    each zero at 1 to 6 random coordinates, drawn by rejection. The 1-points
    share 3/4 of the mass evenly, so each is light, and a group's first
    1-samples hold a different set of them nearly every time; the 0-points
    share the last 1/4."""
    coords = list(range(1, func.n + 1))
    points, seen = ([], []), set()
    while len(points[0]) < zeros or len(points[1]) < ones:
        z = frozenset(rng.sample(coords, 1 + rng.randrange(6)))
        label = func.value_at(z)
        if z not in seen and len(points[label]) < (zeros, ones)[label]:
            seen.add(z)
            points[label].append(ZeroSet(func.n, z))
    return FiniteDistribution(func.n, (
        *((p, Fraction(3, 4 * ones)) for p in points[1]),
        *((p, Fraction(1, 4 * zeros)) for p in points[0])))


def subset_positions(rng, pop_size, k):
    """Uniformly random k-subset of range(pop_size) (Floyd's method), sorted:
    the one row of rng.subset_rows([pop_size], k), without its padding."""
    return rng.subset_rows([pop_size], k)[0, :pop_size].tolist()


def literal_subset_positions(rng, pop, k):
    """Floyd's method one position at a time: for j = pop-k, ..., pop-1,
    t = rng.randrange(j + 1), and j is taken instead when t already is.
    Sorted; all of range(pop), drawing nothing, when k >= pop."""
    if k >= pop:
        return list(range(pop))
    chosen = set()
    for j in range(pop - k, pop):
        t = rng.randrange(j + 1)
        chosen.add(j if t in chosen else t)
    return sorted(chosen)


def literal_block_facts(idx, lab, need):
    """For each row of a block of groups, given its support indices idx and
    their labels lab: its 1-count, its first 0-sample (-1 when it has none),
    and B's support points, those among its first need 1-samples (None when
    it has fewer), read off the row one sample at a time."""
    out = []
    for row, labels in zip(idx.tolist(), lab.tolist()):
        ones = [i for i, label in zip(row, labels) if label]
        zeros = [i for i, label in zip(row, labels) if not label]
        out.append((len(ones), zeros[0] if zeros else -1,
                    set(ones[:need]) if len(ones) >= need else None))
    return out


def group_fact_law(dist, func, size, need):
    """The exact joint law of what Stages 1-2 read of one group of size
    draws from dist labelled by func, by enumerating all |S|^size sequences
    in Fractions: {(class, B, first0): probability}. class is "few" (fewer
    than need 1-samples), "full" (no 0-sample) or "both"; B is the set of
    support indices among the first need 1-samples (None for "few"); first0
    is the support index of the first 0-sample ("both" only, else None)."""
    weights = [w for _, w in dist.entries]
    labels = [func.value_at(p.zeros) for p, _ in dist.entries]
    law = {}
    for seq in product(range(len(weights)), repeat=size):
        ones = [i for i in seq if labels[i]]
        zeros = [i for i in seq if not labels[i]]
        if len(ones) < need:
            key = ("few", None, None)
        else:
            key = ("both" if zeros else "full", frozenset(ones[:need]),
                   zeros[0] if zeros else None)
        law[key] = law.get(key, Fraction(0)) + math.prod(weights[i] for i in seq)
    return law


def chi2_sf(x, df):
    """P[X >= x] for X chi-square with integer df >= 1, in closed form:
    Q(1) = erfc(sqrt(x/2)), Q(2) = exp(-x/2), and Q(k + 2) = Q(k) +
    (x/2)^(k/2) exp(-x/2) / Gamma(k/2 + 1)."""
    if x <= 0:
        return 1.0
    k = 2 - df % 2
    q = math.exp(-x / 2) if k == 2 else math.erfc(math.sqrt(x / 2))
    while k < df:
        q += math.exp(k / 2 * math.log(x / 2) - x / 2 - math.lgamma(k / 2 + 1))
        k += 2
    return q


def chi2_critical(df, alpha):
    """The x with chi2_sf(x, df) = alpha, by bisection."""
    lo, hi = 0.0, 1.0
    while chi2_sf(hi, df) > alpha:
        hi *= 2
    for _ in range(100):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if chi2_sf(mid, df) > alpha else (lo, mid)
    return hi


def _pooled(cells, small):
    """cells {key: value}, with the keys in small summed into one key None."""
    out = {k: v for k, v in cells.items() if k not in small}
    if small:
        out[None] = sum(cells[k] for k in small)
    return out


def chi_square_fit(observed, law, alpha=0.001):
    """Pearson's goodness-of-fit of the counts observed {outcome: count}
    against law {outcome: probability}: (statistic, critical value at
    alpha, degrees of freedom). Outcomes expected fewer than 5 times, and
    every outcome outside law, are pooled into one cell; a pooled cell that
    law gives no mass but that was observed makes the statistic infinite."""
    total = sum(observed.values())
    expected = {k: total * float(p) for k, p in law.items()}
    for k in observed:
        expected.setdefault(k, 0.0)
    small = {k for k, e in expected.items() if e < 5}
    expected = _pooled(expected, small)
    counts = _pooled({k: observed.get(k, 0) for k in expected.keys() | small}, small)
    stat = 0.0
    for k, e in expected.items():
        if e == 0:
            if counts[k]:
                stat = math.inf
        else:
            stat += (counts[k] - e) ** 2 / e
    df = len(expected) - 1
    return stat, chi2_critical(df, alpha), df


def chi_square_two_sample(first, second, alpha=0.001):
    """Pearson's test that two histograms {category: count} come from one
    law: (statistic, critical value at alpha, degrees of freedom), on the
    2 x K table whose categories expected fewer than 5 times in either row
    are pooled into one."""
    keys = first.keys() | second.keys()
    rows = [{k: h.get(k, 0) for k in keys} for h in (first, second)]
    sizes = [sum(r.values()) for r in rows]
    total = sum(sizes)
    share = {k: (rows[0][k] + rows[1][k]) / total for k in keys}
    small = {k for k in keys if min(sizes) * share[k] < 5}
    rows = [_pooled(r, small) for r in rows]
    share = _pooled(share, small)
    stat = sum((r[k] - n * share[k]) ** 2 / (n * share[k])
               for r, n in zip(rows, sizes) for k in share if share[k])
    df = max(1, len(share) - 1)
    return stat, chi2_critical(df, alpha), df


def charge_samples(transcript, size):
    """The literal single-call charge: one call of size samples, refused
    whole (BudgetExceeded, nothing counted) when it does not fit the limit."""
    if transcript.limit is not None and transcript.sample_count + size > transcript.limit:
        raise BudgetExceeded("sampling budget exhausted")
    transcript.sample_count += size


def literal_draw(sampler):
    """One counted draw from the sampler's draw() stream, one sample at a
    time: charge it, draw one index, log it, and return (point, label)."""
    charge_samples(sampler.transcript, 1)
    idx = sampler.dist._law.draw(sampler.rng, 1)
    sampler._log(idx)
    i = int(idx[0])
    return sampler.point(i), int(sampler.labels[i])


def literal_index(dist, u):
    """The literal inverse CDF: the support index that a uniform draw u in
    [0, M) maps to, the first whose cumulative numerator exceeds u."""
    return bisect_right(dist._law.cum, u)


def word_index(cum, rng):
    """The literal exact draw past 2^62: the number of cuts c in cum[:-1]
    with c / cum[-1] <= V, for V uniform in [0, 1). V's first 64 bits are
    one word of rng; while some cut lies strictly inside the interval of
    V's prefix, the next 64 bits are one word of rng's tie stream."""
    cuts = [Fraction(c, cum[-1]) for c in cum[:-1]]
    low, width = Fraction(int(rng._words(1)[0]), 1 << 64), Fraction(1, 1 << 64)
    while any(low < c < low + width for c in cuts):
        width /= 1 << 64
        low += int(rng._ties._words(1)[0]) * width
    return sum(c <= low for c in cuts)


def strong_sample(inst, rng, transcript):
    """One draw from the strong sampling oracle of a hidden-block instance,
    one draw at a time: charged to transcript (which raises BudgetExceeded
    before drawing when it is at its limit), drawn through the literal
    inverse CDF (word_index past 2^62) and logged as (zeros, gamma).
    Returns (point, gamma): gamma is alpha_k for a draw of c^k, else None."""
    charge_samples(transcript, 1)
    dist = inst.distribution
    idx = (literal_index(dist, rng.randrange(dist.denominator)) if dist.denominator <= 1 << 62
           else word_index(dist._law.cum, rng))
    kind, i = inst.support_kinds[idx]
    point = dist.entries[idx][0]
    gamma = int(inst.alpha[i - 1]) if kind == "c" else None
    if transcript.log_queries:
        transcript.sample_log.append((point.zeros, gamma))
    return point, gamma


def literal_coords(n, coords, what, signed=False):
    """The coordinate check one coordinate at a time: ValueError at the
    first that is not a plain int in 1..n (when signed, whose absolute
    value is not), else the coordinates as a frozenset."""
    out = set()
    for i in coords:
        if type(i) is not int or not 1 <= (abs(i) if signed else i) <= n:
            raise ValueError(f"{what} {i!r} is not an integer in 1..{n}")
        out.add(i)
    return frozenset(out)


def collect(draws, snapshot=lambda: None):
    """Iterate draws until they end or a budget refuses one: the draws
    taken, each paired with snapshot() taken right after it, and whether a
    draw was refused."""
    taken = []
    try:
        for pair in draws:
            taken.append((pair, snapshot()))
    except BudgetExceeded:
        return taken, True
    return taken, False


def draw_indices(sampler, k):
    """k counted draws, as support indices, from the sampler's batch stream,
    the stream the tester's groups come from. It is separate from draw()'s
    and continues from call to call. The samples are charged before they
    are drawn, and logged as the sampler logs them."""
    charge_samples(sampler.transcript, k)
    idx = sampler.dist._law.draw(sampler._batch, k)
    sampler._log(idx)
    return idx


def reference_search(oracle, zeros):
    """The representative search as the halving loop: each level halves the
    sorted zeros, the first half taking the odd coordinate, asks both halves
    by query_set and keeps the first that answers 0; None (nil) when
    neither does, or when zeros is empty."""
    z = sorted(zeros)
    while len(z) >= 2:
        half = (len(z) + 1) // 2
        v0 = oracle.query_set(frozenset(z[:half]))
        v1 = oracle.query_set(frozenset(z[half:]))
        if v0 == 0:
            z = z[:half]
        elif v1 == 0:
            z = z[half:]
        else:
            return None
    return z[0] if z else None


def reference_query_until(oracle, rows, stop):
    """BlackBox.query_until as the per-row loop: each row, its 0 pad
    dropped, asked by query_set in order; the index of the first answered
    stop, or None."""
    for k, row in enumerate(rows.tolist()):
        if oracle.query_set(frozenset(row) - {0}) == stop:
            return k
    return None


def reference_mconj_tester(oracle, sampler, p, rng):
    """The monotone tester as the paper states it, kept as the oracle for
    the one-pass code: every group is stored as drawn, the representative
    search runs over the 0-samples in order of first appearance, and Stages
    1-2 rescan the stored groups (reference_stages12). Returns (accepted,
    reason, number of Stage-0 0-samples, number of representative
    searches)."""
    labels = sampler.labels.tolist()
    groups, reps, zero_count = [], {}, 0

    def result(accepted, reason):
        return accepted, reason, zero_count, len(reps)

    if oracle.query_set(frozenset()) == 0:
        return result(False, "stage0-allones")
    for _ in range(p.d_star + 1):
        groups.append([int(i) for i in draw_indices(sampler, p.group_size)])
        zeros = [i for i in groups[-1] if labels[i] == 0]
        zero_count += len(zeros)
        for i in zeros:
            if i not in reps:
                reps[i] = reference_search(oracle, sampler.point(i).zeros)
                if reps[i] is None:
                    return result(False, "stage0-nil-representative")
    return result(*reference_stages12(groups, reps, oracle, sampler, p, rng))


def reference_stages12(groups, reps, oracle, sampler, p, rng):
    """Stages 1-2 of reference_mconj_tester, on Stage 0's groups (support
    indices, as drawn) and reps, the representative of every 0-sample in
    them: group 0 feeds Stage 1, each later group one Stage-2 iteration.
    Returns (accepted, reason)."""
    labels = sampler.labels.tolist()

    def split(group):
        ones = [i for i in group if labels[i] == 1]
        return ones, [i for i in group if labels[i] == 0]

    def union(ones):
        return sorted(set().union(*(sampler.point(i).zeros for i in ones)))

    steps = rng.split("steps")
    ones = split(groups[0])[0]
    if len(ones) < p.t:
        return True, "stage1-few-ones"
    b = union(ones[:p.t])
    if b:
        for j in steps.integers(len(b), size=p.s):
            if oracle.query_set(frozenset({b[j]})) == 0:
                return False, "step-1.1"
        for _ in range(p.s):
            pos = literal_subset_positions(steps, len(b), p.r)
            if oracle.query_set(frozenset(b[q] for q in pos)) == 0:
                return False, "step-1.2"
    for group in groups[1:]:
        ones, zeros = split(group)
        if len(ones) < p.t - 1:
            return True, "stage2-few-ones"
        if not zeros:
            return True, "stage2-no-zero"
        b = union(ones[:p.t - 1])
        alpha = reps[zeros[0]]
        if alpha in b:
            return False, "step-2.1"
        pos = literal_subset_positions(steps, len(b), p.r - 1)
        if oracle.query_set(frozenset(b[q] for q in pos) | {alpha}) == 1:
            return False, "step-2.2"
    return True, "end-of-stage-2"


def reference_distinguishing_experiment(run_one, algo, params, yes_variant,
                                        no_variant, epsilon, trials, seed,
                                        budgets):
    """The budget sweep as first written, kept as the oracle for the
    shared-instance design: every (budget, world, variant, trial) run draws
    its own instance, from its run stream split("exp", q, world, variant,
    i) split once more by "instance". run_one is the harness's one-trial
    runner, passed in so that this module imports nothing under test.
    Returns the rows distinguishing_experiment returns."""
    rows = []
    for q in budgets:
        rates = {}
        for world in ("real", "sim"):
            for variant in (yes_variant, no_variant):
                config = ExperimentConfig(
                    algo=algo if world == "real" else "dolev-ron",
                    epsilon=Fraction(epsilon), trials=trials, seed=seed,
                    generator=(params, variant), budget=q)
                accepted = 0
                for i in range(trials):
                    rng = RandomStream(seed).split("exp", q, world, variant, i)
                    accepted += run_one(config, i, rng,
                                        sim=world == "sim").accepted
                rates[(world, variant)] = accepted / trials
        rows.append({
            "budget": q,
            "yes_accept": rates[("real", yes_variant)],
            "no_accept": rates[("real", no_variant)],
            "gap": rates[("real", yes_variant)] - rates[("real", no_variant)],
            "sim_yes_accept": rates[("sim", yes_variant)],
            "sim_no_accept": rates[("sim", no_variant)],
            "sim_gap": (rates[("sim", yes_variant)]
                        - rates[("sim", no_variant)]),
        })
    return rows


def _reference_relevant_indices(sample):
    idx = set()
    for point, _, _ in sample.entries:
        idx |= point.zeros
    return sorted(idx)


def _reference_dlist_fits(sample):
    """Greedy elimination over literal indices, one full pass per check."""
    alive = list(sample.entries)
    indices = _reference_relevant_indices(sample)
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


def _reference_simplex_max_delta(rows, num_vars):
    """Maximize delta subject to rows of (coeffs, bound) meaning
    coeffs . vars <= bound, vars >= 0, with delta the last variable, by a
    Fraction tableau with Bland's rule from the all-slack basis."""
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
    return objective[total]


def _reference_ltf_fits(sample):
    """Margin program over every coordinate that is zero somewhere: w+, w-
    per coordinate, theta+, theta-, delta; separable iff max delta > 0."""
    indices = _reference_relevant_indices(sample)
    k = len(indices)
    num_vars = 2 * k + 3
    rows = []
    for point, label, _ in sample.entries:
        x = [0 if j in point.zeros else 1 for j in indices]
        wx = x + [-v for v in x]
        if label == 1:
            coeffs = [-v for v in wx] + [1, -1, 1]
        else:
            coeffs = wx + [-1, 1, 1]
        rows.append((coeffs, Fraction(0)))
    delta_cap = [0] * (num_vars - 1) + [1]
    rows.append((delta_cap, Fraction(1)))
    return _reference_simplex_max_delta(rows, num_vars) > 0


# The margin program as first written, on lists of Python ints: the oracle
# for distances._ltf_core, which must return the same core for every input.
def reference_ltf_core(columns, m: int, ones: int) -> int:
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


# distances._min_error as first written, summing each mask's error one bit
# at a time: the oracle for the subset-weight tables, which must return the
# same (error, mask), ties included.
def reference_min_error(ones, nums, denom, zero_masks):
    m = len(nums)
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
        wrong = (zeros & ones) | (~zeros & full & ~ones)
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


def reference_flip_search(sample, kind):
    """The flip search as first written, kept as the oracle for the
    core-guided one: every flip set in (flipped weight, popcount, mask)
    order, one relabeled LabeledSample and one full check per set, until a
    decision list (kind "dlist") or threshold function (kind "ltf") fits.
    Returns (distance, flipped points)."""
    fits = {"dlist": _reference_dlist_fits, "ltf": _reference_ltf_fits}[kind]
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
        if fits(LabeledSample(sample.n, entries)):
            return flipped, tuple(sample.entries[i][0] for i in range(m)
                                  if (mask >> i) & 1)
    raise AssertionError("flipping to a constant labeling always fits")


def is_i_special(x, inst, i):
    """Whether x is i-special for triple i (1-based) of a hidden-block
    instance: at least ceil(3/4 * blocks_per_side) of the blocks on A_i's
    side have more than s zero coordinates in x, and at least as many on
    B_i's side have at most s."""
    s = inst.params.s
    need = ceil(Fraction(3 * inst.params.blocks_per_side, 4))
    blocks = [x.zeros.intersection(blk) for blk in inst.blocks.tolist()]
    heavy_a = [j for j in inst.a_block_ids[i - 1].tolist() if len(blocks[j]) > s]
    light_b = [j for j in inst.b_block_ids[i - 1].tolist() if len(blocks[j]) <= s]
    return len(heavy_a) >= need and len(light_b) >= need


def ltf_potential(x, inst, which, gamma_set=frozenset()):
    """Exact integer potential of x on a hidden-block instance:
    10 n^2 (#ones outside R) + 5 n term - #ones, where term counts the i in
    1..m that are "credited": for "u" (the yes form) when x_{alpha_i} = 1,
    for "v" (the no form) also when x is i-special, and for "phi" (the
    simulation form) when alpha_i is not a zero of x inside gamma_set."""
    n, zeros = inst.n, x.zeros
    ones_outside_r = sum(1 for k in range(1, n + 1)
                         if k not in inst.r_set and k not in zeros)
    term = 0
    for i, a in enumerate(inst.alpha.tolist(), start=1):
        if which == "u":
            term += a not in zeros
        elif which == "v":
            term += a not in zeros or is_i_special(x, inst, i)
        else:
            term += not (a in zeros and a in gamma_set)
    return 10 * n * n * ones_outside_r + 5 * n * term - (n - len(zeros))


def hidden_rule_unmet(f, zeros):
    """The alpha_i of a hidden-block function (an LBNoFunction with or
    without a threshold, built by hand or drawn) that are zero in zeros while
    zeros is not i-special, read from the function's own rows: with need =
    ceil(3/4 * the number of blocks in row i's A-side), x is i-special when
    at least need of those blocks have more than s zeros and at least need
    of row i's B-side blocks have at most s."""
    unmet = []
    for a, a_side, b_side in zip(f.alpha, f.a_blocks, f.b_blocks):
        need = ceil(Fraction(3 * len(a_side), 4))
        heavy_a = [blk for blk in a_side if len(blk & zeros) > f.s]
        light_b = [blk for blk in b_side if len(blk & zeros) <= f.s]
        if a in zeros and not (len(heavy_a) >= need and len(light_b) >= need):
            unmet.append(a)
    return unmet


def hidden_rule_potential(f, zeros):
    """The v-potential of a hidden-block function at zeros: 10 n^2 (#ones
    outside R) + 5 n (m - #unmet) - #ones."""
    n = f.n
    ones_outside_r = sum(1 for k in range(1, n + 1)
                         if k not in f.R and k not in zeros)
    term = len(f.alpha) - len(hidden_rule_unmet(f, zeros))
    return 10 * n * n * ones_outside_r + 5 * n * term - (n - len(zeros))
