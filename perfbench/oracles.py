"""Answers the benchmark checks results against, computed without nodalcalc.

Graphs here are plain data: ``vertices`` is a tuple of (id, genus) pairs
and ``edges`` a tuple of (id, (end, end)) pairs, as DualGraph takes them.
"""

from __future__ import annotations

from math import gcd


def genus(vertices, edges) -> int:
    return len(edges) - len(vertices) + 1 + sum(g for _, g in vertices)


def valence(edges, v) -> int:
    return sum((a == v) + (b == v) for _, (a, b) in edges)


def is_exceptional(vertices, edges, v) -> bool:
    """Genus 0, no loop, at most two edge ends (a proper vertex only)."""
    if len(vertices) == 1 or dict(vertices)[v] != 0:
        return False
    if any(a == b == v for _, (a, b) in edges):
        return False
    return valence(edges, v) <= 2


def bareiss_det(matrix: list[list[int]]) -> int:
    """Exact integer determinant by fraction-free elimination."""
    m = [row[:] for row in matrix]
    n = len(m)
    if n == 0:
        return 1
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def spanning_trees(vertices, edges) -> int:
    """Kirchhoff: any cofactor of the graph Laplacian; loops never count."""
    ids = [v for v, _ in vertices]
    index = {v: i for i, v in enumerate(ids)}
    n = len(ids)
    lap = [[0] * n for _ in range(n)]
    for _, (a, b) in edges:
        if a == b:
            continue
        i, j = index[a], index[b]
        lap[i][i] += 1
        lap[j][j] += 1
        lap[i][j] -= 1
        lap[j][i] -= 1
    return bareiss_det([row[:-1] for row in lap[:-1]])


def certify_count(vertices, edges, d: int) -> int | None:
    """Number of balanced bundles (= semistable models) at degree d, if known.

    When gcd(d - g + 1, 2g - 2) = 1 every semistable model is stable, and
    the stable models on the stratum with non-invertible set N are
    counted by the spanning trees of G - N (Caporaso; Oda-Seshadri).
    Summed over all N this is tau(G) * 2^(|E| - |V| + 1), since each
    spanning tree T is counted once for every N disjoint from it.
    Returns None at the other degrees.
    """
    g = genus(vertices, edges)
    if gcd(d - g + 1, 2 * g - 2) != 1:
        return None
    return spanning_trees(vertices, edges) * 2 ** (len(edges) - len(vertices) + 1)


def interval_sum_range(degs) -> tuple[int, int]:
    lo = hi = degs[0]
    for i in range(len(degs)):
        acc = 0
        for d in degs[i:]:
            acc += d
            lo, hi = min(lo, acc), max(hi, acc)
    return lo, hi


def admissible(degs) -> bool:
    lo, hi = interval_sum_range(degs)
    return -1 <= lo and hi <= 1


def connected_subsets(vertices, edges):
    """Vertex sets of the connected subcurves, by breadth-first search."""
    ids = [v for v, _ in vertices]
    adj = {v: set() for v in ids}
    for _, (a, b) in edges:
        adj[a].add(b)
        adj[b].add(a)
    for mask in range(1, 1 << len(ids)):
        members = {ids[i] for i in range(len(ids)) if mask >> i & 1}
        seen = {next(iter(members))}
        frontier = list(seen)
        while frontier:
            for w in adj[frontier.pop()] & members:
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        if seen == members:
            yield frozenset(members)


def pushforward_degree(edges, plain: dict, chains: dict, members) -> int:
    """Degree of the direct image on a connected subcurve W (min formula).

    ``plain`` holds the degrees on the target vertices and ``chains``
    maps each modified edge to its degree sequence read from the smaller
    endpoint.  A chain inside W adds its total; a chain leaving W adds
    the least prefix sum read from the W side, never more than 0.
    """
    total = sum(plain[v] for v in members)
    ends = dict(edges)
    for e, degs in chains.items():
        a, b = sorted(ends[e])
        if a in members and b in members:
            total += sum(degs)
        elif a in members or b in members:
            seq = degs if a in members else degs[::-1]
            prefix = worst = 0
            for d in seq:
                prefix += d
                worst = min(worst, prefix)
            total += worst
    return total


def model_degree(edges, model_json: dict, members) -> int:
    """Degree of a sheaf model (in its JSON form) on a subcurve."""
    ends = dict(edges)
    deg = sum(model_json["multidegree"][v] for v in members)
    return deg + sum(1 for e in model_json["noninvertible"]
                     if ends[e][0] in members and ends[e][1] in members)
