"""Stability of sheaf models and balanced multidegrees.

Semistability of a torsion-free sheaf with respect to a polarization is
a family of inequalities, one per connected proper subcurve: the Euler
characteristic of the restriction twisted by the polarizing sheaf must
be nonnegative.  For the canonical polarization this reduces to a
rational inequality bounding the degree on each subcurve from below by
its share of the dualizing degree minus half its boundary.  The same
lower bound on an honest line bundle, together with degree 1 on every
exceptional vertex, is the balanced condition.

One scan kernel serves all four scans.  Since omega_Z = k_Z - 2 chi_Z,
under the canonical polarization the chi-margin rank (d_Z + chi_Z) + e_Z
is exactly (2g - 2) times the degree-bound margin d_Z - d omega_Z /
(2g - 2) + k_Z / 2.  The kernel yields integer margins lazily, and each
verdict mode is one exact predicate on a (subcurve, margin) row, which
holds for a chi margin exactly when it holds for the degree-bound margin.
The enumerators and the check_* verdicts apply it straight to the
kernel's integer rows and stop at the first failing subcurve, so they
build no Fraction per candidate or per subcurve row; the degree-bound
reports build one per row.

The reports and the check_* verdicts read a graph's full subcurve table.
The balanced enumeration reads, for each small modification, rows lifted
from the target's table instead (the comparison of the subcurves of a
modification with those of its target):

    Lemma.  Let Y be a small modification of a stable graph X, and give
    every chain vertex degree 1.  Lift each row W of X's table to W plus
    the chain vertex of every modified edge with both ends in W, keeping
    chi_W, and add one row {c}, chi 1, per chain vertex c.  A degree
    vector passes these rows in a balanced mode exactly when it passes
    every connected proper subcurve of Y in that mode.

    Proof.  A chain vertex c has genus 0, two edges and omega_c = 0, so
    e_c = 0.  Let Z be a connected proper subcurve of Y.  If c is in Z
    with only one end of its edge, Z - {c} is connected, has the same
    chi, and its margin is lower by exactly the rank 2g - 2; Z passes
    whenever Z - {c} does, in both modes.  If both ends of c's edge are
    in Z but c is not, Z + {c} is connected, d and chi both change by
    one in opposite directions, so the margin is unchanged; the tie rule
    (complement exceptional) also reads the same, because c is
    exceptional.  Applying both moves leaves {c}, a lift of a row of X
    (chi is unchanged by the lift, which trades one edge for one vertex
    and two edges), or a set holding every vertex of X.  The last has
    margin 0, the margin of the whole curve, and a complement of chain
    vertices only, so it passes in both modes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import ceil, floor
from typing import Callable, Collection, Iterable, Iterator, Mapping

from .graphs import (
    DualGraph,
    _json_int,
    boundary_count,
    classify,
    connected_subcurves,
    exceptional_vertices,
)
from .modifications import Modification, pullback_multidegree, small_modification
from .sheaves import Multidegree, SheafModel, _restricted_degree


def chi_twisted(deg_z: int, chi_oz: int, deg_z_e: int, rank: int) -> int:
    """Euler characteristic of a restriction twisted by a polarizing sheaf."""
    return rank * (deg_z + chi_oz) + deg_z_e


@dataclass(frozen=True)
class Polarization:
    """A locally free polarizing sheaf, recorded by rank and multidegree."""

    rank: int
    e: Multidegree

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise ValueError("polarization rank must be at least 1")

    @property
    def graph(self) -> DualGraph:
        return self.e.graph

    def compatible_with_degree(self, d: int) -> bool:
        """Total twisted Euler characteristic vanishes at this degree."""
        g = self.graph.genus
        return self.rank * (d + 1 - g) + self.e.total == 0

    def pullback(self, mod: Modification) -> "Polarization":
        return Polarization(self.rank, pullback_multidegree(mod, self.e))

    def to_json_dict(self) -> dict:
        return {"rank": self.rank, "e": self.e.to_json_dict()}

    @classmethod
    def from_json_dict(cls, graph: DualGraph, data: Mapping) -> "Polarization":
        if not isinstance(data, Mapping):
            raise ValueError("polarization data must be a JSON object")
        try:
            rank = _json_int(data["rank"], "polarization rank")
            return cls(rank, Multidegree.from_json_dict(graph, data["e"]))
        except KeyError as exc:
            raise ValueError(f"polarization data missing key {exc}") from exc


def canonical_polarization(graph: DualGraph, d: int) -> Polarization:
    """The degree-d polarization built from the dualizing sheaf.

    Rank 2g - 2 with multidegree (g - 1 - d) times the dualizing one; it
    is compatible with degree d for every graph of genus at least 2.
    """
    if graph.genus < 2:
        raise ValueError("canonical polarization requires genus at least 2")
    return Polarization(2 * graph.genus - 2, Multidegree(graph, _canonical_e(graph, d)))


def _canonical_e(graph: DualGraph, d: int) -> dict[str, int]:
    """Multidegree of the canonical polarizing sheaf: (g - 1 - d) omega."""
    k = graph.genus - 1 - d
    return {v: k * graph.omega_degree(v) for v in graph.vertex_ids}


# -- subcurve scans ---------------------------------------------------------


# Distinct graphs whose tables are kept.  The cache is keyed by graph, so a
# long run over fresh random modifications would otherwise grow it without
# end; a certify or random-family pass reuses fewer than 400 tables.
_TABLE_CACHE_SIZE = 512


@lru_cache(maxsize=_TABLE_CACHE_SIZE)
def _subcurve_table(graph: DualGraph) -> tuple[tuple[frozenset[str], int], ...]:
    """(members, chi) per connected proper subcurve.

    Every row is connected, so chi_Z is the sum over v in Z of
    1 - g(v) - loops(v), minus the non-loop edges inside Z.  Each such edge
    is counted at its smaller end, from a table of each vertex's larger
    neighbours with their edge multiplicities, built once per graph.
    """
    own = {v: 1 - g for v, g in graph.vertices}
    larger: dict[str, dict[str, int]] = {v: {} for v in graph.vertex_ids}
    for _, (a, b) in graph.edges:
        if a == b:
            own[a] -= 1
        else:
            larger[a][b] = larger[a].get(b, 0) + 1
    above = {v: tuple(nbrs.items()) for v, nbrs in larger.items()}
    rows = []
    for z in connected_subcurves(graph, proper=True):
        chi = 0
        for v in z:
            chi += own[v]
            for w, k in above[v]:
                if w in z:
                    chi -= k
        rows.append((z, chi))
    return tuple(rows)


@dataclass(frozen=True)
class SubcurveScan:
    """Margins of a per-subcurve inequality, exact, one entry per subcurve."""

    entries: tuple[tuple[frozenset[str], int | Fraction], ...]

    @property
    def holds(self) -> bool:
        return all(margin >= 0 for _, margin in self.entries)

    @property
    def equality_sites(self) -> tuple[frozenset[str], ...]:
        return tuple(members for members, margin in self.entries if margin == 0)

    @property
    def failures(self) -> tuple[tuple[frozenset[str], int | Fraction], ...]:
        return tuple((m, v) for m, v in self.entries if v < 0)

    def verdict(self, mode: str, base_vertex: str | None = None) -> bool:
        """semistable: all margins >= 0.  stable: all > 0.
        quasistable: equality allowed only away from the base vertex."""
        ok = _stability_test(mode, base_vertex)
        return all(ok(z, m) for z, m in self.entries)


def _stability_test(
    mode: str, base_vertex: str | None, graph: DualGraph | None = None,
) -> Callable[[frozenset[str], int | Fraction], bool]:
    """The per-row predicate of a stability mode; the mode is checked here.

    Given the graph, a quasistable base vertex must be one of its vertices.
    """
    if mode == "semistable":
        return lambda z, m: m >= 0
    if mode == "stable":
        return lambda z, m: m > 0
    if mode == "quasistable":
        if base_vertex is None:
            raise ValueError("quasistable verdict needs a base vertex")
        if graph is not None and base_vertex not in graph.vertex_ids:
            raise ValueError(f"base vertex {base_vertex!r} is not a vertex of the graph")
        return lambda z, m: m > 0 or (m == 0 and base_vertex not in z)
    raise ValueError(f"unknown stability mode {mode!r}")


def _margins(
    rows: Iterable[tuple[frozenset[str], int]], ends: Mapping[str, tuple[str, str]],
    values: Mapping[str, int], noninvertible: Collection[str], rank: int,
    e_values: Mapping[str, int],
) -> Iterator[tuple[frozenset[str], int]]:
    """The scan kernel: chi_twisted(d_Z, chi_Z, e_Z, rank), lazily, row by row.

    ``rows`` are (members, chi) pairs: a graph's ``_subcurve_table``, or
    the rows ``_lifted_rows`` derives from a target's table, and ``ends``
    are the edge ends of that graph.  Reports materialise every row; the
    enumerators stop at the first row that fails their predicate.
    ``values`` and ``e_values`` should be plain dicts: every row reads
    them through ``map``, where a read-only view costs about a fifth more
    per scan, so the scan entry points copy the views once per scan.
    """
    return (
        (z, chi_twisted(_restricted_degree(values, ends, noninvertible, z), chi,
                        sum(map(e_values.__getitem__, z)), rank))
        for z, chi in rows
    )


def _polarized_margins(
    pol: Polarization, graph: DualGraph, d: int, values: Mapping[str, int],
    noninvertible: Collection[str],
) -> Iterator[tuple[frozenset[str], int]]:
    """The kernel's rows under ``pol``, which must live on ``graph`` and suit degree d."""
    if pol.graph != graph:
        raise ValueError("polarization lives on a different graph")
    if not pol.compatible_with_degree(d):
        raise ValueError(f"polarization incompatible with degree {d}")
    return _margins(_subcurve_table(graph), graph.edge_ends, dict(values), noninvertible,
                    pol.rank, dict(pol.e.as_dict))


def _canonical_scan(
    graph: DualGraph, values: Mapping[str, int], noninvertible: Collection[str], d: int,
) -> SubcurveScan:
    """Degree-bound margins: canonical chi margins divided by the rank 2g - 2."""
    scale = 2 * graph.genus - 2
    margins = _margins(_subcurve_table(graph), graph.edge_ends, dict(values), noninvertible,
                       scale, _canonical_e(graph, d))
    return SubcurveScan(tuple((z, Fraction(m, scale)) for z, m in margins))


def sheaf_stability_report(model: SheafModel, pol: Polarization) -> SubcurveScan:
    """Twisted Euler characteristic of the model on every connected proper subcurve."""
    return SubcurveScan(tuple(_polarized_margins(
        pol, model.graph, model.degree, model.multidegree.as_dict, model.noninvertible,
    )))


def bundle_stability_report(deg: Multidegree, pol: Polarization) -> SubcurveScan:
    """Same scan for an honest line bundle given by its multidegree."""
    return SubcurveScan(tuple(_polarized_margins(pol, deg.graph, deg.total, deg.as_dict, ())))


def check_sheaf_stability(
    model: SheafModel, pol: Polarization, mode: str = "semistable",
    base_vertex: str | None = None,
) -> bool:
    """Verdict of sheaf_stability_report, stopping at the first failing subcurve."""
    ok = _stability_test(mode, base_vertex, model.graph)
    margins = _polarized_margins(
        pol, model.graph, model.degree, model.multidegree.as_dict, model.noninvertible,
    )
    return all(ok(z, m) for z, m in margins)


def check_bundle_stability(
    deg: Multidegree, pol: Polarization, mode: str = "semistable",
    base_vertex: str | None = None,
) -> bool:
    """Verdict of bundle_stability_report, stopping at the first failing subcurve."""
    ok = _stability_test(mode, base_vertex, deg.graph)
    margins = _polarized_margins(pol, deg.graph, deg.total, deg.as_dict, ())
    return all(ok(z, m) for z, m in margins)


def check_ssI2(model: SheafModel, d: int) -> SubcurveScan:
    """Degree lower bound equivalent to canonical-polarization semistability.

    On every connected proper subcurve Z the model's degree must be at
    least d deg_Z(omega) / (2g - 2) - k_Z / 2.  Margins are exact
    rationals; the scan's verdict in each mode agrees with
    check_sheaf_stability against canonical_polarization(graph, d).
    """
    graph = model.graph
    if graph.genus < 2:
        raise ValueError("degree bound requires genus at least 2")
    if d != model.degree:
        raise ValueError(f"sheaf model has degree {model.degree}, not {d}")
    return _canonical_scan(graph, model.multidegree.as_dict, model.noninvertible, d)


# -- balanced multidegrees --------------------------------------------------


@dataclass(frozen=True)
class BalancedScan:
    """Balanced check: degree on exceptional vertices plus the lower bound."""

    graph: DualGraph
    exceptional_violations: tuple[str, ...]
    scan: SubcurveScan

    def verdict(self, mode: str = "balanced") -> bool:
        ok = _balanced_test(mode, self.graph)
        return not self.exceptional_violations and all(ok(z, m) for z, m in self.scan.entries)


def _balanced_test(
    mode: str, graph: DualGraph,
) -> Callable[[frozenset[str], int | Fraction], bool]:
    """The per-row predicate of a balanced mode; the mode is checked here.

    Stably balanced allows equality only on subcurves whose complement
    is exceptional.
    """
    if mode == "balanced":
        return lambda z, m: m >= 0
    if mode == "stably_balanced":
        whole = frozenset(graph.vertex_ids)
        exc = frozenset(exceptional_vertices(graph))
        return lambda z, m: m > 0 or (m == 0 and whole - z <= exc)
    raise ValueError(f"unknown balanced mode {mode!r}")


def balanced_report(deg: Multidegree) -> BalancedScan:
    """Scan a multidegree for the balanced conditions.

    The graph must be quasistable of genus at least 2.  Every
    exceptional vertex must carry degree exactly 1, and every connected
    proper subcurve must clear the canonical degree lower bound.
    """
    graph = deg.graph
    if classify(graph) not in ("stable", "quasistable"):
        raise ValueError("balanced multidegrees live on quasistable graphs")
    if graph.genus < 2:
        raise ValueError("balanced check requires genus at least 2")
    violations = tuple(v for v in exceptional_vertices(graph) if deg[v] != 1)
    return BalancedScan(graph, violations, _canonical_scan(graph, deg.as_dict, (), deg.total))


def check_balanced(deg: Multidegree, mode: str = "balanced") -> bool:
    return balanced_report(deg).verdict(mode)


# -- enumeration ------------------------------------------------------------


def _edge_subsets(graph: DualGraph) -> list[tuple[str, ...]]:
    ids = [e for e, _ in graph.edges]
    subsets: list[tuple[str, ...]] = []
    for r in range(len(ids) + 1):
        subsets.extend(combinations(ids, r))
    subsets.sort()
    return subsets


def _bounded_vectors(lows: list[int], highs: list[int], total: int) -> Iterator[tuple[int, ...]]:
    """All integer vectors within the box summing to total, ascending lex."""
    n = len(lows)

    def rec(i: int, remaining: int) -> Iterator[tuple[int, ...]]:
        if i == n - 1:
            if lows[i] <= remaining <= highs[i]:
                yield (remaining,)
            return
        rest_lo = sum(lows[i + 1:])
        rest_hi = sum(highs[i + 1:])
        start = max(lows[i], remaining - rest_hi)
        stop = min(highs[i], remaining - rest_lo)
        for x in range(start, stop + 1):
            for tail in rec(i + 1, remaining - x):
                yield (x,) + tail

    if n == 0:
        if total == 0:
            yield ()
        return
    yield from rec(0, total)


def _degree_window(graph: DualGraph, d: int, v: str) -> tuple[Fraction, Fraction]:
    """Center and halfwidth of the balanced window at a single vertex."""
    scale = 2 * graph.genus - 2
    center = Fraction(d * graph.omega_degree(v), scale)
    if len(graph.vertex_ids) == 1:
        return center, Fraction(0)
    return center, Fraction(boundary_count(graph, (v,)), 2)


def enumerate_semistable_models(
    graph: DualGraph, d: int, mode: str = "semistable", base_vertex: str | None = None,
) -> list[SheafModel]:
    """All semistable sheaf models of total degree d, canonical polarization.

    The graph must be stable of genus at least 2.  Enumeration order is
    deterministic: non-invertible sets in lexicographic order of their
    sorted edge ids, then multidegrees in lexicographic order over the
    sorted vertices.  A candidate is rejected at its first failing
    subcurve, on integer chi margins.
    """
    ok = _stability_test(mode, base_vertex, graph)
    if classify(graph) != "stable":
        raise ValueError("enumeration requires a stable graph")
    if graph.genus < 2:
        raise ValueError("enumeration requires genus at least 2")
    vids = list(graph.vertex_ids)
    ends = graph.edge_ends
    table = _subcurve_table(graph)
    scale = 2 * graph.genus - 2
    e_values = _canonical_e(graph, d)
    window_lows = []
    for v in vids:
        center, half = _degree_window(graph, d, v)
        window_lows.append(ceil(center - half))
    out = []
    for subset in _edge_subsets(graph):
        budget = d - len(subset)
        loops_in = {v: 0 for v in vids}
        for e in subset:
            a, b = ends[e]
            if a == b:
                loops_in[a] += 1
        lows = [lo - loops_in[v] for v, lo in zip(vids, window_lows)]
        highs = [budget - (sum(lows) - lo) for lo in lows]
        for vec in _bounded_vectors(lows, highs, budget):
            values = dict(zip(vids, vec))
            if all(ok(z, m) for z, m in _margins(table, ends, values, subset, scale, e_values)):
                out.append(SheafModel(
                    graph, frozenset(subset), Multidegree(graph, tuple(values.items()))
                ))
    return out


def _lifted_rows(mod: Modification) -> list[tuple[frozenset[str], int]]:
    """The rows of a small modification's source that decide its balanced scans.

    Each row W of the target's table, with the chain vertex of every
    modified edge that has both ends in W, keeping W's chi; then one row
    {c}, chi 1, per chain vertex c.  The module docstring proves that
    these rows give the full table's verdict in both balanced modes.
    """
    ends = mod.target.edge_ends
    chains = [(ends[e], c) for e, (c,) in mod.chain_registry]
    rows = []
    for w, chi in _subcurve_table(mod.target):
        inside = [c for (a, b), c in chains if a in w and b in w]
        rows.append((w.union(inside) if inside else w, chi))
    rows.extend((frozenset((c,)), 1) for _, c in chains)
    return rows


def enumerate_balanced(
    graph: DualGraph, d: int, mode: str = "balanced",
) -> list[tuple[Modification, Multidegree]]:
    """All balanced line bundles on small modifications of a stable graph.

    Yields (modification, multidegree) pairs: every subset of edges is
    subdivided once, chain vertices carry degree 1, and the remaining
    degrees range over the balanced window.  Same deterministic order
    and the same early exit as the sheaf enumeration.

    Each source is scanned on the rows lifted from the target's table
    (``_lifted_rows``), at most |target rows| + |E| of them, and no
    source table is built.  A chain vertex c has degree 1 and omega_c = 0.
    A row holding c and only one end of c's edge has margin exactly
    rank 2g - 2 above the row without c, so it is strictly implied.  A
    row holding both ends but not c has the margin of the row with c,
    and the stably balanced tie rule reads the same on both, since c is
    exceptional.  These two moves take every connected proper subcurve
    to {c}, to a lifted target row, or to a set covering every target
    vertex, which has margin 0 and passes in both modes.
    """
    if mode not in ("balanced", "stably_balanced"):
        raise ValueError(f"unknown balanced mode {mode!r}")
    if classify(graph) != "stable":
        raise ValueError("enumeration requires a stable graph")
    if graph.genus < 2:
        raise ValueError("enumeration requires genus at least 2")
    scale = 2 * graph.genus - 2
    out = []
    for subset in _edge_subsets(graph):
        mod = small_modification(graph, subset)
        source = mod.source
        if classify(source) not in ("stable", "quasistable"):
            raise ValueError("balanced multidegrees live on quasistable graphs")
        ok = _balanced_test(mode, source)
        rows = _lifted_rows(mod)
        e_values = _canonical_e(source, d)
        chain_vs = mod.chain_vertices
        plain = graph.vertex_ids  # the source's other vertices, in the same order
        budget = d - len(chain_vs)
        lows, highs = [], []
        for v in plain:
            center, half = _degree_window(source, d, v)
            lows.append(ceil(center - half))
            highs.append(floor(center + half))
        cap = [budget - (sum(lows) - lo) for lo in lows]
        highs = [min(h, c) for h, c in zip(highs, cap)]
        # the exceptional vertices are exactly the chain vertices, so the
        # degree-1 rule holds by construction
        for vec in _bounded_vectors(lows, highs, budget):
            values = dict(zip(plain, vec)) | dict.fromkeys(chain_vs, 1)
            if all(ok(z, m) for z, m in _margins(rows, source.edge_ends, values, (), scale,
                                                   e_values)):
                out.append((mod, Multidegree(source, tuple(
                    (v, values[v]) for v in source.vertex_ids
                ))))
    return out
