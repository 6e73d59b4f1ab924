"""Dual graphs of nodal curves.

A nodal curve is recorded by its dual graph: one vertex per irreducible
component, labelled with the geometric genus of that component, and one
edge per node.  A node joining a component to itself is a loop, two
components may meet in several nodes (parallel edges), and the graph is
required to be connected.  All later constructions (multidegrees,
contractions, stability scans) work purely at this level.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, fields
from functools import wraps
from types import MappingProxyType
from typing import Iterable, Iterator


def _json_int(value, what: str) -> int:
    """An integer from outside input, JSON or Python; floats, bools, None and strings
    are refused, never truncated."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def _read_ints(pairs, what: str, repeated: str) -> dict[str, int]:
    """An id -> ``int`` assignment read from a mapping or from ``(id, value)`` pairs.

    Each id becomes a ``str``.  A value whose type is not ``int`` is refused
    by ``_json_int`` with the message ``what.format(id)``, formatted only
    then; two ids that read the same raise ``ValueError(repeated)``.
    """
    items = pairs.items() if isinstance(pairs, Mapping) else tuple(pairs)
    read = {str(k): v if type(v) is int else _json_int(v, what.format(str(k)))
            for k, v in items}
    if len(read) != len(items):
        raise ValueError(repeated)
    return read


def _reduce_to_fields(obj):
    """``__reduce__`` of a frozen dataclass with read-only derived views.

    The views cannot be pickled or deep-copied, so a copy is rebuilt from
    the fields through the constructor, which recomputes the views.
    """
    return type(obj), tuple(getattr(obj, f.name) for f in fields(obj))


def _per_graph(build):
    """Decorate ``build(graph)`` to run once per graph object, its value kept on the graph.

    The value is stored in the graph's instance ``__dict__`` under a private
    key when first asked for, so it lives exactly as long as the graph, and a
    graph that never asks holds nothing.  Equal graphs built separately each
    compute their own.  Equality, hashing, ``repr``, pickling and copying read
    the fields only.  Every caller shares the value, so it must be immutable.
    """
    key = f"_{build.__module__}.{build.__qualname__}"  # never an attribute name

    @wraps(build)
    def memo(graph):
        found = vars(graph)
        if key not in found:
            found[key] = build(graph)
        return found[key]

    return memo


class ExceptionalCycleError(ValueError):
    """Raised when the whole graph is a closed cycle of exceptional vertices.

    Such a graph (arithmetic genus 1) has no stable model, so chain
    extraction refuses it rather than returning a partial answer.
    """


def _check_graph(verts: tuple, edges: tuple, genus_map: dict, edge_ends: dict) -> None:
    """Check normalized vertex and edge lists and their dicts, all but connectivity.

    The vertex ids are distinct; the edges are sorted by id, so a repeated
    edge id shrinks their dict.
    """
    if not verts:
        raise ValueError("graph needs at least one vertex")
    for v, g in verts:
        if g < 0:
            raise ValueError(f"vertex {v!r} has negative genus")
    if len(edge_ends) != len(edges):
        raise ValueError("duplicate edge id")
    for e, (a, b) in edges:
        if a not in genus_map or b not in genus_map:
            raise ValueError(f"edge {e!r} has unknown endpoint")


@dataclass(frozen=True)
class DualGraph:
    """Connected multigraph with genus-labelled vertices.

    ``vertices`` holds ``(vertex_id, genus)`` pairs and ``edges`` holds
    ``(edge_id, (end, end))`` pairs; a loop repeats the same end twice.
    Input order is irrelevant: the constructor sorts vertices and edges
    by id and sorts the two ends of every edge, so equality and hashing
    are canonical.  A genus must be an ``int``; a bool, a float or a
    string is refused with a message that names its vertex.

    The derived views are computed once, on construction, and are
    read-only: ``vertex_ids`` (sorted), ``genus_map``, ``edge_ends``,
    ``genus`` (arithmetic genus: first Betti number plus the vertex
    genera) and ``incidence``, which maps each vertex to its incident
    ``(edge_id, other_end)`` pairs in edge id order.  A loop at ``v``
    appears twice in the pairs of ``v``, so their number is the valence.
    The hash, the dataclass's ``hash((vertices, edges))``, is computed
    once too.  The constructor checks the graph; only ``modify``, which
    derives a source from a checked target, skips the checks.
    """

    vertices: tuple[tuple[str, int], ...]
    edges: tuple[tuple[str, tuple[str, str]], ...] = ()

    def __post_init__(self) -> None:
        verts = tuple(sorted(_read_ints(self.vertices, "genus of vertex {!r}",
                                        "duplicate vertex id").items()))
        edges = []
        for eid, ends in self.edges:
            a, b = ends
            a, b = str(a), str(b)
            if b < a:
                a, b = b, a
            edges.append((str(eid), (a, b)))
        edges.sort()
        edges = tuple(edges)
        genus_map, edge_ends = dict(verts), dict(edges)
        _check_graph(verts, edges, genus_map, edge_ends)
        self._set_views(verts, edges, genus_map, edge_ends)
        if len(self._component_ids(set(self.vertex_ids))) > 1:
            raise ValueError("graph not connected")

    @classmethod
    def _derived(cls, verts: tuple, edges: tuple) -> "DualGraph":
        """A graph from lists that hold by construction what ``__post_init__`` checks.

        ``verts`` and ``edges`` must be sorted by id, with distinct string ids,
        genera >= 0, the two ends of every edge sorted and known, and the graph
        connected.  Nothing of this is checked.
        """
        graph = object.__new__(cls)
        graph._set_views(verts, edges, dict(verts), dict(edges))
        return graph

    def _set_views(self, verts: tuple, edges: tuple, genus_map: dict, edge_ends: dict) -> None:
        """Set the fields and every derived view from normalized, valid lists and
        their dicts, which the views keep.

        The edges are sorted by id, so they reach each vertex in increasing id
        order.
        """
        ids = tuple(genus_map)
        inc: dict[str, list[tuple[str, str]]] = {v: [] for v in ids}
        for e, (a, b) in edges:
            inc[a].append((e, b))
            inc[b].append((e, a))
        vars(self).update(vertices=verts, edges=edges, vertex_ids=ids, _hash=hash((verts, edges)),
                          genus_map=MappingProxyType(genus_map),
                          edge_ends=MappingProxyType(edge_ends),
                          genus=len(edges) - len(verts) + 1 + sum(genus_map.values()),
                          incidence=MappingProxyType({v: tuple(p) for v, p in inc.items()}))

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.vertices == other.vertices and self.edges == other.edges

    def __hash__(self) -> int:
        return self._hash

    __reduce__ = _reduce_to_fields

    def _component_ids(self, members: set[str]) -> list[set[str]]:
        """Connected components of the subgraph induced on ``members``."""
        remaining = set(members)
        comps = []
        while remaining:
            seed = remaining.pop()
            comp = {seed}
            frontier = [seed]
            while frontier:
                cur = frontier.pop()
                for _, other in self.incidence.get(cur, ()):
                    if other in remaining:
                        remaining.discard(other)
                        comp.add(other)
                        frontier.append(other)
            comps.append(comp)
        return comps

    # -- basic accessors -------------------------------------------------

    def genus_of(self, v: str) -> int:
        return self.genus_map[v]

    def ends(self, e: str) -> tuple[str, str]:
        return self.edge_ends[e]

    def is_loop(self, e: str) -> bool:
        a, b = self.edge_ends[e]
        return a == b

    def valence(self, v: str) -> int:
        """Number of edge ends at ``v``; a loop contributes 2."""
        return len(self.incidence[v])

    def loops_at(self, v: str) -> int:
        """Number of loops at ``v``; each appears twice in ``incidence[v]``."""
        return sum(other == v for _, other in self.incidence[v]) // 2

    def omega_degree(self, v: str) -> int:
        """Multidegree of the dualizing sheaf at ``v``: 2g(v) - 2 + valence."""
        return 2 * self.genus_of(v) - 2 + self.valence(v)

    # -- serialization ---------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "vertices": [{"id": v, "genus": g} for v, g in self.vertices],
            "edges": [{"id": e, "ends": list(ends)} for e, ends in self.edges],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "DualGraph":
        if not isinstance(data, dict):
            raise ValueError("curve data must be a JSON object")
        try:
            vertices = [(entry["id"], entry.get("genus", 0)) for entry in data["vertices"]]
            edges = [(entry["id"], entry["ends"]) for entry in data.get("edges", [])]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed curve data: {exc}") from exc
        for _, ends in edges:
            if not isinstance(ends, list) or len(ends) != 2:
                raise ValueError("edge 'ends' must be a JSON list of exactly two vertex ids")
        return cls(tuple(vertices), tuple(edges))


# -- subcurve measurements ----------------------------------------------


def _check_members(graph: DualGraph, members: Iterable[str]) -> frozenset[str]:
    """The subcurve as a set of vertex ids; a string is refused, not read as its characters."""
    if isinstance(members, str):
        raise ValueError(f"subcurve must be a collection of vertex ids, not the string {members!r}")
    sub = frozenset(members)
    if not sub:
        raise ValueError("subcurve must be nonempty")
    unknown = sub - set(graph.vertex_ids)
    if unknown:
        raise ValueError(f"unknown vertex ids in subcurve: {sorted(unknown)}")
    return sub


def boundary_count(graph: DualGraph, members: Iterable[str]) -> int:
    """Number of edges with exactly one endpoint in the subcurve.

    Loops never cross the boundary.  For a proper subcurve of a
    connected graph this is at least 1.
    """
    sub = _check_members(graph, members)
    return sum(1 for _, (a, b) in graph.edges if (a in sub) != (b in sub))


def internal_edge_count(graph: DualGraph, members: Iterable[str]) -> int:
    sub = _check_members(graph, members)
    return sum(1 for _, (a, b) in graph.edges if a in sub and b in sub)


def chi_structure(graph: DualGraph, members: Iterable[str]) -> int:
    """Euler characteristic of the structure sheaf of a subcurve.

    Computed as c - b1 - (sum of vertex genera), where c is the number
    of connected pieces of the induced subgraph and b1 its first Betti
    number.  For a connected subcurve this equals 1 - genus.
    """
    sub = _check_members(graph, members)
    comps = graph._component_ids(set(sub))
    internal = internal_edge_count(graph, sub)
    b1 = internal - len(sub) + len(comps)
    return len(comps) - b1 - sum(graph.genus_of(v) for v in sub)


def is_connected_subcurve(graph: DualGraph, members: Iterable[str]) -> bool:
    sub = _check_members(graph, members)
    return len(graph._component_ids(set(sub))) == 1


# -- exceptional vertices and classification -----------------------------


def is_exceptional(graph: DualGraph, v: str) -> bool:
    """A genus-0 loop-free vertex meeting the rest in at most two nodes.

    The vertex must be proper, so a one-vertex graph has no exceptional
    vertices.
    """
    if len(graph.vertices) == 1:
        return False
    return (
        graph.genus_of(v) == 0
        and graph.valence(v) <= 2
        and graph.loops_at(v) == 0
    )


@_per_graph
def exceptional_vertices(graph: DualGraph) -> tuple[str, ...]:
    return tuple(v for v in graph.vertex_ids if is_exceptional(graph, v))


@_per_graph
def classify(graph: DualGraph) -> str:
    """Strongest of stable / quasistable / semistable that applies.

    Stable means no exceptional vertices at all.  Semistable means every
    exceptional vertex meets the rest in exactly two nodes; quasistable
    additionally forbids two exceptional vertices from meeting.  Returns
    "none" when some exceptional vertex meets the rest in fewer than two
    nodes.
    """
    exc = exceptional_vertices(graph)
    if not exc:
        return "stable"
    exc_set = set(exc)
    for v in exc:
        # no loops at an exceptional vertex, so valence counts its nodes
        if graph.valence(v) <= 1:
            return "none"
    for _, (a, b) in graph.edges:
        if a in exc_set and b in exc_set:
            return "semistable"
    return "quasistable"


# -- connected subcurve enumeration ---------------------------------------

# Refuse graphs with more connected subcurves than this rather than hang:
# each subcurve is a row of every stability scan.
_MAX_SUBCURVES = 1 << 20


def _grow_subcurves(graph: DualGraph) -> dict[int, tuple[int, int, int]]:
    """(chi, k = |dZ|, parent) per connected subcurve Z, keyed by its bitmask
    over the sorted vertex ids, in increasing mask order.

    The sets are grown from single vertices, one neighbouring vertex at a
    time; every connected set of two or more vertices is reached this way,
    from the connected set left after removing one of its non-cut vertices,
    its parent (0 for a single vertex), a smaller mask.  A set grown by v
    gains 1 - g(v) - loops(v) in chi and the non-loop valence of v in k,
    each less the edges from v into the set (twice for k).  The cost is
    proportional to the number of connected subcurves times the valence,
    not to the 2^n vertex subsets, but that number is itself exponential
    for dense graphs: more than _MAX_SUBCURVES of them raise ValueError.
    """
    ids = graph.vertex_ids
    n = len(ids)
    index = {v: i for i, v in enumerate(ids)}
    own = [1 - g for _, g in graph.vertices]
    reach = [0] * n  # non-loop valence
    neighbor_mask = [0] * n
    parallel: list[tuple[int, ...]] = [()] * n  # a neighbour's bit once per edge after its first
    for _, (a, b) in graph.edges:
        i, j = index[a], index[b]
        if i == j:
            own[i] -= 1
            continue
        reach[i] += 1
        reach[j] += 1
        bit_i, bit_j = 1 << i, 1 << j
        if neighbor_mask[i] & bit_j:
            parallel[i] += (bit_j,)
            parallel[j] += (bit_i,)
        neighbor_mask[i] |= bit_j
        neighbor_mask[j] |= bit_i
    found, stack = {}, []  # stack: (set, its neighbours outside it), for each set to extend
    for i in range(n):
        found[1 << i] = (own[i], reach[i], 0)
        stack.append((1 << i, neighbor_mask[i]))
    while stack:
        mask, border = stack.pop()
        chi, k, _ = found[mask]
        rest = border
        while rest:
            bit = rest & -rest
            rest ^= bit
            grown = mask | bit
            if grown in found:
                continue
            if len(found) >= _MAX_SUBCURVES:
                raise ValueError(
                    f"graph has more than {_MAX_SUBCURVES} connected subcurves; "
                    "too many to enumerate"
                )
            i = bit.bit_length() - 1
            inner = (mask & neighbor_mask[i]).bit_count()  # the edges from i into mask
            if parallel[i]:
                inner += sum(1 for b in parallel[i] if mask & b)
            found[grown] = (chi + own[i] - inner, k + reach[i] - 2 * inner, mask)
            stack.append((grown, (border | neighbor_mask[i]) & ~grown))
    return {mask: found[mask] for mask in sorted(found)}


@_per_graph
def _subcurve_masks(graph: DualGraph) -> dict[int, tuple[int, int, int]]:
    """The graph's one enumeration of its connected subcurves, ``_grow_subcurves``."""
    return _grow_subcurves(graph)


def _members(ids: tuple[str, ...], mask: int) -> frozenset[str]:
    """The ids at the set bits of ``mask``."""
    members = []
    while mask:
        bit = mask & -mask
        members.append(ids[bit.bit_length() - 1])
        mask ^= bit
    return frozenset(members)


def connected_subcurves(graph: DualGraph, proper: bool = False) -> Iterator[frozenset[str]]:
    """Yield the vertex sets of connected subcurves.

    The order is by increasing bitmask over the sorted vertex ids, so it
    is deterministic.  With ``proper`` the whole curve is skipped.  The
    masks are enumerated once per graph object (``_grow_subcurves``): more
    than _MAX_SUBCURVES connected subcurves raise ValueError.
    """
    ids = graph.vertex_ids
    full = (1 << len(ids)) - 1
    sets = {0: frozenset()}  # each set is its parent's and one vertex more
    for mask, (_, _, parent) in _subcurve_masks(graph).items():
        sets[mask] = members = sets[parent] | {ids[(mask ^ parent).bit_length() - 1]}
        if not (proper and mask == full):
            yield members


# -- exceptional chains ----------------------------------------------------


@dataclass(frozen=True)
class ExceptionalChain:
    """Maximal run of exceptional vertices, with its attaching vertices.

    ``vertices`` lists the run in order; ``left`` and ``right`` are the
    non-exceptional vertices at the two ends.  They coincide when the
    chain closes up a loop.  Orientation is canonical: ``left <= right``,
    and when they are equal the lexicographically smaller reading of the
    run is kept.
    """

    left: str
    vertices: tuple[str, ...]
    right: str


def maximal_exceptional_chains(graph: DualGraph) -> tuple[ExceptionalChain, ...]:
    """Decompose the exceptional locus into maximal chains.

    Requires every exceptional vertex to meet the rest of the curve in
    exactly two nodes (classification not "none").  Raises
    ExceptionalCycleError when the entire graph is one exceptional
    cycle, since then there is nothing to attach the chains to.
    """
    if classify(graph) == "none":
        raise ValueError("graph has an exceptional vertex meeting fewer than two nodes")
    exc = set(exceptional_vertices(graph))
    if not exc:
        return ()
    if len(exc) == len(graph.vertices):
        raise ExceptionalCycleError("entire graph is a cycle of exceptional vertices")

    chains = set()
    for left in graph.vertex_ids:
        if left in exc:
            continue
        for e, v in graph.incidence[left]:
            # each exceptional vertex has two edges and no loop, so the run entered from a
            # non-exceptional vertex is a path and the walk leaves it at its other end
            run = []
            while v in exc:
                run.append(v)
                (f, x), (g, y) = graph.incidence[v]
                e, v = (g, y) if f == e else (f, x)
            # a run is walked from both ends: keep the canonical reading
            if run and (left, run) <= (v, run[::-1]):
                chains.add(ExceptionalChain(left, tuple(run), v))
    return tuple(sorted(chains, key=lambda c: (c.left, c.right, c.vertices)))
