"""Semistable modifications: chain insertion and contraction.

A modification replaces selected edges of a target graph by chains of
genus-0 vertices.  The source graph maps back to the target by
contracting those chains.  Both directions are supported: ``modify``
builds the source from scratch with generated ids, and ``stable_model``
recognizes the maximal exceptional chains of an existing graph and
contracts them, producing the stable target.

``modify`` derives its source and its ``Modification`` from the checked
target, checking only the lengths and the generated ids: everything else
the validating constructors would check holds by construction (its
docstring says why).  Every other way to build one validates: direct
construction, ``from_json_dict`` with a source and chains,
``stable_model``, and pickling and copying, which go through the
constructor.

Every chain is stored oriented.  Side 0 of the chain over an edge is
the lexicographically smaller endpoint of that edge; for a loop the two
sides attach at the same vertex and the lexicographically smaller
reading of the chain is kept.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from functools import cached_property, lru_cache
from types import MappingProxyType

from .graphs import (
    DualGraph,
    _json_int,
    _reduce_to_fields,
    classify,
    maximal_exceptional_chains,
)
from .sheaves import Multidegree


@dataclass(frozen=True)
class Modification:
    """A target graph together with chains replacing some of its edges.

    ``chain_registry`` maps each modified edge to the ordered tuple of
    chain vertex ids in the source, side 0 first.  The source must be
    exactly the subdivision of the target described by the registry;
    this is checked on construction, except in ``modify``, which builds
    that subdivision itself.

    The registry, a mapping or ``(edge, chain)`` pairs, is normalized to
    a tuple of ``(str, tuple of str)`` pairs sorted by edge id; an edge
    listed twice is refused.  ``chains`` (edge to chain), ``lengths``
    (edge to chain length), ``chain_vertices`` and ``modified_edges`` are
    computed once, on construction, and are read-only.
    """

    target: DualGraph
    source: DualGraph
    chain_registry: tuple[tuple[str, tuple[str, ...]], ...]

    def __post_init__(self) -> None:
        reg = self.chain_registry
        reg = tuple(sorted((str(e), tuple(str(c) for c in chain))
                           for e, chain in (reg.items() if isinstance(reg, Mapping) else reg)))
        for (e, _), (f, _) in zip(reg, reg[1:]):
            if e == f:
                raise ValueError(f"chain registry lists edge {e!r} twice")
        self._set_views(reg)
        self._validate()

    @classmethod
    def _derived(cls, target: DualGraph, source: DualGraph, registry: tuple) -> "Modification":
        """A modification whose source is by construction the subdivision of
        ``target`` that the canonical ``registry`` describes; nothing is checked."""
        mod = object.__new__(cls)
        vars(mod).update(target=target, source=source)
        mod._set_views(registry)
        return mod

    def _set_views(self, reg: tuple) -> None:
        """Set ``chain_registry`` and its derived views from a canonical registry."""
        chains = dict(reg)
        vars(self).update(chain_registry=reg, chains=MappingProxyType(chains),
                          lengths=MappingProxyType({e: len(c) for e, c in reg}),
                          chain_vertices=frozenset(v for _, c in reg for v in c),
                          modified_edges=frozenset(chains))

    __reduce__ = _reduce_to_fields

    # -- derived views ----------------------------------------------------

    @cached_property
    def vertex_map(self) -> Mapping[str, object]:
        """Source vertex to target vertex, or to (edge, position) on a chain; read-only."""
        image: dict[str, object] = {}
        for v in self.source.vertex_ids:
            if v not in self.chain_vertices:
                image[v] = v
        for e, chain in self.chain_registry:
            for pos, c in enumerate(chain, start=1):
                image[c] = (e, pos)
        return MappingProxyType(image)

    # -- validation --------------------------------------------------------

    def _validate(self) -> None:
        target, source = self.target, self.source
        for e, chain in self.chain_registry:
            if e not in target.edge_ends:
                raise ValueError(f"modified edge {e!r} not in target")
            if not chain:
                raise ValueError(f"empty chain registered for edge {e!r}")
        chain_vs = [v for _, chain in self.chain_registry for v in chain]
        if len(set(chain_vs)) != len(chain_vs):
            raise ValueError("chain registries share a vertex")

        kept = [(v, g) for v, g in source.vertices if v not in self.chain_vertices]
        if tuple(kept) != target.vertices:
            raise ValueError("source vertices do not match target plus chains")
        for v in self.chain_vertices:
            if v not in source.genus_map or source.genus_of(v) != 0:
                raise ValueError(f"chain vertex {v!r} missing or not of genus 0")

        # each chain must form a path in the source replacing its edge
        chain_edge_ids: set[str] = set()
        for e, chain in self.chain_registry:
            a, b = target.ends(e)  # a <= b, so a is side 0
            path = (a,) + chain + (b,)
            for i, v in enumerate(chain, start=1):
                inc = source.incidence[v]
                if len(inc) != 2:
                    raise ValueError(f"chain vertex {v!r} does not have valence 2")
                (_, x), (_, y) = inc
                if not (x == path[i - 1] and y == path[i + 1]
                        or x == path[i + 1] and y == path[i - 1]):
                    raise ValueError(f"chain over {e!r} is not a path from {a!r} to {b!r}")
                chain_edge_ids.update(eid for eid, _ in inc)
        untouched = tuple((eid, ends) for eid, ends in source.edges if eid not in chain_edge_ids)
        expected = tuple((eid, ends) for eid, ends in target.edges if eid not in self.chains)
        if untouched != expected:
            raise ValueError("source edges away from the chains do not match the target")

    # -- serialization -----------------------------------------------------

    def to_json_dict(self, include_source: bool = False) -> dict:
        data: dict = {
            "target": self.target.to_json_dict(),
            "modified_edges": [
                {"edge": e, "length": len(chain)} for e, chain in self.chain_registry
            ],
        }
        if include_source:
            data["source"] = self.source.to_json_dict()
            data["chains"] = {e: list(chain) for e, chain in self.chain_registry}
        return data

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "Modification":
        if not isinstance(data, Mapping):
            raise ValueError("modification data must be a JSON object")
        try:
            target = DualGraph.from_json_dict(data["target"])
            lengths = {}
            for m in data["modified_edges"]:
                e = str(m["edge"])
                if e in lengths:
                    raise ValueError(f"modified_edges lists edge {e!r} twice")
                lengths[e] = _json_int(m["length"], "chain length")
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed modification data: {exc}") from exc
        if "source" in data and "chains" in data:
            if not isinstance(data["chains"], Mapping):
                raise ValueError("modification 'chains' must be a JSON object")
            if not all(isinstance(chain, list) for chain in data["chains"].values()):
                raise ValueError("each modification chain must be a JSON list of vertex ids")
            source = DualGraph.from_json_dict(data["source"])
            registry = tuple(
                (str(e), tuple(str(c) for c in chain)) for e, chain in data["chains"].items()
            )
            mod = cls(target, source, registry)
            if mod.lengths != lengths:
                raise ValueError("modification chain data disagrees with modified_edges")
            return mod
        return modify(target, lengths)


# Refuse a modification that inserts more chain vertices than this rather than
# exhaust memory: at 65,536 chain vertices ``nodalcalc modify`` takes 0.5-0.75 s
# and peaks at 127-140 MiB (2 shared vCPUs, Python 3.11.7).
_MAX_CHAIN_VERTICES = 1 << 16


def modify(graph: DualGraph, lengths: Mapping[str, int]) -> Modification:
    """Replace each listed edge by a chain of new genus-0 vertices.

    ``lengths`` maps edge ids to chain lengths, each an ``int`` of at least
    1; anything but a mapping, such as the string of one edge id, is
    refused, and so are lengths that sum to more than ``_MAX_CHAIN_VERTICES``,
    before any id is built.  The chain over edge e is named e#1, e#2, ...
    starting from side 0, and its segments are named e#0-1, e#1-2, and so on.

    The source is built straight from the checked target, without the
    validating constructors: it is connected with distinct ids and genera
    >= 0 because the target is, its chain vertices have genus 0, its
    generated ids are checked against the target's here (they cannot
    collide with each other: the text after the last ``#`` holds no ``#``),
    and k new vertices come with k new edges, so the genus is the target's.
    """
    if not isinstance(lengths, Mapping):
        raise ValueError(f"chain lengths must map edge ids to lengths, not {lengths!r}")
    clean: dict[str, int] = {}
    for e, k in lengths.items():
        e = str(e)
        if e not in graph.edge_ends:
            raise ValueError(f"unknown edge id {e!r}")
        if type(k) is not int:  # the message is formatted only for a refused length
            _json_int(k, f"chain length for edge {e!r}")
        if k <= 0:
            raise ValueError(f"chain length for edge {e!r} must be positive")
        clean[e] = k
    inserted = sum(clean.values())
    if inserted > _MAX_CHAIN_VERTICES:
        raise ValueError(f"modification inserts {inserted} chain vertices, more than "
                         f"{_MAX_CHAIN_VERTICES}; too many to build")

    taken_vertices, taken_edges = graph.genus_map, graph.edge_ends
    vertices = list(graph.vertices)
    edges = [item for item in graph.edges if item[0] not in clean]
    registry = []
    for e in sorted(clean):
        chain = tuple(f"{e}#{i}" for i in range(1, clean[e] + 1))
        for c in chain:
            if c in taken_vertices:
                raise ValueError(f"generated chain vertex id {c!r} collides with the graph")
        vertices += [(c, 0) for c in chain]
        a, b = taken_edges[e]
        path = (a,) + chain + (b,)
        for i in range(len(path) - 1):
            eid = f"{e}#{i}-{i + 1}"
            if eid in taken_edges:
                raise ValueError(f"generated chain edge id {eid!r} collides with the graph")
            x, y = path[i], path[i + 1]
            edges.append((eid, (x, y) if x <= y else (y, x)))
        registry.append((e, chain))
    vertices.sort()
    edges.sort()
    source = DualGraph._derived(tuple(vertices), tuple(edges))
    return Modification._derived(graph, source, tuple(registry))


# The small modifications of the 512 most recently requested (graph, edge set)
# pairs, the one place they are shared.  Equal graphs built separately, such as
# K4 certified at several degrees or small random graphs that repeat, share
# modifications across calls through this cache: without it, a benchmark pass
# of certify_bijection on K4 and 3-5 vertex graphs took 5-10% longer in 6 of 6
# paired runs (2 vCPUs, Python 3.11).  certify_bijection asks for a stratum's
# modification again in its round trip while it walks that stratum, so the
# newest entry answers.
_SMALL_CACHE_SIZE = 512


def small_modification(graph: DualGraph, edges: Iterable[str]) -> Modification:
    """Chain length 1 on every listed edge.

    Modifications are immutable, so the same object answers every request
    for a graph and edge set (equal graphs included) among the 512 most
    recent ones, and an equal object answers always.  A string is refused,
    not read as its characters.
    """
    if isinstance(edges, str):
        raise ValueError(f"edge set must be a collection of edge ids, not the string {edges!r}")
    return _small_modification(graph, frozenset(edges))


@lru_cache(maxsize=_SMALL_CACHE_SIZE)
def _small_modification(graph: DualGraph, edges: frozenset[str]) -> Modification:
    return modify(graph, dict.fromkeys(sorted(edges, key=str), 1))


def is_small(mod: Modification) -> bool:
    return all(k == 1 for k in mod.lengths.values())


def contracted_edge_id(chain: Iterable[str], taken: Iterable[str] = ()) -> str:
    """Canonical id for the edge a contracted chain leaves behind.

    Joins the chain vertex ids; appends tildes if the result would
    collide with an id already taken.
    """
    base = "+".join(chain)
    used = set(taken)
    while base in used:
        base += "~"
    return base


def _series_reduction(
    graph: DualGraph,
) -> tuple[DualGraph, tuple[tuple[str, tuple[str, ...]], ...]]:
    """The graph with each maximal exceptional chain contracted to one edge.

    Returns the contracted graph and the registry of its contracted edges,
    each with its chain read from the smaller end of the edge; the graph
    itself and an empty registry when there is no chain.  Non-exceptional
    vertices and the edges between them keep their ids, and each chain
    becomes an edge named by ``contracted_edge_id``.  Nothing is checked
    beyond what ``maximal_exceptional_chains`` and ``DualGraph`` check.
    """
    chains = maximal_exceptional_chains(graph)
    if not chains:
        return graph, ()
    chain_vertices = {v for c in chains for v in c.vertices}
    vertices = tuple((v, g) for v, g in graph.vertices if v not in chain_vertices)
    kept = []
    for eid, (a, b) in graph.edges:
        if a not in chain_vertices and b not in chain_vertices:
            kept.append((eid, (a, b)))
    taken = {eid for eid, _ in kept}
    new_edges = []
    registry = []
    for c in chains:
        eid = contracted_edge_id(c.vertices, taken)
        taken.add(eid)
        new_edges.append((eid, (c.left, c.right)))
        registry.append((eid, c.vertices))
    return DualGraph(vertices, tuple(kept + new_edges)), tuple(registry)


def stable_model(graph: DualGraph) -> Modification:
    """Contract every maximal exceptional chain, yielding the stable target.

    The graph must be semistable (every exceptional vertex meets the
    rest in exactly two nodes) and of genus at least 2.  The returned
    modification has the given graph as its source; non-exceptional
    vertices and untouched edges keep their ids, while each contracted
    chain becomes a fresh edge named after its vertices.
    """
    if classify(graph) == "none":
        raise ValueError("input graph is not semistable")
    if graph.genus < 2:
        raise ValueError("stable model requires genus at least 2")
    target, registry = _series_reduction(graph)
    if not registry:
        return Modification(graph, graph, ())
    if classify(target) != "stable":
        raise AssertionError("contraction left an exceptional vertex")
    return Modification(target, graph, registry)


def pullback_multidegree(mod: Modification, deg: Multidegree) -> Multidegree:
    """Pull a multidegree back along the contraction.

    Values are copied to the surviving vertices and chain vertices get
    0, matching the degree of a pulled-back line bundle.  They are listed
    in source vertex order with ``int`` degrees and keep ``deg``'s total,
    so the result is built through ``Multidegree._derived``.
    """
    if deg.graph != mod.target:
        raise ValueError("multidegree does not live on the modification target")
    chain, values = mod.chain_vertices, deg.as_dict
    return Multidegree._derived(mod.source, {
        v: 0 if v in chain else values[v] for v in mod.source.vertex_ids
    }, deg.total)
