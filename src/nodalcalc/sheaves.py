"""Multidegrees, twisters, and torsion-free sheaf models.

A line bundle on a nodal curve is tracked here only through its
multidegree, the integer vector of degrees on the components.  Twisting
by a component divisor moves degree around the graph without changing
the total; this is the graph Laplacian acting on the coefficient
vector.  A torsion-free rank-1 sheaf that fails to be locally free at
some nodes is modelled by the set of those nodes together with a
multidegree on the partial normalization.

The module also computes cohomology of a line bundle on a chain of
rational curves, by a union-find over the values of the sections at the
components' marked points: every matching condition is "value = value"
or "value = 0", so h0 counts the free interior coefficients and the
classes not joined to 0.  Its cost is linear in the chain's length and
does not depend on the degrees.  That computation is deliberately
independent of the interval-sum shortcuts used elsewhere, so the two can
be checked against each other.

Value assignments, a mapping or ``(vertex, value)`` pairs in any order,
are read by the one reader ``graphs._read_ints`` that also reads a
graph's genera: each vertex id becomes a ``str``, a repeated vertex is
refused, and a degree or coefficient whose type is not ``int`` (a bool,
a float, a string) is refused, never truncated.  Derived values such as
``as_dict``, ``total`` and ``degree_changes`` are computed once, on
construction, and are read-only.

Every public way to build a ``Multidegree`` or a ``SheafModel`` checks:
the constructors, ``from_json_dict``, ``replace``, pickling and copying.
A private ``_derived`` classmethod on each skips the checks; it is used
only where the library builds a value that holds them by construction: a
non-invertible set of the graph's own edge ids, and for a multidegree
the one ``str`` -> ``int`` dict and the total that the caller computed.
The dict lists the vertices in ``graph.vertex_ids`` order, each value an
``int`` computed from ``int`` inputs, and the total is the sum of its
values; the multidegree keeps the dict behind its read-only view and
builds its ``values`` tuple from it, so nothing is summed or converted
twice.  Those sites are ``twist``, ``pushforward_model``,
``phi_inverse``, the bundle side's lift and ``_model`` in ``stability``,
``pullback_multidegree``, ``canonical_polarization`` and
``omega_multidegree``; the public entries that feed them a degree d
check that it is an ``int``.  ``bundle_stability_report`` and
``check_bundle_stability`` build ``SheafModel._derived`` from a bundle's
graph, the empty set and the bundle, a sheaf model with no non-invertible
node.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, NamedTuple

from .graphs import DualGraph, _check_members, _json_int, _read_ints, _reduce_to_fields


def _vertex_values(graph: DualGraph, values) -> dict[str, int]:
    """A value assignment covering exactly the vertices, in ``graph.vertex_ids`` order."""
    given = _read_ints(values, "degree at {!r}", "repeated vertex id in value assignment")
    known = graph.genus_map
    if not given.keys() <= known.keys():
        extra = sorted(given.keys() - known.keys())
        raise ValueError(f"values given for unknown vertices: {extra}")
    if len(given) != len(known):
        raise ValueError(f"values missing for vertices: {sorted(known.keys() - given.keys())}")
    return {v: given[v] for v in graph.vertex_ids}


@dataclass(frozen=True)
class Multidegree:
    """Integer degree assignment on the vertices of a dual graph.

    ``values`` may be any mapping or iterable of ``(vertex, degree)``
    pairs covering every vertex once, each degree an ``int``; it is
    stored as a tuple of ``(str, int)`` tuples in ``graph.vertex_ids``
    order.  ``as_dict``, a read-only mapping, and ``total``, the sum of
    the degrees, are computed once, on construction.

    The constructor checks the values; only the library's own canonical
    constructions (the module docstring lists them) go through
    ``_derived``, which does not.
    """

    graph: DualGraph
    values: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        degrees = _vertex_values(self.graph, self.values)
        self._set_views(self.graph, degrees, sum(degrees.values()))

    @classmethod
    def _derived(cls, graph: DualGraph, degrees: dict, total: int) -> "Multidegree":
        """A multidegree from a ``str`` -> ``int`` dict listed in ``graph.vertex_ids``
        order and its sum ``total``, both as the caller computed them.  The dict is
        kept as is.  Nothing is checked."""
        deg = object.__new__(cls)
        deg._set_views(graph, degrees, total)
        return deg

    def _set_views(self, graph: DualGraph, degrees: dict, total: int) -> None:
        """Set the fields and the derived views from canonical degrees and their sum."""
        vars(self).update(graph=graph, values=tuple(degrees.items()),
                          as_dict=MappingProxyType(degrees), total=total)

    __reduce__ = _reduce_to_fields

    def __getitem__(self, v: str) -> int:
        return self.as_dict[v]

    def degree_on(self, members: Iterable[str]) -> int:
        sub = _check_members(self.graph, members)
        return sum(self.as_dict[v] for v in sub)

    def replace(self, **updates: int) -> "Multidegree":
        return Multidegree(self.graph, self.as_dict | {str(k): v for k, v in updates.items()})

    def to_json_dict(self) -> dict[str, int]:
        return dict(self.values)

    @classmethod
    def from_json_dict(cls, graph: DualGraph, data: Mapping) -> "Multidegree":
        if not isinstance(data, Mapping):
            raise ValueError("multidegree data must be a JSON object")
        return cls(graph, data)  # the constructor refuses a non-int degree


def omega_multidegree(graph: DualGraph) -> Multidegree:
    """Multidegree of the dualizing sheaf; its total is 2g - 2."""
    omega = {v: graph.omega_degree(v) for v in graph.vertex_ids}
    return Multidegree._derived(graph, omega, sum(omega.values()))


@dataclass(frozen=True, init=False)
class Twister:
    """Integer coefficient vector for twisting by component divisors.

    Coefficients may be given for any subset of the vertices, once each
    and each an ``int``; missing ones default to 0.  Every construction
    checks them.

    ``as_dict`` and ``degree_changes`` are read-only mappings computed
    once, on construction.  ``degree_changes`` is the per-vertex degree
    change, the negated graph Laplacian of c: each non-loop edge v-w
    moves c(w) - c(v) onto v and the opposite onto w, and loops
    contribute nothing.  It is summed from ``graph.incidence``, over the
    vertices with a nonzero coefficient only: a vertex u moves c(u) from
    itself to the far end of each of its edge ends, so the two ends of a
    loop at u cancel.  The changes always sum to 0.
    """

    graph: DualGraph
    coefficients: tuple[tuple[str, int], ...]

    def __init__(self, graph: DualGraph, coefficients) -> None:
        given = _read_ints(coefficients, "twister coefficient at {!r}",
                           "repeated vertex id in value assignment")
        known = graph.genus_map
        if not given.keys() <= known.keys():
            extra = sorted(given.keys() - known.keys())
            raise ValueError(f"twister names unknown vertices: {extra}")
        c = dict.fromkeys(graph.vertex_ids, 0)
        delta = c.copy()
        c.update(given)
        incidence = graph.incidence
        for u, cu in given.items():
            if cu:
                ends = incidence[u]
                delta[u] -= cu * len(ends)
                for _, w in ends:
                    delta[w] += cu
        vars(self).update(graph=graph, coefficients=tuple(c.items()),
                          as_dict=MappingProxyType(c), degree_changes=MappingProxyType(delta))

    __reduce__ = _reduce_to_fields


def twist(deg: Multidegree, twister: Twister) -> Multidegree:
    """Apply a twister to a multidegree.  Total degree is preserved.

    The result keeps ``deg``'s canonical vertex order and adds ``int``
    changes that sum to 0, so it is built through ``Multidegree._derived``
    with ``deg``'s total.
    """
    graph = deg.graph
    if graph is not twister.graph and graph != twister.graph:
        raise ValueError("multidegree and twister live on different graphs")
    delta = twister.degree_changes
    return Multidegree._derived(graph, {v: d + delta[v] for v, d in deg.values}, deg.total)


@dataclass(frozen=True)
class SheafModel:
    """Torsion-free rank-1 sheaf model on a dual graph.

    ``noninvertible`` lists the edges (nodes) where the sheaf fails to
    be locally free; ``multidegree`` lives on the partial normalization
    at those nodes, recorded on the same vertex set.  The total degree
    adds one unit per non-invertible node.

    The constructor checks that the edges are the graph's, each listed
    once (a string is refused, not read as its characters), and that the
    multidegree lives on the graph; ``_derived``, for the library's own
    canonical constructions, does not.
    """

    graph: DualGraph
    noninvertible: frozenset[str]
    multidegree: Multidegree

    def __post_init__(self) -> None:
        if isinstance(self.noninvertible, str):
            raise ValueError(
                f"non-invertible set must be a collection of edge ids, not the string "
                f"{self.noninvertible!r}"
            )
        ids = [str(e) for e in self.noninvertible]
        edges = frozenset(ids)
        if len(edges) < len(ids):
            twice = next(e for i, e in enumerate(ids) if e in ids[:i])
            raise ValueError(f"sheaf 'noninvertible' lists edge {twice!r} twice")
        unknown = [e for e in edges if e not in self.graph.edge_ends]
        if unknown:
            raise ValueError(f"non-invertible set names unknown edges: {sorted(unknown)}")
        if self.multidegree.graph != self.graph:
            raise ValueError("sheaf multidegree lives on a different graph")
        vars(self).update(noninvertible=edges)

    @classmethod
    def _derived(cls, graph: DualGraph, noninvertible: frozenset,
                 multidegree: Multidegree) -> "SheafModel":
        """A model from a frozenset of the graph's own edge ids and a multidegree
        on the graph, as the library builds them.  Nothing is checked."""
        model = object.__new__(cls)
        vars(model).update(graph=graph, noninvertible=noninvertible, multidegree=multidegree)
        return model

    __reduce__ = _reduce_to_fields

    @property
    def degree(self) -> int:
        return self.multidegree.total + len(self.noninvertible)

    def to_json_dict(self) -> dict:
        return {
            "noninvertible": sorted(self.noninvertible),
            "multidegree": self.multidegree.to_json_dict(),
        }

    @classmethod
    def from_json_dict(cls, graph: DualGraph, data: Mapping) -> "SheafModel":
        if not isinstance(data, Mapping):
            raise ValueError("sheaf data must be a JSON object")
        try:
            if not isinstance(data["noninvertible"], list):
                raise ValueError("sheaf 'noninvertible' must be a JSON list of edge ids")
            edges = data["noninvertible"]
            deg = Multidegree.from_json_dict(graph, data["multidegree"])
        except KeyError as exc:
            raise ValueError(f"sheaf data missing key {exc}") from exc
        return cls(graph, edges, deg)


def sheaf_degree(model: SheafModel, members: Iterable[str]) -> int:
    """Degree of the sheaf restricted to a subcurve.

    Sums the multidegree over the subcurve and adds one for every
    non-invertible node internal to it.  Loops at a member vertex are
    internal.  It is the independent reference the tests read the scan
    kernel of ``stability`` against, which counts the nodes itself.
    """
    sub = _check_members(model.graph, members)
    ends = model.graph.edge_ends
    degree = sum(map(model.multidegree.as_dict.__getitem__, sub))
    for e in model.noninvertible:
        degree += ends[e][0] in sub and ends[e][1] in sub
    return degree


# -- cohomology on chains of rational curves --------------------------------


class ChainCohomology(NamedTuple):
    h0: int
    h1: int


def chain_h(degrees: Iterable[int], puncture_ends: bool = False) -> ChainCohomology:
    """Cohomology of a line bundle on a chain of rational curves.

    The chain has one component per ``int`` entry of ``degrees``, consecutive
    components glued at one node each, with all gluing identifications
    normalized to 1.  Sections on a degree-d component are the d+1
    coefficients of a binary form (none when d < 0); matching conditions
    at the nodes cut out the global sections, whose dimension is h0.  h1
    follows from the Euler characteristic.

    With ``puncture_ends`` the bundle is twisted down by one smooth
    point on each of the two extreme components (two distinct points on
    the single component when the chain has length one).

    The rule.  Each component has a left and a right marked point.  A
    component of degree d >= 1 has two marked-point values, its first and
    last coefficients, and d - 1 free interior coefficients; one of
    degree 0 has one value at both points; one of negative degree has
    both points fixed to 0.  Each node joins the right value of component
    i to the left value of component i + 1, and ``puncture_ends`` joins
    the free end of the first and of the last component to 0 (both points
    of a single component).  Then h0 = free coefficients + the classes of
    the union-find over marked-point values that are not joined to 0.

    Proof.  No condition reads an interior coefficient, and every
    condition on the marked-point values is "value = value" or "value =
    0".  So a solution is constant on each class of the equivalence these
    generate and 0 on the class of 0, and any one number per other class
    is a solution: one free coordinate per class not joined to 0.

    The cost is linear in the length and does not depend on the degrees.
    Nothing here reads an interval sum, so ``interval_sum_range`` can be
    checked against it.
    """
    degs = [_json_int(d, "chain degree") for d in degrees]
    if not degs:
        raise ValueError("chain must have at least one component")
    parent = [0]  # marked-point values; value 0 is the zero class
    ends = []  # each component's (left, right) value
    for d in degs:
        if d < 0:
            ends.append((0, 0))
            continue
        left = len(parent)
        parent += range(left, left + min(d, 1) + 1)
        ends.append((left, len(parent) - 1))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    joins = [(right, left) for (_, right), (left, _) in zip(ends, ends[1:])]
    if puncture_ends:
        joins += [(ends[0][0], 0), (ends[-1][1], 0)]
    # the free coefficients, and each value but 0 in a class of its own
    h0 = sum(d - 1 for d in degs if d >= 1) + len(parent) - 1
    for a, b in joins:
        a, b = find(a), find(b)
        if a != b:  # two classes become one
            parent[max(a, b)] = min(a, b)
            h0 -= 1
    chi = sum(degs) + 1 - (2 if puncture_ends else 0)
    return ChainCohomology(h0, h0 - chi)


def interval_sum_range(degrees: Iterable[int]) -> tuple[int, int]:
    """Minimum and maximum over sums of nonempty contiguous runs of ``int`` entries."""
    degs = [_json_int(d, "chain degree") for d in degrees]
    if not degs:
        raise ValueError("need at least one entry")
    lo = hi = degs[0]
    for i in range(len(degs)):
        acc = 0
        for j in range(i, len(degs)):
            acc += degs[j]
            if acc < lo:
                lo = acc
            if acc > hi:
                hi = acc
    return lo, hi
