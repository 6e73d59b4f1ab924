"""The bijection between balanced bundles and semistable sheaf models.

Pushing a balanced line bundle on a small modification down to the
stable target gives a semistable sheaf model; conversely a sheaf model
lifts to the modification that subdivides exactly its non-invertible
edges once, with degree 1 on the inserted vertices.  These two maps are
mutually inverse, and ``certify_bijection`` proves it degree by degree
by chasing every balanced bundle through both maps and matching the
images against the semistable models, one stratum at a time.

    Lemma (strata).  Let Y_N be the small modification of X along an
    edge set N and vec a multidegree on the vertices of X.  Then phi
    maps (Y_N, vec plus 1 on each chain vertex) to the model (N, vec).

    Proof.  Each chain has one vertex, of degree 1, so its only
    contiguous run sums to 1: the edge becomes non-invertible and no
    endpoint is corrected, and vertices away from the chains keep their
    degrees (the rules of ``pushforward_model``).

So the bundles of stratum N, on Y_N, and the models with non-invertible
set N are drawn from one box of vectors, and matching never crosses
strata: ``stability._strata`` walks each edge subset once, hands every
vector of its box to the bundle side and to the model side, and the
stratum is matched on degree vectors and dropped.  Memory is bounded by
the largest stratum; a ``SheafModel`` is built only for a mismatch.

The lift (Y_N, vec plus 1 on each chain vertex) is written once, as a
gather over vec followed by a 1 that each small modification keeps
(``Modification._lift``); the walk's bundle side and ``phi_inverse``
both read it, so a modification shared through ``small_modification``
computes it once.  Every accepted bundle is still chased through
``phi``, ``pushforward_model`` and ``phi_inverse``, and the chase tests
graphs and modifications for identity before it compares them.  A
stratum's modification may come from the cache built on an equal graph;
then its target is compared with the graph once, and the stratum's
bundles are checked against that target and lifted on it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import DualGraph, _json_int, classify, exceptional_vertices
from .modifications import Modification, small_modification
from .pushforward import pushforward_model
from .sheaves import Multidegree, SheafModel
from .stability import _model, _sheaf_mode, _stability_test, _strata


def phi(mod: Modification, deg: Multidegree) -> tuple[DualGraph, SheafModel]:
    """Push a bundle with degree 1 on every exceptional vertex down.

    The source must be quasistable, which makes the modification small (a
    chain of two or more vertices has two exceptional vertices that meet),
    and the multidegree must be 1 on every exceptional vertex of the source.
    The resulting model keeps the degrees away from the chains and marks
    every modified edge non-invertible.  The graphs are tested for
    identity before they are compared.
    """
    source = mod.source
    if deg.graph is not source and deg.graph != source:
        raise ValueError("multidegree does not live on the modification source")
    if classify(source) not in ("stable", "quasistable"):
        raise ValueError("source of the modification is not quasistable")
    values = deg.as_dict
    off = [v for v in exceptional_vertices(source) if values[v] != 1]
    if off:
        raise ValueError(f"degree must be 1 on exceptional vertices, violated at {off}")
    model = pushforward_model(mod, deg)
    if model.noninvertible != mod.modified_edges:
        raise AssertionError("pushforward missed a modified edge")
    return mod.target, model


def phi_inverse(graph: DualGraph, model: SheafModel) -> tuple[Modification, Multidegree]:
    """Lift a sheaf model to a bundle on the matching small modification.

    Subdivides each non-invertible edge once and puts degree 1 on the
    new vertices; the total degree of the bundle equals the degree of
    the model.  The modification is ``small_modification`` of the
    non-invertible set: the object that answered any of the 512 most
    recent requests for this graph (or an equal one) and edge set, and an
    equal object always.  The bundle's degrees are read by the
    modification's one lift rule, the one the enumeration's walk reads,
    from the model's degrees followed by a 1; they are listed in source
    vertex order with ``int`` degrees, so the bundle is built through
    ``Multidegree._derived``.
    """
    if model.graph is not graph and model.graph != graph:
        raise ValueError("sheaf model does not live on the given graph")
    mod = small_modification(graph, model.noninvertible)
    lifted = mod._lift((*model.multidegree.as_dict.values(), 1))
    degrees = dict(zip(mod.source.vertex_ids, lifted))
    deg = Multidegree._derived(mod.source, degrees, sum(degrees.values()))
    if deg.total != model.degree:
        raise AssertionError("lifted bundle changed the total degree")
    return mod, deg


@dataclass(frozen=True)
class CorrespondenceReport:
    """Outcome of certifying the bijection at one degree."""

    degree: int
    mode: str
    balanced_count: int
    semistable_count: int
    bijection: bool
    mismatches: tuple[str, ...]

    def to_json_dict(self) -> dict:
        return {
            "degree": self.degree,
            "mode": self.mode,
            "balanced_count": self.balanced_count,
            "semistable_count": self.semistable_count,
            "bijection": self.bijection,
            "mismatches": list(self.mismatches),
        }


def _model_order(model: SheafModel) -> tuple:
    """Sort key fixing the order of mismatches, whatever the hash seed."""
    return sorted(model.noninvertible), model.multidegree.values


def certify_bijection(graph: DualGraph, d: int, mode: str = "balanced") -> CorrespondenceReport:
    """Walk both sides at degree d, stratum by stratum, and verify the two-sided inverse.

    Checks that the pushforward of every balanced bundle is a distinct
    semistable model, that every semistable model is hit, and that lifting
    the image returns the original pair exactly.  Graph and round-trip
    mismatches are listed in enumeration order, then "not injective" at
    most once, then the models not reached and the images not semistable,
    each sorted by non-invertible set and degrees.  The degree d must be
    an ``int``.
    """
    _json_int(d, "degree")
    ok = _stability_test(_sheaf_mode(mode), None, graph)
    mismatches: list[str] = []
    missing: list[SheafModel] = []
    extra: list[SheafModel] = []
    injective = True
    balanced_count = semistable_count = 0
    for subset, mod, models, bundles in _strata(graph, d, ok):
        balanced_count += len(bundles)
        semistable_count += len(models)
        images: dict[tuple[int, ...], SheafModel] = {}
        edges = mod.modified_edges
        # the modification cache may answer with an equal graph's modification:
        # the graphs are compared once per stratum, and then mostly by identity
        home = mod.target if mod.target == graph else graph
        for deg in bundles:
            target, image = phi(mod, deg)
            if target is not home and target != home:
                mismatches.append(f"pushforward changed the graph for {deg.to_json_dict()}")
            back_mod, back_deg = phi_inverse(home, image)
            if back_mod is not mod and back_mod != mod or back_deg != deg:
                mismatches.append(f"round trip failed for model {image.to_json_dict()}")
            # matching on degree vectors is sound only inside the stratum
            if image.graph is not home and image.graph != home or image.noninvertible != edges:
                raise AssertionError("pushforward left its stratum")
            vec = tuple(image.multidegree.as_dict.values())
            if vec in images:
                injective = False
            images[vec] = image
        reached = set(models)
        missing.extend(_model(graph, subset, vec) for vec in models if vec not in images)
        extra.extend(image for vec, image in images.items() if vec not in reached)

    if not injective:
        mismatches.append("pushforward is not injective on balanced bundles")
    for model in sorted(missing, key=_model_order):
        mismatches.append(f"semistable model not reached: {model.to_json_dict()}")
    for model in sorted(extra, key=_model_order):
        mismatches.append(f"pushforward image not semistable: {model.to_json_dict()}")

    return CorrespondenceReport(
        degree=d,
        mode=mode,
        balanced_count=balanced_count,
        semistable_count=semistable_count,
        bijection=not mismatches and balanced_count == semistable_count,
        mismatches=tuple(mismatches),
    )
