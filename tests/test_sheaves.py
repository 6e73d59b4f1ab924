"""Multidegrees, twisters, sheaf models, and chain cohomology."""

import copy
import pickle
import random
import sys
from fractions import Fraction
from itertools import product

import pytest

from conftest import is_canonical
from nodalcalc import (
    DualGraph,
    Multidegree,
    SheafModel,
    Twister,
    boundary_count,
    canonical_polarization,
    chain_h,
    elliptic_bridge,
    enumerate_balanced,
    enumerate_semistable_models,
    interval_sum_range,
    modify,
    omega_multidegree,
    phi_inverse,
    pullback_multidegree,
    pushforward_model,
    sheaf_degree,
    theta_graph,
    twist,
)
from nodalcalc.verify import (
    chain_twister_options,
    random_admissible_multidegree,
    random_graph,
    random_modification,
    random_multidegree,
    random_stable_graph,
)


def loop_vertex():
    return DualGraph((("v", 1),), (("l", ("v", "v")),))


class TestMultidegree:
    def test_requires_every_vertex(self):
        with pytest.raises(ValueError):
            Multidegree(theta_graph(), (("v", 1),))

    def test_rejects_unknown_vertex(self):
        with pytest.raises(ValueError):
            Multidegree(theta_graph(), (("v", 1), ("w", 0), ("x", 2)))

    def test_basic_accessors(self):
        deg = Multidegree(theta_graph(), (("w", 2), ("v", 0)))
        assert deg["v"] == 0
        assert deg.total == 2
        assert deg.degree_on({"w"}) == 2
        assert deg.as_dict == {"v": 0, "w": 2}

    def test_replace(self):
        deg = Multidegree(theta_graph(), (("v", 0), ("w", 2)))
        assert deg.replace(v=5).as_dict == {"v": 5, "w": 2}

    def test_json_round_trip(self):
        deg = Multidegree(theta_graph(), (("v", -1), ("w", 3)))
        assert Multidegree.from_json_dict(theta_graph(), deg.to_json_dict()) == deg

    def test_omega_matches_vertexwise_formula(self):
        for g in (theta_graph(), elliptic_bridge(), loop_vertex()):
            omega = omega_multidegree(g)
            for v in g.vertex_ids:
                assert omega[v] == g.omega_degree(v) == 2 * g.genus_of(v) - 2 + g.valence(v)


K4 = DualGraph(
    tuple((v, 0) for v in "abcd"),
    tuple((a + b, (a, b)) for a, b in ("ab", "ac", "ad", "bc", "bd", "cd")),
)


def canonical_form_graphs():
    rng = random.Random(606)
    return [theta_graph(), elliptic_bridge(), K4] + [random_graph(rng, 6, 3) for _ in range(20)]


def full_normalization(pairs):
    """The sorted ``(str, int)`` tuples an assignment is stored as."""
    return tuple(sorted((str(k), int(v)) for k, v in pairs))


def spellings(rng, canonical):
    """``canonical`` pairs spelled every way a caller may: in order, shuffled, as a
    dict, as lists, and as a generator."""
    shuffled = list(canonical)
    rng.shuffle(shuffled)
    return [canonical, tuple(shuffled), dict(shuffled), [list(pair) for pair in shuffled],
            tuple(list(p) for p in canonical), (pair for pair in shuffled)]


class TestCanonicalForm:
    """Every spelling of an assignment, read by the one reader, against the sorted
    normalization and the canonical predicate of ``conftest``."""

    def test_every_spelling_builds_the_same_multidegree(self):
        rng = random.Random(7)
        for graph in canonical_form_graphs():
            canonical = tuple((v, rng.randint(-3, 3)) for v in graph.vertex_ids)
            built = [Multidegree(graph, spelling) for spelling in spellings(rng, canonical)]
            assert built[0].values == canonical
            for deg in built:
                assert deg == built[0] and hash(deg) == hash(built[0])
                assert is_canonical(graph, deg.values)
                assert deg.values == full_normalization(canonical)
                assert deg.as_dict == dict(canonical)

    def test_every_spelling_builds_the_same_twister(self):
        rng = random.Random(8)
        for graph in canonical_form_graphs():
            full = tuple((v, rng.randint(-2, 2)) for v in graph.vertex_ids)
            given = tuple(pair for pair in full if pair[1] or rng.random() < 0.5)
            built = [Twister(graph, spelling) for spelling in spellings(rng, given)]
            for tw in built:
                assert tw == built[0] and hash(tw) == hash(built[0])
                assert is_canonical(graph, tw.coefficients)
                assert tw.coefficients == full_normalization(full)
                assert tw.as_dict == dict(full)
                assert tw.degree_changes == all_edges_laplacian(graph, full)

    def test_non_int_degrees_are_refused(self):
        """A degree whose type is not int is refused, never truncated."""
        for graph in canonical_form_graphs():
            ids = graph.vertex_ids
            bad = ids[len(ids) // 2]
            for fill in (True, False, 1.0, 2.7, -1.5, "2"):
                pairs = tuple((v, fill if v == bad else i) for i, v in enumerate(ids))
                message = f"degree at {bad!r} must be an integer, got {fill!r}"
                for spelling in (pairs, tuple(reversed(pairs)), dict(pairs), list(pairs)):
                    with pytest.raises(ValueError) as exc:
                        Multidegree(graph, spelling)
                    assert str(exc.value) == message
                with pytest.raises(ValueError) as exc:
                    Multidegree(graph, tuple((v, 0) for v in ids)).replace(**{bad: fill})
                assert str(exc.value) == message
        with pytest.raises(ValueError) as exc:
            Multidegree(theta_graph(), {"v": 2.7, "w": True})
        assert str(exc.value) == "degree at 'v' must be an integer, got 2.7"

    def test_bad_assignments_keep_their_messages(self):
        for graph in canonical_form_graphs():
            ids = graph.vertex_ids
            canonical = tuple((v, 0) for v in ids)
            cases = [
                (canonical + ((ids[-1], 0),), "repeated vertex id in value assignment"),
                (canonical + (("zz", 1),), "values given for unknown vertices: ['zz']"),
                (canonical[:-1], f"values missing for vertices: {[ids[-1]]}"),
            ]
            for values, message in cases:
                for spelling in (values, tuple(reversed(values)), list(values)):
                    with pytest.raises(ValueError) as exc:
                        Multidegree(graph, spelling)
                    assert str(exc.value) == message

    def test_repeated_vertices_are_refused(self):
        """By both readers; 1 and "1" both read as the vertex "1".  A repeat in a
        twister once kept its last coefficient silently."""
        graph = DualGraph((("1", 0), ("v", 0)), (("a", ("1", "v")), ("b", ("1", "v"))))
        for values in ({1: 0, "1": 0, "v": 2}, ((1, 0), ("1", 0), ("v", 2)),
                       (("1", 0), ("v", 1), ("v", 2)), [["v", 1], ["1", 0], ["v", 1]]):
            for build in (Multidegree, Twister):
                with pytest.raises(ValueError) as exc:
                    build(graph, values)
                assert str(exc.value) == "repeated vertex id in value assignment"
        assert Multidegree(graph, {1: 0, "v": 2}) == Multidegree(graph, {"1": 0, "v": 2})


# every caller of Multidegree._derived and SheafModel._derived in the package
DERIVED_SITES = {"twist", "_model_of", "phi_inverse", "lift", "_model",
                 "pullback_multidegree", "canonical_polarization", "omega_multidegree"}


def derived_views(obj):
    """Every field and view of a multidegree or sheaf model, with their types."""
    if isinstance(obj, SheafModel):
        return (obj.graph, obj.noninvertible, type(obj.noninvertible),
                sorted(map(type, obj.noninvertible), key=str), obj.degree, hash(obj),
                obj.to_json_dict()) + derived_views(obj.multidegree)
    return (obj.graph, obj.values, type(obj.values), [tuple(map(type, p)) for p in obj.values],
            dict(obj.as_dict), type(obj.as_dict), obj.total, type(obj.total), hash(obj))


def relabelled(rng, graph):
    """The graph with ids that sort around the chain ids ``modify`` generates
    ("e#" < "e#1" < "e#1x" < "e#2" < "e1#0" < "e1#1" < "f" < "f#1")."""
    vids = dict(zip(graph.vertex_ids, rng.sample(["a", "e#", "e#1x", "e1#0", "f", "z"],
                                                 len(graph.vertex_ids))))
    eids = dict(zip(graph.edge_ends, rng.sample(["e", "e!", "e1", "e10", "f", "g", "x", "z!"],
                                                len(graph.edges))))
    return DualGraph(tuple((vids[v], g) for v, g in graph.vertices),
                     tuple((eids[e], (vids[a], vids[b])) for e, (a, b) in graph.edges))


class TestDerivedConstruction:
    """The library's canonical constructions skip the checks through ``_derived``.

    Oracle: the validating constructor on the field arguments, at every call
    site, compared field by field, in every view, by hash, and after pickle,
    ``copy`` and ``deepcopy``.  A multidegree's degree dict must list the
    constructor's values in vertex order, and its total must be their sum.
    The graphs' ids interleave with the chain ids, so a value listed out of
    vertex order shows.
    """

    @staticmethod
    def record(monkeypatch):
        """(calling function, class, arguments, result) of every ``_derived`` call."""
        calls = []
        for cls in (Multidegree, SheafModel):
            def recording(cls, *args, _real=cls._derived.__func__):
                built = _real(cls, *args)
                calls.append((sys._getframe(1).f_code.co_name, cls, args, built))
                return built
            monkeypatch.setattr(cls, "_derived", classmethod(recording))
        return calls

    def test_matches_the_validating_constructors(self, monkeypatch):
        calls = self.record(monkeypatch)
        rng = random.Random(1502)
        checked = dict.fromkeys(DERIVED_SITES, 0)
        for _ in range(400):
            graph = relabelled(rng, random_stable_graph(rng, 3, 3))
            d = graph.genus - 1 + rng.randint(-1, 1)
            omega_multidegree(graph)
            canonical_polarization(graph, d)
            models = enumerate_semistable_models(graph, d)
            for model in rng.sample(models, min(3, len(models))):
                phi_inverse(graph, model)
            enumerate_balanced(graph, d)
            # a twister orbit of an admissible bundle, and a pullback
            mod = random_modification(rng, graph, 2)
            deg = random_admissible_multidegree(rng, mod, 2)
            base = pushforward_model(mod, deg)
            for _ in range(3):
                coefficients = {}
                for _, chain in mod.chain_registry:
                    seq = tuple(deg[c] for c in chain)
                    coeffs, _ = rng.choice(chain_twister_options(seq))
                    coefficients.update(zip(chain, coeffs))
                twisted = twist(deg, Twister(mod.source, coefficients))
                assert pushforward_model(mod, twisted) == base
            pullback_multidegree(mod, random_multidegree(rng, graph, 3))

            for site, cls, args, built in calls:
                if cls is Multidegree:
                    graph, degrees, total = args
                    want = cls(graph, degrees)
                    assert list(degrees.items()) == list(want.values)
                    assert type(total) is int and total == sum(degrees.values())
                else:
                    want = cls(*args)
                assert built == want and derived_views(built) == derived_views(want)
                for clone in (pickle.loads(pickle.dumps(built)), copy.copy(built),
                              copy.deepcopy(built)):
                    assert clone == want and derived_views(clone) == derived_views(want)
                checked[site] += 1
            calls.clear()
        assert set(checked) == DERIVED_SITES  # no other caller
        assert min(checked.values()) >= 400, checked


class TestGraphIdentityFastPaths:
    """``twist`` and ``pushforward_model`` test the graphs for identity before they
    compare them, and ``Twister`` builds its fields in its own ``__init__``.
    Oracle: equal graphs built separately, different graphs, and the twist
    computed vertex by vertex."""

    def test_equal_graphs_built_separately_are_accepted(self):
        rng = random.Random(1503)
        for _ in range(200):
            graph = random_stable_graph(rng, 3, 3)
            mod = random_modification(rng, graph, 2)
            deg = random_admissible_multidegree(rng, mod, 2)
            twin = modify(DualGraph(graph.vertices, graph.edges), dict(mod.lengths))
            assert twin.source == mod.source and twin.source is not mod.source
            assert hash(twin.source) == hash(mod.source)
            coefficients = {}
            for _, chain in mod.chain_registry:
                coeffs, _ = rng.choice(chain_twister_options(tuple(deg[c] for c in chain)))
                coefficients.update(zip(chain, coeffs))
            tw = Twister(twin.source, coefficients)
            twisted = twist(deg, tw)
            assert twisted.graph is deg.graph
            assert twisted.values == tuple((v, deg[v] + tw.degree_changes[v])
                                           for v in mod.source.vertex_ids)
            assert twisted.total == sum(twisted.as_dict.values()) == deg.total
            model = pushforward_model(twin, twisted)
            assert model.graph is twin.target
            assert model == pushforward_model(mod, twisted) == pushforward_model(mod, deg)

    def test_different_graphs_are_refused(self):
        theta = theta_graph()
        two_edges = DualGraph(theta.vertices, theta.edges[:2])  # same vertices
        deg = Multidegree(theta, {"v": 0, "w": 2})
        for other in (elliptic_bridge(), two_edges):
            assert other != theta
            with pytest.raises(ValueError) as exc:
                twist(deg, Twister(other, {"v": 1}))
            assert str(exc.value) == "multidegree and twister live on different graphs"
        mod = modify(theta, {"e1": 1})
        for other in (modify(theta, {"e2": 1}), modify(two_edges, {"e1": 1})):
            bundle = Multidegree(other.source, dict.fromkeys(other.source.vertex_ids, 0))
            with pytest.raises(ValueError) as exc:
                pushforward_model(mod, bundle)
            assert str(exc.value) == "multidegree does not live on the modification source"
        assert theta != "theta" and theta.__eq__("theta") is NotImplemented

    def test_twister_round_trips(self):
        for graph in (theta_graph(), loop_vertex(), modify(theta_graph(), {"e2": 2}).source):
            tw = Twister(graph, {graph.vertex_ids[0]: 2})
            assert Twister(graph=graph, coefficients=tw.coefficients) == tw
            for clone in (pickle.loads(pickle.dumps(tw)), copy.copy(tw), copy.deepcopy(tw)):
                assert clone == tw and hash(clone) == hash(tw) and repr(clone) == repr(tw)
                assert clone.coefficients == tw.coefficients
                assert clone.as_dict == tw.as_dict
                assert clone.degree_changes == tw.degree_changes
                with pytest.raises(TypeError):
                    clone.degree_changes[graph.vertex_ids[0]] = 0


class TestReadOnlyViews:
    def test_derived_views_refuse_writes(self):
        graph = theta_graph()
        deg = Multidegree(graph, (("v", 0), ("w", 2)))
        tw = Twister(graph, (("v", 1),))
        mod = modify(graph, {"e1": 1})
        views = [deg.as_dict, tw.as_dict, tw.degree_changes, graph.genus_map,
                 graph.edge_ends, graph.incidence, mod.chains, mod.lengths, mod.vertex_map]
        for view in views:
            with pytest.raises(TypeError):
                view["v"] = 99
        assert deg.as_dict == {"v": 0, "w": 2} and deg["v"] == 0
        assert deg.degree_on(["v"]) == 0
        assert tw.degree_changes == {"v": -3, "w": 3}
        assert twist(Multidegree(graph, (("v", 1), ("w", 1))), tw).total == 2
        assert mod.lengths == {"e1": 1}

    def test_pickle_and_deepcopy_rebuild_the_views(self):
        graph = theta_graph()
        deg = Multidegree(graph, (("v", 0), ("w", 2)))
        objects = [graph, deg, Twister(graph, (("v", 1),)), modify(graph, {"e1": 2}),
                   SheafModel(graph, frozenset({"e1"}), deg)]
        for obj in objects:
            for clone in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj)):
                assert clone == obj and hash(clone) == hash(obj)
        clone = pickle.loads(pickle.dumps(deg))
        assert clone.as_dict == {"v": 0, "w": 2}
        with pytest.raises(TypeError):
            clone.as_dict["v"] = 1


class TestTwister:
    def test_theta_example(self):
        deg = Multidegree(theta_graph(), (("v", 0), ("w", 2)))
        tw = Twister(theta_graph(), (("v", 1), ("w", 0)))
        assert twist(deg, tw).as_dict == {"v": -3, "w": 5}

    def test_constant_coefficients_do_nothing(self):
        deg = Multidegree(theta_graph(), (("v", 4), ("w", -1)))
        tw = Twister(theta_graph(), (("v", 5), ("w", 5)))
        assert twist(deg, tw) == deg

    def test_chain_vertex_example(self):
        y = modify(theta_graph(), {"e1": 1}).source
        tw = Twister(y, (("e1#1", 1),))
        assert tw.degree_changes == {"v": 1, "w": 1, "e1#1": -2}

    def test_partial_coefficients_default_to_zero(self):
        tw = Twister(theta_graph(), (("v", 3),))
        assert tw.as_dict == {"v": 3, "w": 0}

    def test_loops_contribute_nothing(self):
        tw = Twister(loop_vertex(), (("v", 7),))
        assert tw.degree_changes == {"v": 0}

    def test_changes_total_zero_and_total_preserved(self):
        for g in (theta_graph(), elliptic_bridge(), loop_vertex()):
            coeffs = tuple((v, i - 1) for i, v in enumerate(g.vertex_ids))
            tw = Twister(g, coeffs)
            assert sum(tw.degree_changes.values()) == 0
            deg = omega_multidegree(g)
            assert twist(deg, tw).total == deg.total

    def test_additivity(self):
        g = theta_graph()
        deg = Multidegree(g, (("v", 1), ("w", 1)))
        a = Twister(g, (("v", 2), ("w", -1)))
        b = Twister(g, (("v", -1), ("w", 3)))
        summed = Twister(g, (("v", 1), ("w", 2)))
        assert twist(twist(deg, a), b) == twist(deg, summed)

    def test_graph_mismatch(self):
        deg = Multidegree(theta_graph(), (("v", 0), ("w", 0)))
        with pytest.raises(ValueError):
            twist(deg, Twister(elliptic_bridge(), (("v", 1),)))

    def test_non_int_coefficients_are_refused(self):
        for fill in (True, False, 1.0, 1.9, -1.5, "2"):
            message = f"twister coefficient at 'v' must be an integer, got {fill!r}"
            for spelling in ({"v": fill}, (("w", 1), ("v", fill)), [["v", fill]]):
                with pytest.raises(ValueError) as exc:
                    Twister(theta_graph(), spelling)
                assert str(exc.value) == message
        with pytest.raises(ValueError, match="twister names unknown vertices: \\['x'\\]"):
            Twister(theta_graph(), {"x": 1})


def all_edges_laplacian(graph, coefficients):
    """Degree changes by a walk over every edge: the reference for ``Twister``."""
    c = dict.fromkeys(graph.vertex_ids, 0) | dict(coefficients)
    delta = dict.fromkeys(graph.vertex_ids, 0)
    for _, (a, b) in graph.edges:
        if a == b:
            continue
        delta[a] += c[b] - c[a]
        delta[b] += c[a] - c[b]
    return delta


class TestSparseLaplacian:
    """``Twister.degree_changes`` visits only the vertices with a nonzero
    coefficient; oracle: the walk over every edge."""

    def test_matches_the_all_edges_walk(self):
        rng = random.Random(1501)
        loops = parallel = 0
        for _ in range(500):
            graph = random_graph(rng, 6, 5)
            ids = graph.vertex_ids
            chosen = rng.sample(ids, rng.randint(0, len(ids)))
            cases = [
                (),  # no coefficient at all
                tuple((v, 0) for v in ids),  # explicit zeros everywhere
                tuple((v, rng.choice((0, rng.randint(-4, 4)))) for v in chosen),  # partial
                tuple((v, rng.randint(-4, 4)) for v in ids),
            ]
            for coefficients in cases:
                tw = Twister(graph, coefficients)
                want = all_edges_laplacian(graph, coefficients)
                assert tw.degree_changes == want
                assert list(tw.degree_changes) == list(ids)
                assert sum(tw.degree_changes.values()) == 0
                if not any(c for _, c in coefficients):
                    assert set(tw.degree_changes.values()) == {0}
            loops += any(a == b for a, b in graph.edge_ends.values())
            parallel += len(set(graph.edge_ends.values())) < len(graph.edges)
        assert loops > 100 and parallel > 50

    def test_loops_and_parallel_edges(self):
        g = DualGraph((("u", 0), ("v", 1), ("w", 0)),
                      (("a", ("u", "v")), ("b", ("v", "u")), ("l", ("v", "v")),
                       ("m", ("v", "v")), ("c", ("v", "w"))))
        for coefficients in ({"v": 2}, {"u": -1, "w": 0}, {"u": 3, "v": 3, "w": 3}):
            assert Twister(g, coefficients).degree_changes == all_edges_laplacian(g, coefficients)
        assert Twister(g, {"v": 2}).degree_changes == {"u": 4, "v": -6, "w": 2}


class TestSheafModel:
    def test_unknown_edge_rejected(self):
        deg = Multidegree(theta_graph(), (("v", 0), ("w", 1)))
        with pytest.raises(ValueError):
            SheafModel(theta_graph(), frozenset({"zzz"}), deg)

    def test_multidegree_must_match_graph(self):
        deg = Multidegree(elliptic_bridge(), (("v", 0), ("w", 1)))
        with pytest.raises(ValueError):
            SheafModel(theta_graph(), frozenset(), deg)

    def test_degree_counts_nodes(self):
        deg = Multidegree(theta_graph(), (("v", 0), ("w", 1)))
        model = SheafModel(theta_graph(), frozenset({"e1"}), deg)
        assert model.degree == 2

    def test_subcurve_degree_no_internal_edge(self):
        deg = Multidegree(theta_graph(), (("v", 0), ("w", 1)))
        model = SheafModel(theta_graph(), frozenset({"e1"}), deg)
        assert sheaf_degree(model, {"v"}) == 0

    def test_subcurve_degree_whole(self):
        deg = Multidegree(theta_graph(), (("v", 0), ("w", 1)))
        model = SheafModel(theta_graph(), frozenset({"e1"}), deg)
        assert sheaf_degree(model, {"v", "w"}) == 2

    def test_loop_edge_is_internal(self):
        deg = Multidegree(loop_vertex(), (("v", 3),))
        model = SheafModel(loop_vertex(), frozenset({"l"}), deg)
        assert sheaf_degree(model, {"v"}) == 4

    def test_json_round_trip(self):
        deg = Multidegree(theta_graph(), (("v", 0), ("w", 1)))
        model = SheafModel(theta_graph(), frozenset({"e1", "e3"}), deg)
        assert SheafModel.from_json_dict(theta_graph(), model.to_json_dict()) == model

    def test_repeated_edge_is_refused(self):
        # the constructor's rule, with the message JSON input has always had
        deg = Multidegree(theta_graph(), (("v", 0), ("w", 0)))
        for edges in (["e1", "e1"], ("e2", "e1", "e2")):
            twice = edges[-1]
            with pytest.raises(ValueError) as exc:
                SheafModel(theta_graph(), edges, deg)
            assert str(exc.value) == f"sheaf 'noninvertible' lists edge {twice!r} twice"
            with pytest.raises(ValueError) as exc:
                SheafModel.from_json_dict(theta_graph(), {"noninvertible": list(edges),
                                                          "multidegree": {"v": 0, "w": 0}})
            assert str(exc.value) == f"sheaf 'noninvertible' lists edge {twice!r} twice"

    def test_string_edge_set_is_refused(self):
        g = DualGraph((("v", 1), ("w", 1)),
                      (("a", ("v", "w")), ("b", ("v", "w")), ("c", ("v", "w"))))
        deg = Multidegree(g, (("v", 0), ("w", 1)))
        for edges in ("ab", "a"):
            with pytest.raises(ValueError) as exc:
                SheafModel(g, edges, deg)
            assert str(exc.value) == (
                f"non-invertible set must be a collection of edge ids, not the string {edges!r}")
        assert SheafModel(g, ["a", "b"], deg).noninvertible == {"a", "b"}

    def test_string_subcurve_is_refused(self):
        # "vw" would be read as its characters, the subcurve {v, w}
        model = SheafModel(theta_graph(), frozenset({"e1"}),
                           Multidegree(theta_graph(), {"v": 1, "w": 0}))
        for measure in (model.multidegree.degree_on, lambda z: sheaf_degree(model, z),
                        lambda z: boundary_count(theta_graph(), z)):
            for members in ("vw", "v"):
                with pytest.raises(ValueError) as exc:
                    measure(members)
                assert str(exc.value) == (
                    f"subcurve must be a collection of vertex ids, not the string {members!r}")
        assert model.multidegree.degree_on(["v", "w"]) == 1
        assert sheaf_degree(model, ("v", "w")) == 2

    def test_pickle_and_copies_validate(self):
        deg = Multidegree(theta_graph(), (("v", 0), ("w", 1)))
        model = SheafModel(theta_graph(), frozenset({"e1"}), deg)
        for clone in (pickle.loads(pickle.dumps(model)), copy.copy(model), copy.deepcopy(model)):
            assert clone == model and hash(clone) == hash(model)
        # values that skipped the checks are caught when rebuilt
        bad_deg = Multidegree._derived(theta_graph(), {"v": 0, "w": 2.7}, 2.7)
        bad_model = SheafModel._derived(theta_graph(), frozenset({"zz"}), deg)
        for bad, message in ((bad_deg, "degree at 'w' must be an integer, got 2.7"),
                             (bad_model, "non-invertible set names unknown edges: ['zz']")):
            for rebuild in (lambda x: pickle.loads(pickle.dumps(x)), copy.copy, copy.deepcopy):
                with pytest.raises(ValueError) as exc:
                    rebuild(bad)
                assert str(exc.value) == message


class TestChainCohomology:
    def test_constants_glue(self):
        assert chain_h((0, 0, 0)) == (1, 0)

    def test_dualizing_chain(self):
        assert chain_h((-1, -1)) == (0, 1)

    def test_mixed_chain(self):
        assert chain_h((2, -1, 1)) == (3, 0)

    def test_punctured_balanced_pair(self):
        # no sections vanish at both free ends, and nothing is lost in
        # degree either: the plain h1 vanishes (the punctured h1 cannot,
        # since the punctured chi is -1)
        assert chain_h((1, -1), puncture_ends=True).h0 == 0
        assert chain_h((1, -1)).h1 == 0

    def test_empty_chain_rejected(self):
        with pytest.raises(ValueError):
            chain_h(())

    def test_non_int_degrees_rejected(self):
        # int() once read 2.7 as 2 and True as 1, and [1.9, -0.5] as (0, 1) intervals
        for degs, bad in (([2.7], 2.7), ([True], True), ([0, "1"], "1"), ([1, None], None),
                          ([1.9, -0.5], 1.9)):
            for call in (lambda: chain_h(degs), lambda: chain_h(degs, puncture_ends=True),
                         lambda: interval_sum_range(degs)):
                with pytest.raises(ValueError) as exc:
                    call()
                assert str(exc.value) == f"chain degree must be an integer, got {bad!r}"

    def test_euler_characteristic(self):
        for n in (1, 2, 3):
            for degs in product(range(-2, 3), repeat=n):
                total = sum(degs)
                res = chain_h(degs)
                assert res.h0 - res.h1 == total + 1
                punct = chain_h(degs, puncture_ends=True)
                assert punct.h0 - punct.h1 == total - 1

    def test_huge_degree(self):
        # interior coefficients are counted, never built
        assert chain_h((10**8, 0), puncture_ends=True) == (10**8 - 1, 0)

    def test_matches_dense_rank(self):
        # oracle: the matching conditions on every coefficient of every form
        def dense_h0(degs, punctured):
            offsets = [sum(max(d + 1, 0) for d in degs[:i]) for i in range(len(degs))]
            width = sum(max(d + 1, 0) for d in degs)

            def at(i, far):
                row = [Fraction(0)] * width
                if degs[i] >= 0:
                    row[offsets[i] + (degs[i] if far else 0)] = Fraction(1)
                return row

            rows = [[x - y for x, y in zip(at(i, True), at(i + 1, False))]
                    for i in range(len(degs) - 1)]
            if punctured:
                rows += [at(0, False), at(len(degs) - 1, True)]
            rank = 0
            for col in range(width):
                pivot = next((r for r in rows if r[col]), None)
                if pivot is None:
                    continue
                rows.remove(pivot)
                rows = [[x - r[col] / pivot[col] * y for x, y in zip(r, pivot)] if r[col] else r
                        for r in rows]
                rank += 1
            return width - rank

        rng = random.Random(26)
        long_chains = [(0,) * 40, (1, -1) * 20, (-1, 1) * 15 + (-1,)] + [
            tuple(rng.randint(-3, 3) for _ in range(rng.randint(20, 40))) for _ in range(8)]
        short_chains = [degs for n in (1, 2, 3, 4) for degs in product(range(-3, 5), repeat=n)]
        for degs in short_chains + long_chains:
            for punctured in (False, True):
                assert chain_h(degs, punctured).h0 == dense_h0(degs, punctured), degs

    def test_vanishing_criteria(self):
        # h1 = 0 iff all interval sums >= -1; punctured h0 = 0 iff all <= 1
        for n in (1, 2, 3):
            for degs in product(range(-2, 3), repeat=n):
                lo, hi = interval_sum_range(degs)
                assert (chain_h(degs).h1 == 0) == (lo >= -1)
                assert (chain_h(degs, puncture_ends=True).h0 == 0) == (hi <= 1)


class TestIntervalSums:
    def test_pair(self):
        assert interval_sum_range((1, -1)) == (-1, 1)

    def test_triple(self):
        assert interval_sum_range((-1, 0, -1)) == (-2, 0)

    def test_single(self):
        assert interval_sum_range((0,)) == (0, 0)

    def test_empty_is_refused(self):
        with pytest.raises(ValueError) as exc:
            interval_sum_range([])
        assert str(exc.value) == "need at least one entry"
    def test_matches_brute_force(self):
        for n in (1, 2, 3, 4):
            for degs in product(range(-2, 3), repeat=n):
                sums = [
                    sum(degs[i:j]) for i in range(n) for j in range(i + 1, n + 1)
                ]
                assert interval_sum_range(degs) == (min(sums), max(sums))
