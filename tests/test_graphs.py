"""Dual graph construction, measurements, classification, chains."""

import copy
import gc
import pickle
import random
import weakref
from itertools import combinations

import pytest

from conftest import registry_chains
from nodalcalc import (
    DualGraph,
    ExceptionalCycleError,
    boundary_count,
    chi_structure,
    classify,
    connected_subcurves,
    exceptional_vertices,
    is_connected_subcurve,
    is_exceptional,
    maximal_exceptional_chains,
    modify,
    omega_multidegree,
    stable_model,
    theta_graph,
    elliptic_bridge,
)
from nodalcalc import graphs
from nodalcalc.graphs import internal_edge_count
from nodalcalc.stability import _cut_table, _subcurve_table
from nodalcalc.verify import random_graph, random_modification, random_stable_graph


def loop_vertex():
    return DualGraph((("v", 1),), (("l", ("v", "v")),))


def square_cycle():
    vs = tuple((f"v{i}", 0) for i in range(1, 5))
    es = (
        ("e1", ("v1", "v2")),
        ("e2", ("v2", "v3")),
        ("e3", ("v3", "v4")),
        ("e4", ("v4", "v1")),
    )
    return DualGraph(vs, es)


def complete_graph(n):
    vs = tuple((f"v{i}", 0) for i in range(n))
    return DualGraph(vs, tuple((f"e{a}{b}", (f"v{a}", f"v{b}"))
                               for a, b in combinations(range(n), 2)))


def oracle_graphs():
    """Loops, parallel edges, dense graphs, long chains, and random modifications."""
    loops = DualGraph((("v", 0),), (("l1", ("v", "v")), ("l2", ("v", "v"))))
    # ids v0..v11 sort as v0, v1, v10, v11, v2, ..., so bit order is not cycle order
    cycle = DualGraph(
        tuple((f"v{i}", 0) for i in range(12)),
        tuple((f"e{i}", (f"v{i}", f"v{(i + 1) % 12}")) for i in range(12))
        + tuple((f"p{i}", (f"v{i}", f"v{i + 1}")) for i in range(0, 12, 3)),
    )
    found = [loops, theta_graph(), elliptic_bridge(), complete_graph(4), complete_graph(5),
             cycle]
    rng = random.Random(1994)
    for _ in range(30):
        g = random_graph(rng, 5, 3)
        found += [g, random_modification(rng, g, 2).source]
    return found


def brute_force_subcurves(graph):
    """Every nonempty vertex subset by increasing bitmask, kept when connected."""
    ids = graph.vertex_ids
    subsets = (frozenset(v for i, v in enumerate(ids) if mask >> i & 1)
               for mask in range(1, 1 << len(ids)))
    return [z for z in subsets if is_connected_subcurve(graph, z)]


class TestConstruction:
    def test_requires_vertices(self):
        with pytest.raises(ValueError):
            DualGraph((), ())

    def test_duplicate_vertex_ids(self):
        with pytest.raises(ValueError, match="duplicate"):
            DualGraph((("v", 0), ("v", 1)), ())

    def test_duplicate_edge_ids(self):
        with pytest.raises(ValueError, match="duplicate"):
            DualGraph(
                (("v", 1), ("w", 1)),
                (("e", ("v", "w")), ("e", ("v", "w"))),
            )

    def test_negative_genus_label(self):
        with pytest.raises(ValueError):
            DualGraph((("v", -1),), ())

    def test_unknown_endpoint(self):
        with pytest.raises(ValueError):
            DualGraph((("v", 1),), (("e", ("v", "x")),))

    def test_disconnected(self):
        with pytest.raises(ValueError, match="graph not connected"):
            DualGraph((("v", 1), ("w", 2)), ())

    def test_non_int_genus_is_refused(self):
        for genus in (1.5, 1.0, True, False, "1", None):
            for vertices in ((("a", genus),), (("b", 1), ("a", genus))):
                with pytest.raises(ValueError) as exc:
                    DualGraph(vertices, (("e", ("a", "b")),) if len(vertices) > 1 else ())
                assert str(exc.value) == f"genus of vertex 'a' must be an integer, got {genus!r}"

    def test_single_vertex_no_edges(self):
        g = DualGraph((("v", 2),), ())
        assert g.genus == 2

    def test_normalization_gives_equality(self):
        a = DualGraph((("w", 0), ("v", 0)), (("e2", ("w", "v")), ("e1", ("v", "w"))))
        b = DualGraph((("v", 0), ("w", 0)), (("e1", ("v", "w")), ("e2", ("v", "w"))))
        assert a == b
        assert a.ends("e1") == ("v", "w")

    def test_json_round_trip(self):
        g = theta_graph()
        assert DualGraph.from_json_dict(g.to_json_dict()) == g

    def test_json_genus_defaults_to_zero(self):
        g = DualGraph.from_json_dict(
            {"vertices": [{"id": "v"}], "edges": [{"id": "l", "ends": ["v", "v"]}]}
        )
        assert g.genus_of("v") == 0

    def test_json_non_int_genus_names_its_vertex(self):
        # the constructor's one genus rule, read from JSON
        for genus in (0.5, True, "1", None):
            data = {"vertices": [{"id": "v", "genus": 1}, {"id": "w", "genus": genus}],
                    "edges": [{"id": "e", "ends": ["v", "w"]}]}
            with pytest.raises(ValueError) as exc:
                DualGraph.from_json_dict(data)
            assert str(exc.value) == f"genus of vertex 'w' must be an integer, got {genus!r}"

    def test_json_malformed(self):
        with pytest.raises(ValueError, match="curve data"):
            DualGraph.from_json_dict([1, 2])
        with pytest.raises(ValueError, match="malformed"):
            DualGraph.from_json_dict({"vertices": [{"genus": 1}]})
        with pytest.raises(ValueError, match="exactly two"):
            DualGraph.from_json_dict(
                {"vertices": [{"id": "v"}], "edges": [{"id": "e", "ends": ["v"]}]}
            )


class TestGenus:
    def test_theta(self):
        assert theta_graph().genus == 2

    def test_banana(self):
        assert elliptic_bridge().genus == 2

    def test_loop_vertex(self):
        assert loop_vertex().genus == 2

    def test_valence_counts_loops_twice(self):
        assert loop_vertex().valence("v") == 2
        assert loop_vertex().loops_at("v") == 1


class TestOmega:
    def test_theta(self):
        assert omega_multidegree(theta_graph()).as_dict == {"v": 1, "w": 1}

    def test_banana(self):
        assert omega_multidegree(elliptic_bridge()).as_dict == {"v": 1, "w": 1}

    def test_chain_vertex_is_zero(self):
        y = modify(theta_graph(), {"e1": 1}).source
        assert omega_multidegree(y)["e1#1"] == 0

    def test_total_is_2g_minus_2(self):
        for g in (theta_graph(), elliptic_bridge(), loop_vertex(), square_cycle()):
            assert omega_multidegree(g).total == 2 * g.genus - 2


class TestSubcurveMeasurements:
    def test_boundary_theta(self):
        assert boundary_count(theta_graph(), {"v"}) == 3

    def test_boundary_banana(self):
        assert boundary_count(elliptic_bridge(), {"v"}) == 1

    def test_boundary_square_adjacent_pair(self):
        assert boundary_count(square_cycle(), {"v1", "v2"}) == 2

    def test_boundary_ignores_loops(self):
        assert boundary_count(loop_vertex(), {"v"}) == 0

    def test_boundary_symmetry(self):
        for g in (theta_graph(), elliptic_bridge(), square_cycle()):
            ids = list(g.vertex_ids)
            for mask in range(1, 2 ** len(ids) - 1):
                z = {v for i, v in enumerate(ids) if mask >> i & 1}
                comp = set(ids) - z
                assert boundary_count(g, z) == boundary_count(g, comp)

    def test_internal_edges(self):
        assert internal_edge_count(theta_graph(), {"v", "w"}) == 3
        assert internal_edge_count(theta_graph(), {"v"}) == 0
        assert internal_edge_count(loop_vertex(), {"v"}) == 1

    def test_chi_theta_component(self):
        assert chi_structure(theta_graph(), {"v"}) == 1

    def test_chi_theta_whole(self):
        assert chi_structure(theta_graph(), {"v", "w"}) == -1

    def test_chi_banana_component(self):
        assert chi_structure(elliptic_bridge(), {"v"}) == 0

    def test_members_validated(self):
        with pytest.raises(ValueError):
            boundary_count(theta_graph(), {"nope"})
        with pytest.raises(ValueError):
            chi_structure(theta_graph(), set())

    def test_adjunction_on_connected_subcurves(self):
        # deg_Z(omega) = -2 chi(O_Z) + k_Z
        for g in (theta_graph(), elliptic_bridge(), loop_vertex(), square_cycle()):
            omega = omega_multidegree(g)
            for z in connected_subcurves(g):
                assert omega.degree_on(z) == -2 * chi_structure(g, z) + boundary_count(g, z)


class TestConnectedSubcurves:
    def test_theta_proper(self):
        assert sorted(map(sorted, connected_subcurves(theta_graph(), proper=True))) == [
            ["v"],
            ["w"],
        ]

    def test_path_proper(self):
        path = DualGraph(
            (("v", 1), ("w", 1), ("x", 1)),
            (("e1", ("v", "w")), ("e2", ("w", "x"))),
        )
        got = sorted(map(sorted, connected_subcurves(path, proper=True)))
        assert got == [["v"], ["v", "w"], ["w"], ["w", "x"], ["x"]]

    def test_banana_not_proper(self):
        got = sorted(map(sorted, connected_subcurves(elliptic_bridge())))
        assert got == [["v"], ["v", "w"], ["w"]]

    def test_deterministic_order(self):
        runs = [list(connected_subcurves(square_cycle())) for _ in range(2)]
        assert runs[0] == runs[1]

    def test_matches_brute_force_in_order(self):
        for g in oracle_graphs():
            want = brute_force_subcurves(g)
            assert list(connected_subcurves(g)) == want
            assert list(connected_subcurves(g, proper=True)) == [
                z for z in want if len(z) < len(g.vertices)
            ]

    def test_table_chi_matches_chi_structure(self):
        # and each row's k matches boundary_count
        for g in oracle_graphs():
            rows = _subcurve_table(g)
            assert [z for z, _, _ in rows] == list(connected_subcurves(g, proper=True))
            for z, chi, k in rows:
                assert chi == chi_structure(g, z)
                assert k == boundary_count(g, z)

    def test_cut_table_keeps_the_table_rows_in_order(self):
        # Oracle: the cut rows as read off the full subcurve table, the side
        # with fewer vertices or, on a tie, the one holding the first vertex,
        # with k from boundary_count; a graph read as it is has no chains, no
        # interval records and no arms
        checked = 0
        for g in oracle_graphs():
            table = _cut_table(g)
            if table.chains:  # a subdivision reads its series reduction
                continue
            rows = _subcurve_table(g)
            sides, whole, first = {z for z, _, _ in rows}, frozenset(g.vertex_ids), g.vertex_ids[0]
            want = tuple((z, chi, boundary_count(g, z), ()) for z, chi, _ in rows
                         if whole - z in sides
                         and (2 * len(z) < len(whole) or 2 * len(z) == len(whole) and first in z))
            assert table.rows == want, g
            assert table.intervals == (), g
            checked += bool(want)
        assert checked > 30

    def test_too_many_subcurves_refused(self, monkeypatch):
        monkeypatch.setattr(graphs, "_MAX_SUBCURVES", 10)
        path = DualGraph(tuple((v, 0) for v in "abcd"),
                         (("e1", ("a", "b")), ("e2", ("b", "c")), ("e3", ("c", "d"))))
        assert len(list(connected_subcurves(path))) == 10
        with pytest.raises(ValueError, match="more than 10 connected subcurves"):
            list(connected_subcurves(complete_graph(5)))

    def test_membership_helper(self):
        assert is_connected_subcurve(square_cycle(), {"v1", "v2"})
        assert not is_connected_subcurve(square_cycle(), {"v1", "v3"})


class TestClassification:
    def test_theta_stable(self):
        assert classify(theta_graph()) == "stable"

    def test_one_subdivision_quasistable(self):
        y = modify(theta_graph(), {"e1": 1}).source
        assert classify(y) == "quasistable"

    def test_two_subdivisions_semistable(self):
        y = modify(theta_graph(), {"e1": 2}).source
        assert classify(y) == "semistable"

    def test_dangling_rational_tail_is_none(self):
        g = DualGraph((("v", 0), ("w", 2)), (("e", ("v", "w")),))
        assert classify(g) == "none"

    def test_single_vertex_graph_stable(self):
        assert classify(DualGraph((("v", 0),), ())) == "stable"

    def test_loop_blocks_exceptionality(self):
        g = DualGraph(
            (("v", 0), ("w", 2)),
            (("l", ("v", "v")), ("e", ("v", "w")), ("f", ("v", "w"))),
        )
        assert not is_exceptional(g, "v")
        assert classify(g) == "stable"

    def test_exceptional_vertices_listing(self):
        y = modify(theta_graph(), {"e1": 1, "e2": 1}).source
        assert exceptional_vertices(y) == ("e1#1", "e2#1")


class TestLoopsFromIncidence:
    """``loops_at`` and ``valence`` read ``incidence``; oracle: scans of every edge."""

    @staticmethod
    def cases():
        rng = random.Random(2014)
        found = [
            loop_vertex(), theta_graph(), elliptic_bridge(), square_cycle(),
            DualGraph((("v", 0),), (("l1", ("v", "v")), ("l2", ("v", "v")))),
            DualGraph((("v", 0), ("w", 2)), (("e", ("v", "w")),)),
            DualGraph((("u", 0), ("v", 0), ("w", 1)),
                      (("l", ("v", "v")), ("m", ("v", "v")), ("a", ("u", "v")),
                       ("b", ("u", "v")), ("c", ("v", "w")), ("d", ("w", "w")))),
        ]
        for _ in range(20):
            g = random_graph(rng, 5, 3)
            found += [g, random_modification(rng, g, 2).source]
        return found

    @staticmethod
    def edge_scan_classify(g):
        def loops(v):
            return sum(1 for _, (a, b) in g.edges if a == v and b == v)

        def valence(v):
            return sum((a == v) + (b == v) for _, (a, b) in g.edges)

        exc = {v for v in g.vertex_ids if len(g.vertices) > 1 and g.genus_of(v) == 0
               and loops(v) == 0 and valence(v) <= 2}
        if not exc:
            return "stable"
        if any(valence(v) <= 1 for v in exc):
            return "none"
        if any(a in exc and b in exc for _, (a, b) in g.edges):
            return "semistable"
        return "quasistable"

    def test_loops_and_valence_match_edge_scans(self):
        for g in self.cases():
            for v in g.vertex_ids:
                assert g.loops_at(v) == sum(1 for _, (a, b) in g.edges if a == v and b == v)
                assert g.valence(v) == sum((a == v) + (b == v) for _, (a, b) in g.edges)

    def test_classify_matches_edge_scans(self):
        kinds = set()
        for g in self.cases():
            kinds.add(classify(g))
            assert classify(g) == self.edge_scan_classify(g), g
        assert kinds == {"stable", "quasistable", "semistable", "none"}


class TestExceptionalChains:
    def test_theta_has_none(self):
        assert maximal_exceptional_chains(theta_graph()) == ()

    def test_single_subdivision(self):
        y = modify(theta_graph(), {"e1": 1}).source
        (chain,) = maximal_exceptional_chains(y)
        assert chain.vertices == ("e1#1",)
        assert (chain.left, chain.right) == ("v", "w")

    def test_double_subdivision_one_chain(self):
        y = modify(theta_graph(), {"e1": 2}).source
        (chain,) = maximal_exceptional_chains(y)
        assert chain.vertices == ("e1#1", "e1#2")

    def test_chain_read_from_smaller_attachment(self):
        g = DualGraph(
            (("a", 2), ("m1", 0), ("m2", 0), ("z", 2)),
            (("e1", ("a", "m1")), ("e2", ("m1", "m2")), ("e3", ("m2", "z"))),
        )
        (chain,) = maximal_exceptional_chains(g)
        assert chain.left == "a" and chain.right == "z"
        assert chain.vertices == ("m1", "m2")

    def test_loop_chain_lex_orientation(self):
        y = modify(loop_vertex(), {"l": 2}).source
        (chain,) = maximal_exceptional_chains(y)
        assert chain.left == chain.right == "v"
        assert chain.vertices == ("l#1", "l#2")

    def test_whole_graph_cycle_raises(self):
        cyc = DualGraph(
            (("a", 0), ("b", 0)),
            (("e1", ("a", "b")), ("e2", ("a", "b"))),
        )
        with pytest.raises(ExceptionalCycleError):
            maximal_exceptional_chains(cyc)

    def test_unclassifiable_graph_raises(self):
        g = DualGraph((("v", 0), ("w", 2)), (("e", ("v", "w")),))
        with pytest.raises(ValueError):
            maximal_exceptional_chains(g)

    def test_walk_matches_the_registry(self):
        # a stable target has no exceptional vertex, so the chains of its modification's
        # source are exactly the registered ones, attached at the ends of their edges
        rng = random.Random(2014)
        loops = parallel = 0
        for _ in range(300):
            target = random_stable_graph(rng, 4, 4)
            ends = list(target.edge_ends.values())
            loops += any(a == b for a, b in ends)
            parallel += len(set(ends)) < len(ends)
            mod = modify(target, {e: rng.randint(1, 3) for e, _ in target.edges
                                  if rng.random() < 0.6})
            found = [(c.left, c.vertices, c.right)
                     for c in maximal_exceptional_chains(mod.source)]
            assert found == registry_chains(mod)
        assert loops > 50 and parallel > 50


class TestPerGraphMemo:
    """Classification and tables are computed once per graph object and live on it."""

    @staticmethod
    def count_enumerations(monkeypatch):
        calls = []
        enumerate_ = graphs._grow_subcurves

        def counted(graph):
            calls.append(graph)
            return enumerate_(graph)

        monkeypatch.setattr(graphs, "_grow_subcurves", counted)
        return calls

    def test_cut_table_enumerates_once_per_graph(self, monkeypatch):
        calls = self.count_enumerations(monkeypatch)
        # a stable graph enumerates itself; a chain-modified one its series reduction
        stable = complete_graph(4)
        for graph in (stable, modify(complete_graph(4), {"e01": 2}).source):
            first = _cut_table(graph)
            assert len(calls) == 1 and (calls[0] is graph) == (graph is stable)
            assert _cut_table(graph) is first
            assert len(calls) == 1
            calls.clear()
        # the subcurve table, the cut table and connected_subcurves share one enumeration
        graph = complete_graph(4)
        table = _subcurve_table(graph)
        assert [z for z, _, _ in table] == list(connected_subcurves(graph, proper=True))
        _cut_table(graph)
        assert _subcurve_table(graph) is table
        assert calls == [graph]

    def test_is_exceptional_once_per_vertex(self, monkeypatch):
        seen = []  # (graph, vertex), holding each graph so no id is reused
        test = graphs.is_exceptional

        def counted(graph, v):
            seen.append((graph, v))
            return test(graph, v)

        monkeypatch.setattr(graphs, "is_exceptional", counted)
        source = modify(theta_graph(), {"e1": 2, "e2": 1}).source
        for _ in range(2):
            assert classify(source) == "semistable"
            assert exceptional_vertices(source) == ("e1#1", "e1#2", "e2#1")
            assert len(maximal_exceptional_chains(source)) == 2
            mod = stable_model(source)
            _cut_table(source)
        asked = [(id(g), v) for g, v in seen]
        assert len(asked) == len(set(asked))
        assert sorted(v for g, v in seen if g is source) == list(source.vertex_ids)
        assert sum(g is mod.target for g, _ in seen) == len(mod.target.vertices)

    def test_equal_graphs_do_not_share(self, monkeypatch):
        calls = self.count_enumerations(monkeypatch)
        first, second = complete_graph(4), complete_graph(4)
        assert first == second and hash(first) == hash(second)
        assert _cut_table(first) == _cut_table(second)
        assert len(calls) == 2 and calls[0] is first and calls[1] is second

    def test_graph_is_collected(self):
        graph = modify(complete_graph(4), {"e01": 1}).source
        classify(graph)
        _cut_table(graph)
        _subcurve_table(graph)
        ref = weakref.ref(graph)
        del graph
        gc.collect()
        assert ref() is None

    def test_copies_see_fields_only(self):
        graph = modify(theta_graph(), {"e1": 2}).source
        pickled = pickle.dumps(graph)
        shown = repr(graph)
        classify(graph)
        _cut_table(graph)
        _subcurve_table(graph)
        assert pickle.dumps(graph) == pickled
        assert repr(graph) == shown
        for twin in (pickle.loads(pickle.dumps(graph)), copy.deepcopy(graph), copy.copy(graph)):
            assert twin == graph and hash(twin) == hash(graph)
            assert repr(twin) == shown
            assert _cut_table(twin) == _cut_table(graph)
