"""Chain insertion, contraction to the stable model, and pullbacks."""

import copy
import pickle
import random
from dataclasses import FrozenInstanceError
from itertools import combinations
from types import MappingProxyType

import pytest

from nodalcalc import (
    DualGraph,
    Modification,
    Multidegree,
    contracted_edge_id,
    elliptic_bridge,
    is_small,
    modify,
    omega_multidegree,
    pullback_multidegree,
    small_modification,
    stable_model,
    theta_graph,
)
from nodalcalc import modifications
from nodalcalc.verify import random_graph, random_modification, random_multidegree


def loop_vertex():
    return DualGraph((("v", 1),), (("l", ("v", "v")),))


K4 = DualGraph(
    tuple((v, 0) for v in "abcd"),
    tuple((a + b, (a, b)) for a, b in combinations("abcd", 2)),
)


class TestModify:
    def test_theta_single_insertion(self):
        mod = modify(theta_graph(), {"e1": 1})
        y = mod.source
        assert len(y.vertices) == 3
        assert len(y.edges) == 4
        assert y.genus == 2
        assert y.genus_of("e1#1") == 0
        assert mod.chains == {"e1": ("e1#1",)}

    def test_chain_reads_from_smaller_endpoint(self):
        mod = modify(theta_graph(), {"e1": 2})
        y = mod.source
        # v < w, so the chain starts at v
        assert y.ends("e1#0-1") == ("e1#1", "v")
        assert y.ends("e1#1-2") == ("e1#1", "e1#2")
        assert y.ends("e1#2-3") == ("e1#2", "w")

    def test_banana_long_chain(self):
        y = modify(elliptic_bridge(), {"e1": 3}).source
        assert len(y.vertices) == 5
        assert y.genus == 2
        assert all(y.valence(f"e1#{i}") == 2 for i in (1, 2, 3))

    def test_empty_modification_is_identity(self):
        mod = modify(theta_graph(), {})
        assert mod.source == mod.target == theta_graph()
        assert mod.chain_registry == ()

    def test_loop_subdivision(self):
        mod = modify(loop_vertex(), {"l": 2})
        y = mod.source
        assert len(y.vertices) == 3
        assert y.genus == 2
        assert not any(y.is_loop(e) for e, _ in y.edges)

    def test_unknown_edge(self):
        with pytest.raises(ValueError, match="unknown edge"):
            modify(theta_graph(), {"zzz": 1})

    def test_nonpositive_length(self):
        with pytest.raises(ValueError):
            modify(theta_graph(), {"e1": 0})

    def test_generated_id_collision(self):
        g = DualGraph(
            (("e1#1", 1), ("w", 1)),
            (("e1", ("e1#1", "w")),),
        )
        with pytest.raises(ValueError, match="collides"):
            modify(g, {"e1": 1})

    def test_vertex_map_positions(self):
        mod = modify(theta_graph(), {"e1": 2})
        assert mod.vertex_map["e1#1"] == ("e1", 1)
        assert mod.vertex_map["e1#2"] == ("e1", 2)

    @pytest.mark.parametrize("length", [2.7, True, "2", None])
    def test_length_must_be_an_int(self, length):
        with pytest.raises(ValueError, match=(
                f"chain length for edge 'e1' must be an integer, got {length!r}")):
            modify(theta_graph(), {"e2": 1, "e1": length})

    def test_lengths_must_be_a_mapping(self):
        for lengths in ("e1", ["e1"], [("e1", 2)], None):
            with pytest.raises(ValueError) as exc:
                modify(theta_graph(), lengths)
            assert str(exc.value) == f"chain lengths must map edge ids to lengths, not {lengths!r}"
        assert modify(theta_graph(), MappingProxyType({"e1": 2})).lengths == {"e1": 2}

    def test_collision_messages_name_the_first_colliding_id(self):
        # edges in id order, and per edge its vertices before its segments
        g = DualGraph(
            (("a", 2), ("b#2", 0), ("w", 1)),
            (("a", ("a", "w")), ("a#1-2", ("a", "w")), ("b", ("a", "w")),
             ("b#0-1", ("a", "w")), ("c", ("a", "w")), ("d", ("b#2", "w"))),
        )
        cases = [({"b": 3}, "vertex id 'b#2'"), ({"c": 1, "a#1-2": 2, "b": 1}, "edge id 'b#0-1'"),
                 ({"c": 1, "a": 2, "b": 3}, "edge id 'a#1-2'")]
        for lengths, what in cases:
            with pytest.raises(ValueError) as exc:
                modify(g, lengths)
            assert str(exc.value) == f"generated chain {what} collides with the graph"

    def test_chain_vertex_bound(self, monkeypatch):
        monkeypatch.setattr(modifications, "_MAX_CHAIN_VERTICES", 10)
        assert len(modify(theta_graph(), {"e1": 4, "e2": 5, "e3": 1}).chain_vertices) == 10
        for lengths in ({"e1": 4, "e2": 6, "e3": 1}, {"e1": 11}, {"e1": 2 ** 70}):
            with pytest.raises(ValueError) as exc:
                modify(theta_graph(), lengths)
            assert str(exc.value) == (f"modification inserts {sum(lengths.values())} chain "
                                      "vertices, more than 10; too many to build")
        # a length of the wrong type or sign is named before the total is read
        with pytest.raises(ValueError, match="'e2' must be positive"):
            modify(theta_graph(), {"e1": 11, "e2": -1})

    def test_unknown_and_nonpositive_messages(self):
        with pytest.raises(ValueError) as exc:
            modify(theta_graph(), {"e1": 1, "zzz": 1})
        assert str(exc.value) == "unknown edge id 'zzz'"
        for k in (0, -2):
            with pytest.raises(ValueError) as exc:
                modify(theta_graph(), {"e1": k})
            assert str(exc.value) == "chain length for edge 'e1' must be positive"


def random_multigraph(rng):
    """A connected graph with loops, parallel edges and ids that sort around
    the ids ``modify`` generates ("e" < "e!" < "e#0-1" < "e#1" < "e1")."""
    n = rng.randint(1, 5)
    vids = rng.sample(["a", "e#", "e#0", "e0", "v", "w#1", "z"], n)
    eids = iter(rng.sample(["e", "e!", "e#", "e1", "e10", "e2", "f", "f#0-1x", "g",
                            "l", "x", "y", "z!"], 13))
    edges = [(next(eids), (vids[i], vids[rng.randrange(i)])) for i in range(1, n)]
    for _ in range(rng.randint(0, 13 - len(edges))):
        edges.append((next(eids), (rng.choice(vids), rng.choice(vids))))
    rng.shuffle(edges)
    return DualGraph(tuple((v, rng.randint(0, 2)) for v in vids), tuple(edges))


class TestDerivedConstruction:
    """``modify`` builds its source without the validating constructors.

    Oracle: the same modification through ``DualGraph(...)`` and
    ``Modification(...)``, which check everything.
    """

    @staticmethod
    def views(mod):
        src = mod.source
        return (
            src.vertices, src.edges, src.vertex_ids, dict(src.genus_map), dict(src.edge_ends),
            dict(src.incidence), src.genus, hash(src), type(src.genus_map),
            type(src.edge_ends), type(src.incidence), mod.target, mod.chain_registry,
            dict(mod.chains), dict(mod.lengths), mod.chain_vertices, mod.modified_edges,
            dict(mod.vertex_map), type(mod.chains), type(mod.lengths), hash(mod),
        )

    def test_matches_the_validating_constructors(self):
        rng = random.Random(1403)
        loops = parallel = chains = 0
        for _ in range(400):
            graph = random_multigraph(rng)
            edges = [e for e, _ in graph.edges]
            lengths = {e: rng.randint(1, 5) for e in rng.sample(edges, rng.randint(0, len(edges)))}
            mod = modify(graph, lengths)
            src = mod.source
            want = Modification(graph, DualGraph(src.vertices, src.edges), mod.chain_registry)
            assert mod == want and mod.source == want.source
            assert self.views(mod) == self.views(want)
            for e, chain in mod.chain_registry:  # as the docstring names them
                assert chain == tuple(f"{e}#{i}" for i in range(1, lengths[e] + 1))
            for copied in (pickle.loads(pickle.dumps(mod)), copy.copy(mod), copy.deepcopy(mod)):
                assert copied == mod and self.views(copied) == self.views(mod)
            loops += any(a == b for a, b in graph.edge_ends.values())
            parallel += len(set(graph.edge_ends.values())) < len(graph.edges)
            chains += len(lengths)
        assert loops > 100 and parallel > 100 and chains > 1000

    def test_segments_sort_among_the_kept_edges(self):
        g = DualGraph((("v0", 1), ("w", 1)), (("e", ("v0", "w")), ("e!", ("w", "v0"))))
        mod = modify(g, {"e": 1})
        assert [e for e, _ in mod.source.edges] == ["e!", "e#0-1", "e#1-2"]
        assert mod.source.ends("e#0-1") == ("e#1", "v0")
        assert mod.source.incidence["v0"] == (("e!", "w"), ("e#0-1", "e#1"))


class TestIsSmall:
    def test_single_length_one(self):
        assert is_small(modify(theta_graph(), {"e1": 1}))

    def test_length_two_is_not(self):
        assert not is_small(modify(theta_graph(), {"e1": 2}))

    def test_empty_is_small(self):
        assert is_small(modify(theta_graph(), {}))

    def test_small_modification_helper(self):
        mod = small_modification(theta_graph(), ["e2", "e1"])
        assert mod.lengths == {"e1": 1, "e2": 1}


class TestSmallModificationCache:
    """One shared modification per graph and edge set; oracle: ``modify``."""

    def test_every_spelling_matches_modify(self):
        for graph in (theta_graph(), elliptic_bridge(), loop_vertex(), K4):
            ids = sorted(graph.edge_ends)
            for r in range(len(ids) + 1):
                for subset in combinations(ids, r):
                    want = modify(graph, {e: 1 for e in subset})
                    first = small_modification(graph, list(subset))
                    assert first == want
                    for spelling in (list(reversed(subset)), list(subset) * 2,
                                     (e for e in subset), frozenset(subset)):
                        assert small_modification(graph, spelling) is first

    def test_unknown_edge_raises_and_is_not_cached(self):
        cache = modifications._small_modification
        before = cache.cache_info().currsize
        for edges in (["zz"], ["e1", "zz"]):
            with pytest.raises(ValueError, match="unknown edge id 'zz'"):
                small_modification(theta_graph(), edges)
        assert cache.cache_info().currsize == before

    def test_string_edge_set_is_refused(self):
        g = DualGraph((("v", 1), ("w", 1)),
                      (("a", ("v", "w")), ("b", ("v", "w")), ("c", ("v", "w"))))
        for edges in ("ab", "a", ""):
            with pytest.raises(ValueError) as exc:
                small_modification(g, edges)
            assert str(exc.value) == (
                f"edge set must be a collection of edge ids, not the string {edges!r}")
        assert small_modification(g, ["a", "b"]).modified_edges == {"a", "b"}

    def test_cache_is_bounded(self):
        assert modifications._small_modification.cache_info().maxsize == 512


class TestStableModel:
    def test_round_trip_double_subdivision(self):
        y = modify(theta_graph(), {"e1": 2}).source
        back = stable_model(y)
        assert back.source == y
        assert back.lengths == {"e1#1+e1#2": 2}
        assert back.chains == {"e1#1+e1#2": ("e1#1", "e1#2")}
        assert back.target.ends("e1#1+e1#2") == ("v", "w")
        # the target is the theta shape again, one edge renamed
        assert {e for e, _ in back.target.edges} == {"e1#1+e1#2", "e2", "e3"}
        assert back.target.vertices == theta_graph().vertices

    def test_already_stable_gives_identity(self):
        back = stable_model(theta_graph())
        assert back.source == back.target == theta_graph()
        assert back.chain_registry == ()

    def test_contracts_path_to_banana(self):
        path = DualGraph(
            (("E", 0), ("v", 1), ("w", 1)),
            (("a", ("E", "v")), ("b", ("E", "w"))),
        )
        back = stable_model(path)
        assert back.lengths == {"E": 1}
        assert back.target == DualGraph(
            (("v", 1), ("w", 1)), (("E", ("v", "w")),)
        )

    def test_exceptional_cycle_rejected(self):
        # a cycle of rational curves has genus 1, so the genus gate
        # already refuses it; the cycle error itself is covered at the
        # chain-decomposition level
        cyc = DualGraph(
            (("a", 0), ("b", 0)),
            (("e1", ("a", "b")), ("e2", ("a", "b"))),
        )
        with pytest.raises(ValueError, match="genus"):
            stable_model(cyc)

    def test_low_genus_rejected(self):
        g = DualGraph((("v", 1),), ())
        with pytest.raises(ValueError, match="genus"):
            stable_model(g)

    def test_unstable_classification_rejected(self):
        g = DualGraph((("v", 0), ("w", 2)), (("e", ("v", "w")),))
        with pytest.raises(ValueError):
            stable_model(g)


class TestContractedEdgeId:
    def test_joins_chain_vertices(self):
        assert contracted_edge_id(("e1#1", "e1#2")) == "e1#1+e1#2"

    def test_collision_suffix(self):
        assert contracted_edge_id(("x",), {"x"}) == "x~"
        assert contracted_edge_id(("x",), {"x", "x~"}) == "x~~"


class TestPullback:
    def test_omega_extends_by_zero(self):
        mod = modify(theta_graph(), {"e1": 1})
        pulled = pullback_multidegree(mod, omega_multidegree(theta_graph()))
        assert pulled.as_dict == {"v": 1, "w": 1, "e1#1": 0}

    def test_zero_stays_zero(self):
        mod = modify(theta_graph(), {"e1": 2})
        zero = Multidegree(theta_graph(), (("v", 0), ("w", 0)))
        assert pullback_multidegree(mod, zero).total == 0

    def test_identity_modification(self):
        mod = modify(theta_graph(), {})
        deg = Multidegree(theta_graph(), (("v", 3), ("w", -2)))
        assert pullback_multidegree(mod, deg) == deg

    def test_wrong_graph_rejected(self):
        mod = modify(theta_graph(), {"e1": 1})
        deg = Multidegree(elliptic_bridge(), (("v", 0), ("w", 0)))
        with pytest.raises(ValueError):
            pullback_multidegree(mod, deg)

    def test_matches_plain_then_chain_construction(self):
        rng = random.Random(1405)
        for _ in range(40):
            graph = random_graph(rng, 5, 3)
            mod = random_modification(rng, graph, 3)
            deg = random_multidegree(rng, graph, 3)
            values = [(v, deg[v]) for v in graph.vertex_ids]
            values += [(c, 0) for c in mod.chain_vertices]
            want = Multidegree(mod.source, tuple(values))
            pulled = pullback_multidegree(mod, deg)
            assert pulled == want
            assert hash(pulled) == hash(want)

    def test_built_in_canonical_order(self, canonical_checks):
        mod = modify(K4, {"ab": 2, "cd": 1})
        deg = omega_multidegree(K4)
        canonical_checks.clear()
        pullback_multidegree(mod, deg)
        assert canonical_checks == [True]


class TestModificationValidation:
    def test_registry_must_reference_target_edges(self):
        mod = modify(theta_graph(), {"e1": 1})
        with pytest.raises(ValueError):
            Modification(mod.target, mod.source, (("zzz", ("e1#1",)),))

    def test_repeated_registry_edge_is_refused(self):
        # once accepted, the second entry silently kept
        mod = modify(theta_graph(), {"e1": 1})
        for registry in ((("e1", ("e1#1",)), ("e1", ("e1#1",))),
                         [["e1", ["e1#1"]], ["e2", []], ["e1", ["e1#1"]]]):
            with pytest.raises(ValueError) as exc:
                Modification(mod.target, mod.source, registry)
            assert str(exc.value) == "chain registry lists edge 'e1' twice"

    def test_chain_vertices_must_form_path(self):
        # swapping in a genus-carrying vertex breaks the chain contract
        bad_source = DualGraph(
            (("v", 0), ("w", 0), ("e1#1", 1)),
            (
                ("e1#0-1", ("v", "e1#1")),
                ("e1#1-2", ("e1#1", "w")),
                ("e2", ("v", "w")),
                ("e3", ("v", "w")),
            ),
        )
        with pytest.raises(ValueError):
            Modification(theta_graph(), bad_source, (("e1", ("e1#1",)),))

    def test_chain_vertex_with_an_extra_edge_is_refused(self):
        source = DualGraph(
            (("v", 0), ("w", 0), ("c", 0)),
            (("f1", ("v", "c")), ("f2", ("c", "w")), ("f3", ("c", "v")),
             ("e2", ("v", "w")), ("e3", ("v", "w"))),
        )
        with pytest.raises(ValueError) as exc:
            Modification(theta_graph(), source, {"e1": ("c",)})
        assert str(exc.value) == "chain vertex 'c' does not have valence 2"

    def test_untouched_edges_must_survive(self):
        mod = modify(theta_graph(), {"e1": 1})
        pruned = DualGraph(
            mod.source.vertices,
            tuple((e, ends) for e, ends in mod.source.edges if e != "e2"),
        )
        with pytest.raises(ValueError):
            Modification(theta_graph(), pruned, mod.chain_registry)


class TestStoredFacts:
    """Facts derived on construction: ``Multidegree.total``, ``Modification.modified_edges``
    and the hash of a ``DualGraph``; oracle: recomputing each from the fields."""

    @staticmethod
    def random_objects():
        rng = random.Random(1813)
        for _ in range(60):
            mod = random_modification(rng, random_graph(rng, 6, 3), 3)
            yield mod, random_multidegree(rng, mod.source, 4)

    @staticmethod
    def facts(mod, deg):
        return (deg.total, mod.modified_edges, hash(mod.source), hash(mod.target))

    def test_facts_equal_their_recomputations(self):
        for mod, deg in self.random_objects():
            assert deg.total == sum(value for _, value in deg.values)
            assert mod.modified_edges == frozenset(e for e, _ in mod.chain_registry)
            for graph in (mod.source, mod.target):
                assert hash(graph) == hash((graph.vertices, graph.edges))
                pairs = {v: [] for v in graph.vertex_ids}
                for e, (a, b) in graph.edges:
                    pairs[a].append((e, b))
                    pairs[b].append((e, a))
                assert graph.incidence == {v: tuple(sorted(p)) for v, p in pairs.items()}

    def test_facts_are_read_only(self):
        mod, deg = next(self.random_objects())
        for obj, name in ((deg, "total"), (mod, "modified_edges"), (mod.source, "_hash")):
            with pytest.raises(FrozenInstanceError):
                setattr(obj, name, 0)
        assert self.facts(mod, deg) == self.facts(*next(self.random_objects()))

    def test_facts_survive_pickle_and_copies(self):
        for mod, deg in self.random_objects():
            for clone in (lambda x: pickle.loads(pickle.dumps(x)), copy.copy, copy.deepcopy):
                twins = clone(mod), clone(deg)
                assert twins == (mod, deg)
                assert self.facts(*twins) == self.facts(mod, deg)

    def test_equal_objects_built_separately(self):
        rng = random.Random(7)
        for mod, deg in self.random_objects():
            for graph in (mod.source, mod.target):
                vertices, edges = list(graph.vertices), [(e, (b, a)) for e, (a, b) in graph.edges]
                rng.shuffle(vertices)
                rng.shuffle(edges)
                twin = DualGraph(tuple(vertices), tuple(edges))
                assert twin == graph and twin is not graph and hash(twin) == hash(graph)
            registry = [[e, list(chain)] for e, chain in reversed(mod.chain_registry)]
            twin = Modification(DualGraph(mod.target.vertices, mod.target.edges),
                                DualGraph(mod.source.vertices, mod.source.edges), registry)
            assert twin == mod and twin.modified_edges == mod.modified_edges
            assert Multidegree(twin.source, dict(deg.values)) == deg

    def test_canonical_registry_is_kept(self):
        for mod, _ in self.random_objects():
            again = Modification(mod.target, mod.source, mod.chain_registry)
            assert again.chain_registry == mod.chain_registry and again == mod
        mod = modify(K4, {"cd": 2, "ab": 1})
        for spelling in ((("cd", ("cd#1", "cd#2")), ("ab", ("ab#1",))),
                         (("ab", ["ab#1"]), ("cd", ("cd#1", "cd#2"))),
                         {"ab": ("ab#1",), "cd": ("cd#1", "cd#2")},
                         ((e, list(chain)) for e, chain in reversed(mod.chain_registry))):
            assert Modification(K4, mod.source, spelling).chain_registry == mod.chain_registry

    def test_chain_vertex_with_wrong_neighbours(self):
        # valence 2 at the chain vertex, but both of its edges reach v
        bent = DualGraph(
            (("v", 0), ("w", 0), ("e1#1", 0)),
            (("e1#0-1", ("v", "e1#1")), ("e1#1-2", ("e1#1", "v")),
             ("e2", ("v", "w")), ("e3", ("v", "w"))),
        )
        with pytest.raises(ValueError, match="chain over 'e1' is not a path from 'v' to 'w'"):
            Modification(theta_graph(), bent, (("e1", ("e1#1",)),))


class TestModificationJson:
    def test_round_trip_without_source(self):
        mod = modify(theta_graph(), {"e1": 2, "e3": 1})
        assert Modification.from_json_dict(mod.to_json_dict()) == mod

    def test_round_trip_with_source(self):
        mod = modify(loop_vertex(), {"l": 2})
        data = mod.to_json_dict(include_source=True)
        assert Modification.from_json_dict(data) == mod

    def test_inconsistent_lengths_rejected(self):
        mod = modify(theta_graph(), {"e1": 2})
        data = mod.to_json_dict(include_source=True)
        data["modified_edges"] = [{"edge": "e1", "length": 1}]
        with pytest.raises(ValueError, match="disagrees"):
            Modification.from_json_dict(data)

    def test_malformed_payload(self):
        with pytest.raises(ValueError):
            Modification.from_json_dict({"target": theta_graph().to_json_dict()})
