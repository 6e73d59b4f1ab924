"""Polarizations, stability scans, balanced checks, enumeration."""

import functools
import random
import time
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import combinations, product
from math import ceil, floor

import pytest

from nodalcalc import (
    DualGraph,
    Multidegree,
    Polarization,
    SheafModel,
    admissibility,
    balanced_report,
    boundary_count,
    bundle_stability_report,
    canonical_polarization,
    certify_bijection,
    check_balanced,
    check_bundle_stability,
    check_sheaf_stability,
    chi_structure,
    chi_twisted,
    connected_subcurves,
    elliptic_bridge,
    enumerate_balanced,
    enumerate_semistable_models,
    modify,
    omega_multidegree,
    pushforward_model,
    sheaf_degree,
    sheaf_stability_report,
    small_modification,
    theta_graph,
)
from nodalcalc import stability
from nodalcalc.modifications import _series_reduction
from nodalcalc.stability import (
    _bounded_vectors, _boxes, _bundle_side, _cut_table, _lifted_rows,
    _canonical, _margins, _model_side, _series_cuts, _stability_test, _subcurve_table,
    _verdicts, _vertex_windows,
)
from nodalcalc.verify import random_stable_graph

K4 = DualGraph(
    tuple((v, 0) for v in "abcd"),
    tuple((a + b, (a, b)) for a, b in ("ab", "ac", "ad", "bc", "bd", "cd")),
)


def theta_model(noninvertible, v, w):
    deg = Multidegree(theta_graph(), (("v", v), ("w", w)))
    return SheafModel(theta_graph(), frozenset(noninvertible), deg)


class TestPolarization:
    def test_canonical_theta_degree_two(self):
        pol = canonical_polarization(theta_graph(), 2)
        assert pol.rank == 2
        assert pol.e.as_dict == {"v": -1, "w": -1}
        assert pol.compatible_with_degree(2)

    def test_canonical_banana_degree_zero(self):
        pol = canonical_polarization(elliptic_bridge(), 0)
        assert pol.rank == 2
        assert pol.e.as_dict == {"v": 1, "w": 1}

    def test_canonical_theta_degree_one(self):
        pol = canonical_polarization(theta_graph(), 1)
        assert pol.e.as_dict == {"v": 0, "w": 0}

    def test_rank_must_be_positive(self):
        e = Multidegree(theta_graph(), (("v", 0), ("w", 0)))
        with pytest.raises(ValueError):
            Polarization(0, e)

    @pytest.mark.parametrize("rank", [True, 2.0, "2"])
    def test_rank_must_be_an_int(self, rank):
        e = Multidegree(theta_graph(), (("v", -1), ("w", -1)))
        with pytest.raises(ValueError) as exc:
            Polarization(rank, e)
        assert str(exc.value) == f"polarization rank must be an integer, got {rank!r}"
        with pytest.raises(ValueError) as exc:
            Polarization.from_json_dict(theta_graph(), {"rank": rank, "e": {"v": -1, "w": -1}})
        assert str(exc.value) == f"polarization rank must be an integer, got {rank!r}"

    def test_low_genus_rejected(self):
        g = DualGraph((("v", 1),), ())
        with pytest.raises(ValueError):
            canonical_polarization(g, 0)

    def test_pullback_extends_by_zero(self):
        mod = modify(theta_graph(), {"e1": 1})
        pol = canonical_polarization(theta_graph(), 2)
        pulled = pol.pullback(mod)
        assert pulled.rank == 2
        assert pulled.e.as_dict == {"v": -1, "w": -1, "e1#1": 0}
        assert pulled.compatible_with_degree(2)

    def test_json_round_trip(self):
        pol = canonical_polarization(theta_graph(), 2)
        assert Polarization.from_json_dict(theta_graph(), pol.to_json_dict()) == pol


class TestChiTwisted:
    def test_plain_values(self):
        assert chi_twisted(1, 1, -1, 2) == 3
        assert chi_twisted(0, 0, 0, 7) == 0

    def test_theta_component(self):
        model = theta_model((), 1, 1)
        from nodalcalc import chi_structure, sheaf_degree

        z = {"v"}
        value = chi_twisted(
            sheaf_degree(model, z), chi_structure(theta_graph(), z), -1, 2
        )
        assert value == 3


class TestSheafStability:
    def test_balanced_model_is_stable(self):
        pol = canonical_polarization(theta_graph(), 2)
        assert check_sheaf_stability(theta_model((), 1, 1), pol, "stable")

    def test_skewed_model_fails(self):
        pol = canonical_polarization(theta_graph(), 2)
        assert not check_sheaf_stability(theta_model((), 3, -1), pol, "semistable")

    def test_node_model_is_stable(self):
        pol = canonical_polarization(theta_graph(), 2)
        assert check_sheaf_stability(theta_model(("e1",), 0, 1), pol, "stable")

    def test_polarization_on_another_graph_is_refused(self):
        pol = canonical_polarization(K4, 2)
        with pytest.raises(ValueError) as exc:
            check_sheaf_stability(theta_model((), 1, 1), pol)
        assert str(exc.value) == "polarization lives on a different graph"

    def test_quasistable_needs_base_vertex(self):
        pol = canonical_polarization(theta_graph(), 2)
        scan = sheaf_stability_report(theta_model((), 1, 1), pol)
        with pytest.raises(ValueError):
            scan.verdict("quasistable")

    def test_quasistable_base_vertex_must_be_a_vertex(self):
        # an unknown id lies in no subcurve, so it would give the
        # semistable verdict: (-1, 2) is semistable, not quasistable at v
        pol = canonical_polarization(theta_graph(), 1)
        model = theta_model((), -1, 2)
        assert check_sheaf_stability(model, pol, "semistable")
        assert not check_sheaf_stability(model, pol, "quasistable", "v")
        with pytest.raises(ValueError, match="not a vertex"):
            check_sheaf_stability(model, pol, "quasistable", "nosuch")
        deg = Multidegree(theta_graph(), (("v", -1), ("w", 2)))
        with pytest.raises(ValueError, match="not a vertex"):
            check_bundle_stability(deg, pol, "quasistable", "nosuch")

    def test_report_verdicts_check_the_base_vertex(self):
        # a report verdict once read an unknown id as lying in no subcurve,
        # and so gave the semistable verdict where check_* refuses the call
        pol = canonical_polarization(theta_graph(), 1)
        model = theta_model((), -1, 2)
        deg = Multidegree(theta_graph(), (("v", -1), ("w", 2)))
        for value, report, check in ((model, sheaf_stability_report, check_sheaf_stability),
                                     (deg, bundle_stability_report, check_bundle_stability)):
            scan = report(value, pol)
            assert scan.graph == theta_graph()
            assert scan.verdict("semistable") and not scan.verdict("quasistable", "v")
            with pytest.raises(ValueError) as want:
                check(value, pol, "quasistable", "zz")
            with pytest.raises(ValueError) as got:
                scan.verdict("quasistable", "zz")
            assert str(got.value) == str(want.value)
            assert str(got.value) == "base vertex 'zz' is not a vertex of the graph"

    def test_unknown_mode(self):
        pol = canonical_polarization(theta_graph(), 2)
        scan = sheaf_stability_report(theta_model((), 1, 1), pol)
        with pytest.raises(ValueError):
            scan.verdict("extremely-stable")

    def test_incompatible_polarization_rejected(self):
        pol = canonical_polarization(theta_graph(), 2)
        with pytest.raises(ValueError, match="incompatible"):
            sheaf_stability_report(theta_model((), 0, 1), pol)

    def test_quasistable_distinguishes_base(self):
        # degree 1, multidegree (-1, 2): equality exactly at {v}
        pol = canonical_polarization(theta_graph(), 1)
        model = theta_model((), -1, 2)
        scan = sheaf_stability_report(model, pol)
        assert scan.holds
        assert [sorted(z) for z in scan.equality_sites] == [["v"]]
        assert not scan.verdict("quasistable", "v")
        assert scan.verdict("quasistable", "w")


class TestSsI2:
    """Condition (ssI2), the degree bound d_Z - d omega_Z / (2g - 2) + k_Z / 2
    >= 0 on every proper connected subcurve, as balanced_report scans it."""

    def test_margin_interval(self):
        scan = balanced_report(theta_model((), 0, 2).multidegree).scan
        entry = {frozenset(z): m for z, m in scan.entries}
        assert entry[frozenset({"v"})] == Fraction(1, 2)

    def test_skewed_fails_at_w(self):
        scan = balanced_report(theta_model((), 3, -1).multidegree).scan
        assert [sorted(z) for z, _ in scan.failures] == [["w"]]

    def test_banana_strict(self):
        scan = balanced_report(Multidegree(elliptic_bridge(), (("v", 1), ("w", 1)))).scan
        assert scan.holds and not scan.equality_sites


class TestDegreeBound:
    """The degree-bound margins that balanced_report reads, against the chi
    margins of the reports."""

    def test_reports_match_the_subcurve_formulas(self):
        # Every scan entry, exactly and in order, against per-subcurve
        # formulas built from public functions that never read the
        # subcurve table; verdicts of the chi form against the
        # degree-bound form in every mode.
        rng = random.Random(20140604)
        cases = [
            (theta_graph(), [theta_model(nn, v, w) for nn in ((), ("e1",), ("e1", "e2"))
                             for v in range(-2, 4) for w in range(-2, 4)])
        ]
        graphs = [theta_graph(), elliptic_bridge(), K4]
        graphs += [random_stable_graph(rng, 5, 3) for _ in range(20)]
        for graph in graphs:
            edges = [e for e, _ in graph.edges]
            models = []
            for _ in range(4):
                deg = Multidegree(graph, {v: rng.randint(-2, 3) for v in graph.vertex_ids})
                models.append(
                    SheafModel(graph, frozenset(e for e in edges if rng.random() < 0.3), deg)
                )
            cases.append((graph, models))

        def degree_bound(graph, degree_on, d):
            omega = omega_multidegree(graph)
            scale = 2 * graph.genus - 2
            return tuple(
                (z, degree_on(z) - Fraction(d * omega.degree_on(z), scale)
                 + Fraction(boundary_count(graph, z), 2))
                for z in connected_subcurves(graph, proper=True)
            )

        def chi_margins(graph, degree_on, pol):
            return tuple(
                (z, chi_twisted(degree_on(z), chi_structure(graph, z),
                                pol.e.degree_on(z), pol.rank))
                for z in connected_subcurves(graph, proper=True)
            )

        for graph, models in cases:
            scale = 2 * graph.genus - 2
            for model in models:
                d = model.degree
                pol = canonical_polarization(graph, d)
                chi_scan = sheaf_stability_report(model, pol)
                on = functools.partial(sheaf_degree, model)
                assert chi_scan.entries == chi_margins(graph, on, pol)
                bound = stability.SubcurveScan(graph, degree_bound(graph, on, d))
                assert [m * scale for _, m in bound.entries] == [m for _, m in chi_scan.entries]
                for mode in ("semistable", "stable"):
                    assert chi_scan.verdict(mode) == bound.verdict(mode)
                for p in graph.vertex_ids:
                    assert chi_scan.verdict("quasistable", p) == bound.verdict("quasistable", p)

                # a bundle on a modification, against the pulled-back polarization
                lengths = {e: rng.randint(1, 2) for e in graph.edge_ends if rng.random() < 0.4}
                mod = modify(graph, lengths)
                src = mod.source
                deg = Multidegree(src, {v: rng.randint(-1, 2) for v in src.vertex_ids})
                pulled = canonical_polarization(graph, deg.total).pullback(mod)
                assert bundle_stability_report(deg, pulled).entries == chi_margins(
                    src, deg.degree_on, pulled
                )

                # a bundle on a small modification, balanced or not
                small = modify(graph, dict.fromkeys(lengths, 1))
                src = small.source
                exc = small.chain_vertices
                deg = Multidegree(src, {
                    v: 1 if v in exc and rng.random() < 0.9 else rng.randint(-1, 3)
                    for v in src.vertex_ids
                })
                report = balanced_report(deg)
                expected = degree_bound(src, deg.degree_on, deg.total)
                assert report.scan.entries == expected
                chi_src = bundle_stability_report(deg, canonical_polarization(src, deg.total))
                assert [m * scale for _, m in expected] == [m for _, m in chi_src.entries]
                balanced = all(m >= 0 for _, m in expected) and all(deg[v] == 1 for v in exc)
                whole = set(src.vertex_ids)
                stably = balanced and all(whole - z <= exc for z, m in expected if m == 0)
                assert report.verdict("balanced") == balanced
                assert report.verdict("stably_balanced") == stably


class TestBundleStability:
    def test_pulled_back_semistable(self):
        mod = modify(theta_graph(), {"e1": 1})
        deg = Multidegree(mod.source, (("v", 0), ("w", 1), ("e1#1", 1)))
        pol = canonical_polarization(theta_graph(), 2).pullback(mod)
        scan = bundle_stability_report(deg, pol)
        assert scan.verdict("semistable")

    def test_chain_component_equality_site(self):
        # a chain vertex carrying degree -1 sits exactly on the bound:
        # rank * (-1 + 1) + 0 = 0
        mod = modify(theta_graph(), {"e1": 1})
        deg = Multidegree(mod.source, (("v", 1), ("w", 2), ("e1#1", -1)))
        pol = canonical_polarization(theta_graph(), 2).pullback(mod)
        scan = bundle_stability_report(deg, pol)
        assert scan.holds
        assert [sorted(z) for z in scan.equality_sites] == [["e1#1"]]

    def test_skewed_pullback_fails(self):
        mod = modify(theta_graph(), {"e1": 1})
        deg = Multidegree(mod.source, (("v", 3), ("w", -2), ("e1#1", 1)))
        pol = canonical_polarization(theta_graph(), 2).pullback(mod)
        assert not check_bundle_stability(deg, pol, "semistable")


class TestBalanced:
    def test_theta_canonical_degree(self):
        deg = Multidegree(theta_graph(), (("v", 1), ("w", 1)))
        assert check_balanced(deg)
        assert check_balanced(deg, "stably_balanced")

    def test_subdivided_theta(self):
        mod = modify(theta_graph(), {"e1": 1})
        deg = Multidegree(mod.source, (("v", 0), ("w", 1), ("e1#1", 1)))
        report = balanced_report(deg)
        assert report.verdict("balanced")
        # equality exactly at the complement of the exceptional vertex
        assert frozenset({"v", "w"}) in report.scan.equality_sites
        assert report.verdict("stably_balanced")

    def test_unbalanced_multidegree(self):
        mod = modify(theta_graph(), {"e1": 1})
        deg = Multidegree(mod.source, (("v", 2), ("w", -1), ("e1#1", 1)))
        assert not check_balanced(deg)

    def test_exceptional_degree_must_be_one(self):
        mod = modify(theta_graph(), {"e1": 1})
        deg = Multidegree(mod.source, (("v", 1), ("w", 1), ("e1#1", 0)))
        report = balanced_report(deg)
        assert report.exceptional_violations == ("e1#1",)
        assert not report.verdict("balanced")

    def test_semistable_graph_rejected(self):
        y = modify(theta_graph(), {"e1": 2}).source
        deg = Multidegree(y, (("v", 0), ("w", 0), ("e1#1", 1), ("e1#2", 1)))
        with pytest.raises(ValueError, match="quasistable"):
            balanced_report(deg)

    def test_low_genus_rejected(self):
        g = DualGraph((("v", 1),), ())
        deg = Multidegree(g, (("v", 1),))
        with pytest.raises(ValueError, match="genus"):
            balanced_report(deg)

    def test_unknown_mode(self):
        # one message wherever a balanced mode is read
        deg = Multidegree(theta_graph(), (("v", 1), ("w", 1)))
        for call in (lambda: check_balanced(deg, "perfectly_balanced"),
                     lambda: enumerate_balanced(theta_graph(), 2, "perfectly_balanced"),
                     lambda: certify_bijection(theta_graph(), 2, "perfectly_balanced")):
            with pytest.raises(ValueError) as exc:
                call()
            assert str(exc.value) == "unknown balanced mode 'perfectly_balanced'"


class TestEnumeration:
    def test_genus_one_is_refused(self):
        curve = DualGraph((("v", 1),), ())
        with pytest.raises(ValueError) as exc:
            enumerate_semistable_models(curve, 0)
        assert str(exc.value) == "enumeration requires genus at least 2"

    def test_non_int_degree_is_refused(self):
        for d in (2.0, 2.5, True, "2", None):
            for call in (lambda: enumerate_semistable_models(theta_graph(), d),
                         lambda: enumerate_semistable_models(K4, d, "quasistable", "a"),
                         lambda: enumerate_balanced(theta_graph(), d),
                         lambda: enumerate_balanced(K4, d, "stably_balanced"),
                         lambda: canonical_polarization(theta_graph(), d)):
                with pytest.raises(ValueError) as exc:
                    call()
                assert str(exc.value) == f"degree must be an integer, got {d!r}"
        assert len(enumerate_semistable_models(theta_graph(), 2)) == 12

    def test_theta_semistable_count_and_split(self):
        models = enumerate_semistable_models(theta_graph(), 2)
        assert len(models) == 12
        by_size = {}
        for m in models:
            by_size.setdefault(len(m.noninvertible), []).append(m)
        assert {k: len(v) for k, v in sorted(by_size.items())} == {0: 3, 1: 6, 2: 3}

    def test_theta_stable_same_twelve(self):
        semis = enumerate_semistable_models(theta_graph(), 2)
        stables = enumerate_semistable_models(theta_graph(), 2, "stable")
        assert semis == stables

    def test_banana_unique_model(self):
        models = enumerate_semistable_models(elliptic_bridge(), 2)
        assert models == [
            SheafModel(
                elliptic_bridge(),
                frozenset(),
                Multidegree(elliptic_bridge(), (("v", 1), ("w", 1))),
            )
        ]
        assert enumerate_semistable_models(elliptic_bridge(), 2, "stable") == models

    def test_theta_balanced_pairs(self):
        pairs = enumerate_balanced(theta_graph(), 2)
        assert len(pairs) == 12
        # 3 on the curve itself, 2 per single subdivision, 1 per double
        by_edges = {}
        for mod, _ in pairs:
            by_edges.setdefault(len(mod.modified_edges), 0)
            by_edges[len(mod.modified_edges)] += 1
        assert by_edges == {0: 3, 1: 6, 2: 3}

    def test_theta_stably_balanced_all_twelve(self):
        assert len(enumerate_balanced(theta_graph(), 2, "stably_balanced")) == 12

    def test_banana_single_pair(self):
        pairs = enumerate_balanced(elliptic_bridge(), 2)
        assert len(pairs) == 1
        mod, deg = pairs[0]
        assert mod.modified_edges == frozenset()
        assert deg.as_dict == {"v": 1, "w": 1}

    def test_every_enumerated_model_verifies(self):
        for d in (-1, 0, 3):
            pol = canonical_polarization(theta_graph(), d)
            for model in enumerate_semistable_models(theta_graph(), d):
                assert sheaf_stability_report(model, pol).holds

    def test_every_balanced_pair_verifies(self):
        for d in (0, 2):
            for mod, deg in enumerate_balanced(theta_graph(), d):
                assert check_balanced(deg)

    def test_requires_stable_graph(self):
        y = modify(theta_graph(), {"e1": 1}).source
        with pytest.raises(ValueError, match="stable"):
            enumerate_semistable_models(y, 2)
        with pytest.raises(ValueError, match="stable"):
            enumerate_balanced(y, 2)

    def test_deterministic_order(self):
        a = enumerate_semistable_models(theta_graph(), 2)
        b = enumerate_semistable_models(theta_graph(), 2)
        assert a == b

    def test_mode_checked_before_graph_and_candidates(self):
        # the source of a modification is not stable, so a later check
        # would report the graph instead of the mode
        y = modify(theta_graph(), {"e1": 1}).source
        with pytest.raises(ValueError, match="unknown stability mode"):
            enumerate_semistable_models(y, 2, "unstable")
        with pytest.raises(ValueError, match="base vertex"):
            enumerate_semistable_models(y, 2, "quasistable")
        with pytest.raises(ValueError, match="not a vertex"):
            enumerate_semistable_models(y, 2, "quasistable", "nosuch")
        with pytest.raises(ValueError, match="unknown balanced mode"):
            enumerate_balanced(y, 2, "unbalanced")

    def test_too_many_edge_subsets(self, monkeypatch):
        # 2^21 non-invertible sets, refused before any subset is built
        dense = DualGraph((("v", 0), ("w", 0)),
                          tuple((f"e{i:02d}", ("v", "w")) for i in range(21)))

        def no_subsets(*args):
            raise AssertionError("an edge subset was built")

        monkeypatch.setattr("nodalcalc.stability.combinations", no_subsets)
        for enumerate_ in (enumerate_semistable_models, enumerate_balanced):
            with pytest.raises(ValueError, match="21 edges, more than 1048576 edge subsets"):
                enumerate_(dense, dense.genus)
        monkeypatch.undo()
        # the bound is on subsets: 2^3 of theta's pass a bound of 8, 2^4 do not
        monkeypatch.setattr("nodalcalc.stability._MAX_EDGE_SUBSETS", 8)
        assert len(enumerate_semistable_models(theta_graph(), 2)) == 12
        four = DualGraph((("v", 0), ("w", 0)), tuple((f"e{i}", ("v", "w")) for i in range(4)))
        with pytest.raises(ValueError, match="too many to enumerate"):
            enumerate_balanced(four, 3)

    def test_enumerations_match_report_path(self):
        # Oracle for the enumerators' early exit on integer margins: every
        # candidate of a box built here from the one-vertex degree bound
        # alone goes through the full report and its verdict.
        rng = random.Random(20140605)
        cases = [(g, d) for g in (theta_graph(), elliptic_bridge(), K4) for d in range(2, 6)]
        for _ in range(10):
            graph = random_stable_graph(rng, 4, 3)
            cases.append((graph, graph.genus + rng.randint(-1, 1)))

        def edge_subsets(graph):
            ids = sorted(graph.edge_ends)
            return sorted(c for r in range(len(ids) + 1) for c in combinations(ids, r))

        def box(graph, vids, d, budget, internal):
            # d_v + internal nodes at v >= d omega_v / (2g - 2) - k_v / 2
            scale = 2 * graph.genus - 2
            lows = [ceil(Fraction(d * graph.omega_degree(v), scale)
                         - Fraction(boundary_count(graph, (v,)), 2)) - internal.get(v, 0)
                    for v in vids]
            ranges = [range(lo, budget - (sum(lows) - lo) + 1) for lo in lows]
            return [vec for vec in product(*ranges) if sum(vec) == budget]

        for graph, d in cases:
            vids = list(graph.vertex_ids)
            pol = canonical_polarization(graph, d)
            sheaf_modes = [("semistable", None), ("stable", None)]
            sheaf_modes += [("quasistable", p) for p in vids]
            models = {key: [] for key in sheaf_modes}
            pairs = {"balanced": [], "stably_balanced": []}
            for subset in edge_subsets(graph):
                loops = {}
                for e in subset:
                    a, b = graph.edge_ends[e]
                    if a == b:
                        loops[a] = loops.get(a, 0) + 1
                for vec in box(graph, vids, d, d - len(subset), loops):
                    model = SheafModel(graph, frozenset(subset),
                                       Multidegree(graph, tuple(zip(vids, vec))))
                    scan = sheaf_stability_report(model, pol)
                    for key in sheaf_modes:
                        if scan.verdict(*key):
                            models[key].append(model)
                mod = small_modification(graph, subset)
                chain = sorted(mod.chain_vertices)
                plain = [v for v in mod.source.vertex_ids if v not in mod.chain_vertices]
                for vec in box(mod.source, plain, d, d - len(chain), {}):
                    deg = Multidegree(mod.source, tuple(zip(plain, vec)) + tuple(
                        (c, 1) for c in chain))
                    report = balanced_report(deg)
                    for mode, found in pairs.items():
                        if report.verdict(mode):
                            found.append((mod, deg))
            for key, expected in models.items():
                assert enumerate_semistable_models(graph, d, *key) == expected, (graph, d, key)
            for mode, expected in pairs.items():
                assert enumerate_balanced(graph, d, mode) == expected, (graph, d, mode)


# A stable graph with a cut vertex: the complement of {c} is {a, b}, not connected
CUT_VERTEX = DualGraph((("a", 1), ("b", 1), ("c", 0)),
                       (("ca", ("c", "a")), ("cb", ("c", "b")), ("cc", ("c", "c"))))


class TestLiftedRows:
    """Cut rows lifted from the target decide a small modification's balanced scans.

    Oracles: the source's own table and margins, and the full-table report path.
    """

    @staticmethod
    def cases():
        cases = [(g, d) for g in (theta_graph(), elliptic_bridge(), K4, CUT_VERTEX)
                 for d in range(g.genus - 1, 6)]
        rng = random.Random(1994)
        for _ in range(10):
            graph = random_stable_graph(rng, 4, 3)
            cases += [(graph, d) for d in range(graph.genus - 1, graph.genus + 2)]
        return cases

    @staticmethod
    def modifications(graph):
        ids = sorted(graph.edge_ends)
        for r in range(len(ids) + 1):
            for subset in combinations(ids, r):
                yield small_modification(graph, subset)

    @staticmethod
    def box(mod, d):
        # plain vertices over the balanced window's lower bounds, chain vertices at 1
        source, chain = mod.source, sorted(mod.chain_vertices)
        plain = [v for v in source.vertex_ids if v not in mod.chain_vertices]
        scale = 2 * source.genus - 2
        budget = d - len(chain)
        lows = [ceil(Fraction(d * source.omega_degree(v), scale)
                     - Fraction(boundary_count(source, (v,)), 2)) for v in plain]
        ranges = [range(lo, budget - (sum(lows) - lo) + 1) for lo in lows]
        for vec in product(*ranges):
            if sum(vec) == budget:
                yield Multidegree(source, tuple(zip(plain, vec)) + tuple((c, 1) for c in chain))

    def test_rows_are_the_reduced_source_rows(self):
        # A source row is reduced when each chain vertex is in it exactly when
        # both ends of its edge are.  The lifted rows are one side of each
        # pair (z, reduced complement of z) of reduced rows, with the source's
        # chi, and rank k is the margin of z plus that of the other side.  The
        # reduced complement drops the chain vertices of edges crossing z.
        graphs = {g for g, _ in self.cases()}
        for graph in graphs:
            for mod in self.modifications(graph):
                source = mod.source
                full = {z: chi for z, chi, _ in _subcurve_table(source)}
                ends = mod.target.edge_ends
                chains = [(ends[e], c) for e, (c,) in mod.chain_registry]

                def reduce(z):
                    return frozenset(v for v in z if all(
                        v != c or (a in z and b in z) for (a, b), c in chains))

                whole = frozenset(source.vertex_ids)
                reduced = {z for z in full
                           if all((a in z and b in z) == (c in z) for (a, b), c in chains)
                           and reduce(whole - z) in full}
                rows = _lifted_rows(mod, _cut_table(mod.target).rows)
                sides = [(z, reduce(whole - z)) for z, _, _, _ in rows]
                covered = [z for pair in sides for z in pair]
                assert len(set(covered)) == len(covered) == len(reduced)
                assert set(covered) == reduced, (graph, mod.modified_edges)
                d = graph.genus
                pol = canonical_polarization(source, d)
                deg = Multidegree(source, {v: 1 if v in mod.chain_vertices else 0
                                           for v in source.vertex_ids} | {
                    graph.vertex_ids[0]: d - sum(1 for v in source.vertex_ids
                                                 if v in mod.chain_vertices)})
                margin = dict(bundle_stability_report(deg, pol).entries)
                for (z, chi, k, _), (_, other) in zip(rows, sides):
                    assert full[z] == chi, (graph, mod.modified_edges, z)
                    assert pol.rank * k == margin[z] + margin[other], (graph, z)

    def test_lifted_verdicts_match_the_full_table(self):
        checked, outcomes = 0, set()
        for graph, d in self.cases():
            scale = 2 * graph.genus - 2
            for mod in self.modifications(graph):
                source = mod.source
                rows = _lifted_rows(mod, _cut_table(mod.target).rows)
                e_values = {v: (graph.genus - 1 - d) * source.omega_degree(v)
                            for v in source.vertex_ids}
                for deg in self.box(mod, d):
                    report = balanced_report(deg)
                    for mode, sheaf_mode in (("balanced", "semistable"),
                                             ("stably_balanced", "stable")):
                        ok = _stability_test(sheaf_mode, None, source)
                        margins = _margins(rows, source.edge_ends, dict(deg.as_dict), (),
                                           scale, e_values)
                        lifted = all(ok(*row) for row in margins)
                        assert lifted == report.verdict(mode), (graph, d, mode, deg.as_dict)
                        outcomes.add((mode, lifted))
                        checked += 1
        assert checked > 5000
        assert len(outcomes) == 4


class TestCutWindows:
    """check_* read one two-sided window per cut; the reports read every subcurve.

    Oracle: the full-table report's verdict, in every mode and at every
    quasistable base vertex, on every candidate of boxes that reach one
    past each single-vertex bound.
    """

    @staticmethod
    def graphs():
        rng = random.Random(2014)
        draws = [random_stable_graph(rng, 4, 3) for _ in range(12)]
        return [theta_graph(), elliptic_bridge(), K4, CUT_VERTEX] + draws

    @staticmethod
    def window_box(graph, vertices, d, budget, loops):
        """Degree vectors over ``vertices`` summing to budget, one past each end
        of every single-vertex degree bound less the loops of N there, so the
        box holds failing candidates."""
        scale = 2 * graph.genus - 2
        ranges = []
        for v in vertices:
            center = Fraction(d * graph.omega_degree(v), scale)
            half = Fraction(boundary_count(graph, (v,)), 2)
            shift = loops.get(v, 0)
            ranges.append(range(ceil(center - half) - shift - 1, floor(center + half) - shift + 2))
        return [vec for vec in product(*ranges) if sum(vec) == budget]

    @staticmethod
    def modes(graph):
        return [("semistable", None), ("stable", None)] + [
            ("quasistable", p) for p in graph.vertex_ids]

    def test_graphs_have_cuts_with_disconnected_complements(self):
        def disconnected(graph):
            whole = frozenset(graph.vertex_ids)
            sides = {z for z, _, _ in _subcurve_table(graph)}
            return sum(whole - z not in sides for z in sides)
        assert disconnected(CUT_VERTEX) == 1
        assert sum(map(disconnected, self.graphs())) >= 10

    def test_sheaf_windows_match_the_report(self):
        checked, outcomes = 0, set()
        for graph in self.graphs():
            vids = graph.vertex_ids
            ids = sorted(graph.edge_ends)
            subsets = [c for r in range(len(ids) + 1) for c in combinations(ids, r)]
            for d in range(graph.genus - 2, graph.genus + 2):
                pol = canonical_polarization(graph, d)
                for subset in subsets:
                    loops = {}
                    for e in subset:
                        a, b = graph.edge_ends[e]
                        if a == b:
                            loops[a] = loops.get(a, 0) + 1
                    for vec in self.window_box(graph, vids, d, d - len(subset), loops):
                        model = SheafModel(graph, frozenset(subset),
                                           Multidegree(graph, tuple(zip(vids, vec))))
                        report = sheaf_stability_report(model, pol)
                        for mode in self.modes(graph):
                            verdict = check_sheaf_stability(model, pol, *mode)
                            assert verdict == report.verdict(*mode), (graph, d, mode, model)
                            outcomes.add((mode[0], verdict))
                            checked += 1
        assert checked > 35000
        assert len(outcomes) == 6

    def test_bundle_windows_match_the_report(self):
        # modification sources, with chains that leave disconnected
        # complements everywhere, under pulled-back and random compatible
        # polarizations
        rng = random.Random(1994)
        checked, outcomes = 0, set()
        for graph in self.graphs():
            for _ in range(6):
                lengths = {e: rng.randint(1, 3) for e in graph.edge_ends if rng.random() < 0.5}
                mod = modify(graph, lengths)
                src = mod.source
                for d in range(graph.genus - 2, graph.genus + 2):
                    rank = rng.randint(1, 3)
                    e = {v: rng.randint(-3, 3) for v in src.vertex_ids}
                    e[src.vertex_ids[0]] -= rank * (d + 1 - graph.genus) + sum(e.values())
                    pols = [canonical_polarization(graph, d).pullback(mod),
                            Polarization(rank, Multidegree(src, e))]
                    for _ in range(10):
                        vals = {v: rng.randint(-1, 2) for v in src.vertex_ids}
                        vals[src.vertex_ids[-1]] += d - sum(vals.values())
                        deg = Multidegree(src, vals)
                        for pol in pols:
                            report = bundle_stability_report(deg, pol)
                            for mode in self.modes(src):
                                verdict = check_bundle_stability(deg, pol, *mode)
                                assert verdict == report.verdict(*mode), (src, mode, deg)
                                outcomes.add((mode[0], verdict))
                                checked += 1
        assert checked > 35000
        assert len(outcomes) == 6


    def test_verdicts_stop_at_the_first_failing_window(self, monkeypatch):
        # all of K6's degree on one vertex fails its first cut window; an eager
        # list of the windows would read all 31 cuts, in every mode
        k6 = DualGraph(tuple((v, 0) for v in "abcdef"),
                       tuple((a + b, (a, b)) for a, b in combinations("abcdef", 2)))
        cut_windows, read = stability._cut_windows, []

        def spy(*args):
            for window in cut_windows(*args):
                read.append(window)
                yield window

        monkeypatch.setattr(stability, "_cut_windows", spy)
        assert len(_cut_table(k6).rows) == 31
        pol = canonical_polarization(k6, 20)
        deg = Multidegree(k6, dict.fromkeys(k6.vertex_ids, 0) | {"a": 20})
        model = SheafModel(k6, frozenset({"bc"}), Multidegree(k6, deg.as_dict | {"a": 19}))
        for value, check in ((deg, check_bundle_stability), (model, check_sheaf_stability)):
            for mode in self.modes(k6):
                read.clear()
                assert not check(value, pol, *mode)
                assert len(read) == 1, (check, mode)

    def test_mode_refused_before_the_polarization(self):
        pol = canonical_polarization(theta_graph(), 3)  # incompatible with degree 2
        model = theta_model((), 1, 1)
        deg = model.multidegree
        for value, check in ((model, check_sheaf_stability), (deg, check_bundle_stability)):
            with pytest.raises(ValueError, match="unknown stability mode"):
                check(value, pol, "unstable")
            with pytest.raises(ValueError, match="not a vertex"):
                check(value, pol, "quasistable", "nosuch")
            with pytest.raises(ValueError, match="incompatible"):
                check(value, pol, "stable")


class TestSingleVertexEnumeration:
    def test_irreducible_genus_two(self):
        g = DualGraph((("v", 2),), ())
        models = enumerate_semistable_models(g, 3)
        assert [m.multidegree.as_dict for m in models] == [{"v": 3}]

    def test_loop_graph(self):
        g = DualGraph((("v", 1),), (("l", ("v", "v")),))
        models = enumerate_semistable_models(g, 2)
        degrees = sorted(
            (sorted(m.noninvertible), m.multidegree["v"]) for m in models
        )
        assert degrees == [([], 2), (["l"], 1)]

    def test_every_mode_agrees_without_proper_subcurves(self):
        # a lone vertex is the whole curve: no row, so no tie rule applies
        for g, d in ((DualGraph((("v", 2),), ()), 3),
                     (DualGraph((("v", 1),), (("l", ("v", "v")),)), 2)):
            models = enumerate_semistable_models(g, d)
            assert models
            assert enumerate_semistable_models(g, d, "stable") == models
            assert enumerate_semistable_models(g, d, "quasistable", "v") == models


class TestSeriesCuts:
    """Cut tables of graphs with exceptional chains, read off their series reduction.

    Oracles: the cuts of the full subcurve table, with chi from that table
    and k from ``boundary_count``, and the full-table report's verdicts.
    """

    @staticmethod
    def loop_targets():
        # one-vertex targets: a genus-1 vertex with a loop, a rational vertex with two
        return [DualGraph((("v", 1),), (("l", ("v", "v")),)),
                DualGraph((("v", 0),), (("l1", ("v", "v")), ("l2", ("v", "v"))))]

    @classmethod
    def sources(cls, longest=4):
        """Modifications with chains of length 1..longest on every edge set of
        theta, the elliptic bridge, CUT_VERTEX (two bridges and a loop) and the
        one-vertex targets; on K4 with one length per edge set, up to 8 chain
        vertices; and on 40 seeded random stable graphs."""
        mods = []
        for graph in [theta_graph(), elliptic_bridge(), CUT_VERTEX] + cls.loop_targets():
            ids = sorted(graph.edge_ends)
            for lengths in product(range(longest + 1), repeat=len(ids)):
                mods.append(modify(graph, {e: k for e, k in zip(ids, lengths) if k}))
        ids = sorted(K4.edge_ends)
        for r in range(1, len(ids) + 1):
            for subset in combinations(ids, r):
                mods += [modify(K4, dict.fromkeys(subset, k))
                         for k in range(1, longest + 1) if k * r <= 8]
        rng = random.Random(2609)
        for _ in range(40):
            graph = random_stable_graph(rng, 5, 4)
            mods.append(modify(graph, {e: rng.randint(1, longest)
                                       for e in graph.edge_ends if rng.random() < 0.5}))
        return [mod.source for mod in mods if mod.chain_registry]

    @staticmethod
    def expand(graph, table):
        """One row (Z, chi, k) per side of each chain row, one part per arm for
        every pick, then every interval of each interval record; checks that
        each arm is a path of the graph whose one edge after the part crosses
        Z, from its end in W.  A row with no arms is its one side."""
        ends = graph.edge_ends
        for w, chi, k, arms in table.rows:
            paths = []
            for a in arms:
                vertices, edges = table.chains[a // 2]
                paths.append((vertices, edges) if a % 2 == 0 else (vertices[::-1], edges[::-1]))
            for vertices, edges in paths:
                assert len(edges) == len(vertices) + 1, (graph, vertices)
                for t, c in enumerate(vertices):
                    assert c in ends[edges[t]] and c in ends[edges[t + 1]], (graph, vertices)
                    assert edges[t] != edges[t + 1]
                assert set(ends[edges[0]]) & w and not set(ends[edges[-1]]) & w, (graph, w)
            for pick in product(*(range(len(vertices) + 1) for vertices, _ in paths)):
                z = w.union(*(vertices[:j] for (vertices, _), j in zip(paths, pick)))
                for (vertices, edges), j in zip(paths, pick):
                    a, b = ends[edges[j]]
                    assert (a in z) != (b in z) and not z & set(vertices[j:]), (graph, z)
                yield z, chi, k
        for i in table.intervals:
            vertices = table.chains[i][0]
            for lo in range(len(vertices)):
                for hi in range(lo + 1, len(vertices) + 1):
                    yield frozenset(vertices[lo:hi]), 1, 2

    @classmethod
    def assert_cuts_match_the_full_table(cls, graph, table=None):
        full = {z: chi for z, chi, _ in _subcurve_table(graph)}
        whole = frozenset(graph.vertex_ids)
        want = {frozenset((z, whole - z)) for z in full if whole - z in full}
        rows = list(cls.expand(graph, _cut_table(graph) if table is None else table))
        got = [frozenset((z, whole - z)) for z, _, _ in rows]
        assert len(got) == len(set(got)), graph
        assert set(got) == want, graph
        for z, chi, k in rows:
            assert (chi, k) == (full[z], boundary_count(graph, z)), (graph, z)

    def test_derived_tables_match_the_full_table(self):
        # row by row: the chain rows, expanded one side per pick, against the
        # cuts of the full subcurve table
        sources = self.sources()
        assert len(sources) > 450
        for source in sources:
            assert _cut_table(source) == _series_cuts(source, *_series_reduction(source))
            self.assert_cuts_match_the_full_table(source)

    def test_modification_sources_read_their_targets(self):
        # the bond lemma along a modification's registered chains, over the
        # target's own cut table, as check_famchain2_instance reads it
        rng = random.Random(3120)
        checked = 0
        for _ in range(60):
            graph = random_stable_graph(rng, 5, 4)
            mod = modify(graph, {e: rng.randint(1, 3)
                                 for e in graph.edge_ends if rng.random() < 0.6})
            rows = _series_cuts(mod.source, mod.target, mod.chain_registry)
            self.assert_cuts_match_the_full_table(mod.source, rows)
            checked += bool(mod.chain_registry)
        assert checked > 40

    def test_a_target_with_chains_leaves_the_source_its_own_table(self):
        # the bond lemma reads a modification's source off a target with no
        # chains; a quasistable target's exceptional vertex lies on a chain of
        # the source's own table, which the source keeps
        target = modify(theta_graph(), {"e1": 1}).source
        mod = modify(target, {"e2": 1})
        assert _cut_table(target).chains
        rows = _series_cuts(mod.source, mod.target, mod.chain_registry)
        assert rows == _cut_table(mod.source)
        self.assert_cuts_match_the_full_table(mod.source, rows)

    def test_intervals_and_bridges(self):
        # the elliptic bridge's edge is a bridge: its chain has no interval record,
        # while each of theta's chains has one, standing for its m (m + 1) / 2 intervals
        bridge = modify(elliptic_bridge(), {"e1": 3}).source
        table = _cut_table(bridge)
        rows = list(self.expand(bridge, table))
        assert len(table.rows) == 1 and table.intervals == ()
        assert all(len(z & {"v", "w"}) == 1 for z, _, _ in rows)
        assert len(rows) == 4
        theta = modify(theta_graph(), {"e1": 3}).source
        table = _cut_table(theta)
        assert len(table.rows) == 1 and table.intervals == (0,)
        assert table.chains == ((("e1#1", "e1#2", "e1#3"),
                                 ("e1#0-1", "e1#1-2", "e1#2-3", "e1#3-4")),)
        assert table.rows == ((frozenset({"v"}), 1, 3, (0,)),)
        intervals = [row for row in self.expand(theta, table) if not row[0] & {"v", "w"}]
        assert sorted(intervals, key=lambda row: sorted(row[0])) == [
            (frozenset(c), 1, 2) for c in (["e1#1"], ["e1#1", "e1#2"],
                                           ["e1#1", "e1#2", "e1#3"], ["e1#2"],
                                           ["e1#2", "e1#3"], ["e1#3"])]

    def test_fallback_graphs_keep_the_smaller_side(self):
        # class "none" (a rational tail) and one exceptional cycle, which has
        # no series reduction, plus stable graphs: the full-table rows
        tail = DualGraph((("a", 2), ("t", 0)), (("at", ("a", "t")),))
        cycle = DualGraph(tuple((v, 0) for v in "abc"),
                          (("ab", ("a", "b")), ("bc", ("b", "c")), ("ca", ("c", "a"))))
        for graph in (tail, cycle, theta_graph(), K4, CUT_VERTEX):
            self.assert_cuts_match_the_full_table(graph)
            table, n, first = _cut_table(graph), len(graph.vertex_ids), graph.vertex_ids[0]
            assert table.chains == table.intervals == () and table.rows, graph
            assert {arms for _, _, _, arms in table.rows} == {()}, graph
            assert all(2 * len(z) < n or 2 * len(z) == n and first in z
                       for z, _, _, _ in table.rows), graph

    def test_bundle_verdicts_match_the_report(self):
        # every mode and every base vertex, chain vertices included, under the
        # pulled-back canonical polarization and a random compatible one
        rng = random.Random(1994)
        checked, outcomes = 0, set()
        for src in self.sources(longest=2):
            if src.genus < 2 or rng.random() < 0.5:
                continue
            d = rng.randint(src.genus - 2, src.genus + 1)
            rank = rng.randint(1, 3)
            e = {v: rng.randint(-3, 3) for v in src.vertex_ids}
            e[src.vertex_ids[0]] -= rank * (d + 1 - src.genus) + sum(e.values())
            pols = [canonical_polarization(src, d), Polarization(rank, Multidegree(src, e))]
            for _ in range(3):
                vals = {v: rng.randint(-1, 2) for v in src.vertex_ids}
                vals[src.vertex_ids[-1]] += d - sum(vals.values())
                deg = Multidegree(src, vals)
                for pol in pols:
                    report = bundle_stability_report(deg, pol)
                    for mode in TestCutWindows.modes(src):
                        verdict = check_bundle_stability(deg, pol, *mode)
                        assert verdict == report.verdict(*mode), (src, mode, deg)
                        outcomes.add((mode[0], verdict))
                        checked += 1
        assert checked > 5000
        assert len(outcomes) == 6

    @staticmethod
    def centered(rng, graph, subset, pol, d):
        """Degrees near the middle of each one-vertex window under N, summing to
        d - |N|, so many models pass and their verdicts turn on single sides."""
        ends = [graph.edge_ends[e] for e in subset]
        values = {}
        for v in graph.vertex_ids:
            loops = graph.loops_at(v)
            crossing = sum((a == v) != (b == v) for a, b in ends)
            inside = sum(a == v == b for a, b in ends)
            middle = ((graph.valence(v) - 2 * loops - crossing) / 2
                      - (1 - graph.genus_of(v) - loops) - pol.e[v] / pol.rank - inside)
            values[v] = round(middle + rng.uniform(-0.7, 0.7))
        while (gap := d - len(subset) - sum(values.values())) != 0:
            values[rng.choice(graph.vertex_ids)] += 1 if gap > 0 else -1
        return values

    def test_sheaf_verdicts_match_the_report(self):
        # non-invertible sets holding chain edges, every mode, every base vertex
        # (chain vertices included), under random compatible polarizations
        rng = random.Random(2718)
        checked, outcomes, chain_nodes = 0, Counter(), 0
        for src in self.sources(longest=2):
            ids = sorted(src.edge_ends)
            for _ in range(4):
                subset = frozenset(e for e in ids if rng.random() < 0.3)
                chain_nodes += any("#" in e for e in subset)
                d = rng.randint(src.genus - 2, src.genus + 1)
                rank = rng.randint(1, 3)
                e = {v: rng.randint(-3, 3) for v in src.vertex_ids}
                e[src.vertex_ids[0]] -= rank * (d + 1 - src.genus) + sum(e.values())
                pol = Polarization(rank, Multidegree(src, e))
                vals = self.centered(rng, src, subset, pol, d)
                model = SheafModel(src, subset, Multidegree(src, vals))
                report = sheaf_stability_report(model, pol)
                for mode in TestCutWindows.modes(src):
                    verdict = check_sheaf_stability(model, pol, *mode)
                    assert verdict == report.verdict(*mode), (src, mode, model)
                    outcomes[mode[0], verdict] += 1
                    checked += 1
        assert checked > 5000 and chain_nodes > 500, (checked, chain_nodes)
        assert len(outcomes) == 6 and min(outcomes.values()) > 50, outcomes


    def test_long_chain_verdicts_match_the_report(self):
        # chains of 3 to 5 vertices, so a base vertex inside a chain leaves
        # intervals on both of its sides; bundles and sheaves with nodes on the
        # chains, random compatible polarizations with e nonzero on the chains,
        # every mode at every base vertex.  Decisive: verdicts that differ once
        # the interval records are dropped, and once the chain rows are, with
        # the base vertex inside a chain and elsewhere.
        rng = random.Random(3141)
        checked, outcomes, decisive, inside = 0, Counter(), Counter(), 0
        for _ in range(100):
            graph = random_stable_graph(rng, 3, 3)
            while not graph.edges:
                graph = random_stable_graph(rng, 3, 3)
            ids = sorted(graph.edge_ends)
            picked = [e for e in ids if rng.random() < 0.5] or [rng.choice(ids)]
            mod = modify(graph, {e: rng.randint(3, 5) for e in picked})
            src, table = mod.source, _cut_table(mod.source)
            inner = {c for _, chain in mod.chain_registry for c in chain[1:-1]}
            for _ in range(4):
                d = rng.randint(src.genus - 2, src.genus + 1)
                rank = rng.randint(1, 3)
                e = {v: rng.randint(-3, 3) for v in src.vertex_ids}
                e[graph.vertex_ids[0]] -= rank * (d + 1 - src.genus) + sum(e.values())
                pol = Polarization(rank, Multidegree(src, e))
                subset = frozenset(f for f in sorted(src.edge_ends) if rng.random() < 0.2)
                vals = self.centered(rng, src, subset, pol, d)
                # along each chain, the running sum of d + e / rank + nodes near 0, so
                # its interval sums stay near their middles; now and then one off
                for _, chain in mod.chain_registry:
                    running = 0
                    for c in chain:
                        step = e[c] / rank + sum(f in subset for f, _ in src.incidence[c]) / 2
                        off = rng.choice((-1, 1)) if rng.random() < 0.1 else 0
                        vals[c] = round(-running - step) + off
                        running += vals[c] + step
                while (gap := d - len(subset) - sum(vals.values())) != 0:
                    vals[rng.choice(graph.vertex_ids)] += 1 if gap > 0 else -1
                model = SheafModel(src, subset, Multidegree(src, vals))
                bundle_vals = dict(vals)
                bundle_vals[graph.vertex_ids[0]] += len(subset)
                deg = Multidegree(src, bundle_vals)
                for value, values, nodes, check, report in (
                        (model, vals, subset, check_sheaf_stability,
                         sheaf_stability_report(model, pol)),
                        (deg, bundle_vals, (), check_bundle_stability,
                         bundle_stability_report(deg, pol))):
                    for mode in TestCutWindows.modes(src):
                        verdict = check(value, pol, *mode)
                        assert verdict == report.verdict(*mode), (src, mode, value)
                        outcomes[mode[0], verdict] += 1
                        checked += 1
                        held = mode[1] in inner
                        inside += held
                        for part, kept in (("intervals", replace(table, intervals=())),
                                           ("rows", replace(table, rows=()))):
                            holds = _verdicts(src, values, nodes, rank, e, kept)
                            decisive[part, held] += holds(*mode) != verdict
        assert checked > 7000 and inside > 2000, (checked, inside)
        assert len(outcomes) == 6 and min(outcomes.values()) > 40, outcomes
        assert len(decisive) == 4 and min(decisive.values()) > 100, decisive

    def test_quasistable_ties_are_a_perturbed_window(self):
        # the tie rules at p, exhaustively: a window holds exactly when
        # 0 <= 2m - [p in z] < 2 hi (the perturbation remark of the module)
        ok = _stability_test("quasistable", "v", theta_graph())
        for m, hi in product(range(-3, 6), repeat=2):
            for z in (frozenset({"v"}), frozenset({"w"})):
                assert ok(z, m, hi) == (0 <= 2 * m - ("v" in z) < 2 * hi), (z, m, hi)

    def test_chain_base_vertex_moves_only_quasistable_verdicts(self):
        # semistable and stable verdicts ignore a base vertex on a chain, where
        # only a quasistable verdict reads the perturbed polarization; decisive:
        # models semistable but not quasistable at a chain vertex
        rng = random.Random(2027)
        checked, decisive = 0, 0
        for src in self.sources(longest=3)[::3]:
            chains = [c for vertices, _ in _cut_table(src).chains for c in vertices]
            if not chains:
                continue
            d = rng.randint(src.genus - 2, src.genus + 1)
            pol = canonical_polarization(src, d)
            vals = self.centered(rng, src, frozenset(), pol, d)
            deg = Multidegree(src, vals)
            for p in chains:
                for mode in ("semistable", "stable"):
                    assert (check_bundle_stability(deg, pol, mode, p)
                            == check_bundle_stability(deg, pol, mode)), (src, mode, p)
                    checked += 1
                decisive += (check_bundle_stability(deg, pol, "semistable")
                             and not check_bundle_stability(deg, pol, "quasistable", p))
        assert checked > 500 and decisive > 50, (checked, decisive)


class TestSeriesCutBound:
    """Chain rows stand for many sides; only the rows built are counted."""

    @staticmethod
    def k5_subdivided(length):
        k5 = DualGraph(tuple((v, 0) for v in "abcde"),
                       tuple((a + b, (a, b)) for a, b in combinations("abcde", 2)))
        return modify(k5, dict.fromkeys(k5.edge_ends, length))

    def test_long_chains_on_k5_answer_within_a_second(self):
        # 473,190 and 1,188,705 sides, the second past the 2^20 bound on rows,
        # decided on 15 chain rows.  Oracle: the famchain equivalence on K5.  An
        # admissible bundle is semistable exactly when its model is, stable when
        # also invertible, and quasistable at p when also negatively admissible.
        outcomes = set()
        for length in (5, 6):
            mod = self.k5_subdivided(length)
            chain = mod.chains["ab"]
            for plain, bumps in (({"a": 4}, ()), (dict.fromkeys("abcde", 1), ()),
                                 ({"a": 2, "b": 2, "c": 1, "e": 1}, ()),
                                 (dict.fromkeys("abcde", 1), ((0, 1), (1, -1))),
                                 ({"a": 2, "b": 1, "c": 1, "d": 1}, ((2, 1),))):
                values = dict.fromkeys(mod.source.vertex_ids, 0) | plain
                values.update((chain[i], x) for i, x in bumps)
                deg = Multidegree(mod.source, values)
                d = deg.total
                model, flags = pushforward_model(mod, deg), admissibility(mod, deg)
                k5_pol = canonical_polarization(mod.target, d)
                pol = k5_pol.pullback(mod)
                for mode, base in (("semistable", None), ("stable", None), ("quasistable", "c")):
                    start = time.perf_counter()
                    verdict = check_bundle_stability(deg, pol, mode, base)
                    assert time.perf_counter() - start < 1, (length, d, mode)
                    want = check_sheaf_stability(model, k5_pol, mode, base) and {
                        "semistable": True, "stable": flags.invertible,
                        "quasistable": flags.negatively}[mode]
                    assert verdict == want, (length, d, mode, plain, bumps)
                    outcomes.add((mode, verdict))
        assert len(outcomes) == 6

    def test_bound_counts_every_row(self, monkeypatch):
        # the count is exact: a bound of the chain rows and interval records
        # passes, one less does not; each target's own table is built before the
        # bound
        mods = [lambda: self.k5_subdivided(1),
                lambda: modify(K4, {"ab": 2, "cd": 3}),
                lambda: modify(elliptic_bridge(), {"e1": 3}),
                lambda: modify(CUT_VERTEX, {"ca": 2, "cc": 2})]
        for build in mods:
            table = _cut_table(build().source)
            rows = len(table.rows) + len(table.intervals)
            for bound in (rows, rows - 1):
                mod = build()
                _cut_table(mod.target)
                monkeypatch.setattr("nodalcalc.graphs._MAX_SUBCURVES", bound)
                if bound == rows:
                    assert _series_cuts(mod.source, mod.target, mod.chain_registry) == table
                else:
                    with pytest.raises(ValueError, match=f"{rows} cut rows, more than {bound}; "
                                                         "too many to enumerate"):
                        _series_cuts(mod.source, mod.target, mod.chain_registry)
                monkeypatch.undo()

    def test_thousand_vertex_chain_answers_within_a_second(self):
        # theta with one chain of 1,000 vertices: 500,500 intervals and 1,001
        # sides of its one cut, decided on one chain row and one interval record
        # in every mode, at base vertices on and off the chain, for bundles and
        # for sheaves with nodes on the chain.  Oracle: the same model with the
        # chain's middle run of zero degrees, free of nodes and of e, shortened to
        # three vertices (the prefix sums stand still along it), and that curve's
        # full-table report.  Nodes lie on the chain's first three and last three
        # edges, one of each touching the run.
        rng = random.Random(1000)
        outcomes = set()
        for long_length in (1000, 998):
            built = {}
            for length in (long_length, 7):
                mod = modify(theta_graph(), {"e1": length})

                def place(i, length=length):  # the vertex i places from either end
                    return f"e1#{i if i > 0 else length + 1 + i}"

                def node(i, length=length):  # f_i, or f_(length + 1 + i) from the far end
                    i = i if i >= 0 else length + 1 + i
                    return f"e1#{i}-{i + 1}"

                built[length] = mod, place, node
            for _ in range(12):
                ends = {i: rng.randint(-2, 2) for i in (1, 2, -2, -1)}
                plain = {"v": rng.randint(-1, 3), "w": rng.randint(-1, 3)}
                nodes = [i for i in (0, 1, 2, -3, -2, -1) if rng.random() < 0.25]
                rank = rng.randint(1, 3)
                e_ends = {i: rng.randint(-2, 2) for i in (1, -1)}
                verdicts = []
                for length in (long_length, 7):
                    mod, place, node = built[length]
                    src = mod.source
                    values = dict.fromkeys(src.vertex_ids, 0) | plain
                    values.update((place(i), x) for i, x in ends.items())
                    deg = Multidegree(src, values)
                    model = SheafModel(src, frozenset(map(node, nodes)),
                                       Multidegree(src, values | {"v": plain["v"] - len(nodes)}))
                    e = dict.fromkeys(src.vertex_ids, 0)
                    e.update((place(i), x) for i, x in e_ends.items())
                    e["w"] = -rank * (deg.total + 1 - src.genus) - sum(e.values())
                    pol = Polarization(rank, Multidegree(src, e))
                    modes = [("semistable", None), ("stable", None)] + [
                        ("quasistable", p) for p in ("v", "w", place(1), place(3), place(4),
                                                     place(-3), place(-1))]
                    found = []
                    for mode in modes:
                        for check, value in ((check_bundle_stability, deg),
                                             (check_sheaf_stability, model)):
                            start = time.perf_counter()
                            found.append(check(value, pol, *mode))
                            assert time.perf_counter() - start < 1, (length, mode, check)
                    if length == 7:
                        for (mode, check), verdict in zip(product(modes, "bs"), found):
                            report = (bundle_stability_report(deg, pol) if check == "b"
                                      else sheaf_stability_report(model, pol))
                            assert verdict == report.verdict(*mode), (mode, check, values)
                            outcomes.add((mode[0], verdict))
                    verdicts.append(found)
                assert verdicts[0] == verdicts[1], (long_length, ends, plain, nodes)
        assert len(outcomes) == 6


K5 = DualGraph(tuple((v, 0) for v in "abcde"),
               tuple((a + b, (a, b)) for a, b in combinations("abcde", 2)))


class TestVertexWindows:
    """The box's window on each d_v, read off the kernel on the row {v}.

    Oracle: the closed canonical formula m({v}) = rank d_v + c, with
    c = (g - 1) k_v - d omega_v and k_v = valence(v) - 2 loops_at(v); the
    window asks m({v}) >= low and m({v}) <= rank k_v - high.
    """

    @staticmethod
    def degree_window(graph, d, v, low, high):
        rank = 2 * graph.genus - 2
        k = graph.valence(v) - 2 * graph.loops_at(v)
        c = (graph.genus - 1) * k - d * graph.omega_degree(v)
        return -((c - low) // rank), (rank * k - c - high) // rank

    def test_windows_match_the_canonical_formula(self):
        rng = random.Random(19)
        graphs = [K4, K5] + [random_stable_graph(rng, 5, 4) for _ in range(100)]
        checked, empty, lone, looped, boxes = 0, 0, 0, 0, 0
        for graph in graphs:
            vids = graph.vertex_ids
            lone += len(vids) == 1
            looped += any(graph.loops_at(v) for v in vids)
            # (low, high) per vertex: 1 where the mode is strict there; none on a lone vertex
            modes = [("semistable", None, lambda v: (0, 0)), ("stable", None, lambda v: (1, 1))]
            modes += [("quasistable", p, lambda v, p=p: (int(v == p), int(v != p)))
                      for p in vids]
            for d in range(-2, 2 * (2 * graph.genus - 2) + 1):
                for mode, base, strict in modes:
                    ok = _stability_test(mode, base, graph)
                    want = [self.degree_window(graph, d, v, *(strict(v) if len(vids) > 1
                                                             else (0, 0))) for v in vids]
                    assert _vertex_windows(graph, ok, *_canonical(graph, d)) == want, (
                        graph, d, mode, base)
                    checked += 1
                    empty += any(lo > hi for lo, hi in want)
                    if mode == "quasistable":
                        continue
                    # the stratum N = () is exactly these windows at total d
                    box = [vec for vec in product(*(range(lo, hi + 1) for lo, hi in want))
                           if sum(vec) == d]
                    first = next(_boxes(graph, d, ok, *_canonical(graph, d)), ((), iter(())))
                    assert (list(first[1]) if first[0] == () else []) == box, (graph, d, mode)
                    boxes += bool(box)
        assert checked > 8000 and empty > 100 and boxes > 2000, (checked, empty, boxes)
        assert lone > 5 and looped > 20, (lone, looped)


class TestBoundedVectors:
    """Oracle: ``itertools.product`` over the box, filtered by the total."""

    def test_matches_filtered_product(self):
        rng = random.Random(1402)
        empty = nonempty = 0
        for _ in range(600):
            n = rng.choice((0, 1, 1, 2, 3, 4, 5))
            lows = [rng.randint(-3, 2) for _ in range(n)]
            # a high below its low makes the box empty
            highs = [lo + rng.randint(-1, 3) for lo in lows]
            total = rng.randint(sum(lows) - 2, sum(highs) + 2)
            want = [vec for vec in product(*(range(lo, hi + 1) for lo, hi in zip(lows, highs)))
                    if sum(vec) == total]
            assert list(_bounded_vectors(lows, highs, total)) == want, (lows, highs, total)
            if want:
                nonempty += 1
            else:
                empty += 1
        assert list(_bounded_vectors([], [], 0)) == [()]
        assert list(_bounded_vectors([], [], 1)) == []
        assert empty > 100 and nonempty > 100


class TestCompiledWindows:
    """Each side compiles a stratum's windows once, from the kernel at the zero vector.

    Oracle: the kernel run afresh on each vector with its own values,
    ``all(ok(z, m, hi) for z, m, hi in _margins(...))``, on the cuts under N
    for the model side and on the lifted rows of Y_N, with 1 on the chain
    vertices and the source's e, for the bundle side.
    """

    @staticmethod
    def cases():
        rng = random.Random(1313)
        graphs = [theta_graph(), elliptic_bridge(), K4]
        graphs += [random_stable_graph(rng, 6, 2) for _ in range(20)]
        for graph in graphs:
            modes = [("semistable", None), ("stable", None)]
            modes += [("quasistable", p) for p in graph.vertex_ids]
            for d in (graph.genus - 1, graph.genus):
                yield graph, d, modes
        yield K5, 4, [("quasistable", "a")]  # ten rows, one mode: K5 has 1,024 strata

    @staticmethod
    def box_rows(graph):
        """The cut rows of two or more vertices, each with its vertices' positions
        in a box vector in place of its arms, as ``_strata`` hands them to both sides."""
        vids = graph.vertex_ids
        return [(w, chi, k, tuple(vids.index(v) for v in w))
                for w, chi, k, _ in _cut_table(graph).rows if len(w) > 1]

    @classmethod
    def oracles(cls, graph, d, subset):
        """Fresh kernel runs on a box vector: the model side's and the bundle side's."""
        cuts = cls.box_rows(graph)
        rank, vids = 2 * graph.genus - 2, graph.vertex_ids
        e = canonical_polarization(graph, d).e.as_dict
        mod = small_modification(graph, subset)
        source, rows = mod.source, _lifted_rows(mod, cuts)
        source_e = canonical_polarization(source, d).e.as_dict
        ones = dict.fromkeys(mod.chain_vertices, 1)

        def model(vec):
            return _margins(cuts, graph.edge_ends, dict(zip(vids, vec)), subset, rank, e)

        def bundle(vec):
            values = dict(zip(vids, vec)) | ones
            return _margins(rows, source.edge_ends, values, (), rank, source_e)

        return model, bundle, ones

    @staticmethod
    def first_failure(ok, margins):
        return next((i for i, (z, m, hi) in enumerate(margins) if not ok(z, m, hi)), None)

    def test_verdicts_match_the_kernel(self):
        rng = random.Random(14)
        checked, failed_at = 0, {}
        for graph, d, modes in self.cases():
            cuts = self.box_rows(graph)
            rows = len(cuts)
            positions = failed_at.setdefault(graph, ({"model": set(), "bundle": set()}, rows))[0]
            for mode, base in modes:
                ok = _stability_test(mode, base, graph)
                model_side = _model_side(graph, ok, cuts, *_canonical(graph, d))
                bundle_side = _bundle_side(graph, ok, cuts, *_canonical(graph, d))
                for subset, vectors in _boxes(graph, d, ok, *_canonical(graph, d)):
                    box = list(vectors)
                    # vectors around the box, of any total, reach failures at every row
                    vecs = box + [tuple(x + rng.randint(-2, 2) for x in vec) for vec in box]
                    accepts = model_side(subset)
                    mod, lift = bundle_side(subset)
                    model, bundle, ones = self.oracles(graph, d, subset)
                    for vec in vecs:
                        fail = self.first_failure(ok, model(vec))
                        assert accepts(vec) == (fail is None), (graph, d, mode, subset, vec)
                        if fail is not None:
                            positions["model"].add(fail)
                        fail = self.first_failure(ok, bundle(vec))
                        deg = lift(vec)
                        assert (deg is None) == (fail is not None), (graph, d, mode, subset, vec)
                        if deg is None:
                            positions["bundle"].add(fail)
                        else:
                            assert deg.as_dict == dict(zip(graph.vertex_ids, vec)) | ones
                            assert deg.graph is mod.source
                        checked += 1
        assert checked > 35000
        for graph, (positions, rows) in failed_at.items():
            for side, seen in positions.items():
                assert seen == set(range(rows)), (graph, side)
        assert max(rows for _, rows in failed_at.values()) == 10

    @staticmethod
    def count_rows(monkeypatch):
        """Rows the kernel yields from now on, over every kernel run."""
        pulled = []
        kernel = stability._margins

        def counted(*args):
            for row in kernel(*args):
                pulled.append(row)
                yield row

        monkeypatch.setattr(stability, "_margins", counted)
        return pulled

    def test_compiling_is_lazy(self, monkeypatch):
        # A per-stratum precompute ahead of the scan once made a benchmark's
        # median op 65% slower; a stratum pays only for the rows its vectors read.
        pulled = self.count_rows(monkeypatch)
        ok = _stability_test("semistable", None, K4)
        for graph, d in ((K4, 2), (K5, 4)):
            cuts = self.box_rows(graph)
            rows = len(cuts)
            for side in ("model", "bundle"):
                depths = set()
                model_side = _model_side(graph, ok, cuts, *_canonical(graph, d))
                bundle_side = _bundle_side(graph, ok, cuts, *_canonical(graph, d))
                for subset, vectors in _boxes(graph, d, ok, *_canonical(graph, d)):
                    oracle = self.oracles(graph, d, subset)[side == "bundle"]
                    for vec in list(vectors)[:3]:
                        fail = self.first_failure(ok, list(oracle(vec)))
                        pulled.clear()
                        if side == "model":
                            accepts = model_side(subset)
                        else:
                            lift = bundle_side(subset)[1]
                            accepts = lambda vec: lift(vec) is not None
                        assert pulled == []  # a stratum that reads no vector compiles no row
                        depth = rows if fail is None else fail
                        for _ in range(2):  # a vector read again compiles nothing more
                            assert accepts(vec) == (fail is None)
                            assert len(pulled) == min(depth + 1, rows), (graph, side, subset)
                        depths.add(depth)
                assert depths == set(range(rows + 1)), (graph, d, side)
