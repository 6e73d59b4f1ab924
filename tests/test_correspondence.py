"""The bundle/sheaf-model correspondence and its certification."""

import os
import random
import subprocess
import sys
from functools import lru_cache
from itertools import combinations
from pathlib import Path

import pytest

from nodalcalc import (
    DualGraph,
    Multidegree,
    SheafModel,
    certify_bijection,
    elliptic_bridge,
    enumerate_balanced,
    enumerate_semistable_models,
    modify,
    phi,
    phi_inverse,
    small_modification,
    theta_graph,
)
from nodalcalc import correspondence, modifications, stability
from nodalcalc.stability import _boxes, _canonical, _stability_test
from nodalcalc.verify import random_stable_graph


def loop_vertex():
    return DualGraph((("v", 1),), (("l", ("v", "v")),))


K4 = DualGraph(
    tuple((v, 0) for v in "abcd"),
    tuple((a + b, (a, b)) for a, b in combinations("abcd", 2)),
)


class TestPhi:
    def test_multidegree_on_the_target_is_refused(self):
        mod = small_modification(theta_graph(), ["e1"])
        with pytest.raises(ValueError) as exc:
            phi(mod, Multidegree(theta_graph(), {"v": 1, "w": 1}))
        assert str(exc.value) == "multidegree does not live on the modification source"

    def test_single_chain(self):
        mod = small_modification(theta_graph(), ["e1"])
        deg = Multidegree(mod.source, (("v", 0), ("w", 1), ("e1#1", 1)))
        target, model = phi(mod, deg)
        assert target == theta_graph()
        assert model.noninvertible == frozenset({"e1"})
        assert model.multidegree.as_dict == {"v": 0, "w": 1}

    def test_identity_modification(self):
        mod = modify(theta_graph(), {})
        deg = Multidegree(theta_graph(), (("v", 2), ("w", 0)))
        _, model = phi(mod, deg)
        assert model.noninvertible == frozenset()
        assert model.multidegree == deg

    def test_two_chains(self):
        mod = small_modification(theta_graph(), ["e1", "e2"])
        deg = Multidegree(
            mod.source, (("v", 0), ("w", 0), ("e1#1", 1), ("e2#1", 1))
        )
        _, model = phi(mod, deg)
        assert model.noninvertible == frozenset({"e1", "e2"})
        assert model.multidegree.as_dict == {"v": 0, "w": 0}

    def test_degree_preserved(self):
        mod = small_modification(elliptic_bridge(), ["e1"])
        deg = Multidegree(mod.source, (("v", 3), ("w", -1), ("e1#1", 1)))
        _, model = phi(mod, deg)
        assert model.degree == deg.total == 3

    def test_rejects_long_chains(self):
        mod = modify(theta_graph(), {"e1": 2})
        deg = Multidegree(
            mod.source, (("v", 0), ("w", 0), ("e1#1", 1), ("e1#2", 0))
        )
        with pytest.raises(ValueError):
            phi(mod, deg)

    def test_rejects_wrong_chain_degree(self):
        mod = small_modification(theta_graph(), ["e1"])
        deg = Multidegree(mod.source, (("v", 0), ("w", 1), ("e1#1", 0)))
        with pytest.raises(ValueError):
            phi(mod, deg)


class TestPhiInverse:
    def test_model_on_another_graph_is_refused(self):
        model = SheafModel(theta_graph(), (), Multidegree(theta_graph(), {"v": 1, "w": 1}))
        with pytest.raises(ValueError) as exc:
            phi_inverse(elliptic_bridge(), model)
        assert str(exc.value) == "sheaf model does not live on the given graph"

    def test_single_node(self):
        deg = Multidegree(theta_graph(), (("v", 0), ("w", 1)))
        model = SheafModel(theta_graph(), frozenset({"e1"}), deg)
        mod, bundle = phi_inverse(theta_graph(), model)
        assert mod.lengths == {"e1": 1}
        assert bundle.as_dict == {"v": 0, "w": 1, "e1#1": 1}

    def test_invertible_model(self):
        deg = Multidegree(theta_graph(), (("v", 2), ("w", 0)))
        model = SheafModel(theta_graph(), frozenset(), deg)
        mod, bundle = phi_inverse(theta_graph(), model)
        assert mod.source == theta_graph()
        assert bundle == deg

    def test_loop_node(self):
        g = loop_vertex()
        model = SheafModel(g, frozenset({"l"}), Multidegree(g, (("v", 2),)))
        mod, bundle = phi_inverse(g, model)
        assert mod.lengths == {"l": 1}
        assert bundle.as_dict == {"v": 2, "l#1": 1}
        assert bundle.total == model.degree == 3

    def test_round_trip_from_model(self):
        for model in enumerate_semistable_models(theta_graph(), 2):
            mod, bundle = phi_inverse(theta_graph(), model)
            target, back = phi(mod, bundle)
            assert target == theta_graph()
            assert back == model

    def test_round_trip_from_bundle(self):
        for mod, deg in enumerate_balanced(theta_graph(), 2):
            _, model = phi(mod, deg)
            mod2, deg2 = phi_inverse(theta_graph(), model)
            assert mod2 == mod
            assert deg2 == deg

    def test_equals_modify_built_lift(self):
        for graph, d in ((theta_graph(), 2), (loop_vertex(), 3), (K4, 3), (K4, 4)):
            for model in enumerate_semistable_models(graph, d):
                mod, bundle = phi_inverse(graph, model)
                want = modify(graph, {e: 1 for e in model.noninvertible})
                values = dict(model.multidegree.as_dict) | dict.fromkeys(want.chain_vertices, 1)
                assert mod == want
                assert bundle == Multidegree(want.source, values)
                assert hash(bundle) == hash(Multidegree(want.source, values))

    def test_built_in_canonical_order(self, canonical_checks):
        models = enumerate_semistable_models(K4, 3)
        canonical_checks.clear()
        pairs = enumerate_balanced(K4, 3)
        assert len(canonical_checks) == len(pairs) == 128
        for model in models:
            phi_inverse(K4, model)
        assert len(canonical_checks) == 2 * len(models) and all(canonical_checks)


class TestCertify:
    def test_non_int_degree_is_refused(self):
        for d in (2.0, 2.5, True, "2", None):
            for mode in ("balanced", "stably_balanced"):
                with pytest.raises(ValueError) as exc:
                    certify_bijection(theta_graph(), d, mode)
                assert str(exc.value) == f"degree must be an integer, got {d!r}"

    def test_theta_degree_two(self):
        report = certify_bijection(theta_graph(), 2)
        assert report.bijection
        assert report.balanced_count == 12
        assert report.semistable_count == 12
        assert report.mismatches == ()

    def test_banana_degree_two(self):
        report = certify_bijection(elliptic_bridge(), 2)
        assert report.bijection
        assert report.balanced_count == report.semistable_count == 1

    def test_theta_degree_zero(self):
        report = certify_bijection(theta_graph(), 0)
        assert report.bijection
        assert report.balanced_count == report.semistable_count

    def test_theta_stably_balanced(self):
        report = certify_bijection(theta_graph(), 2, "stably_balanced")
        assert report.bijection
        assert report.balanced_count == 12

    def test_negative_degree(self):
        report = certify_bijection(theta_graph(), -1)
        assert report.bijection

    def test_mismatch_order_ignores_the_hash_seed(self):
        # with no model accepted, all 12 images of theta at d = 2 are
        # mismatches, three of them with N empty; one order under any hash seed
        script = ("from nodalcalc import correspondence, stability, theta_graph\n"
                  "stability._model_side = (\n"
                  "    lambda graph, ok, rows, rank, e_values: lambda subset: lambda vec: False)\n"
                  "for line in correspondence.certify_bijection(theta_graph(), 2).mismatches:\n"
                  "    print(line)\n")
        src = str(Path(correspondence.__file__).resolve().parents[1])
        outputs = []
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                                 text=True, timeout=60, check=True)
            outputs.append(run.stdout)
        assert outputs[0] == outputs[1]
        assert outputs[0].count("pushforward image not semistable") == 12

    def test_round_trip_check_catches_a_lossy_lift(self, monkeypatch):
        real = correspondence.phi_inverse

        def lossy(graph, model):
            mod, deg = real(graph, model)
            if model.noninvertible:
                mod = small_modification(graph, sorted(model.noninvertible)[1:])
            return mod, deg

        monkeypatch.setattr(correspondence, "phi_inverse", lossy)
        report = certify_bijection(theta_graph(), 2)
        assert not report.bijection
        assert any(m.startswith("round trip failed") for m in report.mismatches)

    def test_round_trip_reuses_each_enumerated_modification(self, monkeypatch):
        # A bounded cache of 4 is far below K4's 64 edge sets, as 512 is below
        # K5's 1,024.  certify asks for a stratum's modification again while it
        # walks that stratum, so it still builds each one once.  A pair lifted
        # after its edge set left the cache gets an equal modification; the
        # last 4 pairs, whose edge sets are the cache's newest, get their own.
        built = []

        def counting(graph, lengths):
            built.append(frozenset(lengths))
            return modify(graph, lengths)

        monkeypatch.setattr(modifications, "modify", counting)
        monkeypatch.setattr(modifications, "_small_modification", lru_cache(maxsize=4)(
            modifications._small_modification.__wrapped__))
        for d in range(2, 6):
            for mode, sheaf_mode in (("balanced", "semistable"), ("stably_balanced", "stable")):
                ok = _stability_test(sheaf_mode, None, K4)
                nonempty = [frozenset(subset)
                            for subset, _ in _boxes(K4, d, ok, *_canonical(K4, d))]
                built.clear()
                report = certify_bijection(K4, d, mode)
                assert report.bijection and report.balanced_count
                assert sorted(built, key=sorted) == sorted(nonempty, key=sorted), (d, mode)
                pairs = enumerate_balanced(K4, d, mode)
                assert all(phi_inverse(K4, phi(mod, deg)[1])[0] is mod
                           for mod, deg in pairs[-4:])
                assert all(phi_inverse(K4, phi(mod, deg)[1])[0] == mod
                           for mod, deg in pairs)

    def test_json_payload(self):
        data = certify_bijection(elliptic_bridge(), 2).to_json_dict()
        assert data["bijection"] is True
        assert data["balanced_count"] == 1
        assert data["degree"] == 2


def listed_certify(graph, d, mode="balanced"):
    """The list-based certify: both public enumerators, global image and model sets.

    An independent reference for the stratum-by-stratum ``certify_bijection``;
    it calls ``phi`` and ``phi_inverse`` through the module, so faults
    injected there reach both.
    """
    balanced = enumerate_balanced(graph, d, mode)
    models = enumerate_semistable_models(
        graph, d, {"balanced": "semistable", "stably_balanced": "stable"}[mode])
    mismatches, images = [], []
    for mod, deg in balanced:
        target, image = correspondence.phi(mod, deg)
        if target != graph:
            mismatches.append(f"pushforward changed the graph for {deg.to_json_dict()}")
        images.append(image)
        back_mod, back_deg = correspondence.phi_inverse(graph, image)
        if back_mod != mod or back_deg != deg:
            mismatches.append(f"round trip failed for model {image.to_json_dict()}")
    if len(set(images)) != len(images):
        mismatches.append("pushforward is not injective on balanced bundles")

    def order(model):
        return sorted(model.noninvertible), model.multidegree.values

    for missing in sorted(set(models) - set(images), key=order):
        mismatches.append(f"semistable model not reached: {missing.to_json_dict()}")
    for extra in sorted(set(images) - set(models), key=order):
        mismatches.append(f"pushforward image not semistable: {extra.to_json_dict()}")
    return {
        "degree": d,
        "mode": mode,
        "balanced_count": len(balanced),
        "semistable_count": len(models),
        "bijection": not mismatches and len(balanced) == len(models),
        "mismatches": mismatches,
    }


MODES = ("balanced", "stably_balanced")


def oracle_cases():
    yield from ((theta_graph(), d, mode) for d in range(-1, 5) for mode in MODES)
    yield from ((elliptic_bridge(), d, mode) for d in range(0, 4) for mode in MODES)
    yield from ((K4, d, mode) for d in range(2, 6) for mode in MODES)
    rng = random.Random(20261018)
    for i in range(24):
        graph = random_stable_graph(rng, 5, 4)
        yield graph, graph.genus - 1 + i % 3, MODES[i % 2]


class TestStreamedCertify:
    """The stratum-by-stratum certify against ``listed_certify``."""

    def test_matches_the_listed_certify(self):
        reports = []
        for graph, d, mode in oracle_cases():
            reports.append(certify_bijection(graph, d, mode).to_json_dict())
            assert reports[-1] == listed_certify(graph, d, mode), (graph, d, mode)
        assert len(reports) == 52 and all(r["bijection"] for r in reports)
        assert sum(r["balanced_count"] for r in reports) == 2117

    def test_walks_each_box_once(self, monkeypatch):
        walks = []
        real = stability._boxes

        def counting(graph, d, ok, rank, e_values):
            walks.append(d)
            return real(graph, d, ok, rank, e_values)

        monkeypatch.setattr(stability, "_boxes", counting)
        for mode in MODES:
            certify_bijection(K4, 2, mode)
        assert walks == [2, 2]

    @staticmethod
    def shifted_phi(monkeypatch):
        # move one unit of degree between the first two vertices of some
        # images, so that images collide, leave the models and miss some
        real = correspondence.phi

        def shifted(mod, deg):
            target, image = real(mod, deg)
            values = image.multidegree.as_dict
            first, second = image.graph.vertex_ids[:2]
            if values[first] > values[second]:
                moved = image.multidegree.replace(
                    **{first: values[first] - 1, second: values[second] + 1})
                image = SheafModel(image.graph, image.noninvertible, moved)
            return target, image

        monkeypatch.setattr(correspondence, "phi", shifted)

    @staticmethod
    def reflected_phi(monkeypatch):
        # negate the first degree and keep the total on the second, so that
        # the images leave the models out of their enumeration order
        real = correspondence.phi

        def reflected(mod, deg):
            target, image = real(mod, deg)
            values = image.multidegree.as_dict
            first, second = image.graph.vertex_ids[:2]
            moved = image.multidegree.replace(
                **{first: -values[first], second: values[second] + 2 * values[first]})
            return target, SheafModel(image.graph, image.noninvertible, moved)

        monkeypatch.setattr(correspondence, "phi", reflected)

    @staticmethod
    def lossy_lift(monkeypatch):
        real = correspondence.phi_inverse

        def lossy(graph, model):
            mod, deg = real(graph, model)
            if model.noninvertible:
                mod = small_modification(graph, sorted(model.noninvertible)[1:])
            return mod, deg

        monkeypatch.setattr(correspondence, "phi_inverse", lossy)

    @staticmethod
    def moved_target(monkeypatch):
        real = correspondence.phi

        def moved(mod, deg):
            target, image = real(mod, deg)
            return (elliptic_bridge() if len(mod.modified_edges) == 1 else target), image

        monkeypatch.setattr(correspondence, "phi", moved)

    @staticmethod
    def rejecting_models(monkeypatch, graph, d, mode):
        # the model side rejects one vector its own enumeration accepts
        models = enumerate_semistable_models(
            graph, d, {"balanced": "semistable", "stably_balanced": "stable"}[mode])
        victim = models[len(models) // 2]
        victim = victim.noninvertible, tuple(v for _, v in victim.multidegree.values)
        real = stability._model_side

        def rejecting(graph, ok, rows, rank, e_values):
            side = real(graph, ok, rows, rank, e_values)

            def stratum(subset):
                accepts = side(subset)
                return lambda vec: accepts(vec) and (frozenset(subset), vec) != victim

            return stratum

        monkeypatch.setattr(stability, "_model_side", rejecting)

    @pytest.mark.parametrize("fault", ["shifted_phi", "reflected_phi", "lossy_lift",
                                       "moved_target", "rejecting_models"])
    def test_matches_the_listed_certify_under_faults(self, monkeypatch, fault):
        kinds = set()
        cases = [(theta_graph(), 2, "balanced"), (theta_graph(), 3, "stably_balanced"),
                 (elliptic_bridge(), 2, "balanced"), (K4, 2, "balanced"),
                 (K4, 3, "stably_balanced")]
        for graph, d, mode in cases:
            with monkeypatch.context() as patch:
                if fault == "rejecting_models":
                    self.rejecting_models(patch, graph, d, mode)
                else:
                    getattr(self, fault)(patch)
                report = certify_bijection(graph, d, mode)
                want = listed_certify(graph, d, mode)
            assert report.to_json_dict() == want, (fault, graph, d, mode)
            assert "\n".join(report.mismatches) == "\n".join(want["mismatches"])
            kinds.update(line.split(":")[0].split(" for ")[0] for line in report.mismatches)
        want_kinds = {
            "shifted_phi": {"round trip failed", "pushforward is not injective on balanced bundles",
                            "semistable model not reached", "pushforward image not semistable"},
            "reflected_phi": {"round trip failed", "semistable model not reached",
                              "pushforward image not semistable"},
            "lossy_lift": {"round trip failed"},
            "moved_target": {"pushforward changed the graph"},
            "rejecting_models": {"pushforward image not semistable"},
        }[fault]
        assert kinds == want_kinds

    def test_graph_checks_on_an_equal_graph(self, monkeypatch):
        # a copy of K4 gets its strata from the modification cache, built on
        # an equal graph; the chase compares the two graphs once per stratum
        # and must still catch a target that is neither
        first, copy = (DualGraph(K4.vertices, K4.edges) for _ in range(2))
        want = certify_bijection(first, 3).to_json_dict()
        assert small_modification(copy, ["ab", "cd"]).target is not copy
        assert certify_bijection(copy, 3).to_json_dict() == want
        with monkeypatch.context() as patch:
            self.moved_target(patch)
            report = certify_bijection(copy, 3)
            assert report.to_json_dict() == listed_certify(copy, 3, "balanced")
        assert not report.bijection
        assert {line.split(" for ")[0] for line in report.mismatches} == {
            "pushforward changed the graph"}


class TestChaseCount:
    """Every balanced bundle goes through the whole chase, once.

    Oracle: the report's own ``balanced_count``, against the calls that
    ``certify_bijection`` makes through the module to ``phi``,
    ``phi_inverse`` and ``pushforward_model``; a fast path that matched a
    stratum without chasing its bundles would call them fewer times.
    """

    def test_each_bundle_is_chased_once(self, monkeypatch):
        names = ("phi", "phi_inverse", "pushforward_model")
        for graph, d in ((theta_graph(), 2), (K4, 2), (K4, 3)):
            for mode in MODES:
                calls = dict.fromkeys(names, 0)
                with monkeypatch.context() as patch:
                    for name in names:
                        def counted(*args, _name=name, _real=getattr(correspondence, name)):
                            calls[_name] += 1
                            return _real(*args)
                        patch.setattr(correspondence, name, counted)
                    report = certify_bijection(graph, d, mode)
                assert report.bijection and report.balanced_count > 0, (graph, d, mode)
                assert calls == dict.fromkeys(names, report.balanced_count), (graph, d, mode)
