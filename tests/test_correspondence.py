"""The bundle/sheaf-model correspondence and its certification."""

import os
import subprocess
import sys
from functools import lru_cache
from itertools import combinations
from pathlib import Path
from weakref import WeakValueDictionary

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
from nodalcalc import correspondence, modifications
from nodalcalc.stability import _boxes, _stability_test


def loop_vertex():
    return DualGraph((("v", 1),), (("l", ("v", "v")),))


K4 = DualGraph(
    tuple((v, 0) for v in "abcd"),
    tuple((a + b, (a, b)) for a, b in combinations("abcd", 2)),
)


class TestPhi:
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
        # with no models enumerated, all 12 images of theta at d = 2 are
        # mismatches, three of them with N empty; one order under any hash seed
        script = ("from nodalcalc import correspondence, theta_graph\n"
                  "correspondence.enumerate_semistable_models = lambda *args: []\n"
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
        # K5's 1,024, so the round trip asks for modifications long evicted
        # from it; each balanced pair still holds its own.
        built = []

        def counting(graph, lengths):
            built.append(frozenset(lengths))
            return modify(graph, lengths)

        monkeypatch.setattr(modifications, "modify", counting)
        monkeypatch.setattr(modifications, "_live_small", WeakValueDictionary())
        monkeypatch.setattr(modifications, "_small_modification", lru_cache(maxsize=4)(
            modifications._small_modification.__wrapped__))
        for d in range(2, 6):
            for mode, sheaf_mode in (("balanced", "semistable"), ("stably_balanced", "stable")):
                ok = _stability_test(sheaf_mode, None, window=True)
                nonempty = [frozenset(subset) for subset, _ in _boxes(K4, d, ok)]
                built.clear()
                report = certify_bijection(K4, d, mode)
                assert report.bijection and report.balanced_count
                assert sorted(built, key=sorted) == sorted(nonempty, key=sorted), (d, mode)
                assert all(phi_inverse(K4, phi(mod, deg)[1])[0] is mod
                           for mod, deg in enumerate_balanced(K4, d, mode))

    def test_json_payload(self):
        data = certify_bijection(elliptic_bridge(), 2).to_json_dict()
        assert data["bijection"] is True
        assert data["balanced_count"] == 1
        assert data["degree"] == 2
