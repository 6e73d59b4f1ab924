"""Generators and suite plumbing behind the verification harness."""

import random
from itertools import islice

import pytest

from nodalcalc import (
    ALL_SUITES,
    Multidegree,
    SheafModel,
    VerifyConfig,
    bundle_stability_report,
    canonical_polarization,
    classify,
    elliptic_bridge,
    interval_sum_range,
    modify,
    pushforward_model,
    run_suite,
    run_verification,
    stability,
    stable_model,
    theta_graph,
    verify,
)
from nodalcalc.verify import (
    _MAX_CHAIN_SEQUENCES,
    admissible_sequences,
    chain_twister_options,
    check_biss_instance,
    check_famchain2_instance,
    check_pushforward_instance,
    exhaustive_instances,
    expected_contraction,
    quasistable_models,
    random_admissible_multidegree,
    random_graph,
    random_modification,
    random_stable_graph,
)


class TestConfig:
    def test_defaults(self):
        cfg = VerifyConfig()
        assert cfg.suites == ALL_SUITES
        assert cfg.seed == 0
        assert cfg.instance_count == 50

    def test_unknown_suite(self):
        with pytest.raises(ValueError, match="unknown"):
            VerifyConfig(suites=("pushforward", "nope"))

    def test_suite_order_normalized(self):
        cfg = VerifyConfig(suites=("roundtrip", "pushforward", "roundtrip"))
        assert cfg.suites == ("pushforward", "roundtrip")

    def test_positive_bounds(self):
        with pytest.raises(ValueError, match="instance_count"):
            VerifyConfig(instance_count=0)
        with pytest.raises(ValueError, match="max_vertices"):
            VerifyConfig(max_vertices=-1)

    def test_non_int_counts_rejected(self):
        # a float count once failed later, inside a suite
        for name in ("instance_count", "max_vertices", "max_genus", "degree_window",
                     "chain_length_max"):
            for value in (2.5, 2.0, True, "3", None):
                with pytest.raises(ValueError) as exc:
                    VerifyConfig(**{name: value})
                assert str(exc.value) == f"{name} must be an integer, got {value!r}"

    def test_chain_cohomology_work_bounded(self):
        # the suite walks 7^1 + ... + 7^n degree sequences: 137,256 at n = 6, within
        # its own bound of 2^18, and 960,799 at n = 7, past it (length 7 ran about
        # 25 s, past the 10 s a run may take)
        assert _MAX_CHAIN_SEQUENCES == 2 ** 18
        assert sum(7 ** n for n in range(1, 7)) == 137_256 <= _MAX_CHAIN_SEQUENCES
        assert sum(7 ** n for n in range(1, 8)) == 960_799 > _MAX_CHAIN_SEQUENCES
        assert VerifyConfig(suites=("chain-cohomology",), chain_length_max=6).chain_length_max == 6
        for length in (7, 8, 12, 10 ** 9):
            with pytest.raises(ValueError) as exc:
                VerifyConfig(suites=("chain-cohomology",), chain_length_max=length)
            assert str(exc.value) == (
                f"chain-cohomology walks 7^1 + ... + 7^{length} degree sequences, "
                "more than 262144; too many to enumerate")
        # the other suites draw chains of at most that length instead
        assert VerifyConfig(suites=("roundtrip",), chain_length_max=12).chain_length_max == 12

    def test_admissible_draws_bounded(self):
        # pushforward and compadm draw each chain's degrees from admissible_sequences,
        # which walks all 3^n sequences of a length n: 177,147 at n = 11, within the
        # bound of 2^18, and 531,441 at n = 12, past it (12 ran 9.5 s, 14 over 60 s)
        assert 3 ** 11 == 177_147 <= _MAX_CHAIN_SEQUENCES < 531_441 == 3 ** 12
        for suite in ("pushforward", "compadm"):
            assert VerifyConfig(suites=(suite,), chain_length_max=11).chain_length_max == 11
            for length in (12, 13, 10 ** 9):
                with pytest.raises(ValueError) as exc:
                    VerifyConfig(suites=(suite,), chain_length_max=length)
                assert str(exc.value) == (f"{suite} walks 3^{length} degree sequences, "
                                          "more than 262144; too many to enumerate")
        # famchain2 draws its chain degrees at random, so any length is accepted
        assert VerifyConfig(suites=("famchain2",), chain_length_max=12).chain_length_max == 12

    def test_non_int_seed_rejected(self):
        # a float or list seed was once accepted and reached random.Random
        for value in (2.5, 2.0, True, [1], "3", None):
            with pytest.raises(ValueError) as exc:
                VerifyConfig(seed=value)
            assert str(exc.value) == f"seed must be an integer, got {value!r}"
        assert VerifyConfig(seed=-3).seed == -3

    def test_string_suites_rejected(self):
        # a string was once read as its characters: "unknown suites: ['b', 'i', 's']"
        with pytest.raises(ValueError) as exc:
            VerifyConfig(suites="biss")
        assert str(exc.value) == "suites must be a sequence of suite names, got 'biss'"
        assert VerifyConfig(suites=["biss"]).suites == ("biss",)

    def test_json_round(self):
        cfg = VerifyConfig(seed=7, degree_window=3)
        data = cfg.to_json_dict()
        assert data["seed"] == 7
        assert data["degree_window"] == 3
        assert data["suites"] == list(ALL_SUITES)


class TestSequenceFamilies:
    def test_length_one(self):
        assert admissible_sequences(1) == ((-1,), (0,), (1,))

    def test_length_two_count(self):
        seqs = admissible_sequences(2)
        assert len(seqs) == 7
        assert (1, 1) not in seqs
        assert (-1, -1) not in seqs

    def test_all_interval_sums_bounded(self):
        for n in range(1, 5):
            for seq in admissible_sequences(n):
                lo, hi = interval_sum_range(seq)
                assert -1 <= lo and hi <= 1

    def test_twister_zero_always_present(self):
        for seq in admissible_sequences(2):
            options = chain_twister_options(seq)
            assert ((0, 0), seq) in options

    def test_twisted_sequences_admissible(self):
        for seq in admissible_sequences(3):
            for _, twisted in chain_twister_options(seq):
                lo, hi = interval_sum_range(twisted)
                assert -1 <= lo and hi <= 1

    def test_twister_nontrivial_option(self):
        # shifting (1, -1) one step along the chain stays admissible
        options = dict(chain_twister_options((1, -1)))
        assert options[(1, 0)] == (-1, 0)


class TestExhaustiveFamily:
    def test_bridge_count_small(self):
        pairs = list(exhaustive_instances(elliptic_bridge(), max_eta=1, plain_window=0))
        # one edge: untouched or one of three length-1 chain degrees
        assert len(pairs) == 4

    def test_bridge_count_window(self):
        pairs = list(exhaustive_instances(elliptic_bridge(), max_eta=2, plain_window=1))
        # (1 + 3 + 7) edge options, 3^2 plain assignments each
        assert len(pairs) == 99

    def test_instances_admissible(self):
        from nodalcalc import admissibility

        for mod, deg in exhaustive_instances(elliptic_bridge(), max_eta=2, plain_window=1):
            assert admissibility(mod, deg).admissible

    def test_deterministic_order(self):
        first = [
            (mod.lengths, deg.as_dict)
            for mod, deg in exhaustive_instances(theta_graph(), max_eta=1, plain_window=0)
        ]
        second = [
            (mod.lengths, deg.as_dict)
            for mod, deg in exhaustive_instances(theta_graph(), max_eta=1, plain_window=0)
        ]
        assert first == second


class TestRandomGenerators:
    def test_graph_bounds(self):
        rng = random.Random(11)
        for _ in range(200):
            g = random_graph(rng, max_vertices=5, max_genus=3)
            assert 1 <= len(g.vertex_ids) <= 5
            assert 0 <= g.genus <= 3

    def test_stable_graphs(self):
        rng = random.Random(12)
        for _ in range(100):
            g = random_stable_graph(rng, max_vertices=5, max_genus=3)
            assert classify(g) == "stable"
            assert g.genus >= 2

    def test_modification_lengths(self):
        rng = random.Random(13)
        for _ in range(50):
            mod = random_modification(rng, theta_graph(), chain_length_max=3)
            assert all(1 <= n <= 3 for n in mod.lengths.values())
            assert stable_model(mod.source) == expected_contraction(mod)

    def test_admissible_multidegree(self):
        rng = random.Random(14)
        for _ in range(50):
            mod = random_modification(rng, theta_graph(), chain_length_max=3)
            deg = random_admissible_multidegree(rng, mod, plain_window=2)
            for _, chain in mod.chain_registry:
                lo, hi = interval_sum_range(tuple(deg[v] for v in chain))
                assert -1 <= lo and hi <= 1


class TestInstanceChecks:
    def test_clean_instances_pass(self):
        for mod, deg in exhaustive_instances(elliptic_bridge(), max_eta=1, plain_window=1):
            assert check_pushforward_instance(mod, deg) == []
            assert check_famchain2_instance(mod, deg) == []

    def test_pushforward_locus_is_read_off_the_chain_degrees(self, monkeypatch):
        # a model that drops a chain carrying degree from its locus is caught
        mod = modify(theta_graph(), {"e1": 1, "e2": 2})
        deg = Multidegree(mod.source, {"v": 1, "w": 0, "e1#1": 1, "e2#1": 0, "e2#2": 0})
        model = pushforward_model(mod, deg)
        assert model.noninvertible == {"e1"}
        assert check_pushforward_instance(mod, deg) == []
        wrong = SheafModel(mod.target, frozenset(), model.multidegree)
        monkeypatch.setattr(verify, "pushforward_model", lambda *_: wrong)
        details = [f["detail"] for f in check_pushforward_instance(mod, deg)]
        assert "non-invertible locus disagrees with the chain degrees" in details

    def test_source_verdicts_match_the_report(self, monkeypatch):
        # the source verdicts check_famchain2_instance reads through the
        # verdict reader of stability, against the full-table report in every
        # mode and at every target vertex.  On the exhaustive theta and bridge
        # families each side's windows are decided once, with no base vertex.
        # A target with an exceptional vertex has chain rows of its own, so the
        # source keeps its own table, and the windows are decided again, under
        # the perturbed polarization, at a quasistable base vertex on one of its
        # chains.
        verdicts, cut_windows = stability._verdicts, stability._cut_windows
        seen, decided = [], []

        def spy_verdicts(graph, *args):
            seen.append((graph, verdicts(graph, *args)))
            return seen[-1][1]

        def spy_windows(*args):
            decided.append(args)
            return cut_windows(*args)

        monkeypatch.setattr(verify, "_verdicts", spy_verdicts)
        monkeypatch.setattr(stability, "_cut_windows", spy_windows)
        quasistable_target = modify(theta_graph(), {"e1": 1}).source
        families = [exhaustive_instances(theta_graph(), max_eta=2, plain_window=1),
                    exhaustive_instances(elliptic_bridge(), max_eta=2, plain_window=2),
                    islice(exhaustive_instances(quasistable_target, max_eta=1, plain_window=1),
                           0, None, 4)]
        checked, outcomes, decided_again = 0, set(), 0
        for mod, deg in (pair for family in families for pair in family):
            seen.clear()
            decided.clear()
            assert check_famchain2_instance(mod, deg) == []
            if mod.target is quasistable_target:
                decided_again += len(decided) - len(seen)
            else:
                assert len(decided) == len(seen)
            [holds] = [at for graph, at in seen if graph is mod.source]
            pol = canonical_polarization(mod.target, deg.total).pullback(mod)
            report = bundle_stability_report(deg, pol)
            modes = [("semistable", None), ("stable", None)] + [
                ("quasistable", p) for p in mod.target.vertex_ids]
            for mode in modes:
                verdict = holds(*mode)
                assert verdict == report.verdict(*mode), (mod, deg, mode)
                outcomes.add((mode[0], verdict))
                checked += 1
        assert checked > 5000 and decided_again > 1000
        assert len(outcomes) == 6

    def test_biss_instances_pass(self):
        # degree 1 on every chain vertex is the check's precondition
        for mod, deg in quasistable_models(theta_graph(), degree_bound=2, plain_window=2):
            assert check_biss_instance(mod, deg) == []

    def test_quasistable_family(self):
        models = list(quasistable_models(theta_graph(), degree_bound=2, plain_window=2))
        assert models
        for mod, deg in models:
            assert classify(mod.source) in ("stable", "quasistable")
            assert all(n == 1 for n in mod.lengths.values())
            assert all(deg[c] == 1 for c in mod.chain_vertices)
            assert abs(deg.total) <= 2

    def test_expected_contraction_matches(self):
        mod = modify(theta_graph(), {"e1": 2, "e3": 1})
        assert expected_contraction(mod) == stable_model(mod.source)


class TestSuiteRunner:
    SMALL = VerifyConfig(
        suites=("chain-cohomology", "roundtrip"),
        seed=5,
        instance_count=3,
        max_vertices=4,
        max_genus=3,
        degree_window=2,
        chain_length_max=2,
    )

    def test_run_suite_counts(self):
        result = run_suite("chain-cohomology", self.SMALL)
        # exhaustive: 7 + 49 sequences for lengths 1 and 2
        assert result.cases == 56
        assert result.failures == []

    def test_unknown_suite_name(self):
        with pytest.raises(KeyError):
            run_suite("nope", self.SMALL)

    def test_report_structure(self):
        report = run_verification(self.SMALL)
        assert report["ok"] is True
        assert report["config"] == self.SMALL.to_json_dict()
        assert set(report["suites"]) == {"chain-cohomology", "roundtrip"}
        for entry in report["suites"].values():
            assert entry["status"] == "pass"
            assert entry["cases"] > 0
            assert "failures" not in entry

    def test_report_deterministic(self):
        assert run_verification(self.SMALL) == run_verification(self.SMALL)
