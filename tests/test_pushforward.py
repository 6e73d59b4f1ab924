"""Direct image normal form, admissibility, the min-formula oracle."""

import random
from fractions import Fraction
from itertools import product

import pytest

from nodalcalc import (
    AdmissibilityFlags,
    DualGraph,
    ModelMismatchError,
    Multidegree,
    NotAdmissibleError,
    Twister,
    admissibility,
    chain_degrees,
    connected_subcurves,
    elliptic_bridge,
    modify,
    pushforward_degree_oracle,
    pushforward_diagnostics,
    pushforward_model,
    same_pushforward,
    sheaf_degree,
    theta_graph,
    interval_sum_range,
    twist,
)
from nodalcalc.pushforward import _chain_twister_coefficients
from nodalcalc.verify import exhaustive_instances


def loop_vertex():
    return DualGraph((("v", 1),), (("l", ("v", "v")),))


def theta_deg(mod, chain_values, **plain):
    values = dict(plain)
    for e, seq in chain_values.items():
        values.update(zip(mod.chains[e], seq))
    return Multidegree(mod.source, tuple(values.items()))


class TestAdmissibility:
    def test_balanced_pair(self):
        mod = modify(theta_graph(), {"e1": 2})
        deg = theta_deg(mod, {"e1": (1, -1)}, v=0, w=0)
        flags = admissibility(mod, deg)
        assert flags.admissible
        assert not flags.negatively
        assert not flags.positively
        assert not flags.invertible

    def test_all_zero(self):
        mod = modify(theta_graph(), {"e1": 2, "e2": 1})
        deg = theta_deg(mod, {"e1": (0, 0), "e2": (0,)}, v=3, w=-1)
        flags = admissibility(mod, deg)
        assert flags.admissible and flags.negatively and flags.positively and flags.invertible

    def test_torsion_pair_not_admissible(self):
        mod = modify(theta_graph(), {"e1": 2})
        deg = theta_deg(mod, {"e1": (2, -1)}, v=0, w=0)
        assert not admissibility(mod, deg).admissible

    def test_flag_implications_hold_on_family(self):
        for mod, deg in exhaustive_instances(theta_graph(), max_eta=2, plain_window=0):
            flags = admissibility(mod, deg)
            if flags.invertible:
                assert flags.negatively and flags.positively
            if flags.negatively or flags.positively:
                assert flags.admissible

    def test_chain_degrees_read_in_registry_order(self):
        mod = modify(theta_graph(), {"e1": 2})
        deg = theta_deg(mod, {"e1": (1, -1)}, v=0, w=0)
        assert chain_degrees(mod, deg) == [("e1", (1, -1))]

    def test_wrong_graph_rejected(self):
        mod = modify(theta_graph(), {"e1": 1})
        deg = Multidegree(theta_graph(), (("v", 0), ("w", 0)))
        with pytest.raises(ValueError):
            admissibility(mod, deg)


class TestOnePassScan:
    """``admissibility`` and ``pushforward_diagnostics`` read each chain in one
    pass; oracle: ``interval_sum_range`` and ``any`` on the chain's degrees."""

    def test_flags_match_interval_sums_on_random_chains(self):
        rng = random.Random(1401)
        cases = 0
        for _ in range(1500):
            lengths = {e: rng.randint(1, 6) for e in ("e1", "e2", "e3") if rng.random() < 0.7}
            mod = modify(theta_graph(), lengths)
            seqs = {e: tuple(rng.randint(-2, 2) for _ in range(k)) for e, k in lengths.items()}
            deg = theta_deg(mod, seqs, v=rng.randint(-2, 2), w=rng.randint(-2, 2))
            want = AdmissibilityFlags(True, True, True, True)
            torsion = drops = False
            for degs in seqs.values():
                lo, hi = interval_sum_range(degs)
                want = AdmissibilityFlags(
                    want.admissible and -1 <= lo and hi <= 1,
                    want.negatively and -1 <= lo and hi <= 0,
                    want.positively and 0 <= lo and hi <= 1,
                    want.invertible and lo == 0 == hi,
                )
                torsion |= hi >= 2
                drops |= lo <= -2
                cases += 1
            assert admissibility(mod, deg) == want, seqs
            diag = pushforward_diagnostics(mod, deg)
            assert (diag.has_torsion, diag.degree_drops) == (torsion, drops), seqs
            assert diag.noninvertible_edges == tuple(e for e in sorted(seqs) if any(seqs[e]))
        assert cases >= 3000


class TestPushforwardModel:
    def test_degree_one_chain(self):
        mod = modify(theta_graph(), {"e1": 1})
        deg = theta_deg(mod, {"e1": (1,)}, v=0, w=1)
        model = pushforward_model(mod, deg)
        assert model.noninvertible == frozenset({"e1"})
        assert model.multidegree.as_dict == {"v": 0, "w": 1}
        assert model.degree == deg.total == 2

    def test_zero_sum_pair_corrects_negative_side(self):
        mod = modify(elliptic_bridge(), {"e1": 2})
        deg = theta_deg(mod, {"e1": (1, -1)}, v=1, w=1)
        model = pushforward_model(mod, deg)
        assert model.noninvertible == frozenset({"e1"})
        assert model.multidegree.as_dict == {"v": 1, "w": 0}

    def test_zero_chain_is_invertible(self):
        mod = modify(theta_graph(), {"e1": 1})
        deg = theta_deg(mod, {"e1": (0,)}, v=2, w=-1)
        model = pushforward_model(mod, deg)
        assert model.noninvertible == frozenset()
        assert model.multidegree.as_dict == {"v": 2, "w": -1}

    def test_negative_chain_corrects_both_sides(self):
        mod = modify(theta_graph(), {"e1": 1})
        deg = theta_deg(mod, {"e1": (-1,)}, v=1, w=1)
        model = pushforward_model(mod, deg)
        assert model.noninvertible == frozenset({"e1"})
        assert model.multidegree.as_dict == {"v": 0, "w": 0}
        assert model.degree == deg.total == 1

    def test_negative_chain_on_loop_corrects_twice(self):
        mod = modify(loop_vertex(), {"l": 1})
        deg = Multidegree(mod.source, (("v", 2), ("l#1", -1)))
        model = pushforward_model(mod, deg)
        assert model.noninvertible == frozenset({"l"})
        assert model.multidegree.as_dict == {"v": 0}
        assert model.degree == deg.total == 1

    def test_not_admissible_raises(self):
        mod = modify(theta_graph(), {"e1": 2})
        deg = theta_deg(mod, {"e1": (2, -1)}, v=0, w=0)
        with pytest.raises(NotAdmissibleError):
            pushforward_model(mod, deg)

    def test_identity_modification_passes_through(self):
        mod = modify(theta_graph(), {})
        deg = Multidegree(theta_graph(), (("v", 3), ("w", -1)))
        model = pushforward_model(mod, deg)
        assert model.noninvertible == frozenset()
        assert model.multidegree == deg



def alternates(seq):
    """The condition of the alternation lemma, read off the entries themselves."""
    nonzero = [d for d in seq if d]
    return (all(d in (-1, 0, 1) for d in seq)
            and all(a == -b for a, b in zip(nonzero, nonzero[1:])))


class TestEndRule:
    """The alternation lemma of ``pushforward`` and the end rule it gives
    ``pushforward_model``; oracles: ``interval_sum_range`` and
    ``pushforward_degree_oracle``."""

    def test_alternation_lemma_on_every_short_sequence(self):
        admissible = 0
        for k in range(1, 8):
            for seq in product(range(-2, 3), repeat=k):
                lo, hi = interval_sum_range(seq)
                assert (-1 <= lo and hi <= 1) == alternates(seq), seq
                admissible += alternates(seq)
        # 2^(k+1) - 1 alternating sequences of each length k
        assert admissible == 501

    def test_model_matches_the_oracle_on_every_admissible_chain(self):
        cases = 0
        for graph, edge, plain in ((theta_graph(), "e1", {"v": 1, "w": 0}),
                                   (loop_vertex(), "l", {"v": 1})):
            for k in range(1, 7):
                mod = modify(graph, {edge: k})
                for seq in product((-1, 0, 1), repeat=k):
                    if not alternates(seq):
                        continue
                    deg = theta_deg(mod, {edge: seq}, **plain)
                    model = pushforward_model(mod, deg)
                    assert model.noninvertible == ({edge} if any(seq) else set())
                    assert model.degree == deg.total
                    for w in connected_subcurves(mod.target):
                        want = pushforward_degree_oracle(mod, deg, w)
                        assert sheaf_degree(model, w) == want, (edge, seq, w)
                    cases += 1
        assert cases == 2 * 246

def boundary_instances():
    """Every chain sequence in [-2, 2]^k, k <= 3, on one edge; pairs with k <= 2 on theta."""
    window = range(-2, 3)
    for graph, plain in ((theta_graph(), {"v": 1, "w": -1}),
                         (elliptic_bridge(), {"v": 0, "w": 2}),
                         (loop_vertex(), {"v": 1})):
        edge = graph.edges[0][0]
        for k in (1, 2, 3):
            mod = modify(graph, {edge: k})
            for seq in product(window, repeat=k):
                yield mod, theta_deg(mod, {edge: seq}, **plain)
    for k1, k2 in product((1, 2), repeat=2):
        mod = modify(theta_graph(), {"e1": k1, "e2": k2})
        for seq1 in product(window, repeat=k1):
            for seq2 in product(window, repeat=k2):
                yield mod, theta_deg(mod, {"e1": seq1, "e2": seq2}, v=0, w=1)


def first_inadmissible_chain(mod, deg):
    for e, degs in chain_degrees(mod, deg):
        lo, hi = interval_sum_range(degs)
        if lo < -1 or hi > 1:
            return e, degs, lo, hi
    return None


class TestBoundary:
    def test_model_or_error_exactly_at_the_admissibility_boundary(self):
        refused = accepted = 0
        for mod, deg in boundary_instances():
            bad = first_inadmissible_chain(mod, deg)
            assert (bad is None) == admissibility(mod, deg).admissible
            if bad is not None:
                e, degs, lo, hi = bad
                with pytest.raises(NotAdmissibleError) as exc:
                    pushforward_model(mod, deg)
                assert str(exc.value) == (
                    f"chain over {e!r} has a contiguous run of degree "
                    f"{lo if lo < -1 else hi}: {list(degs)}"
                )
                refused += 1
                continue
            model = pushforward_model(mod, deg)
            assert model.degree == deg.total
            for w in connected_subcurves(mod.target):
                assert sheaf_degree(model, w) == pushforward_degree_oracle(mod, deg, w)
            accepted += 1
        assert refused and accepted


class TestOracle:
    def test_multidegree_on_the_target_is_refused(self):
        mod = modify(theta_graph(), {"e1": 2})
        deg = Multidegree(theta_graph(), {"v": 1, "w": 1})
        for call in (lambda: chain_degrees(mod, deg),
                     lambda: pushforward_degree_oracle(mod, deg, {"v"})):
            with pytest.raises(ValueError) as exc:
                call()
            assert str(exc.value) == "multidegree does not live on the modification source"

    def test_boundary_chain_takes_worst_prefix(self):
        mod = modify(elliptic_bridge(), {"e1": 1})
        deg = theta_deg(mod, {"e1": (-1,)}, v=2, w=0)
        assert pushforward_degree_oracle(mod, deg, {"v"}) == 1

    def test_whole_curve_gives_total(self):
        mod = modify(theta_graph(), {"e1": 2, "e2": 1})
        deg = theta_deg(mod, {"e1": (1, -1), "e2": (0,)}, v=1, w=2)
        assert pushforward_degree_oracle(mod, deg, {"v", "w"}) == deg.total

    def test_no_chains_touching_w(self):
        path = DualGraph(
            (("u", 1), ("v", 1), ("w", 1)),
            (("e1", ("u", "v")), ("e2", ("v", "w"))),
        )
        mod = modify(path, {"e2": 1})
        deg = Multidegree(mod.source, (("u", 3), ("v", 0), ("w", 0), ("e2#1", 1)))
        assert pushforward_degree_oracle(mod, deg, {"u"}) == 3

    def test_disconnected_subcurve_rejected(self):
        mod = modify(theta_graph(), {"e1": 1})
        path = DualGraph(
            (("u", 1), ("v", 1), ("w", 1)),
            (("e1", ("u", "v")), ("e2", ("v", "w"))),
        )
        pmod = modify(path, {"e1": 1})
        deg = Multidegree(
            pmod.source, (("u", 0), ("v", 0), ("w", 0), ("e1#1", 0))
        )
        with pytest.raises(ValueError):
            pushforward_degree_oracle(pmod, deg, {"u", "w"})

    def test_matches_prefix_enumeration(self):
        # independently: the degree on W is the minimum of deg(L) over
        # subcurves made of W's strict transform, full internal chains,
        # and an arbitrary prefix of every boundary chain
        for graph in (theta_graph(), elliptic_bridge()):
            for mod, deg in exhaustive_instances(graph, max_eta=2, plain_window=1):
                values = deg.as_dict
                for w in connected_subcurves(mod.target):
                    base = sum(values[v] for v in w)
                    chain_options = []
                    for e, chain in mod.chain_registry:
                        a, b = mod.target.ends(e)
                        seq = [values[c] for c in chain]
                        inside_a, inside_b = a in w, b in w
                        if inside_a and inside_b:
                            base += sum(seq)
                        elif inside_a:
                            chain_options.append(seq)
                        elif inside_b:
                            chain_options.append(seq[::-1])
                    best = 0
                    for cuts in product(
                        *(range(len(seq) + 1) for seq in chain_options)
                    ):
                        extra = sum(
                            sum(seq[:cut])
                            for seq, cut in zip(chain_options, cuts)
                        )
                        best = min(best, extra) if chain_options else 0
                    want = base + best
                    assert pushforward_degree_oracle(mod, deg, w) == want

    def test_model_agrees_with_oracle_on_family(self):
        for mod, deg in exhaustive_instances(elliptic_bridge(), max_eta=2, plain_window=1):
            model = pushforward_model(mod, deg)
            for w in connected_subcurves(mod.target):
                assert sheaf_degree(model, w) == pushforward_degree_oracle(mod, deg, w)


class TestDiagnostics:
    def test_torsion(self):
        mod = modify(theta_graph(), {"e1": 2})
        deg = theta_deg(mod, {"e1": (2, -1)}, v=0, w=0)
        diag = pushforward_diagnostics(mod, deg)
        assert diag.has_torsion and not diag.degree_drops

    def test_degree_drop(self):
        mod = modify(theta_graph(), {"e1": 3})
        deg = theta_deg(mod, {"e1": (-1, 0, -1)}, v=0, w=0)
        diag = pushforward_diagnostics(mod, deg)
        assert diag.degree_drops and not diag.has_torsion

    def test_clean_pair(self):
        mod = modify(theta_graph(), {"e1": 2})
        deg = theta_deg(mod, {"e1": (1, -1)}, v=0, w=0)
        diag = pushforward_diagnostics(mod, deg)
        assert not diag.has_torsion and not diag.degree_drops
        assert diag.noninvertible_edges == ("e1",)


class TestSamePushforward:
    def test_shift_along_chain(self):
        mod = modify(theta_graph(), {"e1": 2})
        deg = theta_deg(mod, {"e1": (1, -1)}, v=0, w=1)
        other = twist(deg, Twister(mod.source, (("e1#1", 1),)))
        # the twist turns the chain into (-1, 0) and bumps the v side
        assert other.as_dict == {"v": 1, "w": 1, "e1#1": -1, "e1#2": 0}
        assert same_pushforward(mod, deg, other)
        assert pushforward_model(mod, deg) == pushforward_model(mod, other)

    def test_zero_twist(self):
        mod = modify(theta_graph(), {"e1": 1})
        deg = theta_deg(mod, {"e1": (1,)}, v=0, w=1)
        assert same_pushforward(mod, deg, deg)

    def test_non_admissible_precondition(self):
        mod = modify(theta_graph(), {"e1": 2})
        deg = theta_deg(mod, {"e1": (1, -1)}, v=0, w=0)
        bad = theta_deg(mod, {"e1": (2, 0)}, v=-1, w=0)
        with pytest.raises(NotAdmissibleError):
            same_pushforward(mod, deg, bad)

    def test_unrelated_bundles_return_false(self):
        # same chain degrees, endpoints shuffled: no chain-supported
        # twister can relate the two, so the answer is False even
        # though both are admissible
        mod = modify(theta_graph(), {"e1": 1})
        a = theta_deg(mod, {"e1": (1,)}, v=0, w=1)
        b = theta_deg(mod, {"e1": (1,)}, v=1, w=0)
        assert pushforward_model(mod, a) != pushforward_model(mod, b)
        assert not same_pushforward(mod, a, b)

    def test_non_integral_solution_returns_false(self):
        # chain delta -1 on a length-1 chain would need coefficient 1/2
        mod = modify(theta_graph(), {"e1": 1})
        a = theta_deg(mod, {"e1": (1,)}, v=0, w=1)
        b = theta_deg(mod, {"e1": (0,)}, v=1, w=1)
        assert not same_pushforward(mod, a, b)

    def test_mismatch_error_signals_broken_invariant(self):
        # reachable only if a relating twister ever changed the model
        assert issubclass(ModelMismatchError, AssertionError)

    def test_exhaustive_twists_agree(self):
        mod = modify(elliptic_bridge(), {"e1": 2})
        deg = theta_deg(mod, {"e1": (0, 1)}, v=1, w=0)
        base = pushforward_model(mod, deg)
        for c1, c2 in product(range(-2, 3), repeat=2):
            other = twist(deg, Twister(mod.source, (("e1#1", c1), ("e1#2", c2))))
            if not admissibility(mod, other).admissible:
                continue
            assert pushforward_model(mod, other) == base
            assert same_pushforward(mod, deg, other)


def fraction_twister_coefficients(deltas):
    """The rational solve: c[i] = alpha[i]*t + beta[i], t from c[k+1] = 0."""
    k = len(deltas)
    alpha = [Fraction(0), Fraction(1)]
    beta = [Fraction(0), Fraction(0)]
    for i in range(1, k + 1):
        alpha.append(2 * alpha[i] - alpha[i - 1])
        beta.append(2 * beta[i] - beta[i - 1] + deltas[i - 1])
    t = -beta[k + 1] / alpha[k + 1]
    coeffs = [alpha[i] * t + beta[i] for i in range(1, k + 1)]
    if any(c.denominator != 1 for c in coeffs):
        return None
    return [int(c) for c in coeffs]


class TestChainTwisterCoefficients:
    """The integer solve; oracle: the same recurrence in exact fractions."""

    def test_matches_the_rational_solve(self):
        integral = 0
        for k in range(5):
            for deltas in product(range(-4, 5), repeat=k):
                want = fraction_twister_coefficients(list(deltas))
                got = _chain_twister_coefficients(list(deltas))
                assert got == want, deltas
                if got is not None:
                    integral += 1
                    assert all(type(c) is int for c in got)
                    c = [0, *got, 0]
                    assert [c[i - 1] - 2 * c[i] + c[i + 1]
                            for i in range(1, k + 1)] == list(deltas)
        assert integral > 0
