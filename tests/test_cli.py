"""End-to-end command line coverage driven through main()."""

import argparse
import hashlib
import json
import math
import random
import sys
import time
from fractions import Fraction
from itertools import combinations
from string import Template

import pytest

from conftest import registry_chains
from nodalcalc import cli, graphs, interval_sum_range, modify
from nodalcalc import verify as verify_module

THETA = {
    "vertices": [{"id": "v", "genus": 0}, {"id": "w", "genus": 0}],
    "edges": [
        {"id": "e1", "ends": ["v", "w"]},
        {"id": "e2", "ends": ["v", "w"]},
        {"id": "e3", "ends": ["v", "w"]},
    ],
}

BANANA = {
    "vertices": [{"id": "v", "genus": 1}, {"id": "w", "genus": 1}],
    "edges": [{"id": "e1", "ends": ["v", "w"]}],
}


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv)
    assert err == ""
    return code, json.loads(out)


class TestClassify:
    def test_theta(self, tmp_path, capsys):
        curve = write(tmp_path, "theta.json", THETA)
        code, data = run_json(capsys, ["classify", curve])
        assert code == 0
        assert data["genus"] == 2
        assert data["class"] == "stable"
        assert data["omega"] == {"v": 1, "w": 1}
        assert data["chains"] == []

    def test_disconnected(self, tmp_path, capsys):
        curve = write(tmp_path, "split.json", {
            "vertices": [{"id": "a", "genus": 1}, {"id": "b", "genus": 1}],
            "edges": [],
        })
        code, out, err = run(capsys, ["classify", curve])
        assert code == 2
        assert out == ""
        assert "error:" in err and "connected" in err

    def test_parse_error_location(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"vertices": [\n  {"id" "v"}\n]}', encoding="utf-8")
        code, out, err = run(capsys, ["classify", str(path)])
        assert code == 2
        assert f"{path}:2:" in err

    def test_byte_order_mark_named(self, tmp_path, capsys):
        path = tmp_path / "bom.json"
        path.write_text("\ufeff" + json.dumps(THETA), encoding="utf-8")
        code, out, err = run(capsys, ["classify", str(path)])
        assert (code, out) == (2, "")
        assert err == f"error: {path}:1:1: Unexpected UTF-8 BOM (decode using utf-8-sig)\n"

    def test_missing_file(self, tmp_path, capsys):
        code, _, err = run(capsys, ["classify", str(tmp_path / "nope.json")])
        assert code == 2
        assert "error:" in err


class TestModifyAndStableModel:
    def test_modify(self, tmp_path, capsys):
        curve = write(tmp_path, "theta.json", THETA)
        mod = write(tmp_path, "mod.json", {
            "target": json.loads((tmp_path / "theta.json").read_text(encoding="utf-8")),
            "modified_edges": [{"edge": "e1", "length": 2}],
        })
        code, data = run_json(capsys, ["modify", mod])
        assert code == 0
        assert data["chains"] == {"e1": ["e1#1", "e1#2"]}
        names = {v["id"] for v in data["source"]["vertices"]}
        assert names == {"v", "w", "e1#1", "e1#2"}

    def test_stable_model(self, tmp_path, capsys):
        chainy = {
            "vertices": [
                {"id": "v", "genus": 1},
                {"id": "m", "genus": 0},
                {"id": "w", "genus": 1},
            ],
            "edges": [
                {"id": "a", "ends": ["v", "m"]},
                {"id": "b", "ends": ["m", "w"]},
            ],
        }
        curve = write(tmp_path, "chainy.json", chainy)
        code, data = run_json(capsys, ["stable-model", curve])
        assert code == 0
        # the contracted edge takes the joined chain-vertex name
        assert data["chains"] == {"m": ["m"]}
        assert [v["id"] for v in data["target"]["vertices"]] == ["v", "w"]


class TestPushforward:
    def test_clean_bundle(self, tmp_path, capsys):
        mod = write(tmp_path, "mod.json", {
            "target": THETA,
            "modified_edges": [{"edge": "e1", "length": 1}],
        })
        deg = write(tmp_path, "deg.json", {"v": 0, "w": 1, "e1#1": 1})
        code, data = run_json(capsys, ["pushforward", mod, deg])
        assert code == 0
        assert data["admissibility"]["admissible"] is True
        assert data["admissibility"]["invertible"] is False
        assert data["model"] == {"noninvertible": ["e1"], "multidegree": {"v": 0, "w": 1}}
        assert data["oracle_agrees"] is True
        assert data["diagnostics"]["noninvertible_edges"] == ["e1"]

    def test_inadmissible_bundle(self, tmp_path, capsys):
        mod = write(tmp_path, "mod.json", {
            "target": THETA,
            "modified_edges": [{"edge": "e1", "length": 1}],
        })
        deg = write(tmp_path, "deg.json", {"v": 0, "w": 0, "e1#1": 2})
        code, data = run_json(capsys, ["pushforward", mod, deg])
        assert code == 0
        assert data["admissibility"]["admissible"] is False
        assert data["model"] is None
        assert data["oracle_agrees"] is None

    def test_invertible_bundle(self, tmp_path, capsys):
        mod = write(tmp_path, "mod.json", {"target": THETA, "modified_edges": []})
        deg = write(tmp_path, "deg.json", {"v": 2, "w": 0})
        code, data = run_json(capsys, ["pushforward", mod, deg])
        assert code == 0
        assert data["admissibility"]["invertible"] is True
        assert data["model"] == {"noninvertible": [], "multidegree": {"v": 2, "w": 0}}


class TestChainH:
    def test_plain(self, capsys):
        code, data = run_json(capsys, ["chain-h", "--degrees", "2,-1,1"])
        assert code == 0
        assert (data["h0"], data["h1"]) == (3, 0)
        assert data["interval_min"] == -1
        assert data["interval_max"] == 2

    def test_punctured(self, capsys):
        code, data = run_json(capsys, ["chain-h", "--degrees", "1,-1", "--punctured"])
        assert code == 0
        assert (data["h0"], data["h1"]) == (0, 1)

    def test_bad_degrees(self, capsys):
        code, _, err = run(capsys, ["chain-h", "--degrees", "1,x"])
        assert code == 2
        assert "comma-separated" in err

    def test_negative_first_degree(self, capsys):
        # "--degrees -1,2" would read "-1,2" as an option; the = form works
        code, data = run_json(capsys, ["chain-h", "--degrees=-1,2"])
        assert code == 0
        assert data["degrees"] == [-1, 2]

    def test_interval_sums_match_every_run(self, capsys):
        # the command bounds the run sums in one pass; oracle: interval_sum_range
        rng = random.Random(26)
        chains = [(0,), (-3,), (4, -4), (1, -1) * 5] + [
            tuple(rng.randint(-3, 3) for _ in range(rng.randint(1, 30))) for _ in range(200)]
        for degs in chains:
            code, data = run_json(capsys, ["chain-h", "--degrees=" + ",".join(map(str, degs))])
            assert code == 0
            assert (data["interval_min"], data["interval_max"]) == interval_sum_range(degs), degs

    def test_long_chain_answers_at_once(self, capsys):
        # 20,000 zeros once took 13.7 s, all of it in summing every run
        start = time.perf_counter()
        code, data = run_json(capsys, ["chain-h", "--degrees=" + ",".join(["0"] * 20000),
                                       "--punctured"])
        assert time.perf_counter() - start < 5
        assert code == 0
        assert (data["h0"], data["h1"], data["interval_min"], data["interval_max"]) == (0, 1, 0, 0)


class TestChecks:
    def test_stability_pass(self, tmp_path, capsys):
        curve = write(tmp_path, "theta.json", THETA)
        sheaf = write(tmp_path, "sheaf.json",
                      {"noninvertible": [], "multidegree": {"v": 1, "w": 1}})
        code, data = run_json(capsys, ["check-stability", curve, sheaf, "--mode", "stable"])
        assert code == 0
        assert data["verdict"] is True
        assert data["failures"] == []

    def test_stability_fail_exit(self, tmp_path, capsys):
        curve = write(tmp_path, "theta.json", THETA)
        sheaf = write(tmp_path, "sheaf.json",
                      {"noninvertible": [], "multidegree": {"v": 3, "w": -1}})
        code, data = run_json(capsys, ["check-stability", curve, sheaf])
        assert code == 1
        assert data["verdict"] is False
        assert data["failures"] == [{"margin": -1, "subcurve": ["w"]}]

    def test_quasistable_needs_base(self, tmp_path, capsys):
        curve = write(tmp_path, "theta.json", THETA)
        sheaf = write(tmp_path, "sheaf.json",
                      {"noninvertible": [], "multidegree": {"v": 1, "w": 1}})
        code, _, err = run(capsys, ["check-stability", curve, sheaf,
                                    "--mode", "quasistable"])
        assert code == 2
        assert "base" in err

    def test_quasistable_unknown_base(self, tmp_path, capsys):
        curve = write(tmp_path, "theta.json", THETA)
        sheaf = write(tmp_path, "sheaf.json",
                      {"noninvertible": [], "multidegree": {"v": -1, "w": 2}})
        code, out, err = run(capsys, ["check-stability", curve, sheaf,
                                      "--mode", "quasistable", "--base-vertex", "nosuch"])
        assert code == 2
        assert out == ""
        assert "not a vertex" in err

    def test_balanced_pass(self, tmp_path, capsys):
        curve = write(tmp_path, "theta.json", THETA)
        deg = write(tmp_path, "deg.json", {"v": 1, "w": 1})
        code, data = run_json(capsys, ["check-balanced", curve, deg,
                                       "--mode", "stably-balanced"])
        assert code == 0
        assert data["verdict"] is True

    def test_balanced_fail_exit(self, tmp_path, capsys):
        curve = write(tmp_path, "theta.json", THETA)
        deg = write(tmp_path, "deg.json", {"v": 3, "w": -1})
        code, data = run_json(capsys, ["check-balanced", curve, deg])
        assert code == 1
        assert data["verdict"] is False


GOLDEN_BALANCED = """\
{
  "equality_sites": [],
  "exceptional_violations": [],
  "failures": [
    {
      "margin": "-1/2",
      "subcurve": [
        "w"
      ]
    }
  ],
  "mode": "balanced",
  "verdict": false
}
"""

GOLDEN_STABILITY = """\
{
  "base_vertex": null,
  "degree": 2,
  "equality_sites": [],
  "failures": [
    {
      "margin": -1,
      "subcurve": [
        "w"
      ]
    }
  ],
  "mode": "semistable",
  "verdict": false
}
"""


@pytest.mark.parametrize("command, payload, golden", [
    ("check-balanced", {"v": 3, "w": -1}, GOLDEN_BALANCED),
    ("check-stability", {"noninvertible": [], "multidegree": {"v": 3, "w": -1}},
     GOLDEN_STABILITY),
])
def test_golden_check_output(tmp_path, capsys, command, payload, golden):
    # the canonical chi margin is (2g - 2) times the degree-bound margin
    curve = write(tmp_path, "theta.json", THETA)
    code, out, err = run(capsys, [command, curve, write(tmp_path, "in.json", payload)])
    assert (code, out, err) == (1, golden, "")


# theta with e1 subdivided once
THETA_E1_SUBDIVIDED = {
    "vertices": [{"id": "v", "genus": 0}, {"id": "w", "genus": 0}, {"id": "e1#1", "genus": 0}],
    "edges": [
        {"id": "e1#0-1", "ends": ["v", "e1#1"]},
        {"id": "e1#1-2", "ends": ["e1#1", "w"]},
        {"id": "e2", "ends": ["v", "w"]},
        {"id": "e3", "ends": ["v", "w"]},
    ],
}

GOLDEN_TIE_STABILITY = Template("""\
{
  "base_vertex": $base,
  "degree": 1,
  "equality_sites": [
    [
      "v"
    ]
  ],
  "failures": [],
  "mode": "$mode",
  "verdict": $verdict
}
""")

GOLDEN_TIE_BALANCED = Template("""\
{
  "equality_sites": [
    [
      "v",
      "w"
    ]
  ],
  "exceptional_violations": [],
  "failures": [],
  "mode": "$mode",
  "verdict": true
}
""")

TIE_SHEAF = {"noninvertible": [], "multidegree": {"v": -1, "w": 2}}
TIE_DEGREES = {"v": 0, "w": 1, "e1#1": 1}


@pytest.mark.parametrize("command, curve, payload, options, code, golden", [
    ("check-stability", THETA, TIE_SHEAF, [], 0,
     GOLDEN_TIE_STABILITY.substitute(base="null", mode="semistable", verdict="true")),
    ("check-stability", THETA, TIE_SHEAF, ["--mode", "stable"], 1,
     GOLDEN_TIE_STABILITY.substitute(base="null", mode="stable", verdict="false")),
    ("check-stability", THETA, TIE_SHEAF, ["--mode", "quasistable", "--base-vertex", "v"], 1,
     GOLDEN_TIE_STABILITY.substitute(base='"v"', mode="quasistable", verdict="false")),
    ("check-stability", THETA, TIE_SHEAF, ["--mode", "quasistable", "--base-vertex", "w"], 0,
     GOLDEN_TIE_STABILITY.substitute(base='"w"', mode="quasistable", verdict="true")),
    ("check-balanced", THETA_E1_SUBDIVIDED, TIE_DEGREES, [], 0,
     GOLDEN_TIE_BALANCED.substitute(mode="balanced")),
    ("check-balanced", THETA_E1_SUBDIVIDED, TIE_DEGREES, ["--mode", "stably-balanced"], 0,
     GOLDEN_TIE_BALANCED.substitute(mode="stably-balanced")),
], ids=["semistable", "stable", "quasistable_v", "quasistable_w", "balanced",
        "stably_balanced"])
def test_golden_check_output_at_a_tie(tmp_path, capsys, command, curve, payload, options,
                                      code, golden):
    # One equality site in every mode.  On theta the margin on [v] is 0, so the
    # site passes semistable, fails stable, and passes quasistable only at a
    # base vertex outside it.  On the subdivided theta the site [v, w] has the
    # exceptional complement [e1#1], so it passes stably balanced too.
    argv = [command, write(tmp_path, "curve.json", curve), write(tmp_path, "in.json", payload)]
    assert run(capsys, argv + options) == (code, golden, "")


class TestCorrespondenceCommands:
    def test_phi(self, tmp_path, capsys):
        mod = write(tmp_path, "mod.json", {
            "target": THETA,
            "modified_edges": [{"edge": "e1", "length": 1}],
        })
        deg = write(tmp_path, "deg.json", {"v": 0, "w": 1, "e1#1": 1})
        code, data = run_json(capsys, ["phi", mod, deg])
        assert code == 0
        assert data["model"] == {"noninvertible": ["e1"], "multidegree": {"v": 0, "w": 1}}

    def test_phi_inv(self, tmp_path, capsys):
        curve = write(tmp_path, "theta.json", THETA)
        sheaf = write(tmp_path, "sheaf.json",
                      {"noninvertible": ["e1"], "multidegree": {"v": 0, "w": 1}})
        code, data = run_json(capsys, ["phi-inv", curve, sheaf])
        assert code == 0
        assert data["modification"]["modified_edges"] == [{"edge": "e1", "length": 1}]
        assert data["multidegree"] == {"v": 0, "w": 1, "e1#1": 1}

    def test_enumerate_balanced(self, tmp_path, capsys):
        curve = write(tmp_path, "theta.json", THETA)
        code, data = run_json(capsys, ["enumerate", curve, "--degree", "2"])
        assert code == 0
        assert data["count"] == 12

    def test_enumerate_models(self, tmp_path, capsys):
        curve = write(tmp_path, "banana.json", BANANA)
        code, data = run_json(capsys, ["enumerate", curve, "--degree", "2",
                                       "--mode", "semistable"])
        assert code == 0
        assert data["items"] == [{"noninvertible": [], "multidegree": {"v": 1, "w": 1}}]

    def test_certify(self, tmp_path, capsys):
        curve = write(tmp_path, "theta.json", THETA)
        code, data = run_json(capsys, ["certify", curve, "--degree", "2"])
        assert code == 0
        assert data["bijection"] is True
        assert data["balanced_count"] == 12


class TestOutputHandling:
    def test_output_file(self, tmp_path, capsys):
        curve = write(tmp_path, "theta.json", THETA)
        out = tmp_path / "report.json"
        code, stdout, _ = run(capsys, ["classify", curve, "--output", str(out)])
        assert code == 0
        assert stdout == ""
        assert json.loads(out.read_text())["genus"] == 2

    def test_unwritable_output(self, tmp_path, capsys):
        curve = write(tmp_path, "theta.json", THETA)
        target = tmp_path / "missing" / "report.json"
        code, out, err = run(capsys, ["classify", curve, "--output", str(target)])
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and str(target) in err

    def test_byte_identical_reports(self, tmp_path, capsys):
        curve = write(tmp_path, "theta.json", THETA)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(capsys, ["enumerate", curve, "--degree", "2", "--output", str(a)])
        run(capsys, ["enumerate", curve, "--degree", "2", "--output", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_keys_sorted(self, tmp_path, capsys):
        # every command prints its report as json.dumps(indent=2, sort_keys=True)
        # re-renders it, in ASCII, and writes the same bytes to an --output file
        report = tmp_path / "report.json"
        commands = every_command(tmp_path)
        assert {argv[0] for argv in commands} == set(cli._build_parser()[1])
        for argv in commands:
            code, out, err = run(capsys, argv)
            assert (code, err) == (0, ""), argv
            assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n", argv
            assert run(capsys, argv + ["--output", str(report)]) == (0, "", ""), argv
            assert report.read_bytes() == out.encode("ascii"), argv
        _, out, _ = run(capsys, commands[2])  # modify: both ids, and the chain vertex
        assert '"\\u00fc"' in out and '"\\u540d"' in out and '"\\u540d#1"' in out


# theta with a non-ASCII vertex id and a non-ASCII edge id
UNICODE_THETA = {
    "vertices": [{"id": "v", "genus": 0}, {"id": "\u00fc", "genus": 0}],
    "edges": [
        {"id": "e1", "ends": ["v", "\u00fc"]},
        {"id": "e2", "ends": ["v", "\u00fc"]},
        {"id": "\u540d", "ends": ["v", "\u00fc"]},
    ],
}


def every_command(tmp_path):
    """One passing request per command, on the non-ASCII theta where it reads a curve."""
    curve = write(tmp_path, "curve.json", UNICODE_THETA)
    mod = write(tmp_path, "mod.json", {"target": UNICODE_THETA,
                                       "modified_edges": [{"edge": "\u540d", "length": 1}]})
    deg = write(tmp_path, "deg.json", {"v": 0, "\u00fc": 1, "\u540d#1": 1})
    sheaf = write(tmp_path, "sheaf.json",
                  {"noninvertible": ["\u540d"], "multidegree": {"v": 0, "\u00fc": 1}})
    plain = write(tmp_path, "plain.json", {"v": 1, "\u00fc": 1})
    return [
        ["classify", curve],
        ["stable-model", curve],
        ["modify", mod],
        ["pushforward", mod, deg],
        ["chain-h", "--degrees=1,-1"],
        ["check-stability", curve, sheaf],
        ["check-balanced", curve, plain],
        ["phi", mod, deg],
        ["phi-inv", curve, sheaf],
        ["enumerate", curve, "--degree", "2"],
        ["enumerate", curve, "--degree", "2", "--mode", "semistable"],
        ["certify", curve, "--degree", "2"],
        TestVerifyCommand.ARGS + ["--dump-dir", str(tmp_path)],
    ]


class _Name(str):
    pass


class _Count(int):
    pass


# escapes of every kind: non-ASCII, astral, quote, backslash, control, separators, lone surrogate
STRINGS = ("", "v", "e1#2", "\u00fc", "\u540d", "\U0001f600", '"', "\\", "\n\t\x00\x1f\x7f",
           "\u2028\u2029", "\ud800", 'a"b\\c')


def random_leaf(rng):
    pick = rng.randrange(9)
    if pick == 0:
        return rng.choice(STRINGS) + rng.choice(STRINGS)
    if pick == 1:
        return rng.choice((-3, -1, 0, 1, 2, 10 ** 30, -2 ** 70))
    if pick == 2:
        return rng.choice((True, False, None))
    if pick == 3:
        return rng.choice((0.5, -0.0, 1e300, math.nan, math.inf, -math.inf))
    if pick == 4:
        return _Name(rng.choice(STRINGS))
    if pick == 5:
        return _Count(rng.randint(-2, 2))
    return rng.choice(([True, 1, False, 0], {"a": True, "b": 1, "c": False, "d": 0},
                       {}, [], (), ("x", 1)))


def random_keys(rng):
    """Keys json can sort and coerce: all strings, all numbers, or None alone."""
    pick = rng.randrange(3)
    if pick == 0:
        return [rng.choice(STRINGS) + rng.choice(STRINGS) for _ in range(rng.randint(0, 4))]
    if pick == 1:
        return rng.sample([-2, 0, 3, 10 ** 20, True, False, 0.5, -1.5, math.nan, math.inf,
                           -math.inf, _Count(7)], rng.randint(1, 4))
    return [None]


def random_payload(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return random_leaf(rng)
    if rng.random() < 0.5:
        return {key: random_payload(rng, depth - 1) for key in random_keys(rng)}
    items = [random_payload(rng, depth - 1) for _ in range(rng.randint(0, 4))]
    return tuple(items) if rng.random() < 0.3 else items


def reference_dumps(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


class TestReportWriter:
    """``cli._dumps`` against ``json.dumps(indent=2, sort_keys=True)``, the reference."""

    def test_random_payloads(self):
        rng = random.Random(2210)
        for _ in range(3000):
            payload = random_payload(rng, 4)
            assert cli._dumps(payload) == reference_dumps(payload), payload

    @pytest.mark.parametrize("payload", [
        {}, [], (), "", "\u00fc", 0, -2 ** 70, True, False, None, math.nan, -0.0, _Name("x"),
        _Count(3), {"": {}, "a": [], "b": (), "c": [{}, [[]]]},
        {"x": [True, 1, False, 0, None, 1.0]}, {_Name("b"): _Count(1), "a": 0},
    ])
    def test_edge_payloads(self, payload):
        assert cli._dumps(payload) == reference_dumps(payload)

    @pytest.mark.parametrize("payload", [
        {"a": [1, {"b": object()}]}, [Fraction(1, 2)], {"s": {1, 2}}, [b"bytes"], 1j,
        {("a",): 1}, {"a": {frozenset(): 1}}, {"a": 1, 2: 3}, {None: 1, "a": 2},
    ])
    def test_unserializable_payloads(self, payload):
        with pytest.raises(TypeError) as want:
            reference_dumps(payload)
        with pytest.raises(TypeError) as got:
            cli._dumps(payload)
        assert str(got.value) == str(want.value)


class TestVerifyCommand:
    ARGS = ["verify", "--suite", "chain-cohomology", "--suite", "roundtrip",
            "--instances", "3", "--max-vertices", "4", "--chain-length-max", "2"]

    def test_passing_run(self, tmp_path, capsys):
        code, data = run_json(capsys, self.ARGS + ["--dump-dir", str(tmp_path)])
        assert code == 0
        assert data["ok"] is True
        assert set(data["suites"]) == {"chain-cohomology", "roundtrip"}
        assert "reproduction_files" not in data
        assert list(tmp_path.iterdir()) == []

    def test_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(capsys, self.ARGS + ["--output", str(a)])
        run(capsys, self.ARGS + ["--output", str(b)])
        assert a.read_bytes() == b.read_bytes()

    @pytest.fixture
    def failing_roundtrip(self, monkeypatch):
        """The planted first failure of a failing roundtrip suite."""
        failure = {"detail": "planted", "curve": UNICODE_THETA, "margin": (-1, "1/2")}
        bad = {
            "config": {"suites": ["roundtrip"]},
            "suites": {
                "roundtrip": {
                    "status": "fail",
                    "cases": 1,
                    "failure_count": 1,
                    "failures": [failure],
                }
            },
            "ok": False,
        }
        monkeypatch.setattr(cli, "run_verification", lambda cfg: bad)
        return failure

    def test_failure_dumps_counterexample(self, tmp_path, capsys, failing_roundtrip):
        code, data = run_json(capsys, ["verify", "--suite", "roundtrip",
                                       "--dump-dir", str(tmp_path)])
        assert code == 1
        assert data["reproduction_files"] == {"roundtrip": "counterexample-roundtrip.json"}
        # the bytes stdout would hold for the failure itself
        dumped = (tmp_path / "counterexample-roundtrip.json").read_bytes()
        assert dumped == reference_dumps(failing_roundtrip).encode("ascii")
        assert json.loads(dumped)["detail"] == "planted"

    @pytest.mark.usefixtures("failing_roundtrip")
    def test_unwritable_dump_dir(self, tmp_path, capsys):
        missing = tmp_path / "missing"
        code, out, err = run(capsys, ["verify", "--suite", "roundtrip",
                                      "--dump-dir", str(missing)])
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and str(missing) in err

    def test_bad_config_rejected(self, capsys):
        code, _, err = run(capsys, ["verify", "--instances", "0"])
        assert code == 2
        assert "instance_count" in err

    def test_oversized_chain_cohomology_refused_before_any_suite(self, capsys, monkeypatch):
        # length 12 once walked 7^1 + ... + 7^12 degree sequences and hung; length 7
        # (960,799 of them) ran about 25 s
        monkeypatch.setattr(cli, "run_verification", lambda cfg: pytest.fail("a suite ran"))
        for argv in (["--suite", "chain-cohomology", "--chain-length-max", "12"],
                     ["--suite", "chain-cohomology", "--chain-length-max", "7"],
                     ["--suite", "roundtrip", "--suite", "chain-cohomology",
                      "--chain-length-max", "7"],
                     ["--chain-length-max", "7"]):
            code, out, err = run(capsys, ["verify"] + argv)
            assert (code, out) == (2, "")
            length = argv[-1]
            assert err == (f"error: chain-cohomology walks 7^1 + ... + 7^{length} degree "
                           "sequences, more than 262144; too many to enumerate\n")

    def test_oversized_admissible_chains_refused_before_any_suite(self, capsys, monkeypatch):
        # pushforward and compadm walk all 3^n sequences of a chain length n for its
        # admissible ones: 12 ran 9.5 s and 14 was still running at 60 s
        monkeypatch.setattr(cli, "run_verification", lambda cfg: pytest.fail("a suite ran"))
        for suite in ("pushforward", "compadm"):
            code, out, err = run(capsys, ["verify", "--suite", suite, "--chain-length-max", "12"])
            assert (code, out) == (2, "")
            assert err == (f"error: {suite} walks 3^12 degree sequences, more than 262144; "
                           "too many to enumerate\n")

    # sha256 of the default run's stdout followed by "exit 0\n", the bytes CI pins
    DEFAULT_RUN_SHA256 = "c5cc9a13a83d95e11fdf13308041431160cbb915f40b72e10a43760b3f451ce4"

    def test_default_run_matches_its_pin(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)  # where a failing suite would dump
        code, out, err = run(capsys, ["verify"])
        assert (code, err) == (0, "")
        pinned = f"{out}exit {code}\n".encode("ascii")
        assert hashlib.sha256(pinned).hexdigest() == self.DEFAULT_RUN_SHA256
        assert list(tmp_path.iterdir()) == []

    def test_counterexample_replays_through_the_cli(self, tmp_path, capsys, monkeypatch):
        # a planted fault: the unit chain twist leaves the bundle as it is, so
        # the biss suite fails on a real modification and multidegree
        monkeypatch.setattr(verify_module, "twist", lambda deg, tw: deg)
        code, data = run_json(capsys, ["verify", "--suite", "biss", "--instances", "1",
                                       "--dump-dir", str(tmp_path)])
        assert code == 1 and data["suites"]["biss"]["status"] == "fail"
        assert data["reproduction_files"] == {"biss": "counterexample-biss.json"}
        failure = json.loads((tmp_path / "counterexample-biss.json").read_text("ascii"))
        assert failure["modification"]["chains"]
        mod = write(tmp_path, "mod.json", failure["modification"])
        deg = write(tmp_path, "deg.json", failure["multidegree"])
        code, image = run_json(capsys, ["phi", mod, deg])
        assert code == 0 and image["curve"] == failure["curve"]
        code, pushed = run_json(capsys, ["pushforward", mod, deg])
        assert code == 0 and pushed["admissibility"]["admissible"] is True
        assert pushed["model"] == image["model"]
        assert image["model"]["noninvertible"] == sorted(failure["modification"]["chains"])


MOD_WITH_CHAINS = {
    "target": THETA,
    "modified_edges": [{"edge": "e1", "length": 1}],
    "source": {
        "vertices": [{"id": "v"}, {"id": "w"}, {"id": "e1#1"}],
        "edges": [
            {"id": "e1#0-1", "ends": ["v", "e1#1"]},
            {"id": "e1#1-2", "ends": ["e1#1", "w"]},
            {"id": "e2", "ends": ["v", "w"]},
            {"id": "e3", "ends": ["v", "w"]},
        ],
    },
    "chains": {"e1": ["e1#1"]},
}


@pytest.mark.parametrize("argv, files", [
    (["check-balanced", "curve", "in"], {"curve": THETA, "in": {"v": 0.9, "w": 1.5}}),
    (["pushforward", "in", "deg"],
     {"in": {"target": THETA, "modified_edges": [{"edge": "e1", "length": 1}]},
      "deg": {"v": 0, "w": None, "e1#1": 1}}),
    (["phi-inv", "curve", "in"],
     {"curve": {**THETA, "edges": [{"id": e, "ends": ["v", "w"]} for e in "abc"]},
      "in": {"noninvertible": "ab", "multidegree": {"v": 0, "w": 1}}}),
    (["modify", "in"], {"in": {**MOD_WITH_CHAINS, "chains": [["e1", "e1#1"]]}}),
    (["modify", "in"], {"in": {**MOD_WITH_CHAINS, "modified_edges": [
        {"edge": "e1", "length": True}]}}),
    (["check-stability", "curve", "sheaf", "--polarization", "in"],
     {"curve": THETA, "sheaf": {"noninvertible": [], "multidegree": {"v": 1, "w": 1}},
      "in": {"rank": 2.0, "e": {"v": -1, "w": -1}}}),
    (["classify", "in"], {"in": {**THETA, "vertices": [{"id": "v", "genus": "0"},
                                                        {"id": "w"}]}}),
    (["classify", "in"], {"in": {**THETA, "edges": [{"id": "e1", "ends": "vw"},
                                                     *THETA["edges"][1:]]}}),
    (["modify", "in"], {"in": {**MOD_WITH_CHAINS, "chains": {"e1": "x"}, "source": {
        "vertices": [{"id": "v"}, {"id": "w"}, {"id": "x"}],
        "edges": [{"id": "e1#0-1", "ends": ["v", "x"]}, {"id": "e1#1-2", "ends": ["x", "w"]},
                  *THETA["edges"][1:]]}}}),
], ids=["float_degrees", "null_degree", "string_noninvertible", "chains_list",
        "bool_length", "float_rank", "string_genus", "string_ends", "string_chain"])
def test_non_integer_json_rejected(tmp_path, capsys, argv, files):
    paths = {name: write(tmp_path, f"{name}.json", data) for name, data in files.items()}
    code, out, err = run(capsys, [paths.get(arg, arg) for arg in argv])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("argv, files, named", [
    (["modify", "in"],
     {"in": {"target": THETA, "modified_edges": [{"edge": "e1", "length": 1},
                                                 {"edge": "e1", "length": 2}]}},
     "modified_edges lists edge 'e1' twice"),
    (["phi-inv", "curve", "in"],
     {"curve": THETA, "in": {"noninvertible": ["e1", "e1"], "multidegree": {"v": 0, "w": 1}}},
     "sheaf 'noninvertible' lists edge 'e1' twice"),
], ids=["repeated_modified_edge", "repeated_noninvertible"])
def test_repeated_ids_rejected(tmp_path, capsys, argv, files, named):
    paths = {name: write(tmp_path, f"{name}.json", data) for name, data in files.items()}
    code, out, err = run(capsys, [paths.get(arg, arg) for arg in argv])
    assert (code, out, err) == (2, "", f"error: {named}\n")


@pytest.mark.parametrize("argv, text, key", [
    (["check-stability", "curve", "in"],
     '{"noninvertible": [], "multidegree": {"v": 1, "w": 1, "v": 3}}', "v"),
    (["classify", "in"],
     json.dumps(THETA).replace('"id": "w"', '"id": "w", "genus": 0, "id": "x"', 1), "id"),
], ids=["sheaf_multidegree", "curve_vertex"])
def test_repeated_json_keys_rejected(tmp_path, capsys, argv, text, key):
    # json would keep the last value of a repeated key: {"v": 1, "w": 1, "v": 3}
    # once read as degree 4
    curve = write(tmp_path, "curve.json", THETA)
    path = tmp_path / "in.json"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, [{"curve": curve, "in": str(path)}.get(a, a) for a in argv])
    assert (code, out, err) == (2, "", f"error: {path}: repeated key {key!r} in one object\n")


SOURCE = MOD_WITH_CHAINS["source"]
SHEAF = {"noninvertible": [], "multidegree": {"v": 1, "w": 1}}
GENUS_ONE = {"vertices": [{"id": "v", "genus": 1}], "edges": []}


@pytest.mark.parametrize("argv, files, message", [
    (["modify", "in"], {"in": {**MOD_WITH_CHAINS, "chains": {"e1": []}}},
     "empty chain registered for edge 'e1'"),
    (["modify", "in"], {"in": {**MOD_WITH_CHAINS, "chains": {"e1": ["e1#1"], "e2": ["e1#1"]}}},
     "chain registries share a vertex"),
    (["modify", "in"], {"in": {**MOD_WITH_CHAINS, "source": {
        "vertices": SOURCE["vertices"] + [{"id": "x"}],
        "edges": SOURCE["edges"] + [{"id": "f", "ends": ["v", "x"]}]}}},
     "source vertices do not match target plus chains"),
    (["modify", "in"], {"in": {**MOD_WITH_CHAINS, "source": {
        "vertices": SOURCE["vertices"],
        "edges": [{"id": "e1#0-1", "ends": ["v", "e1#1"]},
                  {"id": "e1#1-2", "ends": ["e1#1", "v"]}, *SOURCE["edges"][2:]]}}},
     "chain over 'e1' is not a path from 'v' to 'w'"),
    (["modify", "in"], {"in": [THETA]}, "modification data must be a JSON object"),
    (["pushforward", "mod", "in"],
     {"mod": {"target": THETA, "modified_edges": []}, "in": [1, 1]},
     "multidegree data must be a JSON object"),
    (["phi-inv", "curve", "in"], {"curve": THETA, "in": [SHEAF]},
     "sheaf data must be a JSON object"),
    (["check-stability", "curve", "sheaf", "--polarization", "in"],
     {"curve": THETA, "sheaf": SHEAF, "in": 2}, "polarization data must be a JSON object"),
    (["check-stability", "curve", "in"], {"curve": THETA, "in": {"noninvertible": []}},
     "sheaf data missing key 'multidegree'"),
    (["check-stability", "curve", "sheaf", "--polarization", "in"],
     {"curve": THETA, "sheaf": SHEAF, "in": {"rank": 2}},
     "polarization data missing key 'e'"),
    (["enumerate", "in", "--degree", "0"], {"in": GENUS_ONE},
     "enumeration requires genus at least 2"),
    (["certify", "in", "--degree", "0"], {"in": GENUS_ONE},
     "enumeration requires genus at least 2"),
    (["modify", "in"], {"in": {**MOD_WITH_CHAINS, "chains": {"e1": ["c"]}, "source": {
        "vertices": [{"id": "v"}, {"id": "w"}, {"id": "c"}],
        "edges": [{"id": "f1", "ends": ["v", "c"]}, {"id": "f2", "ends": ["c", "w"]},
                  {"id": "f3", "ends": ["c", "v"]}, *SOURCE["edges"][2:]]}}},
     "chain vertex 'c' does not have valence 2"),
], ids=["empty_chain", "shared_chain_vertex", "extra_source_vertex", "chain_not_a_path",
        "modification_list", "multidegree_list", "sheaf_list", "polarization_int",
        "sheaf_missing_key", "polarization_missing_key", "enumerate_genus_one",
        "certify_genus_one", "chain_vertex_valence"])
def test_refusal_names_its_cause(tmp_path, capsys, argv, files, message):
    paths = {name: write(tmp_path, f"{name}.json", data) for name, data in files.items()}
    code, out, err = run(capsys, [paths.get(arg, arg) for arg in argv])
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_classify_prints_the_registered_chains(tmp_path, capsys):
    # two modification sources of seeded random stable graphs, a loop and a parallel
    # pair among their modified edges
    rng = random.Random(7)
    seen = set()
    while len(seen) < 2:
        target = verify_module.random_stable_graph(rng, 4, 4)
        mod = modify(target, {e: rng.randint(1, 3) for e in target.edge_ends})
        ends = list(target.edge_ends.values())
        if any(a == b for a, b in ends) and len(set(ends)) < len(ends):
            curve = write(tmp_path, "source.json", mod.source.to_json_dict())
            code, data = run_json(capsys, ["classify", curve])
            assert code == 0
            assert data["chains"] == [list(chain) for _, chain, _ in registry_chains(mod)]
            seen.add(mod.source)


@pytest.mark.parametrize("curve, chains, klass", [
    ({"vertices": [{"id": v, "genus": 0} for v in "abc"],
      "edges": [{"id": a + b, "ends": [a, b]} for a, b in ("ab", "bc", "ac")]},
     "cycle", "semistable"),
    ({"vertices": [{"id": "v", "genus": 2}, {"id": "w", "genus": 0}],
      "edges": [{"id": "e", "ends": ["v", "w"]}]},
     None, "none"),
], ids=["exceptional_cycle", "genus_0_leaf"])
def test_classify_reports_chains_it_cannot_list(tmp_path, capsys, curve, chains, klass):
    code, data = run_json(capsys, ["classify", write(tmp_path, "curve.json", curve)])
    assert code == 0
    assert (data["chains"], data["class"]) == (chains, klass)


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["frobnicate"])

    def test_phi_rejects_long_chain(self, tmp_path, capsys):
        mod = write(tmp_path, "mod.json", {
            "target": THETA,
            "modified_edges": [{"edge": "e1", "length": 2}],
        })
        deg = write(tmp_path, "deg.json", {"v": 0, "w": 0, "e1#1": 1, "e1#2": 0})
        # two chain vertices meet, so the source is not quasistable
        assert run(capsys, ["phi", mod, deg]) == (
            2, "", "error: source of the modification is not quasistable\n")

    def test_too_many_subcurves(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(graphs, "_MAX_SUBCURVES", 10)
        k5 = {
            "vertices": [{"id": v, "genus": 0} for v in "abcde"],
            "edges": [{"id": a + b, "ends": [a, b]} for a, b in combinations("abcde", 2)],
        }
        curve = write(tmp_path, "k5.json", k5)
        sheaf = write(tmp_path, "sheaf.json",
                      {"noninvertible": [], "multidegree": dict.fromkeys("abcde", 1)})
        code, out, err = run(capsys, ["check-stability", curve, sheaf])
        assert code == 2
        assert out == ""
        assert "more than 10 connected subcurves" in err


    @pytest.mark.parametrize("command", ["enumerate", "certify"])
    def test_too_many_edge_subsets(self, tmp_path, capsys, command):
        dense = {
            "vertices": [{"id": "v", "genus": 0}, {"id": "w", "genus": 0}],
            "edges": [{"id": f"e{i:02d}", "ends": ["v", "w"]} for i in range(21)],
        }
        curve = write(tmp_path, "dense.json", dense)
        code, out, err = run(capsys, [command, curve, "--degree", "20"])
        assert code == 2
        assert out == ""
        assert "edge subsets; too many to enumerate" in err

def test_parser_reused_without_leaking_state(tmp_path, capsys, monkeypatch):
    built = []
    real_init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        built.append(self.prog)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli._build_parser.cache_clear()
    curve = write(tmp_path, "theta.json", THETA)
    sheaf = write(tmp_path, "sheaf.json", {"noninvertible": [], "multidegree": {"v": 1, "w": 1}})
    stable = ["check-stability", curve, sheaf, "--mode", "stable"]
    verify = ["verify", "--instances", "1", "--max-vertices", "3", "--chain-length-max", "1",
              "--dump-dir", str(tmp_path)]
    first = run(capsys, stable)
    assert json.loads(first[1])["mode"] == "stable"
    code, data = run_json(capsys, ["check-stability", curve, sheaf])
    assert (code, data["mode"]) == (0, "semistable")

    code, data = run_json(capsys, verify + ["--suite", "chain-cohomology"])
    assert (code, set(data["suites"])) == (0, {"chain-cohomology"})
    # a usage error after one --suite has been appended
    with pytest.raises(SystemExit) as exc:
        cli.main(verify + ["--suite", "roundtrip", "--suite", "nosuch"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
    code, data = run_json(capsys, verify + ["--suite", "roundtrip"])
    assert (code, set(data["suites"])) == (0, {"roundtrip"})
    assert data["config"]["suites"] == ["roundtrip"]

    assert run(capsys, stable) == first
    assert built.count("nodalcalc") == 1


# -- a command's request parsed by its subparser alone, against the top-level parser --

def top_level_parse(argv):
    return cli._build_parser()[0].parse_args(argv)


def parse_exit(parse, argv, capsys):
    """Exit code, stdout and stderr of a parse that ends the program."""
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


@pytest.mark.parametrize("argv", [
    ["classify"],
    ["classify", "--"],
    ["classify", "--output"],
    ["stable-model"],
    ["modify"],
    ["pushforward", "mod.json"],
    ["chain-h"],
    ["chain-h", "--degrees", "-1,2"],
    ["check-stability", "curve.json", "sheaf.json", "--mode", "bogus"],
    ["check-stability", "curve.json"],
    ["check-balanced", "curve.json", "deg.json", "--mode", "stable"],
    ["phi", "mod.json"],
    ["phi-inv", "curve.json"],
    ["enumerate", "curve.json", "--degree", "two"],
    ["enumerate", "curve.json", "--degree", "2", "--mode", "quasistable"],
    ["certify", "curve.json"],
    ["certify", "curve.json", "--degree", "2.5"],
    ["verify", "--suite", "nosuch"],
    ["verify", "--seed", "x"],
])
def test_usage_errors_match_the_top_level_parser(argv, capsys):
    through_main = parse_exit(cli.main, argv, capsys)
    assert through_main[0] == 2
    assert through_main == parse_exit(top_level_parse, argv, capsys)


@pytest.mark.parametrize("argv, code", [
    ([], 2), (["-h"], 0), (["--help"], 0), (["frobnicate"], 2), (["--", "classify"], 2),
    (["--output", "x", "classify", "curve.json"], 2),
])
def test_requests_without_a_command_go_to_the_top_level_parser(argv, code, capsys):
    through_main = parse_exit(cli.main, argv, capsys)
    assert through_main[0] == code
    assert through_main == parse_exit(top_level_parse, argv, capsys)


@pytest.mark.parametrize("name", list(cli._build_parser()[1]))
def test_command_help_matches_the_top_level_parser(name, capsys):
    through_main = parse_exit(cli.main, [name, "--help"], capsys)
    assert through_main[0] == 0 and through_main[1].startswith(f"usage: nodalcalc {name} ")
    assert through_main == parse_exit(top_level_parse, [name, "--help"], capsys)


def test_unrecognized_arguments_name_the_command(capsys):
    # the one usage error that reads differently: the top-level parser reports it
    # with its own usage line, the command's parser with the command's
    assert parse_exit(cli.main, ["classify", "curve.json", "extra"], capsys) == (
        2, "", "usage: nodalcalc classify [-h] [--output OUTPUT] curve\n"
        "nodalcalc classify: error: unrecognized arguments: extra\n")
    assert parse_exit(cli.main, ["verify", "--nosuch", "x"], capsys) == (
        2, "", cli._build_parser()[1]["verify"].format_usage()
        + "nodalcalc verify: error: unrecognized arguments: --nosuch x\n")
    assert parse_exit(top_level_parse, ["verify", "--nosuch"], capsys)[2] == (
        cli._build_parser()[0].format_usage() + "nodalcalc: error: unrecognized arguments: --nosuch\n")


def test_main_reads_sys_argv(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["nodalcalc", "chain-h", "--degrees=2,0"])
    code, data = run_json(capsys, None)
    assert (code, data["h0"], data["h1"]) == (0, 3, 0)


# -- input files read as bytes, against text-mode reading --

def text_mode_error(path):
    """The ``path:line:col`` message of a JSON file read in text mode, or None."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        json.loads(text)
    except json.JSONDecodeError as err:
        return f"error: {path}:{err.lineno}:{err.colno}: {err.msg}\n"
    return None


THETA_LINES = json.dumps(THETA, indent=2)


@pytest.mark.parametrize("newline", ["\r\n", "\r", "\r\r\n", "\n\r"],
                         ids=["crlf", "cr", "cr_crlf", "lf_cr"])
@pytest.mark.parametrize("cut", [None, 17, 230, -3], ids=["whole", "cut17", "cut230", "cut_end"])
def test_line_endings_read_as_in_text_mode(tmp_path, capsys, newline, cut):
    text = THETA_LINES.replace("\n", newline)
    path = tmp_path / "theta.json"
    path.write_bytes(text[:cut].encode("utf-8"))
    expected = text_mode_error(path)
    code, out, err = run(capsys, ["classify", str(path)])
    if expected is None:
        assert (code, err) == (0, "")
        assert out == run(capsys, ["classify", write(tmp_path, "lf.json", THETA)])[1]
    else:
        assert (code, out, err) == (2, "", expected)


def test_carriage_return_inside_a_string_is_refused_as_in_text_mode(tmp_path, capsys):
    path = tmp_path / "theta.json"
    path.write_bytes(b'{"vertices": [{"id": "v\r\nw", "genus": 0}],\r\n "edges": []}')
    expected = text_mode_error(path)
    assert expected.startswith(f"error: {path}:1:")
    assert run(capsys, ["classify", str(path)]) == (2, "", expected)


def test_undecodable_file_is_named(tmp_path, capsys):
    curve = write(tmp_path, "curve.json", THETA)
    sheaf = tmp_path / "sheaf.json"
    data = b'{"noninvertible": [], "multidegree": {"v": 1, "\xff": 1}}'
    sheaf.write_bytes(data)
    with pytest.raises(UnicodeDecodeError) as exc:
        data.decode("utf-8")
    assert run(capsys, ["check-stability", curve, str(sheaf)]) == (
        2, "", f"error: {sheaf}: {exc.value}\n")
    assert str(exc.value) == "'utf-8' codec can't decode byte 0xff in position 47: invalid start byte"


def reference_unique_keys(pairs):
    """The key check as a plain loop: the first key already seen is named."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise cli._InputError(f"repeated key {key!r} in one object")
        obj[key] = value
    return obj


@pytest.mark.parametrize("pairs", [
    [], [("a", 1)], [("a", 1), ("b", [1])], [("a", 1), ("a", 2)],
    [("a", 1), ("b", 2), ("b", 3), ("a", 4)], [("a", 1), ("b", 2), ("a", 3), ("b", 4)],
    [(str(i % 7), i) for i in range(20)],
])
def test_unique_keys_matches_the_loop(pairs):
    try:
        expected = reference_unique_keys(pairs)
    except cli._InputError as err:
        with pytest.raises(cli._InputError) as exc:
            cli._unique_keys(pairs)
        assert str(exc.value) == str(err)
    else:
        assert cli._unique_keys(pairs) == expected


@pytest.mark.parametrize("text, key", [
    ('{"noninvertible": [], "noninvertible": [], "multidegree": {"v": 1, "w": 1}}',
     "noninvertible"),
    ('{"noninvertible": [], "multidegree": {"v": 1, "w": 1, "w": 1, "v": 1}}', "w"),
], ids=["top_level", "nested"])
def test_repeated_key_message_kept(tmp_path, capsys, text, key):
    curve = write(tmp_path, "curve.json", THETA)
    path = tmp_path / "sheaf.json"
    path.write_text(text, encoding="utf-8")
    assert run(capsys, ["check-stability", curve, str(path)]) == (
        2, "", f"error: {path}: repeated key {key!r} in one object\n")


# -- modifications too large to build are refused before any id is built --

@pytest.mark.parametrize("length", [10 ** 6, 2 ** 70])
@pytest.mark.parametrize("command", ["modify", "pushforward"])
def test_oversized_modification_refused_at_once(tmp_path, capsys, command, length):
    mod = write(tmp_path, "mod.json", {"target": THETA,
                                       "modified_edges": [{"edge": "e1", "length": length}]})
    deg = write(tmp_path, "deg.json", {"v": 1, "w": 1})
    start = time.perf_counter()
    code, out, err = run(capsys, [command, mod] + [deg] * (command == "pushforward"))
    assert time.perf_counter() - start < 1
    assert (code, out, err) == (2, "", f"error: modification inserts {length} chain vertices, "
                                       "more than 65536; too many to build\n")
