"""Tests of the benchmark itself.

    python3 -m pytest perfbench        # or: cd perfbench && python3 -m unittest

They import nodalcalc from the checkout's ``src/``.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import oracles  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, CertifySmall, CliRequests, TwisterOrbits  # noqa: E402


def bindings(package, modules, api):
    names = {"nodalcalc": vars(package), "bench": vars(api)}
    names.update({layer: vars(mod) for layer, mod in modules.items()})
    snapshot = {(site, key): obj for site, ns in names.items() for key, obj in ns.items()}
    for mod in modules.values():
        for obj in vars(mod).values():
            if isinstance(obj, type) and "__init__" in vars(obj):
                snapshot[(obj, "__init__")] = vars(obj)["__init__"]
    return snapshot


class TracingTest(unittest.TestCase):
    def setUp(self):
        self.package, self.modules, self.api = run.load_program()

    def install(self, rec):
        return spans.install(rec, self.modules,
                             {"nodalcalc": vars(self.package), "bench": vars(self.api)})

    def test_untraced_pass_calls_unwrapped_functions(self):
        before = bindings(self.package, self.modules, self.api)
        workload = TwisterOrbits()
        specs = workload.generate(random.Random(1))[:20]
        workload.prepare(specs, None)
        rec = spans.Recorder()
        remove = self.install(rec)
        stability = self.modules["stability"]
        self.assertIsNot(stability.connected_subcurves,
                         self.modules["graphs"].connected_subcurves)
        run.one_pass(workload, self.api, specs, self.modules)
        traced = len(rec.spans)
        self.assertGreater(traced, 0)
        remove()
        self.assertEqual(bindings(self.package, self.modules, self.api).keys(), before.keys())
        for key, obj in bindings(self.package, self.modules, self.api).items():
            self.assertIs(obj, before[key], key)
        _, _, outcomes = run.one_pass(workload, self.api, specs, self.modules)
        self.assertEqual(len(rec.spans), traced)
        self.assertEqual(run.check_pass(workload, self.api, specs, outcomes), [])

    def test_generator_span_covers_iteration_but_not_consumer(self):
        graph = self.api.DualGraph((("v", 0), ("w", 0)), (("a", ("v", "w")), ("b", ("v", "w"))))
        rec = spans.Recorder()
        remove = self.install(rec)
        try:
            start = spans.time.perf_counter()
            found = [self.api.boundary_count(graph, z) for z in self.api.connected_subcurves(graph)]
            wall = spans.time.perf_counter() - start
        finally:
            remove()
        gen = [s for s in rec.spans if s.name == "graphs.connected_subcurves"]
        counted = [s for s in rec.spans if s.name == "graphs.boundary_count"]
        self.assertEqual(len(gen), 1)
        self.assertEqual(len(found), 3)
        self.assertEqual(gen[0].items, 3)
        self.assertEqual(len(counted), 3)
        for s in counted:
            self.assertIsNone(s.parent)  # the generator is suspended meanwhile
            self.assertLess(s.start, gen[0].end)
        self.assertLessEqual(gen[0].self_time, gen[0].end - gen[0].start)
        self.assertLessEqual(sum(s.self_time for s in rec.spans), wall)

    def test_layer_metrics_of_a_certify_op(self):
        workload = CertifySmall()
        specs = workload.generate(random.Random(2))
        workload.prepare(specs, None)
        spec = next(s for s in specs
                    if s["mode"] == "balanced" and s["degree"] == 3 and len(s["vertices"]) == 4
                    and s["count"] == 128)
        rec = spans.Recorder()
        remove = self.install(rec)
        try:
            start = spans.time.perf_counter()
            _, _, outcomes = run.one_pass(workload, self.api, [spec], self.modules)
            wall = spans.time.perf_counter() - start
        finally:
            remove()
        self.assertEqual(run.check_pass(workload, self.api, [spec], outcomes), [])
        m = spans.layer_metrics(rec)
        # certify_bijection and its report; phi and phi_inverse are internal calls
        self.assertEqual(m["correspondence.calls"], 2)
        self.assertGreater(m["stability.candidates"], 0)
        self.assertGreaterEqual(m["stability.rows_scanned"], 14 * m["stability.candidates"])
        self.assertGreater(m["stability.table_builds"], 0)
        self.assertLessEqual(sum(v for k, v in m.items() if k.endswith(".self_s")), wall)


class OracleTest(unittest.TestCase):
    THETA = ((("v", 0), ("w", 0)),
             (("a", ("v", "w")), ("b", ("v", "w")), ("c", ("v", "w"))))

    def test_spanning_tree_counts(self):
        self.assertEqual(oracles.spanning_trees(*CertifySmall.k4()), 16)
        self.assertEqual(oracles.spanning_trees(*self.THETA), 3)
        self.assertEqual(oracles.certify_count(*self.THETA, 2), 12)
        self.assertEqual(oracles.certify_count(*CertifySmall.k4(), 3), 128)
        self.assertIsNone(oracles.certify_count(*CertifySmall.k4(), 2))

    def test_inputs_depend_only_on_the_seed(self):
        for name, cls in WORKLOADS.items():
            first = cls().generate(random.Random(f"{name}:7"))
            again = cls().generate(random.Random(f"{name}:7"))
            other = cls().generate(random.Random(f"{name}:8"))
            self.assertEqual(first, again, name)
            self.assertNotEqual(first, other, name)


class CommandTest(unittest.TestCase):
    def result(self, cwd, *args):
        proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                              capture_output=True, text=True, timeout=180)
        return proc.returncode, proc.stdout

    def test_cli_known_defects_are_counted_not_hidden(self):
        code, out = self.result(ROOT, "--workload", "cli_requests", "--seed", "3",
                                "--seconds", "1", "--trace", "0")
        self.assertEqual(code, 0)
        context, result = (json.loads(line) for line in out.splitlines()[-2:])
        self.assertTrue(result["correct"])
        # at most the four known-defect kinds of every 32 requests fail, and
        # only they; a fix of the input boundary lowers the count
        self.assertLessEqual(result["failed"] * 32, result["attempted"] * 4)
        known = {f"malformed {kind} request" for kind in CliRequests.KNOWN_DEFECTS}
        for reason, _ in context["context"]["failures"]:
            self.assertIn(reason.split(":")[0], known)

    def test_fails_without_the_program(self):
        run.OUT.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.OUT) as bare:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(HERE, Path(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            code, out = self.result(bare, "--workload", "certify_small", "--seed", "1",
                                    "--seconds", "1", "--trace", "0")
        self.assertNotEqual(code, 0)
        self.assertEqual(out, "")


if __name__ == "__main__":
    unittest.main()
