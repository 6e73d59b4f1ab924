"""The four benchmark workloads: seeded inputs, the timed op, the check.

Each workload provides

* ``generate(rng)``: the op inputs as plain data, drawn with the
  benchmark's own generator (never ``nodalcalc.verify``'s), so a change
  to the program cannot change its inputs.  The mix of input shapes is
  fixed and only the draws within each shape depend on the seed, so the
  figures of two seeds are comparable.  It is timed as part of set-up,
  so it does only the drawing;
* ``prepare(specs, workdir)``: the untimed rest of set-up, such as the
  oracle's expected answers and the input files the CLI reads;
* ``run(api, spec)``: one op through the public API, constructing every
  object from plain data, as a caller of the library or the CLI does;
* ``check(api, spec, outcome)``: ``None`` when the outcome is right,
  otherwise ``(reason, known_defect)``.  Checks run after the timed body
  and compare against ``oracles``, which does not use nodalcalc.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from itertools import product
from math import prod
from pathlib import Path

from oracles import (
    admissible,
    certify_count,
    connected_subsets,
    genus,
    is_exceptional,
    model_degree,
    pushforward_degree,
)

EDGE_IDS = "abcdefghijklmnopqrstuvwxyz"


def stable_graph(rng, n: int, m: int):
    """Random stable graph: spanning tree plus extra edges, loops allowed.

    Exceptional vertices get genus 1, and a random vertex is topped up
    until the genus is at least 2.  Edge ids are single letters.
    """
    vs = [f"v{i}" for i in range(n)]
    ends = [(vs[rng.randrange(i)], vs[i]) for i in range(1, n)]
    while len(ends) < m:
        ends.append((vs[rng.randrange(n)], vs[rng.randrange(n)]))
    edges = tuple((EDGE_IDS[k], tuple(sorted(e))) for k, e in enumerate(ends))
    plain = tuple((v, 0) for v in vs)
    genera = {v: int(is_exceptional(plain, edges, v)) for v in vs}
    while genus(tuple(genera.items()), edges) < 2:
        genera[rng.choice(vs)] += 1
    return tuple(genera.items()), edges


def chain_ids(edge: str, length: int) -> list[str]:
    """Ids ``modify`` gives the chain over ``edge``, side 0 first."""
    return [f"{edge}#{i}" for i in range(1, length + 1)]


def split_chains(rng, edges, budget: int, longest: int):
    """Random chain lengths (1..longest) on distinct edges summing to budget."""
    if budget > longest * len(edges):
        return None
    for _ in range(100):
        order = [e for e, _ in edges]
        rng.shuffle(order)
        lengths, left = {}, budget
        for e in order:
            if not left:
                break
            lengths[e] = rng.randint(1, min(longest, left))
            left -= lengths[e]
        if not left:
            return lengths
    return None


def curve_json(vertices, edges) -> dict:
    return {
        "vertices": [{"id": v, "genus": g} for v, g in vertices],
        "edges": [{"id": e, "ends": list(ends)} for e, ends in edges],
    }


def subdivide(vertices, edges, lengths: dict):
    """The source of a modification, built the way ``modify`` documents it."""
    new_vertices = list(vertices)
    new_edges = [(e, ends) for e, ends in edges if e not in lengths]
    ends = dict(edges)
    for e in sorted(lengths):
        chain = chain_ids(e, lengths[e])
        new_vertices += [(c, 0) for c in chain]
        path = [ends[e][0]] + chain + [ends[e][1]]
        new_edges += [(f"{e}#{i}-{i + 1}", (path[i], path[i + 1]))
                      for i in range(len(path) - 1)]
    return tuple(new_vertices), tuple(new_edges)


def build(api, spec):
    """Modification and source Multidegree of a bundle spec."""
    mod = api.modify(api.DualGraph(spec["vertices"], spec["edges"]), spec["lengths"])
    return mod, api.Multidegree(mod.source, spec["values"])


class Workload:
    def prepare(self, specs, workdir):
        pass


# -- certify_small ------------------------------------------------------------


class CertifySmall(Workload):
    """One op is one ``certify_bijection(graph, d, mode)`` call.

    K4 at d = 2..5 in both modes, plus random stable graphs at d = g,
    where the count oracle applies, in alternating modes.  The random
    graphs come in fixed numbers per (vertices, edges) stratum, cheapest
    strata first in the table.  With these counts the median op is the
    middle (4, 4) op, the stratum whose costs spread least, and the p90 op
    is the cheapest K4 op, so neither percentile sits on a boundary that
    moves with the seed.
    """

    MODES = ("balanced", "stably_balanced")
    STRATA = (((3, 3), 20), ((4, 4), 32), ((3, 4), 3), ((5, 5), 3), ((4, 5), 3), ((3, 5), 3))

    @staticmethod
    def k4():
        vs = [f"v{i}" for i in range(4)]
        pairs = [(a, b) for i, a in enumerate(vs) for b in vs[i + 1:]]
        return tuple((v, 0) for v in vs), tuple(zip(EDGE_IDS, pairs))

    def generate(self, rng):
        graphs = []
        for (n, m), count in self.STRATA:
            for i in range(count):
                vertices, edges = stable_graph(rng, n, m)
                graphs.append(((vertices, edges), genus(vertices, edges), self.MODES[i % 2]))
        rng.shuffle(graphs)
        # K4 first and in a fixed order, so that which K4 op finds the K4
        # tables cached is the same for every seed
        graphs[:0] = [(self.k4(), d, mode) for mode in self.MODES for d in range(2, 6)]
        return [{"vertices": v, "edges": e, "degree": d, "mode": mode}
                for (v, e), d, mode in graphs]

    def prepare(self, specs, workdir):
        for spec in specs:
            spec["count"] = certify_count(spec["vertices"], spec["edges"], spec["degree"])

    def run(self, api, spec):
        graph = api.DualGraph(spec["vertices"], spec["edges"])
        return api.certify_bijection(graph, spec["degree"], spec["mode"])

    def check(self, api, spec, report):
        if not report.bijection or report.mismatches:
            return "bijection not certified", False
        want = spec["count"]
        if want is not None and not report.balanced_count == report.semistable_count == want:
            return (f"counts {report.balanced_count}/{report.semistable_count}, "
                    f"spanning-tree oracle {want}"), False
        return None


# -- famchain_random ----------------------------------------------------------


class FamchainRandom(Workload):
    """One op is one ``check_famchain2_instance(mod, deg)`` on a fresh graph.

    A fixed number of instances per source vertex count (5..12) keeps the
    2^n table cost of the mix the same for every seed and stops any one
    instance from dominating.  Chains have length 1..4 and the source
    degrees lie in [-2, 2], so many bundles are not admissible.
    """

    SOURCE_SIZES = range(5, 13)
    OPS_PER_SIZE = 48

    def generate(self, rng):
        specs = []
        for size in self.SOURCE_SIZES:
            made = 0
            while made < self.OPS_PER_SIZE:
                n = rng.randint(1, 5)
                vertices, edges = stable_graph(rng, n, rng.randint(max(n - 1, 1), n + 2))
                lengths = split_chains(rng, edges, size - n, 4)
                if lengths is None:
                    continue
                source = [v for v, _ in vertices]
                for e in sorted(lengths):
                    source += chain_ids(e, lengths[e])
                values = tuple((v, rng.randint(-2, 2)) for v in source)
                specs.append({"vertices": vertices, "edges": edges,
                              "lengths": lengths, "values": values})
                made += 1
        rng.shuffle(specs)
        return specs

    def run(self, api, spec):
        mod, deg = build(api, spec)
        return api.check_famchain2_instance(mod, deg)

    def check(self, api, spec, failures):
        if failures:
            return f"famchain2 reported {len(failures)} failures", False
        return None


# -- twister_orbits -----------------------------------------------------------

THETA = ((("v", 0), ("w", 0)),
         (("e1", ("v", "w")), ("e2", ("v", "w")), ("e3", ("v", "w"))))
BRIDGE = ((("v", 1), ("w", 1)), (("e1", ("v", "w")),))


def _sequences(length: int):
    return [s for s in product((-1, 0, 1), repeat=length) if admissible(s)]


def chain_twists(seq):
    """Coefficient vectors in [-2, 2]^k whose twist keeps the chain admissible."""
    k = len(seq)
    out = []
    for c in product(range(-2, 3), repeat=k):
        twisted = [seq[i] + (c[i - 1] if i else 0) - 2 * c[i] + (c[i + 1] if i + 1 < k else 0)
                   for i in range(k)]
        if admissible(twisted):
            out.append(c)
    return out


CHAIN_CHOICES = [None] + _sequences(1) + _sequences(2)
TWISTS = {seq: chain_twists(seq) for seq in CHAIN_CHOICES if seq is not None}


def bundle_shapes():
    """Every (vertices, edges, chains) shape, grouped by its number of nonzero twists."""
    groups = {}
    for vertices, edges in (THETA, BRIDGE):
        for picks in product(CHAIN_CHOICES, repeat=len(edges)):
            chains = {e: seq for (e, _), seq in zip(edges, picks) if seq is not None}
            orbit = prod(len(TWISTS[seq]) for seq in chains.values()) - 1
            groups.setdefault(orbit, []).append((vertices, edges, chains))
    return groups


class TwisterOrbits(Workload):
    """One op is one admissible bundle and its whole chain-twister orbit.

    Bundles on theta and the elliptic bridge with chains of length 1..2,
    as in acceptance criterion 3.  Every orbit size that occurs (1..26
    nonzero twists) gets the same number of bundles, each of a shape
    drawn from all the shapes with that orbit size.
    """

    ORBIT_SIZES = (1, 2, 3, 5, 7, 8, 11, 17, 26)
    BUNDLES_PER_SIZE = 40
    SHAPES = bundle_shapes()

    def generate(self, rng):
        specs = []
        for size in self.ORBIT_SIZES:
            for _ in range(self.BUNDLES_PER_SIZE):
                vertices, edges, chains = rng.choice(self.SHAPES[size])
                plain = {v: rng.randint(-2, 2) for v, _ in vertices}
                specs.append({"vertices": vertices, "edges": edges,
                              "plain": plain, "chains": chains})
        rng.shuffle(specs)
        return specs

    def prepare(self, specs, workdir):
        """Spell out each bundle's source degrees and its twisters."""
        for spec in specs:
            chains = spec["chains"]
            values = tuple(spec["plain"].items())
            for e, seq in chains.items():
                values += tuple(zip(chain_ids(e, len(seq)), seq))
            twisters = []
            for pick in product(*(TWISTS[seq] for seq in chains.values())):
                coeffs = []
                for (e, seq), c in zip(chains.items(), pick):
                    coeffs += zip(chain_ids(e, len(seq)), c)
                if any(x for _, x in coeffs):
                    twisters.append(tuple(coeffs))
            spec.update(lengths={e: len(s) for e, s in chains.items()},
                        values=values, twisters=twisters)

    def run(self, api, spec):
        mod, deg = build(api, spec)
        base = api.pushforward_model(mod, deg)
        changed = 0
        for coeffs in spec["twisters"]:
            tw = api.Twister(mod.source, coeffs)
            changed += api.pushforward_model(mod, api.twist(deg, tw)) != base
        return mod, deg, base, changed

    def check(self, api, spec, outcome):
        mod, deg, base, changed = outcome
        if changed:
            return f"{changed} twists changed the model", False
        model = base.to_json_dict()
        for members in connected_subsets(spec["vertices"], spec["edges"]):
            want = pushforward_degree(spec["edges"], spec["plain"], spec["chains"], members)
            got = model_degree(spec["edges"], model, members)
            if got != want or api.pushforward_degree_oracle(mod, deg, members) != want:
                return f"model degree {got} on {sorted(members)}, min formula {want}", False
        return None


# -- cli_requests -------------------------------------------------------------


class CliRequests(Workload):
    """A seeded stream of small CLI requests, run in-process through ``main``.

    Every block of 32 requests holds 3 valid requests per command and one
    malformed request of each kind, shuffled.  The input files are written
    by ``prepare``, outside the timed set-up.  The first four malformed
    kinds are defects known at the time the benchmark was written; they
    count as failures but do not make the run incorrect.
    """

    COMMANDS = ("classify", "modify", "pushforward", "chain-h",
                "check-stability", "check-balanced", "phi", "phi-inv")
    KNOWN_DEFECTS = ("float_degrees", "null_degrees", "chains_list", "string_noninvertible")
    MALFORMED = KNOWN_DEFECTS + ("bad_json", "unknown_vertex", "missing_key", "bad_chain_h")
    VALID_PER_COMMAND = 3
    BLOCKS = 8

    def generate(self, rng):
        self.rng, self.files, self.pending = rng, 0, {}
        specs = []
        for _ in range(self.BLOCKS):
            block = [getattr(self, "valid_" + c.replace("-", "_"))()
                     for c in self.COMMANDS for _ in range(self.VALID_PER_COMMAND)]
            block += [getattr(self, "bad_" + kind)() for kind in self.MALFORMED]
            rng.shuffle(block)
            specs += block
        return specs

    def prepare(self, specs, workdir):
        """Write each request's input files and point its argv at them."""
        for spec in specs:
            paths = {}
            for name, text in spec.pop("files").items():
                paths[name] = str(Path(workdir, name))
                Path(paths[name]).write_text(text, encoding="utf-8")
            spec["argv"] = [paths.get(arg, arg) for arg in spec["argv"]]

    # helpers

    def _file(self, payload) -> str:
        """Name of an input file holding ``payload``; ``prepare`` writes it."""
        self.files += 1
        name = f"in{self.files}.json"
        self.pending[name] = payload if isinstance(payload, str) else json.dumps(payload)
        return name

    def _graph(self):
        n = self.rng.randint(2, 4)
        return stable_graph(self.rng, n, self.rng.randint(n, n + 1))

    def _subset(self, edges, nonempty=False):
        while True:
            pick = [e for e, _ in edges if self.rng.random() < 0.5]
            if pick or not nonempty:
                return pick

    def _mod(self, longest):
        vertices, edges = self._graph()
        lengths = {e: self.rng.randint(1, longest) for e in self._subset(edges, True)}
        data = {"target": curve_json(vertices, edges),
                "modified_edges": [{"edge": e, "length": k} for e, k in sorted(lengths.items())]}
        return vertices, edges, lengths, data

    def _sheaf(self, vertices, edges):
        return {"noninvertible": self._subset(edges),
                "multidegree": {v: self.rng.randint(-1, 2) for v, _ in vertices}}

    def _spec(self, argv, kind="valid", **expect):
        files, self.pending = self.pending, {}
        return {"argv": argv, "files": files, "kind": kind, "expect": expect}

    # valid requests, each with a fact the output must show

    def valid_classify(self):
        vertices, edges = self._graph()
        if self.rng.random() < 0.5:
            lengths = {e: self.rng.randint(1, 2) for e in self._subset(edges)}
            vertices, edges = subdivide(vertices, edges, lengths)
        return self._spec(["classify", self._file(curve_json(vertices, edges))],
                          genus=genus(vertices, edges))

    def valid_modify(self):
        vertices, _, lengths, data = self._mod(3)
        return self._spec(["modify", self._file(data)],
                          source_vertices=len(vertices) + sum(lengths.values()))

    def valid_pushforward(self):
        vertices, _, lengths, data = self._mod(3)
        values = {v: self.rng.randint(-2, 2) for v, _ in vertices}
        chains = {}
        for e, k in lengths.items():
            chains[e] = [self.rng.randint(-1, 1) for _ in range(k)]
            values.update(zip(chain_ids(e, k), chains[e]))
        return self._spec(["pushforward", self._file(data), self._file(values)],
                          admissible=all(admissible(s) for s in chains.values()))

    def valid_chain_h(self):
        degs = [self.rng.randint(-3, 3) for _ in range(self.rng.randint(1, 4))]
        # the "=" form, because argparse reads a leading "-1,2" as an option
        argv = ["chain-h", "--degrees=" + ",".join(map(str, degs))]
        punctured = self.rng.random() < 0.5
        if punctured:
            argv.append("--punctured")
        return self._spec(argv, chi=sum(degs) + 1 - 2 * punctured)

    def valid_check_stability(self):
        vertices, edges = self._graph()
        sheaf = self._sheaf(vertices, edges)
        argv = ["check-stability", self._file(curve_json(vertices, edges)), self._file(sheaf)]
        mode = self.rng.choice(("semistable", "stable", "quasistable"))
        argv += ["--mode", mode] + (["--base-vertex", "v0"] if mode == "quasistable" else [])
        return self._spec(argv, degree=sum(sheaf["multidegree"].values())
                          + len(sheaf["noninvertible"]))

    def _quasistable(self, ones=0.8):
        vertices, edges = self._graph()
        lengths = dict.fromkeys(self._subset(edges), 1)
        source = subdivide(vertices, edges, lengths)
        values = {v: self.rng.randint(-1, 2) for v, _ in vertices}
        for e in lengths:
            values[f"{e}#1"] = 1 if self.rng.random() < ones else self.rng.randint(-1, 2)
        return source, values

    def valid_check_balanced(self):
        source, values = self._quasistable()
        argv = ["check-balanced", self._file(curve_json(*source)), self._file(values),
                "--mode", self.rng.choice(("balanced", "stably-balanced"))]
        return self._spec(argv)

    def valid_phi(self):
        vertices, edges = self._graph()
        subset = self._subset(edges)
        data = {"target": curve_json(vertices, edges),
                "modified_edges": [{"edge": e, "length": 1} for e in subset]}
        values = {v: self.rng.randint(-1, 2) for v, _ in vertices}
        values.update({f"{e}#1": 1 for e in subset})
        return self._spec(["phi", self._file(data), self._file(values)],
                          noninvertible=sorted(subset))

    def valid_phi_inv(self):
        vertices, edges = self._graph()
        sheaf = self._sheaf(vertices, edges)
        return self._spec(["phi-inv", self._file(curve_json(vertices, edges)), self._file(sheaf)],
                          degree=sum(sheaf["multidegree"].values()) + len(sheaf["noninvertible"]))

    # malformed requests: each must exit 2

    def bad_float_degrees(self):
        source, values = self._quasistable()
        floats = {v: d + 0.5 for v, d in values.items()}
        return self._spec(["check-balanced", self._file(curve_json(*source)), self._file(floats)],
                          "float_degrees")

    def bad_null_degrees(self):
        vertices, _, lengths, data = self._mod(2)
        values = {v: self.rng.randint(-1, 1) for v, _ in vertices}
        for e, k in lengths.items():
            values.update(dict.fromkeys(chain_ids(e, k), 0))
        values[self.rng.choice(sorted(values))] = None
        return self._spec(["pushforward", self._file(data), self._file(values)], "null_degrees")

    def bad_chains_list(self):
        vertices, edges, lengths, data = self._mod(2)
        data["source"] = curve_json(*subdivide(vertices, edges, lengths))
        data["chains"] = [[e] + chain_ids(e, k) for e, k in sorted(lengths.items())]
        return self._spec(["modify", self._file(data)], "chains_list")

    def bad_string_noninvertible(self):
        vertices, edges = self._graph()
        sheaf = self._sheaf(vertices, edges)
        sheaf["noninvertible"] = "".join(self._subset(edges, True))
        return self._spec(["phi-inv", self._file(curve_json(vertices, edges)), self._file(sheaf)],
                          "string_noninvertible")

    def bad_bad_json(self):
        vertices, edges = self._graph()
        text = json.dumps(curve_json(vertices, edges))
        return self._spec(["classify", self._file(text[: len(text) // 2])], "bad_json")

    def bad_unknown_vertex(self):
        source, values = self._quasistable(ones=1.0)
        values["zz"] = 0
        return self._spec(["check-balanced", self._file(curve_json(*source)), self._file(values)],
                          "unknown_vertex")

    def bad_missing_key(self):
        vertices, edges = self._graph()
        sheaf = {"noninvertible": self._subset(edges)}
        return self._spec(["check-stability", self._file(curve_json(vertices, edges)),
                           self._file(sheaf)], "missing_key")

    def bad_bad_chain_h(self):
        return self._spec(["chain-h", f"--degrees={self.rng.randint(-3, 3)},x"], "bad_chain_h")

    # the op and its check

    def run(self, api, spec):
        out, err = io.StringIO(), io.StringIO()
        raised = None
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = api.main(spec["argv"])
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # an escaping exception is a result to count
                code, raised = None, type(exc).__name__
        return code, out.getvalue(), raised

    def check(self, api, spec, outcome):
        code, text, raised = outcome
        kind = spec["kind"]
        if kind != "valid":
            if code == 2 and not text:
                return None
            what = f"raised {raised}" if raised else f"exit {code}"
            return f"malformed {kind} request: {what}", kind in self.KNOWN_DEFECTS
        if raised or code not in (0, 1):
            return f"{spec['argv'][0]}: raised {raised}" if raised else f"exit {code}", False
        try:
            payload = json.loads(text)
        except ValueError:
            return f"{spec['argv'][0]}: output is not JSON", False
        if text != json.dumps(payload, indent=2, sort_keys=True) + "\n":
            return f"{spec['argv'][0]}: output is not sorted-key JSON", False
        problem = self._fact(spec["argv"][0], spec["expect"], payload, code)
        return (f"{spec['argv'][0]}: {problem}", False) if problem else None

    @staticmethod
    def _fact(command, expect, payload, code):
        if command in ("check-stability", "check-balanced"):
            if (code == 0) != payload["verdict"]:
                return "exit code disagrees with the verdict"
            if command == "check-stability" and payload["degree"] != expect["degree"]:
                return "wrong model degree"
            return None
        if code != 0:
            return f"exit {code}"
        if command == "classify" and payload["genus"] != expect["genus"]:
            return "wrong genus"
        if command == "modify" and len(payload["source"]["vertices"]) != expect["source_vertices"]:
            return "wrong source size"
        if command == "pushforward" and (payload["admissibility"]["admissible"]
                                         != expect["admissible"]):
            return "wrong admissibility"
        if command == "chain-h" and payload["h0"] - payload["h1"] != expect["chi"]:
            return "h0 - h1 is not the Euler characteristic"
        if command == "phi" and payload["model"]["noninvertible"] != expect["noninvertible"]:
            return "wrong non-invertible set"
        if command == "phi-inv" and sum(payload["multidegree"].values()) != expect["degree"]:
            return "lift changed the degree"
        return None


WORKLOADS = {
    "certify_small": CertifySmall,
    "famchain_random": FamchainRandom,
    "twister_orbits": TwisterOrbits,
    "cli_requests": CliRequests,
}
