"""Verification suites behind the command line: instance families, checks and oracles.

Each suite checks one family of facts the library relies on, with an
exhaustive core that always runs and a randomized extension that is
reproducible from the seed.  A suite yields one list of failures per
case, and one loop, ``run_suite``, counts the cases and gathers the
failures.  Random graphs are built from a spanning tree plus extra edges
(loops and parallel edges allowed), with the leftover genus budget
sprinkled over the vertices; every draw comes from a Random instance
seeded by the configured seed and the suite name, so a report is a pure
function of its configuration.  The stability verdicts are read through
the one verdict reader of ``stability``.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass
from functools import lru_cache
from itertools import accumulate, combinations, product, starmap
from typing import Callable, Iterator

from .catalog import elliptic_bridge, theta_graph
from .graphs import DualGraph, _json_int, connected_subcurves, exceptional_vertices
from .modifications import (
    Modification,
    contracted_edge_id,
    modify,
    pullback_multidegree,
    stable_model,
)
from .pushforward import (
    _chain_scans,
    _flags_of,
    _model_of,
    admissibility,
    chain_degrees,
    pushforward_degree_oracle,
    pushforward_model,
    same_pushforward,
)
from .sheaves import (
    Multidegree,
    Twister,
    chain_h,
    interval_sum_range,
    omega_multidegree,
    sheaf_degree,
    twist,
)
from .stability import (
    _canonical,
    _series_cuts,
    _verdicts,
    balanced_report,
    canonical_polarization,
    sheaf_stability_report,
)


@dataclass
class SuiteResult:
    cases: int
    failures: list[dict]


# -- instance families -------------------------------------------------------


@lru_cache(maxsize=None)
def admissible_sequences(length: int) -> tuple[tuple[int, ...], ...]:
    """All chain degree sequences with entries and interval sums in [-1, 1]."""
    out = []
    for seq in product((-1, 0, 1), repeat=length):
        lo, hi = interval_sum_range(seq)
        if -1 <= lo and hi <= 1:
            out.append(seq)
    return tuple(out)


def exhaustive_instances(
    graph: DualGraph, max_eta: int = 2, plain_window: int = 2
) -> Iterator[tuple[Modification, Multidegree]]:
    """Every admissible bundle in the standard exhaustive family.

    Each subset of edges is modified with chain lengths up to
    ``max_eta``, chain degrees range over the admissible sequences, and
    the remaining vertices take every value in [-plain_window,
    plain_window].  Deterministic order throughout.
    """
    edge_ids = [e for e, _ in graph.edges]
    options = [None, *(seq for k in range(1, max_eta + 1) for seq in admissible_sequences(k))]
    mods: dict[tuple, Modification] = {}
    plain_values = range(-plain_window, plain_window + 1)
    for combo in product(options, repeat=len(edge_ids)):
        lengths = {e: len(seq) for e, seq in zip(edge_ids, combo) if seq is not None}
        key = tuple(sorted(lengths.items()))
        if key not in mods:
            mods[key] = modify(graph, lengths)
        mod = mods[key]
        chain_values: list[tuple[str, int]] = []
        for e, seq in zip(edge_ids, combo):
            if seq is not None:
                chain_values.extend(zip(mod.chains[e], seq))
        plain = [v for v in mod.source.vertex_ids if v not in mod.chain_vertices]
        for vals in product(plain_values, repeat=len(plain)):
            deg = Multidegree(mod.source, tuple(chain_values) + tuple(zip(plain, vals)))
            yield mod, deg


# Chain twister coefficients are drawn from [-_TWISTER_BOUND, _TWISTER_BOUND].
_TWISTER_BOUND = 2


@lru_cache(maxsize=None)
def chain_twister_options(
    seq: tuple[int, ...]
) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """Per-chain twisters keeping the chain admissible.

    Returns (coefficients, twisted sequence) pairs for every coefficient
    vector with entries in [-_TWISTER_BOUND, _TWISTER_BOUND] whose twist
    of ``seq`` is again admissible.  The zero vector is always included.
    """
    k = len(seq)
    out = []
    for c in product(range(-_TWISTER_BOUND, _TWISTER_BOUND + 1), repeat=k):
        twisted = tuple(
            seq[i] + (c[i - 1] if i else 0) - 2 * c[i] + (c[i + 1] if i + 1 < k else 0)
            for i in range(k)
        )
        lo, hi = interval_sum_range(twisted) if k else (0, 0)
        if -1 <= lo and hi <= 1:
            out.append((c, twisted))
    return tuple(out)


# -- random generators -------------------------------------------------------


def random_graph(rng: random.Random, max_vertices: int, max_genus: int) -> DualGraph:
    """Random connected multigraph: spanning tree, extra edges, spread genus."""
    n = rng.randint(1, max_vertices)
    vertices = [f"v{i}" for i in range(1, n + 1)]
    edges = []
    for i in range(1, n):
        edges.append((f"e{len(edges) + 1}", (vertices[rng.randrange(i)], vertices[i])))
    budget = rng.randint(0, max_genus)
    extra = rng.randint(0, budget)
    for _ in range(extra):
        a = vertices[rng.randrange(n)]
        b = vertices[rng.randrange(n)]
        edges.append((f"e{len(edges) + 1}", (a, b)))
    genera = {v: 0 for v in vertices}
    for _ in range(budget - extra):
        genera[vertices[rng.randrange(n)]] += 1
    return DualGraph(tuple((v, genera[v]) for v in vertices), tuple(edges))


def random_stable_graph(rng: random.Random, max_vertices: int, max_genus: int) -> DualGraph:
    """Random stable graph of genus at least 2.

    Draws a random graph, then raises the genus of every exceptional
    vertex by one until none remain, and finally tops up a random vertex
    while the total genus is below 2.  May exceed max_genus slightly.
    """
    graph = random_graph(rng, max_vertices, max_genus)
    genera = dict(graph.vertices)
    while True:
        exc = exceptional_vertices(DualGraph(tuple(genera.items()), graph.edges))
        if not exc:
            break
        for v in exc:
            genera[v] += 1
    while DualGraph(tuple(genera.items()), graph.edges).genus < 2:
        genera[rng.choice(sorted(genera))] += 1
    return DualGraph(tuple(genera.items()), graph.edges)


def random_modification(
    rng: random.Random, graph: DualGraph, chain_length_max: int
) -> Modification:
    lengths = {}
    for e, _ in graph.edges:
        if rng.random() < 0.5:
            lengths[e] = rng.randint(1, chain_length_max)
    return modify(graph, lengths)


def random_multidegree(rng: random.Random, graph: DualGraph, window: int) -> Multidegree:
    values = tuple((v, rng.randint(-window, window)) for v in graph.vertex_ids)
    return Multidegree(graph, values)


def random_admissible_multidegree(
    rng: random.Random, mod: Modification, plain_window: int
) -> Multidegree:
    """Uniform plain degrees, chain degrees drawn from the admissible lists."""
    values = []
    for v in mod.source.vertex_ids:
        if v not in mod.chain_vertices:
            values.append((v, rng.randint(-plain_window, plain_window)))
    for _, chain in mod.chain_registry:
        seq = rng.choice(admissible_sequences(len(chain)))
        values.extend(zip(chain, seq))
    return Multidegree(mod.source, tuple(values))


# -- reproduction payloads ---------------------------------------------------


def _repro(detail: str, graph: DualGraph | None = None, mod: Modification | None = None,
           deg: Multidegree | None = None, **extra) -> dict:
    payload: dict = {"detail": detail}
    if graph is not None:
        payload["curve"] = graph.to_json_dict()
    if mod is not None:
        payload["modification"] = mod.to_json_dict(include_source=True)
    if deg is not None:
        payload["multidegree"] = deg.to_json_dict()
    payload.update(extra)
    return payload


# -- suites -------------------------------------------------------------------


# The degrees each chain vertex takes in the chain-cohomology suite, which walks
# every sequence of them of each length up to ``chain_length_max``, and the most
# sequences it may walk.  Each costs two ``chain_h`` calls and one
# ``interval_sum_range``: lengths up to 6 (137,256 sequences) take about 3 s with
# Python 3.11 on a shared 2-vCPU machine, and up to 7 (960,799) about 25 s.  The
# pushforward and compadm suites are held to the same bound: ``admissible_sequences``
# walks all 3^n sequences of a chain length n, and length 12 (531,441) took 9.5 s.
_CHAIN_DEGREES = range(-3, 4)
_MAX_CHAIN_SEQUENCES = 1 << 18


def _suite_chain_cohomology(cfg: VerifyConfig, rng: random.Random) -> Iterator[list[dict]]:
    for n in range(1, cfg.chain_length_max + 1):
        for degs in product(_CHAIN_DEGREES, repeat=n):
            lo, hi = interval_sum_range(degs)
            plain = chain_h(degs)
            punctured = chain_h(degs, puncture_ends=True)
            checks = (
                (min(plain.h0, plain.h1, punctured.h0, punctured.h1) < 0,
                 "negative cohomology for {}"),
                ((plain.h1 == 0) != (lo >= -1),
                 "h1 vanishing disagrees with interval sums for {}"),
                ((punctured.h0 == 0) != (hi <= 1),
                 "punctured h0 vanishing disagrees with interval sums for {}"),
            )
            yield [_repro(detail.format(list(degs)), chain_degrees=list(degs))
                   for failed, detail in checks if failed]


def check_pushforward_instance(mod: Modification, deg: Multidegree) -> list[dict]:
    """Degree identity, oracle agreement, and the non-invertibility locus.

    The locus must be the edges whose chain carries a nonzero degree, read
    off ``chain_degrees`` rather than the chain scans the model is built from.
    """
    failures = []
    model = pushforward_model(mod, deg)
    if model.degree != deg.total:
        failures.append(_repro("pushforward changed the total degree",
                               graph=mod.target, mod=mod, deg=deg))
    if model.noninvertible != {e for e, degs in chain_degrees(mod, deg) if any(degs)}:
        failures.append(_repro("non-invertible locus disagrees with the chain degrees",
                               graph=mod.target, mod=mod, deg=deg))
    for members in connected_subcurves(mod.target):
        want = pushforward_degree_oracle(mod, deg, members)
        got = sheaf_degree(model, members)
        if want != got:
            failures.append(_repro(
                f"model degree {got} differs from oracle {want} on {sorted(members)}",
                graph=mod.target, mod=mod, deg=deg))
    return failures


def _random_pushforward_instance(
    rng: random.Random, cfg: VerifyConfig
) -> tuple[Modification, Multidegree]:
    graph = random_graph(rng, cfg.max_vertices, cfg.max_genus)
    mod = random_modification(rng, graph, cfg.chain_length_max)
    deg = random_admissible_multidegree(rng, mod, cfg.degree_window)
    return mod, deg


def _suite_pushforward(cfg: VerifyConfig, rng: random.Random) -> Iterator[list[dict]]:
    for graph in (theta_graph(), elliptic_bridge()):
        yield from starmap(check_pushforward_instance,
                           exhaustive_instances(graph, max_eta=2, plain_window=2))
    for _ in range(cfg.instance_count):
        yield check_pushforward_instance(*_random_pushforward_instance(rng, cfg))


def _suite_compadm(cfg: VerifyConfig, rng: random.Random) -> Iterator[list[dict]]:
    # exhaustive core: all chain shapes on the standard graphs, twisters
    # with entries in [-2, 2]; plain degrees are held at 0 since the
    # comparison is insensitive to them (the acceptance tests sweep them)
    cases = 0  # every 97th case also runs same_pushforward
    for graph in (theta_graph(), elliptic_bridge()):
        for mod, deg in exhaustive_instances(graph, max_eta=2, plain_window=0):
            base = pushforward_model(mod, deg)
            chains = mod.chain_registry
            values = deg.as_dict
            option_lists = [
                chain_twister_options(tuple(values[c] for c in chain))
                for _, chain in chains
            ]
            for pick in product(*option_lists):
                coeffs: dict[str, int] = {}
                for (e, chain), (c, _) in zip(chains, pick):
                    coeffs.update(zip(chain, c))
                if not any(coeffs.values()):
                    continue
                cases += 1
                other = twist(deg, Twister(mod.source, coeffs))
                found = []
                if pushforward_model(mod, other) != base:
                    found.append(_repro(
                        f"twist by {coeffs} changed the model",
                        graph=mod.target, mod=mod, deg=deg, twister=coeffs))
                elif cases % 97 == 0 and not same_pushforward(mod, deg, other):
                    found.append(_repro(
                        "twister equivalence not recognized",
                        graph=mod.target, mod=mod, deg=deg, twister=coeffs))
                yield found
    # random extension; rejection sampling with a deterministic attempt cap
    tries = 0
    attempts = 0
    while tries < cfg.instance_count and attempts < 200 * cfg.instance_count:
        attempts += 1
        mod, deg = _random_pushforward_instance(rng, cfg)
        if not mod.chain_vertices:
            continue
        coeffs = {v: rng.randint(-_TWISTER_BOUND, _TWISTER_BOUND)
                  for v in sorted(mod.chain_vertices)}
        other = twist(deg, Twister(mod.source, coeffs))
        if not admissibility(mod, other).admissible:
            continue
        tries += 1
        yield [] if same_pushforward(mod, deg, other) else [_repro(
            "twister equivalence not recognized",
            graph=mod.target, mod=mod, deg=deg, twister=coeffs)]


def check_famchain2_instance(mod: Modification, deg: Multidegree) -> list[dict]:
    """The three stability equivalences across one modification.

    Bundle stability on the source against the pulled-back canonical
    polarization must match admissibility plus model stability on the
    target, in all three modes.  Non-admissible bundles must fail.  Both
    sides read their verdicts off the one verdict reader of ``stability``.
    The source is the subdivision of the target along the registered
    chains, so by the bond lemma of ``stability`` its cuts are the
    target's with chain rows (``_series_cuts``, which leaves the source its
    own table when the target's has chains).  Each side decides its
    windows once, as integers, and reads them in every mode: every base
    vertex is a target vertex, on no registered chain.
    """
    failures = []
    rank, e_values = _canonical(mod.target, deg.total)  # the target's canonical polarization
    # the pulled-back polarization: the same rank, and e is 0 on the chains
    source = _verdicts(mod.source, deg.as_dict, (), rank,
                       dict.fromkeys(mod.chain_vertices, 0) | e_values,
                       _series_cuts(mod.source, mod.target, mod.chain_registry))
    scans = _chain_scans(mod, deg)
    flags = _flags_of(scans)
    if flags.admissible:  # else every target verdict below is short-circuited
        model = _model_of(mod, deg, scans)
        target = _verdicts(mod.target, model.multidegree.as_dict, model.noninvertible, rank,
                           e_values)

    semi = flags.admissible and target("semistable")
    stab = flags.admissible and target("stable")
    if source("semistable") != semi:
        failures.append(_repro("semistable equivalence failed",
                               graph=mod.target, mod=mod, deg=deg))
    if source("stable") != (flags.invertible and stab):
        failures.append(_repro("stable equivalence failed",
                               graph=mod.target, mod=mod, deg=deg))
    for p in mod.target.vertex_ids:
        right = flags.admissible and flags.negatively and target("quasistable", p)
        if source("quasistable", p) != right:
            failures.append(_repro(f"quasistable equivalence failed at base {p!r}",
                                   graph=mod.target, mod=mod, deg=deg))
    return failures


def _suite_famchain2(cfg: VerifyConfig, rng: random.Random) -> Iterator[list[dict]]:
    for graph, window in ((theta_graph(), 1), (elliptic_bridge(), 2)):
        yield from starmap(check_famchain2_instance,
                           exhaustive_instances(graph, max_eta=2, plain_window=window))
    for _ in range(cfg.instance_count):
        graph = random_stable_graph(rng, cfg.max_vertices, cfg.max_genus)
        mod = random_modification(rng, graph, cfg.chain_length_max)
        # chain degrees beyond the admissible range are deliberately allowed
        yield check_famchain2_instance(mod, random_multidegree(rng, mod.source, cfg.degree_window))


def check_biss_instance(mod: Modification, deg: Multidegree) -> list[dict]:
    """Balanced matches semistable pushforward; the unit twist is negative.

    For a bundle with degree 1 on the chains of a small modification of
    a stable graph: balanced iff the direct image is semistable, stably
    balanced iff stable, and twisting by 1 on every chain vertex yields
    a negatively admissible bundle with the same direct image.
    """
    failures = []
    pol = canonical_polarization(mod.target, deg.total)
    model = pushforward_model(mod, deg)
    scan = sheaf_stability_report(model, pol)
    report = balanced_report(deg)
    if report.verdict("balanced") != scan.verdict("semistable"):
        failures.append(_repro("balanced vs semistable pushforward mismatch",
                               graph=mod.target, mod=mod, deg=deg))
    if report.verdict("stably_balanced") != scan.verdict("stable"):
        failures.append(_repro("stably balanced vs stable pushforward mismatch",
                               graph=mod.target, mod=mod, deg=deg))
    unit = Twister(mod.source, tuple((c, 1) for c in mod.chain_vertices))
    negative = twist(deg, unit)
    if not admissibility(mod, negative).negatively:
        failures.append(_repro("unit chain twist is not negatively admissible",
                               graph=mod.target, mod=mod, deg=deg))
    elif pushforward_model(mod, negative) != model:
        failures.append(_repro("unit chain twist changed the direct image",
                               graph=mod.target, mod=mod, deg=deg))
    return failures


def quasistable_models(
    graph: DualGraph, degree_bound: int, plain_window: int
) -> Iterator[tuple[Modification, Multidegree]]:
    """Small modifications with degree 1 on chains, total degree bounded."""
    edge_ids = [e for e, _ in graph.edges]
    for r in range(len(edge_ids) + 1):
        for subset in combinations(edge_ids, r):
            mod = modify(graph, {e: 1 for e in subset})
            chain = tuple((c, 1) for c in sorted(mod.chain_vertices))
            plain = [v for v in mod.source.vertex_ids if v not in mod.chain_vertices]
            for vals in product(range(-plain_window, plain_window + 1), repeat=len(plain)):
                if abs(sum(vals) + len(subset)) > degree_bound:
                    continue
                yield mod, Multidegree(mod.source, chain + tuple(zip(plain, vals)))


def _suite_biss(cfg: VerifyConfig, rng: random.Random) -> Iterator[list[dict]]:
    for graph in (theta_graph(), elliptic_bridge()):
        yield from starmap(check_biss_instance,
                           quasistable_models(graph, degree_bound=2, plain_window=3))
    for _ in range(cfg.instance_count):
        graph = random_stable_graph(rng, cfg.max_vertices, cfg.max_genus)
        lengths = {e: 1 for e, _ in graph.edges if rng.random() < 0.5}
        mod = modify(graph, lengths)
        values = [(c, 1) for c in mod.chain_vertices]
        for v in graph.vertex_ids:
            values.append((v, rng.randint(-cfg.degree_window, cfg.degree_window)))
        yield check_biss_instance(mod, Multidegree(mod.source, tuple(values)))


def expected_contraction(mod: Modification) -> Modification:
    """What contracting the chains of a modification must give back.

    Surviving edges keep their ids; each chain turns into an edge with
    the canonical contracted id.  This reconstruction is deliberately
    independent of ``stable_model`` so the two can be compared.
    """
    kept = [(e, ends) for e, ends in mod.target.edges if e not in mod.chains]
    taken = {e for e, _ in kept}
    items = []
    for e, chain in mod.chain_registry:
        a, b = mod.target.ends(e)
        items.append((a, b, chain))
    items.sort()
    new_edges = []
    registry = []
    for a, b, chain in items:
        eid = contracted_edge_id(chain, taken)
        taken.add(eid)
        new_edges.append((eid, (a, b)))
        registry.append((eid, chain))
    target = DualGraph(mod.target.vertices, tuple(kept + new_edges))
    return Modification(target, mod.source, tuple(registry))


def check_roundtrip_instance(rng: random.Random, cfg: VerifyConfig) -> list[dict]:
    failures = []
    # dualizing degree and twister totals on an arbitrary graph
    graph = random_graph(rng, cfg.max_vertices, cfg.max_genus)
    omega = omega_multidegree(graph)
    if omega.total != 2 * graph.genus - 2:
        failures.append(_repro("dualizing multidegree total is off", graph=graph))
    tw = Twister(graph, tuple(
        (v, rng.randint(-cfg.degree_window, cfg.degree_window)) for v in graph.vertex_ids
    ))
    if sum(tw.degree_changes.values()) != 0:
        failures.append(_repro("twister degree changes do not cancel", graph=graph))
    deg = random_multidegree(rng, graph, cfg.degree_window)
    if sum(twist(deg, tw).as_dict.values()) != deg.total:
        failures.append(_repro("twisting changed the total degree", graph=graph, deg=deg))

    # contraction round trip on a random modification of a stable graph
    stable = random_stable_graph(rng, cfg.max_vertices, cfg.max_genus)
    mod = random_modification(rng, stable, cfg.chain_length_max)
    back = stable_model(mod.source)
    if back != expected_contraction(mod):
        failures.append(_repro("stable model round trip failed", graph=stable, mod=mod))
    pulled = pullback_multidegree(mod, omega_multidegree(stable))
    if pulled != omega_multidegree(mod.source):
        failures.append(_repro("dualizing pullback mismatch", graph=stable, mod=mod))
    return failures


def _suite_roundtrip(cfg: VerifyConfig, rng: random.Random) -> Iterator[list[dict]]:
    for _ in range(cfg.instance_count):
        yield check_roundtrip_instance(rng, cfg)


SUITES: dict[str, Callable[[VerifyConfig, random.Random], Iterator[list[dict]]]] = {
    "chain-cohomology": _suite_chain_cohomology,
    "pushforward": _suite_pushforward,
    "compadm": _suite_compadm,
    "famchain2": _suite_famchain2,
    "biss": _suite_biss,
    "roundtrip": _suite_roundtrip,
}

ALL_SUITES = tuple(SUITES)


@dataclass(frozen=True)
class VerifyConfig:
    suites: tuple[str, ...] = ALL_SUITES
    seed: int = 0
    instance_count: int = 50
    max_vertices: int = 6
    max_genus: int = 4
    degree_window: int = 2
    chain_length_max: int = 4

    def __post_init__(self) -> None:
        if isinstance(self.suites, str):
            raise ValueError(f"suites must be a sequence of suite names, got {self.suites!r}")
        unknown = set(self.suites) - set(ALL_SUITES)
        if unknown:
            raise ValueError(f"unknown suites: {sorted(unknown)}")
        ordered = tuple(s for s in ALL_SUITES if s in set(self.suites))
        object.__setattr__(self, "suites", ordered)
        _json_int(self.seed, "seed")  # any int, negative too
        for name in ("instance_count", "max_vertices", "max_genus",
                     "degree_window", "chain_length_max"):
            if _json_int(getattr(self, name), name) < 1:
                raise ValueError(f"{name} must be positive")
        # each count is read only up to the first length past the bound
        length, base = self.chain_length_max, len(_CHAIN_DEGREES)
        lengths = range(1, length + 1)
        for suite, walked, counts in (
            ("chain-cohomology", f"{base}^1 + ... + {base}^{length}",
             accumulate(base ** n for n in lengths)),
            ("pushforward", f"3^{length}", (3 ** n for n in lengths)),
            ("compadm", f"3^{length}", (3 ** n for n in lengths)),
        ):
            if suite in ordered and any(n > _MAX_CHAIN_SEQUENCES for n in counts):
                raise ValueError(f"{suite} walks {walked} degree sequences, more than "
                                 f"{_MAX_CHAIN_SEQUENCES}; too many to enumerate")

    def to_json_dict(self) -> dict:
        return asdict(self) | {"suites": list(self.suites)}


MAX_REPORTED_FAILURES = 3


def run_suite(name: str, cfg: VerifyConfig) -> SuiteResult:
    """The one case loop: count a suite's cases and gather their failures."""
    cases = SUITES[name](cfg, random.Random(f"{cfg.seed}:{name}"))
    result = SuiteResult(0, [])
    for failures in cases:
        result.cases += 1
        result.failures.extend(failures)
    return result


def run_verification(cfg: VerifyConfig) -> dict:
    """Run the configured suites and assemble a deterministic report."""
    report: dict = {"config": cfg.to_json_dict(), "suites": {}, "ok": True}
    for name in cfg.suites:
        result = run_suite(name, cfg)
        entry: dict = {
            "status": "pass" if not result.failures else "fail",
            "cases": result.cases,
        }
        if result.failures:
            entry["failure_count"] = len(result.failures)
            entry["failures"] = result.failures[:MAX_REPORTED_FAILURES]
            report["ok"] = False
        report["suites"][name] = entry
    return report
