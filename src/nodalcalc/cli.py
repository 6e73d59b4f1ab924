"""Command line front end.

JSON in, JSON out.  Curves, modifications, multidegrees, sheaf models,
and polarizations all use the formats of their defining modules, and
reports print with sorted keys so the same inputs give byte-identical
output.  Exit status: 0 pass, 1 a check or verification failed, 2 bad
input or usage.

One writer, ``_dumps``, writes stdout, ``--output`` files and verify's
counterexample files, byte-identical to ``json.dumps(payload, indent=2,
sort_keys=True)`` plus a newline.

``main`` may be called repeatedly in one process: it builds its argument
parser on the first call and reuses it, and each call parses into a
fresh namespace, so no option or default carries over between calls.
A request that names a command is parsed by that command's subparser
alone, in one pass; anything else goes to the top-level parser.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from json.encoder import encode_basestring_ascii as _ascii
from operator import sub
from pathlib import Path

from .correspondence import certify_bijection, phi, phi_inverse
from .graphs import (
    DualGraph,
    ExceptionalCycleError,
    classify,
    connected_subcurves,
    maximal_exceptional_chains,
)
from .modifications import Modification
from .modifications import stable_model as _stable_model
from .pushforward import (
    _chain_scans,
    _diagnostics_of,
    _flags_of,
    _model_of,
    pushforward_degree_oracle,
)
from .sheaves import (
    Multidegree,
    SheafModel,
    chain_h,
    omega_multidegree,
    sheaf_degree,
)
from .stability import (
    Polarization,
    balanced_report,
    canonical_polarization,
    enumerate_balanced,
    enumerate_semistable_models,
    sheaf_stability_report,
)
from .verify import ALL_SUITES, VerifyConfig, run_verification


class _InputError(Exception):
    """Bad file, bad JSON, a malformed payload, or an unwritable output
    path; reported with exit 2."""


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object as a dict; a repeated key is refused, not overwritten."""
    obj = dict(pairs)
    if len(obj) < len(pairs):  # some key repeats: name the first one
        seen: set[str] = set()
        for key, _ in pairs:
            if key in seen:
                raise _InputError(f"repeated key {key!r} in one object")
            seen.add(key)
    return obj


# one decoder for every file: building one per file costs more than the key check
_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)


def _load_json(path: str):
    """The JSON value in ``path``, read as bytes and decoded as UTF-8.

    Line endings are translated as text mode translates them, so an error
    reports the same ``path:line:col``.
    """
    try:
        with open(path, "rb") as fh:
            text = fh.read().decode("utf-8")
        text = text.replace("\r\n", "\n").replace("\r", "\n")
        # json.loads refuses a byte order mark by name, where the decoder reads no value
        return json.loads(text) if text.startswith("\ufeff") else _DECODER.decode(text)
    except OSError as err:
        raise _InputError(str(err)) from err
    except json.JSONDecodeError as err:
        raise _InputError(f"{path}:{err.lineno}:{err.colno}: {err.msg}") from err
    except (_InputError, UnicodeDecodeError) as err:
        raise _InputError(f"{path}: {err}") from err


def _load_curve(path: str) -> DualGraph:
    return DualGraph.from_json_dict(_load_json(path))


def _load_modification(path: str) -> Modification:
    return Modification.from_json_dict(_load_json(path))


def _json_key(key) -> str:
    """A dict key that is not a ``str``, coerced as ``json`` coerces it."""
    if isinstance(key, str):
        return key
    if key is None or isinstance(key, (int, float)):
        return json.dumps(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def _dumps(payload) -> str:
    """``json.dumps(payload, indent=2, sort_keys=True) + "\\n"``, byte for byte.

    ``indent`` sends ``json`` to its pure-Python encoder, which yields
    every piece through a chain of generators; this writer appends the
    pieces to one list instead, inlining the common leaves (exact ``str``
    and ``int``).  Strings go through ``json``'s own C escaper.  Any other
    leaf (a float, a ``str`` or ``int`` subclass, an unserializable
    object) is handed to ``json.dumps``, which writes it or raises the
    same ``TypeError``.  Reports are trees, so there is no cycle check.
    """
    pieces: list[str] = []
    put = pieces.append

    def write(obj, indent: str) -> None:
        if isinstance(obj, dict):
            if not obj:
                put("{}")
                return
            inner = indent + "  "
            sep, comma = "{" + inner, "," + inner
            # sorted keys give json's order of sorted items: no two keys compare equal
            for key in sorted(obj):
                item = obj[key]
                if type(key) is not str:
                    key = _json_key(key)
                kind = type(item)
                if kind is str:
                    put(f"{sep}{_ascii(key)}: {_ascii(item)}")
                elif kind is int:
                    put(f"{sep}{_ascii(key)}: {item}")
                else:
                    put(f"{sep}{_ascii(key)}: ")
                    write(item, inner)
                sep = comma
            put(indent + "}")
        elif isinstance(obj, (list, tuple)):
            if not obj:
                put("[]")
                return
            inner = indent + "  "
            sep, comma = "[" + inner, "," + inner
            for item in obj:
                kind = type(item)
                if kind is str:
                    put(sep + _ascii(item))
                elif kind is int:
                    put(f"{sep}{item}")
                else:
                    put(sep)
                    write(item, inner)
                sep = comma
            put(indent + "]")
        elif obj is None:
            put("null")
        elif obj is True:
            put("true")
        elif obj is False:
            put("false")
        else:
            put(json.dumps(obj))

    write(payload, "\n")
    put("\n")
    return "".join(pieces)


def _write(path: str | Path, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as err:
        raise _InputError(str(err)) from err


def _emit(payload: dict, output: str | None) -> None:
    text = _dumps(payload)
    if output:
        _write(output, text)
    else:
        sys.stdout.write(text)


def _number(x: int | Fraction):
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else str(x)
    return x


def _scan_payload(scan) -> dict:
    return {
        "equality_sites": [sorted(z) for z in scan.equality_sites],
        "failures": [
            {"subcurve": sorted(z), "margin": _number(m)} for z, m in scan.failures
        ],
    }


# -- commands ----------------------------------------------------------------


def cmd_classify(args) -> tuple[dict, int]:
    graph = _load_curve(args.curve)
    payload: dict = {
        "genus": graph.genus,
        "class": classify(graph),
        "omega": omega_multidegree(graph).to_json_dict(),
    }
    try:
        payload["chains"] = [list(c.vertices) for c in maximal_exceptional_chains(graph)]
    except ExceptionalCycleError:
        payload["chains"] = "cycle"
    except ValueError:
        payload["chains"] = None
    return payload, 0


def cmd_stable_model(args) -> tuple[dict, int]:
    mod = _stable_model(_load_curve(args.curve))
    return mod.to_json_dict(include_source=True), 0


def cmd_modify(args) -> tuple[dict, int]:
    mod = _load_modification(args.modification)
    return mod.to_json_dict(include_source=True), 0


def cmd_pushforward(args) -> tuple[dict, int]:
    mod = _load_modification(args.modification)
    deg = Multidegree.from_json_dict(mod.source, _load_json(args.multidegree))
    scans = _chain_scans(mod, deg)
    flags = _flags_of(scans)
    diag = _diagnostics_of(scans)
    payload: dict = {
        "admissibility": asdict(flags),
        "diagnostics": asdict(diag),  # its noninvertible_edges are sorted
        "model": None,
        "oracle_agrees": None,
    }
    if flags.admissible:
        model = _model_of(mod, deg, scans)
        payload["model"] = model.to_json_dict()
        payload["oracle_agrees"] = all(
            sheaf_degree(model, w) == pushforward_degree_oracle(mod, deg, w)
            for w in connected_subcurves(mod.target)
        )
    return payload, 0


def cmd_chain_h(args) -> tuple[dict, int]:
    try:
        degrees = [int(tok) for tok in args.degrees.split(",")]
    except ValueError as err:
        raise _InputError("--degrees wants a comma-separated list of integers") from err
    result = chain_h(degrees, puncture_ends=args.punctured)
    # a run's sum is a prefix sum less an earlier one, so one pass bounds them all;
    # interval_sum_range, which sums every run, is the reference the tests read
    prefix = list(accumulate(degrees, initial=0))
    lo = min(map(sub, prefix[1:], accumulate(prefix[:-1], max)))
    hi = max(map(sub, prefix[1:], accumulate(prefix[:-1], min)))
    payload = {
        "degrees": degrees,
        "punctured": args.punctured,
        "h0": result.h0,
        "h1": result.h1,
        "interval_min": lo,
        "interval_max": hi,
    }
    return payload, 0


def cmd_check_stability(args) -> tuple[dict, int]:
    graph = _load_curve(args.curve)
    model = SheafModel.from_json_dict(graph, _load_json(args.sheaf))
    if args.polarization:
        pol = Polarization.from_json_dict(graph, _load_json(args.polarization))
    else:
        pol = canonical_polarization(graph, model.degree)
    scan = sheaf_stability_report(model, pol)
    verdict = scan.verdict(args.mode, args.base_vertex)
    payload = {
        "mode": args.mode,
        "base_vertex": args.base_vertex,
        "degree": model.degree,
        "verdict": verdict,
        **_scan_payload(scan),
    }
    return payload, 0 if verdict else 1


def cmd_check_balanced(args) -> tuple[dict, int]:
    graph = _load_curve(args.curve)
    deg = Multidegree.from_json_dict(graph, _load_json(args.multidegree))
    report = balanced_report(deg)
    mode = args.mode.replace("-", "_")
    verdict = report.verdict(mode)
    payload = {
        "mode": args.mode,
        "verdict": verdict,
        "exceptional_violations": sorted(report.exceptional_violations),
        **_scan_payload(report.scan),
    }
    return payload, 0 if verdict else 1


def cmd_phi(args) -> tuple[dict, int]:
    mod = _load_modification(args.modification)
    deg = Multidegree.from_json_dict(mod.source, _load_json(args.multidegree))
    target, model = phi(mod, deg)
    return {"curve": target.to_json_dict(), "model": model.to_json_dict()}, 0


def cmd_phi_inv(args) -> tuple[dict, int]:
    graph = _load_curve(args.curve)
    model = SheafModel.from_json_dict(graph, _load_json(args.sheaf))
    mod, deg = phi_inverse(graph, model)
    payload = {
        "modification": mod.to_json_dict(include_source=True),
        "multidegree": deg.to_json_dict(),
    }
    return payload, 0


def cmd_enumerate(args) -> tuple[dict, int]:
    graph = _load_curve(args.curve)
    payload: dict = {"degree": args.degree, "mode": args.mode}
    if args.mode in ("balanced", "stably-balanced"):
        pairs = enumerate_balanced(graph, args.degree, args.mode.replace("-", "_"))
        payload["items"] = [
            {
                "modified_edges": sorted(mod.modified_edges),
                "multidegree": deg.to_json_dict(),
            }
            for mod, deg in pairs
        ]
    else:
        models = enumerate_semistable_models(graph, args.degree, args.mode)
        payload["items"] = [model.to_json_dict() for model in models]
    payload["count"] = len(payload["items"])
    return payload, 0


def cmd_certify(args) -> tuple[dict, int]:
    graph = _load_curve(args.curve)
    report = certify_bijection(graph, args.degree, args.mode.replace("-", "_"))
    return report.to_json_dict(), 0 if report.bijection else 1


def cmd_verify(args) -> tuple[dict, int]:
    cfg = VerifyConfig(
        suites=tuple(args.suite) if args.suite else ALL_SUITES,
        seed=args.seed,
        instance_count=args.instances,
        max_vertices=args.max_vertices,
        max_genus=args.max_genus,
        degree_window=args.degree_window,
        chain_length_max=args.chain_length_max,
    )
    report = run_verification(cfg)
    dumps: dict[str, str] = {}
    for name, entry in report["suites"].items():
        if entry["status"] == "fail":
            filename = f"counterexample-{name}.json"
            _write(Path(args.dump_dir) / filename, _dumps(entry["failures"][0]))
            dumps[name] = filename
    if dumps:
        report["reproduction_files"] = dumps
    return report, 0 if report["ok"] else 1


# -- parser ------------------------------------------------------------------


@lru_cache(maxsize=1)
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser, and each command's subparser by name."""
    parser = argparse.ArgumentParser(
        prog="nodalcalc",
        description="Dual graphs of nodal curves: classification, chain "
        "modifications, pushforward normal forms, stability checks, and "
        "the balanced/semistable correspondence.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    def sub(name: str, fn, help_text: str):
        p = subs.add_parser(name, help=help_text)
        p.set_defaults(fn=fn)
        p.add_argument("--output", help="write the JSON report here instead of stdout")
        return p

    p = sub("classify", cmd_classify, "genus, classification, chains, dualizing degree")
    p.add_argument("curve", help="curve JSON file")

    p = sub("stable-model", cmd_stable_model, "contract exceptional chains")
    p.add_argument("curve", help="curve JSON file")

    p = sub("modify", cmd_modify, "insert chains, materializing the new curve")
    p.add_argument("modification", help="modification JSON file")

    p = sub("pushforward", cmd_pushforward, "direct image normal form with diagnostics")
    p.add_argument("modification", help="modification JSON file")
    p.add_argument("multidegree", help="multidegree JSON file on the modified curve")

    p = sub("chain-h", cmd_chain_h, "cohomology of a multidegree on a rational chain")
    p.add_argument("--degrees", required=True,
                   help="comma-separated integers; a list that starts with a "
                   "negative number needs the = form, as in --degrees=-1,2")
    p.add_argument("--punctured", action="store_true",
                   help="impose vanishing at both free ends")

    p = sub("check-stability", cmd_check_stability, "scan a sheaf model against a polarization")
    p.add_argument("curve", help="curve JSON file")
    p.add_argument("sheaf", help="sheaf model JSON file")
    p.add_argument("--polarization", help="polarization JSON file (default: canonical)")
    p.add_argument("--mode", default="semistable",
                   choices=["semistable", "stable", "quasistable"])
    p.add_argument("--base-vertex", help="required for quasistable mode")

    p = sub("check-balanced", cmd_check_balanced, "balanced inequalities for a multidegree")
    p.add_argument("curve", help="curve JSON file (quasistable)")
    p.add_argument("multidegree", help="multidegree JSON file")
    p.add_argument("--mode", default="balanced", choices=["balanced", "stably-balanced"])

    p = sub("phi", cmd_phi, "direct image of a chain-degree-1 bundle")
    p.add_argument("modification", help="modification JSON file (all chains length 1)")
    p.add_argument("multidegree", help="multidegree JSON file, degree 1 on chains")

    p = sub("phi-inv", cmd_phi_inv, "bundle on a small modification from a sheaf model")
    p.add_argument("curve", help="curve JSON file")
    p.add_argument("sheaf", help="sheaf model JSON file")

    p = sub("enumerate", cmd_enumerate, "all balanced bundles or semistable models")
    p.add_argument("curve", help="stable curve JSON file")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--mode", default="balanced",
                   choices=["balanced", "stably-balanced", "semistable", "stable"])

    p = sub("certify", cmd_certify, "certify the balanced/semistable bijection")
    p.add_argument("curve", help="stable curve JSON file")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--mode", default="balanced", choices=["balanced", "stably-balanced"])

    p = sub("verify", cmd_verify, "run the verification suites")
    defaults = VerifyConfig()
    p.add_argument("--suite", action="append", choices=list(ALL_SUITES),
                   help="repeatable; default is every suite")
    p.add_argument("--seed", type=int, default=defaults.seed)
    p.add_argument("--instances", type=int, default=defaults.instance_count,
                   help="randomized cases per suite")
    p.add_argument("--max-vertices", type=int, default=defaults.max_vertices)
    p.add_argument("--max-genus", type=int, default=defaults.max_genus)
    p.add_argument("--degree-window", type=int, default=defaults.degree_window)
    p.add_argument("--chain-length-max", type=int, default=defaults.chain_length_max)
    p.add_argument("--dump-dir", default=".",
                   help="where failing suites write counterexample files")

    return parser, subs.choices


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser, commands = _build_parser()
    if argv and argv[0] in commands:  # one pass, by the command's subparser alone
        parser, argv = commands[argv[0]], argv[1:]
    args = parser.parse_args(argv)
    try:
        payload, code = args.fn(args)
        _emit(payload, args.output)
    except (_InputError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
