"""Span recorder for the traced benchmark run.

Only the benchmark installs wrappers; nothing under ``src/`` knows about
them.  For each layer module the recorder wraps

* every public function defined there, at each binding of it in another
  module (``from .graphs import connected_subcurves`` in ``stability``),
  in the package namespace and in the benchmark's own binding table.
  Calls inside the defining module stay unwrapped, so a span marks a
  crossing between layers or from the benchmark into a layer;
* the ``__init__`` of every public class defined there.  A class cannot
  be rebound without breaking ``isinstance`` and dataclass equality, so
  its constructor is wrapped on the class and every construction counts,
  including those inside the defining module.

A span is (name, start, end, parent).  Generator functions such as
``connected_subcurves`` get one span from the call until the iteration
ends; while the generator is suspended the span is off the stack, so
the consumer's work is not charged to it.  Self time is the time a span
spent on the stack minus the time of the spans it called.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import time
from collections import Counter
from typing import Callable

LAYERS = (
    "graphs",
    "sheaves",
    "modifications",
    "pushforward",
    "stability",
    "correspondence",
    "verify",
    "cli",
)


class Span:
    __slots__ = ("name", "layer", "site", "start", "end", "parent",
                 "busy", "child", "error", "items", "work", "ok")

    def __init__(self, name, layer, site, start, parent):
        self.name = name
        self.layer = layer
        self.site = site
        self.start = start
        self.end = None
        self.parent = parent
        self.busy = 0.0  # time on the stack
        self.child = 0.0  # time of spans called while on the stack
        self.error = False
        self.items = 0  # values yielded, for generators
        self.work = 0  # amount of work, set by a probe
        self.ok = False  # useful outcome, set by a probe

    @property
    def self_time(self) -> float:
        return self.busy - self.child


class Recorder:
    """In-memory spans of one traced pass."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[tuple[Span, float]] = []
        self._clock = time.perf_counter

    def _push(self, span: Span) -> None:
        self._stack.append((span, self._clock()))

    def _pop(self, span: Span) -> float:
        top, since = self._stack.pop()
        if top is not span:
            raise RuntimeError(f"span stack corrupted at {span.name}")
        now = self._clock()
        took = now - since
        span.busy += took
        if self._stack:
            self._stack[-1][0].child += took
        return now

    def open(self, name: str, layer: str, site: str | None) -> Span:
        parent = self._stack[-1][0] if self._stack else None
        span = Span(name, layer, site, self._clock(), parent)
        self.spans.append(span)
        return span

    def call(self, span: Span, fn, args, kwargs):
        self._push(span)
        try:
            return fn(*args, **kwargs)
        except BaseException:
            span.error = True
            raise
        finally:
            span.end = self._pop(span)

    def iterate(self, span: Span, gen):
        """Drive ``gen`` with ``span`` on the stack only while it runs."""
        try:
            while True:
                self._push(span)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                except BaseException:
                    span.error = True
                    raise
                finally:
                    span.end = self._pop(span)
                span.items += 1
                yield item
        finally:
            gen.close()

    def dump(self, path) -> None:
        """Write the spans as JSON lines, times relative to the first span."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        t0 = self.spans[0].start if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for s in self.spans:
                end = s.end if s.end is not None else s.start
                fh.write(json.dumps([
                    s.name, s.site, round(s.start - t0, 7), round(end - t0, 7),
                    index[id(s.parent)] if s.parent is not None else None,
                    round(s.self_time, 7),
                ]) + "\n")


# -- probes: extra work counts read off a call's first argument --------------


def _probe_scan(span: Span, scan) -> None:
    span.work = len(getattr(scan, "entries", ()))
    span.ok = bool(getattr(scan, "holds", False))


def _probe_subcurves(span: Span, graph) -> None:
    span.work = (1 << len(graph.vertices)) - 1  # masks tried


PROBES = {
    "stability.SubcurveScan": _probe_scan,  # after construction, on the new scan
    "graphs.connected_subcurves": _probe_subcurves,  # at the call, on the graph
}


# -- installing and removing wrappers ----------------------------------------


def _wrap_function(rec: Recorder, fn, name: str, layer: str, site: str):
    if inspect.isgeneratorfunction(fn):
        probe = PROBES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = rec.open(name, layer, site)
            if probe:
                probe(span, args[0])
            return rec.iterate(span, fn(*args, **kwargs))
    else:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return rec.call(rec.open(name, layer, site), fn, args, kwargs)
    return wrapper


def _wrap_init(rec: Recorder, init, name: str, layer: str):
    probe = PROBES.get(name)

    @functools.wraps(init)
    def __init__(self, *args, **kwargs):
        span = rec.open(name, layer, None)
        rec.call(span, init, (self,) + args, kwargs)
        if probe:
            probe(span, self)

    return __init__


def _public_definitions(module):
    for attr, obj in vars(module).items():
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield attr, obj
        elif (inspect.isclass(obj) and "__init__" in vars(obj)
              and not issubclass(obj, BaseException)):
            yield attr, obj


def install(rec: Recorder, modules: dict, namespaces: dict) -> Callable[[], None]:
    """Wrap every layer's public functions and constructors; return the undo.

    ``modules`` maps layer names to module objects.  ``namespaces`` maps
    a site label to a dict-like namespace whose bindings should also be
    wrapped (the package namespace and the benchmark's binding table).
    """
    undo: list[tuple[object, str, object]] = []
    sites = {name: vars(mod) for name, mod in modules.items()}
    sites.update(namespaces)
    for layer in LAYERS:
        module = modules[layer]
        for attr, obj in _public_definitions(module):
            name = f"{layer}.{attr}"
            if inspect.isclass(obj):
                undo.append((obj, "__init__", obj.__init__))
                obj.__init__ = _wrap_init(rec, obj.__init__, name, layer)
                continue
            for site, ns in sites.items():
                if site == layer:
                    continue
                for key, bound in list(ns.items()):
                    if bound is obj:
                        undo.append((ns, key, obj))
                        ns[key] = _wrap_function(rec, obj, name, layer, site)

    def remove() -> None:
        for target, key, original in reversed(undo):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)

    return remove


# -- per-layer metrics --------------------------------------------------------

_ENUMERATORS = ("stability.enumerate_balanced", "stability.enumerate_semistable_models")


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("_ratio", "_per_scan")):
        return "ratio"
    return "count"


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(rec: Recorder) -> dict[str, float]:
    """Per-layer counts, self times and work/waste ratios of one pass."""
    calls: Counter = Counter()
    self_s: Counter = Counter()
    errors: Counter = Counter()
    by_name: Counter = Counter()
    scans = rows = accepted = candidates = 0
    table_builds = yielded = masks = models = 0
    for s in rec.spans:
        calls[s.layer] += 1
        self_s[s.layer] += s.self_time
        errors[s.layer] += s.error
        by_name[s.name] += 1
        if s.name == "stability.SubcurveScan":
            scans += 1
            rows += s.work
            accepted += s.ok
            p = s.parent
            while p is not None and p.name not in _ENUMERATORS:
                p = p.parent
            candidates += p is not None
        elif s.name == "graphs.connected_subcurves":
            yielded += s.items
            masks += s.work
            table_builds += s.site == "stability"
        elif s.name == "pushforward.pushforward_model":
            models += not s.error
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.self_s"] = self_s[layer]
    out.update({
        "stability.rows_scanned": rows,
        "stability.candidates": candidates,
        "stability.accept_ratio": _ratio(accepted, scans),
        "stability.table_builds": table_builds,
        "stability.table_builds_per_scan": _ratio(table_builds, scans),
        "graphs.subcurves_yielded": yielded,
        "graphs.subcurve_yield_ratio": _ratio(yielded, masks),
        "sheaves.multidegrees_built": by_name["sheaves.Multidegree"],
        "sheaves.twisters_built": by_name["sheaves.Twister"],
        "pushforward.models_built": models,
        "pushforward.errors": errors["pushforward"],
        "cli.errors": errors["cli"],
    })
    return out
