"""Pushing line bundles down a modification.

A line bundle on the source, restricted to the chain over a modified
edge, is a degree sequence read from side 0.  When every contiguous run
of every chain sums to -1, 0, or 1 the direct image is a torsion-free
rank-1 sheaf of the same total degree, and this module computes its
model: which target nodes become non-invertible and how the degrees on
the surviving components are corrected.

Lemma (alternation).  Every contiguous run of a degree sequence sums to
-1, 0 or 1 exactly when its entries lie in {-1, 0, 1} and its nonzero
entries alternate in sign.

Proof.  If every run sums within [-1, 1], the runs of length one put
each entry in {-1, 0, 1}, and two nonzero entries of the same sign with
only zeros between them would make a run of sum 2 or -2.  Conversely,
the nonzero entries of any run of an alternating sequence alternate
too, so the run sums to 0 when it holds an even number of them and to
its first nonzero entry when it holds an odd number.  QED

So an admissible chain is decided by its two ends.  It carries a
nonzero degree exactly when its first nonzero entry ``head`` is not 0,
its total is 0 when ``head`` and the last nonzero entry ``tail``
differ and ``head`` when they agree, and the end rule of
``pushforward_model`` reads off ``head`` and ``tail`` alone.

Two independent computations of the same thing are kept side by side.
``pushforward_model`` applies the per-chain normal-form rules, while
``pushforward_degree_oracle`` evaluates the degree of the direct image
on a subcurve as a minimum over connected lifts.  They must agree on
every connected subcurve; tests enforce that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .graphs import is_connected_subcurve, _check_members
from .modifications import Modification
from .sheaves import Multidegree, SheafModel, Twister, twist


class NotAdmissibleError(ValueError):
    """Some contiguous run of a chain has degree outside -1..1."""


class ModelMismatchError(AssertionError):
    """Twister-equivalent bundles produced different sheaf models.

    This cannot happen if the normal-form rules are right; it is raised
    instead of silently returning so that a counterexample surfaces.
    """


@dataclass(frozen=True)
class AdmissibilityFlags:
    """Interval-sum classification of all chains of a modification.

    admissible: every contiguous run sums within [-1, 1]
    negatively: within [-1, 0]
    positively: within [0, 1]
    invertible: every chain degree is 0
    """

    admissible: bool
    negatively: bool
    positively: bool
    invertible: bool


def chain_degrees(mod: Modification, deg: Multidegree) -> list[tuple[str, tuple[int, ...]]]:
    """Degree sequence on each chain, side 0 first."""
    if deg.graph != mod.source:
        raise ValueError("multidegree does not live on the modification source")
    values = deg.as_dict
    return [(e, tuple(values[c] for c in chain)) for e, chain in mod.chain_registry]


_Scans = list[tuple[str, int, int, int, int]]


def _chain_scans(mod: Modification, deg: Multidegree) -> _Scans:
    """(e, lo, hi, head, tail) per chain, side 0 first, in one pass each.

    lo and hi bound the sums of nonempty contiguous runs, read off running
    prefix sums: the run ending at an entry ranges between its prefix sum
    minus the largest and minus the smallest earlier prefix sum (0
    included).  head and tail are the first nonzero entries read from side
    0 and from side 1, 0 when there is none; the end rule of
    ``pushforward_model`` reads nothing else.  ``interval_sum_range`` is
    the independent reference.

    ``admissibility``, ``pushforward_diagnostics`` and ``pushforward_model``
    read their answers off this list (``_flags_of``, ``_diagnostics_of``,
    ``_model_of``), so a caller that wants more than one scans once.
    """
    if deg.graph is not mod.source and deg.graph != mod.source:
        raise ValueError("multidegree does not live on the modification source")
    values = deg.as_dict
    scans = []
    for e, chain in mod.chain_registry:
        prefix = low_prefix = high_prefix = 0
        lo = hi = values[chain[0]]
        head = tail = 0
        for c in chain:
            d = values[c]
            if d:
                tail = d
                if not head:
                    head = d
            prefix += d
            if prefix - high_prefix < lo:
                lo = prefix - high_prefix
            if prefix - low_prefix > hi:
                hi = prefix - low_prefix
            if prefix < low_prefix:
                low_prefix = prefix
            elif prefix > high_prefix:
                high_prefix = prefix
        scans.append((e, lo, hi, head, tail))
    return scans


def admissibility(mod: Modification, deg: Multidegree) -> AdmissibilityFlags:
    return _flags_of(_chain_scans(mod, deg))


def _flags_of(scans: _Scans) -> AdmissibilityFlags:
    admissible = negatively = positively = invertible = True
    for _, lo, hi, _, _ in scans:
        admissible &= -1 <= lo and hi <= 1
        negatively &= -1 <= lo and hi <= 0
        positively &= 0 <= lo and hi <= 1
        invertible &= lo == 0 == hi
    return AdmissibilityFlags(admissible, negatively, positively, invertible)


def pushforward_model(mod: Modification, deg: Multidegree) -> SheafModel:
    """Sheaf model of the direct image of an admissible line bundle.

    Per chain, with total delta over the chain:
      all entries 0        the edge stays invertible
      delta = 1            the edge becomes non-invertible, no correction
      delta = 0, not all 0 non-invertible, and the endpoint on the side
                           whose first nonzero entry reading inward is -1
                           loses one unit (exactly one side qualifies)
      delta = -1           non-invertible, both endpoints lose one unit
                           (the same vertex twice over a loop)
    Vertices away from the chains keep their degrees.  The total degree
    of the model equals the total degree of the bundle.

    By the alternation lemma of the module the table is one end rule:
    the edge is non-invertible exactly when ``head`` is not 0, and the
    endpoint on each side loses one unit exactly when the first nonzero
    entry read from that side is -1 (``head`` for side 0, ``tail`` for
    side 1).  Then delta is 1 less the units lost, as the table says.

    Each chain is read in one pass (``_chain_scans``).  The model is
    built in canonical form, through the ``_derived`` constructors.
    """
    return _model_of(mod, deg, _chain_scans(mod, deg))


def _model_of(mod: Modification, deg: Multidegree, scans: _Scans) -> SheafModel:
    values = deg.as_dict
    target = mod.target
    ends = target.edge_ends
    tilde = {v: values[v] for v in target.vertex_ids}
    noninvertible = []
    for e, lo, hi, head, tail in scans:
        if lo < -1 or hi > 1:
            raise NotAdmissibleError(
                f"chain over {e!r} has a contiguous run of degree "
                f"{lo if lo < -1 else hi}: {[values[c] for c in mod.chains[e]]}"
            )
        if not head:
            continue
        noninvertible.append(e)
        a, b = ends[e]  # a is side 0
        if head == -1:
            tilde[a] -= 1
        if tail == -1:
            tilde[b] -= 1
    total = sum(tilde.values())
    if total + len(noninvertible) != deg.total:
        raise AssertionError("pushforward changed the total degree")
    # canonical by construction: target vertex order, int degrees, target edge ids
    return SheafModel._derived(target, frozenset(noninvertible),
                               Multidegree._derived(target, tilde, total))


def pushforward_degree_oracle(
    mod: Modification, deg: Multidegree, members: Iterable[str]
) -> int:
    """Degree of the direct image on a connected subcurve, from first principles.

    The degree on W is the minimum of the bundle degree over connected
    subcurves of the source squeezed between the strict transform of W
    and the full preimage of W.  The minimum decomposes as the degree on
    the strict transform plus, for every chain over a boundary edge, the
    least prefix sum reading from the W side (never more than 0).

    ``pushforward_model`` is checked against this formula: the model's
    degree on every connected W must equal this number.
    """
    if deg.graph != mod.source:
        raise ValueError("multidegree does not live on the modification source")
    sub = _check_members(mod.target, members)
    if not is_connected_subcurve(mod.target, sub):
        raise ValueError("oracle requires a connected subcurve of the target")
    values = deg.as_dict
    total = sum(values[v] for v in sub)
    for e, chain in mod.chain_registry:
        a, b = mod.target.ends(e)
        a_in, b_in = a in sub, b in sub
        if not (a_in or b_in):
            continue
        degs = [values[c] for c in chain]
        if a_in and b_in:
            total += sum(degs)
            continue
        if b_in:
            degs.reverse()
        prefix, worst = 0, 0
        for d in degs:
            prefix += d
            worst = min(worst, prefix)
        total += worst
    return total


@dataclass(frozen=True)
class PushforwardDiagnostics:
    """What goes wrong (or does not) when pushing a bundle forward.

    has_torsion: some contiguous run has degree 2 or more, so the direct
    image acquires torsion.  degree_drops: some run has degree -2 or
    less, so the direct image loses degree.  Either way the bundle is
    not admissible.  ``noninvertible_edges`` lists the modified edges
    whose chain carries any nonzero degree.
    """

    has_torsion: bool
    degree_drops: bool
    noninvertible_edges: tuple[str, ...]


def pushforward_diagnostics(mod: Modification, deg: Multidegree) -> PushforwardDiagnostics:
    return _diagnostics_of(_chain_scans(mod, deg))


def _diagnostics_of(scans: _Scans) -> PushforwardDiagnostics:
    torsion = drops = False
    bad = []
    for e, lo, hi, head, _ in scans:
        torsion |= hi >= 2
        drops |= lo <= -2
        if head:
            bad.append(e)
    return PushforwardDiagnostics(torsion, drops, tuple(sorted(bad)))


def _chain_twister_coefficients(deltas: list[int]) -> list[int] | None:
    """Integer c with second difference matching ``deltas``, zero boundary.

    Solves c[i-1] - 2c[i] + c[i+1] = deltas[i] for i = 1..k with
    c[0] = c[k+1] = 0; the solution over the rationals is unique, and
    None is returned when it is not integral.  With c[0] = 0 and c[1] = t
    the recurrence gives c[i] = i*t + beta[i], beta integral, so
    c[k+1] = 0 fixes t = -beta[k+1] / (k+1), and the solution is integral
    exactly when k+1 divides beta[k+1].
    """
    k = len(deltas)
    beta = [0, 0]
    for i in range(1, k + 1):
        beta.append(2 * beta[i] - beta[i - 1] + deltas[i - 1])
    t, rest = divmod(-beta[k + 1], k + 1)
    if rest:
        return None
    return [i * t + beta[i] for i in range(1, k + 1)]


def same_pushforward(mod: Modification, deg: Multidegree, other: Multidegree) -> bool:
    """Whether two admissible bundles differ by a chain-supported twister.

    When they do, their direct images are literally the same sheaf
    model; this is asserted, and a ModelMismatchError with both models
    attached signals a broken invariant rather than returning a wrong
    answer.
    """
    for d in (deg, other):
        if not admissibility(mod, d).admissible:
            raise NotAdmissibleError("both multidegrees must be admissible")
    coefficients: dict[str, int] = {}
    a_values, b_values = deg.as_dict, other.as_dict
    for e, chain in mod.chain_registry:
        deltas = [b_values[c] - a_values[c] for c in chain]
        coeffs = _chain_twister_coefficients(deltas)
        if coeffs is None:
            return False
        coefficients.update(zip(chain, coeffs))
    tw = Twister(mod.source, tuple(coefficients.items()))
    if twist(deg, tw) != other:
        return False
    first = pushforward_model(mod, deg)
    second = pushforward_model(mod, other)
    if first != second:
        raise ModelMismatchError(
            f"twister-equivalent bundles pushed to different models: "
            f"{first.to_json_dict()} vs {second.to_json_dict()}"
        )
    return True
