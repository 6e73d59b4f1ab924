"""Stability of sheaf models and balanced multidegrees.

Semistability of a torsion-free sheaf with respect to a polarization
asks, on each connected proper subcurve Z, for a nonnegative Euler
characteristic m(Z) = rank (d_Z + chi_Z) + e_Z of the twisted
restriction.  As omega_Z = k_Z - 2 chi_Z, under the canonical
polarization m(Z) is 2g - 2 times the degree-bound margin d_Z - d omega_Z
/ (2g - 2) + k_Z / 2; that bound on a line bundle, with degree 1 on every
exceptional vertex, is the balanced condition.

One kernel, ``_margins``, turns each row (Z, chi, k) into a window (Z,
m(Z), rank (k - |dZ & N|)), and each verdict mode is one window predicate
(``_stability_test``, (c) of the first lemma).  A line bundle is the
sheaf model with no non-invertible node, and the bundle entry points read
it as one.  There is one report path and one verdict path.  The reports
read a graph's full subcurve table and keep (Z, m(Z)); a report's verdict
reads each margin as a window with no upper end.  The verdict path is one
reader, ``_verdicts``, which the check_* verdicts and the famchain2 check
of ``verify`` call: it reads one two-sided window per cut (Caporaso's
basic inequality), decides one model's windows with no base vertex lazily
and once for every mode, and stops each verdict at its first failing
window.  Each graph has one cut table.  A graph with exceptional chains
reads its cuts off the graph with each chain contracted to one edge: one
chain row per cut and one interval record per chain, so neither its
subcurves nor its sides are ever built, and a verdict decides a chain row
from the margin of one set and each chain's least prefix sums, and an
interval record from its least interval sums, all integers (the
chain-window and interval lemmas).  A quasistable verdict at a vertex on
a chain reads the same windows under the polarization perturbed there
(the last remark).  Any other graph's table has no chains, no interval
records and rows with no arms, whose windows are the kernel's.  Every
verdict checks a quasistable base vertex against the graph it reads, the
reports' included.

The enumerators are one walk of the edge subsets, ``_strata``, that
hands each vector of a stratum's box to a model side and a bundle side,
with the second lemma below; certify_bijection takes both sides from one
walk.  The subsets are walked depth first, in ascending order, and one
whose box is empty is not extended (the monotone-box remark); each box
is walked by one ``itertools.product`` over every coordinate but the
last, which the total fixes.  There is one canonical polarization,
``_canonical``, the one place its rank 2g - 2 is computed: the walk reads
it once and hands it to the box, which reads each vertex's window off
the kernel on the row {v}, and to both sides; the bundle side reads it
pulled back to each source, the same e with 0 on the chain vertices.  A
balanced mode is read as the stability mode of its models by
``_sheaf_mode``.  Both sides read the graph's cut rows, each with its
positions in a box vector found once per graph, compile a stratum's
windows once, by the remarks after the first lemma, into integer bounds
on each row's degree sum, and read each vector off them, one row further
only when the rows before it pass; no window predicate runs per vector.
The bundle side lifts a vector by the one lift rule of the
correspondence, 1 on each chain vertex and the vector's degrees
elsewhere: a gather kept on the shared small modification, which
``phi_inverse`` reads too.

    Lemma.  Let N be a model's non-invertible set, the polarization
    compatible with its degree, and for a vertex set S let d_S count the
    nodes of N inside S and chi_S = sum(1 - g_v) - #edges inside S.
    (a) m(Z) + m(Z^c) = rank |dZ - N|.  (b) If Z is connected and Z^c
    has components C_1..C_k, each cut (C_i, C_i^c) has both sides
    connected and m(Z) = m(C_1^c) + .. + m(C_k^c).  (c) So a mode holds
    on every connected proper subcurve exactly when, for one side Z of
    each cut with both sides connected, 0 <= m(Z) <= rank |dZ - N|:
    non-strictly (semistable), strictly (stable), or for quasistable at
    p with equality low only if p is not in Z and high only if p is in Z.

    Proof.  (a) m(A + B) = m(A) + m(B) - rank |E(A, B) - N| for disjoint
    A and B, and m of the whole curve is 0.  (b) Each C_i meets Z, so
    C_i^c = Z + (the other C_j) is connected.  m(Z^c) = sum m(C_i) and dZ
    is the disjoint union of the dC_i, so summing (a) over the C_i gives
    rank |dZ - N| - m(Z^c) = m(Z).  (c) By (a) the high side on Z is the
    row Z^c with its own tie rule.  By (b) a row with a disconnected
    complement is a sum of k >= 2 passing margins: >= 0, > 0 if they
    are, and in quasistable at p it is 0 only if every m(C_i^c) is,
    which needs p in every C_i.

    Remark (affine margins).  With the rows, N and the polarization
    fixed, m(Z) = rank (d_Z + |N inside Z| + chi_Z) + e_Z is affine in
    the degrees: m(Z) at d is m(Z) at 0 plus rank times the sum of d
    over Z, and the upper end rank (k - |dZ & N|) does not involve d.
    So a stratum's windows are read off one kernel pass at the zero
    vector (1 on the chain vertices on the bundle side), one row
    (Z, m(Z) at 0, upper end) each, and a vector only adds its sum.

    Remark (sum bounds).  On integer margins each mode's window on a row
    Z is a <= m <= hi - b, with a = 1 where the low end is strict on Z
    and b = 1 where the high end is, else 0, by (c).  The predicate
    decides the ties at each end on the windows (0, 1) and (1, 1): m = 0
    is the low tie below hi, and m = hi = 1 the high tie above 0.  So a
    = [not ok(Z, 0, 1)] and b = [not ok(Z, 1, 1)], and with m = m0 +
    rank s the window holds exactly when ceil((a - m0) / rank) <= s <=
    floor((hi - b - m0) / rank); in integers the ceiling is -((m0 - a)
    // rank).  The same bounds give each vertex's window on its row {v}.

    Remark (monotone boxes).  The box of N is nonempty exactly when
    each vertex's low end is at most its high end and d - |N| lies
    between the sums of the low and of the high ends.  Adding a loop to
    N lowers one low end, one high end and d - |N| by 1 each, which
    changes none of these; adding another edge lowers two high ends and
    d - |N| by 1 each, which can only break them.  So no superset of a
    subset with an empty box has a nonempty one.

    Lemma.  Let Y be a small modification of a stable graph X with
    modified set N, with degree 1 on every chain vertex.  Lift each cut
    row W of X to W+, adding the chain vertex of every modified edge
    with both ends in W, keeping chi_W, with upper end rank (|dW| - the
    modified edges crossing W).  Y is balanced (stably balanced) exactly
    when every W+ passes its window non-strictly (strictly).

    Proof.  A chain vertex c has genus 0, two edges and omega_c = 0, so
    e_c = 0.  Let Z be a connected proper subcurve of Y.  If c is in Z
    with one end of its edge, Z - {c} is connected with the same chi and
    a margin lower by rank.  If both ends are in Z but not c, Z + {c} is
    connected with the same margin and tie rule (the complement
    exceptional).  These moves take Z to {c}, of margin 2 rank; to a set
    holding X, of margin 0 with an exceptional complement; or to the
    lift W+ of a connected proper W, whose complement is not
    exceptional.  The lift keeps chi and omega, so m(W+) is the margin
    on W of the model on X with the same degrees and non-invertible set
    N, and the first lemma applies.

    Lemma (bonds).  Let G be a subdivision of a graph R: some edges of R
    replaced by chains of genus-0 vertices, each joined to its two
    neighbours on the path only.  The cuts of G with both sides connected
    are, once each: (i) for a cut (W, W^c) of R with both sides connected
    and one of the m + 1 edges of each chain crossing it, the side made of
    W, the chains with both ends in W, and the part of each crossing chain
    between its end in W and the chosen edge, with the chi and k of W in
    R; (ii) each interval of a chain whose edge is not a bridge of R, with
    chi 1 and k 2.  A bridge of R is the one edge crossing a cut with
    k = 1.  A graph whose exceptional vertices all meet two nodes, and are
    not all of its vertices, is such a subdivision of its series
    reduction, each maximal exceptional chain contracted to one edge; a
    modification's source is one of its target along the registered
    chains.

    Proof.  Let (Z, Z^c) be such a cut of G and W the vertices of R in Z.
    If W and V(R) - W are both nonempty, a path inside Z between vertices
    of W that enters a chain leaves it at its other end, so W, and
    likewise V(R) - W, is connected in R.  A part of Z^c inside a chain
    with both ends in W would be a component of Z^c apart from V(R) - W,
    so such chains lie in Z; on a crossing chain, Z holds a part hanging
    off its end in W, or a component of Z or Z^c would be cut off.  So
    exactly one edge of each crossing chain crosses, the parts add as
    many vertices of genus 0 as edges, and chi and k are those of W;
    conversely each such set has both sides connected.  Otherwise one
    side, say Z, misses V(R) and is connected, so it is an interval of
    one chain, chi 1 and k 2, and Z^c is connected exactly when R less
    the chain's edge is.  The two cases are disjoint, and a cut of R
    crossed by a chain of m vertices gives m + 1 distinct sides.

    So the cut table of G holds one chain row per cut of R, standing for
    all the sides of (i), and one interval record per chain of (ii),
    standing for its m (m + 1) / 2 intervals.

    Lemma (chain windows).  Fix a model on G (degrees d, non-invertible
    set N) and a polarization (rank, e).  Read each chain crossing a cut
    (W, chi, k) of R from its end in W as c_1..c_m, with f_j the edge
    from c_j to c_(j+1), c_0 and c_(m+1) being the ends.  The side taking
    c_1..c_j of every such chain has margin M = M_0 + sum P(j) and slack
    S = rank (k - |dZ & N|) - M = S_0 + sum Q(j), summed over the chains,
    where P(j) is the sum over t <= j of rank (d(c_t) + [f_(t-1) in N]) +
    e(c_t) and Q(j) = -P(j) - rank [f_j in N].  Each window is M >= a and
    S >= b with a = b = 0 (semistable), a = b = 1 (stable), or a = [p in
    Z] and b = [p not in Z] (quasistable at p), fixed on the row when p is
    off the chains.  So every side of the row passes exactly when the
    least M and the least S pass: M_0 plus the sum of each chain's least
    P, and S_0 plus the sum of its least Q.  Read from its other end, a
    chain has P'(j) = Q(m - j) - Q(m) and Q'(j) - Q'(0) = P(m - j) - P(m),
    so one reading serves both ends.

    Proof.  Adding c_1..c_j to a side adds j vertices of genus 0 and the
    j edges f_0..f_(j-1), so chi is unchanged, d_Z and e_Z grow by the
    terms of P(j), and the one crossing edge of the chain moves from f_0
    to f_j; M_0 and S_0 do not depend on the parts.  Margins are
    integers, so M > 0 is M >= 1 and M < rank (k - |dZ & N|) is S >= 1,
    which gives a and b in each mode.  With a and b fixed, the parts range
    independently, so the least M is the sum of the per-chain least P, and
    likewise for S: every side passes exactly when these two do, though
    they may be reached at different sides.  The other reading takes
    c_m..c_(m-j+1) with the edges f_m..f_(m-j+1), so P'(j) = P(m) - P(m -
    j) + rank ([f_m in N] - [f_(m-j) in N]) = Q(m - j) - Q(m), and Q'(j) =
    -P'(j) - rank [f_(m-j) in N] = P(m - j) + Q(m).

    Lemma (intervals).  With a chain of (ii) read as in the chain-window
    lemma and P and Q as there, the interval c_(s+1)..c_j, 0 <= s < j <= m,
    has margin M = rank + P(j) + Q(s) and slack S = rank + Q(j) + P(s).
    So with a and b fixed, as they are when p is off the chains, every
    interval passes exactly when the least M and the least S over s < j
    pass.  The least of A(j) + B(s) over s < j is one pass over j,
    keeping the least B(s) met before it.

    Proof.  An interval has chi 1 and k 2 (the bond lemma), holds the
    nodes among f_(s+1)..f_(j-1), and is crossed by f_s and f_j.  So M =
    rank (1 + sum d(c_t) + #(N among f_(s+1)..f_(j-1))) + sum e(c_t), over
    s < t <= j, which is rank + P(j) - P(s) - rank [f_s in N] = rank + P(j)
    + Q(s); and M + S = rank (2 - [f_s in N] - [f_j in N]) gives S.  An
    interval holds no vertex off its chain, and s and j range
    independently but for s < j.

    Neither lemma asks the polarization to be compatible with d.

    Remark (quasistable as a perturbation).  Quasistability at p is
    semistability under the polarization perturbed at p (Esteves 2001):
    with (2 rank, 2e - 1_p), the window a = 0, b = 1 on every row and
    interval decides quasistability at p, wherever p is.  So at p on a
    chain, a and b are fixed again and the two lemmas apply.

    Proof.  Under (2 rank, 2e - 1_p) the margin of Z is 2 rank (d_Z +
    chi_Z) + 2 e_Z - [p in Z] = 2 m(Z) - [p in Z] and its upper end is 2
    rank (k - |dZ & N|) = 2 hi.  For integers m and hi and x = [p in Z],
    0 <= 2m - x < 2 hi reads 0 <= m < hi when x = 0 and 1/2 <= m < hi +
    1/2, that is 0 < m <= hi, when x = 1: exactly the tie rules of (c) in
    the first lemma.  The perturbed polarization is not compatible with d,
    so (a) becomes m'(Z) + m'(Z^c) = 2 hi - 1; the window 0 <= m' < 2 hi
    on Z is then the same window on Z^c, so one side per cut still serves.
    The identity needs integer margins, and a balanced scan's margins are
    Fractions: at m = 1/4 with p in Z the tie rules pass and 2m - 1 < 0,
    so ``_stability_test``, which the reports' verdicts read, keeps them.
"""

from __future__ import annotations

from collections.abc import Callable, Collection, Iterable, Iterator, Mapping, Sequence
from copy import copy
from dataclasses import dataclass
from fractions import Fraction
from itertools import product, starmap, tee
from math import inf
from operator import itemgetter

from . import graphs
from .graphs import (DualGraph, _json_int, _members, _per_graph, _subcurve_masks, classify,
                     connected_subcurves, exceptional_vertices)
from .modifications import (Modification, _series_reduction, pullback_multidegree,
                            small_modification)
from .sheaves import Multidegree, SheafModel


def chi_twisted(deg_z: int, chi_oz: int, deg_z_e: int, rank: int) -> int:
    """Euler characteristic of a restriction twisted by a polarizing sheaf."""
    return rank * (deg_z + chi_oz) + deg_z_e


@dataclass(frozen=True)
class Polarization:
    """A locally free polarizing sheaf, recorded by rank and multidegree."""

    rank: int
    e: Multidegree

    def __post_init__(self) -> None:
        if _json_int(self.rank, "polarization rank") < 1:
            raise ValueError("polarization rank must be at least 1")

    @property
    def graph(self) -> DualGraph:
        return self.e.graph

    def compatible_with_degree(self, d: int) -> bool:
        """Total twisted Euler characteristic vanishes at this degree."""
        g = self.graph.genus
        return self.rank * (d + 1 - g) + self.e.total == 0

    def pullback(self, mod: Modification) -> "Polarization":
        return Polarization(self.rank, pullback_multidegree(mod, self.e))

    def to_json_dict(self) -> dict:
        return {"rank": self.rank, "e": self.e.to_json_dict()}

    @classmethod
    def from_json_dict(cls, graph: DualGraph, data: Mapping) -> "Polarization":
        if not isinstance(data, Mapping):
            raise ValueError("polarization data must be a JSON object")
        try:  # the constructor refuses a non-int rank
            return cls(data["rank"], Multidegree.from_json_dict(graph, data["e"]))
        except KeyError as exc:
            raise ValueError(f"polarization data missing key {exc}") from exc


def canonical_polarization(graph: DualGraph, d: int) -> Polarization:
    """The degree-d polarization built from the dualizing sheaf.

    Rank 2g - 2 with multidegree (g - 1 - d) times the dualizing one; it
    is compatible with degree d for every graph of genus at least 2.
    """
    rank, e = _canonical(graph, _json_int(d, "degree"))  # e in vertex order, int values
    return Polarization(rank, Multidegree._derived(graph, e, sum(e.values())))


def _canonical(graph: DualGraph, d: int) -> tuple[int, dict[str, int]]:
    """The canonical polarization at degree d as (rank, e values): rank 2g - 2 and
    e = (g - 1 - d) omega.  The one place the canonical rank is computed."""
    if graph.genus < 2:
        raise ValueError("canonical polarization requires genus at least 2")
    k = graph.genus - 1 - d
    return 2 * graph.genus - 2, {v: k * graph.omega_degree(v) for v in graph.vertex_ids}


# -- subcurve scans ---------------------------------------------------------


@_per_graph
def _subcurve_table(graph: DualGraph) -> tuple[tuple[frozenset[str], int, int], ...]:
    """(members, chi, k = |dZ|) per connected proper subcurve, in ``connected_subcurves`` order.

    Both read the graph's one enumeration of its subcurves, which also
    gives each chi and k.
    """
    full = (1 << len(graph.vertex_ids)) - 1
    counts = [(chi, k) for mask, (chi, k, _) in _subcurve_masks(graph).items() if mask != full]
    return tuple((z, *chi_k) for z, chi_k in zip(connected_subcurves(graph, proper=True), counts))


@dataclass(frozen=True)
class _CutTable:
    """The cuts of a graph with both sides connected, one side each (the bond lemma).

    ``chains`` holds each chain the graph subdivides, read from the first
    end of its edge, as (c_1..c_m, f_0..f_m): its vertices, and f_t the
    edge from c_t to c_(t+1), c_0 and c_(m+1) being the ends.  ``rows``
    holds one row (W+, chi, k, arms) per cut (W, chi, k) of the graph the
    chains are read off: W+ is W with the chains having both ends in W,
    and ``arms`` names each chain i crossing it by 2i when read from its
    first end, in W, and by 2i + 1 when read from its other end.
    ``intervals`` holds each chain whose edge is not a bridge, one record
    for all its intervals.  A graph read as it is has no chains, no
    interval records, and rows (Z, chi, k, ()).
    """

    chains: tuple[tuple[tuple[str, ...], tuple[str, ...]], ...]
    rows: tuple[tuple[frozenset[str], int, int, tuple[int, ...]], ...]
    intervals: tuple[int, ...]


@_per_graph
def _cut_table(graph: DualGraph) -> _CutTable:
    """The graph's one cut table, a ``_CutTable``.

    One side per cut is kept; every window predicate is symmetric under
    Z <-> Z^c, by (a) of the first lemma.  A graph with exceptional chains,
    unless its class is "none" or it is one exceptional cycle, reads its
    cuts off its series reduction (the bond lemma of the module), see
    ``_series_cuts``, and builds no subcurve table.  Every other graph is
    read as it is: from its enumeration of subcurves, it keeps the side
    with fewer vertices, or on a tie the side holding the first vertex;
    only the kept sides become sets.
    """
    exceptional = exceptional_vertices(graph)
    if exceptional and classify(graph) != "none" and len(exceptional) < len(graph.vertex_ids):
        return _series_cuts(graph, *_series_reduction(graph))
    masks = _subcurve_masks(graph)
    ids = graph.vertex_ids
    n, full = len(ids), (1 << len(ids)) - 1
    rows = []
    for mask, (chi, k, _) in masks.items():
        twice = 2 * mask.bit_count()
        if (twice < n or twice == n and mask & 1) and full ^ mask in masks:
            rows.append((_members(ids, mask), chi, k, ()))
    return _CutTable((), tuple(rows), ())


def _series_cuts(
    graph: DualGraph, base: DualGraph, registry: Iterable[tuple[str, tuple[str, ...]]],
) -> _CutTable:
    """The cut table of ``graph``, the subdivision of ``base`` along the chains of ``registry``.

    Its rows are those of the cut table of ``base`` with the chains'
    vertices and arms added; each chain reads from the first end of its
    edge, and its edges are read off ``graph``.  A chain whose edge crosses
    a cut with k = 1 is a bridge.  A ``base`` whose own table has chains
    leaves ``graph`` its own table.  The table holds one record per row and
    per interval record: more than ``graphs._MAX_SUBCURVES`` raise
    ValueError.
    """
    if _cut_table(base).chains:
        return _cut_table(graph)
    ends, incidence = base.edge_ends, graph.incidence
    chains, sides = [], []
    for e, c in registry:
        a, b = ends[e]
        (f, other), (g, _) = incidence[c[0]]
        edges = [f if other == a else g]  # both, on a one-vertex chain of a loop
        for v in c:
            (f, _), (g, _) = incidence[v]
            edges.append(g if f == edges[-1] else f)
        chains.append((c, tuple(edges)))
        sides.append((a, b, c))
    bridges = set()
    rows: list[tuple] = []
    for w, chi, k, _ in _cut_table(base).rows:
        inside, arms = [], []
        for i, (a, b, c) in enumerate(sides):
            if (a in w) == (b in w):
                if a in w:
                    inside.extend(c)
                continue
            arms.append(2 * i if a in w else 2 * i + 1)
            if k == 1:
                bridges.add(i)
        rows.append((w.union(inside) if inside else w, chi, k, tuple(arms)))
    intervals = tuple(i for i in range(len(chains)) if i not in bridges)
    count = len(rows) + len(intervals)
    if count > graphs._MAX_SUBCURVES:
        raise ValueError(f"graph has {count} cut rows, more than "
                         f"{graphs._MAX_SUBCURVES}; too many to enumerate")
    return _CutTable(tuple(chains), tuple(rows), intervals)


def _least_pair(later: list[int], earlier: list[int]) -> int:
    """The least later[j] + earlier[s] over s < j; needs two entries or more."""
    least, best = later[1] + earlier[0], earlier[0]
    for j in range(2, len(later)):
        if earlier[j - 1] < best:
            best = earlier[j - 1]
        if later[j] + best < least:
            least = later[j] + best
    return least


def _cut_windows(
    cuts: _CutTable, ends: Mapping[str, tuple[str, str]],
    values: Mapping[str, int], noninvertible: Collection[str], rank: int,
    e_values: Mapping[str, int],
) -> Iterator[tuple]:
    """Window rows (z, m, hi) that decide every cut of ``cuts`` under one model, lazily.

    One row (W+, least M, least M + least S) per row of the table, from the
    kernel margin of W+ and each arm's least prefix sums (the chain-window
    lemma of the module), and one row ((), least M, least M + least S) per
    interval record, from its least interval sums (the interval lemma).  A
    row with no arms is the kernel's window as it is.  A window reads m >= a
    and hi - m >= b apart, so the rows decide every mode at any base vertex
    off the chains, and under the polarization perturbed at a base vertex
    on a chain, quasistability there (the perturbation remark).  No side is
    built.
    """
    sums, lows = [], []  # per chain P and Q; per arm its least P and least Q - Q(0)
    for vertices, edges in cuts.chains:
        margin, prefix = 0, [0]
        crossing = [rank if f in noninvertible else 0 for f in edges]
        for c, f in zip(vertices, crossing):
            margin += rank * values[c] + e_values[c] + f
            prefix.append(margin)
        slack = [-m - f for m, f in zip(prefix, crossing)]
        sums.append((prefix, slack))
        # read from the other end, P(j) is Q(m - j) - Q(m) and Q(j) - Q(0) is P(m - j) - P(m)
        low_p, low_q = min(prefix), min(slack)
        lows += [(low_p, low_q - slack[0]), (low_q - slack[-1], low_p - prefix[-1])]
    kernel = _margins(cuts.rows, ends, values, noninvertible, rank, e_values)
    for (_, _, _, arms), (w, m, hi) in zip(cuts.rows, kernel):
        for a in arms:  # each arm adds its least M to m and least M + least S to hi
            low_m, low_s = lows[a]
            m += low_m
            hi += low_m + low_s
        yield w, m, hi
    for i in cuts.intervals:  # the intervals c_(s+1)..c_j, s < j
        prefix, slack = sums[i]
        low_m, low_s = _least_pair(prefix, slack), _least_pair(slack, prefix)
        yield (), rank + low_m, 2 * rank + low_m + low_s


@dataclass(frozen=True)
class SubcurveScan:
    """Margins of a per-subcurve inequality on ``graph``, exact, one entry per subcurve.

    The graph is the one the margins were read on, so that a quasistable
    verdict checks its base vertex as the check_* verdicts do.
    """

    graph: DualGraph
    entries: tuple[tuple[frozenset[str], int | Fraction], ...]

    @property
    def holds(self) -> bool:
        return self.verdict("semistable")

    @property
    def equality_sites(self) -> tuple[frozenset[str], ...]:
        return tuple(members for members, margin in self.entries if margin == 0)

    @property
    def failures(self) -> tuple[tuple[frozenset[str], int | Fraction], ...]:
        return tuple((m, v) for m, v in self.entries if v < 0)

    def verdict(self, mode: str, base_vertex: str | None = None) -> bool:
        """semistable: all margins >= 0.  stable: all > 0.
        quasistable: equality allowed only away from the base vertex.
        Each margin is a window with no upper end."""
        ok = _stability_test(mode, base_vertex, self.graph)
        return all(ok(z, m, inf) for z, m in self.entries)


def _stability_test(mode: str, base_vertex: str | None, graph: DualGraph) -> Callable[..., bool]:
    """The window predicate of a stability mode on rows (z, m, hi); the mode is checked here.

    The window is the one of (c) in the first lemma.  A quasistable base
    vertex must be a vertex of the graph.
    """
    if mode == "semistable":
        return lambda z, m, hi: 0 <= m <= hi
    if mode == "stable":
        return lambda z, m, hi: 0 < m < hi
    if mode == "quasistable":
        if base_vertex is None:
            raise ValueError("quasistable verdict needs a base vertex")
        if base_vertex not in graph.vertex_ids:
            raise ValueError(f"base vertex {base_vertex!r} is not a vertex of the graph")
        p = base_vertex
        return lambda z, m, hi: ((m > 0 or m == 0 and p not in z)
                                 and (m < hi or m == hi and p in z))
    raise ValueError(f"unknown stability mode {mode!r}")


def _margins(
    rows: Sequence[tuple], ends: Mapping[str, tuple[str, str]], values: Mapping[str, int],
    noninvertible: Collection[str], rank: int, e_values: Mapping[str, int],
) -> Iterator[tuple]:
    """The scan kernel: chi_twisted(d_Z, chi_Z, e_Z, rank), lazily, row by row.

    Each row (members, chi, k, ...) gives (members, margin, rank (k - |dZ &
    N|)), the upper end of the row's window, counted in the loop over N that
    counts the nodes inside Z.  ``values`` and ``e_values`` should be plain
    dicts: a read-only view costs about a fifth more per scan, so the scan
    entry points copy views once per scan.
    """
    nodes = [ends[e] for e in noninvertible]
    for row in rows:
        z = row[0]
        inside = crossing = 0
        for a, b in nodes:
            if a in z:
                if b in z:
                    inside += 1
                else:
                    crossing += 1
            elif b in z:
                crossing += 1
        m = chi_twisted(sum(map(values.__getitem__, z)) + inside, row[1],
                        sum(map(e_values.__getitem__, z)), rank)
        yield z, m, rank * (row[2] - crossing)


def _polarized(pol: Polarization, graph: DualGraph, d: int) -> tuple[int, dict[str, int]]:
    """The rank and e values of ``pol``, which must live on ``graph`` and suit degree d."""
    if pol.graph != graph:
        raise ValueError("polarization lives on a different graph")
    if not pol.compatible_with_degree(d):
        raise ValueError(f"polarization incompatible with degree {d}")
    return pol.rank, dict(pol.e.as_dict)


def _report(
    graph: DualGraph, values: Mapping[str, int], noninvertible: Collection[str], rank: int,
    e_values: dict[str, int],
) -> Iterator[tuple[frozenset[str], int]]:
    """The report path: (Z, m(Z)) per connected proper subcurve, from the subcurve table."""
    margins = _margins(_subcurve_table(graph), graph.edge_ends, dict(values), noninvertible,
                       rank, e_values)
    return ((z, m) for z, m, _ in margins)


def _verdicts(
    graph: DualGraph, values: Mapping[str, int], noninvertible: Collection[str], rank: int,
    e_values: dict[str, int], cuts: _CutTable | None = None,
) -> Callable[..., bool]:
    """The verdict path: holds(mode, base_vertex=None) of one model on its cut windows.

    The windows are those of ``cuts``, the graph's own cut table by
    default, under the polarization (rank, e_values).  The windows are
    decided lazily and at most once, and serve every mode at every base
    vertex, except quasistable at a base vertex on a chain of ``cuts``:
    that verdict reads the windows afresh under the polarization perturbed
    there, (2 rank, 2 e_values - 1 at the base vertex), as 0 <= m < hi (the
    perturbation remark).  Each verdict stops at its first failing window.
    """
    cuts = _cut_table(graph) if cuts is None else cuts
    ends, values = graph.edge_ends, dict(values)
    (shared,) = tee(_cut_windows(cuts, ends, values, noninvertible, rank, e_values), 1)
    on_chains = {v for vertices, _ in cuts.chains for v in vertices}

    def holds(mode: str, base_vertex: str | None = None) -> bool:
        ok = _stability_test(mode, base_vertex, graph)
        if mode == "quasistable" and base_vertex in on_chains:  # the perturbation remark
            twice = {v: 2 * x for v, x in e_values.items()}
            twice[base_vertex] -= 1
            rows = _cut_windows(cuts, ends, values, noninvertible, 2 * rank, twice)
            return all(0 <= m < hi for _, m, hi in rows)
        return all(starmap(ok, copy(shared)))

    return holds


def sheaf_stability_report(model: SheafModel, pol: Polarization) -> SubcurveScan:
    """Twisted Euler characteristic of the model on every connected proper subcurve."""
    graph = model.graph
    return SubcurveScan(graph, tuple(_report(graph, model.multidegree.as_dict, model.noninvertible,
                                             *_polarized(pol, graph, model.degree))))


def bundle_stability_report(deg: Multidegree, pol: Polarization) -> SubcurveScan:
    """Same scan for an honest line bundle given by its multidegree: the sheaf model with
    no non-invertible node."""
    return sheaf_stability_report(SheafModel._derived(deg.graph, frozenset(), deg), pol)


def check_sheaf_stability(
    model: SheafModel, pol: Polarization, mode: str = "semistable",
    base_vertex: str | None = None,
) -> bool:
    """Verdict of sheaf_stability_report, on the cut windows, stopping at the first failure."""
    graph = model.graph
    _stability_test(mode, base_vertex, graph)  # refused before a bad polarization
    return _verdicts(graph, model.multidegree.as_dict, model.noninvertible,
                     *_polarized(pol, graph, model.degree))(mode, base_vertex)


def check_bundle_stability(
    deg: Multidegree, pol: Polarization, mode: str = "semistable",
    base_vertex: str | None = None,
) -> bool:
    """Verdict of bundle_stability_report: that of the sheaf model with no non-invertible node."""
    return check_sheaf_stability(SheafModel._derived(deg.graph, frozenset(), deg), pol, mode,
                                 base_vertex)


# -- balanced multidegrees --------------------------------------------------


@dataclass(frozen=True)
class BalancedScan:
    """Balanced check: degree on exceptional vertices plus the lower bound."""

    graph: DualGraph
    exceptional_violations: tuple[str, ...]
    scan: SubcurveScan

    def verdict(self, mode: str = "balanced") -> bool:
        """Balanced: the scan holds.  Stably balanced: every margin is positive, or 0 on a
        subcurve whose complement is exceptional.  The mode is checked by ``_sheaf_mode``."""
        if _sheaf_mode(mode) == "semistable":
            return not self.exceptional_violations and self.scan.holds
        plain = frozenset(self.graph.vertex_ids) - frozenset(exceptional_vertices(self.graph))
        return not self.exceptional_violations and all(
            m > 0 or m == 0 and plain <= z for z, m in self.scan.entries)


def _sheaf_mode(mode: str) -> str:
    """The stability mode of the sheaf models that match a balanced mode; the one check
    of a balanced mode.  Balanced bundles match semistable models, stably balanced
    ones stable models."""
    if mode not in ("balanced", "stably_balanced"):
        raise ValueError(f"unknown balanced mode {mode!r}")
    return "semistable" if mode == "balanced" else "stable"


def balanced_report(deg: Multidegree) -> BalancedScan:
    """Scan a multidegree for the balanced conditions.

    The graph must be quasistable of genus at least 2.  Every
    exceptional vertex must carry degree exactly 1, and every connected
    proper subcurve must clear the canonical degree lower bound.
    """
    graph = deg.graph
    if classify(graph) not in ("stable", "quasistable"):
        raise ValueError("balanced multidegrees live on quasistable graphs")
    if graph.genus < 2:
        raise ValueError("balanced check requires genus at least 2")
    violations = tuple(v for v in exceptional_vertices(graph) if deg[v] != 1)
    # degree-bound margins: the canonical chi margins divided by the canonical rank
    scale, e_values = _canonical(graph, deg.total)
    margins = _report(graph, deg.as_dict, (), scale, e_values)
    scan = SubcurveScan(graph, tuple((z, Fraction(m, scale)) for z, m in margins))
    return BalancedScan(graph, violations, scan)


def check_balanced(deg: Multidegree, mode: str = "balanced") -> bool:
    return balanced_report(deg).verdict(mode)


# -- enumeration ------------------------------------------------------------


# Refuse graphs with more edge subsets than this rather than exhaust memory.
_MAX_EDGE_SUBSETS = 1 << 20


def _bounded_vectors(lows: list[int], highs: list[int], total: int) -> list[tuple[int, ...]]:
    """All integer vectors within the box summing to total, ascending lex.

    One ``product`` walks every coordinate but the last, which the total
    fixes, so the order is the product's; a vector whose last entry
    leaves its range is skipped.
    """
    if not lows:
        return [()] if total == 0 else []
    low, high = lows[-1], highs[-1]
    return [head + (last,)
            for head in product(*map(range, lows[:-1], [hi + 1 for hi in highs[:-1]]))
            if low <= (last := total - sum(head)) <= high]


def _sum_window(ok: Callable, z: Collection[str], m0: int, hi: int, rank: int) -> tuple[int, int]:
    """The least and the greatest integer s with ok(z, m0 + rank s, hi), the first
    above the second when there is none: the sum-bound remark of the module, which
    reads ``ok`` twice."""
    return -((m0 - (not ok(z, 0, 1))) // rank), (hi - m0 - (not ok(z, 1, 1))) // rank


def _vertex_windows(graph: DualGraph, ok: Callable, rank: int, e_values: dict) -> list:
    """Bounds (low, high) on each d_v, over graph.vertex_ids, that pass ``ok`` on {v}.

    The window of {v} is the kernel's on its singleton row at the zero
    vector, (m0, hi) under (rank, e_values), with chi and k from the
    graph's enumeration of its subcurves, read as bounds on d_v by
    ``_sum_window``.  A lone vertex is the whole curve, not a row: no end
    is strict, as in the semistable window.
    """
    vids = graph.vertex_ids
    masks = _subcurve_masks(graph)
    singles = [(frozenset((v,)), *masks[1 << i][:2]) for i, v in enumerate(vids)]
    kernel = _margins(singles, graph.edge_ends, dict.fromkeys(vids, 0), (), rank, e_values)
    if len(vids) == 1:
        ok = _stability_test("semistable", None, graph)
    return [_sum_window(ok, z, m0, hi, rank) for z, m0, hi in kernel]


def _boxes(graph: DualGraph, d: int, ok: Callable, rank: int, e_values: dict) -> Iterator:
    """(N, candidate vectors over graph.vertex_ids) per edge subset N, if any.

    The vectors sum to d - |N| and pass the window predicate ``ok`` on each
    {v} under N and the polarization (rank, e_values): the kernel's
    windows of ``_vertex_windows``, both ends dropping by the loops of N at
    v and the upper one also by its other edges in N, so no scan reads a
    row {v}.  By (a) and (b) of the first lemma no model is lost where the
    complement of {v} is split.

    The subsets come in ascending order of their sorted edge ids, walked
    depth first: N, then N with each later edge added.  A subset whose box
    is empty is not extended, by the monotone-box remark of the module.
    More than ``_MAX_EDGE_SUBSETS`` edge subsets are refused before any is
    walked.
    """
    edges = graph.edges
    if 1 << len(edges) > _MAX_EDGE_SUBSETS:
        raise ValueError(f"graph has {len(edges)} edges, more than {_MAX_EDGE_SUBSETS} edge "
                         "subsets; too many to enumerate")
    windows = _vertex_windows(graph, ok, rank, e_values)
    place = {v: i for i, v in enumerate(graph.vertex_ids)}
    ends = [(e, place[a], place[b]) for e, (a, b) in edges]
    stack = [((), [lo for lo, _ in windows], [hi for _, hi in windows], 0)]
    while stack:
        subset, lows, highs, start = stack.pop()
        budget, low_sum = d - len(subset), sum(lows)
        if not (low_sum <= budget <= sum(highs) and all(map(int.__le__, lows, highs))):
            continue
        spare = budget - low_sum
        yield subset, _bounded_vectors(lows, [min(hi, lo + spare) for lo, hi in zip(lows, highs)],
                                       budget)
        for j in range(len(ends) - 1, start - 1, -1):  # the last pushed is popped first
            e, a, b = ends[j]
            grown_lows, grown_highs = lows, highs.copy()  # a list is never changed once stacked
            grown_highs[a] -= 1
            if a == b:
                grown_lows = lows.copy()
                grown_lows[a] -= 1
            else:
                grown_highs[b] -= 1
            stack.append((subset + (e,), grown_lows, grown_highs, j + 1))


def _check_enumerable(graph: DualGraph) -> None:
    if classify(graph) != "stable":
        raise ValueError("enumeration requires a stable graph")
    if graph.genus < 2:
        raise ValueError("enumeration requires genus at least 2")


def _lifted_rows(mod: Modification, rows: Iterable[tuple]) -> list[tuple]:
    """Cut rows (W, chi, k, places) of a small modification's target, lifted to its
    source: W plus the chain vertex of each modified edge inside it, chi, k less
    the modified edges crossing W (the second lemma of the module), and places.
    Each row reads each chain once."""
    ends = mod.target.edge_ends
    chains = [(ends[e], c) for e, (c,) in mod.chain_registry]
    lifted = []
    for w, chi, k, places in rows:
        inside = []
        for (a, b), c in chains:
            if a in w:
                if b in w:
                    inside.append(c)
                else:
                    k -= 1
            elif b in w:
                k -= 1
        lifted.append((w.union(inside) if inside else w, chi, k, places))
    return lifted


def _compiled_windows(
    rows: Sequence[tuple], kernel: Iterable[tuple], rank: int, ok: Callable,
) -> Callable[[tuple[int, ...]], bool]:
    """A predicate on box vectors from one stratum's kernel run at the zero vector.

    ``kernel`` yields the window (Z, m0, hi) of each row of ``rows`` with
    the box vertices at degree 0, and each row ends with its box vertices'
    positions in a vector, two or more.  The margins are affine in the
    degrees (the affine-margin remark of the module), so a vector's margin
    on Z is m0 + rank sum(vec at those positions), and hi does not move:
    each window compiles to bounds on that sum (``_sum_window``), read
    through an ``itemgetter`` of the positions, and no predicate runs per
    vector.  Rows are compiled as the vectors read them: the kernel runs
    one row further only when every compiled row has passed.
    """
    compiled: list[tuple] = []
    pending = zip(rows, kernel)

    def accepts(vec: tuple[int, ...]) -> bool:
        for at, low, high in compiled:
            if not low <= sum(at(vec)) <= high:
                return False
        for (_, _, _, places), (z, m0, hi) in pending:
            at = itemgetter(*places)
            low, high = _sum_window(ok, z, m0, hi, rank)
            compiled.append((at, low, high))
            if not low <= sum(at(vec)) <= high:
                return False
        return True

    return accepts


def _model_side(graph: DualGraph, ok: Callable, rows: list, rank: int, e_values: dict) -> Callable:
    """The model side of ``_strata``: per stratum N, a predicate on box vectors.

    A vector of degrees over graph.vertex_ids passes when every window of
    ``rows`` under N and the polarization (rank, e_values) holds, read on
    integer chi margins up to the first failing window; the box decides the
    rows {v}.  The windows are compiled once per stratum from the kernel at
    the zero vector.
    """
    ends, zeros = graph.edge_ends, dict.fromkeys(graph.vertex_ids, 0)

    def stratum(subset: tuple[str, ...]) -> Callable[[tuple[int, ...]], bool]:
        kernel = _margins(rows, ends, zeros, subset, rank, e_values)
        return _compiled_windows(rows, kernel, rank, ok)

    return stratum


def _bundle_side(graph: DualGraph, ok: Callable, rows: list, rank: int, e_values: dict) -> Callable:
    """The bundle side of ``_strata``: per stratum N, its modification and a lift.

    The modification is small_modification(graph, N); its source is not
    classified, as it is quasistable: the graph is stable and each chain
    vertex has genus 0 and two edges into it.  The lift takes a box vector
    and returns the bundle's ``Multidegree`` on the source, read by the
    modification's one lift rule (1 on every chain vertex, the vector's
    degree elsewhere), when every window of the rows lifted from ``rows``
    (``_lifted_rows``) holds, else None.  No source table is built.
    The polarization is (rank, e_values) pulled back to the source: the
    same rank and values, 0 on the chain vertices (the lifted-row lemma).
    The windows are compiled once per stratum from the kernel at the vector
    that is 0 on the box vertices and 1 on the chain vertices.
    """
    zeros = dict.fromkeys(graph.vertex_ids, 0)

    def stratum(subset: tuple[str, ...]) -> tuple[Modification, Callable]:
        mod = small_modification(graph, subset)
        source, chain = mod.source, mod.chain_vertices  # the exceptional vertices
        lifted = _lifted_rows(mod, rows)
        kernel = _margins(lifted, source.edge_ends, zeros | dict.fromkeys(chain, 1), (), rank,
                          e_values | dict.fromkeys(chain, 0))
        accepts = _compiled_windows(lifted, kernel, rank, ok)
        ids, gather, ones = source.vertex_ids, mod._lift, len(chain)

        def lift(vec: tuple[int, ...]) -> Multidegree | None:
            if accepts(vec):
                return Multidegree._derived(source, dict(zip(ids, gather(vec + (1,)))),
                                            sum(vec) + ones)
            return None

        return mod, lift

    return stratum


def _strata(
    graph: DualGraph, d: int, ok: Callable, models: bool = True, bundles: bool = True,
) -> Iterator[tuple[tuple[str, ...], Modification | None, list, list]]:
    """One walk of the edge subsets for both sides of the correspondence.

    Per edge subset N with a nonempty box, in ``_boxes`` order, yields
    (N, mod, model vectors, bundle multidegrees).  Each vector of the box,
    in its order, goes to the model side (``_model_side``) when ``models``
    is set, and to the bundle side (``_bundle_side``, on its modification
    mod) when ``bundles`` is set; without it mod is None.  Both sides read
    the rows of the graph's cut table that the box leaves to the windows,
    those of two or more vertices, each with its vertices' positions in a
    box vector in place of its arms (a stable graph has no chains), built
    here once.  The two sides share nothing else but the box, and a
    stratum's lists are the caller's to drop.  The graph must be stable of
    genus at least 2.
    """
    _check_enumerable(graph)
    rank, e_values = _canonical(graph, d)
    rows = [(w, chi, k, tuple(map(graph.vertex_ids.index, w)))
            for w, chi, k, _ in _cut_table(graph).rows if len(w) > 1]
    model_side = _model_side(graph, ok, rows, rank, e_values) if models else None
    bundle_side = _bundle_side(graph, ok, rows, rank, e_values) if bundles else None
    for subset, vectors in _boxes(graph, d, ok, rank, e_values):
        kept = list(filter(model_side(subset), vectors)) if model_side else []
        mod, lift = bundle_side(subset) if bundle_side else (None, None)
        lifted = [deg for deg in map(lift, vectors) if deg is not None] if lift else []
        yield subset, mod, kept, lifted


def _model(graph: DualGraph, subset: Iterable[str], vec: tuple[int, ...]) -> SheafModel:
    """The sheaf model with non-invertible set ``subset``, edge ids of the graph,
    and ``int`` degrees ``vec`` over graph.vertex_ids, built in canonical form."""
    deg = Multidegree._derived(graph, dict(zip(graph.vertex_ids, vec)), sum(vec))
    return SheafModel._derived(graph, frozenset(subset), deg)


def enumerate_semistable_models(
    graph: DualGraph, d: int, mode: str = "semistable", base_vertex: str | None = None,
) -> list[SheafModel]:
    """All semistable sheaf models of total degree d, canonical polarization.

    The graph must be stable of genus at least 2.  Enumeration order is
    deterministic: non-invertible sets in lexicographic order of their
    sorted edge ids, then multidegrees in lexicographic order over the
    sorted vertices.  A candidate is rejected at its first failing cut
    window, on integer chi margins; the box decides the rows {v}.  The
    degree d must be an ``int``.
    """
    _json_int(d, "degree")
    ok = _stability_test(mode, base_vertex, graph)
    return [_model(graph, subset, vec)
            for subset, _, vectors, _ in _strata(graph, d, ok, bundles=False)
            for vec in vectors]


def enumerate_balanced(
    graph: DualGraph, d: int, mode: str = "balanced",
) -> list[tuple[Modification, Multidegree]]:
    """All balanced line bundles on small modifications of a stable graph.

    Yields (modification, multidegree) pairs: every subset of edges is
    subdivided once, chain vertices carry degree 1, and the rest range over
    the sheaf enumeration's box, the windows of the lifted rows {v}.  Same
    order and early exit, on the other windows of ``_lifted_rows``; no
    source table is built, nor a modification for an empty box.  The degree
    d must be an ``int``.
    """
    _json_int(d, "degree")
    ok = _stability_test(_sheaf_mode(mode), None, graph)
    return [(mod, deg) for _, mod, _, degs in _strata(graph, d, ok, models=False)
            for deg in degs]
