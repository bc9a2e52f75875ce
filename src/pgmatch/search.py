"""Exact in-process search: homomorphism, isomorphism and subgraph-embedding
decision with witness, and minimum-cost partial-isomorphism search for
(weighted) edit distance, plus an exhaustive oracle for small graphs.

All searches are deterministic: node variables follow one static order
(descending degree, then id), and incumbents are replaced only by strictly
better ones. Decision searches try candidate values lexicographically; edit
distance tries the cheapest step first, then the candidate closest in out-
and in-degree, then by id. Iso and sub are first cut by node and edge counts,
and edit distance is bounded below by them, per label when labels must match.
Past that cut a search builds one graph-pair index (``_PairIndex``) of what
both engines read: labels, label classes, properties and edge buckets. Each
engine builds its own tables after the cuts that can end it. One depth-first
branch and bound (``_BranchAndBound``) runs every search on an explicit stack,
so no graph is too deep for it. A step deciding g1 node ``v`` visits only
``v``'s neighbours: a decision step narrows their kept domains, and the
buckets priced or checked are those between ``v`` and its decided neighbours
and (iso and edit distance) the g2 buckets between ``v``'s image and nodes
with a preimage. Edit distance carries its count bound and skips an option
the bound cuts before applying it; once a candidate joined to no image of a
decided neighbour cannot beat the incumbent, it prices only the candidates
so joined. A leaf that meets a degree-aware root bound ends it; when its
first leaf misses that bound, a probe at the bound goes on below that leaf,
and the open branch and bound follows when it finds none.

A decision search holds every set of g2 nodes as one ``int`` bitset over the
sorted g2 ids: neighbours per edge class, domains and (iso and sub) the used
images. Before branching it gives each g1 node a candidate domain: the g2
nodes that pass cheap necessary conditions (label, hard properties, the walk
core of g2 for a node in g1's, that is an endless walk in and out for a node
with one, and for iso and sub the edge ends per direction and edge label).
An empty domain decides None at once, so a cycle is refused a chain without
a search, and so are iso and sub when some n domains hold fewer than n g2
nodes (a Hall check). The search narrows the kept domains on a trail
(forward checking): ``v`` taking ``w`` ANDs ``w``'s neighbours into each
unassigned neighbour's domain and is refused when one is left no free node;
a step's candidates are its kept domain less the used images, lowest first.

Both engines price a node or edge pair with one function (``_pair_pricer``):
a label substitution plus property updates, deletions and insertions. Edit
distance takes the cost model's weights; decision searches count property
edits at unit weights, insertions only for iso, and under hard properties
allow a pair only at cost 0. Iso, sub and edit distance price the parallel
edges between two nodes (a bucket) with one assignment solver, ``_assign``;
a one-edge bucket, and for hom, not injective, each edge, is one scan for
its first cheapest partner (``_one_edge``). A witness pairs each bucket
lexicographically first among its cheapest pairings (``_bucket_pairs``: a
decision bucket's greedy pairing when it is cheapest, else one ranked solve):
a decision step pairs each bucket as it closes it, and the witness is the
pairs the search kept; edit distance pairs its incumbent's after its search.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass, field

from .editing import (
    MODE_LABEL_HARD,
    MODE_RELABEL,
    CostModel,
    script_from_matching,
)
from .graphs import Matching, PropertyGraph, validate

PROPS_HARD = "hard"
PROPS_SOFT = "soft"
_NO_PROPS: dict[str, str] = {}  # the properties of any owner that has none


class SearchTimeout(Exception):
    """The time budget ran out before the search finished."""


class SizeGuardError(ValueError):
    """The exhaustive oracle refuses graphs beyond its size guard."""


class _ProbeSpent(Exception):
    """An edit-distance probe priced more candidates than it may."""


# The candidates an edit-distance probe may price from the dive's leaf on,
# per pair of g1 and g2 nodes.
_PROBE_PRICED = 8


@dataclass(frozen=True)
class SearchOptions:
    """The settings every native search takes; none of them changes the node
    order. ``budget`` is wall-clock seconds.

    ``mode`` controls labels: ``label-hard`` requires equal labels on matched
    elements, ``relabel`` lets them differ (charged for edit distance, free
    for decision searches). ``properties`` applies to the decision searches:
    ``hard`` enforces the property clauses, ``soft`` drops them and returns a
    witness minimizing the number of mismatched properties. Edit-distance
    search always prices properties through the cost model.
    """

    mode: str = MODE_LABEL_HARD
    properties: str = PROPS_HARD
    cost_model: CostModel = field(default_factory=CostModel.unit)
    budget: float = 30.0

    def __post_init__(self) -> None:
        if self.mode not in (MODE_LABEL_HARD, MODE_RELABEL):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.properties not in (PROPS_HARD, PROPS_SOFT):
            raise ValueError(f"unknown property handling {self.properties!r}")
        if not self.budget > 0:  # also refuses nan, which would never expire
            raise ValueError("budget must be positive")


@dataclass(frozen=True)
class GedResult:
    """Outcome of a minimum-edit search. ``optimal`` is False when the time
    budget expired and ``cost`` is only the best incumbent found."""

    matching: Matching
    script: list
    cost: int
    optimal: bool


def _props_by_owner(g: PropertyGraph) -> dict[str, dict[str, str]]:
    """The properties per owner, only for the owners that carry any."""
    out: dict[str, dict[str, str]] = {}
    for (x, k), d in g.props.items():
        out.setdefault(x, {})[k] = d
    return out


def _edges_by_pair(g: PropertyGraph) -> dict[tuple[str, str], list[str]]:
    """The parallel edges per (src, tgt), each bucket sorted: a graph
    iterates its edges in id order."""
    out: dict[tuple[str, str], list[str]] = {}
    for e, (s, t, _) in g.edges.items():
        out.setdefault((s, t), []).append(e)
    return out


def _buckets_at(g: PropertyGraph, pairs: dict) -> dict[str, list]:
    """Per node ``v``, the buckets incident to it as ``(u, (s, t), bucket)``
    with ``u`` the other endpoint (``v`` itself for a self-loop), so each
    bucket is listed once per endpoint."""
    at: dict[str, list] = {v: [] for v in g.nodes}
    for (s, t), b in pairs.items():
        at[s].append((t, (s, t), b))
        if s != t:
            at[t].append((s, (s, t), b))
    return at


def _class_gaps(g1: PropertyGraph, g2: PropertyGraph, label_hard: bool) -> tuple:
    """Per label class (the label under ``label-hard``, None for every
    element under ``relabel``), g1's count less g2's, of nodes and of
    edges."""
    nodes: dict = {}
    edges: dict = {}
    for sign, g in ((1, g1), (-1, g2)):
        for lab in g.nodes.values():
            c = lab if label_hard else None
            nodes[c] = nodes.get(c, 0) + sign
        for _, _, lab in g.edges.values():
            c = lab if label_hard else None
            edges[c] = edges.get(c, 0) + sign
    return nodes, edges


def _forced_edges(g: PropertyGraph, cls: dict, surplus: dict) -> dict:
    """Per edge class, a lower bound on the edges of ``g`` at any choice of
    ``surplus[c]`` nodes of each node class ``c`` it names (``cls`` gives
    each node's and edge's class), which edit distance deletes (or inserts)
    with them. With d_1 <= d_2 <= ... the degrees in that edge class of the
    nodes of one class (a self-loop counts once) and s its surplus, they
    have at least the largest d_s and, as an edge has at most two ends among
    them, half the sum of d_1 + ... + d_s over every class, rounded up."""
    if not surplus:
        return {}
    count = Counter(cls[x] for x in g.nodes if cls[x] in surplus)  # nodes per class
    degrees: dict = {}  # (edge class, node class) -> node -> its edges of that class
    for e, (s, t, _) in g.edges.items():
        for x in {s, t}:
            if cls[x] in surplus:
                d = degrees.setdefault((cls[e], cls[x]), {})
                d[x] = d.get(x, 0) + 1
    top: dict = {}
    total: dict = {}
    for (ce, c), d in degrees.items():
        # the s smallest degrees, after those of the nodes with no such edge
        low = sorted(d.values())[: max(0, surplus[c] - (count[c] - len(d)))]
        if low:
            top[ce] = max(top.get(ce, 0), low[-1])
            total[ce] = total.get(ce, 0) + sum(low)
    return {ce: max(top[ce], (total[ce] + 1) // 2) for ce in top}


class _PairIndex:
    """The tables both engines read for one (g1, g2) pair, built once per call.

    - ``labels1`` / ``labels2``: the label per node and edge id, and
      ``cls1`` / ``cls2`` its label class: the label under ``label-hard``,
      None under ``relabel``, so that elements of one class may be paired.
    - ``props1`` / ``props2``: properties per owner (node or edge id), only
      for the owners that carry any; a reader takes ``_NO_PROPS`` for others.
    - ``pairs1`` / ``pairs2``: edge buckets, the sorted parallel edges per
      (src, tgt).
    - ``at1``: the buckets incident to each g1 node (``_buckets_at``).
    """

    def __init__(self, g1: PropertyGraph, g2: PropertyGraph, label_hard: bool):
        self.labels1, self.labels2 = (
            {**g.nodes, **{e: lab for e, (_, _, lab) in g.edges.items()}} for g in (g1, g2)
        )
        self.cls1, self.cls2 = (
            labels if label_hard else dict.fromkeys(labels)
            for labels in (self.labels1, self.labels2)
        )
        self.props1 = _props_by_owner(g1)
        self.props2 = _props_by_owner(g2)
        self.pairs1 = _edges_by_pair(g1)
        self.pairs2 = _edges_by_pair(g2)
        self.at1 = _buckets_at(g1, self.pairs1)


def _pair_pricer(ix: _PairIndex, sub: int | None, upd: int, dele: int, ins: int, hard=False):
    """The price of pairing a g1 node or edge ``x`` with a g2 element ``y``
    of the same kind, or None when the pair is not allowed: ``sub`` when
    their labels differ (None: labels must match), plus, per property key,
    ``upd`` when both carry it with different values, ``dele`` when only
    ``x`` carries it and ``ins`` when only ``y`` does. Under ``hard`` a pair
    is allowed only when its property cost is 0."""
    labels1, labels2, props1, props2 = ix.labels1, ix.labels2, ix.props1, ix.props2

    def price(x: str, y: str) -> int | None:
        if labels1[x] == labels2[y]:
            cost = 0
        elif sub is None:
            return None
        else:
            cost = sub
        p1, p2 = props1.get(x, _NO_PROPS), props2.get(y, _NO_PROPS)
        if not (p1 or p2):
            return cost
        props = 0
        for k, d in p1.items():
            if k not in p2:
                props += dele
            elif p2[k] != d:
                props += upd
        if ins:
            for k in p2:
                if k not in p1:
                    props += ins
        if hard and props:
            return None
        return cost + props

    return price


def _walk_core(g: PropertyGraph, pairs: dict) -> set[str]:
    """The nodes of ``g`` (edge buckets ``pairs``) with an endless walk both
    into and out of them: what is left after removing, again and again, the
    nodes with no edge in or no edge out. A homomorphism maps an endless walk
    onto one, so it maps this core into the other graph's."""
    succ: dict[str, set[str]] = {v: set() for v in g.nodes}
    pred: dict[str, set[str]] = {v: set() for v in g.nodes}
    for s, t in pairs:
        succ[s].add(t)
        pred[t].add(s)
    core = set(g.nodes)
    drop = [v for v in core if not succ[v] or not pred[v]]
    while drop:
        v = drop.pop()
        if v in core:  # else dropped already; a node on a self-loop never is
            core.remove(v)
            for t in succ[v]:
                pred[t].discard(v)
                if not pred[t]:
                    drop.append(t)
            for s in pred[v]:
                succ[s].discard(v)
                if not succ[s]:
                    drop.append(s)
    return core


def _degree_signatures(g: PropertyGraph, cls: dict) -> dict[str, tuple]:
    """Per node, the sorted ``(direction, edge class)`` of its edge ends,
    one per edge: direction 0 out of it, 1 into it, 2 a self-loop, so that
    parallel edges count one each and self-loops apart, as the edge buckets
    are matched. ``cls`` gives each edge's label class."""
    ends: dict[str, list] = {v: [] for v in g.nodes}
    for e, (s, t, _) in g.edges.items():
        key = cls[e]
        if s == t:
            ends[s].append((2, key))
        else:
            ends[s].append((0, key))
            ends[t].append((1, key))
    return {v: tuple(sorted(e)) for v, e in ends.items()}


def _numbered(sig: tuple) -> list[tuple]:
    """``(end, n)`` for the n-th equal end of a sorted degree signature."""
    return [(end, i - sig.index(end)) for i, end in enumerate(sig)]


def _in_out_degrees(g: PropertyGraph) -> dict[str, tuple[int, int]]:
    """Per node, the edges out of it and into it; a self-loop is one of
    each, and parallel edges count one each."""
    out = {v: 0 for v in g.nodes}
    into = {v: 0 for v in g.nodes}
    for s, t, _ in g.edges.values():
        out[s] += 1
        into[t] += 1
    return {v: (out[v], into[v]) for v in g.nodes}


def _ordered_nodes(g: PropertyGraph, degrees: dict) -> list[str]:
    """By descending out- plus in-degree, then id (``g.nodes``' order, kept by a stable sort)."""
    return sorted(g.nodes, key=lambda v: sum(degrees[v]), reverse=True)


class _Deadline:
    def __init__(self, budget: float):
        self.expires = time.monotonic() + budget
        self._tick = 0

    def check(self) -> bool:
        """True when the budget has run out; the clock is read on the first
        call and then on every 256th."""
        tick, self._tick = self._tick, self._tick + 1
        if tick & 0xFF:
            return False
        return time.monotonic() >= self.expires


def _assign(costs: list[list], deadline: _Deadline) -> tuple[int, list[int]] | None:
    """The cheapest assignment of each row of ``costs`` (no more rows than
    columns) to its own column, None entries forbidden: the total and each
    row's column, or None when no assignment exists. Each row starts at its
    cheapest column when no earlier row took it; every other row is routed
    along a shortest augmenting path over row and column potentials (Jonker &
    Volgenant, Computing 1987), the deadline checked at every path step."""
    n, m = len(costs), len(costs[0]) if costs else 0
    u, v = [0] * n, [0] * m  # potentials: c - u[i] - v[j] >= 0, 0 on assigned pairs
    col_of, row_of = [-1] * n, [-1] * m
    for i, row in enumerate(costs):
        low, j1 = math.inf, -1
        for j, c in enumerate(row):
            if c is not None and c < low:
                low, j1 = c, j
        if j1 < 0:
            return None
        u[i] = low
        if row_of[j1] < 0:
            row_of[j1], col_of[i] = i, j1
    for start in [i for i, j in enumerate(col_of) if j < 0]:
        dist = [math.inf] * m  # reduced path length from row start to each column
        back = [start] * m  # the row before each column on its path
        done = [False] * m
        path: list[int] = []  # columns settled, in order; the last is free
        i, top = start, 0
        while i >= 0:
            if deadline.check():
                raise SearchTimeout("the time budget ran out inside an edge bucket")
            row, base = costs[i], top - u[i]
            low, j1 = math.inf, -1
            for j in range(m):
                if not done[j]:
                    c = row[j]
                    if c is not None and c + base - v[j] < dist[j]:
                        dist[j], back[j] = c + base - v[j], i
                    if dist[j] < low:
                        low, j1 = dist[j], j
            if j1 < 0:
                return None  # no path from row start reaches a free column
            top, done[j1], i = low, True, row_of[j1]
            path.append(j1)
        u[start] += top
        for j in path[:-1]:  # the free column at the end has dist[j] == top
            v[j] -= top - dist[j]
            u[row_of[j]] += top - dist[j]
        j = path[-1]
        while i != start:  # shift each row on the path to the column after it
            i = back[j]
            row_of[j] = i
            col_of[i], j = j, col_of[i]
    return sum([row[j] for row, j in zip(costs, col_of)]), col_of


def _one_edge(e: str, b2: list[str], edge_cost, ins=None) -> tuple:
    """The cost and the first cheapest partner ``f`` of edge ``e`` in ``b2`` at
    ``edge_cost(e, f)`` (None: not allowed) less ``ins[f]`` when given, the
    column ``_assign``'s first loop picks; ``(inf, None)`` when none is allowed."""
    low, pick = math.inf, None
    for f in b2:
        c = edge_cost(e, f)
        if c is not None:
            c -= 0 if ins is None else ins[f]
            if c < low:
                low, pick = c, f
    return low, pick


def _bucket_cost(
    b1: list[str], b2: list[str], edge_cost, deadline: _Deadline, dele=None, ins=None
) -> tuple[int, dict[str, str]] | None:
    """The cost and pairs of the cheapest pairing of bucket ``b1`` with ``b2``
    by one ``_assign`` solve, or None when there is none. Each ``e`` of ``b1``
    takes its own ``f`` of ``b2`` at ``edge_cost(e, f)`` (None: not allowed),
    or, for edit distance, is deleted at ``dele[e]``, each ``f`` left over
    inserted at ``ins[f]``: a pair then costs ``edge_cost(e, f) - ins[f]`` on
    top of inserting all of ``b2``, and each row has its own deletion column
    (Riesen & Bunke 2009). Edit-distance steps price buckets of two or more
    edges with it, and ``_bucket_pairs`` makes its ranked solve through it."""
    if dele is None:
        costs, base = [[edge_cost(e, f) for f in b2] for e in b1], 0
    else:
        costs, base = [], sum([ins[f] for f in b2])
        for i, e in enumerate(b1):
            row = [None if (c := edge_cost(e, f)) is None else c - ins[f] for f in b2]
            row += [None] * len(b1)
            row[len(b2) + i] = dele[e]
            costs.append(row)
    found = _assign(costs, deadline)
    if found is None:
        return None
    return base + found[0], {e: b2[j] for e, j in zip(b1, found[1]) if j < len(b2)}


def _bucket_pairs(
    b1: list[str], b2: list[str], edge_cost, deadline: _Deadline, dele=None, ins=None
) -> tuple[int, list[tuple[str, str]]] | None:
    """The cost of one bucket's cheapest pairings (arguments as for
    ``_bucket_cost``) and the lexicographically first of them, deletion ranked
    last, or None when there is none. With no deletion costs (a decision
    bucket) each edge in turn first takes the first cheapest partner no edge
    before it took; when each so pays its own lowest cost, that pairing is
    cheapest and, edge by edge, the earliest, so the first. Otherwise one edge
    takes its ``_one_edge`` partner, deleted only when that is strictly
    cheaper, and more take one ranked solve: with ``base = len(b2) + 1``, the
    i-th of the n edges of ``b1`` pays ``base**n`` times its cost plus
    ``base**(n-1-i)`` times its rank (j for the j-th partner, ``len(b2)`` for
    deletion), ranks that sum below ``base**n`` (Burkard, Dell'Amico &
    Martello 2009). The pairing ends where deleting the rest, and inserting
    the partners it frees, costs no more."""
    n, m = len(b1), len(b2)
    if dele is None:
        total, taken = 0, {}  # partner -> edge
        for e in b1:
            c, f = _one_edge(e, [x for x in b2 if x not in taken], edge_cost)
            if f is None or taken and c > _one_edge(e, b2, edge_cost)[0]:
                break
            total, taken[f] = total + c, e
        else:
            return total, [(e, f) for f, e in taken.items()]
    if n == 1:
        cost, f = _one_edge(b1[0], b2, edge_cost, ins)
        if dele is not None and dele[b1[0]] < cost:
            cost, f = dele[b1[0]], None
        elif f is None:
            return None
        cost, partner = cost + (0 if ins is None else sum([ins[x] for x in b2])), {b1[0]: f}
    else:
        scale, rank2 = (m + 1) ** n, {f: j for j, f in enumerate(b2)}
        rank1 = {e: (m + 1) ** (n - 1 - i) for i, e in enumerate(b1)}

        def ranked(e: str, f: str) -> int | None:
            c = edge_cost(e, f)
            return None if c is None else c * scale + rank2[f] * rank1[e]

        scaled = () if dele is None else (
            {e: dele[e] * scale + m * rank1[e] for e in b1}, {f: ins[f] * scale for f in b2}
        )
        if (found := _bucket_cost(b1, b2, ranked, deadline, *scaled)) is None:
            return None
        cost, partner = found[0] // scale, found[1]
    cut, saves = n, 0  # what the solved b1[i:] saves against deleting it
    for i in range(n - 1, -1, -1) if dele is not None else ():
        e, f = b1[i], partner.get(b1[i])
        saves += 0 if f is None else dele[e] + ins[f] - edge_cost(e, f)
        if saves == 0:
            cut = i
    return cost, [(e, partner[e]) for e in b1[:cut] if e in partner]


class _BranchAndBound:
    """Depth-first branch and bound over the g1 nodes (DF-GED, Abu-Aisheh et
    al., ICPRAM 2015), shared by both engines. A subclass gives ``deadline``;
    ``_decisions(v, acc)``, a generator that applies each option for ``v`` in
    turn, yields the settled cost with it applied and undoes it when resumed;
    and ``_leaf(acc)``, handed every complete decision the bound let through,
    which returns True to end the search. ``_bound`` is a lower bound on the
    cost still to settle, ``best_cost`` the incumbent's (none: infinite)."""

    best_cost: float = math.inf

    def _bound(self) -> int:
        return 0

    def _depth_first(self, order: list[str], what: str) -> None:
        """Decide the nodes of ``order`` depth first on an explicit stack of
        decision generators, the deadline checked at every node entered; a
        node whose settled cost plus bound reaches ``best_cost`` is cut.
        However the search ends, it closes its frames, deepest first."""
        frames: list = []  # per decided depth: the generator of its decisions
        acc = 0
        try:
            while True:
                # enter the node at depth len(frames), with settled cost acc
                if self.deadline.check():
                    raise SearchTimeout(f"{what} search exceeded its budget")
                if acc + self._bound() < self.best_cost:  # else no better than the incumbent
                    if len(frames) < len(order):
                        frames.append(self._decisions(order[len(frames)], acc))
                    elif self._leaf(acc):
                        return
                # take the next decision, backtracking when a depth has none left
                while frames:
                    acc = next(frames[-1], None)
                    if acc is not None:
                        break
                    frames.pop()
                else:
                    return
        finally:  # however the search ends, each depth undoes its decision
            while frames:
                frames.pop().close()


class _DecisionSearch(_BranchAndBound):
    """The engine of the three decision problems: each step visits only the
    neighbours of the node it assigns, narrows their kept domains and keeps
    the edge pairs it found."""

    def __init__(self, kind: str, g1: PropertyGraph, g2: PropertyGraph, opts: SearchOptions):
        self.kind = kind
        self.g1, self.g2 = g1, g2
        self.injective = kind in ("iso", "sub")
        self.label_hard = opts.mode == MODE_LABEL_HARD
        self.props_hard = opts.properties == PROPS_HARD
        self.deadline = _Deadline(opts.budget)
        self.assignment: dict[str, str] = {}
        self.inv: dict[str, str] = {}  # image -> preimage, for injective kinds
        self.used = 0  # the bitset of images, for injective kinds
        self.found: list[dict] = []  # per assigned node, the edge pairs its step found
        self.best: tuple[dict, dict] | None = None  # node map and edge pairs
        # run() sets ix, price, domains and the g2 tables past its cuts

    def _assign_buckets(self, v: str, w: str, closed1: list) -> tuple[int, dict] | None:
        """Check every edge bucket completed by assigning ``v`` to ``w``: the
        g1 buckets ``closed1`` between ``v`` and its assigned neighbours, and
        for iso the g2 buckets between ``w`` and assigned images. Returns the
        added soft cost (0 under hard properties) and the witness's pairs, or
        None when some bucket cannot be matched as the problem kind requires:
        iso and sub pair each bucket with one of the same size (sub: at least
        the size), hom, not injective, each of its edges as a one-edge bucket."""
        pairs1, pairs2, assignment = self.ix.pairs1, self.ix.pairs2, self.assignment
        kind, injective = self.kind, self.injective
        if kind == "iso":
            # cut: a g2 bucket at w needs a g1 bucket between the preimages
            for x, (s, t), _ in self.at2[w]:
                u = v if x == w else self.inv.get(x)
                if u is not None and (v if s == w else u, v if t == w else u) not in pairs1:
                    return None
        total, found_pairs, price = 0, {}, self.price
        for (s, t), b1 in closed1:
            b2 = pairs2.get((w if s == v else assignment[s], w if t == v else assignment[t]), [])
            if injective and (len(b1) > len(b2) or kind == "iso" and len(b1) != len(b2)):
                return None
            if injective and len(b1) > 1:
                if (found := _bucket_pairs(b1, b2, price, self.deadline)) is None:
                    return None
                total += found[0]
                found_pairs.update(found[1])
            else:
                for e in b1:  # a one-edge bucket, or for hom each edge as one
                    cost, f = _one_edge(e, b2, price)
                    if f is None:
                        return None
                    total += cost
                    found_pairs[e] = f
        return total, found_pairs

    # -- main search ----------------------------------------------------------

    def run(self) -> Matching | None:
        """The witness, or None: the cuts, each followed by the tables the
        next step reads, then one search, whose kept node map and edge pairs
        are the witness as they stand."""
        if self.kind != "hom" and not self._counts_fit():
            return None
        self.ix = ix = _PairIndex(self.g1, self.g2, self.label_hard)
        # a set of g2 nodes is an int whose bit i stands for ids2[i]
        self.ids2 = list(self.g2.nodes)  # a graph keeps its ids sorted
        self.bit2 = bit2 = {w: 1 << i for i, w in enumerate(self.ids2)}
        # relabeling is free; soft properties cost their unit edits, inserted
        # ones only for iso, and hard ones must cost nothing
        sub = None if self.label_hard else 0
        self.price = _pair_pricer(ix, sub, 1, 1, int(self.kind == "iso"), self.props_hard)
        self.domains = self._root_domains()
        if self.domains is None:
            return None
        # succ2[c][w] / pred2[c][w]: w's successors / predecessors over class c
        self.succ2: dict = {}
        self.pred2: dict = {}
        for f, (s, t, _) in self.g2.edges.items():
            succ = self.succ2.setdefault(ix.cls2[f], {})
            pred = self.pred2.setdefault(ix.cls2[f], {})
            succ[s] = succ.get(s, 0) | bit2[t]
            pred[t] = pred.get(t, 0) | bit2[s]
        if self.kind == "iso":
            self.at2 = _buckets_at(self.g2, ix.pairs2)
        self._depth_first(_ordered_nodes(self.g1, _in_out_degrees(self.g1)), self.kind)
        return None if self.best is None else Matching(*self.best)

    def _counts_fit(self) -> bool:
        """Counting cuts: g1 needs exactly as many nodes and edges as g2 for
        iso and at most as many for sub, per node and per edge label when
        labels must match."""
        nodes, edges = _class_gaps(self.g1, self.g2, self.label_hard)
        gaps = [*nodes.values(), *edges.values()]
        if self.kind == "iso":
            return not any(gaps)
        return all(gap <= 0 for gap in gaps)

    def _root_domains(self) -> dict[str, int] | None:
        """Each g1 node's candidate domain, as a bitset over ``ids2``, or
        None when a domain is empty. A g2 node ``w`` is in ``v``'s domain
        when it has ``v``'s label (``label-hard``) and ``v``'s properties
        (hard properties), lies in the walk core of g2 if ``v`` lies in
        g1's (``_walk_core``), and for sub (iso) has at least (exactly) as
        many edges out of, into and looping at it as ``v``, per edge label
        (in total under ``relabel``). Each filter drops only candidates that
        belong to no complete witness. For iso and sub it is also None when
        some n domains hold fewer than n g2 nodes (Hall, McCreesh & Prosser 2015),
        checked once per distinct domain with the count of nodes sharing it.
        Each mask is computed once per node class: the g1 nodes alike in all
        four filters share it, and for iso and sub the g2 side is gathered per
        signature."""
        g1, g2, ix, kind = self.g1, self.g2, self.ix, self.kind
        core1 = _walk_core(g1, ix.pairs1)
        core2 = _walk_core(g2, ix.pairs2) if core1 else set()
        if core1 and not core2:
            return None  # an endless walk has no image in a graph without one
        sigs1: dict[str, tuple] = {}
        sigs2: dict[str, tuple] = {}
        if self.injective:
            sigs1, sigs2 = _degree_signatures(g1, ix.cls1), _degree_signatures(g2, ix.cls2)
        # the g2 nodes per label class, in the core, per signature (iso) or
        # per numbered edge end (sub: at least that many such ends), and per
        # (key, value) property
        with_label: dict = {}
        by_sig: dict = {}
        for w, bit in self.bit2.items():
            with_label[ix.cls2[w]] = with_label.get(ix.cls2[w], 0) | bit
        for w, sig in sigs2.items():  # none for hom
            by_sig[sig] = by_sig.get(sig, 0) | self.bit2[w]
        in_core = sum([self.bit2[w] for w in core2])  # distinct bits: their union
        with_sig: dict = {}
        for sig, bits in by_sig.items():
            for item in (sig,) if kind == "iso" else _numbered(sig):
                with_sig[item] = with_sig.get(item, 0) | bits
        with_prop: dict = {}
        if self.props_hard:
            for (x, k), d in g2.props.items():
                if x in g2.nodes:
                    with_prop[(k, d)] = with_prop.get((k, d), 0) | self.bit2[x]
        domains = {}
        masks: dict = {}  # per node class: label class, in the core, signature, hard properties
        for v in g1.nodes:
            sig = sigs1.get(v, ())
            props = tuple(ix.props1.get(v, _NO_PROPS).items()) if self.props_hard else ()
            key = (ix.cls1[v], v in core1, sig, props)
            mask = masks.get(key)
            if mask is None:
                mask = with_label.get(key[0], 0) & (in_core if key[1] else -1)
                for item in (sig,) if kind == "iso" else _numbered(sig):  # none for hom
                    mask &= with_sig.get(item, 0)
                for item in props:
                    mask &= with_prop.get(item, 0)
                if not mask:
                    return None
                masks[key] = mask
            domains[v] = mask
        if self.injective:  # Hall: the n smallest domains need n g2 nodes between them
            union, n, counts = 0, 0, Counter(domains.values())  # nodes per distinct domain
            for mask in sorted(counts, key=int.bit_count):
                union, n = union | mask, n + counts[mask]
                if union.bit_count() < n:
                    return None
        return domains

    def _decisions(self, v: str, acc: int):
        """Assign ``v`` each candidate ``w`` of its kept domain less the used
        images, lowest bit first, that leaves each unassigned neighbour a free
        candidate once its domain is narrowed, on a trail, to ``w``'s
        successors (edges out of ``v``) or predecessors over each edge's class
        (forward checking, Haralick & Elliott 1980), and whose node and edge
        buckets are feasible; yield the settled cost, and undo it when resumed."""
        assignment, inv, price, domains = self.assignment, self.inv, self.price, self.domains
        ids2, succ2, pred2, cls1 = self.ids2, self.succ2, self.pred2, self.ix.cls1
        at1 = self.ix.at1[v]
        closed1 = [(k, b1) for u, k, b1 in at1 if u == v or u in assignment]
        ahead = [  # per edge to an unassigned neighbour: it, and the g2 table of its class
            (u, (succ2 if k[0] == v else pred2).get(cls1[e], {}))
            for u, k, b1 in at1 if u != v and u not in assignment for e in b1
        ]
        mask = domains[v] & ~self.used
        while mask:  # the set bits, lowest first
            bit = mask & -mask
            mask ^= bit
            w = ids2[bit.bit_length() - 1]
            node_cost = price(v, w)
            if node_cost is None:
                continue
            free = ~(self.used | bit) if self.injective else -1
            trail = []  # (neighbour, its domain before), to undo the narrowing
            for u, table in ahead:
                trail.append((u, domains[u]))
                domains[u] &= table.get(w, 0)
                if not domains[u] & free:
                    break
            else:
                found = self._assign_buckets(v, w, closed1)
                if found is not None:
                    assignment[v] = w
                    self.found.append(found[1])
                    if self.injective:
                        inv[w] = v
                        self.used |= bit
                    yield acc + node_cost + found[0]
                    self.used &= ~bit
                    inv.pop(w, None)
                    self.found.pop()
                    del assignment[v]
            for u, d in reversed(trail):
                domains[u] = d

    def _leaf(self, acc: int) -> bool:
        """Keep the complete assignment and its edge pairs (the bound lets one
        through only when cheaper); under hard properties it ends the search."""
        pairs = {e: f for found in self.found for e, f in found.items()}
        self.best_cost, self.best = acc, (dict(self.assignment), pairs)
        return self.props_hard


def _require_valid(g1: PropertyGraph, g2: PropertyGraph) -> None:
    for name, g in (("first", g1), ("second", g2)):
        issues = validate(g)
        if issues:
            raise ValueError(f"{name} graph is invalid: " + "; ".join(issues))


def search_hom(g1: PropertyGraph, g2: PropertyGraph, opts: SearchOptions | None = None):
    """A total structure-preserving map g1 -> g2, or None. Not necessarily
    injective: distinct nodes may share a target."""
    _require_valid(g1, g2)
    return _DecisionSearch("hom", g1, g2, opts or SearchOptions()).run()


def search_iso(g1: PropertyGraph, g2: PropertyGraph, opts: SearchOptions | None = None):
    """A full isomorphism witness between the graphs, or None."""
    _require_valid(g1, g2)
    return _DecisionSearch("iso", g1, g2, opts or SearchOptions()).run()


def search_sub(g1: PropertyGraph, g2: PropertyGraph, opts: SearchOptions | None = None):
    """An injective embedding of g1 into g2, or None."""
    _require_valid(g1, g2)
    return _DecisionSearch("sub", g1, g2, opts or SearchOptions()).run()


class _GedSearch(_BranchAndBound):
    """Branch and bound over partial injective node matchings.

    Nodes of the first graph are decided in order, matched or deleted, the
    cheapest decision first and, among equal-cost matches, the g2 node closest
    to ``v`` in out- and in-degree (see ``_decisions``). Each decision settles
    the g1 buckets between ``v`` and its decided neighbours and the g2
    buckets between its image and the used g2 nodes. The pruning
    bound compares, per label class (per label under ``label-hard``, one
    class under ``relabel``), the undecided g1 nodes with the unused g2 nodes
    and the unsettled g1 edges with the unsettled g2 edges: each surplus must
    be deleted or inserted, and node and edge operations are priced apart,
    so the bound never exceeds the remaining cost. The per-class gaps and the
    bound are summed once at the root and then carried (see ``_decisions``).

    At the root it also sums a degree-aware bound, ``root_bound``, which
    counts the edges a node surplus takes with it (``_forced_edges``); a
    leaf that meets it ends the search (``_passes``).
    """

    def __init__(self, g1: PropertyGraph, g2: PropertyGraph, opts: SearchOptions):
        self.deadline = _Deadline(opts.budget)
        self.g1, self.g2 = g1, g2
        self.opts = opts
        self.cm = opts.cost_model
        self.label_hard = opts.mode == MODE_LABEL_HARD
        self.degrees1, self.degrees2 = _in_out_degrees(g1), _in_out_degrees(g2)
        self.order1 = _ordered_nodes(g1, self.degrees1)
        self.ix = ix = _PairIndex(g1, g2, self.label_hard)
        self.at2 = _buckets_at(g2, ix.pairs2)
        self.loops2 = {s for s, t in ix.pairs2 if s == t}  # g2 nodes with a self-loop
        self.nodes2_by_cls: dict = {}  # g2 node ids per class
        for w in g2.nodes:
            self.nodes2_by_cls.setdefault(ix.cls2[w], []).append(w)
        w = self.cm.weights
        self.w_del_v, self.w_ins_v = w["delV"], w["insV"]
        self.w_del_e, self.w_ins_e = w["delE"], w["insE"]
        subs = (None, None) if self.label_hard else (self.cm.node_sub, self.cm.edge_sub)
        self.node_price, self.edge_price = (
            _pair_pricer(ix, sub, w["updP"], w["delP"], w["insP"]) for sub in subs
        )

        def priced(w_op: int, w_prop: int, props: dict, owners) -> dict[str, int]:
            return {x: w_op + w_prop * len(props.get(x, _NO_PROPS)) for x in owners}

        self.del_node = priced(self.w_del_v, w["delP"], ix.props1, g1.nodes)
        self.ins_node = priced(self.w_ins_v, w["insP"], ix.props2, g2.nodes)
        self.del_edge = priced(self.w_del_e, w["delP"], ix.props1, g1.edges)
        self.ins_edge = priced(self.w_ins_e, w["insP"], ix.props2, g2.edges)
        self.del_bucket1 = {k: sum(self.del_edge[e] for e in b) for k, b in ix.pairs1.items()}
        self.ins_bucket2 = {k: sum(self.ins_edge[f] for f in b) for k, b in ix.pairs2.items()}
        # per label class, undecided g1 less unused g2 nodes and g1 edges with
        # an undecided endpoint less g2 edges with an unused one
        self.node_gap, self.edge_gap = _class_gaps(g1, g2, self.label_hard)
        nodes = sum(
            [g * self.w_del_v if g > 0 else -g * self.w_ins_v for g in self.node_gap.values()]
        )
        self.bound = nodes + sum(
            [g * self.w_del_e if g > 0 else -g * self.w_ins_e for g in self.edge_gap.values()]
        )
        # a node surplus deletes (inserts) its nodes' edges, at least so many
        # per edge class, and the edge gap adds as many insertions (deletions)
        dele = _forced_edges(g1, ix.cls1, {c: g for c, g in self.node_gap.items() if g > 0})
        ins = _forced_edges(g2, ix.cls2, {c: -g for c, g in self.node_gap.items() if g < 0})
        self.root_bound = nodes
        for c, g in self.edge_gap.items():
            deleted = max(dele.get(c, 0), ins.get(c, 0) + g)
            self.root_bound += deleted * self.w_del_e + (deleted - g) * self.w_ins_e
        # what a leaf inserts: unused g2 nodes and g2 edges with an unused endpoint
        self.ins_open = sum(self.ins_node.values()) + sum(self.ins_edge.values())
        self.assignment: dict[str, str | None] = {}
        self.inv: dict[str, str] = {}  # used g2 node -> its preimage
        self.pricing = (self.edge_price, self.deadline, self.del_edge, self.ins_edge)
        # the incumbent: delete everything, insert everything
        self.best_cost = sum(self.del_node.values()) + sum(self.del_edge.values()) + self.ins_open
        self.best_assignment: dict[str, str | None] = {v: None for v in g1.nodes}
        self.timed_out = False
        # the dive's leaf cost once kept, and what the probe may price (_leaf)
        self.dive, self.allowance = None, math.inf

    def _decide_cost(self, v: str, w: str, closed1: list) -> tuple[int, list]:
        """Cost settled by matching ``v`` with ``w``, and the g2 buckets it
        settles: those between ``w`` and used g2 nodes, priced as insertions
        when no g1 bucket joins the preimages. The g1 buckets ``closed1`` join
        ``v`` and its decided neighbours."""
        total = self.node_price(v, w)
        ix, assignment, inv = self.ix, self.assignment, self.inv
        pairs1, pairs2 = ix.pairs1, ix.pairs2
        for (s, t), b1 in closed1:
            k2 = (w if s == v else assignment[s], w if t == v else assignment[t])
            if (b2 := pairs2.get(k2)) is None:
                total += self.del_bucket1[(s, t)]
            elif len(b1) > 1:
                total += _bucket_cost(b1, b2, *self.pricing)[0]
            else:  # _bucket_pairs' one-edge rule, without its call
                low = _one_edge(b1[0], b2, self.edge_price, self.ins_edge)[0]
                total += self.ins_bucket2[k2] + min(self.del_edge[b1[0]], low)
        closed2 = []
        for x, k, _ in self.at2[w]:
            u = v if x == w else inv.get(x)
            if u is not None:
                closed2.append(k)
                if (v if k[0] == w else u, v if k[1] == w else u) not in pairs1:
                    total += self.ins_bucket2[k]
        return total, closed2

    def _use(self, w: str, closed2: list, d: int) -> None:
        """Use (``d`` 1) or give back (``d`` -1) g2 node ``w`` and the g2
        buckets ``closed2``: their class gaps and the leaf's insertion sum."""
        ix, edge_gap = self.ix, self.edge_gap
        self.node_gap[ix.cls2[w]] += d
        self.ins_open -= d * self.ins_node[w]
        for k in closed2:
            for f in ix.pairs2[k]:
                edge_gap[ix.cls2[f]] += d
            self.ins_open -= d * self.ins_bucket2[k]

    def _bound(self) -> int:
        """The count bound of the decisions applied, carried by ``_decisions``."""
        return self.bound

    def run(self) -> GedResult:
        """Search (``_passes``) on the budget, then rebuild the incumbent's
        edge pairs, each g1 bucket by ``_bucket_pairs`` with the g2 bucket
        between its ends' images (none there: deleted), and its script,
        whose cost must equal the search's own."""
        try:
            self._passes()
        except SearchTimeout:
            self.timed_out = True
        self.deadline.expires = math.inf  # the incumbent's matching is rebuilt unbudgeted
        node_map = {v: w for v, w in self.best_assignment.items() if w is not None}
        edge_map: dict[str, str] = {}
        for (s, t), b1 in self.ix.pairs1.items():
            if b2 := self.ix.pairs2.get((node_map.get(s), node_map.get(t))):
                edge_map.update(_bucket_pairs(b1, b2, *self.pricing)[1])
        matching = Matching(node_map, edge_map)
        script, cost = script_from_matching(
            matching, self.g1, self.g2, self.opts.mode, self.cm
        )
        if cost != self.best_cost:
            raise RuntimeError(
                f"cost bookkeeping diverged: search {self.best_cost}, script {cost}"
            )
        return GedResult(matching, script, cost, optimal=not self.timed_out)

    def _passes(self) -> None:
        """Search from the root in at most two ``_depth_first`` passes. The
        first dives to its first kept leaf and, when that leaf misses the
        degree-aware root bound, goes on below it as a probe with the bound
        plus one as incumbent (the first iteration of IDA*, Korf, AIJ 1985),
        given up after pricing ``_PROBE_PRICED`` candidates per node pair.
        When the probe finds nothing, the second runs the branch and bound
        from the root with the dive's leaf as incumbent. A leaf that meets
        the bound is optimal and ends the search. As option order does not
        depend on the incumbent and a cut drops only leaves no cheaper than
        it, the search returns the first optimal leaf in depth-first order."""
        try:
            self._depth_first(self.order1, "edit-distance")
        except _ProbeSpent:
            pass
        finally:
            if self.dive is not None and self.best_cost > self.root_bound:
                self.best_cost, self.allowance = self.dive, math.inf  # the dive's stays
        if self.best_cost == self.dive:  # the probe found no leaf at the bound
            self._depth_first(self.order1, "edit-distance")

    def _decisions(self, v: str, acc: int):
        """Apply each option for ``v`` in turn (unused candidates and deletion,
        cheapest step first, then matching before deleting, then the candidate
        ``w`` whose out- and in-degree differ least from ``v``'s, by
        ``|out(v) - out(w)| + |in(v) - in(w)|``, then by g2 node id), yield
        the settled cost with it applied, and undo it when resumed or closed,
        as ``v``'s gaps and the carried bound once the options run out or the
        generator is closed. An option whose settled cost plus child bound
        reaches ``best_cost`` is skipped unapplied: as ``best_cost`` only goes
        down within a pass (see ``_passes``), its child would be cut.

        When deleting the closed g1 buckets but keeping ``v``'s node already
        reaches ``best_cost``, only anchored candidates are priced: a ``w``
        that a g2 bucket joins, in the direction of a closed g1 bucket, to
        the image of ``v``'s neighbour (to itself for ``v``'s self-loop). Any
        other ``w`` deletes every closed g1 bucket and inserts every g2
        bucket it closes, each insertion costing at least what its gap rise
        takes off the child bound, so its option would be skipped (Chang et
        al., ICDE 2020). An unpriced candidate does not tick the deadline."""
        ix, assignment, inv, deadline = self.ix, self.assignment, self.inv, self.deadline
        node_gap, edge_gap, cls1, cls2 = self.node_gap, self.edge_gap, ix.cls1, ix.cls2
        w_del_e, w_ins_e = self.w_del_e, self.w_ins_e
        closed1 = [(k, b1) for u, k, b1 in ix.at1[v] if u == v or u in assignment]
        ends1 = [cls1[e] for _, b1 in closed1 for e in b1]
        # a gap falling to 0 or more saves a deletion, below 0 adds an insertion
        entry, c = self.bound, cls1[v]
        node_gap[c] -= 1
        bound = entry + (-self.w_del_v if node_gap[c] >= 0 else self.w_ins_v)
        for c1 in ends1:
            edge_gap[c1] -= 1
            bound += -w_del_e if edge_gap[c1] >= 0 else w_ins_e
        try:
            # and rising does the reverse: each candidate takes back v's node gap
            matched = bound + (self.w_del_v if node_gap[c] >= 0 else -self.w_ins_v)
            out_v, in_v = self.degrees1[v]
            degrees2 = self.degrees2
            dropped = sum(self.del_bucket1[k] for k, _ in closed1)  # the closed g1 buckets
            anchored = None  # None: every candidate is priced
            if acc + matched + dropped >= self.best_cost:
                anchored = set()
                for (s, t), _ in closed1:
                    if s == t:
                        anchored |= self.loops2
                    elif (x := assignment[t if s == v else s]) is not None:
                        anchored.update(
                            y for y, k, _ in self.at2[x] if k == ((y, x) if s == v else (x, y))
                        )
            # (step cost, degree gap, w, child bound, closed2): deletion's infinite
            # gap puts it after the matches of equal cost, and as no two options
            # tie before w, sorting never compares w with None or reaches further
            options = []
            for w in self.nodes2_by_cls.get(c, []):
                if w not in inv and (anchored is None or w in anchored):
                    if deadline.check():
                        raise SearchTimeout("edit-distance search exceeded its budget")
                    step_cost, closed2 = self._decide_cost(v, w, closed1)
                    child, risen = matched, {}
                    for k in closed2:
                        for f in ix.pairs2[k]:
                            c2 = cls2[f]
                            risen[c2] = gap = risen.get(c2, edge_gap[c2]) + 1
                            child += w_del_e if gap > 0 else -w_ins_e
                    apart = abs(out_v - degrees2[w][0]) + abs(in_v - degrees2[w][1])
                    options.append((step_cost, apart, w, child, closed2))
            self.allowance -= len(options)
            if self.allowance < 0:
                raise _ProbeSpent
            options.append((self.del_node[v] + dropped, math.inf, None, bound, []))
            options.sort()
            for step_cost, _, w, child, closed2 in options:
                if acc + step_cost + child >= self.best_cost:
                    continue
                assignment[v] = w
                if w is not None:
                    inv[w] = v
                    self._use(w, closed2, 1)
                self.bound = child
                try:
                    yield acc + step_cost
                finally:
                    if w is not None:
                        self._use(w, closed2, -1)
                        del inv[w]
                    del assignment[v]
        finally:  # also when a timeout or the probe's allowance ends the search
            node_gap[c] += 1
            for c1 in ends1:
                edge_gap[c1] += 1
            self.bound = entry

    def _leaf(self, acc: int) -> bool:
        """Replace the incumbent when this leaf, with its insertions, is
        strictly cheaper; one that meets the root bound ends the search. The
        first kept leaf, the dive's, turns the search into the probe below it
        (``_passes``): no leaf before it meets the bound, as each costs at
        least the delete-everything incumbent, which the dive's leaf beats."""
        cost = acc + self.ins_open
        if cost >= self.best_cost:
            return False
        self.best_cost, self.best_assignment = cost, dict(self.assignment)
        if self.dive is None and cost > self.root_bound:
            self.dive, self.best_cost = cost, self.root_bound + 1
            self.allowance = _PROBE_PRICED * len(self.g1.nodes) * len(self.g2.nodes)
        return cost <= self.root_bound


def min_edit_matching(
    g1: PropertyGraph, g2: PropertyGraph, opts: SearchOptions | None = None
) -> GedResult:
    """Minimum-cost partial isomorphism between the graphs, with the edit
    script it determines and that script's cost.

    The search is exact when it completes; on timeout the best incumbent is
    returned with ``optimal=False``. The incumbent starts from the trivial
    delete-everything/insert-everything matching, so a result always exists.
    """
    _require_valid(g1, g2)
    return _GedSearch(g1, g2, opts or SearchOptions()).run()


def oracle_ged(
    g1: PropertyGraph, g2: PropertyGraph, opts: SearchOptions | None = None
) -> int:
    """Exhaustive minimum edit cost for small graphs (at most 7 nodes each).

    Enumerates every injective partial node matching and every compatible
    edge matching with no pruning and evaluates the derived-script cost
    arithmetically; used as an independent check of ``min_edit_matching``.
    """
    _require_valid(g1, g2)
    opts = opts or SearchOptions()
    if len(g1.nodes) > 7 or len(g2.nodes) > 7:
        raise SizeGuardError("oracle is limited to graphs with at most 7 nodes")
    cm = opts.cost_model
    label_hard = opts.mode == MODE_LABEL_HARD
    props1, props2 = ({x: g.props_of(x) for x in [*g.nodes, *g.edges]} for g in (g1, g2))
    w = cm.weights

    def prop_pair(p1: dict, p2: dict) -> int:
        total = 0
        for k, v in p1.items():
            if k in p2:
                if p2[k] != v:
                    total += w["updP"]
            else:
                total += w["delP"]
        total += sum(w["insP"] for k in p2 if k not in p1)
        return total

    nodes1, nodes2 = sorted(g1.nodes), sorted(g2.nodes)
    edges1, edges2 = sorted(g1.edges), sorted(g2.edges)
    del_node = {v: w["delV"] + w["delP"] * len(props1[v]) for v in nodes1}
    ins_node = {x: w["insV"] + w["insP"] * len(props2[x]) for x in nodes2}
    del_edge = {e: w["delE"] + w["delP"] * len(props1[e]) for e in edges1}
    ins_edge = {f: w["insE"] + w["insP"] * len(props2[f]) for f in edges2}
    best = [
        sum(del_node.values())
        + sum(ins_node.values())
        + sum(del_edge.values())
        + sum(ins_edge.values())
    ]

    def edge_cost(e: str, f: str) -> int | None:
        lab1, lab2 = g1.edges[e][2], g2.edges[f][2]
        if lab1 != lab2 and label_hard:
            return None
        return (0 if lab1 == lab2 else cm.edge_sub) + prop_pair(props1[e], props2[f])

    def enum_edges(i: int, node_map: dict, used_f: set, acc: int) -> None:
        if i == len(edges1):
            total = acc + sum(c for f, c in ins_edge.items() if f not in used_f)
            if total < best[0]:
                best[0] = total
            return
        e = edges1[i]
        s, t, _ = g1.edges[e]
        ws, wt = node_map.get(s), node_map.get(t)
        if ws is not None and wt is not None:
            for f in edges2:
                if f in used_f:
                    continue
                fs, ft, _ = g2.edges[f]
                if fs != ws or ft != wt:
                    continue
                c = edge_cost(e, f)
                if c is not None:
                    used_f.add(f)
                    enum_edges(i + 1, node_map, used_f, acc + c)
                    used_f.discard(f)
        enum_edges(i + 1, node_map, used_f, acc + del_edge[e])

    def enum_nodes(i: int, node_map: dict, used_w: set, acc: int) -> None:
        if i == len(nodes1):
            node_total = acc + sum(c for x, c in ins_node.items() if x not in used_w)
            enum_edges(0, node_map, set(), node_total)
            return
        v = nodes1[i]
        for x in nodes2:
            if x in used_w:
                continue
            if label_hard and g1.nodes[v] != g2.nodes[x]:
                continue
            pair = (0 if g1.nodes[v] == g2.nodes[x] else cm.node_sub) + prop_pair(
                props1[v], props2[x]
            )
            node_map[v] = x
            used_w.add(x)
            enum_nodes(i + 1, node_map, used_w, acc + pair)
            used_w.discard(x)
            del node_map[v]
        enum_nodes(i + 1, node_map, used_w, acc + del_node[v])

    enum_nodes(0, {}, set(), 0)
    return best[0]
