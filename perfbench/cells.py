"""Workload inputs for the benchmark, generated from a seed.

Every input is built here as plain dictionaries and rendered to graph text;
pgmatch only ever sees the text. Each cell carries the answer it must give,
known from how the cell was built, so that the checker in ``known.py`` never
has to ask pgmatch what the right answer is.

Graph values are dictionaries shaped like pgmatch's own:
``nodes`` id -> label, ``edges`` id -> (src, tgt, label) and ``props``
(owner, key) -> value.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

SAT = "SAT"
UNSAT = "UNSAT"

# Cost weights per operation kind; "relV"/"relE" price in-place relabeling.
UNIT_WEIGHTS = {k: 1 for k in ("insV", "delV", "insE", "delE", "insP", "delP", "updP", "relV", "relE")}
GEDC_WEIGHTS = dict(UNIT_WEIGHTS, insV=4, delV=4, insE=2, delE=2, relV=2, relE=1)

# GED cost settings: (matching mode, weights); run.py maps them onto
# pgmatch's SearchOptions.
GED_SETTINGS = {
    "unit": ("label-hard", UNIT_WEIGHTS),
    "relabel": ("relabel", UNIT_WEIGHTS),
    "gedc": ("relabel", GEDC_WEIGHTS),
}

# Per-cell time budgets in seconds, passed to pgmatch's searches.
DECIDE_BUDGET = 20.0
GED_BUDGET = 0.5


@dataclass
class Graph:
    nodes: dict = field(default_factory=dict)
    edges: dict = field(default_factory=dict)
    props: dict = field(default_factory=dict)


@dataclass
class Cell:
    """One request: a problem on two graphs given as text, with its known answer.

    ``kind`` is hom/iso/sub (``expect`` is SAT or UNSAT), ged (``expect`` is
    the optimum under ``setting``) or roundtrip (``expect`` is the cost of the
    script that ``matching`` determines).
    """

    cell_id: str
    kind: str
    g1: Graph
    g2: Graph
    text1: str
    text2: str
    expect: object
    setting: str = ""
    matching: tuple = ({}, {})


# -- text rendering -------------------------------------------------------


def _quote(token: str) -> str:
    if token and not token.startswith("#") and not any(
        c.isspace() or c in '"\\' for c in token
    ):
        return token
    return '"' + token.replace("\\", "\\\\").replace('"', '\\"') + '"'


def render_graph(g: Graph) -> str:
    """The line-based graph text format: ``n``, ``e`` and ``p`` records."""
    lines = [f"n {_quote(v)} {_quote(lab)}" for v, lab in g.nodes.items()]
    lines += [
        f"e {_quote(e)} {_quote(s)} {_quote(t)} {_quote(lab)}"
        for e, (s, t, lab) in g.edges.items()
    ]
    lines += [f"p {_quote(x)} {_quote(k)} {_quote(d)}" for (x, k), d in g.props.items()]
    return "\n".join(lines) + "\n"


def _cell(cell_id, kind, g1, g2, expect, **extra) -> Cell:
    return Cell(cell_id, kind, g1, g2, render_graph(g1), render_graph(g2), expect, **extra)


# -- shapes -----------------------------------------------------------------


def chain(k: int, prefix: str) -> Graph:
    """k edges over k + 1 nodes, ids as pgmatch's gen_chain writes them."""
    nodes = {f"{prefix}v{i:03d}": "n" for i in range(k + 1)}
    edges = {
        f"{prefix}e{i:03d}": (f"{prefix}v{i:03d}", f"{prefix}v{i + 1:03d}", "e")
        for i in range(k)
    }
    return Graph(nodes, edges)


def cycle(k: int, prefix: str) -> Graph:
    nodes = {f"{prefix}v{i:03d}": "n" for i in range(k)}
    edges = {
        f"{prefix}e{i:03d}": (f"{prefix}v{i:03d}", f"{prefix}v{(i + 1) % k:03d}", "e")
        for i in range(k)
    }
    return Graph(nodes, edges)


_SHAPES = {"chain": chain, "cycle": cycle}

# Verdicts of the chain/cycle matrix at equal k. A cycle has no homomorphism
# into a chain (a chain has no closed walk); a chain of k edges has k + 1
# nodes, one more than a cycle of k edges, so it neither embeds injectively
# into nor is isomorphic to that cycle; the rest map by the identity or by
# wrapping round.
_SHAPE_VERDICT = {
    ("hom", "chain", "chain"): SAT,
    ("hom", "chain", "cycle"): SAT,
    ("hom", "cycle", "chain"): UNSAT,
    ("hom", "cycle", "cycle"): SAT,
    ("iso", "chain", "chain"): SAT,
    ("iso", "chain", "cycle"): UNSAT,
    ("iso", "cycle", "chain"): UNSAT,
    ("iso", "cycle", "cycle"): SAT,
    ("sub", "chain", "chain"): SAT,
    ("sub", "chain", "cycle"): UNSAT,
    ("sub", "cycle", "chain"): UNSAT,
    ("sub", "cycle", "cycle"): SAT,
}


def random_graph(rng: random.Random, n: int, m: int, prefix: str, n_props: int = 1) -> Graph:
    """n labeled nodes and m labeled edges (no self-loops, no parallel edges),
    with ``n_props`` properties on every node and on every other edge."""
    g = Graph()
    for i in range(n):
        v = f"{prefix}v{i:03d}"
        g.nodes[v] = rng.choice("ABC")
        for j in range(n_props):
            g.props[(v, f"k{j}")] = rng.choice(("red", "green", "blue sky", "7"))
    pairs: set = set()
    while len(pairs) < m:
        s, t = rng.randrange(n), rng.randrange(n)
        if s != t:
            pairs.add((s, t))
    for i, (s, t) in enumerate(sorted(pairs)):
        e = f"{prefix}e{i:03d}"
        g.edges[e] = (f"{prefix}v{s:03d}", f"{prefix}v{t:03d}", rng.choice("rs"))
        if i % 2 == 0:
            for j in range(n_props):
                g.props[(e, f"k{j}")] = rng.choice(("1", "2"))
    return g


def renamed(g: Graph, rng: random.Random, prefix: str) -> Graph:
    """A copy of g under fresh ids drawn in a shuffled order."""
    order = list(g.nodes)
    rng.shuffle(order)
    ren = {v: f"{prefix}v{i:03d}" for i, v in enumerate(order)}
    eorder = list(g.edges)
    rng.shuffle(eorder)
    ren.update({e: f"{prefix}e{i:03d}" for i, e in enumerate(eorder)})
    out = Graph(
        {ren[v]: lab for v, lab in g.nodes.items()},
        {ren[e]: (ren[s], ren[t], lab) for e, (s, t, lab) in g.edges.items()},
        {(ren[x], k): d for (x, k), d in g.props.items()},
    )
    return _sorted(out)


def _sorted(g: Graph) -> Graph:
    return Graph(dict(sorted(g.nodes.items())), dict(sorted(g.edges.items())), dict(sorted(g.props.items())))


def _restrict(g: Graph, keep_nodes: set, keep_edges: set) -> Graph:
    return Graph(
        {v: lab for v, lab in g.nodes.items() if v in keep_nodes},
        {e: x for e, x in g.edges.items() if e in keep_edges},
        {(x, k): d for (x, k), d in g.props.items() if x in keep_nodes or x in keep_edges},
    )


# -- decide-matrix -----------------------------------------------------------

DECIDE_SIZES = (12, 18, 24, 30, 36, 42)


def decide_cells(seed: int) -> list[Cell]:
    """The 120 hom/iso/sub cells of pgmatch's native-matrix preset, then
    planted random cells: SAT by construction, and UNSAT variants with one
    property changed to a value the target never uses, or (sub) with one node
    more than the target."""
    cells = []
    for kind in ("hom", "iso", "sub"):
        for s1 in ("chain", "cycle"):
            for s2 in ("chain", "cycle"):
                for k in range(10, 101, 10):
                    cells.append(
                        _cell(
                            f"{kind}-{s1}{k}-{s2}{k}",
                            kind,
                            _SHAPES[s1](k, "a"),
                            _SHAPES[s2](k, "b"),
                            _SHAPE_VERDICT[(kind, s1, s2)],
                        )
                    )
    rng = random.Random(f"decide-matrix:{seed}")
    for n in DECIDE_SIZES:
        for kind in ("hom", "iso", "sub"):
            target = random_graph(rng, n, 2 * n, "b")
            pattern = _planted_pattern(rng, kind, target)
            cells.append(_cell(f"{kind}-plant{n}", kind, pattern, target, SAT))
            cells.append(
                _cell(f"{kind}-plant{n}-prop", kind, _with_fresh_value(rng, pattern), target, UNSAT)
            )
        bigger = _with_extra_node(rng, renamed(target, rng, "a"))
        cells.append(_cell(f"sub-plant{n}-bigger", "sub", bigger, target, UNSAT))
    return cells


def _planted_pattern(rng: random.Random, kind: str, target: Graph) -> Graph:
    """A pattern that maps into ``target`` by construction: a renamed copy for
    iso, a renamed part for sub, and for hom a part plus a clone of one of its
    nodes that can only map onto the same target node."""
    if kind == "iso":
        return renamed(target, rng, "a")
    nodes = [v for v in target.nodes if rng.random() < 0.7]
    keep_n = set(nodes)
    keep_e = {e for e, (s, t, _) in target.edges.items() if s in keep_n and t in keep_n and rng.random() < 0.8}
    part = _restrict(target, keep_n, keep_e)
    part.props = {pk: d for pk, d in part.props.items() if rng.random() < 0.8}
    if kind == "hom" and nodes:
        u = rng.choice(nodes)
        clone = u + "c"
        part.nodes[clone] = part.nodes[u]
        for (x, k), d in list(part.props.items()):
            if x == u:
                part.props[(clone, k)] = d
        for e, (s, t, lab) in list(part.edges.items()):
            if s == u and t != u:
                part.edges[e + "c"] = (clone, t, lab)
    return renamed(part, rng, "a")


def _with_fresh_value(rng: random.Random, g: Graph) -> Graph:
    """g with one node property set to a value no target graph uses."""
    out = Graph(dict(g.nodes), dict(g.edges), dict(g.props))
    owners = [pk for pk in g.props if pk[0] in g.nodes]
    if owners:
        out.props[rng.choice(owners)] = "absent value"
    else:
        out.props[(next(iter(g.nodes)), "k0")] = "absent value"
    return _sorted(out)


def _with_extra_node(rng: random.Random, g: Graph) -> Graph:
    """g plus one node, joined by an edge to an existing node."""
    out = Graph(dict(g.nodes), dict(g.edges), dict(g.props))
    anchor = rng.choice(sorted(g.nodes))
    out.nodes["axtra"] = g.nodes[anchor]
    out.edges["aextra"] = (anchor, "axtra", "r")
    return _sorted(out)


# -- ged-exact ----------------------------------------------------------------

# Sizes straddle what the search proves within GED_BUDGET, with a margin on
# both sides. On a 2-core x86 machine chain/cycle k <= 10 and random n <= 7
# were proven in under 0.25 s for every seed tried; chain/cycle k = 18 never,
# random n = 26 (d = 3) in one instance of ninety. Sizes in between
# (k = 11..14, n = 8..23) prove or not depending on the seed (n = 17: one
# instance in eight) and on the machine's speed, which drifted by up to 1.8x
# on that shared machine.
# Random pairs sit at the two ends, so that the middle of the cell-time
# distribution, where cell_ms_p50 and the tail percentile fall, is made of
# chain/cycle cells, whose inputs do not depend on the seed: with random
# pairs there, the median moved by half between seeds.
GED_CHAIN_KS = (3, 4, 5, 6, 7, 8, 9, 10, 18)
GED_RANDOM_SIZES = (4, 4, 4, 4, 26)


def ged_cells(seed: int) -> list[Cell]:
    """Chain k against cycle k, whose optimum is one node deletion, one edge
    deletion and one edge insertion; and random graphs against a renamed copy
    with d edges deleted, whose optimum is d edge deletions (the edge-count
    difference bounds any script from below and the planted script meets
    it; edges carry no properties, so deleting one costs delE alone)."""
    cells = []
    for setting, (_mode, w) in GED_SETTINGS.items():
        for k in GED_CHAIN_KS:
            cells.append(
                _cell(
                    f"ged-{setting}-chain{k}-cycle{k}",
                    "ged",
                    chain(k, "a"),
                    cycle(k, "b"),
                    w["delV"] + w["delE"] + w["insE"],
                    setting=setting,
                )
            )
    rng = random.Random(f"ged-exact:{seed}")
    for setting, (_mode, w) in GED_SETTINGS.items():
        for i, n in enumerate(GED_RANDOM_SIZES):
            d = 1 + n % 3
            source = gnp_graph(rng, n, 0.2, "a")
            dropped = set(rng.sample(sorted(source.edges), d))
            kept = _restrict(source, set(source.nodes), set(source.edges) - dropped)
            target = renamed(kept, rng, "b")
            cells.append(
                _cell(f"ged-{setting}-rand{n}-{i}-d{d}", "ged", source, target, d * w["delE"], setting=setting)
            )
    return cells


def gnp_graph(rng: random.Random, n: int, p: float, prefix: str) -> Graph:
    """n nodes with one label and one property from three values; each
    ordered pair of distinct nodes gets an edge with probability p. At least
    three edges, so that up to three can be deleted."""
    while True:
        g = Graph()
        for i in range(n):
            g.nodes[f"{prefix}v{i:03d}"] = "n"
            g.props[(f"{prefix}v{i:03d}", "k0")] = rng.choice("123")
        for i in range(n):
            for j in range(n):
                if i != j and rng.random() < p:
                    g.edges[f"{prefix}e{len(g.edges):03d}"] = (f"{prefix}v{i:03d}", f"{prefix}v{j:03d}", "e")
        if len(g.edges) >= 3:
            return g


# -- edit-roundtrip -------------------------------------------------------------

# (nodes, share of nodes the planted matching covers): 40 pairs, so that the
# tail percentile has ten cells beyond it, small enough for five passes in
# a 40 s run (apply_script is quadratic in the script length).
ROUNDTRIP_PLAN = tuple((n, share) for n in (30, 45, 60, 75, 90) for share in (0.05, 0.2, 0.35, 0.5)) * 2


def roundtrip_cells(seed: int) -> list[Cell]:
    """Large graph pairs with two properties per element and a planted
    matching that covers the given share of nodes, plus one pair whose node
    labels are disjoint, so that the only matching, and hence the optimum,
    is the empty one."""
    rng = random.Random(f"edit-roundtrip:{seed}")
    cells = []
    for i, (n, share) in enumerate(ROUNDTRIP_PLAN):
        g1, g2, h = _planted_pair(rng, n, share)
        cells.append(
            _cell(
                f"roundtrip-{i}-n{n}-m{round(share * 100)}",
                "roundtrip",
                g1,
                g2,
                matching_cost(g1, g2, h),
                matching=h,
            )
        )
    g1 = random_graph(rng, 40, 80, "a", n_props=2)
    g2 = random_graph(rng, 40, 80, "b", n_props=2)
    g2.nodes = {v: lab.lower() for v, lab in g2.nodes.items()}
    cells.append(_cell("roundtrip-n40-empty", "roundtrip", g1, g2, matching_cost(g1, g2, ({}, {})), matching=({}, {})))
    return cells


def _planted_pair(rng: random.Random, n: int, share: float) -> tuple[Graph, Graph, tuple]:
    """g1 random; g2 keeps a share of g1's nodes (renamed), some of the edges
    among them, and changes, drops or adds properties on them, then grows
    fresh nodes and edges back to g1's size."""
    g1 = random_graph(rng, n, 2 * n, "a", n_props=2)
    matched = sorted(rng.sample(sorted(g1.nodes), max(1, round(share * n))))
    g2 = Graph()
    node_map = {}
    for i, v in enumerate(matched):
        w = f"bv{i:03d}"
        node_map[v] = w
        g2.nodes[w] = g1.nodes[v]
    edge_map = {}
    for e, (s, t, lab) in g1.edges.items():
        if s in node_map and t in node_map and rng.random() < 0.7:
            f = f"be{len(edge_map):03d}"
            edge_map[e] = f
            g2.edges[f] = (node_map[s], node_map[t], lab)
    image = dict(node_map, **edge_map)
    for (x, k), d in g1.props.items():
        if x in image:
            r = rng.random()
            if r < 0.6:
                g2.props[(image[x], k)] = d
            elif r < 0.8:
                g2.props[(image[x], k)] = d + "'"
    for y in image.values():
        if rng.random() < 0.2:
            g2.props[(y, "k9")] = "new"
    next_node = len(node_map)
    while len(g2.nodes) < n:
        w = f"bv{next_node:03d}"
        next_node += 1
        g2.nodes[w] = rng.choice("ABC")
        g2.props[(w, "k0")] = rng.choice(("red", "blue sky"))
        g2.props[(w, "k1")] = rng.choice(("1", "2"))
    ids2 = sorted(g2.nodes)
    next_edge = len(edge_map)
    while len(g2.edges) < 2 * n:
        f = f"be{next_edge:03d}"
        next_edge += 1
        g2.edges[f] = (rng.choice(ids2), rng.choice(ids2), rng.choice("rs"))
        g2.props[(f, "k0")] = rng.choice(("1", "2"))
        g2.props[(f, "k1")] = "x"
    return _sorted(g1), _sorted(g2), (node_map, edge_map)


def matching_cost(g1: Graph, g2: Graph, h: tuple) -> int:
    """Unit cost of the edit script a label-preserving matching determines:
    unmatched g1 structure is deleted, differing properties on matched
    elements are updated, and unmatched g2 structure is inserted."""
    w = UNIT_WEIGHTS
    node_map, edge_map = h
    image = dict(node_map, **edge_map)
    matched2 = set(image.values())
    cost = w["delV"] * sum(v not in node_map for v in g1.nodes)
    cost += w["delE"] * sum(e not in edge_map for e in g1.edges)
    cost += w["insV"] * sum(v not in matched2 for v in g2.nodes)
    cost += w["insE"] * sum(e not in matched2 for e in g2.edges)
    preimage = {y: x for x, y in image.items()}
    for (x, k), d in g1.props.items():
        y = image.get(x)
        if y is None or (y, k) not in g2.props:
            cost += w["delP"]
        elif g2.props[(y, k)] != d:
            cost += w["updP"]
    for (y, k) in g2.props:
        x = preimage.get(y)
        if x is None or (x, k) not in g1.props:
            cost += w["insP"]
    return cost


WORKLOADS = {
    "decide-matrix": decide_cells,
    "ged-exact": ged_cells,
    "edit-roundtrip": roundtrip_cells,
}
