"""Shared test helpers: random instances and independent brute-force oracles.

The brute-force routines here deliberately re-derive their answers from raw
dictionaries instead of calling the library's checkers, so they can serve as
independent ground truth.
"""

from __future__ import annotations

import itertools
import random
from pathlib import Path

from pgmatch import Matching, PropertyGraph, apply_op
from pgmatch.editing import (
    DeleteEdge,
    DeleteNode,
    DeleteProp,
    InsertEdge,
    InsertNode,
    InsertProp,
    UpdateProp,
)

TESTS_DIR = Path(__file__).resolve().parent
FAKE_SOLVER = TESTS_DIR / "fake_solver.py"


def write_stub_solver(tmp_path: Path, model: str) -> Path:
    """A solver script that reads its program and answers SATISFIABLE with
    the one model line ``model``."""
    stub = tmp_path / "stub_solver.py"
    stub.write_text(
        f"import sys\nsys.stdin.read()\nprint('Answer: 1')\nprint({model!r})\nprint('SATISFIABLE')\n",
        encoding="utf-8",
    )
    return stub

LABELS = ("a", "b")
KEYS = ("k1", "k2")
VALUES = ("d1", "d2")

# Strings that need quoting, or sit near a quoting rule, in one text form or
# another: as solver constants, record tokens or both.
WEIRD_ATOMS = [
    "plain",
    "v1",
    "CamelCase",
    "V1",
    "has space",
    'with"quote',
    "back\\slash",
    "1starts_with_digit",
    "_underscore",
    "ünïcode",
    "not",
    "",
    "tab\there",
    "a,b",
    "f(x)",
    "#c",
    "x.",
    ")(",
    "two\nlines",
    "carriage\rreturn\r\n",
    "next\x85line",
    "line\u2028separator",
]


def random_graph(
    rng: random.Random,
    prefix: str = "",
    max_nodes: int = 5,
    edge_p: float = 0.3,
    max_props: int = 2,
    self_loops: bool = False,
) -> PropertyGraph:
    n = rng.randint(0, max_nodes)
    nodes = {f"{prefix}v{i}": rng.choice(LABELS) for i in range(n)}
    edges = {}
    idx = 0
    ids = sorted(nodes)
    for i in ids:
        for j in ids:
            if i == j and not self_loops:
                continue
            if rng.random() < edge_p:
                edges[f"{prefix}e{idx}"] = (i, j, rng.choice(LABELS))
                idx += 1
    props = {}
    for x in list(nodes) + list(edges):
        count = rng.randint(0, max_props)
        for k in rng.sample(KEYS, min(count, len(KEYS))):
            props[(x, k)] = rng.choice(VALUES)
    return PropertyGraph(nodes, edges, props)


def random_partial_iso(
    rng: random.Random, g1: PropertyGraph, g2: PropertyGraph, mode: str = "label-hard"
) -> Matching:
    node_map: dict[str, str] = {}
    used: set[str] = set()
    for v in sorted(g1.nodes):
        if rng.random() < 0.7:
            cands = [
                w
                for w in sorted(g2.nodes)
                if w not in used and (mode == "relabel" or g1.nodes[v] == g2.nodes[w])
            ]
            if cands:
                w = rng.choice(cands)
                node_map[v] = w
                used.add(w)
    edge_map: dict[str, str] = {}
    used_f: set[str] = set()
    for e in sorted(g1.edges):
        s, t, lab = g1.edges[e]
        if s in node_map and t in node_map and rng.random() < 0.8:
            cands = [
                f
                for f in sorted(g2.edges)
                if f not in used_f
                and g2.edges[f][0] == node_map[s]
                and g2.edges[f][1] == node_map[t]
                and (mode == "relabel" or g2.edges[f][2] == lab)
            ]
            if cands:
                f = rng.choice(cands)
                edge_map[e] = f
                used_f.add(f)
    return Matching(node_map, edge_map)


def random_valid_script(rng: random.Random, g: PropertyGraph, max_len: int = 12) -> list:
    """A random script that applies cleanly to ``g``, built by picking one
    feasible operation at a time."""
    ops: list = []
    current = g
    counter = itertools.count()

    def fresh_id() -> str:
        while True:
            cand = f"z{next(counter)}"
            if not current.has_id(cand):
                return cand

    for _ in range(rng.randint(0, max_len)):
        kinds = ["insV"]
        if current.nodes:
            kinds.append("insE")
        if current.nodes or current.edges:
            owners_missing = [
                x
                for x in list(current.nodes) + list(current.edges)
                for k in KEYS
                if (x, k) not in current.props
            ]
            if owners_missing:
                kinds.append("insP")
        deletable_nodes = [
            v
            for v in current.nodes
            if not any(v in (s, t) for s, t, _ in current.edges.values())
            and not current.props_of(v)
        ]
        if deletable_nodes:
            kinds.append("delV")
        deletable_edges = [e for e in current.edges if not current.props_of(e)]
        if deletable_edges:
            kinds.append("delE")
        if current.props:
            kinds += ["delP", "updP"]
        kind = rng.choice(kinds)
        if kind == "insV":
            op = InsertNode(fresh_id(), rng.choice(LABELS))
        elif kind == "insE":
            nodes = sorted(current.nodes)
            op = InsertEdge(fresh_id(), rng.choice(nodes), rng.choice(nodes), rng.choice(LABELS))
        elif kind == "insP":
            candidates = [
                (x, k)
                for x in list(current.nodes) + list(current.edges)
                for k in KEYS
                if (x, k) not in current.props
            ]
            x, k = rng.choice(candidates)
            op = InsertProp(x, k, rng.choice(VALUES))
        elif kind == "delV":
            op = DeleteNode(rng.choice(deletable_nodes))
        elif kind == "delE":
            op = DeleteEdge(rng.choice(deletable_edges))
        elif kind == "delP":
            x, k = rng.choice(sorted(current.props))
            op = DeleteProp(x, k)
        else:
            x, k = rng.choice(sorted(current.props))
            op = UpdateProp(x, k, rng.choice(VALUES))
        current = apply_op(current, op)
        ops.append(op)
    return ops


def diff_atom_cost(h: Matching, g1, g2, mode: str, cm) -> int:
    """Independent tally of the diff-rule cost terms a matching induces,
    computed straight from the graphs (no script construction)."""
    w = cm.weights
    merged = h.id_map()
    back = {y: x for x, y in merged.items()}
    total = 0
    total += sum(w["delV"] for v in g1.nodes if v not in h.node_map)
    total += sum(w["insV"] for x in g2.nodes if x not in back)
    total += sum(w["delE"] for e in g1.edges if e not in h.edge_map)
    total += sum(w["insE"] for f in g2.edges if f not in back)
    for (x, k), d in g1.props.items():
        y = merged.get(x)
        if y is None:
            total += w["delP"]  # owner deleted
        elif (y, k) not in g2.props:
            total += w["delP"]
        elif g2.props[(y, k)] != d:
            total += w["updP"]
    for (y, k), _d in g2.props.items():
        x = back.get(y)
        if x is None:
            total += w["insP"]  # owner inserted
        elif (x, k) not in g1.props:
            total += w["insP"]
    if mode == "relabel":
        total += sum(cm.node_sub for v, x in h.node_map.items() if g1.nodes[v] != g2.nodes[x])
        total += sum(
            cm.edge_sub for e, f in h.edge_map.items() if g1.edges[e][2] != g2.edges[f][2]
        )
    return total


# -- independent brute-force deciders (raw dictionary logic) -----------------


def _edge_maps(g1: PropertyGraph, g2: PropertyGraph, node_map, injective: bool):
    """All edge maps compatible with ``node_map``: endpoints correspond and
    labels are equal."""
    edges1 = sorted(g1.edges)
    candidate_lists = []
    for e in edges1:
        s, t, lab = g1.edges[e]
        cands = [
            f
            for f, (fs, ft, flab) in g2.edges.items()
            if fs == node_map[s] and ft == node_map[t] and flab == lab
        ]
        if not cands:
            return
        candidate_lists.append(cands)
    for combo in itertools.product(*candidate_lists):
        if injective and len(set(combo)) != len(combo):
            continue
        yield dict(zip(edges1, combo))


def _props_carried(g1: PropertyGraph, g2: PropertyGraph, node_map, edge_map) -> bool:
    merged = dict(node_map)
    merged.update(edge_map)
    return all(g2.props.get((merged[x], k)) == d for (x, k), d in g1.props.items())


def brute_hom_exists(g1: PropertyGraph, g2: PropertyGraph) -> bool:
    nodes1 = sorted(g1.nodes)
    for images in itertools.product(sorted(g2.nodes), repeat=len(nodes1)):
        node_map = dict(zip(nodes1, images))
        if any(g1.nodes[v] != g2.nodes[w] for v, w in node_map.items()):
            continue
        for edge_map in _edge_maps(g1, g2, node_map, injective=False):
            if _props_carried(g1, g2, node_map, edge_map):
                return True
    return False


def brute_sub_exists(g1: PropertyGraph, g2: PropertyGraph) -> bool:
    nodes1, nodes2 = sorted(g1.nodes), sorted(g2.nodes)
    if len(nodes1) > len(nodes2):
        return False
    for images in itertools.permutations(nodes2, len(nodes1)):
        node_map = dict(zip(nodes1, images))
        if any(g1.nodes[v] != g2.nodes[w] for v, w in node_map.items()):
            continue
        for edge_map in _edge_maps(g1, g2, node_map, injective=True):
            if _props_carried(g1, g2, node_map, edge_map):
                return True
    return False


def brute_iso_exists(g1: PropertyGraph, g2: PropertyGraph) -> bool:
    if len(g1.nodes) != len(g2.nodes) or len(g1.edges) != len(g2.edges):
        return False
    nodes1, nodes2 = sorted(g1.nodes), sorted(g2.nodes)
    for images in itertools.permutations(nodes2, len(nodes1)):
        node_map = dict(zip(nodes1, images))
        if any(g1.nodes[v] != g2.nodes[w] for v, w in node_map.items()):
            continue
        for edge_map in _edge_maps(g1, g2, node_map, injective=True):
            if len(set(edge_map.values())) != len(g2.edges):
                continue
            if not _props_carried(g1, g2, node_map, edge_map):
                continue
            merged = dict(node_map)
            merged.update(edge_map)
            back = {y: x for x, y in merged.items()}
            if all(g1.props.get((back[y], k)) == d for (y, k), d in g2.props.items()):
                return True
    return False
