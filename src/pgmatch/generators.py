"""Synthetic graph generators: chains, cycles and seeded random graphs.

All generators are pure functions of their arguments. Ids are zero-padded so
lexicographic order matches construction order, and an id prefix keeps the
id spaces of two generated graphs disjoint (solver jobs require that).
"""

from __future__ import annotations

import random

from .graphs import PropertyGraph

NODE_LABEL = "n"
EDGE_LABEL = "e"


def _node(prefix: str, i: int) -> str:
    return f"{prefix}v{i:03d}"


def _edge(prefix: str, i: int) -> str:
    return f"{prefix}e{i:03d}"


def gen_chain(k: int, prefix: str = "") -> PropertyGraph:
    """A linear sequence of ``k`` edges over ``k + 1`` uniformly labeled
    nodes, no properties."""
    if k < 1:
        raise ValueError("chain length must be at least 1")
    nodes = {_node(prefix, i): NODE_LABEL for i in range(k + 1)}
    edges = {
        _edge(prefix, i): (_node(prefix, i), _node(prefix, i + 1), EDGE_LABEL)
        for i in range(k)
    }
    return PropertyGraph(nodes, edges)


def gen_cycle(k: int, prefix: str = "") -> PropertyGraph:
    """One directed cycle of ``k`` edges over ``k`` nodes (a self-loop when
    ``k`` is 1)."""
    if k < 1:
        raise ValueError("cycle length must be at least 1")
    nodes = {_node(prefix, i): NODE_LABEL for i in range(k)}
    edges = {
        _edge(prefix, i): (_node(prefix, i), _node(prefix, (i + 1) % k), EDGE_LABEL)
        for i in range(k)
    }
    return PropertyGraph(nodes, edges)


# The generators of one size ``k``, by name: suite files and ``pgmatch gen``.
SHAPES = {"chain": gen_chain, "cycle": gen_cycle}


def gen_random(n: int, p: float, seed: int, prefix: str = "") -> PropertyGraph:
    """``n`` uniformly labeled nodes; every ordered pair of distinct nodes
    receives one edge with probability ``p``, decided by a deterministic
    seeded generator. No self-loops, no parallel duplicates."""
    if n < 0:
        raise ValueError("node count must be non-negative")
    if not 0 <= p <= 1:
        raise ValueError("edge probability must be within [0, 1]")
    rng = random.Random(seed)
    nodes = {_node(prefix, i): NODE_LABEL for i in range(n)}
    edges: dict[str, tuple[str, str, str]] = {}
    count = 0
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if rng.random() < p:
                edges[_edge(prefix, count)] = (_node(prefix, i), _node(prefix, j), EDGE_LABEL)
                count += 1
    return PropertyGraph(nodes, edges)
