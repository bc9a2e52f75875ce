"""Known-answer checks, written against the benchmark's own graph values.

Nothing here calls pgmatch's searches, its ``check_*`` functions or its
``apply_script``: witnesses are verified, scripts re-applied and costs
re-priced by this module, so a wrong answer from pgmatch cannot vouch for
itself. Every failed check raises ``KnownAnswerMismatch``.
"""

from __future__ import annotations

from cells import SAT, UNSAT, Graph


class KnownAnswerMismatch(Exception):
    """pgmatch's answer disagrees with the answer known from construction."""


def check_verdict(kind: str, g1: Graph, g2: Graph, expect: str, witness) -> None:
    """``witness`` is the Matching pgmatch returned, or None for UNSAT."""
    got = UNSAT if witness is None else SAT
    if got != expect:
        raise KnownAnswerMismatch(f"{kind} verdict {got}, known answer {expect}")
    if witness is not None:
        check_witness(kind, g1, g2, dict(witness.node_map), dict(witness.edge_map))


def check_witness(kind: str, g1: Graph, g2: Graph, node_map: dict, edge_map: dict) -> None:
    """A hom witness is total and preserves labels, endpoints and g1's
    properties; sub adds injectivity; iso adds bijectivity and equal
    properties both ways."""
    if set(node_map) != set(g1.nodes) or set(edge_map) != set(g1.edges):
        raise KnownAnswerMismatch(f"{kind} witness is not total on the pattern")
    for v, w in node_map.items():
        if w not in g2.nodes or g2.nodes[w] != g1.nodes[v]:
            raise KnownAnswerMismatch(f"{kind} witness maps node {v} to {w} with another label")
    for e, f in edge_map.items():
        s, t, lab = g1.edges[e]
        if f not in g2.edges or g2.edges[f] != (node_map[s], node_map[t], lab):
            raise KnownAnswerMismatch(f"{kind} witness maps edge {e} to non-matching {f}")
    image = dict(node_map, **edge_map)
    for (x, k), d in g1.props.items():
        if g2.props.get((image[x], k)) != d:
            raise KnownAnswerMismatch(f"{kind} witness loses property ({x}, {k})")
    if kind == "hom":
        return
    if len(set(node_map.values())) != len(node_map) or len(set(edge_map.values())) != len(edge_map):
        raise KnownAnswerMismatch(f"{kind} witness is not injective")
    # Injective and property-preserving, so equal counts make it onto, with
    # equal properties both ways.
    if kind == "iso" and (len(g1.nodes), len(g1.edges), len(g1.props)) != (
        len(g2.nodes),
        len(g2.edges),
        len(g2.props),
    ):
        raise KnownAnswerMismatch("iso witness is not onto")


def apply_ops(g: Graph, ops: list) -> Graph:
    """Apply pgmatch edit operations, read field by field, to a copy of g,
    enforcing the operations' preconditions."""
    nodes, edges, props = dict(g.nodes), dict(g.edges), dict(g.props)
    owners: dict = {}
    for x, _ in props:
        owners[x] = owners.get(x, 0) + 1
    degree: dict = {}
    for s, t, _ in edges.values():
        degree[s] = degree.get(s, 0) + 1
        degree[t] = degree.get(t, 0) + 1

    def fail(op, why):
        raise KnownAnswerMismatch(f"script step {op!r} is invalid: {why}")

    for op in ops:
        kind = op.kind
        if kind == "insV":
            if op.node in nodes or op.node in edges:
                fail(op, "id exists")
            nodes[op.node] = op.label
        elif kind == "insE":
            if op.edge in nodes or op.edge in edges or op.src not in nodes or op.tgt not in nodes:
                fail(op, "id exists or endpoint missing")
            edges[op.edge] = (op.src, op.tgt, op.label)
            degree[op.src] = degree.get(op.src, 0) + 1
            degree[op.tgt] = degree.get(op.tgt, 0) + 1
        elif kind == "insP":
            if (op.owner not in nodes and op.owner not in edges) or (op.owner, op.key) in props:
                fail(op, "owner missing or property exists")
            props[(op.owner, op.key)] = op.value
            owners[op.owner] = owners.get(op.owner, 0) + 1
        elif kind == "delV":
            if op.node not in nodes or degree.get(op.node) or owners.get(op.node):
                fail(op, "node missing, attached or carrying properties")
            del nodes[op.node]
        elif kind == "delE":
            if op.edge not in edges or owners.get(op.edge):
                fail(op, "edge missing or carrying properties")
            s, t, _ = edges.pop(op.edge)
            degree[s] -= 1
            degree[t] -= 1
        elif kind == "delP":
            if (op.owner, op.key) not in props:
                fail(op, "property missing")
            del props[(op.owner, op.key)]
            owners[op.owner] -= 1
        elif kind == "updP":
            if (op.owner, op.key) not in props:
                fail(op, "property missing")
            props[(op.owner, op.key)] = op.value
        elif kind == "relV":
            if op.node not in nodes:
                fail(op, "node missing")
            nodes[op.node] = op.label
        elif kind == "relE":
            if op.edge not in edges:
                fail(op, "edge missing")
            s, t, _ = edges[op.edge]
            edges[op.edge] = (s, t, op.label)
        else:
            fail(op, "unknown operation")
    return Graph(nodes, edges, props)


def rename(g: Graph, ren: dict) -> Graph:
    def r(x):
        return ren.get(x, x)

    return Graph(
        {r(v): lab for v, lab in g.nodes.items()},
        {r(e): (r(s), r(t), lab) for e, (s, t, lab) in g.edges.items()},
        {(r(x), k): d for (x, k), d in g.props.items()},
    )


def same_graph(a: Graph, b: Graph) -> bool:
    return a.nodes == b.nodes and a.edges == b.edges and a.props == b.props


def price(ops: list, weights: dict) -> int:
    return sum(weights[op.kind] for op in ops)


def check_script(g1: Graph, g2: Graph, node_map: dict, edge_map: dict, ops: list) -> Graph:
    """Applying ``ops`` to g1 and renaming matched ids gives exactly g2;
    returns the edited graph before renaming."""
    edited = apply_ops(g1, ops)
    if not same_graph(rename(edited, dict(node_map, **edge_map)), g2):
        raise KnownAnswerMismatch("the script does not turn the source into the target")
    return edited


def check_ged(g1: Graph, g2: Graph, optimum: int, weights: dict, result) -> int:
    """Check a GedResult against the known optimum; returns how far a
    not-proven cost lies above it."""
    check_script(g1, g2, dict(result.matching.node_map), dict(result.matching.edge_map), result.script)
    priced = price(result.script, weights)
    if priced != result.cost:
        raise KnownAnswerMismatch(f"reported cost {result.cost}, script prices at {priced}")
    if result.cost < optimum or (result.optimal and result.cost != optimum):
        raise KnownAnswerMismatch(
            f"cost {result.cost} (optimal={result.optimal}), known optimum {optimum}"
        )
    return result.cost - optimum


def expect_equal(what: str, got, want) -> None:
    if got != want:
        raise KnownAnswerMismatch(f"{what}: got {_short(got)}, known answer {_short(want)}")


def _short(x) -> str:
    text = repr(x)
    return text if len(text) <= 120 else text[:117] + "..."
