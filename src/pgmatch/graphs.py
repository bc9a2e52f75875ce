"""Property graphs: directed multigraphs whose nodes and edges carry a label
and a partial key-value property map.

Identifiers, labels, keys and values are opaque strings compared by exact
text equality; a missing property entry means the property is undefined.
Graphs and matchings are plain immutable values: every operation that
"changes" a graph returns a new one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .records import RecordSyntaxError, format_record, tokenize_line


class UnknownIdError(ValueError):
    """A matching mentions an id that is not present in the graph it refers to."""


class GraphFormatError(ValueError):
    """Graph text that cannot be parsed or describes an invalid graph."""


def _sorted_copy(d: dict) -> dict:
    """A copy of ``d`` whose keys are in sorted order: a plain copy when
    they already are."""
    keys = sorted(d)
    return dict(d) if keys == list(d) else {k: d[k] for k in keys}


@dataclass(frozen=True)
class PropertyGraph:
    """A directed multigraph with labels and properties on nodes and edges.

    ``nodes`` maps node id to label, ``edges`` maps edge id to
    ``(src, tgt, label)``, and ``props`` maps ``(owner id, key)`` to a value,
    where the owner is a node or an edge. Each map is copied with its keys
    in sorted order, so all iteration over a graph is deterministic.
    Instances are safe to share: treat them as immutable.

    Construction does not enforce the graph invariants; ``validate`` reports
    violations as data.
    """

    nodes: dict[str, str] = field(default_factory=dict)
    edges: dict[str, tuple[str, str, str]] = field(default_factory=dict)
    props: dict[tuple[str, str], str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", _sorted_copy(self.nodes))
        object.__setattr__(
            self, "edges", {e: (s, t, l) for e, (s, t, l) in _sorted_copy(self.edges).items()}
        )
        object.__setattr__(self, "props", _sorted_copy(self.props))

    def has_id(self, x: str) -> bool:
        return x in self.nodes or x in self.edges

    def props_of(self, owner: str) -> dict[str, str]:
        """The key -> value map attached to one node or edge (possibly empty)."""
        return {k: v for (o, k), v in self.props.items() if o == owner}


def validate(g: PropertyGraph) -> list[str]:
    """Describe every violated graph invariant; an empty list means valid.

    Violations are data, not failures: building an inconsistent graph is
    allowed, using it where a valid graph is required is not.
    """
    nodes, edges = g.nodes, g.edges
    issues = [
        f"id {x!r} is used as both a node and an edge" for x in sorted(nodes.keys() & edges.keys())
    ]
    for e, (s, t, _) in edges.items():
        if s not in nodes:
            issues.append(f"edge {e!r}: source {s!r} is not a node")
        if t not in nodes:
            issues.append(f"edge {e!r}: target {t!r} is not a node")
    for owner, key in g.props:
        if owner not in nodes and owner not in edges:
            issues.append(f"property ({owner!r}, {key!r}): owner {owner!r} does not exist")
    return issues


@dataclass(frozen=True)
class Matching:
    """A correspondence between two graphs: node ids to node ids and edge ids
    to edge ids.

    The edge map is stored explicitly because parallel edges make it
    underdetermined by the node map. The record itself does not force
    injectivity (homomorphism witnesses may collapse nodes); operations that
    need injectivity check it.
    """

    node_map: dict[str, str] = field(default_factory=dict)
    edge_map: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "node_map", _sorted_copy(self.node_map))
        object.__setattr__(self, "edge_map", _sorted_copy(self.edge_map))

    def is_injective(self) -> bool:
        return len(set(self.node_map.values())) == len(self.node_map) and len(
            set(self.edge_map.values())
        ) == len(self.edge_map)

    def inverted(self) -> Matching:
        """Swap the two sides; only defined for injective matchings."""
        if not self.is_injective():
            raise ValueError("matching is not injective and cannot be inverted")
        return Matching(
            {w: v for v, w in self.node_map.items()},
            {f: e for e, f in self.edge_map.items()},
        )

    def id_map(self) -> dict[str, str]:
        """Node and edge correspondences merged into a single id renaming."""
        merged = dict(self.node_map)
        merged.update(self.edge_map)
        return merged


def _check_matching_ids(h: Matching, g1: PropertyGraph, g2: PropertyGraph) -> None:
    for v, w in h.node_map.items():
        if v not in g1.nodes:
            raise UnknownIdError(f"matching maps unknown node {v!r}")
        if w not in g2.nodes:
            raise UnknownIdError(f"matching maps node {v!r} to unknown node {w!r}")
    for e, f in h.edge_map.items():
        if e not in g1.edges:
            raise UnknownIdError(f"matching maps unknown edge {e!r}")
        if f not in g2.edges:
            raise UnknownIdError(f"matching maps edge {e!r} to unknown edge {f!r}")


def matching_violations(h: Matching, g1: PropertyGraph, g2: PropertyGraph) -> list[str]:
    """Check the partial-isomorphism invariants: injectivity both ways and
    edge-endpoint consistency. Unknown ids raise; everything else is reported."""
    _check_matching_ids(h, g1, g2)
    issues: list[str] = []
    if not h.is_injective():
        issues.append("matching is not injective")
    for e, f in h.edge_map.items():
        s1, t1, _ = g1.edges[e]
        s2, t2, _ = g2.edges[f]
        if h.node_map.get(s1) != s2 or h.node_map.get(t1) != t2:
            issues.append(f"edge pair {e!r} -> {f!r} is not endpoint-consistent")
    return issues


def check_homomorphism(h: Matching, g1: PropertyGraph, g2: PropertyGraph) -> bool:
    """Is ``h`` a label- and structure-preserving total map from g1 into g2?

    Requires: totality on g1's nodes and edges, equal labels, preserved edge
    endpoints, and every property defined in g1 present with the same value
    on the matched element of g2 (g2 may carry extra properties).
    """
    _check_matching_ids(h, g1, g2)
    for v, lab in g1.nodes.items():
        w = h.node_map.get(v)
        if w is None or g2.nodes[w] != lab:
            return False
    for e, (s1, t1, lab) in g1.edges.items():
        f = h.edge_map.get(e)
        if f is None:
            return False
        s2, t2, lab2 = g2.edges[f]
        if lab2 != lab or h.node_map[s1] != s2 or h.node_map[t1] != t2:
            return False
    for (x, k), d in g1.props.items():
        y = h.node_map[x] if x in h.node_map else h.edge_map.get(x)
        if g2.props.get((y, k)) != d:
            return False
    return True


def check_isomorphism(h: Matching, g1: PropertyGraph, g2: PropertyGraph) -> bool:
    """Is ``h`` an invertible homomorphism whose inverse is also one?

    Implies bijectivity on nodes and edges and exact property equality in
    both directions.
    """
    _check_matching_ids(h, g1, g2)
    if not h.is_injective():
        return False
    if set(h.node_map.values()) != set(g2.nodes) or set(h.edge_map.values()) != set(g2.edges):
        return False
    return check_homomorphism(h, g1, g2) and check_homomorphism(h.inverted(), g2, g1)


def check_subgraph_embedding(h: Matching, g1: PropertyGraph, g2: PropertyGraph) -> bool:
    """Is ``h`` an injective total homomorphism g1 -> g2?

    Property containment is one-way only: g2 may have extra structure and
    extra properties everywhere.
    """
    _check_matching_ids(h, g1, g2)
    return h.is_injective() and check_homomorphism(h, g1, g2)


def rename_graph(g: PropertyGraph, mapping: dict[str, str]) -> PropertyGraph:
    """Rewrite every id through ``mapping`` (identity where missing).

    Renaming must keep distinct ids distinct. Used to compare an edited graph
    with a target graph when a matching pairs differently named elements.
    """
    def ren(x: str) -> str:
        return mapping.get(x, x)

    seen: dict[str, str] = {}
    for old in list(g.nodes) + list(g.edges):
        new = ren(old)
        if new in seen:
            raise ValueError(f"renaming collapses {seen[new]!r} and {old!r} into {new!r}")
        seen[new] = old
    nodes = {ren(v): lab for v, lab in g.nodes.items()}
    edges = {ren(e): (ren(s), ren(t), lab) for e, (s, t, lab) in g.edges.items()}
    props = {(ren(x), k): d for (x, k), d in g.props.items()}
    return PropertyGraph(nodes, edges, props)


def parse_graph(text: str) -> PropertyGraph:
    """Parse the line-based graph format.

    Records: ``n <id> <label>``, ``e <id> <src> <tgt> <label>``,
    ``p <owner> <key> <value>``. Duplicate ids or property keys and graphs
    with invariant violations are rejected.
    """
    nodes: dict[str, str] = {}
    edges: dict[str, tuple[str, str, str]] = {}
    props: dict[tuple[str, str], str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if '"' in line or "#" in line:
            try:
                tokens = tokenize_line(line, lineno)
            except RecordSyntaxError as exc:
                raise GraphFormatError(str(exc)) from exc
        else:
            tokens = line.split()
        n = len(tokens)
        if n == 3 and tokens[0] == "n":
            _, nid, lab = tokens
            if nid in nodes:
                raise GraphFormatError(f"line {lineno}: duplicate node id {nid!r}")
            nodes[nid] = lab
        elif n == 5 and tokens[0] == "e":
            _, eid, src, tgt, lab = tokens
            if eid in edges:
                raise GraphFormatError(f"line {lineno}: duplicate edge id {eid!r}")
            edges[eid] = (src, tgt, lab)
        elif n == 4 and tokens[0] == "p":
            _, owner, key, value = tokens
            if (owner, key) in props:
                raise GraphFormatError(f"line {lineno}: duplicate property ({owner!r}, {key!r})")
            props[(owner, key)] = value
        elif n:
            raise GraphFormatError(f"line {lineno}: unrecognized record {tokens!r}")
    g = PropertyGraph(nodes, edges, props)
    issues = validate(g)
    if issues:
        raise GraphFormatError("invalid graph: " + "; ".join(issues))
    return g


def format_graph(g: PropertyGraph) -> str:
    """Render a graph in the line-based text format (inverse of parse_graph)."""
    lines = [format_record(["n", v, lab]) for v, lab in g.nodes.items()]
    lines += [format_record(["e", e, s, t, lab]) for e, (s, t, lab) in g.edges.items()]
    lines += [format_record(["p", x, k, d]) for (x, k), d in g.props.items()]
    return "\n".join(lines) + ("\n" if lines else "")


def load_graph(path: str) -> PropertyGraph:
    with open(path, encoding="utf-8") as fh:
        return parse_graph(fh.read())
