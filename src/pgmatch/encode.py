"""Render property graphs as fact sets and matching problems as solver-ready
answer-set programs (Clingo-style syntax).

A graph becomes ``n<i>(id,label)``, ``e<i>(id,src,tgt,label)`` and
``p<i>(owner,key,value)`` facts, where ``i`` is 1 for the source graph and 2
for the target graph. Problem programs constrain a relation ``h/2`` that
pairs elements of the two graphs, and the edit-distance programs derive and
minimize edit costs from it.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass

from .editing import MODE_LABEL_HARD, MODE_RELABEL, CostModel
from .graphs import PropertyGraph, validate
from .records import quote

_BARE = re.compile(r"[a-z][a-zA-Z0-9_]*\Z")
_RESERVED = frozenset({"not"})


def escape_atom(text: str) -> str:
    """Render one constant: bare when it is a safe lowercase name, otherwise
    a quoted string. Distinct inputs never collide."""
    if _BARE.match(text) and text not in _RESERVED:
        return text
    return quote(text)


class _Escaped(dict):
    """``escape_atom`` of each string looked up, computed once per string."""

    def __missing__(self, text: str) -> str:
        self[text] = atom = escape_atom(text)
        return atom


def _fact_text(pred: str, atoms) -> str:
    """One fact ``pred(atom,...).`` from its already escaped arguments."""
    return f"{pred}({','.join(atoms)})." if atoms else f"{pred}."


@dataclass(frozen=True)
class Fact:
    """One ground fact; arguments are stored unescaped."""

    pred: str
    args: tuple[str, ...]

    def render(self) -> str:
        return _fact_text(self.pred, [escape_atom(a) for a in self.args])


class ProblemKind(enum.Enum):
    """The matching problems this package can render as programs."""

    HOM = "hom"
    ISO = "iso"
    SUB = "sub"
    GED = "ged"
    GED_RELABEL = "ged-relabel"
    GEDC_WEIGHTED = "gedc"
    APPROX_SUB_OLD = "approx-sub-old"
    APPROX_SUB_NEW = "approx-sub-new"

    @classmethod
    def from_name(cls, name: str) -> "ProblemKind":
        for kind in cls:
            if kind.value == name or kind.name.lower() == name.lower():
                return kind
        raise ValueError(f"unknown problem kind {name!r}")


# The gedc program's ``#const c_<name>`` values, each named by the cost-model
# weight it takes; the program has no property rule, so property edits cost
# nothing in it.
_GEDC_CONSTS = {
    "node_sub": "node_sub",
    "node_ins": "insV",
    "node_del": "delV",
    "edge_sub": "edge_sub",
    "edge_ins": "insE",
    "edge_del": "delE",
}
GEDC_WEIGHTS = frozenset(_GEDC_CONSTS.values())

# The matching mode of each edit-distance kind's program: ged keeps labels
# hard, ged-relabel and gedc price a label change as a substitution.
EDIT_KIND_MODES = {
    ProblemKind.GED: MODE_LABEL_HARD,
    ProblemKind.GED_RELABEL: MODE_RELABEL,
    ProblemKind.GEDC_WEIGHTED: MODE_RELABEL,
}


def kind_cost_model(kind: ProblemKind, cm: CostModel | None = None) -> CostModel:
    """The cost model the program of an edit-distance ``kind`` encodes: unit
    costs for ged and ged-relabel, and for gedc the node and edge weights of
    ``cm`` (``CostModel.gedc()`` when None) with property weights 0."""
    if kind is ProblemKind.GEDC_WEIGHTED:
        cm = cm or CostModel.gedc()
        weights = {k: (w if k in GEDC_WEIGHTS else 0) for k, w in cm.weights.items()}
        return CostModel(weights, cm.node_sub, cm.edge_sub)
    if kind not in EDIT_KIND_MODES:
        raise ValueError(f"{kind.value} is not an edit-distance kind")
    if cm is not None:
        raise ValueError(f"{kind.value} does not take a cost model")
    return CostModel.unit()


@dataclass(frozen=True)
class AspProgram:
    kind: ProblemKind
    text: str
    constants: dict[str, int] | None = None


def _check_graph(g: PropertyGraph, which: int) -> None:
    if which not in (1, 2):
        raise ValueError("which must be 1 or 2")
    issues = validate(g)
    if issues:
        raise ValueError(f"graph {which} is invalid: " + "; ".join(issues))


def encode_graph_facts(g: PropertyGraph, which: int) -> list[Fact]:
    """Facts describing one graph, suffix 1 or 2, in node/edge/property order
    and sorted within each block."""
    _check_graph(g, which)
    facts = [Fact(f"n{which}", (v, lab)) for v, lab in g.nodes.items()]
    facts += [Fact(f"e{which}", (e, s, t, lab)) for e, (s, t, lab) in g.edges.items()]
    facts += [Fact(f"p{which}", (x, k, d)) for (x, k), d in g.props.items()]
    return facts


def decode_graph_facts(facts: list[Fact], which: int) -> PropertyGraph:
    """Rebuild a graph from its fact set (inverse of encode_graph_facts)."""
    nodes: dict[str, str] = {}
    edges: dict[str, tuple[str, str, str]] = {}
    props: dict[tuple[str, str], str] = {}
    arities = {f"n{which}": 2, f"e{which}": 4, f"p{which}": 3}
    for fact in facts:
        if fact.pred not in arities:
            raise ValueError(f"unexpected predicate {fact.pred!r} for graph {which}")
        if len(fact.args) != arities[fact.pred]:
            raise ValueError(f"wrong arity in fact {fact.render()}")
        if fact.pred == f"n{which}":
            nodes[fact.args[0]] = fact.args[1]
        elif fact.pred == f"e{which}":
            edges[fact.args[0]] = (fact.args[1], fact.args[2], fact.args[3])
        else:
            props[(fact.args[0], fact.args[1])] = fact.args[2]
    return PropertyGraph(nodes, edges, props)


def _graph_fact_lines(g: PropertyGraph, which: int, atom: _Escaped) -> list[str]:
    """The rendered ``encode_graph_facts(g, which)``, built straight from the
    graph's dicts with the escaped strings of ``atom``."""
    _check_graph(g, which)
    n, e, p = f"n{which}", f"e{which}", f"p{which}"
    lines = [_fact_text(n, (atom[v], atom[lab])) for v, lab in g.nodes.items()]
    lines += [
        _fact_text(e, (atom[x], atom[s], atom[t], atom[lab]))
        for x, (s, t, lab) in g.edges.items()
    ]
    lines += [_fact_text(p, (atom[x], atom[k], atom[d])) for (x, k), d in g.props.items()]
    return lines


_HOM_RULES = """\
{h(X,Y) : n2(Y,L)} = 1 :- n1(X,L).
{h(X,Y) : e2(Y,S2,T2,L), h(S1,S2), h(T1,T2)} = 1 :- e1(X,S1,T1,L).
:- p1(X,K,D), h(X,Y), not p2(Y,K,D).
"""

_ISO_EXTRA = """\
{h(X,Y) : n1(X,L)} = 1 :- n2(Y,L).
{h(X,Y) : e1(X,S1,T1,L), h(S1,S2), h(T1,T2)} = 1 :- e2(Y,S2,T2,L).
:- p2(Y,K,D), h(X,Y), not p1(X,K,D).
"""

_SUB_EXTRA = """\
{h(X,Y) : n1(X,L)} <= 1 :- n2(Y,L).
{h(X,Y) : e1(X,S1,T1,L), h(S1,S2), h(T1,T2)} <= 1 :- e2(Y,S2,T2,L).
"""

_GED_MATCH_LABELED = """\
{h(X,Y) : n2(Y,L)} <= 1 :- n1(X,L).
{h(X,Y) : n1(X,L)} <= 1 :- n2(Y,L).
{h(X,Y) : e2(Y,S2,T2,L), h(S1,S2), h(T1,T2)} <= 1 :- e1(X,S1,T1,L).
{h(X,Y) : e1(X,S1,T1,L), h(S1,S2), h(T1,T2)} <= 1 :- e2(Y,S2,T2,L).
"""

_GED_MATCH_UNLABELED = """\
{h(X,Y) : n2(Y,_)} <= 1 :- n1(X,_).
{h(X,Y) : n1(X,_)} <= 1 :- n2(Y,_).
{h(X,Y) : e2(Y,S2,T2,_), h(S1,S2), h(T1,T2)} <= 1 :- e1(X,S1,T1,_).
{h(X,Y) : e1(X,S1,T1,_), h(S1,S2), h(T1,T2)} <= 1 :- e2(Y,S2,T2,_).
"""

_GED_DIFF = """\
delete_node(X) :- n1(X,_), not h(X,_).
insert_node(Y,L) :- n2(Y,L), not h(_,Y).

delete_edge(X) :- e1(X,_,_,_), not h(X,_).
insert_edge(Y,S,T,L) :- e2(Y,S,T,L), not h(_,Y).
"""

_GED_RELABEL_DIFF = """\
relabel_node(X,L2) :- n1(X,L1), h(X,Y), n2(Y,L2), L1 != L2.
relabel_edge(X,L2) :- e1(X,_,_,L1), h(X,Y), e2(Y,_,_,L2), L1 != L2.
"""

_GED_PROPS = """\
update_prop(X,K,V1,V2) :- p1(X,K,V1), h(X,Y), p2(Y,K,V2), V1 != V2.
delete_prop(X,K) :- p1(X,K,_), h(X,Y), not p2(Y,K,_).
delete_prop(X,K) :- p1(X,K,_), delete_node(X).
delete_prop(X,K) :- p1(X,K,_), delete_edge(X).
insert_prop(Y,K,V) :- p2(Y,K,V), h(X,Y), not p1(X,K,_).
insert_prop(Y,K,V) :- p2(Y,K,V), insert_node(Y,_).
insert_prop(Y,K,V) :- p2(Y,K,V), insert_edge(Y,_,_,_).
"""

_GED_COSTS = """\
node_cost(Y,1) :- insert_node(Y,_).
node_cost(X,1) :- delete_node(X).

edge_cost(Y,1) :- insert_edge(Y,_,_,_).
edge_cost(X,1) :- delete_edge(X).
"""

_GED_RELABEL_COSTS = """\
node_cost(Y,1) :- insert_node(Y,_).
node_cost(X,1) :- delete_node(X).
node_cost(X,1) :- relabel_node(X,_).

edge_cost(Y,1) :- insert_edge(Y,_,_,_).
edge_cost(X,1) :- delete_edge(X).
edge_cost(X,1) :- relabel_edge(X,_).
"""

_GED_PROP_COSTS = """\
prop_cost(X,K,1) :- update_prop(X,K,V1,V2).
prop_cost(X,K,1) :- delete_prop(X,K).
prop_cost(Y,K,1) :- insert_prop(Y,K,V).
"""

_GED_MINIMIZE = """\
#minimize { NC,X : node_cost(X,NC);
            EC,X : edge_cost(X,EC);
            LC,X,K : prop_cost(X,K,LC) }.
"""

_GEDC_COSTS = """\
node_cost(X,c_node_sub) :- n1(X,L1), h(X,Y), n2(Y,L2), L1 != L2.
node_cost(Y,c_node_ins) :- n2(Y,L), not h(_,Y).
node_cost(X,c_node_del) :- n1(X,_), not h(X,_).

edge_cost(X,c_edge_sub) :- e1(X,_,_,L1), h(X,Y), e2(Y,_,_,L2), L1 != L2.
edge_cost(Y,c_edge_ins) :- e2(Y,_,_,_), not h(_,Y).
edge_cost(X,c_edge_del) :- e1(X,_,_,_), not h(X,_).

#minimize { NC,X : node_cost(X,NC);
            EC,X : edge_cost(X,EC) }.
"""

_APPROX_SUB_OLD = """\
{h(X,Y) : n2(Y,_)} = 1 :- n1(X,_).
{h(X,Y) : e2(Y,_,_,_)} = 1 :- e1(X,_,_,_).
:- X != Y, h(X,Z), h(Y,Z).
:- X != Y, h(Z,Y), h(Z,X).
:- n1(X,L), h(X,Y), not n2(Y,L).
:- e1(E1,_,_,L), h(E1,E2), not e2(E2,_,_,L).
:- e1(E1,X1,_,_), h(E1,E2), e2(E2,Y1,_,_), not h(X1,Y1).
:- e1(E1,_,X2,_), h(E1,E2), e2(E2,_,Y2,_), not h(X2,Y2).

#minimize { LC,X,K : prop_cost(X,K,LC) }.
prop_cost(X,K,0) :- p1(X,K,V), h(X,Y), p2(Y,K,V).
prop_cost(X,K,1) :- p1(X,K,V1), h(X,Y), p2(Y,K,V2), V1 != V2.
prop_cost(X,K,1) :- p1(X,K,V), h(X,Y), not p2(Y,K,_).
"""

_APPROX_SUB_NEW = """\
{h(X,Y) : n2(Y,L)} = 1 :- n1(X,L).
{h(X,Y) : n1(X,L)} <= 1 :- n2(Y,L).
{h(X,Y) : e2(Y,S2,T2,L), h(S1,S2), h(T1,T2)} = 1 :- e1(X,S1,T1,L).
{h(X,Y) : e1(X,S1,T1,L), h(S1,S2), h(T1,T2)} <= 1 :- e2(Y,S2,T2,L).

prop_cost(X,K,0) :- p1(X,K,V), h(X,Y), p2(Y,K,V).
prop_cost(X,K,1) :- p1(X,K,V1), h(X,Y), p2(Y,K,V2), V1 != V2.
prop_cost(X,K,1) :- p1(X,K,V), h(X,Y), not p2(Y,K,_).
#minimize { LC,X,K : prop_cost(X,K,LC) }.
"""


_PROGRAMS = {
    ProblemKind.HOM: _HOM_RULES,
    ProblemKind.ISO: _HOM_RULES + _ISO_EXTRA,
    ProblemKind.SUB: _HOM_RULES + _SUB_EXTRA,
    ProblemKind.GED: "\n".join(
        [_GED_MATCH_LABELED, _GED_DIFF, _GED_PROPS, _GED_COSTS, _GED_PROP_COSTS, _GED_MINIMIZE]
    ),
    ProblemKind.GED_RELABEL: "\n".join(
        [
            _GED_MATCH_UNLABELED,
            _GED_DIFF,
            _GED_RELABEL_DIFF,
            _GED_PROPS,
            _GED_RELABEL_COSTS,
            _GED_PROP_COSTS,
            _GED_MINIMIZE,
        ]
    ),
    ProblemKind.APPROX_SUB_OLD: _APPROX_SUB_OLD,
    ProblemKind.APPROX_SUB_NEW: _APPROX_SUB_NEW,
}


def encode_problem(kind: ProblemKind, cm: CostModel | None = None) -> AspProgram:
    """The rule text for one problem kind.

    ``cm`` is required for (and only for) the weighted-constants kind, whose
    six ``#const`` weights it supplies.
    """
    if kind is ProblemKind.GEDC_WEIGHTED:
        if cm is None:
            raise ValueError("the weighted-constants kind needs a cost model")
        weights = {**cm.weights, "node_sub": cm.node_sub, "edge_sub": cm.edge_sub}
        constants = {name: weights[w] for name, w in _GEDC_CONSTS.items()}
        header = "".join(f"#const c_{name}={value}.\n" for name, value in constants.items())
        return AspProgram(kind, "\n".join([header, _GED_MATCH_UNLABELED, _GEDC_COSTS]), constants)
    if cm is not None:
        raise ValueError(f"{kind.value} does not take a cost model")
    if kind not in _PROGRAMS:
        raise ValueError(f"unknown problem kind {kind!r}")
    return AspProgram(kind, _PROGRAMS[kind])


def render_job(
    g1: PropertyGraph, g2: PropertyGraph, kind: ProblemKind, cm: CostModel | None = None
) -> str:
    """A complete solver job: both graphs' facts followed by the problem
    rules. Byte-for-byte deterministic for fixed inputs.

    The two graphs must use disjoint id spaces; otherwise the pairing atoms
    and cost terms become ambiguous.
    """
    atom = _Escaped()
    facts1 = _graph_fact_lines(g1, 1, atom)
    facts2 = _graph_fact_lines(g2, 2, atom)
    ids1 = set(g1.nodes) | set(g1.edges)
    ids2 = set(g2.nodes) | set(g2.edges)
    shared = ids1 & ids2
    if shared:
        raise ValueError(
            "graphs must use disjoint ids for solver jobs; shared: "
            + ", ".join(sorted(shared)[:5])
        )
    blocks = []
    if facts1:
        blocks.append("\n".join(facts1) + "\n")
    if facts2:
        blocks.append("\n".join(facts2) + "\n")
    blocks.append(encode_problem(kind, cm).text)
    return "\n".join(blocks)
