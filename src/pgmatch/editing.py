"""Edit operations on property graphs: application semantics, costs,
canonical form, the canonicalizing rewrite system, and derivation of edit
scripts from matchings.

An edit script is a plain list of operations, applied left to right. The
canonical form orders operations into phases::

    delP  delE  delV  updP  (relV relE)  insV  insE  insP

Relabeling operations (relV/relE) are an extension used only when matching
with in-place relabeling enabled; the rewrite system itself covers the seven
core operations.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, fields
from operator import attrgetter, itemgetter
from typing import ClassVar, Union

from .graphs import Matching, PropertyGraph, UnknownIdError, matching_violations
from .records import format_record, tokenize_line


class PreconditionViolated(Exception):
    """An edit operation was applied to a graph that does not admit it.

    ``index`` is the position of the failing operation when raised from
    script application, ``None`` for a single operation.
    """

    def __init__(self, op: "EditOp", reason: str, index: int | None = None):
        self.op = op
        self.reason = reason
        self.index = index
        where = "" if index is None else f" at index {index}"
        super().__init__(f"{format_op(op)}{where}: {reason}")


class InvalidMatchingError(ValueError):
    """A matching handed to script derivation is not a partial isomorphism."""


def _op_record(cls):
    """``cls`` as a frozen, slotted dataclass whose ``__init__`` fills each
    slot through its member descriptor, where the dataclass one calls
    ``object.__setattr__`` per field. Parameters are the fields, in order."""
    cls = dataclass(frozen=True, slots=True)(cls)
    names = [f.name for f in fields(cls)]
    namespace = {f"set_{name}": getattr(cls, name).__set__ for name in names}
    body = "".join(f"    set_{name}(self, {name})\n" for name in names)
    exec(f"def __init__(self, {', '.join(names)}):\n{body}", namespace)
    cls.__init__ = namespace["__init__"]
    cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"
    return cls


@_op_record
class InsertNode:
    kind: ClassVar[str] = "insV"
    node: str
    label: str


@_op_record
class InsertEdge:
    kind: ClassVar[str] = "insE"
    edge: str
    src: str
    tgt: str
    label: str


@_op_record
class InsertProp:
    kind: ClassVar[str] = "insP"
    owner: str
    key: str
    value: str


@_op_record
class DeleteNode:
    kind: ClassVar[str] = "delV"
    node: str


@_op_record
class DeleteEdge:
    kind: ClassVar[str] = "delE"
    edge: str


@_op_record
class DeleteProp:
    kind: ClassVar[str] = "delP"
    owner: str
    key: str


@_op_record
class UpdateProp:
    kind: ClassVar[str] = "updP"
    owner: str
    key: str
    value: str


@_op_record
class RelabelNode:
    kind: ClassVar[str] = "relV"
    node: str
    label: str


@_op_record
class RelabelEdge:
    kind: ClassVar[str] = "relE"
    edge: str
    label: str


# The operation classes; an EditOp is any one of them.
_OPS = (InsertNode, InsertEdge, InsertProp, DeleteNode, DeleteEdge, DeleteProp,
        UpdateProp, RelabelNode, RelabelEdge)
EditOp = Union[_OPS]

PHASE_ORDER = ("delP", "delE", "delV", "updP", "relV", "relE", "insV", "insE", "insP")
CORE_KINDS = frozenset({"delP", "delE", "delV", "updP", "insV", "insE", "insP"})

MODE_LABEL_HARD = "label-hard"
MODE_RELABEL = "relabel"

_PHASE_INDEX = {kind: i for i, kind in enumerate(PHASE_ORDER)}

# Per operation kind: its class, its arity, a getter of its record tokens
# (the kind, then its fields in text order), and how many fields lead its sort
# key (the owning id, then the key of a property).
_OP_KINDS = {
    cls.kind: (
        cls,
        len(fields(cls)),
        attrgetter("kind", *(f.name for f in fields(cls))),
        2 if cls.kind.endswith("P") else 1,
    )
    for cls in _OPS
}


def _element(op: EditOp) -> tuple:
    """The node, edge or (owner, key) property an operation acts on."""
    _, _, tokens, width = _OP_KINDS[op.kind]
    return tokens(op)[1 : width + 1]


def op_sort_key(op: EditOp) -> tuple:
    """Deterministic order: phase, then owning id, then key."""
    return (_PHASE_INDEX[op.kind], *_element(op))


class _Draft:
    """A mutable working copy of a graph that edit operations change in place.

    Besides the three dicts it keeps two running counts: ``ends`` is the
    number of edge endpoints at each id (a self-loop counts twice) and
    ``owned`` the number of properties each owner carries. With them every
    precondition is a lookup instead of a scan over all edges or properties.
    Each operation kind has one step, the method named by the kind, which
    checks the preconditions and then edits the draft.
    """

    def __init__(self, g: PropertyGraph):
        self.nodes = dict(g.nodes)
        self.edges = dict(g.edges)
        self.props = dict(g.props)
        self.ends = Counter(x for s, t, _ in g.edges.values() for x in (s, t))
        self.owned = Counter(owner for owner, _ in g.props)

    def insV(self, op: InsertNode, index: int | None) -> None:
        if op.node in self.nodes or op.node in self.edges:
            raise PreconditionViolated(op, f"id {op.node!r} already exists", index)
        self.nodes[op.node] = op.label

    def insE(self, op: InsertEdge, index: int | None) -> None:
        if op.edge in self.nodes or op.edge in self.edges:
            raise PreconditionViolated(op, f"id {op.edge!r} already exists", index)
        for endpoint in (op.src, op.tgt):
            if endpoint not in self.nodes:
                raise PreconditionViolated(op, f"endpoint {endpoint!r} is not a node", index)
        self.edges[op.edge] = (op.src, op.tgt, op.label)
        self.ends[op.src] += 1
        self.ends[op.tgt] += 1

    def insP(self, op: InsertProp, index: int | None) -> None:
        if op.owner not in self.nodes and op.owner not in self.edges:
            raise PreconditionViolated(op, f"owner {op.owner!r} does not exist", index)
        if (op.owner, op.key) in self.props:
            raise PreconditionViolated(op, f"property ({op.owner!r}, {op.key!r}) already exists", index)
        self.props[(op.owner, op.key)] = op.value
        self.owned[op.owner] += 1

    def delV(self, op: DeleteNode, index: int | None) -> None:
        if op.node not in self.nodes:
            raise PreconditionViolated(op, f"node {op.node!r} does not exist", index)
        if self.ends[op.node]:
            raise PreconditionViolated(op, f"node {op.node!r} is an edge endpoint", index)
        if self.owned[op.node]:
            raise PreconditionViolated(op, f"node {op.node!r} still has properties", index)
        del self.nodes[op.node]

    def delE(self, op: DeleteEdge, index: int | None) -> None:
        if op.edge not in self.edges:
            raise PreconditionViolated(op, f"edge {op.edge!r} does not exist", index)
        if self.owned[op.edge]:
            raise PreconditionViolated(op, f"edge {op.edge!r} still has properties", index)
        s, t, _ = self.edges.pop(op.edge)
        self.ends[s] -= 1
        self.ends[t] -= 1

    def delP(self, op: DeleteProp, index: int | None) -> None:
        if (op.owner, op.key) not in self.props:
            raise PreconditionViolated(op, f"property ({op.owner!r}, {op.key!r}) does not exist", index)
        del self.props[(op.owner, op.key)]
        self.owned[op.owner] -= 1

    def updP(self, op: UpdateProp, index: int | None) -> None:
        if (op.owner, op.key) not in self.props:
            raise PreconditionViolated(op, f"property ({op.owner!r}, {op.key!r}) does not exist", index)
        self.props[(op.owner, op.key)] = op.value

    def relV(self, op: RelabelNode, index: int | None) -> None:
        if op.node not in self.nodes:
            raise PreconditionViolated(op, f"node {op.node!r} does not exist", index)
        self.nodes[op.node] = op.label

    def relE(self, op: RelabelEdge, index: int | None) -> None:
        if op.edge not in self.edges:
            raise PreconditionViolated(op, f"edge {op.edge!r} does not exist", index)
        s, t, _ = self.edges[op.edge]
        self.edges[op.edge] = (s, t, op.label)

    def graph(self) -> PropertyGraph:
        return PropertyGraph(self.nodes, self.edges, self.props)


# The step of each operation class.
_STEPS = {cls: getattr(_Draft, cls.kind) for cls in _OPS}


def _step(op: EditOp):
    """The step for ``op``; an instance of a subclass applies as its base."""
    for cls in type(op).__mro__:
        if cls in _STEPS:
            return _STEPS[cls]
    raise TypeError(f"not an edit operation: {op!r}")


def apply_op(g: PropertyGraph, op: EditOp, index: int | None = None) -> PropertyGraph:
    """Apply one edit operation, returning the edited graph.

    Preconditions: inserted ids, keys or endpoints must be fresh resp.
    present; a deleted node must not be an endpoint of any edge and carry no
    properties; a deleted edge must carry no properties; deleted and updated
    properties must exist. Violations raise ``PreconditionViolated``.
    """
    draft = _Draft(g)
    _step(op)(draft, op, index)
    return draft.graph()


def apply_script(g: PropertyGraph, ops: list) -> PropertyGraph:
    """Apply the operations left to right, with the preconditions of
    ``apply_op``; fails at the first violated one, reporting its index.

    All operations edit one working copy of ``g`` and the result graph is
    built once at the end, so the time is linear in the sizes of ``g`` and
    the script (plus sorting the result). ``g`` itself is never changed.
    """
    draft = _Draft(g)
    steps = _STEPS
    for i, op in enumerate(ops):
        (steps.get(type(op)) or _step(op))(draft, op, i)
    return draft.graph()


@dataclass(frozen=True)
class CostModel:
    """Non-negative integer weight per operation kind.

    ``node_sub`` and ``edge_sub`` price in-place relabeling. Rational weights
    must be pre-scaled to integers. Matching-based distances assume updates
    and relabels are not more expensive than the corresponding delete plus
    insert; otherwise the matching optimum can exceed the unrestricted
    script optimum.
    """

    weights: dict[str, int] = field(default_factory=dict)
    node_sub: int = 1
    edge_sub: int = 1

    def __post_init__(self) -> None:
        filled = {kind: 1 for kind in CORE_KINDS}
        filled.update(self.weights)
        unknown = set(filled) - CORE_KINDS
        if unknown:
            raise ValueError(f"unknown operation kinds in cost model: {sorted(unknown)}")
        subs = (("node_sub", self.node_sub), ("edge_sub", self.edge_sub))
        for key, w in (*self.weights.items(), *subs):
            if type(w) is not int:
                raise ValueError(f"cost model weight {key} must be an integer, not {w!r}")
            if w < 0:
                raise ValueError(f"cost model weight {key} must be non-negative")
        object.__setattr__(self, "weights", dict(sorted(filled.items())))

    @classmethod
    def unit(cls) -> "CostModel":
        return cls()

    @classmethod
    def gedc(cls) -> "CostModel":
        """Weighted preset: substitution cheaper than delete plus insert
        (node sub 2, ins/del 4; edge sub 1, ins/del 2; property edits 1)."""
        return cls(
            weights={"insV": 4, "delV": 4, "insE": 2, "delE": 2},
            node_sub=2,
            edge_sub=1,
        )


def script_cost(ops: list, cm: CostModel) -> int:
    """Total weight of a script; under the unit model this is its length."""
    weight = {**cm.weights, "relV": cm.node_sub, "relE": cm.edge_sub}
    return sum([weight[op.kind] for op in ops])


def is_canonical(ops: list) -> bool:
    """True when the operation kinds follow the phase order (each phase may
    be empty; relabels sit between updates and insertions)."""
    phase = 0
    for op in ops:
        i = _PHASE_INDEX[op.kind]
        if i < phase:
            return False
        phase = i
    return True


# Rewrite actions for one marked operation inspected against its successor.
_SWAP = "swap"
_CANCEL = "cancel"
_DROP_MARKED = "drop-marked"
_UNMARK = "unmark"


def _rewrite_pair(a: EditOp, b: EditOp):
    """First matching rewrite rule for the marked operation ``a`` followed by
    ``b``. Returns an action, or ``(merge, op)`` to replace both with a new
    marked operation."""
    ka, kb = a.kind, b.kind
    if (ka, kb) in {
        ("delE", "delP"),
        ("delV", "delP"),
        ("delV", "delE"),
        ("updP", "delE"),
        ("updP", "delV"),
        ("insV", "delP"),
        ("insV", "delE"),
        ("insV", "updP"),
        ("insE", "delP"),
        ("insE", "delV"),
        ("insE", "updP"),
        ("insE", "insV"),
        ("insP", "delE"),
        ("insP", "delV"),
        ("insP", "insV"),
        ("insP", "insE"),
    }:
        return _SWAP
    if (ka, kb) == ("updP", "delP"):
        return _DROP_MARKED if (a.owner, a.key) == (b.owner, b.key) else _SWAP
    if (ka, kb) == ("insV", "delV"):
        return _CANCEL if a.node == b.node else _SWAP
    if (ka, kb) == ("insE", "delE"):
        return _CANCEL if a.edge == b.edge else _SWAP
    if (ka, kb) == ("insP", "delP"):
        return _CANCEL if (a.owner, a.key) == (b.owner, b.key) else _SWAP
    if (ka, kb) == ("insP", "updP"):
        if (a.owner, a.key) == (b.owner, b.key):
            return ("merge", InsertProp(a.owner, a.key, b.value))
        return _SWAP
    return _UNMARK


# Per kind, the earlier phases in which a prepended operation can meet one on
# its own element and cancel, be dropped or merge (see ``_rewrite_pair``). It
# swaps past every other earlier-phase operation and stops at its own phase.
_MEETS = {"updP": ("delP",), "insV": ("delV",), "insE": ("delE",), "insP": ("delP", "updP")}


def _fold(ops: list) -> list:
    """Fold ``ops`` from the right into canonical form by ``_rewrite_pair``.

    The tail is kept per phase, back to front (a prepend is an append), with
    None for a removed operation; ``held`` maps each element to its
    positions in the phases of ``_MEETS``, front-most last. Only those
    operations are inspected, so the fold is linear in the script length.
    """
    tail: dict = {kind: [] for kind in PHASE_ORDER if kind in CORE_KINDS}
    held: dict = {kind: {} for kinds in _MEETS.values() for kind in kinds}
    for op in reversed(ops):
        if op.kind not in tail:
            raise ValueError(f"rewrite rules cover the core operations only, not {op.kind}")
        _prepend(op, tail, held)
    return [op for phase in tail.values() for op in reversed(phase) if op is not None]


def _prepend(op: EditOp, tail: dict, held: dict) -> None:
    """One step of ``_fold``: meet the operations on ``op``'s element, then
    take the head of its phase unless cancelled or dropped."""
    for kind in _MEETS.get(op.kind, ()):
        positions = held[kind].get(_element(op), [])
        while positions:
            action = _rewrite_pair(op, tail[kind][positions[-1]])
            if action == _DROP_MARKED:
                return
            tail[kind][positions.pop()] = None
            if action == _CANCEL:
                return
            _, op = action
    phase = tail[op.kind]
    if op.kind in held:
        held[op.kind].setdefault(_element(op), []).append(len(phase))
    phase.append(op)


def prepend_canonical(op: EditOp, suffix: list) -> list:
    """Rewrite ``op`` followed by an already-canonical suffix into canonical
    form.

    The new operation is marked and, by the rules of ``_rewrite_pair``,
    commutes right past the earlier-phase operations, cancels against an
    operation that undoes it, merges with a later update of the same
    property, or loses its mark at the head of its phase. This is one step
    of the fold ``canonicalize`` runs: the canonical suffix folds back to
    itself, then ``op`` is prepended.
    """
    return _fold([op, *suffix])


def canonicalize(ops: list, g1: PropertyGraph) -> list:
    """Equivalent canonical script, never longer than the input.

    ``ops`` must be a valid script on ``g1``; validity is checked by applying
    it first. The script is folded from the right: each operation is
    prepended to the already-canonical tail as ``prepend_canonical`` does,
    in time linear in the length of the script.
    """
    for op in ops:
        if op.kind not in CORE_KINDS:
            raise ValueError(f"canonicalize covers the core operations only, not {op.kind}")
    apply_script(g1, ops)
    return _fold(ops)


def _check_partial_isomorphism(
    h: Matching, g1: PropertyGraph, g2: PropertyGraph, mode: str
) -> None:
    try:
        issues = matching_violations(h, g1, g2)
    except UnknownIdError as exc:
        raise InvalidMatchingError(str(exc)) from exc
    if mode == MODE_LABEL_HARD:
        for v, w in h.node_map.items():
            if g1.nodes[v] != g2.nodes[w]:
                issues.append(f"nodes {v!r} and {w!r} have different labels under {mode} matching")
        for e, f in h.edge_map.items():
            if g1.edges[e][2] != g2.edges[f][2]:
                issues.append(f"edges {e!r} and {f!r} have different labels under {mode} matching")
    if issues:
        raise InvalidMatchingError("; ".join(issues))


def script_from_matching(
    h: Matching,
    g1: PropertyGraph,
    g2: PropertyGraph,
    mode: str = MODE_LABEL_HARD,
    cm: CostModel | None = None,
) -> tuple[list, int]:
    """Derive the canonical edit script determined by a partial isomorphism.

    Unmatched g1 structure is deleted (properties first), properties present
    on both sides with different values are updated, matched elements with
    different labels are relabeled when ``mode`` is ``relabel``, and
    unmatched g2 structure is inserted (properties last). Within each phase
    operations are emitted in ``op_sort_key`` order: straight from the
    sorted keys of the graphs and the matching, except property insertions,
    whose owners mix g1 and g2 ids and are sorted stably on (owner, key).

    Matched elements survive under their g1 ids, so inserted edges and
    properties that attach to a matched element refer to it by its g1 id.
    Applying the result to ``g1`` therefore yields ``g2`` up to renaming
    each matched element to its counterpart (see ``rename_graph``); when the
    matching pairs identically named ids the result is ``g2`` itself. An
    unmatched g2 id that collides with a surviving g1 id makes the script
    inapplicable; disjoint or matching-aligned id spaces avoid this.
    """
    if mode not in (MODE_LABEL_HARD, MODE_RELABEL):
        raise ValueError(f"unknown matching mode {mode!r}")
    cm = cm or CostModel.unit()
    _check_partial_isomorphism(h, g1, g2, mode)

    matched_to = h.id_map()
    matched_from = {y: x for x, y in matched_to.items()}

    script: list = []
    for (x, k), _d in g1.props.items():
        y = matched_to.get(x)
        if y is None or (y, k) not in g2.props:
            script.append(DeleteProp(x, k))
    script += [DeleteEdge(e) for e in g1.edges if e not in h.edge_map]
    script += [DeleteNode(v) for v in g1.nodes if v not in h.node_map]
    for (x, k), d in g1.props.items():
        y = matched_to.get(x)
        if y is not None and (y, k) in g2.props and g2.props[(y, k)] != d:
            script.append(UpdateProp(x, k, g2.props[(y, k)]))
    if mode == MODE_RELABEL:
        for v, w in h.node_map.items():
            if g1.nodes[v] != g2.nodes[w]:
                script.append(RelabelNode(v, g2.nodes[w]))
        for e, f in h.edge_map.items():
            if g1.edges[e][2] != g2.edges[f][2]:
                script.append(RelabelEdge(e, g2.edges[f][2]))
    script += [InsertNode(w, lab) for w, lab in g2.nodes.items() if w not in matched_from]
    script += [
        InsertEdge(f, matched_from.get(s, s), matched_from.get(t, t), lab)
        for f, (s, t, lab) in g2.edges.items()
        if f not in matched_from
    ]
    inserted = []
    for (y, k), d in g2.props.items():
        x = matched_from.get(y)
        if x is None:
            inserted.append((y, k, d))
        elif (x, k) not in g1.props:
            inserted.append((x, k, d))
    inserted.sort(key=itemgetter(0, 1))
    script += [InsertProp(x, k, d) for x, k, d in inserted]
    return script, script_cost(script, cm)


def format_op(op: EditOp) -> str:
    """One-line text rendering, e.g. ``delV v3`` or ``insE e9 v1 v2 lbl``."""
    return format_record(list(_OP_KINDS[op.kind][2](op)))


def format_script(ops: list) -> str:
    lines = []
    for op in ops:
        tokens = list(_OP_KINDS[op.kind][2](op))
        line = " ".join(tokens)
        # format_record's own test for a line whose tokens all stand bare
        if '"' in line or "\\" in line or "#" in line or line.split() != tokens:
            line = format_record(tokens)
        lines.append(line)
    return "\n".join(lines) + ("\n" if ops else "")


def parse_script(text: str) -> list:
    """Parse the one-operation-per-line script format (inverse of format_script)."""
    ops: list = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = tokenize_line(line, lineno) if '"' in line or "#" in line else line.split()
        if not tokens:
            continue
        spec = _OP_KINDS.get(tokens[0])
        if spec is None:
            raise ValueError(f"line {lineno}: unknown operation {tokens[0]!r}")
        cls, arity, _, _ = spec
        if len(tokens) != arity + 1:
            raise ValueError(
                f"line {lineno}: {tokens[0]} takes {arity} arguments, got {len(tokens) - 1}"
            )
        ops.append(cls(*tokens[1:]))
    return ops
