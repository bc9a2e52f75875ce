import copy
import dataclasses
import inspect
import pickle
import random
import re
import time

import pytest

from conftest import random_graph, random_valid_script
from pgmatch import (
    CostModel,
    Matching,
    PreconditionViolated,
    PropertyGraph,
    apply_op,
    apply_script,
    canonicalize,
    format_script,
    gen_chain,
    gen_random,
    is_canonical,
    parse_script,
    script_cost,
    script_from_matching,
)
from pgmatch.editing import (
    _CANCEL,
    _DROP_MARKED,
    _MEETS,
    _OP_KINDS,
    _PHASE_INDEX,
    _SWAP,
    _UNMARK,
    CORE_KINDS,
    DeleteEdge,
    DeleteNode,
    DeleteProp,
    InsertEdge,
    InsertNode,
    InsertProp,
    RelabelEdge,
    RelabelNode,
    UpdateProp,
    _rewrite_pair,
    format_op,
    prepend_canonical,
)


# -- apply_op -------------------------------------------------------------------


def test_insert_node_into_empty_graph():
    g = apply_op(PropertyGraph(), InsertNode("v1", "a"))
    assert g == PropertyGraph({"v1": "a"})


def test_delete_node_with_incident_edge_is_rejected():
    g = PropertyGraph({"v0": "a", "v1": "a"}, {"e1": ("v0", "v1", "x")})
    with pytest.raises(PreconditionViolated, match="endpoint"):
        apply_op(g, DeleteNode("v0"))


def test_update_prop_replaces_value():
    g = PropertyGraph({"v1": "a"}, {}, {("v1", "k"): "d"})
    out = apply_op(g, UpdateProp("v1", "k", "d2"))
    assert out.props == {("v1", "k"): "d2"}
    assert g.props == {("v1", "k"): "d"}  # input untouched


def test_update_to_same_value_is_allowed():
    g = PropertyGraph({"v1": "a"}, {}, {("v1", "k"): "d"})
    assert apply_op(g, UpdateProp("v1", "k", "d")) == g


@pytest.mark.parametrize(
    "graph,op,fragment",
    [
        (PropertyGraph({"v": "a"}), InsertNode("v", "b"), "already exists"),
        (PropertyGraph({"v": "a"}), InsertEdge("v", "v", "v", "x"), "already exists"),
        (PropertyGraph({"v": "a"}), InsertEdge("e", "v", "w9", "x"), "not a node"),
        (PropertyGraph({"v": "a"}, {}, {("v", "k"): "d"}), InsertProp("v", "k", "d"), "already"),
        (PropertyGraph(), InsertProp("x", "k", "d"), "does not exist"),
        (PropertyGraph(), DeleteNode("v"), "does not exist"),
        (PropertyGraph({"v": "a"}, {}, {("v", "k"): "d"}), DeleteNode("v"), "properties"),
        (PropertyGraph(), DeleteEdge("e"), "does not exist"),
        (PropertyGraph(), DeleteProp("v", "k"), "does not exist"),
        (PropertyGraph({"v": "a"}), UpdateProp("v", "k", "d"), "does not exist"),
        (PropertyGraph(), RelabelNode("v", "b"), "does not exist"),
        (PropertyGraph(), RelabelEdge("e", "b"), "does not exist"),
    ],
)
def test_precondition_violations(graph, op, fragment):
    with pytest.raises(PreconditionViolated, match=fragment):
        apply_op(graph, op)


# Every precondition message, as apply_op (no index) and apply_script (an
# index past a prefix that inserts and deletes a node of its own) report it.
EXACT_VIOLATIONS = [
    (PropertyGraph({"v": "a"}), InsertNode("v", "b"), "insV v b", "id 'v' already exists"),
    (PropertyGraph({"v": "a"}, {"e": ("v", "v", "x")}), InsertNode("e", "b"), "insV e b",
     "id 'e' already exists"),
    (PropertyGraph({"v": "a"}), InsertEdge("v", "v", "v", "x"), "insE v v v x", "id 'v' already exists"),
    (PropertyGraph({"v": "a"}), InsertEdge("e", "w9", "v", "x"), "insE e w9 v x",
     "endpoint 'w9' is not a node"),
    (PropertyGraph({"v": "a"}), InsertEdge("e", "v", "w9", "x"), "insE e v w9 x",
     "endpoint 'w9' is not a node"),
    (PropertyGraph(), InsertProp("x", "k", "d"), "insP x k d", "owner 'x' does not exist"),
    (PropertyGraph({"v": "a"}, {}, {("v", "k"): "d"}), InsertProp("v", "k", "d"), "insP v k d",
     "property ('v', 'k') already exists"),
    (PropertyGraph(), DeleteNode("v"), "delV v", "node 'v' does not exist"),
    (PropertyGraph({"v": "a"}, {"e": ("v", "v", "x")}), DeleteNode("v"), "delV v",
     "node 'v' is an edge endpoint"),
    (PropertyGraph({"v": "a"}, {}, {("v", "k"): "d"}), DeleteNode("v"), "delV v",
     "node 'v' still has properties"),
    (PropertyGraph(), DeleteEdge("e"), "delE e", "edge 'e' does not exist"),
    (PropertyGraph({"v": "a"}, {"e": ("v", "v", "x")}, {("e", "k"): "d"}), DeleteEdge("e"), "delE e",
     "edge 'e' still has properties"),
    (PropertyGraph(), DeleteProp("v", "k"), "delP v k", "property ('v', 'k') does not exist"),
    (PropertyGraph({"v": "a"}), UpdateProp("v", "k", "d"), "updP v k d",
     "property ('v', 'k') does not exist"),
    (PropertyGraph(), RelabelNode("v", "b"), "relV v b", "node 'v' does not exist"),
    (PropertyGraph(), RelabelEdge("e", "b"), "relE e b", "edge 'e' does not exist"),
    (PropertyGraph({"a b": "x"}), InsertNode("a b", ""), 'insV "a b" ""', "id 'a b' already exists"),
]


@pytest.mark.parametrize("graph,op,text,reason", EXACT_VIOLATIONS)
def test_precondition_messages_and_indices_are_exact(graph, op, text, reason):
    with pytest.raises(PreconditionViolated) as err:
        apply_op(graph, op)
    assert (str(err.value), err.value.index, err.value.reason, err.value.op) == (
        f"{text}: {reason}", None, reason, op
    )
    prefix = [InsertNode("zz", "q"), DeleteNode("zz")]
    with pytest.raises(PreconditionViolated) as err:
        apply_script(graph, [*prefix, op, DeleteNode("never reached")])
    assert (str(err.value), err.value.index, err.value.op) == (f"{text} at index 2: {reason}", 2, op)


class TaggedInsertNode(InsertNode):
    """A subclass of an operation class, as a caller may define one."""


class TaggedDeleteProp(DeleteProp):
    __slots__ = ()


def test_an_instance_of_an_op_subclass_applies_as_its_base():
    g = PropertyGraph({"v": "a"}, {}, {("v", "k"): "d"})
    ops = [TaggedDeleteProp("v", "k"), TaggedInsertNode("w", "b"), InsertNode("x", "c")]
    assert apply_script(g, ops) == PropertyGraph({"v": "a", "w": "b", "x": "c"})
    assert apply_op(PropertyGraph(), TaggedInsertNode("w", "b")) == PropertyGraph({"w": "b"})
    with pytest.raises(PreconditionViolated) as err:
        apply_script(g, [*ops, TaggedInsertNode("w", "b")])
    assert (str(err.value), err.value.index) == ("insV w b at index 3: id 'w' already exists", 3)


@pytest.mark.parametrize("thing", ["insV v a", ("insV", "v", "a"), None, InsertNode])
def test_a_non_op_is_not_an_edit_operation(thing):
    g = PropertyGraph({"v": "a"})
    with pytest.raises(TypeError, match=f"^not an edit operation: {re.escape(repr(thing))}$"):
        apply_op(g, thing)
    with pytest.raises(TypeError, match=f"^not an edit operation: {re.escape(repr(thing))}$"):
        apply_script(g, [InsertNode("w", "b"), thing])


def test_delete_edge_with_properties_is_rejected():
    g = PropertyGraph({"v": "a"}, {"e": ("v", "v", "x")}, {("e", "k"): "d"})
    with pytest.raises(PreconditionViolated, match="properties"):
        apply_op(g, DeleteEdge("e"))


def test_relabel_ops_change_labels_in_place():
    g = PropertyGraph({"v": "a"}, {"e": ("v", "v", "x")})
    out = apply_op(apply_op(g, RelabelNode("v", "b")), RelabelEdge("e", "y"))
    assert out.nodes == {"v": "b"}
    assert out.edges == {"e": ("v", "v", "y")}


# -- apply_script -----------------------------------------------------------------


def test_empty_script_is_identity():
    g = PropertyGraph({"v": "a"})
    assert apply_script(g, []) == g


def test_script_failure_reports_index():
    with pytest.raises(PreconditionViolated) as err:
        apply_script(PropertyGraph(), [InsertNode("v", "a"), InsertNode("v", "a")])
    assert err.value.index == 1


def delete_all_insert_all(g1: PropertyGraph, g2: PropertyGraph) -> list:
    script = [DeleteProp(x, k) for (x, k) in g1.props]
    script += [DeleteEdge(e) for e in g1.edges]
    script += [DeleteNode(v) for v in g1.nodes]
    script += [InsertNode(v, lab) for v, lab in g2.nodes.items()]
    script += [InsertEdge(e, s, t, lab) for e, (s, t, lab) in g2.edges.items()]
    script += [InsertProp(x, k, d) for (x, k), d in g2.props.items()]
    return script


def test_delete_all_insert_all_maps_between_random_graphs():
    rng = random.Random(5)
    for _ in range(50):
        g1 = random_graph(rng, prefix="a", max_nodes=4)
        g2 = random_graph(rng, prefix="b", max_nodes=4)
        script = delete_all_insert_all(g1, g2)
        assert apply_script(g1, script) == g2
        assert is_canonical(script)


# Script application keeps running counts of the edge endpoints at each node
# and of the properties of each owner; these tests pin the places where the
# counts change.


@pytest.mark.parametrize(
    "graph,prefix",
    [
        (PropertyGraph({"v": "a"}, {"e": ("v", "v", "x")}), []),
        (PropertyGraph({"v": "a"}), [InsertEdge("e", "v", "v", "x")]),
    ],
    ids=["input-loop", "inserted-loop"],
)
def test_deleting_a_self_loop_frees_its_node(graph, prefix):
    script = prefix + [DeleteEdge("e"), DeleteNode("v")]
    assert apply_script(graph, script) == PropertyGraph()


def test_delete_node_after_its_edges_and_properties_are_deleted():
    g = PropertyGraph(
        {"v0": "a", "v1": "a"},
        {"e1": ("v0", "v1", "x"), "e2": ("v0", "v1", "x"), "e3": ("v1", "v0", "y")},
        {("v0", "k1"): "d", ("v0", "k2"): "d", ("v1", "k1"): "d"},
    )
    script = [
        DeleteProp("v0", "k1"),
        DeleteProp("v0", "k2"),
        DeleteEdge("e1"),
        DeleteEdge("e2"),
        DeleteEdge("e3"),
        DeleteNode("v0"),
    ]
    assert apply_script(g, script) == PropertyGraph({"v1": "a"}, {}, {("v1", "k1"): "d"})


def test_delete_node_with_one_property_left_is_rejected():
    g = PropertyGraph({"v": "a"}, {}, {("v", "k1"): "d", ("v", "k2"): "d"})
    with pytest.raises(PreconditionViolated, match="still has properties") as err:
        apply_script(g, [DeleteProp("v", "k1"), DeleteNode("v")])
    assert err.value.index == 1


@pytest.mark.parametrize(
    "insert,fragment",
    [
        (InsertEdge("e", "v0", "v2", "x"), "is an edge endpoint"),
        (InsertEdge("e", "v2", "v2", "x"), "is an edge endpoint"),
        (InsertProp("v2", "k", "d"), "still has properties"),
    ],
)
def test_delete_node_after_an_insertion_at_it_is_rejected(insert, fragment):
    g = PropertyGraph({"v0": "a", "v1": "a"}, {"e0": ("v0", "v1", "x")})
    script = [InsertNode("v2", "a"), insert, RelabelNode("v2", "b"), DeleteNode("v2")]
    with pytest.raises(PreconditionViolated, match=fragment) as err:
        apply_script(g, script)
    assert err.value.index == 3


def test_delete_edge_after_its_properties_are_deleted():
    g = PropertyGraph(
        {"v": "a"}, {"e": ("v", "v", "x")}, {("e", "k1"): "d", ("e", "k2"): "d"}
    )
    script = [DeleteProp("e", "k2"), DeleteProp("e", "k1"), DeleteEdge("e")]
    assert apply_script(g, script) == PropertyGraph({"v": "a"})
    with pytest.raises(PreconditionViolated, match="still has properties") as err:
        apply_script(g, script[:1] + script[2:])
    assert err.value.index == 1


def test_delete_edge_after_a_property_is_inserted_on_it_is_rejected():
    g = PropertyGraph({"v": "a"}, {"e": ("v", "v", "x")})
    with pytest.raises(PreconditionViolated, match="still has properties") as err:
        apply_script(g, [InsertProp("e", "k", "d"), DeleteEdge("e")])
    assert err.value.index == 1


def test_node_deleted_and_reinserted_under_the_same_id():
    g = PropertyGraph({"v": "a", "w": "a"}, {"e": ("v", "w", "x")}, {("v", "k"): "d"})
    script = [
        DeleteProp("v", "k"),
        DeleteEdge("e"),
        DeleteNode("v"),
        InsertNode("v", "b"),
        InsertEdge("e", "w", "v", "y"),
        InsertProp("v", "k", "d2"),
    ]
    out = apply_script(g, script)
    assert out == PropertyGraph({"v": "b", "w": "a"}, {"e": ("w", "v", "y")}, {("v", "k"): "d2"})
    with pytest.raises(PreconditionViolated, match="is an edge endpoint") as err:
        apply_script(g, script + [DeleteProp("v", "k"), DeleteNode("v")])
    assert err.value.index == 7


def test_failing_script_leaves_the_input_unchanged():
    g = PropertyGraph(
        {"v": "a", "w": "b"},
        {"e": ("v", "w", "x"), "l": ("w", "w", "y")},
        {("v", "k"): "d", ("e", "k"): "d"},
    )
    before = PropertyGraph(dict(g.nodes), dict(g.edges), dict(g.props))
    script = [
        DeleteProp("e", "k"),
        DeleteEdge("e"),
        UpdateProp("v", "k", "d2"),
        RelabelNode("w", "c"),
        RelabelEdge("l", "z"),
        InsertNode("u", "a"),
        InsertEdge("f", "u", "v", "x"),
        InsertProp("u", "k", "d"),
        DeleteNode("w"),
    ]
    with pytest.raises(PreconditionViolated) as err:
        apply_script(g, script)
    assert err.value.index == 8
    assert g == before
    assert list(g.edges.items()) == list(before.edges.items())
    for op in script:
        try:
            apply_op(g, op)
        except PreconditionViolated:
            pass
    assert g == before


def test_apply_script_is_linear_in_the_script_length():
    """A full rewrite of a 1600-edge chain with a property on every element
    (9603 operations) must not rebuild the graph per operation."""
    chain = gen_chain(1600, "a")
    props = {(x, "k"): "d" for x in [*chain.nodes, *chain.edges]}
    g1 = PropertyGraph(chain.nodes, chain.edges, props)
    g2 = gen_chain(1600, "b")
    script = delete_all_insert_all(g1, g2)
    assert len(script) == 9603
    start = time.perf_counter()
    out = apply_script(g1, script)
    elapsed = time.perf_counter() - start
    assert out == g2
    assert elapsed < 2.0, f"{len(script)} operations took {elapsed:.2f} s"


# -- costs ----------------------------------------------------------------------


def test_cost_of_empty_script_is_zero():
    assert script_cost([], CostModel.unit()) == 0
    assert script_cost([], CostModel.gedc()) == 0


def test_unit_cost_counts_operations():
    ops = [InsertNode("v", "a"), DeleteEdge("e")]
    assert script_cost(ops, CostModel.unit()) == 2


def test_gedc_weights_node_delete_insert_is_eight():
    ops = [DeleteNode("v"), InsertNode("w", "a")]
    assert script_cost(ops, CostModel.gedc()) == 8


def test_gedc_relabel_weights():
    assert script_cost([RelabelNode("v", "b")], CostModel.gedc()) == 2
    assert script_cost([RelabelEdge("e", "y")], CostModel.gedc()) == 1


def test_cost_model_rejects_negative_weights():
    with pytest.raises(ValueError):
        CostModel(weights={"insV": -1})
    with pytest.raises(ValueError):
        CostModel(node_sub=-2)
    with pytest.raises(ValueError):
        CostModel(weights={"nope": 1})


@pytest.mark.parametrize(
    "kwargs, key",
    [
        ({"weights": {"delV": 1.5}}, "delV"),
        ({"weights": {"insP": 2.0}}, "insP"),
        ({"weights": {"delE": "2"}}, "delE"),
        ({"weights": {"updP": True}}, "updP"),
        ({"node_sub": 0.5}, "node_sub"),
        ({"edge_sub": False}, "edge_sub"),
    ],
)
def test_cost_model_refuses_weights_that_are_not_integers(kwargs, key):
    with pytest.raises(ValueError, match=f"weight {key} must be an integer"):
        CostModel(**kwargs)


# -- canonical form ---------------------------------------------------------------


def test_empty_script_is_canonical():
    assert is_canonical([])


def test_full_phase_order_is_canonical():
    ops = [
        DeleteProp("v", "k"),
        DeleteEdge("e"),
        DeleteNode("v"),
        UpdateProp("w", "k", "d"),
        InsertNode("u", "a"),
        InsertEdge("f", "u", "u", "x"),
        InsertProp("u", "k", "d"),
    ]
    assert is_canonical(ops)


def test_insert_before_delete_is_not_canonical():
    assert not is_canonical([InsertNode("v", "a"), DeleteNode("w")])


def test_relabels_sit_between_updates_and_inserts():
    assert is_canonical([UpdateProp("v", "k", "d"), RelabelNode("v", "b"), InsertNode("w", "a")])
    assert not is_canonical([InsertNode("w", "a"), RelabelNode("v", "b")])


# -- canonicalize ------------------------------------------------------------------


def test_cancel_insert_then_delete_node():
    assert canonicalize([InsertNode("v", "a"), DeleteNode("v")], PropertyGraph()) == []


def test_cancel_insert_then_delete_edge_and_prop():
    g = PropertyGraph({"v": "a"})
    assert canonicalize([InsertEdge("e", "v", "v", "x"), DeleteEdge("e")], g) == []
    assert canonicalize([InsertProp("v", "k", "d"), DeleteProp("v", "k")], g) == []


def test_update_then_delete_collapses_to_delete():
    g = PropertyGraph({"x": "a"}, {}, {("x", "k"): "d"})
    out = canonicalize([UpdateProp("x", "k", "d2"), DeleteProp("x", "k")], g)
    assert out == [DeleteProp("x", "k")]


def test_insert_then_update_collapses_to_insert_of_newer_value():
    g = PropertyGraph({"x": "a"})
    out = canonicalize([InsertProp("x", "k", "d"), UpdateProp("x", "k", "d2")], g)
    assert out == [InsertProp("x", "k", "d2")]


def test_canonical_scripts_are_fixpoints():
    rng = random.Random(11)
    checked = 0
    for _ in range(300):
        g = random_graph(rng, prefix="g", max_nodes=4, self_loops=True)
        ops = random_valid_script(rng, g, max_len=10)
        if not is_canonical(ops):
            continue
        checked += 1
        assert canonicalize(ops, g) == ops
    assert checked >= 50


def test_canonicalize_random_scripts_sound_and_no_longer():
    rng = random.Random(17)
    for _ in range(400):
        g = random_graph(rng, prefix="g", max_nodes=4, self_loops=True)
        ops = random_valid_script(rng, g, max_len=12)
        canon = canonicalize(ops, g)
        assert is_canonical(canon)
        assert len(canon) <= len(ops)
        assert apply_script(g, canon) == apply_script(g, ops)


def test_canonicalize_rejects_invalid_scripts():
    with pytest.raises(PreconditionViolated):
        canonicalize([DeleteNode("ghost")], PropertyGraph())


def test_canonicalize_rejects_relabel_ops():
    g = PropertyGraph({"v": "a"})
    with pytest.raises(ValueError, match="core"):
        canonicalize([RelabelNode("v", "b")], g)


def test_prepend_canonical_single_steps():
    # a delete commutes left past nothing and keeps its place at the head
    suffix = [DeleteNode("w"), InsertNode("u", "a")]
    assert prepend_canonical(DeleteProp("v", "k"), suffix) == [DeleteProp("v", "k")] + suffix
    # an insert walks right past deletes it does not cancel with
    out = prepend_canonical(InsertNode("u", "a"), [DeleteNode("w")])
    assert out == [DeleteNode("w"), InsertNode("u", "a")]


def test_prepend_preserves_effect_and_canonical_form():
    rng = random.Random(29)
    for _ in range(300):
        g = random_graph(rng, prefix="g", max_nodes=3, self_loops=True)
        ops = random_valid_script(rng, g, max_len=8)
        if not ops:
            continue
        head, tail = ops[0], ops[1:]
        mid = apply_op(g, head)
        canon_tail = canonicalize(tail, mid)
        combined = prepend_canonical(head, canon_tail)
        assert is_canonical(combined)
        assert len(combined) <= 1 + len(canon_tail)
        assert apply_script(g, combined) == apply_script(mid, canon_tail)


def _sample_op(kind: str, x: str, k: str, d: str):
    """An operation of ``kind`` whose node, edge or owner is ``x`` (also
    both endpoints of an edge), whose key is ``k`` and whose label or value
    is ``d``."""
    cls = _OP_KINDS[kind][0]
    by_field = {"key": k, "label": d, "value": d}
    return cls(*[by_field.get(f.name, x) for f in dataclasses.fields(cls)])


# The same-element outcomes the fold in canonicalize relies on; every other
# earlier-phase pair swaps.
SAME_ELEMENT_OUTCOMES = {
    ("updP", "delP"): _DROP_MARKED,
    ("insV", "delV"): _CANCEL,
    ("insE", "delE"): _CANCEL,
    ("insP", "delP"): _CANCEL,
    ("insP", "updP"): "merge",
}


def test_rewrite_rules_unmark_at_own_phase_and_swap_past_other_elements():
    for ka in CORE_KINDS:
        for kb in CORE_KINDS:
            a = _sample_op(ka, "x", "k", "d1")
            same = _sample_op(kb, "x", "k", "d2")
            other = _sample_op(kb, "y", "j", "d2")
            if _PHASE_INDEX[kb] >= _PHASE_INDEX[ka]:
                assert _rewrite_pair(a, same) == _UNMARK, (ka, kb)
                assert _rewrite_pair(a, other) == _UNMARK, (ka, kb)
                continue
            assert _rewrite_pair(a, other) == _SWAP, (ka, kb)
            action = _rewrite_pair(a, same)
            expected = SAME_ELEMENT_OUTCOMES.get((ka, kb), _SWAP)
            if expected == "merge":
                assert action == ("merge", InsertProp("x", "k", "d2"))
            else:
                assert action == expected, (ka, kb)
    met = {(ka, kb) for ka, kinds in _MEETS.items() for kb in kinds}
    assert met == set(SAME_ELEMENT_OUTCOMES)


def _walk_prepend(op, suffix: list, fired: dict) -> list:
    """The bubbling walk canonicalize used before its fold: the marked op is
    inspected against its successor one step at a time, on a copy of the
    tail. An independent oracle for the fold."""
    ops = [op] + list(suffix)
    i = 0
    while i + 1 < len(ops):
        action = _rewrite_pair(ops[i], ops[i + 1])
        if action == _SWAP:
            ops[i], ops[i + 1] = ops[i + 1], ops[i]
            i += 1
        elif action == _CANCEL:
            fired["cancel"] += 1
            del ops[i : i + 2]
            break
        elif action == _DROP_MARKED:
            fired["drop"] += 1
            del ops[i]
            break
        elif action == _UNMARK:
            break
        else:
            fired["merge"] += 1
            ops[i : i + 2] = [action[1]]
    return ops


def test_canonicalize_agrees_with_the_bubbling_walk():
    rng = random.Random(53)
    fired = {"cancel": 0, "drop": 0, "merge": 0}
    shortened = 0
    for _ in range(2000):
        g = random_graph(rng, prefix="g", max_nodes=4, self_loops=True)
        ops = random_valid_script(rng, g, max_len=14)
        expected: list = []
        for op in reversed(ops):
            expected = _walk_prepend(op, expected, fired)
        assert canonicalize(ops, g) == expected
        shortened += len(expected) < len(ops)
    assert min(fired.values()) >= 100, fired
    assert shortened >= 1000


def test_prepend_canonical_agrees_with_the_bubbling_walk():
    rng = random.Random(59)
    fired = {"cancel": 0, "drop": 0, "merge": 0}
    for _ in range(500):
        g = random_graph(rng, prefix="g", max_nodes=3, self_loops=True)
        ops = random_valid_script(rng, g, max_len=10)
        if not ops:
            continue
        tail = canonicalize(ops[1:], apply_op(g, ops[0]))
        assert prepend_canonical(ops[0], tail) == _walk_prepend(ops[0], tail, fired)
    assert min(fired.values()) > 0, fired


def test_prepend_canonical_rejects_relabels_in_the_suffix():
    with pytest.raises(ValueError, match="core"):
        prepend_canonical(InsertNode("v", "a"), [RelabelNode("w", "b")])


def test_canonicalize_of_twenty_thousand_ops_is_linear():
    # Every insertion precedes every deletion, so under the bubbling walk each
    # inserted op would step past all deletions: quadratic, seconds of work.
    n = 2000
    g1 = gen_random(n, 4 / n, 2 * n)
    g2 = gen_random(n, 4 / n, 2 * n + 1, prefix="b")
    script, _ = script_from_matching(Matching(), g1, g2)
    deletes = sum(op.kind.startswith("del") for op in script)
    ops = script[deletes:] + script[:deletes]
    assert len(ops) >= 20_000
    start = time.perf_counter()
    canon = canonicalize(ops, g1)
    elapsed = time.perf_counter() - start
    assert canon == script
    assert elapsed < 1.0, f"canonicalize of {len(ops)} ops took {elapsed:.2f} s"


# -- operation records ------------------------------------------------------------------


@pytest.mark.parametrize("kind", sorted(_OP_KINDS))
def test_op_records_are_frozen_slotted_and_copy_equal(kind):
    op = _sample_op(kind, "x", "k", "d")
    assert not hasattr(op, "__dict__")
    name = dataclasses.fields(op)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(op, name, "y")
    for twin in (pickle.loads(pickle.dumps(op)), copy.deepcopy(op), copy.copy(op)):
        assert twin == op and type(twin) is type(op)
        assert hash(twin) == hash(op)


@pytest.mark.parametrize("kind", sorted(_OP_KINDS))
def test_op_record_constructor_is_its_dataclass_fields(kind):
    cls = _OP_KINDS[kind][0]
    names = [f.name for f in dataclasses.fields(cls)]
    values = [f"{name}-{i}" for i, name in enumerate(names)]
    op = cls(*values)
    assert list(inspect.signature(cls).parameters) == names
    assert cls.__match_args__ == tuple(names)
    assert [getattr(op, name) for name in names] == values
    assert cls(**dict(zip(names, values))) == op
    assert repr(op) == f"{cls.__name__}(" + ", ".join(f"{n}={v!r}" for n, v in zip(names, values)) + ")"
    changed = dataclasses.replace(op, **{names[-1]: "other"})
    assert type(changed) is cls and changed != op
    assert [getattr(changed, name) for name in names] == [*values[:-1], "other"]
    assert [getattr(op, name) for name in names] == values
    for args, kwargs in (
        (values[:-1], {}),
        ([*values, "extra"], {}),
        (values, {"bogus": "x"}),
        (values, {names[0]: "twice"}),
    ):
        with pytest.raises(TypeError):
            cls(*args, **kwargs)
    match op:
        case cls(first):
            assert first == values[0]
        case _:
            pytest.fail(f"{op!r} does not match its class pattern")


def test_op_records_match_by_position_and_keyword():
    described = []
    for op in (InsertEdge("e", "s", "t", "l"), UpdateProp("v", "k", "d"), DeleteNode("v")):
        match op:
            case InsertEdge(edge, src, tgt, label=lab):
                described.append(("edge", edge, src, tgt, lab))
            case UpdateProp(owner, key, value):
                described.append(("update", owner, key, value))
            case DeleteNode(node=v):
                described.append(("delete", v))
    assert described == [("edge", "e", "s", "t", "l"), ("update", "v", "k", "d"), ("delete", "v")]


# -- script text format --------------------------------------------------------------


def test_script_text_round_trip():
    ops = [
        DeleteProp("v1", "k"),
        DeleteEdge("e9"),
        DeleteNode("v3"),
        UpdateProp("v1", "k", "d"),
        RelabelNode("v1", "b"),
        InsertNode("w", "a"),
        InsertEdge("e9", "v1", "v2", "lbl"),
        InsertProp("e9", "k", "d"),
    ]
    text = format_script(ops)
    assert "delV v3" in text
    assert "insE e9 v1 v2 lbl" in text
    assert "updP v1 k d" in text
    assert "insP e9 k d" in text
    assert parse_script(text) == ops


def test_script_text_quoting():
    ops = [InsertNode("V 1", 'la"bel')]
    assert parse_script(format_script(ops)) == ops


def test_parse_script_rejects_bad_input():
    with pytest.raises(ValueError, match="unknown operation"):
        parse_script("frobV v1\n")
    with pytest.raises(ValueError, match="arguments"):
        parse_script("delV v1 extra\n")


def test_parse_script_messages_and_line_numbers_are_exact():
    head = '\n# a comment line\ndelV v1\r\n\r\n  insV "a b" "" # trailing comment\n"delE" e1\n'
    assert parse_script(head) == [DeleteNode("v1"), InsertNode("a b", ""), DeleteEdge("e1")]
    for bad, message in (
        ("frobV x", "line 7: unknown operation 'frobV'"),
        ('"" x', "line 7: unknown operation ''"),
        ("insV v", "line 7: insV takes 2 arguments, got 1"),
        ('insE e "s t" u', "line 7: insE takes 4 arguments, got 3"),
        ("delV v w # x", "line 7: delV takes 1 arguments, got 2"),
        ('delV "v', "line 7: unterminated quoted token"),
        ('delV "v\\q"', "line 7: bad escape in quoted token"),
        ('delV v"', "line 7: quote in the middle of a token"),
    ):
        for text in (head + bad + "\n", head.replace("\r\n", "\n").replace("\n", "\r\n") + bad):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                parse_script(text)


ADVERSARIAL_OPS = [
    InsertNode("", "a"),
    InsertNode("a b", ""),
    InsertNode("v", "#x"),
    InsertNode("x#", "tab\there"),
    UpdateProp("v", "k", "back\\slash"),
    InsertProp('q"uote', "k", "d"),
    RelabelEdge("e", "x\x1cy"),
    InsertEdge("e", "s\nt", "t", "l"),
    DeleteProp("\u3000", "k"),
    DeleteNode("plain"),
]


def test_format_script_on_adversarial_tokens():
    text = format_script(ADVERSARIAL_OPS)
    assert text == "".join(format_op(op) + "\n" for op in ADVERSARIAL_OPS)
    assert parse_script(text) == ADVERSARIAL_OPS
    assert format_script([InsertNode("a b", "")]) == 'insV "a b" ""\n'
    rng = random.Random(29)
    alphabet = list('ab#"\\ \t') + ["", "\x1c", "\xa0", "\n"]
    for _ in range(300):
        ops = []
        for _ in range(rng.randrange(4)):
            cls = _OP_KINDS[rng.choice(sorted(_OP_KINDS))][0]
            ops.append(cls(*["".join(rng.choices(alphabet, k=rng.randrange(3))) for _ in dataclasses.fields(cls)]))
        text = format_script(ops)
        assert text == "".join(format_op(op) + "\n" for op in ops)
        assert parse_script(text) == ops
