import random

import pytest

from conftest import diff_atom_cost, random_graph, random_partial_iso
from pgmatch import (
    CostModel,
    InvalidMatchingError,
    Matching,
    PropertyGraph,
    apply_script,
    is_canonical,
    rename_graph,
    script_cost,
    script_from_matching,
)
from pgmatch.editing import DeleteNode, InsertNode, InsertProp, RelabelNode, op_sort_key


def test_full_isomorphism_gives_empty_script():
    g1 = PropertyGraph({"v": "a"}, {"e": ("v", "v", "x")}, {("v", "k"): "d"})
    g2 = PropertyGraph({"w": "a"}, {"f": ("w", "w", "x")}, {("w", "k"): "d"})
    h = Matching({"v": "w"}, {"e": "f"})
    script, cost = script_from_matching(h, g1, g2)
    assert script == []
    assert cost == 0


def test_single_node_replacement_under_empty_matching():
    g1 = PropertyGraph({"v": "a"})
    g2 = PropertyGraph({"w": "b"})
    # under label-hard matching the only partial isomorphism is empty:
    # enumerate all matchings exhaustively to confirm
    assert [m for m in [{"v": "w"}] if g1.nodes["v"] == g2.nodes["w"]] == []
    script, cost = script_from_matching(Matching(), g1, g2)
    assert script == [DeleteNode("v"), InsertNode("w", "b")]
    assert cost == 2


def test_single_node_relabel_with_weighted_costs():
    g1 = PropertyGraph({"v": "a"})
    g2 = PropertyGraph({"w": "b"})
    script, cost = script_from_matching(
        Matching({"v": "w"}), g1, g2, mode="relabel", cm=CostModel.gedc()
    )
    assert script == [RelabelNode("v", "b")]
    assert cost == 2


def test_label_hard_rejects_mismatched_labels():
    g1 = PropertyGraph({"v": "a"})
    g2 = PropertyGraph({"w": "b"})
    with pytest.raises(InvalidMatchingError, match="labels"):
        script_from_matching(Matching({"v": "w"}), g1, g2)


def test_rejects_inconsistent_edge_pairs():
    g1 = PropertyGraph({"v1": "a", "v2": "a"}, {"e": ("v1", "v2", "x")})
    g2 = PropertyGraph({"w1": "a", "w2": "a"}, {"f": ("w2", "w1", "x")})
    h = Matching({"v1": "w1", "v2": "w2"}, {"e": "f"})
    with pytest.raises(InvalidMatchingError, match="endpoint"):
        script_from_matching(h, g1, g2)


def test_rejects_non_injective():
    g1 = PropertyGraph({"v1": "a", "v2": "a"})
    g2 = PropertyGraph({"w": "a"})
    with pytest.raises(InvalidMatchingError, match="injective"):
        script_from_matching(Matching({"v1": "w", "v2": "w"}), g1, g2)


def test_update_emitted_only_for_differing_values():
    g1 = PropertyGraph({"v": "a"}, {}, {("v", "k"): "d", ("v", "k2"): "d"})
    g2 = PropertyGraph({"w": "a"}, {}, {("w", "k"): "d", ("w", "k2"): "dx"})
    script, cost = script_from_matching(Matching({"v": "w"}), g1, g2)
    assert [op.kind for op in script] == ["updP"]
    assert script[0].key == "k2" and script[0].value == "dx"
    assert cost == 1


def test_inserted_edges_attach_to_surviving_ids():
    # matched node keeps its g1 id, so the inserted edge must point at it
    g1 = PropertyGraph({"v": "a"})
    g2 = PropertyGraph({"w": "a", "u": "b"}, {"f": ("u", "w", "x")})
    h = Matching({"v": "w"})
    script, cost = script_from_matching(h, g1, g2)
    edited = apply_script(g1, script)
    assert rename_graph(edited, h.id_map()) == g2
    assert cost == 2  # one node insert, one edge insert


def test_random_partial_isomorphisms_round_trip():
    rng = random.Random(41)
    models = [CostModel.unit(), CostModel.gedc()]
    checked = 0
    for trial in range(300):
        g1 = random_graph(rng, prefix="a", max_nodes=4)
        g2 = random_graph(rng, prefix="b", max_nodes=4)
        mode = "relabel" if trial % 2 else "label-hard"
        h = random_partial_iso(rng, g1, g2, mode)
        cm = models[trial % len(models)]
        script, cost = script_from_matching(h, g1, g2, mode, cm)
        assert is_canonical(script)
        assert cost == script_cost(script, cm)
        assert cost == diff_atom_cost(h, g1, g2, mode, cm)
        assert rename_graph(apply_script(g1, script), h.id_map()) == g2
        checked += 1
    assert checked == 300


def test_identity_matching_on_shared_ids_yields_literal_equality():
    rng = random.Random(43)
    for _ in range(50):
        g = random_graph(rng, prefix="s", max_nodes=4)
        h = Matching({v: v for v in g.nodes}, {e: e for e in g.edges})
        script, cost = script_from_matching(h, g, g)
        assert script == [] and cost == 0
        assert apply_script(g, script) == g


def test_phases_come_out_in_sort_key_order_with_colliding_ids():
    # Both graphs draw ids from one space, so an unmatched g2 id can equal a
    # matched g1 id and the insP phase mixes the two.
    rng = random.Random(47)
    for trial in range(400):
        g1 = random_graph(rng, max_nodes=5, self_loops=True)
        g2 = random_graph(rng, max_nodes=5, self_loops=True)
        mode = "relabel" if trial % 2 else "label-hard"
        script, _ = script_from_matching(random_partial_iso(rng, g1, g2, mode), g1, g2, mode)
        assert script == sorted(script, key=op_sort_key)
        assert is_canonical(script)


def test_insert_prop_tie_keeps_g2_order():
    # g2's unmatched "p" and g2's "q", matched to g1's "p", both insert key k
    # on owner "p": the tie on (owner, key) keeps g2's order, not value order.
    g1 = PropertyGraph({"p": "a"})
    g2 = PropertyGraph({"p": "a", "q": "a"}, {}, {("p", "k"): "2", ("q", "k"): "1"})
    script, _ = script_from_matching(Matching({"p": "q"}), g1, g2)
    assert script == [InsertNode("p", "a"), InsertProp("p", "k", "2"), InsertProp("p", "k", "1")]
    assert script == sorted(script, key=op_sort_key)
