import random
import time

import pytest

from conftest import (
    WEIRD_ATOMS,
    brute_hom_exists,
    brute_sub_exists,
    random_graph,
    random_partial_iso,
)
from pgmatch import (
    GraphFormatError,
    Matching,
    PropertyGraph,
    UnknownIdError,
    check_homomorphism,
    check_isomorphism,
    check_subgraph_embedding,
    format_graph,
    parse_graph,
    rename_graph,
    validate,
)
from pgmatch.editing import (
    DeleteEdge,
    DeleteNode,
    DeleteProp,
    InsertEdge,
    InsertNode,
    InsertProp,
    RelabelEdge,
    RelabelNode,
    UpdateProp,
    format_script,
    parse_script,
)
from pgmatch.graphs import matching_violations
from pgmatch.records import quote, tokenize_line


def chain2():
    return PropertyGraph(
        {"v0": "n", "v1": "n", "v2": "n"},
        {"c0": ("v0", "v1", "e"), "c1": ("v1", "v2", "e")},
    )


def cycle2():
    return PropertyGraph(
        {"u0": "n", "u1": "n"},
        {"d0": ("u0", "u1", "e"), "d1": ("u1", "u0", "e")},
    )


def identity_matching(g: PropertyGraph) -> Matching:
    return Matching({v: v for v in g.nodes}, {e: e for e in g.edges})


# -- validate -----------------------------------------------------------------


def test_validate_empty_graph():
    assert validate(PropertyGraph()) == []


def test_validate_reports_dangling_edge():
    g = PropertyGraph({"v0": "a"}, {"e1": ("v0", "v9", "x")})
    issues = validate(g)
    assert len(issues) == 1
    assert "e1" in issues[0] and "v9" in issues[0]


def test_validate_reports_unknown_prop_owner():
    g = PropertyGraph({"v0": "a"}, {}, {("x7", "k"): "d"})
    issues = validate(g)
    assert len(issues) == 1
    assert "x7" in issues[0]


def test_validate_reports_id_shared_between_node_and_edge():
    g = PropertyGraph({"x": "a", "v": "a"}, {"x": ("v", "v", "l")})
    assert any("both a node and an edge" in issue for issue in validate(g))


# -- homomorphism -------------------------------------------------------------


def test_hom_identity():
    g = PropertyGraph({"v": "a"}, {}, {("v", "k"): "d"})
    assert check_homomorphism(identity_matching(g), g, g)


def test_hom_chain_into_cycle_folding():
    g1, g2 = chain2(), cycle2()
    # brute force confirms some total mapping exists, and this particular
    # folding (endpoints collapse onto u0) satisfies every clause
    assert brute_hom_exists(g1, g2)
    h = Matching({"v0": "u0", "v1": "u1", "v2": "u0"}, {"c0": "d0", "c1": "d1"})
    assert check_homomorphism(h, g1, g2)


def test_hom_label_mismatch():
    g1 = PropertyGraph({"v": "a"})
    g2 = PropertyGraph({"w": "b"})
    assert not check_homomorphism(Matching({"v": "w"}), g1, g2)


def test_hom_requires_totality_and_prop_dominance():
    g1 = PropertyGraph({"v": "a"}, {}, {("v", "k"): "d"})
    g2 = PropertyGraph({"w": "a"})
    assert not check_homomorphism(Matching({"v": "w"}), g1, g2)
    g2b = PropertyGraph({"w": "a"}, {}, {("w", "k"): "d", ("w", "k2"): "d2"})
    assert check_homomorphism(Matching({"v": "w"}), g1, g2b)


def test_hom_unknown_id_raises():
    g = PropertyGraph({"v": "a"})
    with pytest.raises(UnknownIdError, match="ghost"):
        check_homomorphism(Matching({"ghost": "v"}), g, g)
    with pytest.raises(UnknownIdError, match="ghost"):
        check_homomorphism(Matching({"v": "ghost"}), g, g)


# -- isomorphism --------------------------------------------------------------


def triangle(ids, labels="nnn"):
    a, b, c = ids
    return PropertyGraph(
        {a: labels[0], b: labels[1], c: labels[2]},
        {f"{a}{b}": (a, b, "e"), f"{b}{c}": (b, c, "e"), f"{c}{a}": (c, a, "e")},
    )


def test_iso_identity():
    g = triangle("pqr")
    assert check_isomorphism(identity_matching(g), g, g)


def test_iso_rotated_triangle():
    g1 = triangle("pqr")
    g2 = triangle("qrp")
    h = Matching(
        {"p": "q", "q": "r", "r": "p"},
        {"pq": "qr", "qr": "rp", "rp": "pq"},
    )
    assert check_isomorphism(h, g1, g2)


def test_iso_fails_on_missing_reverse_property():
    g1 = PropertyGraph({"v": "a"}, {}, {("v", "k"): "d"})
    g2 = PropertyGraph({"w": "a"})
    assert not check_isomorphism(Matching({"v": "w"}), g1, g2)
    # and the property clause of the reverse direction:
    g2b = PropertyGraph({"w": "a"}, {}, {("w", "k"): "d", ("w", "extra"): "d"})
    assert check_homomorphism(Matching({"v": "w"}), g1, g2b)
    assert not check_isomorphism(Matching({"v": "w"}), g1, g2b)


def test_iso_rejects_non_injective():
    g1 = PropertyGraph({"v1": "a", "v2": "a"})
    g2 = PropertyGraph({"w1": "a", "w2": "a"})
    assert not check_isomorphism(Matching({"v1": "w1", "v2": "w1"}), g1, g2)


# -- subgraph embedding --------------------------------------------------------


def test_sub_identity():
    g = chain2()
    assert check_subgraph_embedding(identity_matching(g), g, g)


def test_sub_rejects_non_injective_folding():
    h = Matching({"v0": "u0", "v1": "u1", "v2": "u0"}, {"c0": "d0", "c1": "d1"})
    assert not check_subgraph_embedding(h, chain2(), cycle2())


def test_sub_chain3_into_cycle4():
    g1 = PropertyGraph(
        {f"v{i}": "n" for i in range(4)},
        {f"c{i}": (f"v{i}", f"v{i+1}", "e") for i in range(3)},
    )
    g2 = PropertyGraph(
        {f"u{i}": "n" for i in range(4)},
        {f"d{i}": (f"u{i}", f"u{(i+1) % 4}", "e") for i in range(4)},
    )
    assert brute_sub_exists(g1, g2)
    h = Matching(
        {f"v{i}": f"u{i}" for i in range(4)},
        {f"c{i}": f"d{i}" for i in range(3)},
    )
    assert check_subgraph_embedding(h, g1, g2)


def test_sub_allows_extra_target_properties():
    g1 = PropertyGraph({"v": "a"})
    g2 = PropertyGraph({"w": "a"}, {}, {("w", "k"): "d"})
    assert check_subgraph_embedding(Matching({"v": "w"}), g1, g2)


# -- invariants on random graphs ------------------------------------------------


def test_iso_implies_equal_counts_and_label_multisets():
    rng = random.Random(7)
    found = 0
    for _ in range(150):
        g1 = random_graph(rng, prefix="a", max_nodes=4)
        g2 = random_graph(rng, prefix="b", max_nodes=4)
        h = random_partial_iso(rng, g1, g2)
        if check_isomorphism(h, g1, g2):
            found += 1
            assert len(g1.nodes) == len(g2.nodes)
            assert len(g1.edges) == len(g2.edges)
            assert sorted(g1.nodes.values()) == sorted(g2.nodes.values())
    # at least the empty-graph pairs must have produced isomorphisms
    assert found > 0


def test_bijective_embedding_with_equal_props_is_isomorphism():
    rng = random.Random(13)
    for _ in range(200):
        g1 = random_graph(rng, prefix="a", max_nodes=4)
        h = Matching({v: v for v in g1.nodes}, {e: e for e in g1.edges})
        assert check_subgraph_embedding(h, g1, g1)
        assert check_isomorphism(h, g1, g1)
    # bijective embedding without two-way property equality is not an iso
    g1 = PropertyGraph({"v": "a"})
    g2 = PropertyGraph({"w": "a"}, {}, {("w", "k"): "d"})
    h = Matching({"v": "w"})
    assert check_subgraph_embedding(h, g1, g2)
    assert not check_isomorphism(h, g1, g2)


def test_matching_violations():
    g1 = PropertyGraph({"v1": "a", "v2": "a"}, {"e1": ("v1", "v2", "x")})
    g2 = PropertyGraph({"w1": "a", "w2": "a"}, {"f1": ("w1", "w2", "x")})
    ok = Matching({"v1": "w1", "v2": "w2"}, {"e1": "f1"})
    assert matching_violations(ok, g1, g2) == []
    bad = Matching({"v1": "w2", "v2": "w1"}, {"e1": "f1"})
    assert any("endpoint" in v for v in matching_violations(bad, g1, g2))


# -- renaming -------------------------------------------------------------------


def test_rename_graph_swaps_ids():
    g = PropertyGraph({"a": "l1", "b": "l2"}, {"e": ("a", "b", "x")}, {("a", "k"): "d"})
    out = rename_graph(g, {"a": "b", "b": "a"})
    assert out.nodes == {"b": "l1", "a": "l2"}
    assert out.edges == {"e": ("b", "a", "x")}
    assert out.props == {("b", "k"): "d"}


def test_rename_graph_rejects_collapse():
    g = PropertyGraph({"a": "l", "b": "l"})
    with pytest.raises(ValueError, match="collapses"):
        rename_graph(g, {"a": "b"})


# -- text format ------------------------------------------------------------------


def test_format_parse_round_trip_random():
    rng = random.Random(23)
    for _ in range(100):
        g = random_graph(rng, prefix="x", max_nodes=5)
        assert parse_graph(format_graph(g)) == g


def test_parse_graph_quoting_and_comments():
    text = '# header\nn "V 1" "label with space"\nn v2 plain\n\ne "E 9" "V 1" v2 "quote\\"ed"\n'
    g = parse_graph(text)
    assert g.nodes["V 1"] == "label with space"
    assert g.edges["E 9"] == ("V 1", "v2", 'quote"ed')
    assert parse_graph(format_graph(g)) == g
    # ids, labels, keys and values that the random graphs never need to quote
    w = WEIRD_ATOMS
    r = w[1:] + w[:1]
    weird = PropertyGraph(
        dict(zip(w, r)),
        {f"{a}'": (a, b, b) for a, b in zip(w, r)},
        {**{(a, b): a for a, b in zip(w, r)}, **{(f"{a}'", a): b for a, b in zip(w, r)}},
    )
    assert parse_graph(format_graph(weird)) == weird
    script = [
        op
        for a, b, c, d in zip(w, r, w[2:] + w[:2], w[3:] + w[:3])
        for op in (
            InsertNode(a, b),
            InsertEdge(a, b, c, d),
            InsertProp(a, b, c),
            DeleteNode(a),
            DeleteEdge(b),
            DeleteProp(a, b),
            UpdateProp(a, b, c),
            RelabelNode(a, b),
            RelabelEdge(a, b),
        )
    ]
    assert parse_script(format_script(script)) == script
    # long runs of blanks, inside and after a record and on a line of their
    # own, are read in linear time
    padded = "n" + " \t" * 10_000 + "v1 a" + " " * 20_000 + "\n" + "\t" * 20_000 + "\n"
    start = time.perf_counter()
    assert parse_graph(padded) == PropertyGraph({"v1": "a"}, {}, {})
    assert time.perf_counter() - start < 1.0


def test_parse_graph_rejects_invalid():
    with pytest.raises(GraphFormatError, match="duplicate node"):
        parse_graph("n v a\nn v b\n")
    with pytest.raises(GraphFormatError, match="not a node"):
        parse_graph("n v a\ne e1 v v9 x\n")
    with pytest.raises(GraphFormatError, match="unrecognized"):
        parse_graph("q v a\n")
    with pytest.raises(GraphFormatError):
        parse_graph('n v "unterminated\n')
    with pytest.raises(GraphFormatError, match="quote in the middle of a token"):
        parse_graph('n v a"b\n')
    with pytest.raises(GraphFormatError, match="bad escape in quoted token"):
        parse_graph('n v "a\\q"\n')


def test_parse_graph_unordered_and_decorated_records():
    rng = random.Random(29)
    for _ in range(60):
        g = random_graph(rng, prefix="x", max_nodes=12, edge_p=0.2, self_loops=True)
        lines = format_graph(g).splitlines()
        shuffled = lines[:]
        rng.shuffle(shuffled)
        parsed = parse_graph("\n".join(shuffled) + "\n")
        assert parsed == g
        assert (list(parsed.nodes), list(parsed.edges), list(parsed.props)) == (
            list(g.nodes), list(g.edges), list(g.props)
        )
        # blank and comment-only lines, trailing comments, lines with every
        # token quoted and \r\n line endings read as the plain records do
        decorated = ["# a graph", ""]
        for line in shuffled:
            quoted = " ".join(quote(t) for t in tokenize_line(line))
            decorated.append(quoted if rng.random() < 0.5 else line)
            if rng.random() < 0.3:
                decorated[-1] += "  # note"
            if rng.random() < 0.2:
                decorated += ["", "   # between records"]
        assert parse_graph("\r\n".join(decorated) + "\r\n") == g


@pytest.mark.parametrize(
    "text, message",
    [
        ("n v a\n\n# note\nn v b\n", "line 4: duplicate node id 'v'"),
        ("n v a\ne e v v x\np v k 1\ne e v v y # again\n", "line 4: duplicate edge id 'e'"),
        ('n v a\np v k 1\r\np "v" k 2\r\n', "line 3: duplicate property ('v', 'k')"),
        ("n v a\n  \nq v a\n", "line 3: unrecognized record ['q', 'v', 'a']"),
        ("n v a\nn w\n", "line 2: unrecognized record ['n', 'w']"),
        ('n v a\ne "e 1" v v\n', "line 2: unrecognized record ['e', 'e 1', 'v', 'v']"),
    ],
)
def test_parse_graph_error_messages_name_the_line(text, message):
    with pytest.raises(GraphFormatError) as info:
        parse_graph(text)
    assert str(info.value) == message


# -- construction -----------------------------------------------------------------


def _reversed_keys(d: dict) -> dict:
    return {k: d[k] for k in sorted(d, reverse=True)}


def test_construction_sorts_keys_of_unordered_input():
    rng = random.Random(31)
    for _ in range(40):
        g = random_graph(rng, prefix="x", max_nodes=12, edge_p=0.2, self_loops=True)
        maps = (g.nodes, g.edges, g.props)
        built = PropertyGraph(*(_reversed_keys(d) for d in maps))
        assert built == g
        for got, d in zip((built.nodes, built.edges, built.props), maps):
            assert list(got) == sorted(d)
        h = random_partial_iso(rng, g, g)
        m = Matching(_reversed_keys(h.node_map), _reversed_keys(h.edge_map))
        assert m == h
        assert (list(m.node_map), list(m.edge_map)) == (sorted(h.node_map), sorted(h.edge_map))


@pytest.mark.parametrize("order", [sorted, lambda keys: sorted(keys, reverse=True)])
def test_construction_copies_its_input(order):
    nodes = {v: "n" for v in order(["v1", "v2", "v3"])}
    edges = {e: [s, t, "e"] for e, s, t in order([("e1", "v1", "v2"), ("e2", "v2", "v3")])}
    props = {k: "1" for k in order([("v1", "k"), ("e2", "k")])}
    node_map = {v: v for v in order(["v1", "v2"])}
    edge_map = {e: e for e in order(["e1", "e2"])}
    g = PropertyGraph(nodes, edges, props)
    m = Matching(node_map, edge_map)
    assert g.edges == {"e1": ("v1", "v2", "e"), "e2": ("v2", "v3", "e")}
    assert all(type(value) is tuple for value in g.edges.values())
    before = (dict(g.nodes), dict(g.edges), dict(g.props), dict(m.node_map), dict(m.edge_map))
    nodes["v0"] = "n"
    edges["e1"][2] = "changed"
    edges["e0"] = ["v0", "v1", "e"]
    props[("v0", "k")] = "2"
    node_map["v3"] = "v3"
    edge_map["e0"] = "e0"
    assert (g.nodes, g.edges, g.props, m.node_map, m.edge_map) == before


def test_construction_refuses_an_edge_without_three_parts():
    with pytest.raises(ValueError):
        PropertyGraph({"v": "n"}, {"e": ("v", "v")}, {})
    with pytest.raises(ValueError):
        PropertyGraph({"v": "n"}, {"b": ("v", "v", "e"), "a": ["v", "v"]}, {})
