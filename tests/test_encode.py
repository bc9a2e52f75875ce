import random

import pytest

from conftest import WEIRD_ATOMS, random_graph
from pgmatch import CostModel, PropertyGraph
from pgmatch.bridge import parse_solver_output
from pgmatch.encode import (
    Fact,
    ProblemKind,
    decode_graph_facts,
    encode_graph_facts,
    encode_problem,
    escape_atom,
    render_job,
)
from pgmatch.records import scan_atoms, unquote


def test_escape_bare_when_safe():
    assert escape_atom("v1") == "v1"
    assert escape_atom("abc_XYZ9") == "abc_XYZ9"


def test_escape_quotes_everything_else():
    assert escape_atom("V1") == '"V1"'
    assert escape_atom("has space") == '"has space"'
    assert escape_atom('q"t') == '"q\\"t"'
    assert escape_atom("not") == '"not"'  # solver keyword


def test_escape_round_trip_and_injectivity():
    rendered = [escape_atom(a) for a in WEIRD_ATOMS]
    assert len(set(rendered)) == len(WEIRD_ATOMS)
    for atom, token in zip(WEIRD_ATOMS, rendered):
        assert (unquote(token) if token.startswith('"') else token) == atom
    line = " ".join(f"h({token},{token})" for token in rendered) + f" t({','.join(rendered)})"
    models, _, _ = parse_solver_output(f"Answer: 1\n{line}\nSATISFIABLE\n")
    assert models == [[Fact("h", (a, a)) for a in WEIRD_ATOMS] + [Fact("t", tuple(WEIRD_ATOMS))]]


def test_fact_rendering():
    assert Fact("n1", ("v1", "a")).render() == "n1(v1,a)."
    assert (
        Fact("e1", ("E9", "V1", "V2", "Read")).render()
        == 'e1("E9","V1","V2","Read").'
    )


def test_parse_atom_round_trip():
    def parse(text):
        [(_, pred, args)] = scan_atoms(text)
        return Fact(pred, args)

    fact = Fact("h", ("V 2", "w"))
    assert parse(fact.render()) == fact
    assert parse("h(v1,w1)") == Fact("h", ("v1", "w1"))
    assert parse("empty_pred") == Fact("empty_pred", ())
    with pytest.raises(ValueError):
        scan_atoms("broken(")


def test_encode_graph_facts_order_and_prefix():
    g = PropertyGraph(
        {"v2": "a", "v1": "a"},
        {"e1": ("v1", "v2", "x")},
        {("v1", "k"): "d"},
    )
    lines = [f.render() for f in encode_graph_facts(g, 1)]
    assert lines == ["n1(v1,a).", "n1(v2,a).", "e1(e1,v1,v2,x).", "p1(v1,k,d)."]
    lines2 = [f.render() for f in encode_graph_facts(g, 2)]
    assert lines2[0] == "n2(v1,a)."


def test_encode_empty_graph_gives_no_facts():
    assert encode_graph_facts(PropertyGraph(), 1) == []


def test_encode_rejects_invalid_graph():
    bad = PropertyGraph({"v": "a"}, {"e": ("v", "missing", "x")})
    with pytest.raises(ValueError, match="invalid"):
        encode_graph_facts(bad, 1)


def test_fact_round_trip_on_random_graphs():
    rng = random.Random(61)
    for _ in range(200):
        g = random_graph(rng, prefix="g", max_nodes=5, self_loops=True)
        assert decode_graph_facts(encode_graph_facts(g, 1), 1) == g
        assert decode_graph_facts(encode_graph_facts(g, 2), 2) == g


def test_fact_round_trip_with_hostile_ids():
    g = PropertyGraph(
        {"V 1": "läbel", "not": "b"},
        {'e"q': ("V 1", "not", "x y")},
        {(('e"q'), "k 1"): 'va"l'},
    )
    assert decode_graph_facts(encode_graph_facts(g, 1), 1) == g


def test_hom_program_is_exactly_three_rules():
    text = encode_problem(ProblemKind.HOM).text
    rules = [line for line in text.splitlines() if line.strip()]
    assert len(rules) == 3
    assert rules[0] == "{h(X,Y) : n2(Y,L)} = 1 :- n1(X,L)."
    assert rules[1] == "{h(X,Y) : e2(Y,S2,T2,L), h(S1,S2), h(T1,T2)} = 1 :- e1(X,S1,T1,L)."
    assert rules[2] == ":- p1(X,K,D), h(X,Y), not p2(Y,K,D)."


def test_iso_program_extends_hom():
    hom = encode_problem(ProblemKind.HOM).text
    iso = encode_problem(ProblemKind.ISO).text
    assert iso.startswith(hom)
    extra = [l for l in iso[len(hom):].splitlines() if l.strip()]
    assert len(extra) == 3
    assert extra[0] == "{h(X,Y) : n1(X,L)} = 1 :- n2(Y,L)."


def test_sub_program_extends_hom_with_injectivity():
    hom = encode_problem(ProblemKind.HOM).text
    sub = encode_problem(ProblemKind.SUB).text
    assert sub.startswith(hom)
    extra = [l for l in sub[len(hom):].splitlines() if l.strip()]
    assert extra == [
        "{h(X,Y) : n1(X,L)} <= 1 :- n2(Y,L).",
        "{h(X,Y) : e1(X,S1,T1,L), h(S1,S2), h(T1,T2)} <= 1 :- e2(Y,S2,T2,L).",
    ]


def test_ged_program_structure():
    text = encode_problem(ProblemKind.GED).text
    assert "delete_node(X) :- n1(X,_), not h(X,_)." in text
    assert "insert_node(Y,L) :- n2(Y,L), not h(_,Y)." in text
    assert "update_prop(X,K,V1,V2) :- p1(X,K,V1), h(X,Y), p2(Y,K,V2), V1 != V2." in text
    assert text.count("delete_prop(X,K) :-") == 3
    assert text.count("insert_prop(Y,K,V) :-") == 3
    assert "#minimize" in text
    assert "relabel" not in text


def test_ged_relabel_program_structure():
    text = encode_problem(ProblemKind.GED_RELABEL).text
    assert "{h(X,Y) : n2(Y,_)} <= 1 :- n1(X,_)." in text
    assert "relabel_node(X,L2) :- n1(X,L1), h(X,Y), n2(Y,L2), L1 != L2." in text
    assert "node_cost(X,1) :- relabel_node(X,_)." in text
    assert "edge_cost(X,1) :- relabel_edge(X,_)." in text


def test_gedc_program_has_default_constants_first():
    text = encode_problem(ProblemKind.GEDC_WEIGHTED, CostModel.gedc()).text
    lines = text.splitlines()
    assert lines[:6] == [
        "#const c_node_sub=2.",
        "#const c_node_ins=4.",
        "#const c_node_del=4.",
        "#const c_edge_sub=1.",
        "#const c_edge_ins=2.",
        "#const c_edge_del=2.",
    ]
    assert "node_cost(X,c_node_sub)" in text
    assert "prop_cost" not in text


def test_gedc_constants_follow_cost_model():
    cm = CostModel(weights={"insV": 9, "delV": 8, "insE": 7, "delE": 6}, node_sub=5, edge_sub=4)
    prog = encode_problem(ProblemKind.GEDC_WEIGHTED, cm)
    assert "#const c_node_ins=9." in prog.text
    assert prog.constants == {
        "node_sub": 5,
        "node_ins": 9,
        "node_del": 8,
        "edge_sub": 4,
        "edge_ins": 7,
        "edge_del": 6,
    }


def test_approx_sub_programs():
    old = encode_problem(ProblemKind.APPROX_SUB_OLD).text
    new = encode_problem(ProblemKind.APPROX_SUB_NEW).text
    assert ":- X != Y, h(X,Z), h(Y,Z)." in old
    assert "prop_cost(X,K,0) :- p1(X,K,V), h(X,Y), p2(Y,K,V)." in old
    assert "{h(X,Y) : n1(X,L)} <= 1 :- n2(Y,L)." in new
    assert new.rstrip().endswith("#minimize { LC,X,K : prop_cost(X,K,LC) }.")


def test_cost_model_only_for_weighted_kind():
    with pytest.raises(ValueError, match="cost model"):
        encode_problem(ProblemKind.GEDC_WEIGHTED)
    with pytest.raises(ValueError, match="cost model"):
        encode_problem(ProblemKind.HOM, CostModel.unit())


def test_render_job_is_deterministic():
    g1 = PropertyGraph({"v1": "a"}, {}, {("v1", "k"): "d"})
    g2 = PropertyGraph({"w1": "a", "w2": "b"}, {"f1": ("w1", "w2", "x")})
    once = render_job(g1, g2, ProblemKind.ISO)
    again = render_job(g1, g2, ProblemKind.ISO)
    assert once == again
    assert "n1(v1,a)." in once and "n2(w1,a)." in once
    assert once.index("n1(") < once.index("n2(") < once.index("{h(X,Y)")


def test_render_job_facts_agree_with_encode_graph_facts():
    # render_job writes fact lines straight from the graphs and escapes each
    # string once; they must read as the rendered Fact objects do
    rng = random.Random(13)
    chars = list('ab1éA"\\# \t\n') + ["\xa0", "\x0b", "\x1c", "\x1f", "\u3000", "\x85"]

    def text() -> str:
        if rng.random() < 0.5:
            return rng.choice(WEIRD_ATOMS)
        return "".join(rng.choice(chars) for _ in range(rng.randrange(4)))

    def graph(prefix: str) -> PropertyGraph:
        nodes = {f"{prefix}v{text()}": text() for _ in range(rng.randrange(5))}
        ids = sorted(nodes)
        edges = {}
        if ids:
            edges = {
                f"{prefix}e{text()}": (rng.choice(ids), rng.choice(ids), text())
                for _ in range(rng.randrange(5))
            }
        owners = ids + sorted(edges)
        props = {(rng.choice(owners), text()): text() for _ in range(rng.randrange(6)) if owners}
        return PropertyGraph(nodes, edges, props)

    for _ in range(3000):
        g1, g2 = graph(rng.choice(["a", "A", "not", '"'])), graph(rng.choice(["b", "B", "\\"]))
        kind = rng.choice([ProblemKind.HOM, ProblemKind.GED])
        blocks = [
            "\n".join(f.render() for f in encode_graph_facts(g, i)) + "\n"
            for i, g in ((1, g1), (2, g2))
            if g.nodes
        ]
        assert render_job(g1, g2, kind) == "\n".join([*blocks, encode_problem(kind).text])


def test_render_job_on_empty_graphs_has_rules_only():
    text = render_job(PropertyGraph(), PropertyGraph(), ProblemKind.HOM)
    assert text == encode_problem(ProblemKind.HOM).text


def test_render_job_names_the_invalid_graph():
    good = PropertyGraph({"w": "a"})
    bad = PropertyGraph({"v": "a"}, {"e": ("v", "missing", "x")})
    with pytest.raises(ValueError, match="graph 2 is invalid: edge 'e'"):
        render_job(good, bad, ProblemKind.HOM)


def test_render_job_rejects_shared_ids():
    g = PropertyGraph({"v1": "a"})
    with pytest.raises(ValueError, match="disjoint"):
        render_job(g, g, ProblemKind.HOM)


def test_problem_kind_from_name():
    assert ProblemKind.from_name("hom") is ProblemKind.HOM
    assert ProblemKind.from_name("GED_RELABEL") is ProblemKind.GED_RELABEL
    assert ProblemKind.from_name("ged-relabel") is ProblemKind.GED_RELABEL
    with pytest.raises(ValueError):
        ProblemKind.from_name("nope")
