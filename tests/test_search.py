import math
import random
import time
from collections import Counter

import pytest

from conftest import (
    KEYS,
    LABELS,
    VALUES,
    brute_hom_exists,
    brute_iso_exists,
    brute_sub_exists,
    random_graph,
)
from pgmatch import (
    CostModel,
    PropertyGraph,
    SearchOptions,
    SearchTimeout,
    SizeGuardError,
    check_homomorphism,
    check_isomorphism,
    check_subgraph_embedding,
    gen_chain,
    gen_cycle,
    gen_random,
    min_edit_matching,
    oracle_ged,
    rename_graph,
    search_hom,
    search_iso,
    search_sub,
)
from pgmatch import search as search_mod
from pgmatch.search import (
    _bucket_cost,
    _bucket_pairs,
    _Deadline,
    _GedSearch,
    _one_edge,
)

RELABEL = SearchOptions(mode="relabel")


# -- decision searches ---------------------------------------------------------


def test_hom_identity_found():
    g = PropertyGraph({"v": "a"}, {"e": ("v", "v", "x")}, {("v", "k"): "d"})
    w = search_hom(g, g)
    assert w is not None and check_homomorphism(w, g, g)


def test_hom_chain_into_cycle_non_injective():
    chain = gen_chain(2, "a")
    cycle = gen_cycle(2, "b")
    assert brute_hom_exists(chain, cycle)
    w = search_hom(chain, cycle)
    assert w is not None
    assert check_homomorphism(w, chain, cycle)
    assert len(set(w.node_map.values())) < len(w.node_map)


def test_hom_label_mismatch_absent():
    assert search_hom(PropertyGraph({"v": "a"}), PropertyGraph({"w": "b"})) is None


def test_iso_triangle_permutation():
    g1, g2 = gen_cycle(3, "a"), gen_cycle(3, "b")
    assert brute_iso_exists(g1, g2)
    w = search_iso(g1, g2)
    assert w is not None and check_isomorphism(w, g1, g2)


def test_iso_chain_vs_cycle_absent():
    assert search_iso(gen_chain(3, "a"), gen_cycle(3, "b")) is None


def test_iso_property_value_mismatch_absent():
    g1 = PropertyGraph({"v": "a"}, {}, {("v", "k"): "d1"})
    g2 = PropertyGraph({"w": "a"}, {}, {("w", "k"): "d2"})
    assert search_iso(g1, g2) is None


def test_sub_chain3_into_cycle4():
    chain, cycle = gen_chain(3, "a"), gen_cycle(4, "b")
    assert brute_sub_exists(chain, cycle)
    w = search_sub(chain, cycle)
    assert w is not None and check_subgraph_embedding(w, chain, cycle)


def test_sub_chain4_into_cycle4_pigeonhole():
    assert search_sub(gen_chain(4, "a"), gen_cycle(4, "b")) is None


def test_sub_identity():
    g = random_graph(random.Random(3), prefix="g", max_nodes=4)
    w = search_sub(g, g)
    assert w is not None and check_subgraph_embedding(w, g, g)


def _with_parallel_edges(rng: random.Random, g: PropertyGraph) -> PropertyGraph:
    """``g`` plus a second edge, with its own label and properties, beside
    some of its edges."""
    edges, props = dict(g.edges), dict(g.props)
    for e, (s, t, _) in g.edges.items():
        if rng.random() < 0.5:
            edges[e + "p"] = (s, t, rng.choice(LABELS))
            if rng.random() < 0.5:
                props[(e + "p", rng.choice(KEYS))] = rng.choice(VALUES)
    return PropertyGraph(g.nodes, edges, props)


def _renamed_copy(rng: random.Random, g: PropertyGraph) -> PropertyGraph:
    """``g`` with its node ids shuffled into the ``b`` id space."""
    nodes = sorted(g.nodes)
    targets = [f"bv{i}" for i in range(len(nodes))]
    rng.shuffle(targets)
    mapping = dict(zip(nodes, targets))
    mapping.update({e: "b" + e for e in g.edges})
    return rename_graph(g, mapping)


def _repointed(rng: random.Random, g: PropertyGraph) -> PropertyGraph:
    """``g`` with the target of one edge moved to another node: node and
    edge counts, labels included, stay the same."""
    if not g.edges:
        return g
    e = rng.choice(sorted(g.edges))
    s, t, lab = g.edges[e]
    others = [v for v in sorted(g.nodes) if v != t]
    if not others:
        return g
    return PropertyGraph(g.nodes, {**g.edges, e: (s, rng.choice(others), lab)}, g.props)


def _one_label_short(rng: random.Random, g: PropertyGraph) -> PropertyGraph:
    """A copy of ``g`` with more nodes and as many edges, but one node or
    edge label less often: g does not embed in it when labels must match."""
    nodes, edges = dict(g.nodes), dict(g.edges)
    owner = rng.choice(sorted(nodes) + sorted(edges))
    if owner in nodes:
        nodes[owner] = "c"
    else:
        s, t, _ = edges[owner]
        edges[owner] = (s, t, "c")
    nodes["zv"] = rng.choice(LABELS)
    return _renamed_copy(rng, PropertyGraph(nodes, edges, g.props))


def _stripped(g: PropertyGraph, labels: bool = False, props: bool = False) -> PropertyGraph:
    """``g`` with every label made equal and/or its properties dropped."""
    return PropertyGraph(
        {v: "l" if labels else lab for v, lab in g.nodes.items()},
        {e: (s, t, "l" if labels else lab) for e, (s, t, lab) in g.edges.items()},
        {} if props else g.props,
    )


def _with_cycle(rng: random.Random, g: PropertyGraph) -> PropertyGraph:
    """``g`` plus one directed cycle through all of its nodes."""
    ids = sorted(g.nodes)
    edges = {f"{v}c": (v, ids[(i + 1) % len(ids)], rng.choice(LABELS)) for i, v in enumerate(ids)}
    return PropertyGraph(g.nodes, {**g.edges, **edges}, g.props)


def _acyclic(g: PropertyGraph, self_loops: bool) -> PropertyGraph:
    """``g`` with every edge pointing up the id order: its only cycles are
    its self-loops, if they are kept."""
    edges = {
        e: (min(s, t), max(s, t), lab)
        for e, (s, t, lab) in g.edges.items()
        if s != t or self_loops
    }
    props = {k: d for k, d in g.props.items() if k[0] in g.nodes or k[0] in edges}
    return PropertyGraph(g.nodes, edges, props)


def _degree_deficient(rng: random.Random, g: PropertyGraph) -> PropertyGraph:
    """A renamed copy of ``g`` with one edge moved between two new nodes:
    as many edges per label, more nodes, one endpoint short of an edge."""
    if not g.edges:
        return _renamed_copy(rng, g)
    e = rng.choice(sorted(g.edges))
    nodes = {**g.nodes, "zv1": rng.choice(LABELS), "zv2": rng.choice(LABELS)}
    edges = {**g.edges, e: ("zv1", "zv2", g.edges[e][2])}
    return _renamed_copy(rng, PropertyGraph(nodes, edges, g.props))


def _fresh_value(rng: random.Random, g: PropertyGraph) -> PropertyGraph:
    """``g`` with one node property set to a value no random graph uses."""
    if not g.nodes:
        return g
    owner = rng.choice(sorted(g.nodes))
    return PropertyGraph(g.nodes, g.edges, {**g.props, (owner, rng.choice(KEYS)): "fresh"})


def _looped_path(rng: random.Random, prefix: str) -> PropertyGraph:
    """A node on a path from a self-loop or 2-cycle to another: it has an
    endless walk in and out but lies on no cycle."""
    ids = [f"{prefix}v{i}" for i in range(5)]
    left = [ids[0]] if rng.random() < 0.5 else ids[:2]
    right = [ids[4]] if rng.random() < 0.5 else ids[3:]
    pairs = [(left[-1], ids[2]), (ids[2], right[0])]
    for end in (left, right):  # one self-loop at a 1-node end
        pairs += dict.fromkeys([(end[0], end[-1]), (end[-1], end[0])])
    nodes = {v: rng.choice(LABELS) for v in left + [ids[2]] + right}
    edges = {f"{prefix}e{i}": (s, t, rng.choice(LABELS)) for i, (s, t) in enumerate(pairs)}
    return PropertyGraph(nodes, edges)


def _with_tail(rng: random.Random, g: PropertyGraph) -> PropertyGraph:
    """``g`` plus a new node joined to one of its nodes by an edge either
    way: a tail, in no walk core."""
    if not g.nodes:
        return g
    v, tail = rng.choice(sorted(g.nodes)), "zv"
    edge = (v, tail) if rng.random() < 0.5 else (tail, v)
    nodes, edges = {**g.nodes, tail: rng.choice(LABELS)}, {**g.edges, "ze": (*edge, "a")}
    return PropertyGraph(nodes, edges, g.props)


def test_searches_agree_with_brute_force_on_random_pairs():
    rng = random.Random(101)
    pairs = [
        (random_graph(rng, prefix="a", max_nodes=3), random_graph(rng, prefix="b", max_nodes=3))
        for _ in range(120)
    ]
    for _ in range(60):
        pairs.append(
            tuple(
                _with_parallel_edges(rng, random_graph(rng, prefix=p, max_nodes=3, self_loops=True))
                for p in "ab"
            )
        )
    for _ in range(60):
        g = random_graph(rng, prefix="a", max_nodes=4, edge_p=0.4, self_loops=True)
        pairs.append((g, _renamed_copy(rng, g)))
        pairs.append((g, _renamed_copy(rng, _repointed(rng, g))))
    for _ in range(30):
        g = random_graph(rng, prefix="a", max_nodes=3, edge_p=0.5, self_loops=True)
        if g.nodes:
            pairs.append((g, _one_label_short(rng, g)))
    for _ in range(60):
        # the same graph with other parallel edges on each side
        g = random_graph(rng, prefix="a", max_nodes=3, edge_p=0.5, self_loops=True)
        pairs.append((_with_parallel_edges(rng, g), _with_parallel_edges(rng, _renamed_copy(rng, g))))
    for _ in range(40):
        # cyclic patterns, targets without cycles or with only self-loops
        g = _with_cycle(rng, random_graph(rng, prefix="a", max_nodes=3, self_loops=True))
        h = random_graph(rng, prefix="b", max_nodes=4, edge_p=0.5, self_loops=True)
        pairs.append((g, _acyclic(h, self_loops=False)))
        pairs.append((g, _acyclic(h, self_loops=True)))
    for _ in range(40):
        g = random_graph(rng, prefix="a", max_nodes=4, edge_p=0.4, self_loops=True)
        pairs.append((g, _degree_deficient(rng, g)))
        pairs.append((_fresh_value(rng, g), _renamed_copy(rng, g)))
    for _ in range(30):
        # walk core apart from the cycle set: a path between two loops or
        # 2-cycles, against another and against targets with loops and tails
        g = _looped_path(rng, "a")
        h = random_graph(rng, prefix="b", max_nodes=3, edge_p=0.4, self_loops=True)
        pairs.append((g, _looped_path(rng, "b")))
        pairs.append((g, _with_tail(rng, h)))
    relabel, soft = SearchOptions(mode="relabel"), SearchOptions(properties="soft")
    for g1, g2 in pairs:
        unlabelled = _stripped(g1, labels=True), _stripped(g2, labels=True)
        bare = _stripped(g1, props=True), _stripped(g2, props=True)
        for search, brute in (
            (search_hom, brute_hom_exists),
            (search_sub, brute_sub_exists),
            (search_iso, brute_iso_exists),
        ):
            assert (search(g1, g2) is not None) == brute(g1, g2)
            assert (search(g1, g2, relabel) is not None) == brute(*unlabelled)
            assert (search(g1, g2, soft) is not None) == brute(*bare)


def test_search_witnesses_pass_checkers():
    rng = random.Random(103)
    for _ in range(120):
        g1 = random_graph(rng, prefix="a", max_nodes=4)
        g2 = random_graph(rng, prefix="b", max_nodes=4)
        w = search_hom(g1, g2)
        if w is not None:
            assert check_homomorphism(w, g1, g2)
        w = search_sub(g1, g2)
        if w is not None:
            assert check_subgraph_embedding(w, g1, g2)
        w = search_iso(g1, g2)
        if w is not None:
            assert check_isomorphism(w, g1, g2)


def test_search_determinism():
    rng = random.Random(107)
    for _ in range(40):
        g1 = random_graph(rng, prefix="a", max_nodes=4)
        g2 = random_graph(rng, prefix="b", max_nodes=4)
        for op in (search_hom, search_iso, search_sub):
            assert op(g1, g2) == op(g1, g2)


def test_relabel_mode_ignores_labels():
    g1 = PropertyGraph({"v": "a"})
    g2 = PropertyGraph({"w": "b"})
    assert search_hom(g1, g2, RELABEL) is not None
    assert search_iso(g1, g2, RELABEL) is not None


def test_soft_properties_return_min_mismatch_witness():
    # two candidate targets: one differs in a property, one matches exactly
    g1 = PropertyGraph({"v": "a"}, {}, {("v", "k"): "d1"})
    g2 = PropertyGraph(
        {"w1": "a", "w2": "a"}, {}, {("w1", "k"): "d2", ("w2", "k"): "d1"}
    )
    soft = SearchOptions(properties="soft")
    w = search_sub(g1, g2, soft)
    assert w.node_map == {"v": "w2"}
    # hard mode also finds w2; make the exact match impossible and soft still answers
    g2b = PropertyGraph({"w1": "a"}, {}, {("w1", "k"): "d2"})
    assert search_sub(g1, g2b) is None
    assert search_sub(g1, g2b, soft).node_map == {"v": "w1"}
    # and among parallel edges the cheaper one is the witness's edge
    h1 = PropertyGraph({"v": "a", "u": "a"}, {"e": ("v", "u", "r")}, {("e", "k"): "d1"})
    h2 = PropertyGraph(
        {"x": "a", "y": "a"},
        {"f1": ("x", "y", "r"), "f2": ("x", "y", "r")},
        {("f1", "k"): "d2", ("f2", "k"): "d1"},
    )
    assert search_hom(h1, h2, soft).edge_map == {"e": "f2"}
    # iso prices the properties both ways, sub only those of g1: iso's
    # cheapest witness has 4 mismatches against 5, sub's has 3 against 4
    k1 = PropertyGraph(
        {"v1": "a", "v2": "a"},
        {},
        {("v1", "a"): "1", ("v1", "b"): "2", ("v2", "a"): "2", ("v2", "c"): "1"},
    )
    k2 = PropertyGraph(
        {"w1": "a", "w2": "a"},
        {},
        {("w1", "b"): "1", ("w2", "a"): "1", ("w2", "c"): "2"},
    )
    assert search_iso(k1, k2, soft).node_map == {"v1": "w1", "v2": "w2"}
    assert search_sub(k1, k2, soft).node_map == {"v1": "w2", "v2": "w1"}


def test_search_timeout_raises():
    g1 = gen_cycle(40, "a")
    g2 = gen_cycle(41, "b")
    # isomorphism is impossible (sizes differ) but cheap; force a hom search
    with pytest.raises(SearchTimeout):
        search_hom(g1, g2, SearchOptions(budget=1e-9))


def test_search_options_refuse_budgets_that_never_expire():
    for budget in (0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="budget must be positive"):
            SearchOptions(budget=budget)


def test_decision_searches_find_identity_on_long_chain():
    # one search depth per node, far beyond the interpreter's recursion limit
    n = 5000
    g = PropertyGraph(
        {f"v{i}": f"l{i}" for i in range(n)},
        {f"e{i}": (f"v{i}", f"v{i + 1}", "x") for i in range(n - 1)},
    )
    for search in (search_iso, search_hom, search_sub):
        w = search(g, g)
        assert w is not None
        assert w.node_map == {v: v for v in g.nodes}
        assert w.edge_map == {e: e for e in g.edges}


def test_cycle_into_chain_is_unsat_at_the_root():
    # every pattern node lies on a cycle and no target node does; tried from
    # each start image in turn, this costs about k² search steps
    cycle, chain = gen_cycle(400, "a"), gen_chain(400, "b")
    assert search_hom(cycle, chain, SearchOptions(budget=0.5)) is None
    assert search_sub(cycle, chain, SearchOptions(budget=0.5)) is None


def test_cycle_rule_edge_cases():
    # a cycle maps onto a self-loop, a closed walk of length one
    cycle, loop = gen_cycle(5, "a"), gen_cycle(1, "b")
    w = search_hom(cycle, loop)
    assert w is not None and check_homomorphism(w, cycle, loop)
    # a 2-cycle has no image in a chain, whatever its parallel edges
    two = gen_cycle(2, "a")
    chain = gen_chain(3, "b")
    parallel = PropertyGraph(chain.nodes, {**chain.edges, "bp": ("bv001", "bv002", "e")})
    for search, brute in ((search_hom, brute_hom_exists), (search_sub, brute_sub_exists)):
        assert search(two, parallel) is None and not brute(two, parallel)
    # a back edge with another label closes a cycle that only relabel can use
    back = PropertyGraph(chain.nodes, {**chain.edges, "bb": ("bv003", "bv002", "f")})
    unlabelled = PropertyGraph(
        {v: "n" for v in back.nodes}, {f: (s, t, "e") for f, (s, t, _) in back.edges.items()}
    )
    for search, brute in ((search_hom, brute_hom_exists), (search_sub, brute_sub_exists)):
        assert search(two, back) is None and not brute(two, back)
        w = search(two, back, RELABEL)
        assert w is not None and brute(two, unlabelled)
        assert set(w.node_map.values()) == {"bv002", "bv003"}
    # a cyclic pattern with a property value the target lacks is refused
    # before the first search node, so even a spent budget answers
    g1 = PropertyGraph(cycle.nodes, cycle.edges, {("av000", "k"): "fresh"})
    target = gen_cycle(5, "b")
    g2 = PropertyGraph(target.nodes, target.edges, {("bv000", "k"): "old"})
    spent = SearchOptions(budget=1e-9)
    for search in (search_hom, search_iso, search_sub):
        assert search(g1, g2, spent) is None
        with pytest.raises(SearchTimeout):
            search(g1, g1, spent)


def test_decision_searches_solve_each_chain_bucket_once(monkeypatch):
    # hom's first node takes bv000 only if av000, its predecessor, keeps a
    # candidate; the witness reads the pairs each step found, so each of
    # the 100 one-edge buckets is scanned once, and none goes through
    # _bucket_cost
    calls = {"_bucket_cost": [], "_one_edge": []}
    for name, seen in calls.items():

        def counted(*args, _solve=getattr(search_mod, name), _seen=seen):
            _seen.append(args[0])
            return _solve(*args)

        monkeypatch.setattr(search_mod, name, counted)
    g1, g2 = gen_chain(100, "a"), gen_chain(100, "b")
    for search in (search_hom, search_iso):
        for seen in calls.values():
            seen.clear()
        w = search(g1, g2)
        assert w.node_map == {v: "b" + v[1:] for v in g1.nodes}, search.__name__
        assert w.edge_map == {e: "b" + e[1:] for e in g1.edges}, search.__name__
        assert len(calls["_one_edge"]) == 100, search.__name__
        assert sorted(calls["_one_edge"]) == sorted(g1.edges), search.__name__
        assert calls["_bucket_cost"] == [], search.__name__


def test_forward_checking_refuses_synthetic_hom_random_pairs():
    # synthetic-matrix's hom-rand30 and hom-rand40: an assignment that
    # leaves a neighbour no image is refused before the search goes below
    # it; an exhausted search leaves every kept domain as it found it
    for n in (30, 40):
        g1, g2 = gen_random(n, 0.1, 2 * n, "a"), gen_random(n, 0.1, 2 * n + 1, "b")
        assert search_hom(g1, g2, SearchOptions(budget=1)) is None
        engine = search_mod._DecisionSearch("hom", g1, g2, SearchOptions(budget=1))
        assert engine.run() is None
        assert engine.domains == engine._root_domains()


def _pigeonhole_star(prefix: str, ones: int, twos: int) -> PropertyGraph:
    """A hub pointing to ``ones`` leaves with ``k=1`` and ``twos`` with ``k=2``."""
    leaves = [f"{prefix}l{i:03d}" for i in range(ones + twos)]
    nodes = {f"{prefix}h": "n", **dict.fromkeys(leaves, "n")}
    edges = {f"{prefix}e{i:03d}": (f"{prefix}h", v, "e") for i, v in enumerate(leaves)}
    props = {(v, "k"): "1" if i < ones else "2" for i, v in enumerate(leaves)}
    return PropertyGraph(nodes, edges, props)


def test_pigeonhole_stars_fail_the_root_hall_check():
    # 50 leaves with k=1 have 49 images between them: refused before the
    # first search node, where leaf by leaf the search would never end
    g1, g2 = _pigeonhole_star("a", 50, 50), _pigeonhole_star("b", 49, 51)
    for search in (search_iso, search_sub):
        assert search(g1, g2, SearchOptions(budget=1)) is None, search.__name__
    assert search_hom(g1, g2) is not None


# -- minimum edit matching -------------------------------------------------------


def test_ged_of_identical_graphs_is_zero():
    g = random_graph(random.Random(5), prefix="g", max_nodes=5)
    result = min_edit_matching(g, g)
    assert result.cost == 0 and result.optimal and result.script == []


def test_ged_chain3_vs_cycle3_unit_cost_three():
    g1, g2 = gen_chain(3, "a"), gen_cycle(3, "b")
    assert oracle_ged(g1, g2) == 3
    result = min_edit_matching(g1, g2)
    assert result.cost == 3 and result.optimal


def test_ged_single_relabel_beats_delete_insert_under_weights():
    g1 = PropertyGraph({"v": "a"})
    g2 = PropertyGraph({"w": "b"})
    opts = SearchOptions(mode="relabel", cost_model=CostModel.gedc())
    result = min_edit_matching(g1, g2, opts)
    assert result.cost == 2
    assert [op.kind for op in result.script] == ["relV"]
    assert oracle_ged(g1, g2, opts) == 2


def test_min_edit_matches_oracle_on_random_pairs():
    rng = random.Random(109)
    custom = CostModel(
        weights={"insV": 3, "delV": 2, "insE": 2, "delE": 1, "insP": 2, "delP": 1, "updP": 2},
        node_sub=3,
        edge_sub=2,
    )
    for trial in range(140):
        g1 = random_graph(rng, prefix="a", max_nodes=4, self_loops=True)
        g2 = random_graph(rng, prefix="b", max_nodes=4, self_loops=True)
        if trial >= 80:  # parallel edges, with the same label or another
            g1, g2 = _with_parallel_edges(rng, g1), _with_parallel_edges(rng, g2)
        mode = "relabel" if trial % 2 else "label-hard"
        cm = [CostModel.unit(), CostModel.gedc(), custom][trial % 3]
        opts = SearchOptions(mode=mode, cost_model=cm)
        result = min_edit_matching(g1, g2, opts)
        assert result.optimal
        assert result.cost == oracle_ged(g1, g2, opts)
        if trial % 3 == 0:  # unit model: cost is script length
            assert result.cost == len(result.script)


def test_min_edit_matches_oracle_on_wide_buckets():
    # two nodes a side and up to five parallel edges, mostly in one bucket,
    # with mixed labels and properties: pairs, deletions and insertions compete
    rng = random.Random(139)
    ties = CostModel(weights={"insE": 1, "delE": 1}, edge_sub=2)

    def wide(p: str) -> PropertyGraph:
        a, b = f"{p}1", f"{p}2"
        edges, props = {}, {}
        for i in range(rng.randint(1, 5)):
            ends = (a, b) if rng.random() < 0.7 else rng.choice(((b, a), (a, a)))
            edges[f"{p}e{i}"] = (*ends, rng.choice(LABELS))
            for k in KEYS:
                if rng.random() < 0.4:
                    props[(f"{p}e{i}", k)] = rng.choice(VALUES)
        return PropertyGraph({a: "a", b: rng.choice(LABELS)}, edges, props)

    for trial in range(150):
        g1, g2 = wide("v"), wide("w")
        cm = [CostModel.unit(), CostModel.gedc(), ties][trial % 3]
        opts = SearchOptions(mode="relabel" if trial % 2 else "label-hard", cost_model=cm)
        result = min_edit_matching(g1, g2, opts)
        assert result.optimal
        assert result.cost == oracle_ged(g1, g2, opts)


def test_min_edit_script_applies_to_target():
    from pgmatch import apply_script, rename_graph

    rng = random.Random(113)
    for _ in range(60):
        g1 = random_graph(rng, prefix="a", max_nodes=4)
        g2 = random_graph(rng, prefix="b", max_nodes=4)
        result = min_edit_matching(g1, g2)
        edited = apply_script(g1, result.script)
        assert rename_graph(edited, result.matching.id_map()) == g2


def test_parallel_edge_bucket_assignment_accounts_for_properties():
    # pairing the property-matching parallel edge is strictly cheaper than
    # the lexicographically first pairing
    g1 = PropertyGraph(
        {"v1": "a", "v2": "a"},
        {"e1": ("v1", "v2", "x"), "e2": ("v1", "v2", "x")},
        {("e1", "k"): "d1"},
    )
    g2 = PropertyGraph(
        {"w1": "a", "w2": "a"},
        {"f1": ("w1", "w2", "x"), "f2": ("w1", "w2", "x")},
        {("f2", "k"): "d1"},
    )
    result = min_edit_matching(g1, g2)
    assert result.cost == 0
    assert result.matching.edge_map == {"e1": "f2", "e2": "f1"}
    assert oracle_ged(g1, g2) == 0


def test_parallel_edge_bucket_ties_take_the_first_cheapest_pairing():
    # relabeling an edge costs as much as deleting and inserting it, so
    # several pairings are cheapest; the lexicographically first list wins
    cm = CostModel(weights={"insE": 1, "delE": 1}, edge_sub=2)
    g1 = PropertyGraph(
        {"v1": "a", "v2": "a"}, {"e1": ("v1", "v2", "x"), "e2": ("v1", "v2", "x")}
    )
    g2 = PropertyGraph(
        {"w1": "a", "w2": "a"}, {"f1": ("w1", "w2", "x"), "f2": ("w1", "w2", "y")}
    )
    result = min_edit_matching(g1, g2, SearchOptions(mode="relabel", cost_model=cm))
    assert result.cost == 2
    assert result.matching.edge_map == {"e1": "f1"}
    # under hard properties e1 may take f1 or f2 and e2 f1 or f3: e1 keeps
    # f1, the first, and e2 takes f3, rather than e2 taking f1 from e1
    g1 = PropertyGraph(
        {"v1": "a", "v2": "a"},
        {"e1": ("v1", "v2", "x"), "e2": ("v1", "v2", "x")},
        {("e1", "k"): "1", ("e2", "j"): "1"},
    )
    g2 = PropertyGraph(
        {"w1": "a", "w2": "a"},
        {"f1": ("w1", "w2", "x"), "f2": ("w1", "w2", "x"), "f3": ("w1", "w2", "x")},
        {("f1", "k"): "1", ("f1", "j"): "1", ("f2", "k"): "1", ("f3", "j"): "1"},
    )
    witness = search_sub(g1, g2)
    assert witness.edge_map == {"e1": "f1", "e2": "f3"}
    assert check_subgraph_embedding(witness, g1, g2)
    # hom is not injective: each edge, a one-edge bucket, takes the first
    # image it may take, so both take f1
    witness = search_hom(g1, g2)
    assert witness.edge_map == {"e1": "f1", "e2": "f1"}
    assert check_homomorphism(witness, g1, g2)


def test_witness_solves_no_bucket_without_a_partner(monkeypatch):
    # deleting everything pairs no edge: no bucket of g1 has a g2 bucket
    # between images, so the witness rebuild solves none
    calls = []
    solve = search_mod._bucket_pairs

    def counted(*args):
        calls.append(args[0])
        return solve(*args)

    monkeypatch.setattr(search_mod, "_bucket_pairs", counted)
    g1 = PropertyGraph(
        {"v1": "a", "v2": "a"},
        {"e1": ("v1", "v2", "x"), "e2": ("v1", "v2", "x"), "e3": ("v1", "v1", "x")},
    )
    result = min_edit_matching(g1, PropertyGraph())
    assert (result.cost, result.optimal, calls) == (5, True, [])


def _first_cheapest_by_enumeration(b1, b2, cost, dele=None, ins=None):
    """The witness rule of one bucket by enumeration, None when no pairing
    exists: keep the cheapest assignments of distinct partners (None: deleted,
    edit distance only), then go edge by edge: end if deleting the rest is
    among them, otherwise take the lowest partner, otherwise delete."""

    def choices(i, used):
        if i == len(b1):
            yield ()
            return
        for f in b2 + ([None] if dele is not None else []):
            if f is None or (f not in used and cost(b1[i], f) is not None):
                for rest in choices(i + 1, used | {f}):
                    yield (f, *rest)

    def price(choice):
        total = sum(dele[e] if f is None else cost(e, f) for e, f in zip(b1, choice))
        return total if ins is None else total + sum(ins[f] for f in b2 if f not in choice)

    options = list(choices(0, frozenset()))
    if not options:
        return None
    low = min(map(price, options))
    alive = [c for c in options if price(c) == low]
    pairs = []
    for i, e in enumerate(b1):
        if dele is not None and any(set(c[i:]) == {None} for c in alive):
            break
        partners = [c[i] for c in alive if c[i] is not None]
        f = min(partners, key=b2.index) if partners else None
        alive = [c for c in alive if c[i] == f]
        if f is not None:
            pairs.append((e, f))
    return pairs


def test_bucket_witness_agrees_with_enumeration():
    # small costs make ties common; decision pricing has no dele/ins and no
    # more edges than partners
    rng = random.Random(16)
    deadline = _Deadline(60.0)
    checked, one_edge = 0, Counter()  # one-edge buckets, with dele/ins or without
    for _ in range(1500):
        ged = rng.random() < 0.5
        n = rng.randint(1, 4)
        b1 = [f"e{i}" for i in range(n)]
        b2 = [f"f{j}" for j in range(rng.randint(0 if ged else n, 5))]
        high, forbidden = rng.choice((1, 2, 3)), rng.choice((0.0, 0.2, 0.4))
        table = {
            (e, f): None if rng.random() < forbidden else rng.randint(0, high)
            for e in b1
            for f in b2
        }

        def cost(e, f):
            return table[e, f]

        edits = ()
        if ged:
            edits = tuple({x: rng.randint(0, high + 1) for x in b} for b in (b1, b2))
        expected = _first_cheapest_by_enumeration(b1, b2, cost, *edits)
        if expected is not None:
            assert _bucket_pairs(b1, b2, cost, deadline, *edits) == expected, (table, edits)
            checked += 1
            one_edge[ged] += n == 1
    assert checked > 1200
    assert one_edge[True] + one_edge[False] >= 300, one_edge
    assert min(one_edge[True], one_edge[False]) > 150, one_edge


def test_one_edge_bucket_agrees_with_enumeration():
    # one g1 edge takes its cheapest allowed partner, the first among equals,
    # and is deleted only when that is strictly cheaper
    rng = random.Random(17)
    deadline = _Deadline(60.0)
    seen = Counter()
    for _ in range(1500):
        ged = rng.random() < 0.5
        b2 = [f"f{j}" for j in range(rng.randint(0, 5))]
        table = {f: None if rng.random() < 0.3 else rng.randint(0, 2) for f in b2}

        def cost(e, f):
            return table[f]

        edits = ()
        if ged:
            edits = ({"e0": rng.randint(0, 3)}, {f: rng.randint(0, 2) for f in b2})
        inserted = sum(edits[1].values()) if ged else 0
        options = [
            (table[f] + inserted - (edits[1][f] if ged else 0), j, {"e0": f})
            for j, f in enumerate(b2)
            if table[f] is not None
        ]
        if ged:
            options.append((edits[0]["e0"] + inserted, len(b2), {}))
        expected = min(options, key=lambda o: o[:2]) if options else None
        found = _bucket_cost(["e0"], b2, cost, deadline, *edits)
        assert found == (None if expected is None else (expected[0], expected[2])), (table, edits)
        # the scan alone: the first cheapest allowed partner, less its
        # insertion when given, deletion not among the options
        ins = edits[1] if ged else None
        scanned = [
            (table[f] - (ins[f] if ged else 0), j, f)
            for j, f in enumerate(b2)
            if table[f] is not None
        ]
        low = min(scanned) if scanned else (math.inf, -1, None)
        assert _one_edge("e0", b2, cost, ins) == (low[0], low[2]), (table, ins)
        if ged:  # and without its insertions, as a decision search scans
            plain = min([(c + ins[f], j, f) for c, j, f in scanned], default=(math.inf, -1, None))
            assert _one_edge("e0", b2, cost) == (plain[0], plain[2]), table
        costs = [o[0] for o in options]
        seen["ged" if ged else "decide"] += 1
        seen["empty b2"] += not b2
        seen["forbidden"] += None in table.values()
        seen["tie"] += bool(costs) and costs.count(min(costs)) > 1
        seen["none"] += found is None
    assert min(seen.values()) > 50, seen


# label-hard and relabel, each under unit and gedc costs
_BOTH_MODES_UNIT_AND_GEDC = [
    SearchOptions(mode=mode, cost_model=cm)
    for mode in ("label-hard", "relabel")
    for cm in (CostModel.unit(), CostModel.gedc())
]


def _recounted_bound(search) -> int:
    """The count bound of a GED search's partial matching, recounted from the
    graphs alone: per label class (one class under relabel), the undecided g1
    nodes against the unused g2 nodes, and the g1 edges with an undecided
    endpoint against the g2 edges with an unused endpoint. A surplus is
    deleted, a shortfall inserted."""
    g1, g2, opts = search.g1, search.g2, search.opts
    w, hard = opts.cost_model.weights, opts.mode == "label-hard"
    decided = search.assignment
    used = {x for x in decided.values() if x is not None}
    sides = (
        (
            [lab for v, lab in g1.nodes.items() if v not in decided],
            [lab for x, lab in g2.nodes.items() if x not in used],
            w["delV"],
            w["insV"],
        ),
        (
            [lab for s, t, lab in g1.edges.values() if s not in decided or t not in decided],
            [lab for s, t, lab in g2.edges.values() if s not in used or t not in used],
            w["delE"],
            w["insE"],
        ),
    )
    total = 0
    for left1, left2, w_del, w_ins in sides:
        n1 = Counter(lab if hard else None for lab in left1)
        n2 = Counter(lab if hard else None for lab in left2)
        for c in set(n1) | set(n2):
            gap = n1[c] - n2[c]
            total += gap * w_del if gap > 0 else -gap * w_ins
    return total


def test_carried_bound_equals_a_recount_at_every_node(monkeypatch):
    carried = _GedSearch._bound
    entered = []

    def checked(search):
        bound = carried(search)
        assert bound == _recounted_bound(search), search.assignment
        entered.append(bound)
        return bound

    monkeypatch.setattr(_GedSearch, "_bound", checked)
    rng = random.Random(151)
    pairs = loops = parallel = 0
    while pairs < 60:
        g1, g2 = (
            _with_parallel_edges(rng, random_graph(rng, prefix=p, self_loops=True))
            for p in "ab"
        )
        both = (g1, g2)
        edges = [edge for g in both for edge in g.edges.values()]
        if len({lab for g in both for lab in g.nodes.values()}) < 2:
            continue
        if len({lab for _, _, lab in edges}) < 2:
            continue
        for opts in _BOTH_MODES_UNIT_AND_GEDC:
            assert min_edit_matching(g1, g2, opts).optimal
        pairs += 1
        loops += any(s == t for s, t, _ in edges)
        parallel += any(
            len({(s, t) for s, t, _ in g.edges.values()}) < len(g.edges) for g in both
        )
    assert loops > 10 and parallel > 10 and len(entered) > 2000, (loops, parallel, len(entered))


def test_unpriced_candidates_would_all_be_cut(monkeypatch):
    # a step prices only the candidates adjacent to an image of a decided
    # neighbour once the rest cannot beat the incumbent: price every
    # candidate it leaves unpriced, its child bound recounted, and check the
    # option would have been skipped anyway
    decide, decisions = _GedSearch._decide_cost, _GedSearch._decisions
    priced, unpriced = set(), []

    def recorded(search, v, w, closed1):
        priced.add(w)
        return decide(search, v, w, closed1)

    def checked(search, v, acc):
        ix, assignment = search.ix, search.assignment
        closed1 = [(k, b1) for u, k, b1 in ix.at1[v] if u == v or u in assignment]
        cut = {}
        for w in search.g2.nodes:
            if w not in search.inv and ix.cls2[w] == ix.cls1[v]:
                assignment[v] = w
                child = _recounted_bound(search)
                del assignment[v]
                cut[w] = acc + decide(search, v, w, closed1)[0] + child >= search.best_cost
        priced.clear()
        options = decisions(search, v, acc)
        first = next(options, None)  # every option is priced before the first
        for w in cut.keys() - priced:
            assert cut[w], (v, w, search.assignment)
            unpriced.append(w)
        if first is not None:
            yield first
            yield from options

    monkeypatch.setattr(_GedSearch, "_decide_cost", recorded)
    monkeypatch.setattr(_GedSearch, "_decisions", checked)
    rng = random.Random(157)
    loops = parallel = 0
    for _ in range(60):
        g1, g2 = (
            _with_parallel_edges(rng, random_graph(rng, prefix=p, max_nodes=6, self_loops=True))
            for p in "ab"
        )
        edges = [edge for g in (g1, g2) for edge in g.edges.values()]
        for opts in _BOTH_MODES_UNIT_AND_GEDC:
            assert min_edit_matching(g1, g2, opts).optimal
        loops += any(s == t for s, t, _ in edges)
        parallel += any(
            len({(s, t) for s, t, _ in g.edges.values()}) < len(g.edges) for g in (g1, g2)
        )
    assert loops > 10 and parallel > 10 and len(unpriced) > 5000, (loops, parallel, len(unpriced))


def _count_ged_work(monkeypatch, counts: Counter) -> None:
    """Count in ``counts`` the GED nodes entered (``entered``, the root
    included), candidates priced (``priced``) and depth-first passes run
    (``passes``)."""
    carried, decide = _GedSearch._bound, _GedSearch._decide_cost
    depth_first = _GedSearch._depth_first

    def entered(search):
        counts["entered"] += 1
        return carried(search)

    def priced(search, v, w, closed1):
        counts["priced"] += 1
        return decide(search, v, w, closed1)

    def passed(search, order, what):
        counts["passes"] += 1
        return depth_first(search, order, what)

    monkeypatch.setattr(_GedSearch, "_bound", entered)
    monkeypatch.setattr(_GedSearch, "_decide_cost", priced)
    monkeypatch.setattr(_GedSearch, "_depth_first", passed)


def _one_edge_reversed(g: PropertyGraph, i: int) -> PropertyGraph:
    e = sorted(g.edges)[i]
    s, t, lab = g.edges[e]
    return PropertyGraph(dict(g.nodes), {**g.edges, e: (t, s, lab)}, dict(g.props))


def test_ged_chain_against_cycle_proves_at_the_dive_leaf(monkeypatch):
    # the unit optimum 3 is the first leaf of the dive and meets the
    # degree-aware root bound, which ends the search in one pass: one node
    # entered per g1 node below the root, nothing left to anchor
    counts = Counter()
    _count_ged_work(monkeypatch, counts)
    for k, nodes, candidates in ((10, 11, 55), (18, 19, 171)):
        counts.clear()
        result = min_edit_matching(gen_chain(k, "a"), gen_cycle(k, "b"))
        assert result.optimal and result.cost == 3
        assert (counts["entered"] - 1, counts["priced"], counts["passes"]) == (
            nodes, candidates, 1
        ), k


def test_ged_reversed_cycle_prices_only_anchored_candidates(monkeypatch):
    # a 30-cycle with one edge reversed costs 2 against a root bound of 0:
    # the dive misses it, the probe below the dive's leaf finds nothing and
    # the branch and bound runs from the root. Once an unanchored candidate
    # cannot beat the incumbent it is not priced: pricing every candidate
    # costs 39 306 here
    counts = Counter()
    _count_ged_work(monkeypatch, counts)
    g1, g2 = _one_edge_reversed(gen_cycle(30, "a"), 15), gen_cycle(30, "b")
    result = min_edit_matching(g1, g2)
    assert result.optimal and result.cost == 2
    assert (counts["priced"], counts["passes"]) == (4620, 2), counts


def _search_state(search) -> tuple:
    """What a GED search moves as it decides: gaps, carried bound,
    insertion sum and the matching, as copies."""
    return (
        dict(search.node_gap), dict(search.edge_gap), search.bound, search.ins_open,
        dict(search.assignment), dict(search.inv),
    )


def test_ged_passes_leave_the_search_state_at_the_root():
    # however the search ends, at the first leaf, after the probe and the
    # branch and bound, or on a timeout anywhere (at a node entered, while
    # pricing candidates), every decision is undone
    ends = [
        (gen_chain(10, "a"), gen_cycle(10, "b"), None),
        (_one_edge_reversed(gen_cycle(30, "a"), 15), gen_cycle(30, "b"), None),
    ]
    g1, g2 = _one_edge_reversed(gen_cycle(10, "a"), 5), gen_cycle(10, "b")
    ends += [(g1, g2, n) for n in range(0, 360, 3)]  # the whole search makes 359 checks
    for g1, g2, n in ends:
        search = _GedSearch(g1, g2, SearchOptions())
        root = _search_state(search)
        if n is not None:  # the deadline runs out at check n, until run() lifts it
            deadline, ticks = search.deadline, iter(range(n, -1, -1))
            deadline.check = lambda: next(ticks, 0) == 0 and deadline.expires < float("inf")
        result = search.run()
        assert result.optimal == (n is None), n
        assert _search_state(search) == root, n


def _star(k: int, prefix: str, values: str, inward: bool = False) -> PropertyGraph:
    """A centre with ``k`` leaves, leaf i carrying ``k1`` = ``values[i]``."""
    centre, leaves = f"{prefix}c", [f"{prefix}l{i}" for i in range(k)]
    edges = {
        f"{prefix}e{i}": (leaf, centre, "x") if inward else (centre, leaf, "x")
        for i, leaf in enumerate(leaves)
    }
    props = {(leaf, "k1"): f"d{d}" for leaf, d in zip(leaves, values)}
    return PropertyGraph({centre: "a", **dict.fromkeys(leaves, "a")}, edges, props)


def _union(*graphs: PropertyGraph) -> PropertyGraph:
    nodes, edges, props = {}, {}, {}
    for g in graphs:
        nodes.update(g.nodes)
        edges.update(g.edges)
        props.update(g.props)
    return PropertyGraph(nodes, edges, props)


def test_ged_matches_the_oracle_on_symmetric_targets():
    # targets with many automorphisms, whose root images tie on degrees;
    # in C3 + C4 a C3 image and a C4 image tie but differ in cost
    c3c4 = _union(gen_cycle(3, "bx"), gen_cycle(4, "by"))
    twins = PropertyGraph(
        {"bv0": "a", "bv1": "a", "bt0": "a", "bt1": "a", "bt2": "b"}, {"be0": ("bv0", "bv1", "a")}
    )
    pairs = [
        (gen_cycle(4, "a"), gen_cycle(5, "b")),
        (gen_chain(3, "a"), gen_cycle(6, "b")),
        (gen_cycle(3, "a"), c3c4),
        (gen_cycle(4, "a"), c3c4),
        (gen_chain(4, "a"), c3c4),
        (_union(gen_cycle(3, "ax"), gen_chain(2, "ay")), c3c4),
        (_star(3, "a", "12"), _star(5, "b", "11222")),
        (_star(4, "a", "1212", inward=True), _star(6, "b", "121212", inward=True)),
        (_star(2, "a", "22"), _star(4, "b", "1122", inward=True)),
        (PropertyGraph({"av0": "a", "av1": "b"}, {"ae0": ("av0", "av1", "a")}), twins),
        (PropertyGraph({"av0": "a", "av1": "a", "av2": "a"}), twins),
    ]
    for g1, g2 in pairs:
        for opts in _BOTH_MODES_UNIT_AND_GEDC:
            result = min_edit_matching(g1, g2, opts)
            assert result.optimal and result.cost == oracle_ged(g1, g2, opts), (g1, g2, opts)


def test_ged_proves_cycle_and_chain_with_and_without_a_reversed_edge(monkeypatch):
    # cycle 30 against chain 30 meets the degree-aware root bound 3 at its
    # first leaf, in one dive; a graph with one edge reversed against a
    # cycle or a chain costs 2 against a root bound of 0, which the probe
    # and the branch and bound after it prove
    counts = Counter()
    _count_ged_work(monkeypatch, counts)
    result = min_edit_matching(gen_cycle(30, "a"), gen_chain(30, "b"))
    assert result.optimal and result.cost == 3
    assert (counts["entered"], counts["priced"]) == (31, 495), counts
    for shape in (gen_cycle, gen_chain):
        g1, target = _one_edge_reversed(shape(30, "a"), 15), shape(30, "b")
        assert _GedSearch(g1, target, SearchOptions()).root_bound == 0
        result = min_edit_matching(g1, target)
        assert result.optimal and result.cost == 2


def test_ged_zero_iff_isomorphic():
    rng = random.Random(127)
    for _ in range(80):
        g1 = random_graph(rng, prefix="a", max_nodes=4)
        g2 = random_graph(rng, prefix="b", max_nodes=4)
        zero = min_edit_matching(g1, g2).cost == 0
        assert zero == (search_iso(g1, g2) is not None)


def test_unit_ged_monotone_under_isolated_node_insertion():
    rng = random.Random(131)
    for _ in range(40):
        g1 = random_graph(rng, prefix="a", max_nodes=4)
        g2 = random_graph(rng, prefix="b", max_nodes=4)
        base = min_edit_matching(g1, g2).cost
        extra = PropertyGraph(
            {**g2.nodes, "bz9": "isolated-label"}, dict(g2.edges), dict(g2.props)
        )
        assert min_edit_matching(g1, extra).cost == base + 1


def test_min_edit_determinism():
    rng = random.Random(137)
    for _ in range(30):
        g1 = random_graph(rng, prefix="a", max_nodes=4)
        g2 = random_graph(rng, prefix="b", max_nodes=4)
        r1 = min_edit_matching(g1, g2)
        r2 = min_edit_matching(g1, g2)
        assert r1 == r2


def test_min_edit_timeout_returns_incumbent():
    g1 = gen_chain(6, "a")
    g2 = gen_cycle(6, "b")
    result = min_edit_matching(g1, g2, SearchOptions(budget=1e-9))
    assert not result.optimal
    assert result.cost >= oracle_ged(g1, g2)


def _one_bucket(p: str, n: int, value: str) -> PropertyGraph:
    """Two nodes and ``n`` parallel edges between them, each with property
    ``k`` set to ``value``."""
    edges = {f"{p}e{i}": (f"{p}1", f"{p}2", "x") for i in range(n)}
    return PropertyGraph({f"{p}1": "a", f"{p}2": "a"}, edges, {(e, "k"): value for e in edges})


def _looped_node(rng: random.Random, p: str, n: int) -> PropertyGraph:
    """One node with ``n`` self-loops, each with properties ``k0``..``k2``
    drawn from ``p0``..``p3``."""
    edges = {f"{p}e{i}": (p, p, "x") for i in range(n)}
    props = {(e, f"k{j}"): rng.choice(["p0", "p1", "p2", "p3"]) for e in edges for j in range(3)}
    return PropertyGraph({p: "a"}, edges, props)


def test_min_edit_timeout_holds_inside_a_bucket():
    # one bucket pair of 300 parallel edges each, every pairing an update:
    # one assignment solve of it takes several times the budget
    budget = 0.5
    g1, g2 = _one_bucket("v", 300, "p"), _one_bucket("w", 300, "q")
    start = time.monotonic()
    result = min_edit_matching(g1, g2, SearchOptions(budget=budget))
    assert time.monotonic() - start <= 2 * budget + 0.1
    assert not result.optimal


def test_min_edit_timeout_holds_while_pricing_candidates():
    # every node entered prices up to 200 candidates, each against many
    # decided neighbours: the deadline must tick per candidate priced.
    # Setup runs on the budget; the witness rebuild and the script after the
    # search do not, so the 0.6 s of slack leaves room for slower interpreters
    budget = 0.5
    g1, g2 = gen_random(200, 0.2, 400, "a"), gen_random(200, 0.2, 401, "b")
    start = time.monotonic()
    result = min_edit_matching(g1, g2, SearchOptions(budget=budget))
    assert time.monotonic() - start <= 2 * budget + 0.1
    assert not result.optimal


def test_setup_runs_on_the_search_clock(monkeypatch):
    # a pair index that takes longer to build than the whole budget: both
    # engines must count it, so neither proves nor searches past it
    class SlowIndex(search_mod._PairIndex):
        def __init__(self, *args):
            time.sleep(0.1)
            super().__init__(*args)

    monkeypatch.setattr(search_mod, "_PairIndex", SlowIndex)
    spent = SearchOptions(budget=0.05)
    assert not min_edit_matching(gen_chain(3, "a"), gen_cycle(3, "b"), spent).optimal
    for search in (search_hom, search_sub):
        with pytest.raises(SearchTimeout):
            search(gen_chain(3, "a"), gen_chain(4, "b"), spent)


def test_a_decision_witness_found_is_rebuilt_off_the_clock(monkeypatch):
    # the budget runs out just after the leaf that keeps the witness: its
    # edges are still paired, through an assignment solve per bucket of two
    keep = search_mod._DecisionSearch._leaf

    def spent_at_leaf(self, acc):
        done = keep(self, acc)
        self.deadline.expires, self.deadline._tick = 0, 0
        return done

    monkeypatch.setattr(search_mod._DecisionSearch, "_leaf", spent_at_leaf)
    g1 = PropertyGraph({"a1": "n", "a2": "n"}, {"ae1": ("a1", "a2", "e"), "ae2": ("a1", "a2", "e")})
    g2 = PropertyGraph({"b1": "n", "b2": "n"}, {"be1": ("b1", "b2", "e"), "be2": ("b1", "b2", "e")})
    for search in (search_sub, search_iso):
        witness = search(g1, g2)
        assert witness.node_map == {"a1": "b1", "a2": "b2"}, search.__name__
        assert witness.edge_map == {"ae1": "be1", "ae2": "be2"}, search.__name__


def test_each_engine_builds_only_the_tables_it_reads(monkeypatch):
    # the shared index holds what both engines read; g2's incident buckets
    # are built by iso and edit distance only, the bitsets by decisions only
    calls = []
    build = search_mod._buckets_at

    def counted(g, pairs):
        calls.append(g)
        return build(g, pairs)

    monkeypatch.setattr(search_mod, "_buckets_at", counted)
    g1, g2 = gen_chain(3, "a"), gen_chain(4, "b")
    for search, n in ((search_hom, 1), (search_sub, 1), (search_iso, 2)):
        calls.clear()
        search(g1, g1 if search is search_iso else g2)
        assert len(calls) == n, search.__name__
    calls.clear()
    ged = _GedSearch(g1, g2, SearchOptions())
    assert len(calls) == 2
    assert set(vars(ged.ix)) == {
        "labels1", "labels2", "cls1", "cls2", "props1", "props2", "pairs1", "pairs2", "at1"
    }
    assert not {"ids2", "bit2", "succ2", "pred2"} & set(vars(ged))


def test_min_edit_large_buckets_prove_optimal_within_budget():
    # every pairing an update: a factorial enumeration of these buckets
    # would run far past the budget, one assignment solve takes milliseconds
    for k in (9, 12):
        g1, g2 = _one_bucket("v", k, "p"), _one_bucket("w", k, "q")
        result = min_edit_matching(g1, g2, SearchOptions(budget=0.5))
        assert result.optimal and result.cost == k
        assert result.matching.edge_map == {f"ve{i}": f"we{i}" for i in range(k)}
    # one node with 150 self-loops a side, three properties of four values
    # each: the witness is rebuilt after the search within the budget too
    rng, budget = random.Random(1), 0.5
    g1, g2 = (_looped_node(rng, p, 150) for p in "vw")
    start = time.monotonic()
    result = min_edit_matching(g1, g2, SearchOptions(budget=budget))
    assert time.monotonic() - start <= 2 * budget + 0.1
    assert result.optimal and result.cost == 51


def test_min_edit_identity_on_long_chain():
    # one search depth per node, far beyond the interpreter's recursion limit
    n = 1500
    g = PropertyGraph(
        {f"v{i}": f"l{i}" for i in range(n)},
        {f"e{i}": (f"v{i}", f"v{i + 1}", "x") for i in range(n - 1)},
    )
    result = min_edit_matching(g, g)
    assert result.cost == 0 and result.optimal


def _near_isomorphic_pair(rng: random.Random, n: int, dropped: int):
    """G(n, 0.2) with one node label and one node property of three values,
    and a renamed copy of it with ``dropped`` edges deleted."""
    nodes = {f"a{i}": "n" for i in range(n)}
    props = {(v, "k"): rng.choice("123") for v in nodes}
    edges = {}
    for s in nodes:
        for t in nodes:
            if s != t and rng.random() < 0.2:
                edges[f"ae{len(edges)}"] = (s, t, "e")
    kept = sorted(set(edges) - set(rng.sample(sorted(edges), dropped)))
    images = list(range(n))
    rng.shuffle(images)
    name = {f"a{i}": f"b{j}" for i, j in enumerate(images)}
    g2 = PropertyGraph(
        {name[v]: "n" for v in nodes},
        {f"be{i}": (name[edges[e][0]], name[edges[e][1]], "e") for i, e in enumerate(kept)},
        {(name[v], k): d for (v, k), d in props.items()},
    )
    return PropertyGraph(nodes, edges, props), g2


def test_min_edit_proves_near_isomorphic_pairs_at_the_root():
    # The edge counts bound the cost below by 3 * delE and the planted
    # deletions meet it, so a first dive that keeps the structure proves the
    # optimum at once. Tried by g2 id alone, equal-cost candidates lead the
    # dive far from it, and no pair here proves within the budget. The pairs
    # come from one seed in a fixed order and are not chosen; one that does
    # not prove would stay, checked only for cost >= optimum.
    rng = random.Random(0)
    settings = [
        SearchOptions(budget=0.5),
        SearchOptions(mode="relabel", budget=0.5),
        SearchOptions(mode="relabel", cost_model=CostModel.gedc(), budget=0.5),
    ]
    for n in (26, 40):
        g1, g2 = _near_isomorphic_pair(rng, n, 3)
        for opts in settings:
            result = min_edit_matching(g1, g2, opts)
            assert result.optimal, (n, opts.mode, opts.cost_model)
            assert result.cost == 3 * opts.cost_model.weights["delE"]


_GED_EXACT_SETTINGS = [
    SearchOptions(),
    SearchOptions(mode="relabel"),
    SearchOptions(mode="relabel", cost_model=CostModel.gedc()),
]


def test_degree_aware_root_bound_never_exceeds_the_oracle():
    # one side up to 7 nodes and the other up to 3, so that node counts
    # differ and the oracle stays quick; self-loops, parallel edges and two
    # edge labels, in both modes under unit and gedc costs
    rng = random.Random(167)
    above = 0
    for i in range(1000):
        sizes = (7, 3) if i % 2 else (3, 7)
        g1, g2 = (
            _with_parallel_edges(
                rng, random_graph(rng, prefix=p, max_nodes=n, max_props=1, self_loops=True)
            )
            for p, n in zip("ab", sizes)
        )
        for opts in _BOTH_MODES_UNIT_AND_GEDC:
            search = _GedSearch(g1, g2, opts)
            assert search.root_bound <= oracle_ged(g1, g2, opts), (g1, g2, opts)
            above += search.root_bound > search.bound
    assert above > 250, above
    # chain k has one node more than cycle k, of degree at least 1: the
    # bound prices that node, one of its edges and the edge that replaces it
    for k in range(1, 11):
        for g1, g2, node in (
            (gen_chain(k, "a"), gen_cycle(k, "b"), "delV"),
            (gen_cycle(k, "a"), gen_chain(k, "b"), "insV"),
        ):
            for opts in _GED_EXACT_SETTINGS:
                w = opts.cost_model.weights
                optimum = w[node] + w["delE"] + w["insE"]
                assert _GedSearch(g1, g2, opts).root_bound == optimum, (k, g1, opts)
                assert min_edit_matching(g1, g2, opts).cost == optimum, (k, g1, opts)


def test_min_edit_proves_near_isomorphic_pairs_whose_dive_misses():
    # the fourth pair's first dive ends at 93 (188 under gedc) against an
    # optimum of 3 * delE, which the root bound already gives; the probe at
    # that bound finds the optimum where the open branch and bound, from
    # the dive's leaf, did not within the budget
    rng = random.Random(1)
    for i in range(4):
        g1, g2 = _near_isomorphic_pair(rng, 26, 3)
        for opts in _GED_EXACT_SETTINGS:
            opts = SearchOptions(mode=opts.mode, cost_model=opts.cost_model, budget=0.5)
            result = min_edit_matching(g1, g2, opts)
            assert result.optimal, (i, opts.mode, opts.cost_model)
            assert result.cost == 3 * opts.cost_model.weights["delE"]


def test_min_edit_timeout_in_the_probe_returns_the_dive_leaf(monkeypatch):
    # the budget runs out as the probe starts below the dive's leaf: the
    # result is that leaf, at its own cost, not the delete-everything incumbent
    leaf, dives = _GedSearch._leaf, []

    def expired(search, acc):
        before = search.dive
        ends = leaf(search, acc)
        if before is None and search.dive is not None:
            node_map = {v: w for v, w in search.best_assignment.items() if w is not None}
            dives.append((search.dive, node_map))
            search.deadline.check = lambda: True
        return ends

    monkeypatch.setattr(_GedSearch, "_leaf", expired)
    rng = random.Random(1)
    for _ in range(4):
        g1, g2 = _near_isomorphic_pair(rng, 26, 3)
    result = min_edit_matching(g1, g2)
    [(cost, node_map)] = dives
    assert not result.optimal and result.cost == cost == 93
    assert result.matching.node_map == node_map != {}


def test_min_edit_proves_a_small_star_against_a_large_one():
    # the root bound is 590, 295 leaves and their edges inserted; the dive
    # ends at 600 and the probe with incumbent 591 finds 590, where the
    # branch and bound from 600 branches over interchangeable leaves
    g1, g2 = _star(5, "a", ""), _star(300, "b", "")  # one label, no properties
    for mode in ("label-hard", "relabel"):
        result = min_edit_matching(g1, g2, SearchOptions(mode=mode, budget=10))
        assert result.optimal and result.cost == 590, mode


def test_oracle_size_guard():
    with pytest.raises(SizeGuardError):
        oracle_ged(gen_chain(8, "a"), gen_chain(1, "b"))


def test_oracle_one_node_label_mismatch():
    assert oracle_ged(PropertyGraph({"v": "a"}), PropertyGraph({"w": "b"})) == 2
