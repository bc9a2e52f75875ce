import re
import subprocess
import sys

import pytest

from conftest import FAKE_SOLVER
from pgmatch import (
    CostModel,
    DecodeMismatchError,
    ParseFailure,
    ProcessFailure,
    PropertyGraph,
    SolverConfig,
    SolverStatus,
    UnknownIdError,
    decode_edit_script,
    decode_matching,
    run_solver,
)
from pgmatch.bridge import EXIT_CODES, AnswerSet, parse_solver_output
from pgmatch.editing import (
    MODE_LABEL_HARD,
    MODE_RELABEL,
    InsertEdge,
    InsertNode,
    InsertProp,
    UpdateProp,
)
from pgmatch.encode import Fact, ProblemKind, kind_cost_model, render_job
from pgmatch.records import scan_atoms
from pgmatch.search import SearchOptions, min_edit_matching


def fake_cfg(budget: float = 10.0) -> SolverConfig:
    return SolverConfig(sys.executable, (str(FAKE_SOLVER),), budget=budget)


def answer(atom_facts, costs=None, optimal=False, status=SolverStatus.SAT) -> AnswerSet:
    return AnswerSet(tuple(atom_facts), costs, optimal, status)


# -- output parsing ---------------------------------------------------------------


def test_split_atoms_handles_quoted_spaces():
    line = 'h(v1,w1) h("V 2",w2) delete_node("a b")'
    assert scan_atoms(line) == [
        ("h(v1,w1)", "h", ("v1", "w1")),
        ('h("V 2",w2)', "h", ("V 2", "w2")),
        ('delete_node("a b")', "delete_node", ("a b",)),
    ]


def test_parse_solver_output_strict():
    text = "clingo version x\nSolving...\nAnswer: 1\nh(v1,w1) h(e1,f1)\nSATISFIABLE\n"
    models, costs, status = parse_solver_output(text)
    assert models == [[Fact("h", ("v1", "w1")), Fact("h", ("e1", "f1"))]]
    assert costs is None
    assert status == "SATISFIABLE"


def test_parse_solver_output_takes_last_model_and_costs():
    text = (
        "Answer: 1\nh(v1,w1)\nOptimization: 5\n"
        "Answer: 2\nh(v1,w2)\nOptimization: 3\nOPTIMUM FOUND\n"
    )
    models, costs, status = parse_solver_output(text)
    assert len(models) == 2
    assert models[-1] == [Fact("h", ("v1", "w2"))]
    assert costs == [3]
    assert status == "OPTIMUM FOUND"


def test_parse_solver_output_empty_model_line():
    text = (
        "clingo version 5.6.2\nReading from stdin\nSolving...\n"
        "Answer: 1\n\nOptimization: 7\nOPTIMUM FOUND\n\n"
        "Models       : 1\n  Optimum    : yes\nOptimization : 7\n"
    )
    models, costs, status = parse_solver_output(text)
    assert models == [[]]
    assert costs == [7]
    assert status == "OPTIMUM FOUND"


# -- run_solver against the scripted solver ------------------------------------------


def test_run_solver_sat():
    ans = run_solver("%fake: sat h(v1,w1)\n", fake_cfg())
    assert ans.status is SolverStatus.SAT
    assert ans.atoms == (Fact("h", ("v1", "w1")),)
    assert not ans.optimal and ans.costs is None


def test_run_solver_unsat():
    ans = run_solver("%fake: unsat\n", fake_cfg())
    assert ans.status is SolverStatus.UNSAT
    assert ans.atoms == ()


def test_run_solver_optimum():
    ans = run_solver('%fake: opt 2 delete_node(v1) node_cost(v1,1)\n', fake_cfg())
    assert ans.status is SolverStatus.OPTIMUM
    assert ans.optimal and ans.costs == (2,)
    assert Fact("delete_node", ("v1",)) in ans.atoms


def test_run_solver_timeout_keeps_partial_model():
    ans = run_solver("%fake: sat-then-sleep\n", fake_cfg(budget=1.0))
    assert ans.status is SolverStatus.TIMEOUT
    assert not ans.optimal
    assert ans.atoms == (Fact("h", ("v1", "w1")),)


def test_run_solver_timeout_without_model():
    ans = run_solver("%fake: sleep\n", fake_cfg(budget=0.5))
    assert ans.status is SolverStatus.TIMEOUT
    assert ans.atoms == ()
    assert not ans.found


def test_run_solver_unmarked_model_line_raises_parse_failure():
    # a model is read only after an Answer: line; a bare run of atoms is not one
    with pytest.raises(ParseFailure, match="no model or status found"):
        run_solver("%fake: plain h(v1,w1)\n", fake_cfg())


def test_run_solver_garbage_raises_parse_failure():
    with pytest.raises(ParseFailure):
        run_solver("%fake: garbage\n", fake_cfg())


def test_run_solver_malformed_model_line_raises_parse_failure():
    with pytest.raises(ParseFailure, match=re.escape("malformed atom: 'h(a,'")):
        run_solver("%fake: sat h(a,\n", fake_cfg())


def test_run_solver_non_integer_optimization_raises_parse_failure():
    with pytest.raises(ParseFailure, match="cannot read solver output: .*'1.5'"):
        run_solver("%fake: opt 1.5 h(v1,w1)\n", fake_cfg())


def test_run_solver_crash_raises_process_failure():
    with pytest.raises(ProcessFailure):
        run_solver("%fake: crash\n", fake_cfg())


def test_run_solver_missing_executable():
    with pytest.raises(ProcessFailure):
        run_solver("", SolverConfig("/nonexistent/solver-binary"))


def test_solver_config_refuses_budgets_it_cannot_enforce():
    for budget in (0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="budget must be positive and finite"):
            SolverConfig(sys.executable, budget=budget)


def test_run_solver_reaps_the_solver_when_the_program_cannot_be_sent(monkeypatch):
    started = []
    popen = subprocess.Popen

    def recording_popen(*args, **kwargs):
        started.append(popen(*args, **kwargs))
        return started[-1]

    monkeypatch.setattr(subprocess, "Popen", recording_popen)
    with pytest.raises(UnicodeEncodeError):
        run_solver("%fake: sleep\nn1(\ud800,a).\n", fake_cfg())
    (proc,) = started
    assert proc.poll() is not None


@pytest.mark.parametrize(
    "kind, mode",
    [
        (ProblemKind.GED, MODE_LABEL_HARD),
        (ProblemKind.GED_RELABEL, MODE_RELABEL),
        (ProblemKind.GEDC_WEIGHTED, MODE_RELABEL),
    ],
)
def test_edit_job_round_trip_through_the_fake_solver(kind, mode):
    # the fake solver answers with the native optimum: this runs render_job,
    # the transcript parser and the decoder end to end, not the ASP rules
    g1 = PropertyGraph(
        {"v1": "A", "v 2": "b", "not": "A"},
        {"e1": ("v1", "v 2", "x"), 'e"2': ("not", "v1", "x")},
        {("v1", "Name"): 'say "hi"', ("e1", "w"): "1\n2", ("not", "k"): "\\"},
    )
    g2 = PropertyGraph(
        {"w1": "A", "W2": "b", "w3": "c"},
        {"f1": ("w1", "W2", "x"), "f2": ("w3", "w1", "y")},
        {("w1", "Name"): "say", ("f1", "w"): "1\n2"},
    )
    cm = None
    if kind is ProblemKind.GEDC_WEIGHTED:
        cm = kind_cost_model(kind, CostModel({"insV": 3, "delV": 5, "insE": 2, "delE": 1}, 2, 1))
    ans = run_solver(render_job(g1, g2, kind, cm), fake_cfg())
    assert ans.status is SolverStatus.OPTIMUM
    native = min_edit_matching(g1, g2, SearchOptions(mode=mode, cost_model=kind_cost_model(kind, cm)))
    assert native.optimal and ans.costs == (native.cost,)
    script, cost = decode_edit_script(ans, g1, g2, mode, kind_cost_model(kind, cm))
    assert (script, cost) == (native.script, native.cost)


def test_exit_code_mapping():
    assert EXIT_CODES[SolverStatus.SAT] == 0
    assert EXIT_CODES[SolverStatus.OPTIMUM] == 0
    assert EXIT_CODES[SolverStatus.UNSAT] == 1
    assert EXIT_CODES[SolverStatus.TIMEOUT] == 2
    assert EXIT_CODES[SolverStatus.ERROR] == 3


# -- decoding matchings ----------------------------------------------------------------


def g_pair():
    g1 = PropertyGraph({"v1": "a", "v2": "a"}, {"e1": ("v1", "v2", "x")})
    g2 = PropertyGraph({"w1": "a", "w2": "a"}, {"f1": ("w1", "w2", "x")})
    return g1, g2


def test_decode_matching_nodes_and_edges():
    g1, g2 = g_pair()
    ans = answer([Fact("h", ("v1", "w1")), Fact("h", ("v2", "w2")), Fact("h", ("e1", "f1"))])
    m = decode_matching(ans, g1, g2)
    assert m.node_map == {"v1": "w1", "v2": "w2"}
    assert m.edge_map == {"e1": "f1"}
    assert m.is_injective()


def test_decode_matching_unescapes_quoted_ids():
    g1 = PropertyGraph({"V 2": "a"})
    g2 = PropertyGraph({"w": "a"})
    m = decode_matching(answer([Fact("h", ("V 2", "w"))]), g1, g2)
    assert m.node_map == {"V 2": "w"}


def test_decode_matching_unknown_id():
    g1, g2 = g_pair()
    with pytest.raises(UnknownIdError):
        decode_matching(answer([Fact("h", ("ghost", "w1"))]), g1, g2)
    with pytest.raises(UnknownIdError):
        decode_matching(answer([Fact("h", ("v1", "ghost"))]), g1, g2)


def test_decode_matching_refuses_two_partners():
    g1, g2 = g_pair()
    for first, second in (("w1", "w2"), ("w1", "w1")):
        ans = answer([Fact("h", ("v1", first)), Fact("h", ("v1", second))])
        with pytest.raises(DecodeMismatchError, match=re.escape(f"h(v1,{first}). and h(v1,{second}).")):
            decode_matching(ans, g1, g2)
    with pytest.raises(DecodeMismatchError, match="'e1' is paired twice"):
        decode_matching(answer([Fact("h", ("e1", "f1")), Fact("h", ("e1", "f1"))]), g1, g2)


# -- decoding edit scripts ----------------------------------------------------------------


def test_decode_edit_script_identical_graphs():
    g1 = PropertyGraph({"v1": "a"})
    g2 = PropertyGraph({"w1": "a"})
    ans = answer([Fact("h", ("v1", "w1"))], costs=(0,), optimal=True, status=SolverStatus.OPTIMUM)
    script, cost = decode_edit_script(ans, g1, g2)
    assert script == [] and cost == 0


def test_decode_edit_script_delete_insert():
    g1 = PropertyGraph({"v1": "a"})
    g2 = PropertyGraph({"w1": "b"})
    ans = answer(
        [Fact("delete_node", ("v1",)), Fact("insert_node", ("w1", "b"))],
        costs=(2,),
        optimal=True,
        status=SolverStatus.OPTIMUM,
    )
    script, cost = decode_edit_script(ans, g1, g2)
    assert [op.kind for op in script] == ["delV", "insV"]
    assert cost == 2
    # property atoms out of key order: the script orders by owner, then key
    g1 = PropertyGraph({"v1": "a"}, {}, {("v1", "k1"): "d", ("v1", "k2"): "d"})
    atoms = [Fact("delete_prop", ("v1", k)) for k in ("k2", "k1")]
    ans = answer(
        atoms + [Fact("delete_node", ("v1",)), Fact("insert_node", ("w1", "b"))],
        costs=(4,),
        optimal=True,
        status=SolverStatus.OPTIMUM,
    )
    script, cost = decode_edit_script(ans, g1, g2)
    assert [(op.kind, getattr(op, "key", None)) for op in script] == [
        ("delP", "k1"),
        ("delP", "k2"),
        ("delV", None),
        ("insV", None),
    ]


def test_decode_edit_script_detects_missing_insert_atom():
    g1 = PropertyGraph({"v1": "a"})
    g2 = PropertyGraph({"w1": "b"})
    # insert_node(w1,b) is required for the unmatched target node
    ans = answer(
        [Fact("delete_node", ("v1",))], costs=(2,), optimal=True, status=SolverStatus.OPTIMUM
    )
    with pytest.raises(DecodeMismatchError):
        decode_edit_script(ans, g1, g2)


def test_decode_edit_script_detects_cost_mismatch():
    g1 = PropertyGraph({"v1": "a"})
    g2 = PropertyGraph({"w1": "b"})
    ans = answer(
        [Fact("delete_node", ("v1",)), Fact("insert_node", ("w1", "b"))],
        costs=(7,),
        optimal=True,
        status=SolverStatus.OPTIMUM,
    )
    with pytest.raises(DecodeMismatchError, match="cost"):
        decode_edit_script(ans, g1, g2)


@pytest.mark.parametrize(
    "atom",
    [Fact("delete_node", ("v1", "x")), Fact("insert_edge", ("e", "v1", "w1")), Fact("insert_node", ())],
)
def test_decode_edit_script_names_a_malformed_edit_atom(atom):
    g1 = PropertyGraph({"v1": "a"})
    g2 = PropertyGraph({"w1": "b"})
    ans = answer(
        [Fact("delete_node", ("v1",)), Fact("insert_node", ("w1", "b")), atom],
        costs=(2,),
        optimal=True,
        status=SolverStatus.OPTIMUM,
    )
    with pytest.raises(DecodeMismatchError, match=f"edit atom {re.escape(atom.render())} has"):
        decode_edit_script(ans, g1, g2)


def test_decode_edit_script_refuses_insert_atoms_naming_g1_ids():
    # insert_edge(Y,S,T,L) :- e2(Y,S,T,L), ... and insert_prop(Y,K,V) :-
    # p2(Y,K,V), ...: every id they name is the second graph's
    g1 = PropertyGraph({"v1": "a"}, {}, {})
    g2 = PropertyGraph({"w1": "a", "w2": "b"}, {"f1": ("w2", "w1", "x")}, {("w1", "k"): "d"})

    def decode(*atoms):
        facts = [Fact("h", ("v1", "w1")), Fact("insert_node", ("w2", "b")), *atoms]
        ans = answer(facts, costs=(3,), optimal=True, status=SolverStatus.OPTIMUM)
        return decode_edit_script(ans, g1, g2)

    edge = Fact("insert_edge", ("f1", "w2", "w1", "x"))
    prop = Fact("insert_prop", ("w1", "k", "d"))
    # the script names w1 by its preimage v1
    script = [InsertNode("w2", "b"), InsertEdge("f1", "w2", "v1", "x"), InsertProp("v1", "k", "d")]
    assert decode(edge, prop) == (script, 3)
    for atom, named in (
        (Fact("insert_edge", ("f1", "w2", "v1", "x")), "a node"),
        (Fact("insert_edge", ("f1", "v1", "w1", "x")), "a node"),
        (Fact("insert_prop", ("v1", "k", "d")), "an element"),
    ):
        atoms = (atom, prop) if atom.pred == "insert_edge" else (edge, atom)
        message = f"edit atom {atom.render()} names {named} g2 does not have"
        with pytest.raises(DecodeMismatchError, match=f"^{re.escape(message)}$"):
            decode(*atoms)


def test_decode_edit_script_checks_the_old_value_of_an_update():
    # update_prop(X,K,V1,V2) :- p1(X,K,V1), ...: V1 is the value g1 holds
    g1 = PropertyGraph({"a": "n"}, {}, {("a", "k"): "1"})
    g2 = PropertyGraph({"b": "n"}, {}, {("b", "k"): "2"})

    def decode(atom):
        ans = answer([Fact("h", ("a", "b")), atom], costs=(1,), optimal=True, status=SolverStatus.OPTIMUM)
        return decode_edit_script(ans, g1, g2)

    assert decode(Fact("update_prop", ("a", "k", "1", "2"))) == ([UpdateProp("a", "k", "2")], 1)
    for atom, held in (
        (Fact("update_prop", ("a", "k", "WRONG", "2")), "'1'"),
        (Fact("update_prop", ("a", "j", "1", "2")), "no such property"),
    ):
        message = f"edit atom {atom.render()} updates {atom.args[2]!r}; g1 holds {held}"
        with pytest.raises(DecodeMismatchError, match=f"^{re.escape(message)}$"):
            decode(atom)


def test_decode_edit_script_relabel_mode():
    g1 = PropertyGraph({"v1": "a"})
    g2 = PropertyGraph({"w1": "b"})
    ans = answer(
        [Fact("h", ("v1", "w1")), Fact("relabel_node", ("v1", "b"))],
        costs=(2,),
        optimal=True,
        status=SolverStatus.OPTIMUM,
    )
    script, cost = decode_edit_script(ans, g1, g2, mode="relabel", cm=CostModel.gedc())
    assert [op.kind for op in script] == ["relV"]
    assert cost == 2


def test_decode_edit_script_weighted_without_script_atoms():
    # the weighted-constants program only emits cost atoms; the script is
    # rebuilt from the matching alone
    g1 = PropertyGraph({"v1": "a", "v2": "b"})
    g2 = PropertyGraph({"w1": "a"})
    ans = answer(
        [Fact("h", ("v1", "w1")), Fact("node_cost", ("v2", "4"))],
        costs=(4,),
        optimal=True,
        status=SolverStatus.OPTIMUM,
    )
    script, cost = decode_edit_script(ans, g1, g2, mode="relabel", cm=CostModel.gedc())
    assert [op.kind for op in script] == ["delV"]
    assert cost == 4


def test_decode_edit_script_remaps_inserted_edge_endpoints():
    # the model's insert_edge atom names g2 endpoints; the decoded operation
    # must reference the surviving (matched) g1 node instead
    g1 = PropertyGraph({"v1": "a"})
    g2 = PropertyGraph({"w1": "a", "w2": "b"}, {"f1": ("w2", "w1", "x")})
    ans = answer(
        [
            Fact("h", ("v1", "w1")),
            Fact("insert_node", ("w2", "b")),
            Fact("insert_edge", ("f1", "w2", "w1", "x")),
        ],
        costs=(2,),
        optimal=True,
        status=SolverStatus.OPTIMUM,
    )
    script, cost = decode_edit_script(ans, g1, g2)
    assert cost == 2
    ins_edge = [op for op in script if op.kind == "insE"][0]
    assert (ins_edge.src, ins_edge.tgt) == ("w2", "v1")


def test_decode_edit_script_needs_a_model():
    g1, g2 = g_pair()
    for ans in (
        AnswerSet((), None, False, SolverStatus.UNSAT),
        AnswerSet((), None, False, SolverStatus.TIMEOUT, found=False),
    ):
        with pytest.raises(DecodeMismatchError, match="no model to decode"):
            decode_edit_script(ans, g1, g2)
