import json
import re
import sys

import pytest

from conftest import FAKE_SOLVER, write_stub_solver
from pgmatch import CostModel, PropertyGraph, SearchOptions, SolverConfig
from pgmatch import bench as bench_mod
from pgmatch.bridge import AnswerSet, DecodeMismatchError, SolverStatus, decode_edit_script
from pgmatch.bench import (
    CSV_COLUMNS,
    BenchCase,
    load_suite,
    native_matrix,
    render_csv,
    render_summary,
    run_asp,
    run_bench,
    run_native,
    success_rates,
    synthetic_matrix,
)
from pgmatch.encode import EDIT_KIND_MODES, Fact, ProblemKind, kind_cost_model
from pgmatch.generators import gen_chain, gen_cycle, gen_random


def small_cases():
    return [
        BenchCase("hom-c2-c2", ProblemKind.HOM, gen_chain(2, "a"), gen_chain(2, "b")),
        BenchCase("iso-c2-cy2", ProblemKind.ISO, gen_chain(2, "a"), gen_cycle(2, "b")),
        BenchCase("ged-c2-cy2", ProblemKind.GED, gen_chain(2, "a"), gen_cycle(2, "b")),
    ]


def test_run_bench_native_statuses_and_costs():
    results = run_bench(small_cases(), ("native",), budget=10.0)
    by_id = {r.instance: r for r in results}
    assert by_id["hom-c2-c2"].status == "SAT" and by_id["hom-c2-c2"].cost is None
    assert by_id["iso-c2-cy2"].status == "UNSAT"
    assert by_id["ged-c2-cy2"].status == "OPTIMUM"
    assert by_id["ged-c2-cy2"].cost == 3
    assert all(not r.timed_out for r in results)
    assert all(r.ms >= 0 for r in results)


def test_empty_suite_gives_empty_table():
    assert run_bench([], ("native",)) == []
    assert render_csv([]).strip() == ",".join(CSV_COLUMNS)


def test_csv_columns_fixed():
    results = run_bench(small_cases(), ("native",), budget=10.0)
    lines = render_csv(results).strip().splitlines()
    assert lines[0] == "instance,kind,backend,status,cost,ms,timed_out"
    assert len(lines) == 1 + len(results)


def test_success_rates_count_definitive_answers():
    results = run_bench(small_cases(), ("native",), budget=10.0)
    rates = success_rates(results)
    assert rates[("hom", "native")] == 1.0
    assert rates[("iso", "native")] == 1.0  # UNSAT answered within budget counts
    assert rates[("ged", "native")] == 1.0
    assert "hom" in render_summary(results)


def test_timeout_cell_counts_as_failure():
    # two random 12-node graphs: the search holds an incumbent within
    # milliseconds but does not prove the optimum in seconds
    g1, g2 = gen_random(12, 0.2, seed=24, prefix="a"), gen_random(12, 0.2, seed=25, prefix="b")
    results = run_bench([BenchCase("ged-big", ProblemKind.GED, g1, g2)], ("native",), budget=0.05)
    (r,) = results
    assert r.status == "TIMEOUT" and r.timed_out
    assert r.cost is not None  # incumbent from the anytime search
    assert not r.solved
    assert success_rates(results)[("ged", "native")] == 0.0


def test_error_cells_recorded_and_run_continues():
    cases = [
        BenchCase("bad", ProblemKind.APPROX_SUB_OLD, gen_chain(1, "a"), gen_chain(1, "b")),
        BenchCase("ok", ProblemKind.HOM, gen_chain(1, "a"), gen_chain(1, "b")),
    ]
    results = run_bench(cases, ("native",), budget=5.0)
    by_id = {r.instance: r for r in results}
    assert by_id["bad"].status == "ERROR"  # native backend has no approx-sub mode
    assert by_id["ok"].status == "SAT"


def test_error_cells_keep_their_cause(tmp_path):
    missing = str(tmp_path / "no-such-solver")
    cases = [BenchCase("hom", ProblemKind.HOM, gen_chain(1, "a"), gen_chain(1, "b"))]
    results = run_bench(cases, ("asp",), budget=5.0, solver=SolverConfig(missing, (), budget=5.0))
    (r,) = results
    assert r.status == "ERROR"
    assert r.error.startswith("ProcessFailure: cannot start solver") and missing in r.error
    assert f"ERROR hom asp: {r.error}" in render_summary(results).splitlines()
    assert r.error not in render_csv(results)
    ok = run_bench(cases, ("native",), budget=5.0)
    assert ok[0].error is None and "ERROR" not in render_summary(ok)


def test_asp_cell_without_a_model_is_a_parse_failure():
    # `cat` echoes the program: its fact lines carry no Answer: marker, so
    # they are not a model, and the cell is an error rather than solved
    cases = [BenchCase("iso", ProblemKind.ISO, gen_chain(3, "a"), gen_cycle(3, "b"))]
    (r,) = run_bench(cases, ("asp",), budget=10.0, solver=SolverConfig("cat"))
    assert r.status == "ERROR"
    assert r.error.startswith("ParseFailure: no model or status found")


def test_asp_backend_through_fake_solver():
    cases = [BenchCase("hom", ProblemKind.HOM, gen_chain(1, "a"), gen_chain(1, "b"))]
    solver = SolverConfig(sys.executable, (str(FAKE_SOLVER),), budget=10.0)
    results = run_bench(cases, ("asp",), budget=10.0, solver=solver)
    (r,) = results
    # the fake solver answers UNKNOWN to arbitrary programs: recorded, not raised
    assert r.backend == "asp"
    assert r.status in ("ERROR", "SAT", "UNSAT")
    assert r.error.startswith("ProcessFailure")


def test_asp_cell_whose_model_disagrees_with_its_graphs_is_an_error():
    # a solver claiming cost 0 for one node pair, whose script costs 11 (the
    # optimum is 3): the cell is refused, not recorded as solved
    answer = "print('Answer: 1'); print('h(av000,bv000)'); print('Optimization: 0'); print('OPTIMUM FOUND')"
    solver = SolverConfig(sys.executable, ("-c", "import sys; sys.stdin.read(); " + answer))
    cases = [BenchCase("ged", ProblemKind.GED, gen_chain(3, "a"), gen_cycle(3, "b"))]
    (r,) = run_bench(cases, ("asp",), budget=10.0, solver=solver)
    assert (r.status, r.cost, r.timed_out) == ("ERROR", None, False)
    assert r.error.startswith(("DecodeMismatchError", "UnknownIdError"))


def _stub_solver(tmp_path, model: str) -> SolverConfig:
    return SolverConfig(sys.executable, (str(write_stub_solver(tmp_path, model)),), budget=10.0)


def test_asp_decision_model_must_pass_its_kinds_checker(tmp_path):
    # the edge ae000 runs av000 -> av001, its image be000 bv000 -> bv001, but
    # the model maps av000 to bv001: no hom, iso or sub witness
    g1, g2 = gen_chain(1, "a"), gen_chain(1, "b")
    crossed = _stub_solver(tmp_path, "h(av000,bv001) h(av001,bv000) h(ae000,be000)")
    for kind in (ProblemKind.HOM, ProblemKind.ISO, ProblemKind.SUB):
        with pytest.raises(DecodeMismatchError, match=f"not a {kind.value} witness"):
            run_asp(kind, g1, g2, crossed)
    # the approx-sub kinds have no checker: their matching is decoded only
    status, _, witness = run_asp(ProblemKind.APPROX_SUB_NEW, g1, g2, crossed)
    assert (status, witness.node_map) == (SolverStatus.SAT, {"av000": "bv001", "av001": "bv000"})
    straight = _stub_solver(tmp_path, "h(av000,bv000) h(av001,bv001) h(ae000,be000)")
    for kind in (ProblemKind.HOM, ProblemKind.ISO, ProblemKind.SUB):
        status, cost, witness = run_asp(kind, g1, g2, straight)
        assert (status, cost) == (SolverStatus.SAT, None), kind
        assert witness.edge_map == {"ae000": "be000"}, kind


def test_asp_run_killed_before_any_model_has_no_answer():
    # a solver that only sleeps prints nothing: that is no model, not the
    # empty one whose script deletes and inserts everything
    sleeper = "import sys, time; sys.stdin.read(); time.sleep(60)"
    solver = SolverConfig(sys.executable, ("-c", sleeper), budget=0.5)
    g1, g2 = gen_chain(2, "a"), gen_cycle(2, "b")
    assert run_asp(ProblemKind.GED, g1, g2, solver) == (SolverStatus.TIMEOUT, None, None)
    (r,) = run_bench([BenchCase("ged", ProblemKind.GED, g1, g2)], ("asp",), budget=0.5, solver=solver)
    assert (r.status, r.cost, r.timed_out) == ("TIMEOUT", None, True)


def test_edit_kinds_agree_on_both_backends():
    solver = SolverConfig(sys.executable, (str(FAKE_SOLVER),), budget=10.0)
    cases = [
        BenchCase("ged", ProblemKind.GED, gen_chain(3, "a"), gen_cycle(3, "b")),
        BenchCase("ged-relabel", ProblemKind.GED_RELABEL, gen_chain(5, "a"), gen_cycle(5, "b")),
        BenchCase("gedc", ProblemKind.GEDC_WEIGHTED, gen_chain(5, "a"), gen_cycle(5, "b")),
    ]
    results = run_bench(cases, ("native", "asp"), budget=10.0, solver=solver)
    rows = {(r.instance, r.backend): (r.status, r.cost) for r in results}
    for case, cost in zip(cases, (3, 3, 8)):
        assert rows[case.instance, "native"] == rows[case.instance, "asp"] == ("OPTIMUM", cost)
        cm = kind_cost_model(case.kind)
        opts = SearchOptions(EDIT_KIND_MODES[case.kind], cost_model=cm)
        *_, native = run_native(case.kind, case.g1, case.g2, opts)
        gedc = cm if case.kind is ProblemKind.GEDC_WEIGHTED else None
        *_, asp = run_asp(case.kind, case.g1, case.g2, solver, gedc)
        assert asp == native


def test_parallel_workers_give_same_results():
    cases = small_cases()
    seq = run_bench(cases, ("native",), budget=10.0, workers=1)
    par = run_bench(cases, ("native",), budget=10.0, workers=4)
    assert [(r.instance, r.status, r.cost) for r in seq] == [
        (r.instance, r.status, r.cost) for r in par
    ]


@pytest.mark.parametrize("workers", [0, -3])
def test_fewer_than_one_worker_is_refused(workers):
    with pytest.raises(ValueError, match=f"workers must be at least 1, not {workers}"):
        run_bench(small_cases()[:1], ("native",), budget=10.0, workers=workers)


@pytest.mark.parametrize(
    "backends, budget, message",
    [
        (("native",), 0.0, "budget must be positive"),
        (("native",), -1.0, "budget must be positive"),
        (("native",), float("nan"), "budget must be positive"),
        (("native", "asp"), float("inf"), "budget must be positive and finite"),
    ],
)
def test_a_budget_every_cell_would_refuse_is_refused(backends, budget, message):
    with pytest.raises(ValueError, match=message):
        run_bench(small_cases()[:1], backends, budget=budget)


@pytest.mark.parametrize(
    "backends, message",
    [
        (("native", "nativ"), "unknown backend 'nativ'"),
        (("native", "asp"), "the asp backend needs a solver configuration"),
    ],
)
def test_a_backend_every_cell_would_refuse_is_refused(monkeypatch, backends, message):
    # refused before any cell runs, the native ones included
    monkeypatch.setattr(bench_mod, "_run_cell", lambda *cell: pytest.fail(f"ran {cell}"))
    with pytest.raises(ValueError, match=message):
        run_bench(small_cases()[:1], backends, budget=10.0)


def test_suite_file_loading(tmp_path):
    suite = {
        "cases": [
            {
                "id": "pair1",
                "kind": "hom",
                "g1": {"gen": "chain", "k": 2},
                "g2": {"gen": "cycle", "k": 2},
            },
            {
                "id": "pair2",
                "kind": "ged",
                "g1": {"gen": "random", "n": 3, "p": 0.5, "seed": 4},
                "g2": {"gen": "random", "n": 3, "p": 0.5, "seed": 5},
            },
        ]
    }
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(suite), encoding="utf-8")
    cases = load_suite(str(path))
    assert [c.instance for c in cases] == ["pair1", "pair2"]
    assert cases[0].kind is ProblemKind.HOM
    # default prefixes keep the sides disjoint
    assert not set(cases[0].g1.nodes) & set(cases[0].g2.nodes)
    results = run_bench(cases, ("native",), budget=10.0)
    assert {r.status for r in results} <= {"SAT", "UNSAT", "OPTIMUM"}


def test_suite_file_errors_name_file_case_and_key(tmp_path):
    path = tmp_path / "suite.json"
    path.write_text("{}", encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"suite file {path} has no key 'cases'")):
        load_suite(str(path))
    case = {"id": "pair1", "kind": "hom", "g1": {"gen": "chain"}, "g2": {"gen": "cycle", "k": 2}}
    path.write_text(json.dumps({"cases": [case]}), encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"suite file {path}: case pair1 has no key 'k'")):
        load_suite(str(path))
    good = dict(case, g1={"gen": "chain", "k": 2})
    for cases, message in [
        ([good, [1]], f"suite file {path}: case #1 is not a JSON object"),
        ([dict(good, g1="chain")], f"suite file {path}: case pair1: graph spec 'chain' is not a JSON object"),
        (5, f"suite file {path}: 'cases' is not a JSON list"),
        ([dict(good, kind="bogus")], f"suite file {path}: case pair1: unknown problem kind 'bogus'"),
        ([dict(good, g2={"gen": "cycle", "k": "x"})], f"suite file {path}: case pair1: invalid literal"),
        ([dict(good, g1={"gen": "chain", "k": 3.9})], f"suite file {path}: case pair1: k must be a whole number, not 3.9"),
        ([dict(good, g2={"gen": "random", "n": True})], f"suite file {path}: case pair1: n must be a whole number, not True"),
    ]:
        path.write_text(json.dumps({"cases": cases}), encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(message)):
            load_suite(str(path))


def test_presets_shape():
    synth = synthetic_matrix()
    assert len(synth) == 4 * 4 * 10 + 4 * 10 + 10
    native = native_matrix()
    kinds = {c.kind for c in native}
    assert kinds == {ProblemKind.HOM, ProblemKind.ISO, ProblemKind.SUB, ProblemKind.GED}
    assert len(native) == 3 * 4 * 10 + 8
    assert all(not set(c.g1.nodes) & set(c.g2.nodes) for c in native)


def test_gedc_kind_prices_properties_as_its_program_does():
    # gedc.lp has no property rule: a property update costs nothing in it,
    # so the native run and the decoding of a gedc model must agree on 0
    g1 = PropertyGraph({"v1": "a"}, props={("v1", "k"): "1"})
    g2 = PropertyGraph({"w1": "a"}, props={("w1", "k"): "2"})
    [result] = run_bench([BenchCase("gedc-upd", ProblemKind.GEDC_WEIGHTED, g1, g2)], budget=10.0)
    assert (result.status, result.cost) == ("OPTIMUM", 0)
    model = AnswerSet((Fact("h", ("v1", "w1")),), (0,), True, SolverStatus.OPTIMUM)
    cm = kind_cost_model(ProblemKind.GEDC_WEIGHTED)
    script, cost = decode_edit_script(model, g1, g2, "relabel", cm)
    assert cost == 0 and [op.kind for op in script] == ["updP"]
    with pytest.raises(DecodeMismatchError):
        decode_edit_script(model, g1, g2, "relabel", CostModel.gedc())


def test_kind_cost_model():
    gedc = kind_cost_model(ProblemKind.GEDC_WEIGHTED)
    assert gedc.weights == {"delE": 2, "delP": 0, "delV": 4, "insE": 2, "insP": 0, "insV": 4, "updP": 0}
    assert (gedc.node_sub, gedc.edge_sub) == (2, 1)
    assert kind_cost_model(ProblemKind.GED) == kind_cost_model(ProblemKind.GED_RELABEL) == CostModel.unit()
    with pytest.raises(ValueError):
        kind_cost_model(ProblemKind.GED, CostModel.gedc())
    with pytest.raises(ValueError):
        kind_cost_model(ProblemKind.HOM)
