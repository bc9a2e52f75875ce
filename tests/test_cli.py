import json
import sys

import pytest

from conftest import FAKE_SOLVER
from pgmatch import parse_graph, parse_script
from pgmatch.cli import main


@pytest.fixture()
def graphs(tmp_path):
    a = tmp_path / "a.pg"
    b = tmp_path / "b.pg"
    a.write_text("n v1 a\nn v2 a\ne e1 v1 v2 x\n", encoding="utf-8")
    b.write_text("n w1 a\nn w2 a\ne f1 w1 w2 x\n", encoding="utf-8")
    return str(a), str(b)


def test_gen_writes_parseable_graph(tmp_path, capsys):
    out = tmp_path / "g.pg"
    assert main(["gen", "chain", "--k", "3", "--prefix", "a", "-o", str(out)]) == 0
    g = parse_graph(out.read_text(encoding="utf-8"))
    assert len(g.nodes) == 4 and len(g.edges) == 3
    assert main(["gen", "random", "--n", "4", "--p", "0.5", "--seed", "7"]) == 0
    captured = capsys.readouterr()
    assert "n " in captured.out


def test_check_sat_and_unsat_exit_codes(graphs, capsys):
    a, b = graphs
    assert main(["check", "--mode", "iso", a, b]) == 0
    out = capsys.readouterr().out
    assert "status: SAT" in out and "node v1 -> w1" in out
    assert main(["check", "--mode", "iso", a, a.replace("a.pg", "b.pg")]) == 0


def test_check_unsat_exit_code(tmp_path, capsys):
    a = tmp_path / "a.pg"
    b = tmp_path / "b.pg"
    a.write_text("n v1 a\n", encoding="utf-8")
    b.write_text("n w1 b\n", encoding="utf-8")
    assert main(["check", "--mode", "hom", str(a), str(b)]) == 1
    assert "status: UNSAT" in capsys.readouterr().out


def test_ged_prints_cost_and_canonical_script(tmp_path, capsys):
    a = tmp_path / "a.pg"
    b = tmp_path / "b.pg"
    a.write_text("n v1 a\n", encoding="utf-8")
    b.write_text("n w1 b\n", encoding="utf-8")
    assert main(["ged", str(a), str(b)]) == 0
    out = capsys.readouterr().out
    assert "cost: 2" in out
    script = parse_script("".join(line + "\n" for line in out.splitlines() if not line.startswith("status") and not line.startswith("cost")))
    assert [op.kind for op in script] == ["delV", "insV"]


def test_ged_relabel_with_gedc_weights(tmp_path, capsys):
    a = tmp_path / "a.pg"
    b = tmp_path / "b.pg"
    a.write_text("n v1 a\n", encoding="utf-8")
    b.write_text("n w1 b\n", encoding="utf-8")
    assert main(["ged", "--relabel", "--weights", "gedc", str(a), str(b)]) == 0
    out = capsys.readouterr().out
    assert "cost: 2" in out and "relV v1 b" in out


def test_ged_custom_weights_file(tmp_path, capsys):
    a = tmp_path / "a.pg"
    b = tmp_path / "b.pg"
    a.write_text("n v1 a\n", encoding="utf-8")
    b.write_text("n w1 b\n", encoding="utf-8")
    weights = tmp_path / "weights.json"
    weights.write_text(json.dumps({"delV": 5, "insV": 5, "node_sub": 9}), encoding="utf-8")
    assert main(["ged", "--weights", str(weights), str(a), str(b)]) == 0
    assert "cost: 10" in capsys.readouterr().out


def test_ged_refuses_weights_that_are_not_integers(tmp_path, capsys):
    a = tmp_path / "a.pg"
    b = tmp_path / "b.pg"
    a.write_text("n a a\n", encoding="utf-8")
    b.write_text("n b b\n", encoding="utf-8")
    weights = tmp_path / "weights.json"
    for data, key in (
        ({"delV": 1.5, "insV": 1.5}, "delV"),
        ({"delV": "2"}, "delV"),
        ({"delV": True}, "delV"),
        ({"edge_sub": 0.5}, "edge_sub"),
    ):
        weights.write_text(json.dumps(data), encoding="utf-8")
        assert main(["ged", "--weights", str(weights), str(a), str(b)]) == 3
        captured = capsys.readouterr()
        assert "cost:" not in captured.out
        assert f"weight {key} must be an integer" in captured.err


def test_weights_file_must_hold_a_json_object(graphs, tmp_path, capsys):
    a, b = graphs
    weights = tmp_path / "weights.json"
    weights.write_text("[1, 2]", encoding="utf-8")
    for argv in (["ged"], ["encode", "--kind", "gedc"]):
        assert main([*argv, "--weights", str(weights), a, b]) == 3
        err = capsys.readouterr().err
        assert f"weights file {weights} must hold a JSON object, not list" in err


def test_encode_kinds_to_stdout_and_file(graphs, tmp_path, capsys):
    a, b = graphs
    assert main(["encode", "--kind", "hom", a, b]) == 0
    out = capsys.readouterr().out
    assert "n1(v1,a)." in out and "{h(X,Y) : n2(Y,L)} = 1 :- n1(X,L)." in out
    target = tmp_path / "job.lp"
    assert main(["encode", "--kind", "gedc", "-o", str(target), a, b]) == 0
    assert target.read_text(encoding="utf-8").find("#const c_node_sub=2.") >= 0


def test_solver_jobs_refuse_weights_their_program_cannot_express(graphs, tmp_path, capsys):
    a, b = graphs
    weights = tmp_path / "weights.json"
    weights.write_text(json.dumps({"delV": 5, "node_sub": 3, "updP": 2, "insP": 1}), encoding="utf-8")
    assert main(["encode", "--kind", "gedc", "--weights", str(weights), a, b]) == 3
    assert "cannot express: insP, updP" in capsys.readouterr().err
    assert main(["encode", "--kind", "ged", "--weights", str(weights), a, b]) == 3
    assert "cannot express: delV, insP, node_sub, updP" in capsys.readouterr().err
    weights.write_text(json.dumps({"delV": 5, "node_sub": 3}), encoding="utf-8")
    assert main(["encode", "--kind", "gedc", "--weights", str(weights), a, b]) == 0
    out = capsys.readouterr().out
    assert "#const c_node_del=5." in out and "#const c_node_sub=3." in out


def test_encode_rejects_unknown_kind(graphs, capsys):
    a, b = graphs
    assert main(["encode", "--kind", "bogus", a, b]) == 3
    assert "error:" in capsys.readouterr().err


def test_solve_with_fake_solver(graphs, capsys):
    a, b = graphs
    code = main(
        ["solve", "--kind", "hom", "--solver", sys.executable,
         "--solver-arg", str(FAKE_SOLVER), a, b]
    )
    # the fake solver answers UNKNOWN: an error whose cause reaches stderr
    assert code == 3
    assert "solver answered UNKNOWN" in capsys.readouterr().err


def test_solve_refuses_output_without_a_model(tmp_path, capsys):
    # `cat` echoes the program back: no Answer: marker and no status word
    a, b = tmp_path / "a.pg", tmp_path / "b.pg"
    assert main(["gen", "chain", "--k", "3", "--prefix", "a", "-o", str(a)]) == 0
    assert main(["gen", "cycle", "--k", "3", "--prefix", "b", "-o", str(b)]) == 0
    assert main(["solve", "--kind", "iso", "--solver", "cat", str(a), str(b)]) == 3
    captured = capsys.readouterr()
    assert "status: SAT" not in captured.out
    assert "no model or status found in solver output" in captured.err


def test_solve_refuses_a_model_that_disagrees_with_its_graphs(tmp_path, capsys):
    # the solver claims cost 0 for one node pair, whose script costs 11: the
    # cause reaches stderr, and no status is printed for the refused model
    a, b = tmp_path / "a.pg", tmp_path / "b.pg"
    assert main(["gen", "chain", "--k", "3", "--prefix", "a", "-o", str(a)]) == 0
    assert main(["gen", "cycle", "--k", "3", "--prefix", "b", "-o", str(b)]) == 0
    answer = "import sys; sys.stdin.read(); print('Answer: 1\\nh(av000,bv000)\\nOptimization: 0\\nOPTIMUM FOUND')"
    solver = ["--solver", sys.executable, "--solver-arg=-c", f"--solver-arg={answer}"]
    assert main(["solve", "--kind", "ged", *solver, str(a), str(b)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "solver cost 0 differs from script cost 11" in captured.err


@pytest.mark.parametrize("status", ["OPTIMUM FOUND", "SATISFIABLE"])
def test_solve_refuses_a_status_with_no_model(tmp_path, capsys, status):
    # the solver claims a model but prints no Answer: line; read as the empty
    # model it would give the delete-everything/insert-everything cost 9
    a, b = tmp_path / "a.pg", tmp_path / "b.pg"
    assert main(["gen", "chain", "--k", "2", "--prefix", "a", "-o", str(a)]) == 0
    assert main(["gen", "cycle", "--k", "2", "--prefix", "b", "-o", str(b)]) == 0
    answer = f"import sys; sys.stdin.read(); print({status!r})"
    solver = ["--solver", sys.executable, "--solver-arg=-c", f"--solver-arg={answer}"]
    assert main(["solve", "--kind", "ged", *solver, str(a), str(b)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"solver answered {status} but printed no model" in captured.err


def test_solve_without_solver_configured(graphs, capsys, monkeypatch):
    monkeypatch.delenv("PGMATCH_SOLVER", raising=False)
    a, b = graphs
    assert main(["solve", "--kind", "hom", a, b]) == 3
    assert "no solver configured" in capsys.readouterr().err


def test_solver_env_var_is_used(graphs, capsys, monkeypatch):
    a, b = graphs
    monkeypatch.setenv("PGMATCH_SOLVER", "/nonexistent/solver-binary")
    assert main(["solve", "--kind", "hom", a, b]) == 3


def test_solver_env_var_takes_solver_args(graphs, capsys, monkeypatch):
    a, b = graphs
    monkeypatch.setenv("PGMATCH_SOLVER", sys.executable)
    assert main(["solve", "--kind", "ged", f"--solver-arg={FAKE_SOLVER}", a, b]) == 0
    out = capsys.readouterr().out
    assert "status: OPTIMUM" in out and "cost: 0" in out


def test_bench_preset_and_csv(tmp_path, capsys):
    suite = {
        "cases": [
            {"id": "c", "kind": "hom", "g1": {"gen": "chain", "k": 1},
             "g2": {"gen": "chain", "k": 1}}
        ]
    }
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(suite), encoding="utf-8")
    out = tmp_path / "results.csv"
    assert main(["bench", "--suite", str(path), "--timeout", "10", "-o", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "instance,kind,backend,status,cost,ms,timed_out"
    assert lines[1].startswith("c,hom,native,SAT")
    err = capsys.readouterr().err
    assert "rate" in err


def test_bench_refuses_fewer_than_one_worker(tmp_path, capsys):
    suite = {"cases": [{"id": "c", "kind": "hom", "g1": {"gen": "chain", "k": 1},
                        "g2": {"gen": "chain", "k": 1}}]}
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(suite), encoding="utf-8")
    out = tmp_path / "results.csv"
    assert main(["bench", "--suite", str(path), "--workers", "0", "-o", str(out)]) == 3
    assert "error: workers must be at least 1, not 0" in capsys.readouterr().err
    assert not out.exists()


def test_bench_refuses_a_timeout_of_zero(tmp_path, capsys):
    out = tmp_path / "results.csv"
    assert main(["bench", "--suite", "native-matrix", "--timeout", "0", "-o", str(out)]) == 3
    assert "error: budget must be positive" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "backends, message",
    [
        ("native,nativ", "unknown backend 'nativ'"),
        ("native,asp", "the asp backend needs a solver configuration"),
    ],
)
def test_bench_refuses_a_backend_every_cell_would_refuse(
    tmp_path, capsys, monkeypatch, backends, message
):
    monkeypatch.delenv("PGMATCH_SOLVER", raising=False)
    out = tmp_path / "results.csv"
    assert main(["bench", "--suite", "native-matrix", "--backends", backends, "-o", str(out)]) == 3
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_error_exit_code_for_missing_file(capsys):
    assert main(["check", "--mode", "hom", "/no/such/file", "/no/such/file2"]) == 3
