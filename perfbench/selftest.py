#!/usr/bin/env python3
"""Self-tests of the benchmark itself; exits 0 when all pass.

    python3 perfbench/selftest.py

- The known-answer checker flags a wrong verdict, a wrong witness, a wrong
  cost and a script that does not reach the target.
- A failure other than the expected ones makes the run incorrect.
- Inputs are a function of the seed.
- Two passes over a small set of cells give the same answers and scaled
  cell times within the benchmark's widest bound (0.25) of each other.
- Without pgmatch's sources next to it, the benchmark exits non-zero and
  prints no result.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import subprocess
import sys

import cells
import known
import run
from spans import NullTracer

FAILURES: list = []


def expect_mismatch(what, fn, *args):
    try:
        fn(*args)
    except known.KnownAnswerMismatch:
        print(f"ok    {what}")
        return
    FAILURES.append(what)
    print(f"FAIL  {what}: the checker accepted it")


def expect_ok(what, fn, *args):
    try:
        fn(*args)
    except known.KnownAnswerMismatch as exc:
        FAILURES.append(what)
        print(f"FAIL  {what}: {exc}")
        return
    print(f"ok    {what}")


def by_id(cell_list, cell_id):
    return next(c for c in cell_list if c.cell_id == cell_id)


def test_checker(pg, bridge):
    decide = cells.decide_cells(1)
    sat = by_id(decide, "hom-chain10-cycle10")
    unsat = by_id(decide, "sub-chain10-cycle10")
    witness = run.run_decide(pg, bridge, NullTracer(), sat)
    expect_ok("true SAT verdict with its witness", run.check_decide, sat, witness)
    expect_mismatch("UNSAT reported for a SAT cell", run.check_decide, sat, None)
    expect_mismatch("SAT reported for an UNSAT cell", run.check_decide, unsat, witness)
    nodes = dict(witness.node_map)
    a, b = sorted(nodes)[:2]
    nodes[a], nodes[b] = nodes[b], nodes[a]
    expect_mismatch(
        "witness with two nodes swapped",
        run.check_decide,
        sat,
        pg.Matching(nodes, dict(witness.edge_map)),
    )
    planted = by_id(decide, "iso-plant12")
    expect_ok("planted iso witness", run.check_decide, planted, run.run_decide(pg, bridge, NullTracer(), planted))

    ged = by_id(cells.ged_cells(1), "ged-gedc-chain5-cycle5")
    result = run.run_ged(pg, bridge, NullTracer(), ged)
    expect_ok("proven GED optimum", run.check_ged_cell, ged, result)
    expect_mismatch("cost one above the script's price", run.check_ged_cell, ged, dataclasses.replace(result, cost=result.cost + 1))
    wrong = dict(ged.__dict__, expect=ged.expect - 1)
    expect_mismatch("proven cost that is not the known optimum", run.check_ged_cell, cells.Cell(**wrong), result)
    expect_mismatch(
        "script missing its last operation",
        run.check_ged_cell,
        ged,
        dataclasses.replace(result, script=result.script[:-1]),
    )

    trip = cells.roundtrip_cells(1)[0]
    r = run.run_roundtrip(pg, bridge, NullTracer(), trip)
    expect_ok("edit round trip", run.check_roundtrip, trip, r)
    expect_mismatch("round trip with a wrong decoded cost", run.check_roundtrip, trip, dict(r, decoded_cost=r["cost"] + 1))
    expect_mismatch("round trip with a dropped solver cost", run.check_roundtrip, trip, dict(r, costs=None))


def test_correct_flag():
    """A wrong answer outside EXPECTED_FAILURES turns the run's "correct" off."""
    for cell_id, prefix in run.EXPECTED_FAILURES:
        if not run.expected_failure({"cell": cell_id, "message": prefix + " got None"}):
            FAILURES.append("expected failure")
            print(f"FAIL  {cell_id}: its expected failure is not recognised")
    if run.expected_failure({"cell": "roundtrip-n40-empty", "message": "decode_edit_script cost: got 1"}):
        FAILURES.append("unexpected failure")
        print("FAIL  another failure of an expected-failure cell counts as expected")
    sat = by_id(cells.decide_cells(1), "hom-chain10-cycle10")
    run.WORKLOADS["selftest-wrong"] = lambda seed: [dataclasses.replace(sat, expect=cells.UNSAT)]
    try:
        summary = run.measure("selftest-wrong", 1, 0.0, False)[0]
    finally:
        del run.WORKLOADS["selftest-wrong"]
    if summary["correct"] is False and summary["failed_frac"] == 1.0:
        print("ok    a wrong verdict makes the run incorrect")
    else:
        FAILURES.append("correct flag")
        print(f"FAIL  a wrong verdict left the run correct: {summary}")


def test_seeded_inputs():
    for name, build in cells.WORKLOADS.items():
        a = [(c.cell_id, c.text1, c.text2) for c in build(7)]
        b = [(c.cell_id, c.text1, c.text2) for c in build(7)]
        c = [(c.cell_id, c.text1, c.text2) for c in build(8)]
        if a == b and a != c:
            print(f"ok    {name} inputs follow the seed")
        else:
            FAILURES.append(f"{name} seeding")
            print(f"FAIL  {name}: same seed differs or another seed gives the same inputs")


def test_two_passes(pg, bridge):
    sample = [c for c in cells.decide_cells(1) if c.kind != "sub"][:60]
    failures: dict = {}
    first = run.run_pass(pg, bridge, NullTracer(), sample, failures)
    second = run.run_pass(pg, bridge, NullTracer(), sample, failures)
    a, b = sum(first[3]) / 1000.0, sum(second[3]) / 1000.0
    spread = abs(a - b) / min(a, b)
    same = [o[0] for o in first[4]] == [o[0] for o in second[4]]
    if same and not failures and spread <= 0.25:
        print(f"ok    two passes agree (scaled cell times {a:.3f} s and {b:.3f} s)")
    else:
        FAILURES.append("two-pass steadiness")
        print(f"FAIL  two passes: same answers {same}, failures {failures}, spread {spread:.2f}")


def test_bare_directory():
    """Only BENCHMARK.json and perfbench/: the run must fail without a result."""
    bare = os.path.join(run.OUT_DIR, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ged-exact", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare,
        capture_output=True,
        text=True,
        timeout=180,
    )
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode != 0 and '"correct"' not in proc.stdout:
        print(f"ok    bare directory exits {proc.returncode} without a result")
    else:
        FAILURES.append("bare directory")
        print(f"FAIL  bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")


def main() -> int:
    pg, bridge = run.import_pgmatch()
    os.makedirs(run.OUT_DIR, exist_ok=True)
    test_checker(pg, bridge)
    test_correct_flag()
    test_seeded_inputs()
    test_two_passes(pg, bridge)
    test_bare_directory()
    print("all self-tests passed" if not FAILURES else f"{len(FAILURES)} self-test(s) failed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
