#!/usr/bin/env python3
"""pgmatch benchmark: one workload per process, one cell at a time.

    python3 perfbench/run.py --workload decide-matrix --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 40

A cell is one user request: two graphs as text and a problem, timed from the
text to pgmatch's final answer. Cells run sequentially in a single thread of
a single process, a closed loop with one client. pgmatch is CPU-bound pure
Python, so threads would only queue on the interpreter lock, inflate each
cell's time by the wait and let search budgets expire on time spent waiting;
running one cell at a time keeps each cell's time its own.

The run repeats whole passes over the workload's cells while ``--seconds``
allows (at least one). A fixed reference loop is timed before every cell and
around every input build, and reported times are scaled to the speed at
which that loop takes ``REF_MS``, so that a processor slowed by other load
does not read as a slower pgmatch. With ``--trace 0`` the run reports the
end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
passes and reports the per-layer self times and counts of the traced
passes, plus the tracing overhead against the untraced ones. Every answer
is checked against the answer known from how the cell was built
(``known.py``); a cell that raises or answers wrongly is counted as failed
and its exception is printed. The last line of standard output is one JSON
object.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from typing import NamedTuple

import known
from cells import DECIDE_BUDGET, GED_BUDGET, GED_SETTINGS, UNIT_WEIGHTS, WORKLOADS
from spans import NullTracer, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")

# Inputs are rebuilt this many times after every pass, so that the build
# times, like the pass times, are sampled across the whole run and not only
# in its first moment; setup_s is their median.
SETUP_BUILDS_PER_PASS = 3

# Reported times are scaled to a processor on which reference() takes
# REF_MS: each cell's and each build's raw time is multiplied by REF_MS over
# the median of the reference times measured around it (REF_WINDOW cells on
# either side). On a shared machine the processor's speed can change by 2x
# within a run, for stretches of milliseconds to seconds; pgmatch's cells and
# the reference loop, both pure Python in one thread, slow down together, so
# the scaled time follows pgmatch's own cost and not its neighbours' load.
REF_MS = 1.0
REF_ROUNDS = 1500
REF_WINDOW = 3
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

# Failures known at this commit: (cell, start of the failure message). They
# are counted in "failed" like any other; any failure not listed here makes
# the run incorrect. roundtrip-n40-empty: for the empty matching Clingo
# prints an empty model line, and parse_solver_output reads the
# "Optimization:" line as the model and drops the cost.
EXPECTED_FAILURES = {("roundtrip-n40-empty", "parse_solver_output costs:")}

# Metric names and units; the benchmark's definition is the one source.
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def import_pgmatch():
    """pgmatch from this checkout's sources, never an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "pgmatch", "__init__.py")):
        raise SystemExit(f"pgmatch sources not found under {SRC}")
    sys.path.insert(0, SRC)
    import pgmatch
    from pgmatch import bridge

    if not os.path.abspath(pgmatch.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"imported pgmatch from {pgmatch.__file__}, not from {SRC}")
    return pgmatch, bridge


# -- reference speed -----------------------------------------------------------

def reference() -> float:
    """Time, in ms, of a fixed piece of interpreter work shaped like
    pgmatch's: build REF_ROUNDS small dictionaries, tuples, strings and sets,
    hold them, then free them all. The collector is off meanwhile, and every
    object is freed before it is turned back on, so the reference neither
    runs collections nor leaves pgmatch any to run."""
    enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    held = []
    for i in range(REF_ROUNDS):
        held.append(({"id": i, "pair": (i, str(i)), "next": [i, i + 1]}, frozenset((i, i + 1))))
    del held
    elapsed = time.perf_counter() - start
    if enabled:
        gc.enable()
    return elapsed * 1000.0


def scales(ref_ms: list, n: int) -> list:
    """Scale factors for n timed items, where ref_ms[i] was measured just
    before item i and ref_ms[n] after the last one."""
    return [
        REF_MS / statistics.median(ref_ms[max(0, i - REF_WINDOW) : i + REF_WINDOW + 2])
        for i in range(n)
    ]


# -- cells ------------------------------------------------------------------

TIMED_OUT = object()


def parse_pair(pg, tr, cell):
    g1 = tr.call("graphs.parse_graph", pg.parse_graph, cell.text1)
    g2 = tr.call("graphs.parse_graph", pg.parse_graph, cell.text2)
    tr.count("graphs.parse_graph.bytes", len(cell.text1.encode()) + len(cell.text2.encode()))
    return g1, g2


def run_decide(pg, bridge, tr, cell):
    g1, g2 = parse_pair(pg, tr, cell)
    search = {"hom": pg.search_hom, "iso": pg.search_iso, "sub": pg.search_sub}[cell.kind]
    try:
        return tr.call(f"search.search_{cell.kind}", search, g1, g2, pg.SearchOptions(budget=DECIDE_BUDGET))
    except pg.SearchTimeout:
        return TIMED_OUT


def ged_options(pg, setting):
    mode = GED_SETTINGS[setting][0]
    cm = pg.CostModel.gedc() if setting == "gedc" else pg.CostModel.unit()
    return pg.SearchOptions(mode=mode, cost_model=cm, budget=GED_BUDGET)


def run_ged(pg, bridge, tr, cell):
    g1, g2 = parse_pair(pg, tr, cell)
    return tr.call("search.min_edit_matching", pg.min_edit_matching, g1, g2, ged_options(pg, cell.setting))


def clingo_transcript(node_map, edge_map, cost, optimal):
    """What Clingo prints for a job showing only h/2, whose one model is the
    given matching; with no pairs the model line is empty."""
    atoms = " ".join(f"h({x},{y})" for x, y in sorted({**node_map, **edge_map}.items()))
    status = "OPTIMUM FOUND" if optimal else "SATISFIABLE"
    return (
        "clingo version 5.6.2\nReading from stdin\nSolving...\n"
        f"Answer: 1\n{atoms}\nOptimization: {cost}\n{status}\n\n"
        f"Models       : 1\n  Optimum    : {'yes' if optimal else 'unknown'}\n"
        f"Optimization : {cost}\nCalls        : 1\nTime         : 0.010s\n"
    )


def run_roundtrip(pg, bridge, tr, cell):
    """Matching -> script -> text -> script -> edited graph -> solver job ->
    solver transcript -> parsed model -> decoded script."""
    g1, g2 = parse_pair(pg, tr, cell)
    node_map, edge_map = cell.matching
    h = pg.Matching(node_map, edge_map)
    script, cost = tr.call("editing.script_from_matching", pg.script_from_matching, h, g1, g2)
    text = tr.call("editing.format_script", pg.format_script, script)
    reparsed = tr.call("editing.parse_script", pg.parse_script, text)
    edited = tr.call("editing.apply_script", pg.apply_script, g1, script)
    tr.count("editing.script_ops", len(script))
    job = tr.call("encode.render_job", pg.render_job, g1, g2, pg.ProblemKind.GED) + "#show h/2.\n"
    tr.count("encode.render_job.bytes", len(job.encode()))
    optimal = not node_map
    transcript = tr.call("bench.transcript", clingo_transcript, node_map, edge_map, cell.expect, optimal)
    models, costs, status = tr.call("bridge.parse_solver_output", bridge.parse_solver_output, transcript)
    ans = pg.AnswerSet(
        tuple(models[-1]) if models else (),
        tuple(costs) if costs is not None else None,
        optimal,
        pg.SolverStatus.OPTIMUM if status == "OPTIMUM FOUND" else pg.SolverStatus.SAT,
    )
    decoded, decoded_cost = tr.call("bridge.decode_edit_script", pg.decode_edit_script, ans, g1, g2)
    return dict(
        script=script, cost=cost, reparsed=reparsed, edited=edited,
        costs=costs, status=status, decoded=decoded, decoded_cost=decoded_cost,
    )


# -- checks -------------------------------------------------------------------


def check_decide(cell, answer):
    if answer is TIMED_OUT:
        return "timeout", 0
    known.check_verdict(cell.kind, cell.g1, cell.g2, cell.expect, answer)
    return "solved", 0


def check_ged_cell(cell, result):
    excess = known.check_ged(cell.g1, cell.g2, cell.expect, GED_SETTINGS[cell.setting][1], result)
    return ("solved" if result.optimal else "timeout"), excess


def check_roundtrip(cell, r):
    node_map, edge_map = cell.matching
    known.expect_equal("script_from_matching cost", r["cost"], cell.expect)
    known.expect_equal("script price", known.price(r["script"], UNIT_WEIGHTS), cell.expect)
    own = known.check_script(cell.g1, cell.g2, node_map, edge_map, r["script"])
    known.expect_equal("parse_script(format_script(script))", r["reparsed"], r["script"])
    e = r["edited"]
    known.expect_equal("apply_script result", (e.nodes, e.edges, e.props), (own.nodes, own.edges, own.props))
    known.expect_equal("parse_solver_output costs", r["costs"], [cell.expect])
    known.expect_equal("parse_solver_output status", r["status"], "OPTIMUM FOUND" if not node_map else "SATISFIABLE")
    known.expect_equal("decode_edit_script script", r["decoded"], r["script"])
    known.expect_equal("decode_edit_script cost", r["decoded_cost"], cell.expect)
    return "solved", 0


RUNNERS = {
    "hom": (run_decide, check_decide),
    "iso": (run_decide, check_decide),
    "sub": (run_decide, check_decide),
    "ged": (run_ged, check_ged_cell),
    "roundtrip": (run_roundtrip, check_roundtrip),
}


# -- measurement ----------------------------------------------------------------


def build(workload, seed):
    """Build the workload's inputs from the seed; returns the cells and the
    raw and scaled build time in seconds."""
    gc.collect()  # each build starts from the same heap, not the last one's garbage
    before = [reference() for _ in range(REF_WINDOW)]
    start = time.perf_counter()
    cells = WORKLOADS[workload](seed)
    raw = time.perf_counter() - start
    after = [reference() for _ in range(REF_WINDOW)]
    return cells, raw, raw * REF_MS / statistics.median(before + after)


def run_pass(pg, bridge, tr, cells, failures):
    """One pass over all cells; returns wall seconds, and per cell the raw ms,
    the scale factor, the scaled ms and the outcome."""
    cell_ms, outcomes, ref_ms = [], [], []
    start = time.perf_counter()
    for cell in cells:
        ref_ms.append(reference())
        runner, checker = RUNNERS[cell.kind]
        tr.cell = cell.cell_id
        t0 = time.perf_counter()
        try:
            answer = tr.call("bench.cell", runner, pg, bridge, tr, cell)
        except Exception as exc:  # a failed cell is recorded, the run goes on
            answer = exc
        cell_ms.append((time.perf_counter() - t0) * 1000.0)
        try:
            if isinstance(answer, Exception):
                raise answer
            outcomes.append(checker(cell, answer))
        except Exception as exc:
            outcomes.append(("failed", 0))
            # The innermost frame outside the checker: pgmatch's raising
            # line, or the check in this file that rejected the answer.
            where = [f for f in traceback.extract_tb(exc.__traceback__) if not f.filename.endswith("known.py")][-1]
            key = (cell.cell_id, type(exc).__name__, str(exc))
            if key not in failures:
                failures[key] = f"{os.path.basename(where.filename)}:{where.lineno}"
    ref_ms.append(reference())
    # A cell that ran out of its budget took the budget's wall-clock time,
    # whatever the processor's speed: it keeps its raw time.
    factors = [1.0 if o[0] == "timeout" else k for k, o in zip(scales(ref_ms, len(cell_ms)), outcomes)]
    scaled = [ms * k for ms, k in zip(cell_ms, factors)]
    return time.perf_counter() - start, cell_ms, factors, scaled, outcomes


def expected_failure(failure):
    return any(failure["cell"] == c and failure["message"].startswith(m) for c, m in EXPECTED_FAILURES)


def percentile(values, p):
    """Nearest-rank percentile."""
    xs = sorted(values)
    return xs[max(0, math.ceil(p / 100.0 * len(xs)) - 1)]


def tail_percentile(n):
    """The highest percentile with at least ten of n values beyond it."""
    for p in TAIL_PERCENTILES:
        if n - math.ceil(p / 100.0 * n) >= 10:
            return p
    return 50.0


class Pass(NamedTuple):
    traced: bool
    wall_s: float  # raw, checks and reference loops included
    raw_ms: list  # per cell, as measured
    factors: list  # per cell, REF_MS over the reference time around it
    ms: list  # per cell, scaled to the reference speed
    outcomes: list  # per cell, (status, GED excess)
    layers: dict  # span totals of a traced pass


def measure(workload, seed, seconds, trace):
    pg, bridge = import_pgmatch()
    cells, *first_build = build(workload, seed)
    builds = [first_build]  # (raw s, scaled s)
    failures: dict = {}
    tracer = Tracer()
    passes: list = []
    begin = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        tr = tracer if traced else NullTracer()
        mark = tracer.mark()
        wall, raw_ms, factors, ms, outcomes = run_pass(pg, bridge, tr, cells, failures)
        passes.append(Pass(traced, wall, raw_ms, factors, ms, outcomes, tracer.layer_totals(mark) if traced else {}))
        builds += [build(workload, seed)[1:] for _ in range(SETUP_BUILDS_PER_PASS)]
        elapsed = time.perf_counter() - begin
        typical = statistics.median(p.wall_s for p in passes)
        if (not trace or len(passes) >= 2) and elapsed + typical > seconds:
            break

    attempted = sum(len(p.outcomes) for p in passes)
    statuses = [o[0] for p in passes for o in p.outcomes]
    failed = statuses.count("failed")
    plain = [p for p in passes if not p.traced]
    per_cell = [statistics.fmean(p.ms[i] for p in plain) for i in range(len(cells))]
    tail_p = tail_percentile(len(cells))
    summary = {
        "workload": workload,
        "seed": seed,
        "cells": len(cells),
        "passes": len(passes),
        "traced_passes": len(passes) - len(plain),
        "tail_percentile": tail_p,
        "pass_wall_s": [p.wall_s for p in passes],
        "build_s": [b[0] for b in builds],
        "build_scaled_s": [b[1] for b in builds],
        "failed_frac": failed / attempted,
        "failures": [
            {"cell": c, "type": t, "message": m, "at": at} for (c, t, m), at in sorted(failures.items())
        ],
    }
    summary["correct"] = all(expected_failure(f) for f in summary["failures"])
    cell_rows = [
        {
            "cell": c.cell_id,
            "ms": ms,
            "pass_ms": [p.ms[i] for p in plain],
            "pass_raw_ms": [p.raw_ms[i] for p in plain],
            "pass_factor": [p.factors[i] for p in plain],
            "status": plain[0].outcomes[i][0],
        }
        for i, (c, ms) in enumerate(zip(cells, per_cell))
    ]
    if not trace:
        values = {
            "setup_s": statistics.median(b[1] for b in builds),
            "wall_s": sum(per_cell) / 1000.0,
            "cell_ms_p50": statistics.median(per_cell),
            "cell_ms_tail": percentile(per_cell, tail_p),
            "solved_frac": statuses.count("solved") / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in SPEC["end_to_end"]}
    else:
        values = layer_metrics(passes, cells)
        metrics = {m["name"]: (values.get(m["name"], 0), m["unit"]) for m in SPEC["per_layer"]}
    os.makedirs(OUT_DIR, exist_ok=True)
    out = os.path.join(OUT_DIR, f"{workload}-seed{seed}-trace{int(trace)}.json")
    tracer.write(out, dict(summary, metrics={k: v[0] for k, v in metrics.items()}, cells=cell_rows))
    summary["output"] = os.path.relpath(out, ROOT)
    return summary, metrics, attempted, failed


def layer_metrics(passes, cells):
    """Per-pass medians: span self times and counts over the traced passes,
    GED outcomes over all passes, and the tracing overhead as the traced
    passes' median scaled cell time against the untraced ones'. A layer the
    workload never calls reads 0."""
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    names = {name for p in traced for name in p.layers}
    out = {name: statistics.median(p.layers.get(name, 0) for p in traced) for name in names}
    ged = [i for i, c in enumerate(cells) if c.kind == "ged"]
    out["search.timeouts"] = statistics.median(sum(o[0] == "timeout" for o in p.outcomes) for p in passes)
    if ged:
        out["search.ged_optimal_frac"] = statistics.median(
            sum(p.outcomes[i][0] == "solved" for i in ged) / len(ged) for p in passes
        )
        out["search.ged_excess"] = statistics.median(sum(p.outcomes[i][1] for i in ged) for p in passes)
    cells_plain = statistics.median(sum(p.ms) for p in plain)
    out["trace.overhead_pct"] = (statistics.median(sum(p.ms) for p in traced) / cells_plain - 1.0) * 100.0
    return out


# -- reporting ------------------------------------------------------------------


def report(summary, metrics):
    print(
        f"{summary['workload']} seed={summary['seed']} cells={summary['cells']} "
        f"passes={summary['passes']} (traced {summary['traced_passes']}) "
        f"tail=p{summary['tail_percentile']:g} of {summary['cells']} cells "
        f"failed_frac={summary['failed_frac']:.4f}"
    )
    for name, (value, unit) in metrics.items():
        print(f"  {name:<36} {value:>14.4f} {unit}")
    for f in summary["failures"]:
        known_bug = " (expected at this commit)" if expected_failure(f) else ""
        print(f"  FAILED{known_bug} {f['cell']}: {f['type']}: {f['message']} ({f['at']})")
    print(f"  spans and failures written to {summary['output']}")


def run_all(seed, seconds):
    """Every workload in a fresh process, then one table of every end-to-end
    metric by name and unit, with failed_frac from the known-answer checker."""
    rows, ok = [], True
    for workload in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            ok = False
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        rows.append((workload, result))
    print(f"\n{'workload':<16} {'metric':<14} {'value':>14} unit")
    for workload, result in rows:
        for name, m in result["metrics"].items():
            print(f"{workload:<16} {name:<14} {m['value']:>14.4f} {m['unit']}")
        print(f"{workload:<16} {'failed_frac':<14} {result['failed'] / result['attempted']:>14.4f} frac")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    group = ap.add_mutually_exclusive_group(required=True)
    group.add_argument("--workload", choices=sorted(WORKLOADS))
    group.add_argument("--all", action="store_true", help="every workload, one process each")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.all:
        return run_all(args.seed, args.seconds)
    summary, metrics, attempted, failed = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    report(summary, metrics)
    # "correct" is false when a cell raised or answered wrongly, other than
    # the expected failures; every failed cell is counted in "failed".
    result = {
        "correct": summary["correct"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
