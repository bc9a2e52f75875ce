"""Command-line interface.

Exit codes for solving commands follow the solver-status mapping:
SAT/OPTIMUM 0, UNSAT 1, TIMEOUT 2, ERROR 3.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .bench import PRESETS, load_suite, render_csv, render_summary, run_asp, run_bench, run_native
from .bridge import EXIT_CODES, SOLVER_ENV_VAR, SolverConfig, SolverStatus
from .editing import MODE_LABEL_HARD, MODE_RELABEL, CostModel, format_script
from .encode import GEDC_WEIGHTS, ProblemKind, render_job
from .generators import SHAPES, gen_random
from .graphs import Matching, format_graph, load_graph
from .search import SearchOptions


def _cost_model(name: str, expressible: frozenset | None = None) -> CostModel:
    """A preset by name or a JSON weights file; a file may name only the
    ``expressible`` weights, when given."""
    if name == "unit":
        return CostModel.unit()
    if name == "gedc":
        return CostModel.gedc()
    with open(name, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"weights file {name} must hold a JSON object, not {type(data).__name__}")
    extra = sorted(set(data) - expressible) if expressible is not None else []
    if extra:
        raise ValueError(f"weights the solver program cannot express: {', '.join(extra)}")
    return CostModel(
        weights={k: v for k, v in data.items() if k not in ("node_sub", "edge_sub")},
        node_sub=data.get("node_sub", 1),
        edge_sub=data.get("edge_sub", 1),
    )


def _report(status: SolverStatus, cost: int | None, answer) -> int:
    """Print an answer of ``run_native`` or ``run_asp``: the status, then a
    witness's pairs or an edit script's cost and text. Returns the exit code."""
    print(f"status: {status.value}")
    if isinstance(answer, Matching):
        for v, w in answer.node_map.items():
            print(f"node {v} -> {w}")
        for e, f in answer.edge_map.items():
            print(f"edge {e} -> {f}")
    elif answer is not None:
        print(f"cost: {cost}")
        sys.stdout.write(format_script(answer))
    return EXIT_CODES[status]


def _write_out(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_check(args) -> int:
    g1, g2 = load_graph(args.g1), load_graph(args.g2)
    opts = SearchOptions(
        mode=MODE_RELABEL if args.relabel else MODE_LABEL_HARD,
        properties="soft" if args.soft_props else "hard",
        budget=args.timeout,
    )
    return _report(*run_native(ProblemKind.from_name(args.mode), g1, g2, opts))


def _cmd_ged(args) -> int:
    g1, g2 = load_graph(args.g1), load_graph(args.g2)
    opts = SearchOptions(
        mode=MODE_RELABEL if args.relabel else MODE_LABEL_HARD,
        cost_model=_cost_model(args.weights),
        budget=args.timeout,
    )
    kind = ProblemKind.GED_RELABEL if args.relabel else ProblemKind.GED
    return _report(*run_native(kind, g1, g2, opts))


def _job_cost_model(args, kind: ProblemKind) -> CostModel | None:
    """The ``--weights`` a solver job for ``kind`` takes: those of a gedc job,
    None for the other kinds, whose programs take no weights."""
    if kind is ProblemKind.GEDC_WEIGHTED:
        return _cost_model(args.weights, GEDC_WEIGHTS)
    _cost_model(args.weights, frozenset())  # a weights file is refused, not ignored
    return None


def _cmd_encode(args) -> int:
    g1, g2 = load_graph(args.g1), load_graph(args.g2)
    kind = ProblemKind.from_name(args.kind)
    cm = _job_cost_model(args, kind)
    _write_out(render_job(g1, g2, kind, cm), args.output)
    return 0


def _cmd_solve(args) -> int:
    g1, g2 = load_graph(args.g1), load_graph(args.g2)
    kind = ProblemKind.from_name(args.kind)
    cm = _job_cost_model(args, kind)
    cfg = _solver_config(args)
    if cfg is None:
        print("no solver configured (use --solver or PGMATCH_SOLVER)", file=sys.stderr)
        return EXIT_CODES[SolverStatus.ERROR]
    return _report(*run_asp(kind, g1, g2, cfg, cm))


def _solver_config(args) -> SolverConfig | None:
    """``--solver`` or ``$PGMATCH_SOLVER`` with every ``--solver-arg``; None
    when neither names an executable."""
    executable = args.solver or os.environ.get(SOLVER_ENV_VAR)
    return SolverConfig(executable, tuple(args.solver_arg or ()), args.timeout) if executable else None


def _cmd_gen(args) -> int:
    if args.shape in SHAPES:
        g = SHAPES[args.shape](args.k, args.prefix)
    else:
        g = gen_random(args.n, args.p, args.seed, args.prefix)
    _write_out(format_graph(g), args.output)
    return 0


def _cmd_bench(args) -> int:
    if args.suite in PRESETS:
        cases = PRESETS[args.suite]()
    else:
        cases = load_suite(args.suite)
    backends = tuple(args.backends.split(","))
    solver = _solver_config(args) if "asp" in backends else None
    results = run_bench(cases, backends, args.timeout, solver, args.workers)
    _write_out(render_csv(results), args.output)
    print(render_summary(results), file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pgmatch",
        description="Match property graphs and compute edit distances, "
        "natively or through an external answer-set solver.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, solver_flags=False):
        p.add_argument("--timeout", type=float, default=30.0, help="time budget in seconds")
        if solver_flags:
            p.add_argument("--solver", help="solver executable (default: $PGMATCH_SOLVER)")
            p.add_argument("--solver-arg", action="append", help="solver option, repeatable")

    p = sub.add_parser("check", help="decide hom/iso/sub with the native search")
    p.add_argument("--mode", choices=["hom", "iso", "sub"], required=True)
    p.add_argument("--relabel", action="store_true", help="ignore label equality")
    p.add_argument("--soft-props", action="store_true", help="minimize property mismatches")
    add_common(p)
    p.add_argument("g1")
    p.add_argument("g2")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("ged", help="minimum edit cost and canonical script")
    p.add_argument("--relabel", action="store_true", help="allow in-place relabeling")
    p.add_argument("--weights", default="unit", help="unit, gedc, or a JSON weights file")
    add_common(p)
    p.add_argument("g1")
    p.add_argument("g2")
    p.set_defaults(func=_cmd_ged)

    p = sub.add_parser("encode", help="print the solver job for a problem")
    p.add_argument("--kind", required=True, help="hom|iso|sub|ged|ged-relabel|gedc|approx-sub-old|approx-sub-new")
    p.add_argument("--weights", default="gedc", help="weights for the gedc kind")
    p.add_argument("-o", "--output", default=None)
    p.add_argument("g1")
    p.add_argument("g2")
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("solve", help="run the external solver and decode its model")
    p.add_argument("--kind", required=True)
    p.add_argument("--weights", default="gedc", help="weights for the gedc kind")
    add_common(p, solver_flags=True)
    p.add_argument("g1")
    p.add_argument("g2")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("gen", help="generate a synthetic graph")
    shapes = p.add_subparsers(dest="shape", required=True)
    subparsers = [shapes.add_parser(shape) for shape in SHAPES]
    for sp in subparsers:
        sp.add_argument("--k", type=int, required=True)
    pr = shapes.add_parser("random")
    pr.add_argument("--n", type=int, required=True)
    pr.add_argument("--p", type=float, default=0.1)
    pr.add_argument("--seed", type=int, default=0)
    for sp in (*subparsers, pr):
        sp.add_argument("--prefix", default="")
        sp.add_argument("-o", "--output", default=None)
        sp.set_defaults(func=_cmd_gen)

    p = sub.add_parser("bench", help="run a benchmark suite and emit CSV")
    p.add_argument("--suite", required=True, help="suite file or preset: " + ", ".join(PRESETS))
    p.add_argument("--backends", default="native", help="comma-separated: native,asp")
    p.add_argument("--workers", type=int, default=1, help="cells run in this many processes")
    p.add_argument("-o", "--output", default=None)
    add_common(p, solver_flags=True)
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return 0
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CODES[SolverStatus.ERROR]


if __name__ == "__main__":
    sys.exit(main())
