"""Benchmark harness: run matching problems over instance suites under a
time budget and summarize success rates.

A suite is a list of cases, each naming a problem kind and two graphs
(generated or loaded from files). Every (case, backend) cell records status,
cost, wall time and whether the budget expired; a cell counts as solved when
it reached a definitive answer (SAT, UNSAT or proven optimum) in time.
Each backend answers through one runner, ``run_native`` or ``run_asp``,
which the command line calls too.
"""

from __future__ import annotations

import concurrent.futures
import csv
import io
import json
import multiprocessing
import time
from dataclasses import dataclass

from .bridge import SolverConfig, SolverStatus, decode_edit_script, decode_matching, run_solver
from .editing import CostModel
from .encode import EDIT_KIND_MODES, ProblemKind, kind_cost_model, render_job
from .generators import SHAPES, gen_chain, gen_cycle, gen_random
from .graphs import PropertyGraph, load_graph
from .search import SearchOptions, SearchTimeout, min_edit_matching, search_hom, search_iso, search_sub

CSV_COLUMNS = ("instance", "kind", "backend", "status", "cost", "ms", "timed_out")

# The native search of each decision kind; the edit-distance kinds share one.
_SEARCHES = {ProblemKind.HOM: search_hom, ProblemKind.ISO: search_iso, ProblemKind.SUB: search_sub}
_SOLVED = {"SAT", "UNSAT", "OPTIMUM"}


@dataclass(frozen=True)
class BenchCase:
    instance: str
    kind: ProblemKind
    g1: PropertyGraph
    g2: PropertyGraph


@dataclass(frozen=True)
class BenchResult:
    instance: str
    kind: str
    backend: str
    status: str
    cost: int | None
    ms: float
    timed_out: bool
    error: str | None = None  # "TypeName: message" of an ERROR cell; not a CSV column

    @property
    def solved(self) -> bool:
        return self.status in _SOLVED and not self.timed_out


def _whole(spec: dict, key: str, default: int | None = None) -> int:
    """``spec[key]`` (``default`` when given and the key is absent) as an int,
    refusing a boolean and a number with a fractional part."""
    x = spec[key] if default is None else spec.get(key, default)
    if isinstance(x, bool) or isinstance(x, float) and not x.is_integer():
        raise ValueError(f"{key} must be a whole number, not {x!r}")
    return int(x)


def _graph_from_spec(spec: dict, default_prefix: str) -> PropertyGraph:
    if not isinstance(spec, dict):
        raise TypeError(f"graph spec {spec!r} is not a JSON object")
    if "file" in spec:
        return load_graph(spec["file"])
    gen = spec.get("gen")
    prefix = spec.get("prefix", default_prefix)
    if gen in SHAPES:
        return SHAPES[gen](_whole(spec, "k"), prefix)
    if gen == "random":
        return gen_random(_whole(spec, "n"), float(spec.get("p", 0.1)), _whole(spec, "seed", 0), prefix)
    raise ValueError(f"unrecognized graph spec {spec!r}")


def load_suite(path: str) -> list[BenchCase]:
    """Read a JSON suite file: {"cases": [{"id", "kind", "g1", "g2"}, ...]}."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or "cases" not in data:
        raise ValueError(f"suite file {path} has no key 'cases'")
    if not isinstance(data["cases"], list):
        raise ValueError(f"suite file {path}: 'cases' is not a JSON list")
    cases = []
    for i, entry in enumerate(data["cases"]):
        if not isinstance(entry, dict):
            raise ValueError(f"suite file {path}: case #{i} is not a JSON object")
        case = entry.get("id", f"#{i}")
        try:
            g1, g2 = _graph_from_spec(entry["g1"], "a"), _graph_from_spec(entry["g2"], "b")
            cases.append(BenchCase(str(entry["id"]), ProblemKind.from_name(entry["kind"]), g1, g2))
        except KeyError as exc:
            raise ValueError(f"suite file {path}: case {case} has no key {exc}") from None
        except (TypeError, ValueError) as exc:
            raise ValueError(f"suite file {path}: case {case}: {exc}") from None
    return cases


def _shape_pairs(kind: ProblemKind) -> list[BenchCase]:
    """Chain/cycle pairs for k in 10..100 across all four shape pairs."""
    return [
        BenchCase(f"{kind.value}-{s1}{k}-{s2}{k}", kind, SHAPES[s1](k, "a"), SHAPES[s2](k, "b"))
        for s1 in SHAPES
        for s2 in SHAPES
        for k in range(10, 101, 10)
    ]


def synthetic_matrix() -> list[BenchCase]:
    """Chain/cycle pairs for k in 10..100 across all four shape pairs and all
    problems, plus random graphs with edge probability 0.1; the subgraph rows
    additionally embed a one-shorter chain into the cycle."""
    cases: list[BenchCase] = []
    for kind in (*_SEARCHES, ProblemKind.GED):
        cases += _shape_pairs(kind)
        for n in range(5, 51, 5):
            cases.append(
                BenchCase(
                    f"{kind.value}-rand{n}",
                    kind,
                    gen_random(n, 0.1, seed=2 * n, prefix="a"),
                    gen_random(n, 0.1, seed=2 * n + 1, prefix="b"),
                )
            )
    for k in range(2, 101, 10):
        cases.append(
            BenchCase(
                f"sub-chain{k - 1}-cycle{k}",
                ProblemKind.SUB,
                gen_chain(k - 1, "a"),
                gen_cycle(k, "b"),
            )
        )
    return cases


def native_matrix() -> list[BenchCase]:
    """The decision matrix plus edit distance on chain-versus-cycle pairs
    of 1 to 8 nodes, small enough for the exact native search."""
    cases = [case for kind in _SEARCHES for case in _shape_pairs(kind)]
    for k in range(1, 9):
        cases.append(
            BenchCase(
                f"ged-chain{k}-cycle{k}",
                ProblemKind.GED,
                gen_chain(k, "a"),
                gen_cycle(k, "b"),
            )
        )
    return cases


PRESETS = {"synthetic-matrix": synthetic_matrix, "native-matrix": native_matrix}


def run_native(kind: ProblemKind, g1: PropertyGraph, g2: PropertyGraph, opts: SearchOptions):
    """Answer ``kind`` with the native search under ``opts`` (an edit-distance
    kind takes its mode and cost model from them) as ``(status, cost, answer)``:
    the edit script and its cost, or no cost and the witness (None when there
    is none). A decision search that runs out of budget is a TIMEOUT with no
    answer; edit distance's is its incumbent's."""
    if kind in _SEARCHES:
        try:
            witness = _SEARCHES[kind](g1, g2, opts)
        except SearchTimeout:
            return SolverStatus.TIMEOUT, None, None
        return SolverStatus.UNSAT if witness is None else SolverStatus.SAT, None, witness
    if kind not in EDIT_KIND_MODES:
        raise ValueError(f"the native backend cannot run {kind.value}")
    result = min_edit_matching(g1, g2, opts)
    return SolverStatus.OPTIMUM if result.optimal else SolverStatus.TIMEOUT, result.cost, result.script


def run_asp(
    kind: ProblemKind, g1: PropertyGraph, g2: PropertyGraph, cfg: SolverConfig, cm: CostModel | None = None
):
    """Answer ``kind`` through the solver ``cfg`` runs, the job rendered with
    ``cm`` (gedc's weights, None for the other kinds), as ``run_native`` does.
    The model is decoded and checked against the graphs: an edit-distance
    model's script under ``kind_cost_model``, with that script's cost, and
    otherwise its matching, with the solver's own cost. A run with no model
    (UNSAT, or killed before printing one) has no cost and no answer. A model
    that disagrees with the graphs raises ``DecodeMismatchError`` or
    ``UnknownIdError``."""
    ans = run_solver(render_job(g1, g2, kind, cm), cfg)
    if not ans.found:
        return ans.status, None, None
    if kind in EDIT_KIND_MODES:
        script, cost = decode_edit_script(ans, g1, g2, EDIT_KIND_MODES[kind], kind_cost_model(kind, cm))
        return ans.status, cost, script
    cost = sum(ans.costs) if ans.costs is not None else None
    return ans.status, cost, decode_matching(ans, g1, g2) if ans.atoms else None


def _run_cell(case: BenchCase, backend: str, budget: float, solver: SolverConfig | None) -> BenchResult:
    start = time.monotonic()
    kind, error = case.kind, None
    try:
        if backend == "native":
            opts = SearchOptions(budget=budget)
            if kind in EDIT_KIND_MODES:
                opts = SearchOptions(EDIT_KIND_MODES[kind], cost_model=kind_cost_model(kind), budget=budget)
            status, cost, _ = run_native(kind, case.g1, case.g2, opts)
        else:  # asp, which run_bench gives a solver configuration
            cm = kind_cost_model(kind) if kind is ProblemKind.GEDC_WEIGHTED else None
            cfg = SolverConfig(solver.executable, solver.args, budget)
            status, cost, _ = run_asp(kind, case.g1, case.g2, cfg, cm)
        status = status.value
    except Exception as exc:  # one failed cell must not end the run
        status, cost, error = "ERROR", None, f"{type(exc).__name__}: {exc}"
    ms = (time.monotonic() - start) * 1000.0
    return BenchResult(case.instance, kind.value, backend, status, cost, ms, status == "TIMEOUT", error)


def run_bench(
    cases: list[BenchCase],
    backends: tuple[str, ...] = ("native",),
    budget: float = 30.0,
    solver: SolverConfig | None = None,
    workers: int = 1,
) -> list[BenchResult]:
    """Run every (case, backend) cell; per-cell errors are recorded as ERROR
    rows and the run continues. With ``workers > 1`` the cells run in that
    many worker processes; fewer than one is a ValueError, as is a backend
    or budget that every cell would refuse: a backend other than ``native``
    and ``asp``, ``asp`` with no solver configuration, or a budget that is
    not positive, or with ``asp`` among the backends not finite. Results
    come back sorted."""
    if workers < 1:
        raise ValueError(f"workers must be at least 1, not {workers}")
    for backend in backends:
        if backend not in ("native", "asp"):
            raise ValueError(f"unknown backend {backend!r}")
    SearchOptions(budget=budget)  # raises, as each cell would, unless budget > 0
    if "asp" in backends:
        SolverConfig("", budget=budget)  # and for the solver unless finite too
        if solver is None:
            raise ValueError("the asp backend needs a solver configuration")
    cells = [(case, backend) for case in cases for backend in backends]
    if workers > 1:
        # Processes, not threads: the cells are CPU-bound pure Python, and
        # threads would queue on the interpreter lock while their budgets run.
        # Spawned workers, because forking a process that has threads is unsafe.
        n = len(cells)
        spawn = multiprocessing.get_context("spawn")
        with concurrent.futures.ProcessPoolExecutor(workers, mp_context=spawn) as pool:
            results = list(
                pool.map(
                    _run_cell,
                    [case for case, _ in cells],
                    [backend for _, backend in cells],
                    [budget] * n,
                    [solver] * n,
                )
            )
    else:
        results = [_run_cell(case, backend, budget, solver) for case, backend in cells]
    return sorted(results, key=lambda r: (r.instance, r.kind, r.backend))


def success_rates(results: list[BenchResult]) -> dict[tuple[str, str], float]:
    """Fraction of solved cells per (kind, backend) group."""
    groups: dict[tuple[str, str], list[BenchResult]] = {}
    for r in results:
        groups.setdefault((r.kind, r.backend), []).append(r)
    return {key: sum(r.solved for r in rows) / len(rows) for key, rows in sorted(groups.items())}


def render_csv(results: list[BenchResult]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(CSV_COLUMNS)
    for r in results:
        writer.writerow(
            [r.instance, r.kind, r.backend, r.status, "" if r.cost is None else r.cost,
             f"{r.ms:.1f}", str(r.timed_out).lower()]
        )
    return buf.getvalue()


def render_summary(results: list[BenchResult]) -> str:
    lines = [f"{'kind':<10} {'backend':<8} {'cells':>5} {'solved':>6} {'rate':>7}"]
    for (kind, backend), rate in success_rates(results).items():
        rows = [r for r in results if r.kind == kind and r.backend == backend]
        solved = sum(r.solved for r in rows)
        lines.append(f"{kind:<10} {backend:<8} {len(rows):>5} {solved:>6} {rate:>6.0%}")
    lines += [f"ERROR {r.instance} {r.backend}: {r.error}" for r in results if r.status == "ERROR"]
    return "\n".join(lines)
