#!/usr/bin/env python3
"""Scripted stand-in for an answer-set solver.

Reads a program on stdin and reacts to a ``%fake: <directive>`` comment line
(real solvers ignore ``%`` comments, so test programs stay valid). Used to
exercise the subprocess bridge without a solver installed.

A ``ged``, ``ged-relabel`` or ``gedc`` job from ``render_job`` without a
directive is answered by pgmatch's native engine: the graphs are read back
from the job's ``n1/e1/p1/n2/e2/p2`` facts, ``min_edit_matching`` runs under
the kind's cost model, and the optimum is printed as a Clingo transcript
(``h/2`` atoms, ``Optimization:``, ``OPTIMUM FOUND``). This checks the
render -> solver output -> decode path end to end; it does not test the ASP
rules, which only a run with a real solver does (criterion 5 in
``test_acceptance.py``).
"""

import re
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from pgmatch.editing import CostModel  # noqa: E402
from pgmatch.encode import (  # noqa: E402
    EDIT_KIND_MODES,
    Fact,
    ProblemKind,
    decode_graph_facts,
    encode_problem,
    kind_cost_model,
)
from pgmatch.records import scan_atoms  # noqa: E402
from pgmatch.search import SearchOptions, min_edit_matching  # noqa: E402

_CONST = re.compile(r"^#const c_(\w+)=(\d+)\.$", re.M)


def _edit_options(program: str) -> SearchOptions | None:
    """The native search a ged, ged-relabel or gedc job asks for, or None."""
    consts = {name: int(value) for name, value in _CONST.findall(program)}
    if consts:
        weights = {"insV": consts["node_ins"], "delV": consts["node_del"],
                   "insE": consts["edge_ins"], "delE": consts["edge_del"]}
        kind = ProblemKind.GEDC_WEIGHTED
        cm = kind_cost_model(kind, CostModel(weights, consts["node_sub"], consts["edge_sub"]))
        return SearchOptions(mode=EDIT_KIND_MODES[kind], cost_model=cm)
    for kind in (ProblemKind.GED, ProblemKind.GED_RELABEL):
        if program.endswith(encode_problem(kind).text):
            return SearchOptions(mode=EDIT_KIND_MODES[kind], cost_model=kind_cost_model(kind))
    return None


def _answer_edit_job(program: str, opts: SearchOptions) -> int:
    facts: dict[str, list[Fact]] = {"1": [], "2": []}
    for line in program.splitlines():
        if line[:1] in ("n", "e", "p") and line[1:3] in ("1(", "2("):
            facts[line[1]] += [Fact(name, args) for _, name, args in scan_atoms(line)]
    g1, g2 = decode_graph_facts(facts["1"], 1), decode_graph_facts(facts["2"], 2)
    result = min_edit_matching(g1, g2, opts)
    print("Solving...")
    print("Answer: 1")
    print(" ".join(Fact("h", pair).render()[:-1] for pair in result.matching.id_map().items()))
    print(f"Optimization: {result.cost}")
    if not result.optimal:
        return 10
    print("OPTIMUM FOUND")
    return 30


def main() -> int:
    program = sys.stdin.read()
    directive = ""
    for line in program.splitlines():
        if line.startswith("%fake:"):
            directive = line.split(":", 1)[1].strip()
    if directive == "sleep":
        time.sleep(60)
        return 0
    if directive == "sat-then-sleep":
        print("Answer: 1")
        print("h(v1,w1)")
        sys.stdout.flush()
        time.sleep(60)
        return 0
    if directive == "crash":
        sys.stderr.write("boom\n")
        return 65
    if directive == "garbage":
        print("%%% nothing useful @@@")
        return 0
    if directive == "unsat":
        print("Solving...")
        print("UNSATISFIABLE")
        print("")
        print("Models       : 0")
        return 20
    if directive.startswith("sat "):
        print("fake solver version 0")
        print("Solving...")
        print("Answer: 1")
        print(directive[4:])
        print("SATISFIABLE")
        return 10
    if directive.startswith("opt "):
        cost, atoms = directive[4:].split(" ", 1)
        print("Solving...")
        print("Answer: 1")
        print(atoms)
        print(f"Optimization: {cost}")
        print("OPTIMUM FOUND")
        return 30
    if directive.startswith("plain "):
        # atoms with no Answer marker: not a model, so a ParseFailure
        print(directive[6:])
        return 0
    opts = _edit_options(program)
    if opts is not None:
        return _answer_edit_job(program, opts)
    print("UNKNOWN")
    return 0


if __name__ == "__main__":
    sys.exit(main())
