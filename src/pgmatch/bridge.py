"""Drive an external answer-set grounder/solver as a subprocess and decode
its models into matchings, edit scripts and costs.

The bridge writes one program to the solver's stdin, enforces a wall-clock
budget by terminating the process, and parses Clingo's default text output:
``Answer: N`` followed by one line of atoms, ``Optimization: c``, then a
status line. A model is read only from the line after an ``Answer:`` line.
Output with neither a model nor a status word, or with a status word that
claims a model but none printed, is a ``ParseFailure`` (exit code 3 on the
command line): ``cat`` as the solver echoes the program back, and its fact
lines are not taken for a model. The command line takes the
solver executable from ``--solver`` or from the ``PGMATCH_SOLVER``
environment variable.
"""

from __future__ import annotations

import enum
import subprocess
from dataclasses import dataclass

from .editing import (
    MODE_LABEL_HARD,
    CostModel,
    DeleteEdge,
    DeleteNode,
    DeleteProp,
    InsertEdge,
    InsertNode,
    InsertProp,
    RelabelEdge,
    RelabelNode,
    UpdateProp,
    apply_script,
    op_sort_key,
    script_from_matching,
)
from .encode import Fact
from .graphs import Matching, PropertyGraph, UnknownIdError, rename_graph
from .records import scan_atoms

SOLVER_ENV_VAR = "PGMATCH_SOLVER"


class ProcessFailure(Exception):
    """The solver process failed in a way that left no usable output."""


class ParseFailure(Exception):
    """The solver produced output this bridge does not recognize."""


class DecodeMismatchError(ValueError):
    """The answer set is inconsistent with the graphs it claims to relate."""


class SolverStatus(enum.Enum):
    SAT = "SAT"
    UNSAT = "UNSAT"
    OPTIMUM = "OPTIMUM"
    TIMEOUT = "TIMEOUT"
    ERROR = "ERROR"


EXIT_CODES = {
    SolverStatus.SAT: 0,
    SolverStatus.OPTIMUM: 0,
    SolverStatus.UNSAT: 1,
    SolverStatus.TIMEOUT: 2,
    SolverStatus.ERROR: 3,
}


@dataclass(frozen=True)
class SolverConfig:
    """How to invoke the external solver.

    ``budget`` is wall-clock seconds enforced by this process. ``args`` go to
    the solver as given, before the ``-`` that makes it read stdin; without
    them the solver's own behaviour is kept (stop at the first model, or prove
    optimality when the program minimizes).
    """

    executable: str
    args: tuple[str, ...] = ()
    budget: float = 30.0

    def __post_init__(self) -> None:
        if not 0 < self.budget < float("inf"):  # nan and inf cannot time a subprocess
            raise ValueError("budget must be positive and finite")


@dataclass(frozen=True)
class AnswerSet:
    """The best model reported by one solver run.

    ``costs`` is present only when the program carried a minimize directive;
    ``optimal`` is True only when the solver proved optimality. ``found`` is
    False when the solver printed no model, as when it was killed first:
    ``atoms`` is then empty but is no model.
    """

    atoms: tuple[Fact, ...]
    costs: tuple[int, ...] | None
    optimal: bool
    status: SolverStatus
    found: bool = True

    def atoms_named(self, pred: str) -> list[Fact]:
        return [a for a in self.atoms if a.pred == pred]


def _model(line: str) -> list[Fact]:
    return [Fact(pred, args) for _, pred, args in scan_atoms(line)]


def parse_solver_output(text: str) -> tuple[list[list[Fact]], list[int] | None, str | None]:
    """Extract the models, the last optimization vector, and the final status
    word from solver stdout. Each ``Answer: N`` line announces the next line
    as a model; no other line is read as one.
    """
    models: list[list[Fact]] = []
    costs: list[int] | None = None
    status: str | None = None
    expect_model = False
    for line in text.splitlines():
        stripped = line.strip()
        if expect_model:
            # the model line may be empty: a model with no shown atoms
            models.append(_model(stripped))
            expect_model = False
            continue
        if not stripped:
            continue
        if stripped.startswith("Answer:"):
            expect_model = True
            continue
        if stripped.startswith("Optimization:"):
            costs = [int(tok) for tok in stripped.split(":", 1)[1].split()]
            continue
        upper = stripped.upper()
        if upper in ("SATISFIABLE", "UNSATISFIABLE", "UNKNOWN", "OPTIMUM FOUND"):
            status = upper
    return models, costs, status


def run_solver(program: str, cfg: SolverConfig) -> AnswerSet:
    """Run one solver job and return its final (best) model.

    On budget expiry the process is killed and whatever model it printed so
    far is returned with status TIMEOUT, or, when it printed none, an answer
    set that is not ``found``. Unexpected process failures and an
    ``UNKNOWN`` answer raise ``ProcessFailure`` with the start of the
    solver's stderr; unrecognizable output, and a ``SATISFIABLE`` or
    ``OPTIMUM FOUND`` with no model before it, raise ``ParseFailure``.
    """
    cmd = [cfg.executable, *cfg.args, "-"]
    timed_out = False
    try:
        proc = subprocess.Popen(
            cmd,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
    except OSError as exc:
        raise ProcessFailure(f"cannot start solver {cfg.executable!r}: {exc}") from exc
    with proc:  # on leaving, the pipes are closed and the process reaped
        try:
            out, err = proc.communicate(program, timeout=cfg.budget)
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
            timed_out = True
        except BaseException:  # e.g. a program that cannot be encoded
            proc.kill()
            raise

    try:
        models, costs, status_word = parse_solver_output(out or "")
    except ValueError as exc:  # a malformed model line or optimization vector
        raise ParseFailure(f"cannot read solver output: {exc}") from exc
    atoms = tuple(models[-1]) if models else ()
    cost_vec = tuple(costs) if costs is not None else None
    if timed_out:
        return AnswerSet(atoms, cost_vec, False, SolverStatus.TIMEOUT, found=bool(models))
    if status_word in ("OPTIMUM FOUND", "SATISFIABLE") and not models:
        raise ParseFailure(f"solver answered {status_word} but printed no model: {out[:200]!r}")
    if status_word == "OPTIMUM FOUND":
        return AnswerSet(atoms, cost_vec, optimal=True, status=SolverStatus.OPTIMUM)
    if status_word == "SATISFIABLE":
        return AnswerSet(atoms, cost_vec, optimal=False, status=SolverStatus.SAT)
    if status_word == "UNSATISFIABLE":
        return AnswerSet((), None, False, SolverStatus.UNSAT, found=False)
    if status_word == "UNKNOWN":
        raise ProcessFailure(f"solver answered UNKNOWN; stderr: {(err or '').strip()[:200]!r}")
    if models:
        return AnswerSet(atoms, cost_vec, optimal=False, status=SolverStatus.SAT)
    if proc.returncode not in (0, 10, 20, 30):
        raise ProcessFailure(
            f"solver exited with {proc.returncode}: {(err or out or '').strip()[:200]}"
        )
    raise ParseFailure(f"no model or status found in solver output: {out[:200]!r}")


def decode_matching(ans: AnswerSet, g1: PropertyGraph, g2: PropertyGraph) -> Matching:
    """Turn the ``h/2`` atoms of a model into a matching, classifying each
    pair as node or edge by where its first id lives. Every program gives a
    first-graph id at most one partner, so a second one is a mismatch."""
    node_map: dict[str, str] = {}
    edge_map: dict[str, str] = {}
    pairs: dict[str, Fact] = {}
    for fact in ans.atoms_named("h"):
        if len(fact.args) != 2:
            raise DecodeMismatchError(f"unexpected pairing atom {fact.render()}")
        x, y = fact.args
        if x in pairs:
            raise DecodeMismatchError(
                f"{x!r} is paired twice: {pairs[x].render()} and {fact.render()}"
            )
        pairs[x] = fact
        if x in g1.nodes:
            if y not in g2.nodes:
                raise UnknownIdError(f"pairing atom maps node {x!r} to unknown {y!r}")
            node_map[x] = y
        elif x in g1.edges:
            if y not in g2.edges:
                raise UnknownIdError(f"pairing atom maps edge {x!r} to unknown {y!r}")
            edge_map[x] = y
        else:
            raise UnknownIdError(f"pairing atom mentions unknown id {x!r}")
    return Matching(node_map, edge_map)


_SCRIPT_PREDS = {
    "delete_node": (DeleteNode, 1),
    "delete_edge": (DeleteEdge, 1),
    "delete_prop": (DeleteProp, 2),
    "insert_node": (InsertNode, 2),
    "insert_edge": (InsertEdge, 4),
    "insert_prop": (InsertProp, 3),
    "update_prop": (UpdateProp, 4),
    "relabel_node": (RelabelNode, 2),
    "relabel_edge": (RelabelEdge, 2),
}


def decode_edit_script(
    ans: AnswerSet,
    g1: PropertyGraph,
    g2: PropertyGraph,
    mode: str = MODE_LABEL_HARD,
    cm: CostModel | None = None,
) -> tuple[list, int]:
    """Rebuild the canonical edit script from an edit-distance model.

    The script determined by the model's matching must agree with the
    model's own edit atoms (when the program emits them) and with the
    reported cost; applying it to ``g1`` must give ``g2`` up to renaming
    matched ids. Any disagreement raises ``DecodeMismatchError``.
    """
    answered = (SolverStatus.SAT, SolverStatus.OPTIMUM, SolverStatus.TIMEOUT)
    if not ans.found or ans.status not in answered:
        raise DecodeMismatchError(f"no model to decode (status {ans.status.value})")
    cm = cm or CostModel.unit()
    h = decode_matching(ans, g1, g2)
    script, cost = script_from_matching(h, g1, g2, mode, cm)

    atom_ops = []
    matched_from = {y: x for x, y in h.id_map().items()}
    for fact in ans.atoms:
        spec = _SCRIPT_PREDS.get(fact.pred)
        if spec is None:
            continue
        cls, arity = spec
        args = fact.args
        if len(args) != arity:
            raise DecodeMismatchError(
                f"edit atom {fact.render()} has {len(args)} arguments, {fact.pred} takes {arity}"
            )
        if fact.pred == "insert_edge":
            e, s, t, lab = args
            if s not in g2.nodes or t not in g2.nodes:
                raise DecodeMismatchError(f"edit atom {fact.render()} names a node g2 does not have")
            atom_ops.append(InsertEdge(e, matched_from.get(s, s), matched_from.get(t, t), lab))
        elif fact.pred == "insert_prop":
            y, k, d = args
            if y not in g2.nodes and y not in g2.edges:
                raise DecodeMismatchError(f"edit atom {fact.render()} names an element g2 does not have")
            atom_ops.append(InsertProp(matched_from.get(y, y), k, d))
        elif fact.pred == "update_prop":
            x, k, v1, v2 = args
            held = g1.props.get((x, k))
            if held != v1:
                holds = "no such property" if held is None else repr(held)
                raise DecodeMismatchError(f"edit atom {fact.render()} updates {v1!r}; g1 holds {holds}")
            atom_ops.append(UpdateProp(x, k, v2))
        else:
            atom_ops.append(cls(*args))
    if atom_ops:
        atom_ops.sort(key=op_sort_key)
        if atom_ops != script:
            raise DecodeMismatchError(
                "model edit atoms disagree with the script its matching determines"
            )
    if ans.costs is not None and sum(ans.costs) != cost:
        raise DecodeMismatchError(
            f"solver cost {sum(ans.costs)} differs from script cost {cost}"
        )
    edited = apply_script(g1, script)
    if rename_graph(edited, h.id_map()) != g2:
        raise DecodeMismatchError("applying the decoded script does not produce the target")
    return script, cost
