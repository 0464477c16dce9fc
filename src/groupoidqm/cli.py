"""Command-line front end.

Subcommands load groupoid/state files, run the library analyses and
print either human-readable text (tab-separated where tabular) or
canonical JSON (--format structured).  Structured output is fully
deterministic for a fixed configuration and seed, including across
--jobs settings.

Exit codes: 0 success, 1 validation or domain failure, 2 internal or
numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import os
import sys
from typing import Any, Callable

from .dynamics import (
    DEFAULT_GRID,
    TheoremReport,
    entanglement_counterexample,
    evolve,
    hamiltonian_from_element,
    hamiltonian_from_matrix,
    parse_grid,
    separability_theorem_check,
)
from .formats import (
    FormatError,
    _element_from_json,
    dump_json,
    load_groupoid,
    load_history_sets,
    load_state,
    parse_complex_matrix,
    read_json,
)
from .groupoid import (
    has_abelian_isotropy,
    is_totally_disconnected,
    orbit_decomposition,
)
from .lattice import canonical_propositions, check_boolean, classicality_verdict
from .states import measure_rows

__all__ = ["main"]


def _emit(args: argparse.Namespace, payload: dict, text: Callable[[], str]) -> None:
    """Print ``payload`` as canonical JSON under ``--format structured``, else what ``text`` renders."""
    print(dump_json(payload) if args.format == "structured" else text())


def _cell(v: Any) -> str:
    return "" if v is None else str(v).lower() if isinstance(v, bool) else ",".join(v) if isinstance(v, list) \
        else repr(v) if isinstance(v, float) else str(v)


def _table(header: str, rows) -> str:
    """Tab-separated text: the header, then one line per row of values (None empty, booleans in lower case,
    lists joined by commas, floats by repr)."""
    return "\n".join([header] + ["\t".join(map(_cell, row)) for row in rows])


def _grid_flag(raw: str) -> tuple[float, float, int]:
    parts = raw.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("grid must look like start:stop:steps")
    try:
        start, stop, steps = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise argparse.ArgumentTypeError("grid must look like start:stop:steps") from None
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise argparse.ArgumentTypeError(f"grid start and stop must be finite numbers, got {raw}")
    return start, stop, steps


def _checked_flag(parse: Callable[[str], Any], valid: Callable[[Any], bool], need: str) -> Callable[[str], Any]:
    """An argparse type: what ``parse`` makes of the value, rejected unless ``valid``, saying what the flag needs."""
    def flag(raw: str) -> Any:
        with contextlib.suppress(ValueError):
            if valid(value := parse(raw)):
                return value
        raise argparse.ArgumentTypeError(f"{need}, got {raw}")
    return flag


_bipartition_flag = _checked_flag(
    lambda raw: tuple(map(int, raw.split(":"))), lambda v: len(v) == 2 and min(v) > 0,
    "bipartition must look like dimA:dimB with positive dimensions")
_seed_flag = _checked_flag(int, lambda v: v >= 0, "seed must be a non-negative integer")
# every law residual and the order's ‖(I − P_j) U_i‖ is at most 1, so a tolerance of 1 or more passes every law
_tol_flag = _checked_flag(float, lambda v: 0 < v < 1, "tolerance must lie above 0 and below 1, which bounds every lattice residual")


# -- subcommands -------------------------------------------------------------


def cmd_validate(args: argparse.Namespace) -> int:
    try:
        g = load_groupoid(args.path, check=True)
    except FormatError as e:
        _emit(args, {"valid": False, "problems": e.problems}, e.pretty)
        return 1
    payload = {"valid": True, "objects": g.n_objects, "transitions": g.n_transitions}
    _emit(args, payload, lambda: f"OK: {g.n_objects} objects, {g.n_transitions} transitions")
    return 0


def cmd_info(args: argparse.Namespace) -> int:
    g = load_groupoid(args.path, check=True)
    dec = orbit_decomposition(g)
    payload = {
        "objects": list(g.object_labels),
        "transitions": g.n_transitions,
        "orbits": [[g.label(x) for x in orb] for orb in dec.orbits],
        "isotropy_orders": {g.label(x): len(dec.isotropy[x]) for x in range(g.n_objects)},
        "totally_disconnected": is_totally_disconnected(g),
        "abelian_isotropy": has_abelian_isotropy(g),
    }
    lines = [
        f"objects ({g.n_objects}): {' '.join(g.object_labels)}",
        f"transitions: {g.n_transitions}",
        "orbits: " + "; ".join(",".join(g.label(x) for x in orb) for orb in dec.orbits),
        "isotropy orders: " + " ".join(f"{g.label(x)}:{len(dec.isotropy[x])}" for x in range(g.n_objects)),
        f"totally disconnected: {is_totally_disconnected(g)}",
        f"abelian isotropy: {has_abelian_isotropy(g)}",
    ]
    _emit(args, payload, lambda: "\n".join(lines))
    return 0


def _violation(v, labels) -> dict:
    row = {"law": v.law, "operands": [labels[i] or f"#{i}" for i in v.operands], "residual": v.residual}
    return row if v.angle is None else {**row, "angle": v.angle}


def cmd_lattice(args: argparse.Namespace) -> int:
    g = load_groupoid(args.path, check=True)
    props = canonical_propositions(g, samples=args.samples, seed=args.seed)
    report = check_boolean(props, tol=args.tol)
    labels = [p.label for p in props]
    rows = [_violation(v, labels) for v in report.violations]
    payload = {
        "boolean": report.is_boolean,
        "propositions": labels,
        "pairs_tested": report.pairs_tested,
        "triples_tested": report.triples_tested,
        "violations": rows,
    }
    _emit(args, payload, lambda: report.summary() + "\n" + _table("law\toperands\tresidual", (list(r.values())[:3] for r in rows)))
    return 0


def cmd_classify(args: argparse.Namespace) -> int:
    g = load_groupoid(args.path, check=True)
    verdict = classicality_verdict(g, samples=args.samples, seed=args.seed, tol=args.tol)
    payload = {
        "classical": verdict.is_classical,
        "boolean_lattice": verdict.boolean_lattice,
        "totally_disconnected": verdict.totally_disconnected,
        "abelian_isotropy": verdict.abelian_isotropy,
        "abelian_algebra": verdict.abelian_algebra,
        "consistent": verdict.consistent,
        "pseudo_classical": verdict.pseudo_classical,
        "witness": None if verdict.witness is None else _violation(verdict.witness, verdict.propositions.labels),
        "lattice_summary": verdict.report.summary(),
        "pairs_by_support": verdict.report.pairs_by_support,
        # the family's worst self-adjointness and idempotency residuals, which certify its members
        "certification_residuals": dict(zip(("adjoint", "idempotent"), verdict.propositions.residuals.max(axis=1).tolist())),
    }
    _emit(args, payload, lambda: f"classical: {str(verdict.is_classical).lower()}\n" + verdict.describe())
    return 0


def cmd_measure(args: argparse.Namespace) -> int:
    g = load_groupoid(args.path, check=True)
    state = load_state(args.state, g)
    sets = load_history_sets(args.sets)
    for k, (name, ids) in enumerate(sets):
        if bad := sorted(t for t in ids if not 0 <= t < g.n_transitions):
            raise FormatError(args.sets, [f"set {k} ({name}): transition id {bad[0]} does not belong to this groupoid"])
    rows = [
        {"quantity": quantity, "operands": [sets[k][0] for k in operands], "re": v.real, "im": v.imag}
        for quantity, operands, v in measure_rows(state, [ids for _, ids in sets])
    ]
    _emit(args, {"rows": rows}, lambda: _table("quantity\toperands\tre\tim", (r.values() for r in rows)))
    return 0


def cmd_evolve(args: argparse.Namespace) -> int:
    g = load_groupoid(args.path, check=True)
    state = load_state(args.state, g)
    if state.rep is None or state.density is None:
        print("error: evolution needs a density-backed state file ({density, rep}) or a vector one ({vector, rep})",
              file=sys.stderr)
        return 1
    payload = read_json(args.hamiltonian)
    if isinstance(payload, dict) and "matrix" in payload:
        rep = payload.get("rep", state.rep)
        if rep != state.rep:
            print(f"error: Hamiltonian representation {rep!r} does not match the state", file=sys.stderr)
            return 1
        h = hamiltonian_from_matrix(parse_complex_matrix(payload["matrix"], args.hamiltonian, "matrix"), g, rep)
    else:
        h = hamiltonian_from_element(_element_from_json(payload, args.hamiltonian, g), g, state.rep)
    times = parse_grid(*args.grid)
    trace = evolve(h, state, times, bipartition=args.bipartition)
    rows: list[dict[str, Any]] = [{"t": float(t), "residual": float(r)} for t, r in zip(trace.times, trace.norm_residuals)]
    columns = ["t", "residual"]
    if trace.schmidt is not None:
        columns = ["t", "entropy", "rank", "residual"]
        for row, sd in zip(rows, trace.schmidt):
            row.update(entropy=sd.entropy, rank=sd.rank)
    _emit(args, {"rows": rows}, lambda: _table("\t".join(columns), ([r[c] for c in columns] for r in rows)))
    return 0


def _theorem_text(report: TheoremReport) -> str:
    trials = _table("trial\tratio\toffblock\tentropy\tonset\tok", (t.to_dict().values() for t in report.trials))
    summary = ("mode", "passed", "vacuous", "worst_ratio", "worst_offblock", "fraction_entangled", "max_entropy",
               "vacuous_reason")
    return trials + "\nSUMMARY\t" + "\t".join(f"{k}={_cell(getattr(report, k))}" for k in summary)


def cmd_theorem(args: argparse.Namespace) -> int:
    ga = load_groupoid(args.path_a, check=True)
    gb = load_groupoid(args.path_b, check=True)
    common = dict(trials=args.trials, grid=args.grid, seed=args.seed, jobs=args.jobs)
    if is_totally_disconnected(ga):
        report = separability_theorem_check(ga, gb, **common)
    else:
        report = entanglement_counterexample(ga, gb, **common)
    _emit(args, report.to_dict(), lambda: _theorem_text(report))
    if report.mode == "separability" and not report.passed:
        return 2
    return 0


# -- parser -------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing never changes it."""
    parser = argparse.ArgumentParser(
        prog="groupoidqm",
        description="Analyze finite groupoids: validation, classicality, measures, dynamics.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "structured"), default="text")
    seeded = argparse.ArgumentParser(add_help=False, parents=[common])
    seeded.add_argument("--seed", type=_seed_flag, default=42, help="random seed, at least 0 (default 42)")
    tuned = argparse.ArgumentParser(add_help=False, parents=[seeded])
    tuned.add_argument("--tol", type=_tol_flag, default=1e-9, help="numerical tolerance override, above 0 and below 1")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[common], help="check a groupoid file against all axioms")
    p.add_argument("path")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("info", parents=[common], help="summarize a groupoid file")
    p.add_argument("path")
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("lattice", parents=[tuned], help="test Boolean laws on the canonical propositions")
    p.add_argument("path")
    p.add_argument("--samples", type=int, default=5, help="random eigenprojections to include")
    p.set_defaults(func=cmd_lattice)

    p = sub.add_parser("classify", parents=[tuned], help="three-route classicality verdict")
    p.add_argument("path")
    p.add_argument("--samples", type=int, default=5)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("measure", parents=[common], help="measures and interference over history sets")
    p.add_argument("path", help="groupoid file")
    p.add_argument("--state", required=True, help="state file (density or phi)")
    p.add_argument("--sets", required=True, help="history sets file")
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("evolve", parents=[common], help="unitary evolution along a time grid")
    p.add_argument("path", help="groupoid file")
    p.add_argument("--state", required=True)
    p.add_argument("--hamiltonian", required=True, help="element or matrix file")
    p.add_argument("--grid", type=_grid_flag, default=DEFAULT_GRID, help="start:stop:steps, as --grid=-1:0:2 if negative")
    p.add_argument("--bipartition", type=_bipartition_flag, default=None, help="dimA:dimB, both at least 1")
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("theorem", parents=[seeded], help="separability check or entanglement counterexample")
    p.add_argument("path_a", help="first factor groupoid file")
    p.add_argument("path_b", help="second factor groupoid file")
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--grid", type=_grid_flag, default=DEFAULT_GRID, help="start:stop:steps, as --grid=-1:0:2 if negative")
    p.add_argument(
        "--jobs", type=int, default=1,
        help="split the trials into at least this many chunks, each evaluated as one stack; more chunks use "
        "less memory and give the same report (default 1)",
    )
    p.set_defaults(func=cmd_theorem)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # downstream consumer (e.g. `head`) closed the pipe; not an error
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except FormatError as e:
        print(e.pretty(), file=sys.stderr)
        return 1
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (RuntimeError, ArithmeticError) as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
