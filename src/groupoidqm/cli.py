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
import itertools
import json
import os
import sys
from typing import Any

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
    load_element,
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
from .states import decoherence_functional, interference, quantum_measure

__all__ = ["main"]


def _emit(args: argparse.Namespace, payload: dict, text: str) -> None:
    if args.format == "structured":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print(text)


def _grid_flag(raw: str) -> tuple[float, float, int]:
    parts = raw.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("grid must look like start:stop:steps")
    try:
        return float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise argparse.ArgumentTypeError("grid must look like start:stop:steps") from None


def _bipartition_flag(raw: str) -> tuple[int, int]:
    parts = raw.split(":")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("bipartition must look like dimA:dimB")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError("bipartition must look like dimA:dimB") from None


# -- subcommands -------------------------------------------------------------


def cmd_validate(args: argparse.Namespace) -> int:
    try:
        g = load_groupoid(args.path, check=True)
    except FormatError as e:
        _emit(args, {"valid": False, "problems": e.problems}, e.pretty())
        return 1
    payload = {"valid": True, "objects": g.n_objects, "transitions": g.n_transitions}
    _emit(args, payload, f"OK: {g.n_objects} objects, {g.n_transitions} transitions")
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
    _emit(args, payload, "\n".join(lines))
    return 0


def cmd_lattice(args: argparse.Namespace) -> int:
    g = load_groupoid(args.path, check=True)
    props = canonical_propositions(g, samples=args.samples, seed=args.seed)
    report = check_boolean(props, tol=args.tol)
    rows = [
        {"law": v.law, "operands": [props[i].label or f"#{i}" for i in v.operands], "residual": v.residual}
        for v in report.violations
    ]
    payload = {
        "boolean": report.is_boolean,
        "propositions": [p.label for p in props],
        "pairs_tested": report.pairs_tested,
        "triples_tested": report.triples_tested,
        "violations": rows,
    }
    lines = [report.summary()]
    lines += ["law\toperands\tresidual"]
    lines += [f"{r['law']}\t{','.join(r['operands'])}\t{r['residual']!r}" for r in rows]
    _emit(args, payload, "\n".join(lines))
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
        "witness": None
        if verdict.witness is None
        else {
            "law": verdict.witness.law,
            "operands": [verdict.propositions[i].label or f"#{i}" for i in verdict.witness.operands],
            "residual": verdict.witness.residual,
        },
        "lattice_summary": verdict.report.summary(),
    }
    _emit(args, payload, f"classical: {str(verdict.is_classical).lower()}\n" + verdict.describe())
    return 0


def cmd_measure(args: argparse.Namespace) -> int:
    g = load_groupoid(args.path, check=True)
    state = load_state(args.state, g)
    sets = load_history_sets(args.sets)
    rows: list[dict[str, Any]] = []
    for name, ids in sets:
        rows.append({"quantity": "mu", "operands": [name], "re": quantum_measure(state, ids), "im": 0.0})
    for (na, a), (nb, b) in itertools.combinations(sets, 2):
        d = decoherence_functional(state, a, b)
        rows.append({"quantity": "D", "operands": [na, nb], "re": d.real, "im": d.imag})
        if not (a & b):
            rows.append({"quantity": "I2", "operands": [na, nb], "re": interference(state, a, b), "im": 0.0})
    for (na, a), (nb, b), (nc, c) in itertools.combinations(sets, 3):
        if not (a & b or a & c or b & c):
            rows.append(
                {"quantity": "I3", "operands": [na, nb, nc], "re": interference(state, a, b, c), "im": 0.0}
            )
    lines = ["quantity\toperands\tre\tim"]
    lines += [f"{r['quantity']}\t{','.join(r['operands'])}\t{r['re']!r}\t{r['im']!r}" for r in rows]
    _emit(args, {"rows": rows}, "\n".join(lines))
    return 0


def cmd_evolve(args: argparse.Namespace) -> int:
    g = load_groupoid(args.path, check=True)
    state = load_state(args.state, g)
    if state.rep is None or state.density is None:
        print("error: evolution needs a density-backed state file ({density, rep})", file=sys.stderr)
        return 1
    payload = read_json(args.hamiltonian)
    if isinstance(payload, dict) and "matrix" in payload:
        rep = payload.get("rep", state.rep)
        if rep != state.rep:
            print(f"error: Hamiltonian representation {rep!r} does not match the state", file=sys.stderr)
            return 1
        h = hamiltonian_from_matrix(parse_complex_matrix(payload["matrix"], args.hamiltonian, "matrix"), g, rep)
    else:
        elem = load_element(args.hamiltonian)
        h = hamiltonian_from_element(elem, g, state.rep)
    times = parse_grid(*args.grid)
    trace = evolve(h, state, times, bipartition=args.bipartition)
    rows = []
    for i, t in enumerate(trace.times):
        row: dict[str, Any] = {"t": float(t), "residual": float(trace.norm_residuals[i])}
        if trace.schmidt is not None:
            row["entropy"] = trace.schmidt[i].entropy
            row["rank"] = trace.schmidt[i].rank
        rows.append(row)
    if trace.schmidt is not None:
        lines = ["t\tentropy\trank\tresidual"]
        lines += [f"{r['t']!r}\t{r['entropy']!r}\t{r['rank']}\t{r['residual']!r}" for r in rows]
    else:
        lines = ["t\tresidual"]
        lines += [f"{r['t']!r}\t{r['residual']!r}" for r in rows]
    _emit(args, {"rows": rows}, "\n".join(lines))
    return 0


def _theorem_text(report: TheoremReport) -> str:
    lines = ["trial\tsupport\tratio\toffblock\tentropy\tonset\tok"]
    for t in report.trials:
        cells = [
            str(t.index),
            str(t.support_size),
            "" if t.max_ratio is None else repr(t.max_ratio),
            "" if t.max_offblock is None else repr(t.max_offblock),
            "" if t.max_entropy is None else repr(t.max_entropy),
            "" if t.onset_time is None else repr(t.onset_time),
            str(t.ok).lower(),
        ]
        lines.append("\t".join(cells))
    summary = (
        f"SUMMARY\tmode={report.mode}\tpassed={str(report.passed).lower()}\tvacuous={str(report.vacuous).lower()}"
        f"\tworst_ratio={report.worst_ratio!r}\tworst_offblock={report.worst_offblock!r}"
        f"\tfraction_entangled={report.fraction_entangled!r}\tmax_entropy={report.max_entropy!r}"
    )
    lines.append(summary)
    return "\n".join(lines)


def cmd_theorem(args: argparse.Namespace) -> int:
    ga = load_groupoid(args.path_a, check=True)
    gb = load_groupoid(args.path_b, check=True)
    common = dict(trials=args.trials, grid=args.grid, seed=args.seed, jobs=args.jobs)
    if is_totally_disconnected(ga):
        report = separability_theorem_check(ga, gb, **common)
    else:
        report = entanglement_counterexample(ga, gb, **common)
    _emit(args, report.to_dict(), _theorem_text(report))
    if report.mode == "separability" and not report.passed:
        return 2
    return 0


# -- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="groupoidqm",
        description="Analyze finite groupoids: validation, classicality, measures, dynamics.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "structured"), default="text")
    seeded = argparse.ArgumentParser(add_help=False, parents=[common])
    seeded.add_argument("--seed", type=int, default=42, help="random seed (default 42)")
    tuned = argparse.ArgumentParser(add_help=False, parents=[seeded])
    tuned.add_argument("--tol", type=float, default=1e-9, help="numerical tolerance override")
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
    p.add_argument("--grid", type=_grid_flag, default=DEFAULT_GRID, help="start:stop:steps")
    p.add_argument("--bipartition", type=_bipartition_flag, default=None, help="dimA:dimB")
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("theorem", parents=[seeded], help="separability check or entanglement counterexample")
    p.add_argument("path_a", help="first factor groupoid file")
    p.add_argument("path_b", help="second factor groupoid file")
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--grid", type=_grid_flag, default=DEFAULT_GRID, help="start:stop:steps")
    p.add_argument("--jobs", type=int, default=1)
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
