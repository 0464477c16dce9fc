"""File formats: groupoid definition text, JSON payloads for states,
algebra elements, history sets and operator dumps.

The groupoid format is deliberately line-oriented so every diagnostic
can name the exact line it comes from:

    # comment
    objects: alive dead
    transition: a alive alive unit
    transition: f alive dead
    transition: g dead alive
    transition: d dead dead unit
    inverse: f g
    inverse: a a
    compose: a a a
    compose: g f a
    ...

Transition ids are free-form tokens mapped to dense integers in
declaration order; that declaration order is the basis order used
everywhere downstream.  A loop flagged ``unit`` is its object's unit.
"""

from __future__ import annotations

import json
from importlib.resources import files
from typing import Any, Iterable, Sequence

import numpy as np

from .algebra import FUNDAMENTAL, LEFT_REGULAR, AlgebraElement, Operator
from .groupoid import Groupoid, validate
from .states import StateFn, pure_state, state_from_density, state_from_phi

__all__ = [
    "FormatError",
    "parse_groupoid_text",
    "load_groupoid",
    "dump_groupoid_text",
    "save_groupoid",
    "load_state",
    "dump_state",
    "load_element",
    "dump_element",
    "load_history_sets",
    "dump_history_sets",
    "dump_operator",
    "load_operator",
    "read_json",
    "parse_complex_matrix",
    "fixture_path",
]

REPRESENTATIONS = (LEFT_REGULAR, FUNDAMENTAL)


def fixture_path(name: str) -> str:
    """Absolute path of a bundled fixture file."""
    return str(files("groupoidqm").joinpath("fixtures", name))


class FormatError(Exception):
    """One or more problems in an input file, each tied to a location."""

    def __init__(self, origin: str, problems: Sequence[str]):
        self.origin = origin
        self.problems = list(problems)
        super().__init__(f"{origin}: " + "; ".join(self.problems))

    def pretty(self) -> str:
        lines = [f"{self.origin}:"]
        lines += [f"  {p}" for p in self.problems]
        return "\n".join(lines)


# -- groupoid text format --------------------------------------------------


def parse_groupoid_text(text: str, origin: str = "<string>", check: bool = True) -> Groupoid:
    """Parse and (optionally) axiom-check a groupoid definition.

    Structural problems and, when ``check`` is set, axiom violations are
    all collected and raised together as one FormatError.
    """
    problems: list[str] = []
    object_labels: list[str] = []
    objects_line: int | None = None
    trans_names: list[str] = []
    trans_lines: dict[str, int] = {}
    trans_decl: list[tuple[int, str, str, str, bool]] = []  # line, name, src, tgt, unit
    inverse_decl: list[tuple[int, str, str]] = []
    compose_decl: list[tuple[int, str, str, str]] = []

    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            problems.append(f"line {ln}: expected 'keyword: ...', got {raw.strip()!r}")
            continue
        key, rest = line.split(":", 1)
        key = key.strip()
        tokens = rest.split()
        if key == "objects":
            if objects_line is not None:
                problems.append(f"line {ln}: duplicate objects declaration (first on line {objects_line})")
                continue
            if not tokens:
                problems.append(f"line {ln}: objects declaration is empty")
            if len(set(tokens)) != len(tokens):
                problems.append(f"line {ln}: duplicate object labels")
            objects_line = ln
            object_labels = tokens
        elif key == "transition":
            if len(tokens) not in (3, 4) or (len(tokens) == 4 and tokens[3] != "unit"):
                problems.append(f"line {ln}: expected 'transition: <id> <source> <target> [unit]'")
                continue
            name = tokens[0]
            if name in trans_lines:
                problems.append(f"line {ln}: duplicate transition id {name!r} (first on line {trans_lines[name]})")
                continue
            trans_lines[name] = ln
            trans_names.append(name)
            trans_decl.append((ln, name, tokens[1], tokens[2], len(tokens) == 4))
        elif key == "inverse":
            if len(tokens) != 2:
                problems.append(f"line {ln}: expected 'inverse: <id> <id>'")
                continue
            inverse_decl.append((ln, tokens[0], tokens[1]))
        elif key == "compose":
            if len(tokens) != 3:
                problems.append(f"line {ln}: expected 'compose: <first> <second> <result>'")
                continue
            compose_decl.append((ln, tokens[0], tokens[1], tokens[2]))
        else:
            problems.append(f"line {ln}: unknown keyword {key!r}")

    if objects_line is None:
        problems.append("missing 'objects:' declaration")
    if problems:
        raise FormatError(origin, problems)

    obj_index = {lab: i for i, lab in enumerate(object_labels)}
    tr_index = {name: i for i, name in enumerate(trans_names)}

    source = [0] * len(trans_names)
    target = [0] * len(trans_names)
    unit_of: dict[int, int] = {}
    for ln, name, src, tgt, is_unit in trans_decl:
        i = tr_index[name]
        if src not in obj_index:
            problems.append(f"line {ln}: unknown source object {src!r}")
            continue
        if tgt not in obj_index:
            problems.append(f"line {ln}: unknown target object {tgt!r}")
            continue
        source[i] = obj_index[src]
        target[i] = obj_index[tgt]
        if is_unit:
            if src != tgt:
                problems.append(f"line {ln}: unit flag on a non-loop transition")
            elif obj_index[src] in unit_of:
                problems.append(f"line {ln}: object {src!r} already has a unit")
            else:
                unit_of[obj_index[src]] = i

    inverse = [-1] * len(trans_names)
    for ln, a, b in inverse_decl:
        missing = [n for n in (a, b) if n not in tr_index]
        if missing:
            problems.append(f"line {ln}: unknown transition id {missing[0]!r}")
            continue
        for x, y in ((tr_index[a], tr_index[b]), (tr_index[b], tr_index[a])):
            if inverse[x] not in (-1, y):
                problems.append(f"line {ln}: conflicting inverse for {trans_names[x]!r}")
            inverse[x] = y
    for i, inv in enumerate(inverse):
        if inv == -1:
            problems.append(
                f"line {trans_lines[trans_names[i]]}: transition {trans_names[i]!r} has no declared inverse"
            )

    composition: dict[tuple[int, int], int] = {}
    compose_lines: dict[tuple[int, int], int] = {}
    for ln, a, b, c in compose_decl:
        missing = [n for n in (a, b, c) if n not in tr_index]
        if missing:
            problems.append(f"line {ln}: unknown transition id {missing[0]!r}")
            continue
        key = (tr_index[a], tr_index[b])
        if key in composition and composition[key] != tr_index[c]:
            problems.append(
                f"line {ln}: conflicting composition for ({a!r}, {b!r}) (first on line {compose_lines[key]})"
            )
            continue
        composition[key] = tr_index[c]
        compose_lines.setdefault(key, ln)

    if problems:
        raise FormatError(origin, problems)

    g = Groupoid(object_labels, source, target, unit_of, inverse, composition)
    if check:
        report = validate(g)
        if not report.is_valid:
            object_kinds = ("missing-unit", "bad-unit", "duplicate-unit", "empty-groupoid")
            for v in report.violations:
                if v.kind in object_kinds:
                    loc = f" (see line {objects_line})"
                elif len(v.subject) >= 2 and (v.subject[0], v.subject[1]) in compose_lines:
                    loc = f" (see line {compose_lines[(v.subject[0], v.subject[1])]})"
                elif v.subject and 0 <= v.subject[0] < len(trans_names):
                    loc = f" (see line {trans_lines[trans_names[v.subject[0]]]})"
                else:
                    loc = ""
                subject = tuple(
                    trans_names[s] if v.kind not in object_kinds and 0 <= s < len(trans_names) else s
                    for s in v.subject
                )
                problems.append(f"[{v.kind}] {subject}: {v.message}{loc}")
            raise FormatError(origin, problems)
    return g


def load_groupoid(path: str, check: bool = True) -> Groupoid:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return parse_groupoid_text(text, origin=path, check=check)


def dump_groupoid_text(g: Groupoid, names: Sequence[str] | None = None) -> str:
    """Canonical text form; transitions are named t0, t1, ... by default."""
    if names is None:
        names = [f"t{i}" for i in range(g.n_transitions)]
    for lab in g.object_labels:
        if not lab or any(ch.isspace() for ch in lab) or "#" in lab:
            raise ValueError(f"object label {lab!r} cannot be written to the text format")
    lines = [f"objects: {' '.join(g.object_labels)}"]
    units = set(g.unit_of.values())
    for i in range(g.n_transitions):
        flag = " unit" if i in units and g.unit_of.get(g.source[i]) == i else ""
        lines.append(f"transition: {names[i]} {g.label(g.source[i])} {g.label(g.target[i])}{flag}")
    for i in range(g.n_transitions):
        j = g.inverse(i)
        if i <= j:
            lines.append(f"inverse: {names[i]} {names[j]}")
    for a, b in np.argwhere(g.table >= 0).tolist():
        lines.append(f"compose: {names[a]} {names[b]} {names[g.table[a, b]]}")
    return "\n".join(lines) + "\n"


def save_groupoid(g: Groupoid, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_groupoid_text(g))


# -- JSON payloads ----------------------------------------------------------


def read_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as e:
        raise FormatError(path, [f"line {e.lineno}: invalid JSON: {e.msg}"]) from None


def parse_complex_matrix(raw: Any, origin: str, what: str) -> np.ndarray:
    """Decode a vector or square matrix stored as nested [re, im] pairs."""
    try:
        arr = np.asarray(raw, dtype=float)
    except (TypeError, ValueError):
        raise FormatError(origin, [f"{what}: entries must be [re, im] pairs"]) from None
    if arr.ndim == 2 and arr.shape[1] == 2:
        return arr[:, 0] + 1j * arr[:, 1]
    if arr.ndim != 3 or arr.shape[2] != 2 or arr.shape[0] != arr.shape[1]:
        raise FormatError(origin, [f"{what}: expected [re, im] pairs forming a vector or square matrix"])
    return arr[..., 0] + 1j * arr[..., 1]


def _matrix_payload(m: np.ndarray) -> list:
    arr = np.asarray(m, dtype=complex)
    if arr.ndim == 1:
        return [[float(v.real), float(v.imag)] for v in arr]
    return [[[float(v.real), float(v.imag)] for v in row] for row in arr]


def _terms_payload(a: AlgebraElement) -> list[dict]:
    return [
        {"transition_id": int(t), "re": float(c.real), "im": float(c.imag)}
        for t, c in a.items()
    ]


def _parse_terms(raw: Any, origin: str) -> dict[int, complex]:
    if not isinstance(raw, list):
        raise FormatError(origin, ["terms must be a list of {transition_id, re, im}"])
    out: dict[int, complex] = {}
    for k, item in enumerate(raw):
        if not isinstance(item, dict) or "transition_id" not in item:
            raise FormatError(origin, [f"term {k}: expected {{transition_id, re, im}}"])
        t, re, im = item["transition_id"], item.get("re", 0.0), item.get("im", 0.0)
        if not isinstance(t, int) or isinstance(t, bool):
            raise FormatError(origin, [f"term {k}: transition_id must be an integer, got {t!r}"])
        if not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in (re, im)):
            raise FormatError(origin, [f"term {k}: re and im must be real numbers, got {re!r}, {im!r}"])
        if t in out:
            raise FormatError(origin, [f"term {k}: duplicate transition_id {t}"])
        out[t] = complex(re, im)
    return out


def load_state(path: str, g: Groupoid) -> StateFn:
    obj = read_json(path)
    if not isinstance(obj, dict):
        raise FormatError(path, ["state file must be a JSON object"])
    if "vector" in obj or "density" in obj:
        rep = obj.get("rep", LEFT_REGULAR)
        if rep not in REPRESENTATIONS:
            raise FormatError(path, [f"unknown representation {rep!r}"])
        if "vector" in obj:
            vec = parse_complex_matrix(obj["vector"], path, "vector")
            if vec.ndim != 1:
                raise FormatError(path, ["vector must be a flat list of [re, im] pairs"])
            return pure_state(vec, g, rep)
        rho = parse_complex_matrix(obj["density"], path, "density")
        return state_from_density(rho, g, rep)
    if "phi" in obj:
        terms = _parse_terms(obj["phi"], path)
        return state_from_phi(terms, g)
    raise FormatError(path, ["state file needs a 'vector', 'density' or 'phi' field"])


def dump_state(s: StateFn) -> dict:
    if s.vector is not None:
        return {"rep": s.rep, "vector": _matrix_payload(s.vector)}
    if s.density is not None:
        return {"rep": s.rep, "density": _matrix_payload(s.density)}
    return {"phi": _terms_payload(AlgebraElement(s.phi))}


def load_element(path: str) -> AlgebraElement:
    obj = read_json(path)
    if isinstance(obj, dict) and "terms" in obj:
        obj = obj["terms"]
    return AlgebraElement(_parse_terms(obj, path))


def dump_element(a: AlgebraElement) -> dict:
    return {"terms": _terms_payload(a)}


def load_history_sets(path: str) -> list[tuple[str, frozenset[int]]]:
    obj = read_json(path)
    if isinstance(obj, dict) and "sets" in obj:
        obj = obj["sets"]
    if not isinstance(obj, list):
        raise FormatError(path, ["history sets file must be a list"])
    out: list[tuple[str, frozenset[int]]] = []
    seen: set[str] = set()
    for k, item in enumerate(obj):
        if isinstance(item, dict):
            name = str(item.get("name", f"S{k}"))
            ids = item.get("transitions")
        else:
            name, ids = f"S{k}", item
        if not isinstance(ids, list) or not all(isinstance(i, int) and not isinstance(i, bool) for i in ids):
            raise FormatError(path, [f"set {k}: transitions must be a list of integer ids"])
        if name in seen:
            raise FormatError(path, [f"set {k}: duplicate name {name!r}"])
        seen.add(name)
        out.append((name, frozenset(ids)))
    return out


def dump_history_sets(sets: Iterable[tuple[str, Iterable[int]]]) -> dict:
    return {"sets": [{"name": n, "transitions": sorted(int(i) for i in ids)} for n, ids in sets]}


def dump_operator(op: Operator) -> dict:
    """Row-major complex matrix dump with a {rep, dim} header."""
    return {"rep": op.rep, "dim": op.dim, "matrix": _matrix_payload(op.matrix)}


def load_operator(path: str) -> Operator:
    obj = read_json(path)
    if not isinstance(obj, dict) or "matrix" not in obj:
        raise FormatError(path, ["operator file needs a 'matrix' field"])
    rep = obj.get("rep", LEFT_REGULAR)
    if rep not in REPRESENTATIONS:
        raise FormatError(path, [f"unknown representation {rep!r}"])
    m = parse_complex_matrix(obj["matrix"], path, "matrix")
    dim = obj.get("dim", m.shape[0])
    if not isinstance(dim, int) or isinstance(dim, bool):
        raise FormatError(path, [f"dim must be an integer, got {dim!r}"])
    if dim != m.shape[0]:
        raise FormatError(path, ["declared dim does not match the matrix"])
    return Operator(rep, m)
