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

import cmath
import itertools
import json
from importlib.resources import files
from json.encoder import encode_basestring_ascii
from typing import Any, Iterable, Sequence

import numpy as np

from .algebra import FUNDAMENTAL, LEFT_REGULAR, AlgebraElement, Operator, _rep_dim
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
    "dump_json",
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


def _ids(index: dict[str, int], names: Iterable[str], count: int) -> np.ndarray:
    """The ids of ``names`` under ``index`` as one array; -1 marks an unknown name."""
    return np.fromiter(map(index.get, names, itertools.repeat(-1)), np.intp, count)


def parse_groupoid_text(text: str, origin: str = "<string>", check: bool = True) -> Groupoid:
    """Parse and (optionally) axiom-check a groupoid definition.

    Structural problems and, when ``check`` is set, axiom violations are all collected and raised
    together as one FormatError, each naming its line.  The line loop only splits lines and collects
    tokens; endpoints, units, inverses and compositions are then resolved to ids as arrays, the
    composition table is written in one assignment, and the map from a pair to its line is built
    only when validation fails.
    """
    problems: list[str] = []
    object_labels: list[str] = []
    objects_line: int | None = None
    trans_lines: dict[str, int] = {}  # id -> line of every kept transition, in declaration order
    trans_tokens: list[list[str]] = []
    inverse_lines: list[int] = []
    inverse_ids: list[str] = []  # both ids of every inverse line, flat
    compose_lines: list[int] = []
    compose_ids: list[str] = []  # first, second, result of every compose line, flat

    for ln, raw in enumerate(text.splitlines(), start=1):
        key, colon, rest = raw.partition("#")[0].partition(":")
        if not colon:
            if key.strip():
                problems.append(f"line {ln}: expected 'keyword: ...', got {raw.strip()!r}")
            continue
        key = key.strip()
        tokens = rest.split()
        if key == "compose":
            if len(tokens) != 3:
                problems.append(f"line {ln}: expected 'compose: <first> <second> <result>'")
                continue
            compose_lines.append(ln)
            compose_ids += tokens
        elif key == "objects":
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
            trans_tokens.append(tokens)
        elif key == "inverse":
            if len(tokens) != 2:
                problems.append(f"line {ln}: expected 'inverse: <id> <id>'")
                continue
            inverse_lines.append(ln)
            inverse_ids += tokens
        else:
            problems.append(f"line {ln}: unknown keyword {key!r}")

    if objects_line is None:
        problems.append("missing 'objects:' declaration")
    if problems:
        raise FormatError(origin, problems)

    n = len(trans_tokens)
    trans_names = list(trans_lines)
    decl_lines = list(trans_lines.values())
    obj_index = {lab: i for i, lab in enumerate(object_labels)}
    tr_index = {name: i for i, name in enumerate(trans_names)}

    # endpoints and units; a declaration reports its first problem only
    source = _ids(obj_index, [t[1] for t in trans_tokens], n)
    target = _ids(obj_index, [t[2] for t in trans_tokens], n)
    flagged = np.fromiter(map(len, trans_tokens), np.intp, n) == 4
    units = np.flatnonzero((source >= 0) & (target >= 0) & flagged & (source == target))
    first = np.full(len(object_labels), n)
    np.minimum.at(first, source[units], units)  # each object's first flagged loop is its unit
    keep = np.sort(first[first < n])  # in declaration order
    unit_of = dict(zip(source[keep].tolist(), keep.tolist()))
    bad = (source < 0) | (target < 0) | (flagged & (source != target))
    bad[units] = True  # a loop flagged after its object's unit
    bad[keep] = False
    for i in np.flatnonzero(bad).tolist():
        ln, (_, src, tgt) = decl_lines[i], trans_tokens[i][:3]
        if source[i] < 0:
            problems.append(f"line {ln}: unknown source object {src!r}")
        elif target[i] < 0:
            problems.append(f"line {ln}: unknown target object {tgt!r}")
        elif source[i] != target[i]:
            problems.append(f"line {ln}: unit flag on a non-loop transition")
        else:
            problems.append(f"line {ln}: object {src!r} already has a unit")

    # inverses: assignment 2k sets a -> b for declaration k, 2k + 1 sets b -> a; one that changes an inverse conflicts
    pairs = _ids(tr_index, inverse_ids, len(inverse_ids)).reshape(-1, 2)
    unknown = (pairs < 0).any(axis=1)
    x, y = np.where(unknown[:, None], n, pairs).ravel(), pairs[:, ::-1].ravel()  # n stands for no assignment
    order = np.argsort(x, kind="stable")
    changed = np.zeros(x.size, dtype=bool)
    changed[order[1:]] = (x[order[1:]] == x[order[:-1]]) & (y[order[1:]] != y[order[:-1]]) & (x[order[1:]] < n)
    changed[::2] |= unknown
    inverse = np.full(n + 1, -1, dtype=np.intp)
    inverse[x] = y  # unambiguous unless a conflict is reported
    for j in np.flatnonzero(changed).tolist():
        ln, (a, b) = inverse_lines[j // 2], inverse_ids[j - j % 2:j - j % 2 + 2]
        if unknown[j // 2]:
            problems.append(f"line {ln}: unknown transition id {a if a not in tr_index else b!r}")
        else:
            problems.append(f"line {ln}: conflicting inverse for {trans_names[x[j]]!r}")
    for i in np.flatnonzero(inverse[:n] < 0).tolist():
        problems.append(f"line {decl_lines[i]}: transition {trans_names[i]!r} has no declared inverse")

    # every compose line as one row (first, second, result) of ids; -1 is an unknown id
    rows = _ids(tr_index, compose_ids, len(compose_ids)).reshape(-1, 3)
    unknown = (rows < 0).any(axis=1)
    # the first line naming each known (first, second) pair fixes its result; a later different one conflicts
    key = np.where(unknown, -1, rows[:, 0] * n + rows[:, 1])
    order = np.argsort(key, kind="stable")
    opens = np.diff(key[order], prepend=-2) != 0
    first = np.empty_like(order)
    first[order] = order[opens][np.cumsum(opens) - 1]
    conflict = ~unknown & (rows[first, 2] != rows[:, 2])
    for k in np.flatnonzero(unknown | conflict).tolist():
        ln, (a, b, c) = compose_lines[k], compose_ids[3 * k:3 * k + 3]
        if unknown[k]:
            problems.append(f"line {ln}: unknown transition id {next(t for t in (a, b, c) if t not in tr_index)!r}")
        else:
            first_ln = compose_lines[first[k]]
            problems.append(f"line {ln}: conflicting composition for ({a!r}, {b!r}) (first on line {first_ln})")

    if problems:
        raise FormatError(origin, problems)

    table = np.full((n, n), -1, dtype=np.intp)
    table[rows[:, 0], rows[:, 1]] = rows[:, 2]
    g = Groupoid(object_labels, source, target, unit_of, inverse[:n], table)
    if check:
        report = validate(g)
        if not report.is_valid:
            pair_lines: dict[tuple[int, int], int] = {}
            for ln, (a, b, _) in zip(compose_lines, rows.tolist()):
                pair_lines.setdefault((a, b), ln)
            object_kinds = ("missing-unit", "bad-unit", "duplicate-unit", "empty-groupoid")
            for v in report.violations:
                if v.kind in object_kinds:
                    loc = f" (see line {objects_line})"
                elif len(v.subject) >= 2 and (v.subject[0], v.subject[1]) in pair_lines:
                    loc = f" (see line {pair_lines[(v.subject[0], v.subject[1])]})"
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
    except ValueError as e:  # an integer literal past the interpreter's digit limit, or undecodable bytes
        raise FormatError(path, [f"invalid JSON: {e}"]) from None


def _scalar_json(v: Any) -> str:
    if isinstance(v, str):
        return encode_basestring_ascii(v)
    if v is None or isinstance(v, bool):
        return "null" if v is None else "true" if v else "false"
    if isinstance(v, int):
        return int.__repr__(v)
    if isinstance(v, float):
        return float.__repr__(v) if v - v == 0.0 else "NaN" if v != v else "Infinity" if v > 0 else "-Infinity"
    raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")


def dump_json(value: Any, indent: str = "") -> str:
    """``json.dumps(value, sort_keys=True, indent=2)``, byte for byte, without json's pure-Python encoder.

    Strings go through json's C escaper and floats through ``float.__repr__``, as json writes them.
    """
    inner = indent + "  "
    if isinstance(value, dict):
        brackets = "{}"
        items = [f"{encode_basestring_ascii(k if isinstance(k, str) else _scalar_json(k))}: {dump_json(v, inner)}"
                 for k, v in sorted(value.items())]
    elif isinstance(value, (list, tuple)):
        brackets, items = "[]", [dump_json(v, inner) for v in value]
    else:
        return _scalar_json(value)
    return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}{brackets[1]}" if items else brackets


def parse_complex_matrix(raw: Any, origin: str, what: str) -> np.ndarray:
    """Decode a vector or square matrix stored as nested [re, im] pairs."""
    try:
        arr = np.asarray(raw, dtype=float)
    except (TypeError, ValueError):
        raise FormatError(origin, [f"{what}: entries must be [re, im] pairs"]) from None
    except OverflowError:  # an integer beyond the float range reads as infinite, which the check below names
        arr = np.asarray(json.loads(json.dumps(raw), parse_int=float), dtype=float)
    # a vector is (n, 2), a square matrix (n, n, 2)
    if not (arr.ndim in (2, 3) and arr.shape[-1] == 2 and arr.shape[0] == arr.shape[arr.ndim - 2]):
        raise FormatError(origin, [f"{what}: expected [re, im] pairs forming a vector or square matrix"])
    bad = np.argwhere(~np.isfinite(arr).all(axis=-1))
    if bad.size:
        raise FormatError(origin, [f"{what}{''.join(f'[{i}]' for i in bad[0])} is not finite"])
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


def _parse_terms(raw: Any, origin: str, g: Groupoid | None = None) -> dict[int, complex]:
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
        try:
            value = complex(re, im)
        except OverflowError:
            raise FormatError(origin, [f"term {k}: transition {t} has a value too large for a float"]) from None
        if not cmath.isfinite(value):
            raise FormatError(origin, [f"term {k}: transition {t} has a non-finite value, re {re!r}, im {im!r}"])
        if t in out:
            raise FormatError(origin, [f"term {k}: duplicate transition_id {t}"])
        out[t] = value
    if g is not None and (bad := [(k, t) for k, t in enumerate(out) if not 0 <= t < g.n_transitions]):
        raise FormatError(origin, [f"term {bad[0][0]}: transition id {bad[0][1]} does not belong to this groupoid"])
    return out


def load_state(path: str, g: Groupoid) -> StateFn:
    obj = read_json(path)
    if not isinstance(obj, dict):
        raise FormatError(path, ["state file must be a JSON object"])
    if "vector" in obj or "density" in obj:
        rep = obj.get("rep", LEFT_REGULAR)
        if rep not in REPRESENTATIONS:
            raise FormatError(path, [f"unknown representation {rep!r}"])
        what = "vector" if "vector" in obj else "density"
        m = parse_complex_matrix(obj[what], path, what)
        need = (_rep_dim(g, rep),) * (1 if what == "vector" else 2)
        if m.shape != need:  # a vector needs one entry per basis element of the representation, a density d × d
            raise FormatError(path, [f"{what} has shape {m.shape}, but the {rep} representation needs {need}"])
        return pure_state(m, g, rep) if m.ndim == 1 else state_from_density(m, g, rep)
    if "phi" in obj:
        return state_from_phi(_parse_terms(obj["phi"], path, g), g)
    raise FormatError(path, ["state file needs a 'vector', 'density' or 'phi' field"])


def dump_state(s: StateFn) -> dict:
    if s.vector is not None:
        return {"rep": s.rep, "vector": _matrix_payload(s.vector)}
    if s.density is not None:
        return {"rep": s.rep, "density": _matrix_payload(s.density)}
    return {"phi": _terms_payload(AlgebraElement(s.phi))}


def load_element(path: str) -> AlgebraElement:
    return _element_from_json(read_json(path), path)


def _element_from_json(obj: Any, path: str, g: Groupoid | None = None) -> AlgebraElement:
    """The element in an element file's parsed JSON, its ids checked against ``g`` if given; errors name ``path``."""
    if isinstance(obj, dict) and "terms" in obj:
        obj = obj["terms"]
    return AlgebraElement(_parse_terms(obj, path, g))


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
