"""Time the group generators, `group_groupoid`, `validate` and the character tables in two checkouts.

    python3 scripts/ladder_groups.py OLD NEW

OLD and NEW are checkout roots, each with ``src/groupoidqm``.  Both are
loaded into one process, with BLAS pinned to one thread, and their calls
alternate, each side first in every other round, so neither side pays for
running second; every figure is the fastest of ``--repeats`` calls.  The
rows:

- ``symmetric_group(n)`` for n = 3…6, ``cyclic_group(n)`` for n = 12, 60
  and 240, and ``discrete_groupoid(n)`` for n = 64 and 512;
- ``group_groupoid`` on the tables of S4 and S5, built here one product at
  a time and relabelled by a seeded permutation;
- ``validate`` on ``pair_groupoid(12)``, ``pair_groupoid(20)`` and S5;
- every isotropy character table and ``character_diagonalization`` of Z4,
  Z6, Z2², Z2×Z4, Z3², Z2³ and Z2 ⊔ Z3 ⊔ Z4.

Each row says whether the two sides agree: groupoids field by field,
validation reports by their text, and characters bit for bit.  The result
is printed as one JSON object.
"""

from __future__ import annotations

import os

os.environ.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from ladder_measure import fastest_alternating, import_package  # noqa: E402


def outside_symmetric_table(n: int) -> list[list[int]]:
    """The table of S_n one product at a time ("q first, then p" is p∘q), relabelled by a permutation seeded by n."""
    perms = sorted(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    label = np.random.default_rng(n).permutation(len(perms)).tolist()
    table = [[0] * len(perms) for _ in perms]
    for p, q in itertools.product(perms, repeat=2):
        table[label[index[p]]][label[index[q]]] = label[index[tuple(p[k] for k in q)]]
    return table


def fields(g) -> list:
    """Everything ``Groupoid.__eq__`` compares, in a form two checkouts' groupoids can share."""
    arrays = (g.source, g.target, g.inverse_table, g.table)
    return [list(g.object_labels), sorted(g.unit_of.items())] + [a.tobytes() for a in arrays]


def characters(gq, g) -> list:
    """Every object's character table and the diagonalising unitary, as bytes and tuples."""
    tables = [gq.isotropy_character_table(g, x) for x in range(g.n_objects)]
    u, labels = gq.character_diagonalization(g)
    return [(t.loop_ids, t.values.tobytes(), t.exponents, t.orders) for t in tables] + [u.tobytes(), labels]


def cases(gq, outside: dict[int, list[list[int]]]):
    """(row name, call, what of its result both sides must share)."""
    for n in (3, 4, 5, 6):
        yield f"symmetric_group({n})", lambda n=n: gq.symmetric_group(n), fields
    for n in (12, 60, 240):
        yield f"cyclic_group({n})", lambda n=n: gq.cyclic_group(n), fields
    for n in (64, 512):
        yield f"discrete_groupoid({n})", lambda n=n: gq.discrete_groupoid(n), fields
    for n, table in outside.items():
        yield f"group_groupoid(outside S{n})", lambda t=table: gq.group_groupoid(t), fields
    for name, g in (("pair(12)", gq.pair_groupoid(12)), ("pair(20)", gq.pair_groupoid(20)),
                    ("S5", gq.symmetric_group(5))):
        yield f"validate({name})", lambda g=g: gq.validate(g), str
    z = gq.cyclic_group
    groups = {
        "Z4": z(4), "Z6": z(6), "Z2^2": gq.direct_product(z(2), z(2)), "Z2xZ4": gq.direct_product(z(2), z(4)),
        "Z3^2": gq.direct_product(z(3), z(3)), "Z2^3": gq.direct_product(gq.direct_product(z(2), z(2)), z(2)),
        "Z2+Z3+Z4": gq.disjoint_union([z(2), z(3), z(4)]),
    }
    for name, g in groups.items():
        yield f"characters({name})", lambda g=g: characters(gq, g), lambda x: x


def compare(old_root: Path, new_root: Path, repeats: int) -> dict:
    """Per row: both sides' fastest of ``repeats`` alternating calls, and whether their results agree."""
    old, new = import_package(old_root), import_package(new_root)
    outside = {n: outside_symmetric_table(n) for n in (4, 5)}
    result = {}
    for (name, call_old, key), (_, call_new, _) in zip(cases(old, outside), cases(new, outside)):
        best = fastest_alternating((call_old, call_new), repeats)
        result[name] = {"old_s": best[0], "new_s": best[1], "same": key(call_old()) == key(call_new())}
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--repeats", type=int, default=5, help="timed calls per side and row (default 5)")
    args = parser.parse_args(argv)
    print(json.dumps(compare(args.old, args.new, args.repeats), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
