"""Replay the benchmark's call pools through two checkouts and compare them call by call.

    python3 scripts/replay_pools.py OLD NEW --workload all --seeds 1-16

OLD and NEW are checkout roots, each with ``src/groupoidqm``.  For each
workload and seed, the pool of ``--rounds`` rounds comes from NEW's
``bench/workloads.py`` exactly as the benchmark draws it; every call then
runs in process through OLD's ``cli.main`` and through NEW's.  Each call
is compared on its exit code, its failure tags (``check_call``), whether
its stdout is byte-identical (or equal once the top-level keys only one
side has are dropped), and, when both exit 0, the layout of the JSON
payloads (keys, order and every non-float value) and the largest
difference of each float key (``worst_differences``, nonzero ones in the
printed summary).  A line is printed for each call whose exit code, tags
or layout differ, then one summary per workload, and last the whole
summary as one JSON object.  A call fails when it carries at least one
tag; each summary counts the failed calls per side (``failed``), the
share that the benchmark's failure gate compares.  The exit status is 1
when an exit code or a failure tag differs on any call, else 0.
"""

from __future__ import annotations

import os

# the benchmark's pinning, set before numpy is imported, so both sides see its BLAS
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
os.environ.update(dict.fromkeys(THREAD_VARS, "1"))

import argparse  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

from ladder import load_package  # noqa: E402


def parse_seeds(raw: str) -> list[int]:
    """``1-16``, ``3`` or ``1,4,7-9``."""
    seeds = []
    for part in raw.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_calls(cli, calls) -> list[tuple[int, str, str]]:
    outputs = []
    for call in calls:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(list(call.argv))
            except SystemExit as e:
                code = e.code if isinstance(e.code, int) else 1
        outputs.append((code, out.getvalue(), err.getvalue()))
    return outputs


def compare_payloads(old_out: str, new_out: str) -> tuple[bool, dict[str, float]] | None:
    """(same layout, the largest difference of each float key) of two JSON payloads, or None if one is not JSON.

    The layout is every key, its order and every value that is not a float; a float in a list counts under the
    key of the list."""
    try:
        old, new = json.loads(old_out), json.loads(new_out)
    except json.JSONDecodeError:
        return None
    worst: dict[str, float] = {}

    def same(a, b, key: str) -> bool:
        if isinstance(a, float) and isinstance(b, float):
            worst[key] = max(worst.get(key, 0.0), abs(a - b))
            return True
        if isinstance(a, dict) and isinstance(b, dict):
            return list(a) == list(b) and all(same(a[k], b[k], k) for k in a)
        if isinstance(a, list) and isinstance(b, list):
            return len(a) == len(b) and all(same(x, y, key) for x, y in zip(a, b))
        return type(a) is type(b) and a == b

    return same(old, new, ""), worst


def equal_apart_from_new_keys(old_out: str, new_out: str) -> bool:
    """Whether two payloads are equal once the top-level keys that only one side has are dropped."""
    try:
        old, new = json.loads(old_out), json.loads(new_out)
    except json.JSONDecodeError:
        return False
    if isinstance(old, dict) and isinstance(new, dict):
        old, new = ({k: v for k, v in d.items() if k in old and k in new} for d in (old, new))
    return json.dumps(old) == json.dumps(new)


def replay(old_root: Path, new_root: Path, workload: str, seeds: list[int], rounds: int, workdir: Path) -> dict:
    from workloads import check_call, make_pool

    summary = {
        "calls": 0, "exit_codes_differ": 0, "tags_differ": 0, "stdout_identical": 0,
        "stdout_identical_apart_from_new_keys": 0, "layout_differs": 0, "worst_differences": {}, "tags": {"old": {}, "new": {}},
        "failed": {"old": 0, "new": 0},
    }
    for seed in seeds:
        pool = make_pool(workload, seed, rounds, workdir / f"{workload}-{seed}")
        numbered = [(r, call) for r, round_calls in enumerate(pool) for call in round_calls]
        calls = [call for _, call in numbered]
        outputs = {}
        for side, root in (("old", old_root), ("new", new_root)):
            load_package(root)  # a fresh groupoidqm from root/src, whose cli is imported next
            outputs[side] = run_calls(importlib.import_module("groupoidqm.cli"), calls)
        for k, (r, call) in enumerate(numbered):
            (old_code, old_out, _), (new_code, new_out, _) = outputs["old"][k], outputs["new"][k]
            tags = {}
            for side, (code, out, err) in (("old", outputs["old"][k]), ("new", outputs["new"][k])):
                tags[side] = [f.kind for f in check_call(call, code, out, err)]
                summary["failed"][side] += bool(tags[side])
                for tag in tags[side]:
                    summary["tags"][side][tag] = summary["tags"][side].get(tag, 0) + 1
            layout = compare_payloads(old_out, new_out) if old_code == new_code == 0 else None
            summary["calls"] += 1
            summary["exit_codes_differ"] += old_code != new_code
            summary["tags_differ"] += tags["old"] != tags["new"]
            summary["stdout_identical"] += old_out == new_out
            summary["stdout_identical_apart_from_new_keys"] += old_out == new_out or equal_apart_from_new_keys(old_out, new_out)
            if layout is not None:
                summary["layout_differs"] += not layout[0]
                if layout[0]:
                    worst = summary["worst_differences"]
                    worst.update((k, max(worst.get(k, 0.0), x)) for k, x in layout[1].items())
            if old_code != new_code or tags["old"] != tags["new"] or (layout is not None and not layout[0]):
                print(
                    f"{workload} seed {seed} round {r} "
                    f"{call.label}: exit {old_code} -> {new_code}, tags {tags['old']} -> {tags['new']}, "
                    f"layout {'same' if layout is None or layout[0] else 'differs'}"
                )
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path, help="root of the reference checkout")
    parser.add_argument("new", type=Path, help="root of the checkout under test; its bench/ draws the pools")
    parser.add_argument("--workload", default="all", choices=("classify", "interfere", "dynamics", "all"))
    parser.add_argument("--seeds", default="1-16", type=parse_seeds, help="seeds as 1-16 or 1,4,7-9 (default 1-16)")
    parser.add_argument("--rounds", type=int, default=50, help="rounds per seed's pool (default 50, as the benchmark)")
    args = parser.parse_args(argv)
    for root in (args.old, args.new):
        if not (root / "src" / "groupoidqm" / "__init__.py").is_file():
            parser.error(f"no program source at {root / 'src' / 'groupoidqm'}")
    sys.path.insert(0, str((args.new / "bench").resolve()))
    workloads = ("classify", "interfere", "dynamics") if args.workload == "all" else (args.workload,)
    result = {}
    with tempfile.TemporaryDirectory(prefix="replay-") as tmp:
        for workload in workloads:
            s = result[workload] = replay(args.old, args.new, workload, args.seeds, args.rounds, Path(tmp))
            print(
                f"{workload}: {s['calls']} calls, exit codes differ on {s['exit_codes_differ']}, "
                f"tags differ on {s['tags_differ']}, stdout identical on {s['stdout_identical']} "
                f"({s['stdout_identical_apart_from_new_keys']} apart from keys only one side has), "
                f"layout differs on {s['layout_differs']}, worst differences "
                f"{ {k: float(f'{x:.3e}') for k, x in sorted(s['worst_differences'].items()) if x} }, "
                f"tags old {s['tags']['old']} new {s['tags']['new']}, "
                f"failed old {s['failed']['old']}/{s['calls']} new {s['failed']['new']}/{s['calls']}"
            )
    print(json.dumps(result, sort_keys=True))
    return 1 if any(s["exit_codes_differ"] or s["tags_differ"] for s in result.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
