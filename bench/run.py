"""Benchmark of the groupoidqm command line, one workload per run.

    python3 bench/run.py --workload classify --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

A round is a fixed list of in-process ``groupoidqm.cli.main`` calls on
inputs generated from the seed; every round's wall time is corrected for
machine drift by the probe in ``probe.py``.  ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer ones.  The last line of
standard output is the result as one JSON object.  See README.md.
"""

from __future__ import annotations

import os

# One process, one thread: pinned before anything imports numpy.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
os.environ.update(dict.fromkeys(THREAD_VARS, "1"))

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import probe  # noqa: E402
import tracer  # noqa: E402
from workloads import KNOWN_DEFECTS, WORKLOADS, Call, check_call, lattice_counts, make_pool  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# Rounds in a seed's pool: every run repeats whole passes over it, so every
# run of a seed times the same inputs and the failure share is independent
# of how many rounds fit.
POOL_ROUNDS = 50
# op_p90_s needs at least ten rounds above the 90th percentile.
MIN_ROUNDS = 100
SETUP_REPEATS = 5


@dataclass
class Book:
    """Per-call check results over every timed round of a run."""

    attempted: dict[str, int] = field(default_factory=dict)
    failed: dict[str, int] = field(default_factory=dict)
    kinds: dict[str, int] = field(default_factory=dict)
    examples: dict[str, str] = field(default_factory=dict)

    def record(self, call: Call, failures) -> None:
        self.attempted[call.label] = self.attempted.get(call.label, 0) + 1
        if failures:
            self.failed[call.label] = self.failed.get(call.label, 0) + 1
            for f in failures:
                self.kinds[f.kind] = self.kinds.get(f.kind, 0) + 1
                self.examples.setdefault(f.kind, f"{call.label}: {f.message}")

    @property
    def total(self) -> int:
        return sum(self.attempted.values())

    @property
    def total_failed(self) -> int:
        return sum(self.failed.values())

    @property
    def correct(self) -> bool:
        """True when every failure is one of the documented program defects."""
        return all(kind in KNOWN_DEFECTS for kind in self.kinds)

    def lines(self) -> list[str]:
        out = [f"check {label}: {self.failed.get(label, 0)} of {n} calls failed" for label, n in self.attempted.items()]
        for kind, n in self.kinds.items():
            note = " (known program defect, see README)" if kind in KNOWN_DEFECTS else ""
            out.append(f"failure {kind} x{n}{note}; e.g. {self.examples[kind]}")
        share = self.total_failed / self.total if self.total else 0.0
        out.append(f"failure share: {self.total_failed}/{self.total} = {share:.4f}")
        return out


@dataclass
class Round:
    raw_s: float
    probe_s: float

    @property
    def corrected_s(self) -> float:
        return probe.corrected(self.raw_s, self.probe_s)


def run_calls(cli, calls: list[Call]) -> list[tuple[int, str, str]]:
    """Run each call through ``cli.main``, looked up per call so a traced run sees its wrapper."""
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


def import_program():
    """A fresh import of the program from this checkout's ``src``."""
    for name in [n for n in sys.modules if n == "groupoidqm" or n.startswith("groupoidqm.")]:
        del sys.modules[name]
    cli = importlib.import_module("groupoidqm.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported groupoidqm from {cli.__file__}, not from {SRC}")
    return cli


def setup_once(calls: list[Call]):
    """Corrected time of importing the program plus one untimed warm-up round."""
    gc.collect()
    before = probe.probe()
    t0 = time.perf_counter()
    cli = import_program()
    run_calls(cli, calls)
    raw = time.perf_counter() - t0
    return probe.corrected(raw, (before + probe.probe()) / 2.0), cli


def settle_and_probe(guard: probe.ThreadGuard) -> float:
    """Untimed garbage collection and thread guard, then the probe."""
    gc.collect()
    guard.check()
    return probe.probe()


def timed_round(cli, calls: list[Call], guard: probe.ThreadGuard, book: Book, before: float):
    """One timed round, corrected by the probes just before and just after it.

    Returns the round, its outputs and the after-probe, which serves as the
    next round's before-probe.
    """
    t0 = time.perf_counter()
    outputs = run_calls(cli, calls)
    raw = time.perf_counter() - t0
    for call, (code, out, err) in zip(calls, outputs):
        book.record(call, check_call(call, code, out, err))
    after = settle_and_probe(guard)
    return Round(raw, (before + after) / 2.0), outputs, after


def timed_passes(cli, pool, guard, book, seconds: float, min_rounds: int) -> list[Round]:
    """Whole passes over the pool until another would overrun ``seconds``
    (at least one pass and ``min_rounds`` rounds)."""
    rounds: list[Round] = []
    start = time.perf_counter()
    last_probe = settle_and_probe(guard)
    while True:
        pass_start = time.perf_counter()
        for calls in pool:
            r, _, last_probe = timed_round(cli, calls, guard, book, last_probe)
            rounds.append(r)
        now = time.perf_counter()
        if len(rounds) >= min_rounds and now - start + (now - pass_start) > seconds:
            return rounds


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(cli, pool, guard, book, seconds: float, setup: list[float]) -> dict:
    rounds = timed_passes(cli, pool, guard, book, seconds, MIN_ROUNDS)
    times = [r.corrected_s for r in rounds]
    print(f"rounds timed: {len(rounds)} ({len(rounds) // len(pool)} passes over {len(pool)})")
    return {
        "ops_per_s": metric(1.0 / statistics.fmean(times), "1/s"),
        "op_p50_s": metric(statistics.median(times), "s"),
        "op_p90_s": metric(statistics.quantiles(times, n=10)[-1], "s"),
        "setup_s": metric(statistics.median(setup), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(cli, pool, guard, book, seconds: float) -> dict:
    plain = timed_passes(cli, pool, guard, book, seconds / 2.0, 0)
    t = tracer.Tracer()
    calls = dict.fromkeys(tracer.LAYERS, 0)
    self_s = dict.fromkeys(tracer.LAYERS, 0.0)
    pairs = triples = 0
    traced = []
    t.install()
    try:
        last_probe = settle_and_probe(guard)
        for round_calls in pool:
            r, outputs, last_probe = timed_round(cli, round_calls, guard, book, last_probe)
            traced.append(r)
            n, s = t.drain()
            for layer in tracer.LAYERS:
                calls[layer] += n[layer]
                self_s[layer] += probe.corrected(s[layer], r.probe_s)
            for call, (code, out, _) in zip(round_calls, outputs):
                if call.argv[0] == "classify" and code == 0:
                    n_pairs, n_triples = lattice_counts(json.loads(out))
                    pairs, triples = pairs + n_pairs, triples + n_triples
    finally:
        t.uninstall()
    k = len(pool)
    out = {}
    for m in tracer.MODULES:
        out[f"{m}.calls"] = metric(calls[m] / k, "count")
        out[f"{m}.self_s"] = metric(self_s[m] / k, "s")
    for layer, short in (("linalg.eigh", "eigh"), ("linalg.svd", "svd")):
        out[f"linalg.{short}_calls"] = metric(calls[layer] / k, "count")
        out[f"linalg.{short}_s"] = metric(self_s[layer] / k, "s")
    out["lattice.pairs_tested"] = metric(pairs / k, "count")
    out["lattice.triples_tested"] = metric(triples / k, "count")
    probes = [r.probe_s for r in plain]
    out["env.probe_s"] = metric(statistics.median(probes), "s")
    out["env.probe_spread"] = metric(probe.spread(probes), "ratio")
    out["raw.op_p50_s"] = metric(statistics.median(r.raw_s for r in plain), "s")
    plain_p50 = statistics.median(r.corrected_s for r in plain)
    out["trace.overhead"] = metric(statistics.median(r.corrected_s for r in traced) / plain_p50, "ratio")
    print(f"rounds timed: {len(plain)} untraced, {len(traced)} traced")
    return out


def run_workload(args) -> int:
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        pool = make_pool(args.workload, args.seed, POOL_ROUNDS, workdir)
        print(json.dumps({"workload": args.workload, "trace": args.trace, "env": probe.environment(args.seed, THREAD_VARS)}))
        probe.probe()  # BLAS is initialised before the guard's baseline is taken
        guard = probe.ThreadGuard(THREAD_VARS)
        repeats = SETUP_REPEATS if args.trace == 0 else 1
        setup = []
        for k in range(repeats):
            s, cli = setup_once(pool[k % len(pool)])
            setup.append(s)
        book = Book()
        if args.trace == 0:
            metrics = end_to_end(cli, pool, guard, book, args.seconds, setup)
        else:
            metrics = per_layer(cli, pool, guard, book, args.seconds)
        guard.check()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    for line in book.lines():
        print(line)
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']!r} {m['unit']}")
    result = {"correct": book.correct, "attempted": book.total, "failed": book.total_failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, then one summary table."""
    status = 0
    summary = []
    for w in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        print(f"== {w} (exit {proc.returncode})")
        print(proc.stdout.rstrip())
        if proc.returncode != 0:
            print(proc.stderr.rstrip(), file=sys.stderr)
            status = 1
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        share = result["failed"] / result["attempted"]
        summary.append((w, result, share))
    print("== summary")
    for w, result, share in summary:
        print(f"{w}: correct={result['correct']} failed {result['failed']}/{result['attempted']} = {share:.4f}")
        for name, m in result["metrics"].items():
            print(f"  {w}.{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({w: r for w, r, _ in summary}))
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "groupoidqm" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'groupoidqm'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
