#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload corpus_sweep --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --trace 1   # every workload, one process each

A run sets the workload up (several times; the median counts), replays it
until ``--seconds`` of host time would be exceeded (at least once), checks
every output outside the timed region, and prints each metric with its unit.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` — the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.  A traced run adds one traced replay after the untraced ones
and prints the per-layer ledger.  Any wrong output, failed operation,
virtual result that differs between replays or from an earlier correct run
of the same code on the same seed, or failed layer-coverage check makes the
exit code 1.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench_state"
#: Modules every workload needs; their import is part of set-up.
IMPORTS = ("repro", "repro.eval.harness", "repro.serve.workload", "repro.cluster.bench")
SETUP_REPEATS = 3
WORKLOAD_NAMES = ("corpus_sweep", "corpus_execute", "serve_churn", "fleet_hot")


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_program() -> None:
    """Import the program in a fresh interpreter (set-up's first part)."""
    code = f"for m in {IMPORTS!r}: __import__(m)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process; exit code 1 if any run failed."""
    worst = 0
    for name in WORKLOAD_NAMES:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        print(f"=== {name}", flush=True)
        worst = max(worst, subprocess.run(cmd).returncode)
    return worst


def code_hash() -> str:
    """Digest of every source file of the program and the benchmark."""
    h = hashlib.blake2b(digest_size=8)
    for base in (SRC, HERE):
        for path in sorted(base.rglob("*.py")):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def record_path(workload: str, seed: int) -> Path:
    """Where a correct run of this code on ``seed`` keeps its modelled results.

    The record is keyed by :func:`code_hash`, so a run is held only to earlier
    runs of the same code; between versions the metrics' bounds apply.
    """
    return STATE / f"{workload}-seed{seed}-{code_hash()}.json"


def check_record(path: Path, modelled: dict) -> str:
    """Compare the modelled results with an earlier run of the same code."""
    if not path.exists():
        return ""
    before = json.loads(path.read_text())
    if before != modelled:
        return f"modelled results differ from an earlier run of this code: {before} != {modelled}"
    return ""


def write_record(path: Path, modelled: dict) -> None:
    STATE.mkdir(exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(modelled, sort_keys=True))
    os.replace(tmp, path)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))

    import clock

    import_s = statistics.median(
        clock.reference_seconds(import_program) for _ in range(SETUP_REPEATS)
    )
    for m in IMPORTS:
        importlib.import_module(m)
    import tracing
    import workloads

    wl = workloads.WORKLOADS[args.workload]()
    setup_s = import_s + statistics.median(
        clock.reference_seconds(lambda: wl.setup(args.seed)) for _ in range(SETUP_REPEATS)
    )

    tracer = tracing.Tracer()
    tracing.install(tracer, traced=False)
    replays = []
    start = perf_counter()
    while True:
        tracer.reset()
        replays.append(wl.replay(tracer))
        spent = perf_counter() - start
        if spent + spent / len(replays) > args.seconds:
            break
    tracer.uninstall()

    traced = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer, traced=True)
        traced = wl.replay(tracer)
        tracer.uninstall()

    checked = replays + ([traced] if traced else [])
    problems = wl.verify(checked)
    first = replays[0].virtual
    modelled = {"virtual": first, "outcome": replays[0].outcome}
    for i, r in enumerate(checked[1:], 1):
        if {"virtual": r.virtual, "outcome": r.outcome} != modelled:
            problems.append(f"replay {i} modelled results differ from replay 0")
    modelled = json.loads(json.dumps(modelled, sort_keys=True))
    record = record_path(args.workload, args.seed)
    mismatch = check_record(record, modelled)
    if mismatch:
        problems.append(mismatch)
    attempted = sum(r.attempted for r in checked)
    failed = sum(r.failed for r in checked)

    host_mprod = statistics.median(r.products / r.ref_s / 1e6 for r in replays)
    host_rps = statistics.median(r.ops / r.ref_s for r in replays)
    print(
        f"workload {args.workload} seed {args.seed}: {len(replays)} replays, "
        f"{replays[0].ops} ops and {replays[0].products} products each, "
        f"{replays[0].samples} latency samples"
    )
    print(
        "host seconds per replay: "
        + ", ".join(f"{r.wall_s:.3f} ({r.ref_s:.3f} reference)" for r in replays)
    )
    print(f"failed_share {failed / attempted:.6f} ({failed} of {attempted} operations)")
    if args.trace:
        base = statistics.median(r.ref_s for r in replays)
        values, ledger, coverage = tracing.per_layer(
            tracer, traced, base, import_s, wl.dominant
        )
        print(ledger)
        problems += coverage
        section = "per_layer"
    else:
        values = {
            "setup_s": setup_s,
            "host_mproducts_per_s": host_mprod,
            "host_rps": host_rps,
            **first,
            "peak_rss_mb": max(r.peak_rss_mb for r in replays),
        }
        section = "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    if set(values) != set(units):
        problems.append(f"metric names differ from BENCHMARK.json: {sorted(set(values) ^ set(units))}")
    metrics = {n: {"value": float(values[n]), "unit": units[n]} for n in units if n in values}
    if not args.trace:
        for n, m in metrics.items():
            print(f"{n:24s} {m['value']:.6g} {m['unit']}")
    for p in problems:
        print(f"FAIL: {p}")
    correct = not problems and failed == 0
    if correct and not record.exists():
        write_record(record, modelled)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
