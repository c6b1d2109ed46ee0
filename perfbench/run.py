"""Benchmark of bseries: certified verification of the catalog's series identities.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload sweep30 --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all

Each workload is a closed loop with one client: one fresh interpreter per
pass checks the workload's records one at a time, in an order fixed by
``--seed`` (the seed changes nothing else).  A run first starts a few
interpreters that only import ``bseries`` and parse the pinned catalog, to
sample set-up time, then runs passes while one more pass still fits in
``--seconds``; at least one pass always runs.

Times are reported in seconds at reference speed: each record's time on
the clock is scaled by how long a fixed calibration loop took around and
during it (``benchlib.calibrate``), because the machine's speed drifts by
tens of percent as other tenants load it.  The clock times are kept in
``perfbench/out/<workload>.result.json``.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` alternates untraced and traced passes, starting untraced, and
reports the per-layer metrics of the first traced pass.  Every run checks
each record's verdict against what its catalog status implies, writes the
per-record verdict table to ``perfbench/out/<workload>.verdicts.tsv`` and
prints its diff against the previous run's table.  The last line of
standard output is one JSON object: ``{"correct", "attempted", "failed",
"metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import benchlib

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"

SETUP_PROBES = 5
# A run must end within 180 s; a pass that would run past this is killed.
DEADLINE_S = 170.0

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "verify_p50_s": "s",
    "verify_tail_s": "s",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}

LAYER_UNITS = {
    "catalog.load_s": "s",
    "envelope.calls": "count",
    "envelope.busy_s": "s",
    "envelope.max_s": "s",
    "envelope.sturm_s": "s",
    "envelope.refused": "count",
    "envelope.k0_max": "count",
    "sum.calls": "count",
    "sum.busy_s": "s",
    "sum.terms": "count",
    "sum.retries": "count",
    "sum.us_per_term": "us",
    "sum.heuristic": "count",
    "rhs.calls": "count",
    "rhs.self_s": "s",
    "constants.calls": "count",
    "constants.busy_s": "s",
    "constants.lvalue_s": "s",
    "constants.max_s": "s",
    "cert.calls": "count",
    "cert.busy_s": "s",
    "verify.self_s": "s",
    "trace.overhead_s": "s",
}


class BenchError(RuntimeError):
    """A pass could not be run; the run gives no result."""


def spawn(workload: str, seed: int, deadline: float, *, trace: int = 0, setup_only: bool = False) -> dict:
    """Run worker.py once and return the JSON object it prints last."""
    spawned = time.monotonic()
    if spawned >= deadline:
        raise BenchError("out of time before the pass could start")
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--trace", str(trace),
        "--spawned-at", repr(spawned),
    ]
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=deadline - spawned)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload}: a pass did not end within the run's time") from exc
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload}: worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def run_passes(workload: str, seed: int, seconds: float, trace: bool, deadline: float):
    setups = [spawn(workload, seed, deadline, setup_only=True)["setup_ref_s"] for _ in range(SETUP_PROBES)]
    plain, traced = [], []
    t0 = time.monotonic()
    while True:
        want_trace = trace and len(traced) < len(plain)
        t_pass = time.monotonic()
        res = spawn(workload, seed, deadline, trace=int(want_trace))
        last = time.monotonic() - t_pass
        if want_trace:
            traced.append(res)
        else:
            plain.append(res)
            setups.append(res["setup_ref_s"])
        if trace and not traced:
            continue
        if time.monotonic() - t0 + last > seconds:
            return setups, plain, traced


def summarize(workload: str, seed: int, setups: list, plain: list, traced: list) -> tuple[dict, list[str]]:
    """The result object and the report lines for one workload."""
    first = plain[0]
    items = [benchlib.Item(*it) for it in first["items"]]
    n = len(items)
    verdicts = {r["id"]: r["verdict"] for r in first["rows"]}
    failed, unexpected = benchlib.count_failures(items, verdicts)
    table = benchlib.render_table(first["rows"])
    for other in plain[1:] + traced:
        if benchlib.render_table(other["rows"]) != table:
            unexpected.append("passes of one run disagree on the verdict table")

    # Each record's median over the passes, at reference speed.
    per_record = {rid: statistics.median([p["ref_times"][rid] for p in plain]) for rid in verdicts}
    walls = [p["ref_wall_s"] for p in plain]
    wall = sum(per_record.values())
    calibration = statistics.median([c for p in plain for c in p["calibration_s"].values()])
    clock = ", ".join(f"{p['wall_s']:.2f}" for p in plain)
    tail, pct, _ = benchlib.tail_percentile(list(per_record.values()))
    e2e = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "verify_p50_s": statistics.median(list(per_record.values())),
        "verify_tail_s": tail,
        "ok_ratio": (n - failed) / n,
        "peak_rss_mb": statistics.median([p["rss_mb"] for p in plain]),
    }
    lines = [
        f"workload {workload}: {n} records at {benchlib.WORKLOADS[workload]} digits, seed {seed}, "
        f"{len(plain)} untraced and {len(traced)} traced passes",
        f"  times are seconds at reference speed: the calibration loop took {calibration * 1e3:.2f} ms "
        f"here (median), {benchlib.REFERENCE_CALIBRATION_S * 1e3:.2f} ms at reference speed; "
        f"untraced passes took {clock} s on the clock",
        f"  setup_s        {e2e['setup_s']:.4f} s  (median of {len(setups)} fresh processes)",
        f"  wall_s         {wall:.4f} s  (sum of per-record medians over {len(plain)} passes)",
        f"  verify_p50_s   {e2e['verify_p50_s']:.6f} s  (median over {n} records)",
        f"  verify_tail_s  {tail:.6f} s  (p{pct:.1f} of {n} records: the highest with 10 beyond it)",
        f"  ok_ratio       {e2e['ok_ratio']:.4f} ratio  (fail_ratio {failed}/{n})",
        f"  peak_rss_mb    {e2e['peak_rss_mb']:.1f} MB",
    ]
    for rid, want in sorted(benchlib.KNOWN_FAILURES.items()):
        if rid in verdicts:
            lines.append(f"  known failure  {rid}: {verdicts[rid]} (counted as failed; pinned {want})")
    lines += [f"  INCORRECT      {u}" for u in unexpected]

    metrics = {k: (v, E2E_UNITS[k]) for k, v in e2e.items()}
    if traced:
        layers = dict(traced[0]["layers"])
        rows = traced[0]["rows"]
        layers["sum.retries"] = sum(r["attempts"] - 1 for r in rows if isinstance(r.get("attempts"), int))
        layers["sum.heuristic"] = sum(1 for r in rows if r.get("tail") == "heuristic")
        layers["trace.overhead_s"] = statistics.median([t["ref_wall_s"] for t in traced]) - statistics.median(walls)
        metrics = {k: (layers[k], LAYER_UNITS[k]) for k in LAYER_UNITS}
        share = layers["trace.self_sum_s"] / wall
        lines.append(f"  traced pass    {traced[0]['ref_wall_s']:.4f} s; layer self times sum to "
                     f"{layers['trace.self_sum_s']:.4f} s = {share:.3f} of the untraced wall_s")
        lines += [f"  {k:<20} {v:.6g} {u}" for k, (v, u) in metrics.items()]

    previous_path = OUT / f"{workload}.verdicts.tsv"
    previous = previous_path.read_text(encoding="utf-8").splitlines() if previous_path.exists() else None
    lines += benchlib.table_diff(previous, table)
    OUT.mkdir(exist_ok=True)
    previous_path.write_text("\n".join(table) + "\n", encoding="utf-8")

    result = {
        "correct": not unexpected,
        "attempted": n,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    env = {
        "python": platform.python_version(),
        "mpmath": first["mpmath"],
        "mpmath_backend": first["backend"],
        "nproc": os.cpu_count(),
    }
    record = {"workload": workload, "seed": seed, "environment": env, "result": result,
              "ref_wall_s_passes": walls, "setup_ref_s_samples": setups,
              "clock_wall_s_passes": [p["wall_s"] for p in plain],
              "clock_times_passes": {rid: [p["times"][rid] for p in plain] for rid in verdicts},
              "calibration_s_passes": {rid: [p["calibration_s"][rid] for p in plain] for rid in verdicts}}
    (OUT / f"{workload}.result{'.trace' if traced else ''}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    lines.insert(0, "environment: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    return result, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(benchlib.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    names = list(benchlib.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        deadline = time.monotonic() + DEADLINE_S
        try:
            passes = run_passes(name, args.seed, args.seconds, bool(args.trace), deadline)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        results[name], lines = summarize(name, args.seed, *passes)
        print("\n".join(lines), flush=True)

    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
