"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload train-lorenz --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the root of a checkout that holds ``src/kflow``.  Each run starts
a fresh worker process (``perfbench/worker.py``), one at a time, with one
BLAS thread.  A worker runs iterations for the given seconds, each on a
fresh set-up timed apart, the first iteration a warm-up.  With
``--trace 0`` one untraced worker runs for ``--seconds``; the last line
printed carries the end-to-end metrics.  With ``--trace 1`` an untraced
worker and a traced worker each run for half the seconds; the last line
carries the per-layer metrics, and the tracing overhead is the traced
median wall time against the untraced one.

The outputs of every iteration of a seed must be identical: within a
worker, between the two workers of a traced run, and across runs of the
same seed, workload configuration and sources in this checkout (kept in
``.perfbench/ledger.json``).  A mismatch or a failed output check prints
``"correct": false``.  A missing ``src/kflow`` or a worker that fails
exits non-zero without printing a result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
STATE = Path(".perfbench")             # relative to ROOT; ignored by git
TIME_LIMIT_S = 170.0
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Printed with every untraced run where the workload measures them, but
# not gated: each applies to some workloads only, and over ten seeds
# their spread reached 0.24 to 0.34 of the median on some workload
# (machine speed shifts, the SparseKF sparsity a seed leads to), more
# than the largest bound BENCHMARK.json may set.
REPORTED = (("train_s", "s", "lower"), ("fit_s", "s", "lower"),
            ("onestep_rows_per_s", "1/s", "higher"), ("rollout_steps_per_s", "1/s", "higher"),
            ("smape_pct", "%", "lower"), ("hd", "std-units", "lower"),
            ("failed_frac", "fraction", "lower"))


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def worker_env() -> tuple[dict, dict]:
    """Child environment: one BLAS thread, kflow's default thread pool.

    On a 2-core machine a second OpenBLAS thread made the training loop
    slower and noisier (its spin-wait competes with the Python thread),
    and the thread count changes results in the last bits, so it is fixed.
    Returns (environment, record of the thread variables as found).
    """
    env = dict(os.environ)
    found = {v: env.get(v) for v in BLAS_VARS + ("KFLOW_THREADS",)}
    env.update({v: "1" for v in BLAS_VARS})
    env.pop("KFLOW_THREADS", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env, found


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def run_worker(spec: dict, env: dict, deadline: float) -> dict | None:
    try:
        proc = subprocess.run([sys.executable, "-m", "perfbench.worker", json.dumps(spec)],
                              cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail(f"{spec['mode']} worker exceeded the time limit")
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{spec['mode']} worker exited with {proc.returncode}")
        return None
    return json.loads(lines[-1])


def sources_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "kflow").rglob("*.py")) + sorted(
            (ROOT / "perfbench").glob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def check_ledger(workload: str, seed: int, config: dict, outputs: dict) -> str | None:
    """Compare this seed's outputs with earlier runs in this checkout."""
    ledger_path = ROOT / STATE / "ledger.json"
    key = hashlib.sha256(json.dumps([workload, seed, config, sources_digest()],
                                    sort_keys=True).encode()).hexdigest()
    try:
        ledger = json.loads(ledger_path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        ledger = {}
    if key in ledger:
        if ledger[key] != outputs:
            return f"outputs differ from an earlier run of seed {seed}: {ledger[key]}"
        return None
    ledger[key] = outputs
    tmp = ledger_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(ledger, indent=1, sort_keys=True), encoding="utf-8")
    os.replace(tmp, ledger_path)
    return None


def run_one(workload: str, args, bench: dict) -> int:
    """Run one workload and print its metrics; the last line is the result."""
    started = time.monotonic()
    env, found_threads = worker_env()
    spec = {"workload": workload, "seed": args.seed, "work": str(STATE / "work")}
    deadline = started + TIME_LIMIT_S
    if args.trace:
        half = args.seconds / 2.0
        docs = [run_worker(dict(spec, mode="timed", seconds=half), env, deadline)]
        if docs[0] is not None:
            docs.append(run_worker(dict(spec, mode="traced", seconds=half), env, deadline))
    else:
        docs = [run_worker(dict(spec, mode="timed", seconds=args.seconds), env, deadline)]
    shutil.rmtree(ROOT / STATE / "work", ignore_errors=True)
    if any(doc is None for doc in docs):
        return 1
    timed = docs[0]

    problems = [p for doc in docs for p in doc["problems"]]
    outputs = [o for doc in docs for o in doc["outputs"]]
    if any(o != outputs[0] for o in outputs):
        problems.append("outputs differ between iterations of one seed")
    for doc in docs:
        if doc["env"]["kflow_path"] != os.path.join("src", "kflow", "__init__.py"):
            problems.append(f"kflow imported from {doc['env']['kflow_path']}, not src/")
    ledger_problem = check_ledger(workload, args.seed, timed["config"], outputs[0])
    if ledger_problem:
        problems.append(ledger_problem)
    attempted = sum(doc["attempted"] for doc in docs)
    failed = sum(doc["failed"] for doc in docs)
    failed_frac = [doc["operations_failed"] / doc["operations"] for doc in docs]

    if args.trace:
        metrics = dict(docs[1]["layers"])
        metrics["process.cpu_s"] = median(timed["cpu_s"][1:])
        metrics["process.tracing_overhead_pct"] = 100.0 * (
            docs[1]["e2e"]["wall_s"] / timed["e2e"]["wall_s"] - 1.0)
        metrics["accuracy.failed_frac"] = failed_frac[1]
        declared = bench["per_layer"]
    else:
        metrics = dict(timed["e2e"], peak_rss_mb=timed["peak_rss_mb"])
        result = timed["outputs"][0]
        reported = {**metrics, "smape_pct": result["smape_pct"], "hd": result["hd"],
                    "failed_frac": failed_frac[0]}
        declared = bench["end_to_end"]
        metrics = {m["name"]: metrics.get(m["name"]) for m in declared}
    if any(not isinstance(metrics.get(m["name"]), (int, float)) for m in declared):
        return fail("a metric declared in BENCHMARK.json was not measured")

    env_line = dict(timed["env"], threads_found=found_threads, commit=git_commit(),
                    workload=workload, seed=args.seed, seconds=args.seconds,
                    trace=args.trace, config=timed["config"])
    print("# env " + json.dumps(env_line, sort_keys=True))
    if any(doc["missing_boundaries"] for doc in docs):
        print("# missing boundaries: " + ", ".join(docs[-1]["missing_boundaries"]))
    for doc in docs:
        print(f"# setup_s: {[round(t, 4) for t in doc['setup_s']]}  "
              f"iteration wall_s (first is the warm-up): {[round(t, 4) for t in doc['wall_s']]}")
    print(f"# outputs: {json.dumps(outputs[0], sort_keys=True)}")
    if args.trace:
        print("# span                        inclusive_s      self_s   calls")
        for name, (inc, own, calls) in sorted(docs[1]["spans"].items(), key=lambda kv: -kv[1][1]):
            print(f"#   {name:24s} {inc:12.6f} {own:11.6f} {calls:7d}")
    for m in declared:
        print(f"{m['name']:32s} {metrics[m['name']]:>16.6g} {m['unit']:10s} "
              f"({m['better']} is better)")
    if not args.trace:
        for name, unit, better in REPORTED:
            if name not in reported:
                continue
            value = reported[name]
            shown = "none" if value is None else f"{value:.6g}"
            print(f"{name:32s} {shown:>16s} {unit:10s} ({better} is better; reported, not gated)")
    for p in problems:
        print(f"# PROBLEM: {p}")
    result = {
        "correct": not problems,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result), flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload named in BENCHMARK.json, or 'all' to run each in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "kflow" / "__init__.py").is_file():
        return fail(f"no kflow sources under {ROOT / 'src'}; run from a full checkout")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    known = [w["name"] for w in bench["workloads"]]
    chosen = known if args.workload == "all" else [args.workload]
    if any(name not in known for name in chosen):
        return fail(f"unknown workload {args.workload!r}; known: {', '.join(known)}")
    (ROOT / STATE).mkdir(exist_ok=True)
    return max(run_one(name, args, bench) for name in chosen)


if __name__ == "__main__":
    sys.exit(main())
