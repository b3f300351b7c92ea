"""One benchmark child process: set up, run timed iterations, report.

Run as ``python -m perfbench.worker '<json spec>'`` from the checkout
root, with ``src`` on PYTHONPATH; ``perfbench/run.py`` does this.  The
spec names the workload, seed, seconds and mode (``timed`` or
``traced``).  The last line of standard output is one JSON object with
the environment, the end-to-end metrics, the per-layer metrics (traced
mode), the per-iteration outputs and any problems found.

Both modes follow one rule: every iteration runs on a fresh set-up, and
set-up and iteration are timed apart.  The first iteration is a warm-up,
checked but left out of the timings; the iterations run for the given
seconds, and at least MIN_ITERATIONS of them are measured.  The timed
mode installs no wrappers; the traced mode installs every boundary.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time
from pathlib import Path
from statistics import median

import numpy
import scipy

import kflow
from perfbench import workloads
from perfbench.tracer import LAYER_BOUNDARIES, PHASE_BOUNDARIES, Boundaries, Tracer

MIN_ITERATIONS = 2      # measured ones, after the warm-up iteration
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "KFLOW_THREADS")


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def environment() -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "kflow": kflow.__version__,
        "kflow_path": os.path.relpath(kflow.__file__),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
    }


def run(spec: dict) -> dict:
    workload = workloads.WORKLOADS[spec["workload"]]
    seed, traced = int(spec["seed"]), spec["mode"] == "traced"
    work = Path(spec["work"])
    work.mkdir(parents=True, exist_ok=True)
    reference = workload.reference(workload.config)
    tracer = Tracer()
    setup_s, iterations = [], []
    with Boundaries(tracer, PHASE_BOUNDARIES + LAYER_BOUNDARIES if traced else ()) as installed:
        begun = time.perf_counter()
        while len(iterations) <= MIN_ITERATIONS or time.perf_counter() - begun < spec["seconds"]:
            tracer.iteration = -(len(setup_s) + 1)
            t0 = time.perf_counter()
            state = workload.setup(seed, work)
            setup_s.append(time.perf_counter() - t0)
            tracer.iteration = len(iterations)
            c0, t0 = _cpu_seconds(), time.perf_counter()
            result = workload.iterate(state, reference)
            iterations.append({"wall_s": time.perf_counter() - t0,
                               "cpu_s": _cpu_seconds() - c0, "result": result})
    results = [it["result"] for it in iterations]
    doc = {
        "env": environment(),
        "config": workload.config,
        "missing_boundaries": installed.missing,
        "setup_s": setup_s,
        "wall_s": [it["wall_s"] for it in iterations],
        "cpu_s": [it["cpu_s"] for it in iterations],
        "outputs": [r.outputs() for r in results],
        "problems": [p for r in results for p in r.problems],
        "attempted": sum(r.calls for r in results),
        "failed": sum(r.calls_failed for r in results),
        "operations": sum(r.operations for r in results),
        "operations_failed": sum(r.operations_failed for r in results),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "e2e": end_to_end(iterations, setup_s),
    }
    if traced:
        doc["layers"] = layers(tracer, iterations)
        doc["layers"].update(workloads.micro_grams(workload.config, seed))
        doc["spans"] = span_table(tracer)
        write_spans(tracer, work.parent / f"spans-{workload.name}-{seed}.json")
    return doc


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

INC, SELF, CALLS, ERRORS, UNITS = range(5)
RATES = {"onestep_rows_per_s": ("onestep_rows", "onestep_s"),
         "rollout_steps_per_s": ("rollout_steps", "rollout_s")}


def _get(totals: dict, name: str, field: int):
    return totals.get(name, [0.0, 0.0, 0, 0, 0])[field]


def _rate(part, whole) -> float:
    return part / whole if whole > 0 else 0.0


def end_to_end(iterations, setup_s) -> dict:
    """End-to-end metrics from the measured iterations and every set-up.

    Times are medians.  A throughput is the work of all measured
    iterations over their time in that phase: the phases are short, and
    a median of a few samples of them jumps whenever the machine's speed
    shifts between iterations.  A phase the workload does not time
    directly (the CLI's, on bench-rossler) is left out.
    """
    phases = [it["result"].phases for it in iterations[1:]]
    out = {"setup_s": median(setup_s), "wall_s": median(it["wall_s"] for it in iterations[1:])}
    for name in ("train_s", "fit_s"):
        if name in phases[0]:
            out[name] = median(p[name] for p in phases)
    for name, (units, seconds) in RATES.items():
        if seconds in phases[0]:
            out[name] = _rate(sum(p[units] for p in phases), sum(p[seconds] for p in phases))
    return out


def _layer_values(tracer, tag: int) -> dict:
    """Per-layer values of one measured iteration."""
    totals, counts = tracer.totals(tag), tracer.counts(tag)
    g = lambda name, field=INC: _get(totals, name, field)  # noqa: E731
    return {
        "kernels.gram_s": g("kernels.gram"),
        "kernels.gram_calls": g("kernels.gram", CALLS),
        "kernels.gram_entries": g("kernels.gram", UNITS),
        "kernels.cross_gram_s": g("kernels.cross_gram"),
        "kernels.cross_gram_calls": g("kernels.cross_gram", CALLS),
        "kernels.block_s": g("kernels.block"),
        "kernels.grad_block_s": g("kernels.grad_block"),
        "loss.nested_eval_s": g("loss.nested_eval"),
        "loss.nested_eval_self_s": g("loss.nested_eval", SELF),
        "loss.factor_s": g("loss.factor"),
        "loss.factor_calls": g("loss.factor", CALLS),
        "loss.solve_s": g("loss.solve"),
        "loss.refine_rounds": g("loss.solve_factored", CALLS) - g("loss.solve", CALLS),
        "training.calibrate_s": g("training.calibrate"),
        "training.epochs_failed": counts["training.epochs_failed"],
        "training.clip_events": counts["training.clip_events"],
        "forecast.fit_s": g("forecast.fit"),
        "forecast.fit_self_s": g("forecast.fit", SELF),
        "forecast.fit_calls": g("forecast.fit", CALLS),
        "forecast.onestep_s": g("forecast.onestep"),
        "forecast.rollout_diverged": g("forecast.rollout", ERRORS),
        "metrics.hausdorff_s": g("metrics.hausdorff"),
        "metrics.smape_s": g("metrics.smape"),
        "evaluation.cv_s": g("evaluation.cv"),
        "evaluation.cv_cells": counts["evaluation.cv_cells"],
        "evaluation.cv_cells_failed": counts["evaluation.cv_cells_failed"],
        "evaluation.final_train_s": _get(tracer.totals(tag, outside="evaluation.cv"),
                                         "training.train", INC),
        "cli.report_s": g("cli.report"),
    }


def layers(tracer, iterations) -> dict:
    """Per-layer metrics of the measured iterations.

    Each value is the median over the measured iterations; the per-epoch
    counts and times, the LDL share and the rollout step time are ratios
    over all of them.  Only integration and embedding, which the
    workloads do in their set-up, are medians over the set-ups instead.
    """
    tags = range(1, len(iterations))
    per_tag = [_layer_values(tracer, t) for t in tags]
    out = {k: median(v[k] for v in per_tag) for k in per_tag[0]}
    setups = [tracer.totals(-(k + 1)) for k in range(len(iterations))]
    out["systems.integrate_s"] = median(_get(t, "systems.integrate", INC) for t in setups)
    out["embedding.build_s"] = median(_get(t, "embedding.build", INC) for t in setups)

    totals = [tracer.totals(t) for t in tags]
    total = lambda name, field=INC: sum(_get(t, name, field) for t in totals)  # noqa: E731
    count = lambda key: sum(tracer.counts(t)[key] for t in tags)  # noqa: E731
    epochs = count("training.epochs")
    per_epoch = lambda x: x / epochs if epochs else 0.0  # noqa: E731
    measured = [it["result"] for it in iterations[1:]]
    smapes = [r.smape_pct for r in measured if r.smape_pct is not None]
    hds = [r.hd for r in measured if r.hd is not None]
    out.update({
        "kernels.block_evals": per_epoch(total("kernels.block", CALLS)),
        "kernels.grad_block_evals": per_epoch(total("kernels.grad_block", CALLS)),
        "loss.nested_eval_calls": per_epoch(total("loss.nested_eval", CALLS)),
        "training.epoch_ms": 1e3 * per_epoch(total("training.train") - total("training.calibrate")),
        "loss.ldl_share": _rate(count("loss.factor_ldl"), total("loss.factor", CALLS)),
        "forecast.rollout_step_ms": 1e3 * _rate(total("forecast.rollout"),
                                                total("forecast.rollout", UNITS)),
        "training.nnz_alpha": measured[-1].nnz_alpha,
        "accuracy.smape_pct": median(smapes) if smapes else 0.0,
        "accuracy.hd": median(hds) if hds else 0.0,
    })
    return out


def span_table(tracer) -> dict:
    """{span: [inclusive s, self s, calls]} for the first measured iteration."""
    return {name: [acc[INC], acc[SELF], acc[CALLS]] for name, acc in tracer.totals(1).items()}


def write_spans(tracer, path: Path) -> None:
    rows = [[s.name, s.parent, s.iteration, s.start, s.end, s.error, s.units]
            for s in tracer.spans]
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps({"fields": ["name", "parent", "iteration", "start", "end",
                                          "error", "units"], "spans": rows}), encoding="utf-8")
    os.replace(tmp, path)


def main(argv) -> int:
    spec = json.loads(argv[1])
    doc = run(spec)
    sys.stdout.write(json.dumps(doc) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
