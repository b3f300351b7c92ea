"""Command-line interface.

Subcommands: generate (integrate a built-in system to CSV), train
(learn a kernel from a CSV and write model + report), forecast
(one-step or autonomous predictions from a saved model), benchmark
(four-method comparison over a manifest of systems).

Every artifact embeds the fully resolved configuration, the tool
version and a digest of its input, and contains nothing run-dependent
(no timestamps, no timings), so rerunning a command with the same
config and seed reproduces the artifact byte for byte.

Exit codes: 0 success; 2 usage error (argparse, or a --config file that
is not a JSON object); 3 data error (CliDataError, OSError, KeyError or
another ValueError, such as a malformed CSV or model file); 4 numerical
failure (any kflow.NumericalError, the base of every numerical error).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .embedding import TimeSeries, build_delay_dataset
from .evaluation import (
    REPORT_HEADER_NOTE,
    EvalProtocol,
    emit_report,
    prepare_series,
    run_benchmark,
    select_lambda2,
    win_counts,
)
from .forecast import RolloutDiverged, TrainedModel, fit, one_step_forecast, rollout
from .kernels import NumericalError
from .metrics import hausdorff, smape
from .systems import (
    Standardizer,
    _write_csv,
    builtin_systems,
    get_system,
    integrate_rk4,
    load_csv,
    save_csv,
)
from .training import TrainConfig, check_range, default_init, train

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

_DATA_ERRORS = (OSError, KeyError, ValueError)


class CliDataError(ValueError):
    pass


def _digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return "sha256:" + h.hexdigest()


def _write_json(path, doc) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _envelope(kind: str, config: dict, input_digest: str | None) -> dict:
    return {
        "artifact": kind,
        "version": __version__,
        "config": config,
        "input_digest": input_digest,
    }


def _load_config_file(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise CliDataError(f"{path}: config file must hold a JSON object")
    return doc


def _setting(args, key, cast, default):
    """Flag value if given, else config-file value, else default, cast.

    A value that does not cast, or falls outside its key's range (check_range), is
    a data error naming its key, and an int setting takes an integral number
    only; null is the default only where that default is None.
    """
    flag = getattr(args, key, None)
    value = flag if flag is not None else (args._config_doc or {}).get(key, default)
    if value is None and default is None:
        return None
    try:
        if cast is int and (isinstance(value, bool) or value != int(value)):
            raise ValueError("not an integer")
        value = cast(value)
    except (TypeError, ValueError, OverflowError) as err:
        raise CliDataError(f"setting {key!r} = {value!r}: {err}") from None
    return check_range(key, value, error=CliDataError)


def _grid(value) -> tuple:
    if isinstance(value, str):
        value = [part for part in value.split(",") if part]
    return tuple(float(v) for v in value)


def _protocol(args) -> EvalProtocol:
    """The run's settings from flags, the config file and EvalProtocol()'s defaults."""
    default = EvalProtocol()
    base = default.train_config
    grid = _setting(args, "lambda2_grid", _grid, None)
    return EvalProtocol(
        tau=_setting(args, "tau", int, default.tau),
        train_fraction=_setting(args, "train_fraction", float, default.train_fraction),
        lambda2_grid=default.lambda2_grid if grid is None else grid,
        train_config=TrainConfig(**{  # not lambda2: each mode trains at its own
            f.name: _setting(args, f.name, type(getattr(base, f.name)), getattr(base, f.name))
            for f in fields(TrainConfig) if f.name != "lambda2"
        }),
        cv_epochs=_setting(args, "cv_epochs", int, default.cv_epochs),
        rollout_steps=check_range("rollout_steps", getattr(args, "steps", None), "steps",
                                  CliDataError),
    )


def _resolved(head: dict, protocol: EvalProtocol, **extra) -> dict:
    """An artifact's config block: head, protocol, extra, then the train config's fields."""
    return {
        **head,
        "tau": protocol.tau,
        "train_fraction": protocol.train_fraction,
        "lambda2_grid": list(protocol.lambda2_grid),
        "cv_epochs": protocol.cv_epochs,
        **extra,
        # not lambda2: training runs at the mode's, recorded as selected_lambda2
        **{k: v for k, v in asdict(protocol.train_config).items() if k != "lambda2"},
    }


def _svg_line_plot(path, series, labels, title) -> None:
    """Self-contained SVG polyline plot (coordinates to 3 decimals)."""
    width, height, pad = 640, 360, 40
    finite = [np.asarray(s, dtype=float) for s in series]
    allv = np.concatenate([np.empty(0)] + [s[np.isfinite(s)] for s in finite])
    if allv.size == 0:  # nothing to draw (no epochs, or every epoch failed)
        return
    lo, hi = float(allv.min()), float(allv.max())
    span = hi - lo if hi > lo else 1.0
    colors = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<text x="{pad}" y="20" font-size="14">{title}</text>',
        f'<rect x="{pad}" y="{pad}" width="{width - 2 * pad}" '
        f'height="{height - 2 * pad}" fill="none" stroke="#999"/>',
    ]
    for si, s in enumerate(finite):
        if len(s) < 2:
            continue
        xs = pad + (width - 2 * pad) * np.arange(len(s)) / (len(s) - 1)
        ys = height - pad - (height - 2 * pad) * (s - lo) / span
        ys = np.where(np.isfinite(ys), ys, height - pad)
        pts = " ".join(f"{x:.3f},{y:.3f}" for x, y in zip(xs, ys))
        color = colors[si % len(colors)]
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}"/>')
        parts.append(
            f'<text x="{width - pad - 90}" y="{pad + 16 * (si + 1)}" '
            f'font-size="12" fill="{color}">{labels[si]}</text>'
        )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_generate(args) -> int:
    try:
        spec = get_system(args.system)
    except KeyError:
        names = ", ".join(s.name for s in builtin_systems())
        print(f"unknown system {args.system!r}; available: {names}", file=sys.stderr)
        return EXIT_DATA
    series = integrate_rk4(spec, args.n, args.dt)
    save_csv(series, args.out)
    print(f"{spec.name}: wrote {series.n} samples x {series.dim} dims "
          f"(dt={series.dt}) to {args.out}")
    return EXIT_OK


def cmd_train(args) -> int:
    series = load_csv(args.input)
    protocol = _protocol(args)
    prepared = prepare_series(series, protocol.tau, protocol.train_fraction)
    config = protocol.train_config
    resolved = _resolved({"command": "train", "input": str(args.input), "mode": args.mode}, protocol)

    cv_doc = None
    lambda2 = 0.0
    if args.mode == "sparse":
        cv = select_lambda2(prepared.train, protocol.lambda2_grid, protocol.cv_config)
        cv_doc = cv.to_dict()
        lambda2 = cv.selected_lambda2
    report = train(prepared.train, default_init(prepared.train, config.seed),
                   replace(config, lambda2=lambda2))

    model = fit(report.final_params, prepared.train, config.lambda1)
    digest = _digest(args.input)

    model_doc = _envelope("model", resolved, digest)
    model_doc["standardization"] = prepared.standardizer.to_dict()
    model_doc["selected_lambda2"] = lambda2
    model_doc["model"] = model.to_dict()
    _write_json(args.out, model_doc)

    report_path = args.report or str(Path(args.out).with_suffix("")) + "_report.json"
    report_doc = _envelope("train_report", resolved, digest)
    report_doc["selected_lambda2"] = lambda2
    report_doc["cv"] = cv_doc
    report_doc["report"] = report.to_dict()
    _write_json(report_path, report_doc)

    curve_path = str(Path(args.out).with_suffix("")) + "_loss.csv"
    with open(curve_path, "w", encoding="utf-8") as fh:
        fh.write("epoch,rho,l1,total\n")
        for e, entry in enumerate(report.loss_history, start=1):
            if entry is None:
                fh.write(f"{e},,,\n")
            else:
                fh.write(f"{e},{entry.rho!r},{entry.l1_penalty!r},{entry.total!r}\n")
    if args.svg:
        rho_curve = np.array([np.nan if h is None else h.rho for h in report.loss_history])
        total = np.array([np.nan if h is None else h.total for h in report.loss_history])
        _svg_line_plot(str(Path(args.out).with_suffix("")) + "_loss.svg",
                       [rho_curve, total], ["rho", "total"],
                       f"training loss ({args.mode})")

    last = next((h for h in reversed(report.loss_history) if h is not None), None)
    final_rho = "n/a" if last is None else f"{last.rho:.6f}"
    print(f"mode={args.mode} selected_lambda2={lambda2} final_rho={final_rho} "
          f"nnz_alpha={report.nnz_alpha} model={args.out}")
    return EXIT_OK


def cmd_forecast(args) -> int:
    steps = check_range("rollout_steps", args.steps, "steps", CliDataError)
    with open(args.model, "r", encoding="utf-8") as fh:
        model_doc = json.load(fh)
    if not isinstance(model_doc, dict) or model_doc.get("artifact") != "model":
        raise CliDataError(f"{args.model} is not a model artifact")
    model = TrainedModel.from_dict(model_doc["model"])
    standardizer = Standardizer.from_dict(model_doc["standardization"])
    if standardizer.mean.size != model.dim:
        raise CliDataError(f"standardization has {standardizer.mean.size} coordinates but the "
                           f"model has {model.dim}")
    series = load_csv(args.input)
    if series.dim != model.dim:
        raise CliDataError(
            f"series has {series.dim} coordinates but the model expects {model.dim}"
        )
    std = standardizer.transform(series.values)
    ds = build_delay_dataset(TimeSeries(std, series.dt), model.tau)

    resolved = {
        "command": "forecast",
        "model": str(args.model),
        "input": str(args.input),
        "mode": args.mode,
        "steps": steps,
    }
    digest = _digest(args.input)

    if args.mode == "onestep":
        pred_std = one_step_forecast(model, ds)
        truth_std = ds.Y
        divergence_step = None
    else:
        try:
            pred_std = rollout(model, ds.X[0], steps or ds.n_pairs)
            divergence_step = None
        except RolloutDiverged as err:
            pred_std = err.partial
            divergence_step = err.step
            print(f"rollout diverged at step {err.step}; truncating", file=sys.stderr)
        truth_std = ds.Y[: pred_std.shape[0]]

    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    _write_csv(args.out, standardizer.inverse(pred_std), series.dt)

    scores_doc = _envelope("forecast_scores", resolved, digest)
    if truth_std.shape[0] >= 1 and pred_std.shape[0] >= 1:
        n = min(truth_std.shape[0], pred_std.shape[0])
        scores_doc["scores"] = {
            "smape": smape(standardizer.inverse(pred_std[:n]),
                           standardizer.inverse(truth_std[:n])),
            "hausdorff": hausdorff(pred_std[:n], truth_std[:n]),
            "n_test": n,
        }
    else:
        scores_doc["scores"] = None
    scores_doc["divergence_step"] = divergence_step
    scores_path = args.scores or str(Path(args.out).with_suffix("")) + "_scores.json"
    _write_json(scores_path, scores_doc)
    if scores_doc["scores"]:
        s = scores_doc["scores"]
        print(f"mode={args.mode} smape={s['smape']:.6g} hausdorff={s['hausdorff']:.6g} "
              f"n={s['n_test']}")
    else:
        print(f"mode={args.mode} (no truth rows to score)")
    return EXIT_OK


def _read_manifest(path):
    entries = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#"):
                entries.append(line)
    if not entries:
        raise CliDataError(f"{path}: empty manifest")
    return entries


def cmd_benchmark(args) -> int:
    entries = _read_manifest(args.manifest)
    protocol = _protocol(args)

    series_list = []
    for entry in entries:
        if entry.startswith("builtin:"):
            spec = get_system(entry.split(":", 1)[1])
            series_list.append(integrate_rk4(spec, args.n, None))
        else:
            s = load_csv(entry)
            series_list.append(TimeSeries(s.values, s.dt, Path(entry).stem))
    rows = run_benchmark(series_list, protocol)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    resolved = _resolved({"command": "benchmark", "manifest": str(args.manifest)},
                         protocol, n=args.n)
    report_doc = _envelope("benchmark", resolved, _digest(args.manifest))
    report_doc["note"] = REPORT_HEADER_NOTE
    report_doc["rows"] = [r.to_dict() for r in rows]
    _write_json(out_dir / "report.json", report_doc)
    (out_dir / "report.csv").write_text(emit_report(rows), encoding="utf-8")

    parts = " ".join(f"{k}={v}" for k, v in win_counts(rows).items())
    print(f"win counts: {parts} (scored systems: {len(rows)})")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kflow",
        description="Learn sparse kernel dictionaries and forecast chaotic series.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--tau", type=int)
        p.add_argument("--lambda1", type=float)
        p.add_argument("--lambda2-grid", dest="lambda2_grid",
                       help="comma-separated candidate values")
        p.add_argument("--epochs", type=int)
        p.add_argument("--cv-epochs", dest="cv_epochs", type=int,
                       help="reduced epoch count for CV cells")
        p.add_argument("--lr", type=float)
        p.add_argument("--batch-size", dest="batch_size", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--train-fraction", dest="train_fraction", type=float)
        p.add_argument("--zero-clamp", dest="zero_clamp", type=float)

    g = sub.add_parser("generate", help="integrate a built-in system to CSV")
    g.add_argument("system")
    g.add_argument("--n", type=int, default=7200)
    g.add_argument("--dt", type=float, default=None)
    g.add_argument("--out", required=True)

    t = sub.add_parser("train", help="learn a kernel from a CSV series")
    t.add_argument("input")
    t.add_argument("--mode", choices=("regular", "sparse"), default="sparse")
    t.add_argument("--out", required=True, help="model JSON path")
    t.add_argument("--report", help="report JSON path (default: <out>_report.json)")
    t.add_argument("--svg", action="store_true", help="also write a loss-curve SVG")
    common(t)

    f = sub.add_parser("forecast", help="predict with a saved model")
    f.add_argument("--model", required=True)
    f.add_argument("--input", required=True)
    f.add_argument("--mode", choices=("onestep", "rollout"), default="onestep")
    f.add_argument("--steps", type=int, default=None)
    f.add_argument("--out", required=True, help="predictions CSV path")
    f.add_argument("--scores", help="scores JSON path (default: <out>_scores.json)")

    b = sub.add_parser("benchmark", help="four-method comparison over a manifest")
    b.add_argument("manifest")
    b.add_argument("--out-dir", dest="out_dir", required=True)
    b.add_argument("--n", type=int, default=7200, help="samples for builtin entries")
    b.add_argument("--steps", type=int, default=None, help="rollout length for HD")
    common(b)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args._config_doc = None
    if getattr(args, "config", None):
        try:
            args._config_doc = _load_config_file(args.config)
        except (OSError, ValueError) as err:  # unreadable, not UTF-8 JSON, or not an object
            print(f"config error: {err}", file=sys.stderr)
            return EXIT_USAGE
    handlers = {
        "generate": cmd_generate,
        "train": cmd_train,
        "forecast": cmd_forecast,
        "benchmark": cmd_benchmark,
    }
    try:
        return handlers[args.command](args)
    except NumericalError as err:
        print(f"numerical failure [{type(err).__name__}]: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    except CliDataError as err:
        print(f"data error: {err}", file=sys.stderr)
        return EXIT_DATA
    except _DATA_ERRORS as err:
        print(f"data error [{type(err).__name__}]: {err}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
