"""Batch front door: ingestion, config handling, commands, reports.

Commands:
  funsel features     evaluate feature functionals into a CSV table
  funsel blind        write r-NN blinded curves for one feature subset
  funsel select       run the subset search for a task, emit a JSON report
  funsel consistency  empirical-vs-population objective table (synthetic)
  funsel report       turn report JSON files into trace/histogram CSVs

Curve CSV format: header row holds the ascending grid points; every data
row is an id followed by one value per grid point. Every value must be
finite: a file holding inf or nan is refused with its lines named, and no
row is ever dropped. Reports are JSON with
sorted keys; rerunning with the embedded config and seed reproduces the
report byte-for-byte apart from the timing block.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from collections import Counter

import numpy as np

from . import __version__
from .fdata import FunctionalSample, Grid
from .features import build_feature_matrix, feature_label, parse_feature
from .blinding import SubsetIndex, blind_sample
from .objectives import Objective
from .oracle import (
    KlModel,
    PcaTask,
    consistency_harness,
    fourier_basis,
    write_consistency_csv,
)
from .search import RNG_ALGORITHM, SearchConfig, run_search
from .statproc import (
    classify_batch,
    components_for_variance,
    fit_classifier,
    fit_fpca,
    fit_functional_regression,
    fit_scalar_regression,
)

TASKS = ("classify", "pca", "reg-scalar", "reg-fun")


# ---------------------------------------------------------------- ingestion

def _parse_float(cell: str, where: str) -> float:
    try:
        return float(cell)
    except ValueError:
        raise ValueError(f"{where}: cannot parse number {cell!r}") from None


def ingest_curves(path) -> FunctionalSample:
    """Load a curve CSV: header = grid points, rows = id + values.

    Every grid point and curve value must be finite. Blinding averages
    each curve with its neighbours, so every row is part of the result
    and none is ever dropped: a file with non-finite values is refused
    with one ValueError naming all the offending lines. Blank lines are
    skipped, and line numbers in errors are physical file lines.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next((row for row in reader if row), None)
        if header is None:
            raise ValueError(f"{path}: empty file")
        points = np.array(
            [_parse_float(c, f"{path} header") for c in header]
        )
        if not np.all(np.isfinite(points)):
            raise ValueError(f"{path} header: grid points must be finite")
        if points.size < 2 or np.any(np.diff(points) <= 0):
            raise ValueError(f"{path}: header grid points must be ascending")
        ids, values, bad_lines = [], [], []
        for row in reader:
            if not row:
                continue
            where = f"{path} line {reader.line_num}"
            if len(row) != points.size + 1:
                raise ValueError(
                    f"{where}: expected {points.size + 1} fields, got {len(row)}"
                )
            vals = [_parse_float(c, where) for c in row[1:]]
            if not all(math.isfinite(v) for v in vals):
                bad_lines.append(reader.line_num)
            ids.append(row[0])
            values.append(vals)
    if bad_lines:
        raise ValueError(f"{path}: non-finite values on lines {bad_lines}")
    if not ids:
        raise ValueError(f"{path}: no curve rows")
    grid = Grid.from_points(points)
    return FunctionalSample(grid, np.array(values), tuple(ids))


def write_curves(sample: FunctionalSample, path) -> None:
    """Write curves in the same CSV format ingest_curves reads."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([repr(float(p)) for p in sample.grid.points])
        for cid, row in zip(sample.ids, sample.curves):
            writer.writerow([cid, *(repr(float(v)) for v in row)])


def ingest_targets(path, kind: str, sample: FunctionalSample):
    """Load responses keyed by id and align them to the sample order.

    kind "labels" -> int array, "scalar" -> float array, "functional" ->
    FunctionalSample on its own grid, reordered to match the x sample.
    """
    if kind == "functional":
        y = ingest_curves(path)
        mapping = {cid: i for i, cid in enumerate(y.ids)}
        _check_ids(set(mapping), set(sample.ids), path)
        order = [mapping[cid] for cid in sample.ids]
        return FunctionalSample(y.grid, y.curves[order], sample.ids)
    table: dict[str, float] = {}
    with open(path, newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row:
                continue
            if len(row) != 2:
                raise ValueError(f"{path} line {lineno}: expected id,value")
            cid = row[0]
            if cid in table:
                raise ValueError(f"{path}: duplicate id {cid!r}")
            table[cid] = _parse_float(row[1], f"{path} line {lineno}")
    _check_ids(set(table), set(sample.ids), path)
    aligned = np.array([table[cid] for cid in sample.ids])
    if kind == "labels":
        labels = aligned.astype(int)
        if np.any(labels != aligned):
            raise ValueError(f"{path}: labels must be integers")
        return labels
    if kind == "scalar":
        return aligned
    raise ValueError(f"unknown target kind {kind!r}")


def _check_ids(got: set, expected: set, path) -> None:
    missing = sorted(expected - got)
    extra = sorted(got - expected)
    if missing:
        raise ValueError(f"{path}: missing ids {missing}")
    if extra:
        raise ValueError(f"{path}: unexpected ids {extra}")


# ------------------------------------------------------------ config & run

_SEARCH_DEFAULTS = {
    "epsilon_tol": 0.05,
    "d1": 1,
    "n_keep": 3,
    "n_branch": None,  # defaults to min(5, p)
    "r": 3,
    "d_max": None,  # defaults to p
    "max_rounds": 50,
    "seed": None,
    "standardize_features": False,
}

_MODEL_DEFAULTS = {
    "n_components": None,
    "x_components": None,
    "y_components": None,
    "classifier": "nearest_centroid",
    "knn_k": 3,
}


def _load_config(path) -> dict:
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    return cfg


def _resolve_select_config(args: argparse.Namespace) -> dict:
    """Merge config file and flags; a flag always wins."""
    cfg = _load_config(args.config) if args.config else {}
    search = {**_SEARCH_DEFAULTS, **cfg.get("search", {})}
    model = {**_MODEL_DEFAULTS, **cfg.get("model", {})}
    flags = {
        "epsilon_tol": args.epsilon,
        "d1": args.d1,
        "n_keep": args.n0,
        "n_branch": args.n1,
        "r": args.r,
        "d_max": args.d_max,
        "max_rounds": args.max_rounds,
        "seed": args.seed,
    }
    for key, value in flags.items():
        if value is not None:
            search[key] = value
    if args.standardize_features:
        search["standardize_features"] = True
    for key, flag in (
        ("n_components", args.n_components),
        ("x_components", args.x_components),
        ("y_components", args.y_components),
        ("classifier", args.classifier),
        ("knn_k", args.knn_k),
    ):
        if flag is not None:
            model[key] = flag

    features = list(cfg.get("features", []))
    features.extend(_collect_features(args))
    resolved = {
        "version": 1,
        "task": args.task or cfg.get("task"),
        "curves": args.curves or cfg.get("curves"),
        "labels": args.labels or cfg.get("labels"),
        "scalar_response": args.scalar_response or cfg.get("scalar_response"),
        "functional_response": args.functional_response
        or cfg.get("functional_response"),
        "features": features,
        "search": search,
        "model": model,
    }
    if resolved["task"] not in TASKS:
        raise ValueError(f"task must be one of {TASKS}, got {resolved['task']!r}")
    if not resolved["curves"]:
        raise ValueError("no curves file given (flag --curves or config key)")
    if not resolved["features"]:
        raise ValueError("no feature specs given")
    return resolved


def _collect_features(args: argparse.Namespace) -> list[str]:
    found = list(args.feature or [])
    if getattr(args, "features_file", None):
        with open(args.features_file) as fh:
            for line in fh:
                line = line.strip()
                if line and not line.startswith("#"):
                    found.append(line)
    return found


def _fit_task_model(task: str, sample: FunctionalSample, cfg: dict) -> tuple[Objective, dict]:
    model_cfg = cfg["model"]
    if task == "pca":
        l = model_cfg["n_components"]
        if l is None:
            full = fit_fpca(sample, min(sample.n, sample.grid.n_points))
            l = components_for_variance(full.eigenvalues)
        fitted = fit_fpca(sample, int(l))
        summary = {
            "n_components": fitted.n_components,
            "eigenvalues": [float(v) for v in fitted.eigenvalues],
            "total_variance": fitted.total_variance,
        }
        return Objective("pca", fitted), summary
    if task == "classify":
        labels = ingest_targets(cfg["labels"], "labels", sample)
        fitted = fit_classifier(
            sample, labels, kind=model_cfg["classifier"], k=int(model_cfg["knn_k"])
        )
        predicted = classify_batch(fitted, sample.curves)
        confusion = Counter(zip(labels.tolist(), predicted.tolist()))
        summary = {
            "kind": fitted.kind,
            "k": fitted.k,
            "classes": [int(c) for c in fitted.classes],
            "training_confusion": sorted(
                [[int(a), int(b), int(n)] for (a, b), n in confusion.items()]
            ),
        }
        return Objective("classify", fitted), summary
    if task == "reg-scalar":
        y = ingest_targets(cfg["scalar_response"], "scalar", sample)
        n_comp = model_cfg["n_components"]
        fitted = fit_scalar_regression(
            sample, y, None if n_comp is None else int(n_comp)
        )
        w = fitted.grid.weights
        summary = {
            "n_components": fitted.n_components,
            "intercept": fitted.intercept,
            "beta_l2_norm": float(np.sqrt(np.sum(w * fitted.beta**2))),
        }
        return Objective("reg-scalar", fitted), summary
    if task == "reg-fun":
        y = ingest_targets(cfg["functional_response"], "functional", sample)
        xc, yc = model_cfg["x_components"], model_cfg["y_components"]
        fitted = fit_functional_regression(
            sample,
            y,
            None if xc is None else int(xc),
            None if yc is None else int(yc),
        )
        wx, wy = fitted.x_grid.weights, fitted.y_grid.weights
        frob = float(
            np.sqrt(np.sum(wx[:, None] * wy[None, :] * fitted.beta_surface**2))
        )
        summary = {
            "truncations": list(fitted.truncations),
            "beta_frobenius_norm": frob,
        }
        return Objective("reg-fun", fitted), summary
    raise ValueError(f"unknown task {task!r}")


def run_select(cfg: dict) -> dict:
    """Execute a resolved select config and assemble the report."""
    started = time.perf_counter()
    sample = ingest_curves(cfg["curves"])
    specs = tuple(parse_feature(text) for text in cfg["features"])
    search_cfg = dict(cfg["search"])
    if search_cfg.get("d_max") is None:
        search_cfg["d_max"] = len(specs)
    if search_cfg.get("n_branch") is None:
        search_cfg["n_branch"] = min(5, len(specs))
    if search_cfg.get("seed") is None:
        if search_cfg["d_max"] != search_cfg["d1"]:
            raise ValueError("--seed is required unless d_max equals d1")
        search_cfg["seed"] = 0
    config = SearchConfig(
        epsilon_tol=float(search_cfg["epsilon_tol"]),
        d1=int(search_cfg["d1"]),
        n_keep=int(search_cfg["n_keep"]),
        n_branch=int(search_cfg["n_branch"]),
        r=int(search_cfg["r"]),
        d_max=int(search_cfg["d_max"]),
        max_rounds=int(search_cfg["max_rounds"]),
        seed=int(search_cfg["seed"]),
        standardize_features=bool(search_cfg["standardize_features"]),
    )
    objective, model_summary = _fit_task_model(cfg["task"], sample, cfg)
    result = run_search(sample, specs, objective, config)

    labels = [feature_label(s) for s in specs]
    chosen = list(result.chosen.indices) if result.chosen else None
    report = {
        "version": 1,
        "tool": {"name": "funsel", "version": __version__},
        "task": cfg["task"],
        "config": {**cfg, "search": {**search_cfg}},
        "rng_algorithm": RNG_ALGORITHM,
        "feature_labels": labels,
        "model_summary": model_summary,
        "result": {
            "satisfied": result.satisfied,
            "chosen": chosen,
            "chosen_labels": [labels[i] for i in chosen] if chosen else None,
            "value": None
            if result.value is None
            else {
                "raw": result.value.raw,
                "rescaled": result.value.rescaled,
                "denominator": result.value.denominator,
            },
            "rounds_used": result.rounds_used,
            "n_evaluations": len(result.trace),
            "trace": [
                {
                    "round": entry.round,
                    "subset": list(entry.subset.indices),
                    "raw": entry.value.raw,
                    "rescaled": entry.value.rescaled,
                }
                for entry in result.trace
            ],
        },
        "timing": {"seconds": time.perf_counter() - started},
    }
    return report


# ------------------------------------------------------------- subcommands

def _cmd_features(args) -> int:
    sample = ingest_curves(args.curves)
    specs = [parse_feature(t) for t in _collect_features(args)]
    if not specs:
        raise ValueError("no feature specs given")
    fm = build_feature_matrix(sample, specs)
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", *fm.labels])
        for cid, row in zip(sample.ids, fm.values):
            writer.writerow([cid, *(repr(float(v)) for v in row)])
    print(f"wrote {fm.n}x{fm.p} feature table to {args.out}", file=sys.stderr)
    return 0


def _cmd_blind(args) -> int:
    sample = ingest_curves(args.curves)
    specs = [parse_feature(t) for t in _collect_features(args)]
    fm = build_feature_matrix(sample, specs)
    subset = SubsetIndex.of(int(s) for s in args.subset.split(","))
    blinded = blind_sample(sample, fm, subset, args.r)
    write_curves(FunctionalSample(sample.grid, blinded.curves, sample.ids), args.out)
    print(
        f"wrote blinded curves (subset {list(subset.indices)}, r={args.r}) "
        f"to {args.out}",
        file=sys.stderr,
    )
    return 0


def _cmd_select(args) -> int:
    cfg = _resolve_select_config(args)
    report = run_select(cfg)
    out = args.out or "report.json"
    with open(out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    res = report["result"]
    status = "satisfied" if res["satisfied"] else "best seen"
    print(
        f"{status}: subset {res['chosen']} ({res['chosen_labels']}) "
        f"rescaled={None if res['value'] is None else res['value']['rescaled']}",
        file=sys.stderr,
    )
    print(f"wrote report to {out}", file=sys.stderr)
    return 0


def _cmd_consistency(args) -> int:
    cfg = _load_config(args.config)
    grid_cfg = cfg["grid"]
    grid = Grid.uniform(
        float(grid_cfg["a"]), float(grid_cfg["b"]), int(grid_cfg["n_points"])
    )
    variances = np.array([float(v) for v in cfg["variances"]])
    basis = fourier_basis(grid, variances.size)
    model = KlModel(
        grid,
        np.zeros(grid.n_points),
        basis,
        variances,
        float(cfg.get("noise_sd", 0.0)),
    )
    task = PcaTask(int(cfg["n_components"]))
    specs = [parse_feature(t) for t in cfg["features"]]
    subset = SubsetIndex.of(int(i) for i in cfg["subset"])
    rows = consistency_harness(
        model,
        task,
        specs,
        subset,
        [int(n) for n in cfg["n_list"]],
        int(cfg["reps"]),
        seed=int(cfg.get("seed", 0)),
    )
    out = args.out or cfg.get("out", "consistency.csv")
    write_consistency_csv(rows, out)
    print(f"wrote {len(rows)} rows to {out}", file=sys.stderr)
    return 0


def _cmd_report(args) -> int:
    reports = []
    for path in args.reports:
        with open(path) as fh:
            reports.append((path, json.load(fh)))
    for path, rep in reports:
        res = rep["result"]
        val = res["value"]["rescaled"] if res["value"] else None
        print(
            f"{path}: task={rep['task']} satisfied={res['satisfied']} "
            f"chosen={res['chosen_labels']} rescaled={val} "
            f"evaluations={res['n_evaluations']} rounds={res['rounds_used']}"
        )
    if args.trace_csv:
        path, rep = reports[0]
        with open(args.trace_csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["round", "subset", "raw", "rescaled"])
            for entry in rep["result"]["trace"]:
                writer.writerow(
                    [
                        entry["round"],
                        " ".join(str(i) for i in entry["subset"]),
                        repr(entry["raw"]),
                        repr(entry["rescaled"]),
                    ]
                )
        print(f"wrote trace of {path} to {args.trace_csv}", file=sys.stderr)
    if args.hist_csv:
        counts: Counter = Counter()
        labels: dict[int, str] = {}
        for _, rep in reports:
            chosen = rep["result"]["chosen"] or []
            for idx in chosen:
                counts[idx] += 1
                labels[idx] = rep["feature_labels"][idx]
        with open(args.hist_csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["feature_index", "label", "count"])
            for idx in sorted(counts):
                writer.writerow([idx, labels[idx], counts[idx]])
        print(f"wrote selection histogram to {args.hist_csv}", file=sys.stderr)
    return 0


def _add_feature_args(parser) -> None:
    parser.add_argument(
        "--feature",
        action="append",
        help="feature spec in canonical form (repeatable), e.g. point@12",
    )
    parser.add_argument(
        "--features-file", help="file with one feature spec per line"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="funsel",
        description="Feature selection for functional data via blinded curves.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_feat = sub.add_parser("features", help="evaluate feature functionals")
    p_feat.add_argument("--curves", required=True)
    _add_feature_args(p_feat)
    p_feat.add_argument("--out", required=True)
    p_feat.set_defaults(func=_cmd_features)

    p_blind = sub.add_parser("blind", help="write blinded curves")
    p_blind.add_argument("--curves", required=True)
    _add_feature_args(p_blind)
    p_blind.add_argument("--subset", required=True, help="comma-separated indices")
    p_blind.add_argument("--r", type=int, required=True, help="neighbor count")
    p_blind.add_argument("--out", required=True)
    p_blind.set_defaults(func=_cmd_blind)

    p_sel = sub.add_parser("select", help="run the subset search")
    p_sel.add_argument("--task", choices=TASKS)
    p_sel.add_argument("--curves")
    p_sel.add_argument("--labels")
    p_sel.add_argument("--scalar-response")
    p_sel.add_argument("--functional-response")
    p_sel.add_argument("--config", help="JSON config; flags override it")
    _add_feature_args(p_sel)
    p_sel.add_argument("--epsilon", type=float, help="rescaled threshold")
    p_sel.add_argument("--d1", type=int)
    p_sel.add_argument("--n0", type=int, help="subsets retained per round")
    p_sel.add_argument("--n1", type=int, help="random branches per subset")
    p_sel.add_argument("--r", type=int, help="neighbor count for blinding")
    p_sel.add_argument("--d-max", type=int)
    p_sel.add_argument("--max-rounds", type=int)
    p_sel.add_argument("--seed", type=int)
    p_sel.add_argument("--standardize-features", action="store_true")
    p_sel.add_argument("--n-components", type=int)
    p_sel.add_argument("--x-components", type=int)
    p_sel.add_argument("--y-components", type=int)
    p_sel.add_argument("--classifier", choices=("nearest_centroid", "knn"))
    p_sel.add_argument("--knn-k", type=int)
    p_sel.add_argument("--out")
    p_sel.set_defaults(func=_cmd_select)

    p_cons = sub.add_parser("consistency", help="empirical vs population table")
    p_cons.add_argument("--config", required=True)
    p_cons.add_argument("--out")
    p_cons.set_defaults(func=_cmd_consistency)

    p_rep = sub.add_parser("report", help="summarize reports, emit CSVs")
    p_rep.add_argument("reports", nargs="+")
    p_rep.add_argument("--trace-csv")
    p_rep.add_argument("--hist-csv")
    p_rep.set_defaults(func=_cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as err:  # diagnostics go to stderr, not the report
        print(f"funsel {args.command}: error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
