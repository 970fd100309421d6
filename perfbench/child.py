"""One workload in its own process: generate, set up, solve, check, trace.

Run by `run.py`, which sets the BLAS thread caps before numpy loads and
reads the JSON object this process prints as its last stdout line.

Untraced (--trace 0): set-up is repeated in short blocks, one before the
first main call and one after each, and the median of all of them is
reported as setup_s; the main call is repeated until its repetitions have
taken --seconds and its median reported as solve_s. Both are timed on
`calibrate.CalibratedClock`, in seconds at a fixed machine speed; the
medians of their wall times go into the run's record. peak_rss_mb is this
process's peak resident set. Traced (--trace 1): the blinding probe runs
first, then untraced and traced repetitions of the main call alternate
and the traced ones give the per-layer numbers.

Every repetition's output is compared with the stored reference for the
seed, when there is one, and a few sampled operations are recomputed by
`reference.py` on every seed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import reference
from calibrate import CalibratedClock
from tracer import Tracer
from workloads import (
    GRID_POINTS, PROBE_EXTRA, TOY_WORKLOADS, WORKLOADS, Workload, write_search_inputs,
)

ROOT = Path(__file__).resolve().parent.parent
SETUP_MIN_REPS = 5
SETUP_BLOCK_S = 1.0
SAMPLED_CHECKS = 4
WARMUP_S = 2.0
WARMUP_N = 1000


def import_program():
    """Import funsel from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import funsel
    from funsel import blinding, cli, fdata, features, objectives, oracle, search, statproc

    if Path(funsel.__file__).resolve().parent != src / "funsel":
        raise ImportError(f"funsel was imported from {funsel.__file__}, not {src}")
    return dict(
        blinding=blinding, cli=cli, fdata=fdata, features=features,
        objectives=objectives, oracle=oracle, search=search, statproc=statproc,
    )


def machine_record() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        cpu = platform.processor()
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


class Workbench:
    """Set-up, main call and checks of one workload on one seed."""

    def __init__(self, wl: Workload, seed: int, scratch: Path, ref_dir, m: dict):
        self.wl, self.seed, self.m = wl, seed, m
        self.stored = reference.load(ref_dir, wl.name, seed)
        self.specs = [m["features"].parse_feature(t) for t in wl.features]
        self.paths = None
        if wl.kind == "search":
            self.paths = write_search_inputs(wl, seed, scratch)
        self.first_output = None
        self.first_bad: set = set()
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    # ---------------------------------------------------------------- set-up

    def setup(self):
        """Everything before the first subset is scored."""
        m, wl = self.m, self.wl
        if wl.kind == "consistency":
            fdata, oracle = m["fdata"], m["oracle"]
            grid = fdata.Grid.uniform(0.0, 1.0, GRID_POINTS)
            basis = oracle.fourier_basis(grid, len(wl.variances))
            self.kl = oracle.KlModel(
                grid, np.zeros(grid.n_points), basis, np.array(wl.variances),
                wl.noise_sd,
            )
            self.task = oracle.PcaTask(wl.model["n_components"])
            return
        cli, statproc = m["cli"], m["statproc"]
        sample = cli.ingest_curves(self.paths["curves"])
        if wl.task == "pca":
            fitted = statproc.fit_fpca(sample, wl.model["n_components"])
        else:
            labels = cli.ingest_targets(self.paths["labels"], "labels", sample)
            fitted = statproc.fit_classifier(
                sample, labels, kind=wl.model["classifier"], k=wl.model["k"]
            )
        self.sample = sample
        self.objective = m["objectives"].Objective(wl.task, fitted)

    def warm_up(self, seconds: float) -> None:
        """Run the main call's inner steps, untimed, for `seconds`.

        Without it the first timed repetition of a process runs cold and is
        5-10% slower than the rest. Search workloads score single features
        through fresh evaluators; consistency runs the harness at n=1000.
        """
        m, wl = self.m, self.wl
        subset_of = m["blinding"].SubsetIndex.of
        started = time.perf_counter()
        try:
            if wl.kind == "consistency":
                args = (self.kl, self.task, self.specs, subset_of(wl.subset), [WARMUP_N], 1)
                while time.perf_counter() - started < seconds:
                    m["oracle"].consistency_harness(*args, seed=self.seed)
                return
            fm = m["features"].build_feature_matrix(self.sample, self.specs)
            feature = 0
            while time.perf_counter() - started < seconds:
                evaluate = m["search"].make_evaluator(self.sample, fm, self.objective, wl.r)
                evaluate(subset_of([feature % wl.p]))
                feature += 1
        except Exception:  # the timed repetitions report any failure
            return

    # ------------------------------------------------------------ main call

    def solve(self, tracer: Tracer | None = None):
        """The timed main call; returns its output in comparable form."""
        m, wl = self.m, self.wl
        if wl.kind == "consistency":
            args = (
                self.kl, self.task, self.specs, m["blinding"].SubsetIndex.of(wl.subset),
                [wl.n], wl.reps,
            )
            call = m["oracle"].consistency_harness
            kwargs = dict(seed=self.seed)
            rows = (
                tracer.span("oracle", call, *args, **kwargs) if tracer
                else call(*args, **kwargs)
            )
            return {"rows": [[r.n, r.rep, r.h_n, r.h] for r in rows]}
        config = m["search"].SearchConfig(r=wl.r, seed=self.seed, **wl.search)
        call = m["search"].run_search
        args = (self.sample, self.specs, self.objective, config)
        result = tracer.span("search", call, *args) if tracer else call(*args)
        return {
            "trace": [
                [e.round, list(e.subset.indices), e.value.raw, e.value.rescaled]
                for e in result.trace
            ],
            "chosen": None if result.chosen is None else list(result.chosen.indices),
            "satisfied": result.satisfied,
            "rounds_used": result.rounds_used,
        }

    def _key(self) -> str:
        return "rows" if self.wl.kind == "consistency" else "trace"

    def expected_ops(self) -> int:
        for source in (self.stored, self.first_output):
            if source is not None:
                return len(source[self._key()])
        return 1

    def record(self, output: dict) -> None:
        """Count the operations of one repetition and those that differ.

        Each repetition is compared with the stored reference for this seed
        and with the first repetition of this run. A different chosen subset
        fails the repetition's last operation.
        """
        key = self._key()
        compare = reference.row_mismatches if key == "rows" else reference.trace_mismatches
        ops = max(len(output[key]), self.expected_ops())
        bad: set = set()
        for expected in (self.stored, self.first_output):
            if expected is None:
                continue
            bad |= compare(output[key], expected[key])
            if key == "trace" and output["chosen"] != expected["chosen"]:
                bad.add(ops - 1)
        self.attempted += ops
        self.failed += len(bad)
        if bad:
            self.errors.append(f"{len(bad)} operation(s) differ from the reference")
        if self.first_output is None:
            self.first_output = output
            self.first_bad = bad

    def fail_rest(self, err: Exception) -> None:
        """An exception fails every operation the repetition would have made."""
        ops = self.expected_ops()
        self.attempted += ops
        self.failed += ops
        self.errors.append(f"{type(err).__name__}: {err}")

    # --------------------------------------------------------------- checks

    def recompute_checks(self) -> None:
        """Recompute sampled operations of the first repetition independently.

        An operation whose recomputation raises counts as failed.
        """
        out = self.first_output
        if out is None:
            return
        wl = self.wl
        if wl.kind == "consistency":
            picks = range(len(out["rows"]))
        else:
            trace = out["trace"]
            picks = {int(i) for i in np.linspace(0, len(trace) - 1, SAMPLED_CHECKS - 1)}
            if out["chosen"] is not None:
                picks.add(next(i for i, e in enumerate(trace) if e[1] == out["chosen"]))
        bad = set()
        for i in sorted(picks):
            try:
                same = self._recompute(out, i)
            except Exception as err:  # the program under test failed: count
                self.errors.append(f"recomputing operation {i}: {type(err).__name__}: {err}")
                same = False
            if not same:
                bad.add(i)
        if bad:
            self.errors.append(f"{len(bad)} sampled operation(s) differ from recomputation")
        self.failed += len(bad - self.first_bad)

    def _recompute(self, out: dict, i: int) -> bool:
        m, wl = self.m, self.wl
        if wl.kind == "consistency":
            n, rep, h_n, _ = out["rows"][i]
            stream = np.random.SeedSequence(entropy=self.seed, spawn_key=(n, rep))
            sample = m["oracle"].simulate(self.kl, n, stream)
            model = m["statproc"].fit_fpca(sample, wl.model["n_components"])
            raw, _ = self._reference_value(model, sample, wl.subset)
            return reference.close(raw, h_n)
        _, subset, raw, rescaled = out["trace"][i]
        want = self._reference_value(self.objective.model, self.sample, subset)
        return reference.close(raw, want[0]) and reference.close(rescaled, want[1])

    def _reference_value(self, model, sample, subset) -> tuple[float, float]:
        """(raw, rescaled) objective of one subset, by `reference.py` alone."""
        fm = self.m["features"].build_feature_matrix(sample, self.specs)
        neighbors = reference.neighbor_sets(fm.values[:, list(subset)], self.wl.r)
        blinded = reference.blinded_curves(sample.curves, neighbors)
        score = reference.pca_objective if self.wl.task == "pca" else reference.classify_objective
        return score(model, sample.curves, blinded)

    # ---------------------------------------------------------------- probe

    def probe(self) -> dict:
        """Call blind_sample directly on the two probe subsets.

        Returns per-call time, tie share and the neighbour-set digests; each
        digest is one operation, checked against this file's r-NN routine
        and against the stored digest when there is one.
        """
        m, wl = self.m, self.wl
        if wl.kind == "consistency":
            stream = np.random.SeedSequence(entropy=self.seed, spawn_key=(wl.n, 0))
            sample = m["oracle"].simulate(self.kl, wl.n, stream)
        else:
            sample = self.sample
        specs = self.specs + [m["features"].parse_feature(PROBE_EXTRA)]
        fm = m["features"].build_feature_matrix(sample, specs)
        seconds, ties, digests = [], 0, {}
        for label, subset in (("continuous", wl.probe_continuous), ("ties", wl.probe_ties)):
            columns = fm.values[:, list(subset)]
            ties += reference.tie_queries(columns, wl.r)
            expected = {reference.digest(reference.neighbor_sets(columns, wl.r))}
            if self.stored is not None:
                expected.add(self.stored["probe"][label])
            self.attempted += 1
            start = time.perf_counter()
            try:
                blinded = m["blinding"].blind_sample(
                    sample, fm, m["blinding"].SubsetIndex.of(subset), wl.r
                )
            except Exception as err:  # the program under test failed: count
                self.failed += 1
                self.errors.append(f"probe {label}: {type(err).__name__}: {err}")
                continue
            seconds.append(time.perf_counter() - start)
            digests[label] = reference.digest(blinded.neighbor_sets)
            del blinded
            if expected != {digests[label]}:
                self.failed += 1
                self.errors.append(f"probe {label}: neighbour sets differ")
        return {
            "probe_s": statistics.fmean(seconds) if seconds else 0.0,
            "tie_share": ties / (2 * sample.n),
            "digests": digests,
        }


# ------------------------------------------------------------------ tracing

def install_tracing(tracer: Tracer, m: dict) -> None:
    """Wrap each layer's entry points under the names their callers use."""
    cli, search, oracle, objectives = m["cli"], m["search"], m["oracle"], m["objectives"]
    statproc = m["statproc"]

    def ingest_bytes(path, *rest, **kw):
        tracer.count("cli.ingest_bytes", os.path.getsize(path))

    def apply_rows(model, curves, *rest, **kw):
        tracer.count("statproc.apply_rows", np.atleast_2d(curves).shape[0])

    def blind_work(sample, fm, subset, r):
        tracer.count("blinding.queries", sample.n)
        tracer.peak("blinding.gather_bytes", sample.n * r * sample.grid.n_points * 8)

    for name in ("ingest_curves", "ingest_targets"):
        tracer.install(cli, name, "cli", ingest_bytes)
    for owner in (search, oracle):
        tracer.install(owner, "build_feature_matrix", "features")
        tracer.install(owner, "blind_sample", "blinding", blind_work)
    for name in ("fit_fpca", "fit_classifier"):
        tracer.install(statproc, name, "statproc.fit")
    tracer.install(oracle, "fit_fpca", "statproc.fit")
    for name in ("fpca_scores_matrix", "classify_batch", "predict_scalar",
                 "predict_functional"):
        tracer.install(objectives, name, "statproc.apply", apply_rows)
    tracer.install(objectives.Objective, "evaluate", "objectives")
    tracer.install(oracle, "h_pca", "objectives")
    tracer.install(oracle, "simulate", "oracle.simulate")
    tracer.install(oracle, "population_h", "oracle.population")

    degenerate_error = objectives.DegenerateObjectiveError
    make_evaluator = getattr(search, "make_evaluator", None)

    def traced_make_evaluator(*args, **kwargs):
        evaluate = make_evaluator(*args, **kwargs)
        seen, degenerate = set(), set()

        def counted(subset):
            tracer.count("search.evaluator_calls")
            if subset in seen:
                tracer.count("search.cache_hits")
            else:
                seen.add(subset)
                tracer.count("search.unique_subsets")
            try:
                return tracer.span("search", evaluate, subset)
            except degenerate_error:
                if subset not in degenerate:
                    degenerate.add(subset)
                    tracer.count("search.degenerate")
                raise

        return counted

    tracer.install(search, "make_evaluator", "search", wrapper=traced_make_evaluator)


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer numbers of one traced repetition (set-up or main call)."""
    c = tracer.counts
    calls = c["search.evaluator_calls"]
    return {
        "cli.ingest_s": tracer.layer_self("cli"),
        "cli.ingest_bytes": c["cli.ingest_bytes"],
        "features.build_s": tracer.layer_self("features"),
        "features.build_calls": tracer.layer_calls("features"),
        "statproc.fit_s": tracer.layer_self("statproc.fit"),
        "statproc.apply_s": tracer.layer_self("statproc.apply"),
        "statproc.apply_calls": tracer.layer_calls("statproc.apply"),
        "statproc.apply_rows": c["statproc.apply_rows"],
        "objectives.evaluate_calls": tracer.layer_calls("objectives"),
        "objectives.self_s": tracer.layer_self("objectives"),
        "blinding.calls": tracer.layer_calls("blinding"),
        "blinding.self_s": tracer.layer_self("blinding"),
        "blinding.queries": c["blinding.queries"],
        "blinding.gather_bytes": tracer.peaks.get("blinding.gather_bytes", 0),
        "search.evaluator_calls": calls,
        "search.cache_hits": c["search.cache_hits"],
        "search.cache_hit_ratio": c["search.cache_hits"] / calls if calls else 0.0,
        "search.unique_subsets": c["search.unique_subsets"],
        "search.degenerate": c["search.degenerate"],
        "search.self_s": tracer.layer_self("search"),
        "oracle.simulate_s": tracer.layer_self("oracle.simulate"),
        "oracle.population_s": tracer.layer_self("oracle.population"),
        "oracle.self_s": tracer.layer_self("oracle"),
    }


# --------------------------------------------------------------------- runs

def run_setups(bench: Workbench, seconds: float,
               clock: CalibratedClock) -> tuple[list[float], list[float]]:
    """One block of set-up repetitions: a twentieth of the run, at most
    SETUP_BLOCK_S, and at least SETUP_MIN_REPS repetitions.

    Returns their wall times and their times on `clock`. Blocks spread
    over the run sample more of the machine's states than one at its start.
    """
    budget = min(SETUP_BLOCK_S, seconds / 20)
    walls: list[float] = []
    times: list[float] = []
    started = time.perf_counter()
    while len(walls) < SETUP_MIN_REPS or time.perf_counter() - started < budget:
        start, calibrated = time.perf_counter(), clock.now("text")
        bench.setup()
        times.append(clock.now("text") - calibrated)
        walls.append(time.perf_counter() - start)
    return walls, times


def fits(durations: list[float], seconds: float) -> bool:
    """Whether another repetition, as long as the mean so far, keeps the
    repetitions within `seconds`. The first repetition always runs.
    """
    if not durations:
        return True
    return sum(durations) + statistics.fmean(durations) <= seconds


def solve_once(bench: Workbench, tracer: Tracer | None = None,
               clock: CalibratedClock | None = None):
    """Time one main call and check its output.

    Returns its wall time, its time on `clock` (None without one) and its
    output (None if it raised).
    """
    start = time.perf_counter()
    calibrated = clock.now("numeric") if clock else None
    try:
        output = bench.solve(tracer)
    except Exception as err:  # the program under test failed: count, report
        output = None
        bench.fail_rest(err)
    if clock:
        calibrated = clock.now("numeric") - calibrated
    elapsed = time.perf_counter() - start
    if output is not None:
        bench.record(output)
    return elapsed, calibrated, output


def run_untraced(bench: Workbench, seconds: float) -> dict:
    with CalibratedClock() as clock:
        setup_walls, setups = run_setups(bench, seconds, clock)
        bench.warm_up(min(WARMUP_S, seconds / 15))
        solve_walls, solves = [], []
        while fits(solve_walls, seconds):
            wall, calibrated, output = solve_once(bench, clock=clock)
            solve_walls.append(wall)
            solves.append(calibrated)
            if output is None:
                break
            walls, times = run_setups(bench, seconds, clock)
            setup_walls += walls
            setups += times
    # Read before the checks, whose own arrays must not set the peak.
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    bench.recompute_checks()
    return {
        "metrics": {
            "setup_s": statistics.median(setups),
            "solve_s": statistics.median(solves),
            "peak_rss_mb": peak_kib / 1024.0,
        },
        "calibration": dict(
            clock.record(),
            wall_setup_s=statistics.median(setup_walls),
            wall_solve_s=statistics.median(solve_walls),
            setup_reps=len(setups),
            solve_reps=len(solves),
        ),
    }


def _mean(values):
    """Mean over repetitions; counts that repeat exactly stay integers."""
    values = list(values)
    if not values:
        return 0
    if all(isinstance(v, int) for v in values) and len(set(values)) == 1:
        return values[0]
    return statistics.fmean(values)


def run_traced(bench: Workbench, seconds: float, m: dict) -> dict:
    bench.setup()  # warm caches before the traced set-up
    tracer = Tracer()
    install_tracing(tracer, m)
    try:
        bench.setup()
        setup_layers = layer_metrics(tracer)
    finally:
        tracer.remove()

    probe = bench.probe()
    bench.warm_up(min(WARMUP_S, seconds / 15))
    plain, traced, per_rep = [], [], []
    while fits([a + b for a, b in zip(plain, traced)], seconds):
        elapsed, _, output = solve_once(bench)
        plain.append(elapsed)
        if output is None:
            break
        tracer.clear()
        install_tracing(tracer, m)
        try:
            elapsed, _, output = solve_once(bench, tracer)
        finally:
            tracer.remove()
        if output is None:
            break
        traced.append(tracer.spans[-1].duration)
        per_rep.append(layer_metrics(tracer))

    metrics = {k: setup_layers[k] + _mean(rep[k] for rep in per_rep) for k in setup_layers}
    bench.errors += [f"tracing: {name} not found; its layer is not measured"
                     for name in tracer.missing]
    bench.recompute_checks()
    metrics.update({
        "search.rounds": (
            bench.first_output.get("rounds_used", 0) if bench.first_output else 0
        ),
        "blinding.probe_s": probe["probe_s"],
        "blinding.tie_share": probe["tie_share"],
        "trace.solve_s": statistics.fmean(traced) if traced else 0.0,
        "trace.overhead_s": (
            statistics.fmean(traced) - statistics.fmean(plain) if traced else 0.0
        ),
    })
    return {
        "metrics": metrics,
        "solve_reps": len(plain) + len(traced),
        "probe_digests": probe["digests"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--toy", action="store_true", help="self-check sizes")
    parser.add_argument("--reference-dir", default=str(reference.REFERENCE_DIR))
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)

    table = TOY_WORKLOADS if args.toy else WORKLOADS
    wl = table[args.workload]
    m = import_program()
    scratch = Path(args.scratch)
    scratch.mkdir(parents=True, exist_ok=True)
    bench = Workbench(wl, args.seed, scratch, args.reference_dir, m)
    if args.trace:
        out = run_traced(bench, args.seconds, m)
    else:
        out = run_untraced(bench, args.seconds)

    if args.write_reference:
        if not args.trace or bench.failed or bench.first_output is None:
            raise SystemExit("references are written from a clean traced run")
        data = dict(bench.first_output, workload=wl.name, seed=args.seed,
                    probe=out["probe_digests"])
        reference.save(args.reference_dir, wl.name, args.seed, data)

    out.update({
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "errors": bench.errors,
        "stored_reference": bench.stored is not None,
        "record": {
            "machine": machine_record(),
            "input": {"n": wl.n, "N": GRID_POINTS, "p": wl.p, "r": wl.r, "seed": args.seed,
                      "toy": args.toy},
            **({"calibration": out.pop("calibration")} if "calibration" in out else {}),
        },
    })
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
