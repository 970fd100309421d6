"""Benchmark entry point for funsel: one workload per process, metrics as JSON.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload pca-search-n1000 --seed 0 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn
    python3 perfbench/run.py --self-check            # toy sizes, a few seconds

Each workload runs in a child process (`child.py`) with the BLAS thread
count capped at the number of usable CPUs; workloads never run in
parallel. It prints the machine and input record, one line per
metric with its unit, the failed share, and as its last line one JSON
object with the keys correct, attempted, failed and metrics. With
--trace 0 the metrics are the end-to-end metrics of BENCHMARK.json, with
--trace 1 its per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("pca-search-n1000", "knn-exhaustive-n400", "consistency-n5000")


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def declared_metrics(spec: dict, trace: int) -> dict[str, str]:
    """Metric name -> unit that a run in this trace mode must print."""
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def child_env() -> dict:
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def child_timeout(seconds: float) -> float:
    """Seconds one workload process may take before it is killed."""
    return 3 * seconds + 60


def run_child(workload: str, seed: int, seconds: float, trace: int,
              extra: tuple[str, ...] = ()) -> dict:
    """Run one workload in its own process and return its result object."""
    scratch = ROOT / ".perfbench_tmp" / f"{workload}-{os.getpid()}"
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--scratch", str(scratch), *extra,
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=child_timeout(seconds),
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{workload}: workload process exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload}: workload process printed no result")
    return json.loads(lines[-1])


def contract_result(out: dict, units: dict[str, str]) -> dict:
    """The result object to print; refuses metrics that BENCHMARK.json lacks."""
    if set(out["metrics"]) != set(units):
        missing = sorted(set(units) - set(out["metrics"]))
        extra = sorted(set(out["metrics"]) - set(units))
        raise RuntimeError(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}")
    return {
        "correct": out["attempted"] >= 1 and out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {
            name: {"value": out["metrics"][name], "unit": unit}
            for name, unit in units.items()
        },
    }


def report(out: dict, result: dict) -> None:
    name = out["workload"]
    print("record " + json.dumps(out["record"], sort_keys=True))
    for metric, entry in result["metrics"].items():
        print(f"{name} {metric} = {entry['value']!r} {entry['unit']}")
    share = result["failed"] / result["attempted"] if result["attempted"] else 1.0
    print(f"{name} failed_share = {share!r} share "
          f"({result['failed']} of {result['attempted']} operations)")
    for err in out["errors"]:
        print(f"{name} error: {err}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="funsel benchmark")
    parser.add_argument("--workload", choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="check the benchmark itself at toy sizes")
    parser.add_argument("--write-reference", action="store_true",
                        help="store this commit's outputs for --seed (traced run)")
    args = parser.parse_args(argv)

    spec = load_spec()
    if args.self_check:
        import selfcheck

        return selfcheck.main(spec)
    if args.workload is None:
        parser.error("--workload is required")
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    units = declared_metrics(spec, args.trace)
    extra = ("--write-reference",) if args.write_reference else ()

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        out = run_child(name, args.seed, seconds, args.trace, extra)
        results[name] = contract_result(out, units)
        report(out, results[name])
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


def _exit_on_term(signum, frame):
    # SystemExit unwinds subprocess.run, which then kills and reaps the child.
    sys.exit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _exit_on_term)
    try:
        sys.exit(main())
    except (OSError, RuntimeError, ValueError, KeyError,
            subprocess.TimeoutExpired) as err:
        print(f"perfbench: error: {err}", file=sys.stderr)
        sys.exit(1)
