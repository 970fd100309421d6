"""Run the benchmark over many seeds and summarise each metric.

    python3 perfbench/baseline.py --seeds 1-10 --traced-seeds 0,9 --out perfbench/baseline.json
    python3 perfbench/baseline.py --seeds 11-20 --compare perfbench/baseline.json

Each run is `run.py` in its own process, one after another, called with the
same arguments as any other caller. For every end-to-end metric the summary
holds the ten values, their median and quartiles
(`statistics.quantiles(values, n=4)`) and the spread (q3 - q1) / median,
checked against the metric's bound in BENCHMARK.json. The same summary of
the uncalibrated wall times (see calibrate.py) goes under "wall", unchecked,
to show what the calibration removes. Traced runs give the
median of every per-layer metric. With --compare, the medians are also
compared with those of an earlier summary.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

import run


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def one_run(workload: str, seed: int, trace: int, seconds: float) -> tuple[dict, list[str]]:
    cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True,
                          timeout=run.child_timeout(seconds) + 10)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--traced-seeds", default="")
    parser.add_argument("--out")
    parser.add_argument("--compare")
    args = parser.parse_args(argv)

    spec = run.load_spec()
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    traced_seeds = parse_seeds(args.traced_seeds) if args.traced_seeds else []
    earlier = None
    if args.compare:
        with open(args.compare) as fh:
            earlier = json.load(fh)

    summary = {"run_seconds": spec["run_seconds"], "seeds": seeds,
               "traced_seeds": traced_seeds, "workloads": {}}
    worst = 0.0
    for workload in run.WORKLOAD_NAMES:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        walls: dict[str, list[float]] = {"setup_s": [], "solve_s": []}
        attempted = failed = 0
        record = None
        for seed in seeds:
            started = time.perf_counter()
            result, lines = one_run(workload, seed, 0, seconds)
            record = next(json.loads(l[7:]) for l in lines if l.startswith("record "))
            attempted += result["attempted"]
            failed += result["failed"]
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            for name in walls:
                walls[name].append(record["calibration"][f"wall_{name}"])
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"solve_s={result['metrics']['solve_s']['value']:.3f} "
                  f"wall={time.perf_counter() - started:.1f}s", flush=True)
        entry = {"machine": record["machine"], "input": record["input"],
                 "failed_share": failed / attempted, "attempted": attempted,
                 "end_to_end": {}, "per_layer": {},
                 "wall": {name: summarise(vals) for name, vals in walls.items()}}
        for name, vals in values.items():
            stats = summarise(vals)
            entry["end_to_end"][name] = stats
            line = (f"{workload} {name}: median {stats['median']:.6g} "
                    f"spread {stats['spread']:.4f} (bound {bounds[name]})")
            worst = max(worst, stats["spread"] / bounds[name])
            if earlier is not None:
                before = earlier["workloads"][workload]["end_to_end"][name]["median"]
                shift = stats["median"] / before - 1.0
                line += f" shift vs earlier {shift:+.4f}"
                worst = max(worst, abs(shift) / bounds[name])
            print(line, flush=True)
        traced = [one_run(workload, seed, 1, seconds)[0] for seed in traced_seeds]
        for name in (traced[0]["metrics"] if traced else {}):
            entry["per_layer"][name] = statistics.median(
                t["metrics"][name]["value"] for t in traced
            )
        summary["workloads"][workload] = entry
    print(f"largest spread or shift as a share of its bound: {worst:.3f}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
