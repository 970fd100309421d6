"""Self-check of the benchmark at toy sizes (`run.py --self-check`).

For each workload, at toy size, it asserts that

1. every metric of BENCHMARK.json is printed with its declared unit, in
   both trace modes, together with the machine and input record;
2. the self times of the layers inside the main call, plus search.self_s
   or oracle.self_s, add up to the traced main call (trace.solve_s);
3. a clean run against a freshly stored reference fails nothing, and the
   same run against a deliberately perturbed reference fails something.
"""

from __future__ import annotations

import json
import math
import shutil

import run

# Metrics whose sum is the traced main call, per workload.
SOLVE_PARTS = {
    "pca-search-n1000": ("features.build_s", "blinding.self_s", "objectives.self_s",
                         "statproc.apply_s", "search.self_s"),
    "knn-exhaustive-n400": ("features.build_s", "blinding.self_s", "objectives.self_s",
                            "statproc.apply_s", "search.self_s"),
    "consistency-n5000": ("features.build_s", "blinding.self_s", "statproc.fit_s",
                          "objectives.self_s", "statproc.apply_s", "oracle.self_s",
                          "oracle.simulate_s", "oracle.population_s"),
}
SEED = 3


def _perturb(path) -> None:
    """Shift the first objective value of a stored reference by 1e-6."""
    with open(path) as fh:
        data = json.load(fh)
    entry = data["rows"][0] if "rows" in data else data["trace"][0]
    entry[2] = entry[2] * (1 + 1e-6) + 1e-6
    with open(path, "w") as fh:
        json.dump(data, fh)


def check_workload(name: str, spec: dict, ref_dir) -> list[str]:
    problems = []
    extra = ("--toy", "--reference-dir", str(ref_dir))

    traced = run.run_child(name, SEED, 0, 1, (*extra, "--write-reference"))
    result = run.contract_result(traced, run.declared_metrics(spec, 1))
    if result["failed"]:
        problems.append(f"{name}: clean traced run failed {result['failed']}: {traced['errors']}")
    if not {"machine", "input"} <= set(traced["record"]):
        problems.append(f"{name}: record lacks machine or input")
    metrics = traced["metrics"]
    parts = sum(metrics[k] for k in SOLVE_PARTS[name])
    if not math.isclose(parts, metrics["trace.solve_s"], rel_tol=1e-9, abs_tol=1e-9):
        problems.append(
            f"{name}: layer self times sum to {parts}, traced main call took "
            f"{metrics['trace.solve_s']}"
        )

    plain = run.run_child(name, SEED, 0, 0, extra)
    result = run.contract_result(plain, run.declared_metrics(spec, 0))
    if not plain["stored_reference"] or result["failed"]:
        problems.append(f"{name}: run against the stored reference failed: {plain['errors']}")

    _perturb(ref_dir / f"{name}-seed{SEED}.json")
    perturbed = run.contract_result(
        run.run_child(name, SEED, 0, 0, extra), run.declared_metrics(spec, 0)
    )
    if not perturbed["failed"] / perturbed["attempted"] > 0:
        problems.append(f"{name}: a perturbed reference was not reported as failed")
    return problems


def main(spec: dict) -> int:
    ref_dir = run.ROOT / ".perfbench_tmp" / "selfcheck-references"
    shutil.rmtree(ref_dir, ignore_errors=True)
    problems = []
    try:
        for name in run.WORKLOAD_NAMES:
            found = check_workload(name, spec, ref_dir)
            problems += found
            print(f"self-check {name}: {'FAILED' if found else 'ok'}")
    finally:
        shutil.rmtree(ref_dir, ignore_errors=True)
    for problem in problems:
        print(f"self-check: {problem}")
    print("self-check passed" if not problems else "self-check failed")
    return 1 if problems else 0
