#!/usr/bin/env python3
"""Regenerate the reference figures in perfbench/README.md.

  python3 perfbench/reference.py                     # 2 sets of 10 seeds per workload + one traced run each
  python3 perfbench/reference.py --seeds 1 2 3 --workloads desk-fit --no-trace

A set runs the benchmark once per seed (untraced) on every workload and
prints, per end-to-end metric, the median over seeds and the spread: the
distance between the first and third quartiles as a share of the median.
Sets are made one after another; each later set's medians are then compared
with the first set's against BENCHMARK.json's bounds, with the share of
failed operations. Last, one traced run per workload gives the per-layer
table (ms, MACs, GFLOP/s, dtype, shapes). Runs are sequential, each in its
own process. The raw results are also written to
.perfbench_out/reference.json.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS = 2  # sets made one after another: the second shows how far two sets of the same code differ


def run(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900, cwd=ROOT,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} trace {trace} failed ({proc.returncode}):\n{proc.stdout}\n{proc.stderr}")
    detail = next(json.loads(line[len("detail "):]) for line in lines if line.startswith("detail "))
    return {"detail": detail, "result": json.loads(lines[-1]), "table": lines}


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def untraced_set(name: str, seeds: list[int], bounds: dict, label: str) -> dict:
    """One run per seed; prints the median and spread of every end-to-end metric."""
    runs = [run(name, seed, 0) for seed in seeds]
    frames = [r["detail"]["extra"]["frames"] for r in runs]
    attempted = [r["result"]["attempted"] for r in runs]
    failed = [r["result"]["failed"] for r in runs]
    print(f"\n### {name}, {label}: {len(seeds)} seeds {seeds[0]}..{seeds[-1]}, "
          f"frames per run {min(frames)}-{max(frames)}, attempted {min(attempted)}-{max(attempted)}, "
          f"failed {min(failed)}-{max(failed)}")
    print("env: " + ", ".join(f"{k} {v}" for k, v in runs[0]["detail"]["env"].items()) + "\n")
    print("| metric | median | IQR / median | bound |")
    print("|---|---|---|---|")
    medians = {}
    for metric in bounds:
        values = [r["result"]["metrics"][metric]["value"] for r in runs]
        unit = runs[0]["result"]["metrics"][metric]["unit"]
        medians[metric] = statistics.median(values)
        iqr = f"{spread(values):.3f}" if len(values) >= 2 else "-"
        print(f"| {metric} | {medians[metric]:.4g} {unit} | {iqr} | {bounds[metric]} |")
    shares = sorted({r["result"]["failed"] / r["result"]["attempted"] for r in runs})
    print(f"\nfailed/attempted per run: {shares}")
    cellless = [r["detail"]["extra"].get("labels_without_cells") for r in runs]
    if any(cellless):
        print(f"labels without cells per run (known fault of encode_targets): {cellless}")
    return {"seeds": seeds, "medians": medians, "failed_shares": shares,
            "runs": [r["result"] for r in runs], "times": [r["detail"]["times"] for r in runs],
            "frames": frames, "known_fault": [r["detail"]["known_fault"] for r in runs]}


def traced_table(name: str, seed: int) -> dict:
    traced = run(name, seed, 1)
    print(f"\nper-layer, {name}, traced run, seed {seed}:\n")
    print("| metric | value |")
    print("|---|---|")
    for key, m in traced["result"]["metrics"].items():
        if not key.endswith((".ms", ".gflops")) or key.startswith("network.conv"):
            print(f"| {key} | {m['value']:.4g} {m['unit']} |")
    start = next((i for i, line in enumerate(traced["table"]) if line.strip().startswith("layer ")), None)
    if start is not None:
        print("\n```")
        print("\n".join(line for line in traced["table"][start:] if line.startswith("  ")))
        print("```")
    return traced["result"]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--no-trace", action="store_true")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    sets = [{name: untraced_set(name, args.seeds, bounds, f"set {k + 1}") for name in args.workloads}
            for k in range(SETS)]
    raw = {"sets": sets}
    for k in range(1, len(sets)):
        print(f"\n### set {k + 1} against set 1: change of the median (positive is worse)\n")
        print("| workload | " + " | ".join(bounds) + " | failed share equal |")
        print("|---|" + "---|" * (len(bounds) + 1))
        for name in args.workloads:
            first, later = sets[0][name], sets[k][name]
            cells = []
            for metric, bound in bounds.items():
                change = later["medians"][metric] / first["medians"][metric] - 1.0
                cells.append(f"{change:+.3f}" + ("" if change <= bound else " OVER BOUND"))
            same = first["failed_shares"] == later["failed_shares"]
            print(f"| {name} | " + " | ".join(cells) + f" | {'yes' if same else 'NO'} |")
    if not args.no_trace:
        raw["traced"] = {name: traced_table(name, args.seeds[0]) for name in args.workloads}
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    (out / "reference.json").write_text(json.dumps(raw, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
