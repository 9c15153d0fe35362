#!/usr/bin/env python3
"""Frame benchmark for mvfusion: end-to-end and per-layer metrics per workload.

Run from the root of a checkout of the repository:

  python3 perfbench/run.py                      # every workload, untraced then traced
  python3 perfbench/run.py --workload desk-stream --seed 3 --seconds 25 --trace 0

--seconds is the wall time of the timed rounds; it defaults to, and is meant to be,
BENCHMARK.json's run_seconds, so that runs can be compared.

With --workload, one run of that workload prints a summary and, as its
last line, one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics named in BENCHMARK.json with --trace 0,
the per-layer metrics with --trace 1. Without --workload, each workload
runs in its own process twice (untraced, traced) with the same seed; the
two runs' outputs must be bit-identical on the frames both processed, and
the difference of their end-to-end metrics is reported as the tracing
overhead.

The package is imported from the checkout's src/ directory, never from an
installed copy; without that directory the benchmark exits with status 1.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 4  # processes that only set up, before and after the rounds: setup_s is the median of eight


def pin_one_blas_thread() -> int:
    """Run BLAS/OpenMP on one thread, so the process's CPU time is one core's time.

    Returns the cores this process may run on, for the report.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def import_package() -> None:
    package = SRC / "mvfusion"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: {package} not found; run from the root of a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import mvfusion

    if Path(mvfusion.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: imported mvfusion from {mvfusion.__file__}, expected {package}")


def environment(cores: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": cores,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
    }


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def setup_probes(workload: str, seed: int, times: list) -> None:
    """Run SETUP_PROBES fresh processes that only set up; append their set-up times.

    Each reports its own CPU time at the end of its set-up. A process's CPU
    clock starts with the process, so interpreter start-up and imports count.
    """
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--setup-probe"],
            capture_output=True, text=True, timeout=170, check=True,
        )
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def declared_metrics(spec: dict, section: str, values: dict) -> dict:
    """The metrics BENCHMARK.json names for this mode, with their units."""
    declared = spec[section]
    names = {m["name"] for m in declared}
    missing, extra = names - values.keys(), values.keys() - names
    if missing or extra:
        sys.exit(f"perfbench: {section} metrics do not match BENCHMARK.json "
                 f"(missing {sorted(missing)}, not declared {sorted(extra)})")
    return {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in declared}


def print_summary(name: str, args, env: dict, result: dict, metrics: dict) -> None:
    print(f"perfbench {name} seed={args.seed} seconds={args.seconds} trace={args.trace}: "
          f"{result['extra']['frames']} frames, {result['attempted']} operations attempted, "
          f"{result['failed']} failed")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for key, m in metrics.items():
        print(f"  {key:<34} {m['value']:>14.4f} {m['unit']}")
    if not args.trace:
        for key, value in result["extra"].items():
            unit = "count" if key in ("frames", "labels_without_cells") else "ms"
            print(f"  {key:<34} {value:>14.4f} {unit}  (not gated)")
    elif any(row["macs"] for row in result["conv_table"]):
        print(f"  {'layer':<18} {'ms':>10} {'MMAC':>10} {'GFLOP/s':>8} {'dtype':>8}  in -> out")
        for row in result["conv_table"]:
            print(f"  {row['layer']:<18} {row['ms']:>10.3f} {row['macs'] / 1e6:>10.1f} {row['gflops']:>8.2f} "
                  f"{row['dtype']:>8}  {row['in']} -> {row['out']}")
    fault = result["known_fault"]
    if fault:
        aps = ", ".join(f"{cls} {ap:.4g}" for cls, ap in fault["ap_all_labels"].items())
        print(f"fit AP over all labels: {aps}")
    if fault.get("labels_without_cells"):
        print(f"KNOWN FAULT losses.encode_targets: {fault['labels_without_cells']} labels hold no output-cell "
              "center, get no foreground cell and cannot be fitted; AP 1.0 is checked without them")
    for failure in result["check_failures"]:
        print(f"CHECK FAILED {failure}")


def single_run(args, cores: int, spec: dict) -> int:
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    if args.setup_probe:
        workloads.prepare(wl, args.seed)
        print(json.dumps({"setup_s": time.process_time()}))
        return 0
    workdir = WORK / f"{wl.name}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    setups = []

    def probe():
        if not args.trace:
            setup_probes(wl.name, args.seed, setups)

    try:
        result = workloads.run(wl, args.seed, args.seconds, bool(args.trace), str(workdir), probe)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run is still using it
            pass
    env = environment(cores)
    if args.trace:
        OUT.mkdir(exist_ok=True)
        result.pop("tracer").dump(OUT / f"spans-{wl.name}-seed{args.seed}.jsonl")
        metrics = declared_metrics(spec, "per_layer", result["layers"])
    else:
        metrics = declared_metrics(spec, "end_to_end", {"setup_s": statistics.median(setups), **result["e2e"]})
    print_summary(wl.name, args, env, result, metrics)
    correct = not result["check_failures"]
    detail = {"workload": wl.name, "seed": args.seed, "trace": args.trace, "env": env,
              **{k: result[k] for k in ("attempted", "failed", "digests", "e2e", "extra", "times", "check_failures",
                                       "known_fault")}}
    print("detail " + json.dumps(detail))
    print(json.dumps({"correct": correct, "attempted": result["attempted"], "failed": result["failed"],
                      "metrics": metrics}))
    return 0 if correct else 1


def run_child(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900,
    )
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    detail = next((json.loads(line[len("detail "):]) for line in lines if line.startswith("detail ")), None)
    if proc.returncode != 0 or detail is None:
        sys.exit(f"perfbench: {workload} trace={trace} exited with {proc.returncode}")
    detail["result"] = json.loads(lines[-1])
    return detail


def run_all(args, spec: dict) -> int:
    summary, ok = {}, True
    for name in (w["name"] for w in spec["workloads"]):
        plain = run_child(name, args.seed, args.seconds, 0)
        traced = run_child(name, args.seed, args.seconds, 1)
        common = min(len(plain["digests"]), len(traced["digests"]))
        identical = plain["digests"][:common] == traced["digests"][:common]
        ok &= identical and plain["result"]["correct"] and traced["result"]["correct"]
        overhead = {k: traced["e2e"][k] - plain["e2e"][k] for k in plain["e2e"]}
        summary[name] = {
            "attempted": plain["attempted"], "failed": plain["failed"],
            "metrics": plain["result"]["metrics"],
            "traced_outputs_identical": identical, "frames_compared": common,
            "tracing_overhead": overhead,
        }
        print(f"== {name}: attempted {plain['attempted']}, failed {plain['failed']}, "
              f"traced outputs bit-identical on {common} frames: {identical}")
        for key, m in plain["result"]["metrics"].items():
            extra = f"  (traced {overhead[key]:+.4f})" if key in overhead else ""
            print(f"   {key:<14} {m['value']:>12.4f} {m['unit']}{extra}")
    print(json.dumps({"correct": ok, "workloads": summary}))
    return 0 if ok else 1


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default=None, help="one workload; default: all, each in its own process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"], help="wall time of the timed rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    cores = pin_one_blas_thread()
    import_package()
    if args.workload is None:
        return run_all(args, spec)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    return single_run(args, cores, spec)


if __name__ == "__main__":
    sys.exit(main())
