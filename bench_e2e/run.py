#!/usr/bin/env python3
"""End-to-end benchmark runner: builds the worker, runs it, checks its report.

One run (the BENCHMARK.json command), from the repository root:

    python3 bench_e2e/run.py --workload float_b1 --seed 1 --seconds 10 --trace 0

builds bench_e2e into .bench_build/e2e on first use, runs one workload in a
fresh process, and re-prints the worker's report. The last line is one JSON
object with the keys correct, attempted, failed and metrics: every end-to-end
metric of BENCHMARK.json with --trace 0, every per-layer metric with
--trace 1. --trace 1 also writes the spans to bench_out/TRACE_e2e_<name>.json.

The whole set, in 5 interleaved rounds, written to BENCH_e2e.json:

    python3 bench_e2e/run.py --all --seed 1 [--seconds 10]

A quick check of every workload and every output check (the ctest smoke):

    python3 bench_e2e/run.py --smoke [--binary <path to bench_e2e>]

Exit code 0 when every output check passed; non-zero, without a result line,
when the build or the worker fails or the report breaks the metric contract.
"""
import argparse
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "e2e")
OUT_DIR = os.path.join(ROOT, "bench_out")
WORKER_TIMEOUT_S = 170
ROUNDS = 5  # --all: untraced runs per workload
CLASSIFIER_WORKLOADS = {"float_b1", "float_b8", "offload_b1"}


class ContractError(Exception):
    pass


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def all_workloads(spec):
    return [w["name"] for w in spec["workloads"]]


def build():
    """Configure once, then an incremental build; build output goes to stderr."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "bench_e2e", "-j", "4"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(BUILD_DIR, "bench_e2e")


def reject_constant(token):
    raise ContractError(f"non-finite value {token} in report")


def parse_report(line, spec, trace):
    """The worker's last line, checked against BENCHMARK.json's metric lists."""
    try:
        report = json.loads(line, parse_constant=reject_constant)
    except json.JSONDecodeError as e:
        raise ContractError(f"last line is not JSON: {e}") from e
    if not isinstance(report, dict) or set(report) != {"correct", "attempted", "failed", "metrics"}:
        raise ContractError("report keys must be correct, attempted, failed, metrics")
    if not isinstance(report["correct"], bool):
        raise ContractError("correct must be a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(report[key], int) or isinstance(report[key], bool) or report[key] < 0:
            raise ContractError(f"{key} must be a whole number")
    if report["attempted"] < 1:
        raise ContractError("attempted must be at least 1")
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    metrics = report["metrics"]
    if set(metrics) != set(declared):
        missing = sorted(set(declared) - set(metrics))
        extra = sorted(set(metrics) - set(declared))
        raise ContractError(f"metric names differ from BENCHMARK.json: missing {missing}, "
                            f"extra {extra}")
    for name, m in metrics.items():
        value = m.get("value")
        if not isinstance(value, (int, float)) or isinstance(value, bool) or \
                not math.isfinite(value):
            raise ContractError(f"{name}: value must be a finite number")
        if m.get("unit") != declared[name]:
            raise ContractError(f"{name}: unit {m.get('unit')!r}, declared {declared[name]!r}")
    return report


def run_worker(binary, spec, workload, seed, seconds, trace):
    """One worker process. Returns (stdout lines, checked report)."""
    env = dict(os.environ)
    env.pop("NODETR_TRACE", None)
    if trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        env["NODETR_TRACE"] = os.path.join(OUT_DIR, f"TRACE_e2e_{workload}.json")
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                          timeout=WORKER_TIMEOUT_S, check=False)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode not in (0, 1) or not lines[-1].startswith("{"):
        raise ContractError(f"{workload}: worker exited {proc.returncode} without a report")
    return lines, parse_report(lines[-1], spec, trace)


def one_run(args, spec):
    lines, report = run_worker(build(), spec, args.workload, args.seed, args.seconds, args.trace)
    print("\n".join(lines), flush=True)
    return 0 if report["correct"] else 1


def smoke(args, spec):
    """Every workload briefly, untraced and traced, asserting every check."""
    binary = args.binary or build()
    failures = []
    for workload in all_workloads(spec):
        for trace in (False, True):
            label = f"{workload} trace={int(trace)}"
            try:
                _, report = run_worker(binary, spec, workload, args.seed, 0.4, trace)
            except (ContractError, subprocess.SubprocessError) as e:
                failures.append(f"{label}: {e}")
                continue
            if not report["correct"] or report["failed"]:
                failures.append(f"{label}: output check failed ({report['failed']} of "
                                f"{report['attempted']})")
            coverage = report["metrics"].get("coverage_pct", {}).get("value")
            if trace and workload in CLASSIFIER_WORKLOADS and not 95.0 <= coverage <= 105.0:
                failures.append(f"{label}: coverage_pct {coverage:.2f} outside 95-105")
            print(f"smoke {label}: attempted {report['attempted']}, failed {report['failed']}",
                  flush=True)
    for f in failures:
        print(f"FAIL {f}", file=sys.stderr)
    return 1 if failures else 0


def host_description():
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return model


def gemm_pin(lines):
    for line in lines:
        if line.startswith("gemm pin: "):
            return line[len("gemm pin: "):].split(",")[0]
    return "unknown"


def run_all(args, spec):
    """Interleaved rounds of every workload, then one traced run of each."""
    binary = build()
    workloads = all_workloads(spec)
    order_rng = random.Random(args.seed)
    runs = {w: [] for w in workloads}
    pin = "unknown"
    for r in range(ROUNDS):
        order = list(workloads)
        order_rng.shuffle(order)
        for w in order:
            lines, report = run_worker(binary, spec, w, args.seed, args.seconds, False)
            pin = gemm_pin(lines)
            runs[w].append(report)
            print(f"round {r + 1}/{ROUNDS} {w}: " + ", ".join(
                f"{k} {m['value']:.4g} {m['unit']}" for k, m in report["metrics"].items()),
                flush=True)
    result = {"host": host_description(), "nproc": os.cpu_count(), "gemm_pin": pin,
              "seed": args.seed, "seconds": args.seconds, "workloads": {}}
    ok = True
    for w in workloads:
        _, traced = run_worker(binary, spec, w, args.seed, args.seconds, True)
        reports = runs[w] + [traced]
        ok = ok and all(rep["correct"] for rep in reports)
        end_to_end = {
            m["name"]: {"value": statistics.median(rep["metrics"][m["name"]]["value"]
                                                   for rep in runs[w]),
                        "unit": m["unit"],
                        "runs": [rep["metrics"][m["name"]]["value"] for rep in runs[w]]}
            for m in spec["end_to_end"]}
        result["workloads"][w] = {
            "attempted": sum(rep["attempted"] for rep in reports),
            "failed": sum(rep["failed"] for rep in reports),
            "end_to_end": end_to_end,
            "per_layer": traced["metrics"]}
    out = os.path.join(ROOT, "BENCH_e2e.json")
    with open(out, "w", encoding="utf-8") as f:
        json.dump(result, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"\n{'workload':<12} {'metric':<16} {'median':>12}  unit")
    for w, data in result["workloads"].items():
        for name, m in data["end_to_end"].items():
            print(f"{w:<12} {name:<16} {m['value']:>12.4f}  {m['unit']}")
        print(f"{w:<12} {'failed':<16} {data['failed']:>12d}  of {data['attempted']}")
    print(f"wrote {out}")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--all", action="store_true", help="every workload, interleaved rounds")
    mode.add_argument("--smoke", action="store_true", help="short check of every workload")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--binary", help="--smoke: use this worker instead of building")
    args = parser.parse_args()
    spec = load_spec()
    try:
        if args.smoke:
            return smoke(args, spec)
        args.seconds = args.seconds or spec["run_seconds"]
        if args.all:
            return run_all(args, spec)
        if args.workload not in all_workloads(spec):
            parser.error(f"--workload must be one of {all_workloads(spec)}")
        return one_run(args, spec)
    except (ContractError, subprocess.SubprocessError, OSError) as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
