#!/usr/bin/env python3
"""Serving benchmark runner.

Builds the benchmark (and libmant, from this checkout's sources) with
CMake, runs one workload, and prints the result as the last line of
stdout:

    python3 perfbench/run.py --workload chat_decode --seed 1 \
        --seconds 20 --trace 0

--trace 0 runs the untraced binary and reports the end-to-end metrics.
--trace 1 runs the untraced binary and then the traced one on the same
seed, reports the per-layer metrics plus bench.trace_overhead, and
fails unless both runs produced the same tokens for every request they
both finished. Run from the root of the checkout. See
perfbench/README.md for the metrics and workloads.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("chat_decode", "long_context", "open_loop_mixed")
RUN_TIMEOUT_S = 170  # per run.py call: split between the binaries it runs


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(root, build_dir):
    """Configure and build both binaries; returns their directory."""
    src = root / "perfbench"
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    if (build_dir / "CMakeCache.txt").exists():
        gen = []  # keep the generator the cache was made with
    subprocess.run(
        ["cmake", "-S", str(src), "-B", str(build_dir),
         "-DCMAKE_BUILD_TYPE=Release", *gen],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(
        ["cmake", "--build", str(build_dir), "-j", jobs, "--target",
         "perfbench_serve", "perfbench_serve_traced"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return build_dir


def run_binary(exe, args, workdir, timeout, trace_out=None):
    """Run one benchmark binary; echo its report, return its JSON."""
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--workdir", str(workdir)]
    if trace_out:
        cmd += ["--trace-out", str(trace_out)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line, flush=True)
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{exe.name} exited {proc.returncode} "
                           "without a result")
    result = json.loads(lines[-1])
    if proc.returncode != 0 or not result["correct"]:
        for v in result.get("violations", []):
            log(f"correctness gate: {v}")
    return result, proc.returncode


def compare_digests(untraced, traced):
    """Requests finished by both runs must carry equal token digests.
    Returns (violations, FNV-1a of the shared digests, shared count)."""
    a, b = untraced["digests"], traced["digests"]
    shared = sorted(set(a) & set(b), key=int)
    bad = [k for k in shared if a[k] != b[k]]
    h = 0xcbf29ce484222325
    for k in shared:
        for byte in int(a[k], 16).to_bytes(8, "little"):
            h = ((h ^ byte) * 0x100000001b3) & 0xFFFFFFFFFFFFFFFF
    violations = []
    if not shared:
        violations.append("traced and untraced runs share no finished "
                          "request")
    if bad:
        violations.append(f"{len(bad)} requests differ between traced and "
                          f"untraced runs (first: {bad[0]})")
    return violations, h, len(shared)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    root = Path.cwd()
    if not (root / "perfbench" / "CMakeLists.txt").exists():
        log("run.py: run from the root of the checkout")
        return 2
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    target = target if target.is_absolute() else root / target
    build_dir = target / "perfbench"
    workdir = build_dir / "work"
    try:
        build(root, build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"run.py: build failed: {e}")
        return 2
    workdir.mkdir(parents=True, exist_ok=True)

    try:
        timeout = RUN_TIMEOUT_S / (1 + args.trace)
        untraced, rc = run_binary(build_dir / "perfbench_serve", args,
                                  workdir, timeout)
        if args.trace == 0:
            out = untraced
        else:
            trace_out = (workdir /
                         f"{args.workload}-seed{args.seed}.spans")
            traced, rc2 = run_binary(build_dir / "perfbench_serve_traced",
                                     args, workdir, timeout, trace_out)
            rc = rc or rc2
            violations, checksum, shared = compare_digests(untraced, traced)
            for v in violations:
                log(f"correctness gate: {v}")
            out = traced
            out["correct"] = (untraced["correct"] and traced["correct"]
                              and not violations)
            overhead = 1.0 - traced["output_tok_s"] / untraced["output_tok_s"]
            out["metrics"]["bench.trace_overhead"] = {
                "value": overhead, "unit": "frac"}
            print(f"traced vs untraced: {shared} shared requests, token "
                  f"checksum {checksum:016x} "
                  f"({'equal' if not violations else 'DIFFERENT'}); "
                  f"trace overhead {overhead:.4f}", flush=True)
            if violations:
                rc = rc or 1
    except (RuntimeError, subprocess.TimeoutExpired, OSError,
            json.JSONDecodeError) as e:
        log(f"run.py: {e}")
        return 2

    print(json.dumps({"correct": bool(out["correct"]),
                      "attempted": int(out["attempted"]),
                      "failed": int(out["failed"]),
                      "metrics": out["metrics"]}), flush=True)
    return 0 if out["correct"] and rc == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
