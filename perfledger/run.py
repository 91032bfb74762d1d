#!/usr/bin/env python3
"""Build and run the performance ledger.

    python3 perfledger/run.py --workload solve-native --seed 1 --seconds 5 --trace 0

Builds the finch libraries and the `ledger` binary from source into
.bench_build/perfledger (CMake, Release), runs one workload in a private
scratch directory under .bench_build/runs that is removed afterwards, and
relays the binary's output. The last line of standard output is the JSON
result. The exit code is the binary's: 0 when every correctness gate passed,
1 when one failed, 2 on a build or usage error. See perfledger/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfledger")
WORKLOADS = ("solve-native", "partitioned-resilient", "service-batch")
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfledger: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configures (once) and builds the ledger binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"library sources not found under {ROOT}/src")
    for tool in ("cmake", "c++"):
        if shutil.which(tool) is None:
            fail(f"{tool} not found on PATH")
    env = dict(os.environ, TMPDIR=os.path.join(BUILD_ROOT, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", BUILD_DIR, "--target", "ledger", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode != 0:
        fail("build failed")
    return os.path.join(BUILD_DIR, "ledger")


def run(binary, workload, seed, seconds, trace, extra=()):
    """Runs one workload; relays its output; returns (exit code, last line)."""
    work_dir = os.path.join(BUILD_ROOT, "runs", f"{workload}-{seed}-{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(os.path.join(work_dir, "tmp"))
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--work-dir", work_dir, *extra]
    if trace:
        trace_dir = os.path.join(BUILD_ROOT, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(trace_dir, f"{workload}-seed{seed}.json")]
    env = {k: v for k, v in os.environ.items()
           if k not in ("FINCH_JIT_DISABLE", "FINCH_JIT_VERIFY", "FINCH_BACKEND")}
    env["TMPDIR"] = os.path.join(work_dir, "tmp")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, text=True,
                              timeout=RUN_TIMEOUT_S)
        code, out = proc.returncode, proc.stdout
    except subprocess.TimeoutExpired:
        code, out = 124, ""
        print(f"perfledger: {workload} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = out.rstrip("\n").split("\n") if out else [""]
    return code, lines


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="shrunken inputs")
    ap.add_argument("--perturb-reference", action="store_true",
                    help="perturb each reference; the gates must fail")
    args = ap.parse_args()

    binary = build()
    extra = [f for f, on in (("--smoke", args.smoke),
                             ("--perturb-reference", args.perturb_reference)) if on]
    code, lines = run(binary, args.workload, args.seed, args.seconds, args.trace, extra)
    try:
        result = json.loads(lines[-1])
        ok = set(result) == {"correct", "attempted", "failed", "metrics"}
    except ValueError:
        ok = False
    if not ok:
        print("\n".join(lines), file=sys.stderr)
        fail("the benchmark did not print a result line", code or 1)
    print("\n".join(lines), flush=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
