#!/usr/bin/env python3
"""Self-test of the performance ledger on shrunken (smoke) inputs.

    python3 perfledger/selftest.py [--binary PATH]

For every workload it checks that
  * an untraced and a traced run pass their gates and emit exactly the
    end-to-end and per-layer metrics BENCHMARK.json lists, with their units,
    plus the workload's own metric lines;
  * a perturbed reference trips the workload's gate (exit 1, correct false);
  * the same seed reproduces the result digests and counts, and another seed
    changes them.
Without --binary it builds the ledger first (as run.py does). Exits 1 on any
failed check.
"""

import argparse
import json
import math
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

# Metric lines each workload prints besides the JSON result (name -> unit).
WORKLOAD_LINES = {
    "solve-native": {"step_ms_p50": "ms", "step_ms_p90": "ms", "step_samples": "count",
                     "ops_failed_frac": "ratio"},
    "partitioned-resilient": {"cell_dof_steps_per_s": "DOF.step/s",
                              "band_dof_steps_per_s": "DOF.step/s",
                              "mgpu_dof_steps_per_s": "DOF.step/s",
                              "ops_failed_frac": "ratio"},
    "service-batch": {"jobs_per_s": "jobs/s", "ops_failed_frac": "ratio"},
}

failures = []


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        failures.append(what)


def execute(binary, workload, seed, trace, *extra):
    code, lines = run.run(binary, workload, seed, 1, trace, ["--smoke", *extra])
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    return code, lines, result


def metric_lines(lines):
    out = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 4 and parts[0] == "metric":
            out[parts[1]] = (float(parts[2]), parts[3])
    return out


def check_result(workload, label, code, lines, result, spec):
    check(code == 0 and result is not None and result["correct"] and result["failed"] == 0
          and result["attempted"] >= 1, f"{workload} {label}: gates pass")
    if result is None:
        return
    metrics = result["metrics"]
    check(list(metrics) == [m["name"] for m in spec],
          f"{workload} {label}: metric names match BENCHMARK.json")
    for m in spec:
        got = metrics.get(m["name"], {})
        value = got.get("value")
        ok = (got.get("unit") == m["unit"] and isinstance(value, (int, float))
              and math.isfinite(value))
        check(ok, f"{workload} {label}: {m['name']} emitted in {m['unit']}")
    seen = metric_lines(lines)
    for name, unit in WORKLOAD_LINES[workload].items():
        check(name in seen and seen[name][1] == unit,
              f"{workload} {label}: metric line {name} in {unit}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--binary", help="ledger binary (default: build it)")
    args = ap.parse_args()
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    binary = args.binary or run.build()

    for workload in run.WORKLOADS:
        code, lines, result = execute(binary, workload, 1, 0)
        check_result(workload, "untraced", code, lines, result, bench["end_to_end"])
        for m in bench["end_to_end"]:
            value = (result or {}).get("metrics", {}).get(m["name"], {}).get("value") or 0
            check(value > 0, f"{workload}: end-to-end {m['name']} is positive")

        tcode, tlines, tresult = execute(binary, workload, 1, 1)
        check_result(workload, "traced", tcode, tlines, tresult, bench["per_layer"])

        pcode, _, presult = execute(binary, workload, 1, 0, "--perturb-reference")
        check(pcode == 1 and presult is not None and not presult["correct"]
              and presult["failed"] >= 1, f"{workload}: perturbed reference trips the gate")

        digests = [l for l in lines if l.startswith("# digest")]
        check(digests and digests == [l for l in tlines if l.startswith("# digest")]
              and result and tresult and result["attempted"] == tresult["attempted"],
              f"{workload}: same seed, same results and counts")
        _, olines, _ = execute(binary, workload, 2, 0)
        check(digests != [l for l in olines if l.startswith("# digest")],
              f"{workload}: another seed changes the inputs")

    print(f"{len(failures)} failed check(s)")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
