#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload coold-small-open --seed 1 \
        --seconds 20 --trace 0

Run from the root of a checkout. Builds coold and the benchmark client from
source into .bench_build/perfbench (incrementally after the first run), runs
one workload, checks the printed metrics against BENCHMARK.json, and prints
the result as the last line of standard output. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones. A per-layer metric of a
layer the workload does not exercise reports 0; a missing metric of one it
does fails the run. Exits non-zero without a result when the build, the run
or a check of the output fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(".bench_build", "perfbench")
WORKLOADS = ("coold-small-open", "coold-large-closed", "gateway-month")
RUN_TIMEOUT_S = 150

# Name prefixes of the per-layer metrics each workload must report.
COOLD_LAYERS = ("svc.", "core.plan.", "submodular.", "obs.")
GATEWAY_LAYERS = ("energy.", "core.plan_day_ms", "proto.", "sim.", "net.")
SHARED_LAYERS = ("core.lazy_greedy.", "core.greedy.", "core.hef.", "core.repair.",
                 "util.parallel.", "trace.", "latency.")
OWN_LAYERS = {
    "coold-small-open": COOLD_LAYERS + SHARED_LAYERS + ("loadgen.",),
    "coold-large-closed": COOLD_LAYERS + SHARED_LAYERS,
    "gateway-month": GATEWAY_LAYERS + SHARED_LAYERS,
}


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    log_path = os.path.join(".bench_build", "build.log")
    os.makedirs(".bench_build", exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1),
                  "--target", "coold", "coolbench"])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                fail("build failed: " + " ".join(step))


def expected_metrics(trace):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    os.chdir(ROOT)
    expected = expected_metrics(args.trace)
    build()

    workdir = os.path.join(".bench_build", "run-" + args.workload)
    command = [os.path.join(BUILD, "coolbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--coold", os.path.join(BUILD, "coold"),
               "--workdir", workdir]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("coolbench ran past %d s" % RUN_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail("coolbench exited with %d" % done.returncode)
    result = json.loads(lines[-1])

    metrics = result["metrics"]
    for name, metric in metrics.items():
        if name not in expected:
            fail("undeclared metric " + name)
        if metric["unit"] != expected[name]:
            fail("metric %s has unit %s, declared %s" % (name, metric["unit"], expected[name]))
    for name, unit in expected.items():
        if name not in metrics:
            if not args.trace or name.startswith(OWN_LAYERS[args.workload]):
                fail("metric %s missing" % name)
            metrics[name] = {"value": 0, "unit": unit}
    result["metrics"] = {name: metrics[name] for name in expected}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
