#!/usr/bin/env python3
"""Builds the wall-clock benchmark from this checkout's sources and runs it.

    python3 perfbench/run.py --workload alert_triage --seed 1 --seconds 8 --trace 0
    python3 perfbench/run.py --self-test

Run from the checkout root. The build goes to $CARGO_TARGET_DIR when set,
else .bench_build (an incremental no-op after the first run). Every
APTRACE_* variable is removed from the environment, so the program runs on
its own defaults. The benchmark process gets its own process group, which
is killed once it exits, so no shard daemon outlives a run. The last line
of standard output is the benchmark's JSON result.

BENCHMARK.json is the one list of workloads and metrics: the result must
report every end-to-end metric (--trace 0) with its unit there, and no
metric that is not listed. A per-layer metric of a layer the workload
never reaches is reported as 0.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def load_benchmark():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.abspath(os.path.join(ROOT, path))


def clean_env():
    return {k: v for k, v in os.environ.items() if not k.startswith("APTRACE_")}


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources under %s/src; run from a full checkout" % ROOT)
    if shutil.which("cmake") is None:
        fail("cmake not found")
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            code = subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT,
                                   env=clean_env(), cwd=ROOT)
            if code != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail("build failed (%s); full log in %s" % (" ".join(cmd), log_path))


def run(out, argv):
    """Runs the benchmark binary; returns its exit code and stdout."""
    work = os.path.join(out, "work")
    os.makedirs(work, exist_ok=True)
    cmd = [os.path.join(out, "aptrace_perfbench")] + argv + [
        "--work-dir", work, "--shardd", os.path.join(out, "aptrace_shardd")]
    # The working directory holds what the attack scripts' `output =`
    # clauses write.
    proc = subprocess.Popen(cmd, cwd=work, env=clean_env(),
                            stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        stdout, code = "", 1
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        proc.communicate()
    return code, stdout


def complete(result, specs, per_layer):
    """Checks the result's metrics against BENCHMARK.json and orders them
    as listed there."""
    listed = {m["name"] for m in specs}
    unlisted = sorted(set(result["metrics"]) - listed)
    if unlisted:
        fail("metrics not in BENCHMARK.json: " + ", ".join(unlisted))
    metrics = {}
    for m in specs:
        got = result["metrics"].get(m["name"])
        if got is None:
            if not per_layer:
                fail("end-to-end metric %s not reported" % m["name"])
            got = {"value": 0, "unit": m["unit"]}
            print("  %-30s %16s %s   (layer not reached)" %
                  (m["name"], 0, m["unit"]))
        elif got["unit"] != m["unit"]:
            fail("%s reported in %s, BENCHMARK.json says %s" %
                 (m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = got
    result["metrics"] = metrics
    return result


def main():
    bench = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload",
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="corrupt one result per check and show it fail")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    out = build_dir()
    build(out)
    if args.self_test:
        code, stdout = run(out, ["--self-test"])
        sys.stdout.write(stdout)
        sys.exit(code)
    code, stdout = run(out, [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--trace", str(args.trace)])
    lines = stdout.rstrip("\n").splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stdout.write(stdout)
        fail("the run printed no result (exit code %d)" % code)
    sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
    specs = bench["per_layer"] if args.trace else bench["end_to_end"]
    result = complete(result, specs, per_layer=bool(args.trace))
    print(json.dumps(result))
    sys.stdout.flush()
    sys.exit(code)


if __name__ == "__main__":
    main()
