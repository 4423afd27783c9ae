#!/usr/bin/env python3
"""The repository benchmark: builds the workload runner and runs one workload.

    python3 perfbench/run.py --workload <audit-cold|watch-edit|serve-mix> \
        --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. The first call configures and builds
perfbench/ (which compiles the library from src/) into .bench_build/, runs
the benchmark's self-tests, then runs the workload in its own process. The
last line of standard output is the result:
{"correct", "attempted", "failed", "metrics"}; the line before it is the
run's record (host, build, percentiles with their sample counts), which is
also written to .bench_build/results/. A traced run (--trace 1) writes its
spans to .bench_build/traces/. See perfbench/README.md.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("audit-cold", "watch-edit", "serve-mix")
# Stop a run that has not ended after this long, so every call returns
# within three minutes.
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the runner; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no phpSAFE sources at %s/src" % ROOT)
        return None
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target",
                       "perfbench", "perfbench_selftest"],
                      stdout=sys.stderr).returncode != 0:
        return None
    if subprocess.run([os.path.join(BUILD, "perfbench_selftest")],
                      stdout=sys.stderr).returncode != 0:
        log("perfbench: self-tests failed; not measuring")
        return None
    return os.path.join(BUILD, "perfbench")


def git(*args):
    try:
        out = subprocess.run(["git", "-C", ROOT] + list(args),
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def git_describe():
    # Only this checkout's own repository counts, not one that encloses it.
    top = git("rev-parse", "--show-toplevel")
    if top is None or os.path.realpath(top) != os.path.realpath(ROOT):
        return "not a git checkout"
    return git("describe", "--always", "--dirty", "--tags") or "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    binary = build()
    if binary is None:
        return 1

    name = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", os.path.join(traces, name + ".json")]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: %s did not finish within %d s" % (name, RUN_TIMEOUT_S))
        return 1
    lines = run.stdout.strip().split("\n")
    if run.returncode != 0 or len(lines) < 2:
        log("perfbench: %s exited with %d" % (name, run.returncode))
        return 1
    try:
        record = json.loads(lines[-2])["record"]
        result = json.loads(lines[-1])
    except (ValueError, KeyError):
        log("perfbench: %s printed no result" % name)
        return 1

    record["git_describe"] = git_describe()
    record["cpu_model"] = cpu_model()
    results = os.path.join(ROOT, ".bench_build", "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, name + ".json"), "w") as f:
        json.dump({"record": record, "result": result}, f, indent=1)
    print(json.dumps({"record": record}, separators=(",", ":")))
    print(json.dumps(result, separators=(",", ":")), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
