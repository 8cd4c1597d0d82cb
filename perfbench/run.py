#!/usr/bin/env python3
"""Builds and runs the GenBase benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the root of a source checkout. The first run configures and builds
the benchmark (perfbench/CMakeLists.txt, which compiles ../src) into
.bench_build/; later runs only rebuild what changed. The last line of
standard output is the benchmark's JSON result; see perfbench/README.md.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
OUT_DIR = os.path.join(BUILD_ROOT, "perfbench-out")
WORKLOADS = ("suite_medium", "serve_cold")

# The program's environment inputs. A run refuses to start when one is set
# to another value; unset ones are set to these.
PINNED_ENV = {
    "GENBASE_SCALE": "0.08",
    "GENBASE_TIMEOUT": "40",
    "GENBASE_KERNEL_BACKEND": "simd",
    "GENBASE_TRACE_SAMPLE": "0",
    "GENBASE_PROFILE": "0",
    "GENBASE_LOG": "warn",
}

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def pinned_env():
    env = dict(os.environ)
    for name, value in PINNED_ENV.items():
        if name in env and env[name] != value:
            fail("refusing to run: %s=%s, pinned to %s" % (name, env[name], value))
        env[name] = value
    return env


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "driver.h")):
        fail("GenBase sources not found under %s" % os.path.join(ROOT, "src"))
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_ROOT, "perfbench-build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", "4"])
    with open(log_path, "w") as log:
        for step in steps:
            try:
                code = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                fail("build step %s failed: %s" % (step[:2], e))
            if code != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail("build failed (log: %s)" % log_path)


def code_id():
    """Hash of the sources under test and of the benchmark itself."""
    digest = hashlib.sha256()
    for top in (os.path.join(ROOT, "src"), BENCH_DIR):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() or "none"


def run(argv, env):
    try:
        proc = subprocess.run(argv, env=env, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


def main():
    # Turn SIGTERM into an exception so subprocess.run kills the running
    # build or benchmark child before this process exits.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    env = pinned_env()
    if args.selftest:
        build()
        return run([os.path.join(BUILD_DIR, "perfbench_selftest")], env)
    if args.workload is None or args.seed is None or args.seconds is None \
            or args.trace is None:
        parser.error("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0 or not 0 < args.seconds <= 60:
        parser.error("--seed must be >= 0 and --seconds in (0, 60]")
    build()
    os.makedirs(OUT_DIR, exist_ok=True)
    return run([os.path.join(BUILD_DIR, "perfbench"),
                "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", repr(args.seconds), "--trace", str(args.trace),
                "--out-dir", OUT_DIR, "--code-id", code_id(),
                "--git-sha", git_sha()], env)


if __name__ == "__main__":
    sys.exit(main())
