#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark.

Usage (from the repository root):
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The first run configures and builds perfbench/ (the perfbench_e2e program plus
the library sources in src/) in Release into .bench_build/perfbench; later
runs only rebuild what changed. Build output goes to standard error, so the
last line of standard output is the JSON result of perfbench_e2e. Traced runs write
their spans to .bench_build/spans/. Any further arguments (such as --tiny)
are passed to perfbench_e2e unchanged.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
SPANS_DIR = os.path.join(ROOT, ".bench_build", "spans")
BINARY = os.path.join(BUILD_DIR, "perfbench_e2e")
RUN_TIMEOUT_S = 170


def build():
    if not os.path.exists(os.path.join(BUILD_DIR, "Makefile")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "--target", "perfbench_e2e", "-j", jobs],
        check=True, stdout=sys.stderr)


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unavailable"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unavailable"


def flag_value(args, flag, default):
    for i, arg in enumerate(args[:-1]):
        if arg == flag:
            return args[i + 1]
    return default


def main():
    args = sys.argv[1:]
    try:
        build()
    except (subprocess.CalledProcessError, OSError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 1
    if "--spans" not in args:
        os.makedirs(SPANS_DIR, exist_ok=True)
        name = "{}-seed{}.jsonl".format(flag_value(args, "--workload", "unknown"),
                                        flag_value(args, "--seed", "unknown"))
        args += ["--spans", os.path.join(SPANS_DIR, name)]
    if "--commit" not in args:
        args += ["--commit", commit()]
    sys.stdout.flush()
    proc = subprocess.Popen([BINARY] + args)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return code if code >= 0 else 1


if __name__ == "__main__":
    sys.exit(main())
