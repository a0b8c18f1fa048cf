#!/usr/bin/env python3
"""Builds the perfbench program from this checkout and runs one workload.

Usage (from the checkout root):
    python3 perfbench/run.py --workload paper-static --seed 1 \
        --seconds 25 --trace 0

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build), a
Release build of liboneport plus the program; later runs only re-link what
changed.  The program's standard output is passed through unchanged: its
last line is the JSON result.  The exit code is the program's, or 2 when
the build fails and 3 when the run exceeds its time limit.
"""
import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures (once) and builds the program; returns the binary path."""
    # A configure step that failed leaves no Makefile; run it again then.
    if not os.path.exists(os.path.join(build_dir, "Makefile")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        subprocess.run(configure, check=True, stdout=sys.stderr,
                       stderr=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                    "-j", "3"], check=True, stdout=sys.stderr,
                   stderr=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                               ".bench_build"))
    build_dir = os.path.join(target, "perfbench")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2

    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    trace_out = os.path.join(
        trace_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.jsonl")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--root", ROOT, "--trace-out", trace_out]
    with subprocess.Popen(command, cwd=ROOT) as proc:
        try:
            return proc.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            print("perfbench: run exceeded its time limit", file=sys.stderr)
            return 3


if __name__ == "__main__":
    sys.exit(main())
