#!/usr/bin/env python3
"""Builds and runs the host-speed benchmark of the TMU simulator.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of the repository. It builds the `perfbench` package
in release mode (into $CARGO_TARGET_DIR, else perfbench/target), runs it
with the given arguments, and prints its result as the last line of
stdout. The run's context (CPU count, compiler,
commit) is printed on the line before. With `--trace 1` the spans are
written to <target dir>/perfbench-spans/. Exits non-zero, printing no
result, when the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def target_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target"))


def build():
    """Builds the benchmark; returns the executable's path."""
    manifest = os.path.join(HERE, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--locked", "--quiet",
           "--manifest-path", manifest]
    # Cargo's own output goes to stderr: stdout carries only the result.
    subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, check=True)
    return os.path.join(target_dir(), "release", "tmu-perfbench")


def output(cmd):
    try:
        return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def context():
    return {
        "nproc": os.cpu_count(),
        "rustc": output(["rustc", "-V"]),
        "commit": output(["git", "rev-parse", "HEAD"]),
    }


def run(exe, args):
    """Runs the benchmark; returns its exit code and stdout lines."""
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = os.path.join(target_dir(), "perfbench-spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(spans, f"{args.workload}-seed{args.seed}.json")]
    # The program's environment knobs (TMU_*) would change what is measured.
    env = {k: v for k, v in os.environ.items() if not k.startswith("TMU_")}
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    return proc.returncode, proc.stdout.splitlines()


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    try:
        exe = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    code, lines = run(exe, args)
    if code != 0 or not lines:
        print(f"perfbench: benchmark exited with code {code}", file=sys.stderr)
        return code or 1
    for line in lines[:-1]:
        print(line)
    print("context: " + json.dumps(dict(context(), workload=args.workload, seed=args.seed)))
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
