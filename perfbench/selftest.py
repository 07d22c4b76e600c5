#!/usr/bin/env python3
"""Self-test of the host-speed benchmark.

    python3 perfbench/selftest.py [--seconds S] [--workload NAME ...]

Run it from the root of the repository. For every workload of
BENCHMARK.json (or the ones named) it runs perfbench/run.py untraced twice
on one seed and once on another, and traced twice on the first seed, and
checks that:

* each result line has exactly the keys `correct`, `attempted`, `failed`
  and `metrics`, with every check passed;
* every simulated metric repeats exactly for one seed, and the simulated
  cycles change under the other seed (so the seed reaches the inputs);
* every metric and workload name matches [A-Za-z0-9_.-]+ and carries the
  unit BENCHMARK.json gives it;
* an untraced run reports exactly the end-to-end metrics, and a traced run
  exactly the per-layer metrics, on every workload.

It also checks that the benchmark fails, printing no result, in a
directory holding only BENCHMARK.json and the benchmark's own files.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"[A-Za-z0-9_.-]+")

# Simulated metrics: a pure function of the seed.
EXACT_END_TO_END = {"sim_mcycles"}
EXACT_UNITS = {"count", "fraction", "kcycles"}


def run(bench, workload, seed, seconds, trace, cwd=ROOT):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=900)
    return proc.returncode, proc.stdout.splitlines(), proc.stderr


def result(bench, workload, seed, seconds, trace):
    code, lines, err = run(bench, workload, seed, seconds, trace)
    assert code == 0 and lines, f"{workload} seed {seed} trace {trace}: exit {code}\n{err}"
    res = json.loads(lines[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}, res.keys()
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1, res
    for name, m in res["metrics"].items():
        assert set(m) == {"value", "unit"}, (name, m)
        assert isinstance(m["value"], (int, float)), (name, m)
    return res["metrics"]


def check_names(bench):
    names = [w["name"] for w in bench["workloads"]]
    names += [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    for n in names:
        assert NAME.fullmatch(n) and len(n) <= 64, f"bad name {n!r}"
    assert len(names) == len(set(names)), "a name is used twice"


def check_workload(bench, workload, seconds):
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    end_to_end = {m["name"] for m in bench["end_to_end"]}
    per_layer = {m["name"] for m in bench["per_layer"]}

    a, b, other = (result(bench, workload, s, seconds, 0) for s in (1, 1, 2))
    assert set(a) == end_to_end, f"{workload}: {sorted(set(a) ^ end_to_end)}"
    for name in EXACT_END_TO_END:
        assert a[name] == b[name], f"{workload}: {name} differs on one seed"
    assert a["sim_mcycles"] != other["sim_mcycles"], f"{workload}: seed does not reach the inputs"

    ta, tb = (result(bench, workload, 1, seconds, 1) for _ in range(2))
    assert set(ta) == per_layer, f"{workload}: {sorted(set(ta) ^ per_layer)}"
    for name, m in ta.items():
        if m["unit"] in EXACT_UNITS:
            assert m == tb[name], f"{workload}: {name} differs on one seed"
    for name, m in {**a, **ta}.items():
        assert m["unit"] == units[name], f"{workload}: {name} in {m['unit']}"
    print(f"ok {workload}: {len(a)} end-to-end, {len(ta)} per-layer metrics", flush=True)


def check_fails_alone(bench):
    """The benchmark alone, without the repository, must fail cleanly."""
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    alone = os.path.join(os.path.abspath(target), "selftest-alone")
    shutil.rmtree(alone, ignore_errors=True)
    os.makedirs(alone)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), alone)
    for path in bench["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(alone, path),
                        ignore=shutil.ignore_patterns("target", "__pycache__"))
    code, lines, _ = run(bench, bench["workloads"][0]["name"], 1, 1, 0, cwd=alone)
    shutil.rmtree(alone)
    assert code != 0 and not any(line.startswith("{") for line in lines), (code, lines)
    print("ok the benchmark fails without the repository", flush=True)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seconds", type=float, default=1)
    p.add_argument("--workload", action="append")
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    check_names(bench)
    check_fails_alone(bench)
    for w in bench["workloads"]:
        if not args.workload or w["name"] in args.workload:
            check_workload(bench, w["name"], args.seconds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
