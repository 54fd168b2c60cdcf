#!/usr/bin/env python3
"""Self-test of the benchmark: equal seeds do equal work, other seeds do not.

Usage (from the repository root):

    python3 perfbench/selftest.py [--seconds S] [workload ...]

For every workload (default: all three) it runs perfbench/main.exe at a
small size twice with the default seed and once with the held-out seed
(see perfbench/README.md), untraced and traced, and checks that

- every run passes its own correctness checks;
- the two default-seed runs have the same digest, the same
  host-independent counts (allocated words per layer call, solver,
  runtime, journal and daemon counters) and the same count-type
  per-layer metrics;
- the held-out seed gives a different digest and moves at least one
  count and one count-type per-layer metric;
- the traced run did the same work as the untraced one.

Exits 0 when every check holds, 1 otherwise.
"""

import argparse
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the benchmark's own runner: build + paths)

WORKLOADS = ["place_paper", "churn_journal", "serve_storm"]
DEFAULT_SEED = 1
HELD_OUT_SEED = 90001
# per-layer units whose values are counts, not timings
COUNT_UNITS = {"count", "count/op", "B", "B/op", "Mword/op", "fraction"}


def execute(workload, seed, seconds, trace):
    cmd = [run.EXE, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=run.ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=run.RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError("%s exited with %d" % (" ".join(cmd), proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", type=int, default=1)
    ap.add_argument("workloads", nargs="*", default=WORKLOADS)
    args = ap.parse_args()
    if not run.build():
        print("selftest: build failed")
        return 1
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    count_metrics = [m["name"] for m in bench["per_layer"] if m["unit"] in COUNT_UNITS]

    problems = []

    def check(cond, msg):
        print(("ok   " if cond else "FAIL ") + msg, flush=True)
        if not cond:
            problems.append(msg)

    for w in args.workloads:
        a1 = execute(w, DEFAULT_SEED, args.seconds, 1)
        a2 = execute(w, DEFAULT_SEED, args.seconds, 1)
        b = execute(w, HELD_OUT_SEED, args.seconds, 1)
        for name, r in (("run 1", a1), ("run 2", a2), ("held-out", b)):
            check(r["failed"] == 0 and not r["errors"],
                  "%s %s passes its checks %s" % (w, name, r["errors"]))
        check(a1["digest"] == a2["digest"], "%s: equal seeds, equal digest" % w)
        check(a1["digest"] != b["digest"], "%s: held-out seed, other digest" % w)
        check(a1["counts"] == a2["counts"], "%s: equal seeds, equal counts" % w)
        moved = [k for k in a1["counts"] if a1["counts"][k] != b["counts"].get(k)]
        check(bool(moved), "%s: held-out seed moves counts %s" % (w, moved[:4]))
        la1 = {k: a1["layer"][k] for k in count_metrics}
        la2 = {k: a2["layer"][k] for k in count_metrics}
        lb = {k: b["layer"][k] for k in count_metrics}
        diff = [k for k in la1 if la1[k] != la2[k]]
        check(not diff, "%s: equal seeds, equal count-type layer metrics %s" % (w, diff))
        moved = [k for k in la1 if la1[k] != lb[k]]
        check(bool(moved), "%s: held-out seed moves layer metrics %s" % (w, moved[:4]))
        u = execute(w, DEFAULT_SEED, args.seconds, 0)
        check(u["digest"] == a1["digest"] and u["counts"] == a1["counts"],
              "%s: untraced run does the same work as the traced one" % w)

    print("selftest: %s" % ("all checks hold" if not problems else
                            "%d check(s) failed" % len(problems)))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
