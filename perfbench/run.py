#!/usr/bin/env python3
"""Run one workload of the benchmark and print its result.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/main.exe with dune, runs it once, checks the run's
correctness and its same-work digest, and prints as the last line of
stdout one JSON object with the keys correct, attempted, failed and
metrics.  With --trace 0 the metrics are the end_to_end metrics of
BENCHMARK.json, with --trace 1 its per_layer metrics.

Same-work gate: the digest of the run's deterministic outputs must equal
the one committed in perfbench/expected.json for this workload, seed and
size.  A (workload, seed, size) not listed there is checked against the
first run of it in this checkout, recorded under .perfbench-state/.

Exits non-zero, without printing a result, when the program cannot be
built or a run crashes.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
EXPECTED = os.path.join(HERE, "expected.json")
LEDGER = os.path.join(ROOT, ".perfbench-state", "digests.json")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def dune():
    found = shutil.which("dune")
    if found:
        return found
    prefix = os.environ.get("OPAM_SWITCH_PREFIX")
    if prefix and os.path.exists(os.path.join(prefix, "bin", "dune")):
        return os.path.join(prefix, "bin", "dune")
    return None


def build():
    exe = dune()
    if exe is None:
        log("perfbench: dune not found")
        return False
    env = dict(os.environ)
    # keep every build artefact inside the checkout
    env["DUNE_CACHE"] = "disabled"
    proc = subprocess.run(
        [exe, "build", "--root", ROOT, "./perfbench/main.exe"],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    return proc.returncode == 0 and os.path.exists(EXE)


def load_json(path, default):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError):
        return default


def same_work(key, digest):
    """True when [digest] is the digest this (workload, seed, size) must have."""
    expected = load_json(EXPECTED, {}).get(key)
    if expected is not None:
        return digest == expected, "expected.json"
    ledger = load_json(LEDGER, {})
    if key in ledger:
        return digest == ledger[key], "first run in this checkout"
    ledger[key] = digest
    os.makedirs(os.path.dirname(LEDGER), exist_ok=True)
    tmp = LEDGER + ".tmp"
    with open(tmp, "w") as f:
        json.dump(ledger, f, indent=1, sort_keys=True)
    os.replace(tmp, LEDGER)
    return True, "recorded"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"), None)
    if bench is None:
        log("perfbench: BENCHMARK.json missing or unreadable")
        return 2
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        log("perfbench: unknown workload " + args.workload)
        return 2
    if not build():
        log("perfbench: build failed")
        return 3

    cmd = [
        EXE,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr,
            text=True, timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        log("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
        return 4
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log("perfbench: run failed with code %d" % proc.returncode)
        return 4
    out = json.loads(lines[-1])

    key = "%s/%d/%d" % (args.workload, args.seed, args.seconds)
    same, source = same_work(key, out["digest"])
    errors = list(out["errors"])
    if not same:
        errors.append("same-work digest mismatch (%s): %s" % (source, out["digest"]))
    for e in errors:
        log("perfbench: " + e)
    log("perfbench: as measured, before host-speed scaling: " + json.dumps(out["raw"]))

    specs = bench["per_layer"] if args.trace else bench["end_to_end"]
    values = out["layer"] if args.trace else out["e2e"]
    metrics = {}
    for spec in specs:
        v = values.get(spec["name"])
        if v is None:
            log("perfbench: metric %s not measured" % spec["name"])
            return 5
        metrics[spec["name"]] = {"value": v, "unit": spec["unit"]}

    print(json.dumps({
        "correct": not errors and out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
