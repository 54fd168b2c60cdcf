#!/usr/bin/env python3
"""CI gate for the LP experiment's solver results.

Usage: scoreboard_gate.py BASELINE.json NEW.json

CI runs it as

    python3 tools/scoreboard_gate.py tools/scoreboard_baseline.json BENCH_solver.json

after `bench/main.exe --quick --only lp` (nightly: `--only lp`).  The
baseline is committed at tools/scoreboard_baseline.json; bench runs
write BENCH_solver.json into the directory they run from, which git
ignores, so a local run never overwrites the baseline.  To refresh it
after a change that moves a proven point on purpose, copy a fresh
`bench/main.exe --only lp` run's BENCH_solver.json over the baseline in
the same change.

Compares two BENCH_solver.json files: the paper-scale "scoreboard"
points and the LP1 sweep "points" (matched by section and name).  The
gate fails when, for a point the baseline proved ("opt" or "INF"):

  - the new run no longer reaches a proof, or
  - the proof flips between "opt" and "INF", or
  - the proven objective moves by more than 1e-6, or
  - (scoreboard only) the best-of-N wall time regresses by more than
    25% (plus a 0.25 s absolute slack, and only for baseline walls
    >= 0.5 s, so sub-second noise on shared runners cannot trip the
    lane).

The committed objectives are the ILP's regression oracle at paper
scale, so any drift in a proven optimum is a correctness failure.

Points present on only one side are reported but never fail the gate:
the scoreboard is meant to grow, and a nightly full run carries points
the PR-sized quick run does not.
"""

import json
import sys

PROOFS = {"opt", "INF"}
OBJ_TOL = 1e-6
REL_SLACK = 1.25
ABS_SLACK_S = 0.25
MIN_GATED_WALL_S = 0.5


def load(path):
    """(section, name) -> {status, objective, wall_s} for every point."""
    with open(path) as f:
        doc = json.load(f)
    points = {}
    for p in doc.get("scoreboard", {}).get("points", []):
        points[("scoreboard", p["point"])] = p
    for p in doc.get("points", []):
        # "ilp" holds the pipeline run; files written before the LP1
        # root-LP rework keep it under "sparse".
        points[("points", p["point"])] = p.get("ilp") or p["sparse"]
    return points


def check(section, name, b, n):
    """The failure message for one matched point, or None."""
    bs, ns = b["status"], n["status"]
    if bs not in PROOFS:
        return None
    if ns not in PROOFS:
        return f"was {bs}, now {ns}"
    if bs != ns:
        return f"proof flipped from {bs} to {ns}"
    bo, no = b.get("objective"), n.get("objective")
    if (bo is None) != (no is None) or (
        bo is not None and abs(bo - no) > OBJ_TOL
    ):
        return f"objective {bo} -> {no}"
    if section == "scoreboard" and b["wall_s"] >= MIN_GATED_WALL_S:
        limit = b["wall_s"] * REL_SLACK + ABS_SLACK_S
        if n["wall_s"] > limit:
            return (
                f"wall {b['wall_s']:.3f}s -> {n['wall_s']:.3f}s "
                f"(limit {limit:.3f}s)"
            )
    return None


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__.strip())
    base = load(sys.argv[1])
    new = load(sys.argv[2])
    if not any(section == "scoreboard" for section, _ in new):
        sys.exit("scoreboard_gate: new run has no scoreboard section")
    failures = []
    for key, b in sorted(base.items()):
        section, name = key
        n = new.get(key)
        if n is None:
            print(f"note: {section} {name!r} only in baseline (skipped)")
            continue
        failure = check(section, name, b, n)
        if failure:
            failures.append(f"{section} {name}: {failure}")
            continue
        print(
            f"ok: {section} {name}: {b['status']}/{b.get('objective')}/"
            f"{b['wall_s']:.3f}s -> {n['status']}/{n.get('objective')}/"
            f"{n['wall_s']:.3f}s"
        )
    for section, name in sorted(set(new) - set(base)):
        n = new[(section, name)]
        print(f"new point: {section} {name}: {n['status']}/{n['wall_s']:.3f}s")
    if failures:
        print("\nsolver regressions:")
        for f in failures:
            print(f"  {f}")
        sys.exit(1)
    print("scoreboard gate passed")


if __name__ == "__main__":
    main()
