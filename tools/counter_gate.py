#!/usr/bin/env python3
"""CI gate on the committed benchmark's deterministic counters.

Usage: counter_gate.py WORKLOAD RESULT.json

RESULT.json holds the last line `perfbench/run.py --trace 1 --seed 1
--seconds 10` printed for WORKLOAD.  The work of such a run is a fixed
function of its arguments, so its work counters (simplex pivots and
refactorizations, LP calls, B&B nodes, presolve fixings, runtime rungs,
update waves, switch retries, journal appends, syncs, WAL bytes and
snapshots, serve intake fsyncs, shed and quarantined fractions, wire
bytes per request) repeat exactly on every host.  The gate fails when any of
them differs from the value pinned in tools/perfbench_counters.json, or
when the run was not correct.  Timings are not gated.

A change that means to alter the work re-pins the counters in the same
change and says why.
"""

import json
import os
import sys

PINS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    "perfbench_counters.json")


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    workload, path = sys.argv[1], sys.argv[2]
    with open(PINS) as f:
        pins = json.load(f)[workload]
    with open(path) as f:
        result = json.loads(f.read().strip().splitlines()[-1])
    bad = []
    if not result["correct"] or result["failed"] != 0:
        bad.append("run not correct: correct=%s failed=%s"
                   % (result["correct"], result["failed"]))
    for name, want in sorted(pins.items()):
        got = result["metrics"].get(name, {}).get("value")
        status = "ok" if got == want else "DIFFERS"
        print("%-28s pinned %-14r got %-14r %s" % (name, want, got, status))
        if got != want:
            bad.append(name)
    if bad:
        sys.exit("counter gate failed for %s: %s" % (workload, ", ".join(bad)))
    print("counter gate passed for %s (%d counters)" % (workload, len(pins)))


if __name__ == "__main__":
    main()
