#!/usr/bin/env python3
"""Paired perf gate: a change's bench_scale against its parent's.

Usage:
    check_bench_trajectory.py PARENT/bench_scale CHANGE/bench_scale

Both binaries run the gated bench families on the same machine, taking
turns for ROUNDS rounds: the parent goes first in even rounds and the
change in odd ones, so load that drifts during the run falls on both
sides alike.  Each side keeps its minimum real time per bench name;
preemption and cache pollution only ever slow a run down, so the
fastest run is the best estimate of the code's own cost.  Each side's
fastest rows are written as google-benchmark JSON to
bench/out/parent.json and bench/out/change.json.

The gate fails when any bench's change/parent time ratio exceeds
1 + THRESHOLD, or when a bench the parent runs is missing from the
change (a rename shows as one missing name and one new name).  Benches
that only the change runs are listed and allowed.  Both sides run on
the same machine, so their times compare directly: a uniform slowdown
fails like a local one.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

# The gated bench families: the first path component of a bench name.
FAMILIES = ("routed", "scale", "timeline", "reschedule", "service", "exact",
            "import", "validate")
# Many short rounds rather than a few long ones: on shared machines a
# bench's speed swings up to 2x in episodes lasting about a second, so
# the minimum needs samples from many separate moments to reach the
# quiet floor.  A pass takes ~3 s at 4 cores; see CHANGES.md for the
# A/A runs that set these.
ROUNDS = 20
MIN_TIME_S = 0.02
THRESHOLD = 0.25
OUT_DIR = Path(__file__).resolve().parent / "out"

# ns per unit -- google-benchmark may emit different time_units per entry.
_UNITS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def entry_ns(entry):
    return float(entry["real_time"]) * _UNITS.get(entry.get("time_unit", "ns"),
                                                  1.0)


def fastest_rows(docs):
    """name -> the fastest plain row of that gated bench over ``docs``.

    ``docs`` are parsed google-benchmark JSON documents.  Aggregate rows
    (mean/median/stddev of repetitions) and names outside FAMILIES are
    skipped.
    """
    best = {}
    for doc in docs:
        for entry in doc.get("benchmarks", []):
            name = entry.get("name", "")
            if (entry.get("run_type") == "aggregate"
                    or "real_time" not in entry
                    or name.split("/", 1)[0] not in FAMILIES):
                continue
            if name not in best or entry_ns(entry) < entry_ns(best[name]):
                best[name] = entry
    return best


class Verdict(NamedTuple):
    ratios: dict     # shared name -> change/parent time ratio
    regressed: list  # shared names whose ratio exceeds 1 + THRESHOLD
    missing: list    # parent names the change does not run
    new: list        # change names the parent does not run

    @property
    def ok(self):
        return not self.regressed and not self.missing


def verdict(parent, change):
    """Compares two name -> time maps (any one unit) bench by bench."""
    shared = sorted(set(parent) & set(change))
    ratios = {name: change[name] / parent[name] for name in shared}
    return Verdict(
        ratios=ratios,
        regressed=[n for n in shared if ratios[n] > 1.0 + THRESHOLD],
        missing=sorted(set(parent) - set(change)),
        new=sorted(set(change) - set(parent)))


def report(v, parent, change):
    width = max((len(name) for name in v.ratios), default=0)
    print(f"{len(v.ratios)} benchmarks compared; limit x{1 + THRESHOLD:.2f} "
          f"of the parent's time")
    for name in sorted(v.ratios, key=lambda n: -v.ratios[n]):
        flag = "  << REGRESSION" if name in v.regressed else ""
        print(f"  {name:<{width}}  {parent[name] / 1e6:10.3f} ms -> "
              f"{change[name] / 1e6:10.3f} ms  x{v.ratios[name]:6.3f}{flag}")
    for name in v.new:
        print(f"  {name}: new benchmark (the parent does not run it)")
    if v.regressed:
        print(f"FAIL: {len(v.regressed)} benchmark(s) slower than the parent "
              f"by more than {THRESHOLD:.0%}")
    if v.missing:
        print("FAIL: parent benchmarks missing from the change: "
              + ", ".join(v.missing))
    if v.ok:
        print("OK: no benchmark regressed beyond the threshold")


def run_bench(binary, out_path):
    run = subprocess.run(
        [binary, f"--benchmark_filter=^({'|'.join(FAMILIES)})/",
         f"--benchmark_min_time={MIN_TIME_S}", f"--benchmark_out={out_path}",
         "--benchmark_out_format=json"],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    if run.returncode != 0:
        sys.exit(f"{binary} exited with {run.returncode}:\n{run.stderr}")


def main(argv):
    if len(argv) != 3:
        sys.exit(__doc__)
    binaries = {"parent": argv[1], "change": argv[2]}
    docs = {side: [] for side in binaries}
    with tempfile.TemporaryDirectory() as tmp:
        for r in range(ROUNDS):
            order = ("parent", "change") if r % 2 == 0 else ("change", "parent")
            print(f"round {r + 1}/{ROUNDS}: {order[0]}, then {order[1]}",
                  flush=True)
            for side in order:
                out_path = Path(tmp) / f"{side}-{r}.json"
                run_bench(binaries[side], out_path)
                docs[side].append(json.loads(out_path.read_text()))

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    times = {}
    for side, side_docs in docs.items():
        rows = fastest_rows(side_docs)
        (OUT_DIR / f"{side}.json").write_text(json.dumps(
            {"context": side_docs[0].get("context", {}),
             "benchmarks": [rows[name] for name in sorted(rows)]},
            indent=2) + "\n")
        times[side] = {name: entry_ns(row) for name, row in rows.items()}
    if not times["parent"]:
        sys.exit(f"{binaries['parent']} ran no benchmark of {FAMILIES}")

    v = verdict(times["parent"], times["change"])
    report(v, times["parent"], times["change"])
    return 0 if v.ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
