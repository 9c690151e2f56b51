"""Compare two sets of benchmark result records.

  python3 bench/compare.py BASE CHANGE

BASE and CHANGE are files of result records, one JSON object a line, as
`bench/run.py --out FILE` appends them.  For each workload and end-to-end
metric the table gives each side's median and quartiles over its untraced
runs, the change of the median in the metric's worse direction as a share
of the base median, and whether that stays within the metric's bound from
BENCHMARK.json.

The comparison also fails when the share of failed operations differs, when
an output is incorrect, or when the sample-slocal inputs left out a
different number of drawn points at a seed both sides ran: each of these
means the two sides did not do the same work, so their times do not compare.
"""

import argparse
import json
import os
import statistics
import sys

SPEC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json")


def load_records(path):
    records = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                rec = json.loads(line)
                if rec.get("trace") == 0:
                    records.append(rec)
    return records


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def by_workload(records):
    out = {}
    for rec in records:
        out.setdefault(rec["workload"], []).append(rec)
    return out


def left_out_by_seed(records):
    return {r["seed"]: sum(r["left_out"].values()) for r in records if "left_out" in r}


def compare(base, change, spec):
    rows, ok = [], True
    base_w, change_w = by_workload(base), by_workload(change)
    for workload in sorted(set(base_w) | set(change_w)):
        a, b = base_w.get(workload, []), change_w.get(workload, [])
        if not a or not b:
            rows.append(f"{workload}: runs on one side only ({len(a)} vs {len(b)})")
            ok = False
            continue
        for m in spec["end_to_end"]:
            name = m["name"]
            qa = quartiles([r["metrics"][name]["value"] for r in a])
            qb = quartiles([r["metrics"][name]["value"] for r in b])
            worse = (qb[1] - qa[1]) / qa[1]
            if m["better"] == "higher":
                worse = -worse
            within = worse <= m["bound"]
            ok &= within
            rows.append(
                f"{workload:14s} {name:12s} {m['unit']:4s} "
                f"base {qa[1]:10.4f} [{qa[0]:.4f}, {qa[2]:.4f}] n={len(a):<3d} "
                f"change {qb[1]:10.4f} [{qb[0]:.4f}, {qb[2]:.4f}] n={len(b):<3d} "
                f"worse {100 * worse:+6.2f}% bound {100 * m['bound']:.0f}% "
                f"{'ok' if within else 'REGRESSION'}"
            )
        fa = sum(r["failed"] for r in a) / sum(r["attempted"] for r in a)
        fb = sum(r["failed"] for r in b) / sum(r["attempted"] for r in b)
        ok &= fa == fb
        rows.append(f"{workload:14s} failed share base {fa:.6f} change {fb:.6f} "
                    f"{'same' if fa == fb else 'DIFFERS'}")
        la, lb = left_out_by_seed(a), left_out_by_seed(b)
        moved = sorted(seed for seed in set(la) & set(lb) if la[seed] != lb[seed])
        if moved:
            ok = False
            rows.append(f"{workload:14s} points left out differ at seeds {moved}: "
                        + ", ".join(f"{s}: {la[s]} -> {lb[s]}" for s in moved))
        wrong = [r["seed"] for r in a + b if not r["correct"]]
        if wrong:
            rows.append(f"{workload:14s} incorrect output at seeds {sorted(set(wrong))}")
            ok = False
    return rows, ok


def main():
    ap = argparse.ArgumentParser(description="Compare two sets of benchmark result records.")
    ap.add_argument("base")
    ap.add_argument("change")
    args = ap.parse_args()
    with open(SPEC) as fh:
        spec = json.load(fh)
    rows, ok = compare(load_records(args.base), load_records(args.change), spec)
    print("\n".join(rows))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
