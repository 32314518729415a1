#!/usr/bin/env python3
"""Compares two result files of the P-Tucker fit benchmark.

    python3 perfbench/compare.py base.jsonl change.jsonl

Each file holds JSON lines as `run.py --out FILE` appends them. For every
workload and metric found on both sides it prints each side's median and
quartiles over its runs, the change of the medians, and a verdict against
the metric's bound in BENCHMARK.json:

  better      the median improved by more than the bound
  worse       the median got worse by more than the bound
  unresolved  the medians differ by less than the bound, or either side's
              quartile spread is wider than the bound and the two sides'
              runs overlap

Per-layer metrics have no bound and get no verdict. Exits 1 if any verdict
is `worse`.
"""
import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_results(path):
    """{(workload, trace): {metric: [values]}} and the units seen."""
    runs, units = {}, {}
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            rec = json.loads(line)
            key = (rec["workload"], rec["trace"])
            for name, m in rec["result"]["metrics"].items():
                runs.setdefault(key, {}).setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
    return runs, units


def summary(values):
    """(median, first quartile, third quartile)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def verdict(base, change, better, bound):
    if bound is None:
        return "-"
    (mb, qb1, qb3), (mc, qc1, qc3) = summary(base), summary(change)
    sign = 1.0 if better == "lower" else -1.0
    # Positive `worse_by` means the change's median is worse than the base's.
    worse_by = sign * (mc - mb) / abs(mb) if mb else 0.0
    spread = max((qb3 - qb1) / abs(mb) if mb else 0.0, (qc3 - qc1) / abs(mc) if mc else 0.0)
    separated = (max(change) < min(base) or min(change) > max(base))
    if spread > bound and not separated:
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "unresolved"


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("base")
    p.add_argument("change")
    a = p.parse_args()

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base, units = load_results(a.base)
    change, _ = load_results(a.change)

    any_worse = False
    for key in sorted(set(base) & set(change)):
        workload, trace = key
        print(f"\n{workload} (trace {trace})")
        print(f"  {'metric [unit]':34} {'base median [q1, q3] (n)':>38} {'change median [q1, q3] (n)':>38}"
              f" {'change':>8} {'bound':>6}  verdict")
        for name in [n for n in declared if n in base[key] and n in change[key]]:
            m = declared[name]
            b, c = base[key][name], change[key][name]
            (mb, qb1, qb3), (mc, qc1, qc3) = summary(b), summary(c)
            pct = f"{100 * (mc - mb) / abs(mb):+.1f}%" if mb else "-"
            bound = m.get("bound")
            v = verdict(b, c, m["better"], bound)
            any_worse |= v == "worse"
            print(f"  {f'{name} [{units[name]}]':34} {f'{mb:.6g} [{qb1:.6g}, {qb3:.6g}] ({len(b)})':>38}"
                  f" {f'{mc:.6g} [{qc1:.6g}, {qc3:.6g}] ({len(c)})':>38}"
                  f" {pct:>8} {'-' if bound is None else f'{bound:.2f}':>6}  {v}")
    sys.exit(1 if any_worse else 0)


if __name__ == "__main__":
    main()
