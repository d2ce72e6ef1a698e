#!/usr/bin/env python3
"""Compare two sets of benchmark result files.

    python3 perfbench/diff.py OLD NEW

OLD and NEW are result files written by run.py, or directories of them.
Results are grouped by workload and trace mode. For each metric the tool
prints each side's median and quartiles (statistics.quantiles, n=4) and a
verdict:

  worse       the new median is worse than the old one by more than the
              metric's bound, and the runs do not overlap enough to doubt it
  better      the same, in the metric's better direction
  unchanged   within the bound, and both sides' quartile spread is too
  unresolved  a side's spread is wider than the bound, and not every new
              run is worse (or better) than every old run
  changed     an exact count (sim_cycles, stall.*, dcache.* counts, ...)
              differs for some seed measured on both sides
  same        an exact count equal for every seed measured on both sides
  info        a per-layer timing: it has no bound

Bounds and better directions come from BENCHMARK.json at the repository
root. The exit status is 1 if any metric is worse or changed.
"""

import json
import pathlib
import statistics
import sys
from collections import defaultdict

ROOT = pathlib.Path(__file__).resolve().parent.parent


def load(path):
    path = pathlib.Path(path)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    groups = defaultdict(list)
    for f in files:
        doc = json.loads(f.read_text())
        prov = doc["provenance"]
        groups[(prov["workload"], prov["trace"])].append(doc)
    return groups


def spec_table():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    table = {m["name"]: m for m in bench["per_layer"]}
    table.update({m["name"]: m for m in bench["end_to_end"]})
    return table


def summary(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def verdict_exact(old_docs, new_docs, name):
    old = {d["provenance"]["seed"]: d["metrics"][name]["value"] for d in old_docs}
    new = {d["provenance"]["seed"]: d["metrics"][name]["value"] for d in new_docs}
    common = old.keys() & new.keys()
    if not common:
        return "unresolved"
    return "changed" if any(old[s] != new[s] for s in common) else "same"


def verdict_timed(old, new, spec):
    lower = spec.get("better", "lower") == "lower"
    bound = spec.get("bound")
    if bound is None:
        return "info"
    (om, oq1, oq3), (nm, nq1, nq3) = summary(old), summary(new)
    if om == 0:
        return "unresolved"
    change = (nm - om) / om
    worse = change > bound if lower else change < -bound
    better = change < -bound if lower else change > bound
    spread = max((oq3 - oq1) / om, (nq3 - nq1) / nm if nm else 0.0)

    def beats(a, b):
        return all((x < y) if lower else (x > y) for x in a for y in b)

    if worse:
        return "worse" if spread <= bound or beats(old, new) else "unresolved"
    if better:
        return "better" if spread <= bound or beats(new, old) else "unresolved"
    return "unchanged" if spread <= bound else "unresolved"


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    specs = spec_table()
    old_groups, new_groups = load(argv[1]), load(argv[2])
    bad = False
    for key in sorted(old_groups.keys() & new_groups.keys()):
        old_docs, new_docs = old_groups[key], new_groups[key]
        print(f"\n== {key[0]} (trace={key[1]}): {len(old_docs)} old runs, {len(new_docs)} new runs")
        for field in ("nproc", "rustc", "workers", "dcache"):
            seen = {str(d["provenance"][field]) for d in old_docs + new_docs}
            if len(seen) > 1:
                print(f"   warning: runs differ in {field}: {sorted(seen)}")
        names = [n for n in old_docs[0]["metrics"] if all(n in d["metrics"] for d in new_docs)]
        print(f"   {'metric':<34} {'old median [q1, q3]':>34} {'new median [q1, q3]':>34} {'change':>8}  verdict")
        for name in names:
            kind = old_docs[0]["metrics"][name].get("kind")
            old = [d["metrics"][name]["value"] for d in old_docs]
            new = [d["metrics"][name]["value"] for d in new_docs]
            if kind == "exact":
                verdict = verdict_exact(old_docs, new_docs, name)
            else:
                verdict = verdict_timed(old, new, specs.get(name, {}))
            bad |= verdict in ("worse", "changed")
            (om, oq1, oq3), (nm, nq1, nq3) = summary(old), summary(new)
            change = f"{(nm - om) / om:+.1%}" if om else "n/a"
            print(f"   {name:<34} {om:>14.6g} [{oq1:.6g}, {oq3:.6g}]".ljust(72)
                  + f"{nm:>14.6g} [{nq1:.6g}, {nq3:.6g}]".ljust(35)
                  + f" {change:>8}  {verdict}")
    for key in sorted(old_groups.keys() ^ new_groups.keys()):
        print(f"\n== {key[0]} (trace={key[1]}): only on one side, not compared")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
