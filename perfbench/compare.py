#!/usr/bin/env python3
"""Compare two sets of benchmark runs against BENCHMARK.json's bounds.

    python3 perfbench/compare.py BASE_DIR CHANGE_DIR

Each directory holds result files written by perfbench/run.py --out DIR.
For every workload x metric the table gives each side's median and
quartiles, the share of pairs the change wins (runs paired by seed, ties
count for neither), and a verdict for end-to-end metrics:

  improved    the change wins >= 90% of pairs and the medians differ by
              more than the base's interquartile range
  worse       the change's median is worse than the base's by more than
              the metric's bound
  unresolved  the base's own spread (IQR / median) exceeds the bound and
              the change does not read better on every run
  unchanged   otherwise

Per-layer metrics have no bound and get no verdict. Exits 1 when any
end-to-end verdict is "worse".
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory):
    """{(workload, trace): {seed: {metric: value}}}"""
    runs = {}
    for path in sorted(Path(directory).glob("*.trace*.json")):
        record = json.loads(path.read_text())
        key = (record["workload"], record["trace"])
        runs.setdefault(key, {})[record["seed"]] = {
            name: metric["value"]
            for name, metric in record["result"]["metrics"].items()}
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pairs(base, change):
    """Runs paired by seed, or by order when the seed sets differ."""
    common = sorted(set(base) & set(change))
    if common:
        return [(base[s], change[s]) for s in common]
    return list(zip([base[s] for s in sorted(base)],
                    [change[s] for s in sorted(change)]))


def verdict(a, b, better, bound, won):
    q1a, med_a, q3a = quartiles(a)
    med_b = statistics.median(b)
    sign = 1 if better == "higher" else -1
    worse_by = sign * (med_a - med_b) / abs(med_a) if med_a else 0.0
    if won >= 0.9 and sign * (med_b - med_a) > q3a - q1a:
        return "improved"
    if worse_by > bound:
        return "worse"
    spread = (q3a - q1a) / abs(med_a) if med_a else 0.0
    all_better = all(sign * (x - y) > 0 for x in b for y in a)
    if spread > bound and not all_better:
        return "unresolved"
    return "unchanged"


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base, change = load(args.base), load(args.change)

    worse = 0
    print(f"{'workload':22} {'metric':34} {'base q1/med/q3':>28} "
          f"{'change q1/med/q3':>28} {'won':>5}  verdict")
    for key in sorted(set(base) & set(change)):
        workload, _ = key
        for name in sorted(set().union(*base[key].values())):
            meta = metrics.get(name)
            matched = [(x[name], y[name]) for x, y in
                       pairs(base[key], change[key])
                       if name in x and name in y]
            if not matched or meta is None:
                continue
            a = [x for x, _ in matched]
            b = [y for _, y in matched]
            sign = 1 if meta["better"] == "higher" else -1
            won = sum(sign * (y - x) > 0 for x, y in matched) / len(matched)
            if "bound" in meta:
                result = verdict(a, b, meta["better"], meta["bound"], won)
            else:
                result = "-"
            worse += result == "worse"
            fa = "/".join(f"{v:.4g}" for v in quartiles(a))
            fb = "/".join(f"{v:.4g}" for v in quartiles(b))
            print(f"{workload:22} {name:34} {fa:>28} {fb:>28} "
                  f"{won:5.2f}  {result}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
