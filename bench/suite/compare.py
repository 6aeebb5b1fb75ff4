#!/usr/bin/env python3
"""Tabulate clio_suite runs, or compare a parent commit's runs with a change's.

  compare.py table [--out set.json] RUN.json...
      One table of every metric by name and unit, one column per
      workload; --out writes the runs combined into one JSON.

  compare.py compare --parent P.json... --change C.json... [--benchmark B]
      Applies BENCHMARK.json's bounds per (metric, workload). Runs pair
      up in the order given (run the two sides alternately). A metric is
      a win only when there are at least 10 pairs, the change wins >= 9/10
      of them, and the medians differ by more than the parent's
      interquartile spread; a regression when the change's median is
      worse than the parent's by more than the bound; unresolved when the
      parent's spread exceeds the bound (unless every change run beats
      every parent run).

RUN.json files are clio_suite --out files (schema clio.suite.v1) or
combined sets written by `table --out` / run_all.sh. Python stdlib only.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_BENCHMARK = os.path.join(HERE, "..", "..", "BENCHMARK.json")
MIN_PAIRS = 10


def load_runs(paths):
    """Single runs, in file order (combined sets are expanded)."""
    runs = []
    for path in paths:
        with open(path) as f:
            doc = json.load(f)
        runs.extend(doc["runs"] if "runs" in doc else [doc])
    return runs


def by_workload(runs):
    out = {}
    for run in runs:
        out.setdefault(run["workload"], []).append(run)
    return out


def cmd_table(args):
    runs = load_runs(args.runs)
    workloads = list(dict.fromkeys(r["workload"] for r in runs))
    last = {r["workload"]: r for r in runs}
    units = {}
    for section in ("metrics", "layers"):
        for run in runs:
            for name, m in run.get(section, {}).items():
                units.setdefault((section, name), m["unit"])
    width = max([len(n) for _, n in units] + [6])
    print(f"{'metric':<{width}} {'unit':<8} " +
          " ".join(f"{w:>16}" for w in workloads))
    for (section, name), unit in units.items():
        cells = []
        for w in workloads:
            m = last[w].get(section, {}).get(name)
            cells.append(f"{m['value']:>16.6g}" if m else f"{'-':>16}")
        print(f"{name:<{width}} {unit:<8} " + " ".join(cells))
    for w in workloads:
        c = last[w].get("checks", {})
        print(f"{w}: correct={last[w].get('correct')} "
              f"digest={c.get('digest')} rounds={c.get('rounds')} "
              f"samples={c.get('samples')} fail_frac={c.get('fail_frac')}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"schema": "clio.suite.set.v1", "runs": runs}, f, indent=1)
    return 0 if all(r.get("correct") for r in runs) else 1


def judge(parent, change, bound, better):
    """Verdict for one (metric, workload) from paired values."""
    n = min(len(parent), len(change))
    parent, change = parent[:n], change[:n]
    sign = 1 if better == "higher" else -1
    mp, mc = statistics.median(parent), statistics.median(change)
    if n >= 2:
        q = statistics.quantiles(parent, n=4)
        spread = q[2] - q[0]
    else:
        spread = 0.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    worse = sign * (mp - mc) / abs(mp) if mp else 0.0
    spread_frac = spread / abs(mp) if mp else 0.0
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if n >= MIN_PAIRS and wins >= 0.9 * n and sign * (mc - mp) > spread:
        verdict = "win"
    elif worse > bound:
        verdict = "REGRESSION"
    elif spread_frac > bound and not all_better:
        verdict = "unresolved"
    else:
        verdict = "ok"
    return {"pairs": n, "parent_median": mp, "change_median": mc,
            "parent_spread": spread, "wins": wins, "worse_frac": worse,
            "verdict": verdict}


def cmd_compare(args):
    with open(args.benchmark) as f:
        bench = json.load(f)
    parent = by_workload(load_runs(args.parent))
    change = by_workload(load_runs(args.change))
    status = 0
    print(f"{'workload':<14} {'metric':<16} {'pairs':>5} {'parent':>14} "
          f"{'change':>14} {'p.iqr':>11} {'worse':>8} {'wins':>5}  verdict")
    for w in sorted(set(parent) & set(change)):
        failed_p = sum(r.get("failed", 0) for r in parent[w])
        failed_c = sum(r.get("failed", 0) for r in change[w])
        for m in bench["end_to_end"]:
            name = m["name"]
            pv = [r["metrics"][name]["value"] for r in parent[w]
                  if name in r.get("metrics", {})]
            cv = [r["metrics"][name]["value"] for r in change[w]
                  if name in r.get("metrics", {})]
            if not pv or not cv:
                continue
            j = judge(pv, cv, m["bound"], m["better"])
            if j["verdict"] == "win" and failed_c > failed_p:
                j["verdict"] = "ok (more failed ops: no win)"
            if j["verdict"] == "REGRESSION":
                status = 1
            print(f"{w:<14} {name:<16} {j['pairs']:>5} "
                  f"{j['parent_median']:>14.6g} {j['change_median']:>14.6g} "
                  f"{j['parent_spread']:>11.4g} {j['worse_frac']:>+8.3%} "
                  f"{j['wins']:>5}  {j['verdict']}")
        if failed_c > failed_p:
            print(f"{w:<14} failed ops: parent {failed_p}, change {failed_c}"
                  "  REGRESSION")
            status = 1
    return status


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter, epilog=__doc__)
    sub = parser.add_subparsers(dest="cmd", required=True)
    t = sub.add_parser("table")
    t.add_argument("--out")
    t.add_argument("runs", nargs="+")
    c = sub.add_parser("compare")
    c.add_argument("--parent", nargs="+", required=True)
    c.add_argument("--change", nargs="+", required=True)
    c.add_argument("--benchmark", default=DEFAULT_BENCHMARK)
    args = parser.parse_args()
    return cmd_table(args) if args.cmd == "table" else cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())
