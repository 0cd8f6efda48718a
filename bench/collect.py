"""Summarize the run records in bench/results/ across seeds.

    python3 bench/collect.py [--write bench/baseline.json]

For every workload and metric it prints the median of the runs' values,
their first and third quartiles, and the spread (Q3 - Q1) / median
against the metric's bound from BENCHMARK.json. A spread above a third of
the bound is marked, because two sets of runs would then be likely to
disagree by more than the bound, and makes the exit status 1 (set-up
time excepted). ``--write`` stores the summary, with the
machine and versions of the newest run, as a baseline that later changes
compare against.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def summarize(records, spec) -> dict:
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    grouped = {}
    for rec in records:
        r = rec["record"]
        grouped.setdefault((r["workload"], r["trace"]), []).append(rec)
    out = {}
    for (workload, trace), recs in sorted(grouped.items()):
        recs.sort(key=lambda rec: rec["record"]["seed"])
        metrics = {}
        for name in recs[0]["result"]["metrics"]:
            values = [rec["result"]["metrics"][name]["value"] for rec in recs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            entry = {"median": med, "q1": q1, "q3": q3,
                     "unit": recs[0]["result"]["metrics"][name]["unit"]}
            if not trace:
                entry["spread"] = (q3 - q1) / med if med else 0.0
                entry["bound"] = bounds[name]
                entry["values"] = values
            metrics[name] = entry
        out.setdefault(workload, {})["per_layer" if trace else "end_to_end"] = {
            "runs": len(recs),
            "seeds": [rec["record"]["seed"] for rec in recs],
            "attempted": sum(rec["result"]["attempted"] for rec in recs),
            "failed": sum(rec["result"]["failed"] for rec in recs),
            "metrics": metrics,
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", help="store the summary as a baseline JSON file")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    paths = sorted((BENCH / "results").glob("*.json"))
    if not paths:
        print("error: no run records in bench/results/", file=sys.stderr)
        return 2
    records = [json.loads(p.read_text()) for p in paths]
    summary = summarize(records, spec)
    steady = True
    for workload, kinds in summary.items():
        for kind, s in kinds.items():
            ratio = s["failed"] / s["attempted"]
            print(f"== {workload} {kind}: {s['runs']} runs, {s['attempted']} operations, "
                  f"fail_ratio {ratio:.4g}")
            for name, m in s["metrics"].items():
                line = (f"   {name:<30} {m['median']:>12.6g} {m['unit']:<6} "
                        f"q1 {m['q1']:.6g} q3 {m['q3']:.6g}")
                if "spread" in m:
                    mark = "" if m["spread"] < m["bound"] / 3 else "  <-- above bound/3"
                    steady &= name == "setup_s" or not mark
                    line += f"  spread {m['spread']:.2%} (bound {m['bound']:.0%}){mark}"
                print(line)
    if args.write:
        newest = max(zip(paths, records), key=lambda item: item[0].stat().st_mtime)[1]
        machine = {k: v for k, v in newest["record"].items()
                   if k not in ("workload", "seed", "trace")}
        baseline = {"record": machine, "workloads": summary}
        Path(args.write).write_text(json.dumps(baseline, indent=2) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
