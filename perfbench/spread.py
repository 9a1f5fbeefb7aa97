"""Repeat run.py over several seeds and report each metric's median and spread.

    python3 perfbench/spread.py
    python3 perfbench/spread.py --first-seed 100 --baseline perfbench/baseline.json

Every workload of BENCHMARK.json is run on SEEDS consecutive seeds, at
its run_seconds, one run at a time (the simon_z2n family alone peaks near 3.6 GB).  For each
workload and end-to-end metric it prints the median over the seeds, the
quartiles from statistics.quantiles(values, n=4), and the spread
(Q3 - Q1) / median next to the metric's bound in BENCHMARK.json.  With
--baseline it appends this set of figures, with the provenance of the
last run, to the `sets` list of the given JSON file.  When the file
already holds a set, each median is also compared with the first set's:
the change must stay within the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = 10  # the number of seeds a set of runs is judged on


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {out.returncode}:\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} is not correct:\n{out.stdout}")
    return result


def summarise(values: list[float], bound: float) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "bound": bound, "values": values}


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--baseline", type=Path)
    args = parser.parse_args()
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    seeds = range(args.first_seed, args.first_seed + SEEDS)
    stored = {"sets": []}
    if args.baseline and args.baseline.exists():
        stored = json.loads(args.baseline.read_text())
    first = stored["sets"][0]["workloads"] if stored["sets"] else None

    summary = {}
    for workload in names:
        runs = [run_once(workload, seed, seconds) for seed in seeds]
        summary[workload] = {}
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats = summarise([r["metrics"][name]["value"] for r in runs], bound)
            summary[workload][name] = stats
            flag = "ok" if stats["spread"] <= bound / 3 else "WIDE"
            line = (f"{workload:18s} {name:12s} median {stats['median']:10.4f} "
                    f"{metric['unit']:3s} q1 {stats['q1']:10.4f} q3 {stats['q3']:10.4f} "
                    f"spread {stats['spread']:.4f} (bound {bound}) {flag}")
            if first:
                change = stats["median"] / first[workload][name]["median"] - 1
                stats["change_vs_first"] = change
                line += f"  vs first set {change:+.4f} {'ok' if change <= bound else 'WORSE'}"
            print(line, flush=True)
    if args.baseline:
        last = json.loads((ROOT / ".perfbench_out" /
                           f"result-{names[-1]}-seed{seeds[-1]}-trace0.json").read_text())
        provenance = {k: v for k, v in last["details"]["provenance"].items()
                      if k not in ("workload", "seed", "why")}
        stored["sets"].append({"provenance": provenance, "seeds": [seeds[0], seeds[-1]],
                               "run_seconds": seconds, "workloads": summary})
        args.baseline.write_text(json.dumps(stored, indent=1) + "\n")


if __name__ == "__main__":
    main()
