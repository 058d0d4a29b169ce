"""Run-to-run spread of the end-to-end metrics, against the bounds in BENCHMARK.json.

    python3 perfbench/spread.py --seeds 1-10 [--workloads march_pec ...] [--write FILE]

Runs the benchmark once per workload and seed, one process at a time, and
prints for each end-to-end metric the median, the quartiles and their distance
as a share of the median (statistics.quantiles, n=4).  A spread is steady when
it stays below a third of the metric's bound.  --write also takes one traced
seed-0 run per workload and stores everything, with the environment, as a
baseline file.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds, trace):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900, cwd=ROOT, check=True)
    lines = done.stdout.strip().splitlines()
    env = next(json.loads(l)["environment"] for l in lines if l.startswith('{"environment"'))
    return json.loads(lines[-1]), env


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    parser.add_argument("--write", type=Path)
    args = parser.parse_args()

    summary, env, steady = {}, None, True
    for workload in args.workloads:
        values, results = {}, []
        for seed in seeds_of(args.seeds):
            line, env = run_once(workload, seed, spec["run_seconds"], 0)
            results.append({"seed": seed, **line})
            for name, entry in line["metrics"].items():
                values.setdefault(name, []).append(entry["value"])
            print(f"{workload} seed {seed}: correct={line['correct']} failed={line['failed']}/"
                  f"{line['attempted']} " + " ".join(
                      f"{k}={v['value']:.4g}" for k, v in line["metrics"].items()), flush=True)
        stats = {}
        for metric in spec["end_to_end"]:
            vals = values[metric["name"]]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            ok = metric["name"] == "setup_s" or spread < metric["bound"] / 3
            steady &= ok
            stats[metric["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                                     "bound": metric["bound"], "values": vals}
            print(f"  {metric['name']:12s} median {med:.4g} spread {spread:.3f} "
                  f"bound {metric['bound']} {'ok' if ok else 'WIDE'}", flush=True)
        summary[workload] = {"end_to_end": stats, "runs": results}
    if args.write:
        for workload in args.workloads:
            line, env = run_once(workload, 0, spec["run_seconds"], 1)
            summary[workload]["per_layer_seed0"] = line
        args.write.write_text(json.dumps({"environment": env, "run_seconds": spec["run_seconds"],
                                          "workloads": summary}, indent=1) + "\n")
    print("steady" if steady else "not steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
