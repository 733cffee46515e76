"""Check that the benchmark is steady: run each workload on seeds 1 to 10,
one or more times, and compare.

    python3 bench/stability.py --sets 2

For every end-to-end metric it prints the spread of each set (distance
between the first and third quartile of the per-seed values, as a share of
their median) against the metric's bound from BENCHMARK.json, and with two
or more sets how far each later median moved from the first.  Runs of one
seed must agree exactly on their counts and output digests.  Exits 1 when a
run is not correct, a spread exceeds its bound, a median worsens by more than
its bound, or counts or digests disagree.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)


def run(workload, seed, seconds):
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    details = json.loads((ROOT / "bench" / "out" / f"{workload}-seed{seed}-trace0.json").read_text())
    return result, details


def spread(values):
    q1, _, q3 = quantiles(values, n=4)
    return (q3 - q1) / median(values)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sets", type=int, default=1)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        sets = []
        for k in range(args.sets):
            runs = {}
            for seed in SEEDS:
                result, details = run(workload, seed, spec["run_seconds"])
                runs[seed] = (result, details)
                print(f"{workload} set {k} seed {seed}: correct {result['correct']} "
                      f"failed {result['failed']}/{result['attempted']} "
                      + " ".join(f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()),
                      flush=True)
                if not result["correct"]:
                    ok = False
            sets.append(runs)
        print(f"\n{workload}: spread = (q3 - q1) / median over {len(SEEDS)} seeds")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            per_set = [[r["metrics"][name]["value"] for r, _ in runs.values()] for runs in sets]
            spreads = [spread(v) for v in per_set]
            meds = [median(v) for v in per_set]
            flags = []
            if max(spreads) > bound:
                flags.append("SPREAD ABOVE BOUND")
                ok = False
            elif max(spreads) > bound / 3:
                flags.append("spread above a third of the bound")
            for m in meds[1:]:
                worse = (m - meds[0]) / meds[0] * (1 if metric["better"] == "lower" else -1)
                if worse > bound:
                    flags.append(f"MEDIAN WORSE BY {worse:.1%}")
                    ok = False
            print(f"  {name:16s} bound {bound:5.2f}  spreads "
                  + " ".join(f"{s:6.2%}" for s in spreads)
                  + "  medians " + " ".join(f"{m:.6g}" for m in meds)
                  + ("  " + "; ".join(flags) if flags else ""))
        same = True
        for seed in SEEDS:
            first = sets[0][seed][1]
            for runs in sets[1:]:
                other = runs[seed][1]
                for key in ("counts", "digests"):
                    if other[key] != first[key]:
                        print(f"  seed {seed}: {key} differ between sets")
                        same = ok = False
        print(f"  counts and digests of each seed identical across {args.sets} set(s): "
              f"{'yes' if same else 'NO'}\n")
    print("STEADY" if ok else "NOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
