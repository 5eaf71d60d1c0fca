"""Ten-seed reference figures: run each workload once per seed, one run after
another, and write the per-metric medians, quartiles and spreads.

    python3 benchmark/baseline.py                         # all workloads, seeds 1-10
    python3 benchmark/baseline.py --workloads oracles --seeds 1,2,3,4,5 --out -

The spread is (q3 - q1) / median with the quartiles of
`statistics.quantiles(values, n=4)`.  The record goes to
benchmark/baseline.json unless --out says otherwise (`-` prints it only).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def main() -> int:
    sys.path.insert(0, str(BENCH))
    import run
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workloads", default=",".join(WORKLOADS))
    p.add_argument("--seeds", default=",".join(str(s) for s in range(1, 11)))
    p.add_argument("--seconds", type=int,
                   default=json.loads((BENCH.parent / "BENCHMARK.json").read_text())["run_seconds"])
    p.add_argument("--out", default=str(BENCH / "baseline.json"))
    args = p.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]

    run.use_source_tree()
    record = {"description": f"One run per seed ({args.seeds}) and workload, --seconds "
                             f"{args.seconds} --trace 0, one after another; per metric the "
                             "median, quartiles (statistics.quantiles n=4) and spread = "
                             "(q3-q1)/median.",
              "environment": run.environment(), "workloads": {}}
    for name in args.workloads.split(","):
        runs, values = [], {}
        for seed in seeds:
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                cwd=BENCH.parent, capture_output=True, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            res = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}
            runs.append({"seed": seed, "exit": proc.returncode,
                         "wall_s": round(time.perf_counter() - t0, 1),
                         "correct": res.get("correct"), "attempted": res.get("attempted"),
                         "failed": res.get("failed")})
            for k, v in res.get("metrics", {}).items():
                values.setdefault(k, []).append(v["value"])
            print(f"{name} seed {seed}: {runs[-1]}", flush=True)
        metrics = {}
        for k, vs in values.items():
            q1, _, q3 = statistics.quantiles(vs, n=4)
            med = statistics.median(vs)
            metrics[k] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
                          "values": vs}
            print(f"  {k:20s} median {med:.6g} spread {(q3 - q1) / med:.3f}", flush=True)
        record["workloads"][name] = {"runs": runs, "metrics": metrics}
    if args.out != "-":
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0 if all(r["exit"] == 0 for w in record["workloads"].values()
                    for r in w["runs"]) else 1


if __name__ == "__main__":
    sys.exit(main())
