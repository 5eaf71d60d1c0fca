"""Before/after benchmark record: alternating parent/change runs, per workload.

    python3 tools/bench_pairs.py PARENT [CHANGE]        # CHANGE defaults to HEAD

Both revisions are extracted from git (their committed files only, as
``git archive`` gives them) into fresh directories under the system temp
directory.  For every workload of BENCHMARK.json, pair i runs

    python3 benchmark/run.py --workload W --seed S --seconds 25 --trace 0

in each checkout with seed S = 11 + i, for ten pairs, the parent first in
even pairs and the change first in odd ones.  The record goes to
BENCH_<change commit>.json at the repository root: per workload and
end-to-end metric, the parent's and the change's median and quartiles
(``statistics.quantiles`` n=4), the median's change in percent, the pairs
in which the change did better, three verdicts (``gain_shown``: the change
won at least 9 of 10 pairs and its median is better by more than the
parent's q3 - q1; ``within_bound``: its median is worse by at most the
metric's bound; ``spread_within_bound``: its own q3 - q1 is at most the
bound times the parent's median, which shows a spread too wide to tell
apart before a gate refuses it, and gates nothing here), and whether every
run was correct with no failed operation; ``rss_fit``, the least-squares
line of peak_rss_mb against completed operations (attempted - failed) over
the workload's 20 runs: intercept in MiB, slope in bytes per operation, r,
each side's median residual and the operations that peak_rss_mb's bound
admits above the parent's median (``headroom_ops``, and as a gain in
percent, ``headroom_gain_pct``), which gates nothing; plus each run's
figures, the machine, the versions, and both commits with the line count of their
src/setfam and their ``import_ms``: the median process CPU time, in ms, of
``load_setfam()`` from their benchmark/workloads.py (the setfam modules the
benchmark imports) after ``import numpy``, over 15 fresh processes per side,
alternating, with PYTHONDONTWRITEBYTECODE=1 so that each compiles setfam
from source as a benchmark run does.  ``import_ms`` is reported and gates
nothing.  A record of four workloads took 40 minutes to two hours on a
2-core machine: each run adds its set-up samples to the 25 s it measures.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10
FIRST_SEED = 11
SECONDS = 25
IMPORT_RUNS = 15
IMPORT_PROBE = """
import sys, time, numpy
sys.path[:0] = ["src", "benchmark"]
from workloads import load_setfam
start = time.process_time()
load_setfam()
print((time.process_time() - start) * 1e3)
"""


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def checkout(commit: str, into: Path) -> Path:
    """The committed files of commit, extracted into a new directory."""
    into.mkdir()
    archive = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT,
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return into


def source_lines(tree: Path) -> int:
    """Lines of the package source, src/setfam/*.py, in tree."""
    return sum(len(p.read_text().splitlines()) for p in (tree / "src" / "setfam").glob("*.py"))


def import_ms(trees: dict[str, Path], runs: int = IMPORT_RUNS) -> dict[str, float]:
    """Per side, the median CPU ms of importing setfam, parent first in even runs."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    env.pop("PYTHONPATH", None)
    times: dict[str, list[float]] = {side: [] for side in trees}
    for i in range(runs):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=trees[side], env=env,
                                 check=True, capture_output=True, text=True).stdout
            times[side].append(float(out))
    return {side: statistics.median(t) for side, t in times.items()}


def bench(tree: Path, workload: str, seed: int) -> dict:
    """One benchmark run in tree: its result line, or the failure."""
    cmd = [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", "0"]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, env=env, check=False)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}
    return {"exit": proc.returncode, "correct": result.get("correct", False),
            "attempted": result.get("attempted"), "failed": result.get("failed"),
            "metrics": {k: v["value"] for k, v in result.get("metrics", {}).items()}}


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3}


def compare(runs: list[dict], metrics: list[dict]) -> dict:
    """Per end-to-end metric: both sides' medians and quartiles, the pair wins, three verdicts.

    gain_shown: the change did better in at least 9 of 10 pairs and its median
    is better than the parent's by more than the parent's q3 - q1.
    within_bound: the change's median is worse than the parent's by at most
    the metric's bound, a fraction of the parent's median.
    spread_within_bound: the change's q3 - q1 is at most that same fraction
    of the parent's median.
    """
    out = {}
    for m in metrics:
        name, higher = m["name"], m["better"] == "higher"
        pairs = [(r["parent"]["metrics"].get(name), r["change"]["metrics"].get(name))
                 for r in runs]
        pairs = [(p, c) for p, c in pairs if p is not None and c is not None]
        if not pairs:
            continue
        parent = summary([p for p, _ in pairs])
        change = summary([c for _, c in pairs])
        wins = sum((c > p) if higher else (c < p) for p, c in pairs)
        gain = change["median"] - parent["median"] if higher else parent["median"] - change["median"]
        out[name] = {"unit": m["unit"], "better": m["better"], "bound": m["bound"],
                     "parent": parent, "change": change,
                     "median_change_pct": 100.0 * (change["median"] / parent["median"] - 1.0)
                     if parent["median"] else None,
                     "change_wins": wins, "pairs": len(pairs),
                     "gain_shown": 10 * wins >= 9 * len(pairs)
                     and gain > parent["q3"] - parent["q1"],
                     "within_bound": -gain <= m["bound"] * abs(parent["median"]),
                     "spread_within_bound":
                     change["q3"] - change["q1"] <= m["bound"] * abs(parent["median"])}
    return out


def rss_fit(runs: list[dict], bound: float = 0.1) -> dict | None:
    """The least-squares line of peak_rss_mb against completed operations, both sides' runs.

    Completed operations are attempted - failed.  The line's intercept is in
    MiB and its slope in bytes per operation; r is the correlation, and each
    side's median residual (MiB) shows whether it sits above or below the
    line.  headroom_ops is how many more operations the line admits before
    peak_rss_mb passes its bound: bound * the parent's median peak_rss_mb /
    the slope; headroom_gain_pct is that count over the parent's median
    completed operations, in percent.  Both are None for a slope <= 0 or
    without parent runs.  None when fewer than two runs report both figures
    or every run completed the same count.
    """
    points = {"parent": [], "change": []}
    for run in runs:
        for side, pts in points.items():
            ops, rss = run[side].get("attempted"), run[side]["metrics"].get("peak_rss_mb")
            if ops is not None and rss is not None:
                pts.append((ops - (run[side].get("failed") or 0), rss))
    xs = [x for pts in points.values() for x, _ in pts]
    ys = [y for pts in points.values() for _, y in pts]
    try:
        slope, intercept = statistics.linear_regression(xs, ys)
        r = statistics.correlation(xs, ys)
    except statistics.StatisticsError:
        return None
    headroom = gain = None
    if slope > 0 and points["parent"]:
        headroom = bound * statistics.median(y for _, y in points["parent"]) / slope
        gain = 100.0 * headroom / statistics.median(x for x, _ in points["parent"])
    return {"intercept_mib": intercept, "slope_b_per_op": slope * 2**20, "r": r,
            "runs": len(xs), "headroom_ops": headroom, "headroom_gain_pct": gain,
            "median_residual_mib": {side: statistics.median(y - intercept - slope * x
                                                            for x, y in pts) if pts else None
                                    for side, pts in points.items()}}


def machine() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"cores": os.cpu_count(), "cpu_model": cpu, "platform": platform.platform(),
            "python": platform.python_version(), "numpy": numpy.__version__}


def main(argv: list[str]) -> int:
    if not 1 <= len(argv) <= 2:
        print(__doc__, file=sys.stderr)
        return 2
    revs = {"parent": argv[0], "change": argv[1] if len(argv) > 1 else "HEAD"}
    commits = {side: git("rev-parse", "--verify", rev + "^{commit}") for side, rev in revs.items()}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rss_bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "peak_rss_mb")
    work = Path(tempfile.mkdtemp(prefix="bench_pairs-"))
    try:
        trees = {side: checkout(c, work / side) for side, c in commits.items()}
        imports = import_ms(trees)
        record = {
            "description": f"{PAIRS} alternating parent/change pairs per workload, seeds "
                           f"{FIRST_SEED}-{FIRST_SEED + PAIRS - 1}, each run "
                           f"'benchmark/run.py --workload W --seed S --seconds {SECONDS} "
                           "--trace 0' in a checkout of the committed files; parent first in "
                           "even pairs; quartiles by statistics.quantiles(n=4); change_wins "
                           "counts the pairs in which the change did better.",
            "commits": {side: {"commit": c, "subject": git("log", "-1", "--format=%s", c),
                               "src_setfam_lines": source_lines(trees[side]),
                               "import_ms": imports[side]}
                        for side, c in commits.items()},
            "machine": machine(),
            "workloads": {},
        }
        for w in spec["workloads"]:
            name = w["name"]
            runs = []
            for i in range(PAIRS):
                seed = FIRST_SEED + i
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                run = {"seed": seed, "first": order[0]}
                for side in order:
                    run[side] = bench(trees[side], name, seed)
                    print(f"# {name} seed {seed} {side}: exit {run[side]['exit']}, "
                          f"ops_per_s {run[side]['metrics'].get('ops_per_s')}",
                          file=sys.stderr, flush=True)
                runs.append(run)
            sides = [r[s] for r in runs for s in ("parent", "change")]
            record["workloads"][name] = {
                "correct": all(r["correct"] and r["exit"] == 0 for r in sides),
                "failed_ops": {s: sum(r[s]["failed"] or 0 for r in runs)
                               for s in ("parent", "change")},
                "metrics": compare(runs, spec["end_to_end"]),
                "rss_fit": rss_fit(runs, rss_bound),
                "runs": runs,
            }
        out = ROOT / f"BENCH_{commits['change'][:12]}.json"
        out.write_text(json.dumps(record, indent=1) + "\n")
        print(out)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
