"""setfam benchmark: four workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 benchmark/run.py                       # all workloads, seed 1, 25 s each
    python3 benchmark/run.py --workload banded-n16 --seed 3 --seconds 25 --trace 0
    python3 benchmark/run.py --workload oracles --trace 1    # per-layer metrics
    python3 benchmark/run.py --self-check          # each output check can fail

setfam is imported from ./src (no install needed).  A single-workload run
prints its metrics by name and unit, writes a result file under
benchmark/out/results/, and ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end ones, measured with tracing off; with --trace 1 the run
measures untraced and then traced for --seconds each, and reports the
per-layer metrics plus the tracing overhead.  Operation and set-up times
are CPU time of the process, rescaled to a reference machine speed (see
workloads.machine_speed); run lengths and spans are wall time.  See
benchmark/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_SAMPLES = 5  # set-ups per run (four in fresh processes); setup_s is their median
SETUP_PROBES = 5  # speed probes before each set-up

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_ms_p50": "ms",
    "op_ms_p95": "ms",
    "queries_per_s": "queries/s",
    "iterations_per_s": "iterations/s",
    "peak_rss_mb": "MiB",
}

# per-layer metric -> (unit, how it is read from the tracer)
PER_LAYER = {
    "rng.streams": ("count", ("calls", "rng.stream")),
    "rng.stream_s": ("s", ("self", "rng.stream")),
    "boolfn.band_batches": ("count", ("calls", "boolfn.band_sample")),
    "boolfn.band_sample_s": ("s", ("self", "boolfn.band_sample")),
    "testers.runs": ("count", ("calls", "testers.run")),
    "testers.iterations": ("count", ("counts", "testers.iterations")),
    "testers.self_s": ("s", ("self", "testers.run")),
    "boolfn.counter_self_s": ("s", ("self", "boolfn.counter")),
    "boolfn.downsets": ("count", ("counts", "boolfn.downsets")),
    "boolfn.downset_points": ("count", ("counts", "boolfn.downset_points")),
    "boolfn.enumerate_s": ("s", ("self", "boolfn.enumerate")),
    "violations.witness_checks": ("count", ("calls", "violations.witness")),
    "violations.witness_self_s": ("s", ("self", "violations.witness")),
    "violations.witnesses_found": ("count", ("counts", "violations.witnesses_found")),
    "oracle.table.queries": ("count", ("calls", "oracle.table")),
    "oracle.table.ns_per_query": ("ns", ("per_call", "oracle.table")),
    "oracle.builtin.queries": ("count", ("calls", "oracle.builtin")),
    "oracle.builtin.ns_per_query": ("ns", ("per_call", "oracle.builtin")),
    "oracle.instance.queries": ("count", ("calls", "oracle.instance")),
    "oracle.instance.ns_per_query": ("ns", ("per_call", "oracle.instance")),
    "testers.rejects": ("count", ("counts", "testers.rejects")),
    "testers.round_success": ("ratio", ("extra", "testers.round_success")),
    "distance.dist_int_calls": ("count", ("calls", "distance.dist_int")),
    "distance.dist_int_s": ("s", ("self", "distance.dist_int")),
    "distance.dist_uc_calls": ("count", ("calls", "distance.dist_uc")),
    "distance.dist_uc_s": ("s", ("self", "distance.dist_uc")),
    "distance.property_checks": ("count", ("calls", "distance.property_check")),
    "distance.property_check_s": ("s", ("self", "distance.property_check")),
    "distance.repair_s": ("s", ("self", "distance.repair")),
    "distance.tuple_count_s": ("s", ("self", "distance.tuple_count")),
    "violations.matchings": ("count", ("calls", "violations.matching")),
    "violations.matching_s": ("s", ("self", "violations.matching")),
    "boolfn.table_ones_s": ("s", ("self", "boolfn.table_ones")),
    "boolfn.table_array_s": ("s", ("self", "boolfn.table_array")),
    "hardness.builds": ("count", ("calls", "hardness.build")),
    "hardness.build_s": ("s", ("self", "hardness.build")),
    "hardness.materialized_points": ("count", ("counts", "hardness.materialized_points")),
    "hardness.materialize_s": ("s", ("self", "hardness.materialize")),
    "hardness.no_count_s": ("s", ("self", "hardness.no_count")),
    "hardness.mc_samples": ("count", ("counts", "hardness.mc_samples")),
    "hardness.mc_s": ("s", ("self", "hardness.mc")),
    "cli.commands": ("count", ("calls", "cli.command")),
    "cli.rows": ("count", ("counts", "cli.rows")),
    "cli.self_s": ("s", ("self", "cli.command")),
    "trace.overhead_pct": ("%", ("overhead", None)),
}


def fail(message: str) -> None:
    print(f"benchmark: {message}", file=sys.stderr)
    sys.exit(2)


def use_source_tree():
    """Put ./src first on the path and make sure setfam comes from there."""
    if not (SRC / "setfam" / "__init__.py").is_file():
        fail(f"no setfam sources under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    os.environ.pop("SETFAM_THREADS", None)  # the workloads are single-threaded


def pin_to_fastest_cpu(reps: int = 9) -> dict:
    """Pin this process, and the set-up processes it starts, to one CPU: the
    allowed CPU on which the speed probe runs fastest, by the median of
    `reps` interleaved samples.  On a shared VM the vCPUs can differ in speed
    by a third, and pinning keeps the probe on the CPU the operations run on
    (see "Noise" in README.md).  Returns the CPU and each CPU's probe time."""
    from workloads import speed_probe

    if not hasattr(os, "sched_setaffinity"):
        return {}
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return {}
    samples = {cpu: [] for cpu in cpus}
    try:
        for _ in range(reps):
            for cpu in cpus:
                os.sched_setaffinity(0, {cpu})
                samples[cpu].append(speed_probe())
    except OSError:  # not allowed here: run unpinned
        with contextlib.suppress(OSError):
            os.sched_setaffinity(0, cpus)
        return {}
    probe_ms = {cpu: statistics.median(v) / 1e6 for cpu, v in samples.items()}
    best = min(probe_ms, key=probe_ms.get)
    os.sched_setaffinity(0, {best})
    return {"cpu": best, "probe_ms": probe_ms}


def check_source_import():
    import setfam

    if Path(setfam.__file__).resolve().parent != (SRC / "setfam").resolve():
        fail(f"setfam was imported from {setfam.__file__}, not from {SRC}")


# -- one workload ----------------------------------------------------------------


def timed_setup(name: str, seed: int, workdir: Path):
    """The workload, set up, and its set-up time at the reference speed."""
    from workloads import WORKLOADS, SetupClock, machine_speed, speed_probe

    probes = [speed_probe() for _ in range(SETUP_PROBES)]
    clock = SetupClock()
    workload = WORKLOADS[name](seed, workdir)
    workload.setup(clock)
    elapsed = clock.elapsed()
    check_source_import()
    return workload, elapsed * machine_speed(probes)


def setup_in_subprocess(name: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=150, check=False)
    if proc.returncode != 0:
        fail(f"set-up of {name} failed in a fresh process:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def measure(workload, seconds: float):
    from workloads import Measure, speed_probe

    m = Measure()
    t0 = time.perf_counter()
    k = 0
    while k == 0 or time.perf_counter() - t0 < seconds:
        workload.round(m, k)
        m.end_round()
        k += 1
    m.rounds = k
    m.probe_ns.append(speed_probe())
    return m


def end_to_end(m, setup_s: float, speed: float = 1.0) -> dict:
    """Rates are medians over rounds, so a slow spell shorter than half the run
    does not move them; latencies are percentiles over all operations.  Times
    are multiplied, and rates divided, by `speed` (see workloads.machine_speed);
    `setup_s` comes rescaled already."""
    ms = [d / 1e6 * speed for d in m.durations_ns]
    p95 = statistics.quantiles(ms, n=100, method="inclusive")[94] if len(ms) > 1 else ms[0]
    ops, queries, iterations = (statistics.median(r) / speed for r in zip(*m.round_rates()))
    values = {
        "setup_s": setup_s,
        "ops_per_s": ops,
        "op_ms_p50": statistics.median(ms),
        "op_ms_p95": p95,
        "queries_per_s": queries,
        "iterations_per_s": iterations,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def per_layer(tracer, workload, untraced, traced) -> dict:
    from workloads import machine_speed

    def mean_op(m):
        return sum(m.durations_ns) / len(m.durations_ns) * machine_speed(m.probe_ns)

    overhead = 100.0 * (mean_op(traced) / mean_op(untraced) - 1.0)
    extras = workload.layer_extras()
    out = {}
    for name, (unit, (source, key)) in PER_LAYER.items():
        if source == "calls":
            v = tracer.calls[key]
        elif source == "counts":
            v = tracer.counts[key]
        elif source == "self":
            v = tracer.self_seconds(key)
        elif source == "per_call":
            v = tracer.self_seconds(key) * 1e9 / tracer.calls[key] if tracer.calls[key] else 0.0
        elif source == "extra":
            v = extras.get(key, 0.0)
        else:
            v = overhead
        out[name] = {"value": v, "unit": unit}
    return out


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    from spans import Tracer
    from workloads import machine_speed

    pin = pin_to_fastest_cpu()
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        samples = [setup_in_subprocess(name, seed) for _ in range(SETUP_SAMPLES - 1)]
        workload, own = timed_setup(name, seed, workdir)
        samples.append(own)
        m = measure(workload, seconds)
        workload.finish(m)
        speed = machine_speed(m.probe_ns)
        metrics = end_to_end(m, statistics.median(samples), speed)
        raw = end_to_end(m, statistics.median(samples))
        passes = [m]
        tracer = None
        if trace:
            tracer = Tracer()
            tracer.calibrate()
            workload.tracer = tracer
            tracer.install()
            try:
                mt = measure(workload, seconds)
            finally:
                tracer.uninstall()
                workload.tracer = None
            workload.finish(mt)
            passes.append(mt)
            layers = per_layer(tracer, workload, m, mt)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    errors = [e for p in passes for e in p.errors]
    failures = [f for p in passes for f in p.failures]
    result = {
        "correct": not errors,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": layers if trace else metrics,
    }
    print(f"# {name} seed {seed}: {m.rounds} rounds, {len(m.durations_ns)} ops in "
          f"{sum(m.durations_ns) / 1e9:.2f} s of op CPU time, {m.wall_ns / 1e9:.2f} s of "
          f"op wall time ({len(m.durations_ns) * 1e9 / m.wall_ns:.6g} ops/s by wall); setup samples "
          + ", ".join(f"{s:.3f}" for s in samples)
          + f"; machine speed {speed:.4f} (median of {len(m.probe_ns)} probes)"
          + (f"; pinned to CPU {pin['cpu']} (probe ms by CPU: "
             + ", ".join(f"{c}: {t:.2f}" for c, t in pin["probe_ms"].items()) + ")"
             if pin else ""))
    print_metrics(metrics)
    print("# as measured, before rescaling by the machine speed (setup_s: "
          "rescaled per set-up):")
    print_metrics({k: v for k, v in raw.items() if k not in ("setup_s", "peak_rss_mb")})
    if trace:
        print(f"# per-layer (traced pass, {mt.rounds} rounds; {tracer.dropped} spans "
              f"beyond the first {tracer.keep} kept only as totals; span cost "
              f"{tracer.inner_ns:.0f} ns inside + {tracer.leak_ns:.0f} ns in the parent, "
              "subtracted from self times)")
        print_metrics(layers)
    for line in errors[:10] + failures[:10]:
        print(f"# ! {line}")
    path = write_result(name, seed, seconds, trace, result, samples, pin, speed, raw,
                        metrics if trace else None)
    if tracer is not None:
        tracer.dump(path.with_suffix(".spans.json"))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def print_metrics(metrics: dict) -> None:
    for k, v in metrics.items():
        print(f"  {k:32s} {v['value']:>16.6g} {v['unit']}")


# -- run record --------------------------------------------------------------------


def environment() -> dict:
    import numpy
    import setfam

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "setfam").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "cores": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "setfam": setfam.__version__,
        "commit": git_commit(),
        "source_sha256": digest.hexdigest(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout's own .git, if it has one (read without git)."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            if ref_path.is_file():
                return ref_path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
            return None
        return ref
    except OSError:
        return None


def write_result(name, seed, seconds, trace, result, samples, pin, speed, raw,
                 untraced) -> Path:
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    path = results / f"{name}-seed{seed}-trace{int(trace)}-{stamp}-{os.getpid()}.json"
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "utc": stamp, "environment": environment(), "setup_samples_s": samples,
              "cpu_pin": pin, "machine_speed": speed, "unscaled_end_to_end": raw,
              "result": result}
    if untraced is not None:
        record["untraced_end_to_end"] = untraced
    path.write_text(json.dumps(record, indent=1) + "\n")
    return path


# -- all workloads, self-check -------------------------------------------------------


def run_all(seed: int, seconds: float, trace: bool) -> int:
    from workloads import WORKLOADS

    code = self_check()
    combined = {"correct": code == 0, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, timeout=600, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode not in (0, 1) or not lines:
            combined["correct"] = False
            print(f"# {name}: exit {proc.returncode}")
            continue
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = v
        print(f"# {name}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}")
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def self_check() -> int:
    """Feed each output check a deliberately wrong result; each must fail."""
    import numpy as np

    import reference as R
    from workloads import (check_certificate, check_n4_results, check_sweep,
                           check_tester_report, csv_rows, load_setfam, run_cli)

    B, C, D, T, V = load_setfam()
    uc, inter = R.n4_families()
    fam = {"uc": uc, "int": inter, "uc_set": set(uc.tolist()), "int_set": set(inter.tolist()),
           "closure": lambda mask: R.mask_of(R.union_closure(R.values_of(mask, 4), 4))}
    cases = []

    table = B.TruthTable(4, int(uc[1234]))
    rep = T.uc_tester(table, T.TesterConfig(eps=0.5, seed=5, max_iterations=40))
    flipped = dataclasses.replace(rep, verdict="reject")
    cases.append(("flipped verdict", check_tester_report("uc_tester", rep, verdict="accept"),
                  check_tester_report("uc_tester", flipped, verdict="accept")))

    mask = 0b1011_0110_1001_0111
    t = B.TruthTable(4, mask)
    res = {"dist_int": D.dist_int_exact(t), "dist_uc": D.dist_uc_exact(t)}
    for key in ("dist_int", "dist_uc"):
        bad = dict(res)
        bad[key] = dataclasses.replace(res[key], flips=res[key].flips + 1)
        cases.append((f"{key} off by one flip", check_n4_results(mask, res, fam),
                      check_n4_results(mask, bad, fam)))

    rounds = R.default_rounds(3, 0.5)
    rep = T.int_pair_tester(B.TruthTable(3, 0b1010_0000), T.TesterConfig(eps=0.5, seed=2))
    wrong = dataclasses.replace(rep, iterations_run=rep.iterations_run + 1,
                                queries=rep.queries + 2)
    cases.append(("wrong round count",
                  check_tester_report("int_pair_tester", rep, iterations=rounds,
                                      queries_per_iteration=2),
                  check_tester_report("int_pair_tester", wrong, iterations=rounds,
                                      queries_per_iteration=2)))

    values = np.zeros(16, dtype=np.uint8)
    values[[0b0001, 0b0010]] = 1  # their union 0b0011 is a 0-input
    rep = T.uc_tester(B.TruthTable.from_array(4, values), T.TesterConfig(eps=0.1, seed=1))
    cert = rep.certificate.to_json_obj() if rep.certificate else {}
    corrupt = dict(cert, end=cert.get("end", 0) ^ 0b1000)
    cases.append(("corrupted certificate", check_certificate("uc_tester", cert, values)
                  if rep.verdict == "reject" else ["uc_tester did not reject"],
                  check_certificate("uc_tester", corrupt, values)))

    code, text = run_cli(C, ["sweep", "--what", "unique-sat", "--ns", "25", "--epss", "1",
                             "--trials", "20000", "--seed", "3"])
    rows = csv_rows(text)
    skewed = [dict(r, estimate=str(float(r["estimate"]) * 1.5)) for r in rows]
    cases.append(("Monte Carlo estimate off the closed form",
                  check_sweep("unique-sat", rows), check_sweep("unique-sat", skewed)))

    ok = True
    for what, genuine, mutant in cases:
        good = not genuine and bool(mutant)
        ok &= good
        print(f"# self-check {what}: {'PASS' if good else 'FAIL'}"
              + ("" if good else f" genuine={genuine} mutant={mutant}"))
    return 0 if ok else 1


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-check", action="store_true")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")
    use_source_tree()
    if args.self_check:
        return self_check()
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")
    if args.setup_only:
        workdir = OUT / f"work-{os.getpid()}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            _, elapsed = timed_setup(args.workload, args.seed, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print(json.dumps({"setup_s": elapsed}))
        return 0
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
