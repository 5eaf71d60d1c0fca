"""Reproducible experiment harness.

Subcommands: gen | test | dist | sweep | verify.  Outputs are byte-identical
for identical (spec, seed, version) regardless of thread count: every row of
work draws from its own derived stream and rows are written in index order.
CSV files are RFC-4180 with `#`-prefixed header comment lines; wall-clock
columns stay empty unless --timing is passed (timing is the one thing that
cannot be reproducible).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__
from .boolfn import (
    DEFAULT_ENUMERATION_CAP,
    ResourceCapError,
    TruthTable,
    const_function,
    dictator,
    majority,
    parse_bits,
)
from .distance import dist_int_exact, dist_uc_exact, is_intersecting, is_union_closed
from .hardness import (
    BadEventParams,
    bad_pair_bound,
    build_int_instance,
    build_uc_instance,
    count_int_no_violations,
    count_uc_no_violations,
    estimate_bad_probability,
    load_instance,
    sample_talagrand,
    uc_no_r_tally,
    unique_sat_probability,
)
from .rng import stream
from .testers import (
    TesterConfig,
    int_pair_tester,
    int_tester,
    uc_tester,
    uc_triple_tester,
)
from .violations import certificate_from_json_obj

SCHEMA_VERSION = "setfam-csv v1"

ALGORITHMS = {
    "uc": uc_tester,
    "int": int_tester,
    "uc-triple": uc_triple_tester,
    "int-pair": int_pair_tester,
}


def _row_seed(master: int, index: int) -> int:
    """Derived u64 seed for row `index` of a run keyed by `master`."""
    return int(np.random.SeedSequence((master, index)).generate_state(1, np.uint64)[0])


def _thread_count(args) -> int:
    if args.threads is not None:
        return max(1, args.threads)
    env = os.environ.get("SETFAM_THREADS")
    return max(1, int(env)) if env else 1


def _emit(args, text: str) -> None:
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def _run_rows(fn, count: int, threads: int) -> list:
    """Evaluate fn(0..count-1), possibly threaded, merged in index order."""
    if threads <= 1:
        return [fn(i) for i in range(count)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, range(count)))


class CsvDoc:
    """Accumulates comment lines + rows, serialized once (deterministic bytes)."""

    def __init__(self, command: str, params: str, columns: list[str]):
        self.comments = [SCHEMA_VERSION, f"version: {__version__}",
                         f"command: {command}", f"params: {params}"]
        self.columns = columns
        self.rows: list[list] = []

    def add(self, row: list) -> None:
        self.rows.append(row)

    def text(self) -> str:
        buf = io.StringIO()
        for c in self.comments:
            buf.write(f"# {c}\r\n")
        w = csv.writer(buf)
        w.writerow(self.columns)
        for row in self.rows:
            w.writerow(row)
        return buf.getvalue()


# -- function sources -------------------------------------------------------------


def resolve_function(spec: str, n: int | None):
    """Builtin name, ones:{...} literal, BFTT1 path, or instance/table JSON path."""
    if spec in ("const0", "const1"):
        if n is None:
            raise SystemExit("--n is required for builtin functions")
        return const_function(n, int(spec == "const1"))
    if spec == "majority":
        if n is None:
            raise SystemExit("--n is required for builtin functions")
        return majority(n)
    if spec.startswith("dictator-"):
        if n is None:
            raise SystemExit("--n is required for builtin functions")
        return dictator(n, int(spec.split("-", 1)[1]))
    if spec.startswith("ones:"):
        if n is None:
            raise SystemExit("--n is required for ones:{...} functions")
        body = spec[5:].strip("{}")
        pts = [parse_bits(s.strip()) for s in body.split(",") if s.strip()]
        return TruthTable.from_ones(n, pts)
    path = Path(spec)
    if path.suffix == ".bftt1":
        return TruthTable.load(path)
    if path.suffix == ".json":
        obj = json.loads(path.read_text())
        if "ones" in obj:
            return TruthTable.from_json_obj(obj)
        return load_instance(obj).function()
    raise SystemExit(f"cannot interpret function source {spec!r}")


# -- gen ---------------------------------------------------------------------------

GEN_KINDS = ("talagrand", "int-yes", "int-no", "int-one-sided-no", "uc-yes", "uc-no")


def _verify_instance(inst, table: TruthTable | None = None) -> dict:
    """The instance's exact check; ``table`` is its materialization, if already built."""
    kind = inst.to_json_obj()["kind"]
    out: dict = {"kind": kind}
    if kind in ("int-yes", "uc-yes"):
        if inst.arity <= 20:
            if table is None:
                table = inst.materialize()
            if kind == "int-yes":
                out["intersecting"] = is_intersecting(table)
            else:
                out["union_closed"] = is_union_closed(table)
        else:
            out["checked"] = False
            out["reason"] = "arity too large for the exact property check"
    elif kind.startswith("int-"):
        count = count_int_no_violations(inst)
        out["disjoint_violating_pairs"] = count
        out["certified_distance_lb"] = f"{count}/{1 << inst.arity}"
    else:
        count = count_uc_no_violations(inst)
        good, bad = uc_no_r_tally(inst)
        out["disjoint_violating_triples"] = count
        out["certified_distance_lb"] = f"{count}/{1 << inst.arity}"
        out["good_r"] = good
        out["bad_r"] = bad
    return out


def cmd_gen(args) -> int:
    if args.kind == "talagrand":
        dnf = sample_talagrand(args.n, args.eps, stream(args.seed))
        doc = {
            "kind": "talagrand",
            "n": args.n,
            "eps": args.eps,
            "seed": args.seed,
            "term_size": dnf.term_size,
            "num_terms": dnf.num_terms,
            "terms": dnf.term_coordinate_lists(),
        }
        _emit(args, json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
        return 0
    if args.kind.startswith("int-"):
        inst = build_int_instance(args.kind[4:].replace("-", "_"), args.n, args.eps, args.seed)
    else:
        inst = build_uc_instance(args.kind[3:], args.n, args.eps, args.seed)
    table = None
    if args.table:
        table = inst.materialize()
        table.save(args.table)
    report = {"instance": inst.to_json_obj(), "verification": _verify_instance(inst, table)}
    _emit(args, json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n")
    return 0


# -- test --------------------------------------------------------------------------

TEST_COLUMNS = [
    "trial", "alg", "fn", "n", "eps", "seed", "verdict", "queries",
    "iterations_run", "round_success_est", "certificate", "wall_ms",
]


def cmd_test(args) -> int:
    f = resolve_function(args.fn, args.n)
    alg = ALGORITHMS[args.alg]
    params = (
        f"alg={args.alg} fn={args.fn} n={f.arity} eps={args.eps} "
        f"trials={args.trials} seed={args.seed} max_iterations={args.max_iterations} "
        f"tau_constant={args.tau_constant} cap={args.cap}"
    )
    doc = CsvDoc("test", params, TEST_COLUMNS)

    def run(trial: int) -> list:
        seed = _row_seed(args.seed, trial)
        cfg = TesterConfig(
            eps=args.eps,
            seed=seed,
            max_iterations=args.max_iterations,
            enumeration_cap=args.cap,
            tau_constant=args.tau_constant,
        )
        t0 = time.perf_counter() if args.timing else 0.0
        try:
            rep = alg(f, cfg)
        except ResourceCapError as exc:  # cap overruns become data, not crashes
            return [trial, args.alg, args.fn, f.arity, args.eps, seed,
                    "ERROR", "", "", "", str(exc), ""]
        wall = f"{(time.perf_counter() - t0) * 1e3:.3f}" if args.timing else ""
        success = (
            f"{1.0 / rep.iterations_run:.6g}" if rep.verdict == "reject" else "0"
        )
        cert = (
            json.dumps(rep.certificate.to_json_obj(), sort_keys=True,
                       separators=(",", ":"))
            if rep.certificate is not None
            else ""
        )
        return [trial, args.alg, args.fn, f.arity, args.eps, seed, rep.verdict,
                rep.queries, rep.iterations_run, success, cert, wall]

    for row in _run_rows(run, args.trials, _thread_count(args)):
        doc.add(row)
    _emit(args, doc.text())
    return 0


# -- dist --------------------------------------------------------------------------


def cmd_dist(args) -> int:
    f = resolve_function(args.fn, args.n)
    if not isinstance(f, TruthTable):
        f = TruthTable.from_callable(f)
    result = dist_int_exact(f) if args.prop == "int" else dist_uc_exact(f)
    obj = result.to_json_obj()
    if not args.certificate:
        obj.pop("certificate", None)
    _emit(args, json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")
    return 0


# -- sweep -------------------------------------------------------------------------


def _parse_ints(spec: str) -> list[int]:
    out = []
    for part in spec.split(","):
        part = part.strip()
        if ".." in part:
            lo, hi = part.split("..")
            out.extend(range(int(lo), int(hi) + 1))
        elif part:
            out.append(int(part))
    return out


def _parse_floats(spec: str) -> list[float]:
    return [float(p) for p in spec.split(",") if p.strip()]


def cmd_sweep(args) -> int:
    ns = _parse_ints(args.ns)
    epss = _parse_floats(args.epss)
    params = (
        f"what={args.what} ns={args.ns} epss={args.epss} seeds={args.seeds} "
        f"iterations={args.iterations} trials={args.trials} fn={args.fn} "
        f"alg={args.alg} pair={args.pair} construction={args.construction} "
        f"seed={args.seed}"
    )
    threads = _thread_count(args)

    if args.what == "queries":
        doc = CsvDoc("sweep", params, ["n", "eps", "seed", "iterations",
                                       "queries", "mean_queries_per_iter", "wall_ms"])
        grid = [(n, eps, s) for n in ns for eps in epss for s in range(args.seeds)]
        alg = ALGORITHMS[args.alg]

        def run_q(i: int) -> list:
            n, eps, s = grid[i]
            f = resolve_function(args.fn, n)
            seed = _row_seed(args.seed, i)
            cfg = TesterConfig(eps=eps, seed=seed, max_iterations=args.iterations,
                               enumeration_cap=args.cap)
            t0 = time.perf_counter() if args.timing else 0.0
            rep = alg(f, cfg)
            wall = f"{(time.perf_counter() - t0) * 1e3:.3f}" if args.timing else ""
            mean = rep.queries / rep.iterations_run
            return [n, eps, seed, rep.iterations_run, rep.queries,
                    f"{mean:.6g}", wall]

        for row in _run_rows(run_q, len(grid), threads):
            doc.add(row)

    elif args.what == "reject-rate":
        doc = CsvDoc("sweep", params, ["n", "eps", "trials", "rejects", "rate",
                                       "wilson95_lo", "wall_ms"])
        grid = [(n, eps) for n in ns for eps in epss]
        alg = ALGORITHMS[args.alg]

        def run_r(i: int) -> list:
            from .hardness import wilson_interval

            n, eps = grid[i]
            f = resolve_function(args.fn, n)
            t0 = time.perf_counter() if args.timing else 0.0
            rejects = 0
            for t in range(args.trials):
                cfg = TesterConfig(eps=eps, seed=_row_seed(args.seed, i * args.trials + t),
                                   max_iterations=args.iterations,
                                   enumeration_cap=args.cap)
                if alg(f, cfg).verdict == "reject":
                    rejects += 1
            wall = f"{(time.perf_counter() - t0) * 1e3:.3f}" if args.timing else ""
            lo, _ = wilson_interval(rejects, args.trials, z=1.959963984540054)
            return [n, eps, args.trials, rejects,
                    f"{rejects / args.trials:.6g}", f"{lo:.6g}", wall]

        for row in _run_rows(run_r, len(grid), threads):
            doc.add(row)

    elif args.what == "unique-sat":
        doc = CsvDoc("sweep", params, ["n", "eps", "weight", "trials", "estimate",
                                       "ci99_lo", "ci99_hi"])
        grid = [(n, eps) for n in ns for eps in epss]

        def run_u(i: int) -> list[list]:
            n, eps = grid[i]
            res = unique_sat_probability(n, eps, args.trials,
                                         stream(_row_seed(args.seed, i)))
            rows = [[n, eps, w, args.trials, f"{e:.6g}", f"{lo:.6g}", f"{hi:.6g}"]
                    for w, (e, lo, hi) in sorted(res.per_weight.items())]
            e, lo, hi = res.pooled
            rows.append([n, eps, "pooled", args.trials * len(res.per_weight),
                         f"{e:.6g}", f"{lo:.6g}", f"{hi:.6g}"])
            return rows

        for rows in _run_rows(run_u, len(grid), threads):
            for row in rows:
                doc.add(row)

    elif args.what == "bad-event":
        doc = CsvDoc("sweep", params, ["n", "eps", "pair", "construction", "trials",
                                       "estimate", "ci99_lo", "ci99_hi", "pair_bound"])
        grid = [(n, eps) for n in ns for eps in epss]

        def run_b(i: int) -> list:
            n, eps = grid[i]
            rng = stream(_row_seed(args.seed, i), 0)
            x = int(rng.integers(0, 1 << n, dtype=np.uint64))
            if args.pair == "antipodal":
                y = x ^ ((1 << n) - 1)
            else:
                y = int(rng.integers(0, 1 << n, dtype=np.uint64))
            params_ = BadEventParams((x, y), args.construction, args.trials)
            est = estimate_bad_probability(params_, n, eps, _row_seed(args.seed, i))
            return [n, eps, args.pair, args.construction, args.trials,
                    f"{est.estimate:.6g}", f"{est.ci99[0]:.6g}",
                    f"{est.ci99[1]:.6g}", f"{bad_pair_bound(n, eps):.6g}"]

        for row in _run_rows(run_b, len(grid), threads):
            doc.add(row)

    else:  # pragma: no cover - argparse restricts choices
        raise SystemExit(f"unknown sweep {args.what!r}")

    _emit(args, doc.text())
    return 0


# -- verify ------------------------------------------------------------------------


def cmd_verify(args) -> int:
    out: dict = {}
    if args.instance:
        inst = load_instance(json.loads(Path(args.instance).read_text()))
        out["instance"] = inst.to_json_obj()
        out["verification"] = _verify_instance(inst)
    if args.report:
        if not args.fn and not args.instance:
            raise SystemExit("--report needs --fn or --instance to check against")
        rep = json.loads(Path(args.report).read_text())
        f = resolve_function(args.fn, args.n) if args.fn else inst.function()
        cert_obj = rep.get("certificate")
        if cert_obj is None:
            out["certificate_valid"] = None
        else:
            cert = certificate_from_json_obj(cert_obj)
            out["certificate_valid"] = bool(cert.holds_for(f))
    if not out:
        raise SystemExit("verify needs --instance and/or --report")
    _emit(args, json.dumps(out, sort_keys=True, separators=(",", ":")) + "\n")
    return 0


# -- parser ------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="setfam",
        description="Experiments for testing intersecting and union-closed set systems",
    )
    p.add_argument("--version", action="version", version=f"setfam {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--seed", type=int, default=0, help="master seed (u64)")
        sp.add_argument("--threads", type=int, default=None,
                        help="worker threads (default: SETFAM_THREADS or 1)")
        sp.add_argument("--cap", type=int, default=DEFAULT_ENUMERATION_CAP,
                        help="banded-downset enumeration cap")
        sp.add_argument("--out", type=str, default=None, help="output path (default stdout)")
        sp.add_argument("--timing", action="store_true",
                        help="fill wall_ms columns (breaks byte reproducibility)")

    g = sub.add_parser("gen", help="generate an instance and run its structural verifier")
    common(g)
    g.add_argument("--kind", required=True, choices=GEN_KINDS)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--eps", type=float, required=True)
    g.add_argument("--table", type=str, default=None,
                   help="also write a BFTT1 materialization here (arity <= 24)")
    g.set_defaults(func=cmd_gen)

    t = sub.add_parser("test", help="run a tester repeatedly against a function")
    common(t)
    t.add_argument("--alg", required=True, choices=sorted(ALGORITHMS))
    t.add_argument("--fn", required=True,
                   help="const0|const1|dictator-K|majority|ones:{..}|file.bftt1|file.json")
    t.add_argument("--n", type=int, default=None)
    t.add_argument("--eps", type=float, required=True)
    t.add_argument("--trials", type=int, default=1)
    t.add_argument("--max-iterations", type=int, default=None)
    t.add_argument("--tau-constant", type=float, default=1.0)
    t.set_defaults(func=cmd_test)

    d = sub.add_parser("dist", help="exact distance to a property")
    common(d)
    d.add_argument("--prop", required=True, choices=("int", "uc"))
    d.add_argument("--fn", required=True)
    d.add_argument("--n", type=int, default=None)
    d.add_argument("--certificate", action="store_true",
                   help="include the repaired function in the JSON")
    d.set_defaults(func=cmd_dist)

    s = sub.add_parser("sweep", help="parameter-grid experiments, one CSV row each")
    common(s)
    s.add_argument("--what", required=True,
                   choices=("queries", "reject-rate", "unique-sat", "bad-event"))
    s.add_argument("--ns", type=str, default="8..12", help="e.g. 8..16 or 8,10,12")
    s.add_argument("--epss", type=str, default="0.25")
    s.add_argument("--seeds", type=int, default=1, help="seeds per grid point (queries)")
    s.add_argument("--iterations", type=int, default=None,
                   help="max_iterations override per run")
    s.add_argument("--trials", type=int, default=1000)
    s.add_argument("--fn", type=str, default="const0")
    s.add_argument("--alg", type=str, default="uc", choices=sorted(ALGORITHMS))
    s.add_argument("--pair", type=str, default="antipodal", choices=("antipodal", "random"))
    s.add_argument("--construction", type=str, default="intersect",
                   choices=("intersect", "uc"))
    s.set_defaults(func=cmd_sweep)

    v = sub.add_parser("verify", help="re-verify instances and reject certificates")
    common(v)
    v.add_argument("--instance", type=str, default=None)
    v.add_argument("--report", type=str, default=None,
                   help="TesterReport JSON whose certificate should be re-checked")
    v.add_argument("--fn", type=str, default=None)
    v.add_argument("--n", type=int, default=None)
    v.set_defaults(func=cmd_verify)

    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use; parsing leaves no state on it."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ResourceCapError) as exc:
        print(f"setfam: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
