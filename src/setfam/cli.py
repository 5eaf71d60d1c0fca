"""Reproducible experiment harness.

Subcommands: gen | test | dist | sweep | verify.  Outputs are byte-identical
for identical (spec, seed, version): each row draws only from its own derived
stream, and rows run serially in index order (`--threads` is ignored).  CSV
files are RFC-4180 with `#`-prefixed header comment lines; wall-clock columns
stay empty unless --timing is passed (timing is the one thing that cannot be
reproducible).  Input, parameter and file errors exit 2 with `setfam: error:`.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
import time
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
    _Z95,
    BadEventParams,
    bad_pair_bound,
    count_int_no_violations,
    count_uc_no_violations,
    estimate_bad_probability,
    load_instance,
    sample_talagrand,
    uc_no_r_tally,
    unique_sat_probability,
    wilson_interval,
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


def _emit(args, text: str) -> None:
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def _json_object(path: str) -> dict:
    """The JSON object in the file at path: any other JSON value is an input error."""
    obj = json.loads(Path(path).read_text())
    if not isinstance(obj, dict):
        raise ValueError(f"{path} is not a JSON object")
    return obj


def _from_json(build, obj, what: str):
    """build(obj), where obj came from an input file.

    A missing field, or one of the wrong type, is an input error.
    """
    try:
        return build(obj)
    except KeyError as exc:
        raise ValueError(f"{what} has no field {exc}") from None
    except (TypeError, AttributeError) as exc:
        raise ValueError(f"{what} has a field of the wrong type: {exc}") from None


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
    builtin = spec in ("const0", "const1", "majority") or spec.startswith("dictator-")
    if n is None and (builtin or spec.startswith("ones:")):
        raise ValueError(f"--n is required for {'builtin' if builtin else 'ones:{...}'} functions")
    if spec in ("const0", "const1"):
        return const_function(n, int(spec == "const1"))
    if spec == "majority":
        return majority(n)
    if spec.startswith("dictator-"):
        return dictator(n, int(spec.split("-", 1)[1]))
    if spec.startswith("ones:"):
        body = spec[5:].strip("{}")
        pts = [parse_bits(s.strip()) for s in body.split(",") if s.strip()]
        return TruthTable.from_ones(n, pts)
    path = Path(spec)
    if path.suffix == ".bftt1":
        return TruthTable.load(path)
    if path.suffix == ".json":
        obj = _json_object(spec)
        if "ones" in obj:
            return _from_json(TruthTable.from_json_obj, obj, f"table {spec}")
        return _from_json(load_instance, obj, f"instance {spec}").function()
    raise ValueError(f"cannot interpret function source {spec!r}")


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
    inst = load_instance({"kind": args.kind, "n": args.n, "eps": args.eps, "seed": args.seed})
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
    if args.trials < 1:
        raise ValueError(f"--trials must be at least 1, got {args.trials}")
    f = resolve_function(args.fn, args.n)
    alg = ALGORITHMS[args.alg]
    params = (
        f"alg={args.alg} fn={args.fn} n={f.arity} eps={args.eps} "
        f"trials={args.trials} seed={args.seed} max_iterations={args.max_iterations} "
        f"tau_constant={args.tau_constant} cap={args.cap}"
    )
    doc = CsvDoc("test", params, TEST_COLUMNS)
    for trial in range(args.trials):
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
            doc.add([trial, args.alg, args.fn, f.arity, args.eps, seed,
                     "ERROR", "", "", "", str(exc), ""])
            continue
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
        doc.add([trial, args.alg, args.fn, f.arity, args.eps, seed, rep.verdict,
                 rep.queries, rep.iterations_run, success, cert, wall])
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
            lo, hi = (int(v) for v in part.split(".."))
            if lo > hi:
                raise ValueError(f"empty range {part!r}: its start is above its end")
            out.extend(range(lo, hi + 1))
        elif part:
            out.append(int(part))
    return out


def _parse_floats(spec: str) -> list[float]:
    return [float(p) for p in spec.split(",") if p.strip()]


def cmd_sweep(args) -> int:
    if min(args.seeds, args.trials) < 1:
        raise ValueError("--seeds and --trials must be at least 1")
    ns = _parse_ints(args.ns)
    epss = _parse_floats(args.epss)
    params = (
        f"what={args.what} ns={args.ns} epss={args.epss} seeds={args.seeds} "
        f"iterations={args.iterations} trials={args.trials} fn={args.fn} "
        f"alg={args.alg} pair={args.pair} construction={args.construction} "
        f"seed={args.seed}"
    )
    cells = [(n, eps) for n in ns for eps in epss]
    if not cells:
        raise ValueError("--ns and --epss must each name at least one value")
    alg = ALGORITHMS[args.alg]
    if args.what == "queries":
        doc = CsvDoc("sweep", params, ["n", "eps", "seed", "iterations",
                                       "queries", "mean_queries_per_iter", "wall_ms"])
        grid = [cell for cell in cells for _ in range(args.seeds)]
        for i, (n, eps) in enumerate(grid):
            f = resolve_function(args.fn, n)
            seed = _row_seed(args.seed, i)
            cfg = TesterConfig(eps=eps, seed=seed, max_iterations=args.iterations,
                               enumeration_cap=args.cap)
            t0 = time.perf_counter() if args.timing else 0.0
            rep = alg(f, cfg)
            wall = f"{(time.perf_counter() - t0) * 1e3:.3f}" if args.timing else ""
            mean = rep.queries / rep.iterations_run
            doc.add([n, eps, seed, rep.iterations_run, rep.queries, f"{mean:.6g}", wall])

    elif args.what == "reject-rate":
        doc = CsvDoc("sweep", params, ["n", "eps", "trials", "rejects", "rate",
                                       "wilson95_lo", "wall_ms"])
        for i, (n, eps) in enumerate(cells):
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
            lo, _ = wilson_interval(rejects, args.trials, z=_Z95)
            doc.add([n, eps, args.trials, rejects,
                     f"{rejects / args.trials:.6g}", f"{lo:.6g}", wall])

    elif args.what == "unique-sat":
        doc = CsvDoc("sweep", params, ["n", "eps", "weight", "trials", "estimate",
                                       "ci99_lo", "ci99_hi"])
        for i, (n, eps) in enumerate(cells):
            res = unique_sat_probability(n, eps, args.trials,
                                         stream(_row_seed(args.seed, i)))
            for w, (e, lo, hi) in sorted(res.per_weight.items()):
                doc.add([n, eps, w, args.trials, f"{e:.6g}", f"{lo:.6g}", f"{hi:.6g}"])
            e, lo, hi = res.pooled
            doc.add([n, eps, "pooled", args.trials * len(res.per_weight),
                     f"{e:.6g}", f"{lo:.6g}", f"{hi:.6g}"])

    elif args.what == "bad-event":
        doc = CsvDoc("sweep", params, ["n", "eps", "pair", "construction", "trials",
                                       "estimate", "ci99_lo", "ci99_hi", "pair_bound"])
        for i, (n, eps) in enumerate(cells):
            rng = stream(_row_seed(args.seed, i), 0)
            x = int(rng.integers(0, 1 << n, dtype=np.uint64))
            if args.pair == "antipodal":
                y = x ^ ((1 << n) - 1)
            else:
                y = int(rng.integers(0, 1 << n, dtype=np.uint64))
            params_ = BadEventParams((x, y), args.construction, args.trials)
            est = estimate_bad_probability(params_, n, eps, _row_seed(args.seed, i))
            doc.add([n, eps, args.pair, args.construction, args.trials,
                     f"{est.estimate:.6g}", f"{est.ci99[0]:.6g}",
                     f"{est.ci99[1]:.6g}", f"{bad_pair_bound(n, eps):.6g}"])

    _emit(args, doc.text())
    return 0


# -- verify ------------------------------------------------------------------------


def cmd_verify(args) -> int:
    out: dict = {}
    if args.instance:
        inst = _from_json(load_instance, _json_object(args.instance), f"instance {args.instance}")
        out["instance"] = inst.to_json_obj()
        out["verification"] = _verify_instance(inst)
    if args.report:
        if not args.fn and not args.instance:
            raise ValueError("--report needs --fn or --instance to check against")
        rep = _json_object(args.report)
        f = resolve_function(args.fn, args.n) if args.fn else inst.function()
        cert_obj = rep.get("certificate")
        if cert_obj is None:
            out["certificate_valid"] = None
        else:
            cert = _from_json(certificate_from_json_obj, cert_obj,
                              f"the certificate of {args.report}")
            out["certificate_valid"] = bool(cert.holds_for(f))
    if not out:
        raise ValueError("verify needs --instance and/or --report")
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
                        help="accepted and ignored: rows run serially in index order")
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
    except (OSError, ValueError, ResourceCapError) as exc:
        print(f"setfam: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
