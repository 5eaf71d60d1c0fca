"""The four workloads: inputs made from the seed, rounds of operations, checks.

A workload's `setup` builds its inputs through setfam and warms each kind
of operation once; `round(k)` runs round k, a fixed list of operations, and
checks every output against `reference` or against properties the method
must have; `finish` makes the checks that need the whole run.  setfam is
imported inside `setup`, so the import is part of the measured set-up time.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
import statistics
import time
from contextlib import contextmanager, redirect_stdout
from pathlib import Path
from time import perf_counter_ns, process_time_ns

import numpy as np

import reference as R

FAILED = object()


# The machine's speed, measured between operations.  The reference
# machine's cores run the same code up to a third faster or slower from one
# minute to the next (README.md, "Noise"); the time of a fixed loop follows
# that speed, and timings are rescaled to the loop time PROBE_REF_NS.
PROBE_EVERY_NS = 200_000_000
PROBE_REF_NS = 1_700_000


def speed_probe() -> int:
    """CPU time of a fixed integer loop, in ns."""
    t0 = process_time_ns()
    x = 0
    for i in range(20_000):
        x += i * i % 7
    return process_time_ns() - t0


def machine_speed(probe_ns: list[int]) -> float:
    """How many times faster than the reference speed the machine ran while
    these probes were taken: a CPU time measured alongside them, multiplied
    by this, is the time at the reference speed."""
    return PROBE_REF_NS / statistics.median(probe_ns)


class SetupClock:
    """Set-up CPU time of the process, minus the blocks marked as reference
    computations.  CPU time, not wall time: time the process waits for a
    core on a shared machine is left out (see `Measure`)."""

    def __init__(self):
        self.start = time.process_time()
        self.excluded = 0.0

    @contextmanager
    def reference(self):
        t0 = time.process_time()
        try:
            yield
        finally:
            self.excluded += time.process_time() - t0

    def elapsed(self) -> float:
        return time.process_time() - self.start - self.excluded


class Measure:
    """Per-operation timings, work counts, failures and check errors.

    An operation's time is the CPU time the process spent in the call
    (`process_time_ns`, all threads).  The workloads are single-threaded,
    so on an idle machine this equals the wall time; on a shared one it
    leaves out the time the process was ready to run but had no core (host
    steal, other tenants), which wall-clock timings of identical runs pick
    up as noise.  It cannot leave out a core that runs slower because its
    neighbours are busy; the speed probe, timed between operations every
    PROBE_EVERY_NS, measures that (`machine_speed`).  The summed wall time
    of the calls is kept too (`wall_ns`) and printed for comparison; it is
    not a metric.
    """

    def __init__(self):
        self.durations_ns: list[int] = []
        self.wall_ns = 0
        self.probe_ns: list[int] = []
        self.last_probe = 0
        self.attempted = 0
        self.failed = 0
        self.queries = 0
        self.iterations = 0
        self.errors: list[str] = []
        self.failures: list[str] = []
        self.round_marks: list[tuple[int, int, int, int]] = []

    def op(self, fn, *args):
        """Time one call into setfam; an exception counts the operation failed."""
        self.attempted += 1
        w0 = perf_counter_ns()
        t0 = process_time_ns()
        try:
            out = fn(*args)
        except Exception as exc:  # the run goes on; the failure is counted
            self.failed += 1
            self.failures.append(f"{getattr(fn, '__name__', fn)}: {exc!r}")
            return FAILED
        self.durations_ns.append(process_time_ns() - t0)
        now = perf_counter_ns()
        self.wall_ns += now - w0
        if now - self.last_probe >= PROBE_EVERY_NS:
            self.probe_ns.append(speed_probe())
            self.last_probe = perf_counter_ns()
        return out

    def check(self, errors: list[str]) -> None:
        self.errors.extend(errors)

    def fail(self, message: str) -> None:
        """An operation returned normally but reported failure (exit code, ERROR row)."""
        self.failed += 1
        self.failures.append(message)

    def work(self, queries: int, iterations: int) -> None:
        self.queries += queries
        self.iterations += iterations

    def end_round(self) -> None:
        """Record the running totals at a round boundary."""
        self.round_marks.append((len(self.durations_ns), sum(self.durations_ns),
                                 self.queries, self.iterations))

    def round_rates(self) -> list[tuple[float, float, float]]:
        """(ops/s, queries/s, iterations/s) of each round, over its operation time."""
        rates = []
        prev = (0, 0, 0, 0)
        for mark in self.round_marks:
            ops, busy, queries, iterations = (a - b for a, b in zip(mark, prev))
            if busy:
                rates.append((ops * 1e9 / busy, queries * 1e9 / busy, iterations * 1e9 / busy))
            prev = mark
        return rates


def load_setfam():
    """Import the package modules (timed as part of set-up)."""
    import setfam.boolfn as B
    import setfam.cli as C
    import setfam.distance as D
    import setfam.testers as T
    import setfam.violations as V

    return B, C, D, T, V


def derive_seed(*parts: int) -> int:
    """Deterministic u64 from the workload seed and a path of ints."""
    x = 0x9E3779B97F4A7C15
    for p in parts:
        x = (x ^ (p & 0xFFFFFFFFFFFFFFFF)) * 0xBF58476D1CE4E5B9 & 0xFFFFFFFFFFFFFFFF
        x ^= x >> 31
    return x


def run_cli(C, argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = C.main(argv)
    return code, buf.getvalue()


def csv_rows(text: str) -> list[dict]:
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    return list(csv.DictReader(lines))


# -- checks shared with the self-check ---------------------------------------------


def check_tester_report(what: str, report, *, verdict: str | None = None,
                        iterations: int | None = None,
                        queries_per_iteration: int | None = None) -> list[str]:
    """Verdict, iteration count and query law of one TesterReport."""
    errs = []
    if verdict is not None and report.verdict != verdict:
        errs.append(f"{what}: verdict {report.verdict}, expected {verdict}")
    if iterations is not None and report.iterations_run != iterations:
        errs.append(f"{what}: {report.iterations_run} iterations, expected {iterations}")
    if queries_per_iteration is not None and (
            report.queries != queries_per_iteration * report.iterations_run):
        errs.append(f"{what}: {report.queries} queries != {queries_per_iteration} x "
                    f"{report.iterations_run} iterations")
    return errs


def check_certificate(what: str, cert: dict, values: np.ndarray) -> list[str]:
    """A reject certificate must hold under the benchmark's own evaluation."""
    kind = cert.get("type")
    if kind == "i-pair":
        x, y = cert["points"]
        ok = values[x] == 1 and values[y] == 1 and x & y == 0 and (x != y or x == 0)
    elif kind == "uc-tuple":
        members, end = cert["members"], cert["end"]
        union = 0
        for m in members:
            union |= m
        ok = bool(members) and all(values[m] == 1 for m in members) and (
            union == end and values[end] == 0)
    elif kind == "triple":
        y1, y2, z = cert["points"]
        ok = values[y1] == 1 and values[y2] == 1 and y1 | y2 == z and values[z] == 0
    else:
        ok = False
    return [] if ok else [f"{what}: certificate {cert} does not hold"]


def check_n4_results(mask: int, res: dict, fam: dict) -> list[str]:
    """Every n=4 distance-layer output against brute force over the families."""
    errs = []
    d_int = R.min_distance(mask, fam["int"])
    d_uc = R.min_distance(mask, fam["uc"])
    tag = f"table {mask:#06x}"
    r = res.get("dist_int")
    if r is not None:
        cert = r.certificate.bits
        if r.flips != d_int or r.total != 16:
            errs.append(f"{tag}: dist_int {r.flips}/{r.total}, brute force {d_int}/16")
        if cert not in fam["int_set"] or cert & ~mask or bin(cert ^ mask).count("1") != r.flips:
            errs.append(f"{tag}: dist_int certificate {cert:#06x} is not a valid repair")
    r = res.get("dist_uc")
    if r is not None:
        cert = r.certificate.bits
        if r.flips != d_uc or r.total != 16:
            errs.append(f"{tag}: dist_uc {r.flips}/{r.total}, brute force {d_uc}/16")
        if cert not in fam["uc_set"] or bin(cert ^ mask).count("1") != r.flips:
            errs.append(f"{tag}: dist_uc certificate {cert:#06x} is not a valid repair")
    r = res.get("matching")
    if r is not None:
        m, pairs = r
        used: set[int] = set()
        for p in pairs:
            pts = {p.x, p.y}
            if not ((mask >> p.x) & 1 and (mask >> p.y) & 1 and p.x & p.y == 0
                    and (p.x != p.y or p.x == 0)) or pts & used:
                errs.append(f"{tag}: matching pair ({p.x}, {p.y}) invalid or not disjoint")
            used |= pts
        if len(pairs) != m or not m <= d_int <= 2 * m:
            errs.append(f"{tag}: matching size {m} breaks |M| <= {d_int} <= 2|M|")
    r = res.get("repair")
    if r is not None:
        g, flipped = r
        if g.bits not in fam["uc_set"]:
            errs.append(f"{tag}: repair {g.bits:#06x} is not union-closed")
        if mask & ~g.bits or set(flipped) != {p for p in range(16) if (g.bits & ~mask) >> p & 1}:
            errs.append(f"{tag}: repair flips other than 0->1 or misreports them")
        if len(flipped) < d_uc:
            errs.append(f"{tag}: repair flips {len(flipped)} < 16 x dist {d_uc}")
    ends = res.get("ends")
    closure = fam["closure"](mask)
    if ends is not None and ends != bin(closure & ~mask).count("1"):
        errs.append(f"{tag}: end count {ends}, closure says {bin(closure & ~mask).count('1')}")
    lb = res.get("lb")
    if lb is not None and not lb <= d_uc <= bin(closure & ~mask).count("1"):
        errs.append(f"{tag}: disjoint tuple bound {lb} > 16 x dist {d_uc}")
    return errs


# -- workloads ------------------------------------------------------------------------


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.tracer = None  # set by the runner for the traced pass

    def set_oracle_kind(self, kind: str) -> None:
        if self.tracer is not None:
            self.tracer.oracle_kind = kind

    def cli(self, m: Measure, argv: list[str]) -> str | None:
        """One `setfam` command as an operation; None if it failed."""
        out = m.op(run_cli, self.C, argv)
        if out is FAILED:
            return None
        code, text = out
        if code != 0:
            m.fail(f"setfam {' '.join(argv)}: exit {code}")
            return None
        return text

    def count_rows(self, rows: int) -> None:
        if self.tracer is not None:
            self.tracer.counts["cli.rows"] += rows

    def setup(self, clock: SetupClock) -> None:
        raise NotImplementedError

    def round(self, m: Measure, k: int) -> None:
        raise NotImplementedError

    def finish(self, m: Measure) -> None:
        pass

    def layer_extras(self) -> dict:
        return {}


class CompletenessN4(Workload):
    """All 4,960 union-closed and 1,376 intersecting tables at n=4, four testers.

    The criterion-3 overrides (eps 1/2, 40 iterations for the banded
    testers, 60 rounds for the per-round ones) keep each run tiny, so the
    fixed cost per run dominates.  32 rounds make one pass over every table;
    each pass uses fresh tester seeds.
    """

    name = "completeness-n4"
    PASS_ROUNDS = 32
    EPS = 0.5

    def setup(self, clock):
        with clock.reference():
            uc, inter = R.n4_families()
            if (len(uc), len(inter)) != (4960, 1376):
                raise RuntimeError("reference enumeration of the n=4 families is wrong")
            rng = random.Random(self.seed)
            uc, inter = [int(m) for m in uc], [int(m) for m in inter]
            rng.shuffle(uc)
            rng.shuffle(inter)
        B, _, _, T, _ = load_setfam()
        self.T = T
        self.Config = T.TesterConfig
        self.uc = [(m, B.TruthTable(4, m)) for m in uc]
        self.inter = [(m, B.TruthTable(4, m)) for m in inter]
        for name, table in (("uc_tester", self.uc[0][1]), ("uc_triple_tester", self.uc[0][1]),
                            ("int_tester", self.inter[0][1]), ("int_pair_tester", self.inter[0][1])):
            getattr(T, name)(table, self.Config(eps=self.EPS, seed=0, max_iterations=40))

    def _run(self, m, name, mask, table, seed, iters, per_round):
        self.set_oracle_kind("table")
        rep = m.op(getattr(self.T, name), table, self.Config(
            eps=self.EPS, seed=seed, max_iterations=iters))
        if rep is FAILED:
            return
        m.work(rep.queries, rep.iterations_run)
        what = f"{name} on {mask:#06x} seed {seed}"
        errs = check_tester_report(what, rep, verdict="accept", iterations=iters,
                                   queries_per_iteration=per_round)
        if per_round is None and not 2 * iters <= rep.queries <= 17 * iters:
            errs.append(f"{what}: {rep.queries} queries outside [2, 17] per iteration")
        m.check(errs)

    def round(self, m, k):
        p, r = divmod(k, self.PASS_ROUNDS)
        for tables, (banded, per_round_name, per_round) in (
                (self.uc, ("uc_tester", "uc_triple_tester", 3)),
                (self.inter, ("int_tester", "int_pair_tester", 2))):
            size = len(tables) // self.PASS_ROUNDS
            for mask, table in tables[r * size:(r + 1) * size]:
                seed = derive_seed(self.seed, p, mask)
                self._run(m, banded, mask, table, seed, 40, None)
                self._run(m, per_round_name, mask, table, seed, 60, per_round)


class RoundsN6(Workload):
    """The 3- and 2-query testers at their default round count ceil(100/tau).

    n=5 at eps 1/2 gives 141,149 rounds and n=6 at eps 0.9 gives 158,170;
    n=6 at eps 1/2 (812,811 rounds) would take one run past the run length.
    """

    name = "rounds-n6"
    CASES = (("uc_triple_tester", 5, 0.5, 3), ("int_pair_tester", 5, 0.5, 2),
             ("uc_triple_tester", 6, 0.9, 3), ("int_pair_tester", 6, 0.9, 2))

    def setup(self, clock):
        rng = np.random.default_rng(self.seed)
        with clock.reference():
            tables = {}
            for n in (5, 6):
                gens = np.zeros(1 << n, dtype=np.uint8)
                gens[rng.integers(1, 1 << n, size=n)] = 1
                star = rng.integers(0, n)
                inter = ((np.arange(1 << n) >> star) & 1) * (rng.random(1 << n) < 0.7)
                tables[("uc_triple_tester", n)] = R.union_closure(gens, n)
                tables[("int_pair_tester", n)] = inter.astype(np.uint8)
            for (name, n), values in tables.items():
                ok = (R.is_union_closed if name == "uc_triple_tester" else R.is_intersecting)
                if not ok(values, n):
                    raise RuntimeError(f"reference {name} input at n={n} lacks its property")
        B, _, _, T, _ = load_setfam()
        self.T = T
        self.Config = T.TesterConfig
        self.tables = {key: B.TruthTable.from_array(key[1], v) for key, v in tables.items()}
        for name, n, eps, _ in self.CASES:
            getattr(T, name)(self.tables[(name, n)],
                             self.Config(eps=eps, seed=0, max_iterations=100))
        self.expected = {(n, eps): R.default_rounds(n, eps) for _, n, eps, _ in self.CASES}

    def round(self, m, k):
        for i, (name, n, eps, per_round) in enumerate(self.CASES):
            seed = derive_seed(self.seed, k, i)
            self.set_oracle_kind("table")
            rep = m.op(getattr(self.T, name), self.tables[(name, n)],
                       self.Config(eps=eps, seed=seed))
            if rep is FAILED:
                continue
            m.work(rep.queries, rep.iterations_run)
            m.check(check_tester_report(
                f"{name} n={n} eps={eps} seed {seed}", rep, verdict="accept",
                iterations=self.expected[(n, eps)], queries_per_iteration=per_round))


class BandedN16(Workload):
    """`setfam test` with uc and int at n=14..16 over three oracle kinds.

    Property-holding inputs are at n=14, where a downset has 292 points on
    average; at n=16 (656 points, heavier tail) a 10 s run saw too few
    iterations for its run-to-run spread to stay under the bounds.

    Property-holding inputs run 10 iterations (the completeness check needs
    no more, and short runs give enough operations for a steady p95); far
    inputs run the full ceil(100/eps) at a fixed eps no larger than the
    distance the benchmark certified, so the 9/10 guarantee applies.
    No-instances are not used as far inputs (`oracles` generates and checks
    them).  Int-no instances at these sizes carry under 150 disjoint
    violations in 2^18 points, so a run would need ~10^5 iterations; uc-no
    ones reject after 20-40 iterations, a geometric count whose mean moves
    with the instance by up to 2x and spread the run-to-run figures past
    the bounds.
    """

    name = "banded-n16"
    YES_ITERATIONS = 10
    YES_EPS = 0.25
    # Fixed tester eps per far input (each far input must be certified at
    # least this far); ceil(100/eps) band points are drawn up front, so an eps
    # that followed the certified distance would make the cost seed-dependent.
    UC_FAR_EPS = 1 / 8
    INT_FAR_EPS = 1 / 4

    def setup(self, clock):
        rng = np.random.default_rng(self.seed)
        w = self.workdir
        B, C, _, _, _ = load_setfam()
        import setfam.hardness as H

        self.C = C
        self.slots = []  # (alg, kind, fn spec, n or None, eps, far, values)

        def instance(inst, stem):
            """Instance JSON for --fn, plus its table read back by the reference reader."""
            spec = w / f"{stem}.json"
            spec.write_text(json.dumps(inst.to_json_obj()))
            inst.materialize().save(w / f"{stem}.bftt1")
            with clock.reference():
                _, values = R.read_bftt1((w / f"{stem}.bftt1").read_bytes())
            return str(spec), values

        def table(values, n, stem):
            path = w / f"{stem}.bftt1"
            B.TruthTable.from_array(n, values).save(path)
            return str(path)

        # instances: property-holding inputs for both properties
        spec, vals = instance(H.build_uc_instance("yes", 14, 0.25, int(rng.integers(1 << 31))),
                              "uc_yes")
        self._yes("uc", "instance", spec, None, vals, 14, R.is_union_closed)
        spec, vals = instance(H.build_int_instance("yes", 12, 0.5, int(rng.integers(1 << 31))),
                              "int_yes")
        self._yes("int", "instance", spec, None, vals, 14, R.is_intersecting)
        # tables written through TruthTable.save
        with clock.reference():
            gens = np.zeros(1 << 14, dtype=np.uint8)
            for _ in range(60):
                gens[int(sum(1 << int(c) for c in rng.choice(
                    14, size=int(rng.integers(2, 7)), replace=False)))] = 1
            uc_yes = R.union_closure(gens, 14)
            star = int(rng.integers(0, 14))
            int_yes = (((np.arange(1 << 14) >> star) & 1) * (rng.random(1 << 14) < 0.5)
                       ).astype(np.uint8)
            uc_far = (rng.random(1 << 14) < 0.5).astype(np.uint8)
            int_far = (rng.random(1 << 16) < 0.85).astype(np.uint8)
            uc_far_cert = R.disjoint_uc_triples(uc_far) / (1 << 14)
            int_far_cert = R.antipodal_one_pairs(int_far) / (1 << 16)
        self._yes("uc", "table", table(uc_yes, 14, "uc_yes_t"), None, uc_yes, 14,
                  R.is_union_closed)
        self._yes("int", "table", table(int_yes, 14, "int_yes_t"), None, int_yes, 14,
                  R.is_intersecting)
        self._far("uc", "table", table(uc_far, 14, "uc_far_t"), None, uc_far, uc_far_cert,
                  self.UC_FAR_EPS)
        self._far("int", "table", table(int_far, 16, "int_far_t"), None, int_far, int_far_cert,
                  self.INT_FAR_EPS)

        # builtins, evaluated by the benchmark from their definitions
        with clock.reference():
            pts = np.arange(1 << 14)
            majority = (R.popcount16(pts) > 7).astype(np.uint8)
            k = int(rng.integers(1, 15))
            dictator = ((pts >> (k - 1)) & 1).astype(np.uint8)
            const1 = np.ones(1 << 16, dtype=np.uint8)
        self._yes("uc", "builtin", "majority", 14, majority, 14, R.is_union_closed)
        self._yes("int", "builtin", f"dictator-{k}", 14, dictator, 14, R.is_intersecting)
        self._far("int", "builtin", "const1", 16, const1,
                  R.antipodal_one_pairs(const1) / (1 << 16), self.INT_FAR_EPS)

        for i in range(len(self.slots)):
            if run_cli(C, self._argv(i, derive_seed(self.seed, 1 << 40, i), 1))[0] != 0:
                raise RuntimeError(f"warm-up setfam test on {self.slots[i][2]} failed")
        self.far_runs = self.far_rejects = self.far_iterations = 0

    def _yes(self, alg, kind, spec, n, values, arity, holds):
        if not holds(values, arity):
            raise RuntimeError(f"{spec} should hold the {alg} property")
        self.slots.append((alg, kind, spec, n, self.YES_EPS, False, values))

    def _far(self, alg, kind, spec, n, values, certified, eps):
        if certified < eps:
            raise RuntimeError(f"{spec} is certified only {certified}-far, not {eps}-far")
        self.slots.append((alg, kind, spec, n, eps, True, values))

    def _argv(self, i, seed, max_iterations=None):
        alg, kind, spec, n, eps, far, _ = self.slots[i]
        argv = ["test", "--alg", alg, "--fn", spec, "--eps", repr(eps), "--trials", "1",
                "--seed", str(seed)]
        if n is not None:
            argv += ["--n", str(n)]
        if max_iterations is not None:
            argv += ["--max-iterations", str(max_iterations)]
        return argv

    def round(self, m, k):
        for i, (alg, kind, spec, n, eps, far, values) in enumerate(self.slots):
            seed = derive_seed(self.seed, k, i)
            self.set_oracle_kind(kind)
            text = self.cli(m, self._argv(i, seed, None if far else self.YES_ITERATIONS))
            if text is None:
                continue
            what = f"test --alg {alg} --fn {Path(spec).name} seed {seed}"
            rows = csv_rows(text)
            if len(rows) != 1 or rows[0]["verdict"] == "ERROR":
                m.fail(f"{what}: rows {rows}")
                continue
            row = rows[0]
            queries, iterations = int(row["queries"]), int(row["iterations_run"])
            m.work(queries, iterations)
            self.count_rows(1)
            errs = []
            if queries < 2 * iterations:
                errs.append(f"{what}: {queries} queries for {iterations} iterations")
            if far:
                self.far_runs += 1
                self.far_iterations += iterations
                if row["verdict"] == "reject":
                    self.far_rejects += 1
                elif iterations != math.ceil(100 / eps):
                    errs.append(f"{what}: accepted after {iterations} iterations")
            elif row["verdict"] != "accept" or iterations != self.YES_ITERATIONS:
                errs.append(f"{what}: {row['verdict']} after {iterations} iterations "
                            "on a property-holding input")
            if row["verdict"] == "reject":
                errs += check_certificate(what, json.loads(row["certificate"]), values)
            m.check(errs)

    def finish(self, m):
        if self.far_runs and self.far_rejects < 0.9 * self.far_runs:
            m.check([f"reject rate {self.far_rejects}/{self.far_runs} on certified far "
                     "inputs is below 9/10"])

    def layer_extras(self):
        rate = self.far_rejects / self.far_iterations if self.far_iterations else 0.0
        return {"testers.round_success": rate}


class Oracles(Workload):
    """Exact distances, dense property checks, instance generation, Monte Carlo.

    Each round: 1,000 random n=4 tables through the six distance-layer
    functions plus two `setfam dist` calls; four property checks on dense
    tables at n=16 and 17; `setfam gen` for four instance kinds at arity
    16..18 with materialization; two `setfam sweep` runs.  A dense check at
    n=18 takes 1-1.5 s on its own, which made a round 3 s long and left
    too few rounds in a run for the per-round median to damp the machine's
    slow spells.
    """

    name = "oracles"
    TABLES = 1000
    SWEEP_TRIALS = 20000
    UC_DENSITY = 0.4

    def setup(self, clock):
        rng = np.random.default_rng(self.seed)
        with clock.reference():
            uc, inter = R.n4_families()
            self.fam = {"uc": uc, "int": inter, "uc_set": set(uc.tolist()),
                        "int_set": set(inter.tolist()),
                        "closure": lambda mask: R.mask_of(R.union_closure(R.values_of(mask, 4), 4))}
            dense = []
            for n, prop, holds in ((16, "uc", True), (16, "int", False), (17, "uc", False),
                                   (17, "int", True)):
                dense.append((n, prop, holds, self._dense(rng, n, prop, holds)))
        B, C, D, _, V = load_setfam()
        self.B, self.C, self.D, self.V = B, C, D, V
        self.dense = [(n, prop, holds, values, B.TruthTable.from_array(n, values))
                      for n, prop, holds, values in dense]
        self.gens = [("uc-yes", 16, 1 / 16), ("uc-no", 17, 1 / 16),
                     ("int-yes", 14, 0.5), ("int-no", 16, 0.5)]
        # warm-up: one call of each kind, on the smallest inputs
        t = B.TruthTable(4, 0b0110)
        for fn in (D.dist_int_exact, D.dist_uc_exact, V.max_disjoint_i_pairs, D.repair_uc,
                   D.end_distinct_tuple_count, D.disjoint_tuple_count_lb):
            fn(t)
        D.is_union_closed(B.TruthTable(12, 1))
        D.is_intersecting(B.TruthTable(12, 2))
        for argv in (["dist", "--prop", "uc", "--fn", "ones:{01,10}", "--n", "2"],
                     ["gen", "--kind", "uc-yes", "--n", "16", "--eps", "0.0625", "--table",
                      str(self.workdir / "warm.bftt1")],
                     ["sweep", "--what", "unique-sat", "--ns", "25", "--epss", "1",
                      "--trials", "100"],
                     ["sweep", "--what", "bad-event", "--ns", "16", "--epss", "0.5",
                      "--trials", "100"]):
            if run_cli(C, argv)[0] != 0:
                raise RuntimeError(f"warm-up setfam {' '.join(argv)} failed")

    @staticmethod
    def _dense(rng, n, prop, holds):
        """Dense table with (holds=True) or without the property, checked by reference."""
        if prop == "uc":
            # The check's cost grows with the number of 1-inputs, so the closure
            # is grown to a fixed density: the shortest prefix of random
            # generators whose closure reaches UC_DENSITY, or the one before it
            # if that lands closer.  A fixed generator count gave densities of
            # 0.28-0.45 across seeds, and the cost moved with them.
            draws = [int(sum(1 << int(c) for c in rng.choice(
                n, size=int(rng.integers(2, n // 2)), replace=False))) for _ in range(400)]

            def closure(k):
                gens = np.zeros(1 << n, dtype=np.uint8)
                gens[draws[:k]] = 1
                return gens, R.union_closure(gens, n)

            lo, hi = 1, len(draws)
            while lo < hi:
                mid = (lo + hi) // 2
                if closure(mid)[1].mean() >= Oracles.UC_DENSITY:
                    hi = mid
                else:
                    lo = mid + 1
            if abs(closure(lo - 1)[1].mean() - Oracles.UC_DENSITY) < abs(
                    closure(lo)[1].mean() - Oracles.UC_DENSITY):
                lo -= 1
            gens, values = closure(lo)
            if not holds:  # drop a union of two generators that is not one itself
                g = np.flatnonzero(gens)
                for a in g:
                    z = g | a
                    cand = z[(gens[z] == 0)]
                    if cand.size:
                        values[cand[0]] = 0
                        break
            ok = R.is_union_closed(values, n)
        else:
            star = int(rng.integers(0, n))
            values = (((np.arange(1 << n) >> star) & 1) * (rng.random(1 << n) < 0.5)
                      ).astype(np.uint8)
            if not holds:  # add the complement of a 1-input
                x = int(np.flatnonzero(values)[0])
                values[x ^ ((1 << n) - 1)] = 1
            ok = R.is_intersecting(values, n)
        if ok != holds:
            raise RuntimeError(f"reference {prop} table at n={n} came out wrong")
        return values

    def round(self, m, k):
        B, D, V = self.B, self.D, self.V
        rng = np.random.default_rng(derive_seed(self.seed, k))
        masks = [int(x) for x in rng.integers(0, 1 << 16, size=self.TABLES)]
        calls = (("dist_int", D, "dist_int_exact"), ("dist_uc", D, "dist_uc_exact"),
                 ("matching", V, "max_disjoint_i_pairs"), ("repair", D, "repair_uc"),
                 ("ends", D, "end_distinct_tuple_count"),
                 ("lb", D, "disjoint_tuple_count_lb"))
        for mask in masks:
            t = B.TruthTable(4, mask)
            res = {}
            for key, mod, fn in calls:
                out = m.op(getattr(mod, fn), t)
                if out is not FAILED:
                    res[key] = out
                    m.work(16, 1)
            m.check(check_n4_results(mask, res, self.fam))
        ones = ",".join(format(p, "04b")[::-1] for p in range(16) if masks[0] >> p & 1)
        for prop in ("uc", "int"):
            text = self.cli(m, ["dist", "--prop", prop, "--fn", "ones:{" + ones + "}",
                                "--n", "4", "--certificate"])
            if text is None:
                continue
            m.work(16, 1)
            self.count_rows(1)
            got = json.loads(text)["value"]
            want = f"{R.min_distance(masks[0], self.fam[prop])}/16"
            if got != want:
                m.check([f"setfam dist --prop {prop} on {masks[0]:#06x}: {got}, brute force {want}"])

        for n, prop, holds, values, table in self.dense:
            fn = D.is_union_closed if prop == "uc" else D.is_intersecting
            out = m.op(fn, table)
            if out is FAILED:
                continue
            m.work(1 << n, 1)
            if out != holds:
                m.check([f"{fn.__name__} at n={n}: {out}, reference says {holds}"])

        # Fresh instance seeds every round: one uc-yes seed in four gives a
        # table twice as dense, whose verification costs four times as much,
        # so seeds fixed for the run made its cost depend on --seed.
        for j, (kind, n, eps) in enumerate(self.gens):
            seed = derive_seed(self.seed, k, 3 + j) % (1 << 31)
            path = self.workdir / f"gen_{kind}.bftt1"
            text = self.cli(m, ["gen", "--kind", kind, "--n", str(n), "--eps", repr(eps),
                                "--seed", str(seed), "--table", str(path)])
            if text is None:
                continue
            self.count_rows(1)
            m.check(self._check_gen(kind, text, path, m))

        for argv in (["sweep", "--what", "unique-sat", "--ns", "25,36", "--epss", "1",
                      "--trials", str(self.SWEEP_TRIALS), "--seed", str(derive_seed(self.seed, k, 1))],
                     ["sweep", "--what", "bad-event", "--ns", "16", "--epss", "0.5",
                      "--trials", str(self.SWEEP_TRIALS), "--seed", str(derive_seed(self.seed, k, 2))]):
            text = self.cli(m, argv)
            if text is None:
                continue
            rows = csv_rows(text)
            self.count_rows(len(rows))
            samples = self.SWEEP_TRIALS * sum(r.get("weight") != "pooled" for r in rows)
            m.work(samples, samples)
            m.check(check_sweep(argv[2], rows))

    def _check_gen(self, kind, text, path, m):
        doc = json.loads(text)
        arity, values = R.read_bftt1(path.read_bytes())
        m.work(1 << arity, 1)
        ver = doc["verification"]
        what = f"gen {kind} seed {doc['instance']['seed']}"
        if doc["instance"]["kind"] != kind or doc["instance"].get("arity") != arity:
            return [f"{what}: instance {doc['instance']} does not match its table"]
        if kind == "uc-yes":
            ok = ver.get("union_closed") is True and R.is_union_closed(values, arity)
        elif kind == "int-yes":
            ok = ver.get("intersecting") is True and R.is_intersecting(values, arity)
        else:
            key = "disjoint_violating_triples" if kind == "uc-no" else "disjoint_violating_pairs"
            count = ver[key]
            holds = (R.is_union_closed if kind == "uc-no" else R.is_intersecting)(values, arity)
            ok = 0 <= count <= int(values.sum()) // 2 and (count == 0 or not holds)
        return [] if ok else [f"{what}: verification {ver} disagrees with the reference"]


def check_sweep(what: str, rows: list[dict]) -> list[str]:
    """Monte Carlo rows against the closed forms and the Wilson formula.

    The gate puts the closed form inside a z=5 interval around the estimate
    (false alarm ~6e-7 per row); the program's own 99% interval is checked
    to be the Wilson interval of its estimate.
    """
    errs = []
    for row in rows:
        if row.get("weight") == "pooled":
            continue
        trials = int(row["trials"])
        est, lo, hi = float(row["estimate"]), float(row["ci99_lo"]), float(row["ci99_hi"])
        wl, wh = R.wilson(round(est * trials), trials, 2.5758293035489004)
        if abs(wl - lo) > 1e-5 or abs(wh - hi) > 1e-5:
            errs.append(f"{what} row {row}: 99% interval is not Wilson's ({wl:.6g}, {wh:.6g})")
        n, eps = int(row["n"]), float(row["eps"])
        if what == "unique-sat":
            w = int(row["weight"])
            exact = R.unique_term_probability(n, eps, w)
            zl, zh = R.wilson(round(est * trials), trials, 5.0)
            if not zl <= exact <= zh:
                errs.append(f"{what} n={n} w={w}: estimate {est} far from closed form {exact:.6g}")
        else:
            bound = R.bad_pair_bound(n, eps)
            if abs(float(row["pair_bound"]) - bound) > 1e-5 * bound:
                errs.append(f"{what} n={n}: pair bound {row['pair_bound']}, paper gives {bound:.6g}")
            if est > bound + 5 * math.sqrt(bound * (1 - bound) / trials):
                errs.append(f"{what} n={n}: estimate {est} exceeds the bound {bound:.6g}")
    if not rows:
        errs.append(f"{what}: no rows")
    return errs


WORKLOADS = {w.name: w for w in (CompletenessN4, BandedN16, RoundsN6, Oracles)}
