"""CLI surface: subcommands, formats, and byte-level reproducibility."""

import json

import pytest

from setfam.cli import main, resolve_function
from setfam.boolfn import TruthTable


def run_cli(args, tmp_path, name="out"):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    assert code == 0
    return out.read_bytes()


class TestGen:
    def test_talagrand_rounding(self, tmp_path):
        raw = run_cli(
            ["gen", "--kind", "talagrand", "--n", "25", "--eps", "1", "--seed", "1"],
            tmp_path,
        )
        doc = json.loads(raw)
        assert doc["num_terms"] == 3 and doc["term_size"] == 5
        assert len(doc["terms"]) == 3

    def test_uc_yes_verifies(self, tmp_path):
        raw = run_cli(
            ["gen", "--kind", "uc-yes", "--n", "16", "--eps", "0.0625", "--seed", "7"],
            tmp_path,
        )
        doc = json.loads(raw)
        assert doc["verification"]["union_closed"] is True
        assert doc["instance"] == {
            "kind": "uc-yes", "n": 16, "eps": 0.0625, "seed": 7, "arity": 16,
        }

    def test_int_yes_verifies_and_writes_table(self, tmp_path):
        table_path = tmp_path / "inst.bftt1"
        raw = run_cli(
            ["gen", "--kind", "int-yes", "--n", "16", "--eps", "0.5", "--seed", "3",
             "--table", str(table_path)],
            tmp_path,
        )
        doc = json.loads(raw)
        assert doc["verification"]["intersecting"] is True
        tt = TruthTable.load(table_path)
        assert tt.arity == 18

    def test_table_is_materialized_once(self, tmp_path, monkeypatch):
        from setfam.hardness import UcInstance

        calls = []
        materialize = UcInstance.materialize
        monkeypatch.setattr(UcInstance, "materialize",
                            lambda self: calls.append(1) or materialize(self))
        table_path = tmp_path / "inst.bftt1"
        raw = run_cli(
            ["gen", "--kind", "uc-yes", "--n", "14", "--eps", "0.25", "--seed", "5",
             "--table", str(table_path)],
            tmp_path,
        )
        assert json.loads(raw)["verification"]["union_closed"] is True
        assert len(calls) == 1 and TruthTable.load(table_path).arity == 14

    def test_int_no_reports_certificate_counts(self, tmp_path):
        raw = run_cli(
            ["gen", "--kind", "int-no", "--n", "16", "--eps", "0.5", "--seed", "11"],
            tmp_path,
        )
        doc = json.loads(raw)
        v = doc["verification"]
        assert "disjoint_violating_pairs" in v
        assert v["certified_distance_lb"].endswith(f"/{1 << 18}")

    def test_uc_no_reports_r_tally(self, tmp_path):
        raw = run_cli(
            ["gen", "--kind", "uc-no", "--n", "16", "--eps", "0.0625", "--seed", "2"],
            tmp_path,
        )
        v = json.loads(raw)["verification"]
        assert v["good_r"] + v["bad_r"] >= 1

    def test_degenerate_parameters_error(self, capsys):
        code = main(["gen", "--kind", "int-yes", "--n", "3", "--eps", "1",
                     "--seed", "0"])
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestResolveFunction:
    def test_builtins(self):
        assert resolve_function("const0", 4)(7) == 0
        assert resolve_function("const1", 4)(7) == 1
        assert resolve_function("dictator-1", 4)(1) == 1
        assert resolve_function("majority", 3)(0b110) == 1

    def test_ones_literal(self):
        f = resolve_function("ones:{01,10}", 2)
        assert sorted(f.ones()) == [1, 2]

    def test_bftt1_and_json(self, tmp_path):
        tt = TruthTable.from_ones(5, [3, 17])
        p = tmp_path / "t.bftt1"
        tt.save(p)
        assert resolve_function(str(p), None) == tt
        j = tmp_path / "t.json"
        j.write_text(json.dumps(tt.to_json_obj()))
        assert resolve_function(str(j), None) == tt

    def test_table_arity_is_checked_before_sizing(self, tmp_path):
        # 2^(10^12) points: sizing anything by the arity first would never finish
        p = tmp_path / "t.bftt1"
        p.write_bytes(b"BFTT1\n1000000000000\n\x06")
        j = tmp_path / "t.json"
        j.write_text(json.dumps({"n": 10**12, "ones": [1]}))
        for path in (p, j):
            with pytest.raises(ValueError, match=r"table arity must be in \[1, 24\]"):
                resolve_function(str(path), None)

    def test_instance_json(self, tmp_path):
        run_cli(["gen", "--kind", "uc-yes", "--n", "16", "--eps", "0.0625",
                 "--seed", "7"], tmp_path, "inst.json")
        doc = json.loads((tmp_path / "inst.json").read_text())
        j = tmp_path / "spec.json"
        j.write_text(json.dumps(doc["instance"]))
        f = resolve_function(str(j), None)
        assert f.arity == 16


class TestTestCommand:
    def test_dictator_always_accepts(self, tmp_path):
        raw = run_cli(
            ["test", "--alg", "uc", "--fn", "dictator-1", "--n", "12",
             "--eps", "0.25", "--trials", "10", "--seed", "1"],
            tmp_path,
        ).decode()
        lines = [l for l in raw.splitlines() if l and not l.startswith("#")]
        assert lines[0].split(",")[:7] == [
            "trial", "alg", "fn", "n", "eps", "seed", "verdict"]
        rows = lines[1:]
        assert len(rows) == 10
        assert all(row.split(",")[6] == "accept" for row in rows)

    def test_a_tau_that_underflows_writes_an_error_row(self, tmp_path):
        raw = run_cli(["test", "--alg", "uc-triple", "--fn", "majority", "--n", "8",
                       "--eps", "0.5", "--tau-constant", "1e6"], tmp_path).decode()
        row = [l for l in raw.splitlines() if l and not l.startswith("#")][1].split(",")
        assert row[6] == "ERROR" and "exceeds the cap 10000000" in row[10]

    @pytest.mark.parametrize("value", ["nan", "-50", "inf"])
    def test_a_non_finite_or_negative_tau_constant_is_an_error(self, value, capsys):
        code = main(["test", "--alg", "int-pair", "--fn", "majority", "--n", "8",
                     "--eps", "0.5", f"--tau-constant={value}"])
        assert code == 2
        assert "tau_constant must be finite and >= 0" in capsys.readouterr().err

    def test_soundness_row_rate(self, tmp_path):
        raw = run_cli(
            ["test", "--alg", "int", "--fn", "const1", "--n", "10",
             "--eps", "0.1", "--trials", "50", "--seed", "5"],
            tmp_path,
        ).decode()
        rows = [l for l in raw.splitlines() if l and not l.startswith("#")][1:]
        rejects = sum(r.split(",")[6] == "reject" for r in rows)
        assert rejects >= 45

    def test_triple_tester_rows_carry_success_estimate(self, tmp_path):
        from setfam.boolfn import TruthTable

        TruthTable.from_ones(2, [1, 2]).save(tmp_path / "far.bftt1")
        raw = run_cli(
            ["test", "--alg", "uc-triple", "--fn", str(tmp_path / "far.bftt1"),
             "--eps", "0.2", "--trials", "8", "--seed", "3",
             "--max-iterations", "5000"],
            tmp_path,
        ).decode()
        rows = [l.split(",") for l in raw.splitlines() if l and not l.startswith("#")][1:]
        ests = [float(r[9]) for r in rows]
        assert all(0.0 <= e <= 1.0 for e in ests)
        assert any(e > 0 for e in ests)  # rejects happened, estimates recorded

    def test_byte_determinism_across_runs_and_threads(self, tmp_path):
        args = ["test", "--alg", "uc", "--fn", "ones:{01,10}", "--n", "2",
                "--eps", "0.2", "--trials", "20", "--seed", "9"]
        runs = [
            run_cli(args + ["--threads", t], tmp_path, f"o{i}")
            for i, t in enumerate(["1", "1", "8"])
        ]
        assert runs[0] == runs[1] == runs[2]

    def test_golden_bytes_frozen(self, tmp_path):
        # pins the RNG/output contract; regenerate golden_test_cmd.csv on a
        # deliberate contract change
        from pathlib import Path

        got = run_cli(
            ["test", "--alg", "uc", "--fn", "ones:{01,10}", "--n", "2",
             "--eps", "0.2", "--trials", "5", "--seed", "9"],
            tmp_path,
        )
        golden = (Path(__file__).parent / "golden_test_cmd.csv").read_bytes()
        assert got == golden

    def test_row_certificates_reverify_against_regenerated_instance(self, tmp_path):
        import csv as csvmod
        import io

        from setfam.hardness import load_instance
        from setfam.violations import certificate_from_json_obj

        run_cli(["gen", "--kind", "uc-no", "--n", "16", "--eps", "0.0625",
                 "--seed", "0"], tmp_path, "gen.json")
        spec = json.loads((tmp_path / "gen.json").read_text())["instance"]
        spec_path = tmp_path / "inst.json"
        spec_path.write_text(json.dumps(spec))
        raw = run_cli(
            ["test", "--alg", "uc", "--fn", str(spec_path), "--eps", "0.0625",
             "--trials", "10", "--seed", "4", "--max-iterations", "50"],
            tmp_path,
        ).decode()
        body = "\n".join(l for l in raw.splitlines() if not l.startswith("#"))
        rows = list(csvmod.DictReader(io.StringIO(body)))
        fresh = load_instance(spec).function()
        rejects = 0
        for row in rows:
            if row["certificate"]:
                cert = certificate_from_json_obj(json.loads(row["certificate"]))
                assert cert.holds_for(fresh)
                rejects += 1
        assert rejects > 0  # seed 0 draws a far instance (1024 triples)

    def test_timing_breaks_no_schema(self, tmp_path):
        raw = run_cli(
            ["test", "--alg", "uc", "--fn", "const0", "--n", "6",
             "--eps", "0.5", "--trials", "2", "--seed", "0", "--timing"],
            tmp_path,
        ).decode()
        rows = [l for l in raw.splitlines() if l and not l.startswith("#")][1:]
        assert all(row.rsplit(",", 1)[1] != "" for row in rows)


class TestSerialRows:
    def test_rows_run_on_the_calling_thread_in_trial_order(self, tmp_path, monkeypatch):
        import threading

        from setfam import cli

        calls = []
        tester = cli.ALGORITHMS["uc"]

        def recorder(f, cfg):
            calls.append((threading.get_ident(), cfg.seed))
            return tester(f, cfg)

        monkeypatch.setitem(cli.ALGORITHMS, "uc", recorder)
        run_cli(["test", "--alg", "uc", "--fn", "majority", "--n", "6", "--eps", "0.5",
                 "--trials", "16", "--seed", "5", "--threads", "8"], tmp_path)
        assert calls == [(threading.get_ident(), cli._row_seed(5, t)) for t in range(16)]

    def test_setfam_threads_leaves_the_bytes_unchanged(self, tmp_path, monkeypatch):
        args = ["test", "--alg", "uc", "--fn", "ones:{01,10}", "--n", "2",
                "--eps", "0.2", "--trials", "5", "--seed", "9"]
        plain = run_cli(args, tmp_path, "plain")
        monkeypatch.setenv("SETFAM_THREADS", "abc")
        assert run_cli(args, tmp_path, "env") == plain


class TestInputErrors:
    """Input and parameter errors print `setfam: error: ...` and exit 2, with no traceback."""

    @staticmethod
    def files(tmp_path):
        (tmp_path / "no_kind.json").write_text(json.dumps({"n": 16, "eps": 0.5, "seed": 1}))
        (tmp_path / "no_n.json").write_text(json.dumps({"ones": [1, 2]}))
        (tmp_path / "no_type.json").write_text(json.dumps({"certificate": {"points": [1, 2]}}))
        (tmp_path / "list.json").write_text(json.dumps([1, 2]))
        (tmp_path / "ones_int.json").write_text(json.dumps({"n": 3, "ones": 5}))
        (tmp_path / "one.json").write_text(json.dumps([1]))

    @pytest.mark.parametrize("argv, message", [
        (["test", "--alg", "uc", "--fn", "{d}/missing.bftt1", "--eps", "0.5"],
         "No such file or directory"),
        (["verify", "--instance", "{d}/missing.json"], "No such file or directory"),
        (["dist", "--prop", "uc", "--fn", "const1", "--n", "2", "--out", "{d}/no/dir.json"],
         "No such file or directory"),
        (["test", "--alg", "uc", "--fn", "{d}/no_kind.json", "--eps", "0.5"],
         "no_kind.json has no field 'kind'"),
        (["verify", "--instance", "{d}/no_kind.json"], "no_kind.json has no field 'kind'"),
        (["test", "--alg", "uc", "--fn", "{d}/no_n.json", "--eps", "0.5"],
         "no_n.json has no field 'n'"),
        (["verify", "--report", "{d}/no_type.json", "--fn", "const1", "--n", "2"],
         "no_type.json has no field 'type'"),
        (["test", "--alg", "uc", "--fn", "majority", "--eps", "0.5"],
         "--n is required for builtin functions"),
        (["test", "--alg", "uc", "--fn", "{d}/f.txt", "--eps", "0.5"],
         "cannot interpret function source"),
        (["verify"], "verify needs --instance and/or --report"),
        (["sweep", "--what", "queries", "--ns", "5..3"], "empty range '5..3'"),
        (["sweep", "--what", "reject-rate", "--ns", "8", "--epss", ","],
         "--ns and --epss must each name at least one value"),
        (["test", "--alg", "uc", "--fn", "majority", "--n", "4", "--eps", "0.5",
          "--trials", "-2"], "--trials must be at least 1, got -2"),
        (["test", "--alg", "uc", "--fn", "majority", "--n", "4", "--eps", "0.5",
          "--trials", "0"], "--trials must be at least 1, got 0"),
        (["sweep", "--what", "queries", "--ns", "5", "--seeds", "0"],
         "--seeds and --trials must be at least 1"),
        (["sweep", "--what", "reject-rate", "--ns", "5", "--trials", "0"],
         "--seeds and --trials must be at least 1"),
        (["test", "--alg", "uc", "--fn", "{d}/list.json", "--eps", "0.5"],
         "list.json is not a JSON object"),
        (["test", "--alg", "uc", "--fn", "{d}/ones_int.json", "--eps", "0.5"],
         "table {d}/ones_int.json has a field of the wrong type"),
        (["verify", "--report", "{d}/one.json", "--fn", "const1", "--n", "2"],
         "one.json is not a JSON object"),
        (["verify", "--instance", "{d}/list.json"], "list.json is not a JSON object"),
        (["gen", "--kind", "uc-yes", "--n", "6", "--eps", "0.5"],
         "term count rounds to 0 at (n=6, eps=0.5), control size 5"),
        (["gen", "--kind", "int-yes", "--n", "3", "--eps", "0.9"],
         "term count rounds to 0 at (n=3, eps=0.9), control size 1"),
        (["sweep", "--what", "bad-event", "--construction", "uc", "--ns", "8", "--epss", "0.5"],
         "term count rounds to 0 at (n=8, eps=0.5), control size 7"),
    ])
    def test_a_bad_input_exits_2_with_a_message(self, argv, message, tmp_path, capsys):
        self.files(tmp_path)
        code = main([a.replace("{d}", str(tmp_path)) for a in argv])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("setfam: error: ") and message.replace("{d}", str(tmp_path)) in err


class TestRepeatedMain:
    def test_repeated_calls_match_fresh_processes(self, capsys):
        # the parser is built once per process; no option value may carry
        # over from one call to the next
        import os
        import subprocess
        import sys
        from pathlib import Path

        test = ["test", "--alg", "uc", "--fn", "majority", "--n", "8", "--eps", "0.5",
                "--trials", "2", "--seed", "3"]
        calls = [test + ["--max-iterations", "5"], test,
                 ["dist", "--prop", "int", "--fn", "const1", "--n", "2"],
                 test + ["--max-iterations", "5"]]
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
        outputs = []
        for argv in calls:
            assert main(argv) == 0
            got = capsys.readouterr().out
            fresh = subprocess.run([sys.executable, "-m", "setfam", *argv], env=env,
                                   capture_output=True, check=True).stdout.decode()
            assert got == fresh
            outputs.append(got)
        assert outputs[0] == outputs[3] != outputs[1]
        assert "max_iterations=None" in outputs[1]


class TestDistCommand:
    def test_int_const1_n2(self, tmp_path):
        raw = run_cli(["dist", "--prop", "int", "--fn", "const1", "--n", "2"], tmp_path)
        assert json.loads(raw) == {"method": "vertex-cover", "value": "2/4"}

    def test_uc_ones_literal(self, tmp_path):
        raw = run_cli(["dist", "--prop", "uc", "--fn", "ones:{01,10}", "--n", "2"],
                      tmp_path)
        assert json.loads(raw)["value"] == "1/4"

    def test_dictator_zero(self, tmp_path):
        raw = run_cli(["dist", "--prop", "int", "--fn", "dictator-1", "--n", "4"],
                      tmp_path)
        assert json.loads(raw)["value"] == "0/16"

    def test_certificate_flag(self, tmp_path):
        raw = run_cli(["dist", "--prop", "uc", "--fn", "ones:{01,10}", "--n", "2",
                       "--certificate"], tmp_path)
        assert "certificate" in json.loads(raw)


class TestSweepCommand:
    def test_queries_monotone_in_n(self, tmp_path):
        raw = run_cli(
            ["sweep", "--what", "queries", "--ns", "6..10", "--epss", "0.25",
             "--seeds", "2", "--iterations", "120", "--fn", "const0", "--seed", "3"],
            tmp_path,
        ).decode()
        rows = [l.split(",") for l in raw.splitlines() if l and not l.startswith("#")][1:]
        by_n = {}
        for r in rows:
            by_n.setdefault(int(r[0]), []).append(float(r[5]))
        means = [sum(v) / len(v) for _, v in sorted(by_n.items())]
        assert all(a < b for a, b in zip(means, means[1:]))

    def test_unique_sat_sweep(self, tmp_path):
        raw = run_cli(
            ["sweep", "--what", "unique-sat", "--ns", "25", "--epss", "1",
             "--trials", "20000", "--seed", "1"],
            tmp_path,
        ).decode()
        rows = [l.split(",") for l in raw.splitlines() if l and not l.startswith("#")][1:]
        pooled = [r for r in rows if r[2] == "pooled"]
        assert len(pooled) == 1 and float(pooled[0][5]) > 0.03

    def test_bad_event_sweep_within_bound(self, tmp_path):
        raw = run_cli(
            ["sweep", "--what", "bad-event", "--ns", "16", "--epss", "0.5",
             "--trials", "5000", "--pair", "antipodal", "--seed", "2"],
            tmp_path,
        ).decode()
        rows = [l.split(",") for l in raw.splitlines() if l and not l.startswith("#")][1:]
        est, bound = float(rows[0][5]), float(rows[0][8])
        assert est <= bound + 0.05

    def test_reject_rate_sweep(self, tmp_path):
        raw = run_cli(
            ["sweep", "--what", "reject-rate", "--ns", "8", "--epss", "0.1",
             "--trials", "30", "--alg", "int", "--fn", "const1", "--seed", "4"],
            tmp_path,
        ).decode()
        rows = [l.split(",") for l in raw.splitlines() if l and not l.startswith("#")][1:]
        assert float(rows[0][4]) >= 0.9

    def test_reject_rate_sweep_wilson_column(self, tmp_path):
        # one iteration per trial, so some trials reject and some accept
        import math
        from statistics import NormalDist

        raw = run_cli(
            ["sweep", "--what", "reject-rate", "--ns", "4", "--epss", "0.5,0.9",
             "--trials", "30", "--iterations", "1", "--alg", "int",
             "--fn", "ones:{0011,1100}", "--seed", "4"],
            tmp_path,
        ).decode()
        rows = [l.split(",") for l in raw.splitlines() if l and not l.startswith("#")]
        assert rows[0][5] == "wilson95_lo"
        z = NormalDist().inv_cdf(0.975)
        for row in rows[1:]:
            trials, rejects = int(row[2]), int(row[3])
            assert 0 < rejects < trials
            p = rejects / trials
            half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials))
            lo = (p + z * z / (2 * trials) - half) / (1 + z * z / trials)
            assert row[5] == f"{lo:.6g}"

    def test_sweep_determinism_across_threads(self, tmp_path):
        args = ["sweep", "--what", "queries", "--ns", "6..8", "--epss", "0.5",
                "--seeds", "3", "--iterations", "50", "--seed", "0"]
        a = run_cli(args + ["--threads", "1"], tmp_path, "a")
        b = run_cli(args + ["--threads", "8"], tmp_path, "b")
        assert a == b


class TestVerifyCommand:
    def test_instance_verification(self, tmp_path):
        run_cli(["gen", "--kind", "uc-yes", "--n", "16", "--eps", "0.0625",
                 "--seed", "1"], tmp_path, "gen.json")
        inst = json.loads((tmp_path / "gen.json").read_text())["instance"]
        spec = tmp_path / "inst.json"
        spec.write_text(json.dumps(inst))
        raw = run_cli(["verify", "--instance", str(spec)], tmp_path)
        assert json.loads(raw)["verification"]["union_closed"] is True

    def test_report_certificate_reverification(self, tmp_path):
        from setfam.boolfn import TruthTable
        from setfam.testers import TesterConfig, uc_tester

        f = TruthTable.from_ones(2, [1, 2])
        rep = uc_tester(f, TesterConfig(eps=0.2, seed=0))
        assert rep.verdict == "reject"
        report_path = tmp_path / "report.json"
        report_path.write_text(rep.to_json())
        fn_path = tmp_path / "f.json"
        fn_path.write_text(json.dumps(f.to_json_obj()))
        raw = run_cli(["verify", "--report", str(report_path),
                       "--fn", str(fn_path)], tmp_path)
        assert json.loads(raw)["certificate_valid"] is True
