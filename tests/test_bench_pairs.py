"""tools/bench_pairs.compare on synthetic runs: the pair wins and the three verdicts."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

METRICS = [{"name": "ops_per_s", "unit": "ops/s", "better": "higher", "bound": 0.25},
           {"name": "peak_rss_mb", "unit": "MiB", "better": "lower", "bound": 0.1}]


def runs(parent: list[float], change: list[float], name: str = "ops_per_s") -> list[dict]:
    return [{"parent": {"metrics": {name: p}}, "change": {"metrics": {name: c}}}
            for p, c in zip(parent, change)]


PARENT = [96.0, 98.0, 99.0, 100.0, 100.0, 100.0, 101.0, 102.0, 104.0, 100.0]  # q3 - q1 = 3


class TestCompare:
    def test_a_clear_gain_is_shown_and_within_bound(self):
        got = bench_pairs.compare(runs(PARENT, [p * 1.2 for p in PARENT]), METRICS)["ops_per_s"]
        assert got["change_wins"] == got["pairs"] == 10
        assert got["median_change_pct"] == pytest.approx(20.0)
        assert got["gain_shown"] and got["within_bound"]

    def test_eight_wins_of_ten_show_no_gain(self):
        change = [p * 1.2 for p in PARENT[:8]] + [p * 0.99 for p in PARENT[8:]]
        got = bench_pairs.compare(runs(PARENT, change), METRICS)["ops_per_s"]
        assert got["change_wins"] == 8
        assert not got["gain_shown"] and got["within_bound"]

    def test_a_gain_inside_the_parents_quartiles_is_not_shown(self):
        got = bench_pairs.compare(runs(PARENT, [p + 2.0 for p in PARENT]), METRICS)["ops_per_s"]
        assert got["change_wins"] == 10
        assert got["parent"]["q3"] - got["parent"]["q1"] > 2.0
        assert not got["gain_shown"]

    @pytest.mark.parametrize("factor, within", [(0.76, True), (0.74, False)])
    def test_the_bound_on_a_higher_is_better_metric(self, factor, within):
        got = bench_pairs.compare(runs(PARENT, [p * factor for p in PARENT]), METRICS)
        assert got["ops_per_s"]["within_bound"] is within
        assert not got["ops_per_s"]["gain_shown"]

    @pytest.mark.parametrize("factor, within, shown", [(1.09, True, False), (1.11, False, False),
                                                       (0.8, True, True)])
    def test_the_bound_on_a_lower_is_better_metric(self, factor, within, shown):
        rss = [50.0 + i % 3 for i in range(10)]
        got = bench_pairs.compare(runs(rss, [r * factor for r in rss], "peak_rss_mb"), METRICS)
        assert set(got) == {"peak_rss_mb"}  # a metric no run reports is left out
        assert got["peak_rss_mb"]["within_bound"] is within
        assert got["peak_rss_mb"]["gain_shown"] is shown


class TestSpread:
    def test_a_spread_at_the_bound_is_within_it(self):
        # the change's q3 - q1 = 5.0 against 10% of the parent's median, 50.0
        rss = [50.0] * 10
        change = [48.0, 48.0, 48.0, 53.0, 53.0, 53.0, 50.0, 50.0, 50.0, 50.0]
        got = bench_pairs.compare(runs(rss, change, "peak_rss_mb"), METRICS)["peak_rss_mb"]
        assert got["change"]["q3"] - got["change"]["q1"] == pytest.approx(5.0)
        assert got["spread_within_bound"] and got["within_bound"]

    def test_a_spread_past_the_bound_is_reported_with_a_median_within_it(self):
        # the median stays at the parent's; the change's q3 - q1 = 6.0 > 5.0
        rss = [50.0] * 10
        change = [47.0, 47.0, 47.0, 53.0, 53.0, 53.0, 50.0, 50.0, 50.0, 50.0]
        got = bench_pairs.compare(runs(rss, change, "peak_rss_mb"), METRICS)["peak_rss_mb"]
        assert got["change"]["median"] == 50.0
        assert got["within_bound"] and not got["spread_within_bound"]

    def test_the_spread_is_the_changes_not_the_parents(self):
        # a wide parent and a tight change: the parent's q3 - q1 is 40
        parent = [80.0, 80.0, 80.0, 120.0, 120.0, 120.0, 100.0, 100.0, 100.0, 100.0]
        got = bench_pairs.compare(runs(parent, [100.0] * 10), METRICS)["ops_per_s"]
        assert got["spread_within_bound"]
        got = bench_pairs.compare(runs([100.0] * 10, parent), METRICS)["ops_per_s"]
        assert not got["spread_within_bound"]  # 40 > 25% of 100


class TestImportMs:
    @staticmethod
    def fake_tree(root, side: str, log, work: int):
        """A tree whose load_setfam imports a setfam that logs its side and spins work steps."""
        (root / "src" / "setfam").mkdir(parents=True)
        (root / "src" / "setfam" / "__init__.py").write_text(
            f"with open({str(log)!r}, 'a') as fh:\n    fh.write({side!r} + '\\n')\n"
            f"sum(range({work}))\n")
        (root / "benchmark").mkdir()
        (root / "benchmark" / "workloads.py").write_text(
            "def load_setfam():\n    import setfam\n    return setfam\n")
        return root

    def test_each_side_imports_its_own_tree_in_fresh_alternating_processes(self, tmp_path):
        log = tmp_path / "imports.log"
        trees = {"parent": self.fake_tree(tmp_path / "p", "parent", log, 3_000_000),
                 "change": self.fake_tree(tmp_path / "c", "change", log, 0)}
        got = bench_pairs.import_ms(trees, runs=3)
        assert log.read_text().split() == ["parent", "change", "change", "parent",
                                           "parent", "change"]
        assert set(got) == {"parent", "change"}
        assert got["parent"] > got["change"] >= 0.0


class TestRssFit:
    @staticmethod
    def fit_runs(parent_ops, change_ops, rss, change_offset=0.0):
        """Runs whose peak_rss_mb is rss(completed operations), the change's raised by an offset."""
        return [{side: {"attempted": ops + 5, "failed": 5,
                        "metrics": {"peak_rss_mb": rss(ops) + (change_offset if side == "change"
                                                               else 0.0)}}
                 for side, ops in (("parent", p), ("change", c))}
                for p, c in zip(parent_ops, change_ops)]

    def test_runs_on_one_line_give_its_intercept_and_bytes_per_operation(self):
        line = lambda ops: 41.4 + 92.0 * ops / 2**20  # noqa: E731
        ops = [200_000 + 10_000 * i for i in range(10)]
        got = bench_pairs.rss_fit(self.fit_runs(ops, [o + 70_000 for o in ops], line))
        assert got["runs"] == 20
        assert got["intercept_mib"] == pytest.approx(41.4)
        assert got["slope_b_per_op"] == pytest.approx(92.0)
        assert got["r"] == pytest.approx(1.0)
        assert got["median_residual_mib"] == pytest.approx({"parent": 0.0, "change": 0.0},
                                                           abs=1e-9)

    def test_a_side_above_the_line_has_a_positive_median_residual(self):
        ops = [1000 * i for i in range(1, 11)]
        got = bench_pairs.rss_fit(self.fit_runs(ops, ops, lambda o: 50.0 + o / 1e4, 1.0))
        # the fit runs between the sides: the change half a MiB above, the parent below
        assert got["median_residual_mib"]["change"] == pytest.approx(0.5)
        assert got["median_residual_mib"]["parent"] == pytest.approx(-0.5)
        assert got["intercept_mib"] == pytest.approx(50.5)
        assert 0.0 < got["r"] < 1.0

    def test_failed_operations_are_not_counted_and_a_run_without_figures_is_left_out(self):
        runs = self.fit_runs([100, 200, 300], [150, 250, 350], lambda o: 10.0 + o / 100)
        runs[0]["parent"] = {"attempted": None, "failed": None, "metrics": {}}
        runs[1]["change"]["metrics"] = {}
        got = bench_pairs.rss_fit(runs)
        assert got["runs"] == 4
        assert got["slope_b_per_op"] == pytest.approx(2**20 / 100)
        assert got["intercept_mib"] == pytest.approx(10.0)

    def test_no_line_through_one_operation_count(self):
        assert bench_pairs.rss_fit(self.fit_runs([500] * 10, [500] * 10, lambda o: 40.0)) is None
        assert bench_pairs.rss_fit([]) is None

    def test_headroom_is_the_bound_over_the_slope_at_the_parents_medians(self):
        line = lambda ops: 41.4 + 92.0 * ops / 2**20  # noqa: E731
        ops = [200_000 + 10_000 * i for i in range(10)]  # the parent's median is 245,000
        runs = self.fit_runs(ops, [o + 70_000 for o in ops], line)
        got = bench_pairs.rss_fit(runs)
        assert got["headroom_ops"] == pytest.approx(0.1 * line(245_000) * 2**20 / 92.0)
        assert got["headroom_gain_pct"] == pytest.approx(100.0 * got["headroom_ops"] / 245_000)
        wider = bench_pairs.rss_fit(runs, bound=0.2)
        assert wider["headroom_ops"] == pytest.approx(2 * got["headroom_ops"])
        assert wider["headroom_gain_pct"] == pytest.approx(2 * got["headroom_gain_pct"])

    def test_no_headroom_without_a_rising_line(self):
        ops = [1000 * i for i in range(1, 11)]
        got = bench_pairs.rss_fit(self.fit_runs(ops, ops, lambda o: 60.0 - o / 1e4))
        assert got["slope_b_per_op"] < 0
        assert got["headroom_ops"] is None and got["headroom_gain_pct"] is None

    def test_a_committed_record_gives_the_figure_worked_out_by_hand(self):
        # completeness-n4 in BENCH_72e13b81c959.json: 89.4 B per operation,
        # 58.1 MiB and 201k operations at the parent's medians
        import json

        record = json.loads((_PATH.parent.parent / "BENCH_72e13b81c959.json").read_text())
        got = bench_pairs.rss_fit(record["workloads"]["completeness-n4"]["runs"])
        assert got["headroom_ops"] == pytest.approx(68_146, abs=1)
        assert got["headroom_gain_pct"] == pytest.approx(34.9, abs=0.05)
