"""tools/bench_pairs.compare on synthetic runs: the pair wins and both verdicts."""

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
