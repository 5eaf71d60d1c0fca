"""Hard-instance semantics against frozen values.

``golden_tables.json`` holds, per instance (kind, n, eps, seed), the
SHA-256 of ``materialize().to_bftt1()`` and, for no-instances, the
``count_*_no_violations`` certificate; the answers of an
``int-one-sided-no`` instance at n=61 on fixed points;
``unique_sat_probability`` results at fixed streams; and
``estimate_bad_probability`` results, called directly and through
``setfam sweep --what bad-event``.  The tester corpus
pins only the points that testers query; these pin whole tables, so a
change to how an instance decides its unique satisfied term shows up here.
Each table is also compared, point by point, with the scalar evaluators of
``reference_instances``.

Regenerate only on a deliberate change of instance semantics:

    PYTHONPATH=src python tests/test_golden_tables.py
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

from setfam.boolfn import TruthTable
from setfam.cli import main as cli_main
from setfam.hardness import (
    BadEventParams,
    count_int_no_violations,
    count_uc_no_violations,
    estimate_bad_probability,
    load_instance,
    unique_sat_probability,
)
from setfam.rng import stream

import reference_instances as ref

GOLDEN_PATH = Path(__file__).parent / "golden_tables.json"

#: Points on which the scalar reference is checked against the table: all
#: of them up to this many, else this many fixed random ones.
POINTWISE = 1 << 16


def instance_specs() -> list[dict]:
    specs = []
    # seeds chosen so that most no-instances certify a nonzero count
    configs = {
        "int": (((9, 0.5), (0, 1, 2)), ((12, 0.4), (0, 2, 3)),
                ((14, 0.4), (0, 1, 2)), ((16, 0.5), (0, 1, 2))),
        # 19 control coordinates (n - log2(1/eps)) are the fewest whose DNF
        # keeps two distinct terms
        "uc": (((13, 0.5), (0, 1, 2)), ((16, 0.125), (0, 1, 2)),
               ((18, 0.25), (3, 4, 5)), ((21, 0.25), (2, 3, 6))),
    }
    for family, rows in configs.items():
        for kind in ("yes", "no"):
            for (n, eps), seeds in rows:
                for seed in seeds:
                    specs.append({"kind": f"{family}-{kind}", "n": n, "eps": eps,
                                  "seed": seed})
    return specs


def one_sided_points() -> list[int]:
    """Points of weight 25..36 below 2^61 with every selector pair, in a fixed order."""
    rng = stream(2311, 61)
    points = []
    for k in range(1000):
        w = int(rng.integers(25, 37))
        x = 0
        for c in rng.permutation(61)[:w]:
            x |= 1 << int(c)
        points.append(x | (k % 4) << 61)
    return points


ONE_SIDED = {"kind": "int-one-sided-no", "n": 61, "eps": 0.999, "seed": 7}

UNIQUE_SAT = [
    {"n": 16, "eps": 0.5, "trials": 40000, "seed": 7, "weights": [9]},
    {"n": 25, "eps": 1.0, "trials": 20000, "seed": 6, "weights": None},
    {"n": 25, "eps": 0.5, "trials": 3000, "seed": 11, "weights": None},
    {"n": 36, "eps": 1.0, "trials": 5000, "seed": 12, "weights": [17, 18, 19]},
]


_X63 = 0x5555555555555555 >> 1
BAD_EVENT = [
    # a = 1: the pair goes Bad exactly when the action coordinate is bit 0
    {"points": [(1 << 13) - 1, (1 << 13) - 2], "construction": "uc", "n": 13,
     "eps": 0.5, "trials": 4000, "seed": 3},
    # six points of three action-weight extremes: nonzero, with 15 pairs
    {"points": [((1 << 25) - 1) ^ (7 << k) for k in (0, 3, 6)]
     + [(1 << 12) - 1, (1 << 14) - 1, (1 << 15) - 2], "construction": "intersect",
     "n": 25, "eps": 1.0, "trials": 20000, "seed": 9},
    # 126,954 terms of 20 coordinates: one trial spans many draw blocks
    {"points": [_X63, _X63 ^ ((1 << 63) - 1)], "construction": "intersect", "n": 63,
     "eps": 0.3, "trials": 3, "seed": 5},
]

BAD_EVENT_SWEEPS = [
    ["sweep", "--what", "bad-event", "--ns", "16", "--epss", "0.5", "--trials", "20000",
     "--construction", construction, "--pair", pair]
    for construction in ("intersect", "uc") for pair in ("antipodal", "random")
]


def table_hash(table: TruthTable) -> str:
    return hashlib.sha256(table.to_bftt1()).hexdigest()


def no_count(inst) -> int:
    if inst.kind == "yes":
        return 0
    if inst.arity == inst.n:
        return count_uc_no_violations(inst)
    return count_int_no_violations(inst)


def unique_sat(spec: dict) -> dict:
    res = unique_sat_probability(spec["n"], spec["eps"], spec["trials"],
                                 stream(spec["seed"]), weights=spec["weights"])
    return res.to_json_obj()


def bad_event(spec: dict) -> dict:
    params = BadEventParams(tuple(spec["points"]), spec["construction"], spec["trials"])
    return estimate_bad_probability(params, spec["n"], spec["eps"], spec["seed"]).to_json_obj()


def sweep_rows(argv: list[str]) -> list[str]:
    """The CSV header and rows of a CLI run, without its comment lines."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out.csv"
        assert cli_main(argv + ["--out", str(out)]) == 0
        text = out.read_text()
    return [line for line in text.splitlines() if not line.startswith("#")]


def write_golden() -> None:
    tables = []
    for spec in instance_specs():
        inst = load_instance(spec)
        tables.append({**spec, "sha256": table_hash(inst.materialize()),
                       "no_count": no_count(inst)})
    f = load_instance(ONE_SIDED).function()
    points = one_sided_points()
    answers = "".join(str(f(p)) for p in points)
    golden = {
        "tables": tables,
        "one_sided": {"instance": ONE_SIDED, "points": points, "answers": answers},
        "unique_sat": [{**spec, "result": unique_sat(spec)} for spec in UNIQUE_SAT],
        "bad_event": [{**spec, "result": bad_event(spec)} for spec in BAD_EVENT],
        "bad_event_sweeps": [{"argv": argv, "rows": sweep_rows(argv)}
                             for argv in BAD_EVENT_SWEEPS],
    }
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


GOLDEN = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}


def _table_id(case: dict) -> str:
    return f"{case['kind']}-n{case['n']}-eps{case['eps']}-s{case['seed']}"


def test_golden_covers_every_kind_and_answer():
    kinds = {c["kind"] for c in GOLDEN["tables"]}
    assert kinds == {"int-yes", "int-no", "uc-yes", "uc-no"}
    arities = {load_instance(c).arity for c in GOLDEN["tables"]}
    assert min(arities) <= 11 and max(arities) >= 18
    for kind in ("int-no", "uc-no"):
        assert any(c["no_count"] > 0 for c in GOLDEN["tables"] if c["kind"] == kind)
    assert set(GOLDEN["one_sided"]["answers"]) == {"0", "1"}


@pytest.mark.parametrize("case", GOLDEN.get("tables", []), ids=_table_id)
def test_materialized_table_matches_golden(case):
    inst = load_instance(case)
    table = inst.materialize()
    assert table_hash(table) == case["sha256"]
    assert no_count(inst) == case["no_count"]
    size = 1 << inst.arity
    points = (np.arange(size, dtype=np.uint64) if size <= POINTWISE
              else stream(2311, inst.arity).integers(0, size, POINTWISE, dtype=np.uint64))
    assert [ref.value(inst, p) for p in points.tolist()] == table.batch(points).tolist()


def test_one_sided_answers_match_golden():
    golden = GOLDEN["one_sided"]
    assert golden["points"] == one_sided_points()
    f = load_instance(golden["instance"]).function()
    assert "".join(str(f(p)) for p in golden["points"]) == golden["answers"]


@pytest.mark.parametrize("case", GOLDEN.get("unique_sat", []),
                         ids=lambda c: f"n{c['n']}-eps{c['eps']}-t{c['trials']}")
def test_unique_sat_probability_matches_golden(case):
    assert unique_sat(case) == case["result"]


@pytest.mark.parametrize("case", GOLDEN.get("bad_event", []),
                         ids=lambda c: f"{c['construction']}-n{c['n']}-eps{c['eps']}")
def test_bad_probability_matches_golden(case):
    assert bad_event(case) == case["result"]


def test_bad_event_golden_covers_every_sweep_and_a_bad_pair():
    assert [c["argv"] for c in GOLDEN["bad_event_sweeps"]] == BAD_EVENT_SWEEPS
    assert any(c["result"]["estimate"] > 0 for c in GOLDEN["bad_event"])


@pytest.mark.parametrize("case", GOLDEN.get("bad_event_sweeps", []),
                         ids=lambda c: "-".join(c["argv"][-3::2]))
def test_bad_event_sweep_matches_golden(case):
    assert sweep_rows(case["argv"]) == case["rows"]


if __name__ == "__main__":
    write_golden()
