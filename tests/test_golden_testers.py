"""Tester reports, byte for byte, against a frozen corpus.

``golden_testers.json`` holds one report per case: all four testers on
truth tables, builtins and hard instances, at n in {2, 4, 6, 9} (plus
instance arities 11, 13 and 62 and builtins at n=63), several eps values,
accepting and rejecting runs, and round counts from 1 to 20,011.  Each
case stores the report's JSON text (or the error a run raises), so any
change in how a tester consumes its Philox stream shows up here.

Regenerate only on a deliberate change of the stream contract:

    PYTHONPATH=src python tests/test_golden_testers.py
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from setfam.boolfn import ResourceCapError, TruthTable, const_function, dictator, majority
from setfam.hardness import load_instance
from setfam.rng import stream
from setfam.testers import (
    TesterConfig,
    int_pair_tester,
    int_tester,
    uc_tester,
    uc_triple_tester,
)

GOLDEN_PATH = Path(__file__).parent / "golden_testers.json"

TESTERS = {
    "uc": uc_tester,
    "int": int_tester,
    "uc-triple": uc_triple_tester,
    "int-pair": int_pair_tester,
}
ROUND_TESTERS = ("uc-triple", "int-pair")

BUILTINS = {
    "const0": lambda n: const_function(n, 0),
    "const1": lambda n: const_function(n, 1),
    "majority": majority,
    "dictator-1": lambda n: dictator(n, 1),
}


def build_oracle(spec: dict):
    if "table" in spec:
        return TruthTable(spec["n"], int(spec["table"], 16))
    if "builtin" in spec:
        return BUILTINS[spec["builtin"]](spec["n"])
    return load_instance(spec["instance"]).function()


def run_case(case: dict) -> str:
    cfg = TesterConfig(eps=case["eps"], seed=case["seed"],
                       max_iterations=case["max_iterations"])
    try:
        return TESTERS[case["tester"]](build_oracle(case["oracle"]), cfg).to_json()
    except ResourceCapError as exc:
        return f"error: {exc}"


# -- the corpus ------------------------------------------------------------------------


def _tables(n: int) -> dict[str, int]:
    """Random, near-union-closed and near-intersecting tables on n points."""
    rng = stream(2311, n)
    size = 1 << n
    dense = rng.integers(0, 2, size=size)
    sparse = (rng.random(size) < 0.15).astype(np.int64)
    half = n // 2
    # every point of weight >= n/2 except one above the middle: union-closed
    # but for the violations whose union is the missing point
    missing = (1 << min(n, half + 2)) - 1
    uc_near = [x for x in range(size) if x.bit_count() >= half and x != missing]
    # the star of coordinate 1 plus one point outside it
    extra = ((1 << half) - 1) << 1
    int_near = [x for x in range(size) if x & 1] + [extra]
    return {
        "random": TruthTable.from_array(n, dense).bits,
        "sparse": TruthTable.from_array(n, sparse).bits,
        "uc-near": TruthTable.from_ones(n, uc_near).bits,
        "int-near": TruthTable.from_ones(n, int_near).bits,
    }


def _round_budgets(n: int) -> list[int | None]:
    """Per (eps 0.2, 0.5, 0.9): the default ceil(100/tau) where it is small."""
    if n == 2:
        return [None, 60, 20_000]
    if n == 4:
        return [1, None, 20_000]
    return [1, 60, 20_000]


def corpus_cases() -> list[dict]:
    cases = []
    epss = (0.2, 0.5, 0.9)
    seeds = (0, 7, 2**64 - 1)

    def add(tester, oracle, eps, seed, max_iterations):
        cases.append({"tester": tester, "oracle": oracle, "eps": eps, "seed": seed,
                      "max_iterations": max_iterations})

    for n in (2, 4, 6, 9):
        oracles = [{"table": f"{bits:x}", "n": n, "name": name}
                   for name, bits in _tables(n).items()]
        oracles += [{"builtin": name, "n": n} for name in BUILTINS]
        for tester in TESTERS:
            for oracle in oracles:
                for k, seed in enumerate(seeds):
                    eps = epss[k]
                    if tester in ROUND_TESTERS:
                        budget = _round_budgets(n)[k]
                    else:
                        budget = None if n < 9 else 60
                    add(tester, oracle, eps, seed, budget)
        # rounds that cross several chunk boundaries on the slow-reject tables
        for tester in ROUND_TESTERS:
            for name in ("uc-near", "int-near"):
                oracle = next(o for o in oracles if o.get("name") == name)
                for seed in (1, 2, 3):
                    add(tester, oracle, 0.5, seed, 20_011)

    instances = [
        {"kind": "int-yes", "n": 9, "eps": 0.5, "seed": 1},
        {"kind": "int-no", "n": 9, "eps": 0.5, "seed": 2},
        {"kind": "uc-yes", "n": 13, "eps": 0.5, "seed": 3},
        {"kind": "uc-no", "n": 13, "eps": 0.5, "seed": 4},
    ]
    for inst in instances:
        oracle = {"instance": inst}
        for tester in TESTERS:
            for k, seed in enumerate((0, 5)):
                eps = (0.5, 0.25)[k]
                budget = 20_000 if tester in ROUND_TESTERS else 15
                add(tester, oracle, eps, seed, budget)
    one_sided = {"instance": {"kind": "int-one-sided-no", "n": 60, "eps": 0.5, "seed": 6}}
    for tester in ROUND_TESTERS:
        add(tester, one_sided, 0.5, 3, 20_000)
        add(tester, one_sided, 0.5, 3, None)  # round count above the cap
    add("int", one_sided, 0.5, 3, 5)  # downset above the enumeration cap
    for name in ("majority", "const1"):
        for tester in ROUND_TESTERS:
            add(tester, {"builtin": name, "n": 63}, 0.3, 11, 20_000)
    return cases


def write_golden() -> None:
    cases = corpus_cases()
    for case in cases:
        case["report"] = run_case(case)
    GOLDEN_PATH.write_text(json.dumps({"cases": cases}, indent=0, sort_keys=True) + "\n")


def _golden_cases() -> list[dict]:
    return json.loads(GOLDEN_PATH.read_text())["cases"]


def _case_id(case: dict) -> str:
    o = case["oracle"]
    src = o.get("name") or o.get("builtin") or o["instance"]["kind"]
    n = o.get("n") or o["instance"]["n"]
    return f"{case['tester']}-{src}-n{n}-eps{case['eps']}-s{case['seed']}-m{case['max_iterations']}"


def test_corpus_covers_the_contract():
    cases = _golden_cases()
    assert {c["tester"] for c in cases} == set(TESTERS)
    kinds = {next(k for k in ("table", "builtin", "instance") if k in c["oracle"])
             for c in cases}
    assert kinds == {"table", "builtin", "instance"}
    ns = {c["oracle"].get("n") for c in cases}
    assert {2, 4, 6, 9} <= ns
    reports = [json.loads(c["report"]) for c in cases if not c["report"].startswith("error")]
    rejects = [r for r in reports if r["verdict"] == "reject"]
    assert len(rejects) > 100
    assert any(r["iterations_run"] > 8192 for r in rejects)
    assert any(c["max_iterations"] == 20_000 and json.loads(c["report"])["verdict"] == "accept"
               for c in cases if not c["report"].startswith("error"))
    assert any(c["report"].startswith("error") for c in cases)


@pytest.mark.parametrize("tester", sorted(TESTERS))
def test_reports_match_golden_bytes(tester):
    mismatched = [_case_id(c) for c in _golden_cases()
                  if c["tester"] == tester and run_case(c) != c["report"]]
    assert not mismatched, mismatched


if __name__ == "__main__":
    write_golden()
