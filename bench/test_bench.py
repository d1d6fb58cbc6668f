"""Tests of the benchmark's own accounting; run with

    python3 -m pytest bench/test_bench.py -q
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from run import ROOT, canonical, run_pass, run_workload, sha256, spawn, unit  # noqa: E402
from workloads import WORKLOADS, case_id  # noqa: E402

GOOD = ["char", "--method", "direct", "--k", "1", "--r", "2", "--b", "0",
        "--qmax", "8", "--zmax", "3"]
BAD = ["char", "--method", "fermionic-r2", "--k", "2", "--r", "2", "--b", "1",
       "--qmax", "20", "--zmax", "6"]
VERIFY = ["verify", "pair-functions", "--kmax", "1"]


def _reference(argv):
    rep = spawn(argv, case_id(argv), False)
    assert "failure" not in rep
    entry = {"sha256": sha256(rep["stdout"])}
    if argv[0] == "verify":
        reports = json.loads(rep["stdout"])["reports"]
        entry["reports"] = {r["case"]: sha256(canonical(r)) for r in reports}
    return entry


def test_corrupted_reference_is_a_failure_not_a_timing():
    reference = {case_id(GOOD): _reference(GOOD), case_id(BAD): {"sha256": "0" * 64}}
    one_pass = run_pass([GOOD, BAD], reference, traced=False)
    assert one_pass["attempted"] == 2
    assert len(one_pass["failures"]) == 1 and "replay:" in one_pass["failures"][0]
    assert [key for key, _ in one_pass["samples"]] == [case_id(GOOD)]

    result = run_workload([GOOD, BAD], reference, seed=0, passes=1, trace=False)
    assert not result["correct"]
    assert (result["attempted"], result["failed"]) == (2, 1)
    assert result["info"]["failed_frac"] == 0.5
    assert result["metrics"]["wall_s"] is None  # no pass ran clean
    good_time = result["metrics"]["case_p50_s"]
    assert result["metrics"]["case_tail_s"] == good_time


def test_corrupted_verify_report_fails_only_that_report():
    reference = {case_id(VERIFY): _reference(VERIFY)}
    reports = reference[case_id(VERIFY)]["reports"]
    victim = sorted(reports)[0]
    reports[victim] = "0" * 64
    one_pass = run_pass([VERIFY], reference, traced=False)
    assert one_pass["attempted"] == len(reports) > 1
    assert len(one_pass["failures"]) == 1 and victim in one_pass["failures"][0]
    sampled = {key.split("/", 1)[1] for key, _ in one_pass["samples"]}
    assert sampled == set(reports) - {victim}


def test_traced_counters_are_exact():
    traced = spawn(BAD, case_id(BAD), True)
    layers = traced["layers"]
    # One multiplicity vector per partition of n into parts of size <= 2.
    assert layers["fermionic.vectors_visited"] == sum(n // 2 + 1 for n in range(7))
    assert 0 < layers["fermionic.vectors_kept"] <= layers["fermionic.vectors_visited"]
    assert layers["configurations.configs"] == 0

    direct = spawn(GOOD, case_id(GOOD), True)
    terms = json.loads(direct["stdout"])["terms"]
    assert direct["layers"]["configurations.configs"] == sum(int(c) for _, _, c in terms)
    assert direct["layers"]["cli.cases"] == 1
    assert all(span[2] == case_id(GOOD) for span in direct["spans"])


def test_every_pooled_case_has_a_reference():
    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")) as fh:
        recorded = json.load(fh)["cases"]
    for name, pool in WORKLOADS.items():
        assert all(case_id(argv) in recorded for argv in pool), name


def test_runs_report_exactly_the_declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    reference = {case_id(GOOD): _reference(GOOD), case_id(BAD): _reference(BAD)}
    plain = run_workload([GOOD, BAD], reference, seed=1, passes=1, trace=False)
    assert plain["correct"]
    assert {(n, unit(n)) for n in plain["metrics"]} == {
        (m["name"], m["unit"]) for m in declared["end_to_end"]}
    assert all(v > 0 for v in plain["metrics"].values())
    traced = run_workload([GOOD, BAD], reference, seed=1, passes=2, trace=True)
    assert traced["correct"]
    assert {(n, unit(n)) for n in traced["metrics"]} == {
        (m["name"], m["unit"]) for m in declared["per_layer"]}
