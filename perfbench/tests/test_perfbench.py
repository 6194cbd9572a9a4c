"""Tests of the benchmark itself.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
from workloads import (  # noqa: E402
    EIGENSOLVE_DIM,
    EIGENSOLVE_EIGENVALUES,
    WORKLOADS,
    Op,
    Workload,
    dof_check,
    spectrum_check,
)

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _spectrum_report(values, residuals=(1e-14, 1e-14, 1e-14), dimension=EIGENSOLVE_DIM):
    return {"dimension": dimension, "eigenvalues": list(values), "residuals": list(residuals)}


def test_bad_config_op_counts_as_failed_and_is_not_dropped(tmp_path):
    bad = Op(("dof", "--dim", "2", "--N", "0", "--bc", "periodic"), dof_check(0))
    good = Op(("dof", "--dim", "2", "--N", "2", "--bc", "periodic"), dof_check(5))
    ops = [
        run.run_op(op, seed=0, trace=False, op_id=f"bad_config/plain/op{k}", workdir=tmp_path)
        for k, op in enumerate((bad, good))
    ]
    assert ops[0]["rc"] == 2 and not ops[0]["ok"]
    assert ops[1]["ok"], ops[1]["problems"]
    # the pass holding the failure never enters the timing medians
    metrics = run.end_to_end([ops])
    assert metrics["wall_s"]["n"] == 0 and metrics["peak_rss_mb"]["n"] == 0
    assert metrics["setup_s"]["n"] == 1


def test_failed_ops_count_in_fail_frac(monkeypatch):
    outcomes = iter([{"ok": True}, {"ok": False, "rc": 2, "problems": ["exit 2"]}, {"ok": True}])

    def fake_run_op(op, seed, trace, op_id, dominant=()):
        return {"op": op_id, "argv": list(op.argv), "rc": 0, "problems": [], "wall_s": 1.0, "setup_s": 0.3,
                "rss_mb": 50.0, "blas_threads": {"numpy": 1}, **next(outcomes)}

    monkeypatch.setattr(run, "run_op", fake_run_op)
    workload = Workload("w", "three single-op passes", (Op(("dof",), lambda report: []),), ())
    record = run.measure(workload, seed=0, seconds=0, trace=False)
    assert (record["attempted"], record["failed"]) == (3, 1)
    assert record["fail_frac"] == pytest.approx(1 / 3)
    assert record["correct"] is False
    assert record["end_to_end"]["wall_s"]["n"] == 2


def test_wrong_eigenvalue_fails_the_gate():
    check = spectrum_check(EIGENSOLVE_DIM, EIGENSOLVE_EIGENVALUES)
    assert check(_spectrum_report(EIGENSOLVE_EIGENVALUES)) == []
    wrong = list(EIGENSOLVE_EIGENVALUES)
    wrong[1] += 1e-7
    assert any("eigenvalue 1" in p for p in check(_spectrum_report(wrong)))
    assert check(_spectrum_report(EIGENSOLVE_EIGENVALUES, residuals=(1e-14, 1e-6, 1e-14)))
    assert check(_spectrum_report(EIGENSOLVE_EIGENVALUES, dimension=EIGENSOLVE_DIM - 1))
    assert check(_spectrum_report([float("nan")] * 3))
    assert check(_spectrum_report(EIGENSOLVE_EIGENVALUES[:2]))


def test_self_time_subtracts_union_of_overlapping_thread_children():
    # parent [0, 10] on the main thread; two pool-thread children overlap on
    # [2, 4]; a grandchild sits inside the first child.
    spans_ = [
        (1, "spectrum.compare_formulations", 0.0, 10.0, None, 1),
        (2, "spectrum._cell_spectrum", 1.0, 4.0, 1, 2),
        (3, "spectrum._cell_spectrum", 2.0, 6.0, 1, 3),
        (4, "hilbert.assemble", 1.5, 3.0, 2, 2),
        (5, "spectrum._cell_spectrum", 8.0, 9.0, 1, 2),
    ]
    selfs = spans.self_times(spans_)
    assert selfs[1] == pytest.approx(10.0 - (5.0 + 1.0))
    assert selfs[2] == pytest.approx(3.0 - 1.5)
    assert selfs[3] == pytest.approx(4.0)
    summary = spans.op_summary(spans_, [])
    assert summary["by_name"]["spectrum._cell_spectrum"] == [3, pytest.approx(8.0), pytest.approx(6.5)]
    assert spans.union_length([(1.0, 4.0), (2.0, 6.0), (8.0, 9.0)], 0.0, 10.0) == pytest.approx(6.0)


def test_outer_time_counts_nested_same_name_spans_once():
    spans_ = [
        (1, "cli.main", 0.0, 10.0, None, 1),
        (2, "rational.rank", 1.0, 5.0, 1, 1),
        (3, "rational.rank", 2.0, 3.0, 2, 1),
        (4, "rational.nullspace", 6.0, 8.0, 1, 1),
    ]
    assert spans.outer_time(spans_, ["rational.rank"]) == pytest.approx(4.0)
    summary = spans.op_summary(spans_, [])
    assert summary["by_name"]["rational.rank"][:2] == [2, pytest.approx(4.0)]
    assert summary["covered"] == pytest.approx(6.0) and summary["wall"] == pytest.approx(10.0)


def test_tracer_attributes_pool_thread_spans_to_compare(tmp_path):
    op = Op(
        ("compare", "--dim", "2", "--N", "1", "--bc", "open", "--matter", "none", "--ratio", "4",
         "--schedule", "1,2", "--k", "2"),
        lambda report: [] if report["passed"] else ["not passed"],
    )
    result = run.run_op(op, seed=0, trace=True, op_id="tracer-test/traced/op0",
                        dominant=("hamiltonian.h_original",), workdir=tmp_path)
    assert result["ok"], result["problems"]
    agg = spans.merge_summaries([result["trace"]])
    metrics = {name: get(agg) for name, _, get in spans.PER_LAYER if get is not None}
    assert metrics["spectrum.compare_formulations.concurrency"] > 0
    assert 0.9 < metrics["trace.coverage"] <= 1.0
    assert metrics["spectrum.lowest_eigenvalues.dense_calls"] == 4
    lines = (run.OUT / "spans" / "tracer-test-traced-op0.jsonl").read_text().splitlines()
    rows = [json.loads(line) for line in lines]
    by_id = {row["id"]: row for row in rows}
    cells = [row for row in rows if row["name"] == spans.CELL]
    assert len(cells) == 4
    assert all(by_id[row["parent"]]["name"] == "spectrum.compare_formulations" for row in cells)


def test_benchmark_json_names_and_units_match_the_code():
    bench = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    names = [m["name"] for section in ("workloads", "end_to_end", "per_layer") for m in bench[section]]
    assert all(NAME.fullmatch(name) and len(name) <= 64 for name in names)
    assert len(names) == len(set(names))
    assert {w["name"]: w["why"] for w in bench["workloads"]} == {w.name: w.why for w in WORKLOADS.values()}
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == [(n, u) for n, u, _ in spans.PER_LAYER]
