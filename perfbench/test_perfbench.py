"""Tests of the benchmark's own helpers.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import checks
import harness
import inputs
import ledger
import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent


# -- statistics -----------------------------------------------------------
def test_tail_percentile_needs_ten_samples_beyond():
    assert harness.tail_percentile(range(199), 95) is None
    assert harness.tail_percentile(range(200), 95) == 189.0
    assert harness.tail_percentile(range(19), 50) is None
    assert harness.tail_percentile(range(20), 50) == 9.0
    assert harness.tail_percentile([], 50) is None


def test_highest_tail_picks_the_highest_qualifying_percentile():
    assert harness.highest_tail(range(1000)) == (99.0, 989.0)
    assert harness.highest_tail(range(100)) == (90.0, 89.0)
    assert harness.highest_tail(range(30)) is None


def test_window_closes_on_time_and_minimum_operations():
    window = harness.Window(1.0, min_ops=3)
    window.add(2.0)
    assert window.open()            # too few operations
    window.add(0.0)
    window.add(0.0)
    assert not window.open()
    fixed = harness.Window(0, min_ops=2)
    fixed.add(0.0)
    assert fixed.open()
    fixed.add(0.0)
    assert not fixed.open()


def test_window_slices_end_on_whole_rounds():
    window = harness.Window(4.0, min_ops=1, round_ops=2)
    window.add(2.5)
    assert window.open(0.5)         # mid-round
    window.add(0.5)
    assert not window.open(0.5)     # 3.0 s >= half of 4.0 s
    assert window.open()
    window.add(1.0)
    assert window.open()            # 4.0 s, but mid-round
    window.add(1.0)
    assert not window.open()


# -- correctness checkers -------------------------------------------------
@pytest.fixture(scope="module")
def solved():
    from repro.service import InProcessControlPlane

    request = inputs.solve_request(7, 1, n_clients=60)
    with InProcessControlPlane() as plane:
        response = plane.solve(request)
    return request, response


def test_check_solve_accepts_the_in_process_answer(solved):
    request, response = solved
    assert checks.check_solve(request, response, response) == []


def test_check_solve_flags_a_shifted_row(solved):
    request, response = solved
    rows = [list(r) for r in response.allocation]
    rows[0] = rows[0][1:] + rows[0][:1]
    bad = dataclasses.replace(response, allocation=rows)
    assert checks.check_solve(request, bad, response)


def test_check_solve_flags_a_dropped_client(solved):
    request, response = solved
    bad = dataclasses.replace(response, allocation=response.allocation[:-1],
                              clients=response.clients[:-1])
    problems = checks.check_solve(request, bad, response)
    assert any("shape" in p for p in problems)
    assert any("clients" in p for p in problems)


def test_check_solve_flags_a_wrong_objective(solved):
    request, response = solved
    bad = dataclasses.replace(response,
                              objective=response.objective * (1 + 1e-6))
    assert checks.check_solve(request, bad, response) == [
        f"objective off the in-process solve by "
        f"{abs(bad.objective - response.objective) / abs(response.objective):.3g}"]


def test_check_allocation_flags_each_infeasibility():
    mask = np.array([[True, False], [True, True]])
    good = np.array([[1.0, 0.0], [0.5, 0.5]])
    assert checks.check_allocation(good, [1.0, 1.0], [2.0, 2.0], mask) == []
    assert checks.check_allocation(good, [1.0, 2.0], [2.0, 2.0], mask)
    assert checks.check_allocation(good, [1.0, 1.0], [1.0, 2.0], mask)
    leak = np.array([[0.5, 0.5], [0.5, 0.5]])
    assert checks.check_allocation(leak, [1.0, 1.0], [2.0, 2.0], mask)


def test_check_stream_parity_flags_a_shifted_row(solved):
    _, response = solved
    rows = [list(r) for r in response.allocation]
    rows[3] = rows[3][1:] + rows[3][:1]
    final = types.SimpleNamespace(clients=response.clients, allocation=rows,
                                  objective=response.objective)
    assert checks.check_stream_parity(final, response)
    short = types.SimpleNamespace(clients=response.clients[1:],
                                  allocation=rows[1:],
                                  objective=response.objective)
    assert checks.check_stream_parity(short, response)
    assert checks.check_stream_parity(response, response) == []


def test_check_events_flags_a_partial_batch():
    batch = [object()] * 10

    def response(applied, n_clients):
        return types.SimpleNamespace(applied=applied,
                                     clients=["c"] * n_clients)

    assert checks.check_events(batch, response(10, 5), 5) == []
    assert checks.check_events(batch, response(9, 5), 5)
    assert checks.check_events(batch, response(10, 4), 5)


def test_check_replay_requires_bit_equality():
    first = types.SimpleNamespace(cents_by_replica=np.array([1.0, 2.0]),
                                  mean_response=0.25)
    same = types.SimpleNamespace(cents_by_replica=np.array([1.0, 2.0]),
                                 mean_response=0.25)
    assert checks.check_replay(same, first) == []
    nudged = types.SimpleNamespace(
        cents_by_replica=np.array([1.0, np.nextafter(2.0, 3.0)]),
        mean_response=0.25)
    assert checks.check_replay(nudged, first)
    late = types.SimpleNamespace(cents_by_replica=np.array([1.0, 2.0]),
                                 mean_response=np.nextafter(0.25, 1.0))
    assert checks.check_replay(late, first)


def test_check_sharded_flags_rounds_and_infeasibility():
    from repro.edr.coordinator import solve_sharded

    (problem,) = inputs.scale_problems(3, 1, n_clients=3000)
    solution = solve_sharded(problem, n_shards=4, mode="serial")
    assert checks.check_sharded(problem, solution, solution) == []
    other = types.SimpleNamespace(iterations=solution.iterations + 1,
                                  n_classes=solution.n_classes)
    assert checks.check_sharded(problem, solution, other)
    dropped = dataclasses.replace(solution,
                                  allocation=solution.allocation[:-1])
    assert checks.check_sharded(problem, dropped, solution)


# -- inputs ---------------------------------------------------------------
def test_inputs_repeat_for_a_seed_and_differ_across_seeds():
    a = inputs.solve_request(3, 2, n_clients=50)
    assert a == inputs.solve_request(3, 2, n_clients=50)
    assert a != inputs.solve_request(4, 2, n_clients=50)
    assert a != inputs.solve_request(3, 3, n_clients=50)


def test_instances_share_their_class_totals():
    def class_totals(request):
        mask = np.asarray(request.mask)
        keys = [row.tobytes() for row in mask]
        totals: dict = {}
        for key, demand in zip(keys, request.demands):
            totals[key] = totals.get(key, 0.0) + demand
        return totals

    a = class_totals(inputs.solve_request(1, 1, n_clients=600))
    b = class_totals(inputs.solve_request(2, 5, n_clients=600))
    assert a.keys() == b.keys() and len(a) == 5
    for key in a:
        assert a[key] == pytest.approx(b[key], rel=1e-12)


def test_churn_stream_keeps_the_population_constant():
    clients = [f"c{i}" for i in range(50)]
    stream = inputs.ChurnStream(11, clients)
    live = set(clients)
    seen = set(clients)
    for _ in range(300):
        batch = stream.next_batch()
        assert len(batch) == inputs.ChurnStream.BATCH
        for event in batch:
            if event.kind == "arrival":
                assert event.client not in seen
                assert event.eligibility in inputs.patterns().tolist()
                live.add(event.client)
                seen.add(event.client)
            elif event.kind == "departure":
                live.remove(event.client)
            else:
                assert event.client in live
        assert len(live) == len(clients)
        assert set(stream.live) == live


# -- tracing and the ledger -----------------------------------------------
def test_tracer_self_time_excludes_nested_spans():
    tracer = tracing.Tracer()
    outer = tracer.enter("a.outer")
    inner = tracer.enter("b.inner")
    tracer.exit(inner)
    tracer.exit(outer)
    snap = tracer.snapshot()
    calls, incl, own = snap["spans"]["a.outer"]
    assert calls == 1
    assert own == pytest.approx(incl - snap["spans"]["b.inner"][1])
    assert snap["root_s"] == incl
    roots = {(r, layer) for r, layer, _ in snap["by_root"]}
    assert roots == {("a.outer", "a"), ("a.outer", "b")}


def test_install_and_uninstall_restore_the_program():
    from repro.core import kernels, shard
    from repro.edr.messages import WireModel

    originals = (kernels.waterfill_rows, shard.waterfill_rows,
                 WireModel.__dict__["from_json"])
    tracer = tracing.Tracer()
    tracing.install_layers(tracer)
    try:
        assert shard.waterfill_rows is kernels.waterfill_rows
        assert shard.waterfill_rows is not originals[0]
    finally:
        tracer.uninstall()
    assert (kernels.waterfill_rows, shard.waterfill_rows,
            WireModel.__dict__["from_json"]) == originals


def test_traced_solve_counts_repeat_exactly():
    from repro.service import InProcessControlPlane

    request = inputs.solve_request(5, 1, n_clients=40)
    counts = []
    for _ in range(2):
        tracer = tracing.Tracer()
        tracing.install_layers(tracer)
        try:
            with InProcessControlPlane() as plane:
                response = plane.solve(request)
            response.to_json()
        finally:
            tracer.uninstall()
        snap = tracer.snapshot()
        assert snap["counts"]["core.lddm.iterations"] == response.iterations
        counts.append(snap["counts"])
    assert counts[0] == counts[1]


def test_ledger_records_keep_counts_apart_from_timings():
    values = {"core.lddm.iterations": 7, "core.lddm.ms_per_iteration": 1.5}
    units = dict(ledger.PER_LAYER)
    out = ledger.records("service", values, units, "rev")
    assert out["counts"] == [{
        "workload": "service", "layer": "core.lddm", "metric": "iterations",
        "value": 7, "unit": "count", "git_rev": "rev"}]
    assert [r["metric"] for r in out["timings"]] == ["ms_per_iteration"]


def test_per_layer_reports_every_declared_metric():
    values = ledger.per_layer(tracing.empty(), ops=1, traced_s=0.5,
                              untraced_mean_ms=400.0, traced_mean_ms=500.0)
    assert set(values) == {name for name, _ in ledger.PER_LAYER}
    assert values["unattributed_ms"] == 500.0
    assert values["tracing_overhead_ms"] == 100.0


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(
        workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        ledger.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        ledger.PER_LAYER


def test_run_refuses_without_the_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "service",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
