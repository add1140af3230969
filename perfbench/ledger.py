"""Metric names, the per-layer ledger and its uniform records.

``END_TO_END`` and ``PER_LAYER`` mirror ``BENCHMARK.json``: every
workload reports every end-to-end metric from its untraced run and
every per-layer metric from its traced run (a layer the workload does
not drive reads zero).  Per-layer timings are milliseconds per timed
operation unless the name says otherwise, so a workload's layer times
and its ``unattributed_ms`` add up to the traced time of one operation;
counts are exact totals over the traced operations.
"""

from __future__ import annotations

from tracer import layer_of

END_TO_END = [
    ("setup_s", "s"),
    ("mean_ms", "ms"),
    ("peak_rss_mb", "MiB"),
]

PER_LAYER = [
    ("edr.messages.solve_request_bytes", "B"),
    ("edr.messages.solve_response_bytes", "B"),
    ("edr.messages.events_response_bytes", "B"),
    ("edr.messages.encode_ms", "ms"),
    ("edr.messages.decode_ms", "ms"),
    ("service.server.http_overhead_solve_ms", "ms"),
    ("service.server.http_overhead_events_ms", "ms"),
    ("service.server.http_overhead_heartbeat_ms", "ms"),
    ("service.server.http_overhead_membership_ms", "ms"),
    ("service.plane.solve_ms", "ms"),
    ("service.plane.events_ms", "ms"),
    ("service.plane.self_ms", "ms"),
    ("service.plane.resolves", "count"),
    ("core.lddm.iterations", "count"),
    ("core.lddm.ms_per_iteration", "ms"),
    ("core.kernels.lddm_solve_columns_calls", "count"),
    ("core.kernels.lddm_solve_columns_ms", "ms"),
    ("core.warmstart.recover_mu_ms", "ms"),
    ("core.aggregate.from_mask_ms", "ms"),
    ("core.aggregate.expand_rows_ms", "ms"),
    ("core.aggregate.n_classes", "count"),
    ("core.incremental.apply_event_us", "us"),
    ("core.incremental.sweeps_per_event", "count"),
    ("core.incremental.fallbacks", "count"),
    ("edr.coordinator.solve_ms", "ms"),
    ("edr.coordinator.rounds", "count"),
    ("core.kernels.waterfill_rows_ms", "ms"),
    ("edr.system.run_ms", "ms"),
    ("edr.system.batches", "count"),
    ("edr.system.solve_iterations", "count"),
    ("edr.system.solver_ms", "ms"),
    ("sim.engine.steps", "count"),
    ("net.transport.messages", "count"),
    ("net.transport.send_ms", "ms"),
    ("net.flows.recomputes", "count"),
    ("net.flows.settled", "count"),
    ("net.flows.coalesced", "count"),
    ("net.fairshare.fair_share_rates_ms", "ms"),
    ("unattributed_ms", "ms"),
    ("tracing_overhead_ms", "ms"),
]

#: Wire model types each endpoint exchanges (request, response).
ENDPOINT_TYPES = {
    "solve": ("SolveRequest", "SolveResponse"),
    "events": ("EventRequest", "EventResponse"),
    "heartbeat": ("HeartbeatRequest", "HeartbeatResponse"),
    "membership": ("MembershipResponse",),
}

#: Timing units; every other unit is an exact count.
TIME_UNITS = ("s", "ms", "us")


def _calls(ledger: dict, span: str) -> int:
    return ledger["spans"].get(span, [0, 0.0, 0.0])[0]


def _incl_s(ledger: dict, span: str) -> float:
    return ledger["spans"].get(span, [0, 0.0, 0.0])[1]


def _sum_s(ledger: dict, prefix: str, field: int = 1) -> float:
    return sum(cell[field] for name, cell in ledger["spans"].items()
               if name.startswith(prefix))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(ledger: dict, *, ops: int, traced_s: float,
              untraced_mean_ms: float, traced_mean_ms: float,
              rtt: dict | None = None) -> dict:
    """Per-layer metric values of one traced run.

    ``ledger`` is the merged tracer delta of the timed operations (load
    generator plus server), ``traced_s`` their summed latency and
    ``rtt`` the load generator's ``endpoint -> [calls, seconds]`` for
    HTTP workloads.
    """
    counts = ledger["counts"]
    count = counts.get

    def per_op_ms(seconds: float) -> float:
        return 1000.0 * seconds / ops

    def wire_bytes(model: str) -> float:
        return _ratio(count("bytes:" + model, 0), count("messages:" + model, 0))

    out = {
        "edr.messages.solve_request_bytes": wire_bytes("SolveRequest"),
        "edr.messages.solve_response_bytes": wire_bytes("SolveResponse"),
        "edr.messages.events_response_bytes": wire_bytes("EventResponse"),
        "edr.messages.encode_ms": per_op_ms(
            _sum_s(ledger, "edr.messages.encode:")),
        "edr.messages.decode_ms": per_op_ms(
            _sum_s(ledger, "edr.messages.decode:")),
    }
    for endpoint, models in ENDPOINT_TYPES.items():
        calls, seconds = (rtt or {}).get(endpoint, (0, 0.0))
        codec = sum(_incl_s(ledger, f"edr.messages.{way}:{model}")
                    for model in models for way in ("encode", "decode"))
        plane = _incl_s(ledger, "service.plane." + endpoint)
        out[f"service.server.http_overhead_{endpoint}_ms"] = _ratio(
            1000.0 * (seconds - plane - codec), calls)
    iterations = count("core.lddm.iterations", 0)
    apply_calls = _calls(ledger, "core.incremental.apply_event")
    in_runtime = sum(s for root, layer, s in ledger["by_root"]
                     if root == "edr.system.run" and layer.startswith("core."))
    out.update({
        "service.plane.solve_ms": per_op_ms(
            _incl_s(ledger, "service.plane.solve")),
        "service.plane.events_ms": per_op_ms(
            _incl_s(ledger, "service.plane.events")),
        "service.plane.self_ms": per_op_ms(
            _sum_s(ledger, "service.plane.", field=2)),
        "service.plane.resolves": count("service.plane.resolves", 0),
        "core.lddm.iterations": iterations,
        "core.lddm.ms_per_iteration": _ratio(
            1000.0 * _incl_s(ledger, "core.lddm.iterate"), iterations),
        "core.kernels.lddm_solve_columns_calls": _calls(
            ledger, "core.kernels.lddm_solve_columns"),
        "core.kernels.lddm_solve_columns_ms": per_op_ms(
            _incl_s(ledger, "core.kernels.lddm_solve_columns")),
        "core.warmstart.recover_mu_ms": per_op_ms(
            _incl_s(ledger, "core.warmstart.recover_mu")),
        "core.aggregate.from_mask_ms": per_op_ms(
            _incl_s(ledger, "core.aggregate.from_mask")),
        "core.aggregate.expand_rows_ms": per_op_ms(
            _incl_s(ledger, "core.aggregate.expand_rows")),
        "core.aggregate.n_classes": _ratio(
            count("core.aggregate.classes", 0),
            count("core.aggregate.structures", 0)),
        "core.incremental.apply_event_us": _ratio(
            1e6 * _incl_s(ledger, "core.incremental.apply_event"),
            apply_calls),
        "core.incremental.sweeps_per_event": _ratio(
            count("core.incremental.sweeps", 0), apply_calls),
        "core.incremental.fallbacks": count("core.incremental.fallbacks", 0),
        "edr.coordinator.solve_ms": per_op_ms(
            _incl_s(ledger, "edr.coordinator.solve")),
        "edr.coordinator.rounds": count("edr.coordinator.rounds", 0),
        "core.kernels.waterfill_rows_ms": per_op_ms(
            _incl_s(ledger, "core.kernels.waterfill_rows")),
        "edr.system.run_ms": per_op_ms(_incl_s(ledger, "edr.system.run")),
        "edr.system.batches": count("edr.system.batches", 0),
        "edr.system.solve_iterations": count("edr.system.solve_iterations",
                                             0),
        "edr.system.solver_ms": per_op_ms(in_runtime),
        "sim.engine.steps": count("sim.engine.steps", 0),
        "net.transport.messages": count("net.transport.messages", 0),
        "net.transport.send_ms": per_op_ms(
            _incl_s(ledger, "net.transport.deliver")),
        "net.flows.recomputes": count("net.flows.recomputes", 0),
        "net.flows.settled": count("net.flows.settled", 0),
        "net.flows.coalesced": count("net.flows.coalesced", 0),
        "net.fairshare.fair_share_rates_ms": per_op_ms(
            _incl_s(ledger, "net.fairshare.fair_share_rates")),
        "unattributed_ms": per_op_ms(traced_s - ledger["root_s"]),
        "tracing_overhead_ms": traced_mean_ms - untraced_mean_ms,
    })
    return out


def records(workload: str, values: dict, units: dict, rev: str) -> dict:
    """Uniform ledger records, exact counts apart from timings."""
    out = {"counts": [], "timings": []}
    for name, value in values.items():
        layer, _, metric = name.rpartition(".")
        unit = units[name]
        out["timings" if unit in TIME_UNITS else "counts"].append({
            "workload": workload, "layer": layer or "end_to_end",
            "metric": metric, "value": value, "unit": unit, "git_rev": rev})
    return out


def span_records(workload: str, ledger: dict, rev: str) -> dict:
    """Every traced span as ledger records: calls, inclusive and self ms."""
    out = {"counts": [], "timings": []}
    for name, (calls, incl, own) in sorted(ledger["spans"].items()):
        base = {"workload": workload, "layer": layer_of(name),
                "git_rev": rev}
        entry = name[len(layer_of(name)) + 1:]
        out["counts"].append({**base, "metric": entry + ".calls",
                              "value": calls, "unit": "count"})
        out["timings"].append({**base, "metric": entry + ".total_ms",
                               "value": 1000.0 * incl, "unit": "ms"})
        out["timings"].append({**base, "metric": entry + ".self_ms",
                               "value": 1000.0 * own, "unit": "ms"})
    return out
