"""The two workloads, each a closed loop with one operation in flight.

A run has one of two modes.  Untraced, it measures the end-to-end
metrics: set-up several times (median), a warm-up on the workload's own
operations, then a busy-time window of timed operations.  Traced, it
times a fixed number of operations twice on the same inputs, first
untraced and then with :mod:`tracer` wrapping every layer, and reports
the per-layer ledger plus the tracing overhead.  Both modes check every
operation's output (:mod:`checks`).
"""

from __future__ import annotations

import contextlib
import statistics
import types
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import checks
import inputs
import ledger
import tracer as tracing
from harness import (ServerProcess, Window, highest_tail, median,
                     plain_server_argv, timed_child, traced_server_argv,
                     vm_hwm_mb)
from traced_server import LEDGER_PATH

#: Set-ups per untraced run; the median is reported.
SETUP_REPS = 3


@dataclass
class Outcome:
    """What one workload run measured."""

    attempted: int = 0
    failed: int = 0
    values: dict = field(default_factory=dict)
    ledger: dict = field(default_factory=tracing.empty)
    notes: list = field(default_factory=list)
    summary: list = field(default_factory=list)

    def check(self, problems: list[str]) -> None:
        """Count one operation; keep a few failure reasons."""
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append("; ".join(problems))


class Timed:
    """Latencies of a pass's timed operations and of the HTTP calls in
    them; with a tracer, also the load-generator-side spans of exactly
    those operations."""

    def __init__(self, tracer: tracing.Tracer | None = None) -> None:
        self.tracer = tracer
        self.latencies: list[float] = []
        self.calls: dict[str, list[float]] = {}
        self.spans = tracing.empty()

    @contextlib.contextmanager
    def op(self):
        before = self.tracer.snapshot() if self.tracer else None
        t0 = perf_counter()
        yield
        self.latencies.append(perf_counter() - t0)
        if self.tracer:
            self.spans = tracing.merge(
                self.spans, tracing.delta(self.tracer.snapshot(), before))

    def call(self, endpoint: str, fn, *args, **kwargs):
        """One HTTP round trip inside an operation."""
        t0 = perf_counter()
        result = fn(*args, **kwargs)
        self.calls.setdefault(endpoint, []).append(perf_counter() - t0)
        return result

    def count(self, name: str, value: float) -> None:
        if self.tracer:
            self.tracer.count(name, value)


# -- sessions: where operations run ---------------------------------------
class HttpSession:
    """A fresh server process, timed from spawn until armed."""

    def __init__(self, traced: bool, arm=None) -> None:
        from repro.service import connect

        t0 = perf_counter()
        self.server = ServerProcess(
            traced_server_argv() if traced else plain_server_argv())
        try:
            self.client = connect(self.server.url)
            if arm is not None:
                arm(self.client)
        except BaseException:
            self.server.kill()
            raise
        self.setup_s = perf_counter() - t0
        self.traced = traced

    def peak_rss_mb(self) -> float:
        return self.server.peak_rss_mb()

    def server_spans(self) -> dict | None:
        return self.server.get_json(LEDGER_PATH) if self.traced else None

    def __enter__(self) -> "HttpSession":
        return self

    def __exit__(self, *exc) -> bool:
        return self.server.__exit__(*exc)


class LocalSession:
    """This process; set-up is timed on a fresh interpreter importing
    what the workload imports."""

    PROBE = str(Path(__file__).with_name("setup_probe.py"))

    def __init__(self, workload: str) -> None:
        self.setup_s = timed_child([self.PROBE, workload])

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb()

    def server_spans(self) -> None:
        return None

    def __enter__(self) -> "LocalSession":
        return self

    def __exit__(self, *_exc) -> bool:
        return False


# -- the workloads --------------------------------------------------------
class Workload:
    """What a workload defines; ``end_to_end`` and ``traced`` run it.

    ``make(s, i)`` builds operation ``i``'s input outside its timing,
    ``op`` runs it and ``check`` judges its output.  Inputs are cycled
    in rounds of ``round_ops``; ``rss_ops`` timed operations precede the
    peak-memory reading and a traced run times ``trace_ops`` operations
    per pass.
    """

    round_ops = 1
    rss_ops: int
    trace_ops: int


class Service(Workload):
    """The control plane over HTTP: a cold ``/v1/solve`` of a fresh
    2000-client instance, then churn cycles on the event plane it armed
    (one events batch, 8 agent heartbeats, one membership read each)."""

    AGENTS = 8
    CYCLES = 20
    rss_ops = 3
    trace_ops = 2

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.references: dict = {}

    def _register(self, client) -> None:
        for k in range(self.AGENTS):
            client.register(f"agent-{k}")

    def session(self, traced: bool) -> HttpSession:
        return HttpSession(traced, arm=self._register)

    def warm(self, s: HttpSession) -> None:
        self.op(s, self.make(s, -1), Timed())

    def make(self, s, i: int):
        request = inputs.solve_request(self.seed, i + 1)
        stream = inputs.ChurnStream(self.seed, request.clients, i + 1)
        return request, [stream.next_batch() for _ in range(self.CYCLES)]

    def op(self, s: HttpSession, arg, timed: Timed):
        request, batches = arg
        client = s.client
        solved = timed.call("solve", client.solve, request)
        cycles = []
        for seq, batch in enumerate(batches):
            events = timed.call("events", client.events, batch)
            timed.count("service.plane.resolves", events.resolves)
            known = [timed.call("heartbeat", client.heartbeat,
                                f"agent-{k}", seq=seq).known
                     for k in range(self.AGENTS)]
            members = timed.call("membership", client.membership)
            cycles.append((events, known, members))
        return solved, cycles

    def check(self, s, i: int, arg, result) -> list[str]:
        """The solve and the last events answer against an in-process
        plane given the same request and batches; every batch applied,
        every agent known."""
        from repro.edr.messages import EventRequest
        from repro.service import InProcessControlPlane

        request, batches = arg
        solved, cycles = result
        if i not in self.references:
            with InProcessControlPlane() as local:
                reference = local.solve(request)
                for batch in batches:
                    replayed = local.events(EventRequest(events=batch))
            self.references[i] = reference, replayed
        reference, replayed = self.references[i]
        problems = checks.check_solve(request, solved, reference)
        for batch, (events, known, members) in zip(batches, cycles):
            problems += checks.check_events(batch, events,
                                            len(request.clients))
            if not all(known):
                problems.append("a registered agent is unknown")
            if len(members.replicas) != self.AGENTS:
                problems.append(f"{len(members.replicas)} replicas listed")
        return problems + checks.check_stream_parity(cycles[-1][0], replayed)


class Runtime(Workload):
    """In-process: ``EDRSystem.run`` replays of seeded 1000-request
    traffic traces, alternating with 4-shard solves of seeded
    200k-client fig9 instances."""

    N_TRACES = 2
    N_INSTANCES = 4
    round_ops = 2 * N_INSTANCES
    rss_ops = round_ops
    trace_ops = round_ops

    def __init__(self, seed: int) -> None:
        self.traces = inputs.traces(seed, self.N_TRACES)
        self.problems = inputs.scale_problems(seed, self.N_INSTANCES)
        self.first: dict = {}

    def session(self, traced: bool) -> LocalSession:
        return LocalSession("runtime")

    def _replay(self, k: int, recorder=None):
        from repro.edr.system import (EDRSystem, NetConfig, RuntimeConfig,
                                      SolverOptions)

        config = RuntimeConfig(
            solver=SolverOptions(incremental=True,
                                 incremental_max_clients=64),
            net=NetConfig(coalesce=True, flow_kernel="vector"),
            poll_interval=0.25, recorder=recorder)
        return EDRSystem(self.traces[k], config).run(app="traffic")

    def _solve(self, k: int):
        from repro.edr.coordinator import solve_sharded

        return solve_sharded(self.problems[k], n_shards=4, mode="serial")

    def warm(self, s: LocalSession) -> None:
        """First run of every input: the references of later runs."""
        if not self.first:
            for k in range(self.N_TRACES):
                self.first["trace", k] = self._replay(k)
            for k in range(self.N_INSTANCES):
                solution = self._solve(k)
                self.first["scale", k] = types.SimpleNamespace(
                    iterations=solution.iterations,
                    n_classes=solution.n_classes)

    def make(self, s, i: int) -> tuple:
        if i % 2 == 0:
            return "trace", i // 2 % self.N_TRACES
        return "scale", i // 2 % self.N_INSTANCES

    def op(self, s: LocalSession, arg: tuple, timed: Timed):
        kind, k = arg
        if kind == "scale":
            return self._solve(k)
        if not timed.tracer:
            return self._replay(k)
        from repro.obs import TraceRecorder

        recorder = TraceRecorder()
        result = self._replay(k, recorder)
        for name, counter in (("recomputes", "net.fair_recompute"),
                              ("settled", "net.flows_settled"),
                              ("coalesced", "net.flows_coalesced")):
            timed.count("net.flows." + name, recorder.counter_total(counter))
        return result

    def check(self, s, _i: int, arg: tuple, result) -> list[str]:
        kind, k = arg
        if kind == "trace":
            return checks.check_replay(result, self.first[arg])
        return checks.check_sharded(self.problems[k], result, self.first[arg])


WORKLOADS = {"service": Service, "runtime": Runtime}


# -- running a workload ---------------------------------------------------
def _measure(out: Outcome, wl: Workload, s, timed: Timed, window: Window,
             between=(), on_op=None) -> None:
    """Run operations until the window closes, checking each.
    ``between`` are run between equal slices of the window."""
    slices = len(between) + 1
    for k in range(slices):
        if k:
            between[k - 1]()
        while window.open((k + 1) / slices):
            i = window.ops
            arg = wl.make(s, i)
            with timed.op():
                result = wl.op(s, arg, timed)
            window.add(timed.latencies[-1])
            out.check(wl.check(s, i, arg, result))
            if on_op is not None:
                on_op(window.ops)


def end_to_end(name: str, seed: int, seconds: float) -> Outcome:
    """Untraced run: the end-to-end metrics."""
    wl = WORKLOADS[name](seed)
    out = Outcome()
    timed = Timed()
    window = Window(seconds, wl.rss_ops, wl.round_ops)
    rss: list[float] = []
    with wl.session(False) as s:
        setups = [s.setup_s]

        def extra_setup() -> None:
            with wl.session(False) as other:
                setups.append(other.setup_s)

        def on_op(ops: int) -> None:
            if ops == wl.rss_ops:
                rss.append(s.peak_rss_mb())

        wl.warm(s)
        # The other set-ups sit between slices of the window, so that the
        # timed operations span most of the run and more of the box's
        # speed phases.
        _measure(out, wl, s, timed, window,
                 between=[extra_setup] * (SETUP_REPS - 1), on_op=on_op)
    out.values = {
        "setup_s": median(setups),
        "mean_ms": 1000.0 * statistics.fmean(timed.latencies),
        "peak_rss_mb": rss[0],
    }
    out.summary = _summary(timed, setups)
    return out


def traced(name: str, seed: int) -> Outcome:
    """Traced run: the per-layer ledger of a fixed number of operations."""
    wl = WORKLOADS[name](seed)
    out = Outcome()
    plain = Timed()
    with wl.session(False) as s:
        wl.warm(s)
        _measure(out, wl, s, plain, Window(0, wl.trace_ops))
    tracer = tracing.Tracer()
    run = Timed(tracer)
    with wl.session(True) as s:
        tracing.install_layers(tracer)
        try:
            wl.warm(s)
            before = s.server_spans()
            _measure(out, wl, s, run, Window(0, wl.trace_ops))
            after = s.server_spans()
        finally:
            tracer.uninstall()
    server = tracing.delta(after, before) if before is not None \
        else tracing.empty()
    out.ledger = tracing.merge(run.spans, server)
    rtt = {endpoint: (len(v), sum(v)) for endpoint, v in run.calls.items()}
    out.values = ledger.per_layer(
        out.ledger, ops=len(run.latencies), traced_s=sum(run.latencies),
        untraced_mean_ms=1000.0 * statistics.fmean(plain.latencies),
        traced_mean_ms=1000.0 * statistics.fmean(run.latencies), rtt=rtt)
    out.summary = _summary(run, [])
    return out


def _summary(timed: Timed, setups) -> list[str]:
    """Human-readable lines: sample counts and the tails that qualify."""
    lines = []
    if setups:
        lines.append("setup samples (s): "
                     + ", ".join(f"{x:.3f}" for x in setups))
    groups = {"operation": timed.latencies, **timed.calls}
    for label, values in groups.items():
        tail = highest_tail(values)
        tail_text = f", p{tail[0]:g} {1000 * tail[1]:.3f} ms" if tail else ""
        lines.append(f"{label}: n={len(values)}, "
                     f"p50 {1000 * median(values):.3f} ms{tail_text}")
    return lines
