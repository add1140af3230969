"""Span tracing of the program's layer entry points, from outside.

The benchmark does not edit the program: :func:`install_layers` wraps
the public entry point of each layer (module functions, methods,
generator methods) with a timing shim and :meth:`Tracer.uninstall`
puts the originals back.  A span records its inclusive time and its
self time (inclusive minus the time of spans nested inside it), and
the outermost span of a thread is the *root* every nested span is
attributed to.  Counts (iterations, rounds, bytes, messages) are kept
apart from timings: they repeat exactly between runs of the same
inputs, timings do not.
"""

from __future__ import annotations

import json
import sys
import threading
from collections import defaultdict
from time import perf_counter

#: Wire fields holding a wall-clock reading.  Their digits differ from
#: run to run, so message byte counts leave them out and stay exact.
CLOCK_FIELDS = ("solve_time_s",)


class Tracer:
    """Aggregated spans and counts, safe to feed from several threads."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        #: span name -> [calls, inclusive s, self s]
        self.spans: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        #: (root span name, layer) -> self s
        self.by_root: dict[tuple, float] = defaultdict(float)
        #: count name -> exact total
        self.counts: dict[str, float] = defaultdict(float)
        #: inclusive s of root spans: the time any span covers
        self.root_s = 0.0
        self._patches: list[tuple] = []

    # -- recording --------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, name: str) -> list:
        stack = self._stack()
        root = stack[0][0] if stack else name
        frame = [name, root, 0.0, perf_counter()]
        stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        elapsed = perf_counter() - frame[3]
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1][2] += elapsed
        own = elapsed - frame[2]
        name, root = frame[0], frame[1]
        with self._lock:
            if not stack:
                self.root_s += elapsed
            cell = self.spans[name]
            cell[0] += 1
            cell[1] += elapsed
            cell[2] += own
            self.by_root[(root, layer_of(name))] += own

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counts[name] += value

    # -- wrapping ---------------------------------------------------------
    def wrap(self, name: str, fn, on_result=None):
        """``fn`` timed as span ``name``; ``on_result(result, args)``
        may add counts from the return value."""
        tracer = self

        def traced(*args, **kwargs):
            frame = tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit(frame)
            if on_result is not None:
                on_result(result, args)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_generator(self, name: str, fn, per_item: str):
        """A generator function whose every advance is a span ``name``
        and whose every yielded item adds one to count ``per_item``."""
        tracer = self

        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                frame = tracer.enter(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    tracer.exit(frame)
                tracer.count(per_item)
                yield item

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, replacement) -> None:
        """Set ``owner.attr``, remembering the original for uninstall."""
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def patch_function(self, module, attr: str, name: str,
                       on_result=None) -> None:
        """Wrap a module function everywhere it is bound by name.

        Modules that did ``from module import fn`` hold their own
        reference, so every loaded ``repro`` module binding the same
        object is patched too.
        """
        original = getattr(module, attr)
        traced = self.wrap(name, original, on_result)
        for mod in list(sys.modules.values()):
            if (getattr(mod, "__name__", "").startswith("repro")
                    and vars(mod).get(attr) is original):
                self.patch(mod, attr, traced)

    def patch_method(self, cls, attr: str, name: str,
                     on_result=None) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            self.patch(cls, attr,
                       classmethod(self.wrap(name, raw.__func__, on_result)))
        else:
            self.patch(cls, attr, self.wrap(name, raw, on_result))

    def uninstall(self) -> None:
        """Restore every patched attribute (newest first)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading ----------------------------------------------------------
    def snapshot(self) -> dict:
        """Plain-data copy of every total (JSON-ready)."""
        with self._lock:
            return {
                "spans": {k: list(v) for k, v in self.spans.items()},
                "by_root": [[r, layer, s]
                            for (r, layer), s in self.by_root.items()],
                "counts": dict(self.counts),
                "root_s": self.root_s,
            }


def layer_of(span_name: str) -> str:
    """``core.kernels.waterfill_rows`` -> ``core.kernels``."""
    head = span_name.split(":", 1)[0]
    return head.rsplit(".", 1)[0]


def delta(after: dict, before: dict) -> dict:
    """Totals accrued between two snapshots."""
    spans = {}
    for name, (calls, incl, own) in after["spans"].items():
        b = before["spans"].get(name, [0, 0.0, 0.0])
        if calls - b[0]:
            spans[name] = [calls - b[0], incl - b[1], own - b[2]]
    prior = {(r, layer): s for r, layer, s in before["by_root"]}
    by_root = [[r, layer, s - prior.get((r, layer), 0.0)]
               for r, layer, s in after["by_root"]]
    counts = {k: v - before["counts"].get(k, 0)
              for k, v in after["counts"].items()}
    return {"spans": spans, "by_root": by_root, "counts": counts,
            "root_s": after["root_s"] - before["root_s"]}


def merge(*snapshots: dict) -> dict:
    """Sum of snapshots from different processes."""
    spans: dict = defaultdict(lambda: [0, 0.0, 0.0])
    by_root: dict = defaultdict(float)
    counts: dict = defaultdict(float)
    for snap in snapshots:
        for name, cell in snap["spans"].items():
            for i in range(3):
                spans[name][i] += cell[i]
        for r, layer, s in snap["by_root"]:
            by_root[(r, layer)] += s
        for k, v in snap["counts"].items():
            counts[k] += v
    return {"spans": dict(spans),
            "by_root": [[r, layer, s] for (r, layer), s in by_root.items()],
            "counts": dict(counts),
            "root_s": sum(snap["root_s"] for snap in snapshots)}


def empty() -> dict:
    return {"spans": {}, "by_root": [], "counts": {}, "root_s": 0.0}


# -- the program's layers -------------------------------------------------
def install_layers(tracer: Tracer) -> None:
    """Wrap the entry point of every layer the workloads drive."""
    import repro.service  # noqa: F401 - loads the service modules to patch
    from repro.core import kernels, warmstart
    from repro.core.aggregate import ClassStructure
    from repro.core.incremental import IncrementalState
    from repro.core.lddm import LddmSolver
    from repro.edr.coordinator import ShardCoordinator
    from repro.edr.messages import WireModel
    from repro.edr.system import EDRSystem
    from repro.net import fairshare
    from repro.net.transport import Network
    from repro.service.plane import InProcessControlPlane

    # edr.messages: the wire codec, per model type; bytes on encode only
    # so a message crossing the wire counts once.
    to_json = WireModel.__dict__["to_json"]
    from_json = WireModel.__dict__["from_json"].__func__

    def encode(self):
        frame = tracer.enter("edr.messages.encode:" + type(self).__name__)
        try:
            text = to_json(self)
        finally:
            tracer.exit(frame)
        clock = sum(len(json.dumps(getattr(self, f))) for f in CLOCK_FIELDS
                    if hasattr(self, f))
        tracer.count("bytes:" + type(self).__name__,
                     len(text.encode()) - clock)
        tracer.count("messages:" + type(self).__name__)
        return text

    def decode(cls, text):
        frame = tracer.enter("edr.messages.decode:" + cls.__name__)
        try:
            return from_json(cls, text)
        finally:
            tracer.exit(frame)

    tracer.patch(WireModel, "to_json", encode)
    tracer.patch(WireModel, "from_json", classmethod(decode))

    # service.plane: one span per endpoint method.
    for method in ("solve", "events", "heartbeat", "membership",
                   "register"):
        tracer.patch_method(InProcessControlPlane, method,
                            "service.plane." + method)

    # core.lddm / core.kernels / core.warmstart
    tracer.patch_method(LddmSolver, "solve", "core.lddm.solve")
    tracer.patch(LddmSolver, "iterations", tracer.wrap_generator(
        "core.lddm.iterate", LddmSolver.__dict__["iterations"],
        per_item="core.lddm.iterations"))
    tracer.patch_function(kernels, "lddm_solve_columns",
                          "core.kernels.lddm_solve_columns")
    tracer.patch_function(kernels, "waterfill_rows",
                          "core.kernels.waterfill_rows")
    tracer.patch_function(warmstart, "recover_mu", "core.warmstart.recover_mu")

    # core.aggregate
    def classes(structure, _args):
        tracer.count("core.aggregate.structures")
        tracer.count("core.aggregate.classes", structure.n_classes)

    tracer.patch_method(ClassStructure, "from_mask",
                        "core.aggregate.from_mask", classes)
    tracer.patch_method(ClassStructure, "expand_rows",
                        "core.aggregate.expand_rows")

    # core.incremental
    def event_result(result, _args):
        tracer.count("core.incremental.sweeps", result.sweeps)
        if not result.ok:
            tracer.count("core.incremental.fallbacks")

    tracer.patch_method(IncrementalState, "apply_event",
                        "core.incremental.apply_event", event_result)

    # edr.coordinator
    tracer.patch_method(ShardCoordinator, "solve", "edr.coordinator.solve",
                        lambda res, _a: tracer.count(
                            "edr.coordinator.rounds", res.rounds))

    # edr.system / sim.engine: the run, plus its exact tallies.
    def run_done(result, args):
        system = args[0]
        queue = system.sim._queue
        tracer.count("sim.engine.steps", queue._seq - len(queue))
        tracer.count("edr.system.batches", result.extras["batches"])
        tracer.count("edr.system.solve_iterations",
                     result.extras["solve_iterations"])

    tracer.patch_method(EDRSystem, "run", "edr.system.run", run_done)

    # net.transport / net.fairshare
    tracer.patch_method(Network, "deliver", "net.transport.deliver",
                        lambda _r, _a: tracer.count("net.transport.messages"))
    tracer.patch_function(fairshare, "fair_share_rates",
                          "net.fairshare.fair_share_rates")
