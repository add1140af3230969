"""The control-plane server with the benchmark's layer tracing installed.

Run as ``python perfbench/traced_server.py --port 0`` (same arguments as
``python -m repro.service``).  Besides the service's own endpoints it
answers ``GET /perfbench/ledger`` with the tracer's running totals, so
the load generator can read the server-side layer times of exactly the
operations it timed (by differencing two readings).  Every server-side
span (request decode, plane call, response encode) closes before the
response is written, so a reading taken after a response arrived holds
all of that request's spans.
"""

from __future__ import annotations

import json
import sys

from tracer import Tracer, install_layers

LEDGER_PATH = "/perfbench/ledger"


def main(argv: list[str]) -> int:
    from repro.service import __main__ as service_main
    from repro.service.server import _Handler

    tracer = Tracer()
    install_layers(tracer)
    dispatch = _Handler._dispatch

    def traced_dispatch(self, method: str) -> None:
        if self.path == LEDGER_PATH:
            self._send_text(200, json.dumps(tracer.snapshot()),
                            "application/json")
        else:
            dispatch(self, method)

    _Handler._dispatch = traced_dispatch
    return service_main.main(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
