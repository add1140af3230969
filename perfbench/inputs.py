"""Seeded inputs of every workload.

Every generator takes the run's ``--seed`` plus an index and draws from
its own ``numpy`` stream, so the same seed always gives the same inputs
and no input depends on how many operations a run managed to time.
"""

from __future__ import annotations

import numpy as np

#: The service shape: clients, replicas, eligibility patterns.
N_CLIENTS = 2_000
N_REPLICAS = 8
N_PATTERNS = 6
PRICES = [1.0, 8.0, 1.0, 6.0, 1.0, 5.0, 2.0, 3.0]
CAPACITY = 4000.0
MAX_ITER = 5000

#: Mean client demand.  The clients sharing an eligibility pattern
#: always total ``n_clients * MEAN_DEMAND / N_PATTERNS``: every instance
#: of a size has the same class-space problem, so a solve's cost varies
#: with the machine, not with the draw, while the clients' own demands,
#: the class each falls in and their order are drawn afresh.
MEAN_DEMAND = 1.25

#: Streams, so that two generators never share draws.
_SOLVE, _CHURN, _TRACE, _SCALE = range(4)


def rng(seed: int, stream: int, index: int = 0) -> np.random.Generator:
    return np.random.default_rng([seed, stream, index])


def patterns() -> np.ndarray:
    """(6, 8) eligibility patterns; two coincide, so 5 classes."""
    rows = np.ones((N_PATTERNS, N_REPLICAS), dtype=bool)
    for i in range(1, N_PATTERNS):
        rows[i, (i * 2) % N_REPLICAS] = False
    return rows


def _instance(gen: np.random.Generator, n_clients: int):
    """Per-client demands and pattern index of one service instance."""
    pattern = gen.integers(0, N_PATTERNS, n_clients)
    demands = gen.uniform(0.5, 2.0, n_clients)
    totals = np.bincount(pattern, weights=demands, minlength=N_PATTERNS)
    demands *= n_clients * MEAN_DEMAND / N_PATTERNS / totals[pattern]
    return demands, pattern


def solve_request(seed: int, index: int, *, n_clients: int = N_CLIENTS):
    """A fresh ``/v1/solve`` request naming its clients (so it arms the
    event plane)."""
    from repro.edr.messages import SolveRequest

    demands, pattern = _instance(rng(seed, _SOLVE, index), n_clients)
    return SolveRequest(
        demands=demands.tolist(),
        prices=list(PRICES),
        capacities=[CAPACITY] * N_REPLICAS,
        mask=patterns()[pattern].tolist(),
        clients=[f"c{i}" for i in range(n_clients)],
        options={"max_iter": MAX_ITER})


class ChurnStream:
    """Event batches that keep the client population constant.

    Each batch pairs every arrival with a departure of a live client
    and adds demand changes, so the plane always holds as many clients
    as it was armed with.  Arrivals take one of the armed eligibility
    patterns (the class count stays fixed) and a fresh name; departures
    and demand changes pick live clients, tracking the batch's own
    earlier events.
    """

    PAIRS = 4
    CHANGES = 2
    BATCH = 2 * PAIRS + CHANGES

    def __init__(self, seed: int, clients: list[str], index: int = 0) -> None:
        self._gen = rng(seed, _CHURN, index)
        self._patterns = patterns().tolist()
        self.live = list(clients)
        self._arrived = 0

    def _pick(self) -> int:
        return int(self._gen.integers(0, len(self.live)))

    def next_batch(self) -> list:
        from repro.edr.messages import WireEvent

        gen = self._gen
        batch = []
        for _ in range(self.PAIRS):
            name = f"a{self._arrived}"
            self._arrived += 1
            batch.append(WireEvent(
                kind="arrival", client=name,
                demand=float(gen.uniform(0.5, 2.0)),
                eligibility=list(self._patterns[
                    int(gen.integers(0, N_PATTERNS))])))
            self.live.append(name)
            k = self._pick()
            self.live[k], self.live[-1] = self.live[-1], self.live[k]
            batch.append(WireEvent(kind="departure",
                                   client=self.live.pop()))
        for _ in range(self.CHANGES):
            batch.append(WireEvent(
                kind="demand_change", client=self.live[self._pick()],
                demand=float(gen.uniform(0.5, 2.0))))
        return batch


def traces(seed: int, count: int, n_requests: int = 1000) -> list:
    """``count`` seeded request traces of the traffic scenario."""
    from repro.experiments.fig6_fig7 import traffic_scenario
    from repro.experiments.scenarios import make_trace

    gen = rng(seed, _TRACE)
    return [make_trace(traffic_scenario(n_requests),
                       seed=int(gen.integers(0, 2**31)))
            for _ in range(count)]


def scale_problems(seed: int, count: int, n_clients: int = 200_000) -> list:
    """``count`` seeded fig9 scaling instances (6 replicas, 24 patterns)."""
    from repro.experiments.fig9 import scaling_problem

    gen = rng(seed, _SCALE)
    return [scaling_problem(n_clients, seed=int(gen.integers(0, 2**31)),
                            n_replicas=6, n_patterns=24)
            for _ in range(count)]
