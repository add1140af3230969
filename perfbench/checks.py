"""Correctness checks of every operation's output.

Each checker returns a list of problems; an empty list means the output
is correct.  A benchmark operation with any problem counts as failed.
"""

from __future__ import annotations

import numpy as np

#: Relative tolerance of answers that must agree with a reference path.
PARITY_RTOL = 1e-9

#: Relative slack of the feasibility checks (demand met, capacity kept).
FEASIBILITY_RTOL = 1e-6


def check_allocation(allocation, demands, capacities, mask) -> list[str]:
    """Demand met per client, capacity kept per replica, mask honoured."""
    P = np.asarray(allocation, dtype=float)
    R = np.asarray(demands, dtype=float)
    B = np.asarray(capacities, dtype=float)
    M = np.asarray(mask, dtype=bool)
    if P.shape != M.shape:
        return [f"allocation shape {P.shape} != instance shape {M.shape}"]
    if not np.all(np.isfinite(P)):
        return ["allocation has non-finite entries"]
    problems = []
    scale = FEASIBILITY_RTOL * max(1.0, float(R.max(initial=0.0)))
    if P.min(initial=0.0) < -scale:
        problems.append(f"negative share {P.min():.3g}")
    if np.any(P[~M] != 0.0):
        problems.append("load placed on an ineligible replica")
    unmet = float(np.max(np.abs(P.sum(axis=1) - R), initial=0.0))
    if unmet > scale:
        problems.append(f"demand missed by {unmet:.3g}")
    over = float(np.max(P.sum(axis=0) - B, initial=0.0))
    if over > FEASIBILITY_RTOL * max(1.0, float(B.max(initial=0.0))):
        problems.append(f"capacity exceeded by {over:.3g}")
    return problems


def _relative_gap(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(b))


def _allocation_gap(a, b) -> float:
    A = np.asarray(a, dtype=float)
    B = np.asarray(b, dtype=float)
    return float(np.max(np.abs(A - B), initial=0.0)) / max(
        1.0, float(np.max(np.abs(B), initial=0.0)))


def check_solve(request, response, reference) -> list[str]:
    """A ``/v1/solve`` answer against the instance and an in-process
    solve of the same request."""
    problems = []
    if not response.converged:
        problems.append("solve did not converge")
    if response.clients != request.clients:
        problems.append("clients differ from the request")
    problems += check_allocation(response.allocation, request.demands,
                                 request.capacities, request.mask)
    gap = _relative_gap(response.objective, reference.objective)
    if gap > PARITY_RTOL:
        problems.append(f"objective off the in-process solve by {gap:.3g}")
    if (np.shape(response.allocation) == np.shape(reference.allocation)
            and _allocation_gap(response.allocation,
                                reference.allocation) > PARITY_RTOL):
        problems.append("allocation differs from the in-process solve")
    return problems


def check_events(batch, response, n_clients: int) -> list[str]:
    """One ``/v1/events`` answer: every event applied, population kept."""
    problems = []
    if response.applied != len(batch):
        problems.append(f"applied {response.applied} of {len(batch)} events")
    if len(response.clients) != n_clients:
        problems.append(f"{len(response.clients)} clients, "
                        f"expected {n_clients}")
    return problems


def check_stream_parity(final, replayed) -> list[str]:
    """The last served event answer against an in-process replay."""
    problems = []
    if final.clients != replayed.clients:
        return ["client set differs from the in-process replay"]
    if _allocation_gap(final.allocation, replayed.allocation) > PARITY_RTOL:
        problems.append("allocation differs from the in-process replay")
    if _relative_gap(final.objective, replayed.objective) > PARITY_RTOL:
        problems.append("objective differs from the in-process replay")
    return problems


def check_replay(result, first) -> list[str]:
    """A runtime replay against the first replay of the same trace:
    the simulation is deterministic, so the two agree bit for bit."""
    problems = []
    if not np.array_equal(result.cents_by_replica, first.cents_by_replica):
        problems.append("cents_by_replica changed between replays")
    if result.mean_response != first.mean_response:
        problems.append("mean_response changed between replays")
    return problems


def check_sharded(problem, solution, first) -> list[str]:
    """A sharded solve: feasible, and as many rounds and classes as the
    first solve of the same instance."""
    data = problem.data
    problems = check_allocation(solution.allocation, data.R, data.B,
                                data.mask)
    if not solution.converged:
        problems.append("sharded solve did not converge")
    if solution.iterations != first.iterations:
        problems.append(f"{solution.iterations} rounds, first solve took "
                        f"{first.iterations}")
    if solution.n_classes != first.n_classes:
        problems.append(f"{solution.n_classes} classes, first solve had "
                        f"{first.n_classes}")
    return problems
