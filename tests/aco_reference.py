"""Straight-line ant colony pieces that pin the array forms in ``swarmkit.aco``.

Each function is the plain Python-list loop the library used before its
array rewrite: the per-ant tour construction over a ``remaining`` list, and
the ``+=`` folds of tour length and pheromone deposit. The library's forms
must reproduce these bit for bit, error messages included; the parity
tests in ``test_aco.py`` compare the two on random instances.
"""

from __future__ import annotations

import numpy as np

from swarmkit import ContractError, Tour


def construct_tour(graph, weights, config, stream, start):
    """One closed tour, sampled by inverse CDF over a list of unvisited nodes."""
    n = graph.n
    order = [start]
    remaining = list(range(n))
    remaining.remove(start)
    current = start
    while remaining:
        row = weights[current, remaining]
        total = row.sum()
        if not 0.0 < total < np.inf:
            raise ContractError(
                f"transition weights from node {current} sum to {total}: tau**alpha * "
                f"(1/d)**beta overflows or underflows (alpha={config.alpha}, beta={config.beta})"
            )
        u = stream.next_uniform()
        idx = int(np.searchsorted(np.cumsum(row / total), u, side="right"))
        if idx >= len(remaining):  # cumulative sum fell short of 1.0 by rounding
            idx = len(remaining) - 1
        current = remaining.pop(idx)
        order.append(current)
    return Tour(order=tuple(order), length=tour_length(graph, order))


def tour_length(graph, order):
    """Closed-tour length as a left fold of Python ``+=``, return edge last."""
    nodes = list(order)
    d = graph.distance
    total = 0.0
    for a, b in zip(nodes, nodes[1:]):
        total += d[a, b]
    total += d[nodes[-1], nodes[0]]
    return float(total)


def deposit(tau, tours, q):
    """``tau`` plus q/length on both directions of every edge, tour by tour."""
    tau = np.array(tau, dtype=float)
    for tour in tours:
        gain = q / tour.length
        nodes = tour.order
        for a, b in zip(nodes, nodes[1:] + nodes[:1]):
            tau[a, b] += gain
            tau[b, a] += gain
    return tau
