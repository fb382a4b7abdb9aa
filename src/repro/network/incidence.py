"""Node-arc incidence matrix used by the LP formulations.

The paper writes the flow conservation constraints as ``B f^t = d^t`` where
``B`` is the ``N x J`` node-arc incidence matrix: the column of link
``(u, v)`` has ``+1`` in row ``u`` and ``-1`` in row ``v``.  With that sign
convention the right hand side ``d^t`` carries the demand *entering* the
network at each source, and the row of the destination itself is dropped
(or carries minus the total demand).
"""

from __future__ import annotations


import numpy as np

from .demands import TrafficMatrix
from .graph import Network, Node


def incidence_matrix(network: Network) -> np.ndarray:
    """The dense node-arc incidence matrix ``B`` of ``network``.

    Rows follow the network node order, columns follow the link index order.
    """
    matrix = np.zeros((network.num_nodes, network.num_links))
    for link in network.links:
        matrix[network.node_index(link.source), link.index] = 1.0
        matrix[network.node_index(link.target), link.index] = -1.0
    return matrix


def demand_vector(network: Network, demands: TrafficMatrix, destination: Node) -> np.ndarray:
    """Right-hand side ``d^t`` of ``B f^t = d^t`` for one destination.

    Entry ``s`` holds the demand entering the network at ``s`` and destined to
    ``destination``.  The destination row holds minus the total demand so that
    the full system ``B f^t = d^t`` is consistent.
    """
    vector = np.zeros(network.num_nodes)
    toward = demands.toward(destination)
    total = 0.0
    for source, volume in toward.items():
        vector[network.node_index(source)] = volume
        total += volume
    vector[network.node_index(destination)] = -total
    return vector


def reduced_system(
    network: Network,
    demands: TrafficMatrix,
    destination: Node,
    incidence: np.ndarray | None = None,
) -> dict[str, np.ndarray]:
    """Conservation system with the redundant destination row removed.

    Returns a dict with keys ``A_eq`` and ``b_eq`` directly usable by
    :func:`scipy.optimize.linprog`.  Removing one row makes the equality
    system full rank (for a connected network), which keeps the LP solver
    numerically happy.
    """
    if incidence is None:
        incidence = incidence_matrix(network)
    rhs = demand_vector(network, demands, destination)
    keep = [
        i for i, node in enumerate(network.nodes) if node != destination
    ]
    return {"A_eq": incidence[keep, :], "b_eq": rhs[keep]}
