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

from .graph import Network


def incidence_matrix(network: Network) -> np.ndarray:
    """The dense node-arc incidence matrix ``B`` of ``network``.

    Rows follow the network node order, columns follow the link index order.
    """
    matrix = np.zeros((network.num_nodes, network.num_links))
    for link in network.links:
        matrix[network.node_index(link.source), link.index] = 1.0
        matrix[network.node_index(link.target), link.index] = -1.0
    return matrix
