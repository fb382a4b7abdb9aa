"""Traffic matrix generators and demand scaling."""

from .fortz_thorup_tm import (
    ABILENE_COORDINATES,
    abilene_traffic_matrix,
    euclidean_distances,
    fortz_thorup_traffic_matrix,
    hop_distances,
)
from .gravity import (
    bimodal_traffic_matrix,
    gravity_from_link_loads,
    gravity_traffic_matrix,
    node_capacity_weights,
    uniform_traffic_matrix,
)
from .netflow import (
    CAPTURE_HOURS,
    NetflowSample,
    cernet2_traffic_matrix,
    synthesize_netflow,
)
from .scaling import scale_to_network_load

__all__ = [
    "ABILENE_COORDINATES",
    "abilene_traffic_matrix",
    "euclidean_distances",
    "fortz_thorup_traffic_matrix",
    "hop_distances",
    "bimodal_traffic_matrix",
    "gravity_from_link_loads",
    "gravity_traffic_matrix",
    "node_capacity_weights",
    "uniform_traffic_matrix",
    "CAPTURE_HOURS",
    "NetflowSample",
    "cernet2_traffic_matrix",
    "synthesize_netflow",
    "scale_to_network_load",
]
