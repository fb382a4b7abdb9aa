"""Flow-level network simulator (the SSFnet substitute for Fig. 11).

The paper runs SPEF and PEFT inside SSFnet for 400 seconds and reports the
mean traffic load carried by every link.  This module reproduces that
experiment with a flow-level model:

* every source-destination demand ``d_r`` is offered as a Poisson process of
  flows with exponentially distributed sizes, calibrated so the long-run
  offered rate equals ``d_r``;
* when a flow arrives, its path is drawn hop-by-hop from the protocol's
  per-destination split ratios (this mirrors how routers hash flows onto
  next hops -- packets of one flow stay on one path);
* while active, the flow contributes its rate to every link on its path;
  links integrate carried load over time, and the simulation reports the
  time-averaged load per link.

The expectation of the measured mean load per link equals the fluid-level
flow assignment of the protocol, so the simulator validates the protocols'
forwarding tables end-to-end while adding the stochastic variability a packet
simulator would show.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..network.demands import TrafficMatrix
from ..network.flows import FlowAssignment
from ..network.graph import Edge, Network, Node
from ..protocols.base import RoutingProtocol
from .events import Simulator

SplitRatios = dict[Node, dict[Node, dict[Node, float]]]


@dataclass
class SimulatedFlow:
    """One flow in flight."""

    source: Node
    destination: Node
    rate: float
    path: tuple[Node, ...]
    start_time: float
    end_time: float


@dataclass
class SimulationResult:
    """Aggregated outcome of one simulation run."""

    network: Network
    duration: float
    #: Time-averaged carried load per link (same units as demands).
    mean_link_load: dict[Edge, float]
    #: Maximum instantaneous load observed per link.
    peak_link_load: dict[Edge, float]
    flows_started: int
    flows_completed: int
    #: Flows that found no forwarding entry at some hop (should be zero for a
    #: correct protocol configuration).
    dropped_flows: int = 0

    def mean_load_vector(self) -> np.ndarray:
        """Mean loads as a link-indexed vector."""
        vector = np.zeros(self.network.num_links)
        for edge, value in self.mean_link_load.items():
            vector[self.network.link_index(*edge)] = value
        return vector

    def mean_utilization(self) -> dict[Edge, float]:
        return {
            edge: load / self.network.capacity_of(*edge)
            for edge, load in self.mean_link_load.items()
        }

    def used_links(self, threshold: float = 1e-6) -> list[Edge]:
        """Links whose mean load exceeds ``threshold`` (Fig. 11 counts these)."""
        return [edge for edge, load in self.mean_link_load.items() if load > threshold]

    def load_variation(self) -> float:
        """Standard deviation of mean load across used links (Fig. 11 discussion)."""
        used = [load for load in self.mean_link_load.values() if load > 1e-6]
        if not used:
            return 0.0
        return float(np.std(np.asarray(used)))


def proportional_split_ratios(flows: FlowAssignment) -> SplitRatios:
    """Derive per-destination split ratios from a fluid flow assignment.

    For protocols that do not expose explicit forwarding tables (e.g. the LP
    based min-max MLU routing) the simulator splits traffic at each node
    proportionally to the per-destination flow the assignment places on its
    outgoing links.
    """
    network = flows.network
    ratios: SplitRatios = {}
    for destination, vector in zip(flows.destinations, flows.loads, strict=True):
        per_node: dict[Node, dict[Node, float]] = {}
        for node in network.nodes:
            if node == destination:
                continue
            shares = {}
            for link in network.out_links(node):
                value = float(vector[link.index])
                if value > 1e-12:
                    shares[link.target] = value
            total = sum(shares.values())
            if total > 0:
                per_node[node] = {hop: share / total for hop, share in shares.items()}
        ratios[destination] = per_node
    return ratios


class FlowLevelSimulation:
    """Simulate a protocol's forwarding state under stochastic flow arrivals.

    Parameters
    ----------
    network, demands:
        The instance to simulate.
    split_ratios:
        ``destination -> node -> next hop -> ratio`` forwarding state.
    mean_flow_size:
        Average flow volume (same unit as demand x time).  Smaller flows mean
        more flows in flight and smoother link loads.
    flow_rate_fraction:
        Each flow transmits at ``flow_rate_fraction * demand`` of its pair, so
        roughly ``1 / flow_rate_fraction`` flows of a pair are active at once.
    seed:
        RNG seed for arrivals, sizes and path choices.
    """

    def __init__(
        self,
        network: Network,
        demands: TrafficMatrix,
        split_ratios: SplitRatios,
        mean_flow_size: float = 1.0,
        flow_rate_fraction: float = 0.1,
        seed: int = 0,
    ) -> None:
        if mean_flow_size <= 0:
            raise ValueError("mean_flow_size must be positive")
        if not 0 < flow_rate_fraction <= 1:
            raise ValueError("flow_rate_fraction must be in (0, 1]")
        demands.validate(network)
        self.network = network
        self.demands = demands
        self.split_ratios = split_ratios
        self.mean_flow_size = mean_flow_size
        self.flow_rate_fraction = flow_rate_fraction
        self.seed = seed

    # ------------------------------------------------------------------
    def _draw_path(
        self, rng: np.random.Generator, source: Node, destination: Node
    ) -> tuple[Node, ...] | None:
        """Sample a loop-free path hop-by-hop from the split ratios."""
        ratios = self.split_ratios.get(destination, {})
        path = [source]
        current = source
        visited = {source}
        for _ in range(self.network.num_nodes + 1):
            if current == destination:
                return tuple(path)
            hops = ratios.get(current)
            if not hops:
                return None
            choices = [hop for hop in hops if hop not in visited or hop == destination]
            if not choices:
                choices = list(hops)
            weights = np.array([hops[hop] for hop in choices], dtype=float)
            total = weights.sum()
            if total <= 0:
                return None
            hop = choices[int(rng.choice(len(choices), p=weights / total))]
            path.append(hop)
            visited.add(hop)
            current = hop
        return None

    # ------------------------------------------------------------------
    def run(self, duration: float = 400.0, warmup: float = 0.0) -> SimulationResult:
        """Run the simulation for ``duration`` time units.

        ``warmup`` time at the start is simulated but excluded from the
        load averages.
        """
        if duration <= 0:
            raise ValueError("duration must be positive")
        if warmup < 0 or warmup >= duration:
            raise ValueError("warmup must be in [0, duration)")
        rng = np.random.default_rng(self.seed)
        sim = Simulator()
        num_links = self.network.num_links
        current_load = np.zeros(num_links)
        accumulated = np.zeros(num_links)
        peak = np.zeros(num_links)
        last_update = [warmup]
        stats = {"started": 0, "completed": 0, "dropped": 0}

        def integrate(now: float) -> None:
            start = max(last_update[0], warmup)
            if now > start:
                accumulated[:] += current_load * (now - start)
            last_update[0] = now

        def end_flow(link_indices: list[int], rate: float):
            def handler(s: Simulator) -> None:
                integrate(s.now)
                for index in link_indices:
                    current_load[index] -= rate
                stats["completed"] += 1

            return handler

        def make_arrival(source: Node, destination: Node, demand_rate: float, interarrival: float):
            def handler(s: Simulator) -> None:
                integrate(s.now)
                path = self._draw_path(rng, source, destination)
                rate = demand_rate * self.flow_rate_fraction
                size = rng.exponential(self.mean_flow_size)
                if path is None:
                    stats["dropped"] += 1
                else:
                    stats["started"] += 1
                    link_indices = [
                        self.network.link_index(u, v) for u, v in zip(path[:-1], path[1:], strict=True)
                    ]
                    for index in link_indices:
                        current_load[index] += rate
                        peak[index] = max(peak[index], current_load[index])
                    holding = size / rate if rate > 0 else 0.0
                    if s.now + holding <= duration:
                        s.schedule(s.now + holding, end_flow(link_indices, rate))
                    else:
                        # Flow outlives the run; it stays active until the end.
                        pass
                next_arrival = s.now + rng.exponential(interarrival)
                if next_arrival < duration:
                    s.schedule(next_arrival, handler)

            return handler

        for (source, destination), volume in self.demands.items():
            if volume <= 0:
                continue
            # Offered load = arrival rate * mean size  =>  lambda = d / S.
            arrival_rate = volume / self.mean_flow_size
            interarrival = 1.0 / arrival_rate
            first = rng.exponential(interarrival)
            if first < duration:
                sim.schedule(first, make_arrival(source, destination, volume, interarrival))

        sim.run(until=duration)
        integrate(duration)
        window = duration - warmup
        mean_load = accumulated / window
        return SimulationResult(
            network=self.network,
            duration=window,
            mean_link_load={
                link.endpoints: float(mean_load[link.index]) for link in self.network.links
            },
            peak_link_load={
                link.endpoints: float(peak[link.index]) for link in self.network.links
            },
            flows_started=stats["started"],
            flows_completed=stats["completed"],
            dropped_flows=stats["dropped"],
        )


def simulate_protocol(
    network: Network,
    demands: TrafficMatrix,
    protocol: RoutingProtocol,
    duration: float = 400.0,
    mean_flow_size: float = 1.0,
    flow_rate_fraction: float = 0.1,
    seed: int = 0,
    warmup: float = 0.0,
) -> SimulationResult:
    """Run the flow-level simulator against a protocol's forwarding state.

    Protocols that expose :meth:`~repro.protocols.base.RoutingProtocol.split_ratios`
    are simulated from their actual forwarding tables; others fall back to
    proportional splitting derived from their fluid flow assignment.
    """
    ratios = protocol.split_ratios(network, demands)
    if ratios is None:
        ratios = proportional_split_ratios(protocol.route(network, demands))
    simulation = FlowLevelSimulation(
        network,
        demands,
        ratios,
        mean_flow_size=mean_flow_size,
        flow_rate_fraction=flow_rate_fraction,
        seed=seed,
    )
    return simulation.run(duration=duration, warmup=warmup)
