"""Broker experiment: budget-broker x placement sweep.

The hierarchical-control-plane study: replay *one* job arrival trace
against every (broker scheme x placement policy) cell — each node
running the same partitioning policy underneath — and compare
cluster-wide throughput, long-term fairness, and SLO attainment.
``static`` is the control cell: bit-identical to the fixed-capacity
fleet, it answers "what did moving budget units actually buy?" via
per-job paired deltas (:meth:`~repro.experiments.cluster.FleetSweep.job_deltas`
against the static cell with the same placement: the same trace
routes the same jobs, so each job is its own control).

Environment pairing matches :mod:`repro.experiments.cluster`: the
trace, node-keyed fault plans, and node-epoch seeds are shared
verbatim by every cell, so observed differences are attributable to
the broker (and placement), not to workload or fault luck.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.cluster.budget import BudgetLike
from repro.engine import ExecutionEngine
from repro.experiments.cluster import FleetSweep, node_fault_plans, run_fleet
from repro.experiments.runner import RunConfig
from repro.resources.types import ResourceCatalog
from repro.workloads.arrivals import ArrivalTrace

#: Broker schemes the default sweep compares (``static`` is the control).
DEFAULT_BROKERS: Tuple[str, ...] = ("static", "harvest", "trade", "bo")


def broker_sweep(
    trace: ArrivalTrace,
    n_nodes: int,
    brokers: Sequence[str] = DEFAULT_BROKERS,
    placements: Sequence[str] = ("round_robin",),
    policy: str = "SATORI",
    catalog: Optional[ResourceCatalog] = None,
    epoch_config: Optional[RunConfig] = None,
    seed: int = 0,
    fault_intensity: float = 0.0,
    node_budgets: Optional[Sequence[BudgetLike]] = None,
    engine: Optional[ExecutionEngine] = None,
) -> FleetSweep:
    """Run every (broker x placement) cell over one shared trace.

    Cells carry ``placement`` and ``broker`` coordinates, placements
    outermost.

    Args:
        trace: the arrival trace, shared verbatim by every cell.
        n_nodes: fleet size.
        brokers: broker-scheme registry ids to compare; include
            ``"static"`` for the paired control.
        placements: placement-policy registry ids to cross with.
        policy: the partitioning policy every node runs in every cell
            (one local policy — the sweep varies the *global* layer).
        catalog: per-node catalog (homogeneous fleet).
        epoch_config: node-epoch methodology; ``duration_s`` is the
            epoch length.
        seed: cluster base seed, shared by every cell.
        fault_intensity: intensity for
            :func:`~repro.experiments.cluster.node_fault_plans`
            (node-keyed, so every cell faces the same faulty fleet).
        node_budgets: optional per-node initial budgets (heterogeneous
            fleets); every cell starts from the same budgets.
        engine: shared execution engine across cells (run-cache reuse:
            the static cell's node-epochs are byte-identical to a
            fixed-capacity fleet's and dedupe against them).
    """
    epoch_config = epoch_config or RunConfig(duration_s=5.0)
    arms = []
    for placement in placements:
        for broker in brokers:
            coords = {"placement": placement, "broker": broker}
            arms.append((coords, coords))
    return run_fleet(
        arms,
        trace=trace,
        n_nodes=n_nodes,
        policy=policy,
        catalog=catalog,
        epoch_config=epoch_config,
        seed=seed,
        node_fault_plans=node_fault_plans(
            n_nodes, fault_intensity, epoch_config.duration_s
        ),
        node_budgets=node_budgets,
        engine=engine,
    )
