"""Fleet sweeps: paired cluster arms over one shared environment.

Every fleet-level experiment compares *arms* — cluster runs that
differ in placement, partitioning policy, broker, recovery protocol,
warm start or trace shape — over one shared environment: the arrival
trace, node-keyed fault plans and node-epoch seeds. :func:`run_fleet`
is the one driver: an arm is ``(coordinates, ClusterSimulator
overrides)``, every arm runs in the listed order on one shared
engine, and the resulting :class:`FleetSweep` looks cells up by
coordinate. :func:`cluster_sweep` (placement x partitioning policy)
is the plain arm grid; the broker, chaos, qos and warm-start
experiments are arm lists over the same driver.

Fault pairing: when ``fault_intensity > 0``, every *even-numbered*
node gets the same :func:`~repro.experiments.resilience.moderate_fault_plan`
(over the middle third of each node-epoch) while odd nodes stay clean.
Keying plans by node id — rather than by the jobs that happen to land
there — is what keeps the fault environment identical across placement
cells: a placement policy that routes jobs away from faulty nodes is
*supposed* to look better, and this design makes that effect visible
instead of confounded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.stats import PairedDelta, paired_deltas
from repro.cluster.budget import BudgetLike, pool_totals
from repro.cluster.simulator import ClusterResult, ClusterSimulator, MigrationConfig
from repro.engine import ExecutionEngine
from repro.errors import ClusterError, ExperimentError
from repro.experiments.resilience import moderate_fault_plan
from repro.experiments.runner import RunConfig, experiment_catalog
from repro.faults.plan import FaultPlan
from repro.resources.types import ResourceCatalog
from repro.workloads.arrivals import ArrivalTrace, poisson_trace

#: Placement policies the default sweep compares.
DEFAULT_PLACEMENTS: Tuple[str, ...] = ("round_robin", "contention_aware")

#: Partitioning policies the default sweep compares (registry ids).
DEFAULT_CLUSTER_POLICIES: Tuple[str, ...] = ("SATORI", "EqualPartition")

#: One sweep arm: ``(coordinates, ClusterSimulator keyword overrides)``.
Arm = Tuple[Mapping[str, Any], Mapping[str, Any]]


def node_fault_plans(
    n_nodes: int, intensity: float, epoch_duration_s: float
) -> Dict[int, FaultPlan]:
    """Paired per-node fault plans: even-numbered nodes are faulty.

    Returns an empty mapping at intensity 0. The mapping is a pure
    function of ``(n_nodes, intensity, epoch_duration_s)``, never of
    placements or traces, so every sweep cell faces the same faulty
    fleet.
    """
    plan = moderate_fault_plan(intensity, epoch_duration_s)
    if plan is None:
        return {}
    return {node_id: plan for node_id in range(0, n_nodes, 2)}


@dataclass(frozen=True)
class FleetCell:
    """One arm's run.

    Attributes:
        coords: the arm's coordinates (``{"placement": ..., ...}``).
        result: the full cluster result.
        trace: the arrival trace the arm replayed.
        pool_conserved: the nodes' budgets summed to the
            construction-time pool after the run.
    """

    coords: Mapping[str, Any]
    result: ClusterResult
    trace: ArrivalTrace
    pool_conserved: bool


@dataclass(frozen=True)
class FleetSweep:
    """Every arm of one sweep, in run order."""

    cells: Tuple[FleetCell, ...]

    def cell(self, **coords: Any) -> FleetCell:
        """The one cell at ``coords`` (a subset of its coordinates)."""
        matches = [
            cell
            for cell in self.cells
            if all(k in cell.coords and cell.coords[k] == v for k, v in coords.items())
        ]
        if len(matches) != 1:
            have = [dict(cell.coords) for cell in self.cells]
            raise ClusterError(
                f"{len(matches)} cells match {coords}, need one; have {have}"
                if matches
                else f"no cell {coords}; have {have}"
            )
        return matches[0]

    def axis(self, name: str) -> Tuple[Any, ...]:
        """Distinct values of coordinate ``name``, in run order."""
        return tuple(dict.fromkeys(cell.coords[name] for cell in self.cells))

    def job_deltas(
        self, axis: str, base: Any = None
    ) -> List[Tuple[FleetCell, FleetCell, PairedDelta]]:
        """Per-job mean-speedup deltas between cells differing only in ``axis``.

        Arms share the trace, so job ids are stable across cells and
        each job is its own control. Returns ``(control, treatment,
        treatment - control)`` triples: with ``base``, each cell pairs
        against its sibling at ``axis == base``; with ``base=None``,
        every sibling pair pairs in run order (the earlier cell is the
        control). Pairs with no job in common are skipped.
        """
        deltas = []
        for i, first in enumerate(self.cells):
            for second in self.cells[i + 1:]:
                if any(
                    first.coords[k] != second.coords[k]
                    for k in first.coords
                    if k != axis
                ):
                    continue
                control, treatment = first, second
                if base is not None and first.coords[axis] != base:
                    if second.coords[axis] != base:
                        continue
                    control, treatment = second, first
                try:
                    delta = paired_deltas(
                        control.result.job_mean_speedups(),
                        treatment.result.job_mean_speedups(),
                    )
                except ExperimentError:
                    continue  # no job in common (tiny traces)
                deltas.append((control, treatment, delta))
        return deltas


def run_fleet(arms: Sequence[Arm], **shared: Any) -> FleetSweep:
    """Run every arm's :class:`ClusterSimulator` over one shared engine.

    Each arm's simulator takes ``shared`` updated by the arm's
    overrides. Every simulator is built before any runs, so a bad arm
    fails before the sweep spends time; they then run in the listed
    order on one engine (``shared["engine"]`` or a fresh serial one),
    so an engine with a run cache runs each node-epoch that several
    arms produce identically once. Registry ids for placements and
    brokers give each arm a fresh (stateful) instance.
    """
    if not arms:
        raise ClusterError("a fleet sweep needs at least one arm")
    engine = shared.get("engine") or ExecutionEngine()
    runs = []
    for coords, overrides in arms:
        kwargs = {**shared, "engine": engine, **overrides}
        runs.append((coords, kwargs["trace"], ClusterSimulator(**kwargs)))
    cells = []
    for coords, trace, simulator in runs:
        cells.append(
            FleetCell(
                coords=dict(coords),
                result=simulator.run(),
                trace=trace,
                pool_conserved=(
                    pool_totals(node.budget for node in simulator.nodes)
                    == simulator.pool
                ),
            )
        )
    return FleetSweep(tuple(cells))


def cluster_sweep(
    trace: ArrivalTrace,
    n_nodes: int,
    placements: Sequence[str] = DEFAULT_PLACEMENTS,
    policies: Sequence[str] = DEFAULT_CLUSTER_POLICIES,
    catalog: Optional[ResourceCatalog] = None,
    epoch_config: Optional[RunConfig] = None,
    seed: int = 0,
    fault_intensity: float = 0.0,
    migration: Optional[MigrationConfig] = None,
    node_budgets: Optional[Sequence[BudgetLike]] = None,
    engine: Optional[ExecutionEngine] = None,
    warm_start: bool = False,
) -> FleetSweep:
    """Run every (placement x policy) cell over one shared trace.

    Cells carry ``placement`` and ``policy`` coordinates.

    Args:
        trace: the arrival trace, shared verbatim by every cell.
        n_nodes: fleet size.
        placements: placement-policy registry ids to compare.
        policies: partitioning-policy registry ids to compare.
        catalog: per-node catalog (homogeneous fleet).
        epoch_config: node-epoch methodology; ``duration_s`` is the
            epoch length.
        seed: cluster base seed (node-epoch seeds derive from it and
            node/epoch coordinates, pairing noise across cells).
        fault_intensity: intensity for :func:`node_fault_plans`;
            0 disables fault injection.
        migration: optional migration policy applied in every cell.
        node_budgets: optional per-node initial budgets (heterogeneous
            fleets) — every cell starts from the same budgets; see
            :class:`~repro.cluster.simulator.ClusterSimulator`.
        engine: shared execution engine (see :func:`run_fleet`).
        warm_start: warm-start membership-stable node controllers from
            their prior-epoch snapshots in every cell (see
            :class:`~repro.cluster.simulator.ClusterSimulator`).
    """
    epoch_config = epoch_config or RunConfig(duration_s=5.0)
    arms = []
    for placement in placements:
        for policy in policies:
            coords = {"placement": placement, "policy": policy}
            arms.append((coords, coords))
    return run_fleet(
        arms,
        trace=trace,
        n_nodes=n_nodes,
        catalog=catalog,
        epoch_config=epoch_config,
        seed=seed,
        node_fault_plans=node_fault_plans(
            n_nodes, fault_intensity, epoch_config.duration_s
        ),
        migration=migration,
        node_budgets=node_budgets,
        engine=engine,
        warm_start=warm_start,
    )


def default_trace(
    n_epochs: int,
    n_nodes: int,
    arrival_rate: float = 1.5,
    mean_residency: float = 3.0,
    suite: str = "parsec",
    seed: int = 0,
    catalog: Optional[ResourceCatalog] = None,
    qos_fraction: float = 0.0,
) -> ArrivalTrace:
    """A sweep-ready trace sized to the fleet.

    Starts warm (one resident job per node) and admission-controls the
    Poisson stream at the fleet's physical capacity so placement — not
    blanket rejection — decides outcomes. ``qos_fraction`` tags that
    share of arrivals ``"qos"``; the default 0 draws no extra RNG and
    reproduces historical traces bit-for-bit.
    """
    catalog = catalog or experiment_catalog()
    capacity = min(resource.units // resource.min_units for resource in catalog)
    return poisson_trace(
        n_epochs=n_epochs,
        arrival_rate=arrival_rate,
        mean_residency=mean_residency,
        max_jobs=n_nodes * capacity,
        suites=(suite,),
        seed=seed,
        initial_jobs=n_nodes,
        qos_fraction=qos_fraction,
    )
