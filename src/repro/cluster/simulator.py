"""The multi-node cluster simulator: placement epochs over a job trace.

:class:`ClusterSimulator` turns N single-server partitioning problems
plus a job arrival trace into one fleet-level experiment. Time is
discretized into *placement epochs*: within an epoch node membership
is fixed, so each node's epoch is exactly one single-server run —
described as a :class:`~repro.engine.RunSpec` and executed through the
:class:`~repro.engine.ExecutionEngine`. Node epochs are independent,
which is what lets them fan out across worker processes and hit the
content-addressed run cache like any other spec (two sweep cells that
route the same jobs to the same node at the same epoch share one run).

Epoch loop (in order):

1. **fleet weather** — nodes whose down window ended rejoin (their
   parked budget returns to service); nodes whose
   :class:`~repro.faults.nodes.NodeFaultSchedule` takes them down are
   drained: resident jobs move to the re-placement queue (or are lost
   when recovery is disabled) and the node's budget is parked;
2. **departures** — jobs whose trace residency ends leave their node
   (or the re-placement queue);
3. **migration** (optional) — a node whose observed fairness stayed
   below the threshold for ``patience`` consecutive epochs evicts its
   worst-treated job to another node chosen by the placement policy;
4. **re-placement** — displaced jobs are re-placed by the placement
   policy *before* new arrivals (survivors outrank newcomers); a
   crashed node's checkpointed policy state is resurrected on the
   adopting node when its whole job group reassembles there;
5. **arrivals** — the placement policy routes each arriving job using
   :class:`~repro.cluster.placement.NodeView` summaries of the
   *previous* epoch's telemetry (jobs with no free node anywhere are
   rejected and counted — an admission-controlled cluster);
6. **execution** — every live node with >= 2 resident jobs becomes one
   engine spec; nodes with 0 or 1 jobs are *synthesized* (an
   uncontended job retains its isolation performance: speedup,
   throughput and fairness scores of 1.0) rather than simulated; down
   nodes produce no record. Straggler weather scales a node-epoch's
   useful work by its slowdown factor — or fails it outright past the
   recovery deadline — and flaky weather overlays monitoring faults on
   the node's spec;
7. **scoring** — per-node records feed the next epoch's node views and
   accumulate into cluster-wide metrics; the circuit breaker
   quarantines nodes with ``failure_threshold`` consecutive failed
   epochs;
8. **brokering** (optional) — a :class:`~repro.broker.GlobalBroker`
   observes the scored records and reassigns each *live* node's
   elastic :class:`~repro.cluster.budget.ResourceBudget` for the
   next epoch; parked (down-node) budgets are outside its reach and
   the conserved pool is audited every epoch: live + parked totals
   must equal the construction-time pool, bit-exactly.
   The simulator re-validates every decision: per-resource unit totals
   must equal the initial pool (conservation) and no node may drop
   below the floor its resident jobs need (feasibility) — floors are
   computed on end-of-epoch residency, and the new budgets apply
   before the next epoch's arrivals, so a compliant decision can never
   strand a placed job.

Pairing across sweep cells: a node-epoch's seed is
``derive_seed(seed, "node", node_id, "epoch", epoch)`` — a function of
*where and when*, never of *which jobs landed there* — and fault plans
are keyed by node id. Two cells differing only in placement or
partitioning policy therefore present the same per-node noise/fault
environment. (Caveat: fault *realizations* draw from each spec's
environment digest, which includes the mix, so a placement that routes
different jobs to a node sees a different realization of the same
plan; the plan's windows and rates — the experiment design — stay
paired. DESIGN.md discusses this.)

Controller state is epoch-scoped by default: each node's policy
instance is reconstructed per spec inside the engine worker, so a
node's controller re-learns after every membership change. With
``warm_start=True`` a node whose job membership did *not* change
across the epoch boundary gets its previous epoch's policy snapshot
re-injected (via the spec's ``initial_state`` field, which is part of
the content address — warm node-epochs never collide with cold ones
in the run cache); membership changes still cold-start, because a
controller's model of the departed mix is stale by construction.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.cluster.budget import (
    BudgetLike,
    ResourceBudget,
    coerce_budget,
    pool_totals,
)
from repro.cluster.node import ServerNode
from repro.cluster.placement import NodeView, PlacementPolicy, make_placement
from repro.cluster.recovery import (
    EVT_JOB_LOST,
    EVT_JOB_REPLACED,
    EVT_NODE_DOWN,
    EVT_NODE_EPOCH_FAILED,
    EVT_NODE_QUARANTINED,
    EVT_NODE_REJOINED,
    EVT_SESSION_RESURRECTED,
    FleetEvent,
    RecoveryConfig,
)
from repro.engine import ExecutionEngine, RunError, RunSpec
from repro.engine.spec import derive_seed
from repro.errors import ClusterError, ExperimentError
from repro.experiments.runner import RunConfig, RunResult, experiment_catalog
from repro.faults.nodes import NodeFaultPlan, NodeFaultSchedule
from repro.faults.plan import FaultPlan
from repro.metrics.fairness import jain_index
from repro.obs import active_collector
from repro.policies.registry import policy_is_qos_aware
from repro.qos.slo import SLOSpec, SLOSummary, SLOTracker
from repro.resources.types import ResourceCatalog
from repro.state import PolicyState
from repro.workloads.arrivals import KIND_QOS, ArrivalTrace, JobArrival


@dataclass(frozen=True)
class MigrationConfig:
    """When and how jobs migrate between nodes.

    A node triggers migration after its *observed* fairness (previous
    epoch's telemetry) stays below ``fairness_threshold`` for
    ``patience`` consecutive epochs; it then evicts the resident job
    with the lowest observed speedup to whichever other node the
    placement policy picks. This is deliberately conservative —
    sustained unfairness, not one bad epoch — because a migration
    resets the destination controller's learning.
    """

    fairness_threshold: float = 0.85
    patience: int = 2
    #: Control intervals of useful work a migrated job loses on its
    #: destination node (checkpoint transfer, page-cache refill, cold
    #: microarchitectural state), applied as a pro-rata scaling of its
    #: first-epoch speedup there. 0 keeps the historical free-migration
    #: behaviour.
    warmup_penalty_intervals: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.fairness_threshold <= 1.0:
            raise ClusterError(
                f"fairness_threshold must be in (0, 1], got {self.fairness_threshold}"
            )
        if self.patience < 1:
            raise ClusterError(f"patience must be >= 1, got {self.patience}")
        if self.warmup_penalty_intervals < 0:
            raise ClusterError(
                f"warmup_penalty_intervals must be >= 0, got {self.warmup_penalty_intervals}"
            )


@dataclass(frozen=True)
class NodeEpochRecord:
    """One node's outcome for one placement epoch.

    Attributes:
        epoch: placement epoch index.
        node_id: which node.
        job_ids: resident jobs during the epoch (id order).
        synthesized: ``True`` for 0/1-job epochs, which are not
            simulated — an uncontended job runs at its isolation
            performance by definition.
        throughput / fairness: the node's scored means for the epoch.
        job_speedups: per-job mean speedup over the epoch, keyed by
            job id (migration warm-up penalties, when configured, are
            already folded in).
        warm_started: the node's controller was warm-started from the
            previous epoch's snapshot (membership-stable node under
            ``warm_start=True``).
        fairness_series: per-interval fairness scores for the epoch
            (empty for synthesized epochs) — what warm-vs-cold
            comparisons use to measure intervals-to-recover.
        budget: the resource budget in force during the epoch (``None``
            only for records built by hand before the budget layer).
        capacity: jobs that budget could host — the occupancy
            denominator.
        failed: the node-epoch produced no useful work — an engine
            failure, or a straggler past the recovery deadline. Scores
            and speedups are 0.0 by construction.
        slowdown: straggler slowdown factor in force (1.0 = healthy);
            already folded into the scores.
        job_kinds: per-job type labels aligned with ``job_ids``
            (``"batch"`` / ``"qos"``); empty for records built before
            typed traces existed.
        slo_attained: per-qos-job SLO attainment for the epoch as
            ``(job_id, attainment)`` pairs in job-id order; empty when
            no SLO is active or the node hosts no qos jobs. Failed
            epochs score 0.0 (a crashed node delivers no service),
            synthesized ones 1.0 (an uncontended job cannot violate).
    """

    epoch: int
    node_id: int
    job_ids: Tuple[int, ...]
    synthesized: bool
    throughput: float
    fairness: float
    job_speedups: Dict[int, float] = field(default_factory=dict)
    warm_started: bool = False
    fairness_series: Tuple[float, ...] = ()
    budget: Optional[ResourceBudget] = None
    capacity: int = 0
    failed: bool = False
    slowdown: float = 1.0
    job_kinds: Tuple[str, ...] = ()
    slo_attained: Tuple[Tuple[int, float], ...] = ()

    @property
    def n_jobs(self) -> int:
        return len(self.job_ids)

    @property
    def mean_speedup(self) -> float:
        if not self.job_speedups:
            return 1.0
        return float(np.mean(list(self.job_speedups.values())))


@dataclass(frozen=True)
class ClusterResult:
    """A full cluster run: every node-epoch record plus event counts.

    Cluster-wide metrics aggregate *per-job mean speedups* — each
    job's speedup averaged over its resident epochs — because SATORI's
    fairness story is long-term: a job briefly squeezed during one
    epoch but compensated later should not drag the fleet's fairness
    the way a persistently starved job does.
    """

    n_nodes: int
    policy: str
    placement: str
    n_epochs: int
    records: Tuple[NodeEpochRecord, ...]
    rejected_jobs: Tuple[int, ...] = ()
    migrations: int = 0
    broker: str = "none"
    budget_transfers: int = 0
    #: Jobs dropped by fleet disruption: drained with recovery disabled,
    #: or displaced past ``max_queue_epochs``. Distinct from
    #: ``rejected_jobs`` (admission control), which never entered.
    jobs_lost: Tuple[int, ...] = ()
    replacements: int = 0
    resurrections: int = 0
    node_downs: int = 0
    node_rejoins: int = 0
    quarantines: int = 0
    node_epoch_failures: int = 0
    #: Total epochs displaced jobs spent waiting in the re-placement
    #: queue (0 when every drained job was re-placed the same epoch).
    displaced_job_epochs: int = 0
    fleet_events: Tuple[FleetEvent, ...] = ()
    #: Aggregate SLO outcome when the run enforced one (``qos_slo``
    #: passed to the simulator and the trace carried qos jobs);
    #: ``None`` otherwise — existing runs are untouched.
    slo: Optional[SLOSummary] = None

    def epoch_fairness(self) -> Dict[int, float]:
        """Per-epoch Jain index over every resident job's speedup.

        The fleet-disruption view of fairness: unlike :attr:`fairness`
        (long-term, per-job means), this shows the transient dip a
        node crash causes and how many epochs the fleet needs to climb
        back — what chaos sweeps report as recovery intervals.
        """
        by_epoch: Dict[int, List[float]] = {}
        for record in self.records:
            by_epoch.setdefault(record.epoch, []).extend(
                record.job_speedups.values()
            )
        return {
            epoch: jain_index(values) if values else float("nan")
            for epoch, values in sorted(by_epoch.items())
        }

    def node_records(self, node_id: int) -> List[NodeEpochRecord]:
        """One node's records in epoch order."""
        return sorted(
            (r for r in self.records if r.node_id == node_id), key=lambda r: r.epoch
        )

    def job_mean_speedups(self) -> Dict[int, float]:
        """Each job's speedup averaged over its resident epochs."""
        sums: Dict[int, float] = {}
        counts: Dict[int, int] = {}
        for record in self.records:
            for job_id, speedup in record.job_speedups.items():
                sums[job_id] = sums.get(job_id, 0.0) + speedup
                counts[job_id] = counts.get(job_id, 0) + 1
        return {job_id: sums[job_id] / counts[job_id] for job_id in sums}

    @property
    def mean_speedup(self) -> float:
        """Mean of per-job mean speedups (cluster throughput proxy)."""
        per_job = self.job_mean_speedups()
        return float(np.mean(list(per_job.values()))) if per_job else float("nan")

    @property
    def fairness(self) -> float:
        """Jain index over per-job mean speedups (long-term fairness)."""
        per_job = self.job_mean_speedups()
        return jain_index(list(per_job.values())) if per_job else float("nan")

    @property
    def worst_job_speedup(self) -> float:
        per_job = self.job_mean_speedups()
        return float(min(per_job.values())) if per_job else float("nan")

    @property
    def p10_speedup(self) -> float:
        """10th-percentile per-job speedup (tail-of-fleet metric)."""
        per_job = self.job_mean_speedups()
        if not per_job:
            return float("nan")
        return float(np.percentile(list(per_job.values()), 10))

    @property
    def throughput(self) -> float:
        """Epoch-and-node mean of simulated throughput scores."""
        simulated = [r.throughput for r in self.records if not r.synthesized]
        if not simulated:
            return float("nan")
        return float(np.mean(simulated))

    def slo_attainment(self, threshold: float = 0.8) -> float:
        """Fraction of jobs whose long-term mean speedup meets ``threshold``.

        The cluster-level SLO proxy: a job "made its SLO" when, averaged
        over its resident epochs, it retained at least ``threshold`` of
        its isolation performance.
        """
        per_job = self.job_mean_speedups()
        if not per_job:
            return float("nan")
        met = sum(1 for speedup in per_job.values() if speedup >= threshold)
        return met / len(per_job)

    def qos_attainment(self) -> float:
        """Mean windowed SLO attainment over every scored qos job-epoch.

        The *enforced* SLO view (per-interval, against the run's
        :class:`~repro.qos.SLOSpec`), unlike :meth:`slo_attainment`
        which is a long-term mean-speedup proxy. ``NaN`` when the run
        had no active SLO.
        """
        if self.slo is None:
            return float("nan")
        return self.slo.attainment

    def qos_miss_rate(self) -> float:
        """Fraction of qos job-epochs below the attainment target.

        ``NaN`` when the run had no active SLO.
        """
        if self.slo is None:
            return float("nan")
        return self.slo.miss_rate

    def node_summary(
        self,
    ) -> List[Tuple[int, float, float, float, float, float]]:
        """Per-node ``(node_id, mean throughput, mean fairness, mean
        occupancy, mean budget units, budget occupancy)``.

        *Budget occupancy* is resident jobs over budget-supported
        capacity, averaged per epoch — 1.0 means the node's budget was
        exactly full, low values mean the broker left it slack. Both
        budget columns are 0.0 for hand-built records with no budget.
        """
        rows = []
        for node_id in sorted({r.node_id for r in self.records}):
            records = self.node_records(node_id)
            budgeted = [r for r in records if r.budget is not None]
            rows.append(
                (
                    node_id,
                    float(np.mean([r.throughput for r in records])),
                    float(np.mean([r.fairness for r in records])),
                    float(np.mean([r.n_jobs for r in records])),
                    float(np.mean([r.budget.total_units for r in budgeted]))
                    if budgeted
                    else 0.0,
                    float(
                        np.mean([r.n_jobs / r.capacity for r in budgeted if r.capacity])
                    )
                    if any(r.capacity for r in budgeted)
                    else 0.0,
                )
            )
        return rows


@dataclass
class _Displaced:
    """One drained job waiting in the re-placement queue."""

    arrival: JobArrival  # base-named workload, ready for add_job
    source: int          # node it was drained from
    since_epoch: int     # epoch it was drained at


@dataclass(frozen=True)
class _Checkpoint:
    """One node's last completed-epoch policy snapshot."""

    epoch: int
    membership: Tuple[int, ...]
    catalog: ResourceCatalog  # effective catalog the state was learned under
    state: PolicyState


#: Monitoring-fault rates a flaky-telemetry node injects at intensity 1.
_FLAKY_RATES = {
    "sample_drop_rate": 0.25,
    "sample_nan_rate": 0.2,
    "sample_stuck_rate": 0.1,
    "sample_outlier_rate": 0.25,
}


def _flaky_overlay(base: Optional[FaultPlan], intensity: float) -> FaultPlan:
    """A node's fault plan with flaky-telemetry corruption folded in.

    Scales the canonical monitoring-fault rates by ``intensity`` and
    takes the max against any base plan's rates (a flaky episode never
    *reduces* an already-faulty node's corruption). The overlay covers
    the whole epoch — fleet weather is epoch-granular.
    """
    rates = {name: rate * intensity for name, rate in _FLAKY_RATES.items()}
    if base is None:
        return FaultPlan(**rates)
    return dataclasses.replace(
        base, **{name: max(getattr(base, name), rate) for name, rate in rates.items()}
    )


class ClusterSimulator:
    """N partitioned servers sharing one job arrival trace.

    Args:
        trace: the job arrival/departure trace (shared verbatim across
            sweep cells — arrivals are environment, not treatment).
        n_nodes: fleet size.
        placement: a placement policy instance or registry id
            (``"round_robin"``, ``"least_loaded"``,
            ``"contention_aware"``).
        policy: partitioning-policy factory id each node runs
            (``"SATORI"``, ``"EqualPartition"``, ...).
        catalog: per-node resource catalog (homogeneous fleet); pass
            ``catalogs`` for a heterogeneous one.
        catalogs: explicit per-node catalogs (overrides ``catalog``).
        epoch_config: methodology knobs for one node-epoch;
            ``duration_s`` is the epoch length. ``phase_offset_s`` is
            overwritten per epoch to keep workload phases continuous
            across epoch boundaries.
        policy_kwargs: kwargs for the partitioning-policy factory.
        goals: ``(throughput_metric, fairness_metric)`` for node runs.
        seed: cluster base seed; node-epoch seeds derive from it and
            the (node, epoch) coordinates only.
        node_fault_plans: optional ``node_id -> FaultPlan`` mapping
            (node-keyed so plans pair across placement cells). A
            plan's fault window must fit inside one node-epoch
            (``epoch_config.duration_s``); a window that outlives it
            raises :class:`~repro.errors.ClusterError` rather than
            silently truncating.
        fleet_plans: optional ``node_id -> NodeFaultPlan`` mapping —
            fleet weather (crashes, blackouts, stragglers, flaky
            telemetry) at placement-epoch granularity. Realized once
            per node from ``derive_seed(seed, "fleet", node_id)``, so
            every sweep arm sees identical weather. Deterministic
            windows that outlive the trace raise
            :class:`~repro.errors.ClusterError` naming the node.
        recovery: optional :class:`~repro.cluster.recovery.RecoveryConfig`
            enabling supervised recovery — drained jobs are re-placed
            instead of lost, policy state is checkpointed and
            resurrected, and the circuit breaker quarantines failing
            nodes. ``None`` (the ablation) drops drained jobs and
            disables the breaker.
        migration: optional :class:`MigrationConfig`; ``None`` disables
            job migration.
        node_capacity: cap on resident jobs per node; defaults to what
            each node's budget can physically partition.
        node_budgets: optional per-node initial budgets (heterogeneous
            fleets) — each entry a :class:`ResourceBudget`, a mapping of
            per-resource unit counts, or an ``int`` meaning that many
            units of every resource. Defaults to every node owning its
            catalog's full unit counts (the historical fixed-capacity
            fleet).
        broker: optional cluster-level budget broker — a
            :class:`~repro.broker.GlobalBroker` instance or registry id
            (``"static"``, ``"harvest"``, ``"trade"``, ``"bo"``).
            ``None`` disables brokering entirely; budgets then never
            move and records are bit-identical to a ``"static"``
            broker's.
        broker_kwargs: kwargs for the broker factory when ``broker``
            is a registry id.
        engine: execution engine for node-epoch batches; defaults to a
            fresh serial engine.
        warm_start: re-inject each node's prior-epoch policy snapshot
            whenever its job membership did not change across the
            epoch boundary, so membership-stable controllers keep
            their learned state instead of re-learning from scratch.
            Membership *changes* still cold-start (the controller's
            model of the old mix is stale by construction). Off by
            default: warm-started node-epoch specs carry the previous
            epoch's state in their content address, which chains
            digests across epochs and reduces cache sharing between
            sweep cells.
        qos_slo: optional :class:`~repro.qos.SLOSpec` enforced for
            qos-kind jobs. When set, an :class:`~repro.qos.SLOTracker`
            scores every node-epoch's per-interval telemetry, records
            land in ``NodeEpochRecord.slo_attained`` /
            ``ClusterResult.slo``, per-node ``slo_attainment`` series
            and a ``cluster.slo_misses`` counter are emitted, and
            qos-aware partitioning policies (``BoPF``,
            ``QoSPARTIES``) receive the node's qos slot indices and
            the floor via injected kwargs. ``None`` (the default)
            changes nothing — specs, RNG draws, and telemetry are
            bit-identical to a simulator without the feature.
    """

    def __init__(
        self,
        trace: ArrivalTrace,
        n_nodes: int,
        placement: Union[str, PlacementPolicy] = "round_robin",
        policy: str = "SATORI",
        catalog: Optional[ResourceCatalog] = None,
        catalogs: Optional[Sequence[ResourceCatalog]] = None,
        epoch_config: Optional[RunConfig] = None,
        policy_kwargs: Optional[dict] = None,
        goals: Tuple[str, str] = ("sum_ips", "jain"),
        seed: int = 0,
        node_fault_plans: Optional[Mapping[int, FaultPlan]] = None,
        fleet_plans: Optional[Mapping[int, NodeFaultPlan]] = None,
        recovery: Optional[RecoveryConfig] = None,
        migration: Optional[MigrationConfig] = None,
        node_capacity: Optional[int] = None,
        node_budgets: Optional[Sequence[BudgetLike]] = None,
        broker: Union[str, "GlobalBroker", None] = None,  # noqa: F821
        broker_kwargs: Optional[dict] = None,
        engine: Optional[ExecutionEngine] = None,
        warm_start: bool = False,
        qos_slo: Optional[SLOSpec] = None,
    ):
        if n_nodes < 1:
            raise ClusterError(f"a cluster needs at least one node, got {n_nodes}")
        if catalogs is not None and len(catalogs) != n_nodes:
            raise ClusterError(
                f"got {len(catalogs)} catalogs for {n_nodes} nodes"
            )
        if catalogs is None:
            catalogs = [catalog or experiment_catalog()] * n_nodes
        self._trace = trace
        self._placement = (
            make_placement(placement) if isinstance(placement, str) else placement
        )
        self._policy = policy
        self._policy_kwargs = dict(policy_kwargs or {})
        self._epoch_config = epoch_config or RunConfig(duration_s=5.0)
        self._goals = goals
        self._seed = int(seed)
        self._fault_plans = dict(node_fault_plans or {})
        unknown = set(self._fault_plans) - set(range(n_nodes))
        if unknown:
            raise ClusterError(
                f"fault plans reference unknown node ids {sorted(unknown)}"
            )
        # A fault window reaching past the node-epoch would be silently
        # truncated by FaultPlan.window(); reject it loudly instead.
        epoch_s = self._epoch_config.duration_s
        for node_id in sorted(self._fault_plans):
            plan = self._fault_plans[node_id]
            if plan.start_s >= epoch_s or (
                plan.end_s is not None and plan.end_s > epoch_s
            ):
                raise ClusterError(
                    f"node {node_id}: fault plan window "
                    f"[{plan.start_s}, {plan.end_s}) outlives the {epoch_s}s "
                    f"node-epoch; shrink the window or lengthen the epoch"
                )
        self._fleet_plans = dict(fleet_plans or {})
        unknown = set(self._fleet_plans) - set(range(n_nodes))
        if unknown:
            raise ClusterError(
                f"fleet fault plans reference unknown node ids {sorted(unknown)}"
            )
        # Fleet weather is realized here, once, from node-keyed seeds:
        # identical across every sweep arm sharing (trace, seed).
        self._fleet_schedules: Dict[int, NodeFaultSchedule] = {}
        for node_id in sorted(self._fleet_plans):
            try:
                self._fleet_schedules[node_id] = NodeFaultSchedule.generate(
                    self._fleet_plans[node_id],
                    trace.n_epochs,
                    seed=derive_seed(self._seed, "fleet", node_id),
                )
            except ExperimentError as error:
                raise ClusterError(f"node {node_id}: {error}") from error
        self._recovery = recovery
        self._migration = migration
        self._engine = engine or ExecutionEngine()
        if node_budgets is not None and len(node_budgets) != n_nodes:
            raise ClusterError(
                f"got {len(node_budgets)} node budgets for {n_nodes} nodes"
            )
        self._nodes = [
            ServerNode(
                node_id,
                catalogs[node_id],
                capacity=node_capacity,
                budget=(
                    coerce_budget(node_budgets[node_id], catalogs[node_id])
                    if node_budgets is not None
                    else None
                ),
            )
            for node_id in range(n_nodes)
        ]
        # The conserved quantity: cluster-wide per-resource unit totals.
        # Fixed at construction; every broker decision is checked
        # against it.
        self._pool = pool_totals(node.budget for node in self._nodes)
        if isinstance(broker, str):
            # Lazy import: repro.broker imports repro.cluster.budget at
            # module load, so the simulator must not import it back at
            # module level.
            from repro.broker import make_broker

            broker = make_broker(broker, **(broker_kwargs or {}))
        elif broker_kwargs:
            raise ClusterError(
                "broker_kwargs only apply when broker is a registry id"
            )
        self._broker = broker
        self._budget_transfers = 0
        self._warm_start = bool(warm_start)
        # Previous-epoch observations per node (the placement policy's
        # information set) and consecutive-unfair counters for migration.
        self._observed: Dict[int, Tuple[float, float]] = {}
        self._unfair_streak: Dict[int, int] = {node.node_id: 0 for node in self._nodes}
        # Warm-start bookkeeping: each node's previous-epoch membership,
        # final policy snapshot with the budget it ran under, and the
        # jobs that migrated in at the current epoch boundary (warm-up
        # penalty targets).
        self._prev_membership: Dict[int, Tuple[int, ...]] = {}
        self._node_states: Dict[int, Tuple[PolicyState, ResourceBudget]] = {}
        self._migrated_in: Dict[int, set] = {}
        # Fleet fault-tolerance state: which nodes are down (and until
        # when), their parked budgets, the re-placement queue, policy
        # checkpoints awaiting resurrection, and the audit trail.
        self._down_until: Dict[int, Optional[int]] = {}
        self._parked: Dict[int, ResourceBudget] = {}
        self._queue: List[_Displaced] = []
        self._lost: List[int] = []
        self._checkpoints: Dict[int, _Checkpoint] = {}
        self._adoptable: List[_Checkpoint] = []
        self._pending_restore: Dict[int, PolicyState] = {}
        self._replaced_in: Dict[int, set] = {}
        self._fail_streak: Dict[int, int] = {node.node_id: 0 for node in self._nodes}
        self._fleet_events: List[FleetEvent] = []
        self._node_downs = 0
        self._node_rejoins = 0
        self._replacements = 0
        self._resurrections = 0
        self._quarantines = 0
        self._node_epoch_failures = 0
        self._displaced_epochs = 0
        # Incremental stepping state: :meth:`run` is a loop over
        # :meth:`step_epoch`, and external callers may interleave
        # epochs with their own work (the serve layer). ``_previous``
        # holds the last epoch's records — the placement policy's
        # information set.
        self._epoch = 0
        self._all_records: List[NodeEpochRecord] = []
        self._rejected: List[int] = []
        self._migrations = 0
        self._previous: Dict[int, NodeEpochRecord] = {}
        # SLO enforcement: one tracker for the whole run, scoring each
        # node-epoch's qos jobs against the spec. Inert when no spec.
        self._qos_slo = qos_slo
        self._slo_tracker = SLOTracker(qos_slo) if qos_slo is not None else None

    @property
    def nodes(self) -> List[ServerNode]:
        return self._nodes

    @property
    def engine(self) -> ExecutionEngine:
        return self._engine

    @property
    def broker(self):
        """The cluster-level budget broker (``None`` when disabled)."""
        return self._broker

    @property
    def pool(self) -> Dict[str, int]:
        """Cluster-wide per-resource unit totals (the conserved pool)."""
        return dict(self._pool)

    @property
    def recovery(self) -> Optional[RecoveryConfig]:
        """The supervised-recovery policy (``None`` = ablation)."""
        return self._recovery

    @property
    def fleet_schedules(self) -> Dict[int, NodeFaultSchedule]:
        """Realized fleet weather per node (empty without fleet plans)."""
        return dict(self._fleet_schedules)

    @property
    def down_nodes(self) -> Tuple[int, ...]:
        """Nodes currently down (crashed, blacked out, or quarantined)."""
        return tuple(sorted(self._down_until))

    # -- views ------------------------------------------------------------

    def _views(self, exclude: Optional[int] = None) -> List[NodeView]:
        """Current node views (previous-epoch telemetry), in id order.

        ``exclude`` presents one node as full — used to force a
        migrating job *off* its source node. Down nodes are presented
        as full too, so no placement policy can route onto them while
        keeping every policy's view indexing stable.
        """
        views = []
        for node in self._nodes:
            mean_speedup, fairness = self._observed.get(node.node_id, (1.0, 1.0))
            n_jobs = node.n_jobs
            if node.node_id == exclude or node.node_id in self._down_until:
                n_jobs = node.capacity
            views.append(
                NodeView(
                    node_id=node.node_id,
                    n_jobs=n_jobs,
                    capacity=node.capacity,
                    mean_speedup=mean_speedup,
                    fairness=fairness,
                    budget_units=node.budget.total_units,
                    qos_jobs=node.qos_jobs,
                )
            )
        return views

    def _node_policy_kwargs(self, node: ServerNode) -> dict:
        """Per-node policy kwargs, with qos context injected when due.

        When an SLO is active, the partitioning policy is qos-aware
        (see :func:`repro.policies.registry.policy_is_qos_aware`), and
        the node hosts at least one qos job, the factory receives the
        node's qos slot indices and the SLO floor. Everything else —
        no SLO, unaware policy, all-batch node — gets the shared
        kwargs object unchanged, so spec digests are bit-identical to
        a simulator without the feature.
        """
        if self._qos_slo is None or not policy_is_qos_aware(self._policy):
            return self._policy_kwargs
        qos_slots = tuple(
            slot for slot, kind in enumerate(node.job_kinds) if kind == KIND_QOS
        )
        if not qos_slots:
            return self._policy_kwargs
        merged = dict(self._policy_kwargs)
        merged["qos_jobs"] = qos_slots
        merged["qos_min_speedup"] = self._qos_slo.min_speedup
        return merged

    # -- SLO scoring -------------------------------------------------------

    def _score_slo_epoch(
        self,
        epoch: int,
        node: ServerNode,
        interval_speedups: Sequence[Sequence[float]],
    ) -> Tuple[Tuple[int, float], ...]:
        """Score one node-epoch's qos jobs; ``()`` when no SLO is active."""
        if self._slo_tracker is None:
            return ()
        attained = self._slo_tracker.score_epoch(
            epoch, node.node_id, node.job_ids, node.job_kinds, interval_speedups
        )
        return tuple(sorted(attained.items()))

    def _score_slo_outage(
        self, epoch: int, node: ServerNode
    ) -> Tuple[Tuple[int, float], ...]:
        """Score a failed node-epoch: its qos jobs attain nothing."""
        if self._slo_tracker is None:
            return ()
        attained = self._slo_tracker.score_outage(
            epoch, node.node_id, node.job_ids, node.job_kinds
        )
        return tuple(sorted(attained.items()))

    # -- epoch phases ------------------------------------------------------

    def _apply_departures(self, epoch: int) -> None:
        departing = set()
        for arrival in self._trace.departures_at(epoch):
            departing.add(arrival.job_id)
            for node in self._nodes:
                if node.has_job(arrival.job_id):
                    node.remove_job(arrival.job_id)
                    break
        if departing and self._queue:
            # A displaced job whose residency ends departs from the
            # queue — it is not lost, but its wait epochs still count.
            kept: List[_Displaced] = []
            for item in self._queue:
                if item.arrival.job_id in departing:
                    self._displaced_epochs += epoch - item.since_epoch
                else:
                    kept.append(item)
            self._queue = kept

    # -- fleet weather and recovery ---------------------------------------

    def _fleet_event(self, event: FleetEvent) -> None:
        self._fleet_events.append(event)

    def _apply_fleet_weather(self, epoch: int) -> None:
        """Start of epoch: process rejoins, then new down windows.

        Rejoins run first so a node whose blackout just ended is
        placeable this very epoch — its parked budget returns before
        re-placement and arrivals look at the fleet.
        """
        for node_id in sorted(self._down_until):
            rejoin = self._down_until[node_id]
            if rejoin is not None and epoch >= rejoin:
                self._rejoin(epoch, node_id)
        for node_id in sorted(self._fleet_schedules):
            if node_id in self._down_until:
                continue
            schedule = self._fleet_schedules[node_id]
            if schedule.down_at(epoch):
                self._take_down(
                    epoch, node_id, until=schedule.down_end(epoch), cause="fault"
                )

    def _take_down(
        self, epoch: int, node_id: int, until: Optional[int], cause: str
    ) -> None:
        """Drain a node and park its budget until it rejoins.

        With recovery enabled, drained jobs enter the re-placement
        queue and the node's last checkpoint becomes adoptable;
        without it, they are simply lost — the ablation the chaos
        sweep measures against. The budget is *parked*, not destroyed:
        the conserved pool is live budgets + parked budgets at every
        epoch, so crash/rejoin cycles are conservation-neutral by
        construction.
        """
        obs = active_collector()
        node = self._nodes[node_id]
        self._down_until[node_id] = until
        self._parked[node_id] = node.budget
        self._node_downs += 1
        checkpoint = self._checkpoints.pop(node_id, None)
        if self._recovery is not None and checkpoint is not None:
            self._adoptable.append(checkpoint)
        drained = node.job_ids
        for job_id in drained:
            workload = node.workload_of(job_id)
            job_kind = node.kind_of(job_id)
            node.remove_job(job_id)
            # Strip the instance rename; the adopting node re-applies
            # it. The kind travels too — a qos job drained by a crash
            # must still be a qos job after recovery re-placement
            # (the migration path already preserved it).
            base_name = workload.name.rsplit("#", 1)[0]
            arrival = JobArrival(
                job_id=job_id,
                workload=dataclasses.replace(workload, name=base_name),
                arrival_epoch=0,
                kind=job_kind,
            )
            if self._recovery is None:
                self._lost.append(job_id)
                obs.event("job_lost", "cluster", job_id=job_id, node=node_id, epoch=epoch)
                obs.metrics.counter("cluster.jobs_lost").inc()
                self._fleet_event(
                    FleetEvent(epoch, EVT_JOB_LOST, node_id, job_id, detail=cause)
                )
            else:
                self._queue.append(_Displaced(arrival, node_id, epoch))
        kind = "node_quarantined" if cause == "quarantine" else "node_down"
        obs.event(
            kind, "cluster",
            node=node_id, epoch=epoch, until=until, jobs=len(drained), cause=cause,
        )
        obs.metrics.counter(f"cluster.{kind}s").inc()
        self._fleet_event(
            FleetEvent(
                epoch,
                EVT_NODE_QUARANTINED if cause == "quarantine" else EVT_NODE_DOWN,
                node_id,
                detail=f"until={until} jobs={len(drained)} cause={cause}",
            )
        )
        # The node's telemetry, learned state, and failure streak died
        # with it.
        self._observed.pop(node_id, None)
        self._node_states.pop(node_id, None)
        self._prev_membership.pop(node_id, None)
        self._pending_restore.pop(node_id, None)
        self._unfair_streak[node_id] = 0
        self._fail_streak[node_id] = 0

    def _rejoin(self, epoch: int, node_id: int) -> None:
        """Return a down node to service with its parked budget."""
        obs = active_collector()
        del self._down_until[node_id]
        budget = self._parked.pop(node_id)
        node = self._nodes[node_id]
        if node.budget != budget:
            node.set_budget(budget)
        self._node_rejoins += 1
        obs.event("node_rejoined", "cluster", node=node_id, epoch=epoch)
        obs.metrics.counter("cluster.node_rejoins").inc()
        self._fleet_event(FleetEvent(epoch, EVT_NODE_REJOINED, node_id))

    def _replace_queued(self, epoch: int) -> None:
        """Re-place displaced jobs ahead of this epoch's arrivals."""
        if not self._queue:
            return
        obs = active_collector()
        still: List[_Displaced] = []
        for item in self._queue:
            job_id = item.arrival.job_id
            waited = epoch - item.since_epoch
            try:
                target = self._placement.place(self._views())
            except ClusterError:
                target = None
            if target is None or not self._nodes[target].has_capacity:
                if (
                    self._recovery is not None
                    and self._recovery.max_queue_epochs is not None
                    and waited >= self._recovery.max_queue_epochs
                ):
                    self._lost.append(job_id)
                    self._displaced_epochs += waited
                    obs.event(
                        "job_lost", "cluster",
                        job_id=job_id, node=item.source, epoch=epoch,
                    )
                    obs.metrics.counter("cluster.jobs_lost").inc()
                    self._fleet_event(
                        FleetEvent(
                            epoch, EVT_JOB_LOST, item.source, job_id,
                            detail=f"queued {waited} epoch(s), gave up",
                        )
                    )
                else:
                    still.append(item)
                continue
            self._nodes[target].add_job(item.arrival)
            self._replacements += 1
            self._displaced_epochs += waited
            self._replaced_in.setdefault(target, set()).add(job_id)
            obs.event(
                "job_replaced", "cluster",
                job_id=job_id, source=item.source, target=target,
                epoch=epoch, waited=waited,
            )
            obs.metrics.counter("cluster.replacements").inc()
            self._fleet_event(
                FleetEvent(
                    epoch, EVT_JOB_REPLACED, item.source, job_id,
                    detail=f"target={target} waited={waited}",
                )
            )
        self._queue = still

    def _match_resurrections(self, epoch: int) -> None:
        """Restore crashed controllers whose job group reassembled.

        Runs after re-placement *and* arrivals, when epoch membership
        is final: an adoptable checkpoint is resurrected onto a live
        node holding exactly the checkpoint's job group under the same
        effective catalog (a different catalog means the learned
        partitionings no longer describe the hardware). Groups that
        scattered stay adoptable — they may yet reassemble — but cold
        membership simply cold-starts, which is the checkpoint-lag
        contract: resurrection is an optimization, never a correctness
        requirement.
        """
        if not self._adoptable:
            return
        obs = active_collector()
        for checkpoint in list(self._adoptable):
            for node in self._nodes:
                if node.node_id in self._down_until:
                    continue
                if node.node_id in self._pending_restore:
                    continue
                if node.job_ids != checkpoint.membership:
                    continue
                if node.effective_catalog != checkpoint.catalog:
                    continue
                self._pending_restore[node.node_id] = checkpoint.state
                self._adoptable.remove(checkpoint)
                self._resurrections += 1
                obs.event(
                    "session_resurrected", "cluster",
                    node=node.node_id, epoch=epoch,
                    snapshot_epoch=checkpoint.epoch,
                    lag_epochs=epoch - checkpoint.epoch,
                )
                obs.metrics.counter("cluster.resurrections").inc()
                self._fleet_event(
                    FleetEvent(
                        epoch, EVT_SESSION_RESURRECTED, node.node_id,
                        detail=f"snapshot_epoch={checkpoint.epoch}",
                    )
                )
                break

    def _maybe_quarantine(self, epoch: int) -> None:
        """Circuit breaker: drain nodes with too many consecutive failures."""
        if self._recovery is None:
            return
        for node in self._nodes:
            if node.node_id in self._down_until:
                continue
            if self._fail_streak[node.node_id] < self._recovery.failure_threshold:
                continue
            self._quarantines += 1
            self._take_down(
                epoch,
                node.node_id,
                until=epoch + 1 + self._recovery.quarantine_epochs,
                cause="quarantine",
            )

    def _audit_pool(self, epoch: int) -> None:
        """Assert bit-exact budget conservation: live + parked == pool."""
        totals = pool_totals(
            node.budget
            for node in self._nodes
            if node.node_id not in self._down_until
        )
        for budget in self._parked.values():
            for name in budget.names:
                totals[name] = totals.get(name, 0) + budget.get(name)
        if totals != self._pool:
            raise ClusterError(
                f"budget leak at epoch {epoch}: live + parked totals {totals} "
                f"!= pool {self._pool}"
            )

    def _maybe_migrate(self, records_by_node: Dict[int, NodeEpochRecord]) -> int:
        """Evict the worst-treated job from persistently unfair nodes."""
        if self._migration is None:
            return 0
        moved = 0
        for node in self._nodes:
            record = records_by_node.get(node.node_id)
            if record is None or record.synthesized:
                self._unfair_streak[node.node_id] = 0
                continue
            if record.fairness < self._migration.fairness_threshold:
                self._unfair_streak[node.node_id] += 1
            else:
                self._unfair_streak[node.node_id] = 0
                continue
            if self._unfair_streak[node.node_id] < self._migration.patience:
                continue
            if node.n_jobs < 2:
                continue
            victim = min(record.job_speedups, key=record.job_speedups.get)
            if not node.has_job(victim):  # departed in the meantime
                continue
            try:
                target = self._placement.place(self._views(exclude=node.node_id))
            except ClusterError:
                continue  # nowhere to go; stay put
            if target == node.node_id or not self._nodes[target].has_capacity:
                continue
            workload = node.workload_of(victim)
            kind = node.kind_of(victim)
            active_collector().event(
                "migration", "cluster",
                job_id=victim, source=node.node_id, target=target,
            )
            active_collector().metrics.counter("cluster.migrations").inc()
            node.remove_job(victim)
            # Re-add under the original (pre-instance-rename) name; the
            # destination node re-renames it identically since the job
            # id is stable.
            base_name = workload.name.rsplit("#", 1)[0]
            self._nodes[target].add_job(
                JobArrival(
                    job_id=victim,
                    workload=dataclasses.replace(workload, name=base_name),
                    arrival_epoch=0,
                    kind=kind,
                )
            )
            self._migrated_in.setdefault(target, set()).add(victim)
            self._unfair_streak[node.node_id] = 0
            moved += 1
        return moved

    def _place_arrivals(self, epoch: int) -> List[int]:
        obs = active_collector()
        rejected = []
        for arrival in self._trace.arrivals_at(epoch):
            try:
                node_id = self._placement.place(self._views())
            except ClusterError:
                rejected.append(arrival.job_id)
                obs.event(
                    "job_rejected", "cluster", job_id=arrival.job_id, epoch=epoch
                )
                obs.metrics.counter("cluster.rejected_jobs").inc()
                continue
            self._nodes[node_id].add_job(arrival)
            obs.event(
                "placement", "cluster",
                job_id=arrival.job_id, node=node_id, epoch=epoch,
            )
        return rejected

    def _epoch_records(self, epoch: int) -> List[NodeEpochRecord]:
        """Run (or synthesize) every live node's epoch and score it."""
        obs = active_collector()
        # Membership is final for this epoch — now crashed controllers
        # whose job groups reassembled can be matched for resurrection.
        self._match_resurrections(epoch)
        config = RunConfig(
            duration_s=self._epoch_config.duration_s,
            interval_s=self._epoch_config.interval_s,
            baseline_reset_s=self._epoch_config.baseline_reset_s,
            noise_sigma=self._epoch_config.noise_sigma,
            phase_offset_s=epoch * self._epoch_config.duration_s,
            warmup_fraction=self._epoch_config.warmup_fraction,
            actuation_retries=self._epoch_config.actuation_retries,
        )
        specs: List[RunSpec] = []
        spec_nodes: List[ServerNode] = []
        spec_slowdowns: List[float] = []
        warm_nodes: set = set()
        records: List[NodeEpochRecord] = []

        def _failed_record(node: ServerNode, slowdown: float, why: str) -> None:
            self._fail_streak[node.node_id] += 1
            self._node_epoch_failures += 1
            obs.event(
                "node_epoch_failed", "cluster",
                node=node.node_id, epoch=epoch,
                streak=self._fail_streak[node.node_id], why=why,
            )
            obs.metrics.counter("cluster.node_epoch_failures").inc()
            self._fleet_event(
                FleetEvent(epoch, EVT_NODE_EPOCH_FAILED, node.node_id, detail=why)
            )
            records.append(
                NodeEpochRecord(
                    epoch=epoch,
                    node_id=node.node_id,
                    job_ids=node.job_ids,
                    synthesized=False,
                    throughput=0.0,
                    fairness=0.0,
                    job_speedups={job_id: 0.0 for job_id in node.job_ids},
                    budget=node.budget,
                    capacity=node.capacity,
                    failed=True,
                    slowdown=slowdown,
                    job_kinds=node.job_kinds,
                    slo_attained=self._score_slo_outage(epoch, node),
                )
            )

        for node in self._nodes:
            if node.node_id in self._down_until:
                continue
            schedule = self._fleet_schedules.get(node.node_id)
            slowdown = schedule.slowdown_at(epoch) if schedule else 1.0
            flaky = schedule.flaky_at(epoch) if schedule else 0.0
            if node.n_jobs < 2:
                continue
            initial_state = self._pending_restore.pop(node.node_id, None)
            if (
                self._recovery is not None
                and slowdown >= self._recovery.straggler_deadline_factor
            ):
                # The straggler misses its deadline outright: the
                # node-epoch fails with zero useful work (a consumed
                # resurrection is wasted — the controller never ran).
                _failed_record(
                    node, slowdown,
                    f"straggler slowdown {slowdown:.2f}x missed deadline",
                )
                continue
            if initial_state is None and (
                self._warm_start
                and self._prev_membership.get(node.node_id) == node.job_ids
            ):
                # Membership unchanged across the epoch boundary: the
                # controller's learned model still describes this mix,
                # so hand the prior epoch's snapshot back to it — unless
                # the broker moved the node's budget, which changes the
                # optimizer's search space under the snapshot.
                held = self._node_states.get(node.node_id)
                if held is not None and held[1] == node.budget:
                    initial_state = held[0]
                    warm_nodes.add(node.node_id)
                    obs.event(
                        "warm_start", "cluster", node=node.node_id, epoch=epoch
                    )
                    obs.metrics.counter("cluster.warm_starts").inc()
            fault_plan = self._fault_plans.get(node.node_id)
            if flaky > 0.0:
                fault_plan = _flaky_overlay(fault_plan, flaky)
            specs.append(
                node.epoch_spec(
                    policy=self._policy,
                    run_config=config,
                    seed=derive_seed(self._seed, "node", node.node_id, "epoch", epoch),
                    policy_kwargs=self._node_policy_kwargs(node),
                    goals=self._goals,
                    fault_plan=fault_plan,
                    initial_state=initial_state,
                )
            )
            spec_nodes.append(node)
            spec_slowdowns.append(slowdown)

        on_error = "record" if self._recovery is not None else "raise"
        results = self._engine.run(specs, on_error=on_error) if specs else []

        penalty = (
            self._migration.warmup_penalty_intervals if self._migration is not None else 0
        )
        replace_penalty = (
            self._recovery.warmup_penalty_intervals if self._recovery is not None else 0
        )
        simulated = {node.node_id for node in spec_nodes}
        for node, result, slowdown in zip(spec_nodes, results, spec_slowdowns):
            if isinstance(result, RunError):
                _failed_record(node, slowdown, f"engine: {result.error}")
                self._node_states.pop(node.node_id, None)
                continue
            assert isinstance(result, RunResult)
            self._fail_streak[node.node_id] = 0
            speedups = result.scored.mean_job_speedups()
            job_speedups = {
                job_id: float(speedup) / slowdown
                for job_id, speedup in zip(node.job_ids, speedups)
            }
            penalty_scale: Dict[int, float] = {}
            for intervals, arrived in (
                (penalty, self._migrated_in.get(node.node_id, ())),
                (replace_penalty, self._replaced_in.get(node.node_id, ())),
            ):
                if not intervals:
                    continue
                # Jobs that just moved here lose `intervals` control
                # intervals of useful work this epoch (pro-rata).
                scale = max(0.0, 1.0 - intervals / config.n_steps)
                for job_id in arrived:
                    if job_id in job_speedups:
                        job_speedups[job_id] *= scale
                        penalty_scale[job_id] = (
                            penalty_scale.get(job_id, 1.0) * scale
                        )
            slo_attained: Tuple[Tuple[int, float], ...] = ()
            if self._slo_tracker is not None:
                # Per-interval speedups (straggler slowdown and warm-up
                # penalties folded in, matching the epoch scores) feed
                # the windowed SLO attainment; only qos slots need a
                # series.
                kinds = node.job_kinds
                interval_speedups = [
                    tuple(
                        float(rec.speedups[slot])
                        / slowdown
                        * penalty_scale.get(job_id, 1.0)
                        for rec in result.scored
                    )
                    if slot < len(kinds) and kinds[slot] == KIND_QOS
                    else ()
                    for slot, job_id in enumerate(node.job_ids)
                ]
                slo_attained = self._score_slo_epoch(
                    epoch, node, interval_speedups
                )
            records.append(
                NodeEpochRecord(
                    epoch=epoch,
                    node_id=node.node_id,
                    job_ids=node.job_ids,
                    synthesized=False,
                    throughput=result.throughput / slowdown,
                    fairness=result.fairness,
                    job_speedups=job_speedups,
                    warm_started=node.node_id in warm_nodes,
                    fairness_series=tuple(
                        float(v) for v in result.telemetry.series("fairness")
                    ),
                    budget=node.budget,
                    capacity=node.capacity,
                    slowdown=slowdown,
                    job_kinds=node.job_kinds,
                    slo_attained=slo_attained,
                )
            )
            if result.final_state is not None:
                self._node_states[node.node_id] = (result.final_state, node.budget)
            else:
                self._node_states.pop(node.node_id, None)
        failed = {record.node_id for record in records if record.failed}
        for node in self._nodes:
            if node.node_id in simulated or node.node_id in failed:
                continue
            if node.node_id in self._down_until:
                continue
            # 0/1-job nodes: an uncontended job retains its isolation
            # performance by construction — nothing to simulate. No
            # controller ran this epoch, so any held snapshot is stale;
            # drop it.
            self._node_states.pop(node.node_id, None)
            records.append(
                NodeEpochRecord(
                    epoch=epoch,
                    node_id=node.node_id,
                    job_ids=node.job_ids,
                    synthesized=True,
                    throughput=1.0,
                    fairness=1.0,
                    job_speedups={job_id: 1.0 for job_id in node.job_ids},
                    budget=node.budget,
                    capacity=node.capacity,
                    job_kinds=node.job_kinds,
                    # An uncontended qos job runs at isolation speed:
                    # full attainment by construction.
                    slo_attained=self._score_slo_epoch(
                        epoch, node, [() for _ in node.job_ids]
                    ),
                )
            )
        for node in self._nodes:
            if node.node_id in self._down_until:
                continue
            self._prev_membership[node.node_id] = node.job_ids
        self._migrated_in.clear()
        self._replaced_in.clear()
        if (
            self._recovery is not None
            and (epoch + 1) % self._recovery.snapshot_cadence_epochs == 0
        ):
            # Checkpoint cadence: snapshot every live controller's
            # state as of this completed epoch. A crash before the
            # next checkpoint resurrects from *this* one (checkpoint
            # lag).
            for node in self._nodes:
                if node.node_id in self._down_until:
                    continue
                held = self._node_states.get(node.node_id)
                if held is None:
                    continue
                self._checkpoints[node.node_id] = _Checkpoint(
                    epoch=epoch,
                    membership=node.job_ids,
                    catalog=node.effective_catalog,
                    state=held[0],
                )
        if self._slo_tracker is not None:
            # Displaced qos jobs still waiting in the re-placement
            # queue received no service this epoch: that outage is part
            # of their SLO story (it is what the slo_aware placement +
            # recovery interplay is judged on).
            for item in self._queue:
                if item.arrival.kind == KIND_QOS:
                    self._slo_tracker.score_outage(
                        epoch, item.source, (item.arrival.job_id,), (KIND_QOS,)
                    )
        records.sort(key=lambda r: r.node_id)
        return records

    # -- brokering ---------------------------------------------------------

    def _broker_step(self, epoch: int, records: Sequence[NodeEpochRecord]) -> None:
        """Let the broker reassign budgets from the epoch's outcomes."""
        if self._broker is None:
            return
        from repro.broker import BrokerView  # lazy: see __init__

        live = [
            node for node in self._nodes if node.node_id not in self._down_until
        ]
        if not live:
            return
        obs = active_collector()
        by_node = {record.node_id: record for record in records}
        views = []
        for node in live:
            record = by_node[node.node_id]
            views.append(
                BrokerView(
                    node_id=node.node_id,
                    budget=node.budget,
                    floor=node.budget.floor(node.catalog, node.n_jobs),
                    n_jobs=node.n_jobs,
                    throughput=record.throughput,
                    fairness=record.fairness,
                    mean_speedup=record.mean_speedup,
                    synthesized=record.synthesized,
                )
            )
        with obs.span(
            "broker.decide", "broker", epoch=epoch, scheme=self._broker.name
        ):
            decision = self._broker.decide(epoch, views)
        self._apply_budgets(epoch, decision, views)

    def _apply_budgets(
        self,
        epoch: int,
        decision: Mapping[int, ResourceBudget],
        views: Sequence["BrokerView"],  # noqa: F821
    ) -> None:
        """Validate a broker decision, emit its transfers, and adopt it.

        The broker only sees (and may only reassign) *live* nodes; a
        down node's budget is parked and its units are subtracted from
        the conservation target until it rejoins.

        Raises:
            ClusterError: on an incomplete mapping, a conservation
                violation (per-resource totals drifted from the pool),
                or a floor violation (a node left unable to host its
                resident jobs). Broker bugs fail loudly — a silent leak
                of capacity would invalidate every downstream metric.
        """
        live = [
            node for node in self._nodes if node.node_id not in self._down_until
        ]
        missing = {node.node_id for node in live} - set(decision)
        if missing:
            raise ClusterError(
                f"broker {self._broker.name!r} omitted node(s) {sorted(missing)} "
                f"at epoch {epoch}"
            )
        expected = dict(self._pool)
        for budget in self._parked.values():
            for name in budget.names:
                expected[name] -= budget.get(name)
        totals = pool_totals(decision[node.node_id] for node in live)
        if totals != expected:
            raise ClusterError(
                f"broker {self._broker.name!r} broke conservation at epoch "
                f"{epoch}: live pool {expected} became {totals}"
            )
        floors = {view.node_id: view.floor for view in views}
        for node in live:
            new = decision[node.node_id]
            floor = floors[node.node_id]
            for name in floor.names:
                if new.get(name) < floor.get(name):
                    raise ClusterError(
                        f"broker {self._broker.name!r} pushed node "
                        f"{node.node_id} below its floor at epoch {epoch}: "
                        f"{name}={new.get(name)} < {floor.get(name)}"
                    )
        obs = active_collector()
        for resource, source, target, units in _transfer_ledger(
            {node.node_id: node.budget for node in live}, decision
        ):
            obs.event(
                "budget_transfer", "broker",
                epoch=epoch, resource=resource,
                source=source, target=target, units=units,
            )
            obs.metrics.counter("cluster.budget_transfers").inc()
            self._budget_transfers += 1
        for node in live:
            if decision[node.node_id] != node.budget:
                node.set_budget(decision[node.node_id])

    # -- the run -----------------------------------------------------------

    @property
    def epoch(self) -> int:
        """Epochs stepped so far (the next :meth:`step_epoch` runs this one)."""
        return self._epoch

    @property
    def finished(self) -> bool:
        """Whether the arrival trace has been fully replayed."""
        return self._epoch >= self._trace.n_epochs

    @property
    def _series_prefix(self) -> str:
        # Sweep cells run sequentially under one collector, so series
        # names carry the cell coordinates to keep nodes from
        # interleaving across cells. Broker sweeps share placement and
        # policy across cells, so the broker name joins the coordinate
        # (no-broker runs keep the historical prefix).
        prefix = f"cluster.{self._placement.name}.{self._policy}"
        if self._broker is not None:
            prefix += f"@{self._broker.name}"
        return prefix

    def step_epoch(self) -> List[NodeEpochRecord]:
        """Advance the cluster by exactly one placement epoch.

        The epoch runs as explicit sub-steps, in order: fleet weather
        (down/rejoin + budget parking), trace departures, optional
        fairness-driven migration, re-placement of drained jobs, new
        arrivals, node-epoch spec execution through the engine,
        scoring (per-node series + the placement policy's view),
        quarantine, brokering, and the conservation audit.

        Callers may interleave their own work between epochs — inspect
        :attr:`nodes`, read the accumulated records, or snapshot
        policies — and :meth:`run` is exactly a loop over this method,
        so a manually stepped replay is bit-identical to a batch one.

        Returns the epoch's node records (down nodes produce none).

        Raises:
            ClusterError: when the trace is already fully replayed.
        """
        if self.finished:
            raise ClusterError(
                f"trace exhausted: all {self._trace.n_epochs} epochs already stepped"
            )
        epoch = self._epoch
        obs = active_collector()
        with obs.span("epoch", "cluster", epoch=epoch):
            self._apply_fleet_weather(epoch)
            self._apply_departures(epoch)
            self._migrations += self._maybe_migrate(self._previous)
            self._replace_queued(epoch)
            self._rejected.extend(self._place_arrivals(epoch))
            records = self._epoch_records(epoch)
        self._score_epoch(records)
        self._maybe_quarantine(epoch)
        self._broker_step(epoch, records)
        self._audit_pool(epoch)
        self._previous = {record.node_id: record for record in records}
        self._all_records.extend(records)
        self._epoch += 1
        return records

    def _score_epoch(self, records: Sequence[NodeEpochRecord]) -> None:
        """Fold an epoch's records into observed views and metric series."""
        obs = active_collector()
        series_prefix = self._series_prefix
        for record in records:
            self._observed[record.node_id] = (record.mean_speedup, record.fairness)
            node_prefix = f"{series_prefix}.node{record.node_id}"
            obs.metrics.series(f"{node_prefix}.throughput").append(record.throughput)
            obs.metrics.series(f"{node_prefix}.fairness").append(record.fairness)
            obs.metrics.series(f"{node_prefix}.occupancy").append(record.n_jobs)
            if record.budget is not None:
                obs.metrics.series(f"{node_prefix}.budget_units").append(
                    record.budget.total_units
                )
            if record.slo_attained:
                values = [value for _, value in record.slo_attained]
                obs.metrics.series(f"{node_prefix}.slo_attainment").append(
                    float(np.mean(values))
                )
                misses = sum(
                    1
                    for value in values
                    if value < self._qos_slo.attain_target
                )
                if misses:
                    obs.metrics.counter("cluster.slo_misses").inc(misses)

    def result(self) -> ClusterResult:
        """The cluster-level result over the epochs stepped so far."""
        return ClusterResult(
            n_nodes=len(self._nodes),
            policy=self._policy,
            placement=self._placement.name,
            n_epochs=self._epoch,
            records=tuple(self._all_records),
            rejected_jobs=tuple(self._rejected),
            migrations=self._migrations,
            broker=self._broker.name if self._broker is not None else "none",
            budget_transfers=self._budget_transfers,
            jobs_lost=tuple(self._lost),
            replacements=self._replacements,
            resurrections=self._resurrections,
            node_downs=self._node_downs,
            node_rejoins=self._node_rejoins,
            quarantines=self._quarantines,
            node_epoch_failures=self._node_epoch_failures,
            displaced_job_epochs=self._displaced_epochs,
            fleet_events=tuple(self._fleet_events),
            slo=(
                SLOSummary(
                    attainment=self._slo_tracker.attainment(),
                    miss_rate=self._slo_tracker.miss_rate(),
                    qos_jobs=len(self._slo_tracker.job_attainment()),
                    misses=self._slo_tracker.misses,
                )
                if self._slo_tracker is not None
                else None
            ),
        )

    def run(self) -> ClusterResult:
        """Replay the remaining trace and return the cluster-level result.

        A thin loop over :meth:`step_epoch`; on a fresh simulator this
        reproduces the historical whole-trace behavior bit-identically
        (same spec digests, same telemetry series). After manual
        stepping it finishes the replay from wherever the caller
        stopped.
        """
        while not self.finished:
            self.step_epoch()
        return self.result()


def _transfer_ledger(
    before: Mapping[int, ResourceBudget],
    after: Mapping[int, ResourceBudget],
) -> List[Tuple[str, int, int, int]]:
    """Explain a budget reassignment as ``(resource, source, target,
    units)`` flows.

    The broker returns end states, not flows; for the trace we
    reconstruct a minimal deterministic flow per resource by matching
    losers to gainers in node-id order. Any matching with the right
    row/column sums is equally valid as an audit trail — this one is
    stable, which is what replayable traces need.
    """
    ledger: List[Tuple[str, int, int, int]] = []
    resources = sorted({name for b in before.values() for name in b.names})
    for resource in resources:
        losses = []
        gains = []
        for node_id in sorted(before):
            delta = after[node_id].get(resource) - before[node_id].get(resource)
            if delta < 0:
                losses.append([node_id, -delta])
            elif delta > 0:
                gains.append([node_id, delta])
        li = gi = 0
        while li < len(losses) and gi < len(gains):
            units = min(losses[li][1], gains[gi][1])
            ledger.append((resource, losses[li][0], gains[gi][0], units))
            losses[li][1] -= units
            gains[gi][1] -= units
            if losses[li][1] == 0:
                li += 1
            if gains[gi][1] == 0:
                gi += 1
    return ledger
