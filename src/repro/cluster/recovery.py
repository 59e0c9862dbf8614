"""Fleet recovery policy: knobs and audit records for node failure.

:class:`RecoveryConfig` is the supervised-recovery contract the
cluster simulator executes when fleet weather (``repro.faults.nodes``)
takes a node down:

* resident jobs drain to a re-placement queue and are re-placed by the
  ordinary placement policy, ahead of new arrivals;
* each simulated node's :class:`~repro.state.PolicyState` is
  checkpointed every ``snapshot_cadence_epochs`` completed epochs,
  labelled with the epoch, job group and effective catalog it was
  learned under; when a crashed node's whole job group reassembles on
  one adopting node under that catalog, the checkpoint is restored
  there — checkpoint-lag semantics: the controller resumes from the
  snapshot, not from the crash instant, and the adopted jobs pay
  ``warmup_penalty_intervals`` of useful work (the migration cost
  model) for the transfer;
* a circuit breaker quarantines a node after ``failure_threshold``
  consecutive failed node-epochs (engine failures or stragglers past
  ``straggler_deadline_factor``), draining it like a crash for
  ``quarantine_epochs`` before it may rejoin.

:class:`FleetEvent` is the audit-trail record every disruption and
recovery action appends, and the trail is the only tally of them:
:class:`~repro.cluster.simulator.ClusterResult` derives ``jobs_lost``,
``replacements``, ``resurrections``, ``node_downs`` (crashes plus
quarantines), ``node_rejoins``, ``quarantines`` and
``node_epoch_failures`` by counting its events. Chaos experiments
reconstruct disruption epochs, re-placement latency and
fairness-recovery intervals from the same trail.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import ClusterError

#: FleetEvent kinds.
EVT_NODE_DOWN = "node_down"
EVT_NODE_REJOINED = "node_rejoined"
EVT_NODE_QUARANTINED = "node_quarantined"
EVT_NODE_EPOCH_FAILED = "node_epoch_failed"
EVT_JOB_LOST = "job_lost"
EVT_JOB_REPLACED = "job_replaced"
EVT_SESSION_RESURRECTED = "session_resurrected"


@dataclass(frozen=True)
class RecoveryConfig:
    """How the cluster reacts to node failure.

    Attributes:
        snapshot_cadence_epochs: checkpoint every node's policy state
            after every Nth completed epoch (1 = every epoch; larger
            cadences trade snapshot cost for staler resurrections).
        warmup_penalty_intervals: control intervals of useful work a
            re-placed or resurrected job loses in its first epoch on
            the adopting node (pro-rata speedup scaling, exactly the
            PR 4 migration cost model).
        failure_threshold: consecutive failed node-epochs before the
            circuit breaker quarantines the node.
        quarantine_epochs: how long a quarantined node stays drained
            before it may rejoin.
        straggler_deadline_factor: a straggler epoch whose slowdown
            reaches this factor misses its deadline outright — the
            node-epoch counts as failed (zero useful work) instead of
            merely slow.
        max_queue_epochs: epochs a displaced job may wait un-placed
            before it is dropped as lost; ``None`` waits out the trace.
    """

    snapshot_cadence_epochs: int = 1
    warmup_penalty_intervals: int = 0
    failure_threshold: int = 3
    quarantine_epochs: int = 2
    straggler_deadline_factor: float = 3.0
    max_queue_epochs: Optional[int] = None

    def __post_init__(self) -> None:
        if self.snapshot_cadence_epochs < 1:
            raise ClusterError(
                f"snapshot_cadence_epochs must be >= 1, "
                f"got {self.snapshot_cadence_epochs}"
            )
        if self.warmup_penalty_intervals < 0:
            raise ClusterError(
                f"warmup_penalty_intervals must be >= 0, "
                f"got {self.warmup_penalty_intervals}"
            )
        if self.failure_threshold < 1:
            raise ClusterError(
                f"failure_threshold must be >= 1, got {self.failure_threshold}"
            )
        if self.quarantine_epochs < 1:
            raise ClusterError(
                f"quarantine_epochs must be >= 1, got {self.quarantine_epochs}"
            )
        if self.straggler_deadline_factor <= 1.0:
            raise ClusterError(
                f"straggler_deadline_factor must exceed 1, "
                f"got {self.straggler_deadline_factor}"
            )
        if self.max_queue_epochs is not None and self.max_queue_epochs < 0:
            raise ClusterError(
                f"max_queue_epochs must be >= 0, got {self.max_queue_epochs}"
            )


@dataclass(frozen=True)
class FleetEvent:
    """One entry of the fleet-disruption audit trail.

    Attributes:
        epoch: placement epoch the event occurred in.
        kind: one of the module's ``EVT_*`` constants.
        node_id: the node concerned (the source node for job events).
        job_id: the job concerned; ``-1`` for node-scoped events.
        detail: free-form context (rejoin epoch, wait epochs, cause).
    """

    epoch: int
    kind: str
    node_id: int
    job_id: int = -1
    detail: str = ""
