"""SATORI applied to itself: BO over cluster budget vectors.

Within a node, SATORI searches the space of *unit partitionings among
jobs* with a GP proxy model and an acquisition function. One level up,
the fleet's budget assignment has exactly the same combinatorial
shape: each resource's cluster-wide unit pool is composed into N
positive node shares. So the broker reuses the PR 3 BO machinery
verbatim — :class:`~repro.resources.space.ConfigurationSpace` over a
*meta-catalog* whose "server" is the whole cluster (units = pooled
units per resource) and whose "jobs" are the nodes, with
:class:`~repro.core.bo.BayesianOptimizer` suggesting the next budget
vector and :class:`~repro.core.objective.GoalRecords` accumulating
(cluster throughput, cluster fairness) outcomes per tried vector.

Two fleet-level wrinkles the node-level loop does not have:

* **Feasibility drifts.** Jobs arrive and depart between decisions, so
  a suggested vector can fall below some node's floor. Suggestions are
  *repaired* deterministically — deficit nodes pull units from the
  slackest nodes, preserving per-resource totals — rather than
  rejected, so the optimizer still learns from (the feasible
  projection of) every suggestion.
* **Nodes come and go.** The meta-space is built for the first live
  node set it sees. While a node is down the live set differs, and the
  broker leaves budgets alone and records no sample until it rejoins.
* **Each sample costs an epoch.** The broker starts suggesting only
  after ``warmup_epochs`` observed samples; before that it leaves
  budgets alone, mirroring SATORI's initial-set phase.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.broker.base import BrokerView, GlobalBroker, register_broker
from repro.cluster.budget import ResourceBudget
from repro.core.bo import BayesianOptimizer
from repro.core.objective import GoalRecords
from repro.errors import ClusterError
from repro.metrics.fairness import jain_index
from repro.resources.allocation import Configuration
from repro.resources.space import ConfigurationSpace
from repro.resources.types import Resource, ResourceCatalog
from repro.state import BOState, GoalRecordsState


@register_broker
class BudgetOptimizerBroker(GlobalBroker):
    """BO-over-budget-vectors: the meta-policy arm of the broker sweep.

    Args:
        seed: RNG seed for the optimizer's candidate sampling (the only
            randomness in the scheme; a fixed seed makes the budget
            trajectory deterministic).
        weights: fixed (throughput, fairness) objective weights. The
            node-level controller's *dynamic* weight scheduler reacts
            every 100 ms; at one sample per multi-second epoch there is
            no short-term/long-term split to exploit yet, so the broker
            optimizes the balanced objective.
        warmup_epochs: observed samples before the first suggestion.
        candidate_pool_size: BO candidate pool per suggestion (the
            budget space is far too large to enumerate).
        max_samples: retained (vector, scores) samples — bounds the
            GP fit cost and ages out observations from old fleet load.
    """

    name = "bo"

    def __init__(
        self,
        seed: int = 0,
        weights: Tuple[float, float] = (0.5, 0.5),
        warmup_epochs: int = 2,
        candidate_pool_size: int = 64,
        max_samples: int = 32,
    ):
        if warmup_epochs < 1:
            raise ClusterError(f"warmup_epochs must be >= 1, got {warmup_epochs}")
        self._seed = int(seed)
        self._weights = (float(weights[0]), float(weights[1]))
        self._warmup = int(warmup_epochs)
        self._pool_size = int(candidate_pool_size)
        self._max_samples = int(max_samples)
        self._epochs_seen = 0
        # Built lazily from the first views (the broker learns the
        # fleet's pool totals and node count by observing it).
        self._space: Optional[ConfigurationSpace] = None
        self._bo: Optional[BayesianOptimizer] = None
        self._records: Optional[GoalRecords] = None
        self._node_ids: Tuple[int, ...] = ()

    # -- lazy meta-space ---------------------------------------------------

    def _ensure_space(self, views: Sequence[BrokerView]) -> None:
        if self._space is not None:
            return
        self._node_ids = tuple(view.node_id for view in views)
        self._space = ConfigurationSpace(
            self._meta_catalog(views), n_jobs=len(views)
        )
        self._bo = BayesianOptimizer(
            self._space,
            candidate_pool_size=self._pool_size,
            rng=self._seed,
        )
        self._records = GoalRecords(
            ("throughput", "fairness"), max_samples=self._max_samples
        )

    @staticmethod
    def _meta_catalog(views: Sequence[BrokerView]) -> ResourceCatalog:
        """The cluster as one server: pooled units, nodes as "jobs"."""
        first = views[0].budget.names
        for view in views:
            if view.budget.names != first:
                raise ClusterError(
                    "the BO broker needs a homogeneous resource set across "
                    f"nodes; node {view.node_id} has {view.budget.names}, "
                    f"node {views[0].node_id} has {first}"
                )
        totals = {name: 0 for name in first}
        for view in views:
            for name, units in view.budget.units:
                totals[name] += units
        # min_units mirrors the per-job minimum one level down: every
        # node must keep at least one job's worth of every resource.
        resources = []
        for resource in _kind_ordered(first):
            resources.append(
                Resource(kind=resource, units=totals[resource.value], min_units=1)
            )
        return ResourceCatalog(resources)

    # -- the decision ------------------------------------------------------

    def decide(self, epoch: int, views: Sequence[BrokerView]) -> Dict[int, ResourceBudget]:
        self._ensure_space(views)
        if tuple(view.node_id for view in views) != self._node_ids:
            # A node is down (or the live set otherwise differs from the
            # one the meta-space was built for): its vectors are not
            # points of this space. Hold budgets and learn nothing until
            # the original fleet is back.
            return self._unchanged(views)
        self._epochs_seen += 1
        assert self._records is not None and self._bo is not None and self._space is not None

        # Score the vector that was in force during the finished epoch.
        config = self._config_from_views(views)
        throughput = float(np.mean([view.mean_speedup for view in views]))
        fairness = jain_index([view.mean_speedup for view in views])
        self._records.add(config, self._space.encode(config), (throughput, fairness))

        if len(self._records) < self._warmup:
            return self._unchanged(views)

        suggestion = self._bo.suggest(self._records, self._weights)
        repaired = self._repair(suggestion.config, views)
        return {
            view.node_id: ResourceBudget(
                tuple(
                    (name, repaired.units(name)[index])
                    for name in repaired.resource_names
                )
            )
            for index, view in enumerate(views)
        }

    def _config_from_views(self, views: Sequence[BrokerView]) -> Configuration:
        return Configuration(
            {
                name: tuple(view.budget.get(name) for view in views)
                for name in views[0].budget.names
            }
        )

    def _repair(
        self, config: Configuration, views: Sequence[BrokerView]
    ) -> Configuration:
        """Project a suggestion onto the feasible region.

        Per resource: every node below its floor pulls units from the
        node with the most slack above *its* floor, one unit at a time,
        deterministically (ties break toward the lower index). Totals
        are untouched, so conservation survives the repair.
        """
        allocations: Dict[str, List[int]] = {
            name: list(config.units(name)) for name in config.resource_names
        }
        for name, alloc in allocations.items():
            floors = [view.floor.get(name) for view in views]
            for i in range(len(alloc)):
                while alloc[i] < floors[i]:
                    slack = [alloc[j] - floors[j] for j in range(len(alloc))]
                    donor = int(np.argmax(slack))
                    if slack[donor] < 1:
                        raise ClusterError(
                            f"cannot repair budget vector for {name!r}: pooled "
                            f"units {sum(alloc)} cannot cover floors {floors}"
                        )
                    alloc[donor] -= 1
                    alloc[i] += 1
        return Configuration({name: tuple(a) for name, a in allocations.items()})

    # -- state -------------------------------------------------------------

    def _payload(self) -> dict:
        payload = {
            "seed": self._seed,
            "weights": list(self._weights),
            "warmup_epochs": self._warmup,
            "candidate_pool_size": self._pool_size,
            "max_samples": self._max_samples,
            "epochs_seen": self._epochs_seen,
            "node_ids": list(self._node_ids),
            "space": None,
            "bo": None,
            "records": None,
        }
        if self._space is not None:
            assert self._bo is not None and self._records is not None
            payload["space"] = {
                "catalog": [
                    {"kind": r.kind.value, "units": r.units, "min_units": r.min_units}
                    for r in self._space.catalog
                ],
            }
            payload["bo"] = self._bo.snapshot().to_dict()
            payload["records"] = self._records.snapshot().to_dict()
        return payload

    def _restore_payload(self, payload: dict) -> None:
        self._seed = int(payload["seed"])
        self._weights = tuple(float(w) for w in payload["weights"])
        self._warmup = int(payload["warmup_epochs"])
        self._pool_size = int(payload["candidate_pool_size"])
        self._max_samples = int(payload["max_samples"])
        self._epochs_seen = int(payload["epochs_seen"])
        self._node_ids = tuple(int(n) for n in payload["node_ids"])
        self._space = self._bo = self._records = None
        if payload.get("space") is not None:
            from repro.resources.types import ResourceKind

            catalog = ResourceCatalog(
                Resource(
                    kind=ResourceKind(entry["kind"]),
                    units=int(entry["units"]),
                    min_units=int(entry["min_units"]),
                )
                for entry in payload["space"]["catalog"]
            )
            self._space = ConfigurationSpace(catalog, n_jobs=len(self._node_ids))
            self._bo = BayesianOptimizer(
                self._space, candidate_pool_size=self._pool_size, rng=self._seed
            ).restore(BOState.from_dict(payload["bo"]))
            self._records = GoalRecords(
                ("throughput", "fairness"), max_samples=self._max_samples
            ).restore(GoalRecordsState.from_dict(payload["records"]))


def _kind_ordered(names: Sequence[str]):
    """Resource kinds for the meta-catalog, in the budget's name order."""
    from repro.resources.types import ResourceKind

    return [ResourceKind(name) for name in names]
