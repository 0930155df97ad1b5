"""repro.cluster: sharded multi-node SpGEMM serving in virtual time.

A simulated fleet of serving nodes, each a complete single-host stack
(:class:`~repro.serve.service.SpGEMMService` + admission + metrics) over
its own :class:`~repro.gpu.device.DeviceSpec`.  The cluster layer adds:

- consistent-hash routing on operand structural fingerprints for
  plan-cache affinity, with deterministic power-of-two-choices spill
  when the home node is unhealthy (:mod:`repro.cluster.router`);
- a cluster plan index that lets spilled and failed-over requests fetch
  plan replicas from peers at modelled interconnect cost instead of
  recomputing (:mod:`repro.cluster.plan_index`);
- the repository's one serving event loop (:func:`run_fleet`), with
  fault-driven failover — whole-node crashes and transient degradation
  through the :mod:`repro.faults` sites, hash-ring rebalancing and
  retry of stranded work onto survivors; ``ServeScheduler.run`` is a
  one-node run of it;
- fleet metrics aggregating every node's registry into one snapshot
  (:mod:`repro.cluster.metrics`);
- SLO-driven elasticity — an autoscaler resizing the fleet through the
  ring's join/leave machinery, warm-hydrating joiners and proactively
  replicating the hottest plans (:mod:`repro.cluster.autoscaler`);
- the ``repro cluster-bench`` workload driver, which verifies every
  completed response bit-identical to a single-node reference while
  measuring throughput scaling (:func:`run_cluster_bench`).
"""

from .autoscaler import AutoscalePolicy, Autoscaler, ScaleEvent
from .bench import (
    ClusterBenchReport,
    ClusterSpec,
    FleetRun,
    build_fleet,
    run_cluster_bench,
    run_fleet,
)
from .metrics import FleetMetrics
from .node import ClusterNode, InFlight
from .plan_index import PlanIndex, plan_transfer_s
from .ring import HashRing, stable_hash
from .router import (
    BreakerPolicy,
    CircuitBreaker,
    ClusterRouter,
    RetryBudget,
    RoutingPolicy,
    request_key,
)

__all__ = [
    "AutoscalePolicy",
    "Autoscaler",
    "BreakerPolicy",
    "CircuitBreaker",
    "ClusterBenchReport",
    "ClusterNode",
    "ClusterRouter",
    "ClusterSpec",
    "FleetMetrics",
    "FleetRun",
    "HashRing",
    "InFlight",
    "PlanIndex",
    "RetryBudget",
    "RoutingPolicy",
    "ScaleEvent",
    "build_fleet",
    "plan_transfer_s",
    "request_key",
    "run_cluster_bench",
    "run_fleet",
    "stable_hash",
]
