"""The serving event loop and the ``cluster-bench`` benchmark.

:func:`run_fleet` is the repository's only serving event loop: it
replays the open-loop Zipf/Poisson arrival timeline of
:mod:`repro.serve.workload` against N nodes in shared virtual time, and
``ServeScheduler.run`` is its one-node case.  The loop advances ``now``
from event to event (arrival, stream-free, completion), placing
requests through the :class:`~repro.cluster.router.ClusterRouter`,
consulting each node's fault scope for whole-node crashes and transient
degradations, fetching plan replicas for spilled work, and retrying
stranded requests onto survivors with the structured retryable taxonomy.

Correctness is never assumed: every completed response's output is
hashed and compared against a single-node reference service, and an
execute-mode cross-check multiplies one case cold / plan-hit / via an
adopted replica and demands bit-identical CSR arrays.  The report also
carries a conservation flag — every offered request must reach exactly
one terminal state (completed, shed, timed out, failed); a crash may
*retry* work but can never silently drop it.

Everything derives from the workload seed and the fault plan; a re-run
produces a byte-identical ``--json`` report.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..core.params import DEFAULT_PARAMS, SpeckParams
from ..estimate import RowEstimator
from ..eval.suite import MatrixCase
from ..faults import FailureInfo, FaultPlan
from ..gpu.presets import PRESETS
from ..matrices.csr import CSR
from ..serve.admission import AdmissionController, AdmissionPolicy
from ..serve.scheduler import Request, RequestOutcome
from ..serve.service import SpGEMMService
from ..serve.workload import (
    WorkloadSpec,
    _workload_artifacts,
    build_requests,
    serve_corpus,
)
from .autoscaler import AutoscalePolicy, Autoscaler
from .metrics import FleetMetrics
from .node import ClusterNode
from .router import ClusterRouter, RoutingPolicy

__all__ = [
    "ClusterSpec",
    "ClusterBenchReport",
    "FleetRun",
    "build_fleet",
    "run_cluster_bench",
    "run_fleet",
]


@dataclass(frozen=True)
class ClusterSpec:
    """Shape and policies of the simulated fleet."""

    n_nodes: int = 4
    #: Device preset names, cycled across nodes (heterogeneous fleets:
    #: pass several, e.g. ``("titan-v", "p100")``).
    devices: Tuple[str, ...] = ("titan-v",)
    workers_per_node: int = 2
    plan_cache_mb: float = 256.0
    #: Per-node admission bound on queued requests.
    queue_depth: int = 128
    #: Home queue depth at which the router spills (power-of-two-choices).
    spill_queue_depth: int = 8
    replicate_plans: bool = True
    #: Cluster-level re-placements of a request (crash failover, faults).
    max_retries: int = 3
    #: Service-time multiplier while a node is degraded.
    degrade_factor: float = 4.0
    #: How long one degradation event lasts, virtual seconds.
    degrade_duration_s: float = 0.05
    #: Salt for the router's deterministic power-of-two draws.
    seed: int = 0
    #: Durable plan stores: each node persists its plans under
    #: ``plan_store_dir/<node-name>`` and warm-starts from what it finds
    #: there.  ``None`` keeps the fleet memory-only.
    plan_store_dir: Optional[str] = None
    #: Give every node a :class:`~repro.estimate.RowEstimator`: admission
    #: and router spill decisions use sampled footprint bounds instead of
    #: the blind ``output_factor`` heuristic.
    estimate: bool = False
    #: Nodes additionally plan cold requests from the sampled estimates
    #: (implies ``estimate``); bound violations fall back to exact
    #: analysis and are counted in the report.
    speculative: bool = False
    #: Elastic fleet: run an :class:`~repro.cluster.autoscaler.Autoscaler`
    #: over the event loop.  ``n_nodes`` is then the *initial* size and
    #: the fleet resizes within ``[min_nodes, max_nodes]``.
    autoscale: bool = False
    min_nodes: int = 1
    max_nodes: int = 8
    #: Hydrate joining nodes (durable store, then hottest indexed plans
    #: from peers) before they take traffic.
    warm_join: bool = True
    #: Virtual seconds between autoscaler evaluations.
    scale_interval_s: float = 0.02
    #: Latency SLO the autoscaler defends (fleet p99, virtual seconds).
    target_p99_s: float = 0.2
    #: Hottest plans proactively replicated to spill targets each tick.
    replicate_top_k: int = 4

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ValueError("need at least one node")
        if self.autoscale:
            if not 1 <= self.min_nodes <= self.n_nodes <= self.max_nodes:
                raise ValueError("need 1 <= min_nodes <= n_nodes <= max_nodes")
            if self.scale_interval_s <= 0:
                raise ValueError("scale_interval_s must be positive")
            if self.target_p99_s <= 0:
                raise ValueError("target_p99_s must be positive")
            if self.replicate_top_k < 0:
                raise ValueError("replicate_top_k must be >= 0")
        if self.workers_per_node < 1:
            raise ValueError("need at least one worker per node")
        if not self.devices:
            raise ValueError("need at least one device preset")
        for d in self.devices:
            if d not in PRESETS:
                raise ValueError(f"unknown device preset {d!r}")
        if self.degrade_factor < 1.0:
            raise ValueError("degrade_factor must be >= 1")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")


def _make_node(
    spec: ClusterSpec,
    params: SpeckParams,
    index: int,
    name: Optional[str] = None,
) -> ClusterNode:
    """One fleet node by index: device cycled, policies from the spec.

    Founders and autoscaler joiners are built identically — the joiner
    just has a later index (and a non-zero ``joined_at_s`` stamped by
    the autoscaler).
    """
    device = PRESETS[spec.devices[index % len(spec.devices)]]
    estimator = (
        RowEstimator(device) if (spec.estimate or spec.speculative) else None
    )
    service = SpGEMMService(
        device,
        params,
        plan_cache_bytes=int(spec.plan_cache_mb * 1e6),
        speculative=spec.speculative,
        estimator=estimator,
    )
    return ClusterNode(
        name or f"node-{index}",
        service,
        AdmissionController(
            device, AdmissionPolicy(max_queue_depth=spec.queue_depth)
        ),
        n_workers=spec.workers_per_node,
        estimator=estimator,
    )


def build_fleet(
    spec: ClusterSpec, params: SpeckParams = DEFAULT_PARAMS
) -> Dict[str, ClusterNode]:
    """Construct the nodes: ``node-0`` … ``node-(N-1)``, devices cycled."""
    nodes: Dict[str, ClusterNode] = {}
    for i in range(spec.n_nodes):
        node = _make_node(spec, params, i)
        nodes[node.name] = node
    return nodes


# ---------------------------------------------------------------------------
# Output verification helpers
# ---------------------------------------------------------------------------
def _csr_digest(c: CSR) -> str:
    """A stable digest of a CSR's exact content (shape + arrays).

    Delegates to :meth:`~repro.matrices.csr.CSR.fingerprint_values`, which
    covers structure *and* stored values and memoises against the identity
    of the data array — crucial here, because the fleet digests every
    completed response and the model-mode ``C`` for a case is the
    context-cached product object, so each (node, case) pays the hash once.
    """
    return c.fingerprint_values()


def _reference_digests(
    requests: Sequence[Request],
    device_name: str,
    params: SpeckParams,
) -> Dict[str, str]:
    """Single-node reference output digest per case name."""
    svc = SpGEMMService(PRESETS[device_name], params)
    digests: Dict[str, str] = {}
    for req in requests:
        if req.case_name in digests:
            continue
        if req.workload is not None:
            res = req.workload(
                svc, req.a, req.b, faults=None,
                case_name=req.case_name, brownout=None,
            )
        else:
            res = svc.multiply(req.a, req.b, case_name=req.case_name)
        if res.valid and res.c is not None:
            digests[req.case_name] = _csr_digest(res.c)
    return digests


def _verify_execute_identical(
    case: MatrixCase, device_name: str, params: SpeckParams
) -> bool:
    """Cold vs plan-hit vs adopted-replica execute runs must agree bitwise.

    Exercises exactly the cluster's replication path: node A computes the
    plan cold, node B adopts a replica of it, both produce C through the
    executable accumulators.
    """
    a, b = case.matrices()
    device = PRESETS[device_name]
    node_a = SpGEMMService(device, params)
    cold = node_a.multiply(a, b, mode="execute")
    hit = node_a.multiply(a, b, mode="execute")
    if cold.c is None or hit.c is None:
        return False
    if hit.decisions.get("plan_cache") != "hit":
        return False
    key = (a.fingerprint(), b.fingerprint())
    plan = node_a.plans.peek(key)
    if plan is None:
        return False
    node_b = SpGEMMService(device, params)
    node_b.plans.adopt(plan)
    replica = node_b.multiply(a, b, mode="execute")
    if replica.c is None or replica.decisions.get("plan_cache") != "hit":
        return False
    return all(
        np.array_equal(getattr(cold.c, f), getattr(other.c, f))
        for other in (hit, replica)
        for f in ("indptr", "indices", "data")
    )


# ---------------------------------------------------------------------------
# The serving event loop
# ---------------------------------------------------------------------------
@dataclass
class FleetRun:
    """Everything one fleet replay produces."""

    outcomes: List[RequestOutcome]
    router: ClusterRouter
    fleet: FleetMetrics
    #: The *router's* live node map — covers autoscaler joiners too.
    nodes: Dict[str, ClusterNode]
    scaler: Optional[Autoscaler] = None
    retried: int = 0
    wrong_results: int = 0
    end_s: float = 0.0


def run_fleet(
    requests: Iterable[Request],
    nodes: Dict[str, ClusterNode],
    spec: ClusterSpec,
    *,
    params: SpeckParams = DEFAULT_PARAMS,
    faults: Optional[FaultPlan] = None,
    reference: Optional[Dict[str, str]] = None,
) -> FleetRun:
    """Replay an arrival timeline against the nodes in virtual time.

    The repository's one serving event loop: ``cluster-bench`` runs it
    over a fleet, and :meth:`repro.serve.scheduler.ServeScheduler.run`
    over a single node (the router then places every request on it).
    The per-request work is the node's (:class:`ClusterNode`); the loop
    owns time, placement, failover and retries.
    """
    router = ClusterRouter(
        nodes,
        RoutingPolicy(
            spill_queue_depth=spec.spill_queue_depth,
            seed=spec.seed,
            replicate_plans=spec.replicate_plans,
        ),
    )
    fleet = FleetMetrics()
    # The router copies the node map; membership changes (autoscaler
    # joins, drains) land in router.nodes, so everything downstream —
    # the loop, aggregation, the report — iterates *that* map.
    run = FleetRun(outcomes=[], router=router, fleet=fleet, nodes=router.nodes)
    for node in router.nodes.values():
        node.bind_faults(faults)
        if spec.plan_store_dir is not None:
            node.attach_plan_store(spec.plan_store_dir, faults)

    scaler: Optional[Autoscaler] = None
    if spec.autoscale:

        def _factory(name: str, index: int) -> ClusterNode:
            node = _make_node(spec, params, index, name=name)
            node.bind_faults(faults)
            if spec.plan_store_dir is not None:
                node.attach_plan_store(spec.plan_store_dir, faults)
            return node

        def _fleet_p99() -> float:
            snap = fleet.registry.histogram(
                "cluster.latency_s", "arrival to completion, fleet-wide"
            ).snapshot()
            return float(snap.get("p99", 0.0))

        scaler = Autoscaler(
            router,
            AutoscalePolicy(
                min_nodes=spec.min_nodes,
                max_nodes=spec.max_nodes,
                interval_s=spec.scale_interval_s,
                target_p99_s=spec.target_p99_s,
                warm_join=spec.warm_join,
                replicate_top_k=spec.replicate_top_k,
            ),
            _factory,
            p99_s=_fleet_p99,
            metrics=fleet,
        )
        run.scaler = scaler

    arrivals = sorted(requests, key=lambda r: (r.arrival_s, r.id))
    now = 0.0
    i = 0

    def settle(out: RequestOutcome, node: Optional[ClusterNode] = None) -> None:
        """Record one terminal state, on its node and fleet-wide."""
        if node is not None:
            node.settle(out)
        run.outcomes.append(out)
        if out.ok:
            fleet.completion(out.latency_s, out.finish_s - out.start_s)
            if reference is not None and out.result.c is not None:
                want = reference.get(out.case_name)
                if want is not None and _csr_digest(out.result.c) != want:
                    run.wrong_results += 1
            run.end_s = max(run.end_s, out.finish_s)
        elif out.status == "shed":
            fleet.shed()
        elif out.status == "timeout":
            fleet.timeout()
        else:
            fleet.failed()

    def place(req: Request) -> None:
        node, how = router.place(req, now)
        if node is None:
            settle(
                RequestOutcome.terminal(
                    req,
                    "failed",
                    now,
                    info=FailureInfo(
                        kind="crash",
                        stage="routing",
                        tag=req.case_name,
                        message="no alive nodes to place the request on",
                        retryable=False,
                    ),
                )
            )
            return
        fleet.placement(how)
        shed = node.admit(req, now)
        if shed is not None:
            settle(shed, node)

    def retry(req: Request, reason: str, node: ClusterNode) -> None:
        if req.attempts >= spec.max_retries:
            info = FailureInfo(
                kind="crash" if reason == "crash" else "injected",
                stage="failover",
                tag=req.case_name,
                message=f"gave up after {req.attempts} re-placements ({reason})",
                retryable=False,
            )
        elif not router.retry_budget.try_spend():
            # The fleet-wide budget is exhausted: fail terminally instead
            # of feeding a retry storm.  Still a structured outcome —
            # conservation holds.
            fleet.retry_denied()
            info = FailureInfo(
                kind="shed",
                stage="retry_budget",
                tag=req.case_name,
                message=(
                    f"retry after {reason} denied: fleet budget "
                    f"{router.retry_budget.allowance} spent"
                ),
                retryable=False,
            )
        else:
            req.attempts += 1
            run.retried += 1
            fleet.retry(reason)
            place(req)
            return
        settle(RequestOutcome.terminal(req, "failed", now, info=info), node)

    while True:
        progressed = False

        # 0. Autoscaler tick (a deterministic virtual-time event).  Work
        # stranded by a scale-down drain is *re-placed*, not retried —
        # a voluntary membership change must not burn the retry budget
        # or the requests' attempt counts.
        if scaler is not None and scaler.due(now):
            for req in sorted(
                scaler.evaluate(now), key=lambda r: (r.arrival_s, r.id)
            ):
                fleet.rebalanced()
                place(req)

        # Membership is dynamic: re-derive the iteration order each pass
        # so autoscaler joiners dispatch and drained nodes stop.
        node_order = sorted(router.nodes)

        # 1. Completions due by `now`.
        for name in node_order:
            node = router.nodes[name]
            for out in node.complete(now):
                settle(out, node)

        # 2. Arrivals due by `now`.
        while i < len(arrivals) and arrivals[i].arrival_s <= now:
            router.retry_budget.note_request()
            place(arrivals[i])
            i += 1

        # 3. Dispatch on every alive node, in stable name order.
        for name in node_order:
            node = router.nodes[name]
            if not node.alive:
                continue
            for w in node.idle_workers(now):
                if not node.queue:
                    break
                node.dispatches += 1
                if node.scope.node_crash():
                    fleet.crash()
                    stranded = router.mark_down(node)
                    for req in sorted(
                        stranded, key=lambda r: (r.arrival_s, r.id)
                    ):
                        retry(req, "crash", node)
                    progressed = True
                    break
                if node.scope.node_degrade():
                    fleet.degrade()
                    node.degraded_until = max(
                        node.degraded_until, now + spec.degrade_duration_s
                    )
                req, expired = node.pop_request(now)
                for out in expired:
                    settle(out, node)
                if req is None:
                    break
                fetched, transfer_s = router.fetch_plan_for(node, req)
                if fetched:
                    fleet.plan_fetch(transfer_s)
                brownout, res = node.execute(req, faults)
                fleet.brownout(brownout.mode)
                router.note_plan(node, req)
                node.note_served(
                    hit=res.decisions.get("plan_cache") == "hit",
                    fetched=fetched,
                )
                # Feed the node's circuit breaker: an invalid result or a
                # degraded (slow) dispatch counts against it, so a
                # persistently sick node opens its breaker and stops
                # receiving traffic until the cooldown probe clears it.
                prev_state = router.breakers[node.name].state
                router.record_outcome(
                    node, res.valid and not node.degraded(now), now
                )
                new_state = router.breakers[node.name].state
                if new_state != prev_state:
                    fleet.breaker_transition(node.name, new_state)
                if res.valid:
                    slow = spec.degrade_factor if node.degraded(now) else 1.0
                    node.start(
                        req, w, now, res.time_s * slow + transfer_s, res, brownout
                    )
                elif res.failure_info is not None and res.failure_info.retryable:
                    node.release(req.id)
                    retry(req, "fault", node)
                    progressed = True
                else:
                    settle(
                        RequestOutcome.terminal(
                            req,
                            "failed",
                            now,
                            info=res.failure_info
                            or FailureInfo(
                                kind="crash",
                                stage="execute",
                                tag=req.case_name,
                                message=res.failure,
                            ),
                        ),
                        node,
                    )

        if progressed:
            continue  # rerouted work may land on nodes already visited

        # 4. Advance virtual time to the next event.
        candidates: List[float] = []
        if i < len(arrivals):
            candidates.append(arrivals[i].arrival_s)
        for name in node_order:
            node = router.nodes[name]
            for inf in node.inflight:
                candidates.append(inf.finish_s)
            if node.alive and node.queue:
                # A warm joiner's streams are busy until its hydration
                # transfer completes — without in-flight records.  Its
                # queued work must still wake the loop.
                free_s = node.next_free_s(now)
                if free_s is not None:
                    candidates.append(free_s)
        if not candidates:
            break  # drained: no arrivals, nothing queued or in flight
        if scaler is not None:
            # Tick while work remains; never the *only* pending event,
            # so an idle fleet terminates instead of ticking forever.
            candidates.append(scaler.next_eval_s)
        now = max(now, min(candidates))

    return run


# ---------------------------------------------------------------------------
# The benchmark report
# ---------------------------------------------------------------------------
@dataclass
class ClusterBenchReport:
    """Everything ``cluster-bench`` measures, JSON-exportable."""

    config: Dict[str, object] = field(default_factory=dict)
    offered: int = 0
    completed: int = 0
    shed: int = 0
    timed_out: int = 0
    failed: int = 0
    retried: int = 0
    spilled: int = 0
    crashes: int = 0
    degrades: int = 0
    plan_fetches: int = 0
    throughput_rps: float = 0.0
    latency: Dict[str, float] = field(default_factory=dict)
    hit_rate: float = 0.0
    #: Hit rate over the first 100 served requests (warm-restart signal).
    first_100_hit_rate: float = 0.0
    #: Plans warm-adopted from durable stores at fleet startup.
    warm_plans: int = 0
    #: Dispatches per brownout rung, fleet-wide.
    brownouts: Dict[str, int] = field(default_factory=dict)
    #: Per-node breaker state + lifetime transition counts.
    breakers: Dict[str, Dict[str, object]] = field(default_factory=dict)
    #: Breaker-open transitions across the fleet.
    breaker_opens: int = 0
    #: Fleet retry-budget allowance / spent / denied.
    retry_budget: Dict[str, int] = field(default_factory=dict)
    #: Summed durable-store counters (appends, quarantines, replays).
    plan_store: Dict[str, int] = field(default_factory=dict)
    #: Single-node reference run on the same workload (no faults).
    single_node: Dict[str, float] = field(default_factory=dict)
    #: Fleet throughput over single-node throughput.
    scaling_vs_single: float = 0.0
    bit_identical: bool = False
    wrong_results: int = 0
    #: Fleet-wide cold requests planned from sampled estimates.
    speculative_cold: int = 0
    #: Speculative runs that fell back to exact analysis (bound violated).
    fallbacks: int = 0
    #: ``fallbacks / speculative_cold`` (0.0 when nothing speculated).
    fallback_rate: float = 0.0
    #: Elastic-fleet summary: scale events, warm joins, proactive plan
    #: pushes, and each joiner's first-100 local hit rate.  Empty when
    #: autoscaling is off.
    autoscale: Dict[str, object] = field(default_factory=dict)
    #: Every offered request reached exactly one terminal state.
    conservation_ok: bool = False
    metrics: Dict[str, object] = field(default_factory=dict)

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.__dict__, indent=indent, sort_keys=True, default=str)

    def render(self) -> str:
        lines = [
            "cluster-bench report",
            "--------------------",
            f"fleet: {self.config.get('n_nodes')} nodes x "
            f"{self.config.get('workers_per_node')} workers "
            f"({', '.join(self.config.get('devices', []))}); "
            f"rate {self.config.get('rate')}/s for "
            f"{self.config.get('duration_s')}s",
            f"offered {self.offered}; completed {self.completed} "
            f"({self.throughput_rps:.1f} req/s), shed {self.shed}, "
            f"timed out {self.timed_out}, failed {self.failed}",
            f"routing: {self.spilled} spills, {self.retried} retries, "
            f"{self.crashes} node crashes, {self.degrades} degrades, "
            f"{self.plan_fetches} plan-replica fetches",
            (
                "latency  p50 {p50:.3f} ms   p95 {p95:.3f} ms   "
                "p99 {p99:.3f} ms   mean {mean:.3f} ms"
            ).format(
                **{
                    k: self.latency.get(k, 0.0) * 1e3
                    for k in ("p50", "p95", "p99", "mean")
                }
            ),
            f"fleet plan-cache hit rate {self.hit_rate * 100:.1f}%  "
            f"(first 100 served: {self.first_100_hit_rate * 100:.1f}%)",
        ]
        degraded = {k: v for k, v in self.brownouts.items() if k != "full"}
        if degraded:
            lines.append(
                "brownout dispatches: "
                + ", ".join(f"{k}={v}" for k, v in sorted(degraded.items()))
            )
        if self.breaker_opens:
            open_now = sum(
                1 for b in self.breakers.values() if b.get("state") != "closed"
            )
            lines.append(
                f"circuit breakers: {self.breaker_opens} opens, "
                f"{open_now} not closed at end"
            )
        if self.retry_budget.get("denied"):
            lines.append(
                f"retry budget: {self.retry_budget['spent']}/"
                f"{self.retry_budget['allowance']} spent, "
                f"{self.retry_budget['denied']} denied"
            )
        if self.plan_store:
            lines.append(
                f"plan stores: {self.warm_plans} plans warm-restored, "
                f"{self.plan_store.get('appended', 0)} appended, "
                f"{self.plan_store.get('quarantined_corrupt', 0)} corrupt + "
                f"{self.plan_store.get('quarantined_torn', 0)} torn quarantined"
            )
        if self.single_node:
            lines.append(
                f"single-node reference: "
                f"{self.single_node.get('completed', 0):.0f} completed "
                f"({self.single_node.get('throughput_rps', 0.0):.1f} req/s) "
                f"-> fleet scaling {self.scaling_vs_single:.2f}x"
            )
        if self.speculative_cold:
            lines.append(
                f"speculative: {self.speculative_cold} cold plans from "
                f"sampled estimates, {self.fallbacks} bound-violation "
                f"fallbacks ({self.fallback_rate * 100:.1f}%)"
            )
        if self.autoscale:
            lines.append(
                f"autoscale: {self.autoscale.get('scale_ups', 0)} ups, "
                f"{self.autoscale.get('scale_downs', 0)} downs, "
                f"{self.autoscale.get('warm_join_plans', 0)} plans "
                f"warm-joined, "
                f"{self.autoscale.get('proactive_replications', 0)} "
                f"proactive plan pushes"
            )
            joins = self.autoscale.get("join_first_100") or {}
            if joins:
                lines.append(
                    "joiner first-100 local hit rate: "
                    + ", ".join(
                        f"{name}={rate * 100:.0f}%"
                        for name, rate in sorted(joins.items())
                    )
                )
        lines.append(
            f"outputs bit-identical to single-node reference: "
            f"{self.bit_identical} ({self.wrong_results} wrong)"
        )
        lines.append(f"request conservation: {self.conservation_ok}")
        return "\n".join(lines)


def run_cluster_bench(
    *,
    cases: Optional[Sequence[MatrixCase]] = None,
    spec: Optional[WorkloadSpec] = None,
    cluster: Optional[ClusterSpec] = None,
    params: SpeckParams = DEFAULT_PARAMS,
    faults: Optional[FaultPlan] = None,
    compare_single: bool = True,
) -> ClusterBenchReport:
    """Drive the fleet with the serving workload; return the report.

    ``compare_single`` additionally replays the identical workload
    against a one-node fleet (same per-node resources, no fault plan) to
    report throughput scaling; the correctness reference is always
    computed regardless.
    """
    cases = list(cases) if cases is not None else serve_corpus()
    # Default load deliberately oversubscribes one node (~20k req/s on the
    # default device/corpus) by ~4x so fleet scaling is measurable.
    spec = spec or WorkloadSpec(rate=80_000.0, duration_s=0.5, timeout_s=0.25)
    cluster = cluster or ClusterSpec()

    artifacts = _workload_artifacts(cases, spec)
    requests = build_requests(cases, spec, artifacts=artifacts)
    reference = _reference_digests(requests, cluster.devices[0], params)

    nodes = build_fleet(cluster, params)
    run = run_fleet(
        requests,
        nodes,
        cluster,
        params=params,
        faults=faults,
        reference=reference,
    )

    single: Dict[str, float] = {}
    scaling = 0.0
    if compare_single:
        single_cluster = replace(
            cluster,
            n_nodes=1,
            devices=cluster.devices[:1],
            plan_store_dir=None,
            autoscale=False,
        )
        single_nodes = build_fleet(single_cluster, params)
        single_run = run_fleet(
            build_requests(cases, spec, artifacts=artifacts),
            single_nodes,
            single_cluster,
            params=params,
        )
        s_completed = sum(1 for o in single_run.outcomes if o.ok)
        single = {
            "completed": float(s_completed),
            "throughput_rps": s_completed / spec.duration_s,
        }
        fleet_completed = sum(1 for o in run.outcomes if o.ok)
        if s_completed > 0:
            scaling = fleet_completed / s_completed

    outcomes = run.outcomes
    completed = sum(1 for o in outcomes if o.ok)
    # Aggregate over the *router's* node map, not the founding fleet:
    # autoscaler joiners appear with their counters, and drained nodes
    # stay (state "drained") so their totals survive the rollup.
    snap = run.fleet.aggregate(
        [run.nodes[n] for n in sorted(run.nodes)],
        run.router.plan_index,
        run.end_s,
        router=run.router,
    )
    autoscale_summary: Dict[str, object] = {}
    if run.scaler is not None:
        autoscale_summary = run.scaler.snapshot()
        autoscale_summary["join_first_100"] = {
            name: run.nodes[name].first_100_hit_rate
            for name in run.scaler.joined
            if name in run.nodes
        }
    lat = snap["cluster"]["histograms"].get("cluster.latency_s", {})
    fleet_stats = snap["fleet"]
    first = sorted((o for o in outcomes if o.ok), key=lambda o: o.request_id)
    first = first[:100]
    first_100 = (
        sum(1 for o in first if o.cache_hit) / len(first) if first else 0.0
    )
    breakers = snap.get("breakers", {})
    spec_cold = int(
        fleet_stats["node_counters"].get("service.speculative_cold", 0)
    )
    fallbacks = int(
        fleet_stats["node_counters"].get("service.speculative_fallbacks", 0)
    )
    report = ClusterBenchReport(
        config={
            "n_nodes": cluster.n_nodes,
            "devices": [
                cluster.devices[i % len(cluster.devices)]
                for i in range(cluster.n_nodes)
            ],
            "workers_per_node": cluster.workers_per_node,
            "queue_depth": cluster.queue_depth,
            "spill_queue_depth": cluster.spill_queue_depth,
            "replicate_plans": cluster.replicate_plans,
            "max_retries": cluster.max_retries,
            "rate": spec.rate,
            "duration_s": spec.duration_s,
            "zipf_alpha": spec.zipf_alpha,
            "timeout_s": spec.timeout_s,
            "seed": spec.seed,
            "workload": spec.workload,
            "router_seed": cluster.seed,
            # A boolean, never the path: the JSON report stays
            # byte-identical across machines and temp directories.
            "plan_store": cluster.plan_store_dir is not None,
            "estimate": cluster.estimate or cluster.speculative,
            "speculative": cluster.speculative,
            "autoscale": cluster.autoscale,
            "min_nodes": cluster.min_nodes,
            "max_nodes": cluster.max_nodes,
            "warm_join": cluster.warm_join,
            "scale_interval_s": cluster.scale_interval_s,
            "target_p99_s": cluster.target_p99_s,
            "replicate_top_k": cluster.replicate_top_k,
        },
        offered=len(requests),
        completed=completed,
        shed=sum(1 for o in outcomes if o.status == "shed"),
        timed_out=sum(1 for o in outcomes if o.status == "timeout"),
        failed=sum(1 for o in outcomes if o.status == "failed"),
        retried=run.retried,
        spilled=run.router.spills,
        crashes=int(
            snap["cluster"]["counters"].get("cluster.node_crashes", 0)
        ),
        degrades=int(
            snap["cluster"]["counters"].get("cluster.node_degrades", 0)
        ),
        plan_fetches=run.router.plan_index.fetches,
        throughput_rps=completed / spec.duration_s,
        latency={
            k: float(lat.get(k, 0.0)) for k in ("mean", "p50", "p95", "p99")
        },
        hit_rate=float(fleet_stats["hit_rate"]),
        first_100_hit_rate=first_100,
        warm_plans=int(
            fleet_stats["node_counters"].get("service.warm_plans", 0)
        ),
        brownouts=dict(fleet_stats["brownouts"]),
        breakers=breakers,
        breaker_opens=sum(int(b.get("opens", 0)) for b in breakers.values()),
        retry_budget=dict(snap.get("retry_budget", {})),
        plan_store=dict(fleet_stats["plan_store_totals"]),
        single_node=single,
        scaling_vs_single=scaling,
        bit_identical=(
            run.wrong_results == 0
            and _verify_execute_identical(cases[0], cluster.devices[0], params)
        ),
        wrong_results=run.wrong_results,
        speculative_cold=spec_cold,
        fallbacks=fallbacks,
        fallback_rate=fallbacks / spec_cold if spec_cold else 0.0,
        autoscale=autoscale_summary,
        # Exactly one terminal state per offered request — same count
        # *and* no request id duplicated or dropped along the way.
        conservation_ok=(
            len(outcomes) == len(requests)
            and len({o.request_id for o in outcomes}) == len(requests)
        ),
        metrics=snap,
    )
    return report
