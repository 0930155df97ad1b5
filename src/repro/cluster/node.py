"""One serving node: a `SpGEMMService` plus its queue and streams.

A :class:`ClusterNode` wraps the single-host serving stack from
:mod:`repro.serve` — service (engine + plan cache + metrics) and
admission controller over one :class:`~repro.gpu.device.DeviceSpec` —
and adds the serving state: a priority queue, simulated device streams
(busy-until times in virtual seconds), health (`up`/`down`, plus a
degraded-until horizon), and the per-node
:class:`~repro.faults.FaultScope` that drives crash/degrade injection.

The node owns the per-request work of serving: admission and
committed-byte accounting, queue order and deadline expiry, the brownout
rung and the plain-or-workload execution of a dispatch, and the
:class:`~repro.serve.scheduler.RequestOutcome` of every terminal state.
The one event loop that moves virtual time is
:func:`repro.cluster.bench.run_fleet` (``ServeScheduler.run`` is a
one-node run of it); placement policy lives in :mod:`repro.cluster.router`.
"""

from __future__ import annotations

import heapq
import math
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..estimate import RowEstimator
from ..faults import FailureInfo, FaultPlan, FaultScope, null_scope
from ..result import SpGEMMResult
from ..serve.admission import AdmissionController, BrownoutInfo
from ..serve.scheduler import Request, RequestOutcome
from ..serve.service import SpGEMMService

__all__ = ["ClusterNode", "InFlight"]

#: Node counter bumped by each terminal status: (name, help).
_STATUS_COUNTERS = {
    "ok": ("scheduler.completed", "requests served"),
    "shed": ("scheduler.shed", "requests shed"),
    "timeout": ("scheduler.timeouts", "queue deadline misses"),
    "failed": ("scheduler.failed", "requests failed terminally"),
}


@dataclass
class InFlight:
    """A request currently occupying one of a node's device streams."""

    request: Request
    worker: int
    start_s: float
    finish_s: float
    result: SpGEMMResult
    cache_hit: bool
    #: Brownout rung the dispatch planned under.
    brownout_mode: str = "full"


class ClusterNode:
    """One serving node: a service, its admission controller and streams.

    ``n_workers`` is the number of simulated device streams draining
    this node's queue.  ``estimator`` (optional) supplies sampled
    footprint bounds for admission and routing, and orders the queue
    cheapest-first within a priority class (see :meth:`admit`).
    """

    def __init__(
        self,
        name: str,
        service: SpGEMMService,
        admission: AdmissionController,
        *,
        n_workers: int = 2,
        estimator: Optional[RowEstimator] = None,
    ) -> None:
        if n_workers < 1:
            raise ValueError("a node needs at least one worker")
        self.name = name
        self.service = service
        self.device = service.device
        self.admission = admission
        self.estimator = estimator
        self.workers: List[float] = [0.0] * int(n_workers)
        #: Heap of ``(priority, cost bucket, arrival, id, request)``.
        self.queue: List[Tuple[int, int, float, int, Request]] = []
        self.inflight: List[InFlight] = []
        #: Conservative committed bytes of queued + in-flight requests.
        self.committed = 0
        self.inflight_bytes: Dict[int, int] = {}
        self.state = "up"  # "up" | "down" | "drained"
        self.degraded_until = 0.0
        #: Dispatches attempted on this node (the fault sites' counter).
        self.dispatches = 0
        #: Virtual time this node entered the ring (0.0 for founders).
        self.joined_at_s = 0.0
        #: Served-request window for the warm-join signal: of this
        #: node's first 100 dispatched requests, how many were *local*
        #: plan hits — a hit served without a just-in-time replica
        #: fetch.  A warm-joined node starts high (hydration made the
        #: hot plans local before traffic arrived); a cold joiner pays a
        #: fetch or a cold plan for each early request.
        self.first_100_served = 0
        self.first_100_local_hits = 0
        self.scope: FaultScope = null_scope(name, "cluster")

    # ------------------------------------------------------------------
    def bind_faults(self, plan: Optional[FaultPlan]) -> None:
        """Attach the run's fault plan; node rules key on this node's name."""
        self.scope = (
            plan.scope(self.name, "cluster") if plan is not None else null_scope(self.name)
        )

    def attach_plan_store(
        self, directory: str, faults: Optional[FaultPlan] = None
    ) -> int:
        """Bind a durable plan store under ``directory/<node-name>``.

        Returns the number of plans warm-adopted from a previous run.
        The store's fault scope carries this node's name, so
        ``disk_corrupt@node-1`` in a fault spec targets node 1's WAL.
        """
        from ..serve.plan_store import PlanStore

        store = PlanStore(
            os.path.join(directory, self.name), name=self.name, faults=faults
        )
        return self.service.attach_plan_store(store)

    @property
    def alive(self) -> bool:
        return self.state == "up"

    def degraded(self, now: float) -> bool:
        return now < self.degraded_until

    @property
    def queue_depth(self) -> int:
        return len(self.queue)

    @property
    def plan_compat(self) -> str:
        """Plans transfer only between nodes with identical device+params
        (binning and kernel-config decisions are device-derived).  The
        same :func:`~repro.serve.plan_ir.compat_key` string the service
        stamps on persisted plans, so disk and wire use one notion of
        compatibility."""
        return self.service.compat

    # ------------------------------------------------------------------
    def idle_workers(self, now: float) -> List[int]:
        return [w for w, busy in enumerate(self.workers) if busy <= now]

    def next_free_s(self, now: float) -> Optional[float]:
        """Earliest future worker-free time, ``None`` if all idle."""
        busy = [t for t in self.workers if t > now]
        return min(busy) if busy else None

    def _footprint(self, req: Request) -> Optional[int]:
        """Sampled footprint bound, or ``None`` (the admission controller
        then falls back to its blind ``output_factor`` heuristic)."""
        if self.estimator is None:
            return None
        return self.estimator.footprint_bound_bytes(req.a, req.b)

    def est_bytes_for(self, req: Request) -> int:
        """Admission/routing footprint of one request on this node.

        With an estimator this is the sampled footprint bound (usually
        far tighter than the blind ``output_factor`` multiple, so
        estimator-equipped nodes shed and spill less on memory
        pressure); without one, the controller's blind heuristic."""
        return self.admission.estimate_bytes(
            req.input_bytes(), self._footprint(req)
        )

    def _cost_bucket(self, req: Request) -> int:
        """Coarse estimated-cost class for queue order (0 = cheapest):
        log2 of the estimated products, 0 without an estimator."""
        if self.estimator is None:
            return 0
        hint = self.estimator.estimate(req.a, req.b).cost_hint
        return int(math.log2(hint + 1.0)) if hint > 0 else 0

    # -- the per-request serving work ------------------------------------
    def admit(self, req: Request, now: float) -> Optional[RequestOutcome]:
        """Admission control: enqueue ``req``, or return its shed outcome.

        The queue is ordered by ``(priority, cost bucket, arrival, id)``:
        with an estimator, cheaper requests go first within a priority
        class (bucketed shortest-job-first — similar-cost requests keep
        arrival order, so nothing starves); without one the bucket is 0
        and the order is plain priority, then arrival.
        """
        self.service.metrics.counter(
            "scheduler.arrivals", "admission attempts"
        ).inc()
        footprint = self._footprint(req)
        reject = self.admission.admit(
            req.id,
            queue_depth=self.queue_depth,
            input_bytes=req.input_bytes(),
            committed_bytes=self.committed,
            footprint=footprint,
        )
        if reject is not None:
            return RequestOutcome.terminal(
                req, "shed", now, reject=reject, info=reject.info
            )
        est = self.admission.estimate_bytes(req.input_bytes(), footprint)
        self.enqueue(req, est)
        return None

    def enqueue(self, req: Request, est_bytes: int) -> None:
        """Queue an admitted request and commit its estimated bytes."""
        heapq.heappush(
            self.queue,
            (req.priority, self._cost_bucket(req), req.arrival_s, req.id, req),
        )
        self.inflight_bytes[req.id] = est_bytes
        self.committed += est_bytes
        self._depth_gauge()

    def pop_request(
        self, now: float
    ) -> Tuple[Optional[Request], List[RequestOutcome]]:
        """The next request in queue order, plus the timeout outcomes of
        the requests whose queue deadline passed on the way to it."""
        expired: List[RequestOutcome] = []
        req: Optional[Request] = None
        while self.queue and req is None:
            req = heapq.heappop(self.queue)[-1]
            if req.timeout_s is not None and now - req.arrival_s > req.timeout_s:
                expired.append(
                    RequestOutcome.terminal(
                        req,
                        "timeout",
                        now,
                        info=FailureInfo(
                            kind="timeout",
                            stage="queue",
                            tag=req.case_name,
                            message=(
                                f"request {req.id} waited "
                                f"{now - req.arrival_s:.4f}s on {self.name}, "
                                "over its deadline"
                            ),
                            retryable=True,
                        ),
                    )
                )
                req = None
        self._depth_gauge()
        return req, expired

    def _depth_gauge(self) -> None:
        self.service.metrics.gauge(
            "scheduler.queue_depth", "requests waiting"
        ).set(self.queue_depth)

    def execute(
        self, req: Request, faults: Optional[FaultPlan]
    ) -> Tuple[BrownoutInfo, SpGEMMResult]:
        """Run a popped request under this node's brownout rung.

        The rung is measured when the work *starts*, not when it was
        admitted.  ``req.workload`` (masked, chained, incremental — see
        :mod:`repro.graph`) runs in place of a plain multiply.
        """
        brownout = self.admission.brownout_mode(
            queue_depth=self.queue_depth, committed_bytes=self.committed
        )
        kw = dict(faults=faults, case_name=req.case_name, brownout=brownout)
        if req.workload is not None:
            res = req.workload(self.service, req.a, req.b, **kw)
        else:
            res = self.service.multiply(req.a, req.b, **kw)
        return brownout, res

    def start(
        self,
        req: Request,
        worker: int,
        now: float,
        service_s: float,
        res: SpGEMMResult,
        brownout: BrownoutInfo,
    ) -> None:
        """Occupy ``worker`` with a successful dispatch for ``service_s``."""
        self.workers[worker] = now + service_s
        self.inflight.append(
            InFlight(
                request=req,
                worker=worker,
                start_s=now,
                finish_s=now + service_s,
                result=res,
                cache_hit=res.decisions.get("plan_cache") == "hit",
                brownout_mode=brownout.mode,
            )
        )

    def complete(self, now: float) -> List[RequestOutcome]:
        """Outcomes of the in-flight requests finished by ``now``, in
        ``(finish, id)`` order."""
        due = [inf for inf in self.inflight if inf.finish_s <= now]
        if not due:
            return []
        self.inflight = [inf for inf in self.inflight if inf.finish_s > now]
        due.sort(key=lambda inf: (inf.finish_s, inf.request.id))
        return [
            RequestOutcome.terminal(
                inf.request,
                "ok",
                inf.finish_s,
                start_s=inf.start_s,
                cache_hit=inf.cache_hit,
                brownout_mode=inf.brownout_mode,
                result=inf.result,
            )
            for inf in due
        ]

    def settle(self, out: RequestOutcome) -> None:
        """Account one terminal state: free the request's committed bytes
        and count it in this node's ``scheduler.*`` metrics."""
        self.release(out.request_id)
        metrics = self.service.metrics
        metrics.counter(*_STATUS_COUNTERS[out.status]).inc()
        if out.ok:
            metrics.histogram(
                "scheduler.latency_s", "arrival to completion"
            ).observe(out.latency_s)
            metrics.histogram("scheduler.wait_s", "queue wait").observe(
                out.wait_s
            )

    def release(self, request_id: int) -> None:
        """Return a request's committed bytes (when it leaves the node)."""
        self.committed -= self.inflight_bytes.pop(request_id, 0)

    def note_served(self, *, hit: bool, fetched: bool) -> None:
        """Fold one dispatch into the first-100 local-hit window."""
        if self.first_100_served < 100:
            self.first_100_served += 1
            if hit and not fetched:
                self.first_100_local_hits += 1

    @property
    def first_100_hit_rate(self) -> float:
        if self.first_100_served == 0:
            return 0.0
        return self.first_100_local_hits / self.first_100_served

    def drain_for_failover(self) -> List[Request]:
        """Crash handling: strip all queued + in-flight requests.

        Returns them for rerouting; their committed bytes are released
        and the streams cleared.  The caller marks the node down.
        """
        stranded = [inf.request for inf in self.inflight] + [
            entry[-1] for entry in self.queue
        ]
        self.inflight.clear()
        self.queue.clear()
        for req in stranded:
            self.release(req.id)
        self.workers = [0.0] * len(self.workers)
        return stranded

    # ------------------------------------------------------------------
    def snapshot(self, now: float) -> Dict[str, object]:
        """Per-node slice of the fleet report (JSON-stable ordering)."""
        stats = self.service.plans.stats()
        return {
            "name": self.name,
            "device": self.device.name,
            "state": self.state,
            "degraded": self.degraded(now),
            "workers": len(self.workers),
            "dispatches": self.dispatches,
            "joined_at_s": self.joined_at_s,
            "first_100_hit_rate": self.first_100_hit_rate,
            "queue_depth": self.queue_depth,
            "sheds": self.admission.sheds,
            "shed_reasons": dict(sorted(self.admission.shed_reasons.items())),
            "plan_cache": {
                "hits": stats.hits,
                "misses": stats.misses,
                "inserts": stats.inserts,
                "evictions": stats.evictions,
                "rejects": stats.rejects,
                "refines": stats.refines,
                "entries": stats.entries,
                "bytes_cached": stats.bytes_cached,
                "hit_rate": stats.hit_rate,
            },
            "brownout_modes": dict(sorted(self.admission.brownout_modes.items())),
            "plan_store": (
                self.service.plan_store.stats()
                if self.service.plan_store is not None
                else None
            ),
            "metrics": self.service.metrics.snapshot(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ClusterNode({self.name!r}, {self.device.name!r}, "
            f"state={self.state!r}, queue={self.queue_depth})"
        )
