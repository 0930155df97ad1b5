"""Request scheduling: bounded queue, priorities, deadlines, retries.

The scheduler turns the synchronous :class:`~repro.serve.service.SpGEMMService`
into a *service under load*: requests arrive on an open-loop timeline, an
:class:`~repro.serve.admission.AdmissionController` sheds what the queue
or the device cannot absorb, and a pool of simulated workers (device
streams) drains the queue in priority order.

There is one serving loop in the repository: :meth:`ServeScheduler.run`
is a one-node run of the fleet's event loop
(:func:`repro.cluster.bench.run_fleet`), and the per-request work —
admission, queue order, deadline expiry, the brownout rung, execution,
committed-byte accounting, the outcome — lives on
:class:`~repro.cluster.node.ClusterNode`.  Requests are not batched:
the plan cache already serves a same-structure request as a hit, and a
request served in a batch still pays its own modelled time, so same-A
batching only reordered the queue (at 10x overload it cost serve-bench
p99 40%: 21.3 ms with it, 15.2 ms without).

Time is *virtual* and driven by the cost model: a worker that starts a
request at ``t`` is busy until ``t + result.time_s``.  This mirrors how
the whole repository treats the simulated device — host-side compute is
real, wall time is modelled — and makes every run exactly reproducible
from the workload seed.

Failure semantics use the :class:`~repro.faults.FailureInfo` taxonomy
end to end: engine failures surface as invalid results; retryable ones
are re-placed up to ``max_retries`` times; queue deadline misses become
``kind="timeout"`` infos; sheds carry the admission controller's
:class:`~repro.serve.admission.ServiceReject`.  Nothing here raises on a
per-request basis.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Iterable, List, Optional

from ..core.context import device_csr_bytes
from ..estimate import RowEstimator
from ..faults import FailureInfo, FaultPlan
from ..matrices.csr import CSR
from ..result import SpGEMMResult
from .admission import AdmissionController, AdmissionPolicy, ServiceReject
from .service import SpGEMMService

__all__ = ["Request", "RequestOutcome", "ServeScheduler"]


@dataclass
class Request:
    """One SpGEMM request on the service timeline.

    ``priority`` 0 is most urgent; ties break by arrival order.  A request
    whose queue wait exceeds ``timeout_s`` is dropped with a structured
    timeout instead of occupying a worker.
    """

    id: int
    a: CSR
    b: CSR
    arrival_s: float
    priority: int = 1
    timeout_s: Optional[float] = None
    case_name: str = ""
    #: Scheduler-level re-executions consumed so far.
    attempts: int = 0
    #: Optional workload executor for non-plain requests (masked, chained,
    #: incremental — see :mod:`repro.graph`).  Called as
    #: ``workload(service, a, b, faults=..., case_name=..., brownout=...)``
    #: and must return an :class:`~repro.result.SpGEMMResult`; ``None``
    #: dispatches a plain ``service.multiply``.
    workload: Optional[Callable[..., SpGEMMResult]] = None

    def input_bytes(self) -> int:
        return device_csr_bytes(self.a.rows, self.a.nnz) + device_csr_bytes(
            self.b.rows, self.b.nnz
        )


@dataclass
class RequestOutcome:
    """Terminal state of one request: served, shed, timed out, or failed."""

    request_id: int
    case_name: str
    status: str  # "ok" | "shed" | "timeout" | "failed"
    arrival_s: float
    start_s: float = 0.0
    finish_s: float = 0.0
    cache_hit: bool = False
    attempts: int = 0
    #: Brownout rung the dispatch planned under ("full" when unloaded).
    brownout_mode: str = "full"
    result: Optional[SpGEMMResult] = None
    reject: Optional[ServiceReject] = None
    info: Optional[FailureInfo] = None

    @classmethod
    def terminal(
        cls, req: Request, status: str, finish_s: float, **fields
    ) -> "RequestOutcome":
        """The outcome of ``req`` reaching ``status`` at ``finish_s``."""
        return cls(
            request_id=req.id,
            case_name=req.case_name,
            status=status,
            arrival_s=req.arrival_s,
            finish_s=finish_s,
            attempts=req.attempts,
            **fields,
        )

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def latency_s(self) -> float:
        """Arrival-to-finish latency (0 for requests never served)."""
        return max(0.0, self.finish_s - self.arrival_s)

    @property
    def wait_s(self) -> float:
        return max(0.0, self.start_s - self.arrival_s)


class ServeScheduler:
    """One serving node over a worker pool, in virtual time.

    :meth:`run` is a one-node run of the fleet's event loop
    (:func:`repro.cluster.bench.run_fleet`): admission, queue order and
    deadlines, the brownout rung, retries and workload dispatch are the
    fleet's, so the two cannot drift apart.

    Parameters
    ----------
    service:
        The synchronous core executing each multiply.
    n_workers:
        Concurrent device streams; each serves one request at a time.
    policy:
        Admission thresholds (queue bound, memory headroom).
    max_retries:
        Re-placements of a retryable failed request, *on top of* the
        engine's own internal fallback attempt (subject to the fleet
        loop's retry budget).
    default_timeout_s:
        Queue deadline applied to requests that carry none.
    faults:
        Optional fault plan threaded into every multiply (CI smoke runs).
    estimator:
        Optional :class:`~repro.estimate.RowEstimator`.  When set, the
        admission memory-headroom check uses the sampled footprint bound
        instead of the blind ``output_factor`` heuristic, and the queue
        orders cheaper requests first within a priority class (see
        :meth:`repro.cluster.node.ClusterNode.admit`).
    """

    def __init__(
        self,
        service: SpGEMMService,
        *,
        n_workers: int = 4,
        policy: Optional[AdmissionPolicy] = None,
        max_retries: int = 1,
        default_timeout_s: Optional[float] = None,
        faults: Optional[FaultPlan] = None,
        estimator: Optional[RowEstimator] = None,
    ) -> None:
        if n_workers < 1:
            raise ValueError("need at least one worker")
        self.service = service
        self.n_workers = int(n_workers)
        self.admission = AdmissionController(service.device, policy)
        self.max_retries = int(max_retries)
        self.default_timeout_s = default_timeout_s
        self.faults = faults
        self.estimator = estimator

    def run(self, requests: Iterable[Request]) -> List[RequestOutcome]:
        """Drain an arrival timeline; returns one outcome per request,
        in the order requests reached their terminal state.

        After the last arrival the queue keeps draining until empty
        (open-loop workload, bounded by admission control, never by
        crashing).
        """
        # The cluster package builds on this module, so it is imported
        # here rather than at module level.
        from ..cluster.bench import ClusterSpec, run_fleet
        from ..cluster.node import ClusterNode

        node = ClusterNode(
            "node-0",
            self.service,
            self.admission,
            n_workers=self.n_workers,
            estimator=self.estimator,
        )
        if self.default_timeout_s is not None:
            requests = [
                r if r.timeout_s is not None
                else replace(r, timeout_s=self.default_timeout_s)
                for r in requests
            ]
        return run_fleet(
            requests,
            {node.name: node},
            ClusterSpec(n_nodes=1, max_retries=self.max_retries),
            faults=self.faults,
        ).outcomes
