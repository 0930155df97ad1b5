"""The benchmark's four workloads (see NOTES.md for why each exists).

Every workload is built from a seed, then *replayed*: a replay repeats the
identical work from the same inputs, so its virtual (modelled) results must
be bit-equal to every other replay's, and its host time is one sample of
the host cost.  Outputs are checked outside the timed region.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.cluster import bench as cluster_bench
from repro.core.speck import SpeckEngine
from repro.estimate import RowEstimator
from repro.eval import harness
from repro.eval.metrics import compute_table3
from repro.eval.suite import MatrixCase, full_corpus
from repro.gpu import TITAN_V
from repro.kernels.reference import esc_multiply
from repro.matrices import generators as gen
from repro.matrices.csr import CSR
from repro.serve import workload as serve_workload
from repro.serve.scheduler import ServeScheduler
from repro.serve.service import SpGEMMService

from clock import Clock
from tracing import Tracer, products, quantile

#: Virtual latency limit per workload, seconds: a multiplication or request
#: that takes longer (or is shed, timed out, failed or wrong) misses the SLO.
SLO_S = {
    "corpus_sweep": 1e-3,
    "corpus_execute": 1e-3,
    "serve_churn": 0.5e-3,
    "fleet_hot": 10e-3,
}
#: Failure kinds that model a comparator's documented limits (device memory,
#: per-row accumulator budgets).  Like the paper's Table 3 ``#inv.`` row they
#: are results of the simulation, not faults of the program.
MODELLED_LIMITS = ("oom", "overflow", "limitation")


@dataclass
class Replay:
    """One replay's measurements."""

    #: Host seconds the program worked (verification and calibration excluded).
    wall_s: float
    #: The same work in reference seconds (see ``clock.py``).
    ref_s: float
    #: Host seconds inside the timed region, bundled verification included.
    raw_wall_s: float
    #: Peak resident memory while the program worked, MB.
    peak_rss_mb: float
    #: Multiplications (corpus) or requests (serving) completed.
    ops: int
    #: Intermediate products of the completed operations.
    products: int
    attempted: int
    failed: int
    #: Modelled results; bit-equal across replays of one seed.
    virtual: Dict[str, float]
    #: Latency samples behind the virtual percentiles.
    samples: int
    #: Further modelled outcomes (counts), held to the same determinism check.
    outcome: Dict[str, object] = field(default_factory=dict)
    #: Output digests to verify: case name -> Counter(digest -> count).
    digests: Dict[str, Counter] = field(default_factory=dict)


def digest(c) -> str:
    """Bit-level digest of a CSR matrix: shape, dtypes and raw array bytes."""
    h = hashlib.blake2b(digest_size=16)
    h.update(repr((c.shape, c.indptr.dtype.str, c.indices.dtype.str, c.data.dtype.str)).encode())
    for arr in (c.indptr, c.indices, c.data):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def late_bound(factory: Callable[[], List[MatrixCase]]) -> List[MatrixCase]:
    """Build a corpus whose cases look their generator up when they are built.

    The corpus factories bind ``generators.<fn>`` when called, so forwarding
    wrappers are swapped in only for the duration of that call.  A case then
    reaches whatever ``generators.<fn>`` is at build time, which keeps it
    visible to the tracer's wrappers.
    """

    def forward(name: str):
        return lambda *args, **kwargs: getattr(gen, name)(*args, **kwargs)

    originals = {name: getattr(gen, name) for name in gen.__all__}
    try:
        for name in originals:
            setattr(gen, name, forward(name))
        return factory()
    finally:
        for name, fn in originals.items():
            setattr(gen, name, fn)


@dataclass
class ShuffledCase(MatrixCase):
    """A corpus case multiplied as ``(P·A)·B``, ``P`` a seeded row permutation.

    ``B`` is the case's own right operand, so every row of C has the same
    structure and work as in the paper's corpus; only the order of the rows,
    and with it the modelled grouping of rows into blocks, follows the seed.
    """

    seed: tuple = ()

    def matrices(self):
        if self._cache is None:
            a, b = super().matrices()
            perm = np.random.default_rng(list(self.seed)).permutation(a.shape[0])
            self._cache = (a.select_rows(perm), b)
        return self._cache


def shuffled(factory: Callable[[], List[MatrixCase]], seed: int) -> List[MatrixCase]:
    """The corpus with fixed structures and each left operand's rows in an
    order drawn from ``seed``.

    Reseeding the structures instead made the corpus tail bimodal: on 3 of
    26 seeds one case (``skew_n60000_l8000`` or ``er_n30000_k16``) crossed a
    threshold of the model and took 1.77–2.03 ms instead of under 0.6 ms,
    which moved the virtual p99 from 0.67 to 1.4–1.6 ms.
    """
    return [
        ShuffledCase(
            name=c.name, family=c.family, build_a=c.build_a,
            rectangular=c.rectangular, tags=c.tags, seed=(seed, i),
        )
        for i, c in enumerate(late_bound(factory))
    ]


def revalued(cases: List[MatrixCase], seed: int) -> List[MatrixCase]:
    """The same square operands with values drawn from the workload seed.

    Serving workloads keep their operand *structures* fixed: on the churn
    set, reseeding the structures moved the virtual p99 by 14% (quartile
    spread over six seeds), so a seed-drawn structure set would hide any
    regression smaller than that.  Values follow the generators'
    distribution, ±U(0.5, 1.5).
    """
    out = []
    for i, case in enumerate(cases):
        a, _ = case.matrices()
        rng = np.random.default_rng([seed, i])
        values = rng.uniform(0.5, 1.5, a.nnz) * rng.choice([-1.0, 1.0], a.nnz)
        m = CSR(a.indptr, a.indices, values, a.shape, check=False)
        out.append(MatrixCase(name=case.name, family=case.family, build_a=lambda m=m: m))
    return out


def pin_popularity(cases: List[MatrixCase], seed: int) -> List[MatrixCase]:
    """Order ``cases`` so that ``build_requests`` gives popularity rank ``r``
    to ``cases[r]`` for every seed.

    ``build_requests`` ranks cases by a seeded permutation drawn first from
    ``default_rng(seed)``.  Pinning the ranks keeps the seed's influence to
    arrivals, priorities and operand draws; a seed-chosen hot set would make
    the virtual tail vary more between seeds than any regression worth
    catching.
    """
    order = np.random.default_rng(seed).permutation(len(cases))
    pinned: List[Optional[MatrixCase]] = [None] * len(cases)
    for rank, case in enumerate(cases):
        pinned[int(order[rank])] = case
    return pinned


def _case(name: str, family: str, fn: Callable, *args, **kwargs) -> MatrixCase:
    return MatrixCase(name=name, family=family, build_a=lambda: fn(*args, **kwargs))


def churn_corpus() -> List[MatrixCase]:
    """48 operands, 8 sizes in each of six families, all of similar modelled
    cost (≈35–120 µs) so that no single case dominates the latency tail."""
    cases = []
    for k in range(8):
        cases += [
            _case(f"banded_{k}", "banded", gen.banded, 3000 + 400 * k, 4, seed=k),
            _case(f"mesh_{k}", "mesh", gen.poisson2d, 60 + 4 * k, seed=k),
            _case(f"rmat_{k}", "powerlaw", gen.rmat, 10, 4 + k % 3, seed=k),
            _case(
                f"er_{k}", "uniform", gen.random_uniform,
                4000 + 400 * k, 4000 + 400 * k, 6.0, seed=k,
            ),
            _case(f"stripe_{k}", "stripe", gen.dense_stripe, 600 + 50 * k, 192, 12, seed=k),
            _case(f"circuit_{k}", "circuit", gen.circuit, 6000 + 600 * k, seed=k),
        ]
    return cases


def latency_metrics(
    latencies_s: List[float], gflops: List[float], within: int, window_s: float
) -> Dict[str, float]:
    return {
        "virtual_p50_ms": quantile(latencies_s, 0.5) * 1e3,
        "virtual_p99_ms": quantile(latencies_s, 0.99) * 1e3,
        "slo_goodput_rps": within / window_s,
        "speck_gflops_geomean": float(np.exp(np.mean(np.log(gflops)))),
    }


class Workload:
    name = ""
    #: Layers that must record calls in a traced replay (coverage self-check).
    dominant: tuple = ()

    def __init__(self) -> None:
        #: Wrong or failed outputs found so far, one line each.
        self.problems: List[str] = []

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def replay(self, tracer: Tracer) -> Replay:
        raise NotImplementedError

    def verify(self, replays: List[Replay]) -> List[str]:
        """Problems found in the replays' outputs, counted into their
        ``failed`` (empty when every output is correct)."""
        return list(self.problems)


class CorpusSweep(Workload):
    """``run_suite`` over the full corpus with the paper line-up, sequential."""

    name = "corpus_sweep"
    dominant = (
        "eval.harness", "matrices.generate", "kernels.esc", "core.analysis",
        "core.passes", "core.engine", "gpu.schedule",
        "baselines.cuSPARSE", "baselines.AC-SpGEMM", "baselines.nsparse",
        "baselines.RMerge", "baselines.bhSPARSE", "baselines.Kokkos", "baselines.MKL",
    )

    def setup(self, seed: int) -> None:
        self.cases = shuffled(full_corpus, seed)

    def replay(self, tracer: Tracer) -> Replay:
        clock = Clock(tracer)
        with clock.timed():
            res = harness.run_suite(self.cases, workers=1)
        speck = [r for r in res.runs if r.method == "spECK" and r.valid]
        flops = {name: m.flops for name, m in res.matrices.items()}
        lat = [r.time_s for r in speck]
        slo = SLO_S[self.name]
        table3 = compute_table3(res)
        failed = [
            r for r in res.runs
            if not r.valid and (
                r.method == "spECK"
                or r.failure_info is None
                or r.failure_info.kind not in MODELLED_LIMITS
            )
        ]
        self.problems += [f"{r.method} on {r.matrix}: {r.failure}" for r in failed]
        return Replay(
            wall_s=clock.wall_s,
            ref_s=clock.ref_s,
            raw_wall_s=clock.raw_wall_s,
            peak_rss_mb=clock.peak_rss_mb,
            ops=len(res.matrices),
            products=sum(m.products for m in res.matrices.values()),
            attempted=len(res.runs),
            failed=len(failed),
            virtual=latency_metrics(
                lat,
                [flops[r.matrix] / r.time_s / 1e9 for r in speck],
                sum(t <= slo for t in lat),
                sum(lat),
            ),
            samples=len(lat),
            outcome={
                "inv": {m: s.n_invalid for m, s in sorted(table3.items())},
                "t_over_best": table3["spECK"].t_rel,
            },
        )


class CorpusExecute(Workload):
    """``SpeckEngine.multiply(mode="execute")`` on every corpus case."""

    name = "corpus_execute"
    dominant = (
        "matrices.generate", "kernels.esc", "core.analysis", "core.passes",
        "core.engine", "core.execute",
    )

    def setup(self, seed: int) -> None:
        self.cases = shuffled(full_corpus, seed)
        self.engine = SpeckEngine(TITAN_V)
        #: Digest of each case's first checked C; later replays must match it.
        self.checked: Dict[str, str] = {}

    def replay(self, tracer: Tracer) -> Replay:
        clock = Clock(tracer)
        lat, gflops, failed, n_products = [], [], 0, 0
        for case in self.cases:
            with clock.timed():
                a, b = case.matrices()
                res = self.engine.multiply(a, b, mode="execute")
            p = products(a, b)
            n_products += p
            problem = "invalid result" if not res.valid or res.c is None else ""
            if not problem:
                lat.append(res.time_s)
                gflops.append(2 * p / res.time_s / 1e9)
                d = digest(res.c)
                if case.name not in self.checked:
                    # The accumulators sum each entry's terms in another order
                    # than ESC's stable sort, so values may differ in the last
                    # bits: structure must match exactly, values to allclose's
                    # default tolerance (the repo's own execute tests' check).
                    if not esc_multiply(a, b).allclose(res.c):
                        problem = "C differs from the ESC reference"
                    self.checked[case.name] = d
                elif self.checked[case.name] != d:
                    problem = "C differs bit-wise from the first replay's"
            if problem:
                failed += 1
                self.problems.append(f"{case.name}: {problem}")
            del res
            case.release()
        slo = SLO_S[self.name]
        return Replay(
            wall_s=clock.wall_s,
            ref_s=clock.ref_s,
            raw_wall_s=clock.raw_wall_s,
            peak_rss_mb=clock.peak_rss_mb,
            ops=len(self.cases),
            products=n_products,
            attempted=len(self.cases),
            failed=failed,
            virtual=latency_metrics(lat, gflops, sum(t <= slo for t in lat), sum(lat)),
            samples=len(lat),
            outcome={"invalid": failed},
        )



class ServeChurn(Workload):
    """One node (service + scheduler) under an open loop near its capacity,
    with a plan cache smaller than the working set."""

    name = "serve_churn"
    dominant = (
        "scheduler", "admission", "service.multiply", "plan_cache.get_or_create",
        "plan_cache.stats", "estimate", "core.engine", "core.passes", "gpu.schedule",
        "kernels.esc",
    )
    #: Offered load, virtual requests per second (one node serves ≈50k/s).
    RATE = 22_000.0
    DURATION_S = 0.3
    ZIPF_ALPHA = 0.7
    #: Plan-cache budget: ≈60% of the working set's plans.
    PLAN_CACHE_BYTES = 5_000_000
    WORKERS = 2

    def setup(self, seed: int) -> None:
        self.cases = pin_popularity(revalued(churn_corpus(), seed), seed)
        self.spec = serve_workload.WorkloadSpec(
            rate=self.RATE, duration_s=self.DURATION_S, zipf_alpha=self.ZIPF_ALPHA,
            timeout_s=0.25, seed=seed,
        )
        self.products = {}
        for case in self.cases:
            a, b = case.matrices()
            self.products[case.name] = products(a, b)
        self._node()

    def _node(self):
        estimator = RowEstimator(TITAN_V)
        service = SpGEMMService(
            TITAN_V,
            plan_cache_bytes=self.PLAN_CACHE_BYTES,
            context_cache_entries=len(self.cases),
            speculative=True,
            estimator=estimator,
        )
        scheduler = ServeScheduler(
            service, n_workers=self.WORKERS, default_timeout_s=self.spec.timeout_s,
            estimator=estimator,
        )
        return scheduler, serve_workload.build_requests(self.cases, self.spec)

    def replay(self, tracer: Tracer) -> Replay:
        scheduler, requests = self._node()
        clock = Clock(tracer)
        with clock.timed():
            outcomes = scheduler.run(requests)
        ok = [o for o in outcomes if o.ok]
        lat = [o.latency_s for o in ok]
        slo = SLO_S[self.name]
        memo: Dict[int, str] = {}
        digests: Dict[str, Counter] = {}
        for o in ok:
            c = o.result.c
            d = memo.get(id(c))
            if d is None:
                d = memo[id(c)] = digest(c)
            digests.setdefault(o.case_name, Counter())[d] += 1
        return Replay(
            wall_s=clock.wall_s,
            ref_s=clock.ref_s,
            raw_wall_s=clock.raw_wall_s,
            peak_rss_mb=clock.peak_rss_mb,
            ops=len(ok),
            products=sum(self.products[o.case_name] for o in ok),
            attempted=len(outcomes),
            failed=sum(1 for o in outcomes if o.status == "failed"),
            virtual=latency_metrics(
                lat,
                [2 * self.products[o.case_name] / o.result.time_s / 1e9 for o in ok],
                sum(t <= slo for t in lat),
                self.spec.duration_s,
            ),
            samples=len(lat),
            outcome=dict(
                Counter(o.status for o in outcomes),
                hits=sum(o.cache_hit for o in ok),
            ),
            digests=digests,
        )

    def verify(self, replays: List[Replay]) -> List[str]:
        """Every served C must equal the exact ESC product bit for bit (the
        model-mode result *is* that product, shared through the service's
        context cache)."""
        for case in self.cases:
            a, b = case.matrices()
            ref = digest(esc_multiply(a, b))
            for i, r in enumerate(replays):
                bad = sum(n for d, n in r.digests.get(case.name, {}).items() if d != ref)
                if bad:
                    r.failed += bad
                    self.problems.append(f"replay {i}: {bad} wrong results on {case.name}")
        return list(self.problems)


class FleetHot(Workload):
    """``run_cluster_bench`` at ≈4× one node's capacity, autoscaling up from
    two nodes, over the seven-operand serving corpus."""

    name = "fleet_hot"
    dominant = (
        "cluster.loop", "cluster.router.place", "cluster.autoscaler",
        "cluster.metrics", "admission", "service.multiply",
        "plan_cache.get_or_create", "metrics.observe", "matrices.fingerprint",
        "verify",
    )
    RATE = 80_000.0
    DURATION_S = 0.4
    ZIPF_ALPHA = 1.1

    def setup(self, seed: int) -> None:
        self.cases = pin_popularity(revalued(serve_workload.serve_corpus(), seed), seed)
        for case in self.cases:
            case.matrices()
        self.spec = serve_workload.WorkloadSpec(
            rate=self.RATE, duration_s=self.DURATION_S, zipf_alpha=self.ZIPF_ALPHA,
            timeout_s=0.05, seed=seed,
        )
        self.cluster = cluster_bench.ClusterSpec(
            n_nodes=2, autoscale=True, min_nodes=2, max_nodes=6,
            target_p99_s=0.0005, seed=seed,
        )
        self.replays = 0

    def replay(self, tracer: Tracer) -> Replay:
        clock = Clock(tracer)
        with clock.timed():
            report = cluster_bench.run_cluster_bench(
                cases=self.cases, spec=self.spec, cluster=self.cluster,
                compare_single=False,
            )
        lat = tracer.samples.get("fleet.latency_s", [])
        slo = SLO_S[self.name]
        failed = report.failed + report.wrong_results
        checks = {
            "outputs match the single-node reference bit for bit": report.bit_identical,
            "every offered request ends exactly once": report.conservation_ok,
            "one latency sample per completion": len(lat) == report.completed,
        }
        for what, ok in checks.items():
            if not ok:
                self.problems.append(f"replay {self.replays}: not true that {what}")
                failed += 1
        self.replays += 1
        return Replay(
            wall_s=clock.wall_s,
            ref_s=clock.ref_s,
            raw_wall_s=clock.raw_wall_s,
            peak_rss_mb=clock.peak_rss_mb,
            ops=report.completed,
            products=int(tracer.counts.get("served.products", 0)),
            attempted=report.offered,
            failed=failed,
            virtual=latency_metrics(
                lat,
                tracer.samples.get("served.gflops", []),
                sum(t <= slo for t in lat),
                self.spec.duration_s,
            ),
            samples=len(lat),
            outcome={
                "completed": report.completed, "shed": report.shed,
                "timed_out": report.timed_out, "spilled": report.spilled,
                "scale_ups": report.autoscale.get("scale_ups", 0),
            },
        )


WORKLOADS = {w.name: w for w in (CorpusSweep, CorpusExecute, ServeChurn, FleetHot)}
