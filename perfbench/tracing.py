"""Span tracer for the benchmark.

The program has no instrumentation of its own, so the benchmark wraps the
program's entry points from outside.  A wrapper is installed wherever its
target is looked up: every ``repro.*`` module attribute bound to a target
function is replaced (``esc_multiply`` is imported by name into
``repro.core.context``, so patching ``repro.kernels.reference`` alone would
miss most calls), and methods are replaced on their class.

A span's *self time* is its duration minus the time its child spans cover,
so the self times of one replay add up to at most its wall time.  Spans of
an *opaque* layer (correctness work bundled into a public entry point)
absorb everything they call: inner wrappers pass straight through.
"""

from __future__ import annotations

import functools
import importlib
import sys
import weakref
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy.special import betainc

from repro.baselines import PAPER_LINEUP, registry
from repro.matrices import generators
from repro.serve.admission import BROWNOUT_MODES

#: The spECK engine's modelled stages (keys of ``SpGEMMResult.stage_times``).
MODELLED_STAGES = (
    "estimate", "analysis", "fallback", "symbolic_lb", "symbolic",
    "numeric_lb", "numeric", "sorting", "retry",
)
#: The paper's comparators (Table 3 columns other than spECK).
BASELINES = [name for name in PAPER_LINEUP if name != "spECK"]


@dataclass
class LayerStat:
    calls: int = 0
    self_s: float = 0.0


def quantile(samples, q: float) -> float:
    """Harrell–Davis estimate of the ``q`` quantile: a Beta-weighted mean of
    all order statistics.  Unlike a single order statistic it moves smoothly
    with the samples, so equal-cost requests do not pin it to one value."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    edges = betainc(q * (n + 1), (1 - q) * (n + 1), np.arange(n + 1) / n)
    return float(np.dot(np.diff(edges), x))


def products(a, b) -> int:
    """Intermediate products of ``A @ B`` (sum of B-row lengths over A's entries)."""
    return int(np.diff(b.indptr)[a.indices].sum())


class Tracer:
    """Records spans of wrapped calls while :attr:`active` is set."""

    def __init__(self) -> None:
        self.active = False
        self.layers: Dict[str, LayerStat] = {}
        self.counts: Dict[str, float] = {}
        self.samples: Dict[str, List[float]] = {}
        #: Plan caches touched, read back for their insert/evict totals.
        self.caches: Dict[int, object] = {}
        #: Service contexts handed out (weak: they hold exact products).
        self.contexts: "weakref.WeakSet" = weakref.WeakSet()
        #: Host seconds of hooks and calibration (excluded from every self time).
        self.hook_s = 0.0
        self._stack: List[List[float]] = []
        self._opaque = 0
        self._patches: List[Tuple[object, str, object]] = []
        self._products: Dict[Tuple[int, int], Tuple[object, object, int]] = {}
        #: The :class:`clock.Clock` of the replay in progress.
        self.clock = None

    # -- recording -------------------------------------------------------
    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def products_of(self, a, b) -> int:
        """Memoised :func:`products`; the memo holds the operands, so their
        ids stay theirs."""
        key = (id(a), id(b))
        hit = self._products.get(key)
        if hit is None:
            hit = self._products[key] = (a, b, products(a, b))
        return hit[2]

    def reset(self) -> None:
        self.layers.clear()
        self.counts.clear()
        self.samples.clear()
        self.caches.clear()
        self.contexts = weakref.WeakSet()
        self.hook_s = 0.0

    def wrap(
        self,
        layer: str,
        fn: Callable,
        hook: Optional[Callable] = None,
        *,
        timed: bool = True,
        opaque: bool = False,
        probe: bool = False,
    ) -> Callable:
        """``fn`` recording a span of ``layer`` (unless not ``timed``), then
        running ``hook(tracer, args, result)``.  A ``probe`` site lets the
        clock calibrate before the call; an ``opaque`` span pauses it."""
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active or tracer._opaque:
                return fn(*args, **kwargs)
            if probe:
                h0 = perf_counter()
                tracer.clock.probe()
                tracer._exclude(perf_counter() - h0, from_clock=False)
            if not timed:
                out = fn(*args, **kwargs)
            else:
                frame = [0.0]
                tracer._stack.append(frame)
                if opaque:
                    tracer._opaque += 1
                    tracer.clock.pause()
                t0 = perf_counter()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    dt = perf_counter() - t0
                    if opaque:
                        tracer._opaque -= 1
                        tracer.clock.paused_s += dt
                        tracer.clock.resume()
                    tracer._stack.pop()
                    stat = tracer.layers.setdefault(layer, LayerStat())
                    stat.calls += 1
                    stat.self_s += dt - frame[0]
                    if tracer._stack:
                        tracer._stack[-1][0] += dt
            if hook is not None:
                h0 = perf_counter()
                hook(tracer, args, out)
                tracer._exclude(perf_counter() - h0, from_clock=True)
            return out

        return functools.wraps(fn)(traced)

    def _exclude(self, spent: float, from_clock: bool) -> None:
        """Keep benchmark work (hooks, calibration) out of every self time
        and, unless the clock already paused for it, out of the clock."""
        self.hook_s += spent
        if self._stack:
            self._stack[-1][0] += spent
        if from_clock:
            self.clock.exclude(spent)

    # -- installation ------------------------------------------------------
    def install(self, layer: str, target: str, hook=None, **kw) -> None:
        """Wrap ``"module:name"`` or ``"module:Class.method"`` at every lookup site."""
        mod_name, _, qual = target.partition(":")
        owner = importlib.import_module(mod_name)
        *path, attr = qual.split(".")
        for part in path:
            owner = getattr(owner, part)
        fn = getattr(owner, attr)
        wrapped = self.wrap(layer, fn, hook, **kw)
        if path:  # a method: the class is its only lookup site
            self._patch(owner, attr, wrapped)
            return
        sites = [
            m for name, m in list(sys.modules.items())
            if (name == "repro" or name.startswith("repro.")) and m is not None
        ]
        for mod in sites:
            for name, val in list(vars(mod).items()):
                if val is fn:
                    self._patch(mod, name, wrapped)

    def _patch(self, owner: object, attr: str, new: object) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patches):
            setattr(owner, attr, old)
        self._patches.clear()


# ---------------------------------------------------------------------------
# Hooks: counts measured where the work happens
# ---------------------------------------------------------------------------
def _esc_hook(t: Tracer, args, c) -> None:
    a, b = args[0], args[1]
    n = products(a, b)
    t.count("kernels.esc.products", n)
    # Expanded (column, value) products plus the output arrays.
    t.count(
        "kernels.esc.computed_bytes",
        n * (c.indices.itemsize + c.data.itemsize)
        + c.indptr.nbytes + c.indices.nbytes + c.data.nbytes,
    )


def _engine_hook(t: Tracer, args, res) -> None:
    t.count("core.engine.retries", res.retries)
    for stage, v in res.stage_times.items():
        t.count(f"modelled.{stage}_s", v)
    if "estimate" in res.stage_times:
        t.count("estimate.speculative_cold")
        if not res.decisions.get("speculative_fallback"):
            t.count("estimate.bound_held")


def _execute_hook(t: Tracer, args, out) -> None:
    t.count("core.execute.products", args[2].prod_total)


def _cache_hook(t: Tracer, args, out) -> None:
    t.count("plan_cache.lookups")
    t.count("plan_cache.hits", int(out[1]))
    t.caches[id(args[0])] = args[0]


def _context_hook(t: Tracer, args, ctx) -> None:
    t.count("service.context_lookups")
    if ctx in t.contexts:
        t.count("service.context_hits")
    t.contexts.add(ctx)


def _served_hook(t: Tracer, args, res) -> None:
    if res.valid:
        p = t.products_of(args[1], args[2])
        t.count("served.products", p)
        t.samples.setdefault("served.gflops", []).append(2 * p / res.time_s / 1e9)


def _scheduler_hook(t: Tracer, args, outcomes) -> None:
    t.samples.setdefault("scheduler.wait_s", []).extend(
        o.wait_s for o in outcomes if o.ok
    )


def _admit_hook(t: Tracer, args, reject) -> None:
    t.count("admission.shed", reject is not None)


def _brownout_hook(t: Tracer, args, info) -> None:
    t.count(f"admission.brownout_{info.mode}")


def _place_hook(t: Tracer, args, out) -> None:
    t.count("cluster.placements")
    t.count("cluster.spills", out[1] == "spill")


def _completion_hook(t: Tracer, args, out) -> None:
    t.samples.setdefault("fleet.latency_s", []).append(args[1])


def _cluster_hook(t: Tracer, args, report) -> None:
    t.count("cluster.scale_ups", report.autoscale.get("scale_ups", 0))
    t.count("cluster.warm_join_plans", report.autoscale.get("warm_join_plans", 0))
    t.count("cluster.plan_fetches", report.plan_fetches)


#: (layer, target, hook) — every span the traced run records.
LAYERS: Sequence[Tuple[str, str, Optional[Callable]]] = (
    *(("matrices.generate", f"repro.matrices.generators:{g}", None) for g in generators.__all__),
    ("matrices.fingerprint", "repro.matrices.csr:CSR.fingerprint", None),
    ("matrices.fingerprint", "repro.matrices.csr:CSR.fingerprint_values", None),
    ("kernels.esc", "repro.kernels.reference:esc_multiply", _esc_hook),
    ("core.analysis", "repro.core.analysis:analyze", None),
    ("core.passes", "repro.core.passes:run_pass", None),
    ("core.lb", "repro.core.global_lb:uniform_plan", None),
    ("core.lb", "repro.core.global_lb:balanced_plan", None),
    ("core.lb", "repro.core.global_lb:load_balance_time_s", None),
    ("core.engine", "repro.core.speck:SpeckEngine.multiply", _engine_hook),
    ("core.execute", "repro.core.batch_execute:execute_batched", _execute_hook),
    ("core.execute", "repro.core.batch_execute:execute_scalar", _execute_hook),
    ("gpu.schedule", "repro.gpu.schedule:makespan_cycles", None),
    ("gpu.schedule", "repro.gpu.schedule:grouped_kernel_times", None),
    ("gpu.schedule", "repro.gpu.schedule:kernel_time_s", None),
    ("gpu.schedule", "repro.gpu.schedule:KernelLaunch.time_s", None),
    *(
        (f"baselines.{name}", f"{cls.__module__}:{cls.__qualname__}.run", None)
        for name, cls in registry().items()
        if name in BASELINES
    ),
    ("eval.harness", "repro.eval.harness:run_suite", None),
    ("eval.harness", "repro.eval.harness:evaluate_case", None),
    ("estimate", "repro.estimate.sampler:estimate_multiply", None),
    ("plan_cache.get_or_create", "repro.serve.plan_cache:PlanCache.get_or_create", _cache_hook),
    ("plan_cache.stats", "repro.serve.plan_cache:PlanCache.stats", None),
    ("plan_ir.checksum", "repro.serve.plan_ir:plan_checksum", None),
    ("service.multiply", "repro.serve.service:SpGEMMService.multiply", _served_hook),
    ("service.context", "repro.serve.service:SpGEMMService.context_for", _context_hook),
    ("scheduler", "repro.serve.scheduler:ServeScheduler.run", _scheduler_hook),
    ("admission", "repro.serve.admission:AdmissionController.admit", _admit_hook),
    ("admission", "repro.serve.admission:AdmissionController.brownout_mode", _brownout_hook),
    ("metrics.observe", "repro.serve.metrics:Histogram.observe", None),
    ("cluster.loop", "repro.cluster.bench:run_cluster_bench", _cluster_hook),
    ("cluster.router.place", "repro.cluster.router:ClusterRouter.place", _place_hook),
    ("cluster.autoscaler", "repro.cluster.autoscaler:Autoscaler.evaluate", None),
    ("cluster.metrics", "repro.cluster.metrics:FleetMetrics.completion", _completion_hook),
)

#: Correctness work a public entry point bundles (reported, never program time).
VERIFY: Sequence[str] = (
    "repro.cluster.bench:_reference_digests",
    "repro.cluster.bench:_verify_execute_identical",
)


#: Calls between which the clock may calibrate (see ``clock.py``): at least
#: one is called every few milliseconds in every workload.
PROBE_SITES = (
    "repro.eval.harness:evaluate_case",
    "repro.core.speck:SpeckEngine.multiply",
    "repro.core.passes:run_pass",
    "repro.serve.service:SpGEMMService.multiply",
)


def install(tracer: Tracer, traced: bool) -> None:
    """Wrap every layer for a traced replay, or for an untraced one only the
    calibration probes, the hooks the fleet's metrics need (served products,
    per-request latencies), and the opaque verification spans."""
    needed = PROBE_SITES + ("repro.cluster.metrics:FleetMetrics.completion",)
    for layer, target, hook in LAYERS:
        if traced or target in needed:
            tracer.install(
                layer, target, hook, timed=traced, probe=target in PROBE_SITES
            )
    for target in VERIFY:
        tracer.install("verify", target, opaque=True)


# ---------------------------------------------------------------------------
# The per-layer ledger
# ---------------------------------------------------------------------------
def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tracer: Tracer, traced, untraced_ref_s: float, import_s: float, dominant):
    """Per-layer metrics, the ledger table, and the coverage self-check's
    problems for one traced replay."""
    layer = lambda n: tracer.layers.get(n, LayerStat())  # noqa: E731
    count = lambda n: tracer.counts.get(n, 0)  # noqa: E731
    waits = tracer.samples.get("scheduler.wait_s", [0.0])
    caches = tracer.caches.values()
    total_self = sum(s.self_s for s in tracer.layers.values())
    values = {"import.wall_s": import_s}
    for name, fields in (
        ("matrices.generate", ("self_s",)),
        ("matrices.fingerprint", ("calls", "self_s")),
        ("kernels.esc", ("calls", "self_s")),
        ("core.analysis", ("self_s",)),
        ("core.passes", ("calls", "self_s")),
        ("core.lb", ("self_s",)),
        ("core.engine", ("self_s",)),
        ("core.execute", ("calls", "self_s")),
        ("gpu.schedule", ("calls", "self_s")),
        *((f"baselines.{b}", ("self_s",)) for b in BASELINES),
        ("eval.harness", ("self_s",)),
        ("estimate", ("calls", "self_s")),
        ("plan_cache.get_or_create", ("self_s",)),
        ("plan_cache.stats", ("calls", "self_s")),
        ("plan_ir.checksum", ("self_s",)),
        ("service.multiply", ("calls", "self_s")),
        ("scheduler", ("self_s",)),
        ("metrics.observe", ("calls", "self_s")),
        ("cluster.loop", ("self_s",)),
        ("cluster.router.place", ("self_s",)),
        ("cluster.autoscaler", ("self_s",)),
        ("verify", ("self_s",)),
    ):
        for f in fields:
            values[f"{name}.{f}"] = getattr(layer(name), f)
    values.update({
        "kernels.esc.products": count("kernels.esc.products"),
        "kernels.esc.computed_bytes": count("kernels.esc.computed_bytes"),
        "core.engine.retries": count("core.engine.retries"),
        "core.execute.products": count("core.execute.products"),
        **{f"modelled.{s}_s": count(f"modelled.{s}_s") for s in MODELLED_STAGES},
        "eval.speck_t_over_best": traced.outcome.get("t_over_best", 0.0),
        "estimate.bound_held_ratio": _ratio(
            count("estimate.bound_held"), count("estimate.speculative_cold")
        ),
        "plan_cache.lookups": count("plan_cache.lookups"),
        "plan_cache.hit_ratio": _ratio(count("plan_cache.hits"), count("plan_cache.lookups")),
        "plan_cache.inserts": sum(c.inserts for c in caches),
        "plan_cache.evictions": sum(c.evictions for c in caches),
        "service.context_hit_ratio": _ratio(
            count("service.context_hits"), count("service.context_lookups")
        ),
        "scheduler.queue_wait_p50_ms": quantile(waits, 0.5) * 1e3,
        "scheduler.queue_wait_p99_ms": quantile(waits, 0.99) * 1e3,
        "admission.shed": count("admission.shed"),
        **{f"admission.brownout_{r}": count(f"admission.brownout_{r}") for r in BROWNOUT_MODES},
        "cluster.router.spill_ratio": _ratio(count("cluster.spills"), count("cluster.placements")),
        "cluster.scale_ups": count("cluster.scale_ups"),
        "cluster.warm_join_plans": count("cluster.warm_join_plans"),
        "cluster.plan_fetches": count("cluster.plan_fetches"),
        "trace.unattributed_s": traced.raw_wall_s - total_self,
        "trace.overhead_ratio": _ratio(traced.ref_s, untraced_ref_s),
    })

    wall = traced.raw_wall_s
    rows = [
        "| Layer | Calls | Self (s) | Computed bytes | Share of wall |",
        "|---|---:|---:|---:|---:|",
    ]
    for name, s in sorted(tracer.layers.items(), key=lambda kv: -kv[1].self_s):
        nbytes = count("kernels.esc.computed_bytes") if name == "kernels.esc" else None
        rows.append(
            f"| {name} | {s.calls} | {s.self_s:.4f} | "
            f"{'—' if nbytes is None else f'{nbytes:.3e}'} | {100 * s.self_s / wall:.1f}% |"
        )
    rows.append(
        f"| (unattributed) | — | {wall - total_self:.4f} | — | "
        f"{100 * (wall - total_self) / wall:.1f}% |"
    )
    rows.append(f"| (benchmark hooks, calibration; excluded) | — | {tracer.hook_s:.4f} | — | — |")
    rows.append(
        f"traced {traced.ref_s:.3f} reference s, untraced {untraced_ref_s:.3f}, "
        f"overhead x{values['trace.overhead_ratio']:.3f}"
    )

    problems = [
        f"layer {name} recorded no calls (wrapper at the wrong lookup site?)"
        for name in dominant
        if layer(name).calls == 0
    ]
    if total_self > wall:
        problems.append(f"self times sum to {total_self:.6f} s, more than the traced wall {wall:.6f} s")
    return values, "\n".join(rows), problems
