"""Workload ``figures``: the paper's Figure 8, Figure 9 and Table 3 drivers in-process.

One round regenerates the three experiments for every benchmark of the
set on a cold result cache (one fresh operation per benchmark), each
followed by ``hits_per_fresh`` identical reruns served from the now-warm
cache.  Traces are generated into a private store during set-up, so the
timed phase is replay (LT-cords, DBCP, GHB through the default engine)
plus the timing model.

A hit is compared with its fresh result as soon as it has run, and only
the error strings are kept, so the benchmark holds one figure set per
fresh operation and ``peak_rss_mb`` counts the program's memory, not a
thousand copies of its results.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from common import Outcome, Tracer, Workspace, median, self_peak_rss_mb
from reference import LRUReference, check_same, check_timing_baseline, check_trace_result


#: Trace length: LT-cords coverage is 0 on mcf at 20k and 50k accesses.
NUM_ACCESSES = 100_000


@dataclass(frozen=True)
class FiguresConfig:
    #: mcf, the paper's pointer-chasing headline: LT-cords trains on it at
    #: 100k accesses for every seed tried.  One benchmark keeps a round
    #: (~16 s) inside one run.
    benchmarks: tuple = ("mcf",)
    #: Smallest and largest signature caches of the paper's sweep kept
    #: (the largest is Figure 9's normalisation base).
    fig9_sizes: tuple = (1024, 32768)
    #: A hit takes ~4 ms and this host's speed moves from second to second,
    #: so enough hits that they span ~4 s after each fresh operation.
    hits_per_fresh: int = 1000
    #: Set-up is only trace generation (~0.2 s), so a few more samples.
    setups: int = 5


DEFAULT = FiguresConfig()


class FiguresWorkload:
    name = "figures"

    def __init__(self, seed: int, tracer: Tracer, ws: Workspace, config: FiguresConfig = DEFAULT) -> None:
        from repro.campaign.cache import ResultCache
        from repro.experiments import fig8_coverage, fig9_sigcache, table3_speedup
        from repro.obs.metrics import REGISTRY
        from repro.obs.observer import RunObserver
        from repro.run import Session
        from repro.trace.store import TraceStore
        from repro.workloads.base import WorkloadConfig
        from repro.workloads.registry import get_workload

        self.seed, self.tracer, self.ws, self.config = seed, tracer, ws, config
        self._fig8, self._fig9, self._table3 = fig8_coverage, fig9_sigcache, table3_speedup
        self._registry = REGISTRY
        self._TraceStore, self._WorkloadConfig, self._get_workload = TraceStore, WorkloadConfig, get_workload
        tracer_ = tracer

        class TimedCache(ResultCache):
            """The result cache, with its lookups and writes timed when tracing."""

            def get(self, spec):
                started = time.perf_counter()
                try:
                    return super().get(spec)
                finally:
                    tracer_.add("campaign.lookup_s", time.perf_counter() - started)

            def put(self, spec, result):
                started = time.perf_counter()
                try:
                    return super().put(spec, result)
                finally:
                    tracer_.add("campaign.persist_s", time.perf_counter() - started)

        class Collector(RunObserver):
            def __init__(self) -> None:
                self.events: List[Dict[str, Any]] = []

            def emit(self, event: Dict[str, Any]) -> None:
                self.events.append(event)

        workload = self

        class RecordingSession(Session):
            """Hands every campaign the drivers run to the current operation."""

            def sweep(self, spec, name=None, resume=None):
                with tracer_.span("campaign"):
                    mark = len(workload.collector.events)
                    campaign = super().sweep(spec, name=name, resume=resume)
                workload._book(campaign, workload.collector.events[mark:])
                workload.op_campaigns.append(campaign)
                return campaign

        self._cache_classes = {True: TimedCache, False: ResultCache}
        self._session_class = RecordingSession
        self.collector = Collector()
        self.op_campaigns: List[Any] = []
        self.traces: Dict[str, Any] = {}
        self.ops: List[Dict[str, Any]] = []

    # ------------------------------------------------------------------ set-up
    def setup(self) -> float:
        started = time.perf_counter()
        self.ws.activate(self.ws.stores())
        store = self._TraceStore()
        for benchmark in self.config.benchmarks:
            config = self._WorkloadConfig(num_accesses=NUM_ACCESSES, seed=self.seed)
            generated = time.perf_counter()
            with self.tracer.span("workloads"):
                trace = self._get_workload(benchmark, config).generate()
            self.tracer.add("workloads.generate_s", time.perf_counter() - generated)
            with self.tracer.span("trace"):
                store.save(trace, benchmark, config)
            self.traces[benchmark] = trace
        return time.perf_counter() - started

    # ------------------------------------------------------------------ timed phase
    def _figure_set(self, benchmark: str, session) -> Dict[str, Any]:
        """Run the three drivers on one benchmark; return what the checks need."""
        common = dict(benchmarks=[benchmark], num_accesses=NUM_ACCESSES, seed=self.seed, session=session)
        fig8 = self._fig8.run(**common)
        self._fig9.run(sizes=self.config.fig9_sizes, **common)
        table3 = self._table3.run(**common)
        return {"coverage": fig8[0].ltcords.coverage, "perfect_l1": table3[0].speedup_pct["perfect-l1"]}

    def _op(self, kind: str, benchmark: str, session, fresh: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        """One figure set; a hit (``fresh`` given) is checked against it at once."""
        self.op_campaigns = []
        started = time.perf_counter()
        try:
            with self.tracer.span("other"):
                record = self._figure_set(benchmark, session)
        except Exception as error:  # the operation failed; the run goes on
            record = {"error": f"{type(error).__name__}: {error}"}
        record.update(kind=kind, benchmark=benchmark, wall_s=time.perf_counter() - started)
        campaigns, self.op_campaigns = self.op_campaigns, []
        what = f"figures {kind} {benchmark}"
        points = []
        for campaign in campaigns:
            for point, result, cached in zip(campaign.points, campaign.results, campaign.point_cached):
                label = f"{what} {campaign.name}:{point.label}"
                points.append((label, point, cached, None if result is None else result.to_dict()))
        if fresh is None:
            record["points"] = points
            record["accesses"] = sum(point.num_accesses for _, point, cached, _ in points if not cached)
        else:
            record["fresh"] = fresh
            errors = [record.pop("error")] if "error" in record else []
            for label, _, cached, data in points:
                if data is None:
                    errors.append(f"{label} has no result")
                elif not cached:
                    errors.append(f"{label} was computed again, not served from the cache")
            errors += check_same(
                {"results": [data for *_, data in fresh["points"]]},
                {"results": [data for *_, data in points]},
                what,
            )
            record["errors"] = errors
        self.ops.append(record)
        return record

    def measure(self, seconds: Optional[float] = None, rounds: Optional[int] = None) -> Dict[str, Any]:
        """Whole rounds until ``seconds`` would be overrun (at least one), or ``rounds``."""
        first_op = len(self.ops)
        generated = self._registry.counter("trace_store.generated").value
        started = time.perf_counter()
        done = 0
        while True:
            round_started = time.perf_counter()
            for benchmark in self.config.benchmarks:
                session = self._session_class(
                    jobs=1,
                    cache=self._cache_classes[self.tracer.enabled](self.ws.fresh("results")),
                    observer=self.collector if self.tracer.enabled else None,
                )
                fresh = self._op("fresh", benchmark, session)
                for _ in range(self.config.hits_per_fresh):
                    self._op("hit", benchmark, session, fresh)
            done += 1
            now = time.perf_counter()
            if rounds is not None:
                if done >= rounds:
                    break
            elif now - started + (now - round_started) > seconds:
                break
        self.tracer.add("trace.generated", self._registry.counter("trace_store.generated").value - generated)
        ops = self.ops[first_op:]
        fresh = [op for op in ops if op["kind"] == "fresh"]
        return {
            "wall_s": time.perf_counter() - started,
            "rounds": done,
            "accesses_per_s": sum(op["accesses"] for op in fresh) / sum(op["wall_s"] for op in fresh),
            "fresh_p50_s": median([op["wall_s"] for op in fresh]),
            "hit_p50_s": median([op["wall_s"] for op in ops if op["kind"] == "hit"]),
            "peak_rss_mb": self_peak_rss_mb(),
        }

    def _book(self, campaign, events: List[Dict[str, Any]]) -> None:
        """Re-book a traced sweep's logged phases to the layers that spent them."""
        tracer = self.tracer
        if not tracer.enabled:
            return
        for event in events:
            if event.get("type") != "point_done":
                continue
            point = campaign.points[event["index"]]
            phases = event.get("phases") or {}
            tracer.add("campaign.points", 1)
            if event.get("cache_hit"):
                tracer.add("campaign.cache_hits", 1)
                continue
            acquire, replay, settle = (phases.get(k, 0.0) for k in ("trace_acquire", "replay", "settle"))
            tracer.add("campaign.overhead_s", event["duration_s"] - acquire - replay - settle)
            tracer.move("campaign", "trace", acquire)
            tracer.add("trace.acquire_s", acquire)
            if point.sim == "timing":
                # The timing shim logs one replay span, trace acquisition included.
                tracer.move("campaign", "timing", replay + settle)
                tracer.add("timing.replay_s", replay)
                tracer.add("timing.accesses", point.num_accesses)
            else:
                tracer.move("campaign", "sim", replay + settle)
                tracer.add("sim.replay_s", replay)
                tracer.add(f"sim.{point.predictor}.replay_s", replay)
                tracer.add(f"sim.{point.predictor}.accesses", point.num_accesses)

    # ------------------------------------------------------------------ checks
    def check(self, outcome: Outcome) -> None:
        """Check fresh results against the reference; a hit fails with its fresh one."""
        references = {name: LRUReference(trace.as_arrays().address) for name, trace in self.traces.items()}
        fresh_ok: Dict[int, bool] = {}
        for op in self.ops:
            if op["kind"] == "hit":
                errors = list(op["errors"])
                if not fresh_ok[id(op["fresh"])]:
                    errors.append(f"figures hit {op['benchmark']}: its fresh operation failed")
                outcome.op(errors)
                continue
            errors = [op["error"]] if "error" in op else []
            what = f"figures fresh {op['benchmark']}"
            reference = references[op["benchmark"]]
            for label, point, cached, data in op["points"]:
                if data is None:
                    errors.append(f"{label} has no result")
                    continue
                if cached:
                    errors.append(f"{label} was served from a cache that should be empty")
                if point.sim == "trace":
                    errors += check_trace_result(data, reference, label)
                elif point.label == "baseline":
                    errors += check_timing_baseline(data, reference, label)
            if "error" not in op:
                if not op["coverage"] > 0:
                    errors.append(f"{what}: LT-cords coverage is {op['coverage']}")
                if not op["perfect_l1"] >= 0:
                    errors.append(f"{what}: table3 perfect-L1 speedup {op['perfect_l1']} < 0")
            fresh_ok[id(op)] = outcome.op(errors)


def per_layer(tracer: Tracer) -> Dict[str, float]:
    """The figures-specific rates derived from the traced totals."""
    values = tracer.values
    rates = {}
    for name, seconds, accesses in (
        ("sim.ltcords.accesses_per_s", "sim.ltcords.replay_s", "sim.ltcords.accesses"),
        ("sim.dbcp.accesses_per_s", "sim.dbcp.replay_s", "sim.dbcp.accesses"),
        ("timing.accesses_per_s", "timing.replay_s", "timing.accesses"),
    ):
        if values.get(seconds):
            rates[name] = values[accesses] / values[seconds]
    return rates
