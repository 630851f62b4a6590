"""Workload ``service``: one ``repro serve``, one ``repro worker``, one client.

The client submits ``workers``-mode jobs one at a time: a job of points no
earlier job computed, then the identical job again, which the result cache
serves.  A job is timed from submit until its results are fetched.  Each
point replays a short prefix of the trace generated during set-up, so the
service's own work (job persistence, the worker's idle lease poll,
completion detection, result transfer) dominates every job.

Jobs hold 16 points because every completion is found by a 0.1 s status
poll.  A one-point hit job races that poll: it is seen done on the first
status request in 55-80% of jobs (about 8 ms) and one poll later in the
rest (about 110 ms), and the share moved enough between runs to move the
median hit time by 30%.  Sixteen cached points take long enough to serve
that nearly every hit waits one poll, so the median is steady; fresh jobs
then take about six polls, so one poll more or less moves their median
by about 16%, within the bound of ``fresh_p50_s``.
"""

from __future__ import annotations

import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from common import Outcome, Tracer, Workspace, kill, median
from reference import LRUReference, check_same, check_trace_result


BENCHMARK = "mcf"
PREDICTOR = "dbcp"


@dataclass(frozen=True)
class ServiceConfig:
    #: Length of the one trace; job points are its prefixes, all distinct.
    num_accesses: int = 2_000
    points_per_job: int = 16
    setups: int = 3


DEFAULT = ServiceConfig()


class ServiceWorkload:
    name = "service"

    def __init__(self, seed: int, tracer: Tracer, ws: Workspace, config: ServiceConfig = DEFAULT) -> None:
        from repro.campaign.spec import PointSpec
        from repro.service.client import ServiceClient
        from repro.trace.store import TraceStore
        from repro.workloads.base import WorkloadConfig
        from repro.workloads.registry import get_workload

        self.seed, self.tracer, self.ws, self.config = seed, tracer, ws, config
        self._PointSpec, self._TraceStore = PointSpec, TraceStore
        self._WorkloadConfig, self._get_workload = WorkloadConfig, get_workload

        class CountingClient(ServiceClient):
            """The stock client, counting the HTTP requests it makes."""

            requests = 0

            def _request(self, *args, **kwargs):
                CountingClient.requests += 1
                return super()._request(*args, **kwargs)

        self._client_class = CountingClient
        self.client = None
        self.server: Optional[subprocess.Popen] = None
        self.worker: Optional[subprocess.Popen] = None
        self.trace = None
        self.ops: List[Dict[str, Any]] = []
        self.points_used = 0
        self.rss_mb = 0.0

    def _point(self, num_accesses: int):
        return self._PointSpec(
            benchmark=BENCHMARK,
            predictor=PREDICTOR,
            num_accesses=num_accesses,
            seed=self.seed,
        )

    def _job_lengths(self) -> List[int]:
        """Trace lengths of the next job's points, none of them used before."""
        first = self.points_used + 1
        self.points_used += self.config.points_per_job
        lengths = [self.config.num_accesses - i for i in range(first, self.points_used + 1)]
        if lengths[-1] <= 0:
            raise RuntimeError("the service workload ran out of fresh points")
        return lengths

    # ------------------------------------------------------------------ set-up
    def setup(self) -> float:
        self.close()
        started = time.perf_counter()
        env = self.ws.activate(self.ws.stores())
        config = self._WorkloadConfig(num_accesses=self.config.num_accesses, seed=self.seed)
        generated = time.perf_counter()
        with self.tracer.span("workloads"):
            trace = self._get_workload(BENCHMARK, config).generate()
        self.tracer.add("workloads.generate_s", time.perf_counter() - generated)
        with self.tracer.span("trace"):
            self._TraceStore().save(trace, BENCHMARK, config)
        self.trace = trace
        logs = self.ws.fresh("service")
        serving = time.perf_counter()
        with self.tracer.span("service"):
            with open(logs / "server.err", "w") as err:
                self.server = subprocess.Popen(
                    [sys.executable, "-m", "repro", "serve", "--port", "0"],
                    env=env, stdout=subprocess.PIPE, stderr=err, text=True,
                )
            line = self.server.stdout.readline()
            if not line.startswith("serving on "):
                raise RuntimeError(f"the server did not start: {(logs / 'server.err').read_text()[-500:]}")
            url = line.split()[-1]
            with open(logs / "worker.err", "w") as err:
                self.worker = subprocess.Popen(
                    [sys.executable, "-m", "repro", "worker", "--server", url],
                    env=env, stdout=subprocess.DEVNULL, stderr=err,
                )
            self.client = self._client_class(url)
            # One job through the fleet: the worker is registered and warm.
            job = self.client.submit([self._point(self.config.num_accesses)], mode="workers")
            status = self.client.wait(job)
            if status["status"] != "done":
                raise RuntimeError(f"the warm-up job ended {status['status']}: {status.get('error')}")
        self.tracer.add("service.start_s", time.perf_counter() - serving)
        return time.perf_counter() - started

    # ------------------------------------------------------------------ timed phase
    def _op(self, kind: str, lengths: List[int]) -> Dict[str, Any]:
        client = self.client
        requests = self._client_class.requests
        record: Dict[str, Any] = {"kind": kind, "lengths": lengths}
        started = time.perf_counter()
        with self.tracer.span("service"):
            t0 = time.time()
            try:
                job = client.submit([self._point(n) for n in lengths], mode="workers")
                record["status"] = client.wait(job)
                t2 = time.time()
                record["results"] = client.results(job)
            except Exception as error:  # the operation failed; the run goes on
                record["error"] = f"{type(error).__name__}: {error}"
            t3 = time.time()
        record["wall_s"] = time.perf_counter() - started
        self.tracer.add("service.requests", self._client_class.requests - requests)
        if self.tracer.enabled and "error" not in record:
            self._book(job, record, t0, t2, t3)
        self.ops.append(record)
        return record

    def measure(self, seconds: Optional[float] = None, rounds: Optional[int] = None) -> Dict[str, Any]:
        """Fresh/hit pairs until ``seconds`` have passed, or exactly ``rounds`` pairs."""
        first_op = len(self.ops)
        started = time.perf_counter()
        done = 0
        while (done < rounds) if rounds is not None else (time.perf_counter() - started < seconds):
            lengths = self._job_lengths()
            self._op("fresh", lengths)
            self._op("hit", lengths)
            done += 1
        ops = self.ops[first_op:]
        fresh = [op for op in ops if op["kind"] == "fresh"]
        return {
            "wall_s": time.perf_counter() - started,
            "rounds": done,
            "accesses_per_s": sum(sum(op["lengths"]) for op in fresh) / sum(op["wall_s"] for op in fresh),
            "fresh_p50_s": median([op["wall_s"] for op in fresh]),
            "hit_p50_s": median([op["wall_s"] for op in ops if op["kind"] == "hit"]),
        }

    def peak_rss_mb(self) -> float:
        """Server peak plus worker peak; stops both."""
        self.close()
        return self.rss_mb

    def _book(self, job: str, record: Dict[str, Any], t0: float, t2: float, t3: float) -> None:
        """Split one traced job's wall time using its job record and event stream."""
        tracer, status = self.tracer, record["status"]
        entries = record["results"].get("results") or []
        in_points = sum(entry.get("duration_s") or 0.0 for entry in entries)
        submitted, begun, finished = status["submitted_at"], status["started_at"], status["finished_at"]
        tracer.add("service.submit_s", submitted - t0)
        tracer.add("service.queue_wait_s", begun - submitted)
        tracer.add("service.dispatch_s", finished - begun - in_points)
        tracer.add("service.detect_s", t2 - finished)
        tracer.add("service.fetch_s", t3 - t2)
        # The per-point phase split travels in the job's event stream
        # (read after the job, outside its timed span).
        for event in self.client.watch(job, follow=False):
            if event.get("type") != "point_done":
                continue
            tracer.add("campaign.points", 1)
            if event.get("cache_hit"):
                tracer.add("campaign.cache_hits", 1)
                tracer.add("campaign.lookup_s", event["duration_s"])
                tracer.move("service", "campaign", event["duration_s"])
                continue
            phases = event.get("phases") or {}
            acquire, replay, settle = (phases.get(k, 0.0) for k in ("trace_acquire", "replay", "settle"))
            tracer.move("service", "trace", acquire)
            tracer.move("service", "sim", replay + settle)
            tracer.move("service", "campaign", event["duration_s"] - acquire - replay - settle)
            tracer.add("trace.acquire_s", acquire)
            tracer.add("sim.replay_s", replay)
            tracer.add("sim.dbcp.replay_s", replay)
            tracer.add("sim.dbcp.accesses", record["lengths"][event["index"]])
            tracer.add("campaign.overhead_s", event["duration_s"] - acquire - replay - settle)
        tracer.add("trace.generated", record["results"].get("generated") or 0)

    # ------------------------------------------------------------------ checks
    def check(self, outcome: Outcome) -> None:
        from repro.run import Session

        reference = LRUReference(self.trace.as_arrays().address)
        session = Session(use_cache=False)
        fresh: Dict[int, Dict[str, Any]] = {}
        for op in self.ops:
            what = f"service {op['kind']} job of {op['lengths'][0]}..{op['lengths'][-1]} accesses"
            errors = [op["error"]] if "error" in op else []
            entries = [] if errors else op["results"].get("results") or []
            if not errors and (
                op["status"]["status"] != "done"
                or len(entries) != len(op["lengths"])
                or any(entry.get("result") is None for entry in entries)
            ):
                errors.append(f"{what}: job ended {op['status']['status']}: {op['status'].get('error')}")
                entries = []
            for length, entry in zip(op["lengths"], entries):
                data, point = entry["result"], f"{what}: point of {length} accesses"
                if entry.get("cached") != (op["kind"] == "hit"):
                    errors.append(f"{point} served with cached={entry.get('cached')}")
                if data.get("num_accesses") != length:
                    errors.append(f"{point} holds the result of another point")
                    continue
                errors += check_trace_result(data, reference, point)
                if op["kind"] == "fresh":
                    if length == op["lengths"][0]:
                        # One point a job: an in-process run costs ~20 ms
                        # whatever its length, as much as the job's share.
                        local = session.run(self._point(length)).to_dict()
                        errors += check_same(local, data, f"{point} against an in-process Session.run")
                    fresh[length] = data
                else:
                    errors += check_same(fresh.get(length, {}), data, point)
            outcome.op(errors)

    def close(self) -> None:
        """Stop the server and the worker (on every exit path), keeping their peak RSS."""
        rss = kill(self.worker) + kill(self.server)
        if self.server is not None and self.server.stdout is not None:
            self.server.stdout.close()
        if rss:
            self.rss_mb = rss
        self.server = self.worker = None


def per_layer(tracer: Tracer) -> Dict[str, float]:
    values = tracer.values
    if not values.get("sim.dbcp.replay_s"):
        return {}
    return {"sim.dbcp.accesses_per_s": values["sim.dbcp.accesses"] / values["sim.dbcp.replay_s"]}
