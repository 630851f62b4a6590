"""Workload ``cli``: cold ``python -m repro run`` commands, one at a time.

Each round runs one command on a point no earlier command computed (a
DBCP replay through ``--engine vector``), then the identical command again,
which the result cache serves.  Every fresh point reads a prefix of the
one trace generated during set-up (the trace store serves shorter lengths
of a stored trace by slicing), so no command generates a trace.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from common import Outcome, Tracer, Workspace, median, run_process
from reference import LRUReference, check_same, check_trace_result


BENCHMARK = "mcf"
PREDICTOR = "dbcp"


@dataclass(frozen=True)
class CliConfig:
    num_accesses: int = 100_000
    setups: int = 3
    #: Bare-interpreter and ``import repro`` launches a traced run makes.
    floor_samples: int = 5


DEFAULT = CliConfig()

_COMPILE = "from repro.cache.vector import load_kernel; raise SystemExit(0 if load_kernel() else 3)"


class CliWorkload:
    name = "cli"

    def __init__(self, seed: int, tracer: Tracer, ws: Workspace, config: CliConfig = DEFAULT) -> None:
        from repro.trace.store import TraceStore
        from repro.workloads.base import WorkloadConfig
        from repro.workloads.registry import get_workload

        self.seed, self.tracer, self.ws, self.config = seed, tracer, ws, config
        self._TraceStore, self._WorkloadConfig, self._get_workload = TraceStore, WorkloadConfig, get_workload
        self.env: Dict[str, str] = {}
        self.trace = None
        self.ops: List[Dict[str, Any]] = []
        self.points_used = 0
        self.floor_s = 0.0

    # ------------------------------------------------------------------ set-up
    def setup(self) -> float:
        started = time.perf_counter()
        self.env = self.ws.activate(self.ws.stores())
        config = self._WorkloadConfig(num_accesses=self.config.num_accesses, seed=self.seed)
        generated = time.perf_counter()
        with self.tracer.span("workloads"):
            trace = self._get_workload(BENCHMARK, config).generate()
        self.tracer.add("workloads.generate_s", time.perf_counter() - generated)
        with self.tracer.span("trace"):
            self._TraceStore().save(trace, BENCHMARK, config)
        self.trace = trace
        compiled = time.perf_counter()
        with self.tracer.span("kernel"):
            done = run_process([sys.executable, "-c", _COMPILE], self.env, self.ws.fresh("compile"))
        if done.returncode != 0:
            raise RuntimeError(f"the replay kernel did not build (exit {done.returncode}): {done.stderr[-500:]}")
        self.tracer.add("kernel.compile_s", time.perf_counter() - compiled)
        elapsed = time.perf_counter() - started
        if self.tracer.enabled:
            self._trace_floors()
        return elapsed

    def _trace_floors(self) -> None:
        """Bare-interpreter start (a floor under every command) and one kernel load."""
        with self.tracer.span("cli"):
            self.floor_s = median([
                run_process([sys.executable, "-c", "pass"], self.env, self.ws.fresh("floor")).wall_s
                for _ in range(self.config.floor_samples)
            ])
        from repro.cache.vector import load_kernel

        started = time.perf_counter()
        with self.tracer.span("kernel"):
            kernel = load_kernel()
        if kernel is None:
            raise RuntimeError("the compiled replay kernel did not load")
        self.tracer.add("kernel.load_s", time.perf_counter() - started)

    # ------------------------------------------------------------------ timed phase
    def _command(self, num_accesses: int, log: Optional[str]) -> List[str]:
        cmd = [sys.executable, "-m", "repro"]
        if log is not None:
            cmd += ["--log-json", log]
        return cmd + [
            "run", BENCHMARK, "--predictor", PREDICTOR,
            "--engine", "vector", "--accesses", str(num_accesses),
            "--seed", str(self.seed), "--json",
        ]

    def _op(self, kind: str, num_accesses: int) -> Dict[str, Any]:
        out_dir = self.ws.fresh("cmd")
        log = str(out_dir / "events.jsonl") if self.tracer.enabled else None
        with self.tracer.span("cli"):
            done = run_process(self._command(num_accesses, log), self.env, out_dir)
        record = {"kind": kind, "num_accesses": num_accesses, "done": done}
        if log is not None:
            self._book(record, log)
        self.ops.append(record)
        return record

    def measure(self, seconds: Optional[float] = None, rounds: Optional[int] = None) -> Dict[str, Any]:
        """Fresh/hit pairs until ``seconds`` have passed, or exactly ``rounds`` pairs."""
        first_op = len(self.ops)
        started = time.perf_counter()
        done = 0
        while (done < rounds) if rounds is not None else (time.perf_counter() - started < seconds):
            self.points_used += 1
            num_accesses = self.config.num_accesses - self.points_used
            if num_accesses <= 0:
                raise RuntimeError("the cli workload ran out of fresh points")
            self._op("fresh", num_accesses)
            self._op("hit", num_accesses)
            done += 1
        ops = self.ops[first_op:]
        fresh = [op for op in ops if op["kind"] == "fresh"]
        return {
            "wall_s": time.perf_counter() - started,
            "rounds": done,
            "accesses_per_s": sum(op["num_accesses"] for op in fresh) / sum(op["done"].wall_s for op in fresh),
            "fresh_p50_s": median([op["done"].wall_s for op in fresh]),
            "hit_p50_s": median([op["done"].wall_s for op in ops if op["kind"] == "hit"]),
            "peak_rss_mb": max(op["done"].maxrss_mb for op in ops),
        }

    def _book(self, record: Dict[str, Any], log: str) -> None:
        """Split one traced command's wall time using its ``--log-json`` events."""
        tracer, done = self.tracer, record["done"]
        try:
            with open(log) as handle:
                events = [json.loads(line) for line in handle if line.strip()]
        except OSError:
            return  # a command that died before logging shows up as a failed op
        start = next((e for e in events if e.get("type") == "run_start"), None)
        end = next((e for e in events if e.get("type") == "run_end"), None)
        if start is None or end is None:
            return
        phases = {e["name"]: e["duration_s"] for e in events if e.get("type") == "phase"}
        acquire, replay, settle = (phases.get(k, 0.0) for k in ("trace_acquire", "replay", "settle"))
        in_run = end["duration_s"]
        before_run = start["ts"] - done.launched_at
        tracer.move("cli", "trace", acquire)
        tracer.move("cli", "kernel", replay)
        tracer.move("cli", "sim", settle)
        tracer.move("cli", "campaign", in_run - acquire - replay - settle)
        tracer.add("cli.interpreter_s", self.floor_s)
        tracer.add("cli.import_s", before_run - self.floor_s)
        tracer.add("cli.other_s", done.wall_s - before_run - in_run)
        tracer.add("trace.acquire_s", acquire)
        tracer.add("trace.generated", end.get("metrics", {}).get("counters", {}).get("trace_store.generated", 0))
        tracer.add("campaign.points", 1)
        if end.get("cache_hit"):
            tracer.add("campaign.cache_hits", 1)
            tracer.add("campaign.lookup_s", in_run)
        else:
            tracer.add("campaign.overhead_s", in_run - acquire - replay - settle)
            tracer.add("sim.kernel.replay_s", replay)
            tracer.add("sim.kernel.accesses", record["num_accesses"])

    # ------------------------------------------------------------------ checks
    def check(self, outcome: Outcome) -> None:
        reference = LRUReference(self.trace.as_arrays().address)
        fresh: Dict[int, Dict[str, Any]] = {}
        for op in self.ops:
            done, what = op["done"], f"cli {op['kind']} --accesses {op['num_accesses']}"
            errors: List[str] = []
            data = None
            if done.returncode != 0:
                errors.append(f"{what}: exit {done.returncode}: {done.stderr.strip()[-300:]}")
            else:
                try:
                    data = json.loads(done.stdout)
                except ValueError as error:
                    errors.append(f"{what}: output is not JSON ({error})")
            if data is not None:
                if (data.get("num_accesses"), data.get("predictor")) != (op["num_accesses"], PREDICTOR):
                    errors.append(f"{what}: result is for another point")
                else:
                    errors += check_trace_result(data, reference, what)
                if op["kind"] == "fresh" and not errors:
                    fresh[op["num_accesses"]] = data
                elif op["kind"] == "hit":
                    errors += check_same(fresh.get(op["num_accesses"], {}), data, what)
            outcome.op(errors)


def per_layer(tracer: Tracer) -> Dict[str, float]:
    values = tracer.values
    if not values.get("sim.kernel.replay_s"):
        return {}
    return {"sim.kernel.accesses_per_s": values["sim.kernel.accesses"] / values["sim.kernel.replay_s"]}
