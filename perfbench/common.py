"""Shared plumbing for the end-to-end benchmark: isolation, processes, stats, tracing.

Nothing here imports the program under test, so the harness measures the
same way whatever the program's own benchmark harness (``repro.bench``)
does.
"""

from __future__ import annotations

import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence

#: The checkout the benchmark lives in (``perfbench/`` sits at its root).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: The layers a traced run's wall time is split into, named after the
#: program's modules; ``other`` is the benchmark's own residual.  A layer a
#: workload does not exercise reads 0.
LAYERS = ("workloads", "trace", "sim", "kernel", "timing", "campaign", "cli", "service", "other")


def require_program() -> None:
    """Exit non-zero when the program's sources are not beside the benchmark."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC / 'repro'}; nothing to measure",
              file=sys.stderr)
        raise SystemExit(2)


# ---------------------------------------------------------------------------
# Isolation
# ---------------------------------------------------------------------------

class Workspace:
    """Private stores for one run, under the checkout, removed on close.

    Every ``REPRO_*`` variable inherited from the caller is dropped, so the
    program runs with its knobs at their defaults; only the store locations
    are pointed at this run's private directories.
    """

    def __init__(self, label: str) -> None:
        base = ROOT / ".perfbench_runs"
        base.mkdir(exist_ok=True)
        self.root = base / f"{label}-{os.getpid()}-{time.time_ns()}"
        self.root.mkdir()
        self._saved_env = dict(os.environ)
        self.generation = 0

    def fresh(self, name: str) -> Path:
        """A new empty directory inside the workspace."""
        self.generation += 1
        path = self.root / f"{name}{self.generation}"
        path.mkdir()
        return path

    def stores(self) -> Dict[str, str]:
        """Create a fresh set of private stores; return their environment."""
        base = self.fresh("stores")
        env = {
            "REPRO_CACHE_DIR": str(base / "cache"),
            "REPRO_TRACE_DIR": str(base / "traces"),
            "REPRO_KERNEL_CACHE": str(base / "kernels"),
            "TMPDIR": str(base / "tmp"),
        }
        for path in env.values():
            Path(path).mkdir()
        return env

    def activate(self, env: Dict[str, str]) -> Dict[str, str]:
        """Point this process and its children at ``env``; return the child env."""
        for key in [k for k in os.environ if k.startswith("REPRO_")]:
            del os.environ[key]
        os.environ.update(env)
        child = dict(os.environ)
        child["PYTHONPATH"] = str(SRC)
        return child

    def close(self) -> None:
        os.environ.clear()
        os.environ.update(self._saved_env)
        shutil.rmtree(self.root, ignore_errors=True)
        try:
            self.root.parent.rmdir()
        except OSError:
            pass  # another run still owns a workspace there


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------

@dataclass
class Completed:
    """One finished child process: exit code, output, wall time and peak RSS."""

    returncode: int
    stdout: str
    stderr: str
    wall_s: float
    launched_at: float
    maxrss_mb: float


def _wait_rusage(proc: subprocess.Popen) -> float:
    """Reap ``proc`` and return its peak RSS in MB (its own, not its siblings')."""
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage.ru_maxrss / 1024.0


def run_process(cmd: Sequence[str], env: Dict[str, str], out_dir: Path, timeout_s: float = 120.0) -> Completed:
    """Run ``cmd`` to completion, timing it from launch to reaping."""
    out_path, err_path = out_dir / "stdout.txt", out_dir / "stderr.txt"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        launched_at = time.time()
        started = time.perf_counter()
        proc = subprocess.Popen(list(cmd), env=env, stdout=out, stderr=err, cwd=str(ROOT))
        # A hung child is killed at the deadline, so the run still ends.
        timer = threading.Timer(timeout_s, proc.kill)
        timer.start()
        try:
            maxrss = _wait_rusage(proc)
        except BaseException:
            kill(proc)
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - started
    return Completed(proc.returncode, out_path.read_text(), err_path.read_text(), wall, launched_at, maxrss)


def kill(proc: Optional[subprocess.Popen]) -> float:
    """Kill ``proc`` if it still runs, reap it, and return its peak RSS in MB."""
    if proc is None or proc.returncode is not None:
        return 0.0
    try:
        proc.kill()
    except ProcessLookupError:
        pass
    return _wait_rusage(proc)


def self_peak_rss_mb() -> float:
    """Peak RSS of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def quartiles(values: Sequence[float]) -> List[float]:
    """Q1, median, Q3 as ``statistics.quantiles(values, n=4)`` gives them."""
    return [float(v) for v in statistics.quantiles(values, n=4)]


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------

class Tracer:
    """Layer self-times of one traced run, kept in memory.

    ``span(layer)`` times a call made from the benchmark's own code.  A
    span's self time is its duration minus its children's, so the self
    times of all layers sum to the outermost spans' durations exactly.
    ``move(src, dst, seconds)`` re-books part of a span's self time that
    the program itself measured (its logged phases, its job records) to
    the layer that spent it, which keeps that sum intact.  A disabled
    tracer records nothing and costs one branch per call.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.self_s: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
        self.values: Dict[str, float] = {}
        self.spans = 0
        self._stack: List[List] = []

    @contextmanager
    def span(self, layer: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        started = time.perf_counter()
        self._stack.append([layer, 0.0])
        try:
            yield
        finally:
            ended = time.perf_counter()
            _, children = self._stack.pop()
            duration = ended - started
            self.self_s[layer] += duration - children
            if self._stack:
                self._stack[-1][1] += duration
            self.spans += 1

    def move(self, src: str, dst: str, seconds: float) -> None:
        if self.enabled:
            self.self_s[src] -= seconds
            self.self_s[dst] += seconds

    def add(self, name: str, value: float) -> None:
        """Accumulate a named per-layer figure (seconds or a count)."""
        if self.enabled:
            self.values[name] = self.values.get(name, 0.0) + value

    def wall_s(self) -> float:
        return sum(self.self_s.values())


@dataclass
class Outcome:
    """What one workload run hands back to ``run.py``."""

    attempted: int = 0
    failed: int = 0
    check_errors: List[str] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)

    def op(self, errors: Sequence[str]) -> bool:
        """Count one operation; it fails when any of its checks failed."""
        self.attempted += 1
        if errors:
            self.failed += 1
            self.check_errors.extend(errors)
        return not errors
