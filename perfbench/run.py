"""End-to-end benchmark of the LT-cords reproduction.

    python3 perfbench/run.py --workload {figures,cli,service} --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Prints progress to stderr and, as the
last line of stdout, one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end metrics
of ``BENCHMARK.json``; ``--trace 1`` repeats the timed phase untraced and
then traced, and reports the per-layer split of the traced pass (plus
set-up) instead.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import LAYERS, ROOT, SRC, Outcome, Tracer, Workspace, median, require_program  # noqa: E402

#: Wall-clock budget of one run; past it the run stops and cleans up.
RUN_DEADLINE_S = 170


def declared_units(section: str) -> dict:
    """Metric name -> unit for one section of ``BENCHMARK.json``, in its order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[section]}


def workload_class(name: str):
    if name == "figures":
        import wl_figures as module

        return module.FiguresWorkload, module.per_layer
    if name == "cli":
        import wl_cli as module

        return module.CliWorkload, module.per_layer
    if name == "service":
        import wl_service as module

        return module.ServiceWorkload, module.per_layer
    raise ValueError(f"unknown workload {name!r}")


def run(workload: str, seed: int, seconds: float, trace: bool, config=None) -> dict:
    """One benchmark run; returns the result object the last stdout line carries."""
    sys.path.insert(0, str(SRC))
    cls, rates = workload_class(workload)
    ws = Workspace(workload)
    tracer = Tracer(trace)
    outcome = Outcome()
    wl = None
    try:
        wl = cls(seed, tracer, ws, config) if config is not None else cls(seed, tracer, ws)
        if not trace:
            setups = [wl.setup() for _ in range(wl.config.setups)]
            metrics = wl.measure(seconds=seconds)
            if "peak_rss_mb" not in metrics:
                metrics["peak_rss_mb"] = wl.peak_rss_mb()
            metrics["setup_s"] = median(setups)
            units = declared_units("end_to_end")
            values = {name: metrics[name] for name in units}
        else:
            with tracer.span("other"):
                wl.setup()
            tracer.enabled = False
            untraced = wl.measure(seconds=seconds / 2)
            tracer.enabled = True
            with tracer.span("other"):
                traced = wl.measure(rounds=untraced["rounds"])
            tracer.add("obs.overhead_s", traced["wall_s"] - untraced["wall_s"])
            values = dict(tracer.values)
            values.update(rates(tracer))
            values.update({f"layer.{layer}_s": seconds_ for layer, seconds_ in tracer.self_s.items()})
            values["wall_s"] = tracer.wall_s()
            units = declared_units("per_layer")
            values = {name: values.get(name, 0.0) for name in units}
        wl.check(outcome)
    finally:
        if wl is not None and hasattr(wl, "close"):
            wl.close()
        ws.close()
    for error in outcome.check_errors[:20]:
        print(f"perfbench: check failed: {error}", file=sys.stderr)
    if trace:
        print_split(tracer, values)
    return {
        "correct": not outcome.check_errors,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


def print_split(tracer: Tracer, values: dict) -> None:
    """Write the traced run's layer split to stderr (spans stay in memory until here)."""
    wall = values["wall_s"]
    print(f"perfbench: layer split of {wall:.3f} s traced wall ({tracer.spans} spans)", file=sys.stderr)
    for layer in LAYERS:
        seconds = values[f"layer.{layer}_s"]
        print(f"perfbench:   {layer:<10} {seconds:9.3f} s  {100 * seconds / wall:5.1f}%", file=sys.stderr)


def _deadline(signum, frame):
    raise TimeoutError(f"perfbench run exceeded {RUN_DEADLINE_S} s")


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["figures", "cli", "service"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    require_program()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    signal.signal(signal.SIGTERM, _terminate)
    signal.signal(signal.SIGALRM, _deadline)
    signal.alarm(RUN_DEADLINE_S)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        signal.alarm(0)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
