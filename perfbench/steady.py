"""Steadiness check: repeated benchmark runs, spread of every end-to-end metric.

    python3 perfbench/steady.py --runs 10 [--first-seed 1] [--out runs.json]

Runs ``perfbench/run.py`` ``--runs`` times on every workload of
``BENCHMARK.json`` for its ``run_seconds``, one seed per round, alternating the workload order from round to round so drift in the
machine's speed reaches every workload alike.  For each metric it prints
the median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread ``(Q3 - Q1) / median`` against the metric's bound in
``BENCHMARK.json``; a spread is ``ok`` below a third of the bound.  It
also prints each workload's failed share.  Exits 1 when any run fails to
produce a result or any spread exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import ROOT, quartiles  # noqa: E402


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", default=None, help="also write every run's result here as JSON")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 to give a spread")

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    results = {name: [] for name in workloads}
    broken = 0
    for index in range(args.runs):
        seed = args.first_seed + index
        order = workloads if index % 2 == 0 else list(reversed(workloads))
        for name in order:
            cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=str(ROOT), capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                broken += 1
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
                continue
            result = json.loads(lines[-1])
            results[name].append({"seed": seed, **result})
            summary = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
            print(f"{name} seed {seed}: failed {result['failed']}/{result['attempted']} {summary}", flush=True)

    worst = 0.0
    print(f"\n{'workload':<9} {'metric':<15} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}")
    for name, runs in results.items():
        if len(runs) < 2:
            continue
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            q1, mid, q3 = quartiles(values)
            spread = (q3 - q1) / mid
            verdict = "ok" if spread < bound / 3 else ("within" if spread <= bound else "OVER")
            worst = max(worst, spread / bound)
            print(f"{name:<9} {metric:<15} {mid:12.6g} {q1:12.6g} {q3:12.6g} {spread:7.3f} {bound:6.2f} {verdict}")
        print(f"{name:<9} failed share(s) {shares}")
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=1))
    return 1 if broken or worst > 1 else 0


if __name__ == "__main__":
    sys.exit(main())
