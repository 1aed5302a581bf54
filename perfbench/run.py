"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload stream --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with ``repro.obs`` left at
its process defaults; ``--trace 1`` is a separate run that scopes a
registry and tracer per phase and reports the per-layer metrics (see
``perfbench/README.md``). The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``; ``--workload
all`` runs each workload in its own process and ends with one such object
whose metric names are prefixed with the workload. The lines
before it are a human-readable report and a JSON ``report`` line with
every metric, the per-phase failure accounting and an environment stamp.
The first run in a checkout builds the cached fixtures in a child process
(about 25 s on 2 cores).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / "perfbench" / ".out"
WORKLOADS = ("stream", "bulk", "refit")


def _import_program() -> None:
    """Put the checkout's ``src/`` first on the path and insist it is used."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources under {src}")
    sys.path[:0] = [str(src), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve().parents[1] != src.resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {src}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if args.workload == "all":
        return run_all(args)
    _import_program()
    from perfbench import fixtures, layers, report, workloads
    from perfbench.trace import Phases

    if fixtures.missing():
        # In a child process, so training never counts toward this run's
        # peak RSS; its output goes to stderr, keeping stdout the report's.
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
        subprocess.run(
            [sys.executable, "-m", "perfbench.fixtures"],
            cwd=ROOT, env=env, stdout=sys.stderr, check=True,
        )
    phases = Phases(enabled=bool(args.trace))
    runner = {
        "stream": workloads.run_stream,
        "bulk": workloads.run_bulk,
        "refit": workloads.run_refit,
    }[args.workload]
    outcome = runner(args.seed, args.seconds, phases)

    per_layer = None
    if args.trace:
        per_layer = layers.per_layer(args.workload, outcome, phases)
        phases.write(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json")
    record = report.build(args, outcome, per_layer, OUT_DIR)
    print(report.render(record))
    print(json.dumps({"report": record}, default=str))
    print(json.dumps(report.result_line(args, outcome, per_layer)))
    return 0 if outcome.correct else 1


def run_all(args) -> int:
    """Run every workload in a fresh process; combine their result lines."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        lines = done.stdout.splitlines()
        print("\n".join(line for line in lines[:-1] if not line.startswith('{"report"')))
        sys.stderr.write(done.stderr)
        if done.returncode != 0 and not lines:
            raise SystemExit(f"perfbench: {workload} failed with exit code {done.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"] and done.returncode == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
