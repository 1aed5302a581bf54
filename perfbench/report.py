"""The run's outputs: the contract result line, a full report, an env stamp.

The result line (last line of standard output) carries the metrics that
``BENCHMARK.json`` declares. Every workload reports each of them, as its
own workload-level figure (:data:`END_TO_END`). The report carries all of
the workload's metrics under their own names, the per-phase failure
accounting, and an environment stamp; it is also saved under
``perfbench/.out/`` so a traced run can state its overhead against the
untraced run of the same workload and seed.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import platform
import subprocess
from pathlib import Path

import numpy as np

from repro import obs

from perfbench import layers

#: Contract metric -> the workload metric it reads, per workload.
END_TO_END = {
    "setup_s": ("s", {"stream": "setup_s", "bulk": "setup_s", "refit": "setup_s"}),
    "peak_rss_mb": ("MB", {"stream": "peak_rss_mb", "bulk": "peak_rss_mb", "refit": "peak_rss_mb"}),
    "p50_ms": ("ms", {"stream": "burst_p50_ms", "bulk": "batch_p50_ms", "refit": "refit_ms"}),
    "tail_ms": ("ms", {"stream": "burst_tail_ms", "bulk": "batch_tail_ms", "refit": "refit_tail_ms"}),
    "throughput_per_s": ("1/s", {"stream": "burst_rps", "bulk": "throughput_ips", "refit": "refit_images_per_s"}),
}

ROOT = Path(__file__).resolve().parents[1]


def _blas() -> dict:
    """The BLAS library mapped into this process and its thread count."""
    info = {"library": "unknown", "threads": None}
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return info
    for path in sorted({line.split()[-1] for line in maps.splitlines() if "blas" in line.lower()}):
        info["library"] = Path(path).name
        library = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            getter = getattr(library, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                info["threads"] = getter()
                return info
    return info


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _source_digest() -> str:
    """sha256 over the program's sources (identifies a checkout without git)."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(seed: int) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": _blas(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "seed": seed,
        "REPRO_OBS": os.environ.get("REPRO_OBS", "unset"),
        "obs_enabled": obs.enabled(),
    }


def contract_metrics(workload: str, outcome) -> dict:
    return {
        name: {"value": float(outcome.metrics[source[workload]][0]), "unit": unit}
        for name, (unit, source) in END_TO_END.items()
    }


def build(args, outcome, per_layer: dict | None, out_dir: Path) -> dict:
    """The full report of one run; saved as JSON under ``out_dir``."""
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "succeeded": outcome.attempted - outcome.failed,
        "failed": outcome.failed,
        "failures": outcome.failures,
        "phases": outcome.phases,
        "metrics": {
            name: {"value": float(value), "unit": unit, "note": outcome.notes.get(name)}
            for name, (value, unit) in outcome.metrics.items()
        },
        "end_to_end": contract_metrics(args.workload, outcome),
        "environment": environment(args.seed),
        "errors": outcome.errors,
    }
    if per_layer is not None:
        record["per_layer"] = {
            name: {"value": value, "unit": layers.UNITS[name]} for name, value in per_layer.items()
        }
        untraced = out_dir / f"result-{args.workload}-seed{args.seed}-trace0.json"
        if untraced.is_file():
            base = json.loads(untraced.read_text())["metrics"]
            record["tracing_overhead"] = {
                name: {
                    "traced": m["value"],
                    "untraced": base[name]["value"],
                    "difference": m["value"] - base[name]["value"],
                    "unit": m["unit"],
                }
                for name, m in record["metrics"].items()
                if name in base
            }
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str))
    return record


def render(record: dict) -> str:
    """Human-readable report lines (everything but the environment detail)."""
    lines = [
        f"perfbench {record['workload']} seed={record['seed']} seconds={record['seconds']:g} "
        f"trace={record['trace']} correct={record['correct']}",
        f"  attempted={record['attempted']} succeeded={record['succeeded']} "
        f"failed={record['failed']} failures={record['failures']}",
    ]
    for name, phase in record["phases"].items():
        shown = ", ".join(
            f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}" for k, v in phase.items()
        )
        lines.append(f"  phase {name}: {shown}")
    for name, metric in record["metrics"].items():
        note = f"  ({metric['note']})" if metric["note"] else ""
        lines.append(f"  {name} = {metric['value']:.6g} {metric['unit']}{note}")
    for name, metric in record.get("per_layer", {}).items():
        lines.append(f"  layer {name} = {metric['value']:.6g} {metric['unit']}")
    for name, o in record.get("tracing_overhead", {}).items():
        lines.append(
            f"  overhead {name}: traced {o['traced']:.6g} - untraced {o['untraced']:.6g} "
            f"= {o['difference']:+.6g} {o['unit']}"
        )
    env = record["environment"]
    lines.append(
        f"  env nproc={env['nproc']} blas={env['blas']} python={env['python']} "
        f"numpy={env['numpy']} commit={env['commit']} REPRO_OBS={env['REPRO_OBS']}"
    )
    lines.extend(f"  CHECK FAILED: {error}" for error in record["errors"])
    return "\n".join(lines)


def result_line(args, outcome, per_layer: dict | None) -> dict:
    """The contract's last line: end-to-end metrics untraced, per-layer traced."""
    if per_layer is None:
        metrics = contract_metrics(args.workload, outcome)
    else:
        metrics = {
            name: {"value": per_layer[name], "unit": layers.UNITS[name]}
            for name in layers.RESULT_METRICS
        }
    return {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
