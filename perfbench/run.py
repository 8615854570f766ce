"""Benchmark entry point for primefourier.

    python3 perfbench/run.py --workload certify-p7 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Every measured run happens in fresh
interpreters (`perfbench/worker.py`) started from here.  With `--trace 0`
the last line of standard output holds the end-to-end metrics, with
`--trace 1` the per-layer metrics of a traced run (see README.md).  The line
before it holds the provenance and the raw, unadjusted figures.  The full
record, with every request, goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time

import hostspeed
from settings import BENCH_DIR, CERTIFY_COUNTS, MIN_PASSES, RESULTS, spans_path

ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(BENCH_DIR, "worker.py")

WORKLOADS = ("certify-p7", "construct-ladder", "transform-stream")
# Set-up is measured this many extra times per run, in interpreters that
# stop right after set-up, and reported as the median with the run's own.
SETUP_PROBES = 4
# Every run ends within this many seconds, whatever the children do.
RUN_CEILING_S = 170.0
TAIL_CANDIDATES = (99, 95, 90, 75, 50)
LAYER_UNITS = {
    "calls": "count", "self_s": "s", "max_bits": "bits", "per_request": "ratio",
    "verify_share": "share", "witness_max_bits": "bits", "report_bytes": "bytes",
    "overhead_share": "share",
}


class BenchError(Exception):
    """A child process failed to produce a result."""


def worker(workload: str, seed: int, deadline: float, *extra: str):
    """Run one worker; return its raw and adjusted set-up seconds and its
    remaining output lines.  The child is killed and reaped on any way out."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    argv = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed), *extra]
    limit = max(1.0, deadline - time.monotonic())
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            cwd=ROOT, env=env)
    try:
        # Read the `ready` line straight from the pipe, so that nothing is
        # left in a buffer that communicate() would not see.
        head = b""
        while b"\n" not in head and select.select([proc.stdout], [], [], limit)[0]:
            chunk = os.read(proc.stdout.fileno(), 1 << 16)
            if not chunk:
                break
            head += chunk
        setup = time.perf_counter() - start
        out, err = proc.communicate(timeout=limit)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(argv[2:])} ran past the run's ceiling") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    lines = (head + out).decode().splitlines()
    if proc.returncode != 0 or len(lines) < 2 or lines[0] != "ready":
        raise BenchError(f"worker {' '.join(argv[2:])} failed (exit {proc.returncode}): "
                         f"{err.decode().strip()[-2000:]}")
    probe = json.loads(lines[1])["setup_probe"]
    return setup, setup * hostspeed.REFERENCE_S / probe, lines[2:]


def measured_run(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    """Untraced run: set-up probes, then one closed-loop run in a fresh worker."""
    setups = [worker(workload, seed, deadline, "--setup-only")[:2] for _ in range(SETUP_PROBES)]
    raw_setup, setup, lines = worker(workload, seed, deadline, "--seconds", repr(seconds))
    result = json.loads(lines[-1])
    result["raw_setups"] = [s[0] for s in setups] + [raw_setup]
    result["setups"] = [s[1] for s in setups] + [setup]
    return result


def tail(samples: list[float], min_samples: int) -> tuple[float, int]:
    """The highest candidate percentile with at least ten samples beyond it
    in a run of `min_samples`; the maximum when no candidate qualifies.  The
    minimum run length fixes the percentile, so it does not move with the
    length of a run."""
    for q in TAIL_CANDIDATES:
        if min_samples * (100 - q) / 100 >= 10:
            cuts = statistics.quantiles(samples, n=100, method="inclusive")
            return cuts[q - 1], q
    return max(samples), 100


def end_to_end(workload: str, result: dict) -> tuple[dict, dict]:
    records = result["records"]
    certify = workload == "certify-p7"
    instances = sum(CERTIFY_COUNTS.values()) if certify else result["requests_per_pass"]
    wall = statistics.median(result["pass_walls"])
    latencies = [r[3] for r in records]
    min_samples = result["requests_per_pass"] * (1 if certify else MIN_PASSES)
    tail_value, q = tail(latencies, min_samples)
    metrics = {
        "setup_s": (statistics.median(result["setups"]), "s"),
        "wall_s": (wall, "s"),
        "instances_per_s": (instances / wall, "1/s"),
        "verdict_p50_ms": (statistics.median(latencies) * 1000.0, "ms"),
        "verdict_tail_ms": (tail_value * 1000.0, "ms"),
        "decided_share": (sum(r[2] == "ok" for r in records) / len(records), "share"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    raw_latencies = [r[1] for r in records]
    info = {
        "samples": {
            "setup_s": len(result["setups"]),
            "wall_s": len(result["pass_walls"]),
            "instances_per_s": len(result["pass_walls"]),
            "verdict_p50_ms": len(latencies),
            "verdict_tail_ms": len(latencies),
            "decided_share": len(records),
            "peak_rss_mb": 1,
        },
        "tail_percentile": q,
        "raw": {
            "setup_s": statistics.median(result["raw_setups"]),
            "wall_s": statistics.median(result["raw_pass_walls"]),
            "verdict_p50_ms": statistics.median(raw_latencies) * 1000.0,
            "verdict_tail_ms": tail(raw_latencies, min_samples)[0] * 1000.0,
        },
    }
    return metrics, info


def traced_run(workload: str, seed: int, deadline: float):
    """A traced interpreter next to an untraced one doing the same work
    (MIN_PASSES passes, or one certify sweep)."""
    base = json.loads(worker(workload, seed, deadline)[2][-1])
    traced = json.loads(worker(workload, seed, deadline, "--trace")[2][-1])
    untraced_wall, traced_wall = sum(base["pass_walls"]), sum(traced["pass_walls"])
    layers = dict(traced["layers"])
    layers["trace.overhead_share"] = (traced_wall - untraced_wall) / untraced_wall
    records = base["records"] + traced["records"]
    self_check = [a + b for a, b in zip(base["self_check"], traced["self_check"])]
    info = {"untraced_wall_s": untraced_wall, "traced_wall_s": traced_wall,
            "spans_file": os.path.relpath(spans_path(workload, seed), ROOT)}
    metrics = {name: (value, LAYER_UNITS[name.rsplit(".", 1)[-1]])
               for name, value in layers.items()}
    return records, self_check, metrics, info


def git_commit() -> str | None:
    """HEAD's commit, from a loose ref or from `packed-refs`; None outside git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            ref = handle.read().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as handle:
                return handle.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
                for line in handle:
                    sha, _, name = line.strip().partition(" ")
                    if name == ref:
                        return sha
    except OSError:
        pass
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(SRC)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def provenance(args) -> dict:
    return {
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "workload": args.workload,
        "workload_seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="primefourier benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "primefourier", "__init__.py")):
        print(f"perfbench: no primefourier sources under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(RESULTS, exist_ok=True)
    deadline = time.monotonic() + RUN_CEILING_S
    record = {"provenance": provenance(args)}
    try:
        if args.trace:
            records, self_check, metrics, info = traced_run(args.workload, args.seed, deadline)
        else:
            result = measured_run(args.workload, args.seed, args.seconds, deadline)
            records, self_check = result["records"], result["self_check"]
            metrics, info = end_to_end(args.workload, result)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    record.update(info)
    attempted = len(records)
    failed = sum(r[2] in ("wrong", "error") for r in records)
    record.update({
        "attempted": attempted, "failed": failed, "failed_share": failed / attempted,
        "timeouts": sum(r[2] == "timeout" for r in records),
        "self_check": {"attempted": self_check[0], "failed": self_check[1],
                       "failed_share": self_check[1] / self_check[0] if self_check[0] else 0.0},
        # Measured by traced runs only.
        "trace.overhead_share": metrics["trace.overhead_share"][0] if args.trace else None,
        "requests": records,
    })
    out = {
        "correct": failed == 0 and self_check[0] > 0 and self_check[1] == self_check[0],
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record["result"] = out
    path = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    summary = {k: v for k, v in record.items() if k not in ("requests", "result")}
    print(json.dumps(summary, sort_keys=True))
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
