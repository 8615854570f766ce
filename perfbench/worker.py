"""One benchmark interpreter: build the seeded inputs, serve them in a closed loop.

`run.py` starts this script in a fresh interpreter for every run, so no cache
of the library (`_cached_minor_det`, `_root_power_num`) survives from one run
to the next.  The script prints `ready` just before the first timed request,
which lets the parent time interpreter start, import and input build, then a
host-speed probe for that set-up, and finally one JSON line with the raw
samples.  Every request is timed between two host-speed probes
(`hostspeed.py`) and recorded both raw and adjusted.  Without `--seconds` a
stream serves exactly MIN_PASSES passes.

    python3 perfbench/worker.py --workload construct-ladder --seed 1 --seconds 30
    python3 perfbench/worker.py --workload transform-stream --seed 1 --trace
    python3 perfbench/worker.py --workload certify-p7 --seed 1
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import signal
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))

import primefourier  # noqa: E402
from primefourier import cli  # noqa: E402

import hostspeed  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402
from settings import (CERTIFY_COUNTS, CERTIFY_LIMIT_S, MIN_PASSES,  # noqa: E402
                      certify_argv, spans_path)

# Per-workload stream: request builder and per-request limit.
STREAMS = {
    "construct-ladder": (workloads.construct_ladder, workloads.LADDER_LIMIT_S),
    "transform-stream": (workloads.transform_stream, workloads.STREAM_LIMIT_S),
}
# CPU seconds between host-speed probes during a certify sweep.
CERTIFY_PROBE_EVERY_S = 0.2

LAYERS = (
    "cyclotomic.inverse", "cyclotomic.mul", "cyclotomic.add",
    "fourier.dft", "fourier.convolve", "fourier.support",
    "fourier.minor_det", "fourier.minor_solve",
    "uncertainty.construct_support_pair", "uncertainty.certify_tightness",
    "applications.sparse_zero_count", "applications.multi_dft",
)


class RequestTimeout(BaseException):
    """Raised by the alarm inside a request that ran past its limit."""


def _on_alarm(signum, frame):
    raise RequestTimeout()


def ready(setup_only: bool) -> None:
    """Mark the end of set-up, then probe the host speed it ran at."""
    print("ready", flush=True)
    print(json.dumps({"setup_probe": hostspeed.probe()}), flush=True)
    if setup_only:
        sys.exit(0)


def timed(request, limit: float, tracer):
    """Serve one request under a limit enforced by SIGALRM from outside the library."""
    signal.setitimer(signal.ITIMER_REAL, limit)
    start = time.perf_counter()
    try:
        with tracer.request(request.kind) if tracer else contextlib.nullcontext():
            output = request.call()
        return time.perf_counter() - start, "ok", output
    except RequestTimeout:
        return limit, "timeout", None
    except Exception as exc:  # a library error is a failed request, not a crash
        return time.perf_counter() - start, "error", repr(exc)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def serve(args, tracer) -> dict:
    build, limit = STREAMS[args.workload]
    requests = build(args.seed, 0)
    ready(args.setup_only)
    records, walls, raw_walls = [], [], []
    self_check = [0, 0]
    begin = time.perf_counter()
    index = 0
    while True:
        cycle = time.perf_counter()
        served = []
        before = hostspeed.probe()
        for request in requests:
            elapsed, status, output = timed(request, limit, tracer)
            after = hostspeed.probe()
            # A timeout costs the limit in raw seconds, whatever the host speed.
            adjusted = elapsed if status == "timeout" else elapsed * hostspeed.factor(before, after)
            served.append((request, elapsed, adjusted, status, output))
            before = after
        walls.append(sum(s[2] for s in served))
        raw_walls.append(sum(s[1] for s in served))
        for request, elapsed, adjusted, status, output in served:
            if status == "ok":
                expected = request.expect()
                if not request.check(output, expected):
                    status = "wrong"
                if index == 0:
                    self_check[0] += 1
                    self_check[1] += not request.check(output, request.mutate(expected))
            records.append([request.kind, elapsed, status, adjusted])
        index += 1
        if index >= MIN_PASSES and (args.seconds is None or (
                time.perf_counter() - begin + time.perf_counter() - cycle) > args.seconds):
            break
        requests = build(args.seed, index)
    return {"records": records, "pass_walls": walls, "raw_pass_walls": raw_walls,
            "requests_per_pass": len(requests), "self_check": self_check}


def certify(args, tracer) -> dict:
    """Run `primefourier certify` through `cli.main` in this interpreter.

    A CPU-time timer probes the host speed every CERTIFY_PROBE_EVERY_S
    during the sweep; the probes' own time is taken out of the raw wall.
    """
    ready(args.setup_only)
    probes, spent = [], []

    def on_probe(signum, frame):
        start = time.perf_counter()
        probes.append(hostspeed.probe())
        spent.append(time.perf_counter() - start)

    signal.signal(signal.SIGVTALRM, on_probe)
    signal.setitimer(signal.ITIMER_VIRTUAL, CERTIFY_PROBE_EVERY_S, CERTIFY_PROBE_EVERY_S)
    signal.setitimer(signal.ITIMER_REAL, CERTIFY_LIMIT_S)
    buffer = io.StringIO()
    status = "ok"
    try:
        with tracer.request("certify") if tracer else contextlib.nullcontext():
            with contextlib.redirect_stdout(buffer):
                cli.main(certify_argv(args.seed))
    except RequestTimeout:
        status = "timeout"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
    report = json.loads(buffer.getvalue()) if status == "ok" else None
    if status == "ok" and not oracle.check_certify(report, CERTIFY_COUNTS):
        status = "wrong"
    raw = report["wall_time_s"] - sum(spent) if report else CERTIFY_LIMIT_S
    speed = sum(probes) / len(probes) if probes else hostspeed.probe()
    adjusted = raw * hostspeed.REFERENCE_S / speed
    wrong_caught = report is not None and not oracle.check_certify(
        report, {k: v + 1 for k, v in CERTIFY_COUNTS.items()})
    return {"records": [["certify", raw, status, adjusted]], "pass_walls": [adjusted],
            "raw_pass_walls": [raw], "requests_per_pass": 1,
            "self_check": [1, int(wrong_caught)] if report else [0, 0],
            "report_bytes": len(buffer.getvalue().encode()), "report": report}


def layer_metrics(tracer, result: dict) -> dict:
    calls, self_s = tracer.calls, tracer.self_s
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.self_s"] = self_s[layer]
    out["cyclotomic.inverse.max_bits"] = tracer.max_bits["cyclotomic.inverse"]
    counts = (result.get("report") or {}).get("counts", {})
    instances = counts.get("minors", 0) + counts.get("tightness", 0)
    out["fourier.minor_det.per_request"] = (
        calls["fourier.minor_det"] / instances if instances else 0.0)
    construct = tracer.inclusive_s("uncertainty.construct_support_pair")
    verify = (tracer.inclusive_s("uncertainty.verify")
              + tracer.inclusive_s("fourier.support", ("uncertainty.construct_support_pair",))
              + tracer.inclusive_s("fourier.dft", ("uncertainty.construct_support_pair",)))
    out["uncertainty.verify_share"] = verify / construct if construct else 0.0
    out["uncertainty.witness_max_bits"] = tracer.max_bits["uncertainty.construct_support_pair"]
    out["uncertainty.sweep.self_s"] = self_s["uncertainty.sweep"]
    out["applications.cd_proof_witness.self_s"] = self_s["applications.cd_proof_witness"]
    out["cli.main.self_s"] = self_s["cli.main"]
    out["cli.report_bytes"] = result.get("report_bytes", 0)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(STREAMS) + ["certify-p7"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None,
                        help="serve passes for this long (default: exactly MIN_PASSES)")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true",
                        help="exit once the inputs are built")
    args = parser.parse_args(argv)

    signal.signal(signal.SIGALRM, _on_alarm)
    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install(primefourier)
    if args.workload == "certify-p7":
        result = certify(args, tracer)
    else:
        result = serve(args, tracer)
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, result)
        os.makedirs(os.path.dirname(spans_path(args.workload, args.seed)), exist_ok=True)
        tracer.write_spans(spans_path(args.workload, args.seed))
    result.pop("report", None)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
