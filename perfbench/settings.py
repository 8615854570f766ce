"""Settings shared by `run.py` and `worker.py`: the certify command, its limit,
the minimum run length and where results go."""

from __future__ import annotations

import os

import oracle

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
RESULTS = os.path.join(BENCH_DIR, "results")

CERTIFY_P = 7
CERTIFY_COUNTS = oracle.certify_counts(CERTIFY_P)
CERTIFY_LIMIT_S = 150.0
# The request streams serve at least this many passes per run (certify-p7
# serves one sweep), and a traced run serves exactly this many.
MIN_PASSES = 4


def certify_argv(seed: int) -> list[str]:
    """The measured command: `primefourier certify --p 7 --jobs 1 --format json`."""
    return ["certify", "--p", str(CERTIFY_P), "--jobs", "1", "--format", "json",
            "--seed", str(seed % (1 << 64))]


def spans_path(workload: str, seed: int) -> str:
    """The file a traced worker writes its kept spans to."""
    return os.path.join(RESULTS, f"spans-{workload}-seed{seed}.jsonl")
