"""Span tracer installed around primefourier's public functions at run time.

The library looks up `fourier.minor_det`, `uncertainty.construct_support_pair`,
`CycloNum.__mul__` and the other traced names at call time, so replacing the
module attributes and class methods is enough to observe every call without
editing the library.  Each wrapped call is a span: it records its count and
its self time (its duration minus the time covered by wrapped calls inside
it).  Spans of the coarse layers (everything except the CycloNum operators,
which run millions of times) are also kept in memory with name, start, end,
parent and request id, and written out when the run ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

# (module, attribute path, layer name, keep the individual spans)
TARGETS = (
    ("cyclotomic", "CycloNum.inverse", "cyclotomic.inverse", False),
    ("cyclotomic", "CycloNum.__mul__", "cyclotomic.mul", False),
    ("cyclotomic", "CycloNum.__rmul__", "cyclotomic.mul", False),
    ("cyclotomic", "CycloNum.__add__", "cyclotomic.add", False),
    ("cyclotomic", "CycloNum.__radd__", "cyclotomic.add", False),
    ("cyclotomic", "CycloNum.__sub__", "cyclotomic.add", False),
    ("cyclotomic", "CycloNum.__rsub__", "cyclotomic.add", False),
    ("fourier", "dft", "fourier.dft", True),
    ("fourier", "idft", "fourier.dft", True),
    ("fourier", "convolve", "fourier.convolve", True),
    ("fourier", "support", "fourier.support", True),
    ("fourier", "minor_det", "fourier.minor_det", True),
    ("fourier", "minor_solve", "fourier.minor_solve", True),
    ("uncertainty", "construct_support_pair", "uncertainty.construct_support_pair", True),
    ("uncertainty", "_verify_witness_supports", "uncertainty.verify", True),
    ("uncertainty", "certify_tightness", "uncertainty.certify_tightness", True),
    ("uncertainty", "exhaustive_certification", "uncertainty.sweep", True),
    ("applications", "sparse_zero_count", "applications.sparse_zero_count", True),
    ("applications", "multi_dft", "applications.multi_dft", True),
    ("applications", "multi_idft", "applications.multi_dft", True),
    ("applications", "cd_proof_witness", "applications.cd_proof_witness", True),
    ("applications", "meshulam_check", "applications.meshulam_check", True),
    ("cli", "main", "cli.main", True),
)

# Layers whose return value is measured after the span closes.
_INVERSE = "cyclotomic.inverse"
_CONSTRUCT = "uncertainty.construct_support_pair"


def value_bits(value) -> int:
    """Largest numerator or denominator bit length of one CycloNum."""
    return max(max(abs(c).bit_length() for c in value._num), value._den.bit_length())


class Tracer:
    """Counts, self times and coarse spans for one traced interpreter."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.max_bits: dict[str, int] = defaultdict(int)
        # Coarse spans: [id, parent id, request id, name, start, end, child seconds].
        self.spans: list[list] = []
        # Open frames: [name, child seconds, span id children attach to, request id].
        self._stack: list[list] = []

    def install(self, package) -> None:
        for module_name, path, name, keep in TARGETS:
            owner = getattr(package, module_name)
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part)
            setattr(owner, attr, self._wrap(name, getattr(owner, attr), keep))

    def _enter(self, name: str, keep: bool) -> list:
        stack = self._stack
        parent = stack[-1][2] if stack else -1
        request = stack[-1][3] if stack else -1
        span_id = parent
        if keep:
            span_id = len(self.spans)
            if request < 0:
                request = span_id
            self.spans.append([span_id, parent, request, name, 0.0, 0.0, 0.0])
        frame = [name, 0.0, span_id, request]
        stack.append(frame)
        return frame

    def _exit(self, frame: list, keep: bool, start: float, end: float) -> None:
        stack = self._stack
        stack.pop()
        name, child, span_id, _ = frame
        duration = end - start
        self.calls[name] += 1
        self.self_s[name] += duration - child
        if stack:
            stack[-1][1] += duration
        if keep:
            span = self.spans[span_id]
            span[4], span[5], span[6] = start, end, child

    def _wrap(self, name: str, fn, keep: bool):
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            # A call re-entering the same layer (a - b calls a + (-b)) is part
            # of the outer span, not a second operation.
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            frame = self._enter(name, keep)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self._exit(frame, keep, start, end)
            if name == _INVERSE:
                self.max_bits[name] = max(self.max_bits[name], value_bits(result))
            elif name == _CONSTRUCT:
                bits = max(value_bits(v) for v in result.signal.values)
                self.max_bits[name] = max(self.max_bits[name], bits)
            return result

        return traced

    def request(self, kind: str):
        """Context manager for the benchmark's root span of one request.

        A request that raises (a timeout or an error) is rolled back: its
        partial counts, self times and spans are discarded, so the per-layer
        figures cover exactly the requests that reached a verdict and repeat
        exactly from run to run.
        """
        return _RequestSpan(self, "bench.request:" + kind)

    def _snapshot(self):
        return (dict(self.calls), dict(self.self_s), dict(self.max_bits), len(self.spans))

    def _rollback(self, snapshot) -> None:
        calls, self_s, max_bits, n_spans = snapshot
        self.calls = defaultdict(int, calls)
        self.self_s = defaultdict(float, self_s)
        self.max_bits = defaultdict(int, max_bits)
        del self.spans[n_spans:]
        self._stack.clear()

    def inclusive_s(self, name: str, parents: tuple[str, ...] = ()) -> float:
        """Total duration of kept spans named `name`, optionally only those
        whose parent span is one of `parents`."""
        spans = self.spans
        total = 0.0
        for span in spans:
            if span[3] != name:
                continue
            if parents and (span[1] < 0 or spans[span[1]][3] not in parents):
                continue
            total += span[5] - span[4]
        return total

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span_id, parent, request, name, start, end, child in self.spans:
                out.write(json.dumps({
                    "id": span_id, "parent": parent, "request": request,
                    "name": name, "start": start, "end": end,
                    "self_s": end - start - child,
                }, separators=(",", ":")))
                out.write("\n")


class _RequestSpan:
    __slots__ = ("tracer", "name", "frame", "start", "snapshot")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.snapshot = self.tracer._snapshot()
        self.frame = self.tracer._enter(self.name, True)
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None:
            self.tracer._rollback(self.snapshot)
        else:
            self.tracer._exit(self.frame, True, self.start, time.perf_counter())
        return False
