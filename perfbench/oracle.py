"""Independent answer checks, written without calling the library.

Values are read only through `CycloNum.coeffs` (rational coefficients on the
power basis 1, w, ..., w^(p-2)).  The exact evaluator works on the redundant
spanning set 1, w, ..., w^(p-1), where the only linear relation is
1 + w + ... + w^(p-1) = 0: a vector there is zero in Q(w) exactly when all
its p entries are equal.  The floating oracle is a plain O(p^2) `cmath` DFT.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

# Tolerance of the floating oracle, relative to a bound on the magnitude of
# the sums compared.  Double-precision rounding stays near 1e-14 of that bound
# at p ~ 100, and the bound stays below 1e11 here, so an answer off by one is
# always caught.
FLOAT_TOL = 1e-12


def certify_counts(p: int) -> dict[str, int]:
    """Closed-form instance counts of `primefourier certify --p p`."""
    c = math.comb
    minors = sum(c(p, n) ** 2 for n in range(1, p + 1))
    tightness = sum(c(p, a) * sum(c(p, b) for b in range(0, p - a + 1))
                    for a in range(1, p + 1))
    achievability = sum(c(p, a) * sum(c(p, b) for b in range(max(1, p + 1 - a), p + 1))
                        for a in range(1, p + 1))
    return {"minors": minors, "tightness": tightness, "achievability": achievability}


def check_certify(report: dict | None, counts: dict[str, int]) -> bool:
    return (report is not None and report.get("status") == "ok"
            and report.get("counts") == counts
            and report.get("result", {}).get("all_ok") is True)


def scaled_vectors(values) -> tuple[list[list[int]], int]:
    """Integer coefficient vectors of `values` over one common denominator."""
    coeffs = [v.coeffs for v in values]
    den = 1
    for cs in coeffs:
        for c in cs:
            den = den * c.denominator // math.gcd(den, c.denominator)
    return [[int(c * den) for c in cs] for cs in coeffs], den


def _is_zero_redundant(acc: list[int]) -> bool:
    return min(acc) == max(acc)


def exact_support(values) -> set[int]:
    """Points where the signal is nonzero (power-basis vectors are unique)."""
    return {x for x, v in enumerate(values) if any(v.coeffs)}


def exact_fourier_support(values, p: int) -> set[int]:
    """Frequencies xi with sum_x f(x) w^(-x*xi) != 0, decided exactly."""
    vecs, _ = scaled_vectors(values)
    terms = [(x, [(i, c) for i, c in enumerate(vec) if c]) for x, vec in enumerate(vecs)]
    terms = [(x, t) for x, t in terms if t]
    out = set()
    for xi in range(p):
        acc = [0] * p
        for x, entries in terms:
            shift = (-x * xi) % p
            for i, c in entries:
                acc[(i + shift) % p] += c
        if not _is_zero_redundant(acc):
            out.add(xi)
    return out


def exact_convolution(f_values, g_values, p: int) -> list[list[Fraction]]:
    """(f*g)(x) = sum_y f(y) g(x-y), returned as power-basis coefficients."""
    fv, fden = scaled_vectors(f_values)
    gv, gden = scaled_vectors(g_values)
    den = fden * gden
    out = []
    for x in range(p):
        acc = [0] * p
        for y in range(p):
            a, b = fv[y], gv[(x - y) % p]
            if not any(a) or not any(b):
                continue
            for i, ca in enumerate(a):
                if ca:
                    for j, cb in enumerate(b):
                        if cb:
                            acc[(i + j) % p] += ca * cb
        top = acc[p - 1]
        out.append([Fraction(c - top, den) for c in acc[:p - 1]])
    return out


def roots(p: int) -> list[complex]:
    return [cmath.exp(2j * cmath.pi * k / p) for k in range(p)]


def embed(value, table: list[complex]) -> complex:
    """Value of one CycloNum at w = e^(2*pi*i/p), from its coefficients."""
    return sum((float(c) * table[i] for i, c in enumerate(value.coeffs) if c), 0j)


def float_dft(samples: list[complex], table: list[complex], sign: int, scale: float) -> list[complex]:
    """scale * sum_x samples[x] * w^(sign*x*xi) for every xi."""
    p = len(samples)
    return [scale * sum(s * table[(sign * x * xi) % p] for x, s in enumerate(samples))
            for xi in range(p)]


def float_convolution(f: list[complex], g: list[complex]) -> list[complex]:
    p = len(f)
    return [sum(f[y] * g[(x - y) % p] for y in range(p)) for x in range(p)]


def close(got: list[complex], want: list[complex], magnitude: float) -> bool:
    limit = FLOAT_TOL * (1.0 + magnitude)
    return len(got) == len(want) and all(abs(a - b) <= limit for a, b in zip(got, want))
