import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from primefourier import (CycloNum, FourierMinor, PrimeModulus, SignalFn, SupportSet,
                          construct_support_pair, idft, minor_det)
from primefourier import fourier


def float_dft(values, p):
    """Independent floating oracle: (1/p) * sum_x f(x) e^(-2*pi*i*x*xi/p)."""
    return np.fft.fft(np.asarray(values, dtype=complex)) / p


def random_cyclo(rng: random.Random, modulus: PrimeModulus, lo=-10, hi=10,
                 den_max=1) -> CycloNum:
    coeffs = []
    for _ in range(modulus.p - 1):
        den = rng.randint(1, den_max) if den_max > 1 else 1
        coeffs.append(Fraction(rng.randint(lo, hi), den))
    return CycloNum(modulus, coeffs)


def random_dense_signal(rng: random.Random, modulus: PrimeModulus, bits=30) -> SignalFn:
    """Every value dense in Q(w): bits-bit numerators over mixed small denominators."""
    top = 2**bits
    return SignalFn(modulus, [
        CycloNum(modulus, [Fraction(rng.randint(-top, top), rng.choice((1, 2, 3, 7)))
                           for _ in range(modulus.p - 1)])
        for _ in range(modulus.p)
    ])


def random_int_signal(rng: random.Random, modulus: PrimeModulus, lo=-9, hi=9) -> SignalFn:
    while True:
        values = [rng.randint(lo, hi) for _ in range(modulus.p)]
        if any(values):
            return SignalFn(modulus, values)


def pivot_minor(a: SupportSet, b: SupportSet):
    """The minor on rows -(B^c) and the first p - |B| members of A, or None when B = Z/p."""
    modulus = a.modulus
    p = modulus.p
    n = p - len(b)
    if not n:
        return None
    rows = SupportSet(modulus, ((-eta) % p for eta in b.complement()))
    return FourierMinor(modulus, rows, SupportSet(modulus, a.members[:n]))


def pivot_det(a: SupportSet, b: SupportSet) -> CycloNum:
    """det of pivot_minor(a, b), or 1 when B = Z/p: the witness's value at the first free point."""
    minor = pivot_minor(a, b)
    return CycloNum.one(a.modulus) if minor is None else minor_det(minor)


def negated(s: SupportSet) -> SupportSet:
    """-S."""
    return SupportSet(s.modulus, ((-x) % s.modulus.p for x in s))


def solved_side(witness):
    """The witness whose pivot minor construct_support_pair solved for this one.

    That is the witness itself when |A| <= |B|.  When |A| > |B| it is the
    witness g of the smaller side (B, -A), and this one must be idft(g) with
    g's weights, which is asserted here.
    """
    a, b = witness.target_support, witness.target_spectrum
    if len(a) <= len(b):
        return witness
    dual = construct_support_pair(b, negated(a))
    assert witness.signal == idft(dual.signal)
    assert witness.combination_coeffs == dual.combination_coeffs
    return dual


def inject_fault(monkeypatch, bad):
    """Make the minor bad = (rows, cols) singular to the image and the exact test.

    Returns the list of times bad was imaged, one entry each.
    """
    real_images, real_det = fourier.image_dets, fourier.minor_det
    consulted = []

    def fake_images(modulus, rows, col_sets):
        images = real_images(modulus, rows, col_sets)
        consulted.extend((rows, cols) for cols in col_sets if (rows, cols) == bad)
        return [0 if (rows, cols) == bad else image for cols, image in zip(col_sets, images)]

    def fake_det(minor):
        if (minor.rows.members, minor.cols.members) == bad:
            return CycloNum.zero(minor.modulus)
        return real_det(minor)

    monkeypatch.setattr(fourier, "image_dets", fake_images)
    monkeypatch.setattr(fourier, "minor_det", fake_det)
    return consulted


def integral(f: SignalFn) -> bool:
    """Whether every value of f lies in Z[w] (all its coefficients are integers)."""
    return all(c.denominator == 1 for v in f.values for c in v.coeffs)


# The four generators of the symmetry group of supports.  Each is written on
# the values directly, so the group-action tests do not rest on SignalFn.
def translate(f: SignalFn, t: int) -> SignalFn:
    """x -> f(x - t): supports (A, B) -> (A + t, B)."""
    p = f.modulus.p
    return SignalFn(f.modulus, [f.values[(x - t) % p] for x in range(p)])


def modulate(f: SignalFn, s: int) -> SignalFn:
    """x -> f(x) * w^(s*x): supports (A, B) -> (A, B + s)."""
    return SignalFn(f.modulus, [v * CycloNum.root_power(f.modulus, s * x)
                                for x, v in enumerate(f.values)])


def dilate(f: SignalFn, u: int) -> SignalFn:
    """x -> f(u^-1 * x) for a unit u: supports (A, B) -> (u*A, u^-1*B)."""
    p = f.modulus.p
    u_inv = pow(u, -1, p)
    return SignalFn(f.modulus, [f.values[x * u_inv % p] for x in range(p)])


def galois(f: SignalFn, k: int) -> SignalFn:
    """x -> sigma_k(f(x)), with sigma_k: w -> w^k: supports (A, B) -> (A, k*B)."""
    return SignalFn(f.modulus, [v.galois(k) for v in f.values])


def certification_instances(p):
    """Every certification instance (kind, first, second), the small-p reference.

    First all equal-size minors (rows, cols), then the tightness pairs (A, B)
    with nonempty A and |A| + |B| <= p, then the achievable pairs with
    nonempty A and |A| + |B| >= p + 1; each kind by size, then
    lexicographically.  The sweep checks one orbit record per class of these.
    """
    by_size = [list(itertools.combinations(range(p), n)) for n in range(p + 1)]
    for n in range(1, p + 1):
        for rows in by_size[n]:
            for cols in by_size[n]:
                yield "minor", rows, cols
    for kind, reachable in (("tightness", False), ("achievability", True)):
        for a_size in range(1, p + 1):
            for b_size in range(p + 1):
                if (a_size + b_size > p) == reachable:
                    for a in by_size[a_size]:
                        for b in by_size[b_size]:
                            yield kind, a, b


def closed_form_counts(p):
    """The number of instances of each kind at p."""
    minors = math.comb(2 * p, p) - 1
    tight = sum(math.comb(p, a) * math.comb(p, b)
                for a in range(1, p + 1) for b in range(0, p - a + 1))
    return {"minor": minors, "tightness": tight,
            "achievability": (2 ** p - 1) * 2 ** p - tight}


@pytest.fixture(scope="session")
def oracle_corpus():
    """100 seeded random integer signals with |values| <= 10^3 and p <= 97.

    Shared by the oracle-agreement, Plancherel, round-trip and convolution
    acceptance criteria.
    """
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
              53, 59, 61, 67, 71, 73, 79, 83, 89, 97]
    rng = random.Random(20240)
    corpus = []
    for i in range(100):
        # Cycle the primes so the largest ones are guaranteed to appear.
        p = primes[i % len(primes)] if i < len(primes) else rng.choice(primes)
        modulus = PrimeModulus(p)
        corpus.append(random_int_signal(rng, modulus, -1000, 1000))
    return corpus
