#!/usr/bin/env python3
"""The Fourier transform on Z/pZ and the non-singularity of its minors.

The p x p character table (w^(x*xi)) has the striking property, special to
prime p, that EVERY square submatrix is invertible (Chebotarev's theorem).
This script computes transforms exactly, then certifies the property for
p = 5 by brute force: all 251 minors, all determinants nonzero.  Last, it
checks the reason Tao's proof gives: an n x n minor is (1 - w)^N times a
unit u mod (1 - w), N = n(n - 1)/2, with u fixed by two Vandermonde
products of residues.
"""

import itertools
import math

from primefourier import (
    CycloNum,
    FourierMinor,
    PrimeModulus,
    SignalFn,
    SupportSet,
    dft,
    idft,
    minor_det,
    support,
)

p = PrimeModulus(5)

f = SignalFn(p, [1, 2, 0, 0, 3])
F = dft(f)
print(f"Signal          f = {[str(v) for v in f.values]}")
print("Exact transform fhat:")
for xi, value in enumerate(F.values):
    print(f"  fhat({xi}) = {value}")
print(f"Round trip restores f exactly: {idft(F) == f}")
print(f"supp(f) = {support(f).members}, supp(fhat) = {support(F).members}\n")

rows = SupportSet(p, [1, 2])
cols = SupportSet(p, [1, 2])
minor = FourierMinor(p, rows, cols)
print(f"Minor on rows {rows.members}, cols {cols.members}:")
for row in minor.entries:
    print("  [" + ", ".join(str(e) for e in row) + "]")
print(f"  det = {minor_det(minor)}\n")

print("Exhaustive certification at p = 5:")
checked = 0
for n in range(1, 6):
    for r in itertools.combinations(range(5), n):
        for c in itertools.combinations(range(5), n):
            det = minor_det(FourierMinor(p, SupportSet(p, r), SupportSet(p, c)))
            assert not det.is_zero()
            checked += 1
expected = math.comb(10, 5) - 1
print(f"  {checked} minors checked (C(10,5) - 1 = {expected}), all nonsingular\n")


def vandermonde(members):
    return math.prod(b - a for a, b in itertools.combinations(members, 2))


print("The reason in Tao's proof: w -> 1 maps Z[w] onto F_5, so u mod (1 - w) is")
print("u's coefficient sum mod 5, and it equals")
print("(-1)^N V(rows) V(cols) / V(0, ..., n - 1) with V(S) = prod_{j<k} (s_k - s_j):")
inverse = (1 - CycloNum.root_power(p, 1)).inverse()
for cols in ([0, 1], [0, 1, 2], [1, 3, 4]):
    n = len(cols)
    rows = list(range(1, n + 1))
    N = n * (n - 1) // 2
    u = minor_det(FourierMinor(p, SupportSet(p, rows), SupportSet(p, cols)))
    for _ in range(N):
        u = u * inverse
    assert all(c.denominator == 1 for c in u.coeffs)
    residue = int(sum(u.coeffs)) % 5
    expected = ((-1) ** N * vandermonde(rows) * vandermonde(cols)
                * pow(vandermonde(range(n)), -1, 5)) % 5
    assert residue == expected != 0
    print(f"  rows {rows}, cols {cols}: det = (1 - w)^{N} * ({u}), u = {residue} mod (1 - w)")
