#!/usr/bin/env python3
"""The additive uncertainty principle on Z/pZ, both directions.

Forward: a nonzero signal and its transform cannot both be sparse --
|supp f| + |supp fhat| >= p + 1, strictly better than the classical product
bound when p is prime.  Converse: that inequality is the ONLY obstruction;
any pair of support sets satisfying it is realized by an explicit signal.
"""

from primefourier import (
    FourierMinor,
    PrimeModulus,
    SignalFn,
    SupportSet,
    certify_tightness,
    construct_support_pair,
    dft,
    exhaustive_certification,
    minor_det,
    support,
    verify_uncertainty,
)

p = PrimeModulus(7)

print("Forward bound on a few signals (p = 7):")
for name, f in [
    ("point mass", SignalFn.dirac(p, 3)),
    ("constant", SignalFn.constant(p, 1)),
    ("two points", SignalFn(p, [1, 1, 0, 0, 0, 0, 0])),
]:
    report = verify_uncertainty(f)
    print(f"  {name:<11} |supp f| = {len(report.support)}, "
          f"|supp fhat| = {len(report.fourier_support)}, "
          f"sum = {report.support_sum} >= {p.p + 1}")
print()

print("Tightness below the threshold: for |A| + |B| <= p no nonzero signal")
print("fits, certified by one nonzero minor determinant.")
a = SupportSet(p, [0, 1, 4])
b = SupportSet(p, [2, 3, 5, 6])
print(f"  A = {a.members}, B = {b.members}: "
      f"certified = {certify_tightness(p, a, b)}\n")

print("Constructive converse: prescribe supports, get a signal.  fhat = 0 off B")
print("is one linear system on the Fourier minor M with rows -(B^c) and the first")
print("p - |B| members of A; by Cramer's rule its values are minors of the character")
print("table, so they lie in Z[w], and f(max A) = det M.")
a = SupportSet(p, [0, 2, 5])
b = SupportSet(p, [1, 2, 3, 4, 6])
witness = construct_support_pair(a, b)
rows = SupportSet(p, ((-eta) % p.p for eta in b.complement()))
pivots = SupportSet(p, a.members[:p.p - len(b)])
print(f"  targets A = {a.members}, B = {b.members}")
for x, value in enumerate(witness.signal.values):
    print(f"    f({x}) = {value}")
print(f"  det M = {minor_det(FourierMinor(p, rows, pivots))}"
      f"  (rows {rows.members}, columns {pivots.members})")
print(f"  supp(f)    = {support(witness.signal).members}")
print(f"  supp(fhat) = {support(dft(witness.signal)).members}\n")

print("Oversized pairs weight the k = |A| + |B| - p free points of A by 1, t, ...,")
print("t^(k-1) (f there is det M times the weight), solve once for the rest, and are")
print("re-verified exactly; the least t that works is at most p(k - 1) + 1:")
full = SupportSet.full(p)
witness = construct_support_pair(full, full)
print(f"  A = B = all of Z/7Z: combination weights = {witness.combination_coeffs}\n")

summary = exhaustive_certification(PrimeModulus(5))
print(f"Exhaustive certification at p = 5: {summary.minors_checked} minors, "
      f"{summary.tightness_checked} tightness pairs, "
      f"{summary.achievability_checked} achievability pairs -- all certified.")
