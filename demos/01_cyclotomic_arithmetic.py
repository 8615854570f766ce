#!/usr/bin/env python3
"""Exact arithmetic with roots of unity.

Every quantity in this package lives in the field Q(w), w = e^(2*pi*i/p),
represented exactly on the power basis {1, w, ..., w^(p-2)}.  Because the
representation is canonical, "is this zero?" is a decided question, which is
what lets the rest of the library certify theorems instead of approximating
them.
"""

from fractions import Fraction

from primefourier import CycloNum, PrimeModulus, SparsePoly, sparse_zero_count

p = PrimeModulus(7)
w = CycloNum.root_power(p, 1)

print(f"Working in Q(w) for p = {p.p}, w a primitive 7th root of unity\n")

print("Powers reduce modulo p and fold through the minimal polynomial:")
print(f"  w^9  = {CycloNum.root_power(p, 9)}")
print(f"  w^6  = {CycloNum.root_power(p, 6)}   (= -(1 + w + ... + w^5))\n")

print("The defining relations hold exactly:")
total = CycloNum.zero(p)
for k in range(7):
    total = total + CycloNum.root_power(p, k)
print(f"  1 + w + ... + w^6 = {total}  -> is_zero: {total.is_zero()}")
print(f"  w^7 = {w ** 7}\n")

a = 1 - w
inv = a.inverse()
print("Field inverses come from the Galois norm (product of all conjugates):")
print(f"  (1 - w)^-1 = {inv}")
print(f"  product check: {(a * inv)}\n")

print("Conjugation is the automorphism w -> w^(p-1):")
z = Fraction(1, 2) + w
print(f"  conj(1/2 + w) = {z.conj()}")
print(f"  |1/2 + w|^2   = {z * z.conj()}\n")

print("Double-precision embedding (used only as a test oracle):")
print(f"  embed(w) = {w.embed():.6f}\n")

print("Divisibility lemma: if an integer polynomial vanishes at a p-th root of")
print("unity w != 1, its value at 1 is a multiple of p (w -> 1 maps Z[w] onto F_p).")
coefficients = [1, 1, 1]  # 1 + z + z^2
report = sparse_zero_count(SparsePoly(PrimeModulus(3), enumerate(coefficients)))
value_at_one = sum(coefficients)
print(f"  P = 1 + z + z^2 at p = 3 vanishes at w^t for t in {report.zeros.members}; "
      f"P(1) = {value_at_one}, divisible by 3: {value_at_one % 3 == 0}")
assert report.zeros.members == (1, 2) and value_at_one % 3 == 0
