"""Exact arithmetic in the cyclotomic field Q(w) for w = e^(2*pi*i/p), p prime.

Elements are written on the power basis {1, w, ..., w^(p-2)}, which is a basis
of Q(w) over the rationals because the minimal polynomial 1 + z + ... + z^(p-1)
of w has degree p - 1.  Coefficients are exact rationals held as one integer
numerator vector over a single positive denominator, reduced so that the
numerators and the denominator share no common factor.  This makes the
representation canonical: two elements are equal iff their stored vectors are
identical, so the zero test (and with it every "non-zero" claim downstream)
is sound and complete.

Products run on the redundant spanning set {1, w, ..., w^(p-1)}, where
multiplying by w is a cyclic shift and the automorphism w -> w^k (galois)
moves coefficient i to i*k mod p.  Only this module knows how a value is
stored and packed: dense products, character_sums (the kernel behind every
transform in fourier, with its slots in discrete-log order), vanishing_sums
and cyclic_convolution turn vectors into big integers through one
linear-time codec (Kronecker substitution), with digits just as wide as
their bound needs, and every packed character sum is read back by one
rule, its residue mod Phi_p(2^W) (_fold_residues).  The sums pack the
numerators of all their values as one string of signed struct items, the
fewest bytes that hold them, take their bias from a field-wise max on that
string and unpack through struct, so neither the packing, the bias (above
the size where a scan of the rows is cheaper) nor the reduction visits a
coefficient in Python.  A value with one nonzero coefficient (every
rational) is never packed: both sum kernels add it to the unpacked
numerators of each sum (_redundant_sums).  Inverses come from the Galois norm: the product of
all p - 1 conjugates of a nonzero element is a nonzero rational, so
dividing the product of the other p - 2 conjugates by it inverts the
element with integer vector arithmetic alone.  The Galois group is cyclic,
so a doubling chain builds that product in O(log p) multiplications.
CycloNum.of is the one way a caller's value gets into Q(w).

A character sum turns each packed slot by some number of digits r.  From
p = 47 on, r = 8j + s is split in two steps: each slot is turned by
s = 0 .. 7 once per call (a table of 8 times the packed slots), and each
giant step j adds its turned slots unshifted for all p - 1 sums at once,
one column slice of the table per slot position, and turns each group's
total once.  Below that, one shift per slot is cheaper, and p <= 43 runs
no two-step sum.  All sums of a call are decoded in one pass.

ResidueRing is the codec of fourier's exact eliminations: Z[w] maps onto
Z/N for N = Phi_p(2^W) by w -> 2^W, and a value whose coefficients are small
enough for W comes back from its residue as its balanced base-2^W digits.
It picks W for a Fourier minor and its right-hand side, and encodes the
minor's root powers as powers of 2^W.
"""

from __future__ import annotations

import bisect
import cmath
import functools
import itertools
import math
import numbers
import operator
import struct
import sys
from fractions import Fraction

from .errors import TheoremViolationError

MAX_PRIME = 10007

# Above this many nonzero coefficient products per unit of p, multiplication
# switches from the schoolbook loop over the nonzero coefficients to one packed
# big-integer product (_packed_convolution, through the codec below), whose
# cost depends on p and the coefficient size but not on how sparse the
# operands are.  Measured crossovers of dense operands lie between 4p and 16p
# products at p = 7 to 31, higher for wider coefficients.  The packed product
# gives both operands digits as wide as the product's, so the count is
# weighted by min(da, db) / max(da, db), da and db the machine digits of the
# largest |coefficient| of each operand: 4-bit x 2000-bit dense products
# were 2.4-6.9 times slower packed than schoolbook at p = 13-101, and on
# dense pairs of 4 to 4000 bits at p = 13-101 the weighted rule's pick was
# at most 2.2 times slower than the faster path, the plain count's 9.6.
_DENSE_MUL_THRESHOLD = 8
_DIGIT_BITS = sys.int_info.bits_per_digit


# The first twelve primes, and psi_k for k = 1 .. 12: the least composite that
# passes the strong (Miller-Rabin) test to the first k of them (OEIS A014233;
# Jaeschke, "On strong pseudoprimes to several bases", Math. Comp. 61 (1993),
# up to k = 8; Jiang and Deng, Math. Comp. 83 (2014), for k = 9 to 11;
# Sorenson and Webster, "Strong pseudoprimes to twelve prime bases", Math.
# Comp. 86 (2017), for k = 12).  So n < psi_k is prime iff it passes the
# first k bases, and _MR_LIMIT = psi_12 bounds the proven range.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
           341550071728321, 341550071728321, 3825123056546413051,
           3825123056546413051, 3825123056546413051, 318665857834031151167461)
_MR_LIMIT = _MR_PSI[-1]


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin test to the first k prime bases.

    k is the least with n < psi_k (see _MR_PSI): 4 bases near 2^31, at most
    12.  Proven for every n below 3.18 * 10^23 (_MR_LIMIT); a larger n
    raises ValueError rather than risk a strong pseudoprime.
    """
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    if n >= _MR_LIMIT:
        raise ValueError(f"{n} is beyond the proven range of the primality test")
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for b in _MR_BASES[:bisect.bisect_right(_MR_PSI, n) + 1]:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@functools.lru_cache(maxsize=None)
def _primitive_root(p: int) -> int:
    """The least generator of the cyclic group (Z/p)^*, for prime p."""
    factors = [q for q in range(2, p) if (p - 1) % q == 0 and is_prime(q)]
    return next(g for g in range(1, p)
                if all(pow(g, (p - 1) // q, p) != 1 for q in factors))


@functools.lru_cache(maxsize=None)
def image_prime(p: int) -> tuple[int, int]:
    """(q, g): the least prime q = 1 (mod p) above 2^31 and g of order p in F_q.

    g = h^((q-1)/p) for the least h with g != 1, so w -> g is a ring map
    Z[w] -> F_q, under which a value of Z[w] that maps to a nonzero residue
    is itself nonzero.
    """
    q = -(-(1 << 31) // p) * p + 1
    while not is_prime(q):
        q += p
    h = 2
    while pow(h, (q - 1) // p, q) == 1:
        h += 1
    return q, pow(h, (q - 1) // p, q)


class PrimeModulus:
    """A validated prime p, the order of the ambient cyclic group Z/pZ.

    Construction rejects composites (is_prime) and primes above
    MAX_PRIME = 10007.
    """

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not isinstance(p, int) or isinstance(p, bool):
            raise ValueError(f"modulus must be an integer, got {p!r}")
        if p < 2:
            raise ValueError(f"modulus must be at least 2, got {p}")
        if p > MAX_PRIME:
            raise ValueError(f"modulus {p} exceeds the configured bound {MAX_PRIME}")
        if not is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        self.p = p

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PrimeModulus) and self.p == other.p

    def __hash__(self) -> int:
        return hash(("PrimeModulus", self.p))

    def __repr__(self) -> str:
        return f"PrimeModulus({self.p})"


def _rational_parts(value) -> tuple[int, int]:
    # Exact inputs only: a float stands for its binary expansion and a string
    # for parsed text, so both are refused rather than converted.  int and
    # Fraction, nearly every input, skip the slower numbers.Rational check.
    if type(value) is int:
        return value, 1
    if type(value) is Fraction:
        return value.numerator, value.denominator
    if not isinstance(value, numbers.Rational):
        raise TypeError(f"expected an int or a Fraction, got {type(value).__name__} {value!r}")
    return int(value.numerator), int(value.denominator)


def _normalize(num: list[int], den: int) -> tuple[tuple[int, ...], int]:
    # Canonical form: positive denominator, gcd(all numerators, den) == 1.
    if den == 0:
        raise ZeroDivisionError("zero denominator")
    if den < 0:
        den = -den
        num = [-c for c in num]
    g = math.gcd(den, *num)
    if g > 1:
        den //= g
        num = [c // g for c in num]
    return tuple(num), den


@functools.lru_cache(maxsize=None)
def _root_power(p: int, k: int) -> CycloNum:
    # One shared object per (p, k), 0 <= k < p: w^(p-1) = -(1 + ... + w^(p-2)).
    num = (-1,) * (p - 1) if k == p - 1 else tuple(1 if i == k else 0 for i in range(p - 1))
    return CycloNum._raw(PrimeModulus(p), num, 1)


# Kronecker codec of the packed kernels: a list of signed digits d_i,
# -B / 2 <= d_i < B / 2 for B = 2^(8*nbytes), is one integer
# sum_i d_i B^i, the digits' polynomial at z = B, and back.  Sums and cyclic products of
# packed vectors run modulo B^p - 1, where z^p = 1.  Every packed
# character sum is read back by one rule, its residue mod Phi_p(B), which
# divides B^p - 1 and vanishes on the bias of the packed rows, a multiple
# of the all-ones vector J (_fold_residues); the dense multiply, which has
# no bias, reads back its balanced residue mod B^p - 1.  The kernels take
# the width from their inputs through _digit_bytes, which gives the bytes
# the largest digit needs and no more, since every shift, sum and product
# of the packed integers grows with it.  Packed rows take one width rule,
# a spare bit above the digits of their sums (_packed_rows), so every fold
# of an uncarried sum is its balanced residue; cyclic_convolution takes
# its product width from its result, whose sums may carry.
#
# Every digit string is two's complement: nbytes-byte items, little-endian.
# With H = 2**(8*nbytes - 1) in every digit, the items X of digits d give
# sum_i d_i B^i as (X ^ H) - H, and that value plus H has the digits
# d_i + B / 2, all non-negative, so it unpacks back through ^ H.  A width of
# up to 8 bytes converts through the next struct item size of 1, 2, 4 or 8
# bytes in one C call (standard sizes on every host).  _resize moves digits
# between widths: one strided deletion per byte dropped, or one strided
# slice assignment per byte kept and per byte of sign fill, one
# bytes.translate of the top bytes.  Wider digits convert one at a time.
# Both directions are linear.  A string of items gives its largest |d|
# from the integers of its chunks (_field_max), with no digit visited in
# Python: field-wise (SWAR) arithmetic, as in Lamport, "Multiple byte
# processing with full-word instructions", CACM 18 (1975).
# Item size in bytes -> struct code of a little-endian two's complement item.
_STRUCT_CODES = {1: "b", 2: "h", 4: "i", 8: "q"}
# Digit width in bytes -> the smallest item size that holds it.
_ITEM_BYTES = {need: min(k for k in _STRUCT_CODES if k >= need)
               for need in range(1, max(_STRUCT_CODES) + 1)}
# Top byte of a two's complement digit -> the byte that extends its sign.
_SIGN_FILL = bytes(128) + b"\xff" * 128


@functools.lru_cache(maxsize=None)
def _row_struct(count: int, item: int) -> struct.Struct:
    """count little-endian two's complement items of item bytes."""
    return struct.Struct(f"<{count}{_STRUCT_CODES[item]}")


def _digit_bytes(top: int) -> int:
    """Digit width in bytes for non-negative digits up to top."""
    return (top.bit_length() + 7) // 8 or 1


# J, J' and Phi_p(2^W) are cached per width, and a width grows with the
# coefficients, so these caches are bounded.
@functools.lru_cache(maxsize=256)
def _ones(count: int, nbytes: int) -> int:
    """J: count digits of nbytes bytes, each 1."""
    return int.from_bytes((b"\x01" + bytes(nbytes - 1)) * count, "little")


def _digit_string(digits, nbytes: int) -> bytes:
    """The digits as little-endian two's complement items of nbytes bytes."""
    item = _ITEM_BYTES.get(nbytes)
    if item is None:
        return b"".join([d.to_bytes(nbytes, "little", signed=True) for d in digits])
    return _resize(_row_struct(len(digits), item).pack(*digits), item, nbytes)


def _resize(raw: bytes, nbytes: int, wide: int) -> bytes:
    """The two's complement digits of raw, nbytes bytes each, as digits of wide bytes.

    Narrower, each digit loses its top bytes, one strided deletion per
    byte.  Wider, it gains bytes of its sign, one strided assignment per
    byte.
    """
    if wide == nbytes:
        return raw
    if wide < nbytes:
        out = bytearray(raw)
        for k in range(nbytes, wide, -1):
            del out[k - 1::k]  # the top byte of every k-byte digit
        return out
    out = bytearray(len(raw) // nbytes * wide)
    for j in range(nbytes):
        out[j::wide] = raw[j::nbytes]
    fill = raw[nbytes - 1::nbytes].translate(_SIGN_FILL)
    for j in range(nbytes, wide):
        out[j::wide] = fill
    return out


def _machine_digits(num: tuple[int, ...]) -> int:
    """The machine digits of the largest |coefficient| of num, at least 1."""
    return -(-max(max(num), -min(num)).bit_length() // _DIGIT_BITS) or 1


def _packed_convolution(a: tuple[int, ...], b: tuple[int, ...], p: int) -> tuple[int, ...]:
    """Cyclic (mod z^p - 1) product of two coefficient vectors of length p-1.

    Kronecker substitution: each vector, its coefficients two's complement
    digits, is one big integer (X ^ H) - H, so one integer multiplication
    performs the convolution and one shift and add folds z^p = 1.  A folded
    digit sums at most p - 1 products, so it is at most (p - 1) ha hb in
    magnitude (ha, hb the largest |coefficient| of each vector), which the
    width keeps below B / 2.  The product on the redundant spanning set then
    lies within (B^p - 1) / 2 of 0, so it is the fold's balanced residue mod
    B^p - 1, whose p signed digits unpack in one pass (_signed_rows).
    """
    ha, hb = max(map(abs, a)), max(map(abs, b))
    nbytes = _digit_bytes(2 * (p - 1) * ha * hb)
    half = _ones(p - 1, nbytes) << (8 * nbytes - 1)
    pa, pb = [(int.from_bytes(_digit_string(v, nbytes), "little") ^ half) - half
              for v in (a, b)]
    prod = pa * pb
    cut = 8 * nbytes * p
    ring = (1 << cut) - 1
    [acc] = _signed_rows([_balanced_residue((prod & ring) + (prod >> cut), ring)], p, nbytes)
    return acc


@functools.lru_cache(maxsize=None)
def _log_order(p: int) -> tuple[list[int], dict[int, int]]:
    # powers[a] = g^a mod p for a < p - 1 and logs[g^a] = a, g = _primitive_root(p).
    g = _primitive_root(p)
    powers = [pow(g, a, p) for a in range(p - 1)]
    return powers, {r: a for a, r in enumerate(powers)}


# _field_max reads its string in chunks of this many bytes, so that the
# integers it makes stay in cache.  Dense rows (p rows of p - 1 numerators),
# best of 3 to 21 interleaved runs, 2-vCPU host, CPython 3.11.7, in ms:
#   chunk bytes         2048    4096    8192   16384   whole string
#   p = 97,   2 bytes  0.092   0.093   0.106   0.142   0.128
#   p = 97,   4 bytes  0.169   0.164   0.169   0.198   0.234
#   p = 97,   8 bytes  0.324   0.304   0.306   0.325   0.452
#   p = 211,  4 bytes  1.106   1.032   1.068   1.079   2.211
#   p = 1009, 2 bytes   14.5    12.9    11.7    11.5    37.1
#   p = 1009, 4 bytes   22.2    16.0    15.6    15.7    68.7
#   p = 1009, 8 bytes   34.5    32.8    30.4    29.8    94.5
_FOLD_CHUNK = 4096
# A row string of at least this many items of this many bytes takes its
# bias from _field_max; shorter ones are scanned.  Time of _field_max over
# the scan, by rows x numerators per row (best of 31 to 201 interleaved
# runs, 2-vCPU host, CPython 3.11.7):
#   rows x count   5x10  5x22 13x12  3x60  8x30  5x96 23x22 12x60 16x96 47x46 97x96
#   fields           50   110   156   180   240   480   506   720  1536  2162  9312
#   2 bytes        1.08  0.95  0.63  0.99  0.72  0.66  0.51  0.56  0.45  0.41  0.23
#   4 bytes        1.22  1.12  0.79  1.27  0.98  0.96  0.71  0.80  0.68  0.53  0.40
#   8 bytes        1.38  1.52  1.09  1.80  1.45  1.56  1.01  1.34  0.98  0.81  0.73
# Few long rows scan fastest.  A multi_dft line at p = 5 has 20 items, and
# construct-ladder's rows at p = 11 and 13 are mostly 5 of 10 small ones.
_FOLD_ITEMS = {2: 128, 4: 256, 8: 2048}


def _fields_max(a: int, b: int, high: int, w: int) -> int:
    """Field-wise max of a and b: w-bit fields below 2^(w - 1), high their top bits.

    (a | high) - b holds 2^(w - 1) + a - b in every field, with no borrow,
    so its top bit marks a >= b, and b plus the marked fields' a - b is the
    max.
    """
    d = (a | high) - b
    keep = d & high
    return b + (d & (keep - (keep >> (w - 1))))


def _field_max(raw: bytes, item: int) -> int:
    """max |d| over the two's complement items d of raw, item bytes each.

    raw is read in chunks of _FOLD_CHUNK bytes, each one integer X.  With
    w = 8 * item bits per field and H the top bit of every field, the sign
    bits s = (X & H) >> (w - 1) give |d| as (X ^ (s * (2^w - 1))) + s, at
    most 2^(w - 1), which only d = -2^(w - 1) reaches, so it is then the
    answer.  Otherwise every field is below 2^(w - 1), and the chunks are
    merged into one by their field-wise max (_fields_max; a shorter last
    chunk counts as zeros above its end).  ceil(log2(fields)) halving
    steps, the low half of the fields against the high half (one field
    more when the count is odd, against a 0), leave the max of them all.
    Every integer stays one chunk long.
    """
    w = 8 * item
    size = min(len(raw), _FOLD_CHUNK // item * item)
    fields = size // item
    high = int.from_bytes((bytes(item - 1) + b"\x80") * fields, "little")
    acc = 0
    for lo in range(0, len(raw), size):
        x = int.from_bytes(raw[lo:lo + size], "little")
        sign = (x & high) >> (w - 1)
        x = (x ^ ((sign << w) - sign)) + sign
        if x & high:
            return 1 << (w - 1)
        acc = _fields_max(acc, x, high, w)
    while fields > 1:
        half = fields // 2
        cut = half * w
        high >>= cut
        acc = _fields_max(acc & ((1 << cut) - 1), acc >> cut, high, w)
        fields -= half
    return acc


def _row_string(rows) -> tuple[bytes | None, int]:
    """(raw, item): the numerators of rows (e, num, m) as one string.

    Little-endian two's complement items of 2, 4 or 8 bytes, the fewest
    that hold every numerator, packed row by row with one cached
    struct.Struct (a narrower one raises on the first numerator it cannot
    hold); (None, 0) when a numerator needs more.
    """
    count = len(rows[0][1]) if rows else 0
    for item in (2, 4, 8):
        shape = _row_struct(count, item)
        try:
            return b"".join([shape.pack(*num) for _, num, _ in rows]), item
        except struct.error:
            pass
    return None, 0


def _row_bias(rows, raw: bytes | None, item: int) -> int:
    """max |c * m| over the numerators c of rows (e, num, m), raw their _row_string.

    The largest |c| of the rows' string (_field_max), times m; when the
    rows' m differ, that of each group of rows with one m, times its m.
    Rows below _FOLD_ITEMS, or above 8 bytes, are scanned.
    """
    if raw is None or len(raw) < _FOLD_ITEMS[item] * item:
        return max([max(max(num), -min(num)) * m for _, num, m in rows], default=0)
    groups = {}
    for k, (_, _, m) in enumerate(rows):
        groups.setdefault(m, []).append(k)
    if len(groups) == 1:
        return _field_max(raw, item) * rows[0][2]
    size = len(raw) // len(rows)
    return max([_field_max(b"".join([raw[k * size:k * size + size] for k in ks]), item) * m
                for m, ks in groups.items()])


def _packed_rows(rows) -> tuple[int, int, list[tuple[int, int]]]:
    """(bias, nbytes, [(e, packed)]) for rows (e, num, m): num * m biased and packed.

    bias is max |c * m|, so the digits of a sum of all r rows lie in
    [0, top], top = 2 * bias * r, and the folded ones (_fold_residues) in
    [-top, top]; nbytes leaves one spare bit above top, so those hold them.
    The numerators of all rows are one string of signed items, packed by
    struct at the fewest bytes that hold them (_row_string), which gives
    the bias with no coefficient visited in Python (_row_bias), and is then
    widened with sign fill or trimmed to nbytes (_resize).  Numerators
    above 8 bytes are scanned and converted one at a time (_digit_string).
    Each row's slice X is sum_i c_i 2^(w*i) as (X ^ H) - H, which is scaled
    by m and lifted by bias * J.
    """
    raw, item = _row_string(rows)
    bias = _row_bias(rows, raw, item)
    nbytes = _digit_bytes(4 * bias * len(rows))
    count = len(rows[0][1])
    if raw is not None:
        raw = _resize(raw, item, nbytes)
    else:
        raw = _digit_string(itertools.chain.from_iterable([num for _, num, _ in rows]), nbytes)
    half = _ones(count, nbytes) << (8 * nbytes - 1)
    lift = bias * _ones(count + 1, nbytes)
    size = count * nbytes
    packed = []
    for k, (e, _, m) in enumerate(rows):
        x = int.from_bytes(raw[k * size:k * size + size], "little")
        packed.append((e, ((x ^ half) - half) * m + lift))
    return bias, nbytes, packed


# Dense sums turn their slots in two steps (_two_step_sums) from this prime
# on.  Time of the two steps over one shift per slot, _shifted_sums alone for
# p multipliers on 3-byte digits (best of 15 interleaved runs, 2-vCPU host,
# CPython 3.11.7), with every slot, half of them or a quarter (the fewest a
# dense sum has) filled:
#   p          23    29    31    37    41    43    47    53    61    97   131
#   full     1.08  0.96  0.92  0.86  0.84  0.91  0.76  0.67  0.67  0.60  0.48
#   half     1.36  1.28  1.22  1.18  1.10  1.07  1.01  0.90  0.90  0.84  0.82
#   quarter  1.56  1.49  1.41  1.41  1.40  1.35  1.33  1.31  1.26  1.19  1.21
# Full sums win from p = 29 and half-filled ones break even at 47.  Quarter-
# filled ones lose up to p = 211 (0.98-1.25 there), and no workload makes
# them.  So p <= 43, construct-ladder's p = 11-31 included, runs no two-step
# sum.
_TWO_STEP_PRIME = 47
# Baby steps k per slot.  The table of turned slots holds k times the packed
# slots.  Full sums took longest at k = 4 (23% longer than at k = 8 at p = 97
# and 36% at p = 211) and were no faster at k = 6, 10, 12 or 16, within the
# host's noise (best of 11 at p = 47, 61, 97 and 211).  At p = 1009 a dense
# dft's peak RSS was 107 MB at k = 4, 115 MB at k = 8, 127 MB at k = 12 and
# 140 MB at k = 16, against 105 MB with one shift per slot.
_BABY_STEPS = 8


@functools.lru_cache(maxsize=None)
def _two_step_layout(p: int) -> list[tuple[tuple[tuple[int, int], ...], int]]:
    """[(columns, left)] of _two_step_sums at p, one per giant step, O(p) entries.

    Position c of a sum turns right by r = (-g^c mod p) digits, with
    r = k*j + s, 0 <= s < k = _BABY_STEPS.  Baby step s lists the slots
    turned by s in reverse order, twice over, so that from start = p - 2 - c
    it holds the slot at position c of the sums for t = g^0, g^1, ..., g^(p-2)
    in turn.  Giant step j has one column (s, start) per position c with
    r // k = j, and its sum turns k*j digits right, i.e. left = (p - k*j)
    mod p digits left.
    """
    _, logs = _log_order(p)
    k = _BABY_STEPS
    return [(tuple([(r % k, p - 2 - logs[p - r])
                    for r in range(max(k * j, 1), min(k * j + k, p))]), (p - k * j) % p)
            for j in range((p - 1) // k + 1)]


def _two_step_sums(p: int, units: list[int], fixed: int, multipliers,
                   width: int) -> list[int]:
    """_shifted_sums over slots in discrete-log order, each turned in two steps.

    units are the p - 1 slots (slot a holds exponent g^a), fixed the terms
    of exponent 0.  For t = g^b, slot a sits at position
    c = (a + b) mod (p - 1) and turns right by r = k*j + s digits
    (_two_step_layout).  All p - 1 sums for t != 0 are made at once:
    1. Baby steps: once per call, if a slot is above 2^(p digits) - 1
       (carried digits; packed vectors never are), every slot is reduced
       mod 2^(p digits) - 1.  Every slot is doubled once,
       S | S << (p digits), and turned by s = 0 .. k - 1 digits, a
       rotation of its p digits, k(p - 1) shifts.
       Baby step s is one list of the turned slots in reverse order, twice
       over, so the slots at one position of all p - 1 sums are one slice
       of it, read through itertools.islice with no copy.  The doubled
       slots, about 2/k of the table, are dropped once it is built.
    2. Giant steps: for each j, one map(sum, zip(*columns)) adds the turned
       slots of its positions for every sum, p-digit integers with no
       shift, and one map(lshift, ...) turns each group's sum by k*j
       digits (a left shift, folded by z^p = 1 at the end).
    3. One map(sum, zip(repeat(fixed), *groups)) adds the groups of each
       sum.  The maps are lazy, so one sum's groups are live at a time.
    The totals are folded and read out by discrete log, and t = 0 mod p,
    the sum of all slots, is added once per call.  Empty slots are added
    as zeros.
    """
    cut = width * p
    mask = (1 << cut) - 1
    k = _BABY_STEPS
    n = p - 1
    _, logs = _log_order(p)
    slots = units[::-1]
    if max(slots) > mask:
        slots = [u % mask for u in slots]
    doubled = [u | u << cut for u in slots]
    baby = [slots * 2] + [[d >> s * width & mask for d in doubled] * 2 for s in range(1, k)]
    del doubled
    groups = []
    for columns, left in _two_step_layout(p):
        group = map(sum, zip(*[itertools.islice(baby[s], start, start + n)
                               for s, start in columns]))
        groups.append(map(operator.lshift, group, itertools.repeat(left * width))
                      if left else group)
    folded = [(total & mask) + (total >> cut)
              for total in map(sum, zip(itertools.repeat(fixed), *groups))]
    zero = sum(units, fixed)
    return [folded[logs[t % p]] if t % p else zero for t in multipliers]


def _shifted_sums(p: int, terms, multipliers, width: int) -> list[int]:
    """[sum_j P_j * z^(e_j * t) for t in multipliers] at z = 2^width, mod 2^(p*width) - 1.

    terms are (e_j, P_j), P_j non-negative integers, as a rule packed
    p-digit vectors.  Multiplying by z^s is a left shift by s digits, and
    z^p = 1: each sum is folded once, (total mod 2^(p*width))
    + (total >> p*width), so it is congruent to the sum mod 2^(p*width) - 1
    however far its digits carry.  When the digits of every sum fit in
    width bits (_packed_rows picks width so for the sums of its rows), each
    sum is exactly its packed vector.  Fewer than p / 4 terms (measured
    crossover) shift one by one.  More merge into slots in discrete-log
    order: slot a holds exponent g^a (g = _primitive_root(p)), and exponent
    0 never shifts.  For t = g^b slot a shifts by S[(a + b) mod (p - 1)],
    S[a] = g^a mod p digits, so the shifts of one sum are one slice of
    S + S.

    From p = _TWO_STEP_PRIME = 47 on, each shift splits into a baby and a
    giant step (_two_step_sums), whose table holds _BABY_STEPS = 8 times the
    packed slots, and each giant step is one column sum over all p - 1
    sums.  The sums of dense values for p multipliers, one shift per slot
    -> two steps (best of 15 interleaved runs, 2-vCPU host, CPython
    3.11.7): every slot filled, 0.30 -> 0.27 ms at p = 31, 0.50 -> 0.38 ms
    at p = 47, 1.00 -> 0.67 ms at p = 61 and 3.6 -> 2.1 ms at p = 97; half
    filled, 0.19 -> 0.23 ms at p = 31 (15 of 30 slots), 0.35 -> 0.36 ms at
    p = 47 (23 of 46), 0.67 -> 0.60 ms at p = 61 (30 of 60) and
    3.2 -> 2.7 ms at p = 97 (48 of 96); a quarter filled, 0.15 -> 0.21 ms
    at p = 31 (8 rows), 0.20 -> 0.27 ms at p = 47 (12), 0.37 -> 0.47 ms at
    p = 61 (16), 2.0 -> 2.3 ms at p = 97 (25) and 4.1 -> 5.0 ms at
    p = 131 (33).  The two steps start where half-filled sums break even
    (the table at _TWO_STEP_PRIME); sums with a quarter of their slots
    filled lose up to p = 211, and no benchmark workload makes them: its
    dense signals fill every slot.  A sum for t = 0 mod p, all slots
    unshifted, is added once per call.
    """
    cut = width * p
    mask = (1 << cut) - 1
    if 4 * len(terms) < p:
        sums = [sum([packed << (e * t % p * width) for e, packed in terms]) for t in multipliers]
    else:
        powers, logs = _log_order(p)
        units = [0] * (p - 1)
        fixed = 0
        for e, packed in terms:
            if e % p:
                units[logs[e % p]] += packed
            else:
                fixed += packed
        if p >= _TWO_STEP_PRIME:
            return _two_step_sums(p, units, fixed, multipliers, width)
        zero = sum(units, fixed)
        lefts = [r * width for r in powers] * 2
        sums = []
        for t in multipliers:
            if t % p:
                b = logs[t % p]
                # Empty slots shift to 0, and adding 0 would copy the sum.
                sums.append(sum(filter(None, map(operator.lshift, units, lefts[b:b + p - 1])),
                                fixed))
            else:
                sums.append(zero)
    return [(total & mask) + (total >> cut) for total in sums]


def _split_values(values, exponents):
    """(common, rows, monomials) of character_sums: rows (e, num, m) and c * w^i as (e, i, c)."""
    common = math.lcm(*(v._den for v in values))
    rows, monomials = [], []
    for v, e in zip(values, exponents):
        num = v._num
        nonzero = len(num) - num.count(0)
        if nonzero == 1:
            c = max(num) or min(num)  # the one nonzero coefficient
            monomials.append((e, num.index(c), c * (common // v._den)))
        elif nonzero:
            rows.append((e, num, common // v._den))
    return common, rows, monomials


def _signed_rows(values, count: int, nbytes: int):
    """Each value's count signed digits, nbytes bytes each, as a tuple.

    The values' two's complement digit strings, (v + H) ^ H, are joined,
    widened with their sign to the next struct item size (_resize), and
    Struct.iter_unpack gives one tuple per value.  Digits above 8 bytes
    convert one at a time.
    """
    half = _ones(count, nbytes) << (8 * nbytes - 1)
    size = count * nbytes
    raw = b"".join([((v + half) ^ half).to_bytes(size, "little") for v in values])
    item = _ITEM_BYTES.get(nbytes)
    if item is None:
        digits = [int.from_bytes(raw[i:i + nbytes], "little", signed=True)
                  for i in range(0, len(raw), nbytes)]
        return [tuple(digits[i:i + count]) for i in range(0, len(digits), count)]
    return _row_struct(count, item).iter_unpack(_resize(raw, nbytes, item))


def _decode_signed(modulus: PrimeModulus, values, nbytes: int, den: int) -> list[CycloNum]:
    """The integers values, each p - 1 signed digits of nbytes bytes, over den, as CycloNums.

    The digits of each value are its numerators, |d| < 2^(8*nbytes - 1).
    All values unpack in one pass (_signed_rows).  A value whose digits
    share a factor g > 1 with den has every digit a multiple of g, so the
    value is divided by g exactly, and those values unpack in one more
    pass: no coefficient is divided in Python.
    """
    count = modulus.p - 1
    out = []
    shared = []
    for k, num in enumerate(_signed_rows(values, count, nbytes)):
        g = math.gcd(den, *num)
        if g > 1:
            shared.append((k, g))
            out.append(None)
        else:
            out.append(CycloNum._raw(modulus, num, den))
    for (k, g), num in zip(shared, _signed_rows([values[k] // g for k, g in shared],
                                                 count, nbytes)):
        out[k] = CycloNum._raw(modulus, num, den // g)
    return out


@functools.lru_cache(maxsize=256)
def _fold_constants(p: int, nbytes: int) -> tuple[int, int, int, int]:
    """(cut, 2^cut - 1, J', Phi) of _fold_residues, for B^(p-1) = 2^cut."""
    ones = _ones(p - 1, nbytes)
    cut = 8 * nbytes * (p - 1)
    return cut, (1 << cut) - 1, ones, (ones << 8 * nbytes) + 1


def _fold_residues(sums, p: int, nbytes: int) -> list[int]:
    """The balanced residue of each packed sum mod Phi = Phi_p(B), B = 2^(8*nbytes).

    Phi = J' * B + 1 = J(B), J' = 1 + B + ... + B^(p-2), divides B^p - 1,
    modulo which a sum is p digits at z = B (_shifted_sums), and the rows'
    bias, a multiple of J, vanishes.  B^(p-1) = -J' mod Phi, so folding the
    top digit t, (total mod B^(p-1)) - t * J', reduces the sum.  Uncarried,
    its digits d_i - t are the numerators; below B / 2 in magnitude (the
    spare bit of _packed_rows) they put it in (-Phi/2, Phi/2).
    A fold outside that range (carried digits: cyclic_convolution) takes
    % Phi.
    """
    cut, mask, ones, phi = _fold_constants(p, nbytes)
    half = phi >> 1
    folded = [(total & mask) - (total >> cut) * ones for total in sums]
    return [r if -half <= r <= half else _balanced_residue(r, phi) for r in folded]


def _row_residues(p: int, rows, multipliers) -> tuple[list[int], int]:
    """(residues, nbytes): each sum of the rows' turned vectors, mod Phi_p(2^(8*nbytes)).

    The rows are packed with the spare bit (_packed_rows) and turned
    (_shifted_sums), so each balanced residue (_fold_residues) is the sum's
    numerators as signed digits, and is 0 exactly when the sum is.
    """
    _, nbytes, terms = _packed_rows(rows)
    return _fold_residues(_shifted_sums(p, terms, multipliers, 8 * nbytes), p, nbytes), nbytes


def _redundant_sums(p: int, rows, monomials, multipliers) -> list[list[int]]:
    """Each sum's p numerators on the redundant spanning set {1, w, ..., w^(p-1)}.

    The rows' sums are their residues' signed digits (_row_residues) with
    a top digit of 0, or zeros when there are no rows; each single term
    c * w^i at exponent e adds c at index (i + e * t) mod p.
    """
    if rows:
        residues, nbytes = _row_residues(p, rows, multipliers)
        digits = _signed_rows(residues, p - 1, nbytes)
    else:
        digits = itertools.repeat((0,) * (p - 1))
    out = []
    for t, num in zip(multipliers, digits):
        acc = [*num, 0]
        for e, i, c in monomials:
            acc[(i + e * t) % p] += c
        out.append(acc)
    return out


def character_sums(modulus: PrimeModulus, values, exponents, multipliers,
                   den_factor: int) -> list[CycloNum]:
    """[sum_j values[j] * w^(exponents[j] * t) / den_factor for t in multipliers].

    Kronecker substitution on the redundant spanning set {1, w, ..., w^(p-1)}.
    The values are put over one common denominator and zero values are
    dropped.  Each numerator vector with two or more nonzero coefficients is
    a row, biased and packed with one spare bit.  When every value is a row,
    each sum's residue mod Phi_p(2^W) is its numerators as signed digits
    (_row_residues), all unpacked in one pass (_decode_signed).  A value
    with one nonzero coefficient, c * w^i (every rational is one), is not
    packed: it is scattered onto the rows' digits (_redundant_sums), and
    _from_redundant folds the top coefficient.
    """
    p = modulus.p
    multipliers = list(multipliers)
    common, rows, monomials = _split_values(values, exponents)
    den = common * den_factor
    if monomials or not rows:
        return [CycloNum._from_redundant(modulus, acc, den)
                for acc in _redundant_sums(p, rows, monomials, multipliers)]
    residues, nbytes = _row_residues(p, rows, multipliers)
    return _decode_signed(modulus, residues, nbytes, den)


def vanishing_sums(modulus: PrimeModulus, values, exponents, multipliers) -> list[bool]:
    """[sum_j values[j] * w^(exponents[j] * t) == 0 for t in multipliers].

    The sums of character_sums, not decoded.  When every value is a row,
    a sum is zero exactly when its residue mod Phi_p(2^W) is 0
    (_row_residues).  Otherwise a sum is zero exactly when its p redundant
    numerators (_redundant_sums) are all equal, since
    1 + w + ... + w^(p-1) = 0 spans the relations among {1, w, ..., w^(p-1)}.
    """
    p, multipliers = modulus.p, list(multipliers)
    _, rows, monomials = _split_values(values, exponents)
    if monomials or not rows:
        return [acc.count(acc[0]) == p
                for acc in _redundant_sums(p, rows, monomials, multipliers)]
    return [not r for r in _row_residues(p, rows, multipliers)[0]]


def cyclic_convolution(modulus: PrimeModulus, f, g) -> list[CycloNum]:
    """[sum_y f[y] * g[(x - y) mod p] for x in Z/p], for sequences of p CycloNums.

    The convolution theorem on the unnormalised spectra F(xi) = sum_x f[x]
    w^(-x*xi) and G: the result at x is (1/p) sum_xi F(xi) G(xi) w^(x*xi).
    The r_f nonzero values of f are packed over f's common denominator c_f,
    with the spare bit (_packed_rows), which returns b_f, the bias, their
    largest |numerator|; likewise for g, and an all-zero side gives all
    zeros.  The forward sums are exact packed vectors whose digits never
    set their top bit, so sign fill widens them to W bytes (_resize) as it
    would zeros.  The products and the inverse sums run in Z/(B^p - 1) for
    B = 2^(8W), a W-byte digit, where z = B has z^p = 1: each product is
    folded once, and the inverse sums (_shifted_sums) let their digits
    carry.  The inverse sum at x is congruent to p c_f c_g (f*g)(x) on the
    redundant set at z = B, plus the biases, which vanish modulo Phi_p(B)
    (_fold_residues).  A numerator of f[y] g[x - y] is at most
    2(p - 1) b_f b_g (p - 1 products, and the fold of the top coefficient),
    so those of p c_f c_g (f*g)(x) are at most 2p(p - 1) min(r_f, r_g)
    b_f b_g, and W is the fewest bytes that keep this below B / 2.  Such a
    vector lies within Phi_p(B) / 2 of 0, so the sum's balanced residue is
    the vector itself.  Its numerators are multiples of p, which is divided
    out on the packed integer, and the nonzero values unpack once, as
    signed digits over c_f c_g (_decode_signed).
    """
    p = modulus.p
    sides = []
    for values in (f, g):
        common = math.lcm(*(v._den for v in values))
        rows = [(x, v._num, common // v._den) for x, v in enumerate(values) if any(v._num)]
        if not rows:
            return [CycloNum.zero(modulus)] * p
        bias, nbytes, terms = _packed_rows(rows)
        sides.append((common, len(rows), bias, nbytes, terms))
    (common_f, r_f, b_f, _, _), (common_g, r_g, b_g, _, _) = sides
    nbytes = _digit_bytes(4 * p * (p - 1) * min(r_f, r_g) * b_f * b_g)
    width = 8 * nbytes
    cut = width * p
    mask = (1 << cut) - 1
    size = p * nbytes
    spectra = []
    # Each side's digits lie in [0, 2 r b], below half of its own width and of nbytes.
    for _, _, _, own, terms in sides:
        sums = _shifted_sums(p, terms, range(0, -p, -1), 8 * own)
        spectra.append(_resize(b"".join([s.to_bytes(p * own, "little") for s in sums]),
                               own, nbytes))
    f_hat, g_hat = spectra
    products = []
    for xi, lo in enumerate(range(0, p * size, size)):
        product = (int.from_bytes(f_hat[lo:lo + size], "little")
                   * int.from_bytes(g_hat[lo:lo + size], "little"))
        products.append((xi, (product & mask) + (product >> cut)))
    residues = [r // p for r in _fold_residues(_shifted_sums(p, products, range(p), width),
                                               p, nbytes)]
    # A zero value (most of a sparse by sparse convolution's) unpacks nothing.
    live = [x for x, r in enumerate(residues) if r]
    out = [CycloNum.zero(modulus)] * p
    for x, v in zip(live, _decode_signed(modulus, [residues[x] for x in live], nbytes,
                                         common_f * common_g)):
        out[x] = v
    return out


def _balanced_residue(value: int, n: int) -> int:
    """The residue of value mod an odd n that lies in (-n/2, n/2)."""
    r = value % n
    return r - n if r > n >> 1 else r


def _embedding_bound(num: tuple[int, ...]) -> int:
    # |sigma(v)| <= sum_i |c_i - t| over the redundant vector (num, 0), for
    # every embedding sigma and any t, since adding t to every coefficient
    # adds t * (1 + w + ... + w^(p-1)) = 0.  The median t gives the least
    # bound, 1 for a root power.  The median is 0 when zeros are the majority.
    if 2 * (num.count(0) + 1) > len(num) + 1:
        return sum(map(abs, num))
    full = sorted(num + (0,))
    t = full[len(full) // 2]
    return sum([abs(c - t) for c in full])


def _unit_width(p: int, width: int) -> int:
    """The least width >= width with 2^width != 1 (mod p).

    At 2^W = 1 (mod p), p divides Phi_p(2^W) and w - 1 maps to a non-unit,
    so every multiple of it (the determinant of any 2 x 2 minor) does too.
    """
    while pow(2, width, p) == 1:
        width += 1
    return width


class ResidueRing:
    """Z/N for N = Phi_p(2^W) = (2^(pW) - 1) / (2^W - 1), an image of Z[w].

    Phi_p(2^W) = 0 (mod N), so w -> 2^W is a ring map Z[w] -> Z/N and one
    residue carries all p - 1 embeddings of a value at once.  A value whose
    power-basis coefficients lie below 2^(W-2) in absolute value is
    sum_i c_i 2^(W*i), which lies in (-N/2, N/2), so its balanced residue
    gives it back: its balanced base-2^W digits are its coefficients.
    for_fourier picks a W at which every n x n minor of [M | D * rhs] has
    such coefficients, M a Fourier minor and D the denominator of rhs.
    """

    __slots__ = ("modulus", "width", "n", "_bias", "_scale")

    def __init__(self, modulus: PrimeModulus, width: int, scale: int = 1):
        p = modulus.p
        self.modulus = modulus
        self.width = width
        self.n = ((1 << p * width) - 1) // ((1 << width) - 1)
        # 2^(W-1) in each of the p - 1 digits that decode reads.
        self._bias = (self.n - (1 << (p - 1) * width)) << (width - 1)
        self._scale = scale

    @classmethod
    def for_fourier(cls, modulus: PrimeModulus, n: int, rhs=()) -> ResidueRing:
        """The narrowest ring that decodes every n x n minor of [M | D * rhs].

        M is an n x n Fourier minor, rhs holds n values or none, and D is
        the lcm of their denominators (1 without rhs), so D * rhs lies in
        Z[w].  Under each embedding a root power has modulus 1, so each
        Fourier column has squared norm n, and the column D * rhs at most
        T = sum _embedding_bound(D * b_r)^2.  By Hadamard's inequality every
        n x n minor has embeddings of modulus at most H, the product of the
        n largest column norms: H^2 = n^(n-1) max(n, T).  A minor's
        coefficients are then below 2H: c_i = (1/p) sum_j chat_j w^(-i*j)
        over chat_j = sum_k c_k w^(j*k), the p - 1 embeddings and chat_0,
        which c_(p-1) = 0 bounds by (p - 1) H.  So W = bits(2H) + 2, the
        least width at or above it with 2^W != 1 (mod p).
        """
        scale = math.lcm(*[v._den for v in rhs])
        extra = sum([(scale // v._den * _embedding_bound(v._num)) ** 2 for v in rhs])
        # isqrt(4 H^2) + 1 >= 2H.
        twice = math.isqrt(4 * n ** (n - 1) * max(n, extra)) + 1
        return cls(modulus, _unit_width(modulus.p, twice.bit_length() + 2), scale)

    def wider(self) -> ResidueRing:
        """The ring at the next width with 2^W != 1 (mod p), with the same D."""
        return ResidueRing(self.modulus, _unit_width(self.modulus.p, self.width + 1), self._scale)

    def encode(self, value: CycloNum) -> int:
        """The residue of a value's numerator vector: the value's own in Z[w]."""
        w = self.width
        return sum([c << w * i for i, c in enumerate(value._num) if c]) % self.n

    def encode_fourier(self, rows, cols, rhs=()) -> list[list[int]]:
        """The residues of [M | D * rhs] for the Fourier minor M on (rows, cols).

        rhs is for_fourier's.  Entry (x, xi) is 2^(W * (x*xi mod p)) from one
        power table, and row r ends in D / m_r times the residue of rhs[r]'s
        numerator vector.  No row is scaled, and no entry of M is built,
        bounded or encoded as a value.
        """
        p, scale = self.modulus.p, self._scale
        powers = [1 << self.width * k for k in range(p)]
        a = [[powers[x * xi % p] for xi in cols] for x in rows]
        for row, v in zip(a, rhs):
            row.append(self.encode(v) * (scale // v._den) % self.n)
        return a

    def decode(self, residue: int) -> CycloNum:
        """The value of Z[w] with coefficients below 2^(W-2) that has this residue."""
        w = self.width
        r = _balanced_residue(residue, self.n) + self._bias
        mask, half = (1 << w) - 1, 1 << (w - 1)
        num = tuple([(r >> w * i & mask) - half for i in range(self.modulus.p - 1)])
        return CycloNum._raw(self.modulus, num, 1)

    def decode_numerator(self, residue: int) -> CycloNum:
        """decode(residue) / D: a minor of [M | D * rhs] on the rhs column, over D."""
        value = self.decode(residue)
        return value if self._scale == 1 else CycloNum._raw(
            self.modulus, *_normalize(value._num, self._scale))


class CycloNum:
    """An exact element of Q(w), w a primitive p-th root of unity.

    Stored as an integer numerator vector on the power basis plus a positive
    denominator; the `coeffs` property exposes the rational coefficients in
    lowest terms.  Instances are immutable and safe to share.
    """

    __slots__ = ("modulus", "_num", "_den")

    def __init__(self, modulus: PrimeModulus, coeffs):
        parts = [_rational_parts(c) for c in coeffs]
        if len(parts) != modulus.p - 1:
            raise ValueError(
                f"expected {modulus.p - 1} coefficients for p={modulus.p}, got {len(parts)}"
            )
        den = math.lcm(*(d for _, d in parts)) if parts else 1
        num = [n * (den // d) for n, d in parts]
        self.modulus = modulus
        self._num, self._den = _normalize(num, den)

    @classmethod
    def _raw(cls, modulus: PrimeModulus, num: tuple[int, ...], den: int) -> CycloNum:
        # Trusted constructor: (num, den) must already be canonical.
        self = object.__new__(cls)
        self.modulus = modulus
        self._num = num
        self._den = den
        return self

    @classmethod
    def _from_redundant(cls, modulus: PrimeModulus, acc: list[int], den: int) -> CycloNum:
        # acc has length p, on the redundant spanning set {1, w, ..., w^(p-1)};
        # fold the top coefficient through w^(p-1) = -(1 + ... + w^(p-2)).
        # Adding one constant to every entry changes nothing, since
        # 1 + w + ... + w^(p-1) = 0; this cancels the codec's bias.
        t = acc[-1]
        if t:
            num = [c - t for c in acc[:-1]]
        else:
            num = acc[:-1]
        return cls._raw(modulus, *_normalize(num, den))

    @classmethod
    def zero(cls, modulus: PrimeModulus) -> CycloNum:
        return cls._raw(modulus, (0,) * (modulus.p - 1), 1)

    @classmethod
    def one(cls, modulus: PrimeModulus) -> CycloNum:
        return cls.root_power(modulus, 0)

    @classmethod
    def from_rational(cls, modulus: PrimeModulus, value) -> CycloNum:
        numerator, denominator = _rational_parts(value)
        num = [numerator] + [0] * (modulus.p - 2)
        return cls._raw(modulus, *_normalize(num, denominator))

    @classmethod
    def of(cls, modulus: PrimeModulus, value) -> CycloNum:
        """value as an element of Q(w) at this modulus.

        A CycloNum of this modulus is returned as is and an exact rational
        goes through from_rational; a CycloNum of another modulus raises
        ValueError, and a float or str TypeError.
        """
        if isinstance(value, CycloNum):
            if value.modulus != modulus:
                raise ValueError(f"modulus mismatch: value at p={value.modulus.p}, "
                                 f"expected p={modulus.p}")
            return value
        return cls.from_rational(modulus, value)

    @classmethod
    def root_power(cls, modulus: PrimeModulus, k: int) -> CycloNum:
        """The canonical representation of w^k (exponent reduced mod p), shared."""
        return _root_power(modulus.p, k % modulus.p)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Rational coefficients on {1, w, ..., w^(p-2)}, in lowest terms."""
        d = self._den
        return tuple(Fraction(c, d) for c in self._num)

    def is_zero(self) -> bool:
        return not any(self._num)

    def is_rational(self) -> bool:
        return not any(self._num[1:])

    def _sparse(self) -> list[tuple[int, int]]:
        return [(i, c) for i, c in enumerate(self._num) if c]

    def _check_same(self, other: CycloNum) -> None:
        if self.modulus != other.modulus:
            raise ValueError(
                f"modulus mismatch: {self.modulus.p} vs {other.modulus.p}"
            )

    def _coerce(self, other):
        if isinstance(other, CycloNum):
            return other
        if isinstance(other, (int, Fraction)):
            return CycloNum.from_rational(self.modulus, other)
        return None

    def _combine(self, other, op) -> CycloNum:
        # The one body of + and -: op is operator.add or operator.sub.
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        self._check_same(other)
        d1, d2 = self._den, other._den
        if d1 == d2:
            num = list(map(op, self._num, other._num))
            den = d1
        else:
            g = math.gcd(d1, d2)
            # op(0, m) is m for + and -m for -, so one inline sum serves both.
            m1, m2 = d2 // g, op(0, d1 // g)
            num = [a * m1 + b * m2 for a, b in zip(self._num, other._num)]
            den = d1 // g * d2
        return CycloNum._raw(self.modulus, *_normalize(num, den))

    def __add__(self, other) -> CycloNum:
        return self._combine(other, operator.add)

    __radd__ = __add__

    def __neg__(self) -> CycloNum:
        return CycloNum._raw(self.modulus, tuple(-c for c in self._num), self._den)

    def __sub__(self, other) -> CycloNum:
        return self._combine(other, operator.sub)

    def __rsub__(self, other) -> CycloNum:
        return (-self) + other

    def _scaled(self, value: Fraction) -> CycloNum:
        numerator = value.numerator
        num = [c * numerator for c in self._num]
        return CycloNum._raw(self.modulus, *_normalize(num, self._den * value.denominator))

    def __mul__(self, other) -> CycloNum:
        if isinstance(other, (int, Fraction)):
            return self._scaled(Fraction(other))
        if not isinstance(other, CycloNum):
            return NotImplemented
        self._check_same(other)
        na = len(self._num) - self._num.count(0)
        nb = len(other._num) - other._num.count(0)
        if not na or not nb:
            return CycloNum.zero(self.modulus)
        p = self.modulus.p
        den = self._den * other._den
        # A single-term operand is a scaled rotation, cheapest term by term.
        # The widths weight the count (_DENSE_MUL_THRESHOLD), and are read
        # only when the count alone would pack.
        packed = na * nb > _DENSE_MUL_THRESHOLD * p and min(na, nb) > 1
        if packed:
            da, db = _machine_digits(self._num), _machine_digits(other._num)
            packed = na * nb * min(da, db) > _DENSE_MUL_THRESHOLD * p * max(da, db)
        if packed:
            acc = _packed_convolution(self._num, other._num, p)
        else:
            acc = [0] * p
            b = other._sparse()
            for i, ca in self._sparse():
                for j, cb in b:
                    k = i + j
                    acc[k - p if k >= p else k] += ca * cb
        return CycloNum._from_redundant(self.modulus, acc, den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> CycloNum:
        if isinstance(other, (int, Fraction)):
            return self._scaled(1 / Fraction(other))
        if not isinstance(other, CycloNum):
            return NotImplemented
        return self * other.inverse()

    def __pow__(self, n: int) -> CycloNum:
        if n < 0:
            return self.inverse() ** (-n)
        out = CycloNum.one(self.modulus)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def galois(self, k: int) -> CycloNum:
        """Image under the automorphism w -> w^k, for k not divisible by p.

        On the redundant spanning set {1, w, ..., w^(p-1)} coefficient i
        moves to i*k mod p, and w^(p-1) folds back onto the basis.  The map
        is invertible over Z, so the numerators keep their gcd and the
        denominator stays.
        """
        p = self.modulus.p
        if k % p == 0:
            raise ValueError(f"w -> w^{k} is not an automorphism of Q(w) for p={p}")
        acc = [0] * p
        for i, c in enumerate(self._num):
            acc[i * k % p] = c
        top = acc[-1]
        return CycloNum._raw(self.modulus, tuple([c - top for c in acc[:-1]]), self._den)

    def inverse(self) -> CycloNum:
        """Multiplicative inverse through the Galois norm.

        The conjugates sigma_k(self), k = 1..p-1, multiply to the norm
        N(self), a rational that is nonzero for nonzero self.  So the product
        of the other p - 2 conjugates, divided by N(self), is the inverse.
        With g the least generator of (Z/p)^* and P_m = prod_{i<m}
        sigma_{g^i}(self), the doubling chain P_2m = P_m * sigma_{g^m}(P_m),
        P_(m+1) = self * sigma_g(P_m) walks the bits of p - 2, and that
        product is sigma_g(P_(p-2)): floor(log2(p-2)) + popcount(p-2) - 1
        multiplications instead of p - 3.
        """
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in Q(w)")
        if self.is_rational():
            return CycloNum.from_rational(self.modulus, Fraction(self._den, self._num[0]))
        p = self.modulus.p
        g = _primitive_root(p)
        rest, m = self, 1
        for bit in bin(p - 2)[3:]:
            rest = rest * rest.galois(pow(g, m, p))
            m *= 2
            if bit == "1":
                rest = self * rest.galois(g)
                m += 1
        rest = rest.galois(g)
        norm = self * rest
        if norm.is_zero() or not norm.is_rational():
            raise TheoremViolationError(
                "the Galois norm of a nonzero element is not a nonzero rational "
                f"(p={self.modulus.p})")
        return rest._scaled(Fraction(norm._den, norm._num[0]))

    def conj(self) -> CycloNum:
        """Image under w -> w^(p-1), i.e. complex conjugation; an involution."""
        return self.galois(-1)

    def embed(self) -> complex:
        """Double-precision value of the standard embedding w = e^(2*pi*i/p)."""
        p = self.modulus.p
        d = self._den
        total = 0j
        for i, c in enumerate(self._num):
            if c:
                # int / int rounds correctly even when both exceed the float range.
                total += (c / d) * cmath.exp(2j * cmath.pi * i / p)
        return total

    def __eq__(self, other: object) -> bool:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return (
            self.modulus == other.modulus
            and self._num == other._num
            and self._den == other._den
        )

    def __hash__(self) -> int:
        # A rational value equals its int or Fraction, so it hashes as one.
        if self.is_rational():
            return hash(Fraction(self._num[0], self._den))
        return hash((self.modulus.p, self._num, self._den))

    def __str__(self) -> str:
        # Canonical text form: every basis coefficient, rationals as num/den.
        parts = []
        for i, c in enumerate(self.coeffs):
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*w")
            else:
                parts.append(f"{c}*w^{i}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"CycloNum(p={self.modulus.p}, '{self}')"
