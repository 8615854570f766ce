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
multiplying by w is a cyclic shift and the automorphism w -> w^k (galois) is a
permutation of the coefficients.  Only this module knows how a value is
stored and packed: dense products, character_sums (the kernel behind every
transform in fourier, with its slots in discrete-log order) and
cyclic_convolution (packed from the forward sums to the inverse) turn
vectors into big integers through one linear-time codec (Kronecker
substitution), with digits just as wide as their bound needs.  Inverses
come from the Galois norm: the product of all p - 1 conjugates of a nonzero
element is a nonzero rational, so dividing the product of the other p - 2
conjugates by it inverts the element with integer vector arithmetic alone.
The Galois group is cyclic, generated by w -> w^g for a generator g of
(Z/p)^*, so a doubling chain builds that product in O(log p) multiplications.

ResidueRing is the codec of fourier's exact eliminations: Z[w] maps onto
Z/N for N = Phi_p(2^W) by w -> 2^W, and a value whose coefficients are small
enough for W comes back from its residue as its balanced base-2^W digits.

The module also provides sparse integer polynomials in several variables,
the folding substitution P(z^(k_1), ..., z^(k_n)) mod z^p - 1, and the
divisibility check built on it: an integer polynomial that vanishes at p-th
roots of unity has P(1, ..., 1) divisible by p.
"""

from __future__ import annotations

import bisect
import cmath
import functools
import math
import numbers
import operator
import sys
from array import array
from dataclasses import dataclass
from fractions import Fraction

from .errors import TheoremViolationError

MAX_PRIME = 10007

# Above this many nonzero coefficient products per unit of p, multiplication
# switches from the schoolbook loop over the nonzero coefficients to one packed
# big-integer product (_packed_convolution, through the codec below), whose
# cost depends on p and the coefficient size but not on how sparse the
# operands are.  Measured crossovers of dense operands lie between 4p and 16p
# products at p = 7 to 31, higher for wider coefficients.
_DENSE_MUL_THRESHOLD = 8


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
def _root_power_num(p: int, k: int) -> tuple[int, ...]:
    # w^(p-1) = -(1 + w + ... + w^(p-2)); smaller powers are basis vectors.
    if k == p - 1:
        return (-1,) * (p - 1)
    return tuple(1 if i == k else 0 for i in range(p - 1))


# Kronecker codec of the two packed kernels (_packed_convolution and
# character_sums): a list of non-negative digits, each below 256**nbytes, is
# one integer with digit i at bit 8*nbytes*i, and back.  Both kernels bias
# all p digits of a redundant vector by one constant, which adds a multiple
# of the all-ones vector J.  Sums and cyclic products keep it a multiple of J
# (a*J = (sum a)*J, J*J = p*J), and _from_redundant cancels it.  The kernels
# take the width from their inputs through _digit_bytes, which gives the
# bytes the largest digit needs and no more, since every shift, sum and
# product of the packed integers grows with it.  A width of up to 8 bytes
# converts through the next array item size in one C call (array items are
# native-endian, so they are byteswapped on big-endian hosts).  Below that
# item size, _pack drops the top bytes of every item with one strided
# deletion per byte dropped, and _unpack spreads the digits into items with
# one strided slice assignment per byte kept.  Wider digits convert one at
# a time.  Both directions are linear.
_ARRAY_CODES = {array(code).itemsize: code for code in "BHILQ"}
_BIG_ENDIAN = sys.byteorder == "big"
# Digit width in bytes -> the smallest array item size that holds it.
_ITEM_BYTES = {need: min(k for k in _ARRAY_CODES if k >= need)
               for need in range(1, max(_ARRAY_CODES) + 1)}


def _digit_bytes(top: int) -> int:
    """Digit width in bytes for non-negative digits up to top."""
    return (top.bit_length() + 7) // 8 or 1


def _pack(digits, nbytes: int) -> int:
    item = _ITEM_BYTES.get(nbytes)
    if item is None:
        return int.from_bytes(b"".join([d.to_bytes(nbytes, "little") for d in digits]),
                              "little")
    items = array(_ARRAY_CODES[item], digits)
    if _BIG_ENDIAN:
        items.byteswap()
    if item == nbytes:
        return int.from_bytes(items.tobytes(), "little")
    raw = bytearray(items)
    for k in range(item, nbytes, -1):
        del raw[k - 1::k]  # the top byte of every k-byte digit
    return int.from_bytes(raw, "little")


def _widen(value: int, count: int, nbytes: int, wide: int) -> bytes:
    """The count digits of value, nbytes bytes each, as digits of wide bytes."""
    # to_bytes raises OverflowError unless 0 <= value < 256**(count*nbytes).
    raw = value.to_bytes(count * nbytes, "little")
    if wide == nbytes:
        return raw
    out = bytearray(count * wide)
    for j in range(nbytes):
        out[j::wide] = raw[j::nbytes]
    return out


def _unpack(value: int, count: int, nbytes: int) -> list[int]:
    item = _ITEM_BYTES.get(nbytes)
    if item is None:
        raw = value.to_bytes(count * nbytes, "little")
        return [int.from_bytes(raw[i:i + nbytes], "little")
                for i in range(0, len(raw), nbytes)]
    items = array(_ARRAY_CODES[item], _widen(value, count, nbytes, item))
    if _BIG_ENDIAN:
        items.byteswap()
    return items.tolist()


def _packed_convolution(a: tuple[int, ...], b: tuple[int, ...], p: int) -> list[int]:
    """Cyclic (mod z^p - 1) product of two coefficient vectors of length p-1.

    Kronecker substitution: each vector, biased by the codec's rule, is one
    big integer, so one integer multiplication performs the convolution and
    one shift and add folds z^p = 1.  The result on the redundant spanning
    set is the true product plus a constant vector.
    """
    ha, hb = max(map(abs, a)), max(map(abs, b))
    # A folded digit is a sum of p products of biased digits <= 2*ha, 2*hb.
    nbytes = _digit_bytes(4 * p * ha * hb)
    pa = _pack([c + ha for c in a] + [ha], nbytes)
    pb = _pack([c + hb for c in b] + [hb], nbytes)
    prod = pa * pb
    cut = 8 * nbytes * p
    return _unpack((prod & ((1 << cut) - 1)) + (prod >> cut), p, nbytes)


@functools.lru_cache(maxsize=None)
def _log_order(p: int) -> tuple[list[int], dict[int, int]]:
    # powers[a] = g^a mod p for a < p - 1 and logs[g^a] = a, g = _primitive_root(p).
    g = _primitive_root(p)
    powers = [pow(g, a, p) for a in range(p - 1)]
    return powers, {r: a for a, r in enumerate(powers)}


def _packed_rows(rows) -> tuple[int, int, list[tuple[int, int]]]:
    """(top, nbytes, [(e, packed)]) for rows (e, num, m): num * m biased and packed.

    Biased by max |c * m|, the digits of a sum of all rows are at most top.
    """
    bias = max([max(max(num), -min(num)) * m for _, num, m in rows], default=0)
    top = 2 * bias * len(rows)
    nbytes = _digit_bytes(top)
    return top, nbytes, [(e, _pack([c * m + bias for c in num] + [bias], nbytes))
                         for e, num, m in rows]


def _shifted_sums(p: int, terms, multipliers, width: int):
    """Yield sum_j P_j * z^(e_j * t) mod z^p - 1, packed, for t in multipliers.

    terms are (e_j, P_j), P_j packed p-digit vectors whose digits (width
    bits) never carry when all are added.  Each P is stored twice side by
    side, P | P << (p digits), so multiplying by z^s is one right shift by
    (p - s) mod p digits.  Fewer than p / 4 terms (measured crossover) shift
    one by one.  More merge into slots in discrete-log order: slot a holds
    exponent g^a (g = _primitive_root(p)), and exponent 0 never shifts.  For
    t = g^b slot a shifts by S[(a + b) mod (p - 1)], S[a] = (-g^a mod p)
    digits, so the shifts of one sum are one slice of S + S.
    """
    cut = width * p
    mask = (1 << cut) - 1
    if 4 * len(terms) < p:
        doubled = [(e, packed | packed << cut) for e, packed in terms]
        for t in multipliers:
            yield sum([d >> (-e * t % p * width) for e, d in doubled]) & mask
        return
    powers, logs = _log_order(p)
    units = [0] * (p - 1)
    fixed = 0
    for e, packed in terms:
        if e % p:
            units[logs[e % p]] += packed
        else:
            fixed += packed
    units = [u | u << cut for u in units]
    turns = [(p - r) * width for r in powers] * 2
    for t in multipliers:
        if t % p:
            b = logs[t % p]
            # Empty slots shift to 0, and adding 0 would copy the sum.
            yield sum(filter(None, map(operator.rshift, units, turns[b:b + p - 1])),
                      fixed) & mask
        else:
            yield sum(units, fixed) & mask


def character_sums(modulus: PrimeModulus, values, exponents, multipliers,
                   den_factor: int) -> list[CycloNum]:
    """[sum_j values[j] * w^(exponents[j] * t) / den_factor for t in multipliers].

    Kronecker substitution on the redundant spanning set {1, w, ..., w^(p-1)}.
    The values are put over one common denominator and zero values are
    dropped.  Each numerator vector with two or more nonzero coefficients is
    biased and packed (_packed_rows), _shifted_sums adds the packed vectors
    turned by their powers of w, and each sum is unpacked on its own.  The
    bias, equal in every digit, cancels when _from_redundant folds the top
    coefficient.  A value with one nonzero coefficient, c * w^i (every
    rational is one), is not packed: for each t it adds c, over the common
    denominator, at index (i + e * t) mod p of the unpacked sum, so the bias
    and the width come from the packed values only.
    """
    p = modulus.p
    multipliers = list(multipliers)
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
    _, nbytes, terms = _packed_rows(rows)
    out = []
    for t, total in zip(multipliers, _shifted_sums(p, terms, multipliers, 8 * nbytes)):
        acc = _unpack(total, p, nbytes)
        for e, i, c in monomials:
            acc[(i + e * t) % p] += c
        out.append(CycloNum._from_redundant(modulus, acc, common * den_factor))
    return out


def cyclic_convolution(modulus: PrimeModulus, f, g) -> list[CycloNum]:
    """[sum_y f[y] * g[(x - y) mod p] for x in Z/p], for sequences of p CycloNums.

    The convolution theorem on the unnormalised spectra F(xi) = sum_x f[x]
    w^(-x*xi) and G: the result at x is (1/p) sum_xi F(xi) G(xi) w^(x*xi).
    Every nonzero value of f is packed over f's common denominator, and
    likewise for g, and the forward sums stay packed with digits at most
    top_f and top_g.  Each pair is widened to _digit_bytes(p^2 * top_f * top_g)
    bytes per digit, multiplied and folded by z^p = 1, and the products go
    straight into the inverse sum, decoded over common_f * common_g * p.
    The biases add multiples of J, which _from_redundant cancels.
    """
    p = modulus.p
    sides = []
    for values in (f, g):
        common = math.lcm(*(v._den for v in values))
        rows = [(x, v._num, common // v._den) for x, v in enumerate(values) if any(v._num)]
        sides.append((common, *_packed_rows(rows)))
    (common_f, top_f, bytes_f, terms_f), (common_g, top_g, bytes_g, terms_g) = sides
    # A folded product has digits at most p * top_f * top_g; the inverse sum adds p.
    wide = _digit_bytes(p * p * top_f * top_g)
    cut = 8 * wide * p
    forward = range(0, -p, -1)
    products = []
    for xi, (a, b) in enumerate(zip(_shifted_sums(p, terms_f, forward, 8 * bytes_f),
                                    _shifted_sums(p, terms_g, forward, 8 * bytes_g))):
        product = (int.from_bytes(_widen(a, p, bytes_f, wide), "little")
                   * int.from_bytes(_widen(b, p, bytes_g, wide), "little"))
        products.append((xi, (product & ((1 << cut) - 1)) + (product >> cut)))
    den = common_f * common_g * p
    return [CycloNum._from_redundant(modulus, _unpack(total, p, wide), den)
            for total in _shifted_sums(p, products, range(p), 8 * wide)]


def integral_rows(rows) -> tuple[int, list[list[CycloNum]]]:
    """Each row of a CycloNum matrix times the lcm of its denominators.

    Returns the product of those multipliers and the rows, whose entries then
    lie in Z[w].  Scaling a row by d scales every determinant that uses the
    row by d, so the product is the factor on each n x n minor.
    """
    scale = 1
    out = []
    for row in rows:
        d = math.lcm(*(v._den for v in row))
        if d > 1:
            scale *= d
            row = [CycloNum._raw(v.modulus, tuple(c * (d // v._den) for c in v._num), 1)
                   for v in row]
        out.append(row)
    return scale, out


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
    for_minors picks a W at which every n x n minor of a matrix has such
    coefficients.
    """

    __slots__ = ("modulus", "width", "n", "_bias")

    def __init__(self, modulus: PrimeModulus, width: int):
        p = modulus.p
        self.modulus = modulus
        self.width = width
        self.n = ((1 << p * width) - 1) // ((1 << width) - 1)
        # 2^(W-1) in each of the p - 1 digits that decode reads.
        self._bias = (self.n - (1 << (p - 1) * width)) << (width - 1)

    @classmethod
    def for_minors(cls, modulus: PrimeModulus, rows) -> ResidueRing:
        """The narrowest ring that decodes every n x n minor of rows.

        rows is an n x m matrix over Z[w] with m >= n.  Under each
        embedding, a column's norm is at most the root of the sum of its
        squared _embedding_bound values, so by Hadamard's inequality every
        n x n minor has embeddings of modulus at most H, the product of the
        n largest column bounds.  A minor's coefficients are then below 2H:
        c_i = (1/p) sum_j chat_j w^(-i*j) over chat_j = sum_k c_k w^(j*k),
        the p - 1 embeddings and chat_0, which c_(p-1) = 0 bounds by
        (p - 1) H.  So W = bits(2H) + 2, the least width at or above it
        with 2^W != 1 (mod p).
        """
        squares = sorted(sum([_embedding_bound(v._num) ** 2 for v in col])
                         for col in zip(*rows))
        # isqrt(4 H^2) + 1 >= 2H.
        twice = math.isqrt(4 * math.prod(squares[len(squares) - len(rows):])) + 1
        return cls(modulus, _unit_width(modulus.p, twice.bit_length() + 2))

    def wider(self) -> ResidueRing:
        """The ring at the next width with 2^W != 1 (mod p)."""
        return ResidueRing(self.modulus, _unit_width(self.modulus.p, self.width + 1))

    def encode(self, value: CycloNum) -> int:
        """The residue of a value of Z[w] (denominator 1)."""
        w = self.width
        return sum([c << w * i for i, c in enumerate(value._num) if c]) % self.n

    def decode(self, residue: int) -> CycloNum:
        """The value of Z[w] with coefficients below 2^(W-2) that has this residue."""
        n, w = self.n, self.width
        r = residue % n
        if r > n >> 1:
            r -= n
        r += self._bias
        mask, half = (1 << w) - 1, 1 << (w - 1)
        num = tuple([(r >> w * i & mask) - half for i in range(self.modulus.p - 1)])
        return CycloNum._raw(self.modulus, num, 1)


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
    def root_power(cls, modulus: PrimeModulus, k: int) -> CycloNum:
        """The canonical representation of w^k (exponent reduced mod p)."""
        return cls._raw(modulus, _root_power_num(modulus.p, k % modulus.p), 1)

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

    def __add__(self, other) -> CycloNum:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        self._check_same(other)
        d1, d2 = self._den, other._den
        if d1 == d2:
            num = [a + b for a, b in zip(self._num, other._num)]
            den = d1
        else:
            g = math.gcd(d1, d2)
            m1, m2 = d2 // g, d1 // g
            num = [a * m1 + b * m2 for a, b in zip(self._num, other._num)]
            den = d1 // g * d2
        return CycloNum._raw(self.modulus, *_normalize(num, den))

    __radd__ = __add__

    def __neg__(self) -> CycloNum:
        return CycloNum._raw(self.modulus, tuple(-c for c in self._num), self._den)

    def __sub__(self, other) -> CycloNum:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        self._check_same(other)
        d1, d2 = self._den, other._den
        if d1 == d2:
            num = [a - b for a, b in zip(self._num, other._num)]
            den = d1
        else:
            g = math.gcd(d1, d2)
            m1, m2 = d2 // g, d1 // g
            num = [a * m1 - b * m2 for a, b in zip(self._num, other._num)]
            den = d1 // g * d2
        return CycloNum._raw(self.modulus, *_normalize(num, den))

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
        if na * nb > _DENSE_MUL_THRESHOLD * p and min(na, nb) > 1:
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

        On the redundant spanning set {1, w, ..., w^(p-1)} this only permutes
        the coefficients (index i goes to i*k mod p).
        """
        p = self.modulus.p
        if k % p == 0:
            raise ValueError(f"w -> w^{k} is not an automorphism of Q(w) for p={p}")
        acc = [0] * p
        for i, c in enumerate(self._num):
            if c:
                acc[i * k % p] = c
        return CycloNum._from_redundant(self.modulus, acc, self._den)

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
        if isinstance(other, (int, Fraction)):
            other = CycloNum.from_rational(self.modulus, other)
        if not isinstance(other, CycloNum):
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


class IntPolynomial:
    """Sparse polynomial in n variables with integer coefficients.

    Terms map exponent tuples (length n, entries >= 0) to nonzero integers.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms):
        if nvars < 1:
            raise ValueError("need at least one variable")
        clean: dict[tuple[int, ...], int] = {}
        for exps, coeff in dict(terms).items():
            exps = tuple(operator.index(e) for e in exps)
            coeff = operator.index(coeff)
            if len(exps) != nvars:
                raise ValueError(f"exponent tuple {exps} does not have length {nvars}")
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            if coeff:
                clean[exps] = clean.get(exps, 0) + coeff
        self.nvars = nvars
        self.terms = {e: c for e, c in clean.items() if c}

    @classmethod
    def univariate(cls, coeffs) -> IntPolynomial:
        """Build a one-variable polynomial from a dense coefficient list."""
        return cls(1, {(i,): c for i, c in enumerate(coeffs) if c})

    def value_at_one(self) -> int:
        return sum(self.terms.values())

    def evaluate(self, args: list[CycloNum]) -> CycloNum:
        """Direct evaluation at cyclotomic arguments (used as a cross-check)."""
        if len(args) != self.nvars:
            raise ValueError("argument count mismatch")
        modulus = args[0].modulus
        total = CycloNum.zero(modulus)
        for exps, coeff in self.terms.items():
            term = CycloNum.from_rational(modulus, coeff)
            for base, e in zip(args, exps):
                if e:
                    term = term * base**e
            total = total + term
        return total

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, IntPolynomial)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.nvars, tuple(sorted(self.terms.items()))))

    def __repr__(self) -> str:
        body = ", ".join(f"{e}: {c}" for e, c in sorted(self.terms.items()))
        return f"IntPolynomial({self.nvars}, {{{body}}})"


@dataclass(frozen=True)
class GaloisReport:
    """Outcome of the root-of-unity divisibility check."""

    vanishes_at_roots: bool
    value_at_one: int
    divisible_by_p: bool


def _validate_powers(poly: IntPolynomial, powers, modulus: PrimeModulus) -> list[int]:
    powers = [operator.index(k) for k in powers]
    if len(powers) != poly.nvars:
        raise ValueError(
            f"expected {poly.nvars} powers, got {len(powers)}"
        )
    for k in powers:
        if not 0 <= k < modulus.p:
            raise ValueError(f"power {k} outside [0, {modulus.p})")
    return powers


def galois_reduce(poly: IntPolynomial, powers, modulus: PrimeModulus) -> IntPolynomial:
    """Substitute z_j = z^(k_j) and fold exponents mod z^p - 1.

    The result Q has degree at most p - 1, Q(1) = P(1, ..., 1), and
    Q(w) = P(w^(k_1), ..., w^(k_n)).
    """
    powers = _validate_powers(poly, powers, modulus)
    p = modulus.p
    folded: dict[tuple[int], int] = {}
    for exps, coeff in poly.terms.items():
        e = sum(ei * ki for ei, ki in zip(exps, powers)) % p
        folded[(e,)] = folded.get((e,), 0) + coeff
    return IntPolynomial(1, folded)


def galois_divisibility_check(poly: IntPolynomial, powers, modulus: PrimeModulus) -> GaloisReport:
    """Evaluate P at the given root-of-unity powers and report divisibility.

    If P(w^(k_1), ..., w^(k_n)) = 0 then P(1, ..., 1) must be a multiple of p;
    a vanishing value with a non-divisible integer is impossible and raises
    TheoremViolationError.
    """
    reduced = galois_reduce(poly, powers, modulus)
    p = modulus.p
    acc = [0] * p
    for (e,), coeff in reduced.terms.items():
        acc[e] += coeff
    vanishes = CycloNum._from_redundant(modulus, acc, 1).is_zero()
    value_at_one = poly.value_at_one()
    divisible = value_at_one % p == 0
    if vanishes and not divisible:
        raise TheoremViolationError(
            f"P vanishes at p-th roots of unity but P(1,...,1)={value_at_one} "
            f"is not divisible by p={p}"
        )
    return GaloisReport(vanishes, value_at_one, divisible)
