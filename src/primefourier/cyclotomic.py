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
stored and packed: dense products and character_sums, the kernel behind
every transform in fourier, turn each vector into one big integer through
one linear-time codec (Kronecker substitution).  Inverses come from the
Galois norm: the product of all p - 1 conjugates of a nonzero element is a
nonzero rational, so dividing the product of the other p - 2 conjugates by
it inverts the element with integer vector arithmetic alone.

The module also provides sparse integer polynomials in several variables,
the folding substitution P(z^(k_1), ..., z^(k_n)) mod z^p - 1, and the
divisibility check built on it: an integer polynomial that vanishes at p-th
roots of unity has P(1, ..., 1) divisible by p.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from array import array
from dataclasses import dataclass
from fractions import Fraction

from .errors import TheoremViolationError

MAX_PRIME = 10007

# Above this many nonzero coefficient products, multiplication switches from
# the schoolbook loop over the nonzero coefficients to one packed big-integer
# product (_packed_convolution, through the codec below), whose cost depends
# on p and the coefficient size but not on how sparse the operands are.
_DENSE_MUL_THRESHOLD = 256


def is_prime(n: int) -> bool:
    """Deterministic trial division; intended for the small moduli used here."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class PrimeModulus:
    """A validated prime p, the order of the ambient cyclic group Z/pZ.

    Construction rejects composites (trial division) and primes above
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
# take the width from their inputs through _digit_bytes, which rounds up to
# an array item size where one fits: such a width converts in one C call
# (array items are native-endian, so they are byteswapped on big-endian
# hosts), any other width digit by digit.  Both directions are linear.
_ARRAY_CODES = {array(code).itemsize: code for code in "BHILQ"}
_BIG_ENDIAN = sys.byteorder == "big"
# Bytes a digit needs -> bytes it gets: the smallest array item size that
# holds it.  Wider digits get just the bytes they need.
_ROUNDED_WIDTH = {need: min(k for k in _ARRAY_CODES if k >= need)
                  for need in range(1, max(_ARRAY_CODES) + 1)}


def _digit_bytes(top: int) -> int:
    """Digit width in bytes for non-negative digits up to top."""
    need = (top.bit_length() + 7) // 8 or 1
    return _ROUNDED_WIDTH.get(need, need)


def _pack(digits, nbytes: int) -> int:
    code = _ARRAY_CODES.get(nbytes)
    if code is None:
        raw = b"".join([d.to_bytes(nbytes, "little") for d in digits])
    else:
        items = array(code, digits)
        if _BIG_ENDIAN:
            items.byteswap()
        raw = items.tobytes()
    return int.from_bytes(raw, "little")


def _unpack(value: int, count: int, nbytes: int) -> list[int]:
    # to_bytes raises OverflowError unless 0 <= value < 256**(count*nbytes).
    raw = value.to_bytes(count * nbytes, "little")
    code = _ARRAY_CODES.get(nbytes)
    if code is None:
        return [int.from_bytes(raw[i:i + nbytes], "little")
                for i in range(0, len(raw), nbytes)]
    items = array(code, raw)
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


def character_sums(modulus: PrimeModulus, values, exponents, multipliers,
                   den_factor: int) -> list[CycloNum]:
    """[sum_j values[j] * w^(exponents[j] * t) / den_factor for t in multipliers].

    Kronecker substitution on the redundant spanning set {1, w, ..., w^(p-1)}.
    The values are put over one common denominator and zero values are
    dropped.  Each remaining numerator vector, biased to non-negative digits,
    is packed into one integer P by the cyclotomic codec and stored twice
    side by side, P | P << (p digits), so that multiplying by w^s is one
    right shift by (p - s) mod p digits.  A sum is then one shift per term,
    one mask and one unpack.  The digits are wide enough that the biased
    sum never carries between them, and the bias, equal in every digit,
    cancels when _from_redundant folds the top coefficient.
    """
    p = modulus.p
    common = math.lcm(*(v._den for v in values))
    rows = [(e, v._num, common // v._den)
            for v, e in zip(values, exponents) if not v.is_zero()]
    bias = max([max(max(num), -min(num)) * m for _, num, m in rows], default=0)
    # A biased digit is at most 2 * bias, so no digit of a sum exceeds this.
    nbytes = _digit_bytes(2 * bias * len(rows))
    width = 8 * nbytes
    cut = width * p
    terms = []
    for e, num, m in rows:
        packed = _pack([c * m + bias for c in num] + [bias], nbytes)
        terms.append((e, packed | packed << cut))
    mask = (1 << cut) - 1
    den = common * den_factor
    out = []
    for t in multipliers:
        total = sum([doubled >> (-e * t % p * width) for e, doubled in terms])
        acc = _unpack(total & mask, p, nbytes)
        out.append(CycloNum._from_redundant(modulus, acc, den))
    return out


class CycloNum:
    """An exact element of Q(w), w a primitive p-th root of unity.

    Stored as an integer numerator vector on the power basis plus a positive
    denominator; the `coeffs` property exposes the rational coefficients in
    lowest terms.  Instances are immutable and safe to share.
    """

    __slots__ = ("modulus", "_num", "_den")

    def __init__(self, modulus: PrimeModulus, coeffs):
        coeffs = [Fraction(c) for c in coeffs]
        if len(coeffs) != modulus.p - 1:
            raise ValueError(
                f"expected {modulus.p - 1} coefficients for p={modulus.p}, got {len(coeffs)}"
            )
        den = math.lcm(*(c.denominator for c in coeffs)) if coeffs else 1
        num = [int(c * den) for c in coeffs]
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
        value = Fraction(value)
        num = [value.numerator] + [0] * (modulus.p - 2)
        return cls._raw(modulus, *_normalize(num, value.denominator))

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
        return self + (-other)

    def __rsub__(self, other) -> CycloNum:
        return (-self) + other

    def _scaled(self, value: Fraction) -> CycloNum:
        num = [c * value.numerator for c in self._num]
        return CycloNum._raw(self.modulus, *_normalize(num, self._den * value.denominator))

    def __mul__(self, other) -> CycloNum:
        if isinstance(other, (int, Fraction)):
            return self._scaled(Fraction(other))
        if not isinstance(other, CycloNum):
            return NotImplemented
        self._check_same(other)
        a, b = self._sparse(), other._sparse()
        if not a or not b:
            return CycloNum.zero(self.modulus)
        p = self.modulus.p
        den = self._den * other._den
        if len(a) * len(b) > _DENSE_MUL_THRESHOLD:
            acc = _packed_convolution(self._num, other._num, p)
        else:
            acc = [0] * p
            for i, ca in a:
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
        """
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in Q(w)")
        if self.is_rational():
            return CycloNum.from_rational(self.modulus, Fraction(self._den, self._num[0]))
        rest = self.galois(2)
        for k in range(3, self.modulus.p):
            rest = rest * self.galois(k)
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
            exps = tuple(int(e) for e in exps)
            coeff = int(coeff)
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
    powers = [int(k) for k in powers]
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
