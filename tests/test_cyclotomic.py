import cmath
import itertools
import math
import random
import struct
import sys
from array import array
from fractions import Fraction

import pytest

from primefourier import (
    CycloNum,
    PrimeModulus,
    TheoremViolationError,
    is_prime,
)
from primefourier import cyclotomic
from primefourier.cyclotomic import (
    _balanced_residue,
    _decode_signed,
    _digit_bytes,
    _digit_string,
    _field_max,
    _fold_residues,
    _ones,
    _packed_convolution,
    _packed_rows,
    _primitive_root,
    _resize,
    _row_bias,
    _row_string,
    _signed_rows,
    image_prime,
)

from conftest import random_cyclo


def pack(digits, nbytes):
    """sum_i d_i 256^(nbytes*i): digits of nbytes bytes as one integer."""
    return sum(d << (8 * nbytes * i) for i, d in enumerate(digits))


def unpack(value, count, nbytes):
    """The count non-negative digits of nbytes bytes of a packed integer."""
    mask = (1 << 8 * nbytes) - 1
    return [value >> (8 * nbytes * i) & mask for i in range(count)]


class TestPrimeModulus:
    def test_accepts_primes(self):
        for p in (2, 3, 5, 7, 11, 97, 10007):
            assert PrimeModulus(p).p == p

    @pytest.mark.parametrize("bad", [0, 1, 4, 6, 9, 100, 10000])
    def test_rejects_composites_and_small(self, bad):
        with pytest.raises(ValueError):
            PrimeModulus(bad)

    def test_rejects_above_bound(self):
        assert PrimeModulus(10007).p == 10007
        with pytest.raises(ValueError, match="exceeds the configured bound 10007"):
            PrimeModulus(10009)  # next prime past the bound

    def test_is_prime_small(self):
        primes = [n for n in range(2, 60) if is_prime(n)]
        assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


def strong_probable_prime(n, base):
    """The strong (Miller-Rabin) test of odd n > 2 to one base."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(base, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def trial_division_prime(n):
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


class TestIsPrime:
    def test_agrees_with_a_sieve_below_2_10_5(self):
        # Past psi_1 = 2047, so both the one-base and the two-base prefix.
        limit = 2 * 10**5
        sieve = bytearray([1]) * limit
        sieve[:2] = b"\0\0"
        for n in range(2, math.isqrt(limit) + 1):
            if sieve[n]:
                sieve[n * n::n] = bytes(len(range(n * n, limit, n)))
        assert [n for n in range(-3, limit) if is_prime(n)] == [
            n for n in range(limit) if sieve[n]]

    @pytest.mark.parametrize("n, bases", [
        (561, ()),                     # Carmichael: a Fermat liar to every coprime base
        (3215031751, (2, 3, 5, 7)),    # strong pseudoprime to 2, 3, 5 and 7
        (2152302898747, (2, 3, 5, 7, 11)),
        # The other psi_k below the proven range, the least strong
        # pseudoprimes to the first k prime bases (psi_4 and psi_5 above):
        # is_prime must take more than k bases for each.
        (2047, (2,)),
        (1373653, (2, 3)),
        (25326001, (2, 3, 5)),
        (3474749660383, (2, 3, 5, 7, 11, 13)),
        (341550071728321, (2, 3, 5, 7, 11, 13, 17, 19)),
        (3825123056546413051, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)),
    ])
    def test_rejects_pseudoprimes(self, n, bases):
        assert all(strong_probable_prime(n, b) for b in bases)
        assert not trial_division_prime(n)
        assert not is_prime(n)

    def test_large_primes(self):
        for n in (2**31 - 1, 2**61 - 1, 2**64 - 59, 10**18 + 9):
            assert is_prime(n)
        assert not is_prime((2**31 - 1) * (10**9 + 7))

    def test_refuses_beyond_its_proven_range(self):
        # The least composite that passes all twelve bases is the limit itself.
        limit = cyclotomic._MR_LIMIT
        assert limit == 399165290221 * 798330580441
        assert all(strong_probable_prime(limit, b) for b in cyclotomic._MR_BASES)
        with pytest.raises(ValueError, match="proven range"):
            is_prime(limit)
        assert not is_prime(limit + 1)  # even: decided before the range check


class TestImagePrime:
    PRIMES = [p for p in range(2, 200) if trial_division_prime(p)]

    @pytest.mark.parametrize("p", PRIMES)
    def test_element_of_order_p(self, p):
        q, g = image_prime(p)
        assert q > 2**31 and q % p == 1 and trial_division_prime(q)
        # Least: no prime q' = 1 (mod p) lies between 2^31 and q.
        assert not any(is_prime(n) for n in range(2**31 + 1, q) if n % p == 1)
        assert g != 1 and pow(g, p, q) == 1

    def test_matches_twelve_bases_up_to_max_prime(self):
        def twelve_base_image_prime(p):
            q = -(-(1 << 31) // p) * p + 1
            while not all(q % b and strong_probable_prime(q, b) for b in cyclotomic._MR_BASES):
                q += p
            h = 2
            while pow(h, (q - 1) // p, q) == 1:
                h += 1
            return q, pow(h, (q - 1) // p, q)

        primes = [p for p in range(2, cyclotomic.MAX_PRIME + 1) if trial_division_prime(p)]
        assert primes[-1] == 10007
        assert all(image_prime(p) == twelve_base_image_prime(p) for p in primes)


class TestRootPower:
    def test_identity(self):
        p5 = PrimeModulus(5)
        assert CycloNum.root_power(p5, 0).coeffs == (1, 0, 0, 0)

    def test_exponent_reduction(self):
        p5 = PrimeModulus(5)
        assert CycloNum.root_power(p5, 7).coeffs == (0, 0, 1, 0)

    def test_top_power_folds(self):
        # w^2 = -1 - w in Q(w_3), forced by the minimal polynomial 1 + z + z^2.
        p3 = PrimeModulus(3)
        assert CycloNum.root_power(p3, 2).coeffs == (-1, -1)

    def test_negative_exponent(self):
        p7 = PrimeModulus(7)
        assert CycloNum.root_power(p7, -2) == CycloNum.root_power(p7, 5)

    def test_one_shared_object_per_exponent(self):
        # Shared per (p, k), so a Fourier minor holds at most p distinct
        # entry objects, whichever PrimeModulus instance asked.
        p7 = PrimeModulus(7)
        for k in range(7):
            w = CycloNum.root_power(p7, k)
            assert CycloNum.root_power(PrimeModulus(7), k + 14) is w
            assert CycloNum.root_power(p7, k - 7) is w
            assert w.modulus == p7
        assert CycloNum.one(p7) is CycloNum.root_power(p7, 0)


class TestRingOps:
    def test_additive_inverse(self):
        p5 = PrimeModulus(5)
        w = CycloNum.root_power(p5, 1)
        assert (w + (-w)).is_zero()

    def test_w_times_w4_is_one(self):
        p5 = PrimeModulus(5)
        w = CycloNum.root_power(p5, 1)
        assert w * CycloNum.root_power(p5, 4) == 1

    def test_expand_and_reduce(self):
        p3 = PrimeModulus(3)
        w = CycloNum.root_power(p3, 1)
        assert ((w + 1) * (w - 1)).coeffs == (-2, -1)

    def test_modulus_mismatch(self):
        a = CycloNum.root_power(PrimeModulus(3), 1)
        b = CycloNum.root_power(PrimeModulus(5), 1)
        with pytest.raises(ValueError):
            a + b
        with pytest.raises(ValueError):
            a * b

    def test_minimal_polynomial_sums_to_zero(self):
        for p in (2, 3, 5, 7, 11, 13):
            modulus = PrimeModulus(p)
            total = CycloNum.zero(modulus)
            for k in range(p):
                total = total + CycloNum.root_power(modulus, k)
            assert total.is_zero()

    def test_w_to_the_p_is_one(self):
        for p in (2, 3, 5, 7, 11):
            modulus = PrimeModulus(p)
            assert CycloNum.root_power(modulus, 1) ** p == 1

    def test_ring_axioms_random(self):
        rng = random.Random(101)
        for p in (3, 5, 7):
            modulus = PrimeModulus(p)
            for _ in range(30):
                a = random_cyclo(rng, modulus, den_max=3)
                b = random_cyclo(rng, modulus, den_max=3)
                c = random_cyclo(rng, modulus, den_max=3)
                assert a + b == b + a
                assert a * b == b * a
                assert (a + b) + c == a + (b + c)
                assert (a * b) * c == a * (b * c)
                assert a * (b + c) == a * b + a * c

    def test_canonical_equality_is_congruence(self):
        rng = random.Random(55)
        p7 = PrimeModulus(7)
        for _ in range(20):
            a = random_cyclo(rng, p7, den_max=4)
            assert (a + (-a)).is_zero()
            assert a - a == CycloNum.zero(p7)

    def test_coeffs_in_lowest_terms(self):
        p3 = PrimeModulus(3)
        a = CycloNum(p3, [Fraction(2, 4), Fraction(-6, 8)])
        assert a.coeffs == (Fraction(1, 2), Fraction(-3, 4))
        for c in a.coeffs:
            assert math.gcd(c.numerator, c.denominator) == 1
            assert c.denominator > 0

    @pytest.mark.parametrize("p", [2, 5])
    def test_rational_values_hash_as_the_rationals_they_equal(self, p):
        modulus = PrimeModulus(p)
        for value in (Fraction(3, 2), Fraction(-7, 3), 1, 0, -1):
            num = CycloNum.from_rational(modulus, value)
            assert num == value and hash(num) == hash(value)
            assert value in {num} and num in {value}
        w = CycloNum.root_power(modulus, 1)
        assert w in {CycloNum.root_power(modulus, p + 1)}

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            CycloNum(PrimeModulus(5), [1, 2, 3])


class TestSubtraction:
    @pytest.mark.parametrize("den_max", [1, 6])
    def test_matches_adding_the_negative(self, den_max):
        # den_max=1 keeps both denominators 1; 6 makes most pairs differ.
        rng = random.Random(31 + den_max)
        for p in (2, 3, 7, 13):
            modulus = PrimeModulus(p)
            for _ in range(20):
                a = random_cyclo(rng, modulus, den_max=den_max)
                b = random_cyclo(rng, modulus, den_max=den_max)
                assert a - b == a + (-b)
                assert b - a == -(a - b)

    def test_equal_and_different_denominators(self):
        p5 = PrimeModulus(5)
        a = CycloNum(p5, [Fraction(1, 6), 2, Fraction(-5, 6), 0])
        b = CycloNum(p5, [Fraction(1, 6), Fraction(1, 3), 1, Fraction(5, 6)])
        c = CycloNum(p5, [Fraction(3, 4), 0, Fraction(1, 10), 1])
        assert a._den == b._den == 6
        assert (a - b).coeffs == (0, Fraction(5, 3), Fraction(-11, 6), Fraction(-5, 6))
        assert (a - c).coeffs == (Fraction(-7, 12), 2, Fraction(-14, 15), -1)
        assert (a - a).is_zero()

    def test_rational_operands(self):
        p7 = PrimeModulus(7)
        x = CycloNum(p7, [Fraction(1, 2), 1, 0, 0, Fraction(-2, 3), 0])
        assert (x - 1).coeffs == (Fraction(-1, 2), 1, 0, 0, Fraction(-2, 3), 0)
        assert (1 - x).coeffs == (Fraction(1, 2), -1, 0, 0, Fraction(2, 3), 0)
        assert (x - Fraction(1, 3)).coeffs == (Fraction(1, 6), 1, 0, 0, Fraction(-2, 3), 0)

    def test_modulus_mismatch_and_foreign_operand(self):
        x = CycloNum.root_power(PrimeModulus(5), 1)
        with pytest.raises(ValueError, match="modulus mismatch"):
            x - CycloNum.root_power(PrimeModulus(7), 1)
        with pytest.raises(TypeError):
            x - "s"
        with pytest.raises(TypeError):
            "s" - x


def sparse_cyclo(rng: random.Random, modulus: PrimeModulus, terms: int) -> CycloNum:
    coeffs = [0] * (modulus.p - 1)
    for i in rng.sample(range(modulus.p - 1), terms):
        coeffs[i] = Fraction(rng.choice((-1, 1)) * rng.randint(1, 2**90), rng.randint(1, 9))
    return CycloNum(modulus, coeffs)


class TestMultiplyDispatch:
    @pytest.mark.parametrize("p, terms", [
        (3, [(1, 1), (2, 2)]),
        (17, [(1, 16), (16, 16), (5, 9), (16, 1)]),
        (101, [(1, 100), (100, 100), (40, 30), (3, 100)]),
        (1009, [(1, 1008), (1008, 1), (300, 300), (2, 1008)]),
    ])
    def test_packed_and_schoolbook_agree(self, monkeypatch, p, terms):
        rng = random.Random(p)
        modulus = PrimeModulus(p)
        pairs = [(sparse_cyclo(rng, modulus, na), sparse_cyclo(rng, modulus, nb))
                 for na, nb in terms]
        products = []
        for threshold in (0, 10**9):
            monkeypatch.setattr(cyclotomic, "_DENSE_MUL_THRESHOLD", threshold)
            products.append([a * b for a, b in pairs])
        assert products[0] == products[1]
        for (a, b), product in zip(pairs, products[0]):
            acc = _packed_convolution(a._num, b._num, p)
            assert product == CycloNum._from_redundant(modulus, acc, a._den * b._den)

    def test_narrow_times_wide_takes_the_schoolbook_loop(self, monkeypatch):
        # Packed, the 4-bit operand would get digits as wide as the
        # product's, about 2000 bits: several times the schoolbook loop.
        rng = random.Random(2000)
        modulus = PrimeModulus(61)
        narrow = CycloNum(modulus, [rng.choice((-15, 15)) for _ in range(60)])
        wide = CycloNum(modulus, [rng.choice((-1, 1)) * rng.getrandbits(2000) for _ in range(60)])
        expected = [narrow * wide, wide * narrow]
        monkeypatch.setattr(cyclotomic, "_DENSE_MUL_THRESHOLD", 10**9)
        assert [narrow * wide, wide * narrow] == expected

        def refuse(*args):
            raise AssertionError("packed product for a narrow operand")

        monkeypatch.setattr(cyclotomic, "_DENSE_MUL_THRESHOLD", 8)
        monkeypatch.setattr(cyclotomic, "_packed_convolution", refuse)
        assert [narrow * wide, wide * narrow] == expected

    @pytest.mark.parametrize("p", [31, 61])
    def test_balanced_dense_operands_pack(self, monkeypatch, p):
        rng = random.Random(p)
        modulus = PrimeModulus(p)
        a, b = (CycloNum(modulus, [rng.choice((-1, 1)) * rng.getrandbits(60) for _ in range(p - 1)])
                for _ in range(2))
        calls = []
        real = cyclotomic._packed_convolution

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(cyclotomic, "_packed_convolution", spy)
        product = a * b
        assert len(calls) == 1
        monkeypatch.setattr(cyclotomic, "_DENSE_MUL_THRESHOLD", 10**9)
        assert a * b == product and len(calls) == 1

    def test_single_term_operand_never_packs(self, monkeypatch):
        # 1 x 1008 nonzero terms is far above the threshold, but a single
        # term is a scaled rotation and takes the schoolbook loop.
        rng = random.Random(1009)
        modulus = PrimeModulus(1009)
        one_term = sparse_cyclo(rng, modulus, 1)
        dense = sparse_cyclo(rng, modulus, 1008)
        expected = one_term * dense

        def refuse(*args):
            raise AssertionError("packed product for a single-term operand")

        monkeypatch.setattr(cyclotomic, "_packed_convolution", refuse)
        assert one_term * dense == expected
        assert dense * one_term == expected
        with pytest.raises(AssertionError, match="single-term"):
            dense * dense


class TestZeroTest:
    def test_minimal_polynomial_value_is_zero(self):
        p5 = PrimeModulus(5)
        total = CycloNum.zero(p5)
        for k in range(5):
            total = total + CycloNum.root_power(p5, k)
        assert total.is_zero()

    def test_distinct_basis_elements(self):
        p5 = PrimeModulus(5)
        assert not (CycloNum.root_power(p5, 2) - 1).is_zero()

    def test_inverse_recovers_one(self):
        rng = random.Random(77)
        p7 = PrimeModulus(7)
        for _ in range(25):
            a = random_cyclo(rng, p7, den_max=3)
            if a.is_zero():
                continue
            assert (a * a.inverse() - 1).is_zero()


class TestInverse:
    def test_inverse_of_w(self):
        p5 = PrimeModulus(5)
        w = CycloNum.root_power(p5, 1)
        assert w.inverse() == CycloNum.root_power(p5, 4)

    def test_rational_scalar(self):
        p5 = PrimeModulus(5)
        two = CycloNum.from_rational(p5, 2)
        assert two.inverse() == Fraction(1, 2)

    def test_one_minus_w_p3(self):
        # Hand xgcd of (1 - z) against 1 + z + z^2: (1-w)^(-1) = (2+w)/3.
        p3 = PrimeModulus(3)
        a = 1 - CycloNum.root_power(p3, 1)
        inv = a.inverse()
        assert inv.coeffs == (Fraction(2, 3), Fraction(1, 3))
        assert a * inv == 1
        # Numeric cross-check against the complex embedding.
        assert abs(inv.embed() - 1 / (1 - cmath.exp(2j * cmath.pi / 3))) < 1e-12

    def test_zero_division(self):
        with pytest.raises(ZeroDivisionError):
            CycloNum.zero(PrimeModulus(5)).inverse()

    def test_division_operator(self):
        rng = random.Random(3)
        p11 = PrimeModulus(11)
        a = random_cyclo(rng, p11)
        b = random_cyclo(rng, p11)
        if b.is_zero():
            b = b + 1
        assert (a / b) * b == a


    def test_impossible_norm_raises_theorem_violation(self, monkeypatch):
        # With every conjugate replaced by the value itself the "norm" is
        # a^(p-1), which is not rational for this dense a.
        monkeypatch.setattr(CycloNum, "galois", lambda self, k: self)
        a = CycloNum(PrimeModulus(7), [1, 2, 3, 4, 5, 6])
        with pytest.raises(TheoremViolationError, match="Galois norm"):
            a.inverse()

    # Every prime up to 31, plus 53 and 101.  The linear reference costs
    # about 9.5 s for 150-bit operands at p = 101, so that case is left out.
    @pytest.mark.parametrize("p, bits", [
        (p, bits) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 53)
        for bits in (4, 150)
    ] + [(101, 4)])
    def test_matches_linear_conjugate_product(self, p, bits):
        # The reference multiplies galois(2), ..., galois(p - 1) one after
        # another and divides by the norm.
        rng = random.Random(p * 1000 + bits)
        modulus = PrimeModulus(p)
        a = CycloNum(modulus, [Fraction(rng.randint(-2**bits, 2**bits), rng.randint(2, 9))
                               for _ in range(p - 1)])
        rest = CycloNum.one(modulus)
        for k in range(2, p):
            rest = rest * a.galois(k)
        norm = a * rest
        assert norm.is_rational() and not norm.is_zero()
        assert a.inverse() == rest / norm.coeffs[0]

    def test_generator_has_full_order(self):
        for p in (n for n in range(2, 1000) if is_prime(n)):
            g = _primitive_root(p)
            powers = {pow(g, k, p) for k in range(1, p)}
            assert len(powers) == p - 1
            # No smaller unit generates the group.
            for h in range(1, g):
                assert len({pow(h, k, p) for k in range(1, p)}) < p - 1

    @pytest.mark.parametrize("p", [31, 101])
    def test_dense_inverse_with_wide_coefficients(self, p):
        # Every coefficient nonzero and at least 30 bits wide, over a common
        # denominator, so the norm's numerator runs to thousands of bits.
        rng = random.Random(p)
        modulus = PrimeModulus(p)
        coeffs = [Fraction(rng.choice((-1, 1)) * rng.randint(1 << 30, 1 << 31), 7)
                  for _ in range(p - 1)]
        a = CycloNum(modulus, coeffs)
        inv = a.inverse()
        assert a * inv == 1
        assert abs(a.embed() * inv.embed() - 1) < 1e-9


class TestGalois:
    def test_identity_and_root_powers(self):
        rng = random.Random(12)
        for p in (3, 5, 7):
            modulus = PrimeModulus(p)
            a = random_cyclo(rng, modulus, den_max=4)
            assert a.galois(1) == a
            assert a.galois(p + 1) == a
            for k in range(1, p):
                assert CycloNum.root_power(modulus, 1).galois(k) == CycloNum.root_power(modulus, k)

    def test_minus_one_is_conjugation(self):
        rng = random.Random(13)
        for p in (3, 5, 11):
            modulus = PrimeModulus(p)
            for _ in range(5):
                a = random_cyclo(rng, modulus, den_max=3)
                assert a.galois(-1) == a.conj()
                assert a.galois(p - 1) == a.conj()

    def test_ring_homomorphism(self):
        rng = random.Random(14)
        p7 = PrimeModulus(7)
        for k in range(1, 7):
            a = random_cyclo(rng, p7, den_max=3)
            b = random_cyclo(rng, p7, den_max=3)
            assert (a + b).galois(k) == a.galois(k) + b.galois(k)
            assert (a * b).galois(k) == a.galois(k) * b.galois(k)

    def test_norm_is_rational(self):
        rng = random.Random(15)
        for p in (3, 5, 7, 13):
            modulus = PrimeModulus(p)
            a = random_cyclo(rng, modulus, den_max=5)
            if a.is_zero():
                a = a + 1
            norm = CycloNum.one(modulus)
            for k in range(1, p):
                norm = norm * a.galois(k)
            assert norm.is_rational() and not norm.is_zero()
            # The embeddings of the conjugates multiply to the same number.
            product = 1
            for k in range(1, p):
                product *= a.galois(k).embed()
            assert abs(product - float(norm.coeffs[0])) < 1e-6 * max(1.0, abs(product))

    def test_multiple_of_p_rejected(self):
        a = CycloNum.root_power(PrimeModulus(5), 1)
        for k in (0, 5, -10):
            with pytest.raises(ValueError):
                a.galois(k)

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 13, 31])
    def test_matches_the_defining_permutation(self, p):
        # sigma_k sends w^i to w^(i*k mod p): move each redundant coefficient
        # and fold, for every unit k, negative k and k >= p, on dense
        # values with rational coefficients and on root powers.
        rng = random.Random(700 + p)
        modulus = PrimeModulus(p)
        values = [CycloNum(modulus, [Fraction(rng.randint(-2**60, 2**60), rng.randint(1, 9))
                                     for _ in range(p - 1)]) for _ in range(3)]
        values += [CycloNum.root_power(modulus, i) for i in range(p)]
        values.append(CycloNum.zero(modulus))
        for a in values:
            for k in [*range(1, p), -1, -p - 2, p + 1, 3 * p - 1]:
                if k % p == 0:
                    continue
                acc = [Fraction(0)] * p
                for i, c in enumerate(a.coeffs):
                    acc[i * k % p] = c
                assert a.galois(k) == CycloNum(modulus, [c - acc[-1] for c in acc[:-1]]), k
            with pytest.raises(ValueError):
                a.galois(0)

    @pytest.mark.parametrize("p", [3, 5, 7, 13, 31])
    def test_inverse_of_dense_60_bit_values(self, p):
        rng = random.Random(800 + p)
        modulus = PrimeModulus(p)
        for _ in range(3):
            a = CycloNum(modulus, [Fraction(rng.choice((-1, 1)) * rng.randint(1, 2**60),
                                            rng.randint(1, 2**20)) for _ in range(p - 1)])
            assert a * a.inverse() == 1
            assert a.inverse() * a == CycloNum.one(modulus)

class TestConjugation:
    def test_conj_of_w(self):
        for p in (3, 5, 7):
            modulus = PrimeModulus(p)
            w = CycloNum.root_power(modulus, 1)
            assert w.conj() == CycloNum.root_power(modulus, p - 1)

    def test_rationals_fixed(self):
        p5 = PrimeModulus(5)
        r = CycloNum.from_rational(p5, Fraction(7, 3))
        assert r.conj() == r

    def test_involution(self):
        rng = random.Random(9)
        for p in (3, 5, 11):
            modulus = PrimeModulus(p)
            for _ in range(10):
                a = random_cyclo(rng, modulus, den_max=3)
                assert a.conj().conj() == a

    def test_ring_homomorphism(self):
        rng = random.Random(10)
        p7 = PrimeModulus(7)
        for _ in range(15):
            a = random_cyclo(rng, p7)
            b = random_cyclo(rng, p7)
            assert (a * b).conj() == a.conj() * b.conj()
            assert (a + b).conj() == a.conj() + b.conj()

    def test_conj_matches_complex_conjugate(self):
        rng = random.Random(11)
        p13 = PrimeModulus(13)
        a = random_cyclo(rng, p13)
        assert abs(a.conj().embed() - a.embed().conjugate()) < 1e-12


class TestEmbedding:
    def test_power_sum_is_minus_top_power(self):
        # 1 + w + ... + w^(p-2) = -w^(p-1), numerically at p=7.
        p7 = PrimeModulus(7)
        total = CycloNum.zero(p7)
        for k in range(6):
            total = total + CycloNum.root_power(p7, k)
        assert abs(total.embed() - (-cmath.exp(-2j * cmath.pi / 7))) < 1e-12

    def test_multiplicative_up_to_tolerance(self):
        # 1e-9 relative: the embedded products reach ~1e7 in magnitude, where
        # doubles cannot do better than ~1e-9 absolute.
        rng = random.Random(12)
        for p in (3, 7, 13, 31, 97):
            modulus = PrimeModulus(p)
            for _ in range(5):
                a = random_cyclo(rng, modulus, -1000, 1000)
                b = random_cyclo(rng, modulus, -1000, 1000)
                expected = a.embed() * b.embed()
                err = abs((a * b).embed() - expected)
                assert err < 1e-9 * max(1.0, abs(expected))

    def test_multiplicative_absolute_for_small_inputs(self):
        rng = random.Random(14)
        for p in (3, 7, 13):
            modulus = PrimeModulus(p)
            for _ in range(10):
                a = random_cyclo(rng, modulus, -9, 9)
                b = random_cyclo(rng, modulus, -9, 9)
                assert abs((a * b).embed() - a.embed() * b.embed()) < 1e-9

    def test_additive(self):
        rng = random.Random(13)
        p11 = PrimeModulus(11)
        a = random_cyclo(rng, p11)
        b = random_cyclo(rng, p11)
        assert abs((a + b).embed() - (a.embed() + b.embed())) < 1e-12


class TestTextForm:
    def test_canonical_layout(self):
        p5 = PrimeModulus(5)
        a = CycloNum(p5, [Fraction(-2, 3), 1, 0, Fraction(5)])
        assert str(a) == "-2/3 + 1*w + 0*w^2 + 5*w^3"

    def test_p2_scalar(self):
        assert str(CycloNum.from_rational(PrimeModulus(2), Fraction(1, 2))) == "1/2"


def check_packed_convolution(p, ha, hb, nbytes):
    # Operands of length p - 1 whose largest |coefficient| is ha and hb.
    assert _digit_bytes(2 * (p - 1) * ha * hb) == nbytes
    rng = random.Random(21 + nbytes)

    def vector(top):
        return (top,) + tuple(rng.choice((top, -top, rng.randint(-top, top)))
                              for _ in range(p - 2))

    cases = [((ha,) * (p - 1), (hb,) * (p - 1)),
             ((-ha,) * (p - 1), (hb,) * (p - 1)),
             ((-ha,) * (p - 1), (-hb,) * (p - 1))]
    cases += [(vector(ha), vector(hb)) for _ in range(8)]
    for a, b in cases:
        acc = [0] * p
        for i, ca in enumerate(a):
            for j, cb in enumerate(b):
                acc[(i + j) % p] += ca * cb
        # No digit is biased, so the packed result is the product itself.
        assert _packed_convolution(a, b, p) == tuple(acc)


class TestPackedConvolution:
    # (p, largest |coefficient| of both operands, digit width in bytes that
    # the signed product needs).  A folded digit sums at most p - 1
    # products, and constant operands reach (p - 1) top^2 in magnitude,
    # which must stay below half a digit: the width holds 2 (p - 1) top^2.
    # At p = 31 that is 60 top^2, and a pair of rows sits on either side of
    # every byte boundary: 2 | 3 at 1 byte, 33 | 34 at 2, 528 | 529 at 3,
    # and so on to 554477893 | 554477894 at 8; 11 | 12 at p = 2 and 5 | 6
    # at p = 5 are boundaries too.  The rows between them lie inside a width.
    @pytest.mark.parametrize("p, top, nbytes", [
        (2, 11, 1),
        (2, 12, 2),
        (5, 3, 1),
        (5, 4, 1),
        (5, 5, 1),
        (5, 6, 2),
        (13, 50, 2),
        (31, 2, 1),
        (31, 3, 2),
        (31, 33, 2),
        (31, 34, 3),
        (31, 367, 3),
        (31, 368, 3),
        (31, 500, 3),
        (31, 528, 3),
        (31, 529, 4),
        (31, 5885, 4),
        (31, 5886, 4),
        (31, 8000, 4),
        (31, 8460, 4),
        (31, 8461, 5),
        (31, 94164, 5),
        (31, 94165, 5),
        (31, 135370, 5),
        (31, 135371, 6),
        (31, 1506638, 6),
        (31, 1506639, 6),
        (31, 2165929, 6),
        (31, 2165930, 7),
        (31, 24106215, 7),
        (31, 24106216, 7),
        (31, 34654868, 7),
        (31, 34654869, 8),
        (31, 385699449, 8),
        (31, 385699450, 8),
        (31, 2**29, 8),
        (31, 554477893, 8),
        (31, 554477894, 9),
        (3, 2**31, 9),
        (13, 2**100, 26),
    ])
    def test_matches_schoolbook(self, p, top, nbytes):
        check_packed_convolution(p, top, top, nbytes)

    @pytest.mark.parametrize("p, ha, hb, nbytes", [
        (7, 3 * 2**60, 3, 9),
        (13, 2**70, 2**10, 11),
    ])
    def test_operands_of_different_magnitude(self, p, ha, hb, nbytes):
        check_packed_convolution(p, ha, hb, nbytes)
        check_packed_convolution(p, hb, ha, nbytes)

    def test_dense_path_agrees_with_sparse(self):
        rng = random.Random(22)
        p31 = PrimeModulus(31)
        a = random_cyclo(rng, p31, -50, 50)
        b = random_cyclo(rng, p31, -50, 50)
        dense = a * b  # triggers the packed path at this density
        acc = [0] * 31
        for i, ca in enumerate(a._num):
            for j, cb in enumerate(b._num):
                acc[(i + j) % 31] += ca * cb
        sparse = CycloNum._from_redundant(p31, acc, a._den * b._den)
        assert dense == sparse


ITEM_CODES = {1: "b", 2: "h", 4: "i", 8: "q"}


def item_string(values, item):
    """values as little-endian two's complement items of item bytes."""
    return struct.pack(f"<{len(values)}{ITEM_CODES[item]}", *values)


def scan_and_array_rows(rows, room=0, signed=False):
    """_packed_rows as it was before struct: the bias from a scan of every
    row, and all numerators as one array of the next item size, trimmed to
    nbytes by one strided deletion per byte, or digit by digit above 8."""
    bias = max([max(max(num), -min(num)) * m for _, num, m in rows], default=0)
    top = 2 * bias * len(rows)
    nbytes = _digit_bytes(2 * top if signed else top + room)
    if not rows:
        return top, nbytes, []
    count = len(rows[0][1])
    flat = list(itertools.chain.from_iterable([num for _, num, _ in rows]))
    if nbytes > 8:
        raw = b"".join([c.to_bytes(nbytes, "little", signed=True) for c in flat])
    else:
        item = min(k for k in (1, 2, 4, 8) if k >= nbytes)
        items = array(ITEM_CODES[item], flat)
        if sys.byteorder == "big":
            items.byteswap()
        raw = bytearray(items.tobytes())
        for k in range(item, nbytes, -1):
            del raw[k - 1::k]
    half = _ones(count, nbytes) << (8 * nbytes - 1)
    lift = bias * _ones(count + 1, nbytes)
    size = count * nbytes
    packed = []
    for k, (e, _, m) in enumerate(rows):
        x = int.from_bytes(raw[k * size:k * size + size], "little")
        packed.append((e, ((x ^ half) - half) * m + lift))
    return top, nbytes, packed


class TestCodec:
    # Widths 1, 2, 4 and 8 are struct item sizes; 3, 5, 6 and 7 convert
    # through the next item size; 9 and 16 convert digit by digit.
    @pytest.mark.parametrize("nbytes", [1, 2, 3, 4, 5, 6, 7, 8, 9, 16])
    def test_round_trip(self, nbytes):
        # Two's complement digit strings from the most negative digit to the
        # largest: each is its digits' bytes, and widened by _resize (sign
        # fill) to 1, 2, 3 and 8 bytes more, then trimmed back, it is the
        # string of the same digits at each width and then itself again.
        rng = random.Random(nbytes)
        low, high = -2 ** (8 * nbytes - 1), 2 ** (8 * nbytes - 1) - 1
        for count in (0, 1, 2, 7, 40):
            digits = [rng.choice((0, -1, low, high, rng.randint(low, high)))
                      for _ in range(count)]
            raw = _digit_string(digits, nbytes)
            assert bytes(raw) == b"".join(d.to_bytes(nbytes, "little", signed=True)
                                          for d in digits)
            for wide in (nbytes + 1, nbytes + 2, nbytes + 3, nbytes + 8):
                widened = _resize(raw, nbytes, wide)
                assert bytes(widened) == bytes(_digit_string(digits, wide))
                assert bytes(_resize(widened, wide, nbytes)) == bytes(raw)

    # Signed digits, two's complement: widths 1, 2, 4 and 8 are item sizes,
    # 3, 5, 6 and 7 sign-fill the bytes up to the next one, and 9 converts
    # digit by digit.
    @pytest.mark.parametrize("nbytes", range(1, 10))
    def test_signed_round_trip(self, nbytes):
        rng = random.Random(100 + nbytes)
        top = 2 ** (8 * nbytes - 1) - 1
        for count in (1, 2, 7, 40):
            digits = [rng.choice((top, -top, 0, rng.randint(-top, top))) for _ in range(count)]
            digits[0], digits[-1] = -top, top
            lanes = int.from_bytes(_digit_string(digits, nbytes), "little")
            value = sum(d << (8 * nbytes * i) for i, d in enumerate(digits))
            half = _ones(count, nbytes) << (8 * nbytes - 1)
            assert (lanes ^ half) - half == value
            assert (value + half) ^ half == lanes
            assert list(_signed_rows([value], count, nbytes)) == [tuple(digits)]

    @pytest.mark.parametrize("nbytes", range(1, 10))
    def test_packed_rows_at_the_signed_extremes(self, nbytes):
        # Numerators at +-(2^(8n-1) - 1), the widest that n signed bytes hold:
        # one row alone is biased into unsigned digits of exactly n bytes, and
        # beside a row scaled by m = 3 every c * m is biased by 3 * top.
        rng = random.Random(nbytes)
        top = 2 ** (8 * nbytes - 1) - 1
        nums = [(top, -top) + tuple(rng.choice((top, -top, 0, rng.randint(-top, top)))
                                    for _ in range(10)) for _ in range(2)]
        assert _packed_rows([(3, nums[0], 1)]) == (
            2 * top, nbytes, [(3, pack([c + top for c in nums[0]] + [top], nbytes))])
        rows = [(3, nums[0], 1), (5, nums[1], 3)]
        bias = 3 * top
        sum_top, width, packed = _packed_rows(rows, signed=True)
        assert (sum_top, width) == (4 * bias, _digit_bytes(8 * bias))
        assert packed == [(e, pack([c * m + bias for c in num] + [bias], width))
                          for e, num, m in rows]

    @pytest.mark.parametrize("item", [2, 4, 8])
    def test_field_max_is_the_largest_magnitude(self, item):
        # Random and adversarial strings of two's complement items: the most
        # negative item, whose magnitude needs the top bit; a largest
        # magnitude only on a negative item, one more than every positive
        # one; the largest item alone at the top, where odd counts leave a
        # field over; one field, odd counts and all zeros; and counts
        # around the chunk size, so that a shorter last chunk is merged.
        rng = random.Random(item)
        low, high = -2 ** (8 * item - 1), 2 ** (8 * item - 1) - 1
        chunk = cyclotomic._FOLD_CHUNK // item
        for count in (1, 2, 3, 5, 7, 8, 63, 97, chunk - 1, chunk, chunk + 1, 2 * chunk + 3):
            big = rng.randint(2, high)
            small = [rng.randint(-9, 9) for _ in range(count)]
            cases = [
                [0] * count,
                [low] + [0] * (count - 1),
                [0] * (count - 1) + [low],
                [high] * count,
                [rng.randint(low, high) for _ in range(count)],
                [rng.randint(-big, big) for _ in range(count)],
                small,
                small[:-1] + [big],
                small[:-1] + [-big],
                [rng.choice((big - 1, 1 - big)) for _ in range(count - 1)] + [-big],
                [-big] + [big - 1] * (count - 1),
            ]
            for values in cases:
                raw = item_string(values, item)
                assert _field_max(raw, item) == max(map(abs, values)), (count, values[:4])

    def test_row_bias_scales_each_m(self):
        # Rows with different m fold per m: the bias is max |c| * m, which
        # may come from a row with a smaller |c| and a larger m.
        rng = random.Random(35)
        for item, bound in ((2, 2**15), (4, 2**31), (8, 2**63)):
            for ms in ((1, 5), (3, 1, 2), (7,), (2, 2, 9)):
                rows = [(e, tuple(rng.randint(-bound, bound - 1) for _ in range(12)),
                         ms[e % len(ms)]) for e in range(200)]
                rows[-1] = (199, (-bound,) + rows[-1][1][1:], rows[-1][2])
                raw, got_item = _row_string(rows)
                assert got_item == item
                assert _row_bias(rows, raw, item) == max(max(map(abs, num)) * m
                                                         for _, num, m in rows)

    def test_packed_rows_match_the_scan_and_array_reference(self):
        # Numerators up to 2^bits across every item size and above 8 bytes,
        # with the most negative value of each size, from one row to enough
        # for the field max at 8 bytes, with one m or several, room and
        # signed: every (top, nbytes, packed) must be the reference's, and
        # nbytes must take every width from 1 to 9.
        rng = random.Random(34)
        widths = set()
        for bits in (3, 6, 7, 14, 15, 16, 22, 30, 31, 32, 46, 62, 63, 64, 70):
            bound = 2 ** bits
            for nrows in (1, 3, 40, 200):
                for ms in ((1,), (1, 2, 3, 6)):
                    picks = (bound - 1, -bound, 0)
                    rows = [(e, tuple(rng.choice(picks + (rng.randint(-bound, bound - 1),
                                                          rng.randint(-9, 9)))
                                      for _ in range(12)), ms[e % len(ms)])
                            for e in range(nrows)]
                    for room in (0, 5, 2**20):
                        for signed in (False, True):
                            got = _packed_rows(rows, room, signed)
                            want = scan_and_array_rows(rows, room, signed)
                            assert got == want, (bits, nrows, ms, room, signed)
                            widths.add(got[1])
        assert widths >= set(range(1, 10))

    # Widths 1, 2, 4 and 8 are item sizes, 3, 5, 6 and 7 sign-fill the bytes
    # up to the next one, and 9 converts digit by digit.
    @pytest.mark.parametrize("nbytes", range(1, 10))
    def test_decode_folded_matches_per_value_reference(self, nbytes):
        # Each sum is a redundant vector of p unsigned digits, reduced mod
        # Phi_p(2^(8n)) by folding its top digit (_fold_residues), so its
        # folded digits reach +-(2^(8n-1) - 1), the bound of the spare bit.
        # Vectors whose digits are all congruent mod f fold to multiples of
        # f, and with gcd(f, den) > 1 the value is divided on its packed
        # integer and unpacked again; a zero vector reduces to den 1.  All
        # sums of a call decode in one pass, and each must equal the
        # per-value unpack and fold, in lowest terms.
        rng = random.Random(700 + nbytes)
        limit = 2 ** (8 * nbytes - 1) - 1
        for p, den in ((2, 1), (2, 6), (7, 1), (7, 12), (13, 30)):
            modulus = PrimeModulus(p)
            vectors = [[0] * p, [limit] * p, [limit] * (p - 1) + [0],
                       [0] * (p - 1) + [limit], [0] + [limit] * (p - 1)]
            for f in (1, 2, 3, 5, 6, 9, 10):
                base = rng.randrange(f)
                vectors += [[base + f * rng.choice((0, (limit - base) // f,
                                                    rng.randint(0, (limit - base) // f)))
                             for _ in range(p)] for _ in range(3)]
            rng.shuffle(vectors)
            sums = [pack(vector, nbytes) for vector in vectors]
            expected = [CycloNum._from_redundant(modulus, vector, den) for vector in vectors]
            got = _decode_signed(modulus, _fold_residues(sums, p, nbytes), nbytes, den)
            assert got == expected
            assert all(type(v._num) is tuple and math.gcd(v._den, *v._num) == 1 for v in got)
            if den > 1:
                assert any(v._den < den for v in expected)

    @staticmethod
    def spied_residues(monkeypatch):
        # Every call of _balanced_residue, i.e. every fold that takes % Phi.
        calls = []
        balanced = cyclotomic._balanced_residue
        monkeypatch.setattr(cyclotomic, "_balanced_residue",
                            lambda value, n: calls.append(n) or balanced(value, n))
        return calls

    @pytest.mark.parametrize("nbytes", range(1, 10))
    def test_fold_residues_of_sums_that_fit(self, nbytes, monkeypatch):
        # Packed vectors of p digits in [0, 2^(8n-1) - 1], none carried, fold
        # to digits d_i - d_top that reach +-(2^(8n-1) - 1): the fold alone,
        # with no % Phi, must be the balanced residue mod
        # Phi_p(B) = (B^p - 1) / (B - 1), and its signed digits those
        # differences.
        rng = random.Random(1300 + nbytes)
        base = 256 ** nbytes
        limit = base // 2 - 1
        for p in (2, 3, 7, 13):
            phi = (base ** p - 1) // (base - 1)
            vectors = [[0] * p, [limit] * p, [limit] + [0] * (p - 1), [0] * (p - 1) + [limit],
                       [0] + [limit] * (p - 1), [limit] * (p - 1) + [0]]
            vectors += [[rng.choice((0, limit, rng.randint(0, limit))) for _ in range(p)]
                        for _ in range(20)]
            sums = [pack(vector, nbytes) for vector in vectors]
            expected = [_balanced_residue(total, phi) for total in sums]
            calls = self.spied_residues(monkeypatch)
            got = _fold_residues(sums, p, nbytes)
            assert calls == []
            assert got == expected
            assert got == [sum((d - v[-1]) * base ** i for i, d in enumerate(v[:-1]))
                           for v in vectors]
            monkeypatch.undo()

    @pytest.mark.parametrize("nbytes", range(1, 10))
    def test_fold_residues_of_carried_sums(self, nbytes, monkeypatch):
        # Several full-width terms at one exponent, as a convolve's inverse
        # sums have, carry past their digits: _shifted_sums keeps each sum
        # congruent mod B^p - 1, and the fold of every sum must equal its
        # balanced residue mod Phi_p(B).  k copies of a top digit B - 1 at
        # exponent 0, which never turns, leave a top digit B - k, whose fold
        # lies outside (-Phi/2, Phi/2): every such sum must take % Phi.
        rng = random.Random(1400 + nbytes)
        base = 256 ** nbytes
        for p in (2, 3, 7, 13, 47):
            phi = (base ** p - 1) // (base - 1)
            multipliers = [0, 1, -1, 2, p, p + 3]
            for k in (2, 3, 5):
                tops = [(0, pack([0] * (p - 1) + [base - 1], nbytes))] * k
                full = [(1, pack([rng.randint(base // 2, base - 1) for _ in range(p)], nbytes))
                        for _ in range(k)]
                for terms in (tops, full):
                    sums = cyclotomic._shifted_sums(p, terms, multipliers, 8 * nbytes)
                    calls = self.spied_residues(monkeypatch)
                    assert _fold_residues(sums, p, nbytes) == [
                        _balanced_residue(total, phi) for total in sums]
                    if terms is tops:
                        assert calls == [phi] * len(sums)
                    monkeypatch.undo()

    def test_unpack_rejects_values_that_do_not_fit(self):
        # count signed digits of nbytes bytes hold the values from -H (every
        # digit -2^(8n-1)) to H - J (every digit 2^(8n-1) - 1): _signed_rows
        # unpacks both ends and raises OverflowError one past either.
        for count, nbytes in ((3, 1), (3, 2), (5, 3), (2, 9)):
            half = _ones(count, nbytes) << (8 * nbytes - 1)
            top = half - _ones(count, nbytes)
            assert [tuple(row) for row in _signed_rows([-half, top], count, nbytes)] == [
                (-2 ** (8 * nbytes - 1),) * count, (2 ** (8 * nbytes - 1) - 1,) * count]
            for value in (-half - 1, top + 1, 256 ** (count * nbytes)):
                with pytest.raises(OverflowError):
                    _signed_rows([value], count, nbytes)

    def test_digit_bytes(self):
        # The bytes the largest digit needs, with no rounding to an item size.
        tops = [0, 1, 255, 256, 2**16 - 1, 2**16, 2**24 - 1, 2**24, 2**32 - 1, 2**32,
                2**40, 2**48, 2**56 - 1, 2**56, 2**64 - 1, 2**64, 2**128 - 1]
        assert [_digit_bytes(t) for t in tops] == [
            1, 1, 1, 2, 2, 3, 3, 4, 4, 5, 6, 7, 7, 8, 8, 9, 16]


class TestShiftedSums:
    # The three paths of _shifted_sums: fewer than p / 4 terms shift one by
    # one, more merge into slots turned by one shift each below
    # _TWO_STEP_PRIME = 47, and by a baby and a giant step from there on.
    # The term counts lie on either side of p / 4.  Exponents repeat mod p,
    # so terms share slots, and 0 and p never shift; multipliers include 0,
    # negatives and values of p and above.
    PATHS = [(13, 3, "terms"), (13, 13, "slots"), (43, 10, "terms"), (43, 43, "slots"),
             (47, 11, "terms"), (47, 47, "two steps"), (97, 24, "terms"), (97, 97, "two steps")]

    @staticmethod
    def spied_path(monkeypatch):
        calls = []
        for name in ("_log_order", "_two_step_sums"):
            spied = getattr(cyclotomic, name)
            monkeypatch.setattr(cyclotomic, name, lambda *args, name=name, spied=spied:
                                calls.append(name) or spied(*args))
        return lambda: ("two steps" if "_two_step_sums" in calls
                        else "slots" if "_log_order" in calls else "terms")

    @staticmethod
    def terms(rng, p, count, top, width):
        exponents = [0, p] + [rng.randrange(-p, 2 * p) for _ in range(count - 2)]
        vectors = [[rng.choice((0, top, rng.randint(0, top))) for _ in range(p)]
                   for _ in exponents]
        return [(e, sum(d << width * i for i, d in enumerate(v)))
                for e, v in zip(exponents, vectors)]

    @pytest.mark.parametrize("p, count, path", PATHS)
    def test_carried_digits_are_congruent_to_the_term_sum(self, p, count, path, monkeypatch):
        # Digits up to 2^(width + 9) carry into their neighbours, and the
        # top digit past p digits, so terms and slots exceed 2^(p*width):
        # each sum must be congruent mod 2^(p*width) - 1 to the sum of the
        # terms shifted left by (e * t mod p) digits.
        rng = random.Random(900 + p + count)
        path_of = self.spied_path(monkeypatch)
        width = 16
        ring = (1 << p * width) - 1
        terms = self.terms(rng, p, count, 2 ** (width + 9) - 1, width)
        assert max(packed for _, packed in terms) > ring
        multipliers = [0, 1, -1, 2, p, p + 3, -2 * p - 1, rng.randrange(p)]
        sums = cyclotomic._shifted_sums(p, terms, multipliers, width)
        assert path_of() == path
        assert len(sums) == len(multipliers)
        for t, total in zip(multipliers, sums):
            reference = sum(packed << width * (e * t % p) for e, packed in terms)
            assert total >= 0 and (total - reference) % ring == 0, t

    @pytest.mark.parametrize("p, count, path", PATHS)
    def test_fitting_digits_give_the_packed_vector(self, p, count, path, monkeypatch):
        # Digits up to (2^width - 1) / count never carry, and all terms at
        # one exponent with every digit at that cap reach it: each sum must
        # be exactly the packed cyclic digit sums.
        rng = random.Random(950 + p + count)
        path_of = self.spied_path(monkeypatch)
        for nbytes in (1, 3):
            width = 8 * nbytes
            cap = (2 ** width - 1) // count
            cases = [self.terms(rng, p, count, cap, width),
                     [(5, pack([cap] * p, nbytes))] * count]
            for terms in cases:
                multipliers = [0, 1, -1, 3, p, p + 1]
                sums = cyclotomic._shifted_sums(p, terms, multipliers, width)
                assert path_of() == path
                for t, total in zip(multipliers, sums):
                    acc = [0] * p
                    for e, packed in terms:
                        for i, d in enumerate(unpack(packed, p, nbytes)):
                            acc[(i + e * t) % p] += d
                    assert max(acc) < 2 ** width
                    assert total == pack(acc, nbytes), t
