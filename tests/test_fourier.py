import itertools
import math
import random
from fractions import Fraction

import pytest

from primefourier import (
    CycloNum,
    FourierMinor,
    PrimeModulus,
    SignalFn,
    SupportSet,
    TheoremViolationError,
    convolve,
    dft,
    fourier_support,
    idft,
    minor_cramer,
    minor_det,
    minor_nonsingular,
    minor_solve,
    support,
)
from primefourier import cyclotomic, fourier, uncertainty
from primefourier.cyclotomic import ResidueRing, character_sums, image_prime, vanishing_sums

from conftest import float_dft, random_cyclo, random_dense_signal, random_int_signal


def direct_character_sums(modulus, values, exponents, multipliers, den_factor):
    """Reference for character_sums: exact sums on the redundant basis.

    The rational coefficients go over their lcm once, so each sum is a loop
    of integer additions over every coefficient of every value.
    """
    p = modulus.p
    coeffs = [v.coeffs for v in values]
    den = math.lcm(*(c.denominator for row in coeffs for c in row))
    rows = [[c.numerator * (den // c.denominator) for c in row] for row in coeffs]
    out = []
    for t in multipliers:
        acc = [0] * p
        for row, e in zip(rows, exponents):
            s = e * t % p
            for i, c in enumerate(row):
                acc[(i + s) % p] += c
        out.append(CycloNum(modulus, [Fraction(c - acc[-1], den * den_factor)
                                      for c in acc[:-1]]))
    return out


class TestSupportSet:
    def test_sorted_and_deduped(self):
        p7 = PrimeModulus(7)
        s = SupportSet(p7, [5, 1, 5, 3])
        assert s.members == (1, 3, 5)
        assert len(s) == 3
        assert 3 in s and 2 not in s

    def test_range_validated(self):
        with pytest.raises(ValueError):
            SupportSet(PrimeModulus(5), [5])
        with pytest.raises(ValueError):
            SupportSet(PrimeModulus(5), [-1])

    def test_complement_and_intersection(self):
        p5 = PrimeModulus(5)
        s = SupportSet(p5, [0, 2])
        assert s.complement().members == (1, 3, 4)
        assert s.intersection(SupportSet(p5, [2, 3])).members == (2,)
        assert s.union(SupportSet(p5, [1])).members == (0, 1, 2)

    def test_translate_wraps(self):
        p5 = PrimeModulus(5)
        assert SupportSet(p5, [3, 4]).translate(2).members == (0, 1)


class TestSignalFn:
    def test_length_validated(self):
        with pytest.raises(ValueError):
            SignalFn(PrimeModulus(5), [1, 2, 3])

    def test_value_modulus_checked(self):
        with pytest.raises(ValueError):
            SignalFn(PrimeModulus(5), [CycloNum.one(PrimeModulus(3))] * 5)

    def test_coercion_and_indexing(self):
        p3 = PrimeModulus(3)
        f = SignalFn(p3, [1, Fraction(1, 2), 0])
        assert f[1] == Fraction(1, 2)
        assert f[4] == f[1]


class TestDft:
    def test_dirac_transforms_to_constant(self):
        p5 = PrimeModulus(5)
        F = dft(SignalFn.dirac(p5, 0))
        assert all(v == Fraction(1, 5) for v in F.values)

    def test_constant_transforms_to_dirac(self):
        p5 = PrimeModulus(5)
        F = dft(SignalFn.constant(p5, 1))
        assert F == SignalFn.dirac(p5, 0, 1)

    def test_frozen_example_p3(self):
        # fhat(1) = (1 + 2w^2 + 3w)/3 = (-1+w)/3, fhat(2) = (1 + 2w + 3w^2)/3
        # = (-2-w)/3 after reducing w^2 = -1 - w.
        p3 = PrimeModulus(3)
        F = dft(SignalFn(p3, [1, 2, 3]))
        assert F[0] == 2
        assert F[1].coeffs == (Fraction(-1, 3), Fraction(1, 3))
        assert F[2].coeffs == (Fraction(-2, 3), Fraction(-1, 3))
        oracle = float_dft([1, 2, 3], 3)
        for xi in range(3):
            assert abs(F[xi].embed() - oracle[xi]) < 1e-12

    def test_against_float_oracle(self):
        rng = random.Random(202)
        for p in (3, 5, 7, 11, 13):
            modulus = PrimeModulus(p)
            f = random_int_signal(rng, modulus, -50, 50)
            F = dft(f)
            oracle = float_dft(f.embed(), p)
            for xi in range(p):
                assert abs(F[xi].embed() - oracle[xi]) < 1e-10

    @pytest.mark.parametrize("p", [2, 3, 7, 31, 61, 97, 101])
    def test_dense_cyclotomic_signal_against_float_oracle(self, p):
        # Q(w)-valued input: 30-bit numerators over mixed denominators.  The
        # float error scales with the l1 size of the coefficients.
        modulus = PrimeModulus(p)
        f = random_dense_signal(random.Random(205 + p), modulus)
        magnitude = sum(abs(float(c)) for v in f.values for c in v.coeffs)
        F = dft(f)
        oracle = float_dft(f.embed(), p)
        for xi in range(p):
            assert abs(F[xi].embed() - oracle[xi]) <= 1e-12 * magnitude
        back = idft(F)
        assert back == f

    def test_cyclotomic_valued_signal(self):
        # The transform is defined for arbitrary Q(w)-valued signals too.
        rng = random.Random(203)
        p5 = PrimeModulus(5)
        f = SignalFn(p5, [random_cyclo(rng, p5, den_max=3) for _ in range(5)])
        assert idft(dft(f)) == f


class TestCharacterSums:
    # Numerators up to top over denominators up to 9, with one zero value:
    # packed digits of 2, 4, 4, 8 and 14 bytes.
    @pytest.mark.parametrize("top", [5, 1000, 10**6, 10**12, 2**100])
    def test_matches_direct_sum(self, top):
        rng = random.Random(top)
        p7 = PrimeModulus(7)
        values = [CycloNum(p7, [Fraction(rng.choice((top, -top, rng.randint(-top, top))),
                                         rng.choice((1, 2, 5, 9))) for _ in range(6)])
                  for _ in range(6)]
        values.append(CycloNum.zero(p7))
        rng.shuffle(values)
        exponents = [rng.randrange(7) for _ in values]
        for multipliers, den_factor in ((range(7), 1), ([6, 0, 3, 3, 0], 7)):
            assert (character_sums(p7, values, exponents, multipliers, den_factor)
                    == direct_character_sums(p7, values, exponents, multipliers, den_factor))

    @pytest.mark.parametrize("top", [31, 32, 2**61 - 1, 2**61, 2**64])
    def test_coefficients_at_the_extremes(self, top):
        # Four equal terms with one exponent line up at t = 0: each digit
        # sum then reaches its largest value, 8 * top.
        p5 = PrimeModulus(5)
        for values in ([CycloNum(p5, [top] * 4)] * 4,
                       [CycloNum(p5, [-top] * 4)] * 4,
                       [CycloNum(p5, [top] * 4), CycloNum(p5, [-top] * 4)] * 2):
            for exponents in ([2, 2, 2, 2], [0, 1, 2, 4]):
                assert (character_sums(p5, values, exponents, range(5), 1)
                        == direct_character_sums(p5, values, exponents, range(5), 1))

    @pytest.mark.parametrize("p, nbytes", [(7, 1), (7, 2), (13, 3), (13, 4), (13, 7), (13, 8)])
    def test_folded_digits_reach_the_bound(self, p, nbytes):
        # Three values with +b at w^0 and -b at w^(p-2) and exponent 1: at
        # t = 1 every row puts +b + b into digit 1 and -b + b into digit
        # p - 1, so the folded digit 1 is top = 6b, and at t = -1 the
        # folded digit p - 3 is -top.  top needs nbytes bytes unsigned and
        # one more signed, which the decoded sums' spare bit provides.
        b = -(-2 ** (8 * nbytes - 1) // 6)
        rng = random.Random(nbytes)
        modulus = PrimeModulus(p)
        values = [CycloNum(modulus, [b] + [rng.randint(-b, b) for _ in range(p - 3)] + [-b])
                  for _ in range(3)]
        sums = character_sums(modulus, values, [1, 1, 1], [1, -1], 1)
        assert sums == direct_character_sums(modulus, values, [1, 1, 1], [1, -1], 1)
        top = 6 * b
        assert 2 ** (8 * nbytes - 1) <= top < 2 ** (8 * nbytes)
        assert sums[0]._num[1] == top and sums[1]._num[p - 3] == -top

    def test_all_zero_input(self):
        p5 = PrimeModulus(5)
        zeros = [CycloNum.zero(p5)] * 5
        assert character_sums(p5, zeros, range(5), [0, 2, 2], 5) == [CycloNum.zero(p5)] * 3

    @pytest.mark.parametrize("p", [2, 3])
    def test_smallest_primes(self, p):
        rng = random.Random(p)
        modulus = PrimeModulus(p)
        for _ in range(20):
            values = [random_cyclo(rng, modulus, -9, 9, den_max=4) for _ in range(p + 1)]
            exponents = [rng.randrange(p) for _ in values]
            multipliers = [0] + [rng.randrange(p) for _ in range(3)]
            assert (character_sums(modulus, values, exponents, multipliers, p)
                    == direct_character_sums(modulus, values, exponents, multipliers, p))

    @pytest.mark.parametrize("p", [2, 3, 7, 101])
    def test_mixed_rows(self, p):
        # Zero, rational and single-term values c * w^i are added into the
        # unpacked sum, not packed, and the digit width follows from the
        # dense rows alone: the 80-bit single terms would overflow those
        # digits inside the packed sum.  w^(p-1) is dense on the power basis
        # for p > 2 and is packed.  The second input is all single-term.
        rng = random.Random(300 + p)
        modulus = PrimeModulus(p)
        singles = [CycloNum.zero(modulus), CycloNum.from_rational(modulus, Fraction(-7, 3))]
        singles += [Fraction(rng.choice((-1, 1)) * rng.randint(1, 2**80), rng.randint(1, 9))
                    * CycloNum.root_power(modulus, rng.randrange(p - 1)) for _ in range(4)]
        dense = [CycloNum.root_power(modulus, p - 1)]
        dense += [random_cyclo(rng, modulus, den_max=5) for _ in range(2)]
        multipliers = range(p) if p < 101 else [0, 1, 2, 50, 99, 100]
        for values in (singles + dense, singles):
            values = rng.sample(values, len(values))
            exponents = [rng.randrange(p) for _ in values]
            for den_factor in (1, p):
                assert (character_sums(modulus, values, exponents, multipliers, den_factor)
                        == direct_character_sums(modulus, values, exponents, multipliers,
                                                 den_factor))

    @pytest.mark.parametrize("p", [2, 3, 5, 13, 31, 47, 59, 61, 97, 211])
    def test_both_shift_orders(self, p, monkeypatch):
        # Below p / 4 packed rows the sums shift row by row; from there on
        # they run in discrete-log order, which calls _log_order, and from
        # p = _TWO_STEP_PRIME = 47 on each slot turns in a baby and a giant
        # step, which calls _two_step_layout.  At p = 97 the last giant step
        # has one column, and p = 211 has 27 giant steps.  The row counts
        # lie just either side of p / 4 and reach p and above.  Exponents 0
        # and p share slot 0, which never shifts, and 2, 2 + p and 2 - p
        # share one slot; the rest fill a new slot each, so p / 4 rows leave
        # slots empty and p rows fill them all.
        # Multipliers include 0, negatives, values of p and above, and
        # repeats, and leave residues out from p = 13 on.  At p = 2 every
        # value is a single term.
        rng = random.Random(400 + p)
        modulus = PrimeModulus(p)
        calls = []
        for name in ("_log_order", "_two_step_layout"):
            spied = getattr(cyclotomic, name)
            monkeypatch.setattr(cyclotomic, name,
                                lambda q, name=name, spied=spied: calls.append(name) or spied(q))
        switch = -(-p // 4)
        residues = [x for x in range(1, p) if x != 2]
        rng.shuffle(residues)
        exponents = [0, p, 2, 2 + p, 2 - p] + [x + p * rng.randrange(-1, 2)
                                               for x in residues * 2]
        multipliers = [0, 1, 2, p - 1, -1, -2, -p, p, p + 1, 2 * p - 1, 1, 0]
        for rows in sorted({switch - 1, switch, p, p + 3}):
            values = [CycloNum(modulus, [Fraction(rng.choice((-1, 1)) * rng.randint(1, 2**40),
                                                  rng.randint(1, 6)) for _ in range(p - 1)])
                      for _ in range(rows)]
            values += [CycloNum.zero(modulus), Fraction(5, 3) * CycloNum.root_power(modulus, 1)]
            powers = exponents[:rows] + [rng.randrange(p), rng.randrange(p)]
            calls.clear()
            expected = direct_character_sums(modulus, values, powers, multipliers, 1)
            assert character_sums(modulus, values, powers, multipliers, 1) == expected
            assert (character_sums(modulus, values, powers, multipliers, p)
                    == [v / p for v in expected])
            dense = p > 2 and 4 * rows >= p
            assert ("_log_order" in calls) == dense
            assert ("_two_step_layout" in calls) == (dense and p >= cyclotomic._TWO_STEP_PRIME)

    @pytest.mark.parametrize("p", [61, 97])
    def test_sums_that_share_a_factor_with_their_denominator(self, p, monkeypatch):
        # Every sum of an idft of a dft has digits that share a factor g > 1
        # with the denominator it is decoded over: _decode_signed divides
        # those values on their reduced packed integers (_fold_residues)
        # and unpacks them again.  Each decoded value must be in lowest
        # terms and equal the per-value balanced base-2^(8n) digits of the
        # same integer over den.  Every sum of a convolve carries the known
        # factor p, which it divides out on the packed integer before its
        # one unpack: _signed_rows must unpack p values per convolve, each
        # in lowest terms and equal to sum_y f(y) g(x - y).
        rng = random.Random(800 + p)
        modulus = PrimeModulus(p)
        zero = CycloNum.zero(modulus)
        decode = cyclotomic._decode_signed
        calls = []

        def spy(modulus, values, nbytes, den):
            out = decode(modulus, values, nbytes, den)
            calls.append((values, nbytes, den, out))
            return out

        monkeypatch.setattr(cyclotomic, "_decode_signed", spy)

        def digits(value, nbytes):
            base = 256 ** nbytes
            out = []
            for _ in range(p - 1):
                d = (value + base // 2) % base - base // 2
                out.append(d)
                value = (value - d) // base
            assert value == 0
            return out

        def dense():
            den = rng.randint(2, 9)
            return SignalFn(modulus, [
                CycloNum(modulus, [Fraction(rng.randint(-999, 999), den) for _ in range(p - 1)])
                for _ in range(p)])

        f = dense()
        points = set(rng.sample(range(p), 16))
        g = SignalFn(modulus, [v if x in points else zero for x, v in enumerate(dense().values)])
        assert idft(dft(f)) == f
        assert len(calls) == 2
        for values, nbytes, den, out in calls[1:]:  # calls[0] is the dft
            expected = [CycloNum._from_redundant(modulus, digits(v, nbytes) + [0], den)
                        for v in values]
            assert out == expected
            assert all(math.gcd(v._den, *v._num) == 1 and 0 < v._den < den for v in out)
        unpacked = []
        signed_rows = cyclotomic._signed_rows
        monkeypatch.setattr(cyclotomic, "_signed_rows", lambda values, count, nbytes:
                            unpacked.append(len(values)) or signed_rows(values, count, nbytes))
        direct = [sum((f[x - y] * g[y] for y in points), zero) for x in range(p)]
        for a, b in ((f, g), (g, f)):
            unpacked.clear()
            del calls[2:]
            out = convolve(a, b).values
            assert sum(unpacked) == p
            assert len(calls) == 3 and calls[2][3] == list(out)
            assert list(out) == direct
            assert all(math.gcd(v._den, *v._num) == 1 for v in out)


class TestIdft:
    def test_round_trip_dirac(self):
        p7 = PrimeModulus(7)
        f = SignalFn.dirac(p7, 3)
        assert idft(dft(f)) == f

    def test_inverse_of_dirac_spectrum(self):
        p5 = PrimeModulus(5)
        assert idft(SignalFn.dirac(p5, 0, 1)) == SignalFn.constant(p5, 1)

    def test_round_trip_random(self):
        rng = random.Random(204)
        for p in (3, 5, 7, 11):
            modulus = PrimeModulus(p)
            for _ in range(25):
                f = random_int_signal(rng, modulus)
                assert idft(dft(f)) == f


class TestSupport:
    def test_zero_function(self):
        assert support(SignalFn.zero(PrimeModulus(5))).members == ()

    def test_dirac(self):
        assert support(SignalFn.dirac(PrimeModulus(5), 2)).members == (2,)

    def test_one_minus_power(self):
        # f(x) = 1 - w^x vanishes only at x = 0.
        p5 = PrimeModulus(5)
        f = SignalFn(p5, [1 - CycloNum.root_power(p5, x) for x in range(5)])
        assert support(f).members == (1, 2, 3, 4)


class TestVanishingSums:
    # vanishing_sums and fourier_support against the decoded sums: a kernel
    # that skipped the top digit, or dropped the single-term values, would
    # call nonzero sums zero below.
    @staticmethod
    def _agree(modulus, values, exponents, multipliers):
        decoded = character_sums(modulus, values, exponents, multipliers, 1)
        assert vanishing_sums(modulus, values, exponents, multipliers) == [
            v.is_zero() for v in decoded]

    @pytest.mark.parametrize("p", [5, 7, 13, 31, 61])
    def test_boundary_witnesses(self, p, monkeypatch):
        # |A| + |B| = p + 1: the witness is Q(w)-valued, and fhat vanishes
        # at exactly p - |B| points.  Its solve has min(|A|, |B|) - 1
        # unknowns (the smaller side), so every size runs at p = 61, whose
        # sums take two steps.
        rng = random.Random(500 + p)
        modulus = PrimeModulus(p)
        calls = []
        layout = cyclotomic._two_step_layout
        monkeypatch.setattr(cyclotomic, "_two_step_layout",
                            lambda q: calls.append(q) or layout(q))
        for a_size in (1, 2, p // 2, p - 1, p):
            a = SupportSet(modulus, rng.sample(range(p), a_size))
            b = SupportSet(modulus, rng.sample(range(p), p + 1 - a_size))
            f = uncertainty.construct_support_pair(a, b).signal
            assert fourier_support(f) == support(dft(f)) == b
            # Translated to start at 0, f keeps its spectrum's support and
            # puts a nonzero value on exponent 0, which never turns.
            assert fourier_support(f.translate(-a.members[0])) == b
            self._agree(modulus, f.values, range(p), range(-p, 2 * p))
        assert bool(calls) == (p >= cyclotomic._TWO_STEP_PRIME)

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 13])
    def test_rational_single_term_mixed_and_zero_signals(self, p):
        rng = random.Random(600 + p)
        modulus = PrimeModulus(p)
        zero = CycloNum.zero(modulus)

        def single():
            i = rng.randrange(p - 1)
            return Fraction(rng.randint(-2**70, 2**70), rng.randint(1, 9)) * CycloNum.root_power(
                modulus, i)

        signals = [
            SignalFn.zero(modulus),
            SignalFn.constant(modulus, 3),
            SignalFn.dirac(modulus, rng.randrange(p), Fraction(-5, 7)),
            SignalFn(modulus, [rng.choice((0, 1, -1, Fraction(1, 3))) for _ in range(p)]),
            SignalFn(modulus, [rng.choice((zero, single())) for _ in range(p)]),
            SignalFn(modulus, [rng.choice((zero, single(), random_cyclo(rng, modulus, den_max=5)))
                               for _ in range(p)]),
            random_dense_signal(rng, modulus, bits=60),
        ]
        # Differences of two unit-valued signals vanish on whole lines.
        signals.append(SignalFn.dirac(modulus, 1) + SignalFn.dirac(modulus, 0, -1))
        for f in signals:
            assert fourier_support(f) == support(dft(f))
            self._agree(modulus, f.values, range(p), [0, 1, p - 1, -2, p + 3])

    @pytest.mark.parametrize("p", [2, 3, 7, 13])
    def test_all_digits_equal_but_the_top(self, p):
        # c * (1 + w + ... + w^(p-2)) has redundant digits (c, ..., c, 0): it
        # is -c * w^(p-1), nonzero, and only its top digit differs.
        modulus = PrimeModulus(p)
        for c in (1, -3, 2**65):
            value = CycloNum(modulus, [c] * (p - 1))
            assert vanishing_sums(modulus, [value], [0], range(p)) == [False] * p
            # Twice over with -value it sums to a multiple of J, so zero.
            assert vanishing_sums(modulus, [value, -value, value], [1, 1, 0],
                                  [0, 1]) == [False, False]
            assert vanishing_sums(modulus, [value, -value], [1, 1], range(p)) == [True] * p

    @pytest.mark.parametrize("p", [3, 5, 13])
    def test_single_terms_complete_a_multiple_of_j(self, p):
        # (1, ..., 1) plus w^(p-2) turned once by t = 1 lands on index p - 1:
        # the sum is J, zero, at t = 1 and nonzero at every other t.
        modulus = PrimeModulus(p)
        ones = CycloNum(modulus, [1] * (p - 1))
        top = CycloNum.root_power(modulus, p - 2)
        expected = [t % p == 1 for t in range(-p, 2 * p)]
        assert vanishing_sums(modulus, [ones, top], [0, 1], range(-p, 2 * p)) == expected
        self._agree(modulus, [ones, top], [0, 1], range(-p, 2 * p))
        # The same sum in a signal: f(0) = 1 + ... + w^(p-2), f(1) = w^(p-2),
        # so fhat(xi) vanishes at xi = -1 alone.
        f = SignalFn(modulus, [ones, top] + [0] * (p - 2))
        assert fourier_support(f) == support(dft(f)) == SupportSet(modulus, range(p - 1))

    @staticmethod
    def spied_widths(monkeypatch):
        # The width of every _packed_rows call, and every % Phi that a fold
        # takes (_balanced_residue).
        widths, remainders = [], []
        packed_rows, balanced = cyclotomic._packed_rows, cyclotomic._balanced_residue
        monkeypatch.setattr(cyclotomic, "_packed_rows",
                            lambda rows: (lambda out: widths.append(out[1]) or out)(
                                packed_rows(rows)))
        monkeypatch.setattr(cyclotomic, "_balanced_residue",
                            lambda value, n: remainders.append(n) or balanced(value, n))
        return widths, remainders

    @pytest.mark.parametrize("nbytes", range(1, 10))
    @pytest.mark.parametrize("p", [5, 13])
    def test_width_edge(self, p, nbytes, monkeypatch):
        # The rows' digits at the spare-bit edge beside single terms.  One
        # row R = b - b*w + w^2 with b = 2^(8W-2) - 1 has top = 2b, and its
        # width must be W, the fewest bytes that hold 2 * top = 256^W - 4;
        # b + 1 would take W + 1.  Turned by t = p - 2, R's digit 2b lands
        # at index p - 2 and its digit 0 on top, so one folded numerator is
        # +top, and at t = p - 1 one is -top.  The terms -b, b*w and -w^2 of
        # -R sit at exponent 2, and c*w^3 and -c*w^3, c = 256^W, cancel: the
        # single terms need no room in the width.  The sum at t is
        # R(w) (w^t - w^(2t)), zero exactly when t = 0 (mod p), and no fold
        # may take % Phi; the results must agree with the decoded sums.
        modulus = PrimeModulus(p)
        b, c = 2 ** (8 * nbytes - 2) - 1, 256 ** nbytes
        assert cyclotomic._digit_bytes(4 * (b + 1)) == nbytes + 1
        row = CycloNum(modulus, [b, -b, 1] + [0] * (p - 4))
        singles = [(-b, 0), (b, 1), (-1, 2)]
        values = [row] + [k * CycloNum.root_power(modulus, i) for k, i in singles]
        values += [c * CycloNum.root_power(modulus, 3), -c * CycloNum.root_power(modulus, 3)]
        exponents = [1, 2, 2, 2, 3, 3]
        multipliers = range(-p, 2 * p + 1)
        widths, remainders = self.spied_widths(monkeypatch)
        assert vanishing_sums(modulus, values, exponents, multipliers) == [
            t % p == 0 for t in multipliers]
        assert widths == [nbytes]
        assert remainders == []
        self._agree(modulus, values, exponents, multipliers)

    @pytest.mark.parametrize("nbytes", range(1, 10))
    @pytest.mark.parametrize("p", [5, 13])
    def test_rows_at_their_top_take_no_remainder(self, p, nbytes, monkeypatch):
        # r equal rows R = (-b, ..., -b, b) at exponents 1, 1 + p, ... turn
        # alike, so the digits of their sums reach 0 and top = 2br, and
        # their folded numerators reach +-top.  b = (256^W - 1) // (2r)
        # puts top in [2^(8W-1), 2^(8W)): W bytes hold it unsigned, and
        # folded there, -top * (1 + B + ... ) lies outside (-Phi/2, Phi/2).
        # With the spare bit every fold lies inside, so vanishing_sums must
        # take no % Phi, and agree with the decoded sums.  Beside them, r
        # copies of -R at exponent 2 give sums that vanish at t = 0 (mod p).
        modulus = PrimeModulus(p)
        multipliers = range(-p, 2 * p + 1)
        for r in (1, 3):
            b = (256 ** nbytes - 1) // (2 * r)
            top = 2 * b * r
            assert 2 ** (8 * nbytes - 1) <= top < 2 ** (8 * nbytes)
            assert cyclotomic._digit_bytes(top) == nbytes
            row = CycloNum(modulus, [-b] * (p - 2) + [b])
            for values, exponents in (([row] * r, [1 + p * k for k in range(r)]),
                                      ([row] * r + [-row] * r, [1] * r + [2] * r)):
                widths, remainders = self.spied_widths(monkeypatch)
                zero = vanishing_sums(modulus, values, exponents, multipliers)
                assert widths == [nbytes + 1]
                assert remainders == []
                monkeypatch.undo()
                assert zero == [len(values) > r and t % p == 0 for t in multipliers]
                self._agree(modulus, values, exponents, multipliers)

    @pytest.mark.parametrize("p", [2, 5, 13, 101])
    def test_single_terms_pack_nothing(self, p, monkeypatch):
        # Rationals, c * w^i for i < p - 1 and zeros, with a cancelling
        # pair: every value is a single term, so neither vanishing_sums nor
        # character_sums packs a row.
        rng = random.Random(800 + p)
        modulus = PrimeModulus(p)

        def single():
            return rng.choice((Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
                               rng.randint(-2**70, 2**70) * CycloNum.root_power(
                                   modulus, rng.randrange(p - 1))))

        values = [CycloNum.of(modulus, single()) for _ in range(2 * p)] + [CycloNum.zero(modulus)]
        values += [values[0], -values[0]]
        exponents = [rng.randrange(-p, 2 * p) for _ in values]
        exponents[-1] = exponents[-2]

        def refuse(rows):
            raise AssertionError("packed a single-term value")

        monkeypatch.setattr(cyclotomic, "_packed_rows", refuse)
        self._agree(modulus, values, exponents, range(-p, 2 * p))
        self._agree(modulus, values[-2:], exponents[-2:], range(p))

    def test_p2_values_are_all_single_terms(self):
        p2 = PrimeModulus(2)
        for values in ([1, 1], [1, -1], [Fraction(1, 2), 3], [0, 0], [0, 5]):
            f = SignalFn(p2, values)
            assert fourier_support(f) == support(dft(f))
            self._agree(p2, f.values, range(2), range(-2, 4))


class TestConvolve:
    def test_dirac_convolution_adds_positions(self):
        p5 = PrimeModulus(5)
        d1 = SignalFn.dirac(p5, 1)
        assert convolve(d1, d1) == SignalFn.dirac(p5, 2)

    def test_dirac_at_zero_is_identity(self):
        rng = random.Random(205)
        p7 = PrimeModulus(7)
        g = random_int_signal(rng, p7)
        assert convolve(SignalFn.dirac(p7, 0), g) == g

    def test_convolution_theorem_exact(self):
        rng = random.Random(206)
        for p in (3, 5, 7):
            modulus = PrimeModulus(p)
            for _ in range(10):
                f = random_int_signal(rng, modulus)
                g = random_int_signal(rng, modulus)
                lhs = dft(convolve(f, g))
                rhs = SignalFn(
                    modulus,
                    [p * a * b for a, b in zip(dft(f).values, dft(g).values)],
                )
                assert lhs == rhs

    def test_fourier_support_of_convolution_intersects(self):
        rng = random.Random(207)
        p7 = PrimeModulus(7)
        for _ in range(10):
            f = random_int_signal(rng, p7)
            g = random_int_signal(rng, p7)
            conv_spectrum = support(dft(convolve(f, g)))
            assert conv_spectrum == support(dft(f)).intersection(support(dft(g)))

    def test_matches_direct_sum_on_cyclotomic_values(self):
        # Against the definition sum_y f(y) g(x - y), on dense Q(w) values
        # with denominators, and once with a sparse f.
        rng = random.Random(209)

        def direct(f, g):
            p = f.modulus.p
            out = []
            for x in range(p):
                total = CycloNum.zero(f.modulus)
                for y in range(p):
                    total = total + f[y] * g[x - y]
                out.append(total)
            return SignalFn(f.modulus, out)

        cases = []
        for p in (5, 7):
            modulus = PrimeModulus(p)
            for _ in range(3):
                f, g = (SignalFn(modulus, [random_cyclo(rng, modulus, den_max=6)
                                           for _ in range(p)]) for _ in range(2))
                cases.append((f, g))
        p7 = PrimeModulus(7)
        sparse = SignalFn(p7, [0, random_cyclo(rng, p7, den_max=6), 0, 0,
                               Fraction(-3, 4), 0, 0])
        cases.append((sparse, SignalFn(p7, [random_cyclo(rng, p7, den_max=6)
                                            for _ in range(7)])))
        # Coefficients above 2^40 make the product digits wider than 8
        # bytes, which unpack one at a time.  Then zero, rational-only and
        # single-term signals against dense ones, and p = 2.
        for p in (11, 13):
            modulus = PrimeModulus(p)
            big = [SignalFn(modulus, [random_cyclo(rng, modulus, -2**45, 2**45, den_max=9)
                                      for _ in range(p)]) for _ in range(2)]
            rational = SignalFn(modulus, [Fraction(rng.randint(-2**50, 2**50), rng.randint(1, 9))
                                          for _ in range(p)])
            single = SignalFn(modulus, [rng.randint(-9, 9) * CycloNum.root_power(modulus, x * x)
                                        for x in range(p)])
            cases += [big, (big[0], rational), (rational, rational), (single, big[1]),
                      (single, rational), (SignalFn.zero(modulus), big[0]),
                      (big[1], SignalFn.zero(modulus))]
        p2 = PrimeModulus(2)
        cases += [(SignalFn(p2, [Fraction(3, 4), -5]), SignalFn(p2, [7, Fraction(1, 6)])),
                  (SignalFn(p2, [0, 2**70]), SignalFn(p2, [-1, 0])),
                  (SignalFn.zero(p2), SignalFn(p2, [1, 1]))]
        for f, g in cases:
            assert convolve(f, g) == direct(f, g)

    def test_builds_no_cyclotomic_products(self, monkeypatch):
        # The spectra stay packed between the forward and inverse sums, so
        # convolve never multiplies two CycloNums.
        rng = random.Random(211)
        p11 = PrimeModulus(11)
        f, g = (random_dense_signal(rng, p11) for _ in range(2))
        expected = idft(SignalFn(p11, [11 * a * b for a, b in zip(dft(f).values,
                                                                   dft(g).values)]))

        def refuse(self, other):
            raise AssertionError("convolve multiplied two CycloNums")

        monkeypatch.setattr(CycloNum, "__mul__", refuse)
        assert convolve(f, g) == expected

    def test_matches_normalised_convolution_theorem(self):
        # convolve divides the product of the unnormalised spectra by p once;
        # it must equal idft(p * dft(f) * dft(g)).  Values mix zeros,
        # rationals, single terms and dense values with denominators.
        rng = random.Random(210)

        def value(modulus):
            kind = rng.randrange(4)
            if kind == 0:
                return 0
            if kind == 1:
                return Fraction(rng.randint(-20, 20), rng.randint(1, 6))
            if kind == 2:
                return (Fraction(rng.randint(-20, 20), rng.randint(1, 6))
                        * CycloNum.root_power(modulus, rng.randrange(modulus.p)))
            return random_cyclo(rng, modulus, den_max=6)

        cases = []
        for p in (2, 3, 5, 7, 11, 13):
            modulus = PrimeModulus(p)
            for _ in range(4):
                cases.append([SignalFn(modulus, [value(modulus) for _ in range(p)])
                              for _ in range(2)])
        p97 = PrimeModulus(97)
        points = set(rng.sample(range(97), 16))
        dense = random_dense_signal(rng, p97, bits=12)
        cases.append([SignalFn(p97, [v if x in points else 0 for x, v in enumerate(dense.values)]),
                      random_dense_signal(rng, p97, bits=12)])
        for f, g in cases:
            p = f.modulus.p
            spectrum = [p * a * b for a, b in zip(dft(f).values, dft(g).values)]
            assert convolve(f, g) == idft(SignalFn(f.modulus, spectrum))

    @pytest.mark.parametrize("p", [5, 13, 43, 47, 97])
    def test_numerators_at_the_width_bound(self, p, monkeypatch):
        # The numerators of p c_f c_g (f*g)(x) are at most
        # 2p(p - 1) min(r_f, r_g) b_f b_g, r the nonzero values and b the
        # largest numerator over the common denominator c, and the products
        # and inverse sums run at the fewest bytes W that keep this below
        # 2^(8W - 1).  A = (+b, -b, +b, ...) and B with B_j = A_(-j) (and
        # B_1 = +b) give AB a numerator of 2(p - 2) b^2 at w^0 from p = 13
        # on, the (p - 2) / (p - 1) of its bound.  f is A on its support,
        # over 3 on one of the shapes, and g is B on minus that support
        # (or everywhere), so (f*g)(0) sums min(r_f, r_g) equal terms.  b is
        # the largest that keeps the bound below 2^(8W - 1), so the result
        # needs all of W, for W from 4 to 9 bytes (9 unpacks digit by
        # digit): W must be the bytes decoded, and every value must equal
        # sum_y f(y) g(x - y).
        rng = random.Random(1200 + p)
        modulus = PrimeModulus(p)
        zero = CycloNum.zero(modulus)
        decoded = []
        decode = cyclotomic._decode_signed
        monkeypatch.setattr(cyclotomic, "_decode_signed", lambda modulus, values, nbytes, den:
                            decoded.append(nbytes) or decode(modulus, values, nbytes, den))
        a = [(-1) ** i for i in range(p - 1)]
        b_vector = [([*a, 0][-j % p]) for j in range(p - 1)]
        b_vector[1] = 1
        shapes = [(1, 1), (min(16, p), min(16, p)), (min(16, p), p), (p, p)]
        for (rf, rg), nbytes, scale in zip(shapes, (4, 6, 8, 9), (1, 3, 1, 1)):
            points = rng.sample(range(p), rf)
            support_g = range(p) if rg == p else [-x % p for x in points]
            b = math.isqrt((2 ** (8 * nbytes - 1) - 1) // (2 * p * (p - 1) * min(rf, rg)))
            bound = 2 * p * (p - 1) * min(rf, rg) * b * b
            assert 2 ** (8 * nbytes - 9) <= bound < 2 ** (8 * nbytes - 1)
            f = SignalFn(modulus, [CycloNum(modulus, [Fraction(b * c, scale) for c in a])
                                   if x in points else 0 for x in range(p)])
            g = SignalFn(modulus, [CycloNum(modulus, [b * c for c in b_vector])
                                   if x in support_g else 0 for x in range(p)])
            direct = [sum((f[y] * g[x - y] for y in points), zero) for x in range(p)]
            decoded.clear()
            assert list(convolve(f, g).values) == direct
            assert decoded == [nbytes]
            top = max(max(map(abs, v._num)) * p * scale // v._den for v in direct)
            if p >= 13:
                assert top == p * min(rf, rg) * 2 * (p - 2) * b * b
                assert 2 ** (8 * nbytes - 9) <= top <= bound

    def test_width_of_the_benchmark_shape(self, monkeypatch):
        # A signal restricted to 16 points convolved with a dense one, at
        # p = 97, with numerators in [-999, 999] over one denominator per
        # signal (transform-stream's convolve): the bound
        # 2 * 97 * 96 * 16 * 999^2 is below 2^39, so the products and
        # inverse sums run at 5 bytes.  Sized for the biases of the packed
        # spectra, 2 p^2 top_f top_g, they took 6.  The sides pack with the
        # spare bit, 2 * 2 * 16 * 999 in 2 bytes and 2 * 2 * 97 * 999 in 3,
        # and _packed_rows returns each side's bias, its largest numerator.
        rng = random.Random(97)
        modulus = PrimeModulus(97)
        decoded, sides = [], []
        decode = cyclotomic._decode_signed
        monkeypatch.setattr(cyclotomic, "_decode_signed", lambda modulus, values, nbytes, den:
                            decoded.append(nbytes) or decode(modulus, values, nbytes, den))
        packed_rows = cyclotomic._packed_rows

        def spy(rows):
            out = packed_rows(rows)
            sides.append(out[1])
            assert out[0] == max(max(map(abs, num)) * m for _, num, m in rows)
            assert out[1] == cyclotomic._digit_bytes(4 * out[0] * len(rows))
            return out

        monkeypatch.setattr(cyclotomic, "_packed_rows", spy)

        def dense():
            den = rng.randint(1, 9)
            return [CycloNum(modulus, [Fraction(rng.choice((-999, 999, rng.randint(-999, 999))),
                                                den) for _ in range(96)]) for _ in range(97)]

        points = set(rng.sample(range(97), 16))
        f = SignalFn(modulus, [v if x in points else 0 for x, v in enumerate(dense())])
        g = SignalFn(modulus, dense())
        out = convolve(f, g)
        assert sides == [2, 3]
        assert decoded == [5]
        monkeypatch.undo()
        spectrum = [97 * a * b for a, b in zip(dft(f).values, dft(g).values)]
        assert out == idft(SignalFn(modulus, spectrum))

    @pytest.mark.parametrize("nbytes", [1, 2, 3])
    @pytest.mark.parametrize("p", [7, 13])
    def test_side_digits_that_fill_a_byte(self, p, nbytes):
        # f has one value, with numerators +-b and 0, b = 2^(8n-1) - 1:
        # biased by b, its digits reach 2b = 2^(8n) - 2, which fills n bytes
        # up to their top bit.  With the spare bit its side takes n + 1
        # bytes, so the sign fill that widens its spectrum to the product
        # width fills zeros.  g is dense, with denominators.  The result
        # must be sum_y f(y) g(x - y) = f(3) g(x - 3).
        rng = random.Random(1300 + 10 * p + nbytes)
        modulus = PrimeModulus(p)
        b = 2 ** (8 * nbytes - 1) - 1
        value = CycloNum(modulus, [(b, -b, 0)[i % 3] for i in range(p - 1)])
        f = SignalFn(modulus, [value if x == 3 else 0 for x in range(p)])
        g = SignalFn(modulus, [random_cyclo(rng, modulus, -b, b, den_max=5) for _ in range(p)])
        assert list(convolve(f, g).values) == [value * g[x - 3] for x in range(p)]

    def test_modulus_mismatch(self):
        with pytest.raises(ValueError):
            convolve(SignalFn.zero(PrimeModulus(3)), SignalFn.zero(PrimeModulus(5)))


class TestCovariance:
    def test_translation(self):
        rng = random.Random(208)
        p7 = PrimeModulus(7)
        f = random_int_signal(rng, p7)
        for a in range(7):
            shifted = f.translate(a)
            assert support(shifted) == support(f).translate(a)
            assert support(dft(shifted)) == support(dft(f))

    def test_modulation(self):
        rng = random.Random(209)
        p7 = PrimeModulus(7)
        f = random_int_signal(rng, p7)
        for b in range(7):
            modulated = f.modulate(b)
            assert support(modulated) == support(f)
            assert support(dft(modulated)) == support(dft(f)).translate(b)


class TestPlancherel:
    def test_exact_identity(self):
        rng = random.Random(210)
        for p in (3, 5, 7, 11, 13):
            modulus = PrimeModulus(p)
            for _ in range(5):
                f = random_int_signal(rng, modulus)
                lhs = CycloNum.zero(modulus)
                for v in f.values:
                    lhs = lhs + v * v.conj()
                lhs = lhs * Fraction(1, p)
                rhs = CycloNum.zero(modulus)
                for v in dft(f).values:
                    rhs = rhs + v * v.conj()
                assert lhs == rhs

    def test_product_bound(self):
        rng = random.Random(211)
        for p in (3, 5, 7, 11, 13):
            modulus = PrimeModulus(p)
            for _ in range(20):
                f = random_int_signal(rng, modulus)
                assert len(support(f)) * len(support(dft(f))) >= p


class TestMinorMatrix:
    def test_one_by_one(self):
        p5 = PrimeModulus(5)
        m = FourierMinor(p5, SupportSet(p5, [0]), SupportSet(p5, [0]))
        assert m.entries == ((CycloNum.one(p5),),)

    def test_two_by_two_p3(self):
        p3 = PrimeModulus(3)
        m = FourierMinor(p3, SupportSet(p3, [0, 1]), SupportSet(p3, [0, 1]))
        w = CycloNum.root_power(p3, 1)
        one = CycloNum.one(p3)
        assert m.entries == ((one, one), (one, w))

    def test_power_table_p5(self):
        p5 = PrimeModulus(5)
        m = FourierMinor(p5, SupportSet(p5, [1, 2]), SupportSet(p5, [1, 2]))
        rp = lambda k: CycloNum.root_power(p5, k)
        assert m.entries == ((rp(1), rp(2)), (rp(2), rp(4)))

    def test_errors(self):
        p5 = PrimeModulus(5)
        with pytest.raises(ValueError):
            FourierMinor(p5, SupportSet(p5, [0, 1]), SupportSet(p5, [0]))
        with pytest.raises(ValueError):
            FourierMinor(p5, SupportSet(p5, []), SupportSet(p5, []))

    def test_constructor_checks_the_shape(self):
        # A FourierMinor is its rows and columns; there is no entries argument.
        p5, p7 = PrimeModulus(5), PrimeModulus(7)
        pair = SupportSet(p5, [0, 1])
        for rows, cols in ((SupportSet(p5, []), pair), (pair, SupportSet(p5, []))):
            with pytest.raises(ValueError, match="nonempty"):
                FourierMinor(p5, rows, cols)
        with pytest.raises(ValueError, match="size mismatch: 2 rows vs 1 cols"):
            FourierMinor(p5, pair, SupportSet(p5, [3]))
        with pytest.raises(ValueError, match="modulus mismatch"):
            FourierMinor(p5, pair, SupportSet(p7, [0, 1]))
        with pytest.raises(ValueError, match="modulus mismatch"):
            FourierMinor(p7, pair, pair)
        minor = FourierMinor(p5, pair, pair)
        with pytest.raises(TypeError):
            FourierMinor(p5, pair, pair, minor.entries)

    def test_nonsingular_validates_once(self, monkeypatch):
        # A zero image sends the minor to minor_det, which reuses the minor
        # minor_nonsingular validated, not a second one.
        p7 = PrimeModulus(7)
        built = []
        init = FourierMinor.__init__
        monkeypatch.setattr(FourierMinor, "__init__",
                            lambda minor, *args: built.append(args) or init(minor, *args))
        monkeypatch.setattr(fourier, "image_dets", lambda modulus, rows, col_sets: [0])
        assert minor_nonsingular(p7, SupportSet(p7, [1, 2, 4]), SupportSet(p7, [0, 3, 5]))
        assert len(built) == 1


class TestMinorDet:
    def test_two_by_two_p3(self):
        p3 = PrimeModulus(3)
        det = minor_det(FourierMinor(p3, SupportSet(p3, [0, 1]), SupportSet(p3, [0, 1])))
        assert det.coeffs == (Fraction(-1), Fraction(1))  # w - 1

    def test_one_by_one_is_root_of_unity(self):
        p7 = PrimeModulus(7)
        for x in range(7):
            for xi in range(7):
                det = minor_det(FourierMinor(p7, SupportSet(p7, [x]), SupportSet(p7, [xi])))
                assert det == CycloNum.root_power(p7, x * xi)
                assert not det.is_zero()

    def test_full_matrix_magnitude(self):
        # |det| of the unnormalized p x p character table is p^(p/2).
        p5 = PrimeModulus(5)
        full = SupportSet.full(p5)
        det = minor_det(FourierMinor(p5, full, full))
        assert abs(abs(det.embed()) - 5**2.5) < 1e-6

    def test_exhaustive_nonzero_small(self):
        for p in (2, 3):
            modulus = PrimeModulus(p)
            for n in range(1, p + 1):
                for rows in itertools.combinations(range(p), n):
                    for cols in itertools.combinations(range(p), n):
                        det = minor_det(FourierMinor(
                            modulus, SupportSet(modulus, rows), SupportSet(modulus, cols)
                        ))
                        assert not det.is_zero()

    def test_det_matches_cofactor_expansion(self, monkeypatch):
        # Independent oracle: Laplace expansion on random 3x3 / 4x4 minors,
        # each decoded from Z/Phi_7(2^W) without the Q(w) fallback.
        monkeypatch.setattr(fourier, "_eliminate", None)
        def laplace(entries, modulus):
            n = len(entries)
            if n == 1:
                return entries[0][0]
            total = CycloNum.zero(modulus)
            for j in range(n):
                sub = [row[:j] + row[j + 1:] for row in entries[1:]]
                term = entries[0][j] * laplace(sub, modulus)
                total = total + term if j % 2 == 0 else total - term
            return total

        rng = random.Random(212)
        p7 = PrimeModulus(7)
        for n in (2, 3, 4):
            for _ in range(5):
                rows = SupportSet(p7, rng.sample(range(7), n))
                cols = SupportSet(p7, rng.sample(range(7), n))
                minor = FourierMinor(p7, rows, cols)
                assert minor_det(minor) == laplace([list(r) for r in minor.entries], p7)

    @pytest.mark.parametrize("p, count", [(3, 19), (5, 251), (7, 11)])
    def test_complementary_minor_identity(self, p, count):
        # Jacobi's complementary-minor identity (Horn & Johnson, Matrix
        # Analysis, 0.8.4) applied to F^-1 = (1/p) * conj(F)^T, residues
        # 0-based: det F[R^c, C^c] = (-1)^(sum R + sum C) * det F * p^-n *
        # sigma_-1(det F[R, C]) for n-sets R and C.  Every minor at p <= 5,
        # one per orbit at p = 7.  The empty minor has determinant 1, so the
        # full one (n = p) gives det F * sigma_-1(det F) = p^p.
        modulus = PrimeModulus(p)

        def det(rows, cols):
            if not rows:
                return CycloNum.one(modulus)
            return minor_det(FourierMinor(modulus, SupportSet(modulus, rows),
                                          SupportSet(modulus, cols)))

        everything = tuple(range(p))
        det_f = det(everything, everything)
        pairs = minor_pairs(p)
        assert len(pairs) == count
        for rows, cols in pairs:
            rest_rows = tuple(x for x in everything if x not in rows)
            rest_cols = tuple(x for x in everything if x not in cols)
            scale = Fraction((-1) ** (sum(rows) + sum(cols)), p ** len(rows))
            assert det(rest_rows, rest_cols) == det_f * det(rows, cols).galois(-1) * scale, (
                rows, cols)


def image_mod_q(value, q, g):
    """sum_i c_i g^i mod q over the coefficients c_i of value, denominators inverted."""
    return sum(c.numerator * pow(c.denominator, -1, q) * pow(g, i, q)
               for i, c in enumerate(value.coeffs)) % q


def minor_pairs(p):
    """Every minor (rows, cols) at p <= 5; one per orbit (the sweep's) above."""
    if p > 5:
        return [(a, b) for kind, a, b, _ in uncertainty._certification_orbits(p)
                if kind == "minor"]
    return [(rows, cols) for n in range(1, p + 1)
            for rows in itertools.combinations(range(p), n)
            for cols in itertools.combinations(range(p), n)]


class TestMinorNonsingular:
    @pytest.mark.parametrize("p, count", [(3, 19), (5, 251), (7, 11), (11, 73)])
    def test_image_is_the_exact_determinant_mod_q(self, p, count):
        modulus = PrimeModulus(p)
        q, g = image_prime(p)
        pairs = minor_pairs(p)
        assert len(pairs) == count
        for rows, cols in pairs:
            rows, cols = SupportSet(modulus, rows), SupportSet(modulus, cols)
            image = fourier.image_dets(modulus, rows.members, [cols.members])[0]
            assert image == image_mod_q(minor_det(FourierMinor(modulus, rows, cols)), q, g)
            assert image != 0
            assert minor_nonsingular(modulus, rows, cols)

    def test_shape_checked_like_fourier_minor(self):
        p5 = PrimeModulus(5)
        with pytest.raises(ValueError, match="size mismatch"):
            minor_nonsingular(p5, SupportSet(p5, [0, 1]), SupportSet(p5, [0]))
        with pytest.raises(ValueError, match="nonempty"):
            minor_nonsingular(p5, SupportSet(p5, []), SupportSet(p5, []))
        p7 = PrimeModulus(7)
        with pytest.raises(ValueError, match="modulus mismatch"):
            minor_nonsingular(p5, SupportSet(p7, [0]), SupportSet(p7, [0]))


class TestImageDets:
    # image_dets shares one elimination across a stream of column sets;
    # on one column set it is checked against the exact determinant in
    # TestMinorNonsingular.

    @staticmethod
    def streams(p):
        """The sweep's column streams: the full matrix, and each row
        representative of size n <= p/2 with its column representatives."""
        everything = tuple(range(p))
        by_rows = {everything: [everything]}
        for kind, rows, cols, _ in uncertainty._certification_orbits(p):
            if kind == "minor" and 2 * len(rows) <= p:
                by_rows.setdefault(rows, []).append(cols)
        return by_rows

    @staticmethod
    def one_by_one(modulus, rows, col_sets):
        return [fourier.image_dets(modulus, rows, [cols])[0] for cols in col_sets]

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    def test_shared_prefixes_give_each_image_determinant(self, p):
        modulus = PrimeModulus(p)
        for rows, col_sets in self.streams(p).items():
            images = fourier.image_dets(modulus, rows, col_sets)
            assert images == self.one_by_one(modulus, rows, col_sets), rows
            assert all(images)

    def test_zero_pivots_under_an_image_override(self, monkeypatch):
        # At (q, g) = (23, 2) some leading blocks at p = 11 vanish mod 23:
        # every column set under such a prefix must still get 0, and the
        # others their own image determinant.
        monkeypatch.setattr(fourier, "image_prime", lambda p: (23, 2))
        modulus = PrimeModulus(11)
        undecided = 0
        for rows, col_sets in self.streams(11).items():
            images = fourier.image_dets(modulus, rows, col_sets)
            assert images == self.one_by_one(modulus, rows, col_sets), rows
            undecided += images.count(0)
        assert undecided == 5

    def test_every_column_set_in_any_order(self):
        # All 3-sets of columns at p = 7, forwards and backwards, against a
        # few row sets: resuming from a shared prefix must not depend on the
        # stream being the sweep's.
        modulus = PrimeModulus(7)
        col_sets = list(itertools.combinations(range(7), 3))
        for rows in [(0, 1, 2), (0, 1, 3), (2, 4, 5)]:
            for stream in (col_sets, col_sets[::-1]):
                assert (fourier.image_dets(modulus, rows, stream)
                        == self.one_by_one(modulus, rows, stream))


class TestMinorSolve:
    def test_column_recovers_unit_vector(self):
        p7 = PrimeModulus(7)
        minor = FourierMinor(p7, SupportSet(p7, [1, 2, 4]), SupportSet(p7, [0, 3, 5]))
        for k in range(3):
            rhs = [row[k] for row in minor.entries]
            sol = minor_solve(minor, rhs)
            expected = [CycloNum.one(p7) if j == k else CycloNum.zero(p7) for j in range(3)]
            assert sol == expected

    def test_zero_rhs_gives_zero(self):
        p5 = PrimeModulus(5)
        minor = FourierMinor(p5, SupportSet(p5, [0, 2]), SupportSet(p5, [1, 3]))
        sol = minor_solve(minor, [0, 0])
        assert all(v.is_zero() for v in sol)

    def test_random_rhs_residual_is_exactly_zero(self):
        rng = random.Random(213)
        p7 = PrimeModulus(7)
        for _ in range(10):
            rows = SupportSet(p7, rng.sample(range(7), 3))
            cols = SupportSet(p7, rng.sample(range(7), 3))
            minor = FourierMinor(p7, rows, cols)
            rhs = [CycloNum.from_rational(p7, rng.randint(-9, 9)) for _ in range(3)]
            sol = minor_solve(minor, rhs)
            assert minor.apply(sol) == rhs

    def test_rhs_length_checked(self):
        p5 = PrimeModulus(5)
        minor = FourierMinor(p5, SupportSet(p5, [0]), SupportSet(p5, [0]))
        with pytest.raises(ValueError):
            minor_solve(minor, [1, 2])



def eliminated(monkeypatch, call):
    """call() with the residue route switched off, so _eliminate answers."""
    with monkeypatch.context() as patch:
        patch.setattr(fourier, "_RESIDUE_WIDTHS", 0)
        return call()


class TestResidueElimination:
    @pytest.mark.parametrize("p", [7, 11, 17, 31])
    def test_matches_eliminate_on_random_minors(self, monkeypatch, p):
        # Right-hand sides with rational denominators and 2^16-sized weights,
        # as construct_support_pair's combination case draws them.
        rng = random.Random(p)
        modulus = PrimeModulus(p)
        for n in (1, 2, p // 3, p // 2):
            rows = SupportSet(modulus, rng.sample(range(p), n))
            cols = SupportSet(modulus, rng.sample(range(p), n))
            minor = FourierMinor(modulus, rows, cols)
            rhs = [CycloNum(modulus, [Fraction(rng.randint(-1 << 16, 1 << 16), rng.randint(1, 12))
                                      for _ in range(p - 1)]) for _ in range(n)]
            weights = [rng.randint(1, 1 << 16) for _ in range(n)]
            for b in (rhs, weights):
                assert minor_solve(minor, b) == eliminated(monkeypatch, lambda: minor_solve(minor, b))
            assert minor_det(minor) == eliminated(monkeypatch, lambda: minor_det(minor))

    @pytest.mark.parametrize("p", [2, 3, 5, 13, 23, 29, 31])
    def test_integer_rational_and_dense_right_hand_sides(self, monkeypatch, p):
        rng = random.Random(900 + p)
        modulus = PrimeModulus(p)
        # Full-size minors only up to p = 13, where the Q(w) route stays fast.
        for n in sorted({1, 2, min(p // 2, 6)} | ({p - 1} if p <= 13 else set())):
            rows = SupportSet(modulus, rng.sample(range(p), n))
            cols = SupportSet(modulus, rng.sample(range(p), n))
            minor = FourierMinor(modulus, rows, cols)
            for rhs in ([rng.randint(-50, 50) for _ in range(n)],
                        [Fraction(rng.randint(-50, 50), rng.randint(1, 30)) for _ in range(n)],
                        [random_cyclo(rng, modulus, -2**40, 2**40, den_max=9) for _ in range(n)]):
                assert minor_solve(minor, rhs) == eliminated(
                    monkeypatch, lambda: minor_solve(minor, rhs))
            assert minor_det(minor) == eliminated(monkeypatch, lambda: minor_det(minor))

    def test_rational_right_hand_side_shares_one_denominator(self, monkeypatch):
        # The right-hand side's denominators are 5, 3, 1 and the lcm 6 of a
        # dense value's mixed denominators: one D = 30 clears them all, and
        # the Fourier entries are encoded unscaled.
        p13 = PrimeModulus(13)
        minor = FourierMinor(p13, SupportSet(p13, [0, 2, 5, 11]), SupportSet(p13, [1, 3, 4, 9]))
        rhs = [Fraction(2, 5), CycloNum.root_power(p13, 7) / 3, -1, random_cyclo(
            random.Random(13), p13, den_max=6)]
        solution = minor_solve(minor, rhs)
        assert solution == eliminated(monkeypatch, lambda: minor_solve(minor, rhs))
        assert minor.apply(solution) == [v if isinstance(v, CycloNum)
                                         else CycloNum.from_rational(p13, v) for v in rhs]

    def test_no_fourier_entry_is_bounded_or_encoded(self, monkeypatch):
        # The residue route reads M's residues from one power table: only
        # the n right-hand-side values are bounded, once, and encoded, once
        # per width tried, whatever the number of widths.
        encoded, bounded, moduli = [], [], []
        encode, bound, triangular = ResidueRing.encode, cyclotomic._embedding_bound, fourier._triangular
        monkeypatch.setattr(ResidueRing, "encode",
                            lambda ring, v: encoded.append(v) or encode(ring, v))
        monkeypatch.setattr(cyclotomic, "_embedding_bound",
                            lambda num: bounded.append(num) or bound(num))
        monkeypatch.setattr(fourier, "_triangular",
                            lambda a, m, cut: moduli.append(m) or triangular(a, m, cut))

        def widths_tried(p, rows, cols):
            modulus = PrimeModulus(p)
            minor = FourierMinor(modulus, SupportSet(modulus, rows), SupportSet(modulus, cols))
            minor_det(minor)
            assert (encoded, bounded) == ([], [])
            rhs = [random_cyclo(random.Random(6), modulus, den_max=4) for _ in rows]
            del moduli[:]
            d, numerators = minor_cramer(minor, rhs)
            assert minor.apply(numerators) == [d * b for b in rhs]
            assert len(bounded) == len(rows)
            assert encoded == rhs * len(moduli)
            del encoded[:], bounded[:]
            return len(moduli)

        # With the right-hand side's denominators 1 to 4 cleared by D = 12,
        # the first width is W = 20, where two pivots share the split prime
        # 53 = 1 (mod 13) with N, so the second width answers.
        assert widths_tried(13, [0, 1, 3, 4, 8, 12], [2, 3, 5, 6, 7, 10]) == 2
        # With every width a multiple of 3 (see the next test), all widths
        # are tried before _eliminate answers.
        monkeypatch.setattr(cyclotomic, "_unit_width", lambda p, width: -(-width // 3) * 3)
        assert widths_tried(7, [1, 2, 4], [0, 3, 5]) == fourier._RESIDUE_WIDTHS

    def test_non_unit_pivots_fall_back_to_eliminate(self, monkeypatch):
        # ord_7(2) = 3, so every width a multiple of 3 has 2^W = 1 (mod 7):
        # 7 divides N, every root power maps to 1 mod 7 and the second
        # pivot is no unit, at every width tried.
        p7 = PrimeModulus(7)
        minor = FourierMinor(p7, SupportSet(p7, [1, 2, 4]), SupportSet(p7, [0, 3, 5]))
        rhs = [1, CycloNum.root_power(p7, 2), Fraction(5, 3)]
        expected = minor_det(minor), minor_solve(minor, rhs)
        moduli, calls = [], []
        real_triangular, real_eliminate = fourier._triangular, fourier._eliminate

        def triangular(a, m, cut):
            moduli.append(m)
            return real_triangular(a, m, cut)

        def spy(*args):
            calls.append(args)
            return real_eliminate(*args)

        monkeypatch.setattr(cyclotomic, "_unit_width", lambda p, width: -(-width // 3) * 3)
        monkeypatch.setattr(fourier, "_triangular", triangular)
        monkeypatch.setattr(fourier, "_eliminate", spy)
        assert (minor_det(minor), minor_solve(minor, rhs)) == expected
        assert len(calls) == 2
        # Each call tried every width, and 7 divided each N = Phi_7(2^W).
        assert len(moduli) == 2 * fourier._RESIDUE_WIDTHS
        assert all(m % 7 == 0 for m in moduli)

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 17, 31])
    def test_width_never_has_two_to_the_w_one_mod_p(self, p):
        rng = random.Random(p)
        modulus = PrimeModulus(p)
        for n in range(1, min(p, 6) + 1):
            rows = SupportSet(modulus, rng.sample(range(p), n))
            cols = SupportSet(modulus, rng.sample(range(p), n))
            ring = ResidueRing.for_fourier(modulus, n)
            for _ in range(12):
                assert pow(2, ring.width, p) != 1, (n, ring.width)
                wider = ring.wider()
                assert wider.width > ring.width
                ring = wider

    @pytest.mark.parametrize("p", [2, 3, 7, 17])
    def test_encode_then_decode_at_the_coefficient_bound(self, p):
        # Coefficients of modulus up to 2^(W-2) - 1 come back; encode is
        # the ring map w -> 2^W, so it also commutes with products.
        rng = random.Random(p)
        modulus = PrimeModulus(p)
        for width in (3, 4, 9, 40):
            ring = ResidueRing(modulus, width)
            top = (1 << width - 2) - 1
            values = [CycloNum(modulus, [rng.choice((top, -top)) for _ in range(p - 1)])
                      for _ in range(8)]
            values.append(CycloNum(modulus, [top] * (p - 1)))
            values.append(CycloNum(modulus, [-top] * (p - 1)))
            for v in values:
                assert ring.decode(ring.encode(v)) == v
            w = CycloNum.root_power(modulus, 1)
            assert ring.encode(w) == pow(2, width, ring.n)
            for a, b in zip(values, values[1:]):
                assert ring.encode(a * b) == ring.encode(a) * ring.encode(b) % ring.n


class TestMinorCramer:
    # minor_cramer(M, rhs) is Cramer's rule as stated: (det M, [det M_i]),
    # M_i being M with column i replaced by rhs, whatever rhs's denominators.

    def check_against_minor_det(self, minor, rhs):
        # M is nonsingular, so M * numerators = d * rhs pins the numerators.
        modulus = minor.modulus
        rhs = [v if isinstance(v, CycloNum) else CycloNum.from_rational(modulus, v) for v in rhs]
        det, numerators = minor_cramer(minor, rhs)
        assert det == minor_det(minor)
        assert minor.apply(numerators) == [det * b for b in rhs]
        if all(c.denominator == 1 for b in rhs for c in b.coeffs):
            assert all(c.denominator == 1 for v in numerators for c in v.coeffs)
        return det, numerators

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 13])
    def test_fourier_minors_against_minor_det(self, p):
        rng = random.Random(1100 + p)
        modulus = PrimeModulus(p)
        for n in sorted({1, 2, min(p // 2, 5)} - {0}):
            rows = SupportSet(modulus, rng.sample(range(p), n))
            cols = SupportSet(modulus, rng.sample(range(p), n))
            minor = FourierMinor(modulus, rows, cols)
            for rhs in ([rng.randint(1, 50) for _ in range(n)],
                        [random_cyclo(rng, modulus, -2**20, 2**20) for _ in range(n)]):
                self.check_against_minor_det(minor, rhs)

    @pytest.mark.parametrize("route", ["residue", "eliminate"])
    def test_d_is_det_m_for_shared_denominators(self, monkeypatch, route):
        # Denominators 2, 4, 6 and 12 share factors, so their lcm 12 is far
        # below their product 576, and d must be det M for either.
        if route == "eliminate":
            monkeypatch.setattr(fourier, "_RESIDUE_WIDTHS", 0)
        p13 = PrimeModulus(13)
        minor = FourierMinor(p13, SupportSet(p13, [0, 2, 5, 11]), SupportSet(p13, [1, 3, 4, 9]))
        rhs = [CycloNum.root_power(p13, 4) / 2, Fraction(5, 4), Fraction(-7, 6),
               CycloNum.root_power(p13, 9) * Fraction(11, 12)]
        self.check_against_minor_det(minor, rhs)

    @pytest.mark.parametrize("route", ["residue", "eliminate"])
    @pytest.mark.parametrize("p", [5, 13, 31])
    def test_d_is_det_m_on_transform_values(self, monkeypatch, route, p):
        # Sparse recovery's systems: rows -Omega, columns T and right-hand
        # side F(-x) for F = dft(f), every value carrying the 1/p; the
        # solution is f on T.
        if route == "eliminate":
            monkeypatch.setattr(fourier, "_RESIDUE_WIDTHS", 0)
        rng = random.Random(1300 + p)
        modulus = PrimeModulus(p)
        n = min(p // 2, 5)
        cols = SupportSet(modulus, rng.sample(range(p), n))
        f = SignalFn(modulus, [rng.randint(1, 9) if x in cols else 0 for x in range(p)])
        rows = SupportSet(modulus, (-xi % p for xi in rng.sample(range(p), n)))
        spectrum = dft(f)
        rhs = [spectrum[-x] for x in rows]
        assert [math.lcm(*(c.denominator for c in b.coeffs)) for b in rhs] == [p] * n
        minor = FourierMinor(modulus, rows, cols)
        self.check_against_minor_det(minor, rhs)
        assert minor_solve(minor, rhs) == [f[x] / p for x in cols]

    @pytest.mark.parametrize("p", [7, 13, 31])
    def test_width_is_that_of_the_cleared_right_hand_side(self, p):
        # for_fourier bounds the column D * rhs, so rhs and its cleared
        # multiple D * rhs, which lies in Z[w], get one width.
        rng = random.Random(1400 + p)
        modulus = PrimeModulus(p)
        for n in (1, 3, p // 2):
            rhs = [random_cyclo(rng, modulus, -2**12, 2**12, den_max=12) for _ in range(n)]
            scale = math.lcm(*(c.denominator for b in rhs for c in b.coeffs))
            assert scale > 1
            cleared = [b * scale for b in rhs]
            assert (ResidueRing.for_fourier(modulus, n, rhs).width
                    == ResidueRing.for_fourier(modulus, n, cleared).width)

    @pytest.mark.parametrize("route", ["residue", "eliminate"])
    def test_right_hand_side_of_another_modulus_is_refused(self, monkeypatch, route):
        # A p = 5 value in a p = 7 solve: refused up front on both routes,
        # not encoded as if it were a p = 7 value.
        if route == "eliminate":
            monkeypatch.setattr(fourier, "_RESIDUE_WIDTHS", 0)
        p7 = PrimeModulus(7)
        minor = FourierMinor(p7, SupportSet(p7, [0, 1]), SupportSet(p7, [0, 1]))
        rhs = [1, CycloNum.root_power(PrimeModulus(5), 1)]
        for solve in (minor_cramer, minor_solve):
            with pytest.raises(ValueError, match="^modulus mismatch"):
                solve(minor, rhs)

    @pytest.mark.parametrize("p", [3, 7, 13, 31])
    def test_same_pair_when_eliminate_answers(self, monkeypatch, p):
        # The Q(w) fallback forms the same (d, numerators) as the residue
        # route, with integer, rational and dense right-hand sides.
        rng = random.Random(1200 + p)
        modulus = PrimeModulus(p)
        n = min(p - 1, 4)
        minor = FourierMinor(modulus, SupportSet(modulus, rng.sample(range(p), n)),
                             SupportSet(modulus, rng.sample(range(p), n)))
        for rhs in ([rng.randint(-50, 50) for _ in range(n)],
                    [Fraction(rng.randint(-50, 50), rng.randint(1, 30)) for _ in range(n)],
                    [random_cyclo(rng, modulus, -2**30, 2**30, den_max=9) for _ in range(n)]):
            assert minor_cramer(minor, rhs) == eliminated(
                monkeypatch, lambda: minor_cramer(minor, rhs))


class TestTriangular:
    # _triangular pivots without an inverse per pivot: its determinant and
    # the inverses of the scaled pivots must still be exact mod m.

    @staticmethod
    def leibniz(a, m):
        n = len(a)
        total = 0
        for perm in itertools.permutations(range(n)):
            inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
            total += (-1) ** inversions * math.prod(a[i][perm[i]] for i in range(n))
        return total % m

    @pytest.mark.parametrize("q", [101, 2147483647])
    def test_det_and_inverses_mod_a_prime(self, q):
        rng = random.Random(q)
        for n in (1, 2, 3, 5):
            for _ in range(10):
                a = [[rng.randrange(q) for _ in range(n + 1)] for _ in range(n)]
                square = [row[:n] for row in a]
                reduced = fourier._triangular([list(row) for row in a], q, 0)
                if reduced is None:
                    continue
                det, rows, inverses = reduced
                assert det == self.leibniz(square, q)
                assert [len(row) for row in rows] == list(range(n + 1, 1, -1))
                assert all(row[0] * inv % q == 1 for row, inv in zip(rows, inverses))

    def test_a_non_unit_pivot_gives_none(self):
        # Mod 15 the second pivot 5 * 1 - 2 * 0 = 5 is a zero divisor, and
        # no later pivot can make the product a unit again.  15 = 2^4 - 1,
        # so the folded updates (cut = 4) must agree.
        for cut in (0, 4):
            assert fourier._triangular([[1, 0, 4], [2, 5, 1], [0, 1, 1]], 15, cut) is None
            assert fourier._triangular([[1, 0, 4], [2, 7, 1], [0, 1, 1]], 15, cut)[0] == (
                self.leibniz([[1, 0, 4], [2, 7, 1], [0, 1, 1]], 15))
        # ord_7(2) = 3, so at W = 3 7 divides N = Phi_7(2^3) and every root
        # power is 1 mod 7: the second pivot of this minor is no unit, with
        # the rows folded modulo 2^21 - 1 as with % N.
        ring = ResidueRing(PrimeModulus(7), 3)
        assert ((1 << 21) - 1) % ring.n == 0 and ring.n % 7 == 0
        for cut in (0, 21):
            assert fourier._triangular(ring.encode_fourier((1, 2, 4), (0, 3, 5)), ring.n, cut) is None

    @staticmethod
    def encoded_systems(p, count, sizes, width=None):
        """(ring, rows of [M | rhs]) for random Fourier minors M and rhs residues."""
        rng = random.Random(f"fold {p}")
        modulus = PrimeModulus(p)
        for _ in range(count):
            n = rng.choice(sizes)
            rows = sorted(rng.sample(range(p), n))
            cols = sorted(rng.sample(range(p), n))
            rhs = [random_cyclo(rng, modulus, -99, 99, den_max=3) for _ in range(n)]
            ring = (ResidueRing(modulus, cyclotomic._unit_width(p, width)) if width
                    else ResidueRing.for_fourier(modulus, n, rhs))
            a = ring.encode_fourier(rows, cols)
            for row in a:
                row.append(rng.randrange(ring.n))
            yield ring, a

    @pytest.mark.parametrize("p, count, sizes, width", [
        (17, 12, (1, 2, 5, 8), None), (31, 8, (3, 7, 12), None),
        (61, 3, (6, 14), None), (101, 3, (2, 6), 150)])
    def test_folded_rows_agree_mod_n(self, p, count, sizes, width):
        # 2^(pW) - 1 is a multiple of N, so the folded elimination gives the
        # same det and pivot inverses, and a triangle congruent mod N.
        for ring, a in self.encoded_systems(p, count, sizes, width):
            m, cut = ring.n, p * ring.width
            assert ((1 << cut) - 1) % m == 0
            plain = fourier._triangular([list(row) for row in a], m, 0)
            folded = fourier._triangular([list(row) for row in a], m, cut)
            if plain is None:
                assert folded is None
                continue
            assert folded[0] == plain[0] and folded[2] == plain[2]
            assert [[x % m for x in row] for row in folded[1]] == plain[1]

    @pytest.mark.parametrize("p", [17, 31, 61])
    def test_every_folded_entry_stays_in_bounds(self, monkeypatch, p):
        # _pivot keeps every folded entry in [-2, 2^cut + 1]; one fold
        # alone leaves entries up to about 3 * 2^cut.
        seen = []
        real = fourier._pivot

        def spy(a, k, m, cut=0):
            u, below = real(a, k, m, cut)
            seen.extend(x for row in below for x in row)
            return u, below

        monkeypatch.setattr(fourier, "_pivot", spy)
        for ring, a in self.encoded_systems(p, 6, (4, 8)):
            cut = p * ring.width
            del seen[:]
            fourier._triangular(a, ring.n, cut)
            assert seen and all(-2 <= x <= (1 << cut) + 1 for x in seen)

    @pytest.mark.parametrize("cut", [3, 8, 64])
    def test_fold_bound_holds_at_its_edges(self, cut):
        # Entries drawn from the ends of [-2, 2^cut + 1] fold back into it,
        # congruent to u * x - r * t modulo 2^cut - 1.
        rng = random.Random(cut)
        top = 1 << cut
        edges = [-2, -1, 0, 1, 2, top - 2, top - 1, top, top + 1]
        mask = top - 1
        for _ in range(200):
            a = [[rng.choice(edges) for _ in range(4)] for _ in range(3)]
            u, below = fourier._pivot(a, 0, mask, cut)
            for row, out in zip(a[1:], below):
                for x, t, y in zip(row[1:], a[0][1:], out):
                    assert -2 <= y <= top + 1
                    assert (y - (u * x - row[0] * t)) % mask == 0


class TestFoldRule:
    # _cramer folds exactly when N has more than _FOLD_BITS bits, and
    # image_dets never folds.

    @pytest.mark.parametrize("p, rows, cols", [
        (17, (0, 2, 3, 9, 11), (1, 4, 5, 6, 16)),
        (23, (1, 2, 4, 8, 9, 13, 16, 18), (0, 3, 5, 6, 7, 10, 12, 20)),
        (31, (0, 1, 5, 7, 12, 13, 20, 22, 25, 28), (2, 3, 4, 8, 11, 15, 16, 19, 26, 30))])
    def test_folds_exactly_above_the_constant(self, monkeypatch, p, rows, cols):
        modulus = PrimeModulus(p)
        minor = FourierMinor(modulus, SupportSet(modulus, rows), SupportSet(modulus, cols))
        rhs = [random_cyclo(random.Random(p), modulus, den_max=3) for _ in rows]
        expected = minor_cramer(minor, rhs)
        calls = []
        real = fourier._triangular
        monkeypatch.setattr(fourier, "_triangular",
                            lambda a, m, cut: calls.append((m, cut)) or real(a, m, cut))

        def rule(m):
            width = (m.bit_length() - 1) // (p - 1)
            assert ResidueRing(modulus, width).n == m
            return m, p * width if m.bit_length() > fourier._FOLD_BITS else 0

        def solved():
            # One call per width tried; a non-unit pivot tries the next one.
            del calls[:]
            assert minor_cramer(minor, rhs) == expected
            assert minor_det(minor) == expected[0]
            assert calls == [rule(m) for m, _ in calls]
            return calls[0]

        m, _ = solved()
        cut = p * ((m.bit_length() - 1) // (p - 1))
        for limit, folded in ((m.bit_length(), 0), (m.bit_length() - 1, cut)):
            monkeypatch.setattr(fourier, "_FOLD_BITS", limit)
            assert solved() == (m, folded)

    @pytest.mark.parametrize("p", [7, 31, 101])
    def test_image_dets_never_folds(self, monkeypatch, p):
        monkeypatch.setattr(fourier, "_FOLD_BITS", 0)
        calls = []
        real = fourier._pivot
        monkeypatch.setattr(fourier, "_pivot",
                            lambda a, k, m, cut=0: calls.append((m, cut)) or real(a, k, m, cut))
        rng = random.Random(p)
        rows = tuple(sorted(rng.sample(range(p), 5)))
        col_sets = sorted(tuple(sorted(rng.sample(range(p), 5))) for _ in range(6))
        fourier.image_dets(PrimeModulus(p), rows, col_sets)
        q = image_prime(p)[0]
        assert calls and set(calls) == {(q, 0)}


class TestHandBuiltMinors:
    # Matrices with two equal rows or a zero entry are not Fourier minors,
    # and a FourierMinor is only its rows and columns: here its entries are
    # patched, and the residue route, which never reads them, is off.  They
    # reach a zero diagonal pivot in _eliminate, which real minors never
    # reach: every leading block of a Fourier minor is nonsingular.
    @staticmethod
    def hand_built(monkeypatch, p, rows, cols, entries):
        modulus = PrimeModulus(p)
        monkeypatch.setattr(fourier, "_RESIDUE_WIDTHS", 0)
        monkeypatch.setattr(FourierMinor, "entries", property(lambda minor: entries))
        return FourierMinor(modulus, SupportSet(modulus, rows), SupportSet(modulus, cols))

    def _repeated_row_minor(self, monkeypatch):
        p7 = PrimeModulus(7)
        good = FourierMinor(p7, SupportSet(p7, [1, 2, 4]), SupportSet(p7, [0, 3, 5])).entries
        return self.hand_built(monkeypatch, 7, [1, 2, 4], [0, 3, 5], (good[0], good[1], good[0]))

    def test_det_names_rows_cols_and_p(self, monkeypatch):
        with pytest.raises(TheoremViolationError,
                           match=r"rows=\(1, 2, 4\) cols=\(0, 3, 5\) \(p=7\)"):
            minor_det(self._repeated_row_minor(monkeypatch))

    def test_solve_names_rows_cols_and_p(self, monkeypatch):
        with pytest.raises(TheoremViolationError,
                           match=r"rows=\(1, 2, 4\) cols=\(0, 3, 5\) \(p=7\)"):
            minor_solve(self._repeated_row_minor(monkeypatch), [1, 0, 0])

    def test_zero_first_pivot_names_leading_entry(self, monkeypatch):
        # [[0, w], [1, 0]] is nonsingular, but its leading 1 x 1 block is 0:
        # no row swap is tried.
        p5 = PrimeModulus(5)
        zero, one = CycloNum.zero(p5), CycloNum.one(p5)
        w = CycloNum.root_power(p5, 1)
        minor = self.hand_built(monkeypatch, 5, [0, 1], [0, 1], ((zero, w), (one, zero)))
        for call in (minor_det, lambda m: minor_solve(m, [w, 3])):
            with pytest.raises(TheoremViolationError,
                               match=r"rows=\(0,\) cols=\(0,\) \(p=5\)"):
                call(minor)

    def test_zero_middle_pivot_names_leading_2x2_minor(self, monkeypatch):
        # [[1, 1, 1], [1, 1, w], [1, w, 1]] has det -(w - 1)^2, but its
        # leading 2 x 2 block is singular, so the pivot in column 1 is zero.
        p7 = PrimeModulus(7)
        one, w = CycloNum.one(p7), CycloNum.root_power(p7, 1)
        minor = self.hand_built(monkeypatch, 7, [1, 2, 4], [0, 3, 5],
                                ((one, one, one), (one, one, w), (one, w, one)))
        for call in (minor_det, lambda m: minor_solve(m, [1, 0, 0])):
            with pytest.raises(TheoremViolationError,
                               match=r"rows=\(1, 2\) cols=\(0, 3\) \(p=7\)"):
                call(minor)


class TestLeadingTerm:
    # Tao's proof of Chebotarev's lemma, as an oracle that does not eliminate:
    # for n x n rows X and columns Xi, det M = (1 - w)^N * u with
    # N = n(n - 1)/2 and u = (-1)^N V(X) V(Xi) / V(0, ..., n - 1) mod (1 - w),
    # where V(S) = prod_{j<k} (s_k - s_j) over the sorted members of S.  The
    # map w -> 1 is the ring map Z[w] -> F_p = Z[w]/(1 - w), so a value's
    # residue mod (1 - w) is its coefficient sum mod p.

    @staticmethod
    def vandermonde(members):
        return math.prod(b - a for a, b in itertools.combinations(members, 2))

    @staticmethod
    def leading_term(det):
        """(v, u mod p) for det = (1 - w)^v * u with u not divisible by 1 - w."""
        modulus = det.modulus
        p = modulus.p
        inverse = (1 - CycloNum.root_power(modulus, 1)).inverse()
        valuation = 0
        while sum(det.coeffs) % p == 0:
            det = det * inverse
            assert all(c.denominator == 1 for c in det.coeffs)
            valuation += 1
        return valuation, int(sum(det.coeffs)) % p

    def check(self, minor):
        p, n = minor.modulus.p, minor.n
        N = n * (n - 1) // 2
        digit = ((-1) ** N * self.vandermonde(minor.rows) * self.vandermonde(minor.cols)
                 * pow(self.vandermonde(range(n)), -1, p)) % p
        assert self.leading_term(minor_det(minor)) == (N, digit)

    def random_minors(self, p, count):
        rng = random.Random(2600 + p)
        modulus = PrimeModulus(p)
        for _ in range(count):
            n = rng.randint(1, min(p, 8))
            yield FourierMinor(modulus, SupportSet(modulus, rng.sample(range(p), n)),
                               SupportSet(modulus, rng.sample(range(p), n)))

    def test_two_by_two_p3(self):
        # det = w - 1 = (1 - w) * (-1), and (-1)^1 * 1 * 1 / 1 = -1.
        p3 = PrimeModulus(3)
        idx = SupportSet(p3, [0, 1])
        minor = FourierMinor(p3, idx, idx)
        assert self.leading_term(minor_det(minor)) == (1, 2)
        self.check(minor)

    @pytest.mark.parametrize("p", [5, 7, 11, 13, 17, 23, 31])
    def test_random_minors(self, p):
        for minor in self.random_minors(p, 150):
            self.check(minor)

    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    def test_random_minors_when_eliminate_answers(self, monkeypatch, p):
        monkeypatch.setattr(fourier, "_RESIDUE_WIDTHS", 0)
        for minor in self.random_minors(p, 40):
            self.check(minor)
