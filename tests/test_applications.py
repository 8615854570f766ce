import itertools
import random
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from primefourier import (
    BudgetExceededError,
    CycloNum,
    FourierMinor,
    MultiSignal,
    PrimeModulus,
    SignalFn,
    SparsePoly,
    SupportSet,
    TheoremViolationError,
    applications,
    cauchy_davenport_check,
    cd_proof_witness,
    dft,
    idft,
    meshulam_check,
    minor_cramer,
    minor_solve,
    multi_dft,
    multi_idft,
    sparse_zero_count,
    sumset,
    support,
)

from conftest import float_dft, random_cyclo


def random_subset(rng, p):
    size = rng.randint(1, p)
    return tuple(sorted(rng.sample(range(p), size)))


P5 = PrimeModulus(5)

# Each site that takes an integer from its caller, fed one value x.
INTEGER_SITES = {
    "SupportSet residue": lambda x: SupportSet(P5, [x]),
    "SparsePoly exponent": lambda x: SparsePoly(P5, [(x, 1)]),
    "MultiSignal coordinate": lambda x: MultiSignal(P5, 1, {(x,): 1}),
}


@pytest.mark.parametrize("site", INTEGER_SITES)
def test_non_integral_input_is_rejected_not_truncated(site):
    build = INTEGER_SITES[site]
    for value in (2, True, np.int64(2)):
        build(value)
    for value in (2.7, 1.0, "3", Fraction(5, 2)):
        with pytest.raises(TypeError):
            build(value)


# Each site that takes a Q(w) value from its caller, fed one exact rational x.
RATIONAL_SITES = {
    "SignalFn value": lambda x: SignalFn(P5, [x, 0, 0, 0, 0]).values[0],
    "MultiSignal value": lambda x: MultiSignal(P5, 1, {(0,): x}).values[(0,)],
    "SparsePoly coefficient": lambda x: SparsePoly(P5, [(0, x)]).terms[0][1],
    "minor_solve rhs": lambda x: minor_solve(
        FourierMinor(P5, SupportSet(P5, [0]), SupportSet(P5, [0])), [x])[0],
    "CycloNum coefficient": lambda x: CycloNum(P5, [x, 0, 0, 0]),
    "CycloNum.from_rational": lambda x: CycloNum.from_rational(P5, x),
}


@pytest.mark.parametrize("site", RATIONAL_SITES)
def test_inexact_value_is_rejected_not_converted(site):
    build = RATIONAL_SITES[site]
    for value, exact in ((2, 2), (True, 1), (np.int64(-3), -3), (Fraction(1, 3), Fraction(1, 3))):
        assert build(value) == CycloNum.from_rational(P5, exact)
    for value in (0.1, 2.0, np.float64(0.5), "1/3", "2", Decimal("0.1"), 1j):
        with pytest.raises(TypeError):
            build(value)


P7 = PrimeModulus(7)
P7_MINOR = FourierMinor(P7, SupportSet(P7, [0]), SupportSet(P7, [0]))

# Each site that takes a Q(w) value at p = 7 from its caller, fed one value x.
CYCLO_SITES = {
    "SignalFn": lambda x: SignalFn(P7, [x, 0, 0, 0, 0, 0, 0]).values[0],
    "SparsePoly": lambda x: SparsePoly(P7, [(0, x)]).terms[0][1],
    "MultiSignal": lambda x: MultiSignal(P7, 1, {(0,): x}).values[(0,)],
    "minor_cramer": lambda x: minor_cramer(P7_MINOR, [x])[1][0],
    "minor_solve": lambda x: minor_solve(P7_MINOR, [x])[0],
}


@pytest.mark.parametrize("site", CYCLO_SITES)
def test_one_way_into_q_w(site):
    # Every site coerces through CycloNum.of: one rule, one message.
    build = CYCLO_SITES[site]
    for value in (3, Fraction(-2, 5), CycloNum.root_power(P7, 3)):
        assert build(value) == value
    with pytest.raises(ValueError, match=r"^modulus mismatch: value at p=5, expected p=7$"):
        build(CycloNum.root_power(P5, 1))
    with pytest.raises(TypeError):
        build(0.5)


class TestSparsePoly:
    def test_validation(self):
        p5 = PrimeModulus(5)
        with pytest.raises(ValueError):
            SparsePoly(p5, [(5, 1)])
        with pytest.raises(ValueError):
            SparsePoly(p5, [(0, 0)])
        with pytest.raises(ValueError):
            SparsePoly(p5, [(0, 1), (0, 2)])
        with pytest.raises(ValueError):
            SparsePoly(p5, [])

    def test_terms_sorted(self):
        p7 = PrimeModulus(7)
        poly = SparsePoly(p7, [(4, 2), (1, 3)])
        assert [e for e, _ in poly.terms] == [1, 4]
        assert poly.max_zeros == 1


class TestSparseZeroCount:
    def test_linear(self):
        report = sparse_zero_count(SparsePoly(PrimeModulus(5), [(0, -1), (1, 1)]))
        assert report.zeros.members == (0,)
        assert report.max_zeros == 1
        assert report.bound_holds

    def test_cube_roots_are_not_seventh_roots(self):
        # 1 + z + z^2 vanishes at primitive cube roots only; cross-check each
        # evaluation against the complex embedding.
        p7 = PrimeModulus(7)
        poly = SparsePoly(p7, [(0, 1), (1, 1), (2, 1)])
        report = sparse_zero_count(poly)
        assert report.zeros.members == ()
        for t in range(7):
            value = poly.evaluate_at_root(t)
            assert abs(value.embed()) > 1e-9
            assert not value.is_zero()

    def test_minimal_polynomial_attains_bound(self):
        report = sparse_zero_count(SparsePoly(PrimeModulus(5), [(i, 1) for i in range(5)]))
        assert report.zeros.members == (1, 2, 3, 4)
        assert report.max_zeros == 4

    def test_matches_direct_evaluation(self):
        rng = random.Random(401)
        p11 = PrimeModulus(11)
        for _ in range(20):
            exponents = sorted(rng.sample(range(11), rng.randint(2, 6)))
            terms = [(e, rng.choice([c for c in range(-9, 10) if c])) for e in exponents]
            poly = SparsePoly(p11, terms)
            report = sparse_zero_count(poly)
            direct = tuple(t for t in range(11) if poly.evaluate_at_root(t).is_zero())
            assert report.zeros.members == direct

    @pytest.mark.parametrize("p", [101, 211])
    def test_matches_evaluate_at_root_at_large_p(self, p):
        # Few-term polynomials with integer, rational and c * w^k
        # coefficients; the full c * (1 + z + ... + z^(p-1)), zero at every
        # t != 0; and integer coefficients that sum to 0, zero at t = 0.
        rng = random.Random(430 + p)
        modulus = PrimeModulus(p)
        c = Fraction(rng.randint(1, 2**40), 3)
        polys = [[(e, c) for e in range(p)]]
        for k in (2, 3, 5, 8, 12):
            exponents = rng.sample(range(p), k)
            coeffs = [rng.choice([x for x in range(-99, 100) if x]) for _ in range(k - 1)]
            coeffs.append(-sum(coeffs) or 1)
            polys.append(list(zip(exponents, coeffs)))
            polys.append([(e, rng.choice((Fraction(rng.randint(1, 9), rng.randint(2, 7)),
                                          rng.randint(1, 2**70) * CycloNum.root_power(
                                              modulus, rng.randrange(p)))))
                          for e in rng.sample(range(p), k)])
        for terms in polys:
            poly = SparsePoly(modulus, terms)
            zeros = sparse_zero_count(poly).zeros.members
            # p^2 additions evaluate the full polynomial everywhere; it is
            # evaluated at 0, 1, p - 1 and 4 more t.
            ts = range(p) if len(terms) < p else [0, 1, p - 1] + rng.sample(range(2, p - 1), 4)
            assert [t in zeros for t in ts] == [poly.evaluate_at_root(t).is_zero() for t in ts]
            if len(terms) == p:
                assert zeros == tuple(range(1, p))
            elif sum(coeff for _, coeff in terms) == 0:
                assert 0 in zeros

    def test_cyclotomic_coefficients(self):
        p5 = PrimeModulus(5)
        w = CycloNum.root_power(p5, 1)
        # z - w vanishes exactly at z = w, i.e. t = 1.
        report = sparse_zero_count(SparsePoly(p5, [(0, -w), (1, CycloNum.one(p5))]))
        assert report.zeros.members == (1,)

    @pytest.mark.parametrize("p", [2, 7, 13])
    def test_cyclotomic_coefficients_match_idft(self, p):
        # Zeros decided by vanishing_sums against the decoded idft of the
        # coefficient signal, on dense, single-term and rational
        # coefficients.  c * (z^a - w^k z^b) vanishes where (a - b) t = k.
        rng = random.Random(410 + p)
        modulus = PrimeModulus(p)
        polys = []
        for _ in range(12):
            exponents = rng.sample(range(p), rng.randint(1, min(p, 5)))
            coeffs = [rng.choice((random_cyclo(rng, modulus, den_max=4),
                                  Fraction(rng.randint(1, 9), 7) * CycloNum.root_power(
                                      modulus, rng.randrange(p)),
                                  rng.randint(1, 2**70)))
                      for _ in exponents]
            polys.append([(e, c) for e, c in zip(exponents, coeffs) if c != 0])
        for k in range(p):
            c = random_cyclo(rng, modulus, den_max=3) + Fraction(1, 2)
            polys.append([(0, c), (1, -c * CycloNum.root_power(modulus, k))] if p > 2 else [(0, c)])
        for terms in filter(None, polys):
            poly = SparsePoly(modulus, terms)
            values = [CycloNum.zero(modulus)] * p
            for e, c in poly.terms:
                values[e] = c
            spectrum = idft(SignalFn(modulus, values))
            expected = tuple(t for t, v in enumerate(spectrum.values) if v.is_zero())
            assert sparse_zero_count(poly).zeros.members == expected
        if p > 2:
            w = CycloNum.root_power(modulus, 1)
            assert sparse_zero_count(SparsePoly(modulus, [(0, 1), (1, -w)])).zeros.members == (p - 1,)

    def test_random_bound_small_sample(self):
        rng = random.Random(402)
        for p in (11, 31, 101):
            modulus = PrimeModulus(p)
            for _ in range(30):
                k_plus_1 = rng.randint(2, 11)
                exponents = sorted(rng.sample(range(p), k_plus_1))
                terms = [(e, rng.choice([c for c in range(-99, 100) if c]))
                         for e in exponents]
                report = sparse_zero_count(SparsePoly(modulus, terms))
                assert len(report.zeros) <= k_plus_1 - 1


class TestSumset:
    def test_identity_element(self):
        p7 = PrimeModulus(7)
        b = SupportSet(p7, [1, 3, 4])
        assert sumset(SupportSet(p7, [0]), b) == b

    def test_small_interval(self):
        p5 = PrimeModulus(5)
        s = SupportSet(p5, [0, 1])
        assert sumset(s, s).members == (0, 1, 2)

    def test_spread_sets_cover_everything(self):
        p7 = PrimeModulus(7)
        out = sumset(SupportSet(p7, [0, 1, 2]), SupportSet(p7, [0, 2, 4]))
        assert out.members == tuple(range(7))

    def test_monotonicity(self):
        rng = random.Random(403)
        p7 = PrimeModulus(7)
        for _ in range(20):
            a = random_subset(rng, 7)
            bigger = tuple(sorted(set(a) | {rng.randrange(7)}))
            b = random_subset(rng, 7)
            small = sumset(SupportSet(p7, a), SupportSet(p7, b))
            large = sumset(SupportSet(p7, bigger), SupportSet(p7, b))
            assert small.is_subset(large)

    def test_modulus_mismatch(self):
        with pytest.raises(ValueError):
            sumset(SupportSet(PrimeModulus(5), [0]), SupportSet(PrimeModulus(7), [0]))


class TestCauchyDavenportCheck:
    def test_arithmetic_progressions_are_extremal(self):
        p5 = PrimeModulus(5)
        s = SupportSet(p5, [0, 1])
        check = cauchy_davenport_check(s, s)
        assert (check.lhs, check.rhs, check.holds) == (3, 3, True)

    def test_saturation(self):
        p5 = PrimeModulus(5)
        full = SupportSet.full(p5)
        check = cauchy_davenport_check(full, full)
        assert (check.lhs, check.rhs) == (5, 5)

    def test_singletons(self):
        p7 = PrimeModulus(7)
        s = SupportSet(p7, [0])
        check = cauchy_davenport_check(s, s)
        assert (check.lhs, check.rhs) == (1, 1)

    def test_empty_rejected(self):
        p5 = PrimeModulus(5)
        with pytest.raises(ValueError):
            cauchy_davenport_check(SupportSet(p5, []), SupportSet(p5, [0]))


class TestCDProofWitness:
    def test_extreme_singletons_p3(self):
        p3 = PrimeModulus(3)
        s = SupportSet(p3, [0])
        w = cd_proof_witness(s, s)
        assert w.spectrum_a == SupportSet.full(p3)
        assert w.spectrum_b == SupportSet.full(p3)
        assert w.inequality_chain.spectrum_overlap == 3
        assert support(w.conv).members == (0,)
        assert w.inequality_chain.total == 4

    def test_documented_pair_p5(self):
        p5 = PrimeModulus(5)
        s = SupportSet(p5, [0, 1])
        w = cd_proof_witness(s, s)
        assert len(w.spectrum_a) == 4 and len(w.spectrum_b) == 4
        assert w.inequality_chain.spectrum_overlap == 3
        assert len(support(dft(w.conv))) == 3
        assert w.inequality_chain.sumset_size == 3

    def test_full_against_singleton(self):
        p5 = PrimeModulus(5)
        w = cd_proof_witness(SupportSet.full(p5), SupportSet(p5, [2]))
        assert len(w.spectrum_a) == 1 and len(w.spectrum_b) == 5
        assert w.inequality_chain.spectrum_overlap == 1
        assert w.inequality_chain.sumset_size == 5

    def test_invariants_random_pairs(self):
        rng = random.Random(404)
        for p in (3, 5, 7):
            modulus = PrimeModulus(p)
            for _ in range(20):
                a = SupportSet(modulus, random_subset(rng, p))
                b = SupportSet(modulus, random_subset(rng, p))
                w = cd_proof_witness(a, b)
                assert len(w.spectrum_a) == p + 1 - len(a)
                assert len(w.spectrum_b) == p + 1 - len(b)
                overlap = w.spectrum_a.intersection(w.spectrum_b)
                assert len(overlap) == max(len(w.spectrum_a) + len(w.spectrum_b) - p, 1)
                assert support(w.f) == a and support(dft(w.f)) == w.spectrum_a
                assert support(w.g) == b and support(dft(w.g)) == w.spectrum_b
                assert support(dft(w.conv)) == overlap
                assert support(w.conv).is_subset(w.sumset)
                assert w.inequality_chain.total >= p + 1
                assert len(w.sumset) >= min(len(a) + len(b) - 1, p)


class TestMultiSignal:
    def test_table_completed_with_zeros(self):
        p3 = PrimeModulus(3)
        sig = MultiSignal(p3, 2, {(1, 2): 5})
        assert len(sig.values) == 9
        assert sig[(1, 2)] == 5
        assert sig[(0, 0)].is_zero()

    def test_point_validation(self):
        p3 = PrimeModulus(3)
        with pytest.raises(ValueError):
            MultiSignal(p3, 2, {(3, 0): 1})
        with pytest.raises(ValueError):
            MultiSignal(p3, 2, {(0,): 1})

    @pytest.mark.parametrize("p, ndim", [(101, 3), (101, 4), (2, 17), (3, 10**9)])
    def test_oversized_table_rejected_before_building(self, p, ndim):
        # Only rejected shapes: each raises before a single point is stored.
        modulus = PrimeModulus(p)
        with pytest.raises(BudgetExceededError, match=f"\\(Z/{p}Z\\)\\^{ndim} has more than"):
            MultiSignal(modulus, ndim, {(0,) * min(ndim, 4): 1})
        with pytest.raises(BudgetExceededError):
            MultiSignal.constant(modulus, ndim)
        with pytest.raises(BudgetExceededError):
            MultiSignal.dirac(modulus, ndim)

    def test_dimension_below_one_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            MultiSignal(PrimeModulus(3), 0, {})

    def test_support_size(self):
        p3 = PrimeModulus(3)
        sig = MultiSignal(p3, 2, {(0, 0): 1, (2, 2): -1})
        assert sig.support_size() == 2
        assert sig.support_points() == [(0, 0), (2, 2)]


class TestMultiDft:
    def test_dirac_transforms_to_constant(self):
        p3 = PrimeModulus(3)
        spectrum = multi_dft(MultiSignal.dirac(p3, 2))
        assert all(v == Fraction(1, 9) for v in spectrum.values.values())

    def test_tensor_structure(self):
        # The transform of f1(x1)*f2(x2) is the product of the 1-D transforms.
        rng = random.Random(405)
        p3 = PrimeModulus(3)
        f1 = SignalFn(p3, [rng.randint(-4, 4) for _ in range(3)])
        f2 = SignalFn(p3, [rng.randint(-4, 4) for _ in range(3)])
        product = MultiSignal(
            p3, 2,
            {(x1, x2): f1.values[x1] * f2.values[x2]
             for x1 in range(3) for x2 in range(3)},
        )
        spectrum = multi_dft(product)
        F1, F2 = dft(f1), dft(f2)
        for xi1 in range(3):
            for xi2 in range(3):
                assert spectrum[(xi1, xi2)] == F1.values[xi1] * F2.values[xi2]

    def test_round_trip(self):
        rng = random.Random(406)
        p3 = PrimeModulus(3)
        for _ in range(10):
            sig = MultiSignal(
                p3, 2,
                {pt: rng.randint(-5, 5)
                 for pt in itertools.product(range(3), repeat=2)},
            )
            assert multi_idft(multi_dft(sig)) == sig

    def test_one_dimensional_case_matches_dft(self):
        rng = random.Random(407)
        p5 = PrimeModulus(5)
        values = [rng.randint(-5, 5) for _ in range(5)]
        sig = MultiSignal(p5, 1, {(x,): v for x, v in enumerate(values)})
        spectrum = multi_dft(sig)
        F = dft(SignalFn(p5, values))
        for xi in range(5):
            assert spectrum[(xi,)] == F.values[xi]


    @pytest.mark.parametrize("p, ndim", [(3, 3), (5, 2)])
    def test_matches_direct_sum_on_cyclotomic_values(self, p, ndim):
        # Oracle: the O(p^(2n)) definition, summed term by term in CycloNum.
        rng = random.Random(409 + p)
        modulus = PrimeModulus(p)
        points = list(itertools.product(range(p), repeat=ndim))
        values = {pt: random_cyclo(rng, modulus, -6, 6, den_max=4)
                  for pt in points if rng.random() < 0.7}
        sig = MultiSignal(modulus, ndim, values)
        spectrum = multi_dft(sig)
        scale = Fraction(1, p**ndim)
        for xi in points:
            total = CycloNum.zero(modulus)
            for x in points:
                phase = -sum(u * v for u, v in zip(x, xi))
                total = total + sig[x] * CycloNum.root_power(modulus, phase)
            assert spectrum[xi] == total * scale
        assert multi_idft(spectrum) == sig

class TestMeshulamCheck:
    def test_dirac(self):
        report = meshulam_check(MultiSignal.dirac(PrimeModulus(3), 2))
        assert report.support_size == 1
        assert report.fourier_support_size == 9
        assert report.per_j == (True, True)
        assert report.hull_ok
        # j = 1 attains equality: 3*1 + 1*9 = 12 = 9 + 3.
        assert 3 * 1 + 1 * 9 == 12

    def test_coordinate_line_is_extremal(self):
        p3 = PrimeModulus(3)
        line = MultiSignal(p3, 2, {(x, 0): 1 for x in range(3)})
        report = meshulam_check(line)
        assert report.support_size == 3
        assert report.fourier_support_size == 3
        assert report.per_j == (True, True)
        assert report.hull_ok
        assert 1 * 3 + 3 * 3 == 12 and 3 * 3 + 1 * 3 == 12

    def test_constant(self):
        report = meshulam_check(MultiSignal.constant(PrimeModulus(3), 2, 1))
        assert report.support_size == 9
        assert report.fourier_support_size == 1
        assert report.per_j == (True, True)
        assert report.hull_ok

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            meshulam_check(MultiSignal(PrimeModulus(3), 2, {}))

    def test_failed_hull_raises(self, monkeypatch):
        # A transform that returns its input gives a Dirac mass s = sh = 1,
        # below every inequality of the bound.
        monkeypatch.setattr(applications, "multi_dft", lambda signal: signal)
        with pytest.raises(TheoremViolationError,
                           match=r"s=1, sh=1, per_j=\[False, False\], hull_ok=False"):
            meshulam_check(MultiSignal.dirac(PrimeModulus(3), 2))

    def test_exhaustive_binary_functions_on_z2_squared(self):
        p2 = PrimeModulus(2)
        points = list(itertools.product(range(2), repeat=2))
        count = 0
        for bits in itertools.product((0, 1), repeat=4):
            if not any(bits):
                continue
            sig = MultiSignal(p2, 2, dict(zip(points, bits)))
            report = meshulam_check(sig)
            assert all(report.per_j)
            assert report.hull_ok
            count += 1
        assert count == 15

    def test_random_integer_functions_on_z3_cubed(self):
        rng = random.Random(408)
        p3 = PrimeModulus(3)
        points = list(itertools.product(range(3), repeat=3))
        for _ in range(10):
            values = {pt: rng.randint(-3, 3) for pt in points}
            if not any(values.values()):
                values[points[0]] = 1
            report = meshulam_check(MultiSignal(p3, 3, values))
            assert all(report.per_j)
            assert report.hull_ok
