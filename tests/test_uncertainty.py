import collections
import functools
import hashlib
import itertools
import math
import random
import re
from fractions import Fraction

import pytest

from primefourier import (
    BudgetExceededError,
    CycloNum,
    FourierMinor,
    PrimeModulus,
    SignalFn,
    SupportSet,
    TheoremViolationError,
    certify_tightness,
    construct_support_pair,
    dft,
    exhaustive_certification,
    minor_cramer,
    minor_det,
    minor_solve,
    support,
    verify_uncertainty,
)
from primefourier import fourier, uncertainty

from conftest import (
    certification_instances,
    closed_form_counts,
    dilate,
    galois,
    inject_fault,
    integral,
    modulate,
    pivot_det,
    pivot_minor,
    negated,
    random_int_signal,
    solved_side,
    translate,
)


def subsets(p, nonempty=True):
    start = 1 if nonempty else 0
    for n in range(start, p + 1):
        yield from itertools.combinations(range(p), n)


class TestVerifyUncertainty:
    def test_dirac_extreme(self):
        report = verify_uncertainty(SignalFn.dirac(PrimeModulus(5), 0))
        assert report.support_sum == 6
        assert report.support.members == (0,)
        assert len(report.fourier_support) == 5

    def test_constant_extreme(self):
        report = verify_uncertainty(SignalFn.constant(PrimeModulus(5), 1))
        assert report.support_sum == 6
        assert report.fourier_support.members == (0,)

    def test_two_point_signal(self):
        # fhat(xi) = (1 + w^-xi)/5 never vanishes: -1 is not a 5th root of unity.
        report = verify_uncertainty(SignalFn(PrimeModulus(5), [1, 1, 0, 0, 0]))
        assert report.support.members == (0, 1)
        assert len(report.fourier_support) == 5
        assert report.support_sum == 7

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            verify_uncertainty(SignalFn.zero(PrimeModulus(5)))

    def test_bounds_on_random_signals(self):
        rng = random.Random(301)
        for p in (3, 5, 7, 11, 13):
            modulus = PrimeModulus(p)
            for _ in range(50):
                report = verify_uncertainty(random_int_signal(rng, modulus))
                assert report.additive_bound_holds
                assert report.product_bound_holds
                assert report.support_sum >= p + 1
                assert report.support_product >= p

    def test_adversarial_inputs(self):
        p7 = PrimeModulus(7)
        signals = [SignalFn.dirac(p7, 3, Fraction(2, 5))]
        # Characters: x -> w^(bx); indicator-like 0/1 patterns; solve outputs.
        for b in range(7):
            signals.append(SignalFn.constant(p7, 1).modulate(b))
        for pattern in ([1, 1, 1, 0, 0, 0, 0], [1, 0, 1, 0, 1, 0, 1]):
            signals.append(SignalFn(p7, pattern))
        minor = FourierMinor(p7, SupportSet(p7, [0, 2, 3]), SupportSet(p7, [1, 4, 6]))
        sol = minor_solve(minor, [1, 2, 3])
        values = [CycloNum.zero(p7)] * 7
        for x, v in zip([1, 4, 6], sol):
            values[x] = v
        signals.append(SignalFn(p7, values))
        for f in signals:
            report = verify_uncertainty(f)
            assert report.support_sum >= 8

    def test_scaling_invariance(self):
        rng = random.Random(302)
        p7 = PrimeModulus(7)
        f = random_int_signal(rng, p7)
        for lam in (2, Fraction(-3, 7), Fraction(1, 1000)):
            scaled = f * lam
            assert support(scaled) == support(f)
            assert support(dft(scaled)) == support(dft(f))


def _spy_solves(monkeypatch, corrupt_first=False, corrupt_every=False):
    # Records each solve as (minor, rhs, det, numerators); a corrupted solve
    # returns 0 at the first pivot, so its signal misses A.
    calls = []

    def spy(minor, rhs):
        det, numerators = minor_cramer(minor, rhs)
        calls.append((minor, list(rhs), det, numerators))
        if corrupt_every or corrupt_first and len(calls) == 1:
            numerators = [CycloNum.zero(minor.modulus)] + numerators[1:]
        return det, numerators

    monkeypatch.setattr(fourier, "minor_cramer", spy)
    return calls


class TestConstructExactPair:
    # The exact case |A| + |B| = p + 1 of construct_support_pair: one free
    # point, max A, with the weight 1, so f(max A) is the determinant d of
    # the pivot minor and f / d is the witness normalized to f(max A) = 1.

    def test_singleton_support_forces_dirac_type(self):
        p3 = PrimeModulus(3)
        witness = construct_support_pair(SupportSet(p3, [0]), SupportSet.full(p3))
        assert support(witness.signal).members == (0,)
        assert len(support(dft(witness.signal))) == 3

    def test_singleton_spectrum_forces_character_multiple(self):
        p3 = PrimeModulus(3)
        witness = construct_support_pair(SupportSet.full(p3), SupportSet(p3, [0]))
        values = witness.signal.values
        assert values[0] == values[1] == values[2]
        assert not values[0].is_zero()

    def test_composite_modulus_rejected_at_construction(self):
        with pytest.raises(ValueError):
            PrimeModulus(4)

    def test_hand_computed_witness_p3(self):
        # fhat(2) = 0 reads f(0) + w^2 f(2) = 0 on the row -2 = 1; with
        # f(2) = 1 that gives f = (1 + w, 0, 1).
        p3 = PrimeModulus(3)
        witness = construct_support_pair(SupportSet(p3, [0, 2]), SupportSet(p3, [0, 1]))
        assert witness.combination_coeffs == (1,)
        assert witness.signal.values[0].coeffs == (Fraction(1), Fraction(1))
        assert witness.signal.values[1].is_zero()
        assert witness.signal.values[2] == CycloNum.one(p3)
        # Independent re-check of both supports through the exact transform.
        assert support(witness.signal).members == (0, 2)
        assert support(dft(witness.signal)).members == (0, 1)

    def test_empty_rejected(self):
        p5 = PrimeModulus(5)
        with pytest.raises(ValueError):
            construct_support_pair(SupportSet(p5, []), SupportSet.full(p5))

    def test_all_exact_pairs_up_to_p5(self):
        for p in (2, 3, 5):
            modulus = PrimeModulus(p)
            for a in subsets(p):
                for b in subsets(p):
                    if len(a) + len(b) != p + 1:
                        continue
                    a_set, b_set = SupportSet(modulus, a), SupportSet(modulus, b)
                    witness = construct_support_pair(a_set, b_set)
                    assert support(witness.signal).members == a
                    assert support(dft(witness.signal)).members == b
                    assert witness.combination_coeffs == (1,)
                    assert integral(witness.signal)
                    # The side solved, (A, B) or for |A| > |B| (B, -A),
                    # takes det of its pivot minor at its max.
                    solved = solved_side(witness)
                    sa, sb = solved.target_support, solved.target_spectrum
                    normalized = solved.signal * pivot_det(sa, sb).inverse()
                    assert normalized[sa.members[-1]] == CycloNum.one(modulus)

    def test_one_solve_on_rows_minus_b_complement(self, monkeypatch):
        # The rows are -(B^c) = -{0, 3, 5}, sorted (0, 2, 4); the pivots are
        # the first |A| - 1 members of A, and the free point 5 carries the
        # weight 1, so the right-hand side is minus its column.  The witness
        # is the solution with f(5) = 1 times d = det M.
        calls = _spy_solves(monkeypatch)
        p7 = PrimeModulus(7)
        a = SupportSet(p7, [0, 1, 3, 5])
        witness = construct_support_pair(a, SupportSet(p7, [1, 2, 4, 6]))
        assert len(calls) == 1
        minor, rhs, det, numerators = calls[0]
        assert (minor.rows.members, minor.cols.members) == ((0, 2, 4), (0, 1, 3))
        assert rhs == [-CycloNum.root_power(p7, 5 * r) for r in (0, 2, 4)]
        assert det == minor_det(FourierMinor(p7, SupportSet(p7, [0, 2, 4]),
                                             SupportSet(p7, [0, 1, 3])))
        assert [witness.signal[x] for x in (0, 1, 3)] == numerators
        normalized = witness.signal * det.inverse()
        assert [normalized[x] for x in (0, 1, 3)] == minor_solve(minor, rhs)
        assert normalized[5] == CycloNum.one(p7)

    def test_spoilt_solution_raises_at_once(self, monkeypatch):
        # The exact case's bound p(k - 1) + 1 is one try: a witness that
        # misses A is a theorem violation after one solve.
        calls = _spy_solves(monkeypatch, corrupt_first=True)
        p7 = PrimeModulus(7)
        a, b = SupportSet(p7, [0, 1, 3, 5]), SupportSet(p7, [1, 2, 4, 6])
        with pytest.raises(TheoremViolationError, match="1 <= t <= 1 "):
            construct_support_pair(a, b)
        assert len(calls) == 1


class TestConstructSupportPair:
    def test_full_supports(self):
        p5 = PrimeModulus(5)
        full = SupportSet.full(p5)
        witness = construct_support_pair(full, full)
        assert support(witness.signal) == full
        assert support(dft(witness.signal)) == full
        assert len(witness.combination_coeffs) > 0

    def test_oversized_pair(self):
        p5 = PrimeModulus(5)
        witness = construct_support_pair(SupportSet(p5, [0, 1, 2, 3]), SupportSet.full(p5))
        assert support(witness.signal).members == (0, 1, 2, 3)
        assert support(dft(witness.signal)).members == (0, 1, 2, 3, 4)

    def test_below_threshold_rejected(self):
        p5 = PrimeModulus(5)
        with pytest.raises(ValueError):
            construct_support_pair(SupportSet(p5, [0]), SupportSet(p5, [0]))

    def test_deterministic_for_fixed_seed(self):
        # Nothing is drawn: the seed keyword is accepted and ignored, so two
        # seeds give the same witness in the exact and the combination case.
        p7 = PrimeModulus(7)
        a = SupportSet(p7, [0, 1, 2, 3, 4])
        for b in (SupportSet(p7, [0, 2, 4]), SupportSet(p7, [0, 2, 4, 5, 6])):
            witness = construct_support_pair(a, b)
            assert construct_support_pair(a, b, seed=5) == witness
            assert construct_support_pair(a, b, seed=6) == witness

    def test_coefficients_within_documented_range(self):
        # The weights are (1, t, ..., t^(k-1)) with 1 <= t <= p(k - 1) + 1.
        p7 = PrimeModulus(7)
        full = SupportSet.full(p7)
        assert construct_support_pair(full, full).combination_coeffs == (1, 2, 4, 8, 16, 32, 64)
        rng = random.Random(710)
        for _ in range(10):
            a = SupportSet(p7, rng.sample(range(7), rng.randint(1, 7)))
            b = SupportSet(p7, rng.sample(range(7), rng.randint(8 - len(a), 7)))
            coeffs = construct_support_pair(a, b).combination_coeffs
            k = len(a) + len(b) - 7
            t = coeffs[1] if k > 1 else 1
            assert 1 <= t <= 7 * (k - 1) + 1
            assert coeffs == tuple(t ** i for i in range(k))

    def test_full_pair_at_p2_needs_t_2(self):
        # At p=2 the full pair's witness is (lambda_1, lambda_2), with transform
        # value (lambda_1 - lambda_2)/2 at 1, so t = 1 fails and t = 2 works.
        full = SupportSet.full(PrimeModulus(2))
        witness = construct_support_pair(full, full)
        assert witness.combination_coeffs == (1, 2)
        assert support(witness.signal) == full
        assert support(dft(witness.signal)) == full

    def test_witnesses_with_a_at_most_b_are_pinned(self):
        # Every pair with |A| <= |B| is solved on its own pivot minor, so
        # its witness bytes (values and weights) are pinned by a SHA-256
        # over all 4371 such pairs at p = 2, 3, 5 and 7.
        digest = hashlib.sha256()
        for p in (2, 3, 5, 7):
            modulus = PrimeModulus(p)
            sets = list(subsets(p))
            for a in sets:
                for b in sets:
                    if len(a) + len(b) > p and len(a) <= len(b):
                        w = construct_support_pair(SupportSet(modulus, a), SupportSet(modulus, b))
                        digest.update(repr((a, b, w.combination_coeffs, [
                            (v._num, v._den) for v in w.signal.values])).encode())
        assert digest.hexdigest() == (
            "6b85ef3dc8f61f9b1888465ffad89659006919bd50cb5bf5f4a01150b974a085")

    @pytest.mark.parametrize("p, a_size, b_size", [(7, 5, 5), (11, 5, 9), (13, 9, 6),
                                                   (13, 10, 13)])
    def test_free_points_carry_the_weights(self, p, a_size, b_size):
        # The last k = |A| + |B| - p members of the support solved (A, or
        # B when |A| > |B|) are the free coordinates: the solved witness
        # takes the recorded weights there.
        modulus = PrimeModulus(p)
        rng = random.Random(700 + p)
        for _ in range(3):
            a = SupportSet(modulus, rng.sample(range(p), a_size))
            b = SupportSet(modulus, rng.sample(range(p), b_size))
            witness = construct_support_pair(a, b)
            k = a_size + b_size - p
            assert len(witness.combination_coeffs) == k
            assert integral(witness.signal)
            solved = solved_side(witness)
            sa, sb = solved.target_support, solved.target_spectrum
            assert integral(solved.signal)
            normalized = solved.signal * pivot_det(sa, sb).inverse()
            assert [normalized[x] for x in sa.members[-k:]] == [
                CycloNum.from_rational(modulus, c) for c in witness.combination_coeffs]
            assert support(witness.signal) == a
            assert support(dft(witness.signal)) == b

    def test_one_solve_on_the_pivot_minor(self, monkeypatch):
        # n = p - |B| = 2 pivots (the first members of A) against the sorted
        # rows -(B^c) = (4, 6); the free points 2, 3, 4 carry the weights, and
        # their columns, negated and weighted, are the right-hand side.  The
        # witness is the solution with those weights times d = det M.
        calls = _spy_solves(monkeypatch)
        p7 = PrimeModulus(7)
        a = SupportSet(p7, [0, 1, 2, 3, 4])
        witness = construct_support_pair(a, SupportSet(p7, [0, 2, 4, 5, 6]))
        assert len(calls) == 1
        minor, rhs, det, numerators = calls[0]
        assert (minor.rows.members, minor.cols.members) == ((4, 6), (0, 1))
        weights = witness.combination_coeffs
        assert rhs == [sum((-lam * CycloNum.root_power(p7, r * j)
                            for lam, j in zip(weights, (2, 3, 4))), CycloNum.zero(p7))
                       for r in (4, 6)]
        assert det == minor_det(FourierMinor(p7, SupportSet(p7, [4, 6]), SupportSet(p7, [0, 1])))
        assert [witness.signal[0], witness.signal[1]] == numerators
        normalized = witness.signal * det.inverse()
        assert [normalized[0], normalized[1]] == minor_solve(minor, rhs)
        assert [normalized[x] for x in (2, 3, 4)] == [
            CycloNum.from_rational(p7, lam) for lam in weights]

    @pytest.mark.parametrize("a_size, b_size", [(5, 3), (6, 2), (6, 4), (7, 1)])
    def test_a_larger_support_solves_the_smaller_side(self, monkeypatch, a_size, b_size):
        # |A| > |B|: the one solve is on the pivot minor of (B, -A), with
        # p - |A| unknowns (none when A is all of Z/p).
        calls = _spy_solves(monkeypatch)
        p7 = PrimeModulus(7)
        rng = random.Random(a_size * 10 + b_size)
        a = SupportSet(p7, rng.sample(range(7), a_size))
        b = SupportSet(p7, rng.sample(range(7), b_size))
        witness = construct_support_pair(a, b)
        assert [minor.n for minor, *_ in calls] == ([7 - a_size] if a_size < 7 else [])
        expected = pivot_minor(b, negated(a))
        assert [(minor.rows, minor.cols) for minor, *_ in calls] == (
            [(expected.rows, expected.cols)] if expected else [])
        assert support(witness.signal) == a
        assert support(dft(witness.signal)) == b

    def test_the_smaller_side_is_verified(self, monkeypatch):
        # idft(g) is the witness each try checks: a spoilt idft fails every
        # try, so all p(k - 1) + 1 tries run, one idft each, and then the
        # weights are exhausted, in the exact case (k = 1) and with k = 2.
        p7 = PrimeModulus(7)
        real = fourier.idft
        tries = []

        def spoilt(g):
            tries.append(g)
            f = real(g)
            return SignalFn(p7, (CycloNum.zero(p7),) + f.values[1:])

        monkeypatch.setattr(fourier, "idft", spoilt)
        b = SupportSet(p7, [1, 4, 6])
        for a, k in ((SupportSet(p7, [0, 1, 2, 3, 5]), 1), (SupportSet(p7, [0, 1, 2, 3, 4, 5]), 2)):
            tries.clear()
            with pytest.raises(TheoremViolationError,
                               match=rf"^no weights .* with 1 <= t <= {7 * (k - 1) + 1} realize"):
                construct_support_pair(a, b)
            assert len(tries) == 7 * (k - 1) + 1

    @pytest.mark.parametrize("corrupt_first", [False, True])
    def test_each_try_of_the_smaller_side_is_verified_once(self, monkeypatch, corrupt_first):
        # |A| > |B|: each try builds g on the pivot minor of (B, -A) and
        # verifies idft(g) once, against (A, B); g itself is never checked.
        # A spoilt first solve fails t = 1, so t = 2 wins on the second try.
        solves = _spy_solves(monkeypatch, corrupt_first=corrupt_first)
        real_idft, real_verify = fourier.idft, uncertainty._verify_witness_supports
        transformed, verified = [], []

        def idft(g):
            transformed.append(real_idft(g))
            return transformed[-1]

        def verify(signal, support_set, spectrum_set):
            verified.append((signal, support_set, spectrum_set))
            return real_verify(signal, support_set, spectrum_set)

        monkeypatch.setattr(fourier, "idft", idft)
        monkeypatch.setattr(uncertainty, "_verify_witness_supports", verify)
        p7 = PrimeModulus(7)
        a, b = SupportSet(p7, [0, 1, 2, 3, 4, 5]), SupportSet(p7, [1, 4, 6])
        witness = construct_support_pair(a, b)
        tries = 2 if corrupt_first else 1
        assert len(solves) == len(transformed) == len(verified) == tries
        assert [minor.n for minor, *_ in solves] == [1] * tries
        assert all(s is f and (sa, sb) == (a, b)
                   for (s, sa, sb), f in zip(verified, transformed))
        assert witness.signal is transformed[-1]
        assert witness.combination_coeffs == (1, tries)

    def test_full_spectrum_needs_no_solve(self, monkeypatch):
        calls = _spy_solves(monkeypatch)
        p7 = PrimeModulus(7)
        for a in (SupportSet.full(p7), SupportSet(p7, [1, 2, 5])):
            witness = construct_support_pair(a, SupportSet.full(p7))
            assert witness.signal == SignalFn(p7, [
                witness.combination_coeffs[a.members.index(x)] if x in a else 0
                for x in range(7)])
        assert calls == []

    def test_a_failed_attempt_redraws_and_solves_again(self, monkeypatch):
        # The first solution (t = 1) is spoilt at the first pivot, so it
        # misses A, and t = 2, with a solve of its own, wins.
        calls = _spy_solves(monkeypatch, corrupt_first=True)
        p7 = PrimeModulus(7)
        a, b = SupportSet(p7, [0, 1, 2, 3, 4]), SupportSet(p7, [0, 2, 4, 5, 6])
        witness = construct_support_pair(a, b)
        assert len(calls) == 2
        assert witness.combination_coeffs == (1, 2, 4)
        assert support(witness.signal) == a

    @pytest.mark.parametrize("b_members, k", [((1, 2, 4, 6), 1), ((0, 2, 4, 5, 6), 3)])
    def test_every_t_failing_is_a_theorem_violation(self, monkeypatch, b_members, k):
        # A solver that spoils every solution exhausts t = 1, ..., p(k - 1) + 1,
        # one solve each, and then raises.
        calls = _spy_solves(monkeypatch, corrupt_every=True)
        p7 = PrimeModulus(7)
        a = SupportSet(p7, [0, 1, 3, 5] if k == 1 else [0, 1, 2, 3, 4])
        with pytest.raises(TheoremViolationError, match=f"1 <= t <= {7 * (k - 1) + 1} "):
            construct_support_pair(a, SupportSet(p7, b_members))
        assert len(calls) == 7 * (k - 1) + 1


class TestTranslationIdentity:
    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    def test_translate_turns_the_exact_witness(self, p):
        # Translating A by t turns fhat by w^(-t*xi), so the translate still
        # lies on the exact case's line of signals.  The side solved then
        # fixes the scalar: for |A| <= |B| it is (A + t, B), with f(max A)
        # = det of the pivot minor; for |A| > |B| it is (B, -A - t), whose
        # witness g_t is on the line of g * w^(-t*xi) (idft of which is the
        # translate of idft(g)), with g_t(max B) = det of its pivot minor.
        # Both supports survive any nonzero scalar, so only this identity
        # checks the values.
        modulus = PrimeModulus(p)
        rng = random.Random(1000 + p)
        for a_size in (1, rng.randint(2, p - 1), p):
            a = SupportSet(modulus, rng.sample(range(p), a_size))
            b = SupportSet(modulus, rng.sample(range(p), p + 1 - a_size))
            base = construct_support_pair(a, b)
            base_solved = solved_side(base)
            for t in range(p):
                shifted = base.signal.translate(t)
                moved_a = a.translate(t)
                top = moved_a.members[-1]
                moved = construct_support_pair(moved_a, b)
                assert moved.signal * moved.signal[top].inverse() == (
                    shifted * shifted[top].inverse())
                solved = solved_side(moved)
                sa, sb = solved.target_support, solved.target_spectrum
                if solved is moved:
                    pinned = shifted
                else:
                    pinned = base_solved.signal.modulate(-t)
                det = pivot_det(sa, sb)
                at = sa.members[-1]
                assert solved.signal * det.inverse() == pinned * pinned[at].inverse()
                assert solved.signal[at] == det


class TestCramerWitness:
    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_values_are_cramer_numerators(self, p):
        # M c = rhs on the first n members a_i of the support solved (A, or
        # B when |A| > |B|), where rhs is minus the free points' columns
        # weighted by (1, t, ..., t^(k-1)), lies in Z[w].
        # By Cramer's rule f(a_i) = det M * c_i, which M pins, being
        # nonsingular: M applied to those values is det M * rhs.  The free
        # points carry det M times the weights, and every value lies in Z[w].
        modulus = PrimeModulus(p)
        rng = random.Random(1300 + p)
        for k in (1, 3) if p > 3 else (1,):
            for _ in range(4):
                b_size = rng.randint(k, p - 1)
                a = SupportSet(modulus, rng.sample(range(p), p + k - b_size))
                b = SupportSet(modulus, rng.sample(range(p), b_size))
                witness = construct_support_pair(a, b)
                assert integral(witness.signal)
                solved = solved_side(witness)
                sa, sb = solved.target_support, solved.target_spectrum
                f, weights = solved.signal, solved.combination_coeffs
                # With |A| = p the side solved has spectrum Z/p: no minor,
                # and det M is 1.
                minor = pivot_minor(sa, sb)
                n = minor.n if minor else 0
                free = sa.members[n:]
                det = minor_det(minor) if minor else CycloNum.one(modulus)
                if minor:
                    rhs = [sum((-lam * CycloNum.root_power(modulus, r * x)
                                for lam, x in zip(weights, free)), CycloNum.zero(modulus))
                           for r in minor.rows.members]
                    assert minor.apply([f[x] for x in sa.members[:n]]) == [
                        det * v for v in rhs], (a, b)
                assert [f[x] for x in free] == [det * lam for lam in weights]
                assert integral(f)


class TestCertifyTightness:
    def test_singleton_support(self):
        p7 = PrimeModulus(7)
        for b in subsets(7, nonempty=False):
            if len(b) <= 6:
                assert certify_tightness(p7, SupportSet(p7, [3]), SupportSet(p7, b))

    def test_documented_example_p5(self):
        p5 = PrimeModulus(5)
        assert certify_tightness(p5, SupportSet(p5, [0, 1]), SupportSet(p5, [0, 2, 3]))

    def test_exhaustive_p3(self):
        p3 = PrimeModulus(3)
        count = 0
        for a in subsets(3):
            for b in subsets(3, nonempty=False):
                if len(a) + len(b) <= 3:
                    assert certify_tightness(p3, SupportSet(p3, a), SupportSet(p3, b))
                    count += 1
        assert count == 34

    def test_preconditions(self):
        p5 = PrimeModulus(5)
        with pytest.raises(ValueError):
            certify_tightness(p5, SupportSet(p5, []), SupportSet(p5, [0]))
        with pytest.raises(ValueError):
            certify_tightness(p5, SupportSet(p5, [0, 1, 2]), SupportSet(p5, [0, 1, 2]))


class TestExhaustiveCertification:
    def test_counts_p3(self):
        summary = exhaustive_certification(PrimeModulus(3))
        assert summary.minors_checked == 19
        assert summary.tightness_checked == 34
        assert summary.achievability_checked == 22

    def test_counts_p5(self):
        summary = exhaustive_certification(PrimeModulus(5))
        assert summary.minors_checked == 251

    def test_budget(self):
        for p in (23, 31):
            with pytest.raises(BudgetExceededError, match=f"p={p} exceeds"):
                exhaustive_certification(PrimeModulus(p))
        summary = exhaustive_certification(PrimeModulus(2), max_p=2)
        assert summary.minors_checked == 5

    @pytest.mark.parametrize("p, minors, tight, achievable",
                             [(3, 3, 6, 6), (5, 5, 15, 15), (7, 11, 47, 43)])
    def test_one_check_per_representative(self, monkeypatch, p, minors, tight, achievable):
        records = list(uncertainty._certification_orbits(p))
        kinds = [kind for kind, _, _, _ in records]
        assert (kinds.count("minor"), kinds.count("tightness"),
                kinds.count("achievability")) == (minors, tight, achievable)
        # One image elimination per row representative of size n <= p/2,
        # over its column representatives in stream order, and one for the
        # full matrix first.  No exact check (every image is nonzero here),
        # and no computation of its own for a tightness or an achievable one.
        everything = tuple(range(p))
        calls = {"images": [], "minor": [], "tight": [], "built": []}
        spies = [(fourier, "image_dets", "images"),
                 (fourier, "minor_det", "minor"),
                 (uncertainty, "certify_tightness", "tight"),
                 (uncertainty, "construct_support_pair", "built")]
        for module, name, key in spies:
            def spy(*args, _real=getattr(module, name), _key=key):
                calls[_key].append(args[1:])
                return _real(*args)
            monkeypatch.setattr(module, name, spy)
        exhaustive_certification(PrimeModulus(p))
        checked = {}
        for kind, a, b, _ in records:
            if kind == "minor" and 2 * len(a) <= p:
                checked.setdefault(a, []).append(b)
        assert calls["images"] == [(everything, [everything])] + list(checked.items())
        eliminated = 1 + sum(len(cols) for cols in checked.values())
        assert eliminated == {3: 2, 5: 3, 7: 6}[p]
        assert calls["minor"] == calls["tight"] == calls["built"] == []

    def test_achievable_representatives_have_witnesses(self):
        # The sweep derives achievability from the minors; here every
        # achievable representative at p = 11 gets a witness, built and
        # verified exactly (criterion 3 covers every pair at p <= 7).
        modulus = PrimeModulus(11)
        achievable = [(a, b) for kind, a, b, _ in uncertainty._certification_orbits(11)
                      if kind == "achievability"]
        assert len(achievable) == 391
        combined = 0
        for a, b in achievable:
            a_set, b_set = SupportSet(modulus, a), SupportSet(modulus, b)
            witness = construct_support_pair(a_set, b_set)
            assert support(witness.signal) == a_set
            assert support(dft(witness.signal)) == b_set
            k = len(a) + len(b) - 11
            assert len(witness.combination_coeffs) == k
            combined += k > 1
        assert 0 < combined < len(achievable)

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    def test_counts_match_closed_forms(self, monkeypatch, p):
        # Every image in F_q is nonzero here, so the exact determinant, the
        # fallback, is never taken.  The counts come from the orbit sizes
        # per set size, without a single record.
        def no_records(p):
            raise AssertionError("the summary must not walk the record stream")

        exact = []
        monkeypatch.setattr(fourier, "minor_det", lambda minor: exact.append(minor))
        monkeypatch.setattr(uncertainty, "_certification_orbits", no_records)
        summary = exhaustive_certification(PrimeModulus(p))
        counts = closed_form_counts(p)
        assert (summary.minors_checked, summary.tightness_checked,
                summary.achievability_checked) == (
            counts["minor"], counts["tightness"], counts["achievability"])
        assert exact == []

    def test_zero_image_falls_back_to_the_exact_determinant(self, monkeypatch):
        real = fourier.minor_det
        exact = []

        def spy(minor):
            exact.append((minor.rows.members, minor.cols.members))
            return real(minor)

        monkeypatch.setattr(fourier, "image_dets",
                            lambda modulus, rows, col_sets: [0] * len(col_sets))
        monkeypatch.setattr(fourier, "minor_det", spy)
        summary = exhaustive_certification(PrimeModulus(7))
        # The full matrix first, then every representative of size <= 3.
        everything = tuple(range(7))
        assert exact == [(everything, everything)] + [
            (a, b) for kind, a, b, _ in uncertainty._certification_orbits(7)
            if kind == "minor" and len(a) <= 3]
        assert len(exact) == 6
        assert summary.minors_checked == closed_form_counts(7)["minor"]
        assert summary.tightness_checked == closed_form_counts(7)["tightness"]
        assert summary.achievability_checked == closed_form_counts(7)["achievability"]

    def test_real_zero_images_take_the_exact_determinant(self, monkeypatch):
        # 2 has order 11 mod 23, so w -> 2 maps Z[w] at p = 11 into F_23.  23
        # divides the norm of some Fourier minors there: their images vanish
        # (or meet a zero pivot) although the minors are nonsingular, and
        # only the exact determinant can certify them.  The sweep eliminates
        # sizes n <= 5 and the full matrix; the zero images among them are at
        # sizes 4 and 5.  Each minor is imaged once: one image_dets call for
        # the full matrix and one per row representative, and each zero
        # image goes straight to one exact determinant.
        assert pow(2, 11, 23) == 1
        real_images, real_det = fourier.image_dets, fourier.minor_det
        calls, zeros, exact = [], [], []

        def spy_images(modulus, rows, col_sets):
            images = real_images(modulus, rows, col_sets)
            calls.append(rows)
            zeros.extend((rows, cols) for cols, image in zip(col_sets, images) if not image)
            return images

        def spy_det(minor):
            exact.append((minor.rows.members, minor.cols.members))
            return real_det(minor)

        monkeypatch.setattr(fourier, "image_prime", lambda p: (23, 2))
        monkeypatch.setattr(fourier, "image_dets", spy_images)
        monkeypatch.setattr(fourier, "minor_det", spy_det)
        summary = exhaustive_certification(PrimeModulus(11))
        counts = closed_form_counts(11)
        assert (summary.minors_checked, summary.tightness_checked,
                summary.achievability_checked) == (
            counts["minor"], counts["tightness"], counts["achievability"])
        representatives = {a for kind, a, _, _ in uncertainty._certification_orbits(11)
                           if kind == "minor" and len(a) <= 5}
        assert len(calls) == 1 + len(representatives)
        assert len(zeros) == 5
        assert exact == zeros
        assert {len(rows) for rows, _ in exact} == {4, 5}
        assert ((0, 1, 2, 4), (0, 1, 2, 4)) in exact

    def test_singular_minor_names_rows_and_cols(self, monkeypatch):
        # ((0, 1, 2, 4), (0, 1, 2, 4)) is a representative of 4 x 4 minors at
        # p = 11, a checked size, whose image in F_23 vanishes; its exact
        # determinant is made to vanish too.
        real_det = fourier.minor_det
        bad = ((0, 1, 2, 4), (0, 1, 2, 4))

        def fake_det(minor):
            if (minor.rows.members, minor.cols.members) == bad:
                return CycloNum.zero(minor.modulus)
            return real_det(minor)

        monkeypatch.setattr(fourier, "image_prime", lambda p: (23, 2))
        monkeypatch.setattr(fourier, "minor_det", fake_det)
        with pytest.raises(TheoremViolationError,
                           match=r"^zero minor rows=\(0, 1, 2, 4\) cols=\(0, 1, 2, 4\) p=11$"):
            exhaustive_certification(PrimeModulus(11))
        monkeypatch.undo()
        # The first two residues outside B = {} are the rows of A's certificate.
        inject_fault(monkeypatch, ((0, 1), (0, 1)))
        p3 = PrimeModulus(3)
        with pytest.raises(TheoremViolationError,
                           match=r"^tightness certificate failed: singular minor "
                                 r"rows=\(0, 1\) cols=\(0, 1\) \(p=3\)$"):
            certify_tightness(p3, SupportSet(p3, [0, 1]), SupportSet(p3, []))
        assert certify_tightness(p3, SupportSet(p3, [0, 2]), SupportSet(p3, []))

    @pytest.mark.parametrize("bad, checked", [
        (((0, 1, 3), (0, 1, 3)), True),
        (((0,), (0,)), True),
        (((0, 1, 2, 3), (0, 1, 2, 4)), False),
        (((0, 1, 2, 3, 4, 5), (0, 1, 2, 3, 4, 5)), False),
    ])
    def test_faults_are_consulted_only_at_checked_sizes(self, monkeypatch, bad, checked):
        # At p = 7 the sizes 1 to 3 and 7 are eliminated; 4 to 6 follow by
        # complementation, so a fault there is never looked at.
        modulus = PrimeModulus(7)
        records = list(uncertainty._certification_orbits(7))
        assert ("minor", *bad) in [record[:3] for record in records]
        consulted = inject_fault(monkeypatch, bad)
        if checked:
            message = re.escape(f"zero minor rows={bad[0]} cols={bad[1]} p=7")
            with pytest.raises(TheoremViolationError, match=f"^{message}$"):
                exhaustive_certification(modulus)
            assert consulted == [bad]
        else:
            summary = exhaustive_certification(modulus)
            counts = closed_form_counts(7)
            assert (summary.minors_checked, summary.tightness_checked,
                    summary.achievability_checked) == (
                counts["minor"], counts["tightness"], counts["achievability"])
            assert consulted == []


def burnside_orbit_counts(p):
    """N_n, the number of AGL(1,p)-orbits of n-sets, from fixed points alone.

    The identity fixes all C(p, n) n-sets and each of the p - 1 translations
    only the empty set and Z/p.  Each of the p maps x -> u*x + t for a unit
    u != 1 of order d has one fixed point and (p - 1)/d cycles of length d,
    so it fixes the unions of its cycles, with or without the fixed point.
    """
    fixed = [math.comb(p, n) + (p - 1) * (n in (0, p)) for n in range(p + 1)]
    for u in range(2, p):
        d = next(k for k in range(1, p) if pow(u, k, p) == 1)
        cycles = (p - 1) // d
        for n in range(p + 1):
            for k in (n, n - 1):  # the fixed point left out, or put in
                if k >= 0 and k % d == 0:
                    fixed[n] += p * math.comb(cycles, k // d)
    assert all(total % (p * (p - 1)) == 0 for total in fixed)
    return [total // (p * (p - 1)) for total in fixed]


def canonical(members, p):
    """The least bitmask among the affine images u*S + t, as a residue tuple."""
    best = min(sum(1 << (u * x + t) % p for x in members)
               for u in range(1, p) for t in range(p))
    return tuple(x for x in range(p) if best >> x & 1)


class TestCertificationOrbits:
    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    def test_orbit_sizes_cover_every_instance(self, p):
        by_size = uncertainty._set_orbits(p)
        assert len(by_size) == p + 1
        for n, orbits in enumerate(by_size):
            assert all(len(rep) == n for rep, _ in orbits)
            assert sum(size for _, size in orbits) == math.comb(p, n)
            assert all(p * (p - 1) % size == 0 for _, size in orbits)
        assert sum(size for orbits in by_size for _, size in orbits) == 2 ** p
        weights = {"minor": 0, "tightness": 0, "achievability": 0}
        for kind, _, _, orbit_size in uncertainty._certification_orbits(p):
            weights[kind] += orbit_size
        assert weights == closed_form_counts(p)

    def test_set_orbits_are_cached_and_immutable(self):
        uncertainty._set_orbits.cache_clear()
        first = uncertainty._set_orbits(7)
        assert uncertainty._set_orbits(7) is first
        assert uncertainty._set_orbits.cache_info().misses == 1
        assert isinstance(first, tuple) and all(isinstance(o, tuple) for o in first)

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    def test_set_orbits_match_sets_of_images(self, p):
        # Reference: each orbit as the set of its images u*S + t, built from
        # residue sets, its representative the image of least bitmask.
        def mask(members):
            return sum(1 << x for x in members)

        reference = [[] for _ in range(p + 1)]
        done = set()
        for n in range(p + 1):
            for members in itertools.combinations(range(p), n):
                if members in done:
                    continue
                orbit = {tuple(sorted((u * x + t) % p for x in members))
                         for u in range(1, p) for t in range(p)}
                done |= orbit
                reference[n].append((min(orbit, key=mask), len(orbit)))
        assert uncertainty._set_orbits(p) == tuple(tuple(sorted(o)) for o in reference)

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_set_orbits_match_burnside(self, p):
        orbits = burnside_orbit_counts(p)
        assert orbits == [len(reps) for reps in uncertainty._set_orbits(p)]
        minor_reps = sum(k * (k + 1) // 2 for k in orbits[1:])
        assert minor_reps == {3: 3, 5: 5, 7: 11, 11: 73, 13: 393}[p]

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    def test_tightness_certificates_lie_in_minor_orbits(self, p):
        # The sweep computes nothing for a tightness pair (A, B): its
        # certificate minor, rows the first |A| residues outside B and
        # columns A, must lie in the orbit of a checked minor record.
        canon = functools.lru_cache(maxsize=None)(lambda members: canonical(members, p))
        records = list(uncertainty._certification_orbits(p))
        minors = {(a, b) for kind, a, b, _ in records if kind == "minor"}
        reached = set()
        for kind, a, b, _ in records:
            if kind != "tightness":
                continue
            outside = [x for x in range(p) if x not in b]
            pair = tuple(sorted((canon(tuple(outside[:len(a)])), canon(a))))
            assert pair in minors, (a, b, pair)
            reached.add(pair)
        assert reached == minors

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_every_instance_maps_to_a_representative(self, p):
        # The reference stream has the closed-form count of each kind, and its
        # tightness and achievable pairs cover every (A nonempty, B) once.
        instances = list(certification_instances(p))
        kinds = collections.Counter(kind for kind, _, _ in instances)
        assert kinds == closed_form_counts(p)
        assert all((len(a) + len(b) > p) == (kind == "achievability")
                   for kind, a, b in instances if kind != "minor")
        pairs = [(a, b) for kind, a, b in instances if kind != "minor"]
        assert sorted(pairs) == sorted(itertools.product(subsets(p), subsets(p, nonempty=False)))
        # Each instance, canonicalised here, lands on a representative of its
        # own kind, and each representative collects exactly its orbit.
        landed = collections.Counter()
        for kind, first, second in instances:
            first, second = canonical(first, p), canonical(second, p)
            if kind == "minor":
                first, second = sorted((first, second))
            landed[kind, first, second] += 1
        records = list(uncertainty._certification_orbits(p))
        assert len({record[:3] for record in records}) == len(records)
        assert landed == {(kind, a, b): size for kind, a, b, size in records}

    def test_orbit_stream_order(self):
        records = list(uncertainty._certification_orbits(7))
        order = ["minor", "tightness", "achievability"]
        kinds = [kind for kind, _, _, _ in records]
        assert kinds == sorted(kinds, key=order.index)
        for kind in order:
            pairs = [(a, b) for k, a, b, _ in records if k == kind]
            assert pairs == sorted(pairs, key=lambda ab: (len(ab[0]), len(ab[1]), ab))

    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    def test_group_action_moves_the_witness(self, p):
        # (u, t, k, s) maps supports (A, B) to (u*A + t, k*u^-1*B + s).  u and
        # k avoid +-1 and t, s avoid 0, so each draw moves what a wrong
        # exponent in any one generator would move elsewhere.
        modulus = PrimeModulus(p)
        rng = random.Random(600 + p)
        achievable = [(a, b) for kind, a, b, _ in uncertainty._certification_orbits(p)
                      if kind == "achievability"]
        for a, b in rng.sample(achievable, 3):
            signal = construct_support_pair(SupportSet(modulus, a), SupportSet(modulus, b)).signal
            for _ in range(3):
                u, k = rng.randrange(2, p - 1), rng.randrange(2, p - 1)
                t, s = rng.randrange(1, p), rng.randrange(1, p)
                moved = modulate(translate(galois(dilate(signal, u), k), t), s)
                u_inv = pow(u, -1, p)
                assert support(moved) == SupportSet(modulus, ((u * x + t) % p for x in a))
                assert support(dft(moved)) == SupportSet(
                    modulus, ((k * u_inv * y + s) % p for y in b))
