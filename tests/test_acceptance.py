"""Acceptance suite: one test per exit criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; everything in the exact path is asserted with no tolerance, the
floating oracle uses the stated explicit tolerances.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from primefourier import (
    CycloNum,
    FourierMinor,
    MultiSignal,
    PrimeModulus,
    SignalFn,
    SparsePoly,
    SupportSet,
    cauchy_davenport_check,
    cd_proof_witness,
    certify_tightness,
    construct_support_pair,
    convolve,
    dft,
    idft,
    meshulam_check,
    minor_det,
    sparse_zero_count,
    support,
    verify_uncertainty,
)

from conftest import float_dft, integral, pivot_det, random_dense_signal, solved_side


def _report(number: int, description: str, ok: bool) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {number} failed: {description}"


def nonempty_subsets(p):
    for n in range(1, p + 1):
        yield from itertools.combinations(range(p), n)


def test_criterion_1_minor_certification():
    """Every equal-size Fourier minor is nonsingular, exhaustively for p <= 7."""
    elapsed_p7 = None
    for p in (2, 3, 5, 7):
        modulus = PrimeModulus(p)
        start = time.perf_counter()
        checked = 0
        for n in range(1, p + 1):
            subsets = list(itertools.combinations(range(p), n))
            for rows in subsets:
                for cols in subsets:
                    det = minor_det(FourierMinor(
                        modulus, SupportSet(modulus, rows), SupportSet(modulus, cols)
                    ))
                    assert not det.is_zero(), (p, rows, cols)
                    checked += 1
        elapsed = time.perf_counter() - start
        if p == 7:
            elapsed_p7 = elapsed
        expected = math.comb(2 * p, p) - 1
        assert expected == sum(math.comb(p, n) ** 2 for n in range(1, p + 1))
        assert checked == expected, (p, checked, expected)
    assert elapsed_p7 is not None and elapsed_p7 < 60.0
    _report(1, f"minor determinants nonzero for p in (2,3,5,7); "
               f"counts 5/19/251/3431; p=7 took {elapsed_p7:.1f}s < 60s", True)


def test_criterion_2_forward_uncertainty():
    """Tightness certified for |A|+|B| <= p; additive bound on random signals."""
    tight_counts = {}
    for p in (3, 5, 7):
        modulus = PrimeModulus(p)
        count = 0
        for a in nonempty_subsets(p):
            max_b = p - len(a)
            for b_size in range(0, max_b + 1):
                for b in itertools.combinations(range(p), b_size):
                    assert certify_tightness(
                        modulus, SupportSet(modulus, a), SupportSet(modulus, b)
                    )
                    count += 1
        tight_counts[p] = count
    verified = 0
    for p in (3, 5, 7, 11, 13):
        modulus = PrimeModulus(p)
        rng = random.Random(1000 + p)
        for _ in range(10_000):
            values = [rng.randint(-9, 9) for _ in range(p)]
            if not any(values):
                values[rng.randrange(p)] = 1
            report = verify_uncertainty(SignalFn(modulus, values))
            assert report.support_sum >= p + 1
            assert report.support_product >= p
            verified += 1
    # Integer signals have |supp fhat| in {1, p - 1, p} (the nonzero
    # frequencies are Galois conjugates), so they rarely meet the bound.
    # Exact witnesses and their Z[w] multiples sit on it: |A| + |B| = p + 1.
    boundary = 0
    for p in (5, 7, 11, 13):
        modulus = PrimeModulus(p)
        rng = random.Random(2000 + p)
        for _ in range(4):
            a_size = rng.randint(2, p - 1)
            a = SupportSet(modulus, rng.sample(range(p), a_size))
            b = SupportSet(modulus, rng.sample(range(p), p + 1 - a_size))
            scale = CycloNum.zero(modulus)
            while scale.is_zero():
                scale = CycloNum(modulus, [rng.randint(-9, 9) for _ in range(p - 1)])
            signal = construct_support_pair(a, b).signal
            for f in (signal, signal * scale):
                assert verify_uncertainty(f).support_sum == p + 1, (p, a, b)
                boundary += 1
    _report(2, f"tightness certified ({tight_counts}); additive bound on "
               f"{verified} random signals and met with equality by "
               f"{boundary} Q(w)-valued boundary signals", True)


def test_criterion_3_constructive_converse():
    """Every (A, B) with |A|+|B| >= p+1 is achieved with exact support equality."""
    built = 0
    combined = 0
    for p in (3, 5, 7):
        modulus = PrimeModulus(p)
        for a in nonempty_subsets(p):
            for b in nonempty_subsets(p):
                if len(a) + len(b) < p + 1:
                    continue
                a_set = SupportSet(modulus, a)
                b_set = SupportSet(modulus, b)
                witness = construct_support_pair(a_set, b_set)
                # Independent re-check through the exact transform.
                assert support(witness.signal) == a_set
                assert support(dft(witness.signal)) == b_set
                # One weight per free point; the exact case's one is 1, so
                # the witness of the side solved, (A, B) or for |A| > |B|
                # (B, -A), over det of its pivot minor is 1 at its max.
                k = len(a) + len(b) - p
                assert len(witness.combination_coeffs) == k
                assert integral(witness.signal)
                solved = solved_side(witness)
                if k == 1:
                    assert witness.combination_coeffs == (1,)
                    sa, sb = solved.target_support, solved.target_spectrum
                    normalized = solved.signal * pivot_det(sa, sb).inverse()
                    assert normalized[sa.members[-1]] == CycloNum.one(modulus)
                else:
                    combined += 1
                built += 1
    _report(3, f"{built} support pairs achieved exactly; combination stage "
               f"used on {combined} oversized pairs, budget never exhausted", True)


def test_criterion_4_sparse_zero_bounds():
    """k+1 terms admit at most k zeros among the p-th roots of unity."""
    checked = 0
    for p in (11, 31, 101):
        modulus = PrimeModulus(p)
        rng = random.Random(4000 + p)
        for _ in range(1000):
            term_count = rng.randint(2, 11)
            exponents = sorted(rng.sample(range(p), term_count))
            terms = [(e, rng.choice([c for c in range(-99, 100) if c]))
                     for e in exponents]
            report = sparse_zero_count(SparsePoly(modulus, terms))
            assert len(report.zeros) <= term_count - 1
            assert report.bound_holds
            checked += 1
    equality = sparse_zero_count(
        SparsePoly(PrimeModulus(5), [(i, 1) for i in range(5)])
    )
    assert equality.zeros.members == (1, 2, 3, 4)
    assert len(equality.zeros) == equality.max_zeros == 4
    _report(4, f"{checked} random sparse polynomials within the zero bound; "
               f"1+z+...+z^4 attains k=4 zeros at p=5", True)


def test_criterion_5_cauchy_davenport():
    """|A+B| >= min(|A|+|B|-1, p) exhaustively; witness invariants on samples."""
    pair_counts = {}
    for p in (2, 3, 5, 7):
        modulus = PrimeModulus(p)
        all_sets = [SupportSet(modulus, s) for s in nonempty_subsets(p)]
        count = 0
        for a in all_sets:
            for b in all_sets:
                check = cauchy_davenport_check(a, b)
                assert check.holds and check.lhs >= check.rhs
                count += 1
        pair_counts[p] = count
    assert pair_counts[7] == 127**2
    witnesses = 0
    for p in (3, 5, 7, 11):
        modulus = PrimeModulus(p)
        rng = random.Random(5000 + p)
        for _ in range(200):
            a = SupportSet(modulus, rng.sample(range(p), rng.randint(1, p)))
            b = SupportSet(modulus, rng.sample(range(p), rng.randint(1, p)))
            w = cd_proof_witness(a, b)
            overlap = w.spectrum_a.intersection(w.spectrum_b)
            assert len(w.spectrum_a) == p + 1 - len(a)
            assert len(w.spectrum_b) == p + 1 - len(b)
            assert len(overlap) == max(len(w.spectrum_a) + len(w.spectrum_b) - p, 1)
            assert support(w.f) == a and support(dft(w.f)) == w.spectrum_a
            assert support(w.g) == b and support(dft(w.g)) == w.spectrum_b
            assert support(dft(w.conv)) == overlap
            assert support(w.conv).is_subset(w.sumset)
            assert w.inequality_chain.total >= p + 1
            assert len(w.sumset) >= min(len(a) + len(b) - 1, p)
            witnesses += 1
    _report(5, f"sumset bound exhaustive ({pair_counts}); "
               f"{witnesses} proof witnesses verified", True)


def test_criterion_6_meshulam_bound():
    """All 511 nonzero 0/1 functions on (Z/3Z)^2 satisfy every j and the hull."""
    p3 = PrimeModulus(3)
    points = list(itertools.product(range(3), repeat=2))
    count = 0
    for bits in itertools.product((0, 1), repeat=9):
        if not any(bits):
            continue
        report = meshulam_check(MultiSignal(p3, 2, dict(zip(points, bits))))
        assert all(report.per_j), bits
        assert report.hull_ok, bits
        count += 1
    assert count == 511
    dirac = meshulam_check(MultiSignal.dirac(p3, 2))
    assert 3 * dirac.support_size + 1 * dirac.fourier_support_size == 12  # j=1 equality
    line = meshulam_check(MultiSignal(p3, 2, {(x, 0): 1 for x in range(3)}))
    assert 1 * line.support_size + 3 * line.fourier_support_size == 12
    assert 3 * line.support_size + 1 * line.fourier_support_size == 12
    _report(6, "511 binary functions on (Z/3Z)^2 satisfy the lattice bound; "
               "equality at the point mass and the coordinate line", True)


def _plancherel_holds(f: SignalFn, exact: SignalFn) -> bool:
    lhs = CycloNum.zero(f.modulus)
    for v in f.values:
        lhs = lhs + v * v.conj()
    lhs = lhs * Fraction(1, f.modulus.p)
    rhs = CycloNum.zero(f.modulus)
    for v in exact.values:
        rhs = rhs + v * v.conj()
    return lhs == rhs


def test_criterion_7_oracle_agreement(oracle_corpus):
    """Exact transform matches the floating oracle; Plancherel holds exactly."""
    worst = 0.0
    for f in oracle_corpus:
        p = f.modulus.p
        exact = dft(f)
        oracle = float_dft(f.embed(), p)
        for xi in range(p):
            worst = max(worst, abs(exact[xi].embed() - oracle[xi]))
        assert worst < 1e-9
        assert _plancherel_holds(f, exact)
    # Q(w)-valued signals, dense with 30-bit numerators over mixed
    # denominators; the float error is measured relative to their l1 size.
    worst_relative = 0.0
    rng = random.Random(20241)
    for p in (5, 11, 23, 53, 101):
        f = random_dense_signal(rng, PrimeModulus(p))
        magnitude = sum(abs(float(c)) for v in f.values for c in v.coeffs)
        exact = dft(f)
        oracle = float_dft(f.embed(), p)
        for xi in range(p):
            worst_relative = max(worst_relative, abs(exact[xi].embed() - oracle[xi]) / magnitude)
        assert worst_relative < 1e-12
        assert _plancherel_holds(f, exact)
    _report(7, f"floating DFT agreement on 100 integer signals "
               f"(max |diff| = {worst:.2e} < 1e-9) and 5 dense Q(w) signals "
               f"(max |diff| / l1 = {worst_relative:.2e} < 1e-12); Plancherel exact", True)


def test_criterion_8_round_trip_and_convolution(oracle_corpus):
    """idft(dft(f)) = f and dft(f*g) = p * fhat * ghat, exactly, on the corpus."""
    for f in oracle_corpus:
        assert idft(dft(f)) == f
    by_prime: dict[int, list[SignalFn]] = {}
    for f in oracle_corpus:
        by_prime.setdefault(f.modulus.p, []).append(f)
    pairs = 0
    for p, group in sorted(by_prime.items()):
        for f, g in zip(group, group[1:]):
            lhs = dft(convolve(f, g))
            rhs = SignalFn(
                f.modulus,
                [p * a * b for a, b in zip(dft(f).values, dft(g).values)],
            )
            assert lhs == rhs
            pairs += 1
    assert pairs >= 50
    _report(8, f"round trip exact on 100 signals; convolution theorem exact "
               f"on {pairs} pairs", True)
