"""The additive support bound on Z/pZ and its constructive converse.

Forward direction: every nonzero signal satisfies |supp f| + |supp fhat| >=
p + 1 (and the classical product bound |supp f| * |supp fhat| >= p).
Converse: for any nonempty target sets A, B with |A| + |B| >= p + 1 there is
a signal supported exactly on A whose transform is supported exactly on B;
the construction here produces one and verifies both supports exactly.
Tightness: when |A| + |B| <= p, no nonzero signal fits inside (A, B), which
is certified through a single nonzero minor determinant.
"""

from __future__ import annotations

import itertools
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from . import fourier
from .cyclotomic import CycloNum, PrimeModulus
from .errors import BudgetExceededError, TheoremViolationError
from .fourier import SignalFn, SupportSet

DEFAULT_MAX_CERTIFY_P = 7
DEFAULT_MAX_ATTEMPTS = 32
COEFF_RANGE = 1 << 16


@dataclass(frozen=True)
class UncertaintyReport:
    """Exact support statistics of one nonzero signal, with both bounds."""

    p: int
    support: SupportSet
    fourier_support: SupportSet
    support_sum: int
    support_product: int
    additive_bound_holds: bool
    product_bound_holds: bool


@dataclass(frozen=True)
class AchievabilityWitness:
    """A signal realizing prescribed supports, plus how it was built.

    aux_frequencies is the frequency set used to pin the transform in the
    exact-size case (|A| + |B| = p + 1); combination_coeffs holds the random
    integer weights of the combination stage and is empty when unused.
    """

    target_support: SupportSet
    target_spectrum: SupportSet
    signal: SignalFn
    aux_frequencies: SupportSet | None
    combination_coeffs: tuple[int, ...]


@dataclass(frozen=True)
class CertificationSummary:
    """Counts from one exhaustive certification sweep (all checks passed)."""

    p: int
    minors_checked: int
    tightness_checked: int
    achievability_checked: int


def verify_uncertainty(f: SignalFn) -> UncertaintyReport:
    """Compute both supports exactly and assert both uncertainty bounds."""
    if f.is_zero():
        raise ValueError("the zero signal has empty support; bounds need a nonzero input")
    p = f.modulus.p
    supp = fourier.support(f)
    fsupp = fourier.support(fourier.dft(f))
    total = len(supp) + len(fsupp)
    product = len(supp) * len(fsupp)
    additive = total >= p + 1
    multiplicative = product >= p
    if not (additive and multiplicative):
        raise TheoremViolationError(
            f"support bound failed for p={p}: |supp f|={len(supp)}, "
            f"|supp fhat|={len(fsupp)}"
        )
    return UncertaintyReport(p, supp, fsupp, total, product, additive, multiplicative)


def _check_constructible(support_set: SupportSet, spectrum_set: SupportSet) -> PrimeModulus:
    if support_set.modulus != spectrum_set.modulus:
        raise ValueError("modulus mismatch between target sets")
    if len(support_set) == 0 or len(spectrum_set) == 0:
        raise ValueError("target sets must be nonempty")
    return support_set.modulus


def construct_exact_pair(support_set: SupportSet, spectrum_set: SupportSet) -> AchievabilityWitness:
    """Realize supports (A, B) in the exact case |A| + |B| = p + 1.

    Deterministic: the auxiliary frequency set is the complement of B plus
    min(B), so it meets B in exactly one point; the signal is the unique
    element of l2(A) whose transform is 1 there and 0 on the rest of the
    auxiliary set.  Both supports are then forced and are re-verified
    exactly before returning.
    """
    modulus = _check_constructible(support_set, spectrum_set)
    p = modulus.p
    if len(support_set) + len(spectrum_set) != p + 1:
        raise ValueError(
            f"|A| + |B| must equal p + 1 = {p + 1}, got "
            f"{len(support_set)} + {len(spectrum_set)}"
        )
    pinned = spectrum_set.members[0]
    aux = SupportSet(modulus, spectrum_set.complement().members + (pinned,))
    # The transform restricted to l2(A), evaluated on the auxiliary set, has
    # matrix (1/p) * w^(-eta*a); negating the row labels turns it into a
    # standard minor.
    rows = SupportSet(modulus, ((-eta) % p for eta in aux))
    minor = fourier.minor_matrix(modulus, rows, support_set)
    target_row = (-pinned) % p
    rhs = [p if r == target_row else 0 for r in rows.members]
    sol = fourier.minor_solve(minor, rhs)
    values: list[CycloNum] = [CycloNum.zero(modulus)] * p
    for a, v in zip(support_set.members, sol):
        values[a] = v
    signal = SignalFn(modulus, values)
    _verify_witness_supports(signal, support_set, spectrum_set)
    return AchievabilityWitness(support_set, spectrum_set, signal, aux, ())


def _verify_witness_supports(signal: SignalFn, support_set: SupportSet,
                             spectrum_set: SupportSet) -> bool:
    got_support = fourier.support(signal)
    got_spectrum = fourier.support(fourier.dft(signal))
    if got_support != support_set or got_spectrum != spectrum_set:
        raise TheoremViolationError(
            f"constructed signal has supports {got_support.members} / "
            f"{got_spectrum.members}, expected {support_set.members} / "
            f"{spectrum_set.members}"
        )
    return True


def _cover_blocks(members: tuple[int, ...], size: int) -> list[tuple[int, ...]]:
    # Consecutive blocks in sorted order; a short tail block is replaced by
    # the last `size` elements, so every block has exactly `size` members and
    # the union is the whole set.
    blocks = []
    for start in range(0, len(members), size):
        block = members[start:start + size]
        if len(block) < size:
            block = members[-size:]
        blocks.append(block)
    return blocks


def construct_support_pair(support_set: SupportSet, spectrum_set: SupportSet,
                           seed: int = 0,
                           max_attempts: int = DEFAULT_MAX_ATTEMPTS) -> AchievabilityWitness:
    """Realize supports (A, B) for any nonempty sets with |A| + |B| >= p + 1.

    The exact case delegates to construct_exact_pair.  Otherwise A is covered
    by blocks A_i of size p + 1 - |B|, each paired with B itself; the block
    witnesses are combined with seeded random integer weights in
    [1, 2^16] and the combination is kept only if both supports verify
    exactly, redrawing up to max_attempts times.
    """
    modulus = _check_constructible(support_set, spectrum_set)
    p = modulus.p
    total = len(support_set) + len(spectrum_set)
    if total < p + 1:
        raise ValueError(
            f"|A| + |B| = {total} is below p + 1 = {p + 1}; such a pair is "
            "unreachable by any nonzero signal"
        )
    if total == p + 1:
        return construct_exact_pair(support_set, spectrum_set)
    block_size = p + 1 - len(spectrum_set)
    parts = [
        construct_exact_pair(SupportSet(modulus, block), spectrum_set).signal
        for block in _cover_blocks(support_set.members, block_size)
    ]
    rng = random.Random(seed)
    for _ in range(max_attempts):
        coeffs = [rng.randint(1, COEFF_RANGE) for _ in parts]
        combined = SignalFn.zero(modulus)
        for lam, part in zip(coeffs, parts):
            combined = combined + part * lam
        if (fourier.support(combined) == support_set
                and fourier.support(fourier.dft(combined)) == spectrum_set):
            return AchievabilityWitness(
                support_set, spectrum_set, combined, None, tuple(coeffs)
            )
    raise BudgetExceededError(
        f"no generic combination found in {max_attempts} attempts "
        f"(seed={seed}, A={support_set.members}, B={spectrum_set.members})"
    )


def certify_tightness(modulus: PrimeModulus, support_set: SupportSet,
                      spectrum_set: SupportSet) -> bool:
    """Certify that no nonzero signal has supp f inside A and supp fhat inside B.

    Requires |A| + |B| <= p with A nonempty.  Picks the first |A| frequencies
    outside B and confirms the corresponding minor determinant is nonzero:
    a signal in l2(A) whose transform dies there must be zero.
    """
    if support_set.modulus != modulus or spectrum_set.modulus != modulus:
        raise ValueError("modulus mismatch")
    if len(support_set) == 0:
        raise ValueError("A must be nonempty")
    if len(support_set) + len(spectrum_set) > modulus.p:
        raise ValueError(
            f"|A| + |B| = {len(support_set) + len(spectrum_set)} exceeds p = "
            f"{modulus.p}; tightness only applies at or below p"
        )
    aux = spectrum_set.complement().members[:len(support_set)]
    det = fourier._cached_minor_det(modulus.p, aux, support_set.members)
    if det.is_zero():
        raise TheoremViolationError(
            f"tightness certificate failed: singular minor rows={aux} "
            f"cols={support_set.members} (p={modulus.p})"
        )
    return True


def _minor_pairs(p: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    pairs = []
    for n in range(1, p + 1):
        subsets = list(itertools.combinations(range(p), n))
        for rows in subsets:
            for cols in subsets:
                pairs.append((rows, cols))
    return pairs


def _tightness_pairs(p: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    pairs = []
    for a_size in range(1, p + 1):
        a_subsets = list(itertools.combinations(range(p), a_size))
        for b_size in range(0, p - a_size + 1):
            b_subsets = list(itertools.combinations(range(p), b_size))
            for a in a_subsets:
                for b in b_subsets:
                    pairs.append((a, b))
    return pairs


def _achievability_pairs(p: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    pairs = []
    for a_size in range(1, p + 1):
        a_subsets = list(itertools.combinations(range(p), a_size))
        for b_size in range(max(1, p + 1 - a_size), p + 1):
            b_subsets = list(itertools.combinations(range(p), b_size))
            for a in a_subsets:
                for b in b_subsets:
                    pairs.append((a, b))
    return pairs


def _run_minor_chunk(p: int, pairs) -> int:
    count = 0
    for rows, cols in pairs:
        det = fourier._cached_minor_det(p, rows, cols)
        if det.is_zero():
            raise TheoremViolationError(f"zero minor rows={rows} cols={cols} p={p}")
        count += 1
    return count


def _run_tightness_chunk(p: int, pairs) -> int:
    modulus = PrimeModulus(p)
    count = 0
    for a, b in pairs:
        certify_tightness(modulus, SupportSet(modulus, a), SupportSet(modulus, b))
        count += 1
    return count


def _run_achievability_chunk(p: int, pairs, seed: int) -> int:
    modulus = PrimeModulus(p)
    count = 0
    for a, b in pairs:
        construct_support_pair(SupportSet(modulus, a), SupportSet(modulus, b), seed=seed)
        count += 1
    return count


def iter_certification_checks(modulus: PrimeModulus, seed: int = 0):
    """Run every certification instance in canonical order, yielding records.

    Each record is (kind, first, second) where kind is "minor", "tightness"
    or "achievability" and first/second are the residue tuples involved; a
    failing instance raises instead of yielding.
    """
    p = modulus.p
    for rows, cols in _minor_pairs(p):
        _run_minor_chunk(p, [(rows, cols)])
        yield ("minor", rows, cols)
    for a, b in _tightness_pairs(p):
        _run_tightness_chunk(p, [(a, b)])
        yield ("tightness", a, b)
    for a, b in _achievability_pairs(p):
        _run_achievability_chunk(p, [(a, b)], seed)
        yield ("achievability", a, b)


def _chunked(items: list, jobs: int) -> list[list]:
    size = max(1, len(items) // (jobs * 8) + 1)
    return [items[i:i + size] for i in range(0, len(items), size)]


def exhaustive_certification(modulus: PrimeModulus, max_p: int = DEFAULT_MAX_CERTIFY_P,
                             jobs: int = 1, seed: int = 0) -> CertificationSummary:
    """Certify minors, tightness and achievability exhaustively for one p.

    (a) every equal-size minor has nonzero determinant; (b) every (A, B)
    with nonempty A and |A| + |B| <= p is certified unreachable; (c) every
    nonempty (A, B) with |A| + |B| >= p + 1 is constructively achieved.
    Any failure raises; the summary reports how many instances of each class
    were checked.  Independent instances may be spread over worker processes
    (jobs > 1) with identical results.
    """
    p = modulus.p
    if p > max_p:
        raise BudgetExceededError(
            f"p={p} exceeds the certification budget {max_p}; raise the budget explicitly"
        )
    minor_pairs = _minor_pairs(p)
    tight_pairs = _tightness_pairs(p)
    achieve_pairs = _achievability_pairs(p)
    if jobs <= 1:
        minors = _run_minor_chunk(p, minor_pairs)
        tight = _run_tightness_chunk(p, tight_pairs)
        achieve = _run_achievability_chunk(p, achieve_pairs, seed)
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            minor_futs = [pool.submit(_run_minor_chunk, p, c)
                          for c in _chunked(minor_pairs, jobs)]
            tight_futs = [pool.submit(_run_tightness_chunk, p, c)
                          for c in _chunked(tight_pairs, jobs)]
            achieve_futs = [pool.submit(_run_achievability_chunk, p, c, seed)
                            for c in _chunked(achieve_pairs, jobs)]
            minors = sum(fut.result() for fut in minor_futs)
            tight = sum(fut.result() for fut in tight_futs)
            achieve = sum(fut.result() for fut in achieve_futs)
    return CertificationSummary(p, minors, tight, achieve)
