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
import os
import random
from collections import Counter
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
    exactly, redrawing up to max_attempts times (at least 1).
    """
    return _support_pair(support_set, spectrum_set, seed, max_attempts,
                         construct_exact_pair)


def _support_pair(support_set: SupportSet, spectrum_set: SupportSet, seed: int,
                  max_attempts: int, exact) -> AchievabilityWitness:
    # The body of construct_support_pair; `exact(A, B)` builds each exact-size
    # witness (construct_exact_pair, or the sweep's per-class table).
    modulus = _check_constructible(support_set, spectrum_set)
    p = modulus.p
    if max_attempts < 1:
        raise ValueError(f"max_attempts must be at least 1, got {max_attempts}")
    total = len(support_set) + len(spectrum_set)
    if total < p + 1:
        raise ValueError(
            f"|A| + |B| = {total} is below p + 1 = {p + 1}; such a pair is "
            "unreachable by any nonzero signal"
        )
    if total == p + 1:
        return exact(support_set, spectrum_set)
    block_size = p + 1 - len(spectrum_set)
    parts = [
        exact(SupportSet(modulus, block), spectrum_set).signal
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


def _translation_class(members: tuple[int, ...], p: int) -> tuple[tuple[int, ...], int]:
    # (rep, t): rep is the least of the sorted translates A - a over a in A,
    # and A = rep + t.  Only the full set has several such a; it gets t = 0.
    return min((tuple(sorted((x - a) % p for x in members)), a) for a in members)


def _exact_by_translation(modulus: PrimeModulus):
    """An exact-pair builder that solves once per translation class of A.

    Translating A by t turns the transform by w^(-t*xi), so the witness for
    (rep + t, B) with fhat(min B) = 1 is w^(t * min B) * f_rep(x - t); the
    solution is unique, so this is the same signal construct_exact_pair
    returns.  Each representative is verified inside construct_exact_pair
    and each derived witness is verified before it is returned.  The table
    lives as long as the returned function.
    """
    solved: dict[tuple[tuple[int, ...], tuple[int, ...]], AchievabilityWitness] = {}

    def exact(support_set: SupportSet, spectrum_set: SupportSet) -> AchievabilityWitness:
        rep, t = _translation_class(support_set.members, modulus.p)
        key = (rep, spectrum_set.members)
        base = solved.get(key)
        if base is None:
            base = solved[key] = construct_exact_pair(SupportSet(modulus, rep), spectrum_set)
        if t == 0:
            return base
        turn = CycloNum.root_power(modulus, t * spectrum_set.members[0])
        signal = base.signal.translate(t) * turn
        _verify_witness_supports(signal, support_set, spectrum_set)
        return AchievabilityWitness(support_set, spectrum_set, signal,
                                    base.aux_frequencies, ())

    return exact


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


def _certification_instances(p: int):
    """Yield every sweep instance (kind, first, second) in canonical order.

    First all equal-size minors (rows, cols), then the tightness pairs (A, B)
    with nonempty A and |A| + |B| <= p, then the achievable pairs with
    nonempty A and |A| + |B| >= p + 1; each kind runs by size, then
    lexicographically.  Tightness and achievability together cover every
    (A, B) with nonempty A exactly once.
    """
    by_size = [list(itertools.combinations(range(p), n)) for n in range(p + 1)]
    for n in range(1, p + 1):
        for rows in by_size[n]:
            for cols in by_size[n]:
                yield ("minor", rows, cols)
    for kind, reachable in (("tightness", False), ("achievability", True)):
        for a_size in range(1, p + 1):
            for b_size in range(p + 1):
                if (a_size + b_size > p) != reachable:
                    continue
                for a in by_size[a_size]:
                    for b in by_size[b_size]:
                        yield (kind, a, b)


def _check(modulus: PrimeModulus, kind: str, first: tuple[int, ...],
           second: tuple[int, ...], seed: int, exact) -> None:
    if kind == "minor":
        if fourier._cached_minor_det(modulus.p, first, second).is_zero():
            raise TheoremViolationError(
                f"zero minor rows={first} cols={second} p={modulus.p}"
            )
    elif kind == "tightness":
        certify_tightness(modulus, SupportSet(modulus, first), SupportSet(modulus, second))
    else:
        _support_pair(SupportSet(modulus, first), SupportSet(modulus, second), seed,
                      DEFAULT_MAX_ATTEMPTS, exact)


def _checked(modulus: PrimeModulus, records, seed: int):
    # One exact-witness table per sweep (or worker slice); it goes when the
    # generator does.
    exact = _exact_by_translation(modulus)
    for record in records:
        _check(modulus, *record, seed, exact)
        yield record


def iter_certification_checks(modulus: PrimeModulus, seed: int = 0):
    """Run every certification instance in canonical order, yielding records.

    Each record is (kind, first, second) where kind is "minor", "tightness"
    or "achievability" and first/second are the residue tuples involved; a
    failing instance raises instead of yielding.  Like the sweep, the
    iterator solves each exact-size pair once per translation class of A and
    derives and verifies the rest; its table lives as long as the iterator.
    """
    return _checked(modulus, _certification_instances(modulus.p), seed)


def _count_checked(p: int, seed: int, start: int, step: int) -> Counter:
    # One slice of the instance stream: every step-th record from start on.
    records = itertools.islice(_certification_instances(p), start, None, step)
    return Counter(kind for kind, _, _ in _checked(PrimeModulus(p), records, seed))


def exhaustive_certification(modulus: PrimeModulus, max_p: int = DEFAULT_MAX_CERTIFY_P,
                             jobs: int = 1, seed: int = 0) -> CertificationSummary:
    """Certify minors, tightness and achievability exhaustively for one p.

    (a) every equal-size minor has nonzero determinant; (b) every (A, B)
    with nonempty A and |A| + |B| <= p is certified unreachable; (c) every
    nonempty (A, B) with |A| + |B| >= p + 1 is constructively achieved.
    Any failure raises; the summary reports how many instances of each class
    were checked.  All three classes come from one instance stream.  jobs
    must be at least 1; with jobs > 1 the stream is split into interleaved
    slices over min(jobs, CPU count) worker processes, with identical
    results.  Achievability solves one exact-size system per translation
    class of A (435 at p = 7, for 3,003 exact pairs); every other exact
    witness is a translate of a solved one times a root of unity and is
    verified before use.  The sweep, or each worker slice, owns that table
    and drops it when it ends.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    p = modulus.p
    if p > max_p:
        raise BudgetExceededError(
            f"p={p} exceeds the certification budget {max_p}; raise the budget explicitly"
        )
    workers = min(jobs, os.cpu_count() or 1)
    if workers == 1:
        counts = _count_checked(p, seed, 0, 1)
    else:
        counts = Counter()
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_count_checked, p, seed, k, workers)
                       for k in range(workers)]
            for fut in futures:
                counts.update(fut.result())
    return CertificationSummary(p, counts["minor"], counts["tightness"],
                                counts["achievability"])
