"""The additive support bound on Z/pZ and its constructive converse.

Forward direction: every nonzero signal satisfies |supp f| + |supp fhat| >=
p + 1 (and the classical product bound |supp f| * |supp fhat| >= p).
Converse: for any nonempty target sets A, B with |A| + |B| >= p + 1 there is
a signal supported exactly on A whose transform is supported exactly on B;
the construction here produces one with a single solve on a Fourier minor
and verifies both supports exactly.
Tightness: when |A| + |B| <= p, no nonzero signal fits inside (A, B), as one
nonzero minor certifies.  The sweep derives both from the certified minors.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

from . import fourier
from .cyclotomic import CycloNum, PrimeModulus, character_sums
from .errors import BudgetExceededError, TheoremViolationError
from .fourier import SignalFn, SupportSet

DEFAULT_MAX_CERTIFY_P = 19


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

    combination_coeffs holds the integer weights the construction fixed,
    (1, t, ..., t^(k-1)) for the least t in 1, 2, ..., p(k - 1) + 1 that
    gives both supports.  The signal's values lie in Z[w].  For |A| <= |B|
    the weights are the ratios f(free_j) / f(free_0) on the last
    k = |A| + |B| - p members of A: f takes d * t^j on free point j, where
    d is the determinant of the pivot minor (construct_support_pair), 1
    when B is all of Z/p, and in the exact case k = 1 the weights are (1,),
    so f(max A) = d.  For |A| > |B| the signal is idft(g), g built the same
    way on the pivot minor of the smaller side (B, -A), and the weights are
    g's: the least t whose idft(g) has the supports (A, B).
    """

    target_support: SupportSet
    target_spectrum: SupportSet
    signal: SignalFn
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
    fsupp = fourier.fourier_support(f)
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


def _verify_witness_supports(signal: SignalFn, support_set: SupportSet,
                             spectrum_set: SupportSet) -> bool:
    """Whether supp f is exactly A and supp fhat exactly B, decided exactly."""
    return (fourier.support(signal) == support_set
            and fourier.fourier_support(signal) == spectrum_set)


def construct_support_pair(support_set: SupportSet, spectrum_set: SupportSet,
                           seed: int = 0) -> AchievabilityWitness:
    """Realize supports (A, B) for any nonempty sets with |A| + |B| >= p + 1.

    The signals on A whose transform vanishes off B form a space of dimension
    k = |A| + |B| - p, with the last k members of A as free coordinates.  With
    the weights 1, t, ..., t^(k-1) there, fhat = 0 off B is M c = rhs for the
    pivot minor M on rows -(B^c) and the first n = p - |B| members of A, and
    one minor_cramer gives d = det M and the Cramer numerators d * c_i.  The
    witness is d times that solution: d * c_i on the first n members and
    d * t^j on the free points (d = 1 when n = 0), all in Z[w], so it takes
    no inverse over Q(w).  The least t in 1, 2, ..., p(k - 1) + 1 whose
    signal has exactly the supports (A, B) wins; at most p(k - 1) values of
    t can fail (see _certify_minors), so a run past the bound raises
    TheoremViolationError.  In the exact case k = 1 there is one try, with
    f(max A) = d.  seed is accepted and ignored: nothing is drawn.

    When |A| > |B| the smaller side is solved instead: each try builds g
    as above for (B, -A), with p - |A| < n unknowns, and f = idft(g), whose
    transform is g and whose support is -supp(dft(g)).  So f has the
    supports (A, B) exactly when g has (B, -A): each try is verified once,
    as f, and the least t that g needs wins.  f takes g's weights and its
    values stay in Z[w].
    """
    if support_set.modulus != spectrum_set.modulus:
        raise ValueError("modulus mismatch between target sets")
    if len(support_set) == 0 or len(spectrum_set) == 0:
        raise ValueError("target sets must be nonempty")
    modulus = support_set.modulus
    p = modulus.p
    total = len(support_set) + len(spectrum_set)
    if total < p + 1:
        raise ValueError(
            f"|A| + |B| = {total} is below p + 1 = {p + 1}; such a pair is "
            "unreachable by any nonzero signal"
        )
    # (sa, sb) is the pair solved: (A, B), or (B, -A) when |A| > |B|.
    dual = len(support_set) > len(spectrum_set)
    sa, sb = ((spectrum_set, SupportSet(modulus, ((-a) % p for a in support_set))) if dual
              else (support_set, spectrum_set))
    n, k = p - len(sb), total - p
    pivots, free = sa.members[:n], sa.members[n:]
    # The transform restricted to l2(sa), evaluated at xi, is (1/p) sum_a
    # w^(-xi*a) f(a), so fhat = 0 off sb reads M f = 0 for the minor M on
    # rows -(sb^c) and columns sa.  The free points' terms move to the
    # right-hand side, one entry per row in the minor's sorted row order.
    rows = SupportSet(modulus, ((-eta) % p for eta in sb.complement()))
    minor = fourier.FourierMinor(modulus, rows, SupportSet(modulus, pivots)) if n else None
    tries = p * (k - 1) + 1
    for t in range(1, tries + 1):
        coeffs = [t ** i for i in range(k)]
        values = [0] * p
        det = 1
        if n:
            weights = [CycloNum.from_rational(modulus, -lam) for lam in coeffs]
            rhs = character_sums(modulus, weights, free, rows.members, 1)
            det, numerators = fourier.minor_cramer(minor, rhs)
            for a, v in zip(pivots, numerators):
                values[a] = v
        for j, lam in zip(free, coeffs):
            values[j] = det * lam
        signal = SignalFn(modulus, values)
        if dual:
            signal = fourier.idft(signal)
        if _verify_witness_supports(signal, support_set, spectrum_set):
            return AchievabilityWitness(support_set, spectrum_set, signal, tuple(coeffs))
    raise TheoremViolationError(
        f"no weights (1, t, ..., t^{k - 1}) with 1 <= t <= {tries} realize "
        f"A={support_set.members}, B={spectrum_set.members} (p={p})"
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
    aux = SupportSet(modulus, spectrum_set.complement().members[:len(support_set)])
    if not fourier.minor_nonsingular(modulus, aux, support_set):
        raise TheoremViolationError(
            f"tightness certificate failed: singular minor rows={aux.members} "
            f"cols={support_set.members} (p={modulus.p})"
        )
    return True


@functools.cache
def _set_orbits(p: int) -> tuple[tuple[tuple[tuple[int, ...], int], ...], ...]:
    """The AGL(1,p)-orbits of subsets of Z/p as (representative, orbit size).

    A subset's orbit is its p(p - 1) images u*S + t (u a unit), taken as
    bitmasks: the p - 1 dilated masks u*S and the p cyclic rotations of
    each, since adding t rotates a p-bit mask by t.  The representative is
    the least image and the orbit size the number of distinct images.  The
    complements of an orbit's images form an orbit of the same size, whose
    least image is full ^ the greatest, so each orbit met gives two.
    Entry n lists the orbits of n-sets, sorted by representative.  Cached
    per p, as tuples, so a second walk of the same p (the CSV rows after the
    sweep) reuses the first one's orbits.
    """
    full = (1 << p) - 1
    seen = bytearray(1 << p)
    by_size = [[] for _ in range(p + 1)]
    mask = 0
    while mask >= 0:
        # Masks are met in increasing order, so this one is its orbit's least.
        members = tuple(x for x in range(p) if mask >> x & 1)
        dilated = {sum(1 << u * x % p for x in members) for u in range(1, p)}
        images = {d << t & full | d >> (p - t) for d in dilated for t in range(p)}
        for image in images:
            seen[image] = seen[full ^ image] = 1
        for least in {mask, full ^ max(images)}:  # equal only at p = 2, n = 1
            by_size[least.bit_count()].append(
                (tuple(x for x in range(p) if least >> x & 1), len(images)))
        mask = seen.find(0, mask + 1)
    return tuple(tuple(sorted(orbits)) for orbits in by_size)


def _certification_orbits(p: int):
    """Yield one record (kind, first, second, orbit_size) per orbit.

    Translation, modulation, dilation and the Galois action map supports
    (A, B) to (u*A + t, v*B + s) for any units u, v, so tightness and
    achievability hold on whole orbits of AGL(1,p) x AGL(1,p), which are
    products of set orbits.  A minor stays nonsingular when its rows or
    columns are translated (scaled by roots of unity) or dilated (moved by
    a Galois automorphism), or when it is transposed: its representatives
    are unordered pairs of set representatives, counted twice when they
    differ.  First the minors, then the tightness pairs (A nonempty,
    |A| + |B| <= p), then the achievable pairs (|A| + |B| >= p + 1); each
    kind by size, then by representative.  Per kind the orbit sizes sum to
    the instance count.
    """
    by_size = _set_orbits(p)
    for n in range(1, p + 1):
        for (rows, r), (cols, c) in itertools.combinations_with_replacement(by_size[n], 2):
            yield "minor", rows, cols, r * c * (1 if rows == cols else 2)
    for kind, reachable in (("tightness", False), ("achievability", True)):
        for a_size in range(1, p + 1):
            for b_size in range(p + 1):
                if (a_size + b_size > p) == reachable:
                    for a, a_orbit in by_size[a_size]:
                        for b, b_orbit in by_size[b_size]:
                            yield kind, a, b, a_orbit * b_orbit


def _certify_minors(modulus: PrimeModulus) -> None:
    """Raise TheoremViolationError unless every Fourier minor at p is nonsingular."""
    # Only minors compute, and every minor lies in the orbit of one record
    # (any two same-size set representatives form one).  Of the minors only
    # the sizes n <= p/2 and the full matrix F = (w^(x*xi)) take an
    # elimination, by Jacobi's complementary-minor identity: for F
    # nonsingular, the minor of F on (X^c, Xi^c) is +-det F times the minor
    # of F^-1 on (Xi, X).  F^-1 = (w^(-x*xi))/p, so that minor is p^-n times
    # the Galois conjugate (w -> w^-1) of F's minor on (Xi, X), nonzero when
    # that n-minor is.  So once F and every n-minor pass, every (p - n)-minor
    # does, and the records of sizes p/2 < n < p are derived, after F passes.
    # Each row representative's column representatives, sorted, share one
    # prefix-shared elimination mod q (fourier.image_dets); a minor whose
    # image is 0 goes straight to the exact fourier.minor_det.
    # The pairs then follow from "every minor is nonsingular", as in the
    # paper's proof of sharpness:
    # - tightness: its certify_tightness minor is nonsingular;
    # - achievability: V = {f on A : fhat = 0 off B} has the last
    #   k = |A| + |B| - p >= 1 members F of A as free coordinates, the rest P
    #   as pivots.  The basis vector of free point j is the unique f on
    #   P + {j} with f(j) = 1 and fhat = 0 off B; its supports are exactly
    #   P + {j} and B, since a zero value or a zero transform value in B
    #   would leave a nonzero signal in a nonsingular minor's kernel.  So
    #   each f(a) and each fhat(b) is a nonzero linear form in the weights
    #   lambda on F.  With lambda_i = t^(i-1) each of these p forms becomes a
    #   nonzero polynomial in t of degree <= k - 1, and the free values are
    #   never 0, so at most p(k - 1) values of t fail and one of
    #   t = 1, ..., p(k - 1) + 1 gives both supports exactly (for k = 1,
    #   lambda = 1).
    p = modulus.p
    everything = tuple(range(p))
    _check_minors(modulus, everything, [everything])
    for orbits in _set_orbits(p)[1:p // 2 + 1]:
        reps = [rep for rep, _ in orbits]
        for i, rows in enumerate(reps):
            _check_minors(modulus, rows, reps[i:])


def _check_minors(modulus: PrimeModulus, rows: tuple[int, ...], col_sets) -> None:
    """Raise TheoremViolationError unless every minor (rows, cols) is nonsingular."""
    for cols, image in zip(col_sets, fourier.image_dets(modulus, rows, col_sets)):
        if not image and fourier.minor_det(fourier.FourierMinor(
                modulus, SupportSet(modulus, rows), SupportSet(modulus, cols))).is_zero():
            raise TheoremViolationError(f"zero minor rows={rows} cols={cols} p={modulus.p}")


def _require_budget(modulus: PrimeModulus, max_p: int) -> None:
    if modulus.p > max_p:
        raise BudgetExceededError(
            f"p={modulus.p} exceeds the certification budget {max_p}; "
            "raise the budget explicitly"
        )


def exhaustive_certification(modulus: PrimeModulus,
                             max_p: int = DEFAULT_MAX_CERTIFY_P) -> CertificationSummary:
    """Certify minors, tightness and achievability exhaustively for one p.

    (a) every equal-size minor has nonzero determinant; (b) every (A, B)
    with nonempty A and |A| + |B| <= p is unreachable; (c) every nonempty
    (A, B) with |A| + |B| >= p + 1 is achievable; (b) and (c) are derived
    from the certified minors (see _certify_minors, which eliminates 6 / 37 /
    197 / 9,035 / 81,906 minor representatives at p = 7 / 11 / 13 / 17 / 19).
    Any failure raises.  Each property holds on whole AGL(1,p) x AGL(1,p)
    orbits, and the summary counts instances without building a record: the
    orbits of the n-sets cover all s_n = C(p, n) of them, so there are
    sum s_n^2 minors (n >= 1) and s_a * s_b pairs of sizes (a, b) for each
    a >= 1.
    """
    _require_budget(modulus, max_p)
    _certify_minors(modulus)
    p = modulus.p
    s = [math.comb(p, n) for n in range(p + 1)]
    pairs = [(a, b) for a in range(1, p + 1) for b in range(p + 1)]
    return CertificationSummary(p, sum(s[n] ** 2 for n in range(1, p + 1)),
                                sum(s[a] * s[b] for a, b in pairs if a + b <= p),
                                sum(s[a] * s[b] for a, b in pairs if a + b > p))
