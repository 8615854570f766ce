"""Consequences of the additive support bound.

Three independent payoffs: a sparse polynomial with k + 1 terms has at most
k zeros among the p-th roots of unity; the Cauchy-Davenport inequality
|A+B| >= min(|A| + |B| - 1, p), replayed constructively through a
convolution witness; and the lattice bound
p^j * |supp F| + p^(n-j-1) * |supp Fhat| >= p^n + p^(n-1) for nonzero
functions on (Z/pZ)^n, equivalent to the support-size point lying on or
above the convex hull of the subgroup extremes (p^j, p^(n-j)).
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass

from . import fourier, uncertainty
from .cyclotomic import CycloNum, PrimeModulus, vanishing_sums
from .errors import BudgetExceededError, TheoremViolationError
from .fourier import SignalFn, SupportSet

# The largest (Z/pZ)^n table a MultiSignal builds.  meshulam_check took 2 s
# on a dense table of 10,201 points (p = 101, n = 2) and 1 s on 12,167 (p =
# 23, n = 3) on a 2-vCPU host under CPython 3.11.7: near a minute at most.
MAX_TABLE_POINTS = 10**5


class SparsePoly:
    """A polynomial sum of c_j * z^(n_j) with distinct exponents below p.

    Coefficients are nonzero cyclotomic numbers (plain integers coerce);
    exponents are kept strictly increasing.
    """

    __slots__ = ("modulus", "terms")

    def __init__(self, modulus: PrimeModulus, terms):
        cleaned = []
        for exponent, coeff in terms:
            exponent = operator.index(exponent)
            if not 0 <= exponent < modulus.p:
                raise ValueError(f"exponent {exponent} outside [0, {modulus.p})")
            coeff = CycloNum.of(modulus, coeff)
            if coeff.is_zero():
                raise ValueError(f"zero coefficient at exponent {exponent}")
            cleaned.append((exponent, coeff))
        cleaned.sort(key=lambda t: t[0])
        if len({e for e, _ in cleaned}) != len(cleaned):
            raise ValueError("exponents must be distinct")
        if not 1 <= len(cleaned) <= modulus.p:
            raise ValueError(f"need between 1 and {modulus.p} terms, got {len(cleaned)}")
        self.modulus = modulus
        self.terms = tuple(cleaned)

    @property
    def max_zeros(self) -> int:
        """k, for a polynomial with k + 1 terms."""
        return len(self.terms) - 1

    def evaluate_at_root(self, t: int) -> CycloNum:
        """Exact value at w^t."""
        modulus = self.modulus
        total = CycloNum.zero(modulus)
        for exponent, coeff in self.terms:
            total = total + coeff * CycloNum.root_power(modulus, t * exponent)
        return total

    def __repr__(self) -> str:
        body = " + ".join(f"({c})*z^{e}" for e, c in self.terms)
        return f"SparsePoly(p={self.modulus.p}, {body})"


@dataclass(frozen=True)
class SparseZeroReport:
    """Zero set of a sparse polynomial on the p-th roots of unity."""

    zeros: SupportSet
    max_zeros: int
    bound_holds: bool


def sparse_zero_count(poly: SparsePoly) -> SparseZeroReport:
    """Exactly evaluate the polynomial at every p-th root of unity.

    vanishing_sums tests each P(w^t) for zero.  Returns the set of t with
    P(w^t) = 0; a polynomial with k + 1 terms can vanish at no more than k
    of the p roots, and exceeding that raises TheoremViolationError.
    """
    modulus = poly.modulus
    p = modulus.p
    exponents, coefficients = zip(*poly.terms)
    zero_set = SupportSet(modulus, (t for t, z in enumerate(
        vanishing_sums(modulus, coefficients, exponents, range(p))) if z))
    bound = len(zero_set) <= poly.max_zeros
    if not bound:
        raise TheoremViolationError(
            f"sparse polynomial with {poly.max_zeros + 1} terms vanished at "
            f"{len(zero_set)} roots of unity (p={p})"
        )
    return SparseZeroReport(zero_set, poly.max_zeros, bound)


def sumset(a: SupportSet, b: SupportSet) -> SupportSet:
    """A + B = {x + y mod p : x in A, y in B}."""
    if a.modulus != b.modulus:
        raise ValueError("modulus mismatch")
    p = a.modulus.p
    return SupportSet(a.modulus, {(x + y) % p for x in a for y in b})


@dataclass(frozen=True)
class CDCheck:
    """One Cauchy-Davenport instance: |A+B| against min(|A|+|B|-1, p)."""

    lhs: int
    rhs: int
    holds: bool


def cauchy_davenport_check(a: SupportSet, b: SupportSet) -> CDCheck:
    """Check |A+B| >= min(|A| + |B| - 1, p) by direct enumeration."""
    if len(a) == 0 or len(b) == 0:
        raise ValueError("both sets must be nonempty")
    p = a.modulus.p
    lhs = len(sumset(a, b))
    rhs = min(len(a) + len(b) - 1, p)
    if lhs < rhs:
        raise TheoremViolationError(
            f"|A+B| = {lhs} fell below min(|A|+|B|-1, p) = {rhs} for p={p}"
        )
    return CDCheck(lhs, rhs, True)


@dataclass(frozen=True)
class CDInequalityChain:
    """The convolution argument evaluated on one pair: |A+B| + |X n Y| >= p+1."""

    sumset_size: int
    spectrum_overlap: int
    total: int
    threshold: int
    cd_rhs: int
    holds: bool


@dataclass(frozen=True)
class CDWitness:
    """A full constructive replay of the Cauchy-Davenport argument.

    f and g realize (A, X) and (B, Y); their convolution is supported inside
    A + B with Fourier support exactly X n Y, so the additive bound applied
    to it forces |A+B| >= p + 1 - |X n Y| = min(|A| + |B| - 1, p).
    """

    a: SupportSet
    b: SupportSet
    spectrum_a: SupportSet
    spectrum_b: SupportSet
    f: SignalFn
    g: SignalFn
    conv: SignalFn
    sumset: SupportSet
    inequality_chain: CDInequalityChain


def _witness_spectra(modulus: PrimeModulus, a: SupportSet, b: SupportSet):
    # X is the initial segment of size p+1-|A|; Y is the cyclic interval of
    # size p+1-|B| starting at max(X).  Started there, the overlap always
    # comes out to exactly max(|X| + |Y| - p, 1).
    p = modulus.p
    x_size = p + 1 - len(a)
    y_size = p + 1 - len(b)
    x = SupportSet(modulus, range(x_size))
    start = x_size - 1
    y = SupportSet(modulus, ((start + i) % p for i in range(y_size)))
    overlap = x.intersection(y)
    if len(overlap) != max(x_size + y_size - p, 1):
        raise TheoremViolationError(
            f"spectrum selection gave |X n Y| = {len(overlap)}, expected "
            f"{max(x_size + y_size - p, 1)} (p={p}, |A|={len(a)}, |B|={len(b)})"
        )
    return x, y, overlap


def cd_proof_witness(a: SupportSet, b: SupportSet, seed: int = 0) -> CDWitness:
    """Constructively replay the convolution proof for one pair (A, B).

    f and g are exact-case constructions (|A| + |X| = |B| + |Y| = p + 1),
    with values in Z[w] (construct_support_pair).  seed is accepted and
    ignored: nothing is drawn.
    """
    if a.modulus != b.modulus:
        raise ValueError("modulus mismatch")
    if len(a) == 0 or len(b) == 0:
        raise ValueError("both sets must be nonempty")
    modulus = a.modulus
    p = modulus.p
    x, y, overlap = _witness_spectra(modulus, a, b)
    f = uncertainty.construct_support_pair(a, x).signal
    g = uncertainty.construct_support_pair(b, y).signal
    conv = fourier.convolve(f, g)
    conv_support = fourier.support(conv)
    conv_spectrum = fourier.fourier_support(conv)
    sums = sumset(a, b)
    if conv_spectrum != overlap:
        raise TheoremViolationError(
            f"convolution Fourier support {conv_spectrum.members} differs from "
            f"X n Y = {overlap.members}"
        )
    if not conv_support.is_subset(sums):
        raise TheoremViolationError(
            f"convolution support {conv_support.members} escapes A + B = {sums.members}"
        )
    total = len(sums) + len(overlap)
    cd_rhs = min(len(a) + len(b) - 1, p)
    chain = CDInequalityChain(
        sumset_size=len(sums), spectrum_overlap=len(overlap), total=total, threshold=p + 1,
        cd_rhs=cd_rhs, holds=total >= p + 1 and len(sums) >= cd_rhs)
    if not chain.holds:
        raise TheoremViolationError(
            f"inequality chain failed: |A+B| + |X n Y| = {total} < {p + 1}"
        )
    return CDWitness(a, b, x, y, f, g, conv, sums, chain)


def _check_table_size(p: int, ndim: int) -> None:
    if ndim < 1:
        raise ValueError("dimension must be at least 1")
    # p >= 2, so p^ndim is over budget once ndim reaches the budget's bit
    # length; capping the exponent there keeps a huge ndim from forming p**ndim.
    if p ** min(ndim, MAX_TABLE_POINTS.bit_length()) > MAX_TABLE_POINTS:
        raise BudgetExceededError(
            f"(Z/{p}Z)^{ndim} has more than {MAX_TABLE_POINTS} points, "
            "the largest table a MultiSignal builds"
        )


class MultiSignal:
    """An exact function (Z/pZ)^n -> Q(w), stored as a complete table."""

    __slots__ = ("modulus", "ndim", "values")

    def __init__(self, modulus: PrimeModulus, ndim: int, values):
        _check_table_size(modulus.p, ndim)
        p = modulus.p
        table = {}
        for point, value in dict(values).items():
            point = tuple(operator.index(x) for x in point)
            if len(point) != ndim or not all(0 <= x < p for x in point):
                raise ValueError(f"point {point} outside (Z/{p}Z)^{ndim}")
            table[point] = CycloNum.of(modulus, value)
        zero = CycloNum.zero(modulus)
        self.modulus = modulus
        self.ndim = ndim
        self.values = {point: table.get(point, zero)
                       for point in itertools.product(range(p), repeat=ndim)}

    @classmethod
    def _from_table(cls, modulus: PrimeModulus, ndim: int, values: dict) -> MultiSignal:
        # values is complete and checked, keyed in itertools.product order.
        signal = object.__new__(cls)
        signal.modulus, signal.ndim, signal.values = modulus, ndim, values
        return signal

    @classmethod
    def dirac(cls, modulus: PrimeModulus, ndim: int, at=None, value=1) -> MultiSignal:
        _check_table_size(modulus.p, ndim)
        at = tuple(at) if at is not None else (0,) * ndim
        return cls(modulus, ndim, {at: value})

    @classmethod
    def constant(cls, modulus: PrimeModulus, ndim: int, value=1) -> MultiSignal:
        _check_table_size(modulus.p, ndim)
        points = itertools.product(range(modulus.p), repeat=ndim)
        return cls(modulus, ndim, {pt: value for pt in points})

    def is_zero(self) -> bool:
        return all(v.is_zero() for v in self.values.values())

    def support_points(self) -> list[tuple[int, ...]]:
        return sorted(pt for pt, v in self.values.items() if not v.is_zero())

    def support_size(self) -> int:
        return sum(1 for v in self.values.values() if not v.is_zero())

    def __getitem__(self, point) -> CycloNum:
        return self.values[tuple(point)]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, MultiSignal)
            and self.modulus == other.modulus
            and self.ndim == other.ndim
            and self.values == other.values
        )

    def __repr__(self) -> str:
        return f"MultiSignal(p={self.modulus.p}, ndim={self.ndim}, support={self.support_size()})"


def _multi_transform(signal: MultiSignal, transform) -> MultiSignal:
    # The character w^(+-<x, xi>) factors over the coordinates, so the
    # n-dimensional transform is the one-dimensional one applied along each
    # axis in turn.
    modulus, n = signal.modulus, signal.ndim
    p = modulus.p
    table = dict(signal.values)
    for axis in range(n):
        for rest in itertools.product(range(p), repeat=n - 1):
            line = [rest[:axis] + (x,) + rest[axis:] for x in range(p)]
            sums = transform(SignalFn(modulus, [table[pt] for pt in line])).values
            table.update(zip(line, sums))
    return MultiSignal._from_table(modulus, n, table)


def multi_dft(signal: MultiSignal) -> MultiSignal:
    """Fhat(xi) = (1/p^n) * sum_x F(x) * w^(-<x, xi>), exact."""
    return _multi_transform(signal, fourier.dft)


def multi_idft(spectrum: MultiSignal) -> MultiSignal:
    """F(x) = sum_xi Fhat(xi) * w^(<x, xi>); inverse of multi_dft."""
    return _multi_transform(spectrum, fourier.idft)


@dataclass(frozen=True)
class MeshulamReport:
    """Support sizes of a nonzero multi-signal against the lattice bound."""

    p: int
    ndim: int
    support_size: int
    fourier_support_size: int
    per_j: tuple[bool, ...]
    hull_ok: bool


def meshulam_check(signal: MultiSignal) -> MeshulamReport:
    """Evaluate the lattice support bound for one nonzero multi-signal.

    Checks p^j * s + p^(n-j-1) * sh >= p^n + p^(n-1) for every 0 <= j < n.
    hull_ok, that (s, sh) lies on or above the lower convex hull of the
    subgroup extremes (p^j, p^(n-j)), is the same n inequalities: the edge
    from (p^j, p^(n-j)) to (p^(j+1), p^(n-j-1)) reduces to
    p^(n-j-1) * s + p^j * sh >= p^n + p^(n-1), which is per_j[n - j - 1].
    A failure is impossible and raises TheoremViolationError.
    """
    if signal.is_zero():
        raise ValueError("the zero signal has empty support; the bound needs a nonzero input")
    p = signal.modulus.p
    n = signal.ndim
    s = signal.support_size()
    sh = multi_dft(signal).support_size()
    threshold = p**n + p ** (n - 1)
    per_j = tuple(p**j * s + p ** (n - j - 1) * sh >= threshold for j in range(n))
    hull_ok = all(per_j)
    if not hull_ok:
        raise TheoremViolationError(
            f"lattice support bound failed: s={s}, sh={sh}, per_j={list(per_j)}, "
            f"hull_ok={hull_ok}"
        )
    return MeshulamReport(p, n, s, sh, per_j, hull_ok)
