"""Exact Fourier analysis on Z/pZ.

The transform is normalized as fhat(xi) = (1/p) * sum_x f(x) w^(-x*xi) with
the 1/p carried as an exact rational, so supports are decided by the sound
zero test of CycloNum.  Alongside the transform live its inverse, cyclic
convolution, square minors of the character table (w^(x*xi)), and exact
minor determinants and solves over Q(w).

The module never looks inside a Q(w) value.  dft and idft call
cyclotomic.character_sums, the one integer kernel behind every character
sum, and in applications so does the (Z/pZ)^n transform through them.
fourier_support and the sparse zero count test the same sums for zero with
cyclotomic.vanishing_sums.  convolve calls cyclotomic.cyclic_convolution,
the same packed sums with the spectra multiplied in between while packed.
The kernel packs each value into one big integer, so a dense sum costs one
shift and addition per term; a single-term value such as a rational costs
one scalar addition per sum.

Every elimination is one integer pivot step, _pivot, which pivots on the
diagonal without a search (each leading block of a Fourier minor is itself a
nonsingular minor) and takes no inverse: it scales each row below by the
pivot before clearing it.  _triangular repeats it down one minor and inverts
the product of the pivots once, giving up when that product is not a unit;
image_dets repeats it down a trie of minors that share their rows.  It runs
in two rings that are images of Z[w]:

- _cramer, behind minor_det and minor_cramer, runs it in Z/N for
  N = Phi_p(2^W), the image of w -> 2^W (cyclotomic.ResidueRing), where one
  big integer carries all p - 1 embeddings of a value.  A FourierMinor is
  its rows and columns, so the ring encodes entry (x, xi) as 2^(W*(x*xi
  mod p)) from one power table, and bounds and encodes only D * rhs, for
  the one denominator D of the right-hand side.  det M and D * det M_i,
  M_i being M with column i replaced by rhs, lie in Z[w], and Hadamard's
  inequality bounds their embeddings, so a W chosen from that bound makes
  their residues decode to them exactly.  minor_det is det M,
  minor_cramer returns it and the det M_i with no division over Q(w), and
  minor_solve divides once.  A pivot that is not a unit mod N retries at
  the next few widths, and after that _eliminate, the same diagonal
  elimination over Q(w) on the minor's root powers, decides once: it is
  the source of truth, and a zero pivot there raises
  TheoremViolationError naming the singular leading block.  Once N is
  wider than _FOLD_BITS, _pivot reduces each row update modulo
  2^(pW) - 1, a multiple of N, by two shift-mask-add folds instead of a
  division by N; the pivot products, their one inverse, the determinant,
  back substitution and decoding still take % N, so every residue is the
  same mod N.
- minor_nonsingular decides whether a minor is nonsingular by reduction
  modulo a prime, as in the proofs of Chebotarev's lemma: w -> g, for g of
  order p in F_q with q = 1 (mod p), is a ring map Z[w] -> F_q, so a nonzero
  image of the determinant in F_q proves it nonzero.  (Tao's proof reduces
  by w -> 1, a ring map Z[w] -> F_p; hence the divisibility lemma: an
  integer polynomial P with P(w) = 0 has P(1) divisible by p.)  The image
  is built from the row and column residues alone.  A zero image decides
  nothing, and the exact minor_det settles it.  The certification sweep
  images its minors with image_dets, one elimination mod q per row set
  shared across the sorted column sets, and takes minor_det for a zero
  image, so no minor is imaged twice.
"""

from __future__ import annotations

import functools
import operator
from fractions import Fraction

from .cyclotomic import (
    CycloNum,
    PrimeModulus,
    ResidueRing,
    character_sums,
    cyclic_convolution,
    image_prime,
    vanishing_sums,
)
from .errors import TheoremViolationError

# Widths of Z/Phi_p(2^W) that _cramer tries before it falls back to the exact
# _eliminate.
_RESIDUE_WIDTHS = 4
# _cramer folds its row updates modulo 2^(pW) - 1 (_pivot) once its N =
# Phi_p(2^W) has more than this many bits, and reduces them % N up to it.
# Time of _triangular folded over % N on the systems of construct-ladder-
# shaped pairs (|A| = p // 2, |B| = p + 1 - |A| or 2 more; n unknowns), best
# of 9 interleaved runs, 2-vCPU host, CPython 3.11.7:
#   p            11    13    17    19    23    23    29    31    37    43
#   n             4     5     7     8     8    10    13    14    17    20
#   bits of N    81   109   209   289   375   441   813   931  1369  1975
#   folded     1.15  1.15  1.12  1.00  0.98  0.89  0.74  0.69  0.60  0.57
# The folds break even near 300 bits, so p <= 19 keeps % N.
_FOLD_BITS = 320


class SupportSet:
    """A subset of Z/pZ kept as a sorted, duplicate-free residue tuple."""

    __slots__ = ("modulus", "members")

    def __init__(self, modulus: PrimeModulus, members=()):
        members = sorted({operator.index(x) for x in members})
        for x in members:
            if not 0 <= x < modulus.p:
                raise ValueError(f"residue {x} outside [0, {modulus.p})")
        self.modulus = modulus
        self.members = tuple(members)

    @classmethod
    def full(cls, modulus: PrimeModulus) -> SupportSet:
        return cls(modulus, range(modulus.p))

    def complement(self) -> SupportSet:
        inside = set(self.members)
        return SupportSet(self.modulus, (x for x in range(self.modulus.p) if x not in inside))

    def intersection(self, other: SupportSet) -> SupportSet:
        self._check_same(other)
        return SupportSet(self.modulus, set(self.members) & set(other.members))

    def union(self, other: SupportSet) -> SupportSet:
        self._check_same(other)
        return SupportSet(self.modulus, set(self.members) | set(other.members))

    def translate(self, a: int) -> SupportSet:
        p = self.modulus.p
        return SupportSet(self.modulus, ((x + a) % p for x in self.members))

    def is_subset(self, other: SupportSet) -> bool:
        self._check_same(other)
        return set(self.members) <= set(other.members)

    def _check_same(self, other: SupportSet) -> None:
        if self.modulus != other.modulus:
            raise ValueError(f"modulus mismatch: {self.modulus.p} vs {other.modulus.p}")

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __contains__(self, x: int) -> bool:
        return x in self.members

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SupportSet)
            and self.modulus == other.modulus
            and self.members == other.members
        )

    def __hash__(self) -> int:
        return hash((self.modulus.p, self.members))

    def __repr__(self) -> str:
        return f"SupportSet(p={self.modulus.p}, {{{', '.join(map(str, self.members))}}})"


class SignalFn:
    """An exact function Z/pZ -> Q(w): a tuple of p cyclotomic values."""

    __slots__ = ("modulus", "values")

    def __init__(self, modulus: PrimeModulus, values):
        vals = [CycloNum.of(modulus, v) for v in values]
        if len(vals) != modulus.p:
            raise ValueError(f"expected {modulus.p} values, got {len(vals)}")
        self.modulus = modulus
        self.values = tuple(vals)

    @classmethod
    def zero(cls, modulus: PrimeModulus) -> SignalFn:
        return cls(modulus, [0] * modulus.p)

    @classmethod
    def dirac(cls, modulus: PrimeModulus, at: int, value=1) -> SignalFn:
        vals = [0] * modulus.p
        vals[at % modulus.p] = value
        return cls(modulus, vals)

    @classmethod
    def constant(cls, modulus: PrimeModulus, value=1) -> SignalFn:
        return cls(modulus, [value] * modulus.p)

    def is_zero(self) -> bool:
        return all(v.is_zero() for v in self.values)

    def translate(self, a: int) -> SignalFn:
        """The signal x -> f(x - a)."""
        p = self.modulus.p
        return SignalFn(self.modulus, [self.values[(x - a) % p] for x in range(p)])

    def modulate(self, b: int) -> SignalFn:
        """The signal x -> f(x) * w^(b*x)."""
        return SignalFn(
            self.modulus,
            [v * CycloNum.root_power(self.modulus, b * x) for x, v in enumerate(self.values)],
        )

    def embed(self) -> list[complex]:
        return [v.embed() for v in self.values]

    def __add__(self, other: SignalFn) -> SignalFn:
        if not isinstance(other, SignalFn):
            return NotImplemented
        if self.modulus != other.modulus:
            raise ValueError("modulus mismatch")
        return SignalFn(self.modulus, [a + b for a, b in zip(self.values, other.values)])

    def __mul__(self, scalar) -> SignalFn:
        if not isinstance(scalar, (int, Fraction, CycloNum)):
            return NotImplemented
        return SignalFn(self.modulus, [v * scalar for v in self.values])

    __rmul__ = __mul__

    def __getitem__(self, x: int) -> CycloNum:
        return self.values[x % self.modulus.p]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SignalFn)
            and self.modulus == other.modulus
            and self.values == other.values
        )

    def __hash__(self) -> int:
        return hash((self.modulus.p, self.values))

    def __repr__(self) -> str:
        return f"SignalFn(p={self.modulus.p}, [{', '.join(str(v) for v in self.values)}])"


def dft(f: SignalFn) -> SignalFn:
    """Exact transform fhat(xi) = (1/p) * sum_x f(x) * w^(-x*xi)."""
    p = f.modulus.p
    return SignalFn(f.modulus, character_sums(f.modulus, f.values, range(p),
                                              [-xi % p for xi in range(p)], p))


def idft(spectrum: SignalFn) -> SignalFn:
    """Inverse transform f(x) = sum_xi F(xi) * w^(x*xi); idft(dft(f)) == f."""
    p = spectrum.modulus.p
    return SignalFn(spectrum.modulus,
                    character_sums(spectrum.modulus, spectrum.values, range(p), range(p), 1))


def support(f: SignalFn) -> SupportSet:
    """The set of points where f is nonzero (exact)."""
    return SupportSet(f.modulus, (x for x, v in enumerate(f.values) if not v.is_zero()))


def fourier_support(f: SignalFn) -> SupportSet:
    """support(dft(f)), decided on the packed sums without building the transform."""
    p = f.modulus.p
    zero = vanishing_sums(f.modulus, f.values, range(p), [-xi % p for xi in range(p)])
    return SupportSet(f.modulus, (xi for xi, z in enumerate(zero) if not z))


def convolve(f: SignalFn, g: SignalFn) -> SignalFn:
    """Cyclic convolution (f*g)(x) = sum_y f(y) g(x-y).

    Computed by the convolution theorem dft(f*g) = p * dft(f) * dft(g)
    pointwise (cyclotomic.cyclic_convolution), so the Fourier support of
    f*g is the intersection of the factors' Fourier supports.
    """
    if f.modulus != g.modulus:
        raise ValueError("modulus mismatch")
    return SignalFn(f.modulus, cyclic_convolution(f.modulus, f.values, g.values))


class FourierMinor:
    """The square submatrix (w^(x_j * xi_k)) of the p x p character table.

    It is its rows x_j and columns xi_k, two nonempty SupportSets of one size
    and modulus; entries builds the root powers for the Q(w) elimination.
    """

    __slots__ = ("modulus", "rows", "cols")

    def __init__(self, modulus: PrimeModulus, rows: SupportSet, cols: SupportSet):
        if len(rows) == 0 or len(cols) == 0:
            raise ValueError("row and column sets must be nonempty")
        if len(rows) != len(cols):
            raise ValueError(f"size mismatch: {len(rows)} rows vs {len(cols)} cols")
        if rows.modulus != modulus or cols.modulus != modulus:
            raise ValueError("modulus mismatch")
        self.modulus = modulus
        self.rows = rows
        self.cols = cols

    @property
    def n(self) -> int:
        return len(self.rows)

    @property
    def entries(self) -> tuple[tuple[CycloNum, ...], ...]:
        """The root powers w^(x*xi), row by row, built on each read."""
        return tuple(
            tuple(CycloNum.root_power(self.modulus, x * xi) for xi in self.cols.members)
            for x in self.rows.members
        )

    def apply(self, vec: list[CycloNum]) -> list[CycloNum]:
        """Matrix-vector product, used to check solve residuals exactly."""
        if len(vec) != self.n:
            raise ValueError("vector length mismatch")
        out = []
        for row in self.entries:
            total = CycloNum.zero(self.modulus)
            for entry, v in zip(row, vec):
                total = total + entry * v
            out.append(total)
        return out

    def __repr__(self) -> str:
        return (
            f"FourierMinor(p={self.modulus.p}, rows={self.rows.members}, "
            f"cols={self.cols.members})"
        )


def _eliminate(minor: FourierMinor, rhs=()):
    """Forward elimination on a copy of [M | rhs] over Q(w), diagonal pivots.

    The k-th pivot is det(M_k) / det(M_(k-1)) for the leading k x k block M_k,
    a minor and so nonsingular over prime p: a zero pivot raises
    TheoremViolationError naming M_k.  Returns the upper-triangular rows (each
    ending in its rhs entry when rhs is given) and the inverses of the pivots
    that had rows below them (all but the last).
    """
    n = minor.n
    a = [list(row) for row in minor.entries]
    for row, b in zip(a, rhs):
        row.append(b)
    width = len(a[0])
    inverses = []
    for col in range(n):
        top = a[col]
        if top[col].is_zero():
            raise TheoremViolationError(
                f"singular Fourier minor rows={minor.rows.members[:col + 1]} "
                f"cols={minor.cols.members[:col + 1]} (p={minor.modulus.p}); "
                "this contradicts the non-singularity of prime-order minors"
            )
        if col + 1 == n:
            break
        inv = top[col].inverse()
        inverses.append(inv)
        for r in range(col + 1, n):
            factor = a[r][col] * inv
            row = a[r]
            for c in range(col + 1, width):
                row[c] = row[c] - factor * top[c]
    return a, inverses


def _pivot(a: list[list[int]], k: int, m: int, cut: int = 0):
    """One diagonal pivot step mod m, on entry u = a[0][k] of the first of the rows a.

    Returns u and the rows below the first, each replaced by
    u * row - row[k] * top, so cleared in column k, and cut to the columns
    after k.  Each row below is scaled by u, and no inverse is taken.

    With cut > 0, m divides 2^cut - 1, and each entry v is reduced modulo
    2^cut - 1 instead of by % m: two folds, v -> (v & mask) + (v >> cut)
    with mask = 2^cut - 1, each a shift, a mask and an addition.  Entries
    in [-2, 2^cut + 1] make u * x - r * t smaller than 2^(2 cut + 1) in
    absolute value (cut >= 3), and the two folds bring it back into
    [-2, 2^cut + 1]: every folded entry stays there, congruent mod m, and
    residues in [0, m) are in it to start with.
    """
    top = a[0]
    u = top[k]
    rest = top[k + 1:]
    below = []
    if cut:
        mask = (1 << cut) - 1
        for row in a[1:]:
            r = row[k]
            below.append([((s := ((v := u * x - r * t) & mask) + (v >> cut)) & mask) + (s >> cut)
                          for x, t in zip(row[k + 1:], rest)])
    else:
        for row in a[1:]:
            r = row[k]
            below.append([(u * x - r * t) % m for x, t in zip(row[k + 1:], rest)])
    return u, below


def _triangular(a: list[list[int]], m: int, cut: int):
    """Diagonal-pivot elimination of the integer rows a modulo m.

    Returns (det, rows, inverses): the determinant mod m, the triangular
    rows (row k holds columns k, k + 1, ... of the k-th eliminated row,
    its pivot U_k first) and each U_k's inverse mod m.  Row k comes out
    scaled by S_k = U_0 ... U_(k-1), so U_k = S_k P_k for the true pivot
    P_k, and det = prod P_k = prod U_k / S_k.  One inverse, of
    S_n = prod U_k, gives every U_k^-1 = S_k / S_(k+1) and S_k^-1 on the
    way back; if it does not exist, a pivot is not a unit mod m and the
    result is None.  With cut > 0 (m divides 2^cut - 1), _pivot folds the
    row updates modulo 2^cut - 1, so the rows and pivots are congruent to
    their residues mod m but not reduced; the pivot products, the inverse
    and det are taken % m.
    """
    rows, pivots = [], []
    while a:
        u, below = _pivot(a, 0, m, cut)
        rows.append(a[0])
        pivots.append(u)
        a = below
    prefix = [1]
    for u in pivots:
        prefix.append(prefix[-1] * u % m)
    try:
        inv = pow(prefix[-1], -1, m)
    except ValueError:
        return None
    det = prefix[-1]
    inverses = [0] * len(pivots)
    for k in range(len(pivots) - 1, -1, -1):
        # inv is S_(k+1)^-1 here.
        inverses[k] = inv * prefix[k] % m
        inv = inv * pivots[k] % m
        det = det * inv % m
    return det, rows, inverses


def _cramer(minor: FourierMinor, rhs=()):
    """Cramer's rule for M*c = rhs: (det M, [det M_i]), M_i being M with column i replaced by rhs.

    det M_i = det M * c_i, and the list is empty without rhs.  _triangular
    and back substitution run in a ResidueRing on the residues of
    [M | D * rhs], D the denominator of rhs (ResidueRing.encode_fourier),
    and give det M and D * det M_i, which the ring decodes and divides by
    D once.  A pivot that is not a unit retries at the next width, up to
    _RESIDUE_WIDTHS widths, and after that _eliminate forms the same values
    over Q(w), det M as the product of its pivots.
    """
    n = minor.n
    rows, cols = minor.rows.members, minor.cols.members
    p = minor.modulus.p
    ring = ResidueRing.for_fourier(minor.modulus, n, rhs)
    for _ in range(_RESIDUE_WIDTHS):
        m = ring.n
        cut = p * ring.width if m.bit_length() > _FOLD_BITS else 0
        reduced = _triangular(ring.encode_fourier(rows, cols, rhs), m, cut)
        if reduced is not None:
            det, triangle, inverses = reduced
            x = [0] * len(rhs)
            for i in range(len(x) - 1, -1, -1):
                top = triangle[i]
                total = top[-1] - sum([t * v for t, v in zip(top[1:-1], x[i + 1:])])
                x[i] = total % m * inverses[i] % m
            return ring.decode(det), [ring.decode_numerator(det * v) for v in x]
        ring = ring.wider()
    a, inverses = _eliminate(minor, rhs)
    d = functools.reduce(operator.mul, [row[i] for i, row in enumerate(a)])
    if not rhs:
        return d, []
    inverses.append(a[n - 1][n - 1].inverse())
    sol: list[CycloNum] = [CycloNum.zero(minor.modulus)] * n
    for i in range(n - 1, -1, -1):
        row = a[i]
        total = row[n]
        for j in range(i + 1, n):
            total = total - row[j] * sol[j]
        sol[i] = total * inverses[i]
    return d, [d * c for c in sol]


def minor_det(minor: FourierMinor) -> CycloNum:
    """Exact determinant, decoded from Z/Phi_p(2^W) by _cramer."""
    return _cramer(minor)[0]


def image_dets(modulus: PrimeModulus, rows: tuple[int, ...], col_sets) -> list[int]:
    """The determinant of each minor (rows, cols), cols in col_sets, mapped to F_q, or 0.

    rows and every cols are sorted residue tuples of one size n, unchecked,
    and col_sets is a nonempty sequence.  (q, g) = image_prime(p), read at
    call time, and w -> g maps the entry w^(x*xi) to g^(x*xi mod p).  One
    elimination mod q serves all the column sets: the image rows, over the
    columns the sets use, are built once, and the state after each pivot
    (the rows left, holding only the columns to the right of that pivot,
    and the product of the pivots) is kept, so a column set resumes from
    its longest common prefix with the one before it.  Sorted column sets
    share the longest prefixes.  The pivots are _triangular's diagonal
    pivots, and a zero pivot at depth k (the leading k x k block's image
    vanishes) gives 0, which decides nothing, for every column set under
    that prefix.
    """
    p = modulus.p
    q, g = image_prime(p)
    powers = [1] * p
    for k in range(1, p):
        powers[k] = powers[k - 1] * g % q
    held = sorted(set().union(*col_sets))
    position = {xi: i for i, xi in enumerate(held)}
    n = len(rows)
    # states[k] is (position of the first column held, rows left, S, D)
    # after pivoting on the current cols[:k], or None after a zero pivot:
    # the rows left are scaled by S, the product of the pivots U_j taken,
    # and the leading block's image is S / D, D the product of the S_j
    # before each pivot (see _triangular).
    states = [(0, [[powers[x * xi % p] for xi in held] for x in rows], 1, 1)]
    previous = ()
    dets = []
    for cols in col_sets:
        shared = 0
        while shared < len(states) - 1 and cols[shared] == previous[shared]:
            shared += 1
        del states[shared + 1:]
        state = states[-1]
        while state is not None and len(states) <= n:
            first, a, scale, den = state
            k = position[cols[len(states) - 1]] - first
            if a[0][k]:
                u, below = _pivot(a, k, q)
                state = first + k + 1, below, scale * u % q, den * scale % q
            else:
                state = None
            states.append(state)
        dets.append(state[2] * pow(state[3], -1, q) % q if state else 0)
        previous = cols
    return dets


def minor_nonsingular(modulus: PrimeModulus, rows: SupportSet, cols: SupportSet) -> bool:
    """Whether the minor on (rows, cols) has a nonzero determinant.

    FourierMinor validates the sets; a nonzero image in F_q (image_dets)
    then decides, with no exact determinant, and otherwise minor_det does.
    """
    minor = FourierMinor(modulus, rows, cols)
    if image_dets(modulus, rows.members, [cols.members])[0]:
        return True
    return not minor_det(minor).is_zero()


def minor_cramer(minor: FourierMinor, rhs) -> tuple[CycloNum, list[CycloNum]]:
    """Cramer's rule for M*c = rhs: (d, [d * c_i]) with d = det M = minor_det(M).

    d * c_i = det M_i, M_i being M with column i replaced by rhs, so the
    numerators lie in Z[w] whenever rhs does (_cramer).  No inverse over
    Q(w) is taken unless the residue route gives up.
    """
    n = minor.n
    b = [CycloNum.of(minor.modulus, v) for v in rhs]
    if len(b) != n:
        raise ValueError(f"right-hand side must have length {n}, got {len(b)}")
    return _cramer(minor, b)


def minor_solve(minor: FourierMinor, rhs) -> list[CycloNum]:
    """The unique exact solution of M*c = rhs: minor_cramer's det M_i times (det M)^-1."""
    det, numerators = minor_cramer(minor, rhs)
    inverse = det.inverse()
    return [y * inverse for y in numerators]

