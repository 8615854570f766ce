"""Seeded request streams and their known-answer checks.

Every request calls the library through module attributes
(`fourier.dft`, `uncertainty.construct_support_pair`, ...), so a tracer that
replaces those attributes sees the call.  Each request knows how to derive
the answer it must produce without the library (closed forms, the exact
evaluator and the floating oracle in `oracle.py`); that work runs after the
timed pass, never during set-up.  Each also knows how to make that answer
wrong, for the self-check.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

from primefourier import applications, fourier, uncertainty
from primefourier.cyclotomic import CycloNum, PrimeModulus
from primefourier.fourier import SignalFn, SupportSet

import oracle

# construct-ladder, per pass: (request kind, p, count).  "exact" is
# construct_support_pair with |A| + |B| = p + 1, "combination" with
# |A| + |B| = p + 3, "cd" is cd_proof_witness.  Each kind is one cost class
# (about 10 ms at p=11 up to 0.64 s for a p=23 combination, so every request
# finishes in under half the limit), and the counts put the reported p50
# inside the p=17 class and the p90 inside the p=23 class, away from class
# boundaries.
LADDER = (
    ("exact", 11, 3), ("combination", 11, 3),
    ("exact", 13, 1), ("combination", 13, 1),
    ("cd", 11, 2), ("cd", 13, 1),
    ("exact", 17, 8),
    ("combination", 19, 4),
    ("combination", 23, 4),
)
# The top rung takes 4 to 6 s today, over twice the limit, so it times out
# until inversion or elimination gets faster.  One request per pass,
# alternating the exact and the combination case.
TOP_RUNG = 31
LADDER_LIMIT_S = 1.5

# transform-stream: per pass and prime, DENSE_SIGNALS signals whose values
# are dense in Q(w), with integer numerators in [-COEFF, COEFF] over one
# per-signal denominator.  Each goes through dft and back through idft.
COEFF = 999
TRANSFORM_PRIMES = (97, 101)
DENSE_SIGNALS = 4
# Convolutions pair one dense signal with another restricted to
# CONVOLVE_SUPPORT points, so each runs CONVOLVE_SUPPORT * p dense packed
# products.  All at one prime, so that they form one cost class for the p90.
CONVOLVE_P = 97
CONVOLVE_REQUESTS = 5
CONVOLVE_SUPPORT = 16
SPARSE_P = 101
SPARSE_REQUESTS = 4
MESHULAM_SHAPES = ((5, 3), (5, 3), (7, 2), (7, 2))
STREAM_LIMIT_S = 10.0


@dataclass
class Request:
    kind: str
    call: Callable[[], Any]
    expect: Callable[[], Any]
    check: Callable[[Any, Any], bool]
    mutate: Callable[[Any], Any]


def pass_rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


# ---------------------------------------------------------- construct-ladder

def _random_set(rng: random.Random, modulus: PrimeModulus, size: int) -> SupportSet:
    return SupportSet(modulus, rng.sample(range(modulus.p), size))


def _construct_request(rng: random.Random, p: int, combination: bool) -> Request:
    modulus = PrimeModulus(p)
    a_size = p // 2
    b_size = p + 1 - a_size + (2 if combination else 0)
    a = _random_set(rng, modulus, a_size)
    b = _random_set(rng, modulus, b_size)
    seed = rng.getrandbits(32)
    kind = f"construct-{'combination' if combination else 'exact'} p={p}"
    return Request(
        kind,
        lambda: uncertainty.construct_support_pair(a, b, seed=seed),
        lambda: (p, set(a.members), set(b.members)),
        _check_witness,
        _shift_support,
    )


def _check_witness(witness, expected) -> bool:
    p, a, b = expected
    values = witness.signal.values
    return (oracle.exact_support(values) == a
            and oracle.exact_fourier_support(values, p) == b)


def _shift_support(expected):
    p, a, b = expected
    return p, {(x + 1) % p for x in a}, b


def _cd_request(rng: random.Random, p: int) -> Request:
    modulus = PrimeModulus(p)
    a = _random_set(rng, modulus, rng.randint(2, p // 2))
    b = _random_set(rng, modulus, rng.randint(2, p // 2))
    seed = rng.getrandbits(32)
    return Request(
        f"cd-witness p={p}",
        lambda: applications.cd_proof_witness(a, b, seed=seed),
        lambda: (p, set(a.members), set(b.members)),
        _check_cd,
        _shift_support,
    )


def _check_cd(witness, expected) -> bool:
    p, a, b = expected
    x, y = set(witness.spectrum_a.members), set(witness.spectrum_b.members)
    f, g = witness.f.values, witness.g.values
    conv = oracle.exact_convolution(f, g, p)
    sums = {(u + v) % p for u in a for v in b}
    conv_support = {i for i, cs in enumerate(conv) if any(cs)}
    chain = witness.inequality_chain
    cd_rhs = min(len(a) + len(b) - 1, p)
    return (oracle.exact_support(f) == a and oracle.exact_fourier_support(f, p) == x
            and oracle.exact_support(g) == b and oracle.exact_fourier_support(g, p) == y
            and [list(v.coeffs) for v in witness.conv.values] == conv
            and conv_support <= sums
            and oracle.exact_fourier_support(witness.conv.values, p) == x & y
            and len(sums) + len(x & y) >= p + 1 and len(sums) >= cd_rhs
            and (chain.sumset_size, chain.spectrum_overlap, chain.cd_rhs, chain.holds)
            == (len(sums), len(x & y), cd_rhs, True))


def construct_ladder(seed: int, index: int) -> list[Request]:
    rng = pass_rng("construct-ladder", seed, index)
    requests = []
    for kind, p, count in LADDER:
        for _ in range(count):
            if kind == "cd":
                requests.append(_cd_request(rng, p))
            else:
                requests.append(_construct_request(rng, p, kind == "combination"))
    requests.append(_construct_request(rng, TOP_RUNG, index % 2 == 1))
    rng.shuffle(requests)
    return requests


# ---------------------------------------------------------- transform-stream

def _dense_value(rng: random.Random, modulus: PrimeModulus, den: int) -> CycloNum:
    return CycloNum(modulus, [Fraction(rng.randint(-COEFF, COEFF), den)
                              for _ in range(modulus.p - 1)])


def _dense_signal(rng: random.Random, modulus: PrimeModulus) -> SignalFn:
    den = rng.randint(1, 9)
    return SignalFn(modulus, [_dense_value(rng, modulus, den) for _ in range(modulus.p)])


def _check_transform(output, expected) -> bool:
    table, want, magnitude = expected
    return oracle.close([oracle.embed(v, table) for v in output.values], want, magnitude)


def _oracle_plus_one(expected):
    table, want, magnitude = expected
    return table, [want[0] + 1] + want[1:], magnitude


def _dft_oracle(f: SignalFn):
    table = oracle.roots(f.modulus.p)
    samples = [oracle.embed(v, table) for v in f.values]
    want = oracle.float_dft(samples, table, -1, 1.0 / f.modulus.p)
    return table, want, sum(abs(s) for s in samples)


def _dft_requests(f: SignalFn) -> list[Request]:
    """A dft request and the idft request that sends its answer back."""
    p = f.modulus.p
    spectrum = {}

    def forward():
        spectrum["F"] = fourier.dft(f)
        return spectrum["F"]

    return [
        Request(f"dft p={p}", forward, lambda: _dft_oracle(f),
                _check_transform, _oracle_plus_one),
        Request(f"idft p={p}", lambda: fourier.idft(spectrum["F"]),
                lambda: [v.coeffs for v in f.values],
                lambda out, want: [v.coeffs for v in out.values] == want,
                lambda want: [tuple(c + 1 for c in want[0])] + want[1:]),
    ]


def _convolve_request(rng: random.Random, dense: SignalFn, g: SignalFn) -> Request:
    modulus = g.modulus
    p = modulus.p
    points = set(rng.sample(range(p), CONVOLVE_SUPPORT))
    zero = CycloNum.zero(modulus)
    f = SignalFn(modulus, [v if x in points else zero for x, v in enumerate(dense.values)])

    def expect():
        table = oracle.roots(p)
        fe = [oracle.embed(v, table) for v in f.values]
        ge = [oracle.embed(v, table) for v in g.values]
        magnitude = sum(abs(v) for v in fe) * max(abs(v) for v in ge)
        return table, oracle.float_convolution(fe, ge), magnitude

    return Request(f"convolve p={p}", lambda: fourier.convolve(f, g), expect,
                   _check_transform, _oracle_plus_one)


def _rational_dft_request(rng: random.Random, modulus: PrimeModulus) -> Request:
    f = SignalFn(modulus, [rng.randint(-COEFF, COEFF) for _ in range(modulus.p)])
    return Request(f"dft-rational p={modulus.p}", lambda: fourier.dft(f),
                   lambda: _dft_oracle(f), _check_transform, _oracle_plus_one)


def _sparse_request(rng: random.Random, modulus: PrimeModulus, full: bool) -> Request:
    """Integer sparse polynomial with a closed-form zero set on the p-th roots.

    With fewer than p terms the folded exponents t*n_j stay distinct for
    t != 0, so P(w^t) != 0 there, and P(1) = 0 exactly when the coefficients
    sum to zero.  The multiple c * (1 + z + ... + z^(p-1)) vanishes at every
    t != 0 and attains the bound p - 1.
    """
    p = modulus.p
    if full:
        c = rng.choice([-1, 1]) * rng.randint(1, 50)
        terms = [(e, c) for e in range(p)]
        zeros = set(range(1, p))
    else:
        exponents = rng.sample(range(p), rng.randint(3, 12))
        coeffs = [rng.choice([-1, 1]) * rng.randint(1, 50) for _ in exponents]
        if rng.random() < 0.5 and sum(coeffs[:-1]) != 0:
            coeffs[-1] = -sum(coeffs[:-1])
        terms = list(zip(exponents, coeffs))
        zeros = {0} if sum(coeffs) == 0 else set()
    poly = applications.SparsePoly(modulus, terms)
    return Request(
        f"sparse p={p}", lambda: applications.sparse_zero_count(poly),
        lambda: (zeros, len(terms) - 1),
        lambda out, want: ((set(out.zeros.members), out.max_zeros) == want
                           and out.bound_holds),
        lambda want: (want[0], want[1] + 1),
    )


def _coset(rng: random.Random, p: int, n: int, dim: int) -> set[tuple[int, ...]]:
    """A random translate of a random subgroup of (Z/pZ)^n of order p^dim."""
    while True:
        basis = [[rng.randrange(p) for _ in range(n)] for _ in range(dim)]
        if _rank_mod_p(basis, p) == dim:
            break
    shift = [rng.randrange(p) for _ in range(n)]
    points = set()
    for weights in itertools.product(range(p), repeat=dim):
        points.add(tuple((shift[k] + sum(w * v[k] for w, v in zip(weights, basis))) % p
                         for k in range(n)))
    return points


def _rank_mod_p(rows: list[list[int]], p: int) -> int:
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col] % p), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        for r in range(len(rows)):
            if r != rank and rows[r][col] % p:
                factor = rows[r][col] * inv % p
                rows[r] = [(x - factor * y) % p for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _meshulam_request(rng: random.Random, p: int, n: int) -> Request:
    """Indicator of a coset of a subgroup of order p^j: supports (p^j, p^(n-j))."""
    modulus = PrimeModulus(p)
    dim = rng.randint(0, n)
    signal = applications.MultiSignal(modulus, n, {pt: 1 for pt in _coset(rng, p, n, dim)})
    return Request(
        f"meshulam p={p} n={n}", lambda: applications.meshulam_check(signal),
        lambda: (p ** dim, p ** (n - dim)),
        lambda out, want: ((out.support_size, out.fourier_support_size) == want
                           and all(out.per_j) and out.hull_ok),
        lambda want: (want[0] + 1, want[1]),
    )


def transform_stream(seed: int, index: int) -> list[Request]:
    rng = pass_rng("transform-stream", seed, index)
    dense = {p: [_dense_signal(rng, PrimeModulus(p)) for _ in range(DENSE_SIGNALS)]
             for p in TRANSFORM_PRIMES}
    requests = []
    for p in TRANSFORM_PRIMES:
        for f in dense[p]:
            requests += _dft_requests(f)
    signals = dense[CONVOLVE_P]
    for i in range(CONVOLVE_REQUESTS):
        requests.append(_convolve_request(rng, signals[i % DENSE_SIGNALS],
                                          signals[(i + 1) % DENSE_SIGNALS]))
    requests += [_rational_dft_request(rng, PrimeModulus(p)) for p in TRANSFORM_PRIMES]
    sparse_modulus = PrimeModulus(SPARSE_P)
    requests += [_sparse_request(rng, sparse_modulus, i == 0) for i in range(SPARSE_REQUESTS)]
    requests += [_meshulam_request(rng, p, n) for p, n in MESHULAM_SHAPES]
    return requests
