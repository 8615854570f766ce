"""Pinned outputs of the character-sum kernels.

Each digest is the SHA-256 of the repr of every output's (numerators,
denominator), or of the supports' members, over seeded corpora at
p = 2, 3, 5, 31, 61 and 97.  A change to the codec or the sums that keeps
every value exact keeps every byte, so these digests must not move.
"""

import hashlib
import random
from fractions import Fraction

import pytest

from primefourier import CycloNum, PrimeModulus, SignalFn, convolve, dft, fourier_support, idft
from primefourier.cyclotomic import character_sums

PRIMES = (2, 3, 5, 31, 61, 97)


def dense_value(rng, modulus, top=999):
    return CycloNum(modulus, [Fraction(rng.randint(-top, top), rng.randint(1, 9))
                              for _ in range(modulus.p - 1)])


def single_term(rng, modulus):
    coeffs = [0] * (modulus.p - 1)
    coeffs[rng.randrange(modulus.p - 1)] = Fraction(rng.randint(-999, 999) or 1, rng.randint(1, 9))
    return CycloNum(modulus, coeffs)


def corpus_values(kind, rng, modulus):
    """p values of one corpus kind."""
    p = modulus.p
    if kind == "dense":
        return [dense_value(rng, modulus) for _ in range(p)]
    if kind == "quarter":
        filled = set(rng.sample(range(p), -(-p // 4)))
        return [dense_value(rng, modulus) if x in filled else 0 for x in range(p)]
    if kind == "rational":
        return [Fraction(rng.randint(-999, 999), rng.randint(1, 9)) for _ in range(p)]
    if kind == "single-term":
        return [single_term(rng, modulus) if rng.random() < 0.5 else dense_value(rng, modulus)
                for _ in range(p)]
    assert kind == "wide"
    return [dense_value(rng, modulus, 2**80) for _ in range(p)]


def digest(values):
    return hashlib.sha256(repr([(v._num, v._den) for v in values]).encode()).hexdigest()


def outputs(kind):
    """{function: SHA-256 of its outputs over PRIMES} for one corpus kind."""
    hashes = {name: hashlib.sha256() for name in
              ("dft", "idft", "convolve", "fourier_support", "character_sums")}
    for p in PRIMES:
        modulus = PrimeModulus(p)
        rng = random.Random(f"{kind} {p}")
        f = SignalFn(modulus, corpus_values(kind, rng, modulus))
        g = SignalFn(modulus, corpus_values(kind, rng, modulus))
        kept = set(rng.sample(range(p), (p + 1) // 2))
        h = SignalFn(modulus, [v if x in kept else 0 for x, v in enumerate(g.values)])
        exponents = [rng.randrange(-p, 2 * p) for _ in range(p)]
        multipliers = [0, 1, -1, p, p + 1, -p - 1] + [rng.randrange(-p, 3 * p) for _ in range(5)]
        results = {
            "dft": digest(dft(f).values),
            "idft": digest(idft(f).values),
            "convolve": digest(convolve(f, g).values),
            "fourier_support": repr([fourier_support(f).members,
                                     fourier_support(idft(h)).members]),
            "character_sums": digest(character_sums(modulus, f.values, exponents,
                                                    multipliers, rng.randint(1, 9))),
        }
        for name, text in results.items():
            hashes[name].update(text.encode())
    return {name: h.hexdigest() for name, h in hashes.items()}


# Computed at the commit before the signed codec, so they pin the outputs
# that every later kernel change must keep.
GOLDEN = {
    "dense": {
        "dft":
            "22f6b86fa0aa78d3122f0d1aebabefbad62581125bd9a508a541455658f4ea9b",
        "idft":
            "b291f6dfc1abf003ef734357311cd4c0680d334628732c7d867c968b71f05bd8",
        "convolve":
            "66882cf7c9882fd518cd134fccbc8f161f9790ae7a5b5963f47b7850cd264209",
        "fourier_support":
            "9ac879bf04df00cfee51df516c15b49d86f91106716d615e59eb25c2356824d9",
        "character_sums":
            "3503f29d2d58ee9598ccc61d7999b314df938a7c4d24fbeef947b2f13bb1b783",
    },
    "quarter": {
        "dft":
            "5a313edda3e42b99ef9e3b0550c7f26678cd4e2649359ea84d62104d3cd80fdc",
        "idft":
            "e321e0b9beee57fb58693fdb663a1f15f3e519de1e7af237de181ee7f7dbacb0",
        "convolve":
            "6d3c6e29898c9b2c691e95350882f1ec6bab223b83ab58dc4884511b8c1dc4cc",
        "fourier_support":
            "f53f7d640e3ac64b9993808d14602160821f89bcff9ff64c1164d13ee9fe62be",
        "character_sums":
            "5e2d1edc5b04c3311d051d89e5f59bd66e096fa7eb635a9fab9a3b43231b9014",
    },
    "rational": {
        "dft":
            "23406fdb50f7249f2876259c566cccfd36637d6f110b4285bd05c891d7aabb24",
        "idft":
            "8e1625d81d0f541d6f10de48a5140f9d27a5c38aad5649e9c2cae2874a8f7b2c",
        "convolve":
            "b17f8a91c89648e5a16616c071a47598557dfd1dfaaf165225436bb65bdead0b",
        "fourier_support":
            "6e57fad6a2135d52badeb6e3d85a911f0dfe4424a67ccb635a5052d092802963",
        "character_sums":
            "cf758e3d0df5b1e7d9e968eb3d8cc3668effd6625f559474416099837f0de468",
    },
    "single-term": {
        "dft":
            "2d6e1faf1732abd436ef6b41959a1d15393c91a41934abface48a889d2c01cd5",
        "idft":
            "044df74c01dcec306757a0f00309e7ab5714250af337401524477a006636d6f5",
        "convolve":
            "b25193097f83496aa1e9d553916f8185cdb36629f380e9e5a23f2c1cbfa9d821",
        "fourier_support":
            "6a019cafb15ced1c0eaf4428381443df8207bb93c8c0efd1c9aec78418367527",
        "character_sums":
            "679bc1cbd4cea8ec005db86c6e136b52639b1bfc1dc54d75ac4f8564d362d082",
    },
    "wide": {
        "dft":
            "f8941435c09705e85eaa0b9bbef72bbb22ce78f1c3cc86457acd451ee0284b46",
        "idft":
            "d4e1019d532516be1b0ecd8b071718befb7debf52be0b452381348cadee2d379",
        "convolve":
            "89a69f83298e3be3b4904945d93df35816d6ff1edca701776ab266c410b92894",
        "fourier_support":
            "cbc11a7067681461cc9d96103255fb468fafca2c79a5abf9679112c86df6f11e",
        "character_sums":
            "88fadbcf17f52a36d0dda2287b1eb8fe964ba0cbcde87460a784ad8e990a65e1",
    },
}


@pytest.mark.parametrize("kind", ["dense", "quarter", "rational", "single-term", "wide"])
def test_outputs_match_pinned_digests(kind):
    assert outputs(kind) == GOLDEN[kind]
