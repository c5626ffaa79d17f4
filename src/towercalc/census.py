"""Exhaustive and sampled families for the local-model classification.

Three jobs live here:

* a rank-stratified family of homomorphisms with isotropic image, each
  carrying the stabilizer class predicted by the covector criterion, so the
  engine classification can be checked against the prediction on every
  member;
* a census of ext pairs under the rank-one torus action, together with the
  order-two equivariance relations (swap negates the quadratic value,
  scaling preserves it);
* the zero-locus/isotropy comparison: the quadratic map on homomorphisms
  vanishes exactly when the image is isotropic, checked on seeded rational
  samples and by full enumeration over F_3 into a four-dimensional
  symplectic space.

The enumeration works on integer codes: each vector of F_3^4 is the int
0..80 whose base-3 digits are its coordinates, omega is an 81 x 81 table
over the codes, and row reduction reads the leading index, the
normalisation and each elimination step from lookup tables.  The tables are
built on first use, so importing this module stays cheap.  For each pair
(a, b) of first columns, both routes hold their verdicts on every third
column c as one 81-bit mask: route one from the omega table, route two
from a row of verdicts per prefix basis that is filled lazily and reads a
per-basis memo of the isotropy test.  Tallies are popcounts of those masks.

Everything is exact.  `omega_census`, `isotropy_equivalence_f3` and
`rational_isotropy_samples` are memoized with `lru_cache`: several checks of
one scenario share each of them, so a process computes each once.  They
return the same dict to every caller, which must not mutate it.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache

from .exactnum import ExactMatrix
from .symplectic import (
    ExtPair,
    StabilizerClass,
    _f3_vectors,
    is_isotropic,
    stabilizer_class_omega,
    stabilizer_class_sigma,
    yoneda_omega,
    yoneda_sigma,
)

# Covectors f with 2 f1 f3 + f2^2 == 0 (the kernel-perp line is
# kappa-isotropic, forcing an additive stabilizer for a rank-one hom) and
# covectors violating it (multiplicative stabilizer).
ADDITIVE_COVECTORS = (
    (1, 0, 0),
    (0, 0, 1),
    (2, 2, -1),
    (1, 2, -2),
    (-1, 2, 2),
    (2, -2, -1),
    (1, -2, -2),
    (-2, 2, 1),
)
MULTIPLICATIVE_COVECTORS = (
    (0, 1, 0),
    (1, 0, 1),
    (1, 1, 0),
    (0, 1, 1),
    (1, 0, -1),
    (1, 1, 1),
    (2, 1, 0),
    (0, 2, 1),
)
# Any single nonzero vector spans an isotropic line, so every rank-one hom
# below lands in the isotropic-image locus automatically.
IMAGE_VECTORS = (
    (1, 0, 0, 0, 0, 0),
    (0, 1, 0, 0, 0, 0),
    (0, 0, 0, 1, 0, 0),
    (1, 0, 0, 0, 0, 1),
)

DEFAULT_SAMPLE_SEED = 20260822
#: Most samples that one `rational_isotropy_samples` call may draw.
MAX_SAMPLES = 10**5


def hyperbolic_criterion(f) -> Fraction:
    """2 f1 f3 + f2^2, the kappa-norm of the kernel-perp line of v . f^T."""
    f = [Fraction(x) for x in f]
    return 2 * f[0] * f[2] + f[1] * f[1]


def rank_one_hom(vector, covector) -> ExactMatrix:
    """The hom w |-> covector(w) . vector as a 6x3 matrix; the entries are
    int or Fraction."""
    return ExactMatrix([[x * f for f in covector] for x in vector])


def _hom_from_columns(*cols) -> ExactMatrix:
    return ExactMatrix(list(zip(*cols)))


def build_stabilizer_family() -> list[dict]:
    """Rank-stratified homs with predicted classes.

    rank 0: the zero map (full stabilizer).
    rank 1: sixteen covectors split by the hyperbolic criterion, times four
            image vectors.
    rank 2: image inside the isotropic plane <e1, e2>.
    rank 3: image equal to the Lagrangian <e1, e2, e3>.
    """
    zero6 = (0,) * 6
    x1 = (1, 0, 0, 0, 0, 0)
    x2 = (0, 1, 0, 0, 0, 0)
    x3 = (0, 0, 1, 0, 0, 0)
    x12 = tuple(a + b for a, b in zip(x1, x2))
    x23 = tuple(a + b for a, b in zip(x2, x3))

    family: list[dict] = []
    family.append(
        {
            "hom": _hom_from_columns(zero6, zero6, zero6),
            "predicted": StabilizerClass.FULL_SO_W,
            "stratum": "rank0",
        }
    )
    for covector in ADDITIVE_COVECTORS:
        assert hyperbolic_criterion(covector) == 0
        for vector in IMAGE_VECTORS:
            family.append(
                {
                    "hom": rank_one_hom(vector, covector),
                    "predicted": StabilizerClass.ADDITIVE,
                    "stratum": "rank1-additive",
                }
            )
    for covector in MULTIPLICATIVE_COVECTORS:
        assert hyperbolic_criterion(covector) != 0
        for vector in IMAGE_VECTORS:
            family.append(
                {
                    "hom": rank_one_hom(vector, covector),
                    "predicted": StabilizerClass.MULTIPLICATIVE,
                    "stratum": "rank1-multiplicative",
                }
            )
    for cols in (
        (x1, x2, zero6),
        (x1, zero6, x2),
        (zero6, x1, x2),
        (x1, x2, x1),
        (x1, x2, x2),
        (x1, x2, x12),
    ):
        family.append(
            {
                "hom": _hom_from_columns(*cols),
                "predicted": StabilizerClass.TRIVIAL,
                "stratum": "rank2",
            }
        )
    for cols in (
        (x1, x2, x3),
        (x2, x3, x1),
        (x12, x2, x3),
        (x1, x23, x3),
    ):
        family.append(
            {
                "hom": _hom_from_columns(*cols),
                "predicted": StabilizerClass.TRIVIAL,
                "stratum": "rank3",
            }
        )
    return family


def _tally(family: list[dict], key: str, classify) -> dict:
    """Classify each member's ``key`` entry and tally the classes, the strata
    and the mismatches against the members' predictions."""
    counts: dict[str, int] = {}
    strata: dict[str, int] = {}
    mismatches = 0
    for member in family:
        got = classify(member[key])
        counts[got.value] = counts.get(got.value, 0) + 1
        strata[member["stratum"]] = strata.get(member["stratum"], 0) + 1
        if got is not member["predicted"]:
            mismatches += 1
    return {
        "total": len(family),
        "counts": dict(sorted(counts.items())),
        "strata": dict(sorted(strata.items())),
        "mismatches": mismatches,
        "all_match": mismatches == 0,
    }


@lru_cache(maxsize=None)
def omega_census() -> dict:
    """Classify every family member and tally against the predictions."""
    return _tally(build_stabilizer_family(), "hom", stabilizer_class_omega)


def build_ext_pair_family() -> list[dict]:
    """Ext pairs stratified by the quadratic value beta = <e12, e21>.

    The zero pair keeps the whole torus; every nonzero pair has trivial
    stabilizer.  Membership in the quadratic zero locus is beta == 0, which
    cuts across both strata.
    """
    family: list[dict] = []
    family.append(
        {
            "pair": ExtPair((0, 0), (0, 0)),
            "predicted": StabilizerClass.MULTIPLICATIVE,
            "stratum": "zero-pair",
        }
    )
    beta_zero = (
        ((1, 0), (0, 1)),
        ((0, 1), (1, 0)),
        ((1, 0), (0, 2)),
        ((2, 0), (0, 1)),
        ((1, 1), (1, -1)),
        ((1, 2), (2, -1)),
    )
    beta_nonzero = (
        ((1, 0), (1, 0)),
        ((1, 1), (1, 1)),
        ((1, 0), (1, 1)),
        ((2, 1), (1, 1)),
        ((0, 1), (1, 1)),
        ((1, 2), (1, 1)),
    )
    for e12, e21 in beta_zero:
        pair = ExtPair(e12, e21)
        assert pair.pair() == 0
        family.append(
            {"pair": pair, "predicted": StabilizerClass.TRIVIAL, "stratum": "beta-zero"}
        )
    for e12, e21 in beta_nonzero:
        pair = ExtPair(e12, e21)
        assert pair.pair() != 0
        family.append(
            {
                "pair": pair,
                "predicted": StabilizerClass.TRIVIAL,
                "stratum": "beta-nonzero",
            }
        )
    return family


def sigma_census() -> dict:
    family = build_ext_pair_family()
    # beta == 0 on the zero pair and on the six beta-zero pairs.
    zero_locus = sum(
        all(x == 0 for x in yoneda_sigma(member["pair"])) for member in family
    )
    return dict(_tally(family, "pair", stabilizer_class_sigma), zero_locus=zero_locus)


def order_two_relations() -> dict:
    """The swap negates the quadratic value, scaling preserves it, and the
    swap is an involution on the underlying pair.  Each relation is compared
    here, so a wrong one reads false in the report."""
    pair = ExtPair((1, 2), (3, -1))
    swapped = pair.swapped()
    back = swapped.swapped()
    scaled = pair.scaled(2)
    rescaled = scaled.scaled(Fraction(1, 2))
    return {
        "swap_relation": "negated",
        "swap_ok": swapped.pair() == -pair.pair(),
        "swap_involution": back.e12 == pair.e12 and back.e21 == pair.e21,
        "scale_relation": "preserved",
        "scale_ok": scaled.pair() == pair.pair(),
        "scale_round_trip": rescaled.e12 == pair.e12 and rescaled.e21 == pair.e21,
    }


# ---------------------------------------------------------------------------
# Zero locus versus isotropy.


def _omega_f3(u, v) -> int:
    # Standard alternating form on F_3^4: blocks [[0, I], [-I, 0]].
    return (u[0] * v[2] + u[1] * v[3] - u[2] * v[0] - u[3] * v[1]) % 3


@lru_cache(maxsize=None)
def _f3_omega_table() -> list[list[int]]:
    """omega on F_3^4 as an 81 x 81 table over the integer codes."""
    vecs = _f3_vectors(4)
    return [[_omega_f3(u, v) for v in vecs] for u in vecs]


@lru_cache(maxsize=None)
def _f3_reduction_tables() -> tuple[list[int], list[int], list[list[int]]]:
    """Lookup tables for row reduction over the integer codes of F_3^4.

    lead[v] is the index of the first nonzero coordinate of v (0 for v = 0),
    norm[v] the multiple of v whose leading coordinate is 1 (0 for v = 0),
    and elim[v][b] is v - c b with c = v[lead[b]], which clears v at the
    lead of a normalised b.
    """
    vecs = _f3_vectors(4)
    # sub[v][w] is the code of v - w, built one base-3 digit at a time: the
    # vectors coded 3v + x and 3w + y differ by the one coded
    # 3 sub[v][w] + (x - y) % 3.
    sub = [[0]]
    for _ in range(4):
        size = 3 * len(sub)
        sub = [
            [3 * sub[v // 3][w // 3] + (v - w) % 3 for w in range(size)]
            for v in range(size)
        ]
    neg = sub[0]
    lead = [next((i for i, x in enumerate(v) if x), 0) for v in vecs]
    norm = [neg[k] if v[lead[k]] == 2 else k for k, v in enumerate(vecs)]
    multiples = [(0, k, neg[k]) for k in range(len(vecs))]
    elim = [
        [sub[k][multiples[j][v[lead[j]]]] for j in range(len(vecs))]
        for k, v in enumerate(vecs)
    ]
    return lead, norm, elim


def _extend_basis_f3(basis: tuple[int, ...], v: int) -> tuple[int, ...]:
    """The row-reduced basis of span(basis, v), sorted by leading index;
    `basis` itself is returned when v lies in its span.  Vectors are integer
    codes, and every basis vector has leading coordinate 1."""
    lead, norm, elim = _f3_reduction_tables()
    for b in basis:
        v = elim[v][b]
    if not v:
        return basis
    return tuple(sorted(basis + (norm[v],), key=lead.__getitem__))


def _span_basis_f3(cols) -> tuple[int, ...]:
    """Row-reduced basis of the span of the given F_3^4 vector codes."""
    basis: tuple[int, ...] = ()
    for col in cols:
        basis = _extend_basis_f3(basis, col)
    return basis


def _isotropic_basis_f3(basis, omega) -> bool:
    return all(
        omega[basis[i]][basis[j]] == 0
        for i in range(len(basis))
        for j in range(i + 1, len(basis))
    )


def _f3_enumeration(memo: dict) -> dict:
    """Both routes on every multiset a <= b <= c of vector codes, tallied by
    multiplicity, one (a, b) pair at a time over 81-bit masks indexed by c.

    Route one is the mask zero[a] & zero[b] when omega(a, b) = 0 and empty
    otherwise; zero[x] has bit c set when omega(x, c) = 0.  Route two depends
    on a triple only through the basis of its first two columns (the prefix)
    and its third column.  Only 431 prefixes occur, and `memo` maps each to
    (mask, low): bit c of mask is the route-two verdict for c, computed for
    every c >= low.  A pair (a, b) needs the bits from b up, so the row is
    filled lazily downwards to the lowest b that reaches the prefix; each
    bit is `_isotropic_basis_f3` on `_extend_basis_f3(prefix, c)`, which is
    exactly the basis `_span_basis_f3` builds from the raw triple, and the
    verdict is memoised per basis within one call (1,511 distinct echelon
    bases for the 16,761 bits).  The multisets with third column c = b and
    c > b are counted by popcount on the two routes and on their difference.
    """
    omega = _f3_omega_table()
    npts = len(omega)
    zero = [sum(1 << c for c, x in enumerate(row) if x == 0) for row in omega]
    full = (1 << npts) - 1
    basis_verdicts: dict[tuple[int, ...], bool] = {}
    total = isotropic = disagreements = multisets = 0
    for a in range(npts):
        first = _span_basis_f3((a,))
        for b in range(a, npts):
            prefix = _extend_basis_f3(first, b)
            two, low = memo.get(prefix, (0, npts))
            if b < low:
                for c in range(b, low):
                    basis = _extend_basis_f3(prefix, c)
                    verdict = basis_verdicts.get(basis)
                    if verdict is None:
                        verdict = basis_verdicts[basis] = _isotropic_basis_f3(
                            basis, omega
                        )
                    if verdict:
                        two |= 1 << c
                memo[prefix] = (two, b)
            one = zero[a] & zero[b] if omega[a][b] == 0 else 0
            diff = one ^ two
            above = full ^ ((2 << b) - 1)
            # c = b has multiplicity 1 when a = b and 3 when a < b; every
            # c > b has 3 and 6.
            at_b, above_b = (1, 3) if a == b else (3, 6)
            isotropic += at_b * (one >> b & 1) + above_b * (one & above).bit_count()
            disagreements += (
                at_b * (diff >> b & 1) + above_b * (diff & above).bit_count()
            )
            multisets += npts - b
            total += at_b + above_b * (npts - 1 - b)
    return {
        "homs": total,
        "multisets": multisets,
        "isotropic": isotropic,
        "disagreements": disagreements,
        "all_agree": disagreements == 0,
    }


@lru_cache(maxsize=None)
def isotropy_equivalence_f3() -> dict:
    """Full enumeration of Hom(F_3^3, F_3^4): quadratic zero locus == isotropy.

    Each vector of F_3^4 is coded as an int 0..80 (its base-3 digits), and
    omega is read from an 81 x 81 table over the codes.  A hom is its triple
    of columns; triples are enumerated as multisets with multiplicity
    bookkeeping (column order affects neither side).  Route one tests the
    three pairwise omega values of the raw columns; route two row-reduces
    the column span over lookup tables and tests omega on the extracted
    basis.  Both routes are evaluated on every multiset, as bitmasks over
    the third column (see `_f3_enumeration`): route two's rows are filled
    lazily per prefix basis, and its isotropy test is memoised per extracted
    basis.  Neither route reads the closed form of the isotropic count, which
    is a separate cross-check: 1 zero hom, 1040 rank-one homs (every line is
    isotropic), and 40 isotropic planes times 624 surjections onto a plane,
    totalling 26001.
    """
    return _f3_enumeration({})


def _draw_entries(bits, count: int) -> list[int]:
    """``count`` integers in -4..4, row by row, drawn as ``randint(-4, 4)``
    draws them from the generator whose ``getrandbits`` is ``bits``: 4 random
    bits, redrawn until they are below 9."""
    entries = []
    for _ in range(count):
        r = bits(4)
        while r >= 9:
            r = bits(4)
        entries.append(r - 4)
    return entries


@lru_cache(maxsize=None)
def rational_isotropy_samples(count: int = 1000, seed: int = DEFAULT_SAMPLE_SEED) -> dict:
    """Seeded rational homs: the quadratic map vanishes iff the image is
    isotropic, where the isotropy side runs through span generators rather
    than the quadratic coordinates.

    Half the samples are unconstrained; the other half take values in the
    standard Lagrangian so both verdicts are exercised.  A count below 1 or
    above MAX_SAMPLES raises ValueError before the first draw.
    """
    if not 1 <= count <= MAX_SAMPLES:
        raise ValueError(
            "samples %d is outside the budget of 1 to %d" % (count, MAX_SAMPLES)
        )
    bits = random.Random(seed).getrandbits
    agree = 0
    zero_locus_hits = 0
    half = count // 2
    for i in range(count):
        entries = _draw_entries(bits, 18 if i < half else 9)
        entries += [0] * (18 - len(entries))
        phi = ExactMatrix([entries[j:j + 3] for j in range(0, 18, 3)])
        on_zero_locus = all(x == 0 for x in yoneda_omega(phi))
        isotropic = is_isotropic(zip(*phi.const_entries()))
        if on_zero_locus == isotropic:
            agree += 1
        if on_zero_locus:
            zero_locus_hits += 1
    return {
        "samples": count,
        "agreements": agree,
        "all_agree": agree == count,
        "zero_locus_hits": zero_locus_hits,
    }
