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
    HomWE,
    QuadSpaceW,
    Scale,
    StabilizerClass,
    Swap,
    SymplecticSpace,
    is_isotropic,
    po2_act,
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


def hyperbolic_criterion(f) -> Fraction:
    """2 f1 f3 + f2^2, the kappa-norm of the kernel-perp line of v . f^T."""
    f = [Fraction(x) for x in f]
    return 2 * f[0] * f[2] + f[1] * f[1]


def rank_one_hom(vector, covector) -> HomWE:
    """The hom w |-> covector(w) . vector as a 6x3 matrix."""
    v = [Fraction(x) for x in vector]
    f = [Fraction(x) for x in covector]
    return HomWE(ExactMatrix([[f[j] * v[i] for j in range(3)] for i in range(6)]))


def _hom_from_columns(*cols) -> HomWE:
    rows = len(cols[0])
    return HomWE(ExactMatrix([[Fraction(c[i]) for c in cols] for i in range(rows)]))


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


@lru_cache(maxsize=None)
def omega_census() -> dict:
    """Classify every family member and tally against the predictions."""
    w_space = QuadSpaceW()
    e_space = SymplecticSpace.standard(3)
    counts: dict[str, int] = {}
    strata: dict[str, int] = {}
    mismatches = 0
    family = build_stabilizer_family()
    for member in family:
        got = stabilizer_class_omega(member["hom"], w_space, e_space)
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
    counts: dict[str, int] = {}
    strata: dict[str, int] = {}
    zero_locus = 0
    mismatches = 0
    family = build_ext_pair_family()
    for member in family:
        got = stabilizer_class_sigma(member["pair"])
        counts[got.value] = counts.get(got.value, 0) + 1
        strata[member["stratum"]] = strata.get(member["stratum"], 0) + 1
        if got is not member["predicted"]:
            mismatches += 1
        if all(x == 0 for x in yoneda_sigma(member["pair"])):
            zero_locus += 1
    # beta == 0 on the zero pair and on the six beta-zero pairs.
    return {
        "total": len(family),
        "counts": dict(sorted(counts.items())),
        "strata": dict(sorted(strata.items())),
        "zero_locus": zero_locus,
        "mismatches": mismatches,
        "all_match": mismatches == 0,
    }


def order_two_relations() -> dict:
    """Swap negates the quadratic value, scaling preserves it; swap is an
    involution on the underlying pair."""
    pair = ExtPair((1, 2), (3, -1))
    swapped, swap_report = po2_act(Swap(), pair)
    back, _ = po2_act(Swap(), swapped)
    scaled, scale_report = po2_act(Scale(Fraction(2)), pair)
    rescaled, _ = po2_act(Scale(Fraction(1, 2)), scaled)
    return {
        "swap_relation": swap_report["relation"],
        "swap_ok": swap_report["ok"],
        "swap_involution": back.e12 == pair.e12 and back.e21 == pair.e21,
        "scale_relation": scale_report["relation"],
        "scale_ok": scale_report["ok"],
        "scale_round_trip": rescaled.e12 == pair.e12 and rescaled.e21 == pair.e21,
    }


# ---------------------------------------------------------------------------
# Zero locus versus isotropy.


def _f3_vectors(dim: int) -> list[tuple[int, ...]]:
    vecs = [()]
    for _ in range(dim):
        vecs = [v + (x,) for v in vecs for x in range(3)]
    return vecs


def _omega_f3(u, v) -> int:
    # Standard alternating form on F_3^4: blocks [[0, I], [-I, 0]].
    return (u[0] * v[2] + u[1] * v[3] - u[2] * v[0] - u[3] * v[1]) % 3


def _lead(v) -> int:
    return next(i for i, x in enumerate(v) if x)


def _extend_basis_f3(basis, col) -> list[list[int]]:
    """The row-reduced basis of span(basis, col), as a new list sorted by
    leading index; `basis` itself is returned when col lies in its span."""
    v = list(col)
    for b in basis:
        c = v[_lead(b)]
        if c:
            v = [(x - c * y) % 3 for x, y in zip(v, b)]
    if not any(v):
        return basis
    if v[_lead(v)] == 2:
        v = [(2 * x) % 3 for x in v]
    return sorted(basis + [v], key=_lead)


def _span_basis_f3(cols) -> list[list[int]]:
    """Row-reduced basis of the span of the given F_3^4 vectors."""
    basis: list[list[int]] = []
    for col in cols:
        basis = _extend_basis_f3(basis, col)
    return basis


def _isotropic_basis_f3(basis) -> bool:
    return all(
        _omega_f3(basis[i], basis[j]) == 0
        for i in range(len(basis))
        for j in range(i + 1, len(basis))
    )


def _f3_multisets():
    """Every multiset a <= b <= c of indices into the vectors of F_3^4, with
    route one's and route two's verdicts on the hom with those columns.

    Route two depends on a triple only through the basis of its first two
    columns (the prefix) and its third column.  Only 431 prefixes occur, so
    each verdict is computed once per (prefix, c), on first use, and kept in
    a row of 81 per prefix; the basis it is computed on is exactly the one
    `_span_basis_f3` builds from the raw triple.
    """
    vecs = _f3_vectors(4)
    npts = len(vecs)
    pairzero = [
        [(_omega_f3(vecs[a], vecs[b]) == 0) for b in range(npts)] for a in range(npts)
    ]
    memo: dict[tuple, list] = {}
    for a in range(npts):
        rowa = pairzero[a]
        for b in range(a, npts):
            rowb = pairzero[b]
            ab = rowa[b]
            prefix = _span_basis_f3((vecs[a], vecs[b]))
            key = tuple(map(tuple, prefix))
            verdicts = memo.get(key)
            if verdicts is None:
                verdicts = memo[key] = [None] * npts
            for c in range(b, npts):
                route_two = verdicts[c]
                if route_two is None:
                    route_two = verdicts[c] = _isotropic_basis_f3(
                        _extend_basis_f3(prefix, vecs[c])
                    )
                yield a, b, c, ab and rowa[c] and rowb[c], route_two


@lru_cache(maxsize=None)
def isotropy_equivalence_f3() -> dict:
    """Full enumeration of Hom(F_3^3, F_3^4): quadratic zero locus == isotropy.

    A hom is its triple of columns; triples are enumerated as multisets with
    multiplicity bookkeeping (column order affects neither side).  Route one
    tests the three pairwise omega values of the raw columns; route two row-
    reduces the column span and tests omega on the extracted basis.  The
    isotropic count has a closed-form cross-check: 1 zero hom, 1040 rank-one
    homs (every line is isotropic), and 40 isotropic planes times 624
    surjections onto a plane, totalling 26001.
    """
    total = 0
    isotropic = 0
    disagreements = 0
    multisets = 0
    for a, b, c, route_one, route_two in _f3_multisets():
        if a == b == c:
            mult = 1
        elif a == b or b == c:
            mult = 3
        else:
            mult = 6
        multisets += 1
        total += mult
        if route_one != route_two:
            disagreements += mult
        if route_one:
            isotropic += mult
    return {
        "homs": total,
        "multisets": multisets,
        "isotropic": isotropic,
        "disagreements": disagreements,
        "all_agree": disagreements == 0,
    }


@lru_cache(maxsize=None)
def rational_isotropy_samples(count: int = 1000, seed: int = DEFAULT_SAMPLE_SEED) -> dict:
    """Seeded rational homs: the quadratic map vanishes iff the image is
    isotropic, where the isotropy side runs through span generators rather
    than the quadratic coordinates.

    Half the samples are unconstrained; the other half take values in the
    standard Lagrangian so both verdicts are exercised.
    """
    rng = random.Random(seed)
    e_space = SymplecticSpace.standard(3)
    agree = 0
    zero_locus_hits = 0
    half = count // 2
    for i in range(count):
        if i < half:
            rows = [[rng.randint(-4, 4) for _ in range(3)] for _ in range(6)]
        else:
            rows = [[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)]
            rows += [[0] * 3 for _ in range(3)]
        phi = HomWE(ExactMatrix(rows))
        on_zero_locus = all(x == 0 for x in yoneda_omega(phi, e_space))
        isotropic = is_isotropic(phi.columns(), e_space)
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
