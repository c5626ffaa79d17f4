"""Census families: sizes, strata, oracles, and determinism."""

import random
from fractions import Fraction

from towercalc.census import (
    ADDITIVE_COVECTORS,
    DEFAULT_SAMPLE_SEED,
    MULTIPLICATIVE_COVECTORS,
    build_ext_pair_family,
    build_stabilizer_family,
    hyperbolic_criterion,
    isotropy_equivalence_f3,
    omega_census,
    order_two_relations,
    rational_isotropy_samples,
    sigma_census,
    _extend_basis_f3,
    _f3_multisets,
    _f3_vectors,
    _omega_f3,
    _span_basis_f3,
)


def test_additive_covectors_satisfy_the_hyperbolic_criterion():
    for f in ADDITIVE_COVECTORS:
        assert hyperbolic_criterion(f) == 0


def test_multiplicative_covectors_violate_the_hyperbolic_criterion():
    for f in MULTIPLICATIVE_COVECTORS:
        assert hyperbolic_criterion(f) != 0


def test_stabilizer_family_size_and_strata():
    family = build_stabilizer_family()
    assert len(family) == 75
    strata = {}
    for member in family:
        strata[member["stratum"]] = strata.get(member["stratum"], 0) + 1
    assert strata == {
        "rank0": 1,
        "rank1-additive": 32,
        "rank1-multiplicative": 32,
        "rank2": 6,
        "rank3": 4,
    }


def test_omega_census_matches_predictions_everywhere():
    report = omega_census()
    assert report["total"] == 75
    assert report["mismatches"] == 0
    assert report["all_match"] is True
    assert report["counts"] == {
        "additive": 32,
        "full_so_w": 1,
        "multiplicative": 32,
        "trivial": 10,
    }


def test_omega_census_is_shared_and_equals_a_fresh_run():
    first = omega_census()
    assert omega_census() == first
    assert omega_census.__wrapped__() == first


def test_ext_pair_family_and_sigma_census():
    family = build_ext_pair_family()
    assert len(family) == 13
    report = sigma_census()
    assert report["total"] == 13
    assert report["all_match"] is True
    assert report["counts"] == {"multiplicative": 1, "trivial": 12}
    assert report["strata"] == {"beta-nonzero": 6, "beta-zero": 6, "zero-pair": 1}
    assert report["zero_locus"] == 7


def test_order_two_relations():
    report = order_two_relations()
    assert report["swap_relation"] == "negated"
    assert report["scale_relation"] == "preserved"
    assert report["swap_ok"] and report["swap_involution"]
    assert report["scale_ok"] and report["scale_round_trip"]


def test_f3_enumeration_counts_and_closed_form():
    report = isotropy_equivalence_f3()
    assert report["homs"] == 3 ** 12
    assert report["multisets"] == 91881
    assert report["disagreements"] == 0
    assert report["all_agree"] is True
    # closed form: the zero map, all maps with a single isotropic line as
    # image (every line is isotropic for an alternating pairing), and all
    # surjections onto one of the 40 two-dimensional isotropic subspaces
    lines = (3 ** 4 - 1) * (3 ** 3 - 1) // 2
    rank_le_one_maps_to_plane = 1 + 4 * (3 ** 3 - 1)
    surjections = 3 ** 6 - rank_le_one_maps_to_plane
    assert report["isotropic"] == 1 + lines + 40 * surjections == 26001


def reference_span_basis(cols):
    """Reference for `_span_basis_f3`: the same row reduction written as
    one loop, independent of `_extend_basis_f3`."""
    basis = []
    for col in cols:
        v = list(col)
        for b in basis:
            lead = next(i for i, x in enumerate(b) if x)
            c = v[lead]
            if c:
                v = [(x - c * y) % 3 for x, y in zip(v, b)]
        if any(v):
            lead = next(i for i, x in enumerate(v) if x)
            if v[lead] == 2:
                v = [(2 * x) % 3 for x in v]
            basis.append(v)
            basis.sort(key=lambda b: next(i for i, x in enumerate(b) if x))
    return basis


def test_span_basis_scales_each_lead_to_one():
    assert _span_basis_f3([(2, 0, 0, 0)]) == [[1, 0, 0, 0]]
    assert _span_basis_f3([(0, 0, 2, 1), (2, 1, 0, 0)]) == [[1, 2, 0, 0], [0, 0, 1, 2]]
    assert _span_basis_f3([(1, 1, 0, 0), (2, 2, 0, 0)]) == [[1, 1, 0, 0]]
    assert _span_basis_f3([]) == []


def test_memoised_route_two_matches_the_raw_triple():
    vecs = _f3_vectors(4)
    rng = random.Random(8111)
    picked = set(rng.sample(range(91881), 600))
    seen = 0
    for index, (a, b, c, route_one, route_two) in enumerate(_f3_multisets()):
        if index not in picked:
            continue
        seen += 1
        triple = (vecs[a], vecs[b], vecs[c])
        basis = reference_span_basis(triple)
        assert _extend_basis_f3(_span_basis_f3(triple[:2]), triple[2]) == basis
        assert route_two == all(
            _omega_f3(basis[i], basis[j]) == 0
            for i in range(len(basis))
            for j in range(i + 1, len(basis))
        )
        pairs = ((0, 1), (0, 2), (1, 2))
        assert route_one == all(_omega_f3(triple[i], triple[j]) == 0 for i, j in pairs)
    assert seen == 600


def test_rational_samples_agree_and_are_deterministic():
    a = rational_isotropy_samples(1000, DEFAULT_SAMPLE_SEED)
    b = rational_isotropy_samples(1000, DEFAULT_SAMPLE_SEED)
    assert a == b
    assert a["samples"] == a["agreements"] == 1000
    assert a["all_agree"] is True
    assert a["zero_locus_hits"] == 500


def test_rational_samples_agree_for_other_seeds():
    report = rational_isotropy_samples(60, 7)
    assert report["samples"] == report["agreements"] == 60
    assert report["all_agree"] is True
    # half the draws are built inside the vanishing locus by construction
    assert report["zero_locus_hits"] >= 30


def test_family_entries_are_exact():
    for member in build_stabilizer_family():
        for row in member["hom"].matrix.entries:
            for x in row:
                assert x.is_constant()
                assert isinstance(x.constant_value(), Fraction)
