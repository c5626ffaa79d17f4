"""Census families: sizes, strata, oracles, and determinism."""

import random
from fractions import Fraction
from itertools import combinations_with_replacement
from types import SimpleNamespace

import pytest

from towercalc import census
from towercalc.census import (
    ADDITIVE_COVECTORS,
    DEFAULT_SAMPLE_SEED,
    MAX_SAMPLES,
    MULTIPLICATIVE_COVECTORS,
    build_ext_pair_family,
    build_stabilizer_family,
    hyperbolic_criterion,
    isotropy_equivalence_f3,
    omega_census,
    order_two_relations,
    rational_isotropy_samples,
    sigma_census,
    _draw_entries,
    _extend_basis_f3,
    _f3_enumeration,
    _f3_omega_table,
    _f3_vectors,
    _isotropic_basis_f3,
    _omega_f3,
    _span_basis_f3,
)
from towercalc.cli import main
from towercalc.exactnum import ParamPoly
from towercalc.symplectic import ExtPair, StabilizerClass


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


def _swap_keeping_the_pairing(self):
    return ExtPair(self.e21, self.e12, self.sign)


def _scale_forgetting_e21(self, lam):
    return ExtPair(tuple(lam * x for x in self.e12), self.e21, self.sign)


@pytest.mark.parametrize(
    "method, wrong, key",
    [
        ("swapped", _swap_keeping_the_pairing, "swap_ok"),
        ("scaled", _scale_forgetting_e21, "scale_ok"),
    ],
)
def test_a_wrong_order_two_relation_fails_the_check(monkeypatch, capsys, method, wrong, key):
    monkeypatch.setattr(ExtPair, method, wrong)
    report = order_two_relations()
    assert report[key] is False
    assert all(v is True for k, v in report.items() if k.endswith("_ok") and k != key)
    assert main(["verify", "--scenario", "local-model-stabilizers"]) == 1
    out, err = capsys.readouterr()
    assert "  [FAIL] order-two-relations (reference)" in out
    assert "result: FAIL (5/6 checks)" in out
    assert err == ""


@pytest.mark.parametrize(
    "stratum, size",
    [
        ("rank0", 1),
        ("rank1-additive", 32),
        ("rank1-multiplicative", 32),
        ("rank2", 6),
        ("rank3", 4),
    ],
)
def test_tally_counts_a_classifier_wrong_on_one_stratum(stratum, size):
    family = build_stabilizer_family()
    predicted = {id(m["hom"]): m["predicted"] for m in family}
    wrong_on = {id(m["hom"]) for m in family if m["stratum"] == stratum}

    def classify(hom):
        right = predicted[id(hom)]
        if id(hom) in wrong_on:
            return next(c for c in StabilizerClass if c is not right)
        return right

    report = census._tally(family, "hom", classify)
    assert report["total"] == 75
    assert report["mismatches"] == size
    assert report["all_match"] is False


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
    """Reference for `_span_basis_f3`: the same row reduction on coordinate
    tuples, written as one loop, independent of the integer codes and their
    lookup tables."""
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


VECS = _f3_vectors(4)
CODE = {v: k for k, v in enumerate(VECS)}


def span_basis(vectors):
    """`_span_basis_f3` on F_3^4 tuples, decoded back to coordinate lists."""
    return [list(VECS[k]) for k in _span_basis_f3([CODE[v] for v in vectors])]


def reference_verdict(basis):
    return all(
        _omega_f3(basis[i], basis[j]) == 0
        for i in range(len(basis))
        for j in range(i + 1, len(basis))
    )


def test_vector_codes_are_base_three_digits():
    assert len(VECS) == 81
    for k, v in enumerate(VECS):
        assert k == sum(x * 3 ** (3 - i) for i, x in enumerate(v))


def test_omega_table_is_omega_on_every_pair():
    table = _f3_omega_table()
    assert [[_omega_f3(u, v) for v in VECS] for u in VECS] == table


def test_span_basis_scales_each_lead_to_one():
    assert span_basis([(2, 0, 0, 0)]) == [[1, 0, 0, 0]]
    assert span_basis([(0, 0, 2, 1), (2, 1, 0, 0)]) == [[1, 2, 0, 0], [0, 0, 1, 2]]
    assert span_basis([(1, 1, 0, 0), (2, 2, 0, 0)]) == [[1, 1, 0, 0]]
    assert span_basis([]) == []


def route_two_bit(memo, a, b, c):
    """The memoised route-two verdict of the multiset (a, b, c), after
    checking that the bit for c was computed."""
    mask, low = memo[_span_basis_f3((a, b))]
    assert low <= c
    return bool(mask >> c & 1)


def test_memoised_route_two_matches_the_raw_triple():
    memo = {}
    report = _f3_enumeration(memo)
    assert report == isotropy_equivalence_f3()
    omega = _f3_omega_table()
    prefixes = 0
    for a, b in combinations_with_replacement(range(81), 2):
        prefix = _span_basis_f3((a, b))
        assert [list(VECS[k]) for k in prefix] == reference_span_basis(
            (VECS[a], VECS[b])
        )
        assert prefix in memo
        assert memo[prefix][1] <= b
        prefixes += 1
    assert prefixes == 3321
    rng = random.Random(8111)
    picked = set(rng.sample(range(91881), 600))
    seen = 0
    for index, (a, b, c) in enumerate(combinations_with_replacement(range(81), 3)):
        if index not in picked:
            continue
        seen += 1
        triple = (VECS[a], VECS[b], VECS[c])
        basis = reference_span_basis(triple)
        extended = _extend_basis_f3(_span_basis_f3((a, b)), c)
        assert [list(VECS[k]) for k in extended] == basis
        route_two = route_two_bit(memo, a, b, c)
        assert route_two is reference_verdict(basis)
        assert _isotropic_basis_f3(extended, omega) is route_two
        pairs = ((0, 1), (0, 2), (1, 2))
        codes = (a, b, c)
        route_one = all(omega[codes[i]][codes[j]] == 0 for i, j in pairs)
        assert route_one == all(_omega_f3(triple[i], triple[j]) == 0 for i, j in pairs)
    assert seen == 600
    assert len(memo) == 431
    # Each row is filled down to the lowest b that reaches its prefix and no
    # further: 16,761 route-two evaluations in all.
    assert sum(81 - low for _, low in memo.values()) == 16761


def test_popcount_tally_matches_a_walk_over_every_multiset():
    memo = {}
    report = _f3_enumeration(memo)
    omega = _f3_omega_table()
    homs = multisets = isotropic = disagreements = 0
    for a, b, c in combinations_with_replacement(range(81), 3):
        route_one = omega[a][b] == 0 and omega[a][c] == 0 and omega[b][c] == 0
        route_two = route_two_bit(memo, a, b, c)
        mult = 1 if a == c else 3 if a == b or b == c else 6
        multisets += 1
        homs += mult
        isotropic += mult * route_one
        disagreements += mult * (route_one != route_two)
    assert report == {
        "homs": homs,
        "multisets": multisets,
        "isotropic": isotropic,
        "disagreements": disagreements,
        "all_agree": disagreements == 0,
    }


def test_isotropy_test_runs_once_per_extracted_basis(monkeypatch):
    calls = []
    real = census._isotropic_basis_f3

    def counting(basis, omega):
        calls.append(basis)
        return real(basis, omega)

    monkeypatch.setattr(census, "_isotropic_basis_f3", counting)
    memo = {}
    _f3_enumeration(memo)
    reached = {
        _extend_basis_f3(prefix, c)
        for prefix, (_, low) in memo.items()
        for c in range(low, 81)
    }
    # The bases are echelon, not fully reduced, so one subspace can have
    # several: 1,511 distinct bases for the 16,761 route-two bits.
    assert len(calls) == len(reached) == 1511
    assert set(calls) == reached


@pytest.mark.parametrize("offset", [0, 5], ids=["c-equals-b", "c-above-b"])
def test_a_flipped_route_two_bit_is_caught(offset):
    memo = {}
    _f3_enumeration(memo)
    a, b = CODE[(0, 1, 0, 0)], CODE[(1, 0, 0, 0)]
    c = b + offset
    prefix = _span_basis_f3((a, b))
    mask, low = memo[prefix]
    assert low <= c
    memo[prefix] = (mask ^ 1 << c, low)
    assert _f3_enumeration(memo)["disagreements"] > 0


def test_a_flipped_omega_entry_is_caught(monkeypatch):
    flipped = [list(row) for row in _f3_omega_table()]
    u, v = CODE[(1, 0, 0, 0)], CODE[(0, 1, 0, 0)]
    assert flipped[u][v] == 0
    flipped[u][v] = 1
    monkeypatch.setattr(census, "_f3_omega_table", lambda: flipped)
    report = isotropy_equivalence_f3.__wrapped__()
    assert report["disagreements"] > 0 or report["isotropic"] != 26001


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


@pytest.mark.parametrize("seed", [0, 7, 2**40 + 1, DEFAULT_SAMPLE_SEED])
def test_entry_draws_equal_randint_draw_for_draw(seed):
    reference = random.Random(seed)
    rng = random.Random(seed)
    drawn = []
    for count in (18, 9, 4000, 1):
        drawn += _draw_entries(rng.getrandbits, count)
    assert drawn == [reference.randint(-4, 4) for _ in range(4028)]
    assert rng.getstate() == reference.getstate()


def reference_samples(count, seed):
    """rational_isotropy_samples as a plain loop: randint draws, a 6 x 3
    matrix per sample, and omega paired densely over Fractions with the
    standard gram [[0, I], [-I, 0]], the diagonal included."""
    rng = random.Random(seed)
    gram = [
        [0, 0, 0, 1, 0, 0],
        [0, 0, 0, 0, 1, 0],
        [0, 0, 0, 0, 0, 1],
        [-1, 0, 0, 0, 0, 0],
        [0, -1, 0, 0, 0, 0],
        [0, 0, -1, 0, 0, 0],
    ]

    def omega(v, w):
        return sum(
            Fraction(v[i]) * gram[i][j] * w[j] for i in range(6) for j in range(6)
        )

    agree = hits = 0
    for i in range(count):
        drawn = 6 if i < count // 2 else 3
        rows = [[rng.randint(-4, 4) for _ in range(3)] for _ in range(drawn)]
        rows += [[0, 0, 0]] * (6 - drawn)
        cols = list(zip(*rows))
        on_zero_locus = all(omega(cols[a], cols[b]) == 0 for a, b in ((0, 1), (0, 2), (1, 2)))
        isotropic = all(omega(cols[a], cols[b]) == 0 for a in range(3) for b in range(a, 3))
        agree += on_zero_locus == isotropic
        hits += on_zero_locus
    return {
        "samples": count,
        "agreements": agree,
        "all_agree": agree == count,
        "zero_locus_hits": hits,
    }


@pytest.mark.parametrize("count, seed", [(1000, DEFAULT_SAMPLE_SEED), (60, 7)])
def test_rational_samples_match_the_reference_loop(count, seed):
    assert rational_isotropy_samples(count, seed) == reference_samples(count, seed)


@pytest.mark.parametrize("count", [0, -1, MAX_SAMPLES + 1])
def test_sample_count_outside_the_budget_is_rejected_before_drawing(
    monkeypatch, count
):
    def no_draws(seed):
        raise AssertionError("drew samples")

    monkeypatch.setattr(census, "random", SimpleNamespace(Random=no_draws))
    with pytest.raises(ValueError, match="budget"):
        rational_isotropy_samples.__wrapped__(count, DEFAULT_SAMPLE_SEED)


def test_sample_homs_build_no_param_poly(monkeypatch):
    built = []
    real = ParamPoly.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        real(self, *args, **kwargs)

    monkeypatch.setattr(ParamPoly, "__init__", counting)
    report = rational_isotropy_samples.__wrapped__(60, 7)
    assert report["agreements"] == 60
    assert built == []


def test_family_entries_are_exact():
    for member in build_stabilizer_family():
        for row in member["hom"].const_entries():
            assert all(type(x) in (int, Fraction) for x in row)
