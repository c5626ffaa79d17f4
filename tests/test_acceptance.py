"""Acceptance gate: one test per headline result, all exact arithmetic.

Each test runs the relevant scenario(s) end to end through the engine and
pins the decisive values literally, so a regression anywhere in the stack
(lattices, bundle towers, curve cones, local models, census) fails here.
"""

from towercalc.census import (
    build_stabilizer_family,
    isotropy_equivalence_f3,
    rational_isotropy_samples,
)
from towercalc.scenarios import SYMBOLIC, run_scenario


def _passed(name, n):
    report = run_scenario(name, n)
    failed = [c.name for c in report.checks if c.status != "PASS"]
    assert report.passed, "scenario %r at n=%s failed: %s" % (name, n, failed)
    return {c.name: c.computed for c in report.checks}


def test_intersection_table_is_exact_for_all_parameters():
    expected_rows = [
        ["0", "1", "0", "1"],
        ["0", "0", "1", "1"],
        ["1", "-1", "-1", "-1"],
        ["0", "0", "0", "-1"],
    ]
    for n in (SYMBOLIC, 3, 4, 5):
        by = _passed("jz-intersection-table", n)
        assert by["table"] == expected_rows
        assert by["table-constant"] is True


def test_restricted_canonical_class_and_its_ray_pairings():
    by = _passed("jz-canonical-class", SYMBOLIC)
    assert by["restricted-canonical-resolved"] == [
        {"0": "1", "1": "-2"},
        {"0": "3", "1": "-2"},
        {"0": "3", "1": "-2"},
        {"0": "-4", "1": "2"},
    ]
    assert by["kneg"] == {
        "pairings": ["-1", "-1", "-1", {"0": "4", "1": "-2"}],
        "all_negative": True,
    }
    for n in (3, 4, 5):
        _passed("jz-canonical-class", n)


def test_picard_basis_change_matrices_and_printed_inverse():
    by = _passed("picard-matrices", SYMBOLIC)
    assert by["psi-matrix"] == [
        ["0", "0", "0", "1"],
        ["1", "1", "1", "-3"],
        ["0", "1", "0", "-1"],
        ["0", "0", "1", "-1"],
    ]
    assert by["xi-matrix"] == [
        ["1", "-1", "-1", "1"],
        ["0", "2", "2", "-3"],
        ["0", "1", "0", "-1"],
        ["0", "0", "1", "-1"],
    ]
    assert by["xi-inverse-product"] == {"left_right": True, "right_left": True}
    assert by["psi-invertible"] is True
    assert by["xi-inverse-recomputed"] is True


def test_normal_bundle_transport_lands_on_bidegree_minus_one():
    by = _passed("normal-bundle-transport", SYMBOLIC)
    assert by["final-normal-class"]["coords"] == ["-1", "-1", "-1"]
    for n in (3, 4, 5):
        _passed("normal-bundle-transport", n)


def test_boundary_rays_push_to_ruling_plus_exceptional():
    by = _passed("pushforward-iz1z2", SYMBOLIC)
    assert by["tau-one"] == ["1", "0", "0", "1"]
    assert by["tau-two"] == ["0", "1", "0", "1"]


def test_cone_propagation_chains_certify_every_step():
    expected_generators = {
        "mori-chain-jz": [
            ["0", "1", "0", "1"],
            ["0", "0", "1", "1"],
            ["1", "-1", "-1", "-1"],
            ["0", "0", "0", "-1"],
        ],
        "mori-chain-ez": [
            ["1", "0", "-2"],
            ["0", "1", "0"],
            ["0", "0", "1"],
        ],
    }
    for scenario, generators in expected_generators.items():
        by = _passed(scenario, SYMBOLIC)
        chain = by["chain"]
        assert chain["generators"] == generators
        assert chain["steps"], scenario
        for step in chain["steps"]:
            assert set(step["conditions"].values()) == {True}, step


def test_section_ray_has_a_sound_extremality_certificate():
    for n in (SYMBOLIC, 3, 4, 5):
        by = _passed("extremal-sigma-ray", n)
        cert = by["certificate"]
        assert cert["status"] == "certified"
        assert cert["functional"] == ["3", "2", "2", "-1"]
        assert cert["values"] == ["1", "1", "0", "1"]


def test_stabilizer_census_and_isotropy_equivalence():
    _passed("local-model-stabilizers", 3)
    assert len(build_stabilizer_family()) >= 50
    eq = isotropy_equivalence_f3()
    lines = (3**4 - 1) * (3**3 - 1) // 2
    rank_le_one = 1 + 4 * (3**3 - 1)
    surjections = 3**6 - rank_le_one
    assert eq["homs"] == 3**12
    assert eq["isotropic"] == 1 + lines + 40 * surjections == 26001
    assert eq["all_agree"] and eq["disagreements"] == 0
    samples = rational_isotropy_samples(1000)
    assert samples["all_agree"] and samples["samples"] == 1000


def test_normal_cone_quadric_has_full_rank():
    for n in (3, 4, 5):
        by = _passed("normal-cone-quadric", n)
        quadric = by["quadric"]
        assert quadric["rank"] == str(4 * n - 4)
        assert quadric["ambient_dim"] == str(4 * n - 5)
        assert quadric["smooth"] is True


def test_involution_fixed_locus_is_the_diagonal():
    by = _passed("incidence-fixed-locus", SYMBOLIC)
    assert by["plane-fixed"]["fixed_equals_diagonal"] is True
    assert by["plane-fixed"]["fixed_pairs"] == "4"
    assert by["space-fixed"]["fixed_equals_diagonal"] is True
    assert by["space-fixed"]["fixed_pairs"] == "40"


def test_contraction_degrees_and_product_cohomology():
    by = _passed("contraction-numerics", SYMBOLIC)
    assert by["gamma-degree"] == "-1"
    assert by["ruling-oh-one-degree"] == "-1"
    assert by["ruling-ten-degree"] == "-1"
    assert by["graded-ranks"] == ["1", "9", "36", "100"]
    assert by["higher-cohomology"] == ["0"] * 8


def test_cotangent_convention_regression():
    by = _passed("euler-convention", SYMBOLIC)
    assert by["curve-cotangent"] == {"rank": "1", "c1": ["1", "-3", "-2"]}
