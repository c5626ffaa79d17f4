"""Tests for the curve-class, pairing, cone, and propagation engine."""

import random
import re
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from towercalc.exactnum import (
    ExactMatrix,
    N,
    ParamPoly,
    _signs_from,
    aspoly,
    negative_on_integers_from,
    nonnegative_on_integers_from,
)
from towercalc.towers import (
    BlowUp,
    DivClass,
    DivisorIn,
    FiberProduct,
    FormalBase,
    FormalBundle,
    ProjBundle,
    PullbackMap,
    lift_class,
    quotient,
)
from towercalc import curves, exactnum
from towercalc.curves import (
    ChainSpec,
    ChainStep,
    Cone,
    ContractionData,
    CurveClass,
    PropagationError,
    _coefficient_rows,
    _dependency_witness,
    _face_indices,
    declared_section,
    extremal_certificate,
    intersect,
    kneg_check,
    line_in_exceptional_fiber,
    line_in_proj_fiber,
    mori_propagate,
    pairing_table,
    push_from_sublattice,
    restriction_kernel,
    solve_pushforward,
    strict_transform,
)

# Restriction of the four ambient generators to the boundary sublattice with
# basis (a, t, w): columns are the images of x1..x4.
BOUNDARY_RESTRICTION = ExactMatrix(
    [[0, 1, 1, 0], [1, -1, -1, -1], [0, 0, 0, -1]]
)


def build_jhat():
    pt = FormalBase("PT_Z", ("x1",), canonical=(-2 * N,), dim=2 * N - 1)
    taut = FormalBundle(pt, 1, pt.gen("x1", -1))
    perp = FormalBundle(pt, 2 * N - 1, pt.gen("x1", -1))
    quot = quotient(perp, taut)
    pa1 = ProjBundle("PA1", pt, quot, "x2")
    pa2 = ProjBundle("PA2", pt, quot, "x3")
    fp = FiberProduct("PAxPA", pa1, pa2, pt)
    jz = DivisorIn("J_Z", fp, fp.div((0, 1, 1)))
    jhat = BlowUp("Jhat_Z", jz, 2 * N - 4, "x4", ("theta", "w"), (-1, -1))
    return jz, jhat


def standard_curves(jz, jhat):
    eps1 = line_in_proj_fiber("x2", jz)
    eps2 = line_in_proj_fiber("x3", jz)
    ehat1 = strict_transform(eps1, 1, jhat)
    ehat2 = strict_transform(eps2, 1, jhat)
    # The t-line, pushed from the boundary sublattice.
    sigma = CurveClass(jhat, push_from_sublattice(BOUNDARY_RESTRICTION, (0, 1, 0)))
    gamma = line_in_exceptional_fiber("w", jhat)
    return ehat1, ehat2, sigma, gamma


@pytest.fixture(scope="module")
def setup():
    jz, jhat = build_jhat()
    return (jz, jhat) + standard_curves(jz, jhat)


class TestAtomics:
    def test_proj_fiber_line(self, setup):
        jz, *_ = setup
        eps1 = line_in_proj_fiber("x2", jz)
        assert eps1.coords == (aspoly(0), aspoly(1), aspoly(0))

    def test_unknown_taut_generator(self, setup):
        jz, *_ = setup
        with pytest.raises(ValueError, match=r"^'x9' is not a projective-bundle generator of J_Z$"):
            line_in_proj_fiber("x9", jz)

    def test_base_generator_is_not_a_fiber_line(self, setup):
        jz, *_ = setup
        with pytest.raises(ValueError, match=r"^'x1' is not a projective-bundle generator of J_Z$"):
            line_in_proj_fiber("x1", jz)

    def test_exceptional_line_uses_declared_degree(self, setup):
        _, jhat, *_ = setup
        gamma = line_in_exceptional_fiber("w", jhat)
        assert gamma.coords == (aspoly(0), aspoly(0), aspoly(0), aspoly(-1))
        theta = line_in_exceptional_fiber("theta", jhat)
        assert theta.coords[3] == -1

    def test_unknown_ruling(self, setup):
        _, jhat, *_ = setup
        with pytest.raises(ValueError, match=r"^no blow-up of Jhat_Z declares the ruling 'nope'$"):
            line_in_exceptional_fiber("nope", jhat)

    def test_simple_exceptional_fiber_degree(self):
        # Blow-up of a point-like center: a line in the exceptional fiber
        # meets the exceptional divisor in degree -1.
        base = FormalBase("P3", ("h",), canonical=(-4,), dim=3)
        up = BlowUp("P3up", base, 3, "e", exc_directions=("f",), exc_degrees=(-1,))
        line = line_in_exceptional_fiber("f", up)
        assert line.coords[1] == -1

    def test_strict_transform_extends(self, setup):
        jz, jhat, ehat1, *_ = setup
        assert ehat1.coords == (aspoly(0), aspoly(1), aspoly(0), aspoly(1))
        eps1 = line_in_proj_fiber("x2", jz)
        off_center = strict_transform(eps1, 0, jhat)
        assert off_center.coords[3].is_zero()
        with pytest.raises(ValueError):
            strict_transform(eps1, -1, jhat)

    def test_strict_transform_needs_blowup(self, setup):
        jz, _, ehat1, *_ = setup
        eps1 = line_in_proj_fiber("x2", jz)
        with pytest.raises(ValueError, match=r"^strict transforms live on a blow-up$"):
            strict_transform(eps1, 1, jz)

    def test_declared_section(self, setup):
        _, jhat, *_ = setup
        c = declared_section((1, -1, -1, -1), jhat)
        assert c.coords == (aspoly(1), aspoly(-1), aspoly(-1), aspoly(-1))

    def test_wrong_length_declared(self, setup):
        _, jhat, *_ = setup
        refusal = "^vector length 2 does not match the 4 generators of Jhat_Z$"
        with pytest.raises(ValueError, match=refusal):
            declared_section((1, 2), jhat)


class TestPairing:
    def test_table_rows_frozen(self, setup):
        _, jhat, ehat1, ehat2, sigma, gamma = setup
        divisors = [jhat.gen(g) for g in jhat.pic_names()]
        table = pairing_table((ehat1, ehat2, sigma, gamma), divisors)
        assert ExactMatrix(table) == ExactMatrix(
            [
                [0, 1, 0, 1],
                [0, 0, 1, 1],
                [1, -1, -1, -1],
                [0, 0, 0, -1],
            ]
        )

    def test_table_constant_in_n(self, setup):
        _, jhat, ehat1, ehat2, sigma, gamma = setup
        divisors = [jhat.gen(g) for g in jhat.pic_names()]
        table = pairing_table((ehat1, ehat2, sigma, gamma), divisors)
        assert all(x.is_constant() for row in table for x in row)

    def test_empty_table(self):
        assert pairing_table((), ()) == ()

    def test_space_mismatch(self, setup):
        jz, jhat, ehat1, *_ = setup
        with pytest.raises(ValueError, match=r"^curve on Jhat_Z paired with class on J_Z$"):
            intersect(ehat1, jz.gen("x1"))

    def test_curve_and_divisor_classes_do_not_mix(self, setup):
        _, jhat, ehat1, *_ = setup
        divisor = jhat.div(ehat1.coords)
        assert ehat1 != divisor and divisor != ehat1
        assert type(ehat1 + ehat1) is CurveClass
        assert type(2 * ehat1 - ehat1) is CurveClass
        assert type(-divisor) is DivClass
        with pytest.raises(ValueError, match=r"^classes on different lattices: Jhat_Z vs Jhat_Z$"):
            ehat1 + divisor

    def test_atomic_intersect_shortcut(self, setup):
        jz, *_ = setup
        assert intersect(line_in_proj_fiber("x2", jz), jz.gen("x2")) == 1
        assert intersect(line_in_proj_fiber("x2", jz), jz.gen("x1")) == 0

    @given(
        a=st.integers(min_value=-9, max_value=9),
        b=st.integers(min_value=-9, max_value=9),
    )
    @settings(max_examples=40, deadline=None)
    def test_bilinearity(self, a, b):
        jz, jhat, ehat1, ehat2, sigma, gamma = _MODULE_SETUP
        d1, d2 = jhat.gen("x2"), jhat.gen("x4")
        combo_curve = ehat1 * a + gamma * b
        assert intersect(combo_curve, d1) == intersect(ehat1, d1) * a + intersect(
            gamma, d1
        ) * b
        d_combo = d1 * a + d2 * b
        assert intersect(sigma, d_combo) == intersect(sigma, d1) * a + intersect(
            sigma, d2
        ) * b

    @given(
        coords=st.lists(
            st.integers(min_value=-6, max_value=6), min_size=3, max_size=3
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_projection_formula(self, coords):
        jz, jhat, ehat1, *_ = _MODULE_SETUP
        eps1 = line_in_proj_fiber("x2", jz)
        d = jz.div(coords)
        lifted = lift_class(d, jhat)
        assert intersect(ehat1, lifted) == intersect(eps1, d)


class TestSolvePushforward:
    def _table(self, setup):
        _, jhat, ehat1, ehat2, sigma, gamma = setup
        divisors = [jhat.gen(g) for g in jhat.pic_names()]
        return ExactMatrix(pairing_table((ehat1, ehat2, sigma, gamma), divisors))

    def test_tau1(self, setup):
        table = self._table(setup)
        assert solve_pushforward((0, 1, 0, 0), table) == (
            aspoly(1),
            aspoly(0),
            aspoly(0),
            aspoly(1),
        )

    def test_tau2(self, setup):
        table = self._table(setup)
        assert solve_pushforward((0, 0, 1, 0), table) == (
            aspoly(0),
            aspoly(1),
            aspoly(0),
            aspoly(1),
        )

    def test_tau_classes_as_combinations(self, setup):
        _, jhat, ehat1, ehat2, sigma, gamma = setup
        assert (ehat1 + gamma).coords == (aspoly(0), aspoly(1), aspoly(0), aspoly(0))
        assert (ehat2 + gamma).coords == (aspoly(0), aspoly(0), aspoly(1), aspoly(0))

    def test_zero_observed(self, setup):
        table = self._table(setup)
        assert all(x.is_zero() for x in solve_pushforward((0, 0, 0, 0), table))

    def test_singular_table(self):
        table = ExactMatrix([[1, 0], [1, 0]])
        with pytest.raises(ValueError, match=r"^pairing table is singular$"):
            solve_pushforward((0, 0), table)

    def test_inconsistent_observation(self):
        table = ExactMatrix([[1, 0], [2, 0]])  # 2x2, transpose has rank 1
        refusal = "^observed pairings are inconsistent with the table$"
        with pytest.raises(ValueError, match=refusal):
            solve_pushforward((0, 1), table)

    @given(
        y=st.lists(st.integers(min_value=-8, max_value=8), min_size=4, max_size=4)
    )
    @settings(max_examples=40, deadline=None)
    def test_round_trip(self, y):
        table = _MODULE_TABLE
        observed = table.transpose().apply(y)
        assert solve_pushforward(observed, table) == tuple(aspoly(v) for v in y)


class TestKNegativity:
    def test_restricted_canonical_pairings(self, setup):
        _, jhat, ehat1, ehat2, sigma, gamma = setup
        k_restricted = jhat.div((1 - 2 * N, 3 - 2 * N, 3 - 2 * N, 2 * N - 4))
        report = kneg_check(k_restricted, (ehat1, ehat2, sigma, gamma))
        assert report["pairings"] == [aspoly(-1), aspoly(-1), aspoly(-1), 4 - 2 * N]
        assert report["all_negative"]

    def test_mixed_signs_are_not_all_negative(self, setup):
        _, jhat, *_ = setup
        curves = (CurveClass(jhat, (1, 0, 0, 0)), CurveClass(jhat, (0, 1, 0, 0)))
        for k, verdict in (((-1, 1, 0, 0), False), ((1, -1, 0, 0), False), ((-1, -1, 0, 0), True)):
            report = kneg_check(jhat.div(k), curves)
            assert report["pairings"] == [aspoly(k[0]), aspoly(k[1])]
            assert report["all_negative"] is verdict

    def test_zero_class_not_negative(self, setup):
        _, jhat, ehat1, *_ = setup
        zero = CurveClass(jhat, (0, 0, 0, 0))
        report = kneg_check(jhat.div((1, 1, 1, 1)), (zero,))
        assert not report["all_negative"]

    def test_sign_analysis(self):
        assert negative_on_integers_from(4 - 2 * N)
        assert negative_on_integers_from(aspoly(-1))
        assert not negative_on_integers_from(aspoly(0))
        assert not negative_on_integers_from(N - 10)  # positive for large n
        assert not negative_on_integers_from(N * N - 8 * N)  # sign change at 8
        assert negative_on_integers_from(-N * N - 1)
        # zero at n = 5, beyond the first two sample values
        assert not negative_on_integers_from(-(N - 5) * (N - 6))
        assert nonnegative_on_integers_from((N - 5) * (N - 6))
        assert _signs_from((N - 5) * (N - 6)) != {1}
        assert _signs_from((N - 5) * (N - 6) + 1) == {1}

    @given(
        scale=st.integers(min_value=1, max_value=7),
    )
    @settings(max_examples=20, deadline=None)
    def test_scale_invariance(self, scale):
        jz, jhat, ehat1, ehat2, sigma, gamma = _MODULE_SETUP
        k_restricted = jhat.div((1 - 2 * N, 3 - 2 * N, 3 - 2 * N, 2 * N - 4))
        base = kneg_check(k_restricted, (gamma,))["all_negative"]
        scaled = kneg_check(k_restricted, (gamma * scale,))["all_negative"]
        assert base == scaled


class TestExtremalCertificate:
    def cone(self, setup):
        _, jhat, ehat1, ehat2, sigma, gamma = setup
        return Cone(
            dim=4,
            generators=(ehat1.coords, ehat2.coords, sigma.coords, gamma.coords),
            names=("ehat1", "ehat2", "sigma", "gamma"),
        )

    def test_sigma_ray_certificate(self, setup):
        cert = extremal_certificate(self.cone(setup), face=("sigma",))
        assert cert["status"] == "certified"
        assert cert["functional"] == (3, 2, 2, -1)
        assert cert["height"] == 3
        assert cert["values"] == (aspoly(1), aspoly(1), aspoly(0), aspoly(1))
        assert cert["witness"] is None

    def test_whole_cone_zero_functional(self, setup):
        cert = extremal_certificate(
            self.cone(setup), face=("ehat1", "ehat2", "sigma", "gamma")
        )
        assert cert["status"] == "certified"
        assert cert["functional"] == (0, 0, 0, 0)

    def test_interior_generator_inconclusive_with_witness(self):
        cone = Cone(dim=2, generators=((1, 0), (0, 1), (1, 1)), names=("a", "b", "m"))
        cert = extremal_certificate(cone, face=("m",), height_bound=4)
        assert cert["status"] == "inconclusive"
        assert cert["functional"] is cert["height"] is cert["values"] is None
        combo = cert["witness"]["combination"]
        assert combo == {0: aspoly(1), 1: aspoly(1)}

    def test_witness_coefficient_may_vanish_at_the_first_n(self):
        # m = (n - 3) a + b: only the zero functional vanishes on m for every
        # n, so the search is inconclusive, and the witness coefficient n - 3
        # is nonnegative but zero at n = 3.
        cone = Cone(
            dim=2, generators=((1, 0), (0, 1), (N - 3, 1)), names=("a", "b", "m")
        )
        cert = extremal_certificate(cone, face=("m",), height_bound=2)
        assert cert["status"] == "inconclusive"
        assert cert["witness"] == {
            "face_generator": 2,
            "combination": {0: N - 3, 1: aspoly(1)},
        }

    def test_a_pairing_that_vanishes_at_one_n_is_not_strictly_positive(self):
        # Every functional vanishing on g1 is (k, 0), whose value on g2 is
        # k (n - 4)^2: 1 or more at n = 3, and 0 at n = 4.
        cone = Cone(dim=2, generators=((0, 1), ((N - 4) * (N - 4), 0)), names=("g1", "g2"))
        cert = extremal_certificate(cone, face=("g1",), height_bound=3)
        assert cert["status"] == "inconclusive"

    def test_face_of_two_generators(self):
        # The functional must vanish on both face generators, not just one.
        cone = Cone(
            dim=3, generators=((1, 0, 0), (0, 1, 0), (0, 0, 1)), names=("a", "b", "c")
        )
        cert = extremal_certificate(cone, face=("a", "b"))
        assert cert["functional"] == (0, 0, 1)

    def test_zero_dimensional_lattice_gets_the_empty_functional(self):
        cert = extremal_certificate(Cone(dim=0, generators=()), face=())
        assert (cert["status"], cert["functional"], cert["height"]) == ("certified", (), 0)

    def test_unknown_face_name(self, setup):
        with pytest.raises(ValueError):
            extremal_certificate(self.cone(setup), face=("nope",))

    def test_soundness_recheck(self, setup):
        cone = self.cone(setup)
        cert = extremal_certificate(cone, face=("sigma",))
        for name, gen in zip(cone.names, cone.generators):
            value = sum(
                (g * f for g, f in zip(gen, cert["functional"])), start=ParamPoly()
            )
            if name == "sigma":
                assert value.is_zero()
            else:
                assert value == 1

    def test_zero_generator_rejected(self):
        with pytest.raises(ValueError):
            Cone(dim=2, generators=((0, 0),))

    def test_negative_height_bound_rejected(self):
        cone = Cone(dim=2, generators=((1, 0), (0, 1)), names=("a", "b"))
        with pytest.raises(ValueError, match="negative"):
            extremal_certificate(cone, face=("a",), height_bound=-1)

    def test_height_bound_over_budget_rejected_before_the_search(self, monkeypatch):
        cone = Cone(
            dim=4,
            generators=((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 1)),
            names=("a", "b", "c"),
        )
        assert 33**4 > curves.MAX_SEARCH_SIZE >= 31**4

        def unreachable(dim, h, face_rows, positive):
            raise AssertionError("the search started")

        monkeypatch.setattr(curves, "_face_candidates", unreachable)
        with pytest.raises(ValueError, match="budget"):
            extremal_certificate(cone, face=("a",), height_bound=16)

    def test_height_bound_at_budget_accepted(self):
        # 31^4 candidates fit the budget; the whole-cone face is certified
        # by the zero functional in shell 0, so nothing large runs.
        cone = Cone(
            dim=4,
            generators=((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 1)),
            names=("a", "b", "c"),
        )
        cert = extremal_certificate(cone, face=("a", "b", "c"), height_bound=15)
        assert cert["functional"] == (0, 0, 0, 0)


def reference_certificate(cone, face, height_bound):
    """The per-candidate ParamPoly search: pair every candidate with every
    generator, then test the face and the signs."""
    face_idx = _face_indices(cone, face)
    others = [i for i in range(len(cone.generators)) if i not in face_idx]
    for h in range(height_bound + 1):
        for cand in product(range(-h, h + 1), repeat=cone.dim):
            if max((abs(x) for x in cand), default=0) != h:
                continue
            values = [
                sum((g * f for f, g in zip(cand, gen)), ParamPoly())
                for gen in cone.generators
            ]
            if not all(values[i].is_zero() for i in face_idx):
                continue
            if all(_signs_from(values[j]) == {1} for j in others):
                return {
                    "status": "certified",
                    "functional": cand,
                    "height": h,
                    "values": tuple(values),
                    "witness": None,
                }
    return {
        "status": "inconclusive",
        "functional": None,
        "height": None,
        "values": None,
        "witness": _dependency_witness(cone, face_idx, others),
    }


HALF, FIVE_THIRDS = Fraction(1, 2), Fraction(5, 3)

# (generators, face, height_bound, status of the reference search)
DESIGNED_CONES = [
    # Face generator linear in n: two coefficient rows must vanish.
    (((N - 2, 1, 0), (0, HALF, FIVE_THIRDS), (1, 0, 1)), ("g0",), 3, "certified"),
    # Fractional two-generator face whose supporting functional (6, -3, 5)
    # lies beyond height 3.
    (
        ((HALF, 1, 0), (0, FIVE_THIRDS, 1), (1, 0, 1), (0, 0, 1)),
        ("g0", "g1"),
        3,
        "inconclusive",
    ),
    (((1, 0), (0, 1), (1, 1)), ("g2",), 3, "inconclusive"),
    (
        ((1, N, 0, 0), (0, HALF, 1, 0), (0, 0, FIVE_THIRDS, 1), (1, 1, 1, 1)),
        ("g0", "g1"),
        2,
        "certified",
    ),
    (((N, 1), (1, 0), (0, 1)), ("g0",), 3, "inconclusive"),
    # Both face rows have last coefficient 0: every prefix that zeroes them
    # admits each last coordinate on the shell.
    (
        ((N - 2, 2 - N, 0), (1, 0, HALF), (0, 1, -1), (0, 0, 1)),
        ("g0",),
        3,
        "certified",
    ),
    # Face row (6, 3, 5): most prefixes leave a remainder mod 5.
    (((2, 1, FIVE_THIRDS), (1, 0, 0), (0, 0, -1), (1, 1, 1)), ("g0",), 3, "certified"),
    # Only the second face row has a nonzero last coefficient; the first
    # must still be checked on the solved vector.
    (
        ((1, -1, 0, 0), (0, 2, 1, 2), (1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, -1)),
        ("g0", "g1"),
        3,
        "certified",
    ),
]


def named_cone(gens):
    """A cone whose generators are named g0, g1, ..."""
    names = tuple("g%d" % i for i in range(len(gens)))
    return Cone(dim=len(gens[0]), generators=tuple(gens), names=names)


CONE_ENTRIES = (0, 0, 0, 1, 1, -1, 2, HALF, FIVE_THIRDS, -HALF, N - 2, 2 * N - 3, 3 - N)


def seeded_cone(seed):
    """A 2-4 dimensional cone with integer, fractional and n-linear entries;
    in a quarter of them the first generator is the sum of two others."""
    rng = random.Random(seed)
    dim = rng.choice([2, 3, 4])
    count = rng.randint(dim, dim + 1)
    while True:
        gens = [
            tuple(rng.choice(CONE_ENTRIES) for _ in range(dim)) for _ in range(count)
        ]
        if rng.random() < 0.25:
            gens[0] = tuple(a + b for a, b in zip(gens[1], gens[2 % count]))
        if all(any(x != 0 for x in g) for g in gens):
            break
    face = ("g0",) if rng.random() < 0.6 else ("g0", "g1")
    height_bound = rng.randint(1, 3) if dim < 4 else rng.randint(1, 2)
    return named_cone(gens), face, height_bound


class TestIntegerFaceRows:
    @pytest.mark.parametrize("gens, face, height_bound, status", DESIGNED_CONES)
    def test_designed_cone_matches_the_reference(
        self, gens, face, height_bound, status
    ):
        cone = named_cone(gens)
        cert = extremal_certificate(cone, face, height_bound=height_bound)
        assert cert == reference_certificate(cone, face, height_bound)
        assert cert["status"] == status

    @pytest.mark.parametrize("seed", range(100))
    def test_seeded_cone_matches_the_reference(self, seed):
        cone, face, height_bound = seeded_cone(seed)
        cert = extremal_certificate(cone, face, height_bound=height_bound)
        assert cert == reference_certificate(cone, face, height_bound)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 4).flatmap(
            lambda dim: st.tuples(
                st.just(dim),
                st.integers(0, 3),
                st.lists(
                    st.tuples(
                        st.lists(st.integers(-4, 4), min_size=dim, max_size=dim),
                        st.booleans(),
                    ),
                    min_size=1,
                    max_size=3,
                ),
                st.lists(
                    st.lists(st.integers(-4, 4), min_size=dim, max_size=dim).map(tuple),
                    max_size=3,
                ),
            )
        )
    )
    # A pivot whose second-to-last coefficient is 0, or negative, with a last
    # coefficient of size above 1 or negative; no pivot; dims 1 and 2.
    @example((3, 2, [([1, 0, 2], False)], [(1, 1, 0), (0, -1, 3)]))
    @example((3, 3, [([2, -3, -3], False), ([0, 1, 1], True)], [(1, 1, 1)]))
    @example((4, 2, [([1, -1, 2, 0], False)], [(0, 0, 1, -1), (1, 0, 0, 2)]))
    @example((1, 0, [([3], False)], []))
    @example((1, 2, [([0], False)], [(-2,)]))
    @example((2, 3, [([2, 4], False)], [(-1, 2), (3, 0)]))
    @example((2, 3, [([1, -2], True)], [(1, 1)]))
    def test_face_candidates_are_the_filtered_shell(self, case):
        dim, h, drawn, positive = case
        # A row drawn with the flag set gets last coefficient 0.
        face_rows = [tuple(row[:-1]) + (0 if flat else row[-1],) for row, flat in drawn]

        def dot(v, row):
            return sum(a * b for a, b in zip(v, row))

        shell = [
            v
            for v in product(range(-h, h + 1), repeat=dim)
            if max(map(abs, v)) == h
            and all(dot(v, row) == 0 for row in face_rows)
            and all(dot(v, r) >= 1 for r in positive)
        ]
        assert list(curves._face_candidates(dim, h, face_rows, positive)) == shell

    def test_pruning_keeps_a_candidate_that_only_the_exact_test_rejects(
        self, monkeypatch
    ):
        # g1 pairs (1, -1, 0) to 7 - 2n and (1, 0, 0) to 4 - n: both are 1 at
        # n = 3, so the forms at N_MIN keep them, and both turn negative
        # later, so the sign test rejects them.  (1, 1, 0) pairs g1 to 1.
        cone = named_cone(((0, 0, 1), (4 - N, N - 3, 0), (1, 0, 0)))
        walked, search = [], curves._face_candidates

        def recorded(*args):
            for cand in search(*args):
                walked.append(cand)
                yield cand

        monkeypatch.setattr(curves, "_face_candidates", recorded)
        cert = extremal_certificate(cone, ("g0",), height_bound=1)
        assert walked == [(1, -1, 0), (1, 0, 0), (1, 1, 0)]
        assert cert == reference_certificate(cone, ("g0",), 1)
        assert cert["functional"] == (1, 1, 0)

    def test_the_forms_read_n_min_at_each_call(self, monkeypatch):
        # (1, 0) pairs g1 to n - 3: 0 at n = 3, so it is certified only when
        # the integers start at 4.
        cone = named_cone(((0, 1), (N - 3, 0)))
        cert = extremal_certificate(cone, ("g0",), height_bound=1)
        assert cert == reference_certificate(cone, ("g0",), 1)
        assert cert["status"] == "inconclusive"
        monkeypatch.setattr(exactnum, "N_MIN", 4)
        cert = extremal_certificate(cone, ("g0",), height_bound=1)
        assert cert == reference_certificate(cone, ("g0",), 1)
        assert (cert["functional"], cert["values"]) == ((1, 0), (aspoly(0), N - 3))

    def test_coefficient_rows_are_scaled_to_integers(self):
        gen = tuple(aspoly(x) for x in (N * HALF - 1, FIVE_THIRDS, 0))
        rows = _coefficient_rows(gen)
        assert rows == (6, [(-6, 10, 0), (3, 0, 0)])


def assert_witness_holds(cone, face, witness):
    """The dependency witness checked without `_dependency_witness`: a face
    generator equals, as polynomials in n, a combination of non-face
    generators whose coefficients are all >= 0 at n = 3..20."""
    face_idx = _face_indices(cone, face)
    combo = witness["combination"]
    assert witness["face_generator"] in face_idx
    assert combo and not set(combo) & set(face_idx)
    for c in combo.values():
        assert all(aspoly(c).eval(n) >= 0 for n in range(3, 21)), combo
    total = [
        sum((aspoly(c) * cone.generators[j][k] for j, c in combo.items()), ParamPoly())
        for k in range(cone.dim)
    ]
    assert total == [aspoly(g) for g in cone.generators[witness["face_generator"]]]


class TestDependencyWitness:
    def test_every_witness_passes_the_oracle(self):
        cases = [(named_cone(g), face, hb) for g, face, hb, _ in DESIGNED_CONES]
        cases += [seeded_cone(seed) for seed in range(30)]
        cases += [
            (named_cone(((1, 0), (0, 1), (1, 1))), ("g2",), 4),
            (named_cone(((1, 0), (0, 1), (N - 3, 1))), ("g2",), 2),
            (named_cone(((1, 0, 0), (0, 1, 0), (2, HALF, 0))), ("g2",), 0),
        ]
        witnessed = 0
        for cone, face, height_bound in cases:
            witness = extremal_certificate(cone, face, height_bound)["witness"]
            if witness is not None:
                assert_witness_holds(cone, face, witness)
                witnessed += 1
        assert witnessed >= 3

    def test_a_combination_with_mixed_signs_is_no_witness(self):
        # g2 = g0 - g1 is the only way to write g2 in g0 and g1; height 0
        # leaves the search inconclusive, so the witness is sought.
        cone = named_cone(((1, 0), (0, 1), (1, -1)))
        cert = extremal_certificate(cone, ("g2",), height_bound=0)
        assert cert["status"] == "inconclusive"
        assert cert["witness"] is None


def from_jhat(jhat, matrix):
    """``matrix`` as a lattice map out of jhat's divisor lattice."""
    targets = tuple("t%d" % i for i in range(matrix.rows))
    return PullbackMap("r", jhat.pic_names(), targets, matrix)


class TestRestrictionKernel:
    def test_kernel_and_perp(self, setup):
        _, jhat, ehat1, ehat2, sigma, gamma = setup
        report = restriction_kernel(
            from_jhat(jhat, BOUNDARY_RESTRICTION), (ehat1, ehat2, sigma, gamma)
        )
        assert report["kernel"] == ((0, 1, -1, 0),)
        assert report["perp"] == (
            (1, 1, 0, 0),
            (0, 0, 1, 0),
            (0, 0, 0, 1),
        )

    def test_zero_map_kernel_everything(self, setup):
        _, jhat, ehat1, ehat2, sigma, gamma = setup
        zero = ExactMatrix([[0, 0, 0, 0]])
        report = restriction_kernel(
            from_jhat(jhat, zero), (ehat1, ehat2, sigma, gamma)
        )
        assert len(report["kernel"]) == 4

    def test_injective_map_has_no_kernel_and_an_identity_perp(self, setup):
        _, jhat, ehat1, ehat2, sigma, _ = setup
        identity = ExactMatrix([[int(i == j) for j in range(4)] for i in range(4)])
        report = restriction_kernel(from_jhat(jhat, identity), (ehat1, ehat2, sigma))
        assert report == {"kernel": (), "perp": ((1, 0, 0), (0, 1, 0), (0, 0, 1))}

    @pytest.mark.parametrize(
        "restriction",
        [
            BOUNDARY_RESTRICTION,
            ExactMatrix([[int(i == j) for j in range(4)] for i in range(4)]),
        ],
        ids=["nonzero-kernel", "zero-kernel"],
    )
    def test_curve_off_the_source_lattice_is_rejected(self, setup, restriction):
        jz, jhat, ehat1, *_ = setup
        eps1 = line_in_proj_fiber("x2", jz)
        with pytest.raises(ValueError, match=r"^curve on J_Z is not on the source lattice of r$"):
            restriction_kernel(from_jhat(jhat, restriction), (ehat1, eps1))

    def test_pushforward_of_a_square_restriction_reads_its_columns(self):
        # Column j expresses ambient generator j in the curve's lattice, so
        # the pushed curve pairs generator j with degrees . column_j; on a
        # square matrix that is not symmetric, R^T d and R d differ.
        restriction = ExactMatrix([[1, 4], [0, 2]])
        assert push_from_sublattice(restriction, (3, N)) == (aspoly(3), 2 * N + 12)
        assert push_from_sublattice(restriction, (0, 1)) == (aspoly(0), aspoly(2))

    def test_pushforward_consistency(self, setup):
        # Declared boundary classes push to the expected combinations.
        _, jhat, ehat1, ehat2, sigma, gamma = setup
        push = lambda deg: push_from_sublattice(BOUNDARY_RESTRICTION, deg)
        assert push((1, 0, -2)) == (ehat1 + ehat2).coords
        assert push((0, 1, 0)) == sigma.coords
        assert push((0, 0, 1)) == gamma.coords


def _two_step_chain(break_condition=None):
    """Small synthetic chain: a point-based projective space, then one
    bundle step with two generators."""
    base_gens = ((aspoly(1),),)
    step_gens = ((0, 1), (1, -1))
    cprime = ContractionData(
        name="projection", pullbacks=ExactMatrix([[1], [0]])
    )
    cdouble_images = ((aspoly(1),), (aspoly(0),))
    if break_condition == "a":
        cprime = ContractionData(name="projection", pullbacks=ExactMatrix([[0], [1]]))
    if break_condition == "b":
        cdouble_images = ((aspoly(0),), (aspoly(0),))
    if break_condition == "c":
        cprime = ContractionData(name="projection", pullbacks=ExactMatrix([[2], [0]]))
    if break_condition == "a-also":
        # contracts the marked fiber-line, and the section with it
        cprime = ContractionData(name="projection", pullbacks=ExactMatrix([[0], [0]]))
    if break_condition == "b-keeps":
        # leaves the fiber-line alone, but keeps the section too
        cdouble_images = ((aspoly(1),), (aspoly(1),))
    cdouble = ContractionData(name="other-ruling", images=cdouble_images)
    step = ChainStep(
        space_name="bundle-step",
        generator_names=("fiber-line", "section"),
        generators=step_gens,
        contracted="fiber-line",
        cprime=cprime,
        cdouble=cdouble,
    )
    return ChainSpec(
        base_space="projective-space",
        base_generator_names=("line",),
        base_generators=base_gens,
        steps=(step,),
    )


VIOLATIONS = {
    "a": "fiber-line is not contracted by projection",
    "b": "fiber-line is contracted by other-ruling",
    "c": "pushed generators [('2',)] do not match the known cone [('1',)]",
    "a-also": "section is contracted by projection",
    "b-keeps": "section is not contracted by other-ruling",
}


class TestMoriPropagation:
    def test_base_case(self):
        chain = ChainSpec(
            base_space="projective-space",
            base_generator_names=("line",),
            base_generators=((1,),),
            steps=(),
        )
        cone = mori_propagate(chain)
        assert cone["generator_names"] == ("line",)
        assert cone["generators"] == ((aspoly(1),),)
        assert cone["steps"] == []

    def test_empty_base_and_no_steps_give_an_empty_cone(self):
        chain = ChainSpec(
            base_space="point",
            base_generator_names=(),
            base_generators=(),
            steps=(),
        )
        assert mori_propagate(chain) == {
            "generator_names": (),
            "generators": (),
            "steps": [],
        }

    def test_two_step_chain_passes(self):
        cone = mori_propagate(_two_step_chain())
        assert cone["generator_names"] == ("fiber-line", "section")
        assert [step["space"] for step in cone["steps"]] == ["bundle-step"]
        assert all(cone["steps"][0]["conditions"].values())

    @pytest.mark.parametrize("cond", ["a", "b", "c", "a-also", "b-keeps"])
    def test_hypothesis_violations_identified(self, cond):
        refusal = "step bundle-step, condition %s: %s" % (cond[0], VIOLATIONS[cond])
        with pytest.raises(PropagationError, match="^%s$" % re.escape(refusal)):
            mori_propagate(_two_step_chain(break_condition=cond))

    @pytest.mark.parametrize(
        "names, prime, double, refusal",
        [
            # Two generators push to the known cone's one generator: as a
            # set the pushforwards match, as a multiset they do not.
            (("fiber-line", "s1", "s2"), ((0,), (1,), (1,)), ((1,), (0,), (0,)),
             "condition c: pushed generators [('1',), ('1',)] do not match "
             "the known cone [('1',)]"),
            # The section, listed first, and the marked fiber-line both break
            # condition a; the marked one is named.
            (("section", "fiber-line"), ((0,), (1,)), ((0,), (1,)),
             "condition a: fiber-line is not contracted by projection"),
        ],
        ids=["pushforwards-as-a-multiset", "marked-generator-named-first"],
    )
    def test_declared_images_that_break_a_condition(self, names, prime, double, refusal):
        step = ChainStep(
            space_name="bundle-step",
            generator_names=names,
            generators=((1, 0),) * len(names),
            contracted="fiber-line",
            cprime=ContractionData(name="projection", images=prime),
            cdouble=ContractionData(name="other-ruling", images=double),
        )
        chain = ChainSpec("projective-space", ("line",), ((1,),), (step,))
        with pytest.raises(PropagationError, match="^step bundle-step, %s$" % re.escape(refusal)):
            mori_propagate(chain)

    def test_contraction_data_exclusive(self):
        with pytest.raises(ValueError):
            ContractionData(name="bad")
        with pytest.raises(ValueError):
            ContractionData(
                name="bad",
                pullbacks=ExactMatrix([[1]]),
                images=((aspoly(1),),),
            )


_MODULE_JZ, _MODULE_JHAT = build_jhat()
_MODULE_SETUP = (_MODULE_JZ, _MODULE_JHAT) + standard_curves(_MODULE_JZ, _MODULE_JHAT)
_MODULE_TABLE = ExactMatrix(
    pairing_table(
        _MODULE_SETUP[2:],
        [_MODULE_JHAT.gen(g) for g in _MODULE_JHAT.pic_names()],
    )
)


def test_the_library_refuses_misaligned_curve_data():
    base = FormalBase("P3", ("h",), canonical=(-4,), dim=3)
    up = BlowUp("up", base, 3, "e", exc_directions=("f",), exc_degrees=(-1,))
    twice = BlowUp("twice", up, 2, "e2", exc_directions=("f",), exc_degrees=(-1,))
    with pytest.raises(ValueError, match=r"^ruling 'f' is declared by more than one blow-up$"):
        line_in_exceptional_fiber("f", twice)
    with pytest.raises(ValueError, match="^generator length does not match the lattice$"):
        Cone(dim=2, generators=((1, 0, 0),))
    with pytest.raises(ValueError, match="^names do not match the generators$"):
        Cone(dim=2, generators=((1, 0),), names=("a", "b"))
    with pytest.raises(ValueError, match="^generator names and vectors must align$"):
        ChainStep("step", ("a",), ((1,), (0, 1)), "a", None, None)
