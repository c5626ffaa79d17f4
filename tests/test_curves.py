"""Tests for the curve-class, pairing, cone, and propagation engine."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from towercalc.exactnum import (
    ExactMatrix,
    N,
    ParamPoly,
    aspoly,
    negative_on_integers_from,
    nonnegative_on_integers_from,
    positive_on_integers_from,
)
from towercalc.towers import (
    BlowUp,
    CenterSpec,
    DivisorIn,
    FiberProduct,
    FormalBase,
    FormalBundle,
    ProjBundle,
    RestrictionClassSpec,
    canonical_class,
    lift_class,
    quotient,
)
from towercalc.curves import (
    ChainSpec,
    ChainStep,
    Cone,
    ContractionData,
    CurveClass,
    CurveSpaceError,
    DeclaredSection,
    InconsistentObservationError,
    LineInExceptionalFiber,
    LineInProjFiber,
    PropagationError,
    SingularTableError,
    StrictTransform,
    curve_from_atomic,
    extremal_certificate,
    intersect,
    kneg_check,
    mori_propagate,
    pairing_table,
    push_from_sublattice,
    restriction_kernel,
    solve_pushforward,
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
    jhat = BlowUp(
        "Jhat_Z",
        jz,
        CenterSpec(2 * N - 4, RestrictionClassSpec(("theta", "w"), (-1, -1))),
        "x4",
    )
    return jz, jhat


def standard_curves(jz, jhat):
    eps1 = curve_from_atomic(jz, LineInProjFiber("x2"))
    eps2 = curve_from_atomic(jz, LineInProjFiber("x3"))
    ehat1 = curve_from_atomic(jhat, StrictTransform(eps1, 1))
    ehat2 = curve_from_atomic(jhat, StrictTransform(eps2, 1))
    sigma = CurveClass(
        jhat,
        push_from_sublattice(BOUNDARY_RESTRICTION, (0, 1, 0)),
        provenance="t-line pushed from the boundary sublattice",
    )
    gamma = curve_from_atomic(jhat, LineInExceptionalFiber("w"))
    return ehat1, ehat2, sigma, gamma


@pytest.fixture(scope="module")
def setup():
    jz, jhat = build_jhat()
    return (jz, jhat) + standard_curves(jz, jhat)


class TestAtomics:
    def test_proj_fiber_line(self, setup):
        jz, *_ = setup
        eps1 = curve_from_atomic(jz, LineInProjFiber("x2"))
        assert eps1.vector == (aspoly(0), aspoly(1), aspoly(0))

    def test_unknown_taut_generator(self, setup):
        jz, *_ = setup
        with pytest.raises(CurveSpaceError):
            curve_from_atomic(jz, LineInProjFiber("x9"))

    def test_base_generator_is_not_a_fiber_line(self, setup):
        jz, *_ = setup
        with pytest.raises(CurveSpaceError):
            curve_from_atomic(jz, LineInProjFiber("x1"))

    def test_exceptional_line_uses_declared_degree(self, setup):
        _, jhat, *_ = setup
        gamma = curve_from_atomic(jhat, LineInExceptionalFiber("w"))
        assert gamma.vector == (aspoly(0), aspoly(0), aspoly(0), aspoly(-1))
        theta = curve_from_atomic(jhat, LineInExceptionalFiber("theta"))
        assert theta.degree_on("x4") == -1

    def test_unknown_ruling(self, setup):
        _, jhat, *_ = setup
        with pytest.raises(CurveSpaceError):
            curve_from_atomic(jhat, LineInExceptionalFiber("nope"))

    def test_simple_exceptional_fiber_degree(self):
        # Blow-up of a point-like center: a line in the exceptional fiber
        # meets the exceptional divisor in degree -1.
        base = FormalBase("P3", ("h",), canonical=(-4,), dim=3)
        up = BlowUp(
            "P3up", base, CenterSpec(3, RestrictionClassSpec(("f",), (-1,))), "e"
        )
        line = curve_from_atomic(up, LineInExceptionalFiber("f"))
        assert line.degree_on("e") == -1

    def test_strict_transform_extends(self, setup):
        jz, jhat, ehat1, *_ = setup
        assert ehat1.vector == (aspoly(0), aspoly(1), aspoly(0), aspoly(1))
        eps1 = curve_from_atomic(jz, LineInProjFiber("x2"))
        off_center = curve_from_atomic(jhat, StrictTransform(eps1, 0))
        assert off_center.degree_on("x4").is_zero()
        with pytest.raises(ValueError):
            StrictTransform(eps1, -1)

    def test_strict_transform_needs_blowup(self, setup):
        jz, _, ehat1, *_ = setup
        eps1 = curve_from_atomic(jz, LineInProjFiber("x2"))
        with pytest.raises(CurveSpaceError):
            curve_from_atomic(jz, StrictTransform(eps1, 1))

    def test_declared_section(self, setup):
        _, jhat, *_ = setup
        c = curve_from_atomic(jhat, DeclaredSection((1, -1, -1, -1), "by pushforward"))
        assert c.vector == (aspoly(1), aspoly(-1), aspoly(-1), aspoly(-1))
        assert "by pushforward" in c.provenance

    def test_wrong_length_declared(self, setup):
        _, jhat, *_ = setup
        with pytest.raises(CurveSpaceError):
            curve_from_atomic(jhat, DeclaredSection((1, 2), "short"))


class TestPairing:
    def test_table_rows_frozen(self, setup):
        _, jhat, ehat1, ehat2, sigma, gamma = setup
        divisors = [jhat.gen(g) for g in jhat.pic_names()]
        table = pairing_table((ehat1, ehat2, sigma, gamma), divisors)
        assert table == ExactMatrix(
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
        assert table.is_constant()
        assert table.eval_at(3) == table.eval_at(4) == table.eval_at(5)

    def test_empty_table(self):
        assert pairing_table((), ()).rows == 0

    def test_space_mismatch(self, setup):
        jz, jhat, ehat1, *_ = setup
        with pytest.raises(CurveSpaceError):
            intersect(ehat1, jz.gen("x1"))

    def test_atomic_intersect_shortcut(self, setup):
        jz, *_ = setup
        assert intersect(LineInProjFiber("x2"), jz.gen("x2")) == 1
        assert intersect(LineInProjFiber("x2"), jz.gen("x1")) == 0

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
        eps1 = curve_from_atomic(jz, LineInProjFiber("x2"))
        d = jz.div(coords)
        lifted = lift_class(d, jhat)
        assert intersect(ehat1, lifted) == intersect(eps1, d)


class TestSolvePushforward:
    def _table(self, setup):
        _, jhat, ehat1, ehat2, sigma, gamma = setup
        divisors = [jhat.gen(g) for g in jhat.pic_names()]
        return pairing_table((ehat1, ehat2, sigma, gamma), divisors)

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
        assert (ehat1 + gamma).vector == (aspoly(0), aspoly(1), aspoly(0), aspoly(0))
        assert (ehat2 + gamma).vector == (aspoly(0), aspoly(0), aspoly(1), aspoly(0))

    def test_zero_observed(self, setup):
        table = self._table(setup)
        assert all(x.is_zero() for x in solve_pushforward((0, 0, 0, 0), table))

    def test_singular_table(self):
        table = ExactMatrix([[1, 0], [1, 0]])
        with pytest.raises(SingularTableError):
            solve_pushforward((0, 0), table)

    def test_inconsistent_observation(self):
        table = ExactMatrix([[1, 0], [2, 0]])  # 2x2, transpose has rank 1
        with pytest.raises((SingularTableError, InconsistentObservationError)):
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
        pairings = tuple(e.pairing for e in report.entries)
        assert pairings == (aspoly(-1), aspoly(-1), aspoly(-1), 4 - 2 * N)
        assert report.all_negative

    def test_zero_class_not_negative(self, setup):
        _, jhat, ehat1, *_ = setup
        zero = CurveClass(jhat, (0, 0, 0, 0), provenance="zero")
        report = kneg_check(jhat.div((1, 1, 1, 1)), (zero,))
        assert not report.entries[0].negative_for_all

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
        assert not positive_on_integers_from((N - 5) * (N - 6))
        assert positive_on_integers_from((N - 5) * (N - 6) + 1)

    @given(
        scale=st.integers(min_value=1, max_value=7),
    )
    @settings(max_examples=20, deadline=None)
    def test_scale_invariance(self, scale):
        jz, jhat, ehat1, ehat2, sigma, gamma = _MODULE_SETUP
        k_restricted = jhat.div((1 - 2 * N, 3 - 2 * N, 3 - 2 * N, 2 * N - 4))
        base = kneg_check(k_restricted, (gamma,)).entries[0].negative_for_all
        scaled = kneg_check(k_restricted, (gamma * scale,)).entries[0].negative_for_all
        assert base == scaled


class TestExtremalCertificate:
    def cone(self, setup):
        _, jhat, ehat1, ehat2, sigma, gamma = setup
        return Cone(
            dim=4,
            generators=(ehat1.vector, ehat2.vector, sigma.vector, gamma.vector),
            names=("ehat1", "ehat2", "sigma", "gamma"),
        )

    def test_sigma_ray_certificate(self, setup):
        cert = extremal_certificate(self.cone(setup), face=("sigma",))
        assert cert.status == "certified"
        assert cert.functional == (3, 2, 2, -1)
        assert cert.height == 3
        assert cert.values == (aspoly(1), aspoly(1), aspoly(0), aspoly(1))

    def test_whole_cone_zero_functional(self, setup):
        cert = extremal_certificate(
            self.cone(setup), face=("ehat1", "ehat2", "sigma", "gamma")
        )
        assert cert.status == "certified"
        assert cert.functional == (0, 0, 0, 0)

    def test_interior_generator_inconclusive_with_witness(self):
        cone = Cone(dim=2, generators=((1, 0), (0, 1), (1, 1)), names=("a", "b", "m"))
        cert = extremal_certificate(cone, face=("m",), height_bound=4)
        assert cert.status == "inconclusive"
        assert cert.witness is not None
        combo = cert.witness["combination"]
        assert combo == {0: aspoly(1), 1: aspoly(1)}

    def test_face_of_two_generators(self):
        # The functional must vanish on both face generators, not just one.
        cone = Cone(
            dim=3, generators=((1, 0, 0), (0, 1, 0), (0, 0, 1)), names=("a", "b", "c")
        )
        cert = extremal_certificate(cone, face=("a", "b"))
        assert cert.functional == (0, 0, 1)

    def test_unknown_face_name(self, setup):
        with pytest.raises(ValueError):
            extremal_certificate(self.cone(setup), face=("nope",))

    def test_soundness_recheck(self, setup):
        cone = self.cone(setup)
        cert = extremal_certificate(cone, face=("sigma",))
        for name, gen in zip(cone.names, cone.generators):
            value = sum(
                (g * f for g, f in zip(gen, cert.functional)), start=ParamPoly()
            )
            if name == "sigma":
                assert value.is_zero()
            else:
                assert value == 1

    def test_zero_generator_rejected(self):
        with pytest.raises(ValueError):
            Cone(dim=2, generators=((0, 0),))


class TestRestrictionKernel:
    def test_kernel_and_perp(self, setup):
        _, jhat, ehat1, ehat2, sigma, gamma = setup
        report = restriction_kernel(
            BOUNDARY_RESTRICTION, (ehat1, ehat2, sigma, gamma)
        )
        assert report.kernel == ((0, 1, -1, 0),)
        assert report.perp == (
            (1, 1, 0, 0),
            (0, 0, 1, 0),
            (0, 0, 0, 1),
        )

    def test_zero_map_kernel_everything(self, setup):
        _, jhat, ehat1, ehat2, sigma, gamma = setup
        zero = ExactMatrix([[0, 0, 0, 0]])
        report = restriction_kernel(zero, (ehat1, ehat2, sigma, gamma))
        assert len(report.kernel) == 4

    def test_pushforward_consistency(self, setup):
        # Declared boundary classes push to the expected combinations.
        _, jhat, ehat1, ehat2, sigma, gamma = setup
        push = lambda deg: push_from_sublattice(BOUNDARY_RESTRICTION, deg)
        assert push((1, 0, -2)) == (ehat1 + ehat2).vector
        assert push((0, 1, 0)) == sigma.vector
        assert push((0, 0, 1)) == gamma.vector


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


class TestMoriPropagation:
    def test_base_case(self):
        chain = ChainSpec(
            base_space="projective-space",
            base_generator_names=("line",),
            base_generators=((1,),),
            steps=(),
        )
        cone, reports = mori_propagate(chain)
        assert cone.generators == ((aspoly(1),),)
        assert reports == ()

    def test_two_step_chain_passes(self):
        cone, reports = mori_propagate(_two_step_chain())
        assert cone.names == ("fiber-line", "section")
        assert len(reports) == 1
        assert all(ok for _, ok in reports[0].conditions)

    @pytest.mark.parametrize("cond", ["a", "b", "c"])
    def test_hypothesis_violations_identified(self, cond):
        with pytest.raises(PropagationError) as err:
            mori_propagate(_two_step_chain(break_condition=cond))
        assert err.value.condition == cond
        assert err.value.step_name == "bundle-step"

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
_MODULE_TABLE = pairing_table(
    _MODULE_SETUP[2:],
    [_MODULE_JHAT.gen(g) for g in _MODULE_JHAT.pic_names()],
)
