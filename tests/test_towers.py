"""Tests for the bundle-tower and divisor-class engine."""

from fractions import Fraction

import pytest

from towercalc.exactnum import ExactMatrix, N, ParamPoly, aspoly
from towercalc.towers import (
    BlowUp,
    CenterSpec,
    DivisorIn,
    FiberProduct,
    FormalBase,
    FormalBundle,
    LatticeError,
    MissingCanonicalError,
    ProjBundle,
    PullbackMap,
    canonical_class,
    dsum,
    dual,
    extension,
    lift_class,
    pull_to,
    quotient,
    relative_tangent,
    sym2,
    sym_power,
    tensor_line,
    transport_class,
    wedge_top,
)


def jz_tower():
    """Tower for the incidence threefold-of-sorts used across the suite:
    a projective space base, two copies of a projectivized quotient bundle,
    their fiber product, and the (1,1) incidence divisor inside it."""
    pt = FormalBase("PT_Z", ("x1",), canonical=(-2 * N,), dim=2 * N - 1)
    taut = FormalBundle(pt, 1, pt.gen("x1", -1), name="taut")
    perp = FormalBundle(pt, 2 * N - 1, pt.gen("x1", -1), name="perp")
    quot = quotient(perp, taut)
    pa1 = ProjBundle("PA1", pt, quot, "x2")
    pa2 = ProjBundle("PA2", pt, quot, "x3")
    fp = FiberProduct("PAxPA", pa1, pa2, pt)
    jz = DivisorIn("J_Z", fp, fp.div((0, 1, 1)))
    return pt, quot, pa1, pa2, fp, jz


class TestTowerAssembly:
    def test_quotient_bundle_rank_and_c1(self):
        _, quot, *_ = jz_tower()
        assert quot.rank == 2 * N - 2
        assert all(c.is_zero() for c in quot.c1.coords)

    def test_pic_rank_bookkeeping(self):
        pt, _, pa1, pa2, fp, jz = jz_tower()
        assert pt.pic_rank == 1
        assert pa1.pic_rank == 2
        assert fp.pic_names() == ("x1", "x2", "x3")
        assert jz.pic_names() == ("x1", "x2", "x3")
        jhat = BlowUp("Jhat", jz, CenterSpec(2 * N - 4), "x4")
        assert jhat.pic_names() == ("x1", "x2", "x3", "x4")

    def test_dimensions(self):
        pt, _, pa1, _, fp, jz = jz_tower()
        assert pt.dim() == 2 * N - 1
        assert pa1.dim() == 4 * N - 4
        assert fp.dim() == 6 * N - 7
        assert jz.dim() == 6 * N - 8

    def test_duplicate_generator_rejected(self):
        pt, quot, *_ = jz_tower()
        with pytest.raises(LatticeError):
            ProjBundle("bad", pt, quot, "x1")
        with pytest.raises(LatticeError):
            BlowUp("bad", pt, CenterSpec(2), "x1")

    def test_fiber_product_needs_common_base(self):
        pt, quot, pa1, _, _, _ = jz_tower()
        other = FormalBase("other", ("y",))
        with pytest.raises(LatticeError):
            FiberProduct("bad", pa1, other, pt)

    def test_fiber_product_name_clash(self):
        pt, quot, pa1, _, _, _ = jz_tower()
        with pytest.raises(LatticeError):
            FiberProduct("bad", pa1, pa1, pt)

    def test_wrong_length_coords_rejected(self):
        pt, *_ = jz_tower()
        with pytest.raises(LatticeError):
            pt.div((1, 2))

    def test_rank_and_codim_guards_hold_for_every_n(self):
        # 6 - n is positive at n = 3, 4, 5 but 0 at n = 6.
        base = FormalBase("pt", (), canonical=(), dim=0)
        with pytest.raises(ValueError):
            FormalBundle(base, 6 - N, base.zero())
        with pytest.raises(ValueError):
            CenterSpec(6 - N)
        assert FormalBundle(base, N - 2, base.zero()).rank == N - 2


class TestCanonicalClasses:
    def test_projective_space_base(self):
        pt, *_ = jz_tower()
        assert canonical_class(pt).coords == (-2 * N,)

    def test_incidence_divisor_canonical(self):
        *_, jz = jz_tower()
        assert canonical_class(jz).coords == (-2 * N, 3 - 2 * N, 3 - 2 * N)

    def test_incidence_canonical_second_route(self):
        # Same space realized as a projective bundle over one factor: the
        # fiber is the projectivization of the rank 2n-3 kernel bundle.
        pt, quot, pa1, _, _, jz = jz_tower()
        kernel = quotient(pull_to(quot, pa1), FormalBundle(pa1, 1, pa1.gen("x2")))
        assert kernel.rank == 2 * N - 3
        assert kernel.c1 == pa1.gen("x2", -1)
        alt = ProjBundle("J_alt", pa1, kernel, "x3")
        assert canonical_class(alt).coords == canonical_class(jz).coords
        assert alt.dim() == jz.dim()

    def test_blowup_discrepancy(self):
        *_, jz = jz_tower()
        jhat = BlowUp("Jhat", jz, CenterSpec(2 * N - 4), "x4")
        assert canonical_class(jhat).coords == (
            -2 * N,
            3 - 2 * N,
            3 - 2 * N,
            2 * N - 5,
        )

    def test_restricted_ambient_canonical(self):
        # Ambient canonical restricted to the divisor, then carried through a
        # blow-up whose center has codimension 2n-3 in the ambient space.
        restr = FormalBase(
            "I_on_J",
            ("x1", "x2", "x3"),
            canonical=(1 - 2 * N, 3 - 2 * N, 3 - 2 * N),
            dim=6 * N - 7,
        )
        up = BlowUp("Ihat_on_J", restr, CenterSpec(2 * N - 3), "x4")
        assert canonical_class(up).coords == (
            1 - 2 * N,
            3 - 2 * N,
            3 - 2 * N,
            2 * N - 4,
        )

    def test_missing_canonical_raises(self):
        base = FormalBase("nocanon", ("x",))
        with pytest.raises(MissingCanonicalError):
            canonical_class(base)

    def test_trivial_rank_two_bundle(self):
        base = FormalBase("pt", (), canonical=(), dim=0)
        triv = FormalBundle(base, 2, base.zero())
        line = ProjBundle("P1", base, triv, "x")
        rel = relative_tangent(line)
        assert rel.rank == 1
        assert rel.c1.coeff("x") == 2
        assert canonical_class(line).coords == (aspoly(-2),)


class TestCotangentTwist:
    def test_relative_cotangent_degrees(self):
        # Plane bundle over a one-generator base, then the projectivized
        # relative tangent on top; the relative cotangent line must come out
        # as g - 3h - 2*xk.
        grass = FormalBase("grass3", ("g",), canonical=(-4,), dim=6)
        b3 = FormalBundle(grass, 3, grass.gen("g", -1), name="B")
        chi = ProjBundle("P_chi", grass, b3, "h")
        t_chi = relative_tangent(chi)
        assert t_chi.rank == 2
        assert t_chi.c1 == chi.div((-1, 3))
        top = ProjBundle("kappa", chi, t_chi, "xk")
        omega = dual(relative_tangent(top))
        assert omega.rank == 1
        assert omega.c1 == top.div((1, -3, -2))


class TestBundleAlgebra:
    @pytest.fixture
    def setting(self):
        base = FormalBase("B", ("u", "v"), canonical=(0, 0), dim=4)
        f = FormalBundle(base, 3, base.div((2, -1)), name="F")
        g = FormalBundle(base, 2 * N, base.div((0, 1)), name="G")
        return base, f, g

    def test_dual_involution(self, setting):
        _, f, _ = setting
        dd = dual(dual(f))
        assert dd.rank == f.rank and dd.c1 == f.c1

    def test_tensor_line(self, setting):
        base, f, _ = setting
        tw = tensor_line(f, base.gen("u"))
        assert tw.rank == f.rank
        assert tw.c1 == base.div((5, -1))

    def test_sum_and_extension_additive(self, setting):
        _, f, g = setting
        s = dsum(f, g)
        e = extension(f, g)
        assert s.rank == e.rank == 3 + 2 * N
        assert s.c1 == e.c1 == f.c1 + g.c1

    def test_quotient_subtracts(self, setting):
        _, f, g = setting
        q = quotient(dsum(f, g), f)
        assert q.rank == g.rank and q.c1 == g.c1

    def test_quotient_rank_guard(self, setting):
        base, f, _ = setting
        big = FormalBundle(base, 5, base.zero())
        with pytest.raises(ValueError):
            quotient(f, big)

    def test_sym2_matches_sym_power(self, setting):
        _, f, _ = setting
        a, b = sym2(f), sym_power(f, 2)
        assert a.rank == b.rank == 6
        assert a.c1 == b.c1 == f.c1 * 4

    def test_sym_power_line_multiplier(self, setting):
        _, f, _ = setting
        assert sym_power(f, 1).c1 == f.c1
        assert sym_power(f, 3).rank == 10
        assert sym_power(f, 3).c1 == f.c1 * 10

    def test_sym_power_needs_constant_rank(self, setting):
        _, _, g = setting
        with pytest.raises(ValueError):
            sym_power(g, 2)

    def test_wedge_top(self, setting):
        _, _, g = setting
        top = wedge_top(g)
        assert top.rank == 1 and top.c1 == g.c1

    def test_symbolic_sym2(self, setting):
        _, _, g = setting
        s = sym2(g)
        assert s.rank == N * (2 * N + 1)
        assert s.c1 == g.c1 * (2 * N + 1)

    def test_lift_preserves_names(self):
        pt, _, pa1, _, fp, _ = jz_tower()
        d = pt.gen("x1", 7)
        lifted = lift_class(d, fp)
        assert lifted.coeff("x1") == 7
        assert lifted.coeff("x2").is_zero()
        with pytest.raises(LatticeError):
            lift_class(fp.gen("x2"), pt)


class TestPullbackMaps:
    NAMES3 = ("a", "b", "c")

    def test_shape_validated(self):
        with pytest.raises(LatticeError):
            PullbackMap("m", ("a",), ("b", "c"), ExactMatrix([[1]]))

    def test_inverted_round_trips(self):
        m = PullbackMap(
            "m",
            self.NAMES3,
            self.NAMES3,
            ExactMatrix([[1, 1, 0], [0, 1, 0], [0, 2, 1]]),
        )
        inv = m.inverted()
        assert (inv.matrix * m.matrix).is_identity()
        assert inv.source_names == m.target_names
        assert inv.target_names == m.source_names

    def test_transport_with_drop(self):
        f = PullbackMap(
            "f",
            ("a", "b"),
            ("p", "q", "r"),
            ExactMatrix([[1, 0], [2, 1], [0, 3]]),
        )
        out = transport_class((1, 1), via=[f], drop=("q",))
        assert out.names == ("p", "r")
        assert out.coords == (aspoly(1), aspoly(3))

    def test_transport_unknown_drop(self):
        f = PullbackMap("f", ("a",), ("b",), ExactMatrix([[1]]))
        with pytest.raises(LatticeError):
            transport_class((1,), via=[f], drop=("zz",))

    def test_transport_empty_chain(self):
        with pytest.raises(ValueError):
            transport_class((1,), via=[])
