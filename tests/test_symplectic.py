from __future__ import annotations

import inspect
import random
import textwrap
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from towercalc import scenarios, symplectic
from towercalc.cli import main
from towercalc.exactnum import ExactMatrix, N, rank
from towercalc.symplectic import (
    ExtPair,
    StabilizerClass,
    fixed_locus_incidence,
    is_isotropic,
    normal_cone_quadric,
    stabilizer_class_omega,
    stabilizer_class_sigma,
    yoneda_omega,
    yoneda_sigma,
)

# Oracle grams of the two fixed forms: omega on E and kappa on W.
OMEGA_GRAM = ExactMatrix(
    [
        [0, 0, 0, 1, 0, 0],
        [0, 0, 0, 0, 1, 0],
        [0, 0, 0, 0, 0, 1],
        [-1, 0, 0, 0, 0, 0],
        [0, -1, 0, 0, 0, 0],
        [0, 0, -1, 0, 0, 0],
    ]
)
KAPPA_GRAM = ExactMatrix([[0, 0, 1], [0, 1, 0], [1, 0, 0]])

rats = st.fractions(min_value=-9, max_value=9, max_denominator=6)
nonzero_rats = rats.filter(lambda x: x != 0)


def hom(cols) -> ExactMatrix:
    """Columns are images of w1, w2, w3 in E."""
    return ExactMatrix([[col[i] for col in cols] for i in range(len(cols[0]))])


X1 = (1, 0, 0, 0, 0, 0)
X2 = (0, 1, 0, 0, 0, 0)
X3 = (0, 0, 1, 0, 0, 0)
Y1 = (0, 0, 0, 1, 0, 0)
Z6 = (0, 0, 0, 0, 0, 0)


def dense_form(gram: ExactMatrix, v, w) -> Fraction:
    """Reference: sum v_i g_ij w_j over every entry of the gram."""
    g = gram.const_entries()
    v = [Fraction(x) for x in v]
    w = [Fraction(x) for x in w]
    return sum(v[i] * g[i][j] * w[j] for i in range(len(g)) for j in range(len(g)))


def exact(v) -> list:
    """Each coordinate converted once with `_const_value`, as `is_isotropic`
    converts it."""
    return [symplectic._const_value(x) for x in v]


def mixed_vector(rng: random.Random, dim: int) -> list:
    """Coordinates drawn as int, Fraction or "p/q" string."""
    out = []
    for _ in range(dim):
        num, den = rng.randint(-7, 7), rng.randint(1, 5)
        out.append(rng.choice([num, Fraction(num, den), "%d/%d" % (num, den)]))
    return out


class TestBilinearForms:
    @pytest.mark.parametrize("gram", [OMEGA_GRAM], ids=["standard"])
    def test_omega_equals_the_dense_sum(self, gram) -> None:
        rng = random.Random(4021)
        for _ in range(200):
            v, w = exact(mixed_vector(rng, 6)), exact(mixed_vector(rng, 6))
            got = symplectic._omega(v, w)
            assert got == dense_form(gram, v, w)
            assert symplectic._omega(w, v) == -got

    @pytest.mark.parametrize("gram", [KAPPA_GRAM], ids=["hyperbolic"])
    def test_kappa_equals_the_dense_sum(self, gram) -> None:
        rng = random.Random(4022)
        for _ in range(200):
            v, w = exact(mixed_vector(rng, 3)), exact(mixed_vector(rng, 3))
            got = symplectic._kappa(v, w)
            assert got == dense_form(gram, v, w)
            assert symplectic._kappa(w, v) == got

    def test_short_vector_is_rejected(self) -> None:
        with pytest.raises(IndexError):
            symplectic._omega((1, 0, 0), (0, 0, 0, 1, 0, 0))


class TestIsotropy:
    def test_empty_list_is_isotropic(self) -> None:
        assert is_isotropic([])

    def test_lagrangian_is_isotropic(self) -> None:
        assert is_isotropic([X1, X2, X3])

    def test_pairing_detected(self) -> None:
        assert not is_isotropic([X1, Y1])

    @pytest.mark.parametrize("gram", [OMEGA_GRAM], ids=["standard"])
    def test_verdicts_match_pairwise_omega(self, gram) -> None:
        # Half the draws are multiples of one vector, so both verdicts occur.
        rng = random.Random(4023)
        verdicts = set()
        for draw in range(200):
            gens = [mixed_vector(rng, 6) for _ in range(rng.randint(1, 3))]
            if draw % 2:
                base = [Fraction(x) for x in gens[0]]
                scales = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in gens]
                gens = [[rng.choice([s * x, str(s * x)]) for x in base] for s in scales]
            expected = all(
                dense_form(gram, gens[i], gens[j]) == 0
                for i in range(len(gens))
                for j in range(i, len(gens))
            )
            assert is_isotropic(gens) is expected
            verdicts.add(expected)
        assert verdicts == {True, False}

    def test_converts_each_coordinate_once(self, monkeypatch) -> None:
        calls = []
        real = symplectic._const_value

        def counting(x):
            calls.append(x)
            return real(x)

        monkeypatch.setattr(symplectic, "_const_value", counting)
        gens = [X1, [Fraction(1, 2), "2/3", 0, 0, 0, 0], X3]
        assert is_isotropic(gens)
        assert len(calls) == 18
        calls.clear()
        assert not is_isotropic([X1, Y1, X2])
        assert len(calls) == 18

    def test_wrong_generator_length_is_rejected(self) -> None:
        with pytest.raises(ValueError, match="generator length 5"):
            is_isotropic([X1, (0, 1, 0, 0, 0)])

    @given(st.lists(st.tuples(*[rats] * 6), min_size=1, max_size=3))
    @settings(max_examples=50)
    def test_agrees_with_yoneda_zero_locus(self, cols) -> None:
        cols = cols + [Z6] * (3 - len(cols))
        phi = hom(cols[:3])
        upsilon = yoneda_omega(phi)
        assert (upsilon == (0, 0, 0)) == is_isotropic(cols[:3])


class TestStabilizerOmega:
    def test_zero_hom_full_group(self) -> None:
        phi = hom([Z6, Z6, Z6])
        assert stabilizer_class_omega(phi) is StabilizerClass.FULL_SO_W

    def test_kernel_w2_w3_is_additive(self) -> None:
        # image x1, kernel span{w2, w3}; its kappa-perp is span{w3}, isotropic
        phi = hom([X1, Z6, Z6])
        assert stabilizer_class_omega(phi) is StabilizerClass.ADDITIVE

    def test_kernel_w1_w3_is_multiplicative(self) -> None:
        # image x1, kernel span{w1, w3}; its kappa-perp is span{w2}, kappa = 1
        phi = hom([Z6, X1, Z6])
        assert stabilizer_class_omega(phi) is StabilizerClass.MULTIPLICATIVE

    def test_rank_two_trivial(self) -> None:
        phi = hom([X1, X2, Z6])
        assert stabilizer_class_omega(phi) is StabilizerClass.TRIVIAL

    def test_rank_three_trivial(self) -> None:
        phi = hom([X1, X2, X3])
        assert stabilizer_class_omega(phi) is StabilizerClass.TRIVIAL

    def test_non_isotropic_image_rejected(self) -> None:
        phi = hom([X1, Y1, Z6])
        with pytest.raises(ValueError, match=r"^image is not isotropic$"):
            stabilizer_class_omega(phi)

    def test_perp_in_w_is_kappa_orthogonal(self) -> None:
        # The classification reads only kappa(v, v) on the perp line, and the
        # isometry w1 <-> w3 leaves that unchanged, so only a direct check
        # sees whether the complement is taken for kappa or for the dot
        # product.
        rng = random.Random(4024)
        for count in (1, 2) * 50:
            vectors = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(count)]
            perp = symplectic._perp_in_w(vectors)
            assert len(perp) == 3 - rank(ExactMatrix(vectors))
            for p in perp:
                assert all(dense_form(KAPPA_GRAM, p, v) == 0 for v in vectors)

    @given(nonzero_rats, rats)
    @settings(max_examples=40)
    def test_invariant_under_orthogonal_precomposition(self, lam, t) -> None:
        # theta = diag(lam, 1, 1/lam) and a unipotent both preserve the gram
        theta = ExactMatrix(
            [[lam, 0, 0], [0, 1, 0], [0, 0, Fraction(1) / lam]]
        )
        unip = ExactMatrix(
            [[1, t, -t * t * Fraction(1, 2)], [0, 1, -t], [0, 0, 1]]
        )
        swap = ExactMatrix([[0, 0, 1], [0, 1, 0], [1, 0, 0]])
        for o in (theta, unip, swap, theta * unip):
            assert (o.transpose() * KAPPA_GRAM * o) == KAPPA_GRAM
        for phi in (hom([X1, Z6, Z6]), hom([Z6, X1, Z6]), hom([X1, X2, Z6])):
            base = stabilizer_class_omega(phi)
            for o in (theta, unip, swap, theta * unip * swap):
                assert stabilizer_class_omega(phi * o) is base


class TestYoneda:
    def test_omega_example(self) -> None:
        phi = hom([X1, Y1, Z6])
        upsilon = yoneda_omega(phi)
        assert upsilon == (1, 0, 0)
        assert all(type(x) is Fraction for x in upsilon)

    def test_target_dimension_mismatch_is_rejected(self) -> None:
        # Eight rows against a six-dimensional E: rows 7 and 8 would be
        # dropped, and is_isotropic refuses the same columns.
        phi = ExactMatrix([[0, 0, 0]] * 6 + [[1, 0, 0], [0, 1, 0]])
        with pytest.raises(ValueError, match="6 x 3 matrix, got 8 x 3"):
            yoneda_omega(phi)
        with pytest.raises(ValueError, match="6 x 3 matrix, got 8 x 3"):
            stabilizer_class_omega(phi)
        with pytest.raises(ValueError, match="generator length 8"):
            is_isotropic(zip(*phi.const_entries()))
        with pytest.raises(ValueError, match="6 x 3 matrix, got 6 x 2"):
            yoneda_omega(hom([X1, Y1]))

    def test_sigma_zero_locus_example(self) -> None:
        assert yoneda_sigma(ExtPair((1, 0), (0, 1))) == (0, 0)

    def test_sigma_nonzero_example(self) -> None:
        assert yoneda_sigma(ExtPair((1, 0), (1, 0))) == (-1, 1)

    @given(st.tuples(rats, rats), st.tuples(rats, rats))
    @settings(max_examples=50)
    def test_alpha_plus_beta_vanishes(self, e12, e21) -> None:
        alpha, beta = yoneda_sigma(ExtPair(e12, e21))
        assert alpha + beta == 0


class TestPO2Action:
    def test_scale_example(self) -> None:
        out = ExtPair((1, 0), (2, 1)).scaled(2)
        assert out.e12 == (2, 0)
        assert out.e21 == (1, Fraction(1, 2))
        assert out.pair() == 2

    def test_swap_example(self) -> None:
        out = ExtPair((1, 2), (3, 1)).swapped()
        assert out.e12 == (3, 1) and out.e21 == (1, 2)
        assert out.sign == -1
        assert out.pair() == -5
        assert out.swapped().sign == 1

    def test_zero_scale_rejected(self) -> None:
        with pytest.raises(ValueError, match="scale factor must be nonzero"):
            ExtPair((1, 0), (0, 1)).scaled(0)

    @given(st.tuples(rats, rats), st.tuples(rats, rats), nonzero_rats)
    @settings(max_examples=50)
    def test_equivariance(self, e12, e21, lam) -> None:
        pair = ExtPair(e12, e21)
        psi = pair.pair()
        assert pair.scaled(lam).pair() == psi
        assert pair.swapped().pair() == -psi

    def test_swap_is_an_involution_on_values(self) -> None:
        pair = ExtPair((1, 2), (3, 5))
        assert pair.swapped().swapped().pair() == pair.pair()

    @given(st.tuples(rats, rats), st.tuples(rats, rats), nonzero_rats)
    @settings(max_examples=40)
    def test_sigma_class_scale_invariant(self, e12, e21, lam) -> None:
        pair = ExtPair(e12, e21)
        assert stabilizer_class_sigma(pair.scaled(lam)) is stabilizer_class_sigma(pair)

    def test_sigma_classes(self) -> None:
        assert stabilizer_class_sigma(ExtPair((0, 0), (0, 0))) is StabilizerClass.MULTIPLICATIVE
        assert stabilizer_class_sigma(ExtPair((1, 0), (0, 0))) is StabilizerClass.TRIVIAL


def pairing_quadric_gram(pairing: ExactMatrix) -> ExactMatrix:
    """Symmetric gram of q(e12, e21) = <e12, e21> on the doubled space."""
    k = pairing.rows
    g = pairing.const_entries()
    size = 2 * k
    rows = [[Fraction(0)] * size for _ in range(size)]
    for i in range(k):
        for j in range(k):
            rows[i][k + j] = Fraction(g[i][j], 2)
            rows[k + j][i] = Fraction(g[i][j], 2)
    return ExactMatrix(rows)


class TestNormalConeQuadric:
    def test_rank_values(self) -> None:
        quadric = normal_cone_quadric()
        assert quadric["rank"] == 4 * N - 4
        assert quadric["rank"].eval(3) == 8
        assert quadric["rank"].eval(4) == 12
        assert quadric["smooth"] is True

    def test_ambient_dim(self) -> None:
        assert normal_cone_quadric()["ambient_dim"] == 4 * N - 5

    def test_n_of_any_size_needs_only_one_plane_matrix(self, monkeypatch) -> None:
        # The rank is read off one hyperbolic plane, so an n far above any
        # size a gram could have is answered without an n-sized matrix.
        sizes = []

        def spy(matrix):
            sizes.append((matrix.rows, matrix.cols))
            return rank(matrix)

        monkeypatch.setattr(symplectic, "rank", spy)
        quadric = normal_cone_quadric()
        assert sizes == [(2, 2)]
        assert quadric["rank"].eval(999999999) == 3999999992
        assert quadric["nvars"].eval(999999999) == 3999999992
        assert quadric["smooth"] is True

    @pytest.mark.parametrize("n", range(3, 9))
    def test_rank_matches_the_explicit_gram(self, n) -> None:
        # The oracle row-reduces the whole (4n-4) x (4n-4) gram of the
        # identity pairing instead of one hyperbolic plane.
        k = 2 * n - 2
        identity = ExactMatrix([[int(i == j) for j in range(k)] for i in range(k)])
        gram = pairing_quadric_gram(identity)
        assert gram.rows == 4 * n - 4
        assert rank(gram) == normal_cone_quadric()["rank"].eval(n)


class TestFixedLocus:
    def test_dim_two_count(self) -> None:
        rep = fixed_locus_incidence(2)
        assert rep["projective_points"] == 4
        assert rep["fixed_pairs"] == 4
        assert rep["fixed_equals_diagonal"]

    def test_dim_four_count(self) -> None:
        rep = fixed_locus_incidence(4)
        assert rep["projective_points"] == 40
        assert rep["fixed_pairs"] == 40
        assert rep["diagonal_pairs"] == 40
        assert rep["fixed_equals_diagonal"]

    def test_odd_dim_rejected(self) -> None:
        with pytest.raises(ValueError):
            fixed_locus_incidence(3)

    @pytest.mark.parametrize("d, points, pairs", [(2, 4, 4), (4, 40, 520), (6, 364, 44044)])
    def test_counts_match_the_closed_forms(self, d, points, pairs) -> None:
        # |P^{d-1}(F_3)| = (3^d - 1)/2, and each point pairs with the points
        # of its perp hyperplane, a P^{d-2}(F_3).
        assert points == (3**d - 1) // 2
        assert pairs == points * ((3 ** (d - 1) - 1) // 2)
        rep = fixed_locus_incidence(d)
        assert rep["projective_points"] == points
        assert rep["incidence_pairs"] == pairs
        assert rep["fixed_pairs"] == rep["diagonal_pairs"] == points
        assert rep["fixed_equals_diagonal"] is True

    def test_a_symmetric_form_reads_false_not_a_traceback(self, monkeypatch, capsys) -> None:
        # Rebuild fixed_locus_incidence with omega made symmetric, so the
        # diagonal leaves the incidence locus.
        source = textwrap.dedent(inspect.getsource(symplectic.fixed_locus_incidence))
        mutant = source.replace("- v[m + i] * w[i]", "+ v[m + i] * w[i]")
        assert mutant != source
        namespace = dict(vars(symplectic))
        exec(mutant, namespace)
        broken = namespace["fixed_locus_incidence"]
        rep = broken(2)
        assert rep["fixed_pairs"] < rep["diagonal_pairs"] == 4
        assert rep["fixed_equals_diagonal"] is False
        monkeypatch.setattr(scenarios, "fixed_locus_incidence", broken)
        assert main(["verify", "--scenario", "incidence-fixed-locus"]) == 1
        out, err = capsys.readouterr()
        assert "  [FAIL] plane-fixed (reference)" in out
        assert err == ""


@pytest.mark.parametrize("e12, e21", [((1,), (1, 2)), ((), ())])
def test_an_ext_pair_needs_two_vectors_of_one_nonzero_length(e12, e21) -> None:
    with pytest.raises(ValueError, match="^e12 and e21 must be nonempty of equal length$"):
        ExtPair(e12, e21)
