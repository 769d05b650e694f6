import math

import pytest

from exactdet.huckel import (
    NoConvergence,
    PiSystem,
    SecularPolynomial,
    durand_kerner,
    energy_levels,
    secular_matrix,
    secular_polynomial,
    symbolic_form,
)
from exactdet.matrix import Matrix, ParseError
from exactdet.oracle import cofactor_det
from exactdet.ring import Polynomial

X = Polynomial([0, 1])
ONE = Polynomial([1])
ZERO = Polynomial([])


class TestPiSystem:
    def test_chain(self):
        s = PiSystem.chain(3)
        assert s.n_atoms == 3
        assert s.adjacent(0, 1) and s.adjacent(2, 1)
        assert not s.adjacent(0, 2)

    def test_single_atom(self):
        assert PiSystem.chain(1).edges == frozenset()

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            PiSystem.from_edges(2, [(0, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            PiSystem.from_edges(2, [(0, 5)])

    def test_edge_normalization(self):
        s = PiSystem.from_edges(3, [(2, 0)])
        assert s.adjacent(0, 2) and s.adjacent(2, 0)

    def test_from_text(self):
        text = "# allyl\natoms 3\nedge 1 2\nedge 2 3\n"
        assert PiSystem.from_text(text) == PiSystem.chain(3)

    def test_from_text_errors(self):
        with pytest.raises(ParseError):
            PiSystem.from_text("edge 1 2\n")
        with pytest.raises(ParseError, match="line 2"):
            PiSystem.from_text("atoms 2\nedge 1 5\n")
        with pytest.raises(ParseError):
            PiSystem.from_text("atoms 2\nbond 1 2\n")

    def test_from_text_self_loop_names_its_line_and_atom(self):
        # atoms are 1-based in the file, and so in the message
        with pytest.raises(ParseError, match="^line 3: self-loop on atom 2$"):
            PiSystem.from_text("atoms 3\nedge 1 2\nedge 2 2\n")

    def test_from_text_rejects_a_repeated_atoms_line(self):
        with pytest.raises(ParseError, match="^line 3: repeated atoms line$"):
            PiSystem.from_text("atoms 3\nedge 1 2\natoms 1\n")
        with pytest.raises(ParseError, match="^line 2: repeated atoms line$"):
            PiSystem.from_text("atoms 3\natoms 3\nedge 1 2\n")


class TestSecularMatrix:
    def test_chain3(self):
        m = secular_matrix(PiSystem.chain(3))
        assert m == Matrix([[X, ONE, ZERO], [ONE, X, ONE], [ZERO, ONE, X]])

    def test_single_atom(self):
        m = secular_matrix(PiSystem.chain(1))
        assert m.n_rows == 1 and m[0, 0] == X

    def test_4_cycle(self):
        s = PiSystem.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        m = secular_matrix(s)
        assert m[0, 1] == ONE and m[0, 3] == ONE and m[0, 2] == ZERO
        assert all(m[i, i] == X for i in range(4))


class TestSecularPolynomial:
    def test_chain3(self):
        sp = secular_polynomial(PiSystem.chain(3))
        assert sp.coeffs == Polynomial([0, -2, 0, 1])  # x^3 - 2x

    def test_chain2(self):
        # 2x2 determinant by hand: x*x - 1*1
        sp = secular_polynomial(PiSystem.chain(2))
        assert sp.coeffs == Polynomial([-1, 0, 1])

    def test_single_atom(self):
        assert secular_polynomial(PiSystem.chain(1)).coeffs == X

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_monic_degree_and_oracle_equivalence(self, n):
        s = PiSystem.chain(n)
        sp = secular_polynomial(s)
        assert sp.degree == n
        assert sp.coeffs.coeffs[-1] == 1
        assert sp.coeffs == cofactor_det(secular_matrix(s))

    def test_cycle_oracle_equivalence(self):
        s = PiSystem.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        sp = secular_polynomial(s)
        assert sp.coeffs == cofactor_det(secular_matrix(s))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_path_coefficients_have_one_parity(self, n):
        # bipartite symmetry: only every other coefficient may be nonzero
        cs = secular_polynomial(PiSystem.chain(n)).coeffs.coeffs
        for k, c in enumerate(cs):
            if (n - k) % 2 == 1:
                assert c == 0

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_root_sum_zero_coefficient(self, n):
        # trace of the adjacency is zero, so the x^(n-1) coefficient vanishes
        cs = secular_polynomial(PiSystem.chain(n)).coeffs.coeffs
        assert cs[n - 1] == 0

    def test_coefficients_are_ints(self):
        # the secular matrix lives in Z[x], and so do condensation's and
        # Bareiss's minors (chain 8 falls back to Bareiss)
        sp = secular_polynomial(PiSystem.chain(8))
        assert sp.method == "bareiss"
        assert all(type(c) is int for c in sp.coeffs.coeffs)
        assert all(
            type(c) is int for c in secular_polynomial(PiSystem.chain(5)).coeffs.coeffs
        )


class TestDurandKerner:
    def test_quadratic(self):
        roots = sorted(r.real for r in durand_kerner([-1, 0, 1]))
        assert roots == pytest.approx([-1.0, 1.0], abs=1e-12)

    def test_residuals_below_tol(self):
        coeffs = [0, -2, 0, 1]  # x^3 - 2x
        for r in durand_kerner(coeffs, tol=1e-10):
            val = ((r * r * r) - 2 * r)
            assert abs(val) < 1e-10

    def test_degree_one(self):
        (root,) = durand_kerner([3, 1])
        assert abs(root - (-3)) < 1e-12

    def test_iteration_cap(self):
        with pytest.raises(NoConvergence):
            durand_kerner([0, -2, 0, 1], tol=1e-10, max_iterations=2)


class TestEnergyLevels:
    def test_chain3_closed_form(self):
        alpha, beta = -1.0, -0.5
        levels = energy_levels(secular_polynomial(PiSystem.chain(3)), alpha, beta)
        expected = sorted(
            [alpha + math.sqrt(2) * beta, alpha, alpha - math.sqrt(2) * beta]
        )
        assert levels == pytest.approx(expected, abs=1e-10)

    def test_reduced_roots_chain3(self):
        alpha, beta = 0.7, -1.3
        levels = energy_levels(secular_polynomial(PiSystem.chain(3)), alpha, beta)
        xs = sorted((alpha - e) / beta for e in levels)
        assert xs == pytest.approx([-math.sqrt(2), 0.0, math.sqrt(2)], abs=1e-10)

    def test_single_atom(self):
        sp = secular_polynomial(PiSystem.chain(1))
        assert energy_levels(sp, -2.0, -1.0) == pytest.approx([-2.0])

    def test_chain2(self):
        sp = secular_polynomial(PiSystem.chain(2))
        assert energy_levels(sp, 0.0, 1.0) == pytest.approx([-1.0, 1.0])

    def test_beta_zero_rejected(self):
        with pytest.raises(ValueError):
            energy_levels(secular_polynomial(PiSystem.chain(2)), -1.0, 0.0)

    def test_bad_tol_rejected(self):
        with pytest.raises(ValueError):
            energy_levels(secular_polynomial(PiSystem.chain(2)), -1.0, -1.0, tol=0.0)


class TestSymbolicForm:
    def test_chain3(self):
        sp = secular_polynomial(PiSystem.chain(3))
        assert symbolic_form(sp) == "(alpha-E)^3 - 2*(alpha-E)*beta^2"

    def test_chain2(self):
        sp = secular_polynomial(PiSystem.chain(2))
        assert symbolic_form(sp) == "(alpha-E)^2 - beta^2"

    def test_single_atom(self):
        sp = secular_polynomial(PiSystem.chain(1))
        assert symbolic_form(sp) == "(alpha-E)"

    def test_constant_coefficient_keeps_beta_power(self):
        sp = SecularPolynomial(Polynomial([-1, 0, 0, 0, 1]))  # x^4 - 1
        assert symbolic_form(sp) == "(alpha-E)^4 - beta^4"
