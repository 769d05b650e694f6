import itertools
import math
import random
from collections import Counter
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from exactdet import condense, huckel
from exactdet.huckel import (
    PiSystem,
    SecularPolynomial,
    energy_levels,
    secular_matrix,
    secular_polynomial,
    symbolic_form,
)
from exactdet.matrix import Matrix, ParseError
from exactdet.oracle import bareiss_det, cofactor_det, elimination_det
from exactdet.ring import Polynomial

X = Polynomial([0, 1])
ONE = Polynomial([1])
ZERO = Polynomial([])


# Exact references: closed forms evaluated in 60-digit Decimal arithmetic,
# then rounded once by float(), which rounds a Decimal correctly.


def _decimal_pi():
    # the series from the decimal module's documentation
    with localcontext() as ctx:
        ctx.prec = 64
        t, s, n, na, d, da, last = Decimal(3), Decimal(3), 1, 0, 0, 24, 0
        while s != last:
            last = s
            n, na = n + na, na + 8
            d, da = d + da, da + 32
            t = (t * n) / d
            s += t
        return s


def _decimal_cos(x):
    with localcontext() as ctx:
        ctx.prec = 64
        term, s, i, last = Decimal(1), Decimal(1), 0, 0
        while s != last:
            last = s
            i += 2
            term *= -x * x / (i * (i - 1))
            s += term
        return s


PI = _decimal_pi()


def _doubles(values):
    """Each value rounded to the nearest double; the series leave ~1e-60 for 0."""
    return sorted(0.0 if abs(v) < Decimal("1e-40") else float(v) for v in values)


def chain_roots(n):
    """Roots x of det(xI + A) for the n-atom chain: -2cos(k pi / (n + 1))."""
    with localcontext() as ctx:
        ctx.prec = 64
        return _doubles(-2 * _decimal_cos(k * PI / (n + 1)) for k in range(1, n + 1))


def cycle_roots(n):
    """Roots x for the n-atom cycle: -2cos(2 pi k / n), degenerate pairs included."""
    with localcontext() as ctx:
        ctx.prec = 64
        return _doubles(-2 * _decimal_cos(2 * PI * k / n) for k in range(n))


def cycle(n):
    return PiSystem.from_edges(n, [(k, (k + 1) % n) for k in range(n)])


NAPHTHALENE = PiSystem.from_edges(
    10,
    [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (4, 6), (6, 7), (7, 8), (8, 9), (9, 5)],
)
# Hückel levels alpha + x_k beta of naphthalene as tabulated to four digits
# (Coulson and Streitwieser, Dictionary of pi-Electron Calculations, 1965)
NAPHTHALENE_PUBLISHED = [2.3028, 1.6180, 1.3028, 1.0, 0.6180,
                         -0.6180, -1.0, -1.3028, -1.6180, -2.3028]


def acene(k):
    """k linearly fused hexagons: two rows of 2k + 1 atoms, each bonded as a
    path, with rungs at the even positions; 4k + 2 atoms, 5k + 1 bonds."""
    m = 2 * k + 1
    edges = [(r * m + j, r * m + j + 1) for r in (0, 1) for j in range(m - 1)]
    edges += [(j, m + j) for j in range(0, m, 2)]
    return PiSystem.from_edges(2 * m, edges)


def c60():
    """Buckminsterfullerene as the truncated icosahedron: one atom on each
    directed edge u->v of the icosahedron, bonded to v->u and to u->w for
    the two w adjacent to both u and v; 60 atoms, 90 bonds, degree 3."""
    phi = (1 + math.sqrt(5)) / 2
    vertices = []
    for a, b in itertools.product((1, -1), repeat=2):
        base = (0, a, b * phi)
        vertices += [base[r:] + base[:r] for r in range(3)]

    def adjacent(u, v):
        return abs(sum((p - q) ** 2 for p, q in zip(vertices[u], vertices[v])) - 4) < 1e-9

    arcs = [(u, v) for u in range(12) for v in range(12) if u != v and adjacent(u, v)]
    atom = {arc: i for i, arc in enumerate(arcs)}
    edges = [(atom[u, v], atom[v, u]) for u, v in arcs if u < v]
    edges += [(atom[u, v], atom[u, w]) for u, v in arcs for w in range(v + 1, 12)
              if (u, w) in atom and adjacent(v, w)]
    return PiSystem.from_edges(60, edges)


def triangles(system):
    return sum(
        {(i, j), (j, k), (i, k)} <= system.edges
        for i, j, k in itertools.combinations(range(system.n_atoms), 3)
    )


MOLECULES = {
    "anthracene": acene(3),
    "pentacene": acene(5),
    "octacene": acene(8),
    "c60": c60(),
    "cycle3": cycle(3),  # one triangle
    "k4": PiSystem.from_edges(4, itertools.combinations(range(4), 2)),  # four triangles
}


@pytest.fixture(scope="module")
def spectra():
    """name -> (system, secular polynomial, roots x); C60's polynomial takes ~1 s."""
    out = {}
    for name, system in MOLECULES.items():
        sp = secular_polynomial(system)
        out[name] = (system, sp, energy_levels(sp, 0.0, -1.0))  # E = x exactly
    return out


class TestPiSystem:
    def test_chain(self):
        s = PiSystem.chain(3)
        assert s.n_atoms == 3
        assert s.edges == {(0, 1), (1, 2)}

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
        assert s.edges == {(0, 2)}

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

    @pytest.mark.parametrize(
        "text, message",
        [
            ("atoms 3\nedge 1 2\nedge \u0662 3\n", r"^line 3: bad edge indices \['\u0662', '3'\]$"),
            ("atoms 1_0\n", "^line 1: bad atom count '1_0'$"),
            ("atoms 3\nedge 1 +2\n", None),
        ],
    )
    def test_from_text_reads_numbers_by_the_token_rule(self, text, message):
        if message is None:
            assert PiSystem.from_text(text) == PiSystem.from_edges(3, [(0, 1)])
            return
        with pytest.raises(ParseError, match=message):
            PiSystem.from_text(text)

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
        assert sp.coeffs.degree == n
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

    @pytest.mark.parametrize("system, method", [
        (PiSystem.chain(10), "bareiss"), (cycle(10), "bareiss"), (NAPHTHALENE, "condensation"),
        (acene(5), "bareiss"), (cycle(30), "bareiss"),
    ], ids=["chain10", "cycle10", "naphthalene", "pentacene", "cycle30"])
    def test_sparse_molecules_skip_additive_repair(self, monkeypatch, system, method):
        # no secular matrix is repaired: naphthalene's half condenses after a
        # rotation, and no rotation clears the others' halves or matrices
        repairs = []
        original = condense._additive_repair
        monkeypatch.setattr(
            condense, "_additive_repair", lambda *args: repairs.append(args) or original(*args)
        )
        sp = secular_polynomial(system)
        assert repairs == []
        assert sp.method == method
        assert sp.coeffs == bareiss_det(secular_matrix(system))

    def test_coefficients_are_ints(self):
        # the secular matrix lives in Z[x], and so do condensation's and
        # Bareiss's minors (chain 8's half condenses, chain 10's is eliminated)
        for n, method in ((8, "condensation"), (10, "bareiss"), (5, "condensation")):
            sp = secular_polynomial(PiSystem.chain(n))
            assert sp.method == method
            assert all(type(c) is int for c in sp.coeffs.coeffs)


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


def roots_of(coeffs):
    """Roots x of the polynomial with ``coeffs`` (lowest first), as levels at
    alpha 0, beta -1, which are x exactly."""
    return energy_levels(SecularPolynomial(Polynomial(coeffs)), 0.0, -1.0)


class TestExactRoots:
    """Every root is the double nearest the exact one, listed once per
    multiplicity; no tolerance decides anything."""

    def test_quadratic(self):
        assert roots_of([-1, 0, 1]) == [-1.0, 1.0]

    def test_chain3_correctly_rounded(self):
        # x^3 - 2x; math.sqrt rounds correctly
        assert roots_of([0, -2, 0, 1]) == [-math.sqrt(2), 0.0, math.sqrt(2)]

    def test_degree_one(self):
        assert roots_of([3, 1]) == [-3.0]

    def test_rational_coefficients(self):
        assert roots_of([Fraction(-1, 4), 0, 1]) == [-0.5, 0.5]

    def test_multiplicities(self):
        # (x - 1)^3 (x + 2)^2 x^4
        p = Polynomial([1])
        for root, m in ((1, 3), (-2, 2), (0, 4)):
            for _ in range(m):
                p = p * Polynomial([-root, 1])
        assert roots_of(p.coeffs) == [-2.0] * 2 + [0.0] * 4 + [1.0] * 3

    @pytest.mark.parametrize("p", [
        [-2, 0, 1], [0, -3, 0, 1], [0, 0, -16, 0, 20, 0, -8, 0, 1], [-1, 1, 1],
    ], ids=["x2-2", "x3-3x", "cycle8", "x2+x-1"])
    @pytest.mark.parametrize("c", [-3, 2, Fraction(1, 2), Fraction(-7, 3)])
    def test_scaling_moves_no_root(self, p, c):
        # a square-free p reaches the root finder as its primitive part, a
        # repeated-root p as primitive factors; neither depends on c
        assert roots_of([c * a for a in p]) == roots_of(p)

    def test_only_real_roots_give_levels(self):
        assert roots_of([-1, 0, 0, 0, 1]) == [-1.0, 1.0]  # x^4 - 1
        assert roots_of([1, 0, 1]) == []  # x^2 + 1
        assert roots_of([5]) == []

    @pytest.mark.parametrize("k", [1, 3, 5, 7, -1, -3])
    def test_ties_round_to_even(self, k):
        # the root 1 + k 2^-53 of 2^53 x - (2^53 + k); odd k puts it midway
        # between two doubles (or, for k = -1, at a double)
        root = Fraction(2**53 + k, 2**53)
        assert roots_of([-(2**53 + k), 2**53]) == [float(root)]

    def test_near_ties(self):
        # 3 (2^53 x - 2^53 - 1) +- 1: a root a third of an ulp off a tie
        for delta in (1, -1):
            coeffs = [-3 * (2**53 + 1) + delta, 3 * 2**53]
            root = Fraction(3 * (2**53 + 1) - delta, 3 * 2**53)
            assert roots_of(coeffs) == [float(root)]


class TestClosedForms:
    @pytest.mark.parametrize("n", range(3, 21))
    def test_chain(self, n):
        assert energy_levels(secular_polynomial(PiSystem.chain(n)), 0.0, -1.0) == chain_roots(n)

    @pytest.mark.parametrize("n", range(3, 13))
    def test_cycle(self, n):
        # degenerate pairs for every n > 2, once dropped or blurred
        assert energy_levels(secular_polynomial(cycle(n)), 0.0, -1.0) == cycle_roots(n)

    def test_naphthalene(self):
        levels = energy_levels(secular_polynomial(NAPHTHALENE), 0.0, 1.0)  # E = -x
        with localcontext() as ctx:
            ctx.prec = 60
            r5, r13 = Decimal(5).sqrt(), Decimal(13).sqrt()
            exact = [(1 + r13) / 2, (1 + r5) / 2, (r13 - 1) / 2, Decimal(1), (r5 - 1) / 2]
        assert levels == _doubles(exact + [-v for v in exact])
        assert levels == pytest.approx(sorted(NAPHTHALENE_PUBLISHED), abs=5e-5)

    def test_physical_parameters(self):
        alpha, beta = -1.0, -0.5
        levels = energy_levels(secular_polynomial(cycle(6)), alpha, beta)
        assert levels == sorted(alpha - beta * x for x in cycle_roots(6))
        assert levels == [-2.0, -1.5, -1.5, -0.5, -0.5, 0.0]


class TestMoleculesAtScale:
    @pytest.mark.parametrize("name", sorted(MOLECULES))
    def test_power_sums(self, spectra, name):
        system, _, xs = spectra[name]
        assert len(xs) == system.n_atoms  # the multiplicities sum to n
        scale = system.n_atoms * 9
        assert abs(math.fsum(xs)) <= 1e-13 * scale
        assert math.fsum(x * x for x in xs) == pytest.approx(2 * len(system.edges), rel=1e-13)
        assert math.fsum(x**3 for x in xs) == pytest.approx(
            -6 * triangles(system), abs=1e-12 * scale
        )

    def test_c60_levels(self, spectra):
        system, _, xs = spectra["c60"]
        assert (system.n_atoms, len(system.edges)) == (60, 90)
        multiplicities = Counter(xs)
        assert len(multiplicities) == 15
        assert set(multiplicities.values()) == {1, 3, 4, 5, 9}
        # the 9 is the accidental 4 + 5 at x = -1, that is E = alpha + beta
        assert multiplicities[-1.0] == 9 and multiplicities[-3.0] == 1

    @pytest.mark.parametrize("k, atoms, bonds", [(3, 14, 16), (5, 22, 26), (8, 34, 41)])
    def test_acene_shape(self, k, atoms, bonds):
        system = acene(k)
        assert (system.n_atoms, len(system.edges)) == (atoms, bonds)


def _garbage(kind, seeds):
    rng = random.Random(kind)

    def fake(f, e):
        d = len(f) - 1
        return {
            "none": [],
            "nan": [math.nan] * d,
            "one-value": [1e300] * d,
            "uniform": sorted(rng.uniform(-4.0, 4.0) for _ in range(d)),
            "too-many": sorted(rng.uniform(-4.0, 4.0) for _ in range(d + 1)),
            "offset": [s + 1e-3 for s in seeds(f, e)],
        }[kind]

    return fake


@pytest.mark.parametrize("kind", ["none", "nan", "one-value", "uniform", "too-many", "offset"])
def test_float_seeds_are_only_hints(monkeypatch, spectra, kind):
    """Garbage seeds change no level: the exact steps decide every root, by
    the Descartes fallback where the seeds do not certify."""
    cases = [sp for _, sp, _ in spectra.values()] + [
        secular_polynomial(s) for s in (PiSystem.chain(10), cycle(10), NAPHTHALENE)
    ]
    cases.append(SecularPolynomial(Polynomial([-(2**53 + 3), 2**53])))
    expected = [energy_levels(sp, 0.0, -1.0) for sp in cases]
    fallbacks = []
    isolated = huckel._isolated
    monkeypatch.setattr(huckel, "_seeds", _garbage(kind, huckel._seeds))
    monkeypatch.setattr(huckel, "_isolated", lambda f, e: fallbacks.append(f) or isolated(f, e))
    assert [energy_levels(sp, 0.0, -1.0) for sp in cases] == expected
    if kind != "offset":
        assert fallbacks


def _nearest_double(b, d, sign):
    """The double nearest (b + sign * sqrt(d)) / 2, from ``math.isqrt`` at
    1100 fractional bits."""
    root = math.isqrt(d << 2200)
    return float(Fraction((b << 1100) + sign * root, 2 << 1100))


@pytest.mark.parametrize("coeffs, roots, levels, overflows", [
    # x^2 - 10^400: x = ±10^200
    ([-10**400, 0, 1], [(0, 4 * 10**400, -1), (0, 4 * 10**400, 1)], [-5e199, 5e199], True),
    # x^4 - 10^400: its real roots x = ±10^100, where x^2 = 10^200
    ([-10**400, 0, 0, 0, 1], [(0, 4 * 10**200, -1), (0, 4 * 10**200, 1)], [-5e99, 5e99], True),
    # x^2 - 10^302 x + 10^300, x near 1/100 and near 10^302: the
    # coefficients fit a double, but f(2^1004), where Newton starts, does not
    ([10**300, -10**302, 1], [(10**302, 10**604 - 4 * 10**300, s) for s in (-1, 1)], [-0.995, 5e301], True),
])
def test_levels_of_coefficients_past_the_doubles(monkeypatch, coeffs, roots, levels, overflows):
    """Where a float overflows, ``_seeds`` gives no seeds, and the Descartes
    path alone isolates the roots; each level, overflow or not, is that of
    the double nearest the exact root."""
    seeds, isolated = [], []
    float_seeds, descartes = huckel._seeds, huckel._isolated
    monkeypatch.setattr(huckel, "_seeds", lambda f, e: seeds.append(float_seeds(f, e)) or seeds[-1])
    monkeypatch.setattr(huckel, "_isolated", lambda f, e: isolated.append(f) or descartes(f, e))
    sp = SecularPolynomial(Polynomial([Fraction(c) for c in coeffs]))
    assert energy_levels(sp, -1.0, -0.5) == levels
    assert levels == sorted(-1.0 - -0.5 * _nearest_double(*root) for root in roots)
    assert (seeds == [[]]) is overflows
    assert isolated or not overflows


def test_no_seeds_once_a_newton_step_is_not_finite():
    # f(2^1004) overflows to inf without raising OverflowError, and the
    # descent would stop at its start, 2^1004, which is no root
    assert huckel._seeds([10**300, -10**302, 1], 1004) == []


def star(k):
    """The star K1,k: one atom bonded to k others."""
    return PiSystem.from_edges(k + 1, [(0, j) for j in range(1, k + 1)])


def _bipartite(rng):
    n = rng.randint(1, 10)
    side = [rng.randint(0, 1) for _ in range(n)]
    pairs = itertools.combinations(range(n), 2)
    return PiSystem.from_edges(n, [(i, j) for i, j in pairs
                                   if side[i] != side[j] and rng.random() < 0.5])


# the seven huckel_spectrum molecules, then alternants of every shape the
# pairing path meets: odd and even chains, even cycles, fused rings, stars
# (zero levels of multiplicity k - 1) and isolated atoms (roots at 0)
PAIRING_SYSTEMS = (
    [PiSystem.chain(n) for n in (6, 8, 10)] + [cycle(n) for n in (6, 8, 10)] + [NAPHTHALENE]
    + [PiSystem.chain(n) for n in range(3, 31)] + [cycle(n) for n in range(4, 13, 2)]
    + [acene(3)] + [star(k) for k in range(2, 7)]
    + [PiSystem.from_edges(7, [(0, 1), (1, 2), (4, 5)])]
)


def _monic(f):
    return [Fraction(c, f[-1]) for c in f]


def _product(factors):
    """The product of the p^m over the pairs (p, m) of polynomial coefficients."""
    product = Polynomial([1])
    for f, multiplicity in factors:
        for _ in range(multiplicity):
            product = product * Polynomial(f)
    return list(product.coeffs)


class TestPairingPath:
    """An even square-free factor has its positive roots solved exactly and
    mirrored; the levels are those of the full path."""

    def test_levels_match_the_full_path(self, monkeypatch):
        rng = random.Random(31)
        cases = (
            [secular_polynomial(s) for s in PAIRING_SYSTEMS]
            + [secular_polynomial(_bipartite(rng)) for _ in range(200)]
            + [SecularPolynomial(Polynomial(cs)) for cs in (
                [Fraction(1), 0, 0, 0, Fraction(1)],  # x^4 + 1: no real root
                [Fraction(1), 0, Fraction(1), 0, Fraction(1)],  # x^4 + x^2 + 1: none
                [Fraction(1, 4), 0, Fraction(-5, 4), 0, Fraction(1)],  # (x^2 - 1)(x^2 - 1/4)
            )]
        )
        on = [energy_levels(sp, -1.0, -0.5) for sp in cases]
        monkeypatch.setattr(huckel, "_even", lambda f: False)
        off = [energy_levels(sp, -1.0, -0.5) for sp in cases]
        assert on == off
        assert on[-3:] == [[], [], sorted(-1.0 + 0.5 * x for x in (-1, -0.5, 0.5, 1))]

    @pytest.mark.parametrize("system, calls", [
        (PiSystem.chain(10), 5), (NAPHTHALENE, 5), (cycle(5), 3), (cycle(8), 2),
    ], ids=["chain10", "naphthalene", "cycle5", "cycle8"])
    def test_rounds_only_the_positive_half(self, monkeypatch, system, calls):
        # cycle 5 is not alternant: its 3 distinct roots are all rounded;
        # cycle 8's repeated roots +-sqrt 2 come in the odd factor x^3 - 2x,
        # whose root 0 is split off; the seeds certify in each, so
        # Descartes' rule is never needed
        sp = secular_polynomial(system)
        rounded = []
        original = huckel._rounded
        monkeypatch.setattr(
            huckel, "_rounded", lambda *args: rounded.append(args) or original(*args)
        )
        monkeypatch.setattr(huckel, "_isolated", None)
        levels = energy_levels(sp, 0.0, -1.0)
        assert len(rounded) == calls and len(levels) == system.n_atoms

    @staticmethod
    def _check_factors(p, factors):
        """A square-free decomposition of the even or odd p, into factors
        that are even once a root at 0 is split off."""
        assert _monic(_product(factors)) == _monic(p)
        for f, _ in factors:
            assert len(huckel._gcd(f, huckel._derivative(f))) == 1
            assert huckel._even(f[1:] if f[0] == 0 else f)
        for (f, _), (g, _) in itertools.combinations(factors, 2):
            assert len(huckel._gcd(f, g)) == 1

    @pytest.mark.parametrize("system, expected", [
        (cycle(8), {((-4, 0, 1), 1), ((0, -2, 0, 1), 2)}),
        (star(3), {((0, 1), 2), ((-3, 0, 1), 1)}),
    ], ids=["cycle8", "star3"])
    def test_factors_of_an_alternant_are_even_or_odd(self, system, expected):
        p = list(secular_polynomial(system).coeffs.coeffs)
        factors = huckel._square_free_factors(p)
        self._check_factors(p, factors)
        assert {(tuple(_monic(f)), m) for f, m in factors} == expected

    def test_pairing_systems_factor_symmetrically(self):
        for system in PAIRING_SYSTEMS:
            p = list(secular_polynomial(system).coeffs.coeffs)
            self._check_factors(p, huckel._square_free_factors(p))

    def test_even_factors_of_random_polynomials(self):
        rng = random.Random(8)
        for _ in range(100):
            # x^(2k) times even factors, each to a power of 1 to 3
            factors = [([0, 0, 1], rng.randint(0, 3))]
            for _ in range(rng.randint(1, 3)):
                f = [rng.randint(-6, 6) if i % 2 == 0 else 0 for i in range(rng.choice((3, 5)))]
                f[-1] = f[-1] or 1
                factors.append((f, rng.randint(1, 3)))
            p = _product(factors)
            assert huckel._even(p)
            self._check_factors(p, huckel._square_free_factors(p))


def halved(system):
    """Elimination's determinant of a bipartite system, by its bipartite half."""
    small, near = huckel._bipartition(system)
    q = elimination_det(huckel._half(small, near)) if small else ONE
    return huckel._alternant_det(system.n_atoms, q)


def full(system):
    """The fallback's determinant before the halving: the full secular matrix."""
    return elimination_det(secular_matrix(system))


class TestAlternantFallback:
    """A bipartite system's fallback eliminates x^2 I - B^T B, n2 x n2 for the
    smaller colour class, and gives elimination's polynomial on xI - A."""

    @pytest.mark.parametrize("system", [
        *PAIRING_SYSTEMS,
        *(star(k) for k in range(1, 9)),
        *(PiSystem(n, frozenset()) for n in (1, 2, 5)),  # edgeless: x^n
        PiSystem.from_edges(9, [(0, 3), (3, 5), (5, 8), (2, 7)]),  # 1, 4, 6 isolated
        PiSystem.from_edges(8, [(1, 2), (2, 3), (3, 4), (4, 1), (6, 7)]),  # 0, 5 isolated
    ])
    def test_equals_elimination_on_the_full_matrix(self, system):
        p = halved(system)
        assert p == full(system)
        assert p.degree == system.n_atoms and p.coeffs[-1] == 1
        assert all(type(c) is int for c in p.coeffs)

    @given(data=st.data())
    def test_random_bipartite_graphs(self, data):
        # _bipartite's draws, atoms relabelled: the colour classes interleave
        system = _bipartite(data.draw(st.randoms(use_true_random=False)))
        label = data.draw(st.permutations(range(system.n_atoms)))
        system = PiSystem.from_edges(system.n_atoms, [(label[i], label[j]) for i, j in system.edges])
        assert halved(system) == full(system)
        assert secular_polynomial(system).coeffs == full(system)

    def test_smaller_colour_class(self):
        small, near = huckel._bipartition(star(4))
        assert small == [0] and near[0] == {1, 2, 3, 4}
        small, _ = huckel._bipartition(PiSystem.chain(7))
        assert sorted(small) == [1, 3, 5]

    @pytest.mark.parametrize("system", [cycle(5), cycle(7), cycle(9), c60()],
                             ids=["cycle5", "cycle7", "cycle9", "c60"])
    def test_odd_rings_take_the_full_matrix(self, monkeypatch, system):
        # not bipartite: no 2-colouring, and the halved path is never entered;
        # no rotation clears the full matrix, and it is not repaired
        def refuse(*args):
            raise AssertionError("a system that is not bipartite took the halved path")

        assert huckel._bipartition(system) is None
        monkeypatch.setattr(huckel, "_alternant_det", refuse)
        sp = secular_polynomial(system)
        assert sp.method == "bareiss"
        if system.n_atoms < 60:
            assert sp.coeffs == full(system)

    @pytest.mark.parametrize("system, size, method", [
        (PiSystem.chain(8), 4, "condensation"), (cycle(8), 4, "condensation"),
        (PiSystem.chain(9), 4, "condensation"), (PiSystem.chain(10), 5, "bareiss"),
        (cycle(10), 5, "bareiss"), (NAPHTHALENE, 5, "condensation"),
        (PiSystem.chain(30), 15, "bareiss"), (acene(3), 7, "bareiss"), (cycle(9), 9, "bareiss"),
    ], ids=["chain8", "cycle8", "chain9", "chain10", "cycle10", "naphthalene",
            "chain30", "anthracene", "cycle9"])
    def test_the_fallback_eliminates_the_smaller_half(self, monkeypatch, system, size, method):
        # the smaller half, or an odd system's full matrix, is condensed, and
        # eliminated only when no rotation clears it
        condensed, eliminated = [], []
        condensing, eliminating = huckel.condensation_det, huckel.elimination_det
        monkeypatch.setattr(
            huckel, "condensation_det",
            lambda a, **kw: condensed.append(a.n_rows) or condensing(a, **kw),
        )
        monkeypatch.setattr(
            huckel, "elimination_det", lambda a: eliminated.append(a.n_rows) or eliminating(a)
        )
        sp = secular_polynomial(system)
        assert sp.method == method
        assert condensed == [size]
        assert eliminated == ([size] if method == "bareiss" else [])
        assert sp.coeffs == full(system)


# Whether each system condenses: the half yI - B^T B of a bipartite one
# (empty for chain 1, whose p = x takes no matrix), or an odd one's full
# matrix, by rotations alone
CONDENSES = {
    **{f"chain{n}": (PiSystem.chain(n), n <= 9) for n in range(1, 11)},
    **{f"cycle{n}": (cycle(n), n in (3, 4, 6, 8)) for n in range(3, 11)},
    "naphthalene": (NAPHTHALENE, True),
    "acene1": (acene(1), True),
}


class TestRouteByTheGraph:
    """A bipartite system condenses its half, an odd one its full matrix,
    with rotations alone; either is eliminated when no rotation clears it."""

    @pytest.mark.parametrize("name", CONDENSES)
    def test_method(self, name):
        system, condenses = CONDENSES[name]
        assert secular_polynomial(system).method == ("condensation" if condenses else "bareiss")

    def test_no_additive_repair(self, monkeypatch):
        systems = (
            [PiSystem.chain(n) for n in range(1, 31)] + [cycle(n) for n in range(3, 31)]
            + [NAPHTHALENE] + [acene(k) for k in range(1, 9)]
        )
        repairs = []
        original = condense._additive_repair
        monkeypatch.setattr(
            condense, "_additive_repair", lambda *args: repairs.append(args) or original(*args)
        )
        for system in systems:
            secular_polynomial(system)
        assert repairs == []

    def test_coefficients_equal_elimination_on_the_full_matrix(self, spectra):
        system, sp, _ = spectra["c60"]
        assert sp.coeffs == full(system)
        for system in [*PAIRING_SYSTEMS, cycle(5), cycle(7), cycle(9)]:
            assert secular_polynomial(system).coeffs == full(system)


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
