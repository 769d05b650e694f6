"""Hückel pi-system energy levels from symbolic secular determinants.

Within the Hückel approximations, a conjugated pi framework with adjacency
graph G has the secular matrix with alpha - E on the diagonal and beta on
the edges of G (alpha: Coulomb integral, beta: resonance integral, both
physically negative).  Substituting x = (alpha - E) / beta reduces it to a
matrix over the univariate polynomial ring: x on the diagonal, 1 for
adjacent atoms, 0 otherwise.  Its determinant is a monic integer-coefficient
polynomial p with det(secular) = beta^n * p(x), and the allowed energies are
E = alpha - beta * x at the roots x of p.

The determinant is computed symbolically by condensation, falling back to
fraction-free elimination (``condense.elimination_det``, on the same packed
integer rows the condensation kernel runs on) when mitigation cannot clear
the interior; the roots come from Durand-Kerner simultaneous iteration.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .condense import FallbackRequired, condensation_det, elimination_det
from .matrix import Matrix, ParseError
from .ring import Polynomial, power_text, terms_text


class NoConvergence(RuntimeError):
    """Root iteration failed to settle within the sweep cap."""


@dataclass(frozen=True)
class PiSystem:
    """Atoms and adjacency of a pi framework; edges are 0-based (i, j), i < j."""

    n_atoms: int
    edges: frozenset

    def __post_init__(self):
        if self.n_atoms < 1:
            raise ValueError("a pi system needs at least one atom")
        for i, j in self.edges:
            if not (0 <= i < j < self.n_atoms):
                raise ValueError(f"bad edge ({i}, {j}) for {self.n_atoms} atoms")

    @classmethod
    def from_edges(cls, n_atoms: int, pairs) -> "PiSystem":
        edges = set()
        for i, j in pairs:
            if i == j:
                raise ValueError(f"self-loop on atom {i}")
            edges.add((min(i, j), max(i, j)))
        return cls(n_atoms, frozenset(edges))

    @classmethod
    def chain(cls, n_atoms: int) -> "PiSystem":
        """The linear chain (path) on n atoms."""
        return cls.from_edges(n_atoms, [(k, k + 1) for k in range(n_atoms - 1)])

    @classmethod
    def from_text(cls, text: str) -> "PiSystem":
        """Parse the edge-file format: one ``atoms N`` line, then ``edge i j``
        lines (1-based).  Errors name their line and give atoms 1-based."""
        n_atoms = None
        pairs = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            body = raw.split("#", 1)[0].strip()
            if not body:
                continue
            toks = body.split()
            if toks[0] == "atoms" and len(toks) == 2:
                if n_atoms is not None:
                    raise ParseError("repeated atoms line", line=lineno)
                try:
                    n_atoms = int(toks[1])
                except ValueError:
                    raise ParseError(f"bad atom count {toks[1]!r}", line=lineno)
            elif toks[0] == "edge" and len(toks) == 3:
                try:
                    i, j = int(toks[1]), int(toks[2])
                except ValueError:
                    raise ParseError(f"bad edge indices {toks[1:]!r}", line=lineno)
                if n_atoms is None:
                    raise ParseError("edge before atoms line", line=lineno)
                if not (1 <= i <= n_atoms and 1 <= j <= n_atoms):
                    raise ParseError(
                        f"edge {i} {j} outside 1..{n_atoms}", line=lineno
                    )
                if i == j:
                    raise ParseError(f"self-loop on atom {i}", line=lineno)
                pairs.append((i - 1, j - 1))
            else:
                raise ParseError(f"unrecognized line {body!r}", line=lineno)
        if n_atoms is None:
            raise ParseError("missing atoms line")
        try:
            return cls.from_edges(n_atoms, pairs)
        except ValueError as e:
            raise ParseError(str(e)) from e

    def adjacent(self, i: int, j: int) -> bool:
        return (min(i, j), max(i, j)) in self.edges


@dataclass(frozen=True)
class SecularPolynomial:
    """Reduced secular determinant: monic, degree n_atoms, variable x.

    ``method`` records which determinant route produced it: "condensation",
    or "bareiss" for the fallback, fraction-free elimination by
    ``condense.elimination_det``, which keeps the name ``bareiss_det`` gave
    it so that the ``method:`` line stays the same.
    """

    coeffs: Polynomial
    method: str = "condensation"

    @property
    def degree(self) -> int:
        return self.coeffs.degree


def secular_matrix(system: PiSystem) -> Matrix:
    """Reduced secular matrix: x on the diagonal, 1 on edges, 0 elsewhere."""
    x = Polynomial([0, 1])
    one = Polynomial([1])
    zero = Polynomial([])
    n = system.n_atoms
    return Matrix(
        [
            [
                x if i == j else (one if system.adjacent(i, j) else zero)
                for j in range(n)
            ]
            for i in range(n)
        ]
    )


def secular_polynomial(system: PiSystem) -> SecularPolynomial:
    """Symbolic determinant of the reduced secular matrix."""
    m = secular_matrix(system)
    try:
        det, _ = condensation_det(m)
        method = "condensation"
    except FallbackRequired:
        det = elimination_det(m)
        method = "bareiss"
    return SecularPolynomial(det, method)


_SEED_ANGLE = math.sqrt(2.0)  # irrational start rotation breaks root symmetry


def durand_kerner(coeffs, tol: float = 1e-10, max_iterations: int = 1000):
    """All complex roots of a polynomial by simultaneous iteration.

    ``coeffs`` are lowest degree first; the polynomial is normalized to monic
    internally.  Starting points sit on a circle of radius 1 + max|coeff|.
    Updates are synchronous per sweep; convergence means the largest root
    movement fell below tol/10.
    """
    cs = [complex(float(c)) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    if len(cs) < 2:
        return []
    lead = cs[-1]
    cs = [c / lead for c in cs]
    d = len(cs) - 1
    radius = 1.0 + max(abs(c) for c in cs[:-1])
    roots = [
        radius * cmath.exp(1j * (2.0 * math.pi * k / d + _SEED_ANGLE))
        for k in range(d)
    ]
    for _ in range(max_iterations):
        moved = 0.0
        new = []
        for i, z in enumerate(roots):
            denom = complex(1.0)
            for j, w in enumerate(roots):
                if j != i:
                    denom *= z - w
            if denom == 0:
                new.append(z)
                continue
            step = _horner(cs, z) / denom
            new.append(z - step)
            moved = max(moved, abs(step))
        roots = new
        if moved < tol / 10.0:
            return roots
    raise NoConvergence(f"roots did not settle in {max_iterations} sweeps")


def _horner(cs, z):
    acc = complex(0.0)
    for c in reversed(cs):
        acc = acc * z + c
    return acc


def energy_levels(sp: SecularPolynomial, alpha: float, beta: float, tol: float = 1e-10):
    """Sorted real energy levels E = alpha - beta * x over the roots x of ``sp``."""
    if beta == 0:
        raise ValueError("beta must be nonzero")
    if tol <= 0:
        raise ValueError("tol must be positive")
    cs = [float(c) for c in sp.coeffs.coeffs]
    roots = durand_kerner(cs, tol=tol)
    for r in roots:
        if abs(_horner([complex(c) for c in cs], r)) > tol:
            raise NoConvergence("a root residual stayed above tolerance")
    xs = [r.real for r in roots if abs(r.imag) < tol]
    return sorted(alpha - beta * x for x in xs)


def symbolic_form(sp: SecularPolynomial) -> str:
    """Back-substituted display text in terms of (alpha-E) and beta.

    Each term c_k * x^k becomes c_k * (alpha-E)^k * beta^(n-k), rendered
    highest degree first with unit coefficients omitted.
    """
    n = sp.degree
    return terms_text(
        sp.coeffs.coeffs, lambda k: power_text("(alpha-E)", k) + power_text("beta", n - k)
    )
