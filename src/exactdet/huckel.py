"""Hückel pi-system energy levels from symbolic secular determinants.

Within the Hückel approximations, a conjugated pi framework with adjacency
graph G has the secular matrix with alpha - E on the diagonal and beta on
the edges of G (alpha: Coulomb integral, beta: resonance integral, both
physically negative).  Substituting x = (alpha - E) / beta reduces it to a
matrix over the univariate polynomial ring: x on the diagonal, 1 for
adjacent atoms, 0 otherwise.  Its determinant is a monic integer-coefficient
polynomial p with det(secular) = beta^n * p(x), and the allowed energies are
E = alpha - beta * x at the roots x of p.

The determinant is computed symbolically by condensation, falling back, when
mitigation cannot clear the interior, to ``oracle.elimination_det``,
``bareiss_det``'s loop on packed integer rows; of a bipartite system, only
on its half x^2 I - B^T B, for the smaller colour class (``_alternant_det``).

The roots are exact up to one final rounding, with no tolerance and no
iteration cap.  Yun's square-free decomposition over Q gives each distinct
root its multiplicity.  Float seeds by Newton-Maehly are only hints: exact
integer signs of p at dyadic points certify one root between neighbouring
separators, or else Descartes' rule of signs isolates the roots by
bisection.  Each root is then rounded to the nearest double by exact signs
at the points midway between neighbouring doubles.  The secular matrix is
symmetric, so p has only real roots, and each level is alpha - beta * x at
the correctly rounded root x, listed once per multiplicity.

The pairing path takes each square-free factor f that is even once a root
at 0 is split off, as every factor of an alternant's p is.  By the pairing
theorem that p is even or odd, so r and -r are roots of one multiplicity;
Yun's factor holding the roots of one multiplicity is then even or odd, and
an odd one holds the root 0.  The roots of f pair as r, -r, and f(0) != 0,
so at most d/2 are positive: seeds, separators from 0 and bisection from
(0, 2^e) seek only those, and d/2 alternating brackets hold one each.
Ties-to-even rounding is symmetric, so each rounded x gives -x too.  Every
other factor takes the full path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .condense import FallbackRequired, condensation_det
from .matrix import Matrix, ParseError
from .oracle import elimination_det
from .ring import POLYNOMIALS, Polynomial, _text_int, power_text, terms_text


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
        lines (1-based), each number read by the matrix token rule
        (``ring.plain_token``).  Errors name their line and give atoms
        1-based."""
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
                    n_atoms = _text_int(toks[1])
                except ValueError:
                    raise ParseError(f"bad atom count {toks[1]!r}", line=lineno)
            elif toks[0] == "edge" and len(toks) == 3:
                try:
                    i, j = _text_int(toks[1]), _text_int(toks[2])
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


@dataclass(frozen=True)
class SecularPolynomial:
    """Reduced secular determinant: monic, degree n_atoms, variable x.

    ``method`` records which determinant route produced it: "condensation",
    or "bareiss" for the fallback, ``bareiss_det``'s loop on packed rows,
    which eliminates only the bipartite half where there is one.
    """

    coeffs: Polynomial
    method: str = "condensation"


def secular_matrix(system: PiSystem) -> Matrix:
    """Reduced secular matrix: x on the diagonal, 1 on edges, 0 elsewhere."""
    x = Polynomial([0, 1])
    one = Polynomial([1])
    zero = Polynomial([])
    n = system.n_atoms
    rows = [[zero] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = x
    for i, j in system.edges:
        rows[i][j] = rows[j][i] = one
    return Matrix(rows, POLYNOMIALS)


def secular_polynomial(system: PiSystem) -> SecularPolynomial:
    """Symbolic determinant of the reduced secular matrix."""
    m = secular_matrix(system)
    try:
        det, _ = condensation_det(m)
        method = "condensation"
    except FallbackRequired:
        halves = _bipartition(system)
        det = elimination_det(m) if halves is None else _alternant_det(system.n_atoms, *halves)
        method = "bareiss"
    return SecularPolynomial(det, method)


def _bipartition(system):
    """The smaller colour class of a bipartite system, and each atom's neighbours."""
    near = [set() for _ in range(system.n_atoms)]
    for i, j in system.edges:
        near[i].add(j)
        near[j].add(i)
    colour = [None] * system.n_atoms
    for start in range(system.n_atoms):
        if colour[start] is None:
            colour[start], todo = 0, [start]
            for i in todo:  # breadth first: todo grows as the search goes
                for j in near[i]:
                    if colour[j] is None:
                        colour[j] = 1 - colour[i]
                        todo.append(j)
    if any(colour[i] == colour[j] for i, j in system.edges):
        return None  # an odd cycle
    return min(([a for a, c in enumerate(colour) if c == k] for k in (0, 1)), key=len), near


def _alternant_det(n, small, near):
    """det(xI - A) = x^(n - 2 n2) q(x^2), B the bonds to the n2 atoms ``small``
    in A = [[0, B], [B^T, 0]]: q(y) = det(yI - B^T B), by the Schur complement
    of xI, eliminated n2 x n2; (B^T B)[a][b] counts the neighbours a, b share."""
    y = [[Polynomial._result([-len(near[a] & near[b]), int(a == b)]) for b in small] for a in small]
    q = elimination_det(Matrix(y, POLYNOMIALS)).coeffs if small else (1,)
    return Polynomial._result([0] * (n - 2 * len(small)) + [c for k in q for c in (0, k)][1:])


def energy_levels(sp: SecularPolynomial, alpha: float, beta: float) -> list:
    """Sorted energy levels E = alpha - beta * x, one per root x of ``sp``
    counted with its multiplicity, each x the double nearest the exact root.

    A secular polynomial has only real roots; of any other polynomial, only
    the real roots give levels.  No step iterates to a tolerance: the roots
    are isolated and rounded by exact integer signs (see ``_real_roots``).
    """
    if beta == 0:
        raise ValueError("beta must be nonzero")
    cs = sp.coeffs.coeffs
    scale = math.lcm(*(c.denominator for c in cs))
    levels = []
    for f, multiplicity in _square_free_factors([int(c * scale) for c in cs]):
        for x in _real_roots(f):
            levels += [alpha - beta * x] * multiplicity
    return sorted(levels)


# The polynomials below are lists of ints, lowest degree first, with no
# trailing zeros.  A point is a dyadic pair (num, k), standing for num / 2^k.


def _square_free_factors(p):
    """Yun's decomposition of p over Q: [(f, m), ...] with p a constant times
    the product of the f^m, each f primitive, square-free and not constant.

    The roots of f are those of p of multiplicity m.  Of an even or odd p,
    r and -r have one multiplicity, so each f is even or odd too.
    """
    if len(p) < 2:
        return []
    dp = _derivative(p)
    g = _gcd(p, dp)
    b, c = _quotient(p, g), _quotient(dp, g)
    factors = []
    multiplicity = 1
    while len(b) > 1:
        d = _subtract(c, _derivative(b))
        g = _gcd(b, d)
        if len(g) > 1:
            factors.append((g, multiplicity))
        b, c = _quotient(b, g), _quotient(d, g)
        multiplicity += 1
    return factors


def _even(f):
    """Whether f(x) = q(x^2): every odd coefficient is 0."""
    return not any(f[1::2])


def _derivative(p):
    return [i * c for i, c in enumerate(p)][1:]


def _trim(p):
    while p and not p[-1]:
        p.pop()
    return p


def _subtract(a, b):
    return _trim([x - y for x, y in zip(a, b)] + a[len(b):] + [-y for y in b[len(a):]])


def _primitive(p):
    """p divided by its content, with a positive leading coefficient."""
    if not p:
        return p
    content = math.gcd(*p) if p[-1] > 0 else -math.gcd(*p)
    return [c // content for c in p]


def _gcd(a, b):
    """The primitive gcd in Z[x], by pseudo-remainders made primitive."""
    while b:
        r = list(a)
        while len(r) >= len(b):
            q, shift = r[-1], len(r) - len(b)
            r = [c * b[-1] for c in r]
            for i, c in enumerate(b, shift):
                r[i] -= q * c
            _trim(r)
        a, b = b, _primitive(r)
    return _primitive(a)


def _quotient(a, b):
    """a / b, for a primitive b dividing a; by Gauss's lemma it lies in Z[x]."""
    r = list(a)
    q = [0] * (len(a) - len(b) + 1)
    for k in reversed(range(len(q))):
        c = q[k] = r[k + len(b) - 1] // b[-1]
        for i, bi in enumerate(b, k):
            r[i] -= c * bi
    return q


def _real_roots(f):
    """The real roots of the square-free f, each rounded to the nearest double.

    1. Float seeds (``_seeds``) are hints only.  Exact signs of f at
       separators between them certify one root per bracket (``_certified``).
    2. If they do not, Descartes' rule of signs isolates the roots
       (``_isolated``).
    3. Exact signs of f between neighbouring doubles round each root
       (``_rounded``).

    An even f takes the pairing path (module docstring): positive roots, mirrored.
    """
    roots = []
    if not f[0]:  # a simple root at 0, the only one f can have there
        roots.append(0.0)
        f = f[1:]
    if len(f) < 2:
        return roots
    e = _bound_exponent(f)
    seeds = _seeds(f, e)
    brackets = _certified(f, e, seeds)
    if brackets is None:
        df = _derivative(f)
        brackets = []
        for lo, hi in _isolated(f, e):
            lo_x, hi_x = _to_float(lo), _to_float(hi)
            hint = next((s for s in seeds if lo_x < s < hi_x), None)
            # just above lo, f has the sign of f(lo), or of f'(lo) at a root
            brackets.append((lo, hi, _sign(f, lo) or _sign(df, lo), hint))
    xs = [_rounded(f, *bracket) for bracket in brackets]
    return roots + xs + ([-x for x in xs] if _even(f) else [])


def _bound_exponent(f):
    """The least e >= 0 with |c_d| 2^(ed) > sum |c_i| 2^(ei) over i < d: then
    f has no root x with |x| >= 2^e."""
    d = len(f) - 1
    e = 0
    while abs(f[-1]) << (e * d) <= sum(abs(c) << (e * i) for i, c in enumerate(f[:-1])):
        e += 1
    return e


def _seeds(f, e):
    """Float hints for the roots of f, ascending, by Newton-Maehly: Newton's
    method from 2^e downwards, each root deflated from the search for the
    next; of an even f, only the d/2 largest.  Empty when a float overflows."""
    try:
        cs = [float(c) for c in reversed(f)]
        bottom = -float(1 << e)
        x = -bottom
        found = []
        for _ in range((len(f) - 1) >> _even(f)):
            while True:
                p = dp = 0.0
                for c in cs:
                    dp = dp * x + p
                    p = p * x + c
                nx = x - p / (dp - p * sum(1.0 / (x - r) for r in found))
                if not bottom < nx < x:  # the descent has stopped
                    break
                x = nx
            found.append(x)
            x -= (abs(x) + 1.0) * 2.0**-20  # start the next one just below
    except (OverflowError, ZeroDivisionError):
        return []
    return found[::-1]


def _certified(f, e, seeds):
    """Brackets (lo, hi, sign of f at lo, seed), one per seed, when exact signs
    prove that each holds one root of f; else None.

    The separators are -2^e, the doubles midway between neighbouring seeds,
    and 2^e.  Where the sign of f alternates over them, none zero, each of
    the d brackets holds an odd number of f's at most d real roots: one.  An
    even f has d/2 brackets from 0, and at most d/2 positive roots.
    """
    even = _even(f)
    if len(seeds) != (len(f) - 1) >> even:
        return None
    first = 0 if even else -(1 << e)
    cuts = [first, *(a / 2 + b / 2 for a, b in zip(seeds, seeds[1:])), 1 << e]
    if not all(a < b for a, b in zip(cuts, cuts[1:])):  # also false at a nan
        return None
    points = [_dyadic(c) for c in cuts]
    signs = [_sign(f, p) for p in points]
    if any(s * t != -1 for s, t in zip(signs, signs[1:])):
        return None
    return list(zip(points, points[1:], signs, seeds))


def _isolated(f, e):
    """Brackets (lo, hi) holding one root of f each, where f(0) != 0, by
    Descartes' rule of signs and bisection; lo == hi at a bisection point
    that is a root.

    A node (g, c, k) stands for the interval I = (c, c + 1) * 2^(e - k), and
    g(t) is a positive multiple of f((c + t) * 2^(e - k)), so the roots of f
    in I are those of g in (0, 1).  The sign variations of
    (1 + t)^d g(1 / (1 + t)) bound their number and share its parity: 0 rules
    I out, 1 isolates a root, more bisect I.  For square-free f this ends.
    Of an even f, only the positive roots are sought, from (0, 2^e).
    """
    d = len(f) - 1
    g = [c << (e * i) for i, c in enumerate(f)]
    todo = [(g, 0, 0)] if _even(f) else [(g, 0, 0), (_taylor_shift(g, -1), -1, 0)]
    out = []
    while todo:
        g, c, k = todo.pop()
        v = _variations(_taylor_shift(g[::-1], 1))
        if v == 1:
            out.append(((c << e, k), ((c + 1) << e, k)))
        elif v > 1:
            left = [gi << (d - i) for i, gi in enumerate(g)]
            right = _taylor_shift(left, 1)
            if not right[0]:
                middle = ((2 * c + 1) << e, k + 1)
                out.append((middle, middle))
            todo += [(left, 2 * c, k + 1), (right, 2 * c + 1, k + 1)]
    return out


def _taylor_shift(p, a):
    """The coefficients of p(t + a)."""
    p = list(p)
    for i in range(len(p) - 1):
        for j in range(len(p) - 2, i - 1, -1):
            p[j] += a * p[j + 1]
    return p


def _variations(cs):
    """The sign changes along cs, zeros skipped, counted up to 2."""
    count = last = 0
    for c in cs:
        if c:
            if last and (c > 0) != (last > 0):
                count += 1
                if count == 2:
                    break
            last = c
    return count


def _rounded(f, lo, hi, sign_lo, seed):
    """The double nearest the one root r of f in (lo, hi), ties to even.

    f has the sign ``sign_lo`` on (lo, r) and the other one on (r, hi).  The
    search runs over doubles x for the one whose rounding cell holds r, by
    the side of r on which the cell's upper boundary lies (the point midway
    from x to the next double): a gallop from ``seed``, a hint polished by one
    exact Newton step, then a bisection.  When r is such a boundary, it is
    dyadic and rounds to the even double.
    """
    if lo == hi:
        return _to_float(lo)
    lo_x, hi_x = _to_float(lo), _to_float(hi)
    if seed is None or not lo_x <= seed <= hi_x:
        seed = lo_x / 2 + hi_x / 2
    seed = _newton(f, seed, lo_x, hi_x)

    def side(x):
        """The sign of r - u, with u midway from x to the next double up."""
        u = _middle(_dyadic(x), _dyadic(math.nextafter(x, math.inf)))
        if not _less(lo, u):
            return 1, u
        if not _less(u, hi):
            return -1, u
        s = _sign(f, u)
        return (s and (1 if s == sign_lo else -1)), u

    # a gallop to a < b with r above a's cell and below b's upper boundary
    s, u = side(seed)
    a = b = seed
    step = math.ulp(seed)
    if s > 0:
        while s > 0:
            a, b = b, max(b + step, math.nextafter(b, math.inf))
            step *= 2
            s, u = side(b)
    elif s < 0:
        while s < 0:
            a, b = min(a - step, math.nextafter(a, -math.inf)), a
            step *= 2
            s, u = side(a)
    while s and math.nextafter(a, b) != b:
        m = a / 2 + b / 2
        if not a < m < b:
            m = math.nextafter(a, b)
        s, u = side(m)
        if s > 0:
            a = m
        else:
            b = m
    return _to_float(u) if s == 0 else b


def _newton(f, x, lo_x, hi_x):
    """One Newton step from the double x, exact up to its final rounding;
    x itself when the step leaves [lo_x, hi_x]."""
    num, k = _dyadic(x)
    p = dp = 0  # 2^(kd) f(x) and 2^(k(d - 1)) f'(x)
    for i, c in enumerate(reversed(f)):
        dp = dp * num + p
        p = p * num + (c << (k * i))
    try:
        y = x - p / (dp << k)
    except (OverflowError, ZeroDivisionError):
        return x
    return y if lo_x <= y <= hi_x else x


def _sign(f, point):
    """The sign of f at the point, by that of the integer 2^(kd) f(num / 2^k)."""
    num, k = point
    acc = 0
    for i, c in enumerate(reversed(f)):
        acc = acc * num + (c << (k * i))
    return (acc > 0) - (acc < 0)


def _dyadic(x):
    """The exact dyadic pair of a finite double or an int."""
    num, den = x.as_integer_ratio()
    return num, den.bit_length() - 1


def _middle(p, q):
    """The point midway between the points p and q."""
    k = max(p[1], q[1])
    return (p[0] << (k - p[1])) + (q[0] << (k - q[1])), k + 1


def _less(p, q):
    """Whether the point p lies below the point q."""
    return p[0] << q[1] < q[0] << p[1]


def _to_float(p):
    """The double nearest the point, ties to even (int division rounds so)."""
    return p[0] / (1 << p[1])


def symbolic_form(sp: SecularPolynomial) -> str:
    """Back-substituted display text in terms of (alpha-E) and beta.

    Each term c_k * x^k becomes c_k * (alpha-E)^k * beta^(n-k), rendered
    highest degree first with unit coefficients omitted.
    """
    n = sp.coeffs.degree
    return terms_text(
        sp.coeffs.coeffs, lambda k: power_text("(alpha-E)", k) + power_text("beta", n - k)
    )
