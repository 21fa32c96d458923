"""The Witt-basis wedge model of so(n, C), with exact structure constants.

A skew-symmetric element xi of so(n) is determined up to conjugacy by its
eigenvalue magnitudes and their multiplicities (a :class:`Spectrum`).  To
compute with the complexified algebra we model so(n, C) on the second
exterior power of C^n: pick a basis of xi-eigenvectors u_0, ..., u_{n-1}
and identify the wedge u_a ^ u_b with the skew map

    (u_a ^ u_b)(c) = (u_a, c) u_b - (u_b, c) u_a,

where ( , ) is the complex bilinear extension of the real inner product.
The basis is a Witt (hyperbolic) basis: it lists the +lambda eigenvectors
by descending lambda, then the 0-eigenspace, then the -lambda eigenvectors
mirrored, and (u_a, u_b) = 1 exactly when b = n - 1 - a.  The +lambda and
-lambda eigenspaces are paired by the form anyway; over C the 0-eigenspace
has a hyperbolic basis too (e_j +/- i e_k pairs, plus one self-paired
vector when its dimension is odd).  So the Gram matrix is the anti-diagonal
permutation matrix for every spectrum, and every structure constant of

    [a^b, c^d] = (a,c) b^d - (a,d) b^c - (b,c) a^d + (b,d) a^c

is a small integer that depends on n alone.  The table of brackets and the
form is therefore built and fully validated once per n; a spectrum only
places its eigenvalue labels on the basis, and the grading derivation acts
on u_a ^ u_b with grade lambda_a + lambda_b.

Those grades need no per-bracket check.  Every nonzero coordinate of
[u_a ^ u_b, u_c ^ u_d] sits on the wedge of the two indices left after one
partner pair {x, n - 1 - x} is removed from {a, b, c, d}; :func:`_so_table`
checks this shape once per n.  With mirrored labels, lambda_{n-1-a} =
-lambda_a, a partner pair contributes 0, so that target has grade exactly
grade(a, b) + grade(c, d); and (a, b) -> (n - 1 - b, n - 1 - a) negates
grades, so the grade multiset is symmetric.  Those are the two grading
checks of :func:`liegraded.build_table`, so :func:`grading` only checks the
n labels for the mirror and groups the wedges by their label sums in integer
arithmetic; the deciders pair that grading with the one table of n, and no
table is built per spectrum.  No complex (or floating-point) arithmetic ever
appears.

The bilinear form installed on the algebra is the trace form tr(XY) of the
matrix realization; for so(n) the Killing form is (n-2) times it, so polars
agree.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from .exactlin import RatMatrix, as_rational, charpoly, rref
from .liegraded import GradingMap, GradingViolation, LieTable, LieTableError, build_table


class InvalidSpectrum(ValueError):
    """Eigenvalue data that no element of so(n), n >= 3, can have."""


class BracketShapeViolation(LieTableError):
    """A bracket of the so(n, C) table hits a wedge other than the two
    indices left after removing one partner pair from its four."""

    def __init__(self, p: int, q: int, k: int):
        super().__init__(
            f"[e_{p}, e_{q}] hits basis element {k}, which is not the wedge left "
            "after removing a partner pair"
        )
        self.indices = (p, q, k)


class NotSkew(ValueError):
    """Matrix input is not square skew-symmetric."""


class TooSmall(ValueError):
    """n < 3: so(1) is zero and so(2) is abelian, both out of scope."""


class Spectrum(namedtuple("Spectrum", "n entries")):
    """Conjugacy-class data of xi in so(n): magnitudes with multiplicities.

    `entries` lists (lambda, mult) with lambda >= 0 strictly increasing.
    The eigenvalues of xi on C^n are +/- i*lambda, so the multiplicities
    satisfy mult(0) + 2 * sum of the positive multiplicities = n.
    Immutable, equal and hashed by (n, entries).
    """

    __slots__ = ()

    def __new__(cls, n: int, entries: tuple[tuple[Fraction, int], ...]):
        for x in (n, *(mult for _, mult in entries)):
            if isinstance(x, bool) or not isinstance(x, int):
                raise InvalidSpectrum(f"n and multiplicities must be integers, got {x!r}")
        for lam, _ in entries:
            if isinstance(lam, (bool, float)):
                raise InvalidSpectrum(f"magnitudes must be rationals, got {lam!r}")
        lams = [as_rational(lam) for lam, _ in entries]
        if n < 3:
            raise InvalidSpectrum(f"n must be at least 3, got {n}")
        den = math.lcm(*(lam.denominator for lam in lams))  # sorted and compared as D * lambda
        scaled = [lam.numerator * (den // lam.denominator) for lam in lams]
        ents = sorted(zip(scaled, (mult for _, mult in entries), lams))
        if ents and ents[0][0] < 0:
            raise InvalidSpectrum("magnitudes must be non-negative")
        if any(a[0] == b[0] for a, b in zip(ents, ents[1:])):
            raise InvalidSpectrum("magnitudes must be distinct")
        if any(mult < 1 for _, mult, _ in ents):
            raise InvalidSpectrum("multiplicities must be at least 1")
        total = sum(mult if x == 0 else 2 * mult for x, mult, _ in ents)
        if total != n:
            raise InvalidSpectrum(f"multiplicities account for {total} of {n} dimensions")
        return super().__new__(cls, n, tuple((lam, mult) for _, mult, lam in ents))

    @classmethod
    def _from_doubled(cls, n: int, doubled, halves) -> Spectrum:
        """Spectrum from ((2 lambda, mult), ...) and halves[d] = d/2: `__new__`'s checks on ints."""
        if n < 3:
            raise InvalidSpectrum(f"n must be at least 3, got {n}")
        prev, total = -1, 0
        for d, mult in doubled:
            if d <= prev:
                raise InvalidSpectrum("doubled magnitudes must be non-negative and ascend strictly")
            if mult < 1:
                raise InvalidSpectrum("multiplicities must be at least 1")
            prev, total = d, total + (2 * mult if d else mult)
        if total != n:
            raise InvalidSpectrum(f"multiplicities account for {total} of {n} dimensions")
        return tuple.__new__(cls, (n, tuple([(halves[d], mult) for d, mult in doubled])))

    @classmethod
    def _make(cls, iterable) -> Spectrum:
        return cls(*iterable)  # `_replace` builds through here, so it validates too

    @property
    def max_magnitude(self) -> Fraction:
        return self.entries[-1][0]

    def __str__(self) -> str:
        return "{" + ", ".join(f"{lam}:{m}" for lam, m in self.entries) + "}"

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "entries": [{"lambda": str(lam), "mult": m} for lam, m in self.entries],
        }

    @classmethod
    def from_json(cls, obj) -> Spectrum:
        from .exactlin import parse_rational

        if not isinstance(obj, dict):
            raise InvalidSpectrum("spectrum must be a JSON object")
        if "n" not in obj or "entries" not in obj:
            raise InvalidSpectrum('spectrum object needs keys "n" and "entries"')
        n = obj["n"]
        if isinstance(n, bool) or not isinstance(n, int):
            raise InvalidSpectrum('"n" must be an integer')
        raw = obj["entries"]
        if not isinstance(raw, list):
            raise InvalidSpectrum('"entries" must be a list')
        entries = []
        for item in raw:
            if not isinstance(item, dict) or "lambda" not in item or "mult" not in item:
                raise InvalidSpectrum('each entry needs keys "lambda" and "mult"')
            lam = item["lambda"]
            if isinstance(lam, str):
                try:
                    lam = parse_rational(lam)
                except ValueError as exc:
                    raise InvalidSpectrum(str(exc)) from None
            elif isinstance(lam, bool) or not isinstance(lam, int):
                raise InvalidSpectrum('"lambda" must be an integer or a "p/q" string')
            mult = item["mult"]
            if isinstance(mult, bool) or not isinstance(mult, int):
                raise InvalidSpectrum('"mult" must be an integer')
            entries.append((as_rational(lam), mult))
        return cls(n, tuple(entries))


def _pair_index(n: int, a: int, b: int) -> int:
    """Position of the wedge (a, b), a < b, in lexicographic order."""
    return a * (2 * n - a - 1) // 2 + (b - a - 1)


@lru_cache(maxsize=None)
def _witt_frame(n: int) -> tuple[tuple[int, int], ...]:
    """The wedge pairs (a, b), a < b, in lexicographic order."""
    return tuple((a, b) for a in range(n) for b in range(a + 1, n))


def _scaled_labels(s: Spectrum) -> tuple[list[int], int]:
    """(D * lambda_a for a = 0, ..., n - 1, D the lcm of the magnitudes' denominators).

    The labels follow the Witt basis: the positive magnitudes by descending
    lambda, each repeated by its multiplicity, then the zeros, then the
    negatives mirrored, so that lambda_{n-1-a} = -lambda_a; (u_a, u_b) = 1
    exactly when b = n - 1 - a.
    """
    den = math.lcm(*(lam.denominator for lam, _ in s.entries))
    scaled = [(lam.numerator * (den // lam.denominator), m) for lam, m in reversed(s.entries)]
    positive = [k for k, m in scaled if k for _ in range(m)]
    return positive + [0] * (s.n - 2 * len(positive)) + [-k for k in reversed(positive)], den


@lru_cache(maxsize=None)
def _so_table(n: int) -> LieTable:
    """so(n, C) in the Witt wedge basis, built and validated once per n.

    The bracket follows the four-term wedge identity with partner(a) =
    n - 1 - a.  The form is tr(XY) of the matrix realization, in closed
    form.  The map x -> (u, x) v has trace (u, v), so composing
    (a ^ b)(x) = (a, x) b - (b, x) a with c ^ d gives

        tr((a ^ b)(c ^ d)) = 2 ((a, d)(b, c) - (a, c)(b, d)).

    For wedges u_a ^ u_b and u_c ^ u_d, a < b and c < d, (a, d)(b, c) is 1
    when (c, d) = (n - 1 - b, n - 1 - a) and 0 otherwise, and (a, c)(b, d)
    is 0, as it would need c = n - 1 - a > n - 1 - b = d.  So u_a ^ u_b
    pairs with u_(n-1-b) ^ u_(n-1-a) alone, with value 2.  The table
    carries the principal grading lambda_a = (n - 1)/2 - a, the grading of
    the spectrum with magnitudes 0, 1, ... (n odd) or 1/2, 3/2, ... (n even),
    each of multiplicity one, so validation checks the bracket against a
    nontrivial grading as well.  After validation, the bracket shape that
    lets :func:`grading` skip the grading checks is checked too.
    """
    pairs = _witt_frame(n)
    dim = len(pairs)

    def put(acc, x, y, coeff):
        if x == y:
            return
        if x < y:
            k = _pair_index(n, x, y)
            acc[k] = acc.get(k, 0) + coeff
        else:
            k = _pair_index(n, y, x)
            acc[k] = acc.get(k, 0) - coeff

    rows = [[()] * dim for _ in range(dim)]
    for p in range(dim):
        a, b = pairs[p]
        pa, pb = n - 1 - a, n - 1 - b
        for q in range(p + 1, dim):
            c, d = pairs[q]
            acc: dict[int, int] = {}
            if pa == c:
                put(acc, b, d, 1)
            if pa == d:
                put(acc, b, c, -1)
            if pb == c:
                put(acc, a, d, -1)
            if pb == d:
                put(acc, a, c, 1)
            if acc:
                rows[p][q] = tuple(acc.items())
                rows[q][p] = tuple((k, -v) for k, v in acc.items())

    grades = tuple(n - 1 - a - b for a, b in pairs)
    form = [((_pair_index(n, n - 1 - b, n - 1 - a), 2),) for a, b in pairs]

    table = build_table(dim, rows, grades, form)
    _check_witt_shape(n, table._sparse)
    return table


def _check_witt_shape(n: int, sparse) -> None:
    """Every nonzero coordinate k = (e, f) of [e_p, e_q], p = (a, b),
    q = (c, d), must leave a partner pair {x, n - 1 - x} when {e, f} is taken
    out of {a, b, c, d}.  Raises BracketShapeViolation naming the first
    failing (p, q, k) in lexicographic order.  O(dim^2 + nonzero entries)."""
    pairs = _witt_frame(n)
    for p, row in enumerate(sparse):
        for q, hits in enumerate(row):
            for k, _ in hits:
                rest = [*pairs[p], *pairs[q]]
                for x in pairs[k]:
                    if x not in rest:
                        raise BracketShapeViolation(p, q, k)
                    rest.remove(x)
                if rest[0] + rest[1] != n - 1:
                    raise BracketShapeViolation(p, q, k)


def grading(s: Spectrum) -> GradingMap:
    """The grading of so(n, C) by the spectrum, on the basis of :func:`_so_table`.

    Basis element p = (a, b) is the wedge u_a ^ u_b of the Witt basis, with
    grade lambda_a + lambda_b; blocks come in ascending grade order, each
    with its indices ascending.  Only the n labels are checked, for the
    mirror lambda_{n-1-a} = -lambda_a: with the bracket shape
    :func:`_so_table` checked, that makes every bracket of the table respect
    the grades and the grade multiset symmetric (see the module docstring).
    Raises GradingViolation naming an unmirrored label.  Integral grades are
    ints, equal, hash-equal and printed alike to Fractions.
    """
    sums, den = _scaled_pair_sums(s)
    groups: dict[int, list[int]] = {}
    for p, k in enumerate(sums):
        groups.setdefault(k, []).append(p)
    return GradingMap(
        len(sums),
        tuple(
            (Fraction(k, den) if k % den else k // den, tuple(groups[k]))
            for k in sorted(groups)
        ),
    )


def _scaled_pair_sums(s: Spectrum) -> tuple[list[int], int]:
    """(D * (lambda_a + lambda_b) for each wedge (a, b), D) from :func:`_scaled_labels`.
    Raises GradingViolation naming (a, n - 1 - a) if the labels are not mirrored."""
    scaled, den = _scaled_labels(s)
    n = len(scaled)
    for a in range((n + 1) // 2):
        if scaled[n - 1 - a] != -scaled[a]:
            raise GradingViolation(
                f"eigenvalue labels are not mirrored: lambda_{a} = {Fraction(scaled[a], den)} "
                f"but lambda_{n - 1 - a} = {Fraction(scaled[n - 1 - a], den)}",
                (a, n - 1 - a),
            )
    return [scaled[a] + scaled[b] for a, b in _witt_frame(n)], den


def spectrum_from_matrix(m: RatMatrix) -> Spectrum | None:
    """Exact eigenvalue extraction from a rational skew-symmetric matrix.

    The eigenvalues of m are +/- i*lambda, so those of -m^2 are the squares
    lambda^2 >= 0.  With L the lcm of the denominators of m, A = L m is an
    integer matrix and so is its square; dividing -4 A^2 by
    g = gcd(content of A^2, L^2) gives the integer matrix N = -4 D m^2,
    D = L^2 / g, the least D that clears the denominators of m^2.  N has
    eigenvalues 4 D lambda^2, so a half-integral magnitude lambda = j/2 is a
    root y = D j^2 of the integer characteristic polynomial of N (Berkowitz,
    division-free).  N is symmetric, so every root is real, and the sign
    variations of the polynomial and its derivatives (Budan-Fourier) count
    the roots between grid points y = D j^2 exactly; bisecting over
    0 < j <= J isolates every grid point that is a root, in about log2 J
    steps per distinct root; J^2 <= -2 tr m^2, four times the sum of the
    squared magnitudes.
    Only at those roots is a rank taken: the multiplicity of +/- i*lambda is
    (n - rank(N - D j^2 I)) / 2, and mult(0) = n - rank m.  Returns None when
    the multiplicities found do not account for all n dimensions, i.e. when
    some magnitude is not a half-integer.  The cost grows with the bit length
    of the entries, not with their size, and no float is involved.

    That outcome already settles the canonicality question.  A grading can
    only have integer grades if any two signed magnitudes have integral sum
    and difference, which forces every magnitude into (1/2)Z once n >= 3
    (each magnitude coexists with a second, distinct eigendirection).
    """
    if m.rows != m.cols:
        raise NotSkew(f"matrix is {m.rows}x{m.cols}, not square")
    n = m.rows
    if n < 3:
        raise TooSmall(f"need n >= 3, got n = {n}")
    for i in range(n):
        for j in range(i, n):
            if m[i, j] != -m[j, i]:
                raise NotSkew(f"entry ({i}, {j}) is not the negative of ({j}, {i})")

    lcd = math.lcm(*(v.denominator for row in m.entries for v in row))
    a = [[v.numerator * (lcd // v.denominator) for v in row] for row in m.entries]
    cols = list(zip(*a))
    a2 = [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]
    g = math.gcd(*(v for row in a2 for v in row), lcd * lcd)
    scale = lcd * lcd // g
    gram = [[-4 * (v // g) for v in row] for row in a2]
    top = math.isqrt(-2 * sum(a2[i][i] for i in range(n)) // (lcd * lcd))
    mult0 = n - rref(m)[0]
    entries = []
    for j in _grid_roots(charpoly(gram), scale, top):
        shifted = [list(row) for row in gram]
        for i in range(n):
            shifted[i][i] -= scale * j * j
        d = n - rref(RatMatrix(shifted, cols=n))[0]
        lam = Fraction(j, 2)
        if d % 2:
            raise RuntimeError(
                f"kernel of m^2 + {lam * lam} has odd dimension {d}; the +/- i*{lam} "
                "eigenspaces of a real matrix match in size"
            )
        if d:
            entries.append((lam, d // 2))

    accounted = mult0 + 2 * sum(mult for _, mult in entries)
    if accounted != n:
        return None
    if mult0:
        entries.insert(0, (Fraction(0), mult0))
    return Spectrum(n, tuple(entries))


# Integer polynomials below are coefficient lists, highest degree first.


def _evaluate(p: list[int], y: int) -> int:
    acc = 0
    for c in p:
        acc = acc * y + c
    return acc


def _derivative(p: list[int]) -> list[int]:
    deg = len(p) - 1
    return [c * (deg - i) for i, c in enumerate(p[:-1])]


def _grid_roots(p: list[int], scale: int, top: int) -> list[int]:
    """Every integer 0 < j <= top with p(scale * j^2) = 0, ascending.

    p is the characteristic polynomial of a symmetric matrix, so every root
    is real.  Budan-Fourier: with V(y) the sign variations of p, p', p'',
    ... at y, V(y0) - V(y1) is at least the number of roots in (y0, y1],
    with multiplicity, and exactly that number when every root is real.
    Only the points y = scale * j^2 are evaluated, so a bisection over j
    ends at intervals (j - 1, j] that hold a root, which is on the grid
    exactly when p(scale * j^2) = 0.  The bound alone means no grid root is
    missed; exactness means only intervals that hold a root are split.
    """
    seq = [p]
    while len(seq[-1]) > 1:
        seq.append(_derivative(seq[-1]))

    def variations(j: int) -> int:
        y = scale * j * j
        signs = [v > 0 for v in (_evaluate(s, y) for s in seq) if v]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    found = []
    stack = [(0, variations(0), top, variations(top))]
    while stack:
        lo, v_lo, hi, v_hi = stack.pop()
        if v_lo == v_hi:
            continue
        if hi - lo == 1:
            if _evaluate(p, scale * hi * hi) == 0:
                found.append(hi)
            continue
        mid = (lo + hi) // 2
        v_mid = variations(mid)
        stack.append((mid, v_mid, hi, v_hi))
        stack.append((lo, v_lo, mid, v_mid))
    return found
