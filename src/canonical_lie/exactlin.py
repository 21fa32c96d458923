"""Exact scalars, the matrix input container, one elimination and charpoly.

Scalars are Python ints wherever they can be, and :class:`fractions.Fraction`
(arbitrary precision, always in lowest terms with positive denominator) only
where a non-integer must be held as one value: matrix cells, their
elimination and the magnitudes a caller reads back.  `fractions` (with the
`decimal` and `numbers` it loads) is imported by the functions that build a
Fraction, not with the module, so a request that stays on ints never loads
it: :func:`parse_ratio` reads a 'p/q' string as the int pair (p, q) and
:func:`rational` gives p/q as an int whenever q divides p.  Nothing here ever
touches a float.  :class:`RatMatrix` is an immutable dense matrix, the
container that `check --matrix` input is validated into; it offers indexing
and value equality, no arithmetic.

:func:`rref` is the one dense elimination of the package, Gauss-Jordan
that eliminates on integer rows (fraction-free) and forms Fractions only for
its result.  The structure-constant layer keeps brackets and the invariant
form as sparse rows and the deciders, like the parabolic certificates, work
on sets of basis indices, so dense elimination runs only where no basis index
set will do: the rank of an extracted matrix, for mult(0), and the rank of the
diagonal parts in strict generation, at most n // 2 columns.  The monomial
invariant form needs no rank: :func:`liegraded.polar_indices` reads its
nondegeneracy off the columns its rows hit.  :func:`charpoly` is division-free,
so extraction gets an integer polynomial, whose root orders give the other
multiplicities.
"""

from __future__ import annotations

import math
import re
from collections.abc import Iterable, Sequence
from functools import cache

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")


@cache
def _fraction() -> type:
    """`fractions.Fraction`, imported on the first call: once per process, not
    once per matrix cell, and never by a request that stays on ints."""
    from fractions import Fraction

    return Fraction


def as_rational(value) -> Fraction:
    """Coerce an exact scalar to Fraction, rejecting floats and bools outright."""
    Fraction = _fraction()
    if type(value) is Fraction:
        return value
    if isinstance(value, (bool, float)):
        raise TypeError(
            f"{type(value).__name__} coefficient {value!r} not allowed; use int or Fraction"
        )
    return Fraction(value)


def rational(num: int, den: int):
    """num/den for a positive den: the int when den divides num, else a Fraction."""
    return num // den if num % den == 0 else _fraction()(num, den)


def format_ratio(num: int, den: int) -> str:
    """str(Fraction(num, den)) for a positive den, from ints: 'p/q' in lowest
    terms, or 'p' when the denominator is 1."""
    g = math.gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"


def _rational_text(text: str) -> str:
    """text stripped, once it is a 'p' or 'p/q' string with q positive."""
    s = text.strip()
    if not _RATIONAL_RE.match(s):
        raise ValueError(f"not a rational 'p/q' string: {text!r}")
    return s


def parse_ratio(text: str) -> tuple[int, int]:
    """A 'p' or 'p/q' string (q positive) as (p, q) in lowest terms, read with
    int alone; anything else is an error."""
    num, _, den = _rational_text(text).partition("/")
    p, q = int(num), int(den or 1)
    g = math.gcd(p, q)
    return p // g, q // g


def ratio(value) -> tuple[int, int]:
    """as_rational(value) as (numerator, denominator); an int or a 'p/q'
    string is read without building a Fraction."""
    if type(value) is int:
        return value, 1
    if isinstance(value, str) and _RATIONAL_RE.match(value.strip()):
        return parse_ratio(value)
    r = as_rational(value)
    return r.numerator, r.denominator


def parse_rational(text: str) -> Fraction:
    """Parse a 'p' or 'p/q' string (q positive); anything else is an error."""
    return _fraction()(_rational_text(text))


class RatMatrix:
    """Immutable dense matrix with Fraction entries: shape, indexing, equality."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, data: Iterable[Sequence], cols: int | None = None):
        entries = tuple(tuple(as_rational(v) for v in row) for row in data)
        if entries:
            width = len(entries[0])
            if any(len(row) != width for row in entries[1:]):
                raise ValueError("rows have inconsistent lengths")
            if cols is not None and cols != width:
                raise ValueError(f"expected {cols} columns, got {width}")
            cols = width
        elif cols is None:
            cols = 0
        self.rows = len(entries)
        self.cols = cols
        self.entries = entries

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        i, j = key
        return self.entries[i][j]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RatMatrix)
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return hash((self.cols, self.entries))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(v) for v in row) for row in self.entries)
        return f"RatMatrix({self.rows}x{self.cols}: {body})"


def rref(m: RatMatrix) -> tuple[int, RatMatrix]:
    """Reduced row-echelon form by fraction-free Gauss-Jordan elimination.

    Returns (rank, reduced).  `reduced` has the shape of `m`, its nonzero
    rows on top with unit pivots in strictly increasing columns, and zeros
    above and below every pivot; it is the unique RREF of `m`.  Each row is
    scaled to integers by the lcm of its denominators and stays integral:
    pivot p takes row r to p * r - r[col] * (pivot row), divided by the gcd
    of its entries.  Pivot rows are divided by their pivots at the end.
    """
    Fraction = _fraction()
    work = []
    for row in m.entries:
        den = math.lcm(*(v.denominator for v in row))
        work.append([v.numerator * (den // v.denominator) for v in row])
    pivots = []
    for col in range(m.cols):
        rank = len(pivots)
        hit = next((r for r in range(rank, m.rows) if work[r][col]), None)
        if hit is None:
            continue
        work[rank], work[hit] = work[hit], work[rank]
        piv = work[rank]
        for r, row in enumerate(work):
            f = row[col]
            if r != rank and f:
                row = [piv[col] * a - f * b for a, b in zip(row, piv)]
                g = math.gcd(*row)  # 0 when the row eliminates to all zeros
                work[r] = [a // g for a in row] if g > 1 else row
        pivots.append(col)
    zero = Fraction(0)
    reduced = [[Fraction(a, r[c]) if a else zero for a in r] for r, c in zip(work, pivots)]
    reduced += [[zero] * m.cols] * (m.rows - len(pivots))
    return len(pivots), RatMatrix(reduced, cols=m.cols)


def charpoly(a: Sequence[Sequence]) -> list:
    """Coefficients of det(xI - a), highest degree first, by Berkowitz.

    Division-free: only ring operations on the entries, so an integer matrix
    gives an exact integer polynomial.  Each step borders the leading k x k
    block with row and column k and multiplies the block's polynomial by the
    Toeplitz matrix with first column 1, -a_kk, -R C, -R A C, ...,
    -R A^(k-1) C (R, C the new row and column, A the block).
    """
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("characteristic polynomial of a non-square matrix")
    poly = [1]
    for k in range(n):
        row = a[k]
        toeplitz = [1, -row[k]]
        v = [a[i][k] for i in range(k)]
        for _ in range(k):
            toeplitz.append(-sum(r * x for r, x in zip(row, v)))
            v = [sum(r * x for r, x in zip(a[i], v)) for i in range(k)]
        poly = [
            sum(toeplitz[i - j] * poly[j] for j in range(min(i, k) + 1))
            for i in range(k + 2)
        ]
    return poly
