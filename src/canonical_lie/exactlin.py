"""Exact scalars, the matrix input container, one elimination and charpoly.

Scalars are Python ints wherever they can be, and :class:`fractions.Fraction`
(arbitrary precision, always in lowest terms with positive denominator) only
where a caller reads a non-integer back as one value.  `fractions` (with the
`decimal` and `numbers` it loads) is imported by the functions that build a
Fraction, not with the module, so a request that stays on ints never loads
it: :func:`parse_ratio` checks a 'p/q' string with `str` methods and reads
it as the int pair (p, q), :func:`ratio` reads any exact scalar so, and
:func:`rational` gives p/q as an int whenever q divides p.  A string is
rational in one grammar only, 'p' or 'p/q'.  No float, no `re`.
:class:`RatMatrix` is an immutable dense matrix, the container that
`check --matrix` input is validated into, held as int rows over one
denominator; it offers indexing and value equality, no arithmetic.

:func:`rref` is the one dense elimination of the package, Gauss-Jordan
that eliminates on those integer rows (fraction-free) and returns its
reduced matrix in the same int form.  The structure-constant layer keeps
brackets and the invariant form as sparse rows and the deciders, like the
parabolic certificates, work on sets of basis indices, so dense elimination
runs only where no basis index set will do: the rank of an extracted matrix,
for mult(0), and the rank of the diagonal parts in strict generation, at most
n // 2 columns.  The monomial invariant form needs no rank:
:func:`liegraded.polar_indices` reads its nondegeneracy off the columns its
rows hit.  :func:`charpoly` is division-free, so extraction gets the integer
polynomial of the skew integer matrix 2 L m, whose root orders give the
other multiplicities.
"""

import math
from collections.abc import Iterable, Sequence
from functools import cache


@cache
def _fraction() -> type:
    """`fractions.Fraction`, imported on the first call: once per process, not
    once per matrix cell, and never by a request that stays on ints."""
    from fractions import Fraction

    return Fraction


def as_rational(value) -> "Fraction":
    """Coerce an exact scalar to Fraction, rejecting floats and bools outright;
    a string must be 'p' or 'p/q', as for :func:`parse_rational`."""
    Fraction = _fraction()
    if type(value) is Fraction:
        return value
    if isinstance(value, (bool, float)):
        raise TypeError(
            f"{type(value).__name__} coefficient {value!r} not allowed; use int or Fraction"
        )
    return Fraction(_rational_text(value) if isinstance(value, str) else value)


def rational(num: int, den: int):
    """num/den for a positive den: the int when den divides num, else a Fraction."""
    return num // den if num % den == 0 else _fraction()(num, den)


def format_ratio(num: int, den: int) -> str:
    """str(Fraction(num, den)) for a positive den, from ints: 'p/q' in lowest
    terms, or 'p' when the denominator is 1."""
    g = math.gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"


SHOWN = 32  # characters of an offending value that an error message echoes


def shown(value, render=repr) -> str:
    """render(value) for an error message, cut after SHOWN characters with a
    note of its full length, so that a huge input never makes a huge message."""
    text = render(value)
    return text if len(text) <= SHOWN else f"{text[:SHOWN]}... ({len(text)} characters)"


def _is_rational_text(s: str) -> bool:
    """Whether s is 'p' or 'p/q': an optional sign, decimal digits (Unicode Nd,
    as int reads), then maybe '/' and digits that start with an ASCII 1-9."""
    num, slash, den = s.partition("/")
    num = num[1:] if num[:1] in ("+", "-") else num
    return num.isdecimal() and (not slash or "1" <= den[:1] <= "9" and den.isdecimal())


def _rational_text(text: str) -> str:
    """text stripped, once it is a 'p' or 'p/q' string with q positive."""
    s = text.strip()
    if not _is_rational_text(s):
        raise ValueError(f"not a rational 'p/q' string: {shown(text)}")
    return s


def parse_ratio(text: str) -> tuple[int, int]:
    """A 'p' or 'p/q' string (q positive) as (p, q) in lowest terms, read with
    int alone; anything else is an error."""
    num, _, den = _rational_text(text).partition("/")
    p, q = int(num), int(den or 1)
    g = math.gcd(p, q)
    return p // g, q // g


def ratio(value) -> tuple[int, int]:
    """as_rational(value) as (numerator, denominator); an int or a string is
    read without building a Fraction, and a string that is not 'p' or 'p/q'
    is an error."""
    if type(value) is int:
        return value, 1
    if isinstance(value, str):
        return parse_ratio(value)
    r = as_rational(value)
    return r.numerator, r.denominator


def parse_rational(text: str) -> "Fraction":
    """Parse a 'p' or 'p/q' string (q positive); anything else is an error."""
    return _fraction()(_rational_text(text))


class RatMatrix:
    """Immutable dense rational matrix: shape, indexing, equality.

    Held as ints over one denominator: cell (i, j) is nums[i][j] / den, with
    den the lcm of the cells' denominators in lowest terms (1 for no cells),
    so the form is canonical and two matrices are equal when their cols, den
    and nums are.  Cells may be given as ints, Fractions or 'p/q' strings,
    read through :func:`ratio`.  `entries` and m[i, j] give them as
    Fractions, built on the first read.
    """

    __slots__ = ("rows", "cols", "den", "nums", "_entries")

    def __init__(self, data: Iterable[Sequence], cols: int | None = None):
        self._fill([[ratio(v) for v in row] for row in data], cols)

    @classmethod
    def _from_ratios(cls, data: list[list[tuple[int, int]]], cols: int | None = None) -> "RatMatrix":
        """The matrix of rows of (p, q) cells, q positive, whose q have the
        lcm of the cells' denominators in lowest terms: cells as :func:`ratio`
        gives them, or each row over the lcm of its own denominators."""
        m = object.__new__(cls)
        m._fill(data, cols)
        return m

    def _fill(self, data, cols) -> None:
        if data:
            width = len(data[0])
            if any(len(row) != width for row in data[1:]):
                raise ValueError("rows have inconsistent lengths")
            if cols is not None and cols != width:
                raise ValueError(f"expected {cols} columns, got {width}")
            cols = width
        elif cols is None:
            cols = 0
        den = math.lcm(*(q for row in data for _, q in row))
        self.rows, self.cols, self.den, self._entries = len(data), cols, den, None
        self.nums = tuple(tuple(p * (den // q) for p, q in row) for row in data)

    @property
    def entries(self) -> "tuple[tuple[Fraction, ...], ...]":
        if self._entries is None:
            Fraction, den = _fraction(), self.den
            made = {}  # one Fraction per distinct cell value
            self._entries = tuple(
                tuple([made[a] if a in made else made.setdefault(a, Fraction(a, den)) for a in row])
                for row in self.nums
            )
        return self._entries

    def __getitem__(self, key: tuple[int, int]) -> "Fraction":
        i, j = key
        return self.entries[i][j]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RatMatrix)
            and self.cols == other.cols
            and self.den == other.den
            and self.nums == other.nums
        )

    def __hash__(self) -> int:
        return hash((self.cols, self.den, self.nums))

    def __repr__(self) -> str:
        den = self.den
        body = "; ".join(" ".join(format_ratio(a, den) for a in row) for row in self.nums)
        return f"RatMatrix({self.rows}x{self.cols}: {body})"


def rref(m: RatMatrix) -> tuple[int, RatMatrix]:
    """Reduced row-echelon form by fraction-free Gauss-Jordan elimination.

    Returns (rank, reduced).  `reduced` has the shape of `m`, its nonzero
    rows on top with unit pivots in strictly increasing columns, and zeros
    above and below every pivot; it is the unique RREF of `m`.  Elimination
    runs on the integer rows `m.nums` (scaling a row leaves the RREF alone)
    and keeps them integral: pivot p takes row r to p * r - r[col] * (pivot
    row), divided by the gcd of its entries.  A pivot row r with pivot
    r[c] and content g reduces to the ints r / g over d = r[c] / g (sign
    in d's favour), and d is the lcm of that row's denominators in lowest
    terms, so `reduced` is built in the int form with no Fraction.
    """
    work = [list(row) for row in m.nums]
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
    reduced = []
    for r, c in zip(work, pivots):
        g = math.gcd(*r) if r[c] > 0 else -math.gcd(*r)
        reduced.append([(a // g, r[c] // g) for a in r])
    reduced += [[(0, 1)] * m.cols] * (m.rows - len(pivots))
    return len(pivots), RatMatrix._from_ratios(reduced, cols=m.cols)


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
