"""Exact linear algebra over the rationals.

Scalars are :class:`fractions.Fraction` (arbitrary precision, always in
lowest terms with positive denominator); nothing here ever touches a float.
Matrices are dense and immutable.  Subspaces are stored through a reduced
row-echelon basis, which is a canonical representative: two subspaces are
equal as sets exactly when their stored bases compare equal entry for entry.

Matrices here are dense and eliminated by textbook Gauss-Jordan.  The
structure-constant layer keeps brackets and the invariant form as sparse
rows and the deciders work on sets of basis indices, so dense elimination
runs only where no basis index set will do: the kernels of spectrum
extraction and the rank of the diagonal parts in strict generation, at most
n // 2 columns.  The rank of the invariant form is eliminated on its sparse
rows (:func:`liegraded._form_rank`), one step per row of the monomial
so(n, C) form.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Sequence
from fractions import Fraction

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")


def as_rational(value) -> Fraction:
    """Coerce an exact scalar to Fraction, rejecting floats and bools outright."""
    if type(value) is Fraction:
        return value
    if isinstance(value, (bool, float)):
        raise TypeError(
            f"{type(value).__name__} coefficient {value!r} not allowed; use int or Fraction"
        )
    return Fraction(value)


def parse_rational(text: str) -> Fraction:
    """Parse a 'p' or 'p/q' string (q positive); anything else is an error."""
    s = text.strip()
    if not _RATIONAL_RE.match(s):
        raise ValueError(f"not a rational 'p/q' string: {text!r}")
    return Fraction(s)


class RatMatrix:
    """Immutable dense matrix with Fraction entries."""

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

    @classmethod
    def identity(cls, n: int) -> RatMatrix:
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)], cols=n)

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.entries[i]

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        i, j = key
        return self.entries[i][j]

    def __matmul__(self, other: RatMatrix) -> RatMatrix:
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.shape} @ {other.shape}")
        ot = list(zip(*other.entries)) if other.entries else []
        out = []
        for row in self.entries:
            if ot:
                out.append([sum(a * b for a, b in zip(row, col)) for col in ot])
            else:
                out.append([Fraction(0)] * other.cols)
        return RatMatrix(out, cols=other.cols)

    def __add__(self, other: RatMatrix) -> RatMatrix:
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} + {other.shape}")
        return RatMatrix(
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.entries, other.entries)],
            cols=self.cols,
        )

    def scaled(self, c) -> RatMatrix:
        c = as_rational(c)
        return RatMatrix([[c * v for v in row] for row in self.entries], cols=self.cols)

    def trace(self) -> Fraction:
        if self.rows != self.cols:
            raise ValueError("trace of a non-square matrix")
        return sum((self.entries[i][i] for i in range(self.rows)), Fraction(0))

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

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
    """Reduced row-echelon form by Gauss-Jordan elimination.

    Returns (rank, reduced).  `reduced` has the shape of `m`, its nonzero
    rows on top with unit pivots in strictly increasing columns, and zeros
    above and below every pivot; it is the unique RREF of `m`.
    """
    work = [list(row) for row in m.entries]
    nrows, ncols = m.rows, m.cols
    pivot_row = 0
    for col in range(ncols):
        if pivot_row == nrows:
            break
        hit = next((r for r in range(pivot_row, nrows) if work[r][col] != 0), None)
        if hit is None:
            continue
        work[pivot_row], work[hit] = work[hit], work[pivot_row]
        lead = work[pivot_row][col]
        if lead != 1:
            work[pivot_row] = [v / lead for v in work[pivot_row]]
        piv = work[pivot_row]
        for r in range(nrows):
            f = work[r][col]
            if r != pivot_row and f != 0:
                work[r] = [a - f * b for a, b in zip(work[r], piv)]
        pivot_row += 1
    return pivot_row, RatMatrix(work, cols=ncols)


class Subspace:
    """A subspace of Q^n held as a reduced row-echelon basis.

    The RREF basis is canonical, so `==` on Subspaces decides set equality.
    Build instances through :func:`span` (or `zero`); the constructor
    insists on an already-reduced basis.
    """

    __slots__ = ("ambient_dim", "basis")

    def __init__(self, ambient_dim: int, basis: RatMatrix):
        if basis.cols != ambient_dim:
            raise ValueError(f"basis width {basis.cols} != ambient dim {ambient_dim}")
        last_pivot = -1
        for row in basis.entries:
            pivot = next((j for j, v in enumerate(row) if v != 0), None)
            if pivot is None:
                raise ValueError("basis contains a zero row")
            if pivot <= last_pivot or row[pivot] != 1:
                raise ValueError("basis is not in reduced row-echelon form")
            last_pivot = pivot
        for r, row in enumerate(basis.entries):
            pivot = next(j for j, v in enumerate(row) if v != 0)
            if any(other[pivot] != 0 for i, other in enumerate(basis.entries) if i != r):
                raise ValueError("basis is not in reduced row-echelon form")
        self.ambient_dim = ambient_dim
        self.basis = basis

    @classmethod
    def zero(cls, ambient_dim: int) -> Subspace:
        return cls(ambient_dim, RatMatrix((), cols=ambient_dim))

    @property
    def dim(self) -> int:
        return self.basis.rows

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self) -> int:
        return hash((self.ambient_dim, self.basis))

    def __repr__(self) -> str:
        return f"Subspace(dim {self.dim} of Q^{self.ambient_dim})"


def span(vectors: Iterable[Sequence], ambient_dim: int) -> Subspace:
    """Canonical subspace spanned by the given coordinate rows."""
    rows = []
    for vec in vectors:
        row = tuple(as_rational(v) for v in vec)
        if len(row) != ambient_dim:
            raise ValueError(f"vector of length {len(row)} in ambient dim {ambient_dim}")
        rows.append(row)
    if not rows:
        return Subspace.zero(ambient_dim)
    rank, reduced = rref(RatMatrix(rows, cols=ambient_dim))
    return Subspace(ambient_dim, RatMatrix(reduced.entries[:rank], cols=ambient_dim))


def kernel(m: RatMatrix) -> Subspace:
    """Null space of m as a canonical Subspace; dim(kernel) = cols - rank."""
    rank, reduced = rref(m)
    pivots = []
    for r in range(rank):
        pivots.append(next(j for j, v in enumerate(reduced.entries[r]) if v != 0))
    pivot_set = set(pivots)
    basis = []
    for free in range(m.cols):
        if free in pivot_set:
            continue
        vec = [Fraction(0)] * m.cols
        vec[free] = Fraction(1)
        for r, p in enumerate(pivots):
            vec[p] = -reduced.entries[r][free]
        basis.append(vec)
    return span(basis, m.cols)


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
