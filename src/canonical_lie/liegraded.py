"""Finite-dimensional graded Lie algebras as structure-constant tables.

A :class:`LieTable` packages an ordered basis, the rational coordinates of
every bracket [e_i, e_j], a rational grade label per basis element (the
element sits in the (I*grade)-eigenspace of the grading derivation) and the
rows of the Gram matrix of an invariant symmetric bilinear form.
Construction through :func:`build_table` validates the whole package
eagerly, in this order:

  1. antisymmetry of the bracket table,
  2. grading: [e_i, e_j] supported on grade(i) + grade(j) only,
  3. grade symmetry: the multiset of grades is stable under negation
     (the real-form conjugation swaps the +r and -r eigenspaces),
  4. the Jacobi identity on all basis triples (summed where a bracket
     chain is nonzero; the other triples vanish term by term),
  5. symmetry and invariance of the bilinear form.

Exhaustive validation is cheap insurance, since a corrupt table would
silently invalidate every verdict computed from it.  Brackets and the form
come in and are kept in one sparse format: [e_i, e_j], and row i of the
form, are their nonzero (index, coefficient) pairs in ascending index
order.  No dense matrix is kept, and every check runs over nonzero entries
only.  In the so(n, C) tables of :mod:`sonreal` (dimension up to 276 at
n = 24) a bracket has at most two nonzero coordinates and a form row
exactly one, so the antisymmetry, grading and invariance checks take about
dim^2 steps, the symmetry check about dim, and Jacobi sums only the triples
that close a nonzero bracket chain: at n = 24 about 130,000 of the 3.5
million basis triples, the rest vanishing term by term.

Checks 1, 4 and 5 do not involve the grades, so one validated algebra can
carry many gradings that share its brackets and form.
:func:`sonreal.grading` grades the so(n, C) table that way, as a
:class:`GradingMap` over its basis, in place of re-running checks 2 and 3
per grading: the table's bracket shape, checked once per n, and mirrored
eigenvalue labels imply them.

Every subspace here is a coordinate subspace, given as the set of basis
indices that spans it: the grade spaces and tails of a :class:`GradingMap`,
and the arguments and results of :func:`bracket_indices` and
:func:`polar_indices`, which run with no elimination.  Those two are exact
when every bracket they meet is a multiple of one basis element and the form
is monomial, and raise :class:`NotMonomial` naming the offending pair or row
otherwise; a monomial form is nondegenerate exactly when its rows hit
distinct columns, so the polar needs no rank either.  The canonical deciders
and certificates run on them; no matrix realization is consulted here.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter, namedtuple
from collections.abc import Sequence
from fractions import Fraction

from .exactlin import as_rational


class LieTableError(ValueError):
    """A structure-constant table failed validation."""


class AntisymmetryViolation(LieTableError):
    def __init__(self, i: int, j: int):
        super().__init__(f"bracket table is not antisymmetric at basis pair ({i}, {j})")
        self.indices = (i, j)


class JacobiViolation(LieTableError):
    def __init__(self, i: int, j: int, k: int):
        super().__init__(f"Jacobi identity fails on basis triple ({i}, {j}, {k})")
        self.indices = (i, j, k)


class GradingViolation(LieTableError):
    def __init__(self, message: str, indices: tuple = ()):
        super().__init__(message)
        self.indices = indices


class FormNotInvariant(LieTableError):
    def __init__(self, message: str, indices: tuple = ()):
        super().__init__(message)
        self.indices = indices


class DegenerateForm(LieTableError):
    """The bilinear form has a radical, so polars are undefined."""


class NotMonomial(LieTableError):
    """An index-set operation met a bracket or form row with more than one
    nonzero coordinate, so its result is not spanned by basis elements."""

    def __init__(self, message: str, indices: tuple):
        super().__init__(message)
        self.indices = indices


class LieTable:
    """Validated structure-constant table; build via :func:`build_table`."""

    __slots__ = ("dim", "grade", "form", "_sparse")

    def __init__(self, dim, grade, form, sparse):
        self.dim = dim
        self.grade = grade
        self.form = form
        self._sparse = sparse

    def __repr__(self) -> str:
        return f"LieTable(dim {self.dim}, grades {sorted(set(self.grade))})"


def build_table(
    dim: int,
    brackets: Sequence[Sequence[Sequence[tuple]]],
    grade: Sequence,
    form: Sequence[Sequence[tuple]],
) -> LieTable:
    """Validate and assemble a LieTable.

    `brackets[i][j]` lists [e_i, e_j] as (index, coefficient) pairs, each
    index in [0, dim) at most once, in any order; zero coefficients are
    dropped.  `grade` is one rational label per basis element; `form[i]`
    lists row i of the Gram matrix as (column, value) pairs in the same
    format.  Raises AntisymmetryViolation / GradingViolation /
    JacobiViolation / FormNotInvariant naming the offending basis indices.
    """
    if len(brackets) != dim:
        raise ValueError(f"bracket table has {len(brackets)} rows, expected {dim}")
    sparse = []
    for i, per_i in enumerate(brackets):
        if len(per_i) != dim:
            raise ValueError(f"bracket table row {i} has {len(per_i)} entries, expected {dim}")
        sparse.append(
            tuple(
                _sparse_row(row, dim, "bracket [e_{}, e_{}]", i, j) if row else ()
                for j, row in enumerate(per_i)
            )
        )
    sparse = tuple(sparse)
    grades = _grade_labels(grade, dim)
    if len(form) != dim:
        raise ValueError(f"form has {len(form)} rows, expected {dim}")
    form = tuple(_sparse_row(pairs, dim, "form row {}", i) for i, pairs in enumerate(form))

    for i in range(dim):
        for j in range(i, dim):
            if sparse[i][j] != tuple((k, -v) for k, v in sparse[j][i]):
                raise AntisymmetryViolation(i, j)

    _check_grading(sparse, grades)

    # Jacobi on i < j < k: a term [e_x, [e_y, e_z]] is nonzero only through a
    # chain, a coordinate c of [e_y, e_z] with [e_x, e_c] != 0.  outer[c] lists
    # those x (by antisymmetry, the support of row c) and hits[c], ascending,
    # the pairs y < z with a coordinate at c, as y * dim + z.  A triple with
    # no chain vanishes term by term, so only chained triples are summed, in
    # lexicographic order per i.
    outer = [[x for x, hit in enumerate(row) if hit] for row in sparse]
    hits = [[] for _ in range(dim)]
    for y, row in enumerate(sparse):
        for z in outer[y]:
            if z > y:
                for c, _ in row[z]:
                    hits[c].append(y * dim + z)
    for i in range(dim):
        chained = set()
        for c in outer[i]:  # chains of [e_i, [e_j, e_k]]
            chained.update(hits[c][bisect_left(hits[c], (i + 1) * dim):])
        for z in outer[i]:  # of [e_j, [e_k, e_i]] (z = k) and [e_k, [e_i, e_j]] (z = j)
            if z > i:
                for c, _ in sparse[i][z]:
                    for x in outer[c]:
                        if i < x < z:
                            chained.add(x * dim + z)
                        elif x > z:
                            chained.add(z * dim + x)
        for jk in sorted(chained):
            j, k = divmod(jk, dim)
            acc: dict[int, object] = {}
            for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
                for c, v in sparse[y][z]:
                    for t, w in sparse[x][c]:
                        acc[t] = acc.get(t, 0) + v * w
            if any(acc.values()):
                raise JacobiViolation(i, j, k)

    entries = {(i, k): v for i, row in enumerate(form) for k, v in row}
    asymmetric = [(min(p), max(p)) for p, v in entries.items() if entries.get(p[::-1], 0) != v]
    if asymmetric:
        i, j = min(asymmetric)
        raise FormNotInvariant(f"form is not symmetric at ({i}, {j})", (i, j))
    # With the form symmetric, <[e_i, e_j], e_k> + <e_j, [e_i, e_k]> is
    # u[j][k] + u[k][j] for u[j] = <[e_i, e_j], .>, so only the pairs (j, k)
    # where u[j] or u[k] has a nonzero entry can fail.
    for i in range(dim):
        u = [_combine(sp, form) for sp in sparse[i]]
        failing = []
        for j, uj in enumerate(u):
            for k in uj:
                lo, hi = (j, k) if j <= k else (k, j)
                total = u[lo].get(hi, 0) + u[hi].get(lo, 0)
                if total != 0:
                    failing.append((lo, hi, total))
        if failing:
            j, k, total = min(failing)
            raise FormNotInvariant(
                f"<[e_{i}, e_{j}], e_{k}> + <e_{j}, [e_{i}, e_{k}]> = {total} != 0",
                (i, j, k),
            )

    return LieTable(dim, grades, form, sparse)


def _sparse_row(pairs, dim: int, name: str, *at) -> tuple:
    """A bracket or form row, called `name.format(*at)` in errors, as its
    nonzero (index, coefficient) pairs, ascending.

    Coefficients stay ints when they are ints: structure constants are
    usually integral and native int arithmetic keeps the validation loops
    fast.  Raises ValueError for an index that is not an int in [0, dim) or a
    repeated one, TypeError for a bool or float coefficient.
    """
    coords = {}
    for k, v in pairs:
        if type(k) is not int or not 0 <= k < dim:
            raise ValueError(f"{name.format(*at)} has basis index {k!r} outside [0, {dim})")
        if k in coords:
            raise ValueError(f"{name.format(*at)} repeats basis index {k}")
        if isinstance(v, (bool, float)):
            kind = type(v).__name__
            raise TypeError(f"{name.format(*at)} has {kind} coefficient {v!r}; use int or Fraction")
        coords[k] = v if isinstance(v, (int, Fraction)) else as_rational(v)
    return tuple((k, coords[k]) for k in sorted(coords) if coords[k] != 0)


def _grade_labels(grade: Sequence, dim: int) -> tuple[int | Fraction, ...]:
    grades = tuple(g if type(g) is int else as_rational(g) for g in grade)  # int sums stay ints
    if len(grades) != dim:
        raise ValueError(f"{len(grades)} grade labels for dim {dim}")
    return grades


def _check_grading(sparse, grades) -> None:
    """Checks 2 and 3: bracket support on grade(i) + grade(j), and a grade
    multiset symmetric under negation."""
    dim = len(grades)
    for i in range(dim):
        for j in range(i, dim):
            hits = sparse[i][j]
            if not hits:
                continue
            target = grades[i] + grades[j]
            for k, _ in hits:
                if grades[k] != target:
                    raise GradingViolation(
                        f"[e_{i}, e_{j}] has grade {grades[i]}+{grades[j]} but hits "
                        f"basis element {k} of grade {grades[k]}",
                        (i, j, k),
                    )

    counts = Counter(grades)
    for g, cnt in counts.items():
        if counts.get(-g, 0) != cnt:
            raise GradingViolation(
                f"grade {g} has dimension {cnt} but grade {-g} has {counts.get(-g, 0)}"
            )


class GradingMap(namedtuple("GradingMap", "ambient_dim blocks")):
    """Basis elements grouped by grade label, sorted by grade ascending.

    `blocks` holds, per grade, the ascending indices of the basis elements
    with that label.  Dimensions come from their lengths, and a grade space
    or a tail (the sum of the grade spaces from some grade up) is the set of
    basis indices that spans it.
    """

    __slots__ = ()

    def grades(self) -> tuple[Fraction, ...]:
        return tuple(g for g, _ in self.blocks)

    def indices_at(self, r) -> frozenset[int]:
        r = as_rational(r)
        for g, idx in self.blocks:
            if g == r:
                return frozenset(idx)
        return frozenset()

    def tail_indices(self, r) -> frozenset[int]:
        """Indices of the basis elements with grade >= r."""
        r = as_rational(r)
        return frozenset(i for g, idx in self.blocks if g >= r for i in idx)

    def dims(self) -> dict[Fraction, int]:
        return {g: len(idx) for g, idx in self.blocks}


def _combine(coeffs, rows) -> dict:
    """sum of c * rows[t] over the (t, c) pairs, as a {column: value} dict;
    `rows` are sparse (column, value) rows."""
    acc: dict[int, object] = {}
    for t, c in coeffs:
        for k, v in rows[t]:
            acc[k] = acc.get(k, 0) + c * v
    return acc


def bracket_indices(t: LieTable, a, b) -> frozenset[int]:
    """[span{e_i : i in a}, span{e_j : j in b}] as a set of basis indices.

    Exact when every bracket [e_i, e_j], i in a, j in b, is a multiple of one
    basis element: the result is then spanned by those elements.  Raises
    NotMonomial naming (i, j) for a bracket with two or more nonzero
    coordinates.
    """
    out = set()
    for i in a:
        sp_i = t._sparse[i]
        for j in b:
            hit = sp_i[j]
            if len(hit) > 1:
                raise NotMonomial(
                    f"[e_{i}, e_{j}] has {len(hit)} nonzero coordinates; "
                    "an index-set bracket needs at most one",
                    (i, j),
                )
            if hit:
                out.add(hit[0][0])
    return frozenset(out)


def polar_indices(t: LieTable, a) -> frozenset[int]:
    """The polar of span{e_i : i in a} as a set of basis indices.

    A form with at most one nonzero entry per row, row i at column p(i), is
    nondegenerate exactly when every row has one and p is a permutation.
    Then <x, e_i> is a nonzero multiple of x_{p(i)}, so the polar is spanned
    by the e_k with k outside {p(i) : i in a}.  One scan of the form decides
    both: it raises NotMonomial naming the first row with two or more
    nonzero entries, then DegenerateForm if a row is empty or two rows share
    a column.
    """
    cols = []
    for i, row in enumerate(t.form):
        if len(row) > 1:
            raise NotMonomial(
                f"form row {i} has {len(row)} nonzero entries; "
                "an index-set polar needs exactly one",
                (i,),
            )
        cols.append(row[0][0] if row else None)
    if None in cols or len(set(cols)) < t.dim:
        raise DegenerateForm("bilinear form is degenerate; polars are undefined")
    return frozenset(range(t.dim)) - {cols[i] for i in a}
