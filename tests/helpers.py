"""Shared test helpers: terse spectrum construction, matrix and table fixtures,
and independent oracles."""

import json
import math
from bisect import bisect_left
from collections import Counter, namedtuple
from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, islice

from canonical_lie import (
    InvalidSpectrum,
    OracleRecord,
    RatMatrix,
    Spectrum,
    Verdict,
    VerdictReason,
    condition1,
    enumerate_canonical,
    half_integral_spectra,
    oracle_record,
    parabolic_of,
    prop3_check,
    rref,
    theorem1_report,
    theorem2_check,
)
from canonical_lie.cli import _grading_cells, _verdict_summary
from canonical_lie.exactlin import as_rational, format_ratio, rational
from canonical_lie.liegraded import _pair_index
from canonical_lie.sonreal import _grid_roots


# so(n, C) as a structure-constant table, computed once per n from its
# faithful matrix realization, and graded by a spectrum over the wedge basis.
# The package computes with g_0-cells and the closed-form Witt bracket; this
# table, its grading and the strict generation that runs on it are the
# oracles those are held to.


class LieTableError(ValueError):
    """A structure-constant table failed validation."""


class GradingViolation(LieTableError):
    def __init__(self, message: str, indices: tuple = ()):
        super().__init__(message)
        self.indices = indices


class NotMonomial(LieTableError):
    """An index-set operation met a bracket or form row with more than one
    nonzero coordinate, so its result is not spanned by basis elements."""

    def __init__(self, message: str, indices: tuple):
        super().__init__(message)
        self.indices = indices


class RealizationViolation(LieTableError):
    """The commutator [M_p, M_q] of two matrices of the so(n, C) realization
    lies outside the span of the M_k, so bracket row [e_p, e_q] has no
    coordinates to hold."""

    def __init__(self, message: str, indices: tuple):
        super().__init__(message)
        self.indices = indices


class LieTable:
    """Structure-constant table: an ordered basis, the rational coordinates
    of every bracket [e_i, e_j], a rational grade label per basis element and
    the rows of the Gram matrix of an invariant symmetric bilinear form.
    Brackets and form rows are their nonzero (index, coefficient) pairs in
    ascending index order.  The class checks nothing; :func:`_so_table` and
    :func:`build_table` make it a Lie algebra."""

    __slots__ = ("dim", "grade", "form", "_sparse")

    def __init__(self, dim, grade, form, sparse):
        self.dim = dim
        self.grade = grade
        self.form = form
        self._sparse = sparse

    def __repr__(self) -> str:
        return f"LieTable(dim {self.dim}, grades {sorted(set(self.grade))})"


class GradingMap(namedtuple("GradingMap", "ambient_dim blocks")):
    """Basis elements grouped by grade label, sorted by grade ascending.

    `blocks` holds, per grade, the ascending indices of the basis elements
    with that label.  Dimensions come from their lengths, and a grade space
    or a tail (the sum of the grade spaces from some grade up) is the set of
    basis indices that spans it.
    """

    __slots__ = ()

    def grades(self) -> "tuple[Fraction, ...]":
        return tuple(g for g, _ in self.blocks)

    def indices_at(self, r) -> frozenset[int]:
        r = r if type(r) is int else as_rational(r)
        for g, idx in self.blocks:
            if g == r:
                return frozenset(idx)
        return frozenset()

    def tail_indices(self, r) -> frozenset[int]:
        """Indices of the basis elements with grade >= r."""
        r = r if type(r) is int else as_rational(r)
        return frozenset(i for g, idx in self.blocks if g >= r for i in idx)

    def dims(self) -> "dict[Fraction, int]":
        return {g: len(idx) for g, idx in self.blocks}


@lru_cache(maxsize=None)
def _witt_frame(n: int) -> tuple[tuple[int, int], ...]:
    """The wedge pairs (a, b), a < b, in lexicographic order."""
    return tuple((a, b) for a in range(n) for b in range(a + 1, n))


def _scaled_labels(s: Spectrum) -> tuple[list[int], int]:
    """(D * lambda_a for a = 0, ..., n - 1, D), D the spectrum's `den`.

    The labels follow the Witt basis: the positive magnitudes by descending
    lambda, each repeated by its multiplicity, then the zeros, then the
    negatives mirrored, so that lambda_{n-1-a} = -lambda_a; (u_a, u_b) = 1
    exactly when b = n - 1 - a.
    """
    positive = [k for k, m in reversed(s.scaled) if k for _ in range(m)]
    return positive + [0] * (s.n - 2 * len(positive)) + [-k for k in reversed(positive)], s.den


@lru_cache(maxsize=None)
def _so_table(n: int) -> LieTable:
    """so(n, C) in the Witt wedge basis, computed once per n from its
    faithful n x n matrix realization.

    The wedge p = (a, b) acts on C^n as the matrix M_p with +1 at
    (b, n - 1 - a) and -1 at (a, n - 1 - b), the map
    c -> (u_a, c) u_b - (u_b, c) u_a.  An entry (r, c) with r + c > n - 1 is
    the +1 of M_(n-1-c, r), one with r + c < n - 1 the -1 of M_(r, n-1-c), and
    none lies on r + c = n - 1: the supports are disjoint, so p -> M_p is
    injective and X = sum of x_k M_k has coordinates x_k read off its entries.
    Bracket row [e_p, e_q] holds the coordinates of [M_p, M_q] as ascending
    (index, coefficient) pairs with no zero, and form row p the nonzero
    traces tr(M_p M_q): u_a ^ u_b pairs with u_(n-1-b) ^ u_(n-1-a) alone,
    with value 2.  The table is the commutator table, so antisymmetry and the
    Jacobi identity hold, and the form is the trace form, symmetric and
    invariant since tr([X, Y] Z) = tr(X [Y, Z]).  With mirrored labels, the
    diagonal matrix xi = diag(lambda_0, ..., lambda_{n-1}) lies in so(n, C)
    for the Witt form and [xi, M_p] = (lambda_a + lambda_b) M_p, so a table
    of commutators respects every mirrored grading, and (a, b) ->
    (n - 1 - b, n - 1 - a) negates grades.  The table carries the principal
    grading lambda_a = (n - 1)/2 - a, the grading of the spectrum with
    magnitudes 0, 1, ... (n odd) or 1/2, 3/2, ... (n even), each of
    multiplicity one.

    Products are taken only where supports meet: M_p M_q through the M_q
    entries in the rows that M_p's columns name, M_q M_p through those in
    the columns that its rows name, about 4n products per p.  Raises
    RealizationViolation naming (p, q) if a commutator has no coordinates.
    """
    pairs = _witt_frame(n)
    mats = [((b, n - 1 - a, 1), (a, n - 1 - b, -1)) for a, b in pairs]
    in_row = [[] for _ in range(n)]
    in_col = [[] for _ in range(n)]
    for q, entries in enumerate(mats):
        for r, c, v in entries:
            in_row[r].append((q, c, v))
            in_col[c].append((q, r, v))
    rows, form = [], []
    for p, entries in enumerate(mats):
        comm: dict[int, dict[tuple[int, int], int]] = {}
        trace: dict[int, int] = {}
        for r, x, v in entries:  # M_p M_q
            for q, c, w in in_row[x]:
                at = comm.setdefault(q, {})
                at[r, c] = at.get((r, c), 0) + v * w
                if c == r:
                    trace[q] = trace.get(q, 0) + v * w
        for x, c, v in entries:  # - M_q M_p
            for q, r, w in in_col[x]:
                at = comm.setdefault(q, {})
                at[r, c] = at.get((r, c), 0) - w * v
        row = [()] * len(mats)
        for q, at in comm.items():
            row[q] = _coordinates(n, at)
            if row[q] is None:
                raise RealizationViolation(
                    f"[M_{p}, M_{q}] lies outside the span of the M_k", (p, q)
                )
        rows.append(tuple(row))
        form.append(tuple((q, t) for q, t in sorted(trace.items()) if t))
    grades = tuple(n - 1 - a - b for a, b in pairs)
    return LieTable(len(pairs), grades, tuple(form), tuple(rows))


def _coordinates(n: int, entries: dict) -> tuple | None:
    """The X = sum of x_k M_k with these {(r, c): value} entries, as its
    ascending nonzero (k, x_k) pairs; None when X is outside the span: an
    entry on r + c = n - 1, or an M_k whose two entries disagree."""
    coords: dict[int, int] = {}
    nonzero = 0
    for (r, c), v in entries.items():
        if not v:
            continue
        if r + c == n - 1:
            return None
        if r + c > n - 1:
            k, x = _pair_index(n, n - 1 - c, r), v
        else:
            k, x = _pair_index(n, r, n - 1 - c), -v
        if coords.setdefault(k, x) != x:
            return None
        nonzero += 1
    if nonzero != 2 * len(coords):
        return None
    return tuple(sorted(coords.items()))


def grading(s: Spectrum) -> GradingMap:
    """The grading of so(n, C) by the spectrum, on the basis of :func:`_so_table`.

    Basis element p = (a, b) is the wedge u_a ^ u_b of the Witt basis, with
    grade lambda_a + lambda_b; blocks come in ascending grade order, each
    with its indices ascending.  Only the n labels are checked, for the
    mirror lambda_{n-1-a} = -lambda_a: with the table computed from its
    matrix realization, that makes every bracket of the table respect the
    grades and the grade multiset symmetric (see :func:`_so_table`).
    Raises GradingViolation naming an unmirrored label.  Integral grades are
    ints, equal, hash-equal and printed alike to Fractions.
    """
    sums, den = _scaled_pair_sums(s)
    groups: dict[int, list[int]] = {}
    for p, k in enumerate(sums):
        groups.setdefault(k, []).append(p)
    blocks = tuple((rational(k, den), tuple(groups[k])) for k in sorted(groups))
    return GradingMap(len(sums), blocks)


def _scaled_pair_sums(s: Spectrum) -> tuple[list[int], int]:
    """(D * (lambda_a + lambda_b) for each wedge (a, b), D) from :func:`_scaled_labels`.
    Raises GradingViolation naming (a, n - 1 - a) if the labels are not mirrored."""
    scaled, den = _scaled_labels(s)
    n = len(scaled)
    for a in range((n + 1) // 2):
        if scaled[n - 1 - a] != -scaled[a]:
            raise GradingViolation(
                f"eigenvalue labels are not mirrored: lambda_{a} = {format_ratio(scaled[a], den)} "
                f"but lambda_{n - 1 - a} = {format_ratio(scaled[n - 1 - a], den)}",
                (a, n - 1 - a),
            )
    return [scaled[a] + scaled[b] for a, b in _witt_frame(n)], den


def strict_by_table(s: Spectrum) -> tuple[bool, int, int]:
    """Oracle for strict_generation_report on basis-index sets of the table
    of n: the closure R of the indices of g_1 + g_{-1} under single-term
    brackets onto root wedges, plus the rank of the diagonal parts of the
    brackets within R.  Raises NotMonomial naming a bracket of root wedges
    with two nonzero coordinates on root wedges."""
    table, gm = _so_table(s.n), grading(s)
    diagonal = [_pair_index(s.n, a, s.n - 1 - a) for a in range(s.n // 2)]
    todo = sorted(gm.indices_at(1) | gm.indices_at(-1))
    roots, done, parts = set(todo), [], set()
    while todo:
        x = todo.pop()
        for y in done:
            hits = table._sparse[x][y]
            if all(k in diagonal for k, _ in hits):
                if hits:
                    parts.add(tuple(dict(hits).get(k, 0) for k in diagonal))
            elif len(hits) > 1:
                raise NotMonomial(
                    f"[e_{x}, e_{y}] has {len(hits)} nonzero coordinates, not all on "
                    "diagonal wedges",
                    (x, y),
                )
            elif hits[0][0] not in roots:
                roots.add(hits[0][0])
                todo.append(hits[0][0])
        done.append(x)
    generated = len(roots) + rref(RatMatrix(parts, cols=len(diagonal)))[0]
    return generated == table.dim, generated, table.dim


# The general structure-constant checker, for any Lie algebra: it accepts the
# so(n, C) table computed from the matrix realization, and builds the small
# tables the liegraded tests use.  `so_table_by_wedge_identity` derives the
# so(n, C) table a second way, and `check_witt_shape` is the oracle for its
# bracket shape, which the realization implies.


class AntisymmetryViolation(LieTableError):
    def __init__(self, i: int, j: int):
        super().__init__(f"bracket table is not antisymmetric at basis pair ({i}, {j})")
        self.indices = (i, j)


class JacobiViolation(LieTableError):
    def __init__(self, i: int, j: int, k: int):
        super().__init__(f"Jacobi identity fails on basis triple ({i}, {j}, {k})")
        self.indices = (i, j, k)


class DegenerateForm(LieTableError):
    """The bilinear form has a radical, so polars are undefined."""


class FormNotInvariant(LieTableError):
    def __init__(self, message: str, indices: tuple = ()):
        super().__init__(message)
        self.indices = indices


class BracketShapeViolation(LieTableError):
    """A bracket of the so(n, C) table hits a wedge other than the two
    indices left after removing one partner pair from its four."""

    def __init__(self, p: int, q: int, k: int):
        super().__init__(
            f"[e_{p}, e_{q}] hits basis element {k}, which is not the wedge left "
            "after removing a partner pair"
        )
        self.indices = (p, q, k)


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


def _combine(coeffs, rows) -> dict:
    """sum of c * rows[t] over the (t, c) pairs, as a {column: value} dict;
    `rows` are sparse (column, value) rows."""
    acc: dict[int, object] = {}
    for t, c in coeffs:
        for k, v in rows[t]:
            acc[k] = acc.get(k, 0) + c * v
    return acc


def check_witt_shape(n: int, sparse) -> None:
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


def so_table_by_wedge_identity(n: int) -> LieTable:
    """so(n, C) in the Witt wedge basis from the four-term identity

        [a^b, c^d] = (a,c) b^d - (a,d) b^c - (b,c) a^d + (b,d) a^c

    with (u_x, u_y) = 1 exactly when y = n - 1 - x, and the trace form in
    closed form: tr((a ^ b)(c ^ d)) = 2 ((a, d)(b, c) - (a, c)(b, d)), so
    u_a ^ u_b pairs with u_(n-1-b) ^ u_(n-1-a) alone, with value 2."""
    pairs = _witt_frame(n)
    dim = len(pairs)

    def put(acc, x, y, coeff):
        if x < y:
            acc[_pair_index(n, x, y)] = acc.get(_pair_index(n, x, y), 0) + coeff
        elif x > y:
            acc[_pair_index(n, y, x)] = acc.get(_pair_index(n, y, x), 0) - coeff

    rows = [[()] * dim for _ in range(dim)]
    for p, (a, b) in enumerate(pairs):
        for q in range(p + 1, dim):
            c, d = pairs[q]
            acc: dict[int, int] = {}
            if a + c == n - 1:
                put(acc, b, d, 1)
            if a + d == n - 1:
                put(acc, b, c, -1)
            if b + c == n - 1:
                put(acc, a, d, -1)
            if b + d == n - 1:
                put(acc, a, c, 1)
            if acc:
                rows[p][q] = tuple(sorted(acc.items()))
                rows[q][p] = tuple((k, -v) for k, v in rows[p][q])
    grades = tuple(n - 1 - a - b for a, b in pairs)
    form = tuple(((_pair_index(n, n - 1 - b, n - 1 - a), 2),) for a, b in pairs)
    return LieTable(dim, grades, form, tuple(map(tuple, rows)))


def spec(n, *pairs):
    """spec(4, ("1/2", 2)) -> Spectrum; magnitudes given as 'p/q' strings or ints."""
    return Spectrum(n, tuple((Fraction(lam), mult) for lam, mult in pairs))


def mult_of(s, lam) -> int:
    """The multiplicity of magnitude lam in s, 0 when lam is not one."""
    lam = as_rational(lam)
    for ell, m in s.entries:
        if ell == lam:
            return m
    return 0


def magnitudes_of(s) -> tuple[Fraction, ...]:
    """The distinct magnitudes of s, ascending."""
    return tuple(lam for lam, _ in s.entries)


def grading_of(t: LieTable) -> GradingMap:
    """Oracle for `grading`: the basis elements of a table grouped by their
    grade labels, by grade ascending."""
    groups: dict[Fraction, list[int]] = {}
    for idx, g in enumerate(t.grade):
        groups.setdefault(g, []).append(idx)
    return GradingMap(t.dim, tuple((g, tuple(groups[g])) for g in sorted(groups)))


def realize(s: Spectrum) -> LieTable:
    """so(n, C) as a table graded by s: the one table of n, sharing its
    brackets and form, with each basis element labelled by its grade in
    `grading(s)`."""
    t = _so_table(s.n)
    grade = [None] * t.dim
    for g, idx in grading(s).blocks:
        for i in idx:
            grade[i] = g
    return LieTable(t.dim, tuple(grade), t.form, t._sparse)


class WedgeBasis(namedtuple("WedgeBasis", "eigen_labels pairs")):
    """Ordered Witt eigenbasis of C^n and the induced wedge basis of so(n, C).

    `eigen_labels[a] = (lambda_a, p)` is the signed eigenvalue and the index
    within its eigenspace: the positive labels by descending lambda, then p,
    then the zeros, then the negatives mirrored, so that
    lambda_{n-1-a} = -lambda_a; (u_a, u_b) = 1 exactly when b = n - 1 - a.
    `pairs` lists the wedge basis (a, b), a < b, in lexicographic order.
    Only the labels depend on the spectrum; the pairs depend on n alone.
    """

    __slots__ = ()

    @property
    def n(self) -> int:
        return len(self.eigen_labels)

    @property
    def dim(self) -> int:
        return len(self.pairs)


@lru_cache(maxsize=256)
def wedge_basis(s: Spectrum) -> WedgeBasis:
    """The Witt labels that `grading` sums, as Fractions, with their eigenspace indices."""
    scaled, den = _scaled_labels(s)
    p = [scaled[:a].count(k) for a, k in enumerate(scaled)]  # a -lambda label takes its mirror's
    labels = tuple((Fraction(k, den), p[a] if k >= 0 else p[-1 - a]) for a, k in enumerate(scaled))
    return WedgeBasis(labels, _witt_frame(s.n))


def zeros(rows, cols) -> RatMatrix:
    return RatMatrix([[0] * cols for _ in range(rows)], cols=cols)


def transpose(m: RatMatrix) -> RatMatrix:
    return RatMatrix([[m[i, j] for i in range(m.rows)] for j in range(m.cols)], cols=m.rows)


def identity(n) -> RatMatrix:
    return RatMatrix([[1 if i == j else 0 for j in range(n)] for i in range(n)], cols=n)


def matmul(*factors: RatMatrix) -> RatMatrix:
    """The product of the factors, left to right."""
    out = factors[0]
    for other in factors[1:]:
        if out.cols != other.rows:
            raise ValueError(
                f"shape mismatch: {(out.rows, out.cols)} @ {(other.rows, other.cols)}"
            )
        cols = [[r[j] for r in other.entries] for j in range(other.cols)]
        out = RatMatrix(
            [[sum((a * b for a, b in zip(row, col)), Fraction(0)) for col in cols]
             for row in out.entries],
            cols=other.cols,
        )
    return out


def mat_add(a: RatMatrix, b: RatMatrix) -> RatMatrix:
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise ValueError(f"shape mismatch: {(a.rows, a.cols)} + {(b.rows, b.cols)}")
    return RatMatrix(
        [[x + y for x, y in zip(r1, r2)] for r1, r2 in zip(a.entries, b.entries)], cols=a.cols
    )


def scaled(m: RatMatrix, c) -> RatMatrix:
    c = as_rational(c)
    return RatMatrix([[c * v for v in row] for row in m.entries], cols=m.cols)


def trace(m: RatMatrix) -> Fraction:
    if m.rows != m.cols:
        raise ValueError("trace of a non-square matrix")
    return sum((m.entries[i][i] for i in range(m.rows)), Fraction(0))


def charpoly_by_berkowitz(a: Sequence[Sequence]) -> list:
    """Reference for charpoly: the coefficients of det(xI - a), highest
    degree first, for any square matrix, by Berkowitz's general method.

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


def rref_by_fractions(m: RatMatrix) -> tuple[int, RatMatrix]:
    """Oracle for rref: textbook Gauss-Jordan elimination on the Fraction
    entries, each pivot row divided by its pivot as soon as it is chosen."""
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
    def zero(cls, ambient_dim: int):
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


def span(vectors, ambient_dim) -> Subspace:
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


def full_space(dim) -> Subspace:
    """Q^dim as a Subspace: the identity rows are its reduced basis."""
    return Subspace(dim, identity(dim))


# The index-set path: theorem2 and Theorem 1 on sets of Witt wedge indices
# of the so(n, C) table, with no appeal to g_0-cells.  `cell_path_mismatches`
# holds the package's cell deciders to it.


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


def iterates_by_indices(table: LieTable, a, start):
    """start, [a, start], [a, [a, start]], ... as basis-index sets, each
    bracket taken only when the next term is asked for."""
    term = frozenset(start)
    while True:
        yield term
        term = bracket_indices(table, a, term)


def descending_series_by_indices(table: LieTable, n) -> list[frozenset[int]]:
    """Central descending series [n, [n, n], [n, [n, n]], ...] of
    span{e_i : i in n}, as index sets, ending just before the first
    repetition, so a nilpotent n ends with the empty set."""
    series = []
    for term in islice(iterates_by_indices(table, n, n), table.dim + 2):
        if series and term == series[-1]:
            return series
        series.append(term)
    raise ValueError("descending series did not stabilize; is n a subalgebra?")


def theorem2_by_indices(s: Spectrum) -> Verdict:
    """Oracle for theorem2_check: the [g_1, .] iterates as index sets of the
    table of n against the grade spaces of grading(s), with the same jump
    past empty grades; the witness is the grading's dimensions."""
    if not condition1(s):
        return Verdict(VerdictReason.NON_INTEGRAL)
    table, gm = _so_table(s.n), grading(s)
    witness = tuple(gm.dims().items())
    spaces = {g: frozenset(idx) for g, idx in gm.blocks if g > 0}
    kmax = max(spaces, default=0)
    g1 = spaces.get(1, frozenset())
    trace = []
    for k, current in zip(range(1, kmax + 1), iterates_by_indices(table, g1, g1)):
        required = spaces.get(k, frozenset())
        trace.append((k, len(current), len(required)))
        if not current and not required:
            k = min(g for g in spaces if g > k)
            required = spaces[k]
            trace.append((k, 0, len(required)))
        if current != required:
            return Verdict(VerdictReason.GENERATION_FAILS, trace[-1], tuple(trace), witness)
    return Verdict(VerdictReason.CANONICAL, trace=tuple(trace), witness=witness)


def theorem1_by_indices(s: Spectrum) -> tuple[dict[str, bool], list[frozenset[int]]]:
    """Oracle for theorem1_report: its properties on index sets of the table
    of n and grading(s), with the descending series of the nilradical."""
    table, gm = _so_table(s.n), grading(s)
    grades = gm.grades()
    deepest = max([int(g) for g in grades if g > 0 and g.denominator == 1], default=0)
    nilradical = gm.tail_indices(1)
    series = descending_series_by_indices(table, nilradical)
    steps = max(len(series), deepest + 1)
    matches = all(
        series[min(r, len(series)) - 1] == gm.tail_indices(r) for r in range(1, steps + 1)
    )
    return {
        "integral_grades": all(g.denominator == 1 for g in grades),
        "series_matches_tails": matches,
        "polar_is_nilradical": polar_indices(table, gm.tail_indices(0)) == nilradical,
        "series_reaches_zero": not series[-1],
    }, series


def cell_path_mismatches(spectra) -> list[tuple[Spectrum, str]]:
    """(spectrum, what differs) wherever the cell deciders and the index-set
    oracles above disagree: theorem2's verdict (reason, failing grade, trace
    and grading dimensions), Theorem 1's report, the sweep's record and, for
    a canonical spectrum, the certificates of parabolic_of."""
    bad = []
    for s in spectra:
        verdict, report = theorem2_check(s), theorem1_report(s)
        expected, (expected_report, series) = theorem2_by_indices(s), theorem1_by_indices(s)
        t1 = all(expected_report.values()) if expected.canonical else None
        record = OracleRecord(s, Verdict(expected.reason, expected.failing), prop3_check(s), t1)
        if verdict != expected:
            bad.append((s, "theorem2"))
        if report != expected_report:
            bad.append((s, "theorem1"))
        if oracle_record(s) != record:
            bad.append((s, "record"))
        if verdict.canonical and all(expected_report.values()):
            pd, gm = parabolic_of(s), grading(s)
            if (pd.q, pd.nilradical, pd.series) != (gm.tail_indices(0), series[0], tuple(series)):
                bad.append((s, "parabolic"))
    return bad


def theorem2_by_every_grade(s):
    """Oracle for theorem2_check on a spectrum with integral grades:
    (failing, trace) from the [g_1, .] iterates at every grade from 1 up to
    the first failure, one trace row per grade, with no jump."""
    table = realize(s)
    spaces = {g: frozenset(idx) for g, idx in grading_of(table).blocks if g > 0}
    g1 = current = spaces.get(1, frozenset())
    trace = []
    for k in range(1, max(spaces, default=0) + 1):
        required = spaces.get(k, frozenset())
        trace.append((k, len(current), len(required)))
        if current != required:
            return trace[-1], tuple(trace)
        current = bracket_indices(table, g1, current)
    return None, tuple(trace)


def spectrum_from_matrix_by_kernels(m: RatMatrix):
    """Oracle for spectrum_from_matrix: the same grid search on the
    characteristic polynomial of N = -4 D m^2, D the lcm of the denominators
    of m^2 as Fractions, with each multiplicity read off a canonical kernel:
    mult(0) = dim ker m and mult(j/2) = dim ker(m^2 + (j/2)^2 I) / 2.
    `m` must be skew-symmetric with n >= 3; nothing here checks it."""
    n = m.rows
    m2 = matmul(m, m)
    mult0 = kernel(m).dim
    scale = math.lcm(*(v.denominator for row in m2.entries for v in row))
    gram = [[-4 * v.numerator * (scale // v.denominator) for v in row] for row in m2.entries]
    top = math.isqrt(math.floor(-2 * trace(m2)))
    entries = []
    for j, _ in _grid_roots(charpoly_by_berkowitz(gram), scale, top):
        lam = Fraction(j, 2)
        d = kernel(mat_add(m2, scaled(identity(n), lam * lam))).dim
        if d % 2:
            raise RuntimeError(f"kernel of m^2 + {lam * lam} has odd dimension {d}")
        if d:
            entries.append((lam, d // 2))
    if mult0 + 2 * sum(mult for _, mult in entries) != n:
        return None
    if mult0:
        entries.insert(0, (Fraction(0), mult0))
    return Spectrum(n, tuple(entries))


def grade_dims_by_counting(s):
    """Independent oracle: grading dimensions from label-pair combinatorics.

    Counts wedge pairs (a, b), a < b, bucketed by the sum of their signed
    eigenvalues, without touching the structure constants.
    """
    den = math.lcm(*(lam.denominator for lam, _ in s.entries))
    labels = []  # lambda * den, so that pair sums are int additions
    for lam, mult in s.entries:
        labels.extend([int(lam * den)] * mult)
        if lam != 0:
            labels.extend([-int(lam * den)] * mult)
    dims = Counter(
        labels[i] + labels[j] for i in range(len(labels)) for j in range(i + 1, len(labels))
    )
    return {Fraction(g, den): d for g, d in dims.items()}


def brute_force_spectra(n, max_half_steps):
    """All valid spectra with magnitudes j/2, 1 <= j <= max_half_steps, plus 0.

    Written independently of the production generator so the two can be
    checked against each other.
    """
    return spectra_over(n, [Fraction(j, 2) for j in range(1, max_half_steps + 1)])


def spectra_over(n, magnitudes):
    """Every valid so(n) spectrum whose positive magnitudes come from
    `magnitudes`, with 0 for the rest: the multisets of at most n // 2 of them."""
    out = []
    for size in range(n // 2 + 1):
        for combo in combinations_with_replacement(sorted(magnitudes), size):
            m0 = n - 2 * size
            entries = ([(Fraction(0), m0)] if m0 else []) + sorted(Counter(combo).items())
            out.append(Spectrum(n, tuple(entries)))
    return out


@lru_cache(maxsize=1)
def integer_path_spectra():
    """The spectra the integer deciders are checked on against their Fraction
    oracles: every half-integral spectrum with n <= 12 at 7/2 and n <= 6 at
    25/2, then, for n <= 8, magnitudes in thirds and quarters mixed with
    integers and half-odd ones."""
    out = [s for n in range(3, 13) for s in half_integral_spectra(n, Fraction(7, 2))]
    out += [s for n in range(3, 7) for s in half_integral_spectra(n, Fraction(25, 2))]
    odd = [Fraction(p, q) for p, q in ((1, 3), (2, 3), (3, 4), (5, 4), (1, 2), (1, 1), (3, 2))]
    return tuple(out + [s for n in range(3, 9) for s in spectra_over(n, odd)])


def spectra_in_fraction_order(n, max_half_steps):
    """Oracle for half_integral_spectra: brute_force_spectra sorted on the
    Fraction key (largest magnitude, then entries)."""
    return sorted(
        brute_force_spectra(n, max_half_steps), key=lambda s: (s.max_magnitude, s.entries)
    )


def condition1_pairwise(s):
    """Integrality of grades by definition: every lambda_a + lambda_b, a < b,
    over the signed eigenvalue labels of the wedge basis is an integer."""
    lams = [lam for lam, _ in wedge_basis(s).eigen_labels]
    n = len(lams)
    return all(
        (lams[a] + lams[b]).denominator == 1 for a in range(n) for b in range(a + 1, n)
    )


def spectrum_entries_by_fractions(n, entries):
    """Oracle for Spectrum validation: the entries sorted as (Fraction, mult)
    pairs, or the InvalidSpectrum (or coercion error) raised, with the checks
    made on the magnitudes as Fractions in the order Spectrum makes them."""
    for x in (n, *(mult for _, mult in entries)):
        if isinstance(x, bool) or not isinstance(x, int):
            raise InvalidSpectrum(f"n and multiplicities must be integers, got {x!r}")
    for lam, _ in entries:
        if isinstance(lam, (bool, float)):
            raise InvalidSpectrum(f"magnitudes must be rationals, got {lam!r}")
    ents = tuple(sorted((as_rational(lam), mult) for lam, mult in entries))
    if n < 3:
        raise InvalidSpectrum(f"n must be at least 3, got {n}")
    lambdas = [lam for lam, _ in ents]
    if any(lam < 0 for lam in lambdas):
        raise InvalidSpectrum("magnitudes must be non-negative")
    if len(set(lambdas)) != len(lambdas):
        raise InvalidSpectrum("magnitudes must be distinct")
    if any(mult < 1 for _, mult in ents):
        raise InvalidSpectrum("multiplicities must be at least 1")
    total = sum(mult if lam == 0 else 2 * mult for lam, mult in ents)
    if total != n:
        raise InvalidSpectrum(f"multiplicities account for {total} of {n} dimensions")
    return ents


def condition1_by_fractions(s):
    """Oracle for condition1: every 2 lambda is an integer, and all of them
    have one parity."""
    doubled = [2 * lam for lam in magnitudes_of(s)]
    if any(d.denominator != 1 for d in doubled):
        return False
    return len({d.numerator % 2 for d in doubled}) == 1


def prop3_report_by_fractions(s):
    """Oracle for prop3_report: the magnitudes compared, as Fractions, with
    the integer ladder and the half-odd ladder."""
    mags = list(magnitudes_of(s))
    count = len(mags)
    if mags == [Fraction(i) for i in range(count)]:
        return True, f"magnitudes form the integer ladder 0..{count - 1}"
    if mags == [Fraction(2 * i + 1, 2) for i in range(count)]:
        m_half = mult_of(s, Fraction(1, 2))
        if m_half >= 2:
            return True, (
                f"magnitudes form the half-odd ladder 1/2..{mags[-1]} "
                f"with mult(1/2) = {m_half} >= 2"
            )
        return False, f"half-odd ladder, but mult(1/2) = {m_half} < 2"
    return False, "magnitudes are not an unbroken ladder from 0 or 1/2"


def canonical_by_simple_roots(s):
    """Third decider, from the root datum (Burstall–Rawnsley): xi is canonical
    iff its dominant representative is 0 or 1 on every simple root.

    The dominant representative is the r-tuple lambda_1 >= ... >= lambda_r,
    r = n // 2: each nonzero magnitude repeated mult times, padded with
    zeros.  Its simple-root values are lambda_i - lambda_(i+1) for i < r,
    then lambda_r for B_r (odd n) or lambda_(r-1) + lambda_r for D_r (even
    n).  It reads neither the table nor the grading, nor prop3's ladders."""
    r = s.n // 2
    lams = sorted((lam for lam, mult in s.entries if lam for _ in range(mult)), reverse=True)
    lams += [Fraction(0)] * (r - len(lams))
    values = [lams[i] - lams[i + 1] for i in range(r - 1)]
    values.append(lams[-1] if s.n % 2 else lams[-2] + lams[-1])
    return all(v in (0, 1) for v in values)


def _positive_tuples(parts, total):
    """All tuples of `parts` positive integers with the given sum."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for cuts in combinations(range(1, total), parts - 1):
        bounds = (0,) + cuts + (total,)
        yield tuple(bounds[i + 1] - bounds[i] for i in range(parts))


def canonical_by_families(n):
    """Oracle for enumerate_canonical: prop3's two families written out.

    Integer family: magnitudes exactly 0..k, every multiplicity >= 1.
    Half-odd family (n even): magnitudes exactly 1/2..k+1/2, multiplicity
    of 1/2 at least 2.  Sorted by largest magnitude, then entries."""
    found = [Spectrum(n, ((Fraction(0), n),))]
    for k in range(1, (n - 1) // 2 + 1):
        for total in range(k, (n - 1) // 2 + 1):
            m0 = n - 2 * total
            if m0 < 1:
                continue
            for mults in _positive_tuples(k, total):
                entries = [(Fraction(0), m0)]
                entries += [(Fraction(j + 1), mults[j]) for j in range(k)]
                found.append(Spectrum(n, tuple(entries)))
    if n % 2 == 0:
        half = n // 2
        for k in range(0, half):
            for mults in _positive_tuples(k + 1, half):
                if mults[0] < 2:
                    continue
                entries = [(Fraction(2 * j + 1, 2), mults[j]) for j in range(k + 1)]
                found.append(Spectrum(n, tuple(entries)))
    found.sort(key=lambda s: (s.max_magnitude, s.entries))
    return found


def matrix_of(s: Spectrum, basis_pair_index: int) -> RatMatrix:
    """The n x n matrix of a wedge basis element acting on eigen-coordinates.

    Column c of u_a ^ u_b is (u_a, u_c) e_b - (u_b, u_c) e_a, so the matrix
    has at most two nonzero entries and satisfies X^T G + G X = 0 for the
    Gram matrix G of the wedge basis.
    """
    wb = wedge_basis(s)
    if not 0 <= basis_pair_index < wb.dim:
        raise IndexError(
            f"basis pair index {basis_pair_index} out of range 0..{wb.dim - 1}"
        )
    a, b = wb.pairs[basis_pair_index]
    n = wb.n
    mat = [[0] * n for _ in range(n)]
    mat[b][n - 1 - a] += 1
    mat[a][n - 1 - b] -= 1
    return RatMatrix(mat, cols=n)


def normal_form(s: Spectrum) -> RatMatrix:
    """Real block normal form: one 2x2 rotation generator [[0, -l], [l, 0]]
    per positive magnitude instance (ascending), then the zero block."""
    n = s.n
    mat = [[Fraction(0)] * n for _ in range(n)]
    pos = 0
    for lam, mult in s.entries:
        if lam == 0:
            continue
        for _ in range(mult):
            mat[pos][pos + 1] = -lam
            mat[pos + 1][pos] = lam
            pos += 2
    return RatMatrix(mat, cols=n)


def cayley(a):
    """Rational orthogonal Q = (I - A)(I + A)^-1 for a rational skew matrix A.

    I + A is invertible because A's eigenvalues are imaginary; the inverse is
    read off the reduced form of [I + A | I].
    """
    n = a.rows
    eye = identity(n)
    plus = mat_add(eye, a)
    _, reduced = rref(RatMatrix([plus.entries[i] + eye.entries[i] for i in range(n)]))
    inverse = RatMatrix([row[n:] for row in reduced.entries], cols=n)
    return matmul(mat_add(eye, scaled(a, -1)), inverse)


def conjugated_normal_form(s, a):
    """Q N(s) Q^T for the Cayley Q of the skew matrix A: spectrum s, entries mixed."""
    q = cayley(a)
    return matmul(q, normal_form(s), transpose(q))


def dense_invariance_failure(bracket_table, form):
    """Dense oracle for form invariance: the first basis triple (i, j, k),
    j <= k, in lexicographic order with <[e_i, e_j], e_k> + <e_j, [e_i, e_k]>
    nonzero, as ((i, j, k), that sum), or None.

    Every triple is summed against the full Gram matrix.  Like build_table's
    check, it reads <e_j, x> from row j, so it expects a symmetric form.
    """
    dim = len(bracket_table)
    f = form.entries
    sparse = [
        [tuple((k, v) for k, v in enumerate(row) if v != 0) for row in per_i]
        for per_i in bracket_table
    ]
    for i in range(dim):
        sp_i = sparse[i]
        for j in range(dim):
            fj = f[j]
            for k in range(j, dim):
                total = sum(v * f[t][k] for t, v in sp_i[j])
                total += sum(v * fj[t] for t, v in sp_i[k])
                if total != 0:
                    return (i, j, k), total
    return None


def jacobi_failure_by_triples(brackets):
    """Oracle for build_table's Jacobi check: the first basis triple
    (i, j, k), i < j < k, in lexicographic order on which
    [e_i, [e_j, e_k]] + [e_j, [e_k, e_i]] + [e_k, [e_i, e_j]] has a nonzero
    coordinate, or None.

    Every triple is summed, whether or not any of its brackets chain.
    `brackets[i][j]` lists [e_i, e_j] as (index, coefficient) pairs.
    """
    dim = len(brackets)
    for i in range(dim):
        for j in range(i + 1, dim):
            for k in range(j + 1, dim):
                acc = {}
                for x, (y, z) in ((i, (j, k)), (j, (k, i)), (k, (i, j))):
                    for c, v in brackets[y][z]:
                        for t, w in brackets[x][c]:
                            acc[t] = acc.get(t, 0) + v * w
                if any(v != 0 for v in acc.values()):
                    return i, j, k
    return None


def dense_symmetry_failure(form):
    """Dense oracle for form symmetry: the first pair (i, j), i < j, in
    lexicographic order with form[i, j] != form[j, i], or None."""
    for i in range(form.rows):
        for j in range(i + 1, form.rows):
            if form[i, j] != form[j, i]:
                return i, j
    return None


def sparse_rows(dense):
    """A dense bracket table, dense[i][j] the coordinate row of [e_i, e_j],
    as the (index, coefficient) pairs build_table takes; zeros are left out."""
    return [
        [tuple((k, v) for k, v in enumerate(row) if v != 0) for row in per_i]
        for per_i in dense
    ]


def sparse_form(gram):
    """A Gram matrix (RatMatrix) as the (column, value) rows build_table
    takes; zeros are left out."""
    return [tuple((k, v) for k, v in enumerate(row) if v != 0) for row in gram.entries]


def dense_form(t):
    """The Gram matrix of the form of `t`, as a RatMatrix."""
    gram = [[0] * t.dim for _ in range(t.dim)]
    for i, row in enumerate(t.form):
        for k, v in row:
            gram[i][k] = v
    return RatMatrix(gram, cols=t.dim)


def dense_rows(t):
    """The bracket table of `t` as dense coordinate rows, a tuple per [e_i, e_j]."""
    out = []
    for per_i in t._sparse:
        rows = []
        for hits in per_i:
            row = [0] * t.dim
            for k, v in hits:
                row[k] = v
            rows.append(tuple(row))
        out.append(tuple(rows))
    return tuple(out)


def table_key(t):
    """What two tables must share to be the same graded algebra with form:
    dimension, grades, form rows and every bracket."""
    return t.dim, t.grade, t.form, dense_rows(t)


def dense_antisymmetry_failure(bracket_table):
    """Dense oracle for antisymmetry: the first basis pair (i, j), i <= j, in
    lexicographic order with a coordinate of [e_i, e_j] + [e_j, e_i] nonzero,
    or None."""
    dim = len(bracket_table)
    for i in range(dim):
        for j in range(i, dim):
            rij, rji = bracket_table[i][j], bracket_table[j][i]
            if any(rij[k] != -rji[k] for k in range(dim)):
                return i, j
    return None


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    if a.ambient_dim != b.ambient_dim:
        raise ValueError(f"ambient dims differ: {a.ambient_dim} vs {b.ambient_dim}")
    return span(a.basis.entries + b.basis.entries, a.ambient_dim)


def unit_span(dim, indices):
    """span{e_i : i in indices} in Q^dim.  The unit rows in ascending order
    are its reduced row-echelon basis, which the Subspace constructor checks."""
    rows = [[1 if k == i else 0 for k in range(dim)] for i in sorted(indices)]
    return Subspace(dim, RatMatrix(rows, cols=dim))


def space_at(gm, r) -> Subspace:
    """The grade-r space of the grading map, spanned by basis unit vectors."""
    return unit_span(gm.ambient_dim, gm.indices_at(r))


def tail_space(gm, r) -> Subspace:
    """The sum of the grade spaces with grade >= r, spanned by basis unit vectors."""
    return unit_span(gm.ambient_dim, gm.tail_indices(r))


def tails_by_sums(gm):
    """Grading tails by definition, {g: sum of the grade spaces with grade
    >= g} for every grade g of the map, as chained subspace sums."""
    out = {}
    acc = Subspace.zero(gm.ambient_dim)
    for g in reversed(gm.grades()):
        acc = subspace_sum(acc, space_at(gm, g))
        out[g] = acc
    return out


def _sparse_vec(vec) -> tuple:
    return tuple((i, v) for i, v in enumerate(vec) if v != 0)


def bracket_spaces(t: LieTable, a: Subspace, b: Subspace) -> Subspace:
    """Span of [x, y] over x in a basis of `a`, y in a basis of `b`."""
    if a.ambient_dim != t.dim or b.ambient_dim != t.dim:
        raise ValueError("subspace ambient dimension does not match the algebra")
    out_rows = []
    a_items = [_sparse_vec(v) for v in a.basis.entries]
    b_items = [_sparse_vec(v) for v in b.basis.entries]
    for x in a_items:
        for y in b_items:
            acc: dict = {}
            for i, xa in x:
                sp_i = t._sparse[i]
                for j, yb in y:
                    coeff = xa * yb
                    for k, c in sp_i[j]:
                        acc[k] = acc.get(k, 0) + coeff * c
            if any(v != 0 for v in acc.values()):
                out_rows.append(tuple(acc.get(k, 0) for k in range(t.dim)))
    return span(out_rows, t.dim)


def generated_subalgebra(t: LieTable, seed: Subspace) -> Subspace:
    """Smallest bracket-closed subspace containing `seed`.

    Iterates s <- s + [s, s]; dimensions strictly increase until the
    fixpoint, so this needs at most dim steps.
    """
    current = seed
    while True:
        bigger = subspace_sum(current, bracket_spaces(t, current, current))
        if bigger.dim == current.dim:
            return current
        current = bigger


def regrade(t, grade):
    """Oracle for relabelling: the algebra of `t` under new grade labels, one
    per basis element, after the full grade-dependent checks of build_table.

    Shares the validated brackets and form of `t`; raises
    GradingViolation when a bracket leaves grade(i) + grade(j) or when the
    grade multiset is not symmetric under negation.
    """
    grades = _grade_labels(grade, t.dim)
    _check_grading(t._sparse, grades)
    return LieTable(t.dim, grades, t.form, t._sparse)


def descending_series(t: LieTable, n: Subspace) -> list[Subspace]:
    """Central descending series of the subalgebra n.

    Returns [n, [n, n], [n, [n, n]], ...] and stops just before the first
    repetition, so a nilpotent n yields a chain ending in the zero subspace.
    """
    series = [n]
    for _ in range(t.dim + 1):
        nxt = bracket_spaces(t, n, series[-1])
        if nxt == series[-1]:
            return series
        series.append(nxt)
    raise ValueError("descending series did not stabilize; is n a subalgebra?")


def polar(t: LieTable, a: Subspace) -> Subspace:
    """{x : <x, a> = 0} with respect to the table's bilinear form."""
    if a.ambient_dim != t.dim:
        raise ValueError("subspace ambient dimension does not match the algebra")
    if rref(dense_form(t))[0] < t.dim:
        raise DegenerateForm("bilinear form is degenerate; polars are undefined")
    constraints = []
    for vec in a.basis.entries:
        acc = _combine(_sparse_vec(vec), t.form)
        constraints.append([acc.get(k, 0) for k in range(t.dim)])
    return kernel(RatMatrix(constraints, cols=t.dim))


def direct_sum(a: LieTable, b: LieTable) -> LieTable:
    """Block-diagonal sum: brackets and form act blockwise, grades concatenate."""
    dim = a.dim + b.dim
    rows = [[()] * dim for _ in range(dim)]
    for i in range(a.dim):
        for j in range(a.dim):
            rows[i][j] = a._sparse[i][j]
    for i in range(b.dim):
        for j in range(b.dim):
            rows[a.dim + i][a.dim + j] = tuple((a.dim + k, v) for k, v in b._sparse[i][j])

    form = [*a.form, *(tuple((a.dim + k, v) for k, v in row) for row in b.form)]
    return build_table(dim, rows, a.grade + b.grade, form)


def _record_json(rec):
    """One `verify` record as the dict that json.dumps renders."""
    return {
        "n": rec.spectrum.n,
        "spectrum": rec.spectrum.to_json(),
        "theorem2": {
            "canonical": rec.verdict.canonical,
            "reason": rec.verdict.reason.value,
            "failing": None
            if rec.verdict.failing is None
            else dict(zip(("grade", "achieved", "required"), rec.verdict.failing)),
        },
        "prop3": rec.prop3,
        "theorem1": rec.theorem1_ok,
        "agree": rec.agree,
    }


def enumerate_doc(n):
    """Oracle for `enumerate --format json`: the document as the dict that
    json.dumps(indent=2) renders."""
    classes = enumerate_canonical(n)
    payload = []
    for s in classes:
        dims = dict(sorted(grade_dims_by_counting(s).items()))
        payload.append({"spectrum": s.to_json(), "grading": _grading_cells(dims.items())})
    return {"command": "enumerate", "n": n, "count": len(classes), "classes": payload}


def table_row(rec):
    """One `verify` record's table cells, each made from the record alone."""
    return (
        str(rec.spectrum.n),
        str(rec.spectrum),
        _verdict_summary(rec.verdict),
        "yes" if rec.prop3 else "no",
        "-" if rec.theorem1_ok is None else ("ok" if rec.theorem1_ok else "FAIL"),
        "yes" if rec.agree else "NO",
    )


def verify_by_dumps(max_n, max_lambda, fmt):
    """Oracle for `verify`: (exit code, stdout) rendered from the full list of
    records, JSON as one json.dumps(indent=2) of the document and the table
    from a list of every row."""
    bound = Fraction(max_lambda)
    records = [
        oracle_record(s) for n in range(3, max_n + 1) for s in half_integral_spectra(n, bound)
    ]
    bad = [r for r in records if not r.ok]
    canonical_count = sum(1 for r in records if r.verdict.canonical)
    agreements = sum(1 for r in records if r.agree)
    code = 1 if bad else 0
    if fmt == "json":
        doc = {
            "command": "verify",
            "max_n": max_n,
            "max_lambda": str(bound),
            "tested": len(records),
            "agreements": agreements,
            "canonical": canonical_count,
            "discrepancies": [_record_json(r) for r in bad],
            "results": [_record_json(r) for r in records],
        }
        return code, json.dumps(doc, indent=2) + "\n"
    lines = [f"oracle sweep: n = 3..{max_n}, magnitudes <= {bound}"]
    rows = [table_row(rec) for rec in records]
    headers = ("n", "spectrum", "theorem2", "prop3", "theorem1", "agree")
    widths = [max(map(len, column)) for column in zip(headers, *rows)]
    for r in (headers, *rows):
        lines.append("  " + "  ".join(v.ljust(w) for v, w in zip(r, widths)))
    lines.append(
        f"tested: {len(records)}   agreements: {agreements}   "
        f"canonical: {canonical_count}   discrepancies: {len(bad)}"
    )
    for rec in bad:
        lines.append(
            f"  DISCREPANCY so({rec.spectrum.n}) {rec.spectrum}: "
            f"theorem2={_verdict_summary(rec.verdict)} prop3={rec.prop3} "
            f"theorem1={rec.theorem1_ok}"
        )
    return code, "\n".join(lines) + "\n"
