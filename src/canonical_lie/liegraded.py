"""Finite-dimensional graded Lie algebras as structure-constant tables.

A :class:`LieTable` packages an ordered basis, the rational coordinates of
every bracket [e_i, e_j], a rational grade label per basis element (the
element sits in the (I*grade)-eigenspace of the grading derivation) and the
rows of the Gram matrix of an invariant symmetric bilinear form.  Brackets
and the form are kept in one sparse format: [e_i, e_j], and row i of the
form, are their nonzero (index, coefficient) pairs in ascending index order.
No dense matrix is kept.

The class itself checks nothing; how a table is built must make it a Lie
algebra.  The one builder in the package, :func:`sonreal._so_table`,
computes so(n, C) once per n from its faithful matrix realization: every
bracket row is the coordinates of a matrix commutator and every form row the
traces of matrix products, so antisymmetry, the Jacobi identity and
invariance of the form follow from matrix algebra rather than from sums over
basis triples.

One table can carry many gradings that share its brackets and form.
:func:`sonreal.grading` grades the so(n, C) table as a :class:`GradingMap`
over its basis: a table computed from its matrix realization, and mirrored
eigenvalue labels, imply that every bracket respects the grades and
that the grade multiset is symmetric, so no grading is checked per bracket.

Every subspace here is a coordinate subspace, given as the set of basis
indices that spans it: the grade spaces and tails of a :class:`GradingMap`.
:class:`NotMonomial` and :class:`DegenerateForm` are the errors of brackets
and polars of such index sets, exact only when every bracket they meet is a
multiple of one basis element and the form is monomial and nondegenerate;
strict generation (:func:`canonical.strict_generation_report`) raises the
first.
"""

from collections import namedtuple

from .exactlin import as_rational


class LieTableError(ValueError):
    """A structure-constant table failed validation."""


class GradingViolation(LieTableError):
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
    """Structure-constant table; its builder makes it a Lie algebra (see the module docstring)."""

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
