"""Exact linear algebra: the matrix container, RREF and charpoly, then the
test oracles built on them: matrix arithmetic, spans, the subspace lattice
and kernels."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canonical_lie import RatMatrix, parse_rational, rref
from canonical_lie.exactlin import charpoly, ratio
from helpers import (
    Subspace,
    full_space,
    identity,
    kernel,
    mat_add,
    matmul,
    rref_by_fractions,
    scaled,
    span,
    subspace_sum,
    trace,
    transpose,
    zeros,
)

fractions = st.fractions(min_value=-4, max_value=4, max_denominator=3)


def matrix_strategy(max_rows=4, max_cols=5):
    return st.integers(1, max_rows).flatmap(
        lambda r: st.integers(1, max_cols).flatmap(
            lambda c: st.lists(
                st.lists(fractions, min_size=c, max_size=c), min_size=r, max_size=r
            )
        )
    )


def subspace_strategy(ambient=4):
    rows = st.lists(fractions, min_size=ambient, max_size=ambient)
    return st.lists(rows, min_size=0, max_size=4).map(lambda vs: span(vs, ambient))


class TestRatMatrix:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            RatMatrix([[1, 2], [3]])

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            RatMatrix([[0.5]])

    def test_matmul_and_identity(self):
        m = RatMatrix([[1, 2], [3, 4]])
        assert matmul(m, identity(2)) == m
        assert matmul(m, m)[0, 0] == 7

    def test_transpose_trace(self):
        m = RatMatrix([[1, 2, 0], [0, 1, 5]])
        t = transpose(m)
        assert (t.rows, t.cols) == (3, 2)
        assert trace(RatMatrix([[2, 0], [0, 3]])) == 5

    def test_empty_matrix_has_explicit_width(self):
        m = RatMatrix((), cols=4)
        assert (m.rows, m.cols) == (0, 4)


class TestRref:
    def test_identity(self):
        rank, red = rref(identity(3))
        assert rank == 3
        assert red == identity(3)

    def test_zero(self):
        rank, red = rref(zeros(2, 4))
        assert rank == 0
        assert red == zeros(2, 4)

    def test_proportional_rows(self):
        rank, red = rref(RatMatrix([[1, 2], [2, 4]]))
        assert rank == 1
        assert red == RatMatrix([[1, 2], [0, 0]])

    @settings(max_examples=40, deadline=None)
    @given(matrix_strategy())
    def test_rank_equals_transpose_rank(self, rows):
        m = RatMatrix(rows)
        assert rref(m)[0] == rref(transpose(m))[0]

    @settings(max_examples=40, deadline=None)
    @given(matrix_strategy())
    def test_rref_is_idempotent(self, rows):
        _, red = rref(RatMatrix(rows))
        assert rref(red)[1] == red


MIXED = st.one_of(st.just(Fraction(0)), st.fractions(-6, 6, max_denominator=12))


@st.composite
def rref_inputs(draw):
    """Matrices of any shape up to 6 x 6, 0 x k and k x 0 included, with
    mixed denominators: drawn entries, or a rational product of rank at most
    3, so that rows eliminate to all zeros; then some rows zeroed."""
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 6))

    def block(r, c):
        return draw(st.lists(st.lists(MIXED, min_size=c, max_size=c), min_size=r, max_size=r))

    if rows and cols and draw(st.booleans()):
        inner = draw(st.integers(1, 3))
        m = matmul(RatMatrix(block(rows, inner)), RatMatrix(block(inner, cols)))
        entries = [list(row) for row in m.entries]
    else:
        entries = block(rows, cols)
    for r in draw(st.sets(st.integers(0, 5))):
        if r < rows:
            entries[r] = [0] * cols
    return RatMatrix(entries, cols=cols)


class TestFractionFreeRref:
    """rref eliminates on integer rows; its result must be the Gauss-Jordan
    one, entry for entry, and every entry a Fraction."""

    @staticmethod
    def _matches_oracle(m):
        got = rref(m)
        assert got == rref_by_fractions(m)
        rank, reduced = got
        assert (reduced.rows, reduced.cols) == (m.rows, m.cols)
        assert all(type(v) is Fraction for row in reduced.entries for v in row)

    @settings(max_examples=200, deadline=None)
    @given(rref_inputs())
    def test_matches_gauss_jordan(self, m):
        self._matches_oracle(m)

    @pytest.mark.parametrize(
        "m",
        [
            RatMatrix((), cols=0),
            RatMatrix((), cols=3),
            RatMatrix([[], [], []]),
            RatMatrix([[0, 0], [0, 0]]),
            # the second and third rows eliminate to all zeros (content 0)
            RatMatrix([[1, 2, 3], [2, 4, 6], [Fraction(1, 2), 1, Fraction(3, 2)]]),
            RatMatrix([[Fraction(1, 3), Fraction(1, 4)], [Fraction(2, 5), Fraction(-1, 6)]]),
            RatMatrix([[0, 6, 4], [0, 0, 0], [3, 3, Fraction(7, 2)], [6, 12, 11]]),
        ],
        ids=["0x0", "0x3", "3x0", "zero", "rank one", "mixed denominators", "zero row"],
    )
    def test_edge_shapes(self, m):
        self._matches_oracle(m)


class TestCharpoly:
    def test_two_by_two(self):
        # x^2 - (a + d) x + (ad - bc)
        assert charpoly([[1, 2], [3, 4]]) == [1, -5, -2]

    def test_empty_and_non_square(self):
        assert charpoly([]) == [1]
        with pytest.raises(ValueError):
            charpoly([[1, 2]])

    def test_integer_matrix_gives_integer_coefficients(self):
        poly = charpoly([[0, -7, 1], [7, 0, 3], [-1, -3, 0]])
        assert all(type(c) is int for c in poly)
        # skew: x^3 + (7^2 + 1^2 + 3^2) x
        assert poly == [1, 0, 59, 0]

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1, 5).flatmap(
            lambda n: st.lists(st.lists(fractions, min_size=n, max_size=n), min_size=n, max_size=n)
        )
    )
    def test_cayley_hamilton(self, rows):
        # p(A) = 0, the leading coefficient is 1 and the next is -trace
        m = RatMatrix(rows)
        poly = charpoly(rows)
        assert poly[0] == 1 and poly[1] == -trace(m)
        acc = zeros(m.rows, m.rows)
        for c in poly:
            acc = mat_add(matmul(acc, m), scaled(identity(m.rows), c))
        assert acc == zeros(m.rows, m.rows)


class TestSpan:
    def test_empty_span_is_zero(self):
        assert span([], 5) == Subspace.zero(5)

    def test_spanning_vectors_give_full_space(self):
        s = span([[1, 0], [1, 1]], 2)
        assert s == full_space(2)

    def test_rank3_matrix_and_respan_idempotence(self):
        # three visibly independent rows plus r4 = r1 + 2*r2 - r3
        r1 = [1, 0, 0, 2, 3, 4]
        r2 = [0, 1, 0, 5, 6, 7]
        r3 = [0, 0, 1, 8, 9, 10]
        r4 = [a + 2 * b - c for a, b, c in zip(r1, r2, r3)]
        s = span([r1, r2, r3, r4], 6)
        assert s.dim == 3
        assert span(s.basis.entries, 6) == s

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            span([[1, 2, 3]], 2)

    def test_constructor_rejects_non_rref_basis(self):
        with pytest.raises(ValueError):
            Subspace(2, RatMatrix([[2, 0]]))
        with pytest.raises(ValueError):
            Subspace(2, RatMatrix([[0, 0]]))


class TestLattice:
    def test_sum_and_intersection_of_axes(self):
        e1 = span([[1, 0, 0]], 3)
        e2 = span([[0, 1, 0]], 3)
        # the dimensions add, so the axes meet only in zero
        assert subspace_sum(e1, e2).dim == e1.dim + e2.dim == 2

    def test_intersection_of_planes(self):
        a = span([[1, 0, 0], [0, 1, 0]], 3)
        b = span([[0, 1, 0], [0, 0, 1]], 3)
        line = span([[0, 1, 0]], 3)
        # the line lies in both planes, and dim(a + b) = 3 leaves room for a
        # one-dimensional intersection only, so the planes meet in that line
        assert subspace_sum(a, line) == a and subspace_sum(b, line) == b
        assert a.dim + b.dim - subspace_sum(a, b).dim == line.dim

    def test_ambient_mismatch(self):
        with pytest.raises(ValueError):
            subspace_sum(Subspace.zero(2), Subspace.zero(3))

    @settings(max_examples=60, deadline=None)
    @given(subspace_strategy(), subspace_strategy(), subspace_strategy())
    def test_sum_is_the_join(self, a, b, c):
        total = subspace_sum(a, b)
        assert total == subspace_sum(b, a)
        assert subspace_sum(a, a) == a
        assert subspace_sum(a, Subspace.zero(4)) == a
        assert subspace_sum(a, total) == total and subspace_sum(b, total) == total
        assert subspace_sum(total, c) == subspace_sum(a, subspace_sum(b, c))
        assert max(a.dim, b.dim) <= total.dim <= a.dim + b.dim

    def test_equality_is_canonical(self):
        a = span([[1, 1, 0], [0, 0, 1]], 3)
        b = span([[1, 1, 1], [0, 0, 2]], 3)
        assert a == b
        assert a.basis.entries == b.basis.entries


class TestKernel:
    def test_identity_kernel_is_zero(self):
        assert kernel(identity(3)) == Subspace.zero(3)

    def test_zero_matrix_kernel_is_full(self):
        assert kernel(zeros(3, 3)) == full_space(3)

    def test_small_elimination(self):
        k = kernel(RatMatrix([[1, 1, 0], [0, 0, 1]]))
        assert k == span([[1, -1, 0]], 3)

    @settings(max_examples=40, deadline=None)
    @given(matrix_strategy())
    def test_rank_nullity(self, rows):
        m = RatMatrix(rows)
        assert kernel(m).dim + rref(m)[0] == m.cols

    @settings(max_examples=30, deadline=None)
    @given(matrix_strategy())
    def test_kernel_vectors_are_killed(self, rows):
        m = RatMatrix(rows)
        for v in kernel(m).basis.entries:
            col = RatMatrix([[x] for x in v], cols=1)
            assert all(e == (Fraction(0),) for e in matmul(m, col).entries)


class TestParseRational:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("1/2", Fraction(1, 2)),
            ("-3", -3),
            ("0", 0),
            ("+4/10", Fraction(2, 5)),
            (" 7 ", 7),
            ("\u0663/2\u0660", Fraction(3, 20)),  # Arabic-Indic digits: Unicode Nd
        ],
    )
    def test_accepts(self, text, value):
        assert parse_rational(text) == value
        assert ratio(text) == (value.numerator, value.denominator)

    @pytest.mark.parametrize(
        "text",
        [
            "1.5",
            "1/0",
            "1/05",
            "+-1",
            "1/-2",
            "1/+2",
            "a/b",
            "",
            "-",
            "/2",
            "1/",
            "1/2/3",
            "1e3",
            "1 /2",
            "1/\u0664",  # a denominator starts with an ASCII 1-9
            "\u00b2",  # superscript two: a digit, but not Nd
        ],
    )
    def test_rejects(self, text):
        with pytest.raises(ValueError):
            parse_rational(text)
