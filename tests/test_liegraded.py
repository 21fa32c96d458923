"""The g_0-cell layer against the table oracle, and the oracle's own
structure-constant engine: validation, brackets, series, polars, sums."""

import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canonical_lie import (
    RatMatrix,
    condition1,
    enumerate_canonical,
    grade_dims,
    half_integral_spectra,
    rref,
    theorem2_check,
)
from canonical_lie.liegraded import _pair_index, _witt_bracket
from helpers import (
    AntisymmetryViolation,
    DegenerateForm,
    FormNotInvariant,
    GradingViolation,
    JacobiViolation,
    LieTable,
    LieTableError,
    NotMonomial,
    Subspace,
    _so_table,
    _witt_frame,
    bracket_indices,
    bracket_spaces,
    build_table,
    dense_antisymmetry_failure,
    dense_form,
    dense_invariance_failure,
    dense_rows,
    dense_symmetry_failure,
    descending_series,
    direct_sum,
    full_space,
    generated_subalgebra,
    grading,
    grading_of,
    identity,
    integer_path_spectra,
    jacobi_failure_by_triples,
    kernel,
    matmul,
    polar,
    polar_indices,
    realize,
    regrade,
    scaled,
    space_at,
    sparse_form,
    sparse_rows,
    span,
    spec,
    subspace_sum,
    table_key,
    tail_space,
    tails_by_sums,
    zeros,
)

SPECTRA_N7 = tuple(s for n in range(3, 8) for s in half_integral_spectra(n, Fraction(5, 2)))


class TestWittBracket:
    """The closed-form bracket against the so(n, C) table of the matrix
    realization."""

    def test_closed_form_is_the_table(self):
        # every ordered wedge pair for n = 3..24; coincident terms must be
        # summed, or the self-brackets of the diagonal wedges u_a ^ u_(n-1-a)
        # would keep two opposite terms
        pairs = diagonal_selves = 0
        for n in range(3, 25):
            frame, rows = _witt_frame(n), _so_table(n)._sparse
            for p, x in enumerate(frame):
                x_root = x[0] + x[1] != n - 1
                for q, y in enumerate(frame):
                    terms = _witt_bracket(n, x, y)
                    got = tuple(sorted([(_pair_index(n, *w), v) for w, v in terms.items()]))
                    assert got == rows[p][q], (n, x, y)
                    # two root wedges bracket to one root-wedge term or to diagonal terms alone
                    if x_root and y[0] + y[1] != n - 1:
                        on_roots = [w for w in terms if w[0] + w[1] != n - 1]
                        assert not on_roots or len(terms) == 1, (n, x, y)
                    pairs += 1
                    diagonal_selves += p == q and not x_root
        assert (pairs, diagonal_selves) == (396_979, 143)


class TestGradeDims:
    """grade_dims from the g_0-cells against the table oracle's grading and
    theorem2's witness."""

    def test_matches_the_table_grading(self):
        # order and key types too: integral grades are ints, the rest Fractions
        kinds = set()
        for s in integer_path_spectra():
            got, want = list(grade_dims(s).items()), list(grading(s).dims().items())
            assert got == want, str(s)
            assert [type(g) for g, _ in got] == [type(g) for g, _ in want], str(s)
            kinds.update(type(g) for g, _ in got)
        assert kinds == {int, Fraction}

    def test_matches_the_witness(self):
        sweep = [s for n in range(3, 10) for s in half_integral_spectra(n, "7/2")]
        integral = [s for s in sweep if condition1(s)]
        classes = [s for n in range(3, 25) for s in enumerate_canonical(n)]
        for s in integral + classes:
            assert tuple(grade_dims(s).items()) == theorem2_check(s).witness, str(s)
        assert len(integral) < len(sweep) and len(classes) == 10235


def cross_product_table():
    """so(3) with [e1,e2]=e3, [e2,e3]=e1, [e3,e1]=e2."""
    rows = [[[0, 0, 0] for _ in range(3)] for _ in range(3)]

    def setrow(i, j, row):
        rows[i][j] = row
        rows[j][i] = [-v for v in row]

    setrow(0, 1, [0, 0, 1])
    setrow(1, 2, [1, 0, 0])
    setrow(2, 0, [0, 1, 0])
    return rows


def so3_table(form=None, grades=(0, 0, 0)):
    if form is None:
        form = RatMatrix([[-2, 0, 0], [0, -2, 0], [0, 0, -2]])
    return build_table(3, sparse_rows(cross_product_table()), grades, sparse_form(form))


class TestBuildTable:
    def test_cross_product_algebra_is_valid(self):
        t = so3_table()
        assert t.dim == 3
        assert dense_rows(t)[0][1] == (0, 0, 1)

    def test_antisymmetry_violation(self):
        rows = cross_product_table()
        rows[1][0] = [0, 0, 1]  # same sign as rows[0][1]
        with pytest.raises(AntisymmetryViolation) as err:
            build_table(3, sparse_rows(rows), (0, 0, 0), [((i, -2),) for i in range(3)])
        assert err.value.indices == (0, 1)

    def test_jacobi_violation(self):
        rows = [[[0, 0, 0] for _ in range(3)] for _ in range(3)]
        rows[0][1] = [0, 0, 1]
        rows[1][0] = [0, 0, -1]
        rows[0][2] = [1, 0, 0]
        rows[2][0] = [-1, 0, 0]
        with pytest.raises(JacobiViolation) as err:
            build_table(3, sparse_rows(rows), (0, 0, 0), [()] * 3)
        assert err.value.indices == (0, 1, 2)

    def test_grading_support_violation(self):
        with pytest.raises(GradingViolation):
            so3_table(grades=(1, 0, 0))

    def test_grade_symmetry_violation(self):
        zero_rows = [[[0, 0] for _ in range(2)] for _ in range(2)]
        with pytest.raises(GradingViolation):
            build_table(2, sparse_rows(zero_rows), (0, 1), sparse_form(identity(2)))

    def test_form_not_invariant(self):
        with pytest.raises(FormNotInvariant):
            so3_table(form=RatMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 2]]))

    def test_form_not_symmetric(self):
        bad = RatMatrix([[-2, 1, 0], [0, -2, 0], [0, 0, -2]])
        with pytest.raises(FormNotInvariant):
            so3_table(form=bad)

    def test_realized_tables_validate(self):
        # construction + validation agree for a spectrum-built table
        t = realize(spec(5, ("0", 3), ("1", 1)))
        assert t.dim == 10


class TestSparseInput:
    """build_table reads [e_i, e_j], and each form row, as (index,
    coefficient) pairs."""

    FORM = sparse_form(scaled(identity(3), -2))

    def _with(self, i, j, pairs):
        rows = sparse_rows(cross_product_table())
        rows[i][j] = pairs
        return rows

    @pytest.mark.parametrize("index", [3, -1, Fraction(1), "0", True])
    def test_index_outside_the_basis(self, index):
        with pytest.raises(ValueError, match=r"\[e_0, e_1\] has basis index"):
            build_table(3, self._with(0, 1, ((index, 1),)), (0, 0, 0), self.FORM)

    def test_repeated_index(self):
        with pytest.raises(ValueError, match=r"\[e_0, e_1\] repeats basis index 2"):
            build_table(3, self._with(0, 1, ((2, 1), (2, 0))), (0, 0, 0), self.FORM)

    def test_float_coefficient(self):
        with pytest.raises(TypeError, match="float"):
            build_table(3, self._with(0, 1, ((2, 1.0),)), (0, 0, 0), self.FORM)

    def test_bool_coefficient(self):
        with pytest.raises(TypeError, match=r"^bracket \[e_0, e_1\] has bool coefficient True"):
            build_table(3, self._with(0, 1, ((2, True),)), (0, 0, 0), self.FORM)

    @pytest.mark.parametrize("label", [True, False])
    def test_bool_grade_label(self, label):
        # as_rational would read True as grade 1 and False as grade 0
        with pytest.raises(TypeError, match=f"^bool coefficient {label} not allowed"):
            build_table(3, sparse_rows(cross_product_table()), (0, label, 0), self.FORM)

    @pytest.mark.parametrize(
        "pairs, error, message",
        [
            (((3, -2),), ValueError, "has basis index 3 outside"),
            (((True, -2),), ValueError, "has basis index True outside"),
            (((1, -2), (1, 0)), ValueError, "repeats basis index 1"),
            (((1, -2.0),), TypeError, "has float coefficient -2.0"),
            (((1, True),), TypeError, "has bool coefficient True"),
        ],
        ids=["outside", "bool index", "repeated", "float", "bool coefficient"],
    )
    def test_form_row_errors(self, pairs, error, message):
        form = list(self.FORM)
        form[1] = pairs
        with pytest.raises(error, match=f"^form row 1 {message}"):
            build_table(3, sparse_rows(cross_product_table()), (0, 0, 0), form)

    def test_form_row_count(self):
        with pytest.raises(ValueError, match="form has 2 rows, expected 3"):
            build_table(3, sparse_rows(cross_product_table()), (0, 0, 0), self.FORM[:2])

    def test_explicit_zeros_and_order_do_not_matter(self):
        t = so3_table()
        # every coordinate given, zeros included, in descending index order
        padded = [
            [tuple(reversed(list(enumerate(row)))) for row in per_i]
            for per_i in cross_product_table()
        ]
        padded[0][0] = ((1, Fraction(0)),)
        u = build_table(3, padded, (0, 0, 0), self.FORM)
        assert u._sparse == t._sparse
        assert table_key(u) == table_key(t)
        assert u._sparse[0][1] == ((2, 1),) and u._sparse[0][0] == ()

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_antisymmetry_corruptions_match_dense_oracle(self, n):
        t = _so_table(n)
        raised = 0
        for seed in range(12):
            rng = random.Random(f"antisymmetry-{n}-{seed}")
            rows = [[list(row) for row in per_i] for per_i in dense_rows(t)]
            for _ in range(rng.randint(1, 3)):
                i, j, k = (rng.randrange(t.dim) for _ in range(3))
                delta = rng.choice([1, -1, Fraction(1, 2)])
                rows[i][j][k] += delta
                if i != j and rng.random() < 0.5:
                    rows[j][i][k] -= delta  # still antisymmetric
            expected = dense_antisymmetry_failure(rows)
            try:
                build_table(t.dim, sparse_rows(rows), t.grade, t.form)
            except AntisymmetryViolation as err:
                assert err.indices == expected, seed
                assert str(err).endswith(f"at basis pair {expected}")
                raised += 1
            except LieTableError:
                assert expected is None, seed
            else:
                assert expected is None, seed
        assert raised >= 4

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_symmetry_corruptions_match_dense_oracle(self, n):
        t = _so_table(n)
        raised = 0
        for seed in range(12):
            rng = random.Random(f"symmetry-{n}-{seed}")
            form = [dict(row) for row in t.form]
            for _ in range(rng.randint(1, 3)):
                i, k = rng.randrange(t.dim), rng.randrange(t.dim)
                delta = rng.choice([1, -1, Fraction(1, 2)])
                form[i][k] = form[i].get(k, 0) + delta
                if rng.random() < 0.5:
                    form[k][i] = form[k].get(i, 0) + delta  # still symmetric
            gram = RatMatrix([[row.get(k, 0) for k in range(t.dim)] for row in form])
            expected = dense_symmetry_failure(gram)
            try:
                build_table(t.dim, t._sparse, t.grade, [tuple(row.items()) for row in form])
            except FormNotInvariant as err:
                if expected is None:
                    assert len(err.indices) == 3, seed  # symmetric, not invariant
                else:
                    assert err.indices == expected, seed
                    assert str(err) == f"form is not symmetric at {expected}"
                    raised += 1
            else:
                assert expected is None, seed
        assert raised >= 4


def _corrupt(t, kind, rng):
    """Raw inputs of table `t` with one seeded corruption of the given kind."""
    dim = t.dim
    rows = [[list(row) for row in per_i] for per_i in dense_rows(t)]
    form = [list(row) for row in dense_form(t).entries]
    nonzero = [(p, q) for p in range(dim) for q in range(p, dim) if form[p][q] != 0]
    p, q = rng.choice(nonzero)
    factor = rng.choice([2, -1, Fraction(1, 3), Fraction(3, 2)])
    if kind == "form scaled":
        form[p][q] = form[q][p] = factor * form[p][q]
    elif kind == "form moved":
        p2, q2 = rng.choice([(a, b) for a in range(dim) for b in range(a, dim) if form[a][b] == 0])
        value = form[p][q]
        form[p][q] = form[q][p] = 0
        form[p2][q2] = form[q2][p2] = value
    elif kind == "bracket pair":
        i, j = rng.sample(range(dim), 2)
        k = rng.randrange(dim)
        value = rows[i][j][k] + rng.choice([1, -1, Fraction(1, 2)])
        rows[i][j][k], rows[j][i][k] = value, -value
    else:
        # e_p -> factor * e_p in the brackets only: still a Lie algebra with
        # the same grading, so the failure, if any, is the form's
        for i in range(dim):
            for j in range(dim):
                scale = (factor if i == p else 1) * (factor if j == p else 1)
                row = [scale * v for v in rows[i][j]]
                row[p] = Fraction(row[p]) / factor
                rows[i][j] = row
    return rows, RatMatrix(form, cols=dim)


class TestSparseInvarianceCheck:
    """build_table's invariance check against the dense triple loop."""

    KINDS = ("form scaled", "form moved", "bracket pair", "basis rescaled")

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_corruptions_match_dense_oracle(self, n):
        t = _so_table(n)
        outcomes = set()
        for seed in range(6):
            for kind in self.KINDS:
                rows, form = _corrupt(t, kind, random.Random(f"{n}-{seed}-{kind}"))
                expected = dense_invariance_failure(rows, form)
                try:
                    build_table(t.dim, sparse_rows(rows), t.grade, sparse_form(form))
                except FormNotInvariant as err:
                    assert expected is not None, (kind, seed)
                    (i, j, k), total = expected
                    assert err.indices == (i, j, k)
                    assert str(err) == (
                        f"<[e_{i}, e_{j}], e_{k}> + <e_{j}, [e_{i}, e_{k}]> = {total} != 0"
                    )
                    outcomes.add((kind, FormNotInvariant))
                except LieTableError as err:
                    # an earlier check, which never reads the form: the zero
                    # form is invariant, and the same error must come back
                    assert not kind.startswith("form")
                    with pytest.raises(type(err)) as again:
                        build_table(t.dim, sparse_rows(rows), t.grade, [()] * t.dim)
                    assert (again.value.indices, str(again.value)) == (err.indices, str(err))
                    outcomes.add((kind, type(err)))
                else:
                    assert expected is None, (kind, seed)
        for kind in ("form scaled", "form moved", "basis rescaled"):
            assert (kind, FormNotInvariant) in outcomes

    def test_diagonal_pair_can_fail_first(self):
        # <[e_0, e_1], e_1> = <e_2, e_1> = 1, so (0, 1, 1) fails with 2 * 1
        form = RatMatrix([[-2, 0, 0], [0, -2, 1], [0, 1, -2]])
        assert dense_invariance_failure(cross_product_table(), form) == ((0, 1, 1), 2)
        with pytest.raises(FormNotInvariant) as err:
            so3_table(form=form)
        assert err.value.indices == (0, 1, 1)
        assert str(err.value) == "<[e_0, e_1], e_1> + <e_1, [e_0, e_1]> = 2 != 0"

    def test_valid_tables_pass_dense_oracle(self):
        for t in (so3_table(), _so_table(5), direct_sum(so3_table(), _so_table(4))):
            assert dense_invariance_failure(dense_rows(t), dense_form(t)) is None


@st.composite
def mixed_tables(draw):
    """A sparse bracket table with Fraction coefficients: so(3) and
    Heisenberg blocks plus abelian directions (a Lie algebra), mixed by
    elementary basis changes e_a -> e_a + t e_b so that brackets get two or
    more coordinates, then, half the time, one bracket perturbed
    antisymmetrically."""
    kinds = st.sampled_from(["so3", "heisenberg", "abelian"])
    blocks = draw(st.lists(kinds, min_size=1, max_size=2))
    br = {}  # (i, j) -> {k: coefficient}, for i != j
    dim = 0
    for block in [draw(st.sampled_from(["so3", "heisenberg"])), *blocks]:
        x, y, z = dim, dim + 1, dim + 2
        if block == "so3":
            triples = ((x, y, z), (y, z, x), (z, x, y))
        elif block == "heisenberg":
            triples = ((x, y, z),)
        else:
            dim += 1
            continue
        for i, j, k in triples:
            br[i, j], br[j, i] = {k: 1}, {k: -1}
        dim += 3
    for _ in range(draw(st.integers(1, 4))):
        a, b = draw(st.permutations(range(dim)))[:2]
        t = draw(RANK_COEFFS)
        mixed = {}
        for i in range(dim):
            for j in range(dim):
                # [f_i, f_j] with f_a = e_a + t e_b, in e coordinates
                acc = dict(br.get((i, j), {}))
                for far, near in ((i, j), (j, i)):
                    if far == a and near != a:
                        for k, v in br.get((b, near) if far == i else (near, b), {}).items():
                            acc[k] = acc.get(k, 0) + t * v
                # then in f coordinates: e_a = f_a - t f_b
                if acc.get(a):
                    acc[b] = acc.get(b, 0) - t * acc[a]
                acc = {k: v for k, v in acc.items() if v != 0}
                if acc:
                    mixed[i, j] = acc
        br = mixed
    if draw(st.booleans()):
        p, q = draw(st.permutations(range(dim)))[:2]
        k = draw(st.integers(0, dim - 1))
        c = draw(RANK_COEFFS)
        for pair, sign in (((p, q), 1), ((q, p), -1)):
            row = br.setdefault(pair, {})
            row[k] = row.get(k, 0) + sign * c
    return [
        [tuple((k, v) for k, v in sorted(br.get((i, j), {}).items()) if v != 0) for j in range(dim)]
        for i in range(dim)
    ]


def _jacobi_outcome(rows):
    """The triple build_table reports as JacobiViolation, or None when it
    passes; the grades and the form are zero, so no other check can fail."""
    dim = len(rows)
    try:
        build_table(dim, rows, (0,) * dim, [()] * dim)
    except JacobiViolation as err:
        assert str(err) == f"Jacobi identity fails on basis triple {err.indices}"
        return err.indices
    return None


class TestJacobi:
    """build_table's Jacobi check, over nonzero bracket chains, against the
    loop over every basis triple."""

    @pytest.mark.parametrize("kind", ["scaled", "added"])
    @pytest.mark.parametrize("n", range(3, 9))
    def test_seeded_corruptions_match_triple_oracle(self, n, kind):
        t = _so_table(n)
        assert jacobi_failure_by_triples(t._sparse) is None
        assert _jacobi_outcome(t._sparse) is None
        raised = 0
        for seed in range(6):
            rng = random.Random(f"jacobi-{n}-{kind}-{seed}")
            rows = [[dict(row) for row in per_i] for per_i in t._sparse]
            if kind == "scaled":
                pairs = [(p, q) for p in range(t.dim) for q in range(p + 1, t.dim) if rows[p][q]]
                p, q = rng.choice(pairs)
                k = rng.choice(sorted(rows[p][q]))
                value = rows[p][q][k] * rng.choice([2, -1, Fraction(1, 3), Fraction(3, 2)])
            else:
                p, q = sorted(rng.sample(range(t.dim), 2))
                k = rng.choice([k for k in range(t.dim) if k not in rows[p][q]])
                value = rng.choice([1, -1, Fraction(1, 2)])
            rows[p][q][k], rows[q][p][k] = value, -value
            rows = [[tuple(sorted(row.items())) for row in per_i] for per_i in rows]
            expected = jacobi_failure_by_triples(rows)
            assert _jacobi_outcome(rows) == expected, seed
            raised += expected is not None
        assert raised >= 3

    @settings(max_examples=150, deadline=None)
    @given(mixed_tables())
    def test_random_tables_match_triple_oracle(self, rows):
        assert _jacobi_outcome(rows) == jacobi_failure_by_triples(rows)


class TestRegrade:
    """The tests' relabelling oracle, which keeps build_table's full grading
    checks for generic tables."""

    def test_shares_validated_structure(self):
        t = realize(spec(4, ("1/2", 2)))
        flat = regrade(t, (0,) * t.dim)
        assert flat.grade == (Fraction(0),) * t.dim
        assert flat._sparse is t._sparse
        assert flat.form is t.form
        assert table_key(regrade(flat, t.grade)) == table_key(t)

    def test_grading_support_violation(self):
        # symmetric multiset, but [e_0, e_1] = e_2 leaves grade 1 + 0
        with pytest.raises(GradingViolation) as err:
            regrade(so3_table(), (1, 0, -1))
        assert err.value.indices == (0, 1, 2)

    def test_grade_symmetry_violation(self):
        zero_rows = [[[0, 0] for _ in range(2)] for _ in range(2)]
        t = build_table(2, sparse_rows(zero_rows), (0, 0), sparse_form(identity(2)))
        with pytest.raises(GradingViolation):
            regrade(t, (0, 1))

    def test_label_count_checked(self):
        with pytest.raises(ValueError):
            regrade(so3_table(), (0, 0))


class TestGradingOf:
    def test_trivial_grading(self):
        gm = grading_of(so3_table())
        assert gm.grades() == (Fraction(0),)
        assert space_at(gm, 0) == full_space(3)

    def test_so4_half_spectrum_dims(self):
        # pair counting: only the wedge of the two +1/2 directions has grade 1
        gm = grading_of(realize(spec(4, ("1/2", 2))))
        assert gm.dims() == {Fraction(-1): 1, Fraction(0): 4, Fraction(1): 1}

    def test_so3_integer_spectrum_dims(self):
        gm = grading_of(realize(spec(3, ("0", 1), ("1", 1))))
        assert gm.dims() == {Fraction(-1): 1, Fraction(0): 1, Fraction(1): 1}

    def test_absent_grade_is_zero_subspace(self):
        gm = grading_of(so3_table())
        assert space_at(gm, 7) == Subspace.zero(3)

    def test_tails_match_chained_sums(self):
        for s in SPECTRA_N7:
            gm = grading_of(realize(s))
            expected = tails_by_sums(gm)
            grades = gm.grades()
            r = grades[0] - 1
            while r <= grades[-1] + 1:
                top = [g for g in grades if g >= r]
                want = expected[top[0]] if top else Subspace.zero(gm.ambient_dim)
                assert tail_space(gm, r) == want, (str(s), r)
                r += Fraction(1, 2)


class TestBracketSpaces:
    def test_zero_argument(self):
        t = so3_table()
        assert bracket_spaces(t, Subspace.zero(3), full_space(3)) == Subspace.zero(3)

    def test_so4_top_and_bottom_grade_bracket(self):
        t = realize(spec(4, ("1/2", 2)))
        gm = grading_of(t)
        out = bracket_spaces(t, space_at(gm, 1), space_at(gm, -1))
        assert out.dim == 1
        assert subspace_sum(out, space_at(gm, 0)) == space_at(gm, 0)

    def test_so3_bracket_fills_grade_zero(self):
        t = realize(spec(3, ("0", 1), ("1", 1)))
        gm = grading_of(t)
        assert bracket_spaces(t, space_at(gm, 1), space_at(gm, -1)) == space_at(gm, 0)


class TestGeneratedSubalgebra:
    def test_full_seed(self):
        t = so3_table()
        assert generated_subalgebra(t, full_space(3)) == full_space(3)

    def test_so4_outer_grades_generate_proper_subalgebra(self):
        t = realize(spec(4, ("1/2", 2)))
        gm = grading_of(t)
        seed = subspace_sum(space_at(gm, 1), space_at(gm, -1))
        assert generated_subalgebra(t, seed).dim == 3

    def test_so4_with_grade_zero_generates_everything(self):
        t = realize(spec(4, ("1/2", 2)))
        gm = grading_of(t)
        seed = subspace_sum(subspace_sum(space_at(gm, 1), space_at(gm, -1)), space_at(gm, 0))
        assert generated_subalgebra(t, seed).dim == 6

    @pytest.mark.parametrize(
        "s",
        [spec(4, ("1/2", 2)), spec(5, ("0", 3), ("1", 1)), spec(6, ("1/2", 2), ("3/2", 1))],
        ids=str,
    )
    def test_monotone_idempotent_closed(self, s):
        t = realize(s)
        gm = grading_of(t)
        seed = space_at(gm, 1)
        result = generated_subalgebra(t, seed)
        assert subspace_sum(seed, result) == result  # monotone
        assert generated_subalgebra(t, result) == result  # idempotent
        closed = bracket_spaces(t, result, result)
        assert subspace_sum(closed, result) == result  # bracket-closed


class TestDescendingSeries:
    def test_zero_subalgebra(self):
        t = so3_table()
        assert descending_series(t, Subspace.zero(3)) == [Subspace.zero(3)]

    def test_so3_one_dim_nilradical(self):
        t = realize(spec(3, ("0", 1), ("1", 1)))
        gm = grading_of(t)
        series = descending_series(t, space_at(gm, 1))
        assert [x.dim for x in series] == [1, 0]

    def test_so5_series_strictly_decreases_to_zero(self):
        t = realize(spec(5, ("0", 3), ("1", 1)))
        gm = grading_of(t)
        series = descending_series(t, tail_space(gm, 1))
        dims = [x.dim for x in series]
        assert dims[-1] == 0
        assert all(a > b for a, b in zip(dims, dims[1:]))

    @pytest.mark.parametrize(
        "s", [spec(5, ("0", 1), ("1", 1), ("2", 1)), spec(6, ("1/2", 2), ("3/2", 1))], ids=str
    )
    def test_terms_are_ideals_of_n(self, s):
        t = realize(s)
        n = tail_space(grading_of(t), 1)
        for term in descending_series(t, n):
            back = bracket_spaces(t, n, term)
            assert subspace_sum(back, term) == term


class TestIndexSets:
    def test_two_term_bracket_raises(self):
        # in so(4) under {1/2:2}, e_0 has grade +1 and e_5 grade -1, and
        # [e_0, e_5] has two nonzero coordinates, so it spans no basis element
        t = realize(spec(4, ("1/2", 2)))
        assert t._sparse[0][5] == ((2, -1), (3, -1))
        assert (t.grade[0], t.grade[5]) == (1, -1)
        with pytest.raises(NotMonomial) as info:
            bracket_indices(t, {0}, {5})
        assert isinstance(info.value, LieTableError)
        assert info.value.indices == (0, 5)
        assert "[e_0, e_5]" in str(info.value)

    def test_non_monomial_form_row_raises(self):
        # an abelian algebra makes every symmetric form invariant; the form is
        # scanned whole, so a non-monomial row is refused whatever `a` is
        t = build_table(2, [[(), ()], [(), ()]], (0, 0), [((0, 1), (1, 1)), ((0, 1),)])
        for a in ({0}, {1}, set()):
            with pytest.raises(NotMonomial) as info:
                polar_indices(t, a)
            assert info.value.indices == (0,)
            assert "form row 0" in str(info.value)

    def test_non_monomial_form_rejected_before_degeneracy(self):
        t = build_table(2, [[(), ()], [(), ()]], (0, 0), [((0, 1), (1, 1))] * 2)
        with pytest.raises(NotMonomial) as info:
            polar_indices(t, {0})
        assert info.value.indices == (0,)

    @pytest.mark.parametrize(
        "form",
        [[((1, 1),), ()], [((1, 1),), ((1, 2),)], [((0, 1),), ((0, 1),)]],
        ids=["empty row", "repeated column", "repeated diagonal column"],
    )
    def test_degenerate_monomial_form_rejected(self, form):
        t = LieTable(2, (0, 0), tuple(form), None)
        for a in ({0}, set()):
            with pytest.raises(DegenerateForm):
                polar_indices(t, a)


COEFFS = st.sampled_from([0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3)])


@lru_cache(maxsize=1)
def _polar_tables():
    return {
        "so3": so3_table(),
        "so3+so3": direct_sum(so3_table(), so3_table(form=identity(3))),
        "so3+so(4)": direct_sum(so3_table(), realize(spec(4, ("1/2", 2)))),
        "so(5)": realize(spec(5, ("0", 1), ("1", 2))),
    }


class TestPolar:
    def test_extremes(self):
        t = so3_table()
        assert polar(t, full_space(3)) == Subspace.zero(3)
        assert polar(t, Subspace.zero(3)) == full_space(3)

    def test_so4_polar_of_parabolic_is_nilradical(self):
        t = realize(spec(4, ("1/2", 2)))
        gm = grading_of(t)
        q = tail_space(gm, 0)
        assert polar(t, q) == space_at(gm, 1)

    @pytest.mark.parametrize("s", [spec(4, ("1/2", 2)), spec(5, ("0", 3), ("1", 1))], ids=str)
    def test_involution_and_dimension(self, s):
        t = realize(s)
        gm = grading_of(t)
        for g in gm.grades():
            sp = space_at(gm, g)
            p = polar(t, sp)
            assert p.dim == t.dim - sp.dim
            assert polar(t, p) == sp

    def test_degenerate_form_rejected(self):
        t = so3_table(form=zeros(3, 3))  # zero form is invariant but degenerate
        with pytest.raises(DegenerateForm):
            polar(t, Subspace.zero(3))

    def test_degenerate_form_rejected_before_any_product(self):
        t = so3_table(form=zeros(3, 3))
        with pytest.raises(DegenerateForm):
            polar(t, full_space(3))

    def test_parabolic_matches_dense_product(self):
        # the form depends on n alone, so each distinct (n, q) is checked
        # once: 23 of them for these 160 spectra
        checked = set()
        for s in SPECTRA_N7:
            t = realize(s)
            q = tail_space(grading_of(t), 0)
            if (s.n, q) not in checked:
                assert polar(t, q) == kernel(matmul(q.basis, dense_form(t))), str(s)
                checked.add((s.n, q))

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(["so3", "so3+so3", "so3+so(4)", "so(5)"]),
        st.lists(st.lists(COEFFS, min_size=10, max_size=10), max_size=5),
    )
    def test_random_spans_match_dense_product(self, name, vectors):
        t = _polar_tables()[name]
        a = span([v[: t.dim] for v in vectors], t.dim)
        assert polar(t, a) == kernel(matmul(a.basis, dense_form(t)))


RANK_COEFFS = st.sampled_from([1, -1, 2, 3, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4)])


@st.composite
def sparse_form_rows(draw):
    """dim sparse rows, int and Fraction coefficients: some drawn, the rest
    combinations of those, so the form is degenerate when rows repeat a span."""
    dim = draw(st.integers(1, 7))
    drawn = draw(
        st.lists(st.dictionaries(st.integers(0, dim - 1), RANK_COEFFS, max_size=dim), max_size=dim)
    )
    rows = list(drawn)
    while len(rows) < dim:
        coeffs = draw(st.lists(st.sampled_from([0, 1, -1, 2, Fraction(1, 2)]), max_size=len(rows)))
        combo = {}
        for c, row in zip(coeffs, rows):
            for k, v in row.items():
                combo[k] = combo.get(k, 0) + c * v
        rows.append(combo)
    rows = draw(st.permutations(rows))
    return dim, [tuple((k, v) for k, v in sorted(row.items()) if v != 0) for row in rows]


@st.composite
def monomial_form_rows(draw):
    """dim rows of one entry each on a permutation of the columns, with one
    row emptied or moved to a drawn column half the time."""
    dim = draw(st.integers(1, 7))
    rows = [((c, draw(RANK_COEFFS)),) for c in draw(st.permutations(range(dim)))]
    if draw(st.booleans()):
        i = draw(st.integers(0, dim - 1))
        rows[i] = draw(st.sampled_from([(), ((draw(st.integers(0, dim - 1)), 1),)]))
    return dim, rows


def _polar_outcome(dim, form):
    """What polar_indices(t, ()) gives on a table holding `form`: the indices
    NotMonomial names, "degenerate", or the whole index set."""
    try:
        return polar_indices(LieTable(dim, (0,) * dim, tuple(form), None), ())
    except NotMonomial as exc:
        return exc.indices
    except DegenerateForm:
        return "degenerate"


def _rank_outcome(dim, form):
    """Oracle for _polar_outcome: the first row with two or more entries, else
    the form's rank from dense rref."""
    wide = [i for i, row in enumerate(form) if len(row) > 1]
    if wide:
        return (wide[0],)
    dense = [[dict(row).get(k, 0) for k in range(dim)] for row in form]
    if rref(RatMatrix(dense, cols=dim))[0] < dim:
        return "degenerate"
    return frozenset(range(dim))


class TestFormRank:
    """Whether the form has full rank, as polar_indices decides it from the
    columns of its monomial rows, against dense rref."""

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(sparse_form_rows(), monomial_form_rows()))
    def test_matches_dense_rref(self, drawn):
        dim, form = drawn
        assert _polar_outcome(dim, form) == _rank_outcome(dim, form)

    @pytest.mark.parametrize(
        "form, rank",
        [
            ([(), (), ()], 0),
            ([((0, 1), (2, 2)), ((0, Fraction(1, 2)), (2, 1)), ((1, 3),)], 2),
            ([((0, 1), (1, 1)), ((1, 1), (2, 1)), ((0, 1), (2, -1))], 2),
            ([((0, 2),), ((0, 1), (1, 1)), ((1, Fraction(-1, 3)), (2, 5))], 3),
        ],
    )
    def test_small_forms(self, form, rank):
        dense = [[dict(row).get(k, 0) for k in range(3)] for row in form]
        assert rref(RatMatrix(dense, cols=3))[0] == rank
        assert _polar_outcome(3, form) == _rank_outcome(3, form)

    @pytest.mark.parametrize("n", range(3, 25))
    def test_so_n_form_is_nondegenerate(self, n):
        t = _so_table(n)
        assert polar_indices(t, ()) == frozenset(range(t.dim))
        assert polar_indices(t, range(t.dim)) == frozenset()
        if n <= 10:
            assert rref(dense_form(t))[0] == t.dim


class TestDirectSum:
    def test_two_cross_product_algebras(self):
        t = direct_sum(so3_table(), so3_table())
        assert t.dim == 6
        assert dense_rows(t)[0][3] == (0,) * 6
        assert dense_rows(t)[3][4] == (0, 0, 0, 0, 0, 1)

    def test_grading_dims_add(self):
        a = realize(spec(3, ("0", 1), ("1", 1)))
        b = realize(spec(4, ("1/2", 2)))
        both = grading_of(direct_sum(a, b)).dims()
        da, db = grading_of(a).dims(), grading_of(b).dims()
        expected = {g: da.get(g, 0) + db.get(g, 0) for g in set(da) | set(db)}
        assert both == expected

    def test_zero_dim_identity(self):
        t = so3_table()
        empty = build_table(0, [], [], [])
        assert table_key(direct_sum(t, empty)) == table_key(t)

    def test_grade_symmetry_holds_for_all_built_tables(self):
        for s in [spec(4, ("1/2", 2)), spec(6, ("1/2", 1), ("3/2", 2)), spec(5, ("0", 5))]:
            dims = grading_of(realize(s)).dims()
            for g, d in dims.items():
                assert dims.get(-g, 0) == d
