"""Wedge model of so(n, C): realization, matrices, spectrum extraction."""

import copy
import pickle
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from canonical_lie import (
    InvalidSpectrum,
    NotSkew,
    RatMatrix,
    Spectrum,
    TooSmall,
    enumerate_canonical,
    grade_dims,
    half_integral_spectra,
    parabolic_of,
    rref,
    sonreal,
    spectrum_from_matrix,
    strict_generation_report,
    theorem1_report,
    theorem2_check,
)
from canonical_lie.cli import MAX_N
from canonical_lie.liegraded import _pair_index
import helpers
from helpers import (
    BracketShapeViolation,
    GradingViolation,
    LieTable,
    RealizationViolation,
    _coordinates,
    _so_table,
    build_table,
    check_witt_shape,
    conjugated_normal_form,
    grade_dims_by_counting,
    grading,
    grading_of,
    identity,
    integer_path_spectra,
    kernel,
    magnitudes_of,
    mat_add,
    matmul,
    matrix_of,
    mult_of,
    dense_rows,
    normal_form,
    realize,
    regrade,
    scaled,
    so_table_by_wedge_identity,
    spec,
    spectrum_entries_by_fractions,
    spectrum_from_matrix_by_kernels,
    strict_by_table,
    table_key,
    trace,
    transpose,
    wedge_basis,
    zeros,
)


def skew_strategy(n):
    """Random rational skew n x n matrices with small entries."""
    entry = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    size = n * (n - 1) // 2
    return st.lists(entry, min_size=size, max_size=size).map(
        lambda upper: _skew_from_upper(n, upper)
    )


def _skew_from_upper(n, upper):
    mat = [[Fraction(0)] * n for _ in range(n)]
    it = iter(upper)
    for i in range(n):
        for j in range(i + 1, n):
            mat[i][j] = next(it)
            mat[j][i] = -mat[i][j]
    return RatMatrix(mat, cols=n)


def _spectrum(n, positives):
    """so(n) spectrum with the given positive magnitudes (repeats allowed), zeros filling n."""
    m0 = n - 2 * len(positives)
    zeros = [(Fraction(0), m0)] if m0 else []
    return Spectrum(n, tuple(zeros + list(Counter(positives).items())))


# 2*lambda: a few small values, so magnitudes repeat, or anything up to 2 * 10^9
DOUBLED = st.one_of(st.integers(1, 6), st.integers(1, 2 * 10**9))


@st.composite
def half_integral_case(draw):
    """(spectrum with magnitudes in (1/2)Z up to 10^9, skew matrix A)."""
    n = draw(st.integers(3, 6))
    doubled = draw(st.lists(DOUBLED, max_size=n // 2))
    return _spectrum(n, [Fraction(j, 2) for j in doubled]), draw(skew_strategy(n))


@st.composite
def off_grid_case(draw):
    """(spectrum with one magnitude of denominator 3..7, skew matrix A)."""
    n = draw(st.integers(3, 6))
    q = draw(st.integers(3, 7))
    p = draw(st.integers(1, 10**9).filter(lambda p: Fraction(p, q).denominator > 2))
    doubled = draw(st.lists(DOUBLED, max_size=n // 2 - 1))
    positives = [Fraction(p, q)] + [Fraction(j, 2) for j in doubled]
    return _spectrum(n, positives), draw(skew_strategy(n))


@st.composite
def extraction_case(draw):
    """A rational skew matrix for extraction: a random one (mostly irrational
    magnitudes), a low-rank one (a sum of at most two wedges u v^T - v u^T)
    or the Cayley conjugate of a half-integral normal form with at most two
    positive magnitudes.  Entries have denominators up to 4, or far more after
    conjugation."""
    n = draw(st.integers(3, 6))
    kind = draw(st.sampled_from(["random", "low rank", "conjugated"]))
    if kind == "random":
        return draw(skew_strategy(n))
    if kind == "conjugated":
        doubled = draw(st.lists(st.integers(1, 6), max_size=min(2, n // 2)))
        s = _spectrum(n, [Fraction(j, 2) for j in doubled])
        return conjugated_normal_form(s, draw(skew_strategy(n)))
    entry = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    vector = st.lists(entry, min_size=n, max_size=n)
    mat = [[Fraction(0)] * n for _ in range(n)]
    for u, v in draw(st.lists(st.tuples(vector, vector), max_size=2)):
        for i in range(n):
            for j in range(n):
                mat[i][j] += u[i] * v[j] - v[i] * u[j]
    return RatMatrix(mat, cols=n)


SAMPLED = [
    spec(3, ("0", 3)),
    spec(3, ("0", 1), ("1", 1)),
    spec(4, ("1/2", 2)),
    spec(4, ("1/2", 1), ("3/2", 1)),
    spec(5, ("0", 3), ("1", 1)),
    spec(5, ("0", 1), ("1", 1), ("2", 1)),
    spec(6, ("1/2", 2), ("3/2", 1)),
    spec(6, ("0", 2), ("1/2", 1), ("1", 1)),  # mixed parity, still a valid algebra
]

# Magnitudes with denominator 3 (not half-integral, so only `check --method
# strict` realizes them); the last two mix denominators, with label lcm 6.
DENOMINATOR_3 = [
    spec(5, ("0", 1), ("1/3", 1), ("4/3", 1)),
    spec(6, ("1/3", 1), ("2/3", 2)),
    spec(7, ("0", 1), ("1/3", 2), ("5/3", 1)),
    spec(6, ("1/3", 1), ("1/2", 1), ("2/3", 1)),
    spec(8, ("2/3", 1), ("7/6", 2), ("5/2", 1)),
]


@st.composite
def grid_root_case(draw):
    """(factors, scale, top): integer factors as coefficient tuples, highest
    degree first.  Linear ones b y - a have roots on the grid {scale * j^2}
    (some past top, some at 0) and off it, each repeated up to three times;
    at times a factor y^2 + c with no real root joins them."""
    scale = draw(st.integers(1, 4))
    top = draw(st.integers(0, 12))
    on_grid = st.integers(0, top + 3).map(lambda j: (1, -scale * j * j))
    off_grid = st.tuples(st.integers(1, 3), st.integers(-4 * 15 * 15, 40))
    linear = draw(st.lists(st.one_of(on_grid, off_grid), max_size=6))
    factors = [f for f in linear for _ in range(draw(st.integers(1, 3)))]
    if draw(st.booleans()):
        factors.append((1, 0, draw(st.integers(1, 100))))
    return factors, scale, top


def _poly_of(factors):
    """The product of the factors, coefficients highest degree first."""
    poly = [1]
    for f in factors:
        poly = [
            sum(f[i - k] * c for k, c in enumerate(poly) if 0 <= i - k < len(f))
            for i in range(len(poly) + len(f) - 1)
        ]
    return poly


def _value_of(factors, y):
    """The product of the factors at y, each evaluated on its own."""
    out = 1
    for f in factors:
        out *= sum(c * y ** (len(f) - 1 - i) for i, c in enumerate(f))
    return out


def witt_gram(n):
    """The form on C^n in the Witt basis: (u_a, u_b) = 1 exactly when
    b = n - 1 - a, the anti-diagonal permutation matrix."""
    return RatMatrix([[1 if a + b == n - 1 else 0 for b in range(n)] for a in range(n)], cols=n)


def pair_sums(s):
    """lambda_a + lambda_b for each wedge (a, b), as Fraction sums."""
    wb = wedge_basis(s)
    lam = [ell for ell, _ in wb.eigen_labels]
    return tuple(lam[a] + lam[b] for a, b in wb.pairs)


# Spectrum arguments, valid or not: negative magnitudes, 1 written as 1 and
# as Fraction(2, 2), multiplicity 0, bools and floats, and n either drawn or
# the total the entries account for.  Bad types are drawn rarely enough that
# the value checks after them run too.
MAGNITUDE_DRAWS = st.one_of(
    st.integers(-1, 3),
    st.fractions(min_value=-1, max_value=3, max_denominator=4),
    st.sampled_from([Fraction(2, 2), Fraction(1, 2), 1, 0, True, 0.5]),
)
MULT_DRAWS = st.one_of(st.integers(0, 3), st.integers(1, 2), st.sampled_from([-1, True, 1.0]))


@st.composite
def spectrum_args(draw):
    entries = draw(st.lists(st.tuples(MAGNITUDE_DRAWS, MULT_DRAWS), max_size=4))
    total = sum(m if lam == 0 else 2 * m for lam, m in entries)
    n = draw(st.sampled_from([total, total, total, 0, 2, 3, 4, 5, True, 4.0]))
    return n, entries


class TestSpectrum:
    def test_validation(self):
        with pytest.raises(InvalidSpectrum):
            spec(2, ("0", 2))
        with pytest.raises(InvalidSpectrum):
            spec(4, ("1/2", 1))  # accounts for 2 of 4 dimensions
        with pytest.raises(InvalidSpectrum):
            spec(4, ("-1/2", 2))
        with pytest.raises(InvalidSpectrum):
            Spectrum(4, ((Fraction(1, 2), 1), (Fraction(1, 2), 1)))

    @pytest.mark.parametrize("bad", [True, 5.0, 4.5, Fraction(5)], ids=repr)
    def test_n_must_be_an_int(self, bad):
        with pytest.raises(InvalidSpectrum, match="n and multiplicities must be integers"):
            Spectrum(bad, ((Fraction(0), 3), (Fraction(1), 1)))

    @pytest.mark.parametrize(
        "entries",
        [
            ((0, 3.7), (1, 1.2)),  # int() would truncate to {0:3, 1:1}
            ((0, 3.0), (1, 1)),
            ((0, True), (1, 2)),  # a bool would read as 1
            ((0, Fraction(3)), (1, 1)),
        ],
        ids=repr,
    )
    def test_multiplicities_must_be_ints(self, entries):
        with pytest.raises(InvalidSpectrum, match="n and multiplicities must be integers, got "):
            Spectrum(5, tuple((Fraction(lam), m) for lam, m in entries))

    @pytest.mark.parametrize("entries", [((True, 1), (False, 1)), ((False, 1), (1, 1))], ids=repr)
    def test_magnitudes_must_not_be_bools(self, entries):
        # as_rational would read {True:1, False:1} as the so(3) spectrum {0:1, 1:1}
        with pytest.raises(InvalidSpectrum, match="magnitudes must be rationals, got (True|False)"):
            Spectrum(3, entries)

    def test_magnitudes_must_not_be_floats(self):
        # as_rational would raise a TypeError about a "float coefficient"
        with pytest.raises(InvalidSpectrum, match=r"^magnitudes must be rationals, got 0\.5$"):
            Spectrum(3, ((0, 1), (0.5, 1)))

    def test_validation_matches_fraction_oracle(self):
        for s in integer_path_spectra():
            shuffled = s.entries[::-1]
            got = Spectrum(s.n, shuffled).entries
            assert got == spectrum_entries_by_fractions(s.n, shuffled), str(s)
            assert all(type(lam) is Fraction for lam, _ in got), str(s)

    @settings(max_examples=300, deadline=None)
    @given(spectrum_args())
    @example((4, [(1, 1), (Fraction(2, 2), 1)]))  # one magnitude written twice
    @example((4, [(Fraction(1, 2), 2), (1, 0)]))  # multiplicity 0
    @example((4, [(-1, 1), (1, 1)]))
    @example((5, [(0, 1), (1, 1)]))  # a wrong total
    @example((3, [(0, True), (1, 1)]))
    @example((3, [(True, 1), (1, 1)]))
    @example((3, [(0.0, 1), (1, 1)]))
    @example((3, [(0, 1), (1, 1.0)]))
    def test_malformed_entries_match_fraction_oracle(self, args):
        n, entries = args

        def outcome(build):
            try:
                return build()
            except (InvalidSpectrum, TypeError, ValueError) as exc:
                return type(exc), str(exc)

        got = outcome(lambda: Spectrum(n, tuple(entries)).entries)
        assert got == outcome(lambda: spectrum_entries_by_fractions(n, tuple(entries)))

    def test_immutable_equal_and_hashed_by_value(self):
        s = spec(5, ("0", 3), ("1", 1))
        same = Spectrum(5, ((Fraction(1), 1), (0, 3)))
        assert s == same and s is not same and s != spec(5, ("0", 1), ("1", 2))
        assert hash(s) == hash(same) == hash((5, s.entries))
        assert {s: "hit"}[same] == "hit"
        assert repr(s) == "Spectrum(n=5, entries=((Fraction(0, 1), 3), (Fraction(1, 1), 1)))"
        assert copy.copy(s) == s and pickle.loads(pickle.dumps(s)) == s
        with pytest.raises(AttributeError):
            s.n = 6
        with pytest.raises(AttributeError):
            del s.entries
        assert (s.n, s.entries) == (5, same.entries)
        assert s._replace(entries=((1, 1), (0, 3))) == same
        with pytest.raises(InvalidSpectrum, match="account for 7 of 5"):
            s._replace(entries=((0, 3), (1, 2)))

    def test_entries_sorted_ascending(self):
        s = Spectrum(5, ((Fraction(1), 1), (Fraction(0), 3)))
        assert magnitudes_of(s) == (Fraction(0), Fraction(1))

    def test_json_round_trip(self):
        s = spec(4, ("1/2", 1), ("3/2", 1))
        assert Spectrum.from_json(s.to_json()) == s

    def test_json_schema_errors(self):
        with pytest.raises(InvalidSpectrum):
            Spectrum.from_json({"n": 4})
        with pytest.raises(InvalidSpectrum):
            Spectrum.from_json({"n": 4, "entries": [{"lambda": 0.5, "mult": 2}]})
        with pytest.raises(InvalidSpectrum):
            Spectrum.from_json({"n": 4, "entries": [{"lambda": "1/2"}]})


class TestFromDoubled:
    """`Spectrum._from_doubled` builds from ((2 lambda, mult), ...) ints and
    `Spectrum.from_json` from 'p/q' strings read as ints, through the one
    validating core `Spectrum(n, entries)` ends in too.  Whatever built it, a
    spectrum must read as the Fraction oracle does: its entries, hash, repr,
    str and JSON are those of the sorted (Fraction, mult) pairs."""

    @staticmethod
    def rebuilt(s):
        return Spectrum._from_doubled(s.n, tuple((int(2 * lam), mult) for lam, mult in s.entries))

    @staticmethod
    def from_fraction_json(s):
        entries = [{"lambda": str(lam), "mult": mult} for lam, mult in s.entries]
        return Spectrum.from_json({"n": s.n, "entries": entries})

    @staticmethod
    def assert_same(made, s):
        ref = Spectrum(s.n, s.entries)
        oracle = spectrum_entries_by_fractions(s.n, s.entries)
        assert made == ref and made.entries == ref.entries == oracle
        assert hash(made) == hash(ref) == hash((s.n, oracle))
        assert {type(lam) for lam in magnitudes_of(made)} == {Fraction}
        assert {type(lam) for lam in magnitudes_of(ref)} == {Fraction}
        assert made.max_magnitude == oracle[-1][0] and type(made.max_magnitude) is Fraction
        assert repr(made) == repr(ref) == f"Spectrum(n={s.n}, entries={oracle!r})"
        text = "{" + ", ".join(f"{lam}:{m}" for lam, m in oracle) + "}"
        assert str(made) == str(ref) == text
        cells = [{"lambda": str(lam), "mult": m} for lam, m in oracle]
        assert made.to_json() == ref.to_json() == {"n": s.n, "entries": cells}

    @pytest.mark.parametrize(
        "n,bound",
        [(n, Fraction(7, 2)) for n in range(3, 13)] + [(n, Fraction(25, 2)) for n in range(3, 7)],
    )
    def test_half_integral_spectra(self, n, bound):
        for s in half_integral_spectra(n, bound):
            self.assert_same(s, s)
            self.assert_same(self.rebuilt(s), s)
            self.assert_same(self.from_fraction_json(s), s)

    def test_enumerated_classes(self):
        for n in range(3, 25):
            for s in enumerate_canonical(n):
                self.assert_same(s, s)
                self.assert_same(self.rebuilt(s), s)

    def test_thirds_quarters_and_large_magnitudes(self):
        # D = 3, 4, 6 and 12 take the general renderer, and so do magnitudes
        # past the table of texts (2 lambda >= 64); 63/2 is its last text
        large = [
            spec(3, ("0", 1), ("63/2", 1)),
            spec(3, ("0", 1), ("32", 1)),
            spec(6, ("1/2", 2), ("1000000001/2", 1)),
            spec(6, ("31", 1), ("32", 1), ("33", 1)),
        ]
        for s in integer_path_spectra() + tuple(large):
            self.assert_same(self.from_fraction_json(s), s)
            if s.den <= 2:
                self.assert_same(self.rebuilt(s), s)
        assert {s.den for s in integer_path_spectra()} == {1, 2, 3, 4, 6, 12}

    @pytest.mark.parametrize(
        "n, doubled, message",
        [
            (4, ((2, 1), (1, 1)), "non-negative and ascend strictly"),
            (4, ((1, 1), (1, 1)), "non-negative and ascend strictly"),
            (3, ((0, 3), (1, 0)), "at least 1"),
            (4, ((0, 1), (1, 1)), "account for 3 of 4"),
            (2, ((0, 2),), "at least 3"),
            (3, ((-2, 1), (0, 1)), "non-negative"),
        ],
    )
    def test_invalid(self, n, doubled, message):
        with pytest.raises(InvalidSpectrum, match=message):
            Spectrum._from_doubled(n, doubled)


class TestWedgeBasis:
    @pytest.mark.parametrize("s", SAMPLED, ids=str)
    def test_pair_count_and_order(self, s):
        wb = wedge_basis(s)
        assert len(wb.pairs) == s.n * (s.n - 1) // 2
        assert list(wb.pairs) == sorted(wb.pairs)
        for idx, (a, b) in enumerate(wb.pairs):
            assert _pair_index(s.n, a, b) == idx

    @pytest.mark.parametrize("s", SAMPLED, ids=str)
    def test_labels_descending_and_gram_pairing(self, s):
        # Witt basis: labels descend, and the form on C^n pairs position a
        # with position n-1-a only, zeros included, so paired labels mirror
        wb = wedge_basis(s)
        n = s.n
        lams = [lam for lam, _ in wb.eigen_labels]
        assert lams == sorted(lams, reverse=True)
        expected = Counter({Fraction(0): mult_of(s, 0)})
        for lam, mult in s.entries:
            if lam != 0:
                expected[lam] += mult
                expected[-lam] += mult
        assert Counter(lams) == expected
        assert len(set(wb.eigen_labels)) == n
        for a in range(n):
            assert lams[n - 1 - a] == -lams[a]


class TestRealize:
    """so(n, C) graded by a spectrum: the table oracle of n and its `grading(s)`,
    which `grade_dims` must match."""

    def test_trivial_so3(self):
        assert grading(spec(3, ("0", 3))).blocks == ((0, (0, 1, 2)),)
        t = realize(spec(3, ("0", 3)))
        # cross-product-like: each bracket of distinct generators is the third
        assert sum(1 for v in dense_rows(t)[0][1] if v != 0) == 1

    def test_so4_grading(self):
        dims = grading(spec(4, ("1/2", 2))).dims()
        assert dims == {Fraction(-1): 1, Fraction(0): 4, Fraction(1): 1}

    def test_so3_integer_grading(self):
        dims = grading(spec(3, ("0", 1), ("1", 1))).dims()
        assert dims == {Fraction(-1): 1, Fraction(0): 1, Fraction(1): 1}

    @pytest.mark.parametrize("n", range(3, 8))
    def test_form_is_the_trace_form(self, n):
        # invariance alone would accept any multiple of tr(XY)
        s = spec(n, ("0", n))
        mats = [matrix_of(s, p) for p in range(n * (n - 1) // 2)]
        traces = [[trace(matmul(x, y)) for y in mats] for x in mats]
        expected = tuple(tuple((q, v) for q, v in enumerate(row) if v != 0) for row in traces)
        assert _so_table(n).form == expected

    def test_table_depends_on_n_alone(self):
        # two gradings of the one table, each passing the regrade oracle's grading checks
        a, b = spec(6, ("1/2", 2), ("3/2", 1)), spec(6, ("0", 2), ("1", 2))
        assert grading(a) != grading(b)
        for s in (a, b):
            assert grading_of(regrade(_so_table(6), pair_sums(s))) == grading(s)

    @pytest.fixture
    def built(self, monkeypatch):
        """The dims of the tables built from here on, with the cache emptied."""
        built = []

        def counting(dim, *rest):
            built.append(dim)
            return LieTable(dim, *rest)

        monkeypatch.setattr(helpers, "LieTable", counting)
        helpers._so_table.cache_clear()
        return built

    def test_one_table_built_per_n(self, built):
        # the package's deciders build none; the strict oracle, one per n
        for n in (5, 6):
            spectra = half_integral_spectra(n, Fraction(7, 2))
            assert len({grading(s) for s in spectra}) > 1
            for s in spectra:
                strict_generation_report(s)
                if theorem2_check(s).canonical:
                    parabolic_of(s)
                    theorem1_report(s)
            assert built == [10, 15][: n - 5]
            for s in spectra:
                strict_by_table(s)
        assert built == [10, 15]

    def test_every_table_kept(self, built):
        # two passes over every n the CLI accepts build each table once
        sizes = range(3, MAX_N + 1)
        for _ in range(2):
            for n in sizes:
                _so_table(n)
        assert built == [n * (n - 1) // 2 for n in sizes]
        assert len(built) == 22

    @pytest.mark.parametrize("s", SAMPLED, ids=str)
    def test_grading_dims_match_pair_counting(self, s):
        assert grading(s).dims() == grade_dims(s) == grade_dims_by_counting(s)

    @pytest.mark.parametrize("s", SAMPLED, ids=str)
    def test_total_dimension(self, s):
        dims = grade_dims(s)
        assert sum(dims.values()) == s.n * (s.n - 1) // 2 == grading(s).ambient_dim

    @pytest.mark.parametrize("s", SAMPLED, ids=str)
    def test_grade_one_counting_identity(self, s):
        # dim g_1 = sum over -max < lam <= 1/2 of m_lam * m_{1-lam},
        # with the wedge-square adjustment binom(m, 2) at lam = 1/2
        mult = {}
        for lam, m in s.entries:
            mult[lam] = m
            if lam != 0:
                mult[-lam] = m
        total = 0
        for lam, m in mult.items():
            if lam > Fraction(1, 2):
                continue
            other = 1 - lam
            if lam == other:
                total += m * (m - 1) // 2
            elif other in mult:
                total += m * mult[other]
        assert len(grading(s).indices_at(1)) == total


class TestRelabel:
    """grading groups the wedges by integer label sums, checking only the
    mirror; the regrade oracle re-runs build_table's grading checks on the
    Fraction pair sums."""

    @staticmethod
    def assert_keys_stand_in(got, want, s):
        assert got == want and list(map(str, got)) == list(map(str, want)), str(s)
        assert list(map(hash, got)) == list(map(hash, want)), str(s)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_matches_regrade_oracle(self, n):
        extra = [s for s in DENOMINATOR_3 if s.n == n]
        for s in half_integral_spectra(n, Fraction(7, 2)) + extra:
            gm = grading(s)
            expected = grading_of(regrade(_so_table(n), pair_sums(s)))
            assert gm.blocks == expected.blocks, str(s)
            assert gm.ambient_dim == expected.ambient_dim
            self.assert_keys_stand_in(gm.grades(), expected.grades(), s)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_grade_labels_stand_in_for_fractions(self, n):
        # integral grades are ints; each must behave as the Fraction label it replaces
        kinds, mixed = set(), 0
        for s in half_integral_spectra(n, Fraction(7, 2)):
            got = grading(s).grades()
            want = tuple(sorted(set(pair_sums(s))))
            self.assert_keys_stand_in(got, want, s)
            kinds.update(map(type, got))
            mixed += {int, Fraction} <= set(map(type, got))
        assert kinds == {int, Fraction} and mixed

    def test_unmirrored_labels_raise(self, monkeypatch):
        s = spec(6, ("1/2", 1), ("3/2", 1), ("5/2", 1))
        labels, den = helpers._scaled_labels(s)  # 5, 3, 1, -1, -3, -5 over 2
        labels[0], labels[1] = labels[1], labels[0]
        monkeypatch.setattr(helpers, "_scaled_labels", lambda _: (labels, den))
        with pytest.raises(GradingViolation) as err:
            grading(s)
        assert err.value.indices == (0, 5)
        assert str(err.value) == (
            "eigenvalue labels are not mirrored: "
            f"lambda_0 = {Fraction(labels[0], den)} but lambda_5 = {Fraction(labels[5], den)}"
        )


class TestGradeDims:
    @pytest.mark.parametrize("n", range(3, 25))
    def test_matches_regraded_table(self, n):
        # the order matters too: the CLI prints the grades in this order
        for s in enumerate_canonical(n):
            dims = list(grade_dims(s).items())
            assert dims == sorted(grade_dims_by_counting(s).items()), str(s)
            if n <= 10:
                expected = grading_of(regrade(_so_table(n), pair_sums(s))).dims()
                assert dims == list(expected.items()), str(s)


class TestBracketShape:
    """The bracket shape the grading argument once checked on its own: the
    helper oracle accepts every table and refuses a coordinate moved off it."""

    # (n, terms, shift): move the first coordinate of the first bracket with
    # `terms` nonzero coordinates to the wedge `shift` places away.  With one
    # term the new wedge uses an index outside {a, b, c, d}; with two and
    # shift -1, what is left of {a, b, c, d} is not a partner pair.  The last
    # case moves [u_0 ^ u_1, u_4 ^ u_5] in so(6) onto u_0 ^ u_3: 3 is not
    # among the four, though {1, 4}, left beside it, is a partner pair.
    CASES = [(5, 1, 1), (6, 1, 1), (5, 2, -1), (6, 2, -1), (6, 2, -2)]

    @staticmethod
    def corrupt(n, terms, shift):
        sparse = [list(row) for row in _so_table(n)._sparse]
        p, q = next(
            (p, q)
            for p, row in enumerate(sparse)
            for q, hits in enumerate(row)
            if len(hits) == terms
        )
        (k, v), *rest = sparse[p][q]
        sparse[p][q] = ((k + shift, v), *rest)
        return sparse, (p, q, k + shift)

    @pytest.mark.parametrize("n", range(3, MAX_N + 1))
    def test_tables_have_the_shape(self, n):
        check_witt_shape(n, _so_table(n)._sparse)

    @pytest.mark.parametrize("n, terms, shift", CASES)
    def test_moved_coordinate_is_caught(self, n, terms, shift):
        sparse, indices = self.corrupt(n, terms, shift)
        with pytest.raises(BracketShapeViolation) as err:
            check_witt_shape(n, sparse)
        assert err.value.indices == indices


class TestRealizationCheck:
    """_so_table against the general checker and the wedge-identity oracle."""

    @pytest.mark.parametrize("n", range(3, MAX_N + 1))
    def test_general_checker_accepts_every_table(self, n):
        # antisymmetry, grading, Jacobi and invariance, summed the general way;
        # equal sparse rows show they were already ascending and zero-free
        t = _so_table(n)
        u = build_table(t.dim, t._sparse, t.grade, t.form)
        assert table_key(u) == table_key(t)
        assert u._sparse == t._sparse and u.form == t.form

    @pytest.mark.parametrize("n", range(3, MAX_N + 1))
    def test_matches_wedge_identity_oracle(self, n):
        t, u = _so_table(n), so_table_by_wedge_identity(n)
        assert (t.dim, t.grade, t.form, t._sparse) == (u.dim, u.grade, u.form, u._sparse)

    @pytest.mark.parametrize("n", [4, 5, 6, 9])
    def test_commutator_outside_the_span_raises(self, n, monkeypatch):
        # a two-term bracket is [M_p, M_q] for one ordered pair (p, q) alone
        rows = enumerate(_so_table(n)._sparse)
        p, q = max((p, q) for p, row in rows for q, hits in enumerate(row) if len(hits) == 2)
        target = _so_table(n)._sparse[p][q]

        def failing(n, entries):
            coords = _coordinates(n, entries)
            return None if coords == target else coords

        monkeypatch.setattr(helpers, "_coordinates", failing)
        with pytest.raises(RealizationViolation) as err:
            helpers._so_table.__wrapped__(n)
        assert err.value.indices == (p, q)
        assert str(err.value) == f"[M_{p}, M_{q}] lies outside the span of the M_k"

    def test_coordinates_outside_the_span(self):
        # n = 4: an entry on r + c = n - 1 lies in no M_k
        assert _coordinates(4, {(0, 3): 1}) is None
        # the two entries of M_(0, 1), +1 at (1, 3) and -1 at (0, 2), must agree
        assert _coordinates(4, {(1, 3): 2, (0, 2): -2}) == ((0, 2),)
        assert _coordinates(4, {(1, 3): 2, (0, 2): 2}) is None
        assert _coordinates(4, {(1, 3): 2}) is None
        assert _coordinates(4, {(1, 3): 0}) == ()


class TestMatrixOf:
    @pytest.mark.parametrize("s", SAMPLED, ids=str)
    def test_skew_for_gram(self, s):
        wb = wedge_basis(s)
        g = witt_gram(s.n)
        for idx in range(wb.dim):
            x = matrix_of(s, idx)
            assert mat_add(matmul(transpose(x), g), matmul(g, x)) == zeros(s.n, s.n)

    def test_annihilates_orthogonal_vectors(self):
        # u_a ^ u_b kills every vector Gram-orthogonal to both u_a and u_b
        for s in SAMPLED:
            wb = wedge_basis(s)
            g = witt_gram(s.n)
            for idx, (a, b) in enumerate(wb.pairs):
                orth = kernel(RatMatrix([g.entries[a], g.entries[b]]))
                assert orth.dim == s.n - 2
                x = matrix_of(s, idx)
                assert matmul(x, transpose(orth.basis)) == zeros(s.n, orth.dim)

    @pytest.mark.parametrize("s", SAMPLED, ids=str)
    def test_ad_diagonal_scales_by_grade(self, s):
        wb = wedge_basis(s)
        diag = RatMatrix(
            [
                [wb.eigen_labels[i][0] if i == j else 0 for j in range(s.n)]
                for i in range(s.n)
            ]
        )
        t = realize(s)
        for idx in range(wb.dim):
            x = matrix_of(s, idx)
            assert matmul(diag, x) == mat_add(matmul(x, diag), scaled(x, t.grade[idx]))

    @pytest.mark.parametrize("s", [spec(3, ("0", 1), ("1", 1)), spec(4, ("1/2", 2))], ids=str)
    def test_commutators_match_structure_constants(self, s):
        t = realize(s)
        brackets = dense_rows(t)
        mats = [matrix_of(s, i) for i in range(t.dim)]
        for i in range(t.dim):
            for j in range(t.dim):
                # [X_i, X_j] = sum of c_k X_k, with X_j X_i moved to the right
                expected = matmul(mats[j], mats[i])
                for k, c in enumerate(brackets[i][j]):
                    if c != 0:
                        expected = mat_add(expected, scaled(mats[k], c))
                assert matmul(mats[i], mats[j]) == expected

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            matrix_of(spec(3, ("0", 3)), 3)


class TestSpectrumFromMatrix:
    def test_zero_matrix(self):
        assert spectrum_from_matrix(zeros(3, 3)) == spec(3, ("0", 3))

    def test_single_rotation_block(self):
        m = RatMatrix([[0, -1, 0], [1, 0, 0], [0, 0, 0]])
        assert spectrum_from_matrix(m) == spec(3, ("0", 1), ("1", 1))

    def test_pythagorean_conjugation_invariance(self):
        # rotate the (1, 2) coordinate plane so the conjugate actually moves
        m = RatMatrix([[0, -1, 0], [1, 0, 0], [0, 0, 0]])
        g = RatMatrix(
            [[1, 0, 0], [0, Fraction(3, 5), Fraction(-4, 5)], [0, Fraction(4, 5), Fraction(3, 5)]]
        )
        assert matmul(g, transpose(g)) == identity(3)
        conjugated = matmul(g, m, transpose(g))
        assert conjugated != m
        assert spectrum_from_matrix(conjugated) == spec(3, ("0", 1), ("1", 1))

    def test_non_half_integral_returns_none(self):
        m = RatMatrix([[0, Fraction(-1, 3), 0], [Fraction(1, 3), 0, 0], [0, 0, 0]])
        assert spectrum_from_matrix(m) is None

    def test_irrational_magnitudes_return_none(self):
        # eigenvalues 0, +/- i*sqrt(3): no half-integral magnitude is a root
        m = RatMatrix([[0, 1, 1], [-1, 0, 1], [-1, -1, 0]])
        assert spectrum_from_matrix(m) is None

    def test_not_skew(self):
        with pytest.raises(NotSkew):
            spectrum_from_matrix(identity(3))
        with pytest.raises(NotSkew):
            spectrum_from_matrix(zeros(2, 3))

    def test_too_small(self):
        with pytest.raises(TooSmall):
            spectrum_from_matrix(zeros(2, 2))

    @settings(max_examples=40, deadline=None)
    @given(half_integral_case())
    def test_cayley_conjugates_round_trip(self, case):
        s, a = case
        m = conjugated_normal_form(s, a)
        assert spectrum_from_matrix(m) == s

    @settings(max_examples=40, deadline=None)
    @given(off_grid_case())
    def test_off_grid_magnitude_returns_none(self, case):
        s, a = case
        assert spectrum_from_matrix(conjugated_normal_form(s, a)) is None

    def test_huge_entry(self):
        m = RatMatrix([[0, -(10**9), 0], [10**9, 0, 0], [0, 0, 0]])
        assert spectrum_from_matrix(m) == spec(3, ("0", 1), (10**9, 1))

    def test_kernels_only_at_actual_magnitudes(self, monkeypatch):
        # one rank, for mult(0): the other multiplicities are root orders of
        # the characteristic polynomial, and a rank per half-integer up to 260
        # would take more than 500
        s = spec(7, ("0", 1), ("3/2", 2), ("260", 1))
        a = _skew_from_upper(7, [Fraction(i + 1, j + 2) for i in range(7) for j in range(i + 1, 7)])
        m = conjugated_normal_form(s, a)
        calls = []

        def counting_rref(mat):
            calls.append(mat)
            return rref(mat)

        monkeypatch.setattr(sonreal, "rref", counting_rref)
        assert spectrum_from_matrix(m) == s
        assert len(calls) == 1

    @pytest.mark.parametrize("bound", [10**10, 10**30])
    def test_random_large_denominators_skip_charpoly(self, monkeypatch, bound):
        # 276 independent denominators make L huge, and Berkowitz on 2 L m took
        # seconds to minutes; L^2 does not divide 4 sum_{i<j} nums_ij^2, so the
        # answer is None before any characteristic polynomial
        rng = random.Random(bound)
        upper = [Fraction(rng.randint(-bound, bound), rng.randint(1, bound)) for _ in range(276)]
        calls = []
        monkeypatch.setattr(sonreal, "charpoly", lambda b: calls.append(b))
        assert spectrum_from_matrix(_skew_from_upper(24, upper)) is None
        assert calls == []

    def test_passing_the_sum_test_is_not_enough(self, monkeypatch):
        # sum mult lambda^2 = 9/25 + 16/25 = 1 is an integer, so the necessary
        # test passes and Berkowitz finds no half-integral magnitude
        s = spec(5, ("0", 1), ("3/5", 1), ("4/5", 1))
        a = _skew_from_upper(5, [Fraction(i + 1, i + 3) for i in range(10)])
        m = conjugated_normal_form(s, a)
        assert sum(v * v for i, row in enumerate(m.entries) for v in row[i + 1 :]) == 1
        assert m.den > 5  # the conjugation mixed the entries
        calls, berkowitz = [], sonreal.charpoly

        def counting_charpoly(b):
            calls.append(b)
            return berkowitz(b)

        monkeypatch.setattr(sonreal, "charpoly", counting_charpoly)
        assert spectrum_from_matrix(m) is None
        assert len(calls) == 1

    @settings(max_examples=60, deadline=None)
    @given(extraction_case())
    def test_matches_kernel_oracle(self, m):
        assert spectrum_from_matrix(m) == spectrum_from_matrix_by_kernels(m)

    def test_grid_scale_is_the_squared_denominator(self):
        # the grid is y = L^2 j^2 however the entries factor: 2 has a factor
        # in common with every entry but L = 1, so its root 16 is j = 4, and
        # 3/2 has L = 2, so its root 36 is L^2 j^2 with j = 3
        m = RatMatrix([[0, 2, 0], [-2, 0, 0], [0, 0, 0]])
        assert spectrum_from_matrix(m) == spec(3, ("0", 1), ("2", 1))
        assert spectrum_from_matrix_by_kernels(m) == spec(3, ("0", 1), ("2", 1))
        m = RatMatrix([[0, Fraction(3, 2), 0], [Fraction(-3, 2), 0, 0], [0, 0, 0]])
        assert spectrum_from_matrix(m) == spec(3, ("0", 1), ("3/2", 1))

    def test_mixed_denominators(self):
        # {1/2:1, 3/2:1} with the (1, 2) plane turned by a Pythagorean rotation:
        # entries with denominators 5 and 10 side by side, so L = 10
        s = spec(4, ("1/2", 1), ("3/2", 1))
        g = RatMatrix(
            [
                [1, 0, 0, 0],
                [0, Fraction(3, 5), Fraction(-4, 5), 0],
                [0, Fraction(4, 5), Fraction(3, 5), 0],
                [0, 0, 0, 1],
            ]
        )
        m = matmul(g, normal_form(s), transpose(g))
        dens = {v.denominator for row in m.entries for v in row}
        assert dens == {1, 5, 10}
        assert spectrum_from_matrix(m) == s == spectrum_from_matrix_by_kernels(m)

    def test_large_magnitude_not_missed(self):
        # bound must not truncate below the top magnitude
        s = spec(3, ("0", 1), ("3/2", 1))
        assert spectrum_from_matrix(normal_form(s)) == s


class TestGridRoots:
    """Root isolation on its own, against a scan of every grid point: each
    root with its order, the number of drawn factors that vanish there."""

    @settings(max_examples=150, deadline=None)
    @given(grid_root_case())
    def test_matches_scan(self, case):
        factors, scale, top = case
        orders = [
            (j, sum(_value_of([f], scale * j * j) == 0 for f in factors))
            for j in range(1, top + 1)
        ]
        scan = [(j, order) for j, order in orders if order]
        assert sonreal._grid_roots(_poly_of(factors), scale, top) == scan

    def test_multiple_and_excluded_roots(self):
        # (y - 4)^3 (y - 9) y^2 (y - 49) (y^2 + 1) on the grid {j^2}, top 6:
        # 0 and 49 lie outside 0 < j <= 6
        factors = [(1, -4)] * 3 + [(1, -9), (1, 0), (1, 0), (1, -49), (1, 0, 1)]
        assert sonreal._grid_roots(_poly_of(factors), 1, 6) == [(2, 3), (3, 1)]

    def test_constant_polynomial(self):
        assert sonreal._grid_roots([5], 1, 10) == []


class TestNormalForm:
    def test_zero_spectrum(self):
        assert normal_form(spec(4, ("0", 4))) == zeros(4, 4)

    def test_block_layout(self):
        m = normal_form(spec(3, ("0", 1), ("1", 1)))
        assert m == RatMatrix([[0, -1, 0], [1, 0, 0], [0, 0, 0]])

    @pytest.mark.parametrize("s", SAMPLED, ids=str)
    def test_round_trip(self, s):
        assert spectrum_from_matrix(normal_form(s)) == s
