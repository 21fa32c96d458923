"""Decision procedures: generation test, spectral test, constructions, enumeration."""

from fractions import Fraction
from itertools import islice, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canonical_lie import (
    NotCanonical,
    RatMatrix,
    Spectrum,
    Verdict,
    VerdictReason,
    condition1,
    enumerate_canonical,
    half_integral_count,
    half_integral_spectra,
    parabolic_of,
    prop3_check,
    prop3_report,
    spectrum_from_matrix,
    strict_generation_report,
    theorem1_report,
    theorem2_check,
)
from canonical_lie import canonical, liegraded
from canonical_lie.sonreal import TooSmall
from helpers import (
    Subspace,
    _so_table,
    bracket_indices,
    bracket_spaces,
    brute_force_spectra,
    canonical_by_families,
    canonical_by_simple_roots,
    cell_path_mismatches,
    condition1_by_fractions,
    condition1_pairwise,
    descending_series,
    descending_series_by_indices,
    generated_subalgebra,
    grading,
    integer_path_spectra,
    iterates_by_indices,
    magnitudes_of,
    mult_of,
    normal_form,
    polar,
    polar_indices,
    prop3_report_by_fractions,
    realize,
    space_at,
    spec,
    spectra_in_fraction_order,
    spectra_over,
    strict_by_table,
    subspace_sum,
    tails_by_sums,
    theorem2_by_every_grade,
    unit_span,
    wedge_basis,
    zeros,
)

# third-integer magnitudes: grades in (1/3)Z, some of them +-1
THIRDS = [Fraction(k, 3) for k in (1, 2, 4, 5)]


class TestCondition1:
    def test_zero_spectrum(self):
        assert condition1(spec(3, ("0", 3)))

    def test_half_odd_magnitudes_sum_to_integers(self):
        assert condition1(spec(4, ("1/2", 2)))
        assert condition1(spec(4, ("1/2", 1), ("3/2", 1)))

    def test_mixed_parity_fails(self):
        assert not condition1(spec(5, ("0", 1), ("1/2", 1), ("1", 1)))

    def test_non_half_integral_fails(self):
        assert not condition1(spec(4, ("5/4", 2)))

    def test_matches_pairwise_definition(self):
        cases = [s for n in range(3, 10) for s in half_integral_spectra(n, Fraction(7, 2))]
        assert len(cases) == 980
        cases += [
            spec(3, ("0", 1), ("1/3", 1)),
            spec(3, ("0", 1), ("4/3", 1)),
            spec(4, ("2/3", 2)),
            spec(4, ("1/3", 1), ("2/3", 1)),
            spec(5, ("0", 1), ("1", 1), ("7/3", 1)),
            spec(6, ("1/2", 2), ("5/3", 1)),
            spec(6, ("0", 2), ("5/6", 1), ("1/6", 1)),
        ]
        for s in cases:
            assert condition1(s) == condition1_pairwise(s), s

    def test_matches_fraction_oracle(self):
        for s in integer_path_spectra():
            assert condition1(s) == condition1_by_fractions(s), str(s)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_matches_literal_grade_scan(self, n):
        for s in half_integral_spectra(n, Fraction(5, 2)):
            table = realize(s)
            literal = all(g.denominator == 1 for g in table.grade)
            assert condition1(s) == literal


class TestTheorem2Check:
    def test_zero_spectrum_is_canonical(self):
        v = theorem2_check(spec(4, ("0", 4)))
        assert v.canonical and v.reason is VerdictReason.CANONICAL
        assert v.trace == ()
        assert v.witness == ((0, 6),)

    def test_so4_multiplicity_one_rejected(self):
        v = theorem2_check(spec(4, ("1/2", 1), ("3/2", 1)))
        assert not v.canonical
        assert v.reason is VerdictReason.GENERATION_FAILS
        assert v.failing == (2, 0, 1)
        assert v.trace == ((1, 1, 1), (2, 0, 1))

    def test_so4_multiplicity_two_accepted(self):
        v = theorem2_check(spec(4, ("1/2", 2)))
        assert v.canonical
        assert v.trace == ((1, 1, 1),)

    def test_non_integral_spectrum(self):
        v = theorem2_check(spec(5, ("0", 1), ("1/2", 1), ("1", 1)))
        assert not v.canonical
        assert v.reason is VerdictReason.NON_INTEGRAL
        assert v.witness is None

    def test_verdict_is_an_immutable_validated_record(self):
        v = theorem2_check(spec(4, ("1/2", 1), ("3/2", 1)))
        assert v == theorem2_check(spec(4, ("1/2", 1), ("3/2", 1)))
        assert Verdict._fields == ("reason", "failing", "trace", "witness")
        assert hash(v) == hash((v.reason, v.failing, v.trace, v.witness))
        assert Verdict(VerdictReason.NON_INTEGRAL) == Verdict(
            VerdictReason.NON_INTEGRAL, failing=None, trace=None, witness=None
        )
        assert {r: Verdict(r).canonical for r in VerdictReason} == {
            VerdictReason.CANONICAL: True,
            VerdictReason.NON_INTEGRAL: False,
            VerdictReason.GENERATION_FAILS: False,
        }
        with pytest.raises(AttributeError):
            v.canonical = True
        assert v._replace(trace=None) == Verdict(v.reason, v.failing, None, v.witness)
        assert v._replace(reason=VerdictReason.CANONICAL).canonical
        with pytest.raises(ValueError, match="unexpected field"):
            v._replace(canonical=not v.canonical)

    def test_gap_obstruction(self):
        v = theorem2_check(spec(3, ("0", 1), ("2", 1)))
        assert not v.canonical
        assert v.reason is VerdictReason.GENERATION_FAILS

    def test_huge_gap_jumps_to_the_next_grade(self):
        v = theorem2_check(spec(3, ("0", 1), (10**9, 1)))
        assert v.reason is VerdictReason.GENERATION_FAILS
        assert v.failing == (10**9, 0, 1)
        assert v.trace == ((1, 0, 0), (10**9, 0, 1))

    def test_jump_matches_every_grade(self):
        # the trace keeps every row up to the first (k, 0, 0), then the failing one
        jumped = 0
        for n in range(3, 8):
            for s in half_integral_spectra(n, Fraction(11, 2)):
                if not condition1(s):
                    continue
                failing, full = theorem2_by_every_grade(s)
                empty = next((i for i, row in enumerate(full) if row[1:] == (0, 0)), None)
                expected = full if empty is None else full[: empty + 1] + full[-1:]
                v = theorem2_check(s)
                assert (v.failing, v.trace) == (failing, expected), str(s)
                jumped += len(expected) < len(full)
        assert jumped > 50

    def test_grade_by_grade_equals_one_shot_closure(self):
        for s in half_integral_spectra(5, Fraction(3, 2)) + half_integral_spectra(
            4, Fraction(3, 2)
        ):
            if not condition1(s):
                continue
            table = realize(s)
            gm = grading(s)
            seed = subspace_sum(
                subspace_sum(space_at(gm, 1), space_at(gm, -1)), space_at(gm, 0)
            )
            closure_generates = generated_subalgebra(table, seed).dim == table.dim
            assert theorem2_check(s).canonical == closure_generates


class TestIndexPathMatchesSubspaceRoute:
    """The index-set generation iterates, descending series and polar against
    bracket_spaces, descending_series and polar, on every spectrum of
    half_integral_spectra(n, 5/2), n <= 8, canonical or not.  The table
    depends on n alone, so each check runs once per distinct input set.
    Then the certificates of parabolic_of, on every canonical spectrum with
    n <= 8, against the same Subspace oracles and chained grade-space sums."""

    @pytest.mark.parametrize("n", range(3, 9))
    def test_spectra(self, n):
        seen = set()
        for s in half_integral_spectra(n, Fraction(5, 2)):
            t = realize(s)
            gm = grading(s)
            g1, nil, q = gm.indices_at(1), gm.tail_indices(1), gm.tail_indices(0)
            assert unit_span(t.dim, q) == tails_by_sums(gm)[0], str(s)

            if condition1(s):
                trace = theorem2_check(s).trace
                dims = [len(x) for x in islice(iterates_by_indices(t, g1, g1), len(trace))]
                assert [a for _, a, _ in trace] == dims, str(s)

            if ("generation", g1) not in seen:
                seen.add(("generation", g1))
                g1_space = unit_span(t.dim, g1)
                previous = None
                for term in iterates_by_indices(t, g1, g1):
                    if previous is not None:
                        expected = bracket_spaces(t, g1_space, unit_span(t.dim, previous))
                        assert unit_span(t.dim, term) == expected, str(s)
                    if not term:
                        break
                    previous = term

            if ("series", nil) not in seen:
                seen.add(("series", nil))
                series = descending_series_by_indices(t, nil)
                expected = descending_series(t, unit_span(t.dim, nil))
                assert [unit_span(t.dim, x) for x in series] == expected, str(s)

            if ("polar", q) not in seen:
                seen.add(("polar", q))
                got = unit_span(t.dim, polar_indices(t, q))
                assert got == polar(t, unit_span(t.dim, q)), str(s)

        for s in enumerate_canonical(n):
            pd = parabolic_of(s)
            t = realize(s)
            tails = tails_by_sums(grading(s))

            def tail(r):
                top = [g for g in tails if g >= r]
                return tails[min(top)] if top else Subspace.zero(t.dim)

            q, nilradical = unit_span(t.dim, pd.q), unit_span(t.dim, pd.nilradical)
            series = [unit_span(t.dim, x) for x in pd.series]
            assert q == tail(0) and nilradical == tail(1), str(s)
            assert series == [tail(r) for r in range(1, len(series) + 1)], str(s)
            assert series == descending_series(t, tail(1)), str(s)
            assert polar(t, q) == nilradical, str(s)


class TestCellsMatchIndexSets:
    """The g_0-cell deciders against the index-set path of tests/helpers.py:
    the cell bracket against bracket_indices on the table of n, then every
    verdict, trace, failing certificate, witness, Theorem 1 report, sweep
    record and parabolic certificate."""

    def test_cell_bracket_is_the_index_bracket(self):
        # every positive-grade cell pair of every spectrum with n <= 12 at
        # 7/2, odd n and the split zero block of size 2 among them; a bracket
        # of cells depends on the block sizes alone, so each pair is checked
        # once per block structure
        seen, tori = set(), set()
        for n in range(3, 13):
            table = _so_table(n)
            for s in half_integral_spectra(n, Fraction(7, 2)):
                blocks = canonical._blocks(s)
                sizes, cells = tuple(m for _, m in blocks), canonical._cells(blocks, 1)
                if mult_of(s, 0) == 2:
                    tori.add(sizes)
                for a, b in product(cells, repeat=2):
                    if (sizes, a, b) in seen:
                        continue
                    seen.add((sizes, a, b))
                    got = canonical._bracket(cells, len(blocks) - 1, {a}, {b})
                    wedges = [canonical._wedge_indices(n, blocks, c) for c in (got, {a}, {b})]
                    assert wedges[0] == bracket_indices(table, *wedges[1:]), (str(s), a, b)
        assert len(seen) > 10_000 and len(tori) > 20

    def test_sweep_and_enumerated_classes(self):
        sweep = [s for n in range(3, 12) for s in half_integral_spectra(n, Fraction(7, 2))]
        assert len(sweep) == 2564
        assert cell_path_mismatches(sweep) == []
        assert cell_path_mismatches(s for n in range(3, 17) for s in enumerate_canonical(n)) == []

    def test_record_and_theorem2_share_the_generation_loop(self):
        # oracle_record runs theorem2's loop without a trace and Theorem 1 on
        # the same blocks; both must answer as theorem2_check and
        # theorem1_report do
        sweep = [s for n in range(3, 12) for s in half_integral_spectra(n, Fraction(7, 2))]
        sweep += [s for n in range(3, 9) for s in half_integral_spectra(n, Fraction(25, 2))]
        reasons = set()
        for s in sweep:
            record, verdict = canonical.oracle_record(s), theorem2_check(s)
            assert record.verdict == Verdict(verdict.reason, verdict.failing), str(s)
            t1 = all(theorem1_report(s).values()) if verdict.canonical else None
            assert record.theorem1_ok is t1, str(s)
            reasons.add(verdict.reason)
        assert len(sweep) == 2564 + 31031 and reasons == set(VerdictReason)

    @st.composite
    def spectra(draw):
        # magnitudes p/q with q in {1, 2, 3}: half-integral ones reach every
        # verdict, and thirds only Theorem 1's report
        n = draw(st.integers(3, 14))
        q = draw(st.sampled_from([1, 2, 2, 3]))
        magnitudes = draw(st.sets(st.integers(1, 3 * n), max_size=n // 2))
        entries, left = [], n
        for p in sorted(magnitudes):
            if left < 2:
                break
            mult = draw(st.integers(1, left // 2))
            entries.append((Fraction(p, q), mult))
            left -= 2 * mult
        return Spectrum(n, ((Fraction(0), left),) * (left > 0) + tuple(entries))

    @settings(max_examples=60, deadline=None)
    @given(spectra())
    def test_drawn_spectra(self, s):
        assert cell_path_mismatches([s]) == []


class TestProp3Check:
    def test_integer_ladder(self):
        assert prop3_check(spec(3, ("0", 1), ("1", 1)))

    def test_half_ladder_needs_multiplicity_two(self):
        assert not prop3_check(spec(4, ("1/2", 1), ("3/2", 1)))
        assert prop3_check(spec(4, ("1/2", 2)))
        assert prop3_check(spec(6, ("1/2", 2), ("3/2", 1)))

    def test_gap_in_ladder(self):
        assert not prop3_check(spec(3, ("0", 1), ("2", 1)))

    def test_missing_zero(self):
        assert not prop3_check(spec(4, ("1", 2)))

    def test_mixed_parity(self):
        assert not prop3_check(spec(5, ("0", 1), ("1/2", 1), ("1", 1)))

    def test_report_matches_fraction_oracle(self):
        for s in integer_path_spectra():
            assert prop3_report(s) == prop3_report_by_fractions(s), str(s)

    def test_check_is_the_answer_of_the_report(self):
        # prop3_check is the ladder test and prop3_report words it; thirds and
        # quarters included
        spectra = [s for n in range(3, 12) for s in half_integral_spectra(n, "7/2")]
        spectra += [s for n in range(3, 9) for s in half_integral_spectra(n, "25/2")]
        spectra += [s for n in range(3, 17) for s in enumerate_canonical(n)]
        spectra += [s for s in integer_path_spectra() if s.den > 2]
        for s in spectra:
            assert prop3_check(s) == prop3_report(s)[0], str(s)


class TestStrictGeneration:
    def test_zero_spectrum_not_strict(self):
        assert not strict_generation_report(spec(4, ("0", 4)))[0]

    def test_so4_half_spectrum_not_strict(self):
        ok, generated, full = strict_generation_report(spec(4, ("1/2", 2)))
        assert not ok
        assert (generated, full) == (3, 6)

    def test_so3_integer_spectrum_strict(self):
        assert strict_generation_report(spec(3, ("0", 1), ("1", 1)))[0]

    def test_so6_half_spectrum_is_strict(self):
        # unlike so(4), so(6) with the short grading is simple enough that
        # the outer grades alone generate
        assert strict_generation_report(spec(6, ("1/2", 3)))[0]

    def test_middle_index_bracket_lands_on_a_diagonal_wedge(self):
        # so(3) under {0:1, 1:1}: the wedges (0, 1), (0, 2), (1, 2) have grades
        # 1, 0, -1; [u_0^u_1, u_1^u_2] goes through the middle index 1 and is
        # a multiple of the diagonal wedge u_0^u_2 alone
        s = spec(3, ("0", 1), ("1", 1))
        t = realize(s)
        assert [k for k, _ in t._sparse[0][2]] == [1]
        assert wedge_basis(s).pairs[1] == (0, 2)
        assert liegraded._witt_bracket(3, (0, 1), (1, 2)) == {(0, 2): -1}
        assert strict_generation_report(s) == (True, 3, 3)

    @pytest.mark.parametrize(
        "spectra",
        [
            lambda: [s for n in range(3, 11) for s in half_integral_spectra(n, "7/2")],
            lambda: [s for n in range(3, 9) for s in spectra_over(n, THIRDS)],
            lambda: [s for n in range(3, 13) for s in enumerate_canonical(n)],
            lambda: [
                spec(24, ("0", 2), *((str(k), 1) for k in range(1, 12))),
                spec(24, ("0", 24)),
            ],
        ],
        ids=["sweep", "thirds", "classes", "ci-n24"],
    )
    def test_matches_the_table_oracle(self, spectra):
        # the report on Witt wedges and the closed-form bracket against the
        # same closure on basis-index sets of the so(n, C) table
        generated = []
        for s in spectra():
            got = strict_generation_report(s)
            assert got == strict_by_table(s), str(s)
            generated.append(got[1])
        assert max(generated) > 0

    @pytest.mark.parametrize("n", range(3, 9))
    def test_index_sets_match_generated_subalgebra(self, n):
        """On every half-integral spectrum with magnitudes <= 5/2, odd n and
        even n, the index-set report equals the Subspace closure of
        g_1 + g_{-1}: answer, generated dimension and algebra dimension."""
        spectra = half_integral_spectra(n, Fraction(5, 2))
        assert len(spectra) == half_integral_count(n, Fraction(5, 2))
        for s in spectra:
            t = realize(s)
            gm = grading(s)
            seed = subspace_sum(space_at(gm, 1), space_at(gm, -1))
            got = generated_subalgebra(t, seed).dim
            assert strict_generation_report(s) == (got == t.dim, got, t.dim), str(s)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_strict_implies_canonical_never_converse(self, n):
        converse_gap = False
        for s in half_integral_spectra(n, Fraction(5, 2)):
            if strict_generation_report(s)[0]:
                assert theorem2_check(s).canonical
            elif theorem2_check(s).canonical:
                converse_gap = True
        assert converse_gap  # at least {0:n} is canonical but not strict


class TestParabolicOf:
    def test_zero_spectrum(self):
        pd = parabolic_of(spec(4, ("0", 4)))
        assert pd.q == frozenset(range(6))
        assert pd.nilradical == frozenset()
        assert [len(x) for x in pd.series] == [0]

    def test_so3(self):
        pd = parabolic_of(spec(3, ("0", 1), ("1", 1)))
        assert len(pd.q) == 2
        assert len(pd.nilradical) == 1
        assert [len(x) for x in pd.series] == [1, 0]

    def test_so5_series_matches_tails(self):
        s = spec(5, ("0", 3), ("1", 1))
        pd = parabolic_of(s)
        gm = grading(s)
        for r, term in enumerate(pd.series, start=1):
            assert term == gm.tail_indices(r)
        dims = [len(x) for x in pd.series]
        assert all(a > b for a, b in zip(dims, dims[1:]))

    def test_q_is_the_oracle_tail(self):
        # q from the grade >= 0 cells against the table oracle's grading
        classes = [s for n in range(3, 17) for s in enumerate_canonical(n)]
        for s in classes:
            assert parabolic_of(s).q == grading(s).tail_indices(0), str(s)
        assert len(classes) == 635
        assert parabolic_of(spec(4, ("0", 4)))._fields == ("q", "nilradical", "series")

    def test_rejects_non_canonical(self):
        with pytest.raises(NotCanonical):
            parabolic_of(spec(4, ("1/2", 1), ("3/2", 1)))

    @pytest.mark.parametrize(
        "name,broken,fails",
        [
            ("_polar", lambda cells, last, a: frozenset(), "polar_is_nilradical"),
            (
                "_descending_series",
                lambda cells, last, n: [n],
                "series_matches_tails, series_reaches_zero",
            ),
        ],
        ids=["polar", "series"],
    )
    def test_names_each_failing_theorem1_property(self, monkeypatch, name, broken, fails):
        # theorem2 still finds the spectrum canonical; the bent layer breaks
        # Theorem 1 only, and parabolic_of names what broke
        s = spec(5, ("0", 1), ("1", 2))
        monkeypatch.setattr(canonical, name, broken)
        assert theorem2_check(s).canonical
        with pytest.raises(RuntimeError, match=f"fails {fails}$"):
            parabolic_of(s)


class TestTheorem1:
    def test_zero_spectrum(self):
        assert all(theorem1_report(spec(3, ("0", 3))).values())

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_all_enumerated_spectra_verify(self, n):
        for s in enumerate_canonical(n):
            assert theorem2_check(s).canonical
            assert all(theorem1_report(s).values())

    def test_negative_control_fails_a_property(self):
        report = theorem1_report(spec(4, ("1/2", 1), ("3/2", 1)))
        assert not all(report.values())
        assert not report["series_matches_tails"]

    def test_huge_gap_stops_at_the_first_mismatch(self):
        # tails are compared grade by grade and the first mismatch ends the
        # scan, so a magnitude of 10^9 costs no more than one of 2
        report = theorem1_report(spec(3, ("0", 1), (10**9, 1)))
        assert report == theorem1_report(spec(3, ("0", 1), ("2", 1)))
        assert not report["series_matches_tails"] and report["polar_is_nilradical"]

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_forward_bracket_equality(self, n):
        # for canonical spectra, [g_1, g_k] is exactly g_{k+1}
        for s in enumerate_canonical(n):
            table = realize(s)
            gm = grading(s)
            kmax = max((int(g) for g in gm.grades() if g > 0), default=0)
            for k in range(1, kmax + 1):
                out = bracket_spaces(table, space_at(gm, 1), space_at(gm, k))
                assert out == space_at(gm, k + 1)


class TestEnumeration:
    def test_n3(self):
        assert [str(s) for s in enumerate_canonical(3)] == ["{0:3}", "{0:1, 1:1}"]

    def test_n4(self):
        assert [str(s) for s in enumerate_canonical(4)] == [
            "{0:4}",
            "{1/2:2}",
            "{0:2, 1:1}",
        ]

    def test_n5_count(self):
        assert len(enumerate_canonical(5)) == 4

    def test_too_small(self):
        with pytest.raises(TooSmall):
            enumerate_canonical(2)

    def test_subset_map_matches_families(self):
        """For n = 3..24 the Burstall–Rawnsley subset map gives prop3's two
        families written out, in the same order; 2^r classes for odd n and
        3 * 2^(r-2) for even n (r = n // 2, the fork pair merged); and the
        roots decider, the inverse map, accepts every class."""
        for n in range(3, 25):
            classes = enumerate_canonical(n)
            assert classes == canonical_by_families(n), n
            r = n // 2
            assert len(classes) == (2**r if n % 2 else 3 * 2 ** (r - 2)), n
            assert all(canonical_by_simple_roots(s) for s in classes), n

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_matches_brute_force_filter(self, n):
        # independent route: generate every bounded spectrum, filter by the
        # generation-based decider, compare as sets
        brute = {s for s in brute_force_spectra(n, 2 * ((n - 1) // 2) + 1)
                 if theorem2_check(s).canonical}
        assert set(enumerate_canonical(n)) == brute

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_generator_agreement(self, n):
        bound = Fraction(5, 2)
        brute = brute_force_spectra(n, int(2 * bound))
        assert set(half_integral_spectra(n, bound)) == set(brute)
        assert half_integral_count(n, bound) == len(brute)

    @pytest.mark.parametrize(
        "n,bound",
        [(n, Fraction(7, 2)) for n in range(3, 13)]
        + [(n, Fraction(25, 2)) for n in range(3, 7)]
        + [(n, bound) for bound in (Fraction(1, 2), Fraction(1)) for n in range(3, 25)],
    )
    def test_order_matches_fraction_keys(self, n, bound):
        assert half_integral_spectra(n, bound) == spectra_in_fraction_order(n, int(2 * bound))


class TestCheckMatrix:
    """Extraction feeding theorem2, as `check --matrix` runs them; the CLI
    maps a failed extraction to NonIntegralAdSpectrum (see the golden
    entries for golden/third.csv)."""

    def test_zero_matrix_is_canonical(self):
        v = theorem2_check(spectrum_from_matrix(zeros(3, 3)))
        assert v.canonical

    def test_normal_form_of_rejected_spectrum(self):
        v = theorem2_check(spectrum_from_matrix(normal_form(spec(4, ("1/2", 1), ("3/2", 1)))))
        assert not v.canonical
        assert v.reason is VerdictReason.GENERATION_FAILS

    def test_non_half_integral_matrix(self):
        m = RatMatrix([[0, Fraction(-1, 3), 0], [Fraction(1, 3), 0, 0], [0, 0, 0]])
        assert spectrum_from_matrix(m) is None


class TestSpectralProperties:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_oracle_equivalence_small(self, n):
        for s in half_integral_spectra(n, Fraction(5, 2)):
            assert theorem2_check(s).canonical == prop3_check(s)

    @pytest.mark.parametrize("n", [4, 6])
    def test_multiplicity_one_half_always_rejected(self, n):
        for s in half_integral_spectra(n, Fraction(5, 2)):
            if mult_of(s, Fraction(1, 2)) == 1 and magnitudes_of(s)[0].denominator == 2:
                assert not theorem2_check(s).canonical
                assert not prop3_check(s)

    @pytest.mark.parametrize("c", [2, 3])
    def test_scaling_introduces_gaps(self, c):
        for n in (3, 4, 5):
            for s in enumerate_canonical(n):
                if s.max_magnitude == 0:
                    continue
                scaled = spec(n, *((str(lam * c), m) for lam, m in s.entries))
                assert not theorem2_check(scaled).canonical
                assert not prop3_check(scaled)
