"""Deciders, constructions and enumeration for canonical spectra of so(n).

An element xi of so(n) is *canonical* when it is the canonical element of
some parabolic subalgebra q of so(n, C): the ad-eigenspaces of xi grade q
and the positive-grade tails are exactly the central descending series of
the nilradical of q.  Two independent deciders live here:

* :func:`theorem2_check` — the generation-based test.  xi is canonical iff
  all ad-eigenvalue grades are integers and the grade-1 piece rebuilds each
  higher grade by repeated bracketing: g^1 = g_1, g^{k+1} = [g_1, g^k] must
  equal g_{k+1} for every positive grade.  A verdict's answer is read from
  its reason, and it carries certificates (the grading, or the first
  failing grade with the achieved and required dimensions).

* :func:`prop3_check` — the closed-form spectral test.  The magnitude set
  must be an unbroken ladder 0, 1, ..., k, or an unbroken half-odd ladder
  1/2, 3/2, ..., k + 1/2 with the 1/2 magnitude of multiplicity at least 2.
  :func:`prop3_report` gives the same answer with the reason for it.

The package's headline property is that the two agree on every half-integral
spectrum; the `verify` CLI command and the acceptance suite sweep that
equivalence exhaustively at small n.  :func:`enumerate_canonical` lists the
canonical classes from the root datum instead: each comes from a subset of
simple roots (Burstall–Rawnsley), and each is an O(n) class.
:func:`theorem1_report` checks the defining properties (Theorem 1), and
:func:`parabolic_of` and :func:`oracle_record` run the same check on
theorem2's grading, so each spectrum is graded once.

Every space the generation test and the canonical-element properties touch
(grade spaces, their tails, [g_1, g^k], the descending series of the
nilradical, the polar of q) is spanned by basis elements of the Witt wedge
basis: a bracket of two basis elements has two nonzero coordinates only when
their grades sum to 0, and the trace form is monomial.  So these run on sets
of basis indices (:func:`liegraded.bracket_indices`,
:func:`liegraded.polar_indices`), which raise rather than answer if a bracket
or form row they meet is not monomial.  The certificates of
:func:`parabolic_of` (q, its nilradical and descending series) are those
index sets too.  Strict generation by g_1 + g_{-1}, whose brackets can have
two nonzero coordinates, closes an index set too and eliminates only over
the n // 2 diagonal wedges.
"""

import math
from collections import Counter, namedtuple
from enum import Enum
from itertools import combinations_with_replacement, islice, product

from .exactlin import RatMatrix, format_ratio, ratio, rref
from .liegraded import GradingMap, LieTable, NotMonomial, bracket_indices, polar_indices
from .sonreal import Spectrum, TooSmall, _pair_index, _so_table, grading


class NotCanonical(ValueError):
    """Operation requires a canonical spectrum."""


class VerdictReason(str, Enum):
    CANONICAL = "Canonical"
    NON_INTEGRAL = "NonIntegralAdSpectrum"
    GENERATION_FAILS = "GenerationFails"


_CANONICAL = VerdictReason.CANONICAL  # an enum member read off its class costs a lookup each time


class Verdict(namedtuple("Verdict", "reason failing trace witness", defaults=(None,) * 3)):
    """Decision plus certificate; the answer is read from `reason`.

    `failing` is (grade, achieved dim, required dim) for a generation
    failure; `trace` records (grade, dim g^k, dim g_k) for each positive
    grade visited, which skips the (k, 0, 0) grades between the first empty
    one and the failing one; `witness` is the spectrum's grading when its
    grades are integral.
    """

    __slots__ = ()

    @property
    def canonical(self) -> bool:
        return self.reason is _CANONICAL


_NON_INTEGRAL = Verdict(VerdictReason.NON_INTEGRAL)  # one shared verdict, as it has no certificate


class ParabolicData(namedtuple("ParabolicData", "q nilradical series grading")):
    """The parabolic built from a canonical spectrum, with its certificates:
    q, its nilradical and each term of its descending series as the frozenset
    of the Witt wedge basis indices that spans it, and the grading."""

    __slots__ = ()


def condition1(s: Spectrum) -> bool:
    """True iff every grade lambda_a + lambda_b over basis pairs is an integer.

    Equivalently: the magnitudes' denominators are all 1 or all 2, that is,
    every 2 lambda is an integer and the magnitudes (0 among them when
    present) are all integers or all half-odd.  Each eigendirection lambda
    has a second one mu beside it (n >= 3), and lambda + mu and lambda - mu
    are both grades, so integral grades put 2 lambda in Z and lambda, mu in
    the same class mod 1; conversely every grade is then an integer.  On
    the spectrum's ints: D = 1, or D = 2 with every 2 lambda odd.  This reads
    the spectrum's entries only, never the n(n-1)/2 basis pairs.
    """
    return s.den == 1 or (s.den == 2 and all(k & 1 for k, _ in s.scaled))


def theorem2_check(s: Spectrum) -> Verdict:
    """Generation-based canonicality decision with a step-by-step certificate.

    After the integrality gate, iterate g^1 = g_1, g^{k+1} = [g_1, g^k]
    in the so(n, C) table and compare against the spectrum's grade spaces.
    Since [g_1, g^k] always lands inside g_{k+1}, the first failure is a
    strict dimension deficit at some grade; success at every positive grade
    is equivalent to g_1 + g_0 + g_{-1} generating the whole algebra.

    Once an iterate is empty at an empty grade k, every later iterate is
    empty, so the first failure is the next grade that holds a basis
    element.  The loop jumps there, and the trace omits the grades between,
    each (grade, 0, 0), so time and memory grow with the number of grades,
    not with the magnitudes.
    """
    if not condition1(s):
        return _NON_INTEGRAL
    table, gm = _so_table(s.n), grading(s)
    spaces = {g: frozenset(idx) for g, idx in gm.blocks if g > 0}  # condition1: int grades
    kmax = max(spaces, default=0)
    g1 = spaces.get(1, frozenset())
    trace = []
    for k, current in zip(range(1, kmax + 1), _iterates(table, g1, g1)):
        required = spaces.get(k, frozenset())
        trace.append((k, len(current), len(required)))
        if not current and not required:  # every later iterate is empty too
            k = min(g for g in spaces if g > k)  # kmax holds a basis element
            required = spaces[k]
            trace.append((k, 0, len(required)))
        if current != required:
            return Verdict(
                VerdictReason.GENERATION_FAILS, failing=trace[-1], trace=tuple(trace), witness=gm
            )
    return Verdict(VerdictReason.CANONICAL, trace=tuple(trace), witness=gm)


def _iterates(table: LieTable, a: frozenset[int], start: frozenset[int]):
    """start, [a, start], [a, [a, start]], ... as basis-index sets, each
    bracket taken only when the next term is asked for."""
    term = start
    while True:
        yield term
        term = bracket_indices(table, a, term)


def _descending_series(table: LieTable, n: frozenset[int]) -> list[frozenset[int]]:
    """Central descending series [n, [n, n], [n, [n, n]], ...] of
    span{e_i : i in n}, as index sets, ending just before the first
    repetition, so a nilpotent n ends with the empty set."""
    series = []
    for term in islice(_iterates(table, n, n), table.dim + 2):
        if series and term == series[-1]:
            return series
        series.append(term)
    raise ValueError("descending series did not stabilize; is n a subalgebra?")


def prop3_report(s: Spectrum) -> tuple[bool, str]:
    """Closed-form canonicality test on the magnitude ladder, with the
    sentence that says why."""
    count = len(s.scaled)
    scaled = [k for k, _ in s.scaled]  # D * lambda, ascending
    if s.den == 1 and scaled == list(range(count)):
        return True, f"magnitudes form the integer ladder 0..{count - 1}"
    if s.den == 2 and scaled == list(range(1, 2 * count, 2)):
        m_half = s.scaled[0][1]
        if m_half >= 2:
            return True, (
                f"magnitudes form the half-odd ladder 1/2..{format_ratio(scaled[-1], 2)} "
                f"with mult(1/2) = {m_half} >= 2"
            )
        return False, f"half-odd ladder, but mult(1/2) = {m_half} < 2"
    return False, "magnitudes are not an unbroken ladder from 0 or 1/2"


def prop3_check(s: Spectrum) -> bool:
    """Closed-form canonicality test on the magnitude ladder."""
    return prop3_report(s)[0]


def strict_generation_report(s: Spectrum) -> tuple[bool, int, int]:
    """Does g_1 + g_{-1} alone generate?  Returns (answer, generated, full).

    This stricter condition fails for some canonical spectra (xi = 0 has
    empty grade +-1 pieces, and so(4) splits as two commuting su(2)s), which
    is why it is not the canonicality criterion.

    It runs on basis-index sets.  Call u_a ^ u_{n-1-a} the n // 2 diagonal
    wedges and every other wedge a root wedge.  A bracket of two root
    wedges is a multiple of one root wedge or lies in the span of the
    diagonal wedges (a root wedge with its partner, or through the middle
    index at odd n); the diagonal wedges commute with each other and only
    rescale root wedges.  So the subalgebra generated by root wedges is
    spanned by the closure R of their indices under single-term brackets
    onto root wedges, plus the diagonal parts of the brackets within R, and
    its dimension is |R| plus the rank of those parts, an elimination over
    at most n // 2 columns.  The diagonal wedges have grade 0, so the seed
    is the index set g_1 + g_{-1}.  Raises NotMonomial naming a bracket of
    root wedges with two nonzero coordinates on root wedges.
    """
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


def parabolic_of(s: Spectrum) -> ParabolicData:
    """Parabolic subalgebra, nilradical and descending series of a canonical spectrum.

    q is the sum of the non-negative grade spaces and the nilradical the sum
    of the positive ones, each given by the basis indices that span it; the
    series is recomputed by bracketing, and all four properties of
    :func:`theorem1_report` are checked rather than assumed.
    """
    verdict = theorem2_check(s)
    if not verdict.canonical:
        raise NotCanonical(f"spectrum {s} is not canonical: {verdict.reason.value}")
    gm = verdict.witness
    report, series = _theorem1(_so_table(s.n), gm)
    failed = [name for name, ok in report.items() if not ok]
    if failed:
        raise RuntimeError(f"canonical spectrum {s} fails {', '.join(failed)}")
    return ParabolicData(gm.tail_indices(0), series[0], tuple(series), gm)


def theorem1_report(s: Spectrum) -> dict[str, bool]:
    """Check the defining properties of a canonical element, without gating.

    Reports whether (i) all grades are integral, (ii) the descending series
    of the positive-grade sum equals the grading tails step by step,
    (iii) the polar of q is that nilradical, and (iv) the series terminates
    at zero.  Running this on a non-canonical grading shows which property
    breaks.
    """
    return _theorem1(_so_table(s.n), grading(s))[0]


def _theorem1(table: LieTable, gm: GradingMap) -> tuple[dict[str, bool], list[frozenset[int]]]:
    """theorem1_report's properties of the grading gm of table, with the
    descending series of the nilradical, which starts with the nilradical."""
    grades = gm.grades()
    deepest = max([int(g) for g in grades if g > 0 and g.denominator == 1], default=0)
    nilradical = gm.tail_indices(1)
    series = _descending_series(table, nilradical)
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


def enumerate_canonical(n: int) -> list[Spectrum]:
    """All canonical spectra for so(n), one per O(n) conjugacy class, sorted
    by largest magnitude, then entries.

    Burstall–Rawnsley: the canonical element of the parabolic p_I is 1 on
    each simple root outside I and 0 on each one in I.  Each 0/1 vector v on
    the r = n // 2 simple roots is solved for 2 lambda_r (B_r), or for
    2 lambda_r and 2 lambda_(r-1) (D_r), then 2 lambda_i = 2 lambda_(i+1) +
    2 v_i up the chain.  The magnitudes are the |lambda_i|, so the D_r fork
    subsets {alpha_(r-1)} and {alpha_r} give one O(n) class.
    """
    if n < 3:
        raise TooSmall(f"need n >= 3, got n = {n}")
    keys = set()
    for v in product((0, 1), repeat=n // 2):
        doubled = [2 * v[-1]] if n % 2 else [v[-1] - v[-2], v[-2] + v[-1]]
        for vi in reversed(v[: n % 2 - 2]):  # the roots above the one or two solved
            doubled.append(doubled[-1] + 2 * vi)
        counts = Counter(map(abs, doubled))
        m0 = 2 * counts.pop(0, 0) + n % 2
        entries = ((0, m0),) * (m0 > 0) + tuple(sorted(counts.items()))
        keys.add((entries[-1][0], entries))
    return _spectra_from_doubled(n, keys)


def _spectra_from_doubled(n: int, keyed) -> list[Spectrum]:
    """The spectra of the keys (2 max lambda, ((2 lambda, mult), ...)), sorted
    on those ints, which is the order by largest magnitude, then entries."""
    return [Spectrum._from_doubled(n, doubled) for _, doubled in sorted(keyed)]


def _twice(max_lambda) -> int:
    """int(2 * max_lambda), rounded toward 0 as int() rounds a Fraction; an
    int or a 'p/q' string is read without building one."""
    p, q = ratio(max_lambda)
    return 2 * p // q if p >= 0 else -(-2 * p // q)


def half_integral_count(n: int, max_lambda) -> int:
    """len(half_integral_spectra(n, max_lambda)) without building them: one
    spectrum per multiset of at most n // 2 of the 2 max_lambda positive
    magnitudes."""
    return math.comb(_twice(max_lambda) + n // 2, n // 2)


def half_integral_spectra(n: int, max_lambda) -> list[Spectrum]:
    """All valid spectra for so(n) with magnitudes in (1/2)Z up to max_lambda,
    sorted by largest magnitude, then entries.  max_lambda is an int, a
    Fraction or a 'p/q' string."""
    if n < 3:
        raise TooSmall(f"need n >= 3, got n = {n}")
    top = _twice(max_lambda)
    # one (2 lambda, mult) pair per value, shared by the spectra that hold it
    pairs = [[(d, m) for m in range(n // 2 + 1)] for d in range(top + 1)]
    keyed = []
    for size in range(0, n // 2 + 1):
        m0 = n - 2 * size
        zero = ((0, m0),) * (m0 > 0)
        for combo in combinations_with_replacement(range(1, top + 1), size):
            # combo ascends, so dict.fromkeys lists its distinct values in order
            doubled = zero + tuple([pairs[d][combo.count(d)] for d in dict.fromkeys(combo)])
            keyed.append((doubled[-1][0], doubled))
    return _spectra_from_doubled(n, keyed)


class OracleRecord(namedtuple("OracleRecord", "spectrum verdict prop3 theorem1_ok")):
    """One spectrum's results under both deciders, for the equivalence sweep;
    `theorem1_ok` is None unless theorem2 found the spectrum canonical, else
    whether its grading has every Theorem 1 property.  `verdict` keeps only
    its reason and failing grade, so a sweep's records stay small."""

    __slots__ = ()

    @property
    def agree(self) -> bool:
        return self.verdict.canonical == self.prop3

    @property
    def ok(self) -> bool:
        return self.agree and self.theorem1_ok is not False


def sweep_tally(records) -> tuple[list[OracleRecord], int, int]:
    """(the records that are not `ok`, how many theorem2 found canonical, how
    many `agree`) in one pass that reads each verdict's reason once, with
    `canonical`, `agree` and `ok` as the properties above define them."""
    bad, canonical_count, agreements = [], 0, 0
    for rec in records:
        canonical = rec.verdict.reason is _CANONICAL
        agree = canonical == rec.prop3
        canonical_count += canonical
        agreements += agree
        if not agree or rec.theorem1_ok is False:
            bad.append(rec)
    return bad, canonical_count, agreements


def oracle_record(s: Spectrum) -> OracleRecord:
    verdict = theorem2_check(s)
    p3 = prop3_check(s)
    t1 = all(_theorem1(_so_table(s.n), verdict.witness)[0].values()) if verdict.canonical else None
    if verdict.trace is not None:
        verdict = Verdict(verdict.reason, verdict.failing)
    return OracleRecord(s, verdict, p3, t1)
