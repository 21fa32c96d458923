"""Deciders, constructions and enumeration for canonical spectra of so(n).

An element xi of so(n) is *canonical* when it is the canonical element of
some parabolic subalgebra q of so(n, C): the ad-eigenspaces of xi grade q
and the positive-grade tails are exactly the central descending series of
the nilradical of q.  Two independent deciders live here:

* :func:`theorem2_check` — the generation-based test.  xi is canonical iff
  all ad-eigenvalue grades are integers and the grade-1 piece rebuilds each
  higher grade by repeated bracketing: g^1 = g_1, g^{k+1} = [g_1, g^k] must
  equal g_{k+1} for every positive grade.  A verdict's answer is read from
  its reason, and it carries certificates (the grading's dimensions, or
  the first failing grade with the achieved and required dimensions).

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
:func:`parabolic_of` and :func:`oracle_record` run the same check.

Every space the generation test and the canonical-element properties touch
(grade spaces, their tails, [g_1, g^k], the descending series of the
nilradical, the polar of q) is a union of the g_0-cells of
:mod:`liegraded`, so the deciders cost O(r^2) cells for r distinct labels
and grade no wedge.  :func:`parabolic_of` expands its certificates (q, the
nilradical and the descending series) to Witt wedge indices.  Strict
generation by g_1 + g_{-1} reaches grade-0 cells, which are not
irreducible, so it closes a set of Witt wedges under the closed-form
bracket and eliminates only over the n // 2 diagonal wedges.
"""

import math
from collections import Counter, namedtuple
from enum import Enum
from itertools import product

from .exactlin import RatMatrix, format_ratio, ratio, rref
from .liegraded import (
    _blocks,
    _bracket,
    _cells,
    _descending_series,
    _polar,
    _wedge_indices,
    _witt_bracket,
)
from .sonreal import Spectrum, TooSmall


class NotCanonical(ValueError):
    """Operation requires a canonical spectrum."""


class VerdictReason(str, Enum):
    CANONICAL = "Canonical"
    NON_INTEGRAL = "NonIntegralAdSpectrum"
    GENERATION_FAILS = "GenerationFails"


# an enum member read off its class costs a lookup each time
_CANONICAL, _FAILS = VerdictReason.CANONICAL, VerdictReason.GENERATION_FAILS


class Verdict(namedtuple("Verdict", "reason failing trace witness", defaults=(None,) * 3)):
    """Decision plus certificate; the answer is read from `reason`.

    `failing` is (grade, achieved dim, required dim) for a generation
    failure; `trace` records (grade, dim g^k, dim g_k) for each positive
    grade visited, which skips the (k, 0, 0) grades between the first empty
    one and the failing one; `witness` is the dimensions of the spectrum's
    grading when its grades are integral, as (grade, dim) pairs by ascending
    grade.
    """

    __slots__ = ()

    @property
    def canonical(self) -> bool:
        return self.reason is _CANONICAL


# one shared verdict each, as neither has a certificate (a record keeps no trace or witness)
_NON_INTEGRAL, _CANONICAL_VERDICT = Verdict(VerdictReason.NON_INTEGRAL), Verdict(_CANONICAL)


class ParabolicData(namedtuple("ParabolicData", "q nilradical series")):
    """The parabolic built from a canonical spectrum, with its certificates:
    q, its nilradical and each term of its descending series as the frozenset
    of the Witt wedge basis indices that spans it."""

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
    if s.den != 2:
        return s.den == 1
    for k, _ in s.scaled:
        if not k & 1:
            return False
    return True


def theorem2_check(s: Spectrum) -> Verdict:
    """Generation-based canonicality decision with a step-by-step certificate.

    After the integrality gate, iterate g^1 = g_1, g^{k+1} = [g_1, g^k]
    on the spectrum's g_0-cells and compare against its grade spaces.
    Since [g_1, g^k] always lands inside g_{k+1}, the first failure is a
    strict dimension deficit at some grade; success at every positive grade
    is equivalent to g_1 + g_0 + g_{-1} generating the whole algebra.

    Once an iterate is empty at an empty grade k, every later iterate is
    empty, so the first failure is the next grade that holds a cell.  The
    loop jumps there, and the trace omits the grades between, each
    (grade, 0, 0), so time and memory grow with the number of grades, not
    with the magnitudes.
    """
    if not condition1(s):
        return _NON_INTEGRAL
    trace = []
    reason, failing, dims = _generate(s.den, _blocks(s), trace)
    grades = sorted(dims)
    zero = s.n * (s.n - 1) // 2 - 2 * sum(dims.values())  # dim g_-k = dim g_k
    witness = tuple([(-k, dims[k]) for k in reversed(grades)] + [(0, zero)])
    witness += tuple([(k, dims[k]) for k in grades])
    return Verdict(reason, failing, tuple(trace), witness)


def _generate(den: int, blocks, trace) -> tuple[VerdictReason, tuple | None, dict[int, int]]:
    """theorem2's generation loop on the g_0-cells of an integral grading:
    (reason, failing, {grade: dim g_k} over the positive grades), failing as
    in :class:`Verdict`.  Appends each (grade, dim g^k, dim g_k) row of the
    trace when `trace` is a list, and keeps none when it is None."""
    cells = _cells(blocks, 1)
    spaces, dims = {}, {}  # by grade: the cells, their dimension
    for cell, (g, d) in cells.items():
        k = g // den  # condition1: int grades
        spaces.setdefault(k, set()).add(cell)
        dims[k] = dims.get(k, 0) + d
    last, empty = len(blocks) - 1, frozenset()
    g1 = current = spaces.get(1, empty)
    for k in range(1, max(dims, default=0) + 1):
        if k > 1:
            current = _bracket(cells, last, g1, current)
        required = spaces.get(k, empty)
        if trace is not None:
            trace.append((k, sum([cells[c][1] for c in current]), dims.get(k, 0)))
        if not current and not required:  # every later iterate is empty too
            k = min(g for g in dims if g > k)  # the largest grade holds a cell
            required = spaces[k]
            if trace is not None:
                trace.append((k, 0, dims[k]))
        if current != required:
            return _FAILS, (k, sum([cells[c][1] for c in current]), dims.get(k, 0)), dims
    return _CANONICAL, None, dims


def prop3_check(s: Spectrum) -> bool:
    """Closed-form canonicality test on the magnitude ladder.  The c values
    D * lambda ascend strictly from 0 or more, so at D = 1 they are 0, ..., c - 1
    iff the last is c - 1, and at D = 2 1, 3, ..., 2c - 1 iff all are odd and the last is."""
    scaled = s.scaled
    if s.den == 1:
        return scaled[-1][0] == len(scaled) - 1
    if s.den != 2 or scaled[-1][0] != 2 * len(scaled) - 1 or scaled[0][1] < 2:
        return False
    for k, _ in scaled:
        if not k & 1:
            return False
    return True


def prop3_report(s: Spectrum) -> tuple[bool, str]:
    """:func:`prop3_check`'s answer, with the sentence that says why."""
    if prop3_check(s):
        if s.den == 1:
            return True, f"magnitudes form the integer ladder 0..{s.scaled[-1][0]}"
        top, m = format_ratio(s.scaled[-1][0], 2), s.scaled[0][1]
        return True, f"magnitudes form the half-odd ladder 1/2..{top} with mult(1/2) = {m} >= 2"
    if s.den == 2 and [k for k, _ in s.scaled] == list(range(1, 2 * len(s.scaled), 2)):
        return False, f"half-odd ladder, but mult(1/2) = {s.scaled[0][1]} < 2"
    return False, "magnitudes are not an unbroken ladder from 0 or 1/2"


def strict_generation_report(s: Spectrum) -> tuple[bool, int, int]:
    """Does g_1 + g_{-1} alone generate?  Returns (answer, generated, full).

    This stricter condition fails for some canonical spectra (xi = 0 has
    empty grade +-1 pieces, and so(4) splits as two commuting su(2)s), which
    is why it is not the canonicality criterion.

    Generation by g_1 + g_{-1} reaches grade-0 cells, which are not
    irreducible (V (x) V* holds sl(V) and the scalars), so it runs on Witt
    wedges (a, b) and :func:`_witt_bracket` rather than on cells.  Call
    u_a ^ u_{n-1-a} the n // 2 diagonal wedges and every other wedge a root
    wedge.  A bracket of two root wedges is a multiple of one root wedge or
    lies in the span of the diagonal wedges (a root wedge with its partner,
    or through the middle index at odd n); the diagonal wedges commute with
    each other and only rescale root wedges.  So the subalgebra generated by
    root wedges is spanned by the closure R of them under single-term
    brackets onto root wedges, plus the diagonal parts of the brackets within
    R, and its dimension is |R| plus the rank of those parts, an elimination
    over at most n // 2 columns.  The diagonal wedges have grade 0, so the
    seed is the wedges whose labels sum to +-D.  The tests check that shape
    of the bracket on every pair of wedges up to n = 24, so none is checked
    here.
    """
    n, den = s.n, s.den
    labels = [k for k, m in _blocks(s) for _ in range(m)]
    diagonal = [(a, n - 1 - a) for a in range(n // 2)]
    todo = [
        (a, b) for a in range(n) for b in range(a + 1, n) if abs(labels[a] + labels[b]) == den
    ]
    roots, done, parts = set(todo), [], set()
    while todo:
        x = todo.pop()
        for y in done:
            terms = _witt_bracket(n, x, y)
            for w in terms:
                if w[0] + w[1] != n - 1:  # the bracket's one term, on a root wedge
                    if w not in roots:
                        roots.add(w)
                        todo.append(w)
                    break
            else:
                if terms:
                    parts.add(tuple([terms.get(w, 0) for w in diagonal]))
        done.append(x)
    full = n * (n - 1) // 2
    generated = len(roots) + rref(RatMatrix(parts, cols=len(diagonal)))[0]
    return generated == full, generated, full


def parabolic_of(s: Spectrum) -> ParabolicData:
    """Parabolic subalgebra, nilradical and descending series of a canonical spectrum.

    q is the sum of the non-negative grade spaces and the nilradical the sum
    of the positive ones, each given by the basis indices that span it; the
    series is recomputed by bracketing cells, and all four properties of
    :func:`theorem1_report` are checked rather than assumed.  Every
    certificate is a set of cells expanded to Witt wedge indices.
    """
    verdict = theorem2_check(s)
    if not verdict.canonical:
        raise NotCanonical(f"spectrum {s} is not canonical: {verdict.reason.value}")
    blocks = _blocks(s)
    report, series = _theorem1(s.den, blocks)
    failed = [name for name, ok in report.items() if not ok]
    if failed:
        raise RuntimeError(f"canonical spectrum {s} fails {', '.join(failed)}")
    q = _wedge_indices(s.n, blocks, _cells(blocks, 0))
    series = [_wedge_indices(s.n, blocks, term) for term in series]
    return ParabolicData(q, series[0], tuple(series))


def theorem1_report(s: Spectrum) -> dict[str, bool]:
    """Check the defining properties of a canonical element, without gating.

    Reports whether (i) all grades are integral, (ii) the descending series
    of the positive-grade sum equals the grading tails step by step,
    (iii) the polar of q is that nilradical, and (iv) the series terminates
    at zero.  Running this on a non-canonical grading shows which property
    breaks.
    """
    return _theorem1(s.den, _blocks(s))[0]


def _theorem1(den: int, blocks) -> tuple[dict[str, bool], list[frozenset]]:
    """theorem1_report's properties of the grading with these g_0 blocks and
    label denominator, with the descending series of the nilradical, as sets
    of cells, which starts with the nilradical."""
    cells = _cells(blocks, -math.inf)
    last = len(blocks) - 1

    def tail(r):
        return frozenset([c for c, (g, _) in cells.items() if g >= r * den])

    deepest = max([g // den for g, _ in cells.values() if g > 0 and g % den == 0], default=0)
    nilradical = tail(1)
    series = _descending_series(cells, last, nilradical)
    steps = max(len(series), deepest + 1)
    matches = all(series[min(r, len(series)) - 1] == tail(r) for r in range(1, steps + 1))
    return {
        "integral_grades": all(g % den == 0 for g, _ in cells.values()),
        "series_matches_tails": matches,
        "polar_is_nilradical": _polar(cells, last, tail(0)) == nilradical,
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
    return [Spectrum._from_doubled(n, doubled) for _, doubled in sorted(keys)]


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
    top, r = _twice(max_lambda), n // 2
    # one (2 lambda, mult) pair per value, shared by the spectra that hold it
    pairs = [[(d, m) for m in range(r + 1)] for d in range(top + 1)]
    out = [Spectrum._from_doubled(n, ((0, n),))]
    # (0, mult(0)) leads, so mult(0) ascends, and the spectra without 0 (even
    # n, r nonzero magnitudes in all) follow all the others
    sizes = [size for size in range(r, 0, -1) if n > 2 * size] + [r] * (n % 2 == 0)
    for largest in range(1, top + 1):
        for size in sizes:
            _walk(n, pairs, ((0, n - 2 * size),) * (n > 2 * size), 1, largest, size, out)
    return out


def _walk(n: int, pairs, head: tuple, low: int, largest: int, left: int, out: list) -> None:
    """Append to `out`, in tuple order, the spectra head + ((2 lambda, mult),
    ...) whose 2 lambda ascend from at least `low` to `largest` and whose
    multiplicities add up to `left`.  A module-level function, as a nested
    one that called itself would be a reference cycle."""
    for d in range(low, largest):
        for m in range(1, left):  # leave at least 1 for `largest`
            _walk(n, pairs, head + (pairs[d][m],), d + 1, largest, left - m, out)
    out.append(Spectrum._from_doubled(n, head + (pairs[largest][left],)))


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
    """theorem2's reason and failing grade, prop3 and, for a canonical
    spectrum, Theorem 1, from one set of g_0 blocks; no trace or witness.
    Built by tuple.__new__, as namedtuple's own __new__ is a Python call."""
    p3 = prop3_check(s)
    if not condition1(s):
        return tuple.__new__(OracleRecord, (s, _NON_INTEGRAL, p3, None))
    blocks = _blocks(s)
    reason, failing, _ = _generate(s.den, blocks, None)
    if reason is _CANONICAL:
        t1 = all(_theorem1(s.den, blocks)[0].values())
        return tuple.__new__(OracleRecord, (s, _CANONICAL_VERDICT, p3, t1))
    verdict = tuple.__new__(Verdict, (reason, failing, None, None))
    return tuple.__new__(OracleRecord, (s, verdict, p3, None))
