"""Shared test helpers: terse spectrum construction and independent oracles."""

import math
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement

from canonical_lie import (
    LieTable,
    RatMatrix,
    Spectrum,
    Subspace,
    normal_form,
    rref,
    subspace_sum,
    wedge_basis,
)
from canonical_lie.liegraded import _check_grading, _grade_labels


def spec(n, *pairs):
    """spec(4, ("1/2", 2)) -> Spectrum; magnitudes given as 'p/q' strings or ints."""
    return Spectrum(n, tuple((Fraction(lam), mult) for lam, mult in pairs))


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
    positives = [Fraction(j, 2) for j in range(1, max_half_steps + 1)]
    out = []
    for size in range(0, n // 2 + 1):
        for combo in combinations_with_replacement(positives, size):
            m0 = n - 2 * size
            counts = Counter(combo)
            entries = ([(Fraction(0), m0)] if m0 else []) + sorted(counts.items())
            out.append(Spectrum(n, tuple(entries)))
    return out


def condition1_pairwise(s):
    """Integrality of grades by definition: every lambda_a + lambda_b, a < b,
    over the signed eigenvalue labels of the wedge basis is an integer."""
    lams = [lam for lam, _ in wedge_basis(s).eigen_labels]
    n = len(lams)
    return all(
        (lams[a] + lams[b]).denominator == 1 for a in range(n) for b in range(a + 1, n)
    )


def cayley(a):
    """Rational orthogonal Q = (I - A)(I + A)^-1 for a rational skew matrix A.

    I + A is invertible because A's eigenvalues are imaginary; the inverse is
    read off the reduced form of [I + A | I].
    """
    n = a.rows
    eye = RatMatrix.identity(n)
    plus = eye + a
    _, reduced = rref(RatMatrix([plus.row(i) + eye.row(i) for i in range(n)]))
    inverse = RatMatrix([row[n:] for row in reduced.entries], cols=n)
    return (eye + a.scaled(-1)) @ inverse


def conjugated_normal_form(s, a):
    """Q N(s) Q^T for the Cayley Q of the skew matrix A: spectrum s, entries mixed."""
    q = cayley(a)
    return q @ normal_form(s) @ q.transpose()


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


def tails_by_sums(gm):
    """Grading tails by definition, {g: sum of the grade spaces with grade
    >= g} for every grade g of the map, as chained subspace sums."""
    out = {}
    acc = Subspace.zero(gm.ambient_dim)
    for g in reversed(gm.grades()):
        acc = subspace_sum(acc, gm.space_at(g))
        out[g] = acc
    return out


def unit_span(dim, indices):
    """span{e_i : i in indices} in Q^dim.  The unit rows in ascending order
    are its reduced row-echelon basis, which the Subspace constructor checks."""
    rows = [[1 if k == i else 0 for k in range(dim)] for i in sorted(indices)]
    return Subspace(dim, RatMatrix(rows, cols=dim))


def regrade(t, grade):
    """Oracle for relabelling: the algebra of `t` under new grade labels, one
    per basis element, after the full grade-dependent checks of build_table.

    Shares the validated brackets, form (dense and sparse) and form rank of
    `t`; raises GradingViolation when a bracket leaves grade(i) + grade(j) or
    when the grade multiset is not symmetric under negation.
    """
    grades = _grade_labels(grade, t.dim)
    _check_grading(t._sparse, grades)
    return LieTable(t.dim, grades, t.form, t._rows, t._sparse, t._form_sparse, t._form_rank)
