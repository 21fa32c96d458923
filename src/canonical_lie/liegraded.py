"""so(n, C) graded by a spectrum, on its g_0-cells and the Witt wedge bracket.

so(n, C) is modelled on the second exterior power of C^n, in a Witt basis
u_0, ..., u_{n-1} of xi-eigenvectors (see :mod:`sonreal`): (u_x, u_y) = 1
exactly when y = n - 1 - x, and the vector u_a has the label lambda_a, with
lambda_{n-1-a} = -lambda_a.  The wedge u_a ^ u_b, a < b, has grade
lambda_a + lambda_b, and two wedges bracket by the closed form

    [u_a ^ u_b, u_c ^ u_d] = (a,c) b^d - (a,d) b^c - (b,c) a^d + (b,d) a^c,

:func:`_witt_bracket`, whose constants are small integers that depend on n
alone.  No table of brackets is stored.

The vectors of one label form a block (:func:`_blocks`), on which g_0 acts
irreducibly, and a g_0-cell is the span of the wedges with one vector in
block I and one in block J: V_I (x) V_J, or Lambda^2 V_I when I = J.  Every
space the deciders touch (grade spaces, their tails, [g_1, g^k], the
descending series of the nilradical and the polar of q) is a union of
cells, and brackets (:func:`_bracket`) and polars (:func:`_polar`) of cell
sets are cell sets, so the deciders of :mod:`canonical` cost O(r^2) cells
for r distinct labels.  :func:`grade_dims` sums the cells' dimensions per
grade, and :func:`_wedge_indices` expands a cell set to the indices of the
wedges that span it, in lexicographic order (:func:`_pair_index`).  Polars
are taken for the trace form tr(XY) of the matrix realization; the Killing
form of so(n) is (n - 2) times it, so the polars agree.

The tests hold the cell rule and the closed-form bracket to the so(n, C)
table computed from the matrix realization, which they keep as an oracle.
"""

import math
from itertools import accumulate

from .exactlin import rational


def _pair_index(n: int, a: int, b: int) -> int:
    """Position of the wedge (a, b), a < b, in lexicographic order."""
    return a * (2 * n - a - 1) // 2 + (b - a - 1)


def _witt_bracket(n: int, p, q) -> dict[tuple[int, int], int]:
    """[u_a ^ u_b, u_c ^ u_d] for p = (a, b) and q = (c, d), a < b and c < d,
    as {(x, y): coefficient} over the wedges u_x ^ u_y, x < y, from the
    closed form of the module docstring: y ^ x = -(x ^ y), x ^ x = 0, and
    terms on one wedge are summed, so the self-bracket of u_a ^ u_{n-1-a} is
    empty.  No coefficient is zero."""
    (a, b), (c, d), last = p, q, n - 1
    out: dict[tuple[int, int], int] = {}
    terms = ((a + c, b, d, 1), (a + d, b, c, -1), (b + c, a, d, -1), (b + d, a, c, 1))
    for pair, x, y, sign in terms:
        if pair == last and x != y:
            key, sign = ((x, y), sign) if x < y else ((y, x), -sign)
            out[key] = out.get(key, 0) + sign
    return {w: v for w, v in out.items() if v}


def _blocks(s) -> list[tuple[int, int]]:
    """The g_0 blocks of s as (D * label, size), in Witt order: the labels
    descend, and block i's partner, of the opposite label, is block len - 1 - i.

    g_0 acts on a block by gl(V), or by so(V) on the zero block.  so(2) is a
    torus, so a zero block of size 2 splits into its two isotropic lines,
    each the other's partner, and g_0 acts irreducibly on every block.
    """
    positive = [(k, m) for k, m in reversed(s.scaled) if k]
    m0 = s.scaled[0][1] if s.scaled[0][0] == 0 else 0
    zero = [(0, 1), (0, 1)] if m0 == 2 else [(0, m0)] * (m0 > 0)
    return positive + zero + [(-k, m) for k, m in reversed(positive)]


def _cells(blocks, lowest) -> dict[tuple[int, int], tuple[int, int]]:
    """{(i, j): (D * grade, dim)} for the nonempty cells i <= j of D * grade
    at least `lowest`: the span of the wedges u_a ^ u_b, a < b, with a in
    block i and b in block j, the g_0-module V_i (x) V_j, or Lambda^2 V_i
    when i = j, of grade (label_i + label_j) / D."""
    cells = {}
    for i, (li, mi) in enumerate(blocks):
        for j in range(i, len(blocks)):
            lj, mj = blocks[j]
            if li + lj < lowest:  # the labels descend
                break
            if i < j or mi > 1:
                cells[i, j] = (li + lj, mi * mj if i < j else mi * (mi - 1) // 2)
    return cells


def grade_dims(s) -> dict:
    """{grade: dim g_grade} for the spectrum s, by ascending grade, summed
    over its g_0-cells.  Integral grades are ints, the others Fractions."""
    dims: dict[int, int] = {}
    for g, d in _cells(_blocks(s), -math.inf).values():
        dims[g] = dims.get(g, 0) + d
    return {rational(g, s.den): dims[g] for g in sorted(dims)}


def _bracket(cells, last: int, a, b) -> frozenset:
    """[A, B] for sets A, B of positive-grade cells, as the cells of `cells`
    it fills; the partner of block x is block last - x.

    [u_a ^ u_b, u_c ^ u_d] = (a, c) b^d - (a, d) b^c - (b, c) a^d + (b, d) a^c,
    and (x, y) is nonzero exactly when y is x's partner vector.  So [{I, J},
    C] meets {I, Y} for each cell C = {J*, Y} and {J, Y} for each C = {I*, Y}
    (a cell holding J* and I* would have the opposite grade to {I, J}).  Two
    positive-grade wedges bracket to a multiple of one wedge, and g_0 acts
    irreducibly on a positive-grade cell, so the bracket fills a nonempty
    result cell whole.
    """
    others: dict[int, list[int]] = {}  # block -> the other block of each cell of B it is in
    for k, l in b:
        others.setdefault(k, []).append(l)
        if l != k:
            others.setdefault(l, []).append(k)
    out = set()
    for i, j in a:
        for x, partner in ((i, last - j), (j, last - i)):
            for y in others.get(partner, ()):
                out.add((x, y) if x <= y else (y, x))
    return frozenset([c for c in out if c in cells])


def _wedge_indices(n: int, blocks, cells) -> frozenset[int]:
    """The Witt wedge basis indices that span a set of cells; block i holds
    the Witt vectors from the sum of the sizes before it on."""
    starts = list(accumulate([m for _, m in blocks], initial=0))
    return frozenset(
        _pair_index(n, a, b)
        for i, j in cells
        for a in range(starts[i], starts[i + 1])
        for b in range(max(a + 1, starts[j]), starts[j + 1])
    )


def _descending_series(cells, last: int, n: frozenset) -> list[frozenset]:
    """Central descending series [n, [n, n], [n, [n, n]], ...] of a set of
    positive-grade cells, ending just before the first repetition, so a
    nilpotent n ends with the empty set."""
    series = [n]
    for _ in range(len(cells) + 1):
        term = _bracket(cells, last, n, series[-1])
        if term == series[-1]:
            return series
        series.append(term)
    raise ValueError("descending series did not stabilize; is n a subalgebra?")


def _polar(cells, last: int, a) -> frozenset:
    """The polar of a union of cells: the trace form pairs u_a ^ u_b with
    u_a* ^ u_b* alone, so cell {I, J} with its partner cell {J*, I*}."""
    return frozenset(cells) - {(last - j, last - i) for i, j in a}
