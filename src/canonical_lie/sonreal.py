"""The Witt-basis wedge model of so(n, C), with exact structure constants.

A skew-symmetric element xi of so(n) is determined up to conjugacy by its
eigenvalue magnitudes and their multiplicities (a :class:`Spectrum`).  To
compute with the complexified algebra we model so(n, C) on the second
exterior power of C^n: pick a basis of xi-eigenvectors u_0, ..., u_{n-1}
and identify the wedge u_a ^ u_b with the skew map

    (u_a ^ u_b)(c) = (u_a, c) u_b - (u_b, c) u_a,

where ( , ) is the complex bilinear extension of the real inner product.
The basis is a Witt (hyperbolic) basis: it lists the +lambda eigenvectors
by descending lambda, then the 0-eigenspace, then the -lambda eigenvectors
mirrored, and (u_a, u_b) = 1 exactly when b = n - 1 - a.  The +lambda and
-lambda eigenspaces are paired by the form anyway; over C the 0-eigenspace
has a hyperbolic basis too (e_j +/- i e_k pairs, plus one self-paired
vector when its dimension is odd).  So the Gram matrix is the anti-diagonal
permutation matrix for every spectrum, and every structure constant of

    [a^b, c^d] = (a,c) b^d - (a,d) b^c - (b,c) a^d + (b,d) a^c

is a small integer that depends on n alone.  A spectrum only places its
eigenvalue labels on the basis, and the grading derivation acts on
u_a ^ u_b with grade lambda_a + lambda_b.  :mod:`liegraded` computes with
this model: the closed-form bracket of two wedges, and the g_0-cells,
blocks of wedges by label, on which the deciders run.  No table of
brackets, and no complex (or floating-point) arithmetic, ever appears.

This module holds the conjugacy-class data itself, :class:`Spectrum`, and
reads it off a rational skew-symmetric matrix (:func:`spectrum_from_matrix`).
"""

import math
from collections import namedtuple

from .exactlin import (
    RatMatrix,
    _fraction,
    charpoly,
    format_ratio,
    parse_ratio,
    ratio,
    rref,
    shown,
)


class InvalidSpectrum(ValueError):
    """Eigenvalue data that no element of so(n), n >= 3, can have."""


class NotSkew(ValueError):
    """Matrix input is not square skew-symmetric."""


class TooSmall(ValueError):
    """n < 3: so(1) is zero and so(2) is abelian, both out of scope."""


# str(Fraction(d, 2)) at index d = 2 lambda, for every magnitude below 32:
# those of every spectrum that `verify` (2 lambda <= 48) and `enumerate`
# (2 lambda < 24) make.
_HALVES = tuple(format_ratio(d, 2) for d in range(64))


class Spectrum(namedtuple("Spectrum", "n den scaled")):
    """Conjugacy-class data of xi in so(n): magnitudes with multiplicities.

    `entries` lists (lambda, mult) with lambda >= 0 strictly increasing.
    The eigenvalues of xi on C^n are +/- i*lambda, so the multiplicities
    satisfy mult(0) + 2 * sum of the positive multiplicities = n.

    A spectrum holds ints only: n, the lcm `den` = D of the magnitudes'
    denominators and `scaled`, the pairs (D * lambda, mult) in the order of
    `entries`.  Canonicity for so(n) is a fact about the integers 2 lambda,
    so the deciders, the Witt labels and the renderers read these, and
    `entries` and `max_magnitude` build their Fractions when asked.  Every
    constructor ends in :meth:`_checked`, the one validation.  Immutable;
    equal, hashed, printed by `repr` and pickled as (n, entries).
    """

    __slots__ = ()

    def __new__(cls, n: int, entries: "tuple[tuple[Fraction, int], ...]"):
        for x in (n, *(mult for _, mult in entries)):
            if isinstance(x, bool) or not isinstance(x, int):
                raise InvalidSpectrum(f"n and multiplicities must be integers, got {x!r}")
        for lam, _ in entries:
            if isinstance(lam, (bool, float)):
                raise InvalidSpectrum(f"magnitudes must be rationals, got {lam!r}")
        try:
            items = [(ratio(lam), mult) for lam, mult in entries]
        except ValueError as exc:  # a string that is not 'p' or 'p/q'
            raise InvalidSpectrum(str(exc)) from None
        return cls._from_ratios(n, items)

    @classmethod
    def _from_ratios(cls, n: int, items) -> "Spectrum":
        """From ((p, q), mult) pairs in any order, lambda = p/q in lowest terms."""
        den = math.lcm(*(q for (_, q), _ in items))
        return cls._checked(n, den, sorted([(p * (den // q), m) for (p, q), m in items]))

    @classmethod
    def _from_doubled(cls, n: int, doubled) -> "Spectrum":
        """From ((2 lambda, mult), ...) with 2 lambda ascending, as the
        generators make them: D = 2 keeps the pairs as given."""
        unordered = "doubled magnitudes must be non-negative and ascend strictly"
        for d, _ in doubled:
            if d & 1:
                return cls._checked(n, 2, doubled, unordered)
        return cls._checked(n, 1, [(d >> 1, m) for d, m in doubled], unordered)

    @classmethod
    def _checked(cls, n, den, scaled, unordered="magnitudes must be distinct") -> "Spectrum":
        """The spectrum (n, den, scaled) once the (D * lambda, mult) pairs pass,
        in this order: n >= 3, lambda >= 0, D * lambda strictly ascending
        (else `unordered`; after a sort, a repeated magnitude), every
        multiplicity at least 1 and their total n."""
        if n < 3:
            raise InvalidSpectrum(f"n must be at least 3, got {shown(n)}")
        prev, total, short = -1, 0, False
        for k, mult in scaled:
            if k <= prev:
                raise InvalidSpectrum("magnitudes must be non-negative" if prev < 0 else unordered)
            short = short or mult < 1
            prev, total = k, total + (2 * mult if k else mult)
        if short:
            raise InvalidSpectrum("multiplicities must be at least 1")
        if total != n:
            raise InvalidSpectrum(
                f"multiplicities account for {shown(total)} of {shown(n)} dimensions"
            )
        return tuple.__new__(cls, (n, den, tuple(scaled)))

    @classmethod
    def _make(cls, iterable) -> "Spectrum":
        return cls(*iterable)  # (n, entries), validated

    def _replace(self, /, **changes) -> "Spectrum":
        result = self._make((changes.pop("n", self.n), changes.pop("entries", self.entries)))
        if changes:
            raise ValueError(f"Got unexpected field names: {list(changes)!r}")
        return result

    def __getnewargs__(self):
        return self.n, self.entries

    @property
    def entries(self) -> "tuple[tuple[Fraction, int], ...]":
        Fraction = _fraction()
        return tuple([(Fraction(k, self.den), m) for k, m in self.scaled])

    @property
    def max_magnitude(self) -> "Fraction":
        return _fraction()(self.scaled[-1][0], self.den)

    def __eq__(self, other):
        if isinstance(other, Spectrum):
            return tuple.__eq__(self, other)  # n, D and scaled are canonical
        return (self.n, self.entries) == other if isinstance(other, tuple) else NotImplemented

    def __ne__(self, other):
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal

    def __hash__(self) -> int:
        return hash((self.n, self.entries))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.n!r}, entries={self.entries!r})"

    def _texts(self) -> list[tuple[str, int]]:
        """(str(lambda), mult) per entry, lambda printed as its Fraction prints."""
        den, scaled = self.den, self.scaled
        step = 2 // den
        if step and scaled[-1][0] * step < len(_HALVES):
            return [(_HALVES[k * step], m) for k, m in scaled]
        return [(format_ratio(k, den), m) for k, m in scaled]

    def __str__(self) -> str:
        return "{" + ", ".join([f"{lam}:{m}" for lam, m in self._texts()]) + "}"

    def to_json(self) -> dict:
        return {"n": self.n, "entries": [{"lambda": lam, "mult": m} for lam, m in self._texts()]}

    @classmethod
    def from_json(cls, obj) -> "Spectrum":
        if not isinstance(obj, dict):
            raise InvalidSpectrum("spectrum must be a JSON object")
        if "n" not in obj or "entries" not in obj:
            raise InvalidSpectrum('spectrum object needs keys "n" and "entries"')
        n = obj["n"]
        if isinstance(n, bool) or not isinstance(n, int):
            raise InvalidSpectrum('"n" must be an integer')
        raw = obj["entries"]
        if not isinstance(raw, list):
            raise InvalidSpectrum('"entries" must be a list')
        items = []
        for item in raw:
            if not isinstance(item, dict) or "lambda" not in item or "mult" not in item:
                raise InvalidSpectrum('each entry needs keys "lambda" and "mult"')
            lam = item["lambda"]
            if isinstance(lam, str):
                try:
                    lam = parse_ratio(lam)
                except ValueError as exc:
                    raise InvalidSpectrum(str(exc)) from None
            elif isinstance(lam, bool) or not isinstance(lam, int):
                raise InvalidSpectrum('"lambda" must be an integer or a "p/q" string')
            else:
                lam = (lam, 1)
            mult = item["mult"]
            if isinstance(mult, bool) or not isinstance(mult, int):
                raise InvalidSpectrum('"mult" must be an integer')
            items.append((lam, mult))
        return cls._from_ratios(n, items)


def spectrum_from_matrix(m: RatMatrix) -> Spectrum | None:
    """Exact eigenvalue extraction from a rational skew-symmetric matrix.

    With L = `m.den`, the lcm of the denominators of m, B = 2 L m, twice
    `m.nums`, is a skew integer matrix with eigenvalues +/- 2 L lambda i.
    Its characteristic polynomial (Berkowitz, division-free) is
    x^(n mod 2) Q(x^2), so R(y) = (-1)^(n // 2) Q(-y) has degree n // 2
    and, as B is normal, only the real roots y = (2 L lambda)^2, of order
    mult(lambda) for lambda > 0.  A half-integral lambda = j/2 is the root
    L^2 j^2, of order mult(j/2), and :func:`_grid_roots` finds every such j
    up to J, J^2 <= -2 tr m^2 (four times the sum of the squared
    magnitudes), which is minus R's second coefficient, sum_{i<j} B_ij^2,
    over L^2.  The one rank taken is mult(0) = n - rank m.  Returns None when
    the multiplicities found do not account for all n dimensions, i.e. when
    some magnitude is not a half-integer, and before the characteristic
    polynomial when that bound on J^2 is not an integer.  The cost grows
    with the bit length of the entries, not with their size, and no float
    or Fraction is involved.

    That outcome already settles the canonicality question.  A grading can
    only have integer grades if any two signed magnitudes have integral sum
    and difference, which forces every magnitude into (1/2)Z once n >= 3
    (each magnitude coexists with a second, distinct eigendirection).
    """
    if m.rows != m.cols:
        raise NotSkew(f"matrix is {m.rows}x{m.cols}, not square")
    n = m.rows
    if n < 3:
        raise TooSmall(f"need n >= 3, got n = {n}")
    nums, lcd = m.nums, m.den
    for i, row in enumerate(nums):
        for j in range(i, n):
            if row[j] != -nums[j][i]:
                raise NotSkew(f"entry ({i}, {j}) is not the negative of ({j}, {i})")
    # sum_{i<j} B_ij^2 / L^2 = sum mult (2 lambda)^2, an int if every lambda is a half-integer
    top, rest = divmod(2 * sum([v * v for row in nums for v in row]), lcd * lcd)
    if rest:
        return None

    b = [[2 * v for v in row] for row in nums]
    r = [-c if k & 1 else c for k, c in enumerate(charpoly(b)[::2])]
    roots = _grid_roots(r, lcd * lcd, math.isqrt(top))
    mult0 = n - rref(m)[0]
    if mult0 + 2 * sum(mult for _, mult in roots) != n:
        return None
    return Spectrum._from_doubled(n, ([(0, mult0)] if mult0 else []) + roots)


# Integer polynomials below are coefficient lists, highest degree first.


def _evaluate(p: list[int], y: int) -> int:
    acc = 0
    for c in p:
        acc = acc * y + c
    return acc


def _derivative(p: list[int]) -> list[int]:
    deg = len(p) - 1
    return [c * (deg - i) for i, c in enumerate(p[:-1])]


def _grid_roots(p: list[int], scale: int, top: int) -> list[tuple[int, int]]:
    """(j, k) for every root scale * j^2 of p, 0 < j <= top, k its order; ascending.

    p must have only real roots, as R of :func:`spectrum_from_matrix` has.
    Budan-Fourier: with V(y) the sign variations of p, p', p'', ... at y,
    V(y0) - V(y1) is at least the number of roots in (y0, y1], with
    multiplicity, and exactly that number when every root is real.  Only the
    points y = scale * j^2 are evaluated, so a bisection over j ends at
    intervals (j - 1, j] that hold a root, which is on the grid exactly when
    p(scale * j^2) = 0, of order the first k with p^(k) nonzero there.  The
    bound alone means no grid root is missed; exactness means only intervals
    that hold a root are split.
    """
    seq = [p]
    while len(seq[-1]) > 1:
        seq.append(_derivative(seq[-1]))

    def variations(j: int) -> int:
        y = scale * j * j
        signs = [v > 0 for v in (_evaluate(s, y) for s in seq) if v]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    found = []
    stack = [(0, variations(0), top, variations(top))]
    while stack:
        lo, v_lo, hi, v_hi = stack.pop()
        if v_lo == v_hi:
            continue
        if hi - lo == 1:
            order = next(k for k, s in enumerate(seq) if _evaluate(s, scale * hi * hi))
            if order:
                found.append((hi, order))
            continue
        mid = (lo + hi) // 2
        v_mid = variations(mid)
        stack.append((mid, v_mid, hi, v_hi))
        stack.append((lo, v_lo, mid, v_mid))
    return found
