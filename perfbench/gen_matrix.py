"""Seeded input generator for the `matrix` workload.

Each request is one JSON matrix file holding Q . N(s) . Q^T, where N(s) is the
real block normal form of a half-integral spectrum s and Q = (I - A)(I + A)^-1
is the Cayley transform of a seeded rational skew matrix A.  Q is rational and
orthogonal, so the file is a rational skew matrix whose spectrum is exactly s,
but whose entries no longer show it.

The mix is stratified: every seed draws the same number of requests from each
family and each n, and the seed only picks the magnitudes, the multiplicities
and A.  That keeps the latency distribution, and so p50 and p90, comparable
across seeds.  Everything is exact (`fractions.Fraction`); nothing here
imports the package under test.

Usage: python3 gen_matrix.py SEED OUTDIR   (writes OUTDIR/manifest.json too)
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

# Why each family is drawn.  The typical families dominate (84 of 102) and
# set latency_p50_s.  The tail (18 of 102) costs more per request than any
# typical one, so p90 (10 samples beyond it) falls inside the tail and
# latency_p90_s tracks the cost of extraction's candidate-magnitude loop.
FAMILIES = {
    "integer_ladder": "canonical: magnitudes 0..k, the positive case of both deciders",
    "half_odd_ladder": "canonical: magnitudes 1/2..k+1/2 with mult(1/2) >= 2 (even n only)",
    "gap_ladder": "non-canonical: a ladder with one rung missing, so generation stalls",
    "thin_half": "non-canonical: half-odd ladder with mult(1/2) = 1, the multiplicity clause",
    "mixed_parity": "non-canonical: integer and half-odd magnitudes mixed, grades not integral",
    "tail": "magnitudes in the tens to hundreds: extraction's candidate loop dominates",
}

TYPICAL_NS = (4, 5, 6, 7, 8, 9, 10)
TYPICAL_ROUNDS = 3  # every (family, n) cell that exists is drawn this many times
TAIL_NS = (5, 6)
TAIL_PER_N = 9
TAIL_TOP = (200, 260)  # largest tail magnitude, in whole units


def _compositions(total: int, parts: int, rng: random.Random, first_min: int = 1) -> list[int]:
    """Random multiplicities: `parts` positive integers summing to `total`."""
    mults = [first_min] + [1] * (parts - 1)
    for _ in range(total - sum(mults)):
        mults[rng.randrange(parts)] += 1
    return mults


def _integer_ladder(n: int, rng: random.Random) -> dict[Fraction, int]:
    k = rng.randint(1, (n - 1) // 2)
    pos = _compositions(rng.randint(k, (n - 1) // 2), k, rng)
    spec = {Fraction(j + 1): m for j, m in enumerate(pos)}
    spec[Fraction(0)] = n - 2 * sum(pos)
    return spec


def _half_odd_ladder(n: int, rng: random.Random) -> dict[Fraction, int]:
    k = rng.randint(1, n // 2 - 1)
    pos = _compositions(n // 2, k, rng, first_min=2)
    return {Fraction(2 * j + 1, 2): m for j, m in enumerate(pos)}


def _gap_ladder(n: int, rng: random.Random) -> dict[Fraction, int]:
    # 0 plus magnitudes 1..k+1 with one rung (not the top) removed
    k = rng.randint(1, (n - 1) // 2)
    rungs = list(range(1, k + 2))
    del rungs[rng.randrange(k)]
    pos = _compositions(rng.randint(k, (n - 1) // 2), k, rng)
    spec = {Fraction(r): m for r, m in zip(rungs, pos)}
    spec[Fraction(0)] = n - 2 * sum(pos)
    return spec


def _thin_half(n: int, rng: random.Random) -> dict[Fraction, int]:
    k = rng.randint(2, n // 2)
    pos = [1] + _compositions(n // 2 - 1, k - 1, rng)
    return {Fraction(2 * j + 1, 2): m for j, m in enumerate(pos)}


def _mixed_parity(n: int, rng: random.Random) -> dict[Fraction, int]:
    spec = {Fraction(1, 2): 1, Fraction(rng.randint(1, 2)): 1}
    if n % 2:
        spec[Fraction(0)] = 1
    for _ in range((n - 4) // 2):
        lam = Fraction(rng.randint(1, 6), 2)
        spec[lam] = spec.get(lam, 0) + 1
    return spec


def _tail(n: int, rng: random.Random) -> dict[Fraction, int]:
    top = Fraction(rng.randint(2 * TAIL_TOP[0], 2 * TAIL_TOP[1]), 2)
    spec = {top: 1}
    for _ in range(n // 2 - 1):
        lam = Fraction(rng.randint(2 * 10, 2 * 60), 2)
        spec[lam] = spec.get(lam, 0) + 1
    if n % 2:
        spec[Fraction(0)] = 1
    return spec


DRAW = {
    "integer_ladder": _integer_ladder,
    "half_odd_ladder": _half_odd_ladder,
    "gap_ladder": _gap_ladder,
    "thin_half": _thin_half,
    "mixed_parity": _mixed_parity,
}


def _applies(family: str, n: int) -> bool:
    if family in ("half_odd_ladder", "thin_half"):
        return n % 2 == 0
    if family == "gap_ladder":
        return n >= 5
    return True


def plan(seed: int) -> list[tuple[str, int, dict[Fraction, int]]]:
    """The request list for a seed: (family, n, {magnitude: mult}) in run order."""
    rng = random.Random(seed)
    out = []
    for _ in range(TYPICAL_ROUNDS):
        for n in TYPICAL_NS:
            for family, draw in DRAW.items():
                if _applies(family, n):
                    out.append((family, n, draw(n, rng)))
    for n in TAIL_NS:
        for _ in range(TAIL_PER_N):
            out.append(("tail", n, _tail(n, rng)))
    rng.shuffle(out)
    return out


def normal_form(n: int, spec: dict[Fraction, int]) -> list[list[Fraction]]:
    """One 2x2 block [[0, -l], [l, 0]] per positive magnitude instance."""
    m = [[Fraction(0)] * n for _ in range(n)]
    pos = 0
    for lam in sorted(spec):
        for _ in range(spec[lam] if lam else 0):
            m[pos][pos + 1], m[pos + 1][pos] = -lam, lam
            pos += 2
    return m


def _matmul(a, b):
    bt = list(zip(*b))
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in bt] for row in a]


def _inverse(a):
    n = len(a)
    work = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(a)]
    for col in range(n):
        piv = next(r for r in range(col, n) if work[r][col] != 0)
        work[col], work[piv] = work[piv], work[col]
        lead = work[col][col]
        work[col] = [v / lead for v in work[col]]
        for r in range(n):
            f = work[r][col]
            if r != col and f:
                work[r] = [x - f * y for x, y in zip(work[r], work[col])]
    return [row[n:] for row in work]


def cayley(n: int, rng: random.Random) -> list[list[Fraction]]:
    """Q = (I - A)(I + A)^-1 for a sparse seeded skew A; I + A is always
    invertible because a real skew A has purely imaginary eigenvalues.

    A has n - 1 nonzero pairs, so Q mixes every coordinate while its
    denominators stay small enough for the typical requests to stay cheap."""
    a = [[Fraction(0)] * n for _ in range(n)]
    order = list(range(n))
    rng.shuffle(order)
    for i, j in zip(order, order[1:]):
        v = Fraction(rng.choice((1, -1)), rng.choice((1, 2, 3)))
        a[i][j], a[j][i] = v, -v
    ident = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    minus = [[ident[i][j] - a[i][j] for j in range(n)] for i in range(n)]
    plus = [[ident[i][j] + a[i][j] for j in range(n)] for i in range(n)]
    return _matmul(minus, _inverse(plus))


def spectrum_json(n: int, spec: dict[Fraction, int]) -> dict:
    """The CLI's spectrum JSON for {magnitude: mult}."""
    return {
        "n": n,
        "entries": [{"lambda": str(lam), "mult": spec[lam]} for lam in sorted(spec)],
    }


def generate(seed: int, outdir: Path) -> list[dict]:
    """Write one matrix file per planned request plus manifest.json; return the manifest."""
    outdir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"cayley-{seed}")
    manifest = []
    for idx, (family, n, spec) in enumerate(plan(seed)):
        q = cayley(n, rng)
        qt = [list(col) for col in zip(*q)]
        m = _matmul(_matmul(q, normal_form(n, spec)), qt)
        path = outdir / f"m{idx:03d}.json"
        path.write_text(json.dumps([[str(v) for v in row] for row in m]) + "\n")
        manifest.append({"file": path.name, "family": family, "spectrum": spectrum_json(n, spec)})
    (outdir / "manifest.json").write_text(
        json.dumps({"seed": seed, "families": FAMILIES, "requests": manifest}, indent=1) + "\n"
    )
    return manifest


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit("usage: gen_matrix.py SEED OUTDIR")
    generate(int(sys.argv[1]), Path(sys.argv[2]))
