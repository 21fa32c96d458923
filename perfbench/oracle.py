"""Independent answer oracle for the benchmark's CLI outputs.

Nothing here imports the package under test.  The oracle re-derives every
answer from the closed-form ladder rule of the source paper and from plain
label-pair counting:

* a spectrum is canonical iff its magnitudes are exactly 0, 1, ..., k, or
  exactly 1/2, 3/2, ..., k + 1/2 with mult(1/2) >= 2;
* a non-canonical spectrum fails integrality (NonIntegralAdSpectrum) iff it
  mixes integer and half-odd magnitudes, and fails generation otherwise;
* the dimension of grade r is the number of eigenvector pairs a < b whose
  signed eigenvalues sum to r.

Each `check_*` function takes a request's exit code and stdout and returns a
list of problems; an empty list means the answer is right.
"""

from __future__ import annotations

import json
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement

Entries = tuple[tuple[Fraction, int], ...]


def parse_spectrum(obj: dict) -> tuple[int, Entries]:
    """(n, entries) from the CLI's spectrum JSON, entries sorted by magnitude."""
    entries = tuple(sorted((Fraction(e["lambda"]), int(e["mult"])) for e in obj["entries"]))
    return int(obj["n"]), entries


def ladder_canonical(entries: Entries) -> bool:
    mags = [lam for lam, _ in entries]
    if mags == [Fraction(i) for i in range(len(mags))]:
        return True
    if mags == [Fraction(2 * i + 1, 2) for i in range(len(mags))]:
        return entries[0][1] >= 2
    return False


def expected_reason(entries: Entries) -> str:
    if ladder_canonical(entries):
        return "Canonical"
    if len({lam.denominator for lam, _ in entries}) > 1:
        return "NonIntegralAdSpectrum"
    return "GenerationFails"


def grade_dims(entries: Entries) -> list[tuple[Fraction, int]]:
    """Grading dimensions by counting eigenvector pairs, ascending by grade."""
    labels = []
    for lam, mult in entries:
        labels += [lam] * mult
        if lam:
            labels += [-lam] * mult
    dims = Counter(
        labels[i] + labels[j] for i in range(len(labels)) for j in range(i + 1, len(labels))
    )
    return sorted(dims.items())


def spectra(n: int, max_half: int) -> list[Entries]:
    """Every spectrum of so(n) with magnitudes in {0} + {j/2 : 1 <= j <= max_half}."""
    positives = [Fraction(j, 2) for j in range(1, max_half + 1)]
    out = []
    for size in range(n // 2 + 1):
        for combo in combinations_with_replacement(positives, size):
            zero = [(Fraction(0), n - 2 * size)] if n > 2 * size else []
            out.append(tuple(zero + sorted(Counter(combo).items())))
    return out


def canonical_classes(n: int) -> list[Entries]:
    """All canonical spectra of so(n), ordered by largest magnitude, then entries.

    A ladder of k + 1 distinct magnitudes needs at least k + 1 dimensions, so
    every canonical magnitude is at most n / 2."""
    found = [e for e in spectra(n, n) if ladder_canonical(e)]
    return sorted(found, key=lambda e: (e[-1][0], e))


def _load(stdout: str, problems: list[str]):
    try:
        return json.loads(stdout)
    except json.JSONDecodeError as exc:
        problems.append(f"stdout is not JSON: {exc}")
        return None


def _grading_problems(cells, entries: Entries, where: str) -> list[str]:
    got = [(Fraction(c["grade"]), c["dim"]) for c in cells]
    want = grade_dims(entries)
    return [] if got == want else [f"{where}: grading {got} != counted {want}"]


def check_sweep(code: int, stdout: str, max_n: int, max_half: int) -> list[str]:
    problems: list[str] = []
    out = _load(stdout, problems)
    if out is None:
        return problems
    want = sorted(
        ((n, e) for n in range(3, max_n + 1) for e in spectra(n, max_half)),
        key=lambda ne: (ne[0], ne[1][-1][0], ne[1]),
    )
    canonical = sum(ladder_canonical(e) for _, e in want)
    if code != 0:
        problems.append(f"exit code {code}, expected 0")
    for key, value in (("tested", len(want)), ("agreements", len(want)), ("canonical", canonical)):
        if out.get(key) != value:
            problems.append(f"{key} = {out.get(key)}, oracle says {value}")
    if out.get("discrepancies") != []:
        problems.append("discrepancies reported")
    results = out.get("results", [])
    got = [parse_spectrum(r["spectrum"]) for r in results]
    if got != want:
        problems.append("results do not list the oracle's spectra in order")
        return problems
    for rec, (_, entries) in zip(results, want):
        reason = expected_reason(entries)
        ok = reason == "Canonical"
        t2 = rec["theorem2"]
        if (t2["canonical"], t2["reason"], rec["prop3"], rec["agree"]) != (ok, reason, ok, True):
            problems.append(f"{rec['spectrum']}: verdict {t2}, oracle says {reason}")
        if (t2["failing"] is None) != (reason != "GenerationFails"):
            problems.append(f"{rec['spectrum']}: failing block {t2['failing']} for {reason}")
        if rec["theorem1"] is not (True if ok else None):
            problems.append(f"{rec['spectrum']}: theorem1 = {rec['theorem1']}")
    return problems


def check_enumerate(code: int, stdout: str, n: int) -> list[str]:
    problems: list[str] = []
    out = _load(stdout, problems)
    if out is None:
        return problems
    want = canonical_classes(n)
    if code != 0:
        problems.append(f"exit code {code}, expected 0")
    if out.get("count") != len(want):
        problems.append(f"count = {out.get('count')}, oracle says {len(want)}")
    classes = out.get("classes", [])
    got = [parse_spectrum(c["spectrum"])[1] for c in classes]
    if got != want:
        problems.append("class list differs from the oracle's ladder enumeration")
        return problems
    for cls, entries in zip(classes, want):
        problems += _grading_problems(cls["grading"], entries, str(cls["spectrum"]))
    return problems


def check_matrix(code: int, stdout: str, spectrum: dict) -> list[str]:
    problems: list[str] = []
    out = _load(stdout, problems)
    if out is None:
        return problems
    n, entries = parse_spectrum(spectrum)
    extracted = out.get("input", {}).get("extracted_spectrum")
    if extracted is None or parse_spectrum(extracted) != (n, entries):
        problems.append(f"extracted {extracted}, generated {spectrum}")
    reason = expected_reason(entries)
    ok = reason == "Canonical"
    if code != (0 if ok else 1):
        problems.append(f"exit code {code} for {reason}")
    if (out.get("canonical"), out.get("reason")) != (ok, reason):
        problems.append(f"verdict {out.get('reason')}, oracle says {reason}")
    if out.get("grading") is not None:
        problems += _grading_problems(out["grading"], entries, "grading")
    elif reason != "NonIntegralAdSpectrum":
        problems.append("grading table missing")
    return problems
