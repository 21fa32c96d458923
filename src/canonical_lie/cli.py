"""Command line interface: check, enumerate and verify canonical spectra.

Exit codes are a stable contract: 0 = canonical / success, 1 = negative
verdict (not canonical, not strictly generated, or sweep discrepancies),
2 = usage or input error.  Output is byte-deterministic for a given
invocation; rationals are always rendered as exact "p/q" strings.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from fractions import Fraction

from .canonical import (
    OracleRecord,
    Verdict,
    VerdictReason,
    enumerate_canonical,
    half_integral_spectra,
    oracle_record,
    prop3_check,
    strict_generation_report,
    theorem2_check,
)
from .exactlin import RatMatrix, parse_rational
from .sonreal import InvalidSpectrum, NotSkew, Spectrum, TooSmall, grade_dims, spectrum_from_matrix

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_ERROR = 2

# Largest n any command accepts.  Building and validating the so(n, C) table
# grows about as n^6 (Jacobi over dim^3 / 6 basis triples, dim = n(n-1)/2):
# `check --spectrum` takes about 1.1 s at n = 20 and 3.4 s at n = 24 on a
# 2-vCPU x86-64 host, most of it building and checking the table.
MAX_N = 24


class InputError(Exception):
    """Bad file, malformed JSON/CSV, or a value outside the schema."""


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_ERROR


# ---------------------------------------------------------------------------
# input loading


def _load_spectrum_arg(arg: str) -> Spectrum:
    text = arg.strip()
    origin = "inline spectrum"
    if not text.startswith("{"):
        origin = f"spectrum file {arg}"
        try:
            with open(arg, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise InputError(f"cannot read {origin}: {exc}") from None
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"{origin}: JSON parse error at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None
    try:
        return Spectrum.from_json(obj)
    except InvalidSpectrum as exc:
        raise InputError(f"{origin}: {exc}") from None


def _parse_matrix_cell(value, where: str) -> Fraction:
    if isinstance(value, bool):
        raise InputError(f"{where}: booleans are not matrix entries")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise InputError(f"{where}: float {value!r} rejected; use exact 'p/q' strings")
    if isinstance(value, str):
        try:
            return parse_rational(value)
        except ValueError as exc:
            raise InputError(f"{where}: {exc}") from None
    raise InputError(f"{where}: unsupported entry {value!r}")


def _load_matrix_file(path: str) -> RatMatrix:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read matrix file {path}: {exc}") from None
    stripped = text.lstrip()
    rows: list[list[Fraction]] = []
    if stripped.startswith("["):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputError(
                f"matrix file {path}: JSON parse error at line {exc.lineno} "
                f"column {exc.colno}: {exc.msg}"
            ) from None
        if not isinstance(data, list) or not all(isinstance(r, list) for r in data):
            raise InputError(f"matrix file {path}: expected an array of arrays")
        for i, raw in enumerate(data):
            rows.append(
                [_parse_matrix_cell(v, f"{path} row {i} column {j}") for j, v in enumerate(raw)]
            )
    else:
        reader = csv.reader(io.StringIO(text))
        for i, raw in enumerate(reader):
            cells = [c.strip() for c in raw if c.strip() != ""]
            if not cells:
                continue
            rows.append(
                [_parse_matrix_cell(v, f"{path} row {i} column {j}") for j, v in enumerate(cells)]
            )
    if not rows:
        raise InputError(f"matrix file {path} is empty")
    try:
        return RatMatrix(rows)
    except ValueError as exc:
        raise InputError(f"matrix file {path}: {exc}") from None


# ---------------------------------------------------------------------------
# shared rendering


def _grading_cells(dims: dict) -> list[dict]:
    return [{"grade": str(g), "dim": d} for g, d in dims.items()]


def _verdict_json(verdict: Verdict) -> dict:
    out: dict = {"canonical": verdict.canonical, "reason": verdict.reason.value}
    out["failing"] = (
        None
        if verdict.failing is None
        else {
            "grade": verdict.failing[0],
            "achieved": verdict.failing[1],
            "required": verdict.failing[2],
        }
    )
    out["generation_trace"] = (
        None
        if verdict.trace is None
        else [{"grade": k, "achieved": a, "required": r} for k, a, r in verdict.trace]
    )
    out["grading"] = None if verdict.witness is None else _grading_cells(verdict.witness.dims())
    return out


def _verdict_summary(verdict: Verdict) -> str:
    if verdict.canonical:
        return "canonical"
    if verdict.reason is VerdictReason.GENERATION_FAILS:
        return f"GenerationFails at {verdict.failing[0]}"
    return verdict.reason.value


def _print_verdict_table(verdict: Verdict) -> None:
    if verdict.canonical:
        print("verdict: canonical")
    else:
        print("verdict: not canonical")
        if verdict.reason is VerdictReason.GENERATION_FAILS:
            k, achieved, required = verdict.failing
            print(
                f"reason: GenerationFails at grade {k} "
                f"(achieved dim {achieved}, required dim {required})"
            )
        else:
            print("reason: NonIntegralAdSpectrum (ad-eigenvalue grades are not all integers)")
    if verdict.witness is not None:
        print("grading dimensions:")
        print("  grade  dim")
        for cell in _grading_cells(verdict.witness.dims()):
            print(f"  {cell['grade']:<5}  {cell['dim']}")
    if verdict.trace:
        print("generation trace (dim of [g_1, .] iterate vs dim g_k):")
        print("  grade  achieved  required")
        for k, achieved, required in verdict.trace:
            print(f"  {k:<5}  {achieved:<8}  {required}")


def _prop3_detail(s: Spectrum) -> str:
    mags = list(s.magnitudes)
    count = len(mags)
    if mags == [Fraction(i) for i in range(count)]:
        return f"magnitudes form the integer ladder 0..{count - 1}"
    if mags == [Fraction(2 * i + 1, 2) for i in range(count)]:
        m_half = s.mult(Fraction(1, 2))
        if m_half >= 2:
            return (
                f"magnitudes form the half-odd ladder 1/2..{mags[-1]} "
                f"with mult(1/2) = {m_half} >= 2"
            )
        return f"half-odd ladder, but mult(1/2) = {m_half} < 2"
    return "magnitudes are not an unbroken ladder from 0 or 1/2"


# ---------------------------------------------------------------------------
# check


def cmd_check(args) -> int:
    try:
        if args.spectrum is not None:
            s = _load_spectrum_arg(args.spectrum)
            if s.n > MAX_N:
                return _fail(f"spectrum has n = {s.n}; n must be at most {MAX_N}")
            input_json: dict = {"spectrum": s.to_json()}
            input_line = f"input: spectrum {s} (n={s.n})"
        else:
            matrix = _load_matrix_file(args.matrix)
            if matrix.rows > MAX_N:
                return _fail(
                    f"matrix {args.matrix} has {matrix.rows} rows; n must be at most {MAX_N}"
                )
            s = spectrum_from_matrix(matrix)
            input_json = {
                "matrix": args.matrix,
                "extracted_spectrum": None if s is None else s.to_json(),
            }
            if s is None:
                input_line = (
                    f"input: matrix {matrix.rows}x{matrix.cols} from {args.matrix}; "
                    "eigenvalue magnitudes are not all half-integers"
                )
            else:
                input_line = (
                    f"input: matrix {matrix.rows}x{matrix.cols} from {args.matrix}; "
                    f"extracted spectrum {s} (n={s.n})"
                )
    except InputError as exc:
        return _fail(str(exc))
    except (InvalidSpectrum, NotSkew, TooSmall) as exc:
        return _fail(str(exc))

    base = {"command": "check", "method": args.method, "input": input_json}

    if s is None:
        verdict = Verdict(False, VerdictReason.NON_INTEGRAL)
        if args.fmt == "json":
            print(json.dumps({**base, **_verdict_json(verdict)}, indent=2))
        else:
            print(input_line)
            print(f"method: {args.method}")
            _print_verdict_table(verdict)
        return EXIT_NEGATIVE

    if args.method == "strict":
        generated, got, full = strict_generation_report(s)
        if args.fmt == "json":
            print(
                json.dumps(
                    {
                        **base,
                        "strictly_generated": generated,
                        "generated_dim": got,
                        "algebra_dim": full,
                    },
                    indent=2,
                )
            )
        else:
            print(input_line)
            print("method: strict")
            answer = "yes" if generated else "no"
            print(
                f"generated by grade +1 and grade -1 pieces alone: {answer} "
                f"(generated dim {got} of {full})"
            )
        return EXIT_OK if generated else EXIT_NEGATIVE

    if args.method == "prop3":
        ok = prop3_check(s)
        detail = _prop3_detail(s)
        if args.fmt == "json":
            print(json.dumps({**base, "canonical": ok, "detail": detail}, indent=2))
        else:
            print(input_line)
            print("method: prop3")
            print(f"verdict: {'canonical' if ok else 'not canonical'}")
            print(f"detail: {detail}")
        return EXIT_OK if ok else EXIT_NEGATIVE

    verdict = theorem2_check(s)

    if args.method == "both":
        p3 = prop3_check(s)
        agree = verdict.canonical == p3
        payload = {
            **base,
            "theorem2": _verdict_json(verdict),
            "prop3": {"canonical": p3, "detail": _prop3_detail(s)},
            "agree": agree,
        }
        if not agree:
            if args.fmt == "json":
                print(json.dumps(payload, indent=2))
            else:
                print(input_line)
                print(
                    f"DISCREPANCY: theorem2 says {_verdict_summary(verdict)} "
                    f"but prop3 says {'canonical' if p3 else 'not canonical'}"
                )
            return EXIT_ERROR
        if args.fmt == "json":
            print(json.dumps(payload, indent=2))
        else:
            print(input_line)
            print("method: both")
            print(f"theorem2: {_verdict_summary(verdict)}")
            print(f"prop3: {'canonical' if p3 else 'not canonical'} ({_prop3_detail(s)})")
            print("agreement: yes")
            _print_verdict_table(verdict)
        return EXIT_OK if verdict.canonical else EXIT_NEGATIVE

    if args.fmt == "json":
        print(json.dumps({**base, **_verdict_json(verdict)}, indent=2))
    else:
        print(input_line)
        print("method: theorem2")
        _print_verdict_table(verdict)
    return EXIT_OK if verdict.canonical else EXIT_NEGATIVE


# ---------------------------------------------------------------------------
# enumerate


def cmd_enumerate(args) -> int:
    if args.n < 3:
        return _fail(f"--n must be at least 3, got {args.n}")
    if args.n > MAX_N:
        return _fail(f"--n must be at most {MAX_N}, got {args.n}")
    classes = enumerate_canonical(args.n)
    payload = []
    for s in classes:
        payload.append({"spectrum": s.to_json(), "grading": _grading_cells(grade_dims(s))})
    if args.fmt == "json":
        print(
            json.dumps(
                {
                    "command": "enumerate",
                    "n": args.n,
                    "count": len(classes),
                    "classes": payload,
                },
                indent=2,
            )
        )
    else:
        print(f"canonical spectra for so({args.n}): {len(classes)} classes")
        for idx, (s, cells) in enumerate(zip(classes, payload), start=1):
            dims = " ".join(f"{c['grade']}:{c['dim']}" for c in cells["grading"])
            print(f"  [{idx}] {s}")
            print(f"      grading dims: {dims}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def _record_json(rec: OracleRecord) -> dict:
    return {
        "n": rec.spectrum.n,
        "spectrum": rec.spectrum.to_json(),
        "theorem2": {
            "canonical": rec.verdict.canonical,
            "reason": rec.verdict.reason.value,
            "failing": None
            if rec.verdict.failing is None
            else {
                "grade": rec.verdict.failing[0],
                "achieved": rec.verdict.failing[1],
                "required": rec.verdict.failing[2],
            },
        },
        "prop3": rec.prop3,
        "theorem1": rec.theorem1_ok,
        "agree": rec.agree,
    }


def _workers_from_env() -> int:
    raw = os.environ.get("CANONICAL_LIE_THREADS")
    if raw is None:
        return 1
    try:
        workers = int(raw)
    except ValueError:
        raise InputError(f"CANONICAL_LIE_THREADS must be an integer, got {raw!r}") from None
    if workers < 1:
        raise InputError(f"CANONICAL_LIE_THREADS must be >= 1, got {workers}")
    return workers


def cmd_verify(args) -> int:
    if args.max_n < 3:
        return _fail(f"--max-n must be at least 3, got {args.max_n}")
    if args.max_n > MAX_N:
        return _fail(f"--max-n must be at most {MAX_N}, got {args.max_n}")
    try:
        bound = parse_rational(args.max_lambda)
    except ValueError as exc:
        return _fail(str(exc))
    if bound <= 0 or (2 * bound).denominator != 1:
        return _fail(f"--max-lambda must be a positive half-integer, got {args.max_lambda}")
    try:
        workers = _workers_from_env()
    except InputError as exc:
        return _fail(str(exc))

    spectra = []
    for n in range(3, args.max_n + 1):
        spectra.extend(half_integral_spectra(n, bound))

    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(oracle_record, spectra, chunksize=8))
    else:
        records = [oracle_record(s) for s in spectra]
    records.sort(key=lambda r: r.spectrum.sort_key())

    bad = [r for r in records if not r.ok]
    canonical_count = sum(1 for r in records if r.verdict.canonical)
    agreements = sum(1 for r in records if r.agree)

    if args.fmt == "json":
        print(
            json.dumps(
                {
                    "command": "verify",
                    "max_n": args.max_n,
                    "max_lambda": str(bound),
                    "tested": len(records),
                    "agreements": agreements,
                    "canonical": canonical_count,
                    "discrepancies": [_record_json(r) for r in bad],
                    "results": [_record_json(r) for r in records],
                },
                indent=2,
            )
        )
    else:
        print(f"oracle sweep: n = 3..{args.max_n}, magnitudes <= {bound}")
        rows = []
        for rec in records:
            rows.append(
                (
                    str(rec.spectrum.n),
                    str(rec.spectrum),
                    _verdict_summary(rec.verdict),
                    "yes" if rec.prop3 else "no",
                    "-" if rec.theorem1_ok is None else ("ok" if rec.theorem1_ok else "FAIL"),
                    "yes" if rec.agree else "NO",
                )
            )
        headers = ("n", "spectrum", "theorem2", "prop3", "theorem1", "agree")
        widths = [
            max(len(headers[c]), max((len(r[c]) for r in rows), default=0))
            for c in range(len(headers))
        ]
        print("  " + "  ".join(h.ljust(w) for h, w in zip(headers, widths)))
        for r in rows:
            print("  " + "  ".join(v.ljust(w) for v, w in zip(r, widths)))
        print(
            f"tested: {len(records)}   agreements: {agreements}   "
            f"canonical: {canonical_count}   discrepancies: {len(bad)}"
        )
        for rec in bad:
            print(
                f"  DISCREPANCY so({rec.spectrum.n}) {rec.spectrum}: "
                f"theorem2={_verdict_summary(rec.verdict)} prop3={rec.prop3} "
                f"theorem1={rec.theorem1_ok}"
            )
    return EXIT_OK if not bad else EXIT_NEGATIVE


# ---------------------------------------------------------------------------
# entry points


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="canonical-lie",
        description=(
            "Decide, enumerate and cross-verify canonical elements of parabolic "
            "subalgebras of so(n), in exact rational arithmetic."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="decide canonicality of a spectrum or matrix")
    group = p_check.add_mutually_exclusive_group(required=True)
    group.add_argument("--spectrum", metavar="JSON|PATH", help="inline spectrum JSON or a path")
    group.add_argument("--matrix", metavar="PATH", help="skew matrix as JSON or CSV of 'p/q'")
    p_check.add_argument(
        "--method",
        choices=["theorem2", "prop3", "both", "strict"],
        default="theorem2",
        help="decision procedure (default: theorem2)",
    )
    p_check.add_argument("--format", dest="fmt", choices=["table", "json"], default="table")

    p_enum = sub.add_parser("enumerate", help="list all canonical spectra for so(n)")
    p_enum.add_argument("--n", type=int, required=True)
    p_enum.add_argument("--format", dest="fmt", choices=["table", "json"], default="table")

    p_verify = sub.add_parser(
        "verify", help="exhaustively cross-check theorem2 against prop3 within bounds"
    )
    p_verify.add_argument("--max-n", dest="max_n", type=int, required=True)
    p_verify.add_argument("--max-lambda", dest="max_lambda", default="7/2", metavar="P/Q")
    p_verify.add_argument("--format", dest="fmt", choices=["table", "json"], default="table")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_ERROR
    handlers = {"check": cmd_check, "enumerate": cmd_enumerate, "verify": cmd_verify}
    return handlers[args.command](args)


def run() -> None:
    sys.exit(main())
