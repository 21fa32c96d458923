"""Command line interface: check, enumerate and verify canonical spectra.

Exit codes are a stable contract: 0 = canonical / success, 1 = negative
verdict (not canonical, not strictly generated, or sweep discrepancies),
2 = usage or input error, 141 = the reader closed stdout early.  Output is
byte-deterministic for a given invocation; rationals are exact "p/q" strings.

A process ends in :func:`run` through `os._exit` after flushing stdout and
stderr, skipping the interpreter's teardown, which nothing here needs (see
:func:`run`); :func:`main` returns the exit code, for callers in process.
"""

from __future__ import annotations

import argparse
import io
import os
import sys
from fractions import Fraction

from .canonical import (
    OracleRecord,
    Verdict,
    VerdictReason,
    enumerate_canonical,
    half_integral_count,
    half_integral_spectra,
    oracle_record,
    prop3_report,
    strict_generation_report,
    theorem2_check,
)
from .exactlin import RatMatrix, parse_rational
from .sonreal import InvalidSpectrum, NotSkew, Spectrum, TooSmall, grading, spectrum_from_matrix

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_ERROR = 2

# Largest n any command accepts.  Building and validating the so(n, C) table
# grows about as n^4: Jacobi sums only the basis triples that close a nonzero
# bracket chain, 129,272 of the 3,466,100 at n = 24.  `check --spectrum` takes
# 0.21-0.38 s at n = 20 and 0.43-0.63 s at n = 24 (19 MB peak) as a process
# on a 2-vCPU Intel Xeon host with Python 3.11.7, mostly building the table.
MAX_N = 24

# Caps on `verify`.  No spectrum with n <= MAX_N and a magnitude above
# (MAX_N - 1) / 2 is canonical, so MAX_LAMBDA = MAX_N sweeps past every
# canonical class.  MAX_SWEEP is the spectrum count of `verify --max-n 24` at
# the default 7/2.  A sweep keeps one compact record per spectrum, and
# theorem2 walks each grade up to the largest magnitude, so the two caps bound
# its time and memory: `--max-n 10 --max-lambda 25/2` (197,288 spectra) takes
# 6.5-7.2 s and 164.5 MB as JSON, as a whole process on the same host.
MAX_LAMBDA = MAX_N
MAX_SWEEP = 201_542


class InputError(Exception):
    """Bad file, malformed JSON/CSV, or a value outside the schema."""


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_ERROR


# ---------------------------------------------------------------------------
# input loading


def _parse_json(text: str, origin: str):
    import json  # off the import path of `verify` and `--help`
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"{origin}: JSON parse error at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None
    except ValueError as exc:  # e.g. an integer literal over the digit limit
        raise InputError(f"{origin}: {exc}") from None


def _load_spectrum_arg(arg: str) -> Spectrum:
    text = arg.strip()
    origin = "inline spectrum"
    if not text.startswith(("{", "[")):
        origin = f"spectrum file {arg}"
        try:
            with open(arg, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise InputError(f"cannot read {origin}: {exc}") from None
    obj = _parse_json(text, origin)
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
        data = _parse_json(text, f"matrix file {path}")
        if not isinstance(data, list) or not all(isinstance(r, list) for r in data):
            raise InputError(f"matrix file {path}: expected an array of arrays")
        for i, raw in enumerate(data):
            rows.append(
                [_parse_matrix_cell(v, f"{path} row {i} column {j}") for j, v in enumerate(raw)]
            )
    else:
        import csv  # only CSV input pays for the module

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


def _load_check_input(args) -> tuple[Spectrum | None, dict, str]:
    """Read `check`'s --spectrum or --matrix: the spectrum to decide (None
    when a matrix's magnitudes are not all half-integers), the JSON `input`
    block and the table's input line."""
    if args.spectrum is not None:
        s = _load_spectrum_arg(args.spectrum)
        if s.n > MAX_N:
            raise InputError(f"spectrum has n = {s.n}; n must be at most {MAX_N}")
        return s, {"spectrum": s.to_json()}, f"input: spectrum {s} (n={s.n})"
    matrix = _load_matrix_file(args.matrix)
    if matrix.rows > MAX_N:
        raise InputError(
            f"matrix {args.matrix} has {matrix.rows} rows; n must be at most {MAX_N}"
        )
    s = spectrum_from_matrix(matrix)
    source = f"input: matrix {matrix.rows}x{matrix.cols} from {args.matrix}; "
    if s is None:
        line = source + "eigenvalue magnitudes are not all half-integers"
    else:
        line = source + f"extracted spectrum {s} (n={s.n})"
    input_json = {"matrix": args.matrix, "extracted_spectrum": None if s is None else s.to_json()}
    return s, input_json, line


# ---------------------------------------------------------------------------
# shared rendering


def _grading_cells(dims: dict) -> list[dict]:
    return [{"grade": str(g), "dim": d} for g, d in dims.items()]


def _verdict_json(verdict: Verdict) -> dict:
    keys = ("grade", "achieved", "required")
    failing, trace, witness = verdict.failing, verdict.trace, verdict.witness
    return {
        "canonical": verdict.canonical,
        "reason": verdict.reason.value,
        "failing": None if failing is None else dict(zip(keys, failing)),
        "generation_trace": None if trace is None else [dict(zip(keys, row)) for row in trace],
        "grading": None if witness is None else _grading_cells(witness.dims()),
    }


def _verdict_summary(verdict: Verdict) -> str:
    if verdict.canonical:
        return "canonical"
    if verdict.reason is VerdictReason.GENERATION_FAILS:
        return f"GenerationFails at {verdict.failing[0]}"
    return verdict.reason.value


def _canonical_word(ok: bool) -> str:
    return "canonical" if ok else "not canonical"


def _verdict_lines(verdict: Verdict) -> list[str]:
    lines = [f"verdict: {_canonical_word(verdict.canonical)}"]
    if verdict.reason is VerdictReason.GENERATION_FAILS:
        k, achieved, required = verdict.failing
        lines.append(
            f"reason: GenerationFails at grade {k} "
            f"(achieved dim {achieved}, required dim {required})"
        )
    elif verdict.reason is VerdictReason.NON_INTEGRAL:
        lines.append("reason: NonIntegralAdSpectrum (ad-eigenvalue grades are not all integers)")
    if verdict.witness is not None:
        lines += ["grading dimensions:", "  grade  dim"]
        lines += [f"  {g!s:<5}  {d}" for g, d in verdict.witness.dims().items()]
    if verdict.trace:
        lines += [
            "generation trace (dim of [g_1, .] iterate vs dim g_k):",
            "  grade  achieved  required",
        ]
        lines += [f"  {k:<5}  {a:<8}  {r}" for k, a, r in verdict.trace]
    return lines


# ---------------------------------------------------------------------------
# check


def _decide(method: str, s: Spectrum | None) -> tuple[dict, list[str], int]:
    """Run `method` on s: (JSON fields, table lines, exit code).

    A matrix whose magnitudes are not all half-integers (s is None) has a
    non-integral ad-spectrum, and every method reports that verdict.
    """
    if s is None:
        verdict = Verdict(VerdictReason.NON_INTEGRAL)
    elif method == "strict":
        generated, got, full = strict_generation_report(s)
        fields = {"strictly_generated": generated, "generated_dim": got, "algebra_dim": full}
        line = (
            f"generated by grade +1 and grade -1 pieces alone: {'yes' if generated else 'no'} "
            f"(generated dim {got} of {full})"
        )
        return fields, ["method: strict", line], EXIT_OK if generated else EXIT_NEGATIVE
    elif method == "prop3":
        ok, detail = prop3_report(s)
        lines = ["method: prop3", f"verdict: {_canonical_word(ok)}", f"detail: {detail}"]
        return {"canonical": ok, "detail": detail}, lines, EXIT_OK if ok else EXIT_NEGATIVE
    else:
        verdict = theorem2_check(s)
    code = EXIT_OK if verdict.canonical else EXIT_NEGATIVE
    if s is None or method == "theorem2":
        return _verdict_json(verdict), [f"method: {method}", *_verdict_lines(verdict)], code
    p3, detail = prop3_report(s)
    agree = verdict.canonical == p3
    fields = {
        "theorem2": _verdict_json(verdict),
        "prop3": {"canonical": p3, "detail": detail},
        "agree": agree,
    }
    if not agree:
        line = (
            f"DISCREPANCY: theorem2 says {_verdict_summary(verdict)} "
            f"but prop3 says {_canonical_word(p3)}"
        )
        return fields, [line], EXIT_ERROR
    lines = [
        "method: both",
        f"theorem2: {_verdict_summary(verdict)}",
        f"prop3: {_canonical_word(p3)} ({detail})",
        "agreement: yes",
        *_verdict_lines(verdict),
    ]
    return fields, lines, code


def cmd_check(args) -> int:
    try:
        s, input_json, input_line = _load_check_input(args)
    except (InputError, InvalidSpectrum, NotSkew, TooSmall) as exc:
        return _fail(str(exc))
    fields, lines, code = _decide(args.method, s)
    if args.fmt == "json":
        import json
        payload = {"command": "check", "method": args.method, "input": input_json, **fields}
        print(json.dumps(payload, indent=2))
    else:
        print("\n".join([input_line, *lines]))
    return code


# ---------------------------------------------------------------------------
# JSON templates


# `json.dumps(..., indent=2)` runs the pure-Python encoder, so `enumerate` and
# `verify` write their JSON from templates instead.  Each template is the text
# `json.dumps(..., indent=2)` gives for its value where it sits in the
# document: a class or a record at depth 2, a grading cell at depth 4 and a
# spectrum entry at depth 5.  No string needs escaping: magnitudes and grades
# render as p/q and reasons are VerdictReason values.
_CLASS = (
    '    {\n      "spectrum": {\n        "n": %d,\n        "entries": [%s\n        ]\n'
    '      },\n      "grading": [%s\n      ]\n    }'
)
_CELL = '\n        {\n          "grade": "%s",\n          "dim": %d\n        }'
_RECORD = (
    '    {\n      "n": %d,\n      "spectrum": {\n        "n": %d,\n        "entries": [%s\n'
    '        ]\n      },\n      "theorem2": {\n        "canonical": %s,\n'
    '        "reason": "%s",\n        "failing": %s\n      },\n      "prop3": %s,\n'
    '      "theorem1": %s,\n      "agree": %s\n    }'
)
_ENTRY = '\n          {\n            "lambda": "%s",\n            "mult": %d\n          }'
_FAILING = (
    '{\n          "grade": %d,\n          "achieved": %d,\n          "required": %d\n        }'
)
_LITERAL = {True: "true", False: "false", None: "null"}


def _write_list(write, texts) -> None:
    """A JSON list at depth 1 of the document from its items' texts, one write per item."""
    sep = "[\n"
    for text in texts:
        write(sep + text)
        sep = ",\n"
    write("[]" if sep == "[\n" else "\n  ]")


# ---------------------------------------------------------------------------
# enumerate


def _class_text(s: Spectrum) -> str:
    entries = ",".join([_ENTRY % entry for entry in s.entries])
    cells = ",".join([_CELL % cell for cell in grading(s).dims().items()])
    return _CLASS % (s.n, entries, cells)


def cmd_enumerate(args) -> int:
    if args.n < 3:
        return _fail(f"--n must be at least 3, got {args.n}")
    if args.n > MAX_N:
        return _fail(f"--n must be at most {MAX_N}, got {args.n}")
    classes = enumerate_canonical(args.n)
    write = sys.stdout.write
    if args.fmt == "json":
        write(
            f'{{\n  "command": "enumerate",\n  "n": {args.n},\n'
            f'  "count": {len(classes)},\n  "classes": '
        )
        _write_list(write, map(_class_text, classes))
        write("\n}\n")
    else:
        write(f"canonical spectra for so({args.n}): {len(classes)} classes\n")
        for idx, s in enumerate(classes, start=1):
            dims = " ".join(f"{g}:{d}" for g, d in grading(s).dims().items())
            write(f"  [{idx}] {s}\n      grading dims: {dims}\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def _record_text(rec: OracleRecord) -> str:
    s, verdict = rec.spectrum, rec.verdict
    entries = ",".join([_ENTRY % entry for entry in s.entries])
    failing = "null" if verdict.failing is None else _FAILING % verdict.failing
    decision = (_LITERAL[verdict.canonical], verdict.reason.value, failing)
    checks = (_LITERAL[rec.prop3], _LITERAL[rec.theorem1_ok], _LITERAL[rec.agree])
    return _RECORD % (s.n, s.n, entries, *decision, *checks)


def _table_cells(rec: OracleRecord) -> tuple[str, ...]:
    return (
        str(rec.spectrum.n),
        str(rec.spectrum),
        _verdict_summary(rec.verdict),
        "yes" if rec.prop3 else "no",
        "-" if rec.theorem1_ok is None else ("ok" if rec.theorem1_ok else "FAIL"),
        "yes" if rec.agree else "NO",
    )


def _table_line(cells, widths) -> str:
    return "  " + "  ".join(v.ljust(w) for v, w in zip(cells, widths)) + "\n"


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
    if bound > MAX_LAMBDA:
        return _fail(f"--max-lambda must be at most {MAX_LAMBDA}, got {args.max_lambda}")
    ns = range(3, args.max_n + 1)
    count = sum(half_integral_count(n, bound) for n in ns)
    if count > MAX_SWEEP:
        return _fail(
            f"--max-n {args.max_n} --max-lambda {args.max_lambda} sweeps {count} spectra; "
            f"at most {MAX_SWEEP} are allowed"
        )

    # each n's spectra come sorted by largest magnitude, then entries
    records = [oracle_record(s) for n in ns for s in half_integral_spectra(n, bound)]

    bad = [r for r in records if not r.ok]
    canonical_count = sum(1 for r in records if r.verdict.canonical)
    agreements = sum(1 for r in records if r.agree)

    write = sys.stdout.write
    if args.fmt == "json":
        write(
            f'{{\n  "command": "verify",\n  "max_n": {args.max_n},\n'
            f'  "max_lambda": "{bound}",\n  "tested": {len(records)},\n'
            f'  "agreements": {agreements},\n  "canonical": {canonical_count},\n'
            '  "discrepancies": '
        )
        _write_list(write, map(_record_text, bad))
        write(',\n  "results": ')
        _write_list(write, map(_record_text, records))
        write("\n}\n")
    else:
        write(f"oracle sweep: n = 3..{args.max_n}, magnitudes <= {bound}\n")
        headers = ("n", "spectrum", "theorem2", "prop3", "theorem1", "agree")
        widths = [len(h) for h in headers]
        for rec in records:
            widths = [max(w, len(v)) for w, v in zip(widths, _table_cells(rec))]
        write(_table_line(headers, widths))
        for rec in records:
            write(_table_line(_table_cells(rec), widths))
        write(
            f"tested: {len(records)}   agreements: {agreements}   "
            f"canonical: {canonical_count}   discrepancies: {len(bad)}\n"
        )
        for rec in bad:
            write(
                f"  DISCREPANCY so({rec.spectrum.n}) {rec.spectrum}: "
                f"theorem2={_verdict_summary(rec.verdict)} prop3={rec.prop3} "
                f"theorem1={rec.theorem1_ok}\n"
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

    p_enum = sub.add_parser("enumerate", help="list all canonical spectra for so(n)")
    p_enum.add_argument("--n", type=int, required=True)

    p_verify = sub.add_parser(
        "verify", help="exhaustively cross-check theorem2 against prop3 within bounds"
    )
    p_verify.add_argument("--max-n", dest="max_n", type=int, required=True)
    p_verify.add_argument("--max-lambda", dest="max_lambda", default="7/2", metavar="P/Q")

    for command in (p_check, p_enum, p_verify):
        command.add_argument("--format", dest="fmt", choices=["table", "json"], default="table")
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
    """The console script's entry: run :func:`main`, flush, and exit with its code.

    `os._exit` skips the interpreter's teardown, which frees every object the
    request built and every module loaded, the site set-up's included, and
    can cost more than a small request.  Nothing needs it: the CLI registers
    no `atexit` handler and has no file open but stdout and stderr, flushed
    here.  An exception that escapes `main` ends the process the usual way,
    with a traceback and exit 1.
    """
    try:
        code = main()
        sys.stdout.flush()
        sys.stderr.flush()
    except BrokenPipeError:  # the reader closed stdout early; the shell's SIGPIPE code
        code = 141
    os._exit(code)
