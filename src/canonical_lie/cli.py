"""Command line interface: check, enumerate and verify canonical spectra.

Exit codes are a stable contract: 0 = canonical / success, 1 = negative
verdict (not canonical, not strictly generated, or sweep discrepancies),
2 = usage or input error, 141 = the reader closed stdout early.  Output is
byte-deterministic for a given invocation; rationals are exact "p/q" strings.

Arguments are read from one grammar table, `_GRAMMAR`: `_parse` reads the
form every request sends, COMMAND (--flag VALUE)*, and only help and usage
errors build argparse's parser from it, about 3.6 ms of a process's start-up.
Spectra and matrices stay ints from parse to render: `--spectrum`,
`--max-lambda` and `--matrix` cells are read as int pairs, a matrix is held
as ints over one denominator and magnitudes are printed from D * lambda, so
only non-integral grades import `fractions`, with the `decimal` and
`numbers` it loads, about 2.8 ms of start-up.

JSON input is read by `_parse_json` with `_json.make_scanner`, the C scanner
json.loads runs; `check` writes its answer with `_dumps`, whose strings go
through `_json`'s own encoder, and `enumerate` and `verify` write theirs from
templates.  Only malformed input imports `json`, and with its decoder `re`,
for its error message: `json` had cost 6.0 ms of `-X importtime`, 3.1 ms of
it `re`, on `check --matrix FILE --format json` under `python -S` (medians
of 41 alternating runs, 2-vCPU x86-64, Python 3.11.7), and where the site
set-up loads `re` anyway, about 1.9 ms of each request.  `_json`, a C
extension, takes 0.28 ms of `-X importtime` on the same host.

A process runs :func:`run` with the cyclic collector off, as no request
leaves cyclic garbage, and ends through `os._exit` after flushing stdout and
stderr, skipping the interpreter's teardown, which nothing here needs (see
:func:`run`); :func:`main` returns the exit code, for callers in process.
"""

import gc
import os
import sys
from types import SimpleNamespace

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
    sweep_tally,
    theorem2_check,
)
from .exactlin import RatMatrix, format_ratio, parse_ratio, shown
from .liegraded import grade_dims
from .sonreal import InvalidSpectrum, NotSkew, Spectrum, TooSmall, spectrum_from_matrix

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_ERROR = 2

# Largest n any command accepts.  theorem2 decides on O(r^2) g_0-cells, r the
# number of distinct labels: `check --spectrum` on {0:n} takes 0.036-0.046 s
# at n = 20 and at n = 24 (14.3 MB peak) as a process on a 2-vCPU x86-64 host
# with Python 3.11.7.  `--method strict` brackets pairs of Witt wedges, fewer
# than dim^2 / 2 of them (dim = 276 at n = 24), and takes 0.063-0.086 s on
# the n = 24 ladder and 0.035-0.045 s on {0:24}, at the same peak.
MAX_N = 24

# Caps on `verify`.  No spectrum with n <= MAX_N and a magnitude above
# (MAX_N - 1) / 2 is canonical, so MAX_LAMBDA = MAX_N sweeps past every
# canonical class.  MAX_SWEEP is the spectrum count of `verify --max-n 24` at
# the default 7/2.  A sweep keeps one compact record per spectrum, and
# theorem2 walks each grade up to the largest magnitude, so the two caps bound
# its time and memory: `--max-n 10 --max-lambda 25/2` (197,288 spectra) takes
# 1.0-1.6 s and 66 MB as JSON, and 1.6-2.4 s and 114 MB as a table, as a
# whole process on the same host.
MAX_LAMBDA = MAX_N
MAX_SWEEP = 201_542


class InputError(Exception):
    """Bad file, malformed JSON/CSV, or a value outside the schema."""


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_ERROR


# ---------------------------------------------------------------------------
# input loading


_BLANK = frozenset(" \t\n\r")  # JSON's whitespace
# what json.loads hands its scanner: JSONDecoder's defaults, with float for its
# table of NaN, Infinity and -Infinity, which gives the same values
_SCANNER_CONTEXT = SimpleNamespace(
    strict=True,
    object_hook=None,
    object_pairs_hook=None,
    parse_float=float,
    parse_int=int,
    parse_constant=float,
)


def _skip(text: str, i: int) -> int:
    while text[i : i + 1] in _BLANK:
        i += 1
    return i


def _parse_json(text: str, origin: str):
    """json.loads(text), read by `_json.make_scanner`, the C scanner json.loads
    runs, so that a valid document loads neither the `json` package nor the
    `re` its decoder imports.  Text the scanner refuses, or with more than
    whitespace after its value, goes to json.loads, which reads it again and
    gives every error message."""
    import _json  # here, so that `verify` and `enumerate` never load it

    try:
        value, end = _json.make_scanner(_SCANNER_CONTEXT)(text, _skip(text, 0))
        if _skip(text, end) == len(text):
            return value
    except Exception:
        # broad, as on Python 3.10 and 3.11 the scanner raises JSONDecodeError
        # only once `json.decoder` is loaded, and SystemError before
        pass
    import json

    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"{origin}: JSON parse error at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None
    except (ValueError, RecursionError) as exc:  # an integer over the digit limit, deep nesting
        raise InputError(f"{origin}: {exc}") from None


def _load_spectrum_arg(arg: str) -> Spectrum:
    text = arg.strip()
    origin = "inline spectrum"
    if not text.startswith(("{", "[")):
        origin = f"spectrum file {arg}"
        try:
            with open(arg, encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise InputError(f"cannot read {origin}: {exc}") from None
    obj = _parse_json(text, origin)
    try:
        return Spectrum.from_json(obj)
    except InvalidSpectrum as exc:
        raise InputError(f"{origin}: {exc}") from None


def _parse_matrix_cell(value, where: tuple[str, int, int]) -> tuple[int, int]:
    """A matrix cell as the (p, q) pair of :func:`exactlin.ratio`; `where`,
    its (path, row, column), is formatted only for a refused cell."""
    if isinstance(value, str):
        try:
            return parse_ratio(value)
        except ValueError as exc:
            problem = str(exc)
    elif isinstance(value, bool):
        problem = "booleans are not matrix entries"
    elif isinstance(value, int):
        return value, 1
    elif isinstance(value, float):
        problem = f"float {shown(value)} rejected; use exact 'p/q' strings"
    else:
        problem = f"unsupported entry {shown(value)}"
    raise InputError("{} row {} column {}: {}".format(*where, problem))


def _lines(text: str):
    """The lines of text, each with its newline, as io.StringIO(text) yields
    them without copying the text at 4 bytes a character; unlike splitlines,
    only a newline ends one (`open` has turned CR LF and lone CRs into it)."""
    start = 0
    while start < len(text):
        end = text.find("\n", start) + 1 or len(text)
        yield text[start:end]
        start = end


def _load_matrix_file(path: str) -> RatMatrix:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read matrix file {path}: {exc}") from None
    if text.lstrip("\ufeff").lstrip().startswith("["):  # a BOM goes to json for its message
        data = _parse_json(text, f"matrix file {path}")
        if not isinstance(data, list) or not all(isinstance(r, list) for r in data):
            raise InputError(f"matrix file {path}: expected an array of arrays")
        numbered = [(i, len(raw), raw) for i, raw in enumerate(data)]
    else:
        # csv.reader itself, with its default (excel) dialect; the `csv` module
        # around it would load `re` for its Sniffer
        from _csv import Error, reader

        numbered = []  # (row number, width, non-blank cells), cells kept within the cap
        try:
            for i, raw in enumerate(reader(_lines(text))):
                width = sum(1 for c in raw if c.strip())
                if width:  # rows past the cap are only counted
                    cells = [c.strip() for c in raw if c.strip()] if width <= MAX_N else None
                    numbered.append((i, width, cells) if len(numbered) < MAX_N else None)
        except Error as exc:  # a field over the reader's limit, 131,072 characters
            raise InputError(f"matrix file {path}: {exc}") from None
    if len(numbered) > MAX_N:  # before any cell is converted
        raise InputError(f"matrix {path} has {len(numbered)} rows; n must be at most {MAX_N}")
    for i, width, _ in numbered:
        if width > MAX_N:
            raise InputError(
                f"matrix {path} row {i} has {width} entries; n must be at most {MAX_N}"
            )
    rows = [
        [_parse_matrix_cell(v, (path, i, j)) for j, v in enumerate(raw)]
        for i, _, raw in numbered
    ]
    if not rows:
        raise InputError(f"matrix file {path} is empty")
    try:
        return RatMatrix._from_ratios(rows)
    except ValueError as exc:
        raise InputError(f"matrix file {path}: {exc}") from None


def _load_check_input(args) -> tuple[Spectrum | None, dict, str]:
    """Read `check`'s --spectrum or --matrix: the spectrum to decide (None
    when a matrix's magnitudes are not all half-integers), the JSON `input`
    block and the table's input line."""
    if args.spectrum is not None:
        s = _load_spectrum_arg(args.spectrum)
        if s.n > MAX_N:
            raise InputError(f"spectrum has n = {shown(s.n)}; n must be at most {MAX_N}")
        return s, {"spectrum": s.to_json()}, f"input: spectrum {s} (n={s.n})"
    matrix = _load_matrix_file(args.matrix)
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


def _grading_cells(pairs) -> list[dict]:
    return [{"grade": str(g), "dim": d} for g, d in pairs]


def _verdict_json(verdict: Verdict) -> dict:
    keys = ("grade", "achieved", "required")
    failing, trace, witness = verdict.failing, verdict.trace, verdict.witness
    return {
        "canonical": verdict.canonical,
        "reason": verdict.reason.value,
        "failing": None if failing is None else dict(zip(keys, failing)),
        "generation_trace": None if trace is None else [dict(zip(keys, row)) for row in trace],
        "grading": None if witness is None else _grading_cells(witness),
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
        lines += [f"  {g!s:<5}  {d}" for g, d in verdict.witness]
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
        payload = {"command": "check", "method": args.method, "input": input_json, **fields}
        print(_dumps(payload))
    else:
        print("\n".join([input_line, *lines]))
    return code


# ---------------------------------------------------------------------------
# JSON templates


# `json.dumps(..., indent=2)` runs the pure-Python encoder, so `enumerate` and
# `verify` write their JSON from templates instead.  Each template is the text
# `json.dumps(..., indent=2)` gives for its value where it sits in the
# document: a class or a record at depth 2 (a record's text split around its
# entries), a grading cell at depth 4 and a spectrum entry at depth 5.
# No string needs escaping: magnitudes and grades render as p/q and reasons
# are VerdictReason values.
_CLASS = (
    '    {\n      "spectrum": {\n        "n": %d,\n        "entries": [%s\n        ]\n'
    '      },\n      "grading": [%s\n      ]\n    }'
)
_CELL = '\n        {\n          "grade": "%s",\n          "dim": %d\n        }'
_RECORD_HEADS = tuple(  # by n
    f'    {{\n      "n": {n},\n      "spectrum": {{\n        "n": {n},\n        "entries": ['
    for n in range(MAX_N + 1)
)
_RECORD_TAIL = (
    '\n        ]\n      },\n      "theorem2": {\n        "canonical": %s,\n'
    '        "reason": "%s",\n        "failing": %s\n      },\n      "prop3": %s,\n'
    '      "theorem1": %s,\n      "agree": %s\n    }'
)
_ENTRY = '\n          {\n            "lambda": "%s",\n            "mult": %d\n          }'
_FAILING = (
    '{\n          "grade": %d,\n          "achieved": %d,\n          "required": %d\n        }'
)
_LITERAL = {True: "true", False: "false", None: "null"}


def _dumps(value, indent: str = "\n") -> str:
    """json.dumps(value, indent=2) for dicts, lists, strs, ints, bools and None;
    `indent` is the newline and indentation that start the value's own lines.
    A string is written by the C function json.dumps writes it with."""
    if isinstance(value, str):
        import _json  # here, as in `_parse_json`; a `from` import costs 7 times more per string

        return _json.encode_basestring_ascii(value)
    if value is None or isinstance(value, bool):
        return _LITERAL[value]
    if isinstance(value, int):
        return str(value)
    inner = indent + "  "
    if isinstance(value, dict):
        items = [f"{inner}{_dumps(k)}: {_dumps(v, inner)}" for k, v in value.items()]
        return "{" + ",".join(items) + indent + "}" if items else "{}"
    items = [inner + _dumps(v, inner) for v in value]
    return "[" + ",".join(items) + indent + "]" if items else "[]"


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
    entries = ",".join([_ENTRY % entry for entry in s._texts()])
    cells = ",".join([_CELL % cell for cell in grade_dims(s).items()])
    return _CLASS % (s.n, entries, cells)


def cmd_enumerate(args) -> int:
    if args.n < 3:
        return _fail(f"--n must be at least 3, got {shown(args.n)}")
    if args.n > MAX_N:
        return _fail(f"--n must be at most {MAX_N}, got {shown(args.n)}")
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
            dims = " ".join(f"{g}:{d}" for g, d in grade_dims(s).items())
            write(f"  [{idx}] {s}\n      grading dims: {dims}\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def _record_text(rec: OracleRecord, shared: dict) -> str:
    """The record's text at depth 2.  A sweep's records share most of it:
    each entry's text depends only on its (D * lambda, mult) and the
    spectrum's D, and what follows the entries only on the record's
    (verdict, prop3, theorem1_ok), and a sweep has few of either.  So
    `shared` keeps those texts for the request: per D a dict of the entry
    texts, and per triple its tail."""
    s = rec.spectrum
    texts = shared.get(s.den)
    if texts is None:
        texts = shared[s.den] = {}
    entries = []
    for pair in s.scaled:
        text = texts.get(pair)
        if text is None:
            text = texts[pair] = _ENTRY % (format_ratio(pair[0], s.den), pair[1])
        entries.append(text)
    tail = shared.get(rec[1:])
    if tail is None:
        verdict = rec.verdict
        failing = "null" if verdict.failing is None else _FAILING % verdict.failing
        decision = (_LITERAL[verdict.canonical], verdict.reason.value, failing)
        checks = (_LITERAL[rec.prop3], _LITERAL[rec.theorem1_ok], _LITERAL[rec.agree])
        tail = shared[rec[1:]] = _RECORD_TAIL % (*decision, *checks)
    return _RECORD_HEADS[s.n] + ",".join(entries) + tail


def _table_cells(rec: OracleRecord, shared: dict) -> tuple[str, ...]:
    """One table row; a sweep keeps every row until the widths are known, so
    the few distinct n texts are interned, and the last four cells, which
    depend only on the record's (verdict, prop3, theorem1_ok), are made once
    per triple and kept in `shared` for the request."""
    checks = shared.get(rec[1:])
    if checks is None:
        checks = shared[rec[1:]] = (
            _verdict_summary(rec.verdict),
            "yes" if rec.prop3 else "no",
            "-" if rec.theorem1_ok is None else ("ok" if rec.theorem1_ok else "FAIL"),
            "yes" if rec.agree else "NO",
        )
    return (sys.intern(str(rec.spectrum.n)), str(rec.spectrum), *checks)


def _table_line(cells, widths) -> str:
    return "  " + "  ".join(v.ljust(w) for v, w in zip(cells, widths)) + "\n"


def cmd_verify(args) -> int:
    if args.max_n < 3:
        return _fail(f"--max-n must be at least 3, got {shown(args.max_n)}")
    if args.max_n > MAX_N:
        return _fail(f"--max-n must be at most {MAX_N}, got {shown(args.max_n)}")
    try:
        p, q = parse_ratio(args.max_lambda)
    except ValueError as exc:
        return _fail(str(exc))
    echoed = shown(args.max_lambda, str)
    if p <= 0 or q > 2:  # p/q in lowest terms is a half-integer iff q divides 2
        return _fail(f"--max-lambda must be a positive half-integer, got {echoed}")
    if p > MAX_LAMBDA * q:
        return _fail(f"--max-lambda must be at most {MAX_LAMBDA}, got {echoed}")
    bound = f"{p}/{q}" if q == 2 else str(p)
    ns = range(3, args.max_n + 1)
    count = sum(half_integral_count(n, bound) for n in ns)
    if count > MAX_SWEEP:
        return _fail(
            f"--max-n {args.max_n} --max-lambda {args.max_lambda} sweeps {count} spectra; "
            f"at most {MAX_SWEEP} are allowed"
        )

    # each n's spectra come sorted by largest magnitude, then entries
    records = [oracle_record(s) for n in ns for s in half_integral_spectra(n, bound)]
    bad, canonical_count, agreements = sweep_tally(records)
    shared = {}  # what the records' texts or table rows share, kept for this request

    write = sys.stdout.write
    if args.fmt == "json":
        write(
            f'{{\n  "command": "verify",\n  "max_n": {args.max_n},\n'
            f'  "max_lambda": "{bound}",\n  "tested": {len(records)},\n'
            f'  "agreements": {agreements},\n  "canonical": {canonical_count},\n'
            '  "discrepancies": '
        )
        _write_list(write, (_record_text(rec, shared) for rec in bad))
        write(',\n  "results": ')
        _write_list(write, (_record_text(rec, shared) for rec in records))
        write("\n}\n")
    else:
        write(f"oracle sweep: n = 3..{args.max_n}, magnitudes <= {bound}\n")
        headers = ("n", "spectrum", "theorem2", "prop3", "theorem1", "agree")
        rows = [_table_cells(rec, shared) for rec in records]
        widths = [max(map(len, column)) for column in zip(headers, *rows)]
        write(_table_line(headers, widths))
        for cells in rows:
            write(_table_line(cells, widths))
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


# The grammar `_parse` and `_build_parser` read: per command its help, the flags
# of its required one-of group and each option's `add_argument` keywords, in order.
_FORMAT = dict(dest="fmt", choices=("table", "json"), default="table")
_GRAMMAR = {
    "check": ("decide canonicality of a spectrum or matrix", ("--spectrum", "--matrix"), {
        "--spectrum": dict(dest="spectrum", metavar="JSON|PATH",
                           help="inline spectrum JSON or a path"),
        "--matrix": dict(dest="matrix", metavar="PATH", help="skew matrix as JSON or CSV of 'p/q'"),
        "--method": dict(dest="method", choices=("theorem2", "prop3", "both", "strict"),
                         default="theorem2", help="decision procedure (default: theorem2)"),
        "--format": _FORMAT,
    }),
    "enumerate": ("list all canonical spectra for so(n)", (), {
        "--n": dict(dest="n", type=int, required=True),
        "--format": _FORMAT,
    }),
    "verify": ("exhaustively cross-check theorem2 against prop3 within bounds", (), {
        "--max-n": dict(dest="max_n", type=int, required=True),
        "--max-lambda": dict(dest="max_lambda", default="7/2", metavar="P/Q"),
        "--format": _FORMAT,
    }),
}


def _parse(argv):
    """The namespace argparse would give for `argv` of the form COMMAND (--flag
    VALUE)*, with each flag exact and at most once and no value starting with
    "-"; None for any other argv, or a bad value, or a missing option."""
    if len(argv) % 2 == 0 or argv[0] not in _GRAMMAR:
        return None
    _, one_of, options = _GRAMMAR[argv[0]]
    args = {"command": argv[0], **{o["dest"]: o.get("default") for o in options.values()}}
    flags = argv[1::2]
    for flag, value in zip(flags, argv[2::2]):
        option = options.get(flag)
        if option is None or value.startswith("-") or flags.count(flag) > 1:
            return None
        try:
            value = option.get("type", str)(value)
        except ValueError:
            return None
        if "choices" in option and value not in option["choices"]:
            return None
        args[option["dest"]] = value
    if not all(f in flags for f, o in options.items() if o.get("required")):
        return None
    return None if one_of and sum(f in flags for f in one_of) != 1 else SimpleNamespace(**args)


def _build_parser():
    """The argparse parser of the same grammar, for help and usage errors."""
    import argparse  # off the path of every request `_parse` accepts

    parser = argparse.ArgumentParser(
        prog="canonical-lie",
        description=(
            "Decide, enumerate and cross-verify canonical elements of parabolic "
            "subalgebras of so(n), in exact rational arithmetic."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, one_of, options) in _GRAMMAR.items():
        p = sub.add_parser(command, help=help_text)
        group = p.add_mutually_exclusive_group(required=True) if one_of else p
        for flag, option in options.items():
            (group if flag in one_of else p).add_argument(flag, **option)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse(argv)
    if args is None:
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else EXIT_ERROR
    handlers = {"check": cmd_check, "enumerate": cmd_enumerate, "verify": cmd_verify}
    return handlers[args.command](args)


def run() -> None:
    """The console script's entry: run :func:`main` with the cyclic collector
    off, flush, and exit with its code.

    No request leaves a reference cycle behind, so the collector's passes
    free nothing.  Counted in process through `gc.callbacks`, after import,
    `verify --max-n 7` (the benchmark's sweep) made 3 collections, `verify
    --max-n 18` 275, and `verify --max-n 10 --max-lambda 25/2` 1,262 as JSON
    and 1,827 as a table, about a tenth of its time; `enumerate --n 24` made
    66, and `enumerate --n 9` and a `check --matrix` at most one.  They freed
    0 objects, and so did a `gc.collect()` after each request; the tests
    hold every command to that (`TestNoCyclicGarbage`).  `python -m
    canonical_lie` turns the collector off before this module loads, too.
    :func:`main` keeps it, for callers in process.

    `os._exit` skips the interpreter's teardown, which frees every object the
    request built and every module loaded, the site set-up's included, and
    can cost more than a small request.  Nothing needs it: the CLI registers
    no `atexit` handler and has no file open but stdout and stderr, flushed
    here.  An exception that escapes `main` ends the process the usual way,
    with a traceback and exit 1.
    """
    gc.disable()
    try:
        code = main()
        sys.stdout.flush()
        sys.stderr.flush()
    except BrokenPipeError:  # the reader closed stdout early; the shell's SIGPIPE code
        code = 141
    os._exit(code)
