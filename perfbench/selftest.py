"""Self-test of the benchmark itself.

Usage, from the root of a source checkout:  python3 perfbench/selftest.py

Checks that the matrix generator is byte-identical for the same seed and
builds orthogonal Q; that the oracle accepts real CLI outputs of each
workload's command and rejects tampered ones (a flipped verdict, a wrong
grading dim, a wrong extracted spectrum, a wrong count or exit code); that
traced counts repeat exactly while module self times add up to `cli.main.s`;
that a request past its timeout is killed; and that a child's max RSS is its
own, not that of the process that started it.
Prints one line per check and exits 1 if any fails.
"""

from __future__ import annotations

import copy
import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import gen_matrix
import oracle
from run import Spawner, child_env
from tracer import LAYERS, layer_metrics

ROOT = Path.cwd()
WORK = ROOT / ".perfbench" / "selftest"
COUNTS = (".calls", ".triples", ".cells", ".probes")
failures = 0


def expect(ok: bool, what: str) -> None:
    global failures
    failures += not ok
    print(f"{'ok  ' if ok else 'FAIL'} {what}")


def cli(args: list[str], name: str, traced: bool = False) -> tuple[int, str, dict]:
    out = WORK / f"{name}.json"
    spans = WORK / f"{name}.spans.json"
    cmd = [sys.executable, "-m", "canonical_lie", *args]
    if traced:
        cmd = [sys.executable, str(Path(__file__).with_name("tracer.py")), str(spans), *args]
    with open(out, "wb") as stdout:
        code = subprocess.run(cmd, stdout=stdout, env=child_env(ROOT), timeout=60).returncode
    return code, out.read_text(encoding="utf-8"), json.loads(spans.read_text()) if traced else {}


def rejects(check, code: int, out: dict, what: str) -> None:
    expect(bool(check(code, json.dumps(out))), f"oracle rejects {what}")


def generator_checks() -> list[dict]:
    manifest = gen_matrix.generate(7, WORK / "gen-a")
    gen_matrix.generate(7, WORK / "gen-b")
    gen_matrix.generate(8, WORK / "gen-c")
    files = sorted(p.name for p in (WORK / "gen-a").iterdir())
    same = all(
        (WORK / "gen-a" / f).read_bytes() == (WORK / "gen-b" / f).read_bytes() for f in files
    )
    expect(same and len(files) == len(manifest) + 1, "generator: same seed, identical bytes")
    other = (WORK / "gen-c" / "manifest.json").read_bytes()
    expect(other != (WORK / "gen-a" / "manifest.json").read_bytes(), "generator: seed 8 differs")
    rng = random.Random(0)
    for n in (3, 6, 10):
        q = gen_matrix.cayley(n, rng)
        qqt = gen_matrix._matmul(q, [list(c) for c in zip(*q)])
        ident = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        expect(qqt == ident, f"generator: Cayley Q is orthogonal at n={n}")
    return manifest


def sweep_checks() -> None:
    args = ["verify", "--max-n", "5", "--max-lambda", "3/2", "--format", "json"]
    code, text, _ = cli(args, "sweep")

    def check(c, o):
        return oracle.check_sweep(c, o, 5, 3)

    expect(check(code, text) == [], "oracle accepts a real verify output")
    good = json.loads(text)
    bad = copy.deepcopy(good)
    rec = next(r for r in bad["results"] if r["theorem2"]["canonical"])
    rec["theorem2"].update(canonical=False, reason="GenerationFails")
    rejects(check, code, bad, "a flipped sweep verdict")
    rejects(check, code, dict(good, canonical=good["canonical"] + 1), "a wrong canonical count")
    rejects(check, 1, good, "a wrong sweep exit code")


def enumerate_checks() -> None:
    code, text, _ = cli(["enumerate", "--n", "6", "--format", "json"], "enumerate")

    def check(c, o):
        return oracle.check_enumerate(c, o, 6)

    expect(check(code, text) == [], "oracle accepts a real enumerate output")
    good = json.loads(text)
    bad = copy.deepcopy(good)
    bad["classes"][-1]["grading"][0]["dim"] += 1
    rejects(check, code, bad, "a wrong grading dim")
    bad = copy.deepcopy(good)
    del bad["classes"][0]
    bad["count"] -= 1
    rejects(check, code, bad, "a missing class")


def matrix_args(entry: dict) -> list[str]:
    path = (WORK / "gen-a" / entry["file"]).relative_to(ROOT)
    return ["check", "--matrix", str(path), "--format", "json"]


def matrix_checks(manifest: list[dict]) -> None:
    for family in ("integer_ladder", "gap_ladder", "mixed_parity", "tail"):
        entry = next(e for e in manifest if e["family"] == family)
        code, text, _ = cli(matrix_args(entry), f"matrix-{family}")

        def check(c, o, spectrum=entry["spectrum"]):
            return oracle.check_matrix(c, o, spectrum)

        expect(check(code, text) == [], f"oracle accepts a real check --matrix output ({family})")
        good = json.loads(text)
        flipped = dict(good, canonical=not good["canonical"])
        rejects(check, code, flipped, f"a flipped matrix verdict ({family})")
        bad = copy.deepcopy(good)
        bad["input"]["extracted_spectrum"]["entries"][-1]["lambda"] += "1"
        rejects(check, code, bad, f"a wrong extracted spectrum ({family})")
        if good["grading"]:
            bad = copy.deepcopy(good)
            bad["grading"][0]["dim"] -= 1
            rejects(check, code, bad, f"a wrong matrix grading dim ({family})")


def tracer_checks(manifest: list[dict]) -> None:
    entry = next(e for e in manifest if e["family"] == "gap_ladder")
    runs = []
    for i in range(2):
        code, text, trace = cli(matrix_args(entry), f"traced{i}", traced=True)
        ok = oracle.check_matrix(code, text, entry["spectrum"]) == []
        expect(ok, "traced request answers correctly")
        runs.append(layer_metrics([(1.0, trace)]))
    counts = [
        {k: v for k, v in m.items() if k.endswith(COUNTS) or ".verdict." in k} for m in runs
    ]
    same = counts[0] == counts[1] and counts[0]["exactlin.rref.calls"] > 0
    expect(same, "traced counts repeat exactly")
    m = runs[0]
    total = sum(m[f"{layer}.self_s"] for layer in LAYERS)
    expect(abs(total - m["cli.main.s"]) <= 1e-9, "module self times add up to cli.main.s")
    expect(m["trace.own_s"] > 0, "the tracer reports the time it spent on itself")


def spawner_checks() -> None:
    spawner = Spawner(child_env(ROOT))
    try:
        cmd = [sys.executable, "-c", "import time; time.sleep(30)"]
        wall, _, _, timed_out = spawner.run(cmd, WORK / "sleep.txt", 0.5)
        expect(timed_out and wall < 5, "a request past its timeout is killed and reported")
        ballast = bytearray(64 << 20)  # this process grows by 64 MB
        ballast[:: 1 << 12] = b"x" * len(ballast[:: 1 << 12])
        cmd = [sys.executable, "-S", "-c", "pass"]
        _, code, rss_kb, _ = spawner.run(cmd, WORK / "pass.txt", 20.0)
        del ballast
    finally:
        spawner.close()
    expect(code == 0 and rss_kb < 32 << 10, "a child's max RSS is its own, not its parent's")


def main() -> int:
    if not (ROOT / "src" / "canonical_lie" / "cli.py").is_file():
        print("error: run from a canonical-lie checkout", file=sys.stderr)
        return 2
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    manifest = generator_checks()
    sweep_checks()
    enumerate_checks()
    matrix_checks(manifest)
    tracer_checks(manifest)
    spawner_checks()
    print(f"{failures} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
