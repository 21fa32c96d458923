"""Benchmark of the canonical-lie CLI: end-to-end metrics and traced per-layer metrics.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload {sweep,enumerate,matrix} --seed N --seconds S --trace {0,1}

Each request is one CLI process (`python3 -m canonical_lie ...` on the
checkout's `src/`), sent by one client in a closed loop: the next request
starts when the previous one has exited.  A pass sends the workload's request
list once; the run repeats passes while the next one is expected to end
within S seconds.  Every answer is checked against the benchmark's own
oracle (oracle.py); a crash, a timeout, a wrong exit code or a wrong answer
counts as a failed request.  A timeout also ends the run, so a program that
hangs costs one timeout, not one per request.

Times in the end-to-end metrics are normalised to a reference machine speed.
The host's speed swings by up to a factor of two for seconds to minutes at a
time (other tenants share its cores and caches), so after every request the
run times a fixed stdlib-only calibration process (CALIBRATION), and each
wall time is scaled by CAL_REF_S / (mean of the calibrations just before and
just after it).  Raw wall-time metrics are kept in the detail line and
result.json.  Every child process is started by spawner.py, so that its max
RSS is its own.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced
passes with passes run through tracer.py and prints the per-layer metrics.
The last line of stdout is the result: {"correct", "attempted", "failed",
"metrics"}.  The line before it, and .perfbench/<workload>-<seed>-<trace>/
result.json, record the environment and the samples.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen_matrix  # noqa: E402
import oracle  # noqa: E402
from tracer import layer_metrics  # noqa: E402

SWEEP_MAX_N = 7
SWEEP_MAX_HALF = 7  # magnitudes up to 7/2
ENUMERATE_N = 9
SETUP_FIRST = 3  # set-up samples before the first pass
SETUP_EVERY_S = 2.5  # a checkpoint takes a set-up sample when the last is this long ago
CAL_REF_S = 0.1  # the calibration process's time on the reference host (2-vCPU
# x86-64 VM, Python 3.11.7) in a fast phase: a normalised time reads close to wall
# seconds there
TIMEOUT_S = {"sweep": 120.0, "enumerate": 120.0, "matrix": 20.0}


@dataclass
class Request:
    args: list[str]
    items: int  # spectra decided, classes listed or matrices decided
    check: Callable[[int, str], list[str]]


@dataclass
class Outcome:
    start: float  # perf_counter at spawn
    wall: float
    maxrss_kb: int
    problems: list[str]
    timed_out: bool = False
    trace: dict | None = None  # SPANS.json of a traced request


def plan(workload: str, seed: int, work: Path) -> list[Request]:
    """The request list of one pass.  `sweep` and `enumerate` are single fixed
    requests, so the seed changes nothing there; `matrix` files are generated
    from the seed here, before any timing."""
    if workload == "sweep":
        items = sum(len(oracle.spectra(n, SWEEP_MAX_HALF)) for n in range(3, SWEEP_MAX_N + 1))
        args = ["verify", "--max-n", str(SWEEP_MAX_N)]
        args += ["--max-lambda", f"{SWEEP_MAX_HALF}/2", "--format", "json"]
        return [
            Request(
                args,
                items,
                lambda code, out: oracle.check_sweep(code, out, SWEEP_MAX_N, SWEEP_MAX_HALF),
            )
        ]
    if workload == "enumerate":
        return [
            Request(
                ["enumerate", "--n", str(ENUMERATE_N), "--format", "json"],
                len(oracle.canonical_classes(ENUMERATE_N)),
                lambda code, out: oracle.check_enumerate(code, out, ENUMERATE_N),
            )
        ]
    inputs = work / "inputs"
    requests = []
    for entry in gen_matrix.generate(seed, inputs):
        path = str((inputs / entry["file"]).relative_to(Path.cwd()))
        requests.append(
            Request(
                ["check", "--matrix", path, "--format", "json"],
                1,
                lambda code, out, spectrum=entry["spectrum"]: oracle.check_matrix(
                    code, out, spectrum
                ),
            )
        )
    return requests


# The calibration process: a fixed stand-in for a request, stdlib only, so no
# change to the program moves its time.  Like a request it starts Python,
# imports modules and then does exact Fraction arithmetic keyed in a dict.
CALIBRATION = """
import argparse, json
from fractions import Fraction
table = {}
for i in range(10000):
    table[(i % 211, i // 211)] = Fraction(i % 13 - 6, i % 17 + 1) * Fraction(3, 7) + Fraction(1, 3)
json.dumps(sorted(map(str, table.values())))
"""


def child_env(root: Path) -> dict[str, str]:
    """The caller's environment without CANONICAL_LIE_THREADS (so `verify`
    stays serial) or any PYTHON* setting, plus the checkout's sources."""
    env = {
        k: v
        for k, v in os.environ.items()
        if not k.startswith("PYTHON") and k != "CANONICAL_LIE_THREADS"
    }
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


class Spawner:
    """Client of spawner.py, which starts and times every child process, so
    that a child's max RSS is its own and not this process's size."""

    def __init__(self, env: dict[str, str]):
        cmd = [sys.executable, "-S", str(HERE / "spawner.py")]
        pipe = subprocess.PIPE
        self.proc = subprocess.Popen(cmd, stdin=pipe, stdout=pipe, env=env, text=True)

    def run(self, cmd: list[str], out: Path, timeout: float) -> tuple[float, int, int, bool]:
        """Run one process to completion: (wall s, exit code, max RSS KB, timed out)."""
        self.proc.stdin.write(json.dumps([cmd, str(out), timeout]) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the spawner process ended")
        wall, code, rss, timed_out = json.loads(line)
        return wall, code, rss, timed_out

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


class Runner:
    def __init__(self, root: Path, work: Path, workload: str):
        self.work = work
        self.spawner = Spawner(child_env(root))
        self.timeout = TIMEOUT_S[workload]
        self.setup_walls: list[tuple[float, float]] = []  # (start, wall)
        self.calibrations: list[tuple[float, float]] = []  # (start, seconds)
        self.last_setup = perf_counter()

    def cli(self, args: list[str], out: Path):
        return self.spawner.run([sys.executable, "-m", "canonical_lie", *args], out, self.timeout)

    def request(self, idx: int, req: Request, traced: bool) -> Outcome:
        out = self.work / f"out{idx:03d}.json"
        spans_path = self.work / f"spans{idx:03d}.json"
        start = perf_counter()
        if traced:
            cmd = [sys.executable, str(HERE / "tracer.py"), str(spans_path), *req.args]
            wall, code, rss, timed_out = self.spawner.run(cmd, out, self.timeout)
        else:
            wall, code, rss, timed_out = self.cli(req.args, out)
        if timed_out:
            return Outcome(start, wall, rss, [f"timed out after {wall:.1f} s"], timed_out=True)
        problems = req.check(code, out.read_text(encoding="utf-8"))
        trace = json.loads(spans_path.read_text()) if traced and not problems else None
        return Outcome(start, wall, rss, problems, trace=trace)

    def sample_setup(self) -> None:
        """Time one fresh CLI process that imports the package and exits
        (`--help`): the start-up every request pays."""
        start = perf_counter()
        wall, code, _, timed_out = self.cli(["--help"], self.work / "help.txt")
        if code != 0 or timed_out:
            raise RuntimeError(f"`canonical_lie --help` exited with {code}")
        self.setup_walls.append((start, wall))

    def calibrate(self) -> None:
        start = perf_counter()
        cmd = [sys.executable, "-c", CALIBRATION]
        wall, code, _, timed_out = self.spawner.run(cmd, self.work / "calibration.txt", 20.0)
        if code != 0 or timed_out:
            raise RuntimeError(f"the calibration process exited with {code}")
        self.calibrations.append((start, wall))

    def checkpoint(self, setup: bool = False) -> None:
        """A calibration; when `setup` is set or a set-up sample is due, a
        calibration, a set-up sample and a calibration, so that calibrations
        lie right on either side of the set-up sample."""
        if setup or perf_counter() - self.last_setup >= SETUP_EVERY_S:
            self.calibrate()
            self.sample_setup()
            self.last_setup = perf_counter()
        self.calibrate()

    def scale(self, start: float) -> float:
        """CAL_REF_S over the mean of the calibrations on either side of a
        process that started at `start` (the nearest one at the ends)."""
        before = [c for t, c in self.calibrations if t <= start]
        after = [c for t, c in self.calibrations if t > start]
        near = before[-1:] + after[:1]
        return CAL_REF_S / statistics.fmean(near)

    def run_pass(self, requests: list[Request], traced: bool, sample_setup: bool) -> list[Outcome]:
        """One pass; with `sample_setup`, a checkpoint follows every request, so
        setup_s and the calibrations see the same machine as the requests."""
        outcomes = []
        for i, req in enumerate(requests):
            outcomes.append(self.request(i, req, traced))
            for p in outcomes[-1].problems:
                print(f"FAIL {' '.join(req.args)}: {p}", file=sys.stderr)
            if outcomes[-1].timed_out:
                break
            if sample_setup:
                self.checkpoint()
        return outcomes


def build(root: Path, env: dict) -> None:
    """Byte-compile the package from source; the run uses these caches."""
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(root / "src" / "canonical_lie")],
        env=env,
        check=True,
        stdout=subprocess.DEVNULL,
    )


def warm_up(runner: Runner) -> None:
    """One small untimed request through every layer and one untimed `--help`,
    so bytecode caches and the file cache are filled before timing."""
    spectrum = '{"n": 4, "entries": [{"lambda": "1/2", "mult": 2}]}'
    out = runner.work / "warmup.json"
    _, code, _, _ = runner.cli(["check", "--spectrum", spectrum, "--format", "json"], out)
    if code != 0:
        raise RuntimeError(f"warm-up request exited with {code}")
    runner.sample_setup()
    runner.setup_walls.clear()


def environment(root: Path) -> dict:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")) + [root / "pyproject.toml"]:
        if path.is_file():
            digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (root / ".git").exists() and shutil.which("git"):
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True)
        commit = got.stdout.decode().strip() or None
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def p90(values: list[float]) -> float:
    """The 90th percentile (inclusive method) of the samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(
    runner: Runner, requests: list[Request], passes: list[list[Outcome]], normalise: bool
) -> dict:
    """The end-to-end metrics, from wall times scaled by `runner.scale` when
    `normalise` is set, from raw wall times otherwise."""

    def time(start: float, wall: float) -> float:
        return wall * runner.scale(start) if normalise else wall

    items = sum(r.items for r in requests)
    walls = [time(oc.start, oc.wall) for p in passes for oc in p]
    per_pass = [sum(time(oc.start, oc.wall) for oc in p) for p in passes]
    return {
        "setup_s": statistics.median(time(t, w) for t, w in runner.setup_walls),
        "items_per_s": statistics.median(items / s for s in per_pass),
        "latency_p50_s": statistics.median(walls),
        "latency_p90_s": p90(walls),
        "peak_rss_mb": max(oc.maxrss_kb for p in passes for oc in p) / 1024,
    }


def per_layer(untraced: list[list[Outcome]], traced: list[list[Outcome]], error_rate: float):
    no_spans = {"own_s": 0.0, "spans": []}  # a failed traced request kept none
    by_pass = [layer_metrics([(oc.wall, oc.trace or no_spans) for oc in p]) for p in traced]
    out = {k: statistics.median(m[k] for m in by_pass) for k in by_pass[0]}
    out["trace.overhead_s"] = statistics.median(
        sum(oc.wall for oc in p) for p in traced
    ) - statistics.median(sum(oc.wall for oc in p) for p in untraced)
    out["error_rate"] = error_rate
    return out


def declared_units(root: Path, trace: int) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json declares for this mode."""
    bench = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(TIMEOUT_S), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "canonical_lie" / "cli.py").is_file():
        print("error: no src/canonical_lie/cli.py; run from a checkout", file=sys.stderr)
        return 2
    work = root / ".perfbench" / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(root, work, args.workload)
    try:
        return measure(args, root, work, runner)
    finally:
        runner.spawner.close()


def measure(args: argparse.Namespace, root: Path, work: Path, runner: Runner) -> int:
    try:
        build(root, child_env(root))
        requests = plan(args.workload, args.seed, work)
        warm_up(runner)
        for _ in range(0 if args.trace else SETUP_FIRST):
            runner.checkpoint(setup=True)
    except (RuntimeError, subprocess.CalledProcessError) as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 2

    untraced: list[list[Outcome]] = []
    traced: list[list[Outcome]] = []
    def hung() -> bool:
        return any(oc.timed_out for p in untraced[-1:] + traced[-1:] for oc in p)

    # Passes run while the next one is expected to end within --seconds, so a
    # run lasts about --seconds however long a pass takes; there is always one.
    start = perf_counter()
    while True:
        untraced.append(runner.run_pass(requests, False, sample_setup=not args.trace))
        if args.trace and not hung():
            traced.append(runner.run_pass(requests, True, sample_setup=False))
        elapsed = perf_counter() - start
        if hung() or elapsed * (len(untraced) + 1) / len(untraced) > args.seconds:
            break

    every = [oc for p in untraced + traced for oc in p]
    failed = sum(bool(oc.problems) for oc in every)
    raw = None
    t0 = runner.calibrations[0][0] if runner.calibrations else start
    if args.trace:
        values = per_layer(untraced, traced or [[]], failed / len(every))
    else:
        values = end_to_end(runner, requests, untraced, normalise=True)
        raw = end_to_end(runner, requests, untraced, normalise=False)
    units = declared_units(root, args.trace)
    if set(values) != set(units):
        odd = sorted(set(values) ^ set(units))
        raise RuntimeError(f"metrics {odd} disagree with BENCHMARK.json")
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(root),
        "passes": len(untraced),
        "traced_passes": len(traced),
        "samples": len(untraced) * len(requests),
        "setup_samples": len(runner.setup_walls),
        # [start s, wall s] of each calibration, set-up sample and request,
        # the starts counted from the first calibration
        "calibrations": [[t - t0, c] for t, c in runner.calibrations],
        "setup_walls": [[t - t0, w] for t, w in runner.setup_walls],
        "request_walls": [[[oc.start - t0, oc.wall] for oc in p] for p in untraced],
        "metrics": values,
        "raw_wall_metrics": raw,
    }
    (work / "result.json").write_text(json.dumps(detail, indent=1) + "\n")
    summary = ("environment", "passes", "samples", "setup_samples", "raw_wall_metrics")
    print(json.dumps({k: detail[k] for k in summary}))
    result = {
        "correct": failed == 0,
        "attempted": len(every),
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
