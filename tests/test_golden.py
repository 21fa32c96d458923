"""Golden CLI output: each recorded invocation reproduces its exit code,
stdout and stderr byte for byte.

`golden/cli.json` lists {"argv", "exit", "stdout", "stderr"} entries, run
from this directory so that matrix paths such as `golden/zero3.csv` resolve
to the committed fixtures beside it.  The set covers `verify` and
`enumerate`, `check --spectrum` and `check --matrix` under every method in
both formats, and the exit-2 input paths.
"""

import json
from pathlib import Path

import pytest

from canonical_lie.cli import main

HERE = Path(__file__).parent
ENTRIES = json.loads((HERE / "golden" / "cli.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "entry", ENTRIES, ids=[f"{i:03d}-{e['argv'][0]}" for i, e in enumerate(ENTRIES)]
)
def test_cli_output_matches_golden(entry, capsys, monkeypatch):
    monkeypatch.chdir(HERE)
    code = main(entry["argv"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (entry["exit"], entry["stdout"], entry["stderr"])
