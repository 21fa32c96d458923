"""The README's "Library" block runs, and its comments state what it returns."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text[text.index("\n## Library\n") :]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_block_runs_and_matches_its_comments():
    code = library_block()
    comments = ("# {-1: 3, 0: 4, 1: 3}:", "# ((-1, 3), (0, 4), (1, 3)):", "# [0, 1, 2]:")
    for comment in (*comments, "# 12 O(n) classes", "# .q, .nilradical, .series\n"):
        assert comment in code
    ns = {}
    exec(compile(code, str(README), "exec"), ns)
    assert ns["grade_dims"](ns["s"]) == {-1: 3, 0: 4, 1: 3}
    assert ns["verdict"].canonical and ns["verdict"].failing is None
    assert ns["verdict"].witness == ((-1, 3), (0, 4), (1, 3))
    assert ns["pd"]._fields == ("q", "nilradical", "series")
    assert sorted(ns["pd"].nilradical) == [0, 1, 2]
    assert len(ns["classes"]) == 12
