"""The library quick start in README.md runs and prints what it says."""

import contextlib
import io
import os
import re

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def _first_python_block():
    with open(README, encoding="utf-8") as fh:
        match = re.search(r"```python\n(.*?)```", fh.read(), re.S)
    assert match, "README.md has no python block"
    return match.group(1)


def test_quick_start_prints_its_comments():
    # every print(...) line ends in "  # <the line it prints>"
    code = _first_python_block()
    expected = []
    for line in code.splitlines():
        if line.startswith("print("):
            assert "  # " in line, line
            expected.append(line.split("  # ", 1)[1])
    assert expected
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert out.getvalue().splitlines() == expected
