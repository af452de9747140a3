"""The README's library quick start runs as printed."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).parents[1] / "README.md"


def quick_start_block() -> str:
    text = README.read_text()
    section = text[text.index("## Library quick start"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_quick_start_prints_its_commented_outputs():
    block = quick_start_block()
    for comment in ("# (13,split,5) 12 False", "# (13,split,8) 6 False", "# 5 4"):
        assert comment in block
    namespace = {}
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        exec(compile(block, str(README), "exec"), namespace)
    lines = stdout.getvalue().splitlines()
    assert lines[:3] == ["(13,split,5) 12 False", "(13,split,8) 6 False", "5 4"]
    assert lines[-1] == "True"
    assert namespace["outcome"].passed
