"""README.md's Quick start runs as written and prints what it says it prints."""

import contextlib
import io
import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_prints_its_trailing_comment():
    found = re.search(r"^## Quick start\n\n```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert found, "README.md has no Quick start python block"
    block = found.group(1)
    last = block.rstrip().splitlines()[-1]
    assert last.startswith("print(") and "#" in last, last
    expected = last.rpartition("#")[2].strip()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, f"{README}:Quick start", "exec"), {"__name__": "readme_quick_start"})
    assert out.getvalue() == expected + "\n"
