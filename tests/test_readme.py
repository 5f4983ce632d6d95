"""Every python block of README.md runs against the current API."""

import contextlib
import io
import pathlib
import re

import pytest

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text("utf-8"),
                    re.MULTILINE | re.DOTALL)


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_block_runs(index):
    code = compile(BLOCKS[index], f"README.md python block {index}", "exec")
    with contextlib.redirect_stdout(io.StringIO()):
        exec(code, {"__name__": "__readme__"})
