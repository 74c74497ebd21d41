"""Every fenced python block of README.md runs, in order, in one namespace,
so the quick start cannot go stale."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def python_blocks():
    return re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)


def test_python_blocks_run():
    blocks = python_blocks()
    assert len(blocks) >= 2  # the quick start and the array forms
    namespace = {}
    for i, block in enumerate(blocks):
        exec(compile(block, f"{README.name}, python block {i + 1}", "exec"), namespace)
