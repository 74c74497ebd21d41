"""Every fenced python block of README.md runs, in order, in one namespace,
so the quick start cannot go stale, and its command-line examples are the
ones tools/golden.py runs."""

import importlib.util
import pathlib
import re
import shlex

ROOT = pathlib.Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def python_blocks():
    return re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)


def test_python_blocks_run():
    blocks = python_blocks()
    assert len(blocks) >= 2  # the quick start and the array forms
    namespace = {}
    for i, block in enumerate(blocks):
        exec(compile(block, f"{README.name}, python block {i + 1}", "exec"), namespace)


def readme_commands():
    """The argv of each ucpscatter line of README's "Command line" sh block:
    \\ continuations joined, --out FILE dropped, and the `...` of a line
    filled in from the first command's arguments."""
    block = re.search(r"^## Command line\n\n```sh\n(.*?)^```$", README.read_text(),
                      re.M | re.S)[1]
    block = re.sub(r" --out \S+", "", block.replace("\\\n", " "))
    lines = [shlex.split(line, comments=True) for line in block.splitlines()]
    commands = [words[1:] for words in lines if words[:1] == ["ucpscatter"]]
    first = commands[0][1:]
    return [[words[0], *first, *words[2:]] if words[1:2] == ["..."] else words
            for words in commands]


def test_command_line_examples_are_the_golden_ones():
    spec = importlib.util.spec_from_file_location("golden", ROOT / "tools" / "golden.py")
    golden = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(golden)
    assert readme_commands() == [argv for _, argv in golden.README.values()]
