"""tools/codelines.py counts code lines only: no blank, comment or docstring line."""

import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("codelines", ROOT / "tools" / "codelines.py")
codelines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(codelines)

SOURCE = '''"""The module's docstring,
on two lines."""

# a comment
x = 1  # a comment after code


class A:
    """A class docstring."""

    def f(self):
        """A function docstring,
        on two lines."""
        s = """a string that is no docstring,
        on two lines"""
        return {
            # a comment inside a statement
            1: s,
        }
'''


def test_only_code_lines_are_counted():
    # x, class, def, the string's two lines, and the return's three
    assert codelines.code_lines(SOURCE) == 8


def test_a_module_of_docstring_and_comments_has_no_code():
    assert codelines.code_lines('"""Only a docstring."""\n\n# and a comment\n') == 0
