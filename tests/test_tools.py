"""The code-line counter, tools/code_lines.py, whose counts the docs quote,
and the command list of tools/same_bytes.py, whose length the README quotes."""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load_tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


code_lines = _load_tool("code_lines")
same_bytes = _load_tool("same_bytes")


def test_docstrings_comments_and_blank_lines_are_not_counted():
    source = '''"""Module docstring
over two lines."""

# a comment line
    # an indented comment line


def f():
    """Function docstring."""
    # a comment inside the body


class C:
    """Class docstring,
    over two lines."""

    async def g(self):
        """Coroutine docstring."""
'''
    # Only `def f():`, `class C:` and `async def g(self):` hold code.
    assert code_lines.code_lines(source) == 3


def test_line_with_code_and_trailing_comment_is_counted():
    assert code_lines.code_lines("# heading\nx = 1  # trailing note\n") == 1


def test_every_line_of_a_multi_line_expression_is_counted():
    source = "total = (\n    1\n    + 2  # two\n\n    + 3\n)\n"
    # The blank line inside the parentheses holds no token.
    assert code_lines.code_lines(source) == 5


def test_string_that_is_not_a_docstring_is_counted():
    source = 'def f():\n    x = 1\n    """After a statement: an expression, not a docstring."""\n'
    assert code_lines.code_lines(source) == 3
    assert code_lines.code_lines('NAME = """one\ntwo"""\n') == 2


def test_total_is_the_sum_of_the_module_counts(tmp_path, capsys):
    package = tmp_path / "src" / "sortlab"
    (package / "report").mkdir(parents=True)
    (package / "a.py").write_text('"""Doc."""\n\nx = 1\ny = 2  # note\n')
    (package / "report" / "b.py").write_text("def f():\n    return 3\n")
    (package / "report" / "__init__.py").write_text("")
    assert code_lines.main(tmp_path) == 0
    assert capsys.readouterr().out.splitlines() == [
        "    2  a.py",
        "    0  report/__init__.py",
        "    2  report/b.py",
        "    4  total",
    ]


def test_printed_total_of_this_package_is_the_sum_of_its_modules():
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "code_lines.py")],
        capture_output=True,
        text=True,
        check=True,
    )
    *modules, total = [line.split() for line in done.stdout.splitlines()]
    assert total[1] == "total"
    assert {name for _, name in modules} >= {"polyfit.py", "report/cli.py"}
    assert int(total[0]) == sum(int(count) for count, _ in modules)


def test_readme_quotes_the_same_bytes_command_count():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    quoted = re.findall(r"runs\s+(\d+)\s+fixed\s+CLI\s+commands", readme)
    assert quoted == [str(len(same_bytes.COMMANDS))]
