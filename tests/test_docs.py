"""The README's library example runs as written and prints what it documents."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_block():
    text = README.read_text()
    section = text[text.index("\n## Library\n"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_example_runs(capsys):
    exec(compile(_library_block(), str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert f"{float(lines[0]):.1e}" == "2.8e-04"       # l2_relative_error
    assert f"{float(lines[2]):.1e}" == "6.1e-04"       # best_approximation_error
    assert lines[3] == "2.25 -1.75"                    # the linear profile's (E, H)
