"""The README's library example runs as written and prints what it documents,
its config defaults are the ones the package applies, and its diagnostics
are the ones validate prints."""

import re
from pathlib import Path

from trefftzdg import config

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


def test_readme_defaults_block_is_config_defaults():
    text = README.read_text()
    section = text[text.index("\n## Config format\n"):]
    block = re.search(r"```ini\n(.*?)```", section, re.S).group(1)
    values = config.parse_config_text(block, "README.md")
    assert sorted(values) == sorted(config.DEFAULTS)
    for key, value in values.items():
        assert config._canonical(key, value) == config.DEFAULTS[key], key


def test_readme_diagnostics_block_is_what_validate_prints():
    text = README.read_text()
    section = text[text.index("Each diagnostic\nnames the config keys"):]
    block = re.search(r"```text\n(.*?)```", section, re.S).group(1)
    # the sweep the paragraph states: h = 2, 1, delta = 2, a breakpoint at 10.5
    cfg = config.ExperimentConfig.defaults().override([
        "experiment.kind=sweep_h", "experiment.h_values=2,1", "flux.delta=2",
        "materials.breakpoints=10.5", "materials.eps=1,2", "materials.mu=1,1"])
    assert block.splitlines() == config.validate(cfg)
