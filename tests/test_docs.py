"""The README's library example runs as written and prints what it documents,
its config defaults are the ones the package applies, its diagnostics are
the ones validate prints, and the code and tests it names exist, as does
the code the package's docstrings name."""

import dataclasses
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import trefftzdg
from trefftzdg import config

README = Path(__file__).resolve().parents[1] / "README.md"
TESTS = Path(__file__).resolve().parent


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


def _resolves(name, modules, classes):
    """Whether a dotted name that starts with a module or public class of
    trefftzdg names something there: each part an attribute of the one
    before, or a dataclass field. A module's name may stand for an object
    of its class of that name, as mesh.constant for a Mesh's."""
    head, *parts = name.split(".")
    owners = [modules.get(head), classes.get(head), classes.get(head.capitalize())]
    for owner in filter(None, owners):
        for part in parts:
            fields = dataclasses.fields(owner) if dataclasses.is_dataclass(owner) else ()
            if not hasattr(owner, part) and part not in {f.name for f in fields}:
                break
            owner = getattr(owner, part, None)
        else:
            return True
    return False


def _package():
    """trefftzdg's modules and public classes, by name."""
    modules = {m.name: importlib.import_module(f"trefftzdg.{m.name}")
               for m in pkgutil.iter_modules(trefftzdg.__path__)}
    classes = {name: obj for module in modules.values() for name, obj in vars(module).items()
               if isinstance(obj, type) and obj.__module__.startswith("trefftzdg.")
               and not name.startswith("_")}
    return modules, classes


def test_readme_names_only_code_and_tests_that_exist():
    # the backticked names that start with a trefftzdg module or public class
    # (a call's arguments dropped), and every test_* name; config keys and
    # file names are not code
    modules, classes = _package()
    tests = "".join(path.read_text() for path in TESTS.glob("test_*.py"))
    names = {match.group(1) for match in (
        re.fullmatch(r"(\w+(?:\.\w+)*)(\(.*\))?", token)
        for token in re.findall(r"`([^`\n]+)`", README.read_text())) if match}
    checked, missing = 0, []
    for name in sorted(names - set(config.DEFAULTS)):
        head, suffix = name.split(".")[0], name.rpartition(".")[2]
        if head.startswith("test_"):
            found = (TESTS / f"{name}.py").exists() or re.search(rf"^def {name}[(_]", tests, re.M)
        elif suffix in ("py", "md", "csv", "cfg", "svg") or (
                head not in modules and head not in classes):
            continue
        else:
            found = _resolves(name, modules, classes)
        checked += 1
        if not found:
            missing.append(name)
    assert checked >= 40 and not missing, missing


def _docstrings(module):
    """The docstrings of a module, its classes and functions, and theirs."""
    docs, owners = [module.__doc__], [module]
    while owners:
        for obj in vars(owners.pop()).values():
            obj = getattr(obj, "__func__", getattr(obj, "fget", obj))
            if (inspect.isclass(obj) or inspect.isfunction(obj)) and (
                    obj.__module__ == module.__name__):
                docs.append(obj.__doc__)
                if inspect.isclass(obj):
                    owners.append(obj)
    return [doc for doc in docs if doc]


def test_docstrings_name_only_code_that_exists():
    # every dotted name in the package's docstrings that starts with a
    # trefftzdg module or public class; config keys and file names are not code
    modules, classes = _package()
    text = "\n".join(doc for module in modules.values() for doc in _docstrings(module))
    names = set(re.findall(r"\b[A-Za-z_]\w*(?:\.\w+)+", text)) - set(config.DEFAULTS)
    checked, missing = 0, []
    for name in sorted(names):
        head, suffix = name.split(".")[0], name.rpartition(".")[2]
        if suffix in ("py", "md", "csv", "cfg", "svg") or (
                head not in modules and head not in classes):
            continue
        checked += 1
        if not _resolves(name, modules, classes):
            missing.append(name)
    assert checked >= 15 and not missing, missing
