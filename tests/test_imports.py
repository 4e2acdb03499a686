"""What each import loads, and how the CLI binds the library names it calls.

`calogero` and `calogero.cli` import their modules on first use; the
benchmark's tracer wraps six of the CLI's names, so those must stay
attributes of `calogero.cli` that the handlers call through, bound to the
library function itself."""

import importlib
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

import calogero
import calogero.cli as cli
from calogero import factorization

_LOADED = """
import json, sys
{statements}
print(json.dumps(sorted(m for m in sys.modules if m.partition(".")[0] == "calogero")))
"""


def _loaded_by(statements: str) -> set[str]:
    """The package modules a fresh interpreter holds after the statements."""
    src = str(pathlib.Path(calogero.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", _LOADED.format(statements=statements)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


@pytest.mark.parametrize("statements, expected", [
    ("import calogero", {"calogero"}),
    ("import calogero.cli\ncalogero.cli.build_parser()", {"calogero", "calogero.cli", "calogero.errors"}),
])
def test_package_and_cli_load_only_what_they_name(statements, expected):
    assert _loaded_by(statements) == expected


@pytest.mark.parametrize("statements, module, absent", [
    ("import calogero.oracle", "oracle",
     {"spectral", "specfun", "factorization", "acceptance", "nonexistence"}),
    ("import calogero.spectral", "spectral", {"oracle", "taylor", "acceptance", "nonexistence"}),
    # a submodule is an attribute of the package before anything imports it
    ("import calogero\ncalogero.oracle.shoot_spectrum", "oracle",
     {"spectral", "specfun", "factorization", "acceptance", "nonexistence"}),
])
def test_a_module_loads_none_of_what_it_does_not_import(statements, module, absent):
    loaded = _loaded_by(statements)
    assert f"calogero.{module}" in loaded
    assert loaded.isdisjoint(f"calogero.{name}" for name in absent)


def test_star_import_binds_each_name_to_its_defining_module():
    namespace = {}
    exec("from calogero import *", namespace)
    names = [name for name in calogero.__all__ if name != "__version__"]
    assert namespace["__version__"] == calogero.__version__
    for name in names:
        obj = namespace[name]
        assert obj.__module__.startswith("calogero."), name
        assert obj is getattr(sys.modules[obj.__module__], name), name
    assert set(calogero.__all__) <= set(dir(calogero))
    with pytest.raises(AttributeError):
        getattr(calogero, "no_such_name")


def test_every_cli_name_resolves_to_its_module_object():
    # the handlers call 16 library names as `_cli.<name>`: the package's own
    # through `calogero._HOME`, and the six it does not export through
    # `cli._LAZY`
    called = set(re.findall(r"_cli\.(\w+)", pathlib.Path(cli.__file__).read_text()))
    assert len(called) == 16
    assert set(cli._LAZY) == called - set(calogero._HOME)
    for name in called:
        home = calogero._HOME.get(name) or cli._LAZY[name]
        assert getattr(cli, name) is getattr(importlib.import_module(f"calogero.{home}"), name), name
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        getattr(cli, "no_such_name")


# hooked name -> (its defining module, one request, calls at the CLI's name)
_HOOKED = {
    "spectrum": ("spectral", ["spectrum", "--g1", "0", "--g2", "1", "--nu", "0.7", "--n", "3"], 1),
    "shoot_spectrum": ("oracle", ["spectrum", "--g1", "0", "--g2", "1", "--nu", "1", "--n", "2",
                                  "--oracle", "on"], 1),
    "run_acceptance": ("acceptance", ["verify"], 1),
    "factorization_residual": ("factorization", ["factorize-check"],
                               len(factorization._PROBES) * len(factorization._RESIDUAL_ZS)),
    "count_zeros": ("nonexistence", ["nonexistence", "--g1", "-1.25", "--g2", "1"], 1),
    "make_phi": ("factorization", ["factorize-check"], 1),
}


@pytest.mark.parametrize("name", sorted(_HOOKED))
def test_hooked_names_are_the_library_functions_called_through_the_cli(name, monkeypatch, capsys):
    home_name, argv, expected = _HOOKED[name]
    home = importlib.import_module(f"calogero.{home_name}")
    assert getattr(cli, name) is getattr(home, name)

    def counting(fn, tally):
        def wrapper(*args, **kwargs):
            tally.append(1)
            return fn(*args, **kwargs)
        return wrapper

    at_cli, at_home = [], []
    monkeypatch.setattr(cli, name, counting(getattr(cli, name), at_cli))
    monkeypatch.setattr(home, name, counting(getattr(home, name), at_home))
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert (len(at_cli), len(at_home)) == (expected, 0)
