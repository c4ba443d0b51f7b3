import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import clique_extremal

# the modules whose ``__all__`` the package re-exports
EXPORTED = ("bounds", "cliques", "constructions", "embed", "errors", "formats", "graph", "params")
# modules the package loads without exporting their names; cli and suite stay out
LOADED = ("limits",)

_DIR = "import clique_extremal, json; print(json.dumps(dir(clique_extremal)))"


def test_package_exports_exactly_the_modules_all():
    # a fresh interpreter, so no submodule that another test imported shows up
    env = {**os.environ, "PYTHONPATH": str(Path(clique_extremal.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", _DIR], env=env, capture_output=True, text=True, timeout=30)
    assert done.returncode == 0, done.stderr
    public = {name for name in json.loads(done.stdout) if not name.startswith("_")}
    exported = set().union(*(importlib.import_module(f"clique_extremal.{m}").__all__ for m in EXPORTED))
    assert public == exported | set(EXPORTED) | set(LOADED)


def test_every_all_entry_resolves():
    for name in (*EXPORTED, "suite"):
        module = importlib.import_module(f"clique_extremal.{name}")
        missing = [entry for entry in module.__all__ if not hasattr(module, entry)]
        assert not missing, (name, missing)


def test_each_exported_name_is_its_modules_object():
    # two modules exporting one name would make the later star import win
    for name in EXPORTED:
        module = importlib.import_module(f"clique_extremal.{name}")
        for entry in module.__all__:
            assert getattr(clique_extremal, entry) is getattr(module, entry), f"{name}.{entry}"
