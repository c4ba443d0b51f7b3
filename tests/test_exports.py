import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import clique_extremal
from clique_extremal.suite import CheckResult, SuiteReport

# the modules whose ``__all__`` the package re-exports
EXPORTED = ("bounds", "cliques", "constructions", "embed", "errors", "formats", "graph", "params")
# modules the package loads without exporting their names; cli and suite stay out
LOADED = ("limits",)

_DIR = "import clique_extremal, json; print(json.dumps(dir(clique_extremal)))"
_ENV = {**os.environ, "PYTHONPATH": str(Path(clique_extremal.__file__).resolve().parents[1])}

# every result record and its fields, in order
RECORDS = {
    clique_extremal.CliqueStats: ("count_including_empty", "count_nonempty", "clique_number"),
    clique_extremal.ParamReport: ("t_param", "witness", "delta", "sigma_lower", "sigma_upper"),
    clique_extremal.Certificate: ("kind", "terminals", "paths"),
    clique_extremal.VerificationResult: ("ok", "violations"),
    clique_extremal.BoundtValue: ("log2_cliques", "clique_number_bound"),
    clique_extremal.BoundResult: ("log2_bound", "case_tag", "c_value", "d_value", "slack_log2"),
    clique_extremal.RecursionCheck: ("passed", "failures"),
    CheckResult: ("name", "passed", "summary", "data", "seconds"),
    SuiteReport: ("seed", "quick", "results"),
}


def test_package_exports_exactly_the_modules_all():
    # a fresh interpreter, so no submodule that another test imported shows up
    done = subprocess.run([sys.executable, "-c", _DIR], env=_ENV, capture_output=True, text=True, timeout=30)
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


def test_the_cli_imports_neither_dataclasses_nor_inspect():
    # -S skips site, whose path hooks may import either; a record built by
    # dataclasses would generate and exec its methods at every import
    probe = "import sys, clique_extremal.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    done = subprocess.run([sys.executable, "-S", "-c", probe], env=_ENV, capture_output=True, text=True, timeout=30)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


@pytest.mark.parametrize("record", RECORDS, ids=lambda record: record.__name__)
def test_records_keep_their_fields_repr_and_immutability(record):
    fields = RECORDS[record]
    assert record._fields == fields
    value = record(*range(len(fields)))
    assert repr(value) == f"{record.__name__}(" + ", ".join(f"{f}={i}" for i, f in enumerate(fields)) + ")"
    # frozen: neither a field nor a new attribute can be assigned
    with pytest.raises(AttributeError):
        setattr(value, fields[0], -1)
    with pytest.raises(AttributeError):
        value.note = "x"
    assert value == tuple(range(len(fields)))


def test_record_defaults_and_methods():
    assert clique_extremal.BoundResult(1.0, "tag", 2.0, None).slack_log2 == 0.0
    assert not clique_extremal.VerificationResult(False, ("a violation",))
    assert clique_extremal.VerificationResult(True, ())
    check = CheckResult("name", True, "summary", {}, 0.0)
    assert SuiteReport(0, True, (check,)).passed
    assert not SuiteReport(0, True, (check, check._replace(passed=False))).passed
