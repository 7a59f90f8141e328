"""The package's lazy re-exports, and the modules each gdz command loads."""

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import gdrazin


def fresh_python(code: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)


def test_every_name_is_the_defining_modules_object():
    assert gdrazin.__all__[-1] == "__version__" and gdrazin.__version__ == "0.1.0"
    for name in gdrazin.__all__[:-1]:
        obj = getattr(gdrazin, name)
        defining = importlib.import_module(f"gdrazin.{gdrazin._ORIGIN[name]}")
        assert obj is getattr(defining, name)
        # a class or function is re-exported from where it is defined
        assert getattr(obj, "__module__", defining.__name__) == defining.__name__


def test_star_import_and_dir_cover_all():
    namespace = {}
    exec("from gdrazin import *", namespace)
    assert set(gdrazin.__all__) <= set(namespace)
    assert set(gdrazin.__all__) <= set(dir(gdrazin))
    assert len(gdrazin.__all__) == len(set(gdrazin.__all__))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'gdrazin' has no attribute 'no_such_name'$"):
        gdrazin.no_such_name
    assert not hasattr(gdrazin, "no_such_name")


def test_import_gdrazin_loads_no_module_until_asked():
    proc = fresh_python(
        "import sys, gdrazin\n"
        "assert not [m for m in sys.modules if m.startswith('gdrazin.')], sys.modules\n"
        "assert gdrazin.casegen.generate is gdrazin.generate\n"
        "assert 'numpy.random' not in sys.modules\n"
    )
    assert proc.returncode == 0, proc.stderr


def test_patched_name_is_seen_through_the_package(monkeypatch):
    original = gdrazin.drazin.drazin_oracle

    def patched(*args, **kwargs):
        return original(*args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(gdrazin.drazin, "drazin_oracle", patched)
        assert gdrazin.drazin_oracle is patched
    # undoing the patch leaves nothing behind in the package
    assert gdrazin.drazin_oracle is original
    assert "drazin_oracle" not in vars(gdrazin)


def test_each_command_loads_only_what_it_runs():
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("check_imports.py"))],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
