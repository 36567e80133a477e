import importlib
import subprocess
import sys

import pytest

import faasplan


@pytest.mark.parametrize("name", faasplan.__all__)
def test_export_is_the_submodule_attribute(name):
    module = importlib.import_module(f"faasplan.{faasplan._EXPORTS[name]}")
    assert getattr(faasplan, name) is getattr(module, name)


def test_star_import_and_dir_cover_every_export():
    namespace: dict = {}
    exec("from faasplan import *", namespace)
    assert set(faasplan.__all__) <= namespace.keys()
    assert set(faasplan.__all__) <= set(dir(faasplan))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="nosuch"):
        faasplan.nosuch  # noqa: B018


def test_import_loads_no_submodule():
    code = ("import sys, faasplan; faasplan.__version__; "
            "print(*sorted(m for m in sys.modules if m.startswith('faasplan.') or m == 'numpy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, check=True)
    assert proc.stdout.split() == []
