"""The package needs nothing at run time beyond numpy and the stdlib, and
exports exactly its public names."""

import os
import subprocess
import sys
import types
from pathlib import Path

import unpredictable

CODE = """\
import sys
before = set(sys.modules)
import unpredictable
added = {name.partition(".")[0] for name in set(sys.modules) - before}
print(" ".join(sorted(added)))
"""


def test_import_adds_only_numpy_the_stdlib_and_the_package():
    # modules loaded before the import, such as site .pth hooks, are ignored
    src = Path(unpredictable.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", CODE], capture_output=True,
                         text=True, check=True, env=env, timeout=120)
    added = set(out.stdout.split())
    assert {"numpy", "unpredictable"} <= added
    assert added - sys.stdlib_module_names - {"numpy", "unpredictable"} == set()


def test_all_lists_every_public_name_once_in_order():
    exported = unpredictable.__all__
    public = {name for name, value in vars(unpredictable).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)}
    assert exported == sorted(set(exported))
    assert set(exported) == public
    namespace = {}
    exec("from unpredictable import *", namespace)
    assert all(namespace[name] is getattr(unpredictable, name)
               for name in exported)
