"""The package needs nothing at run time beyond numpy and the stdlib,
exports exactly its public names, and names the encoding of every text file
it opens and of every decode."""

import ast
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


def _calls(name):
    """(file, line, call) for every call of ``name`` in the package."""
    src = Path(unpredictable.__file__).resolve().parent
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and name == getattr(
                    node.func, "id", getattr(node.func, "attr", None)):
                yield path.name, node.lineno, node


def _keyword_or_arg(call, keyword, position):
    """The node passed as ``keyword`` or at ``position``, else None."""
    for k in call.keywords:
        if k.arg == keyword:
            return k.value
    return call.args[position] if len(call.args) > position else None


def test_every_file_call_names_its_encoding():
    # without one, text files are read and written in the locale's encoding;
    # a binary-mode open must have none (passing one raises ValueError), and
    # only a literal mode shows that it is binary
    wrong = []
    # the position of the encoding argument in each signature
    for name, position in (("open", 3), ("read_text", 0), ("write_text", 1)):
        for file, line, call in _calls(name):
            mode = _keyword_or_arg(call, "mode", 1) if name == "open" else None
            binary = (isinstance(mode, ast.Constant)
                      and isinstance(mode.value, str) and "b" in mode.value)
            named = _keyword_or_arg(call, "encoding", position) is not None
            if named == binary:
                wrong.append(f"{file}:{line} {name}")
    assert wrong == []


def test_every_decode_names_its_codec():
    # bytes.decode() without a codec means UTF-8, but say so
    unnamed = [f"{file}:{line}" for file, line, call in _calls("decode")
               if _keyword_or_arg(call, "encoding", 0) is None]
    assert unnamed == []
