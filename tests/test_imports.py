"""The package needs numpy alone at run time, and its modules import across their boundaries only what they own."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import trtc


def test_import_does_not_load_scipy():
    # a fresh interpreter, so modules imported by the test run do not count
    src = str(Path(trtc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, trtc; print(trtc.__file__); print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True).stdout.split("\n")
    assert Path(out[0]).resolve() == Path(trtc.__file__).resolve()
    assert out[1] == "False"


def imported_names(module, source):
    # the names a module of the package imports from its sibling `source`
    tree = ast.parse(Path(trtc.__file__).with_name(f"{module}.py").read_text())
    return {alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == source
            for alias in node.names}


def test_ring_owns_the_sweep_layout():
    # the sweep's sides, transfer matrices and products stay inside trtc.ring:
    # the core update reads only the plain references, and the loop only the
    # terms the data sweep yields
    assert imported_names("prox", "ring") == {"_checked", "subchain", "subchain_gram"}
    assert not imported_names("solvers", "ring") & {"transfer", "transfer_gram"}
