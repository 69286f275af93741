"""The package needs numpy alone at run time."""

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
