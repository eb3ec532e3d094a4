"""Importing the package must not pull in ``scipy.sparse.linalg``: that
import alone adds about 10 MB to the resident set of every run."""

import os
import subprocess
import sys
from pathlib import Path

import curladapt


def test_import_leaves_sparse_linalg_unloaded():
    src = str(Path(curladapt.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = "import sys, curladapt; print('scipy.sparse.linalg' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
