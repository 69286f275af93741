"""The package needs numpy alone at run time, and its modules import across their boundaries only what they own."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import trtc


def fresh_run(code):
    # the lines code prints in a fresh interpreter, so modules imported by
    # the test run do not count, with this checkout's package first on the path
    src = str(Path(trtc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True).stdout.split("\n")


def test_import_does_not_load_scipy():
    out = fresh_run("import sys, trtc; print(trtc.__file__); print('scipy' in sys.modules)")
    assert Path(out[0]).resolve() == Path(trtc.__file__).resolve()
    assert out[1] == "False"


def test_first_synthesis_and_solve_import_no_module():
    # numpy loads numpy.random on first use; were that the first synthesis
    # or solve, the import would be timed as part of it
    out = fresh_run(
        "import sys, numpy as np, trtc, trtc.cli\n"
        "before = set(sys.modules)\n"
        "truth, mask = trtc.cli.synth_instance((4, 4, 4), (2, 2, 2), 0.3, 0)\n"
        "cfg = trtc.SolverConfig(tr_rank=(2, 2, 2), max_iters=3)\n"
        "trtc.solve_llrf(np.where(mask, truth, np.nan), mask, cfg)\n"
        "print(sorted(set(sys.modules) - before))"
    )
    assert out[0] == "[]"


def module_tree(module):
    return ast.parse(Path(trtc.__file__).with_name(f"{module}.py").read_text())


def imported_names(module, source):
    # the names a module of the package imports from its sibling `source`
    return {alias.name for node in ast.walk(module_tree(module))
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == source
            for alias in node.names}


def unread_imports(module):
    # the names a module binds by a module-level import and never reads,
    # leaving out those it exports through __all__
    tree = module_tree(module)
    bound = {(alias.asname or alias.name).split(".")[0] for node in tree.body
             if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    exported = {name for node in tree.body if isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)
                for name in ast.literal_eval(node.value)}
    return bound - read - exported


def test_ring_owns_the_sweep_layout():
    # the sweep's sides, transfer matrices and products stay inside trtc.ring:
    # the core update reads only the plain references, and the loop only the
    # terms the data sweep yields
    assert imported_names("prox", "ring") == {"_checked", "_subchain", "subchain_gram"}
    assert not imported_names("solvers", "ring") & {"transfer", "transfer_gram"}


def test_unread_imports_are_only_the_tracers(tracer_wrapped):
    # a module-level import that the module never reads is dead, unless the
    # tracer rebinds that name in that module (trtc.prox.gamma_fold and
    # trtc.prox.subchain_gram)
    for path in sorted(Path(trtc.__file__).parent.glob("*.py")):
        name = "trtc" if path.stem == "__init__" else f"trtc.{path.stem}"
        assert {(name, attr) for attr in unread_imports(path.stem)} <= tracer_wrapped, name
