"""Every function in the package is reached by a CLI flow, or named here.

Through `cli.main` under `sys.setprofile`, the flows run:

- each of `test_golden.CASES` with `run` in place of the four trajectory
  commands (synth, run and eval);
- one `report` over CSV files those flows wrote;
- one malformed flag and one malformed trajectory line.

The test fails listing, with file:line, each module-level function and
class method of `src/kvacontrol/` that no flow called and `ALLOWED` does
not name. A test that calls a function does not keep it: code that no
command runs goes, together with its tests, or a command gets a use for it.

`python tests/test_reachability.py` prints the unreached names.
"""

import ast
import contextlib
import io
import os
import sys
import tempfile

from kvacontrol import cli
from test_golden import CASES, run_flow

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "kvacontrol")

ALLOWED = {
    # the reference form that the grad check's cp evaluator is tested against
    "priors.cp_loss",
    # the reference form that the grad check's src evaluator is tested against
    "priors.src_loss",
    # perfbench/worker.py reads lift's KVAF files through it
    "formats.read_field",
    # perfbench/worker.py reads a KVAF file's (H, W, 9) channels through it
    "kva_field.KvaField.channels",
}


def _functions():
    """{(path, first line): (qualified name, def line)} of each module-level
    function and class method; the first line is the first decorator's, as
    in the function's code object."""
    found = {}
    for module in sorted(os.listdir(PACKAGE)):
        if not module.endswith(".py"):
            continue
        path = os.path.realpath(os.path.join(PACKAGE, module))
        with open(path, encoding="utf-8") as f:
            tree = ast.parse(f.read())
        defs = [(node, module[:-3]) for node in tree.body]
        defs += [(item, f"{module[:-3]}.{node.name}") for node in tree.body
                 if isinstance(node, ast.ClassDef) for item in node.body]
        for node, scope in defs:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([node.lineno]
                            + [d.lineno for d in node.decorator_list])
                found[path, first] = (f"{scope}.{node.name}", node.lineno)
    return found


def _run_flows(root):
    """Run every flow under `root`; {id: code object} of the functions
    called."""
    called = {}

    def profile(frame, event, arg):
        if event == "call":
            called[id(frame.f_code)] = frame.f_code

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for i, (_, kwargs) in enumerate(CASES):
            os.makedirs(os.path.join(root, str(i)))
            run_flow(os.path.join(root, str(i)), commands=("run",), **kwargs)
        default = os.path.join(root, "0")
        inputs = [os.path.join(default, "run", "losses.csv"),
                  os.path.join(default, "eval", "metrics.csv")]
        assert cli.main(["--out", os.path.join(root, "report"), "report",
                         "--inputs", *inputs]) == 0
        bad = os.path.join(root, "bad.txt")
        with open(os.path.join(default, "target", "trajectory.txt"),
                  encoding="utf-8") as src, open(bad, "w", encoding="utf-8") as f:
            f.write(src.read() + "frame 9 0.0 0.0\n")
        with contextlib.redirect_stderr(io.StringIO()) as err:
            assert cli.main(["--seed", "x", "synth"]) == 1
            assert cli.main(["--out", os.path.join(root, "bad"), "run",
                             "--traj", bad]) == 1
        assert err.getvalue().count("error:") == 2
    finally:
        sys.setprofile(previous)
    return called


def unreached(root):
    """Sorted (file:line, qualified name) of each package function that no
    flow under `root` called."""
    reached = {(os.path.realpath(code.co_filename), code.co_firstlineno)
               for code in _run_flows(root).values()}
    return sorted((f"{os.path.relpath(path, ROOT)}:{line}", name)
                  for (path, first), (name, line) in _functions().items()
                  if (path, first) not in reached)


def test_every_function_is_reached_or_allowed(tmp_path):
    missed = unreached(tmp_path)
    names = {name for _, name in missed}
    defined = {name for name, _ in _functions().values()}
    assert sorted(ALLOWED - defined) == [], "ALLOWED names undefined functions"
    assert sorted(ALLOWED - names) == [], "ALLOWED names reached functions"
    extra = [f"{where}: {name}" for where, name in missed
             if name not in ALLOWED]
    assert not extra, "no CLI flow calls:\n" + "\n".join(extra)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for where, name in unreached(tmp):
            print(f"{where}: {name}" + (" (allowed)" if name in ALLOWED else ""))
