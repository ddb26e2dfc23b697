"""Every function and dataclass field in the package is reached by a CLI
flow, or named here.

The flows run through `cli.main`:

- each of `test_golden.CASES` with `run` in place of the four trajectory
  commands (synth, run and eval);
- one `report` over CSV files those flows wrote;
- one malformed flag and one malformed trajectory line.

They run once, under `sys.setprofile` to record the functions called, and
with `__getattribute__` of every dataclass of `src/kvacontrol/` patched to
record the fields read (and restored afterwards). A read from a dunder
method such as `__init__`, `__post_init__`, `__eq__` or `__repr__`, or from
the `dataclasses` module, does not count.

One test fails listing, with file:line, each module-level function and
class method that no flow called and `ALLOWED` does not name; the other
each `module.Class.field` that no flow read and `ALLOWED_FIELDS` does not
name. A test that calls a function or reads a field does not keep it: code
and data that no command uses go, together with their tests, or a command
gets a use for them.

`python tests/test_reachability.py` prints the unreached functions, then
the unread fields.
"""

import ast
import contextlib
import dataclasses
import importlib
import io
import os
import sys
import tempfile

import pytest

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

ALLOWED_FIELDS = {
    # perfbench's tracer reads it for its metrics.skipped_cd counter
    "metrics.MetricsReport.skipped_cd",
}

# methods whose field reads do not count: generated by dataclasses, or run
# while an instance is built
IGNORED_READERS = {"__init__", "__post_init__", "__eq__", "__repr__",
                   "__hash__"}


def _modules():
    """(short name, path, parsed tree) of each package module."""
    for module in sorted(os.listdir(PACKAGE)):
        if module.endswith(".py"):
            path = os.path.realpath(os.path.join(PACKAGE, module))
            with open(path, encoding="utf-8") as f:
                yield module[:-3], path, ast.parse(f.read())


def _functions():
    """{(path, first line): (qualified name, def line)} of each module-level
    function and class method; the first line is the first decorator's, as
    in the function's code object."""
    found = {}
    for module, path, tree in _modules():
        defs = [(node, module) for node in tree.body]
        defs += [(item, f"{module}.{node.name}") for node in tree.body
                 if isinstance(node, ast.ClassDef) for item in node.body]
        for node, scope in defs:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([node.lineno]
                            + [d.lineno for d in node.decorator_list])
                found[path, first] = (f"{scope}.{node.name}", node.lineno)
    return found


def _dataclasses():
    """{class: (qualified class name, {field: (path, line)})} of each
    dataclass defined in the package."""
    found = {}
    for module, path, tree in _modules():
        namespace = vars(importlib.import_module(f"kvacontrol.{module}"))
        for node in tree.body:
            cls = namespace[node.name] if isinstance(node, ast.ClassDef) else None
            if not dataclasses.is_dataclass(cls):
                continue
            lines = {item.target.id: item.lineno for item in node.body
                     if isinstance(item, ast.AnnAssign)}
            where = os.path.relpath(path, ROOT)
            found[cls] = (f"{module}.{node.name}",
                          {f.name: (where, lines[f.name])
                           for f in dataclasses.fields(cls)})
    return found


@contextlib.contextmanager
def _recording_reads(classes, read):
    """Add "module.Class.field" to `read` for each field read outside
    `IGNORED_READERS` and the dataclasses module while the block runs."""

    def recorder(qualified, fields):
        def __getattribute__(self, name):
            if name in fields:
                caller = sys._getframe(1)
                if (caller.f_code.co_name not in IGNORED_READERS
                        and caller.f_globals.get("__name__") != "dataclasses"):
                    read.add(f"{qualified}.{name}")
            return object.__getattribute__(self, name)
        return __getattribute__

    for cls, (qualified, fields) in classes.items():
        assert "__getattribute__" not in vars(cls), qualified
        cls.__getattribute__ = recorder(qualified, set(fields))
    try:
        yield
    finally:
        for cls in classes:
            del cls.__getattribute__


def _flows(root):
    """Run every flow under `root`."""
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


def missed(root):
    """(unreached, unread): sorted ((path, line), qualified name) of each
    package function that no flow under `root` called, and of each
    dataclass field that none read."""
    called, read = {}, set()

    def profile(frame, event, arg):
        if event == "call":
            called[id(frame.f_code)] = frame.f_code

    classes = _dataclasses()
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        with _recording_reads(classes, read):
            _flows(root)
    finally:
        sys.setprofile(previous)
    reached = {(os.path.realpath(code.co_filename), code.co_firstlineno)
               for code in called.values()}
    unreached = sorted(((os.path.relpath(path, ROOT), line), name)
                       for (path, first), (name, line) in _functions().items()
                       if (path, first) not in reached)
    unread = sorted((where, f"{qualified}.{field}")
                    for qualified, fields in classes.values()
                    for field, where in fields.items()
                    if f"{qualified}.{field}" not in read)
    return unreached, unread


@pytest.fixture(scope="module")
def flows(tmp_path_factory):
    return missed(tmp_path_factory.mktemp("flows"))


def _check(found, allowed, defined, what):
    names = {name for _, name in found}
    assert sorted(allowed - defined) == [], f"the allowlist names undefined {what}"
    assert sorted(allowed - names) == [], f"the allowlist names {what} a flow uses"
    extra = [f"{path}:{line}: {name}" for (path, line), name in found
             if name not in allowed]
    assert not extra, f"no CLI flow uses these {what}:\n" + "\n".join(extra)


def test_every_function_is_reached_or_allowed(flows):
    _check(flows[0], ALLOWED, {name for name, _ in _functions().values()},
           "functions")


def test_every_field_is_read_or_allowed(flows):
    defined = {f"{qualified}.{field}"
               for qualified, fields in _dataclasses().values()
               for field in fields}
    _check(flows[1], ALLOWED_FIELDS, defined, "fields")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for found, allowed in zip(missed(tmp), (ALLOWED, ALLOWED_FIELDS)):
            for (path, line), name in found:
                print(f"{path}:{line}: {name}"
                      + (" (allowed)" if name in allowed else ""))
