"""Every statement in the package's functions runs in a CLI flow, and every
dataclass field is read in one, or is named here with the reason.

The flows run through `cli.main`:

- each of `test_golden.CASES` with `run` in place of the four trajectory
  commands (synth, run and eval);
- `losses` on its own, which forms every frame's tokens but gates only the
  last frame;
- one `report` over CSV files those flows wrote;
- every row of `test_io.CLEAN_ERRORS`, the malformed-input tables (masks,
  resolutions, configs, command lines and trajectory values), each of which
  must end in one `error:` line and exit 1;
- `test_io.EDGE_INPUTS`: `eval` over empty and one-sided masks, `run` on a
  tool at zero rotation, and `synth` with tubes wider than
  `metrics.TUBE_CROP_MAX`.

They run once under a `sys.settrace` line tracer that records the lines run
in code from `src/kvacontrol/`, with `__getattribute__` of every dataclass
of the package patched to record the fields read (and restored afterwards).
The tracer leaves a code object alone once each of its statements has run:
a new frame of it is not traced, and a running one stops getting line
events. A field read from a dunder method such as `__init__`,
`__post_init__`, `__eq__` or `__repr__`, or from the `dataclasses` module,
does not count.

One test fails listing, as file:line, each statement of a function body
(docstrings excluded) that no flow ran and `ALLOWED_LINES` does not name. A
function runs exactly when its first statement does, so this also lists
each function that no flow calls. The other test lists each
`module.Class.field` that no flow read and `ALLOWED_FIELDS` does not name. A
test that runs a statement or reads a field does not keep it: code and data
that no CLI input reaches go, together with their tests, or an input that
reaches them joins the flows. `ALLOWED_LINES` names only statements that
code outside `src/` runs, and guards whose removal would let a library
caller get a silently wrong result.

`python tests/test_reachability.py` prints the unrun statements, then the
unread fields.
"""

import ast
import contextlib
import dataclasses
import importlib
import io
import os
import sys
import tempfile
from pathlib import Path

import pytest

from kvacontrol import cli
from test_golden import CASES, run_flow
from test_io import CLEAN_ERRORS, EDGE_INPUTS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "kvacontrol")

# "module.function" names every statement of a function (a method as
# "module.Class.method"); "module.function: text" the statements of it whose
# first line starts with text
ALLOWED_LINES = {
    "formats.read_field":
        "perfbench/worker.py reads lift's KVAF files through it",
    "kva_field.KvaField.channels":
        "perfbench/worker.py reads a KVAF file's (H, W, 9) channels through it",
    "kva_field.KvaField.__post_init__: raise ShapeMismatch":
        "read_field, which perfbench runs, takes the channel count from a "
        "file's header; a lift always builds nine planes",
    "kinematics.synth_trajectory: raise InvalidParams":
        "perfbench/worker.py and test_golden pass synth_trajectory a params "
        "dict, where a misspelt key would leave the base at its default; the "
        "CLI passes none",
    "metrics.render_tube: continue":
        "perfbench's exit128 inputs put the tool's base 5 cm from the camera, "
        "so render_tube meets parts behind it; synth's poses keep every part "
        "in front (the 0.11 m base depth exceeds the shaft's 0.10 m reach)",
    "kva_field.compute_stats: raise EmptyCorpus":
        "a lift of no pixels would give 0/0 statistics; a CLI lift has at "
        "least one frame of at least 1x1 pixels",
    "metrics.distance_transform: return np.full":
        "without it an empty mask's transform reads a finite 1e9 everywhere; "
        "chamfer returns nan before it transforms an empty mask",
    "priors.grad_check: raise NonFiniteGradient":
        "without it a NaN gradient would report an error of 0.0, since "
        "Python's max drops NaN; no finite CLI input is known to reach it",
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


def _statements():
    """{(path, line): (qualified function, first line's text)} of each
    statement in a function body of the package, docstrings excluded. The
    line is the statement's first, where its line event is reported; a
    nested function is qualified by the one it is defined in."""
    found = {}

    def visit(stmts, scope, in_function, path, lines):
        for stmt in stmts:
            if in_function:
                found[path, stmt.lineno] = (scope,
                                            lines[stmt.lineno - 1].strip())
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                body = stmt.body[ast.get_docstring(stmt) is not None:]
                visit(body, f"{scope}.{stmt.name}", True, path, lines)
            elif isinstance(stmt, ast.ClassDef):
                visit(stmt.body, f"{scope}.{stmt.name}", False, path, lines)
            else:
                inner = [getattr(stmt, name, []) for name in
                         ("body", "orelse", "finalbody")]
                inner += [h.body for h in getattr(stmt, "handlers", [])]
                for block in inner:
                    visit(block, scope, in_function, path, lines)

    for module, path, tree in _modules():
        with open(path, encoding="utf-8") as f:
            lines = f.read().splitlines()
        visit(tree.body, module, False, path, lines)
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


@contextlib.contextmanager
def _recording_lines(statements, run):
    """Add (path, line) to `run` for each line of `statements` that runs in
    the block. A code object's statements are looked up at its first call;
    once all of them have run, its frames are no longer traced."""
    left = {}  # code object -> its statement lines not run yet
    paths = {}  # co_filename -> real path

    def trace_lines(frame, event, arg):
        if event == "line":
            lines = left[frame.f_code]
            lines.discard(frame.f_lineno)
            run.add((paths[frame.f_code.co_filename], frame.f_lineno))
            if not lines:
                frame.f_trace_lines = False
        return trace_lines

    def trace_calls(frame, event, arg):
        code = frame.f_code
        lines = left.get(code)
        if lines is None:
            path = paths.setdefault(code.co_filename,
                                    os.path.realpath(code.co_filename))
            lines = left[code] = {line for _, _, line in code.co_lines()
                                  if (path, line) in statements}
        return trace_lines if lines else None

    previous = sys.gettrace()
    sys.settrace(trace_calls)
    try:
        yield
    finally:
        sys.settrace(previous)


def _flows(root):
    """Run every flow under `root`."""
    root = Path(root)
    for i, (_, kwargs) in enumerate(CASES):
        (root / str(i)).mkdir()
        run_flow(root / str(i), commands=("run",), **kwargs)
    default = root / "0"
    assert cli.main(["--out", str(root / "losses"), "losses", "--traj",
                     str(default / "target" / "trajectory.txt")]) == 0
    assert cli.main(["--out", str(root / "report"), "report", "--inputs",
                     str(default / "run" / "losses.csv"),
                     str(default / "eval" / "metrics.csv")]) == 0
    for i, argv_of in enumerate(EDGE_INPUTS):
        (root / f"edge{i}").mkdir()
        assert cli.main(argv_of(root / f"edge{i}")) == 0, argv_of.__name__
    for rows, argv_of in CLEAN_ERRORS:
        for row in rows:
            case = root / argv_of.__name__ / row.id
            case.mkdir(parents=True)
            with contextlib.redirect_stderr(io.StringIO()) as err:
                assert cli.main(argv_of(case, *row.values)) == 1, row.id
            assert err.getvalue().count("error:") == 1, row.id


def missed(root):
    """(unrun, unread): sorted ((path, line), name) of each package
    statement that no flow under `root` ran, named "function: text", and of
    each dataclass field that none read."""
    statements, run, read = _statements(), set(), set()
    classes = _dataclasses()
    with _recording_lines(statements, run), _recording_reads(classes, read):
        _flows(root)
    unrun = sorted(((os.path.relpath(path, ROOT), line), f"{scope}: {text}")
                   for (path, line), (scope, text) in statements.items()
                   if (path, line) not in run)
    unread = sorted((where, f"{qualified}.{field}")
                    for qualified, fields in classes.values()
                    for field, where in fields.items()
                    if f"{qualified}.{field}" not in read)
    return unrun, unread


def _allowed_by(name, entry):
    """Whether the ALLOWED_LINES entry covers the statement "function:
    text"."""
    scope, text = name.split(": ", 1)
    function, _, start = entry.partition(": ")
    inside = scope == function or scope.startswith(function + ".")
    return inside and text.startswith(start)


@pytest.fixture(scope="module")
def flows(tmp_path_factory):
    return missed(tmp_path_factory.mktemp("flows"))


def test_every_statement_runs_or_is_allowed(flows):
    defined = [f"{scope}: {text}" for scope, text in _statements().values()]
    unrun = [name for _, name in flows[0]]
    for entry, reason in ALLOWED_LINES.items():
        assert reason.strip(), f"{entry} is allowed without a reason"
        assert any(_allowed_by(name, entry) for name in defined), \
            f"the allowlist names no statement of the package: {entry}"
        assert any(_allowed_by(name, entry) for name in unrun), \
            f"the allowlist names statements a flow runs: {entry}"
    extra = [f"{path}:{line}: {name}" for (path, line), name in flows[0]
             if not any(_allowed_by(name, entry) for entry in ALLOWED_LINES)]
    assert not extra, "no CLI flow runs these statements:\n" + "\n".join(extra)


def test_every_field_is_read_or_allowed(flows):
    defined = {f"{qualified}.{field}"
               for qualified, fields in _dataclasses().values()
               for field in fields}
    names = {name for _, name in flows[1]}
    assert sorted(ALLOWED_FIELDS - defined) == [], \
        "the allowlist names undefined fields"
    assert sorted(ALLOWED_FIELDS - names) == [], \
        "the allowlist names fields a flow reads"
    extra = [f"{path}:{line}: {name}" for (path, line), name in flows[1]
             if name not in ALLOWED_FIELDS]
    assert not extra, "no CLI flow reads these fields:\n" + "\n".join(extra)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        unrun, unread = missed(tmp)
        for (path, line), name in unrun:
            allowed = any(_allowed_by(name, entry) for entry in ALLOWED_LINES)
            print(f"{path}:{line}: {name}" + (" (allowed)" if allowed else ""))
        for (path, line), name in unread:
            print(f"{path}:{line}: {name}"
                  + (" (allowed)" if name in ALLOWED_FIELDS else ""))
