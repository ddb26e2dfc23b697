"""Mutated input files fed to `cli.main` end in exit 0 with nothing on
stderr or in exit 1 with one `error:` line, never a traceback or a warning.
An exit 0 leaves non-finite values only where they are documented: a CSV
holds nan only as `metrics.csv`'s cd of a skipped frame, frame 1's ti and
af, and the mean of a column with no finite entry; every KVAF plane is
finite.

Each test mutates one valid input of the CLI (a 32x32 trajectory file, one
frame of a two-frame P5 mask sequence, a JSON config or a CSV report) with
a few token, line or byte edits and runs a command on it. The examples are
derandomized so that tier-1 stays stable; raise `max_examples` and drop
`derandomize` to search further. Random edits rarely land a float edge on a
given field, so each numeric field of the trajectory's camera, dt and frame
records also takes each float-edge token in turn.
"""

import contextlib
import dataclasses
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kvacontrol import cli
from kvacontrol import formats as fm
from kvacontrol import metrics as mt
from kvacontrol.kinematics import (ToolGeometry, default_camera,
                                   forward_kinematics, synth_trajectory)

from test_io import _with_value

SIZE = 32
FUZZ = settings(max_examples=25, deadline=None, derandomize=True)

# the float edges: subnormals, a value beyond float32's range, values whose
# square or sum overflows and the largest finite magnitudes
FLOAT_EDGES = ["5e-324", "1e-310", "1e39", "1e155", "1e300", "1.7e308"]
# replacement tokens: signs, zero, huge, tiny, non-finite and non-numeric,
# and the float edges
TOKENS = ["0", "-1", "1", "2", "33", "1e9", "-1e9", "1e-300", "nan", "inf",
          "-inf", "x", "", "0.5", *FLOAT_EDGES]


@pytest.fixture(scope="module")
def valid_inputs(tmp_path_factory):
    """The bytes of a 2-frame trajectory file and of its two frames' masks."""
    root = tmp_path_factory.mktemp("valid")
    traj = synth_trajectory("composite", T=2, seed=0)
    cam = default_camera(SIZE, SIZE)
    fm.write_trajectory(root / "t.txt", traj, cam)
    masks = []
    for state in traj.states:
        fm.write_pgm(root / "m.pgm", mt.render_tube(
            forward_kinematics(state, ToolGeometry()), cam))
        masks.append((root / "m.pgm").read_bytes())
    return (root / "t.txt").read_bytes(), masks


# a metrics report as `eval` writes it
CSV = b"frame,cd,ti,af,dice\n1,0,nan,nan,1\nmean,0,nan,nan,1\n"


@st.composite
def text_edit(draw, lines):
    """One edit of a text file given as a list of lines."""
    i = draw(st.integers(0, len(lines) - 1))
    kind = draw(st.sampled_from(["token", "token", "delete", "duplicate"]))
    if kind == "delete":
        return lines[:i] + lines[i + 1:]
    if kind == "duplicate":
        return lines[:i + 1] + lines[i:]
    parts = lines[i].split(" ")
    j = draw(st.integers(0, len(parts) - 1))
    parts[j] = draw(st.sampled_from(TOKENS))
    return lines[:i] + [" ".join(parts)] + lines[i + 1:]


@st.composite
def byte_edit(draw, data):
    """One edit of raw bytes: replace, insert or truncate at a position."""
    i = draw(st.integers(0, len(data)))
    kind = draw(st.sampled_from(["replace", "insert", "truncate"]))
    if kind == "truncate":
        return data[:i]
    byte = bytes([draw(st.integers(0, 255))])
    return data[:i] + byte + data[i + (kind == "replace"):]


@st.composite
def mutated(draw, data, text):
    """data after 1-3 edits: line and token edits when text, else byte edits."""
    for _ in range(draw(st.integers(1, 3))):
        if text and draw(st.booleans()):
            lines = data.decode("utf-8", "surrogateescape").split("\n")
            data = "\n".join(draw(text_edit(lines))).encode("utf-8", "surrogateescape")
        else:
            data = draw(byte_edit(data))
    return data


def _nan_allowed(name, rows):
    """(row, column) -> whether the CSV `name` may hold nan there."""
    if name != "metrics.csv":
        return lambda r, c: False
    header, frames = rows[0], rows[1:-1]
    empty = {c for c in range(1, len(header))
             if all(row[c] == "nan" for row in frames)}
    return lambda r, c: ((header[c] == "cd" and r <= len(frames))
                         or (header[c] in ("ti", "af") and r == 1)
                         or (r == len(frames) + 1 and c in empty))


def _documented_non_finite(out):
    """Every KVAF plane under out is finite, and every CSV value but those
    `_nan_allowed`; report.csv copies its inputs' text and is not checked."""
    for path in Path(out).rglob("*"):
        if path.suffix == ".kvaf":
            assert np.isfinite(fm.read_field(path).planes).all(), path.name
        elif path.suffix == ".csv" and path.name != "report.csv":
            rows = [line.split(",") for line in path.read_text().splitlines()]
            allowed = _nan_allowed(path.name, rows)
            for r, row in enumerate(rows):
                for c, cell in enumerate(row):
                    try:
                        finite = np.isfinite(float(cell))
                    except ValueError:  # a name or a header
                        continue
                    assert finite or allowed(r, c), (path.name, r, row)


def _exits_cleanly(argv):
    """Run the CLI on argv: exit 0 leaves stderr empty and only documented
    non-finite values, exit 1 prints exactly one line, an `error:` line."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as out:
        with contextlib.redirect_stderr(err):
            code = cli.main(["--out", out, *argv])
        if code == 0:
            _documented_non_finite(out)
    err = err.getvalue()
    if code == 0:
        assert err == ""
    else:
        assert code == 1
        assert (err.startswith("error:") and err.endswith("\n")
                and err.count("\n") == 1), err


@FUZZ
@given(st.data(), st.sampled_from(cli.TRAJECTORY_COMMANDS))
def test_mutated_trajectory_exits_cleanly(valid_inputs, data, command):
    traj = data.draw(mutated(valid_inputs[0], text=True))
    with tempfile.TemporaryDirectory() as root:
        path = Path(root) / "t.txt"
        path.write_bytes(traj)
        _exits_cleanly([command, "--traj", str(path)])


@pytest.mark.parametrize("value", FLOAT_EDGES)
@pytest.mark.parametrize("record,pos", [
    *(("camera", pos) for pos in range(1, 5)),  # fx, fy, cx, cy
    # the wrist's depth in frame 1 (a jump), and in every frame (no motion)
    ("dt", 1), ("frame 1", 4), ("frame", 4),
], ids=["fx", "fy", "cx", "cy", "dt", "frame-1-pz", "every-frame-pz"])
def test_float_edge_trajectory_value_exits_cleanly(valid_inputs, record, pos,
                                                   value):
    with tempfile.TemporaryDirectory() as root:
        path = Path(root) / "t.txt"
        path.write_bytes(valid_inputs[0])
        path.write_text(_with_value(path, record, pos, value))
        _exits_cleanly(["run", "--traj", str(path)])


@FUZZ
@given(st.data())
def test_mutated_mask_exits_cleanly(valid_inputs, data):
    pred = list(valid_inputs[1])
    t = data.draw(st.integers(0, len(pred) - 1))
    pred[t] = data.draw(mutated(pred[t], text=False))
    with tempfile.TemporaryDirectory() as root:
        for name, masks in (("pred", pred), ("target", valid_inputs[1])):
            (Path(root) / name).mkdir()
            for t, content in enumerate(masks, start=1):
                (Path(root) / name / f"frame_{t:04d}.pgm").write_bytes(content)
        _exits_cleanly(["eval", "--pred", str(Path(root) / "pred"),
                        "--target", str(Path(root) / "target")])


@FUZZ
@given(st.data())
def test_mutated_report_input_exits_cleanly(data):
    report = data.draw(mutated(CSV, text=False))
    with tempfile.TemporaryDirectory() as root:
        (Path(root) / "metrics.csv").write_bytes(report)
        _exits_cleanly(["report", "--inputs", str(Path(root) / "metrics.csv")])


CONFIG_VALUES = st.sampled_from([
    -1, 0, 1, 2, 3, 5, 8, 99, -0.5, 0.0, 0.5, 1.5, 1e300, float("nan"),
    float("inf"), "x", None, True, [], [32, 32], [1, 0], {}])


@FUZZ
@given(st.data(), st.sampled_from(("synth",) + cli.TRAJECTORY_COMMANDS))
def test_mutated_config_exits_cleanly(valid_inputs, data, command):
    names = [f.name for f in dataclasses.fields(fm.Config)]
    cfg = {"resolution": [SIZE, SIZE], "frames": 2}
    for _ in range(data.draw(st.integers(1, 3))):
        cfg[data.draw(st.sampled_from(names))] = data.draw(CONFIG_VALUES)
    text = json.dumps(cfg).encode()
    if data.draw(st.booleans()):
        text = data.draw(mutated(text, text=False))
    with tempfile.TemporaryDirectory() as root:
        (Path(root) / "c.json").write_bytes(text)
        (Path(root) / "t.txt").write_bytes(valid_inputs[0])
        argv = ["--config", str(Path(root) / "c.json"), command]
        if command != "synth":
            argv += ["--traj", str(Path(root) / "t.txt")]
        _exits_cleanly(argv)
