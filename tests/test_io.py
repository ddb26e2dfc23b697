import dataclasses
import json
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from kvacontrol import cli
from kvacontrol import kva_field as kvf
from kvacontrol import formats as fm
from kvacontrol import metrics as mt
from kvacontrol import priors as pr
from kvacontrol import routing as rt
from kvacontrol import scheduler as sched
from kvacontrol.errors import (
    BadMagic,
    InvalidParams,
    InvariantViolation,
    ParseError,
    TruncatedFile,
    VersionMismatch,
)
from kvacontrol.kinematics import (ArticulatedState, ToolGeometry,
                                   Trajectory, default_camera,
                                   forward_kinematics, synth_trajectory)

from test_field import stacked
from test_golden import CASES


class TestTrajectoryFormat:
    def _traj(self, seed=0):
        return synth_trajectory("composite", T=6, seed=seed), default_camera(48, 48)

    def test_round_trip_bit_exact(self, tmp_path):
        traj, cam = self._traj()
        path = tmp_path / "t.txt"
        fm.write_trajectory(path, traj, cam, seq_id="abc")
        back, cam2, seq = fm.read_trajectory(path)
        assert seq == "abc"
        assert back.dt == traj.dt
        for a, b in zip(traj.states, back.states):
            np.testing.assert_array_equal(a.as_vector(), b.as_vector())
        assert cam2 == cam
        assert "extrinsic 1 0 0 0 0 1 0 0 0 0 1 0" in path.read_text().splitlines()

    def test_rewrite_identical_bytes(self, tmp_path):
        traj, cam = self._traj(3)
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        fm.write_trajectory(p1, traj, cam)
        fm.write_trajectory(p2, traj, cam)
        assert p1.read_bytes() == p2.read_bytes()

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        traj, cam = self._traj()
        path = tmp_path / "t.txt"
        fm.write_trajectory(path, traj, cam)
        text = path.read_text()
        lines = text.splitlines()
        lines.insert(1, "# a comment")
        lines.insert(3, "")
        path.write_text("\n".join(lines) + "\n")
        back, _, _ = fm.read_trajectory(path)
        assert len(back.states) == len(traj.states)

    def test_parse_error_reports_line(self, tmp_path):
        traj, cam = self._traj()
        path = tmp_path / "t.txt"
        fm.write_trajectory(path, traj, cam)
        lines = path.read_text().splitlines()
        lines[4] = "frame 1 not_a_number"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as exc:
            fm.read_trajectory(path)
        assert exc.value.line == 5

    def test_unknown_record_rejected(self, tmp_path):
        traj, cam = self._traj()
        path = tmp_path / "t.txt"
        fm.write_trajectory(path, traj, cam)
        path.write_text(path.read_text() + "bogus 1 2 3\n")
        with pytest.raises(ParseError):
            fm.read_trajectory(path)

    def test_nan_action_rejected(self, tmp_path):
        traj, cam = self._traj()
        path = tmp_path / "t.txt"
        fm.write_trajectory(path, traj, cam)
        text = path.read_text().replace("frame 2 ", "frame 2 nan ", 1)
        # replace the first value of frame 2 with nan keeping 9 values
        lines = text.splitlines()
        for i, ln in enumerate(lines):
            if ln.startswith("frame 2 "):
                parts = ln.split()
                parts[2] = "nan"
                lines[i] = " ".join(parts[:11])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(InvariantViolation):
            fm.read_trajectory(path)

    def test_gap_in_frame_indices_rejected(self, tmp_path):
        traj, cam = self._traj()
        path = tmp_path / "t.txt"
        fm.write_trajectory(path, traj, cam)
        lines = [ln for ln in path.read_text().splitlines()
                 if not ln.startswith("frame 3 ")]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(InvariantViolation, match="frame 3 is missing$"):
            fm.read_trajectory(path)

    @pytest.mark.parametrize("record", ["frame 2", "dt", "camera", "extrinsic",
                                        "seq"])
    def test_repeated_record_rejected(self, tmp_path, record):
        traj, cam = self._traj()
        path = tmp_path / "t.txt"
        fm.write_trajectory(path, traj, cam, seq_id="abc")
        lines = path.read_text().splitlines()
        lines.append(next(ln for ln in lines if ln.startswith(record + " ")))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=f"repeated {record}") as exc:
            fm.read_trajectory(path)
        assert exc.value.line == len(lines)

    def test_missing_camera_rejected(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("seq x\ndt 0.5\nframe 1 0 0 0.2 0 0 0 0 0.1 0.1\n")
        with pytest.raises(ParseError,
                           match="^missing camera/extrinsic records$"):
            fm.read_trajectory(path)

    def test_missing_frames_named(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("dt 0.5\n")
        with pytest.raises(ParseError,
                           match="^missing camera/extrinsic/frame records$"):
            fm.read_trajectory(path)


class TestFieldFormat:
    def _field(self, seed=0):
        rng = np.random.default_rng(seed)
        return kvf.KvaField(planes=rng.normal(size=(9, 12, 9)).astype(np.float32),
                            t=3)

    def test_round_trip(self, tmp_path):
        f = self._field()
        path = tmp_path / "f.kvaf"
        fm.write_field(f, path)
        back = fm.read_field(path)
        assert back.t == 3
        assert back.planes.tobytes() == f.planes.tobytes()
        np.testing.assert_array_equal(back.channels, f.channels)

    def test_header_layout(self, tmp_path):
        f = self._field()
        path = tmp_path / "f.kvaf"
        fm.write_field(f, path)
        data = path.read_bytes()
        assert data[:4] == b"KVAF"
        import struct
        version, h, w, t, c = struct.unpack("<5I", data[4:24])
        assert (version, h, w, t, c) == (1, 12, 9, 3, 9)
        assert len(data) == 24 + 4 * 12 * 9 * 9

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.kvaf"
        path.write_bytes(b"NOPE" + b"\x00" * 40)
        with pytest.raises(BadMagic):
            fm.read_field(path)

    def test_version_mismatch(self, tmp_path):
        f = self._field()
        path = tmp_path / "f.kvaf"
        fm.write_field(f, path)
        data = bytearray(path.read_bytes())
        data[4] = 9
        path.write_bytes(bytes(data))
        with pytest.raises(VersionMismatch):
            fm.read_field(path)

    def test_truncated(self, tmp_path):
        f = self._field()
        path = tmp_path / "f.kvaf"
        fm.write_field(f, path)
        data = path.read_bytes()
        path.write_bytes(data[:len(data) // 2])
        with pytest.raises(TruncatedFile):
            fm.read_field(path)
        path.write_bytes(data[:10])
        with pytest.raises(TruncatedFile):
            fm.read_field(path)


class TestPgm:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 4, size=(17, 23))
        path = tmp_path / "m.pgm"
        fm.write_pgm(path, labels)
        np.testing.assert_array_equal(fm.read_pgm(path), labels)

    def test_header(self, tmp_path):
        path = tmp_path / "m.pgm"
        fm.write_pgm(path, np.zeros((4, 6), dtype=int))
        assert path.read_bytes().startswith(b"P5\n6 4\n255\n")

    def test_comment_in_header(self, tmp_path):
        path = tmp_path / "m.pgm"
        body = bytes(range(6))
        path.write_bytes(b"P5\n# comment\n3 2\n255\n" + body)
        out = fm.read_pgm(path)
        np.testing.assert_array_equal(out, np.arange(6).reshape(2, 3))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P6\n1 1\n255\nX")
        with pytest.raises(BadMagic):
            fm.read_pgm(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5\n4 4\n255\nab")
        with pytest.raises(TruncatedFile):
            fm.read_pgm(path)

    @pytest.mark.parametrize("data", [
        b"P5\nxx 4\n255\n", b"P5\n-1 4\n255\nab", b"P5\n0 4\n255\n", b"P5\n",
    ], ids=["non-numeric", "negative", "zero-width", "no-fields"])
    def test_bad_header_field(self, tmp_path, data):
        path = tmp_path / "m.pgm"
        path.write_bytes(data)
        with pytest.raises(ParseError):
            fm.read_pgm(path)


class TestConfig:
    def test_defaults(self):
        cfg = fm.load_config()
        assert cfg.top_k == 2
        assert cfg.dense_end == 0.40
        assert cfg.sparse_start == 0.75
        assert (cfg.lam_kp, cfg.lam_src, cfg.lam_cp, cfg.lam_sub) == \
            (0.01, 0.005, 0.01, 0.005)
        assert (cfg.rho_full, cfg.rho_light) == (0.2, 0.3)
        assert cfg.refresh_k == 4

    def test_json_and_overrides(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"frames": 4, "resolution": [48, 32]}))
        cfg = fm.load_config(path, {"stride": 8})
        assert cfg.frames == 4
        assert cfg.resolution == (48, 32)
        assert cfg.stride == 8

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"framez": 4}))
        with pytest.raises(ParseError):
            fm.load_config(path)

    @pytest.mark.parametrize("key,value", [
        ("ema_beta", 0.95), ("lam_b", 0.5), ("lam_t", 0.35),
        ("refresh_intervals", [1, 2, 4]),
    ], ids=["ema_beta", "lam_b", "lam_t", "refresh_intervals"])
    def test_removed_key_rejected(self, tmp_path, key, value):
        # these keys changed no artefact and were deleted
        path = tmp_path / "c.json"
        path.write_text(json.dumps({key: value}))
        with pytest.raises(ParseError):
            fm.load_config(path)


# small enough to run every command in a few hundred milliseconds; progress
# 0.5 lies inside the dense -> sparse blend, so dense_end, sparse_start and
# top_k all matter
LIVE_BASE = {"resolution": [32, 32], "frames": 3, "progress": 0.5}
LIVE_COMMANDS = ("synth",) + cli.WRITERS  # run writes no file of its own


def _settable_values():
    """(field, index) of every settable Config value; a tuple field has one
    per element, a scalar field index None."""
    values = []
    for f in dataclasses.fields(fm.Config):
        if isinstance(f.default, tuple):
            values += [pytest.param(f.name, i, id=f"{f.name}-{i}")
                       for i in range(len(f.default))]
        else:
            values.append(pytest.param(f.name, None, id=f.name))
    return values


def _perturbed(value):
    """A different value in range: ints doubled, floats scaled by 1.2, and
    another trajectory kind for the one string field."""
    if isinstance(value, str):
        return "gripper-cycle"
    return value * 2 if isinstance(value, int) else value * 1.2


def _run_command(root, cfg, command, traj):
    path = root / "c.json"
    path.write_text(json.dumps(cfg))
    out = root / command
    argv = ["--config", str(path), "--seed", "1", "--out", str(out), command]
    if command != "synth":
        argv += ["--traj", traj]
    assert cli.main(argv) == 0
    return _tree_bytes(out)


@pytest.fixture(scope="module")
def live_base(tmp_path_factory):
    root = tmp_path_factory.mktemp("live-base")
    traj = str(root / "synth" / "trajectory.txt")
    return traj, {c: _run_command(root, LIVE_BASE, c, traj) for c in LIVE_COMMANDS}


@pytest.mark.parametrize("name,index", _settable_values())
def test_every_config_value_changes_an_artefact(tmp_path, live_base, name, index):
    traj, base = live_base
    cfg = {**dataclasses.asdict(fm.Config()), **LIVE_BASE}
    if index is None:
        cfg[name] = _perturbed(cfg[name])
    else:
        cfg[name] = list(cfg[name])
        cfg[name][index] = _perturbed(cfg[name][index])
    # a value that leaves synth's trajectory alone is read by a later command
    for command in LIVE_COMMANDS:
        if _run_command(tmp_path, cfg, command, traj) != base[command]:
            return
    pytest.fail(f"{name}{'' if index is None else [index]} = {cfg[name]} "
                "changes no artefact")


def _with_value(traj, record, pos, value):
    """The trajectory file's text with the value at `pos` replaced in the
    first line that starts with the words of `record` ("dt", "frame 2")."""
    lines = [line.split() for line in Path(traj).read_text().splitlines()]
    key = record.split()
    next(parts for parts in lines if parts[:len(key)] == key)[pos] = value
    return "".join(" ".join(parts) + "\n" for parts in lines)


# (record, position in the line) of each value of the camera record, dt and
# one frame value
TRAJECTORY_VALUES = [
    pytest.param("camera", pos, id=f"camera-{name}") for pos, name in
    enumerate(("fx", "fy", "cx", "cy", "width", "height"), start=1)
] + [pytest.param("dt", 1, id="dt"), pytest.param("frame", 4, id="frame-1-pz")]


@pytest.mark.parametrize("record,pos", TRAJECTORY_VALUES)
def test_every_trajectory_value_changes_an_artefact(tmp_path, live_base, record,
                                                    pos):
    traj, base = live_base
    old = next(line.split() for line in Path(traj).read_text().splitlines()
               if line.split()[0] == record)[pos]
    # scaled by 1.25, the principal point stays inside the frame and the
    # frame size stays an integer (32 -> 40)
    new = float(old) * 1.25
    path = tmp_path / "t.txt"
    path.write_text(_with_value(traj, record, pos,
                                str(int(new)) if old.isdigit() else repr(new)))
    assert _run_command(tmp_path, LIVE_BASE, "lift", str(path)) != base["lift"]


@pytest.mark.parametrize("command", cli.TRAJECTORY_COMMANDS)
@pytest.mark.parametrize("extrinsic", [
    "0 -1 0 0 1 0 0 0 0 0 1 0",
    "1 0 0 0.01 0 1 0 -0.02 0 0 1 0.05",
], ids=["rotation-90-about-z", "translation"])
def test_non_identity_extrinsic_clean_error(tmp_path, live_base, capsys,
                                            command, extrinsic):
    """Poses are camera-frame: an extrinsic no stage would apply is rejected,
    not ignored."""
    text = Path(live_base[0]).read_text()
    identity = "extrinsic 1 0 0 0 0 1 0 0 0 0 1 0"
    ln = text.splitlines().index(identity) + 1
    path = tmp_path / "t.txt"
    path.write_text(text.replace(identity, "extrinsic " + extrinsic))
    out = tmp_path / "o"
    code = cli.main(["--out", str(out), command, "--traj", str(path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: line {ln}: extrinsic must be the identity")
    assert "camera-frame" in err and err.count("\n") == 1, err
    assert not os.listdir(out)


class TestRngStreams:
    def test_deterministic(self):
        a = fm.subsystem_rng(7, "gate").random(5)
        b = fm.subsystem_rng(7, "gate").random(5)
        np.testing.assert_array_equal(a, b)

    def test_independent_across_tags(self):
        a = fm.subsystem_rng(7, "gate").random(5)
        b = fm.subsystem_rng(7, "synth").random(5)
        assert not np.array_equal(a, b)

    def test_independent_across_seeds(self):
        a = fm.subsystem_rng(1, "gate").random(5)
        b = fm.subsystem_rng(2, "gate").random(5)
        assert not np.array_equal(a, b)


class TestAtomicWrite:
    def test_no_temp_left_behind(self, tmp_path):
        path = tmp_path / "f.bin"
        fm.atomic_write_bytes(path, b"hello")
        assert path.read_bytes() == b"hello"
        assert os.listdir(tmp_path) == ["f.bin"]

    def test_overwrite(self, tmp_path):
        path = tmp_path / "f.txt"
        fm.atomic_write_text(path, "one")
        fm.atomic_write_text(path, "two")
        assert path.read_text() == "two"

    def test_failed_rename_names_the_destination(self, tmp_path):
        path = tmp_path / "f.bin"
        path.mkdir()
        with pytest.raises(IsADirectoryError) as exc:
            fm.atomic_write_bytes(path, b"hello")
        assert str(exc.value) == f"[Errno 21] Is a directory: '{path}'"
        assert os.listdir(tmp_path) == ["f.bin"]


def _out_of_range(value):
    """A value outside the range of a Config field whose default is
    `value`: -1 for a number, -1 for each entry of a tuple, and an unknown
    name for a string."""
    if isinstance(value, str):
        return "unknown"
    if isinstance(value, tuple):
        return [-1] * len(value)
    return -1


def _tree_bytes(root):
    out = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            p = os.path.join(dirpath, name)
            out[os.path.relpath(p, root)] = Path(p).read_bytes()
    return out


def _pgm_bytes(h, w, label=1):
    labels = np.zeros((h, w), dtype=np.uint8)
    labels[h // 4:h // 2, w // 4:w // 2] = label
    return f"P5\n{w} {h}\n255\n".encode("ascii") + labels.tobytes()


def _trajectory_file(tmp_path, size, frames=2):
    """A trajectory file seen by a size x size camera."""
    path = tmp_path / "t.txt"
    fm.write_trajectory(path, synth_trajectory("composite", T=frames, seed=0),
                        default_camera(size, size))
    return path


# Malformed inputs: each row must end in one `error:` line and exit 1.
# `tests/test_reachability.py` runs every row as one of its CLI flows. Each
# table's `*_argv` function writes a row's inputs under the directory `root`
# and returns the argv that feeds them to `cli.main`.

# (predicted frames, target frames) as P5 bytes
BAD_MASKS = [
    pytest.param([_pgm_bytes(64, 64)], [_pgm_bytes(256, 256)],
                 id="size-mismatch"),
    pytest.param([b"P5\nxx 4\n255\n"], [_pgm_bytes(4, 4)], id="pgm-header"),
    pytest.param([_pgm_bytes(8, 8, label=5)], [_pgm_bytes(8, 8)],
                 id="label-out-of-range"),
    pytest.param([b"P5\n# a 16-bit graymap\n4 4\n65535\n" + bytes(32)],
                 [_pgm_bytes(4, 4)], id="16-bit"),
    pytest.param([b"P6\n1 1\n255\nX"], [_pgm_bytes(4, 4)], id="not-p5"),
    pytest.param([b"P5\n0 4\n255\n"], [_pgm_bytes(4, 4)], id="no-pixels"),
    pytest.param([b"P5\n4 4\n255\nab"], [_pgm_bytes(4, 4)], id="truncated"),
    pytest.param([_pgm_bytes(4, 4)] * 2, [_pgm_bytes(4, 4)],
                 id="frame-count-mismatch"),
]


def mask_argv(root, pred, target):
    for name, frames in (("pred", pred), ("target", target)):
        (root / name).mkdir()
        for t, data in enumerate(frames, start=1):
            (root / name / f"frame_{t:04d}.pgm").write_bytes(data)
    return ["--out", str(root / "o"), "eval", "--pred", str(root / "pred"),
            "--target", str(root / "target")]


BAD_RESOLUTIONS = [pytest.param(r, id=r) for r in ("64", "ax64", "0x0",
                                                    "64x-1")]


def resolution_argv(root, resolution):
    return ["--out", str(root), "--resolution", resolution, "synth",
            "--frames", "1"]


# (config file text, command)
BAD_CONFIGS = [pytest.param(text, command, id=name) for text, command, name in (
    ('{"stride": 4', "synth", "invalid-json"),
    ('[1, 2]', "synth", "json-list"),
    ('{"framez": 4}', "synth", "unknown-key"),
    ('{"stride": "4"}', "synth", "stride-str"),
    ('{"frames": 2.5}', "synth", "frames-float"),
    ('{"resolution": "64x64"}', "synth", "resolution-str"),
    ('{"top_k": true}', "synth", "top_k-bool"),
    ('{"rho_full": 0.9, "rho_light": 0.9}', "schedule", "rho-sum"),
    ('{"rho_light": -0.1}', "route", "rho-negative"),
    ('{"stride": 0}', "route", "stride-0"),
    ('{"stride": -4}', "losses", "stride-negative"),
    ('{"stride": 3}', "route", "stride-3"),
    ('{"token_dim": 0}', "route", "token_dim-0"),
    ('{"token_dim": 10000000}', "synth", "token_dim-over-work-bound"),
    ('{"tube_half_width": -3.0}', "synth", "half_width-negative"),
    ('{"top_k": 9}', "route", "top_k-9"),
    ('{"top_k": 0}', "losses", "top_k-0"),
    ('{"dense_end": 0.9}', "schedule", "dense_end-after-sparse_start"),
    ('{"refresh_k": 0}', "schedule", "refresh_k-0"),
    ('{"refresh_k": 100000000000000000000000000000}', "schedule",
     "refresh_k-huge"),
    ('{"progress": -5.0}', "route", "progress-negative"),
    ('{"progress": 1.5}', "losses", "progress-above-1"),
    ('{"timestep": 1e300}', "route", "timestep-huge"),
    # loss weights, then values that the command does not read
    ('{"lam_kp": NaN}', "losses", "lam_kp-nan"),
    ('{"lam_src": -0.5}', "losses", "lam_src-negative"),
    ('{"lam_cp": Infinity}', "losses", "lam_cp-inf"),
    ('{"lam_sub": -1}', "synth", "lam_sub-unread"),
    ('{"lam_kp": 1' + '0' * 400 + '}', "lift", "lam_kp-huge-int"),
    ('{"rho_light": NaN}', "schedule", "rho_light-nan"),
    ('{"top_k": 99}', "lift", "top_k-unread"),
    ('{"stride": 0}', "lift", "stride-unread"),
    ('{"refresh_k": 0}', "lift", "refresh_k-unread"),
    ('{"refresh_k": 100000000000000000000000000000}', "lift",
     "refresh_k-huge-unread"),
    ('{"rho_full": 5.0}', "lift", "rho_full-unread"),
    ('{"dense_end": 0.9}', "synth", "dense_end-unread"),
    ('{"progress": 2.0}', "lift", "progress-unread"),
    ('{"timestep": -1.0}', "synth", "timestep-unread"),
    ('{"token_dim": 0}', "synth", "token_dim-unread"),
    ('{"resolution": [0, 32]}', "lift", "resolution-unread"),
    ('{"frames": 0}', "route", "frames-unread"),
    ('{"trajectory_kind": "spiral"}', "lift", "kind-unread"),
    ('{"tube_half_width": 0.0}', "schedule", "half_width-unread"),
    ('{"tube_half_width": Infinity}', "synth", "half_width-inf"),
)]


def config_argv(root, text, command):
    """`command` under a config file of `text`, on a 32x32 trajectory."""
    cfg = root / "c.json"
    cfg.write_text(text)
    argv = ["--config", str(cfg), "--out", str(root / "o"), command]
    if command != "synth":
        argv += ["--traj", str(_trajectory_file(root, 32))]
    return argv


# command lines, with the start of the error message each must give; the
# names in capitals stand for the inputs that `argument_argv` writes, and
# {root} in a message for the directory it writes them in
BAD_ARGUMENTS = [pytest.param(argv, message, id=name) for argv, message, name in (
    (["--seed", "-1", "synth"], "--seed must be >= 0, got -1",
     "seed-negative-synth"),
    (["--seed", "-1", "route", "--traj", "TRAJ"],
     "--seed must be >= 0, got -1", "seed-negative-route"),
    (["synth", "--frames", "0"], "config 'frames': T must be >= 1, got 0",
     "frames-0"),
    (["synth", "--frames", "100000000"],
     "100000000 frames of 64x64 are 409600000000 pixels, over the work bound",
     "frames-over-work-bound"),
    (["synth", "--kind", ""],
     "config 'trajectory_kind': unknown trajectory kind ''", "kind-empty"),
    (["eval", "--pred", "EMPTY", "--target", "EMPTY"],
     "no .pgm masks in {root}/empty", "eval-empty-dirs"),
    (["route", "--traj", "TINY"],
     "route needs at least 3 tokens for its 3 motion bins, got 1",
     "route-one-token"),
    (["report", "--inputs", "BINARY"],
     "report input {root}/report.csv: 'utf-8' codec can't decode",
     "report-not-utf8"),
    # the destination is named, not the removed temporary file
    (["--out", "BLOCKED", "synth", "--frames", "1"],
     "[Errno 21] Is a directory: '{root}/blocked/trajectory.txt'\n",
     "out-file-is-a-directory"),
    # malformed command lines, which argparse alone would end in exit 2
    (["--seed", "abc", "synth"],
     "kvacontrol: argument --seed: invalid int value: 'abc'", "seed-not-int"),
    (["--bogus", "synth"], "kvacontrol: unrecognized arguments: --bogus",
     "unknown-flag"),
    (["route"], "kvacontrol route: the following arguments are required: "
     "--traj", "route-without-traj"),
    (["synth", "--frames", "x"],
     "kvacontrol synth: argument --frames: invalid int value: 'x'",
     "frames-not-int"),
    (["nope"], "kvacontrol: argument command: invalid choice: 'nope'",
     "unknown-command"),
    (["--resolution", "-16x16", "synth"],
     "kvacontrol: argument --resolution: expected one argument",
     "resolution-negative"),
    ([], "kvacontrol: the following arguments are required: command",
     "no-command"),
    (["synth", "extra"], "kvacontrol: unrecognized arguments: extra",
     "stray-positional"),
    (["run"], "kvacontrol run: the following arguments are required: --traj",
     "run-without-traj"),
    (["--resolution", "16x16", "run", "--traj", "TRAJ"],
     "--resolution 16x16 differs from the trajectory camera's 32x32",
     "run-resolution-mismatch"),
)]


def _blocked_out(root):
    """An output directory where synth's trajectory file would go holds a
    directory of that name, so its write fails."""
    (root / "blocked" / "trajectory.txt").mkdir(parents=True)
    return root / "blocked"


def _not_utf8(root):
    (root / "report.csv").write_bytes(b"frame,cd\n\xff\xfe\n")
    return root / "report.csv"


def _empty_dir(root):
    (root / "empty").mkdir(exist_ok=True)
    return root / "empty"


def _tiny_trajectory(root):
    """A 4x4 frame: at stride 4 one token, for route's 3 motion bins."""
    (root / "tiny").mkdir(exist_ok=True)
    return _trajectory_file(root / "tiny", 4, frames=1)


ARGUMENT_INPUTS = {"TRAJ": lambda root: _trajectory_file(root, 32),
                   "TINY": _tiny_trajectory, "EMPTY": _empty_dir,
                   "BINARY": _not_utf8, "BLOCKED": _blocked_out}


def argument_argv(root, argv, message):
    """The command line `argv` with its inputs written under root;
    `message` is the test's."""
    return ["--out", str(root / "o"),
            *(str(ARGUMENT_INPUTS[a](root)) if a in ARGUMENT_INPUTS else a
              for a in argv)]


# (record, position, value) edits of a 64x64, 2-frame trajectory file, with
# the start of the error message each must give; the file's lines are seq,
# camera, extrinsic, dt, frame 1 and frame 2
BAD_TRAJECTORY_VALUES = [
    pytest.param(record, pos, value, message, id=name)
    for record, pos, value, message, name in (
        ("dt", 1, "nan", "line 4: dt must be finite and > 0, got nan\n",
         "dt-nan"),
        ("dt", 1, "inf", "line 4: dt must be finite and > 0, got inf\n",
         "dt-inf"),
        ("camera", 5, "64.7",
         "line 2: camera width must be an integer, got '64.7'\n",
         "width-fraction"),
        ("camera", 6, "nan",
         "line 2: camera height must be an integer, got 'nan'\n",
         "height-nan"),
        ("camera", 1, "nan", "line 2: camera intrinsics must be finite",
         "fx-nan"),
        ("extrinsic", 4, "inf", "line 3: extrinsic must be the identity",
         "translation-inf"),
        # the height emptied, so the line holds 5 values
        ("camera", 6, "", "line 2: camera line needs 6 values",
         "camera-5-values"),
        ("dt", 1, "0.1 0.2", "line 4: dt line needs 1 value", "dt-2-values"),
        ("camera", 1, "0", "line 2: fx, fy must be > 0", "fx-0"),
        # (j - cx) / fx overflows for a subnormal focal length
        ("camera", 1, "5e-324", "line 2: fx, fy too small: the pixel rays' "
         "directions overflow\n", "fx-subnormal"),
        ("camera", 2, "1e-310", "line 2: fx, fy too small: the pixel rays' "
         "directions overflow\n", "fy-subnormal"),
        ("camera", 5, "0", "line 2: width must be an integer >= 1",
         "width-0"),
        ("camera", 3, "-1", "line 2: principal point must lie inside",
         "principal-point-outside"),
        ("frame 2", 8, "99", "frame 2: q_sw=99.0 outside", "q_sw-99"),
        ("extrinsic", 12, "", "line 3: extrinsic line needs 12 values",
         "extrinsic-11-values"),
        ("frame", 10, "", "line 5: frame line needs index + 9 values",
         "frame-8-values"),
        ("dt", 0, "camera", "line 4: repeated camera record",
         "repeated-record"),
        ("frame 2", 1, "1", "line 6: repeated frame 1", "repeated-frame"),
        ("frame", 3, "nan", "line 5: non-finite action at frame 1",
         "non-finite-action"),
        ("seq", 0, "bogus", "line 1: unknown record 'bogus'",
         "unknown-record"),
        ("dt", 0, "#", "missing dt record\n", "dt-commented-out"),
        ("frame 2", 1, "3",
         "frame indices must be contiguous from 1: frame 2 is missing\n",
         "frame-gap"),
        ("seq", 1, "\udcff", "trajectory ", "not-utf8"),
        ("dt", 1, "1e-40", "frame 2: the ", "dt-motion-beyond-float32"),
        # r . r overflows, so the rotation angle |r| is inf
        ("frame 2", 5, "1e300",
         "frame 2: the wrist rotation's angle |r| overflows\n",
         "rotation-angle-overflow"),
        ("frame 2", 5, "1e155",
         "frame 2: the wrist rotation's angle |r| overflows\n",
         "rotation-angle-overflow-1e155"),
    )]


def trajectory_value_argv(root, record, pos, value, message):
    """lift of a 64x64 trajectory with one value replaced (a lone surrogate
    written as the byte it escapes); `message` is the test's."""
    traj = _trajectory_file(root, 64)
    traj.write_bytes(_with_value(traj, record, pos, value).encode(
        "utf-8", "surrogateescape"))
    return ["--out", str(root / "o"), "lift", "--traj", str(traj)]


# every table with its argv function
CLEAN_ERRORS = ((BAD_MASKS, mask_argv), (BAD_RESOLUTIONS, resolution_argv),
                (BAD_CONFIGS, config_argv), (BAD_ARGUMENTS, argument_argv),
                (BAD_TRAJECTORY_VALUES, trajectory_value_argv))


# Valid inputs whose runs reach branches that no golden case reaches, each
# built as above; `tests/test_reachability.py` runs each as a flow.

def empty_masks_argv(root):
    """eval of four 8x8 frames: a 2x2 shaft block in both masks, two frames
    empty in both, and a 2x2 gripper block in the prediction alone."""
    shaft, gripper, empty = (_pgm_bytes(8, 8, label) for label in (1, 3, 0))
    return mask_argv(root, [shaft, empty, empty, gripper],
                     [shaft, empty, empty, empty])


def zero_rotation_argv(root):
    """run on one 32x32 frame whose rotation vector and hinge angles are all
    zero, 11 cm in front of the camera: the shaft lies on the optical axis,
    nearest to the camera, and projects to a point."""
    traj = root / "t.txt"
    fm.write_trajectory(traj, Trajectory(
        states=(ArticulatedState.from_vector([0, 0, 0.11, 0, 0, 0, 0, 0, 0]),),
        dt=1 / 30), default_camera(32, 32))
    return ["--out", str(root / "o"), "run", "--traj", str(traj)]


def wide_tube_argv(root):
    """synth of one 16x16 frame with a tube half width past
    `metrics.TUBE_CROP_MAX`, so every part is measured on the whole frame."""
    cfg = root / "c.json"
    cfg.write_text(json.dumps({"tube_half_width": 2 * mt.TUBE_CROP_MAX,
                               "resolution": [16, 16], "frames": 1}))
    return ["--config", str(cfg), "--out", str(root / "o"), "synth"]


EDGE_INPUTS = (empty_masks_argv, zero_rotation_argv, wide_tube_argv)


def _one_error_line(capsys, argv):
    """cli.main(argv)'s exit code must be 1 and its stderr one `error:`
    line; returns that line."""
    code = cli.main(argv)
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1, err
    return err


class TestCli:
    def _run(self, *argv):
        assert cli.main(list(argv)) == 0

    def test_full_pipeline(self, tmp_path):
        out = str(tmp_path / "run")
        self._run("--seed", "1", "--out", out, "--resolution", "32x32",
                  "synth", "--frames", "6")
        traj = os.path.join(out, "trajectory.txt")
        assert os.path.exists(traj)
        assert len(os.listdir(os.path.join(out, "masks"))) == 6

        self._run("--seed", "1", "--out", os.path.join(out, "fields"),
                  "--resolution", "32x32", "lift", "--traj", traj)
        assert os.path.exists(os.path.join(out, "fields", "field_0001.kvaf"))
        assert os.path.exists(os.path.join(out, "fields", "channel_stats.csv"))

        self._run("--seed", "1", "--out", os.path.join(out, "routing"),
                  "--resolution", "32x32", "route", "--traj", traj)
        stats = Path(out, "routing", "routing_stats.csv").read_text()
        assert stats.splitlines()[0].startswith("bin,mean_motion,fusion_")

        self._run("--seed", "1", "--out", os.path.join(out, "losses"),
                  "--resolution", "32x32", "losses", "--traj", traj)
        grad = Path(out, "losses", "grad_check.csv").read_text()
        for row in grad.splitlines()[1:]:
            assert float(row.split(",")[1]) < 1e-5

        self._run("--seed", "1", "--out", os.path.join(out, "sched"),
                  "--resolution", "32x32", "schedule", "--traj", traj)
        cost = Path(out, "sched", "cost_summary.csv").read_text()
        assert "adaptive_default" in cost

        self._run("--out", os.path.join(out, "metrics"), "eval",
                  "--pred", os.path.join(out, "masks"),
                  "--target", os.path.join(out, "masks"))
        lines = Path(out, "metrics", "metrics.csv").read_text().splitlines()
        mean = lines[-1].split(",")
        assert mean[0] == "mean"
        assert float(mean[1]) == 0.0  # CD against itself
        assert float(mean[4]) == 1.0  # Dice against itself

        self._run("--out", os.path.join(out, "rep"), "report", "--inputs",
                  os.path.join(out, "metrics", "metrics.csv"),
                  os.path.join(out, "sched", "cost_summary.csv"))
        assert os.path.exists(os.path.join(out, "rep", "report.csv"))

    def test_rerun_byte_identical(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = str(tmp_path / name)
            self._run("--seed", "5", "--out", out, "--resolution", "32x32",
                      "synth", "--frames", "4")
            traj = os.path.join(out, "trajectory.txt")
            self._run("--seed", "5", "--out", os.path.join(out, "fields"),
                      "--resolution", "32x32", "lift", "--traj", traj)
            self._run("--seed", "5", "--out", os.path.join(out, "routing"),
                      "--resolution", "32x32", "route", "--traj", traj)
            outs.append(_tree_bytes(out))
        assert outs[0].keys() == outs[1].keys()
        for name in outs[0]:
            assert outs[0][name] == outs[1][name], name

    def test_different_seed_differs(self, tmp_path):
        files = []
        for seed in ("1", "2"):
            out = str(tmp_path / seed)
            self._run("--seed", seed, "--out", out, "--resolution", "32x32",
                      "synth", "--frames", "4")
            files.append(Path(out, "trajectory.txt").read_bytes())
        assert files[0] != files[1]

    def test_missing_file_clean_error(self, tmp_path, capsys):
        code = cli.main(["--out", str(tmp_path), "eval",
                         "--pred", str(tmp_path / "nope"),
                         "--target", str(tmp_path / "nope")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_trajectory_clean_exit(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("camera 1 1 0 0 8 8\nframe 1 0 0 1 0 0 0 0 0 0\n")
        code = cli.main(["--out", str(tmp_path / "o"), "lift",
                         "--traj", str(bad)])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("pred,target", BAD_MASKS)
    def test_eval_bad_masks_clean_error(self, tmp_path, capsys, pred, target):
        _one_error_line(capsys, mask_argv(tmp_path, pred, target))

    @pytest.mark.parametrize("resolution", BAD_RESOLUTIONS)
    def test_bad_resolution_clean_error(self, tmp_path, capsys, resolution):
        err = _one_error_line(capsys, resolution_argv(tmp_path, resolution))
        assert "resolution" in err, err

    @pytest.mark.parametrize("text,command", BAD_CONFIGS)
    def test_bad_config_clean_error(self, tmp_path, capsys, text, command):
        _one_error_line(capsys, config_argv(tmp_path, text, command))

    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(fm.Config)])
    def test_config_error_names_the_key(self, tmp_path, capsys, name):
        # validators name values as the code does ("k", "K", "T"); the error
        # must name the key the user wrote
        value = _out_of_range(getattr(fm.Config(), name))
        err = _one_error_line(capsys, config_argv(
            tmp_path, json.dumps({name: value}), "synth"))
        assert repr(name) in err, err

    def test_stride_that_does_not_divide_the_frame(self, tmp_path, capsys):
        err = _one_error_line(capsys, config_argv(tmp_path, '{"stride": 3}',
                                                  "route"))
        assert err == "error: stride 3 does not divide the 32x32 frame\n"

    @pytest.mark.parametrize("config, command, message", [
        # the work bounds come first, then the stride, then route's bins
        ({"stride": 3, "token_dim": 10 ** 9}, "losses",
         "token_dim 1000000000 x 1 frames x 1x1 tokens are 1000000000 token "
         "entries, over the work bound"),
        ({"stride": 3}, "run", "stride 3 does not divide the 4x4 frame"),
        ({"stride": 3}, "schedule", "stride 3 does not divide the 4x4 frame"),
        ({}, "run", "route needs at least 3 tokens for its 3 motion bins"),
        # lift alone does not route: any stride goes
        ({"stride": 3}, "lift", None),
    ], ids=["work-bound", "stride-run", "stride-schedule", "bins", "lift"])
    def test_routing_preconditions_before_the_lift(self, tmp_path, capsys,
                                                   monkeypatch, config,
                                                   command, message):
        # on a one-frame 4x4 trajectory; a failed check lifts nothing
        lift, lifts = kvf.lift_trajectory, []

        def counted(*args):
            lifts.append(args)
            return lift(*args)

        monkeypatch.setattr(kvf, "lift_trajectory", counted)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(config))
        traj = _trajectory_file(tmp_path, 4, frames=1)
        argv = ["--config", str(cfg), "--out", str(tmp_path / "o"), command,
                "--traj", str(traj)]
        if message is None:
            assert cli.main(argv) == 0 and len(lifts) == 1
            assert (tmp_path / "o" / "field_0001.kvaf").exists()
            return
        assert _one_error_line(capsys, argv).startswith(f"error: {message}")
        assert lifts == [] and not os.listdir(tmp_path / "o")

    @pytest.mark.parametrize("argv,message", BAD_ARGUMENTS)
    def test_bad_argument_clean_error(self, tmp_path, capsys, argv, message):
        err = _one_error_line(capsys, argument_argv(tmp_path, argv, message))
        assert err.startswith(f"error: {message.format(root=tmp_path)}"), err

    def test_eval_empty_and_one_sided_masks(self, tmp_path):
        # frames 2 and 3 are empty in both masks: no Chamfer distance (nan),
        # Dice 1, and IoU 1 between them; in frame 4 the gripper is in the
        # prediction alone, so its Chamfer distance is invalid (nan) and
        # Dice is 0. The means skip the nan entries
        self._run(*empty_masks_argv(tmp_path))
        with open(tmp_path / "o" / "metrics.csv", encoding="utf-8") as f:
            rows = [line.split(",") for line in f.read().splitlines()]
        assert rows[0] == ["frame", "cd", "ti", "af", "dice"]
        got = [[float(v) for v in row[1:]] for row in rows[1:]]
        nan = float("nan")
        want = [[0.0, nan, nan, 1.0], [nan, 0.0, 1.0, 1.0],
                [nan, 1.0, 0.0, 1.0], [nan, 0.0, 4.0, 0.0],
                [0.0, 1 / 3, 5 / 3, 0.75]]
        np.testing.assert_array_equal(got, want)
        assert [row[0] for row in rows[1:]] == ["1", "2", "3", "4", "mean"]

    def test_zero_rotation_vector_lifts_the_unrotated_tool(self, tmp_path):
        # at r = 0 and q = 0 the shaft runs along the optical axis from 1 cm
        # to 9 cm deep: the principal point's ray meets its near cap (radius
        # 4 mm) at 6 mm, and its axis projects to a point, so its rotation
        # channel is 0, as are the gripper's (along u) and the wrist's
        self._run(*zero_rotation_argv(tmp_path))
        field = fm.read_field(tmp_path / "o" / "field_0001.kvaf")
        channels = field.channels
        assert channels[16, 16, 0] == 1.0  # s_shaft
        assert abs(channels[16, 16, kvf.DEPTH] - 0.006) < 1e-9
        assert not channels[..., 4].any()

    def test_tube_past_crop_max_covers_the_frame(self, tmp_path):
        # every pixel lies inside every part's tube, so each takes the label
        # of the part whose midpoint is nearest
        self._run(*wide_tube_argv(tmp_path))
        labels = fm.read_pgm(tmp_path / "o" / "masks" / "frame_0001.pgm")
        assert labels.shape == (16, 16)
        assert len(np.unique(labels)) == 1 and labels[0, 0] > 0

    def test_failed_write_leaves_no_temp_file(self, tmp_path, capsys):
        _one_error_line(capsys, argument_argv(
            tmp_path, ["--out", "BLOCKED", "synth", "--frames", "1"], None))
        assert not [name for name in os.listdir(tmp_path / "blocked")
                    if name.startswith(".tmp-")]

    @pytest.mark.parametrize("argv", [["-h"], ["route", "-h"]],
                             ids=["top", "subcommand"])
    def test_help_exits_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: kvacontrol")

    def test_losses_src_check_one_logits_call_per_eval(self, tmp_path,
                                                       monkeypatch):
        # each evaluation forms the logits' product tokens @ w once
        traj = _trajectory_file(tmp_path, 32)  # T=2 frames
        products = []
        checks = []  # (loss evaluations, products with w) per grad check
        real_check = pr.grad_check

        class CountedWeights(np.ndarray):
            """Weights that count the matrix products they take part in."""

            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                if ufunc is np.matmul:
                    products.append(ufunc)
                inputs = [np.asarray(x) for x in inputs]
                return getattr(ufunc, method)(*inputs, **kwargs)

        def counted_check(loss_fn, arrays, analytic):
            evals, before = [], len(products)

            def counted_fn(arrs):
                evals.append(arrs)
                counted = dict(arrs)
                if "w" in counted:
                    counted["w"] = arrs["w"].view(CountedWeights)
                return loss_fn(counted)

            err = real_check(counted_fn, arrays, analytic)
            checks.append((len(evals), len(products) - before))
            return err

        monkeypatch.setattr(pr, "grad_check", counted_check)
        self._run("--out", str(tmp_path / "o"), "losses", "--traj", str(traj))
        assert len(checks) == 3  # cp_loss, kp_alb_loss, src_loss
        n_evals, n_products = checks[2]
        n_params = (fm.Config().token_dim + 1) * pr.N_EXPERTS  # w and b
        assert n_evals == 2 * n_params
        assert n_products == n_evals
        assert checks[0] == checks[2]  # cp: the same parameters, one product each

    def test_losses_src_check_recomputes_one_column_per_eval(self, tmp_path,
                                                             monkeypatch):
        traj = _trajectory_file(tmp_path, 32)  # T=2 frames
        entries = [0]  # sigmoid entries computed so far
        checks = []  # (loss evaluations, sigmoid entries) per grad check
        real_sigmoid, real_check = pr._sigmoid, pr.grad_check

        def counted_sigmoid(z, *args, **kwargs):
            entries[0] += np.size(z)
            return real_sigmoid(z, *args, **kwargs)

        def counted_check(loss_fn, arrays, analytic):
            evals, before = [], entries[0]

            def counted_fn(arrs):
                evals.append(arrs)
                return loss_fn(arrs)

            err = real_check(counted_fn, arrays, analytic)
            checks.append((len(evals), entries[0] - before))
            return err

        monkeypatch.setattr(pr, "_sigmoid", counted_sigmoid)
        monkeypatch.setattr(pr, "grad_check", counted_check)
        self._run("--out", str(tmp_path / "o"), "losses", "--traj", str(traj))
        assert len(checks) == 3  # cp_loss, kp_alb_loss, src_loss
        n_evals, n_entries = checks[2]
        cfg = fm.Config()
        column = 2 * (32 // cfg.stride) ** 2  # one expert's (T, H', W') logits
        assert n_evals == 2 * (cfg.token_dim + 1) * pr.N_EXPERTS
        # the report's call before the check computed the base columns;
        # each evaluation then changes one column
        assert 0 < n_entries <= n_evals * column

    @pytest.mark.parametrize("command", ["lift", "route"])
    def test_far_off_pose_has_no_tool_pixel(self, tmp_path, capsys, command):
        # a finite pose whose projection overflows to +-inf: nothing of the
        # tool is in the frame, and no warning reaches stderr
        traj = tmp_path / "t.txt"
        fm.write_trajectory(traj, Trajectory(
            states=(ArticulatedState.from_vector(
                [1e306, 0, 0.11, 0.25, -0.06, -0.2, 0.03, 0.34, 0.34]),),
            dt=1 / 30), default_camera(32, 32))
        out = tmp_path / "o"
        code = cli.main(["--out", str(out), command, "--traj", str(traj)])
        assert (code, capsys.readouterr().err) == (0, "")
        if command == "lift":
            channels = fm.read_field(out / "field_0001.kvaf").channels
            assert not channels[..., :3].any()

    @pytest.mark.parametrize("p", [(0.0, 0.0, 1.7e308), (1e308, 0.0, 1e308)],
                             ids=["z-1.7e308", "x-and-z-1e308"])
    def test_overflowing_midpoint_runs_without_warnings(self, tmp_path,
                                                        capsys, p):
        # every part's midpoint sum overflows, and its rotation Jacobian is
        # nan; the run succeeds, and no warning reaches stderr
        traj = tmp_path / "t.txt"
        fm.write_trajectory(traj, Trajectory(states=tuple(
            ArticulatedState.from_vector([*p, 0.25, -0.06, -0.2, 0.03, 0.34,
                                          0.34]) for _ in range(3)),
            dt=1 / 30), default_camera(32, 32))
        code = cli.main(["--out", str(tmp_path / "o"), "run",
                         "--traj", str(traj)])
        assert (code, capsys.readouterr().err) == (0, "")

    def test_motion_overflow_names_frame_and_part(self, tmp_path, capsys):
        # an ordinary dt; frame 1 lies 1e306 m to the side, frame 2 on axis
        states = [ArticulatedState.from_vector(
            [x, 0, 0.11, 0.25, -0.06, -0.2, 0.03, 0.34, 0.34])
            for x in (1e306, 0.0)]
        traj = tmp_path / "t.txt"
        fm.write_trajectory(traj, Trajectory(states=states, dt=1 / 30),
                            default_camera(32, 32))
        code = cli.main(["--out", str(tmp_path / "o"), "lift",
                         "--traj", str(traj)])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: frame 2: the shaft's projected velocity or acceleration "
            "exceeds float32's range (dt 0.0333333)\n")

    @pytest.mark.parametrize("frames", [1, 2, 3])
    def test_route_fewer_tokens_than_bins(self, tmp_path, capsys, frames):
        # a 4x4 frame at stride 4 is one token, for 3 motion bins; run checks
        # route's precondition before it writes any file, lift's included
        traj = _trajectory_file(tmp_path, 4, frames=frames)
        for command in ("route", "run"):
            out = tmp_path / command
            code = cli.main(["--out", str(out), command, "--traj", str(traj)])
            err = capsys.readouterr().err
            if frames >= 3:
                assert code == 0 and err == ""
                assert "nan" not in (out / "routing_stats.csv").read_text()
                continue
            assert code == 1
            assert err == (f"error: route needs at least 3 tokens for its 3 "
                           f"motion bins, got {frames}\n")
            assert not os.listdir(out)

    def test_routing_runs_compute_no_expert_outputs(self, tmp_path,
                                                    monkeypatch):
        # 3 frames of 8 x 8 tokens, routed 2 frames at a time
        frames, tokens = 3, 64
        monkeypatch.setattr(cli, "ROUTE_BATCH_TOKENS", 2 * tokens)
        traj = _trajectory_file(tmp_path, 32, frames=frames)
        # what each stage is counted in: frames routed, gated or scored,
        # tokens inner-gated, and calls
        stages = {"read_trajectory": (cli, None), "lift_trajectory": (kvf, None),
                  "compute_stats": (kvf, None),
                  "route_forward": (rt, lambda args, kwargs: kwargs["frames"]),
                  "outer_gate": (rt, lambda args, kwargs: len(args[0])),
                  "inner_gate": (rt, lambda args, kwargs: args[0][..., 0].size),
                  "motion_intensity": (sched, None),
                  "significance": (sched, lambda args, kwargs: len(args[0])),
                  "partition": (sched, None)}
        calls = {}

        def counted(name, real, measure):
            def wrapper(*args, **kwargs):
                calls[command][name] += measure(args, kwargs) if measure else 1
                return real(*args, **kwargs)
            return wrapper

        for name, (module, measure) in stages.items():
            monkeypatch.setattr(module, name,
                                counted(name, getattr(module, name), measure))
        for command in cli.TRAJECTORY_COMMANDS:
            calls[command] = dict.fromkeys(stages, 0)
            self._run("--out", str(tmp_path / command), command,
                      "--traj", str(traj))
        # each command reads, lifts and measures its trajectory once and
        # routes each frame at most once; only the writers that read the
        # significance and the execution plans (route and schedule) form
        # them: the motion once, each frame's significance once, and every
        # frame's plan in one partition call. Those two gate every frame;
        # losses, which reads only the last frame's gates, gates that frame
        # alone
        for command, counts in calls.items():
            routed = 0 if command == "lift" else frames
            planned = command in ("route", "schedule", "run")
            gated = frames if planned else int(command == "losses")
            assert counts == {"read_trajectory": 1, "lift_trajectory": 1,
                              "compute_stats": 1, "route_forward": routed,
                              "outer_gate": gated,
                              "inner_gate": gated * rt.N_EXPERTS * tokens,
                              "motion_intensity": int(planned),
                              "significance": frames * planned,
                              "partition": int(planned)}, command

    @pytest.mark.parametrize("case", [4, 9, 3], ids=["t1", "w1", "token33"])
    def test_losses_routing_matches_planned_routing(self, tmp_path, case):
        # losses gates only the last frame; the tokens of every frame and the
        # last frame's decision must keep the bits of a pass that gates all
        kwargs = CASES[case][1]
        seed = kwargs["seed"]
        self._run("--seed", str(seed), "--out", str(tmp_path),
                  "--resolution", kwargs.get("resolution", "64x64"), "synth",
                  "--frames", str(kwargs.get("frames", 4)))
        cfg = fm.load_config(None, kwargs.get("config"))
        traj = tmp_path / "trajectory.txt"
        *_, alone = cli._trajectory_pass(cfg, seed, traj, None, ("losses",))
        *_, planned = cli._trajectory_pass(cfg, seed, traj, None, cli.WRITERS)
        assert alone.motion is None and planned.motion is not None
        assert alone.tokens.tobytes() == planned.tokens.tobytes()
        for field in dataclasses.fields(rt.RoutingDecision):
            assert (getattr(alone.last, field.name).tobytes()
                    == getattr(planned.last, field.name).tobytes()), field.name

    @pytest.mark.parametrize("command", ["lift", "losses", "run"])
    @pytest.mark.parametrize("claim", ["pixels", "tokens"])
    def test_work_bound_rejected_before_lift(self, tmp_path, capsys,
                                             monkeypatch, command, claim):
        # the trajectory claims a 100000 x 100000 camera, or the config a
        # token_dim whose token stack would hold 1.28e9 entries; neither is
        # drawn or lifted
        def fail(*args, **kwargs):
            raise AssertionError("lifted past the work bound")

        monkeypatch.setattr(kvf, "lift_trajectory", fail)
        argv = ["--out", str(tmp_path / "o")]
        if claim == "pixels":
            traj = tmp_path / "t.txt"
            fm.write_trajectory(traj, synth_trajectory("composite", T=1,
                                                       seed=0),
                                default_camera(100000, 100000))
            limit = f"MAX_PIXELS = {cli.MAX_PIXELS}"
        else:
            traj = _trajectory_file(tmp_path, 32)  # 2 frames of 8 x 8 tokens
            cfg = tmp_path / "c.json"
            cfg.write_text(json.dumps({"token_dim": 10 ** 7}))
            argv += ["--config", str(cfg)]
            limit = f"MAX_TOKEN_ENTRIES = {cli.MAX_TOKEN_ENTRIES}"
        code = cli.main(argv + [command, "--traj", str(traj)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert limit in err
        assert not os.listdir(tmp_path / "o")

    @pytest.mark.parametrize("flags,limit", [
        (["--resolution", "100000x100000", "synth", "--frames", "1"],
         "MAX_PIXELS"),
        (["synth", "--frames", str(10 ** 8)], "MAX_PIXELS"),
        (["--resolution", "8192x8192", "synth", "--frames", "1"],
         "MAX_TOKEN_ENTRIES"),
    ], ids=["frame-size", "frame-count", "tokens"])
    def test_synth_work_bound_rejected_before_drawing(self, tmp_path, capsys,
                                                      monkeypatch, flags,
                                                      limit):
        def fail(*args, **kwargs):
            raise AssertionError("drew past the work bound")

        monkeypatch.setattr(cli, "synth_trajectory", fail)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"token_dim": 64}))
        code = cli.main(["--config", str(cfg), "--out", str(tmp_path / "o"),
                         *flags])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert f"{limit} = {getattr(cli, limit)}" in err

    def test_work_bounds_are_inclusive(self):
        # at stride 4, 8192 x 8192 is MAX_PIXELS exactly (and half of
        # MAX_TOKEN_ENTRIES at token_dim 16), and 8192 x 4096 at token_dim 64
        # is MAX_TOKEN_ENTRIES exactly; nothing is allocated
        cfg = fm.Config()
        assert 8192 * 8192 == cli.MAX_PIXELS
        cli._check_work(cfg, 1, 8192, 8192)
        with pytest.raises(InvalidParams, match="MAX_PIXELS"):
            cli._check_work(cfg, 1, 8192, 8193)
        cfg = fm.Config(token_dim=64)
        assert 64 * 2048 * 1024 == cli.MAX_TOKEN_ENTRIES
        cli._check_work(cfg, 1, 8192, 4096)
        with pytest.raises(InvalidParams, match="MAX_TOKEN_ENTRIES"):
            cli._check_work(cfg, 1, 8192, 4100)

    def test_route_normalizes_only_tool_blocks(self, tmp_path, monkeypatch):
        # the routing grids are pooled from the blocks that hold a tool pixel
        # plus one zero block for the background row; a dense normalize of
        # every frame would pass T * H * W pixels
        traj = _trajectory_file(tmp_path, 64, frames=3)
        s = fm.Config().stride
        t, cam, _ = fm.read_trajectory(traj)
        labels = kvf.lift_trajectory(t, ToolGeometry(), cam).labels
        tool_blocks = sum(int((rt.avg_pool((m >= 0).astype(float), s) > 0).sum())
                          for m in labels)
        bound = (tool_blocks + 1) * s * s
        assert bound < labels.size  # the premise: the tool is small
        pixels = [0]
        real = kvf.normalize

        def counted(channels, stats):
            pixels[0] += np.size(channels) // kvf.N_CHANNELS
            return real(channels, stats)

        monkeypatch.setattr(kvf, "normalize", counted)
        self._run("--out", str(tmp_path / "o"), "route", "--traj", str(traj))
        assert 0 < pixels[0] <= bound

    def test_route_peaks_below_one_dense_stack(self, tmp_path):
        # a lifted trajectory holds labels, depth and per-part tables, and
        # dense channels are painted only for the tool's blocks, so a route
        # run at 256 x 256, T=4 never holds as much as one (T, H, W, 9)
        # float64 stack (18.9 MB; the run peaks at about 16.9 MB)
        size, frames = 256, 4
        traj = _trajectory_file(tmp_path, size, frames=frames)
        tracemalloc.start()
        try:
            self._run("--out", str(tmp_path / "o"), "route", "--traj", str(traj))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < frames * size * size * kvf.N_CHANNELS * 8

    @pytest.mark.parametrize("command", ["lift", "schedule"])
    @pytest.mark.parametrize("frames,dt,finite", [
        (3, "1e-300", False),
        (2, "1e-40", True),
    ], ids=["dt-motion-overflows", "dt-motion-beyond-float32"])
    def test_motion_out_of_float32_range_clean_error(self, tmp_path, capsys,
                                                     frames, dt, finite,
                                                     command):
        traj = _trajectory_file(tmp_path, 32, frames=frames)
        traj.write_text("".join(
            f"dt {dt}\n" if line.startswith("dt ") else line + "\n"
            for line in traj.read_text().splitlines()))
        # the case's premise: at T=3 the acceleration overflows float64; at
        # T=2 the velocity is finite in float64 but beyond float32
        t, cam, _ = fm.read_trajectory(traj)
        poses = stacked([forward_kinematics(s, ToolGeometry()) for s in t.states])
        with np.errstate(over="ignore", invalid="ignore"):
            motion = kvf.motion_channels(poses, cam, t.dt)
        assert np.isfinite(motion).all() == finite
        assert np.abs(motion).max() > np.finfo(np.float32).max

        code = cli.main(["--out", str(tmp_path / "o"), command,
                         "--traj", str(traj)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert not os.listdir(tmp_path / "o")

    @pytest.mark.parametrize("exc", [
        MemoryError("Unable to allocate 7.28 TiB for an array with shape "
                    "(1000000000000,) and data type float64"),
        MemoryError(),
    ], ids=["numpy-message", "bare"])
    def test_out_of_memory_clean_error(self, tmp_path, capsys, monkeypatch,
                                       exc):
        def fail(*args, **kwargs):
            raise exc

        monkeypatch.setattr(kvf, "lift_trajectory", fail)
        traj = _trajectory_file(tmp_path, 32)
        code = cli.main(["--out", str(tmp_path / "o"), "lift",
                         "--traj", str(traj)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert err.strip() != "error:"
        assert not os.listdir(tmp_path / "o")

    @pytest.mark.parametrize("command", cli.TRAJECTORY_COMMANDS)
    def test_resolution_mismatch_clean_error(self, tmp_path, capsys, command):
        traj = _trajectory_file(tmp_path, 64)
        code = cli.main(["--out", str(tmp_path / "o"), "--resolution", "32x32",
                         command, "--traj", str(traj)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert not os.listdir(tmp_path / "o")

    @pytest.mark.parametrize("record,pos,value,message", BAD_TRAJECTORY_VALUES)
    def test_bad_trajectory_value_clean_error(self, tmp_path, capsys, record,
                                              pos, value, message):
        err = _one_error_line(capsys, trajectory_value_argv(
            tmp_path, record, pos, value, message))
        assert err.startswith(f"error: {message}"), err

    def test_config_file(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"frames": 3, "resolution": [24, 24]}))
        out = str(tmp_path / "out")
        self._run("--config", str(cfg), "--out", out, "synth")
        from kvacontrol.formats import read_pgm
        masks = sorted(os.listdir(os.path.join(out, "masks")))
        assert len(masks) == 3
        labels = read_pgm(os.path.join(out, "masks", masks[0]))
        assert labels.shape == (24, 24)
