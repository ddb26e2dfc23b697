import dataclasses
import json
import os
import tracemalloc

import numpy as np
import pytest

from kvacontrol import cli
from kvacontrol import kva_field as kvf
from kvacontrol import formats as fm
from kvacontrol import priors as pr
from kvacontrol import routing as rt
from kvacontrol import scheduler as sched
from kvacontrol.errors import (
    BadMagic,
    InvariantViolation,
    ParseError,
    TruncatedFile,
    VersionMismatch,
)
from kvacontrol.kinematics import (ArticulatedState, ToolGeometry,
                                   Trajectory, default_camera,
                                   forward_kinematics, synth_trajectory)


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
        with pytest.raises(InvariantViolation):
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
        with pytest.raises(ParseError):
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
    """The trajectory file's text with `record`'s value at `pos` replaced."""
    lines = [line.split() for line in open(traj).read().splitlines()]
    next(parts for parts in lines if parts[0] == record)[pos] = value
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
    old = next(line.split() for line in open(traj)
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
    text = open(live_base[0]).read()
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


def _tree_bytes(root):
    out = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            p = os.path.join(dirpath, name)
            out[os.path.relpath(p, root)] = open(p, "rb").read()
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
        stats = open(os.path.join(out, "routing", "routing_stats.csv")).read()
        assert stats.splitlines()[0].startswith("bin,mean_motion,fusion_")

        self._run("--seed", "1", "--out", os.path.join(out, "losses"),
                  "--resolution", "32x32", "losses", "--traj", traj)
        grad = open(os.path.join(out, "losses", "grad_check.csv")).read()
        for row in grad.splitlines()[1:]:
            assert float(row.split(",")[1]) < 1e-5

        self._run("--seed", "1", "--out", os.path.join(out, "sched"),
                  "--resolution", "32x32", "schedule", "--traj", traj)
        cost = open(os.path.join(out, "sched", "cost_summary.csv")).read()
        assert "adaptive_default" in cost

        self._run("--out", os.path.join(out, "metrics"), "eval",
                  "--pred", os.path.join(out, "masks"),
                  "--target", os.path.join(out, "masks"))
        lines = open(os.path.join(out, "metrics", "metrics.csv")).read().splitlines()
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
            files.append(open(os.path.join(out, "trajectory.txt"), "rb").read())
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

    @pytest.mark.parametrize("pred,target", [
        (_pgm_bytes(64, 64), _pgm_bytes(256, 256)),
        (b"P5\nxx 4\n255\n", _pgm_bytes(4, 4)),
        (_pgm_bytes(8, 8, label=5), _pgm_bytes(8, 8)),
    ], ids=["size-mismatch", "pgm-header", "label-out-of-range"])
    def test_eval_bad_masks_clean_error(self, tmp_path, capsys, pred, target):
        for name, data in (("pred", pred), ("target", target)):
            (tmp_path / name).mkdir()
            (tmp_path / name / "frame_0001.pgm").write_bytes(data)
        code = cli.main(["--out", str(tmp_path / "o"), "eval",
                         "--pred", str(tmp_path / "pred"),
                         "--target", str(tmp_path / "target")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1, err

    @pytest.mark.parametrize("resolution", ["64", "ax64", "0x0", "64x-1"])
    def test_bad_resolution_clean_error(self, tmp_path, capsys, resolution):
        code = cli.main(["--out", str(tmp_path), "--resolution", resolution,
                         "synth", "--frames", "1"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert "resolution" in err, err

    @pytest.mark.parametrize("text,command", [
        ('{"stride": 4', "synth"),
        ('{"stride": "4"}', "synth"),
        ('{"frames": 2.5}', "synth"),
        ('{"resolution": "64x64"}', "synth"),
        ('{"top_k": true}', "synth"),
        ('{"rho_full": 0.9, "rho_light": 0.9}', "schedule"),
        ('{"rho_light": -0.1}', "route"),
        ('{"stride": 0}', "route"),
        ('{"stride": -4}', "losses"),
        ('{"token_dim": 0}', "route"),
        ('{"tube_half_width": -3.0}', "synth"),
        ('{"top_k": 9}', "route"),
        ('{"top_k": 0}', "losses"),
        ('{"dense_end": 0.9}', "schedule"),
        ('{"refresh_k": 0}', "schedule"),
        ('{"progress": -5.0}', "route"),
        ('{"progress": 1.5}', "losses"),
        ('{"timestep": 1e300}', "route"),
        # loss weights, then values that the command does not read
        ('{"lam_kp": NaN}', "losses"),
        ('{"lam_src": -0.5}', "losses"),
        ('{"lam_cp": Infinity}', "losses"),
        ('{"lam_sub": -1}', "synth"),
        ('{"lam_kp": 1' + '0' * 400 + '}', "lift"),
        ('{"rho_light": NaN}', "schedule"),
        ('{"top_k": 99}', "lift"),
        ('{"stride": 0}', "lift"),
        ('{"refresh_k": 0}', "lift"),
        ('{"rho_full": 5.0}', "lift"),
        ('{"dense_end": 0.9}', "synth"),
        ('{"progress": 2.0}', "lift"),
        ('{"timestep": -1.0}', "synth"),
        ('{"token_dim": 0}', "synth"),
        ('{"resolution": [0, 32]}', "lift"),
        ('{"frames": 0}', "route"),
        ('{"trajectory_kind": "spiral"}', "lift"),
        ('{"tube_half_width": 0.0}', "schedule"),
        ('{"tube_half_width": Infinity}', "synth"),
    ], ids=["invalid-json", "stride-str", "frames-float", "resolution-str",
            "top_k-bool", "rho-sum", "rho-negative", "stride-0",
            "stride-negative", "token_dim-0", "half_width-negative", "top_k-9",
            "top_k-0", "dense_end-after-sparse_start", "refresh_k-0",
            "progress-negative", "progress-above-1", "timestep-huge",
            "lam_kp-nan", "lam_src-negative", "lam_cp-inf", "lam_sub-unread",
            "lam_kp-huge-int", "rho_light-nan", "top_k-unread", "stride-unread",
            "refresh_k-unread", "rho_full-unread", "dense_end-unread",
            "progress-unread", "timestep-unread", "token_dim-unread",
            "resolution-unread", "frames-unread", "kind-unread",
            "half_width-unread", "half_width-inf"])
    def test_bad_config_clean_error(self, tmp_path, capsys, text, command):
        cfg = tmp_path / "c.json"
        cfg.write_text(text)
        traj = _trajectory_file(tmp_path, 32)
        argv = ["--config", str(cfg), "--out", str(tmp_path / "o"), command]
        if command != "synth":
            argv += ["--traj", str(traj)]
        code = cli.main(argv)
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1, err

    @pytest.mark.parametrize("argv", [
        ["--seed", "-1", "synth"],
        ["--seed", "-1", "route", "--traj", "TRAJ"],
        ["synth", "--frames", "0"],
        ["synth", "--kind", ""],
        ["eval", "--pred", "EMPTY", "--target", "EMPTY"],
        # malformed command lines, which argparse alone would end in exit 2
        ["--seed", "abc", "synth"],
        ["--bogus", "synth"],
        ["route"],
        ["synth", "--frames", "x"],
        ["nope"],
        ["--resolution", "-16x16", "synth"],
        [],
        ["synth", "extra"],
        ["run"],
        ["--resolution", "16x16", "run", "--traj", "TRAJ"],
    ], ids=["seed-negative-synth", "seed-negative-route", "frames-0", "kind-empty",
            "eval-empty-dirs", "seed-not-int", "unknown-flag",
            "route-without-traj", "frames-not-int", "unknown-command",
            "resolution-negative", "no-command", "stray-positional",
            "run-without-traj", "run-resolution-mismatch"])
    def test_bad_argument_clean_error(self, tmp_path, capsys, argv):
        traj = _trajectory_file(tmp_path, 32)
        (tmp_path / "empty").mkdir()
        swap = {"TRAJ": str(traj), "EMPTY": str(tmp_path / "empty")}
        code = cli.main(["--out", str(tmp_path / "o"),
                         *(swap.get(a, a) for a in argv)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1, err

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

    @pytest.mark.filterwarnings("error")
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
        frames = 2
        traj = _trajectory_file(tmp_path, 32, frames=frames)
        stages = {"read_trajectory": cli, "lift_trajectory": kvf,
                  "compute_stats": kvf, "route_forward": rt,
                  "partition": sched}
        calls = {}

        def counted(name, real):
            def wrapper(*args, **kwargs):
                calls[command][name] += 1
                return real(*args, **kwargs)
            return wrapper

        for name, module in stages.items():
            monkeypatch.setattr(module, name,
                                counted(name, getattr(module, name)))
        for command in cli.TRAJECTORY_COMMANDS:
            calls[command] = dict.fromkeys(stages, 0)
            self._run("--out", str(tmp_path / command), command,
                      "--traj", str(traj))
        # each command reads, lifts and measures its trajectory once and
        # routes each frame at most once; only the writers that read the
        # execution plans (route and schedule) partition, once per frame
        for command, counts in calls.items():
            routed = 0 if command == "lift" else frames
            planned = frames if command in ("route", "schedule", "run") else 0
            assert counts == {"read_trajectory": 1, "lift_trajectory": 1,
                              "compute_stats": 1, "route_forward": routed,
                              "partition": planned}, command

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
        poses = [forward_kinematics(s, ToolGeometry()) for s in t.states]
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

    @pytest.mark.parametrize("record,pos,value", [
        ("dt", 1, "nan"),
        ("dt", 1, "inf"),
        ("camera", 5, "64.7"),
        ("camera", 6, "nan"),
        ("camera", 1, "nan"),
        ("extrinsic", 4, "inf"),
    ], ids=["dt-nan", "dt-inf", "width-fraction", "height-nan", "fx-nan",
            "translation-inf"])
    def test_bad_trajectory_value_clean_error(self, tmp_path, capsys, record,
                                              pos, value):
        traj = _trajectory_file(tmp_path, 64)
        traj.write_text(_with_value(traj, record, pos, value))
        code = cli.main(["--out", str(tmp_path / "o"), "lift", "--traj", str(traj)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1, err

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
