"""File formats: trajectory text files, KVAF binary fields, P5 mask images,
JSON config, deterministic per-subsystem RNG streams, atomic writes."""

from __future__ import annotations

import dataclasses
import json
import os
import struct
import tempfile
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadMagic,
    InvalidParams,
    InvariantViolation,
    ParseError,
    TruncatedFile,
    VersionMismatch,
)
from .kinematics import (ArticulatedState, CameraModel, Trajectory,
                         _check_frames, _check_kind, default_camera)
from .kva_field import N_CHANNELS, KvaField
from .metrics import _check_half_width
from .priors import LossWeights
from .routing import (CapacitySchedule, _check_stride, _check_token_dim,
                      timestep_embed)
from .scheduler import BudgetConfig

KVAF_MAGIC = b"KVAF"
KVAF_VERSION = 1


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def atomic_write_bytes(path, *chunks):
    """Write the bytes-like chunks one after another; write-temp-then-rename
    so readers never observe partial files. A failure names `path`, not the
    temporary file, which is removed."""
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
        try:
            with os.fdopen(fd, "wb") as f:
                for chunk in chunks:
                    f.write(chunk)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from exc


def atomic_write_text(path, text: str):
    atomic_write_bytes(path, text.encode("utf-8"))


def subsystem_rng(seed: int, tag: str) -> np.random.Generator:
    """Independent stream per (seed, subsystem tag); adding a consumer does
    not perturb the streams of others."""
    return np.random.default_rng([seed, zlib.crc32(tag.encode("utf-8"))])


# ---------------------------------------------------------------------------
# Trajectory text format

# poses are camera-frame, so the world->camera [R | t] record is the identity
IDENTITY_EXTRINSIC = (1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0)


def write_trajectory(path, traj: Trajectory, cam: CameraModel, seq_id="seq"):
    lines = [f"seq {seq_id}"]
    lines.append("camera " + " ".join(
        _fmt(v) for v in (cam.fx, cam.fy, cam.cx, cam.cy)) +
        f" {cam.width} {cam.height}")
    lines.append("extrinsic " + " ".join(map(str, IDENTITY_EXTRINSIC)))
    lines.append(f"dt {_fmt(traj.dt)}")
    for i, state in enumerate(traj.states, start=1):
        lines.append(f"frame {i} " + " ".join(_fmt(v) for v in state.as_vector()))
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_trajectory(path):
    with open(path, "r", encoding="utf-8") as f:
        try:
            raw = f.read().splitlines()
        except UnicodeDecodeError as exc:
            raise ParseError(f"trajectory {path}: {exc}") from exc

    seq_id = None
    cam = None
    dt = None
    frames = {}
    seen = set()  # the records other than frame, which may appear once
    for ln, line in enumerate(raw, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        key, rest = parts[0], parts[1:]
        if key in seen:
            raise ParseError(f"repeated {key} record", line=ln)
        if key != "frame":
            seen.add(key)
        try:
            if key == "seq":
                seq_id = " ".join(rest)
            elif key == "camera":
                if len(rest) != 6:
                    raise ParseError("camera line needs 6 values", line=ln)
                # fx fy cx cy, then integer width and height; the camera's
                # own checks raise InvalidParams, a ValueError
                sizes = []
                for name, v in zip(("width", "height"), rest[4:]):
                    try:
                        sizes.append(int(v))
                    except ValueError:
                        raise ParseError(f"camera {name} must be an integer, "
                                         f"got {v!r}", line=ln) from None
                cam = CameraModel(*[float(v) for v in rest[:4]], *sizes)
            elif key == "extrinsic":
                if len(rest) != 12:
                    raise ParseError("extrinsic line needs 12 values", line=ln)
                if tuple(float(v) for v in rest) != IDENTITY_EXTRINSIC:
                    raise ParseError("extrinsic must be the identity [I | 0]: "
                                     "poses are camera-frame", line=ln)
            elif key == "dt":
                if len(rest) != 1:
                    raise ParseError("dt line needs 1 value", line=ln)
                # Trajectory's own check raises InvalidParams, a ValueError
                dt = Trajectory(states=(), dt=float(rest[0])).dt
            elif key == "frame":
                if len(rest) != 10:
                    raise ParseError("frame line needs index + 9 values", line=ln)
                idx = int(rest[0])
                if idx in frames:
                    raise ParseError(f"repeated frame {idx}", line=ln)
                vals = np.array([float(v) for v in rest[1:]])
                if not np.all(np.isfinite(vals)):
                    raise InvariantViolation(
                        f"line {ln}: non-finite action at frame {idx}")
                frames[idx] = ArticulatedState.from_vector(vals)
            else:
                raise ParseError(f"unknown record {key!r}", line=ln)
        except ValueError as exc:
            raise ParseError(str(exc), line=ln) from exc

    have = (seen | {"frame"}) if frames else seen
    missing = [key for key in ("camera", "extrinsic", "dt", "frame")
               if key not in have]
    if missing:
        raise ParseError(f"missing {'/'.join(missing)} "
                         f"record{'s' if len(missing) > 1 else ''}")
    gap = min(set(range(1, len(frames) + 2)) - frames.keys())
    if gap <= len(frames):
        raise InvariantViolation(
            f"frame indices must be contiguous from 1: frame {gap} is missing")

    traj = Trajectory(states=tuple(frames[i] for i in range(1, gap)), dt=dt)
    return traj, cam, seq_id


# ---------------------------------------------------------------------------
# KVAF binary field format


def write_field(field: KvaField, path):
    h, w = field.planes.shape[1:]
    header = KVAF_MAGIC + struct.pack("<5I", KVAF_VERSION, h, w, field.t, N_CHANNELS)
    # the planes are written from their own buffer, not copied into bytes
    atomic_write_bytes(path, header,
                       np.ascontiguousarray(field.planes, dtype="<f4"))


def read_field(path) -> KvaField:
    with open(path, "rb") as f:
        data = f.read()
    if data[:4] != KVAF_MAGIC:
        raise BadMagic(f"bad magic {data[:4]!r}")
    if len(data) < 24:
        raise TruncatedFile("header truncated")
    version, h, w, t, c = struct.unpack("<5I", data[4:24])
    if version != KVAF_VERSION:
        raise VersionMismatch(f"unsupported version {version}")
    expected = 24 + 4 * h * w * c
    if len(data) < expected:
        raise TruncatedFile(f"expected {expected} bytes, got {len(data)}")
    planes = np.frombuffer(data[24:expected], dtype="<f4").reshape(c, h, w)
    return KvaField(planes=planes, t=t)


# ---------------------------------------------------------------------------
# P5 portable graymap masks


def write_pgm(path, labels: np.ndarray):
    labels = np.asarray(labels)
    h, w = labels.shape
    header = f"P5\n{w} {h}\n255\n".encode("ascii")
    atomic_write_bytes(path, header + labels.astype(np.uint8).tobytes())


def read_pgm(path) -> np.ndarray:
    with open(path, "rb") as f:
        data = f.read()
    if not data.startswith(b"P5"):
        raise BadMagic("not a P5 graymap")
    fields = []
    pos = 2
    while len(fields) < 3:
        while pos < len(data) and data[pos:pos + 1].isspace():
            pos += 1
        if data[pos:pos + 1] == b"#":
            while pos < len(data) and data[pos:pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos:pos + 1].isspace():
            pos += 1
        if not data[start:pos].isdigit():
            raise ParseError(f"bad graymap header field {data[start:pos]!r}")
        fields.append(int(data[start:pos]))
    pos += 1  # single whitespace after maxval
    w, h, maxval = fields
    if maxval > 255:
        raise ParseError("only 8-bit graymaps supported")
    if w == 0 or h == 0:
        raise ParseError("graymap has no pixels")
    pixels = data[pos:pos + w * h]
    if len(pixels) < w * h:
        raise TruncatedFile("pixel data truncated")
    return np.frombuffer(pixels, dtype=np.uint8).reshape(h, w).astype(int)


# ---------------------------------------------------------------------------
# Config


@dataclass
class Config:
    """Run configuration; defaults match the constants used throughout."""

    resolution: tuple = (64, 64)
    stride: int = 4
    token_dim: int = 16
    top_k: int = 2
    dense_end: float = 0.40
    sparse_start: float = 0.75
    lam_kp: float = 0.01
    lam_src: float = 0.005
    lam_cp: float = 0.01
    lam_sub: float = 0.005
    rho_full: float = 0.2
    rho_light: float = 0.3
    refresh_k: int = 4  # slow refresh interval; the fast ones are 1 and 2
    tube_half_width: float = 3.0
    trajectory_kind: str = "composite"
    frames: int = 10
    progress: float = 1.0
    timestep: float = 0.5


def _matches(value, default) -> bool:
    """Whether a config value has the type of the field's default; a float
    field also takes an int. No field is a bool, so none takes one."""
    if isinstance(value, bool):
        return False
    if isinstance(default, float):
        return isinstance(value, (int, float))
    if isinstance(default, tuple):
        return (isinstance(value, (list, tuple)) and len(value) == len(default)
                and all(_matches(v, d) for v, d in zip(value, default)))
    return isinstance(value, type(default))


def load_config(path=None, overrides=None) -> Config:
    cfg = Config()
    data = {}
    if path is not None:
        with open(path, "r", encoding="utf-8") as f:
            try:
                data = json.load(f)
            except ValueError as exc:
                raise ParseError(f"config {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ParseError(f"config {path}: expected a JSON object")
    data.update(overrides or {})
    known = {f.name for f in dataclasses.fields(Config)}
    unknown = set(data) - known
    if unknown:
        raise ParseError(f"unknown config keys: {sorted(unknown)}")
    for key, value in data.items():
        default = getattr(cfg, key)
        if not _matches(value, default):
            raise ParseError(f"config field {key!r}: expected a value like "
                             f"{default!r}, got {value!r}")
        if isinstance(default, tuple):
            value = tuple(value)
        elif isinstance(default, float):
            try:
                value = float(value)
            except OverflowError as exc:
                raise ParseError(f"config field {key!r}: {exc}") from exc
        setattr(cfg, key, value)
    _check_ranges(cfg)
    return cfg


def _check_ranges(cfg: Config):
    """Range-check every value with the validator of the code that uses it,
    so a bad value fails at load time, also in a command that never reads
    it. The validators name values as the code does (`k`, `K`, `T`), so
    each runs on the keys it checks, the others at their defaults, and its
    InvalidParams is raised again with those keys in front."""
    h, w = cfg.resolution
    weights = ("lam_kp", "lam_src", "lam_cp", "lam_sub")
    checks = (
        (("resolution",), lambda: default_camera(width=w, height=h)),
        (("frames",), lambda: _check_frames(cfg.frames)),
        (("trajectory_kind",), lambda: _check_kind(cfg.trajectory_kind)),
        (("tube_half_width",), lambda: _check_half_width(cfg.tube_half_width)),
        (("stride",), lambda: _check_stride(cfg.stride)),
        (("token_dim",), lambda: _check_token_dim(cfg.token_dim)),
        (("top_k",), lambda: CapacitySchedule(k=cfg.top_k)),
        (("dense_end", "sparse_start"), lambda: CapacitySchedule(
            dense_end=cfg.dense_end, sparse_start=cfg.sparse_start)),
        (("progress",), lambda: CapacitySchedule().blend_factor(cfg.progress)),
        (("timestep",), lambda: timestep_embed(cfg.timestep)),
        (weights, lambda: LossWeights(**{k: getattr(cfg, k) for k in weights})),
        (("rho_full", "rho_light"), lambda: BudgetConfig(
            rho_full_target=cfg.rho_full, rho_light_target=cfg.rho_light)),
        (("refresh_k",), lambda: BudgetConfig(K=cfg.refresh_k)),
    )
    for keys, check in checks:
        try:
            check()
        except InvalidParams as exc:
            raise InvalidParams(
                f"config {', '.join(map(repr, keys))}: {exc}") from None
