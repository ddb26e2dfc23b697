"""Routing in token-budgeted batches of frames.

`cli._routing_run` routes ROUTE_BATCH_TOKENS // (H' * W') consecutive frames
per `route_forward` call, at least one. The call counts pin that rule, and
the oracle cases check that a batch of one frame and a batch of the whole
trajectory give every `RoutingRun` field and every artefact the same bytes.
"""

import dataclasses
import json
import os

import numpy as np
import pytest

from kvacontrol import cli
from kvacontrol import formats as fm
from kvacontrol import kva_field as kvf
from kvacontrol import routing as rt
from kvacontrol.kinematics import ToolGeometry, default_camera, synth_trajectory


def _route_calls(monkeypatch, size, frames, planned):
    """(frames, gates) of each route_forward call of one routing run of a
    size x size composite trajectory at the default config."""
    geom = ToolGeometry()
    traj = synth_trajectory("composite", T=frames, seed=1, geom=geom)
    lifted = kvf.lift_trajectory(traj, geom, default_camera(size, size))
    calls = []
    route_forward = rt.route_forward

    def counted(*args, frames, gates, **kwargs):
        calls.append((frames, gates))
        return route_forward(*args, frames=frames, gates=gates, **kwargs)

    monkeypatch.setattr(rt, "route_forward", counted)
    cli._routing_run(fm.Config(), 0, lifted, kvf.compute_stats(lifted),
                     planned)
    return calls


@pytest.mark.parametrize("size, frames", [(256, 4), (128, 10), (64, 10)])
def test_frames_routed_in_token_budgeted_batches(monkeypatch, size, frames):
    # consecutive batches of ROUTE_BATCH_TOKENS // (H' * W') frames, at
    # least one: a 4096-token frame (256 x 256 at stride 4) is a batch of
    # its own (whole-trajectory batches at 256 x 256, T=4 were measured 35%
    # slower in route_forward), and 64 x 64 frames share their calls
    tokens = (size // fm.Config().stride) ** 2
    batch = max(1, cli.ROUTE_BATCH_TOKENS // tokens)
    planned = _route_calls(monkeypatch, size, frames, True)
    assert planned == ([(batch, True)] * (frames // batch)
                       + [(frames % batch, True)] * (frames % batch > 0))
    assert len(planned) == -(-frames // batch)
    # unplanned, the frames before the last in batches without gates, then
    # the last frame gated alone
    monkeypatch.undo()
    unplanned = _route_calls(monkeypatch, size, frames, False)
    rest = frames - 1
    assert unplanned == ([(batch, False)] * (rest // batch)
                         + [(rest % batch, False)] * (rest % batch > 0)
                         + [(1, True)])
    if size == 256:
        assert planned == [(1, True)] * frames
    if size == 64:
        assert len(planned) < frames


def _value_bytes(value):
    """The bytes of a RoutingRun field, recursing into dataclasses, dicts
    and tuples."""
    if isinstance(value, np.ndarray):
        return value.dtype.str.encode() + repr(value.shape).encode() + value.tobytes()
    if dataclasses.is_dataclass(value):
        return b"|".join(_value_bytes(getattr(value, f.name))
                         for f in dataclasses.fields(value))
    if isinstance(value, dict):
        return b"|".join(k.encode() + _value_bytes(v) for k, v in sorted(value.items()))
    if isinstance(value, tuple):
        return b"|".join(_value_bytes(v) for v in value)
    return repr(value).encode()


def _artefacts(root):
    out = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as f:
                out[os.path.relpath(path, root)] = f.read()
    return out


def _no_tool_frame(traj):
    """traj with frame 1's wrist moved 1 m to the side, out of view."""
    states = list(traj.states)
    states[1] = dataclasses.replace(states[1], p=states[1].p + [1.0, 0.0, 0.0])
    return dataclasses.replace(traj, states=tuple(states))


# (H, W, frames, config, trajectory edit)
ORACLE_CASES = {
    "w1": (128, 16, 4, {"stride": 16}, None),
    "t1": (32, 48, 1, {}, None),
    "token33": (64, 64, 4, {"token_dim": 33}, None),
    "stride8": (64, 64, 4, {"stride": 8}, None),
    "no-tool-frame": (64, 64, 4, {}, _no_tool_frame),
}


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_batch_size_does_not_change_routing(tmp_path, monkeypatch, case):
    h, w, frames, config, edit = ORACLE_CASES[case]
    geom = ToolGeometry()
    traj = synth_trajectory("composite", T=frames, seed=5, geom=geom)
    if edit is not None:
        traj = edit(traj)
    traj_path = tmp_path / "trajectory.txt"
    fm.write_trajectory(traj_path, traj, default_camera(w, h))
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    cfg = fm.load_config(str(config_path), {})
    tokens = (h // cfg.stride) * (w // cfg.stride)
    seen = []
    for budget in (1, frames * tokens):  # one frame per batch, then all
        monkeypatch.setattr(cli, "ROUTE_BATCH_TOKENS", budget)
        runs = {writers: cli._trajectory_pass(cfg, 5, traj_path, None,
                                              writers)[2]
                for writers in (cli.WRITERS, ("losses",))}
        out = tmp_path / str(budget)
        for command in ("run", "losses"):
            assert cli.main(["--seed", "5", "--config", str(config_path),
                             "--out", str(out / command), command,
                             "--traj", str(traj_path)]) == 0
        seen.append((runs, _artefacts(out)))
    (one, one_files), (whole, whole_files) = seen
    for writers, run in one.items():
        for field in dataclasses.fields(run):
            assert (_value_bytes(getattr(run, field.name))
                    == _value_bytes(getattr(whole[writers], field.name))), \
                (writers, field.name)
    assert one_files.keys() == whole_files.keys()
    for name, data in one_files.items():
        assert data == whole_files[name], name
    planned = one[cli.WRITERS]
    if case == "no-tool-frame":
        # the frame with no tool pixel shares its batch with tool frames and
        # alone normalizes to the constant map's 0.5
        assert not planned.m_tool[1].any()
        assert planned.m_tool[[0, 2, 3]].any(axis=(1, 2)).all()
        assert (planned.s_tilde[1] == 0.5).all()
        assert all((planned.s_tilde[t] != 0.5).any() for t in (0, 2, 3))
    if case == "w1":
        assert planned.tokens.shape[2] == 1
