"""Pipeline CLI: synth / lift / route / losses / schedule / run / eval / report.

Every subcommand is a pure function of (config, seed, input files); identical
invocations produce byte-identical outputs. Reports are CSV with a header row.

A trajectory command reads its trajectory, lifts it into compact form
(`kva_field.LiftedTrajectory`), computes its channel statistics and, unless
it is `lift`, routes every frame once, in batches of frames
(`_trajectory_pass`). `lift`, `route`, `losses` and `schedule` write their
artefacts from that one pass, and `run` writes all four's. No whole
(T, H, W, 9) stack is painted: `lift` paints a frame at a time, routing only
the tool's blocks (`_pooled_grids`). Routing forms every frame's action
tokens, and gates every frame for `route` and `schedule`; `losses` reads
every frame's tokens but only the last frame's gates, so on its own it
gates only the last frame.

Routing takes consecutive batches of ROUTE_BATCH_TOKENS // (H' * W')
frames, at least one. Each batch's grids are pooled, routed by one
`route_forward` call, and given their sub-expert mass and significance,
each step once over the batch's frames stacked along rows, and each frame
keeps the bits of being routed alone (see `routing`; `scheduler.significance`
normalizes each frame on its own). The results go into the run's (T, ...)
stacks. A 16 x 16 token grid (64 x 64 at stride 4) makes a pass over one
frame bound by numpy's per-call overhead, not by arithmetic, and a batch
pays it once; a 4096-token frame (256 x 256) gains nothing from company and
loses when two share a batch. The budget comes from a sweep of
`_routing_run` (composite, seed 1, one BLAS thread, 2 vCPUs; median of 15
interleaved rounds, each the best of 3 calls), against one frame per batch,
planned (`route`, `schedule`) / unplanned (`losses` alone):

| budget | 64 x 64, T=10 | 128 x 128, T=10 | 256 x 256, T=4 | 256 x 256, T=10 |
| --- | --- | --- | --- | --- |
| 2^10 | -26% / -31% | 0% / -5% (1 frame) | +1% / 0% (1 frame) | -2% / -1% (1 frame) |
| 2^11 | -31% / -25% | -8% / -7% | +2% / -1% (1 frame) | +1% / -1% (1 frame) |
| 2^12 | -36% / -22% | -1% / -12% | 0% / 0% (1 frame) | +3% / 0% (1 frame) |
| 2^13 | -33% / -22% | -1% / -18% | +7% / +4% | +5% / +7% |

2^12 takes the most at 64 x 64, where a trajectory of 10 frames is one
batch, and is the largest budget that keeps a 256 x 256 frame alone.

Before anything is drawn or lifted, a run is checked against two work
bounds: frames x H x W pixels (`MAX_PIXELS`) and token_dim x frames x H' x
W' token entries (`MAX_TOKEN_ENTRIES`). A trajectory command that routes is
then checked for a stride that divides its frame, and `route` for at least
N_MOTION_BINS tokens.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import formats
from . import kva_field as kvf
from . import metrics as mt
from . import priors as pr
from . import routing as rt
from . import scheduler as sched
from ._columns import columns, fold
from .errors import (EmptyCorpus, InvalidParams, KvaControlError, ParseError,
                     ShapeMismatch)
from .formats import (
    Config,
    atomic_write_text,
    load_config,
    read_pgm,
    read_trajectory,
    subsystem_rng,
    write_field,
    write_pgm,
    write_trajectory,
)
from .kinematics import (
    CameraModel,
    PartPoses,
    ToolGeometry,
    default_camera,
    forward_kinematics,
    synth_trajectory,
)


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return formats._fmt(x)


def write_csv(path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) if not isinstance(v, str) else v for v in row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def _camera(cfg: Config) -> CameraModel:
    h, w = cfg.resolution
    return default_camera(width=w, height=h)


def _derived_seed(seed: int, tag: str) -> int:
    return int(subsystem_rng(seed, tag).integers(2 ** 31))


# Work bounds, each 1 GiB of what it counts: the compact lift holds 16 B per
# pixel (an intp part label and a float64 depth), the token stack 8 B per
# float64 entry
MAX_PIXELS = 2 ** 30 // 16  # frames x H x W
MAX_TOKEN_ENTRIES = 2 ** 30 // 8  # token_dim x frames x H' x W'
# tokens per `route_forward` call: `_routing_run` routes
# ROUTE_BATCH_TOKENS // (H' * W') frames at a time, at least one (see the
# module docstring for the sweep behind it)
ROUTE_BATCH_TOKENS = 2 ** 12


def _check_work(cfg: Config, frames: int, h: int, w: int):
    """Reject a run of `frames` H x W frames whose lift or token stack would
    exceed its work bound, before anything is drawn or lifted."""
    pixels = frames * h * w
    if pixels > MAX_PIXELS:
        raise InvalidParams(
            f"{frames} frames of {h}x{w} are {pixels} pixels, over the work "
            f"bound MAX_PIXELS = {MAX_PIXELS}")
    hp, wp = h // cfg.stride, w // cfg.stride
    entries = cfg.token_dim * frames * hp * wp
    if entries > MAX_TOKEN_ENTRIES:
        raise InvalidParams(
            f"token_dim {cfg.token_dim} x {frames} frames x {hp}x{wp} tokens "
            f"are {entries} token entries, over the work bound "
            f"MAX_TOKEN_ENTRIES = {MAX_TOKEN_ENTRIES}")


# ---------------------------------------------------------------------------
# Subcommands


def cmd_synth(cfg: Config, seed: int, out: str):
    """Emit a synthetic trajectory plus rendered tube label masks."""
    _check_work(cfg, cfg.frames, *cfg.resolution)
    geom = ToolGeometry()
    cam = _camera(cfg)
    traj = synth_trajectory(cfg.trajectory_kind, T=cfg.frames,
                            seed=_derived_seed(seed, "synth"), geom=geom)
    poses = forward_kinematics(traj.states, geom)
    masks = [mt.render_tube(PartPoses(poses.endpoints[:, t], poses.radii[:, t]),
                            cam, half_width=cfg.tube_half_width)
             for t in range(cfg.frames)]
    os.makedirs(os.path.join(out, "masks"), exist_ok=True)
    write_trajectory(os.path.join(out, "trajectory.txt"), traj, cam, seq_id="synth")
    for t, labels in enumerate(masks):
        write_pgm(os.path.join(out, "masks", f"frame_{t + 1:04d}.pgm"), labels)


@dataclass(frozen=True)
class RoutingRun:
    """One trajectory's routing, each array stacked over its T frames on the
    (H', W') token grid. The fields from `motion` on are what `route` and
    `schedule` read; they are None where neither writes."""

    params: rt.GateParams
    t_embed: np.ndarray  # the timestep embedding every frame is routed with
    last: rt.RoutingDecision  # the last frame's decision, a batch of one
    tokens: np.ndarray  # (T, H', W', C)
    pooled: np.ndarray  # (T, H', W', 9) raw field
    m_tool: np.ndarray  # (T, H', W') pooled tool mask
    budget: sched.BudgetConfig  # the plans' budget
    motion: np.ndarray | None = None  # (T, H', W')
    fusion_w: np.ndarray | None = None  # (T, H', W', 5)
    sub_mass: np.ndarray | None = None  # (T, H', W', 3) weighted sub-experts
    s_tilde: np.ndarray | None = None  # (T, H', W') normalized significance
    plans: np.ndarray | None = None  # (T, H' * W') sched.partition modes


def _pooled_grids(lifted: kvf.LiftedTrajectory, stats: kvf.ChannelStats,
                  s: int, batch: int):
    """The routing grids of a lifted trajectory at stride s, each stacked
    over the frames with the bits of pooling the painted frames f: the
    normalized grid `avg_pool(normalize(f, stats), s)` that routing reads,
    the raw grid `avg_pool(f, s)` and the pooled tool mask
    `avg_pool(labels >= 0, s)`. The frames are pooled `batch` at a time,
    each step once over the batch's frames stacked along rows.

    Only the blocks that hold a tool pixel are painted, normalized and
    pooled. `avg_pool` folds each block on its own, elementwise in row-major
    order, and `normalize` is elementwise, so a tool block gets the same bits
    pooled alone as in its frame. Every channel of a pixel off the tool is
    +0.0, so a block with no tool pixel pools to 0.0 in the raw grid and to
    one constant row, that of a zero block, in the normalized grid."""
    n = kvf.N_CHANNELS
    frames, h, w = lifted.labels.shape
    m_tool = np.empty((frames, h // s, w // s))
    normed = np.empty(m_tool.shape + (n,))
    normed[...] = rt.avg_pool(kvf.normalize(np.zeros((s, s, n)), stats), s)
    pooled = np.zeros_like(normed)
    # a frame's part table rows follow the frames before it; label -1 wraps
    # to its frame's zero row
    tables = lifted.tables.reshape(-1, n)
    for t in range(0, frames, batch):
        b = slice(t, t + batch)
        # the batch's frames stacked along rows, as routing takes them
        m_tool[b] = rt.avg_pool(lifted.labels[b].reshape(-1, w) >= 0,
                                s).reshape(m_tool[b].shape)
        # the tool's s x s blocks side by side in one (s, blocks * s) strip
        bt, bi, bj = np.nonzero(m_tool[b])
        labels, depth = (a[b].reshape(-1, h // s, s, w // s, s)[bt, bi, :, bj]
                         .transpose(1, 0, 2).reshape(s, -1)
                         for a in (lifted.labels, lifted.depth))
        rows = np.repeat((bt + t) * kvf.N_TABLE_ROWS, s)
        f = kvf.paint(tables, rows + labels % kvf.N_TABLE_ROWS, depth)
        pooled[bt + t, bi, bj] = rt.avg_pool(f, s)[0]
        normed[bt + t, bi, bj] = rt.avg_pool(kvf.normalize(f, stats), s)[0]
    return normed, pooled, m_tool


def _routing_run(cfg: Config, seed: int, lifted: kvf.LiftedTrajectory,
                 stats: kvf.ChannelStats, planned: bool) -> RoutingRun:
    """Shared forward pass over a lifted trajectory, in consecutive batches
    of ROUTE_BATCH_TOKENS // (H' * W') frames, at least one. Each batch's
    grids are pooled from the tool's blocks only (`_pooled_grids`) and
    routed in one `route_forward` call, so each frame is routed once, and,
    if `planned`, its fusion weights, sub-expert mass and significance are
    formed once per batch into the run's stacks, after the motion of the
    whole sequence, and each frame is partitioned once. Unplanned, every
    frame's action tokens are formed, in batches of the frames before the
    last, but only the last frame is gated, in a batch of its own."""
    params = rt.init_gate_params(seed=_derived_seed(seed, "gate"),
                                 c=cfg.token_dim)
    schedule = rt.CapacitySchedule(dense_end=cfg.dense_end,
                                   sparse_start=cfg.sparse_start, k=cfg.top_k)
    t_embed = rt.timestep_embed(cfg.timestep)
    frames, h, w = lifted.labels.shape
    hp, wp = h // cfg.stride, w // cfg.stride
    batch = max(1, ROUTE_BATCH_TOKENS // (hp * wp))
    normed, pooled, m_tool = _pooled_grids(lifted, stats, cfg.stride, batch)
    budget = sched.BudgetConfig(rho_full_target=cfg.rho_full,
                                rho_light_target=cfg.rho_light, K=cfg.refresh_k)
    tokens = np.empty(m_tool.shape + (cfg.token_dim,))
    if planned:
        # motion is normalised by its peak over the sequence, so frames
        # compare
        motion = sched.motion_intensity(pooled[..., 5:8], pooled[..., 8])
        fusion_w, sub_mass, s_tilde = (np.empty(m_tool.shape + k) for k in (
            (rt.N_EXPERTS,), (rt.N_SUB,), ()))
    # unplanned, only losses reads the gates, and only the last frame's: the
    # frames before it are routed without gates, and it alone with them
    n = frames if planned else frames - 1
    batches = [slice(t, min(t + batch, n)) for t in range(0, n, batch)]
    for b in batches + ([] if planned else [slice(n, frames)]):
        _, d = rt.route_forward(
            normed[b].reshape(-1, wp, kvf.N_CHANNELS), params, cfg.progress,
            t_embed, sched=schedule, frames=b.stop - b.start,
            gates=planned or b.stop == frames)
        tokens[b] = d.tokens.reshape(tokens[b].shape)
        if not planned:
            continue
        fusion_w[b] = d.fusion_w.reshape(fusion_w[b].shape)
        # sum over the expert axis into the stack; numpy adds the slices of
        # a non-last axis in order, as the fold does
        fold(np.add, columns(np.moveaxis(
            d.fusion_w[..., None] * d.inner_probs, -2, -1)),
            out=sub_mass[b].reshape(-1, wp, rt.N_SUB))
        s_tilde[b] = sched.significance(
            motion[b], m_tool[b], fold(np.maximum, columns(fusion_w[b])),
            sub_mass[b][..., rt.FINE], sub_mass[b][..., rt.SKIP])[1]
    planned_fields = {} if not planned else dict(
        motion=motion, fusion_w=fusion_w, sub_mass=sub_mass, s_tilde=s_tilde,
        plans=sched.partition(s_tilde, budget))
    return RoutingRun(params, t_embed, d.last_frame(), tokens, pooled, m_tool,
                      budget, **planned_fields)


N_MOTION_BINS = 3  # low / medium / high, mirroring the execution tiers


def _trajectory_pass(cfg: Config, seed: int, traj_path, resolution, writers):
    """(lifted trajectory, channel statistics, RoutingRun or None) of a
    trajectory file at its camera's H x W, which `resolution` (the
    --resolution flag, when given) must equal. Before the lift, the work
    bounds are checked, then, if the pass routes, that the stride divides
    the frame, then route's token count, so `run` writes nothing if any
    fails."""
    traj, cam, _ = read_trajectory(traj_path)
    frames, h, w = len(traj.states), cam.height, cam.width
    if resolution is not None and resolution != (h, w):
        raise ShapeMismatch(
            f"--resolution {resolution[0]}x{resolution[1]} differs from the "
            f"trajectory camera's {h}x{w}")
    _check_work(cfg, frames, h, w)
    routes = writers != ("lift",)
    if routes and (h % cfg.stride or w % cfg.stride):
        raise ShapeMismatch(f"stride {cfg.stride} does not divide the {h}x{w} "
                            "frame")
    tokens = frames * (h // cfg.stride) * (w // cfg.stride)
    if "route" in writers and tokens < N_MOTION_BINS:
        raise ShapeMismatch(
            f"route needs at least {N_MOTION_BINS} tokens for its "
            f"{N_MOTION_BINS} motion bins, got {tokens}")
    lifted = kvf.lift_trajectory(traj, ToolGeometry(), cam)
    stats = kvf.compute_stats(lifted)
    planned = "route" in writers or "schedule" in writers
    routing = _routing_run(cfg, seed, lifted, stats, planned) if routes else None
    return lifted, stats, routing


def cmd_lift(lifted: kvf.LiftedTrajectory, stats: kvf.ChannelStats, out: str):
    """Lifted trajectory -> per-frame KVAF binaries + channel statistics."""
    for t in range(len(lifted)):
        write_field(lifted.field(t), os.path.join(out, f"field_{t + 1:04d}.kvaf"))
    write_csv(os.path.join(out, "channel_stats.csv"),
              ["channel", "mean", "std"],
              [[kvf.CHANNEL_NAMES[3 + i], stats.mean[i], stats.std[i]]
               for i in range(6)])


def cmd_route(run: RoutingRun, out: str):
    """Routing decisions + modality/scale statistics binned by motion
    magnitude quantiles into N_MOTION_BINS bins."""
    motion = run.motion.reshape(-1)
    fusion = run.fusion_w.reshape(-1, rt.N_EXPERTS)
    inner_probs = run.sub_mass.reshape(-1, rt.N_SUB)
    modes = run.plans.reshape(-1)
    on_tool = run.m_tool.reshape(-1) > 0

    # statistics over tool tokens only: background tokens all tie at zero
    # motion and would wash out the motion bins
    if on_tool.sum() >= 2 * N_MOTION_BINS:
        motion, fusion = motion[on_tool], fusion[on_tool]
        inner_probs, modes = inner_probs[on_tool], modes[on_tool]

    # equal-count bins in motion order keep bins well defined under ties
    order = np.argsort(motion, kind="stable")
    chunks = np.array_split(order, N_MOTION_BINS)
    rows = []
    for b, idx in enumerate(chunks):
        row = [b, float(motion[idx].mean())]
        row += [float(v) for v in fusion[idx].mean(axis=0)]
        row += [float(v) for v in inner_probs[idx].mean(axis=0)]
        fracs = [float((modes[idx] == m).mean())
                 for m in (sched.FULL, sched.LIGHT, sched.REUSE)]
        # skip-mode fraction: tokens spared a full recompute (light or reuse)
        row += fracs + [fracs[1] + fracs[2]]
        rows.append(row)
    header = (["bin", "mean_motion"]
              + [f"fusion_{m}" for m in kvf.MODALITIES]
              + ["inner_fine", "inner_transport", "inner_skip"]
              + ["full_frac", "light_frac", "reuse_frac", "skip_mode_frac"])
    write_csv(os.path.join(out, "routing_stats.csv"), header, rows)


def _value_and_check(loss_fn, arrays: dict, analytic):
    """loss_fn at the unperturbed arrays, and its grad check's max relative
    error. grad_check is looked up on `priors` at each call, where a tracer
    that wraps it counts the loss evaluations."""
    return loss_fn(arrays), pr.grad_check(loss_fn, arrays,
                                          dict(zip(arrays, analytic)))


def cmd_losses(cfg: Config, seed: int, run: RoutingRun, out: str):
    """All kinematic-prior losses on one sequence + gradient-check report.

    Each reported loss is its grad check's evaluator at the unperturbed
    parameters, so the report and the check share one path. The checks run
    one after another, so one evaluator's buffers are alive at a time."""
    rng = subsystem_rng(seed, "losses")
    weights = pr.LossWeights(lam_kp=cfg.lam_kp, lam_src=cfg.lam_src,
                             lam_cp=cfg.lam_cp, lam_sub=cfg.lam_sub)
    predictor = pr.init_predictor(seed=_derived_seed(seed, "predictor"),
                                  c=cfg.token_dim)
    tokens, A = run.last.tokens, run.last.A
    c_action, t_embed = run.last.c_action[0], run.t_embed
    # a token is on the tool when any of its pixels is
    m_seq = (run.m_tool > 0).astype(float)
    pi = pr.physical_prior(run.pooled[-1])
    # finite_difference_grad perturbs copies, and no evaluator writes these
    pred_params = {"w": predictor.w, "b": predictor.b}
    gate_params = {name: getattr(run.params, name)
                   for name in ("outer_w", "outer_b", "token_w")}

    cp, cp_err = _value_and_check(
        pr._cp_evaluator(tokens, A), pred_params,
        pr.cp_loss_grad(tokens, predictor, A))
    kp, kp_err = _value_and_check(
        pr._kp_alb_evaluator(tokens, c_action, t_embed, pi), gate_params,
        pr.kp_alb_grad(tokens, c_action, t_embed, run.params.outer_w,
                       run.params.outer_b, run.params.token_w, pi))
    src, src_err = _value_and_check(
        pr._src_evaluator(run.tokens, m_seq), pred_params,
        pr.src_loss_grad(run.tokens, predictor, m_seq))

    f_sub, p_sub = pr.sub_routing_stats(run.last)
    sub = pr.sub_stabilizer_loss(f_sub, p_sub)
    shape = tokens.shape
    x0, x1 = rng.normal(size=shape), rng.normal(size=shape)
    pred = rng.normal(size=shape)
    flow = pr.flow_matching_loss(pred, x0, x1)
    total = pr.total_loss(flow, kp, src, cp, sub, weights)
    write_csv(os.path.join(out, "losses.csv"),
              ["step", "l_flow", "l_kp", "l_src", "l_cp", "l_sub", "total"],
              [[0, flow, kp, src, cp, sub, total]])
    write_csv(os.path.join(out, "grad_check.csv"), ["loss", "max_rel_error"],
              [["cp_loss", cp_err], ["kp_alb_loss", kp_err], ["src_loss", src_err]])


def cmd_schedule(run: RoutingRun, out: str):
    """Significance, plans, refresh, and a simulated cost report."""
    s_means = run.s_tilde.reshape(len(run.plans), -1).mean(axis=1)
    refresh = sched.refresh_interval(s_means, run.budget)
    trace = sched.simulate_execution(run.plans, refresh)

    rows = [[t + 1, *trace.n_modes[t], trace.frame_cost[t], refresh[t],
             int(trace.forced[t]), s_means[t]] for t in range(len(run.plans))]
    write_csv(os.path.join(out, "execution.csv"),
              ["frame", "n_full", "n_light", "n_reuse", "cost", "refresh",
               "forced", "mean_significance"], rows)

    summary = [
        ["full_only", trace.full_equivalent_cost, 1.0],
        ["adaptive_default", trace.total_cost,
         trace.total_cost / trace.full_equivalent_cost],
    ]
    write_csv(os.path.join(out, "cost_summary.csv"),
              ["config", "total_cost", "cost_ratio"], summary)


def _read_mask_dir(path):
    """The directory's .pgm label masks in name order; an error names its
    file and keeps its type."""
    masks = []
    for name in sorted(f for f in os.listdir(path) if f.endswith(".pgm")):
        file = os.path.join(path, name)
        try:
            labels = read_pgm(file)
            mt.check_labels(labels)
        except KvaControlError as exc:
            raise type(exc)(f"{file}: {exc}") from exc
        masks.append(labels)
    return masks


def cmd_eval(pred_dir: str, target_dir: str, out: str):
    """Mask directories -> per-frame and mean CD / TI / AF / Dice."""
    pred = _read_mask_dir(pred_dir)
    target = _read_mask_dir(target_dir)
    if len(pred) != len(target):
        raise KvaControlError(
            f"{len(pred)} predicted frames vs {len(target)} target frames")
    if not pred:
        raise EmptyCorpus(f"no .pgm masks in {pred_dir} or {target_dir}")
    shape = pred[0].shape
    for t, (p, q) in enumerate(zip(pred, target), start=1):
        for who, mask in (("predicted", p), ("target", q)):
            if mask.shape != shape:
                raise ShapeMismatch(f"frame {t}: {who} mask {mask.shape} vs "
                                    f"frame 1's predicted mask {shape}")
    report = mt.evaluate_sequence(pred, target)
    rows = [[t, *row] for t, row in enumerate(report.frames, start=1)]
    write_csv(os.path.join(out, "metrics.csv"),
              ["frame", "cd", "ti", "af", "dice"],
              rows + [["mean", *report.means]])


def cmd_report(inputs, out_path):
    """Merge CSV reports, prefixing each row with its source file."""
    lines = ["source,row"]
    for path in inputs:
        with open(path, "r", encoding="utf-8") as f:
            try:
                text = f.read()
            except UnicodeDecodeError as exc:
                raise ParseError(f"report input {path}: {exc}") from exc
        for line in text.splitlines():
            lines.append(f"{os.path.basename(path)},{line}")
    atomic_write_text(out_path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------


WRITERS = ("lift", "route", "losses", "schedule")  # `run` calls all four
TRAJECTORY_COMMANDS = (*WRITERS, "run")


class _Parser(argparse.ArgumentParser):
    """Raises a malformed command line as a ParseError; subparsers inherit it."""

    def error(self, message):
        raise ParseError(f"{self.prog}: {message}")


def build_parser():
    p = _Parser(prog="kvacontrol")
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="out")
    p.add_argument("--resolution", default=None, help="HxW, e.g. 64x64")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("synth")
    sp.add_argument("--kind", default=None)
    sp.add_argument("--frames", type=int, default=None)

    for name in TRAJECTORY_COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--traj", required=True)

    sp = sub.add_parser("eval")
    sp.add_argument("--pred", required=True)
    sp.add_argument("--target", required=True)

    sp = sub.add_parser("report")
    sp.add_argument("--inputs", nargs="+", required=True)
    return p


def _parse_resolution(text):
    try:
        h, w = text.lower().split("x")
        return int(h), int(w)
    except ValueError as exc:
        raise ParseError(f"--resolution must be HxW, got {text!r}") from exc


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        overrides = {}
        if args.command == "synth":
            if args.kind is not None:
                overrides["trajectory_kind"] = args.kind
            if args.frames is not None:
                overrides["frames"] = args.frames
        if args.seed < 0:
            raise InvalidParams(f"--seed must be >= 0, got {args.seed}")
        resolution = None
        if args.resolution:
            resolution = overrides["resolution"] = _parse_resolution(args.resolution)
        cfg = load_config(args.config, overrides)
        os.makedirs(args.out, exist_ok=True)
        if args.command == "synth":
            cmd_synth(cfg, args.seed, args.out)
        elif args.command == "eval":
            cmd_eval(args.pred, args.target, args.out)
        elif args.command == "report":
            cmd_report(args.inputs, os.path.join(args.out, "report.csv"))
        else:
            writers = WRITERS if args.command == "run" else (args.command,)
            lifted, stats, run = _trajectory_pass(cfg, args.seed, args.traj,
                                                  resolution, writers)
            if "lift" in writers:
                cmd_lift(lifted, stats, args.out)
            if "route" in writers:
                cmd_route(run, args.out)
            if "losses" in writers:
                cmd_losses(cfg, args.seed, run, args.out)
            if "schedule" in writers:
                cmd_schedule(run, args.out)
        return 0
    except (KvaControlError, OSError, MemoryError) as exc:
        # numpy's MemoryError names the allocation; a bare one has no text
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
