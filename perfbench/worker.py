"""One workload of the pipeline benchmark, run in this process.

run.py starts this script in a fresh interpreter with BLAS and OpenMP pinned
to one thread and reads the JSON object on its last stdout line. A pass is
the README's CLI flow through `kvacontrol.cli.main`: synth of a target and a
prediction (seed + 1), lift, route, losses and schedule on the target, eval
of prediction against target, and report. One caller runs passes back to
back (a closed loop). Every invocation's artefacts are hashed and compared
with the digests recorded in golden.json for the workload and seed.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

import numpy as np

from kvacontrol import cli, formats, kinematics, metrics
from kvacontrol.errors import KvaControlError
import refspeed
from tracer import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden.json")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CMDS = ("synth", "lift", "route", "losses", "schedule", "eval")
STRIDE = formats.Config().stride


@dataclasses.dataclass(frozen=True)
class Workload:
    size: int  # square frame side in pixels
    frames: int
    exit_view: bool = False  # inputs come from write_exit_inputs, not `synth`


WORKLOADS = {
    "small64": Workload(64, 10),
    "large256": Workload(256, 4),
    "exit128": Workload(128, 30, exit_view=True),
}

# exit128 puts the base pose 5 cm from the camera instead of 11 cm: the tool
# starts large and the composite drift carries it out of view mid-sequence.
# 8 px tubes make the ground-truth masks large while it is in view.
EXIT_DEPTH_M = 0.05
EXIT_HALF_WIDTH_PX = 8.0


def write_exit_inputs(out, w: Workload, seed: int):
    """exit128's synth step, written through the library's public functions."""
    os.makedirs(os.path.join(out, "masks"), exist_ok=True)
    geom = kinematics.ToolGeometry()
    cam = kinematics.default_camera(width=w.size, height=w.size)
    base = dataclasses.replace(kinematics.DEFAULT_BASE_STATE,
                               p=np.array([0.0, 0.0, EXIT_DEPTH_M]))
    traj = kinematics.synth_trajectory("composite", params={"base": base},
                                       T=w.frames, seed=seed, geom=geom)
    formats.write_trajectory(os.path.join(out, "trajectory.txt"), traj, cam,
                             seq_id="exit128")
    for t, state in enumerate(traj.states):
        labels = metrics.render_tube(kinematics.forward_kinematics(state, geom),
                                     cam, half_width=EXIT_HALF_WIDTH_PX)
        formats.write_pgm(os.path.join(out, "masks", f"frame_{t + 1:04d}.pgm"),
                          labels)
    return 0


def plan(w: Workload, seed: int, root: str):
    """One pass as (label, command, output directory, call) steps."""
    def path(*parts):
        return os.path.join(root, *parts)

    def cli_step(label, cmd, *argv):
        out = path(label)
        return label, cmd, out, lambda: cli.main(["--out", out, *argv])

    if w.exit_view:
        synth = [(label, "synth", path(label),
                  lambda label=label, s=s: write_exit_inputs(path(label), w, s))
                 for label, s in (("target", seed), ("pred", seed + 1))]
    else:
        synth = [cli_step(label, "synth", "--seed", str(s),
                          "--resolution", f"{w.size}x{w.size}", "synth",
                          "--kind", "composite", "--frames", str(w.frames))
                 for label, s in (("target", seed), ("pred", seed + 1))]
    traj = path("target", "trajectory.txt")
    return synth + [
        cli_step(cmd, cmd, "--seed", str(seed), cmd, "--traj", traj)
        for cmd in ("lift", "route", "losses", "schedule")
    ] + [
        cli_step("eval", "eval", "eval", "--pred", path("pred", "masks"),
                 "--target", path("target", "masks")),
        cli_step("report", "report", "report", "--inputs",
                 path("eval", "metrics.csv"), path("schedule", "cost_summary.csv")),
    ]


def digest(directory):
    """SHA-256 over every file under `directory`: relative path and content."""
    h = hashlib.sha256()
    names = sorted(os.path.relpath(os.path.join(base, f), directory)
                   for base, _, files in os.walk(directory) for f in files)
    for name in names:
        with open(os.path.join(directory, name), "rb") as f:
            h.update(name.encode() + b"\0" + hashlib.sha256(f.read()).digest())
    return h.hexdigest()


def attempt(call, ctx):
    """call()'s exit code, or the exception it raised, as text."""
    try:
        with ctx:
            return call()
    except (Exception, SystemExit) as exc:
        return f"{type(exc).__name__}: {exc}"


class Runner:
    """Runs passes of one workload and checks every invocation's artefacts.

    `expected` maps step label to digest. Labels missing from it (a seed with
    no recorded digests) take the first pass's digest, so later passes must
    reproduce it byte for byte."""

    def __init__(self, w: Workload, seed: int, work: str, expected: dict):
        self.plan = plan(w, seed, work)
        self.work = work
        self.expected = expected
        self.attempted = 0
        self.failures = []

    def run_pass(self, span=None):
        """All steps once, into an empty directory; returns one
        (command, seconds, seconds at reference speed) per step."""
        shutil.rmtree(self.work, ignore_errors=True)
        times = []
        with refspeed.Clock() as clock:
            for label, cmd, out, call in self.plan:
                ctx = span(f"cli.{cmd}") if span else contextlib.nullcontext()
                rc, seconds, at_ref = clock.step(lambda: attempt(call, ctx))
                times.append((cmd, seconds, at_ref))
                self.attempted += 1
                if rc != 0:
                    self.failures.append(f"{label}: {rc}")
                    continue
                got = digest(out)
                want = self.expected.setdefault(label, got)
                if got != want:
                    self.failures.append(
                        f"{label}: artefact digest {got} != {want}")
        return times

    def passes(self, seconds, tracer=None):
        """(step times, trace snapshot) per pass for about `seconds`: no pass
        starts that would, at the median pass time so far, end after them.
        At least one pass."""
        done, took = [], []
        start = time.perf_counter()
        while not done or (time.perf_counter() - start + statistics.median(took)
                           <= seconds):
            t0 = time.perf_counter()
            if tracer is None:
                done.append((self.run_pass(), None))
            else:
                tracer.reset()
                done.append((self.run_pass(tracer.span), tracer.snapshot()))
            took.append(time.perf_counter() - t0)
        return done


def pass_seconds(times, column=2):
    """A pass's time: at reference speed by default, as measured with 1."""
    return sum(step[column] for step in times)


def timing_metrics(w: Workload, passes):
    """Gated metrics: medians over the run's passes of times at reference
    speed (refspeed.py). The measured times are reported as facts."""
    totals = sorted(map(pass_seconds, passes))
    n = len(totals)
    p50 = statistics.median(totals)
    # highest order statistic with ten samples above it; the median when
    # there are too few passes for that to lie above it
    i = n - 11
    if i + 1 > n / 2:
        tail, pct = totals[i], 100.0 * (i + 1) / n
    else:
        tail, pct = p50, 50.0
    measured = [pass_seconds(p, 1) for p in passes]
    values = {"pipeline_s_p50": p50, "pipeline_s_tail": tail,
              "frames_per_s": w.frames / p50}
    facts = {"passes": n, "tail_percentile": pct,
             "measured_pipeline_s_p50": statistics.median(measured),
             "measured_pipeline_s_min": min(measured)}
    for cmd in CMDS:
        values[f"{cmd}_s"] = statistics.median(
            sum(step[2] for step in p if step[0] == cmd) for p in passes)
        facts[f"measured_{cmd}_s_p50"] = statistics.median(
            sum(step[1] for step in p if step[0] == cmd) for p in passes)
    return values, facts


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f))


def _masks(work, who):
    d = os.path.join(work, who, "masks")
    return [formats.read_pgm(os.path.join(d, f)) for f in sorted(os.listdir(d))]


def _bbox_frac(mask):
    rows, cols = np.nonzero(mask)
    if rows.size == 0:
        return 0.0
    return float((np.ptp(rows) + 1) * (np.ptp(cols) + 1) / mask.size)


def inspect_outputs(w: Workload, work: str):
    """Workload facts and seed-independent checks from the last pass's files."""
    errors = []
    target, pred = _masks(work, "target"), _masks(work, "pred")
    for who, masks in (("target", target), ("pred", pred)):
        if len(masks) != w.frames or any(
                m.shape != (w.size, w.size) or m.min() < 0 or m.max() > 3
                for m in masks):
            errors.append(f"{who} masks: need {w.frames} frames of "
                          f"{w.size}x{w.size} labels in 0..3")
    fields_dir = os.path.join(work, "lift")
    fields = [formats.read_field(os.path.join(fields_dir, f))
              for f in sorted(os.listdir(fields_dir)) if f.endswith(".kvaf")]
    if len(fields) != w.frames:
        errors.append(f"lift wrote {len(fields)} fields for {w.frames} frames")
    n_tok = (w.size // STRIDE) ** 2
    tool = [f.channels[..., :3].max(axis=2) > 0 for f in fields]
    on_tool = sum(int(m.reshape(w.size // STRIDE, STRIDE, -1, STRIDE)
                      .any(axis=(1, 3)).sum()) for m in tool)
    execution = _read_csv(os.path.join(work, "schedule", "execution.csv"))
    if len(execution) != w.frames or any(
            int(r["n_full"]) + int(r["n_light"]) + int(r["n_reuse"]) != n_tok
            for r in execution):
        errors.append(f"execution.csv: need {w.frames} frames of {n_tok} tokens")
    # the error itself is data: a finite-difference step that flips a
    # token's top-1 expert makes the kp_alb check disagree on some inputs
    grads = _read_csv(os.path.join(work, "losses", "grad_check.csv"))
    if [r["loss"] for r in grads] != ["cp_loss", "kp_alb_loss", "src_loss"] or any(
            not 0 <= float(r["max_rel_error"]) < float("inf") for r in grads):
        errors.append("grad_check.csv: need a finite error for each of the "
                      "three losses")
    per_frame = _read_csv(os.path.join(work, "eval", "metrics.csv"))[:-1]
    if len(per_frame) != w.frames or any(not 0 <= float(r["dice"]) <= 1
                                         for r in per_frame):
        errors.append(f"metrics.csv: need {w.frames} frames with Dice in [0, 1]")
    facts = {"empty_frames": {
        "tool": sum(not m.any() for m in tool),
        "target_masks": sum(not (m > 0).any() for m in target),
        "pred_masks": sum(not (m > 0).any() for m in pred)}}
    # the rasterized tool is what ray culling exploits; the target masks are
    # what a Chamfer crop exploits
    for name, masks in (("tool", tool), ("target_mask", [m > 0 for m in target])):
        px = [float(m.mean()) for m in masks]
        bbox = [_bbox_frac(m) for m in masks]
        facts.update({f"{name}_px_frac": px, f"{name}_bbox_frac": bbox,
                      f"{name}_px_frac_mean": statistics.fmean(px),
                      f"{name}_bbox_frac_mean": statistics.fmean(bbox)})
    facts.update({
        "on_tool_token_frac": on_tool / (n_tok * max(len(fields), 1)),
        "skipped_cd_frames": sum(r["cd"] == "nan" for r in per_frame),
        "forced_refresh_frames": sum(r["forced"] == "1" for r in execution),
    })
    return facts, errors


def environment():
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), cpu)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def load_golden():
    with open(GOLDEN, encoding="utf-8") as f:
        return json.load(f)


def record(name, seeds, work):
    """Record the artefact digests of one pass per seed into golden.json."""
    golden = load_golden()
    golden["environment"] = environment()
    table = golden["digests"].setdefault(name, {})
    for seed in seeds:
        runner = Runner(WORKLOADS[name], seed, work, {})
        runner.run_pass()
        _, errors = inspect_outputs(WORKLOADS[name], work)
        if runner.failures or errors:
            raise SystemExit(f"seed {seed}: {runner.failures + errors}")
        table[str(seed)] = runner.expected
        print(f"{name} seed {seed} recorded", file=sys.stderr)
    golden["digests"][name] = dict(sorted(table.items(), key=lambda kv: int(kv[0])))
    with open(GOLDEN, "w", encoding="utf-8") as f:
        json.dump(golden, f, indent=1, sort_keys=True)
        f.write("\n")


def measure(name, seed, seconds, trace, work):
    w = WORKLOADS[name]
    # let lazy set-up finish and caches fill on a small pass of the same flow
    Runner(dataclasses.replace(w, size=64, frames=3), seed,
           os.path.join(work, "warmup"), {}).run_pass()
    expected = dict(load_golden()["digests"].get(name, {}).get(str(seed), {}))
    golden = "recorded" if expected else "first pass"
    runner = Runner(w, seed, os.path.join(work, "pass"), expected)
    facts = {}
    if trace:
        plain = [times for times, _ in runner.passes(seconds / 2)]
        tracer = Tracer()
        tracer.install()
        try:
            traced = runner.passes(seconds / 2, tracer)
        finally:
            tracer.uninstall()
        snaps = [snap for _, snap in traced]
        # fastest pass per value: layer times are as measured, not at
        # reference speed, and their minimum moves least with the host's
        # speed; counts repeat exactly from pass to pass
        values = {k: min(s[0].get(k, 0) for s in snaps) for k in snaps[0][0]}
        values["trace.overhead_frac"] = (
            statistics.median(pass_seconds(times) for times, _ in traced)
            / statistics.median(map(pass_seconds, plain)) - 1)
        facts["spans"] = {k: {f: min(s[1][k][f] for s in snaps)
                              for f in ("calls", "total_s", "self_s")}
                          for k in snaps[0][1]}
        facts["passes"] = {"untraced": len(plain), "traced": len(traced)}
    else:
        passes = [times for times, _ in runner.passes(seconds)]
        values, facts["timing"] = timing_metrics(w, passes)
        values["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                                 / 1024)
    try:
        output_facts, errors = inspect_outputs(w, runner.work)
    except (OSError, ValueError, KeyError, KvaControlError) as exc:
        output_facts, errors = {}, [f"artefacts unreadable: {exc!r}"]
    facts.update(output_facts)
    facts["golden"] = golden
    facts["failed_frac"] = len(runner.failures) / runner.attempted
    return {"metrics": values, "attempted": runner.attempted,
            "failures": runner.failures, "errors": errors, "facts": facts,
            "environment": environment()}


def main():
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--work", required=True, help="scratch directory for artefacts")
    p.add_argument("--record", metavar="SEEDS",
                   help="record golden digests for these seeds (e.g. 0-31)")
    args = p.parse_args()
    if any(os.environ.get(v) != "1" for v in THREAD_VARS):
        p.error(f"set {', '.join(THREAD_VARS)} to 1 (run.py does)")
    if args.record:
        lo, _, hi = args.record.partition("-")
        record(args.workload, range(int(lo), int(hi or lo) + 1), args.work)
        return
    print(json.dumps(measure(args.workload, args.seed, args.seconds, args.trace,
                             args.work)))


if __name__ == "__main__":
    main()
