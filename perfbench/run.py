"""Pipeline benchmark for kvacontrol.

    python3 perfbench/run.py --workload small64 --seed 1 --seconds 50 --trace 0

Runs the named workload (or `all` of BENCHMARK.json's, one after another)
in its own fresh interpreter with BLAS and OpenMP pinned to one thread.
Prints a line of workload facts and environment, then as the last line one
JSON object with `correct`, `attempted`, `failed` and `metrics`: the
end-to-end metrics of BENCHMARK.json with `--trace 0`, its per-layer metrics
with `--trace 1`.
`attempted` counts subcommand invocations; `failed` counts those that
exited nonzero, raised, or wrote artefacts that differ from the recorded
digests (perfbench/golden.json).

    python3 perfbench/run.py --workload exit128 --record-golden 0-31

records those digests again after a change that is meant to alter outputs.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}
SETUP_RUNS = 9
RUN_DEADLINE_S = 170.0

IMPORT_PROBE = ("import time, refspeed; before = refspeed.loop_seconds(); "
                "t = time.perf_counter(); import kvacontrol.cli; "
                "t = time.perf_counter() - t; "
                "print(refspeed.scaled(t, [before, refspeed.loop_seconds()]))")


def child_env():
    env = dict(os.environ, **THREADS)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, HERE,
                                                      env.get("PYTHONPATH")]))
    return env


def setup_seconds(env):
    """Median time for a fresh interpreter to import kvacontrol.cli, at the
    reference speed of refspeed.py. One import runs first uncounted, since
    it may write bytecode caches."""
    times = []
    for _ in range(SETUP_RUNS + 1):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                             stdout=subprocess.PIPE, text=True, check=True,
                             timeout=60)
        times.append(float(out.stdout))
    return statistics.median(times[1:])


def run_workload(spec, name, args, env):
    started = time.monotonic()
    work = os.path.join(WORK, f"{name}-{os.getpid()}")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work", work]
    if args.record_golden:
        cmd += ["--record", args.record_golden]
    try:
        values = {} if args.trace or args.record_golden else {
            "setup_s": setup_seconds(env)}
        timeout = (None if args.record_golden
                   else RUN_DEADLINE_S - (time.monotonic() - started))
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)
    if proc.returncode != 0:
        raise SystemExit(f"error: {name} worker exited {proc.returncode}")
    if args.record_golden:
        return
    report = json.loads(proc.stdout.splitlines()[-1])
    values.update(report["metrics"])
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise SystemExit(f"error: {name} did not report {missing}")
    failures, errors = report["failures"], report["errors"]
    for line in failures + errors:
        print(f"{name}: {line}", file=sys.stderr)
    print(json.dumps({"workload": name, "seed": args.seed, "trace": args.trace,
                      "facts": report["facts"],
                      "environment": report["environment"]}))
    print(json.dumps({
        "correct": not failures and not errors,
        "attempted": report["attempted"],
        "failed": len(failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }), flush=True)


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", required=True,
                   help=f"one of {', '.join(names)}, all of them (all), or "
                        "exit128, which BENCHMARK.json leaves out")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-golden", metavar="SEEDS",
                   help="record artefact digests for seeds LO-HI and exit")
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "kvacontrol", "cli.py")):
        print(f"error: no kvacontrol sources under {SRC}", file=sys.stderr)
        return 1
    env = child_env()
    for name in names if args.workload == "all" else [args.workload]:
        run_workload(spec, name, args, env)
    return 0


if __name__ == "__main__":
    sys.exit(main())
