"""Spans and counters recorded from outside the program.

`Tracer.install()` replaces every public function of the kvacontrol layer
modules with a wrapper, in every kvacontrol module that holds a reference to
it, so calls between modules are seen too. A wrapper records one span per
call (calls, inclusive seconds, self seconds = inclusive minus child spans)
and, for a few functions, counters computed from the call's arguments and
return value. `uninstall()` puts the original functions back. Nothing inside
the program changes, so traced runs must write byte-identical artefacts.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import os
import time
from collections import Counter, defaultdict

LAYERS = ("kinematics", "kva_field", "routing", "priors", "scheduler",
          "metrics", "formats")

# masks taller than this take the per-column Python loop in distance_transform
DENSE_EDT_MAX_ROWS = 128


def _rasterize_counts(c, args, kwargs, out):
    poses, cam = args[0], args[1]
    labels = out[0]
    c["kva_field.ray_tests"] += cam.height * cam.width * len(poses.endpoints)
    c["kva_field.px_tested"] += labels.size
    c["kva_field.px_hit"] += int((labels >= 0).sum())


def _route_counts(c, args, kwargs, out):
    tokens = out[1].tokens
    c["routing.tokens"] += tokens.shape[0] * tokens.shape[1]


def _simulate_counts(c, args, kwargs, out):
    full, light, reuse = out.n_modes.sum(axis=0)
    c["scheduler.tokens_full"] += int(full)
    c["scheduler.tokens_light"] += int(light)
    c["scheduler.tokens_reuse"] += int(reuse)
    c["scheduler.forced_refreshes"] += int(out.forced.sum())


def _edt_counts(c, args, kwargs, out):
    c["metrics.distance_transform.px"] += out.size
    c["metrics.distance_transform.tall_calls"] += out.shape[0] > DENSE_EDT_MAX_ROWS


def _evaluate_counts(c, args, kwargs, out):
    c["metrics.skipped_cd"] += out.skipped_cd


def _write_field_counts(c, args, kwargs, out):
    path = args[1] if len(args) > 1 else kwargs["path"]
    c["formats.write_field.bytes"] += os.path.getsize(path)


AFTER = {
    "kva_field.rasterize_parts": _rasterize_counts,
    "routing.route_forward": _route_counts,
    "scheduler.simulate_execution": _simulate_counts,
    "metrics.distance_transform": _edt_counts,
    "metrics.evaluate_sequence": _evaluate_counts,
    "formats.write_field": _write_field_counts,
}


class Tracer:
    """Aggregates spans by name; `reset()` starts a new pass."""

    def __init__(self):
        self._patched = []
        self._open = []  # child seconds accumulated by each open span
        self.reset()

    def reset(self):
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total_s, self_s
        self.counters = Counter()

    def _enter(self):
        self._open.append(0.0)
        return time.perf_counter()

    def _exit(self, name, t0):
        dt = time.perf_counter() - t0
        child = self._open.pop()
        rec = self.spans[name]
        rec[0] += 1
        rec[1] += dt
        rec[2] += dt - child
        if self._open:
            self._open[-1] += dt

    @contextlib.contextmanager
    def span(self, name):
        t0 = self._enter()
        try:
            yield
        finally:
            self._exit(name, t0)

    def _wrap(self, name, fn):
        after = AFTER.get(name)
        counts_loss_evals = name == "priors.grad_check"

        def wrapper(*args, **kwargs):
            if counts_loss_evals:
                args = (self._count_loss_evals(args[0]),) + args[1:]
            t0 = self._enter()
            try:
                out = fn(*args, **kwargs)
            finally:
                self._exit(name, t0)
            if after is not None:
                after(self.counters, args, kwargs, out)
            return out

        return wrapper

    def _count_loss_evals(self, loss_fn):
        def counted(arrays):
            self.counters["priors.loss_evals"] += 1
            return loss_fn(arrays)
        return counted

    def install(self):
        modules = [importlib.import_module(f"kvacontrol.{m}")
                   for m in LAYERS + ("cli",)]
        for layer, mod in zip(LAYERS, modules):
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for holder in modules:
                    for key, value in list(vars(holder).items()):
                        if value is fn:
                            setattr(holder, key, wrapper)
                            self._patched.append((holder, key, fn))

    def uninstall(self):
        for holder, key, fn in reversed(self._patched):
            setattr(holder, key, fn)
        self._patched.clear()

    def snapshot(self):
        """Per-layer metric values and the inclusive span table for one pass."""
        c = self.counters
        values = {}
        for name, (calls, total, self_s) in self.spans.items():
            values[f"{name}.calls"] = calls
            values[f"{name}.self_s"] = self_s
        values.update(c)
        tested = c["kva_field.px_tested"]
        values["kva_field.ray_hit_frac"] = (c["kva_field.px_hit"] / tested
                                            if tested else 0.0)
        table = {name: {"calls": calls, "total_s": total, "self_s": self_s}
                 for name, (calls, total, self_s) in self.spans.items()}
        return values, table
