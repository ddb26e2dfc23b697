"""End-to-end acceptance gate.

Each test covers one numbered criterion and prints a single PASS/FAIL line on
the real terminal (bypassing capture) so the gate is readable from any pytest
invocation.
"""

import os
import time

import numpy as np
import pytest

from kvacontrol import cli
from kvacontrol import metrics as mt
from kvacontrol import priors as pr
from kvacontrol import routing as rt
from kvacontrol import scheduler as sch
from kvacontrol.kinematics import (
    PART_NAMES,
    ToolGeometry,
    default_camera,
    forward_kinematics,
    synth_trajectory,
)

import reference_losses as ref
from test_field import (
    midpoint_uvz,
    motion_at,
    random_visible_state,
    rasterize,
    ray_march_oracle,
)


def _report(capsys, num, name, check):
    try:
        check()
    except BaseException:
        with capsys.disabled():
            print(f"criterion {num:2d} [{name}]: FAIL")
        raise
    with capsys.disabled():
        print(f"criterion {num:2d} [{name}]: PASS")


def _random_mask(rng, h, w, density):
    return rng.random((h, w)) < density


def test_criterion_01_edt_chamfer_oracles(capsys):
    def check():
        start = time.monotonic()
        rng = np.random.default_rng(0)
        for _ in range(500):
            h, w = rng.integers(8, 65, size=2)
            A = _random_mask(rng, h, w, rng.uniform(0.02, 0.3))
            B = _random_mask(rng, h, w, rng.uniform(0.02, 0.3))
            if not A.any():
                A[0, 0] = True
            if not B.any():
                B[h - 1, w - 1] = True
            ii, jj = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
            pix = np.stack([ii.ravel(), jj.ravel()], axis=1).astype(float)
            mins = {}
            for name, m in (("A", A), ("B", B)):
                fg = np.argwhere(m).astype(float)
                # |p - f|^2 via the expansion; all terms are small integers,
                # so float64 keeps the squared distances exact
                d2 = ((pix ** 2).sum(1)[:, None] + (fg ** 2).sum(1)[None]
                      - 2.0 * pix @ fg.T).min(1)
                # integer squared distances: sqrt must agree bit for bit
                np.testing.assert_array_equal(
                    mt.distance_transform(m),
                    np.sqrt(d2.astype(float)).reshape(h, w))
                mins[name] = np.sqrt(d2.astype(float)).reshape(h, w)
            expected = 0.5 * (mins["B"][A].mean() + mins["A"][B].mean())
            value, valid = mt.chamfer(A, B)
            assert valid
            assert abs(value - expected) < 1e-9
        assert time.monotonic() - start < 30

    _report(capsys, 1, "EDT/Chamfer oracle equivalence", check)


def test_criterion_02_metric_spot_checks(capsys):
    def check():
        a = np.zeros((4, 4), dtype=bool)
        b = np.zeros((4, 4), dtype=bool)
        a[0, :2] = True
        b[0, 1:3] = True
        assert mt.temporal_iou(a, b) == pytest.approx(1 / 3)
        assert mt.dice(a, b) == pytest.approx(0.5)

        c = np.zeros((4, 4), dtype=bool)
        c[0, :3] = True
        d = np.zeros((4, 4), dtype=bool)
        d[0, :2] = True
        assert mt.area_flicker(c, d) == pytest.approx(0.5)

        seven = np.zeros((4, 4), dtype=bool)
        seven[:2, :4] = True
        seven[0, 0] = False
        assert mt.area_flicker(seven, np.zeros((4, 4), dtype=bool)) == 7.0

        e = np.zeros((4, 4), dtype=bool)
        f = np.zeros((4, 4), dtype=bool)
        e[0, :2] = True
        f[0, 1:4] = True
        assert mt.dice(e, f) == pytest.approx(2 / 6 * 6 / 5)  # 2*1/(2+3)

        empty = np.zeros((3, 3), dtype=bool)
        assert mt.temporal_iou(empty, empty) == 1.0
        assert mt.dice(empty, empty) == 1.0

        rng = np.random.default_rng(1)
        for _ in range(100):
            A = _random_mask(rng, 20, 20, 0.2)
            B = _random_mask(rng, 20, 20, 0.2)
            A[0, 0] = B[0, 0] = True
            big_A = np.zeros((40, 40), dtype=bool)
            big_B = np.zeros((40, 40), dtype=bool)
            di, dj = rng.integers(0, 20, size=2)
            big_A[di:di + 20, dj:dj + 20] = A
            big_B[di:di + 20, dj:dj + 20] = B
            pad_A = np.zeros((40, 40), dtype=bool)
            pad_B = np.zeros((40, 40), dtype=bool)
            pad_A[:20, :20] = A
            pad_B[:20, :20] = B
            va, _ = mt.chamfer(pad_A, pad_B)
            vb, _ = mt.chamfer(big_A, big_B)
            assert abs(va - vb) < 1e-9
            assert mt.temporal_iou(pad_A, pad_B) == mt.temporal_iou(big_A, big_B)
            assert mt.area_flicker(pad_A, pad_B) == mt.area_flicker(big_A, big_B)
            assert mt.dice(pad_A, pad_B) == mt.dice(big_A, big_B)

    _report(capsys, 2, "metric formula spot checks", check)


def test_criterion_03_loss_value_oracles(capsys):
    def check():
        rng = np.random.default_rng(2)
        for _ in range(50):
            # KP-ALB
            load = rng.random(5)
            pi = rng.random(5)
            pi = pi / pi.sum()
            stats = pr.RoutingStats(f=np.ones(5), load=load)
            exp = sum((load[i] - pi[i]) ** 2 for i in range(5)) / 5
            assert abs(pr.kp_alb_loss(stats, pi) - exp) < 1e-10

            # SRC
            R = rng.random((3, 2, 3, 5))
            M = (rng.random((3, 2, 3)) > 0.3).astype(float)
            num, den = 0.0, 0.0
            for t in range(1, 3):
                for i in range(2):
                    for j in range(3):
                        if M[t, i, j]:
                            num += sum((R[t, i, j, k] - R[t - 1, i, j, k]) ** 2
                                       for k in range(5))
                            den += 1
            exp = num / (5 * den) if den else 0.0
            assert abs(ref.src_loss(R, M) - exp) < 1e-10

            # CP
            z = rng.normal(0, 2, size=(4, 5))
            A = rng.integers(0, 2, size=(4, 5)).astype(float)
            total = 0.0
            for i in range(4):
                for k in range(5):
                    s = 1 / (1 + np.exp(-z[i, k]))
                    total += -(A[i, k] * np.log(s) + (1 - A[i, k]) * np.log(1 - s))
            assert abs(ref.cp_loss(z, A) - total / 20) < 1e-10

            # sub-stabilizer
            f = rng.random((5, 3))
            p = rng.random((5, 3))
            exp = sum(3 * sum(f[m, s] * p[m, s] for s in range(3))
                      for m in range(5)) / 5
            assert abs(pr.sub_stabilizer_loss(f, p) - exp) < 1e-10

            # flow matching
            pred, x0, x1 = (rng.normal(size=8) for _ in range(3))
            exp = np.mean([(pred[i] - (x1[i] - x0[i])) ** 2 for i in range(8)])
            assert abs(pr.flow_matching_loss(pred, x0, x1) - exp) < 1e-10

            # total
            c = rng.normal(size=5)
            exp = c[0] + 0.01 * c[1] + 0.005 * c[2] + 0.01 * c[3] + 0.005 * c[4]
            assert abs(pr.total_loss(*c) - exp) < 1e-10

        # composite-weight example: unit components sum to exactly 1.03
        assert pr.total_loss(1, 1, 1, 1, 1) == pytest.approx(1.03, abs=1e-12)

    _report(capsys, 3, "loss value oracles", check)


def test_criterion_04_gradient_verification(capsys):
    def check():
        start = time.monotonic()
        for seed in range(10):
            rng = np.random.default_rng(seed)
            tokens = rng.normal(size=(3, 3, 6))
            A = rng.integers(0, 2, size=(3, 3, 5)).astype(float)
            state = pr.PredictorState(w=rng.normal(size=(6, 5)),
                                      b=rng.normal(size=5))

            def cp_fn(arrs):
                st = pr.PredictorState(w=arrs["w"], b=arrs["b"])
                return ref.cp_loss(pr.predictor_logits(st, tokens), A)

            gw, gb = pr.cp_loss_grad(tokens, state, A)
            assert pr.grad_check(cp_fn, {"w": state.w.copy(), "b": state.b.copy()},
                                 {"w": gw, "b": gb}) < 1e-5

            c_action = tokens.reshape(-1, 6).mean(axis=0)
            t_embed = rt.timestep_embed(0.4)
            pi = rng.random(5)
            prior = pi / pi.sum()
            ow = rng.normal(size=(14, 5))
            ob = rng.normal(size=5)
            tw = rng.normal(size=(6, 5))

            def kp_fn(arrs):
                z = (np.concatenate([c_action, t_embed]) @ arrs["ow"]
                     + arrs["ob"] + tokens @ arrs["tw"])
                return pr.kp_alb_loss(pr.routing_stats(rt.softmax(z)),
                                      prior)

            g = pr.kp_alb_grad(tokens, c_action, t_embed, ow, ob, tw, prior)
            assert pr.grad_check(kp_fn, {"ow": ow.copy(), "ob": ob.copy(),
                                         "tw": tw.copy()},
                                 dict(zip(("ow", "ob", "tw"), g))) < 1e-5

            tok_seq = rng.normal(size=(3, 2, 2, 6))
            m_tool = (rng.random((3, 2, 2)) > 0.3).astype(float)

            def src_fn(arrs):
                st = pr.PredictorState(w=arrs["w"], b=arrs["b"])
                R = pr._sigmoid(np.stack([pr.predictor_logits(st, tk)
                                          for tk in tok_seq]))
                return ref.src_loss(R, m_tool)

            gw, gb = pr.src_loss_grad(tok_seq, state, m_tool)
            assert pr.grad_check(src_fn, {"w": state.w.copy(),
                                          "b": state.b.copy()},
                                 {"w": gw, "b": gb}) < 1e-5
        assert time.monotonic() - start < 60

    _report(capsys, 4, "analytic gradients vs finite differences", check)


def test_criterion_06_routing_invariants(capsys):
    def check():
        rng = np.random.default_rng(3)
        params = rt.init_gate_params(seed=7, c=16)
        tokens = rng.normal(size=(100, 100, 16))
        c_action = tokens.mean(axis=(0, 1))
        t_embed = rt.timestep_embed(0.5)
        P = rt.outer_gate(c_action, t_embed, params, tokens=tokens)
        sched_cfg = rt.CapacitySchedule()
        A = rt.topk_select(P, sched_cfg.k)

        np.testing.assert_allclose(P.sum(axis=-1), 1.0, atol=1e-9)

        # top-k mask vs sort oracle on all 10^4 tokens
        flat = P.reshape(-1, 5)
        flat_A = A.reshape(-1, 5)
        for i in range(flat.shape[0]):
            order = sorted(range(5), key=lambda k: (-flat[i, k], k))
            expect = np.zeros(5)
            expect[order[:2]] = 1.0
            assert np.array_equal(flat_A[i], expect)

        for progress in (0.0, 0.2, 0.575, 0.75, 1.0):
            fusion = rt.capacity_blend(P, A, progress, sched_cfg)
            np.testing.assert_allclose(fusion.sum(axis=-1), 1.0, atol=1e-9)
            if progress < 0.40:
                np.testing.assert_allclose(fusion, P, atol=1e-12)
            elif progress >= 0.75:
                masked = P * A
                sparse = masked / masked.sum(axis=-1, keepdims=True)
                np.testing.assert_allclose(fusion, sparse, atol=1e-12)
        # midpoint of the blend window mixes evenly
        lam = sched_cfg.blend_factor(0.575)
        assert abs(lam - 0.5) < 1e-12

    _report(capsys, 6, "routing invariants", check)


def test_criterion_07_kinematics_field_oracles(capsys):
    def check():
        import test_kinematics as tk

        geom = ToolGeometry()
        rng = np.random.default_rng(4)
        for _ in range(20):
            tk.assert_endpoints_match_oracle(tk.random_state(rng), rng)

        cam = default_camera(32, 32)
        for seed in range(20):
            r2 = np.random.default_rng(1000 + seed)
            poses = forward_kinematics(random_visible_state(r2), geom)
            labels, depth = rasterize(poses, cam)
            o_labels, o_depth = ray_march_oracle(poses, cam)
            assert np.array_equal(labels, o_labels)
            covered = labels >= 0
            assert covered.any()
            assert np.max(np.abs(depth[covered] - o_depth[covered])) < 2e-4

        # motion laws on a static trajectory
        traj = synth_trajectory("static", T=4, seed=0, geom=geom)
        for t in range(4):
            v, a = motion_at(traj, geom, cam, t)
            assert np.all(v == 0) and np.all(a == 0)

        # quadratic track: exact finite-difference velocity on the wrist
        from kvacontrol.kinematics import ArticulatedState, Trajectory, project_point
        dt = 0.5
        states = []
        for t in range(4):
            x = 0.001 * (t * dt) ** 2
            states.append(ArticulatedState(p=np.array([x, 0.0, 0.11]),
                                           r=np.zeros(3), q_sw=0.2,
                                           q_lg=0.2, q_rg=0.2))
        traj = Trajectory(states=tuple(states), dt=dt)
        t = 2
        labels, _ = rasterize(forward_kinematics(states[t], geom), cam)
        v, _ = motion_at(traj, geom, cam, t)
        wrist = labels == 1
        assert wrist.any()
        cur = midpoint_uvz(states[t], geom, cam, "wrist")
        prev = midpoint_uvz(states[t - 1], geom, cam, "wrist")
        expect = (cur - prev) / dt
        for c in range(3):
            np.testing.assert_allclose(v[wrist][:, c], expect[c], atol=1e-12)

    _report(capsys, 7, "kinematics and field oracles", check)


def test_criterion_08_budget_arithmetic(capsys):
    def check():
        # partition counts on N=10
        mode = sch.partition(np.arange(10, dtype=float))
        assert tuple(np.bincount(mode, minlength=3)) == (2, 3, 5)

        # per-frame cost ratio with constants (1.0, 0.4, 0.02)
        plans = [mode] * 6
        trace = sch.simulate_execution(plans, np.full(6, 6))
        for t in range(1, 6):  # frame 0 is the forced cache warm-up
            assert abs(trace.frame_cost[t] / 10 - 0.33) < 1e-12

        # refresh rule on three synthetic significance regimes
        assert sch.refresh_interval(0.9) == 1
        assert sch.refresh_interval(0.45) == 2
        assert sch.refresh_interval(0.1) == 4

    _report(capsys, 8, "budget arithmetic reproduction", check)


def test_criterion_09_end_to_end_self_consistency(capsys, tmp_path):
    def check():
        # self-consistency: prediction = ground truth on a self-consistent
        # (static) trajectory scores perfectly on every frame
        out = str(tmp_path / "run")
        assert cli.main(["--seed", "3", "--out", out, "--resolution", "32x32",
                         "synth", "--kind", "static", "--frames", "8"]) == 0
        traj = os.path.join(out, "trajectory.txt")
        assert cli.main(["--seed", "3", "--out", os.path.join(out, "fields"),
                         "--resolution", "32x32", "lift", "--traj", traj]) == 0
        assert cli.main(["--out", os.path.join(out, "metrics"), "eval",
                         "--pred", os.path.join(out, "masks"),
                         "--target", os.path.join(out, "masks")]) == 0
        lines = open(os.path.join(out, "metrics", "metrics.csv")).read().splitlines()
        for row in lines[1:]:
            frame, cd, ti, af, dice = row.split(",")
            assert float(cd) == 0.0
            assert float(dice) == 1.0
            if frame != "mean" and frame != "1":
                assert float(ti) == 1.0

        # significance-driven monotone trend needs actual motion; coarse
        # resolution keeps the tool a large share of the token grid
        dyn = str(tmp_path / "dyn")
        assert cli.main(["--seed", "3", "--out", dyn, "--resolution", "16x16",
                         "synth", "--frames", "24"]) == 0
        assert cli.main(["--seed", "3", "--out", os.path.join(dyn, "routing"),
                         "--resolution", "16x16", "route",
                         "--traj", os.path.join(dyn, "trajectory.txt")]) == 0
        stats = open(os.path.join(dyn, "routing",
                                  "routing_stats.csv")).read().splitlines()
        header = stats[0].split(",")
        col = header.index("skip_mode_frac")
        fracs = [float(r.split(",")[col]) for r in stats[1:]]
        assert all(a > b for a, b in zip(fracs, fracs[1:])), fracs

    _report(capsys, 9, "end-to-end self consistency", check)


def test_criterion_10_determinism(capsys, tmp_path):
    def check():
        trees = []
        for name in ("a", "b"):
            out = str(tmp_path / name)
            assert cli.main(["--seed", "11", "--out", out,
                             "--resolution", "32x32", "synth",
                             "--frames", "5"]) == 0
            traj = os.path.join(out, "trajectory.txt")
            for subcmd, sub_out in (("lift", "fields"), ("route", "routing"),
                                    ("schedule", "sched")):
                assert cli.main(["--seed", "11", "--out",
                                 os.path.join(out, sub_out),
                                 "--resolution", "32x32", subcmd,
                                 "--traj", traj]) == 0
            tree = {}
            for dirpath, _, names in os.walk(out):
                for fn in names:
                    p = os.path.join(dirpath, fn)
                    tree[os.path.relpath(p, out)] = open(p, "rb").read()
            trees.append(tree)
        assert trees[0].keys() == trees[1].keys()
        for fn in trees[0]:
            assert trees[0][fn] == trees[1][fn], fn

    _report(capsys, 10, "pipeline determinism", check)
