"""End-to-end acceptance gate.

Each test prints one PASS/FAIL line directly to the terminal (bypassing
pytest's capture) so the gate can be read at a glance from any run.

Criteria, in order:
  1. ablation trend: held-out angle MSE is non-increasing in the number of
     training sweeps k (within a 10% band), k=16 strictly beats k=1,
     averaged over 3 seeds, in under 10 minutes
  2. closed-loop recovery: the k=16 model completes the course with
     MCTD < 2% of path length while k=1 fails or is at least 3x worse,
     on at least 2 of 3 seeds
  3. oracle sanity: the privileged policy tracks 20 random paths with
     MCTD < 0.2 m and MWMD <= 0.4 m, in under 10 seconds
  4. metric correctness: MWMD/MCTD match brute-force references to 1e-12
     on 100 random instances
  5. analytic gradients match central finite differences (h = 1e-5) to a
     relative error below 1e-4 over 20 random draws
  6. optimizer: Adam drives (w - 3)^2 from w = 0 to below 1e-2 within
     2000 steps, and the learning-rate schedule halves every 25 epochs
  7. determinism: two pipeline runs into fresh directories both succeed and
     produce byte-identical metrics and model files
  8. property suite: wrap laws, rigid invariance, jitter bounds, and
     step/heading invariants all hold, in under 60 seconds
"""

import math
import time

import numpy as np
import pytest

from skytrack import augmentation as aug
from skytrack import cli, kernels, learner
from skytrack.config import RunConfig
from skytrack.geometry import (
    Path,
    path_length,
    point_segment_distance,
    sum_angle_change,
    wrap_angle,
)
from skytrack.metrics import evaluate, mean_cross_track_distance, mean_waypoint_min_distance
from skytrack.simulator import COMPLETED, OraclePolicy, rollout
from skytrack.world import generate_world

ABLATION_LEVELS = [1, 4, 8, 16]
SEEDS = (0, 1, 2)


def report(capsys, criterion: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def ablation_study():
    """One full ablation per seed at the default scenario; shared by the
    trend criterion and the closed-loop recovery criterion."""
    start = time.monotonic()
    per_seed = {}
    lengths = {}
    for seed in SEEDS:
        config = RunConfig(seed=seed, ablation_levels=tuple(ABLATION_LEVELS))
        route = cli.generate_route(config, "path_00")
        world = generate_world(config, cli.routes_bounding_box([route], config.world_margin))
        per_seed[seed] = cli.run_ablation(config, world, route)
        lengths[seed] = path_length(route)
    return per_seed, lengths, time.monotonic() - start


def test_criterion_1_ablation_trend(ablation_study, capsys):
    per_seed, _, elapsed = ablation_study
    avg = [
        float(np.mean([rows[i][1].angle_mse for rows in per_seed.values()]))
        for i in range(len(ABLATION_LEVELS))
    ]
    banded = all(b <= 1.10 * a for a, b in zip(avg, avg[1:]))
    strict = avg[-1] < avg[0]
    within_budget = elapsed < 600.0
    curve = ", ".join(f"k={k}: {v:.4f}" for k, v in zip(ABLATION_LEVELS, avg))
    report(
        capsys,
        1,
        banded and strict and within_budget,
        f"avg angle MSE over seeds {SEEDS}: {curve} ({elapsed:.0f} s)",
    )


def test_criterion_2_closed_loop_recovery(ablation_study, capsys):
    per_seed, lengths, _ = ablation_study
    outcomes = []
    for seed, rows in per_seed.items():
        by_k = dict(rows)
        k16, k1 = by_k[16], by_k[1]
        threshold = 0.02 * lengths[seed]
        k16_ok = k16.termination == COMPLETED and k16.mctd < threshold
        k1_bad = k1.termination != COMPLETED or k1.mctd >= 3.0 * k16.mctd
        outcomes.append((seed, k16_ok and k1_bad, k16, k1))
    n_ok = sum(ok for _, ok, _, _ in outcomes)
    detail = "; ".join(
        f"seed {seed}: k16 {k16.termination} mctd={k16.mctd:.3f} m, "
        f"k1 {k1.termination} mctd={k1.mctd:.3f} m"
        for seed, _, k16, k1 in outcomes
    )
    report(capsys, 2, n_ok >= 2, f"{n_ok}/3 seeds recover ({detail})")


def test_criterion_3_oracle_tracking(capsys):
    start = time.monotonic()
    cfg = RunConfig(n_augmented=1, capture_radius=0.4, seed=0)
    worst_mctd, worst_mwmd = 0.0, 0.0
    for i in range(20):
        route_config = RunConfig(seed=100 + i, n_waypoints=21, path_length=40.0, sac_budget=2.0)
        route = cli.generate_route(route_config, f"oracle_{i:02d}")
        world = generate_world(RunConfig(seed=i, n_landmarks=40, signature_dim=4), cli.routes_bounding_box([route], 5.0))
        log = rollout(OraclePolicy(), world, route, cfg)
        rep = evaluate(route, log)
        assert rep.termination == COMPLETED
        worst_mctd = max(worst_mctd, rep.mctd)
        worst_mwmd = max(worst_mwmd, rep.mwmd)
    elapsed = time.monotonic() - start
    ok = worst_mctd < 0.2 and worst_mwmd <= 0.4 and elapsed < 10.0
    report(
        capsys,
        3,
        ok,
        f"20 paths: worst mctd={worst_mctd:.3f} m, worst mwmd={worst_mwmd:.3f} m "
        f"({elapsed:.1f} s)",
    )


def _brute_mwmd(waypoints, positions):
    return sum(
        min(math.hypot(x - wx, y - wy) for x, y in positions.tolist()) for wx, wy in waypoints
    ) / len(waypoints)


def _brute_mctd(waypoints, positions):
    total = 0.0
    for x, y in positions.tolist():
        dists = sorted(
            (math.hypot(x - wx, y - wy), i) for i, (wx, wy) in enumerate(waypoints)
        )
        (_, i), (_, j) = dists[0], dists[1]
        total += point_segment_distance((x, y), waypoints[i], waypoints[j])
    return total / len(positions)


def test_criterion_4_metric_brute_force(capsys):
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        n_w = int(rng.integers(2, 201))
        n_t = int(rng.integers(1, 201))
        x, y = rng.uniform(-50, 50, size=2)
        pts = []
        for _ in range(n_w):
            pts.append((float(x), float(y)))
            x += rng.uniform(0.1, 3.0)
            y += rng.uniform(-2.0, 2.0)
        route = Path(pts, "rand")
        traj = rng.uniform(-60, 60, size=(n_t, 2))
        worst = max(
            worst,
            abs(mean_waypoint_min_distance(route, traj) - _brute_mwmd(pts, traj)),
            abs(mean_cross_track_distance(route, traj) - _brute_mctd(pts, traj)),
        )
    report(capsys, 4, worst <= 1e-12, f"100 instances, max |Δ| = {worst:.2e}")


def test_criterion_5_gradient_check(capsys):
    rng = np.random.default_rng(11)
    h = 1e-5
    worst = 0.0
    for draw in range(20):
        m = learner.init_model(200 + draw, 10, projection_dim=6, hidden=7)
        m.b1[:] = 0.1 * rng.normal(size=m.b1.shape)
        m.b2 = float(rng.normal())
        x = rng.normal(size=(8, 10))
        y = rng.normal(size=8)
        z = x @ m.projection.T  # the head's input: the frozen projection gets no gradient
        grads = {key: np.empty_like(getattr(m, key)) for key in ("w1", "b1", "w2")} | {"b2": np.empty(1)}
        kernels.head_gradient(z, y, m.w1, m.b1, m.w2, m.b2, list(grads.values()))
        scratch = [np.empty_like(g) for g in grads.values()]

        def loss_at():
            return kernels.head_gradient(z, y, m.w1, m.b1, m.w2, m.b2, scratch)

        for name in ("w1", "b1", "w2"):
            arr = getattr(m, name).ravel()
            flat = grads[name].ravel()
            for i in rng.integers(arr.size, size=min(5, arr.size)):
                orig = arr[i]
                arr[i] = orig + h
                up = loss_at()
                arr[i] = orig - h
                down = loss_at()
                arr[i] = orig
                fd = (up - down) / (2 * h)
                denom = max(abs(fd), abs(flat[i]), 1e-8)
                worst = max(worst, abs(flat[i] - fd) / denom)
        orig = m.b2
        m.b2 = orig + h
        up = loss_at()
        m.b2 = orig - h
        down = loss_at()
        m.b2 = orig
        fd = (up - down) / (2 * h)
        denom = max(abs(fd), abs(grads["b2"][0]), 1e-8)
        worst = max(worst, abs(grads["b2"][0] - fd) / denom)
    report(capsys, 5, worst < 1e-4, f"20 draws, max relative error = {worst:.2e}")


def test_criterion_6_optimizer(capsys):
    p = np.array([0.0])
    state = learner.AdamState(np.zeros(1), np.zeros(1))
    for _ in range(2000):
        learner.adam_step(p, 2 * (p - 3.0), state, lr=1e-2)
    gap = abs(p[0] - 3.0)

    cfg = RunConfig()
    schedule_ok = (
        learner.lr_at(0, cfg) == 1e-4
        and learner.lr_at(25, cfg) == 5e-5
        and learner.lr_at(50, cfg) == 2.5e-5
        and learner.lr_at(75, cfg) == 1.25e-5
    )
    report(
        capsys,
        6,
        gap < 1e-2 and schedule_ok,
        f"|w - 3| = {gap:.2e} after 2000 steps; schedule halves every 25 epochs",
    )


def test_criterion_7_determinism(tmp_path, capsys):
    config_file = tmp_path / "config.txt"
    config_file.write_text(
        "n_waypoints = 21\n"
        "path_length = 40.0\n"
        "sac_budget = 2.0\n"
        "n_landmarks = 60\n"
        "n_augmented = 4\n"
        "epochs = 10\n"
    )
    digests = []
    for run in (tmp_path / "run_a", tmp_path / "run_b"):
        assert cli.main(["gen", "--config", str(config_file), "--out-dir", str(run)]) == 0
        assert cli.main(["pipeline", "--config", str(config_file), "--out-dir", str(run)]) == 0
        digests.append(
            (
                (run / "path_00_metrics.json").read_bytes(),
                (run / "path_00_model.json").read_bytes(),
            )
        )
    ok = digests[0] == digests[1]
    report(capsys, 7, ok, "two pipeline runs byte-identical (metrics and model files)")


def test_criterion_8_property_suite(capsys):
    start = time.monotonic()
    rng = np.random.default_rng(77)

    # wrap laws: range, periodicity, idempotence
    for x in rng.uniform(-50, 50, size=1000):
        w = wrap_angle(float(x))
        assert -math.pi < w <= math.pi
        k = int(rng.integers(-3, 4))
        assert wrap_angle(float(x) + 2 * math.pi * k) == pytest.approx(w, abs=1e-9)
        assert wrap_angle(w) == w

    # rigid invariance of path length and total turn
    for _ in range(50):
        pts = rng.uniform(-10, 10, size=(8, 2)).tolist()
        route = Path(pts, "p")
        phi, tx, ty = rng.uniform(-math.pi, math.pi), *rng.uniform(-5, 5, size=2)
        c, s = math.cos(phi), math.sin(phi)
        moved = Path([(c * x - s * y + tx, s * x + c * y + ty) for x, y in pts], "q")
        assert path_length(moved) == pytest.approx(path_length(route), rel=1e-9)
        assert sum_angle_change(moved) == pytest.approx(sum_angle_change(route), abs=1e-9)

    # jitter bounds: every perturbation drawn for a sweep stays inside the
    # configured box
    cfg = RunConfig(n_augmented=2, capture_radius=0.4, seed=0)
    for sweep in range(1, 6):
        stream = aug.sweep_rng(cfg.seed, "p", sweep)
        for _ in range(200):
            dx = stream.uniform(-cfg.pos_jitter, cfg.pos_jitter)
            dy = stream.uniform(-cfg.pos_jitter, cfg.pos_jitter)
            dyaw = stream.uniform(-cfg.yaw_jitter, cfg.yaw_jitter)
            assert abs(dx) <= 1.0 and abs(dy) <= 1.0 and abs(dyaw) <= 0.1

    # step/heading invariants of the closed-loop walk
    route = Path([(0, 0), (5, 0), (5, 5)], "L")
    world = generate_world(RunConfig(seed=0, n_landmarks=40, signature_dim=4), cli.routes_bounding_box([route], 5.0))
    log = rollout(OraclePolicy(), world, route, cfg)
    assert log.termination == COMPLETED
    for (ax, ay, _), (bx, by, b_yaw) in zip(log.poses.tolist(), log.poses[1:].tolist()):
        assert math.hypot(bx - ax, by - ay) == pytest.approx(cfg.step, abs=1e-9)
        assert wrap_angle(math.atan2(by - ay, bx - ax) - b_yaw) == pytest.approx(0.0, abs=1e-9)

    elapsed = time.monotonic() - start
    report(capsys, 8, elapsed < 60.0, f"wrap/rigid/jitter/step invariants hold ({elapsed:.1f} s)")
