"""Output checks for one benchmark repetition.

Every check reads only the artifacts a repetition left in its ``out_dir``
and recomputes what it can with code of its own, independent of ``skytrack``:

- ``artifact_digest``: sha256 over the deterministic artifacts, compared by
  the caller against the first repetition of the run.
- ``check_pipeline``, ``check_ablation``: per workload kind,
  the structural and numeric checks that make a repetition fail
  (``problems``), and the quality figures that are reported (``quality``).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

DIGEST_PATTERNS = ("*_model.json", "*_metrics.json", "*_trajectory.csv", "ablation.csv")
TERMINATIONS = ("completed", "max_steps", "diverged")
TOLERANCE = 1e-9  # metrics.json against the brute-force recomputation
TREND_BAND = 1.10  # ACCEPTANCE 1: each k may exceed the previous by at most 10%
RECOVERY_SHARE = 0.02  # ACCEPTANCE 2: MCTD below 2% of the path length


def artifact_digest(out_dir: Path) -> str:
    h = hashlib.sha256()
    files = sorted({f for pattern in DIGEST_PATTERNS for f in out_dir.glob(pattern)})
    for f in files:
        h.update(f.name.encode())
        h.update(hashlib.sha256(f.read_bytes()).digest())
    return f"{len(files)}:{h.hexdigest()}"


def disk_bytes(out_dir: Path) -> int:
    return sum(f.stat().st_size for f in out_dir.rglob("*") if f.is_file())


def _read_xy(file: Path) -> np.ndarray:
    """The x and y columns of a path or trajectory CSV."""
    with open(file, newline="") as fh:
        return np.array([[float(r["x"]), float(r["y"])] for r in csv.DictReader(fh)])


def _path_length(points: np.ndarray) -> float:
    return float(np.hypot(*np.diff(points, axis=0).T).sum())


def brute_mwmd(waypoints: np.ndarray, track: np.ndarray) -> float:
    d = np.hypot(waypoints[:, None, 0] - track[None, :, 0], waypoints[:, None, 1] - track[None, :, 1])
    return float(d.min(axis=1).mean())


def brute_mctd(waypoints: np.ndarray, track: np.ndarray) -> float:
    """Distance to the segment joining each point's two closest waypoints
    (ties toward the lower index), clamped to the segment, averaged."""
    d = np.hypot(waypoints[None, :, 0] - track[:, None, 0], waypoints[None, :, 1] - track[:, None, 1])
    nearest = np.argsort(d, axis=1, kind="stable")[:, :2]
    a, b = waypoints[nearest[:, 0]], waypoints[nearest[:, 1]]
    ab = b - a
    den = (ab**2).sum(axis=1)
    t = np.where(den > 0, ((track - a) * ab).sum(axis=1) / np.where(den > 0, den, 1.0), 0.0)
    closest = a + np.clip(t, 0.0, 1.0)[:, None] * ab
    return float(np.hypot(*(track - closest).T).mean())


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= TOLERANCE * max(1.0, abs(b))


def _score_route(out_dir: Path, route_file: Path, problems: list[str]) -> dict | None:
    """Check one route's metrics.json against its trajectory and path."""
    stem = route_file.stem
    metrics_file = out_dir / f"{stem}_metrics.json"
    trajectory_file = out_dir / f"{stem}_trajectory.csv"
    if not (metrics_file.is_file() and trajectory_file.is_file()):
        problems.append(f"{stem}: metrics or trajectory file missing")
        return None
    report = json.loads(metrics_file.read_text())
    waypoints = _read_xy(route_file)
    track = _read_xy(trajectory_file)
    mwmd, mctd = brute_mwmd(waypoints, track), brute_mctd(waypoints, track)
    if not (_close(report["mwmd"], mwmd) and _close(report["mctd"], mctd)):
        problems.append(
            f"{stem}: metrics.json mwmd={report['mwmd']!r} mctd={report['mctd']!r} "
            f"!= recomputed {mwmd!r} {mctd!r}"
        )
    if report["termination"] not in TERMINATIONS:
        problems.append(f"{stem}: unknown termination {report['termination']!r}")
    return {
        "termination": report["termination"],
        "mctd": report["mctd"],
        "mwmd": report["mwmd"],
        "length": _path_length(waypoints),
    }


def _summarize(routes: list[dict]) -> dict:
    return {
        "rollouts": len(routes),
        "completed_share": sum(r["termination"] == "completed" for r in routes) / len(routes),
        "mctd_m": sum(r["mctd"] for r in routes) / len(routes),
        "mwmd_m": sum(r["mwmd"] for r in routes) / len(routes) if "mwmd" in routes[0] else None,
    }


def _recovers(route: dict) -> bool:
    return route["termination"] == "completed" and route["mctd"] < RECOVERY_SHARE * route["length"]


def check_pipeline(out_dir: Path, n_paths: int) -> tuple[list[str], dict]:
    problems: list[str] = []
    manifest_file = out_dir / "manifest.json"
    if not manifest_file.is_file():
        return ["manifest.json missing"], {}
    manifest = json.loads(manifest_file.read_text())
    if len(manifest) != n_paths:
        problems.append(f"manifest lists {len(manifest)} paths, expected {n_paths}")
    routes = []
    for record in manifest:
        path_id = record["path_id"]
        if "error" in record:
            problems.append(f"{path_id}: {record['error']}")
            continue
        norm_file = out_dir / f"{path_id}_norm.json"
        if not (norm_file.is_file() and (out_dir / f"{path_id}_model.json").is_file()):
            problems.append(f"{path_id}: norm or model file missing")
            continue
        if json.loads(norm_file.read_text())["n_samples"] != record["n_samples"]:
            problems.append(f"{path_id}: manifest n_samples disagrees with the dataset sidecar")
        route = _score_route(out_dir, out_dir / f"{path_id}.csv", problems)
        if route is None:
            continue
        if route["termination"] != record["termination"]:
            problems.append(f"{path_id}: manifest termination disagrees with metrics.json")
        routes.append(route)
    if not routes:
        return problems or ["no scored paths"], {}
    quality = _summarize(routes)
    quality["recovers"] = [_recovers(r) for r in routes]
    return problems, quality


def check_ablation(out_dir: Path, levels: list[int]) -> tuple[list[str], dict]:
    problems: list[str] = []
    table = out_dir / "ablation.csv"
    if not table.is_file():
        return ["ablation.csv missing"], {}
    with open(table, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if [int(r["k"]) for r in rows] != levels:
        return [f"ablation.csv levels {[r['k'] for r in rows]} != {levels}"], {}
    curve = [float(r["angle_mse"]) for r in rows]
    if not all(math.isfinite(v) and v > 0 for v in curve):
        problems.append(f"angle MSE not finite and positive: {curve}")
    if not (all(b <= TREND_BAND * a for a, b in zip(curve, curve[1:])) and curve[-1] < curve[0]):
        problems.append(f"angle MSE trend broken: {curve}")
    routes = []
    for r in rows:
        if r["termination"] not in TERMINATIONS or not math.isfinite(float(r["mctd"])):
            problems.append(f"k={r['k']}: bad row {r}")
            continue
        routes.append({"termination": r["termination"], "mctd": float(r["mctd"])})
    quality = _summarize(routes) if routes else {}
    quality["angle_mse"] = curve[-1]
    quality["angle_mse_curve"] = curve
    if routes:
        length = _path_length(_read_xy(out_dir / "path_00.csv"))
        quality["recovers"] = [_recovers(dict(routes[-1], length=length))]
    return problems, quality

