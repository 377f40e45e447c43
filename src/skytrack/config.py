"""The run config: one frozen record of every setting, read from flat
``key = value`` text. A ``RunConfig`` range-checks itself when it is built,
so every one that exists is valid, a library caller's included."""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import get_type_hints


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    out_dir: str = "runs/default"
    # path synthesis
    n_paths: int = 1
    n_waypoints: int = 61
    path_length: float = 150.0
    sac_budget: float = 5.0
    # world synthesis
    world_margin: float = 10.0
    n_landmarks: int = 200
    signature_dim: int = 8
    bins: int = 32
    fov_deg: float = 90.0
    # augmentation
    n_augmented: int = 16
    pos_jitter: float = 1.0
    yaw_jitter: float = 0.1
    step: float = 0.2
    capture_radius: float = 2.0
    # control
    command_gain: float = 0.2
    # training
    lr0: float = 1e-4
    batch_size: int = 64
    epochs: int = 100
    lr_halving_period: int = 25
    projection_dim: int = 128
    hidden_units: int = 512
    # ablation
    ablation_levels: tuple[int, ...] = (1, 4, 8, 16)
    n_test_sweeps: int = 4

    def __post_init__(self) -> None:
        """Reject out-of-range values, naming the key, before a command does
        any work. Comparisons are written so that NaN fails them."""

        def check(key: str, ok: bool, rule: str) -> None:
            if not ok:
                raise ConfigError(f"{key} = {getattr(self, key)!r} is out of range: {rule}")

        for key, value in vars(self).items():
            if isinstance(value, float):
                check(key, math.isfinite(value), "must be finite")
        for key in (
            "n_landmarks", "signature_dim", "bins", "n_augmented", "batch_size",
            "epochs", "lr_halving_period", "projection_dim", "hidden_units", "n_test_sweeps",
        ):
            check(key, getattr(self, key) >= 1, "must be >= 1")
        # Caps, so that gen cannot loop without end: route ids have two digits.
        check("n_paths", 1 <= self.n_paths <= 100, "must be in 1..100")
        check("n_waypoints", 2 <= self.n_waypoints <= 10000, "must be in 2..10000")
        for key in ("path_length", "lr0"):
            check(key, getattr(self, key) > 0, "must be > 0")
        for key in ("seed", "sac_budget", "world_margin", "pos_jitter", "yaw_jitter"):
            check(key, getattr(self, key) >= 0, "must be >= 0")
        # generate_route's turn per interior waypoint, which must stay below pi.
        turns = self.n_waypoints - 2
        ok = turns < 1 or self.sac_budget / turns < math.pi
        check("sac_budget", ok, "must be < pi * (n_waypoints - 2)")
        check("fov_deg", 0 < self.fov_deg <= 360, "must be in (0, 360]")
        check("command_gain", 0 < self.command_gain <= 1, "must be in (0, 1]")
        check("step", 0 < self.step <= self.capture_radius, "must be in (0, capture_radius]")
        levels = self.ablation_levels
        check("ablation_levels", bool(levels) and min(levels) >= 1, "must list one or more levels, each >= 1")
        # Empty text would be the current directory. Each command's resolved
        # config (``format_config``) must read back as written: it is UTF-8 text
        # (which cannot hold a lone surrogate, as os.fsdecode makes of a byte
        # that is not UTF-8), '#' starts a comment, a line break ends the line
        # and the value is stripped.
        out_dir = self.out_dir
        ok = out_dir != "" and out_dir.encode("utf-8", "replace").decode("utf-8") == out_dir
        ok = ok and "#" not in out_dir and len(out_dir.splitlines()) <= 1 and out_dir == out_dir.strip()
        check("out_dir", ok, "must be non-empty UTF-8 text with no '#' or line break, nor start or end with whitespace")


def parse_config(text: str) -> RunConfig:
    """Parse flat ``key = value`` lines over the documented defaults."""
    types = get_type_hints(RunConfig)  # int, float, str or tuple[int, ...]
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in types:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        try:
            if types[key] == tuple[int, ...]:
                values[key] = tuple(int(v) for v in value.split(",") if v.strip())
            else:
                values[key] = types[key](value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
    return RunConfig(**values)


def format_config(config: RunConfig) -> str:
    """Every key of ``config`` in order as one ``key = value`` line, which ``parse_config`` reads back."""
    values = {k: ",".join(map(str, v)) if isinstance(v, tuple) else v for k, v in vars(config).items()}
    return "".join(f"{key} = {value}\n" for key, value in values.items())


def load_config(file: Path | str) -> RunConfig:
    try:
        text = Path(file).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{file}: {exc}") from exc
    return parse_config(text)
