"""The run config parser, fuzzed: any text gives a config or one ConfigError,
and every config that can be built reads back from its resolved copy."""

from dataclasses import fields

from hypothesis import HealthCheck, example, given, reject, settings
from hypothesis import strategies as st

from skytrack.artifacts import write_text
from skytrack.config import ConfigError, RunConfig, format_config, load_config, parse_config

KEYS = [f.name for f in fields(RunConfig)]
VALUES = st.one_of(
    st.text(),
    st.integers(-3, 100).map(str),
    st.integers().map(str),
    st.floats(-10, 400).map(str),
    st.floats().map(str),
    st.lists(st.integers(-2, 20), max_size=4).map(lambda levels: ",".join(map(str, levels))),
    st.sampled_from(["", "1e999", "-0.0", "0x10", "1_000", "9" * 5000]),
)


def assignment(keys):
    return st.tuples(keys, VALUES).map(lambda kv: f"{kv[0]} = {kv[1]}")


KNOWN = assignment(st.sampled_from(KEYS))
TEXTS = st.one_of(
    st.lists(KNOWN, max_size=6),
    st.lists(st.one_of(KNOWN, assignment(st.text()), st.text()), max_size=6),
).map("\n".join)


@settings(max_examples=300, deadline=None)
@given(text=TEXTS)
@example(text="n_waypoints = 1" + "0" * 400)  # more turns than a float holds
def test_any_text_gives_a_config_or_a_config_error(text):
    try:
        config = parse_config(text)
    except ConfigError:
        return
    assert isinstance(config, RunConfig)


COUNT = st.integers(1, 10**6)
NON_NEGATIVE = st.floats(min_value=0, allow_nan=False, allow_infinity=False)
POSITIVE = st.floats(min_value=0, exclude_min=True, allow_infinity=False)


@st.composite
def run_configs(draw):
    """Keyword arguments for a RunConfig, every value in range but out_dir,
    which is any text."""
    capture_radius = draw(POSITIVE)
    return dict(
        seed=draw(st.integers(0, 2**64)),
        out_dir=draw(st.text()),
        n_paths=draw(st.integers(1, 100)),
        n_waypoints=draw(st.integers(2, 10000)),
        path_length=draw(POSITIVE),
        sac_budget=draw(st.floats(0, 3.0)),
        world_margin=draw(NON_NEGATIVE),
        n_landmarks=draw(COUNT),
        signature_dim=draw(COUNT),
        bins=draw(COUNT),
        fov_deg=draw(st.floats(0, 360, exclude_min=True)),
        n_augmented=draw(COUNT),
        pos_jitter=draw(NON_NEGATIVE),
        yaw_jitter=draw(NON_NEGATIVE),
        step=draw(st.floats(0, capture_radius, exclude_min=True)),
        capture_radius=capture_radius,
        command_gain=draw(st.floats(0, 1, exclude_min=True)),
        lr0=draw(POSITIVE),
        batch_size=draw(COUNT),
        epochs=draw(COUNT),
        lr_halving_period=draw(COUNT),
        projection_dim=draw(COUNT),
        hidden_units=draw(COUNT),
        ablation_levels=tuple(draw(st.lists(COUNT, min_size=1, max_size=5))),
        n_test_sweeps=draw(COUNT),
    )


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(values=run_configs())
@example(values=dict(out_dir="/x/o#1"))
@example(values=dict(out_dir="runs/ö ü"))
def test_resolved_config_reads_back_equal(tmp_path, values):
    try:
        config = RunConfig(**values)
    except ConfigError:
        reject()
    write_text(tmp_path / "config.resolved.txt", format_config(config))
    assert load_config(tmp_path / "config.resolved.txt") == config
