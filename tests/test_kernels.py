"""One C training epoch against one NumPy epoch, and the C forward against
the NumPy forward run row by row, bit for bit; the fallback when the compiler
or a BLAS symbol is missing; the checks the C epoch makes
before it passes a pointer; when the compiler starts; the build cache; and
that a hung build is killed with its children."""

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skytrack import augmentation as aug
from skytrack import cli, kernels, learner, metrics
from skytrack.config import RunConfig
from skytrack.world import render_observation
from test_cli import SRC, small_config
from test_world import walk_and_jittered

C = kernels.load().train_epoch
NUMPY = kernels.NUMPY.train_epoch
needs_c = pytest.mark.skipif(kernels.load() is kernels.NUMPY, reason="no C compiler: the NumPy set is in use")


def epoch_args(seed, n, width, hidden, batch_size, t, lr, dead=()):
    """The arguments of one ``train_epoch`` on random data from ``seed``:
    ``n`` rows of ``width`` projected columns, some of them all zero, a head
    of ``hidden`` units, and an Adam state at step ``t``. About 5% of the
    entries of ``z`` and of the parameters are -0.0 and another 5% are
    subnormal, and the units ``dead`` start with no input and a negative
    bias, so the rectifier masks them on every row."""
    rng = np.random.default_rng(seed)
    z = rng.normal(scale=10.0 ** rng.uniform(-3, 3), size=(n, width))
    z[rng.random(n) < 0.2] = 0.0
    size = hidden * width + 2 * hidden + 1
    theta = rng.normal(scale=0.5, size=size)
    for x in (z.reshape(-1), theta):
        x[rng.random(x.size) < 0.05] = -0.0
        subnormal = rng.random(x.size) < 0.05
        x[subnormal] = rng.uniform(-2.2e-308, 2.2e-308, size=subnormal.sum())
    w1, b1, _, _ = kernels.split(theta, hidden, width)
    w1[list(dead)], b1[list(dead)] = 0.0, -1.0
    state = learner.AdamState(rng.normal(scale=0.01, size=size), rng.random(size) * 1e-4, t)
    return [z, rng.normal(size=n), rng.permutation(n), theta, state, hidden, batch_size, lr]


@st.composite
def epochs(draw):
    """``epoch_args`` over 1..200 rows (so every batch tail of 1..63 rows at
    batch size 64), heads of 1..41 units over 1..41 projected columns (so
    also widths and depths under 2 and off the groups of four), some dead
    units, and an Adam state part way through."""
    n, width, hidden = draw(st.integers(1, 200)), draw(st.integers(1, 41)), draw(st.integers(1, 41))
    batch_size = draw(st.one_of(st.just(64), st.integers(1, 70)))
    dead = draw(st.lists(st.integers(0, hidden - 1), max_size=hidden))
    seed, t, lr = draw(st.integers(0, 2**32 - 1)), draw(st.integers(0, 5000)), draw(st.floats(1e-6, 1e-1))
    return epoch_args(seed, n, width, hidden, batch_size, t, lr, dead)


def run_epoch(epoch, z, y, order, theta, state, *rest):
    """Run ``epoch`` on copies; return the parameters, moments and step
    count after it, and its SSE or the error it raised."""
    theta, state = theta.copy(), learner.AdamState(state.m.copy(), state.v.copy(), state.t)
    try:
        result = epoch(z, y, order, theta, state, *rest)
    except RuntimeError as exc:
        result = str(exc)
    return theta.tobytes(), state.m.tobytes(), state.v.tobytes(), state.t, result


@needs_c
@settings(max_examples=200, deadline=None)
@given(epochs())
# The default head (128 projected columns, 512 units) with a 37-row last batch.
@example(epoch_args(4, 64 + 37, 128, 512, 64, 0, 1e-4, dead=range(7)))
def test_c_epoch_equals_numpy_epoch(args):
    assert run_epoch(C, *args) == run_epoch(NUMPY, *args)


@needs_c
@settings(max_examples=60, deadline=None)
@given(epochs(), st.data())
def test_non_finite_gradient_mid_epoch_stops_both_sets_at_the_same_step(args, data):
    z, y, order = args[:3]
    row = data.draw(st.integers(0, len(y) - 1))
    y = y.copy()
    y[row] = data.draw(st.sampled_from([np.inf, -np.inf, np.nan]))
    c = run_epoch(C, z, y, order, *args[3:])
    assert c[-1] == "diverged: non-finite gradient"
    # the steps before the batch that holds the row, and none after
    assert c[3] == args[4].t + int(np.flatnonzero(order == row)[0]) // args[6]
    assert c == run_epoch(NUMPY, z, y, order, *args[3:])


@pytest.mark.parametrize("kernel_set", ["c", "numpy"], indirect=True)
def test_non_finite_gradient_changes_nothing(kernel_set):
    """A batch whose gradient is not finite in one element, the last (b2's),
    raises and leaves the parameters, moments and step count as the batch
    before left them."""
    z, y, order, theta, state, *rest = epoch_args(0, 8, 8, 16, 2, 0, 1e-3)
    bad = order[2:4]  # the second batch
    # Two errors near 1e308 whose sum overflows. z = 0 keeps w1's gradient
    # 0, and b1 and w2 inside +-0.5 keep b1's and w2's finite.
    z[bad], y[bad] = 0.0, -1e308
    for part in kernels.split(theta, 16, 8)[1:3]:
        np.clip(part, -0.5, 0.5, out=part)
    first = run_epoch(kernel_set.train_epoch, z, y, order[:2], theta, state, *rest)
    assert first[3] == 1
    after = np.frombuffer(first[0]).copy()
    grad = np.empty_like(after)
    kernels.head_gradient(z[bad], y[bad], *kernels.split(after, 16, 8), kernels.split(grad, 16, 8))
    assert np.flatnonzero(~np.isfinite(grad)).tolist() == [grad.size - 1]
    assert run_epoch(kernel_set.train_epoch, z, y, order, theta, state, *rest) == (*first[:4], "diverged: non-finite gradient")


def train_bytes() -> bytes:
    rng = np.random.default_rng(2)
    samples = aug.Samples(rng.normal(size=(150, 12)), rng.normal(size=150))
    config = RunConfig(seed=1, lr0=1e-3, batch_size=64, epochs=3, lr_halving_period=2)
    model, history = learner.train(aug.dataset_from_samples(samples), config, projection_dim=16, hidden=24)
    return b"".join(a.tobytes() for a in (model.w1, model.b1, model.w2, np.array([model.b2, *history])))


def random_model(seed, d, f, h) -> learner.RegressorModel:
    """A model of input width ``d``, projection ``f`` and ``h`` hidden units with random
    biases and statistics, about a third of its units dead."""
    rng = np.random.default_rng(seed)
    m = learner.init_model(seed, d, projection_dim=f, hidden=h)
    b1 = rng.normal(scale=0.5, size=h) - (rng.random(h) < 0.3) * 10.0
    return learner.RegressorModel(
        m.projection, m.w1, b1, m.w2, float(rng.normal()), rng.normal(size=d), rng.uniform(0.5, 2.0, size=d), seed
    )


def render_and_score_bytes() -> bytes:
    """A render of seed 5's walk and the angle MSE of a default-shaped model on it."""
    world, walk, _ = walk_and_jittered(5)
    features = render_observation(world, walk, RunConfig(seed=5))
    model = random_model(3, features.shape[1], 128, 512)
    mse = metrics.angle_mse(model, aug.Samples(features[:40], np.linspace(-1.0, 1.0, 40)))
    return features.tobytes() + np.float64(mse).tobytes()


# The default head, widths of 2 and off the groups of four, and each of
# input, projection and head 1 wide, which the C forward hands to NumPy.
FORWARD_SHAPES = [(256, 128, 512), (2, 2, 2), (13, 7, 41), (1, 8, 16), (12, 1, 16), (12, 8, 1)]


def forward_args(model) -> tuple:
    """The arguments of ``forward`` after the feature rows, for ``model``."""
    return model.feature_mean, model.feature_std, model.projection, model.w1, model.b1, model.w2, model.b2


@needs_c
@pytest.mark.parametrize("d, f, h", FORWARD_SHAPES)
@pytest.mark.parametrize("seed", range(3))
def test_c_forward_equals_predict_raw_row_by_row(d, f, h, seed, monkeypatch):
    """The C forward of 30 rows gives the bits of ``kernels.NUMPY.forward``
    run on each row alone, and ``angle_mse`` the same score on both sets."""
    model = random_model(seed, d, f, h)
    rows = np.random.default_rng(seed).normal(scale=3.0, size=(30, d))
    raw = kernels.load().forward(rows, *forward_args(model))
    expected = [float(kernels.NUMPY.forward(x[None], *forward_args(model))[0]) for x in rows]
    assert raw.tolist() == expected
    test_set = aug.Samples(rows, np.linspace(-3.0, 3.0, 30))
    scores = []
    for kernel_set in (kernels.load(), kernels.NUMPY):
        monkeypatch.setattr(kernels, "load", lambda kernel_set=kernel_set: kernel_set)
        scores.append(metrics.angle_mse(model, test_set))
    assert scores[0] == scores[1] == sum((p - t) ** 2 for p, t in zip(expected, test_set.targets.tolist())) / 30


@needs_c
@pytest.mark.parametrize("rows", [1, 0])
def test_c_forward_of_under_two_rows_equals_its_rows_in_a_longer_call(rows):
    """A call of 1 row (``learner.predict``'s) or none, which the C forward
    hands to NumPy, gives the bits that the C loop gives those rows followed
    by two more."""
    d, f, h = FORWARD_SHAPES[0]
    model = random_model(0, d, f, h)
    features = np.random.default_rng(0).normal(scale=3.0, size=(rows, d))
    raw = kernels.load().forward(features, *forward_args(model))
    longer = kernels.load().forward(np.vstack([features, np.ones((2, d))]), *forward_args(model))
    assert raw.shape == (rows,) and raw.tolist() == longer[:rows].tolist()


@pytest.fixture
def fresh_load():
    """Lets a test rebuild the process's kernel set, and restores it after."""
    kernels.load.cache_clear()
    yield
    kernels.load.cache_clear()


@needs_c
def test_missing_compiler_falls_back_to_numpy_with_the_same_bytes(monkeypatch, fresh_load):
    """The epoch, the renderer and the held-out forward."""
    with_c = train_bytes(), render_and_score_bytes()
    monkeypatch.setattr(kernels, "COMPILER", "skytrack-no-such-compiler")
    kernels.load.cache_clear()
    assert kernels.load() is kernels.NUMPY
    assert (train_bytes(), render_and_score_bytes()) == with_c


@needs_c
def test_failed_build_falls_back_to_numpy(monkeypatch, tmp_path, fresh_load):
    """A source that is missing, and then one that does not compile, give
    NUMPY and leave nothing in the cache."""
    bad = tmp_path / "bad.c"
    monkeypatch.setattr(kernels, "SOURCE", bad)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    for source in (None, "int train_epoch(;\n"):
        if source is not None:
            bad.write_text(source)
        assert kernels.compile_kernels(kernels.COMPILER) is None
        kernels.load.cache_clear()
        assert kernels.load() is kernels.NUMPY
    assert not list(tmp_path.glob("cache/skytrack/*"))


@needs_c
def test_missing_blas_symbols_fall_back_to_numpy_with_the_same_bytes(monkeypatch, fresh_load):
    with_c = train_bytes()
    monkeypatch.setattr(kernels, "BLAS", ("scipy_cblas_dgemm64_", "skytrack_no_such_dgemv"))
    kernels.load.cache_clear()
    assert kernels.load() is kernels.NUMPY
    assert train_bytes() == with_c


@needs_c
def test_optimization_level_changes_no_bits(monkeypatch):
    builds = {opt: kernels.compile_kernels(kernels.COMPILER, opt) for opt in ("-O0", "-O2")}
    assert None not in builds.values()
    out = []
    for kernel_set in builds.values():
        monkeypatch.setattr(kernels, "load", lambda kernel_set=kernel_set: kernel_set)
        out.append(train_bytes() + render_and_score_bytes())
        # one batch of 61 rows over 45 units (so a tail after the groups of four), one unit dead
        out.append(run_epoch(kernel_set.train_epoch, *epoch_args(9, 61, 12, 45, 64, 0, 1e-3, dead=[3])))
    assert out[:2] == out[2:]


@needs_c
class TestWrappersRefuseBadArrays:
    """The C epoch checks every array it passes to C: a wrong shape, type,
    layout or overlap, or a row index out of range, would make C read or
    write out of bounds."""

    def run(self, **changed):
        """One epoch of 6 rows of 3 columns, 2 units, batches of 4, with the
        arguments ``changed`` in place of the good ones."""
        args = dict(z=np.zeros((6, 3)), y=np.zeros(6), order=np.arange(6), theta=np.zeros(11))
        args |= dict(m=np.zeros(11), v=np.zeros(11)) | changed
        state = learner.AdamState(args.pop("m"), args.pop("v"))
        return C(*args.values(), state, 2, 4, 1e-3), state

    @pytest.mark.parametrize(
        "argument, bad, message",
        [
            ("z", np.zeros((6, 6))[:, ::2], "^expected a "),
            ("z", np.asfortranarray(np.zeros((6, 3))), "^expected a "),
            ("z", np.zeros(18), "^expected a 2-d array"),
            ("z", [[0.0] * 3] * 6, "^expected a 2-d array"),
            ("y", np.zeros(5), "^expected a "),
            ("y", np.zeros(7), "^expected a "),
            ("y", np.zeros(6, dtype=np.float32), "^expected a "),
            ("y", np.zeros(12)[::2], "^expected a "),
            ("theta", np.zeros(12), "^expected a "),
            ("theta", np.zeros(11, dtype=np.int64), "^expected a "),
            ("theta", np.zeros(11, dtype=np.float32), "^expected a "),
            ("m", np.zeros(10), "^expected a "),
            ("m", np.zeros(11, dtype=np.complex128), "^expected a "),
            ("m", np.zeros((11, 2))[:, 0], "^expected a "),
            ("v", np.zeros((11, 2))[:, 0], "^expected a "),
            ("v", [0.0] * 11, "^expected a "),
            ("v", np.zeros(10), "^expected a "),
            ("order", np.arange(6.0), "^expected C-contiguous int64"),
            ("order", np.arange(6).reshape(2, 3), "^expected C-contiguous int64"),
            ("order", np.arange(12)[::2], "^expected C-contiguous int64"),
            ("order", np.array([0, 1, 2, 3, 4, -1]), r"^row indices outside 0\.\.5"),
            ("order", np.array([0, 1, 2, 3, 4, 6]), r"^row indices outside 0\.\.5"),
        ],
        ids=[
            "z-strided", "z-fortran", "z-not-a-matrix", "z-list", "y-size", "y-long", "y-float32", "y-strided",
            "theta-size", "theta-int64", "theta-float32", "m-size", "m-complex", "m-strided", "v-strided",
            "v-list", "v-size", "order-float64", "order-2d", "order-strided", "order-minus-1", "order-rows",
        ],
    )
    def test_refuses(self, argument, bad, message):
        with pytest.raises(ValueError, match=message):  # its own checks, not a later unpacking
            self.run(**{argument: bad})

    def test_refuses_read_only(self):
        for argument, size in (("z", (6, 3)), ("y", 6), ("theta", 11), ("m", 11), ("v", 11)):
            x = np.zeros(size)
            x.flags.writeable = False
            with pytest.raises(ValueError, match="writeable"):
                self.run(**{argument: x})

    def test_refuses_overlapping_arguments(self):
        buf = np.zeros(22)
        for m in (buf[5:16], buf[:11]):
            with pytest.raises(ValueError, match="overlap"):
                self.run(theta=buf[:11], m=m)

    def test_accepts_the_good_arguments(self):
        sse, state = self.run()
        assert (sse, state.t) == (0.0, 2)


@needs_c
def test_render_and_forward_check_their_arrays():
    """The renderer and the forward only read their inputs, so read-only
    inputs pass; a wrong size, layout or a read-only output is refused
    before C sees a pointer."""
    render, forward = kernels.load().render, kernels.load().forward
    planes, signatures = np.zeros((3, 2, 4)), np.full((4, 3), 0.5)
    for x in (planes, signatures):
        x.flags.writeable = False
    out = np.zeros((2, 6))
    render(planes, signatures, 2, 0.5, 0.5, out)
    for bad in (np.zeros((2, 5)), np.zeros((2, 12))[:, ::2], np.zeros((2, 6), dtype=np.float32)):
        with pytest.raises(ValueError, match="^expected a writeable "):
            render(planes, signatures, 2, 0.5, 0.5, bad)
    out.flags.writeable = False
    with pytest.raises(ValueError, match="writeable"):
        render(planes, signatures, 2, 0.5, 0.5, out)
    with pytest.raises(ValueError, match="^expected a C-contiguous"):
        render(np.zeros((3, 2, 8))[:, :, ::2], signatures, 2, 0.5, 0.5, np.zeros((2, 6)))

    model = random_model(0, 6, 4, 5)
    rows = np.ones((3, 6))
    rows.flags.writeable = False
    weights = (model.projection, model.w1, model.b1, model.w2, model.b2)
    assert forward(rows, model.feature_mean, model.feature_std, *weights).shape == (3,)
    with pytest.raises(ValueError, match="^dimension mismatch: got 5, expected 6"):
        forward(np.ones((3, 5)), model.feature_mean, model.feature_std, *weights)


def alive(pid: int) -> bool:
    """Whether ``pid`` runs; a zombie, which no one has reaped yet, does not."""
    try:
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def stand_in_compiler(tmp_path, then="exit 1"):
    """A stand-in ``cc`` that appends "started" to a marker file and then
    runs ``then`` (by default it fails); returns it, the marker, a PATH that
    finds it first, and an environment with that PATH in which a child
    process imports ``skytrack`` from here."""
    bin_dir, marker = tmp_path / "bin", tmp_path / "cc-started"
    bin_dir.mkdir()
    fake = bin_dir / kernels.COMPILER
    fake.write_text(f"#!/bin/sh\necho started >> {marker}\n{then}\n")
    fake.chmod(0o755)
    path = f"{bin_dir}{os.pathsep}{os.environ.get('PATH', '')}"
    env = dict(os.environ, PATH=path)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return fake, marker, path, env


def test_per_step_api_never_starts_the_compiler(tmp_path):
    """``kernels.head_gradient`` and ``learner.adam_step`` run on NumPy
    alone, so a fresh process that calls them never starts the stand-in
    ``cc``; ``kernels.load`` in another fresh process does."""
    _, marker, _, env = stand_in_compiler(tmp_path)
    steps = (
        "import numpy as np\n"
        "from skytrack import kernels, learner\n"
        "m = learner.init_model(0, 6, projection_dim=4, hidden=5)\n"
        "grads = [np.empty_like(m.w1), np.empty_like(m.b1), np.empty_like(m.w2), np.empty(1)]\n"
        "kernels.head_gradient(np.ones((3, 6)) @ m.projection.T, np.zeros(3), m.w1, m.b1, m.w2, m.b2, grads)\n"
        "learner.adam_step(np.zeros(3), np.ones(3), learner.AdamState(np.zeros(3), np.zeros(3)), 1e-3)\n"
    )
    subprocess.run([sys.executable, "-c", steps], env=env, check=True, timeout=120)
    assert not marker.exists()
    load = "from skytrack import kernels; kernels.load()"
    subprocess.run([sys.executable, "-c", load], env=env, check=True, timeout=120)
    assert marker.read_text().split() == ["started"]


def test_gen_never_starts_the_compiler_and_ablation_starts_it_once(tmp_path, monkeypatch, fresh_load):
    """A stand-in ``cc`` first on PATH records every start and fails, so a
    build falls back to NumPy and caches nothing. ``gen`` must not start it.
    ``ablation`` must start it once, in the parent, not once per forked level
    worker, and be done with it before the first fork; ``pipeline`` starts it
    once too. That it starts at all shows the stand-in is the compiler
    found."""
    _, marker, path, env = stand_in_compiler(tmp_path)
    cfg = str(small_config(tmp_path, ablation_levels="1,2,3"))
    for command, starts in (("gen", 0), ("ablation", 1), ("pipeline", 2)):
        subprocess.run([sys.executable, "-m", "skytrack.cli", command, "--config", cfg], env=env, check=True, timeout=300)
        assert marker.exists() == bool(starts)
        assert starts == 0 or marker.read_text().split() == ["started"] * starts

    # In this process, as a fresh one: the epoch is loaded before the first fork.
    monkeypatch.setenv("PATH", path)
    fork = cli._fork

    def checked_fork(*args):
        assert kernels.load.cache_info().currsize == 1
        return fork(*args)

    monkeypatch.setattr(cli, "_fork", checked_fork)
    assert cli.main(["ablation", "--config", cfg]) == 0
    assert marker.read_text().split() == ["started"] * 3


def load_in_fresh_process(env) -> bool:
    """Whether ``kernels.load`` gives the C epoch in a fresh process."""
    probe = "from skytrack import kernels; print(kernels.load() is not kernels.NUMPY)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True, timeout=120, capture_output=True)
    return out.stdout.split() == [b"True"]


@pytest.fixture
def counted_compiler(tmp_path):
    """A stand-in ``cc`` that counts its starts in a marker file and runs the
    real one; returns the marker, the cache directory and an environment in
    which a fresh process finds the stand-in and caches there."""
    _, marker, _, env = stand_in_compiler(tmp_path, f'exec {shutil.which(kernels.COMPILER)} "$@"')
    env["XDG_CACHE_HOME"] = str(tmp_path / "cache")
    return marker, tmp_path / "cache" / "skytrack", env


@needs_c
def test_second_process_loads_the_cache_without_the_compiler(counted_compiler):
    marker, cache, env = counted_compiler
    assert load_in_fresh_process(env)
    assert marker.read_text().split() == ["started"]
    assert load_in_fresh_process(env)
    assert marker.read_text().split() == ["started"]
    assert len(list(cache.iterdir())) == 1


@needs_c
def test_truncated_cache_file_is_rebuilt_and_loads(counted_compiler):
    """Loading a truncated library can crash the process; the cache's
    check finds it first, and the next process rebuilds it."""
    marker, cache, env = counted_compiler
    assert load_in_fresh_process(env)
    (lib,) = cache.iterdir()
    whole = lib.read_bytes()
    lib.write_bytes(whole[: len(whole) // 4])
    assert load_in_fresh_process(env)
    assert marker.read_text().split() == ["started"] * 2
    assert list(cache.iterdir()) == [lib] and lib.read_bytes() == whole


@needs_c
def test_a_cache_hit_makes_no_build_directory(tmp_path, monkeypatch):
    """Only a miss makes a build directory, in the system temp directory:
    of two builds of one library, the first makes one and the second, a
    hit, makes none. The cache then holds the one library and nothing else."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    made = []
    real = tempfile.TemporaryDirectory

    def counted(*args, **kwargs):
        made.append(kwargs.get("dir"))
        return real(*args, **kwargs)

    monkeypatch.setattr(tempfile, "TemporaryDirectory", counted)
    for _ in range(2):
        assert kernels.compile_kernels(kernels.COMPILER) is not None
    assert made == [None]
    (lib,) = (tmp_path / "skytrack").iterdir()
    assert lib.is_file() and re.fullmatch(r"[0-9a-f]{64}\.so", lib.name)


@needs_c
@pytest.mark.parametrize("home", ["absolute", "relative"])
def test_relative_xdg_cache_home_is_ignored(tmp_path, monkeypatch, home):
    """A relative XDG_CACHE_HOME is ignored, as the XDG spec says: the
    library is cached under ``~/.cache``, or, when that is relative too,
    built in a private temporary directory. Nothing lands under the
    current directory."""
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    monkeypatch.setenv("HOME", str(tmp_path / "home") if home == "absolute" else "home")
    monkeypatch.setenv("XDG_CACHE_HOME", "relcache")
    assert kernels.compile_kernels(kernels.COMPILER) is not None
    assert list(cwd.iterdir()) == []
    cached = list((tmp_path / "home" / ".cache" / "skytrack").glob("*.so"))
    assert len(cached) == (1 if home == "absolute" else 0)


@needs_c
@pytest.mark.parametrize("unsafe", ["others-write", "group-write", "other-owner"])
def test_cache_directory_that_others_control_is_never_used(tmp_path, monkeypatch, unsafe):
    """The C epoch still loads, from a private build, and the cache
    directory is left as it was: its emptied library, which a trusted cache
    would rebuild, stays empty, and no file is added."""
    if unsafe == "other-owner" and os.getuid() != 0:
        pytest.skip("giving a directory to another user needs root")
    env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    assert load_in_fresh_process(env)
    cache = tmp_path / "skytrack"
    (lib,) = cache.iterdir()
    lib.write_bytes(b"")
    if unsafe == "other-owner":
        os.chown(cache, 65534, -1)
    else:
        cache.chmod(0o777 if unsafe == "others-write" else 0o770)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    assert kernels.compile_kernels(kernels.COMPILER) is not None
    assert [(f.name, f.stat().st_size) for f in cache.iterdir()] == [(lib.name, 0)]


@needs_c
def test_hung_build_is_killed_with_its_child(tmp_path, monkeypatch, fresh_load):
    """A stand-in ``cc`` that never ends, with a child of its own, is killed
    with its child at ``BUILD_TIMEOUT``, and ``load`` gives ``NUMPY``."""
    fake, _, path, _ = stand_in_compiler(tmp_path)
    pids = tmp_path / "cc-pids"
    fake.write_text(f"#!/bin/sh\necho $$ >> {pids}\nsleep 60 &\necho $! >> {pids}\nwait\n")
    monkeypatch.setenv("PATH", path)
    monkeypatch.setattr(kernels, "BUILD_TIMEOUT", 1)
    start = time.monotonic()
    assert kernels.load() is kernels.NUMPY
    assert time.monotonic() - start < 30
    started = [int(pid) for pid in pids.read_text().split()]
    assert len(started) == 2 and not any(alive(pid) for pid in started)
