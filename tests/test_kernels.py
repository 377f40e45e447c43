"""The C kernels against their NumPy twins, bit for bit, one C training
epoch against one NumPy epoch among them; the fallback when the compiler or
a BLAS symbol is missing; the checks the C wrappers make before they pass a
pointer; and when the compiler starts and that it never outlives a command."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from skytrack import augmentation as aug
from skytrack import cli, kernels, learner
from test_cli import SRC, small_config

C = kernels.load()
NUMPY = kernels.NUMPY
needs_c = pytest.mark.skipif(C is NUMPY, reason="no C compiler: the NumPy twins are in use")

# Finite values of every magnitude plus the special ones.
special = st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan])
values = st.one_of(st.floats(-1e6, 1e6, allow_subnormal=True), special)
finite = st.floats(-1e3, 1e3)


def arrays(shape, elements=values):
    return hnp.arrays(np.float64, shape, elements=elements)


def run_both(kernel, *arrays_and_scalars):
    """Run ``kernel`` of each set on its own copies of the arguments; return
    each set's arrays after the call, and its result."""
    out = []
    for k in (C, NUMPY):
        args = [a.copy() if isinstance(a, np.ndarray) else a for a in arrays_and_scalars]
        result = getattr(k, kernel)(*args)
        out.append(([a for a in args if isinstance(a, np.ndarray)], result))
    return out


def same_bits(c, n) -> bool:
    """Bit for bit, except that one NaN may stand for another: where two
    NaNs of different sign or payload meet in one add or multiply, C leaves
    the operand order, and so which NaN comes out, to the compiler. A NaN in
    any gradient makes adam_step raise, so no model or loss holds one."""
    (c_arrays, c_result), (n_arrays, n_result) = c, n
    for x, y in zip(c_arrays, n_arrays):
        differ = x.view(np.uint64) != y.view(np.uint64)
        if np.any(differ & ~(np.isnan(x) & np.isnan(y))):
            return False
    return c_result == n_result


def strictly_same_bits(c, n) -> bool:
    return [a.tobytes() for a in c[0]] == [a.tobytes() for a in n[0]] and c[1] == n[1]


@st.composite
def batches(draw, elements=values):
    """A batch of ``n`` rows (1..70, so also a short last batch) over
    ``width`` hidden units (1..41, so also a tail after the groups of four),
    with some units dead for the whole batch."""
    n, width = draw(st.integers(1, 70)), draw(st.integers(1, 41))
    a = draw(arrays((n, width), elements))
    dead = draw(st.lists(st.integers(0, width - 1), max_size=width))
    a[:, dead] = np.where(a[:, dead] > 0.0, -a[:, dead], a[:, dead])
    return a


@needs_c
class TestBitIdentity:
    @settings(max_examples=300, deadline=None)
    @given(batches(), st.data())
    def test_relu_backward(self, a, data):
        g = data.draw(arrays(a.shape[0]))
        w2 = data.draw(arrays(a.shape[1]))
        c, n = run_both("relu_backward", a, g, w2, np.empty(a.shape[1]))
        assert same_bits(c, n)

    @pytest.mark.parametrize("n", [9, 24, 70])
    def test_relu_backward_single_column(self, n):
        # numpy sums one column as a contiguous run (pairwise), not row by row.
        rng = np.random.default_rng(n)
        g, w2 = rng.normal(scale=1e3, size=n), rng.normal(scale=1e3, size=1)
        c, numpy = run_both("relu_backward", np.ones((n, 1)), g, w2, np.empty(1))
        assert strictly_same_bits(c, numpy)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 70), st.integers(1, 5000), st.floats(1e-7, 1e-2), st.data())
    def test_adam(self, n, t, lr, data):
        # adam_step passes only finite gradients; the moments stay finite and v >= 0.
        g = data.draw(arrays(n, st.one_of(finite, st.sampled_from([0.0, -0.0]))))
        p, m = data.draw(arrays(n, finite)), data.draw(arrays(n, finite))
        v = np.abs(data.draw(arrays(n, finite)))
        beta1, beta2 = 0.9, 0.999
        c, n = run_both("adam", p, g, m, v, lr, beta1, beta2, 1e-8, 1.0 - beta1**t, 1.0 - beta2**t)
        assert strictly_same_bits(c, n)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 70), st.data())
    def test_adam_non_finite_gradient(self, n, data):
        g = data.draw(arrays(n))
        p, m = data.draw(arrays(n, finite)), data.draw(arrays(n, finite))
        v = np.abs(data.draw(arrays(n, finite)))
        c, n = run_both("adam", p, g, m, v, 1e-3, 0.9, 0.999, 1e-8, 0.1, 0.001)
        assert same_bits(c, n)

    def test_loss_and_gradient_on_the_training_shapes(self, monkeypatch):
        rng = np.random.default_rng(4)
        model = learner.init_model(1, 20, projection_dim=128, hidden=512)
        model.b1[:] = rng.normal(size=512)
        model.b1[:7] = -1e3  # dead units
        x, y = rng.normal(size=(37, 20)), rng.normal(size=37)  # a short last batch
        results = []
        for k in (C, NUMPY):
            monkeypatch.setattr(kernels, "load", lambda k=k: k)
            loss, grads = learner.loss_and_gradient(model, x, y)
            results.append((loss, {key: g.tobytes() for key, g in grads.items()}))
        assert results[0] == results[1]


@st.composite
def epochs(draw):
    """The arguments of one ``train_epoch``: 1..200 rows (so every batch
    tail of 1..63 rows at batch size 64), heads of 1..41 units over 1..41
    projected columns (so also widths and depths under 2 and off the groups
    of four), some all-zero rows, and an Adam state part way through."""
    n, width, hidden = draw(st.integers(1, 200)), draw(st.integers(1, 41)), draw(st.integers(1, 41))
    batch_size = draw(st.one_of(st.just(64), st.integers(1, 70)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    z = rng.normal(scale=10.0 ** rng.uniform(-3, 3), size=(n, width))
    z[rng.random(n) < 0.2] = 0.0
    size = hidden * width + 2 * hidden + 1
    theta = rng.normal(scale=0.5, size=size)
    state = learner.AdamState(rng.normal(scale=0.01, size=size), rng.random(size) * 1e-4, draw(st.integers(0, 5000)))
    args = [z, rng.normal(size=n), rng.permutation(n), theta, state, hidden, batch_size]
    return args + [draw(st.floats(1e-6, 1e-1))]


def run_epoch(kernel_set, z, y, order, theta, state, *rest):
    """Run one epoch of ``kernel_set`` on copies; return the parameters,
    moments and step count after it, and its SSE or the error it raised."""
    theta, state = theta.copy(), learner.AdamState(state.m.copy(), state.v.copy(), state.t)
    try:
        result = kernel_set.train_epoch(z, y, order, theta, state, *rest)
    except RuntimeError as exc:
        result = str(exc)
    return theta.tobytes(), state.m.tobytes(), state.v.tobytes(), state.t, result


@needs_c
@settings(max_examples=200, deadline=None)
@given(epochs())
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
    model = learner.init_model(0, 3, projection_dim=8, hidden=16)
    p = np.concatenate([model.w1.ravel(), model.b1, model.w2, [model.b2]])
    state = learner.AdamState(np.zeros_like(p), np.zeros_like(p))
    rng = np.random.default_rng(0)
    learner.adam_step(p, rng.normal(size=p.size), state, 1e-3)
    before = [p.tobytes(), state.m.tobytes(), state.v.tobytes()]
    g = rng.normal(size=p.size)
    g[8 * 16 + 16 + 5] = np.inf  # in w2: the elements before it must not move either
    with pytest.raises(RuntimeError, match="diverged"):
        learner.adam_step(p, g, state, 1e-3)
    assert state.t == 1
    assert [p.tobytes(), state.m.tobytes(), state.v.tobytes()] == before


def train_bytes() -> bytes:
    rng = np.random.default_rng(2)
    samples = aug.Samples(
        rng.normal(size=(150, 12)), rng.normal(size=150), np.full(150, "p"),
        np.zeros(150, dtype=np.int64), np.arange(150, dtype=np.int64),
    )
    config = learner.TrainConfig(lr0=1e-3, batch_size=64, epochs=3, lr_halving_period=2)
    model, history = learner.train(aug.dataset_from_samples(samples), config, seed=1, projection_dim=16, hidden=24)
    return b"".join(a.tobytes() for a in (model.w1, model.b1, model.w2, np.array([model.b2, *history])))


@pytest.fixture
def fresh_load():
    """Lets a test rebuild the process's kernel set, and restores it after."""
    kernels.load.cache_clear()
    yield
    kernels.load.cache_clear()


@needs_c
def test_missing_compiler_falls_back_to_numpy_with_the_same_bytes(monkeypatch, fresh_load):
    with_c = train_bytes()
    monkeypatch.setattr(kernels, "COMPILER", "skytrack-no-such-compiler")
    kernels.load.cache_clear()
    assert kernels.load() is NUMPY
    assert train_bytes() == with_c


@needs_c
def test_failed_build_falls_back_to_numpy(monkeypatch, tmp_path, fresh_load):
    monkeypatch.setattr(kernels, "SOURCE", tmp_path / "missing.c")
    assert kernels.compile_kernels(kernels.COMPILER) is None
    kernels.load.cache_clear()
    assert kernels.load() is NUMPY


@needs_c
def test_missing_blas_symbols_fall_back_to_numpy_with_the_same_bytes(monkeypatch, fresh_load):
    with_c = train_bytes()
    monkeypatch.setattr(kernels, "BLAS", ("scipy_cblas_dgemm64_", "skytrack_no_such_dgemv"))
    kernels.load.cache_clear()
    assert kernels.load() is NUMPY
    assert train_bytes() == with_c


@needs_c
def test_optimization_level_changes_no_bits(monkeypatch):
    builds = {opt: kernels.compile_kernels(kernels.COMPILER, opt) for opt in ("-O0", "-O2")}
    assert None not in builds.values()
    out = []
    for k in builds.values():
        monkeypatch.setattr(kernels, "load", lambda k=k: k)
        out.append(train_bytes())
    assert out[0] == out[1]
    rng = np.random.default_rng(9)
    a = rng.normal(size=(61, 45))
    a[:, 3] = -1.0
    g, w2 = rng.normal(size=61), rng.normal(size=45)
    p, m, v, grad = rng.normal(size=103), rng.normal(size=103), rng.random(103), rng.normal(size=103)
    results = []
    for k in builds.values():
        a1, gb1 = a.copy(), np.empty(45)
        k.relu_backward(a1, g, w2, gb1)
        p1, m1, v1 = p.copy(), m.copy(), v.copy()
        k.adam(p1, grad, m1, v1, 1e-3, 0.9, 0.999, 1e-8, 0.19, 0.002)
        results.append(b"".join(x.tobytes() for x in (a1, gb1, p1, m1, v1)))
    assert results[0] == results[1]


@needs_c
class TestWrappersRefuseBadArrays:
    def good(self):
        a = np.zeros((4, 8))
        return {
            "relu_backward": (a, np.zeros(4), np.zeros(8), np.zeros(8)),
            "adam": (np.zeros(6), np.zeros(6), np.zeros(6), np.zeros(6), 1e-3, 0.9, 0.999, 1e-8, 0.1, 0.001),
        }

    @pytest.mark.parametrize(
        "kernel, position, bad",
        [
            ("relu_backward", 0, np.zeros((4, 16))[:, ::2]),  # not contiguous
            ("relu_backward", 0, np.asfortranarray(np.zeros((4, 8)))),
            ("relu_backward", 0, np.zeros(32)),  # not a matrix
            ("relu_backward", 3, np.zeros(7)),
            ("relu_backward", 2, np.zeros(9)),
            ("relu_backward", 3, np.zeros(8, dtype=np.float32)),
            ("relu_backward", 1, np.zeros(5)),
            ("relu_backward", 2, np.zeros(8, dtype=np.int64)),
            ("relu_backward", 3, [0.0] * 8),
            ("adam", 1, np.zeros(12)[::2]),
            ("adam", 3, np.zeros(6, dtype=np.complex128)),
            ("adam", 0, np.zeros(6, dtype=np.float32)),
            ("adam", 1, np.zeros(7)),
            ("adam", 2, np.zeros((2, 6))[:, 0]),
            ("adam", 3, np.zeros(5)),
            ("relu_backward", 0, [[0.0] * 8] * 4),  # a matrix, but not an array
        ],
    )
    def test_refuses(self, kernel, position, bad):
        args = list(self.good()[kernel])
        args[position] = bad
        with pytest.raises(ValueError, match="^expected a "):  # the wrappers' own checks, not a later unpacking
            getattr(C, kernel)(*args)

    def test_refuses_read_only(self):
        p = np.zeros(6)
        p.flags.writeable = False
        with pytest.raises(ValueError, match="writeable"):
            C.adam(p, np.zeros(6), np.zeros(6), np.zeros(6), 1e-3, 0.9, 0.999, 1e-8, 0.1, 0.001)

    def test_refuses_overlapping_arguments(self):
        buf = np.zeros(12)
        with pytest.raises(ValueError, match="overlap"):
            C.adam(buf[:6], buf[3:9], np.zeros(6), np.zeros(6), 1e-3, 0.9, 0.999, 1e-8, 0.1, 0.001)
        a = np.zeros((4, 8))
        with pytest.raises(ValueError, match="overlap"):
            C.relu_backward(a, np.zeros(4), a[1], np.zeros(8))

    def test_accepts_the_good_arguments(self):
        for kernel, args in self.good().items():
            getattr(C, kernel)(*args)


def alive(pid: int) -> bool:
    """Whether ``pid`` runs; a zombie, which no one has reaped yet, does not."""
    try:
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def test_gen_never_starts_the_compiler_and_ablation_starts_it_once(tmp_path, monkeypatch, fresh_load):
    """A stand-in ``cc`` first on PATH records every start and fails, so a
    build falls back to NumPy. ``gen`` must not start it. ``ablation`` must
    start it once, in the parent, not once per forked level worker, and be
    done with it before the first fork; ``pipeline`` starts it once too.
    That it starts at all shows the stand-in is the compiler found. A
    stand-in that keeps running, with a child of its own, must be killed
    with its child when a command ends without waiting for the build: a
    ``pipeline`` whose every route fails before training, and an
    ``ablation`` that raises."""
    bin_dir, marker = tmp_path / "bin", tmp_path / "cc-started"
    bin_dir.mkdir()
    fake = bin_dir / kernels.COMPILER
    fake.write_text(f"#!/bin/sh\necho started >> {marker}\nexit 1\n")
    fake.chmod(0o755)
    path = f"{bin_dir}{os.pathsep}{os.environ.get('PATH', '')}"
    env = dict(os.environ, PATH=path)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    cfg = str(small_config(tmp_path, ablation_levels="1,2,3"))
    for command, starts in (("gen", 0), ("ablation", 1), ("pipeline", 2)):
        subprocess.run([sys.executable, "-m", "skytrack.cli", command, "--config", cfg], env=env, check=True, timeout=300)
        assert marker.exists() == bool(starts)
        assert starts == 0 or marker.read_text().split() == ["started"] * starts

    # In this process, as a fresh one: the build is taken before the first fork.
    monkeypatch.setenv("PATH", path)
    monkeypatch.setattr(kernels, "_loaded", False)
    fork = cli._fork

    def checked_fork(*args):
        assert kernels._build is None and kernels.load.cache_info().currsize == 1
        return fork(*args)

    monkeypatch.setattr(cli, "_fork", checked_fork)
    assert cli.main(["ablation", "--config", cfg]) == 0
    assert marker.read_text().split() == ["started"] * 3

    pids = tmp_path / "cc-pids"
    fake.write_text(f"#!/bin/sh\necho $$ >> {pids}\nsleep 60 &\necho $! >> {pids}\nwait\n")
    kernels.load.cache_clear()
    monkeypatch.setattr(kernels, "_loaded", False)
    run = tmp_path / "run"
    (run / "path_00_dataset.npz").unlink()
    (run / "path_00_dataset.npz").mkdir()  # every route fails before training
    assert cli.main(["pipeline", "--config", cfg]) == 2
    (run / "config.resolved.txt").unlink()
    (run / "config.resolved.txt").mkdir()  # ablation raises before training
    assert cli.main(["ablation", "--config", cfg]) == 2
    # A kill may come before the stand-in has written its pid; what it wrote must be gone.
    started = [int(pid) for pid in pids.read_text().split()] if pids.exists() else []
    assert not any(alive(pid) for pid in started)
    assert kernels._build is None
