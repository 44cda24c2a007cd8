"""Shared oracles and session fixtures.

The gradient checker uses central finite differences.  Agreement is judged as
|fd - analytic| <= rtol * max(|fd|, |analytic|) + atol with atol guarding the
FD noise floor (~1e-8 at eps = 1e-5, 64-bit); for gradients of ordinary
magnitude this is a plain relative-error bound.
"""

from __future__ import annotations

import numpy as np
import pytest

from confsv import autodiff as ad
from confsv import datapipe
from confsv.config import RunConfig
from confsv.conformer import EncoderConfig
from confsv.datapipe import Corpus, make_trials, read_manifest, write_corpus
from confsv.nn import seed_parameters
from confsv.training import pretrain_asr


def fd_grad(f, arr: np.ndarray, index: int, eps: float = 1e-5) -> float:
    orig = arr.flat[index]
    arr.flat[index] = orig + eps
    fp = f()
    arr.flat[index] = orig - eps
    fm = f()
    arr.flat[index] = orig
    return (fp - fm) / (2.0 * eps)


def fd_matches(f, arr: np.ndarray, index: int, analytic: float,
               rtol: float, atol: float, eps: float = 1e-5) -> tuple[bool, float]:
    """Central-difference agreement with kink-aware refinement.

    A ReLU unit sitting within eps of its kink makes a single FD probe wrong
    by O(1) even when the analytic gradient is exact, so on mismatch the step
    is shrunk; the check passes if any refinement agrees.
    """
    fd = 0.0
    for step in (eps, eps / 10.0, eps / 100.0):
        fd = fd_grad(f, arr, index, step)
        if abs(fd - analytic) <= rtol * max(abs(fd), abs(analytic)) + atol:
            return True, fd
    return False, fd


def gradcheck(build_loss, tensors, rtol: float = 1e-4, atol: float = 1e-8,
              eps: float = 1e-5, sample: int | None = None,
              rng: np.random.Generator | None = None) -> None:
    """Compare backward gradients against central differences, element-wise.

    `build_loss` must rebuild the scalar loss from the tensors' current data.
    With `sample`, at most that many elements per tensor are probed (seeded).
    """
    loss = build_loss()
    for t in tensors:
        t.grad = None
    ad.backward(loss)
    for t in tensors:
        analytic = np.zeros_like(t.data) if t.grad is None else t.grad
        indices = np.arange(t.data.size)
        if sample is not None and t.data.size > sample:
            assert rng is not None, "sampled gradcheck needs an rng"
            indices = rng.choice(t.data.size, size=sample, replace=False)
        for i in indices:
            ok, fd = fd_matches(lambda: float(build_loss().data), t.data, int(i),
                                analytic.flat[int(i)], rtol, atol, eps)
            assert ok, (
                f"grad mismatch at flat index {i}: fd={fd:.6e} "
                f"analytic={analytic.flat[int(i)]:.6e}"
            )


def seeded(module, seed: int, scope: str):
    """`module` with its parameters seeded from (seed, scope), as a training command seeds."""
    seed_parameters(module, seed, scope)
    return module


def param_count(module, trainable_only: bool = False) -> int:
    """Size of `module`'s parameters, counted from the instantiated arrays."""
    return sum(p.size for p in module.parameters() if p.trainable or not trainable_only)


def conv1d_channels_first(x: np.ndarray, weight: np.ndarray, bias, stride: int, padding: int,
                          groups: int) -> np.ndarray:
    """A dense or depthwise 1-D convolution over channels-first (B, C, T) in numpy.

    It forms the products and sums of the channels-first `autodiff.conv1d`
    that the channels-last op replaced: an im2col GEMM with (C, K) columns, or
    a multiply-sum over a contiguous kernel axis.  The bitwise oracle of the
    channels-last forward.
    """
    B, C, _ = x.shape
    Cout, _, K = weight.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding)))
    win = np.lib.stride_tricks.sliding_window_view(xp, K, axis=2)[:, :, ::stride]
    Tout = win.shape[2]
    if groups > 1:
        out = (win * weight.reshape(C, K)[None, :, None, :]).sum(axis=-1)
    else:
        cols = np.ascontiguousarray(win.transpose(0, 2, 1, 3)).reshape(B * Tout, C * K)
        out = (cols @ weight.reshape(Cout, C * K).T).reshape(B, Tout, Cout).transpose(0, 2, 1)
    return out if bias is None else out + bias[None, :, None]


# Toy encoder shared by the pipeline tests: 2 blocks, d=32, quarter-rate.
TOY_ENCODER = dict(layers=2, dim=32, heads=4, hidden=64, subsample_rate=0.25,
                   conv_kernel=15, dropout=0.1)
TOY_SEED = 707


def toy_encoder_config() -> EncoderConfig:
    return EncoderConfig(**TOY_ENCODER)


def toy_run_config(**overrides) -> RunConfig:
    base = dict(
        name="toy",
        seed=TOY_SEED,
        encoder=toy_encoder_config(),
        epochs=5,
        batch_size=100,
        lr=0.002,
        augment_prob=0.0,
        crop_seconds=2.0,
        frozen_epochs=2,
    )
    base.update(overrides)
    return RunConfig(**base)


@pytest.fixture(scope="session")
def toy_data(tmp_path_factory):
    """Training corpus (20 x 50), held-out-speaker eval corpus, and trial lists."""
    root = tmp_path_factory.mktemp("toy_data")
    train_manifest = write_corpus(Corpus(20, 50, seed=TOY_SEED), root / "train")
    eval_manifest = write_corpus(Corpus(10, 10, seed=909), root / "eval")
    eval_entries = read_manifest(eval_manifest)
    trials = make_trials(eval_entries, seed=11, n_target=600, n_nontarget=600)
    trial_path = root / "trials.txt"
    trial_path.write_text(
        "\n".join(f"{label} {a} {b}" for label, a, b in trials) + "\n", encoding="utf-8"
    )
    return {
        "root": root,
        "train_manifest": train_manifest,
        "eval_manifest": eval_manifest,
        "trials": trial_path,
    }


@pytest.fixture(scope="session")
def toy_asr_ckpt(toy_data, tmp_path_factory):
    """A CTC-pretrained toy encoder, reused as teacher/backbone/init source."""
    out = tmp_path_factory.mktemp("toy_asr")
    cfg = toy_run_config(epochs=3, batch_size=50)
    return pretrain_asr(cfg, toy_data["train_manifest"], out)


@pytest.fixture
def cold_bank():
    """Empties the babble voice bank before and after the test; yields the clear.

    A test that builds voices another way (an oracle synthesis) leaves none
    behind for later tests that compare bytes.
    """
    datapipe._BABBLE_BANK.clear()
    yield datapipe._BABBLE_BANK.clear
    datapipe._BABBLE_BANK.clear()
