"""Training loop: cross-entropy, Adam with warmup + inverse-sqrt decay,
per-epoch dev scoring, and best-epoch retention.

Determinism is part of the contract: model init and per-epoch shuffles draw
from generators seeded by (config.seed, epoch), batches are consecutive
slices of the permutation, and gradients are reduced in a fixed order, so
identical seeds reproduce logs and checkpoints byte for byte.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .backend import BackendConfig
from .cache import FeatureCache
from .metrics import eer_from_scores
from .model import (
    Model,
    init_model,
    model_backward,
    model_forward,
    model_params,
)

DTYPES = {"float32": np.float32, "float64": np.float64}
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.98, 1e-9


class TrainingDivergedError(RuntimeError):
    """Raised when the loss goes non-finite mid-run."""


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 10
    batch_size: int = 8
    seed: int = 0
    peak_lr: float = 1e-3
    warmup_steps: int = 1000
    weight_decay: float = 1e-9
    target_duration_s: float = 4.5
    dtype: str = "float64"

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.peak_lr <= 0:
            raise ValueError("peak_lr must be positive")
        if self.warmup_steps < 1:
            raise ValueError("warmup_steps must be >= 1")
        if self.target_duration_s <= 0:
            raise ValueError("target_duration_s must be positive")
        if self.dtype not in DTYPES:
            raise ValueError(f"dtype must be one of {sorted(DTYPES)}")

    @property
    def np_dtype(self) -> np.dtype:
        return np.dtype(DTYPES[self.dtype])


def cross_entropy_batch(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean loss over a batch plus the gradient of that mean w.r.t. logits.

    Log-sum-exp stabilized, so saturated logits neither overflow nor NaN.
    """
    z = np.asarray(logits, dtype=np.float64)
    n = z.shape[0]
    m = z.max(axis=1, keepdims=True)
    lse = m + np.log(np.exp(z - m).sum(axis=1, keepdims=True))
    probs = np.exp(z - lse)
    losses = lse[:, 0] - z[np.arange(n), labels]
    grad = probs
    grad[np.arange(n), labels] -= 1.0
    return float(losses.mean()), (grad / n).astype(logits.dtype, copy=False)


def lr_at(step: int, peak_lr: float, warmup_steps: int) -> float:
    """Linear warmup to peak_lr at warmup_steps, then 1/sqrt(step) decay."""
    if step < 1:
        raise ValueError("step must be >= 1")
    return peak_lr * min(step / warmup_steps, np.sqrt(warmup_steps / step))


@dataclass
class OptimizerState:
    first_moment: list[np.ndarray]
    second_moment: list[np.ndarray]
    peak_lr: float
    warmup_steps: int
    weight_decay: float
    step: int = 0


def init_optimizer(
    params: list[np.ndarray], peak_lr: float, warmup_steps: int, weight_decay: float
) -> OptimizerState:
    return OptimizerState(
        first_moment=[np.zeros_like(p) for p in params],
        second_moment=[np.zeros_like(p) for p in params],
        peak_lr=peak_lr,
        warmup_steps=warmup_steps,
        weight_decay=weight_decay,
    )


def adam_step(params: list[np.ndarray], grads: list[np.ndarray], state: OptimizerState) -> None:
    """One bias-corrected Adam update, in place on params.

    The L2 term weight_decay * param joins the gradient before the moment
    updates; the learning rate comes from lr_at(state.step) after the step
    counter is advanced.
    """
    if len(params) != len(grads) or len(params) != len(state.first_moment):
        raise ValueError("params, grads, and optimizer state disagree on tensor count")
    state.step += 1
    lr = lr_at(state.step, state.peak_lr, state.warmup_steps)
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    bc1 = 1.0 - b1**state.step
    bc2 = 1.0 - b2**state.step
    for p, g, m, v in zip(params, grads, state.first_moment, state.second_moment):
        if p.shape != g.shape:
            raise ValueError(f"gradient shape {g.shape} does not match parameter {p.shape}")
        g = g + state.weight_decay * p
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        p -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)


def score_cache(model: Model, cache: FeatureCache, batch_size: int = 32) -> np.ndarray:
    """Detection scores logit(bonafide) - logit(spoof) for every utterance."""
    dtype = model.backend.fc_weight.dtype
    scores = np.empty(cache.n_utterances, dtype=np.float64)
    for start in range(0, cache.n_utterances, batch_size):
        chunk = cache.stacks[start : start + batch_size].astype(dtype)
        logits, _ = model_forward(chunk, model)
        scores[start : start + chunk.shape[0]] = (logits[:, 1] - logits[:, 0]).astype(np.float64)
    return scores


@dataclass
class TrainResult:
    model: Model  # parameters of the retained (best dev EER) epoch
    best_epoch: int
    best_dev_eer: float
    log_lines: list[str]


def train(
    train_cache: FeatureCache,
    dev_cache: FeatureCache,
    config: TrainConfig,
    backend_config: BackendConfig,
    reload_train=None,
    progress=None,
) -> TrainResult:
    """Full optimization run over a cached split pair.

    `reload_train(epoch)` may supply replacement train stacks (same utterance
    order) for epoch >= 2. The pipeline wires it up whenever some train WAV's
    length differs from the target. Only WAVs longer than the target get a
    new random crop; shorter ones are tiled the same way every epoch, so for
    a corpus shorter than the target the reloaded stacks equal the cached ones.

    Emits one log line per epoch, `epoch<TAB>train_loss<TAB>dev_eer`, then
    `retained_epoch<TAB>k`.
    """
    if train_cache.n_utterances == 0 or dev_cache.n_utterances == 0:
        raise ValueError("train and dev caches must be non-empty")
    if train_cache.resolutions != dev_cache.resolutions:
        raise ValueError("train and dev caches disagree on resolutions")
    dtype = config.np_dtype
    model = init_model(
        train_cache.resolutions, backend_config, np.random.default_rng([config.seed, 0]), dtype
    )
    state = init_optimizer(
        model_params(model), config.peak_lr, config.warmup_steps, config.weight_decay
    )
    labels = train_cache.labels.astype(np.int64)
    stacks = train_cache.stacks
    dev_labels = dev_cache.labels
    best_epoch = 0
    best_eer = np.inf
    best_model = None
    log_lines: list[str] = []
    for epoch in range(1, config.epochs + 1):
        if reload_train is not None and epoch >= 2:
            stacks = reload_train(epoch)
            if stacks.shape != train_cache.stacks.shape:
                raise ValueError("reloaded train stacks changed shape mid-run")
        perm = np.random.default_rng([config.seed, epoch]).permutation(len(labels))
        loss_sum = 0.0
        for start in range(0, len(perm), config.batch_size):
            idx = perm[start : start + config.batch_size]
            batch = stacks[idx].astype(dtype)
            logits, fwd = model_forward(batch, model)
            loss, d_logits = cross_entropy_batch(logits, labels[idx])
            if not np.isfinite(loss):
                raise TrainingDivergedError(
                    f"non-finite loss at optimizer step {state.step + 1} (epoch {epoch})"
                )
            _, grads = model_backward(fwd, d_logits)
            adam_step(model_params(model), grads, state)
            loss_sum += loss * len(idx)
        train_loss = loss_sum / len(labels)
        dev_eer = eer_from_scores(score_cache(model, dev_cache), dev_labels)
        log_lines.append(f"{epoch}\t{train_loss:.6f}\t{dev_eer:.6f}")
        if progress is not None:
            progress(log_lines[-1])
        if dev_eer < best_eer:
            best_eer = dev_eer
            best_epoch = epoch
            best_model = copy.deepcopy(model)
    log_lines.append(f"retained_epoch\t{best_epoch}")
    return TrainResult(best_model, best_epoch, float(best_eer), log_lines)
