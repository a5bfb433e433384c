"""Training loop: cross-entropy, Adam with warmup + inverse-sqrt decay,
per-epoch dev scoring, and best-epoch retention.

Determinism is part of the contract: model init and per-epoch shuffles draw
from generators seeded by (config.seed, epoch), batches are consecutive
slices of the permutation, and gradients are reduced in a fixed order, so
identical seeds reproduce logs and checkpoints byte for byte.

Everything runs on every CPU, with the bits of one process. Scoring
(`score_cache`, and so every dev pass and eval) goes through
`cache.map_chunks`, the chunked forward pass that the mean gate weights
also take: each process scores a contiguous share of the split's chunks,
holds one chunk's activations and hands back its scores. Training goes
through `parallel.Workers`, forked once per `train` call: each step is one
`Workers.run` round that cuts its batch into contiguous shares of at least
`MIN_SHARE_ROWS` rows, and every process, this one included, runs the same
`_ShareStep` on its share, one 2-row micro-share at a time, so it holds
one micro-share's cache. `reduction.reduce_grads` sums every micro-share's
gradient terms in the serial order before the Adam step.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .backend import BackendConfig
from .cache import FeatureCache, map_chunks
from .metrics import eer_from_scores
from .model import (
    Model,
    init_model,
    model_backward,
    model_forward,
    model_params,
)
from .parallel import Workers
from .reduction import Term, reduce_grads

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
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.peak_lr <= 0:
            raise ValueError("peak_lr must be positive")
        if self.warmup_steps < 1:
            raise ValueError("warmup_steps must be >= 1")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be >= 0")
        if self.target_duration_s <= 0:
            raise ValueError("target_duration_s must be positive")
        if self.dtype not in DTYPES:
            raise ValueError(f"dtype must be one of {sorted(DTYPES)}")

    @property
    def np_dtype(self) -> np.dtype:
        return np.dtype(DTYPES[self.dtype])


def cross_entropy_batch(
    logits: np.ndarray, labels: np.ndarray, batch_rows: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row losses of some rows of a batch, and those rows of the gradient of the batch's mean loss.

    `batch_rows` is the whole batch's row count, the n of the mean. A row's
    loss and gradient depend on that row's logits alone, so rows cut from a
    batch anywhere and gathered in batch order give the bits of one call on
    the whole batch; the batch loss is ``losses.mean()`` over all its rows.
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
    return losses, (grad / batch_rows).astype(logits.dtype, copy=False)


def lr_at(step: int, peak_lr: float, warmup_steps: int) -> float:
    """Linear warmup to peak_lr at warmup_steps, then 1/sqrt(step) decay."""
    if step < 1:
        raise ValueError("step must be >= 1")
    return peak_lr * min(step / warmup_steps, np.sqrt(warmup_steps / step))


@dataclass
class OptimizerState:
    first_moment: list[np.ndarray]
    second_moment: list[np.ndarray]
    config: TrainConfig  # peak_lr, warmup_steps and weight_decay
    step: int = 0


def init_optimizer(params: list[np.ndarray], config: TrainConfig) -> OptimizerState:
    return OptimizerState(
        first_moment=[np.zeros_like(p) for p in params],
        second_moment=[np.zeros_like(p) for p in params],
        config=config,
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
    lr = lr_at(state.step, state.config.peak_lr, state.config.warmup_steps)
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    bc1 = 1.0 - b1**state.step
    bc2 = 1.0 - b2**state.step
    for p, g, m, v in zip(params, grads, state.first_moment, state.second_moment):
        if p.shape != g.shape:
            raise ValueError(f"gradient shape {g.shape} does not match parameter {p.shape}")
        g = g + state.config.weight_decay * p
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        p -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)


def score_cache(model: Model, cache: FeatureCache) -> np.ndarray:
    """Detection scores logit(bonafide) - logit(spoof) for every utterance.

    Forward only: `model_forward` runs with ``keep_cache=False``, so a chunk
    builds no backward cache and drops each activation once it is read.
    `cache.map_chunks` reads the split a chunk at a time (from disk, or
    extracted only then), on every CPU, and joins the chunks' float64
    scores in row order. A score does not depend on the chunk it is
    computed in (per-example conv blocks, einsum gates and head), so the
    scores are bitwise the same at any chunk size and process count, and a
    failing row raises its error as it would serially.
    """
    dtype = model.backend.fc_weight.dtype

    def scores(rows: np.ndarray) -> np.ndarray:
        logits, _ = model_forward(rows.astype(dtype, copy=False), model, keep_cache=False)
        return (logits[:, 1] - logits[:, 0]).astype(np.float64)

    return map_chunks(cache, scores)


@dataclass
class TrainResult:
    model: Model  # parameters of the retained (best dev EER) epoch
    best_epoch: int
    best_dev_eer: float
    log_lines: list[str]


# Fewest rows a share of a training batch may hold: a one-row GEMM takes
# BLAS's GEMV path and gives its row other bits than a taller GEMM does.
MIN_SHARE_ROWS = 2


def _share_bounds(n_rows: int, processes: int) -> list[int]:
    """Cuts of a batch into contiguous shares, one per process, none under MIN_SHARE_ROWS rows."""
    count = max(1, min(processes, n_rows // MIN_SHARE_ROWS))
    return [share * n_rows // count for share in range(count + 1)]


class _ShareStep:
    """One process's part of each training step: the losses and gradient terms of its share.

    ``step((epoch, rows, params, batch_rows))`` sets the model to `params`,
    reads `rows` of that epoch's train stacks (from disk, or extracting
    them) and walks them in micro-shares of `MIN_SHARE_ROWS` rows, an odd
    share ending in one of 3. Each micro-share runs the forward, its rows of
    the loss of a `batch_rows`-row batch and the backward, and drops its
    cache before the next one reads its rows. It answers the share's
    per-row losses and each micro-share's gradient terms, in batch order.
    It is the `Workers` handle of `train`: each step's `Workers.run` runs
    it here on the first share and in each worker on the share it is sent.
    """

    def __init__(self, model: Model, train_cache: FeatureCache, reload_train, dtype: np.dtype):
        self.model, self.dtype = model, dtype
        self.train_cache, self.reload_train = train_cache, reload_train
        self.labels = train_cache.labels.astype(np.int64)
        self.epoch, self.stacks = 1, train_cache.stacks

    def __call__(self, request) -> tuple[np.ndarray, list[list[Term]]]:
        epoch, rows, params, batch_rows = request
        for p, value in zip(model_params(self.model), params):
            p[...] = value
        if epoch != self.epoch and self.reload_train is not None:  # epoch >= 2
            self.epoch, self.stacks = epoch, self.reload_train(epoch)
            if self.stacks.shape != self.train_cache.stacks.shape:
                raise ValueError("reloaded train stacks changed shape mid-run")
        losses, terms = [], []
        cuts = _share_bounds(len(rows), len(rows))
        for micro in (rows[a:b] for a, b in zip(cuts, cuts[1:])):
            logits, cache = model_forward(self.stacks[micro].astype(self.dtype, copy=False), self.model)
            row_losses, d_logits = cross_entropy_batch(logits, self.labels[micro], batch_rows)
            losses.append(row_losses)
            terms.append(model_backward(cache, d_logits)[1])
        return np.concatenate(losses), terms


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
    length differs from the target, and returns the `CacheRows` of
    `extract_split` for that epoch's crops. Only WAVs longer than the target
    get a new random crop; shorter ones are tiled the same way every epoch,
    so for a corpus shorter than the target the reloaded stacks equal the
    cached ones.

    Each step runs on every CPU: `parallel.Workers` forks one worker per
    CPU but this one before epoch 1 (none that a batch of
    `config.batch_size` rows leaves without a share), and each batch is
    cut into contiguous shares of at least `MIN_SHARE_ROWS` rows, this
    process's first (a small batch runs in fewer shares, down to one).
    Every process runs `_ShareStep` on its share, in one `Workers.run`
    round per step: it indexes the train stacks with its share's slice
    of the permutation a micro-share at a time, so a cache opened by
    `read_cache` is read from disk, and recropped stacks are extracted, two
    or three rows at a time, and runs each micro-share's forward, loss rows
    and backward. The batch loss is the mean of every row's loss in batch
    order; a non-finite one raises `TrainingDivergedError` before the
    gradients are reduced. `reduction.reduce_grads` sums the gradient terms
    of all micro-shares in batch order, so every step has the bits it has
    in one process.

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
    state = init_optimizer(model_params(model), config)
    dev_labels = dev_cache.labels
    best_epoch = 0
    best_eer = np.inf
    best_model = None
    log_lines: list[str] = []
    step = _ShareStep(model, train_cache, reload_train, dtype)
    shares = max(1, config.batch_size // MIN_SHARE_ROWS)  # most shares a batch is cut into
    with Workers(step, shares) as workers:
        for epoch in range(1, config.epochs + 1):
            perm = np.random.default_rng([config.seed, epoch]).permutation(train_cache.n_utterances)
            loss_sum = 0.0
            for start in range(0, len(perm), config.batch_size):
                idx = perm[start : start + config.batch_size]
                cuts = _share_bounds(len(idx), len(workers) + 1)
                params = model_params(model)
                answers = workers.run([(epoch, idx[a:b], params, len(idx)) for a, b in zip(cuts, cuts[1:])])
                loss = float(np.concatenate([losses for losses, _ in answers]).mean())
                if not np.isfinite(loss):
                    raise TrainingDivergedError(
                        f"non-finite loss at optimizer step {state.step + 1} (epoch {epoch})"
                    )
                adam_step(params, reduce_grads([micro for _, terms in answers for micro in terms]), state)
                loss_sum += loss * len(idx)
            train_loss = loss_sum / len(perm)
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
