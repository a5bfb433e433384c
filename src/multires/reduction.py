"""Gradient terms of a batch share, reduced in the batch's serial order.

A backward pass returns, for each parameter, the term its rows contribute
to the gradient rather than the gradient itself, so that a batch cut into
contiguous shares, each run through backward on its own (by
`trainer.train`, one share per CPU), gives the bits of the whole batch.
Every sum or product over the batch axis is left to `reduce_grads`, which
computes it once on the rows of all shares gathered in batch order:

- `RowSum`: ``rows.sum(axis=0)``: an FC bias (its output gradient rows), a
  conv bias (per-example sums of the output gradient) and, through
  `TapSum`, a conv weight (one product per kernel tap and block of
  output rows, in the order the kernel visits them);
- `Outer`: ``a.T @ b``: an FC weight, a K = N product whose bits depend
  on every row it sums.

Two numeric facts make the rest exact, and tests pin both: numpy sums
axis 0 of a C-contiguous array one row after another from the first, so a
conv's per-example and per-block sums add up to the bits of one sum over
the whole batch; and a GEMM of 2 or more rows gives each row the bits it
gets in any taller GEMM, which is why no share has fewer than 2 rows.

A term carries the `shape` and `ndim` of the gradient it reduces to, so
the gradient containers (`ConvParams`, `ExcitationParams`) check it as
they check arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _gather(arrays: list[np.ndarray]) -> np.ndarray:
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


@dataclass
class RowSum:
    """The gradient is the sum of `rows` over axis 0, across every share."""

    rows: np.ndarray

    @property
    def shape(self) -> tuple[int, ...]:
        return self.rows.shape[1:]

    @property
    def ndim(self) -> int:
        return len(self.shape)

    def reduce(self, terms: list[RowSum]) -> np.ndarray:
        return _gather([t.rows for t in terms]).sum(axis=0)


@dataclass
class TapSum(RowSum):
    """A conv weight: `rows` is (blocks, k, k, C_out, C_in), one product per tap and block."""

    @property
    def shape(self) -> tuple[int, ...]:
        k, _, c_out, c_in = self.rows.shape[1:]
        return (c_out, c_in, k, k)

    def reduce(self, terms: list[RowSum]) -> np.ndarray:
        return np.ascontiguousarray(super().reduce(terms).transpose(2, 3, 0, 1))


@dataclass
class Outer:
    """The gradient is ``a.T @ b`` over the rows of every share."""

    a: np.ndarray
    b: np.ndarray

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.a.shape[1], self.b.shape[1])

    ndim = 2

    def reduce(self, terms: list[Outer]) -> np.ndarray:
        return _gather([t.a for t in terms]).T @ _gather([t.b for t in terms])


Term = RowSum | Outer


def reduce_grads(shares: list[list[Term]]) -> list[np.ndarray]:
    """Gradients from the terms of consecutive shares of one batch, first share first.

    ``shares[s][i]`` is parameter i's term from share s; one share gives
    the gradients of its own rows.
    """
    return [terms[0].reduce(list(terms)) for terms in zip(*shares)]
