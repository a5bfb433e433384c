"""Per-layer metrics of one traced unit, and the facts the tracer self-checks use.

Layer splits (`backend.stem`, `backend.block<i>`, `backend.head`,
`excitation.gate`, `excitation.se`) are the time a layer takes in one pass,
median over passes.  A pass is one training step's `model_forward` /
`model_backward` when the unit trains, otherwise one scoring batch's
`model_forward`.  Per-step work counts use the same passes.  Counts marked
"computed" come from the argument shapes and file sizes the tracer probed,
not from hardware counters.
"""

from __future__ import annotations

import statistics

N_BLOCKS = 3  # toy backend: 3 stages of 1 block


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def conv_flops(probe: tuple, backward: bool) -> int:
    """Multiply-adds x2 of the conv GEMMs; backward runs two (d_weight, d_cols)."""
    (n, _, w, h), (c_out, c_in, k, _), stride, _ = probe
    wo, ho = -(-w // stride), -(-h // stride)
    flops = 2 * n * c_out * c_in * k * k * wo * ho
    return 2 * flops if backward else flops


def im2col_bytes(probe: tuple) -> int:
    (n, c_in, w, h), (_, _, k, _), stride, itemsize = probe
    wo, ho = -(-w // stride), -(-h // stride)
    return n * c_in * k * k * wo * ho * itemsize


class SpanTree:
    def __init__(self, spans: list[list]) -> None:
        self.spans = spans
        self.children: list[list[int]] = [[] for _ in spans]
        for i, span in enumerate(spans):
            if span[3] >= 0:
                self.children[span[3]].append(i)
        self.self_s = [
            span[2] - span[1] - sum(spans[c][2] - spans[c][1] for c in self.children[i])
            for i, span in enumerate(spans)
        ]

    def name(self, i: int) -> str:
        return self.spans[i][0]

    def dur(self, i: int) -> float:
        return self.spans[i][2] - self.spans[i][1]

    def kids(self, i: int, name: str) -> list[int]:
        return [c for c in self.children[i] if self.spans[c][0] == name]

    def kid(self, i: int, name: str) -> int:
        found = self.kids(i, name)
        if len(found) != 1:
            raise ValueError(f"span {self.name(i)} has {len(found)} {name} children, expected 1")
        return found[0]

    def descendants(self, i: int, name: str) -> list[int]:
        out, todo = [], list(self.children[i])
        while todo:
            c = todo.pop()
            if self.spans[c][0] == name:
                out.append(c)
            todo.extend(self.children[c])
        return out

    def named(self, name: str) -> list[int]:
        return [i for i, span in enumerate(self.spans) if span[0] == name]

    def calls(self, name: str) -> int:
        return len(self.named(name))

    def total_self(self, name: str) -> float:
        return sum(self.self_s[i] for i in self.named(name))

    def total_dur(self, name: str) -> float:
        return sum(self.dur(i) for i in self.named(name))


def training_steps(tree: SpanTree) -> list[tuple[int, int, int]]:
    """(model_forward, model_backward, adam_step) span triples, one per step."""
    steps = []
    for t in tree.named("trainer.train"):
        fwd = bwd = None
        for c in tree.children[t]:
            name = tree.name(c)
            if name == "model.model_forward":
                fwd, bwd = c, None
            elif name == "model.model_backward":
                bwd = c
            elif name == "trainer.adam_step" and fwd is not None and bwd is not None:
                steps.append((fwd, bwd, c))
                fwd = bwd = None
    return steps


def _forward_split(tree: SpanTree, mf: int) -> dict[str, float]:
    bf = tree.kid(mf, "backend.backend_forward")
    blocks = tree.kids(bf, "backend.block_forward")
    out = {
        "backend.stem.fwd_s": tree.dur(tree.kid(bf, "backend.conv2d_forward")),
        "backend.head.fwd_s": tree.self_s[bf],
        "excitation.gate.fwd_s": tree.dur(tree.kid(mf, "excitation.excite_forward")),
        "excitation.se.fwd_s": sum(
            tree.dur(tree.kid(b, "excitation.excite_forward")) for b in blocks
        ),
    }
    for i, b in enumerate(blocks):
        out[f"backend.block{i}.fwd_s"] = tree.dur(b)
    return out


def _backward_split(tree: SpanTree, mb: int) -> dict[str, float]:
    bb = tree.kid(mb, "backend.backend_backward")
    blocks = list(reversed(tree.kids(bb, "backend.block_backward")))
    out = {
        "backend.stem.bwd_s": tree.dur(tree.kid(bb, "backend.conv2d_backward")),
        "excitation.gate.bwd_s": tree.dur(tree.kid(mb, "excitation.excite_backward")),
        "excitation.se.bwd_s": sum(
            tree.dur(tree.kid(b, "excitation.excite_backward")) for b in blocks
        ),
    }
    for i, b in enumerate(blocks):
        out[f"backend.block{i}.bwd_s"] = tree.dur(b)
    return out


def _medians(rows: list[dict[str, float]]) -> dict[str, float]:
    keys = rows[0].keys() if rows else []
    return {k: _median([r[k] for r in rows]) for k in keys}


def layer_metrics(spans: list[list]) -> tuple[dict[str, float], dict]:
    """Per-layer metrics of one traced unit, plus facts the self-checks need."""
    tree = SpanTree(spans)
    steps = training_steps(tree)
    if steps:
        fwd_passes = [s[0] for s in steps]
        bwd_passes = [s[1] for s in steps]
    else:
        fwd_passes = tree.named("model.model_forward")
        bwd_passes = []

    m: dict[str, float] = {}
    for direction, backward in (("forward", False), ("backward", True)):
        name = f"backend.conv2d_{direction}"
        ids = tree.named(name)
        flops = sum(conv_flops(spans[i][4], backward) for i in ids)
        self_s = tree.total_self(name)
        m[f"{name}.calls"] = len(ids)
        m[f"{name}.self_s"] = self_s
        m[f"{name}.gflops"] = flops / self_s / 1e9 if self_s > 0 else 0.0

    per_pass_flops, per_pass_cols, conv_counts = [], [], []
    for k, mf in enumerate(fwd_passes):
        fwd_ids = tree.descendants(mf, "backend.conv2d_forward")
        bwd_ids = tree.descendants(bwd_passes[k], "backend.conv2d_backward") if bwd_passes else []
        conv_counts.append((len(fwd_ids), len(bwd_ids)))
        per_pass_flops.append(
            sum(conv_flops(spans[i][4], False) for i in fwd_ids)
            + sum(conv_flops(spans[i][4], True) for i in bwd_ids)
        )
        per_pass_cols.append(sum(im2col_bytes(spans[i][4]) for i in fwd_ids + bwd_ids))
    m["backend.conv_gflop_per_step"] = _median(per_pass_flops) / 1e9
    m["backend.im2col_bytes_per_step"] = _median(per_pass_cols)

    split = _medians([_forward_split(tree, mf) for mf in fwd_passes])
    split.update(_medians([_backward_split(tree, mb) for mb in bwd_passes]))
    for key in ["backend.stem", "backend.head"] + [f"backend.block{i}" for i in range(N_BLOCKS)]:
        for d in ("fwd_s", "bwd_s"):
            if key == "backend.head" and d == "bwd_s":
                continue
            m[f"{key}.{d}"] = split.get(f"{key}.{d}", 0.0)
    for key in ("excitation.gate", "excitation.se"):
        for d in ("fwd_s", "bwd_s"):
            m[f"{key}.{d}"] = split.get(f"{key}.{d}", 0.0)

    m["trainer.adam_step.calls"] = tree.calls("trainer.adam_step")
    m["trainer.adam_step.self_s"] = tree.total_self("trainer.adam_step")
    m["trainer.cross_entropy_batch.self_s"] = tree.total_self("trainer.cross_entropy_batch")
    step_s = [tree.spans[a][2] - tree.spans[f][1] for f, _, a in steps]
    m["trainer.step_s.p50"] = _median(step_s)
    m["trainer.step_s.p90"] = _p90(step_s)
    m["trainer.score_cache.total_s"] = tree.total_dur("trainer.score_cache")

    m["stft.stft.self_s"] = tree.total_self("stft.stft")
    m["stft.log_magnitude.self_s"] = tree.total_self("stft.log_magnitude")
    for name in ("alignment.align_map", "pipeline.extract_split", "signal_io.read_wav"):
        m[f"{name}.calls"] = tree.calls(name)
        m[f"{name}.self_s"] = tree.total_self(name)
    # These delegate their work to other wrapped functions, so self time is small.
    m["alignment.align_map.total_s"] = tree.total_dur("alignment.align_map")
    m["weighting.mean_weights_over_set.total_s"] = tree.total_dur("weighting.mean_weights_over_set")
    for name in ("cache.write_cache", "cache.read_cache"):
        mb = sum(spans[i][4][0] for i in tree.named(name)) / 1e6
        self_s = tree.total_self(name)
        m[f"{name}.mb"] = mb
        m[f"{name}.self_s"] = self_s
        m[f"{name}.mb_per_s"] = mb / self_s if self_s > 0 else 0.0
    for name in (
        "metrics.det_points_from_scores",
        "metrics.eer_from_scores",
        "weighting.mean_weights_over_set",
        "model.load_checkpoint",
    ):
        m[f"{name}.self_s"] = tree.total_self(name)

    facts = {
        "steps": len(steps),
        "conv_counts": conv_counts if steps else [],
        "self_sum_s": sum(tree.self_s),
        "calls": {name: tree.calls(name) for name in sorted({s[0] for s in spans})},
    }
    return m, facts
