"""Child process of the benchmark: one phase of one workload.

    python perfbench/child.py setup      --workload W --seed N --dir D --repeats K
    python perfbench/child.py measure    --workload W --seed N --dir D --seconds T --trace 0|1
    python perfbench/child.py provenance --seed N --root R

`run.py` starts it with `src` on PYTHONPATH and the BLAS thread variables
set.  It prints one JSON object as its last line of standard output.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import pkgutil
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import reference  # noqa: E402
import workloads as wl  # noqa: E402
from layers import layer_metrics  # noqa: E402
from tracer import Tracer  # noqa: E402

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# Spans each workload must record; none means the wrapping missed a call site.
TRACED_LAYERS = {
    "train": (
        "model.model_forward", "backend.conv2d_forward", "backend.conv2d_backward",
        "excitation.excite_forward", "excitation.excite_backward", "trainer.adam_step",
        "trainer.cross_entropy_batch", "trainer.score_cache", "signal_io.read_wav",
        "cache.read_cache", "metrics.eer_from_scores", "model.save_checkpoint",
    ),
    "extract": (
        "pipeline.extract_split", "signal_io.read_wav", "stft.stft", "stft.log_magnitude",
        "alignment.align_map", "cache.write_cache", "cache.read_cache",
    ),
    "score": (
        "model.load_checkpoint", "trainer.score_cache", "backend.conv2d_forward",
        "metrics.det_points_from_scores", "metrics.eer_from_scores",
        "weighting.mean_weights_over_set", "cache.read_cache",
    ),
}
RECROP_LAYERS = ("pipeline.extract_split", "stft.stft", "alignment.align_map")

# Reference blocks run for at least FIRST_REF_S before the first timed item and,
# after each item, for at least REF_SHARE of its wall time but no more than
# REF_MAX_S (reference.py).  Set-up times are only compared by their median,
# so they get fewer blocks.
FIRST_REF_S = 0.6
REF_SHARE = 0.25
REF_MAX_S = 2.0
SETUP_REF_SHARE = 0.05

# A set-up shorter than a second is repeated more often, so its median is steadier.
SETUP_MIN_S = 2.0
SETUP_MAX_REPEATS = 12


def import_package() -> None:
    import multires

    for info in pkgutil.iter_modules(multires.__path__):
        if info.name != "__main__":
            importlib.import_module(f"multires.{info.name}")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def ref_scales(blocks: list[float]) -> list[float]:
    """Scale of the i-th timed item, run between reference samples i and i+1."""
    return [2.0 * reference.REFERENCE_S / (a + b) for a, b in zip(blocks, blocks[1:])]


def phase_setup(args) -> dict:
    """Set up at least `--repeats` times and for at least SETUP_MIN_S in total."""
    w = wl.BY_NAME[args.workload]
    checks = wl.Checks()
    times, artifacts = [], []
    with reference.Reference() as ref:
        blocks = [ref.sample(FIRST_REF_S)]
        while len(times) < args.repeats or (sum(times) < SETUP_MIN_S and len(times) < SETUP_MAX_REPEATS):
            data_dir = Path(args.dir) / f"rep{len(times)}"
            elapsed, hashes = wl.setup(w, args.seed, data_dir, checks)
            blocks.append(ref.sample(SETUP_REF_SHARE * elapsed))
            times.append(elapsed)
            artifacts.append(hashes)
            if len(times) > 1:
                shutil.rmtree(data_dir)
    return {"setup_s": times, "ref_scale": ref_scales(blocks), "artifacts": artifacts,
            "checks": checks.results}


def _traced_unit(w, args, data_dir, unit_dir, checks) -> tuple:
    tracer = Tracer()
    t0 = time.perf_counter()
    tracer.install()
    try:
        unit = wl.run_unit(w, args.seed, data_dir, unit_dir, checks)
    finally:
        tracer.uninstall()
    outer_s = time.perf_counter() - t0
    unrestored = tracer.restored()
    checks.add("tracer restored every wrapped attribute", not unrestored,
               f"{tracer.wrapped_count} wrapped; not restored: {unrestored}")
    metrics, facts = layer_metrics(tracer.spans)
    checks.add("self times sum to no more than wall time", facts["self_sum_s"] <= outer_s,
               f"self sum {facts['self_sum_s']:.4f} s, wall {outer_s:.4f} s")
    expected = TRACED_LAYERS[w.kind] + (RECROP_LAYERS if w.name == "train_recrop_f32" else ())
    missing = [name for name in expected if facts["calls"].get(name, 0) == 0]
    checks.add("every expected layer recorded spans", not missing, f"missing: {missing}")
    if w.kind == "train":
        want = wl.expected_convs_per_step()
        bad = [c for c in facts["conv_counts"] if c != (want, want)]
        checks.add(f"{want} forward + {want} backward conv2d calls per step",
                   facts["steps"] > 0 and not bad,
                   f"{facts['steps']} steps; mismatching (fwd, bwd): {bad[:3]}")
    return unit, metrics


def phase_measure(args) -> dict:
    import_package()
    w = wl.BY_NAME[args.workload]
    checks = wl.Checks()
    data_dir = Path(args.dir) / "rep0"
    units, layers = [], []
    with reference.Reference() as ref:
        blocks = [ref.sample(FIRST_REF_S)]
        start = time.perf_counter()
        iteration_s: list[float] = []
        # Run whole units while the next one is expected to end within --seconds;
        # at least one, and with --trace 1 at least one untraced and one traced.
        while True:
            index = len(units)
            traced = bool(args.trace) and index % 2 == 1
            unit_dir = Path(args.dir) / f"unit{index}"
            t0 = time.perf_counter()
            if traced:
                unit, metrics = _traced_unit(w, args, data_dir, unit_dir, checks)
                layers.append(metrics)
            else:
                unit = wl.run_unit(w, args.seed, data_dir, unit_dir, checks)
            blocks.append(ref.sample(min(REF_SHARE * (time.perf_counter() - t0), REF_MAX_S)))
            units.append({"traced": traced, **vars(unit)})
            iteration_s.append(time.perf_counter() - t0)
            elapsed = time.perf_counter() - start
            if args.trace and len(units) < 2:
                continue
            if elapsed + statistics.median(iteration_s) > args.seconds:
                break
    for unit, scale in zip(units, ref_scales(blocks)):
        unit["ref_scale"] = scale
    return {
        "units": units,
        "layers": layers,
        "checks": checks.results,
        "peak_rss_mb": peak_rss_mb(),
    }


def _git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def phase_provenance(args) -> dict:
    import numpy as np
    from multires.config import parse_config, serialize_config
    from multires.pipeline import config_fingerprint

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    data = Path("data") / "perfbench"
    per_workload = {}
    for w in wl.WORKLOADS:
        cfg = parse_config(wl.config_text(w, args.seed, data / w.name, data / w.name / "unit"), w.name)
        per_workload[w.name] = {
            "why": w.why,
            "config_fingerprint": config_fingerprint(cfg),
            "config": serialize_config(cfg),
        }
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "nproc": len(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "numpy_madvise_hugepage": os.environ.get("NUMPY_MADVISE_HUGEPAGE"),
        "git_commit": _git_commit(Path(args.root)),
        "seed": args.seed,
        "workloads": per_workload,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("phase", choices=("setup", "measure", "provenance"))
    parser.add_argument("--workload", choices=sorted(wl.BY_NAME))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir")
    parser.add_argument("--root", default=".")
    parser.add_argument("--repeats", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    phase = {"setup": phase_setup, "measure": phase_measure, "provenance": phase_provenance}
    print(json.dumps(phase[args.phase](args)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
