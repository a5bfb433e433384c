"""Benchmark of the multires pipeline, timed from outside through its public API.

Run from the repository root:

    python3 perfbench/run.py --workload train_toy_f32 --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all      # every workload, one after another
    python3 perfbench/run.py --provenance        # environment and workload configs as JSON

Each workload runs in fresh child processes (`child.py`): one builds the
inputs several times (setup_s is their median), a second runs timed units
for `--seconds` and reports its peak RSS.  Both run a fixed reference
kernel (`reference.py`) between their timed items, and the end-to-end
times are scaled to the machine speed it measures.  With `--trace 1` the timed
phase alternates untraced and traced units and the per-layer metrics come
from the traced ones.  Every check result counts in `attempted`/`failed`;
the last line of standard output is the result JSON.  perfbench/NOTES.md
describes the workloads, metrics and checks.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402

BLAS_THREADS = "1"
SETUP_REPEATS = 3
DEADLINE_S = 170.0
WORK_DIR = ROOT / ".perfbench_work"

# ROADMAP Baseline, float32 toy step at batch 8 (seconds); reported, not gated.
BASELINE = {
    "trainer.step_s.p50": 0.29,
    "backend.block0.fwd_s": 0.037,
    "backend.block0.bwd_s": 0.099,
    "backend.block1.fwd_s": 0.015,
    "backend.block1.bwd_s": 0.053,
    "backend.block2.fwd_s": 0.010,
    "backend.block2.bwd_s": 0.026,
    "excitation.gate.fwd_s": 0.001,
}


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONHASHSEED"] = "0"
    # numpy asks for transparent huge pages on large arrays.  Whether the
    # kernel has any free depends on the rest of the machine, and it moved
    # the peak RSS of the same run by 11%.
    env["NUMPY_MADVISE_HUGEPAGE"] = "0"
    return env


class BenchError(RuntimeError):
    pass


def kill_session(proc: subprocess.Popen) -> None:
    """Kill a child and everything it started, and wait until they are gone."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.communicate()
    for _ in range(100):  # the helper is reaped by init, not by us
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_child(args: list[str], deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("no time left before the run deadline")
    # The child starts a reference helper of its own; a session of its own lets
    # a timeout or a signal end both.
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), *args], cwd=ROOT, env=child_env(),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except BaseException as exc:
        kill_session(proc)
        if isinstance(exc, subprocess.TimeoutExpired):
            raise BenchError(f"child {args[0]} exceeded the run deadline") from exc
        raise
    if proc.returncode != 0:
        raise BenchError(f"child {args[0]} failed (exit {proc.returncode}):\n{stderr[-4000:]}")
    return json.loads(stdout.strip().splitlines()[-1])


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def same_hashes(label: str, runs: list[dict[str, str]], checks: wl.Checks) -> None:
    """One check per artifact name: every repeat produced identical bytes."""
    if len(runs) < 2:
        return
    for name in sorted(set().union(*runs)):
        values = {r.get(name) for r in runs}
        checks.add(f"{label} {name} byte-identical across {len(runs)} repeats", len(values) == 1,
                   f"{len(values)} distinct sha256")


def ledger_check(key: str, hashes: dict[str, str], checks: wl.Checks) -> None:
    """Compare with earlier runs of the same workload, seed and source tree."""
    path = WORK_DIR / "ledger" / f"{key}.json"
    if path.is_file():
        before = json.loads(path.read_text())
        for name, digest in sorted(hashes.items()):
            if name in before:
                checks.add(f"{name} byte-identical to an earlier run", before[name] == digest)
        hashes = {**before, **hashes}
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(hashes, sort_keys=True))
    os.replace(tmp, path)


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    w = wl.BY_NAME[name]
    deadline = time.monotonic() + DEADLINE_S
    run_dir = WORK_DIR / f"{name}-s{seed}-p{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    checks = wl.Checks()
    try:
        repeats = 1 if trace else SETUP_REPEATS
        setup = run_child(["setup", "--workload", name, "--seed", str(seed), "--dir", str(run_dir),
                           "--repeats", str(repeats)], deadline)
        measure = run_child(["measure", "--workload", name, "--seed", str(seed), "--dir", str(run_dir),
                             "--seconds", str(seconds), "--trace", str(int(trace))], deadline)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for result in setup["checks"] + measure["checks"]:
        checks.add(*result)
    same_hashes("set-up", setup["artifacts"], checks)
    units = measure["units"]
    same_hashes("timed", [u["artifacts"] for u in units], checks)
    ledger = dict(setup["artifacts"][0])
    ledger.update(units[0]["artifacts"])
    ledger_check(f"{name}-{seed}-{source_digest()}", ledger, checks)

    timed = units[1:] or units  # the first of several units is a warm-up
    plain = [u for u in timed if not u["traced"]] or units[:1]
    notes = {k: v for u in units for k, v in u["quality"].items()}
    if trace:
        traced = [u for u in timed if u["traced"]]
        overhead = statistics.median(u["wall_s"] * u["ref_scale"] for u in traced) / statistics.median(
            u["wall_s"] * u["ref_scale"] for u in plain) - 1.0
        metrics = {}
        for m in spec["per_layer"]:
            key = m["name"]
            value = overhead if key == "trace.overhead_ratio" else statistics.median(
                layer[key] for layer in measure["layers"])
            metrics[key] = {"value": value, "unit": m["unit"]}
        if name == "train_toy_f32":
            notes["baseline"] = {
                k: {"measured": metrics[k]["value"], "roadmap_baseline": v} for k, v in BASELINE.items()
            }
    else:
        # Times are scaled to the reference machine speed (reference.py).
        values = {
            "setup_s": statistics.median(t * k for t, k in zip(setup["setup_s"], setup["ref_scale"])),
            "utt_per_s": sum(u["utterances"] for u in plain) / sum(u["wall_s"] * u["ref_scale"] for u in plain),
            "peak_rss_mb": measure["peak_rss_mb"],
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}
        notes["raw_setup_s"] = statistics.median(setup["setup_s"])
        notes["raw_utt_per_s"] = sum(u["utterances"] for u in plain) / sum(u["wall_s"] for u in plain)
        notes["setup_s_all"] = setup["setup_s"]
        notes["setup_ref_scale"] = setup["ref_scale"]
        notes["unit_walls_s"] = [u["wall_s"] for u in units]
        notes["unit_ref_scale"] = [u["ref_scale"] for u in units]

    failed = [r for r in checks.results if not r[1]]
    notes["error_rate"] = len(failed) / len(checks.results)
    for check_name, _, detail in failed:
        print(f"FAILED {name}: {check_name} ({detail})")
    print(f"notes {name}: {json.dumps(notes)}")
    return {
        "correct": not failed,
        "attempted": len(checks.results),
        "failed": len(failed),
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=["all", *wl.BY_NAME])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--provenance", action="store_true")
    args = parser.parse_args(argv)
    # Turn SIGTERM into an exception, so run_child kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "multires" / "__init__.py").is_file():
        print(f"error: {ROOT} has no src/multires package to benchmark", file=sys.stderr)
        return 2
    if args.provenance:
        record = run_child(["provenance", "--seed", str(args.seed), "--root", str(ROOT)],
                           time.monotonic() + DEADLINE_S)
        print(json.dumps(record, indent=2))
        return 0
    spec = load_spec()
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    names = list(wl.BY_NAME) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, seconds, bool(args.trace), spec)
            for key, m in results[name]["metrics"].items():
                print(f"{name}\t{key}\t{m['value']:.6g}\t{m['unit']}")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
