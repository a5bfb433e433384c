"""Run the CLI pipeline in the working tree and at a git revision, and diff every byte.

    python3 tools/artifact_diff.py [REV] [--work DIR]
    python3 tools/artifact_diff.py --cpus [--work DIR]

REV defaults to HEAD. Its committed tree is exported with `git archive`
into the work directory (default: a temporary directory, removed at the
end), so the repository gains no worktree or branch. Both trees then run,
through `python -m multires` with one BLAS thread, the pipeline

    gen-data, extract, train, eval, eval --split dev, inspect-weights,
    prune, eval of the refined checkpoint

for four variants: float32 and float64, each with `alignment.target` fixed
and with `max`. The corpus is longer than the training target, so the
second epoch redraws its crops, the maps are large enough that the
convs cut them into several column blocks, and 32/16 is read from the 32/8
map, as extraction reads every resolution from the map of its window at
the smallest hop that divides its own. Every file a run writes and
every command's stdout and exit code are hashed (sha256, read in 1 MiB
chunks). The script prints each name whose hash differs or that only one
tree has, and exits 1 on any difference, 0 when all four runs match.

With `--cpus` no revision is exported: the working tree runs the pipeline
twice, once with every command pinned to one CPU (`os.sched_setaffinity` in
the child before it starts) and once on all the CPUs this process may use,
and the two runs are diffed the same way. Generation, extraction, scoring
(eval and each epoch's dev pass), the mean gate weights that
`inspect-weights` and `prune` rank, and each training step split their
work over one process per CPU, so this checks that the bytes do not
depend on the split. The training config's batch of
8 gives each of 2 CPUs a share of 4 rows, which it runs as two 2-row
micro-shares, and its 14 rows leave a last batch of 6: a 3-row share
each. Generation shares out bona fide/spoof pairs, and the eval split's
5 utterances end in a bona fide one that has no spoof.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Relative paths, so both trees print the same `wrote ...` lines.
CONFIG = """\
corpus.n_train = 14
corpus.n_dev = 4
corpus.n_eval = 5
corpus.duration_s = 0.4
corpus.sample_rate = 2000
corpus.spoof_synthesis = 64/16
corpus.seed = 3
features.resolutions = 32/8,32/16,48/12,64/16
train.epochs = 2
train.batch_size = 8
train.seed = 3
train.warmup_steps = 4
train.target_duration_s = 0.3
backend.stem_channels = 16
backend.stages = 2
backend.blocks_per_stage = 1
backend.se_reduction = 4
paths.corpus_dir = corpus
paths.cache_dir = cache
paths.checkpoint_dir = ckpt
"""

VARIANTS = [(dtype, target) for dtype in ("float32", "float64") for target in ("64x65", "max")]

COMMANDS = [
    ["gen-data"],
    ["extract"],
    ["train"],
    ["eval", "ckpt/full.mrck"],
    ["eval", "ckpt/full.mrck", "--split", "dev"],
    ["inspect-weights", "ckpt/full.mrck"],
    ["prune", "ckpt/full.mrck"],
    ["eval", "ckpt/refined.mrck"],
]

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def file_hash(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        while chunk := fh.read(1 << 20):
            digest.update(chunk)
    return digest.hexdigest()


def export_rev(rev: str, dest: Path) -> None:
    """The committed tree of `rev`, written under `dest`."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev], check=True, capture_output=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def run_pipeline(tree: Path, run_dir: Path, dtype: str, target: str, preexec_fn=None) -> dict[str, str]:
    """Hash of every file the pipeline writes under `run_dir` and of each command's output.

    `preexec_fn` runs in each command's process before it starts.
    """
    run_dir.mkdir(parents=True)
    (run_dir / "run.cfg").write_text(
        CONFIG + f"train.dtype = {dtype}\nalignment.target = {target}\n", encoding="utf-8"
    )
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), **{var: "1" for var in THREAD_VARS})
    hashes = {}
    for command in COMMANDS:
        done = subprocess.run(
            [sys.executable, "-m", "multires", "--config", "run.cfg", *command],
            cwd=run_dir, env=env, capture_output=True, preexec_fn=preexec_fn,
        )
        if done.returncode != 0:
            sys.exit(f"{tree}: `multires {' '.join(command)}` exited {done.returncode}:\n{done.stderr.decode()}")
        hashes[f"stdout of {' '.join(command)}"] = hashlib.sha256(done.stdout).hexdigest()
    for path in sorted(run_dir.rglob("*")):
        if path.is_file():
            hashes[str(path.relative_to(run_dir))] = file_hash(path)
    return hashes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", nargs="?", help="revision to compare against (default HEAD)")
    parser.add_argument("--cpus", action="store_true",
                        help="compare the working tree on one CPU and on all CPUs instead of against a revision")
    parser.add_argument("--work", type=Path, help="work directory, kept afterwards (default: a removed temp dir)")
    args = parser.parse_args(argv)
    if args.cpus:
        cpus = sorted(os.sched_getaffinity(0))
        if args.rev is not None or len(cpus) < 2:
            parser.error("--cpus takes no revision and needs at least 2 CPUs")
    args.rev = args.rev or "HEAD"
    work = args.work or Path(tempfile.mkdtemp(prefix="artifact_diff_"))
    # (label, source tree, preexec_fn of each command), the reference run first
    if args.cpus:
        sides = [("one CPU", ROOT, lambda: os.sched_setaffinity(0, cpus[:1])), (f"{len(cpus)} CPUs", ROOT, None)]
    else:
        sides = [("rev", work / "rev", None), ("tree", ROOT, None)]
    try:
        if not args.cpus:
            export_rev(args.rev, work / "rev")
        differ = False
        for dtype, target in VARIANTS:
            name = f"{dtype}_{target}"
            want, got = [
                run_pipeline(tree, work / "runs" / label.replace(" ", "_") / name, dtype, target, preexec_fn)
                for label, tree, preexec_fn in sides
            ]
            bad = sorted(k for k in want.keys() | got.keys() if want.get(k) != got.get(k))
            differ |= bool(bad)
            for key in bad:
                where = "differs" if key in want and key in got else f"only in {sides[key in got][0]}"
                print(f"{name}: {key} {where}")
            print(f"{name}: {len(want) - len(bad)} of {len(want.keys() | got.keys())} hashes identical")
    finally:
        if args.work is None:
            shutil.rmtree(work)
    if args.cpus:
        print(f"artifacts {'DIFFER' if differ else 'identical'} between {sides[0][0]} and {sides[1][0]}")
    else:
        print(f"artifacts {'DIFFER from' if differ else 'identical to'} {args.rev}")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
