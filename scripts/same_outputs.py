"""Check that the working tree writes the same run artifacts as a base commit.

    python3 scripts/same_outputs.py BASE [--only NAME ...]

BASE is any git revision, such as `main` or a commit hash. The script
exports BASE into a temporary directory with `git archive`, then runs each
pinned configuration below once with BASE's `src/` and once with the working
tree's `src/` (uncommitted edits included), each side writing into its own
temporary directory. It compares every file the two runs wrote, byte for
byte, except `run.json`, which records wall times. The CLI's stdout is
compared too, with the run directory's path masked. It prints a count of
identical and differing files per configuration and exits 1 if any file
differs or exists on one side only.

Each configuration runs with `--jobs 1` unless its flags name another
`--jobs`. The whole set takes a few minutes.
"""
from __future__ import annotations

import argparse
import filecmp
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# name -> the `gridsynth run` flags of each of its runs
CONFIGS = {
    "maze-desk": [["--env", "maze", "--profile", "desk", "--seed", str(s)] for s in range(5)],
    # deeper dream programs fail to evaluate more often, so memos that
    # dreams of one program share hold failed (None) actions too
    "maze-dreams-deep": [
        ["--env", "maze", "--profile", "desk", "--seed", "7", "--d-max", "8", "--max-iterations", "2"],
    ],
    "minatar-search": [
        ["--env", "spaceinvaders", "--profile", "desk", "--seed", "7",
         "--corpus-size", "0", "--max-iterations", "2"],
    ],
    # the same run split over two forked workers: the windows a stage groups
    # and the candidate closures each worker builds must not change a result
    "minatar-search-jobs2": [
        ["--env", "spaceinvaders", "--profile", "desk", "--seed", "7",
         "--corpus-size", "0", "--max-iterations", "2", "--jobs", "2"],
    ],
    "asterix-dreams": [
        ["--env", "asterix", "--profile", "desk", "--seed", "7",
         "--corpus-size", "50", "--d-max", "8", "--max-iterations", "2"],
    ],
    # the run perfbench/make_corpus.py replays: four compressions with a
    # growing library
    "asterix-compress": [
        ["--env", "asterix", "--profile", "desk", "--seed", "7",
         "--corpus-size", "0", "--max-iterations", "4"],
    ],
}
SKIPPED = {"run.json"}


def export(rev: str, dest: Path) -> Path:
    """Write the tree of `rev` into `dest`; return its `src/`."""
    dest.mkdir(parents=True)
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
        check=True,
        capture_output=True,
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return dest / "src"


def run(src: Path, flags: list[str], out: Path) -> None:
    env = dict(os.environ, PYTHONPATH=str(src))
    jobs = [] if "--jobs" in flags else ["--jobs", "1"]
    cmd = [sys.executable, "-m", "gridsynth", "run", *flags, *jobs, "--out", str(out)]
    out.parent.mkdir(parents=True, exist_ok=True)
    proc = subprocess.run(cmd, env=env, cwd=out.parent, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(flags)} failed with {src}:\n{proc.stderr}")
    (out / "stdout.txt").write_text(proc.stdout.replace(str(out), "RUN"))


def compare(a: Path, b: Path) -> tuple[int, list[str]]:
    """Identical files and the relative paths that differ or exist once."""
    files_a = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    same, bad = 0, []
    for rel in sorted(files_a | files_b):
        if rel.name in SKIPPED:
            continue
        if rel in files_a and rel in files_b and filecmp.cmp(a / rel, b / rel, shallow=False):
            same += 1
        else:
            bad.append(str(rel))
    return same, bad


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="git revision to compare the working tree with")
    parser.add_argument("--only", action="append", choices=sorted(CONFIGS), help="run only these configurations")
    args = parser.parse_args(argv)
    failed = False
    with tempfile.TemporaryDirectory(prefix="same-outputs-") as tmp:
        tmp = Path(tmp)
        sides = {"base": export(args.base, tmp / "base-tree"), "work": ROOT / "src"}
        for name in args.only or CONFIGS:
            same, bad = 0, []
            for i, flags in enumerate(CONFIGS[name]):
                outs = {side: tmp / side / f"{name}-{i}" for side in sides}
                for side, src in sides.items():
                    run(src, flags, outs[side])
                n, diff = compare(outs["base"], outs["work"])
                same += n
                bad += [f"{name}-{i}/{rel}" for rel in diff]
            print(f"{name}: {same} identical, {len(bad)} differ ({len(CONFIGS[name])} runs, run.json skipped)")
            for rel in bad:
                print(f"  differs: {rel}")
            failed |= bool(bad)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
