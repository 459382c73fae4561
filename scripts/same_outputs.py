"""Check that the working tree writes the same run artifacts as a base commit.

    python3 scripts/same_outputs.py BASE [--only NAME ...]

BASE is any git revision, such as `main` or a commit hash. The script
exports BASE into a temporary directory with `git archive`, then runs each
pinned configuration below once with BASE's `src/` and once with the working
tree's `src/` (uncommitted edits included), each side writing into its own
temporary directory. After each run, the same side also runs `gridsynth
library RUN` and `gridsynth explain RUN --task T` on it. T is the first
solved task of the last iteration that solved one, preferring a task whose
program calls a library function. The explanation bundle is written under
the run directory. The script compares every file the two sides wrote, byte
for byte, except `run.json`, which records wall times. The stdout of each
command is compared too, with the run directory's path masked. It prints a
count of identical and differing files per configuration, and the dream
recovery violations (`dreamRecovery.violations` in `run.json`) summed over
the working tree's runs. It exits 1 if any file differs or exists on one
side only, or if any iteration of a working-tree run has a violation.

One more check, `compress-corpus`, runs no `gridsynth run`: it calls
`library.compress` from an empty library on the 229 programs of
`perfbench/data/asterix-corpus.json`, as perfbench's workload of that name
does, and writes `library.json`, the `library_report`, the rewritten
programs, the `repr` of `dl_before` and `dl_after`, and `candidate_counts`
(greedy steps, patterns the candidate search bounded and candidates priced
exactly), so that a change to pruning shows even when the winners stay the
same.

Another, `collect-prompts`, pins the rollouts codec: per environment, it
runs `gridsynth collect --count 3 --seed 5` into `oracle.json` and then
`gridsynth export-prompts --rollouts oracle.json --L 3`, and compares the
rollouts file, the prompts and both commands' stdout.

The whole set takes a few minutes.
"""
from __future__ import annotations

import argparse
import filecmp
import functools
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# name -> the `gridsynth run` flags of each of its runs
CONFIGS = {
    "maze-desk": [["--env", "maze", "--profile", "desk", "--seed", str(s)] for s in range(5)],
    # deeper dream programs fail to evaluate more often, so more dreams
    # stop on a failed step, and many share a program that fails
    "maze-dreams-deep": [
        ["--env", "maze", "--profile", "desk", "--seed", "7", "--d-max", "8", "--max-iterations", "2"],
    ],
    "minatar-search": [
        ["--env", "spaceinvaders", "--profile", "desk", "--seed", "7",
         "--corpus-size", "0", "--max-iterations", "2"],
    ],
    "asterix-dreams": [
        ["--env", "asterix", "--profile", "desk", "--seed", "7",
         "--corpus-size", "50", "--d-max", "8", "--max-iterations", "2"],
    ],
    # dreams on the interpreter with Space Invaders objects: the second
    # iteration dreams with a 9-entry library
    "spaceinvaders-dreams": [
        ["--env", "spaceinvaders", "--profile", "desk", "--seed", "7",
         "--corpus-size", "50", "--d-max", "8", "--max-iterations", "2"],
    ],
    # Space Invaders at paper scale with dreams on: 100 dreams an iteration,
    # whose windows join each solve stage's scan (dream recovery)
    "spaceinvaders-paper-dreams": [
        ["--env", "spaceinvaders", "--profile", "paper", "--seed", "7",
         "--corpus-size", "100", "--d-max", "8"],
    ],
    # the run perfbench/make_corpus.py replays: four compressions with a
    # growing library
    "asterix-compress": [
        ["--env", "asterix", "--profile", "desk", "--seed", "7",
         "--corpus-size", "0", "--max-iterations", "4"],
    ],
    # paper scale: seven iterations to the two-fails stop, solve stages of up
    # to 1,810 windows, a first compression of 880 programs and a library
    # that grows to dozens of entries
    "minatar-paper": [
        ["--env", "spaceinvaders", "--profile", "paper", "--seed", "7", "--corpus-size", "0"],
    ],
    # asterix at paper scale: ten iterations that reach L=11, so the scan's
    # window check and eval run at every L from 3 to 11, on stages of up to
    # 1,762 windows
    "asterix-paper": [
        ["--env", "asterix", "--profile", "paper", "--seed", "7", "--corpus-size", "0"],
    ],
}
SKIPPED = {"run.json"}
CORPUS = ROOT / "perfbench" / "data" / "asterix-corpus.json"
# the compress-corpus check: one compression of CORPUS, written to argv[2]
COMPRESS = """
import json, sys
from pathlib import Path
from gridsynth.grammar import refit, uniform_grammar
from gridsynth.library import compress, library_report, save_library
from gridsynth.primitives import primitive_table
from gridsynth.sexpr import parse_program, print_program

doc = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
prims = primitive_table(doc["envTag"])
corpus = {e["key"]: parse_program(e["program"], prims) for e in doc["programs"]}
grammar = refit(uniform_grammar(prims), list(corpus.values()))
result = compress(corpus, grammar, library=(), max_arity=3)
out = Path(sys.argv[2])
save_library(result.library, out / "library.json")
(out / "library-report.txt").write_text(library_report(result.library) + "\\n")
(out / "rewritten.txt").write_text(
    "".join(f"{key} {print_program(t)}\\n" for key, t in result.rewritten.items())
)
(out / "dl.txt").write_text(f"{result.dl_before!r} {result.dl_after!r}\\n")
(out / "candidates.json").write_text(json.dumps(result.candidate_counts) + "\\n")
"""
# a call of a learned abstraction (f0, f1, ...) in a program's text
_LIBRARY_CALL = re.compile(r"[( ]f\d+[ )]")


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


def gridsynth(src: Path, args: list[str], out: Path) -> str:
    """Run the CLI with `src` on the path; its stdout, `out` masked as RUN."""
    env = dict(os.environ, PYTHONPATH=str(src))
    cmd = [sys.executable, "-m", "gridsynth", *args]
    proc = subprocess.run(cmd, env=env, cwd=out.parent, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"gridsynth {' '.join(args)} failed with {src}:\n{proc.stderr}")
    return proc.stdout.replace(str(out), "RUN")


def explained_task(out: Path) -> str | None:
    """The task `run` explains: the first solved task of the last iteration
    that solved one, preferring a program that calls a library function."""
    iters = sorted(out.glob("iter-*"), key=lambda p: int(p.name.split("-")[1]))
    for it in reversed(iters):
        solved = json.loads((it / "solved.json").read_text())["solved"]
        if solved:
            calls = [e for e in solved if _LIBRARY_CALL.search(e["programs"][0])]
            return (calls or solved)[0]["taskId"]
    return None


def run(flags: list[str], src: Path, out: Path) -> None:
    """One pinned run, then its library report and one explanation bundle."""
    out.parent.mkdir(parents=True, exist_ok=True)
    stdout = gridsynth(src, ["run", *flags, "--out", str(out)], out)
    (out / "stdout.txt").write_text(stdout)
    (out / "library-stdout.txt").write_text(gridsynth(src, ["library", str(out)], out))
    task = explained_task(out)
    if task is not None:
        stdout = gridsynth(src, ["explain", str(out), "--task", task], out)
        (out / "explain-stdout.txt").write_text(stdout)


def compress_corpus(src: Path, out: Path) -> None:
    """The compress-corpus check: compress CORPUS with `src`, into `out`."""
    out.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(src))
    cmd = [sys.executable, "-c", COMPRESS, str(CORPUS), str(out)]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"compress-corpus failed with {src}:\n{proc.stderr}")


def collect_prompts(env: str, src: Path, out: Path) -> None:
    """The collect-prompts check: collect oracle rollouts of `env` with
    `src`, then export their prompts, into `out`."""
    out.mkdir(parents=True)
    rollouts, prompts = out / "oracle.json", out / "prompts.txt"
    stdout = gridsynth(src, ["collect", "--env", env, "--count", "3", "--seed", "5", "--out", str(rollouts)], out)
    stdout += gridsynth(src, ["export-prompts", "--rollouts", str(rollouts), "--L", "3", "--out", str(prompts)], out)
    (out / "stdout.txt").write_text(stdout)


def violations(out: Path) -> int:
    """The dream recovery violations of a run, summed over its iterations;
    0 for a check that writes no run.json."""
    path = out / "run.json"
    if not path.exists():
        return 0
    return sum(h["dreamRecovery"]["violations"] for h in json.loads(path.read_text())["history"])


# name -> one callable per run, called with a `src/` and an output directory
CHECKS = {name: [functools.partial(run, flags) for flags in runs] for name, runs in CONFIGS.items()}
CHECKS["compress-corpus"] = [compress_corpus]
CHECKS["collect-prompts"] = [functools.partial(collect_prompts, env) for env in ("maze", "asterix", "spaceinvaders")]


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
    parser.add_argument("--only", action="append", choices=sorted(CHECKS), help="run only these configurations")
    args = parser.parse_args(argv)
    failed = False
    with tempfile.TemporaryDirectory(prefix="same-outputs-") as tmp:
        tmp = Path(tmp)
        sides = {"base": export(args.base, tmp / "base-tree"), "work": ROOT / "src"}
        for name in args.only or CHECKS:
            same, bad, violated = 0, [], 0
            for i, check in enumerate(CHECKS[name]):
                outs = {side: tmp / side / f"{name}-{i}" for side in sides}
                for side, src in sides.items():
                    check(src, outs[side])
                n, diff = compare(outs["base"], outs["work"])
                same += n
                bad += [f"{name}-{i}/{rel}" for rel in diff]
                violated += violations(outs["work"])
            print(
                f"{name}: {same} identical, {len(bad)} differ, {violated} recovery violations"
                f" ({len(CHECKS[name])} runs, run.json skipped)"
            )
            for rel in bad:
                print(f"  differs: {rel}")
            failed |= bool(bad) or violated > 0
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
