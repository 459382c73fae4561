"""Make the compress-corpus input anew from a pinned MinAtar curriculum run.

    python3 perfbench/make_corpus.py [--out perfbench/data/asterix-corpus.json]

The run is `gridsynth run --env asterix --profile desk --seed 7
--corpus-size 0 --max-iterations 4 --jobs 1`. Every task it solved
contributes its best program, expanded to base primitives with the library it
was found under, keyed `L<L>:<task id>` the way the curriculum keys its
accumulated corpus. The task's recorded window is stored beside the program
(grids as row-major digit strings) so that the benchmark can check that the
compressed corpus still imitates every task.
"""
from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from gridsynth.curriculum import default_config, run_curriculum  # noqa: E402
from gridsynth.data import load_task_set  # noqa: E402
from gridsynth.library import definitions, expand, load_library  # noqa: E402
from gridsynth.primitives import primitive_table  # noqa: E402
from gridsynth.sexpr import parse_program, print_program  # noqa: E402

SCHEMA = "perfbench-corpus-v1"
SOURCE = dict(env_tag="asterix", profile="desk", seed=7, corpus_size=0, max_iterations=4)
DEFAULT_OUT = HERE / "data" / "asterix-corpus.json"
WORK_DIR = ROOT / "perfbench_out" / "corpus-run"


def build_corpus(run_dir: Path) -> dict:
    run = json.loads((run_dir / "run.json").read_text())
    env_tag = run["config"]["env_tag"]
    prims = primitive_table(env_tag)
    entries = []
    library = []
    for h in run["history"]:
        it = run_dir / f"iter-{h['iteration']}"
        tasks = load_task_set(it / "taskset.json")
        solved = json.loads((it / "solved.json").read_text())
        defs = definitions(library)
        for entry in solved["solved"]:
            term = parse_program(entry["programs"][0], prims, extra=defs)
            task = tasks.by_id(entry["taskId"])
            entries.append(
                {
                    "key": f"L{h['L']}:{entry['taskId']}",
                    "program": print_program(expand(term, library)),
                    "steps": [
                        {"grid": state.digits(), "action": action}
                        for state, action in task.steps
                    ],
                }
            )
        library = load_library(it / "library.json", prims)
    entries.sort(key=lambda e: e["key"])
    return {"schema": SCHEMA, "envTag": env_tag, "source": SOURCE, "programs": entries}


def dump_corpus(doc: dict) -> str:
    """JSON with one program entry per line, so that diffs stay readable."""
    head = {k: v for k, v in doc.items() if k != "programs"}
    lines = [json.dumps(e, ensure_ascii=False) for e in doc["programs"]]
    return json.dumps(head, ensure_ascii=False)[:-1] + ', "programs": [\n' + ",\n".join(lines) + "\n]}\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = parser.parse_args(argv)
    shutil.rmtree(WORK_DIR, ignore_errors=True)
    cfg = dict(SOURCE)
    config = default_config(
        cfg.pop("env_tag"), profile=cfg.pop("profile"), out_dir=str(WORK_DIR), jobs=1, **cfg
    )
    run_curriculum(config)
    doc = build_corpus(WORK_DIR)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(dump_corpus(doc), encoding="utf-8")
    shutil.rmtree(WORK_DIR, ignore_errors=True)
    print(f"wrote {len(doc['programs'])} programs to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
