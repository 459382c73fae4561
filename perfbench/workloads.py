"""The three workloads: what each sets up, runs, captures and checks.

`maze-desk` and `minatar-search` are whole curriculum runs on pinned
configurations; `compress-corpus` is one `library.compress` call on the
committed corpus. The measured inputs are pinned because the end-to-end
figures (run time, tasks solved, DL saved) belong to a configuration; the
benchmark seed draws the inputs of the checks instead: which dreams are
replayed and which fresh states the differential checks run on.
"""
from __future__ import annotations

import json
import random
from pathlib import Path

import checks
from gridsynth import curriculum, library
from gridsynth.data import Task
from gridsynth.envs import env_spec
from gridsynth.grammar import refit, uniform_grammar
from gridsynth.primitives import primitive_table
from gridsynth.sexpr import parse_program
from gridsynth.state import GridState

HERE = Path(__file__).resolve().parent
CORPUS_FILE = HERE / "data" / "asterix-corpus.json"

DREAM_REPLAYS_PER_ITERATION = 100
FRESH_EPISODES = 2


class CurriculumWorkload:
    """A whole `gridsynth run` through every iteration to its stop."""

    def __init__(self, name: str, env_tag: str, **overrides):
        self.name = name
        self.env_tag = env_tag
        self.overrides = overrides

    def setup(self, seed: int) -> dict:
        return {"seed": seed, "prims": primitive_table(self.env_tag)}

    def capture(self, cap, inputs: dict) -> dict:
        """Hooks on once-per-iteration stage calls; keeps only what checks read."""
        kept = {"dreams": [], "searches": [], "compressions": [], "oracle": []}
        rng = random.Random(inputs["seed"])

        def dreams(args, kwargs, result):
            n = min(DREAM_REPLAYS_PER_ITERATION, len(result))
            picked = [checks.DreamRecord.of(result[i]) for i in sorted(rng.sample(range(len(result)), n))]
            kept["dreams"].append((args[3], kwargs.get("library", ()), picked))

        def searches(args, kwargs, result):
            kept["searches"].append((args[2], result))

        def compressions(args, kwargs, result):
            kept["compressions"].append(
                (dict(args[0]), args[1], tuple(kwargs.get("library", ())), result)
            )

        def oracle(args, kwargs, result):
            kept["oracle"].append(result)

        cap.hook("gridsynth.curriculum", "collect_program_rollouts", dreams)
        cap.hook("gridsynth.curriculum", "solve_many", searches)
        cap.hook("gridsynth.curriculum", "compress", compressions)
        cap.hook("gridsynth.curriculum", "collect_oracle_rollouts", oracle)
        return kept

    def run(self, inputs: dict, out_dir: Path):
        config = curriculum.default_config(
            self.env_tag,
            profile="desk",
            out_dir=str(out_dir),
            seed=7,
            jobs=1,
            **self.overrides,
        )
        return curriculum.run_curriculum(config)

    def summary(self, doc) -> dict:
        history = doc["history"]
        return {
            "tasks_solved": sum(h["nSolved"] for h in history),
            "dl_saved_nats": sum(h["dlBefore"] - h["dlAfter"] for h in history),
        }

    def check(self, doc, out_dir: Path, kept: dict, inputs: dict, tally) -> dict:
        prims = inputs["prims"]
        checks.check_run(out_dir, doc, kept, prims, tally)
        lib, programs = checks.final_corpus(out_dir, doc, prims)
        states = checks.fresh_states(self.env_tag, FRESH_EPISODES, inputs["seed"])
        checks.check_on_states(lib, dict(enumerate(programs)), states, prims, tally, "final corpus")
        return {}


class CompressWorkload:
    """`library.compress` from an empty library over the committed corpus."""

    name = "compress-corpus"

    def setup(self, seed: int) -> dict:
        doc = json.loads(CORPUS_FILE.read_text(encoding="utf-8"))
        env_tag = doc["envTag"]
        prims = primitive_table(env_tag)
        _, width = env_spec(env_tag).obs_shape
        corpus = {}
        tasks = {}
        for entry in doc["programs"]:
            corpus[entry["key"]] = parse_program(entry["program"], prims)
            steps = tuple(
                (GridState.from_flat([int(c) for c in s["grid"]], width), s["action"])
                for s in entry["steps"]
            )
            tasks[entry["key"]] = Task(entry["key"], env_tag, steps)
        grammar = refit(uniform_grammar(prims), list(corpus.values()))
        return {
            "seed": seed,
            "env_tag": env_tag,
            "prims": prims,
            "corpus": corpus,
            "tasks": tasks,
            "grammar": grammar,
        }

    def capture(self, cap, inputs: dict) -> dict:
        return {}

    def run(self, inputs: dict, out_dir: Path):
        return library.compress(inputs["corpus"], inputs["grammar"], library=(), max_arity=3)

    def summary(self, result) -> dict:
        return {"dl_saved_nats": result.dl_before - result.dl_after}

    def check(self, result, out_dir: Path, kept: dict, inputs: dict, tally) -> dict:
        """Besides the library checks, count the tasks the compressed corpus
        still imitates: that is this workload's `tasks_solved`."""
        prims = inputs["prims"]
        lib = list(result.library)
        checks.check_compression(inputs["corpus"], inputs["grammar"], (), result, prims, tally, "corpus")
        solved = sum(
            tally.item(
                f"corpus {key}: task imitated after compression",
                checks.imitates_expanded,
                term,
                lib,
                inputs["tasks"][key],
                prims,
            )
            for key, term in sorted(result.rewritten.items())
        )
        states = checks.fresh_states(inputs["env_tag"], FRESH_EPISODES, inputs["seed"])
        checks.check_on_states(lib, result.rewritten, states, prims, tally, "corpus")
        return {"tasks_solved": solved}


WORKLOADS = {
    "maze-desk": CurriculumWorkload("maze-desk", "maze"),
    "minatar-search": CurriculumWorkload(
        "minatar-search", "spaceinvaders", corpus_size=0, max_iterations=2
    ),
    "compress-corpus": CompressWorkload(),
}
