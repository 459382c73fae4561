"""Curriculum driver: iterate sample / refit / solve / compress over growing L.

Each iteration runs five stages in order, persisting every stage's artifact
before the next begins:

  1. dream: sample programs from the current grammar and roll them out
  2. refit the grammar on the accumulated solved programs
  3. solve the oracle's and the dreams' windows at the current window length L
  4. compress the accumulated solved programs into the library
  5. emit the iteration report

Only the oracle's windows feed solved.json and the rest of the loop. The
dreams' windows check the search: a dream's own program imitates each of
them, so once the scan has checked that far it must list that program
among the window's hits (`dream_recovery`).

The solved programs accumulate in one table, key "L<L>:<taskId>" ->
program, in sorted key order ("L10:" before "L3:"), which compress's
tie-breaks follow. Each iteration hands compress a new table of the last
one and the solve stage's first programs, and compress's rewritten table
replaces it; no table is changed once compress has got or returned it.

The run directory holds run.json (config echo and history), eval.csv,
oracle.json (the oracle rollouts, written once) and one subdirectory per
iteration, whose taskset.json names its windows by L and oracle.json
(`data.task_set_ref`). solved.json, library.json and eval.csv contain no
wall-clock times, so reruns with identical seeds are byte-identical.
run.json names the package version that ran and the seconds spent
collecting and writing the oracle (oracleSec) and in eval (evalSec, null until
eval has run). Each history entry in run.json records the seconds spent in
the dream, refit, solve and compress stages (stageSec), how many oracle
searches stopped for each reason (stopReasons) and on their timeout
(timeoutStops), how many candidates the solve stage's scan enumerated and
checked (candidatesCompiled) and the dream recovery counts (dreamRecovery).
compressCandidates counts the greedy steps of the compress stage, the
patterns its candidate search bounded and the candidates it priced exactly.
A timeout stop depends on machine speed, so a nonzero count means the
artifacts may differ on another machine.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass
from pathlib import Path

from gridsynth import __version__
from gridsynth.data import (
    RolloutParams,
    TaskSet,
    check_schema,
    collect_oracle_rollouts,
    checked_program,
    collect_program_rollouts,
    default_params,
    imitated,
    save_rollouts,
    slice_tasks,
    task_set_ref,
)
from gridsynth.errors import GridSynthError
from gridsynth.grammar import refit, save_grammar, tables_for, term_dl, uniform_grammar
from gridsynth.lang import Term
from gridsynth.library import compress, load_library, save_library
from gridsynth.primitives import primitive_table
from gridsynth.search import STOP_REASONS, SearchBudget, solve_many
from gridsynth.sexpr import print_program

SOLVED_SCHEMA = "gridsynth-solved-v1"
CORPUS_SCHEMA = "gridsynth-corpus-v1"
REPORT_SCHEMA = "gridsynth-report-v1"
RUN_SCHEMA = "gridsynth-run-v2"
EVAL_HEADER = "L,accuracy,n_tasks"

ADVANCE_RATE = 0.10
MAX_FAILS = 2
DL_TOL = 1e-9  # DLs summed in another order differ by less

# report.json fields that run.json's history entries leave out
_NOT_IN_HISTORY = ("schema", "corpusSampled", "rewritten")

_ORACLE_SEED = 11
_EVAL_SEED = 777
_CORPUS_SEED = 1000


@dataclass(frozen=True)
class CurriculumState:
    """Where the curriculum stands before the next iteration."""

    L: int = 3
    fails: int = 0
    iteration: int = 0
    stopped: bool = False


def advance(state: CurriculumState, solve_rate: float) -> CurriculumState:
    """Raise L when at least 10% of tasks were solved; stop after two
    consecutive failures to raise.  L grows by at most one per call."""
    nxt = state.iteration + 1
    if solve_rate >= ADVANCE_RATE:
        return CurriculumState(L=state.L + 1, fails=0, iteration=nxt)
    fails = state.fails + 1
    return CurriculumState(
        L=state.L, fails=fails, iteration=nxt, stopped=fails >= MAX_FAILS
    )


@dataclass(frozen=True)
class RunConfig:
    """Knobs for one curriculum run; echoed verbatim into run.json."""

    env_tag: str
    t_min: int
    t_max: int
    d_max: int
    programs_per_task: int | None  # None: searches have no candidate cap
    search_timeout_sec: float
    top_k: int
    corpus_size: int
    oracle_episodes: int
    eval_episodes: int
    max_iterations: int
    l_start: int
    seed: int
    out_dir: str

    def __post_init__(self):
        for name in ("top_k", "max_iterations", "oracle_episodes", "eval_episodes",
                     "l_start", "t_min"):
            if getattr(self, name) < 1:
                raise GridSynthError(f"{name} must be at least 1, got {getattr(self, name)}")
        if self.programs_per_task is not None and self.programs_per_task < 1:
            raise GridSynthError(
                f"programs_per_task must be at least 1 or None, got {self.programs_per_task}"
            )
        if self.t_min > self.t_max:
            raise GridSynthError(f"t_min {self.t_min} exceeds t_max {self.t_max}")
        if self.corpus_size < 0:
            raise GridSynthError(f"corpus_size must be at least 0, got {self.corpus_size}")
        if not self.search_timeout_sec > 0:
            raise GridSynthError(
                f"search_timeout_sec must be positive, got {self.search_timeout_sec}"
            )
        prims = primitive_table(self.env_tag)
        tables = tables_for(uniform_grammar(prims), prims.request)
        least = len(tables.binders) + tables.min_depth[tables.body_request]
        if self.d_max < least:
            raise GridSynthError(
                f"d_max {self.d_max} is below {least}, the depth of the smallest"
                f" {self.env_tag} program"
            )


# Episode lengths default to the env's rollout bounds (`default_params`).
_ENV_DEFAULTS = {
    "maze": dict(d_max=6, programs_per_task=100),
    "asterix": dict(d_max=20, programs_per_task=500),
    "spaceinvaders": dict(d_max=20, programs_per_task=500),
}

_PROFILES = {
    "desk": dict(
        search_timeout_sec=30.0,
        oracle_episodes=12,
        eval_episodes=6,
        max_iterations=12,
    ),
    "paper": dict(
        search_timeout_sec=720.0,
        oracle_episodes=100,
        eval_episodes=25,
        max_iterations=40,
    ),
}


def default_config(
    env_tag: str,
    profile: str = "desk",
    out_dir: str = "runs/run",
    seed: int = 0,
    jobs: int = 1,
    **overrides,
) -> RunConfig:
    if env_tag not in _ENV_DEFAULTS:
        raise GridSynthError(f"unknown env tag {env_tag!r}")
    if profile not in _PROFILES:
        raise GridSynthError(f"unknown profile {profile!r} (desk, paper)")
    if jobs != 1:  # a run is one process; the keyword stays for callers that pass 1
        raise GridSynthError(f"jobs must be 1, got {jobs}")
    params = default_params(env_tag)
    fields = dict(
        env_tag=env_tag,
        t_min=params.t_min,
        t_max=params.t_max,
        top_k=5,
        corpus_size=100,  # dream recovery reads every dream
        l_start=3,
        seed=seed,
        out_dir=out_dir,
    )
    fields.update(_ENV_DEFAULTS[env_tag])
    fields.update(_PROFILES[profile])
    fields.update(overrides)
    return RunConfig(**fields)


def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _solved_doc(env_tag: str, L: int, tasks: TaskSet, results) -> dict:
    entries = []
    for task in tasks.tasks:
        res = results[task.task_id]
        if not res.programs:
            continue
        entries.append(
            {
                "taskId": task.task_id,
                "programs": list(res.texts),
                "dlNats": list(res.dl_nats),
                "candidatesTried": res.candidates_tried,
                "wallTimeSec": None,
            }
        )
    return {"schema": SOLVED_SCHEMA, "envTag": env_tag, "L": L, "solved": entries}


def _acc_key(L: int, task_id: str) -> str:
    return f"L{L}:{task_id}"


def dream_windows(dreams, L: int) -> list:
    """(window, dream) for each length-L window of the dreams."""
    return [(w, t) for t in dreams if len(t.steps) >= L for w in slice_tasks([t], L).tasks]


def dream_recovery(grammar, windows, results) -> dict:
    """Count the dream windows (`dream_windows`) that a solve stage's
    `results` recovered.

    A dream's program p (`Trajectory.program`) imitates each of its
    windows. A window is recovered when p is among its hits. The stream
    yields candidates in non-decreasing DL, so if p's DL d under the search
    grammar is below D, the DL of the last candidate checked against the
    window (its last hit on a top-k stop, else the scan's last, inf when the
    stream ran out), the scan checked p there before it stopped: the window
    is within the cap, and must be recovered. A window within the cap that
    is not recovered is a violation of the enumerator, the DL or the batch
    check.
    """
    tables = tables_for(grammar, grammar.request)
    price: dict[str, float] = {}  # program text -> d, each priced once
    counts = dict.fromkeys(("windows", "withinCap", "recovered", "violations"), 0)
    for window, dream in windows:
        text = dream.provenance
        if text not in price:
            price[text] = term_dl(tables, dream.program)
        d = price[text]
        r = results[window.task_id]
        cap = r.dl_nats[-1] if r.stop_reason == "top-k" else results.last_dl
        within = d < cap - DL_TOL
        recovered = text in r.texts
        counts["windows"] += 1
        counts["withinCap"] += within
        counts["recovered"] += recovered
        counts["violations"] += within and not recovered
    return counts


def run_curriculum(config: RunConfig) -> dict:
    """Execute the curriculum; returns the run.json document."""
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    prims = primitive_table(config.env_tag)
    params = RolloutParams(
        t_min=config.t_min,
        t_max=config.t_max,
        warmup_max=default_params(config.env_tag).warmup_max,
    )
    grammar = uniform_grammar(prims)
    library: tuple = ()
    t0 = time.monotonic()
    oracle = collect_oracle_rollouts(
        config.env_tag, config.oracle_episodes, seed=config.seed + _ORACLE_SEED
    )
    save_rollouts(oracle, out / "oracle.json")
    timing = {"oracleSec": time.monotonic() - t0, "evalSec": None}
    state = CurriculumState(L=config.l_start)
    accumulated: dict[str, Term] = {}  # key -> solved program, in key order
    history: list[dict] = []
    stop_reason = "max-iterations"
    budget = SearchBudget(
        timeout_sec=config.search_timeout_sec,
        top_k=config.top_k,
        max_candidates=config.programs_per_task,
    )

    while state.iteration < config.max_iterations:
        k = state.iteration
        t0 = time.monotonic()
        stage_sec: dict[str, float] = {}
        iter_dir = out / f"iter-{k}"
        iter_dir.mkdir(exist_ok=True)

        # Stage 1: dreams from the current grammar, which stage 3 reads.
        corpus = collect_program_rollouts(
            grammar,
            config.env_tag,
            config.corpus_size,
            params,
            seed=config.seed + _CORPUS_SEED + k,
            d_max=config.d_max,
            library=library,
        )
        _write_json(
            iter_dir / "corpus.json",
            {
                "schema": CORPUS_SCHEMA,
                "envTag": config.env_tag,
                "count": len(corpus),
                "programs": [t.provenance for t in corpus],
                "lengths": [len(t.steps) for t in corpus],
            },
        )
        t1 = time.monotonic()
        stage_sec["dream"] = t1 - t0

        # Stage 2: refit on everything solved so far (uniform when empty).
        grammar = refit(grammar, accumulated.values())
        save_grammar(grammar, iter_dir / "grammar.json")
        t2 = time.monotonic()
        stage_sec["refit"] = t2 - t1

        # Stage 3: solve the oracle's windows at the current L, and in the
        # same scan the dreams', which check the search.
        tasks = slice_tasks(oracle, state.L)
        dreams = dream_windows(corpus, state.L)
        results = solve_many(
            grammar,
            tasks.tasks + tuple(w for w, _ in dreams),
            budget,
            library=library,
            max_depth=config.d_max,
        )
        recovery = dream_recovery(grammar, dreams, results)
        _write_json(iter_dir / "solved.json", _solved_doc(config.env_tag, state.L, tasks, results))
        _write_json(iter_dir / "taskset.json", task_set_ref(config.env_tag, state.L, "../oracle.json"))
        found = [results[t.task_id] for t in tasks.tasks]
        new = {_acc_key(state.L, r.task_id): r.programs[0] for r in found if r.programs}
        n_solved = len(new)
        rate = n_solved / tasks.n if tasks.n else 0.0
        stop_reasons = {reason: 0 for reason in STOP_REASONS}
        for r in found:
            stop_reasons[r.stop_reason] += 1
        t3 = time.monotonic()
        stage_sec["solve"] = t3 - t2

        # Stage 4: compress the accumulated corpus into the library.
        res = compress(
            dict(sorted({**accumulated, **new}.items())),
            grammar,
            library=library,
            max_arity=3,
        )
        grammar, library, accumulated = res.grammar, res.library, res.rewritten
        save_library(library, iter_dir / "library.json")
        stage_sec["compress"] = time.monotonic() - t3

        # Stage 5: report, printing each distinct program once.
        texts = {term: print_program(term) for term in set(accumulated.values())}
        report = {
            "schema": REPORT_SCHEMA,
            "iteration": k,
            "L": state.L,
            "nTasks": tasks.n,
            "nSolved": n_solved,
            "solveRate": rate,
            "corpusSampled": len(corpus),
            "dlBefore": res.dl_before,
            "dlAfter": res.dl_after,
            "newAbstractions": [a.name for a in res.new_abstractions],
            "librarySize": len(library),
            "rewritten": [
                {"key": key, "taskId": key.partition(":")[2], "program": texts[term]}
                for key, term in accumulated.items()
            ],
        }
        _write_json(iter_dir / "report.json", report)

        nxt = advance(state, rate)
        history.append(
            {
                **{key: value for key, value in report.items() if key not in _NOT_IN_HISTORY},
                "advanced": nxt.L > state.L,
                "timeoutStops": stop_reasons["timeout"],
                "stopReasons": stop_reasons,
                "candidatesCompiled": results.candidates_compiled,
                "compressCandidates": res.candidate_counts,
                "dreamRecovery": recovery,
                "stageSec": stage_sec,
                "wallTimeSec": time.monotonic() - t0,
            }
        )
        state = nxt
        _write_run_json(out, config, history, state, "running", timing)
        if state.stopped:
            stop_reason = "two-fails"
            break

    _write_run_json(out, config, history, state, stop_reason, timing)
    t0 = time.monotonic()
    eval_run(out, seed=config.seed + _EVAL_SEED, episodes=config.eval_episodes)
    timing["evalSec"] = time.monotonic() - t0
    return _write_run_json(out, config, history, state, stop_reason, timing)


def _write_run_json(out: Path, config, history, state, stop_reason, timing) -> dict:
    doc = {
        "schema": RUN_SCHEMA,
        "version": __version__,
        "config": asdict(config),
        "history": history,
        "finalL": state.L,
        "stopped": state.stopped,
        "stopReason": stop_reason,
        **timing,
    }
    _write_json(out / "run.json", doc)
    return doc


def load_run(run_dir: Path) -> dict:
    """The run's run.json; GridSynthError with one line unless its history
    is a list of entries that each hold an integer `iteration` and `L`."""
    path = run_dir / "run.json"
    if not path.exists():
        raise GridSynthError(f"no run.json under {run_dir}")
    doc = json.loads(path.read_text())
    check_schema(doc, RUN_SCHEMA, "run")
    history = doc.get("history")
    if not isinstance(history, list):
        raise GridSynthError("run document has no 'history' list")
    for i, h in enumerate(history):
        if not (isinstance(h, dict) and type(h.get("iteration")) is int and type(h.get("L")) is int):
            raise GridSynthError(f"run history entry {i} has no integer 'iteration' and 'L'")
    return doc


def final_iteration_dir(run_dir: Path, doc: dict) -> Path:
    """The last completed iteration's directory; `doc` is `load_run(run_dir)`."""
    if not doc["history"]:
        raise GridSynthError("run has no completed iterations")
    return run_dir / f"iter-{doc['history'][-1]['iteration']}"


def eval_run(run_dir, seed: int | None = None, episodes: int | None = None) -> Path:
    """Score the run's solved programs on freshly seeded oracle data.

    One row per curriculum L: the fraction of fresh length-L windows imitated
    by at least one program from the final rewritten corpus; each program is
    checked once per L over all of that L's windows.  Writes eval.csv into
    the run directory and returns its path.
    """
    run_dir = Path(run_dir)
    doc = load_run(run_dir)
    config = doc["config"]
    if seed is None:
        seed = config["seed"] + _EVAL_SEED
    if episodes is None:
        episodes = config["eval_episodes"]
    last = final_iteration_dir(run_dir, doc)
    prims = primitive_table(config["env_tag"])
    library = load_library(last / "library.json", prims)
    report = json.loads((last / "report.json").read_text())
    check_schema(report, REPORT_SCHEMA, "report")
    try:
        texts = sorted({entry["program"] for entry in report["rewritten"]})
    except KeyError as exc:
        raise GridSynthError(f"report document has no {exc} field") from exc
    except TypeError as exc:
        raise GridSynthError(f"malformed report document: {exc}") from exc
    terms = [checked_program(text, prims, library) for text in texts]
    fresh = collect_oracle_rollouts(config["env_tag"], episodes, seed=seed)
    lengths = sorted({entry["L"] for entry in doc["history"]})
    lines = [EVAL_HEADER]
    for L in lengths:
        tasks = slice_tasks(fresh, L)
        hits = sum(imitated(terms, tasks.tasks, prims))
        acc = hits / tasks.n if tasks.n else 0.0
        lines.append(f"{L},{acc:.6f},{tasks.n}")
    path = run_dir / "eval.csv"
    path.write_text("\n".join(lines) + "\n")
    return path
