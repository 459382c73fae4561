"""Per-layer probes: which gridsynth functions the traced run times, and the
per-layer metrics computed from them.

Times are inclusive: `kernel.check_trajectory_s` is also inside
`search.solve_task_s`. `search.self_s` is `solve_task` minus its timed
callees, which leaves enumeration and bookkeeping. `kernel.execute_*` counts
direct calls (ProgramRunner in the dream stage), not the executions inside
`check_trajectory`. `curriculum.self_s` is the traced `run_s` minus the five
stage spans: the initial oracle collection, persistence and bookkeeping.
"""
from __future__ import annotations

import statistics
from dataclasses import dataclass, field

from checks import stopped_on_timeout
from gridsynth.data import ProgramRunner
from gridsynth.envs import AsterixEnv, MazeEnv, SpaceInvadersEnv
from tracing import Tracer

STAGES = ("dream", "refit", "solve", "compress", "eval")

# name -> (unit, better); the order is the order of BENCHMARK.json.
PER_LAYER = {
    "curriculum.dream_s": ("s", "lower"),
    "curriculum.refit_s": ("s", "lower"),
    "curriculum.solve_s": ("s", "lower"),
    "curriculum.compress_s": ("s", "lower"),
    "curriculum.eval_s": ("s", "lower"),
    "curriculum.self_s": ("s", "lower"),
    "data.dream_rollouts": ("count", "lower"),
    "data.dream_steps": ("count", "lower"),
    "data.runner_s": ("s", "lower"),
    "data.runner_calls": ("count", "lower"),
    "data.oracle_s": ("s", "lower"),
    "grammar.sample_program_s": ("s", "lower"),
    "grammar.sample_program_calls": ("count", "lower"),
    "grammar.sampled_nodes_p90": ("nodes", "lower"),
    "grammar.tables_for_s": ("s", "lower"),
    "grammar.tables_for_calls": ("count", "lower"),
    "grammar.description_length_s": ("s", "lower"),
    "grammar.description_length_calls": ("count", "lower"),
    "envs.step_s": ("s", "lower"),
    "envs.steps": ("count", "lower"),
    "envs.reset_s": ("s", "lower"),
    "search.solve_task_s": ("s", "lower"),
    "search.tasks": ("count", "higher"),
    "search.candidates": ("count", "lower"),
    "search.candidates_per_s": ("1/s", "higher"),
    "search.hits": ("count", "higher"),
    "search.hit_rate": ("ratio", "higher"),
    "search.self_s": ("s", "lower"),
    "search.timeout_stops": ("count", "lower"),
    "lang.inline_s": ("s", "lower"),
    "lang.inline_calls": ("count", "lower"),
    "kernel.compile_term_s": ("s", "lower"),
    "kernel.compile_term_calls": ("count", "lower"),
    "kernel.check_trajectory_s": ("s", "lower"),
    "kernel.check_trajectory_calls": ("count", "lower"),
    "kernel.states_checked": ("count", "lower"),
    "kernel.execute_s": ("s", "lower"),
    "kernel.execute_calls": ("count", "lower"),
    "interp.exec_program_s": ("s", "lower"),
    "interp.exec_program_calls": ("count", "lower"),
    "library.compress_s": ("s", "lower"),
    "library.rewrite_s": ("s", "lower"),
    "library.rewrite_calls": ("count", "lower"),
    "library.candidates_scored": ("count", "lower"),
    "library.abstractions": ("count", "higher"),
    "sexpr.print_program_s": ("s", "lower"),
    "sexpr.print_program_calls": ("count", "lower"),
    "trace.run_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


@dataclass
class Counts:
    """Counts read off results at the layer boundaries."""

    dream_rollouts: int = 0
    dream_steps: int = 0
    sampled_nodes: list = field(default_factory=list)
    candidates: int = 0
    hits: int = 0
    timeout_stops: int = 0
    states_checked: int = 0
    abstractions: int = 0


def _nodes(term) -> int:
    n, todo = 0, [term]
    while todo:
        t = todo.pop()
        n += 1
        todo.extend(getattr(t, name) for name in ("fn", "arg", "body") if hasattr(t, name))
    return n


def _p90(values) -> float:
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def install(tracer: Tracer) -> Counts:
    """Wrap every probed function; layer probes before the stage spans."""
    counts = Counts()

    def dreams(args, kwargs, result):
        counts.dream_rollouts += len(result)
        counts.dream_steps += sum(len(t.steps) for t in result)

    def sampled(args, kwargs, result):
        counts.sampled_nodes.append(_nodes(result))

    def solved(args, kwargs, result):
        counts.candidates += result.candidates_tried
        counts.hits += len(result.programs)
        counts.timeout_stops += stopped_on_timeout(result, args[2])

    def checked(args, kwargs, result):
        n = len(args[3])
        counts.states_checked += result + 1 if result < n else n

    def compressed(args, kwargs, result):
        counts.abstractions += len(result.new_abstractions)

    backends = ("gridsynth.kernel.pykernel", "gridsynth.kernel._ckernel")
    t = tracer
    t.function("gridsynth.data", "collect_oracle_rollouts", "data.oracle")
    t.function("gridsynth.grammar", "sample_program", "grammar.sample_program", sampled)
    t.function("gridsynth.grammar", "tables_for", "grammar.tables_for")
    t.function("gridsynth.grammar", "description_length", "grammar.description_length")
    t.function("gridsynth.grammar", "add_abstractions", "library.candidates_scored")
    t.function("gridsynth.search", "solve_task", "search.solve_task", solved)
    t.function("gridsynth.lang", "inline", "lang.inline")
    t.function("gridsynth.kernel", "compile_term", "kernel.compile_term")
    t.function("gridsynth.kernel", "check_trajectory", "kernel.check_trajectory", checked)
    t.function("gridsynth.kernel", "execute", "kernel.execute", skip=backends)
    t.function("gridsynth.interp", "exec_program", "interp.exec_program")
    t.function("gridsynth.library", "compress", "library.compress", compressed)
    t.function("gridsynth.library", "rewrite", "library.rewrite")
    t.function("gridsynth.sexpr", "print_program", "sexpr.print_program")
    t.method(ProgramRunner, "run", "data.runner")
    for cls in (MazeEnv, AsterixEnv, SpaceInvadersEnv):
        t.method(cls, "step", "envs.step")
        t.method(cls, "reset", "envs.reset")
    t.function("gridsynth.curriculum", "collect_program_rollouts", "curriculum.dream", dreams, only=True)
    t.function("gridsynth.curriculum", "refit", "curriculum.refit", only=True)
    t.function("gridsynth.curriculum", "solve_many", "curriculum.solve", only=True)
    t.function("gridsynth.curriculum", "compress", "curriculum.compress", only=True)
    t.function("gridsynth.curriculum", "eval_run", "curriculum.eval", only=True)
    return counts


def metrics(tracer: Tracer, counts: Counts, run_s: float) -> dict:
    """Every per-layer metric but `trace.overhead_s`, which needs the
    untraced round that run.py makes in another process."""
    t = tracer
    stage_s = {f"curriculum.{s}_s": t.seconds(f"curriculum.{s}") for s in STAGES}
    solve_s = t.seconds("search.solve_task")
    probe = t.probes.get("search.solve_task")
    values = dict(stage_s)
    values.update(
        {
            "curriculum.self_s": run_s - sum(stage_s.values()),
            "data.dream_rollouts": counts.dream_rollouts,
            "data.dream_steps": counts.dream_steps,
            "data.runner_s": t.seconds("data.runner"),
            "data.runner_calls": t.calls("data.runner"),
            "data.oracle_s": t.seconds("data.oracle"),
            "grammar.sample_program_s": t.seconds("grammar.sample_program"),
            "grammar.sample_program_calls": t.calls("grammar.sample_program"),
            "grammar.sampled_nodes_p90": _p90(counts.sampled_nodes),
            "grammar.tables_for_s": t.seconds("grammar.tables_for"),
            "grammar.tables_for_calls": t.calls("grammar.tables_for"),
            "grammar.description_length_s": t.seconds("grammar.description_length"),
            "grammar.description_length_calls": t.calls("grammar.description_length"),
            "envs.step_s": t.seconds("envs.step"),
            "envs.steps": t.calls("envs.step"),
            "envs.reset_s": t.seconds("envs.reset"),
            "search.solve_task_s": solve_s,
            "search.tasks": t.calls("search.solve_task"),
            "search.candidates": counts.candidates,
            "search.candidates_per_s": counts.candidates / solve_s if solve_s else 0.0,
            "search.hits": counts.hits,
            "search.hit_rate": counts.hits / counts.candidates if counts.candidates else 0.0,
            "search.self_s": probe.self_time if probe else 0.0,
            "search.timeout_stops": counts.timeout_stops,
            "lang.inline_s": t.seconds("lang.inline"),
            "lang.inline_calls": t.calls("lang.inline"),
            "kernel.compile_term_s": t.seconds("kernel.compile_term"),
            "kernel.compile_term_calls": t.calls("kernel.compile_term"),
            "kernel.check_trajectory_s": t.seconds("kernel.check_trajectory"),
            "kernel.check_trajectory_calls": t.calls("kernel.check_trajectory"),
            "kernel.states_checked": counts.states_checked,
            "kernel.execute_s": t.seconds("kernel.execute"),
            "kernel.execute_calls": t.calls("kernel.execute"),
            "interp.exec_program_s": t.seconds("interp.exec_program"),
            "interp.exec_program_calls": t.calls("interp.exec_program"),
            "library.compress_s": t.seconds("library.compress"),
            "library.rewrite_s": t.seconds("library.rewrite"),
            "library.rewrite_calls": t.calls("library.rewrite"),
            "library.candidates_scored": t.calls("library.candidates_scored"),
            "library.abstractions": counts.abstractions,
            "sexpr.print_program_s": t.seconds("sexpr.print_program"),
            "sexpr.print_program_calls": t.calls("sexpr.print_program"),
            "trace.run_s": run_s,
        }
    )
    return {name: {"value": v, "unit": PER_LAYER[name][0]} for name, v in values.items()}
