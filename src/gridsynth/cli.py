"""Command-line front end for collection, runs, evaluation, and inspection.

Exit codes: 0 success, 1 usage error, 2 runtime failure.  Config can come
from flags or an optional key=value file (--config); flags win.  All JSON
artifacts carry schema version strings; prompt exports are bare
one-trajectory-per-line text.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from gridsynth.curriculum import (
    SOLVED_SCHEMA,
    default_config,
    eval_run,
    final_iteration_dir,
    load_run,
    run_curriculum,
)
from gridsynth.data import (
    check_schema,
    collect_oracle_rollouts,
    export_prompts,
    load_rollouts,
    load_task_set,
    save_rollouts,
    slice_tasks,
)
from gridsynth.envs import ENV_TAGS, env_spec
from gridsynth.errors import GridSynthError
from gridsynth.explain import write_bundle
from gridsynth.library import definitions, library_report, load_library
from gridsynth.primitives import primitive_table
from gridsynth.sexpr import parse_program


class _Parser(argparse.ArgumentParser):
    """argparse's default usage exit code is 2; this artifact reserves 2 for
    runtime failures, so usage errors exit 1 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


class _ConfigError(GridSynthError):
    """A --config line, key or value that `run` does not accept: a usage
    error, like the same mistake given as a flag."""


def _usage(parser: argparse.ArgumentParser, message: str) -> int:
    parser.print_usage(sys.stderr)
    print(f"{parser.prog}: error: {message}", file=sys.stderr)
    return 1


# The settings of `run`, as flags (--t-min for t_min) and as --config keys,
# with their coercions.
_RUN_KEYS = {
    "env": str,
    "profile": str,
    "seed": int,
    "out": str,
    "t_min": int,
    "t_max": int,
    "d_max": int,
    "programs_per_task": int,
    "search_timeout_sec": float,
    "top_k": int,
    "corpus_size": int,
    "oracle_episodes": int,
    "eval_episodes": int,
    "max_iterations": int,
    "l_start": int,
}
_RUN_CHOICES = {"env": ENV_TAGS, "profile": ("desk", "paper")}


def parse_config_file(path) -> dict:
    """key=value lines; '#' starts a comment; keys use - or _ freely."""
    doc: dict[str, str] = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise GridSynthError(f"cannot read config file {path}: {exc}") from exc
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise _ConfigError(f"{path}:{ln}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        key = key.strip().replace("-", "_")
        if key not in _RUN_KEYS:
            raise _ConfigError(f"{path}:{ln}: unknown config key {key!r}")
        doc[key] = value.strip()
    return doc


def _merged_run_settings(args) -> dict:
    """The run's settings: flags win over --config values, which are cast
    and checked here as argparse checks the flags."""
    file_cfg = parse_config_file(args.config) if args.config else {}
    merged: dict = {}
    for key, cast in _RUN_KEYS.items():
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = flag
        elif key in file_cfg:
            try:
                merged[key] = cast(file_cfg[key])
            except ValueError as exc:
                raise _ConfigError(f"config key {key}: {exc}") from exc
            choices = _RUN_CHOICES.get(key)
            if choices and merged[key] not in choices:
                raise _ConfigError(
                    f"config key {key} must be one of {', '.join(choices)}, got {merged[key]!r}"
                )
    return merged


def _below_one(args, *names) -> str | None:
    """A usage message for the first of the named count flags set below 1."""
    for name in names:
        value = getattr(args, name)
        if value is not None and value < 1:
            return f"--{name.replace('_', '-')} must be at least 1, got {value}"
    return None


def _cmd_collect(args, parser) -> int:
    if args.env is None or args.out is None:
        return _usage(parser, "collect requires --env and --out")
    bad = _below_one(args, "count", "max_steps")
    if bad:
        return _usage(parser, bad)
    trajs = collect_oracle_rollouts(
        args.env, args.count, seed=args.seed, max_steps=args.max_steps
    )
    save_rollouts(trajs, args.out)
    steps = sum(len(t.steps) for t in trajs)
    print(f"wrote {len(trajs)} oracle trajectories ({steps} steps) to {args.out}")
    return 0


def _cmd_run(args, parser) -> int:
    try:
        settings = _merged_run_settings(args)
    except _ConfigError as exc:
        return _usage(parser, str(exc))
    env = settings.pop("env", None)
    if env is None:
        return _usage(parser, "run requires --env (flag or config file)")
    profile = settings.pop("profile", "desk")
    out = settings.pop("out", None)
    if out is None:
        return _usage(parser, "run requires --out (flag or config file)")
    seed = settings.pop("seed", 0)
    config = default_config(env, profile=profile, out_dir=out, seed=seed, **settings)
    doc = run_curriculum(config)
    for h in doc["history"]:
        print(
            f"iter {h['iteration']}: L={h['L']} solved {h['nSolved']}/{h['nTasks']}"
            f" ({h['solveRate']:.2f}) library={h['librarySize']}"
        )
    print(f"stopped: {doc['stopReason']}; final L {doc['finalL']}; run dir {out}")
    return 0


def _cmd_eval(args, parser) -> int:
    bad = _below_one(args, "episodes")
    if bad:
        return _usage(parser, bad)
    seed = None
    if args.seeds != "fresh":
        try:
            seed = int(args.seeds)
        except ValueError:
            return _usage(parser, f"--seeds takes 'fresh' or an integer, got {args.seeds!r}")
    path = eval_run(args.run_dir, seed=seed, episodes=args.episodes)
    sys.stdout.write(Path(path).read_text())
    return 0


def _cmd_library(args, parser) -> int:
    run_dir = Path(args.run_dir)
    run = load_run(run_dir)
    last = final_iteration_dir(run_dir, run)
    prims = primitive_table(run["config"]["env_tag"])
    library = load_library(last / "library.json", prims)
    report = library_report(library)
    if report:
        print(report)
    print(f"Number of extracted functions: {len(library)}")
    return 0


def _find_solved(run_dir: Path, task_id: str):
    """The directory of the last iteration in run.json's history that solved
    the task, and the task's first program there."""
    for h in reversed(load_run(run_dir)["history"]):
        it = run_dir / f"iter-{h['iteration']}"
        doc = json.loads((it / "solved.json").read_text())
        check_schema(doc, SOLVED_SCHEMA, "solved")
        try:
            for entry in doc["solved"]:
                if entry["taskId"] == task_id:
                    return it, entry["programs"][0]
        except KeyError as exc:
            raise GridSynthError(f"solved document has no {exc} field") from exc
        except (IndexError, TypeError) as exc:
            raise GridSynthError(f"malformed solved document: {exc}") from exc
    raise GridSynthError(f"task {task_id!r} was not solved in {run_dir}")


def _cmd_explain(args, parser) -> int:
    run_dir = Path(args.run_dir)
    it, text = _find_solved(run_dir, args.task)
    tasks = load_task_set(it / "taskset.json")
    task = tasks.by_id(args.task)
    prims = primitive_table(task.env_tag)
    library = load_library(it / "library.json", prims)
    program = parse_program(text, prims, extra=definitions(library))
    formats = ("ascii", "svg") if args.format == "both" else (args.format,)
    out = args.out or run_dir / "explain" / args.task.replace(":", "-")
    bundle_dir = write_bundle(out, program, task, library=library, formats=formats)
    print(f"wrote explanation bundle for {args.task} to {bundle_dir}")
    return 0


def _cmd_export_prompts(args, parser) -> int:
    if args.out is None:
        return _usage(parser, "export-prompts requires --out")
    bad = _below_one(args, "count", "L")
    if bad:
        return _usage(parser, bad)
    if args.rollouts:
        trajs = load_rollouts(args.rollouts)
    elif args.env is not None:
        trajs = collect_oracle_rollouts(args.env, args.count, seed=args.seed)
    else:
        return _usage(parser, "export-prompts needs --rollouts or --env")
    tasks = slice_tasks(trajs, args.L)
    export_prompts(tasks, args.out)
    print(f"wrote {tasks.n} prompts (L={args.L}) to {args.out}")
    return 0


def _cmd_envs(args, parser) -> int:
    for tag in ENV_TAGS:
        spec = env_spec(tag)
        h, w = spec.obs_shape
        codes = ", ".join(f"{code}={word}" for code, word in spec.codes)
        print(f"{tag}: obs {w}x{h}, request {spec.request}")
        print(f"  actions: {', '.join(spec.actions)}")
        print(f"  codes: {codes}")
    return 0


def build_parser() -> tuple[_Parser, dict]:
    parser = _Parser(prog="gridsynth", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    subs: dict[str, argparse.ArgumentParser] = {}

    p = sub.add_parser("collect", help="write oracle trajectories to a JSON file")
    p.add_argument("--env", choices=ENV_TAGS)
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-steps", type=int, default=200)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_collect)
    subs["collect"] = p

    p = sub.add_parser("run", help="execute the curriculum loop")
    for key, cast in _RUN_KEYS.items():
        flag = "--" + key.replace("_", "-")
        p.add_argument(flag, type=cast, dest=key, choices=_RUN_CHOICES.get(key))
    p.add_argument("--config", help="key=value file; flags win")
    p.set_defaults(func=_cmd_run)
    subs["run"] = p

    p = sub.add_parser("eval", help="accuracy per L on fresh-seed oracle data")
    p.add_argument("run_dir")
    p.add_argument("--seeds", default="fresh", help="'fresh' or an integer seed")
    p.add_argument("--episodes", type=int)
    p.set_defaults(func=_cmd_eval)
    subs["eval"] = p

    p = sub.add_parser("library", help="print the library report for a run")
    p.add_argument("run_dir")
    p.set_defaults(func=_cmd_library)
    subs["library"] = p

    p = sub.add_parser("explain", help="render an explanation bundle for a task")
    p.add_argument("run_dir")
    p.add_argument("--task", required=True)
    p.add_argument("--out")
    p.add_argument("--format", choices=("ascii", "svg", "both"), default="both")
    p.set_defaults(func=_cmd_explain)
    subs["explain"] = p

    p = sub.add_parser("export-prompts", help="emit text prompts, one per line")
    p.add_argument("--env", choices=ENV_TAGS)
    p.add_argument("--rollouts", help="existing rollouts JSON instead of fresh data")
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_export_prompts)
    subs["export-prompts"] = p

    p = sub.add_parser("envs", help="list environment specs")
    p.set_defaults(func=_cmd_envs)
    subs["envs"] = p

    return parser, subs


def main(argv=None) -> int:
    parser, subs = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args, subs[args.command])
    except (GridSynthError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: malformed JSON: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
