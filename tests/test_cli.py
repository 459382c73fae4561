"""CLI dispatch, exit codes, config merging, and subcommand smoke tests."""

import json
import shutil
from pathlib import Path

import pytest

import gridsynth.cli as cli
from gridsynth.cli import _RUN_KEYS, build_parser, main, parse_config_file
from gridsynth.errors import GridSynthError


def as_v1(doc):
    """A rollouts document as `gridsynth-rollouts-v1` wrote it: each grid a
    list of its cells. Edits `doc` in place."""
    doc["schema"] = "gridsynth-rollouts-v1"
    for rollout in doc["rollouts"]:
        for step in rollout["steps"]:
            step["grid"] = [int(c) for c in step["grid"]]


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "run"
    code = main(
        [
            "run",
            "--env", "maze",
            "--seed", "11",
            "--out", str(out),
            "--corpus-size", "8",
            "--oracle-episodes", "3",
            "--max-iterations", "2",
            "--eval-episodes", "2",
        ]
    )
    assert code == 0
    return out


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert main(["bogus"]) == 1
        assert "invalid choice" in capsys.readouterr().err

    def test_no_subcommand_is_usage_error(self):
        assert main([]) == 1

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "collect" in capsys.readouterr().out

    def test_run_without_env_is_usage_error(self, tmp_path, capsys):
        assert main(["run", "--out", str(tmp_path / "x")]) == 1
        assert "requires --env" in capsys.readouterr().err

    def test_run_settings_that_cannot_run_are_runtime_errors(self, tmp_path, capsys):
        out = tmp_path / "x"
        assert main(["run", "--env", "maze", "--out", str(out), "--t-min", "10", "--t-max", "5"]) == 2
        assert main(["run", "--env", "maze", "--out", str(out), "--top-k", "0"]) == 2
        assert "top_k must be at least 1" in capsys.readouterr().err
        assert main(["run", "--env", "maze", "--out", str(out), "--d-max", "1"]) == 2
        assert "d_max 1 is below 3" in capsys.readouterr().err
        assert not out.exists()

    def test_jobs_flag_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "x"
        assert main(["run", "--env", "maze", "--out", str(out), "--jobs", "2"]) == 1
        assert "--jobs" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("episodes", ["0", "-1"])
    def test_eval_of_no_episodes_is_usage_error_before_loading(
        self, tmp_path, capsys, monkeypatch, episodes
    ):
        def no_eval(*args, **kwargs):
            raise AssertionError("evaluated before checking the flags")

        monkeypatch.setattr(cli, "eval_run", no_eval)
        assert main(["eval", str(tmp_path / "nope"), "--episodes", episodes]) == 1
        assert f"--episodes must be at least 1, got {episodes}" in capsys.readouterr().err

    def test_missing_run_dir_is_runtime_error(self, tmp_path, capsys):
        assert main(["eval", str(tmp_path / "nope")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_seeds_value_is_usage_error(self, run_dir, capsys):
        assert main(["eval", str(run_dir), "--seeds", "soon"]) == 1
        capsys.readouterr()

    def test_explain_unknown_task_is_runtime_error(self, run_dir, capsys):
        assert main(["explain", str(run_dir), "--task", "oracle-9999:000"]) == 2
        assert "not solved" in capsys.readouterr().err

    @pytest.mark.parametrize("stray", ["iter-old", "iter-9.json"])
    def test_explain_reads_the_iterations_run_json_names(self, run_dir, tmp_path, capsys, stray):
        """A directory or file named like an iteration that run.json's
        history does not name is never read: a solved task is explained, and
        an unknown one is one line and exit 2."""
        run = tmp_path / "run"
        shutil.copytree(run_dir, run)
        if stray.endswith(".json"):
            (run / stray).write_text("{}")
        else:
            (run / stray).mkdir()
        task_id = json.loads((run / "iter-0" / "solved.json").read_text())["solved"][0]["taskId"]
        bundle = tmp_path / "bundle"
        assert main(["explain", str(run), "--task", task_id, "--out", str(bundle), "--format", "ascii"]) == 0
        assert (bundle / "manifest.json").exists()
        assert main(["explain", str(run), "--task", "oracle-9999:000"]) == 2
        err = capsys.readouterr().err
        assert err == f"error: task 'oracle-9999:000' was not solved in {run}\n"

    def test_explain_without_run_json_is_runtime_error(self, run_dir, tmp_path, capsys):
        run = tmp_path / "run"
        shutil.copytree(run_dir, run)
        (run / "run.json").unlink()
        task_id = json.loads((run / "iter-0" / "solved.json").read_text())["solved"][0]["taskId"]
        assert main(["explain", str(run), "--task", task_id]) == 2
        assert capsys.readouterr().err == f"error: no run.json under {run}\n"

    def test_v1_oracle_is_runtime_error(self, run_dir, tmp_path, capsys):
        """A run directory written before rollouts v2 is not read: explain
        loads its task's windows from oracle.json and stops there."""
        run = tmp_path / "run"
        shutil.copytree(run_dir, run)
        doc = json.loads((run / "oracle.json").read_text())
        as_v1(doc)
        (run / "oracle.json").write_text(json.dumps(doc, indent=2))
        task_id = json.loads((run / "iter-0" / "solved.json").read_text())["solved"][0]["taskId"]
        assert main(["explain", str(run), "--task", task_id]) == 2
        assert capsys.readouterr().err == "error: unexpected rollouts schema 'gridsynth-rollouts-v1'\n"

    @pytest.mark.parametrize("command", ["eval", "library", "explain"])
    @pytest.mark.parametrize(
        "fault, message",
        [
            (lambda h: [{}], "run history entry 0 has no integer 'iteration' and 'L'"),
            (lambda h: [*h[:-1], {k: v for k, v in h[-1].items() if k != "L"}],
             "run history entry 1 has no integer 'iteration' and 'L'"),
            (lambda h: [{**h[0], "iteration": "0"}, *h[1:]],
             "run history entry 0 has no integer 'iteration' and 'L'"),
            (lambda h: [*h, []], "run history entry 2 has no integer 'iteration' and 'L'"),
            (lambda h: None, "run document has no 'history' list"),
        ],
        ids=["empty-entry", "no-L", "string-iteration", "entry-not-an-object", "no-history"],
    )
    def test_malformed_run_history_is_runtime_error(self, run_dir, tmp_path, capsys, command, fault, message):
        """`eval`, `library` and `explain` find the iterations they read in
        run.json's history; a malformed entry is one line and exit 2."""
        run = tmp_path / "run"
        shutil.copytree(run_dir, run)
        doc = json.loads((run / "run.json").read_text())
        task_id = json.loads((run / "iter-0" / "solved.json").read_text())["solved"][0]["taskId"]
        history = fault(doc.pop("history"))
        if history is not None:
            doc["history"] = history
        (run / "run.json").write_text(json.dumps(doc))
        argv = ["explain", str(run), "--task", task_id] if command == "explain" else [command, str(run)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("command", ["eval", "library"])
    def test_malformed_run_json_is_runtime_error(self, tmp_path, capsys, command):
        (tmp_path / "run.json").write_text('{"schema": ')
        assert main([command, str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: malformed JSON") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("command", ["eval", "library"])
    @pytest.mark.parametrize(
        "fault, message",
        [
            ({"arity": None}, "library entry 0 (f0) has no 'arity' field"),
            ({"type": "map -> widget"}, "library entry 0 (f0) has a bad 'type' field"),
            ({"arity": "1"}, "library entry 0 (f0) has a bad 'arity' field: '1' is not an integer"),
            ({"useCount": 2.5}, "library entry 0 (f0) has a bad 'useCount' field: 2.5 is not"),
            ({"arity": 5}, "library entry 0 (f0) has a bad 'arity' field: 5, but its type takes 1"),
            ({"type": "map -> action", "body": "(get $0 1 left-action)"},
             "library entry 0 (f0) has a bad 'body' field: expected "),
        ],
        ids=["no-arity", "bad-type", "string-arity", "float-use-count", "arity-against-type",
             "ill-typed-body"],
    )
    def test_malformed_library_is_runtime_error(
        self, run_dir, tmp_path, capsys, command, fault, message
    ):
        run = tmp_path / "run"
        shutil.copytree(run_dir, run)
        last = json.loads((run / "run.json").read_text())["history"][-1]["iteration"]
        path = run / f"iter-{last}" / "library.json"
        doc = json.loads(path.read_text())
        entry = {"name": "f0", "arity": 1, "type": "map -> bool",
                 "body": "(eq-obj? wall-obj (get $0 1 0))", "children": [], "useCount": 2}
        entry.update(fault)
        doc["abstractions"] = [{k: v for k, v in entry.items() if v is not None}]
        path.write_text(json.dumps(doc))
        assert main([command, str(run)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("command", ["eval", "library"])
    @pytest.mark.parametrize(
        "doc, message",
        [
            ([], "library document is not a JSON object"),
            ({"schema": "gridsynth-library-v1"}, "library document has no 'abstractions' list"),
            ({"schema": "gridsynth-library-v1", "abstractions": ["f0"]},
             "library entry 0 is not a JSON object"),
        ],
        ids=["not-an-object", "no-abstractions", "entry-not-an-object"],
    )
    def test_malformed_library_document_is_runtime_error(
        self, run_dir, tmp_path, capsys, command, doc, message
    ):
        run = tmp_path / "run"
        shutil.copytree(run_dir, run)
        last = json.loads((run / "run.json").read_text())["history"][-1]["iteration"]
        (run / f"iter-{last}" / "library.json").write_text(json.dumps(doc))
        assert main([command, str(run)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {message}\n"

    def test_malformed_rollouts_is_runtime_error(self, tmp_path, capsys):
        rolls = tmp_path / "r.json"
        rolls.write_text("not json\n")
        assert main(["export-prompts", "--rollouts", str(rolls), "--L", "3",
                     "--out", str(tmp_path / "p.txt")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: malformed JSON") and len(err.splitlines()) == 1
        assert not (tmp_path / "p.txt").exists()

    @pytest.mark.parametrize(
        "fault, message",
        [
            (lambda doc: [doc.pop("envTag"), doc.pop("rollouts")],
             "rollouts document has no 'envTag' field"),
            (lambda doc: doc.pop("rollouts"), "rollouts document has no 'rollouts' field"),
            (lambda doc: doc["rollouts"][0]["steps"][1].pop("action"),
             "rollouts document has no 'action' field"),
            (lambda doc: doc["rollouts"][0]["steps"][1].update(grid="12"),
             "malformed rollouts document: a grid of 2 digits does not split into rows of 5"),
            (lambda doc: doc["rollouts"][0]["steps"][1].update(grid="1" * 10),
             "malformed rollouts document: a grid of 10 cells is not 5x5"),
            (as_v1, "unexpected rollouts schema 'gridsynth-rollouts-v1'"),
            (lambda doc: doc["rollouts"][0]["steps"][1].update(grid=[1] * 5),
             "malformed rollouts document: a grid must be a string of ASCII digits, not [1, 1, 1, 1, 1]"),
            (lambda doc: doc["rollouts"][0]["steps"][1].update(grid="1" * 24 + "x"),
             "malformed rollouts document: a grid must be a string of ASCII digits, not '" + "1" * 24 + "x'"),
        ],
        ids=["only-schema", "no-rollouts", "no-action", "two-cell-grid", "ten-cell-grid", "v1-file", "list-grid",
             "non-digit-grid"],
    )
    def test_malformed_oracle_is_runtime_error(self, run_dir, tmp_path, capsys, fault, message):
        """A run's oracle.json is a rollouts file that export-prompts reads;
        a malformed one is one line on stderr and no prompts. Each fault
        edits the document in place."""
        doc = json.loads((run_dir / "oracle.json").read_text())
        fault(doc)
        rolls = tmp_path / "oracle.json"
        rolls.write_text(json.dumps(doc))
        assert main(["export-prompts", "--rollouts", str(rolls), "--L", "3",
                     "--out", str(tmp_path / "p.txt")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "p.txt").exists()

    @pytest.mark.parametrize(
        "fault, message",
        [
            (lambda doc: {"schema": "gridsynth-taskset-v1", "envTag": "maze", "L": doc["L"], "tasks": []},
             "unexpected task-set schema 'gridsynth-taskset-v1'"),
            (lambda doc: {k: v for k, v in doc.items() if k != "L"},
             "task-set document has no 'L' field"),
            (lambda doc: {**doc, "L": "3"}, "slice length must be an integer of at least 1, got '3'"),
            (lambda doc: {**doc, "oracle": 5}, "task-set oracle 5 is not a path"),
            (lambda doc: {**doc, "envTag": "asterix"},
             "task set is for 'asterix', but its oracle is for 'maze'"),
        ],
        ids=["v1-schema", "no-L", "string-L", "oracle-not-a-path", "env-mismatch"],
    )
    def test_malformed_task_set_is_runtime_error(self, run_dir, tmp_path, capsys, fault, message):
        run = tmp_path / "run"
        shutil.copytree(run_dir, run)
        for path in run.glob("iter-*/taskset.json"):
            path.write_text(json.dumps(fault(json.loads(path.read_text()))))
        task_id = json.loads((run / "iter-0" / "solved.json").read_text())["solved"][0]["taskId"]
        assert main(["explain", str(run), "--task", task_id]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "name, fault, message",
        [
            ("report", lambda doc: {**doc, "schema": "gridsynth-report-v0"},
             "unexpected report schema 'gridsynth-report-v0'"),
            ("report", lambda doc: {k: v for k, v in doc.items() if k != "rewritten"},
             "report document has no 'rewritten' field"),
            ("report", lambda doc: {**doc, "rewritten": [{"key": "k"}]}, "report document has no 'program' field"),
            ("report", lambda doc: {**doc, "rewritten": [[]]},
             "malformed report document: list indices must be integers or slices, not str"),
            ("solved", lambda doc: [], "unexpected solved schema None"),
            ("solved", lambda doc: {k: v for k, v in doc.items() if k != "solved"},
             "solved document has no 'solved' field"),
            ("solved", lambda doc: {**doc, "solved": [{"programs": e["programs"]} for e in doc["solved"]]},
             "solved document has no 'taskId' field"),
            ("solved", lambda doc: {**doc, "solved": [{"taskId": e["taskId"]} for e in doc["solved"]]},
             "solved document has no 'programs' field"),
            ("solved", lambda doc: {**doc, "solved": [{**e, "programs": []} for e in doc["solved"]]},
             "malformed solved document: list index out of range"),
            ("solved", lambda doc: {**doc, "solved": [[]]},
             "malformed solved document: list indices must be integers or slices, not str"),
        ],
        ids=["report-v0-schema", "report-no-rewritten", "report-no-program", "report-entry-not-an-object",
             "solved-not-an-object", "solved-no-solved", "solved-no-task-id", "solved-no-programs",
             "solved-empty-programs", "solved-entry-not-an-object"],
    )
    def test_malformed_report_or_solved_is_runtime_error(self, run_dir, tmp_path, capsys, name, fault, message):
        """`eval` reads the last iteration's report.json and `explain` each
        iteration's solved.json; the fault edits every one of them."""
        run = tmp_path / "run"
        shutil.copytree(run_dir, run)
        task_id = json.loads((run / "iter-0" / "solved.json").read_text())["solved"][0]["taskId"]
        for path in run.glob(f"iter-*/{name}.json"):
            path.write_text(json.dumps(fault(json.loads(path.read_text()))))
        argv = ["eval", str(run)] if name == "report" else ["explain", str(run), "--task", task_id]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


class TestEnvs:
    def test_lists_all_environments(self, capsys):
        assert main(["envs"]) == 0
        out = capsys.readouterr().out
        for tag in ("maze", "asterix", "spaceinvaders"):
            assert tag in out
        assert "request map -> direction -> action" in out


class TestCollectAndPrompts:
    def test_collect_writes_schema_file(self, tmp_path, capsys):
        out = tmp_path / "rollouts.json"
        assert main(["collect", "--env", "maze", "--count", "2", "--seed", "3",
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["schema"] == "gridsynth-rollouts-v2"
        assert len(doc["rollouts"]) == 2
        assert "wrote 2 oracle trajectories" in capsys.readouterr().out

    def test_collect_without_out_is_usage_error(self, capsys):
        assert main(["collect", "--env", "maze"]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_collect_of_no_episodes_is_usage_error(self, tmp_path, capsys, count):
        out = tmp_path / "rollouts.json"
        assert main(["collect", "--env", "maze", "--count", count, "--out", str(out)]) == 1
        assert "--count must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["collect", "--env", "maze", "--max-steps", "0"],
            ["collect", "--env", "maze", "--max-steps", "-5"],
            ["export-prompts", "--env", "maze", "--L", "3", "--count", "0"],
            ["export-prompts", "--env", "maze", "--L", "3", "--count", "-1"],
            ["export-prompts", "--env", "maze", "--L", "0"],
        ],
    )
    def test_count_below_one_is_usage_error_before_collecting(
        self, tmp_path, capsys, monkeypatch, argv
    ):
        def no_collection(*args, **kwargs):
            raise AssertionError("collected before checking the flags")

        monkeypatch.setattr(cli, "collect_oracle_rollouts", no_collection)
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == 1
        flag, value = argv[-2:]
        assert f"{flag} must be at least 1, got {value}" in capsys.readouterr().err
        assert not out.exists()

    def test_export_prompts_from_rollouts(self, tmp_path, capsys):
        rolls = tmp_path / "r.json"
        assert main(["collect", "--env", "maze", "--count", "2", "--seed", "3",
                     "--out", str(rolls)]) == 0
        prompts = tmp_path / "p.txt"
        assert main(["export-prompts", "--rollouts", str(rolls), "--L", "4",
                     "--out", str(prompts)]) == 0
        msg = capsys.readouterr().out
        lines = prompts.read_text().splitlines()
        assert f"wrote {len(lines)} prompts" in msg
        seg = lines[0].split(" ")
        assert len(seg) == 8  # 4 steps of digits + action word
        assert all(len(s) == 26 for s in seg[0::2])

    def test_export_prompts_fresh_env(self, tmp_path):
        prompts = tmp_path / "p.txt"
        assert main(["export-prompts", "--env", "spaceinvaders", "--count", "2",
                     "--L", "3", "--out", str(prompts)]) == 0
        assert prompts.exists()

    def test_export_prompts_without_source_is_usage_error(self, tmp_path, capsys):
        assert main(["export-prompts", "--L", "3", "--out", str(tmp_path / "p")]) == 1
        capsys.readouterr()


class TestRunAndDownstream:
    def test_run_artifacts(self, run_dir):
        doc = json.loads((run_dir / "run.json").read_text())
        assert doc["schema"] == "gridsynth-run-v2"
        assert doc["config"]["seed"] == 11 and doc["config"]["corpus_size"] == 8
        assert (run_dir / "eval.csv").exists()
        assert (run_dir / "iter-0" / "library.json").exists()

    def test_library_report(self, run_dir, capsys):
        assert main(["library", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "Number of extracted functions:" in out

    def test_eval_prints_csv(self, run_dir, capsys):
        assert main(["eval", str(run_dir), "--seeds", "123", "--episodes", "2"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("L,accuracy,n_tasks\n")

    def test_explain_solved_task(self, run_dir, tmp_path, capsys):
        solved = json.loads((run_dir / "iter-0" / "solved.json").read_text())
        task_id = solved["solved"][0]["taskId"]
        out = tmp_path / "bundle"
        assert main(["explain", str(run_dir), "--task", task_id,
                     "--out", str(out), "--format", "ascii"]) == 0
        assert (out / "manifest.json").exists()
        assert (out / "step-000.txt").exists()
        assert not (out / "step-000.svg").exists()
        capsys.readouterr()


class TestConfigFile:
    def test_flags_beat_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# sweep base\n"
            "env = maze\n"
            "corpus-size = 9999\n"
            "oracle_episodes = 3\n"
            "max-iterations = 1\n"
            "eval-episodes = 2\n"
            "seed = 4\n"
        )
        out = tmp_path / "cfgrun"
        code = main(["run", "--config", str(cfg), "--out", str(out),
                     "--corpus-size", "5"])
        assert code == 0
        doc = json.loads((out / "run.json").read_text())
        assert doc["config"]["corpus_size"] == 5  # flag wins
        assert doc["config"]["oracle_episodes"] == 3
        assert doc["config"]["seed"] == 4
        capsys.readouterr()

    def test_bad_line_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("corpus-size 1000\n")
        with pytest.raises(GridSynthError):
            parse_config_file(cfg)

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("warp-speed=9\n")
        with pytest.raises(GridSynthError):
            parse_config_file(cfg)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(GridSynthError):
            parse_config_file(tmp_path / "absent.cfg")

    def test_comments_and_normalization(self, tmp_path):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text("t-min = 4  # inline comment\n\nt_max=50\n")
        assert parse_config_file(cfg) == {"t_min": "4", "t_max": "50"}

    def test_every_run_key_is_a_typed_flag(self):
        parser, _ = build_parser()
        samples = {"env": "asterix", "profile": "paper", str: "x", int: "3", float: "2.5"}
        for key, cast in _RUN_KEYS.items():
            value = samples.get(key, samples[cast])
            args = parser.parse_args(["run", "--" + key.replace("_", "-"), value])
            assert getattr(args, key) == cast(value)
            assert type(getattr(args, key)) is cast

    def test_run_flags(self):
        _, subs = build_parser()
        flags = {
            flag for action in subs["run"]._actions for flag in action.option_strings
        }
        assert flags == {
            "-h", "--help", "--config", "--env", "--profile", "--seed",
            "--out", "--t-min", "--t-max", "--d-max", "--programs-per-task",
            "--search-timeout-sec", "--top-k", "--corpus-size", "--oracle-episodes",
            "--eval-episodes", "--max-iterations", "--l-start",
        }

    @pytest.mark.parametrize(
        "line, message",
        [
            ("env=bogus", "config key env must be one of maze, asterix, spaceinvaders, got 'bogus'"),
            ("env=maze\nprofile=nope", "config key profile must be one of desk, paper, got 'nope'"),
            ("env=maze\nseed=abc", "config key seed: invalid literal for int()"),
            ("env=maze\nbogus=1", "unknown config key 'bogus'"),
            ("env=maze\nseed 3", "expected key=value, got 'seed 3'"),
            ("env=maze\njobs=2", "unknown config key 'jobs'"),
        ],
    )
    def test_config_choices_are_usage_errors(self, tmp_path, capsys, monkeypatch, line, message):
        def no_run(*args, **kwargs):
            raise AssertionError("ran before checking the config file")

        monkeypatch.setattr(cli, "run_curriculum", no_run)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{line}\nout={tmp_path / 'x'}\n")
        assert main(["run", "--config", str(cfg)]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("flag", ["--env", "--profile"])
    def test_run_choices(self, tmp_path, capsys, flag):
        assert main(["run", flag, "bogus", "--out", str(tmp_path / "x")]) == 1
        assert "invalid choice" in capsys.readouterr().err
