"""Curriculum advance logic, run artifacts, and determinism."""

import hashlib
import itertools
import json
import re
from dataclasses import asdict, replace
from functools import lru_cache
from pathlib import Path

import pytest

from gridsynth import __version__, curriculum, kernel, search
from gridsynth.curriculum import (
    ADVANCE_RATE,
    CORPUS_SCHEMA,
    DL_TOL,
    EVAL_HEADER,
    REPORT_SCHEMA,
    RUN_SCHEMA,
    SOLVED_SCHEMA,
    CurriculumState,
    advance,
    default_config,
    dream_recovery,
    dream_windows,
    eval_run,
    final_iteration_dir,
    run_curriculum,
)
from gridsynth.data import (
    checked_program,
    collect_oracle_rollouts,
    collect_program_rollouts,
    default_params,
    imitated,
    load_rollouts,
    load_task_set,
    slice_tasks,
    task_inputs,
)
from gridsynth.errors import GridSynthError
from gridsynth.grammar import tables_for, term_dl, uniform_grammar
from gridsynth.kernel import check_trajectory, compile_term
from gridsynth.lang import inline
from gridsynth.library import compress, definitions, load_library
from gridsynth.primitives import primitive_table
from gridsynth.search import STOP_REASONS, SearchBudget, solve_many
from gridsynth.sexpr import parse_program

from conftest import learned_grammar


def walk_rates(rates):
    state = CurriculumState(L=3)
    seq = []
    for rate in rates:
        seq.append(state.L)
        state = advance(state, rate)
        if state.stopped:
            seq.append("Stop")
            break
    return seq


class TestAdvance:
    def test_spec_table(self):
        rates = [0.12, 0.05, 0.11, 0.04, 0.03]
        assert walk_rates(rates) == [3, 4, 4, 5, 5, "Stop"]

    def test_threshold_inclusive(self):
        state = advance(CurriculumState(L=3), ADVANCE_RATE)
        assert state.L == 4 and state.fails == 0 and not state.stopped

    def test_just_below_threshold_fails(self):
        state = advance(CurriculumState(L=3), ADVANCE_RATE - 1e-9)
        assert state.L == 3 and state.fails == 1 and not state.stopped

    def test_l_grows_by_at_most_one(self):
        state = advance(CurriculumState(L=5), 1.0)
        assert state.L == 6

    def test_success_resets_fail_count(self):
        state = CurriculumState(L=4, fails=1)
        state = advance(state, 0.5)
        assert state.fails == 0
        state = advance(state, 0.0)
        assert state.fails == 1 and not state.stopped

    def test_two_consecutive_fails_stop(self):
        state = CurriculumState(L=4)
        state = advance(state, 0.0)
        state = advance(state, 0.0)
        assert state.stopped

    def test_iteration_counter(self):
        state = CurriculumState()
        for k, rate in enumerate([0.2, 0.0, 0.2]):
            state = advance(state, rate)
            assert state.iteration == k + 1


class TestConfig:
    def test_maze_table_defaults(self):
        cfg = default_config("maze")
        assert (cfg.t_min, cfg.t_max, cfg.d_max) == (5, 60, 6)
        assert cfg.programs_per_task == 100
        assert cfg.top_k == 5 and cfg.l_start == 3

    def test_minatar_table_defaults(self):
        for tag in ("asterix", "spaceinvaders"):
            cfg = default_config(tag)
            assert (cfg.t_min, cfg.t_max, cfg.d_max) == (3, 20, 20)
            assert cfg.programs_per_task == 500

    def test_profiles(self):
        desk = default_config("maze", profile="desk")
        paper = default_config("maze", profile="paper")
        assert desk.search_timeout_sec == 30.0 and desk.corpus_size == 100
        assert paper.search_timeout_sec == 720.0 and paper.corpus_size == 100

    def test_overrides_win(self):
        cfg = default_config("maze", corpus_size=17, seed=9)
        assert cfg.corpus_size == 17 and cfg.seed == 9

    def test_unknown_env_or_profile(self):
        with pytest.raises(GridSynthError):
            default_config("pacman")
        with pytest.raises(GridSynthError):
            default_config("maze", profile="galaxy")

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (dict(top_k=0), "top_k"),
            (dict(programs_per_task=0), "programs_per_task"),
            (dict(programs_per_task=-5), "programs_per_task"),
            (dict(max_iterations=0), "max_iterations"),
            (dict(oracle_episodes=0), "oracle_episodes"),
            (dict(eval_episodes=0), "eval_episodes"),
            (dict(l_start=0), "l_start"),
            (dict(t_min=0), "t_min"),
            (dict(t_min=10, t_max=5), "exceeds t_max"),
            (dict(jobs=0), "jobs"),
            (dict(jobs=-2), "jobs"),
            (dict(corpus_size=-5), "corpus_size"),
            (dict(search_timeout_sec=0), "search_timeout_sec"),
            (dict(search_timeout_sec=-1), "search_timeout_sec"),
            (dict(d_max=2), "d_max 2 is below 3"),
            (dict(d_max=1), "d_max 1 is below 3"),
            (dict(d_max=0), "d_max"),
            (dict(d_max=-3), "d_max"),
            (dict(env_tag="spaceinvaders", d_max=1), "d_max 1 is below 2"),
            (dict(env_tag="asterix", d_max=1), "d_max 1 is below 2"),
            (dict(jobs=2), "jobs"),
        ],
    )
    def test_settings_that_cannot_run_are_rejected(self, overrides, message):
        overrides = dict(overrides)
        env_tag = overrides.pop("env_tag", "maze")
        with pytest.raises(GridSynthError, match=message):
            default_config(env_tag, **overrides)

    def test_boundary_settings_are_accepted(self):
        cfg = default_config(
            "maze", top_k=1, programs_per_task=None, max_iterations=1, oracle_episodes=1,
            eval_episodes=1, l_start=1, t_min=5, t_max=5, jobs=1, corpus_size=0,
            search_timeout_sec=1e-9, d_max=3,
        )
        assert cfg.programs_per_task is None and cfg.t_min == cfg.t_max == 5
        assert cfg.d_max == 3 and cfg.corpus_size == 0
        for env_tag in ("spaceinvaders", "asterix"):
            assert default_config(env_tag, d_max=2).d_max == 2


@pytest.fixture(scope="module")
def micro_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("runs") / "micro"
    cfg = default_config(
        "maze",
        out_dir=str(out),
        seed=7,
        corpus_size=20,
        oracle_episodes=4,
        max_iterations=3,
        eval_episodes=2,
    )
    doc = run_curriculum(cfg)
    return cfg, doc, out


class TestRunArtifacts:
    def test_directory_layout(self, micro_run):
        _, doc, out = micro_run
        for name in ("run.json", "eval.csv", "oracle.json"):
            assert (out / name).exists(), name
        for h in doc["history"]:
            it = out / f"iter-{h['iteration']}"
            for name in (
                "corpus.json",
                "grammar.json",
                "solved.json",
                "taskset.json",
                "library.json",
                "report.json",
            ):
                assert (it / name).exists(), name

    def test_oracle_is_written_once(self, micro_run):
        cfg, _, out = micro_run
        oracle = collect_oracle_rollouts(cfg.env_tag, cfg.oracle_episodes, cfg.seed + 11)
        assert load_rollouts(out / "oracle.json") == oracle

    def test_task_sets_slice_the_oracle(self, micro_run):
        """Each iteration's taskset.json names the oracle's windows at the L
        its solved.json records, and holds no grids."""
        _, doc, out = micro_run
        oracle = load_rollouts(out / "oracle.json")
        for h in doc["history"]:
            it = out / f"iter-{h['iteration']}"
            L = json.loads((it / "solved.json").read_text())["L"]
            assert load_task_set(it / "taskset.json") == slice_tasks(oracle, L)
            assert (it / "taskset.json").stat().st_size < 1024

    def test_schemas_and_config_echo(self, micro_run):
        cfg, doc, out = micro_run
        assert doc["schema"] == RUN_SCHEMA
        assert doc["config"] == asdict(cfg)
        it = out / "iter-0"
        assert json.loads((it / "corpus.json").read_text())["schema"] == CORPUS_SCHEMA
        assert json.loads((it / "solved.json").read_text())["schema"] == SOLVED_SCHEMA
        assert json.loads((it / "report.json").read_text())["schema"] == REPORT_SCHEMA

    def test_solved_entries_shape(self, micro_run):
        _, doc, out = micro_run
        solved = json.loads((out / "iter-0" / "solved.json").read_text())
        assert solved["L"] == 3 and solved["solved"]
        for entry in solved["solved"]:
            assert entry["wallTimeSec"] is None
            assert entry["programs"] and len(entry["dlNats"]) == len(entry["programs"])
            assert entry["candidatesTried"] >= 1

    def test_history_coherent(self, micro_run):
        cfg, doc, _ = micro_run
        ls = [h["L"] for h in doc["history"]]
        assert ls[0] == cfg.l_start
        for a, b in zip(ls, ls[1:]):
            assert b - a in (0, 1)
        for k, h in enumerate(doc["history"]):
            assert h["iteration"] == k
            assert 0.0 <= h["solveRate"] <= 1.0
            assert h["dlAfter"] <= h["dlBefore"] + 1e-9

    def test_report_rewritten_matches_accumulated(self, micro_run):
        _, doc, out = micro_run
        last = final_iteration_dir(out, doc)
        report = json.loads((last / "report.json").read_text())
        keys = [e["key"] for e in report["rewritten"]]
        assert keys == sorted(keys) and len(keys) == len(set(keys))

    def test_compress_tables_are_left_as_given(self, tmp_path, monkeypatch):
        """Every corpus compress got and every rewritten table it returned
        still has its own keys, in sorted order, after the run: the run
        builds a new table for each iteration instead of changing one that
        a caller of compress may hold."""
        calls = []

        def recording(corpus, *args, **kwargs):
            res = compress(corpus, *args, **kwargs)
            calls.append((corpus, list(corpus), res))
            return res

        monkeypatch.setattr(curriculum, "compress", recording)
        cfg = default_config(
            "maze", out_dir=str(tmp_path / "run"), seed=7, corpus_size=0,
            oracle_episodes=4, max_iterations=4, eval_episodes=2,
        )
        doc = run_curriculum(cfg)
        assert len(calls) == len(doc["history"]) >= 3
        for k, (corpus, keys, res) in enumerate(calls):
            assert keys == sorted(keys)
            assert list(corpus) == keys and list(res.rewritten) == keys, k
        for (_, _, prev), (_, after, _) in zip(calls, calls[1:]):
            assert set(prev.rewritten) <= set(after)
        assert len(calls[-1][1]) > len(calls[0][1])  # later iterations added keys

    def test_eval_csv(self, micro_run):
        _, doc, out = micro_run
        lines = (out / "eval.csv").read_text().strip().splitlines()
        assert lines[0] == EVAL_HEADER
        ls = sorted({h["L"] for h in doc["history"]})
        assert len(lines) == 1 + len(ls)
        for line, L in zip(lines[1:], ls):
            got_l, acc, n = line.split(",")
            assert int(got_l) == L and int(n) >= 0
            assert 0.0 <= float(acc) <= 1.0

    def test_eval_rerun_identical(self, micro_run):
        _, _, out = micro_run
        before = (out / "eval.csv").read_bytes()
        eval_run(out)
        assert (out / "eval.csv").read_bytes() == before


class TestRunRecord:
    def test_stage_timers_in_history(self, micro_run):
        _, doc, out = micro_run
        for h in doc["history"]:
            assert set(h["stageSec"]) == {"dream", "refit", "solve", "compress"}
            assert all(v >= 0.0 for v in h["stageSec"].values())
            assert sum(h["stageSec"].values()) <= h["wallTimeSec"]
            assert h["timeoutStops"] >= 0
        it = out / "iter-0"
        for text in (
            (it / "solved.json").read_text(),
            (it / "library.json").read_text(),
            (out / "eval.csv").read_text(),
        ):
            for field in ("stageSec", "timeoutStops", "stopReasons", "candidatesCompiled",
                          "dreamRecovery", "oracleSec", "evalSec"):
                assert field not in text

    def test_oracle_and_eval_timed(self, tmp_path, monkeypatch):
        """run.json times oracle collection from its first write on, and
        eval once eval has run: the run writes it once more after eval, and
        returns what it wrote last."""
        seen = []
        real = curriculum.eval_run

        def recording(run_dir, **kwargs):
            seen.append(json.loads((Path(run_dir) / "run.json").read_text()))
            return real(run_dir, **kwargs)

        monkeypatch.setattr(curriculum, "eval_run", recording)
        out = tmp_path / "run"
        cfg = default_config(
            "maze", out_dir=str(out), seed=7, corpus_size=0,
            oracle_episodes=2, max_iterations=1, eval_episodes=1,
        )
        doc = run_curriculum(cfg)
        [before] = seen
        assert before["evalSec"] is None and before["oracleSec"] == doc["oracleSec"] >= 0.0
        assert json.loads((out / "run.json").read_text()) == doc
        assert doc["evalSec"] >= 0.0
        assert {k: v for k, v in doc.items() if k != "evalSec"} == {
            k: v for k, v in before.items() if k != "evalSec"
        }

    def test_stop_reasons_and_compiled_candidates(self, micro_run):
        cfg, doc, out = micro_run
        for h in doc["history"]:
            assert list(h["stopReasons"]) == list(STOP_REASONS)
            assert sum(h["stopReasons"].values()) == h["nTasks"]
            assert h["stopReasons"]["timeout"] == h["timeoutStops"] == 0
            # One process shares one list, so the stage compiles no more
            # candidates than one task's cap, and at least its longest scan.
            solved = json.loads((out / f"iter-{h['iteration']}" / "solved.json").read_text())
            longest = max((e["candidatesTried"] for e in solved["solved"]), default=0)
            assert longest <= h["candidatesCompiled"] <= cfg.programs_per_task

    def test_compress_candidates_in_history(self, micro_run):
        _, doc, out = micro_run
        for h in doc["history"]:
            counts = h["compressCandidates"]
            assert list(counts) == ["steps", "scored", "priced"]
            # every greedy step but the last accepts one abstraction, and
            # only candidates bounded can be priced
            assert len(h["newAbstractions"]) <= counts["steps"] - 1
            assert counts["steps"] - 1 <= counts["priced"] <= counts["scored"]
            it = out / f"iter-{h['iteration']}"
            for name in ("report.json", "library.json", "solved.json"):
                assert "compressCandidates" not in (it / name).read_text()
        assert any(h["compressCandidates"]["scored"] > 0 for h in doc["history"])

    def test_dream_recovery_in_history(self, micro_run):
        """Each iteration checks every length-L window of its dreams, and
        none is a violation."""
        _, doc, out = micro_run
        for h in doc["history"]:
            corpus = json.loads((out / f"iter-{h['iteration']}" / "corpus.json").read_text())
            rec = h["dreamRecovery"]
            assert set(rec) == {"windows", "withinCap", "recovered", "violations"}
            assert rec["windows"] == sum(n // h["L"] for n in corpus["lengths"]) > 0
            assert rec["violations"] == 0
            assert 0 < rec["withinCap"] <= rec["windows"] and rec["recovered"] <= rec["windows"]

    def test_version_recorded(self, micro_run):
        _, doc, out = micro_run
        assert doc["version"] == __version__
        assert json.loads((out / "run.json").read_text())["version"] == __version__
        pyproject = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text()
        match = re.search(r'^version = "([^"]+)"$', pyproject, re.MULTILINE)
        assert match and match.group(1) == __version__

    def test_timeout_stops_counted(self, tmp_path):
        # No candidate cap and an unreachable top-k: every search runs until
        # its first deadline check, which a near-zero timeout has passed.
        cfg = default_config(
            "maze",
            out_dir=str(tmp_path / "timeout"),
            seed=7,
            corpus_size=0,
            oracle_episodes=1,
            max_iterations=1,
            eval_episodes=1,
            search_timeout_sec=1e-9,
            programs_per_task=None,
            top_k=10**6,
        )
        doc = run_curriculum(cfg)
        h = doc["history"][0]
        assert h["nTasks"] > 0
        assert h["timeoutStops"] == h["nTasks"]
        assert h["stopReasons"] == {"top-k": 0, "candidates": 0, "timeout": h["nTasks"], "exhausted": 0}
        # The stage's one scan stops every search at its first deadline
        # check, after 128 candidates.
        assert h["candidatesCompiled"] == 128


class TestEdgeCases:
    def test_zero_solved_stops_with_empty_library(self, tmp_path):
        cfg = default_config(
            "maze",
            out_dir=str(tmp_path / "stall"),
            seed=3,
            corpus_size=5,
            oracle_episodes=2,
            l_start=100,
            eval_episodes=1,
        )
        doc = run_curriculum(cfg)
        assert doc["stopReason"] == "two-fails"
        assert len(doc["history"]) == 2
        assert all(h["nSolved"] == 0 for h in doc["history"])
        assert all(h["librarySize"] == 0 for h in doc["history"])
        assert doc["finalL"] == 100
        # every dream is shorter than L, so none has a window to search
        assert all(h["dreamRecovery"]["windows"] == 0 for h in doc["history"])
        assert dream_windows([], 3) == []

    def test_missing_run_dir_raises(self, tmp_path):
        with pytest.raises(GridSynthError):
            eval_run(tmp_path / "nope")


def _closure_hits(texts, library, windows, prims) -> list[bool]:
    """The eval reference: each program compiled to closures by
    `compile_term`, and each window checked by `check_trajectory`."""
    defs = definitions(library)
    codes = [compile_term(inline(parse_program(t, prims, extra=defs), defs), prims).code for t in texts]
    hits = []
    for task in windows:
        grids, dirs, acts, width, height = task_inputs(task, prims)
        hits.append(any(check_trajectory(c, grids, dirs, acts, width, height) == len(acts) for c in codes))
    return hits


@pytest.mark.parametrize(
    "env_tag, overrides",
    [
        ("maze", dict(corpus_size=10, oracle_episodes=4, max_iterations=3)),
        ("asterix", dict(corpus_size=0, oracle_episodes=3, max_iterations=3)),
        ("spaceinvaders", dict(corpus_size=0, oracle_episodes=3, max_iterations=2)),
    ],
    ids=["maze", "asterix", "spaceinvaders"],
)
def test_eval_hits_match_closure_reference(tmp_path, env_tag, overrides):
    """Each eval.csv row counts the fresh windows that the closure kernel
    finds imitated, window by window, by one of the final programs."""
    out = tmp_path / env_tag
    cfg = default_config(env_tag, out_dir=str(out), seed=7, eval_episodes=2, **overrides)
    doc = run_curriculum(cfg)
    prims = primitive_table(env_tag)
    last = final_iteration_dir(out, doc)
    library = load_library(last / "library.json", prims)
    texts = sorted({e["program"] for e in json.loads((last / "report.json").read_text())["rewritten"]})
    assert texts and library  # every run learns a library
    rows = (out / "eval.csv").read_text().splitlines()[1:]
    lengths = sorted({h["L"] for h in doc["history"]})
    assert len(rows) == len(lengths)
    fresh = collect_oracle_rollouts(env_tag, cfg.eval_episodes, seed=cfg.seed + 777)
    terms = [checked_program(t, prims, library) for t in texts]
    for row, L in zip(rows, lengths):
        windows = slice_tasks(fresh, L).tasks
        want = _closure_hits(texts, library, windows, prims)
        assert imitated(terms, windows, prims) == want
        assert row == f"{L},{sum(want) / len(want):.6f},{len(want)}"


# --- dream recovery ----------------------------------------------------------


@lru_cache(maxsize=None)
def _dream_stage(env_tag, learned):
    """Grammar, library, oracle windows, dream windows, budget and depth
    bound of one solve stage at L=3, the dreams drawn from the grammar with
    the library. `learned` takes `conftest.learned_grammar`'s library."""
    prims = primitive_table(env_tag)
    grammar, library = learned_grammar(prims) if learned else (uniform_grammar(prims), ())
    d_max, cap = {"maze": (6, 100), "spaceinvaders": (8, 300)}[env_tag]
    oracle = slice_tasks(collect_oracle_rollouts(env_tag, 2, seed=5), 3).tasks
    dreams = collect_program_rollouts(
        grammar, env_tag, 30, default_params(env_tag), seed=9, d_max=d_max, library=library
    )
    budget = SearchBudget(timeout_sec=None, top_k=5, max_candidates=cap)
    return grammar, library, oracle, dream_windows(dreams, 3), budget, d_max


@pytest.mark.parametrize("learned", [False, True], ids=["no-library", "learned-library"])
@pytest.mark.parametrize("env_tag", ["maze", "spaceinvaders"])
def test_dream_windows_leave_oracle_results_alone(env_tag, learned):
    """The oracle windows get the same results, wall time aside, with the
    dreams' windows in their scan as without, and the dreams' windows are
    recovered wherever the scan reached their programs."""
    grammar, library, oracle, windows, budget, d_max = _dream_stage(env_tag, learned)
    for window, dream in windows:  # each window is a slice of its own dream
        off = int(window.task_id.rpartition(":")[2])
        assert window.task_id.startswith(dream.traj_id + ":")
        assert window.steps == dream.steps[off : off + 3]
    alone = solve_many(grammar, oracle, budget, library, d_max)
    both = solve_many(grammar, oracle + tuple(w for w, _ in windows), budget, library, d_max)
    assert list(both)[: len(alone)] == list(alone)
    for tid, r in alone.items():
        assert replace(both[tid], wall_time_sec=0.0) == replace(r, wall_time_sec=0.0), tid
    assert {r.stop_reason for r in alone.values()} == {"top-k", "candidates"}
    rec = dream_recovery(grammar, windows, both)
    assert rec["windows"] == len(windows) > 0
    assert rec["violations"] == 0 and 0 < rec["withinCap"] <= rec["recovered"]


def test_out_of_order_stream_is_a_violation(monkeypatch):
    """A seeded mutation of the enumerator: two candidates out of DL order,
    a dream's program and the first candidate past the cap, so the scan
    never checks the program. Its window is within the cap and not
    recovered."""
    grammar, library, _, windows, _, d_max = _dream_stage("maze", False)
    cap = 100
    budget = SearchBudget(timeout_sec=None, top_k=10**6, max_candidates=cap)
    results = solve_many(grammar, tuple(w for w, _ in windows), budget, library, d_max)
    assert dream_recovery(grammar, windows, results)["violations"] == 0
    tables = tables_for(grammar, grammar.request)
    for window, dream in windows:  # one whose only hit no longer than its program is its program
        program = dream.program
        d = term_dl(tables, program)
        r = results[window.task_id]
        short = [term for term, dl in zip(r.programs, r.dl_nats) if dl <= d + DL_TOL]
        if d < results.last_dl - DL_TOL and short == [program]:
            break
    else:
        pytest.fail("no dream window is solved only by its own program")
    real = search._derivations

    def swapped(tables, max_depth):
        stream = real(tables, max_depth)
        head = list(itertools.islice(stream, cap + 1))
        i = [search._reconstruct(tables, path) for _, path in head].index(program)
        head[i], head[cap] = head[cap], head[i]
        yield from head
        yield from stream

    monkeypatch.setattr(search, "_derivations", swapped)
    mutated = solve_many(grammar, (window,), budget, library, d_max)
    assert dream_recovery(grammar, [(window, dream)], mutated) == {
        "windows": 1, "withinCap": 1, "recovered": 0, "violations": 1,
    }


def test_swapped_batch_if_is_a_violation(tmp_path, monkeypatch):
    """A seeded fault of the batch check: `if` takes each branch on the
    states where the other is taken. A dream's `(if c A B)` then fails its
    windows, while `(if c B A)`, of the same DL, checks as it should have
    and solves them no longer than d. Only a rule that asks for the dream's
    own program among the hits sees the fault; on this run, a best DL of at
    most d is found on every window within the cap."""
    real = kernel._BATCH_BUILDERS["if"]
    monkeypatch.setitem(kernel._BATCH_BUILDERS, "if", lambda c, t, e: real(c, e, t))
    doc = run_curriculum(default_config("maze", out_dir=str(tmp_path / "run"), seed=7, eval_episodes=1))
    assert sum(h["dreamRecovery"]["violations"] for h in doc["history"]) > 0


def _digest(root: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if p.name in ("solved.json", "library.json", "eval.csv"):
            h.update(p.relative_to(root).as_posix().encode())
            h.update(p.read_bytes())
    return h.hexdigest()


class TestDeterminism:
    def test_reruns_byte_identical(self, tmp_path):
        digests = []
        for name in ("a", "b"):
            out = tmp_path / name
            cfg = default_config(
                "maze",
                out_dir=str(out),
                seed=11,
                corpus_size=10,
                oracle_episodes=3,
                max_iterations=2,
                eval_episodes=2,
            )
            run_curriculum(cfg)
            digests.append(_digest(out))
        assert digests[0] == digests[1]
