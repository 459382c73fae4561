"""Step-by-step execution explanations: call traces, highlights, renderers.

trace_execution replays a program on one observation with the interpreter's
tracer hook attached, collecting one TraceEvent per primitive or abstraction
application in evaluation order.  Highlighted cells are the union of the
coordinates read by `get`.  Renderers turn one explanation into ASCII art or
an SVG panel; explain_task writes a whole bundle (JSON trace, one drawing per
step, manifest) for a sub-trajectory.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from gridsynth.errors import GridSynthError
from gridsynth.interp import MapObj, Obj, exec_program
from gridsynth.lang import Term
from gridsynth.library import expand
from gridsynth.primitives import PrimTable, primitive_table
from gridsynth.sexpr import print_program
from gridsynth.state import GridState

TRACE_SCHEMA = "gridsynth-trace-v1"
MANIFEST_SCHEMA = "gridsynth-explain-v1"

CELL_PX = 32
COLOR_AGENT = "#1f4e9c"
COLOR_WALL = "#808080"
COLOR_EMPTY = "#000000"
COLOR_HIGHLIGHT = "#ffd400"
HIGHLIGHT_OPACITY = 0.6

# Fill colors per observation code, by environment.  Agent, wall, empty, and
# highlight are fixed; the remaining codes get stable fallbacks.
_PALETTES = {
    "maze": {1: COLOR_EMPTY, 2: COLOR_WALL, 3: "#2e8b57"},
    "asterix": {0: COLOR_EMPTY, 1: COLOR_AGENT, 2: "#b8860b", 3: "#cc3333", 4: "#663333"},
    "spaceinvaders": {0: COLOR_EMPTY, 1: COLOR_AGENT, 2: "#33cc33", 3: "#cccccc", 4: "#cc3333"},
}

_DIR_WORDS = {0: "east", 1: "south", 2: "west", 3: "north"}

# The maze observation is egocentric; the agent sits at this cell facing +x.
_MAZE_ANCHOR = (0, 2)


@dataclass(frozen=True)
class TraceEvent:
    """One primitive or abstraction application, in evaluation order."""

    callee: str
    args: tuple
    result: object
    level: int
    accessed_cell: tuple[int, int] | None = None
    branch: str | None = None


@dataclass(frozen=True)
class StepExplanation:
    state: GridState
    chosen_action: str | None
    events: tuple[TraceEvent, ...]
    highlighted_cells: frozenset
    error: str | None = None

    @property
    def access_counts(self) -> dict:
        counts: dict[tuple[int, int], int] = {}
        for e in self.events:
            if e.accessed_cell is not None:
                counts[e.accessed_cell] = counts.get(e.accessed_cell, 0) + 1
        return counts


def _render_value(value, prims: PrimTable):
    if isinstance(value, GridState):
        return "map"
    if isinstance(value, MapObj):
        return f"{prims.object_name(value.code)}@({value.x},{value.y})"
    if isinstance(value, Obj):
        return prims.object_name(value.code)
    return value  # a bool, an int or an action word


def trace_execution(
    program: Term, state: GridState, prims: PrimTable, library=None
) -> StepExplanation:
    """Execute with the tracer attached; errors give a partial trace."""
    events: list[TraceEvent] = []

    def tracer(callee, args, result, level, accessed_cell, branch):
        events.append(
            TraceEvent(
                callee=callee,
                args=tuple(_render_value(a, prims) for a in args),
                result=_render_value(result, prims),
                level=level,
                accessed_cell=accessed_cell,
                branch=branch,
            )
        )

    action: str | None = None
    error: str | None = None
    try:
        action = exec_program(program, state, prims, library=library, tracer=tracer)
    except GridSynthError as exc:
        error = f"{type(exc).__name__}: {exc}"
    cells = frozenset(
        e.accessed_cell for e in events if e.accessed_cell is not None
    )
    return StepExplanation(
        state=state,
        chosen_action=action,
        events=tuple(events),
        highlighted_cells=cells,
        error=error,
    )


def _agent_cell(env_tag: str, state: GridState) -> tuple[int, int] | None:
    if env_tag == "maze":
        return _MAZE_ANCHOR
    return None


def render_ascii(expl: StepExplanation, env_tag: str) -> str:
    """Characters: A agent, # wall, . empty, * accessed; MinAtar codes other
    than empty render as their digit.  Maze gets a direction label line."""
    state = expl.state
    agent = _agent_cell(env_tag, state)
    lines = []
    if env_tag == "maze" and state.direction is not None:
        d = state.direction
        lines.append(f"facing direction-{d} ({_DIR_WORDS[d]})")
    for y in range(state.height):
        chars = []
        for x in range(state.width):
            code = state.cell(x, y)
            if agent == (x, y) or (env_tag != "maze" and code == 1):
                chars.append("A")
            elif (x, y) in expl.highlighted_cells:
                chars.append("*")
            elif env_tag == "maze":
                chars.append("#" if code == 2 else ".")
            elif code == 0:
                chars.append(".")
            else:
                chars.append(str(code))
        lines.append("".join(chars))
    return "\n".join(lines) + "\n"


def render_svg(expl: StepExplanation, env_tag: str) -> str:
    """One SVG panel; base cells first, then yellow overlays, then the agent."""
    state = expl.state
    width, height = state.width, state.height
    palette = _PALETTES[env_tag]
    agent = _agent_cell(env_tag, state)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width * CELL_PX}"'
        f' height="{height * CELL_PX}" viewBox="0 0 {width * CELL_PX} {height * CELL_PX}">'
    ]
    if env_tag == "maze" and state.direction is not None:
        d = state.direction
        parts.append(f"<!-- facing direction-{d} ({_DIR_WORDS[d]}) -->")
    for y in range(height):
        for x in range(width):
            fill = palette.get(state.cell(x, y), COLOR_EMPTY)
            parts.append(
                f'<rect x="{x * CELL_PX}" y="{y * CELL_PX}"'
                f' width="{CELL_PX}" height="{CELL_PX}" fill="{fill}"/>'
            )
    if agent is not None:
        ax, ay = agent
        parts.append(
            f'<rect x="{ax * CELL_PX}" y="{ay * CELL_PX}"'
            f' width="{CELL_PX}" height="{CELL_PX}" fill="{COLOR_AGENT}"/>'
        )
    for x, y in sorted(expl.highlighted_cells):
        parts.append(
            f'<rect x="{x * CELL_PX}" y="{y * CELL_PX}"'
            f' width="{CELL_PX}" height="{CELL_PX}" fill="{COLOR_HIGHLIGHT}"'
            f' fill-opacity="{HIGHLIGHT_OPACITY}"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render(expl: StepExplanation, env_tag: str, format: str = "ascii") -> str:
    if format == "ascii":
        return render_ascii(expl, env_tag)
    if format == "svg":
        return render_svg(expl, env_tag)
    raise GridSynthError(f"unknown render format {format!r} (ascii, svg)")


def _event_json(e: TraceEvent) -> dict:
    doc = {
        "callee": e.callee,
        "args": list(e.args),
        "result": e.result,
        "level": e.level,
        "accessedCell": list(e.accessed_cell) if e.accessed_cell else None,
        "branch": None,
    }
    if e.branch is not None:
        doc["branch"] = {"condition": e.args[0], "taken": e.branch}
    return doc


def _step_trace_json(index: int, expl: StepExplanation, recorded: str) -> dict:
    counts = expl.access_counts
    return {
        "index": index,
        "chosenAction": expl.chosen_action,
        "recordedAction": recorded,
        "error": expl.error,
        "events": [_event_json(e) for e in expl.events],
        "highlights": [
            {"x": x, "y": y, "count": counts[(x, y)]}
            for x, y in sorted(expl.highlighted_cells)
        ],
    }


def explain_task(
    program: Term,
    task,
    library=None,
    formats: tuple[str, ...] = ("ascii", "svg"),
) -> dict:
    """Explain every step of a task in memory: trace plus rendered panels."""
    prims = primitive_table(task.env_tag)
    steps = []
    for i, (state, action) in enumerate(task.steps):
        expl = trace_execution(program, state, prims, library=library)
        entry = {"trace": _step_trace_json(i, expl, action)}
        for fmt in formats:
            entry[fmt] = render(expl, task.env_tag, fmt)
        steps.append(entry)
    expanded = expand(program, library) if library else program
    return {
        "envTag": task.env_tag,
        "taskId": task.task_id,
        "programLibraryForm": print_program(program),
        "programExpandedForm": print_program(expanded),
        "steps": steps,
    }


def write_bundle(
    out_dir,
    program: Term,
    task,
    library=None,
    formats: tuple[str, ...] = ("ascii", "svg"),
) -> Path:
    """Write trace.json, per-step panels, and manifest.json; returns the dir."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    bundle = explain_task(program, task, library=library, formats=formats)
    trace = {
        "schema": TRACE_SCHEMA,
        "envTag": bundle["envTag"],
        "taskId": bundle["taskId"],
        "steps": [s["trace"] for s in bundle["steps"]],
    }
    (out / "trace.json").write_text(json.dumps(trace, indent=2, sort_keys=True) + "\n")
    manifest_steps = []
    for i, step in enumerate(bundle["steps"]):
        files = {}
        if "ascii" in step:
            files["ascii"] = f"step-{i:03d}.txt"
            (out / files["ascii"]).write_text(step["ascii"])
        if "svg" in step:
            files["svg"] = f"step-{i:03d}.svg"
            (out / files["svg"]).write_text(step["svg"])
        manifest_steps.append(
            {
                "index": i,
                "chosenAction": step["trace"]["chosenAction"],
                "recordedAction": step["trace"]["recordedAction"],
                **files,
            }
        )
    manifest = {
        "schema": MANIFEST_SCHEMA,
        "envTag": bundle["envTag"],
        "taskId": bundle["taskId"],
        "programLibraryForm": bundle["programLibraryForm"],
        "programExpandedForm": bundle["programExpandedForm"],
        "trace": "trace.json",
        "steps": manifest_steps,
    }
    (out / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )
    return out
