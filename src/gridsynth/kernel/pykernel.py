"""Runs `compile_term` output on flat grids.

Grids, directions and actions may be lists, tuples or numpy arrays of ints;
lists and tuples are the fast form and what the search passes.
"""
from __future__ import annotations

from gridsynth.kernel.compiler import _OutOfRange


def execute(code, grid, width, height, direction):
    """Run one program on one flat grid; action id, or -1 on out-of-bounds."""
    try:
        return code(grid, width, height, direction)
    except _OutOfRange:
        return -1


def check_trajectory(code, grids, dirs, acts, width, height):
    """Count how many leading steps the program reproduces; stops at the
    first mismatch or evaluation error."""
    i = 0
    try:
        for grid, direction, act in zip(grids, dirs, acts):
            if code(grid, width, height, direction) != act:
                break
            i += 1
    except _OutOfRange:
        pass
    return i
