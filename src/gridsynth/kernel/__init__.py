"""The closure kernel: compile a library-expanded program once, then run it
on many grids.

`compile_term` turns a term into a tree of Python closures, one per node;
`execute` runs it on one flat grid and `check_trajectory` counts how many
leading steps of a task it reproduces. Both run in pure Python (`pykernel`).
Every run-time check of a program goes through here: the search's candidate
checks, dream rollouts, `data.imitates` and evaluation. The tree interpreter
in `gridsynth.interp` stays the semantics of record: it drives `explain`, and
the tests hold the kernel to it.
"""
from gridsynth.kernel.compiler import CompiledProgram, KernelUnsupportedError, compile_term
from gridsynth.kernel.pykernel import check_trajectory, execute

BACKEND = "python"

__all__ = [
    "BACKEND",
    "CompiledProgram",
    "KernelUnsupportedError",
    "compile_term",
    "execute",
    "check_trajectory",
]
