"""The bytecode interpreter: runs `compile_term` output on flat grids.

Code, grids, directions and actions may be lists, tuples or numpy arrays of
ints; lists and tuples are the fast form and what the search passes.
"""
from __future__ import annotations

from gridsynth.kernel.bytecode import (
    OP_AND,
    OP_CONST,
    OP_EQ_DIR,
    OP_EQ_OBJ,
    OP_EQX,
    OP_EQY,
    OP_GET,
    OP_GETX,
    OP_GETY,
    OP_GGO,
    OP_GTX,
    OP_GTY,
    OP_JF,
    OP_JMP,
    OP_NOT,
    OP_OR,
    OP_RET,
    OP_VAR_DIR,
    OP_VAR_MAP,
)


def execute(code, grid, width, height, direction):
    """Run one program on one flat grid; action id, or -1 on out-of-bounds."""
    # Each (op, arg) pair pushes at most one value, so half the code length
    # bounds the stack depth.
    stack = [0] * (len(code) >> 1)
    sp = 0
    pc = 0
    while True:
        op = code[pc]
        arg = code[pc + 1]
        pc += 2
        if op == OP_CONST:
            stack[sp] = arg
            sp += 1
        elif op == OP_VAR_MAP:
            stack[sp] = 0
            sp += 1
        elif op == OP_VAR_DIR:
            stack[sp] = direction
            sp += 1
        elif op == OP_GET:
            sp -= 3
            x = stack[sp + 1]
            y = stack[sp + 2]
            if x < 0 or x >= width or y < 0 or y >= height:
                return -1
            stack[sp] = (grid[y * width + x] << 16) | (x << 8) | y
            sp += 1
        elif op == OP_EQ_OBJ:
            sp -= 1
            stack[sp - 1] = 1 if (stack[sp] >> 16) == stack[sp - 1] else 0
        elif op == OP_EQ_DIR or op == OP_EQX or op == OP_EQY:
            sp -= 1
            stack[sp - 1] = 1 if stack[sp - 1] == stack[sp] else 0
        elif op == OP_GTX or op == OP_GTY:
            sp -= 1
            stack[sp - 1] = 1 if stack[sp - 1] > stack[sp] else 0
        elif op == OP_GGO:
            stack[sp - 1] = stack[sp - 1] >> 16
        elif op == OP_NOT:
            stack[sp - 1] = 0 if stack[sp - 1] else 1
        elif op == OP_AND:
            sp -= 1
            stack[sp - 1] = 1 if (stack[sp - 1] and stack[sp]) else 0
        elif op == OP_OR:
            sp -= 1
            stack[sp - 1] = 1 if (stack[sp - 1] or stack[sp]) else 0
        elif op == OP_GETX:
            stack[sp - 1] = (stack[sp - 1] >> 8) & 0xFF
        elif op == OP_GETY:
            stack[sp - 1] = stack[sp - 1] & 0xFF
        elif op == OP_JF:
            sp -= 1
            if not stack[sp]:
                pc = arg
        elif op == OP_JMP:
            pc = arg
        elif op == OP_RET:
            return stack[sp - 1]
        else:
            raise ValueError(f"bad opcode {op}")


def check_trajectory(code, grids, dirs, acts, width, height):
    """Count how many leading steps the program reproduces; stops at the
    first mismatch or evaluation error."""
    n = len(acts)
    for i in range(n):
        if execute(code, grids[i], width, height, dirs[i]) != acts[i]:
            return i
    return n
