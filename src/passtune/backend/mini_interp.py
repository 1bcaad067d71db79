"""Reference interpreter for the small IR.

Used in tests to check that optimization preserves behavior: a verified
function and its optimized form must return the same value for the same
arguments. Semantics are fully deterministic:

- integer arithmetic wraps in two's complement at the operand width;
- ``slt`` compares signed representatives;
- each execution of an ``alloca`` creates a fresh cell;
- loading an uninitialized cell reads 0;
- execution is bounded by a step budget.
"""

from __future__ import annotations

from passtune.backend.mini_ir import TYPE_BITS, Function, Lit, Operand
from passtune.backend.mini_passes import wrap


class MiniRuntimeError(Exception):
    pass


def run_function(fn: Function, args: list[int], max_steps: int = 100_000):
    """Execute ``fn`` on integer arguments; returns the ret value or None.

    Arguments are wrapped to their parameter widths. Raises
    MiniRuntimeError on an argument count mismatch or an exhausted step
    budget (the IR subset can loop through memory-carried counters).
    """
    if len(args) != len(fn.params):
        raise MiniRuntimeError(
            f"expected {len(fn.params)} arguments, got {len(args)}"
        )
    env: dict[str, int] = {}
    for (ty, name), value in zip(fn.params, args):
        env[name] = wrap(value, TYPE_BITS[ty])
    cells: list[int] = []

    def value_of(op: Operand) -> int:
        if isinstance(op, Lit):
            return op.value
        return env[op.name]

    bmap = fn.block_map()
    block = fn.entry
    steps = 0
    while True:
        for instr in block.instrs:
            steps += 1
            if steps > max_steps:
                raise MiniRuntimeError("step budget exceeded")
            op = instr.opcode
            if op == "alloca":
                cells.append(0)
                env[instr.result] = len(cells) - 1
            elif op == "store":
                value, ptr = instr.operands
                cells[env[ptr.name]] = wrap(value_of(value), TYPE_BITS[instr.ty])
            elif op == "load":
                ptr = instr.operands[0]
                env[instr.result] = wrap(cells[env[ptr.name]], TYPE_BITS[instr.ty])
            elif op in ("add", "sub", "mul"):
                a, b = (value_of(o) for o in instr.operands)
                bits = TYPE_BITS[instr.ty]
                if op == "add":
                    env[instr.result] = wrap(a + b, bits)
                elif op == "sub":
                    env[instr.result] = wrap(a - b, bits)
                else:
                    env[instr.result] = wrap(a * b, bits)
            elif op == "icmp":
                a, b = (
                    wrap(value_of(o), TYPE_BITS[instr.ty]) for o in instr.operands
                )
                if instr.pred == "eq":
                    env[instr.result] = int(a == b)
                elif instr.pred == "ne":
                    env[instr.result] = int(a != b)
                else:
                    env[instr.result] = int(a < b)
            elif op == "br":
                if instr.operands:
                    cond = wrap(value_of(instr.operands[0]), 1)
                    target = instr.labels[0] if cond else instr.labels[1]
                else:
                    target = instr.labels[0]
                block = bmap[target]
                break
            elif op == "ret":
                if instr.ty == "void":
                    return None
                return wrap(value_of(instr.operands[0]), TYPE_BITS[instr.ty])
            else:
                raise MiniRuntimeError(f"cannot execute opcode {op!r}")
        else:
            raise MiniRuntimeError("block fell through without a terminator")
