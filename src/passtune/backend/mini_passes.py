"""Optimization passes for the small IR.

Six deterministic passes, each a function Function -> bool that mutates
in place and returns whether it changed the function: ``False`` means
``render_function`` gives the same text as before the pass. The ``-Oz``
meta-flag expands to the fixed size pipeline [mem2reg, constfold,
instcombine, gvn, dce, simplifycfg] applied twice.

Passes compare operands directly (a register name is a ``str``, a literal
an ``int``), fold through one ``_fold``, and order a definition against a
use with ``mini_ir.dominates``.
"""

from __future__ import annotations

import operator
from typing import Callable

from passtune.backend.mini_ir import (
    BINOPS,
    TYPE_BITS,
    Function,
    Instr,
    Operand,
    Site,
    dominates,
    dominators,
    instruction_sites,
    predecessors,
    reachable_labels,
)


def wrap(value: int, bits: int) -> int:
    """Two's-complement signed representative of ``value`` at ``bits``."""
    mask = (1 << bits) - 1
    value &= mask
    if value >= 1 << (bits - 1):
        value -= 1 << bits
    return value


def _replace_uses(fn: Function, old: str, new: Operand) -> None:
    for instr in fn.instructions():
        if old in instr.operands:
            instr.operands = tuple(
                new if op == old else op for op in instr.operands
            )


_BINOP_FOLDS = {"add": operator.add, "sub": operator.sub, "mul": operator.mul}
_ICMP_FOLDS = {"eq": operator.eq, "ne": operator.ne, "slt": operator.lt}


def _fold(instr: Instr, a: int, b: int) -> int:
    """The literal a binop or icmp of literals ``a`` and ``b`` yields."""
    bits = TYPE_BITS[instr.ty]
    if instr.opcode == "icmp":
        return int(_ICMP_FOLDS[instr.pred](wrap(a, bits), wrap(b, bits)))
    return wrap(_BINOP_FOLDS[instr.opcode](a, b), bits)


def constfold(fn: Function) -> bool:
    """Fold literal-only binops/icmps and literal-condition branches.

    Folded results propagate into uses, which can expose further folds;
    runs to a fixed point.
    """
    folded = False
    changed = True
    while changed:
        changed = False
        for block in fn.blocks:
            kept: list[Instr] = []
            for instr in block.instrs:
                ops = instr.operands
                if (
                    (instr.opcode in BINOPS or instr.opcode == "icmp")
                    and isinstance(ops[0], int)
                    and isinstance(ops[1], int)
                ):
                    _replace_uses(fn, instr.result, _fold(instr, *ops))
                    changed = True
                    continue
                if instr.opcode == "br" and ops and isinstance(ops[0], int):
                    taken = instr.labels[0] if ops[0] else instr.labels[1]
                    kept.append(Instr("br", labels=(taken,)))
                    changed = True
                    continue
                kept.append(instr)
            block.instrs = kept
        folded |= changed
    return folded


def dce(fn: Function) -> bool:
    """Delete value-producing instructions whose results are unused.

    Stores, branches, and rets are roots and never removed. Runs to a
    fixed point, so chains of dead definitions disappear together.
    """
    deleted = False
    changed = True
    while changed:
        changed = False
        used = {op for instr in fn.instructions() for op in instr.operands}
        for block in fn.blocks:
            kept = [
                i
                for i in block.instrs
                if i.result is None or i.result in used
            ]
            if len(kept) != len(block.instrs):
                block.instrs = kept
                changed = True
        deleted |= changed
    return deleted


def mem2reg(fn: Function) -> bool:
    """Promote stack cells with exactly one store that dominates all loads.

    Loads become the stored value; the store and the alloca disappear.
    Cells with zero or multiple stores, or a load the store does not
    dominate, are left alone.
    """
    dom = dominators(fn)
    allocas = [i for i in fn.instructions() if i.opcode == "alloca"]
    promoted = False
    for alloca in allocas:
        ptr = alloca.result
        stores: list[tuple[Site, Instr]] = []
        loads: list[tuple[Site, Instr]] = []
        promotable = True
        for site, instr in instruction_sites(fn):
            if ptr not in instr.operands:
                continue
            if instr.opcode == "store" and instr.operands[1] == ptr:
                if instr.operands[0] == ptr:
                    promotable = False  # cell address stored as a value
                    break
                stores.append((site, instr))
            elif instr.opcode == "load":
                loads.append((site, instr))
            else:
                promotable = False
                break
        if not promotable or len(stores) != 1:
            continue
        [(store_site, store)] = stores
        # a load in unreachable code cannot be ordered against the store
        if not all(
            site[0] in dom and dominates(dom, store_site, site)
            for site, _ in loads
        ):
            continue
        value = store.operands[0]
        for _, load in loads:
            _replace_uses(fn, load.result, value)
        dead = {id(store), id(alloca)} | {id(load) for _, load in loads}
        for block in fn.blocks:
            block.instrs = [i for i in block.instrs if id(i) not in dead]
        promoted = True
    return promoted


def instcombine(fn: Function) -> bool:
    """Peephole identities: x+0, 0+x, x-0, x*1, 1*x, and -(-x).

    Rewritten instructions are deleted once their uses are redirected;
    the double-negation rewrite also drops the inner sub when the outer
    use was its last. Runs to a fixed point.
    """
    rewritten = False
    changed = True
    while changed:
        changed = False
        defs = {
            i.result: i for i in fn.instructions() if i.result is not None
        }
        for block in fn.blocks:
            for instr in list(block.instrs):
                simplified = _simplify(instr, defs)
                if simplified is None:
                    continue
                _replace_uses(fn, instr.result, simplified)
                block.instrs.remove(instr)
                changed = True
                inner = defs.get(instr.operands[1])
                if (
                    instr.opcode == "sub"
                    and inner is not None
                    and inner.opcode == "sub"
                    and all(
                        inner.result not in i.operands for i in fn.instructions()
                    )
                ):
                    for b in fn.blocks:
                        if inner in b.instrs:
                            b.instrs.remove(inner)
                            break
        rewritten |= changed
    return rewritten


def _simplify(instr: Instr, defs: dict[str, Instr]) -> Operand | None:
    if instr.opcode not in BINOPS:
        return None
    a, b = instr.operands
    # a register name is a str, so it never equals a literal
    if instr.opcode == "add":
        if b == 0:
            return a
        if a == 0:
            return b
    elif instr.opcode == "sub":
        if b == 0:
            return a
        inner = defs.get(b) if a == 0 else None
        if (
            inner is not None
            and inner.opcode == "sub"
            and inner.ty == instr.ty
            and inner.operands[0] == 0
        ):
            return inner.operands[1]
    elif instr.opcode == "mul":
        if b == 1:
            return a
        if a == 1:
            return b
    return None


_COMMUTATIVE_PREDS = ("eq", "ne")


def gvn(fn: Function) -> bool:
    """Per-block value numbering over pure binops and icmps.

    A repeated computation inside one block is replaced by the first
    occurrence's result. Commutative keys (add, mul, icmp eq/ne) ignore
    operand order.
    """
    merged = False
    for block in fn.blocks:
        table: dict[tuple, str] = {}
        kept: list[Instr] = []
        for instr in block.instrs:
            if instr.opcode in BINOPS or instr.opcode == "icmp":
                key = _value_key(instr)
                prior = table.get(key)
                if prior is not None:
                    _replace_uses(fn, instr.result, prior)
                    merged = True
                    continue
                table[key] = instr.result
            kept.append(instr)
        block.instrs = kept
    return merged


def _value_key(instr: Instr) -> tuple:
    ops = instr.operands
    commutative = instr.opcode in ("add", "mul") or (
        instr.opcode == "icmp" and instr.pred in _COMMUTATIVE_PREDS
    )
    if commutative:
        ops = tuple(sorted(ops, key=lambda op: (isinstance(op, str), op)))
    return (instr.opcode, instr.pred, instr.ty, ops)


def simplifycfg(fn: Function) -> bool:
    """Drop unreachable blocks, then merge straight-line block pairs.

    A pair merges when the first ends in an unconditional branch to the
    second and the second has no other predecessor.
    """
    reach = reachable_labels(fn)
    kept = [b for b in fn.blocks if b.label in reach]
    changed = len(kept) != len(fn.blocks)
    fn.blocks = kept
    merged = True
    while merged:
        merged = False
        preds = predecessors(fn)
        bmap = fn.block_map()
        for block in fn.blocks:
            term = block.instrs[-1]
            if term.opcode != "br" or term.operands or not term.labels:
                continue
            succ = bmap[term.labels[0]]
            if succ is block or succ is fn.entry:
                continue
            if preds[succ.label] != {block.label}:
                continue
            block.instrs = block.instrs[:-1] + succ.instrs
            fn.blocks.remove(succ)
            merged = changed = True
            break
    return changed


PASSES: dict[str, Callable[[Function], bool]] = {
    "-mem2reg": mem2reg,
    "-constfold": constfold,
    "-instcombine": instcombine,
    "-gvn": gvn,
    "-dce": dce,
    "-simplifycfg": simplifycfg,
}

OZ_ROUND = (
    "-mem2reg",
    "-constfold",
    "-instcombine",
    "-gvn",
    "-dce",
    "-simplifycfg",
)
OZ_PIPELINE = OZ_ROUND * 2

META_PIPELINES: dict[str, tuple[str, ...]] = {"-Oz": OZ_PIPELINE}


def expand_flags(flags: list[str] | tuple[str, ...]) -> list[str]:
    out: list[str] = []
    for flag in flags:
        out.extend(META_PIPELINES.get(flag, (flag,)))
    return out
