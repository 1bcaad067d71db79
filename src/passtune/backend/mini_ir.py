"""A small LLVM-shaped IR: parser, verifier, renderer.

The subset covers integer types i1/i32/i64, stack cells via
``alloca``/``store``/``load``, the binary ops ``add``/``sub``/``mul``,
``icmp`` with ``eq``/``ne``/``slt``, conditional and unconditional
``br``, and ``ret``. One function per module, SSA registers, labeled
blocks, no phi nodes (loops through memory only).

Parse errors and verifier errors are phrased like the diagnostics of a
real IR toolchain so the shared failure classifier sees realistic text:
``use of undefined value '%x'``, ``'%c' defined with type 'i32' but
expected 'i1'``, ``multiple definition of local value named '%t'``, and
so on.

An operand is a register's name without its ``%`` (a ``str``) or an
integer literal (an ``int``), so a register never equals a literal, even
one named ``%1``. ``instruction_sites`` gives each instruction its site,
``(block label, index in block)``, and ``dominates`` is the one rule for
whether a site comes before another on every path from the entry.

Instruction lines repeat from parse to parse (a pass changes few lines of
a function, and the functions of a corpus share many), so the fields each
line parses to are kept in a cache of the last :data:`LINE_CACHE_ENTRIES`
distinct lines. The cache holds immutable tuples only, and every parse
builds fresh ``Instr`` objects from them: passes mutate instructions in
place, so no two parses may share one. A malformed line is not cached
and raises its ``MiniParseError`` on every parse.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Iterator, Optional, Union

INT_TYPES = ("i1", "i32", "i64")
TYPE_BITS = {"i1": 1, "i32": 32, "i64": 64}

TERMINATORS = ("br", "ret")
BINOPS = ("add", "sub", "mul")
ICMP_PREDS = ("eq", "ne", "slt")

# Real opcodes outside the subset, kept so the parser can tell
# "unsupported" apart from "not an opcode at all".
_FOREIGN_OPCODES = frozenset(
    """phi select switch zext sext trunc bitcast inttoptr ptrtoint and or
    xor sdiv udiv srem urem shl lshr ashr fadd fsub fmul fdiv frem fcmp
    unreachable invoke resume landingpad atomicrmw cmpxchg fence va_arg
    freeze fneg addrspacecast uitofp sitofp fptoui fptosi fpext fptrunc
    extractelement insertelement shufflevector""".split()
)
_INDEXED_OPCODES = frozenset(("getelementptr", "extractvalue", "insertvalue"))

# Distinct instruction lines whose parsed fields are kept. Of the lines an
# autotune parses, 94% on the benchmark's mini-corpus and 96% on mini-tune
# repeat one of the last 512.
LINE_CACHE_ENTRIES = 512


class MiniIrError(Exception):
    """Base for parse and verify failures; str(e) is the diagnostic."""


class MiniParseError(MiniIrError):
    pass


class MiniVerifyError(MiniIrError):
    pass


Operand = Union[str, int]  # register name without the '%', or a literal
Site = tuple[str, int]  # (block label, index in block)


def render_operand(op: Operand) -> str:
    return f"%{op}" if isinstance(op, str) else str(op)


@dataclass
class Instr:
    """One instruction; field use varies by opcode.

    ``ty`` is the operand/result type for alloca, store, load, binops,
    and icmp; the return type for ret ("void" if bare); unused for br.
    ``labels`` holds br targets (1 or 2); ``pred`` the icmp predicate.
    """

    opcode: str
    result: Optional[str] = None
    ty: str = ""
    operands: tuple[Operand, ...] = ()
    pred: Optional[str] = None
    labels: tuple[str, ...] = ()

    @property
    def is_terminator(self) -> bool:
        return self.opcode in TERMINATORS

    def result_type(self) -> Optional[str]:
        if self.result is None:
            return None
        if self.opcode == "alloca":
            return self.ty + "*"
        if self.opcode == "icmp":
            return "i1"
        return self.ty

    def copy(self) -> "Instr":
        return replace(self)


@dataclass
class Block:
    label: str
    instrs: list[Instr]
    explicit_label: bool = True

    def successors(self) -> tuple[str, ...]:
        term = self.instrs[-1] if self.instrs else None
        if term is not None and term.opcode == "br":
            return term.labels
        return ()


@dataclass
class Function:
    name: str
    ret_ty: str
    params: tuple[tuple[str, str], ...]  # (type, name)
    blocks: list[Block] = field(default_factory=list)

    @property
    def entry(self) -> Block:
        return self.blocks[0]

    def block_map(self) -> dict[str, Block]:
        return {b.label: b for b in self.blocks}

    def instructions(self):
        for block in self.blocks:
            yield from block.instrs


def clone_function(fn: Function) -> Function:
    """Deep enough copy for pass mutation; operands are immutable."""
    return Function(
        name=fn.name,
        ret_ty=fn.ret_ty,
        params=fn.params,
        blocks=[
            Block(b.label, [i.copy() for i in b.instrs], b.explicit_label)
            for b in fn.blocks
        ],
    )


_NAME = r"[\w.$-]+"
_TY = "|".join(INT_TYPES)
_BINOP = "|".join(BINOPS)
_PRED = "|".join(ICMP_PREDS)
_R_NAME = re.compile(_NAME)
_R_DEFINE = re.compile(rf"^define ({_TY}|void) @({_NAME})\((.*)\) {{$")
_R_PARAM = re.compile(rf"^({_TY}) %({_NAME})$")
_R_LABEL = re.compile(rf"^({_NAME}):$")
_R_ALLOCA = re.compile(rf"^%({_NAME}) = alloca ({_TY})$")
_R_STORE = re.compile(rf"^store ({_TY}) (\S+), ({_TY})\* %({_NAME})$")
_R_LOAD = re.compile(rf"^%({_NAME}) = load ({_TY}), ({_TY})\* %({_NAME})$")
_R_BINOP = re.compile(rf"^%({_NAME}) = ({_BINOP}) ({_TY}) (\S+), (\S+)$")
_R_ICMP = re.compile(rf"^%({_NAME}) = icmp ({_PRED}) ({_TY}) (\S+), (\S+)$")
_R_BR_COND = re.compile(rf"^br i1 (\S+), label %({_NAME}), label %({_NAME})$")
_R_BR = re.compile(rf"^br label %({_NAME})$")
_R_RET = re.compile(rf"^ret ({_TY}) (\S+)$")
_R_INT = re.compile(r"^-?\d+$")
_R_FLOATISH = re.compile(r"^-?(?:\d+\.\d*(?:[eE][+-]?\d+)?|0x[0-9A-Fa-f]+)$")


def _parse_operand(token: str, ty: str) -> Operand:
    if token.startswith("%"):
        name = token[1:]
        if not _R_NAME.fullmatch(name):
            raise MiniParseError(f"expected value token, got '{token}'")
        return name
    if token == "true" and ty == "i1":
        return 1
    if token == "false" and ty == "i1":
        return 0
    if _R_INT.match(token):
        value = int(token)
        bits = TYPE_BITS[ty]
        # accept the signed range plus unsigned spellings, like llvm-as
        if not (-(1 << (bits - 1)) <= value < (1 << bits)):
            raise MiniParseError(f"integer constant too large for type '{ty}'")
        return value
    if _R_FLOATISH.match(token):
        raise MiniParseError(f"floating point constant invalid for type '{ty}'")
    raise MiniParseError(f"expected value token, got '{token}'")


def _classify_unknown_line(line: str) -> MiniParseError:
    tokens = line.split()
    op = tokens[0]
    if len(tokens) >= 3 and tokens[1] == "=":
        op = tokens[2]
    if op == "call" or op.startswith("call"):
        callee = next((t for t in tokens if t.startswith("@")), None)
        target = f" '{callee}'" if callee else ""
        return MiniParseError(f"undefined function{target}")
    if op in _INDEXED_OPCODES:
        return MiniParseError(f"invalid index operation '{op}'")
    if op in _FOREIGN_OPCODES:
        return MiniParseError(f"unsupported instruction '{op}'")
    return MiniParseError(f"expected instruction opcode, got '{op}'")


def _fields(
    opcode: str,
    result: Optional[str] = None,
    ty: str = "",
    operands: tuple[Operand, ...] = (),
    pred: Optional[str] = None,
    labels: tuple[str, ...] = (),
) -> tuple:
    """``Instr``'s fields in its constructor's order."""
    return (opcode, result, ty, operands, pred, labels)


@lru_cache(maxsize=LINE_CACHE_ENTRIES)
def _instr_fields(line: str) -> tuple:
    """The fields of the instruction ``line`` spells, as an immutable tuple."""
    m = _R_ALLOCA.match(line)
    if m:
        return _fields("alloca", result=m.group(1), ty=m.group(2))
    m = _R_STORE.match(line)
    if m:
        val_ty, val, ptr_ty, ptr = m.groups()
        if val_ty != ptr_ty:
            raise MiniParseError(
                f"'%{ptr}' defined with type '{ptr_ty}*' but expected '{val_ty}*'"
            )
        return _fields(
            "store", ty=val_ty, operands=(_parse_operand(val, val_ty), ptr)
        )
    m = _R_LOAD.match(line)
    if m:
        result, ty, ptr_ty, ptr = m.groups()
        if ty != ptr_ty:
            raise MiniParseError(
                f"'%{ptr}' defined with type '{ptr_ty}*' but expected '{ty}*'"
            )
        return _fields("load", result=result, ty=ty, operands=(ptr,))
    m = _R_BINOP.match(line)
    if m:
        result, op, ty, a, b = m.groups()
        return _fields(
            op,
            result=result,
            ty=ty,
            operands=(_parse_operand(a, ty), _parse_operand(b, ty)),
        )
    m = _R_ICMP.match(line)
    if m:
        result, pred, ty, a, b = m.groups()
        return _fields(
            "icmp",
            result=result,
            ty=ty,
            pred=pred,
            operands=(_parse_operand(a, ty), _parse_operand(b, ty)),
        )
    m = _R_BR_COND.match(line)
    if m:
        cond, t, f = m.groups()
        return _fields(
            "br", operands=(_parse_operand(cond, "i1"),), labels=(t, f)
        )
    m = _R_BR.match(line)
    if m:
        return _fields("br", labels=(m.group(1),))
    m = _R_RET.match(line)
    if m:
        ty, val = m.groups()
        return _fields("ret", ty=ty, operands=(_parse_operand(val, ty),))
    if line == "ret void":
        return _fields("ret", ty="void")
    raise _classify_unknown_line(line)


def _parse_instr(line: str) -> Instr:
    return Instr(*_instr_fields(line))


def _fresh_entry_label(taken: set[str]) -> str:
    if "entry" not in taken:
        return "entry"
    i = 0
    while str(i) in taken:
        i += 1
    return str(i)


def parse_function(text: str) -> Function:
    """Parse one function from normalized IR text."""
    lines = [ln for ln in (l.strip() for l in text.splitlines()) if ln]
    if not lines:
        raise MiniParseError("expected 'define' at start of function")
    m = _R_DEFINE.match(lines[0])
    if not m:
        if lines[0].startswith("define"):
            raise MiniParseError(f"expected function header, got '{lines[0]}'")
        raise MiniParseError("expected 'define' at start of function")
    ret_ty, name, params_src = m.groups()
    params: list[tuple[str, str]] = []
    if params_src.strip():
        for part in params_src.split(","):
            pm = _R_PARAM.match(part.strip())
            if not pm:
                raise MiniParseError(f"expected parameter, got '{part.strip()}'")
            params.append((pm.group(1), pm.group(2)))

    # first pass: split the body into (label or None, instruction lines)
    segments: list[tuple[Optional[str], list[str]]] = []
    labels_seen: set[str] = set()
    closed = False
    for line in lines[1:]:
        if closed:
            raise MiniParseError(f"expected end of input, got '{line}'")
        if line == "}":
            closed = True
            continue
        lm = _R_LABEL.match(line)
        if lm:
            label = lm.group(1)
            if label in labels_seen:
                raise MiniParseError(f"redefinition of label '{label}'")
            labels_seen.add(label)
            segments.append((label, []))
            continue
        if line.startswith("define"):
            raise MiniParseError("expected end of input, got a nested definition")
        if not segments:
            segments.append((None, []))  # unlabeled entry block
        segments[-1][1].append(line)
    if not closed:
        raise MiniParseError("expected '}' to close function body")
    if not segments:
        raise MiniParseError("expected at least one basic block")

    blocks = [
        Block(
            label if label is not None else _fresh_entry_label(labels_seen),
            [_parse_instr(l) for l in body],
            explicit_label=label is not None,
        )
        for label, body in segments
    ]
    return Function(name=name, ret_ty=ret_ty, params=tuple(params), blocks=blocks)


def predecessors(fn: Function) -> dict[str, set[str]]:
    preds: dict[str, set[str]] = {b.label: set() for b in fn.blocks}
    for block in fn.blocks:
        for succ in block.successors():
            if succ in preds:
                preds[succ].add(block.label)
    return preds


def reachable_labels(fn: Function) -> set[str]:
    known = {b.label for b in fn.blocks}
    seen = {fn.entry.label}
    stack = [fn.entry]
    bmap = fn.block_map()
    while stack:
        block = stack.pop()
        for succ in block.successors():
            if succ in known and succ not in seen:
                seen.add(succ)
                stack.append(bmap[succ])
    return seen


def dominators(fn: Function) -> dict[str, set[str]]:
    """Dominator sets over reachable blocks (iterative dataflow).

    The keys are exactly the reachable blocks, so ``label in dom`` is the
    reachability test.
    """
    reach = reachable_labels(fn)
    order = [b.label for b in fn.blocks if b.label in reach]
    preds = predecessors(fn)
    entry = fn.entry.label
    dom: dict[str, set[str]] = {label: set(order) for label in order}
    dom[entry] = {entry}
    changed = True
    while changed:
        changed = False
        for label in order:
            if label == entry:
                continue
            ps = [p for p in preds[label] if p in reach]
            new = set.intersection(*(dom[p] for p in ps)) if ps else set()
            new = new | {label}
            if new != dom[label]:
                dom[label] = new
                changed = True
    return dom


def instruction_sites(fn: Function) -> Iterator[tuple[Site, Instr]]:
    """Every instruction with its site, in block and instruction order."""
    for block in fn.blocks:
        for idx, instr in enumerate(block.instrs):
            yield (block.label, idx), instr


def dominates(dom: dict[str, set[str]], a: Site, b: Site) -> bool:
    """Whether site ``a`` comes before site ``b`` on every path from entry.

    ``dom`` is ``dominators(fn)``; ``b`` must be in a reachable block
    (``b[0] in dom``).
    """
    if a[0] == b[0]:
        return a[1] < b[1]
    return a[0] in dom[b[0]]


def _check_operand_type(
    op: Operand, expected: str, types: dict[str, str]
) -> None:
    if isinstance(op, str):
        actual = types.get(op)
        if actual is None:
            raise MiniVerifyError(f"use of undefined value '%{op}'")
        if actual != expected:
            raise MiniVerifyError(
                f"'%{op}' defined with type '{actual}' but expected '{expected}'"
            )


def _collect_types(fn: Function) -> dict[str, str]:
    types: dict[str, str] = {}
    for ty, pname in fn.params:
        if pname in types:
            raise MiniVerifyError(
                f"multiple definition of local value named '%{pname}'"
            )
        types[pname] = ty
    for instr in fn.instructions():
        if instr.result is not None:
            if instr.result in types:
                raise MiniVerifyError(
                    f"multiple definition of local value named '%{instr.result}'"
                )
            types[instr.result] = instr.result_type()  # type: ignore[assignment]
    return types


def verify_function(fn: Function) -> None:
    """Structural, type, and dominance checks; raises MiniVerifyError."""
    labels = {b.label for b in fn.blocks}
    if len(labels) != len(fn.blocks):
        raise MiniVerifyError("redefinition of label")
    types = _collect_types(fn)

    for block in fn.blocks:
        if not block.instrs or not block.instrs[-1].is_terminator:
            raise MiniVerifyError(
                f"expected terminator at end of block '{block.label}'"
            )
        for instr in block.instrs[:-1]:
            if instr.is_terminator:
                raise MiniVerifyError(
                    f"unexpected instruction after terminator in block '{block.label}'"
                )

    for block in fn.blocks:
        for instr in block.instrs:
            if instr.opcode == "alloca":
                continue
            elif instr.opcode == "store":
                val, ptr = instr.operands
                _check_operand_type(val, instr.ty, types)
                _check_operand_type(ptr, instr.ty + "*", types)
            elif instr.opcode == "load":
                _check_operand_type(instr.operands[0], instr.ty + "*", types)
            elif instr.opcode in BINOPS or instr.opcode == "icmp":
                for op in instr.operands:
                    _check_operand_type(op, instr.ty, types)
            elif instr.opcode == "br":
                if instr.operands:
                    _check_operand_type(instr.operands[0], "i1", types)
                for target in instr.labels:
                    if target not in labels:
                        raise MiniVerifyError(
                            f"forward reference to undefined label '%{target}'"
                        )
            elif instr.opcode == "ret":
                if instr.ty != fn.ret_ty:
                    raise MiniVerifyError(
                        f"ret value type '{instr.ty}' but expected '{fn.ret_ty}'"
                    )
                if instr.operands:
                    _check_operand_type(instr.operands[0], instr.ty, types)
            else:
                raise MiniVerifyError(f"unknown opcode '{instr.opcode}'")

    preds = predecessors(fn)
    if preds[fn.entry.label]:
        raise MiniVerifyError(
            f"entry block '{fn.entry.label}' may not have predecessors"
        )

    _check_dominance(fn)


def _check_dominance(fn: Function) -> None:
    dom = dominators(fn)
    param_names = {name for _, name in fn.params}
    def_site = {
        instr.result: site
        for site, instr in instruction_sites(fn)
        if instr.result is not None
    }
    for site, instr in instruction_sites(fn):
        if site[0] not in dom:
            continue  # dominance is vacuous in unreachable code
        for op in instr.operands:
            if (
                isinstance(op, str)
                and op not in param_names
                and not dominates(dom, def_site[op], site)
            ):
                raise MiniVerifyError(
                    f"instruction '%{op}' does not dominate all uses"
                )


def render_instr(instr: Instr) -> str:
    op, ty, result = instr.opcode, instr.ty, instr.result
    ops = [render_operand(o) for o in instr.operands]
    if op == "alloca":
        return f"%{result} = alloca {ty}"
    if op == "store":
        return f"store {ty} {ops[0]}, {ty}* {ops[1]}"
    if op == "load":
        return f"%{result} = load {ty}, {ty}* {ops[0]}"
    if op in BINOPS:
        return f"%{result} = {op} {ty} {ops[0]}, {ops[1]}"
    if op == "icmp":
        return f"%{result} = icmp {instr.pred} {ty} {ops[0]}, {ops[1]}"
    if op == "br":
        if ops:
            return f"br i1 {ops[0]}, label %{instr.labels[0]}, label %{instr.labels[1]}"
        return f"br label %{instr.labels[0]}"
    if op == "ret":
        return "ret void" if ty == "void" else f"ret {ty} {ops[0]}"
    raise ValueError(f"cannot render opcode {op!r}")


def render_function(fn: Function) -> str:
    params = ", ".join(f"{ty} %{name}" for ty, name in fn.params)
    lines = [f"define {fn.ret_ty} @{fn.name}({params}) {{"]
    target_labels = {t for b in fn.blocks for t in b.successors()}
    for i, block in enumerate(fn.blocks):
        if i > 0 or block.explicit_label or block.label in target_labels:
            lines.append(f"{block.label}:")
        lines.extend(render_instr(instr) for instr in block.instrs)
    lines.append("}")
    return "\n".join(lines)
