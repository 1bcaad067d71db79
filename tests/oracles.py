"""Reference implementations that tests check the library against.

The search oracles deliberately share no code with the search
implementation: the space is enumerated with itertools and the winner
picked by the same (count, length, items) order the tuner documents.
:func:`reference_normalize` is the character-walking normalizer that
``ircore.normalize`` replaced, kept as it was; :func:`jaccard_similarity`
is the score retrieval must reproduce. :func:`run_pipeline` and
:func:`reference_apply` compile on the mini IR with no memo, one live
function from parse to render: the outputs the mini backend's memo must
reproduce. :class:`LlvmInstructionCounter` counts instructions by walking
the module that LLVM's own parser builds, the exact count
``ircore.count_instructions`` must give on real LLVM output.
"""

import ctypes
import re
import shlex
import subprocess
from collections import Counter
from itertools import product
from pathlib import Path
from typing import Iterator, Optional

from passtune.backend import compile_items
from passtune.backend.mini_ir import (
    Function,
    clone_function,
    parse_function,
    render_function,
    verify_function,
)
from passtune.backend.mini_passes import PASSES, expand_flags
from passtune.backend.optd import find_llvm_config
from passtune.ircore import NormalizedIr, count_instructions


def all_valid_lists(vocabulary, max_len):
    """Every flag tuple of length 1..max_len with each meta-flag, and
    -attributor, at most once."""
    once = set(vocabulary.meta_flags) | {"-attributor"}
    for length in range(1, max_len + 1):
        for items in product(vocabulary.all_flags, repeat=length):
            onces = [f for f in items if f in once]
            if len(onces) == len(set(onces)):
                yield items


def count_all_valid_lists(vocabulary, max_len):
    return sum(1 for _ in all_valid_lists(vocabulary, max_len))


def best_by_enumeration(backend, fn, max_len):
    """(best_items, best_count) over the whole space; failures skipped."""
    ir = NormalizedIr(fn.normalized_text)
    best = None
    for items in all_valid_lists(backend.vocabulary, max_len):
        outcome = compile_items(backend, ir, items)
        if not outcome.ok:
            continue
        key = (outcome.instruction_count, len(items), items)
        if best is None or key < best:
            best = key
    if best is None:
        raise AssertionError(f"no valid pass list compiles {fn.id}")
    count, _, items = best
    return items, count


def run_pipeline(fn: Function, flags: list[str] | tuple[str, ...]) -> Function:
    """Apply flags (meta-flags expanded) to a copy of ``fn``."""
    result = clone_function(fn)
    for flag in expand_flags(flags):
        PASSES[flag](result)
    return result


def reference_apply(ir: NormalizedIr, items: tuple[str, ...]) -> tuple[str, int]:
    """(output text, instruction count) of ``items`` on ``ir``, memo-free."""
    fn = parse_function(ir.text)
    verify_function(fn)
    optimized = run_pipeline(fn, items)
    verify_function(optimized)
    text = render_function(optimized)
    return text, count_instructions(text)


def jaccard_similarity(a: Counter, b: Counter) -> float:
    """Multiset Jaccard: shared token occurrences over combined ones."""
    union = sum((a | b).values())
    if union == 0:
        return 0.0
    return sum((a & b).values()) / union


_TRAILING_METADATA = re.compile(r"(?:,\s*![\w.$-]+\s+!\d+)+\s*$")
_ATTR_REF = re.compile(r"\s#\d+\b")


def _split_string_segments(line: str) -> Iterator[tuple[bool, str]]:
    """Yield (inside_string, segment) pairs for a line.

    Double quotes toggle string state. LLVM escapes quotes as \\22 inside
    strings, so raw quotes never nest; toggling is sufficient and, being
    deterministic, keeps normalization idempotent.
    """
    inside = False
    start = 0
    for i, ch in enumerate(line):
        if ch == '"':
            yield inside, line[start : i + 1]
            inside = not inside
            start = i + 1
    if start <= len(line) - 1 or start == 0:
        yield inside, line[start:]


def _strip_comment(line: str) -> str:
    out: list[str] = []
    for inside, seg in _split_string_segments(line):
        if not inside and ";" in seg:
            out.append(seg[: seg.index(";")])
            break
        out.append(seg)
    return "".join(out)


def _clean_outside_strings(line: str) -> str:
    """Apply metadata/attribute/whitespace rules outside quoted strings."""
    pieces: list[str] = []
    for inside, seg in _split_string_segments(line):
        if inside:
            pieces.append(seg)
        else:
            seg = _ATTR_REF.sub("", seg)
            seg = re.sub(r"[ \t]+", " ", seg)
            pieces.append(seg)
    return "".join(pieces)


def reference_normalize(raw: str) -> NormalizedIr:
    """Normalize IR text.

    Removes comments, debug-metadata lines and trailing attachments, and
    attribute groups; strips indentation and collapses runs of horizontal
    whitespace to single spaces (quoted string contents are preserved
    verbatim). Newlines are kept; lines left empty by deletion are
    dropped. Total on any text: unparseable fragments just get the
    whitespace treatment.
    """
    out_lines: list[str] = []
    for line in raw.splitlines():
        line = _strip_comment(line.rstrip("\r"))
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("!"):
            continue  # standalone metadata definition
        if stripped.startswith("attributes #"):
            continue  # attribute group
        line = _TRAILING_METADATA.sub("", line)
        line = _clean_outside_strings(line).strip()
        if line:
            out_lines.append(line)
    return NormalizedIr("\n".join(out_lines))


class LlvmInstructionCounter:
    """Instructions of every function body in IR text, counted through LLVM's
    C API as CompilerGym's ``IrInstructionCount`` does: parse the module, then
    walk its functions, their blocks and the blocks' instructions."""

    def __init__(self, library: str) -> None:
        lib = ctypes.CDLL(library)
        ref = ctypes.c_void_p
        signatures = {
            "LLVMContextCreate": ([], ref),
            "LLVMContextDispose": ([ref], None),
            "LLVMCreateMemoryBufferWithMemoryRangeCopy": (
                [ctypes.c_char_p, ctypes.c_size_t, ctypes.c_char_p],
                ref,
            ),
            "LLVMParseIRInContext": (
                [ref, ref, ctypes.POINTER(ref), ctypes.POINTER(ref)],
                ctypes.c_int,
            ),
            "LLVMDisposeModule": ([ref], None),
            "LLVMDisposeMessage": ([ref], None),
        }
        for first, following in (
            ("LLVMGetFirstFunction", "LLVMGetNextFunction"),
            ("LLVMGetFirstBasicBlock", "LLVMGetNextBasicBlock"),
            ("LLVMGetFirstInstruction", "LLVMGetNextInstruction"),
        ):
            signatures[first] = signatures[following] = ([ref], ref)
        for name, (argtypes, restype) in signatures.items():
            fn = getattr(lib, name)
            fn.argtypes, fn.restype = argtypes, restype
        self._lib = lib

    def _walk(self, first, following, parent) -> Iterator[int]:
        item = getattr(self._lib, first)(parent)
        while item:
            yield item
            item = getattr(self._lib, following)(item)

    def __call__(self, text: str) -> int:
        lib = self._lib
        data = text.encode()
        context = lib.LLVMContextCreate()
        try:
            buffer = lib.LLVMCreateMemoryBufferWithMemoryRangeCopy(
                data, len(data), b"<stdin>"
            )
            module, message = ctypes.c_void_p(), ctypes.c_void_p()
            # The parser takes the buffer, whether or not it succeeds.
            if lib.LLVMParseIRInContext(
                context, buffer, ctypes.byref(module), ctypes.byref(message)
            ):
                error = ctypes.string_at(message.value).decode()
                lib.LLVMDisposeMessage(message)
                raise ValueError(error)
            functions = self._walk("LLVMGetFirstFunction", "LLVMGetNextFunction", module)
            try:
                return sum(
                    1
                    for fn in functions
                    for block in self._walk(
                        "LLVMGetFirstBasicBlock", "LLVMGetNextBasicBlock", fn
                    )
                    for _ in self._walk(
                        "LLVMGetFirstInstruction", "LLVMGetNextInstruction", block
                    )
                )
            finally:
                lib.LLVMDisposeModule(module)
        finally:
            lib.LLVMContextDispose(context)


def llvm_instruction_counter(opt_path: str) -> Optional[LlvmInstructionCounter]:
    """The counter over the libLLVM of ``opt_path``'s LLVM, if llvm-config
    (beside it, else on PATH) names a shared library that exists."""
    config = find_llvm_config(opt_path)
    if config is None:
        return None

    def query(option):
        return subprocess.run(
            [config, option], capture_output=True, text=True, check=True, timeout=60
        ).stdout.strip()

    names = [f[2:] for f in shlex.split(query("--libs")) if f.startswith("-l")]
    if len(names) != 1:
        return None  # a static build: no one library to load
    library = Path(query("--libdir"), f"lib{names[0]}.so")
    return LlvmInstructionCounter(str(library)) if library.exists() else None
