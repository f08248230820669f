"""Instruction objects of the mini-IR.

An :class:`Instruction` is a single operation: an opcode, an optional
destination register, a list of operands, opcode-specific attributes
(branch targets, memory-space hints), a stable unique id (*uid*) used by
GEVO edits to address instructions across module clones, and an optional
source location for mapping IR-level edits back to "CUDA source" lines as
done in the paper's functional analysis (Section VI).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, TypeVar

from .opcodes import opcode_info
from .values import Const, Reg, Value, as_value, format_value

_uid_counter = itertools.count(1)
#: Bumped by :func:`reset_uid_namespace`; memoized builders key on it.
_uid_generation = 0


def next_uid() -> int:
    """Allocate a fresh, process-unique instruction uid."""
    return next(_uid_counter)


def reset_uid_namespace() -> None:
    """Restart uid allocation at 1, as a freshly-started process would.

    Checkpoints address instructions by uid, and uids are deterministic
    only because every *process* rebuilds its modules from the same
    counter start.  In-process crash simulation (see
    :mod:`repro.runtime.faultpoints`) must call this between the
    "killed" run and the "resumed" run so the resumed object graph gets
    the same uid numbering a genuine restart would -- otherwise the
    resumed modules drift and checkpointed edits address nothing.

    Never call this while modules from the old namespace are still in
    use: uid collisions between old and new instructions would corrupt
    edit addressing.
    """
    global _uid_counter, _uid_generation
    _uid_counter = itertools.count(1)
    _uid_generation += 1


_Built = TypeVar("_Built")


def memoize_in_uid_namespace(builder: Callable[..., _Built]) -> Callable[..., _Built]:
    """Memoize a kernel *builder* by its positional arguments.

    Reusing one built module lets the simulator's per-function decode and
    JIT caches hit across adapter constructions, and lets two adapters in
    one process address the same instruction uids.  Callers must treat
    the shared module as immutable (GEVO clones before editing).  The memo
    empties when :func:`reset_uid_namespace` runs: a module built in the
    old namespace would share uids with instructions allocated in the
    new one, so the first build after a reset numbers its instructions
    exactly as a freshly-started process would.
    """
    memo: Dict[tuple, _Built] = {}
    built_in = [_uid_generation]

    @functools.wraps(builder)
    def build(*args):
        if built_in[0] != _uid_generation:
            memo.clear()
            built_in[0] = _uid_generation
        if args not in memo:
            memo[args] = builder(*args)
        return memo[args]

    return build


_mutation_counter = itertools.count(1)


def next_mutation_stamp() -> int:
    """Allocate a monotonically increasing in-place-mutation stamp.

    Decoded-program caches (see :mod:`repro.gpu.decoded`) fingerprint a
    function as the sequence of ``(uid, mutation_stamp)`` pairs of its
    instructions: structural edits change the uid sequence, while in-place
    edits (operand replacement) advance the mutated instruction's stamp.
    """
    return next(_mutation_counter)


@dataclass(frozen=True)
class SourceLoc:
    """A source-code location (file and line) attached to an instruction.

    Mirrors the debug information the paper's instrumented Clang attaches to
    LLVM-IR so GEVO edits can be traced back to CUDA source lines.
    """

    file: str
    line: int

    def __str__(self) -> str:
        return f"{self.file}:{self.line}"


class Instruction:
    """One mini-IR instruction.

    Instances are mutable (operand replacement is a GEVO edit) but keep
    their *uid* for their lifetime.  Copies made by :meth:`clone` preserve
    the uid (used when cloning whole modules before applying an edit list);
    copies made by :meth:`duplicate` receive a fresh uid (used by the
    instruction-copy edit, which inserts a *new* instruction).
    """

    __slots__ = ("uid", "opcode", "dest", "operands", "attrs", "loc", "mutation_stamp")

    def __init__(
        self,
        opcode: str,
        dest: Optional[str] = None,
        operands: Optional[List[Value]] = None,
        attrs: Optional[Dict[str, object]] = None,
        loc: Optional[SourceLoc] = None,
        uid: Optional[int] = None,
    ):
        info = opcode_info(opcode)
        self.uid = next_uid() if uid is None else uid
        self.opcode = opcode
        self.dest = dest
        self.operands = [as_value(op) for op in (operands or [])]
        self.attrs = dict(attrs or {})
        self.loc = loc
        self.mutation_stamp = 0
        if info.has_dest and dest is None:
            raise ValueError(f"opcode {opcode!r} requires a destination register")
        if not info.has_dest and dest is not None:
            raise ValueError(f"opcode {opcode!r} does not produce a result")
        if info.arity is not None and len(self.operands) != info.arity:
            raise ValueError(
                f"opcode {opcode!r} expects {info.arity} operands, got {len(self.operands)}"
            )

    # -- classification helpers ------------------------------------------------
    @property
    def info(self):
        """The :class:`~repro.ir.opcodes.OpcodeInfo` for this instruction."""
        return opcode_info(self.opcode)

    @property
    def is_terminator(self) -> bool:
        return self.info.is_terminator

    @property
    def is_barrier(self) -> bool:
        return self.info.is_barrier

    @property
    def touches_memory(self) -> bool:
        return self.info.touches_memory

    # -- value/def-use helpers ---------------------------------------------------
    def used_registers(self) -> Tuple[str, ...]:
        """Names of registers read by this instruction."""
        return tuple(op.name for op in self.operands if isinstance(op, Reg))

    def defined_register(self) -> Optional[str]:
        """Name of the register written by this instruction, if any."""
        return self.dest

    def replace_operand(self, index: int, value: Value) -> None:
        """Replace operand *index* with *value* (a GEVO operand edit)."""
        if not 0 <= index < len(self.operands):
            raise IndexError(f"operand index {index} out of range for {self}")
        self.operands[index] = as_value(value)
        self.touch()

    def touch(self) -> None:
        """Record an in-place mutation so cached decodings are invalidated.

        :meth:`replace_operand` calls this automatically; code that mutates
        ``operands``/``attrs``/``dest`` of an instruction *already placed in
        a block* by other means must call it by hand (inserting a freshly
        constructed or :meth:`duplicate`-d instruction needs nothing -- the
        new uid already changes the function fingerprint).
        """
        self.mutation_stamp = next_mutation_stamp()

    # -- copying -----------------------------------------------------------------
    def clone(self) -> "Instruction":
        """Deep copy preserving the uid (used when cloning a module)."""
        return Instruction(
            self.opcode,
            dest=self.dest,
            operands=list(self.operands),
            attrs=dict(self.attrs),
            loc=self.loc,
            uid=self.uid,
        )

    def duplicate(self) -> "Instruction":
        """Deep copy with a *fresh* uid (used by the instruction-copy edit)."""
        return Instruction(
            self.opcode,
            dest=self.dest,
            operands=list(self.operands),
            attrs=dict(self.attrs),
            loc=self.loc,
            uid=None,
        )

    # -- rendering -----------------------------------------------------------------
    def branch_targets(self) -> Tuple[str, ...]:
        """Branch target labels, empty for non-branch instructions."""
        if self.opcode == "br":
            return (self.attrs["target"],)
        if self.opcode == "condbr":
            return (self.attrs["true_target"], self.attrs["false_target"])
        return ()

    def __str__(self) -> str:
        parts = []
        if self.dest is not None:
            parts.append(f"%{self.dest} =")
        parts.append(self.opcode)
        if self.operands:
            parts.append(", ".join(format_value(op) for op in self.operands))
        if self.opcode == "br":
            parts.append(self.attrs["target"])
        elif self.opcode == "condbr":
            parts.append(f"{self.attrs['true_target']}, {self.attrs['false_target']}")
        extra = {k: v for k, v in self.attrs.items()
                 if k not in ("target", "true_target", "false_target")}
        if extra:
            parts.append("!" + ",".join(f"{k}={v}" for k, v in sorted(extra.items())))
        if self.loc is not None:
            parts.append(f"!loc {self.loc}")
        return " ".join(str(p) for p in parts)

    def __repr__(self) -> str:
        return f"<Instruction uid={self.uid} {self}>"


def make_const(value) -> Const:
    """Convenience constructor for constant operands."""
    return Const(value)


def make_reg(name: str) -> Reg:
    """Convenience constructor for register operands."""
    return Reg(name)
