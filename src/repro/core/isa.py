"""F1's instruction set at residue-vector (RVec) granularity.

A ciphertext polynomial is L residue vectors; every compute instruction reads
one or two RVecs and produces one.  This is the granularity the paper's
compiler schedules ("our scratchpad stores at least 1024 residue vectors").

Values carry a *kind* so the data-movement scheduler can classify traffic the
way Fig. 9a does: key-switch hints (KSH), program inputs, plaintext operands,
and intermediates (which spill/fill).

The instruction graph is stored as parallel int columns (struct of arrays),
one entry per instruction and one per value, with the users of every value
in compressed-sparse-row form.  A compile touches tens of thousands of RVecs;
the schedulers and the checker index these columns directly.  The
:class:`Instruction` and :class:`Value` records are materialised only when a
caller asks for them (``graph.instructions``, ``graph.values``).
"""

from __future__ import annotations

import enum
from collections.abc import Sequence
from dataclasses import dataclass, field


class InstrKind(enum.Enum):
    NTT = "ntt"
    INTT = "intt"
    MUL = "mul"
    ADD = "add"
    SUB = "sub"
    AUT = "aut"

    @property
    def fu(self) -> str:
        """Functional-unit family executing this instruction."""
        if self in (InstrKind.NTT, InstrKind.INTT):
            return "ntt"
        if self is InstrKind.AUT:
            return "aut"
        if self is InstrKind.MUL:
            return "mul"
        return "add"


class ValueKind(enum.Enum):
    INPUT = "input"        # encrypted program input (off-chip master copy)
    KSH = "ksh"            # key-switch hint RVec (off-chip master copy)
    PLAIN = "plain"        # unencrypted operand (off-chip master copy)
    INTERMEDIATE = "intermediate"
    OUTPUT = "output"


#: column codes: ``graph.kind[i]`` indexes INSTR_KINDS, ``graph.value_kind[v]``
#: indexes VALUE_KINDS
INSTR_KINDS = tuple(InstrKind)
VALUE_KINDS = tuple(ValueKind)
_INSTR_CODE = {k: i for i, k in enumerate(INSTR_KINDS)}
_VALUE_CODE = {k: i for i, k in enumerate(VALUE_KINDS)}
_INTERMEDIATE = _VALUE_CODE[ValueKind.INTERMEDIATE]


@dataclass
class Value:
    """One residue vector flowing through the instruction DFG."""

    value_id: int
    kind: ValueKind
    producer: int | None = None          # instruction id, None for off-chip
    users: list[int] = field(default_factory=list)
    hint_id: str | None = None           # for KSH values: which hint
    name: str = ""

    @property
    def off_chip_master(self) -> bool:
        """True if the value originates off-chip (loads of it are clean)."""
        return self.kind in (ValueKind.INPUT, ValueKind.KSH, ValueKind.PLAIN)


@dataclass
class Instruction:
    """One vector operation; ``priority`` is the phase-1 global order."""

    instr_id: int
    kind: InstrKind
    inputs: tuple[int, ...]
    output: int
    n: int
    priority: int = 0
    he_op: int = -1                      # originating homomorphic op
    rotate_exponent: int = 0             # for AUT


class RowView(Sequence):
    """A list-like view of parallel columns, one record per row.

    ``make(*row)`` builds the record of one row; ``split(record)`` (optional)
    turns a record back into its column entries, which makes the view
    assignable item by item.
    """

    def __init__(self, columns, make, split=None):
        self.columns = columns
        self.make = make
        self.split = split

    def __len__(self) -> int:
        return len(self.columns[0])

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        return self.make(*(c[i] for c in self.columns))

    def __iter__(self):
        return map(self.make, *self.columns)

    def __setitem__(self, i, record) -> None:
        for column, entry in zip(self.columns, self.split(record)):
            column[i] = entry


def columns_from(records, split, width: int) -> list[list]:
    """The inverse of :class:`RowView`: ``width`` columns from records."""
    rows = [split(r) for r in records]
    return [list(c) for c in zip(*rows)] if rows else [[] for _ in range(width)]


class InstructionGraph:
    """Instruction-level dataflow graph (the output of compiler phase 1).

    Per instruction ``i``: ``kind[i]`` (an INSTR_KINDS code), operands
    ``in0[i]`` and ``in1[i]`` (``-1`` for a unary op), result ``out[i]``,
    ``he_op[i]`` and ``rotate_exponent[i]``.  Per value ``v``:
    ``value_kind[v]`` (a VALUE_KINDS code) and ``producer[v]`` (``-1`` for
    off-chip values).  Instructions are appended in topological order, so
    an instruction's id is its phase-1 priority.
    """

    def __init__(self, n: int):
        self.n = n
        self.kind: list[int] = []
        self.in0: list[int] = []
        self.in1: list[int] = []
        self.out: list[int] = []
        self.he_op: list[int] = []
        self.rotate_exponent: list[int] = []
        self.value_kind: list[int] = []
        self.producer: list[int] = []
        self.hint_of: dict[int, str] = {}    # KSH value id -> hint id
        self.name_of: dict[int, str] = {}    # named (off-chip) values
        self._users: tuple[list[int], list[int]] | None = None

    @property
    def num_instructions(self) -> int:
        return len(self.kind)

    @property
    def num_values(self) -> int:
        return len(self.value_kind)

    # ------------------------------------------------------------- building
    def new_value(self, kind: ValueKind, *, producer: int | None = None,
                  hint_id: str | None = None, name: str = "") -> int:
        vid = len(self.value_kind)
        self.value_kind.append(_VALUE_CODE[kind])
        self.producer.append(-1 if producer is None else producer)
        if hint_id is not None:
            self.hint_of[vid] = hint_id
        if name:
            self.name_of[vid] = name
        self._users = None
        return vid

    def emit(self, kind: InstrKind, inputs: tuple[int, ...], *,
             he_op: int = -1, rotate_exponent: int = 0) -> int:
        """Append an instruction; returns the produced (intermediate) value id."""
        instr_id = len(self.kind)
        out = len(self.value_kind)
        self.value_kind.append(_INTERMEDIATE)
        self.producer.append(instr_id)
        self.kind.append(_INSTR_CODE[kind])
        self.in0.append(inputs[0])
        self.in1.append(inputs[1] if len(inputs) > 1 else -1)
        self.out.append(out)
        self.he_op.append(he_op)
        self.rotate_exponent.append(rotate_exponent)
        self._users = None
        return out

    # ------------------------------------------------------------ queries
    def users_csr(self) -> tuple[list[int], list[int]]:
        """``(offsets, users)``: the users of value ``v`` are
        ``users[offsets[v]:offsets[v + 1]]``, in instruction order, once per
        operand slot (an instruction reading ``v`` twice is listed twice)."""
        if self._users is None:
            counts = [0] * (self.num_values + 1)
            for a, b in zip(self.in0, self.in1):
                counts[a + 1] += 1
                if b >= 0:
                    counts[b + 1] += 1
            offsets = counts
            for v in range(1, len(offsets)):
                offsets[v] += offsets[v - 1]
            fill = offsets[:-1]
            users = [0] * offsets[-1]
            for i, (a, b) in enumerate(zip(self.in0, self.in1)):
                users[fill[a]] = i
                fill[a] += 1
                if b >= 0:
                    users[fill[b]] = i
                    fill[b] += 1
            self._users = (offsets, users)
        return self._users

    @property
    def instructions(self) -> RowView:
        """Materialised :class:`Instruction` records (built per access)."""
        n = self.n

        def make(i, k, a, b, o, he_op, rot):
            return Instruction(
                instr_id=i, kind=INSTR_KINDS[k],
                inputs=(a,) if b < 0 else (a, b), output=o, n=n, priority=i,
                he_op=he_op, rotate_exponent=rot,
            )

        return RowView((range(self.num_instructions), self.kind, self.in0,
                        self.in1, self.out, self.he_op, self.rotate_exponent),
                       make)

    @property
    def values(self) -> RowView:
        """Materialised :class:`Value` records (built per access)."""
        offsets, users = self.users_csr()

        def make(v, k, p):
            return Value(
                value_id=v, kind=VALUE_KINDS[k], producer=None if p < 0 else p,
                users=users[offsets[v]:offsets[v + 1]],
                hint_id=self.hint_of.get(v), name=self.name_of.get(v, ""),
            )

        return RowView((range(self.num_values), self.value_kind, self.producer),
                       make)

    def stats(self) -> dict:
        by_kind: dict[str, int] = {}
        for k in self.kind:
            name = INSTR_KINDS[k].value
            by_kind[name] = by_kind.get(name, 0) + 1
        by_value: dict[str, int] = {}
        for k in self.value_kind:
            name = VALUE_KINDS[k].value
            by_value[name] = by_value.get(name, 0) + 1
        return {
            "instructions": self.num_instructions,
            "values": self.num_values,
            "by_kind": by_kind,
            "by_value_kind": by_value,
        }

    def validate(self) -> None:
        """Structural invariants: SSA and topological order.  User lists are
        derived from the operand columns, so they cannot go stale."""
        producer = self.producer
        for i, (a, b, o) in enumerate(zip(self.in0, self.in1, self.out)):
            for vid in (a, b) if b >= 0 else (a,):
                if producer[vid] >= i:
                    raise ValueError(f"instr {i} uses value {vid} produced later")
            if producer[o] != i:
                raise ValueError(f"output of instr {i} mislinked")
