"""Components of the term-level structural HDL.

A component reads input signals and drives output signals with EUFM
expressions.  Combinational components recompute their outputs whenever an
input changes (the event-driven evaluation of the simulator); latches
capture their data input at the end of a step.

``Fn`` is the combinational block — the only one the simulator
evaluates: an arbitrary Python function from input expressions to output
expressions, used for per-slice processor logic.  The convenience
subclasses (gates, muxes, UF blocks, memory ports) cover the common
structural idioms and make circuit descriptions read like a netlist.
"""

from __future__ import annotations

from typing import Callable, Sequence, Tuple

from ..eufm import builder
from .signals import FORMULA, Signal

__all__ = [
    "Component",
    "Fn",
    "Latch",
    "AndGate",
    "OrGate",
    "NotGate",
    "Mux",
    "UFBlock",
    "UPBlock",
    "EqComparator",
    "MemRead",
    "MemWrite",
]


class Component:
    """Base class: a named block with input and output signals."""

    def __init__(
        self, name: str, inputs: Sequence[Signal], outputs: Sequence[Signal]
    ) -> None:
        if not name:
            raise ValueError("component needs a non-empty name")
        self.name = name
        self.inputs: Tuple[Signal, ...] = tuple(inputs)
        self.outputs: Tuple[Signal, ...] = tuple(outputs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name}>"


class Fn(Component):
    """A combinational block defined by a Python function.

    ``fn`` receives the input expressions (in declared order) and returns
    the output expression, or a tuple of expressions when the block drives
    several outputs.
    """

    def __init__(
        self,
        name: str,
        inputs: Sequence[Signal],
        outputs: Sequence[Signal],
        fn: Callable[..., object],
    ) -> None:
        super().__init__(name, inputs, outputs)
        self.fn = fn


class Latch(Component):
    """A state element: output holds state; ``data`` is captured on step.

    The declared input is the next-state signal and the single output is
    the present-state signal.
    """

    def __init__(self, name: str, data: Signal, out: Signal) -> None:
        if data.sort != out.sort:
            raise ValueError(f"latch {name}: sort mismatch {data} vs {out}")
        super().__init__(name, [data], [out])
        self.data = data
        self.out = out


class AndGate(Fn):
    def __init__(self, name: str, inputs: Sequence[Signal], out: Signal) -> None:
        super().__init__(name, inputs, [out], lambda *args: builder.and_(*args))


class OrGate(Fn):
    def __init__(self, name: str, inputs: Sequence[Signal], out: Signal) -> None:
        super().__init__(name, inputs, [out], lambda *args: builder.or_(*args))


class NotGate(Fn):
    def __init__(self, name: str, input_: Signal, out: Signal) -> None:
        super().__init__(name, [input_], [out], builder.not_)


class Mux(Fn):
    """2-way multiplexer: ``out = select ? high : low``."""

    def __init__(
        self, name: str, select: Signal, high: Signal, low: Signal, out: Signal
    ) -> None:
        if out.sort == FORMULA:
            fn = lambda s, h, l: builder.ite_formula(s, h, l)
        else:
            fn = lambda s, h, l: builder.ite_term(s, h, l)
        super().__init__(name, [select, high, low], [out], fn)


class UFBlock(Fn):
    """A functional unit abstracted by an uninterpreted function."""

    def __init__(
        self, name: str, symbol: str, inputs: Sequence[Signal], out: Signal
    ) -> None:
        super().__init__(
            name, inputs, [out], lambda *args: builder.uf(symbol, args)
        )


class UPBlock(Fn):
    """A control unit abstracted by an uninterpreted predicate."""

    def __init__(
        self, name: str, symbol: str, inputs: Sequence[Signal], out: Signal
    ) -> None:
        super().__init__(
            name, inputs, [out], lambda *args: builder.up(symbol, args)
        )


class EqComparator(Fn):
    """Word-level equality comparator."""

    def __init__(self, name: str, lhs: Signal, rhs: Signal, out: Signal) -> None:
        super().__init__(name, [lhs, rhs], [out], builder.eq)


class MemRead(Fn):
    """A read port on a memory signal."""

    def __init__(self, name: str, mem: Signal, addr: Signal, out: Signal) -> None:
        super().__init__(name, [mem, addr], [out], builder.read)


class MemWrite(Fn):
    """A conditional write port: drives the next memory state."""

    def __init__(
        self,
        name: str,
        mem: Signal,
        enable: Signal,
        addr: Signal,
        data: Signal,
        out: Signal,
    ) -> None:
        def fn(mem_expr, enable_expr, addr_expr, data_expr):
            return builder.ite_term(
                enable_expr,
                builder.write(mem_expr, addr_expr, data_expr),
                mem_expr,
            )

        super().__init__(name, [mem, enable, addr, data], [out], fn)
