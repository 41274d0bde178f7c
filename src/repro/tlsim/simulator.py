"""Event-driven term-level symbolic simulation.

The simulator assigns an EUFM expression to every signal.  Stepping the
clock evaluates the combinational logic and captures latch inputs.  The
evaluation is *event-driven*: a component is re-evaluated only when one of
its input expressions actually changed since its last evaluation — thanks
to hash-consing, "changed" is a constant-time identity test.  This is the
cone-of-influence optimization the paper describes for TLSim (Sect. 7):
during flushing, only one computation slice is active per step, so only
its cone is re-evaluated.

The circuit is static, so the simulator compiles it once: signals are
numbered and their values kept in a list, every combinational component
becomes a schedule slot (its ``Fn`` plus input and output signal
numbers, in topological order), and every signal knows the slots that
read it.  Settling walks the slots with a dirty flag per slot.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import ReproError
from ..eufm.ast import Expr, Formula, Term
from ..guard.deadline import current_deadline
from ..obs.tracer import current_tracer
from .circuit import Circuit
from .components import Fn
from .signals import FORMULA, Signal

__all__ = ["Simulator", "SimulationError", "SimulatorStats"]


class SimulationError(ReproError, RuntimeError):
    """A signal was read before being driven or initialized.

    Subclasses ``RuntimeError`` for backward compatibility, but is part of
    the :class:`~repro.errors.ReproError` taxonomy so the campaign runner
    treats simulator failures as structured (non-retryable) outcomes.
    """


@dataclass
class SimulatorStats:
    """Work counters, used by the Table 1 benchmark."""

    steps: int = 0
    component_evaluations: int = 0
    components_skipped: int = 0


#: one schedule slot: the block's function, a reader of its input values
#: (as a tuple) from the value list, and its output signal numbers.
_Slot = Tuple[Callable[..., object], Callable[[list], tuple], Tuple[int, ...]]


def _input_reader(indices: Tuple[int, ...]) -> Callable[[list], tuple]:
    if len(indices) > 1:
        return itemgetter(*indices)
    if indices:
        (only,) = indices
        return lambda values: (values[only],)
    return lambda values: ()


class Simulator:
    """Symbolic simulator for one :class:`Circuit`."""

    def __init__(self, circuit: Circuit) -> None:
        circuit.freeze()
        self.circuit = circuit
        self.stats = SimulatorStats()
        # Counter values already pushed to the tracer (see publish_counters).
        self._published = SimulatorStats()

        self._order = order = circuit.combinational_order()
        self._index: Dict[Signal, int] = {}
        self._signals: List[Signal] = []
        for component in circuit.components:
            for signal in component.inputs + component.outputs:
                if signal not in self._index:
                    self._index[signal] = len(self._signals)
                    self._signals.append(signal)
        index = self._index
        self._values: List[Optional[Expr]] = [None] * len(self._signals)
        self._sorts = [
            Formula if signal.sort == FORMULA else Term
            for signal in self._signals
        ]
        self._slots: List[_Slot] = []
        for component in order:
            if not isinstance(component, Fn):
                raise SimulationError(
                    f"combinational component {component.name!r} is a "
                    f"{type(component).__name__}, not an Fn block"
                )
            inputs = tuple(index[signal] for signal in component.inputs)
            outputs = tuple(index[signal] for signal in component.outputs)
            self._slots.append((component.fn, _input_reader(inputs), outputs))
        slot_of = {component: slot for slot, component in enumerate(order)}
        # Per signal, the slots that read it, in schedule order (latches
        # are captured by step, not scheduled).
        self._readers = [
            sorted({
                slot_of[reader] for reader in circuit.readers_of(signal)
                if reader in slot_of
            })
            for signal in self._signals
        ]
        self._latches = [
            (index[latch.data], index[latch.out]) for latch in circuit.latches
        ]
        self._state = {latch.out for latch in circuit.latches}
        # Last-seen input values per slot, for change detection.
        self._last_inputs: List[Optional[tuple]] = [None] * len(order)
        self._dirty = [True] * len(order)
        # Lowest dirty slot; len(order) when nothing is dirty.
        self._first_dirty = 0

    # ------------------------------------------------------------------
    # State and input management
    # ------------------------------------------------------------------

    def init_state(self, assignments: Dict[Signal, Expr]) -> None:
        """Set the present-state value of latch outputs (initial state)."""
        for signal, expr in assignments.items():
            if signal not in self._state:
                raise SimulationError(f"{signal.name!r} is not a latch output")
            self._set(self._index[signal], expr)

    def set_input(self, signal: Signal, expr: Expr) -> None:
        """Drive a primary input for the upcoming evaluation."""
        if self.circuit.driver_of(signal) is not None:
            raise SimulationError(f"{signal.name!r} is driven by the circuit")
        if signal not in self._index:
            raise SimulationError(f"{signal.name!r} is not in the circuit")
        self._set(self._index[signal], expr)

    def set_inputs(self, assignments: Dict[Signal, Expr]) -> None:
        for signal, expr in assignments.items():
            self.set_input(signal, expr)

    def _set(self, signal: int, expr: Expr) -> None:
        if not isinstance(expr, self._sorts[signal]):
            self._sort_error(signal)
        self._assign(signal, expr)

    def _assign(self, signal: int, expr: Expr) -> None:
        if self._values[signal] is expr:
            return
        self._values[signal] = expr
        readers = self._readers[signal]
        for reader in readers:
            self._dirty[reader] = True
        if readers and readers[0] < self._first_dirty:
            self._first_dirty = readers[0]

    def peek(self, signal: Signal) -> Expr:
        """Current expression on ``signal`` (after :meth:`settle`)."""
        index = self._index.get(signal)
        value = None if index is None else self._values[index]
        if value is None:
            raise SimulationError(f"{signal.name!r} has no value yet")
        return value

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------

    def settle(self) -> None:
        """Evaluate combinational logic (event-driven, topological order)."""
        count = len(self._slots)
        if self._first_dirty >= count:
            return
        deadline = current_deadline()
        values, sorts, readers = self._values, self._sorts, self._readers
        slots, dirty, last_inputs = self._slots, self._dirty, self._last_inputs
        evaluations = 0
        # Readers of a slot's outputs sit later in topological order, so
        # one forward pass settles everything.
        for position in range(self._first_dirty, count):
            if not dirty[position]:
                continue
            dirty[position] = False
            fn, read_inputs, outputs = slots[position]
            inputs = read_inputs(values)
            last = last_inputs[position]
            if last is None:
                # Once driven a signal stays driven, so a slot's inputs
                # need checking only before its first evaluation.
                self._check_driven(inputs, position)
            elif last == inputs:
                continue
            last_inputs[position] = inputs
            evaluations += 1
            deadline.tick("tlsim")
            result = fn(*inputs)
            if len(outputs) == 1:
                result = (result,)
            elif len(result) != len(outputs):
                raise ValueError(
                    f"{self._order[position].name}: fn returned "
                    f"{len(result)} values for {len(outputs)} outputs"
                )
            for signal, expr in zip(outputs, result):
                if not isinstance(expr, sorts[signal]):
                    self._sort_error(signal)
                if values[signal] is not expr:
                    values[signal] = expr
                    for reader in readers[signal]:
                        dirty[reader] = True
        self._first_dirty = count
        self.stats.component_evaluations += evaluations
        self.stats.components_skipped += count - evaluations

    def step(self) -> None:
        """One clock cycle: settle combinational logic, capture latches."""
        current_deadline().check("tlsim")
        self.settle()
        values = self._values
        # Capture every latch before writing any: one latch's output may
        # be another's data.  Data and output share a sort (checked when
        # the latch is built) and values are sort-checked on entry.
        captured = []
        for data, out in self._latches:
            expr = values[data]
            if expr is None:
                self._undriven(data)
            if expr is not values[out]:
                captured.append((out, expr))
        for out, expr in captured:
            self._assign(out, expr)
        self.stats.steps += 1
        current_tracer().add("tlsim.cycles", 1)

    def run(self, cycles: int) -> None:
        for _ in range(cycles):
            self.step()

    def publish_counters(self, prefix: str = "tlsim") -> None:
        """Push the work counters accumulated since the last publish onto
        the ambient tracer's current span (a no-op without a tracer)."""
        tracer = current_tracer()
        stats, last = self.stats, self._published
        tracer.add(
            f"{prefix}.component_evaluations",
            stats.component_evaluations - last.component_evaluations,
        )
        tracer.add(
            f"{prefix}.components_skipped",
            stats.components_skipped - last.components_skipped,
        )
        self._published = SimulatorStats(
            steps=stats.steps,
            component_evaluations=stats.component_evaluations,
            components_skipped=stats.components_skipped,
        )

    # ------------------------------------------------------------------
    # Errors
    # ------------------------------------------------------------------

    def _check_driven(self, inputs: tuple, position: int) -> None:
        for value, signal in zip(inputs, self._order[position].inputs):
            if value is None:
                self._undriven(self._index[signal])

    def _undriven(self, signal: int) -> None:
        raise SimulationError(
            f"signal {self._signals[signal].name!r} read before it was "
            "driven; set primary inputs and initial state first"
        )

    def _sort_error(self, signal: int) -> None:
        name = self._signals[signal].name
        if self._sorts[signal] is Formula:
            raise SimulationError(f"control signal {name!r} needs a formula")
        raise SimulationError(f"signal {name!r} needs a term")
