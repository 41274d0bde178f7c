"""Tests for the event-driven symbolic simulator."""

import pytest

from repro.eufm import (
    FALSE,
    TRUE,
    and_,
    bvar,
    eq,
    ite_term,
    not_,
    read,
    tvar,
    uf,
    write,
)
from repro.tlsim import (
    AndGate,
    Circuit,
    Component,
    EqComparator,
    Fn,
    Latch,
    MemRead,
    MemWrite,
    Mux,
    NotGate,
    Signal,
    SimulationError,
    Simulator,
    SimulatorStats,
    UFBlock,
    FORMULA,
    MEMORY,
    TERM,
)


def _counter_circuit():
    """PC <- NextPC(PC), gated by an enable input."""
    circuit = Circuit("counter")
    pc = Signal("pc", TERM)
    pc_next = Signal("pc_next", TERM)
    pc_inc = Signal("pc_inc", TERM)
    enable = Signal("enable", FORMULA)
    circuit.add(UFBlock("inc", "NextPC", [pc], pc_inc))
    circuit.add(Mux("gate", enable, pc_inc, pc, pc_next))
    circuit.add(Latch("pc_latch", pc_next, pc))
    return circuit, pc, enable


class TestBasicSimulation:
    def test_combinational_evaluation(self):
        circuit = Circuit()
        a, b, out = Signal("a", FORMULA), Signal("b", FORMULA), Signal("o", FORMULA)
        circuit.add(AndGate("g", [a, b], out))
        sim = Simulator(circuit)
        sim.set_input(a, bvar("p"))
        sim.set_input(b, TRUE)
        sim.settle()
        assert sim.peek(out) is bvar("p")

    def test_latch_captures_on_step(self):
        circuit, pc, enable = _counter_circuit()
        sim = Simulator(circuit)
        sim.init_state({pc: tvar("PC0")})
        sim.set_input(enable, TRUE)
        sim.step()
        assert sim.peek(pc) is uf("NextPC", [tvar("PC0")])
        sim.step()
        assert sim.peek(pc) is uf("NextPC", [uf("NextPC", [tvar("PC0")])])

    def test_disabled_counter_holds(self):
        circuit, pc, enable = _counter_circuit()
        sim = Simulator(circuit)
        sim.init_state({pc: tvar("PC0")})
        sim.set_input(enable, FALSE)
        sim.run(3)
        assert sim.peek(pc) is tvar("PC0")

    def test_symbolic_enable_builds_ite(self):
        circuit, pc, enable = _counter_circuit()
        sim = Simulator(circuit)
        sim.init_state({pc: tvar("PC0")})
        sim.set_input(enable, bvar("fetch"))
        sim.step()
        expected = ite_term(
            bvar("fetch"), uf("NextPC", [tvar("PC0")]), tvar("PC0")
        )
        assert sim.peek(pc) is expected

    def test_uninitialized_state_raises(self):
        circuit, pc, enable = _counter_circuit()
        sim = Simulator(circuit)
        sim.set_input(enable, TRUE)
        with pytest.raises(SimulationError):
            sim.step()

    def test_driving_non_input_rejected(self):
        circuit = Circuit()
        a, out = Signal("a", FORMULA), Signal("o", FORMULA)
        circuit.add(NotGate("g", a, out))
        sim = Simulator(circuit)
        with pytest.raises(SimulationError):
            sim.set_input(out, TRUE)

    def test_sort_checking(self):
        circuit = Circuit()
        a, out = Signal("a", FORMULA), Signal("o", FORMULA)
        circuit.add(NotGate("g", a, out))
        sim = Simulator(circuit)
        with pytest.raises(SimulationError):
            sim.set_input(a, tvar("x"))


class TestMemoryPorts:
    def test_register_file_write_then_read(self):
        circuit = Circuit()
        rf = Signal("rf", MEMORY)
        rf_next = Signal("rf_next", MEMORY)
        wen = Signal("wen", FORMULA)
        waddr, wdata = Signal("waddr", TERM), Signal("wdata", TERM)
        raddr, rdata = Signal("raddr", TERM), Signal("rdata", TERM)
        circuit.add(MemWrite("wp", rf, wen, waddr, wdata, rf_next))
        circuit.add(MemRead("rp", rf, raddr, rdata))
        circuit.add(Latch("rf_latch", rf_next, rf))
        sim = Simulator(circuit)
        sim.init_state({rf: tvar("RF0")})
        sim.set_inputs(
            {
                wen: TRUE,
                waddr: tvar("r1"),
                wdata: tvar("v1"),
                raddr: tvar("r2"),
            }
        )
        sim.step()
        assert sim.peek(rf) is write(tvar("RF0"), tvar("r1"), tvar("v1"))
        sim.settle()
        assert sim.peek(rdata) is read(
            write(tvar("RF0"), tvar("r1"), tvar("v1")), tvar("r2")
        )


class TestEventDriven:
    def test_unchanged_inputs_skip_evaluation(self):
        circuit, pc, enable = _counter_circuit()
        sim = Simulator(circuit)
        sim.init_state({pc: tvar("PC0")})
        sim.set_input(enable, FALSE)
        sim.step()
        evals_after_first = sim.stats.component_evaluations
        # PC did not change (enable false), so the second step should skip
        # the whole cone.
        sim.step()
        assert sim.stats.component_evaluations == evals_after_first

    def test_cone_of_influence_scoping(self):
        """Two independent slices: poking one leaves the other unevaluated."""
        circuit = Circuit()
        evaluated = []

        def make_slice(i):
            inp = Signal(f"in{i}", TERM)
            out = Signal(f"out{i}", TERM)

            def fn(x):
                evaluated.append(i)
                return uf(f"slice{i}", [x])

            circuit.add(Fn(f"s{i}", [inp], [out], fn))
            return inp, out

        in0, _ = make_slice(0)
        in1, _ = make_slice(1)
        sim = Simulator(circuit)
        sim.set_input(in0, tvar("x0"))
        sim.set_input(in1, tvar("x1"))
        sim.settle()
        assert sorted(evaluated) == [0, 1]
        evaluated.clear()
        sim.set_input(in0, tvar("x0_new"))
        sim.settle()
        assert evaluated == [0]

    def test_stable_state_costs_no_evaluations(self):
        circuit, pc, enable = _counter_circuit()
        sim = Simulator(circuit)
        sim.init_state({pc: tvar("PC0")})
        sim.set_input(enable, FALSE)
        sim.step()
        evaluations_after_first = sim.stats.component_evaluations
        sim.run(4)
        assert sim.stats.component_evaluations == evaluations_after_first
        assert sim.stats.steps == 5


class TestComparator:
    def test_eq_comparator(self):
        circuit = Circuit()
        a, b = Signal("a", TERM), Signal("b", TERM)
        out = Signal("eq_out", FORMULA)
        circuit.add(EqComparator("cmp", a, b, out))
        sim = Simulator(circuit)
        sim.set_input(a, tvar("x"))
        sim.set_input(b, tvar("y"))
        sim.settle()
        assert sim.peek(out) is eq(tvar("x"), tvar("y"))
        sim.set_input(b, tvar("x"))
        sim.settle()
        assert sim.peek(out) is TRUE


class TestCompiledSchedule:
    def test_counts_pinned_on_reg_reg_n8_k2_diagram(self):
        """Which slots are evaluated and which skipped is part of the
        simulator's contract: traces and benchmarks report the counts."""
        from repro.processor import ProcessorConfig
        from repro.processor.abstraction import flush_range
        from repro.processor.ooo import build_ooo_processor, make_simulator

        proc = build_ooo_processor(ProcessorConfig(n_rob=8, issue_width=2))
        impl = make_simulator(proc)
        impl.step()
        flush_range(impl, proc, 1, 10)
        spec = make_simulator(proc)
        flush_range(spec, proc, 1, 10)
        assert impl.stats == SimulatorStats(
            steps=11, component_evaluations=186, components_skipped=155
        )
        assert spec.stats == SimulatorStats(
            steps=10, component_evaluations=144, components_skipped=166
        )

    def test_read_before_driven_names_the_signal(self):
        circuit = Circuit()
        a, b, out = Signal("a", FORMULA), Signal("b", FORMULA), Signal("o", FORMULA)
        circuit.add(AndGate("g", [a, b], out))
        sim = Simulator(circuit)
        sim.set_input(a, bvar("p"))
        with pytest.raises(SimulationError, match="'b' read before it was"):
            sim.settle()

    def test_latch_data_read_before_driven(self):
        circuit = Circuit()
        data, state = Signal("d", TERM), Signal("q", TERM)
        circuit.add(Latch("l", data, state))
        sim = Simulator(circuit)
        sim.init_state({state: tvar("Q0")})
        with pytest.raises(SimulationError, match="'d' read before"):
            sim.step()

    def test_fn_returning_wrong_sort_rejected(self):
        circuit = Circuit()
        a, out = Signal("a", TERM), Signal("o", FORMULA)
        circuit.add(Fn("bad", [a], [out], lambda x: uf("f", [x])))
        sim = Simulator(circuit)
        sim.set_input(a, tvar("x"))
        with pytest.raises(SimulationError, match="'o' needs a formula"):
            sim.settle()

    def test_fn_returning_wrong_count_rejected(self):
        circuit = Circuit()
        a = Signal("a", TERM)
        o1, o2 = Signal("o1", TERM), Signal("o2", TERM)
        circuit.add(Fn("pair", [a], [o1, o2], lambda x: (x,)))
        sim = Simulator(circuit)
        sim.set_input(a, tvar("x"))
        with pytest.raises(ValueError, match="pair: fn returned 1 values"):
            sim.settle()

    def test_set_input_on_driven_signal_rejected(self):
        circuit, pc, enable = _counter_circuit()
        sim = Simulator(circuit)
        with pytest.raises(SimulationError, match="'pc_next' is driven by"):
            sim.set_inputs({enable: TRUE, circuit.latches[0].data: tvar("x")})
        with pytest.raises(SimulationError, match="'enable' is not a latch"):
            sim.init_state({enable: TRUE})
        with pytest.raises(SimulationError, match="'stray' is not in the"):
            sim.set_input(Signal("stray", TERM), tvar("x"))

    def test_non_fn_combinational_component_rejected(self):
        circuit = Circuit()
        a, out = Signal("a", TERM), Signal("o", TERM)
        circuit.add(Component("opaque", [a], [out]))
        with pytest.raises(SimulationError, match="'opaque' is a Component"):
            Simulator(circuit)

    def test_multi_output_fn_and_repeated_input(self):
        circuit = Circuit()
        a = Signal("a", TERM)
        o1, o2 = Signal("o1", TERM), Signal("o2", FORMULA)
        circuit.add(Fn("both", [a, a], [o1, o2],
                       lambda x, y: (uf("f", [x]), eq(x, y))))
        sim = Simulator(circuit)
        sim.set_input(a, tvar("x"))
        sim.settle()
        assert sim.peek(o1) is uf("f", [tvar("x")])
        assert sim.peek(o2) is TRUE
        assert sim.stats.component_evaluations == 1

    def test_input_restored_before_settle_skips_evaluation(self):
        circuit = Circuit()
        a, out = Signal("a", TERM), Signal("o", TERM)
        circuit.add(UFBlock("f", "f", [a], out))
        sim = Simulator(circuit)
        sim.set_input(a, tvar("x"))
        sim.settle()
        sim.set_input(a, tvar("y"))
        sim.set_input(a, tvar("x"))
        sim.settle()
        assert sim.stats == SimulatorStats(
            steps=0, component_evaluations=1, components_skipped=1
        )
