"""The rewriting engine: proving the instructions initially in the ROB
produce equal updates along both sides of the commutative diagram.

Processing order follows Sect. 6: front of the ROB first.  For every
initial entry ``i`` the engine

1. locates the entry's updates on the implementation side — two for an
   instruction within the retire width (retirement during the regular
   cycle, completion during flushing), one otherwise;
2. checks the reordering side conditions (rule 1) against every update
   standing between them — structural disjointness from in-order
   retirement;
3. merges the pair (rule 2): contexts ``C AND retire_i`` and
   ``C AND NOT retire_i`` combine under ``C``, matching the
   specification side's context (``C`` is ``Valid_i`` for the paper's
   register-register design; the memory families add the
   writes-register-file / is-store kind conjuncts);
4. proves the written data equal (rule 3) by a case split on
   ``ValidResult_i`` — and, in the memory families, on the entry's
   symbolic instruction-kind variables — with structural reduction,
   including the forwarding-versus-specification-read chain walk for
   operands of instructions executed during the regular cycle (the same
   walk handles register forwarding and store-to-load forwarding: both
   chains are built from exactly the pieces ``push_read`` produces);
5. removes the proven pair from both sides (rule 4).

The memory families maintain *two* update chains per side — the Register
File and the Data Memory — processed in lock step entry by entry, since a
load's data references the Data-Memory state of the already-proven prefix
and a store's data references the Register-File state of it.

For the *branch* families the engine declines to reduce
(``result.reduction == "none"``): the wrong-path flag threaded through
the abstraction function couples each entry's completion context to the
taken-branch outcomes of *every older entry*, on the implementation side
through post-step latched state and on the specification side through
the initial variables, so the retire/flush context pair of entry ``i >= 2``
has no structural complement and rule 2 cannot fire.  The engine then
returns the *unreduced* correctness formula and the caller falls back to
the Positive-Equality translation with the precise memory model — making
"does the rewriting-rule ROB-size independence survive branches?" an
honestly measurable question (see EXPERIMENTS.md).  A rule-5-style
normalization of the wrong-path contexts is future work.

A slice that does not conform is reported as a potential bug with its
entry number — the paper's 72nd-slice experiment.  After all ``N`` initial
entries are processed, the correctness formula is rebuilt over fresh
``RegFile_equal_state`` (and, for memory families, ``DMem_equal_state``)
variables and depends only on the newly fetched instructions.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..errors import RewriteFailed
from ..eufm import builder
from ..guard.deadline import current_deadline
from ..eufm.ast import (
    FALSE,
    TRUE,
    BoolVar,
    Expr,
    Formula,
    Term,
    TermITE,
    TermVar,
    UFApp,
)
from ..eufm.memory import push_read
from ..obs.tracer import current_tracer
from ..processor.correctness import DiagramArtifacts, build_correctness_formula
from ..processor.families import Family
from ..processor.isa import ALU, MEM_ADDR, kind_precedence, writes_reg_file
from .rules import (
    CaseWalk,
    RuleViolation,
    contexts_disjoint,
    merge_contexts,
    prove_forwarding_matches_read,
    substitute_opaque,
)
from .updates import ChainItem, UpdateChain, decompose_chain

__all__ = ["RewriteFailure", "RewriteResult", "rewrite_diagram"]

_fresh_counter = itertools.count(1)


@dataclass(frozen=True)
class RewriteFailure:
    """A computation slice that did not conform to the expected structure."""

    entry: int
    stage: str  # "locate" | "reorder" | "merge" | "data"
    detail: str

    def describe(self) -> str:
        return f"slice {self.entry} failed at {self.stage}: {self.detail}"


@dataclass
class RewriteResult:
    """Outcome of applying the rewriting rules to a simulated diagram."""

    artifacts: DiagramArtifacts
    proved_entries: List[int] = field(default_factory=list)
    failure: Optional[RewriteFailure] = None
    #: ``"full"`` — every initial entry proved and removed, the reduced
    #: formula depends only on the fetched instructions; ``"none"`` — the
    #: engine declined (branch families) and ``reduced_formula`` is the
    #: *unreduced* correctness formula, to be decided with the precise
    #: memory model.
    reduction: str = "full"
    #: the simplified correctness formula (None when a slice failed).
    reduced_formula: Optional[Formula] = None
    #: the implementation-side Register File over ``RegFile_equal_state``.
    reduced_rf_impl: Optional[Term] = None
    #: the specification-side Register Files (0..k steps) over the same
    #: fresh variable.
    reduced_spec_rfs: List[Term] = field(default_factory=list)
    #: Data-Memory counterparts of the two fields above (memory families).
    reduced_dmem_impl: Optional[Term] = None
    reduced_spec_dmems: List[Term] = field(default_factory=list)
    #: how many times each rule fired, keyed by rule name — the tally
    #: journaled by campaigns and reported by ``repro lint``.
    rules_applied: Dict[str, int] = field(default_factory=dict)
    #: distinct nodes walked by the per-entry data-equality case splits
    #: (rule 3) — a deterministic measure of the rewriting work.
    nodes_visited: int = 0
    rewrite_seconds: float = 0.0

    @property
    def succeeded(self) -> bool:
        return self.failure is None


def rewrite_diagram(
    artifacts: DiagramArtifacts, criterion: str = "disjunction"
) -> RewriteResult:
    """Apply the Sect. 6 rewriting rules to the diagram's update sequences.

    Recorded as a ``"rewrite"`` span on the ambient tracer, carrying the
    per-rule firing counts and the number of entries proved/removed.
    """
    with current_tracer().span("rewrite") as span:
        result = _rewrite_diagram(artifacts, criterion)
        for rule, count in result.rules_applied.items():
            span.add(f"rewrite.rule.{rule}", count)
        span.add("rewrite.entries_proved", len(result.proved_entries))
        span.add(
            "rewrite.updates_removed", result.rules_applied.get("remove", 0)
        )
        span.add("rewrite.nodes_visited", result.nodes_visited)
        span.add("rewrite.passes", 1)
        span.set("rewrite.succeeded", 1.0 if result.succeeded else 0.0)
        span.set("rewrite.full_reduction",
                 1.0 if result.reduction == "full" else 0.0)
        return result


@dataclass
class _ChainState:
    """One update chain (Register File or Data Memory) being processed."""

    name: str
    working: List[ChainItem]
    spec_items: List[ChainItem]
    spec_chain: UpdateChain


def _rewrite_diagram(
    artifacts: DiagramArtifacts, criterion: str
) -> RewriteResult:
    start = time.perf_counter()
    result = RewriteResult(artifacts=artifacts)
    config = artifacts.config
    family = config.family_spec
    n, l = config.n_rob, config.retire_width
    proc_vars = artifacts.proc.vars

    if family.has_branches:
        # The wrong-path flag couples every entry's completion context to
        # all older entries' taken-branch outcomes (latched post-step state
        # on the implementation side, initial variables on the
        # specification side), so the rule-2 complement never materializes
        # structurally.  Decline to reduce; the caller decides the full
        # formula with the precise memory model instead.
        result.reduction = "none"
        result.reduced_formula = build_correctness_formula(
            artifacts, criterion=criterion
        )
        _tally(result.rules_applied, "fallback")
        result.rewrite_seconds = time.perf_counter() - start
        return result

    rf_state = _decompose_side(
        "RegFile",
        artifacts.rf_impl,
        artifacts.spec_states[0].reg_file,
        artifacts.initial_rf,
    )
    chains = [rf_state]
    if family.has_memory:
        chains.append(
            _decompose_side(
                "DMem",
                artifacts.dmem_impl,
                artifacts.spec_states[0].dmem,
                artifacts.initial_dmem,
            )
        )

    deadline = current_deadline()
    for entry in range(1, n + 1):
        deadline.check("rewrite")
        failure = _process_entry(entry, l, proc_vars, family, chains, result)
        if failure is not None:
            result.failure = failure
            result.rewrite_seconds = time.perf_counter() - start
            return result
        result.proved_entries.append(entry)

    for chain in chains:
        if chain.spec_items:
            result.failure = RewriteFailure(
                entry=0,
                stage="locate",
                detail=f"{len(chain.spec_items)} unmatched specification-"
                f"side {chain.name} updates",
            )
            result.rewrite_seconds = time.perf_counter() - start
            return result

    _build_reduced_formula(artifacts, criterion, result)
    result.rewrite_seconds = time.perf_counter() - start
    return result


def _decompose_side(
    name: str, impl_root: Term, spec_root: Term, base: Term
) -> _ChainState:
    impl_chain = decompose_chain(impl_root)
    spec_chain = decompose_chain(spec_root)
    if impl_chain.base is not base:
        raise RewriteFailed(
            f"implementation chain does not start at {name}",
            stage="decompose",
        )
    if spec_chain.base is not base:
        raise RewriteFailed(
            f"specification chain does not start at {name}",
            stage="decompose",
        )
    return _ChainState(
        name=name,
        working=list(impl_chain.items),
        spec_items=list(spec_chain.items),
        spec_chain=spec_chain,
    )


def _tally(rules_applied: Optional[Dict[str, int]], rule: str,
           count: int = 1) -> None:
    if rules_applied is not None and count:
        rules_applied[rule] = rules_applied.get(rule, 0) + count


def _entry_kind_flags(
    proc_vars: Dict[str, Expr], family: Family, entry: int
) -> Tuple[Formula, Formula, Formula]:
    """The prioritized (isb, isl, iss) kind flags of one initial entry."""
    raw_b = proc_vars[f"IsBranch{entry}"] if family.has_branches else FALSE
    raw_l = proc_vars[f"IsLoad{entry}"] if family.has_memory else FALSE
    raw_s = proc_vars[f"IsStore{entry}"] if family.has_memory else FALSE
    return kind_precedence(family, raw_b, raw_l, raw_s)


@dataclass
class _Located:
    """One entry's located-and-merged update on a single chain."""

    impl_data: Term
    flush_prev: Term
    spec_item: ChainItem
    spec_prev: Term
    removals: List[int]


def _locate_and_merge(
    entry: int,
    retire_width: int,
    chain: _ChainState,
    addr_node: Term,
    addr_desc: str,
    expected_context: Formula,
    rules_applied: Optional[Dict[str, int]],
) -> "_Located | RewriteFailure":
    """Rules 1–2 for one entry on one chain (no mutation yet)."""
    working, spec_items = chain.working, chain.spec_items
    positions = [i for i, item in enumerate(working) if item.addr is addr_node]
    expected = 2 if entry <= retire_width else 1
    if len(positions) != expected:
        return RewriteFailure(
            entry,
            "locate",
            f"expected {expected} {chain.name} update(s) to {addr_desc}, "
            f"found {len(positions)}",
        )
    if not spec_items:
        return RewriteFailure(
            entry, "locate", f"specification-side {chain.name} exhausted"
        )
    spec_item = spec_items[0]
    if spec_item.addr is not addr_node or spec_item.context is not expected_context:
        return RewriteFailure(
            entry,
            "locate",
            f"specification-side {chain.name} update does not have the "
            f"expected <context, {addr_desc}> form",
        )

    if entry <= retire_width:
        first_pos, second_pos = positions
        retire_item = working[first_pos]
        flush_item = working[second_pos]
        if first_pos != 0:
            return RewriteFailure(
                entry,
                "reorder",
                f"{chain.name} retirement update is not at the chain head",
            )
        # --- Rule 1: move the completion update down to the retirement ---
        for index in range(first_pos + 1, second_pos):
            between = working[index]
            if not contexts_disjoint(flush_item.context, between.context):
                return RewriteFailure(
                    entry,
                    "reorder",
                    f"{chain.name} completion update cannot move over the "
                    f"update to {getattr(between.addr, 'name', between.addr)}"
                    " — contexts overlap (in-order retirement violated?)",
                )
        _tally(rules_applied, "reorder", second_pos - first_pos - 1)
        # --- Rule 2: merge the complementary pair -------------------------
        merged = merge_contexts(retire_item.context, flush_item.context)
        if merged is None:
            return RewriteFailure(
                entry,
                "merge",
                f"{chain.name} retirement/completion contexts are not "
                "complementary",
            )
        merged_context, residual = merged
        if merged_context is not expected_context:
            return RewriteFailure(
                entry,
                "merge",
                f"merged {chain.name} context does not equal the "
                "specification-side context",
            )
        _tally(rules_applied, "merge")
        impl_data = builder.ite_term(residual, retire_item.data, flush_item.data)
        flush_prev = flush_item.prev_state
        removals = [first_pos, second_pos]
    else:
        (only_pos,) = positions
        flush_item = working[only_pos]
        if only_pos != 0:
            return RewriteFailure(
                entry,
                "reorder",
                f"{chain.name} completion update is not at the chain head",
            )
        if flush_item.context is not expected_context:
            return RewriteFailure(
                entry,
                "merge",
                f"{chain.name} completion context does not equal the "
                "specification-side context",
            )
        impl_data = flush_item.data
        flush_prev = flush_item.prev_state
        removals = [only_pos]

    return _Located(
        impl_data=impl_data,
        flush_prev=flush_prev,
        spec_item=spec_item,
        spec_prev=chain.spec_chain.state_after(entry - 1),
        removals=removals,
    )


def _process_entry(
    entry: int,
    retire_width: int,
    proc_vars: Dict[str, Expr],
    family: Family,
    chains: List[_ChainState],
    result: RewriteResult,
) -> Optional[RewriteFailure]:
    """Rules 1–4 for one initial ROB entry across all chains."""
    rules_applied = result.rules_applied
    valid_var = proc_vars[f"Valid{entry}"]
    vres_var = proc_vars[f"ValidResult{entry}"]
    dest_var = proc_vars[f"Dest{entry}"]
    op_var = proc_vars[f"Op{entry}"]
    result_var = proc_vars[f"Result{entry}"]
    isb, isl, iss = _entry_kind_flags(proc_vars, family, entry)

    # --- Locate and merge every chain's update pair (rules 1-2) ----------
    located: List[_Located] = []
    for chain in chains:
        if chain.name == "RegFile":
            addr_node, addr_desc = dest_var, f"Dest{entry}"
            expected_context = builder.and_(
                valid_var, writes_reg_file(isb, iss)
            )
        else:
            addr_node = builder.uf(MEM_ADDR, [op_var])
            addr_desc = f"MemAddr(Op{entry})"
            expected_context = builder.and_(valid_var, iss)
        outcome = _locate_and_merge(
            entry, retire_width, chain, addr_node, addr_desc,
            expected_context, rules_applied,
        )
        if isinstance(outcome, RewriteFailure):
            return outcome
        located.append(outcome)

    # Reads along the implementation side refer to the states before this
    # entry's completion; the already-proven prefix equivalence lets them
    # move to the specification-side states (rule 3, subcase 2.2).  A load
    # references the Data-Memory prefix and a store the Register-File one,
    # so the mapping covers the seam of *every* chain at once.
    mapping = {loc.flush_prev: loc.spec_prev for loc in located}
    stop = {loc.spec_prev for loc in located}

    # --- Rule 3: data equality by case split -----------------------------
    if family.has_memory:
        load_var = proc_vars[f"IsLoad{entry}"]
        store_var = proc_vars[f"IsStore{entry}"]
        # Under the Register-File context (valid AND writes-reg-file) the
        # store case is vacuous; under the Data-Memory context (valid AND
        # is-store) only the store case survives.
        rf_cases = [
            ({load_var: TRUE}, "load"),
            ({load_var: FALSE, store_var: FALSE}, "alu"),
        ]
        dmem_cases = [({load_var: FALSE, store_var: TRUE}, "store")]
    else:
        rf_cases = [({}, "alu")]
        dmem_cases = []

    for chain, loc in zip(chains, located):
        cases = rf_cases if chain.name == "RegFile" else dmem_cases
        failure = _prove_data_equal(
            entry,
            chain.name,
            loc.impl_data,
            loc.spec_item.data,
            mapping,
            stop,
            cases,
            valid_var,
            vres_var,
            result_var,
            result,
        )
        if failure is not None:
            return failure
        _tally(rules_applied, "data")

    # --- Rule 4: remove the proven-equal updates -------------------------
    for chain, loc in zip(chains, located):
        for index in sorted(loc.removals, reverse=True):
            del chain.working[index]
        del chain.spec_items[0]
        _tally(rules_applied, "remove", len(loc.removals) + 1)
    return None


def _prove_data_equal(
    entry: int,
    chain_name: str,
    impl_data: Term,
    spec_data: Term,
    mapping: Dict[Term, Term],
    stop: set,
    kind_cases: List[Tuple[Dict[BoolVar, Formula], str]],
    valid_var: BoolVar,
    vres_var: BoolVar,
    result_var: TermVar,
    result: RewriteResult,
) -> Optional[RewriteFailure]:
    """Rule 3: the data written along both sides is equal under the
    merged context, by case split on ``ValidResult_i`` and (memory
    families) the entry's instruction-kind variables.

    Each side is walked once; every case rebuilds that walk.  The
    implementation side crosses the proven-prefix seam (``mapping``) in
    the same rebuild.
    """
    rules_applied = result.rules_applied
    impl_walk = CaseWalk(impl_data, stop, seam=mapping)
    spec_walk = CaseWalk(spec_data, stop)
    result.nodes_visited += impl_walk.nodes_visited + spec_walk.nodes_visited

    # Case 1: ValidResult_i — both sides must write the initial Result_i
    # (regardless of the instruction's kind).
    assumptions: Dict[BoolVar, Formula] = {vres_var: TRUE, valid_var: TRUE}
    impl_true = impl_walk.reduce(assumptions)
    spec_true = spec_walk.reduce(assumptions)
    if impl_true is not result_var or spec_true is not result_var:
        return RewriteFailure(
            entry,
            "data",
            f"with ValidResult true, the {chain_name} data does not reduce "
            f"to Result{entry} on both sides",
        )

    # Case 2: NOT ValidResult_i — one sub-case per (non-vacuous) kind.
    for assignment, label in kind_cases:
        assumptions = {vres_var: FALSE, valid_var: TRUE}
        assumptions.update(assignment)
        impl_false = impl_walk.reduce(assumptions)
        spec_false = spec_walk.reduce(assumptions)
        if impl_false is spec_false:
            continue
        # Subcase 2.1: the instruction may have executed during the regular
        # cycle; the implementation data is ITE(executed, computed-from-
        # forwarded-operands, same-as-specification).
        if not (
            isinstance(impl_false, TermITE)
            and impl_false.els is spec_false
        ):
            return RewriteFailure(
                entry,
                "data",
                f"with ValidResult false ({label} case), the {chain_name} "
                "data does not have the expected executed/completed ITE "
                "structure",
            )
        executed = impl_false.cond
        executed_conjuncts = (
            list(executed.args) if executed.kind == "and" else [executed]
        )
        computed = impl_false.then
        if (
            isinstance(computed, UFApp)
            and computed.symbol == ALU
            and isinstance(spec_false, UFApp)
            and spec_false.symbol == ALU
            and len(computed.args) == len(spec_false.args) == 3
            and computed.args[0] is spec_false.args[0]
        ):
            # ALU instruction: each operand's forwarding chain must match
            # the specification-side register read; congruence closes the
            # ALU application.
            targets = [
                (computed.args[operand], spec_false.args[operand],
                 f"operand {operand}")
                for operand in (1, 2)
                if computed.args[operand] is not spec_false.args[operand]
            ]
        else:
            # Load value or store data: the whole computed term is one
            # forwarding chain against one specification-side read.
            targets = [(computed, spec_false, f"{label} data")]
        for forwarded, spec_read, desc in targets:
            # The specification side reads from the previous chain state;
            # push the read through the chain so it mirrors the forwarding
            # chain (identical guards by construction).
            spec_read = push_read(spec_read)
            proved = False
            last_violation = "no availability condition found in execute guard"
            for candidate in executed_conjuncts:
                try:
                    prove_forwarding_matches_read(
                        forwarded, spec_read, candidate
                    )
                    proved = True
                    _tally(rules_applied, "forwarding")
                    break
                except RuleViolation as exc:
                    last_violation = str(exc)
            if not proved:
                return RewriteFailure(
                    entry,
                    "data",
                    f"{chain_name} {desc} forwarding does not match the "
                    f"specification-side read: {last_violation}",
                )
    return None


def _build_reduced_formula(
    artifacts: DiagramArtifacts, criterion: str, result: RewriteResult
) -> Formula:
    """Rebuild the correctness formula over the fresh equal-state variables.

    The proven-equal update prefixes (everything done by instructions
    initially in the ROB) are replaced by the same fresh variable on both
    sides — ``RegFile_equal_state`` and, for memory families,
    ``DMem_equal_state``; the result depends only on the newly fetched
    instructions.
    """
    family = artifacts.config.family_spec
    counter = next(_fresh_counter)
    fresh_rf = builder.tvar(f"RegFile_equal_state{counter}")
    impl_map: Dict[Term, Term] = {artifacts.rf_impl_mid: fresh_rf}
    spec_map: Dict[Term, Term] = {artifacts.spec_states[0].reg_file: fresh_rf}
    if family.has_memory:
        fresh_dmem = builder.tvar(f"DMem_equal_state{counter}")
        impl_map[artifacts.dmem_impl_mid] = fresh_dmem
        spec_map[artifacts.spec_states[0].dmem] = fresh_dmem

    rf_impl = substitute_opaque(artifacts.rf_impl, impl_map)
    spec_rfs = [
        substitute_opaque(state.reg_file, spec_map)
        for state in artifacts.spec_states
    ]
    result.reduced_rf_impl = rf_impl
    result.reduced_spec_rfs = spec_rfs
    dmem_impl = None
    spec_dmems: List[Term] = []
    if family.has_memory:
        dmem_impl = substitute_opaque(artifacts.dmem_impl, impl_map)
        spec_dmems = [
            substitute_opaque(state.dmem, spec_map)
            for state in artifacts.spec_states
        ]
        result.reduced_dmem_impl = dmem_impl
        result.reduced_spec_dmems = spec_dmems

    conjuncts = []
    for m, (spec_state, spec_rf) in enumerate(
        zip(artifacts.spec_states, spec_rfs)
    ):
        equal_pc = builder.eq(artifacts.pc_impl, spec_state.pc)
        equal_rf = builder.eq(rf_impl, spec_rf)
        parts = [equal_pc, equal_rf]
        if family.has_memory:
            parts.append(builder.eq(dmem_impl, spec_dmems[m]))
        conjuncts.append(builder.and_(*parts))

    if criterion == "disjunction":
        result.reduced_formula = builder.or_(*conjuncts)
        return result.reduced_formula
    if criterion != "case_split":
        raise ValueError(f"unknown criterion {criterion!r}")
    fetch = artifacts.fetch_conditions
    k = artifacts.config.issue_width
    cases = []
    for m in range(k + 1):
        at_least = TRUE if m == 0 else fetch[m - 1]
        more = fetch[m] if m < k else FALSE
        exactly = builder.and_(at_least, builder.not_(more))
        cases.append(builder.implies(exactly, conjuncts[m]))
    result.reduced_formula = builder.and_(*cases)
    return result.reduced_formula
