"""The CDCL search is pinned step for step.

The solver's hot path (literal-indexed assignments and watch lists,
in-place watch compaction, a decision heap without duplicate entries)
is an implementation detail: it must make exactly the decisions,
propagations and learned clauses of the straightforward solver it
replaced.  These fingerprints were recorded from that solver and pin
``(status, conflicts, decisions, propagations, restarts,
learned_clauses, max_decision_level)`` plus the sha256 of the DRUP proof
text on seeded random 3-SAT instances near the phase transition, on the
learned-clause deletion and activity-rescale paths, and on one
incremental sequence of assumption calls.

The heap-invariant tests check the property that makes the decision
order independent of the heap's layout: every unassigned variable has a
live ``(-activity[v], v)`` entry in the heap, flagged in ``_queued``.
"""

import hashlib
import random

import pytest

from repro.sat import Cnf, Solver
from repro.witness import DrupProof


def random_3sat(seed, num_vars, ratio=4.26):
    """A uniform random 3-SAT instance with ``ratio * num_vars`` clauses."""
    rng = random.Random(seed)
    cnf = Cnf(num_vars=num_vars)
    for _ in range(round(ratio * num_vars)):
        chosen = rng.sample(range(1, num_vars + 1), 3)
        cnf.add_clause([v if rng.random() < 0.5 else -v for v in chosen])
    return cnf


def fingerprint(result):
    """The search counters plus the sha256 of the DRUP proof text."""
    proof = DrupProof.from_solver_steps(result.proof).to_text()
    return (
        result.status,
        result.conflicts,
        result.decisions,
        result.propagations,
        result.restarts,
        result.learned_clauses,
        result.max_decision_level,
        hashlib.sha256(proof.encode()).hexdigest(),
    )


#: (seed, num_vars) of the random instances.
INSTANCES = [(seed, 60 + 15 * (seed % 7)) for seed in range(20)]

#: instances solved with a small forced learned-clause limit, so that
#: restarts delete learned clauses (``"d"`` proof steps).
DELETION_INSTANCES = [(3, 100), (5, 120)]
SMALL_LEARNED_LIMIT = 64

#: instances solved from a ``var_inc`` that drives the first conflicts
#: into the variable-activity rescale (and heap rebuild) branch.
RESCALE_INSTANCES = [(2, 60), (4, 80)]
RESCALE_VAR_INC = 1e99


def solve_instance(seed, num_vars, learned_limit=None, var_inc=None):
    solver = Solver(random_3sat(seed, num_vars), log_proof=True)
    if learned_limit is not None:
        solver._learned_limit = lambda: learned_limit
    if var_inc is not None:
        solver.var_inc = var_inc
    return solver, solver.solve()


#: (assumptions) of the incremental sequence, solved in order on one
#: session over ``random_3sat(INCREMENTAL_SEED, INCREMENTAL_VARS)``.
INCREMENTAL_SEED = 101
INCREMENTAL_VARS = 70
INCREMENTAL_CALLS = [
    (),
    (1, -2, 3),
    (-1, 4, 5, -6),
    (2, 7, -8, 9, -10, 11),
    (1, -2, 3),
    (),
]


def run_incremental_sequence():
    solver = Solver(
        random_3sat(INCREMENTAL_SEED, INCREMENTAL_VARS, ratio=4.0),
        log_proof=True,
    )
    out = []
    for assumptions in INCREMENTAL_CALLS:
        result = solver.solve(assumptions=assumptions)
        out.append(fingerprint(result) + (result.core,))
    return out


# Recorded from the solver before the hot-path rewrite.
EXPECTED = {
    (0, 60): ('unsat', 112, 120, 1898, 1, 104, 11,
        '4b905440a0e7e92fda5367337f77deb62c5143654c327ef71738b65fc7328665'),
    (1, 75): ('unsat', 266, 298, 5149, 2, 260, 12,
        '10a104cc3ae13e9eff14ffee733a299477ac5d3620b933e060590fa9735cd36b'),
    (2, 90): ('sat', 157, 202, 3416, 1, 157, 15,
        'e3a17b6f5c22bfd3bad8fb28a4c584be091149a546a9b2549fee19e0be997db8'),
    (3, 105): ('sat', 402, 526, 10101, 3, 402, 24,
        '52e042fc6a58454b54076616950915c7af581bbf9e874d37078174e6eb7dff6a'),
    (4, 120): ('sat', 268, 342, 7009, 2, 268, 19,
        '0a604a622958b0df2c73c46ca4c3e29663279c72abb2283c5288d22b8e9c00d2'),
    (5, 135): ('sat', 1247, 1562, 37668, 7, 1246, 18,
        '803b43e2a6a9c6328112918c339315647c3222440482d4ead108af475f7c222f'),
    (6, 150): ('sat', 913, 1174, 29033, 6, 913, 21,
        '43a4cf96949a4c6e758f6bd9c36174d6e58b9f1545ddc5b3809070c948231131'),
    (7, 60): ('unsat', 109, 121, 1943, 1, 103, 10,
        '2067bd2431a998b9e5063b85263a9b490ae5be724fb144966febd4a06df7a370'),
    (8, 75): ('sat', 99, 128, 1965, 0, 99, 14,
        '77274ccc0abb7a783ebb2d2c647415448edf10f234827af33a435ff1f915ca48'),
    (9, 90): ('unsat', 293, 343, 6357, 2, 285, 12,
        'ff65f4cbc8f64127735c8d3033d50c2cb35d84b3bbdebd71b7986927ba64d49d'),
    (10, 105): ('sat', 49, 77, 1448, 0, 49, 15,
        'e2498629fd0fc478df4fe680581cf43fc2b10ab80440035754314d2ce0466669'),
    (11, 120): ('unsat', 766, 888, 20574, 5, 757, 14,
        '52cf8e7e018bf7d3b2b72c73da14a545126b458b6fa87558f4398b09c3f03f72'),
    (12, 135): ('sat', 45, 84, 1579, 0, 45, 27,
        '23ecbea507e557803ae16ea85cb66bab5360f7cc4e2cdee8b3ddf5497abaaa3d'),
    (13, 150): ('sat', 1280, 1547, 39731, 7, 1280, 20,
        '3be7313a7affb53c77fb58873b67eadd792ea0b9280b5b5ac3805a440ce0d292'),
    (14, 60): ('unsat', 96, 112, 1486, 0, 88, 9,
        '100a07c8ecbba9de9743885947696915943293bdc970b09f96cfd596b395633a'),
    (15, 75): ('unsat', 215, 230, 4149, 2, 206, 12,
        'c8dbb0881f3d4944ddb59c6274d0dc0ade1329ffbb97c27acb608472330b9066'),
    (16, 90): ('unsat', 257, 311, 5597, 2, 249, 12,
        'c9d44647b11686dd4e74a96f2f43f876506460e6f609206df2169b33d351d4ff'),
    (17, 105): ('sat', 474, 582, 11254, 3, 472, 18,
        '13b3cfd4f8d47fc9ce51c8971d5cdf3c61abbd545062922611e7a71b52a90820'),
    (18, 120): ('sat', 742, 920, 19641, 5, 741, 16,
        'd1d50d29e30d9ccc95b8ccc6f45eeea5a8af31a59b3164c6debe18be3e3b3f80'),
    (19, 135): ('unsat', 1147, 1391, 33410, 6, 1138, 21,
        'd79890fade793d3d10cf91e3b222806b2c4330f55851357169c3eef65d96eed8'),
}

EXPECTED_DELETION = {
    (3, 100): ('sat', 197, 251, 4570, 1, 197, 16,
        'b7238be7a9151228a5bcf740f5d27ff12a4e3225cefb5a50e6d14519e75362d6'),
    (5, 120): ('unsat', 1416, 1732, 40075, 9, 1406, 15,
        '4fb7bbbca829b334f67fbebe29e23d997251e6e22e8395d78413bf5962d460df'),
}

EXPECTED_RESCALE = {
    (2, 60): ('unsat', 200, 225, 3223, 1, 194, 11,
        '9429d007a59e14cac5017e9f559a1aa2a839f2ea1c4c7dcd22bf106e01e9efff'),
    (4, 80): ('unsat', 237, 283, 4390, 2, 233, 15,
        'd882e2c1d725750007de26d677663b68c3d922ca7ab0c8199dc1a0f3d9c15302'),
}

EXPECTED_INCREMENTAL = [
    ('sat', 24, 42, 551, 0, 24, 12,
     '6557664298a4caa41dab00e60a7f1c277e6ec573b2bbb699e365d45605b67ddb', None),
    ('unsat', 69, 77, 1249, 0, 69, 11,
     '59e218706b69a2189983f3c537ed230a5ce05638280cf5dd6bdcf148fe0ca967', (3, -2, 1)),
    ('unsat', 10, 10, 153, 0, 10, 8,
     '89e661bd0cfa2657f1125e5b588ed50238260eee696b9f7e928d2d9ac2d42935', (-6, 5, 4, -1)),
    ('unsat', 8, 8, 145, 0, 8, 10,
     '3dd69b4caa1c3fb5c020223e1f3837dcacaed4677c3857ddfce22f9446e8b4ff', (11, -10, 9, -8, 7)),
    ('unsat', 0, 0, 3, 0, 0, 2,
     'c751b801183b8408aca804822b5c5210901cf5fe9d4e147bc32a9bcf12b73b85', (3, -2, 1)),
    ('sat', 63, 79, 1178, 0, 63, 9,
     '5a9f7b649b0374795a8ac49b5a1f520e55423ed72aa99e77dd1e684d45e8609c', None),
]


def test_instances_cover_sat_and_unsat_with_restarts():
    statuses = {EXPECTED[key][0] for key in EXPECTED}
    assert statuses == {"sat", "unsat"}
    assert any(EXPECTED[key][4] >= 5 for key in EXPECTED)  # restarts


@pytest.mark.parametrize("seed,num_vars", INSTANCES)
def test_random_3sat_search_is_unchanged(seed, num_vars):
    _, result = solve_instance(seed, num_vars)
    assert fingerprint(result) == EXPECTED[(seed, num_vars)]


@pytest.mark.parametrize("seed,num_vars", DELETION_INSTANCES)
def test_learned_clause_deletion_search_is_unchanged(seed, num_vars):
    _, result = solve_instance(
        seed, num_vars, learned_limit=SMALL_LEARNED_LIMIT
    )
    assert any(op == "d" for op, _ in result.proof)
    assert fingerprint(result) == EXPECTED_DELETION[(seed, num_vars)]


@pytest.mark.parametrize("seed,num_vars", RESCALE_INSTANCES)
def test_activity_rescale_search_is_unchanged(seed, num_vars):
    solver, result = solve_instance(seed, num_vars, var_inc=RESCALE_VAR_INC)
    assert solver.var_inc < RESCALE_VAR_INC  # the rescale branch ran
    assert fingerprint(result) == EXPECTED_RESCALE[(seed, num_vars)]


def test_incremental_assumption_sequence_is_unchanged():
    assert run_incremental_sequence() == EXPECTED_INCREMENTAL


def assert_heap_invariant(solver):
    live = set(solver._heap)
    for var in range(1, solver.num_vars + 1):
        if solver.assigns[var] == 0:
            assert (-solver.activity[var], var) in live, var
            assert solver._queued[var], var
    # A queued variable's live entry really is in the heap.
    for var in range(1, solver.num_vars + 1):
        if solver._queued[var]:
            assert (-solver.activity[var], var) in live, var


def test_literal_indexed_assignments_mirror_each_variable():
    solver, _ = solve_instance(*INSTANCES[0])
    for var in range(1, solver.num_vars + 1):
        assert solver.assigns[-var] == -solver.assigns[var]


@pytest.mark.parametrize("seed,num_vars", INSTANCES[:6])
def test_heap_invariant_holds_after_a_solve(seed, num_vars):
    solver, result = solve_instance(seed, num_vars)
    assert result.conflicts > 0
    assert_heap_invariant(solver)
    # And at the root, where every decision is undone.
    solver._backtrack(0)
    assert_heap_invariant(solver)


@pytest.mark.parametrize("seed,num_vars", RESCALE_INSTANCES)
def test_heap_invariant_survives_the_activity_rescale(seed, num_vars):
    # Stop right after the first conflict whose analysis rescaled, while
    # the trail is above the root, before later conflicts can repair a
    # broken heap; then check again once the search has finished.
    for budget in range(1, 200):
        solver = Solver(random_3sat(seed, num_vars))
        solver.var_inc = RESCALE_VAR_INC
        solver.solve(max_conflicts=budget)
        if solver.var_inc < RESCALE_VAR_INC:
            break
    else:
        pytest.fail("the rescale branch never ran")
    assert solver.trail_lim
    assert_heap_invariant(solver)
    solver._backtrack(0)
    assert_heap_invariant(solver)
    assert solver.solve().status != "unknown"
    assert_heap_invariant(solver)


def test_heap_holds_no_duplicate_live_entries():
    # Mid-search: a finished SAT run has popped its whole heap.
    solver = Solver(random_3sat(*INSTANCES[5]))
    solver.solve(max_conflicts=300)
    assert solver.trail_lim
    for _ in range(2):
        live = [
            (neg, var) for neg, var in solver._heap
            if -neg == solver.activity[var]
        ]
        assert len(live) == len(set(live))
        solver._backtrack(0)


def test_incremental_calls_keep_the_heap_invariant():
    solver = Solver(
        random_3sat(INCREMENTAL_SEED, INCREMENTAL_VARS, ratio=4.0)
    )
    for assumptions in INCREMENTAL_CALLS:
        solver.solve(assumptions=assumptions)
        assert_heap_invariant(solver)
        solver._backtrack(0)
        assert_heap_invariant(solver)
