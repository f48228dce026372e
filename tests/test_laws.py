"""Generator invariants and moderate-scale law/congruence suite runs."""

import numpy as np

from qccs.laws import (
    SUITE_POLICY, check_laws, congruence_suite, equality_plus_context_suite,
    equivalent_rewrite, mutate_gate, random_process,
)
from qccs.syntax import check_wellformed, fv_classical, qv

from helpers import is_classical


class TestGenerator:
    def test_terms_are_wellformed_by_construction(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            t = random_process(rng, 4, ("q0", "q1", "q2"), allow_quantum_input=True)
            assert check_wellformed(t) == []
            assert qv(t) <= {"q0", "q1", "q2"}

    def test_terms_are_classically_closed(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            t = random_process(rng, 4, ("q0",))
            assert fv_classical(t) == frozenset()

    def test_classical_only_mode(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            t = random_process(rng, 3, ("q0",), classical_only=True)
            assert is_classical(t)

    def test_rewrites_preserve_wellformedness(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            t = random_process(rng, 3, ("q0", "q1"))
            assert check_wellformed(equivalent_rewrite(rng, t)) == []

    def test_mutation_changes_a_gate(self):
        from qccs.linalg import GATE_H
        from qccs.syntax import Nil, Unitary

        t = Unitary(GATE_H, ("q",), Nil())
        mutated, changed = mutate_gate(t)
        assert changed and mutated != t

    def test_mutation_reverses_a_cnot(self):
        from qccs.linalg import GATE_CNOT
        from qccs.syntax import Nil, Unitary

        t = Unitary(GATE_CNOT, ("a", "b"), Nil())
        assert mutate_gate(t) == (Unitary(GATE_CNOT, ("b", "a"), Nil()), True)

    def test_mutation_reports_a_change_iff_the_term_changed(self):
        rng = np.random.default_rng(0)
        for _ in range(400):
            t = random_process(rng, 3, ("q0", "q1"))
            mutated, changed = mutate_gate(t)
            assert changed == (mutated != t)


class TestLawSuite:
    def test_laws_hold_on_sample(self):
        report = check_laws(samples=25, seed=7, depth=3, qubits=2)
        assert report.ok
        assert set(report.checked) == {
            "sum-commutative", "sum-idempotent", "sum-associative",
            "sum-unit", "parallel-unit"}

    def test_report_is_seed_deterministic(self):
        r1 = check_laws(samples=5, seed=3)
        r2 = check_laws(samples=5, seed=3)
        assert r1.to_json() == r2.to_json()

    def test_mutated_gates_are_caught(self):
        report = check_laws(samples=8, seed=1, mutate=True)
        assert len(report.failures) > 0  # the checker notices swapped gates


class TestCongruence:
    def test_strong_and_weak_closure(self):
        report = congruence_suite(pairs=8, seed=5, depth=2, qubits=2)
        assert report.ok, report.failures

    def test_equality_preserved_under_summand(self):
        report = equality_plus_context_suite(pairs=8, seed=6)
        assert report.ok, report.failures

    def test_policy_is_open(self):
        assert not SUITE_POLICY.closed_only
