"""Step-by-step reproduction of the teleportation run at the context level.

The intermediate joint states and per-outcome posteriors below are the
closed forms of the protocol on basis |q2 q1 q> with an arbitrary input
amplitude pair; run with a complex pair to exercise conjugation.
"""

import numpy as np

from qccs import linalg
from qccs.context import apply_unitary, make_context, measure, new_qubit
from qccs.demo import build_teleport
from qccs.linalg import GATE_CNOT, GATE_H, dm, computational_observable
from qccs.lts import run_trace

ALPHA, BETA = 0.6, 0.8j


def ket(*entries):
    return np.array(entries, dtype=complex)


def basis3(bits: str):
    v = np.zeros(8, dtype=complex)
    v[int(bits, 2)] = 1.0
    return v


class TestProtocolStates:
    def setup_method(self):
        ctx = make_context(("q",), dm(ket(ALPHA, BETA)))
        ctx = new_qubit(ctx, "q1")
        ctx = new_qubit(ctx, "q2")  # variable order is now q2, q1, q
        self.start = ctx

    def test_shared_pair_preparation(self):
        ctx = apply_unitary(self.start, GATE_H, ["q1"])
        ctx = apply_unitary(ctx, GATE_CNOT, ["q1", "q2"])
        pair = (basis3("000") + basis3("110")) / np.sqrt(2)
        want = dm(ALPHA * pair + BETA * (basis3("001") + basis3("111")) / np.sqrt(2))
        np.testing.assert_allclose(ctx.rho, want, atol=1e-12)
        self.entangled = ctx

    def test_pre_measurement_state(self):
        ctx = apply_unitary(self.start, GATE_H, ["q1"])
        ctx = apply_unitary(ctx, GATE_CNOT, ["q1", "q2"])
        ctx = apply_unitary(ctx, GATE_CNOT, ["q", "q1"])
        ctx = apply_unitary(ctx, GATE_H, ["q"])
        want_vec = 0.5 * (
            ALPHA * (basis3("000") + basis3("001") + basis3("110") + basis3("111"))
            + BETA * (basis3("010") - basis3("011") + basis3("100") - basis3("101"))
        )
        np.testing.assert_allclose(ctx.rho, dm(want_vec), atol=1e-12)

    def test_measurement_outcomes_and_posteriors(self):
        ctx = apply_unitary(self.start, GATE_H, ["q1"])
        ctx = apply_unitary(ctx, GATE_CNOT, ["q1", "q2"])
        ctx = apply_unitary(ctx, GATE_CNOT, ["q", "q1"])
        ctx = apply_unitary(ctx, GATE_H, ["q"])
        outcomes = measure(ctx, computational_observable(2, "M4"), ["q", "q1"])
        assert [ev for ev, _, _ in outcomes] == [0.0, 1.0, 2.0, 3.0]
        posteriors = {
            0.0: ALPHA * basis3("000") + BETA * basis3("100"),
            1.0: ALPHA * basis3("110") + BETA * basis3("010"),
            2.0: ALPHA * basis3("001") - BETA * basis3("101"),
            3.0: ALPHA * basis3("111") - BETA * basis3("011"),
        }
        for ev, p, post in outcomes:
            assert abs(p - 0.25) < 1e-12
            np.testing.assert_allclose(post.rho, dm(posteriors[ev]), atol=1e-12)

    def test_final_branch_states(self):
        trace = run_trace(build_teleport(ALPHA, BETA), scheduler="first")
        psi = ket(ALPHA, BETA)
        finals = [c.context for c, _ in trace.final]
        assert all(c.vars == ("q2", "q1", "q") for c in finals)
        want = {
            dm(np.kron(psi, b)).tobytes(): bits
            for b, bits in (
                (ket(1, 0, 0, 0), "00"), (ket(0, 0, 1, 0), "10"),
                (ket(0, 1, 0, 0), "01"), (ket(0, 0, 0, 1), "11"),
            )
        }
        seen = set()
        for c in finals:
            matches = [
                bits for key, bits in want.items()
                if np.allclose(c.rho, np.frombuffer(key, dtype=complex).reshape(8, 8),
                               atol=1e-9)
            ]
            assert len(matches) == 1
            seen.add(matches[0])
        assert seen == {"00", "10", "01", "11"}
