"""Built-in protocol models: teleportation and the weak-transition example.

`build_teleport` assembles the three-party teleportation protocol (EPR-pair
source, sender, receiver) over a parameterised input qubit; `verify_teleport`
runs it to its terminal distribution and checks that every branch delivers
the input state on the receiver's qubit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .context import make_context
from .linalg import ATOL, GATE_CNOT, GATE_H, GATE_I, OBS_M01, OBS_MPM, Gate
from .lts import Configuration, run_trace
from .syntax import (
    Chan, CInput, Cmp, Const, COutput, If, Measure, Nil, Parallel, QbitNew,
    QInput, QOutput, Restrict, Sum, Unitary, Var,
)

QC = Chan("qc", quantum=True)
QD = Chan("qd", quantum=True)
CC = Chan("c", quantum=False)


def _sigma_correction(var: str, qvar: str):
    arms = [
        If(Cmp("=", Var(var), Const(float(i))),
           Unitary(linalg.GATE_SIGMA[i], (qvar,), Nil()))
        for i in range(4)
    ]
    out = arms[0]
    for arm in arms[1:]:
        out = Sum(out, arm)
    return out


def build_teleport_process():
    """The restricted three-party composition; its only free qubit is q."""
    alice = QInput(QC, "q1",
                   Unitary(GATE_CNOT, ("q", "q1"),
                           Unitary(GATE_H, ("q",),
                                   Measure(linalg.computational_observable(2, "M4"),
                                           ("q", "q1"), "x",
                                           COutput(CC, Var("x"), Nil())))))
    bob = QInput(QD, "q2", CInput(CC, "x", _sigma_correction("x", "q2")))
    epr = QbitNew("q1", QbitNew("q2",
                  Unitary(GATE_H, ("q1",),
                          Unitary(GATE_CNOT, ("q1", "q2"),
                                  QOutput(QC, "q1", QOutput(QD, "q2", Nil()))))))
    return Restrict(Parallel(Parallel(epr, alice), bob), frozenset({QC, QD, CC}))


def build_teleport(alpha: complex, beta: complex) -> Configuration:
    norm = abs(alpha) ** 2 + abs(beta) ** 2
    if abs(norm - 1.0) > ATOL:
        raise ValueError(f"|alpha|^2 + |beta|^2 = {norm:.6g}, not 1")
    psi = np.array([alpha, beta], dtype=complex)
    return Configuration(build_teleport_process(), make_context(("q",), linalg.dm(psi)))


@dataclass
class TeleportBranch:
    outcome_vars: tuple  # context variable names, receiver's qubit first
    probability: float
    receiver_state: np.ndarray
    fidelity_ok: bool
    error: float


@dataclass
class TeleportReport:
    alpha: complex
    beta: complex
    branches: list
    steps: int
    ok: bool


def verify_teleport(alpha: complex, beta: complex, tol: float = ATOL) -> TeleportReport:
    """Run the protocol to termination and check each branch teleports the
    state: the reduced state of the receiver's qubit must be |psi><psi|."""
    config = build_teleport(alpha, beta)
    trace = run_trace(config, scheduler="first")
    psi = np.array([alpha, beta], dtype=complex)
    want = linalg.dm(psi)
    branches = []
    for final, p in trace.final:
        reduced = final.context.reduced(["q2"])
        err = float(np.max(np.abs(reduced - want)))
        branches.append(TeleportBranch(
            final.context.vars, p, reduced, err <= tol, err))
    four_way = len(branches) == 4 and all(abs(b.probability - 0.25) <= tol for b in branches)
    ok = four_way and all(b.fidelity_ok for b in branches) and trace.status == "terminated"
    return TeleportReport(alpha, beta, branches, len(trace.steps), ok)


def build_weak_example() -> Configuration:
    """One measurement-then-rotate branch against a rotate-only branch, both
    ending in a quantum output; the source of the weak-transition figures."""
    u = Gate("U", linalg.H_MAT)  # U|0> = |+>, U|1> = |->
    term = Sum(
        Measure(OBS_M01, ("q",), "x",
                Unitary(u, ("q",), QOutput(QC, "q", Nil()))),
        Measure(OBS_MPM, ("q",), "x",
                Unitary(GATE_I, ("q",), QOutput(QC, "q", Nil()))),
    )
    return Configuration(term, make_context(("q",), linalg.dm(linalg.KET_PLUS)))


def build_choice_example():
    """The measurement-simulated-by-coin-flip pair: a three-way choice with a
    computational measurement against the two-rotation choice."""
    u = Gate("U", linalg.H_MAT)        # U|+> = |0>, U|-> = |1>
    v = Gate("V", linalg.X_MAT @ linalg.H_MAT)  # V|+> = |1>, V|-> = |0>
    with_meas = Sum(Sum(Unitary(u, ("q",), Nil()), Unitary(v, ("q",), Nil())),
                    Measure(OBS_M01, ("q",), "x", Nil()))
    without = Sum(Unitary(u, ("q",), Nil()), Unitary(v, ("q",), Nil()))
    ctx = make_context(("q",), linalg.dm(linalg.KET_PLUS))
    return Configuration(with_meas, ctx), Configuration(without, ctx)
