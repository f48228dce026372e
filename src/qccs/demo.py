"""Built-in protocol model: teleportation.

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
from .frontend import _sigma_sugar
from .linalg import ATOL, GATE_CNOT, GATE_H
from .lts import Configuration, run_trace
from .syntax import (
    Chan, CInput, COutput, Measure, Nil, Parallel, QbitNew, QInput, QOutput, Restrict, Unitary,
    Var,
)

QC = Chan("qc", quantum=True)
QD = Chan("qd", quantum=True)
CC = Chan("c", quantum=False)


def build_teleport_process():
    """The restricted three-party composition; its only free qubit is q."""
    alice = QInput(QC, "q1",
                   Unitary(GATE_CNOT, ("q", "q1"),
                           Unitary(GATE_H, ("q",),
                                   Measure(linalg.computational_observable(2, "M4"),
                                           ("q", "q1"), "x",
                                           COutput(CC, Var("x"), Nil())))))
    bob = QInput(QD, "q2", CInput(CC, "x", _sigma_sugar("x", ("q2",), Nil())))
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
    probability: float
    fidelity_ok: bool
    error: float


@dataclass
class TeleportReport:
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
        branches.append(TeleportBranch(p, err <= tol, err))
    four_way = len(branches) == 4 and all(abs(b.probability - 0.25) <= tol for b in branches)
    ok = four_way and all(b.fidelity_ok for b in branches) and trace.status == "terminated"
    return TeleportReport(branches, len(trace.steps), ok)
