"""Seeded `.qccs` source generator for the benchmark workloads.

Every input is a function of the workload seed alone.  The sources are plain
`.qccs` text, so any of them can be written out and replayed with
`qccs bisim`, `qccs lts` or `qccs run`:

    python3 perfbench/inputs.py --workload teleport-check --seed 3 --out DIR
"""

from __future__ import annotations

import argparse
import math
import os
import random
from dataclasses import dataclass

WORKLOADS = ("teleport-check", "qubit-scaling", "law-suite")
HEADER = "#qccs 1\n"
M01 = "measure M01 = { 0: |0><0|, 1: |1><1| }\n"

# -- teleport-check --

TELEPORT_DECLS = """\
qchannel qc
qchannel qd
channel c

measure M4 = { 0: |00><00|, 1: |01><01|, 2: |10><10|, 3: |11><11| }

process Alice = qc?q1.CNOT[q,q1].H[q].M4[q,q1;x].c!x.nil
process Bob   = qd?q2.c?x.sigma_x[q2].nil
process EPR   = qbit q1.qbit q2.H[q1].CNOT[q1,q2].qc!q1.qd!q2.nil
process Telep = (EPR || Alice || Bob) \\ {qc, qd, c}
"""

# the same three parties composed in another order: equal by commutativity
# and associativity of ||
REORDERED = "process TelepR = (Bob || (Alice || EPR)) \\ {qc, qd, c}\n"

# a receiver that applies sigma2 on outcome 1 and sigma1 on outcome 2
SWAPPED = """\
process BobS  = qd?q2.c?x.(if x = 0 then sigma0[q2].nil + if x = 1 then sigma2[q2].nil
                         + if x = 2 then sigma1[q2].nil + if x = 3 then sigma3[q2].nil)
process TelepS = (EPR || Alice || BobS) \\ {qc, qd, c}
"""

# keep theta this far (radians) from every multiple of pi/4, where ab = 0 or
# |a| = |b| and branches merge or verdicts change
THETA_MARGIN = 0.15


def teleport_angle(seed: int) -> float:
    rng = random.Random(f"teleport-{seed}")
    while True:
        theta = rng.uniform(0.0, 2.0 * math.pi)
        nearest = round(theta / (math.pi / 4)) * (math.pi / 4)
        if abs(theta - nearest) >= THETA_MARGIN:
            return theta


def _ket(a: float, b: float) -> str:
    sign = "-" if b < 0 else "+"
    return f"{a!r}|0> {sign} {abs(b)!r}|1>"


@dataclass(frozen=True)
class Check:
    """One equivalence query: `mode` between configs Left and Right of `source`.

    `expected` is the verdict known by construction.  `teleported` maps a
    side ('Left'/'Right') to the real amplitudes (a, b) its terminals must
    carry on a qubit other than q, for the sides that teleport faithfully.
    """

    name: str
    mode: str
    source: str
    expected: bool
    teleported: tuple  # ((side, (a, b)), ...)


def _pair(title: str, extra: str, right_proc: str, right_ket: str, a: float, b: float,
          modes: tuple) -> str:
    checks = "".join(f"check {m} Left Right\n" for m in modes)
    return (f"{HEADER}# {title}; psi = {a!r}|0> + {b!r}|1>\n\n{TELEPORT_DECLS}{extra}\n"
            f"config Left  = < Telep ; q = {_ket(a, b)} >\n"
            f"config Right = < {right_proc} ; q = {right_ket} >\n\n{checks}")


def teleport_sources(seed: int) -> dict:
    """name -> source text, one file per pair, with its check directives."""
    theta = teleport_angle(seed)
    a, b = math.cos(theta), math.sin(theta)
    return {
        "phase-flip": _pair("teleport against phase-flipped input", "", "Telep",
                            _ket(a, -b), a, b, ("strong", "weak")),
        "reordered": _pair("teleport against reordered parallel components",
                           REORDERED, "TelepR", _ket(a, b), a, b, ("strong", "eq")),
        "swapped": _pair("teleport against swapped sigma1/sigma2 corrections",
                         SWAPPED, "TelepS", _ket(a, b), a, b, ("strong",)),
    }


def teleport_checks(seed: int) -> list:
    theta = teleport_angle(seed)
    a, b = math.cos(theta), math.sin(theta)
    src = teleport_sources(seed)
    psi, flipped = (a, b), (a, -b)
    return [
        Check("phase-flip/strong", "strong", src["phase-flip"], False,
              (("Left", psi), ("Right", flipped))),
        Check("phase-flip/weak", "weak", src["phase-flip"], False,
              (("Left", psi), ("Right", flipped))),
        Check("reordered/strong", "strong", src["reordered"], True,
              (("Left", psi), ("Right", psi))),
        Check("reordered/eq", "eq", src["reordered"], True,
              (("Left", psi), ("Right", psi))),
        Check("swapped/strong", "strong", src["swapped"], False, (("Left", psi),)),
    ]


# -- qubit-scaling --

GHZ_SIZES = (6, 7, 8, 9)
FANOUT_SIZES = (5, 6, 7)


@dataclass(frozen=True)
class Model:
    """A closed model with config Main; `kind` is 'ghz' or 'fanout'."""

    name: str
    kind: str
    n: int
    source: str


def _shuffled(rng: random.Random, n: int) -> list:
    order = [f"q{i}" for i in range(1, n + 1)]
    rng.shuffle(order)
    return order


def ghz_source(n: int, rng: random.Random) -> str:
    """Allocate n qubits, H then a CNOT chain in seeded order, measure each."""
    chain, alloc, meas = _shuffled(rng, n), _shuffled(rng, n), _shuffled(rng, n)
    steps = [f"qbit {q}" for q in alloc] + [f"H[{chain[0]}]"]
    steps += [f"CNOT[{x},{y}]" for x, y in zip(chain, chain[1:])]
    steps += [f"M01[{q};x{k}]" for k, q in enumerate(meas)]
    return (f"{HEADER}# GHZ-{n}: 4n+1 nodes, terminals |0..0> and |1..1> at 1/2 each\n\n"
            f"{M01}\nprocess Ghz = {'.'.join(steps)}.nil\n\nconfig Main = < Ghz >\n")


def fanout_source(n: int, rng: random.Random) -> str:
    """Allocate n qubits, H each and measure each, in seeded orders."""
    alloc, had, meas = _shuffled(rng, n), _shuffled(rng, n), _shuffled(rng, n)
    steps = [f"qbit {q}" for q in alloc] + [f"H[{q}]" for q in had]
    steps += [f"M01[{q};x{k}]" for k, q in enumerate(meas)]
    return (f"{HEADER}# fan-out-{n}: 2^(n+1)+2n-1 nodes, 2^n basis terminals at 2^-n each\n\n"
            f"{M01}\nprocess Fan = {'.'.join(steps)}.nil\n\nconfig Main = < Fan >\n")


def scaling_models(seed: int) -> list:
    rng = random.Random(f"qubit-scaling-{seed}")
    models = [Model(f"ghz-{n}", "ghz", n, ghz_source(n, rng)) for n in GHZ_SIZES]
    models += [Model(f"fanout-{n}", "fanout", n, fanout_source(n, rng)) for n in FANOUT_SIZES]
    return models


# -- law-suite --

# per round; a 30 s run does about 15 rounds, each with fresh suite seeds
LAW_SAMPLES = 40
CONGRUENCE_PAIRS = 1
EQ_PAIRS = 10


def suite_seeds(seed: int, round_no: int) -> tuple:
    """Seeds for check_laws, congruence_suite and equality_plus_context_suite.

    Each round of a run draws fresh ones: the cost of a suite swings with the
    size of its random terms, and
    sampling many small rounds per run averages that out.
    """
    rng = random.Random(f"law-suite-{seed}-{round_no}")
    return tuple(rng.randrange(2 ** 31) for _ in range(3))


ROUNDS_LISTED = 20  # rounds whose suite seeds write_sources lists

# corpus check directives with the verdicts stated in each file's comments
CORPUS_ANSWERS = (
    ("corpus/choice.qccs", "strong", "Left", "Right", True),
    ("corpus/restriction.qccs", "strong", "P0", "Q0", True),
    ("corpus/restriction.qccs", "strong", "PR0", "QR0", False),
)


def write_sources(workload: str, seed: int, out: str) -> list:
    """Write a workload's generated inputs under `out`; returns the paths."""
    os.makedirs(out, exist_ok=True)
    if workload == "teleport-check":
        files = {f"teleport-{k}.qccs": v for k, v in teleport_sources(seed).items()}
    elif workload == "qubit-scaling":
        files = {f"{m.name}.qccs": m.source for m in scaling_models(seed)}
    elif workload == "law-suite":
        lines = []
        for round_no in range(ROUNDS_LISTED):
            s_laws, s_cong, s_eq = suite_seeds(seed, round_no)
            lines += [f"# round {round_no}",
                      f"check_laws(samples={LAW_SAMPLES}, seed={s_laws})",
                      f"congruence_suite(pairs={CONGRUENCE_PAIRS}, seed={s_cong})",
                      f"equality_plus_context_suite(pairs={EQ_PAIRS}, seed={s_eq})",
                      f"qccs laws --samples {LAW_SAMPLES} --seed {s_laws}"]
            lines += [f"qccs bisim {p} --left {l} --right {r} --mode {m}"
                      for p, m, l, r, _ in CORPUS_ANSWERS]
        files = {"law-suite.txt": "\n".join(lines) + "\n"}
    else:
        raise ValueError(f"unknown workload {workload!r}")
    paths = []
    for name, text in files.items():
        path = os.path.join(out, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        paths.append(path)
    return paths


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True, help="directory to write the sources to")
    args = ap.parse_args()
    for path in write_sources(args.workload, args.seed, args.out):
        print(path)


if __name__ == "__main__":
    main()
