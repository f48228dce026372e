"""Parser, pretty-printer round-trip, and elaboration tests."""

from pathlib import Path

import numpy as np
import pytest

from qccs import linalg
from qccs.demo import build_teleport_process
from qccs.frontend import (
    ElaborationError, ParseError, SourceFile, elaborate, parse, parse_process,
    pretty_print,
)
from qccs.syntax import Chan, CInput, If, Nil, Parallel, QInput, Restrict, Sum, qv

TELEPORT = Path("corpus/teleport.qccs").read_text(encoding="utf-8")


def symbols() -> SourceFile:
    sf = SourceFile()
    sf.channels = {
        "c": Chan("c", False), "d": Chan("d", False),
        "qc": Chan("qc", True), "qd": Chan("qd", True),
    }
    sf.observables = {"M01": linalg.OBS_M01}
    return sf


class TestParse:
    def test_teleport_script(self):
        sf = parse(TELEPORT)
        assert set(sf.processes) == {"Alice", "Bob", "EPR", "Telep"}
        assert set(sf.configs) == {"Main"}
        assert sf.channels["qc"].quantum and not sf.channels["c"].quantum

    def test_nil(self):
        assert parse_process("nil", symbols()) == Nil()

    def test_parse_accepts_invalid_discipline(self):
        # parsing is syntax only; the validity check rejects separately
        term = parse_process("qc!q.H[q].nil", symbols())
        from qccs.syntax import check_wellformed

        assert check_wellformed(term) != []

    def test_precedence_prefix_over_sum(self):
        term = parse_process("c!0.nil + c!1.nil", symbols())
        assert isinstance(term, Sum)

    def test_precedence_parallel_binds_tighter_than_sum(self):
        term = parse_process("c!0.nil + c!1.nil || c!2.nil", symbols())
        assert isinstance(term, Sum)
        assert isinstance(term.right, Parallel)

    def test_restriction_after_prefix_chain(self):
        term = parse_process("c!0.c!1.nil \\ {c}", symbols())
        assert isinstance(term, Restrict)

    def test_relabel_suffix(self):
        term = parse_process("(c!0.nil)[{c->d}]", symbols())
        assert term.fn.apply(Chan("c", False)) == Chan("d", False)

    def test_if_then_boolean_operators(self):
        term = parse_process("if x = 1 && !(y < 2) then nil", symbols())
        assert isinstance(term, If)

    def test_sigma_sugar_expands_to_guarded_sum(self):
        term = parse_process("sigma_x[q].nil", symbols())
        # four-way guarded choice over the Pauli corrections
        assert isinstance(term, Sum)
        leaves = []

        def collect(t):
            if isinstance(t, Sum):
                collect(t.left)
                collect(t.right)
            else:
                leaves.append(t)

        collect(term)
        assert len(leaves) == 4
        assert all(isinstance(leaf, If) for leaf in leaves)
        gates = [leaf.body.gate.name for leaf in leaves]
        assert gates == ["sigma0", "sigma1", "sigma2", "sigma3"]

    def test_parse_error_position(self):
        with pytest.raises(ParseError) as err:
            parse("process P = c!0.")
        assert err.value.line == 1 and err.value.col > 10

    def test_unknown_channel(self):
        with pytest.raises(ParseError) as err:
            parse_process("e!0.nil", symbols())
        assert "unknown channel" in str(err.value)

    def test_kind_crossing_relabel_rejected(self):
        with pytest.raises(ParseError):
            parse_process("(c!0.nil)[{c->qc}]", symbols())

    def test_channel_kind_drives_prefix_kind(self):
        term = parse_process("qc?q.c?x.nil", symbols())
        assert isinstance(term, QInput)
        assert isinstance(term.body, CInput)

    def test_header_mismatch(self):
        with pytest.raises(ParseError):
            parse("#qccs 99\nchannel c")

    def test_duplicate_declaration(self):
        with pytest.raises(ParseError):
            parse("channel c\nqchannel c")


class TestStateExpressions:
    def test_ket_sugar(self):
        sf = parse("channel c\nconfig K = < nil ; q = |+> >")
        np.testing.assert_allclose(sf.configs["K"].state, linalg.dm(linalg.KET_PLUS),
                                   atol=1e-12)

    def test_ket_sum_with_coefficients(self):
        sf = parse("config K = < nil ; q = 0.6|0> + 0.8|1> >")
        want = linalg.dm(np.array([0.6, 0.8]))
        np.testing.assert_allclose(sf.configs["K"].state, want, atol=1e-12)

    def test_tensor_ascii_and_unicode(self):
        sf = parse("config K = < nil ; q,r = |0> (x) |1> >\n"
                   "config L = < nil ; q,r = |0> ⊗ |1> >")
        np.testing.assert_allclose(sf.configs["K"].state, sf.configs["L"].state,
                                   atol=1e-12)

    def test_ketbra_matrix(self):
        sf = parse("measure M = { 0: |+><+|, 1: |-><-| }")
        np.testing.assert_allclose(sf.observables["M"].outcomes[0][1],
                                   linalg.dm(linalg.KET_PLUS), atol=1e-12)

    def test_matrix_literal_with_scalars(self):
        sf = parse("gate G = [[1/sqrt(2), 1/sqrt(2)], [1/sqrt(2), -1/sqrt(2)]]")
        np.testing.assert_allclose(sf.gates["G"].matrix, linalg.H_MAT, atol=1e-12)

    def test_complex_entries(self):
        sf = parse("gate G = [[0, i], [-i, 0]]")
        np.testing.assert_allclose(sf.gates["G"].matrix, linalg.Y_MAT, atol=1e-12)

    def test_gate_alias(self):
        sf = parse("gate G = H")
        np.testing.assert_allclose(sf.gates["G"].matrix, linalg.H_MAT, atol=1e-12)

    def test_multi_bit_ket(self):
        sf = parse("config K = < nil ; a,b = 1/sqrt(2)|00> + 1/sqrt(2)|11> >")
        want = linalg.dm(np.array([1, 0, 0, 1]) / np.sqrt(2))
        np.testing.assert_allclose(sf.configs["K"].state, want, atol=1e-12)

    def test_minus_ket_via_arrow_tokenisation(self):
        sf = parse("config K = < nil ; q = |-> >")
        np.testing.assert_allclose(sf.configs["K"].state, linalg.dm(linalg.KET_MINUS),
                                   atol=1e-12)


class TestRoundTrip:
    def test_teleport_round_trips(self):
        sf = parse(TELEPORT)
        telep = sf.processes["Telep"]
        assert parse_process(pretty_print(telep), sf) == telep

    def test_every_constructor_round_trips(self):
        from qccs.laws import random_process

        sf = symbols()
        sf.gates = dict(linalg.BUILTIN_GATES)
        rng = np.random.default_rng(99)
        seen = set()
        for _ in range(300):
            term = random_process(rng, 4, ("q0", "q1"), allow_quantum_input=True)
            seen.add(type(term).__name__)
            printed = pretty_print(term)
            assert parse_process(printed, sf) == term, printed
        # the generator exercises a broad constructor mix
        assert len(seen) >= 10

    def test_nested_operators_round_trip(self):
        sf = symbols()
        text = "(c!0.nil + (qc?q.H[q].nil \\ {qc})) || if x = 0 then nil"
        term = parse_process(f"c?x.({text})", sf)
        assert parse_process(pretty_print(term), sf) == term


class TestElaborate:
    def test_teleport(self):
        sf = parse(TELEPORT)
        elab = elaborate(sf)
        main = elab.configs["Main"]
        assert main.context.vars == ("q",)
        assert qv(main.process) == {"q"}

    def test_teleport_is_the_demo_protocol(self):
        # the built-in demo and the corpus file describe one process term
        assert elaborate(parse(TELEPORT)).configs["Main"].process == build_teleport_process()

    def test_empty_context(self):
        sf = parse("channel c\nconfig K = < c!0.nil >")
        elab = elaborate(sf)
        assert elab.configs["K"].context.vars == ()

    def test_missing_context_variable(self):
        sf = parse("config K = < H[q].nil ; >")
        with pytest.raises(ElaborationError) as err:
            elaborate(sf)
        assert "does not declare" in str(err.value)

    def test_non_unitary_gate_rejected(self):
        sf = parse("gate G = [[1, 0], [0, 0]]")
        with pytest.raises(ElaborationError) as err:
            elaborate(sf)
        assert "unitary" in str(err.value)

    def test_invalid_observable_rejected(self):
        sf = parse("measure M = { 0: |0><0|, 1: |0><0| }")
        with pytest.raises(ElaborationError) as err:
            elaborate(sf)
        assert "completeness" in str(err.value) or "orthogonal" in str(err.value)

    def test_non_normalised_state_rejected(self):
        sf = parse("config K = < nil ; q = 2|0> >")
        with pytest.raises(ElaborationError):
            elaborate(sf)

    def test_invalid_process_rejected(self):
        sf = parse("qchannel qc\nconfig K = < qc!q.H[q].nil ; q = |0> >")
        with pytest.raises(ElaborationError) as err:
            elaborate(sf)
        assert "output-then-use" in str(err.value)

    def test_policy_from_channel_domains(self):
        sf = parse("channel c in {0, 1}\nchannel d\nconfig K = < c?x.nil >")
        elab = elaborate(sf)
        assert elab.policy.domain(Chan("c", False)) == (0.0, 1.0)
        assert elab.policy.domain(Chan("d", False)) == (0.0, 1.0, 2.0, 3.0)

    def test_empty_channel_domain_rejected(self):
        # a domain's first value is read before any comma or brace
        with pytest.raises(ParseError) as err:
            parse("channel c in {}")
        assert str(err.value) == "1:15: found '}' (expected a number)"

    def test_check_directive_unknown_config(self):
        sf = parse("channel c\nconfig K = < nil >\ncheck strong K Missing")
        with pytest.raises(ElaborationError):
            elaborate(sf)

    def test_every_fault_is_recorded(self):
        # the message is the first fault; a check that names a faulty
        # configuration is not itself at fault
        sf = parse("gate U = [[1, 0], [0, 0]]\n"
                   "config A = < H[s].nil ; q = |0> >\n"
                   "config B = < nil ; q = 2|0> >\n"
                   "check strong A Missing")
        with pytest.raises(ElaborationError) as err:
            elaborate(sf)
        assert str(err.value) == "gate U: matrix is not unitary"
        assert [config for _, config in err.value.faults] == [None, "A", "B", None]
        assert err.value.faults[1][0] == "config A: context does not declare ['s']"
        assert err.value.faults[3][0] == "check references unknown config 'Missing'"

    def test_inline_expansion_is_acyclic(self):
        with pytest.raises(ParseError):  # forward references are unknown names
            parse("process A = B\nprocess B = nil")
