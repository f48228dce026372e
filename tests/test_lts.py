"""Rule-engine tests: one positive and one negative case per transition rule,
plus distribution algebra, exploration, and trace execution."""

import numpy as np
import pytest

from qccs import laws, linalg, lts
from qccs.bisim import equality_check, strong_bisim, weak_bisim
from qccs.context import SCAN_LIMIT, ContextIndex, QContext, context_equal, make_context
from qccs.frontend import elaborate, parse, pretty_print
from qccs.linalg import GATE_H, GATE_X, KET0, KET1, KET_PLUS, OBS_M01, Observable, dm, tensor
from qccs.lts import (
    TAU, BadConfiguration, BadWeights, BoundExceeded, CIn, Configuration, COut,
    Distribution, InputPolicy, LtsError, OpenConfiguration, QIn, QOut, StuckError,
    blocked_actions, build_lts, _complex_pairs, _file, _moves, action_sort_key, format_action,
    hint_fresh, lts_to_dot, lts_to_json, numbered_fresh, run_trace, transitions,
)
from qccs.syntax import (
    Arith, Chan, CInput, Cmp, Const, COutput, If, Measure, Nil, Parallel,
    QbitNew, QInput, QOutput, Relabel, RelabelFn, Restrict, Sum, Unitary, Var,
    WellformednessError, subterms,
)

from helpers import (
    CORPUS, blocked_actions_oracle, blocked_oracle, corpus_configs, lift_oracle, moves_oracle,
    node_of, perfbench_inputs, ptrace_oracle, terminated_oracle,
)

C = Chan("c", False)
D = Chan("d", False)
QC = Chan("qc", True)
QD = Chan("qd", True)

OPEN = InputPolicy(closed_only=False)


def cfg(term, vars_=(), state=None):
    if not vars_:
        return Configuration(term, make_context((), [[1.0]]))
    return Configuration(term, make_context(vars_, state))


def actions_of(trs):
    return sorted(format_action(a) for a, _ in trs)


class TestClassicalRules:
    def test_cinp_enumerates_policy_domain(self):
        trs = transitions(cfg(CInput(C, "x", COutput(C, Var("x"), Nil()))), OPEN)
        assert actions_of(trs) == ["c?0", "c?1", "c?2", "c?3"]
        # the bound variable is instantiated in the target
        for a, dist in trs:
            (target, _), = dist
            assert target.process == COutput(C, Const(a.value), Nil())

    def test_cinp_custom_domain(self):
        policy = InputPolicy(classical_domains=((C, (7.0,)),), closed_only=False)
        trs = transitions(cfg(CInput(C, "x", Nil())), policy)
        assert actions_of(trs) == ["c?7"]

    def test_cinp_closed_mode_refuses(self):
        with pytest.raises(OpenConfiguration):
            transitions(cfg(CInput(C, "x", Nil())))

    def test_coutp_evaluates_expression(self):
        e = Arith("-", Arith("*", Const(2.0), Const(3.0)), Const(1.0))
        trs = transitions(cfg(COutput(C, e, Nil())))
        assert actions_of(trs) == ["c!5"]

    def test_ccom_sync_and_interleave(self):
        term = Parallel(COutput(C, Const(1.0), Nil()), CInput(C, "x", COutput(D, Var("x"), Nil())))
        trs = transitions(cfg(term), OPEN)
        labels = actions_of(trs)
        assert "tau" in labels and "c!1" in labels and "c?0" in labels
        tau_targets = [dist for a, dist in trs if a == TAU]
        (target, _), = tau_targets[0]
        assert target.process == Parallel(Nil(), COutput(D, Const(1.0), Nil()))

    def test_ccom_value_outside_policy_domain(self):
        # communication instantiates the input at the transmitted value even
        # when that value is not in the finite enumeration domain
        term = Restrict(
            Parallel(COutput(C, Const(7.0), Nil()), CInput(C, "x", COutput(D, Var("x"), Nil()))),
            frozenset({C}))
        trs = transitions(cfg(term))
        assert actions_of(trs) == ["tau"]
        (target, _), = trs[0][1]
        restricted = target.process
        assert restricted.body.right == COutput(D, Const(7.0), Nil())

    def test_ccom_no_partner(self):
        term = Parallel(COutput(C, Const(1.0), Nil()), COutput(C, Const(2.0), Nil()))
        trs = transitions(cfg(term))
        assert "tau" not in actions_of(trs)

    def test_ccom_symmetric(self):
        term = Parallel(CInput(C, "x", Nil()), COutput(C, Const(2.0), Nil()))
        trs = transitions(cfg(Restrict(term, frozenset({C}))))
        assert actions_of(trs) == ["tau"]


class TestQuantumRules:
    def test_qnew_allocates_in_ket0(self):
        trs = transitions(cfg(QbitNew("q", Unitary(GATE_H, ("q",), Nil()))))
        assert actions_of(trs) == ["tau"]
        (target, _), = trs[0][1]
        assert target.context.vars == ("#0",)
        np.testing.assert_allclose(target.context.rho, dm(KET0), atol=1e-12)
        assert target.process == Unitary(GATE_H, ("#0",), Nil())

    def test_qnew_prepends_to_existing(self):
        trs = transitions(cfg(QbitNew("r", Nil()), ("q",), dm(KET1)))
        (target, _), = trs[0][1]
        assert target.context.vars == ("#0", "q")
        np.testing.assert_allclose(target.context.rho, tensor(dm(KET0), dm(KET1)), atol=1e-12)

    def test_qnew_hint_fresh_keeps_binder_name(self):
        trs = transitions(cfg(QbitNew("r", Nil()), ("q",), dm(KET1)), fresh=hint_fresh)
        (target, _), = trs[0][1]
        assert target.context.vars == ("r", "q")

    def test_qnew_hint_collision_falls_back(self):
        trs = transitions(cfg(QbitNew("q", Nil()), ("q",), dm(KET1)), fresh=hint_fresh)
        (target, _), = trs[0][1]
        assert target.context.vars == ("#0", "q")

    def test_qinp_in_context_enumerates_eligible(self):
        # r ranges over the context minus the qubits the continuation holds
        term = QInput(QC, "q", Unitary(linalg.GATE_CNOT, ("q", "s"), Nil()))
        state = tensor(dm(KET0), dm(KET0))
        trs = transitions(cfg(term, ("r", "s"), state), OPEN)
        in_context = [a for a, _ in trs if isinstance(a, QIn) and a.qvar in ("r", "s")]
        assert [a.qvar for a in in_context] == ["r"]  # s is excluded
        rule2 = [dist for a, dist in trs if isinstance(a, QIn) and a.qvar == "r"]
        (target, _), = rule2[0]
        assert target.context.vars == ("r", "s")  # context unchanged

    def test_qinp_fresh_extension_recipes(self):
        rho = dm(KET1)
        trs = transitions(cfg(QInput(QC, "q", Nil()), ("s",), rho), OPEN)
        fresh = [(a, dist) for a, dist in trs if isinstance(a, QIn) and a.qvar == "#0"]
        assert len(fresh) == 3  # |0><0|, |1><1|, |+><+| product extensions
        for _, dist in fresh:
            (target, _), = dist
            assert target.context.vars == ("#0", "s")
            # tracing out the new qubit recovers the old state
            np.testing.assert_allclose(target.context.reduced(["s"]), rho, atol=1e-9)

    def test_qinp_closed_mode_refuses(self):
        with pytest.raises(OpenConfiguration):
            transitions(cfg(QInput(QC, "q", Nil()), ("s",), dm(KET0)))

    def test_qoutp_keeps_context(self):
        trs = transitions(cfg(QOutput(QC, "q", Nil()), ("q",), dm(KET_PLUS)))
        assert actions_of(trs) == ["qc!q"]
        (target, _), = trs[0][1]
        assert target.context.vars == ("q",)
        np.testing.assert_allclose(target.context.rho, dm(KET_PLUS), atol=1e-12)

    def test_output_then_use_rejected_at_build(self):
        bad = QOutput(QC, "q", Unitary(GATE_H, ("q",), Nil()))
        with pytest.raises(WellformednessError):
            build_lts(cfg(bad, ("q",), dm(KET0)))

    def test_unit_conjugates_state(self):
        trs = transitions(cfg(Unitary(GATE_H, ("q",), Nil()), ("q",), dm(KET0)))
        assert actions_of(trs) == ["tau"]
        (target, _), = trs[0][1]
        np.testing.assert_allclose(target.context.rho, dm(KET_PLUS), atol=1e-12)

    def test_meas_probabilities_match_projected_traces(self):
        rng = np.random.default_rng(0)
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        v /= np.linalg.norm(v)
        state = dm(v)
        term = Measure(OBS_M01, ("b",), "x", COutput(C, Var("x"), Nil()))
        trs = transitions(cfg(term, ("a", "b"), state))
        assert len(trs) == 1 and trs[0][0] == TAU
        dist = trs[0][1]
        for target, p in dist:
            out_value = target.process.expr.value
            proj = [m for e, m in OBS_M01.outcomes if e == out_value][0]
            lifted = lift_oracle(proj, [1], 2)
            assert abs(p - np.real(np.trace(lifted @ state))) < 1e-9

    def test_meas_drops_zero_probability_branch(self):
        term = Measure(OBS_M01, ("q",), "x", Nil())
        trs = transitions(cfg(term, ("q",), dm(KET0)))
        assert len(trs[0][1]) == 1

    def test_qcom_sync_preserves_context(self):
        term = Parallel(QOutput(QC, "r", Nil()), QInput(QC, "q", QOutput(QD, "q", Nil())))
        state = tensor(dm(KET_PLUS), dm(KET0))
        config = cfg(Restrict(term, frozenset({QC})), ("r", "s"), state)
        trs = transitions(config)
        assert actions_of(trs) == ["tau"]
        (target, _), = trs[0][1]
        assert context_equal(target.context, config.context)
        assert target.process.body.right == QOutput(QD, "r", Nil())

    def test_qcom_requires_matching_name(self):
        # the output offers r; input transitions for other context qubits do
        # not synchronise
        term = Parallel(QOutput(QC, "r", Nil()), QInput(QC, "q", Nil()))
        state = tensor(dm(KET0), dm(KET0))
        trs = transitions(cfg(Restrict(term, frozenset({QC})), ("r", "s"), state))
        assert actions_of(trs) == ["tau"]  # exactly the one sync on r

    def test_qcom_channel_mismatch(self):
        term = Parallel(QOutput(QC, "r", Nil()), QInput(QD, "q", Nil()))
        state = tensor(dm(KET0), dm(KET0))
        trs = transitions(cfg(Restrict(term, frozenset({QC, QD})), ("r", "s"), state))
        assert trs == []

    def test_inp_int_freshness_condition(self):
        # the peer holds r, so inputting r is blocked; inputting s is not
        term = Parallel(QInput(QC, "q", Nil()), Unitary(GATE_X, ("r",), Nil()))
        state = tensor(dm(KET0), dm(KET0))
        trs = transitions(cfg(term, ("r", "s"), state), OPEN)
        in_context = {a.qvar for a, _ in trs if isinstance(a, QIn) and not a.qvar.startswith("#")}
        assert in_context == {"s"}

    def test_oth_int_lifts_distributions(self):
        # a measurement inside a parallel carries the peer along each branch
        term = Parallel(Measure(OBS_M01, ("q",), "x", Nil()), COutput(C, Const(0.0), Nil()))
        trs = transitions(cfg(term, ("q",), dm(KET_PLUS)))
        tau_dists = [dist for a, dist in trs if a == TAU]
        assert len(tau_dists) == 1 and len(tau_dists[0]) == 2
        for target, _ in tau_dists[0]:
            assert isinstance(target.process, Parallel)
            assert target.process.right == COutput(C, Const(0.0), Nil())

    def test_oth_int_quantum_output_interleaves(self):
        term = Parallel(QOutput(QC, "r", Nil()), CInput(C, "x", Nil()))
        state = dm(KET0)
        trs = transitions(cfg(term, ("r",), state), OPEN)
        assert "qc!r" in actions_of(trs)


class TestStructuralRules:
    def test_sum_offers_both(self):
        term = Sum(COutput(C, Const(0.0), Nil()), COutput(D, Const(1.0), Nil()))
        assert actions_of(transitions(cfg(term))) == ["c!0", "d!1"]

    def test_sum_duplicate_branches_merge(self):
        p = COutput(C, Const(0.0), Nil())
        assert len(transitions(cfg(Sum(p, p)))) == 1

    def test_rel_renames_action_and_target(self):
        f = RelabelFn([(C, D)])
        term = Relabel(COutput(C, Const(0.0), Nil()), f)
        trs = transitions(cfg(term))
        assert actions_of(trs) == ["d!0"]
        (target, _), = trs[0][1]
        assert target.process == Relabel(Nil(), f)

    def test_rel_keeps_tau(self):
        term = Relabel(Unitary(GATE_H, ("q",), Nil()), RelabelFn([(C, D)]))
        assert actions_of(transitions(cfg(term, ("q",), dm(KET0)))) == ["tau"]

    def test_rel_non_injective_merges_channels(self):
        f = RelabelFn([(C, D)])
        # the relabeled component now speaks on d and can synchronise with a
        # native d-listener
        term = Parallel(Relabel(COutput(C, Const(1.0), Nil()), f), CInput(D, "x", Nil()))
        trs = transitions(cfg(Restrict(term, frozenset({D}))), OPEN)
        assert "tau" in actions_of(trs)

    def test_res_filters_by_channel_name(self):
        term = Restrict(Sum(COutput(C, Const(0.0), Nil()), COutput(D, Const(0.0), Nil())),
                        frozenset({C}))
        assert actions_of(transitions(cfg(term))) == ["d!0"]

    def test_res_lets_tau_through(self):
        term = Restrict(Unitary(GATE_H, ("q",), Nil()), frozenset({C, QC}))
        assert actions_of(transitions(cfg(term, ("q",), dm(KET0)))) == ["tau"]

    def test_res_blocks_quantum_output(self):
        term = Restrict(QOutput(QC, "q", Nil()), frozenset({QC}))
        assert transitions(cfg(term, ("q",), dm(KET0))) == []

    def test_cho_true_guard(self):
        term = If(Cmp("=", Const(0.0), Const(0.0)), COutput(C, Const(1.0), Nil()))
        assert actions_of(transitions(cfg(term))) == ["c!1"]

    def test_cho_false_guard_contributes_nothing(self):
        term = If(Cmp("=", Const(1.0), Const(2.0)), COutput(C, Const(1.0), Nil()))
        assert transitions(cfg(term)) == []


class TestActionVocabulary:
    """The five action kinds as every output reads them: labels, order,
    channel-kind checks and relabelling."""

    def test_labels(self):
        actions = [TAU, CIn(C, 1.0), COut(C, 0.5), COut(D, -2.0), CIn(D, -0.25),
                   QIn(QC, "q"), QOut(QD, "#0")]
        assert [format_action(a) for a in actions] == [
            "tau", "c?1", "c!0.5", "d!-2", "d?-0.25", "qc?q", "qd!#0"]

    def test_sort_order(self):
        ordered = [TAU, CIn(C, 0.0), CIn(C, 2.0), CIn(D, -1.0), COut(C, -3.0),
                   COut(C, 0.5), COut(D, 0.0), QIn(QC, "a"), QIn(QC, "b"),
                   QIn(QD, "a"), QOut(QC, "q"), QOut(QD, "a")]
        shuffled = [ordered[i] for i in np.random.default_rng(3).permutation(len(ordered))]
        assert shuffled != ordered
        assert sorted(shuffled, key=action_sort_key) == ordered

    @pytest.mark.parametrize("make, chan, message", [
        (lambda c: CIn(c, 0.0), QC, "classical action on quantum channel qc"),
        (lambda c: COut(c, 0.0), QC, "classical action on quantum channel qc"),
        (lambda c: QIn(c, "q"), C, "quantum action on classical channel c"),
        (lambda c: QOut(c, "q"), C, "quantum action on classical channel c"),
    ])
    def test_wrong_channel_kind(self, make, chan, message):
        with pytest.raises(LtsError) as err:
            make(chan)
        assert str(err.value) == message

    def test_values_read_as_in_terms(self):
        # an action label prints its value as the term that sends it does
        for value, label in ((1e20, "c!1e+20"), (-1e15, "c!-1000000000000000.0"),
                             (999999999999999.0, "c!999999999999999"), (0.1, "c!0.1")):
            term = COutput(C, Const(value), Nil())
            graph = build_lts([cfg(term)])
            assert format_action(graph.edges[0][0][0]) == label
            assert pretty_print(term) == f"{label}.nil"

    def test_kinds_differ_on_equal_fields(self):
        assert CIn(C, 1.0) != COut(C, 1.0)
        assert QIn(QC, "q") != QOut(QC, "q")

    def test_relabelling_renames_the_channel_only(self):
        body = Sum(Sum(CInput(C, "x", Nil()), COutput(C, Const(0.5), Nil())),
                   Sum(Sum(QInput(QC, "r", Nil()), QOutput(QC, "q", Nil())),
                       Unitary(GATE_H, ("q",), Nil())))
        fn = RelabelFn([(C, D), (QC, QD)])

        def moves(term):
            return [a for a, _ in transitions(cfg(term, ("q",), dm(KET0)), OPEN)]

        def expected(c, qc):
            return ([CIn(c, v) for v in (0.0, 1.0, 2.0, 3.0)]
                    + [COut(c, 0.5), QIn(qc, "q")] + [QIn(qc, "#0")] * 3
                    + [QOut(qc, "q"), TAU])

        assert moves(body) == expected(C, QC)
        assert moves(Relabel(body, fn)) == expected(D, QD)


class TestDistributionAlgebra:
    def test_distribution_merges_equal_configurations(self):
        a1 = cfg(Nil(), ("q",), dm(KET0))
        a2 = cfg(Nil(), ("q",), dm(KET0))
        d = Distribution([(a1, 0.5), (a2, 0.5)])
        assert len(d.items()) == 1

    def test_distribution_rejects_unnormalised(self):
        with pytest.raises(BadWeights):
            Distribution([(cfg(Nil()), 0.5)])


def random_density(rng, n):
    v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return dm(v / np.linalg.norm(v))


def diag_context(a: float) -> QContext:
    """The one-qubit state diag(a, 1 - a)."""
    return make_context(("q",), np.diag([a, 1.0 - a]))


def reference_intern(configs) -> list:
    """Node id of each configuration under the pairwise rule: the lowest
    earlier node with the same key and a context within ATOL, else a new one."""
    nodes, ids = [], []
    for c in configs:
        j = next((j for j, n in enumerate(nodes)
                  if n.key == c.key and context_equal(n.context, c.context)), None)
        if j is None:
            j = len(nodes)
            nodes.append(c)
        ids.append(j)
    return ids


def reference_approx_equal(d1, d2) -> bool:
    """Whether two distributions, as (configuration, weight) pairs, are
    equal, by a scan of every pair: each configuration of d1, in order,
    pairs with the first unpaired one of d2 with the same key, a context
    within ATOL and a weight within ATOL."""
    if len(d1) != len(d2):
        return False
    used = set()
    for c, p in d1:
        for j, (d, q) in enumerate(d2):
            if (j not in used and abs(p - q) <= linalg.ATOL and c.key == d.key
                    and context_equal(c.context, d.context)):
                used.add(j)
                break
        else:
            return False
    return True


def reference_dedup(moves) -> list:
    """(action, distribution) moves less each one equal, by action and
    reference_approx_equal, to an earlier kept one."""
    kept = []
    for a, d in moves:
        if not any(a == a2 and reference_approx_equal(d, d2) for a2, d2 in kept):
            kept.append((a, d))
    return kept


class TestStateIndex:
    def test_merge_across_a_cell_edge(self):
        # f = a + 2 (1 - a) = 2 - a and the cell width is 6 ATOL: put a just
        # inside a cell edge and b 0.5 ATOL away, just outside it
        w = 6 * linalg.ATOL
        a = 2.0 - (round(1.5 / w) * w - 0.25 * linalg.ATOL)
        near, far = diag_context(a), diag_context(a - 0.5 * linalg.ATOL)
        assert near.cell + 1 == far.cell and context_equal(near, far)
        # distant states fill the group past SCAN_LIMIT, so lookups go by cell
        fillers = [diag_context(k / 10) for k in range(SCAN_LIMIT)]
        index = ContextIndex()
        assert [index.file("k", ctx) for ctx in fillers] == [(i, True) for i in range(SCAN_LIMIT)]
        assert index.file("k", near) == (SCAN_LIMIT, True)
        assert index.file("k", far) == (SCAN_LIMIT, False)
        # the same through Distribution and exploration
        configs = [Configuration(Nil(), c) for c in (*fillers, near, far)]
        merged = Distribution([(c, 1 / len(configs)) for c in configs]).items()
        assert len(merged) == SCAN_LIMIT + 1
        assert build_lts(configs).initial == (*range(SCAN_LIMIT + 1), SCAN_LIMIT)

    @pytest.mark.parametrize("fill", [0, SCAN_LIMIT])
    def test_chain_merges_into_lowest_id(self, fill):
        # A ~ B and B ~ C within ATOL, but A and C are 1.2 ATOL apart; `fill`
        # distant states first make the lookups go by cell
        a, b, c = (diag_context(0.5 + k * 0.6 * linalg.ATOL) for k in range(3))
        assert context_equal(a, b) and context_equal(b, c) and not context_equal(a, c)
        fillers = [Configuration(Nil(), diag_context(k / 10)) for k in range(fill)]
        for first, second in ((a, c), (c, a)):
            configs = fillers + [Configuration(Nil(), x) for x in (first, second, b)]
            graph = build_lts(configs)
            assert graph.initial[fill:] == (fill, fill + 1, fill)
            assert graph.nodes[fill].context is first
            assert node_of(graph, configs[-1]) == fill
            merged = Distribution([(x, 1 / len(configs)) for x in configs]).items()
            assert [(x.context, round(p * len(configs))) for x, p in merged[fill:]] == [
                (first, 2), (second, 1)]

    def test_stuck_grouping_takes_lowest_head(self):
        # three stuck nodes, the last within ATOL of both others: it joins the
        # first one's terminal class, so every checker relates it to A and
        # not to C, and `eq` stays inside weak bisimilarity
        a, b, c = (diag_context(0.5 + k * 0.6 * linalg.ATOL) for k in range(3))
        never = If(Cmp("=", Const(0.0), Const(1.0)), Nil())
        graph = build_lts([Configuration(Nil(), a), Configuration(Nil(), c),
                           Configuration(never, b)])
        assert graph.node_count == 3
        assert graph.terminal == (0, 1, 0)
        for check in (strong_bisim, weak_bisim, equality_check):
            assert check(graph, 0, 2).equivalent, check
            assert not check(graph, 1, 2).equivalent, check
            assert not check(graph, 0, 1).equivalent, check
        # eq asks node 1's termination requirement of node 2, as weak does
        assert equality_check(graph, 1, 2).counterexample == {
            "pair": [1, 2], "kind": "termination", "lp_constraints": 2,
            "reason": "node 2 cannot internally reach, with probability one, "
                      "stuck configurations with the required context"}
        assert (weak_bisim(graph, 1, 2).counterexample
                == equality_check(graph, 1, 2).counterexample)
        for left in range(3):
            for right in range(3):
                assert (not equality_check(graph, left, right).equivalent
                        or weak_bisim(graph, left, right).equivalent)

    def test_termination_absorbs_at_the_owners_class(self):
        # B joins A's class, though C is within ATOL of it too: a node that
        # moves internally into C does not meet B's termination requirement
        a, b, c = (diag_context(0.5 + k * 0.6 * linalg.ATOL) for k in range(3))
        never = If(Cmp("=", Const(0.0), Const(1.0)), Nil())
        graph = build_lts([Configuration(Nil(), a), Configuration(Nil(), c),
                           Configuration(never, b),
                           Configuration(Unitary(linalg.GATE_I, ("q",), Nil()), c)])
        assert graph.terminal == (0, 1, 0, None)
        assert graph.edges[3] == [(TAU, ((1, 1.0),))]
        assert weak_bisim(graph, 1, 3).equivalent
        result = weak_bisim(graph, 2, 3)
        assert not result.equivalent
        assert (result.counterexample["pair"], result.counterexample["kind"]) == (
            [2, 3], "termination")

    def test_terminal_classes_agree_with_pairwise_equality(self):
        # away from within-ATOL chains, two stuck nodes share a terminal
        # class exactly when their contexts are equal
        from qccs.demo import build_teleport

        graphs = [build_lts(build_teleport(1.0, 0.0)),
                  build_lts([build_teleport(0.6, 0.8), build_teleport(0.6, -0.8)])]
        for path in sorted(CORPUS.glob("*.qccs")):
            elab = elaborate(parse(path.read_text(encoding="utf-8")))
            for policy in (elab.policy, elab.policy.open()):
                graphs.append(build_lts(list(elab.configs.values()), policy=policy))
        pairs = 0
        for graph in graphs:
            stuck = [i for i in range(graph.node_count) if graph.stuck(i)]
            assert [i for i, t in enumerate(graph.terminal) if t is not None] == stuck
            for i in stuck:
                assert graph.terminal[graph.terminal[i]] == graph.terminal[i] <= i
                for j in stuck:
                    pairs += 1
                    assert (graph.terminal[i] == graph.terminal[j]) == context_equal(
                        graph.nodes[i].context, graph.nodes[j].context), (i, j)
        assert pairs > 100

    def test_agrees_with_pairwise_reference(self):
        rng = np.random.default_rng(17)
        names = ("a", "b", "c")
        perms = ([0, 1, 2], [2, 0, 1], [1, 2, 0], [0, 2, 1])
        terms = (Nil(), If(Cmp("=", Const(0.0), Const(1.0)), Nil()))
        tol = linalg.ATOL
        # every eigenvalue of a base is at least 1e-6 / 8, so a Hermitian,
        # traceless shift of entries up to 3 ATOL leaves it a density matrix
        mixed = 1e-6 * np.eye(8) / 8
        for trial in range(6):
            bases = [(1 - 1e-6) * random_density(rng, 3) + mixed for _ in range(4)]
            bases.append((1 - 1e-6) * np.diag(np.eye(8)[int(rng.integers(8))]) + mixed)
            configs, must, must_not = [], 0, 0
            for rho in bases:
                for scale in (0.0, 0.4, 3.0):
                    # the diagonal falls by scale * ATOL in its first half and
                    # rises in its second (or the reverse): f moves by
                    # 16 scale ATOL, 4/9 of scale * w / 2
                    delta = rng.uniform(-1, 1, (8, 8)) + 1j * rng.uniform(-1, 1, (8, 8))
                    delta = delta + delta.conj().T
                    delta *= scale * tol / np.abs(delta).max()
                    np.fill_diagonal(delta, rng.choice([-1, 1]) * scale * tol
                                     * np.repeat([-1.0, 1.0], 4))
                    perm = perms[int(rng.integers(len(perms)))]
                    ctx = make_context(tuple(names[k] for k in perm),
                                       ptrace_oracle(rho + delta, perm))
                    term = terms[int(rng.integers(2))] if scale else terms[0]
                    configs.append(Configuration(term, ctx))
                    close = context_equal(ctx, make_context(names, rho))
                    must += scale == 0.4 and close
                    must_not += scale == 3.0 and not close
            assert must == len(bases) and must_not == len(bases)
            order = rng.permutation(len(configs))
            configs = [configs[k] for k in order]
            ids = reference_intern(configs)
            graph = build_lts(configs)
            assert list(graph.initial) == ids
            assert [node_of(graph, c) for c in configs] == ids
            weights = rng.dirichlet(np.ones(len(configs)))
            merged = Distribution(list(zip(configs, weights))).items()
            expected: dict = {}
            for c, j, p in zip(configs, ids, weights):
                expected[j] = expected.get(j, 0.0) + p
            assert [node_of(graph, c) for c, _ in merged] == list(expected)
            np.testing.assert_allclose([p for _, p in merged], list(expected.values()))
            # a reordering merges into an equal distribution
            assert reference_approx_equal(
                merged, Distribution(list(zip(configs[::-1], weights[::-1]))).items())

    def test_exploration_independent_of_root_order(self):
        from qccs.demo import build_teleport

        roots = [build_teleport(1.0, 0.0), corpus_configs("weak_example", "C")[0],
                 build_teleport(0.6, 0.8), build_teleport(1.0, 0.0)]
        reference = build_lts(roots)
        for order in ([3, 2, 1, 0], [1, 3, 0, 2], [2, 0, 3, 1]):
            graph = build_lts([roots[k] for k in order])
            assert graph.node_count == reference.node_count
            to_ref = [node_of(reference, n) for n in graph.nodes]
            assert sorted(to_ref) == list(range(reference.node_count))
            assert [to_ref[graph.initial[k]] for k in range(4)] == [
                reference.initial[k] for k in order]
            for i, edges in enumerate(graph.edges):
                mapped = {(a, tuple(sorted((to_ref[j], p) for j, p in t))) for a, t in edges}
                assert mapped == set(reference.edges[to_ref[i]])


class TestEdgesAgreeWithTransitions:
    def test_each_node_has_its_deduplicated_moves(self):
        # build_lts merges and deduplicates the derived moves by node id;
        # each node's edges must be its moves, each merged on its own,
        # deduplicated by the pairwise scan and mapped to node ids, and so
        # must transitions(node) be
        from qccs.laws import SUITE_POLICY, random_density, random_process

        def mapped(graph, moves):
            out = []
            for a, dist in moves:
                weights: dict = {}
                for c, p in dist:
                    j = node_of(graph, c)
                    weights[j] = weights.get(j, 0.0) + p
                out.append((a, sorted(weights.items())))
            return out

        def same_edges(got, want):
            return len(got) == len(want) and all(
                a == b and [j for j, _ in t] == [k for k, _ in u]
                and all(abs(p - q) <= 1e-12 for (_, p), (_, q) in zip(t, u))
                for (a, t), (b, u) in zip(got, want))

        rng = np.random.default_rng(23)
        dropped = inputs = 0
        for _ in range(120):
            qavail = ("q0", "q1")[:int(rng.integers(1, 3))]
            e, f = (random_process(rng, 3, qavail, allow_quantum_input=True) for _ in "ef")
            ctx = make_context(qavail, random_density(rng, len(qavail)))
            graph = build_lts([Configuration(t, ctx) for t in (Sum(e, e), Sum(e, f))],
                              SUITE_POLICY)
            for i, node in enumerate(graph.nodes):
                moves = [(a, Distribution(pairs).items())
                         for a, pairs in _moves(node, SUITE_POLICY, numbered_fresh)]
                want = mapped(graph, reference_dedup(moves))
                assert same_edges(graph.edges[i], want), (str(node), graph.edges[i], want)
                assert same_edges(mapped(graph, transitions(node, SUITE_POLICY)), want)
                dropped += len(moves) - len(want)
                inputs += any(isinstance(a, (CIn, QIn)) for a, _ in moves)
        assert dropped > 100 and inputs > 100, (dropped, inputs)

    def test_transitions_files_each_target_once(self, monkeypatch):
        # two equal measurement moves of |+>, two targets each: one call
        # files each derived target once, in its own index, and drops the
        # second move by the edge rule
        measure = Measure(OBS_M01, ("q",), "x", COutput(C, Var("x"), Nil()))
        config = cfg(Sum(measure, measure), ("q",), dm(KET_PLUS))
        derived = sum(len(pairs) for _, pairs in _moves(config, None, numbered_fresh))
        filed = []
        file = ContextIndex.file
        monkeypatch.setattr(ContextIndex, "file",
                            lambda self, key, ctx: filed.append(key) or file(self, key, ctx))
        trs = transitions(config)
        assert derived == 4 and len(filed) == derived
        (action, pairs), = trs
        assert action == TAU and np.allclose([p for _, p in pairs], [0.5, 0.5])


class TestExploration:
    def test_nil_single_node(self):
        graph = build_lts(cfg(Nil()))
        assert graph.node_count == 1 and graph.stuck(0)

    def test_deterministic_rebuild(self):
        g1 = build_lts(corpus_configs("weak_example", "C")[0])
        g2 = build_lts(corpus_configs("weak_example", "C")[0])
        assert g1.node_count == g2.node_count
        assert [n.key for n in g1.nodes] == [n.key for n in g2.nodes]
        assert g1.edges == g2.edges

    def test_teleport_build_computes_each_summary_once(self, monkeypatch):
        # a derived term shares its untouched subterms, and their stored
        # summaries, with its parent: canonical walks only under the binders
        # of new spines, and no node computes qv or fv_classical twice
        from qccs import syntax
        from qccs.demo import build_teleport

        def size(t):
            return 1 + sum(map(size, subterms(t)))

        visited = []
        canonical = syntax.canonical
        monkeypatch.setattr(syntax, "canonical", lambda t: visited.append(size(t)) or canonical(t))
        computed = {}
        for name in ("_qv", "_fv"):
            stored = vars(syntax._Term)[name]

            def counting(node, compute=stored.compute, name=name):
                computed.setdefault((name, id(node)), []).append(node)  # keeps ids unique
                return compute(node)

            monkeypatch.setattr(stored, "compute", counting)
        graph = build_lts([build_teleport(0.6, 0.8), build_teleport(0.6, -0.8)])
        assert graph.node_count == 54
        assert sum(visited) < 600, sum(visited)
        assert computed and all(len(nodes) == 1 for nodes in computed.values())

    def test_weak_example_graph_shape(self):
        graph = build_lts(corpus_configs("weak_example", "C")[0])
        assert graph.node_count == 8
        out_edges = graph.node_edges(graph.initial[0])
        assert len(out_edges) == 2  # both measurements
        sizes = sorted(len(t) for _, t in out_edges)
        assert sizes == [1, 2]  # one certain, one half/half

    def test_paths_merge_on_equal_states(self):
        # two orders of commuting rotations meet in the same node
        term = Sum(
            Unitary(GATE_H, ("q",), Unitary(GATE_X, ("q",), Nil())),
            Unitary(GATE_H, ("q",), Unitary(GATE_X, ("q",), Nil())),
        )
        graph = build_lts(cfg(term, ("q",), dm(KET0)))
        assert graph.node_count == 3  # start, intermediate, final

    def test_max_nodes_bound(self):
        from qccs.demo import build_teleport

        with pytest.raises(BoundExceeded) as err:
            build_lts(build_teleport(1.0, 0.0), max_nodes=3)
        assert err.value.which == "max_nodes"
        assert (err.value.nodes, err.value.depth, err.value.queued) == (3, 2, 0)

    def test_max_nodes_bound_reports_queue(self):
        # the root's first successor is queued when its second hits the bound
        term = Sum(Unitary(GATE_H, ("q",), Nil()), Unitary(GATE_X, ("q",), Nil()))
        with pytest.raises(BoundExceeded) as err:
            build_lts(cfg(term, ("q",), dm(KET0)), max_nodes=2)
        assert (err.value.nodes, err.value.depth, err.value.queued) == (2, 0, 1)
        assert str(err.value) == "exploration exceeded max_nodes=2 (2 nodes, depth 0, 1 queued)"

    def test_max_nodes_bound_counts_waiting_nodes(self):
        # both summands reach node 1; once it is expanded, no node waits
        p = Unitary(GATE_H, ("q",), Unitary(GATE_X, ("q",), Nil()))
        with pytest.raises(BoundExceeded) as err:
            build_lts(cfg(Sum(p, p), ("q",), dm(KET0)), max_nodes=2)
        assert (err.value.nodes, err.value.depth, err.value.queued) == (2, 1, 0)

    def test_max_depth_bound(self):
        term = Unitary(GATE_H, ("q",), Unitary(GATE_H, ("q",), Unitary(GATE_H, ("q",), Nil())))
        with pytest.raises(BoundExceeded) as err:
            build_lts(cfg(term, ("q",), dm(KET0)), max_depth=1)
        assert err.value.which == "max_depth"
        assert (err.value.nodes, err.value.depth, err.value.queued) == (2, 1, 0)

    def test_qcom_edges_preserve_context(self):
        # every synchronisation edge keeps the context of its source
        from qccs.demo import build_teleport

        graph = build_lts(build_teleport(1.0, 0.0))
        for i in range(graph.node_count):
            for action, targets in graph.node_edges(i):
                dist = Distribution([(graph.nodes[j], p) for j, p in targets])
                total = sum(p for _, p in dist.items())
                assert abs(total - 1.0) < 1e-9

    def test_moves_within_atol_make_one_edge(self):
        # two measurements whose projectors differ by a 1e-12 rad rotation
        # reach the same two nodes with weights about 6e-13 apart
        eps = 1e-12
        rotated = Observable("B", ((0.0, dm(np.array([np.cos(eps), np.sin(eps)]))),
                                   (1.0, dm(np.array([-np.sin(eps), np.cos(eps)])))))
        term = Sum(Measure(OBS_M01, ("q",), "x", Nil()), Measure(rotated, ("q",), "x", Nil()))
        config = cfg(term, ("q",), dm(np.array([np.cos(0.3), np.sin(0.3)])))
        (_, first), (_, second) = _moves(config, InputPolicy(), numbered_fresh)
        gaps = [abs(p - q) for (_, p), (_, q) in zip(first, second)]
        assert all(0 < gap <= linalg.ATOL for gap in gaps), gaps
        graph = build_lts(config)
        assert graph.node_count == 3
        assert [len(edges) for edges in graph.edges] == [1, 0, 0]
        assert len(transitions(config)) == 1

    def test_teleport_terminals(self):
        from qccs.demo import build_teleport

        graph = build_lts(build_teleport(1.0, 0.0))
        terminals = [i for i in range(graph.node_count) if graph.stuck(i)]
        assert len(terminals) == 4
        for i in terminals:
            reduced = graph.nodes[i].context.reduced([graph.nodes[i].context.vars[0]])
            np.testing.assert_allclose(reduced, dm(KET0), atol=1e-9)


def _prefixes(body, *prefixes):
    """body under the prefixes, the first outermost; each prefix is a
    constructor taking the body last."""
    for make in reversed(prefixes):
        body = make(body)
    return body


def _terminal_mass(graph) -> dict:
    """Probability of ending in each stuck node, for an acyclic graph with
    at most one edge per node and its edges to higher ids."""
    mass = {graph.initial[0]: 1.0}
    for i in range(graph.node_count):
        assert len(graph.edges[i]) <= 1
        for _, targets in graph.edges[i]:
            for j, p in targets:
                assert j > i
                mass[j] = mass.get(j, 0.0) + mass.get(i, 0.0) * p
    return {i: m for i, m in mass.items() if graph.stuck(i)}


class TestScale:
    """Models whose dense states would not fit: a 12-qubit rho is 256 MiB."""

    def test_ghz_12(self):
        n = 12
        qs = [f"q{i}" for i in (3, 0, 7, 11, 5, 1, 9, 2, 10, 6, 4, 8)]
        term = _prefixes(
            Nil(),
            *(lambda b, q=q: QbitNew(q, b) for q in sorted(qs)),
            lambda b: Unitary(GATE_H, (qs[0],), b),
            *(lambda b, x=x, y=y: Unitary(linalg.GATE_CNOT, (x, y), b)
              for x, y in zip(qs, qs[1:])),
            *(lambda b, k=k, q=q: Measure(OBS_M01, (q,), f"x{k}", b)
              for k, q in enumerate(qs[::-1])),
        )
        graph = build_lts(cfg(term))
        assert graph.node_count == 4 * n + 1
        mass = _terminal_mass(graph)
        assert len(mass) == 2
        ends = set()
        for i, m in mass.items():
            assert abs(m - 0.5) < 1e-12
            ctx = graph.nodes[i].context
            assert ctx.factor.shape == (2**n, 1)
            ends.add(int(np.argmax(ctx.diag)))
            assert abs(ctx.diag.max() - 1.0) < 1e-12
        assert ends == {0, 2**n - 1}

    def test_fanout_9(self):
        n = 9
        qs = [f"q{i}" for i in range(n)]
        term = _prefixes(
            Nil(),
            *(lambda b, q=q: QbitNew(q, b) for q in qs),
            *(lambda b, q=q: Unitary(GATE_H, (q,), b) for q in qs[::-1]),
            *(lambda b, k=k, q=q: Measure(OBS_M01, (q,), f"x{k}", b)
              for k, q in enumerate(qs[1::2] + qs[::2])),
        )
        graph = build_lts(cfg(term))
        assert graph.node_count == 2 ** (n + 1) + 2 * n - 1 == 1041
        mass = _terminal_mass(graph)
        assert len(mass) == 2**n
        assert all(abs(m - 2.0**-n) < 1e-12 for m in mass.values())
        ends = [graph.nodes[i].context.diag for i in mass]
        assert all(abs(d.max() - 1.0) < 1e-12 for d in ends)
        assert {int(np.argmax(d)) for d in ends} == set(range(2**n))


class TestCombinedAndLifted:
    def test_combined_transitions_lists_successors(self):
        left, right = corpus_configs("choice", "Left", "Right")
        graph = build_lts([left, right])
        # the combined transitions are the convex hull of these successors
        succ = graph.successors(graph.initial[0], TAU)
        assert len(succ) == 3

    def test_teleport_measurement_lifts_to_terminals(self):
        from qccs.demo import build_teleport

        graph = build_lts(build_teleport(1.0, 0.0))
        # walk first-edge-first to the four-way measurement edge
        node = graph.initial[0]
        mu = None
        for _ in range(20):
            edges = graph.node_edges(node)
            four_way = [t for _, t in edges if len(t) == 4]
            if four_way:
                mu = list(four_way[0])
                break
            node = edges[0][1][0][0]
        assert mu is not None
        # lifted internal steps land in the four corrected terminals
        for _ in range(5):
            if all(graph.stuck(j) for j, _ in mu):
                break
            lifted: dict = {}
            for j, p in mu:
                succ = graph.successors(j, TAU)
                assert len(succ) == 1  # the residual steps are deterministic
                for k, q in succ[0]:
                    lifted[k] = lifted.get(k, 0.0) + p * q
            mu = sorted(lifted.items())
        assert len(mu) == 4
        for j, p in mu:
            assert graph.stuck(j)
            assert abs(p - 0.25) < 1e-9


class TestRunTrace:
    def test_distribution_mode_teleport(self):
        from qccs.demo import build_teleport

        trace = run_trace(build_teleport(0.6, 0.8))
        assert trace.status == "terminated"
        assert len(trace.final) == 4
        assert all(abs(p - 0.25) < 1e-9 for _, p in trace.final)

    def test_sample_mode_is_seeded(self):
        from qccs.demo import build_teleport

        t1 = run_trace(build_teleport(0.6, 0.8), scheduler="random", seed=5, sample=True)
        t2 = run_trace(build_teleport(0.6, 0.8), scheduler="random", seed=5, sample=True)
        assert [s.sampled for s in t1.steps] == [s.sampled for s in t2.steps]
        assert len(t1.final) == 1

    def test_deterministic_chain(self):
        term = Unitary(GATE_H, ("q",), Unitary(GATE_X, ("q",), Nil()))
        trace = run_trace(cfg(term, ("q",), dm(KET0)))
        assert [format_action(s.action) for s in trace.steps] == ["tau", "tau"]

    def test_stuck_on_restricted_channel(self):
        term = Restrict(COutput(C, Const(0.0), Nil()), frozenset({C}))
        with pytest.raises(StuckError) as err:
            run_trace(cfg(term))
        assert any(isinstance(a, COut) and a.value == 0.0 for a in err.value.blocked)
        assert err.value.enabled == ()
        assert str(err.value) == "execution is stuck; blocked actions: c!0"

    def test_stuck_when_the_points_disagree(self):
        # both outcomes can move, on c!0 and c!1, but no action is enabled
        # at both, so the report names each point's actions
        term = Measure(OBS_M01, ("q",), "x", COutput(C, Var("x"), Nil()))
        with pytest.raises(StuckError) as err:
            run_trace(cfg(term, ("q",), dm(KET_PLUS)))
        assert err.value.blocked == ()
        assert [(round(p, 9), actions, held) for p, actions, held in err.value.enabled] == [
            (0.5, (COut(C, 0.0),), ()), (0.5, (COut(C, 1.0),), ())]
        assert str(err.value) == ("execution is stuck; no action is enabled at every "
                                  "support point; enabled at each: c!0 (p=0.5); c!1 (p=0.5)")

    def test_stuck_when_some_points_cannot_move(self):
        # outcome 0 can move on c!0; outcome 1 has terminated, or restriction
        # blocks its c!1: the report names every point
        for rest, held, report in (
                (If(Cmp("=", Const(1.0), Const(0.0)), Nil()), None, "terminated"),
                (Restrict(COutput(C, Const(1.0), Nil()), frozenset({C})), (COut(C, 1.0),),
                 "blocked c!1")):
            body = Sum(If(Cmp("=", Var("x"), Const(0.0)), COutput(C, Const(0.0), Nil())),
                       If(Cmp("=", Var("x"), Const(1.0)), rest))
            with pytest.raises(StuckError) as err:
                run_trace(cfg(Measure(OBS_M01, ("q",), "x", body), ("q",), dm(KET_PLUS)))
            assert err.value.blocked == (held or ())
            assert [(round(p, 9), actions, h) for p, actions, h in err.value.enabled] == [
                (0.5, (COut(C, 0.0),), ()), (0.5, (), held)]
            assert str(err.value) == (
                "execution is stuck; no action is enabled at every support point; "
                f"enabled at each: c!0 (p=0.5); {report} (p=0.5)")

    def test_stuck_names_a_blocked_input_by_its_binder(self):
        for term, report in ((CInput(C, "x", Nil()), "c?x"),
                             (QInput(QC, "q", Nil()), "qc?q")):
            with pytest.raises(StuckError) as err:
                run_trace(cfg(Restrict(term, frozenset({term.chan}))))
            assert str(err.value) == f"execution is stuck; blocked actions: {report}"

    def test_script_scheduler(self):
        term = Sum(COutput(C, Const(0.0), Nil()), COutput(D, Const(1.0), Nil()))
        trace = run_trace(cfg(term), scheduler=[1])
        assert format_action(trace.steps[0].action) == "d!1"


def out(chan, value, body=None):
    return COutput(chan, Const(value), body or Nil())


FALSE = Cmp("=", Const(1.0), Const(0.0))


class TestStuckReports:
    """What restriction blocks at a configuration that cannot move, read off
    the rule engine's own derivation, and termination as nothing blocked."""

    def test_agrees_with_the_reference_walkers(self):
        # every stuck node of seeded random graphs, under the suites' open
        # policy and the closed one; some terms are restricted, some sit
        # beside a false `if` over a restricted term, whose actions can
        # never fire
        rng = np.random.default_rng(28)
        stuck = held = 0
        for k in range(300):
            term = laws.random_process(rng, 4, ("q0", "q1"), allow_quantum_input=True)
            if rng.random() < 0.5:
                chans = rng.choice(laws.CCHANS + laws.QCHANS, size=2, replace=False)
                term = Restrict(term, frozenset(chans))
            if rng.random() < 0.2:
                dead = laws.random_process(rng, 2, (), classical_only=True)
                term = Parallel(term, If(FALSE, Restrict(dead, frozenset(laws.CCHANS))))
            ctx = make_context(("q0", "q1"), laws.random_density(rng, 2))
            policy = laws.SUITE_POLICY if k % 2 else InputPolicy()
            try:
                graph = build_lts(Configuration(term, ctx), policy=policy, max_nodes=200)
            except LtsError:
                continue
            for i, node in enumerate(graph.nodes):
                if graph.stuck(i):
                    got = blocked_actions(node)
                    assert (not got) == terminated_oracle(node.process), str(node)
                    assert got == blocked_oracle(node), str(node)
                    stuck += 1
                    held += bool(got)
        assert held >= 50 and stuck > held

    def test_nested_restrictions_report_outer_first(self):
        inner = Restrict(out(C, 1.0), frozenset({C}))
        term = Restrict(Parallel(inner, out(D, 2.0)), frozenset({D}))
        assert blocked_actions(cfg(term)) == [COut(D, 2.0), COut(C, 1.0)]
        with pytest.raises(StuckError) as err:
            run_trace(cfg(term))
        assert str(err.value) == "execution is stuck; blocked actions: d!2, c!1"

    def test_a_false_if_blocks_nothing(self):
        dead = If(FALSE, Restrict(out(C, 2.0), frozenset({C})))
        term = Parallel(Restrict(out(C, 1.0), frozenset({C})), dead)
        assert blocked_actions(cfg(term)) == [COut(C, 1.0)]
        assert blocked_actions(cfg(Parallel(Nil(), dead))) == []

    def test_terminated_only_through_a_dead_branch(self):
        # the point of outcome 1 holds a restricted output under a false
        # `if`: it has terminated, alone and beside a point that can move
        dead = Parallel(Nil(), If(FALSE, Restrict(out(C, 2.0), frozenset({C}))))
        trace = run_trace(cfg(dead))
        assert (trace.status, trace.steps) == ("terminated", [])
        body = Sum(If(Cmp("=", Var("x"), Const(0.0)), out(C, 0.0)),
                   If(Cmp("=", Var("x"), Const(1.0)), dead))
        with pytest.raises(StuckError) as err:
            run_trace(cfg(Measure(OBS_M01, ("q",), "x", body), ("q",), dm(KET_PLUS)))
        assert err.value.blocked == ()
        assert [(round(p, 9), actions, h) for p, actions, h in err.value.enabled] == [
            (0.5, (COut(C, 0.0),), ()), (0.5, (), None)]
        assert str(err.value) == (
            "execution is stuck; no action is enabled at every support point; "
            "enabled at each: c!0 (p=0.5); terminated (p=0.5)")

    def test_empty_input_policies_are_refused(self):
        # an input the policy gives no move would be neither terminated
        # nor blocked
        message = "^input policy has an empty classical domain or no quantum recipe$"
        with pytest.raises(LtsError, match=message):
            InputPolicy(classical_domains=((D, (0.0,)), (C, ())))
        with pytest.raises(LtsError, match=message):
            InputPolicy(quantum_recipes=(), closed_only=False)


class TestTermStage:
    """The rule engine's two stages against the one-pass engine they replace
    (helpers.derive_oracle): the step templates stored on each term node,
    and the context stage that applies their operations."""

    @staticmethod
    def assert_same_moves(got, want):
        # actions, order, target terms, weights and context factors, bit for bit
        assert [repr(a) for a, _ in got] == [repr(a) for a, _ in want]
        for (_, pairs), (_, ref) in zip(got, want):
            assert len(pairs) == len(ref)
            for (c, p), (d, q) in zip(pairs, ref):
                assert c.process == d.process and p == q, (str(c), str(d), p, q)
                assert c.context.vars == d.context.vars
                assert c.context.factor.tobytes() == d.context.factor.tobytes()

    @staticmethod
    def outcome(derive, *args):
        try:
            return derive(*args), None
        except LtsError as exc:
            return None, (type(exc), str(exc))

    def assert_agrees(self, config, policy, fresh) -> list:
        got, raised = self.outcome(_moves, config, policy, fresh)
        want, ref_raised = self.outcome(moves_oracle, config, policy, fresh)
        assert raised == ref_raised, str(config)
        assert blocked_actions(config) == blocked_actions_oracle(config), str(config)
        if raised:
            return []
        self.assert_same_moves(got, want)
        index = ContextIndex()
        reference = _file(want, lambda c: index.file(c.key, c.context)[0], [])
        self.assert_same_moves(transitions(config, policy, fresh), reference)
        return got

    def test_agrees_with_the_one_pass_engine_on_random_terms(self):
        # 320 seeded depth-4 terms with restrictions, relabellings, sums,
        # false `if`s and quantum inputs and outputs, in random contexts that
        # may hold a qubit the term never names; every node of each bounded
        # graph is compared, half under the suites' open policy and half
        # closed, with both fresh-name policies
        rng = np.random.default_rng(32)
        seen: dict = {}
        checked = 0
        for k in range(320):
            term = laws.random_process(rng, 4, ("q0", "q1"), allow_quantum_input=True)
            if rng.random() < 0.5:
                chans = rng.choice(laws.CCHANS + laws.QCHANS, size=2, replace=False)
                term = Restrict(term, frozenset(chans))
            if rng.random() < 0.2:
                dead = laws.random_process(rng, 2, (), classical_only=True)
                term = Parallel(term, If(FALSE, Restrict(dead, frozenset(laws.CCHANS))))
            names = list(rng.permutation(["q0", "q1", "q2"][:int(rng.integers(2, 4))]))
            ctx = make_context(names, laws.random_density(rng, len(names)))
            policy = laws.SUITE_POLICY if k % 2 else InputPolicy()
            fresh = hint_fresh if k % 4 < 2 else numbered_fresh
            root = Configuration(term, ctx)
            configs = [root]
            try:
                configs = build_lts(root, policy=policy, max_nodes=40).nodes
            except LtsError:
                pass
            for config in configs:
                checked += 1
                for action, _ in self.assert_agrees(config, policy, fresh):
                    seen[type(action).__name__] = seen.get(type(action).__name__, 0) + 1
                seen["blocked"] = seen.get("blocked", 0) + bool(blocked_actions(config))
        assert min(seen.values()) >= 50 and len(seen) == 6 and checked > 1000, (seen, checked)

    def test_whole_graphs_match_the_one_pass_engine(self, monkeypatch):
        # the seed-0 teleport-check pairs, GHZ-6 and fan-out-5: every node's
        # term and context, every edge, in order
        inputs = perfbench_inputs()
        roots = []
        for source in inputs.teleport_sources(0).values():
            elab = elaborate(parse(source))
            roots.append(([elab.configs["Left"], elab.configs["Right"]], elab.policy))
        for model in inputs.scaling_models(0):
            if model.name in ("ghz-6", "fanout-5"):
                elab = elaborate(parse(model.source))
                roots.append(([elab.configs["Main"]], elab.policy))
        graphs = [build_lts(configs, policy) for configs, policy in roots]
        monkeypatch.setattr(lts, "_moves", moves_oracle)
        for graph, (configs, policy) in zip(graphs, roots):
            reference = build_lts(configs, policy)
            assert graph.initial == reference.initial
            assert graph.edges == reference.edges
            assert len(graph.nodes) == len(reference.nodes)
            for a, b in zip(graph.nodes, reference.nodes):
                assert a.process == b.process and a.context.vars == b.context.vars
                assert a.context.factor.tobytes() == b.context.factor.tobytes()
        assert sum(g.node_count for g in graphs) > 150

    def test_a_value_and_its_negative_zero_continue_apart(self):
        # -0.0 == 0.0, but c?x instantiated at each is its own term, as
        # subst_classical keys by sign, beside a peer too
        body = CInput(C, "x", COutput(D, Var("x"), Nil()))
        policy = InputPolicy(classical_domains=((C, (-0.0, 0.0)),), closed_only=False)
        for term, reach in ((body, lambda t: t), (Parallel(body, Nil()), lambda t: t.left)):
            config = cfg(term)
            moves = _moves(config, policy, numbered_fresh)
            assert [repr(a.value) for a, _ in moves] == ["-0.0", "0.0"]
            (negative, _), = moves[0][1]
            (positive, _), = moves[1][1]
            assert negative.process == positive.process
            assert negative.process is not positive.process
            assert [str(reach(c.process).expr.value) for c in (negative, positive)] == [
                "-0.0", "0.0"]
            again = _moves(config, policy, numbered_fresh)
            assert [pairs[0][0].process for _, pairs in again] == [
                negative.process, positive.process]
            assert all(pairs[0][0].process is c.process
                       for (_, pairs), c in zip(again, (negative, positive)))

    def test_a_teleport_build_derives_each_term_node_once(self, monkeypatch):
        import helpers
        from qccs.demo import build_teleport

        derived: dict = {}
        stage = lts._term_stage
        monkeypatch.setattr(lts, "_term_stage", lambda t: derived.setdefault(
            id(t), []).append(t) or stage(t))  # the list keeps each id unique
        expanded = []
        moves = lts._moves
        monkeypatch.setattr(lts, "_moves", lambda c, *a: expanded.append(c) or moves(c, *a))
        graph = build_lts([build_teleport(0.6, 0.8), build_teleport(0.6, -0.8)])
        assert graph.node_count == 54 and len(expanded) == 54
        assert derived and all(len(terms) == 1 for terms in derived.values())
        # the one-pass engine derives a node's whole term in every context
        calls = []
        derive = helpers.derive_oracle
        monkeypatch.setattr(helpers, "derive_oracle",
                            lambda t, *a: calls.append(t) or derive(t, *a))
        for config in expanded:
            moves_oracle(config)
        assert 10 * len(derived) < 7 * len(calls), (len(derived), len(calls))

    def test_no_template_holds_a_context_or_an_array(self):
        # the templates, their memoised continuations and the closures that
        # build them reach terms, names, values and actions only: a context
        # lives for the operation that made it
        from qccs.demo import build_teleport
        from qccs.syntax import _Term

        graphs = [build_lts([build_teleport(0.6, 0.8), build_teleport(0.6, -0.8)])]
        rng = np.random.default_rng(5)
        for _ in range(20):
            term = laws.random_process(rng, 3, ("q0", "q1"), allow_quantum_input=True)
            ctx = make_context(("q0", "q1"), laws.random_density(rng, 2))
            graphs.append(build_lts(Configuration(term, ctx), laws.SUITE_POLICY))
        seen, counts = set(), {"templates": 0, "made": 0, "closures": 0}

        def walk(x):
            if id(x) in seen:
                return
            seen.add(id(x))
            assert not isinstance(x, (QContext, np.ndarray)), type(x)
            if isinstance(x, _Term):
                return
            if isinstance(x, lts._Template):
                counts["templates"] += 1
                counts["made"] += len(x.made or ())
                for slot in lts._Template.__slots__:
                    walk(getattr(x, slot))
            elif isinstance(x, (tuple, list, frozenset)):
                for y in x:
                    walk(y)
            elif isinstance(x, dict):
                for key, value in x.items():
                    walk(key)
                    walk(value)
            elif callable(x) and hasattr(x, "__closure__"):
                counts["closures"] += 1
                for cell in x.__closure__ or ():
                    walk(cell.cell_contents)
                walk(x.__defaults__ or ())

        def nodes(t):
            yield t
            for s in subterms(t):
                yield from nodes(s)

        for graph in graphs:
            for config in graph.nodes:
                for node in nodes(config.process):
                    walk(vars(node).get("_steps", ()))
        assert min(counts.values()) > 100, counts


class TestBadConfiguration:
    def test_free_classical_variables(self):
        with pytest.raises(BadConfiguration) as err:
            cfg(Parallel(COutput(C, Var("y"), Nil()), COutput(D, Var("x"), Nil())))
        assert str(err.value) == "process has free classical variables ['x', 'y']"

    def test_uncovered_quantum_variables(self):
        with pytest.raises(BadConfiguration) as err:
            cfg(QOutput(QC, "r", Unitary(GATE_H, ("q",), Nil())), ("s",), dm(KET0))
        assert str(err.value) == "context does not cover quantum variables ['q', 'r']"

    def test_ill_formed_terms(self):
        # qc!q.H[q].nil uses q after sending it; run_trace and build_lts
        # refused it, and now no caller of transitions or blocked_actions can
        # be handed it either
        bad = QOutput(QC, "q", Unitary(GATE_H, ("q",), Nil()))
        for call in (transitions, blocked_actions, build_lts, run_trace):
            with pytest.raises(WellformednessError) as err:
                call(cfg(bad, ("q",), dm(KET0)))
            assert str(err.value) == "output-then-use at root: q used after output"
        h = Unitary(GATE_H, ("q",), Nil())
        with pytest.raises(WellformednessError) as err:
            cfg(Parallel(h, Restrict(h, frozenset())), ("q",), dm(KET0))
        assert str(err.value) == "parallel-overlap at root: components share {q}"

    def test_closed_then_covered_then_well_formed(self):
        bad = QOutput(QC, "q", Unitary(GATE_H, ("q",), COutput(C, Var("x"), Nil())))
        with pytest.raises(BadConfiguration, match="free classical variables"):
            cfg(bad, ("q",), dm(KET0))
        with pytest.raises(BadConfiguration, match="does not cover"):
            cfg(QOutput(QC, "q", Unitary(GATE_H, ("q",), Nil())), ("r",), dm(KET0))


class TestChooser:
    """How a scheduler picks the action of each round, and the move of each
    support point that has more than one move with that action."""

    # c!0.c!1 + d!0.d!1, then the same choice again after either output
    TWICE = Sum(out(C, 0, Sum(out(C, 1), out(D, 1))), out(D, 0, Sum(out(C, 1), out(D, 1))))

    def actions(self, term, scheduler, vars_=(), state=None):
        return [format_action(s.action)
                for s in run_trace(cfg(term, vars_, state), scheduler=scheduler).steps]

    def test_a_short_script_falls_back_to_the_first_option(self):
        assert self.actions(self.TWICE, [1]) == ["d!0", "c!1"]
        assert self.actions(self.TWICE, []) == ["c!0", "c!1"]

    def test_entries_wrap_modulo_the_options(self):
        assert self.actions(self.TWICE, [3, 2]) == ["d!0", "c!1"]
        assert self.actions(self.TWICE, [4, 5]) == ["c!0", "d!1"]

    def test_a_point_with_one_option_consumes_no_entry(self):
        # the tau round reads entry 0 for its action; its one move reads none,
        # so entry 1 picks the output
        term = Unitary(GATE_X, ("q",), Sum(out(C, 0), out(D, 0)))
        assert self.actions(term, [0, 1], ("q",), dm(KET0)) == ["tau", "d!0"]

    def test_a_point_with_two_options_consumes_an_entry(self):
        # X and H both move on tau: entry 0 picks the action, entry 1 the H
        term = Sum(Unitary(GATE_X, ("q",), Nil()), Unitary(GATE_H, ("q",), Nil()))
        trace = run_trace(cfg(term, ("q",), dm(KET0)), scheduler=[0, 1])
        (final, _), = trace.final
        assert np.allclose(final.context.rho, dm(KET_PLUS))

    def test_unknown_scheduler_is_refused(self):
        for scheduler in ("last", None, 1):
            with pytest.raises(ValueError):
                run_trace(cfg(Nil()), scheduler=scheduler)

    @pytest.mark.parametrize("scheduler, seed, sample, steps, final", [
        # the script: c!2 (1 of 3), the measurement (4 of 2), then per
        # point the tau action (0) and H (3, then 1), c!0 (2), then 0
        ([1, 4, 0, 3, 1, 2], 4, False,
         [("c!2", None), ("tau", None), ("tau", None), ("c!0", None), ("d!3", None)],
         [(0.5, [0.5, 0.5]), (0.5, [0.5, 0.5])]),
        ([1, 4, 0, 3, 1, 2], 4, True,
         [("c!2", 0), ("tau", 1), ("tau", 0), ("d!3", 0), ("c!0", 0)],
         [(1.0, [1.0, 0.0])]),
        ("random", 2, False,
         [("d!3", None), ("tau", None), ("tau", None), ("c!0", None)],
         [(0.5, [0.0, 1.0]), (0.5, [1.0, 0.0])]),
        ("random", 2, True,
         [("d!3", 0), ("tau", 1), ("tau", 0), ("c!0", 0)],
         [(1.0, [1.0, 0.0])]),
    ])
    def test_pinned_runs(self, scheduler, seed, sample, steps, final):
        # M01[q; x].(X[q].c!0 + H[q].c!0) || (c!2.d!3 + d!3) from |+>: the
        # action and sampled branch of each step, and each final point's
        # weight and diagonal, which shows whether X or H ran there
        term = Parallel(
            Measure(OBS_M01, ("q",), "x", Sum(Unitary(GATE_X, ("q",), out(C, 0)),
                                              Unitary(GATE_H, ("q",), out(C, 0)))),
            Sum(out(C, 2, out(D, 3)), out(D, 3)))
        trace = run_trace(cfg(term, ("q",), dm(KET_PLUS)), scheduler=scheduler, seed=seed,
                          sample=sample)
        assert trace.status == "terminated"
        assert [(format_action(s.action), s.sampled) for s in trace.steps] == steps
        assert [(round(p, 9), np.round(c.context.rho.diagonal().real, 9).tolist())
                for c, p in trace.final] == final


class TestExports:
    def test_json_shape(self):
        graph = build_lts(corpus_configs("weak_example", "C")[0])
        payload = lts_to_json(graph)
        assert payload["format"] == "qccs-lts" and payload["version"] == 1
        assert len(payload["nodes"]) == graph.node_count
        assert all("term" in n and "rho" in n for n in payload["nodes"])
        probs = [t["prob"] for e in payload["edges"] for t in e["targets"]]
        assert all(0 < p <= 1 for p in probs)

    def test_json_rho_matches_entrywise_encoding(self):
        # every node's rho prints as [re, im] pairs, entry by entry, to the bit
        import json

        from qccs.demo import build_teleport

        def entrywise(m):
            return [[[float(z.real), float(z.imag)] for z in row] for row in m]

        graph = build_lts(build_teleport(0.6, 0.8))
        for node, out in zip(graph.nodes, lts_to_json(graph)["nodes"]):
            assert json.dumps(out["rho"]) == json.dumps(entrywise(node.context.rho))
        signed = np.array([[complex(-0.0, 1.0), complex(0.5, -0.0)],
                           [complex(1e-300, -2.0), complex(-3.0, 0.0)]])
        assert json.dumps(_complex_pairs(signed)) == json.dumps(entrywise(signed))

    def test_dot_mentions_all_nodes(self):
        graph = build_lts(corpus_configs("weak_example", "C")[0])
        dot = lts_to_dot(graph)
        assert dot.startswith("digraph")
        for i in range(graph.node_count):
            assert f"n{i} " in dot


class TestRuleSoundness:
    def test_emitted_transitions_keep_invariants(self):
        # configuration and distribution invariants hold for every emitted
        # transition of random well-formed terms (the constructors re-check)
        from qccs.laws import random_process
        from qccs.syntax import qv

        rng = np.random.default_rng(17)
        for _ in range(150):
            term = random_process(rng, 3, ("q0", "q1"))
            v = rng.normal(size=4) + 1j * rng.normal(size=4)
            v /= np.linalg.norm(v)
            config = Configuration(term, make_context(("q0", "q1"), dm(v)))
            for action, dist in transitions(config, OPEN):
                total = sum(p for _, p in dist)
                assert abs(total - 1.0) < 1e-9
                for target, p in dist:
                    assert 0 < p <= 1 + 1e-9
                    assert qv(target.process) <= set(target.context.vars)


class TestSingleRuleOracle:
    """Randomised agreement with a direct, structure-cased interpreter."""

    def test_agreement_on_small_terms(self):
        rng = np.random.default_rng(11)
        from qccs.laws import random_process

        checked = 0
        for _ in range(400):
            term = random_process(rng, 2, ("q0", "q1"))
            if _operator_count(term) > 2:
                continue
            vars_ = ("q0", "q1")
            v = rng.normal(size=4) + 1j * rng.normal(size=4)
            v /= np.linalg.norm(v)
            config = Configuration(term, make_context(vars_, dm(v)))
            got = transitions(config, OPEN)
            want = _direct_interp(config, OPEN)
            if want is None:
                continue
            checked += 1
            assert _transition_sets_equal(got, want), f"mismatch on {term}"
        assert checked >= 60

    def test_oracle_example(self):
        # sanity: the direct interpreter itself reproduces a known case
        config = cfg(COutput(C, Const(2.0), Nil()))
        want = _direct_interp(config, OPEN)
        assert want is not None and actions_of(want) == ["c!2"]


def _operator_count(term) -> int:
    match term:
        case Nil():
            return 0
        case Sum(left=l, right=r) | Parallel(left=l, right=r):
            return 1 + _operator_count(l) + _operator_count(r)
        case CInput(body=b) | COutput(body=b) | QbitNew(body=b) | QInput(body=b) \
            | QOutput(body=b) | Unitary(body=b) | Measure(body=b) \
            | Relabel(body=b) | Restrict(body=b) | If(body=b):
            return 1 + _operator_count(b)
    raise TypeError(term)


def _prefix_step(term, ctx, policy):
    """Transitions of a single prefix, straight from the rule definitions."""
    from qccs.context import apply_unitary, measure as ctx_measure, new_qubit
    from qccs.syntax import eval_expr, subst_classical, subst_quantum, qv

    match term:
        case Nil():
            return []
        case COutput(chan=c, expr=e, body=b):
            return [(COut(c, eval_expr(e)), [(b, ctx, 1.0)])]
        case CInput(chan=c, var=x, body=b):
            return [(CIn(c, float(v)), [(subst_classical(b, x, float(v)), ctx, 1.0)])
                    for v in policy.domain(c)]
        case QbitNew(qvar=q, body=b):
            r = "#0" if "#0" not in ctx.vars else "#1"
            return [(TAU, [(subst_quantum(b, q, r), new_qubit(ctx, r), 1.0)])]
        case QOutput(chan=c, qvar=q, body=b):
            return [(QOut(c, q), [(b, ctx, 1.0)])]
        case QInput(chan=c, qvar=q, body=b):
            out = []
            for r in ctx.vars:
                if r not in (qv(b) - {q}):
                    out.append((QIn(c, r), [(subst_quantum(b, q, r), ctx, 1.0)]))
            r = "#0" if "#0" not in ctx.vars else "#1"
            for _, single in policy.quantum_recipes:
                sigma = np.kron(single, ctx.rho)
                out.append((QIn(c, r),
                            [(subst_quantum(b, q, r), make_context((r,) + ctx.vars, sigma), 1.0)]))
            return out
        case Unitary(gate=g, qvars=qs, body=b):
            return [(TAU, [(b, apply_unitary(ctx, g, qs), 1.0)])]
        case Measure(obs=m, qvars=qs, var=x, body=b):
            outcomes = ctx_measure(ctx, m, qs)
            return [(TAU, [(subst_classical(b, x, ev), c2, p) for ev, p, c2 in outcomes])]
    return None


def _direct_interp(config, policy):
    """Expected transitions for terms with at most two operators; None when
    the shape is outside the oracle's coverage."""
    from qccs.syntax import eval_bool, qv

    term, ctx = config.process, config.context

    def pack(steps):
        return [(a, Distribution([(Configuration(t, c), p) for t, c, p in tg]).items())
                for a, tg in steps]

    base = _prefix_step(term, ctx, policy)
    if base is not None:
        return pack(base)

    match term:
        case Sum(left=l, right=r):
            sl, sr = _prefix_step(l, ctx, policy), _prefix_step(r, ctx, policy)
            if sl is None or sr is None:
                return None
            return pack(sl + sr)
        case If(cond=c, body=b):
            sb = _prefix_step(b, ctx, policy)
            if sb is None:
                return None
            return pack(sb if eval_bool(c) else [])
        case Restrict(body=b, chans=blocked):
            sb = _prefix_step(b, ctx, policy)
            if sb is None:
                return None
            kept = [(a, [(Restrict(t, blocked), c2, p) for t, c2, p in tg])
                    for a, tg in sb if a == TAU or a.chan not in blocked]
            return pack(kept)
        case Relabel(body=b, fn=f):
            sb = _prefix_step(b, ctx, policy)
            if sb is None:
                return None
            from dataclasses import replace

            return pack([(a if a == TAU else replace(a, chan=f.apply(a.chan)),
                          [(Relabel(t, f), c2, p) for t, c2, p in tg]) for a, tg in sb])
        case Parallel(left=l, right=r):
            sl, sr = _prefix_step(l, ctx, policy), _prefix_step(r, ctx, policy)
            if sl is None or sr is None:
                return None
            out = []
            for a, tg in sl:
                if isinstance(a, QIn) and a.qvar in qv(r):
                    continue
                out.append((a, [(Parallel(t, r), c2, p) for t, c2, p in tg]))
            for a, tg in sr:
                if isinstance(a, QIn) and a.qvar in qv(l):
                    continue
                out.append((a, [(Parallel(l, t), c2, p) for t, c2, p in tg]))
            for a1, tg1 in sl:
                for a2, tg2 in sr:
                    sync = (
                        (isinstance(a1, COut) and isinstance(a2, CIn)
                         and a1.chan == a2.chan and a1.value == a2.value)
                        or (isinstance(a1, CIn) and isinstance(a2, COut)
                            and a1.chan == a2.chan and a1.value == a2.value)
                        or (isinstance(a1, QOut) and isinstance(a2, QIn)
                            and a1.chan == a2.chan and a1.qvar == a2.qvar
                            and tg2[0][1].vars == ctx.vars)
                        or (isinstance(a1, QIn) and isinstance(a2, QOut)
                            and a1.chan == a2.chan and a1.qvar == a2.qvar
                            and tg1[0][1].vars == ctx.vars)
                    )
                    if sync:
                        (t1, c1, _), = tg1
                        (t2, _, _), = tg2
                        out.append((TAU, [(Parallel(t1, t2), c1, 1.0)]))
            return pack(out)
    return None


def _transition_sets_equal(got, want) -> bool:
    if len(got) != len(want):
        # the engine deduplicates; retry after deduplicating the oracle side
        want = reference_dedup(want)
        if len(got) != len(want):
            return False
    used = set()
    for a, d in got:
        for k, (a2, d2) in enumerate(want):
            if k not in used and a == a2 and reference_approx_equal(d, d2):
                used.add(k)
                break
        else:
            return False
    return True
