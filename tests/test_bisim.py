"""Bisimilarity-checker tests: paper examples, flow queries, oracle agreement."""

import warnings
import weakref
from fractions import Fraction

import numpy as np
import pytest

from qccs import bisim, laws, linalg, lp
from qccs.bisim import Partition, class_vector, equality_check, strong_bisim, weak_bisim
from qccs.context import make_context
from qccs.demo import build_teleport
from qccs.frontend import elaborate, parse
from qccs.linalg import GATE_I, GATE_X, KET0, KET1, KET_PLUS, KET_MINUS, OBS_M01, dm
from qccs.lts import TAU, Configuration, QOut, Tau, build_lts, format_action
from qccs.syntax import (
    Chan, CInput, Cmp, Const, COutput, If, Measure, Nil, Parallel, QOutput, Restrict,
    Sum, Unitary, Var, qv,
)

from helpers import (
    CORPUS, OBS_MPM, BisimOracle, SyntheticLts, corpus_configs, exact_class_vector,
    exact_hull_member, matcher_witness, node_of, oracle_strong_bisimilar, random_synthetic_lts,
    restart_scan,
)
from test_system import corrupted_teleport

C = Chan("c", False)
QC = Chan("qc", True)


def cfg(term, vars_=(), state=None):
    if not vars_:
        return Configuration(term, make_context((), [[1.0]]))
    return Configuration(term, make_context(vars_, state))


def pair_lts(t1, ctx1, t2, ctx2):
    graph = build_lts([Configuration(t1, ctx1), Configuration(t2, ctx2)])
    return graph, graph.initial[0], graph.initial[1]


def weak_move(graph, source, action, target, partition, strict=False):
    """The flow of a weak move of `source` by `action` with the class vector
    `target` over `partition`, strict for tau when `strict`, or None."""
    return matcher_witness(bisim._Matcher(graph, "weak", lp.TOL), source, action, target,
                           partition, strict)


class TestStrongExamples:
    def test_class_vector(self):
        partition = Partition([0, 0, 1, 2])
        assert class_vector(((0, 0.25), (1, 0.25), (3, 0.5)), partition) == (0.5, 0.0, 0.5)

    def test_choice_example_equivalent_with_half_half_witness(self):
        left, right = corpus_configs("choice", "Left", "Right")
        graph = build_lts([left, right])
        res = strong_bisim(graph, graph.initial[0], graph.initial[1])
        assert res.equivalent
        weight_sets = [sorted(round(x, 6) for x in m["weights"])
                       for m in res.witness if "weights" in m]
        assert [0.5, 0.5] in weight_sets

    def test_choice_witness_prints_no_signed_zero(self):
        # the simplex leaves -0.0 on one partner of node 0's tau move; the
        # witness JSON prints it as 0.0
        left, right = corpus_configs("choice", "Left", "Right")
        graph = build_lts([left, right])
        res = strong_bisim(graph, graph.initial[0], graph.initial[1])
        weights = next(m["weights"] for m in res.witness
                       if m["from"] == "left" and m["action"] == "tau")
        assert weights == [1.0, 0.0] and not np.signbit(weights).any()

    def test_intro_pair_distinguished_by_terminal_context(self):
        p = COutput(C, Const(0.0), Nil())
        graph, i, j = pair_lts(p, make_context(("q",), dm(KET0)),
                               p, make_context(("q",), dm(KET1)))
        res = strong_bisim(graph, i, j)
        assert not res.equivalent
        assert res.counterexample is not None

    def test_restriction_non_congruence(self):
        p = Unitary(GATE_X, ("q",), COutput(C, Const(0.0), Unitary(GATE_I, ("q",), Nil())))
        q = Unitary(GATE_I, ("q",), COutput(C, Const(0.0), Unitary(GATE_X, ("q",), Nil())))
        ctx = make_context(("q",), dm(KET0))
        graph, i, j = pair_lts(p, ctx, q, ctx)
        assert strong_bisim(graph, i, j).equivalent
        pr = Restrict(p, frozenset({C}))
        qr = Restrict(q, frozenset({C}))
        graph2, i2, j2 = pair_lts(pr, ctx, qr, ctx)
        res = strong_bisim(graph2, i2, j2)
        assert not res.equivalent

    def test_reflexive_and_symmetric(self):
        left, right = corpus_configs("choice", "Left", "Right")
        graph = build_lts([left, right])
        i, j = graph.initial
        assert strong_bisim(graph, i, i).equivalent
        assert strong_bisim(graph, i, j).equivalent == strong_bisim(graph, j, i).equivalent

    def test_fixpoint_partition_is_an_equivalence(self):
        left, right = corpus_configs("choice", "Left", "Right")
        graph = build_lts([left, right])
        res = strong_bisim(graph, graph.initial[0], graph.initial[1])
        seen = set()
        for block in res.partition.blocks():
            for node in block:
                assert node not in seen
                seen.add(node)
        assert seen == set(range(graph.node_count))

    def test_stuck_vs_active(self):
        graph, i, j = pair_lts(Nil(), make_context(("q",), dm(KET0)),
                               Unitary(GATE_X, ("q",), Nil()), make_context(("q",), dm(KET0)))
        res = strong_bisim(graph, i, j)
        assert not res.equivalent


class TestOracleAgreement:
    def test_matches_brute_force_on_random_systems(self):
        rng = np.random.default_rng(123)
        systems = 0
        pairs_checked = 0
        while systems < 30:
            slts = random_synthetic_lts(rng, max_nodes=5)
            systems += 1
            res = strong_bisim(slts, 0, min(1, slts.n - 1))
            block_of = res.partition.block_of
            for i in range(slts.n):
                for j in range(i + 1, slts.n):
                    mine = block_of[i] == block_of[j]
                    brute = oracle_strong_bisimilar(slts, i, j)
                    assert mine == brute, (slts.edges_exact, slts.labels, i, j)
                    pairs_checked += 1
        assert pairs_checked >= 100


class TestWeakFigures:
    def setup_method(self):
        self.graph = build_lts(corpus_configs("weak_example", "C")[0])
        self.c = self.graph.initial[0]
        self.c5 = node_of(self.graph, cfg(Nil(), ("q",), dm(KET_PLUS)))
        self.c6 = node_of(self.graph, cfg(Nil(), ("q",), dm(KET_MINUS)))
        self.singletons = Partition(list(range(self.graph.node_count)))
        self.label = QOut(QC, "q")

    def target(self, m5, m6):
        vec = [0.0] * self.graph.node_count
        vec[self.c5] = m5
        vec[self.c6] = m6
        return tuple(vec)

    def query(self, m5, m6):
        return weak_move(self.graph, self.c, self.label, self.target(m5, m6), self.singletons)

    def test_fig1_half_half(self):
        assert self.query(0.5, 0.5) is not None

    def test_fig2_point(self):
        assert self.query(1.0, 0.0) is not None

    def test_fig3_three_quarters(self):
        assert self.query(0.75, 0.25) is not None

    def test_convex_combinations_feasible(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            p = float(rng.uniform(0.01, 0.99))
            # p * fig1 + (1-p) * fig2
            assert self.query(0.5 * p + (1 - p), 0.5 * p) is not None

    def test_overweight_target_infeasible(self):
        assert self.query(1.1, -0.1) is None
        assert self.query(1.1, 0.0) is None

    def test_unreachable_mass_infeasible(self):
        vec = [0.0] * self.graph.node_count
        vec[self.c5] = 0.5
        vec[self.c] = 0.5  # the start node is never a qc!q target
        assert weak_move(self.graph, self.c, self.label, vec, self.singletons) is None

    def test_fig1_decomposition_reverifies(self):
        # the (1/2, 1/2) target forces all first-step flow through the
        # computational measurement; its successors complete to the figure's
        # per-branch targets
        w = self.query(0.5, 0.5)
        edges = self.graph.node_edges(self.c)
        m01_edge = next(k for k, (a, t) in enumerate(edges) if len(t) == 2)
        mpm_edge = next(k for k, (a, t) in enumerate(edges) if len(t) == 1)
        assert abs(w[f"y_{self.c}_{m01_edge}"] - 1.0) < 1e-6
        assert abs(w.get(f"y_{self.c}_{mpm_edge}", 0.0)) < 1e-6
        (succ_a, pa), (succ_b, pb) = edges[m01_edge][1]
        for succ, m5, m6 in ((succ_a, 1.0, 0.0), (succ_b, 0.0, 1.0)):
            vec = [0.0] * self.graph.node_count
            vec[self.c5], vec[self.c6] = m5, m6
            # identify which successor reaches which terminal by its state
            reaches5 = np.allclose(self.graph.nodes[succ].context.rho, dm(KET0))
            vec = [0.0] * self.graph.node_count
            if reaches5:
                vec[self.c5] = 1.0
            else:
                vec[self.c6] = 1.0
            assert weak_move(self.graph, succ, self.label, vec, self.singletons) is not None

    def test_fig3_decomposition_splits_between_branches(self):
        w = self.query(0.75, 0.25)
        edges = self.graph.node_edges(self.c)
        m01_edge = next(k for k, (a, t) in enumerate(edges) if len(t) == 2)
        mpm_edge = next(k for k, (a, t) in enumerate(edges) if len(t) == 1)
        assert abs(w[f"y_{self.c}_{m01_edge}"] - 0.5) < 1e-6
        assert abs(w[f"y_{self.c}_{mpm_edge}"] - 0.5) < 1e-6


class TestWeakBisim:
    def test_internal_identity_is_weakly_invisible(self):
        ctx = make_context(("q",), dm(KET_PLUS))
        graph, i, j = pair_lts(Unitary(GATE_I, ("q",), Nil()), ctx, Nil(), ctx)
        assert weak_bisim(graph, i, j).equivalent
        assert not strong_bisim(graph, i, j).equivalent

    def test_strong_implies_weak(self):
        left, right = corpus_configs("choice", "Left", "Right")
        graph = build_lts([left, right])
        i, j = graph.initial
        assert strong_bisim(graph, i, j).equivalent
        assert weak_bisim(graph, i, j).equivalent

    def test_guarded_expansion_of_measurement_branch(self):
        # spelling out the measurement continuation per outcome is invisible
        # to both checkers
        u = linalg.Gate("U", linalg.H_MAT)
        cont = Unitary(u, ("q",), QOutput(QC, "q", Nil()))
        plain = Sum(
            Measure(OBS_M01, ("q",), "x", cont),
            Measure(OBS_MPM, ("q",), "x", Unitary(GATE_I, ("q",), QOutput(QC, "q", Nil()))))
        expanded = Sum(
            Measure(OBS_M01, ("q",), "x",
                    Sum(If(Cmp("=", Var("x"), Const(0.0)), cont),
                        If(Cmp("=", Var("x"), Const(1.0)), cont))),
            Measure(OBS_MPM, ("q",), "x", Unitary(GATE_I, ("q",), QOutput(QC, "q", Nil()))))
        ctx = make_context(("q",), dm(KET_PLUS))
        graph, i, j = pair_lts(plain, ctx, expanded, ctx)
        assert strong_bisim(graph, i, j).equivalent
        assert weak_bisim(graph, i, j).equivalent

    def test_distinct_terminal_states_stay_distinct(self):
        ctx0 = make_context(("q",), dm(KET0))
        ctx1 = make_context(("q",), dm(KET1))
        graph, i, j = pair_lts(Nil(), ctx0, Nil(), ctx1)
        assert not weak_bisim(graph, i, j).equivalent

    def test_tau_tree_collapse(self):
        # a chain of internal rotations that undoes itself is weakly nil
        term = Unitary(GATE_X, ("q",), Unitary(GATE_X, ("q",), Nil()))
        ctx = make_context(("q",), dm(KET0))
        graph, i, j = pair_lts(term, ctx, Nil(), ctx)
        assert weak_bisim(graph, i, j).equivalent

    def test_pending_rotation_matches_its_own_endpoint(self):
        # an unfired internal rotation is weakly equal to its result...
        graph, i, j = pair_lts(Unitary(GATE_X, ("q",), Nil()),
                               make_context(("q",), dm(KET0)),
                               Nil(), make_context(("q",), dm(KET1)))
        assert weak_bisim(graph, i, j).equivalent

    def test_pending_rotation_differs_from_its_start(self):
        # ...but not to a terminal stuck in the pre-rotation state
        graph, i, j = pair_lts(Unitary(GATE_X, ("q",), Nil()),
                               make_context(("q",), dm(KET0)),
                               Nil(), make_context(("q",), dm(KET0)))
        assert not weak_bisim(graph, i, j).equivalent

    def test_internal_termination(self):
        def terminates(graph, source, stuck):
            # can source internally evolve, with probability one, into stuck
            # configurations whose context equals that of `stuck`?
            return bisim._Matcher(graph, "weak", lp.TOL).holds(
                source, stuck, (None, None), Partition([0] * graph.node_count))

        # internal termination cannot cross the visible output in the figure
        graph = build_lts(corpus_configs("weak_example", "C")[0])
        c = graph.initial[0]
        c5 = node_of(graph, cfg(Nil(), ("q",), dm(KET_PLUS)))
        assert not terminates(graph, c, c5)
        # a pure internal chain does terminate with probability one
        term = Unitary(GATE_X, ("q",), Unitary(GATE_X, ("q",), Nil()))
        chain = build_lts(cfg(term, ("q",), dm(KET0)))
        terminal = next(i for i in range(chain.node_count) if chain.stuck(i))
        assert terminates(chain, chain.initial[0], terminal)
        # and an off-path terminal is unreachable
        joint = build_lts([cfg(term, ("q",), dm(KET0)), cfg(Nil(), ("q",), dm(KET1))])
        assert not terminates(joint, joint.initial[0], joint.initial[1])


class TestEquality:
    def test_nil_vs_internal_identity(self):
        ctx = make_context(("q",), dm(KET_PLUS))
        graph, i, j = pair_lts(Unitary(GATE_I, ("q",), Nil()), ctx, Nil(), ctx)
        res = equality_check(graph, i, j)
        assert not res.equivalent  # nil cannot answer with a real internal move
        assert weak_bisim(graph, i, j).equivalent

    def test_equality_implies_weak(self):
        left, right = corpus_configs("choice", "Left", "Right")
        graph = build_lts([left, right])
        i, j = graph.initial
        assert equality_check(graph, i, j).equivalent
        assert weak_bisim(graph, i, j).equivalent

    def test_strict_tau_matching(self):
        # both sides have a real internal move to matching states
        ctx = make_context(("q",), dm(KET0))
        t1 = Unitary(GATE_X, ("q",), Nil())
        t2 = Sum(Unitary(GATE_X, ("q",), Nil()), Unitary(GATE_X, ("q",), Nil()))
        graph, i, j = pair_lts(t1, ctx, t2, ctx)
        assert equality_check(graph, i, j).equivalent

    def test_terminal_contexts_checked(self):
        graph, i, j = pair_lts(Nil(), make_context(("q",), dm(KET0)),
                               Nil(), make_context(("q",), dm(KET1)))
        assert not equality_check(graph, i, j).equivalent


class TestTauPlacementAroundVisible:
    def test_internal_move_after_visible_action(self):
        # the rotation pending after the output is absorbed into the weak
        # match (phase-2 internal flow); strong matching cannot absorb it
        left = COutput(C, Const(0.0), Unitary(GATE_X, ("q",), Nil()))
        right = COutput(C, Const(0.0), Nil())
        graph, i, j = pair_lts(left, make_context(("q",), dm(KET0)),
                               right, make_context(("q",), dm(KET1)))
        assert weak_bisim(graph, i, j).equivalent
        assert not strong_bisim(graph, i, j).equivalent
        # neither side opens with an internal move, so equality holds too
        assert equality_check(graph, i, j).equivalent

    def test_internal_move_before_visible_action(self):
        left = Unitary(GATE_X, ("q",), COutput(C, Const(0.0), Nil()))
        right = COutput(C, Const(0.0), Nil())
        graph, i, j = pair_lts(left, make_context(("q",), dm(KET0)),
                               right, make_context(("q",), dm(KET1)))
        assert weak_bisim(graph, i, j).equivalent
        # the opening internal move must be answered by a real internal move
        assert not equality_check(graph, i, j).equivalent


class TestMultiActionCharacterization:
    """Composing single-action weak queries reproduces the action-string
    behaviour on a small instance: an inserted idle rotation changes nothing,
    and no adversary beats the measurement's coin flip."""

    def setup_method(self):
        D = Chan("d", False)
        meas_tail = Measure(OBS_M01, ("q",), "x", COutput(D, Const(0.0), Nil()))
        p1 = COutput(C, Const(0.0), meas_tail)
        p2 = COutput(C, Const(0.0), Unitary(GATE_I, ("q",), meas_tail))
        ctx = make_context(("q",), dm(KET_PLUS))
        self.graph = build_lts([Configuration(p1, ctx), Configuration(p2, ctx)])
        self.i, self.j = self.graph.initial
        self.d_out = None
        for n in range(self.graph.node_count):
            for a, _ in self.graph.node_edges(n):
                if getattr(a, "chan", None) == D:
                    self.d_out = a
        self.singles = Partition(list(range(self.graph.node_count)))
        self.t0 = node_of(self.graph, Configuration(Nil(), make_context(("q",), dm(KET0))))
        self.t1 = node_of(self.graph, Configuration(Nil(), make_context(("q",), dm(KET1))))

    def _two_step_feasible(self, start, end_vec):
        """start ==c!0==> mu, then every support point ==d!0==> its share."""
        from qccs.lts import COut

        first = COut(C, 0.0)
        # enumerate intermediate class vectors reachable by the first action
        mids = [vec for vec in self._feasible_points(start, first)]
        for mid in mids:
            ok = True
            for node, mass in enumerate(mid):
                if mass <= 1e-9:
                    continue
                # each intermediate node must complete its share of the end
                share = tuple(x * mass for x in self._unit_target(node, end_vec))
                if weak_move(self.graph, node, self.d_out, share, self.singles) is None:
                    ok = False
                    break
            if ok:
                return True
        return False

    def _feasible_points(self, start, action):
        # candidate intermediate distributions: the lifted one-step successors
        out = []
        for targets in self.graph.successors(start, action):
            vec = [0.0] * self.graph.node_count
            for n, p in targets:
                vec[n] += p
            out.append(tuple(vec))
        return out

    def _unit_target(self, node, end_vec):
        # terminals keep their class; interior nodes owe a proportional share
        if node in (self.t0, self.t1):
            vec = [0.0] * self.graph.node_count
            vec[node] = 1.0
            return vec
        total = sum(end_vec)
        return tuple(x / total for x in end_vec)

    def test_equivalent_pair_agrees_on_two_step_strings(self):
        assert weak_bisim(self.graph, self.i, self.j).equivalent
        want = [0.0] * self.graph.node_count
        want[self.t0], want[self.t1] = 0.5, 0.5
        assert self._two_step_feasible(self.i, tuple(want))
        assert self._two_step_feasible(self.j, tuple(want))

    def test_no_adversary_beats_the_coin_flip(self):
        want = [0.0] * self.graph.node_count
        want[self.t0] = 1.0
        assert not self._two_step_feasible(self.i, tuple(want))
        assert not self._two_step_feasible(self.j, tuple(want))


class TestWeakQueryLabels:
    def test_tau_hat_allows_empty_move(self):
        graph = build_lts(cfg(Nil(), ("q",), dm(KET0)))
        part = Partition([0])
        assert weak_move(graph, 0, TAU, (1.0,), part) is not None

    def test_tau_strict_needs_a_real_move(self):
        graph = build_lts(cfg(Nil(), ("q",), dm(KET0)))
        part = Partition([0])
        assert weak_move(graph, 0, TAU, (1.0,), part, strict=True) is None

    def test_tau_strict_through_chain(self):
        term = Unitary(GATE_X, ("q",), Unitary(GATE_X, ("q",), Nil()))
        graph = build_lts(cfg(term, ("q",), dm(KET0)))
        part = Partition(list(range(graph.node_count)))
        terminal = next(i for i in range(graph.node_count) if graph.stuck(i))
        vec = [0.0] * graph.node_count
        vec[terminal] = 1.0
        assert weak_move(graph, 0, TAU, vec, part, strict=True)

    def test_tau_strict_source_absorbs_only_returned_mass(self):
        # node 0's tau move returns half its mass to node 0: after the first
        # step, at most half can stop there
        half = Fraction(1, 2)
        graph = SyntheticLts(2, [[(TAU, ((0, half), (1, half)))], []], [0, 0])
        part = Partition([0, 1])
        flow = weak_move(graph, 0, TAU, (0.5, 0.5), part, strict=True)
        assert flow == {"y_0_0": 0.0, "x_0_0": 1.0, "z_0_0": 0.0, "a_0": 0.5, "a_1": 0.5}
        assert weak_move(graph, 0, TAU, (0.75, 0.25), part, strict=True) is None
        assert weak_move(graph, 0, TAU, (0.75, 0.25), part) is not None

    def test_eq_is_reflexive_on_a_tau_cycle_through_the_source(self):
        graph = SyntheticLts(2, [[(TAU, ((0, Fraction(1)),))], [(TAU, ((1, Fraction(1)),))]],
                             [0, 0])
        result = equality_check(graph, 0, 0)
        assert result.equivalent
        assert [m["flow"] for m in result.witness] == [{"x_0_0": 1.0, "a_0": 1.0}] * 2


def seeded_systems() -> list:
    """The seeded random systems, with tau, that refinement is checked on."""
    rng = np.random.default_rng(2024)
    return [random_synthetic_lts(rng, max_nodes=6, actions=("a", "b", TAU)) for _ in range(40)]


def saturated_systems() -> list:
    """Seeded systems, each with one more node: a copy of node 0 that also
    makes, as plain moves, weak moves of node 0 (an action then tau, or tau
    then an action).  The copy is weakly bisimilar to node 0, and a checker
    finds that only through the tau flows around the action."""
    rng = np.random.default_rng(99)
    out = []
    while len(out) < 12:
        slts = random_synthetic_lts(rng, max_nodes=5, actions=("a", "b", TAU))
        edges = slts.edges_exact
        moves = list(edges[0])
        for action, targets in edges[0]:
            for x, p in targets:
                for after, onward in edges[x]:
                    if isinstance(after, Tau):
                        # the action, then tau from x
                        mass = {v: q for v, q in targets if v != x}
                        for v, q in onward:
                            mass[v] = mass.get(v, 0) + p * q
                        moves.append((action, tuple(sorted(mass.items()))))
                    elif isinstance(action, Tau) and len(targets) == 1:
                        # tau to x, then the action of x
                        moves.append((after, onward))
        moves = list(dict.fromkeys(moves))
        if len(moves) > len(edges[0]):
            out.append(SyntheticLts(slts.n + 1, edges + [moves], slts.labels + [slts.labels[0]]))
    return out


def returning_systems() -> list:
    """Seeded systems with tau in which node 0 has a tau edge back into
    itself, with all its mass or part of it, and a last node that copies
    node 0.  A strict tau move of node 0 may stop at node 0 only with mass
    that a real internal step brought back."""
    rng = np.random.default_rng(17)
    out = []
    for _ in range(30):
        slts = random_synthetic_lts(rng, max_nodes=5, actions=("a", TAU))
        back = Fraction(int(rng.integers(1, 5)), 4)
        other = int(rng.integers(1, slts.n))
        loop = (TAU, ((0, back),) if back == 1 else ((0, back), (other, 1 - back)))
        edges = [list(row) for row in slts.edges_exact]
        edges[0] = list(dict.fromkeys(edges[0] + [loop]))
        out.append(SyntheticLts(slts.n + 1, edges + [edges[0]],
                                slts.labels + [slts.labels[0]]))
    return out


def near_tie_systems() -> list:
    """Seeded systems full of near ties, as TestMemoizedRefinement's
    near_tie_system but larger.  Movers 0..k-1 each move on `a` and on `c`
    to the stuck nodes k and k+1, with masses 1/2 + s and 1/2 - s.  Per
    action, the movers' shifts s, taken in a seeded order, rise by 5e-8 to
    2e-6 at a time, so neighbours differ by less than the tolerance, by a
    near tie or by a clear failure, and equality within the tolerance is not
    transitive.  Callers above make a tau move to one node or a `b` move
    half to each of two, and node ids are shuffled."""
    rng = np.random.default_rng(5)
    half = Fraction(1, 2)
    out = []
    for _ in range(24):
        k = int(rng.integers(3, 6))
        edges = [[] for _ in range(k + 2)]
        for action in ("a", "c"):
            shift = Fraction(0)
            for mover in rng.permutation(k):
                edges[mover].append((action, ((k, half + shift), (k + 1, half - shift))))
                step = np.exp(rng.uniform(np.log(5e-8), np.log(2e-6)))
                shift += Fraction(round(step * 1e12), 10**12)
        labels = [0] * k + [1, 2]
        for _ in range(int(rng.integers(2, 6))):
            i, j = (int(v) for v in rng.choice([v for v in range(len(edges))
                                                if v not in (k, k + 1)], 2, replace=False))
            edges.append([(TAU, ((i, Fraction(1)),)) if rng.random() < 0.5
                          else ("b", ((i, half), (j, half)))])
            labels.append(0)
        order = [int(v) for v in rng.permutation(len(edges))]
        new = {old: v for v, old in enumerate(order)}
        out.append(SyntheticLts(len(edges), [[(action, tuple((new[v], p) for v, p in tg))
                                              for action, tg in edges[old]] for old in order],
                                [labels[old] for old in order]))
    return out


def synthetic_families() -> list:
    """The seeded, returning, saturated and near-tie systems."""
    return seeded_systems() + returning_systems() + saturated_systems() + near_tie_systems()


@pytest.fixture(scope="module")
def seeded_oracles() -> list:
    """The seeded systems, each with one oracle that the tests share."""
    return [(slts, BisimOracle(slts, lp.TOL)) for slts in seeded_systems()]


class TestEquivalenceProperties:
    @pytest.mark.parametrize("checker", [strong_bisim, weak_bisim, equality_check])
    def test_reflexive_and_symmetric_on_seeded_systems(self, checker, seeded_oracles):
        # on every node and ordered pair; each verdict is also the oracle's
        for slts, oracle in seeded_oracles:
            results = [[checker(slts, i, j) for j in range(slts.n)] for i in range(slts.n)]
            for i in range(slts.n):
                assert results[i][i].equivalent, (slts.edges_exact, i)
                for j in range(i + 1, slts.n):
                    verdict = results[i][j].equivalent
                    assert verdict == results[j][i].equivalent, (slts.edges_exact, i, j)
                    assert verdict == oracle.equivalent(results[i][j].mode, i, j)

    def test_eq_matches_oracle_where_the_source_returns_to_itself(self):
        # every ordered pair of every system, so node 0 and its copy answer
        # each other's tau moves that return mass to node 0
        verdicts = []
        for slts in returning_systems():
            oracle = BisimOracle(slts, lp.TOL)
            for i in range(slts.n):
                for j in range(slts.n):
                    verdict = equality_check(slts, i, j).equivalent
                    assert verdict == oracle.eq(i, j), (slts.edges_exact, i, j)
                    verdicts.append(verdict)
        assert 0 < sum(verdicts) < len(verdicts)


class TestMemoizedRefinement:
    """Memoized matching answers change no partition, verdict, counterexample
    or witness, and a check solves each distinct program once.
    The reference is helpers.BisimOracle, which shares no code with bisim or
    lp."""

    CHECKERS = (strong_bisim, weak_bisim, equality_check)

    def assert_matches_oracle(self, monkeypatch, graph, left, right, oracle=None) -> list:
        """The checkers' partitions are the oracle's, block for block, and
        their eq verdict is its verdict; run on the oracle's partition, they
        print the same JSON.  Weak refinement runs on the graph with inert
        chains collapsed, so there the oracle's blocks are fed for the nodes
        the view keeps.  Returns the three verdicts."""
        oracle = oracle or BisimOracle(graph, lp.TOL)

        def oracle_refine(matcher, partition):
            block_of = oracle.partition(matcher.mode)
            return Partition([block_of[u]
                              for u in getattr(matcher.lts, "kept", range(len(block_of)))])

        verdicts = []
        for checker in self.CHECKERS:
            mine = checker(graph, left, right)
            with monkeypatch.context() as patch:
                patch.setattr(bisim, "_refine", oracle_refine)
                fed = checker(graph, left, right)
            expected = oracle.partition("strong" if checker is strong_bisim else "weak")
            assert mine.partition.block_of == list(expected), checker.__name__
            assert mine.partition.block_of == fed.partition.block_of, checker.__name__
            assert mine.to_json() == fed.to_json(), checker.__name__
            verdicts.append(mine.equivalent)
        assert verdicts[2] == oracle.eq(left, right)
        return verdicts

    def test_matches_reference_on_random_systems_with_tau(self, monkeypatch, seeded_oracles):
        verdicts = []
        for slts, oracle in seeded_oracles:
            verdicts += self.assert_matches_oracle(monkeypatch, slts, 0, slts.n - 1, oracle)
        # both outcomes occur, so splits and witnesses are both compared
        assert 0 < sum(verdicts) < len(verdicts)

    def test_matches_reference_on_saturated_systems(self, monkeypatch):
        for slts in saturated_systems():
            verdicts = self.assert_matches_oracle(monkeypatch, slts, 0, slts.n - 1)
            assert verdicts[1:] == [True, True], slts.edges_exact

    def test_matches_reference_on_corpus_directives(self, monkeypatch):
        checked = 0
        for path in sorted(CORPUS.glob("*.qccs")):
            elab = elaborate(parse(path.read_text(encoding="utf-8")))
            for _, left, right in elab.checks:
                graph = build_lts([elab.configs[left], elab.configs[right]], policy=elab.policy)
                self.assert_matches_oracle(monkeypatch, graph, *graph.initial)
                checked += 1
        assert checked == 3

    def test_matches_reference_on_phase_flipped_teleport(self, monkeypatch):
        graph = build_lts([build_teleport(0.6, 0.8), build_teleport(0.6, -0.8)])
        assert self.assert_matches_oracle(monkeypatch, graph, *graph.initial) == [
            False, False, False]

    def test_matches_reference_on_swapped_teleport(self, monkeypatch):
        graph = build_lts([build_teleport(0.6, 0.8), corrupted_teleport(0.6, 0.8)])
        assert self.assert_matches_oracle(monkeypatch, graph, *graph.initial) == [
            False, False, False]

    def test_witness_agrees_with_verdict_on_random_systems_with_tau(self, monkeypatch):
        # refinement asks whether a move is met and a witness asks how; both
        # read one memo entry, built with the owner and without, so they
        # must agree on every question that refinement asks
        holds = bisim._Matcher.holds
        asked = {"strong": 0, "weak": 0}

        def checked(matcher, node, owner, requirement, partition):
            verdict = holds(matcher, node, owner, requirement, partition)
            action, vec = requirement
            if action is not None:
                witness = matcher_witness(matcher, node, action, vec, partition)
                assert (witness is not None) == verdict, (matcher.mode, node, action, vec)
                asked[matcher.mode] += 1
            return verdict

        monkeypatch.setattr(bisim._Matcher, "holds", checked)
        for slts in seeded_systems():
            strong_bisim(slts, 0, slts.n - 1)
            weak_bisim(slts, 0, slts.n - 1)
        assert min(asked.values()) > 100, asked

    def test_each_program_is_solved_once_per_check(self, monkeypatch):
        # a program is (a, b) and the tolerance it is solved at, and every
        # solve, termination questions included, takes the loose tolerance
        graph = build_lts([build_teleport(0.6, 0.8), build_teleport(0.6, -0.8)])
        systems = [(slts, 0, slts.n - 1) for slts in seeded_systems()]
        systems.append((graph, *graph.initial))
        solve = lp.feasible
        repeats = {}
        for checker in self.CHECKERS:
            repeats[checker.__name__] = []
            for index, (system, left, right) in enumerate(systems):
                solved = {}

                def counting(prog, tol=lp.TOL, loose=None):
                    assert loose == bisim._NEAR_TIE_FACTOR * tol
                    program = (prog.a.shape, prog.a.tobytes(), prog.b.tobytes(), tol)
                    solved[program] = solved.get(program, 0) + 1
                    return solve(prog, tol, loose)

                with monkeypatch.context() as patch:
                    patch.setattr(lp, "feasible", counting)
                    checker(system, left, right)
                repeats[checker.__name__] += [index] * (sum(solved.values()) - len(solved))
        # before termination became a TAU_HAT flow question, with the move
        # questions' key, ten programs were solved twice in weak checks and
        # eleven in eq checks
        assert repeats == {"strong_bisim": [], "weak_bisim": [], "equality_check": []}

    def test_termination_solve_takes_the_loose_tolerance(self, monkeypatch):
        # node 1 reaches node 2, stuck in node 0's context, by one tau move
        one = Fraction(1)
        graph = SyntheticLts(3, [[], [(TAU, ((2, one),))], []], [0, 0, 0])
        solves = []
        solve = lp.feasible

        def counting(prog, tol, loose=None):
            solves.append((tol, loose))
            return solve(prog, tol, loose)

        monkeypatch.setattr(lp, "feasible", counting)
        matcher = bisim._Matcher(graph, "weak", lp.TOL)
        assert matcher.holds(1, 0, (None, None), Partition([0, 0, 0]))
        assert solves == [(lp.TOL, bisim._NEAR_TIE_FACTOR * lp.TOL)]

    def test_termination_near_tie_is_recorded(self):
        # node 1's tau move to node 2, stuck in node 0's context, carries
        # 1 - shift: at 2e-7, outside the tolerance and inside ten times it,
        # a near tie
        for shift, near in ((Fraction(2, 10**7), 1), (Fraction(2, 10**6), 0)):
            graph = SyntheticLts(3, [[], [(TAU, ((2, 1 - shift),))], []], [0, 0, 0])
            matcher = bisim._Matcher(graph, "weak", lp.TOL)
            assert not matcher.holds(1, 0, (None, None), Partition([0, 0, 0]))
            assert len(matcher.near_ties) == near, shift

    def test_near_tie_warnings_point_at_the_caller(self):
        # one warning per near-tie question of a check, given when the
        # check returns and attributed to the line that called it; eq asks
        # the weak questions and stops at the first requirement that fails.
        # Weak refinement asks its questions of the graph with inert chains
        # collapsed, which meets 10 fewer near ties than the whole graph.
        # Reading a witness afterwards warns nothing
        counts = {}
        for checker in self.CHECKERS:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                for slts in near_tie_systems():
                    checker(slts, 0, slts.n - 1).witness
            assert {w.filename for w in caught} == {__file__}, checker.__name__
            assert all("within 10x of the tolerance" in str(w.message) for w in caught)
            counts[checker.__name__] = len(caught)
        assert counts == {"strong_bisim": 33, "weak_bisim": 35, "equality_check": 35}

    def near_tie_system(self, shift):
        """Node 1 moves `shift` of node 0's mass across blocks; the partition
        and node 0's class vector."""
        half = Fraction(1, 2)
        graph = SyntheticLts(4, [[("a", ((2, half), (3, half)))],
                                 [("a", ((2, half + shift), (3, half - shift)))], [], []],
                             [0, 0, 1, 2])
        partition = Partition([0, 0, 1, 2])
        return graph, partition, class_vector(graph.node_edges(0)[0][1], partition)

    def asked_three_times(self, monkeypatch, shift):
        """Per mode: the near ties that three asks record, and the tolerances
        solved at."""
        graph, partition, vec = self.near_tie_system(shift)
        solves = []
        solve = lp.feasible

        def counting(prog, tol, loose=None):
            solves.append(tol)
            return solve(prog, tol, loose)

        monkeypatch.setattr(lp, "feasible", counting)
        out = {}
        for ask in ("strong", "weak"):
            matcher = bisim._Matcher(graph, ask, lp.TOL)
            solves.clear()
            assert not any(matcher.holds(1, 0, ("a", vec), partition) for _ in range(3))
            out[ask] = list(matcher.near_ties), list(solves)
        return out

    def test_near_tie_warns_once_per_question(self, monkeypatch):
        # 2e-7 is outside the tolerance, inside ten times it; the one solve
        # at the tolerance decides both.  Three asks record one near tie,
        # which the check warns for, and a second matcher, as a new check
        # builds, records it once more.
        for _ in range(2):
            for ask, (near_ties, solves) in self.asked_three_times(
                    monkeypatch, Fraction(2, 10**7)).items():
                assert len(near_ties) == 1, ask
                assert solves == [lp.TOL], ask

    def test_witness_of_a_warned_question_warns_no_more(self):
        graph, partition, vec = self.near_tie_system(Fraction(2, 10**7))
        for mode in ("strong", "weak"):
            matcher = bisim._Matcher(graph, mode, lp.TOL)
            assert matcher_witness(matcher, 1, "a", vec, partition) is None
            assert not matcher.holds(1, 0, ("a", vec), partition)
            assert matcher_witness(matcher, 1, "a", vec, partition) is None
            assert len(matcher.near_ties) == 1, mode

    def test_near_ties_split_as_the_restart_scan_did(self):
        # equality within the tolerance is not transitive, so a different
        # order of splits could give different blocks; on these systems the
        # worklist and the restart scan agree on all 48 refinements
        met = 0
        for slts in near_tie_systems():
            for mode, initial in (("strong", bisim._initial_strong(slts)),
                                  ("weak", Partition([0] * slts.n))):
                matchers = bisim._Matcher(slts, mode, lp.TOL), bisim._Matcher(slts, mode, lp.TOL)
                mine = bisim._refine(matchers[0], initial)
                theirs = restart_scan(matchers[1], initial, bisim._requirements)
                assert mine.block_of == theirs, (slts.edges_exact, mode)
                met += any(matcher.near_ties for matcher in matchers)
        # the near ties are really met: 38 of the 48 refinements meet one
        assert met >= 30, met

    def test_failure_beyond_ten_times_the_tolerance_is_no_near_tie(self, monkeypatch):
        for ask, (near_ties, solves) in self.asked_three_times(
                monkeypatch, Fraction(2, 10**6)).items():
            assert near_ties == [] and solves == [lp.TOL], ask

    def test_weak_teleport_builds_few_questions(self, monkeypatch):
        # each block is examined only when a block its questions read has
        # split, and each requirement is asked once per examination.  The
        # check builds 17 questions, refining the 16 nodes left when inert
        # chains collapse; on all 54 nodes it built 104
        graph = build_lts([build_teleport(0.6, 0.8), build_teleport(0.6, -0.8)])
        built = []
        question = bisim._Matcher.question

        def counting(matcher, *args, **kwargs):
            built.append(None)
            return question(matcher, *args, **kwargs)

        monkeypatch.setattr(bisim._Matcher, "question", counting)
        assert not weak_bisim(graph, *graph.initial).equivalent
        assert len(built) < 25, len(built)

    def test_explain_builds_each_question_once(self, monkeypatch):
        # teleportation against its parallel components reordered is
        # equivalent in every mode; _explain names the answer it has read,
        # so each requirement of the pair builds one question
        teleport = build_teleport(0.6, 0.8)
        inner = teleport.process.body
        epr, alice, bob = inner.left.left, inner.left.right, inner.right
        reordered = Configuration(Restrict(Parallel(bob, Parallel(alice, epr)),
                                           teleport.process.chans), teleport.context)
        graph = build_lts([teleport, reordered])
        left, right = graph.initial
        question = bisim._Matcher.question
        for mode, strict in (("strong", False), ("weak", False), ("weak", True)):
            matcher = bisim._Matcher(graph, mode, lp.TOL)
            partition = bisim._refine(matcher, bisim._initial_strong(graph) if mode == "strong"
                                      else Partition([0] * graph.node_count))
            asked = sum(len(list(bisim._requirements(matcher, owner, partition)))
                        for owner in (left, right))
            built = []
            with monkeypatch.context() as patch:
                patch.setattr(bisim._Matcher, "question",
                              lambda m, *args: built.append(None) or question(m, *args))
                witness, counter = bisim._explain(matcher, left, right, partition, strict)
            assert counter is None and len(witness) == asked > 0, (mode, strict)
            assert len(built) == asked, (mode, strict, len(built), asked)

    def test_one_split_call_per_new_block(self, monkeypatch):
        # the tracer's bisim.splits counts Partition.split calls, so each
        # must add one block to the result
        splits = []
        split = Partition.split

        def counting(partition, *args):
            splits.append(None)
            return split(partition, *args)

        monkeypatch.setattr(Partition, "split", counting)
        added = 0
        for slts in seeded_systems():
            for checker in self.CHECKERS:
                initial = (bisim._initial_strong(slts) if checker is strong_bisim
                           else Partition([0] * slts.n))
                result = checker(slts, 0, slts.n - 1)
                added += result.partition.block_count - initial.block_count
                assert len(splits) == added, checker.__name__
        assert added > 0

    def test_split_requeues_the_blocks_that_read_it(self):
        # block {2, 3} is examined first, as the block with the highest
        # lowest member, and is stable; the split of {0, 1} below it, which
        # it reads, must send it back to the worklist
        one = Fraction(1)
        graph = SyntheticLts(6, [[("b", ((4, one),))], [("b", ((5, one),))],
                                 [("a", ((0, one),))], [("a", ((1, one),))], [], []],
                             [0, 0, 0, 0, 1, 2])
        for mode in ("strong", "weak"):
            partition = bisim._refine(bisim._Matcher(graph, mode, lp.TOL),
                                      Partition([0, 0, 1, 1, 2, 3]))
            assert partition.block_of == [0, 1, 2, 3, 4, 5], mode

    def test_split_of_an_untouched_block_keeps_the_strong_key(self, monkeypatch):
        # node 1 answers node 0's move over blocks {2} and {3}; splitting the
        # block {4, 5}, which no point touches, asks the same program again
        half = Fraction(1, 2)
        graph = SyntheticLts(6, [[("a", ((2, half), (3, half)))],
                                 [("a", ((2, Fraction(1)),)), ("a", ((3, Fraction(1)),))],
                                 [], [], [("b", ((5, Fraction(1)),))], []],
                             [0, 0, 1, 2, 0, 3])
        solves = []
        solve = lp.feasible

        def counting(prog, tol, loose=None):
            solves.append(len(prog.b))
            return solve(prog, tol, loose)

        monkeypatch.setattr(lp, "feasible", counting)
        matcher = bisim._Matcher(graph, "strong", lp.TOL)
        before = Partition([0, 0, 1, 2, 3, 3])
        after = before.split(3, {4})
        keys = []
        for partition in (before, after):
            requirement = ("a", class_vector(graph.node_edges(0)[0][1], partition))
            keys.append(matcher.question(1, 0, requirement, partition)[0])
            assert matcher.holds(1, 0, requirement, partition)
        assert after.block_count == before.block_count + 1
        assert keys[0] == keys[1]
        assert solves == [3]  # 1 + the two blocks in play, solved once

    def test_sources_with_alike_flows_share_one_solve(self, monkeypatch):
        # nodes 0 and 1 each reach a stuck node of block 1 by one tau move;
        # node 4 splits its tau move, so its program differs
        one, half = Fraction(1), Fraction(1, 2)
        graph = SyntheticLts(7, [[(TAU, ((2, one),))], [(TAU, ((3, one),))], [], [],
                                 [(TAU, ((5, half), (6, half)))], [], []],
                             [0, 0, 1, 1, 0, 1, 1])
        partition = Partition([0, 0, 1, 1, 0, 1, 1])
        solves = []
        solve = lp.feasible

        def counting(prog, tol, loose=None):
            solves.append(prog)
            return solve(prog, tol, loose)

        monkeypatch.setattr(lp, "feasible", counting)
        matcher = bisim._Matcher(graph, "weak", lp.TOL)
        requirement = (TAU, (0.0, 1.0))
        # asked of the simplex, as _explain asks: holds() meets each of these
        # by one tau move and solves nothing
        questions = [matcher.question(node, None, requirement, partition) for node in (0, 1, 4)]
        assert all(matcher.answer(question) is not None for question in questions)
        keys = [question[0] for question in questions]
        assert keys[0] == keys[1] != keys[2]
        assert len(solves) == 2
        assert not np.array_equal(solves[0].a, solves[1].a)


class TestDecidedWithoutASolve:
    """holds() accepts a question that one move meets and refutes one whose
    target puts mass beyond the loose bound on blocks the node cannot reach;
    only the rest go to the simplex."""

    def test_decisions_agree_with_the_simplex(self, monkeypatch):
        # every question refinement asks, in all three modes, and its strict
        # form for a tau move; where decide() answers, a fresh matcher's
        # simplex gives the same verdict and meets no near tie
        decide = bisim._Matcher.decide
        counts = {}

        def checked(matcher, node, owner, requirement, partition, strict=False):
            verdict = decide(matcher, node, owner, requirement, partition, strict)
            action = requirement[0]
            kinds = [(False, "termination" if action is None else "move")]
            if matcher.mode == "weak" and isinstance(action, Tau):
                kinds.append((True, "strict"))
            for strict_too, kind in kinds:
                mine = (verdict if not strict_too
                        else decide(matcher, node, owner, requirement, partition, True))
                if mine is None:
                    continue
                reference = bisim._Matcher(matcher.lts, matcher.mode, matcher.tol)
                answer = reference.answer(reference.question(node, owner, requirement,
                                                             partition, strict_too))
                assert mine == (answer is not None), (matcher.mode, kind, node, requirement)
                assert not reference.near_ties, (matcher.mode, kind, node, requirement)
                counts[matcher.mode, kind, mine] = counts.get((matcher.mode, kind, mine), 0) + 1
            return verdict

        monkeypatch.setattr(bisim._Matcher, "decide", checked)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for slts in synthetic_families():
                for checker in TestMemoizedRefinement.CHECKERS:
                    checker(slts, 0, slts.n - 1)
        # both verdicts are met in every kind of question
        assert len(counts) == 8 and min(counts.values()) >= 20, counts

    def unreachable_mass_system(self):
        """Node 0 moves on `a` with 5 x lp.TOL of its mass on node 4, which
        node 1 cannot reach, and node 1 moves as node 0 but for that mass: a
        residual of 5 x lp.TOL, inside the loose bound.  The partition and
        node 0's class vector."""
        half, shift = Fraction(1, 2), Fraction(5, 10**7)
        graph = SyntheticLts(5, [[("a", ((2, half), (3, half - shift), (4, shift)))],
                                 [("a", ((2, half), (3, half - shift)))], [], [], []],
                             [0, 0, 1, 2, 3])
        partition = Partition([0, 0, 1, 2, 3])
        return graph, partition, class_vector(graph.node_edges(0)[0][1], partition)

    @pytest.mark.parametrize("mode", ["strong", "weak"])
    def test_unreachable_mass_inside_the_loose_bound_is_a_near_tie(self, monkeypatch, mode):
        # the unreachable mass is above the tolerance but refutes nothing:
        # the simplex is asked, at the tolerance, and records the near tie
        graph, partition, vec = self.unreachable_mass_system()
        assert 4 * lp.TOL < float(vec[3]) < bisim._NEAR_TIE_FACTOR * lp.TOL
        solves = []
        solve = lp.feasible

        def counting(prog, tol, loose=None):
            solves.append(tol)
            return solve(prog, tol, loose)

        matcher = bisim._Matcher(graph, mode, lp.TOL)
        assert matcher.decide(1, 0, ("a", vec), partition) is None
        with monkeypatch.context() as patch:
            patch.setattr(lp, "feasible", counting)
            assert not matcher.holds(1, 0, ("a", vec), partition)
        assert solves == [lp.TOL] and len(matcher.near_ties) == 1
        # and a check of the pair warns for it
        checker = strong_bisim if mode == "strong" else weak_bisim
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert not checker(graph, 0, 1).equivalent
        assert caught and all("within 10x of the tolerance" in str(w.message) for w in caught)


def refine_once(monkeypatch) -> dict:
    """Have bisim._refine refine each graph, and each view of one, once per
    mode, until the returned memo is cleared.  Refinement reads no pair, so
    a loop over the pairs of one graph clears it once per graph."""
    refine, refined = bisim._refine, {}

    def once(matcher, partition):
        key = matcher.mode, tuple(getattr(matcher.lts, "kept", ()))
        if key not in refined:
            refined[key] = refine(matcher, partition)
        return refined[key]

    monkeypatch.setattr(bisim, "_refine", once)
    return refined


class TestInertCollapse:
    """Weak and eq refinement run on a view of the graph in which each inert
    node, whose one move is a tau move with all of its mass on one other
    node, is replaced by the last node of its inert chain.  The reference is
    the check on the whole graph: one matcher through _refine and _explain,
    the path a graph without inert nodes takes."""

    CHECKERS = (weak_bisim, equality_check)

    def assert_as_uncollapsed(self, monkeypatch, graph, pairs) -> None:
        """Each checker gives every pair the partition and JSON of the check
        on the whole graph."""
        for checker in self.CHECKERS:
            mine = [checker(graph, left, right) for left, right in pairs]
            with monkeypatch.context() as patch:
                patch.setattr(bisim, "_collapse_inert",
                              lambda lts: (lts, list(range(lts.node_count))))
                theirs = [checker(graph, left, right) for left, right in pairs]
            for pair, a, b in zip(pairs, mine, theirs):
                assert a.partition.block_of == b.partition.block_of, (checker.__name__, pair)
                assert a.to_json() == b.to_json(), (checker.__name__, pair)

    def test_checks_agree_with_the_uncollapsed_graph(self, monkeypatch):
        # every ordered pair of the four synthetic families
        refined = refine_once(monkeypatch)
        pairs = collapsed = 0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for slts in synthetic_families():
                refined.clear()
                collapsed += slts.n - bisim._collapse_inert(slts)[0].node_count
                everyone = [(left, right) for left in range(slts.n) for right in range(slts.n)]
                self.assert_as_uncollapsed(monkeypatch, slts, everyone)
                pairs += len(everyone)
        assert pairs == 3683 and collapsed == 59, (pairs, collapsed)

    def test_inert_cycle_and_a_chain_into_it_stay(self, monkeypatch):
        # 0 and 1 pass the unit between them, 2 runs into that cycle, and 3
        # runs into 4, which moves on `a`: only 3 collapses
        one = Fraction(1)
        graph = SyntheticLts(6, [[(TAU, ((1, one),))], [(TAU, ((0, one),))],
                                 [(TAU, ((0, one),))], [(TAU, ((4, one),))],
                                 [("a", ((5, one),))], []], [0] * 6)
        view, rep = bisim._collapse_inert(graph)
        assert view.kept == [0, 1, 2, 4, 5] and rep == [0, 1, 2, 3, 3, 4]
        assert [view.node_edges(i) for i in range(view.node_count)] == [
            [(TAU, ((1, 1.0),))], [(TAU, ((0, 1.0),))], [(TAU, ((0, 1.0),))],
            [("a", ((4, 1.0),))], []]
        assert weak_bisim(graph, 0, 0).partition.block_of == [0, 0, 0, 1, 1, 2]
        self.assert_as_uncollapsed(monkeypatch, graph,
                                   [(left, right) for left in range(6) for right in range(6)])

    def test_termination_through_an_inert_chain(self, monkeypatch):
        # tau.tau.nil (0 -> 1 -> 2) against nil (3) in the same context, and
        # against nil (4) in another: the view keeps only the stuck nodes,
        # and the explanation still finds the termination flow through 0 and 1
        one = Fraction(1)
        graph = SyntheticLts(5, [[(TAU, ((1, one),))], [(TAU, ((2, one),))], [], [], []],
                             [0, 0, 0, 0, 1])
        view, rep = bisim._collapse_inert(graph)
        assert view.kept == [2, 3, 4] and rep == [0, 0, 0, 1, 2]
        assert view.terminal == (0, 0, 2)
        same = weak_bisim(graph, 3, 0)
        assert same.equivalent and same.partition.block_of == [0, 0, 0, 0, 1]
        assert same.witness == [{"from": "right", "node": 0, "action": "tau",
                                 "class_vector": [1.0, 0.0], "flow": {"a_3": 1.0}}]
        assert not equality_check(graph, 3, 0).equivalent
        other = weak_bisim(graph, 4, 0).counterexample
        assert other["pair"] == [4, 0] and other["kind"] == "termination"
        self.assert_as_uncollapsed(monkeypatch, graph,
                                   [(left, right) for left in range(5) for right in range(5)])

    def test_tau_edge_short_of_weight_one_stays_and_warns(self):
        # node 1's one tau move carries 1 - 2e-7 to node 2, stuck in node
        # 0's context: not inert, and its termination question is a near tie
        # that refinement and the explanation share.  At weight 1 node 1
        # collapses into node 2 and the check meets no near tie
        for shift, rep, near in ((Fraction(2, 10**7), [0, 1, 2], 1), (Fraction(0), [0, 1, 1], 0)):
            graph = SyntheticLts(3, [[], [(TAU, ((2, 1 - shift),))], []], [0, 0, 0])
            assert bisim._collapse_inert(graph)[1] == rep, shift
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert weak_bisim(graph, 0, 1).equivalent == (not near), shift
            assert len(caught) == near, shift


class TestLazyWitness:
    """A strong or weak pair whose nodes end in one block of the final
    partition meets each other's requirements there, so its check explains
    nothing: the witness is built when first read.  `eq` and pairs in
    different blocks are explained when the check runs."""

    def test_witness_on_read_is_the_eager_one(self, monkeypatch):
        # every ordered pair of the four synthetic families; reading a
        # witness warns nothing, however many near ties the check met
        refined = refine_once(monkeypatch)
        one_block = 0
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for slts in synthetic_families():
                refined.clear()
                for checker, mode in ((strong_bisim, "strong"), (weak_bisim, "weak")):
                    fresh = bisim._Matcher(slts, mode, lp.TOL)
                    for left in range(slts.n):
                        for right in range(slts.n):
                            result = checker(slts, left, right)
                            block_of = result.partition.block_of
                            if block_of[left] != block_of[right]:
                                assert not result.equivalent and result.witness == []
                                continue
                            warned = len(caught)
                            assert result.equivalent and result.counterexample is None
                            assert (result.witness, None) == bisim._explain(
                                fresh, left, right, result.partition, False), (mode, left, right)
                            assert len(caught) == warned
                            one_block += 1
        assert one_block == 1730 and caught, (one_block, len(caught))

    def test_law_suite_explains_only_pairs_in_different_blocks(self, monkeypatch):
        # the suites read verdicts and counterexamples, never witnesses: a
        # law that holds explains nothing, and each mutated law that fails
        # explains its pair once
        explain, split = bisim._explain, []

        def recording(matcher, left, right, partition, strict):
            split.append(partition.block_of[left] != partition.block_of[right])
            return explain(matcher, left, right, partition, strict)

        monkeypatch.setattr(bisim, "_explain", recording)
        report = laws.check_laws(samples=40, seed=0)
        assert report.ok and sum(report.checked.values()) == 200
        assert split == []
        mutated = laws.check_laws(samples=10, seed=0, mutate=True)
        assert mutated.failures and split == [True] * len(mutated.failures)

    def test_reading_the_witness_releases_the_matcher(self):
        left, right = corpus_configs("choice", "Left", "Right")
        graph = build_lts([left, right])
        for checker in (strong_bisim, weak_bisim):
            result = checker(graph, *graph.initial)
            matcher = weakref.ref(result._matcher)
            assert result.equivalent and matcher() is not None
            witness = result.witness
            assert witness and matcher() is None, checker.__name__
            assert result.witness is witness
        # eq is explained by its check, which keeps no matcher
        assert equality_check(graph, *graph.initial)._matcher is None


class TestOracleOnDerivedGraphs:
    """The checkers against helpers.BisimOracle on graphs that build_lts
    derives from random qCCS term pairs, as the law suites draw them.  Each
    side may sit behind internal moves, so that weak verdicts differ from
    strong ones and `eq` verdicts from weak ones."""

    SYNC = Chan("t", False)
    # how many internal moves the left and the right side sit behind
    WRAPS = ((0, 0), (1, 1), (0, 1), (1, 0), (0, 2), (2, 1))
    WRAP_WEIGHTS = (0.2, 0.1, 0.25, 0.25, 0.1, 0.1)

    def internal(self, term):
        """term behind one internal move: a communication on a restricted
        channel that no drawn term uses."""
        sync = self.SYNC
        return Restrict(Parallel(COutput(sync, Const(1.0), term), CInput(sync, "z", Nil())),
                        frozenset({sync}))

    def draw(self, rng):
        """A graph of two terms over q0 and q1, in one random context under
        the suites' input policy; in about 30% of draws the right term is an
        equivalent rewrite of the left one."""
        qavail = ("q0", "q1")
        left = laws.random_process(rng, 2, qavail)
        right = (laws.equivalent_rewrite(rng, left) if rng.random() < 0.3
                 else laws.random_process(rng, 2, qavail))
        wraps = self.WRAPS[rng.choice(len(self.WRAPS), p=self.WRAP_WEIGHTS)]
        sides = []
        for term, count in zip((left, right), wraps):
            for _ in range(count):
                term = self.internal(term)
            sides.append(term)
        vars_ = tuple(sorted(qv(sides[0]) | qv(sides[1])))
        ctx = make_context(vars_, laws.random_density(rng, len(vars_)))
        return build_lts([Configuration(term, ctx) for term in sides], policy=laws.SUITE_POLICY)

    def test_verdicts_and_partitions_match_the_oracle(self):
        rng = np.random.default_rng(1)
        differ = {"weak-strong": 0, "eq-weak": 0}
        strongly = 0
        for _ in range(130):
            graph = self.draw(rng)
            left, right = graph.initial
            oracle = BisimOracle(graph, lp.TOL)
            strong, weak = strong_bisim(graph, left, right), weak_bisim(graph, left, right)
            eq = equality_check(graph, left, right)
            assert strong.partition.block_of == oracle.partition("strong")
            assert weak.partition.block_of == oracle.partition("weak")
            for result in (strong, weak, eq):
                assert result.equivalent == oracle.equivalent(result.mode, left, right)
            differ["weak-strong"] += weak.equivalent != strong.equivalent
            differ["eq-weak"] += eq.equivalent != weak.equivalent
            strongly += strong.equivalent
        # 42 and 32 pairs differ, and 14 are strongly equivalent
        assert min(differ.values()) >= 20 and strongly >= 10, (differ, strongly)


class TestCounterexamples:
    """A `distinguished` verdict names a requirement of one node that the
    other fails over the final partition, and can be re-checked from the
    verdict JSON and the system alone."""

    def test_checkable_from_the_json(self):
        kinds = set()
        for slts in seeded_systems():
            left, right = 0, slts.n - 1
            for checker in (strong_bisim, weak_bisim):
                out = checker(slts, left, right).to_json()
                if out["verdict"] == "equivalent":
                    continue
                cex, blocks = out["counterexample"], out["blocks"]
                kinds.add((out["mode"], cex.get("kind")))
                assert "kind" in cex or out["mode"] == "strong", cex
                if "kind" not in cex:
                    # strong, and both stuck in different contexts: no move to fail
                    assert cex == {"pair": [left, right], "reason": "terminal contexts differ"}
                    assert slts.stuck(left) and slts.stuck(right)
                    assert slts.labels[left] != slts.labels[right]
                    continue
                owner, partner = cex["pair"]
                assert {owner, partner} == {left, right}
                if cex["kind"] == "termination":
                    assert out["mode"] == "weak" and slts.stuck(owner)
                    continue
                assert len(cex["class_vector"]) == len(blocks)
                block_of = [0] * slts.n
                for b, members in enumerate(blocks):
                    for node in members:
                        block_of[node] = b
                # the owner makes a move with the reported class vector ...
                moves = [exact_class_vector(tg, block_of)
                         for action, tg in slts.edges_exact[owner]
                         if format_action(action) == cex["action"]]
                target = next(v for v in moves
                              if max(abs(float(x) - y) for x, y in zip(v, cex["class_vector"]))
                              <= 1e-12)
                if out["mode"] == "strong":
                    # ... and no combination of the partner's moves matches it
                    points = [exact_class_vector(tg, block_of)
                              for action, tg in slts.edges_exact[partner]
                              if format_action(action) == cex["action"]]
                    assert not exact_hull_member(points, target)
        assert kinds == {("strong", "move"), ("strong", None),
                         ("weak", "move"), ("weak", "termination")}

    def test_lp_constraints_counts_the_failed_program(self, monkeypatch):
        # a fresh matcher solves every question the counterexample asks; the
        # programs after the last question built are those of the failed one
        seen = []
        question, solve = bisim._Matcher.question, lp.feasible

        def marked(matcher, *args):
            seen.append(None)
            return question(matcher, *args)

        def counting(prog, tol=lp.TOL, loose=None):
            seen.append(len(prog.b))
            return solve(prog, tol, loose)

        compared = {"strong": 0, "weak": 0, "eq": 0}
        for slts in seeded_systems():
            left, right = 0, slts.n - 1
            for checker in (strong_bisim, weak_bisim, equality_check):
                result = checker(slts, left, right)
                if result.equivalent or "kind" not in result.counterexample:
                    continue
                seen.clear()
                with monkeypatch.context() as patch:
                    patch.setattr(bisim._Matcher, "question", marked)
                    patch.setattr(lp, "feasible", counting)
                    matcher = bisim._Matcher(slts, "strong" if result.mode == "strong"
                                             else "weak", lp.TOL)
                    witness, again = bisim._explain(matcher, left, right, result.partition,
                                                    result.mode == "eq")
                assert witness == [] and again == result.counterexample
                failed = seen[len(seen) - seen[::-1].index(None):]
                # only a strong move that the partner cannot make at all
                # builds no program, and reports none
                assert failed or (result.mode == "strong" and again["lp_constraints"] == 0)
                assert all(rows == again["lp_constraints"] for rows in failed), (failed, again)
                compared[result.mode] += bool(failed)
        assert (compared["strong"] >= 5 and compared["weak"] >= 20
                and compared["eq"] >= 20), compared

    def test_eq_explains_as_weak_without_tau_moves(self):
        # eq differs from weak only at tau moves, so on two nodes that make
        # none it gives the same verdict, witness and counterexample
        pairs = 0
        for slts in seeded_systems() + returning_systems() + saturated_systems():
            quiet = [v for v in range(slts.n)
                     if not any(isinstance(a, Tau) for a, _ in slts.edges[v])]
            for left in quiet:
                for right in quiet:
                    weak = weak_bisim(slts, left, right).to_json()
                    eq = equality_check(slts, left, right).to_json()
                    assert weak.pop("mode") == "weak" and eq.pop("mode") == "eq"
                    assert eq == weak, (left, right)
                    pairs += 1
        assert pairs == 527

    def test_teleport_class_vectors_are_over_the_blocks(self):
        graph = build_lts([build_teleport(0.6, 0.8), build_teleport(0.6, -0.8)])
        for checker in (strong_bisim, weak_bisim):
            out = checker(graph, *graph.initial).to_json()
            cex = out["counterexample"]
            assert cex["pair"] == list(graph.initial) and cex["kind"] == "move"
            assert len(cex["class_vector"]) == len(out["blocks"])
