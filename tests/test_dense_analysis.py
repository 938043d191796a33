"""Oracle tests for the dense, cached analysis layer.

* ``verify_input`` / ``stable_consensus_value`` / ``is_output_stable`` run on
  :class:`repro.core.semantics.DenseReachabilityGraph`.  On seeded random
  small protocols (conservative or not, with leaders, '*'-outputs and
  isolated states), and on nets at the edges of its bit-field encoding,
  they must agree with the sparse ``net.reachability_graph`` +
  ``always_eventually_stable`` path: same ``computed``, same ``explored``,
  and ``ExplorationLimitError`` on exactly the same ``max_nodes`` budgets.
  These oracle tests run on both explorers, the Python loops and the native
  library, and the two must build the same graph: the same codes in the
  same order, the same predecessor lists and the same answers.
* ``backward_coverability`` and ``is_stabilized`` are membership tests
  against bases cached on the net.  They must equal a from-scratch backward
  fixpoint for every target tried and every set of forbidden states, and the
  cache must be invisible: hits equal cold calls, partial bases are never
  kept, pickles do not grow, and the basis order does not follow set hash
  order.
"""

import gc
import itertools
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest
from engines import requires_native

import repro
from repro.analysis import (
    backward_coverability,
    coverability_basis,
    is_stabilized,
    unstabilized_basis,
    verify_input,
)
from repro.analysis.reachability import enumerate_configurations_up_to
from repro.core import (
    Configuration,
    DenseReachabilityGraph,
    ExplorationLimitError,
    PetriNet,
    Protocol,
    Transition,
    always_eventually_stable,
    from_counts,
    is_output_stable,
    output_stable_nodes,
    stable_consensus_value,
    unit,
)
from repro.core import semantics
from repro.core.protocol import OUTPUT_ONE, OUTPUT_UNDEFINED, OUTPUT_ZERO
from repro.protocols import modulo_protocol
from repro.simulation import native
from repro.sweep import build_protocol_and_inputs

#: Exploration budget of the non-conservative cases (their reachability
#: sets may be infinite).
BUDGET = 150


def _random_multiset(rng, states, min_size, max_size):
    """A random configuration over ``states`` with ``min_size..max_size`` agents."""
    counts = {}
    for _ in range(rng.randint(min_size, max_size)):
        state = rng.choice(states)
        counts[state] = counts.get(state, 0) + 1
    return Configuration(counts)


def _random_protocol(rng, conservative):
    """A random small Petri-net protocol: arbitrary pre multisets and, unless
    ``conservative``, post multisets of any size, so spawning and dying
    transitions occur.  Leaders, '*'-output states and an isolated state the
    net never touches are all possible."""
    states = [f"s{i}" for i in range(rng.randint(2, 5))]
    transitions = []
    for t in range(rng.randint(1, 5)):
        pre = _random_multiset(rng, states, 1, 2)
        if conservative:
            post = _random_multiset(rng, states, pre.size, pre.size)
        else:
            post = _random_multiset(rng, states, 0, 3)
        transitions.append(Transition(pre, post, name=f"t{t}"))
    net = PetriNet(transitions, states=states, name="random")
    outputs = [OUTPUT_ZERO, OUTPUT_ONE]
    if rng.random() < 0.4:
        outputs.append(OUTPUT_UNDEFINED)
    isolated = ["x"] if rng.random() < 0.3 else []
    output = {state: rng.choice(outputs) for state in states + isolated}
    protocol = Protocol.from_petri_net(
        net,
        leaders=_random_multiset(rng, states, 0, 1),
        initial_states=states + isolated,
        output=output,
        name="random",
        extra_states=isolated,
    )
    inputs = _random_multiset(rng, states + isolated, 3, 10)
    return protocol, inputs


def _cases(count):
    rng = random.Random(20221)
    for index in range(count):
        conservative = index % 2 == 0
        protocol, inputs = _random_protocol(rng, conservative)
        yield index, conservative, protocol, inputs


def _edge_protocol(name, output, *moves):
    """A leaderless protocol whose transitions are the ``(pre, post)`` pairs
    ``moves`` over the states of ``output``."""
    net = PetriNet(
        [Transition(pre, post, name=f"t{t}") for t, (pre, post) in enumerate(moves)],
        states=list(output),
        name=name,
    )
    return Protocol.from_petri_net(
        net, leaders=Configuration({}), initial_states=list(output), output=output, name=name
    )


def _edge_cases():
    """Cases at the edges of the dense graph's bit fields, shaped like
    :func:`_cases` with a label for the index.  A field holds the largest of
    the population, any pre count and any one-step gain, plus a guard bit:

    * spawning nets whose counts outgrow that field, so the search restarts
      on wider fields (``quadruple`` is finite, ``spawn`` is not);
    * a pre-set that needs more agents than the population holds;
    * populations of exactly 2^k - 1 and 2^k agents, which can all gather in
      any one state, the last field included;
    * a transition whose pre-set equals its post-set;
    * an empty population, whose code is 0.
    """
    quadruple = _edge_protocol(
        "quadruple", {"a": 0, "b": 1, "c": 1}, ({"a": 1}, {"b": 4}), ({"b": 1}, {"c": 4})
    )
    for agents in (1, 3):
        yield f"quadruple-{agents}", False, quadruple, from_counts(a=agents)
    spawn = _edge_protocol("spawn", {"a": 0, "b": 1}, ({"b": 1}, {"a": 1, "b": 1}))
    yield "spawn", False, spawn, from_counts(b=1)
    greedy = _edge_protocol(
        "greedy", {"a": 0, "b": 1}, ({"a": 9}, {"a": 8, "b": 1}), ({"b": 1}, {"a": 1})
    )
    for a in range(8):
        for b in range(8 - a):
            yield f"greedy-{a}a{b}b", True, greedy, from_counts(a=a, b=b)
    gather = _edge_protocol(
        "gather",
        {"a": 0, "b": 1, "c": 0},
        ({"a": 1, "b": 1}, {"b": 2}),
        ({"b": 1, "c": 1}, {"c": 2}),
        ({"c": 1, "a": 1}, {"a": 2}),
    )
    for agents in (3, 4, 7, 8, 15, 16):
        yield f"gather-{agents}", True, gather, from_counts(a=agents - 2, b=1, c=1)
    idle = _edge_protocol(
        "idle",
        {"a": 1, "b": 0},
        ({"a": 1, "b": 1}, {"a": 1, "b": 1}),
        ({"a": 1, "b": 1}, {"b": 2}),
        ({"b": 2}, {"a": 2}),
    )
    for agents in (0, 2, 5):
        yield f"idle-{agents}", True, idle, from_counts(a=agents, b=1)
    yield "idle-empty", True, idle, Configuration({})


def _sparse_verdict(protocol, inputs, max_nodes):
    """``(computed, explored)`` on the sparse reachability graph: the oracle."""
    root = protocol.initial_configuration(inputs)
    graph = protocol.petri_net.reachability_graph([root], max_nodes=max_nodes)
    for value in (OUTPUT_ONE, OUTPUT_ZERO):
        if always_eventually_stable(graph, protocol, root, value):
            return value, len(graph)
    return None, len(graph)


def _outcome(function, *args):
    """The result of ``function(*args)``, or the exploration-limit marker."""
    try:
        return function(*args)
    except ExplorationLimitError:
        return "limit"


def _dense_verdict(protocol, inputs, max_nodes):
    verdict = verify_input(protocol, inputs, OUTPUT_ONE, max_nodes=max_nodes)
    return verdict.computed, verdict.explored


@pytest.fixture(params=["python", pytest.param("native", marks=requires_native)])
def explorer(request, monkeypatch):
    """The dense graphs of the test explore in Python (the native library
    hidden from them) or in the native library."""
    if request.param == "python":
        monkeypatch.setattr(semantics, "_native", lambda: None)
    return request.param


@pytest.mark.usefixtures("explorer")
class TestDenseVerificationOracle:
    @pytest.mark.parametrize(
        "index, conservative, protocol, inputs", list(_cases(120)) + list(_edge_cases())
    )
    def test_verify_input_matches_sparse_graph(self, index, conservative, protocol, inputs):
        budget = None if conservative else BUDGET
        expected = _outcome(_sparse_verdict, protocol, inputs, budget)
        assert _outcome(_dense_verdict, protocol, inputs, budget) == expected
        computed = "limit" if expected == "limit" else expected[0]
        assert _outcome(stable_consensus_value, protocol, inputs, budget) == computed

    @pytest.mark.parametrize(
        "index, conservative, protocol, inputs", list(_cases(120)) + list(_edge_cases())
    )
    def test_same_exploration_budgets(self, index, conservative, protocol, inputs):
        if conservative:
            size = _sparse_verdict(protocol, inputs, None)[1]
            budgets = {0, 1, size // 2, size - 1, size, size + 1}
        else:
            budgets = {0, 1, 10, BUDGET}
        for budget in sorted(budgets):
            sparse = _outcome(_sparse_verdict, protocol, inputs, budget)
            assert _outcome(_dense_verdict, protocol, inputs, budget) == sparse, budget

    @pytest.mark.parametrize(
        "protocol, inputs",
        [(protocol, inputs) for _, conservative, protocol, inputs in _cases(40) if conservative],
    )
    def test_output_stability_matches_sparse_graph(self, protocol, inputs):
        root = protocol.initial_configuration(inputs)
        graph = protocol.petri_net.reachability_graph([root])
        for value in (OUTPUT_ONE, OUTPUT_ZERO):
            stable = output_stable_nodes(graph, protocol, value)
            for node in graph.nodes:
                assert is_output_stable(protocol, node, value) == (node in stable)

    @pytest.mark.parametrize("name", ["majority", "modulo", "succinct", "flock"])
    def test_paper_protocols_match_sparse_graph(self, name):
        params = {"modulo": {"modulus": 3, "remainder": 1}, "succinct": {"threshold": 4},
                  "flock": {"threshold": 3}}.get(name, {})
        protocol, _ = build_protocol_and_inputs(name, 2, params)
        states = sorted(protocol.initial_states, key=str)
        for inputs in enumerate_configurations_up_to(states, 6):
            assert _dense_verdict(protocol, inputs, None) == _sparse_verdict(
                protocol, inputs, None
            )

    def test_nodes_are_the_sparse_configurations(self):
        protocol = modulo_protocol(3, 1)
        root = protocol.initial_configuration(protocol.counting_input(5))
        dense = DenseReachabilityGraph(protocol, root)
        compiled = protocol.petri_net.compiled(protocol.states)
        sparse = protocol.petri_net.reachability_graph([root])
        assert {compiled.configuration_of(list(node)) for node in dense.nodes} == sparse.nodes
        assert dense.nodes[0] == tuple(compiled.counts_of(root))

    def test_configuration_outside_the_protocol_states(self):
        # An agent in a state outside P never moves and has no output, so it
        # changes neither the reachable outputs nor the stability verdict.
        protocol = modulo_protocol(2, 0)
        configuration = protocol.initial_configuration(protocol.counting_input(2))
        with_stranger = configuration + from_counts(stranger=1)
        for value in (OUTPUT_ONE, OUTPUT_ZERO):
            assert is_output_stable(protocol, with_stranger, value) == is_output_stable(
                protocol, configuration, value
            )

    def test_consensus_value_must_be_binary(self):
        protocol = modulo_protocol(2, 0)
        root = protocol.initial_configuration(protocol.counting_input(2))
        graph = DenseReachabilityGraph(protocol, root)
        with pytest.raises(ValueError):
            graph.consensus(OUTPUT_UNDEFINED)
        with pytest.raises(ValueError):
            graph.always_eventually_stable(OUTPUT_UNDEFINED)


def _gather_protocol(output):
    """A conservative protocol where any agent can recruit the next state's."""
    return _edge_protocol(
        "gather",
        output,
        ({"a": 1, "b": 1}, {"b": 2}),
        ({"b": 1, "c": 1}, {"c": 2}),
        ({"c": 1, "a": 1}, {"a": 2}),
    )


def _graph_facts(protocol, inputs):
    """Nodes in order, stable value and consensus lists of the dense graph."""
    graph = DenseReachabilityGraph(protocol, protocol.initial_configuration(inputs))
    return (
        graph.nodes,
        graph.stable_value(),
        graph.consensus(OUTPUT_ONE),
        graph.consensus(OUTPUT_ZERO),
    )


def _consensus_from_protocol(protocol, inputs, value):
    """Per dense node, ``protocol.has_consensus``: the sparse reading."""
    root = protocol.initial_configuration(inputs)
    compiled = protocol.petri_net.compiled(protocol.states)
    return [
        protocol.has_consensus(compiled.configuration_of(list(node)), value)
        for node in DenseReachabilityGraph(protocol, root).nodes
    ]


@pytest.mark.usefixtures("explorer")
class TestPackedTablesCache:
    """The packing tables are built once per net, compiled universe and
    output classes, and kept on the net."""

    @pytest.mark.parametrize("order", [(7, 8), (8, 7)])
    def test_warm_tables_across_a_width_boundary(self, order):
        # 7 agents fit 3 count bits, 8 need 4: the second population reuses
        # the net's tables, built on the other width.
        output = {"a": 0, "b": 1, "c": 0}
        warm = _gather_protocol(output)
        for agents in order:
            inputs = from_counts(a=agents - 2, b=1, c=1)
            assert _dense_verdict(warm, inputs, None) == _sparse_verdict(warm, inputs, None)
            cold = _gather_protocol(output)
            assert _graph_facts(warm, inputs) == _graph_facts(cold, inputs)
        assert len(warm.petri_net._dense_cache) == 1

    def test_swapped_outputs_on_one_net_do_not_share_tables(self):
        net = _gather_protocol({"a": 0, "b": 1, "c": 0}).petri_net
        protocols = [
            Protocol.from_petri_net(
                net, leaders=Configuration({}), initial_states=["a", "b", "c"], output=output
            )
            for output in ({"a": 0, "b": 1, "c": 1}, {"a": 1, "b": 0, "c": 0})
        ]
        for agents in (3, 4, 5):
            inputs = from_counts(a=agents - 2, b=1, c=1)
            for protocol in protocols:
                assert _dense_verdict(protocol, inputs, None) == _sparse_verdict(
                    protocol, inputs, None
                )
                for value in (OUTPUT_ONE, OUTPUT_ZERO):
                    graph = DenseReachabilityGraph(
                        protocol, protocol.initial_configuration(inputs)
                    )
                    assert graph.consensus(value) == _consensus_from_protocol(
                        protocol, inputs, value
                    )
        assert len(net._dense_cache) == 2

    def test_pickles_do_not_grow(self):
        protocol = _gather_protocol({"a": 0, "b": 1, "c": 0})
        net = protocol.petri_net
        size = len(pickle.dumps(net))
        inputs = from_counts(a=3, b=1, c=1)
        verdict = verify_input(protocol, inputs, OUTPUT_ONE)
        assert net._dense_cache
        assert len(pickle.dumps(net)) == size
        assert pickle.loads(pickle.dumps(net))._dense_cache == {}
        clone = pickle.loads(pickle.dumps(protocol))
        assert verify_input(clone, inputs, OUTPUT_ONE) == verdict


def _graph_answers(protocol, inputs, max_nodes):
    """Everything a dense graph answers, or the exploration-limit message."""
    try:
        graph = DenseReachabilityGraph(
            protocol, protocol.initial_configuration(inputs), max_nodes
        )
    except ExplorationLimitError as error:
        return "limit", str(error)
    return (
        len(graph),
        graph.nodes,
        graph.predecessors,
        graph.consensus(OUTPUT_ONE),
        graph.consensus(OUTPUT_ZERO),
        graph.always_eventually_stable(OUTPUT_ONE),
        graph.always_eventually_stable(OUTPUT_ZERO),
        graph.stable_value(),
    )


def _python_answers(monkeypatch, protocol, inputs, max_nodes):
    """:func:`_graph_answers` with the native library hidden."""
    with monkeypatch.context() as patch:
        patch.setattr(semantics, "_native", lambda: None)
        return _graph_answers(protocol, inputs, max_nodes)


@pytest.fixture
def native_searches(monkeypatch):
    """The code width in bits (states x field width) of every search the
    native explorer runs, in order: the top bit of its guard word is the
    last field's guard."""
    widths = []
    search = native.explore

    def spy(steps, root, max_nodes):
        widths.append(steps[0].bit_length())
        return search(steps, root, max_nodes)

    monkeypatch.setattr(native, "explore", spy)
    return widths


def _padded(protocol_name, output, moves, states):
    """An edge protocol with idle states added until it has ``states``."""
    output = dict(output, **{f"idle{i}": 0 for i in range(states - len(output))})
    return _edge_protocol(protocol_name, output, *moves)


@requires_native
class TestNativeExplorer:
    """The native explorer builds the Python explorer's graph."""

    @pytest.mark.parametrize(
        "index, conservative, protocol, inputs", list(_cases(120)) + list(_edge_cases())
    )
    def test_same_graph_as_the_python_explorer(
        self, index, conservative, protocol, inputs, monkeypatch, native_searches
    ):
        budgets = [None if conservative else BUDGET, 0, 1, 10, 50]
        for budget in budgets:
            expected = _python_answers(monkeypatch, protocol, inputs, budget)
            assert _graph_answers(protocol, inputs, budget) == expected, budget
        assert native_searches

    def test_codes_past_64_bits_explore_in_python(self, monkeypatch, native_searches):
        # 17 states on fields of 4 bits (4 agents) need 68 bits.
        gather = ({"a": 1, "b": 1}, {"b": 2}), ({"b": 1, "c": 1}, {"c": 2})
        protocol = _padded("gather", {"a": 0, "b": 1, "c": 0}, gather, 17)
        inputs = from_counts(a=2, b=1, c=1)
        assert _dense_verdict(protocol, inputs, None) == _sparse_verdict(protocol, inputs, None)
        answers = _graph_answers(protocol, inputs, None)
        assert answers == _python_answers(monkeypatch, protocol, inputs, None)
        assert native_searches == []

    def test_restarts_past_64_bits_continue_in_python(self, monkeypatch, native_searches):
        # 16 states: one agent spawns 4 then 16, so the fields grow from 4
        # bits (64 in all, native) to 8 (128, Python).
        quadruple = ({"a": 1}, {"b": 4}), ({"b": 1}, {"c": 4})
        protocol = _padded("quadruple", {"a": 0, "b": 1, "c": 1}, quadruple, 16)
        inputs = from_counts(a=1)
        assert _dense_verdict(protocol, inputs, None) == _sparse_verdict(protocol, inputs, None)
        for budget in (None, 0, 1, 10):
            answers = _graph_answers(protocol, inputs, budget)
            assert answers == _python_answers(monkeypatch, protocol, inputs, budget)
        assert set(native_searches) == {64}

    def test_unbounded_spawning_across_64_bits_spends_the_same_budgets(
        self, monkeypatch, native_searches
    ):
        # One agent spawns another at every step, so every budget runs out.
        # On 16 states, fields of 2 and 4 bits explore natively, then fields
        # of 8 bits (128 in all) in Python.
        spawn = _padded("spawn", {"a": 0, "b": 1}, [({"b": 1}, {"a": 1, "b": 1})], 16)
        inputs = from_counts(b=1)
        for budget in (10, 40, 100, BUDGET):
            answers = _graph_answers(spawn, inputs, budget)
            assert answers == _python_answers(monkeypatch, spawn, inputs, budget)
            assert answers[0] == "limit"
        assert set(native_searches) == {32, 64}

    def test_graph_many_times_the_first_buffers(self, monkeypatch, native_searches):
        protocol = modulo_protocol(3, 1)
        inputs = protocol.counting_input(14)
        answers = _graph_answers(protocol, inputs, None)
        assert answers == _python_answers(monkeypatch, protocol, inputs, None)
        size, edges = answers[0], sum(map(len, answers[2]))
        assert size > 16 * native._FIRST_NODES and edges > 16 * native._FIRST_EDGES
        assert native_searches


def _scratch_basis(net, target):
    """The minimal coverability basis of ``target`` by a naive backward
    fixpoint: every round expands every element, until nothing new appears."""
    basis = [target]
    grown = True
    while grown:
        grown = False
        for element in list(basis):
            for transition in net.transitions:
                predecessor = transition.pre + element.saturating_sub(transition.post)
                if not any(existing <= predecessor for existing in basis):
                    basis = [e for e in basis if not predecessor <= e] + [predecessor]
                    grown = True
    return basis


def _sources(net, protocol, inputs):
    """Configurations to test membership on: every configuration of up to
    three agents, plus the initial configuration of the case."""
    states = sorted(net.states, key=str)
    sources = list(enumerate_configurations_up_to(states, 3))
    sources.append(protocol.initial_configuration(inputs))
    return sources


class TestCachedCoverabilityOracle:
    @pytest.mark.parametrize("index, conservative, protocol, inputs", list(_cases(30)))
    def test_backward_coverability_matches_scratch_fixpoint(
        self, index, conservative, protocol, inputs
    ):
        net = protocol.petri_net
        rng = random.Random(index)
        states = sorted(net.states, key=str)
        targets = [unit(state) for state in states]
        targets += [_random_multiset(rng, states, 1, 3) for _ in range(3)]
        sources = _sources(net, protocol, inputs)
        for target in targets:
            scratch = _scratch_basis(net, target)
            assert set(coverability_basis(net, target)) == set(scratch)
            for source in sources:
                expected = any(element <= source for element in scratch)
                assert backward_coverability(net, source, target) == expected

    @pytest.mark.parametrize("index, conservative, protocol, inputs", list(_cases(30)))
    def test_is_stabilized_for_every_forbidden_subset(
        self, index, conservative, protocol, inputs
    ):
        net = protocol.petri_net
        states = sorted(net.states, key=str)
        scratch = {state: _scratch_basis(net, unit(state)) for state in states}
        sources = _sources(net, protocol, inputs)
        for size in range(len(states) + 1):
            for forbidden in itertools.combinations(states, size):
                allowed = [state for state in protocol.states if state not in forbidden]
                for source in sources:
                    expected = not any(
                        element <= source for state in forbidden for element in scratch[state]
                    )
                    assert is_stabilized(net, source, allowed) == expected, (forbidden, source)


def _swap_net():
    return PetriNet(
        [
            Transition({"i": 2}, {"p": 2}, name="fwd"),
            Transition({"p": 2}, {"i": 2}, name="bwd"),
            Transition({"p": 1, "i": 1}, {"q": 1, "i": 1}, name="mark"),
        ]
    )


class TestBasisCache:
    def test_cache_hit_equals_cold_call(self):
        warm = _swap_net()
        sources = list(enumerate_configurations_up_to(["i", "p", "q"], 4))
        cold = [backward_coverability(_swap_net(), source, unit("q")) for source in sources]
        first = [backward_coverability(warm, source, unit("q")) for source in sources]
        hit = [backward_coverability(warm, source, unit("q")) for source in sources]
        assert cold == first == hit
        assert coverability_basis(warm, unit("q")) is coverability_basis(warm, unit("q"))
        stabilized_cold = [is_stabilized(_swap_net(), s, ["i", "p"]) for s in sources]
        stabilized_hit = [is_stabilized(warm, s, ["p", "i"]) for s in sources]
        assert stabilized_cold == stabilized_hit
        assert unstabilized_basis(warm, ["i", "p"]) is unstabilized_basis(warm, {"p", "i"})

    def test_allowed_states_outside_the_net_share_the_entry(self):
        net = _swap_net()
        assert unstabilized_basis(net, ["i", "p"]) is unstabilized_basis(net, ["i", "p", "z"])

    def test_iteration_guard_raises_cold_and_caches_nothing(self):
        net = PetriNet([Transition({"a": 1}, {"a": 1, "b": 1}, name="spawn")])
        target = from_counts(b=50)
        with pytest.raises(RuntimeError):
            backward_coverability(net, from_counts(a=1), target, max_iterations=1)
        assert target not in net._basis_cache
        with pytest.raises(RuntimeError):
            coverability_basis(net, target, max_iterations=1)
        assert backward_coverability(net, from_counts(a=1), target)
        assert not backward_coverability(net, from_counts(b=49), target)

    def test_cache_lives_on_the_instance(self):
        # Two equal nets never share entries, and a net created after another
        # was collected (possibly at the same address) starts empty.
        first = _swap_net()
        coverability_basis(first, unit("q"))
        assert unit("q") not in _swap_net()._basis_cache
        del first
        gc.collect()
        spawn = PetriNet([Transition({"a": 1}, {"a": 1, "q": 1})])
        assert spawn._basis_cache == {}
        assert backward_coverability(spawn, from_counts(a=1), unit("q"))
        assert not backward_coverability(spawn, from_counts(i=2), unit("q"))

    def test_pickles_do_not_grow(self):
        net = _swap_net()
        size = len(pickle.dumps(net))
        is_stabilized(net, from_counts(i=3), ["i", "p"])
        assert net._basis_cache and net._union_basis_cache
        assert len(pickle.dumps(net)) == size
        clone = pickle.loads(pickle.dumps(net))
        assert clone._basis_cache == {} and clone._union_basis_cache == {}
        assert is_stabilized(clone, from_counts(i=3), ["i", "p"]) == is_stabilized(
            net, from_counts(i=3), ["i", "p"]
        )

    def test_union_basis_order_ignores_hash_seed(self):
        # Ten forbidden states: their set order differs between hash seeds,
        # the basis order must not.
        code = (
            "from repro.analysis import unstabilized_basis\n"
            "from repro.protocols import modulo_protocol\n"
            "protocol = modulo_protocol(6, 1)\n"
            "allowed = [s for s in protocol.states if protocol.output[s] == 1]\n"
            "print([e.pretty() for e in unstabilized_basis(protocol.petri_net, allowed)])\n"
        )
        src = str(Path(repro.__file__).resolve().parent.parent)
        outputs = set()
        for seed in ("1", "2", "3"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            result = subprocess.run(
                [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
            )
            outputs.add(result.stdout)
        assert len(outputs) == 1
