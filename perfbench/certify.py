"""The ``certify`` workload: the paper's analysis layer on simulated runs.

Each pass runs, per protocol, one ``Simulator.run_many`` ensemble at a
small population with the heuristic stability windows of the ROADMAP
convergence table, checks every final configuration that reports a
consensus with the exact Section 5 test ``is_stabilized`` (allowed set: the
states whose output is that consensus), and then verifies the protocol
exhaustively with ``check_protocol`` up to a fixed agent count.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Tuple

from repro.analysis import check_protocol, is_stabilized
from repro.obs import trace
from repro.simulation import Simulator
from repro.sweep import build_predicate_for, build_protocol_and_inputs

from .common import (
    PROTOCOLS,
    Outcome,
    SpanTree,
    check_repeats,
    derive_seed,
    digest,
    median,
    own_and_children_peak_rss_mb,
    reference_loop_s,
    repeat,
    report_end_to_end,
    report_ops,
    report_split,
    report_stepper,
    setup_then,
    trace_overhead,
)

#: Set-ups timed before the first pass and after each one.
SETUP_REPEATS = 3
MIN_PASSES = 3
POPULATION = 30
REPETITIONS = 40
MAX_STEPS = 100_000

#: protocol -> (params, stability window, check_protocol agent bound).
CASES: Dict[str, Tuple[Dict[str, int], int, int]] = {
    "majority": ({}, 50, 12),
    "modulo": ({"modulus": 3, "remainder": 1}, 50, 14),
    "succinct": ({"threshold": 8}, 20, 14),
    "flock": ({"threshold": 5}, 20, 14),
}


def build(seed: int) -> Dict[str, Tuple[Any, Any, Any, int]]:
    """Protocol, inputs, predicate and simulator seed per protocol, with
    the first ``Simulator`` built (that compiles the stepper)."""
    built = {}
    for name in PROTOCOLS:
        params = CASES[name][0]
        protocol, inputs = build_protocol_and_inputs(name, POPULATION, params)
        predicate = build_predicate_for(name, POPULATION, params)
        sim_seed = derive_seed(seed, "certify", name)
        Simulator(protocol, seed=sim_seed)
        built[name] = (protocol, inputs, predicate, sim_seed)
    return built


class CertifyPass:
    """One pass over the four protocols."""

    def __init__(self, built: Mapping[str, Tuple[Any, Any, Any, int]],
                 outcome: Outcome) -> None:
        self.certified = 0
        self.stabilized_ms: List[float] = []
        self.outputs: Dict[str, Any] = {}
        start = time.perf_counter()
        with trace.span("certify-pass", kind="bench.pass"):
            for name, (protocol, inputs, predicate, sim_seed) in built.items():
                self._protocol(name, protocol, inputs, predicate, sim_seed)
        self.wall = time.perf_counter() - start
        for name, output in self.outputs.items():
            outcome.check(output["verified"], f"check_protocol failed on {name}")

    def _protocol(self, name: str, protocol: Any, inputs: Any, predicate: Any,
                  sim_seed: int) -> None:
        _, window, max_agents = CASES[name]
        with trace.span("simulate", kind="bench.simulate", protocol=name):
            results = Simulator(protocol, seed=sim_seed).run_many(
                inputs, REPETITIONS, max_steps=MAX_STEPS, stability_window=window
            )

        net = protocol.petri_net
        false_consensus = 0
        finals = []
        for result in results:
            finals.append(str(result.final))
            if result.consensus is None:
                continue
            allowed = [
                state for state in protocol.states
                if protocol.output_table.get(state) == result.consensus
            ]
            start = time.perf_counter()
            with trace.span("is_stabilized", kind="bench.is_stabilized", protocol=name):
                stable = is_stabilized(net, result.final, allowed)
            self.stabilized_ms.append((time.perf_counter() - start) * 1000.0)
            self.certified += 1
            false_consensus += not stable

        with trace.span("check_protocol", kind="bench.check_protocol", protocol=name):
            report = check_protocol(protocol, predicate, max_agents=max_agents)
        self.outputs[name] = {
            "finals": digest(finals),
            "false_consensus": false_consensus,
            "configs_explored": report.total_explored,
            "verified": report.all_correct,
        }


def run_passes(built: Mapping[str, Any], outcome: Outcome, between: Callable[[], float],
               seconds: float = 0.0, count: int = 0) -> Tuple[List[CertifyPass], List[float]]:
    return repeat(lambda: CertifyPass(built, outcome), between, seconds, count, MIN_PASSES)


def run(workload: str, seed: int, seconds: float, traced: bool, work: Path,
        outcome: Outcome) -> None:
    built = build(seed)
    setups: List[float] = []
    plain, plain_refs = run_passes(
        built, outcome, setup_then(reference_loop_s, lambda: build(seed), SETUP_REPEATS, setups),
        seconds=seconds / 2 if traced else seconds,
    )
    if not traced:
        check_repeats(outcome, [p.outputs for p in plain], "certify pass")
        report_end_to_end(
            outcome, median(setups), own_and_children_peak_rss_mb(),
            [(p.certified, p.wall, ref) for p, ref in zip(plain, plain_refs)],
        )
        return

    with trace.capture_events() as events:
        traced_passes, traced_refs = run_passes(built, outcome, reference_loop_s, count=len(plain))
    check_repeats(outcome, [p.outputs for p in plain + traced_passes], "certify pass")
    overhead = trace_overhead(
        [(p.wall, ref) for p, ref in zip(plain, plain_refs)],
        [(p.wall, ref) for p, ref in zip(traced_passes, traced_refs)],
    )
    report_layers(plain, traced_passes, overhead, SpanTree(events), outcome)


def report_layers(plain: List[CertifyPass], traced: List[CertifyPass], overhead: float,
                  tree: SpanTree, outcome: Outcome) -> None:
    """Per-layer metrics, per pass, from the traced passes.  ``run_many``
    outside its ``run`` spans is the batch layer; ``is_stabilized`` and
    ``check_protocol`` are the entry layer."""
    layers = {
        "run": "stepper.wall_s",
        "ensemble": "batch.self_s",
        "bench.simulate": "batch.self_s",
        "bench.is_stabilized": "entry.self_s",
        "bench.check_protocol": "entry.self_s",
    }
    split = tree.self_split(layers, os.getpid(), root_kind="bench.pass")
    report_split(outcome, split, len(traced), sum(p.wall for p in traced), overhead)
    report_stepper(
        outcome, tree, lambda run_span: tree.attr_up(run_span, "protocol"), len(traced)
    )
    report_ops(outcome, [ms for p in plain for ms in p.stabilized_ms])
