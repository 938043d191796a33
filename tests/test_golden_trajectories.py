"""Golden-trajectory regression tests: committed seed→trajectory pins.

The engine-equivalence suites (test_compiled_engine, test_native_engine)
prove the three engines agree *with each other* — but if a change altered the
RNG discipline identically in all of them (an extra draw per step, a
reordered transition table, a different seed derivation), cross-engine
agreement would still hold while every downstream number silently changed.
The golden files under ``tests/golden/`` pin today's trajectories to disk:
for a committed (protocol, population, scheduler, seed, budget) each file
records the transition-name order, the exact sequence of fired transition
indices, the run's final summary, and the **trajectory analytics** extracted
from the run (firing histogram, first/stable consensus times, predicate
correctness, consensus-fraction curve).  Every engine the host runs
(``native`` only where ``cc`` builds it) must reproduce each golden bit for
bit, so RNG-discipline drift — and analytics-extraction drift — is caught by
tier 1 directly.

The goldens are deliberately hash-seed- and platform-independent: transition
indices follow the net's construction-ordered transition tuple, and the
random stream is the stdlib Mersenne Twister, which is reproducible across
Python versions.

Regenerate after an *intentional* semantics change with::

    PYTHONPATH=src python tests/test_golden_trajectories.py --regenerate

and review the resulting diffs like any other behavioral change.
"""

import json
from pathlib import Path

import pytest

from engines import ENGINES
from repro.analytics import AnalyticsSpec, extract_run_metrics
from repro.simulation import Simulator
from repro.sweep import SCHEDULERS, build_predicate_for, build_protocol_and_inputs

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

#: The committed cases (the regeneration authority; the tests themselves run
#: whatever ``tests/golden/*.json`` contains, so a stale file still bites).
CASE_DEFINITIONS = (
    {
        "name": "majority_uniform",
        "protocol": "majority", "params": {}, "population": 13,
        "scheduler": "uniform", "seed": 2022,
        "max_steps": 400, "stability_window": 80,
    },
    {
        "name": "majority_transition",
        "protocol": "majority", "params": {}, "population": 13,
        "scheduler": "transition", "seed": 9,
        "max_steps": 400, "stability_window": 80,
    },
    {
        "name": "modulo_uniform",
        "protocol": "modulo", "params": {"modulus": 3, "remainder": 1},
        "population": 11, "scheduler": "uniform", "seed": 7,
        "max_steps": 400, "stability_window": 60,
    },
    {
        "name": "succinct_uniform",
        "protocol": "succinct", "params": {"threshold": 4}, "population": 9,
        "scheduler": "uniform", "seed": 11,
        "max_steps": 500, "stability_window": 120,
    },
    {
        "name": "flock_uniform",
        "protocol": "flock", "params": {"threshold": 5}, "population": 12,
        "scheduler": "uniform", "seed": 5,
        "max_steps": 400, "stability_window": 80,
    },
)


def _golden_paths():
    return sorted(GOLDEN_DIR.glob("*.json"))


def _analytics_spec(case, inputs):
    """The fixed extraction spec of a case: checkpoints derived from the
    step budget, correctness scored against the registered predicate — so
    the goldens also pin the analytics subsystem."""
    budget = case["max_steps"]
    checkpoints = tuple(
        sorted({0, budget // 8, budget // 4, budget // 2, budget})
    )
    predicate = build_predicate_for(
        case["protocol"], case["population"], case["params"]
    )
    expected = None if predicate is None else predicate.evaluate(inputs)
    return AnalyticsSpec(
        curve_checkpoints=checkpoints,
        expected_output=expected,
    )


def _execute(case, engine):
    """Run a case on one engine: (transition names, fired, summary, metrics)."""
    protocol, inputs = build_protocol_and_inputs(
        case["protocol"], case["population"], case["params"]
    )
    scheduler = SCHEDULERS[case["scheduler"]]()
    simulator = Simulator(
        protocol, scheduler=scheduler, seed=case["seed"], engine=engine
    )
    result = simulator.run(
        inputs,
        max_steps=case["max_steps"],
        stability_window=case["stability_window"],
        record_trajectory=True,
    )
    assert result.trajectory is not None
    summary = {
        "steps": result.steps,
        "consensus": result.consensus,
        "consensus_step": result.consensus_step,
        "terminated": result.terminated,
        "interactions_sampled": result.interactions_sampled,
        "final_configuration": {
            str(state): count for state, count in result.final.items()
        },
    }
    transition_names = [
        transition.name for transition in protocol.petri_net.transitions
    ]
    metrics = _normalize(
        extract_run_metrics(result, protocol, _analytics_spec(case, inputs))
    )
    return (
        transition_names, list(result.trajectory.transition_indices), summary,
        metrics,
    )


def _normalize(metrics):
    """Metric dicts as their JSON image (tuples -> lists), for comparison
    against the decoded golden payload."""
    return json.loads(json.dumps(metrics))


@pytest.fixture(params=_golden_paths(), ids=lambda path: path.stem)
def golden(request):
    return json.loads(request.param.read_text(encoding="utf-8"))


class TestGoldenTrajectories:
    def test_goldens_exist_for_at_least_three_protocols(self):
        cases = [json.loads(p.read_text(encoding="utf-8")) for p in _golden_paths()]
        assert len({case["protocol"] for case in cases}) >= 3

    def test_transition_order_is_stable(self, golden):
        # The fired indices refer to the net's transition tuple; a reordering
        # would remap every golden silently, so the order itself is pinned.
        protocol, _ = build_protocol_and_inputs(
            golden["protocol"], golden["population"], golden["params"]
        )
        names = [transition.name for transition in protocol.petri_net.transitions]
        assert names == golden["transitions"]

    @pytest.mark.parametrize("engine", ENGINES)
    def test_engine_reproduces_golden(self, golden, engine):
        _, fired, summary, _ = _execute(golden, engine)
        assert fired == golden["fired"], (
            f"engine {engine!r} fired a different transition sequence than the "
            f"golden ({golden['protocol']}); if the change of RNG discipline is "
            "intentional, regenerate tests/golden (see module docstring)"
        )
        assert summary == golden["summary"]

    @pytest.mark.parametrize("engine", ENGINES)
    def test_engine_reproduces_golden_metrics(self, golden, engine):
        # The analytics pin: identical trajectories must extract into
        # identical metric dicts on every engine — histogram, consensus
        # times, correctness and curve, bit for bit against the committed
        # values.
        _, _, _, metrics = _execute(golden, engine)
        assert metrics == golden["metrics"], (
            f"engine {engine!r} extracted different analytics than the golden "
            f"({golden['protocol']}); if the change of metric semantics is "
            "intentional, regenerate tests/golden (see module docstring)"
        )

    def test_golden_metrics_are_consistent_with_summaries(self, golden):
        # Internal consistency of the committed payloads themselves.
        metrics = golden["metrics"]
        assert metrics["steps"] == golden["summary"]["steps"]
        assert metrics["consensus"] == golden["summary"]["consensus"]
        assert sum(metrics["histogram"]) == len(golden["fired"])
        if metrics["time_to_first_consensus"] is not None:
            assert (
                metrics["time_to_first_consensus"]
                <= metrics["time_to_stable_consensus"]
            )

    def test_goldens_record_nontrivial_runs(self, golden):
        # Guard against regenerating into degenerate pins (e.g. a population
        # so small that nothing ever fires).
        assert len(golden["fired"]) > 0
        assert golden["summary"]["interactions_sampled"] == len(golden["fired"])


def regenerate():
    """Rewrite every golden file from the current reference engine."""
    GOLDEN_DIR.mkdir(exist_ok=True)
    for definition in CASE_DEFINITIONS:
        case = {key: value for key, value in definition.items() if key != "name"}
        transitions, fired, summary, metrics = _execute(case, "reference")
        for engine in ENGINES[1:]:
            checked = _execute(case, engine)
            if checked != (transitions, fired, summary, metrics):
                raise SystemExit(
                    f"engines disagree on {definition['name']}; refusing to "
                    "regenerate goldens from divergent engines"
                )
        payload = dict(case)
        payload["transitions"] = transitions
        payload["fired"] = fired
        payload["summary"] = summary
        payload["metrics"] = metrics
        path = GOLDEN_DIR / f"{definition['name']}.json"
        path.write_text(
            json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8"
        )
        print(f"wrote {path} ({len(fired)} fired transitions)")


if __name__ == "__main__":
    import sys

    if "--regenerate" not in sys.argv:
        raise SystemExit(
            "run under pytest, or pass --regenerate to rewrite tests/golden"
        )
    regenerate()
