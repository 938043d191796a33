"""Tests for the static QA toolchain (repro.qa).

Covers every lint rule with a seeded-violation fixture *and* a clean twin,
the codegen auditor on all four paper protocols and on seeded random nets
(plus corrupted sources that must fail), pickle-safety positives/negatives,
pragma suppression, and the CLI exit-code contract the CI gates on.
"""

import random
import re
import textwrap

import pytest

from repro.qa import codegen_audit, determinism, picklesafety
from repro.qa.cli import main as qa_main
from repro.qa.rules import RULES, parse_pragmas, severity_at_least
from repro.sweep.spec import available_sweep_protocols, build_protocol_and_inputs
from test_compiled_engine import WIDE_NET_SEED, WIDE_NETS, _random_protocol

PAPER_PROTOCOLS = ("majority", "modulo", "succinct", "flock")
AUDIT_POPULATIONS = (25, 100)


def lint(source, path="module.py"):
    return determinism.lint_source(textwrap.dedent(source), path)


def live_rules(findings):
    return [finding.rule for finding in findings if finding.suppressed is None]


# ----------------------------------------------------------------------
# Rule catalogue sanity
# ----------------------------------------------------------------------
class TestRuleCatalogue:
    def test_expected_rules_present(self):
        assert set(RULES) == {
            "DET101", "DET102", "DET103", "DET201", "DET202", "PKL001",
        }

    def test_severity_ordering(self):
        assert severity_at_least("error", "warning")
        assert severity_at_least("warning", "warning")
        assert not severity_at_least("info", "warning")


# ----------------------------------------------------------------------
# Determinism rules: each must fire on a violation and stay silent on a twin
# ----------------------------------------------------------------------
class TestDet101RandomModuleCalls:
    def test_fires_on_module_level_call(self):
        findings = lint(
            """
            import random

            def draw():
                return random.random()
            """
        )
        assert live_rules(findings) == ["DET101"]

    def test_silent_on_seeded_instance(self):
        findings = lint(
            """
            import random

            def draw(seed):
                rng = random.Random(seed)
                return rng.random()
            """
        )
        assert live_rules(findings) == []

    def test_fires_on_shuffle_and_choice(self):
        findings = lint(
            """
            import random

            def scramble(items):
                random.shuffle(items)
                return random.choice(items)
            """
        )
        assert live_rules(findings) == ["DET101", "DET101"]


class TestDet102WallClock:
    @pytest.mark.parametrize(
        "call",
        ["time.time()", "time.time_ns()", "os.urandom(8)", "uuid.uuid4()"],
    )
    def test_fires_on_entropy_sources(self, call):
        findings = lint(
            f"""
            import os, time, uuid

            def stamp():
                return {call}
            """
        )
        assert live_rules(findings) == ["DET102"]

    def test_fires_on_datetime_now(self):
        findings = lint(
            """
            import datetime

            def stamp():
                return datetime.datetime.now()
            """
        )
        assert live_rules(findings) == ["DET102"]

    def test_silent_on_perf_counter(self):
        findings = lint(
            """
            import time

            def measure():
                return time.perf_counter()
            """
        )
        assert live_rules(findings) == []


class TestDet103EnvReads:
    def test_fires_on_environ_and_getenv(self):
        findings = lint(
            """
            import os

            def workers():
                if "WORKERS" in os.environ:
                    return int(os.environ["WORKERS"])
                return os.getenv("FALLBACK")
            """
        )
        assert set(live_rules(findings)) == {"DET103"}
        assert len(live_rules(findings)) >= 2

    def test_silent_in_sanctioned_config_module(self):
        findings = lint(
            """
            import os

            def workers():
                return os.environ.get("WORKERS")
            """,
            path="src/repro/config.py",
        )
        assert live_rules(findings) == []


class TestDet201SetIterationIntoOrderedSink:
    def test_fires_on_append_from_set_literal(self):
        findings = lint(
            """
            def collect(a, b):
                out = []
                for item in {a, b}:
                    out.append(item)
                return out
            """
        )
        assert live_rules(findings) == ["DET201"]

    def test_fires_on_set_typed_local(self):
        findings = lint(
            """
            def collect(items):
                seen = set(items)
                out = []
                for item in seen:
                    out.append(item)
                return out
            """
        )
        assert live_rules(findings) == ["DET201"]

    def test_fires_on_subscript_store(self):
        findings = lint(
            """
            def index(items):
                table = {}
                position = 0
                for item in set(items):
                    table[item] = position
                    position += 1
                return table
            """
        )
        assert live_rules(findings) == ["DET201"]

    def test_silent_on_sorted_iteration(self):
        findings = lint(
            """
            def collect(items):
                out = []
                for item in sorted(set(items), key=str):
                    out.append(item)
                return out
            """
        )
        assert live_rules(findings) == []

    def test_silent_on_order_insensitive_body(self):
        findings = lint(
            """
            def total(items):
                acc = 0
                for item in set(items):
                    acc += item
                return acc
            """
        )
        assert live_rules(findings) == []


class TestDet202UnkeyedSortedOverSet:
    def test_fires_on_sorted_set(self):
        findings = lint(
            """
            def order(items):
                return sorted(set(items))
            """
        )
        assert live_rules(findings) == ["DET202"]

    def test_fires_on_min_over_set_difference(self):
        findings = lint(
            """
            def smallest(a, b):
                return min(set(a) - set(b))
            """
        )
        assert live_rules(findings) == ["DET202"]

    def test_silent_with_key(self):
        findings = lint(
            """
            def order(items):
                return sorted(set(items), key=str)
            """
        )
        assert live_rules(findings) == []

    def test_silent_on_list_argument(self):
        findings = lint(
            """
            def order(items):
                return sorted(list(items))
            """
        )
        assert live_rules(findings) == []


# ----------------------------------------------------------------------
# Pragmas
# ----------------------------------------------------------------------
class TestPragmas:
    def test_trailing_pragma_suppresses(self):
        findings = lint(
            """
            def order(items):
                return sorted(set(items))  # qa: allow[DET202] -- ints only
            """
        )
        assert live_rules(findings) == []
        assert [finding.suppressed for finding in findings] == ["pragma"]

    def test_standalone_pragma_covers_next_line(self):
        findings = lint(
            """
            def order(items):
                # qa: allow[DET202] -- ints only
                return sorted(set(items))
            """
        )
        assert live_rules(findings) == []

    def test_pragma_for_other_rule_does_not_suppress(self):
        findings = lint(
            """
            def order(items):
                return sorted(set(items))  # qa: allow[DET101]
            """
        )
        assert live_rules(findings) == ["DET202"]

    def test_wildcard_pragma(self):
        findings = lint(
            """
            def order(items):
                return sorted(set(items))  # qa: allow[*]
            """
        )
        assert live_rules(findings) == []

    def test_parse_pragmas_multiple_ids(self):
        pragmas = parse_pragmas("x = 1  # qa: allow[DET101, DET202]\n")
        assert pragmas[1] == frozenset({"DET101", "DET202"})


# ----------------------------------------------------------------------
# Pickle safety
# ----------------------------------------------------------------------
class TestPickleSafety:
    def test_fires_on_lambda_attribute(self):
        findings = picklesafety.check_source(
            textwrap.dedent(
                """
                class Holder:
                    def __init__(self):
                        self.fn = lambda x: x + 1
                """
            ),
            "module.py",
        )
        assert live_rules(findings) == ["PKL001"]

    def test_fires_on_exec_factory_result(self):
        findings = picklesafety.check_source(
            textwrap.dedent(
                """
                def _make(source):
                    namespace = {}
                    exec(source, namespace)
                    return namespace["fn"]

                class Holder:
                    def __init__(self, source):
                        self.fn = _make(source)
                """
            ),
            "module.py",
        )
        assert live_rules(findings) == ["PKL001"]

    def test_fires_on_cache_subscript_store(self):
        findings = picklesafety.check_source(
            textwrap.dedent(
                """
                class Holder:
                    def __init__(self):
                        self._cache = {}

                    def _make(self):
                        def stepper():
                            return 1
                        return stepper

                    def get(self, key):
                        self._cache[key] = self._make()
                """
            ),
            "module.py",
        )
        assert live_rules(findings) == ["PKL001"]

    def test_silent_with_getstate(self):
        findings = picklesafety.check_source(
            textwrap.dedent(
                """
                class Holder:
                    def __init__(self):
                        self.fn = lambda x: x + 1

                    def __getstate__(self):
                        state = self.__dict__.copy()
                        state["fn"] = None
                        return state
                """
            ),
            "module.py",
        )
        assert live_rules(findings) == []

    def test_silent_on_plain_attributes(self):
        findings = picklesafety.check_source(
            textwrap.dedent(
                """
                class Holder:
                    def __init__(self, items):
                        self.items = list(items)
                        self.table = {}
                """
            ),
            "module.py",
        )
        assert live_rules(findings) == []

    def test_subclass_inherits_getstate_across_files(self, tmp_path):
        (tmp_path / "base.py").write_text(
            textwrap.dedent(
                """
                class Base:
                    def __init__(self):
                        self.fn = lambda: 1

                    def __getstate__(self):
                        return {}
                """
            )
        )
        (tmp_path / "child.py").write_text(
            textwrap.dedent(
                """
                from base import Base

                class Child(Base):
                    def __init__(self):
                        super().__init__()
                        self.other = lambda: 2
                """
            )
        )
        findings = picklesafety.check_paths(tmp_path)
        assert live_rules(findings) == []

    def test_real_tree_is_clean(self, repo_src):
        findings = picklesafety.check_paths(repo_src)
        assert live_rules(findings) == []


@pytest.fixture(scope="session")
def repo_src():
    import pathlib

    import repro

    return pathlib.Path(repro.__file__).resolve().parent


# ----------------------------------------------------------------------
# Codegen audit
# ----------------------------------------------------------------------
def _compiled_for(name, population):
    protocol, _inputs = build_protocol_and_inputs(name, population)
    net = protocol.petri_net
    assert net is not None
    compiled = net.compiled(extra_states=protocol.states)
    classes = compiled.output_classes(protocol.output_table)
    return compiled, classes


class TestCodegenAudit:
    def test_paper_protocols_are_registered(self):
        assert set(PAPER_PROTOCOLS) <= set(available_sweep_protocols())

    @pytest.mark.parametrize("name", PAPER_PROTOCOLS)
    @pytest.mark.parametrize("population", AUDIT_POPULATIONS)
    def test_paper_protocols_pass(self, name, population):
        compiled, classes = _compiled_for(name, population)
        assert codegen_audit.audit_compiled_net(compiled, classes) == []

    @pytest.mark.parametrize("kind", ["uniform", "transition"])
    def test_corrupted_source_fails(self, kind):
        compiled, classes = _compiled_for("majority", 25)
        source = compiled.stepper_source(kind, classes)
        corrupted = source.replace("step += 1", "step += leaked_global", 1)
        problems = codegen_audit.audit_stepper_source(
            corrupted, compiled, kind, classes
        )
        assert any("leaked_global" in problem for problem in problems)

    @pytest.mark.parametrize("kind", ["uniform", "transition"])
    def test_attribute_access_in_loop_fails(self, kind):
        compiled, classes = _compiled_for("majority", 25)
        source = compiled.stepper_source(kind, classes)
        corrupted = source.replace(
            "        pick = randrange(total)",
            "        pick = rng.randrange(total)",
            1,
        )
        assert corrupted != source
        problems = codegen_audit.audit_stepper_source(
            corrupted, compiled, kind, classes
        )
        assert any("rng.randrange" in problem for problem in problems)

    def test_enabled_list_append_in_transition_loop_fails(self):
        # The transition kind draws from the same weights as the uniform
        # kind, so a candidate list filled inside its loop is an attribute
        # access like any other.  The list is hoisted so only rule 2 fires.
        compiled, classes = _compiled_for("majority", 25)
        source = compiled.stepper_source("transition", classes)
        corrupted = source.replace(
            "    step = 0\n", "    enabled = []\n    step = 0\n", 1
        ).replace(
            "        if pick < (cum := w0):\n",
            "        if pick < (cum := w0):\n            enabled.append(0)\n",
            1,
        )
        assert corrupted.count("enabled") == 2
        problems = codegen_audit.audit_stepper_source(
            corrupted, compiled, "transition", classes
        )
        assert len(problems) == 1
        assert "attribute access enabled.append inside the step loop" in problems[0]

    @pytest.mark.parametrize("kind", ["uniform", "transition"])
    def test_wrong_delta_fails(self, kind):
        compiled, classes = _compiled_for("majority", 25)
        source = compiled.stepper_source(kind, classes)
        # Flip the first firing displacement found in the dispatch.
        corrupted, replacements = re.subn(
            r"^(            c\d+) \+= (\d+)$",
            r"\1 += 7",
            source,
            count=1,
            flags=re.MULTILINE,
        )
        assert replacements == 1
        problems = codegen_audit.audit_stepper_source(
            corrupted, compiled, kind, classes
        )
        assert any("net says" in problem for problem in problems)

    def test_unparsable_source_fails(self):
        compiled, classes = _compiled_for("majority", 25)
        problems = codegen_audit.audit_stepper_source(
            "def broken(:", compiled, "uniform", classes
        )
        assert problems and "does not parse" in problems[0]

    def test_recording_strips_to_fast(self):
        compiled, classes = _compiled_for("succinct", 25)
        fast = compiled.stepper_source("uniform", classes, record=False)
        recording = compiled.stepper_source("uniform", classes, record=True)
        assert codegen_audit._strip_ring_statements(recording) == fast
        assert recording != fast

    @pytest.mark.parametrize("kind", ["uniform", "transition"])
    def test_recording_with_an_extra_statement_is_flagged(self, kind, monkeypatch):
        # Rule 5: recording may add only appends.  One extra non-append
        # statement (a no-op ``step += 0``) passes rules 1-4 and must still
        # be flagged.
        compiled, classes = _compiled_for("majority", 25)
        generate = compiled.stepper_source
        recording = generate(kind, classes, record=True)
        mutated, replacements = re.subn(
            r"^(        step \+= 1)$",
            r"\1\n        step += 0",
            recording,
            count=1,
            flags=re.MULTILINE,
        )
        assert replacements == 1
        assert codegen_audit.audit_stepper_source(
            mutated, compiled, kind, classes, record=True
        ) == []

        def stepper_source(kind, classes, record=False):
            return mutated if record else generate(kind, classes, record=False)

        monkeypatch.setattr(compiled, "stepper_source", stepper_source)
        problems = codegen_audit.audit_compiled_net(compiled, classes, kinds=(kind,))
        assert problems == [
            f"{kind}: recording variant differs from the fast variant by more "
            "than append statements"
        ]


    def test_wrong_weight_in_a_dispatch_test_fails(self):
        # The second arm's test adds w2 where the cumulative chain needs w1,
        # so the boundary picks of transitions 1 and 2 fire the wrong arm.
        # The source keeps every statement the net's tables predict.
        compiled, classes = _compiled_for("majority", 25)
        source = compiled.stepper_source("uniform", classes)
        corrupted = source.replace("(cum := cum + w1)", "(cum := cum + w2)", 1)
        assert corrupted != source
        problems = codegen_audit.audit_stepper_source(
            corrupted, compiled, "uniform", classes
        )
        assert any("net says" in problem for problem in problems)

    def test_wrong_reweighing_fails(self):
        # Transition 0's arm reweighs w1 over the wrong pre-set: every weight
        # is right until transition 0 fires, and the next draw is wrong.
        compiled, classes = _compiled_for("majority", 25)
        source = compiled.stepper_source("uniform", classes)
        corrupted, replacements = re.subn(
            r"^(            w1 = \(c0\) \* \()c3(\))$",
            r"\1c2\2",
            source,
            count=1,
            flags=re.MULTILINE,
        )
        assert replacements == 1
        problems = codegen_audit.audit_stepper_source(
            corrupted, compiled, "uniform", classes
        )
        assert any("after transition 0" in problem for problem in problems)

    @pytest.mark.parametrize(
        "first_seed, cases, sizes",
        [(6000, 25, ()), (7000, 10, ()), (9000, 10, ()), (WIDE_NET_SEED, 10, WIDE_NETS)],
        ids=["small", "transition", "seed-list", "wide"],
    )
    def test_random_nets_pass(self, first_seed, cases, sizes):
        # The seeded random nets of the cross-engine sweep: spawning and
        # dying transitions, multiplicities and '*'-output states.
        for case in range(cases):
            protocol, _ = _random_protocol(random.Random(first_seed + case), *sizes)
            compiled = protocol.petri_net.compiled(extra_states=protocol.states)
            classes = compiled.output_classes(protocol.output_table)
            assert codegen_audit.audit_compiled_net(compiled, classes) == [], case


class TestUniverseGuard:
    def test_colliding_str_renderings_rejected(self):
        from repro.core.configuration import Configuration
        from repro.core.petrinet import PetriNet
        from repro.core.transition import Transition

        class Alias:
            """Two distinct, hashable states rendering identically."""

            def __init__(self, tag):
                self.tag = tag

            def __hash__(self):
                return hash(self.tag)

            def __eq__(self, other):
                return isinstance(other, Alias) and self.tag == other.tag

            def __str__(self):
                return "same"

        a, b = Alias(1), Alias(2)
        net = PetriNet(
            [Transition(pre=Configuration({a: 1}), post=Configuration({b: 1}))],
            name="aliased",
        )
        with pytest.raises(ValueError, match="distinct string renderings"):
            net.compiled()


# ----------------------------------------------------------------------
# CLI exit codes (the contract the CI gates on)
# ----------------------------------------------------------------------
VIOLATION_SOURCE = """\
import random


def draw():
    return random.random()
"""

CLEAN_SOURCE = """\
import random


def draw(seed):
    rng = random.Random(seed)
    return rng.random()
"""


class TestCliExitCodes:
    def test_lint_clean_exits_0(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "clean.py").write_text(CLEAN_SOURCE)
        assert qa_main(["lint", "clean.py"]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_lint_violation_exits_1(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "dirty.py").write_text(VIOLATION_SOURCE)
        assert qa_main(["lint", "dirty.py"]) == 1
        out = capsys.readouterr().out
        assert "DET101" in out

    def test_lint_missing_path_exits_2(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert qa_main(["lint", "no/such/path.py"]) == 2

    def test_lint_shipped_tree_is_clean(self, repo_src, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert qa_main(["lint", str(repo_src)]) == 0

    def test_check_pickle_exit_codes(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bad.py").write_text(
            "class Holder:\n"
            "    def __init__(self):\n"
            "        self.fn = lambda: 1\n"
        )
        assert qa_main(["check-pickle", "bad.py"]) == 1
        (tmp_path / "bad.py").write_text(CLEAN_SOURCE)
        assert qa_main(["check-pickle", "bad.py"]) == 0

    def test_audit_codegen_exits_0(self, capsys):
        assert qa_main(["audit-codegen", "--population", "25"]) == 0
        out = capsys.readouterr().out
        for name in PAPER_PROTOCOLS:
            assert f"{name}@25: ok" in out

    def test_audit_codegen_unknown_protocol_exits_2(self, capsys):
        assert qa_main(["audit-codegen", "--protocol", "nonesuch"]) == 2

    def test_rules_subcommand(self, capsys):
        assert qa_main(["rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in RULES:
            assert rule_id in out

    def test_typecheck_without_mypy_exits_2(self, capsys):
        mypy_installed = True
        try:
            import mypy  # noqa: F401
        except ImportError:
            mypy_installed = False
        if mypy_installed:
            pytest.skip("mypy installed; the missing-dependency path is moot")
        assert qa_main(["typecheck"]) == 2
        assert "pip install" in capsys.readouterr().err
