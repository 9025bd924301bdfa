"""Tests for the repro lint framework: per-rule fixtures, suppressions,
the CLI, and a self-run over the real tree.

Fixture modules live under ``tests/fixtures/lint/``.  Single-module
fixtures are loaded as ``fx.sim.mod`` next to a synthetic
``fx.core.system`` that imports them, so the classifier puts them on
the sim path; the protocol fixtures are mini trees loaded under the
real ``repro.*`` handler-module names, because the protocol table
addresses modules by those names.
"""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.lint import (
    classify_modules,
    lint_modules,
    load_source,
    run_lint,
)
from repro.lint.suppress import REASON_RULE

FIXTURES = Path(__file__).parent / "fixtures" / "lint"

#: rule id -> fixture basename (``<base>_bad.py`` / ``<base>_good.py``)
RULE_FIXTURES = {
    "det-global-rng": "det_global_rng",
    "det-wallclock": "det_wallclock",
    "det-env": "det_env",
    "det-owned-rng": "det_owned_rng",
    "det-unordered-iter": "det_unordered_iter",
    "det-id-order": "det_id_order",
    "det-slots": "det_slots",
    "spec-factory-named": "spec_factory_named",
    "spec-canonical-json": "spec_canonical_json",
    "spec-cache-key-field": "spec_cache_key_field",
}

#: proto fixture file -> the module name the table addresses it by.
PROTO_MODULES = {
    "messages.py": "repro.core.messages",
    "controller.py": "repro.directory.controller",
    "core.py": "repro.processor.core",
    "commit.py": "repro.processor.commit",
    "system.py": "repro.core.system",
}


def lint_fixture_source(source: str):
    """Lint one source string as the sim-path module ``fx.sim.mod``."""
    modules = {
        "fx.core.system": load_source("import fx.sim.mod\n",
                                      name="fx.core.system"),
        "fx.sim.mod": load_source(source, name="fx.sim.mod"),
    }
    return lint_modules(modules)


def lint_fixture_file(filename: str):
    return lint_fixture_source((FIXTURES / filename).read_text())


def lint_proto_tree(tree_name: str):
    modules = {}
    for filename, module_name in PROTO_MODULES.items():
        modules[module_name] = load_source(
            (FIXTURES / tree_name / filename).read_text(), name=module_name,
        )
    return lint_modules(modules)


def rules_hit(result):
    return {finding.rule for finding in result.findings}


# -- per-rule positive/negative fixtures --------------------------------


@pytest.mark.parametrize("rule_id", sorted(RULE_FIXTURES))
def test_rule_fires_on_bad_fixture(rule_id):
    result = lint_fixture_file(RULE_FIXTURES[rule_id] + "_bad.py")
    assert rule_id in rules_hit(result), (
        f"{rule_id} did not fire; findings: "
        f"{[f.render() for f in result.findings]}"
    )
    finding = next(f for f in result.findings if f.rule == rule_id)
    assert finding.line > 0
    assert finding.path.endswith(".py")


@pytest.mark.parametrize("rule_id", sorted(RULE_FIXTURES))
def test_rule_quiet_on_good_fixture(rule_id):
    result = lint_fixture_file(RULE_FIXTURES[rule_id] + "_good.py")
    assert rule_id not in rules_hit(result), (
        f"{rule_id} fired on the good fixture: "
        f"{[f.render() for f in result.findings if f.rule == rule_id]}"
    )


def test_unordered_iter_flags_a_set_ordered_resume_loop():
    # Waking parked processes queues their next steps: the loop order is
    # the order in which they run.
    result = lint_fixture_file("det_unordered_iter_bad.py")
    sinks = [f.message for f in result.findings
             if f.rule == "det-unordered-iter"]
    assert any("`process.resume`" in message for message in sinks), sinks


def test_sim_scope_rules_skip_driver_modules():
    # The same global-RNG source, loaded *without* a sim root importing
    # it, is driver-path and exempt from determinism rules.
    source = (FIXTURES / "det_global_rng_bad.py").read_text()
    modules = {"fx.analysis.tool": load_source(source, name="fx.analysis.tool")}
    result = lint_modules(modules)
    assert "det-global-rng" not in rules_hit(result)


def test_classifier_marks_transitive_imports_sim():
    modules = {
        "fx.core.system": load_source("from fx.sim import engine\n",
                                      name="fx.core.system"),
        "fx.sim.engine": load_source("import fx.sim.events\n",
                                     name="fx.sim.engine"),
        "fx.sim.events": load_source("", name="fx.sim.events"),
        "fx.analysis.plot": load_source("import fx.sim.engine\n",
                                        name="fx.analysis.plot"),
    }
    labels = classify_modules(modules)
    assert labels["fx.sim.engine"] == "sim"
    assert labels["fx.sim.events"] == "sim"  # transitive
    assert labels["fx.analysis.plot"] == "driver"  # imports sim, not imported by it


# -- protocol tree fixtures ---------------------------------------------


def _fixture_type_findings(result):
    """Findings that talk about the fixture's own message types (the
    mini message set does not define the full table, so table-coverage
    findings about absent real types are expected noise)."""
    return [
        f for f in result.findings
        if "`LoadRequest`" in f.message or "`TidRequest`" in f.message
    ]


def test_proto_good_tree_is_contract_clean():
    result = lint_proto_tree("proto_good")
    assert _fixture_type_findings(result) == [], (
        [f.render() for f in _fixture_type_findings(result)]
    )


def test_proto_bad_tree_reports_all_three_rules():
    result = lint_proto_tree("proto_bad")
    findings = _fixture_type_findings(result)
    hit = {f.rule for f in findings}
    assert hit == {
        "proto-handler-coverage", "proto-emission", "proto-retry-wrap",
    }
    coverage = next(f for f in findings if f.rule == "proto-handler-coverage")
    assert "`TidRequest` has no handler" in coverage.message
    emission = next(f for f in findings if f.rule == "proto-emission")
    assert "repro.directory.controller" in emission.message
    retry = {f.message for f in findings if f.rule == "proto-retry-wrap"}
    assert any("`TidRequest`" in m and "acquire_tid" in m for m in retry)
    assert any("`LoadRequest`" in m and "_forward" in m for m in retry)


# -- suppressions --------------------------------------------------------


def test_inline_suppression_silences_finding():
    result = lint_fixture_source(
        "import random\n"
        "JITTER = random.random()  # repro: allow[det-global-rng] fixture demo\n"
    )
    assert "det-global-rng" not in rules_hit(result)
    assert [f.rule for f in result.suppressed] == ["det-global-rng"]


def test_standalone_suppression_covers_next_code_line():
    result = lint_fixture_source(
        "import random\n"
        "# repro: allow[det-global-rng] fixture demo\n"
        "JITTER = random.random()\n"
    )
    assert "det-global-rng" not in rules_hit(result)
    assert len(result.suppressed) == 1


def test_reasonless_suppression_is_itself_a_finding():
    result = lint_fixture_source(
        "import random\n"
        "JITTER = random.random()  # repro: allow[det-global-rng]\n"
    )
    hit = rules_hit(result)
    assert REASON_RULE in hit
    # ...and the malformed allow does not silence anything.
    assert "det-global-rng" in hit


def test_suppression_for_other_rule_does_not_match():
    result = lint_fixture_source(
        "import random\n"
        "JITTER = random.random()  # repro: allow[det-wallclock] wrong rule\n"
    )
    assert "det-global-rng" in rules_hit(result)
    assert result.suppressed == []


# -- self-run: the repo's own tree must be clean -------------------------


def test_repo_tree_is_lint_clean():
    result = run_lint()
    assert result.ok, "\n".join(f.render() for f in result.findings)
    assert result.modules_scanned > 50
    # Spot-check the classifier on the real tree.
    assert "repro.sim.engine" in result.sim_path_modules
    assert "repro.core.system" in result.sim_path_modules
    assert "repro.cli" not in result.sim_path_modules
    assert "repro.runner.pool" not in result.sim_path_modules


# -- CLI -----------------------------------------------------------------


def _write_violating_tree(tmp_path):
    """A tiny package with a module-level global-RNG draw in sim-path
    code (the acceptance scenario: random.random() in sim/engine.py)."""
    pkg = tmp_path / "repro"
    (pkg / "core").mkdir(parents=True)
    (pkg / "sim").mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "core" / "__init__.py").write_text("")
    (pkg / "core" / "system.py").write_text("import repro.sim.engine\n")
    (pkg / "sim" / "__init__.py").write_text("")
    (pkg / "sim" / "engine.py").write_text(
        "import random\nJITTER = random.random()\n"
    )
    return pkg


def test_cli_lint_clean_tree_exits_zero(capsys):
    code = main(["lint"])
    out = capsys.readouterr().out
    assert code == 0
    assert "clean" in out


def test_cli_lint_names_rule_file_and_line(tmp_path, capsys):
    pkg = _write_violating_tree(tmp_path)
    code = main(["lint", "--root", str(pkg)])
    out = capsys.readouterr().out
    assert code == 1
    assert "det-global-rng" in out
    assert "repro/sim/engine.py:2" in out


def test_cli_lint_json_format(tmp_path, capsys):
    pkg = _write_violating_tree(tmp_path)
    code = main(["lint", "--root", str(pkg), "--format", "json"])
    out = capsys.readouterr().out
    assert code == 1
    report = json.loads(out)
    assert report["ok"] is False
    assert report["findings"][0]["rule"] == "det-global-rng"
    assert report["findings"][0]["path"].endswith("sim/engine.py")
    assert report["findings"][0]["line"] == 2
