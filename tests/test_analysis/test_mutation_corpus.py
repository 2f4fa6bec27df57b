"""Every `repro lint` rule earns its place against the mutation corpus.

The corpus (``mutants.py``) plants one bug per entry in a copy of
``src/repro``; each mutated tree gets the full one pass — every file,
the call graph, every rule.  Asserted:

* the unmutated copy is clean;
* every mutant is flagged, by the rule the corpus expects and no other;
* every rule in the catalog is the only rule that flags at least one
  mutant, so no rule is redundant with the rest of the catalog.
"""

from __future__ import annotations

import ast
import functools
import shutil
from pathlib import Path

import pytest

from repro.analysis.lint.engine import run_lint
from repro.analysis.lint.rules import ALL_RULES
from tests.test_analysis.mutants import MUTANTS, REPORTED_BY

SRC_REPRO = Path(__file__).resolve().parents[2] / "src" / "repro"

IDS = [f"{rule}-{path}-{i}" for i, (rule, path, _, _) in enumerate(MUTANTS)]


def _rules(tree: Path) -> set[str]:
    result = run_lint([str(tree)])
    assert result.errors == [], result.errors
    return {finding.rule for finding in result.findings}


@pytest.fixture(scope="module")
def flagged(tmp_path_factory) -> dict[str, set[str]]:
    """Head's rules under ``"head"``, then each mutant's, by test id."""
    tree = tmp_path_factory.mktemp("corpus") / "repro"
    shutil.copytree(SRC_REPRO, tree, ignore=shutil.ignore_patterns("__pycache__"))
    # Unchanged files reuse their parse between passes (the analyzer
    # never mutates a tree); everything after parsing runs in full.
    parse = functools.lru_cache(maxsize=None)(ast.parse)
    out: dict[str, set[str]] = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ast, "parse", parse)
        out["head"] = _rules(tree)
        for test_id, (_, path, old, new) in zip(IDS, MUTANTS):
            target = tree / path
            original = target.read_text()
            assert original.count(old) == 1, f"{test_id}: anchor must occur once"
            target.write_text(original.replace(old, new))
            try:
                out[test_id] = _rules(tree)
            finally:
                target.write_text(original)
    return out


def test_head_is_clean(flagged):
    assert flagged["head"] == set()


@pytest.mark.parametrize("test_id,rule", [
    (test_id, REPORTED_BY.get(rule, rule))
    for test_id, (rule, _, _, _) in zip(IDS, MUTANTS)
], ids=IDS)
def test_mutant_is_flagged_by_its_rule_alone(flagged, test_id, rule):
    assert flagged[test_id] == {rule}


def test_every_catalog_rule_alone_flags_some_mutant(flagged):
    sole = {next(iter(rules)) for key, rules in flagged.items()
            if key != "head" and len(rules) == 1}
    assert sorted(rule.id for rule in ALL_RULES if rule.id not in sole) == []
