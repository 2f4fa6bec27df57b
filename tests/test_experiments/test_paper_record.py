"""The paper record, pinned: Figures 1–4 and every section at 60 jobs × 16 nodes, seed 42.

``paper_record.json`` is the output of::

    PYTHONPATH=src python -m repro figures --jobs 60 --nodes 16 --format json \\
        > tests/test_experiments/paper_record.json

(it exits 1: at this scale 4 of the 35 claims fail, and the record keeps
their verdicts).  Rerunning the sweeps must reproduce the file byte for
byte, and every renderer must print the checked-in record exactly as it
prints a fresh one.

Regenerate the file only for a change meant to move the series or the
verdicts.  The synthetic workload draws from numpy's ``Generator``,
whose streams may change between numpy feature releases (NEP 19): a
mismatch that follows a numpy upgrade alone is such a change, not a
bug, and the command above is the fix.
"""

import json
from pathlib import Path

import pytest

from repro.experiments.config import ScenarioConfig
from repro.experiments.record import FORMATS, SECTIONS, as_markdown, build_record, dumps
from repro.experiments.validation import validate_figure

GOLDEN = Path(__file__).with_name("paper_record.json")
REGENERATE = (
    "PYTHONPATH=src python -m repro figures --jobs 60 --nodes 16 --format json "
    "> tests/test_experiments/paper_record.json"
)


@pytest.fixture(scope="module")
def fresh():
    return build_record(ScenarioConfig(num_jobs=60, num_nodes=16, seed=42))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_record_regenerates_byte_for_byte(fresh):
    assert dumps(fresh) == GOLDEN.read_text(encoding="utf-8"), (
        f"the paper record moved; if that is intended, regenerate it with: {REGENERATE}"
    )


def test_markdown_of_checked_in_record_equals_fresh_run(fresh, golden):
    assert as_markdown(golden) == as_markdown(fresh), (
        f"EXPERIMENTS.md rendering moved; if that is intended, regenerate with: {REGENERATE}"
    )


@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_every_format_renders_a_loaded_record_as_the_fresh_one(fresh, fmt):
    render = FORMATS[fmt]
    assert render(json.loads(dumps(fresh))) == render(fresh)


def test_claims_are_a_function_of_the_stored_series(golden):
    for fid, fig in golden["figures"].items():
        assert validate_figure(fid, fig) == fig["claims"]


def test_all_35_claims_are_checked(golden):
    claims = [c for fig in golden["figures"].values() for c in fig["claims"]]
    assert len(claims) == 35
    assert len({c["id"] for c in claims}) == 35


def test_every_section_is_a_table_with_one_checked_claim(golden):
    assert set(golden["sections"]) == set(SECTIONS)
    ids = []
    for name, section in golden["sections"].items():
        assert section["title"] == SECTIONS[name].title
        assert section["columns"] == list(SECTIONS[name].columns)
        assert all(len(row) == len(section["columns"]) for row in section["rows"])
        (verdict,) = section["claims"]
        assert verdict["id"].startswith(f"{name}.")
        ids.append(verdict["id"])
    assert len(set(ids)) == len(SECTIONS)
