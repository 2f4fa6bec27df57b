"""Tests for saving experiment results: the paper record as JSON."""

import json

from repro.experiments.config import ScenarioConfig
from repro.experiments.record import FORMATS, as_markdown, dumps
from repro.experiments.validation import validate_figure
from tests.test_experiments.test_paper_record import GOLDEN
from tests.test_experiments.test_validation import paper_like_record


class TestConfigRoundTrip:
    def test_round_trip_preserves_all_fields(self):
        saved = json.loads(GOLDEN.read_text(encoding="utf-8"))
        assert ScenarioConfig(**saved["base"]) == ScenarioConfig(num_jobs=60, num_nodes=16)

    def test_dict_is_json_safe(self):
        def refuse(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        record = paper_like_record("1", "2", "3", "4")
        assert json.loads(dumps(record), parse_constant=refuse) == record


class TestFigureRoundTrip:
    def test_dict_round_trip(self):
        record = paper_like_record("3")
        back = json.loads(dumps(record))
        assert back["figures"]["3"]["panels"] == record["figures"]["3"]["panels"]
        assert dumps(back) == dumps(record)

    def test_file_round_trip(self, tmp_path):
        record = paper_like_record("2")
        path = tmp_path / "record.json"
        path.write_text(dumps(record), encoding="utf-8")
        back = json.loads(path.read_text(encoding="utf-8"))
        for render in FORMATS.values():
            assert render(back) == render(record)

    def test_save_and_load_figure_set(self, tmp_path):
        path = tmp_path / "record.json"
        path.write_text(dumps(paper_like_record("3", "2")), encoding="utf-8")
        back = json.loads(path.read_text(encoding="utf-8"))
        assert set(back["figures"]) == {"2", "3"}
        text = as_markdown(back)
        assert text.index("## Figure 2") < text.index("## Figure 3")

    def test_validation_runs_on_deserialized_figure(self):
        fig = json.loads(dumps(paper_like_record("3")))["figures"]["3"]
        assert all(c["passed"] for c in validate_figure("3", fig))
