"""Tests for the EXPERIMENTS.md renderer of the paper record."""


from repro.experiments.record import as_markdown
from tests.test_experiments.test_validation import paper_like_record


class TestFigureSection:
    def test_contains_claims_table_and_panels(self):
        text = as_markdown(paper_like_record("3"))
        assert "## Figure 3" in text
        assert "| Claim | Paper source | Holds? |" in text
        assert "### Panel (a)" in text
        assert "### Panel (d)" in text
        assert "claims hold." in text

    def test_passing_claims_marked(self):
        text = as_markdown(paper_like_record("3"))
        assert "✅" in text


class TestExperimentsMarkdown:
    def test_full_document(self):
        text = as_markdown(paper_like_record("3"))
        assert text.startswith("# EXPERIMENTS")
        assert "Workload statistics" in text
        assert "| mean_runtime_h | 2.700 |" in text
        assert "## Figure 3" in text
        assert "3000 jobs on 128 nodes" in text
