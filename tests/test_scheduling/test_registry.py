"""Tests for the policy registry."""

import pytest

from repro.scheduling.base import SchedulingPolicy
from repro.scheduling.registry import (
    available_policies,
    make_policy,
    policy_discipline,
    register_policy,
)


class TestRegistry:
    def test_paper_policies_present(self):
        # The paper's three plus the FCFS baseline, and nothing else.
        assert available_policies() == ["edf", "fcfs", "libra", "librarisk"]

    def test_make_policy_builds_named_policy(self):
        assert make_policy("edf").name == "edf"
        assert make_policy("librarisk").name == "librarisk"

    def test_kwargs_forwarded(self):
        policy = make_policy("librarisk", node_order="index")
        assert policy.node_order == "index"

    def test_unknown_name_lists_available(self):
        with pytest.raises(ValueError, match="available:"):
            make_policy("quantum-annealer")

    def test_disciplines(self):
        assert policy_discipline("edf") == "space_shared"
        assert policy_discipline("fcfs") == "space_shared"
        assert policy_discipline("libra") == "time_shared"
        assert policy_discipline("librarisk") == "time_shared"

    def test_discipline_unknown_name(self):
        with pytest.raises(ValueError):
            policy_discipline("nope")


class TestRegisterPolicy:
    def test_custom_policy_registration(self):
        class Custom(SchedulingPolicy):
            name = "custom-test-policy"
            discipline = "time_shared"

            def on_job_submitted(self, job, now):  # pragma: no cover
                pass

        register_policy(Custom)
        try:
            assert "custom-test-policy" in available_policies()
            assert isinstance(make_policy("custom-test-policy"), Custom)
        finally:
            # Clean up the global registry for other tests.
            from repro.scheduling import registry

            registry._REGISTRY.pop("custom-test-policy")

    def test_duplicate_name_rejected(self):
        class Dup(SchedulingPolicy):
            name = "edf"

            def on_job_submitted(self, job, now):  # pragma: no cover
                pass

        with pytest.raises(ValueError, match="already registered"):
            register_policy(Dup)

    def test_nameless_factory_rejected(self):
        class NoName(SchedulingPolicy):
            name = ""

            def on_job_submitted(self, job, now):  # pragma: no cover
                pass

        with pytest.raises(ValueError, match="name"):
            register_policy(NoName)
