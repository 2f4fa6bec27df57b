"""Tests for the synthetic SDSC-SP2-like workload generator."""

import numpy as np
import pytest

from repro.sim.rng import RngStreams
from repro.workload.synthetic import SDSCSP2Model, generate_sdsc_like_records
from repro.workload.traces import describe_records, usable_records


@pytest.fixture(scope="module")
def records():
    return generate_sdsc_like_records(SDSCSP2Model(), RngStreams(seed=42))


class TestDeterminism:
    def test_same_seed_same_trace(self):
        a = generate_sdsc_like_records(SDSCSP2Model(num_jobs=100), RngStreams(seed=7))
        b = generate_sdsc_like_records(SDSCSP2Model(num_jobs=100), RngStreams(seed=7))
        assert a == b

    def test_different_seed_different_trace(self):
        a = generate_sdsc_like_records(SDSCSP2Model(num_jobs=100), RngStreams(seed=7))
        b = generate_sdsc_like_records(SDSCSP2Model(num_jobs=100), RngStreams(seed=8))
        assert a != b


class TestCalibration:
    """The generator must land near the paper's §4 subset statistics."""

    def test_job_count(self, records):
        assert len(records) == 3000

    def test_first_arrival_at_zero(self, records):
        assert records.submit_time[0] == 0.0

    def test_submit_times_nondecreasing(self, records):
        times = records.submit_time.tolist()
        assert all(b >= a for a, b in zip(times, times[1:]))

    def test_mean_interarrival_near_target(self, records):
        stats = describe_records(records)
        # Paper: 2131 s; allow sampling slack.
        assert stats["mean_interarrival_s"] == pytest.approx(2131.0, rel=0.20)

    def test_mean_runtime_near_target(self, records):
        stats = describe_records(records)
        # Paper: about 2.7 hours.
        assert 1.5 <= stats["mean_runtime_h"] <= 4.0

    def test_mean_procs_near_target(self, records):
        stats = describe_records(records)
        # Paper: about 17 processors on average.
        assert 10.0 <= stats["mean_procs"] <= 25.0

    def test_procs_within_machine(self, records):
        assert all(1 <= p <= 128 for p in records.procs.tolist())

    def test_runtimes_clamped(self, records):
        model = SDSCSP2Model()
        assert all(model.min_runtime <= r <= model.max_runtime for r in records.run_time.tolist())

    def test_interarrivals_bursty(self, records):
        times = records.submit_time
        gaps = np.diff(times)
        cv = gaps.std() / gaps.mean()
        assert cv > 1.0  # burstier than Poisson

    def test_estimates_mostly_overestimated(self, records):
        stats = describe_records(records)
        assert stats["estimate_frac_overestimated"] > 0.6
        assert stats["estimate_mean_factor"] > 2.0

    def test_some_overrunners_exist(self, records):
        stats = describe_records(records)
        assert 0.03 <= stats["estimate_frac_underestimated"] <= 0.25

    def test_all_records_usable(self, records):
        assert len(usable_records(records)) == len(records)


class TestValidation:
    def test_bad_num_jobs(self):
        with pytest.raises(ValueError):
            SDSCSP2Model(num_jobs=0)

    def test_bad_means(self):
        with pytest.raises(ValueError):
            SDSCSP2Model(mean_interarrival=0.0)
        with pytest.raises(ValueError):
            SDSCSP2Model(mean_runtime=-1.0)

    def test_mismatched_proc_table(self):
        with pytest.raises(ValueError):
            SDSCSP2Model(proc_choices=(1, 2), proc_weights=(1.0,))

    def test_proc_choice_beyond_machine(self):
        with pytest.raises(ValueError):
            SDSCSP2Model(max_procs=64, proc_choices=(1, 128), proc_weights=(0.5, 0.5))

    def test_bad_odd_fraction(self):
        with pytest.raises(ValueError):
            SDSCSP2Model(odd_proc_fraction=1.0)
