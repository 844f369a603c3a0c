"""Integration tests for the job-queue demo application."""

import pytest

from repro.apps import JobQueueConfig, run_job_queue


class TestCorrectPipeline:
    @pytest.fixture(scope="class")
    def result(self):
        return run_job_queue(JobQueueConfig(seed=2), golf=True)

    def test_every_job_completes(self, result):
        assert result.completed == 120
        assert result.err is None

    def test_retries_happen(self, result):
        # With a 20% failure rate, attempts must exceed the job count.
        assert result.attempts > 120

    def test_no_leaks(self, result):
        assert result.deadlock_reports == 0
        assert result.lingering == 0

    def test_failures_bounded_by_attempts(self, result):
        # Permanent failure needs max_attempts consecutive losses
        # (p=0.2^3): rare but possible.
        assert result.failed_permanently <= 5


class TestLeakyPipeline:
    @pytest.fixture(scope="class")
    def golf_result(self):
        return run_job_queue(
            JobQueueConfig(leak_retry_results=True, seed=2), golf=True)

    @pytest.fixture(scope="class")
    def baseline_result(self):
        return run_job_queue(
            JobQueueConfig(leak_retry_results=True, seed=2), golf=False)

    def test_all_jobs_still_complete(self, golf_result):
        assert golf_result.completed == 120

    def test_defect_also_hurts_functionality(self, golf_result):
        """Lost verdicts mean more permanent failures than the correct
        pipeline — leaks and correctness bugs travel together."""
        correct = run_job_queue(JobQueueConfig(seed=2), golf=True)
        assert (golf_result.failed_permanently
                > correct.failed_permanently)

    def test_golf_detects_and_triages(self, golf_result):
        assert golf_result.deadlock_reports > 20
        assert golf_result.dedup_sites == ["jobqueue-retry"]
        assert golf_result.lingering == 0

    def test_baseline_accumulates(self, baseline_result):
        assert baseline_result.deadlock_reports == 0
        assert baseline_result.lingering > 20

    def test_leak_count_matches_orphaned_retries(self, golf_result,
                                                 baseline_result):
        # Same seed: the number of orphaned retry goroutines is the same;
        # GOLF reports exactly what the baseline leaves lingering.
        assert golf_result.deadlock_reports == baseline_result.lingering
