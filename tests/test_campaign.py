"""Tests for the campaign step runner: every run renders every step."""

from __future__ import annotations

import pytest

from repro.harness.campaign import Campaign


class StepFailed(Exception):
    """A campaign step that blew up (stands in for any step error)."""


class TestCampaign:
    def _steps(self, log, names=("s1", "s2", "s3"), fail_at=None):
        def make(name):
            def thunk():
                if name == fail_at:
                    raise StepFailed(f"{name} exploded")
                log.append(name)
                return name.upper()

            return thunk

        return [(name, make(name)) for name in names]

    def test_runs_all_steps_in_order(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        log = []
        campaign = Campaign(self._steps(log))
        results = campaign.run()
        assert log == ["s1", "s2", "s3"]
        assert results == {"s1": "S1", "s2": "S2", "s3": "S3"}
        assert campaign.completed == ["s1", "s2", "s3"]
        assert list(tmp_path.iterdir()) == []  # no state left behind

    def test_rerun_after_a_failure_runs_every_step(self):
        """Resume is the result cache's job: a campaign that failed part
        way through runs every step again, so its output never depends
        on how far an earlier run got."""
        log = []
        with pytest.raises(StepFailed):
            Campaign(self._steps(log, fail_at="s3")).run()
        assert log == ["s1", "s2"]
        log.clear()
        Campaign(self._steps(log)).run()
        assert log == ["s1", "s2", "s3"]
