"""Tests for the crash-safe campaign layer: checkpoint and resume."""

from __future__ import annotations

import json

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

    def test_runs_all_steps_in_order(self, tmp_path):
        log = []
        campaign = Campaign(
            self._steps(log), checkpoint_path=tmp_path / "ckpt.json"
        )
        results = campaign.run()
        assert log == ["s1", "s2", "s3"]
        assert results == {"s1": "S1", "s2": "S2", "s3": "S3"}
        assert not (tmp_path / "ckpt.json").exists()  # cleaned up when done

    def test_killed_campaign_resumes_from_checkpoint(self, tmp_path):
        ckpt = tmp_path / "ckpt.json"
        log = []
        first = Campaign(
            self._steps(log, fail_at="s3"), checkpoint_path=ckpt
        )
        with pytest.raises(StepFailed):
            first.run()
        assert log == ["s1", "s2"]
        assert ckpt.exists()  # progress survived the crash

        second = Campaign(self._steps(log), checkpoint_path=ckpt)
        second.run()
        assert log == ["s1", "s2", "s3"]  # s1/s2 NOT re-run
        assert second.skipped == ["s1", "s2"]
        assert not ckpt.exists()

    def test_no_resume_reruns_everything(self, tmp_path):
        ckpt = tmp_path / "ckpt.json"
        log = []
        with pytest.raises(StepFailed):
            Campaign(self._steps(log, fail_at="s3"), checkpoint_path=ckpt).run()
        log.clear()
        Campaign(self._steps(log), checkpoint_path=ckpt, resume=False).run()
        assert log == ["s1", "s2", "s3"]

    def test_corrupt_checkpoint_starts_fresh(self, tmp_path):
        ckpt = tmp_path / "ckpt.json"
        ckpt.write_text("{ not json")
        log = []
        Campaign(self._steps(log), checkpoint_path=ckpt).run()
        assert log == ["s1", "s2", "s3"]
        # the bad file was quarantined, not overwritten silently
        assert (tmp_path / "ckpt.corrupt.json").exists()

    def test_context_mismatch_ignores_checkpoint(self, tmp_path):
        ckpt = tmp_path / "ckpt.json"
        log = []
        with pytest.raises(StepFailed):
            Campaign(
                self._steps(log, fail_at="s3"),
                checkpoint_path=ckpt,
                context="accesses=6000",
            ).run()
        log.clear()
        # Same steps at different parameters: completed list must not apply.
        Campaign(
            self._steps(log), checkpoint_path=ckpt, context="accesses=9000"
        ).run()
        assert log == ["s1", "s2", "s3"]

    def test_checkpoint_file_is_valid_json(self, tmp_path):
        ckpt = tmp_path / "ckpt.json"
        log = []
        with pytest.raises(StepFailed):
            Campaign(self._steps(log, fail_at="s2"), checkpoint_path=ckpt).run()
        data = json.loads(ckpt.read_text())
        assert data["completed"] == ["s1"]
