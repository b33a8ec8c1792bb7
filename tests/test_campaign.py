"""Tests for the campaign path (`cli all`): every run renders every table."""

from __future__ import annotations

import pytest

from repro.harness import cli


class StepFailed(Exception):
    """A table render that blew up (stands in for any experiment error)."""


class TestCampaign:
    def test_rerun_after_a_failure_runs_every_step(self, monkeypatch):
        """Resume is the result cache's job: a campaign that failed part
        way through renders every experiment again, so its output never
        depends on how far an earlier run got."""
        rendered = []
        fail_at = ["fig1"]

        def render(key, params):
            if key in fail_at:
                raise StepFailed(f"{key} exploded")
            rendered.append(key)

        monkeypatch.setattr(cli, "_prefetch", lambda *a, **kw: cli.EXIT_OK)
        monkeypatch.setattr(cli, "run_one", render)
        with pytest.raises(StepFailed):
            cli.main(["all", "--experiments", "fig13,fig4,fig1"])
        assert rendered == ["fig13", "fig4"]
        rendered.clear()
        fail_at.clear()
        assert cli.main(["all", "--experiments", "fig13,fig4,fig1"]) == 0
        assert rendered == ["fig13", "fig4", "fig1"]
