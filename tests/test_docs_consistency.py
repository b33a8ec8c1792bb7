"""Static checks keeping the documentation honest.

DESIGN.md's module inventory and README's architecture sketch must point at
files that exist.  Cheap tripwires against documentation rot.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_design_md_module_paths_exist():
    text = (ROOT / "DESIGN.md").read_text()
    # extract repro/... .py paths from the inventory tables
    for match in re.finditer(r"`repro/([\w/]+)\{([^}]*)\}\.py`", text):
        package, names = match.groups()
        for name in names.split(","):
            path = ROOT / "src" / "repro" / package / f"{name.strip()}.py"
            assert path.exists(), f"DESIGN.md references missing {path}"
    for match in re.finditer(r"`repro/([\w/]+)\.py`", text):
        path = ROOT / "src" / "repro" / f"{match.group(1)}.py"
        assert path.exists(), f"DESIGN.md references missing {path}"


def test_readme_examples_exist():
    text = (ROOT / "README.md").read_text()
    for match in re.finditer(r"examples/([\w]+\.py)", text):
        path = ROOT / "examples" / match.group(1)
        assert path.exists(), f"README references missing {path}"


def test_readme_knob_table_lists_every_repro_variable():
    """README's knob table is the complete list of the ``REPRO_*``
    environment variables the program reads: a quoted ``"REPRO_..."``
    literal under ``src/`` has a row, and every row names one."""
    read = set()
    for path in (ROOT / "src").rglob("*.py"):
        read.update(re.findall(r"[\"'](REPRO_[A-Z0-9_]+)[\"']", path.read_text()))
    readme = (ROOT / "README.md").read_text()
    table = set(re.findall(r"^\| `(REPRO_[A-Z0-9_]+)` \|", readme, re.M))
    assert table == read, (
        f"missing rows: {sorted(read - table)}; "
        f"rows nothing reads: {sorted(table - read)}"
    )


def test_readme_mentions_all_deliverables():
    text = (ROOT / "README.md").read_text()
    for required in ("DESIGN.md", "EXPERIMENTS.md", "pytest tests/", "benchmarks"):
        assert required in text


def test_paper_identity_stated():
    """DESIGN.md must state the paper-identity check the task demands."""
    text = (ROOT / "DESIGN.md").read_text()
    assert "ISCA 2017" in text
    assert "DICE" in text
    assert "Qureshi" in text


def test_all_examples_have_docstrings_and_main():
    for path in (ROOT / "examples").glob("*.py"):
        text = path.read_text()
        assert text.lstrip().startswith(("#!", '"""')), path.name
        assert "__main__" in text, f"{path.name} not runnable"


def test_design_md_failure_taxonomy_matches_code():
    """DESIGN.md Section 13 renders the taxonomy table verbatim from
    ``repro.resilience.taxonomy`` — prose and code must not drift."""
    from repro.resilience.taxonomy import describe_taxonomy

    text = (ROOT / "DESIGN.md").read_text()
    assert describe_taxonomy() in text, (
        "DESIGN.md's failure-taxonomy table is out of sync with "
        "FAILURE_TAXONOMY; re-render it with describe_taxonomy()"
    )


def test_readme_chaos_quickstart():
    """The README documents the chaos harness entry points."""
    text = (ROOT / "README.md").read_text()
    for required in ("cli chaos", "--chaos-seed", "REPRO_CHAOS", "make chaos"):
        assert required in text, f"README chaos quick-start missing {required}"


def test_ci_runs_the_chaos_smoke():
    """CI must run the self-verifying chaos campaign with a fixed seed
    and archive the failure-event trace."""
    text = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    assert "chaos-smoke" in text
    assert "--chaos-seed" in text
    assert ".exec.jsonl" in text
