"""Documentation consistency guards: the files the docs promise exist, and
the deliverable inventory stays complete."""

import re
import textwrap
from pathlib import Path

import repro

ROOT = Path(__file__).parent.parent


def test_top_level_documents_exist():
    for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md", "LICENSE",
                 "CITATION.cff", "Makefile", "pyproject.toml"):
        assert (ROOT / name).exists(), name


def test_docs_directory_complete():
    for name in ("architecture.md", "modelling.md", "calibration.md", "api.md"):
        assert (ROOT / "docs" / name).exists(), name


def test_readme_examples_table_matches_files():
    readme = (ROOT / "README.md").read_text()
    listed = set(re.findall(r"`([a-z_]+\.py)`", readme))
    on_disk = {p.name for p in (ROOT / "examples").glob("*.py")}
    # Every example on disk is advertised, and vice versa.
    missing_in_readme = on_disk - listed
    assert not missing_in_readme, missing_in_readme
    phantom = {name for name in listed if name.endswith(".py")} - on_disk - {
        "quickstart.py"} | ({"quickstart.py"} - on_disk)
    # (quickstart must exist too)
    assert (ROOT / "examples" / "quickstart.py").exists()


def test_design_experiment_index_covers_benchmarks():
    design = (ROOT / "DESIGN.md").read_text()
    bench_files = {p.name for p in (ROOT / "benchmarks").glob("test_bench_*.py")}
    for name in bench_files:
        assert name in design, f"{name} missing from DESIGN.md experiment index"


def test_benchmarks_exist_for_every_paper_artifact():
    benches = {p.name for p in (ROOT / "benchmarks").glob("test_bench_*.py")}
    required = {
        "test_bench_fig1_preemption.py",
        "test_bench_fig2_distribution.py",
        "test_bench_fig3_correlation.py",
        "test_bench_fig4_rt.py",
        "test_bench_table1.py",
        "test_bench_table2.py",
    }
    assert required <= benches


def test_experiments_md_has_every_table_row():
    text = (ROOT / "EXPERIMENTS.md").read_text()
    for bench in ("cg", "ep", "ft", "is", "lu", "mg"):
        for klass in ("A", "B"):
            assert f"{bench}.{klass}.8" in text


def test_paper_headline_quoted_consistently():
    """The paper's headline numbers appear in the docs verbatim."""
    design = (ROOT / "DESIGN.md").read_text()
    assert "2.11%" in design
    readme = (ROOT / "README.md").read_text()
    assert "2.11%" in readme


def test_package_quickstart_runs(capsys):
    """The Quickstart block of the package docstring runs as written."""
    block = textwrap.dedent(repro.__doc__.split("Quickstart::", 1)[1])
    exec(compile(block, "repro.__doc__", "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 2
