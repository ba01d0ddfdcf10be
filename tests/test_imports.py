"""Import smoke test: every module under ``repro`` imports, every
``jobs/table*.py`` entry point compiles and names a table module that
:func:`repro.bench_util.sweep` can drive, and every archived
``results/table*.txt`` holds its job's table without Spark log lines."""
import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parents[1]
JOBS = sorted((ROOT / "jobs").glob("table*.py"))
RESULTS = sorted((ROOT / "results").glob("table*.txt"))
MODULES = sorted(
    m.name for m in pkgutil.walk_packages(repro.__path__, prefix="repro.")
)


@pytest.mark.parametrize("name", MODULES)
def test_module_imports(name):
    importlib.import_module(name)


def test_every_table_has_a_job():
    tables = {m.rsplit(".", 1)[1] for m in MODULES if m.startswith("repro.tables.table")}
    assert tables and tables == {p.stem for p in JOBS}


@pytest.mark.parametrize("job", JOBS, ids=lambda p: p.name)
def test_job_names_a_sweepable_table(job):
    tree = ast.parse(job.read_text(), filename=str(job))
    compile(tree, str(job), "exec")
    (table,) = [
        node.args[0].value
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", None) == "main"
    ]
    mod = importlib.import_module(f"repro.tables.{table}")
    assert callable(mod.point)
    assert mod.SIZES
    for system, (full, quick) in mod.SIZES.items():
        assert isinstance(system, str) and full and quick
        assert all(isinstance(n, int) for n in full + quick)


@pytest.mark.parametrize("path", RESULTS, ids=lambda p: p.name)
def test_results_hold_no_spark_log_lines(path):
    """No Spark WARN line and no stage progress bar in an archived table."""
    bad = [
        line for line in path.read_text().splitlines()
        if " WARN " in line or "[Stage " in line
    ]
    assert not bad, bad[:3]
