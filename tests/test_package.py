"""Package surface: public exports resolve, ``rules`` stays below the solver, and the
benchmark traces and calls what the package has."""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import metaprice
from metaprice import equilibrium

PACKAGE = Path(metaprice.__file__).resolve().parent
BENCH = Path(__file__).resolve().parent.parent / "bench"
SPANS_PATH = BENCH / "spans.py"
# Targets deleted on purpose that the benchmark still lists; a traced run
# reports their layers as absent.  An entry goes when the benchmark drops it.
RETIRED_TARGETS = {("metaprice.bidder", "blinded_regret_DI"),
                   ("metaprice.bidder", "minimize_scalar"),
                   ("metaprice.blinding", "posterior_table")}


def test_every_public_name_resolves():
    missing = [name for name in metaprice.__all__ if not hasattr(metaprice, name)]
    assert not missing, f"stale names in metaprice.__all__: {missing}"
    namespace = {}
    exec("from metaprice import *", namespace)
    assert set(metaprice.__all__) <= set(namespace)


def package_imports(module: str) -> dict[str, set[str]]:
    """The package modules ``module``'s source imports, each with the names it takes from it."""
    found: dict[str, set[str]] = {}
    for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text())):
        if isinstance(node, ast.Import):
            targets = [(alias.name, set()) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["metaprice" if node.level else None, node.module]))
            targets = ([(f"{base}.{alias.name}", set()) for alias in node.names] if base == "metaprice"
                       else [(base, {alias.name for alias in node.names})])
        else:
            continue
        for name, names in targets:
            if name.startswith("metaprice."):
                found.setdefault(name.split(".")[1], set()).update(names)
    return found


def test_rules_imports_no_solver_layer():
    # the reference families sit below the solver, so the solver can calibrate
    # them; a rule is scored by equilibrium.diagnose, beside the instance
    assert set(package_imports("rules")) <= {"center", "distributions", "grid"}
    assert "rules" not in package_imports("cli")
    assert "diagnose" not in package_imports("__init__").get("rules", set())
    assert "cli" not in package_imports("__init__")
    assert metaprice.diagnose is equilibrium.diagnose


def test_benchmark_trace_targets_resolve(monkeypatch):
    # a traced benchmark run reports a layer whose target is gone as absent
    # instead of failing, so a deleted or renamed target must fail here
    # unless it is listed as retired
    spec = importlib.util.spec_from_file_location("metaprice_bench_spans", SPANS_PATH)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # its dataclasses look it up
    spec.loader.exec_module(spans)
    targets = [(module, attr) for _, module, attr in spans.TARGETS + spans.COUNTED]
    assert targets
    stale = sorted(RETIRED_TARGETS - set(targets))
    assert not stale, f"retired targets the benchmark no longer lists: {stale}"
    missing, revived = [], []
    for module_name, attr in targets:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if (module_name, attr) in RETIRED_TARGETS:
            if callable(owner):
                revived.append(f"{module_name}.{attr}")
        elif not callable(owner):
            missing.append(f"{module_name}.{attr}")
    assert not missing, f"benchmark trace targets no longer resolve: {missing}"
    assert not revived, f"retired benchmark trace targets resolve again: {revived}"


def test_cli_import_leaves_out_scipy_optimize():
    # the bidder's Brent step lives in the package, so start-up does not pay
    # for scipy.optimize; ndtr is imported where a normal cdf is computed, so
    # it does not pay for scipy.special either
    src = str(Path(metaprice.__file__).resolve().parents[1])
    code = "import sys, metaprice.cli; print([m in sys.modules for m in ('scipy.optimize', 'scipy.special')])"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[False, False]"


def test_benchmark_smoke_and_oracle_tests_pass():
    # the benchmark's own smoke tests run each workload for one pass on a
    # 10-bin grid through the package's API; they write under .bench_out/
    proc = subprocess.run([sys.executable, str(BENCH / "selftest.py"), "SmokeTest", "OracleTest"],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-4000:]
