"""Package surface: public exports and the benchmark's tracing targets resolve."""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import metaprice

SPANS_PATH = Path(__file__).resolve().parent.parent / "bench" / "spans.py"
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
    # for scipy.optimize
    src = str(Path(metaprice.__file__).resolve().parents[1])
    code = "import sys, metaprice.cli; print('scipy.optimize' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
