"""In-memory span tracer that wraps the calls into each metaprice layer.

The benchmark never edits the program: a traced run replaces module
attributes (functions, and two ``Tabulated`` methods) with wrappers that
record a span per call, and restores the originals afterwards.  A name is
replaced in every ``metaprice`` module that imported the same object, so a
call is seen whichever module it is made from.  A target that no longer
exists (a later change deleted or renamed it) is skipped and its layer is
reported as absent instead of failing the run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    item: str | None
    start: float = 0.0
    end: float = 0.0
    error: str | None = None
    extra: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


# (span name, module, attribute); a dotted attribute names a class method.
# k_vcg lives in metaprice.center but is the distribution's mean quadrature,
# so it is reported under distributions.  minimize_scalar is the Brent step as
# the bidder module imported it.
TARGETS = (
    ("bidder.best_response", "metaprice.bidder", "_best_response_with_value"),
    ("bidder.shade_objective", "metaprice.bidder", "shade_objective"),
    ("bidder.brent", "metaprice.bidder", "minimize_scalar"),
    ("bidder.regret_di", "metaprice.bidder", "blinded_regret_DI"),
    ("blinding.blind", "metaprice.blinding", "blind"),
    ("blinding.posterior_table", "metaprice.blinding", "posterior_table"),
    ("center.solve", "metaprice.center", "solve_center"),
    ("center.constraint_weights", "metaprice.center", "constraint_weights"),
    ("center.greedy_fill", "metaprice.center", "_greedy_fill"),
    ("center.collected", "metaprice.center", "collected"),
    ("center.ratio_diagnostics", "metaprice.center", "ratio_diagnostics"),
    ("grid.bin_masses", "metaprice.grid", "Tabulated.bin_masses"),
    ("distributions.tabulate_pdf", "metaprice.distributions", "tabulate_pdf"),
    ("distributions.k_vcg", "metaprice.center", "k_vcg"),
    ("distributions.fit_empirical", "metaprice.distributions", "fit_empirical"),
    ("rules.calibrate", "metaprice.rules", "calibrate"),
    ("equilibrium.find_equilibrium", "metaprice.equilibrium", "find_equilibrium"),
    ("cli.write_artifacts", "metaprice.cli", "write_artifacts"),
)
# Counted, not spanned: interp passes are too many and too short for a span.
COUNTED = (("grid.tabulated_eval", "metaprice.grid", "Tabulated.__call__"),)


def _resolve(module_name: str, attr: str):
    """Return ``(owner, leaf, value)`` or ``None`` when the target is gone."""
    owner = importlib.import_module(module_name)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = getattr(owner, leaf, None)
    return None if value is None else (owner, leaf, value)


class Patcher:
    """Replaces callables in place and puts every original back on ``restore``."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, module_name: str, attr: str, make_wrapper) -> bool:
        found = _resolve(module_name, attr)
        if found is None:
            return False
        owner, leaf, original = found
        wrapper = make_wrapper(original)
        owners = [owner]
        if "." not in attr:
            owners += [m for name, m in sorted(sys.modules.items())
                       if name.startswith("metaprice") and m is not owner
                       and getattr(m, leaf, None) is original]
        for target in owners:
            self._saved.append((target, leaf, original))
            setattr(target, leaf, wrapper)
        return True

    def restore(self) -> None:
        for target, leaf, original in reversed(self._saved):
            setattr(target, leaf, original)
        self._saved.clear()


class Tracer:
    """Records spans at layer boundaries; one per wrapped call."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self.absent: list[str] = []
        self.item: str | None = None
        self._paused = False
        self._stack: list[Span] = []
        self._next_id = 0
        self._patcher = Patcher()

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(self._next_id, name, parent, self.item)
        self._next_id += 1
        self._stack.append(span)
        span.start = time.perf_counter()
        return span

    def close(self, span: Span, error: str | None = None) -> None:
        span.end = time.perf_counter()
        span.error = error
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        self.spans.append(span)

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside run untraced (the benchmark's own checks)."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def _spanning(self, name: str):
        tracer = self
        after = _AFTER.get(name)

        def make(original):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                if tracer._paused:
                    return original(*args, **kwargs)
                span = tracer.open(name)
                try:
                    result = original(*args, **kwargs)
                except BaseException as exc:
                    tracer.close(span, type(exc).__name__)
                    raise
                tracer.close(span)
                if after is not None:
                    after(span, args, result)
                return result
            return wrapper
        return make

    def _counting(self, name: str):
        tracer = self

        def make(original):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                if not tracer._paused:
                    tracer.counts[name] += 1
                return original(*args, **kwargs)
            return wrapper
        return make

    def install(self) -> None:
        self.absent = []
        for name, module, attr in TARGETS:
            if not self._patcher.replace(module, attr, self._spanning(name)):
                self.absent.append(name)
        for name, module, attr in COUNTED:
            self.counts[name] = 0
            if not self._patcher.replace(module, attr, self._counting(name)):
                self.absent.append(name)

    def uninstall(self) -> None:
        self._patcher.restore()

    def take(self) -> tuple[list[Span], dict[str, int]]:
        """Hand over the spans and counts recorded so far and start afresh."""
        spans, counts = self.spans, self.counts
        self.spans = []
        self.counts = {name: 0 for name in counts}
        return spans, counts


def _after_brent(span: Span, args, result) -> None:
    span.extra["x"] = float(result.x)
    span.extra["nfev"] = int(result.nfev)


def _after_best_response(span: Span, args, result) -> None:
    span.extra["shade"] = float(result[0])


def _after_write_artifacts(span: Span, args, result) -> None:
    outdir = Path(args[0])
    span.extra["bytes"] = sum(p.stat().st_size for p in outdir.iterdir() if p.is_file())


_AFTER = {
    "bidder.brent": _after_brent,
    "bidder.best_response": _after_best_response,
    "cli.write_artifacts": _after_write_artifacts,
}


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach, s.start), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = s.seconds - covered
    return out


def nesting_errors(spans: list[Span]) -> list[str]:
    """Spans whose parent is unknown or does not enclose them in time."""
    by_id = {s.id: s for s in spans}
    errors = []
    for s in spans:
        if s.parent is None:
            continue
        p = by_id.get(s.parent)
        if p is None:
            errors.append(f"{s.name}#{s.id}: unknown parent {s.parent}")
        elif not (p.start <= s.start <= s.end <= p.end):
            errors.append(f"{s.name}#{s.id}: outside parent {p.name}#{p.id}")
        elif p.item != s.item:
            errors.append(f"{s.name}#{s.id}: item {s.item} under {p.item}")
    return errors


def _ancestor_named(span: Span, by_id: dict[int, Span], prefix: str) -> Span | None:
    p = by_id.get(span.parent) if span.parent is not None else None
    while p is not None:
        if p.name.startswith(prefix):
            return p
        p = by_id.get(p.parent) if p.parent is not None else None
    return None


def _covered(spans: list[Span], by_id: dict[int, Span], prefix: str) -> float:
    """Seconds inside spans of a layer, not counting a layer span nested in another."""
    return sum(s.seconds for s in spans
               if s.name.startswith(prefix) and _ancestor_named(s, by_id, prefix) is None)


def layer_metrics(spans: list[Span], counts: dict[str, int], wall: float) -> dict[str, float]:
    """Per-layer figures for one traced pass whose timed items took ``wall`` seconds."""
    by_id = {s.id: s for s in spans}
    named: dict[str, list[Span]] = {}
    for s in spans:
        named.setdefault(s.name, []).append(s)

    def calls(name: str) -> float:
        return float(len(named.get(name, ())))

    def ms(name: str) -> float:
        return 1e3 * sum(s.seconds for s in named.get(name, ()))

    out: dict[str, float] = {}
    for name in ("bidder.best_response", "bidder.shade_objective", "bidder.brent",
                 "blinding.blind", "blinding.posterior_table", "center.solve",
                 "grid.bin_masses", "rules.calibrate"):
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.ms"] = ms(name)
    for name in ("bidder.regret_di", "center.constraint_weights", "center.greedy_fill",
                 "distributions.tabulate_pdf", "distributions.k_vcg",
                 "distributions.fit_empirical", "cli.write_artifacts"):
        out[f"{name}.ms"] = ms(name)

    brents = named.get("bidder.brent", ())
    out["bidder.brent.nfev"] = float(sum(s.extra.get("nfev", 0) for s in brents))
    brent_x: dict[int, set[float]] = {}
    for s in brents:
        if "x" in s.extra:
            brent_x.setdefault(s.parent, set()).add(s.extra["x"])
    useful = sum(1 for s in named.get("bidder.best_response", ())
                 if s.extra.get("shade") in brent_x.get(s.id, ()))
    out["bidder.brent.useful_ratio"] = useful / len(brents) if brents else 0.0

    out["center.infeasible.count"] = float(sum(1 for s in named.get("center.solve", ())
                                               if s.error == "InfeasibleBudgetError"))
    out["grid.tabulated_eval.calls"] = float(counts.get("grid.tabulated_eval", 0))

    equilibria = named.get("equilibrium.find_equilibrium", ())
    eq_ids = {s.id for s in equilibria}
    out["equilibrium.rounds"] = float(sum(1 for s in named.get("center.solve", ()) if s.parent in eq_ids))
    own = self_times(spans)
    out["equilibrium.self_ms"] = 1e3 * sum(own[s.id] for s in equilibria)
    eq_seconds = sum(s.seconds for s in equilibria)
    inside = [s for s in spans if _ancestor_named(s, by_id, "equilibrium.") is not None]
    for layer in ("bidder", "center"):
        share = _covered(inside, by_id, layer + ".")
        out[f"{layer}.round_frac"] = share / eq_seconds if eq_seconds > 0 else 0.0
    out["center.wall_frac"] = _covered(spans, by_id, "center.") / wall if wall > 0 else 0.0
    out["cli.artifact_bytes"] = float(sum(s.extra.get("bytes", 0) for s in named.get("cli.write_artifacts", ())))
    return out


def write_spans(spans: list[Span], path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for s in spans:
            fh.write(json.dumps({"id": s.id, "name": s.name, "parent": s.parent, "item": s.item,
                                 "start": s.start, "end": s.end, "error": s.error, **s.extra}))
            fh.write("\n")
