"""Span recording around the calls one proxichain module makes into another.

The wrappers rebind the attribute that the *caller* looks up at call time.
A ``from .ledger import sign`` in ``proxichain.ledger`` binds a private copy
of the name, so the wrapped attribute is ``proxichain.ledger.sign`` and not
``proxichain.identity.sign``. Nothing under ``src/`` is edited: the wrappers
exist only inside a traced benchmark process and are removed afterwards.

A span records its name, start, end, the span that was open when it began
(its parent) and the run id. Spans stay in memory until the run ends. A
span's self time is its duration minus the part of its interval that its
child spans cover; with properly nested spans the self times of all spans
sum to the root span's duration, which :func:`span_stats` reports.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter
from typing import Any, Callable, Optional

MARK = "__perfbench_span__"

LAYERS = ("identity", "ledger", "consensus", "credit", "simulation", "aoa", "experiments", "cli")


def _level_name(args, kwargs) -> str:
    level = kwargs.get("level", args[2] if len(args) > 2 else None)
    return getattr(level, "name", "?")


def _mine_attrs(args, kwargs, result) -> dict:
    return {"trials": result.trials, "level": _level_name(args, kwargs)}


def _bytes_attrs(args, kwargs, result) -> dict:
    return {"bytes": len(result)}


def _validate_attrs(args, kwargs, result) -> dict:
    return {"rejected": int(not result.accepted)}


def _verify_chain_attrs(args, kwargs, result) -> dict:
    return {"violations": len(result)}


def _exit_attrs(args, kwargs, result) -> dict:
    return {"exit_code": int(result)}


# (module, attribute the caller looks up, span name, attrs from the result).
# Several callers of one function share a span name.
SPAN_TARGETS: tuple[tuple[str, str, str, Optional[Callable]], ...] = (
    ("proxichain.simulation", "generate_identity", "identity.keygen", None),
    ("proxichain.experiments", "generate_identity", "identity.keygen", None),
    ("proxichain.ledger", "sign", "identity.sign", None),
    ("proxichain.ledger", "verify", "identity.verify", None),
    ("proxichain.consensus", "whash_preimage_prefix", "ledger.whash_prefix", _bytes_attrs),
    ("proxichain.ledger", "encode_block_full", "ledger.encode_block", None),
    ("proxichain.consensus", "encode_block_full", "ledger.encode_block", None),
    ("proxichain.simulation", "append_block", "ledger.append_block", None),
    ("proxichain.experiments", "save_chain", "ledger.save_chain", None),
    ("proxichain.cli", "load_chain", "ledger.load_chain", None),
    ("proxichain.simulation", "mine", "consensus.mine", _mine_attrs),
    ("proxichain.experiments", "mine", "consensus.mine", _mine_attrs),
    # append_block imports validate_block and difficulty_for inside its body,
    # so it reads the consensus module attributes on every call.
    ("proxichain.consensus", "validate_block", "consensus.validate_block", _validate_attrs),
    ("proxichain.cli", "verify_chain", "consensus.verify_chain", _verify_chain_attrs),
    ("proxichain.simulation", "negative_credit", "credit.negative_credit", None),
    ("proxichain.simulation", "difficulty_for", "credit.difficulty_for", None),
    ("proxichain.consensus", "difficulty_for", "credit.difficulty_for", None),
    ("proxichain.experiments", "build_world", "simulation.build_world", None),
    ("proxichain.experiments", "run_epoch", "simulation.run_epoch", None),
    ("proxichain.simulation", "run_outbreak", "simulation.run_outbreak", None),
    ("proxichain.simulation", "step_mobility", "simulation.step_mobility", None),
    ("proxichain.cli", "run_ct_experiment", "experiments.run_ct_experiment", None),
    ("proxichain.experiments", "run_mining_benchmark", "experiments.run_mining_benchmark", None),
    ("proxichain.experiments", "run_localization_eval", "experiments.run_localization_eval", None),
    ("proxichain.aoa", "synthesize_snapshot", "aoa.synthesize_snapshot", None),
    ("proxichain.aoa", "music_spectrum", "aoa.music_spectrum", None),
    ("proxichain.aoa", "snapshot_covariance", "aoa.snapshot_covariance", None),
    ("proxichain.aoa", "estimate_position", "aoa.estimate_position", None),
    ("proxichain.cli", "main", "cli.main", _exit_attrs),
)

# Called ~30 times per transaction; a span each would dominate the traced
# run, so these calls are only counted.
COUNT_TARGETS: tuple[tuple[str, str, str], ...] = (
    ("proxichain.ledger", "encode_transaction", "ledger.encode_transaction"),
    ("proxichain.simulation", "encode_transaction", "ledger.encode_transaction"),
)


def installed_wrappers() -> list[str]:
    """Targets currently bound to a benchmark wrapper (empty when untraced)."""
    found = []
    for module, attr, *_ in SPAN_TARGETS + COUNT_TARGETS:
        if hasattr(getattr(importlib.import_module(module), attr), MARK):
            found.append(f"{module}.{attr}")
    return found


class Tracer:
    """In-memory span log for one traced call of one workload."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        # Each span: [name, parent index or -1, start, end, attrs or None].
        self.spans: list[list[Any]] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, time.perf_counter(), 0.0, None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][3] = time.perf_counter()
        self._stack.pop()

    def _span_wrapper(self, fn: Callable, name: str, attrs: Optional[Callable]) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.spans[index][4] = {"error": type(exc).__name__}
                raise
            finally:
                tracer.close(index)
            if attrs is not None:
                tracer.spans[index][4] = attrs(args, kwargs, result)
            return result

        setattr(wrapper, MARK, name)
        return wrapper

    def _count_wrapper(self, fn: Callable, name: str) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        setattr(wrapper, MARK, name)
        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module_name, attr, name, attrs in SPAN_TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._span_wrapper(original, name, attrs))
        for module_name, attr, name in COUNT_TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._count_wrapper(original, name))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for i, (name, parent, start, end, attrs) in enumerate(self.spans):
                record = {"run": self.run_id, "id": i, "parent": parent, "name": name,
                          "start": start, "end": end}
                if attrs:
                    record["attrs"] = attrs
                fh.write(json.dumps(record, sort_keys=True))
                fh.write("\n")
            fh.write(json.dumps({"run": self.run_id, "counts": dict(self.counts)}, sort_keys=True))
            fh.write("\n")


def _self_times(spans: list[list[Any]]) -> list[float]:
    covered = [0.0] * len(spans)
    for name, parent, start, end, _ in spans:
        if parent >= 0:
            p_start, p_end = spans[parent][2], spans[parent][3]
            covered[parent] += max(0.0, min(end, p_end) - max(start, p_start))
    return [s[3] - s[2] - c for s, c in zip(spans, covered)]


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


# Span names whose calls, inclusive and self seconds are reported.
NAMED = tuple(dict.fromkeys(name for _, _, name, _ in SPAN_TARGETS))


def span_stats(tracer: Tracer) -> dict[str, float]:
    """calls / s / self_s per span name and per layer, plus span attributes.

    A layer's inclusive seconds count only spans with no enclosing span of
    the same layer, so nested calls (``whash_prefix`` around
    ``encode_block``) are not counted twice.
    """
    spans = tracer.spans
    selfs = _self_times(spans)
    out: dict[str, float] = {}
    for name in NAMED:
        out[f"{name}.calls"] = 0
        out[f"{name}.s"] = 0.0
        out[f"{name}.self_s"] = 0.0
    for layer in LAYERS:
        out[f"{layer}.calls"] = 0
        out[f"{layer}.s"] = 0.0
        out[f"{layer}.self_s"] = 0.0
    extra = Counter()
    for i, (name, parent, start, end, attrs) in enumerate(spans):
        layer = _layer(name)
        if name in NAMED:
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += end - start
            out[f"{name}.self_s"] += selfs[i]
        if layer in LAYERS:
            out[f"{layer}.calls"] += 1
            out[f"{layer}.self_s"] += selfs[i]
            p = parent
            while p >= 0 and _layer(spans[p][0]) != layer:
                p = spans[p][1]
            if p < 0:
                out[f"{layer}.s"] += end - start
        for key, value in (attrs or {}).items():
            if key == "level":
                continue
            if key == "error":
                extra[f"{name}.errors"] += 1
            elif key == "trials":
                extra["consensus.mine.trials"] += value
                extra[f"consensus.mine.trials.{attrs['level']}"] += value
            elif key == "exit_code":
                extra[f"{name}.exit_code"] = value
            else:
                extra[f"{name}.{key}"] += value
    out.update(extra)
    root = [i for i, s in enumerate(spans) if s[1] < 0]
    out["trace.spans"] = len(spans)
    out["trace.root_s"] = sum(spans[i][3] - spans[i][2] for i in root)
    out["trace.self_sum_error_s"] = abs(sum(selfs) - out["trace.root_s"])
    for name, count in tracer.counts.items():
        out[f"{name}.calls"] = count
    return out
