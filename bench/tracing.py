"""In-memory span tracer and the table of equimax functions it wraps.

Spans are recorded from the benchmark's own files: each wrapper replaces a
function in the module namespace where its callers look it up (``optimizer``
and ``oracle`` import loss helpers and ``maximize`` under their own names,
``toyuda`` imports ``gradient`` and ``loss_value``), so patching only
``losses.*`` would miss those calls.  Nothing in the program changes.

A span's self time is its duration minus the durations of its direct
children, so the self times of all spans plus the time spent outside any
span add up to the traced wall time.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict


class Tracer:
    """Spans [name, start, end, parent, op] kept in memory, plus counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.op = -1
        self._open: list[list] = []  # [span index, child seconds]

    def current(self) -> str | None:
        return self.spans[self._open[-1][0]][0] if self._open else None

    def enter(self, name: str) -> None:
        parent = self._open[-1][0] if self._open else -1
        self.counts[name + ".calls"] += 1
        self._open.append([len(self.spans), 0.0])
        self.spans.append([name, time.perf_counter(), None, parent, self.op])

    def exit(self, failed: bool) -> None:
        end = time.perf_counter()
        idx, child = self._open.pop()
        span = self.spans[idx]
        span[2] = end
        duration = end - span[1]
        self.self_s[span[0]] += duration - child
        if self._open:
            self._open[-1][1] += duration
        parent = self.spans[span[3]][0] if span[3] >= 0 else None
        if failed and (parent is None or _layer(parent) != _layer(span[0])):
            self.counts[_layer(span[0]) + ".errors"] += 1

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def _loss_name(kind: str, r: float) -> str:
    if kind == "nsm":
        return "nsm_r1" if r == 1.0 else "nsm_rfrac"
    return kind


class Instrumentation:
    """Replaces equimax functions with span-recording wrappers; ``restore`` undoes it."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved: list[tuple] = []

    def wrap(self, module, attr, name, on_result=None, materialize=False):
        """Wrap ``module.attr``; ``name`` is a span name or a function of the call's arguments.

        ``name=None`` counts without a span.  A call made while a span of the
        same name is open (``toyuda.gradient`` reaching ``losses.gradient``)
        runs unrecorded, so calls are counted once.  ``materialize`` consumes
        a returned generator inside the span.
        """
        original = getattr(module, attr)
        tracer = self.tracer

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = name(*args, **kwargs) if callable(name) else name
            if span is None or tracer.current() == span:
                result = original(*args, **kwargs)
            else:
                tracer.enter(span)
                failed = True
                try:
                    result = original(*args, **kwargs)
                    if materialize:
                        result = list(result)
                    failed = False
                finally:
                    tracer.exit(failed)
            if on_result is not None:
                on_result(tracer.counts, result, *args, **kwargs)
            return result

        setattr(module, attr, wrapper)
        self._saved.append((module, attr, original))

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


def instrument(tracer: Tracer) -> Instrumentation:
    """Wrap every layer boundary the per-layer metrics are measured at."""
    from equimax import cli, losses, optimizer, oracle, probmat, toyuda

    inst = Instrumentation(tracer)
    wrap = inst.wrap

    # cli: the command itself; its self time is parsing, formatting and file writes
    wrap(cli, "run", "cli")

    # probmat
    def csv_bytes(counts, result, source, *a, **k):
        if isinstance(source, (str, os.PathLike)):
            counts["probmat.read_matrix_csv.bytes"] += os.path.getsize(source)

    def validated_rows(counts, result, *a, **k):
        counts["probmat.validate.rows"] += result.shape[0]

    def projected_rows(counts, result, *a, **k):
        counts["probmat.project_rows.rows"] += result.size // max(result.shape[-1], 1)

    def compositions(counts, result, *a, **k):
        counts["probmat.enumerate_size_compositions.items"] += len(result)

    def oracle_compositions(counts, result, *a, **k):
        compositions(counts, result)
        counts["oracle.compositions"] += len(result)

    wrap(probmat, "read_matrix_csv", "probmat.read_matrix_csv", csv_bytes)
    wrap(probmat, "validate", "probmat.validate", validated_rows)
    wrap(probmat, "write_matrix_csv", "probmat.write_matrix_csv")
    for mod in (probmat, optimizer):
        wrap(mod, "project_rows", "probmat.project_rows", projected_rows)
    wrap(probmat, "enumerate_size_compositions", "probmat.enumerate_size_compositions",
         compositions, materialize=True)
    wrap(oracle, "enumerate_size_compositions", "probmat.enumerate_size_compositions",
         oracle_compositions, materialize=True)

    # losses: values
    def stack_value(kind, stack, r, *a, **k):
        return "losses.value." + _loss_name(kind, r)

    def ns_value(stack_or_p, r, *a, **k):
        return "losses.value." + _loss_name("nsm", r)

    def cfg_value(p, cfg):
        return "losses.value." + _loss_name(cfg.kind, cfg.r)

    for mod in (losses, optimizer):
        wrap(mod, "_loss_values_stack", stack_value)
    wrap(oracle, "_ns_stack", ns_value)
    wrap(losses, "ms", "losses.value.ms")
    wrap(losses, "bnm", "losses.value.bnm")
    wrap(losses, "cws", "losses.value.cwsm")
    wrap(losses, "ns", ns_value)
    for mod in (losses, toyuda):
        wrap(mod, "loss_value", cfg_value)

    # losses: gradients
    def pair_bytes(counts, result, kind, stack, r, *a, **k):
        if kind == "nsm" and r != 1.0:
            # three dense (B, B) float64 arrays per matrix; computed, not measured
            counts["losses.grad.nsm_rfrac.pair_bytes"] += 3 * 8 * stack.shape[0] * stack.shape[1] ** 2

    def stack_grad(kind, stack, r, *a, **k):
        return "losses.grad." + _loss_name(kind, r)

    def public_grad(counts, result, p, cfg):
        if cfg.kind == "bnm":
            counts["losses.bnm.public_grads"] += 1
            counts["losses.bnm.subgrads"] += 0 if result.exact else 1
        else:
            pair_bytes(counts, result, cfg.kind, p[None], cfg.r)

    def cfg_grad(p, cfg):
        return "losses.grad." + _loss_name(cfg.kind, cfg.r)

    wrap(optimizer, "_loss_grads_stack", stack_grad, pair_bytes)
    for mod in (losses, toyuda):
        wrap(mod, "gradient", cfg_grad, public_grad)

    # losses: the SVD engine
    def sweeps(counts, result, *a, **k):
        counts["losses.jacobi.sweeps"] += result[1]

    for mod, attr in ((losses, "svd"), (losses, "_singular_values_stack"),
                      (oracle, "_singular_values_stack")):
        wrap(mod, attr, "losses.svd")
    wrap(losses, "_jacobi_orthogonalize", "losses.jacobi", sweeps)

    # optimizer
    def ascent_counts(counts, result, loss_cfg, n_rows, n_cols, cfg=None, *a, **k):
        steps = (cfg or optimizer.AscentConfig()).steps
        counts["optimizer.maximize.starts"] += result.final_values.size
        counts["optimizer.maximize.accepted_steps"] += int(result.accepted_steps.sum())
        counts["optimizer.maximize.halving_events"] += result.halving_events
        counts["optimizer.maximize.capped_starts"] += int((result.accepted_steps >= steps).sum())

    for mod in (optimizer, oracle):
        wrap(mod, "maximize", "optimizer.maximize", ascent_counts)
    wrap(optimizer, "surface", "optimizer.surface")

    # oracle
    for num in ("1", "2", "3", "4_5", "6"):
        wrap(oracle, "verify_theorem_" + num, "oracle.verify_theorem_" + num)

    def one_hot(counts, result, *a, **k):
        counts["oracle.onehot_matrices"] += result[0].shape[0]

    wrap(oracle, "_one_hot_label_stack", None, one_hot)

    # toyuda
    def epochs(counts, result, config):
        counts["toyuda.train.epochs"] += config.epochs

    wrap(toyuda, "train", "toyuda.train", epochs)
    wrap(toyuda, "objective_and_gradients", "toyuda.objective_and_gradients")
    return inst
