"""Outside-in tracing: spans around the module attributes the harness calls.

Nothing in `robust_ope` is edited. `Tracer.installed()` swaps each traced
attribute for a wrapper that records a span (name, start, end, parent span,
op id) and restores the original on exit. Kernels are wrapped where they were
imported (`forward_batch` in `policies`, `estimators` and
`robust_regression`), because wrapping `nets.forward_batch` alone would miss
those names; `nets.adam_step` is wrapped in `nets`, where the closure built
by `make_optimizer` looks it up on every step.

Row and FLOP counts at the kernel wrap points are computed from the weight
shapes (dense matmuls only), not measured, so they repeat exactly.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict

from robust_ope import (
    bandit_sim,
    diagnostics,
    estimators,
    nets,
    policies,
    robust_regression,
)


def _weights(net) -> int:
    return sum(layer.weight.size for layer in net.layers)


def _forward_counts(net, inputs, *_, **__):
    rows = len(inputs)
    return rows, 2 * rows * _weights(net)


def _backward_counts(net, inputs, *_, **__):
    # backward_batch re-traces the forward pass (2 flop per weight and row),
    # then forms the weight gradient and the input gradient (2 + 2)
    rows = len(inputs)
    return rows, 6 * rows * _weights(net)


def targets():
    """(owner, attribute, span name, counter) for every traced call site."""
    out = [
        (bandit_sim, "load_csv", "bandit_sim.load_csv", None),
        (bandit_sim, "split", "bandit_sim.split", None),
        (bandit_sim, "standardize", "bandit_sim.standardize", None),
        (bandit_sim, "log_bandit_feedback", "bandit_sim.log", None),
        (bandit_sim, "true_value", "bandit_sim.truth", None),
        (policies, "train_classifier_policy", "policies.classifier_fit", None),
        (policies, "estimate_logging_policy", "policies.phat_fit", None),
        (estimators, "train_direct_model", "estimators.dm_fit", None),
        (estimators, "evaluate_estimator", "estimators.score", None),
        (estimators, "mean_matrix", "robust_regression.mean_matrix", None),
        (robust_regression, "train_robust", "robust_regression.robust_fit",
         None),
        (robust_regression, "train_iid", "robust_regression.iid_fit", None),
        (robust_regression, "features", "robust_regression.features", None),
        (diagnostics, "measure_bound_inputs", "diagnostics", None),
        (nets, "adam_step", "nets.adam_step", None),
    ]
    for module in (policies, estimators, robust_regression):
        out += [
            (module, "forward_batch", "nets.forward", _forward_counts),
            (module, "backward_batch", "nets.backward", _backward_counts),
            (module, "spectral_normalize_net", "nets.spectral_norm", None),
        ]
    for cls in policies.Policy.__subclasses__():
        if "probs_matrix" in vars(cls):
            out.append((cls, "probs_matrix", "policies.probs", None))
    return out


@contextlib.contextmanager
def patched(owner, attr: str, make_wrapper):
    """Replace `owner.attr` by `make_wrapper(original)` until exit."""
    original = getattr(owner, attr)
    setattr(owner, attr, make_wrapper(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


class Tracer:
    """Spans kept in memory; written out once, when the benchmark ends."""

    def __init__(self):
        # (name, start, end, parent index, op id, rows, flop, error class)
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self.op = None
        self.missing: set[str] = set()

    def _open(self) -> tuple[int, int | None]:
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        return index, parent

    def _wrap(self, name, fn, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rows, flop = counter(*args, **kwargs) if counter else (0, 0)
            index, parent = self._open()
            error = None
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, self.op, rows,
                                     flop, error)
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Trace every target until exit; absent attributes are noted."""
        with contextlib.ExitStack() as stack:
            for owner, attr, name, counter in targets():
                if not hasattr(owner, attr):
                    self.missing.add(f"{owner.__name__}.{attr}")
                    continue
                stack.enter_context(patched(
                    owner, attr,
                    lambda fn, n=name, c=counter: self._wrap(n, fn, c)))
            yield

    @contextlib.contextmanager
    def op_span(self, op_id):
        """Root span of one op (or one set-up repetition) with its children."""
        self.op = op_id
        index, _ = self._open()
        start = time.perf_counter()
        try:
            with self.installed():
                yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = ("op", start, end, None, op_id, 0, 0, None)
            self.op = None

    def write(self, path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ("name", "start", "end", "parent", "op", "rows", "flop",
                  "error")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"meta": meta}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(dict(zip(fields, span))) + "\n")


def _per_op(spans, ops) -> dict[str, dict]:
    """Per-op sums by span name, plus self time of each op's root span."""
    wanted = set(ops)
    sums = defaultdict(lambda: defaultdict(float))
    roots = {}
    for index, (name, start, end, parent, op, rows, flop, error) in \
            enumerate(spans):
        if op not in wanted:
            continue
        if name == "op":
            roots[index] = op
            sums[op]["op.s"] += end - start
            continue
        if parent in roots:
            sums[op]["children.s"] += end - start
        sums[op][f"{name}.calls"] += 1
        sums[op][f"{name}.s"] += end - start
        sums[op][f"{name}.rows"] += rows
        sums[op][f"{name}.flop"] += flop
        if error == "UndefinedEstimate":
            sums[op][f"{name}.undefined"] += 1
    return sums


def _mean(sums, ops, key) -> float:
    return sum(sums[op][key] for op in ops) / len(ops)


BANDIT_SIM = ("bandit_sim.split", "bandit_sim.standardize", "bandit_sim.log",
              "bandit_sim.truth")
FITS = ("policies.classifier_fit", "policies.phat_fit", "estimators.dm_fit",
        "robust_regression.robust_fit", "robust_regression.iid_fit")
KERNELS = ("nets.forward", "nets.backward", "nets.adam_step",
           "nets.spectral_norm")


def layer_metrics(spans, ops, setup_ops) -> dict[str, float]:
    """Per-layer figures as means per op over `ops`, and per set-up over
    `setup_ops`. Layer spans nest (a fit span contains kernel spans), so the
    seconds of different layers overlap and do not add up to the op time."""
    sums = _per_op(spans, ops)
    out = {}
    for kernel in KERNELS:
        calls = _mean(sums, ops, f"{kernel}.calls")
        secs = _mean(sums, ops, f"{kernel}.s")
        out[f"{kernel}.calls"] = calls
        out[f"{kernel}.s"] = secs
        out[f"{kernel}.us_per_call"] = 1e6 * secs / calls if calls else 0.0
    out["nets.forward.rows"] = _mean(sums, ops, "nets.forward.rows")
    for kernel in ("nets.forward", "nets.backward"):
        out[f"{kernel}.gflop"] = _mean(sums, ops, f"{kernel}.flop") / 1e9
    for fit in FITS:
        out[f"{fit}.s"] = _mean(sums, ops, f"{fit}.s")
    for name in ("policies.probs", "robust_regression.mean_matrix",
                 "estimators.score"):
        out[f"{name}.calls"] = _mean(sums, ops, f"{name}.calls")
        out[f"{name}.s"] = _mean(sums, ops, f"{name}.s")
    out["estimators.undefined"] = _mean(sums, ops,
                                        "estimators.score.undefined")
    out["bandit_sim.s"] = sum(_mean(sums, ops, f"{n}.s") for n in BANDIT_SIM)
    out["diagnostics.s"] = _mean(sums, ops, "diagnostics.s")
    out["harness.self_s"] = (_mean(sums, ops, "op.s")
                             - _mean(sums, ops, "children.s"))

    setup = _per_op(spans, setup_ops)
    out["bandit_sim.load_csv.s"] = _mean(setup, setup_ops,
                                         "bandit_sim.load_csv.s")
    for fit in FITS:
        out[f"setup.{fit}.s"] = _mean(setup, setup_ops, f"{fit}.s")
    out["setup.nets.s"] = sum(_mean(setup, setup_ops, f"{k}.s")
                              for k in KERNELS)
    return out
