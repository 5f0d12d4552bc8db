"""Per-module spans and counters, recorded from outside the package.

The tracer rebinds public names in the module that calls them (for
example ``raftguard.cli.coverage_joint``), so every call the package
makes through that name opens a span.  Spans live in memory and are
written once, when the traced pass ends.  A hook whose target name no
longer exists is skipped and the metrics that depend on it are reported
as missing rather than failing the pass.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
import warnings
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Hook:
    """One rebinding: ``owner.attr`` is replaced by a wrapper.

    ``span`` names the span; a hook without one only counts calls into
    ``count``.  ``layer`` is the module whose exceptions the wrapper
    counts as ``<layer>.errors``.  ``classify`` tags a span from the
    call's arguments, ``observe`` records facts about a call.
    """

    owner: str
    attr: str
    layer: str
    span: str | None = None
    count: str | None = None
    classify: Callable | None = None
    observe: Callable | None = None


def _joint_kind(args, kwargs):
    return "inner0" if args[0].annulus.inner <= 0.0 else "band"


def _joint_result(tracer, args, kwargs, result):
    tracer.maxima["coverage.max_quad_err"] = max(
        tracer.maxima["coverage.max_quad_err"], result.quadrature_error_estimate
    )


def _trial_counter(key, position):
    def observe(tracer, args, kwargs, result):
        n = kwargs["n_trials"] if "n_trials" in kwargs else args[position]
        tracer.counts[key] += n if isinstance(n, int) else n.n_trials
    return observe


def _jammer_points(tracer, args, kwargs, result):
    tracer.counts["geometry.jammer_points"] += int(args[1])


# Names the package calls through, rebound in the module that calls
# them.  The benchmark's own entry points (``evaluate``, ``load_config``
# and the two library workloads) go through ``Tracer.entry``.
HOOKS = (
    Hook("raftguard.cli", "coverage_joint", "coverage", span="coverage.joint",
         classify=_joint_kind, observe=_joint_result),
    Hook("raftguard.cli", "estimate_coverage", "montecarlo", span="montecarlo.coverage",
         observe=_trial_counter("montecarlo.coverage_trials", 0)),
    Hook("raftguard.cli", "simulate_auth", "montecarlo", span="montecarlo.auth",
         observe=_trial_counter("montecarlo.auth_trials", 2)),
    Hook("raftguard.cli", "p_fa_closed_form", "auth", span="auth.p_fa_closed_form"),
    Hook("raftguard.cli", "p_md_closed_form", "auth", span="auth.p_md_closed_form"),
    Hook("raftguard.cli", "p_mc_closed_form", "auth", span="auth.p_mc_closed_form"),
    Hook("raftguard.cli", "roc_curve", "auth", span="auth.roc_curve"),
    Hook("raftguard.cli", "sample_fingerprints", "auth", span="auth.sample_fingerprints"),
    Hook("raftguard.coverage", "laplace_interference", "coverage", span="coverage.laplace"),
    Hook("raftguard.coverage", "hyp2f1", "specfun", span="specfun.hyp2f1"),
    Hook("raftguard.montecarlo", "annulus_radii", "geometry", span="geometry.annulus_radii",
         observe=_jammer_points),
    Hook("raftguard.auth", "q_function", "auth", count="auth.q_function_calls"),
)

ENTRIES = {
    "evaluate": Hook("raftguard.cli", "evaluate", "cli", span="cli.evaluate"),
    "load_config": Hook("raftguard.cli", "load_config", "cli", span="cli.load_config"),
    "coverage_joint": Hook(
        "raftguard.coverage", "coverage_joint", "coverage", span="coverage.joint",
        classify=_joint_kind, observe=_joint_result),
    "simulate_consensus": Hook("raftguard.montecarlo", "simulate_consensus", "montecarlo",
                               span="montecarlo.consensus",
                               observe=_trial_counter("montecarlo.consensus_trials", 0)),
}

# A sweep point starts where its row function makes its first traced call.
_POINT_OPENERS = {"coverage.joint", "auth.sample_fingerprints"}

LAYERS = ("cli", "coverage", "specfun", "montecarlo", "geometry", "auth")

# metric -> the span or counter names it is computed from; a metric
# whose source hook could not be installed is reported as missing
METRIC_SOURCES = {
    "cli.evaluate_self_s": ("cli.evaluate",),
    "cli.load_config_s": ("cli.load_config",),
    "coverage.joint_calls": ("coverage.joint",),
    "coverage.joint_s": ("coverage.joint",),
    "coverage.joint_ms_inner0": ("coverage.joint",),
    "coverage.joint_ms_band": ("coverage.joint",),
    "coverage.laplace_calls": ("coverage.laplace",),
    "coverage.laplace_s": ("coverage.laplace",),
    "coverage.max_quad_err": ("coverage.joint",),
    "specfun.hyp2f1_calls": ("specfun.hyp2f1",),
    "specfun.hyp2f1_s": ("specfun.hyp2f1",),
    "montecarlo.coverage_s": ("montecarlo.coverage",),
    "montecarlo.coverage_trials_per_s": ("montecarlo.coverage",),
    "montecarlo.auth_s": ("montecarlo.auth",),
    "montecarlo.auth_trials_per_s": ("montecarlo.auth",),
    "montecarlo.consensus_s": ("montecarlo.consensus",),
    "montecarlo.consensus_trials_per_s": ("montecarlo.consensus",),
    "geometry.jammer_points": ("geometry.annulus_radii",),
    "geometry.annulus_radii_s": ("geometry.annulus_radii",),
    "auth.p_md_closed_form_s": ("auth.p_md_closed_form",),
    "auth.p_mc_closed_form_s": ("auth.p_mc_closed_form",),
    "auth.roc_curve_s": ("auth.roc_curve",),
    "auth.sample_fingerprints_s": ("auth.sample_fingerprints",),
    "auth.q_function_calls": ("auth.q_function_calls",),
}


class Tracer:
    """In-memory span store for one traced pass."""

    def __init__(self, hooks=HOOKS):
        self.hooks = tuple(hooks)
        # span rows: [name, tag, op, parent index, start, end]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.maxima: defaultdict = defaultdict(float)
        self.op = ""
        self._point = 0
        self.missing: list[str] = []
        self._missing_labels: set[str] = set()
        self._restore: list[tuple] = []

    # --------------------------------------------------------- recording

    def begin_op(self, label: str) -> None:
        """Tag the spans that follow with a new operation id."""
        self.op = label
        self._point = 0

    def _open(self, name: str, tag) -> int:
        parent = self.stack[-1] if self.stack else -1
        if name in _POINT_OPENERS and parent >= 0 and self.spans[parent][0] == "cli.evaluate":
            self._point += 1
        op = f"{self.op}#{self._point}" if self._point else self.op
        self.spans.append([name, tag, op, parent, time.perf_counter(), 0.0])
        index = len(self.spans) - 1
        self.stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][5] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, hook: Hook, fn):
        if hook.span is None:
            key = hook.count

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                self.counts[key] += 1
                return fn(*args, **kwargs)
            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tag = hook.classify(args, kwargs) if hook.classify else None
            index = self._open(hook.span, tag)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.counts[f"{hook.layer}.errors"] += 1
                raise
            finally:
                self._close(index)
            if hook.observe:
                hook.observe(self, args, kwargs, result)
            return result
        return traced

    # ------------------------------------------------------ installation

    @staticmethod
    def _resolve(hook: Hook):
        try:
            return getattr(importlib.import_module(hook.owner), hook.attr)
        except (ImportError, AttributeError):
            return None

    def install(self) -> None:
        """Rebind every hook target that still exists."""
        for hook in self.hooks:
            fn = self._resolve(hook)
            label = hook.span or hook.count
            if fn is None:
                self.missing.append(f"{hook.owner}.{hook.attr}")
                self._missing_labels.add(label)
                continue
            module = importlib.import_module(hook.owner)
            self._restore.append((module, hook.attr, fn))
            setattr(module, hook.attr, self._wrap(hook, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._restore):
            setattr(module, attr, fn)
        self._restore.clear()

    def entry(self, name: str):
        """The benchmark's own call into the package, traced."""
        hook = ENTRIES[name]
        fn = self._resolve(hook)
        if fn is None:
            raise AttributeError(f"{hook.owner}.{hook.attr} no longer exists")
        return self._wrap(hook, fn)

    # ---------------------------------------------------------- results

    def metrics(self, caught_warnings) -> dict:
        """Per-layer metrics of the pass; None where a hook was missing."""
        total = Counter()
        calls = Counter()
        self_time = Counter()
        by_tag = defaultdict(list)
        child = [0.0] * len(self.spans)
        for name, tag, _op, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for (name, tag, _op, _parent, start, end), inner in zip(self.spans, child):
            total[name] += end - start
            self_time[name] += end - start - inner
            calls[name] += 1
            if tag:
                by_tag[(name, tag)].append(end - start)

        def mean_ms(key):
            values = by_tag[key]
            return 1e3 * sum(values) / len(values) if values else 0.0

        def rate(count_key, span):
            return self.counts[count_key] / total[span] if total[span] else 0.0

        out = {
            "cli.evaluate_self_s": self_time["cli.evaluate"],
            "cli.load_config_s": total["cli.load_config"],
            "coverage.joint_calls": calls["coverage.joint"],
            "coverage.joint_s": total["coverage.joint"],
            "coverage.joint_ms_inner0": mean_ms(("coverage.joint", "inner0")),
            "coverage.joint_ms_band": mean_ms(("coverage.joint", "band")),
            "coverage.laplace_calls": calls["coverage.laplace"],
            "coverage.laplace_s": total["coverage.laplace"],
            "coverage.max_quad_err": self.maxima["coverage.max_quad_err"],
            "coverage.warnings": sum(
                1 for w in caught_warnings if w.category.__name__ == "IntegrationWarning"
            ),
            "specfun.hyp2f1_calls": calls["specfun.hyp2f1"],
            "specfun.hyp2f1_s": total["specfun.hyp2f1"],
            "montecarlo.coverage_s": total["montecarlo.coverage"],
            "montecarlo.coverage_trials_per_s": rate("montecarlo.coverage_trials",
                                                     "montecarlo.coverage"),
            "montecarlo.auth_s": total["montecarlo.auth"],
            "montecarlo.auth_trials_per_s": rate("montecarlo.auth_trials", "montecarlo.auth"),
            "montecarlo.consensus_s": total["montecarlo.consensus"],
            "montecarlo.consensus_trials_per_s": rate("montecarlo.consensus_trials",
                                                      "montecarlo.consensus"),
            "geometry.jammer_points": self.counts["geometry.jammer_points"],
            "geometry.annulus_radii_s": total["geometry.annulus_radii"],
            "auth.p_md_closed_form_s": total["auth.p_md_closed_form"],
            "auth.p_mc_closed_form_s": total["auth.p_mc_closed_form"],
            "auth.roc_curve_s": total["auth.roc_curve"],
            "auth.sample_fingerprints_s": total["auth.sample_fingerprints"],
            "auth.q_function_calls": self.counts["auth.q_function_calls"],
            "auth.clip_warnings": sum(
                1 for w in caught_warnings
                if issubclass(w.category, RuntimeWarning) and "clipped" in str(w.message)
            ),
        }
        for layer in LAYERS:
            out[f"{layer}.errors"] = self.counts[f"{layer}.errors"]
        for metric, sources in METRIC_SOURCES.items():
            if any(s in self._missing_labels for s in sources):
                out[metric] = None
        return out

    def write(self, path: str) -> None:
        """Write every span, tagged with its operation id."""
        names = sorted({row[0] for row in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = {
            "columns": ["name", "tag", "op", "parent", "start_s", "end_s"],
            "names": names,
            "missing_hooks": self.missing,
            "spans": [[index[n], tag, op, parent, round(s, 9), round(e, 9)]
                      for n, tag, op, parent, s, e in self.spans],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
            fh.write("\n")


@contextmanager
def record_warnings():
    """Collect every warning raised inside the block, each occurrence."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        yield caught
