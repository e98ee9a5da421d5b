"""Instruments that wrap the public functions of the amboost modules.

Both instruments replace functions in every ``amboost.*`` namespace that
holds them (``boost.run_boost`` is also ``gbcd.run_boost``,
``experiments.run_boost`` and ``amboost.run_boost``), so a call is
caught whichever name the caller used. ``uninstall`` puts the original
functions back; nothing inside ``src/amboost`` is edited.

* :class:`EngineClock` wraps only the boosting engines, ``run_boost``
  and ``gbcd_gsq``. It adds up their wall time and the ``n_steps`` of
  the paths they return. The untraced benchmark derives ``steps_per_s``
  from it.
* :class:`Tracer` wraps every public function of every module plus the
  ``to_csv`` methods and records one span per call: name, parent span,
  start and end. Spans live in flat arrays until the run ends.
  :func:`layer_metrics` turns the spans of one traced round into the
  per-layer metrics.
"""

from __future__ import annotations

import importlib
import inspect
import os
import pkgutil
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

ENGINES = ("boost.run_boost", "gbcd.gbcd_gsq")
# Called twice per loss evaluation; a span each would dominate the
# tracing cost, and only the count is reported.
COUNT_ONLY = ("losses.validate_outcome",)
CSV_WRITERS = (
    "tableio.write_csv",
    "design.export_matrix_csv",
    "boost.BoostPath.to_csv",
    "distreg.DistBoostResult.to_csv",
    "rates.RateReport.to_csv",
)
# Scenario spans are named after the experiment they run, because the
# scenario functions themselves are private.
SCENARIO_RUNNER = "experiments.run_experiment"
SCENARIOS = (
    "path_matching",
    "pspline_unpenalized",
    "rates_sweep",
    "expfam_convergence",
    "distreg_divergence",
    "gsq_equivalence",
)
SETUP_SPAN = "phase.setup"
BODY_SPAN = "phase.body"

LAYER_METRICS = {
    "design.make_partition_s": "s",
    "design.bspline_basis_s": "s",
    "losses.evaluate_s": "s",
    "losses.evaluate_calls": "count",
    "losses.loss_value_s": "s",
    "losses.neg_functional_gradient_s": "s",
    "losses.hessian_weights_s": "s",
    "losses.hessian_weights_calls": "count",
    "losses.validate_outcome_calls": "count",
    "losses.unread_weights_calls": "count",
    "boost.run_boost_self_s": "s",
    "boost.steps": "count",
    "boost.step_self_ms": "ms",
    "boost.fit_block_s": "s",
    "boost.select_block_s": "s",
    "gbcd.gbcd_gsq_self_s": "s",
    "gbcd.steps": "count",
    "gbcd.equivalence_check_self_s": "s",
    "closedform.self_s": "s",
    "closedform.calls": "count",
    "rates.hessian_ub_check_self_s": "s",
    "rates.check_bound_s": "s",
    "distreg.cyclic_boost_ls_self_s": "s",
    "distreg.biconvexity_check_s": "s",
    **{f"experiments.{name}_s": "s" for name in SCENARIOS},
    "experiments.run_experiment_self_s": "s",
    "experiments.write_csv_s": "s",
    "experiments.csv_bytes": "bytes",
    "cli.main_self_s": "s",
    "trace.setup_s": "s",
    "trace.body_s": "s",
    "trace.outside_s": "s",
    "trace.overhead_s": "s",
}


def span_name(fn):
    """``<module>.<qualname>`` with the package prefix dropped."""
    return f"{fn.__module__.removeprefix('amboost.')}.{fn.__qualname__}"


def _targets():
    """``(owner, attribute, function)`` for every function to wrap."""
    import amboost

    modules = [amboost] + [
        importlib.import_module(f"amboost.{info.name}")
        for info in pkgutil.iter_modules(amboost.__path__)
    ]
    found = []
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_"):
                continue
            if inspect.isfunction(obj) and obj.__module__.startswith("amboost"):
                found.append((mod, attr, obj))
            elif (
                inspect.isclass(obj)
                and obj.__module__ == mod.__name__
                and inspect.isfunction(vars(obj).get("to_csv"))
            ):
                found.append((obj, "to_csv", vars(obj)["to_csv"]))
    return found


class _Patches:
    """Replaces attributes and remembers how to put them back."""

    def __init__(self):
        self._undo = []

    def apply(self, targets, make_wrapper):
        if self._undo:
            raise RuntimeError("instrument is already installed")
        wrappers = {}
        for owner, attr, fn in targets:
            if fn not in wrappers:
                wrappers[fn] = make_wrapper(fn)
            setattr(owner, attr, wrappers[fn])
            self._undo.append((owner, attr, fn))

    def undo(self):
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()


class EngineClock:
    """Wall time and steps of every ``run_boost`` and ``gbcd_gsq`` call."""

    def __init__(self):
        self.seconds = 0.0
        self.steps = 0
        self._patches = _Patches()

    def install(self):
        targets = [t for t in _targets() if span_name(t[2]) in ENGINES]
        self._patches.apply(targets, self._wrap)

    def uninstall(self):
        self._patches.undo()

    def reset(self):
        self.seconds = 0.0
        self.steps = 0

    def _wrap(self, fn):
        def timed(*args, **kwargs):
            t0 = perf_counter()
            try:
                path = fn(*args, **kwargs)
            finally:
                self.seconds += perf_counter() - t0
            self.steps += path.n_steps
            return path

        return timed


class Tracer:
    """Records one span per call of a public amboost function.

    Span ``i`` has a name id, the index of its parent span (``-1`` at
    the top), start and end times from ``perf_counter`` and a value:
    the steps of the returned path for the engines, the bytes written
    for the CSV writers, 0 otherwise.
    """

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("q")
        self.parent = array("q")
        self.value = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counts = {}
        self._stack = []
        self._patches = _Patches()

    def install(self):
        self._patches.apply(_targets(), self._wrap)

    def uninstall(self):
        self._patches.undo()

    def __len__(self):
        return len(self.start)

    def take_counts(self):
        """Count-only calls since the previous take, then reset."""
        counts, self.counts = self.counts, {}
        return counts

    def _id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid):
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.value.append(0)
        self.end.append(0.0)
        self.start.append(0.0)
        self._stack.append(idx)
        self.start[idx] = perf_counter()
        return idx

    def _close(self, idx):
        self.end[idx] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        """A span around the benchmark's own code, such as a phase."""
        idx = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, fn):
        name = span_name(fn)
        if name in COUNT_ONLY:
            def counted(*args, **kwargs):
                self.counts[name] = self.counts.get(name, 0) + 1
                return fn(*args, **kwargs)

            return counted

        nid = self._id(name)
        scenario = name == SCENARIO_RUNNER
        engine = name in ENGINES
        path_arg = None
        if name in CSV_WRITERS:
            path_arg = list(inspect.signature(fn).parameters).index("path")

        def traced(*args, **kwargs):
            sid = self._id(f"{name}[{args[0].experiment}]") if scenario else nid
            idx = self._open(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if engine:
                self.value[idx] = result.n_steps
            elif path_arg is not None:
                path = kwargs.get("path", args[path_arg] if len(args) > path_arg else None)
                self.value[idx] = os.path.getsize(path)
            return result

        return traced

    def open_spans(self):
        return len(self._stack)

    def write(self, path):
        """Write every span, with the name table, as a numpy archive."""
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            value=np.frombuffer(self.value, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


def _with_ancestor(parent, test):
    """For each span, whether ``test(ancestor, span)`` holds for some ancestor."""
    idx = np.arange(parent.size)
    anc = parent.copy()
    hit = np.zeros(parent.size, dtype=bool)
    live = anc >= 0
    while live.any():
        i, a = idx[live], anc[live]
        hit[i] |= test(a, i)
        anc[i] = parent[a]
        live = anc >= 0
    return hit


def layer_metrics(tracer, lo, hi, counts):
    """Per-layer metrics of the spans ``lo:hi``, one traced round.

    A round is a ``phase.setup`` span and a ``phase.body`` span at the
    top level, holding every library call made between them. Times
    ending in ``_self_s`` are self times: a span's duration minus that
    of its traced children. Other times are inclusive. Also returns the
    sum of all self times, which equals the round's duration.
    """
    names = tracer.names
    nid = np.frombuffer(tracer.name_id, dtype=np.int64)[lo:hi]
    parent = np.frombuffer(tracer.parent, dtype=np.int64)[lo:hi] - lo
    value = np.frombuffer(tracer.value, dtype=np.int64)[lo:hi]
    dur = (
        np.frombuffer(tracer.end, dtype=np.float64)[lo:hi]
        - np.frombuffer(tracer.start, dtype=np.float64)[lo:hi]
    )
    inner = parent >= 0
    self_t = dur - np.bincount(parent[inner], weights=dur[inner], minlength=dur.size)
    # a span nested in one of the same name is already inside its time
    repeated = _with_ancestor(parent, lambda a, i: nid[a] == nid[i])

    def select(match):
        ids = [k for k, name in enumerate(names) if match(name)]
        return np.isin(nid, ids)

    def named(*wanted):
        return select(lambda name: name in wanted)

    def incl(*wanted):
        return float(dur[named(*wanted) & ~repeated].sum())

    def self_s(mask):
        return float(self_t[mask].sum())

    run_boost = named("boost.run_boost")
    under_run_boost = _with_ancestor(parent, lambda a, i: run_boost[a])
    weights = named("losses.hessian_weights")
    closedform = select(lambda name: name.startswith("closedform."))
    scenario_spans = select(lambda name: name.startswith(SCENARIO_RUNNER + "["))
    boost_steps = int(value[run_boost].sum())
    boost_self = self_s(run_boost)
    setup = named(SETUP_SPAN)
    body = named(BODY_SPAN)

    metrics = {
        "design.make_partition_s": incl("design.make_partition"),
        "design.bspline_basis_s": incl("design.bspline_basis"),
        "losses.evaluate_s": incl("losses.evaluate"),
        "losses.evaluate_calls": int(named("losses.evaluate").sum()),
        "losses.loss_value_s": incl("losses.loss_value"),
        "losses.neg_functional_gradient_s": incl("losses.neg_functional_gradient"),
        "losses.hessian_weights_s": incl("losses.hessian_weights"),
        "losses.hessian_weights_calls": int(weights.sum()),
        "losses.validate_outcome_calls": int(counts.get("losses.validate_outcome", 0)),
        "losses.unread_weights_calls": int((weights & under_run_boost).sum()),
        "boost.run_boost_self_s": boost_self,
        "boost.steps": boost_steps,
        "boost.step_self_ms": 1e3 * boost_self / boost_steps if boost_steps else 0.0,
        "boost.fit_block_s": incl("boost.fit_block"),
        "boost.select_block_s": incl("boost.select_block"),
        "gbcd.gbcd_gsq_self_s": self_s(named("gbcd.gbcd_gsq")),
        "gbcd.steps": int(value[named("gbcd.gbcd_gsq")].sum()),
        "gbcd.equivalence_check_self_s": self_s(named("gbcd.equivalence_check")),
        "closedform.self_s": self_s(closedform),
        "closedform.calls": int(closedform.sum()),
        "rates.hessian_ub_check_self_s": self_s(named("rates.hessian_ub_check")),
        "rates.check_bound_s": incl("rates.check_bound"),
        "distreg.cyclic_boost_ls_self_s": self_s(named("distreg.cyclic_boost_ls")),
        "distreg.biconvexity_check_s": incl("distreg.biconvexity_check"),
        **{
            f"experiments.{name}_s": incl(f"{SCENARIO_RUNNER}[{name}]")
            for name in SCENARIOS
        },
        "experiments.run_experiment_self_s": self_s(scenario_spans),
        "experiments.write_csv_s": incl(*CSV_WRITERS),
        "experiments.csv_bytes": int(value[named(*CSV_WRITERS)].sum()),
        "cli.main_self_s": self_s(named("cli.main")),
        "trace.setup_s": float(dur[setup].sum()),
        "trace.body_s": float(dur[body].sum()),
        "trace.outside_s": self_s(setup | body),
    }
    return metrics, float(self_t.sum())
