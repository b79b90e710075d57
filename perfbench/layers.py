"""Outside-in tracing of decayalg's layers.

A `Tracer` installs wrappers, at run time, around the calls that cross
a module boundary of the package: the experiment runners and the trial
pool in `harness`, the xoshiro draws in `rng`, `trace_norm` in
`nuclear_blocks`, the operator functions in `cd_operator` and
`blocking_kernel`, the routing helpers in `lattice`, and the
`numpy.linalg` calls that decayalg makes (layer `lapack`).  Nothing
under `src/` is edited; `uninstall` puts every original back.

Three kinds of wrapper:

- span: one record per call (name, start, end, parent span, trial,
  thread), kept in memory and written out by the caller;
- sum: calls made once per block (trace norms, block SVDs, RNG draws)
  only add to a per-thread (calls, total, self) triple;
- count: the cheapest calls (every normal draw, every lattice helper)
  only bump a counter; their time stays in the caller's self time.

Self time is a call's duration minus the time of the timed calls nested
in it on the same thread.  Trials that the pool runs on worker threads
are children of the pool span but their time is not subtracted from it:
the pool's self time is the time its caller waited.
"""

from __future__ import annotations

import inspect
import itertools
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np

# A numpy.linalg.svd call on matrices no larger than this is a block SVD;
# anything larger is the residual norm of the dense solve.
BLOCK_SVD_MAX = 16


@dataclass
class Span:
    span_id: int
    parent_id: int
    name: str
    start: float
    end: float
    trial: int | None
    thread: int
    self_s: float


@dataclass
class _ThreadState:
    thread: int
    # frames of the timed calls in progress: [child time, span id]
    stack: list = field(default_factory=list)
    # name -> [units, total seconds, self seconds]
    stats: dict = field(default_factory=dict)
    trial: int | None = None
    # parent span of a frame pushed onto an empty stack (pool workers)
    base_parent: int = 0


class Tracer:
    """Wraps decayalg's layer boundaries and accumulates spans and counters."""

    def __init__(self):
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._states_lock = threading.Lock()
        self._ids = itertools.count(1)
        self._counters: dict[str, itertools.count] = {}
        self._patches: list[tuple[object, str, object]] = []
        self.spans: list[Span] = []
        self.dense_dims: list[int] = []
        self.missing: list[str] = []

    # ---------------------------------------------------------- recording

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            st = _ThreadState(threading.get_ident())
            self._local.state = st
            with self._states_lock:
                self._states.append(st)
        return st

    def timed(self, name: str, fn, record: bool = False, units=None, on_result=None):
        """Wrap fn so each call adds to `name`; record=True also keeps a Span."""
        perf = time.perf_counter
        spans = self.spans
        next_id = self._ids.__next__

        def wrapper(*args, **kwargs):
            st = self._state()
            stack = st.stack
            parent_id = stack[-1][1] if stack else st.base_parent
            frame = [0.0, next_id() if record else parent_id]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][0] += dur
                stat = st.stats.get(name)
                if stat is None:
                    stat = st.stats[name] = [0, 0.0, 0.0]
                stat[0] += 1 if units is None else units(args)
                stat[1] += dur
                stat[2] += dur - frame[0]
                if record:
                    spans.append(Span(frame[1], parent_id, name, start, end,
                                      st.trial, st.thread, dur - frame[0]))
            if on_result is not None:
                on_result(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name: str, fn):
        """Wrap fn so each call bumps the counter `name` (atomic under the GIL)."""
        bump = self._counters.setdefault(name, itertools.count()).__next__

        def wrapper(*args, **kwargs):
            bump()
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def pooled(self, fn):
        """Wrap harness._map_trials: a pool span whose trials are spans too."""

        def map_trials(trial_fn, n_trials):
            pool_id = self._state().stack[-1][1]
            traced_trial = self.timed("harness.trial", trial_fn, record=True)

            def one(trial):
                ts = self._state()
                saved = ts.trial, ts.base_parent
                ts.trial, ts.base_parent = trial, pool_id
                try:
                    return traced_trial(trial)
                finally:
                    ts.trial, ts.base_parent = saved

            return fn(one, n_trials)

        return self.timed("harness.pool", map_trials, record=True)

    # ----------------------------------------------------------- patching

    def _patch(self, owner, attr: str, make) -> None:
        original = inspect.getattr_static(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        wrapper = make(original)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _patch_function(self, module, attr: str, make) -> None:
        """Replace a module function everywhere decayalg bound it by name."""
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        wrapper = make(original)
        for name, mod in list(sys.modules.items()):
            if name != "decayalg" and not name.startswith("decayalg."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def install(self) -> None:
        from decayalg import (
            blocking_kernel,
            cd_operator,
            harness,
            lattice,
            nuclear_blocks,
        )
        from decayalg.rng import Xoshiro256StarStar

        span = lambda name, **kw: lambda fn: self.timed(name, fn, record=True, **kw)
        summed = lambda name: lambda fn: self.timed(name, fn)

        for runner in ("run_inverse_closedness", "run_kernel"):
            self._patch_function(harness, runner, span("harness.run"))
        self._patch_function(harness, "_map_trials", self.pooled)
        self._patch_function(harness, "generate_operator",
                             span("harness.generate_operator"))

        self._patch(Xoshiro256StarStar, "complex_normal", summed("rng.complex_normal"))
        self._patch(Xoshiro256StarStar, "uniform_in", summed("rng.uniform_in"))
        self._patch(Xoshiro256StarStar, "normal",
                    lambda fn: self.counted("rng.normals", fn))

        self._patch_function(nuclear_blocks, "trace_norm",
                             summed("nuclear_blocks.trace_norm"))

        for name in ("fit_envelope", "invert_one_plus", "apply"):
            self._patch_function(cd_operator, name, span(f"cd_operator.{name}"))
        self._patch_function(
            cd_operator, "densify",
            span("cd_operator.densify",
                 on_result=lambda dense: self.dense_dims.append(dense.shape[0])))

        for name in ("assemble_kernel", "apply_kernel"):
            self._patch_function(blocking_kernel, name, span(f"blocking_kernel.{name}"))

        for name in ("flat_offset", "wrap_index", "window_indices"):
            self._patch_function(lattice, name,
                                 lambda fn: self.counted("lattice.calls", fn))

        for name in ("cond", "inv", "eigvals"):
            self._patch(np.linalg, name, summed(f"lapack.{name}"))
        self._patch(np.linalg, "svd", self._svd_dispatch)

    def _svd_dispatch(self, svd):
        block = self.timed("lapack.svd_block", svd,
                           units=lambda args: int(np.prod(np.shape(args[0])[:-2])))
        dense = self.timed("lapack.residual", svd)

        def dispatch(a, *args, **kwargs):
            shape = np.shape(a)
            if len(shape) >= 2 and max(shape[-2:]) <= BLOCK_SVD_MAX:
                return block(a, *args, **kwargs)
            return dense(a, *args, **kwargs)

        return dispatch

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # ------------------------------------------------------------ reading

    def stats(self) -> dict[str, tuple[int, float, float]]:
        """name -> (units, total seconds, self seconds), summed over threads."""
        out: dict[str, list] = {}
        for st in self._states:
            for name, (units, total, self_s) in st.stats.items():
                acc = out.setdefault(name, [0, 0.0, 0.0])
                acc[0] += units
                acc[1] += total
                acc[2] += self_s
        return {name: tuple(v) for name, v in out.items()}

    def counts(self) -> dict[str, int]:
        """Counter values, read from the counters' repr so reading does not bump them."""
        return {name: int(repr(ctr)[len("count("):-1])
                for name, ctr in self._counters.items()}

    def spans_named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]


PER_LAYER_UNITS = {
    "cli.main.self_s": "s",
    "rng.normals": "count",
    "rng.self_s": "s",
    "rng.normals_per_s": "1/s",
    "harness.generate_operator.self_s": "s",
    "harness.trial.s_p50": "s",
    "harness.pool.busy_frac": "ratio",
    "harness.emit.s": "s",
    "harness.emit.bytes": "count",
    "nuclear_blocks.trace_norm.calls": "count",
    "nuclear_blocks.trace_norm.self_s": "s",
    "lapack.svd_block.calls": "count",
    "lapack.svd_block.s": "s",
    "lapack.cond.s": "s",
    "lapack.inv.s": "s",
    "lapack.residual.s": "s",
    "lapack.eigvals.calls": "count",
    "cd_operator.fit_envelope.calls": "count",
    "cd_operator.fit_envelope.self_s": "s",
    "cd_operator.invert_one_plus.self_s": "s",
    "cd_operator.densify.s": "s",
    "cd_operator.dense_dim": "count",
    "cd_operator.apply.s": "s",
    "blocking_kernel.assemble_kernel.s": "s",
    "blocking_kernel.apply_kernel.s": "s",
    "lattice.calls": "count",
    "trace.overhead_frac": "ratio",
}


def per_layer_metrics(tracer: Tracer, n_commands: int, emit_bytes: int,
                      traced_wall: float, untraced_wall: float) -> dict[str, float]:
    """Per-command layer figures of a traced pass of n_commands commands.

    Counts and times are means per command; `harness.trial.s_p50` is the
    median trial span, `harness.pool.busy_frac` the summed trial spans
    over workers x pool wall (a pool's workers are the threads its trial
    spans ran on), `harness.emit.s` the time from the end of
    the trial pool to the end of the runner (merging records and writing
    every output file), and `cd_operator.dense_dim` the largest dense
    system built.
    """
    stats = tracer.stats()
    counts = tracer.counts()

    def units(name):
        return stats.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return stats.get(name, (0, 0.0, 0.0))[1]

    def self_s(name):
        return stats.get(name, (0, 0.0, 0.0))[2]

    rng_self = self_s("rng.complex_normal") + self_s("rng.uniform_in")
    normals = counts.get("rng.normals", 0)
    trials = tracer.spans_named("harness.trial")
    pools = {s.span_id: s for s in tracer.spans_named("harness.pool")}
    pool_threads = {i: set() for i in pools}
    for s in trials:
        pool_threads[s.parent_id].add(s.thread)
    pool_capacity = sum(len(pool_threads[i]) * (s.end - s.start) for i, s in pools.items())
    emit = 0.0
    for run in tracer.spans_named("harness.run"):
        ends = [p.end for p in pools.values() if p.parent_id == run.span_id]
        emit += run.end - max(ends, default=run.start)

    per_cmd = {
        "cli.main.self_s": self_s("cli.main"),
        "rng.normals": normals,
        "rng.self_s": rng_self,
        "harness.generate_operator.self_s": self_s("harness.generate_operator"),
        "harness.emit.s": emit,
        "harness.emit.bytes": emit_bytes,
        "nuclear_blocks.trace_norm.calls": units("nuclear_blocks.trace_norm"),
        "nuclear_blocks.trace_norm.self_s": self_s("nuclear_blocks.trace_norm"),
        "lapack.svd_block.calls": units("lapack.svd_block"),
        "lapack.svd_block.s": total("lapack.svd_block"),
        "lapack.cond.s": total("lapack.cond"),
        "lapack.inv.s": total("lapack.inv"),
        "lapack.residual.s": total("lapack.residual"),
        "lapack.eigvals.calls": units("lapack.eigvals"),
        "cd_operator.fit_envelope.calls": units("cd_operator.fit_envelope"),
        "cd_operator.fit_envelope.self_s": self_s("cd_operator.fit_envelope"),
        "cd_operator.invert_one_plus.self_s": self_s("cd_operator.invert_one_plus"),
        "cd_operator.densify.s": total("cd_operator.densify"),
        "cd_operator.apply.s": total("cd_operator.apply"),
        "blocking_kernel.assemble_kernel.s": total("blocking_kernel.assemble_kernel"),
        "blocking_kernel.apply_kernel.s": total("blocking_kernel.apply_kernel"),
        "lattice.calls": counts.get("lattice.calls", 0),
    }
    out = {name: value / n_commands for name, value in per_cmd.items()}
    out["rng.normals_per_s"] = normals / rng_self if rng_self > 0 else 0.0
    out["harness.trial.s_p50"] = statistics.median(
        s.end - s.start for s in trials) if trials else 0.0
    out["harness.pool.busy_frac"] = (
        sum(s.end - s.start for s in trials) / pool_capacity if pool_capacity > 0 else 0.0)
    out["cd_operator.dense_dim"] = max(tracer.dense_dims, default=0)
    out["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    return {name: out[name] for name in PER_LAYER_UNITS}
