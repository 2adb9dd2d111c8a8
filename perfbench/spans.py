"""Span tracing for the benchmark's traced run, and per-layer metrics from spans.

The tracer wraps, from outside the program, every public function of each
haar-coherence module (the layer is the module name), the RngStream draw
methods, the engine's `run_chunked` plus the task it is handed, and the
`numpy.linalg` kernels the program calls. Spans are kept in memory; each has
a name, start and end, the span that caused it, the thread and the CLI
invocation it belongs to.
"""

import functools
import inspect
import itertools
import threading
import time
from collections import defaultdict, namedtuple

# size/count carry the work a span did: matrix order and batch for kernels,
# draws for the RNG, threads and samples for run_chunked.
Span = namedtuple("Span", "sid name start end parent thread invocation size count")

SELF_TIME_LAYERS = ("cli", "verification", "oracles", "closed_forms", "estimators",
                    "sampling", "coherence", "linalg")
KERNELS = ("eigh", "eigvalsh", "qr")
EIGH_SIZES = (2, 4, 8, 16, 32)


def _matrix_work(args, kwargs):
    shape = getattr(args[0], "shape", (0, 0))
    batch = 1
    for extent in shape[:-2]:
        batch *= extent
    return shape[-1], batch


def _draws(args, kwargs):
    return 0, args[1]


class Tracer:
    def __init__(self):
        self.spans = []
        self.invocation = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._engine = None     # open run_chunked span, parent of pool-thread spans
        self._restore = []

    def _stack(self):
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, name, fn, work=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else self._engine
            sid = next(self._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                size, count = work(args, kwargs) if work else (0, 0)
                self.spans.append(Span(sid, name, start, end, parent, threading.get_ident(),
                                       self.invocation, size, count))
        return traced

    def _engine_call(self, run_chunked):
        signature = inspect.signature(run_chunked)

        def run(task, *args, **kwargs):
            self._engine = self._stack()[-1]
            try:
                return run_chunked(self.wrap("estimators.task", task), *args, **kwargs)
            finally:
                self._engine = None

        def work(args, kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            return bound.arguments["threads"], bound.arguments["total_samples"]

        return self.wrap("estimators.run_chunked", run, work)

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, modules, rng_class, linalg_module):
        """Wrap the public functions of `modules`, rebinding every module-level
        name that refers to one, so `from x import f` call sites are traced too."""
        for module in modules:
            layer = module.__name__.rsplit(".", 1)[-1]
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_") or isinstance(obj, type) or not callable(obj)
                        or getattr(obj, "__module__", None) != module.__name__):
                    continue
                if attr == "run_chunked":
                    traced = self._engine_call(obj)
                else:
                    traced = self.wrap(f"{layer}.{attr}", obj)
                for other in modules:
                    for name, value in list(vars(other).items()):
                        if value is obj:
                            self._set(other, name, traced)
        self._set(rng_class, "__init__", self.wrap("sampling.RngStream.__init__",
                                                   rng_class.__init__))
        self._set(rng_class, "complex_normal", self.wrap("sampling.RngStream.complex_normal",
                                                         rng_class.complex_normal, _draws))
        self._set(rng_class, "exponential", self.wrap("sampling.RngStream.exponential",
                                                      rng_class.exponential))
        for kernel in KERNELS:
            self._set(linalg_module, kernel, self.wrap(f"kernel.{kernel}",
                                                       getattr(linalg_module, kernel),
                                                       _matrix_work))

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)


def _covered(intervals, start, end):
    """Length of [start, end] covered by the union of `intervals`."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def layer_metrics(spans, passes, check_names):
    """Per-layer metrics of `passes` traced passes, as values per pass.

    A span's self time is its duration minus the part of it that its child
    spans cover; a layer's self time sums its spans' self times.
    """
    by_sid = {s.sid: s for s in spans}
    children = defaultdict(list)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
        if s.parent is not None:
            children[s.parent].append(s)

    def duration(name):
        return sum(s.end - s.start for s in by_name.get(name, ()))

    def count(name):
        return len(by_name.get(name, ()))

    def ratio(numerator, denominator, scale=1.0):
        return scale * numerator / denominator if denominator else 0.0

    self_time = defaultdict(float)
    for s in spans:
        covered = _covered([(c.start, c.end) for c in children.get(s.sid, ())], s.start, s.end)
        self_time[s.name.split(".")[0]] += (s.end - s.start) - covered

    engine = by_name.get("estimators.run_chunked", ())
    task_s = duration("estimators.task")
    overhead_s = sum((s.end - s.start) - _covered(
        [(c.start, c.end) for c in children.get(s.sid, ()) if c.name == "estimators.task"],
        s.start, s.end) for s in engine)
    pool_s = sum(s.size * (s.end - s.start) for s in engine)

    states = [s for s in spans if s.name.startswith("coherence.")
              and not by_sid.get(s.parent, s).name.startswith("coherence.")]
    draws = sum(s.count for s in by_name.get("sampling.RngStream.complex_normal", ()))

    m = {
        "sampling.complex_normal_ns": ratio(duration("sampling.RngStream.complex_normal"),
                                            draws, 1e9),
        "sampling.draws": draws / passes,
        "sampling.stream_init_us": ratio(duration("sampling.RngStream.__init__"),
                                         count("sampling.RngStream.__init__"), 1e6),
        "sampling.streams": count("sampling.RngStream.__init__") / passes,
        "sampling.hs_mixed_s": duration("sampling.hs_mixed_batch") / passes,
        "sampling.haar_unitary_s": duration("sampling.haar_unitary_batch") / passes,
        "estimators.chunks": count("estimators.task") / passes,
        "estimators.overhead_s": overhead_s / passes,
        "estimators.task_s": task_s / passes,
        "estimators.parallel_efficiency": ratio(task_s, pool_s),
        "oracles.twirl_mc_s": duration("oracles.twofold_twirl_mc") / passes,
        "oracles.spectral_mc_s": duration("oracles.trace_sqrt_squared_mc") / passes,
        "oracles.vandermonde_mc_s": duration("oracles.vandermonde_sqrt_integral_mc") / passes,
        "oracles.quadrature_table_s": duration("oracles.quadrature_moment_table") / passes,
        "coherence.calls": len(states) / passes,
        "coherence.per_state_us": ratio(sum(s.end - s.start for s in states), len(states), 1e6),
        "linalg.sqrt_psd_us": ratio(duration("linalg.sqrt_psd"), count("linalg.sqrt_psd"), 1e6),
        "closed_forms.series_table_s": duration("closed_forms.moment_table") / passes,
        "closed_forms.bracket_s": duration("closed_forms.moment_bracket") / passes,
    }
    for kernel in KERNELS:
        m[f"kernel.{kernel}_s"] = duration(f"kernel.{kernel}") / passes
    for n in EIGH_SIZES:
        sized = [s for s in by_name.get("kernel.eigh", ()) if s.size == n]
        m[f"kernel.eigh_us.n{n}"] = ratio(sum(s.end - s.start for s in sized),
                                          sum(s.count for s in sized), 1e6)
    for name in check_names:
        m[f"verification.{name.removeprefix('check_')}_s"] = (
            duration(f"verification.{name}") / passes)
    for layer in SELF_TIME_LAYERS:
        m[f"{layer}.self_s"] = self_time[layer] / passes
    return m


def attributed_time(spans):
    """Time inside the CLI entry point spent in a span of a layer other than
    `cli`; the rest is argument parsing, output and other unwrapped code."""
    below = [(s.start, s.end) for s in spans if not s.name.startswith("cli.")]
    return sum(_covered(below, s.start, s.end) for s in spans if s.name == "cli.main")


def write_spans(path, spans):
    """Write every span as one CSV line."""
    with open(path, "w", encoding="utf-8") as out:
        out.write("sid,name,start,end,parent,thread,invocation,size,count\n")
        for s in spans:
            out.write(",".join(map(str, s)) + "\n")
