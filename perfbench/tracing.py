"""In-memory span tracer for the traced benchmark run.

The tracer replaces the public functions of each ``hamtomo`` module with
wrappers, in every module that bound them (``hamtomo.harness`` imported
``optimize_frequencies`` from ``hamtomo.estimator``, so both names are
wrapped), which turns nested calls into child spans.  It is installed around
one op at a time and removed afterwards, so untraced ops run the original
functions.  A span's self time is its duration minus the time its children
cover; the run is single-threaded, so children never overlap.
"""

from collections import Counter, defaultdict
import importlib
import inspect
import json
import statistics
import sys
from time import perf_counter

LAYERS = ("harness", "experiment", "spectral", "estimator", "kernels",
          "reconstruction", "control", "model")
ROOT = "bench.op"


# -- hooks: count work at the span boundary; ``a`` holds the bound arguments

def _draws_fixed(tr, parent, a, result):
    # one multinomial outcome per shot, per sample time, per prepared state
    tr.counts["experiment.draws"] += 4 * a["plan"].n_samples * a["plan"].shots


def _draws_two_step(tr, parent, a, result):
    tr.counts["experiment.draws"] += a["plan"].n_samples * a["plan"].shots


def _spectrum(tr, parent, a, result):
    grid = int(result.omegas.size)
    rows, n = a["traces"].flat_data().shape
    tr.counts["spectral.grid_points"] += grid
    tr.counts["spectral.macs"] += rows * n * grid


def _peaks(tr, parent, a, result):
    tr.counts["spectral.find_peaks.calls"] += 1
    tr.counts["spectral.six_peaks"] += int(result.size == 6)


def _optimize(tr, parent, a, result):
    if parent == "estimator.refine_degenerate":
        tr.counts["estimator.split_candidates"] += 1
    else:
        tr.counts["estimator.top_level_fits"] += 1


def _refine(tr, parent, a, result):
    tr.counts["estimator.split_accepted"] += result.n_frequencies - a["fit"].n_frequencies


def _gauge(tr, parent, a, result):
    tr.counts["control.gauge_fits"] += 1
    tr.counts["control.low_confidence"] += int("low-confidence" in result.flags)


def _bfgs(layer):
    def hook(tr, result):
        tr.counts[f"{layer}.bfgs_runs"] += 1
        tr.counts[f"{layer}.bfgs_iterations"] += int(result.nit)
        tr.counts[f"{layer}.bfgs_fevals"] += int(result.nfev)
        tr.counts[f"{layer}.bfgs_jevals"] += int(result.njev)
        tr.counts[f"{layer}.bfgs_clean"] += int(result.success or result.status == 99)
    return hook


# (defining module, function, hook): timed spans around the public functions
# whose time the layer metrics name; helpers that a span of the same layer
# calls stay inside their caller's self time
SPANS = (
    ("harness", "run_pipeline", None),
    ("harness", "run_cell", None),
    ("experiment", "run_fixed_basis", _draws_fixed),
    ("experiment", "run_two_step", _draws_two_step),
    ("spectral", "power_spectrum", _spectrum),
    ("spectral", "find_peaks", _peaks),
    ("estimator", "optimize_frequencies", _optimize),
    ("estimator", "refine_degenerate", _refine),
    ("kernels", "power_rows", None),
    ("kernels", "gram_and_projections", None),
    ("reconstruction", "reconstruct", None),
    ("reconstruction", "gauge_compensated_error", None),
    ("control", "full_tomography", None),
    ("control", "select_balanced_time", None),
    ("control", "estimate_gauge_phases", _gauge),
    ("model", "signal_model_of", None),
)

# spans whose inclusive time per op is reported too, to give stage shares
INCLUSIVE = ("harness.run_cell", "harness.run_pipeline", "spectral.power_spectrum",
             "estimator.optimize_frequencies", "estimator.refine_degenerate",
             "reconstruction.reconstruct", "control.full_tomography",
             "control.estimate_gauge_phases")

# (module whose binding is replaced, name, counter, hook(tracer, result)):
# counted, not timed, because they run thousands of times per op or belong to
# another package
COUNTED = (
    ("kernels", "design_matrix", "kernels.design_matrix.calls", None),
    ("model", "eigendecompose", "model.eigendecompose.calls", None),
    ("experiment", "eigendecompose", "model.eigendecompose.calls", None),
    ("control", "eigendecompose", "model.eigendecompose.calls", None),
    ("estimator", "minimize", None, _bfgs("estimator")),
    ("control", "minimize", None, _bfgs("control")),
)


class Tracer:
    """Records spans ``[op, id, parent, name, start, end]`` and work counts."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._patches: list[tuple] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "hamtomo" or name.startswith("hamtomo.")]
        for mod_name, fn_name, hook in SPANS:
            original = getattr(importlib.import_module(f"hamtomo.{mod_name}"), fn_name)
            wrapper = self._span(f"{mod_name}.{fn_name}", original, hook)
            for module in modules:
                if vars(module).get(fn_name) is original:
                    self._patch(module, fn_name, wrapper)
        for mod_name, fn_name, counter, hook in COUNTED:
            module = importlib.import_module(f"hamtomo.{mod_name}")
            self._patch(module, fn_name,
                        self._counter(getattr(module, fn_name), counter, hook))

    def uninstall(self) -> None:
        while self._patches:
            module, name, original = self._patches.pop()
            setattr(module, name, original)

    def _patch(self, module, name, wrapper) -> None:
        self._patches.append((module, name, getattr(module, name)))
        setattr(module, name, wrapper)

    def _span(self, name, fn, hook):
        signature = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            sid = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(sid)
            if hook is not None:
                bound = signature.bind(*args, **kwargs).arguments
                parent = self.spans[sid][2]
                hook(self, self.spans[parent][3] if parent >= 0 else None, bound, result)
            return result

        return wrapper

    def _counter(self, fn, counter, hook):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if counter is not None:
                self.counts[counter] += 1
            if hook is not None:
                hook(self, result)
            return result

        return wrapper

    # -- spans ------------------------------------------------------------

    def begin(self, name: str) -> int:
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([self.op, sid, parent, name, perf_counter(), None])
        self.stack.append(sid)
        return sid

    def end(self, sid: int) -> None:
        self.spans[sid][5] = perf_counter()
        self.stack.pop()

    def times(self) -> tuple[dict, dict]:
        """Total self and inclusive time per span name, over every span.

        No traced function calls itself, so inclusive times never count an
        interval twice.
        """
        covered = defaultdict(float)
        for _, _, parent, _, start, end in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        selfs = defaultdict(float)
        inclusive = defaultdict(float)
        for _, sid, _, name, start, end in self.spans:
            selfs[name] += (end - start) - covered[sid]
            inclusive[name] += end - start
        return selfs, inclusive

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, traced_times: list, untraced_times: list,
                  cells: int, arrangement_ok: int) -> dict:
    """Per-op layer metrics from the spans and counts of the traced ops.

    ``traced_times`` and ``untraced_times`` are the two timings of each op;
    ``cells`` and ``arrangement_ok`` count the fixed-basis cells the ops
    produced and those whose level arrangement matched the truth.  A ratio
    whose base is zero on a workload reads 0.
    """
    selfs, inclusive = tracer.times()
    c = tracer.counts
    n_ops = len(traced_times)
    per_op = lambda x: x / n_ops  # noqa: E731
    out = {f"{layer}.self_s": per_op(sum(v for k, v in selfs.items()
                                         if k.split(".")[0] == layer))
           for layer in LAYERS + ("bench",)}
    for mod_name, fn_name, _ in SPANS:
        name = f"{mod_name}.{fn_name}"
        out[f"{name}.s"] = per_op(selfs.get(name, 0.0))
    for name in INCLUSIVE:
        out[f"{name}.total_s"] = per_op(inclusive.get(name, 0.0))
    for key in ("experiment.draws", "spectral.grid_points", "spectral.macs",
                "kernels.design_matrix.calls", "model.eigendecompose.calls",
                "estimator.split_candidates",
                "estimator.bfgs_runs", "estimator.bfgs_iterations",
                "estimator.bfgs_fevals", "estimator.bfgs_jevals",
                "control.bfgs_iterations", "control.bfgs_fevals", "control.bfgs_jevals"):
        out[key] = per_op(c[key])
    runs_cell = sum(1 for s in tracer.spans if s[3] == "harness.run_cell")
    out["harness.fits_per_cell"] = _ratio(c["estimator.top_level_fits"], runs_cell)
    out["estimator.posterior_evals"] = per_op(
        sum(1 for s in tracer.spans if s[3] == "kernels.gram_and_projections"))
    out["spectral.six_peak_ratio"] = _ratio(c["spectral.six_peaks"],
                                            c["spectral.find_peaks.calls"])
    out["estimator.bfgs_clean_ratio"] = _ratio(c["estimator.bfgs_clean"],
                                               c["estimator.bfgs_runs"])
    out["estimator.split_accepted_ratio"] = _ratio(c["estimator.split_accepted"],
                                                   c["estimator.split_candidates"])
    out["reconstruction.arrangement_ok_ratio"] = _ratio(arrangement_ok, cells)
    out["control.low_confidence_ratio"] = _ratio(c["control.low_confidence"],
                                                 c["control.gauge_fits"])
    out["trace.spans_per_op"] = per_op(len(tracer.spans))
    out["trace.op_s_mean"] = per_op(sum(traced_times))
    out["trace.self_sum_s"] = sum(v for k, v in out.items() if k.endswith(".self_s"))
    out["trace.op_s_p50"] = statistics.median(traced_times)
    out["trace.untraced_op_s_p50"] = statistics.median(untraced_times)
    out["trace.overhead_s"] = out["trace.op_s_p50"] - out["trace.untraced_op_s_p50"]
    return dict(sorted(out.items()))


def unit_of(name: str) -> str:
    if name.endswith("_ratio") or name == "harness.fits_per_cell":
        return "ratio"
    if name.endswith((".s", "_s")) or "op_s" in name:
        return "s"
    return "count"
