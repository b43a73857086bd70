"""Per-layer counts and self times, gathered from outside homlie.

The traced run replaces a fixed set of public functions, methods and
classes of homlie's modules with wrappers that count calls and add up
self time: the function's own time minus the time spent in wrapped
callees.  Every name a function is reachable under inside the package
is wrapped (``flow.ricci_operator`` is ``curvature.ricci_operator``), so
calls between modules are seen.  Private functions are not wrapped.
Nothing is written while the run goes; ``Tracer.metrics`` reports at
the end.  The timed runs never install the wrappers.
"""

import functools
import importlib
import time

# (metric prefix, module, attribute or Class.method); a class is traced
# through its __init__, so its counts are constructions.
TRACED = (
    ("polyjet.PolySpace", "homlie.polyjet", "PolySpace.__init__"),
    ("polyjet.PolySpace.mul", "homlie.polyjet", "PolySpace.mul"),
    ("polyjet.PolySpace.diff", "homlie.polyjet", "PolySpace.diff"),
    ("coordinates.metric_jet", "homlie.coordinates", "metric_jet"),
    ("coordinates.curvature_derivatives", "homlie.coordinates", "curvature_derivatives"),
    ("curvature.fingerprint", "homlie.curvature", "fingerprint"),
    ("curvature.invariant_distance", "homlie.curvature", "invariant_distance"),
    ("curvature.rotate_tensor", "homlie.curvature", "rotate_tensor"),
    ("curvature.expm", "homlie.curvature", "expm"),
    ("curvature.least_squares", "homlie.curvature", "least_squares"),
    ("curvature.riemann_origin", "homlie.curvature", "riemann_origin"),
    ("curvature.ricci_operator", "homlie.curvature", "ricci_operator"),
    ("brackets.Bracket", "homlie.brackets", "Bracket.__init__"),
    ("brackets.check_membership", "homlie.brackets", "check_membership"),
    ("flow.integrate", "homlie.flow", "integrate"),
    ("flow.soliton_residual", "homlie.flow", "soliton_residual"),
    ("classify.isometry_test", "homlie.classify", "isometry_test"),
    ("cli.main", "homlie.cli", "main"),
)

MODULES = ("homlie", "homlie.brackets", "homlie.polyjet", "homlie.coordinates",
           "homlie.curvature", "homlie.flow", "homlie.classify", "homlie.cli")

# The per-layer metrics of BENCHMARK.json: (name, unit, better).
PER_LAYER = [
    ("polyjet.PolySpace.calls", "count", "lower"),
    ("polyjet.PolySpace.self_ms", "ms", "lower"),
    ("polyjet.PolySpace.mul.calls", "count", "lower"),
    ("polyjet.PolySpace.mul.self_ms", "ms", "lower"),
    ("polyjet.PolySpace.diff.self_ms", "ms", "lower"),
    ("coordinates.metric_jet.calls", "count", "lower"),
    ("coordinates.metric_jet.self_ms", "ms", "lower"),
    ("coordinates.curvature_derivatives.self_ms", "ms", "lower"),
    ("curvature.fingerprint.calls", "count", "lower"),
    ("curvature.fingerprint.self_ms", "ms", "lower"),
    ("curvature.invariant_distance.self_ms", "ms", "lower"),
    ("curvature.rotate_tensor.calls", "count", "lower"),
    ("curvature.rotate_tensor.self_ms", "ms", "lower"),
    ("curvature.expm.self_ms", "ms", "lower"),
    ("curvature.least_squares.self_ms", "ms", "lower"),
    ("curvature.riemann_origin.calls", "count", "lower"),
    ("curvature.riemann_origin.self_ms", "ms", "lower"),
    ("curvature.ricci_operator.calls", "count", "lower"),
    ("brackets.Bracket.calls", "count", "lower"),
    ("brackets.Bracket.self_ms", "ms", "lower"),
    ("brackets.check_membership.calls", "count", "lower"),
    ("brackets.check_membership.self_ms", "ms", "lower"),
    ("flow.integrate.self_ms", "ms", "lower"),
    ("flow.rhs_evals", "count", "lower"),
    ("flow.accepted_steps", "count", "lower"),
    ("flow.step_acceptance", "ratio", "higher"),
    ("flow.soliton_residual.calls", "count", "lower"),
    ("flow.soliton_residual.self_ms", "ms", "lower"),
    ("classify.isometry_test.self_ms", "ms", "lower"),
    ("cli.main.self_ms", "ms", "lower"),
]

# Dormand-Prince 5(4) as flow.integrate runs it: one right-hand side
# evaluation at the start, six per attempted step and one per accepted
# step.  Every sample it records (one at the start, then one per
# accepted step with the CLI's stride of 1) calls ricci_operator once.
STAGES_PER_ATTEMPT = 6


class _Counter:
    __slots__ = ("calls", "self_s")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0


class Tracer:
    """Installs the wrappers; counts only while ``active`` is true."""

    def __init__(self):
        self.active = False
        self.counters = {name: _Counter() for name, _, _ in TRACED}
        self._stack = []          # [name, time spent in wrapped callees]
        self._undo = []
        self.flow_runs = 0
        self.flow_samples = 0
        self.flow_ricci_calls = 0  # ricci_operator called by integrate itself

    def _wrap(self, name, fn, alias_of_flow=False):
        counter = self.counters[name]
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if alias_of_flow and stack and stack[-1][0] == "flow.integrate":
                self.flow_ricci_calls += 1
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                stack.pop()
                counter.calls += 1
                counter.self_s += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if name == "flow.integrate":
                self.flow_runs += 1
                self.flow_samples += len(result.samples)
            return result

        return wrapper

    def install(self):
        modules = {m: importlib.import_module(m) for m in MODULES}
        for name, home, attr in TRACED:
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(modules[home], cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(name, original))
                self._undo.append((cls, meth, original))
                continue
            original = getattr(modules[home], attr)
            for mod in modules.values():
                if getattr(mod, attr, None) is original:
                    alias = mod.__name__ == "homlie.flow" and attr == "ricci_operator"
                    setattr(mod, attr, self._wrap(name, original, alias))
                    self._undo.append((mod, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def metrics(self, rounds):
        """Every PER_LAYER metric, per pass through the workload's round."""
        def per_round(value):
            value = value / rounds
            return int(value) if float(value).is_integer() else value

        values = {}
        for name, counter in self.counters.items():
            values[f"{name}.calls"] = per_round(counter.calls)
            values[f"{name}.self_ms"] = 1e3 * counter.self_s / rounds
        rhs = self.flow_ricci_calls - self.flow_samples
        accepted = self.flow_samples - self.flow_runs
        attempted = (rhs - self.flow_runs - accepted) / STAGES_PER_ATTEMPT
        values["flow.rhs_evals"] = per_round(rhs)
        values["flow.accepted_steps"] = per_round(accepted)
        values["flow.step_acceptance"] = accepted / attempted if attempted > 0 else 0.0
        return {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}
