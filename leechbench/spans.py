"""Spans around calls into leechsolve's modules, recorded from outside.

`Tracer.install` replaces each public function named in LAYERS by a wrapper
that records a span, at every module attribute through which callers reach
that function (the defining module, the package namespace and every module
that imported the name).  `Tracer.remove` puts the originals back.  Spans are
kept in memory as (name, start_ns, end_ns, parent index) and written out when
the run ends.  A span's self time is its duration minus that of its children.
"""

import functools
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "leechsolve"

# span name -> (module, attribute names).  A name with several attributes
# groups them into one span name.
LAYERS = {
    "linalg.is_schur_stable": ("linalg", ["is_schur_stable"]),
    "linalg.solve_hermitian": ("linalg", ["solve_hermitian"]),
    "linalg.spectral_norm": ("linalg", ["spectral_norm"]),
    "linalg.minimal_rank_factor": ("linalg", ["minimal_rank_factor"]),
    "riccati.stabilizing_riccati": ("riccati", ["stabilizing_riccati"]),
    "riccati.solve_stein": ("riccati", ["solve_stein"]),
    "riccati.is_observable": ("riccati", ["is_observable"]),
    "core.validate": ("core", ["validate"]),
    "core.gramians": ("core", ["gramians"]),
    "core.theta0": ("core", ["theta0"]),
    "core.delta_matrices": ("core", ["delta_matrices"]),
    "core.solve": ("core", ["solve"]),
    "realization.evaluate": ("realization", ["evaluate"]),
    "realization.hinf_norm_estimate": ("realization", ["hinf_norm_estimate"]),
    "realization.compose": ("realization", ["product", "add", "inverse", "hconcat", "vconcat"]),
    "coefficients.build_upsilon": ("coefficients", ["build_upsilon"]),
    "coefficients.check_parameter": ("coefficients", ["check_parameter"]),
    "coefficients.apply_lft": ("coefficients", ["apply_lft"]),
    "coefficients.build_redheffer": ("coefficients", ["build_redheffer"]),
    "coefficients.solution_report": ("coefficients", ["solution_report"]),
    "coefficients.j_inner_defect": ("coefficients", ["j_inner_defect"]),
    "toeplitz.lower_block_toeplitz": ("toeplitz", ["lower_block_toeplitz"]),
    "toeplitz.oracle_upsilon": ("toeplitz", ["oracle_upsilon"]),
    "toeplitz.theta0_defect_oracle": ("toeplitz", ["theta0_defect_oracle"]),
    "generate.random_problem": ("generate", ["random_problem"]),
    "generate.random_contraction": ("generate", ["random_contraction"]),
    "files.read": ("files", ["load", "read_problem", "read_realization", "read_solution"]),
    "files.write": ("files", ["dump", "write_problem", "write_realization", "write_solution"]),
    "cli.main": ("cli", ["main"]),
}

# OracleContext: construction and its cached properties, wherever first touched.
ORACLE_CONTEXT = "toeplitz.OracleContext"
ORACLE_PROPERTIES = ("gram", "core", "margin", "gram_margin", "core_inv", "gram_inv",
                     "lam", "ill_inv")

# counters read from return values: span name -> (counter name, function)
RETURN_COUNTS = {
    "riccati.stabilizing_riccati": ("riccati.iterations", lambda sol: sol.iterations),
    "coefficients.apply_lft": ("coefficients.apply_lft.x_states", lambda X: X.state_dim),
    "generate.random_problem": ("generate.random_problem.attempts",
                                lambda out: out[1]["attempt"]),
}

OP = "op"


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self._undo = []

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span called name."""
        index = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(index)
        start = time.perf_counter_ns()
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            self.counts[name + ".raised"] += 1
            raise
        finally:
            end = time.perf_counter_ns()
            self.stack.pop()
            self.spans[index] = (name, start, end, parent)
        counter = RETURN_COUNTS.get(name)
        if counter is not None:
            self.counts[counter[0]] += counter[1](out)
        return out

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)
        return traced

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        modules = [mod for key, mod in list(sys.modules.items())
                   if mod is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for name, (module, attrs) in LAYERS.items():
            home = sys.modules[f"{PACKAGE}.{module}"]
            for attr in attrs:
                original = getattr(home, attr)
                wrapper = self._wrap(name, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._set(mod, key, wrapper)
        cls = sys.modules[f"{PACKAGE}.toeplitz"].OracleContext
        self._set(cls, "__init__", self._wrap(ORACLE_CONTEXT, cls.__init__))
        for attr in ORACLE_PROPERTIES:
            prop = functools.cached_property(self._wrap(ORACLE_CONTEXT, cls.__dict__[attr].func))
            prop.__set_name__(cls, attr)
            self._set(cls, attr, prop)

    def remove(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def summary(self):
        """Per-name call counts and self times (ms) of the spans."""
        child_ns = defaultdict(int)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls = Counter()
        self_ms = defaultdict(float)
        for index, (name, start, end, parent) in enumerate(self.spans):
            calls[name] += 1
            self_ms[name] += (end - start - child_ns[index]) / 1e6
        return calls, self_ms

    def export(self):
        """The spans as a JSON-ready object, names stored once."""
        names = sorted({s[0] for s in self.spans})
        index = {name: i for i, name in enumerate(names)}
        return {"names": names,
                "fields": ["name", "start_ns", "end_ns", "parent"],
                "spans": [[index[n], s, e, p] for n, s, e, p in self.spans],
                "counts": dict(self.counts)}
