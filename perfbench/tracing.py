"""In-memory span tracer that wraps the public functions of each layer.

A traced run rebinds every listed function in every ``ergolift`` module
that holds it by name (``from .multibody import kinematics`` copies the
reference, so patching only the defining module would miss those
callers).  Each call records one span ``(name, start, end, parent,
request)``; spans stay in memory until the run writes them out.

Layers are the package modules; a span's layer is the module that
defines the wrapped function.  A layer's self time is the summed
duration of its spans minus the part of each covered by direct child
spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (module, attribute) pairs; "Class.method" rebinds a method on its class
TRACED = (
    ("templates", "build_humanoid"),
    ("templates", "build_payload"),
    ("scenario", "make_scenario"),
    ("scenario", "build_system"),
    ("scenario", "warm_start_configuration"),
    ("ergoopt", "assemble_nlp"),
    ("ergoopt", "warm_start_vector"),
    ("ergoopt", "solve"),
    ("ergoopt", "ErgoProblem.value"),
    ("ergoopt", "ErgoProblem.value_and_derivatives"),
    ("ergoopt", "ErgoProblem.hessian"),
    ("nlpsolver", "solve_nlp"),
    ("nlpsolver", "kkt_residual"),
    ("coupled", "evaluate_statics"),
    ("coupled", "statics_minnorm"),
    ("coupled", "static_torques"),
    ("coupled", "contact_wrenches"),
    ("multibody", "kinematics"),
    ("multibody", "frame_jacobian"),
    ("multibody", "mass_matrix"),
    ("multibody", "gravity_vector"),
)

PACKAGE = "ergolift"
LAYERS = ("templates", "scenario", "ergoopt", "nlpsolver", "coupled",
          "multibody")
# refusals by design: the contact set cannot be analysed as posed
REFUSALS = ("SingularConstraintError", "UnloadedFootError")


class Tracer:
    """Records spans for the functions in ``TRACED`` while installed."""

    def __init__(self):
        self.spans = []        # [name, start, end, parent, request, error]
        self.request = -1
        self._stack = []
        self._patches = []     # (owner, attribute, original)

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1,
                    self.request, None]
            index = len(spans)
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                span[5] = type(exc).__name__
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
        return traced

    def install(self):
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == PACKAGE
                                         or k.startswith(PACKAGE + "."))]
        for mod_name, attr in TRACED:
            mod = sys.modules[f"{PACKAGE}.{mod_name}"]
            name = f"{mod_name}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                original = cls.__dict__[meth]
                self._patches.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, original))
                continue
            original = getattr(mod, attr)
            wrapped = self._wrap(name, original)
            for holder in modules:
                if getattr(holder, attr, None) is original:
                    self._patches.append((holder, attr, original))
                    setattr(holder, attr, wrapped)
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent",
                                  "request", "error"],
                       "spans": self.spans}, fh)


def layer_of(span_name):
    return span_name.split(".", 1)[0]


def summarize(spans, requests):
    """Per-layer self time and per-function totals over request spans.

    Only spans with a request id in ``requests`` count, so set-up and
    warm-up calls stay out of per-request figures.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child_time[s[3]] += s[2] - s[1]
    per_fn = {}
    self_time = {layer: 0.0 for layer in LAYERS}
    errors = {}
    for i, s in enumerate(spans):
        if s[4] not in requests:
            continue
        dur = s[2] - s[1]
        calls, total = per_fn.get(s[0], (0, 0.0))
        per_fn[s[0]] = (calls + 1, total + dur)
        self_time[layer_of(s[0])] += dur - child_time[i]
        if s[5] is not None:
            errors[(s[0], s[5])] = errors.get((s[0], s[5]), 0) + 1
    return per_fn, self_time, errors


def solve_tails(spans, requests):
    """Per ``ergoopt.solve`` span: seconds from ``solve_nlp`` return to end."""
    last_nlp_end = {}
    for s in spans:
        if s[0] == "nlpsolver.solve_nlp" and s[3] >= 0:
            last_nlp_end[s[3]] = s[2]
    return [s[2] - last_nlp_end[i] for i, s in enumerate(spans)
            if s[0] == "ergoopt.solve" and s[4] in requests
            and i in last_nlp_end]
