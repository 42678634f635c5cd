"""Outside-in layer tracing for curvkit.

The tracer wraps functions from outside the package: every public function
of each curvkit module, the two methods of `means.Mean`, the dense
`numpy.linalg` / `scipy.linalg` routines curvkit calls, and
`scipy.optimize.minimize`.  A wrapped function is replaced under every name
that refers to it in the curvkit modules, so calls made through
`from .gamma import cd_quadratic` are seen as well.  `uninstall` restores
the originals.

Per key the tracer keeps a call count, the inclusive time (outermost call
only, so recursion and nested members of a group are not counted twice) and
the self time (inclusive time minus the time of wrapped calls nested inside).
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict

#: curvkit modules traced as layers, in import order
LAYERS = ("chain", "means", "gamma", "curvature", "heat", "geometry",
          "optimal", "cli")

#: dense linear algebra entry points: (module path, attribute, layer key)
LINALG = (("numpy.linalg", "eigh", "linalg.eigh"),
          ("numpy.linalg", "eigvalsh", "linalg.eigvalsh"),
          ("numpy.linalg", "solve", "linalg.solve"),
          ("numpy.linalg", "lstsq", "linalg.lstsq"),
          ("numpy.linalg", "qr", "linalg.qr"),
          ("scipy.linalg", "eigh", "linalg.eigh"))

#: calls of an inner key counted while an outer key is active
NESTED = (("geometry.d_gamma", "linalg.solve"),)


def _groups(key: str) -> tuple[str, ...]:
    """Aggregate keys a layer key also reports to."""
    if key.startswith("linalg."):
        return ("linalg",)
    if key.startswith("geometry.check_"):
        return ("geometry.checks",)
    if key.startswith("heat.verify_"):
        return ("heat.verify",)
    return ()


class Tracer:
    """Counters and timers for wrapped calls; create one per traced round."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.incl = defaultdict(float)
        self.self_s = defaultdict(float)
        self.extra = defaultdict(float)   # nfev, n^3, nested call counts
        self._depth = defaultdict(int)
        self._child = []                  # time of wrapped children, per frame
        self._patches = []                # (namespace, attribute, original)

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, key: str, fn, on_call=None, on_result=None):
        keys = (key,) + _groups(key)
        nested = [outer for outer, inner in NESTED if inner == key]
        clock = time.perf_counter
        depth, child = self._depth, self._child

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[key] += 1
            for outer in nested:
                if depth[outer]:
                    self.extra[f"{outer}>{key}"] += 1
            if on_call is not None:
                on_call(self, args)
            for k in keys:
                depth[k] += 1
            child.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                inner = child.pop()
                self.self_s[key] += dt - inner
                if child:
                    child[-1] += dt
                for k in keys:
                    depth[k] -= 1
                    if not depth[k]:
                        self.incl[k] += dt
            if on_result is not None:
                on_result(self, result)
            return result

        return wrapper

    def _patch(self, namespace, attr, wrapper):
        self._patches.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, wrapper)

    def install(self, curvkit) -> None:
        """Wrap the curvkit layers and the outside layers they call."""
        import importlib

        modules = [importlib.import_module(f"curvkit.{name}") for name in LAYERS]
        namespaces = [curvkit] + modules
        for name, mod in zip(LAYERS, modules):
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapper = self._wrap(f"{name}.{attr}", fn)
                for ns in namespaces:
                    if vars(ns).get(attr) is fn:
                        self._patch(ns, attr, wrapper)
        mean_cls = modules[LAYERS.index("means")].Mean
        for attr in ("value", "d1"):
            self._patch(mean_cls, attr,
                        self._wrap(f"means.{attr}", getattr(mean_cls, attr)))

        for mod_name, attr, key in LINALG:
            mod = importlib.import_module(mod_name)
            self._patch(mod, attr, self._wrap(key, getattr(mod, attr),
                                              on_call=_count_n3))
        import scipy.optimize
        self._patch(scipy.optimize, "minimize",
                    self._wrap("optimize.minimize", scipy.optimize.minimize,
                               on_result=_count_nfev))

    def uninstall(self) -> None:
        while self._patches:
            namespace, attr, original = self._patches.pop()
            setattr(namespace, attr, original)


def _count_n3(tracer: Tracer, args) -> None:
    shape = getattr(args[0], "shape", ()) if args else ()
    if len(shape) >= 2:
        tracer.extra["linalg.n3_computed"] += float(max(shape[-2:])) ** 3


def _count_nfev(tracer: Tracer, result) -> None:
    tracer.extra["optimize.nfev"] += int(getattr(result, "nfev", 0))
    tracer.extra["optimize.returned"] += 1
