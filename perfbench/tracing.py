"""Spans and counts at the entry points of theta-forge's layers.

The tracer replaces each entry point at the name its caller looks up (a
module attribute) with a wrapper that records a span: name, layer, start,
end, the index of the enclosing span and, for the lattice-sum kernel, the
number of points summed.  Spans stay in memory until the pass ends.

A layer's self time is the sum over its spans of the span's duration minus
the durations of its direct child spans.  Spans of ``theta`` (evaluation,
radius selection, tail bound, lattice construction) form one layer, so
``theta.eval_self_s`` is the evaluator's time outside the kernel;
``theta.radius_s`` and ``theta.lattice_s`` break part of it down.
Multilinear spans inside ``identities.check_exact_layer`` count towards
``exact.s`` and not towards ``multilinear.*``, which covers the float work.

An entry point that no longer exists is listed in ``missing`` and its
metrics read 0; the pass still runs.
"""

from __future__ import annotations

import inspect
import sys
from time import perf_counter

# identity families of the suite, in the order of identities._FAMILIES
FAMILIES = (
    "exact_layer",
    "theta_basics",
    "heat",
    "riemann",
    "rank_vanishing",
    "pairing_permutation",
    "pairing_power",
    "det_remark",
    "gsm",
    "jacobi",
    "main_theorem",
    "audit_astar",
    "audit_w",
)

NAME, LAYER, START, END, PARENT, POINTS = range(6)


class Tracer:
    def __init__(self):
        self.spans = []
        self.missing = []
        self.recording = False
        self._caches = {}
        self.radii = []
        self.tail_args = []
        self.kernel_bytes = 0
        self.words_accepted = 0
        self._stack = []
        self._patches = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, layer, fn, after=None):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            rec = [name, layer, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1, 0]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            rec[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                tracer._stack.pop()
            if after is not None:
                after(rec, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        # lru_cache entry points: callers use cache_info / cache_clear
        for attr in ("cache_info", "cache_clear", "cache_parameters"):
            if hasattr(fn, attr):
                setattr(traced, attr, getattr(fn, attr))
        return traced

    def _patch(self, module, attr, wrapper):
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def _entry(self, module, attr, name, layer, after=None):
        fn = getattr(module, attr, None)
        if fn is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return None
        self._patch(module, attr, self._wrap(name, layer, fn, after))
        return fn

    def _public_functions(self, module, layer, package_modules):
        """Wrap every public function ``module`` defines, in every package
        module whose namespace binds it."""
        for attr, fn in list(vars(module).items()):
            if attr.startswith("_") or not inspect.isfunction(fn):
                continue
            if fn.__module__ != module.__name__:
                continue
            wrapper = self._wrap(f"{layer}.{attr}", layer, fn)
            for mod in package_modules:
                if vars(mod).get(attr) is fn:
                    self._patch(mod, attr, wrapper)

    def install(self):
        """Wrap the entry points of every layer of the imported package."""
        from theta_forge import _kernels, forms, identities, multilinear, theta

        package_modules = [
            m
            for name, m in sys.modules.items()
            if m is not None and (name == "theta_forge" or name.startswith("theta_forge."))
        ]

        # lru_cache entry points: misses are read off cache_info at the end
        for attr, name in (("_eval_cached", "theta.eval"), ("_lattice", "theta.lattice")):
            fn = self._entry(theta, attr, name, "theta")
            if fn is not None:
                self._caches[name] = (fn, fn.cache_info().misses)
        self._entry(
            theta, "_choose_radius", "theta.radius", "theta",
            lambda rec, args, result: self.radii.append(result[0]),
        )
        self._entry(
            theta, "_tail_bound", "theta.tail_bound", "theta",
            lambda rec, args, result: self.tail_args.append(args),
        )

        def after_kernel(rec, args, result):
            P = args[0]
            want_grad = len(args) > 3 and args[3]
            want_dtau = len(args) > 4 and args[4]
            n, g = P.shape
            rec[POINTS] = n
            # per-point arrays of a vectorised sum: points read, one complex
            # term each, and the weighted gradient / tau-derivative terms
            self.kernel_bytes += n * g * 8 + n * 16
            if want_grad:
                self.kernel_bytes += n * g * 16
            if want_dtau:
                self.kernel_bytes += n * g * g * 16

        # theta looks the kernel up as theta.theta_sum, identities' private
        # lattice path as _kernels.theta_sum: one wrapper serves both names
        kernel = getattr(_kernels, "theta_sum", None) or getattr(theta, "theta_sum", None)
        if kernel is None:
            self.missing.append("theta_forge._kernels.theta_sum")
        else:
            wrapper = self._wrap("kernels.sum", "kernels", kernel, after_kernel)
            for mod in (_kernels, theta):
                if getattr(mod, "theta_sum", None) is kernel:
                    self._patch(mod, "theta_sum", wrapper)

        self._public_functions(forms, "forms", package_modules)
        self._public_functions(multilinear, "multilinear", package_modules)

        self._entry(identities, "check_exact_layer", "exact", "exact")

        def after_words(rec, args, result):
            self.words_accepted += len(result)

        self._entry(
            identities, "conditioned_words", "symplectic.words", "symplectic", after_words
        )
        self._entry(identities, "generate_subgroup_element", "symplectic.word", "symplectic")

        families = getattr(identities, "_FAMILIES", None)
        if families is None:
            self.missing.append("theta_forge.identities._FAMILIES")
        else:
            self._patch(
                identities,
                "_FAMILIES",
                tuple(
                    (name, fn if fn is None else self._wrap(f"family.{name}", "identities", fn), gs)
                    for name, fn, gs in families
                ),
            )
        self.recording = True

    def uninstall(self):
        self.recording = False
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    # -- aggregation -------------------------------------------------------

    def metrics(self) -> dict:
        """Layer metrics of the recorded pass; call before the package's
        caches are used again."""
        spans = self.spans
        n = len(spans)
        child_time = [0.0] * n
        in_exact = [False] * n
        for i, s in enumerate(spans):
            p = s[PARENT]
            in_exact[i] = s[NAME] == "exact" or (p >= 0 and in_exact[p])
            if p >= 0:
                child_time[p] += s[END] - s[START]

        def dur(s):
            return s[END] - s[START]

        self_time = {}
        calls = {}
        for i, s in enumerate(spans):
            layer = "exact" if in_exact[i] and s[LAYER] == "multilinear" else s[LAYER]
            self_time[layer] = self_time.get(layer, 0.0) + dur(s) - child_time[i]
            calls[layer] = calls.get(layer, 0) + 1

        def total(name, outer_only_of=()):
            return sum(
                dur(s)
                for s in spans
                if s[NAME] == name and (s[PARENT] < 0 or spans[s[PARENT]][NAME] not in outer_only_of)
            )

        kernels = [s for s in spans if s[NAME] == "kernels.sum"]
        points = sum(s[POINTS] for s in kernels)
        refine = 0
        seen = {}
        for s in kernels:
            p = s[PARENT]
            if p >= 0 and spans[p][NAME] == "theta.eval":
                seen[p] = seen.get(p, 0) + 1
                if seen[p] > 1:
                    refine += s[POINTS]
        kernel_s = sum(dur(s) for s in kernels)

        word_ids = {i for i, s in enumerate(spans) if s[NAME] == "symplectic.words"}
        attempted = sum(
            1 for s in spans if s[NAME] == "symplectic.word" and s[PARENT] in word_ids
        )
        accepted = self.words_accepted

        def misses(name):
            if name not in self._caches:
                return 0
            fn, start = self._caches[name]
            return fn.cache_info().misses - start

        out = {
            "theta.evals": sum(1 for s in spans if s[NAME] == "theta.eval"),
            "theta.eval_misses": misses("theta.eval"),
            "theta.eval_self_s": self_time.get("theta", 0.0),
            "theta.radius_s": total("theta.radius")
            + total("theta.tail_bound", outer_only_of=("theta.radius",)),
            "theta.tail_bound_calls": len(self.tail_args),
            "theta.tail_bound_distinct": len(set(self.tail_args)),
            "theta.radius_mean": sum(self.radii) / len(self.radii) if self.radii else 0.0,
            "theta.lattice_s": total("theta.lattice"),
            "theta.lattice_builds": misses("theta.lattice"),
            "kernels.calls": len(kernels),
            "kernels.points": points,
            "kernels.refine_points": refine,
            "kernels.s": kernel_s,
            "kernels.points_per_s": points / kernel_s if kernel_s > 0 else 0.0,
            "kernels.bytes_computed": self.kernel_bytes,
            "forms.calls": calls.get("forms", 0),
            "forms.self_s": self_time.get("forms", 0.0),
            "multilinear.calls": calls.get("multilinear", 0),
            "multilinear.self_s": self_time.get("multilinear", 0.0),
            "exact.s": total("exact"),
            "symplectic.words_s": total("symplectic.words"),
            "symplectic.words_attempted": attempted,
            "symplectic.words_accepted": accepted,
            "symplectic.word_accept_ratio": accepted / attempted if attempted else 0.0,
        }
        for fam in FAMILIES:
            out[f"identities.family.{fam}_s"] = (
                total("exact") if fam == "exact_layer" else total(f"family.{fam}")
            )
        return out

    def dump_spans(self) -> list:
        t0 = self.spans[0][START] if self.spans else 0.0
        return [
            [s[NAME], round(s[START] - t0, 9), round(s[END] - t0, 9), s[PARENT], s[POINTS]]
            for s in self.spans
        ]

