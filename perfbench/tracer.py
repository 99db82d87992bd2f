"""Run one mdswe CLI call or experiment script with span and counter wrappers.

    python3 perfbench/tracer.py OUT.json cli ARG...
    python3 perfbench/tracer.py OUT.json script PATH ARG...

The wrappers live here, not in the program: every public function of each
``mdswe`` module becomes a span ``<module>.<function>`` that records calls,
self time (span time minus the time of the spans it encloses) and
exceptions raised through it.  A wrapper replaces the function in its
defining module and every other ``mdswe`` module that bound it with
``from .x import y``, so calls through either name are traced.  A few
methods and private functions get spans or counters under the names the
benchmark reports (see ``install``).  Cache hit and miss counts are read
from ``cache_info()`` at exit.

The child behaves like the untraced call: same stdout, same exit code, and
an uncaught exception still ends it with a traceback and status 1.  The
trace is written to OUT.json even then.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import runpy
import sys
import time

MODULES = ("gf", "poly", "linear_code", "mds_enum", "binary_avg", "duality",
           "errorprob", "montecarlo", "verify", "cli")

# Per-coefficient helpers: a span would cost more than the work it wraps,
# so their time stays in the caller's self time.
INLINE = {
    "gf.is_prime", "mds_enum.binom", "mds_enum.weight_at", "binary_avg.bits_per_symbol",
    "binary_avg.avg_binary_weights_from_distribution", "errorprob.q_function",
    "errorprob.channel_map", "duality.krawtchouk",
}

# Functions counted per call without a span (hot, or named only by a count).
COUNTED = {"errorprob.sphere_distance_prob": "errorprob.sphere_distance_prob.calls"}

RENAMED = {f"verify.suite_{s}": f"verify.suite.{s}"
           for s in ("gf", "codes", "oracle", "identities", "binary", "duality", "errorprob")}


class Tracer:
    """Span statistics and counters of one process."""

    def __init__(self) -> None:
        self.spans: dict[str, list] = {}      # name -> [calls, self_s, errors]
        self.counters: dict[str, int] = {}
        self._stack: list[float] = []         # child time of each open span

    def span(self, name: str, fn, after=None):
        stats = self.spans.setdefault(name, [0, 0.0, 0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stats[2] += 1
                raise
            finally:
                dt = clock() - t0
                stats[0] += 1
                stats[1] += dt - stack.pop()
                if stack:
                    stack[-1] += dt
            if after is not None:
                after(self.counters, args, kwargs, result)
            return result

        return wrapper

    def count(self, name: str, fn):
        counters = self.counters
        counters.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return wrapper


# Problem sizes, reported even when a run never reaches the code that counts them.
COUNTERS = ("linear_code.codewords_tallied", "mds_enum.pwgf.terms", "poly.mul.term_pairs",
            "binary_avg.max_coeff_bits", "montecarlo.sphere_words", "montecarlo.trials")


def _pwgf_terms(counters, args, kwargs, result):
    counters["mds_enum.pwgf.terms"] += len(result)


def _max_coeff_bits(counters, args, kwargs, result):
    bits = max((max(c.numerator.bit_length(), c.denominator.bit_length()) for c in result),
               default=0)
    counters["binary_avg.max_coeff_bits"] = max(counters["binary_avg.max_coeff_bits"], bits)


def _poly_term_pairs(counters, args, kwargs, result):
    self, other = args
    if hasattr(other, "terms"):
        counters["poly.mul.term_pairs"] += len(self.terms) * len(other.terms)


def _sphere_words(counters, args, kwargs, result):
    counters["montecarlo.sphere_words"] += args[0].sphere_size()


def _trials(counters, args, kwargs, result):
    counters["montecarlo.trials"] += kwargs["trials"] if "trials" in kwargs else args[2]


HOOKS = {"mds_enum.pwgf": _pwgf_terms, "binary_avg.avg_binary_wgf": _max_coeff_bits}


def _patch(owner, attr: str, wrap) -> None:
    """Replace owner.attr by wrap(owner.attr).  A method the program no
    longer has is skipped, and its metrics read 0."""
    fn = getattr(owner, attr, None)
    if fn is not None:
        setattr(owner, attr, wrap(fn))


def install(tracer: Tracer) -> dict:
    """Wrap the mdswe functions; returns the program's lru caches by the
    name the benchmark reports them under."""
    mods = {s: importlib.import_module(f"mdswe.{s}") for s in MODULES}
    tracer.counters.update(dict.fromkeys(COUNTERS, 0))
    def present(mod, *names):   # a cache the program no longer has reads 0
        return [getattr(mod, n) for n in names if hasattr(mod, n)]

    caches = {"linear_code.histogram_cache":
              present(mods["linear_code"], "_support_histogram_cached"),
              "errorprob.user_profile_cache":
              present(mods["errorprob"], "_user_symbol_profile", "_user_bit_profile")}
    wrapped = {}
    for short, mod in mods.items():
        for name, obj in list(vars(mod).items()):
            is_fn = inspect.isfunction(obj) or isinstance(obj, functools._lru_cache_wrapper)
            if name.startswith("_") or not is_fn or obj.__module__ != mod.__name__:
                continue
            full = f"{short}.{name}"
            if full in INLINE:
                continue
            if full in COUNTED:
                wrapped[obj] = tracer.count(COUNTED[full], obj)
            else:
                wrapped[obj] = tracer.span(RENAMED.get(full, full), obj, HOOKS.get(full))

    def tallied(hist):
        def wrapper(code):
            misses = hist.cache_info().misses
            result = hist(code)
            if hist.cache_info().misses > misses:
                tracer.counters["linear_code.codewords_tallied"] += code.size
            return result
        return wrapper

    for hist in caches["linear_code.histogram_cache"]:
        wrapped[hist] = tallied(hist)

    # rebind in the defining module and wherever another module imported it
    for mod in [importlib.import_module("mdswe"), *mods.values()]:
        for name, obj in list(vars(mod).items()):
            try:
                new = wrapped.get(obj)
            except TypeError:   # unhashable module attribute
                continue
            if new is not None:
                setattr(mod, name, new)

    field = mods["gf"].Field
    _patch(field, "mul", lambda fn: tracer.count("gf.mul.calls", fn))
    _patch(field, "_mul_raw", lambda fn: tracer.count("gf.mul_raw.calls", fn))
    _patch(field, "build_tables", lambda fn: tracer.span("gf.build_tables", fn))
    _patch(field, "generator", lambda fn: tracer.span("gf.generator", fn))
    sparse = mods["poly"].SparsePoly
    _patch(sparse, "__mul__", lambda fn: tracer.span("poly.mul", fn, _poly_term_pairs))
    sparse.__rmul__ = sparse.__mul__
    _patch(sparse, "substitute", lambda fn: tracer.span("poly.substitute", fn))
    oracle = getattr(mods["montecarlo"], "BmSphereOracle", None)
    if oracle is not None:
        _patch(oracle, "__init__", lambda fn: tracer.span("montecarlo.oracle_build", fn,
                                                           _sphere_words))
        _patch(oracle, "simulate", lambda fn: tracer.span("montecarlo.simulate", fn, _trials))
    return caches


def main(argv: list[str]) -> int:
    out_path, kind, *rest = argv
    tracer = Tracer()
    caches = install(tracer)
    try:
        if kind == "cli":
            sys.argv = ["mdswe", *rest]
            return sys.modules["mdswe.cli"].main(rest)
        path, *args = rest
        sys.argv = [path, *args]
        script = runpy.run_path(path, run_name="perfbench_traced")
        name = "scripts." + os.path.splitext(os.path.basename(path))[0] + ".main"
        return tracer.span(name, script["main"])(args)
    finally:
        sys.stdout.flush()
        hits = {name: [sum(f.cache_info().hits for f in fns),
                       sum(f.cache_info().misses for f in fns)]
                for name, fns in caches.items()}
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "counters": tracer.counters, "caches": hits}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
