"""Per-layer tracing from outside the package.

`Tracer.install()` replaces every public function of each layer module with a
wrapper that records a span (name, start, end, parent) and the layer's
counts.  A name is replaced in every fracprice module that holds it, because
`volatility`, `calibration` and `cli` import functions by name.  The band
guard and the density batch have no public entry point, so the module
attribute their caller looks up is wrapped instead; if a later change renames
either, it is reported as absent rather than silently read as zero work.

Spans live in flat arrays while the run lasts and are written out once, at the
end.  A span's self time is its duration minus the durations of its direct
children.
"""
from __future__ import annotations

import importlib
import inspect
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = ("model", "numerics", "pricing", "volatility", "calibration", "cli")

# (module, attribute, span name) for the private callees worth a span
PRIVATE = (("pricing", "_band_bounds", "pricing.band"),
           ("numerics", "_density_batch", "numerics.density"))


class Tracer:
    def __init__(self):
        self.names = []          # span name per name id
        self.layer_of = []       # layer per name id
        self.sid = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.counts = Counter()
        self.mu_params = set()
        self.absent = []
        self._patches = []

    # ------------------------------------------------------------ install
    def install(self):
        mods = {name: importlib.import_module(f"fracprice.{name}")
                for name in LAYERS}
        holders = [importlib.import_module("fracprice"),
                   importlib.import_module("fracprice.sampledata"),
                   *mods.values()]
        for layer, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                self._replace(holders, fn,
                              self._wrap(f"{layer}.{attr}", layer, fn))
        for layer, attr, span in PRIVATE:
            fn = getattr(mods[layer], attr, None)
            if not inspect.isfunction(fn):
                self.absent.append(span)
                continue
            self._replace([mods[layer]], fn, self._wrap(span, layer, fn))

    def uninstall(self):
        for holder, attr, fn in reversed(self._patches):
            setattr(holder, attr, fn)
        self._patches.clear()

    def _replace(self, holders, fn, wrapper):
        for holder in holders:
            for attr, value in list(vars(holder).items()):
                if value is fn:
                    self._patches.append((holder, attr, fn))
                    setattr(holder, attr, wrapper)

    def _wrap(self, name, layer, fn):
        nid = len(self.names)
        self.names.append(name)
        self.layer_of.append(layer)
        hook = getattr(self, "_on_" + name.replace(".", "_"), None)
        count_pricer = name == "volatility.implied_vol"
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            i = len(self.start)
            parent = self.stack[-1] if self.stack else -1
            self.sid.append(nid)
            self.parent.append(parent)
            self.end.append(0.0)
            self.stack.append(i)
            if count_pricer:
                args = (self._counting_pricer(args[0]),) + args[1:]
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.end[i] = clock()
                self.stack.pop()
                if hook:
                    hook(parent, args, None, exc)
                raise
            self.end[i] = clock()
            self.stack.pop()
            if hook:
                hook(parent, args, result, None)
            return result

        return wrapper

    # -------------------------------------------------------------- counts
    def _parent_layer(self, parent):
        return self.layer_of[self.sid[parent]] if parent >= 0 else None

    def _on_model_risk_neutral(self, parent, args, result, exc):
        p = args[0]
        self.counts["model.risk_neutral.calls"] += 1
        self.mu_params.add((p.alpha, p.gamma, p.sigma))

    def _on_model_mu_gamma_series(self, parent, args, result, exc):
        if result is not None:
            self.counts["model.mu.terms"] += result.n_terms_used

    def _on_pricing_price(self, parent, args, result, exc):
        if exc is not None:
            self.counts["pricing.price.raised"] += 1
        if self._parent_layer(parent) == "calibration":
            self.counts["calibration.quote_evals"] += 1
            if exc is not None:
                self.counts["calibration.penalised"] += 1

    def _on_pricing_dfrac_call_series(self, parent, args, result, exc):
        self.counts["pricing.series.calls"] += 1
        if exc is not None:
            if type(exc).__name__ == "SeriesDivergenceError":
                self.counts["pricing.series.diverged"] += 1
            return
        _, diag = result
        self.counts["pricing.series.terms"] += diag.terms_used
        if diag.converged:
            self.counts["pricing.series.certified"] += 1

    def _on_numerics_density(self, parent, args, result, exc):
        self.counts["numerics.density.points"] += int(np.size(args[0]))

    def _on_volatility_implied_vol(self, parent, args, result, exc):
        if exc is not None:
            self.counts["volatility.implied_vol.failed"] += 1
        else:
            self.counts["volatility.implied_vol.iterations"] += result.iterations

    def _on_calibration_calibrate(self, parent, args, result, exc):
        if result is not None:
            self.counts["calibration.nfev"] += result.evaluations

    def _counting_pricer(self, pricer):
        def counted(sigma):
            self.counts["volatility.implied_vol.pricer_calls"] += 1
            return pricer(sigma)
        return counted

    # ------------------------------------------------------------- results
    def span_arrays(self):
        sid = np.frombuffer(self.sid, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = (np.frombuffer(self.end, dtype=np.float64)
               - np.frombuffer(self.start, dtype=np.float64))
        child = np.zeros_like(dur)
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        return sid, dur - child

    def metrics(self):
        """Per-layer calls and self time, plus the named counts."""
        sid, self_t = self.span_arrays()
        span_layer = np.array([LAYERS.index(l) for l in self.layer_of])[sid]
        out = {}
        for i, layer in enumerate(LAYERS):
            sel = span_layer == i
            out[f"{layer}.calls"] = (int(sel.sum()), "count")
            out[f"{layer}.self_s"] = (float(self_t[sel].sum()), "s")
        c = self.counts
        band = [i for i, n in enumerate(self.names) if n == "pricing.band"]
        out["pricing.band.self_s"] = (
            float(self_t[np.isin(sid, band)].sum()) if band else 0.0, "s")
        rn = c["model.risk_neutral.calls"]
        out["model.mu.terms"] = (c["model.mu.terms"], "count")
        out["model.mu.distinct_ratio"] = (
            len(self.mu_params) / rn if rn else 0.0, "ratio")
        out["pricing.price.raised"] = (c["pricing.price.raised"], "count")
        out["pricing.series.terms"] = (c["pricing.series.terms"], "count")
        out["pricing.series.diverged"] = (c["pricing.series.diverged"], "count")
        sc = c["pricing.series.calls"]
        out["pricing.series.certified_ratio"] = (
            c["pricing.series.certified"] / sc if sc else 0.0, "ratio")
        quad = [i for i, n in enumerate(self.names)
                if n == "numerics.reference_price"]
        out["numerics.quadrature.calls"] = (int(np.isin(sid, quad).sum()),
                                            "count")
        out["numerics.density.points"] = (c["numerics.density.points"], "count")
        for k in ("iterations", "pricer_calls", "failed"):
            key = f"volatility.implied_vol.{k}"
            out[key] = (c[key], "count")
        qe = c["calibration.quote_evals"]
        out["calibration.nfev"] = (c["calibration.nfev"], "count")
        out["calibration.quote_evals"] = (qe, "count")
        out["calibration.penalised"] = (c["calibration.penalised"], "count")
        out["calibration.useful_ratio"] = (
            (qe - c["calibration.penalised"]) / qe if qe else 0.0, "ratio")
        return out

    def write(self, path):
        """All spans, in one compressed file; parent -1 marks a root span."""
        np.savez_compressed(
            path, names=np.array(self.names), layers=np.array(self.layer_of),
            name_id=np.frombuffer(self.sid, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64))
