"""In-memory span tracer that wraps absval's layer entry points from outside.

Nothing under ``src/`` knows about tracing.  :func:`installed` replaces each
traced function in every namespace that binds it (``claims.abs_value``,
``predicates.loewner_leq``, ``calculus.hermitian_eigen``, the
``numpy.linalg`` entry points, ...) with a wrapper that records one span
(name, start, end, parent) and restores the originals on exit.  Because the
library looks those names up as module globals at call time, every call site
goes through the wrapper without any change to the library.

Aggregates (calls, inclusive time, self time, raises) are kept exactly for
every call; individual spans are stored up to ``MAX_SPANS`` and the rest are
counted as dropped, so a long traced run stays within a bounded memory.
"""

from __future__ import annotations

import contextlib
import json
import os
from array import array
from time import perf_counter

import numpy as np


def _dim(args) -> str:
    return f"n{np.shape(args[0])[-1]}"


def _kind(args) -> str:
    return args[0].kind


def _batch(args) -> str:
    return str(int(np.prod(np.shape(args[0])[:-2], dtype=np.int64)))


MAX_SPANS = 1_000_000  # spans stored per traced region; later ones are only counted
LINALG = ("eigh", "eigvalsh", "inv", "slogdet", "qr", "norm")
# (layer, attribute, label) -- label(args) names the variant a call is filed
# under (matrix dimension, ensemble kind) or is None.
LIBRARY = (
    ("core", "hermitian_eigen", None),
    ("core", "operator_norm", None),
    ("core", "approx_eq", None),
    ("core", "frobenius", None),
    ("calculus", "abs_value", _dim),
    ("calculus", "loewner_leq", _dim),
    ("calculus", "psd_sqrt", None),
    ("calculus", "psd_sqrt_iterative", None),
    ("calculus", "psd_power", None),
    ("calculus", "inverse", None),
    ("calculus", "condition_estimate", None),
    ("predicates", "is_normal", None),
    ("predicates", "is_hyponormal", None),
    ("predicates", "is_positive", None),
    ("predicates", "is_self_adjoint", None),
    ("predicates", "commutes", None),
    ("predicates", "is_anti_symmetric", None),
    ("generators", "sample", _kind),
    ("claims", "run_suite", None),
    ("claims", "check_claim", None),
    ("claims", "check_registry_instance", None),
    ("claims", "probe_conclusions", None),
    ("cli", "parse_config", None),
    ("cli", "execute", None),
    ("cli", "emit_report", None),
)


class Tracer:
    """Spans and per-name aggregates for one traced region."""

    def __init__(self):
        self.keys: list[tuple[str, str | None]] = []
        self._ids: dict[tuple[str, str | None], int] = {}
        self.calls: list[int] = []
        self.total: list[float] = []
        self.self_time: list[float] = []
        self.raised: list[int] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.dropped = 0
        self._stack: list[list] = []
        self.origin = perf_counter()

    def _id(self, key) -> int:
        sid = self._ids.get(key)
        if sid is None:
            sid = self._ids[key] = len(self.keys)
            self.keys.append(key)
            self.calls.append(0)
            self.total.append(0.0)
            self.self_time.append(0.0)
            self.raised.append(0)
        return sid

    def wrap(self, name: str, fn, label=None):
        def traced(*args, **kwargs):
            sid = self._id((name, None if label is None else label(args)))
            stack = self._stack
            idx = len(self.span_start)
            if idx < MAX_SPANS:
                self.span_name.append(sid)
                self.span_parent.append(stack[-1][0] if stack else -1)
                self.span_start.append(0.0)
                self.span_end.append(0.0)
            else:
                idx = -1
                self.dropped += 1
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.raised[sid] += 1
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                self.calls[sid] += 1
                self.total[sid] += dur
                self.self_time[sid] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if idx >= 0:
                    self.span_start[idx] = t0 - self.origin
                    self.span_end[idx] = t1 - self.origin

        traced.__wrapped__ = fn
        return traced

    # -- aggregates ---------------------------------------------------------

    def _select(self, name, variant=any):
        return [
            i for i, (n, v) in enumerate(self.keys) if n == name and (variant is any or v == variant)
        ]

    def count(self, name, variant=any) -> int:
        return sum(self.calls[i] for i in self._select(name, variant))

    def us_per_call(self, name, variant=any) -> float:
        ids = self._select(name, variant)
        calls = sum(self.calls[i] for i in ids)
        return 1e6 * sum(self.total[i] for i in ids) / calls if calls else 0.0

    def self_seconds(self, prefix: str) -> float:
        return sum(t for (n, _), t in zip(self.keys, self.self_time) if n.startswith(prefix))

    def raise_frac(self, prefix: str) -> float:
        ids = [i for i, (n, _) in enumerate(self.keys) if n.startswith(prefix)]
        calls = sum(self.calls[i] for i in ids)
        return sum(self.raised[i] for i in ids) / calls if calls else 0.0

    def variant_mean(self, name) -> float:
        """Call-weighted mean of a numeric variant (e.g. matrices per call)."""
        ids = self._select(name)
        calls = sum(self.calls[i] for i in ids)
        return sum(self.calls[i] * float(self.keys[i][1]) for i in ids) / calls if calls else 0.0

    def dump(self, path: str):
        """Write the stored spans and the name table (``.npz`` plus ``.json``)."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez(
            path + ".npz",
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )
        table = [
            {"name": n, "variant": v, "calls": c, "total_s": t, "self_s": s, "raised": r}
            for (n, v), c, t, s, r in zip(
                self.keys, self.calls, self.total, self.self_time, self.raised
            )
        ]
        with open(path + ".json", "w", encoding="utf-8") as fh:
            json.dump({"names": table, "spans": len(self.span_start), "dropped": self.dropped}, fh)


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every traced entry point where its callers bind it; undo on exit."""
    import absval
    from absval import calculus, claims, cli, core, generators, predicates

    layers = {
        "core": core,
        "calculus": calculus,
        "predicates": predicates,
        "generators": generators,
        "claims": claims,
        "cli": cli,
    }
    namespaces = (absval, *layers.values())
    patched = []
    for attr in LINALG:
        fn = getattr(np.linalg, attr)
        label = _batch if attr == "eigh" else None  # matrices per call
        patched.append((np.linalg, attr, fn))
        setattr(np.linalg, attr, tracer.wrap(f"linalg.{attr}", fn, label))
    for layer, attr, label in LIBRARY:
        fn = getattr(layers[layer], attr, None)
        if fn is None:  # gone from the library: its metrics read 0
            continue
        wrapper = tracer.wrap(f"{layer}.{attr}", fn, label)
        for ns in namespaces:
            if getattr(ns, attr, None) is fn:
                patched.append((ns, attr, fn))
                setattr(ns, attr, wrapper)
    seed_fn = generators.Seed.generator
    patched.append((generators.Seed, "generator", seed_fn))
    generators.Seed.generator = tracer.wrap("generators.seed", seed_fn)
    try:
        yield tracer
    finally:
        for ns, attr, fn in reversed(patched):
            setattr(ns, attr, fn)
