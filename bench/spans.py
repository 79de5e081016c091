"""Per-layer spans recorded around calls into sl3rep, from outside it.

`Tracer.install()` replaces chosen functions and methods of the package by
wrappers.  A wrapper counts the call and times it as a span; a span's self
time is its duration minus the durations of the spans it encloses, and is
added to the span's layer.  Module-level functions are replaced in every
sl3rep module that holds them, so calls through `from .x import f` are
caught too; methods are replaced on the class, alias by alias (for example
both `__mul__` and `__rmul__`).  Spans are kept as running sums in memory.
"""

from __future__ import annotations

import sys
import time

# (module, attribute or Class.method, layer, counter name or None)
SPANS = [
    # scalars: every RadicalScalar / LambdaForm operation, aliases included
    *[("scalars", f"RadicalScalar.{m}", "scalars",
       "scalars.mul_calls" if m in ("__mul__", "__rmul__") else
       "scalars.add_calls" if m in ("__add__", "__radd__") else None)
      for m in ("__init__", "__add__", "__radd__", "__neg__", "__sub__", "__rsub__",
                "__mul__", "__rmul__", "inverse", "__truediv__", "__eq__",
                "__hash__", "__float__", "is_zero", "is_rational", "as_rational")],
    *[("scalars", f"LambdaForm.{m}", "scalars",
       "scalars.mul_calls" if m in ("__mul__", "__rmul__") else
       "scalars.add_calls" if m in ("__add__", "__radd__") else None)
      for m in ("__init__", "canonical", "is_zero", "__eq__", "__hash__", "__add__",
                "__radd__", "__neg__", "__sub__", "__mul__", "__rmul__")],
    ("scalars", "LambdaForm.eval", "scalars", "action.lambda_eval.calls"),
    ("scalars", "LambdaForm.eval_exact", "scalars", "action.lambda_eval.calls"),
    ("scalars", "_square_extract", "scalars", None),
    ("scalars", "_coerce", "scalars", None),
    ("scalars", "_as_radical", "scalars", None),
    # clebsch
    ("clebsch", "q", "clebsch", "clebsch.q.calls"),
    ("clebsch", "q_float", "clebsch", None),
    ("clebsch", "cg_product", "clebsch", None),
    # ktvector
    ("ktvector", "KTypeVector.add_term", "ktvector", "ktvector.add_term.calls"),
    *[("ktvector", f"KTypeVector.{m}", "ktvector", None)
      for m in ("__init__", "__add__", "__sub__", "scaled", "map_coeff", "__eq__")],
    # action: the five-term kernel and the fold into the v basis
    ("action", "act_Z", "action.act_Z", "action.act_Z.calls"),
    ("action", "act_U", "action.act_Z", None),
    ("action", "act_Z_on_basis", "action.fold", "action.fold.calls"),
    # action: the exact polynomial path of the bracket verifier
    ("action", "bracket_check", "action.poly", "action.bracket_check.calls"),
    ("action", "decompose_standard_basis", "action.poly", None),
    ("action", "compose_poly", "action.poly", None),
    # action: numeric assembly
    ("action", "assemble_matrix", "action.assemble", None),
    ("action", "ActionMatrix.to_json", "action.assemble", None),
    ("action", "ActionMatrix.dense", "action.assemble", None),
    # structure
    ("structure", "verify_invariant", "structure.verify_invariant",
     "structure.verify_invariant.calls"),
    ("structure", "_boundary_reason", "structure.boundary", "structure.boundary.calls"),
    ("structure", "_numeric_recheck", "structure.numeric_recheck", None),
    ("structure", "_connected", "structure.connected", None),
    # wigner
    ("wigner", "little_d", "wigner.little_d", "wigner.little_d.calls"),
    *[("wigner", f, "wigner", None)
      for f in ("wigner_D", "wigner_D_matrix", "euler_from_matrix",
                "matrix_from_euler", "right_derivative_Y", "left_derivative_Y",
                "eval_vector")],
    # series
    ("series", "iwasawa", "series", "series.iwasawa.calls"),
    *[("series", f, "series", None)
      for f in ("character", "extend_wigner", "basis", "multiplicity",
                "label_valid", "label_sign")],
    # oracle
    ("oracle", "_node_values", "oracle.node_values", None),
    ("oracle", "orthogonality_report", "oracle.gram", None),
    ("oracle", "product_integral", "oracle.gram", None),
    ("oracle", "verify_theorem_main", "oracle.fd", None),
    ("oracle", "fd_lie_derivative", "oracle.fd", None),
    ("oracle", "coordinate_diffops_check", "oracle.fd", None),
    # cli
    ("cli", "main", "cli", None),
]

# self-time metric of each layer, by layer name
LAYER_METRICS = {
    "scalars": "scalars.self_s",
    "clebsch": "clebsch.self_s",
    "ktvector": "ktvector.self_s",
    "action.act_Z": "action.act_Z.self_s",
    "action.fold": "action.fold.self_s",
    "action.poly": "action.poly.self_s",
    "action.assemble": "action.assemble.self_s",
    "structure.verify_invariant": "structure.verify_invariant.self_s",
    "structure.boundary": "structure.boundary.self_s",
    "structure.numeric_recheck": "structure.numeric_recheck.self_s",
    "structure.connected": "structure.connected.self_s",
    "wigner.little_d": "wigner.little_d.self_s",
    "wigner": "wigner.self_s",
    "series": "series.self_s",
    "oracle.node_values": "oracle.node_values.self_s",
    "oracle.gram": "oracle.gram.self_s",
    "oracle.fd": "oracle.fd.self_s",
    "cli": "cli.self_s",
}

# lru caches whose misses and hits are per-layer counts
CACHE_COUNTS = {
    ("scalars", "_square_extract"): {"misses": "scalars.square_extract.misses"},
    ("clebsch", "q"): {"misses": "clebsch.q.misses"},
    ("action", "_apply_poly_cached"): {"misses": "action.apply_poly.misses"},
    ("action", "_apply_flat"): {"misses": "action.apply_flat.misses"},
    ("action", "_pair_defect_zero"): {"hits": "action.pair_defect.hits",
                                      "misses": "action.pair_defect.misses"},
}

COUNT_METRICS = sorted({c for *_, c in SPANS if c}
                       | {m for d in CACHE_COUNTS.values() for m in d.values()}
                       | {"structure.checked_labels", "structure.certificates",
                          "action.assemble.labels", "action.assemble.entries",
                          "caches.entries"})


class Tracer:
    def __init__(self):
        self.self_s = {layer: 0.0 for layer in LAYER_METRICS}
        self.counts = {name: 0 for name in COUNT_METRICS}
        self.node_array_bytes = 0
        self._stack: list[float] = []
        self._undo: list[tuple] = []
        self._mods = {}

    # -- spans ---------------------------------------------------------------

    def _wrap(self, fn, layer: str, counter: str | None, post=None):
        stack = self._stack
        self_s = self.self_s
        counts = self.counts
        clock = time.perf_counter

        def span(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                d = clock() - t0
                self_s[layer] += d - stack.pop()
                if stack:
                    stack[-1] += d
                if counter:
                    counts[counter] += 1
            if post:
                post(args, out)
            return out

        span.__wrapped__ = fn
        return span

    def install(self) -> None:
        self._mods = {name.split(".")[-1]: mod for name, mod in sys.modules.items()
                      if name.startswith("sl3rep.") and mod is not None}
        post = {
            "verify_invariant": self._after_verify,
            "assemble_matrix": self._after_assemble,
            "_node_values": self._after_node_values,
        }
        for modname, attr, layer, counter in SPANS:
            mod = self._mods[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                fn = cls.__dict__[meth]
                self._undo.append((cls, meth, fn))
                setattr(cls, meth, self._wrap(fn, layer, counter))
                continue
            fn = getattr(mod, attr)
            wrapper = self._wrap(fn, layer, counter, post.get(attr))
            for other in self._mods.values():
                for name, val in list(vars(other).items()):
                    if val is fn:
                        self._undo.append((other, name, fn))
                        setattr(other, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, fn in reversed(self._undo):
            setattr(owner, name, fn)
        self._undo.clear()

    # -- counts read from results ---------------------------------------------

    def _after_verify(self, args, res) -> None:
        self.counts["structure.checked_labels"] += res.checked_labels
        self.counts["structure.certificates"] += len(res.certificates)

    def _after_assemble(self, args, mat) -> None:
        self.counts["action.assemble.labels"] += len(mat.labels)
        self.counts["action.assemble.entries"] += sum(
            int((b != 0).sum()) for b in mat.blocks.values())

    def _after_node_values(self, args, arr) -> None:
        self.node_array_bytes = max(self.node_array_bytes, arr.nbytes)

    def metrics(self) -> dict:
        """Every per-layer metric; call after `uninstall`, so the caches are
        the package's own objects again."""
        out = {}
        for (modname, attr), names in CACHE_COUNTS.items():
            info = getattr(self._mods[modname], attr).cache_info()
            for field, name in names.items():
                self.counts[name] = getattr(info, field)
        caches = {id(val): val for mod in self._mods.values()
                  for val in vars(mod).values() if hasattr(val, "cache_info")}
        self.counts["caches.entries"] = sum(c.cache_info().currsize
                                            for c in caches.values())
        for layer, name in LAYER_METRICS.items():
            out[name] = (self.self_s[layer], "s")
        for name in COUNT_METRICS:
            out[name] = (self.counts[name], "count")
        out["oracle.node_array_mb"] = (self.node_array_bytes / 1e6, "MB")
        return out
