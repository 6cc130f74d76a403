"""Per-layer spans around circlezero's public functions, installed from outside
the package so the source under ``src/`` stays as it is.

Each wrapped function belongs to one layer.  A call opens a span unless the
innermost open span is already of the same layer (``ComplexEnclosure.__mul__``
calling ``RealEnclosure.__mul__`` is one arithmetic operation), so a layer's
``calls`` count its outermost operations.  A span's self time is its duration
minus the time its child spans cover; the self times of all layers plus the
time outside every span add up to the traced wall time.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter

_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__",
        "__truediv__", "__rtruediv__", "abs", "pow_int")
_ARITH = [f"RealEnclosure.{m}" for m in _OPS + ("shift", "sqrt", "sqr")]
_ARITH += [f"ComplexEnclosure.{m}" for m in _OPS + ("abs2",)]

# layer -> (module under circlezero, wrapped functions or Class.method names)
LAYERS = {
    "exact.tangent_numbers": ("exact", ["tangent_numbers"]),
    "exact.secant_numbers": ("exact", ["secant_numbers"]),
    "families.build": ("families", [f"build_{f}" for f in "RPQWYS"]),
    "enclosure.lambda_k": ("enclosure", ["lambda_k"]),
    "enclosure.ball_cos": ("enclosure", ["ball_cos", "ball_sin", "ball_cos_sin"]),
    "enclosure.ball_arith": ("enclosure", _ARITH),
    "verify.sign_count": ("verify", ["verify_by_sign_count"]),
    "verify.oscillation": ("verify", ["oscillation_verify_W", "oscillation_verify_Q"]),
    "verify.criteria": ("verify", ["lakatos_check", "schinzel_check"]),
    "verify.roots.polish": ("verify", ["find_roots"]),
    "verify.simplicity_check": ("verify", ["simplicity_check"]),
    "reports.json_document": ("reports", ["json_document"]),
}

ENCLOSURE_LAYERS = ("enclosure.lambda_k", "enclosure.ball_cos", "enclosure.ball_arith")
ROOTS_LAYER = "verify.roots.polish"


class Tracer:
    """In-memory span totals for one process."""

    def __init__(self):
        self.stack: list[list] = []          # open spans: [layer, time covered by children]
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.incl_s = dict.fromkeys(LAYERS, 0.0)
        self.calls = dict.fromkeys(LAYERS, 0)
        self.entries: Counter[str] = Counter()  # every call per function, nested ones too
        self.certify_s = 0.0                    # enclosure self time under find_roots

    def wrap(self, layer: str, label: str, fn):
        stack, entries = self.stack, self.entries

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entries[label] += 1
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(frame, perf_counter() - t0)

        return traced

    def _close(self, frame: list, duration: float) -> None:
        self.stack.pop()
        layer, covered = frame
        own = duration - covered
        self.self_s[layer] += own
        self.incl_s[layer] += duration
        self.calls[layer] += 1
        if self.stack:
            self.stack[-1][1] += duration
        if layer in ENCLOSURE_LAYERS and any(f[0] == ROOTS_LAYER for f in self.stack):
            self.certify_s += own

    def spanned_s(self) -> float:
        return sum(self.self_s.values())

    def install(self) -> None:
        """Replace every binding of the listed functions in the imported
        circlezero modules, including names re-bound by ``from x import f``."""
        modules = [m for name, m in sys.modules.items()
                   if name == "circlezero" or name.startswith("circlezero.")]
        for layer, (mod_name, targets) in LAYERS.items():
            module = sys.modules[f"circlezero.{mod_name}"]
            for target in targets:
                label = f"{mod_name}.{target}"
                if "." in target:
                    cls_name, meth = target.split(".")
                    cls = getattr(module, cls_name)
                    setattr(cls, meth, self.wrap(layer, label, cls.__dict__[meth]))
                    continue
                original = getattr(module, target)
                traced = self.wrap(layer, label, original)
                for m in modules:
                    for name in [n for n, v in vars(m).items() if v is original]:
                        setattr(m, name, traced)
