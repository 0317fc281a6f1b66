"""Per-layer spans around the public functions of the rfsense modules.

`Tracer.install()` wraps every public function defined in an rfsense module
and rebinds it under every name that any rfsense module holds for it, so a
call through an imported name (`heart.hampel_filter`, `cli.save_trace`) is
recorded like a call through the defining module. Nothing in the package is
edited; `uninstall()` puts the original objects back.

Spans nest: a layer's self time is its span minus the spans of the wrapped
functions it called. Work counts are computed from call arguments (or the
result, where the work is the result's size) at the same boundary.
"""

from __future__ import annotations

import importlib
import inspect
import os
import time
from collections import defaultdict

MODULES = ("dsp", "wavelet", "classifiers", "trace", "heart", "gesture",
           "speed", "sim", "cli")


def _pow2(n: int) -> int:
    return 1 << max(0, n - 1).bit_length()


# span name -> (bound arguments, result) -> {count name: amount}
WORK = {
    "dsp.hampel_filter": lambda a, r: {"samples": len(a["x"])},
    "dsp.filter_forward": lambda a, r: {"samples": len(a["x"])},
    "dsp.periodogram": lambda a, r: {
        "fft_points": a.get("nfft") or _pow2(len(a["x"]))},
    "dsp.spectrogram": lambda a, r: {"columns": r.power.shape[1]},
    "heart.stream_heart_rate": lambda a, r: {"updates": len(r)},
    "gesture.segment": lambda a, r: {"samples": len(a["trace"]),
                                     "segments": len(r)},
    "trace.save_trace": lambda a, r: {"rows": len(a["trace"]),
                                      "bytes": os.path.getsize(a["path"])},
    "trace.load_trace": lambda a, r: {"rows": len(r),
                                      "bytes": os.path.getsize(a["path"])},
}


class Stats:
    __slots__ = ("calls", "self_s", "work")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.work = defaultdict(int)


class Tracer:
    def __init__(self):
        self.scopes: dict[str, dict[str, Stats]] = {}
        self._scope: dict[str, Stats] | None = None
        self._stack: list[float] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- scopes ------------------------------------------------------------

    def scope(self, name: str) -> None:
        """Record following spans under `name`; None stops recording."""
        self._scope = None if name is None else self.scopes.setdefault(
            name, defaultdict(Stats))

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        mods = [importlib.import_module(f"rfsense.{m}") for m in MODULES]
        wrappers = {}
        for mod in mods:
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self._wrap(obj)
        for mod in mods:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._saved.append((mod, name, obj))
                    setattr(mod, name, wrappers[obj])

    def uninstall(self) -> None:
        for mod, name, obj in reversed(self._saved):
            setattr(mod, name, obj)
        self._saved.clear()

    def _wrap(self, fn):
        span = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        work = WORK.get(span)
        params = inspect.signature(fn).parameters
        names = list(params)
        defaults = {k: p.default for k, p in params.items()
                    if p.default is not inspect.Parameter.empty}
        stack = self._stack
        tracer = self

        def traced(*args, **kwargs):
            result, done = None, False
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                done = True
            finally:
                dt = time.perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                scope = tracer._scope
                if scope is not None:
                    st = scope[span]
                    st.calls += 1
                    st.self_s += dt - child
                    if work is not None and done:
                        bound = {**defaults, **dict(zip(names, args)), **kwargs}
                        for key, amount in work(bound, result).items():
                            st.work[key] += amount
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        return traced

    # -- results -----------------------------------------------------------

    def per_layer(self, names: list[str], rounds: int) -> dict[str, float]:
        """Metric values for one set-up plus one round.

        Names are `<module>.<function>.<stat>`; stat is `calls`, `self_s`, a
        work count, or a rate: `us_per_sample`, `us_per_row` (self time per
        unit of work) and `ms_per_call`.
        """
        combined: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for scope, weight in (("setup", 1.0), ("round", 1.0 / rounds)):
            for span, st in self.scopes.get(scope, {}).items():
                row = combined[span]
                row["calls"] += st.calls * weight
                row["self_s"] += st.self_s * weight
                for key, amount in st.work.items():
                    row[key] += amount * weight
        out = {}
        for name in names:
            span, stat = name.rsplit(".", 1)
            row = combined.get(span, {})
            if stat == "us_per_sample":
                value = _rate(row, "samples", 1e6)
            elif stat == "us_per_row":
                value = _rate(row, "rows", 1e6)
            elif stat == "ms_per_call":
                value = _rate(row, "calls", 1e3)
            else:
                value = row.get(stat, 0.0)
            if stat != "self_s" and not stat.startswith(("us_", "ms_")):
                value = round(value, 6)
            out[name] = value
        return out


def _rate(row, per: str, scale: float) -> float:
    return scale * row["self_s"] / row[per] if row.get(per) else 0.0
