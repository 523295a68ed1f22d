"""Run one ringpair CLI operation with spans recorded from outside.

Usage: python -X importtime clibench/trace_boot.py TRACE.json OP_ID -- CLI ARGS...

Times ``import ringpair.cli``, then wraps the public functions named in
``TARGETS`` at every module binding (``cli``, ``design``, ``sfwm`` and
``nonlinear`` import names directly, so patching the defining module
alone would miss calls), wraps the integrand handed to
``integrate_adaptive`` to count its evaluations, and calls
``ringpair.cli.main``. Spans (name, start, end, parent span, operation
id) and counts stay in memory and are written to TRACE.json at exit.
Nothing in the program is changed; the artifacts are the untraced ones
byte for byte.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

perf_counter = time.perf_counter

TARGETS = {
    "cli": ("main",),
    "deviceio": ("load_device", "device_from_dict", "write_text_atomic"),
    "geometry": ("resonance_comb",),
    "enhancement": ("intensity_spectrum", "spectrum_to_csv"),
    "kernels": ("lorentzian_comb", "pair_kernel", "dc_overlap_integrand"),
    "quadrature": ("integrate_adaptive",),
    "nonlinear": ("z_overlap_integral", "j_quadrature", "resonant_config"),
    "sfwm": ("pair_rate_integral", "noise_budget"),
    "design": ("optimize_device", "tune_for_energy_conservation", "evaluate_design"),
    # Every public function of linear_cmt, reported as one layer.
    "linear_cmt": None,
}


class Tracer:
    def __init__(self, op_id: str) -> None:
        self.op_id = op_id
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.layers: list[str] = []  # layer of each span
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}

    def add(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, layer: str, name: str, fn, after=None, before=None):
        span_name = f"{layer}.{name}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            parent = self.stack[-1] if self.stack else -1
            span = [span_name, perf_counter(), 0.0, parent, self.op_id]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            self.layers.append(layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if parent < 0 or self.layers[parent] != layer:
                    self.add(f"{layer}.errors", 1)
                raise
            finally:
                span[2] = perf_counter()
                self.stack.pop()
            self.add(f"{span_name}.calls", 1)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced


def _install(tracer: Tracer) -> None:
    modules = [m for n, m in sys.modules.items() if n == "ringpair" or n.startswith("ringpair.")]
    add = tracer.add

    def count_evals(args, kwargs):
        func = args[0]

        def integrand(x):
            add("quadrature.evals", len(x))
            return func(x)

        return (integrand, *args[1:]), kwargs

    def main_result(args, kwargs, code):
        if code:
            add("cli.errors", 1)

    def write_result(args, kwargs, _):
        path, text = str(args[0]), args[1]
        # The .meta.json sidecar holds a timestamp whose length varies.
        if not path.endswith(".meta.json"):
            add("deviceio.bytes_written", len(text.encode("utf-8")))

    hooks = {
        "cli.main": {"after": main_result},
        "deviceio.write_text_atomic": {"after": write_result},
        "geometry.resonance_comb": {
            "after": lambda a, k, r: add("geometry.comb_lines", len(r))
        },
        "enhancement.spectrum_to_csv": {
            "after": lambda a, k, r: add("enhancement.rows", len(a[0].omega))
        },
        "kernels.lorentzian_comb": {
            "after": lambda a, k, r: add("kernels.lorentzian_comb.elems", len(a[0]) * len(a[1]))
        },
        "kernels.pair_kernel": {
            "after": lambda a, k, r: add("kernels.pair_kernel.evals", len(a[0]))
        },
        "kernels.dc_overlap_integrand": {
            "after": lambda a, k, r: add("kernels.dc_overlap_integrand.evals", len(a[0]))
        },
        "quadrature.integrate_adaptive": {"before": count_evals},
    }

    for layer, names in TARGETS.items():
        module = sys.modules[f"ringpair.{layer}"]
        if names is None:
            names = tuple(
                n for n, f in vars(module).items()
                if inspect.isfunction(f) and not n.startswith("_")
                and f.__module__ == module.__name__
            )
        for name in names:
            original = getattr(module, name)
            traced = tracer.wrap(layer, name, original, **hooks.get(f"{layer}.{name}", {}))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, traced)


def main() -> int:
    trace_path, op_id = sys.argv[1], sys.argv[2]
    if sys.argv[3] != "--":
        raise SystemExit("usage: trace_boot.py TRACE.json OP_ID -- CLI ARGS...")
    cli_args = sys.argv[4:]
    tracer = Tracer(op_id)
    t0 = perf_counter()
    import ringpair.cli

    t1 = perf_counter()
    tracer.spans.append(["import", t0, t1, -1, op_id])
    tracer.layers.append("import")
    _install(tracer)
    code = 1
    try:
        code = ringpair.cli.main(cli_args)
    finally:
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump({"op": op_id, "spans": tracer.spans, "counts": tracer.counts}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
