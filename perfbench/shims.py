"""Layer spans and work counters, recorded from outside the program.

:func:`install` wraps the public entry points of each layer in a timing
shim.  A module-level function is replaced in every loaded ``repro``
module that holds it, because a caller looks the name up in its own
module (``repro.litho.simulator.rasterize``, not only
``repro.litho.raster.rasterize``); a method is replaced on its class.

Each call becomes a span (name, phase, start, end, parent) kept in
memory; :meth:`Tracer.layer_metrics` derives busy and self time per
layer and :meth:`Tracer.write` dumps the spans at the end.  A layer's
self time is its busy time minus the time of the spans it directly
caused.  Only the outermost call of a layer is a span, so a layer that
re-enters itself is not counted twice.
"""

from __future__ import annotations

import inspect
import json
import math
import sys
import time
from collections import Counter
from typing import Any, Callable, Dict, List, Optional

#: layers with a span; each reports ``busy_s`` and ``self_s``
SPAN_LAYERS = ("litho.imaging", "litho.raster", "litho.resist",
               "litho.simulator", "metrology.gate_cd", "opc.rules",
               "opc.model_based", "timing.sta", "timing.mc",
               "timing.incremental")

class Tracer:
    """In-memory span recorder plus the layer counters."""

    def __init__(self) -> None:
        #: [name, phase, start, end, parent index or None]
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._open: Counter = Counter()
        self.counts: Counter = Counter()
        self.kernel_keys: set = set()
        self.epe_rms: List[float] = []
        #: "setup" until the timed call starts, then "timed"
        self.phase = "setup"
        #: False after the timed region: correctness checks are not traced
        self.active = True

    def call(self, name: str, fn: Callable[..., Any], *args, **kwargs) -> Any:
        """Run ``fn`` inside a span named ``name``."""
        if not self.active or self._open[name]:
            return fn(*args, **kwargs)
        index = len(self.spans)
        record = [name, self.phase, 0.0, 0.0,
                  self._stack[-1] if self._stack else None]
        self.spans.append(record)
        self._stack.append(index)
        self._open[name] += 1
        record[2] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            record[3] = time.perf_counter()
            self._open[name] -= 1
            self._stack.pop()

    def count(self, name: str, amount: float = 1) -> None:
        if self.active:
            self.counts[name] += amount

    # -- derived metrics ----------------------------------------------------

    def busy_and_self(self) -> Dict[str, List[float]]:
        """Layer -> [busy seconds, self seconds] over every span."""
        child_time = [0.0] * len(self.spans)
        for name, _, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: Dict[str, List[float]] = {}
        for index, (name, _, start, end, _) in enumerate(self.spans):
            entry = totals.setdefault(name, [0.0, 0.0])
            entry[0] += end - start
            entry[1] += end - start - child_time[index]
        return totals

    def timed_busy(self, name: str) -> float:
        return sum(end - start for n, phase, start, end, _ in self.spans
                   if n == name and phase == "timed")

    def layer_metrics(self, names: List[str], wall_s: float,
                      reports: List[Any],
                      context: Optional[Any]) -> Dict[str, float]:
        """Each of ``names`` with its value; 0 for a layer never entered."""
        out = {name: 0.0 for name in names}
        times = self.busy_and_self()
        for layer in SPAN_LAYERS:
            busy, own = times.get(layer, [0.0, 0.0])
            out[f"{layer}.busy_s"] = busy
            out[f"{layer}.self_s"] = own
        for name, value in self.counts.items():
            if name in out:
                out[name] = float(value)
        pixels = out["litho.imaging.pixels"]
        if pixels:
            out["litho.imaging.ns_per_pixel"] = (
                out["litho.imaging.busy_s"] * 1e9 / pixels)
        if wall_s > 0:
            out["litho.imaging.share_of_wall"] = (
                self.timed_busy("litho.imaging") / wall_s)
        window_px = self.counts["litho.simulator.window_px"]
        if window_px:
            out["litho.simulator.useful_pixel_ratio"] = (
                self.counts["litho.simulator.region_px"] / window_px)
        measured = self.counts["metrology.quarantine.measured"]
        if measured:
            out["metrology.gate_cd.quarantine_ratio"] = (
                self.counts["metrology.quarantine.faults"] / measured)
        if self.epe_rms:
            out["opc.model_based.final_rms_epe_nm"] = max(self.epe_rms)
        out["timing.mc.sample_s"] = times.get("timing.mc.sample", [0.0])[0]
        for report in reports:
            for record in report.trace:
                key = f"flow.stages.{record.name}.wall_s"
                if key in out:
                    out[key] += record.wall_s
        if context is not None:
            for stage, counts in context.stats()["stages"].items():
                for kind in ("hits", "misses"):
                    key = f"flow.context.{stage}.{kind}"
                    if key in out:
                        out[key] = float(counts[kind])
        return out

    def write(self, path: str) -> None:
        spans = [
            {"id": i, "name": name, "phase": phase, "start": start,
             "end": end, "parent": parent}
            for i, (name, phase, start, end, parent) in enumerate(self.spans)
        ]
        with open(path, "w") as fh:
            json.dump({"spans": spans}, fh)
            fh.write("\n")


def _replace_function(original: Callable, shim: Callable) -> int:
    """Swap ``original`` for ``shim`` in every loaded ``repro`` module."""
    replaced = 0
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, shim)
                replaced += 1
    if not replaced:
        raise RuntimeError(f"no module holds {original.__qualname__}")
    return replaced


def _wrap(tracer: Tracer, layer: str, original: Callable,
          after: Optional[Callable[[Any, Dict[str, Any]], None]] = None):
    """A shim that times ``original`` as a ``layer`` span, then hands the
    result and the bound arguments to ``after`` for counting."""
    signature = inspect.signature(original)

    def shim(*args, **kwargs):
        result = tracer.call(layer, original, *args, **kwargs)
        if after is not None and tracer.active:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            after(result, bound.arguments)
        return result

    shim.__wrapped__ = original
    return shim


def install() -> Tracer:
    """Import the program's layers and shim their entry points."""
    import repro.flow.stages  # noqa: F401  (loads every caller module)
    from repro.flow.parallel import ParallelExecutor, split_chunks
    from repro.litho import raster
    from repro.litho.imaging import OpticalModel
    from repro.litho.resist import ResistModel
    from repro.litho.simulator import LithographySimulator
    from repro.metrology import gate_cd
    from repro.opc import model_based, rules
    from repro.timing import incremental, mc
    from repro.timing.sta import StaEngine

    tracer = Tracer()
    count = tracer.count

    def raster_after(mask, args):
        count("litho.raster.calls")
        count("litho.raster.pixels", mask.data.size)

    def imaging_after(image, args):
        count("litho.imaging.calls")
        if tracer.phase == "setup":
            count("litho.imaging.setup_calls")
        count("litho.imaging.pixels", image.intensity.size)
        if args["method"] != "socs":
            return
        mask, defocus = args["mask"], args["defocus_nm"]
        key = (mask.nx, mask.ny, round(mask.pixel, 9), round(defocus, 6))
        if key not in tracer.kernel_keys:
            tracer.kernel_keys.add(key)
            count("litho.imaging.kernel_builds")
        count("litho.imaging.kernels",
              args["self"].kernel_count(mask.nx, mask.ny, mask.pixel, defocus))

    def simulator_after(latent, args):
        region, pixel = args["region"], latent.pixel
        count("litho.simulator.tiles")
        count("litho.simulator.region_px",
              region.width * region.height / (pixel * pixel))
        count("litho.simulator.window_px", latent.intensity.size)

    def gate_cd_after(measured, args):
        count("metrology.gate_cd.calls")
        count("metrology.gate_cd.gates", len(measured))

    def quarantine_after(split, args):
        count("metrology.quarantine.measured", len(args["measurements"]))
        count("metrology.quarantine.faults", len(split[1]))

    def rules_after(polygons, args):
        count("opc.rules.calls")
        count("opc.rules.polygons", len(args["polygons"]))

    def model_after(result, args):
        count("opc.model_based.calls")
        count("opc.model_based.iterations", result.iterations_run)
        if math.isfinite(result.final_rms_epe):
            tracer.epe_rms.append(result.final_rms_epe)

    def mc_after(result, args):
        count("timing.mc.samples", len(result.wns_samples))

    def map_chunks_after(results, args):
        count("flow.parallel.map_chunks.calls")
        count("flow.parallel.chunks",
              len(split_chunks(args["tasks"], args["self"].jobs)))

    def counting(name):
        return lambda result, args: count(name)

    functions = (
        (raster.rasterize, "litho.raster", raster_after),
        (gate_cd.measure_gate_cds, "metrology.gate_cd", gate_cd_after),
        (gate_cd.quarantine_measurements, "metrology.quarantine",
         quarantine_after),
        (rules.apply_rule_opc, "opc.rules", rules_after),
        (model_based.apply_model_opc, "opc.model_based", model_after),
        (mc.run_monte_carlo, "timing.mc", mc_after),
        (mc.sample_instance_deltas, "timing.mc.sample", None),
        (incremental.run_incremental, "timing.incremental",
         counting("timing.incremental.calls")),
    )
    for original, layer, after in functions:
        _replace_function(original, _wrap(tracer, layer, original, after))

    methods = (
        (OpticalModel, "aerial_image", "litho.imaging", imaging_after),
        (ResistModel, "latent_image", "litho.resist",
         counting("litho.resist.calls")),
        (LithographySimulator, "latent_image", "litho.simulator",
         simulator_after),
        (StaEngine, "run", "timing.sta", counting("timing.sta.calls")),
        (ParallelExecutor, "map_chunks", "flow.parallel", map_chunks_after),
    )
    for cls, attr, layer, after in methods:
        setattr(cls, attr, _wrap(tracer, layer, getattr(cls, attr), after))

    return tracer
