"""One benchmark repetition in a fresh process.

Run from the repository root with the program on the path::

    PYTHONPATH=src python perfbench/rep.py --workload rca8_rule_aclv \\
        --seed 1 --mode timed --spawned-at "$(python -c 'import time; print(time.monotonic())')"

``--spawned-at`` is the spawning process's ``time.monotonic()`` just
before the spawn; the system-wide monotonic clock makes ``setup_s``
cover interpreter start, imports, technology, library, characterization,
litho calibration, netlist and placement.  Modes:

``timed``
    set up, run the workload once (the timed call), check its outputs.
``setup``
    set up and exit: one more set-up sample.
``traced``
    ``timed`` with the layer shims of :mod:`shims` installed before
    set-up; adds per-layer metrics and writes the spans.
``accuracy``
    the two deterministic CD error metrics on the c17 rule-OPC mask.

The last line of standard output is one JSON object with the results,
including the monotonic times that bound set-up (``setup_end``) and the
timed call (``start``, ``end``), so the spawning process can match them
with its CPU speed samples.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import time
from typing import Any, Dict, List, Optional, Tuple

WORKLOADS = ("rca8_rule_aclv", "c17_sweep", "fabric3k_mc")
#: short enough that a run fits several fresh-process repetitions
MC_SAMPLES = 50
FABRIC_SEED = 1
#: sample indices whose WNS is recomputed through the scalar path
MC_SPOT_CHECKS = (0, 21, 49)
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: per-layer metrics the orchestrator adds to a traced repetition's own
TRACE_PREFIX = "trace."


def declared_units(kind: str) -> Dict[str, str]:
    """Name -> unit of the metrics of one kind BENCHMARK.json declares."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


class Workload:
    """Set-up state of one workload, and its timed call."""

    def __init__(self, name: str, seed: int) -> None:
        from repro.cells import build_library
        from repro.circuits import c17, ripple_carry_adder, structured_asic
        from repro.flow import FlowConfig, PostOpcTimingFlow
        from repro.litho import LithographySimulator
        from repro.pdk import make_tech_90nm
        from repro.timing.mc import CdVariationSpec
        from repro.variation import DoseDefocusMap

        self.name = name
        tech = make_tech_90nm()
        library = build_library(tech)
        simulator = LithographySimulator.for_tech(tech)
        if name == "rca8_rule_aclv":
            netlist = ripple_carry_adder(8)
        elif name == "fabric3k_mc":
            # The fabric is a fixed vehicle: its netlist seed sets how
            # much STA work a sample costs, so only the MC samples follow
            # the workload seed.
            netlist = structured_asic(3000, seed=FABRIC_SEED)
        else:
            netlist = c17(library)
        # The flow constructor characterizes the library and calibrates
        # the simulator to its anchor grating.
        self.flow = PostOpcTimingFlow(netlist, tech, cells=library,
                                      simulator=simulator)
        die = self.flow.placement.die
        if name == "rca8_rule_aclv":
            self.config = FlowConfig(
                opc_mode="rule", clock_period_ps=None,
                process_map=DoseDefocusMap(die, seed=seed))
        else:
            self.config = FlowConfig(clock_period_ps=None)
        self.spec = CdVariationSpec(seed=seed)
        self.reports: Dict[str, Any] = {}
        self.failures: Dict[str, str] = {}
        self.drawn_wns = float("nan")
        self.mc: Any = None

    def run(self) -> None:
        """The timed call."""
        if self.name == "rca8_rule_aclv":
            self.reports = {"rule": self.flow.run(self.config)}
        elif self.name == "c17_sweep":
            from repro.flow import FlowSweep

            result = FlowSweep(self.flow, modes=("rule", "selective")).run(
                self.config)
            self.reports, self.failures = result.reports, result.failures
        else:
            # Looked up at call time, so a traced run reaches the shim.
            from repro.timing import mc

            self.drawn_wns = self.flow.engine.run().wns
            self.mc = mc.run_monte_carlo(self.flow.engine, self.flow.model,
                                         samples=MC_SAMPLES, spec=self.spec)

    def check(self) -> Tuple[int, int, str]:
        """(attempted, failed, output digest) of the timed call."""
        if self.name == "fabric3k_mc":
            return self._check_mc()
        return self._check_flows()

    def _check_flows(self) -> Tuple[int, int, str]:
        """One operation per mode run and per gate extraction.  A gate
        fails when quarantined or unmeasured; a mode fails when it raised,
        lost coverage or has a non-finite post-OPC WNS."""
        modes = ("rule",) if self.name == "rca8_rule_aclv" else (
            "rule", "selective")
        gates = set(self.flow.netlist.gates)
        attempted = failed = 0
        digest = hashlib.sha256()
        for mode in modes:
            attempted += 1 + len(gates)
            report = self.reports.get(mode)
            if report is None:
                failed += 1 + len(gates)
                continue
            measured = {key[0] for key in report.measurements}
            failed += len((gates - measured) | set(report.quarantined_gates))
            if report.coverage != 1.0 or not math.isfinite(report.wns_post):
                failed += 1
            for key in sorted(report.measurements, key=repr):
                cds = report.measurements[key].slice_cds
                digest.update(repr((mode, key, cds)).encode())
        return attempted, failed, digest.hexdigest()

    def _check_mc(self) -> Tuple[int, int, str]:
        """One operation per MC sample (plus the drawn STA).  A sample
        fails when non-finite or, at the spot-checked indices, when the
        scalar recomputation disagrees in any bit."""
        from repro.timing.mc import derate_for_delta_l, sample_instance_deltas

        samples = self.mc.wns_samples if self.mc is not None else []
        attempted = MC_SAMPLES + 1
        failed = MC_SAMPLES - len(samples)
        failed += sum(1 for wns in samples if not math.isfinite(wns))
        failed += 0 if math.isfinite(self.drawn_wns) else 1
        engine, model = self.flow.engine, self.flow.model
        for index in MC_SPOT_CHECKS:
            deltas = sample_instance_deltas(engine.netlist, engine.placement,
                                            self.spec, index)
            derates = {
                gate.name: derate_for_delta_l(
                    engine.cells[gate.cell_name], deltas[gate.name], model)
                for gate in engine.netlist.gates.values()
            }
            wns = engine.run(None, derates).wns
            if index >= len(samples) or samples[index] != wns:
                failed += 1
        digest = hashlib.sha256(repr((self.drawn_wns, samples)).encode())
        return attempted, failed, digest.hexdigest()


def accuracy() -> Dict[str, Any]:
    """Max per-site mean-CD disagreement on the c17 rule-OPC mask:
    default imaging vs the Abbe reference in one whole-die window, and
    the whole-die window vs one window per site (default imaging)."""
    from repro.metrology import measure_gate_cds
    from repro.opc import RuleOpcRecipe, apply_rule_opc

    # c17 at the nominal condition: the seed changes nothing here.
    flow = Workload("c17_sweep", seed=0).flow
    simulator = flow.simulator
    sites = dict(flow.gate_rects)
    mask = apply_rule_opc([poly for _, poly in flow.owned_polygons],
                          RuleOpcRecipe.for_tech(flow.tech))
    die = flow.placement.die
    threshold = simulator.resist.threshold

    def mean_cds(image, rects) -> Dict[Any, float]:
        measured = measure_gate_cds(image, threshold, rects)
        return {key: measured[key].mean_cd for key in rects if key in measured}

    whole = mean_cds(simulator.latent_image(mask, die), sites)
    abbe = mean_cds(simulator.latent_image(mask, die, method="abbe"), sites)
    per_site: Dict[Any, float] = {}
    for key, rect in sites.items():
        per_site.update(mean_cds(simulator.latent_image(mask, rect),
                                 {key: rect}))
    ok = (len(whole) == len(abbe) == len(per_site) == len(sites)
          and all(math.isfinite(v) and v > 0
                  for v in (*whole.values(), *abbe.values(),
                            *per_site.values())))
    return {
        "ok": ok,
        "cd_abbe_max_err_nm": max(abs(whole[k] - abbe[k]) for k in sites)
        if ok else float("nan"),
        "cd_window_max_err_nm": max(abs(whole[k] - per_site[k])
                                    for k in sites) if ok else float("nan"),
    }


def repetition(workload: str, seed: int, mode: str,
               spawned_at: float) -> Dict[str, Any]:
    tracer = None
    if mode == "traced":
        import shims

        tracer = shims.install()
        state = tracer.call("setup", Workload, workload, seed)
    else:
        state = Workload(workload, seed)
    setup_end = time.monotonic()
    setup_s = setup_end - spawned_at
    if mode == "setup":
        return {"setup_s": setup_s, "setup_end": setup_end}
    start = time.monotonic()
    if tracer is None:
        state.run()
    else:
        tracer.phase = "timed"
        tracer.call("workload", state.run)
        tracer.active = False
    end = time.monotonic()
    wall_s = end - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted, failed, digest = state.check()
    result: Dict[str, Any] = {
        "setup_s": setup_s, "setup_end": setup_end, "wall_s": wall_s,
        "start": start, "end": end, "peak_rss_mb": peak_rss_mb,
        "attempted": attempted, "failed": failed, "digest": digest,
        "failures": state.failures,
    }
    if tracer is not None:
        reports: List[Any] = list(state.reports.values())
        context = state.flow.context if reports else None
        names = [name for name in declared_units("per_layer")
                 if not name.startswith(TRACE_PREFIX)]
        result["layers"] = tracer.layer_metrics(names, wall_s, reports,
                                                context)
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"spans-{workload}-seed{seed}.json")
        tracer.write(path)
        result["spans"] = len(tracer.spans)
        result["spans_path"] = os.path.relpath(path, ROOT)
    return result


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True,
                        choices=("timed", "setup", "traced", "accuracy"))
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args(argv)
    if args.mode == "accuracy":
        result = accuracy()
    else:
        result = repetition(args.workload, args.seed, args.mode,
                            args.spawned_at)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
