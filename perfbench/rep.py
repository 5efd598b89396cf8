"""One repetition of one benchmark workload, in a fresh process.

``run.py`` starts this script once per repetition (and once per set-up
probe) from the root of a checkout; it imports ``repro`` from ``src/``
of that checkout.  The repetition:

1. imports the program and builds the workload's configuration from
   the seed (this, with interpreter start, is ``setup_s``);
2. runs the workload against an empty result store (``wall_s``);
3. reads every persisted artifact back from disk for the digests and
   the exact simulated counts the correctness gate compares;
4. with ``--trace-dir``, merges the per-layer records of every process.

It writes one JSON object to ``--out``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import resource
import shutil
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Campaign workloads: (experiment, scale, jobs).  ``mc-paper``'s scale
#: is built in :func:`_campaign_scale`.
CAMPAIGNS = {
    "quick-cold": ("all", "quick", 1),
    "quick-cold-j2": ("all", "quick", 2),
    "mc-paper": ("fig6", None, 1),
}

#: ``mc-paper``: four paper-size kernels under model C, a few
#: frequencies across the transition, tens of trials per point.
MC_PAPER_TRIALS = 20
MC_PAPER_FREQ_POINTS = 3

#: ``dta-vgrid``: supply voltages [V] characterized and persisted, and
#: DTA cycles per instruction at each.
VGRID_VDDS = (0.60, 0.633, 0.667, 0.70, 0.733, 0.767, 0.80)
VGRID_CYCLES = 2048

WORKLOADS = tuple(CAMPAIGNS) + ("dta-vgrid",)

#: Experiments whose sections ``campaign run all`` must render.
ALL_SECTIONS = ("table1", "fig1", "fig2", "fig4", "fig5", "fig6",
                "fig7", "ablations")

_CREATED = re.compile(rb'"created_unix":[-+0-9.eE]+,')


def _campaign_scale(workload: str):
    from repro.experiments.scale import Scale
    scale = CAMPAIGNS[workload][1]
    if scale is not None:
        return scale
    return Scale(name="bench-mc-paper", trials=MC_PAPER_TRIALS,
                 freq_points=MC_PAPER_FREQ_POINTS, kernel_scale="paper",
                 char_cycles=256, fig4_samples=512, voltage_points=3)


def _vgrid_scale():
    from repro.experiments.scale import Scale
    return Scale(name="bench-dta-vgrid", trials=1, freq_points=1,
                 kernel_scale="quick", char_cycles=VGRID_CYCLES,
                 fig4_samples=512, voltage_points=len(VGRID_VDDS))


def read_artifacts(store_root: str) -> dict:
    """Digest and exact counts of everything persisted in a store.

    The digest covers each object's bytes minus its creation time, so
    it is equal exactly when every stored key and body is.  Counts:
    ISS cycles, FI-eligible ALU cycles and injected faults summed over
    the persisted Monte-Carlo trials, and DTA cycles over the persisted
    characterizations (mnemonics x cycles per instruction).
    """
    objects = os.path.join(store_root, "objects")
    counts = {"mc_trial_cycles": 0, "mc_alu_cycles": 0, "mc_faults": 0,
              "mc_trials": 0, "char_dta_cycles": 0, "objects": 0}
    digest = hashlib.sha256()
    for bucket in sorted(os.listdir(objects)):
        for name in sorted(os.listdir(os.path.join(objects, bucket))):
            with open(os.path.join(objects, bucket, name), "rb") as handle:
                data = handle.read()
            digest.update(name.encode())
            digest.update(hashlib.sha256(
                _CREATED.sub(b"", data, count=1)).digest())
            envelope = json.loads(data)
            kind = envelope["key"]["kind"]
            body = envelope["artifact"]
            counts["objects"] += 1
            if kind == "mc_point":
                for trial in body["trials"]:
                    counts["mc_trials"] += 1
                    counts["mc_trial_cycles"] += trial["cycles"]
                    counts["mc_alu_cycles"] += trial["alu_cycles"]
                    counts["mc_faults"] += trial["fault_count"]
            elif kind == "alu_characterization":
                counts["char_dta_cycles"] += (
                    len(body["critical_ps"])
                    * body["config"]["n_cycles_per_instr"])
    return {"artifact_sha256": digest.hexdigest(), "counts": counts}


def _render_problems(workload: str, rendered: str) -> list[str]:
    problems = []
    if "NOT RENDERED" in rendered:
        problems.append("a campaign section was not rendered")
    if CAMPAIGNS[workload][0] == "all":
        for name in ALL_SECTIONS:
            if f"\n{name} (scale: " not in f"\n{rendered}":
                problems.append(f"section {name} missing from the render")
    elif not rendered.strip():
        problems.append("empty render")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t-spawn", type=float, required=True,
                        help="perf_counter() of the parent just before "
                             "it started this process")
    parser.add_argument("--store", required=True,
                        help="empty directory for the result store")
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace-dir", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    from repro import native
    from repro.campaign import orchestrator
    from repro.experiments.context import ExperimentContext
    from repro.store import ResultStore

    recorder = None
    if args.trace_dir is not None:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import layers
        recorder = layers.install(args.trace_dir)

    # The CLI's defaults: `--engine numpy`, serial or throwaway fork
    # dispatch by --jobs, no retries, no persistent pool.
    native.set_backend("numpy")
    store = ResultStore(args.store)
    if args.workload in CAMPAIGNS:
        experiment, _, jobs = CAMPAIGNS[args.workload]
        scale = _campaign_scale(args.workload)

        def workload():
            # Looked up at call time: tracing patches the module.
            return orchestrator.run_campaign(
                experiment, scale, args.seed, store=store, jobs=jobs,
                log=orchestrator.stderr_log, engine="numpy")
    else:
        ctx = ExperimentContext.create(_vgrid_scale(), args.seed,
                                       store=store, engine="numpy")
        ctx.alu  # the context's hardware model is part of its set-up

        def workload():
            return [ctx.characterization(vdd) for vdd in VGRID_VDDS]

    t_first_call = time.perf_counter()
    result = {"setup_s": t_first_call - args.t_spawn}
    if not args.setup_only:
        outcome = workload()
        wall_s = time.perf_counter() - t_first_call
        # ru_maxrss is in KiB; RUSAGE_CHILDREN covers reaped workers.
        peak_kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                       resource.getrusage(
                           resource.RUSAGE_CHILDREN).ru_maxrss)
        result.update(wall_s=wall_s, peak_rss_mb=peak_kib / 1024.0,
                      problems=[])
        if args.workload in CAMPAIGNS:
            result.update(
                attempted=outcome.total, failed=outcome.failed,
                render_sha256=hashlib.sha256(
                    outcome.rendered.encode()).hexdigest())
            result["problems"] += _render_problems(args.workload,
                                                   outcome.rendered)
            if outcome.failures:
                result["problems"].append(
                    f"failed units: {', '.join(outcome.failures)}")
        else:
            # A characterization that fails raises, which fails the
            # whole repetition; the store digest stands in for a render.
            result.update(attempted=len(VGRID_VDDS), failed=0,
                          render_sha256=None)
        if recorder is not None:
            recorder.dump()
            result["trace"] = layers.merge(args.trace_dir)
        result.update(read_artifacts(args.store))
    shutil.rmtree(args.store, ignore_errors=True)
    with open(args.out, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
