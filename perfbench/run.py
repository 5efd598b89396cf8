"""End-to-end benchmark of the repro pipeline: one workload per call.

Run from the root of a checkout::

    python3 perfbench/run.py --workload quick-cold --seed 2016 \\
        --seconds 20 --trace 0

Each repetition runs in a fresh process (``perfbench/rep.py``) against
an empty result store.  Repetitions start until ``--seconds`` have
passed (at least one; with ``--trace 1`` at least one untraced and one
traced, alternating).  A few set-up-only processes add samples to
``setup_s``.  The metric names, units and bounds come from
``BENCHMARK.json`` at the checkout root.

The correctness gate fails the run (``"correct": false``, exit 1) when
a unit fails, a render section is missing, or a render digest,
artifact digest or exact simulated count differs between repetitions,
from the values recorded for this seed in ``perfbench/expected.json``,
or from an earlier run of this checkout with the same seed (kept under
``perfbench/.work/``).  ``quick-cold`` and ``quick-cold-j2`` share
those records, so the two dispatch modes must agree byte for byte.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` -- the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from rep import WORKLOADS  # noqa: E402

#: Set-up-only processes per run, on top of each untraced repetition.
SETUP_PROBES = 3
#: No repetition starts once a run has taken this long, and one that
#: takes longer than the timeout is killed, so a run ends within
#: 180 s.  Normal repetitions take under 35 s.
RUN_CAP_S = 90.0
REP_TIMEOUT_S = 75.0

#: Workloads that share correctness records: the same campaign under
#: serial and two-worker fork dispatch must persist and render the
#: same bytes.
RECORD_GROUP = {"quick-cold": "quick", "quick-cold-j2": "quick",
                "mc-paper": "mc-paper", "dta-vgrid": "dta-vgrid"}

CHECKED = ("render_sha256", "artifact_sha256", "counts")


def _spawn(args, work: str, index: int, *, traced: bool = False,
           setup_only: bool = False) -> dict:
    """Run one repetition (or set-up probe) in a fresh process."""
    tag = f"{'setup' if setup_only else 'rep'}-{index}"
    out = os.path.join(work, f"{tag}.json")
    store = os.path.join(work, f"{tag}-store")
    command = [sys.executable, os.path.join(HERE, "rep.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--store", store, "--out", out]
    if setup_only:
        command.append("--setup-only")
    if traced:
        trace_dir = os.path.join(work, f"{tag}-trace")
        os.makedirs(trace_dir)
        command += ["--trace-dir", trace_dir]
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env.update(TMPDIR=os.path.join(work, "tmp"),
               REPRO_STORE=os.path.join(work, "default-store"),
               REPRO_NATIVE_CACHE=os.path.join(HERE, ".work", "native"))
    log_path = os.path.join(work, f"{tag}.log")
    with open(log_path, "w") as log:
        command += ["--t-spawn", repr(time.perf_counter())]
        # Own session: on a timeout or interrupt the whole tree (the
        # repetition and its fork-pool workers) is killed together.
        proc = subprocess.Popen(command, cwd=ROOT, env=env, stdout=log,
                                stderr=subprocess.STDOUT,
                                start_new_session=True)
        try:
            code = proc.wait(timeout=REP_TIMEOUT_S)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
    if code != 0:
        with open(log_path) as log:
            tail = log.read()[-3000:]
        raise RuntimeError(f"{tag} exited with {code}:\n{tail}")
    with open(out) as handle:
        return json.load(handle)


def _summary(values: list[float]) -> tuple[float, float, float]:
    """Median and first/third quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def _check_records(group: str, seed: int, observed: dict) -> \
        tuple[list[str], str]:
    """Compare with the values recorded for this seed; record new ones.

    Returns the problems found and a note on what was compared.
    """
    with open(os.path.join(HERE, "expected.json")) as handle:
        expected = json.load(handle).get(group, {}).get(str(seed))
    seen_path = os.path.join(HERE, ".work", "seen.json")
    seen = {}
    if os.path.exists(seen_path):
        with open(seen_path) as handle:
            seen = json.load(handle)
    earlier = seen.get(group, {}).get(str(seed))
    problems = []
    for source, record in (("perfbench/expected.json", expected),
                           ("an earlier run with this seed", earlier)):
        for field in CHECKED if record is not None else ():
            if record[field] != observed[field]:
                problems.append(f"{field} differs from {source}: "
                                f"{observed[field]} != {record[field]}")
    if earlier is None:
        seen.setdefault(group, {})[str(seed)] = observed
        with open(seen_path + ".tmp", "w") as handle:
            json.dump(seen, handle, indent=1, sort_keys=True)
        os.replace(seen_path + ".tmp", seen_path)
    basis = ("values recorded for this seed" if expected is not None
             else "no recorded values for this seed")
    if earlier is not None:
        basis += ", an earlier run with this seed"
    return problems, basis + ", and across repetitions"


def _gate(workload: str, seed: int, reps: list[dict]) -> \
        tuple[list[str], str]:
    """Correctness problems of a run, and what was compared."""
    problems = [problem for rep in reps for problem in rep["problems"]]
    problems += [f"{rep['failed']} of {rep['attempted']} failed"
                 for rep in reps if rep["failed"]]
    first = {field: reps[0][field] for field in CHECKED}
    for rep in reps[1:]:
        problems += [f"{field} differs between repetitions"
                     for field in CHECKED if rep[field] != first[field]]
    found, basis = _check_records(RECORD_GROUP[workload], seed, first)
    return problems + found, basis


def _end_to_end(workload: str, reps: list[dict],
                setups: list[float]) -> dict:
    """Per-metric samples of the untraced repetitions."""
    # Simulated cycles: characterized DTA cycles where the workload is
    # characterization, else the ISS cycles of the Monte-Carlo trials.
    cycles = ("char_dta_cycles" if workload == "dta-vgrid"
              else "mc_trial_cycles")

    def throughput(rep):
        return rep["counts"][cycles] / rep["wall_s"] / 1e3
    return {
        "wall_s": [rep["wall_s"] for rep in reps],
        "setup_s": setups,
        "peak_rss_mb": [rep["peak_rss_mb"] for rep in reps],
        "sim_kcycles_per_s": [throughput(rep) for rep in reps],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=2016)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro",
                                       "__init__.py")):
        print(f"no program to measure: {ROOT}/src/repro is missing",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    work = os.path.join(HERE, ".work", f"run-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(os.path.join(work, "tmp"))
    try:
        started = time.perf_counter()
        setups = [_spawn(args, work, index, setup_only=True)["setup_s"]
                  for index in range(SETUP_PROBES)]
        untraced: list[dict] = []
        traced: list[dict] = []
        first_rep = time.perf_counter()
        while True:
            want_trace = bool(args.trace) and len(untraced) > len(traced)
            rep = _spawn(args, work, len(untraced) + len(traced),
                         traced=want_trace)
            (traced if want_trace else untraced).append(rep)
            enough = untraced and (traced or not args.trace)
            now = time.perf_counter()
            if enough and (now - first_rep >= args.seconds
                           or now - started >= RUN_CAP_S):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    reps = untraced + traced
    problems, basis = _gate(args.workload, args.seed, reps)
    attempted = sum(rep["attempted"] for rep in reps)
    failed = sum(rep["failed"] for rep in reps)
    setups += [rep["setup_s"] for rep in untraced]
    samples = _end_to_end(args.workload, untraced, setups)

    print(f"workload {args.workload}, seed {args.seed}: "
          f"{len(untraced)} untraced and {len(traced)} traced "
          f"repetition(s), {SETUP_PROBES} set-up probe(s)")
    e2e_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for name, values in samples.items():
        median, q1, q3 = _summary(values)
        print(f"  {name:18s} {median:12.4f} {e2e_units[name]:9s} "
              f"q1 {q1:.4f}  q3 {q3:.4f}  n={len(values)}")
    kcycles = statistics.median(samples["sim_kcycles_per_s"])
    if args.workload == "dta-vgrid":
        print(f"  {'dta_kcycles_per_s':18s} {kcycles:12.4f} kcycles/s")
    else:
        print(f"  {'iss_mcycles_per_s':18s} {kcycles / 1e3:12.4f} "
              f"Mcycles/s")
    print(f"  {'failed_frac':18s} {failed / attempted:12.4f} ratio     "
          f"({failed} of {attempted})")
    print(f"  correctness {'ok' if not problems else 'FAILED'}: "
          f"compared with {basis}")
    for problem in problems:
        print(f"    {problem}")

    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = {name: statistics.median(
            rep["trace"]["metrics"][name] for rep in traced)
            for name in units if name != "trace.overhead_s"}
        values["trace.overhead_s"] = (
            statistics.median(rep["wall_s"] for rep in traced)
            - statistics.median(rep["wall_s"] for rep in untraced))
        trace = traced[0]["trace"]
        print(f"  trace.coverage {values['trace.coverage']:.4f} (aim "
              f"0.90), trace.overhead_s {values['trace.overhead_s']:.3f};"
              f" largest unattributed self times: "
              + ", ".join(f"{name} {seconds:.3f} s"
                          for name, seconds in trace["unattributed"][:3]))
        for name, (total, self_s, calls) in trace["layers"].items():
            print(f"    {name:20s} total {total:9.3f} s  self "
                  f"{self_s:9.3f} s  calls {calls}")
    else:
        units = e2e_units
        values = {name: statistics.median(samples[name]) for name in units}
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
