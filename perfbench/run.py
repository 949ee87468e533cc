"""cubiclab benchmark: seeded workloads through ``cubiclab.cli.main``.

Run from the root of a checkout:

    python3 perfbench/run.py --workload split --seed 1 --seconds 22 --trace 0

One run times interpreter start plus ``import cubiclab.cli`` in fresh
processes (``setup_s``), makes one untimed pass over the workload's commands
that checks every output, then repeats the pass until ``--seconds`` have
elapsed.  It prints a summary, and as its last line a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  A traced run
alternates untraced and traced passes, so the tracing overhead is measured in
the same run.  Full results (machine facts, per-command times, work counts,
output hashes and, when traced, the spans) go to ``perfbench/out/``.

``--record`` rewrites ``reference.json`` from the current code for the
shipped seeds; do that only on the commit the references belong to.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
REFERENCE = os.path.join(HERE, "reference.json")
SHIPPED_SEEDS = range(0, 32)
SETUP_SAMPLES = 4
WORKLOADS = ("split", "connected", "quadrature")
COMMAND_KINDS = ("asymptotic", "sseries", "count", "equidist", "expsum", "construct",
                 "sintegral", "kernel")
LAYER_METRICS = (
    "forms_core.h_bounds_s",
    "lattice_enum.zero_points_s", "lattice_enum.points_examined", "lattice_enum.zeros",
    "lattice_enum.zero_ratio", "lattice_enum.count_self_s",
    "exp_sums.residue_histogram_s", "exp_sums.residues",
    "exp_sums.complete_sum_s", "exp_sums.complete_sum.residues", "exp_sums.sbound_check_s",
    "exp_sums.sum_g_s", "exp_sums.sum_g.points",
    "exp_sums.osc_integral_I_s", "exp_sums.osc_integral_I.calls",
    "singular_series.singular_series_truncated_self_s",
    "singular_series.find_nonsingular_padic_zero_s", "singular_series.local_density_s",
    "singular_series.local_density.solutions",
    "singular_integral.schmidt_IL_s", "singular_integral.samples",
    "singular_integral.chi_w_oscillatory_self_s",
    "kernels.sandwich_check_s", "kernels.points_checked",
    "equidist.equidist_experiment_self_s", "equidist.zeros",
    "linear_construction.solve_system_s", "linear_construction.candidates",
)


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_cubiclab():
    """Import the checkout's own ``src/cubiclab``, never an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "cubiclab", "cli.py")):
        _fail(f"no cubiclab sources under {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)
    import cubiclab.cli as cli
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        _fail(f"imported cubiclab from {cli.__file__}, not from {SRC}")
    return cli


def setup_times(samples: int) -> List[float]:
    """Wall time of a fresh interpreter importing the CLI, which every CLI
    call pays.  Call after ``import_cubiclab``, which has written the
    bytecode cache, so that no sample pays for compiling it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    argv = [sys.executable, "-c", "import cubiclab.cli"]
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        subprocess.run(argv, env=env, cwd=ROOT, check=True, timeout=120,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def _blas_threads():
    """Thread count of the OpenBLAS bundled with numpy, or None if not found."""
    import numpy
    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    names = sorted(os.listdir(libs)) if os.path.isdir(libs) else []
    for name in (n for n in names if "openblas" in n):
        lib = ctypes.CDLL(os.path.join(libs, name))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine_facts(removed_workers) -> dict:
    import numpy
    import scipy
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": _blas_threads(),
        "blas_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                "MKL_NUM_THREADS") if k in os.environ},
        "CUBICLAB_WORKERS": "unset (1 worker)"
                            + (f"; removed {removed_workers!r}" if removed_workers else ""),
    }


def run_command(cli, cmd, tracer=None):
    """(seconds, exit code, stdout) of one CLI call; a description of the
    exception takes the place of the exit code when the call raised."""
    buf = io.StringIO()
    span = tracer.span("cli.main") if tracer is not None else contextlib.nullcontext()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf), span:
            rc = cli.main(list(cmd.argv))
    except (Exception, SystemExit):
        rc = "raised: " + traceback.format_exc(limit=3).strip().splitlines()[-1]
    return time.perf_counter() - t0, rc, buf.getvalue()


def fastest_wall(times: Dict[str, List[float]]) -> float:
    """Sum over commands of each command's fastest call."""
    return sum(min(ts) for ts in times.values())


class Run:
    """One workload and seed: inputs, commands, checks and call times."""

    def __init__(self, cli, workload: str, seed: int):
        import workloads as wl
        from cubiclab import forms_core as fc

        self.cli = cli
        self.workload = workload
        self.inputs = wl.make_inputs(seed)
        self.input_dir = os.path.join(OUT, "inputs", f"{workload}-{seed}")
        self.paths = wl.write_inputs(workload, self.inputs, self.input_dir)
        self.commands = wl.commands(workload, self.inputs, self.paths)
        self.form = fc.load_cubic_form(self.paths["form"])
        self.problems: Dict[str, List[str]] = {}
        self.hashes: Dict[str, str] = {}
        self.work: Dict[str, tuple] = {}
        self.times: Dict[str, List[float]] = {c.label: [] for c in self.commands}
        self.traced_times: Dict[str, List[float]] = {c.label: [] for c in self.commands}
        self.attempted = 0
        self.failed = 0
        self._tally("inputs", wl.property_problems(workload, self.paths))

    def _tally(self, label: str, problems: List[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.setdefault(label, []).extend(problems)

    def first_pass(self, reference: dict) -> Dict[str, dict]:
        """Untimed pass that checks every output fully and keeps its hash.
        Returns each command's checked fields."""
        import checks

        ref = reference.get(self.workload, {})
        seed = str(self.inputs.seed)
        shipped = seed in ref
        ref_seed = ref.get(seed, ref.get(str(SHIPPED_SEEDS[0])))
        got_all = {}
        for cmd in self.commands:
            _, rc, out = run_command(self.cli, cmd)
            problems = [f"exit {rc}: {out.strip()[:200]}"] if rc != 0 else []
            if not problems:
                doc = checks.normalize(json.loads(out), self.input_dir)
                self.hashes[cmd.label] = checks.output_hash(doc)
                self.work[cmd.label] = checks.work_count(cmd.label, doc)
                got = got_all[cmd.label] = checks.fields(cmd.label, doc)
                problems += checks.oracle_problems(self.workload, cmd.label, doc,
                                                   self.inputs, self.form)
                if ref_seed is not None:
                    problems += checks.compare(got, ref_seed.get(cmd.label, {}), shipped)
            self._tally(cmd.label, problems)
        return got_all

    def timed_pass(self, tracer=None) -> None:
        """One pass over all commands; each output must repeat the first pass."""
        import checks

        times = self.times if tracer is None else self.traced_times
        for cmd in self.commands:
            dt, rc, out = run_command(self.cli, cmd, tracer)
            problems = [f"exit {rc}"] if rc != 0 else []
            if not problems:
                doc = checks.normalize(json.loads(out), self.input_dir)
                if checks.output_hash(doc) != self.hashes.get(cmd.label):
                    problems.append("output differs from the first pass")
            self._tally(cmd.label, problems)
            times[cmd.label].append(dt)

    def command_table(self) -> List[dict]:
        rows = []
        for cmd in self.commands:
            ts = self.times[cmd.label]
            count, what = self.work.get(cmd.label, (None, ""))
            rows.append({"label": cmd.label, "kind": cmd.kind, "min_s": min(ts),
                         "median_s": statistics.median(ts), "max_s": max(ts),
                         "samples": len(ts), "work": count, "work_unit": what,
                         "output_hash": self.hashes.get(cmd.label)})
        return rows


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(run: Run, seconds: float, tracer=None) -> List[Dict[str, float]]:
    """Repeat timed passes for ``seconds``.  With a tracer, each untraced pass
    is followed by a traced one; returns the layer totals of every traced
    pass."""
    import tracing

    traced = []
    start = time.perf_counter()
    while True:
        run.timed_pass()
        if tracer is not None:
            first = len(tracer.spans)
            tracer.install()
            try:
                run.timed_pass(tracer)
            finally:
                tracer.uninstall()
            traced.append(tracing.layer_totals(tracer.spans[first:]))
        if time.perf_counter() - start >= seconds:
            return traced


def layer_metrics(run: Run, traced: List[Dict[str, float]]) -> dict:
    """Per-layer metrics: each the value of the traced pass where it was
    smallest (work counts are the same on every pass)."""
    metrics = {}
    for name in LAYER_METRICS:
        if name == "lattice_enum.zero_ratio":
            vals = [t.get("lattice_enum.zeros", 0) / t["lattice_enum.points_examined"]
                    if t.get("lattice_enum.points_examined") else 0.0 for t in traced]
        else:
            vals = [t.get(name, 0.0) for t in traced]
        unit = "s" if name.endswith("_s") else ("ratio" if name.endswith("ratio") else "count")
        metrics[name] = _metric(min(vals), unit)
    metrics["cli.self_s"] = _metric(min(t.get("cli.main_self_s", 0.0) for t in traced), "s")
    for kind in COMMAND_KINDS:
        metrics[f"{kind}_s"] = _metric(
            sum(min(run.times[c.label]) for c in run.commands if c.kind == kind), "s")
    metrics["trace_overhead_s"] = _metric(
        fastest_wall(run.traced_times) - fastest_wall(run.times), "s")
    return metrics


def record(cli) -> None:
    """Write reference.json: the checked fields of every command for the
    shipped seeds, on the current code."""
    import checks

    reference: Dict[str, Dict[str, dict]] = {}
    for workload in WORKLOADS:
        reference[workload] = {}
        for seed in SHIPPED_SEEDS:
            run = Run(cli, workload, seed)
            got = run.first_pass({})
            if run.failed:
                _fail(f"{workload} seed {seed} fails its checks: {run.problems}")
            reference[workload][str(seed)] = {label: checks.to_reference(f)
                                              for label, f in got.items()}
            print(f"recorded {workload} seed {seed}", flush=True)
    with open(REFERENCE, "w") as fh:
        json.dump(reference, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=22)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="rewrite reference.json for the shipped seeds")
    args = parser.parse_args(argv)
    if not args.record and args.workload is None:
        parser.error("--workload is required")

    removed_workers = os.environ.pop("CUBICLAB_WORKERS", None)
    cli = import_cubiclab()
    os.makedirs(OUT, exist_ok=True)
    if args.record:
        record(cli)
        return 0
    try:
        with open(REFERENCE) as fh:
            reference = json.load(fh)
    except FileNotFoundError:
        _fail(f"missing {REFERENCE}")

    import tracing

    setup = [] if args.trace else setup_times(SETUP_SAMPLES)
    run = Run(cli, args.workload, args.seed)
    run.first_pass(reference)
    tracer = tracing.Tracer() if args.trace else None
    traced = measure(run, args.seconds, tracer)
    if tracer is not None:
        metrics = layer_metrics(run, traced)
    else:
        metrics = {
            "wall_s": _metric(fastest_wall(run.times), "s"),
            "setup_s": _metric(statistics.median(setup), "s"),
            "peak_rss_mb": _metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }

    facts = machine_facts(removed_workers)
    table = run.command_table()
    result = {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
              "metrics": metrics}
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT, f"result-{tag}.json"), "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "seconds": args.seconds, "machine": facts, "inputs": run.inputs.__dict__,
                   "commands": table, "setup_samples_s": setup,
                   "pass_walls_s": [sum(p) for p in zip(*run.times.values())],
                   "wrapped": tracer.wrapped if tracer else [],
                   "problems": run.problems, **result}, fh, indent=1, default=str)
    if tracer is not None:
        with open(os.path.join(OUT, f"spans-{tag}.json"), "w") as fh:
            json.dump([sp.__dict__ for sp in tracer.spans], fh)

    print(f"machine: {json.dumps(facts, sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed}: "
          f"{table[0]['samples']} timed passes")
    for row in table:
        print(f"  {row['label']:<16} min {row['min_s']:.4f} s, median {row['median_s']:.4f} s "
              f"over {row['samples']}  work {row['work']} {row['work_unit']}  "
              f"hash {row['output_hash']}")
    for label, problems in run.problems.items():
        for problem in problems:
            print(f"  FAIL {label}: {problem}")
    print(f"fail_frac {run.failed / run.attempted:.4g} ({run.failed}/{run.attempted})")
    for name, m in sorted(metrics.items()):
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
