"""Peak resident memory of each benchmark CLI call, one fresh process per
call, to check a memory claim command by command.

    python3 tools/peak_rss.py <checkout> [workload ...] [--seeds 201,204]
                              [--labels count,equidist]

Runs the commands of the named workloads of
``<checkout>/perfbench/workloads.py`` (``split``, ``connected`` and
``quadrature``; all three when none is named), or those of them with the
given labels, through that checkout's ``cubiclab.cli.main`` at each seed
(default 0).  Each call runs in a new Python process, one at a time, which
writes the call's input files and imports the CLI before it: its
``ru_maxrss`` then is the baseline.  Prints one line per call: seed,
workload, label, exit code, the baseline and the peak ``ru_maxrss`` in MB,
and the peak above the baseline.  No bytecode is written into the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import resource
import subprocess
import sys
import tempfile

WORKLOADS = ("split", "connected", "quadrature")


def _mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024   # kB on Linux


def _commands(root: str, workload: str, seed: int, tmp: str):
    """The workload's commands at ``seed``, with its input files in ``tmp``."""
    sys.dont_write_bytecode = True
    sys.path[:0] = [os.path.join(root, "perfbench")]
    import workloads as wl

    inputs = wl.make_inputs(seed)
    return wl.commands(workload, inputs, wl.write_inputs(workload, inputs, tmp))


def _one(root: str, workload: str, seed: int, label: str) -> None:
    """Run one call in this process and print its line."""
    with tempfile.TemporaryDirectory() as tmp:
        [cmd] = [c for c in _commands(root, workload, seed, tmp) if c.label == label]
        sys.path[:0] = [os.path.join(root, "src")]
        import cubiclab.cli as cli

        base = _mb()
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(list(cmd.argv))
        peak = _mb()
    print(seed, workload, label, rc, f"{base:.1f}", f"{peak:.1f}", f"{peak - base:.1f}",
          flush=True)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--one"]:
        _one(argv[1], argv[2], int(argv[3]), argv[4])
        return 0
    parser = argparse.ArgumentParser(
        description="Peak RSS of each benchmark CLI call, one fresh process per call.")
    parser.add_argument("checkout")
    parser.add_argument("workloads", nargs="*", help="any of " + ", ".join(WORKLOADS))
    parser.add_argument("--seeds", default="0", help="comma-separated seeds (default 0)")
    parser.add_argument("--labels", help="comma-separated command labels (default all)")
    args = parser.parse_args(argv)
    if not set(args.workloads) <= set(WORKLOADS):
        parser.error(f"workloads are {', '.join(WORKLOADS)}")
    root = os.path.abspath(args.checkout)
    names = [w for w in WORKLOADS if w in args.workloads] or WORKLOADS
    labels = None if args.labels is None else set(args.labels.split(","))
    for seed in (int(s) for s in args.seeds.split(",")):
        for workload in names:
            with tempfile.TemporaryDirectory() as tmp:
                calls = [c.label for c in _commands(root, workload, seed, tmp)
                         if labels is None or c.label in labels]
            for label in calls:
                subprocess.run([sys.executable, "-B", os.path.abspath(__file__), "--one", root,
                                workload, str(seed), label], check=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
