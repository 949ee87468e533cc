"""One SHA-256 per benchmark CLI output, to check two checkouts for
byte-identical outputs, and the fields that differ where they are not.

    python3 tools/cli_outputs.py <checkout> [workload ...] > a.txt
    python3 tools/cli_outputs.py <other checkout> [workload ...] > b.txt
    diff a.txt b.txt

    python3 tools/cli_outputs.py <checkout> --against <other checkout> [workload ...]

Runs every command of the named workloads of
``<checkout>/perfbench/workloads.py`` (``split``, ``connected`` and
``quadrature``; all three when none is named) through that checkout's
``cubiclab.cli.main``, in this process, at seeds 0-31.  Each output has its
run-dependent parts dropped before hashing: every ``wall_ms`` and the
``config`` echo of ``asymptotic``, which holds the paths of the per-run
input files.  Prints one line per call: seed, workload, label, exit code
and the hash of the rest of the output.

With ``--against``, each checkout runs in a process of its own, and for
every call whose hash differs it prints the call, both exit codes and the
JSON paths that differ (list indices written ``[]``), each float path with
its largest relative change |a - b| / max(|a|, |b|).  A last block gives,
per workload, label and path, the largest change over all the calls.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile

WORKLOADS = ("split", "connected", "quadrature")
SEEDS = range(0, 32)
_MISSING = object()


def _strip(doc):
    if isinstance(doc, dict):
        return {k: _strip(v) for k, v in doc.items() if k != "wall_ms"}
    if isinstance(doc, list):
        return [_strip(v) for v in doc]
    return doc


def _calls(root, names):
    """(seed, workload, label, exit code, output) of every call, run through
    ``root``'s ``cubiclab.cli`` in this process, the output stripped of its
    run-dependent parts."""
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    import cubiclab.cli as cli
    import workloads as wl

    with tempfile.TemporaryDirectory() as tmp:
        for seed in SEEDS:
            inputs = wl.make_inputs(seed)
            for workload in names:
                paths = wl.write_inputs(workload, inputs, os.path.join(tmp, f"{workload}-{seed}"))
                for cmd in wl.commands(workload, inputs, paths):
                    buf = io.StringIO()
                    with contextlib.redirect_stdout(buf):
                        rc = cli.main(list(cmd.argv))
                    doc = _strip(json.loads(buf.getvalue()))
                    if cmd.label == "asymptotic":
                        doc.pop("config", None)
                    yield seed, workload, cmd.label, rc, doc


def _hash(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def _calls_of(root, names):
    """``_calls`` of ``root``, run in a process of its own: two checkouts
    cannot share the name ``cubiclab`` in one."""
    code = ("import json, sys; sys.path.insert(0, sys.argv[1]); import cli_outputs\n"
            "for call in cli_outputs._calls(sys.argv[2], sys.argv[3:]):\n"
            "    print(json.dumps(call))")
    out = subprocess.run([sys.executable, "-c", code, os.path.dirname(os.path.abspath(__file__)),
                          root, *names], capture_output=True, text=True, check=True).stdout
    return [json.loads(line) for line in out.splitlines()]


def _number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _note(out, key, rel) -> None:
    """Keep in ``out`` the largest relative change ``rel`` seen at ``key``,
    or None once a change there is not between numbers."""
    if rel is None or out.get(key, 0.0) is None:
        out[key] = None
    else:
        out[key] = max(out.get(key, 0.0), rel)


def _diff(a, b, path, out) -> None:
    """Into ``out`` (``_note``), each path where a and b differ."""
    if isinstance(a, dict) and isinstance(b, dict):
        for k in sorted(set(a) | set(b)):
            _diff(a.get(k, _MISSING), b.get(k, _MISSING), f"{path}.{k}" if path else k, out)
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for x, y in zip(a, b):
            _diff(x, y, path + "[]", out)
    elif _number(a) and _number(b):
        if a == b or (math.isnan(a) and math.isnan(b)):
            return
        scale = max(abs(a), abs(b))
        _note(out, path, abs(a - b) / scale if math.isfinite(scale) else math.inf)
    elif a != b:
        _note(out, path, None)


def _show(rel) -> str:
    return "changed" if rel is None else f"max rel {rel:.3g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("checkout")
    parser.add_argument("--against", metavar="OTHER_CHECKOUT")
    parser.add_argument("workloads", nargs="*", metavar="workload")
    args = parser.parse_args(sys.argv[1:] if argv is None else argv)
    if not set(args.workloads) <= set(WORKLOADS):
        parser.error(f"workloads are {', '.join(WORKLOADS)}")
    root = os.path.abspath(args.checkout)
    names = [w for w in WORKLOADS if w in args.workloads] or list(WORKLOADS)
    if args.against is None:
        for seed, workload, label, rc, doc in _calls(root, names):
            print(seed, workload, label, rc, _hash(doc), flush=True)
        return 0
    calls = _calls_of(root, names)
    others = _calls_of(os.path.abspath(args.against), names)
    summary = {}
    same = 0
    for (seed, workload, label, rc, doc), (*_, rc_b, doc_b) in zip(calls, others):
        if rc == rc_b and _hash(doc) == _hash(doc_b):
            same += 1
            continue
        paths = {}
        _diff(doc, doc_b, "", paths)
        print(seed, workload, label, rc, rc_b, flush=True)
        for path, rel in sorted(paths.items()):
            print(f"    {path}  {_show(rel)}")
            _note(summary, (workload, label, path), rel)
    print(f"{same} of {len(calls)} calls identical")
    for (workload, label, path), rel in sorted(summary.items()):
        print(workload, label, path, _show(rel))
    return 0


if __name__ == "__main__":
    sys.exit(main())
