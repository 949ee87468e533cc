"""One SHA-256 per benchmark CLI output, to check two checkouts for
byte-identical outputs.

    python3 tools/cli_outputs.py <checkout> [workload ...] > a.txt
    python3 tools/cli_outputs.py <other checkout> [workload ...] > b.txt
    diff a.txt b.txt

Runs every command of the named workloads of
``<checkout>/perfbench/workloads.py`` (``split``, ``connected`` and
``quadrature``; all three when none is named) through that checkout's
``cubiclab.cli.main``, in this process, at seeds 0-31.  Each output has its
run-dependent parts dropped before hashing: every ``wall_ms`` and the
``config`` echo of ``asymptotic``, which holds the paths of the per-run
input files.  Prints one line per call: seed, workload, label, exit code
and the hash of the rest of the output.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

WORKLOADS = ("split", "connected", "quadrature")
SEEDS = range(0, 32)


def _strip(doc):
    if isinstance(doc, dict):
        return {k: _strip(v) for k, v in doc.items() if k != "wall_ms"}
    if isinstance(doc, list):
        return [_strip(v) for v in doc]
    return doc


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not argv or not set(argv[1:]) <= set(WORKLOADS):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    root = os.path.abspath(argv[0])
    names = [w for w in WORKLOADS if w in argv[1:]] or WORKLOADS
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
                    blob = json.dumps(doc, sort_keys=True).encode()
                    print(seed, workload, cmd.label, rc, hashlib.sha256(blob).hexdigest(),
                          flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
