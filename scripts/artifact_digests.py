"""Print the sha256 digest of every file the benchmark's workloads write.

For each seed and each workload of loopbench/workloads.py, runs the
workload's set-up operations and then one pass, in this process, through
welloop.cli.main, with the configs and operations the benchmark uses.
It then hashes every file under the workload's output directory,
manifest.json included. Two checkouts that print the same lines wrote
the same bytes, so a change meant to keep the artifacts can be checked
by running this script on both and comparing the outputs. The workloads
module is only imported, never changed.

Prints one line per output file, `workload seed path sha256`, the paths
relative to the output directory and sorted. Exits 1 if an operation
exits non-zero.

Usage:
    python3 scripts/artifact_digests.py [--seeds 1 1009] [--workloads NAME ...]
"""

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

LOOPBENCH = Path(__file__).resolve().parents[1] / "loopbench"


def import_workloads():
    """loopbench/workloads.py, imported from its own directory, where its
    sibling `checks` module lives."""
    sys.path.insert(0, str(LOOPBENCH))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    return workloads


def digests(workloads, name, seed, work):
    """(path, sha256) of every file one set-up and one pass of workload
    `name` at `seed` leave in its output directory under `work`."""
    workload = workloads.WORKLOADS[name]
    ctx = workloads.fresh_context(workload, seed, Path(work) / f"{name}-{seed}")
    for op in workload.setup_ops + workload.pass_ops:
        code = workloads.invoke(ctx, op)
        if code != 0:
            raise RuntimeError(f"{name} seed {seed}: `{op.command}` exited {code}")
    files = sorted(p for p in ctx.out.rglob("*") if p.is_file())
    return [
        (path.relative_to(ctx.out).as_posix(), hashlib.sha256(path.read_bytes()).hexdigest())
        for path in files
    ]


def main(argv=None) -> int:
    workloads = import_workloads()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 1009])
    names = list(workloads.WORKLOADS)
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as work:
        for seed in args.seeds:
            for name in args.workloads:
                try:
                    found = digests(workloads, name, seed, work)
                except RuntimeError as err:
                    print(err, file=sys.stderr)
                    return 1
                for path, digest in found:
                    print(name, seed, path, digest)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
