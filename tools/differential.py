"""The harness that `det_differential.py` and `mc_differential.py` share:
run one worker per source tree, each in its own process, and compare their
results on the change tree's library.

A differential script defines `worker(count, seed)`, which returns a JSON
object, and `compare(parent, change)`, which returns the report, and ends
with

    if __name__ == "__main__":
        sys.exit(differential.entry(__file__, __doc__, worker, compare))
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path


def run_tree(script: str, tree: Path, count: int, seed: int) -> subprocess.Popen:
    """Start `script --worker COUNT SEED` with the tree's src/ and perfbench/
    first on its import path."""
    env = dict(os.environ)
    paths = [str(tree / "src"), str(tree / "perfbench")]
    env["PYTHONPATH"] = os.pathsep.join(paths + [env.get("PYTHONPATH", "")])
    cmd = [sys.executable, script, "--worker", str(count), str(seed)]
    return subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)


def main(argv, script: str, doc: str, compare) -> int:
    """Parse --parent, --change, --count and --seed, run both trees' workers
    at once, and print the report of `compare` with the count and the seed
    in front.  Exits 1 on any mismatch, crash or input mismatch."""
    parser = argparse.ArgumentParser(description=doc.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--count", type=int, default=300)
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    procs = {
        side: run_tree(script, tree, args.count, args.seed)
        for side, tree in trees.items()
    }
    texts = {side: proc.communicate()[0] for side, proc in procs.items()}
    for side, proc in procs.items():
        if proc.returncode != 0:
            raise SystemExit(f"error: the {side} tree's worker exited with {proc.returncode}")
    results = {side: json.loads(text) for side, text in texts.items()}
    sys.path.insert(0, str(trees["change"] / "src"))
    report = compare(results["parent"], results["change"])
    report = {"count": args.count, "seed": args.seed, **report}
    print(json.dumps(report, indent=1))
    bad = report["mismatches"] or report["crashes"] or report["input_mismatches"]
    return 1 if bad else 0


def entry(script: str, doc: str, worker, compare) -> int:
    """The command line of a differential script: the worker when called as
    `--worker COUNT SEED`, else `main`."""
    if sys.argv[1:2] == ["--worker"]:
        json.dump(worker(int(sys.argv[2]), int(sys.argv[3])), sys.stdout)
        return 0
    return main(None, script, doc, compare)
