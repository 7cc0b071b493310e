"""Differential of the six determinization methods between a parent and a
change source tree, on the perfbench `det` inputs.

Run from anywhere, with two checkouts (each holding src/ and perfbench/):

    python3 tools/det_differential.py --parent ../parent --change . \\
        --count 300 --seed 3

Each tree determinizes the first COUNT inputs of perfbench's `det`
generator at `random.Random(SEED)` by every method of DET_METHODS under the
workload's state cap (the calls `perfbench/workloads.determinize` makes), in
its own process.  The report, one JSON object on standard output, gives:

- the constructions each tree returns, how many the change gains, and the
  ones it loses, as [input index, method] pairs (`lost`);
- each tree's `ok_share`, its returned share of all constructions, and the
  mean size of everything it returns: the `det` workload's two size metrics,
  on a fixed input set;
- the state sums over the constructions both trees return, how many of
  those print the same HOA text in both (`identical`), how many outputs
  shrank, and the ones that grew, as [input index, method] pairs (`grew`);
- the language mismatches: each output of the change is compared by
  `contains` both ways with the parent's output of the same method, or, where
  the parent ran out of budget there, with the parent's first output for the
  same input.  Where the parent returned nothing for the input, the output's
  verdicts on WORDS lasso words sampled from the input must be the input's.

The comparison runs on the change tree's library.  The command exits 1 on
any mismatch, on inputs that differ between the trees, or when a
construction raises anything but BudgetExceeded.
"""

from __future__ import annotations

import hashlib
import random
import sys

import differential

WORDS = 20


def worker(count: int, seed: int) -> dict:
    """Run in a tree's own process: each input's digest and, per method, the
    printed output or the name of the exception it raised.  The library and
    the workloads come from the tree's own paths, set in its environment."""
    import tela
    import workloads

    rows = []
    for text in workloads.det_generate(random.Random(seed), count):
        a = tela.parse_hoa(text)
        outputs = {}
        for method in workloads.DET_METHODS:
            try:
                outputs[method] = tela.print_hoa(workloads.determinize(a, method))
            except Exception as exc:  # any failure is reported by type
                outputs[method] = {"error": type(exc).__name__}
        digest = hashlib.sha256(text.encode()).hexdigest()
        rows.append({"input": digest, "text": text, **outputs})
    return {"methods": list(workloads.DET_METHODS), "rows": rows}


def compare(parent: dict, change: dict) -> dict:
    """The report for two workers' results; needs `tela` importable."""
    import tela

    methods = change["methods"]
    report = {
        "constructions": len(change["rows"]) * len(methods),
        "returned": {"parent": 0, "change": 0},
        "ok_share": {},
        "states_mean": {},
        "gained": 0,
        "lost": [],
        "common": 0,
        "identical": 0,
        "states_common": {"parent": 0, "change": 0},
        "grew": [],
        "shrank": 0,
        "compared": 0,
        "word_checked": 0,
        "mismatches": [],
        "crashes": [],
        "input_mismatches": 0,
    }
    states = {"parent": 0, "change": 0}
    for i, (p_row, c_row) in enumerate(zip(parent["rows"], change["rows"])):
        if p_row["input"] != c_row["input"]:
            report["input_mismatches"] += 1
            continue
        p_out, c_out = {}, {}
        for side, row, out in (("parent", p_row, p_out), ("change", c_row, c_out)):
            for method in methods:
                got = row[method]
                if isinstance(got, str):
                    out[method] = tela.parse_hoa(got)
                    report["returned"][side] += 1
                    states[side] += out[method].n_states
                elif got["error"] != "BudgetExceeded":
                    report["crashes"].append([side, i, method, got["error"]])
        first = next(iter(p_out.values()), None)
        for method in methods:
            p, c = p_out.get(method), c_out.get(method)
            report["gained"] += p is None and c is not None
            if p is not None and c is None:
                report["lost"].append([i, method])
            if p is not None and c is not None:
                report["common"] += 1
                report["identical"] += p_row[method] == c_row[method]
                report["states_common"]["parent"] += p.n_states
                report["states_common"]["change"] += c.n_states
                if c.n_states > p.n_states:
                    report["grew"].append([i, method])
                report["shrank"] += c.n_states < p.n_states
            if c is None:
                continue
            ref = p if p is not None else first
            if ref is None:
                report["word_checked"] += 1
                a = tela.parse_hoa(c_row["text"])
                for u, v in tela.sample_lassos(a, WORDS, i):
                    if tela.accepts(c, u, v) != tela.accepts(a, u, v):
                        report["mismatches"].append([i, method, "word", u, v])
                continue
            report["compared"] += 1
            both = (tela.contains(ref, c), tela.contains(c, ref))
            if both != (True, True):
                report["mismatches"].append([i, method, *both])
    for side, returned in report["returned"].items():
        report["ok_share"][side] = returned / max(report["constructions"], 1)
        report["states_mean"][side] = states[side] / max(returned, 1)
    return report


def main(argv=None) -> int:
    return differential.main(argv, __file__, __doc__, compare)


if __name__ == "__main__":
    sys.exit(differential.entry(__file__, __doc__, worker, compare))
