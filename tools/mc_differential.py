"""Differential of the model-checking answers between a parent and a change
source tree, on the perfbench `mc` inputs.

Run from anywhere, with two checkouts (each holding src/ and perfbench/):

    python3 tools/mc_differential.py --parent ../parent --change . \\
        --count 300 --seed 3

Each tree answers the first COUNT inputs of perfbench's `mc` generator at
`random.Random(SEED)` in its own process, with the calls the workload's item
makes: `pr_max_tela` on the MDP and the automaton, and `qualitative_positive`
on `build_ld` of the automaton.  It also records the sizes of the automata
those answers go through: the good-for-MDP automaton `build_gfm`, the
quotient that `pr_max_tela` multiplies with the MDP and the states and
actions of that product, both read from the `mdp_product` call that
`pr_max_tela` makes in the tree's own library, and the limit-deterministic
`build_ld` and its quotient.  Each tree thus reports the product its own
`pr_max_tela` builds, whether or not that tree completes the quotient
first.  The report, one JSON object on standard output, gives:

- the sum of each size over the inputs, per tree, and on how many inputs
  the change's size grew or shrank;
- the largest difference between the two trees' `pr_max_tela` values;
- the mismatches: inputs whose `pr_max_tela` values differ by more than
  TOLERANCE or whose qualitative answers differ;
- the crashes: every exception a tree raised, by input, call and type.

The command exits 1 on any mismatch or crash, or on inputs that differ
between the trees.
"""

from __future__ import annotations

import hashlib
import random
import sys

import differential

TOLERANCE = 1e-9
SIZES = (
    "gfm", "gfm_quotient", "product_states", "product_actions", "ld", "ld_quotient",
)


def worker(count: int, seed: int) -> dict:
    """Run in a tree's own process: each input's digest, answers and sizes,
    or the name of the exception a call raised.  The library and the
    workloads come from the tree's own paths, set in its environment."""
    import tela
    import workloads

    def attempt(row: dict, key: str, call):
        try:
            row[key] = call()
        except Exception as exc:  # any failure is reported by type
            row[key] = {"error": type(exc).__name__}
        return row[key]

    multiplied = []
    mdp_product = tela.mdp.mdp_product

    def recording_product(m, g):
        product = mdp_product(m, g)
        multiplied.append((g, product))
        return product

    # pr_max_tela reads mdp_product from its module, so this records the
    # quotient and the product that each tree's pr_max_tela builds.
    tela.mdp.mdp_product = recording_product
    rows = []
    for mdp_text, aut_text in workloads.mc_generate(random.Random(seed), count):
        m = tela.parse_mdp(mdp_text)
        a = tela.parse_hoa(aut_text)
        dnf = tela.ensure_dnf(a)
        digest = hashlib.sha256(f"{mdp_text}\n{aut_text}".encode()).hexdigest()
        row = {"input": digest}
        multiplied.clear()
        attempt(row, "pr", lambda: tela.pr_max_tela(m, a))
        if multiplied:
            quotient, product = multiplied[0]
            row["gfm_quotient"] = quotient.n_states
            row["product_states"] = product.n_states
            row["product_actions"] = sum(map(len, product.actions))
        gfm = attempt(row, "gfm", lambda: tela.build_gfm(dnf))
        if isinstance(gfm, tela.Tela):
            row["gfm"] = gfm.n_states
        ld = attempt(row, "ld", lambda: tela.build_ld(dnf))
        if isinstance(ld, tela.Tela):
            attempt(row, "positive", lambda: tela.qualitative_positive(m, ld))
            row["ld_quotient"] = tela.bisim_quotient(ld).n_states
            row["ld"] = ld.n_states
        rows.append(row)
    return {"rows": rows}


def compare(parent: dict, change: dict) -> dict:
    """The report for two workers' results."""
    report = {
        "items": len(change["rows"]),
        "sizes": {key: {"parent": 0, "change": 0} for key in SIZES},
        "grew": dict.fromkeys(SIZES, 0),
        "shrank": dict.fromkeys(SIZES, 0),
        "pr_max_diff": 0.0,
        "mismatches": [],
        "crashes": [],
        "input_mismatches": 0,
    }
    for i, (p_row, c_row) in enumerate(zip(parent["rows"], change["rows"])):
        if p_row["input"] != c_row["input"]:
            report["input_mismatches"] += 1
            continue
        crashed = False
        for side, row in (("parent", p_row), ("change", c_row)):
            for key, got in row.items():
                if isinstance(got, dict):
                    report["crashes"].append([side, i, key, got["error"]])
                    crashed = True
        if crashed:
            continue
        for key in SIZES:
            p, c = p_row[key], c_row[key]
            report["sizes"][key]["parent"] += p
            report["sizes"][key]["change"] += c
            report["grew"][key] += c > p
            report["shrank"][key] += c < p
        diff = abs(p_row["pr"] - c_row["pr"])
        report["pr_max_diff"] = max(report["pr_max_diff"], diff)
        if diff > TOLERANCE:
            report["mismatches"].append([i, "pr", p_row["pr"], c_row["pr"]])
        if p_row["positive"] != c_row["positive"]:
            report["mismatches"].append([i, "positive", p_row["positive"], c_row["positive"]])
    return report


def main(argv=None) -> int:
    return differential.main(argv, __file__, __doc__, compare)


if __name__ == "__main__":
    sys.exit(differential.entry(__file__, __doc__, worker, compare))
