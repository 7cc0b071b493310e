"""Paired perfbench runs of a parent and a change source tree, written as one
BENCH_<n>.json file.

Run from anywhere, with two checkouts (each holding src/ and perfbench/):

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --seeds 61-70 --seconds 45 --out BENCH_9.json \\
        --claim mc.item_cost_mean --what "..."

There is one pair per seed.  Pair i runs `perfbench/run.py --workload all
--seed SEED --seconds S --trace 0` once in each tree with the i-th seed;
the parent runs first in even pairs and the change first in odd ones, so
drift on a shared machine hits both sides alike.  Each run's last output
line is its JSON summary.  The file holds every pair's metrics and, per
workload and end-to-end metric, both sides' median and quartiles
(statistics.quantiles(n=4, method='inclusive')), the win counts (a win is
a strictly better value on the metric's `better` side in BENCHMARK.json),
the ratio of the medians and the parent's interquartile spread.  Each tree
then also runs `det` and `mc` at seed CHECK_SEED for CHECK_SECONDS,
untraced for the output digests and TRACE_RUNS times traced, alternating
with the other tree, for the per-layer numbers: each count must be the
same in all of a tree's runs, and every other value, each time among them,
is the median of its runs, so one run slowed by drift on a shared machine
moves no layer.  A run that fails or reports a wrong answer, or traced runs
of one tree whose counts differ, stop the command.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

CHECK_WORKLOADS = ("det", "mc")
CHECK_SEED = 3
CHECK_SECONDS = 10
TRACE_RUNS = 3
COUNTS = (".calls", ".states_out", ".trans_out")


def parse_seeds(text: str) -> list[int]:
    """`61-70` or `61,63,65`."""
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(x) for x in text.split(",")]


def perfbench(tree: Path, *args) -> tuple[dict, str]:
    """Run perfbench in `tree`; its JSON summary and its whole output."""
    cmd = [sys.executable, "perfbench/run.py", *map(str, args)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(
            f"error: {' '.join(cmd)} in {tree} exited with {proc.returncode}\n"
            + proc.stderr
        )
    return json.loads(lines[-1]), proc.stdout


def label(tree: Path) -> str:
    """The tree's short commit id, or its path outside git."""
    cmd = ["git", "rev-parse", "--short", "HEAD"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else str(tree)


def values(result: dict) -> dict[str, float]:
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(xs: list[float]) -> dict[str, float]:
    if len(xs) == 1:
        return {"median": xs[0], "q1": xs[0], "q3": xs[0]}
    q1, median, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs: list[dict], end_to_end: dict[str, dict]) -> dict:
    """Per workload and metric: both sides' quartiles, wins, the ratio of
    the medians and the parent's interquartile spread."""
    summary: dict[str, dict] = {}
    for key in pairs[0]["parent"]:
        workload, metric = key.split(".", 1)
        spec = end_to_end.get(metric)
        if spec is None:
            continue
        sign = 1 if spec["better"] == "lower" else -1
        parent = [p["parent"][key] for p in pairs]
        change = [p["change"][key] for p in pairs]
        p, c = quartiles(parent), quartiles(change)
        summary.setdefault(workload, {})[metric] = {
            "parent": p,
            "change": c,
            "change_wins": sum(sign * (y - x) < 0 for x, y in zip(parent, change)),
            "parent_wins": sum(sign * (y - x) > 0 for x, y in zip(parent, change)),
            "median_ratio": c["median"] / p["median"] if p["median"] else None,
            "parent_iqr": p["q3"] - p["q1"],
            "bound": spec["bound"],
        }
    return summary


def claim(summary: dict, name: str, n_pairs: int) -> dict:
    workload, metric = name.split(".", 1)
    row = summary[workload][metric]
    return {
        "workload": workload,
        "metric": metric,
        "parent_median": row["parent"]["median"],
        "change_median": row["change"]["median"],
        "change_wins": row["change_wins"],
        "pairs": n_pairs,
        "parent_iqr": row["parent_iqr"],
    }


def output_digest(text: str) -> str:
    """The `output sha256` perfbench prints for a single workload."""
    for line in text.splitlines():
        if line.strip().startswith("output sha256 "):
            return line.split()[-1]
    raise SystemExit("error: perfbench printed no output digest")


def traced_median(runs: list[dict[str, float]]) -> dict[str, float]:
    """One tree's per-layer values from its traced runs: each count
    (`.calls`, `.states_out`, `.trans_out`), which every run must repeat,
    and the median of every other value."""
    row = {}
    for key in runs[0]:
        xs = [run[key] for run in runs]
        if key.endswith(COUNTS):
            if len(set(xs)) != 1:
                raise SystemExit(f"error: the traced runs of one tree give {key} {xs}")
            row[key] = xs[0]
        else:
            row[key] = statistics.median(xs)
    return row


def checks(trees: dict[str, Path]) -> tuple[dict, dict]:
    """Per-layer numbers of `det` and `mc` at CHECK_SEED for both trees, the
    `traced_median` of TRACE_RUNS alternating traced runs per tree, and the
    untraced output digests."""
    trace: dict[str, dict] = {}
    digests: dict[str, dict] = {
        "command": f"python3 perfbench/run.py --workload W --seed {CHECK_SEED} "
        f"--seconds {CHECK_SECONDS} --trace 0"
    }
    for workload in CHECK_WORKLOADS:
        row = {
            "command": f"python3 perfbench/run.py --workload {workload} "
            f"--seed {CHECK_SEED} --seconds {CHECK_SECONDS} --trace 1",
            "runs": f"{TRACE_RUNS} per tree, alternating; counts equal in every "
            "run, other values the median",
            "items": {},
        }
        args = (
            "--workload", workload, "--seed", CHECK_SEED,
            "--seconds", CHECK_SECONDS,
        )
        runs: dict[str, list] = {side: [] for side in trees}
        for i in range(TRACE_RUNS):
            for side in list(trees)[:: 1 if i % 2 == 0 else -1]:
                result, _ = perfbench(trees[side], *args, "--trace", 1)
                row["items"][side] = result["attempted"]
                runs[side].append(values(result))
        digests[workload] = {}
        for side, tree in trees.items():
            row[side] = traced_median(runs[side])
            _, text = perfbench(tree, *args, "--trace", 0)
            digests[workload][side] = output_digest(text)
        trace[workload] = row
    return trace, digests


def run_pairs(trees: dict[str, Path], seeds: list[int], seconds: float) -> list[dict]:
    """One alternating pair of `--workload all` runs per seed; each row holds
    the seed, which side ran first, both sides' `correct` and their metrics."""
    pairs = []
    for i, seed in enumerate(seeds):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        row = dict(seed=seed, first=order[0], correct={}, parent={}, change={})
        for side in order:
            # perfbench exits 1 on a wrong answer, which stops the command.
            result, _ = perfbench(
                trees[side], "--workload", "all", "--seed", seed,
                "--seconds", seconds, "--trace", 0,
            )
            row["correct"][side] = result["correct"]
            row[side] = values(result)
        pairs.append(row)
        print(f"pair {i} seed {seed} done", file=sys.stderr)
    return pairs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", type=Path, help="default: standard output")
    parser.add_argument("--what", default="", help="what the change does")
    parser.add_argument("--claim", help="WORKLOAD.METRIC whose gain is claimed")
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    bench = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m for m in bench["end_to_end"]}

    pairs = run_pairs(trees, args.seeds, args.seconds)
    summary = summarize(pairs, end_to_end)
    seeds = [p["seed"] for p in pairs]
    record = {
        "what": args.what,
        "parent": label(trees["parent"]),
        "change": label(trees["change"]),
        "machine": f"{os.cpu_count()}-CPU {platform.machine()} machine, Python "
        f"{platform.python_version()}, one worker process per workload",
        "command": f"python3 perfbench/run.py --workload all --seed SEED "
        f"--seconds {args.seconds:g} --trace 0",
        "protocol": f"{len(pairs)} pairs, seeds {', '.join(map(str, seeds))}; both "
        "sides of a pair use the same seed; the parent runs first in even pairs "
        "and the change first in odd ones. Quartiles are statistics.quantiles("
        "n=4, method='inclusive') over the runs of each side. A win is a strictly "
        "better value on the metric's 'better' side.",
    }
    if args.claim:
        record["claim"] = claim(summary, args.claim, len(pairs))
    record["summary"] = summary
    record["trace"], record["digests"] = checks(trees)
    record["pairs"] = pairs
    text = json.dumps(record, indent=1) + "\n"
    if args.out:
        args.out.write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
