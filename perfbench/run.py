"""Benchmark of the tela pipeline on seeded workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload det --seed 1 --seconds 45 --trace 0

`--workload all` runs every workload in turn.  Each workload runs in a fresh
single-threaded worker process, as a closed loop with one item at a time.
The worker imports `tela` from the checkout's src/ directory, generates the
workload's first inputs from the seed (FIXED_SHARE of `--seconds` times the
workload's rate), and signals that it is ready.  It then runs items, drawing
further inputs from the same seeded generator, until `--seconds` have
passed and the first inputs are all done, and checks every output.  The
first inputs make every run, however fast the machine, so the exact
results below are taken over them.  An item with a wrong answer is never a
timing sample, and any wrong answer makes the command exit 1.  Each item is
preceded by one run of `kernel`, and the item's cost is its time over the
median of the kernel's last KERNEL_WINDOW times: on a machine shared with
other tenants the raw times drift by a quarter from minute to minute, the
costs by a few per cent.

`setup_s` is put on the same basis.  SETUP_REPEATS fresh workers only set
up: each times itself from its entry, after the interpreter has started,
through `import tela` to its inputs being generated, then times the kernel
KERNEL_SETUP_RUNS times and reports that time scaled to a kernel of
KERNEL_NOMINAL_S.  `setup_s` is the median over the workers.

With `--trace 1` the worker generates TRACE_SHARE of `--seconds` times the
rate of inputs and runs only those, every item once untraced and once
traced, and reports the per-layer metrics of tracing.py; the spans are
written to perfbench/out/.  Sizes, counts and the
SHA-256 digest of all output texts must repeat exactly for the same seed;
they are compared with the previous run of the same code, seed and size,
and any difference is flagged.  A workload that is not done within
TIME_LIMIT_S of its start is stopped, and the command fails.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 9
# The inputs every untraced run makes, as a share of --seconds times the
# workload's rate: small enough that a machine twice as slow still ends
# near --seconds.
FIXED_SHARE = 0.4
# A traced run makes a fixed number of items, each timed twice, once with
# tracing overhead, and for mc also checked inline; 0.4 of the inputs keeps
# it near --seconds.
TRACE_SHARE = 0.4
# Set-up, items and checks of one workload end within this, or it fails.
TIME_LIMIT_S = 170
# setup_s is reported in seconds on a machine where `kernel` takes this long.
KERNEL_NOMINAL_S = 0.0015
KERNEL_SETUP_RUNS = 20

# name -> (unit, better); the order is the order of the report.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "item_cost_mean": ("kernel", "lower"),
    "item_cost_p50": ("kernel", "lower"),
    "item_cost_p90": ("kernel", "lower"),
    "ok_share": ("share", "higher"),
    "out_states_mean": ("count", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
KERNEL_WINDOW = 5


def lower_median(values: list[float]) -> float:
    """randbench's convention: the lower of the two middle values."""
    ordered = sorted(values)
    return ordered[(len(ordered) - 1) // 2]


def p90(samples: list[float]) -> float:
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=10)[8]


def kernel() -> int:
    """A fixed piece of pure-Python work, about a millisecond, that shares
    nothing with tela; its time measures how fast the machine runs Python
    at that moment."""
    counts: dict[int, int] = {}
    pairs = set()
    for i in range(3000):
        k = (i * 7919) % 1009
        counts[k] = counts.get(k, 0) + i
        pairs.add((k, i & 7))
    return len(counts) + len(pairs)


# The worker process.


def _import_workloads():
    """Import the workloads with `tela` taken from this checkout only."""
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import tela

    if Path(tela.__file__).resolve().parent != ROOT / "src" / "tela":
        raise ImportError(f"tela imported from {tela.__file__}, not this checkout")
    import workloads

    return workloads


def _kernel_times(runs: int) -> list[float]:
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return times


def worker(args) -> int:
    entry = time.perf_counter()
    workloads = _import_workloads()
    wl = workloads.WORKLOADS[args.workload]
    rec = None
    if args.trace:
        import tracing

        rec = tracing.Recorder()
        uninstall = tracing.install(rec)
    rng = random.Random(f"{wl.name}:{args.seed}")
    share = TRACE_SHARE if rec else FIXED_SHARE
    inputs = wl.generate(rng, max(1, round(args.seconds * wl.rate * share)))
    if rec is not None:
        uninstall()
    if args.role == "setup":
        setup = time.perf_counter() - entry
        scale = KERNEL_NOMINAL_S / statistics.median(_kernel_times(KERNEL_SETUP_RUNS))
        print(f"READY {setup * scale!r}", flush=True)
        return 0
    print("READY", flush=True)
    if rec is None:
        result = measure(wl, inputs, lambda: wl.generate(rng, 1)[0], args.seconds)
    else:
        result = measure_traced(wl, inputs, rec)
        OUT.mkdir(exist_ok=True)
        rec.dump(OUT / f"spans-{wl.name}-seed{args.seed}.json")
    print("RESULT " + json.dumps(result), flush=True)
    return 0


def _item_digest(texts: list[str]) -> bytes:
    return hashlib.sha256("\0".join(texts).encode()).digest()


class _Exact:
    """Exact results of a pass over the inputs: sizes, failures, digests."""

    def __init__(self) -> None:
        self.digest = hashlib.sha256()
        self.items: list[bytes] = []
        self.attempts = 0
        self.failures: dict[str, int] = {}
        self.states: list[float] = []
        self.crashed_items = 0

    def add(self, out, texts: list[str]) -> None:
        self.items.append(_item_digest(texts))
        for text in texts:
            self.digest.update(text.encode() + b"\0")
        crashed = False
        for at in out.attempts:
            self.attempts += 1
            if at.error is not None:
                self.failures[at.error] = self.failures.get(at.error, 0) + 1
                crashed |= at.error != "BudgetExceeded"
            if at.error is not None or at.states is not None:
                self.states.append(math.inf if at.error else at.states)
        self.crashed_items += crashed

    def repeats(self, idx: int, texts: list[str]) -> bool:
        return self.items[idx] == _item_digest(texts)

    def report(self) -> dict:
        returned = [x for x in self.states if x < math.inf]
        return {
            "items": len(self.items),
            "digest": self.digest.hexdigest(),
            "attempts": self.attempts,
            "failures": dict(sorted(self.failures.items())),
            "out_states_mean": statistics.fmean(returned) if returned else 0.0,
            "out_states_p50": lower_median(returned or [0]),
            "out_states_p50_inf": lower_median(self.states or [0]),
            "crashed_items": self.crashed_items,
        }


def _timed(wl, inp):
    t0 = time.perf_counter()
    out = wl.item(inp)
    return out, time.perf_counter() - t0


def measure(wl, inputs: list, draw, seconds: float) -> dict:
    """The closed loop, every output checked: items until `seconds` have
    passed and every given input is done, then inputs from `draw()`.

    The exact results are taken over the given inputs, the metrics over
    every item.  A workload with `defer_check` is checked after the loop
    and after peak memory is read, so that its reference computation weighs
    on neither; its outcomes hold no parsed inputs, the check parses them
    again.
    """
    fixed = len(inputs)
    first, every = _Exact(), _Exact()
    samples: list[float] = []
    costs: list[float] = []
    kernel_times: collections.deque = collections.deque(maxlen=KERNEL_WINDOW)
    mismatches: list[tuple[int, str]] = []
    deferred = []
    deadline = time.perf_counter() + seconds
    idx = 0
    while idx < fixed or time.perf_counter() < deadline:
        if idx == len(inputs):
            inputs.append(draw())
        inp = inputs[idx]
        t0 = time.perf_counter()
        kernel()
        kernel_times.append(time.perf_counter() - t0)
        out, elapsed = _timed(wl, inp)
        samples.append(elapsed)
        costs.append(elapsed / statistics.median(kernel_times))
        texts = wl.render(out)
        every.add(out, texts)
        if idx < fixed:
            first.add(out, texts)
        if wl.defer_check:
            deferred.append((idx, out))
        else:
            mismatches += [(idx, msg) for msg in wl.check(inp, out)]
        idx += 1
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for idx, out in deferred:
        mismatches += [(idx, msg) for msg in wl.check(inputs[idx], out)]
    wrong = {idx for idx, _ in mismatches}
    return {
        "items": len(inputs),
        "samples": [t for idx, t in enumerate(samples) if idx not in wrong],
        "costs": [c for idx, c in enumerate(costs) if idx not in wrong],
        "wrong_items": len(wrong),
        "mismatches": [f"item {idx}: {msg}" for idx, msg in mismatches],
        "rss_kb": rss_kb,
        "exact": first.report(),
        "all": every.report(),
    }


def measure_traced(wl, inputs: list, rec) -> dict:
    """Every item once untraced, which records the exact results, and once
    traced, in alternating order so that both see the same machine speed
    and caches; the traced outputs are checked."""
    import tracing

    first = _Exact()
    untraced = 0.0
    mismatches = []
    wrong = 0
    for idx, inp in enumerate(inputs):
        if idx % 2:
            out, elapsed = _timed(wl, inp)
            untraced += elapsed
            first.add(out, wl.render(out))
        uninstall = tracing.install(rec)
        try:
            traced = rec.run_item(idx, wl.item, inp)
            bad = wl.check(inp, traced)
        finally:
            uninstall()
        if not idx % 2:
            out, elapsed = _timed(wl, inp)
            untraced += elapsed
            first.add(out, wl.render(out))
        if not first.repeats(idx, wl.render(traced)):
            bad.append("traced and untraced runs give other outputs")
        mismatches += [f"item {idx}: {msg}" for msg in bad]
        wrong += bool(bad)
    values = tracing.summarize(rec, untraced)
    report = first.report()
    return {
        "items": len(inputs),
        "samples": [],
        "wrong_items": wrong,
        "mismatches": mismatches,
        "per_layer": {
            name: [value, tracing.unit_of(name)] for name, value in values.items()
        },
        "exact": report,
        "all": report,
    }


# The driving process.


class WorkerFailed(RuntimeError):
    pass


def _spawn(args, role: str, deadline: float):
    """Start a worker and stop it at `deadline` (a perf_counter time);
    returns the scaled set-up time of a setup worker, the result of a run."""
    cmd = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--role", role,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline().split()
        rest, _ = proc.communicate(timeout=max(deadline - time.perf_counter(), 0))
    except subprocess.TimeoutExpired:
        raise WorkerFailed(
            f"{role} worker for {args.workload} still ran after {TIME_LIMIT_S} s"
        ) from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if ready[:1] != ["READY"] or proc.returncode != 0:
        raise WorkerFailed(f"{role} worker for {args.workload} exited with {proc.returncode}")
    if role == "setup":
        return float(ready[1])
    for line in rest.splitlines():
        if line.startswith("RESULT "):
            return json.loads(line[len("RESULT "):])
    raise WorkerFailed(f"{role} worker for {args.workload} printed no result")


def _code_digest() -> str:
    h = hashlib.sha256()
    for path in sorted([*(ROOT / "src" / "tela").glob("*.py"), *HERE.glob("*.py")]):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _determinism(args, exact: dict) -> str:
    """Compare the exact values with the previous run of this code and seed."""
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-s{args.seconds:g}-trace{args.trace}"
    path = OUT / f"exact-{name}.json"
    record = {"code": _code_digest(), "exact": exact}
    verdict = "no earlier run of this code and seed"
    if path.exists():
        old = json.loads(path.read_text())
        if old.get("code") == record["code"]:
            diff = sorted(
                k for k in exact.keys() | old["exact"].keys()
                if exact.get(k) != old["exact"].get(k)
            )
            verdict = (
                "DIFFERS from the previous run in " + ", ".join(diff)
                if diff
                else "identical to the previous run"
            )
    path.write_text(json.dumps(record, indent=1, sort_keys=True))
    return verdict


def drive(args) -> dict:
    """Run one workload; print its report and return its summary."""
    deadline = time.perf_counter() + TIME_LIMIT_S
    setups = [
        _spawn(args, "setup", deadline) for _ in range(0 if args.trace else SETUP_REPEATS)
    ]
    res = _spawn(args, "run", deadline)
    first, every = res["exact"], res["all"]

    def failed_share(r: dict) -> float:
        return sum(r["failures"].values()) / max(r["attempts"], 1)

    exact = {
        "items": first["items"],
        "digest": first["digest"],
        "out_states_mean": first["out_states_mean"],
        "out_states_p50": first["out_states_p50"],
        "out_states_p50_inf": first["out_states_p50_inf"],
        "failed_share": failed_share(first),
        "failures": first["failures"],
    }
    print(f"workload {args.workload}  seed {args.seed}  items run {res['items']}")
    if args.trace:
        metrics = {name: tuple(pair) for name, pair in res["per_layer"].items()}
        exact.update(
            (k, v)
            for k, (v, _) in metrics.items()
            if k.endswith((".calls", ".states_out", ".trans_out", ".product_states"))
        )
    else:
        samples = res["samples"]
        if not samples:
            raise WorkerFailed("no item gave a correct answer")
        costs = res["costs"]
        values = {
            "setup_s": statistics.median(setups),
            "item_cost_mean": statistics.fmean(costs),
            "item_cost_p50": statistics.median(costs),
            "item_cost_p90": p90(costs),
            "ok_share": 1 - failed_share(every),
            "out_states_mean": every["out_states_mean"],
            "peak_rss_mb": res["rss_kb"] / 1024,
        }
        metrics = {k: (v, END_TO_END[k][0]) for k, v in values.items()}
    notes = {}
    if not args.trace:
        n = len(res["samples"])
        beyond = f"({n} samples, {n - math.ceil(0.9 * n)} beyond)"
        notes["item_cost_p90"] = beyond
        notes["setup_s"] = f"(median of {len(setups)} processes, at nominal kernel speed)"
    for name, (value, unit) in metrics.items():
        print(f"  {name:<58} {value:>14.6g} {unit} {notes.get(name, '')}".rstrip())
    if not args.trace:
        samples = res["samples"]
        print(f"  items_per_s {len(samples) / sum(samples):.6g} 1/s")
        print(f"  item_p50_ms {1000 * statistics.median(samples):.6g} ms")
        print(f"  item_p90_ms {1000 * p90(samples):.6g} ms {beyond}")
        print(f"  failed_share {failed_share(every):.6g} share"
              f" ({sum(every['failures'].values())} of {every['attempts']} constructions)")
        print(f"  out_states_p50 {every['out_states_p50']} count"
              f" (with failures as +inf: {every['out_states_p50_inf']})")
    for kind, count in every["failures"].items():
        print(f"  failures {kind}: {count}")
    print(f"  exact results over the first {first['items']} items:"
          f" failed_share {exact['failed_share']:.6g},"
          f" out_states_p50 {first['out_states_p50']}"
          f" (+inf convention {first['out_states_p50_inf']})")
    print(f"  output sha256 {first['digest']}")
    print(f"  determinism: {_determinism(args, exact)}")
    for msg in res["mismatches"]:
        print(f"  MISMATCH {msg}")
    return {
        "correct": not res["mismatches"],
        "attempted": res["items"],
        "failed": res["wrong_items"] + every["crashed_items"],
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["gba", "det", "mc", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--role", choices=["setup", "run"], help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.role:
        return worker(args)
    names = ["gba", "det", "mc"] if args.workload == "all" else [args.workload]
    summaries = {}
    try:
        for name in names:
            summaries[name] = drive(argparse.Namespace(**{**vars(args), "workload": name}))
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(names) == 1:
        summary = summaries[names[0]]
    else:
        summary = {
            "correct": all(s["correct"] for s in summaries.values()),
            "attempted": sum(s["attempted"] for s in summaries.values()),
            "failed": sum(s["failed"] for s in summaries.values()),
            "metrics": {
                f"{name}.{metric}": value
                for name, s in summaries.items()
                for metric, value in s["metrics"].items()
            },
        }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
