"""Random automaton generation and the benchmark harness.

The generator draws each transition triple (q, a, q') independently with
the edge-density probability and puts each mark on a transition with the
mark probability.  Transition systems are redrawn until nondeterministic.
Two acceptance families: `random-el` samples uniform formula trees of depth
at most 4 and keeps formulas whose DNF has at least two disjuncts and
length between 2 and 21; `dnf` draws 2-3 disjuncts with 2-3 Inf atoms and
0-1 Fin atoms each, over distinct marks.

The harness runs a method set over seeded instances under per-instance time
and state budgets: each method runs inside `time_limit` of the time budget,
which stops any construction, and one that returns past the budget is a
timeout too; the state budget caps the det pipeline's Safra explorations
and union products.  Each instance is one unit of work, done in one pass by
one worker: it runs every method, cross-validates the outputs it still
holds, and hands back only the per-method records (status, time, sizes),
the number of checks and the mismatch texts.  Two pipelines: `gba` compares
the TELA-to-GBA translations (validated by sampled lasso words against the
input), `det` compares full determinizations (validated by language
equality with the first method's output).  The parent aggregates: lower
medians where timeouts count as larger than every finite value, and ratio
tables against a baseline with the conventions baseline failed -> 0, method
failed -> infinity, both failed -> instance skipped.

Reports have a line-oriented machine format with the schema header
`telabench 1`, plus a human-readable table.
"""

from __future__ import annotations

import math
import random
import time
from collections import Counter
from dataclasses import dataclass, fields
from fractions import Fraction

from .acceptance import Acceptance, dnf_length, fin_, inf_, and_, or_, to_dnf
from .analysis import accepts, sample_lassos
from .core import MAX_AP, Tela, TelaError, time_limit
from .determinize import (
    DET_METHODS,
    BudgetExceeded,
    _determinize_gba,
    determinize_by,
    equivalent_deterministic,
)
from .transforms import GBA_METHODS, to_gba

_AP_NAMES = ("a", "b", "c", "d", "e", "f", "g", "h")


class BenchError(TelaError):
    pass


# The ranges of random_tela's size and probability arguments, as (lowest,
# highest, whether the lowest itself is allowed); parse_bench_config checks
# the keys that set these arguments against the same ranges.
RANDOM_RANGES = {
    "n_states": (4, 50, True),
    "n_marks": (1, 16, True),
    "edge_density": (0, 1, False),
    "mark_prob": (0, 1, True),
    "n_ap": (1, MAX_AP, True),
}


def _in_range(arg: str, value) -> bool:
    """Whether `value` lies in the range of random_tela's argument `arg`;
    NaN lies in none."""
    lo, hi, closed = RANDOM_RANGES[arg]
    return (lo <= value if closed else lo < value) and value <= hi


def random_tela(
    n_states: int,
    n_marks: int,
    edge_density: float,
    mark_prob: float,
    acc: str = "random-el",
    seed: int = 0,
    n_ap: int = 2,
) -> Tela:
    """Seeded random TELA; identical arguments give identical automata."""
    for arg, value in (
        ("n_states", n_states),
        ("n_marks", n_marks),
        ("edge_density", edge_density),
        ("mark_prob", mark_prob),
        ("n_ap", n_ap),
    ):
        if not _in_range(arg, value):
            lo, hi, closed = RANDOM_RANGES[arg]
            raise TelaError(f"{arg} must be in {'[' if closed else '('}{lo}, {hi}]")
    if acc not in ("random-el", "dnf"):
        raise TelaError("acc must be 'random-el' or 'dnf'")
    if acc == "dnf" and n_marks < 4:
        raise TelaError("the dnf family needs at least 4 marks")
    rng = random.Random(seed)
    n_letters = 1 << n_ap
    for _ in range(10000):
        transitions = []
        nondet = False
        for q in range(n_states):
            for letter in range(n_letters):
                degree = 0
                for q2 in range(n_states):
                    if rng.random() < edge_density:
                        marks = 0
                        for j in range(n_marks):
                            if rng.random() < mark_prob:
                                marks |= 1 << j
                        transitions.append((q, letter, q2, marks))
                        degree += 1
                if degree >= 2:
                    nondet = True
        if nondet:
            break
    else:
        raise TelaError("could not draw a nondeterministic transition system")
    return Tela(
        ap=_AP_NAMES[:n_ap],
        n_states=n_states,
        initial=frozenset({0}),
        transitions=tuple(transitions),
        acceptance=_random_acceptance(rng, n_marks, acc),
        n_marks=n_marks,
    )


def _random_acceptance(rng: random.Random, n_marks: int, acc: str) -> Acceptance:
    if acc == "dnf":
        disjuncts = []
        for _ in range(rng.randint(2, 3)):
            n_inf = rng.randint(2, 3)
            n_fin = rng.randint(0, 1)
            marks = rng.sample(range(n_marks), n_inf + n_fin)
            parts = []
            if n_fin:
                parts.append(fin_(1 << marks[n_inf]))
            parts.extend(inf_(1 << j) for j in marks[:n_inf])
            disjuncts.append(and_(parts))
        return or_(disjuncts)

    def tree(depth: int) -> Acceptance:
        kinds = ("and", "or", "inf", "fin") if depth < 4 else ("inf", "fin")
        kind = kinds[rng.randrange(len(kinds))]
        if kind == "inf":
            return inf_(1 << rng.randrange(n_marks))
        if kind == "fin":
            return fin_(1 << rng.randrange(n_marks))
        children = [tree(depth + 1) for _ in range(2)]
        return and_(children) if kind == "and" else or_(children)

    for _ in range(10000):
        phi = tree(0)
        dnf = to_dnf(phi)
        if len(dnf.disjuncts) >= 2 and 2 <= dnf_length(dnf) <= 21:
            return phi
    raise TelaError("could not sample an acceptance formula in the target range")


def nondeterminism_amount(a: Tela) -> Fraction:
    """Number of same-source same-letter target pairs divided by the state
    count."""
    targets = (len({t[2] for t in ts}) for ts in a.index.values())
    pairs = sum(n * (n - 1) // 2 for n in targets)
    return Fraction(pairs, a.n_states)


def cnf_blowup_automaton(n: int) -> Tela:
    """One-state family whose CNF translation needs 2^n acceptance sets.

    The letter-a loop carries all 2n marks, the other loop none, and the
    condition is the disjunction over i of Inf(2i) and Inf(2i+1); every
    disjunct alone already accepts exactly the words with infinitely many a.
    """
    if not 1 <= n <= 12:
        raise TelaError("n must be in [1, 12]")
    allbits = (1 << (2 * n)) - 1
    return Tela(
        ap=("a",),
        n_states=1,
        initial=frozenset({0}),
        transitions=((0, 0, 0, 0), (0, 1, 0, allbits)),
        acceptance=or_(
            and_([inf_(1 << (2 * i)), inf_(1 << (2 * i + 1))]) for i in range(n)
        ),
        n_marks=2 * n,
    )


@dataclass
class BenchConfig:
    pipeline: str = "gba"
    family: str = "random"
    instances: int = 20
    seed: int = 0
    states_min: int = 4
    states_max: int = 6
    n_marks: int = 8
    n_ap: int = 2
    edge_density: float | None = None  # None: 3/|Q| per instance
    mark_prob: float = 0.2
    fig2_min: int = 1
    fig2_max: int = 6
    methods: tuple[str, ...] = ()
    baseline: str = ""
    time_budget: float = 60.0
    state_budget: int = 50000
    validate_words: int = 10
    workers: int = 1
    report_path: str = "telabench-report.txt"

    def resolved_methods(self) -> tuple[str, ...]:
        """The methods to run; a name outside the pipeline raises BenchError."""
        known = GBA_METHODS if self.pipeline == "gba" else DET_METHODS
        for m in self.methods:
            if m not in known:
                raise BenchError(
                    f"method {m!r} not available in {self.pipeline} pipeline"
                )
        return self.methods or known

    def resolved_baseline(self) -> str:
        return self.baseline or self.resolved_methods()[0]


def _parse_range(value: str, key: str) -> tuple[int, int]:
    if ".." in value:
        lo_s, hi_s = value.split("..", 1)
        lo, hi = int(lo_s), int(hi_s)
    else:
        lo = hi = int(value)
    if lo > hi:
        raise BenchError(f"{key}: empty range {value!r}")
    return lo, hi


def _check_random_arg(key: str, value: str, arg: str, *numbers) -> None:
    """Reject the config value of `key` when one of the numbers it sets lies
    outside the range of random_tela's argument `arg`."""
    if not all(_in_range(arg, x) for x in numbers):
        raise ValueError(f"{key} out of range: {value}")


# Keys that set one BenchConfig field to their converted value, with the
# bound a budget or count must lie above, finite, or the random_tela
# argument whose range the value must lie in; None checks nothing.
_FIELD_KEYS = {
    "instances": ("instances", int, 0),
    "seed": ("seed", int, None),
    "marks": ("n_marks", int, "n_marks"),
    "ap": ("n_ap", int, "n_ap"),
    "mark_prob": ("mark_prob", float, "mark_prob"),
    "baseline": ("baseline", str, None),
    "time_budget": ("time_budget", float, 0),
    "state_budget": ("state_budget", int, 0),
    "validate_words": ("validate_words", int, -1),
    "workers": ("workers", int, 0),
    "report": ("report_path", str, None),
}

# Every key `parse_bench_config` accepts.
CONFIG_KEYS = (
    "pipeline", "family", "states", "density", "fig2", "methods", *_FIELD_KEYS
)


def parse_bench_config(text: str) -> BenchConfig:
    """key=value per line; `#` comments; unknown keys rejected."""
    config = BenchConfig()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise BenchError(f"line {lineno}: expected key=value")
        key, value = (part.strip() for part in line.split("=", 1))
        try:
            if key in _FIELD_KEYS:
                name, convert, bound = _FIELD_KEYS[key]
                converted = convert(value)
                setattr(config, name, converted)
                if isinstance(bound, str):
                    _check_random_arg(key, value, bound, converted)
                elif bound is not None and not bound < converted < math.inf:
                    raise ValueError(f"{key} out of range: {value}")
            elif key == "pipeline":
                if value not in ("gba", "det"):
                    raise ValueError("pipeline must be gba or det")
                config.pipeline = value
            elif key == "family":
                if value not in ("random", "dnf", "fig2"):
                    raise ValueError("family must be random, dnf or fig2")
                config.family = value
            elif key == "states":
                config.states_min, config.states_max = _parse_range(value, key)
                _check_random_arg(
                    key, value, "n_states", config.states_min, config.states_max
                )
            elif key == "density":
                config.edge_density = None if value == "auto" else float(value)
                if value != "auto":
                    _check_random_arg(key, value, "edge_density", config.edge_density)
            elif key == "fig2":
                config.fig2_min, config.fig2_max = _parse_range(value, key)
            elif key == "methods":
                config.methods = tuple(
                    m.strip() for m in value.split(",") if m.strip()
                )
            else:
                raise ValueError(f"unknown key {key!r}")
        except (BenchError, BudgetExceeded):
            raise
        except ValueError as exc:
            raise BenchError(f"line {lineno}: {exc}") from exc
    if config.resolved_baseline() not in config.resolved_methods():
        raise BenchError("baseline must be one of the methods")
    return config


@dataclass
class BenchReport:
    config: BenchConfig
    instances: list[dict]
    results: list[dict[str, dict]]
    method_stats: dict[str, dict[str, float]]
    ratios: dict[str, dict[str, dict[str, float]]]
    language_checks: int
    mismatches: list[str]


def _bench_instances(config: BenchConfig) -> list[Tela]:
    if config.family == "fig2":
        return [
            cnf_blowup_automaton(n)
            for n in range(config.fig2_min, config.fig2_max + 1)
        ]
    rng = random.Random(config.seed)
    out = []
    for _ in range(config.instances):
        n = rng.randint(config.states_min, config.states_max)
        density = config.edge_density if config.edge_density is not None else 3 / n
        out.append(
            random_tela(
                n_states=n,
                n_marks=config.n_marks,
                edge_density=min(density, 1.0),
                mark_prob=config.mark_prob,
                acc="dnf" if config.family == "dnf" else "random-el",
                seed=rng.randrange(2**32),
                n_ap=config.n_ap,
            )
        )
    return out


def _run_method(a: Tela, method: str, config: BenchConfig):
    """One method's output and its extra record fields: the via-gba
    determinizations also report the GBA they went through."""
    if config.pipeline == "gba":
        return to_gba(a, method), {}
    if not method.startswith("via-gba:"):
        return determinize_by(a, method, config.state_budget), {}
    g = to_gba(a, method.removeprefix("via-gba:"))
    d = _determinize_gba(g, config.state_budget)
    return d, {"gba_states": g.n_states, "gba_marks": g.n_marks}


def _validate(
    idx: int, a: Tela, outputs: list[tuple[str, Tela]], config: BenchConfig
) -> tuple[int, list[str]]:
    """Check count and mismatch texts: det outputs must equal the first one's
    language; gba outputs must agree with the input on the sampled lasso words
    (a method's first disagreement is reported and ends its checks)."""
    if config.pipeline == "det":
        rest = outputs[1:]
        return len(rest), [
            f"instance {idx}: {name} differs from {outputs[0][0]}"
            for name, out in rest
            if not equivalent_deterministic(outputs[0][1], out)
        ]
    words = sample_lassos(a, config.validate_words, config.seed + idx)
    expected = [accepts(a, u, v) for u, v in words]
    checks, mismatches = 0, []
    for name, out in outputs:
        for (u, v), want in zip(words, expected):
            checks += 1
            if accepts(out, u, v) != want:
                mismatches.append(
                    f"instance {idx}: {name} differs from the input on {u} | {v}"
                )
                break
    return checks, mismatches


def _bench_worker(payload) -> tuple[dict[str, dict], int, list[str]]:
    """All of one instance's work: every method's record, then the validation
    of the outputs, which never leave this process."""
    idx, a, config = payload
    records: dict[str, dict] = {}
    outputs: list[tuple[str, Tela]] = []
    for method in config.resolved_methods():
        start = time.perf_counter()
        try:
            with time_limit(config.time_budget):
                result, extra = _run_method(a, method, config)
            status = "ok"
        except BudgetExceeded as exc:
            status = "timeout" if exc.kind == "time" else "memout"
        elapsed = time.perf_counter() - start
        if status == "ok" and elapsed > config.time_budget:
            status = "timeout"
        records[method] = {"status": status, "time": elapsed}
        if status == "ok":
            records[method].update(
                states=result.n_states, marks=result.n_marks, **extra
            )
            outputs.append((method, result))
    return (records, *_validate(idx, a, outputs, config))


def _lower_median(values: list[float]) -> float:
    if not values:
        return math.nan
    ordered = sorted(values)
    return ordered[(len(ordered) - 1) // 2]


def _group_key(config: BenchConfig, a: Tela) -> str | None:
    if config.family == "fig2":
        return None
    nd = nondeterminism_amount(a)
    if nd <= Fraction(66, 100):
        band = "nd_low"
    elif nd <= Fraction(133, 100):
        band = "nd_mid"
    else:
        band = "nd_high"
    if config.family == "random":
        size = "len_2_11" if dnf_length(to_dnf(a.acceptance)) <= 11 else "len_12_21"
    else:
        size = "len_2_21"
    return f"{band}.{size}"


def _ratio(rm: dict, rb: dict, key: str) -> float | None:
    """Method record over baseline record on one instance: baseline failed
    -> 0, method failed -> infinity, both failed -> None (skipped)."""
    if rb["status"] != "ok":
        return 0.0 if rm["status"] == "ok" else None
    if rm["status"] != "ok":
        return math.inf
    if rb[key]:
        return rm[key] / rb[key]
    return math.inf if rm[key] else 0.0


def run_benchmark(config: BenchConfig) -> BenchReport:
    methods = config.resolved_methods()
    baseline = config.resolved_baseline()
    instances = _bench_instances(config)
    payloads = [(idx, a, config) for idx, a in enumerate(instances)]
    if config.workers > 1 and payloads:
        # Imported here: it loads multiprocessing, which `import tela` would
        # otherwise pay for on every start.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            outcomes = list(pool.map(_bench_worker, payloads))
    else:
        outcomes = list(map(_bench_worker, payloads))
    results = [records for records, _, _ in outcomes]

    info = [
        {
            "states": a.n_states,
            "marks": a.n_marks,
            "dnf_len": dnf_length(to_dnf(a.acceptance)),
            "nondet": str(nondeterminism_amount(a)),
            "group": _group_key(config, a),
        }
        for a in instances
    ]

    rows = {m: [per_method[m] for per_method in results] for m in methods}
    method_stats = {}
    for method, rs in rows.items():
        status = Counter(r["status"] for r in rs)
        method_stats[method] = {
            "ok": status["ok"],
            "timeouts": status["timeout"],
            "memouts": status["memout"],
            **{
                f"median_{key}": _lower_median(
                    [r[key] if r["status"] == "ok" else math.inf for r in rs]
                )
                for key in ("time", "states", "marks")
            },
        }

    groups: dict[str, list[int]] = {"all": list(range(len(instances)))}
    for idx, row in enumerate(info):
        if row["group"]:
            groups.setdefault(row["group"], []).append(idx)
    ratios: dict[str, dict[str, dict[str, float]]] = {}
    for group, idxs in groups.items():
        ratios[group] = {}
        for method in methods:
            pairs = [(rows[method][i], rows[baseline][i]) for i in idxs]
            ratios[group][method] = {}
            for metric in ("states", "time", "marks"):
                vals = [_ratio(rm, rb, metric) for rm, rb in pairs]
                ratios[group][method][metric] = _lower_median(
                    [v for v in vals if v is not None]
                )

    return BenchReport(
        config=config,
        instances=info,
        results=results,
        method_stats=method_stats,
        ratios=ratios,
        language_checks=sum(checks for _, checks, _ in outcomes),
        mismatches=[text for _, _, texts in outcomes for text in texts],
    )


def _fmt(value) -> str:
    if isinstance(value, float):
        if math.isinf(value):
            return "inf"
        if math.isnan(value):
            return "nan"
        return f"{value:.6g}"
    return str(value)


def format_report(report: BenchReport) -> str:
    """Machine-readable line format, schema `telabench 1`."""
    lines = ["telabench 1"]
    config = report.config
    for f in fields(BenchConfig):
        value = getattr(config, f.name)
        if f.name == "methods":
            value = ",".join(config.resolved_methods())
        elif f.name == "baseline":
            value = config.resolved_baseline()
        elif value is None:
            value = "auto"
        lines.append(f"config {f.name}={value}")
    for idx, row in enumerate(report.instances):
        parts = [f"instance {idx}"]
        for key in ("states", "marks", "dnf_len", "nondet", "group"):
            parts.append(f"{key}={row[key]}")
        lines.append(" ".join(parts))
    for idx, per_method in enumerate(report.results):
        for method in report.config.resolved_methods():
            r = per_method[method]
            parts = [f"result {idx} {method} status={r['status']}",
                     f"time={_fmt(r['time'])}"]
            for key in ("states", "marks", "gba_states", "gba_marks"):
                if key in r:
                    parts.append(f"{key}={r[key]}")
            lines.append(" ".join(parts))
    for method, stats in report.method_stats.items():
        parts = [f"summary {method}"]
        for key, value in stats.items():
            parts.append(f"{key}={_fmt(value)}")
        lines.append(" ".join(parts))
    for group, per_method in report.ratios.items():
        for method, metrics in per_method.items():
            parts = [f"ratio {group} {method}"]
            for metric, value in metrics.items():
                parts.append(f"{metric}={_fmt(value)}")
            lines.append(" ".join(parts))
    lines.append(
        f"validation checks={report.language_checks} "
        f"mismatches={len(report.mismatches)}"
    )
    for text in report.mismatches:
        lines.append(f"mismatch {text}")
    return "\n".join(lines) + "\n"


def format_table(report: BenchReport) -> str:
    """Human-readable summary table."""
    methods = report.config.resolved_methods()
    headers = ["method", "ok", "t/o", "m/o", "med.time", "med.states", "med.marks"]
    rows = []
    for method in methods:
        s = report.method_stats[method]
        rows.append(
            [
                method,
                str(s["ok"]),
                str(s["timeouts"]),
                str(s["memouts"]),
                _fmt(s["median_time"]),
                _fmt(s["median_states"]),
                _fmt(s["median_marks"]),
            ]
        )
    widths = [
        max(len(headers[c]), *(len(r[c]) for r in rows)) if rows else len(headers[c])
        for c in range(len(headers))
    ]
    out = []
    out.append("  ".join(h.ljust(widths[c]) for c, h in enumerate(headers)))
    for r in rows:
        out.append("  ".join(r[c].ljust(widths[c]) for c in range(len(headers))))
    out.append("")
    out.append(
        f"validated {report.language_checks} language checks, "
        f"{len(report.mismatches)} mismatches"
    )
    for text in report.mismatches:
        out.append(f"  mismatch: {text}")
    return "\n".join(out) + "\n"
