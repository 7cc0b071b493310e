"""Per-layer tracing from outside the library.

`install(recorder)` rebinds every traced function wherever a `tela.*` module
(or the `tela` package) holds a reference to it, so nested calls between
layers are caught too; `Tela` construction is caught through
`Tela.__post_init__`.  Nothing under src/ changes.

A span is one call: name, start, end, parent span, item id, phase, and what
the call produced.  Spans stay in memory and are written as JSON at the end
of the run.  Self time is a span's duration minus the time its child spans
cover; calls nest strictly in this single-threaded process, so that is the
duration minus the durations of the direct children.

Phases: `item` spans are the timed work; every traced call there is recorded
under an `item` root span.  Outside items only one function per phase is
recorded, and the calls it makes are not: `randbench.random_tela` while the
inputs are generated (`setup`) and `mdp.reference_pr_max` in the untimed
correctness check (`check`).
"""

from __future__ import annotations

import functools
import json
import sys
import time

from tela.core import Tela

FUNCTIONS = {
    "acceptance": ("to_dnf", "finless_to_gba"),
    "core": (
        "Tela",
        "product",
        "complete",
        "complement_deterministic",
        "split",
        "sum_gba",
    ),
    "transforms": ("to_gba", "ensure_dnf", "remove_fin", "remove_fin_gba"),
    "determinize": (
        "determinize_product",
        "degeneralize",
        "safra_determinize",
        "contains",
    ),
    "analysis": ("accepts", "dnf_witness", "accepting_lasso"),
    "limitdet": ("build_ld", "build_gfm", "limit_det_violation"),
    "mdp": (
        "parse_mdp",
        "pr_max_tela",
        "qualitative_positive",
        "reference_pr_max",
        "mdp_product",
        "pr_max_buchi",
        "_mec_decompose",
        "_max_reach",
    ),
    "hoaio": ("parse_hoa", "print_hoa"),
    "randbench": ("random_tela",),
}

SIZED = (
    "transforms.to_gba",
    "transforms.remove_fin",
    "determinize.degeneralize",
    "determinize.safra_determinize",
    "determinize.determinize_product",
    "core.product",
    "limitdet.build_ld",
    "limitdet.build_gfm",
    "mdp.mdp_product",
)

# Modules whose self times partition the timed items; randbench only runs in
# set-up, so it has no item time.
ITEM_MODULES = tuple(m for m in FUNCTIONS if m != "randbench")

PHASE_ROOTS = {"setup": "randbench.random_tela", "check": "mdp.reference_pr_max"}

NAME, START, END, PARENT, ITEM, PHASE, INFO = range(7)


def per_layer_names() -> list[str]:
    """Every per-layer metric the traced run reports, in a fixed order."""
    names = []
    for module, funcs in FUNCTIONS.items():
        for f in funcs:
            names += [f"{module}.{f}.calls", f"{module}.{f}.self_s"]
    for full in SIZED:
        names += [f"{full}.states_out", f"{full}.trans_out"]
    names += [f"{m}.self_s" for m in ITEM_MODULES]
    names += [
        "determinize.safra_determinize.cap_hit_ratio",
        "determinize.determinize_product.langcover_skip_ratio",
        "analysis.accepts.product_states",
        "trace.overhead_ratio",
        "trace.unattributed_s",
        "trace.item_wall_s",
    ]
    return names


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"


class Recorder:
    """Collects spans; one per benchmark process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.phase = "setup"
        self.item: int | None = None
        self.muted = 0

    def mode(self, name: str) -> int:
        """0: call through untraced; 1: record; 2: record, mute children."""
        if self.muted:
            return 0
        if self.phase == "item":
            return 1
        return 2 if PHASE_ROOTS.get(self.phase) == name else 0

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append(
            [name, time.perf_counter(), None, parent, self.item, self.phase, None]
        )
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, span: int, info) -> None:
        self.spans[span][END] = time.perf_counter()
        self.spans[span][INFO] = info
        self.stack.pop()

    def run_item(self, item_id: int, fn, *args):
        """Run fn(*args) as one timed item under an `item` root span."""
        self.phase, self.item = "item", item_id
        span = self.open("item")
        try:
            return fn(*args)
        finally:
            self.close(span, None)
            self.phase = "check"

    def dump(self, path) -> None:
        keys = ("name", "start", "end", "parent", "item", "phase", "info")
        with open(path, "w") as fh:
            json.dump({"fields": keys, "spans": self.spans}, fh)


def _observe(name: str, args, result):
    """What a span keeps of a call: output sizes, and the inputs of the
    ratios that need them."""
    if isinstance(result, Tela):
        return {"states": result.n_states, "trans": len(result.transitions)}
    if name == "mdp.mdp_product":
        return {
            "states": result.n_states,
            "trans": sum(len(acts) for acts in result.actions),
        }
    if name == "determinize.contains":
        return {"result": result}
    if name == "analysis.accepts":
        a, u, v = args[:3]
        return {"product_states": a.n_states * (len(u) + len(v))}
    return None


def _wrap(rec: Recorder, name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        mode = rec.mode(name)
        if not mode:
            return fn(*args, **kwargs)
        span = rec.open(name)
        rec.muted += mode == 2
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            rec.close(span, {"error": type(exc).__name__})
            raise
        finally:
            rec.muted -= mode == 2
        rec.close(span, _observe(name, args, result))
        return result

    return traced


def install(rec: Recorder):
    """Rebind every traced function in every loaded `tela` module; returns
    a function that puts the originals back."""
    originals = {}
    for module, funcs in FUNCTIONS.items():
        mod = sys.modules[f"tela.{module}"]
        for f in funcs:
            if f != "Tela":
                originals[id(getattr(mod, f))] = f"{module}.{f}"
    wrappers = {}
    undo = [(Tela, "__post_init__", Tela.__post_init__)]
    Tela.__post_init__ = _wrap(rec, "core.Tela", Tela.__post_init__)
    for modname, mod in list(sys.modules.items()):
        if modname != "tela" and not modname.startswith("tela."):
            continue
        for attr, value in list(vars(mod).items()):
            name = originals.get(id(value))
            if name is not None:
                if name not in wrappers:
                    wrappers[name] = _wrap(rec, name, value)
                undo.append((mod, attr, value))
                setattr(mod, attr, wrappers[name])

    def uninstall() -> None:
        for owner, attr, value in undo:
            setattr(owner, attr, value)

    return uninstall


def summarize(rec: Recorder, untraced_wall: float) -> dict:
    """Per-layer metrics from the recorded spans."""
    spans = rec.spans
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] is not None:
            child_time[s[PARENT]] += s[END] - s[START]
    values = {k: 0.0 if k.endswith("_s") else 0 for k in per_layer_names()}
    item_wall = 0.0
    unattributed = 0.0
    safra_caps = 0
    skip_hits = skip_calls = 0
    for i, s in enumerate(spans):
        name = s[NAME]
        self_s = s[END] - s[START] - child_time[i]
        if name == "item":
            item_wall += s[END] - s[START]
            unattributed += self_s
            continue
        values[f"{name}.calls"] += 1
        values[f"{name}.self_s"] += self_s
        if s[PHASE] == "item":
            values[f"{name.split('.')[0]}.self_s"] += self_s
        info = s[INFO] or {}
        if name in SIZED and "states" in info:
            values[f"{name}.states_out"] += info["states"]
            values[f"{name}.trans_out"] += info["trans"]
        if name == "determinize.safra_determinize" and info.get("error") == "BudgetExceeded":
            safra_caps += 1
        if name == "analysis.accepts" and "product_states" in info:
            values["analysis.accepts.product_states"] += info["product_states"]
        if (
            name == "determinize.contains"
            and s[PARENT] is not None
            and spans[s[PARENT]][NAME] == "determinize.determinize_product"
        ):
            skip_calls += 1
            skip_hits += info.get("result") is True
    safra_calls = values["determinize.safra_determinize.calls"]
    values["determinize.safra_determinize.cap_hit_ratio"] = (
        safra_caps / safra_calls if safra_calls else 0.0
    )
    values["determinize.determinize_product.langcover_skip_ratio"] = (
        skip_hits / skip_calls if skip_calls else 0.0
    )
    values["trace.overhead_ratio"] = item_wall / untraced_wall
    values["trace.unattributed_s"] = unattributed
    values["trace.item_wall_s"] = item_wall
    return values
