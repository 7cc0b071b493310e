"""The benchmark's workloads: seeded inputs, one timed item, and its checks.

Every workload turns a seed into a list of inputs rendered as text (HOA for
automata, the MDP text format for MDPs), so that each item parses its inputs
inside the timed region, as the `tela` subcommands do.  An item is one
closed-loop request: the benchmark starts the next one only after the
previous one has returned.

Library functions are always looked up on the `tela` package at call time,
so that the traced run (see tracing.py) sees every call the items make.

Each workload has four parts:

- `generate(rng, count)`: the inputs, drawn from the seeded generator.
- `item(inp)`: the timed work; returns an `Outcome`.
- `render(out)`: the output texts hashed into the determinism digest.
- `check(inp, out)`: mismatch messages; an empty list means the item is
  correct.  `check` runs outside the timed region; with `defer_check` it
  runs after the whole measured loop.
"""

from __future__ import annotations

import random
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import tela
from tela.randbench import DET_METHODS
from tela.transforms import GBA_METHODS

GBA_WORDS = 10
DET_STATE_CAP = 100
MC_MDP_STATES = 6
PROB_TOLERANCE = 1e-6


@dataclass
class Attempt:
    """One construction: its output size, or the type of what it raised."""

    states: int | None
    error: str | None = None


@dataclass
class Outcome:
    attempts: list[Attempt] = field(default_factory=list)
    data: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    rate: float  # items per second where the benchmark was built; sizes runs
    generate: Callable[[random.Random, int], list]
    item: Callable[[object], Outcome]
    render: Callable[[Outcome], list[str]]
    check: Callable[[object, Outcome], list[str]]
    defer_check: bool = False


def _construct(out: Outcome, build: Callable[[], object]):
    """Run one construction and record its outcome; None if it raised.

    Any exception counts as a failed construction, by type, so that a crash
    can never pass as a fast success; only the state cap is expected.
    """
    try:
        result = build()
    except Exception as exc:
        if not isinstance(exc, tela.BudgetExceeded):
            traceback.print_exc()
        out.attempts.append(Attempt(None, type(exc).__name__))
        return None
    states = result.n_states if isinstance(result, tela.Tela) else None
    out.attempts.append(Attempt(states))
    return result


# gba: TELA -> GBA translations, validated by lasso-word membership.


def gba_generate(rng: random.Random, count: int) -> list:
    inputs = []
    for _ in range(count):
        a = tela.random_tela(
            n_states=4,
            n_marks=6,
            edge_density=3 / 4,
            mark_prob=0.2,
            acc="dnf",
            seed=rng.randrange(2**32),
            n_ap=1,
        )
        inputs.append((tela.print_hoa(a), rng.randrange(2**32)))
    return inputs


def gba_item(inp) -> Outcome:
    text, word_seed = inp
    out = Outcome()
    a = tela.parse_hoa(text)
    outputs = {}
    for method in GBA_METHODS:
        g = _construct(out, lambda: tela.to_gba(a, method))
        if g is not None:
            outputs[method] = g
    words = tela.sample_lassos(a, GBA_WORDS, word_seed)
    out.data["outputs"] = outputs
    out.data["verdicts"] = gba_verdicts(a, outputs, words)
    return out


def gba_verdicts(a, outputs: dict, words) -> dict[str, tuple[bool, ...]]:
    """Membership of every word in the input and in each output."""
    return {
        name: tuple(tela.accepts(x, u, v) for u, v in words)
        for name, x in (("input", a), *outputs.items())
    }


def gba_render(out: Outcome) -> list[str]:
    return [tela.print_hoa(g) for g in out.data["outputs"].values()]


def gba_check(inp, out: Outcome) -> list[str]:
    verdicts = out.data["verdicts"]
    want = verdicts["input"]
    return [
        f"{name} differs from the input on word {i}"
        for name, got in verdicts.items()
        for i, (x, y) in enumerate(zip(want, got))
        if x != y
    ]


# det: full determinization by the six methods, cross-checked by containment.


def det_generate(rng: random.Random, count: int) -> list:
    inputs = []
    for _ in range(count):
        a = tela.random_tela(
            n_states=4,
            n_marks=3,
            edge_density=3 / 4,
            mark_prob=0.2,
            acc="random-el",
            seed=rng.randrange(2**32),
            n_ap=1,
        )
        inputs.append(tela.print_hoa(a))
    return inputs


def determinize(a, method: str):
    """The call `tela determinize --method <method>` makes."""
    if method == "product":
        return tela.determinize_product(a, True, DET_STATE_CAP)
    if method == "product-nolangcover":
        return tela.determinize_product(a, False, DET_STATE_CAP)
    return tela.determinize_via_gba(
        a, method.removeprefix("via-gba:"), DET_STATE_CAP
    )


def det_item(text) -> Outcome:
    out = Outcome()
    a = tela.parse_hoa(text)
    outputs = {}
    for method in DET_METHODS:
        d = _construct(out, lambda: determinize(a, method))
        if d is not None:
            printed = tela.print_hoa(d)
            outputs[method] = (printed, tela.parse_hoa(printed))
    out.data["outputs"] = outputs
    out.data["agree"] = det_agreement(outputs)
    return out


def det_agreement(outputs: dict) -> dict[str, tuple[bool, bool]]:
    """Containment both ways of each output against the first one."""
    if not outputs:
        return {}
    first, *rest = outputs
    ref = outputs[first][1]
    return {
        name: (
            tela.contains(ref, outputs[name][1]),
            tela.contains(outputs[name][1], ref),
        )
        for name in rest
    }


def det_render(out: Outcome) -> list[str]:
    return [printed for printed, _ in out.data["outputs"].values()]


def det_check(inp, out: Outcome) -> list[str]:
    bad = []
    for name, (printed, d) in out.data["outputs"].items():
        if not (tela.is_deterministic(d) and tela.is_complete(d)):
            bad.append(f"{name}: output is not deterministic and complete")
        if tela.print_hoa(d) != printed:
            bad.append(f"{name}: reprinting the parsed HOA changes it")
    for name, both in out.data["agree"].items():
        if both != (True, True):
            bad.append(f"{name}: language differs from the first output")
    return bad


# mc: maximal probability of a TELA on an MDP, plus the qualitative answer.


def random_mdp_text(rng: random.Random, n_states: int, ap) -> str:
    """A seeded MDP: 1-2 actions per state, each going to 1-3 distinct
    successors with equal probability.

    Equal probabilities keep interval iteration's sweep count from
    depending on rare near-1 self-loop probabilities, which made item times
    far more skewed with random weights.
    """
    lines = [f"states {n_states}", "initial 0"]
    for s in range(n_states):
        label = ",".join(x for x in ap if rng.random() < 0.5)
        lines.append(f"label {s} {{{label}}}")
    for s in range(n_states):
        for act in range(rng.randint(1, 2)):
            targets = rng.sample(range(n_states), rng.randint(1, 3))
            for t in targets:
                lines.append(f"trans {s} a{act} {t} {Fraction(1, len(targets))}")
    return "\n".join(lines) + "\n"


def mc_generate(rng: random.Random, count: int) -> list:
    """Density 9/10, not 3/4: the check's reference_pr_max determinizes
    without a state cap, and at 3/4 about one input in a thousand took 5 s
    or more there (27 s for the slowest of 1000), which no run length can
    absorb; at 9/10 the slowest of 5000 took about a second."""
    inputs = []
    for _ in range(count):
        a = tela.random_tela(
            n_states=4,
            n_marks=2,
            edge_density=9 / 10,
            mark_prob=0.2,
            acc="random-el",
            seed=rng.randrange(2**32),
            n_ap=1,
        )
        inputs.append((random_mdp_text(rng, MC_MDP_STATES, a.ap), tela.print_hoa(a)))
    return inputs


def mc_item(inp) -> Outcome:
    """`tela mc --quant`, then the qualitative question on build_ld."""
    mdp_text, aut_text = inp
    out = Outcome()
    m = tela.parse_mdp(mdp_text)
    a = tela.parse_hoa(aut_text)
    out.data["pr"] = _construct(out, lambda: tela.pr_max_tela(m, a))
    ld = _construct(out, lambda: tela.build_ld(tela.ensure_dnf(a)))
    if ld is not None:
        out.data["positive"] = tela.qualitative_positive(m, ld)
    return out


def mc_render(out: Outcome) -> list[str]:
    pr = out.data["pr"]
    return [
        "none" if pr is None else f"{pr:.12f}",
        str(out.data.get("positive")),
    ]


def mc_reference(inp) -> float:
    mdp_text, aut_text = inp
    return tela.reference_pr_max(tela.parse_mdp(mdp_text), tela.parse_hoa(aut_text))


def mc_check(inp, out: Outcome, reference: float | None = None) -> list[str]:
    """Compare against reference_pr_max, computed here unless given."""
    if reference is None:
        reference = mc_reference(inp)
    bad = []
    pr = out.data["pr"]
    if pr is not None and abs(pr - reference) > PROB_TOLERANCE:
        bad.append(f"pr_max_tela {pr!r} differs from the reference {reference!r}")
    positive = out.data.get("positive")
    if positive is not None and positive != (reference > PROB_TOLERANCE):
        bad.append(f"qualitative answer {positive} but the reference is {reference!r}")
    return bad


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "gba",
            rate=9.5,
            generate=gba_generate,
            item=gba_item,
            render=gba_render,
            check=gba_check,
        ),
        Workload(
            "det",
            rate=20.0,
            generate=det_generate,
            item=det_item,
            render=det_render,
            check=det_check,
        ),
        Workload(
            "mc",
            rate=24.0,
            generate=mc_generate,
            item=mc_item,
            render=mc_render,
            check=mc_check,
            defer_check=True,
        ),
    )
}
