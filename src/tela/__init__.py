"""Toolkit for transition-based Emerson-Lei automata (TELA).

Automata carry acceptance marks on transitions and a positive Boolean
acceptance formula over Inf/Fin atoms.  The package covers the acceptance
algebra, structural operations (split, sum, product, completion,
bisimulation quotient, simulation reduction), emptiness and membership
analysis, translations to generalized Buchi, Safra-style and product-based
determinization, limit-deterministic and good-for-MDP constructions, MDP
model checking, and a random-automaton benchmark harness.
"""

from .acceptance import (
    Acceptance,
    AcceptanceError,
    And,
    BoolConst,
    DnfAcceptance,
    DnfDisjunct,
    FALSE,
    Fin,
    Inf,
    NotInDnfError,
    Or,
    TRUE,
    and_,
    dnf_length,
    evaluate,
    fin_,
    format_acceptance,
    inf_,
    is_finless,
    length,
    negate,
    or_,
    parse_acceptance,
    to_dnf,
)
from .analysis import (
    accepting_lasso,
    accepts,
    is_empty,
    sample_lassos,
)
from .core import (
    BudgetExceeded,
    Lasso,
    MAX_AP,
    MAX_MARKS,
    MAX_STATES,
    Tela,
    TelaError,
    Transition,
    bisim_quotient,
    complement_deterministic,
    complete,
    is_complete,
    is_deterministic,
    product,
    simulation_reduce,
    split,
    state_limit,
    sum_automata,
    sum_gba,
    time_limit,
)
from .determinize import (
    contains,
    degeneralize,
    determinize_product,
    determinize_via_gba,
    equivalent_deterministic,
    safra_determinize,
)
from .hoaio import HoaParseError, parse_hoa, print_hoa
from .limitdet import (
    build_gfm,
    build_ld,
    canonical_partition,
    is_limit_deterministic,
    is_syntactically_limit_deterministic,
    limit_det_sum,
)
from .mdp import (
    Mdp,
    MdpError,
    MdpParseError,
    NotLimitDeterministicError,
    ProductMdp,
    mdp_product,
    parse_mdp,
    pr_max_buchi,
    pr_max_tela,
    qualitative_positive,
    reference_pr_max,
)
from .randbench import (
    BenchConfig,
    BenchError,
    cnf_blowup_automaton,
    nondeterminism_amount,
    parse_bench_config,
    random_tela,
    run_benchmark,
)
from .transforms import ensure_dnf, remove_fin, remove_fin_gba, to_gba

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
