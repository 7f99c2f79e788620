"""Run configuration: search ceilings, seeds and output conventions.

Every exponential search in the library is guarded by a ceiling taken
from a :class:`Ceilings` instance, so runaway computations are rejected
up front instead of hanging.  All values can be overridden through
``HCOL_*`` environment variables (e.g. ``HCOL_ORACLE_VERTICES=8000``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields


@dataclass(frozen=True)
class Ceilings:
    """Feasibility ceilings for the exponential searches.

    oracle_vertices:  largest graph fed to the homomorphism oracle.
    witness_vertices: largest graph for exact witness-number search; a size
                      check, not a time bound (no node budget yet).
    gadget_vertices:  largest candidate gadget in the enumeration phase.
    field_degree:     largest extension degree m for GF(p^m).
    core_vertices:    largest graph for core computation.
    b_pattern_m:      largest m for B(m, l) pattern searches.
    ortho_vertices:   largest vertex count of an orthogonality graph.
    subset_budget:    largest number of cover subsets a kernel may enumerate.
    retry_cap:        attempts for seeded sample-and-verify loops.
    """

    oracle_vertices: int = 4096
    witness_vertices: int = 64
    gadget_vertices: int = 6
    field_degree: int = 8
    core_vertices: int = 12
    b_pattern_m: int = 7
    ortho_vertices: int = 5000
    subset_budget: int = 500_000
    retry_cap: int = 64

    def __post_init__(self) -> None:
        for f in fields(self):
            if getattr(self, f.name) <= 0:
                raise ValueError(f"ceiling {f.name} must be positive")


ENV_PREFIX = "HCOL_"


def env_int(name: str, default: int) -> int:
    """The integer in HCOL_<NAME>, or `default` when it is unset."""
    raw = os.environ.get(ENV_PREFIX + name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{ENV_PREFIX}{name} must be an integer, got {raw!r}") from None


def env_choice(name: str, default: str, choices: tuple[str, ...]) -> str:
    """The value of HCOL_<NAME>, which must be one of `choices`, or `default`
    when it is unset."""
    raw = os.environ.get(ENV_PREFIX + name, default)
    if raw not in choices:
        raise ValueError(f"{ENV_PREFIX}{name} must be one of {', '.join(choices)}, got {raw!r}")
    return raw


def ceilings_from_env() -> Ceilings:
    """The default ceilings with any HCOL_<NAME> environment overrides applied."""
    return Ceilings(**{f.name: env_int(f.name.upper(), f.default) for f in fields(Ceilings)})


DEFAULT_CEILINGS = Ceilings()
