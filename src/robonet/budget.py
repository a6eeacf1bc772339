"""Enumeration budget shared by the exhaustive-search code paths."""
from __future__ import annotations

import os

DEFAULT_SUBSET_BUDGET = 10**6

ENV_VAR = "ROBONET_BUDGET"


def resolve_budget(explicit: int | None = None) -> int:
    """Pick the subset budget: explicit value, else environment, else default.

    Raises :class:`ValueError` unless the chosen budget is a positive integer.
    """
    if explicit is not None:
        budget = int(explicit)
    else:
        raw = os.environ.get(ENV_VAR)
        budget = int(raw) if raw else DEFAULT_SUBSET_BUDGET
    if budget < 1:
        raise ValueError(f"the subset budget must be positive, got {budget}")
    return budget
