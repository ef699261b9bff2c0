"""Runtime configuration for the CLI and the verification suites."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass


# The deepest ray prefix a command accepts: find_flip keeps O(n depth^2)
# prefix tuples for n rays, so its time and memory grow with depth squared.
MAX_DEPTH = 256

# The most rays flip-demo draws (time about quadratic in the count: at q=5
# 3,000 rays took 4 s on a 2-core VM), and the largest q at which
# verify.random_flip_instance places a random subtree.  A drawn star or
# 3-centipede has q+2 or 2q+2 vertices, so flip-demo's time grows linearly
# in q: on a 2-core VM, at most 13 ms over seeds 0-9 at q=300, 0.6 s at
# q=10^4, and 3.6 s with 164 MB at q=10^5.
MAX_RAYS = 1000
MAX_SUBTREE_Q = 100


@dataclass(frozen=True)
class Config:
    default_depth: int = 12
    group_order_bound: int = 10**6
    output_format: str = "json"
    seed: int = 0

    def __post_init__(self):
        for name in ("default_depth", "group_order_bound", "seed"):
            if type(getattr(self, name)) is not int:  # a bool is not one either
                raise ValueError(f"{name} must be an integer")
        if self.default_depth <= 0 or self.group_order_bound <= 0:
            raise ValueError("depths and bounds must be positive")
        if self.default_depth > MAX_DEPTH:
            raise ValueError(f"default_depth {self.default_depth} exceeds the maximum {MAX_DEPTH}")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.output_format not in ("json", "csv"):
            raise ValueError(f"unknown output format {self.output_format!r}")


ENV_VAR = "ARBOCOH_CONFIG"


def load_config(path: str | None = None) -> Config:
    """Load configuration from an explicit path, else from $ARBOCOH_CONFIG,
    else defaults.  An unreadable file raises OSError, and a file that is
    not a JSON object of valid fields raises ValueError."""
    if path is None:
        path = os.environ.get(ENV_VAR)
    if path is None:
        return Config()
    with open(path) as fh:
        try:
            data = json.load(fh)
        except RecursionError:  # ValueError covers every other undecodable text
            raise ValueError(f"bad config file {path}: nested too deep") from None
    if not isinstance(data, dict):
        raise ValueError(f"bad config file {path}: not a JSON object")
    try:
        return Config(**data)
    except TypeError as exc:
        raise ValueError(f"bad config file {path}: {exc}") from None
