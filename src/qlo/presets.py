"""Named families of commutation graphs: free:n, abelian:k, path:n, cycle:n.

All presets carry unit weights; generator names are single letters a, b, c,
... for up to 26 vertices and s1, s2, ... beyond that.
"""

from __future__ import annotations

import string

from .monoid import GraphError, build_graph

__all__ = ["preset_graph", "preset_spec"]

_FAMILIES = ("free", "abelian", "path", "cycle")


def _generator_names(n):
    if n <= 26:
        return list(string.ascii_lowercase[:n])
    return [f"s{i}" for i in range(1, n + 1)]


def preset_spec(name):
    """Parse 'family:n' into (family, n, generators, edges)."""
    try:
        family, _, count = name.partition(":")
        n = int(count)
    except ValueError as exc:
        raise GraphError(f"malformed preset {name!r}; expected family:n") from exc
    if family not in _FAMILIES:
        raise GraphError(
            f"unknown preset family {family!r}; choose from {_FAMILIES}"
        )
    if n < 1:
        raise GraphError("preset size must be at least 1")
    gens = _generator_names(n)
    if family == "free":
        edges = []
    elif family == "abelian":
        edges = [(gens[i], gens[j]) for i in range(n) for j in range(i + 1, n)]
    elif family == "path":
        edges = [(gens[i], gens[i + 1]) for i in range(n - 1)]
    else:  # cycle
        if n < 3:
            raise GraphError("cycle presets need at least 3 vertices")
        edges = [(gens[i], gens[(i + 1) % n]) for i in range(n)]
    return family, n, gens, edges


def preset_graph(name):
    """Build the unit-weight graph for a 'family:n' preset name."""
    _, _, gens, edges = preset_spec(name)
    return build_graph(gens, 1, edges)
