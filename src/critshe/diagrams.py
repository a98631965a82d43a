"""Enumeration of the pair-sequence diagrams labeling expansion terms.

A diagram over n particles is a finite sequence of ordered pairs
(i_1, j_1), ..., (i_m, j_m) with 1 <= i_k < j_k <= n and consecutive pairs
distinct.  With p = n(n-1)/2 available pairs there are exactly
p (p-1)^(m-1) diagrams of length m; the full family over all m is infinite,
so enumeration is exposed as a lazy iterator and the moment engine requests
one (n, m) slice at a time.

A diagram is *degenerate* when some particle never appears in any of its
pairs; for n = 2 every diagram is nondegenerate, and for n = 3 the
degenerate diagrams are exactly the constant sequences on a single pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .errors import DomainError

__all__ = ["DiagramIndex", "iter_diagrams", "enumerate_diagrams", "classify", "count"]


@dataclass(frozen=True)
class DiagramIndex:
    """A sequence of particle pairs with consecutive pairs distinct."""

    n: int
    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.n < 2:
            raise DomainError(f"diagrams need at least two particles, got n={self.n}")
        if len(self.pairs) < 1:
            raise DomainError("diagrams must contain at least one pair")
        for i, j in self.pairs:
            if not (1 <= i < j <= self.n):
                raise DomainError(f"pair ({i},{j}) is not ordered within 1..{self.n}")
        for a, b in zip(self.pairs, self.pairs[1:]):
            if a == b:
                raise DomainError(f"consecutive pairs must differ, got repeated {a}")

    @property
    def m(self) -> int:
        return len(self.pairs)


def _all_pairs(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def iter_diagrams(n: int, m: int) -> Iterator[DiagramIndex]:
    """Lazily yield all length-m diagrams over n particles in lexicographic order."""
    if n < 2 or m < 1:
        raise DomainError(f"diagram enumeration needs n >= 2 and m >= 1, got ({n},{m})")
    pairs = _all_pairs(n)

    def extend(prefix: tuple[tuple[int, int], ...]) -> Iterator[DiagramIndex]:
        if len(prefix) == m:
            yield DiagramIndex(n, prefix)
            return
        last = prefix[-1] if prefix else None
        for p in pairs:
            if p != last:
                yield from extend(prefix + (p,))

    yield from extend(())


def enumerate_diagrams(n: int, m: int) -> list[DiagramIndex]:
    """All length-m diagrams over n particles, materialized in lexicographic order."""
    return list(iter_diagrams(n, m))


def classify(d: DiagramIndex) -> bool:
    """True iff the diagram is degenerate: its pairs miss some particle."""
    used: set[int] = set()
    for i, j in d.pairs:
        used.add(i)
        used.add(j)
    return len(used) < d.n


def count(n: int, m: int) -> int:
    """|{length-m diagrams}| = p (p-1)^(m-1) with p = n(n-1)/2, exactly."""
    if n < 2 or m < 1:
        raise DomainError(f"diagram counting needs n >= 2 and m >= 1, got ({n},{m})")
    p = n * (n - 1) // 2
    return p * (p - 1) ** (m - 1)
