"""Ulam-Harris label algebra.

A particle in a branching population is named by the sequence of child
indices along its lineage: the founding mother is the empty sequence,
her third child is (2,), that child's first child is (2, 0), and so on.
Labels are plain tuples of non-negative ints, immutable and hashable.
"""
from __future__ import annotations

from typing import Iterable, Tuple

Label = Tuple[int, ...]

MOTHER: Label = ()


def make_label(indices: Iterable[int]) -> Label:
    lab = tuple(int(i) for i in indices)
    if any(i < 0 for i in lab):
        raise ValueError(f"label indices must be non-negative: {lab}")
    return lab


def concat(i: Label, j: Label) -> Label:
    """Concatenation ij: the particle reached by following j below i."""
    return i + j


def generation(i: Label) -> int:
    """Depth of the label: number of indices in its path."""
    return len(i)


def child(i: Label, k: int) -> Label:
    if k < 0:
        raise ValueError("child index must be non-negative")
    return i + (k,)


def is_strict_ancestor(j: Label, i: Label) -> bool:
    """True iff i strictly extends j, i.e. j is a proper prefix of i."""
    return len(i) > len(j) and i[: len(j)] == j


def is_antichain(labels: Iterable[Label]) -> bool:
    """True iff no label in the collection is a strict ancestor of another."""
    labs = sorted(set(labels))
    # After sorting, any strict ancestor of labs[k] appears earlier; a
    # prefix-of-next check over the sorted order finds every violation.
    for a, b in zip(labs, labs[1:]):
        if is_strict_ancestor(a, b):
            return False
    return True


def format_label(i: Label) -> str:
    """Render a label for CSV/JSON output: the mother is "∅", else "1.2.0"."""
    if not i:
        return "∅"
    return ".".join(str(k) for k in i)


def parse_label(text: str) -> Label:
    text = text.strip()
    if text in ("∅", "", "()"):
        return MOTHER
    try:
        return make_label(int(part) for part in text.split("."))
    except ValueError as exc:
        raise ValueError(f"cannot parse label {text!r}") from exc
