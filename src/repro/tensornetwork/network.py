"""General tensor-network contraction with arbitrary (hashable) index labels.

``backend.einsum`` is limited to the 52 single-letter subscripts NumPy
supports, which is too few for whole-lattice networks (e.g. the strip
networks appearing in expectation-value evaluation).  :func:`contract_network`
removes that limitation: operands are annotated with tuples of *hashable*
labels, a greedy pairwise schedule is planned, and every pairwise step is
executed through ``backend.einsum`` with letters assigned locally (a single
pairwise contraction never involves more than a few dozen indices).

Planning is a once-per-structure cost.  The schedule depends only on where
each label appears and on the operand shapes, so it is cached under a key
with the labels renumbered by first appearance: networks that differ only in
label values (e.g. operator labels built from ``id(matrix)``) share one plan,
and a call on a known structure only replays the recorded einsum steps.

This plays the role of an ``ncon``-style contractor built on top of the
backend abstraction.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import prod
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro.backends import get_backend
from repro.tensornetwork.einsum_spec import symbols

Label = Hashable

#: One pairwise step of a plan: contract operands ``i < j`` of the current
#: list with ``subscripts``, remove both and append the result.
Step = Tuple[int, int, str]


def _index_dims(
    shapes: Sequence[Tuple[int, ...]], inputs: Sequence[Sequence[Label]]
) -> Dict[Label, int]:
    dims: Dict[Label, int] = {}
    if len(shapes) != len(inputs):
        raise ValueError(
            f"{len(shapes)} operands but {len(inputs)} label tuples were given"
        )
    for shape, labels in zip(shapes, inputs):
        if len(shape) != len(labels):
            raise ValueError(
                f"operand with shape {shape} has {len(shape)} modes but "
                f"{len(labels)} labels {tuple(labels)!r}"
            )
        for label, dim in zip(labels, shape):
            dim = int(dim)
            if label in dims and dims[label] != dim:
                raise ValueError(
                    f"label {label!r} has inconsistent dimensions {dims[label]} and {dim}"
                )
            dims.setdefault(label, dim)
    return dims


def _validate(
    shapes: Sequence[Tuple[int, ...]],
    inputs: Sequence[Sequence[Label]],
    output: Tuple[Label, ...],
) -> Dict[Label, int]:
    """Check labels against shapes and the output; return each label's dimension."""
    dims = _index_dims(shapes, inputs)
    for label in output:
        if label not in dims:
            raise ValueError(f"output label {label!r} does not appear in any operand")
    if len(set(output)) != len(output):
        raise ValueError(f"output labels must be unique, got {output!r}")
    return dims


def _pair_result(
    labels_a: Tuple[Label, ...],
    labels_b: Tuple[Label, ...],
    keep: set,
) -> Tuple[Label, ...]:
    """Labels surviving the contraction of a pair (order: a's free, then b's new free)."""
    out: List[Label] = []
    for label in labels_a:
        if label in keep or (label not in labels_b):
            out.append(label)
    for label in labels_b:
        if label in labels_a:
            continue
        out.append(label)
    return tuple(out)


def _subscripts(terms: Sequence[Tuple[Label, ...]], result: Tuple[Label, ...]) -> str:
    """Einsum subscripts for ``terms -> result`` with letters assigned locally."""
    all_labels = list(dict.fromkeys(label for term in terms for label in term))
    mapping = dict(zip(all_labels, symbols(len(all_labels))))
    lhs = ",".join("".join(mapping[label] for label in term) for term in terms)
    rhs = "".join(mapping[label] for label in result)
    return f"{lhs}->{rhs}"


@lru_cache(maxsize=4096)
def _plan(
    inputs: Tuple[Tuple[int, ...], ...],
    output: Tuple[int, ...],
    shapes: Tuple[Tuple[int, ...], ...],
) -> Tuple[Tuple[Step, ...], Optional[str]]:
    """Greedy pairwise schedule of a network whose labels are renumbered ints.

    Returns ``(steps, final)``: the pairwise steps in execution order and the
    single-operand subscripts that sum leftover labels and permute to
    ``output`` (``None`` when the last result is already in output order).
    """
    dims = _validate(shapes, inputs, output)
    current = list(inputs)
    output_set = set(output)
    steps: List[Step] = []
    while len(current) > 1:
        best = None
        n = len(current)
        for i, j in combinations(range(n), 2):
            labels_a, labels_b = current[i], current[j]
            shared = set(labels_a) & set(labels_b)
            other_labels = {
                label
                for k, labels in enumerate(current)
                if k not in (i, j)
                for label in labels
            }
            keep = output_set | other_labels
            result_labels = _pair_result(labels_a, labels_b, keep)
            volume = prod(dims[l] for l in set(labels_a) | set(labels_b))
            result_size = prod(dims[l] for l in result_labels) if result_labels else 1
            key = (not bool(shared), volume, result_size)
            if best is None or key < best[0]:
                best = (key, i, j, result_labels)
        _, i, j, result_labels = best
        steps.append((i, j, _subscripts((current[i], current[j]), result_labels)))
        current = [labels for k, labels in enumerate(current) if k not in (i, j)]
        current.append(result_labels)

    labels = current[0]
    final = None if labels == output else _subscripts((labels,), output)
    return tuple(steps), final


def contract_network(
    operands: Sequence,
    inputs: Sequence[Sequence[Label]],
    output: Sequence[Label],
    backend=None,
):
    """Contract a tensor network given label annotations.

    Parameters
    ----------
    operands:
        Backend tensors.
    inputs:
        For each operand, a tuple of hashable labels, one per mode.  Labels
        shared between operands are contracted unless they appear in
        ``output``.
    output:
        Labels (and their order) of the result.  Repeated labels are not
        supported; labels appearing only in ``output`` are invalid.
    backend:
        Backend name or instance (defaults to NumPy).

    Returns
    -------
    A backend tensor with one mode per output label (a scalar tensor when
    ``output`` is empty — use ``backend.item`` to extract the value).
    """
    backend = get_backend(backend)
    output = tuple(output)
    shapes = tuple(backend.shape(op) for op in operands)
    # Plan key: labels renumbered by first appearance across inputs, then
    # output.  The greedy tie-break and the letter assignment depend only on
    # label positions and dimensions, so equal keys give equal schedules; and
    # the key fixes everything validation reads, so a hit needs no re-check.
    ids: Dict[Label, int] = {}
    structure = tuple(
        tuple(ids.setdefault(label, len(ids)) for label in labels) for labels in inputs
    )
    renumbered = tuple(ids.setdefault(label, len(ids)) for label in output)
    try:
        steps, final = _plan(structure, renumbered, shapes)
    except ValueError:
        # Report the error in the caller's own labels.
        _validate(shapes, inputs, output)
        raise

    tensors = list(operands)
    for i, j, subscripts in steps:
        b = tensors.pop(j)
        a = tensors.pop(i)
        tensors.append(backend.einsum(subscripts, a, b))
    tensor = tensors[0]
    if final is not None:
        tensor = backend.einsum(final, tensor)
    return tensor
