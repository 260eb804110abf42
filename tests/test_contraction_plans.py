"""Plan caches of the contraction stack: bitwise replay and structural keys.

``contract_network`` plans each network structure once and replays the
recorded pairwise schedule; ``NumPyBackend.einsum``/``einsum_batched`` replay
the contraction list ``np.einsum`` derives from a cached path.  Both must
give results bitwise identical to planning afresh.
"""

import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import peps
from repro.backends import (
    NumPyBackend,
    clear_path_caches,
    numpy_backend,
    parse_batched_subscripts,
    path_cache_stats,
    rewrite_batched_subscripts,
)
from repro.operators.hamiltonians import heisenberg_j1j2
from repro.peps.envs import EnvExact
from repro.peps.envs.strip import strip_value
from repro.telemetry import global_snapshot
from repro.tensornetwork.einsum_spec import symbols
from repro.tensornetwork.network import contract_network

BACKEND = NumPyBackend()

#: These tests contract real tensors: keep the example counts modest.
FAST = settings(max_examples=40, deadline=None)

#: NumPy's greedy planner with no intermediate size limit: the planner the
#: backend's path cache must match, spelled out independently of it.
UNCAPPED = ("greedy", sys.maxsize)


def assert_bitwise(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def network_stats():
    return path_cache_stats()["network"]


# --------------------------------------------------------------------- #
# contract_network: one plan per structure
# --------------------------------------------------------------------- #
@st.composite
def networks(draw):
    """A small random network: integer labels, their dims, output, tensors."""
    n_labels = draw(st.integers(min_value=1, max_value=6))
    dims = draw(st.lists(st.integers(1, 3), min_size=n_labels, max_size=n_labels))
    label = st.integers(min_value=0, max_value=n_labels - 1)
    n_operands = draw(st.integers(min_value=1, max_value=4))
    inputs = [
        tuple(draw(st.lists(label, min_size=1, max_size=3, unique=True)))
        for _ in range(n_operands)
    ]
    present = list(dict.fromkeys(l for labels in inputs for l in labels))
    order = draw(st.permutations(present))
    output = tuple(order[: draw(st.integers(min_value=0, max_value=len(order)))])
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**31 - 1)))
    operands = [
        rng.standard_normal([dims[l] for l in labels])
        + 1j * rng.standard_normal([dims[l] for l in labels])
        for labels in inputs
    ]
    return operands, inputs, output


def relabel(inputs, output, mapping):
    return [tuple(mapping[l] for l in labels) for labels in inputs], tuple(
        mapping[l] for l in output
    )


def einsum_reference(operands, inputs, output):
    letters = dict(zip(sorted({l for labels in inputs for l in labels}), symbols(52)))
    lhs = ",".join("".join(letters[l] for l in labels) for labels in inputs)
    rhs = "".join(letters[l] for l in output)
    return np.einsum(f"{lhs}->{rhs}", *operands)


class TestNetworkPlanCache:
    @FAST
    @given(network=networks())
    def test_cold_and_warm_cache_are_bitwise_equal(self, network):
        operands, inputs, output = network
        clear_path_caches()
        cold = contract_network(operands, inputs, output, backend=BACKEND)
        warm = contract_network(operands, inputs, output, backend=BACKEND)
        assert_bitwise(warm, cold)
        np.testing.assert_allclose(
            cold, einsum_reference(operands, inputs, output), rtol=1e-10, atol=1e-10
        )

    @FAST
    @given(network=networks())
    def test_relabeled_copy_is_one_miss_then_hits(self, network):
        operands, inputs, output = network
        clear_path_caches()
        expected = contract_network(operands, inputs, output, backend=BACKEND)
        assert network_stats() == {"hits": 0, "misses": 1, "size": 1}
        rounds = 3
        for k in range(rounds):
            # Fresh objects per round, like the id(matrix) operator labels.
            mapping = {l: ("kap", k, object()) for l in range(6)}
            new_inputs, new_output = relabel(inputs, output, mapping)
            got = contract_network(operands, new_inputs, new_output, backend=BACKEND)
            assert_bitwise(got, expected)
        assert network_stats() == {"hits": rounds, "misses": 1, "size": 1}

    def test_strip_terms_with_fresh_matrices_keep_the_cache_size(self):
        # Operator labels are built from id(matrix): a fresh matrix object per
        # evaluation changes every label value but not the structure.
        state = peps.random_peps(2, 3, bond_dim=2, seed=7)
        env = EnvExact(state)
        terms = heisenberg_j1j2(2, 3, j2=[0.5, 0.5, 0.5]).terms
        alive = []

        def evaluate():
            values = []
            for term in terms:
                r0, r1, _ = env._term_rows(term.sites)
                matrix = np.array(term.matrix, copy=True)
                alive.append(matrix)
                values.append(strip_value(
                    state, env.ensure_upper(r0), env.ensure_lower(r1),
                    r0, r1, term.sites, matrix,
                ))
            return values

        clear_path_caches()
        first = evaluate()
        after_first = network_stats()
        for _ in range(3):
            assert evaluate() == first
        after = network_stats()
        assert after["size"] == after_first["size"]
        assert after["misses"] == after_first["misses"]
        assert after["hits"] > after_first["hits"]

    def test_errors_name_the_callers_labels(self, rng):
        a = rng.standard_normal((2, 2))
        b = rng.standard_normal((3, 3))
        with pytest.raises(ValueError, match="'j'"):
            contract_network([a, b], [("i", "j"), ("j", "k")], ("i", "k"), backend=BACKEND)
        with pytest.raises(ValueError, match="'q'"):
            contract_network([a], [("i", "j")], ("q",), backend=BACKEND)
        # A failed plan is not cached: the same call raises again.
        with pytest.raises(ValueError, match="'q'"):
            contract_network([a], [("i", "j")], ("q",), backend=BACKEND)

    def test_distributed_backend_shares_the_plan(self, rng, dist_backend):
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((4, 5))
        clear_path_caches()
        ref = contract_network([a, b], [("i", "j"), ("j", "k")], ("k", "i"), backend=BACKEND)
        got = contract_network(
            [dist_backend.astensor(a), dist_backend.astensor(b)],
            [("x", "y"), ("y", "z")], ("z", "x"), backend=dist_backend,
        )
        np.testing.assert_allclose(dist_backend.asarray(got), ref, rtol=1e-12)
        assert network_stats() == {"hits": 1, "misses": 1, "size": 1}


# --------------------------------------------------------------------- #
# NumPyBackend: replaying np.einsum's contraction list
# --------------------------------------------------------------------- #
EINSUM_CASES = [
    ("ab,bc->ac", [(3, 4), (4, 5)]),
    ("ab,bc,cd->da", [(2, 3), (3, 4), (4, 5)]),
    ("abc,cd,bde->ae", [(2, 3, 4), (4, 2), (3, 2, 3)]),
    ("abc->ca", [(2, 3, 4)]),
    ("ii->i", [(4, 4)]),
    ("ii->", [(4, 4)]),
    ("ab,ab->ab", [(1, 4), (3, 4)]),
    ("ab,bc->ac", [(1, 4), (4, 1)]),
    ("...a,...a->...", [(2, 3, 4), (3, 4)]),
    ("ab,bc", [(3, 4), (4, 5)]),
]

BATCHED_CASES = [
    ("ab,bc->ac", [(4, 3, 3), (4, 3, 3)]),
    ("ab,bc->ac", [(4, 3, 3), (1, 3, 3)]),
    ("ab,bc,cd->ad", [(3, 2, 3), (1, 3, 4), (3, 4, 2)]),
    ("ii->i", [(2, 3, 3)]),
]


@pytest.fixture(params=["replay", "no-kernels"])
def kernels(request, monkeypatch):
    """Run with this NumPy's kernels, and once as if it had none."""
    if request.param == "no-kernels":
        monkeypatch.setattr(numpy_backend, "_KERNELS", None)
    clear_path_caches()
    yield request.param
    clear_path_caches()


def operands_for(shapes, seed=3):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(s) + 1j * rng.standard_normal(s) for s in shapes]


@pytest.mark.parametrize("subscripts,shapes", EINSUM_CASES)
def test_einsum_replay_is_bitwise_numpy(subscripts, shapes, kernels):
    ops = operands_for(shapes)
    path = np.einsum_path(subscripts, *ops, optimize=UNCAPPED)[0]
    expected = np.einsum(subscripts, *ops, optimize=path)
    assert_bitwise(BACKEND.einsum(subscripts, *ops), expected)
    # Second call: served by the cached plan.
    assert_bitwise(BACKEND.einsum(subscripts, *ops), expected)
    cached_path, steps = numpy_backend._cached_einsum_path(
        subscripts, tuple(op.shape for op in ops)
    )
    assert cached_path == path
    replayed = kernels == "replay" and numpy_backend._KERNELS is not None
    assert (steps is not None) == replayed


@pytest.mark.parametrize("subscripts,shapes", BATCHED_CASES)
def test_einsum_batched_replay_is_bitwise_numpy(subscripts, shapes, kernels):
    ops = operands_for(shapes)
    _, _, batch_dims, _ = parse_batched_subscripts(subscripts, [op.shape for op in ops])
    rewritten, _ = rewrite_batched_subscripts(subscripts, batch_dims)
    fused = [op[0] if dim == 1 else op for op, dim in zip(ops, batch_dims)]
    path = np.einsum_path(rewritten, *fused, optimize=UNCAPPED)[0]
    expected = np.einsum(rewritten, *fused, optimize=path)
    assert_bitwise(BACKEND.einsum_batched(subscripts, *ops), expected)
    assert_bitwise(BACKEND.einsum_batched(subscripts, *ops), expected)


#: The lockstep sampler's batched site-density contraction at the 3x3 CTM
#: benchmark's shapes (32 shots, boundary bond 4, bond dimension 2), as
#: ``einsum_batched`` rewrites it: ``c`` is the batch label, and the
#: size-1-batched site and lower-boundary tensors are squeezed.
SITE_DENSITY = "aefb,auwx,puedg,qwfhs,bdhy,xgsy->qp"
SITE_DENSITY_BATCHED = "caefb,cauwx,puedg,qwfhs,bdhy,cxgsy->cqp"
SITE_DENSITY_SHAPES = (
    (32, 4, 2, 2, 4), (32, 4, 2, 2, 4), (2, 2, 2, 2, 2),
    (2, 2, 2, 2, 2), (4, 2, 2, 4), (32, 4, 2, 2, 4),
)


def test_batched_site_density_is_planned_as_blas_pairs(kernels):
    # NumPy's default memory cap (the largest operand) binds here and leaves
    # a multi-operand C loop; uncapped, every step is a pairwise contraction.
    ops = operands_for(SITE_DENSITY_SHAPES)
    path, steps = numpy_backend._cached_einsum_path(SITE_DENSITY_BATCHED, SITE_DENSITY_SHAPES)
    assert path == np.einsum_path(SITE_DENSITY_BATCHED, *ops, optimize=UNCAPPED)[0]
    assert path != np.einsum_path(SITE_DENSITY_BATCHED, *ops, optimize="greedy")[0]
    if kernels == "replay" and numpy_backend._KERNELS is not None:
        assert steps is not None
        assert all(len(positions) == 2 for positions, _ in steps if len(positions) > 1)
    expected = np.einsum(SITE_DENSITY_BATCHED, *ops, optimize=path)
    assert_bitwise(BACKEND.einsum(SITE_DENSITY_BATCHED, *ops), expected)
    # The sampler's own call: shared operands carry a size-1 batch axis.
    batched = [op if op.shape[0] == 32 else op[np.newaxis] for op in ops]
    assert_bitwise(BACKEND.einsum_batched(SITE_DENSITY, *batched), expected)


def test_planner_rejected_subscripts_fall_back_to_numpy(kernels):
    ops = operands_for([(2, 3), (3, 4)])
    assert numpy_backend._cached_einsum_path("ab,bc->ad", ((2, 3), (3, 4))) == (True, None)
    with pytest.raises(ValueError):
        np.einsum("ab,bc->ad", *ops, optimize=True)
    with pytest.raises(ValueError):
        BACKEND.einsum("ab,bc->ad", *ops)


# --------------------------------------------------------------------- #
# Observability
# --------------------------------------------------------------------- #
def test_network_plan_cache_is_observable_and_clearable(rng):
    a = rng.standard_normal((2, 3))
    b = rng.standard_normal((3, 2))
    clear_path_caches()
    assert network_stats() == {"hits": 0, "misses": 0, "size": 0}
    for _ in range(3):
        contract_network([a, b], [("i", "j"), ("j", "k")], ("i", "k"), backend=BACKEND)
    stats = path_cache_stats()
    assert stats["network"] == {"hits": 2, "misses": 1, "size": 1}
    # One path lookup per einsum call, planned or replayed.
    assert stats["path"]["hits"] + stats["path"]["misses"] == 3
    snapshot = global_snapshot()
    assert snapshot["einsum.network_cache_hits"] == 2
    assert snapshot["einsum.network_cache_misses"] == 1
    clear_path_caches()
    assert network_stats() == {"hits": 0, "misses": 0, "size": 0}
