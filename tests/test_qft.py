"""Grouped-qubit Fourier circuit against dense references.

Two independent oracles: gate-by-gate dense statevector updates written
here on a (2,)*d reshaped array, and the closed-form transform ifft(psi) *
sqrt(N).  CP states are densified with the conftest outer-product builder,
never with the package's own materializer.
"""

import numpy as np
import pytest

from conftest import dense_from_factors
from tensor_topk import cp, qft
from tensor_topk.errors import ShapeMismatchError
from tensor_topk.qft import (GateOp, QubitLayout, apply_gate, qft_circuit,
                             random_product_state, reverse_qubit_order,
                             run_qft, simulate_and_measure, square_layout,
                             statevector)


def cp_to_dense_state(state):
    return dense_from_factors(state.factors).ravel(order="C")


def dense_apply(psi, d, gate):
    """Reference gate application; qubit g is axis g, qubit 0 most significant."""
    t = psi.reshape((2,) * d).copy()
    if gate.kind == "h":
        H = np.array([[1, 1], [1, -1]]) / np.sqrt(2.0)
        t = np.moveaxis(np.tensordot(H, t, axes=([1], [gate.a])), 0, gate.a)
    elif gate.kind == "cphase":
        sl = [slice(None)] * d
        sl[gate.a] = 1
        sl[gate.b] = 1
        t[tuple(sl)] = t[tuple(sl)] * np.exp(1j * gate.theta)
    elif gate.kind == "swap":
        t = np.swapaxes(t, gate.a, gate.b)
    else:
        raise ValueError(gate.kind)
    return np.ascontiguousarray(t).reshape(-1)


def random_cp_state(layout, rng, rank=2):
    factors = []
    for _ in range(layout.modes):
        f = rng.standard_normal((layout.mode_dim, rank)) \
            + 1j * rng.standard_normal((layout.mode_dim, rank))
        factors.append(f)
    return cp.CpTensor(factors)


def test_layout_mapping():
    lay = QubitLayout(6, 3, 2)
    assert lay.mode_dim == 4
    assert lay.dims() == (4, 4, 4)
    assert [lay.mode_of(g) for g in range(6)] == [0, 0, 1, 1, 2, 2]
    assert [lay.pos_of(g) for g in range(6)] == [0, 1, 0, 1, 0, 1]


def test_layout_validation():
    with pytest.raises(ShapeMismatchError):
        QubitLayout(7, 3, 2)
    with pytest.raises(ShapeMismatchError):
        square_layout(5)


def test_circuit_structure():
    d = 5
    gates = qft_circuit(d)
    kinds = [g.kind for g in gates]
    assert kinds.count("h") == d
    assert kinds.count("cphase") == d * (d - 1) // 2
    # the closing swaps are reverse_qubit_order, not gates
    assert len(gates) == d + d * (d - 1) // 2
    assert "swap" not in kinds
    # nearest-neighbor phase is pi/2, most distant pi/2^(d-1)
    thetas = [g.theta for g in gates if g.kind == "cphase"]
    assert max(thetas) == pytest.approx(np.pi / 2)
    assert min(thetas) == pytest.approx(2 * np.pi / (1 << d))


@pytest.mark.parametrize("gate", [
    GateOp("h", 0),
    GateOp("h", 3),
    GateOp("cphase", 1, 0, 1.234),     # same mode
    GateOp("cphase", 2, 1, 0.777),     # cross mode
    GateOp("cphase", 3, 0, np.pi / 8),
])
def test_apply_gate_matches_dense(gate):
    lay = QubitLayout(4, 2, 2)
    state = random_cp_state(lay, np.random.default_rng(42))
    before = cp_to_dense_state(state)
    after = apply_gate(state, gate, lay)
    np.testing.assert_allclose(cp_to_dense_state(after),
                               dense_apply(before, 4, gate),
                               rtol=1e-12, atol=1e-12)


def test_apply_gate_three_modes():
    lay = QubitLayout(6, 3, 2)
    rng = np.random.default_rng(3)
    state = random_cp_state(lay, rng)
    for gate in (GateOp("cphase", 4, 0, 0.31), GateOp("cphase", 1, 5, 0.52)):
        got = apply_gate(state, gate, lay)
        np.testing.assert_allclose(cp_to_dense_state(got),
                                   dense_apply(cp_to_dense_state(state), 6, gate),
                                   rtol=1e-12, atol=1e-12)


def test_full_circuit_gate_by_gate_dense():
    # every intermediate state of the d=4 circuit tracks the dense reference
    lay = square_layout(4)
    state = random_product_state(lay, np.random.default_rng(7))
    psi = cp_to_dense_state(state)
    for gate in qft_circuit(4):
        state = apply_gate(state, gate, lay)
        psi = dense_apply(psi, 4, gate)
        np.testing.assert_allclose(cp_to_dense_state(state), psi,
                                   rtol=1e-11, atol=1e-12)


def test_reverse_equals_swap_network():
    for d, p, q in ((4, 2, 2), (6, 3, 2), (9, 3, 3)):
        lay = QubitLayout(d, p, q)
        state = random_cp_state(lay, np.random.default_rng(d))
        relabeled = reverse_qubit_order(state, lay)
        swapped = cp_to_dense_state(state)
        for a in range(d // 2):
            swapped = dense_apply(swapped, d, GateOp("swap", a, d - 1 - a))
        np.testing.assert_allclose(cp_to_dense_state(relabeled), swapped,
                                   rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("kind", ["swap", "x"])
def test_apply_gate_rejects_unknown_kind(kind):
    lay = QubitLayout(4, 2, 2)
    state = random_cp_state(lay, np.random.default_rng(1))
    with pytest.raises(ValueError, match="unknown gate kind"):
        apply_gate(state, GateOp(kind, 0, 3), lay)


@pytest.mark.parametrize("d,p,q", [(4, 2, 2), (6, 2, 3), (6, 3, 2), (9, 3, 3)])
def test_run_qft_matches_fft(d, p, q):
    lay = QubitLayout(d, p, q)
    state = random_product_state(lay, np.random.default_rng(100 + d))
    psi0 = cp_to_dense_state(state)
    out = run_qft(state, lay)
    ref = np.fft.ifft(psi0) * np.sqrt(1 << d)
    np.testing.assert_allclose(statevector(out), ref, atol=1e-12)


def test_rank_stays_bounded_without_recompression():
    # cross-mode-controlled targets are the only source of rank growth
    lay = square_layout(9)
    state = random_product_state(lay, np.random.default_rng(0))
    out = run_qft(state, lay)
    assert out.rank <= 64


def test_rank_cap_is_enforced():
    lay = square_layout(9)
    state = random_product_state(lay, np.random.default_rng(1))
    out = run_qft(state, lay, rank_cap=8)
    assert out.rank <= 8


def test_random_product_state_normalized():
    lay = square_layout(9)
    state = random_product_state(lay, np.random.default_rng(5))
    assert state.rank == 1
    assert cp.frob_norm(state) == pytest.approx(1.0, rel=1e-12)


def test_qft_reference_formula():
    psi = np.random.default_rng(9).standard_normal(16) * 1j
    np.testing.assert_allclose(qft.qft_reference(psi),
                               np.sqrt(16) * np.fft.ifft(psi), rtol=1e-14)


def test_simulate_and_measure_against_dense():
    res = simulate_and_measure(4, init_seed=11, k=3)
    lay = square_layout(4)
    state = random_product_state(lay, np.random.default_rng(11))
    ref = np.fft.ifft(cp_to_dense_state(state)) * 4.0
    mags = np.abs(ref)
    best = int(np.argmax(mags))
    got_lin = int("".join(res.bitstrings[0]), 2)
    assert got_lin == best
    assert res.magnitudes[0] == pytest.approx(mags[best], rel=1e-12)
    # the initial state is the seed's product state, magnitudes are exact
    # entries of the transformed state, and bitstrings track indices
    for fg, fw in zip(res.initial_state.factors, state.factors):
        assert fg.tobytes() == fw.tobytes()
    exact = np.abs(cp.elements_at(res.state, res.indices))
    assert res.magnitudes.tobytes() == exact.tobytes()
    for row, bits in zip(res.indices, res.bitstrings):
        assert len(bits) == 4
        assert int(bits, 2) == int(np.ravel_multi_index(tuple(row), lay.dims()))


def _reference_scale_rows(state, mode, diag):
    out = list(state.factors)
    out[mode] = state.factors[mode] * diag[:, None]
    return cp.CpTensor(out)


def reference_cross_cphase(state, gate, lay):
    """The two-branch cross-mode controlled phase: project, phase, add, drop."""
    q = lay.per_mode
    cmode, tmode = lay.mode_of(gate.a), lay.mode_of(gate.b)
    cbit = qft._bit_mask(q, lay.pos_of(gate.a))
    tbit = qft._bit_mask(q, lay.pos_of(gate.b))
    zero = _reference_scale_rows(state, cmode, (cbit == 0).astype(np.complex128))
    one = _reference_scale_rows(state, cmode, (cbit == 1).astype(np.complex128))
    one = _reference_scale_rows(one, tmode,
                                np.where(tbit == 1, np.exp(1j * gate.theta), 1.0 + 0j))
    return cp.drop_zero_columns(cp.add(zero, one))


def assert_bit_equal(got, want):
    assert got.rank == want.rank
    assert got.dims == want.dims
    for fg, fw in zip(got.factors, want.factors):
        assert fg.dtype == fw.dtype
        assert fg.tobytes() == fw.tobytes()


@pytest.mark.parametrize("d,p,q", [(4, 2, 2), (9, 3, 3), (16, 4, 4), (6, 3, 2), (6, 2, 3)])
def test_gate_path_matches_two_branch_reference(d, p, q):
    lay = QubitLayout(d, p, q)
    psi0 = random_product_state(lay, np.random.default_rng(200 + d + p))
    state = psi0
    crossed = 0
    for gate in qft_circuit(d):
        got = apply_gate(state, gate, lay)
        if gate.kind == "cphase" and lay.mode_of(gate.a) != lay.mode_of(gate.b):
            assert_bit_equal(got, reference_cross_cphase(state, gate, lay))
            crossed += 1
        state = got
    assert crossed > 0
    assert_bit_equal(run_qft(psi0, lay), reverse_qubit_order(state, lay))


@pytest.mark.parametrize("gate", [GateOp("cphase", 2, 0, 0.9), GateOp("cphase", 0, 3, 0.4)])
def test_cross_cphase_drops_zero_branches(gate):
    # control columns supported on one control value lose the other branch;
    # an all-zero control factor collapses to a rank-one zero tensor
    lay = QubitLayout(4, 2, 2)
    state = random_cp_state(lay, np.random.default_rng(8), rank=4)
    cmode = lay.mode_of(gate.a)
    cbit = qft._bit_mask(lay.per_mode, lay.pos_of(gate.a))
    factors = [np.array(f) for f in state.factors]
    factors[cmode][cbit == 1, 0] = 0.0
    factors[cmode][cbit == 0, 1] = 0.0
    factors[cmode][:, 2] = 0.0
    for case in (factors, [np.zeros_like(f) if m == cmode else f
                           for m, f in enumerate(factors)]):
        state = cp.CpTensor(case)
        got = apply_gate(state, gate, lay)
        assert_bit_equal(got, reference_cross_cphase(state, gate, lay))
    assert got.rank == 1


def _edge_case_factors(case, factors, cmode, tmode, cbit):
    """Edit a state's control and target factors in place for one edge case."""
    ctrl, target = factors[cmode], factors[tmode]
    if case == "signed_zeros":
        # +-0.0 in either part of scattered entries of both factors, and
        # control columns whose cbit == 1 rows (column 1) or cbit == 0 rows
        # (column 2) are signed zeros only
        for f in (ctrl, target):
            f.real[::2, 0] = -0.0
            f.imag[1::2, 0] = -0.0
            f.real[0, 3] = 0.0
            f.imag[0, 3] = -0.0
        ctrl[cbit == 1, 1] = complex(-0.0, 0.0)
        ctrl.imag[cbit == 1, 1] = -0.0
        ctrl[cbit == 0, 2] = complex(0.0, -0.0)
        ctrl.real[cbit == 0, 2] = -0.0
    elif case == "empty_keep0":
        ctrl[cbit == 0] = 0.0
    elif case == "empty_keep1":
        ctrl.real[cbit == 1] = -0.0
        ctrl.imag[cbit == 1] = 0.0
    else:  # the all-zero control factor
        ctrl[:] = 0.0
        ctrl.real[::2] = -0.0


@pytest.mark.parametrize("case", ["signed_zeros", "empty_keep0", "empty_keep1", "all_zero"])
@pytest.mark.parametrize("gate", [GateOp("cphase", 4, 0, 0.31), GateOp("cphase", 1, 5, 0.52)])
def test_cross_cphase_edge_cases_match_two_branch_reference(case, gate):
    lay = QubitLayout(6, 3, 2)
    state = random_cp_state(lay, np.random.default_rng(12), rank=5)
    cmode, tmode = lay.mode_of(gate.a), lay.mode_of(gate.b)
    cbit = qft._bit_mask(lay.per_mode, lay.pos_of(gate.a))
    factors = [np.array(f) for f in state.factors]
    _edge_case_factors(case, factors, cmode, tmode, cbit)
    state = cp.CpTensor(factors)
    got = apply_gate(state, gate, lay)
    assert_bit_equal(got, reference_cross_cphase(state, gate, lay))
    expected_rank = {"signed_zeros": 8, "empty_keep0": 5, "empty_keep1": 5, "all_zero": 1}
    assert got.rank == expected_rank[case]
