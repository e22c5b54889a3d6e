"""Quantum Fourier transform on a grouped-qubit CP state.

d qubits are split into p modes of q qubits each (d = p*q); the statevector
lives as a complex CpTensor over p modes of dimension 2^q.  Qubit a sits at
position a % q of mode a // q, big-endian within the mode and across modes,
so the global basis index of a multi-index (i_0, ..., i_{p-1}) is
sum_mu i_mu * 2^(q*(p-1-mu)).

Single-qubit and same-mode gates are one ttm on the affected mode and leave
the rank alone.  A cross-mode controlled phase is applied exactly as the
projector split (control-0 branch) + (control-1 branch with the phase on the
target mode): the control factor U_c is multiplied by each projector's 0/1
row mask, and every other factor is repeated once per branch.  Control
support rule: a branch keeps rank-one term r exactly when its projected
column of U_c has a nonzero entry; every other term of that branch is zero,
so it is dropped on the spot, which is what keeps repeated splits from
compounding.  The kept columns of both branches are decided from the two
projected control factors alone, and each factor of the result is built by
one column concatenation.

The circuit is Hadamards and controlled phases only.  Its closing swap
network, a full reversal of the qubit order, is `reverse_qubit_order`: an
index relabeling (mode reversal plus a per-mode bit-reversal permutation),
so it never grows the rank.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import cp
from .errors import ShapeMismatchError
from .recompress import recompress
from .solver import OrderingKey, SolverConfig, solve


@dataclass(frozen=True)
class QubitLayout:
    """Grouping of d qubits into p modes of q qubits each."""

    qubits: int
    modes: int
    per_mode: int

    def __post_init__(self):
        if self.qubits != self.modes * self.per_mode:
            raise ShapeMismatchError(
                f"{self.qubits} qubits cannot split into {self.modes} modes "
                f"of {self.per_mode}"
            )
        if self.modes < 1 or self.per_mode < 1:
            raise ShapeMismatchError("modes and qubits per mode must be >= 1")

    @property
    def mode_dim(self):
        return 1 << self.per_mode

    def mode_of(self, qubit):
        return qubit // self.per_mode

    def pos_of(self, qubit):
        return qubit % self.per_mode

    def dims(self):
        return (self.mode_dim,) * self.modes


def square_layout(d):
    """Layout with p = q = sqrt(d) for square qubit counts."""
    root = int(round(np.sqrt(d)))
    if root * root != d:
        raise ShapeMismatchError(f"{d} is not a square qubit count")
    return QubitLayout(d, root, root)


@dataclass(frozen=True)
class GateOp:
    """One circuit operation; qubits are 0-based.

    kind "h": Hadamard on qubit a.  kind "cphase": phase ``theta`` when both
    the control a and target b are 1.
    """

    kind: str
    a: int
    b: int = -1
    theta: float = 0.0


def qft_circuit(d):
    """Gate list of the standard QFT circuit without its closing swaps.

    The swaps reverse the qubit order; `reverse_qubit_order` applies that
    reversal to the state.
    """
    gates = []
    for a in range(d):
        gates.append(GateOp("h", a))
        for b in range(a + 1, d):
            gates.append(GateOp("cphase", b, a, 2.0 * np.pi / (1 << (b - a + 1))))
    return gates


_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)


def _lifted_single(per_mode, pos, gate2):
    """Lift a 2x2 gate at bit position pos (0 = most significant) to 2^q."""
    mat = np.eye(1 << pos)
    mat = np.kron(mat, gate2)
    mat = np.kron(mat, np.eye(1 << (per_mode - 1 - pos)))
    return mat


def _bit_mask(per_mode, pos):
    idx = np.arange(1 << per_mode)
    return (idx >> (per_mode - 1 - pos)) & 1


def _scale_mode_rows(state, mode, diag):
    out = list(state.factors)
    out[mode] = state.factors[mode] * diag[:, None]
    return cp._wrap(out)


def _controlled_phase(state, cmode, tmode, cbit, tdiag):
    """Cross-mode controlled phase by the control support rule.

    Branch b keeps the columns with a nonzero entry among the control
    factor's ``cbit == b`` rows, read from those rows directly.  The
    projected control factor and the phased target factor are then formed
    on the kept columns only.  They are the same elementwise products the
    two-branch sum forms, so the kept entries are bit-identical to it; only
    whole zero terms are left out.
    """
    mask0 = (cbit == 0).astype(np.complex128)
    mask1 = (cbit == 1).astype(np.complex128)
    ctrl = state.factors[cmode]
    keep0 = np.flatnonzero((ctrl[cbit == 0] != 0).any(axis=0))
    keep1 = np.flatnonzero((ctrl[cbit == 1] != 0).any(axis=0))
    if keep0.size + keep1.size == 0:
        return cp.drop_zero_columns(_scale_mode_rows(state, cmode, mask0))
    # take(axis=1) gathers into C order; f[:, cols] would give Fortran order
    cols = np.concatenate((keep0, keep1))
    out = [None if p in (cmode, tmode) else f.take(cols, axis=1)
           for p, f in enumerate(state.factors)]
    out[cmode] = np.concatenate((ctrl.take(keep0, axis=1) * mask0[:, None],
                                 ctrl.take(keep1, axis=1) * mask1[:, None]), axis=1)
    target = state.factors[tmode]
    out[tmode] = np.concatenate(
        (target.take(keep0, axis=1), target.take(keep1, axis=1) * tdiag[:, None]),
        axis=1)
    return cp._wrap(out)


def apply_gate(state, gate, layout):
    """Apply one GateOp to a CP state; exact for both gate kinds."""
    q = layout.per_mode
    if gate.kind == "h":
        mode = layout.mode_of(gate.a)
        return cp.ttm(state, _lifted_single(q, layout.pos_of(gate.a), _HADAMARD), mode)
    if gate.kind == "cphase":
        cmode, tmode = layout.mode_of(gate.a), layout.mode_of(gate.b)
        cbit = _bit_mask(q, layout.pos_of(gate.a))
        tbit = _bit_mask(q, layout.pos_of(gate.b))
        phase = np.exp(1j * gate.theta)
        if cmode == tmode:
            diag = np.where((cbit == 1) & (tbit == 1), phase, 1.0 + 0j)
            return _scale_mode_rows(state, cmode, diag)
        return _controlled_phase(state, cmode, tmode, cbit,
                                 np.where(tbit == 1, phase, 1.0 + 0j))
    raise ValueError(f"unknown gate kind {gate.kind!r}")


def reverse_qubit_order(state, layout):
    """Index relabeling equal to the QFT's closing full-reversal swap network.

    Reverses the mode order and bit-reverses within each mode; rank is
    untouched.
    """
    q = layout.per_mode
    idx = np.arange(1 << q)
    rev = np.zeros_like(idx)
    for pos in range(q):
        rev |= ((idx >> pos) & 1) << (q - 1 - pos)
    out = [None] * layout.modes
    for mu in range(layout.modes):
        out[layout.modes - 1 - mu] = state.factors[mu][rev, :]
    return cp._wrap(out)


def random_product_state(layout, rng):
    """Rank-one state with re, im ~ U(0, 1) amplitudes, unit norm."""
    factors = []
    for _ in range(layout.modes):
        col = rng.uniform(0.0, 1.0, size=(layout.mode_dim, 1)) \
            + 1j * rng.uniform(0.0, 1.0, size=(layout.mode_dim, 1))
        factors.append(col)
    state = cp.CpTensor(factors)
    return cp.scale(state, 1.0 / cp.frob_norm(state))


def run_qft(state, layout, rank_cap=None):
    """Apply the full QFT circuit to a CP state.

    The gates of `qft_circuit` are followed by `reverse_qubit_order`.  When
    rank_cap is set, the state is recompressed whenever its rank passes the
    cap (making amplitudes approximate); with rank_cap=None the result is
    exact.
    """
    for gate in qft_circuit(layout.qubits):
        state = apply_gate(state, gate, layout)
        if rank_cap is not None and state.rank > rank_cap:
            state, _ = recompress(state, rank_cap)
    return reverse_qubit_order(state, layout)


def statevector(state):
    """Dense statevector (global big-endian basis order) of a CP state."""
    return cp.materialize(state).ravel(order="C")


def qft_reference(psi0):
    """Dense QFT of a statevector via the FFT identity (unitary convention)."""
    psi0 = np.asarray(psi0, dtype=np.complex128)
    return np.fft.ifft(psi0) * np.sqrt(psi0.shape[0])


@dataclass
class MeasurementResult:
    """Top amplitudes of ``state``, the QFT of ``initial_state``, largest
    magnitude first; ``bitstrings`` are their d-bit global basis indices."""

    indices: np.ndarray
    magnitudes: np.ndarray
    bitstrings: list
    initial_state: cp.CpTensor
    state: cp.CpTensor


def simulate_and_measure(d, init_seed=0, k=1, extra=5, block_size=2,
                         rank_cap=None):
    """Prepare a random product state, run the QFT, read off the top-k.

    The d qubits use the square layout, and ``init_seed`` seeds the product
    state and the solver.  Measurement is the block-alternating solver under
    the magnitude key, with `SolverConfig`'s default restarts and sweeps.
    """
    layout = square_layout(d)
    initial = random_product_state(layout, np.random.default_rng(init_seed))
    state = run_qft(initial, layout, rank_cap=rank_cap)
    cfg = SolverConfig(k=k, extra=extra, block_size=min(block_size, layout.modes),
                       key=OrderingKey.MAX_ABS, seed=init_seed)
    res = solve(state, cfg)
    basis = np.ravel_multi_index(tuple(res.indices.T), layout.dims())
    return MeasurementResult(
        indices=res.indices,
        magnitudes=np.abs(res.values),
        bitstrings=[format(int(n), f"0{d}b") for n in basis],
        initial_state=initial,
        state=state,
    )
