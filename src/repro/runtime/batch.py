"""Vectorised batch engine: advance ``B`` independent networks at once.

The sequential :class:`~repro.snn.network.SNNNetwork` drives one network
per Python loop iteration, so a seed sweep of the 80-20 workload or a
multi-puzzle Sudoku solve-rate run pays the NumPy dispatch overhead of
every small array operation ``B`` times per step.  :class:`BatchedNetwork`
stacks the state of ``B`` *compatible* networks into ``(B, N)`` arrays and
advances all of them in one fused update per step, amortising that
overhead across the whole batch.

Two operating points are supported, selected by ``synapse_mode``:

``"exact"`` (default)
    The batched run is **bit-exact** with ``B`` sequential
    ``SNNNetwork.run`` calls — bit-identical spike rasters for the
    fixed-point backend and bit-identical float64 trajectories for the
    reference backend.  Whenever every synaptic weight is exactly
    representable in Q15.16 (the WTA constraint networks, whose weights
    are small integers), propagation runs through the **integer CSR
    kernel**: the weights are quantised to raw ``int64`` once at stack
    time and one batched gather + segmented integer reduction delivers
    the synaptic current of all ``B`` replicas at once.  Integer adds
    commute, and the float64 column sums of such weights are exact, so
    the fused reduction is bit-identical to the sequential per-replica
    propagation *by construction* — this path is the default for every
    batch that qualifies.  Non-representable weights (e.g. the 80-20
    network's random weights) fall back to the per-replica propagation
    with the identical sequential expressions.

``"fused"``
    Synaptic propagation is vectorised across the batch even when the
    integer path does not apply (a float gather + segmented reduction
    over the stacked weight matrices).  Floating-point summation order
    then differs from the sequential column reduction, so results are
    numerically equivalent (same distribution, ULP-level differences in
    the synaptic current) but not guaranteed bit-identical.  This is the
    high-throughput mode used by the 80-20 seed-sweep benchmarks,
    typically combined with a ``batched_external`` provider.  Batches
    that qualify for the integer kernel use it here too (in which case
    fused *is* bit-exact).

On top of the propagation kernel the fixed-point step feeds the raw
integer synaptic sum straight into the Q15.16 accumulator: instead of
converting the integer sum to float, adding it to the drive current and
re-quantising, the drive current is scaled once and the raw sum added in
the integer domain (``round(base * 2^16 + S_raw)``), which is provably
bit-identical to the sequential ``quantize(base + S_raw / 2^16)`` (scaling
by a power of two commutes with float rounding) while skipping the float
round-trip through :func:`_quantize_q15_16`.  In ``"decay"`` current mode
the engine additionally carries the quantised current as raw integer
state across steps, so the per-step re-quantisation of the float current
disappears entirely.

Batches shrink: :meth:`BatchedNetwork.retain` drops replicas (e.g. solver
instances that already converged) from the live state and connectivity
views, so late steps only advance the survivors — the constraint-solver
batch loop uses this to stop paying for solved instances.  Spike
recording in :meth:`BatchedNetwork.run` goes through a preallocated
bit-packed buffer (one bit per neuron-step) instead of a ``(T, B, N)``
bool cube.

The fixed-point update is fused through :class:`_FixedBatchKernel`, a
scratch-buffer reimplementation of the integer datapath that is
bit-identical to :func:`repro.sim.npu.izhikevich_update_raw` by
construction (integer arithmetic is exact, so reassociating the adds and
reusing buffers cannot change results); ``tests/runtime`` locks the
equivalence down with randomized cross-checks.  The pure-integer regions
carrying that proof are marked ``# reprolint: exact-int`` — reprolint's
RL003 rule (``docs/LINTING.md``) fails the lint on any float literal,
true division or float cast introduced inside them.

Those NumPy stages are the reference and the fallback.  When the native
kernel of :mod:`repro.runtime._native` loads, a fixed-point batch on the
raw-integer feed with a ``shared``, ``flat`` or no-synapse layout runs
the whole step — gather, decay, quantisation and every substep — as one
C call instead (bit-identical; ``docs/RUNTIME.md`` covers the build).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..fixedpoint import Q7_8, Q15_16
from ..sim.dcu import SHIFT_SELECTIONS
from ..sim.npu import _COEFF_004_Q4_11, _CONST_140_ACC, _VTH_RAW
from ..snn.analysis import SpikeRaster
from ..snn.fixed_izhikevich import FixedPointPopulation, decay_current_raw
from ..snn.izhikevich import IzhikevichPopulation, euler_step
from ..snn.network import SNNNetwork
from ..snn.synapse import DenseSynapses, SparseSynapses

__all__ = ["BatchedNetwork", "BatchIncompatibleError"]

#: Signature of a batched external-input provider: ``f(step) -> (B, N)``.
BatchedInputProvider = Callable[[int], np.ndarray]

_Q7_8_MIN, _Q7_8_MAX = Q7_8.raw_min, Q7_8.raw_max
_Q15_16_MIN, _Q15_16_MAX = Q15_16.raw_min, Q15_16.raw_max
# NumPy-scalar clip bounds: saves the per-call Python-int -> dtype
# inspection inside np.clip on the hot substep path.
_Q7_8_MIN_I, _Q7_8_MAX_I = np.int64(_Q7_8_MIN), np.int64(_Q7_8_MAX)
_Q15_16_MIN_I, _Q15_16_MAX_I = np.int64(_Q15_16_MIN), np.int64(_Q15_16_MAX)

# The clip ufunc without np.clip's four Python wrapper frames — worth
# several microseconds per call on the substep hot path.  Falls back to
# the public wrapper if NumPy moves the internal namespace again.
try:  # pragma: no cover - depends on the installed NumPy
    _clip = np._core.umath.clip
except AttributeError:  # pragma: no cover
    _clip = np.clip
_ACC_FROM_Q7_8 = 16 - Q7_8.frac_bits  # promote Q7.8 raw to the Q?.16 accumulator
_BV_SHIFT = 11 + Q7_8.frac_bits - 16  # align b*v (Q4.11 * Q7.8) to 16 frac bits


class BatchIncompatibleError(ValueError):
    """Raised when the networks handed to the batch engine cannot be stacked."""


def _quantize_q15_16(
    values: np.ndarray, out: np.ndarray, scratch: Optional[np.ndarray] = None
) -> np.ndarray:
    """Fused ``Q15_16.from_float`` (NEAREST / SATURATE) into ``out`` (int64).

    Bit-identical to :meth:`repro.fixedpoint.QFormat.from_float` with the
    default rounding and overflow modes: round-to-nearest with ties away
    from zero is computed as ``copysign(floor(|x| + 0.5), x)``, which
    matches the reference's ``floor(x + 0.5) / ceil(x - 0.5)`` split for
    every representable input.
    """
    if scratch is None:
        scratch = np.empty_like(values)
    np.multiply(values, 65536.0, out=scratch)
    np.abs(scratch, out=scratch)
    scratch += 0.5
    np.floor(scratch, out=scratch)
    np.copysign(scratch, values, out=scratch)  # values carries the sign (scale > 0)
    np.copyto(out, scratch, casting="unsafe")
    np.maximum(out, _Q15_16_MIN, out=out)
    np.minimum(out, _Q15_16_MAX, out=out)
    return out


# reprolint: exact-int -- pure int64 shift network (decay path)
def _decay_raw_inplace(
    isyn_raw: np.ndarray, tau_select: int, h_shift: int, delta: np.ndarray, tmp: np.ndarray
) -> np.ndarray:
    """In-place scratch-buffer twin of :func:`decay_current_raw`.

    Same integer shift-add network (``I - (approx(I / tau) >> h)`` with
    Q15.16 saturation), minus the per-step temporaries — integer ops are
    exact, so reusing buffers cannot change the result.
    """
    shifts = SHIFT_SELECTIONS[tau_select]
    np.right_shift(isyn_raw, shifts[0], out=delta)
    for shift in shifts[1:]:
        np.right_shift(isyn_raw, shift, out=tmp)
        delta += tmp
    np.right_shift(delta, h_shift, out=delta)
    isyn_raw -= delta
    _clip(isyn_raw, _Q15_16_MIN_I, _Q15_16_MAX_I, isyn_raw)
    return isyn_raw


def _quantize_scaled_q15_16(z: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Quantise pre-scaled current ``z = base * 2^16 + S_raw`` into ``out``.

    Bit-identical to ``_quantize_q15_16(base + S_raw / 2^16, out)``:
    multiplying a float64 by the exact power of two ``2^16`` commutes with
    rounding, so ``fl(base + S/2^16) * 2^16 == fl(base * 2^16 + S)`` and
    the round-to-nearest-away step sees the same value either way.  This
    is what lets the integer synapse kernel feed its raw sum straight
    into the accumulator without a float round-trip.  Saturation happens
    on the float side (the bounds are exactly representable), which also
    keeps enormous inputs away from undefined float->int casts.
    """
    np.abs(z, out=scratch)
    scratch += 0.5
    np.floor(scratch, out=scratch)
    np.copysign(scratch, z, out=scratch)
    np.clip(scratch, float(_Q15_16_MIN), float(_Q15_16_MAX), out=scratch)
    np.copyto(out, scratch, casting="unsafe")
    return out


# reprolint: exact-int -- fixed-point Izhikevich substep, all-int64
class _FixedBatchKernel:
    """Scratch-buffer fixed-point Izhikevich substep over ``(B, N)`` state.

    Bit-identical to :func:`repro.sim.npu.izhikevich_update_raw`; the only
    differences are preallocated temporaries and in-place NumPy ops, which
    are exact for integer arithmetic.
    """

    def __init__(
        self,
        a_raw: np.ndarray,
        b_raw: np.ndarray,
        c_raw: np.ndarray,
        d_raw: np.ndarray,
        *,
        h_shift: int,
        pin_voltage: bool,
    ) -> None:
        self.a = a_raw
        self.b = b_raw
        self.c = c_raw
        self.d_q78 = d_raw >> (11 - Q7_8.frac_bits)
        self.h_shift = h_shift
        self.pin_voltage = pin_voltage
        self._alloc_scratch(a_raw.shape)

    def _alloc_scratch(self, shape: tuple) -> None:
        self._v_acc = np.empty(shape, dtype=np.int64)
        self._u_acc = np.empty(shape, dtype=np.int64)
        self._dv = np.empty(shape, dtype=np.int64)
        self._du = np.empty(shape, dtype=np.int64)
        self._u_sp = np.empty(shape, dtype=np.int64)
        self._spike = np.empty(shape, dtype=bool)

    def retain(self, keep: np.ndarray) -> None:
        """Drop all replica rows not listed in ``keep``."""
        self.a = self.a[keep]
        self.b = self.b[keep]
        self.c = self.c[keep]
        self.d_q78 = self.d_q78[keep]
        self._alloc_scratch(self.a.shape)

    def extend(
        self, a_raw: np.ndarray, b_raw: np.ndarray, c_raw: np.ndarray, d_raw: np.ndarray
    ) -> None:
        """Append replica rows (raw parameter arrays, one row per replica)."""
        self.a = np.concatenate([self.a, a_raw])
        self.b = np.concatenate([self.b, b_raw])
        self.c = np.concatenate([self.c, c_raw])
        self.d_q78 = np.concatenate([self.d_q78, d_raw >> (11 - Q7_8.frac_bits)])
        self._alloc_scratch(self.a.shape)

    def substep(self, v: np.ndarray, u: np.ndarray, isyn_raw: np.ndarray) -> np.ndarray:
        """Advance ``(v, u)`` in place by one NPU timestep; returns spikes."""
        v_acc, u_acc, dv, du = self._v_acc, self._u_acc, self._dv, self._du
        np.left_shift(v, _ACC_FROM_Q7_8, out=v_acc)
        np.left_shift(u, _ACC_FROM_Q7_8, out=u_acc)

        # dv = ((0.04 v^2 + 5 v + 140 - u + Isyn)) >> h
        np.multiply(v, v, out=dv)
        dv *= _COEFF_004_Q4_11
        np.right_shift(dv, 11, out=dv)
        np.multiply(v_acc, 5, out=du)  # reuse du as a temporary for 5*v_acc
        dv += du
        dv += _CONST_140_ACC
        dv -= u_acc
        dv += isyn_raw
        np.right_shift(dv, self.h_shift, out=dv)

        # du = (a (b v - u)) >> h — the two narrowing shifts (>> 11, >> h)
        # collapse into one arithmetic shift, which is bit-identical.
        np.multiply(self.b, v, out=du)
        np.right_shift(du, _BV_SHIFT, out=du)
        du -= u_acc
        du *= self.a
        np.right_shift(du, 11 + self.h_shift, out=du)

        v_acc += dv
        np.right_shift(v_acc, _ACC_FROM_Q7_8, out=v_acc)
        _clip(v_acc, _Q7_8_MIN_I, _Q7_8_MAX_I, v_acc)
        u_acc += du
        np.right_shift(u_acc, _ACC_FROM_Q7_8, out=u_acc)
        _clip(u_acc, _Q7_8_MIN_I, _Q7_8_MAX_I, u_acc)

        spike = self._spike
        np.greater_equal(v_acc, _VTH_RAW, out=spike)
        np.copyto(v, v_acc)
        np.copyto(u, u_acc)
        if spike.any():
            # Reset only when something fired; quiet substeps (the common
            # case in settled WTA phases) skip the whole spike datapath.
            u_sp = self._u_sp
            np.add(u_acc, self.d_q78, out=u_sp)
            _clip(u_sp, _Q7_8_MIN_I, _Q7_8_MAX_I, u_sp)
            np.copyto(v, self.c, where=spike)
            np.copyto(u, u_sp, where=spike)
        if self.pin_voltage:
            np.maximum(v, self.c, out=v)
        return spike


class _SynapseBatch:
    """Batched synaptic propagation over stacked connectivity.

    Three engines, picked at stack time:

    * **integer** (``self.integer``): every weight is exactly
      representable in Q15.16, so the weights live as raw ``int64`` and
      :meth:`propagate_raw` performs one batched CSR gather + segmented
      integer reduction for the whole batch.  Exact in any summation
      order, hence bit-identical to the sequential propagation.
    * **per-replica float** (``mode == "exact"`` without the integer
      path): the sequential ``Synapses.propagate`` expressions, one
      replica at a time.
    * **fused float** (``mode == "fused"`` without the integer path):
      vectorised float gather over stacked weights; reassociates sums
      (ULP-level differences, no bit guarantee).
    """

    def __init__(
        self,
        networks: Sequence[SNNNetwork],
        mode: str,
        *,
        integer_mode: Optional[bool] = None,
    ) -> None:
        synapses = [net.synapses for net in networks]
        kinds = {type(s) for s in synapses}
        if len(kinds) != 1:
            raise BatchIncompatibleError("all networks must use the same synapse kind")
        self.mode = mode
        self.batch_size = len(networks)
        self.size = networks[0].size
        self._synapses = list(synapses)
        self._none = synapses[0] is None
        self.integer = False
        self._build(integer_mode)
        if integer_mode is True and not self.integer and not self._none:
            raise BatchIncompatibleError(
                "integer propagation requires weights exactly representable in Q15.16"
            )

    def _build(self, integer_mode: Optional[bool]) -> None:
        """(Re)build the stacked structures for the current replica set."""
        batch, size = self.batch_size, self.size
        self._out = np.zeros((batch, size), dtype=np.float64)
        self._raw_out = np.zeros((batch, size), dtype=np.int64)
        self._weight_rows: Optional[np.ndarray] = None
        self._int_weight_rows: Optional[np.ndarray] = None
        self._shared_gather = None  # (indptr, indices, col_counts, data_float)
        self._flat_gather = None  # same, flattened over the (replica, pre) grid
        self._int_kind: Optional[str] = None
        self.integer = False
        if self._none:
            return
        if integer_mode is not False:
            self.integer = self._build_integer()
        if self.integer or self.mode == "exact":
            return
        first = self._synapses[0]
        if isinstance(first, DenseSynapses):
            # Row (b * N + i) holds W_b[:, i]: the outgoing weights of
            # presynaptic neuron i in replica b.  One gather over the
            # firing (replica, neuron) pairs plus a segmented reduction
            # then yields every replica's synaptic current at once.
            stacked = np.stack([np.asarray(s.weights) for s in self._synapses])
            self._weight_rows = np.ascontiguousarray(stacked.transpose(0, 2, 1)).reshape(
                batch * size, size
            )
        elif isinstance(first, SparseSynapses):
            if not all(s.matrix is first.matrix for s in self._synapses[1:]):
                raise BatchIncompatibleError(
                    "fused sparse propagation requires a shared connectivity matrix"
                )
            matrix = first.matrix
            counts = np.diff(matrix.indptr).astype(np.int64)
            self._shared_gather = (
                np.asarray(matrix.indptr, dtype=np.int64),
                np.asarray(matrix.indices, dtype=np.int64),
                counts,
                np.asarray(matrix.data, dtype=np.float64),
                self._uniform_fanout(counts),
            )
        else:  # pragma: no cover - synapse kinds are exhaustive
            raise BatchIncompatibleError(f"unsupported synapse kind {type(first)!r}")

    def _build_integer(self) -> bool:
        """Stack raw Q15.16 weights; ``False`` when quantisation would lose bits."""
        first = self._synapses[0]
        if not hasattr(first, "quantized_q15_16"):
            return False
        if isinstance(first, DenseSynapses):
            quantized = []
            for synapse in self._synapses:
                raw, lossless = synapse.quantized_q15_16()
                if not lossless:
                    return False
                quantized.append(raw)
            stacked = np.stack(quantized)  # (B, post, pre)
            self._int_weight_rows = np.ascontiguousarray(stacked.transpose(0, 2, 1)).reshape(
                self.batch_size * self.size, self.size
            )
            self._int_kind = "dense"
            return True
        if not isinstance(first, SparseSynapses):
            return False
        if all(s.matrix is first.matrix for s in self._synapses[1:]):
            raw, lossless = first.quantized_q15_16()
            if not lossless:
                return False
            matrix = first.matrix
            counts = np.diff(matrix.indptr).astype(np.int64)
            self._shared_gather = (
                np.asarray(matrix.indptr, dtype=np.int64),
                np.asarray(matrix.indices, dtype=np.int64),
                counts,
                # Raw payloads kept as float64 so the bincount reduction
                # skips a cast; every partial sum is an integer below
                # 2^53, hence exact.
                raw.astype(np.float64),
                self._uniform_fanout(counts),
            )
            self._int_kind = "shared"
            return True
        # Independent per-replica connectivity: flatten the B CSC
        # structures over one (B * N)-column grid with globally offset
        # row indices, so a single gather serves the whole batch.
        counts = []
        indices = []
        data = []
        for b, synapse in enumerate(self._synapses):
            raw, lossless = synapse.quantized_q15_16()
            if not lossless:
                return False
            matrix = synapse.matrix
            counts.append(np.diff(matrix.indptr).astype(np.int64))
            indices.append(np.asarray(matrix.indices, dtype=np.int64) + b * self.size)
            data.append(raw.astype(np.float64))
        col_counts = np.concatenate(counts)
        indptr = np.concatenate([[0], np.cumsum(col_counts)])
        self._flat_gather = (
            indptr,
            np.concatenate(indices),
            col_counts,
            np.concatenate(data),
            self._uniform_fanout(col_counts),
        )
        self._int_kind = "flat"
        return True

    # ------------------------------------------------------------------ #
    @staticmethod
    def _uniform_fanout(col_counts: np.ndarray) -> Optional[int]:
        """The constant per-column entry count, or ``None`` if it varies."""
        if col_counts.size and int(col_counts[0]) > 0 and np.all(col_counts == col_counts[0]):
            return int(col_counts[0])
        return None

    # reprolint: exact-int -- integer scatter-add (float64 weights waived in _build_integer)
    def _gather_sum(self, fired: np.ndarray, out_flat: np.ndarray) -> bool:
        """Scatter-add the fired columns' entries into ``out_flat`` (B*N).

        Returns ``False`` when nothing fired (``out_flat`` untouched).
        The accumulation runs through ``np.bincount`` with integer-valued
        float64 weights on the integer path — exact, see ``_build_integer``.
        """
        flat = np.flatnonzero(fired.ravel())
        if flat.size == 0:
            return False
        if self._flat_gather is not None:
            indptr, indices, col_counts, data, uniform = self._flat_gather
            cols = flat
            target_offset = None
        else:
            indptr, indices, col_counts, data, uniform = self._shared_gather
            cols = flat % self.size
            target_offset = (flat // self.size) * self.size
        if uniform is not None:
            # Constant fan-out (the WTA graphs): the expansion collapses
            # to one broadcast add, skipping the cumsum/repeat machinery.
            sel = (indptr[cols][:, None] + np.arange(uniform)).reshape(-1)
            targets = indices[sel]
            if target_offset is not None:
                targets = (targets.reshape(-1, uniform) + target_offset[:, None]).reshape(-1)
        else:
            cnt = col_counts[cols]
            total = int(cnt.sum())
            if total == 0:
                return False
            csum = np.cumsum(cnt)
            offsets = np.repeat(indptr[cols] - (csum - cnt), cnt)
            sel = offsets + np.arange(total)
            targets = indices[sel]
            if target_offset is not None:
                targets = targets + np.repeat(target_offset, cnt)
        sums = np.bincount(targets, weights=data[sel], minlength=out_flat.size)
        np.copyto(out_flat, sums, casting="unsafe")
        return True

    # reprolint: exact-int -- Q15.16 integer propagation path
    def propagate_raw(self, fired: np.ndarray) -> np.ndarray:
        """Raw Q15.16 synaptic current ``(B, N)`` (integer path only)."""
        out = self._raw_out
        if self._none:
            out[:] = 0
            return out
        if self._int_kind == "dense":
            idx = np.flatnonzero(fired.ravel())
            out[:] = 0
            if idx.size:
                rows = self._int_weight_rows[idx]
                counts = fired.sum(axis=1)
                nonempty = counts > 0
                starts = (np.cumsum(counts) - counts)[nonempty]
                out[nonempty] = np.add.reduceat(rows, starts, axis=0)
            return out
        out_flat = out.reshape(-1)
        out_flat[:] = 0
        self._gather_sum(fired, out_flat)
        return out

    def propagate(self, fired: np.ndarray) -> np.ndarray:
        """Synaptic current ``(B, N)`` delivered by the firing mask ``(B, N)``."""
        out = self._out
        if self._none:
            out[:] = 0.0
            return out
        if self.integer:
            raw = self.propagate_raw(fired)
            np.divide(raw, 65536.0, out=out)  # exact: |raw| < 2^53
            return out
        if self.mode == "exact":
            for i, syn in enumerate(self._synapses):
                out[i] = syn.propagate(fired[i])
            return out
        if self._shared_gather is not None:
            out_flat = out.reshape(-1)
            out_flat[:] = 0.0
            self._gather_sum(fired, out_flat)
            return out
        idx = np.flatnonzero(fired.ravel())
        out[:] = 0.0
        if idx.size:
            rows = self._weight_rows[idx]
            counts = fired.sum(axis=1)
            nonempty = counts > 0
            starts = (np.cumsum(counts) - counts)[nonempty]
            out[nonempty] = np.add.reduceat(rows, starts, axis=0)
        return out

    def retain(self, keep: np.ndarray) -> None:
        """Drop all replica rows not listed in ``keep``."""
        self._synapses = [self._synapses[i] for i in keep]
        self.batch_size = len(self._synapses)
        # Rebuild the stacked views for the surviving replicas.  This is
        # called at solver check intervals, not per step, so the rebuild
        # cost is amortised away; shared structures are replica-agnostic
        # and rebuild for free.
        self._build(True if self.integer else False)

    def validate_extend(self, synapses: Sequence[object]) -> None:
        """Raise if :meth:`extend` would refuse — without mutating anything.

        Checks the synapse kind and, when the integer kernel is live,
        that every new weight set quantises losslessly (the kernel must
        not silently fall back to float mid-run: the engine's current
        bookkeeping depends on which path is active).
        """
        first = self._synapses[0] if self._synapses else None
        for synapse in synapses:
            if (synapse is None) != self._none or (
                first is not None and type(synapse) is not type(first)
            ):
                raise BatchIncompatibleError("stacked-in synapse kind differs from the batch")
            if self.integer:
                raw, lossless = synapse.quantized_q15_16()
                if not lossless:
                    raise BatchIncompatibleError(
                        "integer propagation requires weights exactly representable in Q15.16"
                    )

    def extend(self, synapses: Sequence[object]) -> None:
        """Append replica synapse sets and rebuild the stacked structures."""
        self.validate_extend(synapses)
        self._synapses.extend(synapses)
        self.batch_size = len(self._synapses)
        self._build(True if self.integer else False)


class BatchedNetwork:
    """``B`` independent, structurally compatible networks as one unit of work.

    Build with :meth:`from_networks`; the constituent networks must share
    the population kind (all fixed-point or all float64), size, timestep
    configuration, current mode and synapse kind.  The stacked engine owns
    copies of the per-replica state, so the source networks are left
    untouched.

    Parameters
    ----------
    networks:
        The replicas to stack.
    synapse_mode:
        ``"exact"`` (bit-exact with the sequential engine) or ``"fused"``
        (fully vectorised propagation; see the module docstring).
    batched_external:
        Optional ``f(step) -> (B, N)`` provider replacing the per-replica
        ``external_input`` callables.  When given, the per-replica
        providers are ignored (and their RNG streams are not consumed).
        Providers exposing a ``batch_shape`` attribute (the compiled
        drives of :mod:`repro.runtime.drives`) are shape-checked once at
        construction; plain callables are checked on every call.
    integer_csr:
        ``None`` (default) auto-enables the integer propagation kernel
        whenever every weight is exactly representable in Q15.16;
        ``False`` forces the pre-integer float paths (the legacy
        behaviour, kept for benchmarking); ``True`` requires the integer
        kernel and raises :class:`BatchIncompatibleError` if the weights
        do not qualify.
    """

    def __init__(
        self,
        networks: Sequence[SNNNetwork],
        *,
        synapse_mode: str = "exact",
        batched_external: Optional[BatchedInputProvider] = None,
        integer_csr: Optional[bool] = None,
    ) -> None:
        if not networks:
            raise BatchIncompatibleError("cannot batch zero networks")
        if synapse_mode not in ("exact", "fused"):
            raise ValueError(f"unknown synapse mode {synapse_mode!r}")
        sizes = {net.size for net in networks}
        if len(sizes) != 1:
            raise BatchIncompatibleError(f"network sizes differ: {sorted(sizes)}")
        kinds = {net.is_fixed_point for net in networks}
        if len(kinds) != 1:
            raise BatchIncompatibleError("cannot mix fixed-point and float64 populations")
        modes = {(net.current_mode, net.tau_select) for net in networks}
        if len(modes) != 1:
            raise BatchIncompatibleError(f"current modes differ: {sorted(modes)}")

        self.networks = list(networks)
        self.batch_size = len(networks)
        self.size = networks[0].size
        self.synapse_mode = synapse_mode
        self.is_fixed_point = networks[0].is_fixed_point
        self.current_mode, self.tau_select = next(iter(modes))
        self._batched_external = batched_external
        self._ext_validated = False
        self._validate_external_shape()
        self._externals = [net.external_input for net in networks]
        self._synapses = _SynapseBatch(networks, synapse_mode, integer_mode=integer_csr)

        shape = (self.batch_size, self.size)
        # Copy the full per-replica simulation state — including the
        # synaptic-current bookkeeping and last-fired masks — so stacking
        # already-stepped ("warm") networks continues exactly where each
        # sequential engine left off.
        self._last_fired = np.stack(
            [np.asarray(net._last_fired, dtype=bool) for net in networks]
        )
        self._fired = np.zeros(shape, dtype=bool)
        self._current = np.stack(
            [np.asarray(net.current_state.current, dtype=np.float64) for net in networks]
        )
        self._ext = np.zeros(shape, dtype=np.float64)
        self._isyn_raw = np.zeros(shape, dtype=np.int64)
        self._fscratch = np.zeros(shape, dtype=np.float64)
        self._fscratch2 = np.zeros(shape, dtype=np.float64)
        self._iscratch = np.zeros(shape, dtype=np.int64)
        self._iscratch2 = np.zeros(shape, dtype=np.int64)
        self._v_scratch: Optional[np.ndarray] = None
        self._unbind_native()

        pops = [net.population for net in networks]
        if self.is_fixed_point:
            self._init_fixed(pops)
            if self.current_mode == "decay" and self._use_raw_current:
                # Carry the quantised current as raw integer state: the
                # sequential engine re-quantises its float current at the
                # top of every step, and the result is exactly the raw
                # kernel input of the previous step, so the round-trip
                # can be hoisted out of the loop entirely.
                _quantize_q15_16(self._current, self._isyn_raw, self._fscratch)
        else:
            self._init_float(pops)

    # ------------------------------------------------------------------ #
    # Stacking
    # ------------------------------------------------------------------ #
    @classmethod
    def from_networks(
        cls,
        networks: Sequence[SNNNetwork],
        *,
        synapse_mode: str = "exact",
        batched_external: Optional[BatchedInputProvider] = None,
        integer_csr: Optional[bool] = None,
    ) -> "BatchedNetwork":
        """Stack a sequence of compatible :class:`SNNNetwork` instances."""
        return cls(
            networks,
            synapse_mode=synapse_mode,
            batched_external=batched_external,
            integer_csr=integer_csr,
        )

    @property
    def integer_propagation(self) -> bool:
        """``True`` when the integer CSR/dense synapse kernel is active."""
        return self._synapses.integer

    @property
    def _use_raw_current(self) -> bool:
        """Whether the fixed-point step runs on the raw-integer current feed."""
        return self._synapses.integer or self._synapses._none

    def _validate_external_shape(self) -> None:
        provider = self._batched_external
        if provider is None:
            return
        declared = getattr(provider, "batch_shape", None)
        if declared is not None:
            expected = (self.batch_size, self.size)
            if tuple(declared) != expected:
                raise BatchIncompatibleError(
                    f"batched external provider declares shape {tuple(declared)}, "
                    f"expected {expected}"
                )
            self._ext_validated = True

    def _init_fixed(self, pops: Sequence[FixedPointPopulation]) -> None:
        h_shifts = {p.h_shift for p in pops}
        pins = {p.pin_voltage for p in pops}
        if len(h_shifts) != 1 or len(pins) != 1:
            raise BatchIncompatibleError("fixed-point timestep/pin configuration differs")
        self.h_shift = pops[0].h_shift
        self._substeps = pops[0].substeps_per_ms
        self.v_raw = np.stack([p.v_raw for p in pops]).astype(np.int64)
        self.u_raw = np.stack([p.u_raw for p in pops]).astype(np.int64)
        self._kernel = _FixedBatchKernel(
            np.stack([p.a_raw for p in pops]).astype(np.int64),
            np.stack([p.b_raw for p in pops]).astype(np.int64),
            np.stack([p.c_raw for p in pops]).astype(np.int64),
            np.stack([p.d_raw for p in pops]).astype(np.int64),
            h_shift=self.h_shift,
            pin_voltage=pops[0].pin_voltage,
        )

    def _init_float(self, pops: Sequence[IzhikevichPopulation]) -> None:
        substeps = {p.v_substeps for p in pops}
        if len(substeps) != 1:
            raise BatchIncompatibleError("float64 sub-step configuration differs")
        self.h_shift = 1
        self._v_substeps = pops[0].v_substeps
        self.v = np.stack([p.v for p in pops]).astype(np.float64)
        self.u = np.stack([p.u for p in pops]).astype(np.float64)
        self._params = tuple(
            np.stack([getattr(p, name) for p in pops]).astype(np.float64)
            for name in ("a", "b", "c", "d")
        )

    # ------------------------------------------------------------------ #
    # Stepping
    # ------------------------------------------------------------------ #
    def _external(self, step: int) -> np.ndarray:
        if self._batched_external is not None:
            ext = np.asarray(self._batched_external(step), dtype=np.float64)
            # Providers declaring batch_shape were validated once at
            # construction; opaque callables keep the per-step check
            # (a wrong-shaped row would otherwise broadcast silently).
            if not self._ext_validated and ext.shape != self._ext.shape:
                raise ValueError(
                    f"batched external input has shape {ext.shape}, "
                    f"expected {self._ext.shape}"
                )
            return ext
        for i, provider in enumerate(self._externals):
            if provider is None:
                self._ext[i] = 0.0
            else:
                self._ext[i] = np.asarray(provider(step), dtype=np.float64)
        return self._ext

    def _update_current(self, external: np.ndarray, synaptic: np.ndarray) -> np.ndarray:
        # Mirrors CurrentState.update elementwise (hence bit-exact).
        if self.current_mode == "recompute":
            np.add(external, synaptic, out=self._current)
        else:
            raw = _quantize_q15_16(self._current, self._isyn_raw, self._fscratch)
            raw = decay_current_raw(raw, self.tau_select, self.h_shift)
            np.divide(raw, 65536.0, out=self._current)
            self._current += external
            self._current += synaptic
        return self._current

    def _fixed_isyn_raw(self, external: np.ndarray) -> np.ndarray:
        """Kernel input current on the raw-integer feed (no float round-trip).

        Sequential reference, per replica: ``base = decayed + external``
        (or just ``external`` in recompute mode), ``current = base + syn``
        and ``isyn_raw = quantize(current)``.  Here the synaptic term
        arrives as the exact raw integer ``S``, so the quantisation runs
        on ``base * 2^16 + S`` instead — bit-identical (see
        :func:`_quantize_scaled_q15_16`) and one float pass cheaper.
        """
        syn_raw = self._synapses.propagate_raw(self._last_fired)
        z = self._fscratch
        if self.current_mode == "decay":
            raw = _decay_raw_inplace(
                self._isyn_raw, self.tau_select, self.h_shift, self._iscratch, self._iscratch2
            )
            base = self._fscratch2
            np.divide(raw, 65536.0, out=base)  # exact
            base += external
            np.multiply(base, 65536.0, out=z)
        else:
            np.multiply(external, 65536.0, out=z)
        np.add(z, syn_raw, out=z)  # int64 -> float64 conversion is exact here
        return _quantize_scaled_q15_16(z, self._isyn_raw, self._fscratch2)

    # ------------------------------------------------------------------ #
    # Native step kernel (repro.runtime._native)
    # ------------------------------------------------------------------ #
    def _unbind_native(self) -> None:
        """Forget the native binding; the next step rebinds to the new layout."""
        self._native_bound = False
        self._native_call: Optional[Callable[[int, int, int], None]] = None
        self._native_keep: Dict[str, np.ndarray] = {}
        self._native_ptrs: Dict[int, int] = {}
        self._native_ext: tuple = (None, 0)

    def _bind_native(self) -> None:
        """Bind the native step kernel to this batch's layout, if it applies.

        The kernel covers the fixed-point raw-current feed with the
        ``shared``, ``flat`` and no-synapse layouts; the dense integer,
        float and ``integer_csr=False`` paths stay on NumPy, as does
        every batch when the kernel cannot be built or loaded.
        """
        self._native_bound = True
        syn = self._synapses
        if not (self.is_fixed_point and self._use_raw_current) or syn._int_kind == "dense":
            return
        from . import _native  # deferred: importing the engine loads nothing native

        kernel = _native.load_step_kernel()
        if kernel is None:
            return
        none = np.zeros(1, dtype=np.int64)
        gather = syn._flat_gather if syn._flat_gather is not None else syn._shared_gather
        if gather is None:
            layout, indptr, indices, weights = 0, none, none, none
        else:
            indptr, indices, _, data, _ = gather
            layout = 2 if syn._flat_gather is not None else 1
            weights = data.astype(np.int64)  # exact: raw Q15.16 payloads
        decay = self.current_mode == "decay"
        shifts = list(SHIFT_SELECTIONS[self.tau_select]) if decay else []
        pad = 4 - len(shifts)
        ints = {
            "batch": self.batch_size,
            "size": self.size,
            "layout": layout,
            "decay": int(decay),
            "shifts": tuple(shifts + [0] * pad),
            "masks": tuple([-1] * len(shifts) + [0] * pad),
            "h_shift": self.h_shift,
            "substeps": self._substeps,
            "pin": int(self._kernel.pin_voltage),
            "coeff_004": _COEFF_004_Q4_11,
            "const_140": _CONST_140_ACC,
            "bv_shift": _BV_SHIFT,
            "v_th": _VTH_RAW,
            "q78_min": _Q7_8_MIN,
            "q78_max": _Q7_8_MAX,
            "q1516_min": _Q15_16_MIN,
            "q1516_max": _Q15_16_MAX,
        }
        kern = self._kernel
        arrays = {
            "indptr": indptr,
            "indices": indices,
            "weights": weights,
            "v": self.v_raw,
            "u": self.u_raw,
            "a": kern.a,
            "b": kern.b,
            "c": kern.c,
            "d": kern.d_q78,
            "isyn": self._isyn_raw,
            "syn": np.zeros(self.size, dtype=np.int64),
        }
        self._native_call = kernel.bind(ints, arrays)
        self._native_keep = arrays
        # The two engine-owned spike buffers swap roles every step.
        self._native_ptrs = {id(f): f.ctypes.data for f in (self._last_fired, self._fired)}

    def _native_advance(self, call: Callable[[int, int, int], None], external: np.ndarray) -> None:
        """One native step (``_fixed_isyn_raw`` plus every substep) via the bound ``call``."""
        cached, ext_ptr = self._native_ext
        if external is not cached:
            # Drives reuse their output buffer, so the pointer lookup is
            # paid once per buffer (the cache also keeps it alive).
            ext = external
            if ext.shape != self._fired.shape or not ext.flags.c_contiguous:
                ext = np.ascontiguousarray(np.broadcast_to(ext, self._fired.shape))
            ext_ptr = ext.ctypes.data
            self._native_ext = (external, ext_ptr) if ext is external else (None, 0)
        ptrs = self._native_ptrs
        call(ext_ptr, ptrs[id(self._last_fired)], ptrs[id(self._fired)])

    def _advance_population(self, step_index: int) -> np.ndarray:
        external = self._external(step_index)
        fired = self._fired
        if self.is_fixed_point:
            if self._use_raw_current:
                if not self._native_bound:
                    self._bind_native()
                if self._native_call is not None:
                    self._native_advance(self._native_call, external)
                    return fired
                isyn_raw = self._fixed_isyn_raw(external)
            else:
                synaptic = self._synapses.propagate(self._last_fired)
                current = self._update_current(external, synaptic)
                isyn_raw = _quantize_q15_16(current, self._isyn_raw, self._fscratch)
            fired[:] = False
            for _ in range(self._substeps):
                spike = self._kernel.substep(self.v_raw, self.u_raw, isyn_raw)
                np.logical_or(fired, spike, out=fired)
            return fired
        synaptic = self._synapses.propagate(self._last_fired)
        current = self._update_current(external, synaptic)
        a, b, c, d = self._params
        self.v, self.u, fired_f = euler_step(
            self.v, self.u, current, a, b, c, d, dt_ms=1.0, v_substeps=self._v_substeps
        )
        fired[:] = fired_f
        return fired

    def step(self, step_index: int) -> np.ndarray:
        """Advance every replica by one 1 ms step; returns the ``(B, N)`` mask."""
        fired = self._advance_population(step_index)
        # Swap instead of copy: ``fired`` is the engine-owned ``_fired``
        # buffer, fully rewritten by the next advance.
        self._last_fired, self._fired = fired, self._last_fired
        return self._last_fired

    def run(
        self,
        num_steps: int,
        *,
        record: bool = True,
        progress_callback: Optional[Callable[[int, np.ndarray], None]] = None,
        start_step: int = 0,
    ) -> List[SpikeRaster]:
        """Run ``num_steps`` steps; returns one :class:`SpikeRaster` per replica.

        Parameters
        ----------
        record:
            When true, spikes are recorded into a preallocated bit-packed
            buffer (one bit per neuron-step, 8x smaller than the
            historical bool cube) and unpacked into the returned rasters.
            When false, spikes are not stored and empty rasters with
            correct dimensions are returned.
        progress_callback:
            Invoked as ``cb(step, fired)`` with the ``(B, N)`` mask after
            every step.  Shrinking the batch (:meth:`retain`) from inside
            the callback is not supported while recording.
        start_step:
            Value of the first step index passed to the input providers
            (the Sudoku solver counts steps from 1).
        """
        batch_size = self.batch_size
        packed = (
            np.zeros((num_steps, batch_size, (self.size + 7) // 8), dtype=np.uint8)
            if record
            else None
        )
        for t in range(num_steps):
            fired = self.step(start_step + t)
            if packed is not None:
                if self.batch_size != batch_size:
                    raise RuntimeError("batch shrank mid-run while recording spikes")
                packed[t] = np.packbits(fired, axis=-1)
            if progress_callback is not None:
                progress_callback(start_step + t, fired)
        if packed is None:
            return [SpikeRaster.empty(self.size, num_steps) for _ in range(self.batch_size)]
        return [
            SpikeRaster.from_bool_matrix(
                np.unpackbits(packed[:, b, :], axis=1, count=self.size).astype(bool)
            )
            for b in range(batch_size)
        ]

    def reset_currents(self) -> None:
        """Clear the synaptic-current state and the last-fired masks."""
        self._current[:] = 0.0
        self._isyn_raw[:] = 0
        self._last_fired[:] = False

    # ------------------------------------------------------------------ #
    # Checkpointing (repro.runtime.checkpoint)
    # ------------------------------------------------------------------ #
    def _state_descriptor(self) -> dict:
        """The structural identity a snapshot must match to be restored."""
        return {
            "batch_size": int(self.batch_size),
            "size": int(self.size),
            "is_fixed_point": bool(self.is_fixed_point),
            "current_mode": self.current_mode,
            "tau_select": int(self.tau_select),
            "synapse_mode": self.synapse_mode,
            "h_shift": int(self.h_shift),
            "integer": bool(self._synapses.integer),
        }

    def export_state(self) -> dict:
        """A picklable snapshot of the full per-replica simulation state.

        Covers everything the step loop carries between steps: the
        membrane/recovery state (raw Q7.8 integers on the fixed-point
        backend), the float synaptic current, the raw Q15.16 integer
        current feed (``_isyn_raw``) and the last-fired masks, plus a
        structural descriptor so a restore onto a mismatched batch
        fails loudly.  Kernel parameters, connectivity and drive
        providers are *not* serialised — they are pure functions of the
        (graph, config) pairs the restore path rebuilds the batch from.
        """
        state = {
            "descriptor": self._state_descriptor(),
            "last_fired": self._last_fired.copy(),
            "current": self._current.copy(),
            "isyn_raw": self._isyn_raw.copy(),
        }
        if self.is_fixed_point:
            state["v_raw"] = self.v_raw.copy()
            state["u_raw"] = self.u_raw.copy()
        else:
            state["v"] = self.v.copy()
            state["u"] = self.u.copy()
        return state

    def restore_state(self, state: dict) -> None:
        """Overwrite the live per-replica state with an exported snapshot.

        The batch must have been rebuilt to the snapshot's structure
        first (same replica count, backend, current mode and synapse
        engine); any mismatch raises :class:`BatchIncompatibleError`
        before a single array is touched.
        """
        descriptor = dict(state["descriptor"])
        mine = self._state_descriptor()
        if descriptor != mine:
            diff = {
                key: (descriptor.get(key), mine.get(key))
                for key in set(descriptor) | set(mine)
                if descriptor.get(key) != mine.get(key)
            }
            raise BatchIncompatibleError(
                f"checkpoint state does not match the live batch: {diff}"
            )
        names = ["last_fired", "current", "isyn_raw"]
        names += ["v_raw", "u_raw"] if self.is_fixed_point else ["v", "u"]
        arrays = {}
        for name in names:
            target = getattr(self, name if name.startswith(("v", "u")) else f"_{name}")
            arr = np.asarray(state[name], dtype=target.dtype)
            if arr.shape != target.shape:
                raise BatchIncompatibleError(
                    f"checkpoint array {name!r} has shape {arr.shape}, "
                    f"expected {target.shape}"
                )
            arrays[name] = arr
        for name, arr in arrays.items():
            target = getattr(self, name if name.startswith(("v", "u")) else f"_{name}")
            np.copyto(target, arr)
        self._unbind_native()

    # ------------------------------------------------------------------ #
    # Active-set shrinking
    # ------------------------------------------------------------------ #
    def retain(self, keep: Sequence[int]) -> None:
        """Shrink the batch to the replica rows listed in ``keep``.

        ``keep`` must be strictly increasing current row indices.  All
        per-replica state (membrane, recovery, currents, last-fired
        masks, synapse stacks, external providers) is sliced down so
        subsequent steps only advance the surviving replicas; each
        survivor's trajectory is unaffected (replicas are independent).

        **Layering seam.**  Within ``src/repro`` the sanctioned caller
        is :meth:`repro.runtime.slots.SlotEngine.recompose`, which owns
        the retain-before-extend composition order and its edge guards
        for the solver, portfolio and serve layers alike; direct calls
        from outside ``repro/runtime/`` are rejected by reprolint's
        RL001 layering rule (``python -m tools.reprolint``, see
        ``docs/LINTING.md``).
        """
        keep = np.asarray(keep, dtype=np.int64)
        if keep.size == 0:
            raise BatchIncompatibleError("cannot retain an empty batch")
        if np.any(keep < 0) or np.any(keep >= self.batch_size):
            raise IndexError(f"retain indices out of range for batch of {self.batch_size}")
        if np.any(np.diff(keep) <= 0):
            raise ValueError("retain indices must be strictly increasing")
        if keep.size == self.batch_size:
            return
        # Validate everything that can refuse BEFORE mutating any state,
        # so a raise leaves the batch fully usable.
        provider_retain = None
        if self._batched_external is not None:
            provider_retain = getattr(self._batched_external, "retain", None)
            if provider_retain is None:
                raise BatchIncompatibleError(
                    "batched external provider does not support retain(); "
                    "use a compiled drive (repro.runtime.drives) or per-replica providers"
                )
        self.networks = [self.networks[i] for i in keep]
        self.batch_size = int(keep.size)
        self._unbind_native()
        for name in ("_last_fired", "_fired", "_current", "_ext", "_isyn_raw",
                     "_fscratch", "_fscratch2", "_iscratch", "_iscratch2"):
            setattr(self, name, np.ascontiguousarray(getattr(self, name)[keep]))
        self._v_scratch = None
        if self.is_fixed_point:
            self.v_raw = np.ascontiguousarray(self.v_raw[keep])
            self.u_raw = np.ascontiguousarray(self.u_raw[keep])
            self._kernel.retain(keep)
        else:
            self.v = np.ascontiguousarray(self.v[keep])
            self.u = np.ascontiguousarray(self.u[keep])
            self._params = tuple(np.ascontiguousarray(p[keep]) for p in self._params)
        self._synapses.retain(keep)
        self._externals = [self._externals[i] for i in keep]
        if provider_retain is not None:
            provider_retain(keep)
            self._ext_validated = False
            self._validate_external_shape()

    def extend(self, networks: Sequence[SNNNetwork]) -> None:
        """Stack additional replicas into the live batch.

        The inverse of :meth:`retain`: the given (typically freshly
        built) networks are appended as new batch rows, state copied the
        same way construction copies it, so each new replica's trajectory
        is bit-identical to running it standalone from its current state.
        Existing rows are untouched — appending rows cannot change their
        fused updates (replicas are independent).

        The networks must satisfy the same compatibility contract as
        construction (size, population kind, current mode, timestep
        configuration, synapse kind; integer-kernel batches additionally
        require losslessly quantisable weights).  When a
        ``batched_external`` provider is set it must support
        ``extend(networks)`` — the portfolio drive of
        :mod:`repro.runtime.drives` does; compiled drives without it
        refuse.

        **Layering seam.**  As with :meth:`retain`, the sanctioned
        ``src/repro`` caller is
        :meth:`repro.runtime.slots.SlotEngine.recompose` (enforced by
        reprolint rule RL001, ``docs/LINTING.md``); the slot engine uses the pair to
        refill freed batch slots with fresh admissions mid-run.
        """
        if not networks:
            return
        networks = list(networks)
        # Validate everything that can refuse BEFORE mutating any state,
        # mirroring retain(), so a raise leaves the batch fully usable.
        sizes = {net.size for net in networks}
        if sizes != {self.size}:
            raise BatchIncompatibleError(
                f"stacked-in network sizes {sorted(sizes)} differ from batch size {self.size}"
            )
        if {net.is_fixed_point for net in networks} != {self.is_fixed_point}:
            raise BatchIncompatibleError("cannot mix fixed-point and float64 populations")
        if {(net.current_mode, net.tau_select) for net in networks} != {
            (self.current_mode, self.tau_select)
        }:
            raise BatchIncompatibleError("stacked-in current modes differ from the batch")
        pops = [net.population for net in networks]
        if self.is_fixed_point:
            if {p.h_shift for p in pops} != {self.h_shift} or {
                p.pin_voltage for p in pops
            } != {self._kernel.pin_voltage}:
                raise BatchIncompatibleError("fixed-point timestep/pin configuration differs")
        else:
            if {p.v_substeps for p in pops} != {self._v_substeps}:
                raise BatchIncompatibleError("float64 sub-step configuration differs")
        provider_extend = None
        if self._batched_external is not None:
            provider_extend = getattr(self._batched_external, "extend", None)
            if provider_extend is None:
                raise BatchIncompatibleError(
                    "batched external provider does not support extend(); "
                    "use a portfolio drive (repro.runtime.drives) or per-replica providers"
                )
        self._synapses.validate_extend([net.synapses for net in networks])

        raw_decay = self.is_fixed_point and self.current_mode == "decay" and self._use_raw_current
        self._unbind_native()
        self._synapses.extend([net.synapses for net in networks])
        self.networks.extend(networks)
        self._externals.extend(net.external_input for net in networks)
        self.batch_size = len(self.networks)
        shape = (self.batch_size, self.size)

        add_last_fired = np.stack([np.asarray(net._last_fired, dtype=bool) for net in networks])
        add_current = np.stack(
            [np.asarray(net.current_state.current, dtype=np.float64) for net in networks]
        )
        self._last_fired = np.concatenate([self._last_fired, add_last_fired])
        self._current = np.concatenate([self._current, add_current])
        self._fired = np.zeros(shape, dtype=bool)
        self._ext = np.zeros(shape, dtype=np.float64)
        self._fscratch = np.zeros(shape, dtype=np.float64)
        self._fscratch2 = np.zeros(shape, dtype=np.float64)
        self._iscratch = np.zeros(shape, dtype=np.int64)
        self._iscratch2 = np.zeros(shape, dtype=np.int64)
        self._v_scratch = None
        add_isyn_raw = np.zeros(add_current.shape, dtype=np.int64)
        if raw_decay:
            # New rows join the raw-integer current feed exactly as
            # construction seeds it: the quantised float current.
            _quantize_q15_16(add_current, add_isyn_raw, np.empty_like(add_current))
        self._isyn_raw = np.concatenate([self._isyn_raw, add_isyn_raw])

        if self.is_fixed_point:
            self.v_raw = np.concatenate(
                [self.v_raw, np.stack([p.v_raw for p in pops]).astype(np.int64)]
            )
            self.u_raw = np.concatenate(
                [self.u_raw, np.stack([p.u_raw for p in pops]).astype(np.int64)]
            )
            self._kernel.extend(
                np.stack([p.a_raw for p in pops]).astype(np.int64),
                np.stack([p.b_raw for p in pops]).astype(np.int64),
                np.stack([p.c_raw for p in pops]).astype(np.int64),
                np.stack([p.d_raw for p in pops]).astype(np.int64),
            )
        else:
            self.v = np.concatenate([self.v, np.stack([p.v for p in pops]).astype(np.float64)])
            self.u = np.concatenate([self.u, np.stack([p.u for p in pops]).astype(np.float64)])
            self._params = tuple(
                np.concatenate([cur, np.stack([getattr(p, name) for p in pops]).astype(np.float64)])
                for cur, name in zip(self._params, ("a", "b", "c", "d"))
            )
        if provider_extend is not None:
            provider_extend(networks)
            self._ext_validated = False
            self._validate_external_shape()

    # ------------------------------------------------------------------ #
    @property
    def membrane_potentials(self) -> np.ndarray:
        """Float view of the ``(B, N)`` membrane potentials in millivolts.

        The returned array is a reused scratch buffer, overwritten by the
        next access — copy it to persist values across calls.
        """
        if self._v_scratch is None or self._v_scratch.shape != (self.batch_size, self.size):
            self._v_scratch = np.empty((self.batch_size, self.size), dtype=np.float64)
        if self.is_fixed_point:
            np.divide(self.v_raw, float(Q7_8.scale), out=self._v_scratch)
        else:
            np.copyto(self._v_scratch, self.v)
        return self._v_scratch
