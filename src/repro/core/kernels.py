"""Vectorised placement-scoring kernels for the predictive policies.

The per-candidate Python loop in :class:`~repro.core.coupling_predictor.
CouplingPredictor` dominated placement cost: for every candidate socket
it predicted the job's power draw, walked the candidate's downwind chain
(a Python-level scan over ``downwind_of``/``influence_on``), and ran two
frequency-selection passes per busy victim.  This module batches all of
that into a handful of numpy calls while reproducing the scalar path
bit for bit:

- :func:`~repro.core.prediction.predict_job_powers` evaluates the job's
  power draw on every candidate at once (the per-element float op order
  matches :func:`~repro.core.prediction.predicted_job_power` exactly).
- :class:`PlacementKernel` flattens each topology's downwind chains into
  contiguous arrays once (``downwind_of`` is a static property of the
  uni-directional airflow ladder), gathers every (candidate, victim)
  pair in one shot, and pushes the whole batch through a single
  :func:`~repro.sim.power_manager.select_frequencies_steady` call.
- The victims' *current* steady-state frequencies depend only on
  per-socket state that is frozen for the duration of one engine step
  (temperatures, utilisation, running-job power curves), so the kernel
  memoises them per step: the cache is keyed on ``view.time_s``,
  extended lazily for sockets that become busy mid-step (the Placer
  drain only ever flips sockets idle -> busy), and dropped whenever the
  timestamp moves or the scheduler is reset.  This is the incremental
  half of the optimisation: with D downwind sockets per candidate and
  N candidates, the per-placement cost of the "now" side drops from
  O(N * D) frequency selections to O(N) amortised.

Bit-identity notes (the kernel must fingerprint-match the scalar path):

- ``select_frequencies_steady`` is elementwise per column, so batching
  victims from different candidates into one flat call yields the same
  bits as N small calls.
- numpy's pairwise summation splits depend on array length, so the
  final per-candidate ``(losses * busy_ema).sum()`` reduction is done
  per contiguous segment with ``ndarray.sum()`` — never with
  ``reduceat``/axis tricks, which change the reduction tree.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from ..sim.power_manager import select_frequencies_steady

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..server.topology import ServerTopology
    from ..sim.view import SchedulerView


class PlacementKernel:
    """Batched downwind-slowdown evaluation for one topology.

    The kernel owns two kinds of state with different lifetimes:

    - *Topology-static* flattened downwind chains (``_down_flat`` /
      ``_down_offsets`` / ``_down_counts``), valid for the lifetime of
      the :class:`~repro.server.topology.ServerTopology` instance.
    - A *per-step* cache of each busy socket's current steady-state
      frequency, keyed on ``view.time_s``.  Callers must
      :meth:`invalidate` it whenever per-socket state may have changed
      outside the normal step cadence (scheduler reset / engine reuse).
    """

    def __init__(self, topology: "ServerTopology") -> None:
        self.topology = topology
        coupling = topology.coupling
        n = topology.n_sockets
        chains = [coupling.downwind_of(s) for s in range(n)]
        counts = np.array([c.size for c in chains], dtype=np.intp)
        offsets = np.zeros(n, dtype=np.intp)
        if n > 1:
            np.cumsum(counts[:-1], out=offsets[1:])
        self._down_counts = counts
        self._down_offsets = offsets
        self._down_flat = (
            np.concatenate(chains)
            if n
            else np.empty(0, dtype=np.intp)
        )
        #: Read-only (victim, source) coupling-weight matrix.
        self._weights = coupling.matrix
        self._freq_now = np.zeros(n)
        self._freq_valid = np.zeros(n, dtype=bool)
        self._cache_time: Optional[float] = None

    def invalidate(self) -> None:
        """Drop the per-step frequency cache (run start / state reset)."""
        self._cache_time = None
        self._freq_valid[:] = False

    def downwind_losses(
        self,
        view: "SchedulerView",
        candidates: np.ndarray,
        job_powers: np.ndarray,
    ) -> np.ndarray:
        """Predicted downwind frequency loss (MHz) per candidate.

        Bit-identical to calling :func:`~repro.core.
        prediction.predict_downwind_slowdown` once per candidate with
        the matching ``job_powers`` entry.
        """
        candidates = np.asarray(candidates)
        n_c = candidates.size
        out = np.zeros(n_c)
        counts = self._down_counts[candidates]
        total = int(counts.sum())
        if total == 0:
            return out

        # Flatten every (candidate, victim) pair.  Segment order is
        # candidate order; within a segment, victims appear in the same
        # ascending-id order the scalar scan uses.
        seg = np.repeat(np.arange(n_c), counts)
        starts = np.cumsum(counts) - counts
        pos = np.arange(total) - np.repeat(starts, counts)
        victims = self._down_flat[
            self._down_offsets[candidates][seg] + pos
        ]

        # Idle victims contribute nothing (gated, future work unknown).
        busy_pair = np.asarray(view.busy[victims])
        if not busy_pair.any():
            return out
        victims = victims[busy_pair]
        seg = seg[busy_pair]

        freq_now = self._ensure_freq_now(view, victims)[victims]

        topology = self.topology
        heat_delta = job_powers - topology.gated_power_array[candidates]
        pair_cands = candidates[seg]
        weights = self._weights[victims, pair_cands]
        ambient_delta = weights * heat_delta[seg]

        freq_later = select_frequencies_steady(
            ambient_c=view.ambient_c[victims] + ambient_delta,
            chip_c=view.chip_c[victims],
            dyn_max_w=view.dyn_max_w[victims],
            dyn_exp=view.dyn_exp[victims],
            tdp_w=topology.tdp_array[victims],
            r_ext=topology.r_ext_array[victims],
            theta_offset=topology.theta_offset_array[victims],
            theta_slope=topology.theta_slope_array[victims],
            ladder=view.ladder,
            params=view.params,
        )
        losses = np.maximum(freq_now - freq_later, 0.0)
        weighted = losses * view.busy_ema[victims]

        # Per-candidate reduction over contiguous segments.  Each slice
        # is the exact array the scalar path would have summed, so
        # ndarray.sum() reproduces its pairwise reduction tree.
        seg_counts = np.bincount(seg, minlength=n_c)
        stops = np.cumsum(seg_counts)
        for i in range(n_c):
            if seg_counts[i]:
                out[i] = weighted[stops[i] - seg_counts[i] : stops[i]].sum()
        return out

    def _ensure_freq_now(
        self, view: "SchedulerView", victims: np.ndarray
    ) -> np.ndarray:
        """Return the freq-now cache, filled for every id in ``victims``.

        The cache is valid for one engine timestamp: between two thermal
        updates the victims' temperatures, utilisation EMA, and power
        curves are frozen, and placement decisions only flip sockets
        idle -> busy (which extends, never stales, the valid set).
        """
        if self._cache_time != view.time_s:
            self._cache_time = view.time_s
            self._freq_valid[:] = False
        need = np.zeros_like(self._freq_valid)
        need[victims] = True
        need &= ~self._freq_valid
        if need.any():
            ids = np.nonzero(need)[0]
            topology = self.topology
            self._freq_now[ids] = select_frequencies_steady(
                ambient_c=view.ambient_c[ids],
                chip_c=view.chip_c[ids],
                dyn_max_w=view.dyn_max_w[ids],
                dyn_exp=view.dyn_exp[ids],
                tdp_w=topology.tdp_array[ids],
                r_ext=topology.r_ext_array[ids],
                theta_offset=topology.theta_offset_array[ids],
                theta_slope=topology.theta_slope_array[ids],
                ladder=view.ladder,
                params=view.params,
            )
            self._freq_valid[ids] = True
        return self._freq_now
