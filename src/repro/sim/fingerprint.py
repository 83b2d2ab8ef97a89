"""Content fingerprints of simulation results for bit-identity tests.

The engine's strongest regression oracle is *bit-identity*: a refactor
(or an inert feature such as an empty fault schedule) must reproduce
the exact float trajectory of the run it claims not to change.  This
module condenses one :class:`~repro.sim.results.SimulationResult` into
a SHA-256 digest over every deterministic field — the raw IEEE-754
bytes of each metric array, scalar energies, and the full
``(job_id, socket, start, finish)`` completion record — so two runs
match iff every one of those bits matches.

Excluded from the digest: the trace object (an optional observer) and
the topology/params references (inputs, not outputs).  The fault
summary is included when present, so a faulted run can also be pinned.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .results import SimulationResult


def result_fingerprint(
    result: SimulationResult, include_fault_summary: bool = True
) -> str:
    """SHA-256 hex digest over every deterministic result field.

    Args:
        include_fault_summary: Cover ``result.fault_summary`` when
            present.  The bit-identity oracle comparing an *empty*
            fault schedule against a fault-free run passes ``False``
            here — the empty schedule legitimately attaches an (inert)
            summary, and the claim under test is that the *trajectory*
            is untouched.
    """
    digest = hashlib.sha256()

    def scalar(value: float) -> None:
        digest.update(np.float64(value).tobytes())

    def array(values: np.ndarray) -> None:
        digest.update(np.ascontiguousarray(values, dtype=float).tobytes())

    digest.update(result.scheduler_name.encode())
    scalar(result.energy_j)
    scalar(result.cooling_energy_j)
    scalar(result.mean_airflow_scale)
    scalar(result.measured_span_s)
    digest.update(
        repr(
            (
                result.n_jobs_submitted,
                result.max_queue_length,
                result.n_migrations,
            )
        ).encode()
    )
    array(result.work_done)
    array(result.busy_time_s)
    array(result.freq_time_product)
    array(result.boost_time_s)
    array(result.max_chip_c)
    for job in result.completed_jobs:
        digest.update(repr((job.job_id, job.socket_id)).encode())
        scalar(job.arrival_s)
        scalar(job.start_s)
        scalar(job.finish_s)
    if include_fault_summary and result.fault_summary is not None:
        digest.update(repr(sorted(result.fault_summary.items())).encode())
    return digest.hexdigest()
