"""Whole-grid (vectorized) evaluation of the closed-form models.

The figure sweeps in :mod:`repro.analysis.figures` call each closed-form
model once per grid point from a Python loop.  This module evaluates the
same models over *entire grids at once* by routing every k-of-n block
through :func:`repro.core.kofn.a_m_of_n_array` and every conditioning
weight through :func:`repro.core.kofn.binomial_pmf_array`:

* :func:`hw_small_array` / :func:`hw_medium_array` / :func:`hw_large_array`
  — section V closed forms with any subset of the four hardware
  availabilities given as arrays (inputs broadcast);
* :func:`plane_availability_array` / :func:`local_dp_availability_array` —
  the section VI SW-centric closed forms with the process availabilities
  ``A``/``A_S`` given as arrays;
* :func:`fig3_series_vectorized` / :func:`fig4_series_vectorized` /
  :func:`fig5_series_vectorized` — drop-in replacements for the
  :mod:`repro.analysis.figures` generators returning identical
  :class:`~repro.analysis.sweep.SweepResult` objects (the scalar and
  vectorized paths agree to ~1 ulp; tested to 1e-12);
* :func:`sweep_vectorized` — the generic sweep harness for caller-supplied
  array evaluators;
* :func:`segment_sums` — ragged-segment sums over the last axis, which
  the batched network sweeps (:mod:`repro.network.batch`) use to fold
  per-term probabilities into per-switch availabilities.

All array math is elementwise, so a value at one grid point is exactly the
value the same inputs would produce at any other grid position or chunk
size — the property the parallel Monte-Carlo runner relies on.
"""

from __future__ import annotations

import time
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.analysis.sweep import SweepResult, grid
from repro.controller.process import RestartMode
from repro.controller.role import RoleSpec
from repro.controller.spec import ControllerSpec, Plane
from repro.core.kofn import a_m_of_n_array, binomial_pmf_array
from repro.errors import ModelError, ParameterError
from repro.models.hw_closed import PAPER_ROLE_QUORUMS
from repro.models.sw import _plane_required
from repro.obs import runtime as obs
from repro.models.sw_options import PAPER_OPTIONS, parse_option
from repro.params.defaults import FIG3_ROLE_AVAILABILITY_RANGE
from repro.params.hardware import HardwareParams
from repro.params.software import RestartScenario, SoftwareParams

__all__ = [
    "hw_small_array",
    "hw_medium_array",
    "hw_large_array",
    "hw_availability_array",
    "plane_availability_array",
    "local_dp_availability_array",
    "dp_availability_array",
    "fig3_series_vectorized",
    "fig4_series_vectorized",
    "fig5_series_vectorized",
    "sweep_vectorized",
    "segment_sums",
]


# -- ragged-segment reductions -------------------------------------------------


def _check_offsets(offsets: np.ndarray, length: int) -> np.ndarray:
    offsets = np.asarray(offsets, dtype=np.intp)
    if offsets.ndim != 1 or offsets.size < 1:
        raise ParameterError("offsets must be a non-empty 1-D integer array")
    if offsets[0] != 0 or offsets[-1] != length:
        raise ParameterError(
            f"offsets must start at 0 and end at {length}, got "
            f"[{int(offsets[0])}, ..., {int(offsets[-1])}]"
        )
    if np.any(np.diff(offsets) < 0):
        raise ParameterError("offsets must be non-decreasing")
    return offsets


def segment_sums(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Sums of consecutive ragged segments along the last axis.

    ``offsets`` has one more entry than there are segments; segment ``j``
    is ``values[..., offsets[j]:offsets[j+1]]``.  Empty segments produce
    the empty sum, 0.0.  Leading axes broadcast through — a matrix of
    per-scenario rows reduces every row with one call.
    """
    values = np.asarray(values, dtype=float)
    offsets = _check_offsets(offsets, values.shape[-1])
    out = np.zeros(values.shape[:-1] + (offsets.size - 1,))
    lengths = np.diff(offsets)
    starts = offsets[:-1][lengths > 0]
    if starts.size:
        # Dropping empty segments keeps the surviving starts strictly
        # increasing, so reduceat's segment boundaries stay correct; empty
        # segments keep the empty sum.
        out[..., lengths > 0] = np.add.reduceat(values, starts, axis=-1)
    return out


# -- HW-centric closed forms over arrays (section V) ---------------------------


def _conditional_array(
    x: int, alpha: np.ndarray, quorums: Sequence[int]
) -> np.ndarray:
    """Vectorized ``(A | x blocks up)`` — product of ``A_{m/x}(alpha)``."""
    value = np.ones_like(alpha)
    for m in quorums:
        value = value * a_m_of_n_array(m, x, alpha)
    return value


def _broadcast(*values: np.ndarray | float) -> tuple[np.ndarray, ...]:
    arrays = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in values))
    return tuple(arrays)


def hw_small_array(
    a_role: np.ndarray | float,
    a_vm: np.ndarray | float,
    a_host: np.ndarray | float,
    a_rack: np.ndarray | float,
    quorums: Sequence[int] = PAPER_ROLE_QUORUMS,
    n: int = 3,
) -> np.ndarray:
    """Vectorized :func:`repro.models.hw_closed.hw_small` (Eqs. 2-3)."""
    a_role, a_vm, a_host, a_rack = _broadcast(a_role, a_vm, a_host, a_rack)
    block = a_vm * a_host
    total = np.zeros_like(a_role)
    for x in range(n + 1):
        total = total + binomial_pmf_array(x, n, block) * _conditional_array(
            x, a_role, quorums
        )
    return total * a_rack


def hw_medium_array(
    a_role: np.ndarray | float,
    a_vm: np.ndarray | float,
    a_host: np.ndarray | float,
    a_rack: np.ndarray | float,
    quorums: Sequence[int] = PAPER_ROLE_QUORUMS,
    n: int = 3,
) -> np.ndarray:
    """Vectorized :func:`repro.models.hw_closed.hw_medium` (Eqs. 4-5)."""
    if n < 2:
        raise ModelError("the Medium topology needs at least 2 nodes")
    a_role, a_vm, a_host, a_rack = _broadcast(a_role, a_vm, a_host, a_rack)
    alpha = a_role * a_vm

    def hosts_term(k: int) -> np.ndarray:
        total = np.zeros_like(alpha)
        for x in range(k + 1):
            total = total + binomial_pmf_array(
                x, k, a_host
            ) * _conditional_array(x, alpha, quorums)
        return total

    both_up = a_rack * a_rack * hosts_term(n)
    r1_only = a_rack * (1.0 - a_rack) * hosts_term(n - 1)
    r2_only = (1.0 - a_rack) * a_rack * hosts_term(1)
    return both_up + r1_only + r2_only


def hw_large_array(
    a_role: np.ndarray | float,
    a_vm: np.ndarray | float,
    a_host: np.ndarray | float,
    a_rack: np.ndarray | float,
    quorums: Sequence[int] = PAPER_ROLE_QUORUMS,
    n: int = 3,
) -> np.ndarray:
    """Vectorized :func:`repro.models.hw_closed.hw_large` (Eqs. 7-8)."""
    a_role, a_vm, a_host, a_rack = _broadcast(a_role, a_vm, a_host, a_rack)
    alpha = a_role * a_vm * a_host
    total = np.zeros_like(alpha)
    for r in range(n + 1):
        total = total + binomial_pmf_array(
            r, n, a_rack
        ) * _conditional_array(r, alpha, quorums)
    return total


_HW_DISPATCH = {
    "small": hw_small_array,
    "medium": hw_medium_array,
    "large": hw_large_array,
}


def hw_availability_array(
    topology_name: str,
    a_role: np.ndarray | float,
    a_vm: np.ndarray | float,
    a_host: np.ndarray | float,
    a_rack: np.ndarray | float,
    quorums: Sequence[int] = PAPER_ROLE_QUORUMS,
    n: int = 3,
) -> np.ndarray:
    """Vectorized closed-form availability by reference topology name."""
    try:
        model = _HW_DISPATCH[topology_name.lower()]
    except KeyError:
        raise ModelError(
            f"no vectorized closed form for topology {topology_name!r}; "
            f"expected one of {sorted(_HW_DISPATCH)}"
        ) from None
    return model(a_role, a_vm, a_host, a_rack, quorums=quorums, n=n)


# -- SW-centric closed forms over arrays (section VI) --------------------------


def _unit_alpha_arrays(
    role: RoleSpec, plane: Plane, a: np.ndarray, a_s: np.ndarray
) -> list[tuple[int, np.ndarray]]:
    """Each quorum unit as ``(quorum, per-instance alpha array)``.

    A unit's per-instance availability is the product of its members'
    availabilities — ``A`` per AUTO member, ``A_S`` per MANUAL member — so
    over the grid it is ``A**n_auto * A_S**n_manual`` elementwise.
    """
    units = []
    for unit in role.quorum_units(plane.value):
        n_auto = sum(
            1 for member in unit.members if member.restart is RestartMode.AUTO
        )
        n_manual = len(unit.members) - n_auto
        units.append((unit.quorum, a**n_auto * a_s**n_manual))
    return units


def _role_term_array(
    units: Sequence[tuple[int, np.ndarray]],
    candidates: int,
    rho: np.ndarray,
) -> np.ndarray:
    """Vectorized Eqs. (12)-(14) for one role (cf. ``models.sw._role_term``)."""
    if not units:
        return np.ones_like(rho)
    total = np.zeros_like(rho)
    for g in range(candidates + 1):
        weight = binomial_pmf_array(g, candidates, rho)
        value = weight
        for quorum, alpha in units:
            value = value * a_m_of_n_array(quorum, g, alpha)
        total = total + value
    return total


def _roles_product_array(
    spec: ControllerSpec,
    plane: Plane,
    a: np.ndarray,
    a_s: np.ndarray,
    scenario: RestartScenario,
    candidates: int,
    rho_base: float,
) -> np.ndarray:
    """Vectorized product over cluster roles of conditional availabilities."""
    value = np.ones_like(a)
    for role in spec.cluster_roles:
        units = _unit_alpha_arrays(role, plane, a, a_s)
        if not units:
            continue
        if scenario is RestartScenario.REQUIRED and role.supervisor is not None:
            rho = rho_base * a_s
        else:
            rho = np.full_like(a, rho_base)
        value = value * _role_term_array(units, candidates, rho)
    return value


def plane_availability_array(
    spec: ControllerSpec,
    plane: Plane,
    topology_name: str,
    hardware: HardwareParams,
    a: np.ndarray | float,
    a_s: np.ndarray | float,
    scenario: RestartScenario,
) -> np.ndarray:
    """Vectorized :func:`repro.models.sw.plane_availability`.

    ``a``/``a_s`` are the supervised / unsupervised process availabilities
    (the paper's ``A`` and ``A_S``) as arrays over the grid; the hardware
    availabilities stay scalar (the Figs. 4-5 sweep shape).
    """
    a, a_s = _broadcast(a, a_s)
    name = topology_name.lower()
    if name not in _HW_DISPATCH:
        raise ModelError(
            f"no vectorized SW-centric closed form for topology "
            f"{topology_name!r}; expected one of {sorted(_HW_DISPATCH)}"
        )
    if name != "large" and not _plane_required(spec, plane):
        return np.ones_like(a)
    n = spec.cluster_size
    if name == "small":
        block = hardware.vm_host_block
        total = np.zeros_like(a)
        for x in range(n + 1):
            total = total + binomial_pmf_array(
                x, n, block
            ) * _roles_product_array(spec, plane, a, a_s, scenario, x, 1.0)
        return total * hardware.a_rack
    if name == "medium":
        if n < 2:
            raise ModelError("the Medium topology needs at least 2 nodes")
        a_h, a_r = hardware.a_host, hardware.a_rack

        def hosts_term(k: int) -> np.ndarray:
            total = np.zeros_like(a)
            for x in range(k + 1):
                total = total + binomial_pmf_array(
                    x, k, a_h
                ) * _roles_product_array(
                    spec, plane, a, a_s, scenario, x, hardware.a_vm
                )
            return total

        return (
            a_r * a_r * hosts_term(n)
            + a_r * (1.0 - a_r) * hosts_term(n - 1)
            + (1.0 - a_r) * a_r * hosts_term(1)
        )
    rho_base = hardware.vm_host_block
    total = np.zeros_like(a)
    for r in range(n + 1):
        total = total + binomial_pmf_array(
            r, n, hardware.a_rack
        ) * _roles_product_array(spec, plane, a, a_s, scenario, r, rho_base)
    return total


def local_dp_availability_array(
    spec: ControllerSpec,
    a: np.ndarray | float,
    a_s: np.ndarray | float,
    scenario: RestartScenario,
) -> np.ndarray:
    """Vectorized :func:`repro.models.dataplane.local_dp_availability`."""
    a, a_s = _broadcast(a, a_s)
    role = spec.host_role
    if role is None:
        return np.ones_like(a)
    value = np.ones_like(a)
    for quorum, alpha in _unit_alpha_arrays(role, Plane.DP, a, a_s):
        if quorum != 1:
            raise ModelError(
                f"per-host units must be '1 of 1', got quorum {quorum}"
            )
        value = value * alpha
    if scenario is RestartScenario.REQUIRED and role.supervisor is not None:
        value = value * a_s
    return value


def dp_availability_array(
    spec: ControllerSpec,
    topology_name: str,
    hardware: HardwareParams,
    a: np.ndarray | float,
    a_s: np.ndarray | float,
    scenario: RestartScenario,
) -> np.ndarray:
    """Vectorized ``A_DP = A_SDP · A_LDP``."""
    shared = plane_availability_array(
        spec, Plane.DP, topology_name, hardware, a, a_s, scenario
    )
    return shared * local_dp_availability_array(spec, a, a_s, scenario)


# -- figure series -------------------------------------------------------------


def sweep_vectorized(
    parameter: str,
    values: Sequence[float],
    evaluators: Mapping[str, Callable[[np.ndarray], np.ndarray]],
) -> SweepResult:
    """Vectorized counterpart of :func:`repro.analysis.sweep.sweep`.

    Each evaluator receives the whole grid as one array and must return an
    array of the same length.
    """
    if not evaluators:
        raise ParameterError("need at least one evaluator")
    grid_values = np.asarray(values, dtype=float)
    if grid_values.ndim != 1:
        raise ParameterError("sweep values must be one-dimensional")
    obs.note_solver("vectorized")
    recording = obs.enabled()
    series = {}
    with obs.span(
        "perf.sweep_vectorized",
        parameter=parameter,
        points=int(grid_values.size),
        series=len(evaluators),
    ):
        for label, fn in evaluators.items():
            evaluator_start = time.perf_counter() if recording else 0.0
            out = np.asarray(fn(grid_values), dtype=float)
            if recording:
                obs.observe(
                    "perf.sweep.evaluator_seconds",
                    time.perf_counter() - evaluator_start,
                )
                obs.count("perf.sweep.points", int(grid_values.size))
            if out.shape != grid_values.shape:
                raise ParameterError(
                    f"evaluator {label!r} returned shape {out.shape}, "
                    f"expected {grid_values.shape}"
                )
            series[label] = tuple(float(v) for v in out)
    return SweepResult(
        parameter=parameter,
        grid=tuple(float(v) for v in grid_values),
        series=series,
    )


def fig3_series_vectorized(
    hardware: HardwareParams,
    points: int = 41,
    role_range: tuple[float, float] = FIG3_ROLE_AVAILABILITY_RANGE,
) -> SweepResult:
    """Vectorized :func:`repro.analysis.figures.fig3_series`."""
    values = grid(role_range[0], role_range[1], points)

    def make(name: str):
        return lambda a_c: hw_availability_array(
            name, a_c, hardware.a_vm, hardware.a_host, hardware.a_rack
        )

    return sweep_vectorized(
        "A_C",
        values,
        {
            "Small": make("small"),
            "Medium": make("medium"),
            "Large": make("large"),
        },
    )


def _scaled_process_availabilities(
    software: SoftwareParams, orders: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(A(x), A_S(x))`` over the Figs. 4-5 x-axis, varied in lock-step."""
    a = 1.0 - (1.0 - software.a_process) * 10.0 ** (-orders)
    a_s = 1.0 - (1.0 - software.a_unsupervised) * 10.0 ** (-orders)
    if np.any(a <= 0.0) or np.any(a_s <= 0.0):
        raise ParameterError("scaling pushed availability to 0")
    return a, a_s


def _option_series_vectorized(
    spec: ControllerSpec,
    hardware: HardwareParams,
    software: SoftwareParams,
    points: int,
    orders_range: tuple[float, float],
    plane: str,
    options: tuple[str, ...],
) -> SweepResult:
    values = np.asarray(
        grid(orders_range[0], orders_range[1], points), dtype=float
    )
    a, a_s = _scaled_process_availabilities(software, values)
    obs.note_solver("vectorized")
    series = {}
    with obs.span(
        "perf.option_series",
        plane=plane,
        points=int(values.size),
        options=len(options),
    ):
        for option in options:
            scenario, topology = parse_option(option)
            if plane == "cp":
                out = plane_availability_array(
                    spec, Plane.CP, topology, hardware, a, a_s, scenario
                )
            else:
                out = dp_availability_array(
                    spec, topology, hardware, a, a_s, scenario
                )
            series[option] = tuple(float(v) for v in out)
    return SweepResult(
        parameter="orders_of_magnitude",
        grid=tuple(float(v) for v in values),
        series=series,
    )


def fig4_series_vectorized(
    spec: ControllerSpec,
    hardware: HardwareParams,
    software: SoftwareParams,
    points: int = 21,
    orders_range: tuple[float, float] = (-1.0, 1.0),
    options: tuple[str, ...] = PAPER_OPTIONS,
) -> SweepResult:
    """Vectorized :func:`repro.analysis.figures.fig4_series`."""
    return _option_series_vectorized(
        spec, hardware, software, points, orders_range, "cp", options
    )


def fig5_series_vectorized(
    spec: ControllerSpec,
    hardware: HardwareParams,
    software: SoftwareParams,
    points: int = 21,
    orders_range: tuple[float, float] = (-1.0, 1.0),
    options: tuple[str, ...] = PAPER_OPTIONS,
) -> SweepResult:
    """Vectorized :func:`repro.analysis.figures.fig5_series`."""
    return _option_series_vectorized(
        spec, hardware, software, points, orders_range, "dp", options
    )
