"""Core reliability mathematics.

This package implements the building blocks of the paper's analytic models:

* :mod:`repro.core.kofn` — the k-of-n block availability of Eq. (1),
* :mod:`repro.core.blocks` — a reliability-block-diagram (RBD) algebra,
* :mod:`repro.core.structure` — coherent structure functions,
* :mod:`repro.core.cutsets` — minimal cut/path sets and exact probability,
* :mod:`repro.core.sdp` — sum-of-disjoint-products exact evaluation that
  scales past the state-enumeration evaluators,
* :mod:`repro.core.importance` — component importance measures,
* :mod:`repro.core.states` — the weighted state-enumeration (conditioning)
  engine that generalizes the paper's "condition on hosts/racks up" steps.
"""

from repro.core.kofn import a_m_of_n, a_m_of_n_array, kofn_unavailability
from repro.core.blocks import Basic, Block, KOfN, Parallel, Series
from repro.core.sdp import (
    SdpExpression,
    SdpKernel,
    SdpTerm,
    canonical_path_sets,
    compile_sdp,
    sdp_kernel,
    sdp_terms,
)
from repro.core.states import enumerate_up_down, weighted_condition

__all__ = [
    "a_m_of_n",
    "a_m_of_n_array",
    "kofn_unavailability",
    "Block",
    "Basic",
    "Series",
    "Parallel",
    "KOfN",
    "SdpTerm",
    "SdpKernel",
    "SdpExpression",
    "canonical_path_sets",
    "compile_sdp",
    "sdp_kernel",
    "sdp_terms",
    "enumerate_up_down",
    "weighted_condition",
]
