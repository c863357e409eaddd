"""Splitting solvers for monotone inclusions with per-iteration
diagnostics, plus a benchmark harness."""

from .metriclin import SpdMap, operator_norm
from .operators import (CocoerciveMap, MonotoneOp, SaddleFunctionPair,
                        cocoercivity_check, generalized_resolvent, prox_l1)
from .crifba import (CrifbaParams, crifba_step, default_params, diagnostics,
                     energy, graph_sequence, residual_G, run, schedule,
                     validate_core, validate_metric)
from .problems import catalog, certify, get

__all__ = [
    "SpdMap", "operator_norm", "CocoerciveMap", "MonotoneOp",
    "SaddleFunctionPair", "cocoercivity_check", "generalized_resolvent",
    "prox_l1", "CrifbaParams", "crifba_step", "default_params", "diagnostics",
    "energy", "graph_sequence", "residual_G", "run", "schedule",
    "validate_core", "validate_metric", "catalog", "certify", "get",
]
