"""Generalized circle-packing metrics and combinatorial curvature flows on
ideally triangulated surfaces with boundary."""

from .errors import (DefinitenessError, FormatError, HexflowError,
                     NoDescentError, StateError, StepCollapseError)
from .hexgeom import (ADMISSIBILITY_MARGIN, HexagonGeometry, arc_length,
                      edge_length, from_conformal, hexagon_geometry,
                      to_conformal)
from .mesh import (ConformalState, Edge, Face, IdealTriangulation,
                   euler_characteristic, load_mesh, load_state_vector,
                   parse_mesh, parse_state_vector, serialize_mesh,
                   state_from_radii, validate_state)
from .curvature import (calabi_energy, curvature, edge_lengths, laplacian,
                        ricci_potential)
from .flows import (FlowConfig, FlowKind, FlowTrace, Status, TraceRow,
                    fractional_power, integrate, rhs)
from .solver import SolveResult, default_start, newton_solve

__version__ = "0.1.0"

__all__ = [
    "ADMISSIBILITY_MARGIN", "ConformalState", "DefinitenessError", "Edge",
    "Face", "FlowConfig", "FlowKind", "FlowTrace", "FormatError",
    "HexagonGeometry", "HexflowError", "IdealTriangulation", "NoDescentError",
    "SolveResult", "StateError", "Status", "StepCollapseError", "TraceRow",
    "arc_length", "calabi_energy", "curvature", "default_start", "edge_length",
    "edge_lengths", "euler_characteristic", "fractional_power",
    "from_conformal", "hexagon_geometry", "integrate", "laplacian",
    "load_mesh", "load_state_vector", "newton_solve", "parse_mesh",
    "parse_state_vector", "rhs", "ricci_potential", "serialize_mesh",
    "state_from_radii", "to_conformal", "validate_state",
]
