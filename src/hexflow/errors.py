"""Exception hierarchy shared by all hexflow modules.  Leaving the
admissible space raises StateError wherever it is detected."""


class HexflowError(Exception):
    """Base class for all errors raised by hexflow."""


class FormatError(HexflowError):
    """A mesh or state file is syntactically or structurally invalid."""


class StateError(HexflowError, ValueError):
    """A state lies outside the admissible space (u_i < 0 and
    u_i + u_j > -phi_ij), or its radii overflow the face kernel.  The scalar
    hexgeom functions raise it for radii, weights and lengths out of range."""


class DefinitenessError(HexflowError):
    """A matrix expected to be definite has an eigenvalue of the wrong sign."""


class StepCollapseError(HexflowError):
    """The flow integrator could not produce an acceptable step after the
    maximum number of consecutive rejections."""


class NoDescentError(HexflowError):
    """Newton backtracking exhausted its halvings without residual decrease."""
