"""Exception hierarchy shared by all hexflow modules."""


class HexflowError(Exception):
    """Base class for all errors raised by hexflow."""


class DomainError(HexflowError, ValueError):
    """An input is outside the mathematical domain of an operation
    (non-positive radius, non-negative conformal factor, overflow range, ...)."""


class InadmissiblePairError(HexflowError):
    """A radius pair violates the edge admissibility condition
    cosh(phi) sinh(r_i) sinh(r_j) - cosh(r_i) cosh(r_j) > 1."""

    def __init__(self, value: float, r_i: float, r_j: float, phi: float):
        self.value = value
        self.r_i = r_i
        self.r_j = r_j
        self.phi = phi
        super().__init__(
            f"inadmissible radius pair (r_i={r_i!r}, r_j={r_j!r}, phi={phi!r}): "
            f"admissibility expression {value!r} <= 1"
        )


class InadmissibleFaceError(HexflowError):
    """A face cannot be realized as a right-angled hexagon; identifies the
    violating edge slot (0, 1 or 2, the edge opposite that corner)."""

    def __init__(self, edge_slot: int, cause: InadmissiblePairError):
        self.edge_slot = edge_slot
        self.cause = cause
        super().__init__(f"inadmissible face: edge slot {edge_slot} violates "
                         f"admissibility ({cause})")


class FormatError(HexflowError):
    """A mesh or state file is syntactically or structurally invalid."""


class StateError(HexflowError):
    """A conformal-factor vector lies outside the admissible space."""


class DefinitenessError(HexflowError):
    """A matrix expected to be definite has an eigenvalue of the wrong sign."""


class StepCollapseError(HexflowError):
    """The flow integrator could not produce an acceptable step after the
    maximum number of consecutive rejections."""


class NoDescentError(HexflowError):
    """Newton backtracking exhausted its halvings without residual decrease."""
