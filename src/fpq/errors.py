"""Error taxonomy shared by the library and the CLI.

Every domain error carries a stable ``code`` string; the CLI maps any
FpqError to a structured JSON error object and exit status 1 (argparse
usage errors keep their conventional exit status 2).
"""


class FpqError(Exception):
    """Base class for all domain errors raised by this package."""

    code = "error"

    def payload(self):
        """Dict describing the error, suitable for JSON output."""
        return {"type": self.code, "message": str(self)}


class CyclicQuiverError(FpqError):
    code = "cyclic_quiver"


class BadArrowError(FpqError):
    code = "bad_arrow"


class DuplicateLabelError(FpqError):
    code = "duplicate_label"


class ShapeError(FpqError):
    """A matrix does not match the shape forced by the dimension vector."""

    code = "shape_mismatch"


class NotTypeAError(FpqError):
    """The quiver is not an A_n line (needed for auto-derived interval lists)."""

    code = "not_type_a"


class IncompleteListError(FpqError):
    """The caller-certified indecomposable list failed a sanity check."""

    code = "incomplete_list"


class CapExceededError(FpqError):
    """A capped enumeration ran out of budget.

    ``partial`` holds whatever was enumerated before the cap hit.
    """

    code = "cap_exceeded"

    def __init__(self, message, partial=None, cap=None):
        super().__init__(message)
        self.partial = partial if partial is not None else []
        self.cap = cap

    def payload(self):
        out = super().payload()
        out["cap"] = self.cap
        return out


class NoConvergenceError(FpqError):
    """Power iteration did not reach the tolerance within the iteration cap.

    ``bracket`` is the last certified (lower, upper) enclosure of the radius.
    """

    code = "no_convergence"

    def __init__(self, message, bracket=None):
        super().__init__(message)
        self.bracket = bracket

    def payload(self):
        out = super().payload()
        if self.bracket is not None:
            out["bracket"] = list(self.bracket)
        return out


class StructureMismatchError(FpqError):
    """An operation restricted to the canonical vertex-wise tensor structure
    was called with a different structure."""

    code = "structure_mismatch"


class NotAQuiverActionError(FpqError):
    """Restricted generator actions do not satisfy the path-algebra module
    axioms (orthogonal idempotents summing to the identity, compatible
    arrow actions)."""

    code = "not_a_quiver_action"


class BadPathsError(FpqError):
    """The two arrow paths of a band-module construction are not directed
    paths sharing exactly their endpoints."""

    code = "bad_paths"


class WrongQuiverError(FpqError):
    """A constructor specific to one quiver shape was called on another."""

    code = "wrong_quiver"


class DimensionGuardError(FpqError):
    """A size guard was exceeded: an iterated tensor power's total
    dimension, one product's map-entry count, the dimension of the tensor
    square a coproduct acts on, a path algebra's path count, or the digits
    of an output map entry (Python's int-to-str limit)."""

    code = "dimension_guard"


class InputError(FpqError):
    """Malformed user input (JSON payloads, object descriptors)."""

    code = "bad_input"
