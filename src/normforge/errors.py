"""The exception every library module raises when one of its own invariants breaks.

Such a failure is a contradiction inside the program (a certificate
that does not check, an identity that does not hold), never bad input;
the command line reports it as ``invariant failed: <stage>: <witness>``
with exit status 1.
"""

from __future__ import annotations


class InvariantError(ArithmeticError):
    """A checked invariant failed: ``stage`` names the check, ``witness`` what broke it.

    The message is ``"<stage>: <witness>"`` unless an explicit one is given.
    """

    def __init__(self, stage: str, witness: str, message: str | None = None):
        super().__init__(message if message is not None else f"{stage}: {witness}")
        self.stage = stage
        self.witness = witness
