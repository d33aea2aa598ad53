"""The two refusals this package raises.

Both are ValueErrors, so one ``except ValueError`` catches either.  The
rule that picks between them is what the refused argument is.
"""


class LatticeError(ValueError):
    """A Gram, sublattice, vector, binary form or glue datum that the
    operation cannot take: degenerate, odd, of the wrong rank or shape,
    imprimitive, not positive definite, or not isotropic."""


class DomainError(LatticeError):
    """An integer argument outside the operation's domain: a discriminant
    past D_MAX or of the wrong residue, a twist by 0, a perfect square
    without a period, or an excluded family parameter."""
