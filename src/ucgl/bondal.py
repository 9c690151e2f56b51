"""A minimal triangular-pair groupoid and the embedding of the monodromy locus.

Points are pairs (B, A) with A unit-diagonal upper triangular and
B^{-T} A B^{-1} again unit-diagonal upper triangular.  Source is A, target
is B^{-T} A B^{-1}, composition multiplies the B-slots and keeps the second
base.  The monodromy locus maps into this structure by sending (B, A) to
(B, S1(s)^{-T}) with S1 the first full-turn Stokes product; only the
groupoid-morphism laws are asserted for the image.  Whether its bases are
triangular up to a permutation is not asserted, since the relevant cone
convention is not pinned down here; triangularizing_permutation finds such
a permutation when one exists.

A point may hold a stack, B and A of shape (..., N, N), and broadcast: the
structure maps and the embedding act on each point of a stack as on one.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .core import identity, inverse, max_abs
from .errors import NotComposableError, PreconditionError
from .stokes import build_S


@dataclass(frozen=True)
class BondalPoint:
    B: np.ndarray
    A: np.ndarray


def _unit_upper(A, tol):
    """Whether A is unit-diagonal upper triangular within tol; one flag per
    matrix of a stack.  A NaN below the diagonal fails; one on it does not."""
    A = np.asarray(A, dtype=complex)
    off_diagonal = np.abs(np.diagonal(A, axis1=-2, axis2=-1) - 1.0).max(axis=-1) > tol
    return ~off_diagonal & (max_abs(np.tril(A, -1)) < tol)


def membership(B, A, tol=1e-9):
    """Whether (B, A) is a point: A and B^{-T} A B^{-1} unit-diagonal upper
    triangular.  Stacks of B and A broadcast and give one flag per pair; B is
    inverted only when some A passes."""
    B = np.asarray(B, dtype=complex)
    A = np.asarray(A, dtype=complex)
    member = _unit_upper(A, tol)
    if not np.count_nonzero(member):
        return member
    return member & _unit_upper(target(BondalPoint(B=B, A=A)), tol)


def make_bondal_point(B, A, tol=1e-9):
    """The point (B, A), or a stack of them; raises PreconditionError when any
    pair fails membership."""
    if np.count_nonzero(~membership(B, A, tol)):
        raise PreconditionError("pair fails the triangular membership condition")
    return BondalPoint(B=np.asarray(B, dtype=complex), A=np.asarray(A, dtype=complex))


def source(p):
    return p.A


def target(p):
    """B^{-T} A B^{-1}, for a point or each point of a stack."""
    Bi = inverse(p.B)
    return np.swapaxes(Bi, -1, -2) @ p.A @ Bi


def unit(A):
    """The identity arrow over A, or over each A of a stack."""
    A = np.asarray(A, dtype=complex)
    B = np.empty_like(A)
    B[...] = identity(A.shape[-1])
    return BondalPoint(B=B, A=A)


def compose(p, q, tol=1e-8):
    """Product (B1 B2, A2); requires A1 = B2^{-T} A2 B2^{-1} (i.e. s(p) = t(q)).

    Stacks compose pointwise and broadcast; a mismatch at any point of a
    stack raises NotComposableError."""
    if np.max(np.abs(p.A - target(q))) > tol:
        raise NotComposableError("source/target mismatch")
    return BondalPoint(B=p.B @ q.B, A=q.A)


def embed_slocal(rs, p):
    """Image of a monodromy-locus point, or of each point of a stack: (B, S1(s)^{-T})."""
    S1 = build_S(rs, 1, p.s)
    return BondalPoint(B=p.B, A=np.swapaxes(inverse(S1), -1, -2))


def triangularizing_permutation(A, tol=1e-9):
    """A permutation making P A P^T unit-diagonal upper triangular, if one exists.

    P has a one at (i, perm[i]), so P A P^T is A[perm][:, perm].  Brute force
    over all permutations (sizes here are at most 5); returns the permutation
    tuple or None.
    """
    A = np.asarray(A, dtype=complex)
    for perm in itertools.permutations(range(A.shape[0])):
        if _unit_upper(A[np.ix_(perm, perm)], tol):
            return perm
    return None
