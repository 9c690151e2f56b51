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
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .core import inverse
from .errors import NotComposableError, PreconditionError
from .stokes import build_S


@dataclass(frozen=True)
class BondalPoint:
    B: np.ndarray
    A: np.ndarray


def _unit_upper(A, tol):
    A = np.asarray(A, dtype=complex)
    if np.max(np.abs(np.diag(A) - 1.0)) > tol:
        return False
    low = np.tril(A, -1)
    return bool(np.max(np.abs(low)) < tol)


def membership(B, A, tol=1e-9):
    """Whether (B, A) is a point: A and B^{-T} A B^{-1} unit-diagonal upper triangular."""
    B = np.asarray(B, dtype=complex)
    A = np.asarray(A, dtype=complex)
    if not _unit_upper(A, tol):
        return False
    Bi = inverse(B)
    return _unit_upper(Bi.T @ A @ Bi, tol)


def make_bondal_point(B, A, tol=1e-9):
    if not membership(B, A, tol):
        raise PreconditionError("pair fails the triangular membership condition")
    return BondalPoint(B=np.asarray(B, dtype=complex), A=np.asarray(A, dtype=complex))


def source(p):
    return p.A


def target(p):
    Bi = inverse(p.B)
    return Bi.T @ p.A @ Bi


def unit(A):
    return BondalPoint(B=np.eye(np.asarray(A).shape[0], dtype=complex),
                       A=np.asarray(A, dtype=complex))


def compose(p, q, tol=1e-8):
    """Product (B1 B2, A2); requires A1 = B2^{-T} A2 B2^{-1} (i.e. s(p) = t(q))."""
    if np.max(np.abs(p.A - target(q))) > tol:
        raise NotComposableError("source/target mismatch")
    return BondalPoint(B=p.B @ q.B, A=q.A)


def embed_slocal(rs, p):
    """Image of a monodromy-locus point: (B, S1(s)^{-T})."""
    S1 = build_S(rs, 1, p.s)
    return BondalPoint(B=p.B, A=inverse(S1).T)


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
