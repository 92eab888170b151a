"""Quadratic forms of the plate/ribbon material model.

The elastic and viscous responses of the 2D model are symmetric positive
definite quadratic forms on symmetric 2x2 matrices, identified with
coefficient vectors (q11, q12, q22).  Partial minimization over the
transverse entries produces the effective ribbon forms:

    Q1(q11, q12) = min_alpha Q2(q11, q12, alpha)     (eliminates q22)
    Q0(q11)      = min_z     Q1(q11, z) = C0 * q11^2 (eliminates q12)

Both minimizations are Schur complements and are computed exactly; the
affine argmin maps are kept because they enter the recovery construction
and the compatibility classification.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class MaterialError(ValueError):
    """Raised for material data that violates positive definiteness."""


def _symmetrize(mat: np.ndarray) -> np.ndarray:
    return 0.5 * (mat + mat.T)


def _require_spd(mat: np.ndarray, name: str) -> None:
    """Both thresholds are relative to the matrix's size, so units do not matter."""
    if not np.allclose(mat, mat.T, rtol=0.0, atol=1e-12 * np.abs(mat).max()):
        raise MaterialError(f"{name}: coefficient matrix must be symmetric")
    eigs = np.linalg.eigvalsh(_symmetrize(mat))
    if eigs[0] <= 1e-12 * np.abs(eigs).max():
        raise MaterialError(f"{name}: not positive definite (eigenvalues {eigs})")


@dataclass(frozen=True)
class QuadForm2:
    """SPD quadratic form on (q11, q12, q22), the 2D material response."""

    C: np.ndarray
    label: str = "W"

    def __post_init__(self):
        C = np.asarray(self.C, dtype=float).reshape(3, 3)
        _require_spd(C, f"Q2_{self.label}")
        object.__setattr__(self, "C", _symmetrize(C))
        self.C.flags.writeable = False

    def __call__(self, q11, q12, q22):
        q11, q12, q22 = np.broadcast_arrays(q11, q12, q22)
        q = np.stack([q11, q12, q22], axis=-1)
        return np.einsum("...i,ij,...j->...", q, self.C, q)


def make_isotropic(mu: float, lam: float, label: str = "W") -> QuadForm2:
    """Isotropic form 2*mu*(q11^2 + 2*q12^2 + q22^2) + lam*(q11 + q22)^2.

    mu is the shear modulus; lam the second Lame parameter.  Requires
    mu > 0 and 2*mu + lam > 0; the constructor additionally rejects any
    remaining indefinite combination (2D isotropy also needs mu+lam > 0).
    """
    if mu <= 0.0:
        raise MaterialError(f"isotropic {label}: mu must be > 0, got {mu}")
    if 2.0 * mu + lam <= 0.0:
        raise MaterialError(
            f"isotropic {label}: 2*mu + lambda must be > 0, got {2.0 * mu + lam}"
        )
    C = np.array(
        [
            [2.0 * mu + lam, 0.0, lam],
            [0.0, 4.0 * mu, 0.0],
            [lam, 0.0, 2.0 * mu + lam],
        ]
    )
    return QuadForm2(C, label=label)


@dataclass(frozen=True)
class QuadForm1:
    """Reduced SPD form on (q11, q12) with the affine argmin of the q22 entry.

    argmin_alpha Q2(q11, q12, alpha) = k . (q11, q12) with k stored in
    ``argmin_coeff``.
    """

    C: np.ndarray
    argmin_coeff: np.ndarray
    label: str = "W"

    def __post_init__(self):
        C = np.asarray(self.C, dtype=float).reshape(2, 2)
        _require_spd(C, f"Q1_{self.label}")
        object.__setattr__(self, "C", _symmetrize(C))
        object.__setattr__(
            self, "argmin_coeff", np.asarray(self.argmin_coeff, dtype=float).reshape(2)
        )
        self.C.flags.writeable = False
        self.argmin_coeff.flags.writeable = False

    def __call__(self, q11, q12):
        q11, q12 = np.broadcast_arrays(q11, q12)
        q = np.stack([q11, q12], axis=-1)
        return np.einsum("...i,ij,...j->...", q, self.C, q)

    def argmin_alpha(self, q11, q12):
        return self.argmin_coeff[0] * np.asarray(q11) + self.argmin_coeff[1] * np.asarray(q12)


def reduce_to_1(q2: QuadForm2) -> QuadForm1:
    """Schur complement of the q22 entry; exact partial minimization."""
    C = q2.C
    A = C[:2, :2]
    b = C[:2, 2]
    c = C[2, 2]
    if c <= 0.0:
        raise MaterialError(f"Q2_{q2.label}: q22 diagonal entry must be positive")
    red = A - np.outer(b, b) / c
    return QuadForm1(red, argmin_coeff=-b / c, label=q2.label)


@dataclass(frozen=True)
class QuadForm0:
    """Effective stretching modulus: Q0(q11) = C0 * q11^2, with z*(q11) = k*q11."""

    C0: float
    argmin_coeff: float
    label: str = "W"

    def __post_init__(self):
        if self.C0 <= 0.0:
            raise MaterialError(f"Q0_{self.label}: C0 must be positive, got {self.C0}")

    def __call__(self, q11):
        return self.C0 * np.asarray(q11) ** 2


def reduce_to_0(q1: QuadForm1) -> QuadForm0:
    """Schur complement of the q12 entry of the reduced form."""
    C = q1.C
    c0 = C[0, 0] - C[0, 1] ** 2 / C[1, 1]
    return QuadForm0(C0=float(c0), argmin_coeff=float(-C[0, 1] / C[1, 1]), label=q1.label)


def dQ1(q1: QuadForm1, a, b):
    """Gradient of the reduced form: (d/da, d/db) Q1(a, b) = 2 C (a, b)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    C = q1.C
    return (
        2.0 * (C[0, 0] * a + C[0, 1] * b),
        2.0 * (C[1, 0] * a + C[1, 1] * b),
    )


@dataclass(frozen=True)
class ExtendedForm:
    """Block form Qbar(x1, x2, x3) = Q0(x1) + Q1(x2, x3)/12 with its square roots.

    The symmetric square root and inverse square root are computed by
    eigendecomposition; eigenvalues below 1e-12 of the largest are rejected.
    """

    M: np.ndarray
    sqrt: np.ndarray
    invsqrt: np.ndarray
    label: str = "W"


def extended_form(q0: QuadForm0, q1: QuadForm1) -> ExtendedForm:
    M = np.zeros((3, 3))
    M[0, 0] = q0.C0
    M[1:, 1:] = q1.C / 12.0
    eigval, eigvec = np.linalg.eigh(M)
    if eigval[0] <= 1e-12 * eigval[-1]:
        raise MaterialError(f"Qbar_{q1.label}: eigenvalue floor violated ({eigval})")
    sqrt = (eigvec * np.sqrt(eigval)) @ eigvec.T
    invsqrt = (eigvec / np.sqrt(eigval)) @ eigvec.T
    return ExtendedForm(M=M, sqrt=_symmetrize(sqrt), invsqrt=_symmetrize(invsqrt), label=q1.label)


def h2_family_matrix(q1_R: QuadForm1, eps: float) -> np.ndarray:
    """Default vanishing-transverse-dissipation family on (q11, q12, q22).

    Q2_{R,eps}(q11, q12, q22) = Q1_R(q11, q12) + eps * q22^2.  The family is
    a modelling choice; it satisfies lim_{eps->0} Q2_{R,eps}(q, alpha) =
    Q1_R(q) for every alpha and is recorded in the run manifest.
    """
    if eps <= 0.0:
        raise MaterialError(f"h2 family: eps must be positive, got {eps}")
    C = np.zeros((3, 3))
    C[:2, :2] = q1_R.C
    C[2, 2] = eps
    return C


def _argmins_vanish(q1: QuadForm1, q2: QuadForm2 | None = None) -> bool:
    """The couplings behind z* of q1, and behind alpha* of q2 when q2 is
    given, vanish relative to the largest entry of q2, else of q1."""
    ref, coupling = (q1, [q1.C[0, 1]]) if q2 is None else (q2, [q1.C[0, 1], *q2.C[:2, 2]])
    return bool(np.abs(coupling).max() <= 1e-13 * np.abs(ref.C).max())


@dataclass
class MaterialPair:
    """Elastic/viscous 2D forms with their full reduction chain.

    ``h2_family`` switches the viscous response to the eps-indexed default
    family built on Q1_R; the base form Q2_R still defines the effective 1D
    metric through its reductions.
    """

    W: QuadForm2
    R: QuadForm2
    h2_family: bool = False

    W1: QuadForm1 = field(init=False)
    W0: QuadForm0 = field(init=False)
    R1: QuadForm1 = field(init=False)
    R0: QuadForm0 = field(init=False)
    Wbar: ExtendedForm = field(init=False)
    Rbar: ExtendedForm = field(init=False)
    hypothesis: str = field(init=False)

    def __post_init__(self):
        self.W1 = reduce_to_1(self.W)
        self.W0 = reduce_to_0(self.W1)
        self.R1 = reduce_to_1(self.R)
        self.R0 = reduce_to_0(self.R1)
        self.Wbar = extended_form(self.W0, self.W1)
        self.Rbar = extended_form(self.R0, self.R1)
        self.hypothesis = classify_hypothesis(self)

    @classmethod
    def isotropic(
        cls, mu_W: float, lam_W: float, mu_R: float, lam_R: float, h2_family: bool = False
    ) -> "MaterialPair":
        return cls(
            W=make_isotropic(mu_W, lam_W, "W"),
            R=make_isotropic(mu_R, lam_R, "R"),
            h2_family=h2_family,
        )

    def viscous_matrix(self, eps: float) -> np.ndarray:
        """3x3 matrix of the viscous form used by the 2D metric at width eps."""
        if self.h2_family:
            return h2_family_matrix(self.R1, eps)
        return self.R.C



def classify_hypothesis(pair: MaterialPair) -> str:
    """Compatibility tag of the pair: "H1", "H2", or "none".

    H1: both argmin maps (alpha* and z*) vanish identically for W and R.
    H2: z* vanishes for Q1_W and Q1_R and the viscous form is the eps-family
    ``h2_family_matrix``, which collapses onto Q1_R in the limit by
    construction.  Everything else is "none".
    """
    if _argmins_vanish(pair.W1, pair.W) and _argmins_vanish(pair.R1, pair.R):
        return "H1"
    if _argmins_vanish(pair.W1) and _argmins_vanish(pair.R1) and pair.h2_family:
        return "H2"
    return "none"
