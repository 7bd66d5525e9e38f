"""Complexified Clifford algebra with split metric signature.

For a dimension parameter ``n`` the algebra has ``2n`` generators.  The first
block ``e_1 .. e_n`` squares to ``-1``, the second block ``e_{n+1} .. e_{2n}``
squares to ``+1``, and distinct generators anticommute:

    e_j e_k + e_k e_j = -2 delta_jk          (j, k <= n)
    e_j e_{n+k} + e_{n+k} e_j = 0
    e_{n+j} e_{n+k} + e_{n+k} e_{n+j} = +2 delta_jk

A basis blade is encoded as a bit mask over the generators (bit ``j - 1`` set
means ``e_j`` is a factor; factors are kept in increasing index order), so a
multivector is a dense vector of ``4**n`` complex coefficients indexed by
mask.  Mask ``0`` is the scalar unit.  Products of blades are resolved with a
precomputed sign table: the sign counts the transpositions needed to merge the
two sorted index lists plus one metric flip for every repeated generator from
the ``-1`` block.

The ``dagger`` conjugation is the conjugate-linear anti-automorphism fixed by
``e_j^† = -e_j`` for ``j <= n`` and ``e_{n+j}^† = +e_{n+j}``.  On a blade it
reduces to a sign (reversal plus one flip per minus-block factor), which makes
``norm_squared`` (the scalar part of ``a^† a``) equal to the plain two-norm
squared of the coefficient vector.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "MAX_DIMENSION",
    "Signature",
    "Multivector",
    "geometric_product",
    "dagger",
    "pseudoscalar",
    "norm_squared",
    "mul_arrays",
    "mul_columns",
    "active_blades",
    "dagger_arrays",
    "blade_mask",
    "blade_indices",
]

#: hard cap on the dimension parameter; 4**5 = 1024 blades is the desk-scale
#: limit for the dense representation used here.
MAX_DIMENSION = 5


@dataclass(frozen=True)
class Signature:
    """Dimension parameter ``n``: 2n generators, 4**n basis blades."""

    n: int

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or not (1 <= self.n <= MAX_DIMENSION):
            raise ValueError(f"dimension n must be an integer in 1..{MAX_DIMENSION}, got {self.n!r}")

    @property
    def generators(self) -> int:
        return 2 * self.n

    @property
    def blades(self) -> int:
        return 1 << (2 * self.n)


@lru_cache(maxsize=None)
def _tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Sign tables for dimension n: (product sign [B,B], dagger sign [B])."""
    nbits = 2 * n
    size = 1 << nbits
    masks = np.arange(size)

    pop = np.zeros(size, dtype=np.int64)
    for k in range(nbits):
        pop += (masks >> k) & 1

    # Transpositions needed to merge the sorted factor lists of the two
    # blades: pairs (index in left blade) > (index in right blade).
    swaps = np.zeros((size, size), dtype=np.int64)
    for k in range(1, nbits):
        swaps += pop[(masks[:, None] >> k) & masks[None, :]]

    # Repeated generators contract through the metric; only the e_1..e_n
    # block contributes a sign flip.
    minus_block = (1 << n) - 1
    common = masks[:, None] & masks[None, :]
    flips = swaps + pop[common & minus_block]
    sign = np.where((flips & 1).astype(bool), -1, 1).astype(np.int8)

    grades = pop
    rev = (grades * (grades - 1)) // 2 + pop[masks & minus_block]
    dsign = np.where((rev & 1).astype(bool), -1, 1).astype(np.int8)

    sign.setflags(write=False)
    dsign.setflags(write=False)
    return sign, dsign


def active_blades(arr: np.ndarray) -> np.ndarray:
    """Ascending blade masks whose coefficient column is nonzero at some site.

    At most one reduction over all leading axes; NaN counts as nonzero.
    """
    flat = arr.reshape(-1, arr.shape[-1])
    if flat.size and flat[0].all():
        # every blade is nonzero at the first site: skip the full scan, whose
        # memory traffic costs about a tenth of an FFT of the same array
        return np.arange(flat.shape[1])
    return np.flatnonzero(flat.any(axis=0))


def _product(n: int, sa: np.ndarray, a: np.ndarray, sb: np.ndarray, b: np.ndarray, dense: bool):
    # the one column-level product behind mul_columns and mul_arrays; with
    # ``dense`` it accumulates straight into all 4**n blades
    sign, _ = _tables(n)
    size = 1 << (2 * n)
    targets = sa[:, None] ^ sb[None, :]
    support = None
    if not dense:
        hit = np.zeros(size, dtype=bool)
        hit[targets] = True
        support = np.flatnonzero(hit)
        targets = (np.cumsum(hit) - 1)[targets]
    signs = sign[sa[:, None], sb[None, :]]
    width = size if dense else support.size
    out = np.zeros(np.broadcast_shapes(a.shape[:-1], b.shape[:-1]) + (width,), dtype=complex)
    for col in range(sa.size):
        # j -> i ^ j is one to one, so fancy-index accumulation is safe here
        out[..., targets[col]] += a[..., col, None] * (signs[col] * b)
    return support, out


def mul_columns(n: int, sa, a: np.ndarray, sb, b: np.ndarray) -> tuple[tuple[int, ...], np.ndarray]:
    """Pointwise geometric product of blade columns: ``(support, columns)``.

    ``a`` holds on its last axis the columns of the ascending blade masks
    ``sa``, ``b`` those of ``sb``; leading axes broadcast, and the first
    argument multiplies from the left.  The product lives on the XOR
    closure of the two supports.  Each left blade ``i`` contributes one
    signed permutation of ``b``'s columns (blade ``j`` lands on ``i ^ j``
    with sign ``sign[i, j]``), and every output column sums its terms in
    ascending order of the left blade, starting from zero, exactly as a
    dense double loop over the same supports does.
    """
    support, out = _product(n, np.asarray(sa, dtype=np.intp), a, np.asarray(sb, dtype=np.intp), b, False)
    return tuple(support.tolist()), out


def mul_arrays(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pointwise geometric product of blade-coefficient arrays.

    Both arrays must have last-axis length ``4**n``; leading axes broadcast.
    The first argument multiplies from the left (the product does not
    commute).

    The supports (blades nonzero at some site) are read off the arrays and
    the column-level product of ``mul_columns`` runs on them, accumulating
    into the dense result.  Skipping the zero pairs changes at most the sign
    of an exact zero (and drops ``inf * 0`` / ``nan * 0`` terms) against a
    dense double loop.
    """
    size = 1 << (2 * n)
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape[-1] != size or b.shape[-1] != size:
        raise ValueError(f"coefficient arrays must have last axis {size}")
    sa, sb = active_blades(a), active_blades(b)
    return _product(n, sa, a if sa.size == size else a[..., sa], sb, b if sb.size == size else b[..., sb], True)[1]


def dagger_arrays(n: int, arr: np.ndarray) -> np.ndarray:
    """Apply the dagger conjugation to a blade-coefficient array."""
    _, dsign = _tables(n)
    arr = np.asarray(arr, dtype=complex)
    if arr.shape[-1] != (1 << (2 * n)):
        raise ValueError("coefficient array has wrong blade count")
    return np.conj(arr) * dsign


def blade_mask(sig: Signature, indices: Iterable[int]) -> int:
    """Bit mask of a canonical blade given distinct generator indices (1-based)."""
    mask = 0
    for j in indices:
        if not (1 <= j <= sig.generators):
            raise ValueError(f"generator index {j} outside 1..{sig.generators}")
        bit = 1 << (j - 1)
        if mask & bit:
            raise ValueError(f"repeated generator index {j}")
        mask |= bit
    return mask


def blade_indices(mask: int) -> tuple[int, ...]:
    """Sorted 1-based generator indices of a blade mask."""
    out = []
    j = 1
    while mask:
        if mask & 1:
            out.append(j)
        mask >>= 1
        j += 1
    return tuple(out)


@dataclass(frozen=True)
class Multivector:
    """Dense multivector: a (4**n,) complex coefficient vector indexed by blade mask."""

    sig: Signature
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        arr = np.asarray(self.coeffs, dtype=complex)
        if arr.shape != (self.sig.blades,):
            raise ValueError(f"expected coefficient shape ({self.sig.blades},), got {arr.shape}")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, sig: Signature) -> "Multivector":
        return cls(sig, np.zeros(sig.blades, dtype=complex))

    @classmethod
    def scalar(cls, sig: Signature, value: complex) -> "Multivector":
        c = np.zeros(sig.blades, dtype=complex)
        c[0] = value
        return cls(sig, c)

    @classmethod
    def generator(cls, sig: Signature, j: int) -> "Multivector":
        """Generator e_j, 1-based; j <= n squares to -1, j > n to +1."""
        if not (1 <= j <= sig.generators):
            raise ValueError(f"generator index {j} outside 1..{sig.generators}")
        c = np.zeros(sig.blades, dtype=complex)
        c[1 << (j - 1)] = 1.0
        return cls(sig, c)

    @classmethod
    def blade(cls, sig: Signature, indices: Iterable[int], coeff: complex = 1.0) -> "Multivector":
        c = np.zeros(sig.blades, dtype=complex)
        c[blade_mask(sig, indices)] = coeff
        return cls(sig, c)

    # -- algebra ------------------------------------------------------------

    def _check(self, other: "Multivector") -> None:
        if self.sig != other.sig:
            raise ValueError("signature mismatch between operands")

    def __add__(self, other):
        if isinstance(other, Multivector):
            self._check(other)
            return Multivector(self.sig, self.coeffs + other.coeffs)
        return Multivector(self.sig, self.coeffs + Multivector.scalar(self.sig, other).coeffs)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-1.0) * other if not isinstance(other, Multivector) else self + other.__neg__()

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return Multivector(self.sig, -self.coeffs)

    def __mul__(self, other):
        if isinstance(other, Multivector):
            self._check(other)
            return Multivector(self.sig, mul_arrays(self.sig.n, self.coeffs, other.coeffs))
        return Multivector(self.sig, self.coeffs * complex(other))

    def __rmul__(self, other):
        # scalars commute; anything else must go through __mul__
        return Multivector(self.sig, self.coeffs * complex(other))

    def __truediv__(self, other):
        return Multivector(self.sig, self.coeffs / complex(other))

    def dagger(self) -> "Multivector":
        return Multivector(self.sig, dagger_arrays(self.sig.n, self.coeffs))

    @property
    def scalar_part(self) -> complex:
        return complex(self.coeffs[0])

    def norm_squared(self) -> float:
        # scalar part of a^† a; equals the coefficient two-norm squared
        return float(np.sum(np.abs(self.coeffs) ** 2))

    def norm(self) -> float:
        return float(np.sqrt(self.norm_squared()))

    def allclose(self, other: "Multivector", tol: float = 1e-12) -> bool:
        self._check(other)
        return bool(np.all(np.abs(self.coeffs - other.coeffs) <= tol))

    def __repr__(self) -> str:
        parts = []
        for mask in range(self.sig.blades):
            c = self.coeffs[mask]
            if c == 0:
                continue
            name = "*".join(f"e{j}" for j in blade_indices(mask)) or "1"
            parts.append(f"({c:.6g})*{name}")
        body = " + ".join(parts) if parts else "0"
        return f"Multivector[n={self.sig.n}]({body})"


def geometric_product(a: Multivector, b: Multivector) -> Multivector:
    """Geometric product a b (associative, noncommutative)."""
    return a * b


def dagger(a: Multivector) -> Multivector:
    """Conjugate-linear anti-automorphism: (ab)^† = b^† a^†, e_j^† = -e_j for j <= n."""
    return a.dagger()


def norm_squared(a: Multivector) -> float:
    """Scalar part of a^† a; real and nonnegative, zero only for a = 0."""
    return a.norm_squared()


def pseudoscalar(sig: Signature) -> Multivector:
    """Oriented unit pseudoscalar: product e_{n+1} e_1 e_{n+2} e_2 ... e_{2n} e_n.

    Squares to +1 and anticommutes with every generator, which makes it the
    mass-coupling element used by the Dirac factorization.
    """
    out = Multivector.scalar(sig, 1.0)
    for j in range(1, sig.n + 1):
        out = out * Multivector.generator(sig, sig.n + j) * Multivector.generator(sig, j)
    return out
