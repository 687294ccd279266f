"""Brute-force two-mode verification in a truncated Fock basis.

States are dense (N+1)^2 x (N+1)^2 density matrices with basis index
i*(N+1)+j for |i>_A |j>_B, stored real whenever every entry is real.
Constructors self-report the trace lost to truncation and refuse to build
states that lose more than 1%.  Each builder hands the sorted flat indices
and values of its nonzero entries to one constructor core,
:func:`_from_entries`: the non-finite check, the Hermiticity gate and the
symmetrization read only those entries and their mirrors, the dense matrix
is written once, and no dense temporary is built or scanned.  A dense
matrix passed to :class:`FockDensityMatrix` goes through the same core after
one scan for its nonzero entries.  The surviving entries are the state's
exact nonzero pattern (``support``).  A builder's trace is summed over a
dense diagonal vector, the same pairwise sum ``np.trace`` takes.  Witness
and SWAP expectations are index sums over the matrix.  Negativity and the
realigned trace norm map the pattern through the axis permutation that
turns rho into the partial transpose or the realigned matrix, split that
matrix into the connected components of the mapped pattern, a permutation
rather than an approximation, and gather each block from rho through the
same permutation, with no dense transposed copy; equal-shape blocks share
one stacked LAPACK call.  No symmetry of the state (such as conservation of the photon-number
difference) is assumed; it is only observed in the zeros, so the oracle stays
independent of every analytic path in the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    InvalidArgumentError,
    NumericDomainError,
    TruncationError,
    require_nonnegative_nr,
)

#: Constructors fail when more than this fraction of the trace is truncated away.
MAX_TRACE_DEFICIT = 0.01
_HERMITICITY_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class FockDensityMatrix:
    """Two-mode density matrix truncated at ``cutoff`` photons per mode.

    ``cutoff`` must be an integer >= 0 and ``trace_deficit`` a number in
    [0, 1].  A dense ``matrix`` is scanned once for its nonzero entries, which
    then take the builders' path (:func:`_from_entries`): the stored matrix
    is (m + m^H)/2 and ``support`` holds the flat indices of its exactly
    nonzero entries, which the Hermiticity gate, the symmetrization and both
    trace-norm kernels read.
    """

    cutoff: int
    matrix: np.ndarray
    trace_deficit: float
    support: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        d = (_valid_cutoff(self.cutoff) + 1) ** 2
        m = np.asarray(self.matrix)
        if m.shape != (d, d):
            raise InvalidArgumentError(
                f"matrix shape {m.shape} does not match cutoff {self.cutoff}"
            )
        flat = m.ravel()
        support = np.flatnonzero(flat)
        built = _from_entries(self.cutoff, support, flat[support], self.trace_deficit)
        vars(self).update(vars(built))  # vars() bypasses the frozen __setattr__

    @property
    def dim(self) -> int:
        return self.cutoff + 1


def _valid_cutoff(cutoff) -> int:
    if isinstance(cutoff, bool) or not isinstance(cutoff, (int, np.integer)) or cutoff < 0:
        raise InvalidArgumentError(f"cutoff must be an integer >= 0, got {cutoff!r}")
    return int(cutoff)


def _valid_deficit(deficit) -> float:
    try:
        deficit = float(deficit)
    except (TypeError, ValueError):
        raise InvalidArgumentError(f"trace deficit must be a number, got {deficit!r}") from None
    if not 0.0 <= deficit <= 1.0:
        raise InvalidArgumentError(f"trace deficit must lie in [0, 1], got {deficit}")
    return deficit


def _from_entries(
    cutoff, support: np.ndarray, values: np.ndarray, trace_deficit
) -> FockDensityMatrix:
    """The state whose matrix m holds ``values`` at the sorted flat indices
    ``support`` and 0 elsewhere, stored as (m + m^H)/2; every constructor
    ends here.

    Entries equal to 0 are dropped.  The rest are stored real when none has
    an imaginary part, must be finite, and must match the conjugate of their
    mirror within 1e-12 of the largest magnitude (or of 1).  An entry that
    is 0 along with its mirror adds nothing to the scale or the asymmetry and
    stays 0 in (m + m^H)/2, so the entries and their mirrors carry the whole
    dense computation: the matrix is written, never scanned.
    """
    cutoff, deficit = _valid_cutoff(cutoff), _valid_deficit(trace_deficit)
    n = (cutoff + 1) ** 2
    values = np.asarray(values)
    values = values.astype(complex if np.iscomplexobj(values) else float, copy=False)
    keep = values != 0
    if not keep.all():
        support, values = support[keep], values[keep]
    if np.iscomplexobj(values) and not values.imag.any():
        values = values.real
    if not np.isfinite(values).all():
        raise InvalidArgumentError("density matrix has a non-finite entry")
    row, col = _digits(support, n, 2)
    mirror = col * n + row
    del row, col
    sym = np.zeros((n, n), dtype=values.dtype)
    out = sym.ravel()
    out[support] = values
    mirrored = out[mirror]  # 0 exactly where the mirror is no entry
    lonely = mirrored == 0
    target = mirror[lonely]  # off the given pattern, yet half an entry in (m + m^H)/2
    tail = mirrored[lonely] + np.conjugate(values[lonely])
    tail /= 2.0
    del mirror, lonely
    np.conjugate(mirrored, out=mirrored)
    scale = max(1.0, float(np.abs(values).max(initial=0.0)))
    if float(np.abs(values - mirrored).max(initial=0.0)) > _HERMITICITY_TOL * scale:
        raise InvalidArgumentError("density matrix is not Hermitian within 1e-12")
    average = np.add(values, mirrored, out=mirrored)
    average /= 2.0
    out[support] = average
    out[target] = tail
    nonzero = average != 0
    if target.size:
        support = np.sort(np.concatenate([support[nonzero], target[tail != 0]]))
    elif not nonzero.all():
        support = support[nonzero]
    for array in (sym, support):
        array.setflags(write=False)
    rho = object.__new__(FockDensityMatrix)
    vars(rho).update(cutoff=cutoff, matrix=sym, trace_deficit=deficit, support=support)
    return rho


def _require_cutoff(cutoff: int) -> None:
    if cutoff < 4:
        raise InvalidArgumentError(f"cutoff must be at least 4, got {cutoff}")


def _check_deficit(deficit: float, label: str) -> float:
    deficit = float(max(deficit, 0.0))
    if deficit > MAX_TRACE_DEFICIT:
        raise TruncationError(
            f"truncation insufficient for {label}: trace deficit {deficit:.3g} "
            f"exceeds {MAX_TRACE_DEFICIT}"
        )
    return deficit


def tmsv_fock(r: float, cutoff: int) -> FockDensityMatrix:
    """Two-mode squeezed vacuum from its Schmidt series tanh^k r / cosh r.

    The truncation tail is the geometric remainder tanh^{2(N+1)} r, reported
    as ``trace_deficit``; the returned matrix is renormalized to trace 1.
    """
    r = float(r)
    if r < 0:
        raise InvalidArgumentError(f"squeezing must be nonnegative, got {r}")
    _require_cutoff(cutoff)
    d = cutoff + 1
    deficit = _check_deficit(math.tanh(r) ** (2 * (cutoff + 1)), f"TMSV r={r}")
    amps = np.array([math.tanh(r) ** k / math.cosh(r) for k in range(d)])
    amps /= np.linalg.norm(amps)
    diag = np.arange(d) * (d + 1)  # flat index of |k, k>
    support = (diag[:, None] * (d * d) + diag).ravel()
    return _from_entries(cutoff, support, np.outer(amps, amps).ravel(), deficit)


def _log_factorials(top: int) -> np.ndarray:
    return np.array([math.lgamma(k + 1.0) for k in range(top + 1)])


def coherent_amplitudes(alpha: complex, cutoff: int) -> np.ndarray:
    """Fock amplitudes e^{-|alpha|^2/2} alpha^k / sqrt(k!) of a coherent state.

    The phase (alpha/|alpha|)^k is a running product, exact for real and
    imaginary alpha, so those states keep their exact zeros and real entries;
    the amplitudes are a real array when every phase is exactly real.
    """
    k = np.arange(cutoff + 1)
    alpha = complex(alpha)
    if alpha == 0:
        amps = np.zeros(cutoff + 1)
        amps[0] = 1.0
        return amps
    logmag = k * math.log(abs(alpha)) - 0.5 * _log_factorials(cutoff) - 0.5 * abs(alpha) ** 2
    phase = np.cumprod(np.r_[1.0, np.full(cutoff, alpha / abs(alpha))])
    if not phase.imag.any():
        phase = phase.real
    return np.exp(logmag) * phase


def coherent_mixture_fock(
    p: float, alpha1: complex, alpha2: complex, cutoff: int
) -> FockDensityMatrix:
    """Antisymmetrized coherent superposition mixed with vacuum.

    The antisymmetric branch enters with the plain 1/2 weight rather than the
    exact overlap normalization, so the intended trace is
    1 - p exp(-|alpha1 - alpha2|^2) (matching the closed-form SWAP value in
    :func:`cventangle.witness.swap_expectation_coherent_mixture`);
    ``trace_deficit`` reports only the truncation loss relative to that trace.
    """
    p = float(p)
    if not (0.0 <= p <= 1.0):
        raise InvalidArgumentError(f"mixing probability must lie in [0, 1], got {p}")
    _require_cutoff(cutoff)
    overlap2 = math.exp(-abs(complex(alpha1) - complex(alpha2)) ** 2)
    intended_trace = 1.0 - p * overlap2
    if intended_trace <= 1e-15:
        raise InvalidArgumentError(
            "degenerate mixture: the antisymmetric branch vanishes at p=1 with "
            "alpha1 = alpha2"
        )
    size = (cutoff + 1) ** 2
    c1 = coherent_amplitudes(alpha1, cutoff)
    c2 = coherent_amplitudes(alpha2, cutoff)
    phi = (np.kron(c1, c2) - np.kron(c2, c1)) / math.sqrt(2.0)
    # phi[0] = (c1[0] c2[0] - c2[0] c1[0]) / sqrt 2 is exactly 0, so the
    # vacuum term is the first entry, ahead of the outer product p phi phi^H
    # over phi's nonzero amplitudes
    nz = np.flatnonzero(phi)
    k = nz.size
    support = np.empty(k * k + 1, dtype=nz.dtype)
    values = np.empty(k * k + 1, dtype=phi.dtype)
    support[0], values[0] = 0, 1.0 - p
    np.add(nz[:, None] * size, nz, out=support[1:].reshape(k, k))
    outer = values[1:].reshape(k, k)
    np.multiply(phi[nz, None], phi[nz].conj(), out=outer)
    outer *= p
    diagonal = np.zeros(size, dtype=phi.dtype)
    diagonal[nz] = outer.diagonal()
    diagonal[0] = values[0]
    deficit = _check_deficit(
        1.0 - float(diagonal.sum().real) / intended_trace,
        f"coherent mixture |alpha1|={abs(alpha1)}, |alpha2|={abs(alpha2)}",
    )
    return _from_entries(cutoff, support, values, deficit)


def _thermal_weights(n: float, cutoff: int) -> np.ndarray:
    if n == 0:
        w = np.zeros(cutoff + 1)
        w[0] = 1.0
        return w
    k = np.arange(cutoff + 1)
    return np.exp(k * math.log(n / (n + 1.0)) - math.log(n + 1.0))


def _log_cosh(r: float) -> float:
    """log cosh r for r >= 0, finite where cosh r overflows (past r = 710)."""
    if r < 20.0:
        return math.log(math.cosh(r))
    return r + math.log1p(math.exp(-2.0 * r)) - math.log(2.0)


def _squeezer_ladder_block(r: float, cutoff: int, delta: int, lg: np.ndarray) -> np.ndarray:
    """Action of exp(r (a1†a2† - a1 a2)) on the photon-number-difference-delta
    ladder: B[m, l] = <m+delta, m| U |l+delta, l>, truncated at the cutoff;
    ``lg`` holds log k! for k = 0 .. cutoff.

    Uses the normal-ordered factorization exp(t K+) exp(-2s K0) exp(-t K-)
    with t = tanh r, s = ln cosh r; each column is the exact projection of the
    untruncated column onto the cutoff space.
    """
    size = cutoff + 1 - delta
    t, s = math.tanh(r), _log_cosh(r)
    logt = math.log(t) if t > 0.0 else -math.inf
    m = np.arange(size)
    steps = m[None, :] - m[:, None]  # column index minus row index
    valid = steps >= 0
    st = np.clip(steps, 0, None)
    with np.errstate(invalid="ignore"):
        logmag = np.where(st == 0, 0.0, st * logt) - lg[st]
    half = 0.5 * (
        lg[m + delta][None, :] + lg[m][None, :] - lg[m + delta][:, None] - lg[m][:, None]
    )
    ladder = np.where(valid, np.exp(logmag + half), 0.0)
    lowering = ladder * np.where(st % 2 == 1, -1.0, 1.0)
    k0 = np.exp(-s * (2 * m + delta + 1))
    return ladder.T @ (k0[:, None] * lowering)


def _sts_raw(n: float, r: float, cutoff: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unnormalized truncated squeezed thermal state (trace < 1 by the tail):
    its sorted flat indices, their values and its dense diagonal.

    Two-mode squeezing preserves the photon-number difference, so the state is
    assembled blockwise over that difference; cost is O(cutoff^4).
    """
    d = cutoff + 1
    size = d * d
    pk = _thermal_weights(n, cutoff)
    lg = _log_factorials(cutoff)
    diagonal = np.zeros(size)
    indices, blocks = [], []
    for delta in range(d):
        B = _squeezer_ladder_block(r, cutoff, delta, lg)
        m = np.arange(d - delta)
        weights = pk[m + delta] * pk[m]
        block = (B * weights[None, :]) @ B.T
        # rows and columns |m+delta, m>, and their mirror |m, m+delta>
        for idx in [(m + delta) * d + m, m * d + m + delta][: 2 if delta else 1]:
            indices.append((idx[:, None] * size + idx).ravel())
            blocks.append(block.ravel())
            diagonal[idx] = block.diagonal()
    support = np.concatenate(indices)
    order = np.argsort(support)
    return support[order], np.concatenate(blocks)[order], diagonal


def squeezed_thermal_fock(n: float, r: float, cutoff: int) -> FockDensityMatrix:
    """Symmetric two-mode squeezed thermal state, built by two-mode squeezing
    a truncated thermal product through the exact ladder expansion."""
    n, r = float(n), float(r)
    require_nonnegative_nr(n, r)
    _require_cutoff(cutoff)
    support, values, diagonal = _sts_raw(n, r, cutoff)
    trace = float(diagonal.sum())
    deficit = _check_deficit(1.0 - trace, f"squeezed thermal n={n}, r={r}")
    values /= trace
    return _from_entries(cutoff, support, values, deficit)


def photon_added_sts_fock(n: float, r: float, cutoff: int) -> FockDensityMatrix:
    """Single photon added to mode 2 of the squeezed thermal state.

    Sandwiches the truncated state with the creation operator and renormalizes;
    ``trace_deficit`` compares the truncated normalizer against its exact value
    1/2 + (1+2n) cosh(2r)/2, so it accounts for both truncation stages.
    """
    n, r = float(n), float(r)
    require_nonnegative_nr(n, r)
    _require_cutoff(cutoff)
    d = cutoff + 1
    support, values, diagonal = _sts_raw(n, r, cutoff)
    # sandwich with the mode-2 creation operator: entry (i, j, k, l) moves to
    # (i, j+1, k, l+1), flat index + d^2 + 1, scaled by sqrt(j+1) sqrt(l+1);
    # an entry with j or l at the cutoff leaves the space
    root = np.sqrt(np.arange(1.0, d))
    _i, j, _k, l = _digits(support, d, 4)
    kept = (j < cutoff) & (l < cutoff)
    j, l = j[kept], l[kept]
    support = support[kept] + (d * d + 1)
    values = values[kept] * root[j]
    values *= root[l]
    num_diagonal = np.zeros((d, d))  # indexed by (i, j) of |i, j>
    num_diagonal[:, 1:] = diagonal.reshape(d, d)[:, :-1] * root
    num_diagonal[:, 1:] *= root
    # cosh 2r overflows past r = 355, where the truncated trace is about 0: an
    # infinite normalizer gives deficit 1, which the gate refuses
    cosh_2r = math.cosh(2.0 * r) if r < 355.0 else math.inf
    norm_exact = 0.5 + (1.0 + 2.0 * n) * cosh_2r / 2.0
    trace = float(num_diagonal.sum())
    deficit = _check_deficit(1.0 - trace / norm_exact, f"photon-added state n={n}, r={r}")
    values /= trace
    return _from_entries(cutoff, support, values, deficit)


# ---------------------------------------------------------------------------
# expectation values
# ---------------------------------------------------------------------------

def witness_fock(rho: FockDensityMatrix, which: str) -> float:
    """Tr(rho M) for the observable M named by ``which``, summed over the
    entries of rho that M touches, without forming M; the imaginary residue
    must stay below 1e-10.

    ``W01`` is identity minus the sum of all |ii><jj| (the witness at
    (mu1, mu2) = (0, 1)); ``SWAP`` is the mode-exchange operator
    sum of |ij><ji|.
    """
    if which.upper() not in ("W01", "SWAP"):
        raise InvalidArgumentError(f"unknown witness operator {which!r} (use 'W01' or 'SWAP')")
    d, m = rho.dim, rho.matrix
    if which.upper() == "W01":
        diag = np.arange(d) * (d + 1)
        value = complex(np.trace(m) - m[np.ix_(diag, diag)].sum())
    else:
        value = complex(np.einsum("ijji->", m.reshape(d, d, d, d)))
    if abs(value.imag) > 1e-10:
        raise NumericDomainError(f"expectation has imaginary residue {value.imag:.3e}")
    return float(value.real)


def _component_labels(u: np.ndarray, v: np.ndarray, nodes: int) -> np.ndarray:
    """Connected-component label of each of ``nodes`` graph nodes, for the
    edges u[k] -> v[k]; an undirected graph lists every edge both ways.

    Each sweep hooks every node and its root onto the smallest label across
    its edges, then jumps pointers until every node points at a root; labels
    only decrease and stay inside their component, so the fixed point labels
    each component by one of its nodes.
    """
    label = np.arange(nodes)
    while True:
        hooked, reach = label.copy(), label[v]
        np.minimum.at(hooked, label[u], reach)
        np.minimum.at(hooked, u, reach)
        while not np.array_equal(hooked[hooked], hooked):
            hooked = hooked[hooked]
        if np.array_equal(hooked, label):
            return label
        label = hooked


def _digits(flat: np.ndarray, d: int, count: int) -> list[np.ndarray]:
    """The ``count`` base-``d`` digits of ``flat``, most significant first:
    ``np.unravel_index`` into ``count`` axes of length d, with one integer
    division by a scalar per digit."""
    digits = []
    for _ in range(count - 1):
        quotient = flat // d
        digits.append(flat - quotient * d)
        flat = quotient
    return [flat, *digits[::-1]]


def _trace_norm(rho: FockDensityMatrix, axes: tuple, hermitian: bool) -> float:
    """Sum of the singular values of the matrix M whose 4-index view is
    ``rho.matrix.reshape(d, d, d, d).transpose(axes)``, for a permutation
    ``axes`` that is its own inverse.

    M is never formed: ``rho.support`` mapped through ``axes`` is M's nonzero
    pattern, whose connected components (symmetric graph if ``hermitian``,
    row-column graph otherwise) split M into blocks, a permutation rather
    than an approximation.  Each block is gathered from ``rho.matrix``
    through the same permutation; blocks of equal shape share one stacked
    ``eigvalsh``/``svd`` call, and 1x1 blocks are read off directly.
    """
    d = rho.dim
    n = d * d
    # flat offset of M[(x0, x1), (x2, x3)] in rho.matrix: x . step
    step = np.array([d**3, d**2, d, 1])[list(axes)]
    index = _digits(rho.support, d, 4)
    rows = index[axes[0]] * d + index[axes[1]]
    cols = index[axes[2]] * d + index[axes[3]]
    del index
    if hermitian:  # the pattern of a Hermitian M lists every edge both ways
        label = _component_labels(rows, cols, n)
        sides = (label, label)
    else:
        cols = cols + n
        label = _component_labels(np.concatenate([rows, cols]), np.concatenate([cols, rows]), 2 * n)
        sides = (label[:n], label[n:])
    counts = [np.bincount(side, minlength=label.size) for side in sides]
    orders = [np.argsort(side, kind="stable") for side in sides]
    starts = [np.cumsum(c) - c for c in counts]
    shapes = np.stack(counts, axis=1)
    flat = rho.matrix.ravel()
    total = 0.0
    for a, b in np.unique(shapes[shapes.min(axis=1) > 0], axis=0):
        comps = np.flatnonzero((shapes[:, 0] == a) & (shapes[:, 1] == b))
        ri = orders[0][starts[0][comps, None] + np.arange(a)]
        ci = orders[1][starts[1][comps, None] + np.arange(b)]
        (r0, r1), (c0, c1) = _digits(ri, d, 2), _digits(ci, d, 2)
        blocks = flat[(r0 * step[0] + r1 * step[1])[:, :, None]
                      + (c0 * step[2] + c1 * step[3])[:, None, :]]
        if a == b == 1:
            total += np.abs(blocks).sum()
        elif hermitian:
            total += np.abs(np.linalg.eigvalsh(blocks)).sum()
        else:
            total += np.linalg.svd(blocks, compute_uv=False).sum()
    return float(total)


def realignment_trace_norm_fock(rho: FockDensityMatrix) -> float:
    """Trace norm of the realigned matrix R[(i,k),(j,l)] = rho[(i,j),(k,l)]."""
    return _trace_norm(rho, (0, 2, 1, 3), hermitian=False)


def negativity_fock(rho: FockDensityMatrix) -> float:
    """Trace norm of the partial transpose (over mode 2) minus 1."""
    return _trace_norm(rho, (0, 3, 2, 1), hermitian=True) - 1.0
