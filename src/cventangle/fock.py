"""Brute-force two-mode verification in a truncated Fock basis.

A state is its exactly nonzero entries: the sorted flat indices
(``support``) into the (N+1)^2 x (N+1)^2 density matrix, basis index
i*(N+1)+j for |i>_A |j>_B, and their ``values``, stored real whenever every
entry is real.  No builder or kernel allocates an array of (N+1)^4
elements.  The four builders are the only way to a state: each checks its
arguments and cutoff, self-reports the trace lost to truncation and refuses
states that lose more than 1%, then hands the sorted flat indices and
values of its entries, a symmetric pattern, to one constructor core,
:func:`_from_entries`: one stable sort of the column indices pairs each entry
with its mirror, the non-finite check, the Hermiticity gate and the
symmetrization read only those pairs, and the entries that are 0 after the
symmetrization are dropped.  A builder's trace is summed
over a dense diagonal vector, the same pairwise sum ``np.trace`` takes.
Witness and SWAP expectations look up the O(d^2) entries they read in the
support.  Negativity and the realigned trace norm map the pattern through
the axis permutation that turns rho into the partial transpose or the
realigned matrix and leave out the nodes (rows and columns) whose 2-norms
bound their effect on the result to 2^-52 ||rho||_F, at most 2^-52 of the
trace norm itself (2^-51 with the amplitudes that the coherent mixture
leaves out).  Each star of leaves on one hub becomes one leaf, a unitary
map.  They split the rest into the connected components of its pattern, a
permutation rather than an approximation, and scatter the entries straight
into their blocks; equal-shape blocks share one stacked LAPACK call.  No
symmetry of the state (such as conservation of the photon-number
difference) is assumed; it is only observed in the zeros, so the oracle
stays independent of every analytic path in the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    InvalidArgumentError,
    NumericDomainError,
    TruncationError,
    abs_square,
    require_mixture,
    require_nonnegative_nr,
)

#: Constructors fail when more than this fraction of the trace is truncated away.
MAX_TRACE_DEFICIT = 0.01
_HERMITICITY_TOL = 1e-12


@dataclass(frozen=True, eq=False, init=False)
class FockDensityMatrix:
    """Two-mode density matrix truncated at ``cutoff`` photons per mode,
    stored as its exactly nonzero entries: their sorted flat indices
    ``support`` into the (N+1)^2 x (N+1)^2 matrix and their ``values``.

    States come from the four builders only, through :func:`_from_entries`;
    the class takes no constructor arguments.
    """

    cutoff: int
    trace_deficit: float
    support: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)

    @property
    def dim(self) -> int:
        return self.cutoff + 1


def _index_dtype(cutoff: int) -> type:
    """The integer type of flat indices: int32 while (N+1)^4 fits (through
    cutoff 214), which halves the index memory of every state."""
    return np.int32 if (cutoff + 1) ** 4 <= np.iinfo(np.int32).max else np.int64


def _digits(flat: np.ndarray, d: int) -> tuple[np.ndarray, ...]:
    """The digits i, j, k, l of the 4-digit base-``d`` numbers
    ``flat`` = ((i d + j) d + k) d + l, most significant first, each a
    remainder x - (x // d) d: numpy floor-divides by a scalar with a
    multiply and a shift, several times faster than its ``divmod``.  The
    four digit arrays are the only arrays allocated."""
    k = flat // d  # (i d + j) d + k
    l = k * d
    np.subtract(flat, l, out=l)
    j = k // d  # i d + j
    i = j * d
    np.subtract(k, i, out=k)
    np.floor_divide(j, d, out=i)
    np.multiply(i, d, out=i)
    np.subtract(j, i, out=j)
    np.floor_divide(i, d, out=i)
    return i, j, k, l


def _lookup(support: np.ndarray, values: np.ndarray, flat: np.ndarray) -> np.ndarray:
    """The entries at the flat indices ``flat`` of the matrix holding
    ``values`` at the sorted ``support``: 0 where it holds none."""
    out = np.zeros(flat.shape, dtype=values.dtype)
    flat = flat.astype(support.dtype, copy=False)  # wider queries would cast a copy of support
    pos = np.searchsorted(support, flat)
    hit = pos < support.size
    hit[hit] = support[pos[hit]] == flat[hit]
    out[hit] = values[pos[hit]]
    return out


def _mirrors(support: np.ndarray, n: int, order=None) -> tuple[np.ndarray, np.ndarray]:
    """The mirrored indices col * n + row of the flat indices ``support`` into
    an n x n matrix, sorted by (row, col), and ``order``, by default the
    stable order that sorts them: a stable sort of the columns alone, which
    takes one radix pass on 16-bit keys while the columns fit (n <= 65,536,
    through cutoff 255).  The column is the remainder support - row n, as in
    :func:`_digits`."""
    row = support // n
    mirror = row * n
    np.subtract(support, mirror, out=mirror)  # the column
    if order is None:
        order = np.argsort(mirror.astype(np.uint16) if n <= 1 << 16 else mirror, kind="stable")
    mirror *= n
    mirror += row
    return mirror, order


def _from_entries(
    cutoff: int, support: np.ndarray, values: np.ndarray, trace_deficit: float, order=None
) -> FockDensityMatrix:
    """The state whose matrix m holds ``values`` at the sorted flat indices
    ``support`` and 0 elsewhere, stored as the nonzero entries of
    (m + m^H)/2; every builder ends here, with the cutoff and trace deficit
    it has checked (:func:`_require_cutoff`, :func:`_check_deficit`).

    The pattern ``support`` must be symmetric: it holds the mirror of each of
    its indices, with explicit zeros where m is 0 on one side only.  Off the
    pattern m and m^H are both 0, so the entries and their mirrors carry the
    whole computation.  :func:`_mirrors` pairs each entry with its mirror, or
    a builder that knows the pairing passes it as ``order`` (entry order[i]
    mirrors entry i); either pairing is checked, and a pattern it does not
    pair is refused.  The entries are stored real when none has an imaginary
    part, must be finite, and must match the conjugate of their mirror within
    1e-12 of the largest magnitude (or of 1).  The entries that are 0 after
    the symmetrization are dropped.
    """
    support = np.asarray(support).astype(_index_dtype(cutoff), copy=False)
    values = np.asarray(values)
    values = values.astype(complex if np.iscomplexobj(values) else float, copy=False)
    if np.iscomplexobj(values) and not values.imag.any():
        values = values.real
    mirror, order = _mirrors(support, (cutoff + 1) ** 2, order)
    if not np.array_equal(mirror[order], support):  # entry order[i] mirrors entry i
        raise InvalidArgumentError("entry pattern is not symmetric")
    del mirror
    if not np.isfinite(values).all():
        raise InvalidArgumentError("density matrix has a non-finite entry")
    mirrored = values[order]
    del order
    if np.iscomplexobj(mirrored):
        np.conjugate(mirrored, out=mirrored)
    scale = max(1.0, float(np.abs(values).max(initial=0.0)))
    # |.| in place where real: a fresh array costs more than the pass
    asymmetry = values - mirrored
    asymmetry = np.abs(asymmetry, out=None if np.iscomplexobj(asymmetry) else asymmetry)
    if float(asymmetry.max(initial=0.0)) > _HERMITICITY_TOL * scale:
        raise InvalidArgumentError("density matrix is not Hermitian within 1e-12")
    del asymmetry
    values = np.add(values, mirrored, out=mirrored)
    values /= 2.0
    nonzero = values != 0
    if not nonzero.all():
        support, values = support[nonzero], values[nonzero]
    for array in (support, values):
        array.setflags(write=False)
    rho = object.__new__(FockDensityMatrix)
    vars(rho).update(cutoff=cutoff, trace_deficit=trace_deficit, support=support, values=values)
    return rho


def _require_cutoff(cutoff) -> int:
    """The cutoff as an int: an integer >= 4, numpy integers included and bools refused."""
    if isinstance(cutoff, bool) or not isinstance(cutoff, (int, np.integer)) or cutoff < 4:
        raise InvalidArgumentError(f"cutoff must be an integer >= 4, got {cutoff!r}")
    return int(cutoff)


def _check_deficit(deficit: float, label: str) -> float:
    deficit = float(max(deficit, 0.0))
    if math.isnan(deficit):  # a NaN normalizer, e.g. from an infinite thermal n
        raise InvalidArgumentError(f"trace deficit of {label} is not a number")
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
    if not r >= 0:  # NaN included
        raise InvalidArgumentError(f"squeezing must be nonnegative, got {r}")
    cutoff = _require_cutoff(cutoff)
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
    the amplitudes are a real array when every phase is exactly real.  Where
    |alpha|^2 overflows, e^{-|alpha|^2/2} and every amplitude are 0.
    """
    k = np.arange(cutoff + 1)
    alpha = complex(alpha)
    if alpha == 0:
        amps = np.zeros(cutoff + 1)
        amps[0] = 1.0
        return amps
    square = abs_square(alpha)
    if square == math.inf:
        return np.zeros(cutoff + 1)
    logmag = k * math.log(abs(alpha)) - 0.5 * _log_factorials(cutoff) - 0.5 * square
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
    A mixture whose trace is at most 1e-15 is refused, as by
    :class:`cventangle.states.CoherentMixture` and both closed forms
    (:func:`cventangle.errors.require_mixture`).

    The outer product leaves out the longest run of phi's smallest
    amplitudes of 2-norm ||delta|| with 3 p ||phi|| ||delta|| <= B =
    2^-52 ||rho||_F / (N+1): the part left out has ||E||_F <= B, so a trace
    norm moves by at most (N+1) B, W01 by 2 (N+1) B and SWAP by (N+1) B.
    The trace deficit counts every amplitude.
    """
    p, alpha1, alpha2, overlap = require_mixture(p, alpha1, alpha2)
    cutoff = _require_cutoff(cutoff)
    intended_trace = 1.0 - p * overlap
    size = (cutoff + 1) ** 2
    c1 = coherent_amplitudes(alpha1, cutoff)
    c2 = coherent_amplitudes(alpha2, cutoff)
    phi = (np.kron(c1, c2) - np.kron(c2, c1)) / math.sqrt(2.0)
    nz = np.flatnonzero(phi).astype(_index_dtype(cutoff))
    weight = (phi[nz] * phi[nz].conj()).real  # |phi_a|^2
    diagonal = np.zeros(size, dtype=phi.dtype)
    diagonal[nz] = weight * p
    diagonal[0] = 1.0 - p
    norm = math.sqrt(weight.sum())  # ||phi||, and ||rho||_F = hypot(1 - p, p ||phi||^2)
    budget = 2.0**-52 * math.hypot(1.0 - p, p * norm * norm) / (cutoff + 1)
    ascending = np.argsort(weight, kind="stable")
    run = np.searchsorted(3.0 * p * norm * np.sqrt(np.cumsum(weight[ascending])), budget, "right")
    nz = nz[np.sort(ascending[run:])]
    # phi[0] = (c1[0] c2[0] - c2[0] c1[0]) / sqrt 2 is exactly 0, so the
    # vacuum term is the first entry, ahead of the outer product p phi phi^H
    # over the amplitudes kept
    k = nz.size
    support = np.empty(k * k + 1, dtype=nz.dtype)
    values = np.empty(k * k + 1, dtype=phi.dtype)
    support[0], values[0] = 0, 1.0 - p
    np.add(nz[:, None] * size, nz, out=support[1:].reshape(k, k))
    outer = values[1:].reshape(k, k)
    np.multiply(phi[nz, None], phi[nz].conj(), out=outer)
    outer *= p
    deficit = _check_deficit(
        1.0 - float(diagonal.sum().real) / intended_trace,
        # hypot reads an overflowing modulus as inf, where abs() of a complex raises
        f"coherent mixture |alpha1|={math.hypot(alpha1.real, alpha1.imag)}, "
        f"|alpha2|={math.hypot(alpha2.real, alpha2.imag)}",
    )
    # the mirror of entry 1 + a k + b is entry 1 + b k + a; the vacuum term is its own
    order = np.empty(k * k + 1, dtype=np.intp)
    order[0] = 0
    np.add.outer(np.arange(1, k + 1), np.arange(k) * k, out=order[1:].reshape(k, k))
    return _from_entries(cutoff, support, values, deficit, order)


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


def _squeezer_ladders(r: float, cutoff: int, lg: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The factors of U = exp(r (a1†a2† - a1 a2)) on every photon-number-
    difference ladder, stacked: ``ladder[delta, m, l]`` and
    ``lowering[delta, m, l]``.  Over the leading cutoff + 1 - delta rows and
    columns, ``ladder[delta].T @ lowering[delta]`` is
    B[m, l] = <m+delta, m| U |l+delta, l> truncated at the cutoff; the
    entries beyond them are padding.  ``lg`` holds log k! for k = 0 .. cutoff.

    Uses the normal-ordered factorization exp(t K+) exp(-2s K0) exp(-t K-)
    with t = tanh r, s = ln cosh r; each column of B is the exact projection of
    the untruncated column onto the cutoff space.  Every entry is formed by
    the same operations, in the same order, as in a ladder-by-ladder pass.
    """
    d = cutoff + 1
    t, s = math.tanh(r), _log_cosh(r)
    logt = math.log(t) if t > 0.0 else -math.inf
    m = np.arange(d)
    steps = m[None, :] - m[:, None]  # column index minus row index
    st = np.clip(steps, 0, None)
    with np.errstate(invalid="ignore"):
        logmag = np.where(st == 0, 0.0, st * logt) - lg[st]
    shifted = lg[np.minimum(m[:, None] + m, cutoff)]  # [delta, m]: log (m+delta)!, padded
    ladder = (shifted + lg)[:, None, :] - shifted[:, :, None]
    ladder -= lg[:, None]
    ladder *= 0.5
    ladder += logmag
    np.exp(ladder, out=ladder)
    ladder[:, steps < 0] = 0.0
    lowering = ladder * np.where(st % 2 == 1, -1.0, 1.0)
    # -s (2m + delta + 1) overflows to -inf once s passes about 1e308 / (2 cutoff):
    # exp(-inf) is the exact limit 0
    with np.errstate(over="ignore"):
        k0 = np.exp(-s * (2 * m + m[:, None] + 1))
    lowering *= k0[:, :, None]
    return ladder, lowering


def _sts_raw(n: float, r: float, cutoff: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unnormalized truncated squeezed thermal state (trace < 1 by the tail):
    its sorted flat indices, their values and its dense diagonal.

    Two-mode squeezing preserves the photon-number difference, so the state is
    assembled blockwise over that difference; cost is O(cutoff^4).  The block
    of difference delta sits on the rows and columns |m+delta, m> and on their
    mirrors |m, m+delta>.  Row |i, j> of the state holds its block's row
    min(i, j) at the columns |l + max(i-j, 0), l + max(j-i, 0)>, l = 0, 1, ..,
    which ascend with l: laid out as a (d^2, d) table, the rows give the
    sorted support under one mask.
    """
    d = cutoff + 1
    size = d * d
    lg = _log_factorials(cutoff)
    ladder, lowering = _squeezer_ladders(r, cutoff, lg)
    pk = _thermal_weights(n, cutoff)
    m = np.arange(d)
    weights = pk[np.minimum(m[:, None] + m, cutoff)] * pk  # [delta, m]: p_{m+delta} p_m, padded
    table = np.zeros((size, d))  # [row |i, j>, l]
    for delta in range(d):
        width = d - delta
        B = ladder[delta, :width, :width].T @ lowering[delta, :width, :width]
        block = (B * weights[delta, :width]) @ B.T
        table[delta * d::d + 1][:width, :width] = block  # rows |m+delta, m>
        if delta:
            table[delta::d + 1][:width, :width] = block  # rows |m, m+delta>
    del ladder, lowering
    i, j = np.divmod(np.arange(size), d)
    diagonal = table[np.arange(size), np.minimum(i, j)]
    mask = m < (d - np.abs(i - j))[:, None]
    # row |i, j> holds the columns |l + a, l + b>, flat index l (d + 1) + a d + b,
    # with a = max(i - j, 0) and b = max(j - i, 0)
    start = np.arange(size) * size + np.maximum(i - j, 0) * d + np.maximum(j - i, 0)
    dtype = _index_dtype(cutoff)
    support = (start.astype(dtype)[:, None] + (m * (d + 1)).astype(dtype))[mask]
    return support, table[mask], diagonal


def squeezed_thermal_fock(n: float, r: float, cutoff: int) -> FockDensityMatrix:
    """Symmetric two-mode squeezed thermal state, built by two-mode squeezing
    a truncated thermal product through the exact ladder expansion."""
    n, r = float(n), float(r)
    require_nonnegative_nr(n, r)
    cutoff = _require_cutoff(cutoff)
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
    cutoff = _require_cutoff(cutoff)
    d = cutoff + 1
    support, values, diagonal = _sts_raw(n, r, cutoff)
    # sandwich with the mode-2 creation operator: entry (i, j, k, l) moves to
    # (i, j+1, k, l+1), flat index + d^2 + 1, scaled by sqrt(j+1) sqrt(l+1);
    # an entry with j or l at the cutoff leaves the space
    root = np.sqrt(np.arange(1.0, d))
    _, j, _, l = _digits(support, d)
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
    sum of |ij><ji|.  The O(d^2) entries either reads are looked up in the
    support, zeros included, and summed in the order of the dense formulas
    ``np.trace(m) - m[np.ix_(diag, diag)].sum()`` and
    ``np.einsum("ijji->", m)``: row by row, one running sum per row.
    """
    if not isinstance(which, str) or which.upper() not in ("W01", "SWAP"):
        raise InvalidArgumentError(f"unknown witness operator {which!r} (use 'W01' or 'SWAP')")
    d = rho.dim
    n = d * d
    i = np.arange(d)
    if which.upper() == "W01":
        diag = i * (d + 1)  # |i, i>
        trace = _lookup(rho.support, rho.values, np.arange(n) * (n + 1)).sum()
        value = complex(trace - _lookup(rho.support, rho.values, diag[:, None] * n + diag).sum())
    else:
        swapped = _lookup(rho.support, rho.values, (i[:, None] * d + i) * n + i * d + i[:, None])
        value = complex(np.cumsum(np.cumsum(swapped, axis=1)[:, -1])[-1])
    if abs(value.imag) > 1e-10:
        raise NumericDomainError(f"expectation has imaginary residue {value.imag:.3e}")
    return float(value.real)


def _component_labels(u: np.ndarray, v: np.ndarray, nodes: int) -> np.ndarray:
    """Connected-component label of each of ``nodes`` graph nodes, for the
    undirected edges u[k] - v[k]: the smallest node of the component.

    Each sweep hooks the root of each edge end onto the other end's label
    where that is smaller, then jumps pointers until every node points at a
    root.  Only roots move, so nodes that share a label share it for good:
    an edge inside one label is spent and is dropped, and the labels are
    final once no edge is left.  Labels only decrease and stay inside their
    component, whose smallest node keeps its own label throughout.
    """
    label = np.arange(nodes, dtype=u.dtype)
    while u.size:
        ends = label.take(u), label.take(v)
        hooked = label.copy()
        np.minimum.at(hooked, ends[0], ends[1])
        np.minimum.at(hooked, ends[1], ends[0])
        del ends
        while not np.array_equal(hooked[hooked], hooked):
            hooked = hooked[hooked]
        label = hooked
        cross = label.take(u) != label.take(v)
        if not cross.all():
            u, v = u[cross], v[cross]
    return label


def _permuted_rows_cols(support: np.ndarray, d: int, axes: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Row and column of each flat index ``support`` = ((i d + j) d + k) d + l
    in the matrix whose 4-index view is the (d, d, d, d) one transposed by
    ``axes``; the digits are reused in place, so at most four index arrays of
    the support's length are alive at once."""
    digit = list(_digits(support, d))
    rows, cols = digit[axes[0]], digit[axes[2]]
    rows *= d
    rows += digit[axes[1]]
    cols *= d
    cols += digit[axes[3]]
    return rows, cols


def _dropped_nodes(
    rows: np.ndarray, cols: np.ndarray, values: np.ndarray, nodes: int, hermitian: bool
) -> tuple[np.ndarray, bool]:
    """The nodes of M (entries ``values`` at ``rows``, ``cols``) that its
    trace norm leaves out, and whether any of them may hold an entry.

    Each node's 2-norm comes from one ``bincount`` of |v|^2 over its entries
    in support order: a column's entries in ascending row order, a row's (of
    a realigned matrix) in ascending column order.  Dropping the row and
    column of a node of a Hermitian M changes its trace norm by at most
    2 ||col||_2; dropping a row or a column of any M, by at most its 2-norm.
    Sorted by that bound (stably, so ties go by node), the longest leading
    run whose bounds sum to at most 2^-52 ||rho||_F is dropped, empty nodes
    included.  M permutes the entries of rho, so ||M||_1 >= ||M||_F =
    ||rho||_F and the trace norm moves by at most 2^-52 of itself.
    """
    square = values.real * values.real
    if np.iscomplexobj(values):
        square += values.imag * values.imag
    norms = np.bincount(cols, square, minlength=nodes)
    if not hermitian:  # rows are nodes 0 .. n-1, where the column sums are 0
        norms += np.bincount(rows, square, minlength=nodes)
    budget = 2.0**-52 * math.sqrt(norms.sum() if hermitian else norms.sum() / 2.0)
    np.sqrt(norms, out=norms)
    if hermitian:
        norms *= 2.0
    # a node above the budget ends every run, so only the nodes below it are sorted
    light = np.flatnonzero(norms <= budget)
    bounds = norms[light]
    ordered = np.sort(bounds)
    run = int(np.searchsorted(np.cumsum(ordered), budget, side="right"))
    if run == 0:
        return light[:0], False
    last = ordered[run - 1]
    # the run: every node below its last bound and, of the nodes at it, the first ones
    dropped = light[bounds < last]
    dropped = np.concatenate([dropped, light[bounds == last][:run - dropped.size]])
    # a node of norm 0 holds no entry unless some |v|^2 underflowed to 0
    return dropped, bool(last > 0.0) or not square.all()


def _merge_stars(rows: np.ndarray, cols: np.ndarray, values: np.ndarray, alive: np.ndarray,
                 hermitian: bool) -> tuple[np.ndarray, ...]:
    """The entries of M once each star is merged, its merged leaves marked
    dead in ``alive``.  A leaf is a node holding one entry, off the diagonal
    (a node of a Hermitian M holds its column); a star is two or more leaves
    sharing the other end, their hub h.  It holds e_h v^T (and its mirror
    where M is Hermitian), which a unitary on the leaves maps to ||v||_2 on
    the smallest leaf, keeping every eigenvalue and singular value; |v|^2 is
    summed by one ``bincount`` in support order."""
    nodes = alive.size
    degree = np.bincount(cols, minlength=nodes)
    if not hermitian:
        degree += np.bincount(rows, minlength=nodes)
    # each leaf's hub, ``nodes`` for none; a lone diagonal entry is its own hub, alone
    hub = np.full(nodes, nodes, dtype=rows.dtype)
    for near, far in ((rows, cols), (cols, rows)):
        end = degree.take(far) == 1
        hub[far[end]] = near[end]
    star = (np.bincount(hub, minlength=nodes + 1).take(hub) > 1) & (hub < nodes)
    if not star.any():
        return rows, cols, values
    leaf = cols if hermitian else np.where(star.take(cols), cols, rows)
    at = star.take(leaf)
    square = values[at].real ** 2 + (values[at].imag ** 2 if np.iscomplexobj(values) else 0.0)
    norm = np.sqrt(np.bincount(hub.take(leaf[at]), square, minlength=nodes))  # 0 off the hubs
    leaves = np.flatnonzero(star)
    stays = leaves[np.unique(hub.take(leaves), return_index=True)[1]]
    alive[np.setdiff1d(leaves, stays)] = False
    kept = alive.take(rows) & alive.take(cols)
    rows, cols, values = rows[kept], cols[kept], values[kept]
    at = np.isin(rows, stays) | np.isin(cols, stays)
    values[at] = norm.take(rows[at]) + norm.take(cols[at])
    return rows, cols, values


def _blocks(rho: FockDensityMatrix, axes: tuple, hermitian: bool) -> tuple[np.ndarray, ...]:
    """The blocks of the trace norm of :func:`_trace_norm`, laid out in one
    flat buffer: the buffer position and value of each entry that is kept,
    and the height and width of each block in buffer order.  The tables of
    one entry per node are released on return, ahead of the buffer."""
    d = rho.dim
    n = d * d
    rows, cols = _permuted_rows_cols(rho.support, d, axes)
    if not hermitian:
        cols += n  # columns are nodes n .. 2n-1, after the rows
    nodes = n if hermitian else 2 * n
    values = rho.values
    dropped, holds_entries = _dropped_nodes(rows, cols, values, nodes, hermitian)
    alive = np.ones(nodes, dtype=bool)
    alive[dropped] = False
    if holds_entries:
        kept = alive.take(rows)
        kept &= alive.take(cols)
        rows, cols, values = rows[kept], cols[kept], values[kept]
        del kept
    rows, cols, values = _merge_stars(rows, cols, values, alive, hermitian)
    if hermitian:  # M's pattern is symmetric: one entry of each mirror pair links the two
        upper = rows < cols
        label = _component_labels(rows[upper], cols[upper], nodes)
        del upper
    else:
        label = _component_labels(rows, cols, nodes)
    counts = np.bincount(label, minlength=nodes)
    # each node's place among its component's nodes, rows ahead of columns
    order = np.argsort(label, kind="stable")
    place = np.empty(nodes, dtype=np.intp)
    place[order] = np.arange(nodes) - (np.cumsum(counts) - counts)[label[order]]
    if hermitian:
        height = width = counts
    else:
        height = np.bincount(label[:n], minlength=nodes)
        width = counts - height
        place[n:] -= height[label[n:]]
    # a dropped node is left alone in its component, labelled by itself
    comps = np.flatnonzero((np.minimum(height, width) > 0) & alive)
    comps = comps[np.lexsort((width[comps], height[comps]))]  # by shape, then by label
    a, b = height[comps], width[comps]
    offset = np.zeros(nodes, dtype=np.intp)
    offset[comps] = np.cumsum(a * b) - a * b
    # flat buffer position of M[r, c]: base[r] + place[c]
    base = offset[label] + place * width[label]
    flat = base.take(rows)
    del rows
    flat += place.take(cols)
    return flat, values, a, b


def _trace_norm(rho: FockDensityMatrix, axes: tuple, hermitian: bool) -> float:
    """Sum of the singular values of the matrix M whose 4-index view is the
    (d, d, d, d) view of rho transposed by ``axes``, a permutation that is
    its own inverse, to within 2^-52 of itself.

    M is never formed: ``rho.support`` mapped through ``axes`` is M's nonzero
    pattern.  The nodes (M's indices if ``hermitian``, its rows and then its
    columns otherwise) that :func:`_dropped_nodes` finds too light to move
    the result in double precision are left out with their entries.  The
    connected components of the remaining pattern split M into blocks, a
    permutation rather than an approximation.  A block lists its component's
    rows and columns in index order, blocks of equal shape are stacked in
    label order, and the stacks follow one another by shape in one flat
    buffer (:func:`_blocks`), into which every remaining entry is scattered
    in one pass.  Each stack takes one ``eigvalsh``/``svd`` call, and 1x1
    blocks are read off directly.
    """
    flat, values, a, b = _blocks(rho, axes, hermitian)
    end = np.cumsum(a * b)
    buffer = np.zeros(end[-1] if end.size else 0, dtype=values.dtype)
    buffer[flat] = values
    del flat, values
    stacks = np.flatnonzero(np.diff(a, prepend=-1) | np.diff(b, prepend=-1))
    total = 0.0
    for first, last in zip(stacks, [*stacks[1:], a.size]):
        shape = (last - first, a[first], b[first])
        blocks = buffer[end[first] - a[first] * b[first]:end[last - 1]].reshape(shape)
        if shape[1] == shape[2] == 1:
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
