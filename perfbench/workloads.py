"""Seeded inputs, independent reference values and output checks.

Every reference here is coded in the benchmark from the closed forms of the
physics, never by calling cventangle, so a wrong program output cannot
confirm itself.  Inputs depend only on the seed; the same seed gives
byte-identical descriptor text.

Each checked output ends in one of four outcomes:

* ``ok``: values within tolerance and verdict as expected;
* ``refused``: the known refusal of a pure photon-added state (n = 0) by
  ``swap`` and ``bounds``: the Gauss-Hermite order-doubling self-check is
  relative to the SWAP value, which is exactly zero there, so it raises
  ``ConvergenceError`` (the CLI exits 3) on a valid input;
* ``band``: values within tolerance, but the verdict disagrees with the
  reference while the reference value sits within the path's tolerance of the
  verdict threshold.  This is the known pure-product false "entangled"
  verdict (ROADMAP open item 1): the verdict did not respect the error bound
  of its own path;
* ``wrong``: anything else: a value outside tolerance, a verdict wrong
  outside that band, any other error, or a crash.

``refused`` and ``band`` are known defects of the program.  Their inputs stay
in the streams, are timed and checked like every other, and lower ``ok_ratio``
(so a fix shows as a rise), but they are reported apart from ``failed``, which
counts only unexpected failures (``wrong``).  Any ``wrong`` makes a run
incorrect.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

#: The package's published verdict threshold: witness < -tol, norm > 1 + tol.
DETECTION_TOL = 1e-10
#: Agreement required of closed-form paths.
CLOSED_TOL = 1e-9
#: Agreement required of Gauss-Hermite and generic Gram-spectrum paths.
NUMERIC_TOL = 1e-6

OUTCOMES = ("ok", "refused", "band", "wrong")


@dataclass
class Tally:
    counts: dict = field(default_factory=lambda: dict.fromkeys(OUTCOMES, 0))
    examples: list = field(default_factory=list)

    def add(self, outcome: str, detail: str = "", n: int = 1) -> None:
        self.counts[outcome] += n
        if outcome != "ok" and len(self.examples) < 5:
            self.examples.append(f"{outcome}: {detail}")

    def merge(self, other: "Tally") -> None:
        for key, n in other.counts.items():
            self.counts[key] += n
        self.examples.extend(other.examples[: 5 - len(self.examples)])

    @property
    def attempted(self) -> int:
        return sum(self.counts.values())

    @property
    def known_defects(self) -> int:
        return self.counts["refused"] + self.counts["band"]

    @property
    def failed(self) -> int:
        return self.counts["wrong"]

    @property
    def correct(self) -> bool:
        return self.counts["wrong"] == 0


def _close(value, ref, tol) -> bool:
    if ref is None:
        return value is None
    return isinstance(value, (int, float)) and abs(value - ref) <= tol * max(1.0, abs(ref))


# ---------------------------------------------------------------------------
# closed-form references
# ---------------------------------------------------------------------------

def photon_added_w01(n, r):
    """W(0,1) of the photon-added symmetric squeezed thermal state."""
    return 1.0 - np.exp(4 * r) * n * (1 + n) / (
        (1 + 2 * n) ** 2 * (np.cosh(r) ** 2 + n * np.cosh(2 * r))
    )


def photon_added_swap(n, r):
    """SWAP expectation of the same state: C (m^2 - 1) / (2 m^2 (1 + m C)),
    m = 1 + 2n, C = cosh 2r (Gaussian moments of its Wigner prefactor on the
    x1 = x2, p1 = p2 slice).  Zero for every pure member (n = 0)."""
    m, c = 1 + 2 * n, math.cosh(2 * r)
    return c * (m * m - 1) / (2 * m * m * (1 + m * c))


def gaussian_slice_value(V: np.ndarray, T: np.ndarray) -> float:
    """pi * integral of a zero-mean Gaussian Wigner function over xi = T u:
    1 / (2 sqrt(det V det(T^T V^-1 T)))."""
    M = T.T @ np.linalg.solve(V, T)
    return 1.0 / (2.0 * math.sqrt(np.linalg.det(V) * np.linalg.det(M)))


_W01_SLICE = np.array([[1.0, 0.0], [0.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
_SWAP_SLICE = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])


def squeezed_pair_norm(a, b, c) -> float:
    """Realigned trace norm of the standard form (a, b, c, -c):
    1 / (4 (sqrt(ab) - |c|))."""
    return 1.0 / (4.0 * (math.sqrt(a * b) - abs(c)))


def binary_entropy(x: float) -> float:
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * math.log2(x) - (1 - x) * math.log2(1 - x)


def swap_bounds(v: float) -> dict:
    """Concurrence, EoF (bits) and tangle lower bounds from a SWAP value."""
    if v >= 0:
        return {"concurrenceLower": 0.0, "eofLower": 0.0, "tangleLower": 0.0}
    v = max(v, -1.0)
    return {
        "concurrenceLower": -v,
        "eofLower": binary_entropy((1 + math.sqrt(1 - v * v)) / 2),
        "tangleLower": v * v,
    }


# ---------------------------------------------------------------------------
# grid_scan
# ---------------------------------------------------------------------------

#: Criterion-6 spot values of the photon-added W(0,1) map.
PHOTON_SPOTS = {(1.0, 1.0): -0.9749865698672611, (0.02, 0.02): 0.9799769715656128}


@dataclass(frozen=True)
class ScanSpec:
    descriptor: str
    quantity: str
    axes: tuple  # two "name:min:max:steps" strings

    def grids(self):
        out = []
        for text in self.axes:
            _name, lo, hi, steps = text.split(":")
            out.append(np.linspace(float(lo), float(hi), int(steps)))
        return out

    @property
    def cells(self) -> int:
        a, b = self.grids()
        return len(a) * len(b)


def grid_scan_inputs(seed: int) -> list[ScanSpec]:
    """The two 100x100 maps.  The seed moves every point of the 2+2 window map
    (by at most 0.01, so the share of physical cells, and with it the work,
    stays put); the photon-added map is the fixed criterion-6 grid so its spot
    values apply."""
    rng = np.random.default_rng([seed, 1])
    a_lo, a_hi, c_hi = (float(x) for x in np.array([0.5, 2.0, 1.2]) + 0.01 * rng.random(3))
    two_two = ScanSpec(
        json.dumps({"family": "two_two", "a": 1.0, "b": 1.0, "c": 0.0}),
        "classify",
        (f"a:{a_lo!r}:{a_hi!r}:100", f"c:0.0:{c_hi!r}:100"),
    )
    photon = ScanSpec(
        json.dumps({"family": "photon_added_sts", "n": 1.0, "r": 1.0}),
        "witness01",
        ("n:0.02:2.0:100", "r:0.02:2.0:100"),
    )
    return [two_two, photon]


def _parse_csv(spec: ScanSpec, text: str, tally: Tally):
    """Rows of (p1, p2, value, verdict), or None after tallying a layout error."""
    lines = text.splitlines()
    g1, g2 = spec.grids()
    if lines[:1] != ["param1,param2,value,verdict"] or len(lines) != 1 + len(g1) * len(g2):
        tally.add("wrong", f"{spec.quantity}: bad CSV layout", spec.cells)
        return None
    rows = [line.split(",") for line in lines[1:]]
    p1 = np.array([float(r[0]) for r in rows])
    p2 = np.array([float(r[1]) for r in rows])
    if not (np.array_equal(p1, np.repeat(g1, len(g2))) and np.array_equal(p2, np.tile(g2, len(g1)))):
        tally.add("wrong", f"{spec.quantity}: grid points out of row-major order", spec.cells)
        return None
    values = np.array([float(r[2]) for r in rows])
    verdicts = np.array([r[3] for r in rows])
    return p1, p2, values, verdicts


def _tally_cells(tally: Tally, label: str, wrong, band) -> None:
    wrong = np.asarray(wrong)
    band = np.asarray(band) & ~wrong
    n = wrong.size
    if wrong.any():
        tally.add("wrong", f"{label}: {int(wrong.sum())} cells, first at index {int(np.argmax(wrong))}",
                  int(wrong.sum()))
    if band.any():
        tally.add("band", f"{label}: {int(band.sum())} verdicts at the threshold", int(band.sum()))
    tally.add("ok", n=n - int(wrong.sum()) - int(band.sum()))


def check_two_two_map(spec: ScanSpec, text: str, tally: Tally) -> None:
    """Werner-Wolf-type 2+2 window: unphysical beyond sqrt(ab - sqrt(a^2+b^2-1/16)/4),
    bound entangled where the norm 1/(16 (sqrt(ab) - |c|)^2) exceeds 1."""
    parsed = _parse_csv(spec, text, tally)
    if parsed is None:
        return
    a, c, values, verdicts = parsed
    b = json.loads(spec.descriptor)["b"]
    thr = np.sqrt(a * b - np.sqrt(a * a + b * b - 1.0 / 16.0) / 4.0)
    unphysical = np.abs(c) > thr
    with np.errstate(divide="ignore"):
        norm = 1.0 / (16.0 * (np.sqrt(a * b) - np.abs(c)) ** 2)
    detected = norm > 1.0 + DETECTION_TOL
    expected = np.where(unphysical, "unphysical", np.where(detected, "bound_entangled", "undetected"))
    value_ok = np.where(
        unphysical,
        np.isnan(values),
        np.abs(values - norm) <= CLOSED_TOL * np.maximum(1.0, np.abs(norm)),
    )
    at_edge = (np.abs(np.abs(c) - thr) <= CLOSED_TOL) | (np.abs(norm - 1.0) <= CLOSED_TOL)
    verdict_bad = verdicts != expected
    _tally_cells(tally, "two_two classify", ~value_ok | (verdict_bad & ~at_edge), verdict_bad & at_edge)


def check_photon_map(spec: ScanSpec, text: str, tally: Tally) -> None:
    """Criterion 6: W(0,1) formula on every cell, its sign partition, the
    entangled verdict exactly where the value is negative, and the spot values."""
    parsed = _parse_csv(spec, text, tally)
    if parsed is None:
        return
    n, r, values, verdicts = parsed
    ref = photon_added_w01(n, r)
    value_ok = np.abs(values - ref) <= CLOSED_TOL * np.maximum(1.0, np.abs(ref))
    expected = np.where(ref < -DETECTION_TOL, "entangled", "undetected")
    at_edge = np.abs(ref) <= CLOSED_TOL
    sign_bad = ((values < 0) != (ref < 0)) & ~at_edge
    verdict_bad = verdicts != expected
    spot_bad = np.zeros(values.size, dtype=bool)
    for (sn, sr), frozen in PHOTON_SPOTS.items():
        idx = np.flatnonzero((n == sn) & (r == sr))
        if idx.size != 1:
            tally.add("wrong", f"spot ({sn}, {sr}) missing from the grid")
        elif abs(values[idx[0]] - frozen) > 1e-5:
            spot_bad[idx[0]] = True
    wrong = ~value_ok | sign_bad | spot_bad | (verdict_bad & ~at_edge)
    _tally_cells(tally, "photon-added witness01", wrong, verdict_bad & at_edge)


GRID_CHECKS = {"classify": check_two_two_map, "witness01": check_photon_map}


# ---------------------------------------------------------------------------
# state_eval
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Request:
    text: str
    quantity: str
    kind: str
    product: bool
    expect: dict  # field path -> (reference, tolerance)
    verdict: object  # expected "entangled" flag, or the classify verdict string
    at_edge: bool


#: Requests per quantity and state family in one shuffled block.  No traffic
#: log exists, so the mix is not a guess at traffic: every eval quantity gets
#: the same weight (36 per block), split evenly over the families that support
#: it, as ROADMAP aim 1 asks for "cventangle eval for each quantity".  The
#: raw_covariance realignment share is split evenly over 1+1, 2+2 and 3+3
#: modes, entangled and product.
_PATHS = {
    "optimal_witness": {"standard2": 36},
    "witness01": {"standard2": 12, "photon": 12, "raw2": 12},
    "swap": {"coherent": 9, "standard2": 9, "photon": 9, "raw2": 9},
    "realignment_norm": {"standard2": 12, "two_two": 12,
                         **{f"realign{n}_{k}": 2 for n in (1, 2, 3) for k in ("entangled", "product")}},
    "classify": {"two_two": 36},
    "bounds": {"coherent": 9, "standard2": 9, "photon": 9, "raw2": 9},
}
BLOCK = tuple((kind, quantity) for quantity, kinds in _PATHS.items()
              for kind, weight in kinds.items() for _ in range(weight))


def _passive(rng, m: int) -> np.ndarray:
    """Symplectic matrix of a Haar-random m-mode interferometer (x1, p1, ... order)."""
    z = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    q, r = np.linalg.qr(z)
    u = q * (np.diag(r) / np.abs(np.diag(r)))
    S = np.empty((2 * m, 2 * m))
    S[0::2, 0::2], S[0::2, 1::2] = u.real, -u.imag
    S[1::2, 0::2], S[1::2, 1::2] = u.imag, u.real
    return S


def _symplectic(rng, m: int) -> np.ndarray:
    """Random m-mode Gaussian unitary (Bloch-Messiah: interferometer, squeezers, interferometer)."""
    squeeze = np.repeat(rng.uniform(0.0, 0.6, size=m), 2) * np.tile([-1.0, 1.0], m)
    return _passive(rng, m) @ np.diag(np.exp(squeeze)) @ _passive(rng, m)


def _local_gaussian(rng, m: int, pure: bool):
    """Random m-mode Gaussian covariance S diag(nu) S^T and its purity."""
    nus = np.full(m, 0.25) if pure else rng.uniform(0.25, 0.75, size=m)
    S = _symplectic(rng, m)
    return S @ np.diag(np.repeat(nus, 2)) @ S.T, float(np.prod(0.25 / nus))


def _direct_sum(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    out = np.zeros((A.shape[0] + B.shape[0],) * 2)
    out[: A.shape[0], : A.shape[0]] = A
    out[A.shape[0]:, A.shape[0]:] = B
    return out


def _squeezed_pair(nu_a, nu_b, r):
    """Standard form (a, b, c) of two-mode squeezing r applied to thermal nu_a x nu_b."""
    ch2, sh2 = math.cosh(r) ** 2, math.sinh(r) ** 2
    return nu_a * ch2 + nu_b * sh2, nu_b * ch2 + nu_a * sh2, (nu_a + nu_b) * math.cosh(r) * math.sinh(r)


def _raw(V: np.ndarray) -> str:
    m = V.shape[0] // 2
    V = (V + V.T) / 2.0
    return json.dumps({
        "family": "raw_covariance",
        "modes": m,
        "ordering": ",".join(f"x{i},p{i}" for i in range(1, m + 1)),
        "matrix": V.tolist(),
    })


def _mostly(rng, p_edge: float, edge: float, lo: float, hi: float) -> float:
    """``edge`` with probability ``p_edge``, else uniform on [lo, hi]."""
    return edge if rng.random() < p_edge else float(rng.uniform(lo, hi))


def _witness_request(text, quantity, kind, product, ref, tol) -> Request:
    return Request(text, quantity, kind, product, {"value": (ref, tol)},
                   ref < -DETECTION_TOL, abs(ref) <= tol)


def _bounds_request(text, kind, product, w01, w01_tol, swap, swap_tol) -> Request:
    expect = {"crenLower": (max(0.0, -w01), w01_tol),
              ("inputs", "witnessValue01"): (w01, w01_tol),
              ("inputs", "swapValue"): (swap, swap_tol)}
    expect.update({k: (v, swap_tol) for k, v in swap_bounds(swap).items()})
    return Request(text, "bounds", kind, product, expect,
                   w01 < -DETECTION_TOL or swap < -DETECTION_TOL,
                   abs(w01) <= w01_tol or abs(swap) <= swap_tol)


def _gaussian_request(V, text, quantity, kind, product, w01_tol) -> Request:
    """witness01, swap or bounds of a two-mode Gaussian state; the SWAP value
    always comes from Gauss-Hermite quadrature, hence NUMERIC_TOL."""
    w01 = 1.0 - gaussian_slice_value(V, _W01_SLICE)
    swap = gaussian_slice_value(V, _SWAP_SLICE)
    if quantity == "witness01":
        return _witness_request(text, quantity, kind, product, w01, w01_tol)
    if quantity == "swap":
        return _witness_request(text, quantity, kind, product, swap, NUMERIC_TOL)
    return _bounds_request(text, kind, product, w01, w01_tol, swap, NUMERIC_TOL)


def make_request(rng, kind: str, quantity: str) -> Request:
    if kind == "photon":
        n, r = _mostly(rng, 0.1, 0.0, 0.0, 2.0), _mostly(rng, 0.1, 0.0, 0.0, 1.5)
        text = json.dumps({"family": "photon_added_sts", "n": n, "r": r})
        w01, swap = float(photon_added_w01(n, r)), photon_added_swap(n, r)
        if quantity == "witness01":
            return _witness_request(text, quantity, kind, r == 0.0, w01, CLOSED_TOL)
        if quantity == "swap":
            return _witness_request(text, quantity, kind, r == 0.0, swap, NUMERIC_TOL)
        return _bounds_request(text, kind, r == 0.0, w01, CLOSED_TOL, swap, NUMERIC_TOL)

    if kind == "raw2":
        product = rng.random() < 0.3
        if product:
            (Va, _), (Vb, _) = (_local_gaussian(rng, 1, rng.random() < 0.5) for _ in range(2))
            V = _direct_sum(Va, Vb)
        else:
            V, _ = _local_gaussian(rng, 2, rng.random() < 0.3)
        return _gaussian_request(V, _raw(V), quantity, kind, product, NUMERIC_TOL)

    if kind.startswith("realign"):
        n = int(kind[7])
        product = kind.endswith("product")
        if product:
            (Va, mu_a), (Vb, mu_b) = (_local_gaussian(rng, n, rng.random() < 0.5) for _ in range(2))
            V, ref = _direct_sum(Va, Vb), math.sqrt(mu_a * mu_b)
        else:
            core, ref = np.zeros((4 * n, 4 * n)), 1.0
            for i in range(n):
                nu_a, nu_b = (_mostly(rng, 0.3, 0.25, 0.25, 0.4) for _ in range(2))
                a, b, c = _squeezed_pair(nu_a, nu_b, float(rng.uniform(0.3, 0.9)))
                xa, xb = 2 * i, 2 * (n + i)
                core[xa, xa] = core[xa + 1, xa + 1] = a
                core[xb, xb] = core[xb + 1, xb + 1] = b
                core[xa, xb] = core[xb, xa] = c
                core[xa + 1, xb + 1] = core[xb + 1, xa + 1] = -c
                ref *= squeezed_pair_norm(a, b, c)
            # local Gaussian unitaries leave the realigned trace norm unchanged
            L = _direct_sum(_symplectic(rng, n), _symplectic(rng, n))
            V = L @ core @ L.T
        return Request(_raw(V), quantity, kind, product, {"norm": (ref, NUMERIC_TOL)},
                       ref > 1.0 + DETECTION_TOL, abs(ref - 1.0) <= NUMERIC_TOL)

    if kind == "standard2":
        nu_a, nu_b = (_mostly(rng, 0.4, 0.25, 0.25, 1.0) for _ in range(2))
        r = _mostly(rng, 0.2, 0.0, 0.0, 1.0)
        a, b, c = _squeezed_pair(nu_a, nu_b, r)
        text = json.dumps({"family": "standard2", "a": a, "b": b, "c1": c, "c2": -c})
        norm = squeezed_pair_norm(a, b, c)
        if quantity == "optimal_witness":
            return _witness_request(text, quantity, kind, r == 0.0, 1.0 - norm, CLOSED_TOL)
        if quantity == "realignment_norm":
            return Request(text, quantity, kind, r == 0.0, {"norm": (norm, NUMERIC_TOL)},
                           norm > 1.0 + DETECTION_TOL, abs(norm - 1.0) <= NUMERIC_TOL)
        V = np.array([[a, 0, c, 0], [0, a, 0, -c], [c, 0, b, 0], [0, -c, 0, b]])
        return _gaussian_request(V, text, quantity, kind, r == 0.0, CLOSED_TOL)

    if kind == "two_two":
        a, b = (float(x) for x in rng.uniform(0.5, 2.0, size=2))
        thr = math.sqrt(a * b - math.sqrt(a * a + b * b - 1.0 / 16.0) / 4.0)
        # c = 0 is a product state, |c| = thr the edge of the physical region;
        # classify also sees unphysical points up to 1.2 thr
        reach = 1.0 if quantity == "realignment_norm" else 1.2
        c = float(rng.choice([0.0, thr, rng.uniform(0.0, reach * thr)], p=[0.1, 0.1, 0.8]))
        c *= rng.choice([-1.0, 1.0])
        text = json.dumps({"family": "two_two", "a": a, "b": b, "c": c})
        norm = 1.0 / (16.0 * (math.sqrt(a * b) - abs(c)) ** 2)
        detected = norm > 1.0 + DETECTION_TOL
        if quantity == "realignment_norm":
            return Request(text, quantity, kind, c == 0.0, {"norm": (norm, NUMERIC_TOL)},
                           detected, abs(norm - 1.0) <= NUMERIC_TOL)
        at_thr = abs(abs(c) - thr) <= CLOSED_TOL
        expect = {"threshold": (thr, CLOSED_TOL)}
        if abs(c) > thr:
            verdict = "unphysical"
            expect["norm"] = (None, 0.0)
        else:
            verdict = "bound_entangled" if detected else "undetected"
            if not at_thr:
                expect["norm"] = (norm, CLOSED_TOL)
        return Request(text, quantity, kind, c == 0.0, expect, verdict,
                       at_thr or abs(norm - 1.0) <= CLOSED_TOL)

    if kind == "coherent":
        p = float(rng.choice([0.0, 1.0, rng.uniform(0.0, 1.0)], p=[0.1, 0.1, 0.8]))
        a1, a2 = (complex(rng.uniform(0, 1.5) * np.exp(1j * rng.uniform(0, 2 * math.pi)))
                  for _ in range(2))
        d2 = abs(a1 - a2) ** 2
        swap = p * (math.exp(-d2) - 1.0) + 1.0 - p
        w01 = p * (1.0 - math.exp(-d2))
        text = json.dumps({"family": "coherent_mixture", "p": p,
                           "alpha1": [a1.real, a1.imag], "alpha2": [a2.real, a2.imag]})
        if quantity == "swap":
            return _witness_request(text, quantity, kind, p == 0.0, swap, CLOSED_TOL)
        return _bounds_request(text, kind, p == 0.0, w01, CLOSED_TOL, swap, CLOSED_TOL)

    raise ValueError(f"unknown request kind {kind!r}")


def state_eval_requests(seed: int):
    """Endless seeded request stream, one shuffled block at a time."""
    rng = np.random.default_rng([seed, 2])
    while True:
        for i in rng.permutation(len(BLOCK)):
            req = make_request(rng, *BLOCK[i])
            if req.product and req.verdict is True:
                raise AssertionError(f"product-state reference says entangled: {req.text}")
            yield req


def known_refusal(req: Request, err: Exception) -> bool:
    """True for the known ``ConvergenceError`` of swap or bounds on a pure
    photon-added state (n = 0); every other error is a wrong output."""
    return (type(err).__name__ == "ConvergenceError" and req.kind == "photon"
            and req.quantity in ("swap", "bounds") and json.loads(req.text)["n"] == 0.0)


def _field(record: dict, path):
    if isinstance(path, tuple):
        for key in path:
            record = record[key]
        return record
    return record[path]


def check_record(req: Request, record: dict) -> tuple[str, str]:
    """Outcome of one eval record against the request's references."""
    label = f"{req.kind}/{req.quantity}"
    try:
        for path, (ref, tol) in req.expect.items():
            value = _field(record, path)
            if not _close(value, ref, tol):
                return "wrong", f"{label} {path}={value!r}, reference {ref!r}: {req.text[:120]}"
        if req.quantity == "classify":
            flag = record["verdict"]
        elif req.quantity == "realignment_norm":
            flag = record["verdict"] == "entangled"
        else:
            flag = record["entangled"]
    except (KeyError, TypeError) as exc:
        return "wrong", f"{label} record lacks {exc}: {req.text[:120]}"
    if flag != req.verdict:
        outcome = "band" if req.at_edge else "wrong"
        return outcome, f"{label} verdict {flag}, reference {req.verdict}: {req.text[:120]}"
    return "ok", ""


# ---------------------------------------------------------------------------
# oracle_verify
# ---------------------------------------------------------------------------

VERIFY_ARGV = ["verify", "--cutoff", "40", "--rmax", "0.6"]
VERIFY_CHECKS = 10


def check_verify(rc: int, stdout: str, tally: Tally) -> None:
    """Exit code 0, ``all_pass`` and every one of the ten checks passing."""
    try:
        report = json.loads(stdout)
        checks = report["checks"]
    except (json.JSONDecodeError, KeyError, TypeError):
        tally.add("wrong", f"verify printed no report (exit {rc})", VERIFY_CHECKS)
        return
    bad = [c["name"] for c in checks if not c.get("pass")]
    if rc != 0 or report.get("all_pass") is not True or len(checks) != VERIFY_CHECKS:
        ok = max(0, min(VERIFY_CHECKS - 1, len(checks) - len(bad)))
        tally.add("wrong", f"verify exit {rc}, all_pass {report.get('all_pass')}, failing {bad}",
                  VERIFY_CHECKS - ok)
        tally.add("ok", n=ok)
        return
    tally.add("ok", n=len(checks))
