"""Acceptance suite: one test per release criterion, each printing a PASS/FAIL
line (run ``pytest -s tests/test_acceptance.py`` to see them).

Expected constants are frozen from independent evaluations of the closed
forms; every random sweep is seeded.  Each criterion also enforces its
runtime budget.
"""

import math
import time

import numpy as np
import pytest
from scipy.optimize import brentq

import cventangle as cv
from cventangle.cli import ScanAxis, run_scan
from conftest import (
    is_ppt,
    partial_transpose,
    random_product_cov,
    random_product_form,
    random_physical_cov,
    random_standard_form,
    random_symplectic,
)

SEED = 971203


def report(num: int, label: str, ok: bool, detail: str = ""):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {label}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num} failed: {label} {detail}"


class Budget:
    def __init__(self, seconds):
        self.limit = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        return False


def test_criterion_1_optimal_witness_closed_form():
    rng = np.random.default_rng(SEED)
    with Budget(1.0) as budget:
        worst_formula = 0.0
        worst_minimum = -np.inf
        for _ in range(200):
            s = random_standard_form(rng, margin=1e-3)
            opt = cv.optimal_witness(s)
            sab = math.sqrt(s.a * s.b)
            formula = 1.0 - 1.0 / (4.0 * math.sqrt((sab - abs(s.c1)) * (sab - abs(s.c2))))
            worst_formula = max(worst_formula, abs(opt.value - formula))
            for _ in range(50):
                mu1, mu2 = rng.uniform(-2.0, 2.0, size=2)
                if abs((mu1 - mu2) * (mu1 + mu2)) < 1e-3:
                    continue
                gap = opt.value - cv.witness_expectation_gaussian(s, cv.WitnessParams(mu1, mu2))
                worst_minimum = max(worst_minimum, gap)
    ok = worst_formula <= 1e-12 and worst_minimum <= 1e-10 and budget.elapsed < 1.0
    report(
        1,
        "witness optimum matches closed form and is the global minimum",
        ok,
        f"formula dev {worst_formula:.2e}, min gap {worst_minimum:.2e}, {budget.elapsed:.2f}s",
    )


def test_criterion_2_quadrature_matches_closed_form():
    rng = np.random.default_rng(SEED + 1)
    with Budget(30.0) as budget:
        worst = 0.0
        for _ in range(100):
            s = random_standard_form(rng, margin=1e-3)
            while True:
                mu1, mu2 = rng.uniform(-2.0, 2.0, size=2)
                if abs((mu1 - mu2) * (mu1 + mu2)) > 1e-3:
                    break
            w = cv.WitnessParams(mu1, mu2)
            closed = cv.witness_expectation_gaussian(s, w)
            determinant = cv.witness_expectation_gaussian(s.covariance(), w)
            worst = max(worst, abs(determinant - closed))
    ok = worst <= 1e-6 and budget.elapsed < 30.0
    report(2, "covariance-determinant witness matches the Gaussian closed form",
           ok, f"max dev {worst:.2e}, {budget.elapsed:.1f}s")


def test_criterion_3_gram_covariance_anchors():
    rng = np.random.default_rng(SEED + 2)
    worst_entry = 0.0
    worst_a0 = 0.0
    for _ in range(50):
        s = random_standard_form(rng)
        gram, a0 = cv.realigned_gram_covariance(s.covariance())
        d1, d2 = s.a * s.b - s.c1**2, s.a * s.b - s.c2**2
        ref = np.zeros((4, 4))
        diag = [(s.b + 16 * s.a * d2) / (32 * d2), (s.b + 16 * s.a * d1) / (32 * d1)]
        off = [(s.b - 16 * s.a * d2) / (32 * d2), (s.b - 16 * s.a * d1) / (32 * d1)]
        ref[0, 0] = ref[2, 2] = diag[0]
        ref[1, 1] = ref[3, 3] = diag[1]
        ref[0, 2] = ref[2, 0] = -off[0]
        ref[1, 3] = ref[3, 1] = off[1]
        worst_entry = max(worst_entry, float(np.abs(gram.matrix - ref).max()))
        worst_a0 = max(worst_a0, abs(a0 - 1.0 / (16.0 * math.sqrt(d1 * d2))))
    for _ in range(50):
        a, b = rng.uniform(0.3, 2.0, size=2)
        c = rng.uniform(-1.0, 1.0) * cv.family_threshold(a, b)
        gram, a0 = cv.realigned_gram_covariance(cv.two_two_family(a, b, c))
        d = a * b - c * c
        ref = np.diag([(b + 16 * a * d) / (32 * d)] * 8)
        for i, sign in zip(range(4), (-1.0, 1.0, -1.0, 1.0)):
            ref[i, i + 4] = ref[i + 4, i] = sign * (b - 16 * a * d) / (32 * d)
        worst_entry = max(worst_entry, float(np.abs(gram.matrix - ref).max()))
        worst_a0 = max(worst_a0, abs(a0 - (1.0 / (16.0 * d)) ** 2))
    ok = worst_entry <= 1e-12 and worst_a0 <= 1e-12
    report(3, "realigned Gram covariance reproduces both reference matrices",
           ok, f"entry dev {worst_entry:.2e}, a0 dev {worst_a0:.2e}")


def test_criterion_4_generic_pipeline_matches_closed_forms():
    rng = np.random.default_rng(SEED + 3)
    with Budget(5.0) as budget:
        worst = 0.0
        for _ in range(200):
            s = random_standard_form(rng, margin=1e-3)
            generic = cv.realignment_norm(s.covariance()).norm
            worst = max(worst, abs(generic - cv.realignment_norm(s).norm))
        for _ in range(200):
            a, b = rng.uniform(0.3, 2.0, size=2)
            c = rng.uniform(-0.999, 0.999) * cv.family_threshold(a, b)
            generic = cv.realignment_norm(cv.two_two_family(a, b, c)).norm
            worst = max(worst, abs(generic - cv.classify_two_two(a, b, c).norm))
    ok = worst <= 1e-10 and budget.elapsed < 5.0
    report(4, "generic realignment pipeline matches both closed forms",
           ok, f"max dev {worst:.2e}, {budget.elapsed:.1f}s")


def test_criterion_5_bound_entanglement_window():
    with Budget(10.0) as budget:
        lower = math.sqrt(1.0) - 0.25          # sqrt(ab) - 1/4 at a = b = 1
        upper = cv.family_threshold(1.0, 1.0)  # sqrt(ab - sqrt(a^2+b^2-1/16)/4)
        # cross-check the upper endpoint against the eigenvalue test by bisection
        lo, hi = 0.0, 1.0
        for _ in range(60):
            mid = (lo + hi) / 2
            if cv.is_physical(cv.two_two_family(1.0, 1.0, mid)):
                lo = mid
            else:
                hi = mid
        endpoint_dev = abs(lo - upper)
        window_ok = endpoint_dev <= 1e-8
        for c in np.arange(0.0, 0.811, 1e-3):
            res = cv.classify_two_two(1.0, 1.0, float(c))
            expected = (
                "unphysical" if c > upper
                else "bound_entangled" if c > lower
                else "undetected"
            )
            if res.verdict != expected:
                window_ok = False
                break
            if res.verdict != "unphysical":
                if not is_ppt(cv.two_two_family(1.0, 1.0, float(c)), modes_b=(2, 3)):
                    window_ok = False
                    break
    ok = window_ok and budget.elapsed < 10.0
    report(5, f"bound entanglement exactly on ({lower}, {upper:.6f}], PPT throughout",
           ok, f"endpoint dev {endpoint_dev:.2e}, {budget.elapsed:.1f}s")


def test_criterion_6_detection_region_map(tmp_path):
    with Budget(5.0) as budget:
        out = tmp_path / "region.csv"
        run_scan(
            {"family": "photon_added_sts", "n": 1.0, "r": 1.0},
            "witness01",
            ScanAxis("n", 0.02, 2.0, 100),
            ScanAxis("r", 0.02, 2.0, 100),
            str(out),
            workers=1,
        )
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert len(rows) == 10000
        grid = {(float(r[0]), float(r[1])): (float(r[2]), r[3]) for r in rows}
        spot_a = grid[(1.0, 1.0)][0]
        spot_b = grid[(0.02, 0.02)][0]
        # frozen independent evaluations of the closed form
        dev_a = abs(spot_a - (-0.9749865698672611))
        dev_b = abs(spot_b - 0.9799769715656128)
        sign_ok = all(
            (value < 0) == (verdict == "entangled")
            and (cv.witness_photon_added_closed(n, r) < 0) == (value < 0)
            for (n, r), (value, verdict) in grid.items()
        )
    ok = dev_a <= 1e-5 and dev_b <= 1e-5 and sign_ok and budget.elapsed < 5.0
    report(6, "100x100 detection map reproduces spot values and sign partition",
           ok, f"spot devs {dev_a:.1e}/{dev_b:.1e}, {budget.elapsed:.1f}s")


def test_criterion_7_fock_oracle_equivalence():
    with Budget(60.0) as budget:
        # at cutoff 64 the truncated tail tanh(0.6)^130 is 8e-36, so every
        # deviation is rounding alone (at most 1.8e-15; 5.7e-11 at cutoff 40)
        rho = cv.tmsv_fock(0.6, 64)
        target = math.exp(1.2)
        dev_realign = abs(cv.realignment_trace_norm_fock(rho) - target)
        w01 = cv.witness_fock(rho, "W01")
        dev_witness = abs(w01 - (1.0 - target))
        neg = cv.negativity_fock(rho)
        dev_neg = abs(neg - (target - 1.0))
        dev_cren = abs(cv.cren_lower_bound(w01) - neg)
    ok = (
        max(dev_realign, dev_witness, dev_neg, dev_cren) <= 1e-12
        and budget.elapsed < 60.0
    )
    report(7, "cutoff-64 Fock oracle matches every closed form at r = 0.6 within 1e-12",
           ok,
           f"devs {dev_realign:.1e}/{dev_witness:.1e}/{dev_neg:.1e}/{dev_cren:.1e}, "
           f"{budget.elapsed:.1f}s")


def test_criterion_8_coherent_mixture_chain():
    with Budget(10.0) as budget:
        swap = cv.swap_expectation_coherent_mixture(0.6, 1.0, -1.0)
        dev_swap = abs(swap - (-0.18901061666675945))
        rho = cv.coherent_mixture_fock(0.6, 1.0, -1.0, 25)
        dev_fock = abs(cv.witness_fock(rho, "SWAP") - swap)
        dev_eof = abs(cv.eof_lower_bound(swap) - 0.07417300751574409)
        dev_tangle = abs(cv.tangle_lower_bound(swap) - 0.035725013212748686)
        root = brentq(
            lambda p: cv.swap_expectation_coherent_mixture(p, 1.0, -1.0), 0.3, 0.7,
            xtol=1e-12,
        )
        dev_root = abs(root - 0.5046212301131708)
    ok = (
        dev_swap <= 1e-5
        and dev_fock <= 1e-6
        and dev_eof <= 1e-5
        and dev_tangle <= 1e-6
        and dev_root <= 1e-5
        and budget.elapsed < 10.0
    )
    report(8, "coherent-mixture chain: SWAP value, oracle match, measure bounds, sign change",
           ok,
           f"devs swap {dev_swap:.1e}, fock {dev_fock:.1e}, eof {dev_eof:.1e}, "
           f"tangle {dev_tangle:.1e}, root {dev_root:.1e}, {budget.elapsed:.1f}s")


def test_criterion_9_property_suite():
    rng = np.random.default_rng(SEED + 4)
    with Budget(30.0) as budget:
        # symplectic invariance of the spectrum
        worst_inv = 0.0
        for _ in range(100):
            m = int(rng.integers(1, 4))
            V = random_physical_cov(rng, m)
            S = random_symplectic(rng, m)
            nus = np.array(cv.symplectic_eigenvalues(V).nus)
            nus_t = np.array(
                cv.symplectic_eigenvalues(cv.CovarianceMatrix(S @ V.matrix @ S.T)).nus
            )
            worst_inv = max(worst_inv, float(np.abs(nus - nus_t).max()))
        inv_ok = worst_inv <= 1e-8

        # partial transpose is a bit-exact involution
        involution_ok = True
        for _ in range(100):
            V = random_physical_cov(rng, int(rng.integers(1, 4)))
            modes = [int(rng.integers(0, V.modes))]
            back = partial_transpose(partial_transpose(V, modes), modes)
            if not np.array_equal(back.matrix, V.matrix):
                involution_ok = False
                break

        # separable guards
        witness_guard = 0.0
        norm_guard = 0.0
        for _ in range(500):
            witness_guard = min(witness_guard, cv.optimal_witness(random_product_form(rng)).value)
            norm_guard = max(norm_guard, cv.realignment_norm(random_product_cov(rng)).norm)
        guards_ok = witness_guard >= -1e-12 and norm_guard <= 1.0 + 1e-10

        # witness and realignment verdicts agree
        verdict_ok = True
        for _ in range(500):
            s = random_standard_form(rng, margin=1e-3)
            value = cv.optimal_witness(s).value
            norm = cv.realignment_norm(s).norm
            if abs(value) > 1e-9 and (value < 0) != (norm > 1.0):
                verdict_ok = False
                break
    ok = inv_ok and involution_ok and guards_ok and verdict_ok and budget.elapsed < 30.0
    report(9, "property suite: invariance, involution, separable guards, verdict equivalence",
           ok,
           f"inv {worst_inv:.1e}, guards w>={witness_guard:.1e} n<={norm_guard:.6f}, "
           f"{budget.elapsed:.1f}s")
