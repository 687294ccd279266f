"""Property tests over every state family, driven through the family table.

Each family's generator reaches the edges of its physical domain (pure states,
n = 0, r = 0, p in {0, 1}, |c| at the 2+2 threshold) rather than stepping
around them.  References are closed forms written out in this file.
"""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cventangle import InvalidArgumentError, parse_state_descriptor, state_descriptor
from cventangle.cli import evaluate_quantity

TOL = 1e-10
PROPERTY = settings(max_examples=60, deadline=None, database=None)


def unit_or(lo, hi, *edges):
    """Floats on [lo, hi] with the given edge values drawn often."""
    return st.one_of(st.sampled_from(edges), st.floats(lo, hi))


def evaluate(doc, quantity):
    """Parse, evaluate and check that the record is strict JSON."""
    state = parse_state_descriptor(doc)
    assert state_descriptor(state) == doc
    record = evaluate_quantity(state, quantity)
    json.dumps(record, allow_nan=False)
    assert type(record.get("entangled", False)) is bool
    return record


def close(value, ref, tol=TOL):
    return abs(value - ref) <= tol * max(1.0, abs(ref))


@PROPERTY
@given(
    nu_a=unit_or(0.25, 1.5, 0.25),
    nu_b=unit_or(0.25, 1.5, 0.25),
    r=unit_or(0.0, 1.2, 0.0),
)
def test_standard2(nu_a, nu_b, r):
    # thermal pair (nu_a, nu_b) under two-mode squeezing r: always physical,
    # pure at nu_a = nu_b = 1/4, a product at r = 0
    ch, sh = math.cosh(r), math.sinh(r)
    a, b = nu_a * ch * ch + nu_b * sh * sh, nu_a * sh * sh + nu_b * ch * ch
    c = (nu_a + nu_b) * sh * ch
    doc = {"family": "standard2", "a": a, "b": b, "c1": c, "c2": -c}
    w01 = evaluate(doc, "witness01")["value"]
    # (mu1, mu2) = (0, 1): K- = K+ = a + b - 2c
    assert close(w01, 1.0 - 1.0 / (2.0 * (a + b - 2 * c)))
    opt = evaluate(doc, "optimal_witness")
    assert opt["value"] <= w01 + TOL
    swap = evaluate(doc, "swap")
    assert close(swap["value"], 1.0 / (2.0 * (a + b - 2 * c) ** 0.5 * (a + b + 2 * c) ** 0.5))
    assert swap["entangled"] is False
    if r == 0.0:
        assert opt["entangled"] is False
    bounds = evaluate(doc, "bounds")
    assert bounds["entangled"] == (w01 < -TOL or swap["value"] < -TOL)


@PROPERTY
@given(
    a=unit_or(0.25, 2.0, 0.25, 1.0),
    b=unit_or(0.25, 2.0, 0.25, 1.0),
    where=st.sampled_from(["zero", "threshold", "inside", "outside"]),
    frac=st.floats(0.0, 1.0),
    sign=st.sampled_from([-1.0, 1.0]),
)
def test_two_two(a, b, where, frac, sign):
    thr = math.sqrt(max(a * b - math.sqrt(a * a + b * b - 1.0 / 16.0) / 4.0, 0.0))
    c = sign * {"zero": 0.0, "threshold": thr, "inside": frac * thr,
                "outside": thr * (1.0 + 0.2 * frac) + 1e-9}[where]
    record = evaluate({"family": "two_two", "a": a, "b": b, "c": c}, "classify")
    assert close(record["threshold"], thr, 1e-12)
    if where == "outside":
        assert record["verdict"] == "unphysical" and record["norm"] is None
        return
    norm = 1.0 / (16.0 * (math.sqrt(a * b) - abs(c)) ** 2)
    assert close(record["norm"], norm, 1e-9)
    expected = "bound_entangled" if norm > 1.0 + TOL else "undetected"
    if not close(norm, 1.0, 1e-9):
        assert record["verdict"] == expected
    if where == "zero":
        assert record["verdict"] == "undetected"


@PROPERTY
@given(n=unit_or(0.0, 2.0, 0.0), r=unit_or(0.0, 1.5, 0.0))
def test_photon_added_sts(n, r):
    doc = {"family": "photon_added_sts", "n": n, "r": r}
    w01 = 1.0 - math.exp(4 * r) * n * (1 + n) / (
        (1 + 2 * n) ** 2 * (math.cosh(r) ** 2 + n * math.cosh(2 * r))
    )
    m, cc = 1 + 2 * n, math.cosh(2 * r)
    swap = cc * (m * m - 1) / (2 * m * m * (1 + m * cc))
    record = evaluate(doc, "witness01")
    assert close(record["value"], w01, 1e-12)
    assert record["entangled"] == (w01 < -TOL)
    record = evaluate(doc, "swap")
    assert close(record["value"], swap, 1e-12)
    assert record["entangled"] is False
    bounds = evaluate(doc, "bounds")
    assert close(bounds["crenLower"], max(0.0, -w01), 1e-12)
    assert bounds["entangled"] == (w01 < -TOL)


amplitude = st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5))


@PROPERTY
@given(p=unit_or(0.0, 1.0, 0.0, 1.0), a1=amplitude, a2=amplitude, same=st.booleans())
def test_coherent_mixture(p, a1, a2, same):
    a2 = a1 if same else a2
    doc = {"family": "coherent_mixture", "p": p, "alpha1": list(a1), "alpha2": list(a2)}
    if p == 1.0 and a1 == a2:
        with pytest.raises(InvalidArgumentError, match="degenerate"):
            parse_state_descriptor(doc)
        return
    overlap = math.exp(-((a1[0] - a2[0]) ** 2 + (a1[1] - a2[1]) ** 2))
    w01 = evaluate(doc, "witness01")["value"]
    assert close(w01, p * (1.0 - overlap), 1e-12) and w01 >= 0.0
    swap = evaluate(doc, "swap")
    assert close(swap["value"], p * (overlap - 1.0) + 1.0 - p, 1e-12)
    bounds = evaluate(doc, "bounds")
    assert bounds["crenLower"] == 0.0
    assert bounds["entangled"] == swap["entangled"] == (swap["value"] < -TOL)


@PROPERTY
@given(
    nus=st.tuples(unit_or(0.25, 1.5, 0.25), unit_or(0.25, 1.5, 0.25)),
    squeeze=st.tuples(unit_or(-0.8, 0.8, 0.0), unit_or(-0.8, 0.8, 0.0)),
)
def test_raw_covariance_products(nus, squeeze):
    # product of two locally squeezed thermal modes, pure ones included: the
    # SWAP expectation is the state overlap, never below zero
    diag = [nus[0] * math.exp(2 * squeeze[0]), nus[0] * math.exp(-2 * squeeze[0]),
            nus[1] * math.exp(2 * squeeze[1]), nus[1] * math.exp(-2 * squeeze[1])]
    matrix = [[diag[i] if i == j else 0.0 for j in range(4)] for i in range(4)]
    doc = {"family": "raw_covariance", "modes": 2, "ordering": "x1,p1,x2,p2", "matrix": matrix}
    swap = evaluate(doc, "swap")
    assert swap["value"] >= -TOL and swap["entangled"] is False
    w01 = evaluate(doc, "witness01")
    assert w01["entangled"] is False


GOOD = {
    "standard2": {"family": "standard2", "a": 0.5, "b": 0.5, "c1": 0.1, "c2": -0.1},
    "two_two": {"family": "two_two", "a": 1.0, "b": 1.0, "c": 0.78},
    "photon_added_sts": {"family": "photon_added_sts", "n": 0.0, "r": 0.0},
    "coherent_mixture": {"family": "coherent_mixture", "p": 1.0, "alpha1": [1.0, 0.0],
                         "alpha2": [0.0, 1.0]},
    "raw_covariance": {"family": "raw_covariance", "modes": 1, "ordering": "x1,p1",
                       "matrix": [[0.25, 0.0], [0.0, 0.25]]},
}


def _numeric_slots(doc):
    """(field, index path) of every number in a descriptor."""
    for field, value in doc.items():
        if field == "family" or isinstance(value, str):
            continue
        if isinstance(value, list):
            for i, item in enumerate(value):
                if isinstance(item, list):
                    yield from ((field, (i, j)) for j in range(len(item)))
                else:
                    yield field, (i,)
        else:
            yield field, ()


SLOTS = [(name, slot) for name, doc in GOOD.items() for slot in _numeric_slots(doc)]


@PROPERTY
@given(
    target=st.sampled_from(SLOTS),
    bad=st.sampled_from([math.nan, math.inf, -math.inf, True, False, 10**400, "1.0", None]),
)
def test_bad_numeric_field_rejected(target, bad):
    name, (field, path) = target
    doc = json.loads(json.dumps(GOOD[name]))
    parse_state_descriptor(doc)
    if path:
        holder = doc[field]
        for i in path[:-1]:
            holder = holder[i]
        holder[path[-1]] = bad
    else:
        doc[field] = bad
    with pytest.raises(InvalidArgumentError):
        parse_state_descriptor(doc)
