"""Property tests over every state family, driven through the family table.

Each family's generator reaches the edges of its physical domain (pure states,
n = 0, r = 0, p in {0, 1}, |c| at the 2+2 threshold) rather than stepping
around them.  References are closed forms written out in this file, or the
Gaussian-moment reference in ``conftest``.
"""

import json
import math
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cventangle import (CovarianceMatrix, CVEntangleError, InvalidArgumentError, WitnessParams,
                        bound_report, cli, family_threshold,
                        parse_state_descriptor, realigned_gram_covariance,
                        realignment_norm, state_descriptor,
                        symplectic_eigenvalues, two_two_family)
from cventangle.cli import evaluate_quantity
from cventangle.realignment import DETECTION_TOL, standard_form_norm
from cventangle.states import family_named
from conftest import WignerSpec, moments_swap, moments_witness, two_mode_cov

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


def assert_gram_spectrum(record, V):
    """The record's closed-form nus and a0 against the generic Gram pipeline."""
    gram, a0 = realigned_gram_covariance(V)
    nus = symplectic_eigenvalues(gram).nus
    assert len(record["nus"]) == len(nus)
    for value, ref in zip(record["nus"], nus):
        assert abs(value - ref) <= 1e-12 * ref
    assert abs(record["a0"] - a0) <= 1e-12 * a0


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
    realign = evaluate(doc, "realignment_norm")
    state = parse_state_descriptor(doc)
    assert realign["norm"] == realignment_norm(state).norm
    assert_gram_spectrum(realign, state.covariance())
    if r == 0.0:
        assert realign["nus"] == [0.25, 0.25] and realign["verdict"] == "undetected"


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
    doc = {"family": "two_two", "a": a, "b": b, "c": c}
    V = two_two_family(a, b, c)
    if abs(c) <= thr:
        realign = evaluate(doc, "realignment_norm")
        assert realign["norm"] == standard_form_norm(a, b, (c,) * 4)
        assert_gram_spectrum(realign, V)
    else:
        with pytest.raises(InvalidArgumentError, match="physicality"):
            evaluate(doc, "realignment_norm")
    record = evaluate(doc, "classify")
    assert close(record["threshold"], thr, 1e-12)
    if where == "outside":
        assert record["verdict"] == "unphysical" and record["norm"] is None
        return
    assert [record[key] for key in ("norm", "nus", "a0")] == [
        realign[key] for key in ("norm", "nus", "a0")]
    norm = 1.0 / (16.0 * (math.sqrt(a * b) - abs(c)) ** 2)
    assert close(record["norm"], norm, 1e-9)
    expected = "bound_entangled" if norm > 1.0 + TOL else "undetected"
    if not close(norm, 1.0, 1e-9):
        assert record["verdict"] == expected
    if where == "zero":
        assert record["verdict"] == "undetected"


@PROPERTY
@given(
    a=unit_or(0.25, 50.0, 0.25, 1.0),
    b=unit_or(0.25, 50.0, 0.25, 1.0),
    ulps=st.integers(-4, 4),
    frac=st.floats(0.0, 1.5),
    near=st.booleans(),
    sign=st.sampled_from([-1.0, 1.0]),
)
def test_two_two_gate_is_classify(a, b, ulps, frac, near, sign):
    # realignment_norm refuses exactly the points classify calls unphysical,
    # including those within a few ulps of the threshold
    c = family_threshold(a, b)
    for _ in range(abs(ulps)):
        c = math.nextafter(c, math.copysign(math.inf, ulps))
    c = sign * (c if near else frac * c)
    doc = {"family": "two_two", "a": a, "b": b, "c": c}

    def outcome(quantity):
        try:
            return evaluate(doc, quantity)
        except CVEntangleError as exc:
            return exc

    classified, realigned = outcome("classify"), outcome("realignment_norm")
    unphysical = isinstance(classified, dict) and classified["verdict"] == "unphysical"
    refused = isinstance(realigned, InvalidArgumentError) and "physicality" in str(realigned)
    assert unphysical == refused


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
    overlap = math.exp(-abs(complex(*a1) - complex(*a2)) ** 2)
    if 1.0 - p * overlap <= 1e-15:  # the operator trace
        with pytest.raises(InvalidArgumentError, match="degenerate"):
            parse_state_descriptor(doc)
        return
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


local_op = st.tuples(unit_or(-0.4, 0.4, 0.0), st.tuples(st.floats(0.0, 2 * math.pi),
                                                      st.floats(0.0, 2 * math.pi)))


@PROPERTY
@given(
    nus=st.tuples(unit_or(0.25, 1.5, 0.25), unit_or(0.25, 1.5, 0.25)),
    theta=unit_or(0.0, math.pi, 0.0),
    r=unit_or(0.0, 1.75, 0.0, 1.75),
    local=st.tuples(local_op, local_op),
)
def test_raw_covariance_two_mode(nus, theta, r, local):
    # a pure pair at r = 1.75 has sqrt(ab) - |c| down to 1.8e-3 sqrt(ab);
    # nearer the edge the reference's solve and slogdet round at about
    # cond(V) eps and no longer resolve 1e-12
    V = two_mode_cov(nus, theta, r, local)
    doc = {"family": "raw_covariance", "modes": 2, "ordering": "x1,p1,x2,p2",
           "matrix": V.tolist()}
    spec = WignerSpec(CovarianceMatrix(V))
    w01, swap = moments_witness(spec, WitnessParams(0.0, 1.0)), moments_swap(spec)
    assert close(evaluate(doc, "witness01")["value"], w01, 1e-12)
    assert close(evaluate(doc, "swap")["value"], swap, 1e-12)
    bounds = evaluate(doc, "bounds")
    ref = bound_report(w01, swap)
    for key, value in [("crenLower", ref.cren_lower), ("concurrenceLower", ref.concurrence_lower),
                       ("eofLower", ref.eof_lower), ("tangleLower", ref.tangle_lower)]:
        assert close(bounds[key], value, 1e-12)
    assert close(bounds["inputs"]["witnessValue01"], w01, 1e-12)
    assert close(bounds["inputs"]["swapValue"], swap, 1e-12)


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


# ---------------------------------------------------------------------------
# grid evaluation: every cell of a one-pass grid equals the per-state path
# ---------------------------------------------------------------------------

def reference_cell(doc, quantity) -> tuple[str, str]:
    """The scan cell of one state, as CSV text, projected from its ``eval``
    record by the rule of the scan format (not by the scan code)."""
    try:
        record = evaluate_quantity(parse_state_descriptor(doc), quantity)
    except CVEntangleError:
        return "nan", "invalid"
    if quantity in ("realignment_norm", "classify"):
        value, verdict = record["norm"], record["verdict"]
    else:
        value = record["crenLower" if quantity == "bounds" else "value"]
        verdict = "entangled" if record["entangled"] else "undetected"
    return repr(math.nan if value is None else value), verdict


def assert_grid_equals_cells(base, quantity, axes):
    assert quantity in family_named(base["family"]).grid
    axis1, axis2 = (cli.ScanAxis.parse(text) for text in axes)
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "grid.csv")
        cli.run_scan(base, quantity, axis1, axis2, out)
        with open(out) as fh:
            rows = [line.split(",") for line in fh.read().splitlines()[1:]]
    assert len(rows) == axis1.steps * axis2.steps
    for v1, v2, value, verdict in rows:
        doc = {**base, axis1.name: float(v1)}
        doc[axis2.name] = float(v2)
        assert (value, verdict) == reference_cell(doc, quantity), doc


@PROPERTY
@given(
    a=unit_or(0.25, 2.0, 0.25, 1.0),
    b=unit_or(0.25, 2.0, 0.25, 1.0),
    a_far=unit_or(0.1, 2.0, 0.25),
    edge=st.sampled_from(["threshold", "detected"]),
    u=st.floats(1e-3, 1.0),
    c_far=st.floats(-1.3, 1.3),
    sign=st.sampled_from([-1.0, 1.0]),
    steps=st.tuples(st.integers(2, 4), st.integers(2, 4)),
)
def test_two_two_classify_grid(a, b, a_far, edge, u, c_far, sign, steps):
    # the c axis starts exactly at |c| = threshold(a, b), or where the norm
    # is just above 1 + DETECTION_TOL, at the first point of the a axis
    if edge == "threshold":
        c_edge = family_threshold(a, b)
    else:
        c_edge = math.sqrt(a * b) - 0.25 / math.sqrt(1.0 + DETECTION_TOL * (1.0 + u))
        assert standard_form_norm(a, b, (c_edge,) * 4) > 1.0 + DETECTION_TOL
    base = {"family": "two_two", "a": 1.0, "b": b, "c": 0.0}
    axes = (f"a:{a!r}:{a_far!r}:{steps[0]}", f"c:{sign * c_edge!r}:{c_far!r}:{steps[1]}")
    assert_grid_equals_cells(base, "classify", axes)


@PROPERTY
@given(
    quantity=st.sampled_from(["witness01", "swap", "bounds"]),
    n=unit_or(-0.5, 2.0, 0.0),
    n_far=unit_or(0.0, 3.0, 0.0),
    r=unit_or(-0.5, 1.5, 0.0),
    r_far=st.sampled_from([0.0, 0.8, 1.5, 177.4, 177.5, 355.2, 355.3]),
    steps=st.tuples(st.integers(2, 4), st.integers(2, 4)),
    r_first=st.booleans(),
)
def test_photon_added_grid(quantity, n, n_far, r, r_far, steps, r_first):
    axes = [f"n:{n!r}:{n_far!r}:{steps[0]}", f"r:{r!r}:{r_far!r}:{steps[1]}"]
    if r_first:
        axes.reverse()
    assert_grid_equals_cells({"family": "photon_added_sts", "n": 1.0, "r": 1.0}, quantity, axes)


@pytest.mark.parametrize(
    "base,quantity",
    [
        ({"family": "two_two", "a": 1.0, "b": "1.0", "c": 0.0}, "classify"),
        ({"family": "two_two", "a": 1.0, "c": 0.0}, "classify"),
        ({"family": "two_two", "a": 1.0, "b": 0.2, "c": 0.0}, "classify"),
        ({"family": "photon_added_sts", "n": 1.0, "r": math.nan}, "bounds"),
    ],
    ids=["text-b", "missing-b", "b-below-vacuum", "nan-r"],
)
def test_refused_base_fields_invalidate_every_cell(base, quantity):
    # the axes leave one base field to the descriptor; where a cell's
    # descriptor is refused, so is the whole grid
    axes = ("a:0.5:1:3", "c:0:0.9:3") if base["family"] == "two_two" else ("n:0:1:3", "n:0:2:3")
    assert_grid_equals_cells(base, quantity, axes)
    assert reference_cell({**base, "a": 0.5, "c": 0.0, "n": 0.0}, quantity) == ("nan", "invalid")
