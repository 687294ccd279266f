import fractions
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import sqrtm

from cventangle import (
    CovarianceMatrix,
    CVEntangleError,
    InvalidArgumentError,
    WitnessParams,
    family_threshold,
    is_physical,
    parse_state_descriptor,
    realignment_norm,
    squeezed_thermal_params,
    state_descriptor,
    swap_expectation,
    symplectic_form,
    two_two_family,
    witness_expectation_gaussian,
)
from cventangle.errors import real_field
from conftest import (is_ppt, partial_transpose, random_physical_cov, random_product_cov,
                      random_symplectic, symplectic_eigenvalues, two_mode_cov)


def hermitian_route_nus(V: np.ndarray) -> np.ndarray:
    """Independent oracle: positive eigenvalues of the Hermitian i sqrt(V) J sqrt(V)."""
    m = V.shape[0] // 2
    root = sqrtm(V).real
    H = 1j * root @ symplectic_form(m) @ root
    eigs = np.linalg.eigvalsh(H)
    return np.sort(eigs[eigs > 0])


class TestSymplecticForm:
    def test_single_mode_block(self):
        assert np.array_equal(symplectic_form(1), np.array([[0.0, 1.0], [-1.0, 0.0]]))

    def test_two_modes_direct_sum(self):
        J = symplectic_form(2)
        assert J.shape == (4, 4)
        assert np.array_equal(J[:2, :2], symplectic_form(1))
        assert np.array_equal(J[2:, 2:], symplectic_form(1))
        assert np.all(J[:2, 2:] == 0) and np.all(J[2:, :2] == 0)

    @pytest.mark.parametrize("m", [1, 2, 3, 5])
    def test_orthogonal_and_squares_to_minus_identity(self, m):
        J = symplectic_form(m)
        assert np.array_equal(J @ J.T, np.eye(2 * m))
        assert np.array_equal(J @ J, -np.eye(2 * m))

    def test_zero_modes_rejected(self):
        with pytest.raises(InvalidArgumentError):
            symplectic_form(0)


class TestCovarianceMatrix:
    def test_rejects_odd_dimension(self):
        with pytest.raises(InvalidArgumentError):
            CovarianceMatrix(np.eye(3))

    def test_rejects_asymmetric(self):
        V = np.eye(4) / 4
        V[0, 1] = 1e-6
        with pytest.raises(InvalidArgumentError):
            CovarianceMatrix(V)
        # the mirror entries differ by more than the float range: refused
        # without an overflow warning
        with pytest.raises(InvalidArgumentError, match="asymmetry"):
            CovarianceMatrix(np.array([[1.0, 1.7e308], [-1.7e308, 1.0]]))

    def test_symmetrizes_tiny_asymmetry(self):
        V = np.eye(4) / 4
        V[0, 1] = 1e-14
        cov = CovarianceMatrix(V)
        assert cov.matrix[0, 1] == cov.matrix[1, 0]

    def test_symmetrizes_the_largest_floats(self):
        # (x + y)/2 would overflow here; x/2 + y/2 gives the same bits
        V = np.diag([1.7e308, 1.0, 1.0, 1.0])
        V[0, 1], V[1, 0] = 1.0, math.nextafter(1.0, 0.0)
        assert np.array_equal(CovarianceMatrix(V).matrix, (V / 4 + V.T / 4) * 2)
        assert is_physical(CovarianceMatrix(V))

    @settings(max_examples=200, deadline=None, database=None)
    @given(data=st.data(), size=st.sampled_from([2, 4, 6]))
    def test_symmetrizes_as_the_plain_average(self, data, size):
        # the bits of (V + V^T)/2: each mirror entry here is a few ulps from
        # its twin, of one sign, with magnitudes from 2^-1000 to 1e307
        magnitude = st.floats(2.0**-1000, 1e307) | st.sampled_from([2.0**-1000, 1.0, 1e307])
        V = np.zeros((size, size))
        for i in range(size):
            for j in range(i, size):
                V[i, j] = data.draw(magnitude) * data.draw(st.sampled_from([1.0, -1.0]))
                steps = data.draw(st.integers(-3, 3)) if i != j else 0
                V[j, i] = V[i, j]
                for _ in range(abs(steps)):
                    V[j, i] = np.nextafter(V[j, i], math.copysign(math.inf, steps))
        assert CovarianceMatrix(V).matrix.tobytes() == ((V + V.T) / 2.0).tobytes()
        # an exactly symmetric matrix keeps its bits, subnormal entries included
        # (halving rounds an odd one, such as 9.607892434345144e-309), also
        # where a diagonal entry past 2^1023 makes the average go by halves
        subnormal = (st.sampled_from([5e-324, 9.607892434345144e-309])
                     | st.floats(5e-324, 2.0**-1022, exclude_max=True))
        V = np.triu(V) + np.triu(V, 1).T
        V[0, 1] = V[1, 0] = math.copysign(data.draw(subnormal), V[0, 1])
        V[0, 0] = data.draw(st.sampled_from([V[0, 0], 1.7e308]))
        assert CovarianceMatrix(V).matrix.tobytes() == V.tobytes()

    def test_json_roundtrip(self):
        cov = squeezed_thermal_params(0.3, 0.4).covariance()
        doc = json.loads(json.dumps(state_descriptor(cov)))
        again = parse_state_descriptor(doc)
        assert np.array_equal(again.matrix, cov.matrix)
        assert doc["family"] == "raw_covariance"
        assert doc["modes"] == 2
        assert doc["ordering"] == "x1,p1,x2,p2"

    def test_json_rejects_bad_ordering(self):
        doc = state_descriptor(CovarianceMatrix(np.eye(4) / 4))
        doc["ordering"] = "x1,x2,p1,p2"
        with pytest.raises(InvalidArgumentError):
            parse_state_descriptor(doc)

    @pytest.mark.parametrize(
        "text",
        [
            '{"modes": 1, "ordering": "x1,p1", "matrix": [[true, 0], [0, 0.25]]}',
            '{"modes": 1, "ordering": 7, "matrix": [[0.25, 0], [0, 0.25]]}',
            '{"modes": 1, "ordering": "x1,p1", "matrix": [[NaN, 0], [0, 0.25]]}',
            '{"modes": 1e300, "ordering": "x1,p1", "matrix": [[0.25, 0], [0, 0.25]]}',
            '{"modes": 1, "ordering": "x1,p1", "matrix": [[0.25, 0], [0]]}',
            '[1, 2]',
            '{"modes": 1, "ordering": "x1,p1", "matrix": [["0.25", 0], [0, 0.25]]}',
            '{"modes": 1, "ordering": "x1,p1", "matrix": [[0.25, null], [null, 0.25]]}',
            '{"modes": 1, "ordering": "x1,p1", "matrix": [[1e400, 0], [0, 0.25]]}',
            '{"modes": 1, "ordering": "x1,p1", "matrix": [[1%s, 0], [0, 0.25]]}' % ("0" * 400),
            '{"modes": 1, "ordering": "x1,p1", "matrix": [[[0.25], 0], [0, 0.25]]}',
        ],
    )
    def test_json_rejects_malformed_document(self, text):
        # the same field decoders as every state descriptor
        doc = json.loads(text)
        if isinstance(doc, dict):
            doc = {"family": "raw_covariance", **doc}
        with pytest.raises(InvalidArgumentError):
            parse_state_descriptor(doc)

    @settings(max_examples=300, deadline=None, database=None)
    @given(data=st.data())
    def test_decode_matches_per_entry_reference(self, data):
        # one conversion of the whole matrix accepts exactly what real_field
        # accepts entry by entry, with the same bits, and refuses the rest
        # with InvalidArgumentError
        doc = data.draw(raw_descriptors())
        try:
            expected = per_entry_parse(doc).matrix.tobytes()
        except InvalidArgumentError:
            expected = None
        try:
            got = parse_state_descriptor(doc).matrix.tobytes()
        except InvalidArgumentError:
            got = None
        assert got == expected

    def test_raw_decode_calls_real_field_only_for_scalars(self, monkeypatch):
        # the 144 entries of a 3+3 matrix are decoded by one numpy conversion
        from cventangle import errors

        names = []

        def counted(name, value, _original=errors.real_field):
            names.append(name)
            return _original(name, value)

        monkeypatch.setattr(errors, "real_field", counted)
        doc = json.loads(json.dumps(state_descriptor(CovarianceMatrix(np.eye(12) / 4))))
        assert parse_state_descriptor(doc).modes == 6
        assert set(names) <= {"modes"}


def per_entry_parse(doc):
    """Reference for the ``raw_covariance`` decode: one real_field call per
    matrix entry, then the shared covariance and physicality checks."""
    try:
        rows = [[real_field("matrix", x) for x in row] for row in doc["matrix"]]
        matrix = np.asarray(rows, dtype=float)
    except (TypeError, ValueError) as exc:  # a refused entry, a scalar row, ragged rows
        raise InvalidArgumentError(str(exc)) from exc
    V = CovarianceMatrix.from_fields(real_field("modes", doc["modes"]), doc["ordering"], matrix)
    if not is_physical(V):
        raise InvalidArgumentError("unphysical")
    return V


#: Entries real_field refuses: bools (numpy bools too), None, strings, NaN,
#: infinities, integers beyond the float range, a third nesting level, complex.
JUNK = st.sampled_from([True, False, np.bool_(True), None, "0.25", "1e-3", math.nan, math.inf,
                        -math.inf, 10**400, -(10**400), [0.25], [], complex(0.25, 0.0)])
#: Accepted values that stress the conversion: signed zero, subnormals, ints
#: beyond int64 (an object array in numpy), the largest floats.
EXOTIC = st.sampled_from([-0.0, 5e-324, 3 * 5e-324, 2.2250738585072014e-308, 2**70, -(2**70),
                          2**64 + 2**11 + 1, 10**300, 1e308, -1e308])


def same_value(value: float):
    """``value`` in the number types real_field accepts, converted back exactly."""
    kinds = [st.just(value), st.just(np.float64(value)), st.just(fractions.Fraction(value))]
    if value.is_integer():
        kinds += [st.just(int(value)), st.just(np.int64(int(value)))]
    if float(np.float32(value)) == value:
        kinds.append(st.just(np.float32(value)))
    return st.one_of(kinds)


@st.composite
def raw_descriptors(draw):
    """raw_covariance descriptors of a physical diagonal matrix (1 or 2 modes)
    whose entries are drawn in mixed number types, with exotic values
    (mirrored, so the matrix stays symmetric) and refused entries, ragged rows
    and whole-field replacements mixed in."""
    modes = draw(st.sampled_from([1, 2]))
    n = 2 * modes
    diagonal = draw(st.lists(st.floats(0.25, 4.0), min_size=n, max_size=n))
    rows = [[diagonal[i] if i == j else 0.0 for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i, n):
            action = draw(st.sampled_from(["keep"] * 3 + ["type", "exotic", "junk"]))
            if action == "type":
                value = rows[i][j]
                rows[i][j], rows[j][i] = draw(same_value(value)), draw(same_value(value))
            elif action == "exotic":
                rows[i][j] = rows[j][i] = draw(EXOTIC)
            elif action == "junk":
                rows[i][j] = draw(JUNK)
    shape = draw(st.sampled_from(["lists"] * 6 + ["ragged", "longer", "array", "scalar"]))
    matrix = rows
    if shape == "ragged":
        rows[draw(st.integers(0, n - 1))].pop()
    elif shape == "longer":
        rows[draw(st.integers(0, n - 1))].append(0.0)
    elif shape == "array":
        matrix = np.empty((n, n), dtype=object)
        for i in range(n):
            for j in range(n):
                matrix[i, j] = rows[i][j]
        if all(type(x) is float for row in rows for x in row):
            matrix = matrix.astype(float)
    elif shape == "scalar":
        matrix = np.float64(0.25)
    return {"family": "raw_covariance", "modes": modes,
            "ordering": ",".join(f"x{k},p{k}" for k in range(1, modes + 1)), "matrix": matrix}


class TestIsPhysical:
    def test_vacuum(self):
        assert is_physical(CovarianceMatrix(np.eye(4) / 4))

    def test_builds_the_symplectic_form_once_per_mode_count(self, monkeypatch):
        from cventangle import symplectic

        V = CovarianceMatrix(np.eye(6) / 4)
        assert is_physical(V)

        def forbidden(_modes):
            raise AssertionError("the symplectic form was rebuilt")

        monkeypatch.setattr(symplectic, "symplectic_form", forbidden)
        assert is_physical(V) and not is_physical(CovarianceMatrix(np.eye(6) / 8))

    def test_below_vacuum_noise(self):
        assert not is_physical(CovarianceMatrix(np.eye(4) / 8))

    def test_one_gate_refuses_for_every_route(self):
        # the raw descriptor build and the Gaussian evaluators refuse through
        # require_physical, with its message: eye/8 had read norm 2.0, W01 -1.0
        # and SWAP 2.0
        from cventangle.symplectic import require_physical

        V = CovarianceMatrix(np.eye(4) / 8)
        refusals = []
        for route in (require_physical, lambda V: parse_state_descriptor(state_descriptor(V)),
                      realignment_norm,
                      lambda V: witness_expectation_gaussian(V, WitnessParams(0.0, 1.0)),
                      swap_expectation):
            with pytest.raises(InvalidArgumentError) as info:
                route(V)
            refusals.append(str(info.value))
        assert refusals == ["constraint violated: covariance fails the physicality test "
                            "V + iJ/4 >= 0"] * 5
        assert require_physical(two_two_family(1.0, 1.0, 0.78)).modes == 4
        with pytest.raises(InvalidArgumentError, match="physicality"):  # had read norm 6.25
            realignment_norm(two_two_family(1.0, 1.0, 0.9))

    def test_a_pass_is_recorded_on_the_instance(self, monkeypatch):
        # the evaluators call the gate, which runs its eigen-solve once per
        # matrix that passes and on every call for one that fails
        from cventangle import symplectic

        calls = []

        def counted(V, _original=symplectic.is_physical):
            calls.append(1)
            return _original(V)

        monkeypatch.setattr(symplectic, "is_physical", counted)
        V = CovarianceMatrix(squeezed_thermal_params(0.2, 0.5).covariance().matrix)
        for _ in range(2):
            realignment_norm(V)
            witness_expectation_gaussian(V, WitnessParams(0.0, 1.0))
            swap_expectation(V)
        assert len(calls) == 1
        bad = CovarianceMatrix(np.eye(4) / 8)
        for _ in range(2):
            with pytest.raises(InvalidArgumentError):
                swap_expectation(bad)
        assert len(calls) == 3

    @settings(max_examples=200, deadline=None, database=None)
    @given(
        nus=st.tuples(*[st.one_of(st.just(0.0), st.floats(-1e-9, 1e-9), st.floats(-1e-3, 1e-3))
                        .map(lambda d: 0.25 + d)] * 2),
        theta=st.floats(0.0, 2 * math.pi),
        r=st.floats(0.0, 1.5),
        local=st.tuples(*[st.tuples(st.floats(-1.0, 1.0), st.tuples(st.floats(0.0, 3.0),
                                                                   st.floats(0.0, 3.0)))] * 2),
    )
    def test_evaluators_refuse_exactly_the_unphysical(self, nus, theta, r, local):
        # covariances with symplectic eigenvalues on both sides of 1/4: each
        # Gaussian evaluator refuses as unphysical exactly where is_physical
        # fails; elsewhere it gives a value or another refusal
        matrix = two_mode_cov(nus, theta, r, local)
        physical = is_physical(CovarianceMatrix(matrix))
        for evaluate in (realignment_norm, swap_expectation,
                         lambda V: witness_expectation_gaussian(V, WitnessParams(0.0, 1.0))):
            try:
                evaluate(CovarianceMatrix(matrix))
            except InvalidArgumentError as exc:
                assert not physical and "physicality" in str(exc), (nus, exc)
            except CVEntangleError:
                assert physical
            else:
                assert physical

    def test_two_two_family_threshold_sides(self):
        # threshold at a = b = 1 is 0.8074742889548395
        assert is_physical(two_two_family(1.0, 1.0, 0.807))
        assert not is_physical(two_two_family(1.0, 1.0, 0.808))
        assert not is_physical(two_two_family(1.0, 1.0, 0.82))

    def test_threshold_matches_eigenvalue_boundary(self):
        # bisection on the eigenvalue test must land on the closed form
        for a, b in [(1.0, 1.0), (0.7, 1.3), (0.5, 0.5)]:
            lo, hi = 0.0, np.sqrt(a * b)
            for _ in range(60):
                mid = (lo + hi) / 2
                if is_physical(two_two_family(a, b, mid)):
                    lo = mid
                else:
                    hi = mid
            assert abs(lo - family_threshold(a, b)) < 1e-8


class TestSymplecticEigenvalues:
    def test_vacuum(self):
        nus = symplectic_eigenvalues(CovarianceMatrix(np.eye(4) / 4))
        assert np.allclose(nus, [0.25, 0.25], atol=1e-12)

    def test_tmsv_is_pure(self):
        V = squeezed_thermal_params(0.0, 0.5).covariance()
        nus = symplectic_eigenvalues(V)
        assert np.allclose(nus, [0.25, 0.25], atol=1e-10)

    def test_balanced_standard_form(self):
        from cventangle import TwoModeStandardForm

        V = TwoModeStandardForm(0.5, 0.5, 0.3, -0.3).covariance()
        nus = np.array(symplectic_eigenvalues(V))
        expected = np.sqrt(0.5 * 0.5 - 0.3**2)
        assert np.allclose(nus, [expected, expected], atol=1e-12)
        assert np.allclose(nus, hermitian_route_nus(V.matrix), atol=1e-10)

    def test_matches_hermitian_route(self, rng):
        for _ in range(25):
            V = random_physical_cov(rng, rng.integers(1, 4))
            nus = np.array(symplectic_eigenvalues(V))
            assert np.allclose(nus, hermitian_route_nus(V.matrix), atol=1e-8)

    def test_symplectic_invariance(self, rng):
        for _ in range(25):
            m = int(rng.integers(1, 4))
            V = random_physical_cov(rng, m)
            S = random_symplectic(rng, m)
            nus = np.array(symplectic_eigenvalues(V))
            nus_t = np.array(symplectic_eigenvalues(CovarianceMatrix(S @ V.matrix @ S.T)))
            assert np.max(np.abs(nus - nus_t)) < 1e-8

    def test_physical_spectra_above_vacuum(self, rng):
        for _ in range(50):
            V = random_physical_cov(rng, rng.integers(1, 4))
            assert min(symplectic_eigenvalues(V)) >= 0.25 - 1e-9

    def test_determinant_product_rule(self, rng):
        for _ in range(50):
            V = random_physical_cov(rng, rng.integers(1, 4))
            nus = np.array(symplectic_eigenvalues(V))
            det = np.linalg.det(V.matrix)
            assert abs(det - np.prod(nus**2)) <= 1e-9 * max(1.0, abs(det))


class TestPartialTranspose:
    def test_vacuum_unchanged(self):
        V = CovarianceMatrix(np.eye(4) / 4)
        assert np.array_equal(partial_transpose(V, [1]).matrix, V.matrix)

    def test_tmsv_momentum_flip(self):
        V = squeezed_thermal_params(0.0, 0.5).covariance()
        pt = partial_transpose(V, [1])
        assert pt.matrix[1, 3] == -V.matrix[1, 3]
        assert pt.matrix[0, 2] == V.matrix[0, 2]
        min_nu = min(symplectic_eigenvalues(pt))
        assert abs(min_nu - np.exp(-1.0) / 4) < 1e-12

    def test_involution_bit_exact(self, rng):
        for _ in range(20):
            V = random_physical_cov(rng, 3)
            back = partial_transpose(partial_transpose(V, [0, 2]), [0, 2])
            assert np.array_equal(back.matrix, V.matrix)

    def test_out_of_range_mode(self):
        V = CovarianceMatrix(np.eye(4) / 4)
        with pytest.raises(InvalidArgumentError):
            partial_transpose(V, [2])
        with pytest.raises(InvalidArgumentError):
            partial_transpose(V, [])


class TestIsPpt:
    def test_two_two_family_point(self):
        assert is_ppt(two_two_family(1.0, 1.0, 0.78), modes_b=(2, 3))

    def test_tmsv_is_npt(self):
        V = squeezed_thermal_params(0.0, 0.5).covariance()
        assert not is_ppt(V, modes_b=(1,))

    def test_products_are_ppt(self, rng):
        for _ in range(30):
            assert is_ppt(random_product_cov(rng), modes_b=(1,))

    def test_two_two_family_ppt_everywhere(self, rng):
        # every valid point of the family keeps a physical partial transpose
        for _ in range(40):
            a = rng.uniform(0.25, 2.0)
            b = a if rng.random() < 0.5 else rng.uniform(0.25, 2.0)
            c = rng.uniform(-1.0, 1.0) * family_threshold(a, b)
            assert is_ppt(two_two_family(a, b, c), modes_b=(2, 3))
