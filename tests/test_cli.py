import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import textwrap

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cventangle import (CovarianceMatrix, InvalidArgumentError, NumericDomainError,
                        classify_two_two, crosscheck, family_threshold, fock, state_descriptor,
                        tmsv_params)
from cventangle.cli import (EXIT_INVALID, EXIT_IO, EXIT_NUMERIC, EXIT_OK, EXIT_VERIFY, QUANTITIES,
                            evaluate_quantity, main)
from cventangle.states import FAMILIES, parse_state_descriptor
from conftest import STANDARD2_EDGE, TWO_TWO_EDGE

TWO_TWO = json.dumps({"family": "two_two", "a": 1.0, "b": 1.0, "c": 0.78})
PHOTON = json.dumps({"family": "photon_added_sts", "n": 1.0, "r": 1.0})
VACUUM = json.dumps({"family": "standard2", "a": 0.25, "b": 0.25, "c1": 0.0, "c2": 0.0})
MIXTURE = json.dumps(
    {"family": "coherent_mixture", "p": 0.6, "alpha1": [1.0, 0.0], "alpha2": [-1.0, 0.0]}
)


def assert_strict_record(doc, quantity):
    """``eval`` of the state refuses it with exit 2 or 3 (no traceback), or
    prints a record without NaN or infinity whose every number is a Python
    float, also before JSON encoding."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(["eval", "--state", json.dumps(doc), "--quantity", quantity])
    if code != EXIT_OK:
        assert code in (EXIT_INVALID, EXIT_NUMERIC), doc
        return
    json.dumps(json.loads(out.getvalue()), allow_nan=False)
    pending = [evaluate_quantity(parse_state_descriptor(doc), quantity)]
    while pending:
        item = pending.pop()
        children = item.values() if isinstance(item, dict) else item
        for value in children:
            if isinstance(value, (dict, list)):
                pending.append(value)
            elif not isinstance(value, (str, bool, type(None))):
                assert type(value) is float, (doc, quantity, value)


def step_ulps(x, ulps):
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    return x


def run_cli(args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "cventangle", *args], capture_output=True, text=True, **kwargs
    )


class TestEval:
    def test_classify_two_two(self, capsys):
        assert main(["eval", "--state", TWO_TWO, "--quantity", "classify"]) == EXIT_OK
        record = json.loads(capsys.readouterr().out)
        assert record["verdict"] == "bound_entangled"
        assert abs(record["norm"] - 1.29132) < 1e-5
        assert len(record["nus"]) == 4

    def test_witness01_photon_added(self, capsys):
        assert main(["eval", "--state", PHOTON, "--quantity", "witness01"]) == EXIT_OK
        record = json.loads(capsys.readouterr().out)
        assert abs(record["value"] - (-0.97499)) < 1e-5
        assert record["entangled"] is True
        assert (record["mu1"], record["mu2"]) == (0.0, 1.0)

    def test_optimal_witness_vacuum(self, capsys):
        assert main(["eval", "--state", VACUUM, "--quantity", "optimal_witness"]) == EXIT_OK
        record = json.loads(capsys.readouterr().out)
        assert abs(record["value"]) < 1e-12
        assert record["entangled"] is False

    def test_optimal_witness_extreme_ratio(self, capsys):
        # |mu- mu+| = a/b = 2.5e-14 is below the WitnessParams guard; the
        # record reads the optimum directly
        a, b = 0.25, 1e13
        doc = json.dumps({"family": "standard2", "a": a, "b": b, "c1": 0.0, "c2": 0.0})
        assert main(["eval", "--state", doc, "--quantity", "optimal_witness"]) == EXIT_OK
        record = json.loads(capsys.readouterr().out)
        assert abs(record["value"] - (1.0 - 1.0 / (4.0 * math.sqrt(a * b)))) < 1e-15
        assert (record["mu1"], record["mu2"]) == (-math.sqrt(a / b), 0.0)

    @pytest.mark.parametrize("a,b,mu1", [(1e308, 0.25, -2e154), (0.25, 1e308, -5e-155)])
    def test_optimal_witness_ratio_outside_the_normal_range(self, a, b, mu1, capsys):
        # a/b overflows or is subnormal: mu is sqrt(a)/sqrt(b), finite
        doc = json.dumps({"family": "standard2", "a": a, "b": b, "c1": 0.0, "c2": 0.0})
        assert main(["eval", "--state", doc, "--quantity", "optimal_witness"]) == EXIT_OK
        record = json.loads(capsys.readouterr().out)
        assert (record["mu1"], record["mu2"]) == (mu1, 0.0)

    @settings(max_examples=300, deadline=None, database=None)
    @given(
        quantity=st.sampled_from(["optimal_witness", "witness01", "swap", "realignment_norm",
                                  "bounds"]),
        log_ab=st.tuples(*[st.one_of(st.sampled_from([math.log10(0.25), 308.0]),
                                     st.floats(math.log10(0.25), 308.0))] * 2),
        u=st.tuples(*[st.one_of(st.sampled_from([-1.0, 0.0, 1.0]), st.floats(-1.0, 1.0))] * 2),
    )
    def test_standard2_records_are_strict_json(self, quantity, log_ab, u):
        # a, b log-uniform on [1/4, 1e308], |c_i| up to sqrt(a) sqrt(b)
        a, b = (min(10.0**x, 1e308) for x in log_ab)
        sab = math.sqrt(a) * math.sqrt(b)
        assert_strict_record({"family": "standard2", "a": a, "b": b, "c1": u[0] * sab,
                              "c2": u[1] * sab}, quantity)

    @settings(max_examples=300, deadline=None, database=None)
    @given(
        quantity=st.sampled_from(["classify", "realignment_norm"]),
        log_ab=st.tuples(*[st.one_of(st.sampled_from([math.log10(0.25), 150.5, 308.0]),
                                     st.floats(math.log10(0.25), 308.0))] * 2),
        u=st.one_of(st.sampled_from([-1.0, 0.0, 1.0]), st.floats(-1.1, 1.1)),
    )
    def test_two_two_records_are_strict_json(self, quantity, log_ab, u):
        # |c| up to a little past sqrt(a) sqrt(b), beyond every threshold;
        # a^2 + b^2 overflows from 1.3e154
        a, b = (min(10.0**x, 1e308) for x in log_ab)
        assert_strict_record({"family": "two_two", "a": a, "b": b,
                              "c": u * math.sqrt(a) * math.sqrt(b)}, quantity)

    @settings(max_examples=300, deadline=None, database=None)
    @given(
        quantity=st.sampled_from(["witness01", "swap", "bounds"]),
        n=st.one_of(st.sampled_from([0.0, 1e154, 1e308]), st.floats(0.0, 1e308),
                    st.floats(0.0, 10.0)),
        r=st.one_of(st.sampled_from([0.0, 177.5, 355.3, 710.5, 1e308]), st.floats(0.0, 1e308),
                    st.floats(0.0, 400.0)),
    )
    def test_photon_added_records_are_strict_json(self, quantity, n, r):
        # e^{4r} overflows from r = 177.5, cosh 2r from 355.3, 4r itself at 4.5e307
        assert_strict_record({"family": "photon_added_sts", "n": n, "r": r}, quantity)

    def test_swap_mixture(self, capsys):
        assert main(["eval", "--state", MIXTURE, "--quantity", "swap"]) == EXIT_OK
        record = json.loads(capsys.readouterr().out)
        assert abs(record["value"] - (-0.18901)) < 1e-5
        assert record["entangled"] is True

    def test_bounds_mixture_uses_oracle(self, capsys):
        assert main(["eval", "--state", MIXTURE, "--quantity", "bounds"]) == EXIT_OK
        record = json.loads(capsys.readouterr().out)
        assert abs(record["concurrenceLower"] - 0.18901) < 1e-5
        assert abs(record["eofLower"] - 0.0741730) < 1e-5
        assert abs(record["tangleLower"] - 0.0357250) < 1e-6
        assert record["entangled"] is True
        # the closed-form W(0,1) input agrees with the Fock oracle
        from cventangle import coherent_mixture_fock, witness_fock

        oracle = witness_fock(coherent_mixture_fock(0.6, 1.0, -1.0, 25), "W01")
        assert abs(record["inputs"]["witnessValue01"] - oracle) < 1e-10
        assert record["crenLower"] == 0.0

    def test_realignment_norm_raw_covariance(self, capsys):
        from cventangle import state_descriptor, tmsv_params

        doc = json.dumps(state_descriptor(tmsv_params(0.6).covariance()))
        assert main(["eval", "--state", doc, "--quantity", "realignment_norm"]) == EXIT_OK
        record = json.loads(capsys.readouterr().out)
        assert abs(record["norm"] - math.exp(1.2)) < 1e-9
        assert record["verdict"] == "entangled"

    def test_witness01_raw_covariance_via_quadrature(self, capsys):
        from cventangle import state_descriptor, tmsv_params

        doc = json.dumps(state_descriptor(tmsv_params(0.6).covariance()))
        assert main(["eval", "--state", doc, "--quantity", "witness01"]) == EXIT_OK
        record = json.loads(capsys.readouterr().out)
        assert abs(record["value"] - (1.0 - math.exp(1.2))) < 1e-6
        assert record["entangled"] is True

    def test_state_from_file(self, tmp_path, capsys):
        path = tmp_path / "state.json"
        path.write_text(TWO_TWO)
        assert main(["eval", "--state", str(path), "--quantity", "classify"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["verdict"] == "bound_entangled"

    def test_state_file_not_utf8_exits_2(self, tmp_path, capsys):
        path = tmp_path / "state.json"
        path.write_bytes(b"\xff\xfe{}")
        assert main(["eval", "--state", str(path), "--quantity", "classify"]) == EXIT_INVALID
        assert capsys.readouterr().err.startswith(f"error: invalid state JSON in {path}: ")

    @pytest.mark.parametrize("route", ["inline", "file"])
    @pytest.mark.parametrize("body,reason", [
        ("[" * 100_000 + "]" * 100_000, "recursion"),
        ("1" * 5000, "digits"),  # past the int-to-str conversion limit
    ], ids=["deep-nesting", "long-integer"])
    def test_unparseable_state_exits_2(self, route, body, reason, tmp_path, capsys):
        state = '{"a": ' + body + "}"
        if route == "file":
            path = tmp_path / "state.json"
            path.write_text(state)
            state = str(path)
        assert main(["eval", "--state", state, "--quantity", "classify"]) == EXIT_INVALID
        err = capsys.readouterr().err
        assert err.startswith("error: invalid state JSON") and reason in err

    @pytest.mark.parametrize("command", ["eval", "scan"])
    @pytest.mark.parametrize("state", ["[1, 2]", '"x"', ' \n[1, 2]', "file"])
    def test_state_json_not_an_object_exits_2(self, command, state, tmp_path, capsys):
        # inline JSON that is not an object is invalid input, not a file path
        if state == "file":
            path = tmp_path / "state.json"
            path.write_text("[1, 2]")
            state = str(path)
        out = tmp_path / "grid.csv"
        argv = {"eval": ["eval", "--state", state, "--quantity", "classify"],
                "scan": ["scan", "--state", state, "--quantity", "classify", "--axes",
                         "a:1:2:2", "--axes", "c:0:1:2", "--out", str(out)]}[command]
        assert main(argv) == EXIT_INVALID
        assert capsys.readouterr().err == "error: state descriptor must be a JSON object\n"
        assert not out.exists()

    def test_invalid_family_exits_2(self, capsys):
        code = main(["eval", "--state", '{"family": "bogus"}', "--quantity", "classify"])
        assert code == EXIT_INVALID

    def test_quantity_family_mismatch_exits_2(self):
        assert main(["eval", "--state", VACUUM, "--quantity", "classify"]) == EXIT_INVALID

    def test_unphysical_state_exits_2(self):
        bad = json.dumps({"family": "standard2", "a": 0.25, "b": 0.25, "c1": 0.2, "c2": 0.0})
        assert main(["eval", "--state", bad, "--quantity", "witness01"]) == EXIT_INVALID

    @pytest.mark.parametrize("quantity", ["witness01", "swap", "bounds", "realignment_norm"])
    def test_unphysical_raw_covariance_exits_2(self, quantity, capsys):
        # diag(0.1, ...) is below the vacuum variance 1/4: no quantity may
        # give it a verdict
        matrix = [[0.1 if i == j else 0.0 for j in range(4)] for i in range(4)]
        doc = {"family": "raw_covariance", "modes": 2, "ordering": "x1,p1,x2,p2", "matrix": matrix}
        assert main(["eval", "--state", json.dumps(doc), "--quantity", quantity]) == EXIT_INVALID
        assert capsys.readouterr().out == ""

    def test_non_square_raw_covariance_exits_2(self, capsys):
        doc = {"family": "raw_covariance", "modes": 2, "ordering": "x1,p1,x2,p2",
               "matrix": [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]]}
        assert main(["eval", "--state", json.dumps(doc), "--quantity", "swap"]) == EXIT_INVALID
        assert "must be square" in capsys.readouterr().err

    @pytest.mark.parametrize("alpha1", [1.0, [1.0], [1.0, 0.0, 0.0], "1+0j"])
    def test_coherent_amplitude_not_a_pair_exits_2(self, alpha1, capsys):
        doc = {"family": "coherent_mixture", "p": 0.5, "alpha1": alpha1, "alpha2": [-1.0, 0.0]}
        assert main(["eval", "--state", json.dumps(doc), "--quantity", "swap"]) == EXIT_INVALID
        assert "[re, im] pair" in capsys.readouterr().err

    def test_truncation_failure_exits_3(self, capsys):
        # eval has no Fock route any more; a numeric-domain failure it still
        # reaches is a raw covariance whose largest canonical correlation lies
        # within rounding of 1: the two-mode squeezed vacuum at r = 10.5
        a, c = math.cosh(21.0) / 4, math.sinh(21.0) / 4
        doc = json.dumps({"family": "raw_covariance", "modes": 2, "ordering": "x1,p1,x2,p2",
                          "matrix": [[a, 0, c, 0], [0, a, 0, -c], [c, 0, a, 0], [0, -c, 0, a]]})
        code = main(["eval", "--state", doc, "--quantity", "realignment_norm"])
        assert code == EXIT_NUMERIC
        assert "SingularLimitError" in capsys.readouterr().err

    @pytest.mark.parametrize("doc", [
        {"family": "two_two", "a": 1e100, "b": 1e100, "c": 0.0},
        {"family": "standard2", "a": 1e200, "b": 1e200, "c1": 0.0, "c2": 0.0},
        state_descriptor(CovarianceMatrix(1e170 * tmsv_params(0.3).covariance().matrix)),
        state_descriptor(CovarianceMatrix(1.7e308 * np.eye(4))),
    ], ids=["two_two", "standard2", "raw_tmsv_1e170", "raw_identity_1.7e308"])
    def test_a0_out_of_range_answers_without_spectrum(self, doc, capsys):
        # the Gram prefactor a0, the purity, underflows on every route: the
        # realignment_norm record, like classify's, gives the norm and verdict
        # without nus/a0
        record = eval_record(doc, "realignment_norm", capsys)
        assert "nus" not in record and "a0" not in record
        entangled = record["verdict"] == "entangled"
        if doc["family"] == "two_two":
            reference = eval_record(doc, "classify", capsys)
            assert reference["norm"] == record["norm"]
            assert (reference["verdict"] == "bound_entangled") == entangled
        elif doc["family"] == "standard2":
            reference = eval_record(doc, "optimal_witness", capsys)
            assert reference["value"] == 1.0 - record["norm"]
            assert reference["entangled"] == entangled
        else:
            # the closed form of the same matrix entries; normError leaves out
            # the rounding of the logarithms and of exp in g, about
            # k u |ln g| of the norm with k = 2 (realignment.covariance_reduction)
            (a, _, c1, _), (_, _, _, c2) = doc["matrix"][0], doc["matrix"][1]
            closed = {"family": "standard2", "a": a, "b": a, "c1": c1, "c2": c2}
            reference = eval_record(closed, "realignment_norm", capsys)
            log_exp = 2 * 2.0**-53 * math.log(a) * reference["norm"]
            assert abs(record["norm"] - reference["norm"]) <= record["normError"] + log_exp
            assert reference["verdict"] == record["verdict"]

    def test_raw_record_reports_a_norm_error_that_underflows(self, capsys):
        # norm (1/2)^4 / 1e310 is subnormal, and its error bound of about
        # 1e-13 of it rounds to 0: the raw record still carries normError
        doc = state_descriptor(CovarianceMatrix(1e155 * np.eye(8)))
        record = eval_record(doc, "realignment_norm", capsys)
        assert record["normError"] == 0.0 and "a0" not in record
        assert record["norm"] == pytest.approx(6.25e-312, rel=1e-9)
        assert record["verdict"] == "undetected"

    def test_standard2_overflowing_ab_realignment_norm(self, capsys):
        # ab = 1e310 overflows, but sqrt(ab) = sqrt(a) sqrt(b) and a0 = 6.25e-312
        # do not: realignment_norm succeeds where optimal_witness does
        doc = json.dumps({"family": "standard2", "a": 1e300, "b": 1e10, "c1": 0.0, "c2": 0.0})
        assert main(["eval", "--state", doc, "--quantity", "realignment_norm"]) == EXIT_OK
        record = json.loads(capsys.readouterr().out)
        assert record["a0"] == 6.25e-312 and record["nus"] == [0.25, 0.25]
        assert main(["eval", "--state", doc, "--quantity", "optimal_witness"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["value"] == 1.0 - record["norm"]

    def test_two_two_gate_matches_classify_at_threshold(self, capsys):
        # |c| lies about 1e-12 (relative) above the threshold: classify calls
        # the point unphysical, and realignment_norm refuses it the same way
        doc = json.dumps({"family": "two_two", "a": 1.364682952812545,
                          "b": 0.7221267490867731, "c": 0.7775452107670083})
        assert main(["eval", "--state", doc, "--quantity", "realignment_norm"]) == EXIT_INVALID
        assert "physicality" in capsys.readouterr().err
        assert main(["eval", "--state", doc, "--quantity", "classify"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["verdict"] == "unphysical"

    def test_two_two_gram_underflow_classifies_as_the_scan_cell(self, tmp_path, capsys):
        # the Gram prefactor a0 underflows at a = b = 1e100: classify gives the
        # verdict and norm of the scan cell without nus/a0.  The grid's every
        # cell, all physical with a0 underflowing, equals its record
        base = {"family": "two_two", "a": 1e100, "b": 1e100, "c": 0.0}
        doc = json.dumps(base)
        assert main(["eval", "--state", doc, "--quantity", "classify"]) == EXIT_OK
        record = json.loads(capsys.readouterr().out)
        assert "nus" not in record and "a0" not in record
        assert (record["verdict"], record["norm"]) == ("undetected", 6.249999999999997e-202)
        out = tmp_path / "grid.csv"
        assert main(["scan", "--state", doc, "--quantity", "classify", "--axes",
                     "a:1e100:3e100:3", "--axes", "c:0:1:3", "--out", str(out)]) == EXIT_OK
        capsys.readouterr()
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert rows[0][2:] == [repr(record["norm"]), "undetected"]
        for a, c, value, verdict in rows:
            cell = {**base, "a": float(a), "c": float(c)}
            assert (value, verdict) == eval_cell(cell, "classify", capsys) == (value, "undetected")
        result = classify_two_two(1e100, 1e100, 0.0)
        assert result.verdict == "undetected" and result.spectrum is None

    @pytest.mark.parametrize("quantity", ["classify", "realignment_norm"])
    @pytest.mark.parametrize("a,b", [(24618077.110105123, 0.25), (1e160, 0.3)])
    def test_two_two_threshold_lost_to_rounding_exits_3(self, a, b, quantity, capsys):
        # a negative radicand at b = 1/4, or a^2 overflowing, is rounding: the
        # exact threshold exists, so the input is valid and the failure numeric
        doc = json.dumps({"family": "two_two", "a": a, "b": b, "c": 0.0})
        assert main(["eval", "--state", doc, "--quantity", quantity]) == EXIT_NUMERIC
        assert "NumericDomainError" in capsys.readouterr().err

    def test_two_two_large_variances_classify(self, capsys):
        # the closed-form Gram spectrum of a product is exactly 1/4 at any scale
        doc = json.dumps({"family": "two_two", "a": 1e7, "b": 1e7, "c": 0.0})
        assert main(["eval", "--state", doc, "--quantity", "classify"]) == EXIT_OK
        record = json.loads(capsys.readouterr().out)
        assert record["verdict"] == "undetected" and record["nus"] == [0.25] * 4

    def test_standard2_large_variances_realignment_norm(self, capsys):
        doc = json.dumps({"family": "standard2", "a": 1e8, "b": 1e8, "c1": 0.0, "c2": 0.0})
        assert main(["eval", "--state", doc, "--quantity", "realignment_norm"]) == EXIT_OK
        record = json.loads(capsys.readouterr().out)
        assert record["norm"] == 2.5e-9 and record["nus"] == [0.25, 0.25]

    @pytest.mark.parametrize(
        "doc,quantity",
        [
            ({"family": "photon_added_sts", "n": 1.0, "r": 200.0}, "witness01"),
            ({"family": "photon_added_sts", "n": 1.0, "r": 400.0}, "swap"),
            # the slice entry a + b overflows: refused, not read as SWAP 0.0
            *(({"family": "standard2", "a": 1e308, "b": 1e308, "c1": 0.0, "c2": 0.0}, quantity)
              for quantity in ("swap", "witness01", "bounds")),
            # the SWAP slice entry 8e307 + 2 * 4e307 + 8e307 of a raw matrix
            # overflows: refused, with no overflow warning on the way
            ({"family": "raw_covariance", "modes": 2, "ordering": "x1,p1,x2,p2",
              "matrix": [[8e307, 0, -4e307, 0], [0, 8e307, 0, 4e307],
                         [-4e307, 0, 8e307, 0], [0, 4e307, 0, 8e307]]}, "swap"),
        ],
    )
    def test_arithmetic_failure_exits_3(self, doc, quantity, capsys):
        code = main(["eval", "--state", json.dumps(doc), "--quantity", quantity])
        assert code == EXIT_NUMERIC
        assert "NumericDomainError" in capsys.readouterr().err

    @pytest.mark.parametrize("error", [OverflowError("math range error"),
                                       np.linalg.LinAlgError("Singular matrix")],
                             ids=["OverflowError", "LinAlgError"])
    def test_engine_overflow_or_singular_algebra_exits_3(self, error, monkeypatch, capsys):
        # an evaluator whose arithmetic raises is reported as a numeric-domain
        # failure, not as a traceback
        from cventangle import cli

        def evaluator(_state):
            raise error

        monkeypatch.setattr(cli, "_evaluator", lambda _family, _quantity: evaluator)
        assert main(["eval", "--state", VACUUM, "--quantity", "swap"]) == EXIT_NUMERIC
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert captured.err.startswith("numeric error: NumericDomainError: swap left the "
                                       "floating-point domain: ")

    @pytest.mark.parametrize("alpha1", [[1e200, 0.0], [1e308, 1e308]])
    def test_coherent_mixture_overlap_underflows_to_zero(self, alpha1, capsys):
        # |alpha1 - alpha2|^2 overflows a double: it reads as inf, so the
        # overlap exp(-|alpha1 - alpha2|^2) is exactly 0, W01 = p and SWAP = 1 - 2p
        doc = json.dumps({"family": "coherent_mixture", "p": 0.25, "alpha1": alpha1,
                          "alpha2": [0.0, 0.0]})
        values = {}
        for quantity in ("witness01", "swap", "bounds"):
            assert main(["eval", "--state", doc, "--quantity", quantity]) == EXIT_OK
            values[quantity] = json.loads(capsys.readouterr().out)
        assert values["witness01"]["value"] == 0.25
        assert values["swap"]["value"] == 0.5
        assert values["bounds"]["inputs"] == {"witnessValue01": 0.25, "swapValue": 0.5}

    def test_swap_photon_added_prints_json(self, capsys):
        doc = json.dumps({"family": "photon_added_sts", "n": 0.6, "r": 0.4})
        assert main(["eval", "--state", doc, "--quantity", "swap"]) == EXIT_OK
        record = json.loads(capsys.readouterr().out)
        assert type(record["value"]) is float and record["entangled"] is False

    @pytest.mark.parametrize("quantity", ["swap", "bounds"])
    def test_pure_photon_added_not_entangled(self, quantity, capsys):
        # SWAP is exactly 0 for n = 0, and both quantities must say so
        doc = json.dumps({"family": "photon_added_sts", "n": 0.0, "r": 1.0})
        assert main(["eval", "--state", doc, "--quantity", quantity]) == EXIT_OK
        record = json.loads(capsys.readouterr().out)
        swap = record["value"] if quantity == "swap" else record["inputs"]["swapValue"]
        assert abs(swap) < 1e-12
        assert record["entangled"] is False

    def test_pure_photon_added_swap_zero_at_large_r(self, capsys):
        for r in np.linspace(3.0, 6.5, 351):
            doc = json.dumps({"family": "photon_added_sts", "n": 0.0, "r": float(r)})
            assert main(["eval", "--state", doc, "--quantity", "swap"]) == EXIT_OK
            record = json.loads(capsys.readouterr().out)
            assert record["value"] == 0.0, r
            assert record["entangled"] is False, r

    def test_photon_added_swap_finite_near_cosh_overflow(self, capsys):
        # cosh(2r) is still finite at r = 355, but m cosh(2r) is not
        doc = json.dumps({"family": "photon_added_sts", "n": 1.0, "r": 355.0})
        assert main(["eval", "--state", doc, "--quantity", "swap"]) == EXIT_OK
        record = json.loads(capsys.readouterr().out)
        assert abs(record["value"] - 4.0 / 27.0) < 1e-15

    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity", "true"])
    @pytest.mark.parametrize(
        "template,quantity",
        [
            ('{"family": "standard2", "a": %s, "b": 0.5, "c1": 0.0, "c2": 0.0}', "witness01"),
            ('{"family": "two_two", "a": 1.0, "b": 1.0, "c": %s}', "classify"),
            ('{"family": "photon_added_sts", "n": %s, "r": 0.5}', "witness01"),
            ('{"family": "coherent_mixture", "p": 0.5, "alpha1": [%s, 0.0], '
             '"alpha2": [0.0, 0.0]}', "swap"),
            ('{"family": "raw_covariance", "modes": 1, "ordering": "x1,p1", '
             '"matrix": [[%s, 0.0], [0.0, 0.25]]}', "realignment_norm"),
        ],
    )
    def test_non_finite_or_boolean_field_exits_2(self, template, quantity, bad, capsys):
        assert main(["eval", "--state", template % bad, "--quantity", quantity]) == EXIT_INVALID
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("quantity", ["swap", "bounds"])
    def test_degenerate_mixture_exits_2(self, quantity):
        doc = json.dumps(
            {"family": "coherent_mixture", "p": 1.0, "alpha1": [0.5, 0.5], "alpha2": [0.5, 0.5]}
        )
        assert main(["eval", "--state", doc, "--quantity", quantity]) == EXIT_INVALID

    def test_missing_state_file_exits_4(self):
        assert main(["eval", "--state", "/no/such/file.json", "--quantity", "classify"]) == EXIT_IO


class TestScan:
    def test_photon_grid_values_and_verdicts(self, tmp_path):
        out = tmp_path / "grid.csv"
        code = main(
            [
                "scan",
                "--state",
                json.dumps({"family": "photon_added_sts", "n": 1.0, "r": 1.0}),
                "--quantity",
                "witness01",
                "--axes",
                "n:0.02:2:5",
                "--axes",
                "r:0.02:2:5",
                "--out",
                str(out),
            ]
        )
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "param1,param2,value,verdict"
        assert len(lines) == 26
        rows = [line.split(",") for line in lines[1:]]
        corner = rows[0]
        assert abs(float(corner[2]) - 0.9799769715656128) < 1e-12
        assert corner[3] == "undetected"
        # row-major order: row index changes slowest
        assert [r[0] for r in rows[:5]] == [rows[0][0]] * 5

    @pytest.mark.parametrize("state,quantity,axes", [
        (PHOTON, "witness01", ("n:0.02:2:6", "r:0.02:2:4")),
        (VACUUM, "realignment_norm", ("a:0.25:1:5", "c1:-0.5:0.5:4")),
    ])
    def test_workers_option_is_accepted_and_ignored(self, state, quantity, axes, tmp_path):
        args = ["scan", "--state", state, "--quantity", quantity,
                "--axes", axes[0], "--axes", axes[1]]
        outputs = []
        for workers in ("0", "1", "3"):
            out = tmp_path / f"w{workers}.csv"
            assert main([*args, "--out", str(out), "--workers", workers]) == EXIT_OK
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]
        bad = tmp_path / "bad.csv"
        assert main([*args, "--out", str(bad), "--workers", "-1"]) == EXIT_INVALID
        assert not bad.exists()

    def test_two_two_window_transitions(self, tmp_path):
        out = tmp_path / "window.csv"
        code = main(
            [
                "scan",
                "--state",
                json.dumps({"family": "two_two", "a": 1.0, "b": 1.0, "c": 0.0}),
                "--quantity",
                "classify",
                "--axes",
                "a:1:1:2",
                "--axes",
                "c:0.0:0.81:82",
                "--out",
                str(out),
            ]
        )
        assert code == EXIT_OK
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        by_c = {round(float(r[1]), 4): r[3] for r in rows[:82]}
        assert by_c[0.0] == "undetected"
        assert by_c[0.75] == "undetected"
        assert by_c[0.76] == "bound_entangled"
        assert by_c[0.80] == "bound_entangled"
        assert by_c[0.81] == "unphysical"

    def test_bounds_scan_reports_cren(self, tmp_path):
        out = tmp_path / "bounds.csv"
        code = main(
            [
                "scan",
                "--state",
                json.dumps({"family": "photon_added_sts", "n": 1.0, "r": 1.0}),
                "--quantity",
                "bounds",
                "--axes",
                "n:1:1:2",
                "--axes",
                "r:0.5:1:2",
                "--out",
                str(out),
            ]
        )
        assert code == EXIT_OK
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        from cventangle import witness_photon_added_closed

        assert abs(float(rows[1][2]) - (-witness_photon_added_closed(1.0, 1.0))) < 1e-9
        assert rows[1][3] == "entangled"

    def test_overflowing_cells_are_invalid(self, tmp_path):
        out = tmp_path / "overflow.csv"
        code = main(
            [
                "scan",
                "--state",
                json.dumps({"family": "photon_added_sts", "n": 1.0, "r": 1.0}),
                "--quantity",
                "witness01",
                "--axes",
                "n:0.5:1:2",
                "--axes",
                "r:100:200:3",
                "--out",
                str(out),
            ]
        )
        assert code == EXIT_OK
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert len(rows) == 6
        for _n, r, value, verdict in rows:
            if float(r) == 200.0:
                assert (value, verdict) == ("nan", "invalid")
            else:
                assert math.isfinite(float(value)) and verdict == "entangled"
        # either side of the overflow of exp(4r) (witness01, bounds) and of
        # cosh 2r (swap) at n = 0.5
        for quantity, last_finite in (("witness01", 177.4), ("bounds", 177.4), ("swap", 355.2)):
            for r_axis in ("r:177.4:177.5:2", "r:355.2:355.3:2"):
                argv = ["scan", "--state", PHOTON, "--quantity", quantity, "--axes",
                        "n:0.5:0.5:2", "--axes", r_axis, "--out", str(out)]
                assert main(argv) == EXIT_OK
                rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
                assert len(rows) == 4
                for _n, r, value, verdict in rows:
                    if float(r) > last_finite:
                        assert (value, verdict) == ("nan", "invalid"), (quantity, r)
                    elif quantity == "swap":
                        assert (value, verdict) == ("0.1875", "undetected"), r
                    else:
                        assert math.isfinite(float(value)) and verdict == "entangled", (quantity, r)

    def test_degenerate_mixture_cells_are_invalid(self, tmp_path):
        # at p = 1 with |alpha1 - alpha2| = 1e-9 the operator trace is 0 in floats
        out = tmp_path / "mixture.csv"
        state = json.dumps({"family": "coherent_mixture", "p": 0.5, "alpha1": [0.0, 0.0],
                            "alpha2": [1e-9, 0.0]})
        argv = ["scan", "--state", state, "--quantity", "witness01",
                "--axes", "p:0:1:3", "--axes", "p:0:1:3", "--out", str(out)]
        assert main(argv) == EXIT_OK
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert len(rows) == 9
        for _p1, p, value, verdict in rows:
            if float(p) == 1.0:
                assert (value, verdict) == ("nan", "invalid"), p
            else:
                assert (value, verdict) == ("0.0", "undetected"), p

    def test_worker_env_var_is_not_read(self, tmp_path, monkeypatch, capsys):
        argv = ["scan", "--state", VACUUM, "--quantity", "swap",
                "--axes", "a:0.25:1:3", "--axes", "b:0.25:1:3"]
        assert main([*argv, "--out", str(tmp_path / "plain.csv")]) == EXIT_OK
        monkeypatch.setenv("CV_ENTANGLE_WORKERS", "invalid")
        capsys.readouterr()
        assert main([*argv, "--out", str(tmp_path / "env.csv")]) == EXIT_OK
        assert capsys.readouterr().err == ""
        assert (tmp_path / "env.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()

    def test_bad_axis_name_exits_2(self, tmp_path):
        code = main(
            [
                "scan",
                "--state",
                json.dumps({"family": "two_two", "a": 1.0, "b": 1.0, "c": 0.0}),
                "--quantity",
                "classify",
                "--axes",
                "q:0:1:5",
                "--axes",
                "c:0:0.8:5",
                "--out",
                str(tmp_path / "x.csv"),
            ]
        )
        assert code == EXIT_INVALID

    @pytest.mark.parametrize("axes", [["a:0:1:3"], ["a:0:1:3", "c:0:1:3", "b:1:2:3"]],
                             ids=["one", "three"])
    def test_axes_count_other_than_two_exits_2(self, axes, tmp_path, capsys):
        out = tmp_path / "x.csv"
        argv = ["scan", "--state", TWO_TWO, "--quantity", "classify", "--out", str(out)]
        for axis in axes:
            argv += ["--axes", axis]
        assert main(argv) == EXIT_INVALID
        assert "exactly two --axes" in capsys.readouterr().err and not out.exists()

    def test_axis_with_three_fields_exits_2(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code = main(["scan", "--state", TWO_TWO, "--quantity", "classify",
                     "--axes", "a:1:2", "--axes", "c:0:1:3", "--out", str(out)])
        assert code == EXIT_INVALID
        assert "name:min:max:steps" in capsys.readouterr().err and not out.exists()

    @pytest.mark.parametrize("base,quantity,axis", [
        ({"family": "two_two", "a": 1.0, "b": 1.0, "c": 0.0}, "classify", "c:0:1:200000"),
        ({"family": "standard2", "a": 1.0, "b": 1.0, "c1": 0.0, "c2": 0.0}, "swap",
         "c1:0:1:200000"),
    ], ids=["grid", "cells"])
    def test_grid_too_large_for_memory_exits_2(self, base, quantity, axis, tmp_path):
        # each axis fits, their 200000 x 200000 float64 grid (298 GiB) does not:
        # refused before any cell is evaluated.  The child's address space is
        # capped at 4 GiB, so numpy refuses the grid before touching memory
        child = textwrap.dedent("""
            import resource, sys
            resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))
            from cventangle.cli import main
            sys.exit(main(sys.argv[1:]))
        """)
        out = tmp_path / "x.csv"
        proc = subprocess.run(
            [sys.executable, "-c", child, "scan", "--state", json.dumps(base),
             "--quantity", quantity, "--axes", "a:1:2:200000", "--axes", axis, "--out", str(out)],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == EXIT_INVALID, proc.stderr
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
        assert "200000 x 200000" in proc.stderr
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("axis", ["a:x:1:5", "a:0:1:five", "a:0:1:2.5"])
    def test_non_numeric_axis_exits_2(self, axis, tmp_path, capsys):
        code = main(
            [
                "scan",
                "--state",
                json.dumps({"family": "two_two", "a": 1.0, "b": 1.0, "c": 0.0}),
                "--quantity",
                "classify",
                "--axes",
                axis,
                "--axes",
                "c:0:0.8:5",
                "--out",
                str(tmp_path / "x.csv"),
            ]
        )
        assert code == EXIT_INVALID
        assert "non-numeric" in capsys.readouterr().err

    @pytest.mark.parametrize("axis", ["c:-1e308:1e308:3", "c:nan:1:3", "c:0:inf:3"])
    def test_axis_beyond_float_range_exits_2(self, axis, tmp_path, capsys):
        # a range whose width overflows has no representable grid points
        code = main(["scan", "--state", TWO_TWO, "--quantity", "classify",
                     "--axes", "a:0.5:1:3", "--axes", axis, "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_INVALID
        assert "range must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("steps", [10**12, 10**29, 2**63])
    @pytest.mark.parametrize("base,quantity,axis", [
        ({"family": "two_two", "a": 1.0, "b": 1.0, "c": 0.0}, "classify", "c:0:0.8:3"),
        ({"family": "standard2", "a": 1.0, "b": 1.0, "c1": 0.0, "c2": 0.0}, "swap", "c1:0:0.1:3"),
    ], ids=["grid", "cells"])
    def test_axis_too_large_for_memory_exits_2(self, base, quantity, axis, steps, tmp_path,
                                               capsys):
        # numpy refuses each of these sizes before allocating anything
        out = tmp_path / "x.csv"
        for axes in ([f"a:1:2:{steps}", axis], [axis, f"a:1:2:{steps}"]):
            code = main(["scan", "--state", json.dumps(base), "--quantity", quantity,
                         "--axes", axes[0], "--axes", axes[1], "--out", str(out)])
            err = capsys.readouterr().err
            assert code == EXIT_INVALID and not out.exists()
            assert err.startswith("error: ") and err.count("\n") == 1, err

    def test_single_step_axis_exits_2(self, tmp_path):
        code = main(
            [
                "scan",
                "--state",
                json.dumps({"family": "photon_added_sts", "n": 1.0, "r": 1.0}),
                "--quantity",
                "witness01",
                "--axes",
                "n:1:1:1",
                "--axes",
                "r:0:1:5",
                "--out",
                str(tmp_path / "x.csv"),
            ]
        )
        assert code == EXIT_INVALID

    def test_unwritable_path_exits_4_no_partial_file(self):
        code = main(
            [
                "scan",
                "--state",
                json.dumps({"family": "photon_added_sts", "n": 1.0, "r": 1.0}),
                "--quantity",
                "witness01",
                "--axes",
                "n:0.1:1:3",
                "--axes",
                "r:0.1:1:3",
                "--out",
                "/nonexistent-dir/out.csv",
            ]
        )
        assert code == EXIT_IO
        assert not os.path.exists("/nonexistent-dir/out.csv")

    def test_failed_replace_exits_4_and_removes_the_temp_file(self, tmp_path, capsys):
        # the CSV is written to a temp file beside --out, then moved over it:
        # a directory there makes the move fail after the write
        out = tmp_path / "out.csv"
        out.mkdir()
        code = main(["scan", "--state", PHOTON, "--quantity", "witness01",
                     "--axes", "n:0.1:1:3", "--axes", "r:0.1:1:3", "--out", str(out)])
        assert code == EXIT_IO
        assert capsys.readouterr().err.startswith("I/O error: cannot write scan output")
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"] and out.is_dir()
        assert list(out.iterdir()) == []


def eval_record(doc, quantity, capsys) -> dict:
    """The ``eval`` record of one descriptor, which must exit 0."""
    assert main(["eval", "--state", json.dumps(doc), "--quantity", quantity]) == EXIT_OK
    return json.loads(capsys.readouterr().out)


def eval_cell(doc, quantity, capsys) -> tuple[str, str]:
    """The (value, verdict) a scan cell should hold, read off the printed
    ``eval`` record; a refused state is ``nan,invalid``."""
    if main(["eval", "--state", json.dumps(doc), "--quantity", quantity]) != EXIT_OK:
        capsys.readouterr()
        return "nan", "invalid"
    record = json.loads(capsys.readouterr().out)
    if quantity in ("realignment_norm", "classify"):
        value, verdict = record["norm"], record["verdict"]
    else:
        value = record["crenLower" if quantity == "bounds" else "value"]
        verdict = "entangled" if record["entangled"] else "undetected"
    return repr(math.nan if value is None else float(value)), verdict


#: Every (family, quantity) that scan supports, with a base state and two axes;
#: between them the 3x3 grids reach refused, unphysical, undetected and
#: detected cells.
SCANNABLE = [
    ({"family": "standard2", "a": 0.5, "b": 0.5, "c1": 0.2, "c2": -0.4},
     ("a:0.25:1:3", "c1:-0.45:0.45:3"),
     ["optimal_witness", "witness01", "swap", "realignment_norm", "bounds"]),
    ({"family": "two_two", "a": 1.0, "b": 1.0, "c": 0.0},
     ("a:0.5:1.5:3", "c:0:0.8:3"), ["realignment_norm", "classify"]),
    ({"family": "photon_added_sts", "n": 1.0, "r": 1.0},
     ("n:0:2:3", "r:0:1:3"), ["witness01", "swap", "bounds"]),
    ({"family": "coherent_mixture", "p": 0.5, "alpha1": [1.0, 0.0], "alpha2": [-1.0, 0.0]},
     ("p:0:1:3", "p:0.2:1:3"), ["witness01", "swap", "bounds"]),
]


class TestQuantityTable:
    @pytest.mark.parametrize(
        "base,axes,quantity",
        [(base, axes, q) for base, axes, quantities in SCANNABLE for q in quantities],
        ids=[f"{base['family']}-{q}" for base, _axes, quantities in SCANNABLE for q in quantities],
    )
    def test_scan_cell_equals_eval_record(self, base, axes, quantity, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        argv = ["scan", "--state", json.dumps(base), "--quantity", quantity, "--out", str(out)]
        assert main([*argv, "--axes", axes[0], "--axes", axes[1]]) == EXIT_OK
        capsys.readouterr()
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert len(rows) == 9
        names = [axis.split(":")[0] for axis in axes]
        for v1, v2, value, verdict in rows:
            doc = {**base, names[0]: float(v1)}
            doc[names[1]] = float(v2)
            assert (value, verdict) == eval_cell(doc, quantity, capsys), (v1, v2)

    @settings(max_examples=300, deadline=None, database=None)
    @given(data=st.data(), family=st.sampled_from(["photon_added_sts", "two_two"]))
    @example(data=None, family="two_two")
    def test_grid_cell_equals_eval_record_at_float_edges(self, data, family):
        # eval runs the closed forms on Python floats, a grid scan on arrays:
        # a cell must equal the record bit for bit at the edges of the float
        # branch, and a refused point read nan,invalid where eval exits 2 or 3.
        # The explicit example (no data) is the 2+2 point at the detection edge
        def near(x):
            return data.draw(st.integers(-4, 4).map(lambda k: step_ulps(x, k)))

        if data is None:
            quantity = "classify"
            point = {name: TWO_TWO_EDGE[name] for name in "abc"}
        elif family == "photon_added_sts":
            quantity = data.draw(st.sampled_from(["witness01", "swap", "bounds"]))
            # e^{4r} and cosh 2r overflow past these r
            r = data.draw(st.one_of(st.sampled_from([709.782712893384 / 4,
                                                     710.4758600739439 / 2]).map(near),
                                    st.floats(-0.5, 3.0), st.floats(0.0, 400.0)))
            n = data.draw(st.one_of(st.sampled_from([0.0, 1e154, 1e300, 1e308]),
                                    st.floats(-0.5, 3.0)))
            point = {"n": n, "r": r}
        else:
            quantity = "classify"
            a, b = (data.draw(st.one_of(st.sampled_from([0.25, 2.0**500, 1e200, 1e308]).map(near),
                                        st.floats(0.25, 3.0))) for _ in "ab")
            sab = math.sqrt(a) * math.sqrt(b)
            try:
                threshold = family_threshold(a, b)
            except InvalidArgumentError:  # below the vacuum bound
                threshold = 0.0
            except NumericDomainError:  # lost to rounding
                threshold = sab
            c = data.draw(st.one_of(st.sampled_from([threshold, sab]).map(near),
                                    st.floats(-1.0, 1.0).map(lambda u: u * threshold),
                                    st.floats(-1.0, 1.0).map(lambda u: u * sab)))
            point = {"a": a, "b": b, "c": c}
        doc = {"family": family, **point}
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["eval", "--state", json.dumps(doc), "--quantity", quantity])
        if code == EXIT_OK:
            record = json.loads(out.getvalue())
            value = record.get("value", record.get("norm", record.get("crenLower")))
            verdict = (record.get("verdict")
                       or ("entangled" if record["entangled"] else "undetected"))
            expected = (repr(math.nan if value is None else value), verdict)
        else:
            assert code in (EXIT_INVALID, EXIT_NUMERIC) and "Traceback" not in err.getvalue()
            expected = ("nan", "invalid")
        axes = [f"{name}:{value!r}:{value!r}:2" for name, value in list(point.items())[:2]]
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "grid.csv")
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["scan", "--state", json.dumps(doc), "--quantity", quantity,
                             "--axes", axes[0], "--axes", axes[1], "--out", path]) == EXIT_OK
            with open(path) as fh:
                cells = {tuple(line.split(",")[2:]) for line in fh.read().splitlines()[1:]}
        assert cells == {expected}, (doc, quantity)

    def test_norm_edge_is_detected_on_every_route(self, tmp_path, capsys):
        # a norm of fl(1 + 1e-10) has the optimal-witness value 1 - norm below
        # -1e-10, and every route reads it with that one rule
        records = {}
        for doc, quantity in [(STANDARD2_EDGE, "optimal_witness"),
                              (STANDARD2_EDGE, "realignment_norm"),
                              (TWO_TWO_EDGE, "classify"), (TWO_TWO_EDGE, "realignment_norm")]:
            assert main(["eval", "--state", json.dumps(doc), "--quantity", quantity]) == EXIT_OK
            records[doc["family"], quantity] = json.loads(capsys.readouterr().out)
        assert records["standard2", "optimal_witness"]["value"] == 1.0 - 1.0000000001
        assert records["standard2", "optimal_witness"]["entangled"] is True
        assert records["standard2", "realignment_norm"]["verdict"] == "entangled"
        assert records["two_two", "classify"]["verdict"] == "bound_entangled"
        assert records["two_two", "realignment_norm"]["verdict"] == "entangled"
        for key in [("standard2", "realignment_norm"), ("two_two", "classify"),
                    ("two_two", "realignment_norm")]:
            assert records[key]["norm"] == 1.0000000001, key
        # the grid path: both axes pinned, so every cell is the 2+2 point
        out = tmp_path / "edge.csv"
        a, c = TWO_TWO_EDGE["a"], TWO_TWO_EDGE["c"]
        assert main(["scan", "--state", json.dumps({**TWO_TWO_EDGE, "c": 0.0}),
                     "--quantity", "classify", "--axes", f"a:{a!r}:{a!r}:3",
                     "--axes", f"c:{c!r}:{c!r}:3", "--out", str(out)]) == EXIT_OK
        cells = [line.split(",", 2)[2] for line in out.read_text().splitlines()[1:]]
        assert cells == ["1.0000000001,bound_entangled"] * 9

    @pytest.mark.parametrize("family,quantity", [(f, q) for f in FAMILIES for q in QUANTITIES],
                             ids=[f"{f.name}-{q}" for f in FAMILIES for q in QUANTITIES])
    def test_scan_and_eval_agree_on_support(self, family, quantity, tmp_path, capsys):
        # a quantity the family does not evaluate is refused by scan as by
        # eval, before any cell is filled and without an output file
        out = tmp_path / "grid.csv"
        bases = {base["family"]: (base, axes) for base, axes, _quantities in SCANNABLE}
        if not family.axes:  # raw_covariance: scan refuses the family whatever the quantity
            base, axes, expected = {"family": family.name}, ("a:0:1:2", "b:0:1:2"), EXIT_INVALID
        else:
            base, axes = bases[family.name]
            expected = main(["eval", "--state", json.dumps(base), "--quantity", quantity])
            assert expected in (EXIT_OK, EXIT_INVALID)
        scan_code = main(["scan", "--state", json.dumps(base), "--quantity", quantity,
                          "--axes", axes[0], "--axes", axes[1], "--out", str(out)])
        assert scan_code == expected
        assert out.exists() == (scan_code == EXIT_OK)
        if scan_code == EXIT_INVALID and family.axes:
            assert "not available for family" in capsys.readouterr().err

    def test_closed_form_families_run_no_eigen_solve(self, tmp_path, monkeypatch, capsys):
        # standard2 and two_two decide physicality in closed form, and a
        # detected 2+2 point is PPT by identity: no eigen-solve anywhere;
        # raw_covariance runs the physicality eigen-solve once per build and
        # no second one in realignment_norm
        from cventangle import state_descriptor, symplectic, tmsv_params

        def forbidden(*_args, **_kwargs):
            raise AssertionError("an eigen-solve ran on a closed-form family")

        monkeypatch.setattr(symplectic, "is_physical", forbidden)
        monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
        tmsv = json.dumps(state_descriptor(tmsv_params(0.6)))
        for quantity in ("optimal_witness", "witness01", "swap", "bounds", "realignment_norm"):
            assert main(["eval", "--state", tmsv, "--quantity", quantity]) == EXIT_OK
        assert main(["eval", "--state", TWO_TWO, "--quantity", "realignment_norm"]) == EXIT_OK
        assert main(["eval", "--state", TWO_TWO, "--quantity", "classify"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out.splitlines()[-1])["verdict"] == "bound_entangled"
        out = tmp_path / "grid.csv"
        assert main(["scan", "--state", TWO_TWO, "--quantity", "classify", "--axes",
                     "a:0.5:1.5:4", "--axes", "c:0:1.2:13", "--out", str(out)]) == EXIT_OK
        assert b"bound_entangled" in out.read_bytes()

        monkeypatch.undo()
        calls = []

        def counted(V, _original=symplectic.is_physical):
            calls.append(1)
            return _original(V)

        monkeypatch.setattr(symplectic, "is_physical", counted)
        raw = json.dumps(state_descriptor(tmsv_params(0.6).covariance()))
        for quantity in ("witness01", "swap", "bounds", "realignment_norm"):
            assert main(["eval", "--state", raw, "--quantity", quantity]) == EXIT_OK
        assert len(calls) == 4

    def test_closed_form_families_build_no_covariance(self, monkeypatch):
        # standard2 supplies its witness and SWAP slice matrices from (a, b,
        # c1, c2), and two_two its norms in closed form: no eval of either
        # family builds a CovarianceMatrix
        from cventangle import state_descriptor, symplectic, tmsv_params

        def forbidden(_self):
            raise AssertionError("a closed-form family built a CovarianceMatrix")

        monkeypatch.setattr(symplectic.CovarianceMatrix, "__post_init__", forbidden)
        tmsv = json.dumps(state_descriptor(tmsv_params(0.6)))
        for quantity in ("optimal_witness", "witness01", "swap", "bounds", "realignment_norm"):
            assert main(["eval", "--state", tmsv, "--quantity", quantity]) == EXIT_OK
        for quantity in ("realignment_norm", "classify"):
            assert main(["eval", "--state", TWO_TWO, "--quantity", quantity]) == EXIT_OK
        with pytest.raises(AssertionError, match="built a CovarianceMatrix"):
            tmsv_params(0.6).covariance()

    def test_classify_scan_skips_gram_pipeline(self, tmp_path, monkeypatch):
        # the Gram spectrum only fills the eval record's nus/a0; a scan cell
        # reads the closed-form classification alone
        from cventangle import realignment

        def scan(path, a_axis="a:0.5:1.5:4"):
            return main(["scan", "--state", TWO_TWO, "--quantity", "classify",
                         "--axes", a_axis, "--axes", "c:0:1.2:13", "--out", str(path)])

        assert scan(tmp_path / "plain.csv") == EXIT_OK
        plain = (tmp_path / "plain.csv").read_bytes()
        assert b"bound_entangled" in plain and b"unphysical" in plain

        def no_gram(_V):
            raise AssertionError("a scan cell ran the Gram pipeline")

        monkeypatch.setattr(realignment, "realignment_norm", no_gram)
        assert scan(tmp_path / "patched.csv") == EXIT_OK
        assert (tmp_path / "patched.csv").read_bytes() == plain
        # a threshold that overflows is refused by the closed form itself
        assert scan(tmp_path / "huge.csv", "a:1e200:1e300:2") == EXIT_OK
        cells = [line.split(",")[2:] for line in (tmp_path / "huge.csv").read_text().splitlines()]
        assert cells[1:] == [["nan", "invalid"]] * 26

    def test_cell_scans_decode_the_base_once(self, tmp_path, monkeypatch):
        # a per-cell scan builds each state from the base fields decoded once
        # and the cell's axis values, never through a descriptor round trip
        from cventangle import cli

        def scan(base, quantity, axes, name):
            path = tmp_path / name
            argv = ["scan", "--state", json.dumps(base), "--quantity", quantity,
                    "--axes", axes[0], "--axes", axes[1], "--out", str(path)]
            assert main(argv) == EXIT_OK
            return path.read_bytes()

        standard2 = {"family": "standard2", "a": 0.5, "b": 0.5, "c1": 0.2, "c2": -0.4}
        cases = [(standard2, "realignment_norm", ("a:0.25:1:6", "c1:-0.45:0.45:5")),
                 (json.loads(MIXTURE), "swap", ("p:0:1:6", "p:0.2:1:5"))]
        plain = [scan(*case, f"plain{i}.csv") for i, case in enumerate(cases)]

        def no_parse(_doc):
            raise AssertionError("a scan cell parsed a descriptor")

        monkeypatch.setattr(cli, "parse_state_descriptor", no_parse)
        assert [scan(*case, f"patched{i}.csv") for i, case in enumerate(cases)] == plain
        axes = ("a:0.25:1:3", "c1:-0.45:0.45:4")

        def cells(base):
            text = scan(base, "realignment_norm", axes, "malformed.csv").decode()
            return [line.split(",")[2:] for line in text.splitlines()[1:]]

        # a malformed field that no axis sets makes every cell invalid ...
        assert cells({**standard2, "b": "wide"}) == [["nan", "invalid"]] * 12
        assert cells({k: v for k, v in standard2.items() if k != "c2"}) == [["nan", "invalid"]] * 12
        # ... while one that an axis overrides never reaches a cell
        good = cells(standard2)
        assert sum(verdict != "invalid" for _value, verdict in good) == 7
        for bad in ({**standard2, "a": "wide"}, {k: v for k, v in standard2.items() if k != "a"}):
            assert cells(bad) == good

    @pytest.mark.parametrize(
        "doc,quantity,keys",
        [
            (VACUUM, "optimal_witness",
             ["state", "quantity", "mu1", "mu2", "muMinus", "muPlus", "value", "entangled"]),
            (PHOTON, "witness01", ["state", "quantity", "mu1", "mu2", "value", "entangled"]),
            (MIXTURE, "swap", ["state", "quantity", "value", "entangled"]),
            (TWO_TWO, "realignment_norm", ["state", "quantity", "norm", "nus", "a0", "verdict"]),
            (json.dumps({"family": "raw_covariance", "modes": 2, "ordering": "x1,p1,x2,p2",
                         "matrix": [[0.5, 0, 0.4, 0], [0, 0.5, 0, -0.4], [0.4, 0, 0.5, 0],
                                    [0, -0.4, 0, 0.5]]}), "realignment_norm",
             ["state", "quantity", "norm", "normError", "nus", "a0", "verdict"]),
            (TWO_TWO, "classify",
             ["state", "quantity", "verdict", "norm", "threshold", "nus", "a0"]),
            (json.dumps({"family": "two_two", "a": 1.0, "b": 1.0, "c": 0.9}), "classify",
             ["state", "quantity", "verdict", "norm", "threshold"]),
            (MIXTURE, "bounds",
             ["state", "quantity", "crenLower", "concurrenceLower", "eofLower", "tangleLower",
              "inputs", "entangled"]),
        ],
    )
    def test_record_key_order(self, doc, quantity, keys, capsys):
        assert main(["eval", "--state", doc, "--quantity", quantity]) == EXIT_OK
        record = json.loads(capsys.readouterr().out)
        assert list(record) == keys
        assert list(record["state"]) == list(json.loads(doc))
        if quantity == "bounds":
            assert list(record["inputs"]) == ["witnessValue01", "swapValue"]


@pytest.fixture
def no_builds(monkeypatch):
    """Make building any oracle state fail the test."""
    def no_build(*_args):
        raise AssertionError("a state was built")

    for builder in ("tmsv_fock", "squeezed_thermal_fock", "photon_added_sts_fock",
                    "coherent_mixture_fock"):
        monkeypatch.setattr(fock, builder, no_build)


class TestVerify:
    def test_small_cutoff_suite_passes(self, capsys):
        code = main(["verify", "--cutoff", "25", "--rmax", "0.4"])
        out = capsys.readouterr().out
        report = json.loads(out)
        assert code == EXIT_OK
        assert report["all_pass"] is True
        names = {c["name"] for c in report["checks"]}
        assert "tmsv_realignment_trace_norm" in names
        assert "coherent_mixture_swap" in names

    def test_inadequate_cutoff_reports_truncation(self, capsys):
        code = main(["verify", "--cutoff", "6", "--rmax", "0.6"])
        report = json.loads(capsys.readouterr().out)
        assert code == EXIT_VERIFY
        assert report["all_pass"] is False
        failing = [c for c in report["checks"] if not c["pass"]]
        assert any("Truncation" in c.get("error", "") for c in failing)

    def test_truncation_only_failure_exits_3(self, capsys):
        # at cutoff 8 the coherent mixture loses 1.5e-6 of its trace, more than
        # the 1e-6 its SWAP check allows: the check fails, and says why
        code = main(["verify", "--cutoff", "8", "--rmax", "0.3"])
        report = json.loads(capsys.readouterr().out)
        assert code == EXIT_NUMERIC
        failing = [c for c in report["checks"] if not c["pass"]]
        assert [c["name"] for c in failing] == ["coherent_mixture_swap"]
        check = failing[0]
        assert check["traceDeficit"] > check["tolerance"]
        assert check["max_abs_deviation"] > check["tolerance"]
        assert "truncation" in check["error"].lower()

    def test_huge_squeezing_is_truncation_not_overflow(self, capsys):
        # cosh r overflows a double past r = 710: the states the squeezing
        # reaches cannot be held at any cutoff, which is a truncation failure
        code = main(["verify", "--cutoff", "8", "--rmax", "1000"])
        report = json.loads(capsys.readouterr().out)
        assert code == EXIT_NUMERIC
        squeezed = ("tmsv_", "squeezed_thermal_", "negativity_bounds_witness")
        for check in report["checks"]:
            assert check["pass"] is False
            assert check["error"].startswith("TruncationError")
            if check["name"].startswith(squeezed):
                assert "trace deficit 1 " in check["error"]

    def test_overflowing_squeezer_exponent_is_truncation(self, capsys):
        # at r ~ 1e308 the squeezer exponent -s (2m + delta + 1) overflows; its
        # exponential is exactly 0, so the states are refused as truncated,
        # with no overflow warning on the way
        code = main(["verify", "--cutoff", "4", "--rmax", "1e308"])
        captured = capsys.readouterr()
        assert code == EXIT_NUMERIC
        checks = json.loads(captured.out)["checks"]
        assert all(c["error"].startswith("TruncationError") for c in checks)
        names = ", ".join(c["name"] for c in checks)
        assert captured.err == f"verification failed by truncation only: {names}; raise --cutoff\n"

    def test_zero_squeezing_trivial(self, capsys):
        code = main(["verify", "--cutoff", "12", "--rmax", "0.0"])
        report = json.loads(capsys.readouterr().out)
        assert code == EXIT_OK
        tmsv = {c["name"]: c for c in report["checks"]}
        assert tmsv["tmsv_witness_w01"]["max_abs_deviation"] < 1e-12

    def test_oversized_cutoff_exits_2(self):
        assert main(["verify", "--cutoff", "65"]) == EXIT_INVALID

    @pytest.mark.parametrize(
        "args",
        [["--cutoff", "-3"], ["--cutoff", "2"], ["--rmax", "nan"], ["--rmax", "inf"]],
        ids=["negative-cutoff", "cutoff-below-4", "nan-rmax", "infinite-rmax"],
    )
    def test_bad_arguments_exit_2_before_building(self, args, capsys, no_builds):
        assert main(["verify", *args]) == EXIT_INVALID
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("cutoff", [8.5, "8", None, True], ids=["float", "str", "none", "bool"])
    def test_non_integer_cutoff_refused_before_building(self, cutoff, no_builds):
        with pytest.raises(InvalidArgumentError, match="cutoff must be an integer"):
            crosscheck.run_verification(cutoff, 0.3)

    def test_numpy_integer_cutoff_accepted(self):
        report = crosscheck.run_verification(np.int64(40), 0.6)
        assert type(report["cutoff"]) is int
        assert report == crosscheck.run_verification(40, 0.6)

    def test_default_suite_passes(self, capsys):
        code = main(["verify"])
        report = json.loads(capsys.readouterr().out)
        assert code == EXIT_OK and report["all_pass"] is True
        assert (report["cutoff"], report["r_max"]) == (40, 0.6)
        assert len(report["checks"]) == 10
        for check in report["checks"]:
            assert 0.0 <= check["traceDeficit"] <= fock.MAX_TRACE_DEFICIT

    def test_truncation_provenance(self, capsys):
        # photon-added (0.5, 0.6) cannot be built at cutoff 6: the check that
        # reads only it has no deficit, the one that also reads built states
        # reports their worst
        main(["verify", "--cutoff", "6", "--rmax", "0.6"])
        checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
        assert checks["photon_added_witness_w01"]["traceDeficit"] is None
        assert "TruncationError" in checks["photon_added_witness_w01"]["error"]
        thermal = fock.squeezed_thermal_fock(0.2, 0.6, 6).trace_deficit
        assert checks["negativity_bounds_witness"]["traceDeficit"] == thermal
        assert checks["squeezed_thermal_witness_w01"]["traceDeficit"] == thermal

    def test_each_state_built_once_per_call(self, capsys, monkeypatch):
        builds = []
        for name in ("tmsv_fock", "squeezed_thermal_fock", "photon_added_sts_fock",
                     "coherent_mixture_fock"):
            original = getattr(fock, name)
            monkeypatch.setattr(fock, name, lambda *a, _f=original: builds.append(a) or _f(*a))
        for _ in range(2):
            assert main(["verify", "--cutoff", "12", "--rmax", "0.3"]) == EXIT_OK
        capsys.readouterr()
        # 3 TMSV + 3 squeezed thermal + mixture + photon-added, rebuilt by each call
        assert len(builds) == 16 and len(set(builds)) == 8


class TestEntryPoint:
    def test_module_invocation(self):
        result = run_cli(["eval", "--state", VACUUM, "--quantity", "optimal_witness"])
        assert result.returncode == EXIT_OK
        assert json.loads(result.stdout)["entangled"] is False

    def test_runtime_imports_numpy_only(self, tmp_path):
        # a fresh interpreter, since this test process imports scipy itself
        script = f"""
import contextlib, io, json, sys
import cventangle
from cventangle.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    codes = [
        main(["eval", "--state", {VACUUM!r}, "--quantity", "optimal_witness"]),
        main(["scan", "--state", {PHOTON!r}, "--quantity", "witness01", "--axes",
              "n:0:1:3", "--axes", "r:0:1:3", "--out", {str(tmp_path / "grid.csv")!r}]),
        main(["scan", "--state", {VACUUM!r}, "--quantity", "realignment_norm", "--axes",
              "a:0.25:1:3", "--axes", "b:0.25:1:3", "--workers", "2",
              "--out", {str(tmp_path / "cells.csv")!r}]),
        main(["verify", "--cutoff", "12", "--rmax", "0.3"]),
    ]
loaded = [m for m in sys.modules if m.split(".")[0] in ("scipy", "multiprocessing")]
print(json.dumps([codes, loaded]))
"""
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        codes, loaded = json.loads(result.stdout)
        assert codes == [EXIT_OK] * 4
        # numpy alone, and every scan stays in this process
        assert loaded == []

    def test_bad_quantity_argparse_exit(self):
        result = run_cli(["eval", "--state", VACUUM, "--quantity", "magic"])
        assert result.returncode == 2
