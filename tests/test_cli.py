import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from cventangle import fock
from cventangle.cli import EXIT_INVALID, EXIT_IO, EXIT_NUMERIC, EXIT_OK, EXIT_VERIFY, main

TWO_TWO = json.dumps({"family": "two_two", "a": 1.0, "b": 1.0, "c": 0.78})
PHOTON = json.dumps({"family": "photon_added_sts", "n": 1.0, "r": 1.0})
VACUUM = json.dumps({"family": "standard2", "a": 0.25, "b": 0.25, "c1": 0.0, "c2": 0.0})
MIXTURE = json.dumps(
    {"family": "coherent_mixture", "p": 0.6, "alpha1": [1.0, 0.0], "alpha2": [-1.0, 0.0]}
)


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

    def test_truncation_failure_exits_3(self):
        # eval has no Fock route any more; a numeric-domain failure it still
        # reaches is the singular Gram pipeline of an overflowing covariance
        big = json.dumps({"family": "standard2", "a": 1e200, "b": 1e200, "c1": 0.0, "c2": 0.0})
        code = main(["eval", "--state", big, "--quantity", "realignment_norm"])
        assert code == EXIT_NUMERIC

    @pytest.mark.parametrize(
        "doc,quantity",
        [
            ({"family": "photon_added_sts", "n": 1.0, "r": 200.0}, "witness01"),
            ({"family": "photon_added_sts", "n": 1.0, "r": 400.0}, "swap"),
            (
                {"family": "coherent_mixture", "p": 0.5, "alpha1": [1e200, 0.0],
                 "alpha2": [0.0, 0.0]},
                "swap",
            ),
        ],
    )
    def test_arithmetic_failure_exits_3(self, doc, quantity, capsys):
        code = main(["eval", "--state", json.dumps(doc), "--quantity", quantity])
        assert code == EXIT_NUMERIC
        assert "NumericDomainError" in capsys.readouterr().err

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
    def test_bad_arguments_exit_2_before_building(self, args, capsys, monkeypatch):
        def no_build(*_args):
            raise AssertionError("a state was built")

        for builder in ("tmsv_fock", "squeezed_thermal_fock", "photon_added_sts_fock",
                        "coherent_mixture_fock"):
            monkeypatch.setattr(fock, builder, no_build)
        assert main(["verify", *args]) == EXIT_INVALID
        assert capsys.readouterr().out == ""

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
