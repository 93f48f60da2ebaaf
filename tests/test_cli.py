import argparse
import json
import os
import pathlib
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest

import royalgamma
from royalgamma.cli import _build_parser, main
from royalgamma.gamma import extract_royal_data, generate_h_nu


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def interior_file(tmp_path):
    return write_json(tmp_path / "interior.json",
                      {"nodes": [{"sigma": [0.0, 0.0], "eta": [0.5, 0.0], "rho": None}]})


@pytest.fixture
def boundary_file(tmp_path):
    return write_json(tmp_path / "boundary.json",
                      {"nodes": [{"sigma": [1.0, 0.0], "eta": [0.0, 1.0], "rho": 1.0}]})


def data_to_json(data):
    return data.to_json_dict()


class TestSolveCommand:
    def test_interior_example_solves(self, interior_file, tmp_path):
        out = tmp_path / "out.json"
        code = main(["solve", "--input", interior_file, "--output", str(out), "--omega-grid", "32"])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["status"] == "solved"
        assert payload["verified_count"] >= 1
        assert payload["s0p0_kind"] == "family"
        assert all(sol["report"]["pass"] for sol in payload["solutions"])

    def test_perturbed_rho_fails_step_3(self, tmp_path, capsys):
        data = extract_royal_data(generate_h_nu(1, 0.5))
        obj = data.to_json_dict()
        obj["nodes"][0]["rho"] += 0.5
        path = write_json(tmp_path / "bad.json", obj)
        out = tmp_path / "out.json"
        code = main(["solve", "--input", path, "--output", str(out)])
        assert code == 2
        assert "step 3" in capsys.readouterr().err
        assert json.loads(out.read_text())["failed_step"] == 3

    def test_indefinite_pick_fails_step_1(self, tmp_path, capsys):
        obj = {"nodes": [
            {"sigma": [1.0, 0.0], "eta": [1.0, 0.0], "rho": 0.1},
            {"sigma": [-1.0, 0.0], "eta": [-1.0, 0.0], "rho": 0.1},
        ]}
        path = write_json(tmp_path / "indef.json", obj)
        code = main(["solve", "--input", path])
        assert code == 2
        assert "step 1" in capsys.readouterr().err

    def test_empty_nodes_is_input_error(self, tmp_path):
        path = write_json(tmp_path / "empty.json", {"nodes": []})
        assert main(["solve", "--input", path]) == 1

    def test_malformed_json_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"nodes": [')
        assert main(["solve", "--input", str(path)]) == 1
        assert "line" in capsys.readouterr().err

    def test_missing_file_is_input_error(self, tmp_path):
        assert main(["solve", "--input", str(tmp_path / "nope.json")]) == 1

    def test_directory_is_input_error(self, tmp_path, capsys):
        assert main(["solve", "--input", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("input error: ")

    def test_non_utf8_file_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"nodes": [], "note": "\xe9"}'.encode("latin-1"))
        assert main(["solve", "--input", str(path)]) == 1
        assert capsys.readouterr().err.startswith("input error: ")

    @pytest.mark.parametrize("node", [
        {"sigma": [1.0, 0.0], "eta": [0.0, 1.0], "rho": "x"},
        {"sigma": [1.0, 0.0], "eta": [0.0, 1.0], "rho": [1]},
        {"sigma": [float("nan"), 0.0], "eta": [0.5, 0.0], "rho": None},
        {"sigma": [0.0, 0.0], "eta": [float("nan"), 0.0], "rho": None},
        {"sigma": [1.0, 0.0], "eta": [0.0, 1.0], "rho": float("inf")},
    ], ids=["rho-string", "rho-list", "sigma-nan", "eta-nan", "rho-infinity"])
    def test_non_numeric_or_non_finite_data_is_input_error(self, node, tmp_path, capsys):
        path = write_json(tmp_path / "bad.json", {"nodes": [node]})
        assert main(["solve", "--input", path]) == 1
        assert capsys.readouterr().err.startswith("input error: ")

    def test_deterministic_output(self, boundary_file, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["solve", "--input", boundary_file, "--output", str(out1), "--omega-grid", "16"]) == 0
        assert main(["solve", "--input", boundary_file, "--output", str(out2), "--omega-grid", "16"]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_module_entry_point(self, interior_file):
        src = str(pathlib.Path(royalgamma.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "-m", "royalgamma", "solve", "--input", interior_file, "--omega-grid", "8"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)["status"] == "solved"

    def test_output_in_missing_directory_is_input_error(self, interior_file, tmp_path, capsys):
        out = tmp_path / "nodir" / "out.json"
        assert main(["solve", "--input", interior_file, "--output", str(out), "--omega-grid", "8"]) == 1
        assert capsys.readouterr().err.startswith("input error: cannot write output file")

    def test_omega_grid_bounds(self, interior_file):
        assert main(["solve", "--input", interior_file, "--omega-grid", "4"]) == 1
        assert main(["solve", "--input", interior_file, "--omega-grid", "70000"]) == 1


class TestVerifyCommand:
    def test_generator_self_verifies(self, tmp_path):
        out = tmp_path / "v.json"
        code = main(["verify", "--generator", "h_nu", "--nu", "0", "--r", "0.5", "--output", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["pass"] is True
        assert payload["boundary_classification_counts"].get("distinguished_bGamma") == 256

    def test_negative_nu_is_input_error(self, capsys):
        assert main(["verify", "--generator", "h_nu", "--nu", "-1"]) == 1
        assert "input error: nu must be a non-negative integer" in capsys.readouterr().err

    def test_output_in_missing_directory_is_input_error(self, tmp_path, capsys):
        out = tmp_path / "nodir" / "out.json"
        assert main(["verify", "--generator", "h_nu", "--nu", "0", "--output", str(out)]) == 1
        assert capsys.readouterr().err.startswith("input error: cannot write output file")

    def test_file_with_explicit_data(self, tmp_path):
        h = generate_h_nu(0, 0.5)
        data = extract_royal_data(h)
        path = write_json(tmp_path / "in.json", {"h": h.to_json_dict(), "data": data.to_json_dict()})
        assert main(["verify", "--input", path]) == 0

    def test_wrong_rho_fails(self, tmp_path):
        h = generate_h_nu(0, 0.5)
        data = extract_royal_data(h)
        obj = data.to_json_dict()
        obj["nodes"][0]["rho"] = 3.0
        path = write_json(tmp_path / "in.json", {"h": h.to_json_dict(), "data": obj})
        out = tmp_path / "v.json"
        assert main(["verify", "--input", path, "--output", str(out)]) == 3
        payload = json.loads(out.read_text())
        assert payload["pass"] is False
        assert payload["residuals"]["phasar_p_max"] == pytest.approx(2.0)

    @pytest.mark.parametrize("component, part, pair", [
        ("s", "num", [float("nan"), 0.0]),
        ("p", "num", [0.0, float("nan")]),
        ("s", "den", [float("inf"), 0.0]),
        ("p", "den", [1.0, float("-inf")]),
    ], ids=["s-num-nan", "p-num-nan", "s-den-infinity", "p-den-infinity"])
    def test_non_finite_map_coefficient_is_input_error(self, component, part, pair, tmp_path, capsys):
        obj = generate_h_nu(0, 0.5).to_json_dict()
        obj[component][part][0] = pair
        path = write_json(tmp_path / "bad.json", obj)
        assert main(["verify", "--input", path]) == 1
        assert capsys.readouterr().err.startswith("input error: ")

    def test_zero_denominator_is_input_error(self, tmp_path, capsys):
        obj = generate_h_nu(0, 0.5).to_json_dict()
        obj["s"]["den"] = obj["p"]["den"] = [[0.0, 0.0]]
        path = write_json(tmp_path / "bad.json", obj)
        assert main(["verify", "--input", path]) == 1
        assert capsys.readouterr().err.startswith("input error: ")

    def test_royal_range_map_flagged(self, tmp_path):
        obj = {
            "s": {"num": [[0.0, 0.0], [2.0, 0.0]], "den": [[1.0, 0.0]]},
            "p": {"num": [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]], "den": [[1.0, 0.0]]},
        }
        path = write_json(tmp_path / "hr.json", obj)
        out = tmp_path / "v.json"
        assert main(["verify", "--input", path, "--output", str(out)]) == 3
        assert json.loads(out.read_text())["royal_range"] is True


class TestSweepCommand:
    def test_boundary_family_row_count(self, boundary_file, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--input", boundary_file, "--output", str(out), "--omega-grid", "256"])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) - 1 >= 250  # only omega = +/- i are rejected
        header = lines[0].split(",")
        t_idx = header.index("t")
        for line in lines[1:]:
            assert abs(float(line.split(",")[t_idx])) < 1.0

    def test_interior_family_all_accepted(self, interior_file, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--input", interior_file, "--output", str(out), "--omega-grid", "64"]) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) - 1 == 64

    def test_unique_is_nothing_to_sweep(self, tmp_path, capsys):
        data = extract_royal_data(generate_h_nu(0, 0.5))
        path = write_json(tmp_path / "unique.json", data.to_json_dict())
        assert main(["sweep", "--input", path, "--output", str(tmp_path / "s.csv")]) == 2
        assert "nothing to sweep" in capsys.readouterr().err

    def test_svg_plot_well_formed(self, boundary_file, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--input", boundary_file, "--output", str(out),
                     "--omega-grid", "32", "--plot"]) == 0
        svg = tmp_path / "sweep.svg"
        tree = ET.parse(svg)
        ns = "{http://www.w3.org/2000/svg}"
        polylines = tree.getroot().iter(f"{ns}polyline")
        assert sum(1 for _ in polylines) >= 2

    def test_svg_path_keeps_dotted_directories(self, interior_file, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run.v2").mkdir()
        assert main(["sweep", "--input", interior_file, "--output", "run.v2/table",
                     "--omega-grid", "8", "--plot"]) == 0
        assert (tmp_path / "run.v2" / "table.svg").is_file()
        assert not (tmp_path / "run.svg").exists()

    def test_output_in_missing_directory_is_input_error(self, interior_file, tmp_path, capsys):
        out = tmp_path / "nodir" / "sweep.csv"
        assert main(["sweep", "--input", interior_file, "--output", str(out), "--omega-grid", "8", "--plot"]) == 1
        assert capsys.readouterr().err.startswith("input error: cannot write output file")

    def test_deterministic_csv(self, boundary_file, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["sweep", "--input", boundary_file, "--output", str(out1), "--omega-grid", "32"])
        main(["sweep", "--input", boundary_file, "--output", str(out2), "--omega-grid", "32"])
        assert out1.read_bytes() == out2.read_bytes()


class TestBlaschkeCommand:
    def test_parametrization_emitted(self, boundary_file, tmp_path):
        out = tmp_path / "bl.json"
        assert main(["blaschke", "--input", boundary_file, "--output", str(out), "--omega-grid", "16"]) == 0
        payload = json.loads(out.read_text())
        assert set(payload["parametrization"]) == {"tau", "a", "b", "c", "d"}
        assert payload["solutions"]
        for sol in payload["solutions"]:
            assert sol["max_interp_residual"] <= 1e-8
            assert sol["max_phasar_residual"] <= 1e-6
            assert len(sol["blaschke"]["zeros"]) == 1

    def test_indefinite_exits_2(self, tmp_path):
        obj = {"nodes": [
            {"sigma": [1.0, 0.0], "eta": [1.0, 0.0], "rho": 0.1},
            {"sigma": [-1.0, 0.0], "eta": [-1.0, 0.0], "rho": 0.1},
        ]}
        path = write_json(tmp_path / "indef.json", obj)
        assert main(["blaschke", "--input", path]) == 2


class TestRoundtripCommand:
    def test_generator_roundtrips(self, tmp_path):
        out = tmp_path / "rt.json"
        code = main(["roundtrip", "--generator", "h_nu", "--nu", "0", "--r", "0.5",
                     "--output", str(out), "--omega-grid", "16"])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["match"] is True
        assert payload["best_distance"] <= 1e-6

    def test_map_from_file(self, tmp_path):
        h = generate_h_nu(1, 0.4)
        path = write_json(tmp_path / "h.json", h.to_json_dict())
        assert main(["roundtrip", "--input", path, "--omega-grid", "16",
                     "--output", str(tmp_path / "rt.json")]) == 0

    def test_stiffer_radius_and_larger_degree(self, tmp_path):
        import time

        assert main(["roundtrip", "--generator", "h_nu", "--nu", "0", "--r", "0.9",
                     "--output", str(tmp_path / "a.json"), "--omega-grid", "16"]) == 0
        start = time.monotonic()
        assert main(["roundtrip", "--generator", "h_nu", "--nu", "1", "--r", "0.5",
                     "--output", str(tmp_path / "b.json"), "--omega-grid", "16"]) == 0
        assert time.monotonic() - start < 10.0

    def test_multiplicity_above_one_exits_2(self, tmp_path, capsys):
        h = generate_h_nu(0, 0.5)
        obj = h.to_json_dict()

        def interleave(pairs):
            out = []
            for pair in pairs:
                out.append(pair)
                out.append([0.0, 0.0])
            return out[:-1]

        doubled = {
            "s": {"num": interleave(obj["s"]["num"]), "den": interleave(obj["s"]["den"])},
            "p": {"num": interleave(obj["p"]["num"]), "den": interleave(obj["p"]["den"])},
        }
        path = write_json(tmp_path / "doubled.json", doubled)
        assert main(["roundtrip", "--input", path]) == 2
        assert "multiplicity" in capsys.readouterr().err.lower()

    def test_bad_generator_parameters(self):
        assert main(["roundtrip", "--generator", "h_nu", "--nu", "0", "--r", "1.5"]) == 1
        assert main(["roundtrip", "--generator", "nope"]) == 1


class TestToleranceFlag:
    @pytest.fixture
    def hnu1_file(self, tmp_path):
        return write_json(tmp_path / "hnu1.json", extract_royal_data(generate_h_nu(1, 0.5)).to_json_dict())

    def test_solve_tol_is_the_verification_threshold(self, hnu1_file, tmp_path):
        out = tmp_path / "out.json"
        args = ["solve", "--input", hnu1_file, "--output", str(out), "--omega-grid", "16"]
        assert main(args + ["--tol", "1e-17"]) == 3
        payload = json.loads(out.read_text())
        assert payload["status"] == "solved" and payload["verified_count"] == 0
        assert all(sol["report"]["pass_tol"] == 1e-17 for sol in payload["solutions"])
        assert main(args + ["--tol", "1e-6"]) == 0

    def test_verify_tol_is_the_verification_threshold(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["verify", "--generator", "h_nu", "--nu", "0", "--tol", "1e-20", "--output", str(out)]) == 3
        payload = json.loads(out.read_text())
        assert not payload["pass"] and payload["pass_tol"] == 1e-20

    def test_blaschke_rejects_tol(self, boundary_file, capsys):
        assert main(["blaschke", "--input", boundary_file, "--tol", "1e-6"]) == 1
        assert "input error:" in capsys.readouterr().err


SUBCOMMAND_FLAGS = {
    "solve": {"--input", "--output", "--tol", "--omega-grid"},
    "sweep": {"--input", "--output", "--omega-grid", "--plot"},
    "blaschke": {"--input", "--output", "--omega-grid"},
    "verify": {"--input", "--generator", "--nu", "--r", "--output", "--tol"},
    "roundtrip": {"--input", "--generator", "--nu", "--r", "--output", "--omega-grid"},
}


class TestSubcommandFlags:
    @pytest.mark.parametrize("name", sorted(SUBCOMMAND_FLAGS))
    def test_each_subcommand_declares_only_the_flags_it_reads(self, name):
        sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        flags = {opt for action in sub.choices[name]._actions for opt in action.option_strings}
        assert flags - {"-h", "--help"} == SUBCOMMAND_FLAGS[name]

    @pytest.mark.parametrize("argv", [
        ["sweep", "--input", "{data}", "--output", "{out}", "--omega-grid", "8", "--tol", "1e-6"],
        ["roundtrip", "--generator", "h_nu", "--omega-grid", "8", "--tol", "1e-6"],
        ["verify", "--generator", "h_nu", "--omega-grid", "16"],
        ["solve", "--input", "{data}", "--omega-grid", "8", "--plot"],
        ["solve", "--input", "{data}", "--omega-grid", "8", "--generator", "h_nu"],
        ["verify", "--input", "{map}", "--generator", "h_nu"],
    ], ids=["sweep-tol", "roundtrip-tol", "verify-omega-grid", "solve-plot", "solve-generator",
            "verify-input-and-generator"])
    def test_a_flag_the_subcommand_does_not_read_is_an_input_error(self, argv, interior_file, tmp_path, capsys):
        map_file = write_json(tmp_path / "h.json", generate_h_nu(0, 0.5).to_json_dict())
        paths = {"{data}": interior_file, "{out}": str(tmp_path / "out.csv"), "{map}": map_file}
        assert main([paths.get(arg, arg) for arg in argv]) == 1
        assert capsys.readouterr().err.startswith("input error: ")
