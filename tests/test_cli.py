"""Subcommand behavior, exit codes, and byte determinism."""

import json
import warnings

import numpy as np
import pytest

from yaoyao.cli import main

BOX_SPEC = {"kind": "uniform-box", "lo": [0, 0], "hi": [1, 1]}

ASYM_CSV = "x1,x2\n0,0\n1,2\n2,1\n3,3\n"
SQUARE_CSV = "x1,x2\n0,0\n1,0\n0,1\n1,1\n"
# 1e308 * x1 + 1e308 leaves the float range for x1 > 0.8
OVERFLOW_SYSTEM = {"matrix": [[1e308, 0], [0, 1e308]], "offset": [1e308, 0]}
# the weighted cloud of CI's console-script step: x1, x2 and then w columns
_r = np.random.default_rng(5)
WEIGHTED_ROWS = np.column_stack([_r.standard_normal((512, 2)), _r.uniform(0.1, 3.0, 512)])


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "box.json").write_text(json.dumps(BOX_SPEC))
    (tmp_path / "asym.csv").write_text(ASYM_CSV)
    (tmp_path / "square.csv").write_text(SQUARE_CSV)
    return tmp_path


def assert_one_error_line(capsys):
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


class TestSample:
    def test_creates_rows(self, workdir, capsys):
        out = workdir / "pts.csv"
        code = main(["sample", "--spec", str(workdir / "box.json"),
                     "-n", "100", "--seed", "1", "-o", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 101  # header + 100 rows

    def test_byte_identical_reruns(self, workdir):
        a, b = workdir / "a.csv", workdir / "b.csv"
        argv = ["sample", "--spec", str(workdir / "box.json"), "-n", "50", "--seed", "9"]
        assert main(argv + ["-o", str(a)]) == 0
        assert main(argv + ["-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_malformed_spec_exits_2(self, workdir, capsys):
        bad = workdir / "bad.json"
        bad.write_text('{"kind": "nonsense"}')
        code = main(["sample", "--spec", str(bad), "-n", "5", "-o", str(workdir / "x.csv")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_misspelled_spec_key_exits_2(self, workdir, capsys):
        bad = workdir / "typo.json"
        bad.write_text('{"kind": "uniform-box", "lo": [0, 0], "hi": [1, 1], "hii": [2, 2]}')
        code = main(["sample", "--spec", str(bad), "-n", "5", "-o", str(workdir / "x.csv")])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "unknown ['hii']" in err[0]

    @pytest.mark.parametrize("name, text", [
        ("missing.json", None),
        ("list.json", "[]"),
        ("mixed.json", json.dumps({"kind": "mixture", "weights": [1, 1], "components": [
            BOX_SPEC, {"kind": "uniform-box", "lo": [0, 0, 0], "hi": [1, 1, 1]}]})),
    ])
    def test_bad_spec_file_exits_2(self, workdir, capsys, name, text):
        if text is not None:
            (workdir / name).write_text(text)
        code = main(["sample", "--spec", str(workdir / name), "-n", "5",
                     "-o", str(workdir / "x.csv")])
        assert code == 2
        assert_one_error_line(capsys)
        assert not (workdir / "x.csv").exists()

    @pytest.mark.parametrize("doc", [
        {"kind": "uniform-box", "lo": [], "hi": []},
        {"kind": "uniform-simplex", "vertices": [[]]},
        {"kind": "finite-atoms", "points": [[]], "weights": [1.0]},
    ], ids=["box", "simplex", "atoms"])
    def test_zero_dimensional_spec_exits_2(self, workdir, capsys, doc):
        (workdir / "zero.json").write_text(json.dumps(doc))
        code = main(["sample", "--spec", str(workdir / "zero.json"), "-n", "5",
                     "-o", str(workdir / "x.csv")])
        assert code == 2
        assert_one_error_line(capsys)
        assert not (workdir / "x.csv").exists()

    def test_zero_count_exits_2(self, workdir, capsys):
        code = main(["sample", "--spec", str(workdir / "box.json"),
                     "-n", "0", "-o", str(workdir / "x.csv")])
        assert code == 2
        assert_one_error_line(capsys)

    @pytest.mark.parametrize("doc", [
        {"kind": "uniform-box", "lo": [-1e308, 0], "hi": [1e308, 1]},
        {"kind": "gaussian-mixture", "means": [[0, 0]],
         "cov_factors": [[[1e308, 0], [0, 1e308]]], "weights": [1]},
    ], ids=["box", "gaussian"])
    def test_overflowing_draws_exit_2_with_one_line(self, workdir, capsys, doc):
        # the draws leave the float range: one error line and no numpy warning
        (workdir / "huge.json").write_text(json.dumps(doc))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["sample", "--spec", str(workdir / "huge.json"), "-n", "64",
                         "--seed", "7", "-o", str(workdir / "x.csv")])
        assert code == 2
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err == "error: cannot sample: points must be finite\n"
        assert not (workdir / "x.csv").exists()

    def test_boolean_spec_value_exits_2(self, workdir, capsys):
        # numpy would read the corners as [0, 0] and [1, 1]
        (workdir / "spec.json").write_text(
            '{"kind": "uniform-box", "lo": [false, 0], "hi": [true, 1]}')
        code = main(["sample", "--spec", str(workdir / "spec.json"), "-n", "5",
                     "-o", str(workdir / "x.csv")])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: bad measure spec file: uniform-box spec key 'lo' must not hold true or false"]
        assert not (workdir / "x.csv").exists()

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_out_of_range_exits_2(self, workdir, capsys, seed):
        code = main(["sample", "--spec", str(workdir / "box.json"),
                     "-n", "5", "--seed", seed, "-o", str(workdir / "x.csv")])
        assert code == 2
        assert_one_error_line(capsys)


class TestCenter:
    def test_asymmetric_fixture_stdout(self, workdir, capsys):
        code = main(["center", str(workdir / "asym.csv"),
                     "-o", str(workdir / "part.json")])
        assert code == 0
        out = capsys.readouterr().out.strip()
        vals = [float(v) for v in out.split()]
        assert np.max(np.abs(np.array(vals) - 1.5)) <= 1e-9

    def test_square_fixture_stdout(self, workdir, capsys):
        assert main(["center", str(workdir / "square.csv")]) == 0
        assert capsys.readouterr().out.strip() == "0.5 0.5"

    def test_empty_csv_exits_2(self, workdir, capsys):
        empty = workdir / "empty.csv"
        empty.write_text("x1,x2\n")
        assert main(["center", str(empty)]) == 2

    def test_weight_only_csv_exits_2(self, workdir, capsys):
        weights_only = workdir / "w.csv"
        weights_only.write_text("w\n1.0\n2.0\n")
        assert main(["center", str(weights_only)]) == 2
        assert_one_error_line(capsys)

    def test_quoted_csv_exits_2(self, workdir, capsys):
        quoted = workdir / "quoted.csv"
        quoted.write_text('x1,x2\n"0",0\n1,2\n')
        assert main(["center", str(quoted)]) == 2
        assert_one_error_line(capsys)

    def test_system_not_json_exits_2(self, workdir, capsys):
        sysfile = workdir / "sys.json"
        sysfile.write_text("{not json")
        code = main(["center", str(workdir / "asym.csv"), "--system", str(sysfile)])
        assert code == 2
        assert_one_error_line(capsys)

    def test_system_of_another_dimension_exits_2(self, workdir, capsys):
        (workdir / "sys.json").write_text(json.dumps({"matrix": np.eye(3).tolist(),
                                                      "offset": [0.0] * 3}))
        out = workdir / "part.json"
        code = main(["center", str(workdir / "asym.csv"), "--system", str(workdir / "sys.json"),
                     "-o", str(out)])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: coordinate system is 3-dimensional, points are 2-dimensional"]
        assert not out.exists()

    @pytest.mark.parametrize("text, key", [
        ('{"matrix": [[true, 0], [0, true]], "offset": [false, 0]}', "matrix"),
        ('{"matrix": [[1, 0], [0, 1]], "offset": [false, 0]}', "offset"),
    ])
    def test_boolean_system_value_exits_2(self, workdir, capsys, text, key):
        # numpy would read the first frame as the identity about the origin
        (workdir / "sys.json").write_text(text)
        out = workdir / "part.json"
        code = main(["center", str(workdir / "asym.csv"), "--system", str(workdir / "sys.json"),
                     "-o", str(out)])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: bad coordinate system file: '{key}' must not hold true or false"]
        assert not out.exists()

    def test_dimension_above_config_maximum_exits_2(self, workdir, capsys):
        cfgfile = workdir / "cfg.json"
        cfgfile.write_text(json.dumps({"max_dimension": 1}))
        code = main(["center", str(workdir / "asym.csv"), "--config", str(cfgfile)])
        assert code == 2
        assert_one_error_line(capsys)

    @pytest.mark.parametrize("name, text", [
        ("missing.json", None),
        ("cfg.json", "{not json"),
        ("cfg.json", "[1, 2]"),
        ("cfg.json", json.dumps({"root_tolerance": 1e-10})),
        ("cfg.json", json.dumps({"max_bisections": 10.5})),
        ("cfg.json", json.dumps({"max_bracket_expansions": 2.5})),
        ("cfg.json", json.dumps({"max_bisections": -1})),
    ])
    def test_bad_config_file_exits_2(self, workdir, capsys, name, text):
        if text is not None:
            (workdir / name).write_text(text)
        code = main(["center", str(workdir / "asym.csv"), "--config", str(workdir / name)])
        assert code == 2
        assert_one_error_line(capsys)

    @pytest.mark.parametrize("text, message", [
        ('{"root_tol": true}', "root_tol must be a number"),
        ('{"bracket_growth": false}', "bracket_growth must be a number"),
        ('{"max_bisections": true}', "max_bisections must be an integer"),
    ])
    def test_boolean_config_value_exits_2(self, workdir, capsys, text, message):
        # true would pass as root_tol 1.0, 10^10 times the default
        (workdir / "cfg.json").write_text(text)
        code = main(["center", str(workdir / "asym.csv"), "--config", str(workdir / "cfg.json")])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [f"error: bad solver config file: {message}"]

    def test_solver_failure_exits_3(self, workdir, capsys):
        degenerate = workdir / "flat.csv"
        degenerate.write_text("x1,x2\n0,0\n0,1\n0,2\n")
        cfgfile = workdir / "cfg.json"
        cfgfile.write_text(json.dumps({"max_bracket_expansions": 4}))
        code = main(["center", str(degenerate), "--config", str(cfgfile)])
        assert code == 3
        assert "solver failed" in capsys.readouterr().err

    def test_solver_failure_prints_solved_coordinates(self, workdir, capsys):
        # every point lies on the cut plane x1 = 0; the halves share the
        # median 0.5 of x2, so coordinate 2 is solved at t = 0, but their
        # (x2, x3) centers differ, and coordinate 3 cannot move
        flat = workdir / "flat3.csv"
        flat.write_text("x1,x2,x3\n0,0,0\n0,1,0\n0,0,1\n0,1,1\n"
                        "0,0,0\n0,1,0\n0,0,3\n0,1,3\n")
        assert main(["center", str(flat)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("solver failed: residual -1 cannot move")
        assert err[1:] == [
            "  while solving axis coordinate 3",
            "  coordinate 2: bracket (0.0, 0.0), 0 expansions, 0 iterations, "
            "residual 0.000e+00",
        ]

    @pytest.mark.parametrize("header, rows, deviation", [
        # ROADMAP item 1a (a scale-equivariant membership bound) turns this row to exit 0
        ("x1,x2", np.random.default_rng(1).random((1024, 2)) * 2.0**-20, "1.172e-02"),
        # ROADMAP item 3 (a check that understands split atoms) turns these rows to exit 0
        ("x1,x2,x3", np.tile([0.25, -1.5, 3.0], (50, 1)), "7.000e+00"),
        ("x1,x2,w", WEIGHTED_ROWS, "1.021e-02"),
    ], ids=["uniform-2d-scale-2^-20", "50-identical-3d", "512-weighted-2d"])
    def test_partition_failing_its_own_check_exits_3(self, workdir, capsys, header, rows,
                                                     deviation):
        pts, out = workdir / "defect.csv", workdir / "defect.json"
        pts.write_text(header + "\n" + "".join(",".join(map(repr, r)) + "\n" for r in rows.tolist()))
        assert main(["center", str(pts), "-o", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err.splitlines() == [
            "solver failed: the partition fails its equipartition check "
            f"(max deviation {deviation})"
        ]

    def test_system_overflowing_the_points_exits_2(self, workdir, capsys):
        pts, sysfile = workdir / "pts.csv", workdir / "overflow-system.json"
        sysfile.write_text(json.dumps(OVERFLOW_SYSTEM))
        assert main(["sample", "--spec", str(workdir / "box.json"), "-n", "64",
                     "--seed", "7", "-o", str(pts)]) == 0
        capsys.readouterr()
        assert main(["center", str(pts), "--system", str(sysfile)]) == 2
        assert_one_error_line(capsys)

    def test_coordinates_near_1e308_exit_2(self, workdir, capsys):
        # the midpoint of two equal ends of 1e308 overflows, and a tree
        # solved through it fails its own verify
        pts = workdir / "huge.csv"
        pts.write_text("x1,x2\n1e308,0\n-1e308,1\n1e308,2\n-1e308,3\n")
        assert main(["center", str(pts), "-o", str(workdir / "part.json")]) == 2
        assert_one_error_line(capsys)
        assert not (workdir / "part.json").exists()

    def test_custom_system_changes_center(self, workdir, capsys):
        # a frame whose first form reads the second ambient coordinate
        sysfile = workdir / "sys.json"
        sysfile.write_text(json.dumps({"matrix": [[0, 1], [1, 0]], "offset": [0, 0]}))
        assert main(["center", str(workdir / "asym.csv"), "--system", str(sysfile)]) == 0
        out = capsys.readouterr().out.strip()
        vals = [float(v) for v in out.split()]
        # the printed point is ambient either way; for this symmetric fixture it matches
        assert np.max(np.abs(np.array(vals) - 1.5)) <= 1e-9

    def test_partition_json_deterministic_across_threads(self, workdir, run_cli):
        # threads act only inside BLAS: the bytes repeat in-process and under
        # one and two BLAS threads in fresh processes
        a, b = workdir / "a.json", workdir / "b.json"
        base = ["center", str(workdir / "asym.csv")]
        assert main(base + ["-o", str(a)]) == 0
        assert main(base + ["-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        for threads in ("1", "2"):
            c = workdir / f"blas{threads}.json"
            run_cli(base + ["-o", str(c)], OPENBLAS_NUM_THREADS=threads)
            assert c.read_bytes() == a.read_bytes()
        # the solve calls BLAS only to change frames; verify's depth and
        # equipartition reports, with 100000 depth half-spaces, may not move
        # between one and two BLAS threads either
        spec, pts, part = workdir / "cube.json", workdir / "cube.csv", workdir / "cube-part.json"
        spec.write_text(json.dumps({"kind": "uniform-box", "lo": [0, 0, 0], "hi": [1, 1, 1]}))
        assert main(["sample", "--spec", str(spec), "-n", "64", "--seed", "1", "-o", str(pts)]) == 0
        assert main(["center", str(pts), "-o", str(part)]) == 0
        argv = ["verify", str(part), str(pts), "--count", "100000"]
        assert run_cli(argv, OPENBLAS_NUM_THREADS="1") == run_cli(argv, OPENBLAS_NUM_THREADS="2")


class TestVerify:
    def make_partition(self, workdir):
        part = workdir / "part.json"
        assert main(["center", str(workdir / "asym.csv"), "-o", str(part)]) == 0
        return part

    def test_huge_cloud_passes(self, workdir, capsys):
        pts, part = workdir / "huge.csv", workdir / "part.json"
        rows = np.random.default_rng(2).standard_normal((2048, 3)) * 1e200
        pts.write_text("x1,x2,x3\n" + "".join(f"{x!r},{y!r},{z!r}\n" for x, y, z in rows.tolist()))
        assert main(["center", str(pts), "-o", str(part)]) == 0
        assert main(["verify", str(part), str(pts), "-o", str(workdir / "report.json")]) == 0
        assert json.loads((workdir / "report.json").read_text())["all_passed"]

    def test_all_checks_pass(self, workdir, capsys):
        part = self.make_partition(workdir)
        code = main(["verify", str(part), str(workdir / "asym.csv"),
                     "--count", "300", "-o", str(workdir / "report.json")])
        assert code == 0
        report = json.loads((workdir / "report.json").read_text())
        assert report["all_passed"]
        assert {c["name"] for c in report["checks"]} == {"equipartition", "avoidance", "depth"}

    def test_report_to_stdout(self, workdir, capsys):
        part = self.make_partition(workdir)
        capsys.readouterr()  # drop the center command's stdout
        code = main(["verify", str(part), str(workdir / "asym.csv"),
                     "--checks", "avoidance", "--count", "50"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        check = report["checks"][0]
        assert check["stats"] == {"regions": 4} and check["seed"] is None

    def test_corrupted_tree_exits_2(self, workdir, capsys):
        part = self.make_partition(workdir)
        doc = json.loads(part.read_text())
        doc["root"]["axis"][0] = 0.25  # denormalized axis
        part.write_text(json.dumps(doc))
        code = main(["verify", str(part), str(workdir / "asym.csv")])
        assert code == 2

    @pytest.mark.parametrize("where, field", [
        ("center", "'center'"), ("offset", "'system'"), ("axis", "'root'")])
    def test_boolean_in_partition_exits_2(self, workdir, capsys, where, field):
        part = self.make_partition(workdir)
        doc = json.loads(part.read_text())
        row = {"center": doc["center"], "offset": doc["system"]["offset"],
               "axis": doc["root"]["axis"]}[where]
        row[0] = where == "axis"  # the axis keeps its value 1, the others become 0
        part.write_text(json.dumps(doc))
        capsys.readouterr()
        code = main(["verify", str(part), str(workdir / "asym.csv"), "--checks", "avoidance"])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: bad partition file: {field}")

    def test_shallow_high_dimensional_tree_exits_2(self, workdir, capsys):
        # a 40-D document that ends at its root is rejected as a format
        # error before a (2^40 - 1, 40) axis table is sized
        n = 40
        part = workdir / "part.json"
        part.write_text(json.dumps({
            "schema": "yaoyao-partition/v1",
            "dim": n,
            "system": {"matrix": np.eye(n).tolist(), "offset": [0.0] * n},
            "center": [0.0] * n,
            "root": {"axis": [1.0] + [0.0] * (n - 1), "neg": None, "pos": None},
            "meta": {},
        }))
        assert main(["verify", str(part), str(workdir / "asym.csv")]) == 2
        assert "missing node at depth 2" in capsys.readouterr().err

    def test_partition_not_json_exits_2(self, workdir, capsys):
        part = workdir / "part.json"
        part.write_text("{not json")
        assert main(["verify", str(part), str(workdir / "asym.csv")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: bad partition file: invalid JSON: ")

    @pytest.mark.parametrize("command", ["verify", "plot"])
    def test_partition_not_utf8_exits_2(self, workdir, capsys, command):
        part = workdir / "part.json"
        part.write_bytes(b"\xff\xfe{}")
        argv = [command, str(part), str(workdir / "asym.csv")]
        assert main(argv + (["-o", str(workdir / "x.svg")] if command == "plot" else [])) == 2
        assert_one_error_line(capsys)

    def test_system_overflowing_the_points_exits_2(self, workdir, capsys):
        part = self.make_partition(workdir)
        doc = json.loads(part.read_text())
        doc["system"] = OVERFLOW_SYSTEM
        part.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["verify", str(part), str(workdir / "asym.csv")]) == 2
        assert_one_error_line(capsys)

    def test_mismatched_cloud_fails_checks(self, workdir, capsys):
        part = self.make_partition(workdir)
        shifted = workdir / "shifted.csv"
        shifted.write_text("x1,x2\n10,10\n11,12\n12,11\n13,13\n")
        code = main(["verify", str(part), str(shifted), "--checks", "equipartition"])
        assert code == 1

    @pytest.mark.parametrize("command", ["verify", "plot"])
    def test_points_of_another_dimension_exit_2(self, workdir, capsys, command):
        part = self.make_partition(workdir)
        cube = workdir / "cube.csv"
        cube.write_text("x1,x2,x3\n0,0,0\n1,0,0\n0,1,0\n0,0,1\n")
        capsys.readouterr()
        argv = [command, str(part), str(cube)]
        assert main(argv + (["-o", str(workdir / "x.svg")] if command == "plot" else [])) == 2
        assert_one_error_line(capsys)

    def test_negative_seed_exits_2(self, workdir, capsys):
        part = self.make_partition(workdir)
        capsys.readouterr()
        code = main(["verify", str(part), str(workdir / "asym.csv"), "--seed", "-1"])
        assert code == 2
        assert_one_error_line(capsys)

    def test_zero_count_exits_2(self, workdir, capsys):
        part = self.make_partition(workdir)
        capsys.readouterr()
        code = main(["verify", str(part), str(workdir / "asym.csv"), "--count", "0"])
        assert code == 2
        assert_one_error_line(capsys)

    @pytest.mark.parametrize("option, value", [
        ("--count", "0"), ("--count", "-5"), ("--seed", "-1"),
        ("--seed", str(2**64)),
    ])
    def test_count_and_seed_checked_whichever_checks_run(self, workdir, capsys,
                                                         option, value):
        # equipartition reads neither, yet a bad value is still an input error
        part = self.make_partition(workdir)
        capsys.readouterr()
        code = main(["verify", str(part), str(workdir / "asym.csv"),
                     "--checks", "equipartition", option, value])
        assert code == 2
        assert_one_error_line(capsys)

    @pytest.mark.parametrize("checks", ["equipartition", "depth"])
    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_vacuous_or_negative_tol_exits_2(self, workdir, capsys, tol, checks):
        # --tol inf would pass the shifted cloud, NaN any cloud; the value is
        # checked even when no check reads it
        part = self.make_partition(workdir)
        shifted = workdir / "shifted.csv"
        shifted.write_text("x1,x2\n10,10\n11,12\n12,11\n13,13\n")
        capsys.readouterr()
        code = main(["verify", str(part), str(shifted), "--checks", checks,
                     "--tol", tol])
        assert code == 2
        assert_one_error_line(capsys)

    def test_unknown_check_exits_2(self, workdir):
        part = self.make_partition(workdir)
        assert main(["verify", str(part), str(workdir / "asym.csv"),
                     "--checks", "nope"]) == 2

    @pytest.mark.parametrize("checks", ["", ",", " , "])
    def test_no_check_named_exits_2(self, workdir, capsys, checks):
        # an empty report would read all_passed: true and certify nothing
        part = self.make_partition(workdir)
        capsys.readouterr()
        assert main(["verify", str(part), str(workdir / "asym.csv"),
                     "--checks", checks]) == 2
        assert_one_error_line(capsys)


class TestPlot:
    def test_svg_content(self, workdir):
        part = workdir / "part.json"
        assert main(["center", str(workdir / "asym.csv"), "-o", str(part)]) == 0
        out = workdir / "fig.svg"
        assert main(["plot", str(part), str(workdir / "asym.csv"), "-o", str(out)]) == 0
        svg = out.read_text()
        assert svg.startswith("<svg")
        assert svg.count("<polygon") == 4
        assert svg.count("<line") == 4
        assert svg.count("<circle") == 5  # 4 points + center marker

    def test_deterministic_bytes(self, workdir):
        part = workdir / "part.json"
        assert main(["center", str(workdir / "square.csv"), "-o", str(part)]) == 0
        a, b = workdir / "a.svg", workdir / "b.svg"
        assert main(["plot", str(part), str(workdir / "square.csv"), "-o", str(a)]) == 0
        assert main(["plot", str(part), str(workdir / "square.csv"), "-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_three_dimensions_exit_2(self, workdir, tmp_path):
        cube = tmp_path / "cube.csv"
        cube.write_text("x1,x2,x3\n0,0,0\n1,0,0\n0,1,0\n0,0,1\n1,1,0\n1,0,1\n0,1,1\n1,1,1\n")
        part = tmp_path / "part3.json"
        assert main(["center", str(cube), "-o", str(part)]) == 0
        assert main(["plot", str(part), str(cube), "-o", str(tmp_path / "x.svg")]) == 2



def write_with_big(path, text):
    """Write text with each BIG spelled out as an integer too large for a float."""
    path.write_text(text.replace("BIG", "1" + "0" * 400))


class TestNumbersOutOfRange:
    """A non-finite number, or an integer too large for a float, in any input
    file is an input error: exit 2 with one error line."""

    @pytest.mark.parametrize("where, value", [
        ("center", "NaN"), ("center", "Infinity"), ("center", "BIG"),
        ("axis", "NaN"), ("axis", "-Infinity"), ("axis", "BIG"),
        ("offset", "NaN"), ("offset", "Infinity"), ("matrix", "BIG"),
    ])
    def test_partition_file(self, workdir, capsys, where, value):
        part = workdir / "part.json"
        assert main(["center", str(workdir / "asym.csv"), "-o", str(part)]) == 0
        doc = json.loads(part.read_text())
        row = {"center": doc["center"], "axis": doc["root"]["axis"],
               "offset": doc["system"]["offset"], "matrix": doc["system"]["matrix"][0]}[where]
        row[1] = "SLOT"  # the root axis's free component, for "axis"
        write_with_big(part, json.dumps(doc).replace('"SLOT"', value))
        capsys.readouterr()
        assert main(["verify", str(part), str(workdir / "asym.csv")]) == 2
        assert_one_error_line(capsys)

    @pytest.mark.parametrize("text", [
        '{"matrix": [[1, 0], [0, 1]], "offset": [NaN, 0]}',
        '{"matrix": [[1, 0], [0, 1]], "offset": [0, -Infinity]}',
        '{"matrix": [[1, 0], [0, 1]], "offset": [BIG, 0]}',
        '{"matrix": [[1, 0], [0, BIG]], "offset": [0, 0]}',
    ])
    def test_system_file(self, workdir, capsys, text):
        write_with_big(workdir / "sys.json", text)
        code = main(["center", str(workdir / "asym.csv"), "--system", str(workdir / "sys.json")])
        assert code == 2
        assert_one_error_line(capsys)

    def test_spec_file(self, workdir, capsys):
        write_with_big(workdir / "spec.json", '{"kind": "uniform-box", "lo": [0, 0], "hi": [BIG, 1]}')
        code = main(["sample", "--spec", str(workdir / "spec.json"), "-n", "5",
                     "-o", str(workdir / "x.csv")])
        assert code == 2
        assert_one_error_line(capsys)

    @pytest.mark.parametrize("key, value", [("lo", "NaN"), ("hi", "Infinity")])
    def test_spec_file_non_finite_rejected_as_spec(self, workdir, capsys, key, value):
        doc = {"kind": "uniform-box", "lo": [0, 0], "hi": [1, 1]}
        doc[key][0] = "SLOT"
        (workdir / "spec.json").write_text(json.dumps(doc).replace('"SLOT"', value))
        code = main(["sample", "--spec", str(workdir / "spec.json"), "-n", "5",
                     "-o", str(workdir / "x.csv")])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: bad measure spec file: uniform-box spec key {key!r} must be finite"]

    @pytest.mark.parametrize("text, message", [
        ('{"root_tol": NaN}', "root_tol must be finite"),
        ('{"root_tol": Infinity}', "root_tol must be finite"),
        ('{"residual_tol": NaN}', "residual_tol must be finite"),
        ('{"bracket_growth": Infinity}', "bracket_growth must be finite"),
        ('{"root_tol": BIG}', "too large"),
        ('{"max_bisections": BIG}', "too large"),
    ])
    def test_config_file(self, workdir, capsys, text, message):
        write_with_big(workdir / "cfg.json", text)
        code = main(["center", str(workdir / "asym.csv"), "--config", str(workdir / "cfg.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad solver config file: ") and message in err
