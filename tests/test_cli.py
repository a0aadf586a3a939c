import json
import sys
from fractions import Fraction as F

import pytest

import torion.cli as cli
from torion import reproduce, toruscan
from torion.groebner import BUDGET_PROFILES, Budget
from torion.multipoly import data_text


def run(argv):
    return cli.main(argv)


class TestHeightCommand:
    def test_affine(self, capsys):
        assert run(["height", "--affine", "2/3"]) == 0
        out = capsys.readouterr().out
        assert "exact-log" in out and "log(3)" in out

    def test_minpoly(self, capsys):
        assert run(["height", "--minpoly", "x^2 - x - 1"]) == 0
        assert "numeric" in capsys.readouterr().out

    def test_projective(self, capsys):
        assert run(["height", "--affine", "3,4,5", "--projective"]) == 0
        assert "log(5)" in capsys.readouterr().out


class TestIdealCommand:
    def test_gb_and_member(self, tmp_path, capsys):
        f = tmp_path / "i.poly"
        f.write_text("# vars: x y\nx^2 - 1\nx - 1\n")
        assert run(["ideal", "--op", "gb", "--polys", str(f)]) == 0
        assert run(["ideal", "--op", "member", "--polys", str(f),
                    "--poly", "x^2 - x"]) == 0
        out = capsys.readouterr().out
        assert out.strip().endswith("0")

    def test_saturate_unit_ideal_prints_1(self, tmp_path, capsys):
        f = tmp_path / "unit.poly"
        f.write_text("# vars: x y\nx*y - 1\nx - 2\ny - 3\n")
        assert run(["ideal", "--op", "saturate", "--polys", str(f),
                    "--poly", "x"]) == 0
        assert capsys.readouterr().out == "1\n"

    LEX = "# vars: x y z\nx^2 + y*z - 2\ny^2 + x*z - 2\nz^2 + x*y - 2\n"

    def test_eliminate(self, tmp_path, capsys):
        f = tmp_path / "lex.poly"
        f.write_text(self.LEX)
        rep = tmp_path / "r.json"
        assert run(["--report", str(rep), "ideal", "--op", "eliminate",
                    "--keep", "y,z", "--polys", str(f)]) == 0
        expected = ["z^5 - 3*z^3 + 2*z", "y*z^3 - z^4 - 2*y*z + 2*z^2",
                    "-z^4 + y^2 - y*z + 3*z^2 - 2"]
        assert capsys.readouterr().out.splitlines() == expected
        doc = json.loads(rep.read_text())
        assert doc["results"] == {"generators": expected}
        assert doc["grades"] == {"generators": "exact"}

    @pytest.mark.parametrize("text, trivial, line", [
        ("# vars: x y\nx*y - 1\nx - 2\ny - 3\n", True, "unit ideal"),
        (LEX, False, "proper ideal"),
    ])
    def test_trivial(self, tmp_path, capsys, text, trivial, line):
        f = tmp_path / "i.poly"
        f.write_text(text)
        rep = tmp_path / "r.json"
        assert run(["--report", str(rep), "ideal", "--op", "trivial",
                    "--polys", str(f)]) == 0
        assert capsys.readouterr().out == line + "\n"
        doc = json.loads(rep.read_text())
        assert doc["results"] == {"trivial": trivial}
        assert doc["grades"] == {"trivial": "exact"}

    def test_parse_error_exit_2(self, tmp_path):
        f = tmp_path / "bad.poly"
        f.write_text("# vars: x\nx^^2\n")
        assert run(["ideal", "--op", "gb", "--polys", str(f)]) == 2


class InputFile(str):
    """An argv entry that stands for a file holding this text."""


class TestArgumentErrors:
    @pytest.mark.parametrize("argv, message", [
        (["ideal", "--op", "member"], "needs --poly"),
        (["ideal", "--op", "saturate"], "needs --poly"),
        (["ideal", "--op", "eliminate"], "needs --keep"),
        (["height"], "needs --affine"),
        (["height", "--affine", "1/0"], "zero denominator"),
        (["torus-scan", "--polys", InputFile("# vars: x y z\nx + y + z\n"),
          "--subspace", InputFile("1 0\n")],
         "row 1 0 has 2 entries, expected 3"),
        (["torus-scan", "--polys", InputFile("# vars: x y z\nx + y + z\n"),
          "--subspace", InputFile("1 0 0 5\n")],
         "row 1 0 0 5 has 4 entries, expected 3"),
        (["cross-ratio", "--check", "residues", "--config",
          InputFile("pole 1\nzero a\n")], "line 2: zero takes 2 field(s)"),
        (["ideal", "--op", "eliminate", "--keep", "x,w"],
         "unknown variable 'w'"),
        (["torus-scan", "--polys", InputFile("# vars: x y z\nx + y + z\n"),
          "--subspace", InputFile("1 0 0\n\n1 a 0\n")],
         "arg4, line 3: 'a' is not an integer"),
        (["cross-ratio", "--check", "residues", "--config",
          InputFile("pole 1\nzero 0 x\n")],
         "arg4, line 2: 'x' is not an integer"),
        (["network", "--graph",
          InputFile("vertex a\nvertex b\nedge e1 b a\nedge e2 b a\n"),
          "--enumerate", "x", "a", "b"],
         "--enumerate N: 'x' is not an integer"),
        (["torus-scan", "--polys", InputFile("# vars: x y z\n")],
         "arg2: no polynomials"),
        (["torus-scan", "--polys", InputFile("# vars: x y\nx + y\nx - y\n"),
          "--tier-mode"], "error: tier mode expects a single hypersurface"),
        (["torus-scan", "--polys", InputFile("# vars: x y z\n0\n"),
          "--tier-mode"], "error: anchored tier pipeline needs a nonempty "
         "support"),
        (["cross-ratio", "--check", "torsion", "--torsion-order", "0",
          "--config", InputFile("zero 0 1\nzero inf 1\npole 1\npole -1\n"
                                "pole 2\npole -2\npart 0 1\npart 2 3\n")],
         "error: torsion bound N = 0 is below 1"),
        (["network", "--graph",
          InputFile("vertex a\nvertex b\nedge e1 b a\ncurrent e1 x\n"),
          "--check-kirchhoff"], "line 4: 'x' is not an integer"),
        (["network", "--graph",
          InputFile("vertex a\nvertex b\nedge e1 b a\nmodulus e1 abc\n"),
          "--check-kirchhoff"], "line 4: 'abc' is not a rational number"),
        (["cross-ratio", "--check", "residues", "--config",
          InputFile("pole 1\nzero a 1\n")],
         "arg4, line 2: 'a' is not a rational number"),
        (["cross-ratio", "--check", "residues", "--config",
          InputFile("zero abc 1\n")],
         "arg4, line 1: 'abc' is not a rational number"),
        (["cross-ratio", "--check", "residues", "--config",
          InputFile("zero 0 1\nzero inf 1\npole 1/0\n")],
         "arg4, line 3: zero denominator in '1/0'"),
        (["cross-ratio", "--check", "cre", "--exponents", "1,a,2",
          "--config", InputFile("zero 0 1\nzero inf 1\npole 1\npole -1\n"
                                "pole 2\npole -2\npart 0 1\npart 2 3\n")],
         "error: --exponents: 'a' is not an integer"),
        (["torus-scan", "--polys", InputFile("# vars: x y\nx + y\nx + 1/0\n")],
         "arg2, line 3: zero denominator in '1/0' (at position 4)"),
        (["ideal", "--op", "member", "--poly", "x + 1/0"],
         "error: zero denominator in '1/0' (at position 4)"),
        (["height", "--minpoly", "x^2 - 1/0"],
         "error: zero denominator in '1/0' (at position 6)"),
        (["torus-scan", "--polys", InputFile("# vars: x y\nx + y\nx + $y\n")],
         "arg2, line 3: unexpected character '$' (at position 4)"),
        (["torus-scan", "--polys", InputFile("\nx + y\n")],
         "arg2, line 2: missing '# vars:' header"),
        (["network", "--graph", InputFile("vertex a\n")],
         "one of the arguments --check-kirchhoff --solve-moduli "
         "--trace-matrix --audit --enumerate is required"),
        (["network", "--graph", InputFile("vertex a\n"), "--solve-moduli",
          "--trace-matrix"],
         "argument --trace-matrix: not allowed with argument --solve-moduli"),
        # input errors name the file and the line, unquoted
        (["torus-scan", "--polys", InputFile("# vars: x y z\nx + y + z\n"),
          "--subspace", InputFile("1 0 0\n\n1 0\n")],
         "arg4, line 3: row 1 0 has 2 entries, expected 3\n"),
        (["network", "--graph",
          InputFile("vertex a\nvertex b\nedge e1 b a\nedge e2 b zz\n"),
          "--solve-moduli"], "arg2, line 4: unknown vertex zz\n"),
        (["network", "--graph",
          InputFile("vertex a\nvertex b\nedge e1 b a\ncurrent e9 1\n"),
          "--solve-moduli"], "arg2, line 4: unknown edge e9\n"),
        (["network", "--graph",
          InputFile("source zz 1\nvertex a\nvertex b\nedge e1 b a\n"),
          "--check-kirchhoff"], "arg2, line 1: unknown vertex zz\n"),
        (["network", "--graph",
          InputFile("vertex a\nvertex b\nedge e1 b a\nedge e2 b a\n"),
          "--enumerate", "1", "a", "zz"], "error: unknown vertex zz\n"),
        (["torus-scan", "--polys",
          InputFile("# vars: x y\nx + y\nx^-2 + y\n")],
         "arg2, line 3: negative exponent (at position 3)\n"),
        # a second line of one kind for one id is an error, not an overwrite
        (["network", "--graph",
          InputFile("vertex a\nvertex b\nedge e1 b a\nedge e2 b a\n"
                    "current e1 1\ncurrent e2 -1\ncurrent e1 2\n"),
          "--check-kirchhoff"], "arg2, line 7: duplicate current e1\n"),
        (["network", "--graph",
          InputFile("vertex a\nvertex b\nedge e1 b a\nedge e2 b a\n"
                    "modulus e1 1\nmodulus e2 1\nmodulus e1 2\n"),
          "--trace-matrix"], "arg2, line 7: duplicate modulus e1\n"),
        (["network", "--graph",
          InputFile("vertex a\nvertex b\nedge e1 b a\nedge e1 b a\n"),
          "--solve-moduli"], "arg2, line 4: duplicate edge e1\n"),
        # a polynomial file that never declares its variables, even one
        # with no polynomial line
        (["ideal", "--op", "gb", "--polys", InputFile("# only a comment\n")],
         "arg4, missing '# vars:' header\n"),
        # a trace matrix needs a circuit and a nonsingular P
        (["network", "--graph",
          InputFile("vertex a\nvertex b\nedge e1 a b\nmodulus e1 1\n"),
          "--trace-matrix"], "error: a tree block has no circuit matrix\n"),
        (["network", "--graph",
          InputFile("vertex a\nvertex b\nedge e1 a b\nedge e2 a b\n"
                    "modulus e1 1\nmodulus e2 -1\n"),
          "--trace-matrix"], "error: P = N M N^T is singular\n"),
        # one point per run: an affine point or a minimal polynomial
        (["height", "--minpoly", "x^2 - 2", "--affine", "2/3"],
         "argument --affine: not allowed with argument --minpoly"),
        (["height", "--minpoly", "x^2 - 2", "--projective"],
         "--projective applies to --affine, not --minpoly"),
        (["height", "--minpoly", ""], "error: unexpected end of input"),
        # an exponent is an integer literal: 4/2 is refused, not read as 2
        (["torus-scan", "--polys",
          InputFile("# vars: x y\nx + y\nx^4/2 + y\n")],
         "arg2, line 3: integer exponent expected (at position 2)\n"),
        # nesting deeper than the parser allows is bad input, not a crash
        (["ideal", "--op", "gb", "--polys",
          InputFile("# vars: x\n" + "(" * 600 + "x" + ")" * 600 + "\n")],
         "arg4, line 2: nesting too deep (at position 200)\n"),
        # the parts of a configuration partition the poles, and a zero has
        # order at least 1
        (["cross-ratio", "--check", "residues", "--config",
          InputFile("zero 0 1\nzero inf 1\npole 1\npole -1\npole 2\n"
                    "pole -2\npart 0 1\npart 1 2 3\n")],
         "arg4: pole 1 is in the partition twice\n"),
        (["cross-ratio", "--check", "residues", "--config",
          InputFile("zero 0 1\nzero inf 1\npole 1\npole -1\npole 2\n"
                    "pole -2\npart 0 1\npart 2 4\n")],
         "arg4: partition names pole 4, outside 0..3\n"),
        (["cross-ratio", "--check", "residues", "--config",
          InputFile("zero 0 -1\nzero inf 3\npole 1\npole -1\npole 2\n"
                    "pole -2\n")], "arg4: zero0 has order -1, below 1\n"),
        # a worker count is at least 1
        (["--threads", "0", "height", "--affine", "2"],
         "argument --threads: 0 is below 1"),
        (["--threads", "-3", "height", "--affine", "2"],
         "argument --threads: -3 is below 1"),
        (["--threads", "two", "height", "--affine", "2"],
         "argument --threads: 'two' is not an integer"),
        # currents that break the current law are an error in the file
        (["network", "--graph",
          InputFile("vertex a\nvertex b\nedge e1 b a\nedge e2 b a\n"
                    "source a 2\nsource b -2\ncurrent e1 1\ncurrent e2 0\n"),
          "--solve-moduli"], "arg2: constraint fails the current law\n"),
        # a subspace block spans a subspace of rank >= 1
        (["torus-scan", "--polys", InputFile("# vars: x y z\nx + y + z\n"),
          "--subspace", InputFile("1 0 0\n\n0 0 0\n0 0 0\n")],
         "arg4, line 3: subspace block has rank 0"),
        # a peripheral or condition file declares the variables of --polys
        # in the same order: `x - 1` over `z y x` is not `x - 1` over
        # `x y z`
        (["torus-scan", "--polys", InputFile("# vars: x y z\nx*y*z + x\n"),
          "--saturate", InputFile("# vars: z y x\nx - 1\n")],
         "arg4: variables z y x differ from x y z in "),
    ])
    def test_exit_2(self, argv, message, tmp_path, capsys):
        if argv[0] == "ideal" and "--polys" not in argv:
            f = tmp_path / "i.poly"
            f.write_text("# vars: x y\nx^2 - 1\n")
            argv = argv + ["--polys", str(f)]
        argv = list(argv)
        for i, arg in enumerate(argv):
            if isinstance(arg, InputFile):
                f = tmp_path / f"arg{i}"
                f.write_text(arg)
                argv[i] = str(f)
        # as the console script does: sys.exit(main())
        with pytest.raises(SystemExit) as exc:
            sys.exit(run(argv))
        assert exc.value.code == 2
        assert message in capsys.readouterr().err


class TestTorusScanCommand:
    def test_cubic_six_lines(self, tmp_path, capsys):
        f = tmp_path / "cubic.poly"
        f.write_text(data_text("coset_cubic.poly"))
        rep = tmp_path / "report.json"
        assert run(["--report", str(rep), "torus-scan", "--polys",
                    str(f)]) == 0
        doc = json.loads(rep.read_text())
        assert doc["results"]["survivor_count"] == 3
        out = capsys.readouterr().out
        assert out.count("survivor") == 3

    def test_signed_vectors_classify_each_subgroup_once(self, tmp_path,
                                                        capsys):
        # E and -E give one subgroup: three survivors, not six; the tier-2
        # count still counts signed vectors
        f = tmp_path / "deg14.poly"
        f.write_text(data_text("surface_deg14.poly"))
        assert run(["torus-scan", "--polys", str(f), "--tier-mode",
                    "--signed-vectors"]) == 0
        assert capsys.readouterr().out == (
            "survivor [(0, 0, 1)] cosets ['(1, 1, t)']\n"
            "survivor [(0, 1, 0)] cosets ['(1, t, 1)']\n"
            "survivor [(1, 0, 0)] cosets ['(t, 1, 1)']\n"
            "tier counts: 10635 -> 79 -> 3\n")

    def test_saturated_scan_files(self, tmp_path, capsys):
        polys = tmp_path / "v.poly"
        polys.write_text("# vars: x y\nx*y - 1\n")
        periph = tmp_path / "p.poly"
        periph.write_text("# vars: x y\nx - 1\n")
        subs = tmp_path / "m.txt"
        subs.write_text("1 -1\n")
        assert run(["torus-scan", "--polys", str(polys), "--subspace",
                    str(subs), "--saturate", str(periph)]) == 0
        assert "survivor" in capsys.readouterr().out

    def test_peripheral_does_not_revive_hyperplane_component(
            self, tmp_path, capsys):
        polys = tmp_path / "v.poly"
        polys.write_text("# vars: x y z\nx + y + x*z - y*z\n")
        periph = tmp_path / "z5.poly"
        periph.write_text("# vars: x y z\nz - 5\n")
        subs = tmp_path / "n.txt"
        subs.write_text("0 0 1\n")
        rep = tmp_path / "report.json"
        assert run(["--report", str(rep), "torus-scan", "--polys", str(polys),
                    "--subspace", str(subs), "--saturate", str(periph)]) == 0
        assert "survivor" not in capsys.readouterr().out
        assert json.loads(rep.read_text())["results"]["survivor_count"] == 0

    def test_plain_scan_reads_every_subspace_block(self, tmp_path):
        polys = tmp_path / "v.poly"
        polys.write_text("# vars: x y\nx*y - 1\n")
        subs = tmp_path / "m.txt"
        subs.write_text("1 -1\n\n1 0\n")
        rep = tmp_path / "report.json"
        assert run(["--report", str(rep), "torus-scan", "--polys", str(polys),
                    "--subspace", str(subs)]) == 0
        results = json.loads(rep.read_text())["results"]
        assert results["per_rank_counts"] == {"1": 2}

    def test_conditions_without_saturate(self, tmp_path, capsys):
        polys = tmp_path / "v.poly"
        polys.write_text("# vars: x y\nx*y - 1\n")
        conds = tmp_path / "c.poly"
        conds.write_text("# vars: x y\nx*y - 2\n")
        subs = tmp_path / "m.txt"
        subs.write_text("1 -1\n")
        argv = ["torus-scan", "--polys", str(polys), "--subspace", str(subs)]
        assert run(argv) == 0
        assert "survivor" in capsys.readouterr().out
        assert run(argv + ["--conditions", str(conds)]) == 0
        assert "survivor" not in capsys.readouterr().out

    def test_empty_subspace_file_exit_2(self, tmp_path, capsys):
        polys = tmp_path / "v.poly"
        polys.write_text("# vars: x y\nx*y - 1\n")
        subs = tmp_path / "m.txt"
        subs.write_text("# no rows\n")
        assert run(["torus-scan", "--polys", str(polys), "--subspace",
                    str(subs)]) == 2
        assert "no subspace rows" in capsys.readouterr().err

    def test_missing_polys_file_exit_2(self, tmp_path, capsys):
        missing = tmp_path / "nosuch.poly"
        assert run(["torus-scan", "--polys", str(missing)]) == 2
        err = capsys.readouterr().err
        assert "nosuch.poly" in err and "vars" not in err

    def test_report_timings(self, tmp_path):
        f = tmp_path / "cubic.poly"
        f.write_text(data_text("coset_cubic.poly"))
        rep = tmp_path / "report.json"
        assert run(["--report", str(rep), "torus-scan", "--polys",
                    str(f)]) == 0
        doc = json.loads(rep.read_text())
        assert set(doc["timings"]) == {"enumerate_s", "classify_s"}
        assert doc["results"]["budget_notes"] == ["singleton-pruned: 11"]
        # one candidate classified per orbit of S_3
        assert doc["results"]["representatives"] == 6

    @pytest.mark.parametrize("flag", ["--saturate", "--conditions"])
    @pytest.mark.parametrize("header", ["z y x", "x y", "x y z w"])
    def test_other_header_exit_2(self, flag, header, tmp_path, capsys):
        polys = tmp_path / "cubic.poly"
        polys.write_text(data_text("coset_cubic.poly"))
        other = tmp_path / "other.poly"
        other.write_text(f"# vars: {header}\nx - 1\n")
        assert run(["torus-scan", "--polys", str(polys), flag,
                    str(other)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {other}: variables {header} differ "
                                f"from x y z in {polys}\n")

    def test_cubic_with_peripheral_x_minus_1(self, tmp_path, capsys):
        """The swap of y and z is the one symmetry left: ten orbits of
        the fourteen candidates are classified."""
        polys = tmp_path / "cubic.poly"
        polys.write_text(data_text("coset_cubic.poly"))
        periph = tmp_path / "p.poly"
        periph.write_text("# vars: x y z\nx - 1\n")
        rep = tmp_path / "report.json"
        assert run(["--report", str(rep), "torus-scan", "--polys",
                    str(polys), "--saturate", str(periph)]) == 0
        assert capsys.readouterr().out == (
            "survivor [(0, 0, 1)] cosets ['(-1, 1, t)']\n"
            "survivor [(0, 1, 0)] cosets ['(-1, t, 1)']\n"
            "survivor [(1, 0, 0)] cosets ['(t, -1, 1)', '(t, 1, -1)']\n")
        assert json.loads(rep.read_text())["results"]["representatives"] \
            == 10

    def test_report_determinism(self, tmp_path):
        f = tmp_path / "cubic.poly"
        f.write_text(data_text("coset_cubic.poly"))
        docs = []
        for threads, name in ((1, "r1.json"), (2, "r2.json")):
            rep = tmp_path / name
            assert run(["--report", str(rep), "--threads", str(threads),
                        "torus-scan", "--polys", str(f)]) == 0
            doc = json.loads(rep.read_text())
            doc.pop("timings", None)
            docs.append(doc)
        assert docs[0] == docs[1]


class TestNetworkCommand:
    GRAPH = """
    vertex a
    vertex b
    edge e1 b a
    edge e2 b a
    edge e3 b a
    source a 3
    source b -3
    current e1 3
    current e2 0
    current e3 0
    """

    def test_infeasible_exit_1(self, tmp_path, capsys):
        g = tmp_path / "theta.net"
        g.write_text(self.GRAPH)
        assert run(["network", "--graph", str(g), "--solve-moduli"]) == 1
        assert "infeasible" in capsys.readouterr().out

    def test_trace_matrix(self, tmp_path, capsys):
        g = tmp_path / "two.net"
        g.write_text("vertex a\nvertex b\nedge e1 b a\nedge e2 b a\n"
                     "modulus e1 1\nmodulus e2 2\n")
        assert run(["network", "--graph", str(g), "--trace-matrix"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows == [["1/3", "-1/3"], ["-1/3", "1/3"]]

    def test_kirchhoff(self, tmp_path):
        g = tmp_path / "theta.net"
        g.write_text(self.GRAPH.replace("current e1 3", "current e1 1")
                     .replace("current e2 0", "current e2 1")
                     .replace("current e3 0", "current e3 1"))
        assert run(["network", "--graph", str(g), "--check-kirchhoff"]) == 0

    @pytest.mark.parametrize("edit, argv", [
        (("edge e3 b a", "edge e3 b zz"), ["--solve-moduli"]),
        (("current e3 0", "current zz 0"), ["--solve-moduli"]),
        (None, ["--enumerate", "1", "a", "zz"]),
    ])
    def test_unknown_vertex_or_edge_exit_2(self, edit, argv, tmp_path,
                                           capsys):
        g = tmp_path / "theta.net"
        g.write_text(self.GRAPH.replace(*edit) if edit else self.GRAPH)
        assert run(["network", "--graph", str(g)] + argv) == 2
        assert "zz" in capsys.readouterr().err

    @pytest.mark.parametrize("text, argv, message", [
        ("vertex a\nvertex b\nedge e1 b a\nedge e2 b\n",
         ["--solve-moduli"], "line 4: edge takes 3 field(s)"),
        ("vertex a\nvertex b\nedge e1 b a\nedge e2 b a\nmodulus e1 1\n",
         ["--trace-matrix"], "no modulus for edges ['e2']"),
        ("vertex a\nvertex b\nedge e1 b a\nedge e2 b a\nmodulus e1 1/0\n",
         ["--trace-matrix"], "zero denominator"),
        ("vertex a\nvertex b\nedge e1 b a\nedge e2 b a\n",
         ["--enumerate", "-2", "a", "b"], "torsion bound N = -2 is below 1"),
        ("vertex a\nvertex b\nedge e1 b a\nedge e2 b a\nsource a 2\n"
         "source b -2\ncurrent e1 1\ncurrent e2 1\n",
         ["--audit", "0"], "argument --audit: 0 is below 1"),
        ("vertex a\nvertex b\nedge e1 b a\nedge e2 b a\nsource a 2\n"
         "source b -2\ncurrent e1 1\ncurrent e2 1\n",
         ["--audit", "-1"], "argument --audit: -1 is below 1"),
    ])
    def test_malformed_network_file_exit_2(self, text, argv, message,
                                           tmp_path, capsys):
        g = tmp_path / "bad.net"
        g.write_text(text)
        # as the console script does: argparse errors raise SystemExit
        with pytest.raises(SystemExit) as exc:
            sys.exit(run(["network", "--graph", str(g)] + argv))
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    def test_enumeration_budget_exit_3(self, tmp_path, capsys):
        g = tmp_path / "banana5.net"
        g.write_text("vertex a\nvertex b\n" + "".join(
            f"edge e{i} b a\n" for i in range(1, 6)))
        rep = tmp_path / "report.json"
        assert run(["--report", str(rep), "network", "--graph", str(g),
                    "--enumerate", "20", "a", "b"]) == 3
        assert "undetermined" in capsys.readouterr().err
        assert json.loads(rep.read_text())["grades"]["undetermined"] == \
            "undetermined"


class TestNetworkFile:
    def test_parse(self, tmp_path):
        path = tmp_path / "two.net"
        path.write_text("""
        vertex a
        vertex b
        edge e1 b a
        edge e2 b a
        source a 3
        source b -3
        current e1 2
        current e2 1
        modulus e1 1/2
        """)
        g, currents, sources, moduli = cli._read_network(path)
        assert g.edge_ids() == ["e1", "e2"]
        assert currents == {"e1": 2, "e2": 1}
        assert sources == {"a": 3, "b": -3}
        assert moduli == {"e1": F(1, 2)}


class TestCrossRatioCommand:
    CFG = """
    zero 0 4
    pole 1
    pole 2
    pole 3
    pole -1
    pole -2
    pole -3
    part 0 3
    part 1 4
    part 2 5
    """

    def test_residues(self, tmp_path, capsys):
        f = tmp_path / "c.cfg"
        f.write_text(self.CFG)
        assert run(["cross-ratio", "--config", str(f),
                    "--check", "residues"]) == 0
        out = capsys.readouterr().out.split()
        assert len(out) == 6

    def test_zero_order_consistency(self, tmp_path, capsys):
        f = tmp_path / "c.cfg"
        f.write_text(self.CFG)
        assert run(["cross-ratio", "--config", str(f),
                    "--check", "zero-order"]) == 0
        assert "consistent" in capsys.readouterr().out

    def test_cre(self, tmp_path, capsys):
        f = tmp_path / "c.cfg"
        f.write_text("""
        zero 0 4
        pole 1
        pole 2
        pole 4
        pole -1
        pole -2
        pole -4
        part 0 3
        part 1 4
        part 2 5
        """)
        assert run(["cross-ratio", "--config", str(f), "--check", "cre",
                    "--exponents", "1,0,-1"]) == 0
        assert "order 1" in capsys.readouterr().out

    def test_torsion_violation_exit_1(self, tmp_path):
        f = tmp_path / "c.cfg"
        f.write_text(self.CFG)
        assert run(["cross-ratio", "--config", str(f), "--check", "torsion",
                    "--torsion-order", "2"]) == 1


class TestNetworkExtra:
    def test_enumerate(self, tmp_path, capsys):
        g = tmp_path / "two.net"
        g.write_text("vertex a\nvertex b\nedge e1 b a\nedge e2 b a\n")
        assert run(["network", "--graph", str(g),
                    "--enumerate", "3", "a", "b"]) == 0
        assert capsys.readouterr().out.strip() == "4"

    def test_audit(self, tmp_path, capsys):
        g = tmp_path / "two.net"
        g.write_text("vertex a\nvertex b\nedge e1 b a\nedge e2 b a\n"
                     "source a 3\nsource b -3\ncurrent e1 2\ncurrent e2 1\n")
        assert run(["network", "--graph", str(g), "--audit", "3"]) == 0
        assert "audit pass" in capsys.readouterr().out

    # two parallel pairs in series: one positive moduli ray per block
    CHAIN = ("vertex a\nvertex b\nvertex c\nedge e1 b a\nedge e2 b a\n"
             "edge e3 c b\nedge e4 c b\nsource a 3\nsource c -3\n"
             "current e1 2\ncurrent e2 1\ncurrent e3 1\ncurrent e4 2\n")
    # a square with the flow split over both sides: one circuit row on
    # four edges, so two degrees of freedom
    SQUARE = ("vertex a\nvertex b\nvertex c\nvertex d\nedge e1 b a\n"
              "edge e2 c b\nedge e3 d a\nedge e4 c d\nsource a 2\n"
              "source c -2\ncurrent e1 1\ncurrent e2 1\ncurrent e3 1\n"
              "current e4 1\n")

    def _network(self, tmp_path, text, *op):
        g = tmp_path / "g.net"
        g.write_text(text)
        rep = tmp_path / "r.json"
        code = run(["--report", str(rep), "network", "--graph", str(g), *op])
        return code, json.loads(rep.read_text())

    def test_solve_moduli_unique_per_block(self, tmp_path, capsys):
        code, doc = self._network(tmp_path, self.CHAIN, "--solve-moduli")
        assert code == 0
        assert capsys.readouterr().out == \
            "unique-per-block: [(['e1', 'e2'], ['1', '2']), " \
            "(['e3', 'e4'], ['2', '1'])]\n"
        assert doc["results"] == {
            "outcome": "unique-per-block",
            "moduli": [[["e1", "e2"], ["1", "2"]], [["e3", "e4"], ["2", "1"]]]}
        assert doc["grades"] == {"outcome": "exact"}

    def test_solve_moduli_underdetermined(self, tmp_path, capsys):
        code, doc = self._network(tmp_path, self.SQUARE, "--solve-moduli")
        assert code == 0
        assert capsys.readouterr().out == "underdetermined (2 dof)\n"
        assert doc["results"] == {"outcome": "underdetermined",
                                  "degrees_of_freedom": 2}
        assert doc["grades"] == {"outcome": "exact"}

    @pytest.mark.parametrize("graph, kind", [
        (SQUARE, "underdetermined"),
        (TestNetworkCommand.GRAPH, "infeasible"),
    ])
    def test_audit_needs_unique_moduli(self, tmp_path, capsys, graph, kind):
        code, doc = self._network(tmp_path, graph, "--audit", "3")
        assert code == 1
        assert capsys.readouterr().out == kind + "\n"
        assert doc["results"] == {} and doc["grades"] == {}

    def test_audit_below_1_is_a_usage_error(self, tmp_path, capsys):
        # decided by argparse before the network is read or solved, so the
        # exit code does not depend on the network's outcome
        with pytest.raises(SystemExit) as exc:
            self._network(tmp_path, self.SQUARE, "--audit", "0")
        assert exc.value.code == 2
        assert "argument --audit: 0 is below 1" in capsys.readouterr().err

    def test_audit_per_block(self, tmp_path, capsys):
        code, doc = self._network(tmp_path, self.CHAIN, "--audit", "3")
        assert code == 0
        assert capsys.readouterr().out == "audit pass\n"
        audit = doc["results"]["audit"]
        assert [(a["block"], a["ok"], a["bound_integer"]) for a in audit] == \
            [(["e1", "e2"], True, 3), (["e3", "e4"], True, 3)]
        assert all(a["margin"] == pytest.approx(0.4054651081081645)
                   for a in audit)


class TestReproduceCommand:
    def test_all_fast_targets(self):
        for target in ("lem-so", "charpoly-d4", "matrices-m123",
                       "moduli-audit"):
            assert run(["reproduce", target]) == 0

    def test_negative_control(self, monkeypatch, capsys):
        real = cli.data_text

        def corrupted(name):
            text = real(name)
            if name == "coset_cubic.poly":
                return text.replace("x*y*z + x + y + z", "x*y*z + x + y - z")
            return text
        monkeypatch.setattr("torion.reproduce.data_text", corrupted)
        assert run(["reproduce", "lem-so"]) == 1
        assert "MISMATCH" in capsys.readouterr().err

    def test_targets_are_the_cli_choices(self):
        sub = next(a for a in cli.build_parser()._actions
                   if a.dest == "command").choices["reproduce"]
        target = next(a for a in sub._actions if a.dest == "target")
        assert sorted(reproduce.TARGETS) == sorted(target.choices)

    @pytest.mark.parametrize("target", ["lem-so", "charpoly-d4",
                                        "matrices-m123", "moduli-audit"])
    def test_report_carries_the_library_results(self, tmp_path, target):
        ok, results = reproduce.TARGETS[target](BUDGET_PROFILES["default"],
                                                1)
        assert ok
        rep = tmp_path / "r.json"
        assert run(["--report", str(rep), "reproduce", target]) == 0
        doc = json.loads(rep.read_text())
        expected = json.loads(json.dumps(results))
        assert {k: doc["results"][k] for k in results} == expected
        assert set(doc["results"]) == set(results) | {"target", "pass"}
        assert all(doc["grades"][k] == "exact" for k in results)

    @pytest.mark.parametrize("target, results", [
        ("m010-subspaces", {"total": 554,
                            "rank_profile": {"1": 454, "2": 97, "3": 3}}),
        ("m010-prune", {"total": 554,
                        "rank_profile": {"1": 454, "2": 97, "3": 3},
                        "after_pruning": 78}),
    ])
    def test_m010_targets(self, tmp_path, capsys, target, results):
        rep = tmp_path / "r.json"
        assert run(["--report", str(rep), "reproduce", target]) == 0
        assert capsys.readouterr().out == f"reproduce {target}: pass\n"
        doc = json.loads(rep.read_text())
        assert doc["results"] == {**results, "target": target, "pass": True}
        assert set(doc["grades"].values()) == {"exact"}
        assert doc["inputs"] == {}

    @pytest.mark.parametrize("target", ["lem-so", "lem-so-odd"])
    def test_threads_reach_the_scan(self, monkeypatch, target):
        seen = []
        classify = toruscan._classify_all

        def spy(subgroups, args, threads, notes):
            seen.append(threads)
            return classify(subgroups, args, 1, notes)
        monkeypatch.setattr(toruscan, "_classify_all", spy)
        assert run(["--threads", "2", "reproduce", target]) == 0
        assert seen == [2]

    @pytest.mark.parametrize("target", ["lem-so", "lem-so-odd"])
    def test_budget_run_out_is_undetermined(self, tmp_path, monkeypatch,
                                            capsys, target):
        profiles = dict(cli.BUDGET_PROFILES)
        profiles["tiny"] = Budget(max_pairs=2)
        monkeypatch.setattr(cli, "BUDGET_PROFILES", profiles)
        rep = tmp_path / "r.json"
        assert run(["--report", str(rep), "--budget", "tiny", "reproduce",
                    target]) == 3
        err = capsys.readouterr().err
        assert "undetermined" in err and "MISMATCH" not in err
        doc = json.loads(rep.read_text())
        assert doc["results"]["undetermined"] > 0
        assert doc["grades"]["undetermined"] == "undetermined"
        assert doc["results"]["pass"] is None


class TestInternalError:
    def test_unexpected_exception_exit_4(self, tmp_path, monkeypatch,
                                         capsys):
        def broken(args, report):
            raise RuntimeError("boom")
        monkeypatch.setattr(cli, "cmd_height", broken)
        rep = tmp_path / "report.json"
        assert run(["--report", str(rep), "height", "--affine", "2"]) == 4
        assert "internal error: RuntimeError('boom')" in \
            capsys.readouterr().err
        doc = json.loads(rep.read_text())
        assert "boom" in doc["results"]["error"]


class TestBudgetExit:
    def test_undetermined_exit_3(self, tmp_path, monkeypatch):
        profiles = dict(cli.BUDGET_PROFILES)
        profiles["tiny"] = Budget(max_pairs=1, max_degree=4, max_basis=4)
        monkeypatch.setattr(cli, "BUDGET_PROFILES", profiles)
        f = tmp_path / "i.poly"
        f.write_text("# vars: x y z\n"
                     "x^2*y + y^2*z + z^2*x - 3\n"
                     "x*y^2 + y*z^2 + z*x^2 - 3\n")
        code = run(["--budget", "tiny", "ideal", "--op", "gb",
                    "--polys", str(f)])
        assert code == 3

    def test_undetermined_result_names_counters(self, tmp_path, monkeypatch,
                                                capsys):
        profiles = dict(cli.BUDGET_PROFILES)
        profiles["tiny"] = Budget(max_pairs=2)
        monkeypatch.setattr(cli, "BUDGET_PROFILES", profiles)
        f = tmp_path / "i.poly"
        f.write_text("# vars: x1 x2 x3\n"
                     "x1^2*x2 - x3\nx2^2*x3 - x1\nx3^2*x1 - x2\n")
        rep = tmp_path / "report.json"
        assert run(["--report", str(rep), "--budget", "tiny", "ideal",
                    "--op", "gb", "--polys", str(f)]) == 3
        note = json.loads(rep.read_text())["results"]["undetermined"]
        assert note.startswith("resource budget exhausted: max_pairs 2 (")
        assert "pairs=2" in note and "reductions=2" in note
        assert note in capsys.readouterr().err
