import json

import pytest

import torion.cli as cli
from torion.groebner import Budget
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

    def test_parse_error_exit_2(self, tmp_path):
        f = tmp_path / "bad.poly"
        f.write_text("# vars: x\nx^^2\n")
        assert run(["ideal", "--op", "gb", "--polys", str(f)]) == 2


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
        monkeypatch.setattr(cli, "data_text", corrupted)
        assert run(["reproduce", "lem-so"]) == 1
        assert "MISMATCH" in capsys.readouterr().err


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
