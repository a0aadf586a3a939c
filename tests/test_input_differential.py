"""The CLI's file readers against a reference transcription.

`_ref_read_config`, `_ref_read_subspaces` and `_ref_parse_network` keep the
earlier, separately coded readers: one loop per format, with its own field
counts and number parsing.  The CLI now reads every format through one
directive reader; these tests check that it returns the same objects, of
the same types, on random valid files.  Polynomial files are checked
against sympy's parser.
"""

import random
from fractions import Fraction

import pytest

from torion import cli, crossratio, flatnet, toruscan
from torion.multipoly import read_poly_file


# ---------------------------------------------------------------------------
# reference transcription
# ---------------------------------------------------------------------------

def _ref_point(text):
    if text.strip() in ("inf", "oo"):
        return crossratio.ProjPoint.infinity()
    return crossratio.ProjPoint(Fraction(text))


def _ref_read_config(path):
    fields_of = {"zero": 2, "pole": 1, "part": 1}
    zeros, poles, parts = [], [], []
    with open(path) as fh:
        for line in fh:
            line = line.split("#")[0].strip()
            if not line:
                continue
            kind, *fields = line.split()
            need = fields_of[kind]
            assert len(fields) >= need
            assert kind == "part" or len(fields) == need
            if kind == "zero":
                zeros.append((_ref_point(fields[0]), int(fields[1])))
            elif kind == "pole":
                poles.append(_ref_point(fields[0]))
            else:
                parts.append([int(t) for t in fields])
    return crossratio.StableFormConfig(zeros, poles, parts)


def _ref_read_subspaces(path, n):
    blocks, cur = [], []
    with open(path) as fh:
        for line in fh:
            line = line.split("#")[0].strip()
            if not line:
                if cur:
                    blocks.append(cur)
                    cur = []
                continue
            cur.append([int(tok) for tok in line.split()])
    if cur:
        blocks.append(cur)
    return [toruscan.ExponentSubgroup(rows, n) for rows in blocks]


def _ref_parse_network(text):
    fields_of = {"vertex": 1, "edge": 3, "current": 2, "source": 2,
                 "modulus": 2}
    vertices, edges = [], []
    currents, sources, moduli = {}, {}, {}
    for line in text.splitlines():
        line = line.split("#")[0].strip()
        if not line:
            continue
        kind, *parts = line.split()
        assert len(parts) == fields_of[kind]
        if kind == "vertex":
            vertices.append(parts[0])
        elif kind == "edge":
            edges.append(tuple(parts))
        elif kind == "modulus":
            moduli[parts[0]] = Fraction(parts[1])
        else:
            {"current": currents, "source": sources}[kind][parts[0]] = \
                int(parts[1])
    return flatnet.DualGraph(vertices, edges), currents, sources, moduli


def _typed(x):
    """x with the type of every scalar spelled out, so that 2 and
    Fraction(2) compare unequal."""
    if isinstance(x, crossratio.ProjPoint):
        return ("point", _typed(x.u), _typed(x.v))
    if isinstance(x, (list, tuple)):
        return (type(x).__name__, [_typed(y) for y in x])
    if isinstance(x, dict):
        return ("dict", [(_typed(k), _typed(v)) for k, v in x.items()])
    return (type(x).__name__, x)


# ---------------------------------------------------------------------------
# random valid files
# ---------------------------------------------------------------------------

def _noise(rng, lines, trailing=True):
    """lines with random blank lines, comment lines and spacing, and with
    trailing comments if `trailing`."""
    out = []
    for line in lines:
        while rng.random() < 0.2:
            out.append(rng.choice(["", "   ", "# a comment", "\t# x 1 2"]))
        sep = rng.choice([" ", "  ", "\t", " \t "])
        line = sep.join(line.split())
        if rng.random() < 0.3:
            line = rng.choice(["", " ", "\t"]) + line
        if trailing and rng.random() < 0.3:
            line += rng.choice([" # trailing", "#", "  "])
        out.append(line)
    return "\n".join(out) + rng.choice(["", "\n", "\n\n"])


def _rational_text(rng, value):
    """Some spelling of the Fraction value that both readers accept."""
    forms = [str(value)]
    if value.denominator == 1:
        forms += [f"{value.numerator}/1", f"{2 * value.numerator}/2"]
        if value >= 0:
            forms.append(f"+{value.numerator}")
    else:
        forms.append(f"{3 * value.numerator}/{3 * value.denominator}")
    if value.denominator in (1, 2, 4, 5, 8):
        forms.append(str(float(value)))
    return rng.choice(forms)


def _random_config(rng):
    n = 2 * rng.randint(2, 4)
    values = rng.sample(sorted({Fraction(p, q) for p in range(-9, 10)
                                for q in range(1, 5)}), n + 3)
    poles = values[:n]
    orders = [1] * (n - 2)
    while len(orders) > 1 and rng.random() < 0.5:
        orders[0] += orders.pop()
    zero_points = ["inf"] + values[n:]
    if len(orders) > len(zero_points):
        return None
    lines = []
    for order in orders:
        z = zero_points.pop(rng.randrange(len(zero_points)))
        spelled = rng.choice(["inf", "oo"]) if z == "inf" \
            else _rational_text(rng, z)
        lines.append(f"zero {spelled} {order}")
    lines += [f"pole {_rational_text(rng, x)}" for x in poles]
    perm = list(range(n))
    rng.shuffle(perm)
    cut = 2 * rng.randint(1, n // 2 - 1) if n > 4 else 2
    lines += ["part " + " ".join(map(str, perm[:cut])),
              "part " + " ".join(map(str, perm[cut:]))]
    rng.shuffle(lines)
    return _noise(rng, lines)


def _random_network(rng):
    k = rng.randint(1, 4)
    vertices = [f"v{i}" for i in range(k)]
    edges = [(f"e{i}", f"v{i}", f"v{i + 1}") for i in range(k - 1)]
    for i in range(rng.randint(1, 4)):
        edges.append((f"f{i}", rng.choice(vertices), rng.choice(vertices)))
    lines = [f"vertex {v}" for v in vertices]
    lines += [f"edge {e} {t} {h}" for e, t, h in edges]
    for eid, _, _ in edges:
        if rng.random() < 0.6:
            lines.append(f"current {eid} {rng.randint(-5, 5)}")
        if rng.random() < 0.6:
            value = Fraction(rng.randint(-7, 7), rng.randint(1, 6))
            lines.append(f"modulus {eid} {_rational_text(rng, value)}")
    for v in vertices:
        if rng.random() < 0.5:
            lines.append(f"source {v} {rng.randint(-5, 5):+d}")
    rng.shuffle(lines)
    return _noise(rng, lines)


def _random_subspaces(rng, n):
    blocks = []
    for _ in range(rng.randint(1, 3)):
        rows = [[rng.randint(-3, 3) for _ in range(n)]
                for _ in range(rng.randint(1, n))]
        blocks.append(_noise(rng, [" ".join(map(str, r)) for r in rows]))
    return "\n\n".join(blocks)


# ---------------------------------------------------------------------------
# the readers agree
# ---------------------------------------------------------------------------

def test_config_files(tmp_path):
    rng = random.Random(20)
    path = tmp_path / "c.cfg"
    checked = 0
    while checked < 300:
        text = _random_config(rng)
        if text is None:
            continue
        path.write_text(text)
        got = cli._read_config(path)
        want = _ref_read_config(path)
        assert _typed([got.zeros, got.poles, got.pair_partition]) == \
            _typed([want.zeros, want.poles, want.pair_partition]), text
        checked += 1


def test_network_files(tmp_path):
    rng = random.Random(21)
    path = tmp_path / "g.net"
    for _ in range(300):
        text = _random_network(rng)
        path.write_text(text)
        g, *dicts = cli._read_network(path)
        want_g, *want_dicts = _ref_parse_network(text)
        assert (g.vertices, g.edges) == (want_g.vertices, want_g.edges), text
        assert _typed(dicts) == _typed(want_dicts), text


def test_subspace_files(tmp_path):
    rng = random.Random(22)
    path = tmp_path / "s.txt"
    for _ in range(300):
        n = rng.randint(1, 5)
        text = _random_subspaces(rng, n)
        path.write_text(text)
        want = _ref_read_subspaces(path, n)
        if any(s.rank == 0 for s in want):
            # a block of zero rows spans no subspace: an input error
            with pytest.raises(ValueError, match="subspace block has rank 0"):
                cli._read_subspaces(path, n)
            continue
        got = cli._read_subspaces(path, n)
        assert [(s.n, s.basis) for s in got] == \
            [(s.n, s.basis) for s in want], text


def test_polynomial_files():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(23)
    names = ["x", "y", "z"]
    syms = sympy.symbols(names)
    for _ in range(200):
        lines = []
        for _ in range(rng.randint(1, 3)):
            terms = []
            for _ in range(rng.randint(1, 4)):
                coeff = Fraction(rng.randint(1, 9), rng.randint(1, 4))
                mono = "*".join(f"{v}^{rng.randint(1, 3)}"
                                for v in rng.sample(names, rng.randint(0, 3)))
                spelled = _rational_text(rng, coeff).lstrip("+")
                if "." in spelled:
                    spelled = str(coeff)
                terms.append(rng.choice("+-") + " " + spelled
                             + ("*" + mono if mono else ""))
            lines.append(" ".join(terms))
        text = "# vars: x y z\n" + _noise(rng, lines, trailing=False)
        variables, polys = read_poly_file(text)
        assert variables == names
        want = [sympy.Poly(sympy.sympify(line.replace("^", "**")), *syms)
                for line in lines]
        assert [p.terms for p in polys] == \
            [{e: Fraction(int(c.p), int(c.q)) for e, c in w.terms() if c}
             for w in want], text

