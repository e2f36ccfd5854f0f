"""CLI dispatch, flags, and exit codes."""

import json

import pytest

import regcert.monomials as monomials_mod
from regcert.cli import _check_printable, _Usage, main
from regcert.monomials import (MonomialIdeal, compute_G, hilbert_function,
                               monomials_of_degree)
from regcert.rings import make_ring
from regcert.verify import verify_main_trials


@pytest.fixture
def files(tmp_path):
    paths = {}
    specs = {
        "squares.txt": "ring x1 x2; char 0; gens: x1^2, x2^2",
        "nonhomog.txt": "ring x1 x2; gens: x1^2 + x2",
        "conic.txt": "param n=3 m=2 d=2; f: y1^2, y1*y2, y2^2",
        "m15.txt": "param n=1 m=15 d=2; f: "
                   + " + ".join(f"y{i}^2" for i in range(1, 16)),
        "cubic.txt": "param n=4 m=2 d=3; f: y1^3, y1^2*y2, y1*y2^2, y2^3",
        "elim.txt": "ring x1 x2 x3; order elim 2; "
                    "gens: x1*x2 + x2*x3, x1*x3, x3^2",
        "elim0.txt": "ring x1 x2 x3; order elim 0; "
                     "gens: x1*x2 + x2*x3, x1*x3, x3^2",
        "degrevlex.txt": "ring x1 x2 x3; order degrevlex; "
                         "gens: x1*x2 + x2*x3, x1*x3, x3^2",
        "broken.txt": "ring x1; gens: x1 +",
        "zero_den.txt": "ring x1 x2; char 32003; gens: x1^2 + 1/32003*x2^2",
        # lex generators in degrees 1 and 11 only: no generator appears in
        # degrees 2-10, which a scan that stops early mistakes for the end
        "gap11.txt": "ring x1 x2 x3; gens: x3, x2^11",
        "gap40.txt": "ring x1 x2 x3; gens: x3, x2^40",
        "x1_10.txt": "ring x1 x2 x3; gens: x1^10",
        "unit.txt": "ring x1 x2; gens: 1",
        "zero.txt": "ring x1 x2; gens: 0",
    }
    for name, text in specs.items():
        f = tmp_path / name
        f.write_text(text)
        paths[name] = str(f)
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_reg_command(files, capsys):
    code, out, _ = run(capsys, "reg", "--ideal", files["squares.txt"])
    assert code == 0
    assert "regularity: 3" in out


def test_reg_nonhomogeneous_usage_error(files, capsys):
    code, _, err = run(capsys, "reg", "--ideal", files["nonhomog.txt"])
    assert code == 64
    assert "homogeneous" in err


def test_reg_of_the_zero_ideal_is_a_usage_error(files, capsys):
    code, out, err = run(capsys, "reg", "--ideal", files["zero.txt"])
    assert code == 64 and out == ""
    assert "regularity of the zero ideal is undefined" in err


def test_missing_file_usage_error(files, tmp_path, capsys):
    code, _, err = run(capsys, "reg", "--ideal", "/nonexistent/x.txt")
    assert code == 64
    # a directory is no file either, to read or to write; exit 1 would
    # mean a failed check
    for argv in (["reg", "--ideal", str(tmp_path)],
                 ["reg", "--ideal", files["squares.txt"], "--out",
                  str(tmp_path)]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (64, "")
        assert err.startswith("regcert: ") and str(tmp_path) in err
    # a usage error leaves an existing --out file as it was
    report = tmp_path / "out.json"
    report.write_text('{"regularity": 3}\n')
    for argv in (["reg", "--ideal", "/nonexistent/x.txt"],
                 ["lex", "--ideal", files["nonhomog.txt"]]):
        code, out, err = run(capsys, *argv, "--out", str(report))
        assert (code, out) == (64, "") and err.startswith("regcert: ")
        assert report.read_text() == '{"regularity": 3}\n'


def test_syntax_error_usage_exit(files, capsys):
    code, _, err = run(capsys, "reg", "--ideal", files["broken.txt"])
    assert code == 64
    assert "line 1" in err


def test_no_subcommand(capsys):
    assert run(capsys, )[0] == 64


def test_kernel_command(files, capsys):
    code, out, _ = run(capsys, "kernel", "--param", files["conic.txt"],
                       "--json")
    assert code == 0
    data = json.loads(out)
    assert len(data["kernel"]) == 1
    assert "x2^2" in data["kernel"][0]


def test_lex_command(files, capsys):
    code, out, _ = run(capsys, "lex", "--ideal", files["squares.txt"])
    assert code == 0
    assert "x1^3" in out


def test_lex_finds_a_generator_after_a_gap(files, capsys):
    code, out, _ = run(capsys, "lex", "--ideal", files["gap11.txt"],
                       "--json")
    assert code == 0
    assert json.loads(out) == {"lex_generators": ["x3", "x2^11"],
                               "complete": True}


def test_regbound_no_false_witness_after_a_gap(files, capsys):
    code, out, _ = run(capsys, "verify", "regbound", "--ideal",
                       files["gap11.txt"], "--json")
    assert code == 0
    assert json.loads(out)["instances"][0]["values"]["reg_lex"] == 11


def test_lex_finds_a_generator_above_the_cutoff(files, capsys):
    code, out, _ = run(capsys, "lex", "--ideal", files["gap40.txt"],
                       "--json")
    assert json.loads(out) == {"lex_generators": ["x3", "x2^40"],
                               "complete": True}


def test_gtable_command(capsys):
    code, out, _ = run(capsys, "gtable", "--n", "1..2", "--d", "2..3",
                       "--m", "1..2")
    assert code == 0
    lines = [l for l in out.splitlines() if l.strip() and
             not l.lstrip().startswith("n")]
    assert len(lines) == 8
    # G_{1,2,1} = 2
    assert any(l.split()[:4] == ["1", "2", "1", "2"] for l in lines)


def test_gtable_text_columns_stay_apart(capsys):
    # G = 22,578 and the cap 16,777,216 at (3,2,4) are wider than the
    # header's columns
    args = ["gtable", "--n", "3", "--d", "2", "--m", "3..4"]
    _, text, _ = run(capsys, *args)
    _, js, _ = run(capsys, *args, "--json")
    header, *rows = text.splitlines()
    assert header.split() == ["n", "d", "m", "G", "cap"]
    assert [[int(x) for x in r.split()] for r in rows] == \
        [list(r.values()) for r in json.loads(js)]


@pytest.mark.parametrize("flag, text", [("--n", "3..1"), ("--d", "3..2"),
                                        ("--m", "2..1"), ("--m", "2..")])
def test_gtable_rejects_an_empty_range(capsys, flag, text):
    # LO > HI would print only the header and pass vacuously; LO.. is
    # malformed, not LO
    code, out, err = run(capsys, "gtable", flag, text)
    assert code == 64 and out == "" and "LO <= HI" in err


@pytest.mark.parametrize("json_flag", [(), ("--json",)])
@pytest.mark.parametrize("argv, cap", [
    (("gtable", "--n", "1", "--d", "2", "--m", "15"), "d^(n*2^(m-1))"),
    (("gtable", "--n", "1", "--d", "2..3", "--m", "30"), "d^(n*2^(m-1))"),
    (("verify", "main", "--n", "1", "--m", "15", "--d", "2", "--trials", "1"),
     "d^(n*2^(m-1)-1)"),
    (("verify", "main", "--param", "m15.txt"), "d^(n*2^(m-1)-1)"),
])
def test_caps_too_long_to_print_are_usage_errors(files, capsys, argv, cap,
                                                 json_flag):
    # 2^16384 has 4,933 digits, more than Python converts to a string; the
    # shape is refused before any work, and 2^(2^29) is never built
    argv = [files.get(a, a) for a in argv]
    code, out, err = run(capsys, *argv, *json_flag)
    assert code == 64 and out == ""
    assert cap in err and "4300 digits" in err


@pytest.mark.parametrize("argv", [
    ("gtable", "--n", "1", "--d", "2", "--m", "14"),
    ("verify", "main", "--n", "1", "--m", "14", "--d", "2", "--trials", "1"),
])
def test_the_largest_printable_cap_runs(capsys, argv):
    # 2^8192 and 2^8191 have 2,467 digits
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0
    assert json.loads(out)


def test_printable_is_exactly_what_python_converts():
    # 10^4299 has 4,300 digits, 10^4300 one too many
    cases = [(n, d, m, less) for n in range(1, 5) for d in range(2, 12)
             for m in range(1, 15) for less in (0, 1)]
    for n, d, m, less in cases + [(4300, 10, 1, 0), (4300, 10, 1, 1)]:
        try:
            fits = bool(str(d ** (n * 2 ** (m - 1) - less)))
        except ValueError:
            fits = False
        try:
            _check_printable(n, d, m, less, "the cap")
            refused = False
        except _Usage:
            refused = True
        assert refused != fits, (n, d, m, less)


@pytest.fixture
def g_above_cap(monkeypatch):
    """compute_G gives 5 for every shape: the series it walks is replaced
    by that of all degree-5 monomials in 3 variables, whose lex ideal has
    its generators in degree 5, above the cap 4 of (n,d,m) = (2,2,1)."""
    L = MonomialIdeal(make_ring(["z1", "z2", "z3"]),
                      tuple(monomials_of_degree(3, 5)))
    monkeypatch.setattr(monomials_mod, "ci_hilbert_function",
                        lambda n, d, m: hilbert_function(L))
    compute_G.cache_clear()
    yield
    compute_G.cache_clear()


def test_G_above_its_cap_is_a_failure(g_above_cap, capsys):
    # a counterexample to G <= d^(n 2^(m-1)) is reported with its witness,
    # not raised from compute_G
    report = verify_main_trials(2, 1, 2, 1, 0)
    assert report.status == "fail"
    assert {"kind": "G<=d^(n*2^(m-1))", "G": 5} in \
        report.instances[0].witness["failures"]
    code, out, _ = run(capsys, "gtable", "--n", "2", "--d", "2", "--m", "1",
                       "--json")
    assert code == 1
    assert json.loads(out) == [{"n": 2, "d": 2, "m": 1, "G": 5, "cap": 4}]


def test_verify_main_exit_zero(files, capsys):
    code, out, _ = run(capsys, "verify", "main", "--n", "2", "--m", "2",
                       "--d", "2", "--trials", "5", "--seed", "7")
    assert code == 0
    assert "status: pass" in out


def test_verify_main_param_file_json(files, capsys):
    code, out, _ = run(capsys, "verify", "main", "--param",
                       files["conic.txt"], "--json")
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "pass"
    assert data["check"] == "main"
    assert data["instances"][0]["values"]["reg_P"] == 2


def test_verify_main_inconclusive_exit_two(files, capsys):
    code, out, _ = run(capsys, "verify", "main", "--param",
                       files["conic.txt"], "--cutoff", "4")
    assert code == 2
    assert "inconclusive" in out


@pytest.mark.parametrize("argv", [
    ("verify", "main", "--param", "conic.txt", "--cutoff", "1"),
    ("verify", "regbound", "--ideal", "x1_10.txt", "--cutoff", "8"),
    ("lex", "--ideal", "x1_10.txt", "--cutoff", "8"),
])
def test_scan_below_the_first_generator_is_inconclusive(files, capsys, argv):
    # a scan that stops below the first generator sees the zero ideal,
    # which proves nothing about the degrees above it
    argv = [files.get(a, a) for a in argv]
    code, out, _ = run(capsys, *argv)
    assert code == 2
    assert "inconclusive" in out or "truncated at degree 8" in out


def test_verify_regflat(files, capsys):
    code, out, _ = run(capsys, "verify", "regflat", "--ideal",
                       files["squares.txt"], "--d", "2", "--json")
    assert code == 0
    assert json.loads(out)["status"] == "pass"


def test_verify_regbound_on_the_unit_ideal(files, capsys):
    code, out, err = run(capsys, "verify", "regbound", "--ideal",
                         files["unit.txt"])
    assert code == 64 and out == ""
    assert "Betti table of the unit ideal is not defined" in err


def test_verify_regflat_on_the_zero_ideal(files, capsys):
    code, out, err = run(capsys, "verify", "regflat", "--ideal",
                         files["zero.txt"])
    assert code == 64 and out == ""
    assert "regularity of the zero ideal is undefined" in err


def test_lex_of_the_zero_ideal(files, capsys):
    code, out, _ = run(capsys, "lex", "--ideal", files["zero.txt"], "--json")
    assert code == 0
    assert json.loads(out) == {"lex_generators": [], "complete": True}


def test_verify_regbound_on_the_zero_ideal(files, capsys):
    code, out, err = run(capsys, "verify", "regbound", "--ideal",
                         files["zero.txt"])
    assert code == 64 and out == ""
    assert "regularity of the zero ideal is undefined" in err


def test_lex_of_the_unit_ideal(files, capsys):
    code, out, _ = run(capsys, "lex", "--ideal", files["unit.txt"], "--json")
    assert code == 0
    assert json.loads(out) == {"lex_generators": ["1"], "complete": True}


def test_verify_poweli(files, capsys):
    code, out, _ = run(capsys, "verify", "poweli", "--trials", "3",
                       "--seed", "1")
    assert code == 0


def test_verify_regbound_with_elim_file(files, capsys):
    code, out, _ = run(capsys, "verify", "regbound", "--ideal",
                       files["elim.txt"], "--json")
    assert code == 0
    data = json.loads(out)
    assert data["instances"][0]["values"]["reg_I"] == 3


@pytest.mark.parametrize("name", ["squares.txt", "degrevlex.txt"])
def test_verify_regbound_keeps_every_variable_without_an_elim_clause(
        files, capsys, name):
    code, out, _ = run(capsys, "verify", "regbound", "--ideal", files[name],
                       "--json")
    assert code == 0
    values = json.loads(out)["instances"][0]["values"]
    assert values["reg_I"] == values["reg_J"]


def test_verify_regbound_keeps_no_variable_under_elim_0(files, capsys):
    code, out, _ = run(capsys, "verify", "regbound", "--ideal",
                       files["elim0.txt"], "--json")
    assert code == 0
    values = json.loads(out)["instances"][0]["values"]
    assert values["reg_I"] is None and values["I_gens"] == []


# the kernels that test_kernel_of_map_outputs_unchanged pins
KERNELS = {
    ("conic.txt", "lex"): ["x1*x3 + 32002*x2^2"],
    ("conic.txt", "elim"): ["x2^2 + 32002*x1*x3"],
    ("cubic.txt", "lex"): ["x2*x4 + 32002*x3^2", "x1*x4 + 32002*x2*x3",
                           "x1*x3 + 32002*x2^2"],
    ("cubic.txt", "elim"): ["x3^2 + 32002*x2*x4", "x2*x3 + 32002*x1*x4",
                            "x2^2 + 32002*x1*x3"],
}


@pytest.mark.parametrize("name, order", KERNELS)
def test_kernel_command_prints_the_pinned_kernels(files, capsys, name,
                                                  order):
    code, out, _ = run(capsys, "kernel", "--param", files[name], "--order",
                       order)
    assert code == 0
    assert out == "kernel:\n" + "".join(f"  {g}\n"
                                        for g in KERNELS[name, order])


def test_out_flag_writes_file(files, capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", "regflat", "--ideal",
                       files["squares.txt"], "--d", "2", "--json",
                       "--out", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["status"] == "pass"


def test_char_override(files, capsys):
    code, out, _ = run(capsys, "verify", "main", "--param",
                       files["conic.txt"], "--char", "0", "--json")
    assert code == 0
    assert json.loads(out)["field"] == 0


def test_char_primality_is_decided_for_large_primes(files, capsys):
    code, out, _ = run(capsys, "reg", "--ideal", files["squares.txt"],
                       "--char", "2305843009213693951", "--json")
    assert code == 0
    assert json.loads(out) == {"regularity": 3,
                               "field": 2305843009213693951}
    code, _, err = run(capsys, "reg", "--ideal", files["squares.txt"],
                       "--char", "3215031751")
    assert code == 64 and "0 or prime" in err
    code, out, err = run(capsys, "reg", "--ideal", files["squares.txt"],
                         "--char", "3317044064679887385961981")
    assert code == 64 and out == "" and "not supported" in err


def test_json_reports_deterministic(files, capsys):
    def grab():
        code, out, _ = run(capsys, "verify", "poweli", "--trials", "2",
                           "--seed", "5", "--json")
        assert code == 0
        d = json.loads(out)
        d.pop("timings_ms")
        return json.dumps(d, sort_keys=True)
    assert grab() == grab()


def test_unknown_verify_target(capsys):
    assert run(capsys, "verify", "nothing")[0] == 64


@pytest.mark.parametrize("argv", [
    ["verify", "poweli", "--trials", "0"],
    ["verify", "main", "--n", "2", "--m", "2", "--d", "2", "--trials", "-1"],
    ["verify", "main", "--n", "0", "--m", "2", "--d", "2"],
    ["verify", "main", "--n", "2", "--m", "0", "--d", "2"],
    ["verify", "regflat", "--ideal", "squares.txt", "--d", "0"],
    ["verify", "regbound", "--ideal", "squares.txt", "--cutoff", "0"],
    ["lex", "--ideal", "squares.txt", "--cutoff", "0"],
], ids=["poweli-trials-0", "main-trials-negative", "main-n-0", "main-m-0",
        "regflat-d-0", "regbound-cutoff-0", "lex-cutoff-0"])
def test_counts_must_be_positive(files, capsys, argv):
    argv = [files.get(a, a) for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 64
    assert "positive integer" in err and out == ""


@pytest.mark.parametrize("argv", [
    ["verify", "regbound", "--ideal", "squares.txt", "--order", "degrevlex",
     "--seed", "99"],
    ["verify", "regbound", "--ideal", "squares.txt", "--seed", "99"],
    ["verify", "regbound", "--ideal", "squares.txt", "--trials", "2"],
    ["verify", "regbound", "--cutoff", "5"],
    ["verify", "main", "--param", "conic.txt", "--n", "3"],
    ["verify", "main", "--param", "conic.txt", "--trials", "2"],
    ["verify", "poweli", "--ideal", "squares.txt"],
    ["verify", "regflat", "--ideal", "squares.txt", "--seed", "1"],
    ["gtable", "--ideal", "nonexistent", "--trials", "9"],
    ["gtable", "--char", "0"],
    ["kernel", "--param", "conic.txt", "--order", "degrevlex"],
    ["kernel", "--param", "conic.txt", "--cutoff", "3"],
    ["reg", "--ideal", "squares.txt", "--cutoff", "3"],
    ["lex", "--ideal", "squares.txt", "--order", "lex"],
    ["reg", "--ideal", "squares.txt", "--order", "lex"],
], ids=["regbound-order-seed", "regbound-ideal-seed", "regbound-ideal-trials",
        "regbound-trials-cutoff", "main-param-n", "main-param-trials",
        "poweli-ideal", "regflat-seed", "gtable-ideal-trials", "gtable-char",
        "kernel-degrevlex", "kernel-cutoff", "reg-cutoff", "lex-order",
        "reg-order"])
def test_flags_a_command_does_not_read_are_usage_errors(files, capsys, argv):
    argv = [files.get(a, a) for a in argv]
    code, out, _ = run(capsys, *argv)
    assert code == 64 and out == ""


def test_zero_denominator_usage_error(files, capsys):
    code, _, err = run(capsys, "reg", "--ideal", files["zero_den.txt"])
    assert code == 64
    assert "line 1, column 40" in err and "zero denominator" in err


def test_number_too_long_for_int_usage_error(tmp_path, capsys):
    for text in ("ring x1; gens: x1 + 7777*x1", "ring x1; gens: x1^7777"):
        f = tmp_path / "long.txt"
        f.write_text(text.replace("7777", "7" * 5000))
        code, out, err = run(capsys, "reg", "--ideal", str(f))
        assert code == 64 and out == ""
        assert f"line 1, column {text.index('7') + 1}" in err
        assert "Traceback" not in err


def test_char_override_parses_once_at_the_new_field(files, capsys):
    # 1/32003 is a rational number, though zero in the file's own field
    code, out, _ = run(capsys, "reg", "--ideal", files["zero_den.txt"],
                       "--char", "0", "--json")
    assert code == 0
    assert json.loads(out) == {"regularity": 2, "field": 0}
    # parse errors keep the positions of the user's file
    code, _, err = run(capsys, "reg", "--ideal", files["broken.txt"],
                       "--char", "0")
    assert code == 64 and "line 1, column 20" in err
    code, _, err = run(capsys, "reg", "--ideal", files["squares.txt"],
                       "--char", "4")
    assert code == 64 and "0 or prime" in err and "column" not in err


def test_out_of_memory_is_inconclusive(files, capsys, monkeypatch):
    """Running out of memory proves nothing either way: exit 2 with a
    message, not a traceback and exit 1, which mean a failed check."""
    def exhausted(J):
        raise MemoryError("Unable to allocate 202. GiB for an array")

    monkeypatch.setattr("regcert.cli.regularity", exhausted)
    code, out, err = run(capsys, "reg", "--ideal", files["squares.txt"])
    assert code == 2 and out == ""
    assert err == "regcert: out of memory: Unable to allocate 202. GiB " \
                  "for an array\n"
