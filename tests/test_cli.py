import argparse
import hashlib
import json
import os
import shlex
from fractions import Fraction as F

import pytest

from q2dpoly import cli
from q2dpoly.cli import build_parser, main
from q2dpoly.context import QContext, TruncationPolicy
from q2dpoly.zeros import asymptotic_report


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_eval_first_family(capsys):
    code, out = run(capsys, "eval", "--family", "H", "--m", "1", "--n", "1",
                    "--z1", "1", "--z2", "1", "--q", "1/2")
    assert code == 0 and out.strip() == "1/2"


def test_eval_complex_point(capsys):
    code, out = run(capsys, "eval", "--family", "h", "--m", "1", "--n", "1",
                    "--z1", "3/2,1/2", "--z2", "3/2,-1/2", "--q", "2/5")
    assert code == 0 and out.strip() == "2/5"  # q*|z|^2 - (1-q) = 2/5*(5/2) - 3/5


def test_coeffs_constant(capsys):
    code, out = run(capsys, "coeffs", "--family", "p", "--m", "0", "--n", "0",
                    "--b", "1/3")
    doc = json.loads(out)
    assert code == 0 and doc["coeffs"] == [[0, 0, "1", "0"]]


def test_verify_exact_exit_zero(capsys):
    code, out = run(capsys, "verify", "--id", "H-TTR-a", "--q", "2/5",
                    "--max-m", "3", "--max-n", "3", "--format", "json")
    assert code == 0
    docs = json.loads(out)
    assert all(d["pass"] for d in docs)


def test_verify_reports_byte_identical(capsys):
    args = ("verify", "--id", "h-MULT", "--q", "2/5", "--max-m", "3",
            "--max-n", "3", "--format", "json", "--seed", "7")
    _, out1 = run(capsys, *args)
    _, out2 = run(capsys, *args)
    assert out1 == out2


def test_verify_seed_recorded(capsys):
    code, out = run(capsys, "verify", "--id", "H-MULT", "--q", "2/5",
                    "--max-m", "2", "--max-n", "2", "--format", "json",
                    "--seed", "11")
    docs = json.loads(out)
    assert code == 0 and all(d["extra"]["seed"] == 11 for d in docs)


def test_verify_needs_sqrt_config_error(capsys):
    # h-GF at q = 2/5 on the exact backend has no rational square root;
    # the sweep isolates it as a failing report -> exit 1
    code, out = run(capsys, "verify", "--id", "h-GF", "--q", "2/5",
                    "--format", "json")
    assert code == 1


def test_verify_runs_each_entry_on_the_backend_of_its_mode(capsys):
    # an EXACT entry listed beside a NUMERIC one still runs exactly
    code, out = run(capsys, "verify", "--id", "H-TTR-a", "--id", "COR19-AQ", "--q", "1/3",
                    "--max-m", "1", "--max-n", "1", "--format", "json")
    docs = json.loads(out)
    assert code == 0 and [d["id"] for d in docs] == ["COR19-AQ"] + ["H-TTR-a"] * 4
    _, alone = run(capsys, "verify", "--id", "H-TTR-a", "--q", "1/3",
                   "--max-m", "1", "--max-n", "1", "--format", "json")
    assert docs[1:] == json.loads(alone)
    assert all(d["residual"] == "0" for d in docs[1:])
    # --sqrt-q auto gives the exact entries the rational root of a square q
    code, out = run(capsys, "verify", "--id", "h-GF", "--id", "COR19-AQ", "--q", "9/25",
                    "--sqrt-q", "auto", "--format", "json")
    docs = json.loads(out)
    assert code == 0 and docs[1]["id"] == "h-GF" and docs[1]["residual"] == "0"
    assert main(["verify", "--id", "H-TTR-a", "--backend", "exact"]) == 2


@pytest.mark.parametrize("argv", [
    ("verify", "--id", "H-TTR-a", "--max-m", "-1", "--q", "1/2"),
    ("verify", "--id", "H-TTR-a", "--max-n", "-1", "--q", "1/2"),
    ("gram", "--kind", "doH", "--N", "-1", "--z", "1"),
    ("ortho", "--family", "H", "--max-index", "-1"),
    ("ortho", "--family", "H", "--max-index", "1", "--K", "-1"),
    ("zeros", "--family", "h", "--m", "6", "--n", "4", "--q", "1/4", "--count", "-1"),
    ("aqzeros", "--count", "-2", "--q", "1/4"),
])
def test_a_negative_size_is_config_error(capsys, argv):
    code, out = run(capsys, *argv)
    assert code == 2 and out == ""


@pytest.mark.parametrize("cmd", [("coeffs",), ("eval", "--z1", "1", "--z2", "1")])
@pytest.mark.parametrize("flag, family", [("--b", "H"), ("--b", "h"), ("--b", "Hc"),
                                          ("--b", "C"), ("--nu", "H"), ("--nu", "p")])
def test_member_parameter_of_another_family_is_config_error(capsys, cmd, flag, family):
    # --b belongs to --family p and --nu to --family C; given to another
    # family it was ignored (and printed among coeffs' params)
    argv = (*cmd, "--family", family, "--m", "3", "--n", "2", "--q", "1/2", flag, "1/3")
    if family in ("p", "C"):
        argv += ("--b" if family == "p" else "--nu", "3/2")
    code = main(list(argv))
    got = capsys.readouterr()
    assert code == 2 and got.out == ""
    assert got.err.startswith("config error:") and flag in got.err


def test_count_zero_prints_none(capsys):
    # --count N prints the first N radii or zeros, so 0 prints none; zeros
    # without --count prints every radius
    argv = ("zeros", "--family", "h", "--m", "6", "--n", "4", "--q", "1/4")
    code, out = run(capsys, *argv)
    assert code == 0 and len(json.loads(out)["radii"]) == 4
    code, out = run(capsys, *argv, "--count", "0")
    assert code == 0 and json.loads(out)["radii"] == []
    code, out = run(capsys, "aqzeros", "--count", "0", "--q", "1/4")
    assert code == 0 and json.loads(out)["zeros"] == []


@pytest.mark.parametrize("argv", [
    ("--target", "theta4_scaled", "--sizes", "5", "--z1", "1.1", "--z2", "0.9"),
    ("--target", "limH", "--sizes", "10", "--q", "1/4"),
])
def test_asym_over_one_size_is_config_error(capsys, argv):
    # one error compares nothing, so "monotone" would be true by default
    code = main(["asym", *argv])
    got = capsys.readouterr()
    assert code == 2 and got.out == ""
    assert got.err.startswith("config error:") and "two or more sizes" in got.err


@pytest.mark.parametrize("argv, err", [
    (("asym", "--target", "limH", "--j", "0", "--sizes", "4,8", "--q", "1/4"), "j must be >= 1"),
    (("asym", "--target", "limh", "--j", "0", "--sizes", "5,10", "--q", "1/4"), "j must be >= 1"),
    (("zeros", "--family", "h", "--m", "3", "--n", "2", "--q", "1/4", "--root-precision", "0"),
     "precision must be >= 1"),
    (("aqzeros", "--count", "2", "--q", "1/2", "--root-precision", "0"), "precision must be >= 1"),
])
def test_out_of_range_parameter_is_config_error(capsys, argv, err):
    # each was read as given: asym --j 0 compared the smallest radius (limH)
    # or raised IndexError (limh), and --root-precision 0 printed an
    # unbisected scan point to 17 digits
    code = main(list(argv))
    got = capsys.readouterr()
    assert code == 2 and got.out == ""
    assert got.err.startswith("config error:") and err in got.err


def test_verify_without_selector_is_config_error(capsys):
    code = main(["verify", "--q", "1/2"])
    assert code == 2


def test_zeros_json_schema(capsys):
    code, out = run(capsys, "zeros", "--family", "H", "--m", "2", "--n", "2",
                    "--q", "1/4")
    doc = json.loads(out)
    assert code == 0
    for key in ("family", "m", "n", "radii", "certified_width"):
        assert key in doc
    assert len(doc["radii"]) == 2


def test_aqzeros(capsys):
    code, out = run(capsys, "aqzeros", "--count", "2", "--q", "1/4")
    doc = json.loads(out)
    assert code == 0 and len(doc["zeros"]) == 2


def test_gram_cli(capsys):
    code, out = run(capsys, "gram", "--kind", "doh", "--N", "3", "--z", "1,1",
                    "--q", "2/5", "--format", "json")
    assert code == 0
    # the README command and its doh variant, byte for byte; the JSON
    # reports (which carry every leading minor) by digest
    for kind, json_sha in (
            ("doH", "728afac4eacf85e30d5f9a7ca54be3f19a457fc170493f7cd9538e822b31105b"),
            ("doh", "b0fb46255445d77c3a83a382f5067bb2ac272b74ab809305f21a9e174cef6178")):
        argv = ("gram", "--kind", kind, "--N", "8", "--z", "1,1", "--q", "2/5")
        assert run(capsys, *argv) == (
            0, f"PASS GRAM-{kind}           mode=EXACT-POLY       residual=0 tail=0.00e+00\n")
        code, out = run(capsys, *argv, "--format", "json")
        assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == json_sha


def test_asym_csv(capsys):
    code, out = run(capsys, "asym", "--target", "Hmn_inf", "--sizes", "4,8,16",
                    "--q", "1/2", "--z1", "2", "--z2", "2", "--format", "csv")
    assert code == 0 and out.startswith("size,error")


@pytest.mark.parametrize("target, extra", [
    ("Hmn_inf", ["--sizes", "8,16,32", "--z1", "2", "--z2", "2"]),
    ("PR_h", ["--sizes", "8,16,32"]),
    ("p_inf", ["--sizes", "8,16,32", "--z1", "2", "--z2", "2", "--b", "1/4"]),
    ("theta4_scaled", ["--sizes", "5,9,17", "--z1", "11/10", "--z2", "9/10"]),
])
def test_asym_ignores_exact_backend(capsys, target, extra):
    # asym always computes in floats, also at a q with a rational square
    # root: it takes no --backend and prints the float library report
    argv = ["asym", "--q", "1/4", "--target", target, *extra]
    assert main([*argv, "--backend", "exact"]) == 2
    code, out = run(capsys, *argv)
    opts = dict(zip(extra[::2], extra[1::2]))
    sizes = [int(s) for s in opts.pop("--sizes").split(",")]
    ctx = QContext(F(1, 4), sqrt_q="auto", backend="float", precision_bits=160,
                   default_trunc=TruncationPolicy(max_terms=400, tail_tol=1e-32))
    rep = asymptotic_report(ctx, target, sizes, {k[2:]: F(v) for k, v in opts.items()})
    assert code == (0 if rep.monotone else 1)
    assert json.loads(out) == {"target": target, "sizes": sizes,
                               "errors": [repr(e) for e in rep.errors],
                               "monotone": rep.monotone, "final_error": repr(rep.final_error)}


def test_bad_q_is_config_error(capsys):
    code = main(["eval", "--family", "H", "--m", "0", "--n", "0",
                 "--z1", "1", "--z2", "1", "--q", "3/2"])
    assert code == 2


def test_config_file_defaults(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"q": "1/2"}))
    code, out = run(capsys, "eval", "--family", "H", "--m", "1", "--n", "1",
                    "--z1", "1", "--z2", "1", "--config", str(cfg))
    assert code == 0 and out.strip() == "1/2"
    # explicit flag wins over the config file
    code, out = run(capsys, "eval", "--family", "H", "--m", "1", "--n", "1",
                    "--z1", "1", "--z2", "1", "--q", "1/4", "--config", str(cfg))
    assert code == 0 and out.strip() == "1/4"


def test_config_file_loses_to_abbreviated_flag(tmp_path, capsys):
    # --precision abbreviates --precision-bits: the explicit 300 wins over the
    # file's 60 as the full flag would
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"precision_bits": 60}))
    argv = ("ortho", "--family", "H", "--max-index", "1", "--q", "1/4")
    at_300 = run(capsys, *argv, "--precision-bits", "300")
    assert run(capsys, *argv, "--precision", "300", "--config", str(cfg)) == at_300
    assert run(capsys, *argv, "--config", str(cfg)) != at_300


@pytest.mark.parametrize("cmd, doc", [
    ("asym", [{"precision_bits": 200}]),     # not an object
    ("asym", {"precison_bits": 200}),        # misspelt option
    ("zeros", {"precision_bits": 200}),      # option zeros does not declare
    ("ortho", {"K": None}),                  # values of the wrong type
    ("ortho", {"max_index": [2]}),
    ("ortho", {"precision_bits": 200.5}),
    ("gram", {"format": "xml"}),             # not one of the option's choices
])
def test_config_file_bad_input_is_config_error(tmp_path, capsys, cmd, doc):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    argv = {"asym": ["--target", "limH", "--sizes", "4,8", "--q", "1/4"],
            "zeros": ["--family", "H", "--m", "2", "--n", "2", "--q", "1/4"],
            "ortho": ["--family", "H", "--q", "1/4"],
            "gram": ["--kind", "doH", "--N", "2", "--z", "1"]}[cmd]
    code = main([cmd, *argv, "--config", str(cfg)])
    got = capsys.readouterr()
    assert code == 2 and got.out == ""
    assert got.err.startswith("config error:")


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, _ = run(capsys, "coeffs", "--family", "H", "--m", "1", "--n", "0",
                  "--output", str(target))
    assert code == 0 and json.loads(target.read_text())["m"] == 1


def test_verify_all_exact_exit_zero(capsys):
    # needs_sqrt series entries are excluded (with a notice) when q has no
    # rational square root; everything else must pass with residual 0
    code, out = run(capsys, "verify", "--all-exact", "--q", "2/5",
                    "--max-m", "2", "--max-n", "2", "--format", "json")
    assert code == 0
    docs = json.loads(out)
    assert all(d["pass"] and d["residual"] == "0" for d in docs)


def test_verify_cli_matches_library_sweep(capsys):
    from fractions import Fraction as F

    from q2dpoly.context import QContext
    from q2dpoly.identities import sweep

    code, out = run(capsys, "verify", "--id", "H-ROD", "--q", "2/5",
                    "--max-m", "2", "--max-n", "2", "--format", "json")
    lib = sweep(QContext(F(2, 5)), ["H-ROD"], {"max_m": 2, "max_n": 2})
    assert json.loads(out) == [r.to_dict() for r in lib]


# pinned stdout and stderr of `ortho ... --max-index 1`: a change to how the
# inner products or their moments are computed must leave these bytes as they are
ORTHO_GOLDEN = [
    (('--family', 'H', '--max-index', '1', '--q', '1/4'),
     'm,n,s,t,value_re,value_im,closed_re,closed_im,rel_error\n'
     '0,0,0,0,1.45235364245,0.0,1.45235364245,0.0,1.6249686693683502e-33\n'
     '0,0,0,1,0.0,0.0,0.0,0.0,0.0\n'
     '0,0,1,0,0.0,0.0,0.0,0.0,0.0\n'
     '0,0,1,1,2.4837918927e-49,0.0,0.0,0.0,2.4837918926989584e-49\n'
     '0,1,0,0,0.0,0.0,0.0,0.0,0.0\n'
     '0,1,0,1,1.08926523184,0.0,1.08926523184,0.0,1.6249686693683502e-33\n'
     '0,1,1,0,0.0,0.0,0.0,0.0,0.0\n'
     '0,1,1,1,0.0,0.0,0.0,0.0,0.0\n'
     '1,0,0,0,0.0,0.0,0.0,0.0,0.0\n'
     '1,0,0,1,0.0,0.0,0.0,0.0,0.0\n'
     '1,0,1,0,1.08926523184,0.0,1.08926523184,0.0,1.6249686693683502e-33\n'
     '1,0,1,1,0.0,0.0,0.0,0.0,0.0\n'
     '1,1,0,0,2.4837918927e-49,0.0,0.0,0.0,2.4837918926989584e-49\n'
     '1,1,0,1,0.0,0.0,0.0,0.0,0.0\n'
     '1,1,1,0,0.0,0.0,0.0,0.0,0.0\n'
     '1,1,1,1,0.204237230969,0.0,0.204237230969,0.0,3.318791014439437e-34\n',
     '# worst diagonal rel_error 1.6249686693683502e-33; worst off-diagonal |value| 2.4837918926989584e-49; PASS\n'),
    (('--family', 'p', '--max-index', '1', '--q', '1/4', '--b', '1/4'),
     'm,n,s,t,value_re,value_im,closed_re,closed_im,rel_error\n'
     '0,0,0,0,1.42222222222,0.0,1.42222222222,0.0,6.499870028399915e-33\n'
     '0,0,0,1,0.0,0.0,0.0,0.0,0.0\n'
     '0,0,1,0,0.0,0.0,0.0,0.0,0.0\n'
     '0,0,1,1,2.13758533884e-49,0.0,0.0,0.0,2.1375853388448287e-49\n'
     '0,1,0,0,0.0,0.0,0.0,0.0,0.0\n'
     '0,1,0,1,0.952380952381,0.0,0.952380952381,0.0,6.190352407999918e-33\n'
     '0,1,1,0,0.0,0.0,0.0,0.0,0.0\n'
     '0,1,1,1,0.0,0.0,0.0,0.0,0.0\n'
     '1,0,0,0,0.0,0.0,0.0,0.0,0.0\n'
     '1,0,0,1,0.0,0.0,0.0,0.0,0.0\n'
     '1,0,1,0,0.952380952381,0.0,0.952380952381,0.0,6.190352407999918e-33\n'
     '1,0,1,1,0.0,0.0,0.0,0.0,0.0\n'
     '1,1,0,0,2.13758533884e-49,0.0,0.0,0.0,2.1375853388448287e-49\n'
     '1,1,0,1,0.0,0.0,0.0,0.0,0.0\n'
     '1,1,1,0,0.0,0.0,0.0,0.0,0.0\n'
     '1,1,1,1,0.165441176471,0.0,0.165441176471,0.0,1.0753461444043978e-33\n',
     '# worst diagonal rel_error 6.499870028399915e-33; worst off-diagonal |value| 2.1375853388448287e-49; PASS\n'),
    (('--family', 'h', '--max-index', '1', '--q', '1/2'),
     'm,n,s,t,value_re,value_im,closed_re,closed_im,rel_error\n'
     '0,0,0,0,2.1775860903,0.0,2.1775860903,0.0,1.9590865980570535e-17\n'
     '0,0,0,1,0.0,0.0,0.0,0.0,0.0\n'
     '0,0,1,0,0.0,0.0,0.0,0.0,0.0\n'
     '0,0,1,1,2.13303986281e-17,0.0,0.0,0.0,2.1330398628146223e-17\n'
     '0,1,0,0,0.0,0.0,0.0,0.0,0.0\n'
     '0,1,0,1,2.1775860903,0.0,2.1775860903,0.0,3.989845441252815e-34\n'
     '0,1,1,0,0.0,0.0,0.0,0.0,0.0\n'
     '0,1,1,1,0.0,0.0,0.0,0.0,0.0\n'
     '1,0,0,0,0.0,0.0,0.0,0.0,0.0\n'
     '1,0,0,1,0.0,0.0,0.0,0.0,0.0\n'
     '1,0,1,0,2.1775860903,0.0,2.1775860903,0.0,3.989845441252815e-34\n'
     '1,0,1,1,0.0,0.0,0.0,0.0,0.0\n'
     '1,1,0,0,2.13303986281e-17,0.0,0.0,0.0,2.1330398628146223e-17\n'
     '1,1,0,1,0.0,0.0,0.0,0.0,0.0\n'
     '1,1,1,0,0.0,0.0,0.0,0.0,0.0\n'
     '1,1,1,1,1.08879304515,0.0,1.08879304515,0.0,9.795432990285268e-18\n',
     '# worst diagonal rel_error 1.9590865980570535e-17; worst off-diagonal |value| 2.1330398628146223e-17; PASS\n'),
]


@pytest.mark.parametrize("argv, out, err", ORTHO_GOLDEN, ids=["H", "p", "h"])
def test_ortho_output_pinned(capsys, argv, out, err):
    code = main(["ortho", *argv])
    got = capsys.readouterr()
    assert code == 0
    assert got.out == out
    assert got.err == err


def test_ortho_h_exact_backend_is_config_error(capsys):
    # the hq moments are quadratures, so the exact backend has none
    code = main(["ortho", "--family", "h", "--max-index", "1", "--q", "1/2",
                 "--backend", "exact"])
    got = capsys.readouterr()
    assert code == 2
    assert got.out == ""
    assert got.err.startswith("config error:")


@pytest.mark.parametrize("tail_tol", ["16385", "1e6"])
def test_ortho_loose_tail_tol_is_config_error(capsys, tail_tol):
    # Euler's series for (q;q)_inf at q = 1/2 reaches the partial sum 0 with
    # tail 1/2 after two terms; only a tail_tol above 2^14 stops it there
    # (its stop scale is at least 2^-16 of the sum of |terms|, which is 2).
    # That sum is refused as cancelled, and the product cut at eps = 1/2 has
    # a tail as large as its value, so the moment tails have no positive
    # lower bound to divide by
    code = main(["ortho", "--family", "H", "--max-index", "1", "--q", "1/2",
                 "--tail-tol", tail_tol])
    got = capsys.readouterr()
    assert code == 2
    assert got.out == ""
    assert got.err.startswith("config error:") and "tail tolerance" in got.err


@pytest.mark.parametrize("tail_tol", ["0.5", "0.9"])
def test_ortho_loose_tail_tol_fails_honestly(capsys, tail_tol):
    # at these tolerances (q;q)_inf at q = 1/2 is 1/3 with tail 1/18, a true
    # bound (the value is 0.2888), so the audit runs and its closed forms are
    # off by their cut: a FAIL, not a config error
    code = main(["ortho", "--family", "H", "--max-index", "1", "--q", "1/2",
                 "--tail-tol", tail_tol])
    got = capsys.readouterr()
    assert code == 1
    assert got.out.startswith("m,n,s,t,")
    worst = float(got.err.split("worst diagonal rel_error ")[1].split(";")[0])
    assert 0.1 < worst < 0.2 and got.err.rstrip().endswith("FAIL")


# Every option a subcommand declares is read.  Each command below is parsed
# into a namespace that records the attributes read from it; after parsing,
# the config step and the handler must between them read every option the
# subcommand declares, or the option is one a user can set and the command
# silently ignores.  Both branches of asym are run.
GUARD_COMMANDS = {
    "eval": [["--family", "H", "--m", "1", "--n", "1", "--z1", "1", "--z2", "1"]],
    "coeffs": [["--family", "p", "--m", "1", "--n", "0", "--b", "1/3"]],
    "verify": [["--id", "H-TTR-a", "--max-m", "1", "--max-n", "1"]],
    "ortho": [["--family", "H", "--max-index", "0", "--q", "1/4"]],
    "zeros": [["--family", "H", "--m", "2", "--n", "2", "--q", "1/4"]],
    "aqzeros": [["--count", "1", "--q", "1/4"]],
    "asym": [["--target", "limH", "--sizes", "4,8", "--q", "1/4"],
             ["--target", "Hmn_inf", "--sizes", "4,8", "--z1", "2", "--z2", "2"]],
    "gram": [["--kind", "doh", "--N", "2", "--z", "1"]],
}


class _ReadLog(argparse.Namespace):
    """A namespace that records the name of every attribute read from it."""

    reads = set()

    def __getattribute__(self, name):
        _ReadLog.reads.add(name)
        return super().__getattribute__(name)


def test_every_declared_option_is_read(capsys):
    ap = build_parser()
    commands = next(a for a in ap._actions if a.dest == "cmd").choices
    assert sorted(commands) == sorted(GUARD_COMMANDS)
    unread = []
    for cmd, argvs in GUARD_COMMANDS.items():
        reads = set()
        for argv in argvs:
            argv = [cmd, *argv]
            args = ap.parse_args(argv, _ReadLog())
            _ReadLog.reads.clear()
            args = cli._with_config(ap, argv, args)
            assert args.fn(args) == 0, argv
            reads |= _ReadLog.reads
        unread += [f"{cmd}.{a.dest}" for a in commands[cmd]._actions
                   if a.dest != "help" and a.dest not in reads]
    assert unread == []


# The README's "Studies" block is the front end of the paper-scale studies:
# every q2dpoly line in it is run here, so the documented commands cannot go
# stale.
README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "README.md")


def _readme_study_argvs():
    with open(README) as fh:
        block = fh.read().split("## Studies", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(ln)[1:] for ln in block.splitlines() if ln.startswith("q2dpoly ")]


# SHA-256 of each README study output, the aqzeros line's stdout included:
# the study CLI output stays byte-identical, and a change that moves it
# re-pins the digest and says so.
STUDY_SHA256 = {
    "aqzeros stdout": "4655e93aafa2a6c762d98710ada880602a612045ebde918304b38621634d5a36",
    "asym_Hmn_inf.csv": "96b2d8ac044cf913d9dbcb7d42cdcb4397acb2709d5f7810b0199df2ef6261a9",
    "asym_PR_h.csv": "46ee96870427b539182d673998cf087c6f82c9726efadde629a72018fa48b2df",
    "asym_p_inf.csv": "643c8f4dcc2aff9aed8c56f9d2b67b0d768b7175644fdf4de63415f7d289df91",
    "asym_theta4_scaled.csv": "107a436e9f10febc0e8c5dc5ca9a26115e7c96e7b090f68b4fa0d613f6b96605",
    "exact_series.json": "64a09c8a854363c74197f203f98dc0d628930df2c672fd40b501e2bf3d0f9e2d",
    "exact_sweep.json": "ba4fb90ed603af16f93314cbfd439b8b7174497bf48d95f4fef7529df54bba19",
    "ortho_H.csv": "2fbe9740f19f48c7ca44ce54feb6050e60266e41aea3c39705f50911c729b233",
    "ortho_h.csv": "cfc5fbc346e95584f1ca8846f0ff3aeabae36dbccad1b30437d99e8a20d377ca",
    "ortho_p.csv": "2b3357b7ea184d25e85176e8dd0ce252230abcd9cea6c1465f3d0289a6dae8c7",
    "zerolimit_limH.csv": "3fe91ee7016535a28f713a4bfef1937ce57ab6bf1fb721b0b2a15b24d102eb76",
    "zerolimit_limh.csv": "b2d8822725c3b8328e4759beb8838635d1f9c14073c126eac66784fd94c72426",
    "zerolimit_limp.csv": "18ade55fc3fac5a3dc0a044c5ab1fdf0dac5831053b83c09f84943ec8e08cd8c",
}


def test_readme_study_lines_run(tmp_path, monkeypatch, capsys):
    lines = _readme_study_argvs()
    monkeypatch.chdir(tmp_path)
    for argv in lines:
        assert main(argv) == 0, argv
    outputs = {argv[argv.index("--output") + 1]: argv[0] for argv in lines if "--output" in argv}
    assert len(lines) == 13
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(outputs)
    # the one line without --output, aqzeros, prints its JSON
    out = capsys.readouterr().out
    assert len(json.loads(out)["zeros"]) == 3
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in outputs}
    digests["aqzeros stdout"] = hashlib.sha256(out.encode()).hexdigest()
    assert digests == STUDY_SHA256
    header = "m,n,s,t,value_re,value_im,closed_re,closed_im,rel_error"
    for name, rows in (("ortho_H.csv", 6**4), ("ortho_p.csv", 6**4), ("ortho_h.csv", 5**4)):
        text = (tmp_path / name).read_text().splitlines()
        assert text[0] == header and len(text) == rows + 1, name
    asym = [name for name, cmd in outputs.items() if cmd == "asym"]
    assert len(asym) == 7
    for name in asym:
        assert (tmp_path / name).read_text().startswith("size,error"), name
    for name in ("exact_sweep.json", "exact_series.json"):
        docs = json.loads((tmp_path / name).read_text())
        assert docs and all(d["pass"] for d in docs), name


# A call builds the parser of its own subcommand only (build_parser(cmd));
# what that parser makes of a command line, errors and help included, must
# be what the parser of all eight makes of it.
def test_one_subcommand_parser_parses_as_the_full_one():
    argvs = [[cmd, *argv] for cmd, group in GUARD_COMMANDS.items() for argv in group]
    argvs += _readme_study_argvs()
    assert {argv[0] for argv in argvs} == set(cli.SUBCOMMANDS)
    for argv in argvs:
        one = build_parser(argv[0])
        assert list(next(a for a in one._actions if a.dest == "cmd").choices) == [argv[0]]
        assert vars(one.parse_args(argv)) == vars(build_parser().parse_args(argv)), argv


def _full_parser_result(capsys, argv):
    try:
        build_parser().parse_args(argv)
        code = None
    except SystemExit as exc:
        code = exc.code
    got = capsys.readouterr()
    return code, got.out, got.err


@pytest.mark.parametrize("argv", [
    ["asym", "-h"],
    ["-h"],
    [],
    ["foo"],
    ["eval", "--family", "H", "--m", "1", "--n", "1", "--z1", "1"],
    ["gram", "--kind", "doX", "--N", "2", "--z", "1"],
    ["asym", "--target", "PR_h", "--sizes", "8,16", "--w1", "1"],
], ids=["sub-help", "help", "none", "unknown", "missing", "choice", "unrecognized"])
def test_parser_errors_and_help_match_the_full_parser(capsys, argv):
    code, out, err = _full_parser_result(capsys, argv)
    assert code in (0, 2)
    assert main(argv) == code
    got = capsys.readouterr()
    assert (got.out, got.err) == (out, err)
    if argv[:1] == ["asym"] and code == 2:
        # the usage line names all eight subcommands, not just the one parsed
        assert err.startswith("usage: q2dpoly [-h] {eval,coeffs,verify,ortho,zeros,"
                              "aqzeros,asym,gram} ...\n")


def test_main_reads_sys_argv(monkeypatch, capsys):
    monkeypatch.setattr("sys.argv", ["q2dpoly", "eval", "--family", "H", "--m", "1",
                                     "--n", "1", "--z1", "1", "--z2", "1"])
    assert main() == 0 and capsys.readouterr().out == "1/2\n"


def test_main_adds_one_subparser(monkeypatch, capsys):
    added = []
    add_parser = argparse._SubParsersAction.add_parser

    def counting(self, name, **kwargs):
        added.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counting)
    assert main(["aqzeros", "--count", "1", "--q", "1/4"]) == 0
    assert added == ["aqzeros"]
    added.clear()
    assert main(["foo"]) == 2
    assert added == list(cli.SUBCOMMANDS)


def test_aqzeros_past_eight_zeros(capsys):
    # the truncation order N is chosen in logarithms: q^{N^2} x_hi^N in
    # doubles overflowed from ten zeros on at q = 1/4
    code, out = run(capsys, "aqzeros", "--count", "10", "--q", "1/4")
    zs = [float(z) for z in json.loads(out)["zeros"]]
    assert code == 0 and len(zs) == 10 and zs == sorted(zs)
    # past the first, each zero is about 1/q^2 = 16 times the one before
    assert all(14 < b / a < 18 for a, b in zip(zs[1:], zs[2:]))


def test_aqzeros_scan_end_past_the_double_range(capsys):
    # x_hi = q^-28 = 2^1120 at q = 2^-40 overflows a double
    code, out = run(capsys, "aqzeros", "--count", "13", "--q", "1/1099511627776")
    assert code == 0 and len(json.loads(out)["zeros"]) == 13


@pytest.mark.parametrize("argv", [
    ("eval", "--family", "H", "--m", "0", "--n", "0", "--z1", "1", "--z2", "1", "--q", "1/0"),
    ("eval", "--family", "H", "--m", "0", "--n", "0", "--z1", "1/0", "--z2", "1"),
    ("eval", "--family", "p", "--m", "0", "--n", "0", "--z1", "1", "--z2", "1", "--b", "1/0"),
    ("zeros", "--family", "h", "--m", "2", "--n", "2", "--q", "1/0"),
    ("gram", "--kind", "doH", "--N", "2", "--z", "1,1/0"),
    ("verify", "--id", "H-TTR-a", "--q", "1/2", "--c", "1/0"),
    ("verify", "--id", "H-TTR-a", "--q", "1/4", "--sqrt-q", "1/0"),
])
def test_zero_denominator_is_config_error(capsys, argv):
    # Fraction raises ZeroDivisionError, an ArithmeticError, which would
    # read as a verification failure (exit 1)
    code = main(list(argv))
    got = capsys.readouterr()
    assert code == 2 and got.out == ""
    assert got.err == "config error: zero denominator in '1/0'\n"


@pytest.mark.parametrize("argv", [
    ["--target", "Hmn_inf", "--sizes", "4,8", "--q", "1/2", "--z1", "0", "--z2", "1"],
    ["--target", "theta4_scaled", "--sizes", "5,9", "--q", "1/2", "--z1", "0", "--z2", "1"],
])
def test_asym_at_a_zero_point_is_config_error(capsys, argv):
    # the limits divide by z1 z2, so there is none to report at z1 z2 = 0
    code = main(["asym", *argv])
    got = capsys.readouterr()
    assert code == 2 and got.out == ""
    assert got.err == f"config error: {argv[1]} has no limit at z1 z2 = 0\n"


def test_certification_failure_is_one_stderr_line(capsys):
    # a one-term budget cannot sum the phi series of the Hmn_inf limit
    code = main(["asym", "--target", "Hmn_inf", "--sizes", "8,16", "--q", "1/2",
                 "--z1", "2", "--z2", "2", "--max-terms", "1"])
    got = capsys.readouterr()
    assert code == 1 and got.out == ""
    assert got.err == "verification error: phi series did not converge in budget\n"


def test_aqzeros_near_one_certifies_the_zeros_below_one(capsys):
    # at q = 39/40 all three zeros lie below x = 1; the scan starts at (1-q)/q = 1/39
    code = main(["aqzeros", "--count", "3", "--q", "39/40"])
    got = capsys.readouterr()
    assert code == 0 and got.err == ""
    assert got.out == ('{"q": "39/40", "zeros": ["0.3024056491965659", "0.35265798524703189", '
                       '"0.4004366483517651"]}\n')
