import json
import os
import stat
import subprocess
import sys
import time
from pathlib import Path

import pytest

from hamsym import cli, symexpr, verify
from hamsym.classifier import InternalInconsistencyError
from hamsym.cli import main
from hamsym.systemio import (
    BUNDLED_EXAMPLES,
    SystemFileError,
    parse_system_text,
)


@pytest.fixture()
def example_dir(tmp_path):
    target = tmp_path / "examples"
    assert main(["examples", "--install", str(target)]) == 0
    return target


# -- file format ---------------------------------------------------------------

def test_bundled_examples_parse_and_validate():
    for fname, text in BUNDLED_EXAMPLES.items():
        sf = parse_system_text(text, name_hint=fname)
        assert sf.space.n == 2
        assert sf.hamiltonian is not None
        assert sf.symmetries
        assert sf.verify["x0"]


def test_parameter_without_value_probes_positive():
    text = """\
dof: 1
coordinates: q p
parameter: mass
hamiltonian: p^2/(2*mass)
"""
    sf = parse_system_text(text)
    assert sf.space.parameters == {"mass": 1.0}


def test_explicit_symplectic_block():
    text = """\
name: twisted
dof: 1
coordinates: q p
symplectic: explicit
symplectic-term: q p = 2
hamiltonian: (q^2 + p^2)/2
"""
    sf = parse_system_text(text)
    assert sf.symplectic != "canonical"
    [(coeff, i, j)] = sf.symplectic
    assert (i, j) == (0, 1)


@pytest.mark.parametrize("mutation, fragment", [
    ("hamiltonian: q1 +", "bad hamiltonian"),
    ("symmetry: S = 1 | 2", "components"),
    ("coordinates: q1 q1 p1 p1", "distinct"),
    ("dof: two", "bad dof"),
    ("frequency: 3", "unknown key"),
    ("domain: q1 = 1", "domain"),
    ("symmetry: S = 1 | 0 | 0 | 0\nsymmetry: S = 0 | 1 | 0 | 0",
     "duplicate symmetry name 'S' (line 5)"),
    ("parameter: k = 1.0\nparameter: k = 4.0", "duplicate parameter 'k' (line 5)"),
    ("parameter: k\nparameter: k = 4.0", "duplicate parameter 'k' (line 5)"),
    ("domain: q1 = 0 .. 1\ndomain: q1 = 0 .. 2", "duplicate domain 'q1' (line 5)"),
    ("verify: dt = 0.1\nverify: dt = 0.01", "duplicate verify key 'dt' (line 5)"),
    ("verify: method = euler", "unknown method 'euler'; choose from ('rk4', "
                               "'implicit_midpoint') (line 4)"),
    ("domain: qq = 0 .. 1", "domain 'qq' names no coordinate (line 4)"),
    ("domain: k = 0 .. 1\nparameter: k = 2", "domain 'k' names no coordinate (line 4)"),
    ("domain: q1 = 1 .. 1", "domain of 'q1' needs finite bounds with lo < hi, "
                            "got 1.0 .. 1.0 (line 4)"),
    ("domain: q1 = 2 .. 1", "got 2.0 .. 1.0 (line 4)"),
    ("domain: q1 = nan .. 1", "got nan .. 1.0 (line 4)"),
])
def test_file_errors_have_diagnostics(mutation, fragment):
    base = [
        "dof: 2",
        "coordinates: q1 q2 p1 p2",
        "hamiltonian: (p1^2 + p2^2 + q1^2 + q2^2)/2",
    ]
    key = mutation.split(":")[0]
    lines = [ln for ln in base if not ln.startswith(key + ":")]
    lines.append(mutation)
    with pytest.raises(SystemFileError) as err:
        parse_system_text("\n".join(lines))
    assert fragment.lower() in str(err.value).lower()


def test_verify_methods_are_one_list():
    # the file key and the --method flag accept exactly the integrators verify runs
    base = "dof: 1\ncoordinates: q p\nhamiltonian: p^2/2\nverify: method = "
    for method in verify.METHODS:
        assert parse_system_text(base + method).verify["method"] == method
        assert cli.build_parser().parse_args(
            ["verify", "f.sys", "--method", method]).method == method
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["verify", "f.sys", "--method", "euler"])


# -- CLI ----------------------------------------------------------------------

def test_cli_check_pendulum(example_dir, capsys):
    code = main(["check", str(example_dir / "pendulum.sys")])
    out = capsys.readouterr().out
    assert code == 0
    assert "dtheta/dt = p_theta" in out
    assert "dphi/dt = p_phi*tan(theta)^2 + p_phi" in out
    assert "symbolic-zero" in out


def test_cli_check_rejects_degenerate(tmp_path, capsys):
    bad = tmp_path / "degenerate.sys"
    bad.write_text(
        "dof: 2\ncoordinates: q1 q2 p1 p2\nsymplectic: explicit\n"
        "symplectic-term: q1 q2 = 1\n"
        "hamiltonian: p1\n",
        encoding="utf-8",
    )
    code = main(["check", str(bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert "degenerate" in err


def test_cli_check_rejects_a_form_degenerate_inside_the_box(tmp_path, capsys):
    # q dq^dp vanishes at q = 0: the closedness test and every pivot pass
    bad = tmp_path / "degenerate.sys"
    bad.write_text("dof: 1\ncoordinates: q p\ndomain: q = -1 .. 1\nsymplectic: explicit\n"
                   "symplectic-term: q p = q\nhamiltonian: p^2/2 + q^2/2\n", encoding="utf-8")
    assert main(["check", str(bad)]) == 2
    assert "omega^1 takes both signs at probe points" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["check", "classify", "verify"])
def test_cli_rejects_a_zero_width_probe_box(tmp_path, capsys, command):
    # probing a box of one q value proved T = d/dq a Noether symmetry of a
    # q-dependent h, with conserved p (verify then saw p drift)
    f = tmp_path / "flat.sys"
    f.write_text("dof: 1\ncoordinates: q p\ndomain: q = 1 .. 1\n"
                 "hamiltonian: p^2/2 + (q-1)^3/3\nsymmetry: T = 1 | 0\n" + _ONE_DOF_RUN,
                 encoding="utf-8")
    assert main([command, str(f)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == ("error: domain of 'q' needs finite bounds with lo < hi, "
                       "got 1.0 .. 1.0 (line 3)\n")


@pytest.mark.parametrize("term, position", [("1/(Z)", 17), ("(Z)^(-1)", 63)])
def test_cli_check_rejects_a_trig_divisor_that_is_identically_zero(tmp_path, capsys, term,
                                                                   position):
    # Z = sin^4 - cos^4 - sin^2 + cos^2 is (sin^2 - cos^2)*(sin^2 + cos^2 - 1),
    # which the trig fold does not see: its residue modulo P is zero
    zero = "sin(q1)^4 - cos(q1)^4 - sin(q1)^2 + cos(q1)^2"
    bad = tmp_path / "zero_divisor.sys"
    bad.write_text("dof: 2\ncoordinates: q1 q2 p1 p2\nhamiltonian: (p1^2+p2^2)/2 + "
                   f"{term.replace('Z', zero)}\n", encoding="utf-8")
    assert main(["check", str(bad)]) == 2
    assert capsys.readouterr().err == (
        f"error: bad hamiltonian: division by zero (at position {position}) (line 3)\n")


@pytest.mark.parametrize("command", ["check", "classify"])
def test_cli_rejects_a_divisor_that_vanishes_at_the_declared_parameters(tmp_path, capsys,
                                                                         command):
    # (k - 1)*q is no zero polynomial, but it is zero at the declared k = 1:
    # its residue at the declared values is zero; q - k is not
    text = ("dof: 1\ncoordinates: q p\nparameter: k = 1.0\n"
            "hamiltonian: p^2/2 + {}/({}) + q^2\nsymmetry: T = 0 | 1\n")
    bad, good = tmp_path / "bad.sys", tmp_path / "good.sys"
    bad.write_text(text.format("1", "(k-1)*q"), encoding="utf-8")
    good.write_text(text.format("1", "q - k"), encoding="utf-8")
    assert main([command, str(bad)]) == 2
    assert capsys.readouterr().err == (
        "error: bad hamiltonian: division by zero (at position 9) (line 4)\n")
    assert main([command, str(good)]) == 0


def test_cli_tiny_coefficient_commutator_is_not_a_symmetry(tmp_path, capsys):
    # [T, X_h] = (0, -12e-12*q^2) stays below the probe tolerance at every
    # point, but its residue modulo P is not zero
    f = tmp_path / "tiny.sys"
    f.write_text("dof: 1\ncoordinates: q p\nhamiltonian: p^2/2 + 1e-12*q^4\n"
                 "symmetry: T = 1 | 0\n", encoding="utf-8")
    assert main(["classify", str(f), "--format", "structured"]) == 0
    [report] = json.loads(capsys.readouterr().out)["candidates"]
    assert report["label"] == {"kind": "NotASymmetry"}
    assert report["bracket"].startswith("nonzero (decided mod 2^61-1): witness value -")


def test_cli_check_rejects_malformed_expression(tmp_path, capsys):
    bad = tmp_path / "broken.sys"
    bad.write_text(
        "dof: 1\ncoordinates: q p\nhamiltonian: q +\n", encoding="utf-8")
    code = main(["check", str(bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert "position" in err


_ONE_DOF_RUN = "verify: x0 = 0.5 0.25\nverify: t_final = 0.1\nverify: dt = 0.01\n"


@pytest.mark.parametrize("command", ["check", "classify", "verify"])
@pytest.mark.parametrize("lines, fragment", [
    ("hamiltonian: p^2/2 + 1e400*q^2\nsymmetry: T = 1 | 0\n",
     "a constant exceeds the float range"),
    # h's constants fit a float, but dp/dt = -2e309*q^19 does not
    ("hamiltonian: p^2/2 + 1e308*q^20\nsymmetry: T = 1 | 0\n",
     "a constant exceeds the float range"),
    ("parameter: B = nan\nhamiltonian: p^2/2 + B*q^2\n", "(line 3)"),
    ("parameter: B = -inf\nhamiltonian: p^2/2 + B*q^2\n", "(line 3)"),
    ("domain: q = -inf .. 1\nhamiltonian: p^2/2 + q^2\n", "(line 3)"),
    ("hamiltonian: p^2/2 + sin(1e400*q)\nsymmetry: T = 1 | 0\n",
     "a constant exceeds the float range"),
    ("hamiltonian: p^2/2 + sqrt(2 + 1e400*q^2)\nsymmetry: T = 1 | 0\n",
     "a constant exceeds the float range"),
    ("hamiltonian: p^2/2 + q/(q^2 + 1e400)\nsymmetry: T = 1 | 0\n",
     "a constant exceeds the float range"),
], ids=["huge-coefficient", "huge-derived-coefficient", "nan-parameter", "infinite-parameter",
        "infinite-domain", "huge-in-function", "huge-in-root", "huge-in-denominator"])
def test_cli_values_outside_the_float_range_exit_2(tmp_path, capsys, command, lines, fragment):
    # make_system rejects the constant, at any depth, before any command
    # prints or evaluates the system
    f = tmp_path / "range.sys"
    f.write_text("dof: 1\ncoordinates: q p\n" + lines + _ONE_DOF_RUN, encoding="utf-8")
    assert main([command, str(f)]) == 2
    assert fragment in capsys.readouterr().err


@pytest.mark.parametrize("lines, args, code, fragment", [
    ("domain: q = 0 .. 800\nhamiltonian: p^2/2 + exp(q)\nsymmetry: T = 1 | 0\n",
     ["classify"], 0, "candidate T: NotASymmetry"),
    ("hamiltonian: p^2/2 - exp(q)\n",
     ["verify", "--x0", "0 10", "--t-final", "20", "--dt", "0.01", "--quantity", "p"],
     1, "float overflow"),
    ("hamiltonian: p^2/2 + q^(10^400)/10^400\n",
     ["verify", "--x0", "0.5 0.1", "--t-final", "0.1", "--dt", "0.01"],
     2, "an exponent exceeds the float range"),
], ids=["classify-probe-overflow", "verify-step-overflow", "huge-exponent"])
def test_cli_float_overflow_is_no_traceback(tmp_path, capsys, lines, args, code, fragment):
    f = tmp_path / "overflow.sys"
    f.write_text("dof: 1\ncoordinates: q p\n" + lines, encoding="utf-8")
    assert main([args[0], str(f)] + args[1:]) == code
    out = capsys.readouterr()
    assert fragment in out.out + out.err


@pytest.mark.parametrize("command", ["check", "classify"])
@pytest.mark.parametrize("hamiltonian, fragment", [
    ("p^2/2 + 1e5000*q^2", "digits (at position 8) (line 3)"),
    ("p^2/2 + 10^5000*q^2", ""),
    ("q^(10^5000)", ""),
], ids=["literal", "power-of-ten", "exponent"])
def test_cli_huge_constants_exit_2(tmp_path, capsys, command, hamiltonian, fragment):
    # a literal fails at parse time, a constant built by arithmetic where
    # it is printed (check) or converted to a float (classify)
    f = tmp_path / "huge.sys"
    f.write_text(f"dof: 1\ncoordinates: q p\nhamiltonian: {hamiltonian}\n"
                 "symmetry: T = 1 | 0\n", encoding="utf-8")
    assert main([command, str(f)]) == 2
    err = capsys.readouterr().err
    assert fragment in err and "Traceback" not in err
    assert f"more than {sys.get_int_max_str_digits()} digits" in err \
        or "exceeds the float range" in err


@pytest.mark.parametrize("command", ["check", "classify"])
def test_cli_a_constant_power_beyond_the_bound_exits_2_at_once(tmp_path, capsys, command):
    # 10^(10^9) would take hours to multiply out; its size is known first
    f = tmp_path / "power.sys"
    f.write_text("dof: 1\ncoordinates: q p\nhamiltonian: 10^(10^9)*q^2\n"
                 "symmetry: T = 1 | 0\n", encoding="utf-8")
    start = time.perf_counter()
    assert main([command, str(f)]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"a power of a constant has more than {symexpr.MAX_POWER_BITS} bits" in err


def test_cli_a_power_of_a_sum_beyond_the_packed_field_exits_2_at_once(tmp_path, capsys):
    f = tmp_path / "power.sys"
    f.write_text("dof: 1\ncoordinates: q p\nhamiltonian: (q + 1)^(10^9)\n", encoding="utf-8")
    start = time.perf_counter()
    assert main(["check", str(f)]) == 2
    assert time.perf_counter() - start < 1.0
    assert "a power of a sum has an exponent of 2^15 or more" in capsys.readouterr().err


@pytest.mark.parametrize("run, flags, fragment", [
    (_ONE_DOF_RUN.replace("dt = 0.01", "dt = nan"), [], "bad verify dt 'nan' (line 6)"),
    (_ONE_DOF_RUN.replace("dt = 0.01", "dt = abc"), [], "bad verify dt 'abc' (line 6)"),
    (_ONE_DOF_RUN.replace("x0 = 0.5", "x0 = inf"), [], "bad verify x0 'inf 0.25' (line 4)"),
    (_ONE_DOF_RUN, ["--x0", "a b"], "could not convert string to float: 'a'"),
    (_ONE_DOF_RUN, ["--t-final", "inf"], "inf is not finite"),
    (_ONE_DOF_RUN, ["--dt", "nan"], "nan is not finite"),
], ids=["nan-dt", "text-dt", "infinite-x0", "text-x0-flag", "infinite-t_final-flag",
        "nan-dt-flag"])
def test_cli_verify_run_values_must_be_finite(tmp_path, capsys, run, flags, fragment):
    f = tmp_path / "run.sys"
    f.write_text("dof: 1\ncoordinates: q p\nhamiltonian: p^2/2 + q^2/2\n" + run,
                 encoding="utf-8")
    assert main(["verify", str(f)] + flags) == 2
    assert fragment in capsys.readouterr().err


_OSCILLATOR = "dof: 1\ncoordinates: q p\nhamiltonian: (p^2 + q^2)/2\n"


@pytest.mark.parametrize("lines, args, code, fragment", [
    (_OSCILLATOR, ["verify", "--x0", "1000 0", "--t-final", "0.1", "--dt", "0.01",
                   "--quantity", "sin(1e300*q^3)"], 1, "math domain error"),
    (_OSCILLATOR, ["verify", "--x0", "1 0", "--t-final", "0.1", "--dt", "0.01",
                   "--quantity", "sin(" * 100 + "q" + ")" * 100], 2, "nests deeper than 64"),
    ("dof: 1\ncoordinates: q p\nhamiltonian: p^2/2 + " + "sin(" * 200 + "q" + ")" * 200
     + "\n", ["check"], 2, "nests deeper than 64 levels (at position"),
    (_OSCILLATOR, ["verify", "--x0", "1 0", "--t-final", "1e300", "--dt", "1e-10"],
     2, "t_final / dt = inf must round to a step count from 1 to 1000000"),
    (_OSCILLATOR, ["verify", "--x0", "1 0", "--t-final", "-5", "--dt", "0.01"],
     2, "t_final / dt = -500 must round"),
], ids=["sin-of-inf", "nested-quantity", "nested-hamiltonian", "step-count-overflow",
        "negative-t_final"])
def test_cli_deep_nesting_and_step_counts_exit_cleanly(tmp_path, capsys, lines, args, code,
                                                        fragment):
    f = tmp_path / "osc.sys"
    f.write_text(lines, encoding="utf-8")
    assert main([args[0], str(f)] + args[1:]) == code
    out = capsys.readouterr()
    assert fragment in out.out + out.err
    assert "Traceback" not in out.err


@pytest.mark.parametrize("quantity, message", [
    ("q^400", "[FAIL] user quantity: evaluation error: float overflow in subexpression: q^400"),
    ("sin(1e300*q^3)", "[FAIL] user quantity: evaluation error: math domain error in "
                       "subexpression: sin(1"),
], ids=["power-overflow", "sin-of-inf"])
def test_cli_verify_quantity_overflow_is_a_domain_fault(tmp_path, capsys, recwarn, quantity,
                                                        message):
    # the drift check replays a fault on Python floats: an overflow is the
    # same domain fault as in probing, not an inf with a numpy RuntimeWarning
    f = tmp_path / "osc.sys"
    f.write_text(_OSCILLATOR, encoding="utf-8")
    assert main(["verify", str(f), "--x0", "1000 0", "--t-final", "0.1", "--dt", "0.01",
                 "--quantity", quantity]) == 1
    out = capsys.readouterr()
    assert message in out.out
    assert "RuntimeWarning" not in out.err
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_cli_verify_nan_samples_fail(tmp_path, capsys, recwarn):
    # 1e300*p^2 and 1e300*q^2 both overflow late in the saddle's run, and
    # inf - inf is NaN: a NaN sample makes the drift NaN, which fails
    f = tmp_path / "saddle.sys"
    f.write_text("dof: 1\ncoordinates: q p\nhamiltonian: p^2/2 - q^2/2\n", encoding="utf-8")
    assert main(["verify", str(f), "--x0", "1 0", "--t-final", "12", "--dt", "0.01",
                 "--quantity", "1e300*p^2 - 1e300*q^2"]) == 1
    out = capsys.readouterr()
    assert "[FAIL] user quantity: max |drift| = nan, relative = nan over 1201 samples" in out.out
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("command", ["classify", "verify"])
def test_cli_internal_inconsistency_exits_1(example_dir, capsys, monkeypatch, command):
    def inconsistent(*args, **kwargs):
        raise InternalInconsistencyError("emitted quantity f fails conservation")
    monkeypatch.setattr(cli, "classify", inconsistent)
    args = [command, str(example_dir / "pendulum.sys")]
    if command == "verify":
        args += ["--t-final", "0.01"]
    assert main(args) == 1
    assert capsys.readouterr().err == (
        "internal inconsistency: emitted quantity f fails conservation\n")


def test_cli_parameters_named_like_python_names(tmp_path, capsys):
    # a negative parameter, and parameters named like the compiled code's
    # point argument and the math module, give the same floats as plain names
    dumps = []
    for x, m in (("x", "math"), ("a", "b")):
        f = tmp_path / f"{x}.sys"
        f.write_text(f"dof: 1\ncoordinates: q p\nparameter: {x} = -2.0\n"
                     f"parameter: {m} = 3\nhamiltonian: p^2/2 + {x}^2*q^2/2 + {m}*q\n"
                     + _ONE_DOF_RUN, encoding="utf-8")
        dump = tmp_path / f"{x}.dump"
        assert main(["verify", str(f), "--dump", str(dump)]) == 0
        dumps.append(dump.read_text())
    capsys.readouterr()
    assert dumps[0] == dumps[1]
    # one RK4 step of dq/dt = p, dp/dt = -4 q - 3
    rhs = lambda q, p: (p, -4.0 * q - 3.0)
    q, p, dt = 0.5, 0.25, 0.01
    k1 = rhs(q, p)
    k2 = rhs(q + dt / 2 * k1[0], p + dt / 2 * k1[1])
    k3 = rhs(q + dt / 2 * k2[0], p + dt / 2 * k2[1])
    k4 = rhs(q + dt * k3[0], p + dt * k3[1])
    step = [float(v) for v in dumps[0].splitlines()[2].split()]
    assert step[1:] == pytest.approx(
        [v + dt / 6 * (a + 2 * b + 2 * c + d) for v, a, b, c, d in zip((q, p), k1, k2, k3, k4)],
        rel=1e-14)


def test_cli_classify_text(example_dir, capsys):
    code = main(["classify", str(example_dir / "pendulum.sys")])
    out = capsys.readouterr().out
    assert code == 0
    assert "Y_rot: Noether" in out
    assert "conserved [noether-potential]: p_phi" in out


# A translation of a quartic well: [T, X_h] = -4 q^3 d/dp is nonzero, so a
# probe plan that cannot probe would report a false Noether symmetry.
QUARTIC_TRANSLATION = """dof: 1
coordinates: q p
hamiltonian: p^2/2 + q^4
symmetry: T = 1 | 0
"""


def test_cli_quartic_translation_is_not_a_symmetry(tmp_path, capsys):
    path = tmp_path / "quartic.sys"
    path.write_text(QUARTIC_TRANSLATION, encoding="utf-8")
    assert main(["classify", str(path)]) == 0
    assert "candidate T: NotASymmetry" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["classify", "verify"])
@pytest.mark.parametrize("flags", [
    ["--probes", "0"], ["--probes", "-3"], ["--tol", "nan"], ["--tol", "inf"],
    ["--tol", "-1"], ["--max-order", "-1"],
], ids=" ".join)
def test_cli_rejects_a_degenerate_probe_plan(tmp_path, capsys, command, flags):
    path = tmp_path / "quartic.sys"
    path.write_text(QUARTIC_TRANSLATION + "verify: x0 = 0.5 0\nverify: t_final = 0.1\n"
                    "verify: dt = 0.01\n", encoding="utf-8")
    code = main([command, str(path), *flags])
    captured = capsys.readouterr()
    assert code == 2
    assert "validation error" in captured.err
    assert captured.out == ""


def test_cli_classify_unknown_symmetry(example_dir, capsys):
    code = main(["classify", str(example_dir / "pendulum.sys"),
                 "--symmetry", "nope"])
    assert code == 2
    assert "unknown symmetry" in capsys.readouterr().err


def test_cli_classify_structured_deterministic(example_dir, capsys):
    outputs = []
    for _ in range(2):
        code = main(["classify", str(example_dir / "iso_oscillator.sys"),
                     "--seed", "42", "--format", "structured"])
        assert code == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    doc = json.loads(outputs[0])
    assert doc["seed"] == 42
    assert doc["system"]["name"] == "isotropic-oscillator"
    kinds = {cand["candidate"]: cand["label"]["kind"] for cand in doc["candidates"]}
    assert kinds["Y"] == "OmegaEigenOrderN"
    assert kinds["Xh1"] == "Noether"


@pytest.mark.parametrize("fname", sorted(BUNDLED_EXAMPLES))
def test_cli_classify_structured_matches_golden(example_dir, capsys, fname):
    code = main(["classify", str(example_dir / fname),
                 "--seed", "42", "--format", "structured"])
    assert code == 0
    golden = Path(__file__).parent / "golden" / fname.replace(".sys", ".classify.json")
    assert capsys.readouterr().out == golden.read_text(encoding="utf-8")


# Long towers with fractional coefficients, pinned byte for byte at max-order
# 6: the 3-dof isotropic oscillator with a scaled cyclic field and
# Z3 = -L23 * X_(h1-h2), and the translation Ty of the magnetic plane (the
# scales are those of the classify-deep benchmark workload, seed 1).
DEEP_GOLDEN_SYSTEMS = {
    "iso3_cyclic_z3": """name: isotropic-oscillator-3
dof: 3
coordinates: q1 q2 q3 p1 p2 p3
parameter: Omega = 1.0
symplectic: canonical
hamiltonian: (p1^2 + p2^2 + p3^2 + Omega^2*q1^2 + Omega^2*q2^2 + Omega^2*q3^2)/2
symmetry: C = (-28/41)*(q2) | (-28/41)*(q3) | (-28/41)*(q1) | (-28/41)*(p2) | (-28/41)*(p3) | (-28/41)*(p1)
symmetry: Z3 = (-1)*((q2*p3 - q3*p2)*p1) | (-1)*(-(q2*p3 - q3*p2)*p2) | (-1)*(0) | (-1)*(-(q2*p3 - q3*p2)*q1) | (-1)*((q2*p3 - q3*p2)*q2) | (-1)*(0)
""",
    "magnetic_ty": """name: magnetic-plane
dof: 2
coordinates: x y px py
parameter: B = 0.5
symplectic: explicit
symplectic-term: x px = 1
symplectic-term: y py = 1
symplectic-term: x y = B*(1 + x^2)
hamiltonian: (px^2 + py^2)/2
symmetry: Ty = (95/46)*(0) | (95/46)*(1) | (95/46)*(0) | (95/46)*(0)
""",
}


@pytest.mark.parametrize("key", sorted(DEEP_GOLDEN_SYSTEMS))
def test_cli_classify_deep_structured_matches_golden(tmp_path, capsys, key):
    path = tmp_path / f"{key}.sys"
    path.write_text(DEEP_GOLDEN_SYSTEMS[key], encoding="utf-8")
    code = main(["classify", str(path), "--seed", "42", "--max-order", "6",
                 "--format", "structured"])
    assert code == 0
    golden = Path(__file__).parent / "golden" / f"{key}.deep.classify.json"
    assert capsys.readouterr().out == golden.read_text(encoding="utf-8")


def test_cli_verify_pendulum_pass(example_dir, capsys):
    code = main(["verify", str(example_dir / "pendulum.sys")])
    out = capsys.readouterr().out
    assert code == 0
    assert "[pass]" in out
    assert "FAIL" not in out


def test_cli_verify_all_bundled_systems_pass(example_dir, capsys):
    # every quantity the classifier emits on the bundled systems must stay
    # below the default drift threshold under the documented run
    for fname in ("iso_oscillator.sys", "aniso_oscillator.sys"):
        code = main(["verify", str(example_dir / fname)])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "FAIL" not in out


def test_cli_verify_nonconserved_quantity_fails(example_dir, capsys):
    code = main(["verify", str(example_dir / "iso_oscillator.sys"),
                 "--quantity", "q1"])
    out = capsys.readouterr().out
    assert code == 1
    assert "[FAIL]" in out


def test_cli_verify_unknown_quantity_symbol(example_dir, capsys):
    code = main(["verify", str(example_dir / "iso_oscillator.sys"),
                 "--quantity", "nope"])
    assert code == 2
    assert "quantity" in capsys.readouterr().err


def test_cli_verify_requires_run_parameters(tmp_path, capsys):
    f = tmp_path / "bare.sys"
    f.write_text("dof: 1\ncoordinates: q p\nhamiltonian: p^2/2\n",
                 encoding="utf-8")
    code = main(["verify", str(f)])
    assert code == 2
    assert "run parameters" in capsys.readouterr().err


@pytest.mark.parametrize("args, fragment", [
    (["--quantity", "p_theta+"], "bad --quantity expression"),
    (["--dump", "{dir}"], "Is a directory"),
    *[(["--drift-tol", tol], f"--drift-tol must be finite and positive, got {tol}")
      for tol in ("nan", "inf", "-1.0", "0.0")],
], ids=["bad-quantity", "dump-to-directory", "nan-drift-tol", "infinite-drift-tol",
        "negative-drift-tol", "zero-drift-tol"])
def test_cli_verify_checks_its_inputs_before_integrating(example_dir, capsys, monkeypatch,
                                                         args, fragment):
    def no_run(*a, **k):
        raise AssertionError("integrate called before the inputs were checked")

    monkeypatch.setattr(cli, "integrate", no_run)
    argv = ["verify", str(example_dir / "pendulum.sys"), "--t-final", "200"]
    assert main(argv + [a.format(dir=example_dir) for a in args]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and fragment in err


def test_cli_verify_truncated_run_leaves_an_empty_dump(tmp_path, capsys):
    f = tmp_path / "blowup.sys"
    f.write_text("dof: 1\ncoordinates: q p\nhamiltonian: p^2/2 - q^4\n", encoding="utf-8")
    dump = tmp_path / "traj.txt"
    assert main(["verify", str(f), "--x0", "1 1", "--t-final", "20", "--dt", "0.01",
                 "--quantity", "p", "--dump", str(dump)]) == 1
    assert "trajectory truncated" in capsys.readouterr().err
    assert dump.read_text() == ""


def test_cli_verify_dump(example_dir, tmp_path, capsys):
    dump = tmp_path / "traj.txt"
    code = main(["verify", str(example_dir / "iso_oscillator.sys"),
                 "--quantity", "p1*p2 + Omega^2*q1*q2",
                 "--t-final", "1.0", "--dump", str(dump)])
    capsys.readouterr()
    assert code == 0
    lines = dump.read_text().splitlines()
    assert lines[0].startswith("# t ")
    assert len(lines) == 1002


# Run in a fresh interpreter, since pytest's own process has numpy loaded.
# Prints whether numpy is loaded after the import and after each command.
_NUMPY_PROBE = """\
import contextlib, io, os, sys
from hamsym import cli
print("import", "numpy" in sys.modules)
for command, path in zip(sys.argv[1::2], sys.argv[2::2]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([command, path])
    print(command, os.path.basename(path), code, "numpy" in sys.modules)
"""


def _numpy_after(*commands):
    """commands: (command, path) pairs, run in order in one interpreter."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    args = [str(word) for pair in commands for word in pair]
    done = subprocess.run([sys.executable, "-c", _NUMPY_PROBE, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_numpy_loads_only_where_arrays_are_built(example_dir):
    # check and classify load no numpy, not even where a candidate reaches
    # the dependence solve (iso does) or, outside the exact class, the
    # elimination (sqrt(2) in S); verify loads it at its first integration
    root = example_dir / "sqrt2_iso.sys"
    root.write_text(BUNDLED_EXAMPLES["iso_oscillator.sys"] + "symmetry: S = sqrt(2)*q2 | "
                    "sqrt(2)*q1 | sqrt(2)*p2 | sqrt(2)*p1\n", encoding="utf-8")
    files = [example_dir / f"{name}.sys"
             for name in ("pendulum", "aniso_oscillator", "iso_oscillator")] + [root]
    assert _numpy_after(*((command, f) for command in ("check", "classify")
                          for f in files)) == [
        "import False",
        "check pendulum.sys 0 False",
        "check aniso_oscillator.sys 0 False",
        "check iso_oscillator.sys 0 False",
        "check sqrt2_iso.sys 0 False",
        "classify pendulum.sys 0 False",
        "classify aniso_oscillator.sys 0 False",
        "classify iso_oscillator.sys 0 False",
        "classify sqrt2_iso.sys 0 False",
    ]
    assert _numpy_after(("verify", files[0])) == [
        "import False", "verify pendulum.sys 0 True"]


def test_import_loads_neither_dataclasses_nor_inspect():
    # a cold start pays for every module it imports, and dataclasses would
    # bring inspect, ast, dis and tokenize; fresh interpreter, as above
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    probe = ("import sys\n"
             "from hamsym import classifier, cli, hamiltonian, systemio, verify\n"
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_cli_examples_idempotent(example_dir):
    before = sorted(os.listdir(example_dir))
    assert main(["examples", "--install", str(example_dir)]) == 0
    assert sorted(os.listdir(example_dir)) == before


def test_cli_examples_readonly_dir(tmp_path, capsys):
    target = tmp_path / "ro"
    target.mkdir()
    os.chmod(target, stat.S_IRUSR | stat.S_IXUSR)
    try:
        if hasattr(os, "geteuid") and os.geteuid() == 0:
            pytest.skip("root ignores directory modes")
        code = main(["examples", "--install", str(target)])
        assert code == 2
        assert "cannot install" in capsys.readouterr().err
    finally:
        os.chmod(target, stat.S_IRWXU)


def test_cli_missing_file(capsys):
    assert main(["check", "/nonexistent/x.sys"]) == 2


@pytest.mark.parametrize("args, fragment", [
    (["classify", "{dir}"], "Is a directory"),
    (["check", "{latin1}"], "'utf-8' codec can't decode byte 0xe9"),
    (["verify", "{ok}", "--t-final", "0.01", "--dump", "{dir}"], "Is a directory"),
    (["verify", "{ok}", "--t-final", "0.01", "--dump", "{dir}/no/such.txt"],
     "No such file or directory"),
], ids=["directory", "not-utf8", "dump-to-directory", "dump-to-missing-directory"])
def test_cli_unreadable_input_exits_2(example_dir, capsys, args, fragment):
    latin1 = example_dir / "latin1.sys"
    latin1.write_bytes("dof: 1\ncoordinates: q p\nhamiltonian: p^2/2  # \xe9\n"
                       .encode("latin-1"))
    paths = {"dir": example_dir, "latin1": latin1, "ok": example_dir / "pendulum.sys"}
    assert main([a.format(**paths) for a in args]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and fragment in err


def test_cli_closed_stdout_ends_quietly(tmp_path):
    # the document is larger than a pipe holds, so the writer meets the
    # pipe closed after the first line whatever the timing
    f = tmp_path / "many.sys"
    f.write_text("dof: 1\ncoordinates: q p\nhamiltonian: p^2/2\n"
                 + "".join(f"symmetry: T{i} = {i} | 0\n" for i in range(1, 101)),
                 encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.Popen([sys.executable, "-m", "hamsym.cli", "classify", str(f),
                             "--format", "structured"], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=120) == cli.EXIT_BROKEN_PIPE
    finally:
        proc.kill()
    assert "Traceback" not in err and "BrokenPipeError" not in err
