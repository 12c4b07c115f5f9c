import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

import pdextremal
import pdextremal.cli as cli
from pdextremal._scipy import extension
from pdextremal.extremal import ConditionViolated, NotAStrictTiling


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def test_constant_tile_value(capsys):
    code, out = run(capsys, [
        "constant",
        "--group", '{"orders":[6],"normalization":"probability"}',
        "--omega-plus", "[5,0,1]",
        "--omega-minus", "empty",
        "--kind", "two-set",
    ])
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["value"] == pytest.approx(1 / 3, abs=1e-8)
    assert payload["artifact_version"]
    assert "tolerances" in payload and "seed" in payload


def test_tolerances_are_the_constants_in_force():
    from pdextremal import extremal, lp, posdef, radial

    assert cli.TOLERANCES == {"value": extremal.VALUE_TOL, "posdef": posdef.DEFAULT_TOL,
                              "lp_pivot": lp.CERTIFICATE_TOL, "quadrature": radial.QUAD_TOL}


def test_interval_shorthand(capsys):
    code, out = run(capsys, [
        "constant",
        "--group", '{"orders":[12],"normalization":"probability"}',
        "--omega-plus", "[-3,3]",
        "--kind", "turan",
    ])
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["omega_plus"] == [0, 1, 2, 3, 9, 10, 11]
    assert payload["result"]["value"] == pytest.approx(1 / 3, abs=1e-8)


def test_residue_pair_is_not_an_interval(capsys):
    code, out = run(capsys, [
        "constant",
        "--group", '{"orders":[12],"normalization":"probability"}',
        "--omega-plus", "[0,3]",
        "--kind", "turan",
    ])
    assert code == 0
    payload = json.loads(out)
    # read as the residue pair {0, 3}, then symmetrized by intersection; the
    # interval reading would have produced {0, 1, 2, 3, 9, 10, 11}
    assert payload["result"]["omega_plus"] == [0]
    assert payload["warnings"]


def test_symmetrization_warning(capsys):
    code, out = run(capsys, [
        "constant",
        "--group", '{"orders":[6],"normalization":"probability"}',
        "--omega-plus", "[0,1]",
        "--kind", "delsarte",
    ])
    assert code == 0
    payload = json.loads(out)
    assert payload["warnings"]


def test_malformed_json_exits_one(capsys):
    code = cli.main([
        "constant",
        "--group", '{"orders":[6],', "--omega-plus", "[0]",
    ])
    err = capsys.readouterr().err
    assert code == 1
    assert "line" in err and "column" in err


def test_verify_exit_codes(capsys, monkeypatch):
    code, out = run(capsys, ["verify", "tile", "--fuzz", "5", "--seed", "9"])
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["pass"] is True
    assert payload["seed"] == 9

    monkeypatch.setitem(cli.SUITES, "tile",
                        lambda count, seed, max_n=None: {"pass": False, "failures": count})
    code, _ = run(capsys, ["verify", "tile", "--fuzz", "5", "--seed", "9"])
    assert code == 2


@pytest.mark.parametrize("error", [NotAStrictTiling, ConditionViolated])
def test_verify_precondition_failure_exits_two(capsys, monkeypatch, error):
    # the library verifiers raise these when a theorem's hypothesis fails
    def suite(count, seed, max_n=None):
        raise error("the hypothesis does not hold")

    monkeypatch.setitem(cli.SUITES, "tile", suite)
    code = cli.main(["verify", "tile", "--fuzz", "1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "verification precondition failed: the hypothesis does not hold\n"


def test_verify_deterministic_bytes(capsys):
    argv = ["verify", "main", "--fuzz", "12", "--seed", "7", "--max-n", "30"]
    code1, out1 = run(capsys, argv)
    code2, out2 = run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_radial_csv(capsys):
    code, out = run(capsys, ["radial", "yudin", "--d", "1", "--t-max", "5",
                             "--step", "0.5", "--csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,Y"
    assert len(lines) == 12
    first = lines[1].split(",")
    assert float(first[0]) == 0.0 and float(first[1]) == 1.0


def test_radial_hankel_json(capsys):
    code, out = run(capsys, ["radial", "hankel", "--d", "1", "--s-max", "1",
                             "--step", "0.5"])
    assert code == 0
    payload = json.loads(out)
    assert len(payload["result"]["table"]) == 3


def test_trinomial_optimize(capsys):
    code, out = run(capsys, ["trinomial", "optimize"])
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["value"] == pytest.approx(2.2361, abs=5e-4)
    assert payload["result"]["z"] == pytest.approx(0.628, abs=5e-3)


def test_density_search_and_shadow(capsys):
    code, out = run(capsys, ["density", "search", "--forbidden", "[1,4]",
                             "--max-period", "10"])
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["density"]["numerator"] == 2
    assert payload["result"]["density"]["denominator"] == 5
    assert payload["result"]["witness"] == {"period": 5, "residues": [0, 2]}

    code, out = run(capsys, ["density", "shadow", "--intervals",
                             "[[-5,-3],[-2,2],[3,5]]"])
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["forbidden"] == [1, 4]

    code, out = run(capsys, ["density", "auud", "--period", "5",
                             "--residues", "[0,2]"])
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["density"]["value"] == pytest.approx(0.4)


def assert_usage_error(capsys, argv, message):
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err, captured.err


@pytest.mark.parametrize("argv", [
    ["density", "auud", "--residues", "5"],
    ["density", "auud", "--residues", "null"],
    ["density", "auud", "--residues", "[1.5, true]"],
    ["density", "search", "--forbidden", "5"],
    ["density", "search", "--forbidden", "[[1]]"],
    ["density", "search", "--forbidden", "[1.5]"],
    ["density", "shadow", "--intervals", "5"],
    ["density", "shadow", "--intervals", "[5]"],
    ["density", "shadow", "--intervals", "[[0, Infinity]]"],
    ["density", "shadow", "--intervals", "[[true, 3]]"],
    ["density", "shadow", "--intervals", "[[0, 1e300]]"],
    ["density", "auud", "--period", "0"],
    ["density", "search", "--forbidden", "[0]"],
    ["density", "search", "--max-period", "25"],
])
def test_density_rejects_bad_inputs(capsys, argv):
    assert_usage_error(capsys, argv, argv[2])


@pytest.mark.parametrize("orders", ["5", "[]", "[2.5]", "[true, 3]", '["6"]', "null"])
def test_group_orders_must_be_integers(capsys, orders):
    assert_usage_error(capsys, ["constant", "--group", '{"orders": %s}' % orders,
                                "--omega-plus", "[0]"], "'orders'")


@pytest.mark.parametrize("orders, size", [
    ("[100000000]", "100000000"),
    ("[1000000000000000000000000000000]", "1000000000000000000000000000000"),
    ("[4294967296, 4294967296]", "18446744073709551616"),  # wraps to 0 in int64
])
def test_group_size_is_limited(capsys, orders, size):
    assert_usage_error(capsys, ["constant", "--group", '{"orders": %s}' % orders,
                                "--omega-plus", "[0]"],
                       f"--group: 'orders' {json.loads(orders)} give a group of {size} elements")


@pytest.mark.parametrize("normalization, message", [
    ("1e-11", "--group: weight 1e-11 gives a total mass of 6e-11; it must lie in [0.01, 1e+12]"),
    ('{"weight": 1e300}', "--group: weight 1e+300 gives a total mass of 6e+300"),
    ("Infinity", "--group: weight must be positive and finite, got inf"),
    ("1" + "0" * 400, "--group: weight must be positive and finite, got inf"),
], ids=["tiny", "huge", "infinity", "int-beyond-float"])
def test_group_weight_is_limited(capsys, normalization, message):
    assert_usage_error(capsys, ["constant", "--group",
                                '{"orders": [6], "normalization": %s}' % normalization,
                                "--omega-plus", "[-1,1]", "--kind", "delsarte"], message)


def test_probability_group_of_order_zero_is_rejected(capsys):
    assert_usage_error(capsys, ["constant", "--group",
                                '{"orders": [0], "normalization": "probability"}',
                                "--omega-plus", "[0]"], "--group: all cyclic orders must be >= 1")


@pytest.mark.parametrize("orders, flag, text, message", [
    ("[4, 6]", "--omega-plus", "[[0,0],[1.7,0]]", "element [1.7, 0] is not a list of 2 integers"),
    ("[4, 6]", "--omega-plus", "[[true,false]]", "element [true, false] is not a list of 2"),
    ("[4, 6]", "--omega-plus", "[[1e400,0]]", "element [Infinity, 0] is not a list of 2"),
    ("[6]", "--omega-minus", "[null]", "element null is not an integer or a list of 1"),
    ("[6]", "--omega-plus", "[0,1.5]", "element 1.5 is not an integer or a list of 1"),
    ("[4, 6]", "--omega-plus", "[0]", "element 0 is not a list of 2 integers"),
])
def test_set_elements_must_be_integers(capsys, orders, flag, text, message):
    argv = ["constant", "--group", '{"orders": %s}' % orders, "--omega-plus", "[0]",
            "--omega-minus", "[0]"]
    argv[argv.index(flag) + 1] = text
    assert_usage_error(capsys, argv, f"{flag}: {message}")


def test_set_elements_are_read_modulo_the_orders(capsys):
    # integers beyond int64 and intervals longer than the group stay exact
    code, out = run(capsys, ["constant", "--group", '{"orders": [4, 6]}', "--kind", "delsarte",
                             "--omega-plus", "[[0,0],[100000000000000000000001,0],[-1,0]]"])
    assert code == 0
    assert json.loads(out)["result"]["omega_plus"] == [[0, 0], [1, 0], [3, 0]]
    code, out = run(capsys, ["constant", "--group", '{"orders": [6]}', "--kind", "delsarte",
                             "--omega-plus", "[-1,100000000000000]"])
    assert code == 0
    assert json.loads(out)["result"]["omega_plus"] == list(range(6))


@pytest.mark.parametrize("argv, message", [
    (["constant", "--group", '{"orders":[6]}', "--omega-plus", "[0,1,5]", "--kind", "turan",
      "--omega-minus", "garbage"], "--omega-minus applies only to --kind two-set"),
    (["constant", "--group", '{"orders":[6]}', "--omega-plus", "[0,1,5]", "--kind", "delsarte",
      "--omega-minus", "all"], "--omega-minus applies only to --kind two-set"),
])
def test_flag_outside_its_command_is_rejected(capsys, argv, message):
    assert_usage_error(capsys, argv, message)


_FOREIGN_FLAGS = [
    (["radial", "yudin"], ["--s-max", "3"]),
    (["radial", "yudin"], ["--quad-t-max", "60"]),
    (["radial", "hankel"], ["--t-max", "30"]),
    (["radial", "hankel"], ["--quad-t-max", "60"]),
    (["radial", "gorbachev-h"], ["--s-max", "3"]),
    (["radial", "gorbachev-h"], ["--quad-t-max", "60"]),
    (["radial", "ball-transform"], ["--s-max", "3"]),
    (["radial", "ball-transform"], ["--quad-t-max", "60"]),
    (["density", "search"], ["--period", "5"]),
    (["density", "search"], ["--residues", "[0]"]),
    (["density", "search"], ["--intervals", "[[1]]"]),
    (["density", "search"], ["--closed"]),
    (["density", "auud"], ["--forbidden", "[1]"]),
    (["density", "auud"], ["--max-period", "10"]),
    (["density", "auud"], ["--intervals", "[[1]]"]),
    (["density", "auud"], ["--closed"]),
    (["density", "shadow"], ["--forbidden", "[1]"]),
    (["density", "shadow"], ["--max-period", "10"]),
    (["density", "shadow"], ["--period", "5"]),
    (["density", "shadow"], ["--residues", "[0]"]),
    (["trinomial", "optimize"], ["--csv"]),
    # flags are spelled in full: an abbreviation of the action's own flag is foreign too
    (["density", "search"], ["--forb", "[1,4]", "--max-p", "10"]),
    (["radial", "yudin"], ["--s", "0.5", "--t-max", "1"]),
    (["verify", "tile", "--fuzz", "1"], ["--max", "5"]),
    (["constant", "--group", '{"orders":[6]}', "--omega-plus", "[0]"], ["--omega-m", "all"]),
]


@pytest.mark.parametrize("action, flag", _FOREIGN_FLAGS,
                         ids=[" ".join(action + flag[:1]) for action, flag in _FOREIGN_FLAGS])
def test_foreign_flag_is_rejected(capsys, action, flag):
    code = cli.main(action + flag)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert f"unrecognized arguments: {flag[0]}" in captured.err, captured.err


# the flags each action word accepts, besides --help
_LEAF_FLAGS = {
    ("radial", "yudin"): {"--d", "--t-max", "--step", "--csv"},
    ("radial", "hankel"): {"--d", "--s-max", "--step", "--csv"},
    ("radial", "gorbachev-h"): {"--d", "--t-max", "--step", "--csv"},
    ("radial", "ball-transform"): {"--d", "--t-max", "--step", "--csv"},
    ("trinomial", "optimize"): set(),
    ("trinomial", "example51"): {"--csv"},
    ("density", "search"): {"--forbidden", "--max-period"},
    ("density", "auud"): {"--period", "--residues"},
    ("density", "shadow"): {"--intervals", "--closed"},
}


def _leaves(parser, path=()):
    words = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not words:
        yield path, parser
    for action in words:
        for word, child in action.choices.items():
            yield from _leaves(child, path + (word,))


def test_each_action_declares_only_its_own_flags():
    parser = cli.build_parser()
    assert cli.build_parser() is parser
    flags = {path: {s for a in leaf._actions for s in a.option_strings} - {"-h", "--help"}
             for path, leaf in _leaves(parser) if len(path) == 2}
    assert flags == _LEAF_FLAGS
    assert not any(leaf.allow_abbrev for _, leaf in _leaves(parser))  # flags spelled in full


def _fresh_process(argv):
    src = os.path.dirname(os.path.dirname(pdextremal.__file__))
    done = subprocess.run([sys.executable, "-m", "pdextremal.cli", *argv], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src))
    return done.returncode, done.stdout


@pytest.mark.parametrize("argv, switch", [
    (["radial", "yudin", "--d", "2", "--t-max", "2", "--step", "0.5"], "--csv"),
    (["density", "shadow", "--intervals", "[[-2,2],[3,4]]"], "--closed"),
])
def test_reused_parser_carries_no_value_over(capsys, argv, switch):
    first = run(capsys, argv + [switch])
    assert first[0] == 0
    assert run(capsys, argv) == _fresh_process(argv) != first


def test_omega_minus_defaults_to_all(capsys):
    argv = ["constant", "--group", '{"orders":[6]}', "--omega-plus", "[0,1,5]"]
    assert run(capsys, argv) == run(capsys, argv + ["--omega-minus", "all"])


def test_usage_error_exits_one(capsys):
    assert cli.main(["constant", "--group", "{}", "--omega-plus", "[0]"]) == 1
    assert cli.main(["no-such-command"]) == 1


def test_numerical_failure_exits_three(capsys, monkeypatch):
    import pdextremal.radial as radial
    from pdextremal.radial import QuadratureError

    def boom(*args, **kwargs):
        raise QuadratureError("refinement disagreement")

    monkeypatch.setattr(radial, "yudin_hat_grid", boom)
    assert cli.main(["radial", "hankel", "--d", "1", "--s-max", "1", "--step", "0.5"]) == 3


@pytest.mark.parametrize("s_max", ["1e100", "1e160", "1e300"])
def test_overflow_exits_three_without_traceback(capsys, s_max):
    # the tail model's t**rho overflows a float at these grid points
    code = cli.main(["radial", "hankel", "--d", "2", "--s-max", s_max, "--step", s_max])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.startswith("numerical failure: ") and "out of range" in captured.err


def test_verify_honours_smallest_max_n(capsys):
    code, out = run(capsys, ["verify", "tile", "--fuzz", "5", "--max-n", "2"])
    assert code == 0
    result = json.loads(out)["result"]
    assert result["max_n"] == 2
    assert all(inst["n"] == 2 for inst in result["instances"])


def test_verify_ineq_witness_search_is_bounded(capsys):
    # groups of 91-357 elements, whose exact witness searches ran for minutes
    code, out = run(capsys, ["verify", "ineq", "--fuzz", "5", "--seed", "1", "--max-n", "400"])
    assert code == 0 and json.loads(out)["result"]["pass"]


@pytest.mark.parametrize("argv", [
    ["verify", "hom", "--max-n", "3"],  # no composite order to draw from
    ["verify", "tile", "--max-n", "0"],
    ["verify", "main", "--max-n", "2"],
    ["verify", "ineq", "--fuzz", "-5"],
    ["verify", "main", "--max-n", "100000000000000000000"],
    ["verify", "hom", "--max-n", "3000000000"],
])
def test_verify_rejects_bad_sizes(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 1  # a usage error, not a verification failure
    assert captured.out == ""
    assert captured.err.startswith("error: ")


# each suite's smallest --max-n: the size of its smallest group
_SMALLEST_MAX_N = {"tile": 2, "main": 4, "hom": 4, "product": 2, "auto": 3, "density": 2,
                   "ineq": 2}


@pytest.mark.parametrize("argv, message", [
    (["verify", "hom", "--max-n", "2049"], "(--max-n) must be at most 2048"),
    (["verify", "product", "--max-n", "46"], "(--max-n) must be at most 45"),
    *((["verify", suite, "--max-n", str(n - 1)], f"max_n (--max-n) must be at least {n} ")
      for suite, n in _SMALLEST_MAX_N.items()),
])
def test_verify_limits_group_size(capsys, argv, message):
    assert_usage_error(capsys, argv, message)


@pytest.mark.parametrize("table", ["yudin", "hankel", "gorbachev-h", "ball-transform"])
@pytest.mark.parametrize("step", ["0", "-0.5", "inf"])
def test_radial_rejects_nonpositive_step(capsys, table, step):
    code = cli.main(["radial", table, "--step", step])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: --step must be positive")


@pytest.mark.parametrize("argv, message", [
    (["radial", "yudin", "--t-max", "nan"], "--t-max must be finite and at least 0.0, got nan"),
    (["radial", "ball-transform", "--t-max", "nan"], "--t-max must be finite and at least 0.0, got nan"),
    (["radial", "gorbachev-h", "--d", "-1"], "dimension must be a positive integer"),
    (["radial", "gorbachev-h", "--d", "0"], "dimension must be a positive integer"),
    (["radial", "hankel", "--d", "0"], "dimension must be a positive integer"),
    (["radial", "gorbachev-h", "--d", "2", "--t-max", "1"], "first zero"),
    (["radial", "gorbachev-h", "--d", "-3"], "--d: dimension"),
    (["radial", "yudin", "--t-max", "-1"], "--t-max must be finite and at least 0.0"),
    (["radial", "hankel", "--s-max", "-1"], "--s-max must be finite and at least 0.0"),
    (["radial", "yudin", "--t-max", "inf"], "--t-max must be finite"),
    (["radial", "ball-transform", "--t-max", "inf"], "--t-max must be finite"),
    (["radial", "gorbachev-h", "--t-max", "inf"], "--t-max must be finite"),
    (["radial", "hankel", "--s-max", "inf"], "--s-max must be finite"),
    (["radial", "hankel", "--s-max", "nan"], "--s-max must be finite"),
    (["radial", "yudin", "--t-max", "1e300"], "--t-max = 1e+300 with --step = 0.05 gives more"),
    (["radial", "hankel", "--step", "1e-300"], "--s-max = 3.0 with --step = 1e-300 gives more"),
    (["radial", "gorbachev-h", "--d", "2", "--t-max", "nan"], "first zero q_{d/2} = 3.8317"),
    (["radial", "gorbachev-h", "--step", "1e-300"], "--t-max = 30.0 with --step = 1e-300 gives more"),
    (["radial", "ball-transform", "--d", "65"], "--d: dimension must be at most 64"),
    (["radial", "hankel", "--d", "65"], "--d: dimension must be at most 64"),
    (["radial", "yudin", "--d", "100"], "--d: dimension must be at most 64"),
])
def test_radial_rejects_bad_inputs(capsys, argv, message):
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err


def _count_calls(monkeypatch, module, name):
    calls = []
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_gorbachev_h_report_reuses_the_table_grid(capsys, monkeypatch):
    import pdextremal.radial as radial

    calls = _count_calls(monkeypatch, radial, "gorbachev_H_grid")
    code, out = run(capsys, ["radial", "gorbachev-h", "--d", "2", "--t-max", "10"])
    assert code == 0
    assert len(calls) == 1
    result = json.loads(out)["result"]
    assert result["report"] == radial.gorbachev_H_report(2, [t for t, _ in result["table"]])


def test_yudin_report_reuses_the_table_values(capsys, monkeypatch):
    import pdextremal.radial as radial

    calls = _count_calls(monkeypatch, radial, "yudin_Y")
    code, out = run(capsys, ["radial", "yudin", "--d", "3", "--t-max", "10"])
    assert code == 0
    assert len(calls) == 1
    result = json.loads(out)["result"]
    assert result["report"] == radial.yudin_sign_check(3, [t for t, _ in result["table"]])


def test_example51_computes_its_bound_once(capsys, monkeypatch):
    import pdextremal.trinomial as trinomial

    calls = _count_calls(monkeypatch, trinomial, "example51_lower_bound")
    code, out = run(capsys, ["trinomial", "example51"])
    assert code == 0
    assert len(calls) == 1
    result = json.loads(out)["result"]
    assert result["comparison"]["q_lower_bound"] == result["bound"]


def test_closed_stdout_exits_one_without_traceback():
    src = os.path.dirname(os.path.dirname(pdextremal.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    # ~300,000 CSV lines: far more than the pipe holds, so writing blocks
    # until the reader closes its end
    proc = subprocess.Popen([sys.executable, "-m", "pdextremal.cli", "radial", "yudin",
                             "--d", "3", "--csv", "--step", "0.0001"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"t,Y\n"
    proc.stdout.close()
    with proc.stderr:
        stderr = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 1
    assert "Traceback" not in stderr and "Exception ignored" not in stderr


def test_closed_stdout_during_json_exits_one_silently():
    src = os.path.dirname(os.path.dirname(pdextremal.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    # ~20,000 table rows printed as one JSON text, far more than the pipe holds
    proc = subprocess.Popen([sys.executable, "-m", "pdextremal.cli", "radial", "yudin",
                             "--t-max", "200", "--step", "0.01"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.read(16) == b'{\n  "artifact_ve'
    proc.stdout.close()
    with proc.stderr:
        stderr = proc.stderr.read()
    assert proc.wait(timeout=60) == 1
    assert stderr == b""


def test_gorbachev_h_single_point_table(capsys):
    # q_1 = 3.83..., so the table holds t = q only
    code, out = run(capsys, ["radial", "gorbachev-h", "--d", "2", "--t-max", "4",
                             "--step", "0.5"])
    assert code == 0
    result = json.loads(out)["result"]
    assert len(result["table"]) == 1
    assert result["report"]["nondecreasing"] and not result["report"]["pass"]


_EMIT_BYTES = """{
  "artifact_version": "0.1.0",
  "command": "probe",
  "result": {
    "f64": 0.1,
    "flag": true,
    "grid": [
      [
        1.5,
        -0.0
      ],
      [
        NaN,
        2.0
      ]
    ],
    "i64": -7,
    "nan": NaN,
    "neg_zero": -0.0,
    "pairs": [
      [
        1.0,
        [
          2,
          3
        ]
      ],
      []
    ],
    "periodic": {
      "period": 5,
      "residues": [
        0,
        2
      ]
    },
    "ratio": {
      "denominator": 3,
      "numerator": 1,
      "value": 0.3333333333333333
    },
    "trinomial": {
      "a": -0.5,
      "b": 0.25
    }
  },
  "seed": 3,
  "tolerances": {
    "lp_pivot": 1e-09,
    "posdef": 1e-09,
    "quadrature": 1e-09,
    "value": 1e-08
  },
  "warnings": [
    "w"
  ]
}
"""


def test_emit_bytes_by_type(capsys):
    from fractions import Fraction
    from types import SimpleNamespace

    import numpy as np

    from pdextremal.density import PeriodicSet
    from pdextremal.trinomial import Trinomial

    result = {
        "f64": np.float64(0.1), "i64": np.int64(-7), "flag": np.bool_(True),
        "grid": np.array([[1.5, -0.0], [float("nan"), 2.0]]),
        "pairs": ((np.float64(1.0), (2, np.int64(3))), ()),
        "ratio": Fraction(1, 3), "periodic": PeriodicSet(5, frozenset({7, 0})),
        "trinomial": Trinomial(np.float64(-0.5), 0.25),
        "nan": float("nan"), "neg_zero": -0.0,
    }
    cli._emit("probe", result, seed=3, warnings=["w"])
    assert capsys.readouterr().out == _EMIT_BYTES
    with pytest.raises(TypeError):
        cli._emit("probe", {"other": SimpleNamespace(a=1, b=2)})


def _emit_oracle(command, result, seed=None, warnings=None):
    """What _emit printed before arrays went through json's C encoder."""
    payload = {"artifact_version": pdextremal.__version__, "command": command, "seed": seed,
               "tolerances": cli.TOLERANCES, "result": result, "warnings": warnings or []}
    return json.dumps(payload, sort_keys=True, indent=2, default=cli._to_json) + "\n"


_ODD = [float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 1.7976931348623157e308,
        1e-05, 1e22, 0.1]


@pytest.mark.parametrize("result", [
    {"table": np.column_stack([np.linspace(0.0, 3.0, 9), _ODD]), "report": {"pass": True}},
    {"floats": np.array(_ODD), "ints": np.arange(-3, 4), "bools": np.array([True, False])},
    {"rows": np.arange(6, dtype=np.uint8).reshape(3, 2),
     "wide": np.array([[2**64 - 1]], dtype=np.uint64),
     "flags": np.array([[True], [False]]), "single": np.float32([0.1, 3.0])},
    {"cube": np.arange(8.0).reshape(2, 2, 1, 2), "one": np.array([7])},
    {"empty": np.empty(0), "no_columns": np.empty((3, 0)), "no_rows": np.empty((0, 2)),
     "zero_d": np.array(2.5), "scalar": np.float64(1.0), "x": np.arange(2.0)},
    {"nested": {"a": np.arange(3.0), "b": [np.ones((1, 2))]}, "x": np.arange(2.0)},
    np.arange(3.0),
    [np.arange(2.0), "text"],
    # strings that hold NUL, some with the text of an array's placeholder
    {"s": "a\0b", "t": "\0", "u": "\x000", "a": np.arange(2.0)},
    {"a": np.arange(2.0), "b": np.ones((2, 2)), "c": "\x001"},
    {"a": np.arange(2.0), "b": np.ones((2, 2)), "c": ["\x000", "\"\x001"]},
])
def test_emit_prints_the_bytes_of_json_dumps(capsys, result):
    # arrays at the top of a dict result go through json's C encoder; the
    # bytes are those of the indented json.dumps of the whole payload
    cli._emit("probe", result, seed=3, warnings=["w"])
    assert capsys.readouterr().out == _emit_oracle("probe", result, 3, ["w"])


def test_radial_table_prints_the_bytes_of_its_pairs(capsys):
    # the table was printed from list(zip(xs, ys)), one (t, Y) pair a row
    from pdextremal.radial import yudin_Y, yudin_sign_check

    argv = ["radial", "yudin", "--d", "7", "--t-max", "30", "--step", "0.37"]
    assert cli.main(argv) == 0
    ts = np.arange(0.0, 30.0 + 0.37 / 2, 0.37)
    ys = yudin_Y(7, ts)
    result = {"table": list(zip(ts, ys)), "report": yudin_sign_check(7, ts, ys)}
    assert capsys.readouterr().out == _emit_oracle("radial yudin", result)


@pytest.mark.parametrize("argv, message", [
    (["verify", "main", "--fuzz", "100000000000000000000"],
     "instance count (--fuzz) must be from 0 to 100000, got 100000000000000000000"),
    (["verify", "ineq", "--fuzz", "-5"], "instance count (--fuzz) must be from 0 to 100000, got -5"),
])
def test_verify_limits_instance_count(capsys, argv, message):
    assert_usage_error(capsys, argv, message)


@pytest.mark.parametrize("seed", [-1, 2**64, -2**64])
def test_verify_rejects_a_seed_outside_64_bits(capsys, seed):
    # SplitMix64 reads its seed modulo 2^64, so these would replay another seed
    assert_usage_error(capsys, ["verify", "tile", "--fuzz", "2", "--seed", str(seed)],
                       f"seed (--seed) must be from 0 to {2**64 - 1}, got {seed}")


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_verify_accepts_each_64_bit_seed(capsys, seed):
    code, out = run(capsys, ["verify", "tile", "--fuzz", "2", "--seed", str(seed)])
    assert code == 0 and json.loads(out)["seed"] == seed


_IMPORT_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
HEAVY = ("scipy", "scipy.optimize", "scipy.special", "scipy.linalg", "scipy.sparse",
         "pdextremal.radial", "pdextremal.trinomial", "hashlib")
import pdextremal
after_package = {"numpy": "numpy" in sys.modules,
                 "submodules": sorted(m for m in sys.modules if m.startswith("pdextremal.")),
                 "names": sorted(n for n in vars(pdextremal) if not n.startswith("__")),
                 "version": pdextremal.__version__}
import pdextremal.cli
after_cli = [m for m in HEAVY if m in sys.modules]
import pdextremal.radial, pdextremal.trinomial
after_heavy = [m for m in HEAVY if m in sys.modules]
print(json.dumps({"after_package": after_package, "after_cli": after_cli,
                  "after_heavy": after_heavy}))
"""


def test_cli_import_loads_no_scipy_optimize():
    # a fresh interpreter, so nothing an earlier test imported counts
    src = os.path.dirname(os.path.dirname(pdextremal.__file__))
    done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, src],
                          capture_output=True, text=True, check=True)
    report = json.loads(done.stdout)
    # the bare package is its version string: no numpy, no module of its own
    assert report["after_package"] == {"numpy": False, "submodules": [], "names": [],
                                       "version": pdextremal.__version__}
    assert report["after_cli"] == []
    # radial and trinomial load their compiled scipy modules alone, and no
    # module runs scipy's own __init__.py
    assert report["after_heavy"] == ["pdextremal.radial", "pdextremal.trinomial"]

    folder = os.path.join(os.path.dirname(scipy.__file__), "optimize")
    with pytest.raises(ImportError, match="_no_such_module") as info:
        extension("scipy.optimize._no_such_module")
    assert folder in str(info.value)


def test_readme_layout_lists_every_public_module():
    # the package exports only __version__, so README's Layout table is the
    # index of its API: one row for each module whose name has no leading _
    root = Path(__file__).resolve().parents[1]
    modules = {path.stem for path in (root / "src" / "pdextremal").glob("[!_]*.py")}
    readme = (root / "README.md").read_text(encoding="utf-8")
    layout = readme.split("\n## Layout\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `pdextremal\.(\w+)` \|", layout, flags=re.M)
    assert sorted(rows) == sorted(modules)
