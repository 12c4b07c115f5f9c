"""Argv-grammar fuzz of ``cli.main``: no input gives a traceback, and the
exit code says what kind of outcome the output is.

Argv are drawn from the subparsers of ``build_parser()`` itself, so a new
command or flag joins the fuzz with the edge values of its type.  Flags with a
default are left out at random, and now and then a flag of any command is
added.  Sizes stay small enough that one argv ends within ~0.5 s: at most 3
instances, groups of at most 64 elements, at most 1,801 table points (11 for
``hankel``).
"""

import argparse
import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pdextremal.cli as cli
from pdextremal.fuzz import SplitMix64

# edge values of each argparse type; every one is rejected by at least one flag
EDGES = {
    int: ["0", "-1", str(2**64), str(-2**64), "1e23", "x", ""],
    float: ["0", "-1", "nan", "inf", "-inf", "1e300", "5e-324", "1e23", "x", ""],
    None: ["", "{", "null", "true", "[]", "[[]]", '"x"', "[1.5]", "[true]", "[null]",
           f"[{2**64}]", "NaN", "5"],
}

# values each flag accepts, bounded in size (on a cyclic group, for the sets)
VALUES = {
    "--group": [
        '{"orders":[6],"normalization":"probability"}',
        '{"orders":[1]}',
        '{"orders":[12],"normalization":0.25}',
        '{"orders":[7],"normalization":"counting"}',
        '{"orders":[64],"normalization":2}',
        '{"orders":[9],"normalization":{"weight":0.5}}',
        '{"orders":[2,2],"normalization":"counting"}',
        '{"orders":[3,4],"normalization":"probability"}',
        '{"orders":[4,4,2]}',
    ],
    "--omega-plus": ["empty", "all", "[-1,1]", "[-3,3]", "[0,3]", "[5,0,1]", "[0]",
                     f"[-{2**64},0]", '"all"'],
    "--fuzz": ["0", "1", "2", "3"],
    "--seed": ["0", "1", "7", str(2**64 - 1)],
    "--max-n": ["2", "3", "4", "5", "8", "20", "50"],
    "--d": ["1", "2", "3", "8", "64"],
    "--t-max": ["1", "30", "40", "90"],
    "--s-max": ["0", "0.1", "0.5"],  # hankel pays ~45 ms a point at d = 64
    "--step": ["0.05", "0.5", "1", "7"],
    "--forbidden": ["[]", "[1]", "[1,2,3]", "[5,7]", "[2,3,5,7]"],
    "--max-period": ["1", "12", "24"],
    "--period": ["1", "5", f"{2**64}"],
    "--residues": ["[0]", "[1,2,3]", "[-3]", f"[{2**64}]"],
    "--intervals": ["[[0,1]]", "[[0.5,3.5]]", "[[-3,3],[10,12]]", "[[1e300,1e300]]",
                    "[[5e-324,1]]"],
}
VALUES["--omega-minus"] = VALUES["--omega-plus"]

# values each flag rejects, beyond the edges of its type
REJECTED = {
    "--group": [
        '{"orders":[12],"normalization":0}',
        '{"orders":[5],"normalization":NaN}',
        '{"orders":[5],"normalization":{"weight":-1}}',
        f'{{"orders":[5],"normalization":{2**64}}}',
        '{"orders":[5],"normalization":"bogus"}',
        '{"orders":[0]}', f'{{"orders":[{2**64}]}}', '{"orders":[4096,2]}',
    ],
    "--omega-plus": ["[[1,2]]", "[[0,1],[1,1]]", "[-1,-5]", "5"],
    "--seed": [str(2**64)],
    "--max-n": ["2049"],
    "--d": ["65"],
    "--forbidden": ["[0]"],
    "--max-period": ["25"],
    "--intervals": ["[[-1e7,1e7]]", "[[NaN,1]]", "[[1,0]]", "[[1]]", "[[true,1]]",
                    "[[-Infinity,0]]"],
}
REJECTED["--omega-minus"] = REJECTED["--omega-plus"]


# one argv per flag of REJECTED that exits 0 with the flag's first accepted value
_GROUP = '{"orders":[6],"normalization":"probability"}'
FIXED = {
    "--group": ["constant", "--omega-plus", "[0]", "--group"],
    "--omega-plus": ["constant", "--group", _GROUP, "--omega-plus"],
    "--omega-minus": ["constant", "--group", _GROUP, "--omega-plus", "[0]", "--omega-minus"],
    "--seed": ["verify", "tile", "--fuzz", "1", "--seed"],
    "--max-n": ["verify", "tile", "--fuzz", "1", "--max-n"],
    "--d": ["radial", "yudin", "--t-max", "1", "--d"],
    "--forbidden": ["density", "search", "--forbidden"],
    "--max-period": ["density", "search", "--forbidden", "[1]", "--max-period"],
    "--intervals": ["density", "shadow", "--intervals"],
}


def _subcommands(parser):
    return next((a for a in parser._actions if isinstance(a, argparse._SubParsersAction)), None)


def _flags(parser):
    """The flags of the parser and of the parsers below it, each with whether
    it takes a value."""
    flags = {s: a.nargs != 0 for a in parser._actions for s in a.option_strings
             if not isinstance(a, argparse._HelpAction)}
    sub = _subcommands(parser)
    for child in (sub.choices.values() if sub else ()):
        flags.update(_flags(child))
    return flags


def _values(draw, action):
    """One of the flag's choices or accepted values, or one time in five a
    value it rejects."""
    if action.choices is not None:
        return draw(st.sampled_from(sorted(action.choices)))
    flag = (action.option_strings or [action.dest])[0]
    values = VALUES.get(flag)
    if not values or draw(st.integers(0, 4)) == 4:
        values = REJECTED.get(flag, []) + EDGES[action.type]
    return draw(st.sampled_from(values))


@st.composite
def argvs(draw):
    parser = cli.build_parser()
    argv = []
    while (sub := _subcommands(parser)) is not None:
        name = draw(st.sampled_from([*sub.choices, "bogus"]))
        argv.append(name)
        if name not in sub.choices:
            return argv
        parser = sub.choices[name]
    tokens = []
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction):
            continue  # help prints no JSON
        if not action.required and draw(st.booleans()):
            continue  # a flag with a default is left out half the time
        if action.nargs == 0:
            tokens.append(action.option_strings)
        else:
            tokens.append([*action.option_strings, _values(draw, action)])
    if draw(st.integers(0, 19)) == 19:  # a flag of any command, maybe not this one
        flags = _flags(cli.build_parser())
        flag = draw(st.sampled_from(sorted(flags)))
        tokens.append([flag, "1"] if flags[flag] else [flag])
    for words in draw(st.permutations(tokens)):
        argv += words
    return argv


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _reject_constant(name):
    raise ValueError(f"stdout holds {name}, which is not JSON")


def _check_output(argv, code, out):
    """stdout is one JSON object, or CSV under --csv, exactly when the exit is 0 or 2."""
    if code in (1, 3):
        assert out == ""
        return
    if "--csv" in argv:
        header, *rows = out.splitlines()
        assert len(header.split(",")) == 2 and out.endswith("\n")
        for row in rows:
            assert len([float(v) for v in row.split(",")]) == 2
        return
    payload = json.loads(out, parse_constant=_reject_constant)
    assert isinstance(payload, dict) and out.endswith("}\n")
    if argv[0] == "verify":  # the seed replayed is the seed given, not it modulo 2^64
        assert SplitMix64(payload["seed"]).state == payload["seed"]


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(argvs())
def test_every_argv_ends_in_a_documented_exit(argv):
    code, out, err = _run(argv)
    assert code in (0, 1, 2, 3)
    if code == 1:
        assert err.startswith(("error: ", "usage: ")), err
    if code == 2:
        assert argv[0] == "verify" or argv[:2] == ["trinomial", "example51"]
    _check_output(argv, code, out)
    # warm memos change no byte
    assert _run(argv) == (code, out, err)


@pytest.mark.parametrize("flag", sorted(FIXED))
def test_each_fixed_argv_is_accepted(flag):
    assert _run(FIXED[flag] + [VALUES[flag][0]])[0] == 0


@pytest.mark.parametrize("flag, value", [(flag, value) for flag in sorted(REJECTED)
                                         for value in REJECTED[flag]])
def test_each_rejected_value_is_a_usage_error(flag, value):
    # the fuzz draws these at random, so it need not reach each one's message
    code, out, err = _run(FIXED[flag] + [value])
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and flag in err, err
