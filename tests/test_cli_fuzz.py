"""Property test of the CLI boundary.

Every call either exits 0 with strict JSON or CSV on stdout and nothing on
stderr, or prints nothing on stdout and exactly one `error:` line on stderr
and exits 2, 3 or 4.  The one exception is `optimize` outside the engine
regime: it exits 3 and prints its JSON with `engine_regime: false`.
Arguments are finite, non-finite, extreme or malformed.  Sizes (catalyst
dimensions, grid resolution, trial counts) stay small so that every call
is quick; the size guards themselves are covered by the unit tests.
"""

import argparse
import contextlib
import io
import json
import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from twostroke.cli import build_parser, main

MALFORMED = st.sampled_from(["", "abc", "1,2", "0x1p3", "--", " ", "1e", "-1e-3"])
NUMBERS = st.one_of(
    st.floats(0.01, 10.0).map(repr),
    st.floats().map(repr),
    st.sampled_from(["0", "-0.0", "5e-324", "1e-320", "1e308", "-1", "nan", "inf", "-inf"]),
    MALFORMED,
)
SMALL_INTS = st.one_of(st.integers(-2, 8).map(str), MALFORMED)


@st.composite
def engine_flags(draw):
    if draw(st.booleans()):
        names = ("--beta-h", "--beta-c", "--omega-h", "--omega-c")
    else:
        names = ("--bh-wh", "--bc-wc", "--freq-ratio")
    return [item for name in names for item in (name, draw(NUMBERS))]


def flag(name, values):
    return values.map(lambda value: [name, value])


def command(name, *parts):
    """argv of `name` followed by the concatenated lists drawn from `parts`."""
    return st.tuples(*parts).map(lambda lists: [name] + sum(lists, []))


STROKE = st.one_of(
    st.just(["--otto"]),
    flag("--perm", st.sampled_from(["identity", "0,2,1,3", "3,2,1,0", "0,1,2"]) | MALFORMED),
    flag("--simple", st.tuples(SMALL_INTS, SMALL_INTS).map(",".join) | MALFORMED),
    st.just(["--otto", "--perm", "identity"]),
    st.just([]),
)
CATALYST_POPULATIONS = st.one_of(
    st.just([]),
    flag("--catalyst-populations", st.lists(NUMBERS, min_size=1, max_size=3).map(",".join)),
)

ARGV = st.one_of(
    command("report", engine_flags(), STROKE),
    command("table24", engine_flags()),
    command(
        "optimize", engine_flags(),
        flag("--objective", st.sampled_from(["efficiency", "work", "power"])),
    ),
    command(
        "lp-bound", engine_flags(), flag("--catalyst-dim", SMALL_INTS), CATALYST_POPULATIONS
    ),
    command(
        "regime-map",
        flag("--d-over-n", st.sampled_from(
            ["5/3,2.2", "4", "1/2", "65", "0", "x", "2.2,-1", "1/0"]
        )),
        flag("--resolution", SMALL_INTS),
        flag("--beta-ratio-min", NUMBERS), flag("--beta-ratio-max", NUMBERS),
        flag("--freq-ratio-min", NUMBERS), flag("--freq-ratio-max", NUMBERS),
    ),
    command(
        "fig5",
        flag("--catalyst-dim", st.integers(-2, 40).map(str) | MALFORMED),
        flag("--bh-wh", NUMBERS), flag("--ratio", NUMBERS), flag("--freq-ratio", NUMBERS),
    ),
    command(
        "coherence-check",
        flag("--trials", st.integers(-1, 3).map(str) | MALFORMED),
        flag("--seed", SMALL_INTS),
        flag("--catalyst-dims", st.sampled_from(["2,3", "1", "4", "0", "2,-1", "a", ""])),
    ),
)


def reject_constant(token):
    raise ValueError(f"non-finite number {token} in JSON")


def assert_strict_csv(text):
    lines = text.splitlines()
    assert text.endswith("\n") and lines
    rows = [line for line in lines if not line.startswith("#")]
    width = len(rows[0].split(","))
    for row in rows[1:]:
        fields = row.split(",")
        assert len(fields) == width, row
        for field in fields:
            try:
                value = float(field)
            except ValueError:
                continue
            assert math.isfinite(value), row


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=300)
@given(argv=ARGV)
# regression commands: each once ended in a traceback, printed NaN, wrote
# more than one line on stderr, or ran unbounded in time and memory
@example(argv=["lp-bound", "--beta-h", "1", "--beta-c", "3", "--omega-h", "1",
               "--omega-c", "0.5", "--catalyst-dim", "2", "--catalyst-populations", "nan,nan"])
@example(argv=["report", "--beta-h", "6", "--beta-c", "7", "--omega-h", "inf",
               "--omega-c", "3", "--simple", "2,3"])
@example(argv=["report", "--beta-h", "6", "--beta-c", "1e308", "--omega-h", "2",
               "--omega-c", "3", "--simple", "2,3"])
@example(argv=["report", "--beta-h", "400", "--beta-c", "900", "--omega-h", "2",
               "--omega-c", "3", "--simple", "2,3"])
@example(argv=["report", "--beta-h", "5e-324", "--beta-c", "2", "--omega-h", "1e308",
               "--omega-c", "1", "--simple", "1,40"])
@example(argv=["table24", "--beta-h", "2", "--beta-c", "1e308", "--omega-h", "3",
               "--omega-c", "1e308"])
@example(argv=["lp-bound", "--beta-h", "1", "--beta-c", "1e300", "--omega-h", "1e308",
               "--omega-c", "1e308", "--catalyst-dim", "2"])
@example(argv=["lp-bound", "--beta-h", "1", "--beta-c", "700", "--omega-h", "700",
               "--omega-c", "1e-12", "--catalyst-dim", "2"])
@example(argv=["regime-map", "--resolution", "3", "--freq-ratio-max", "inf"])
@example(argv=["regime-map", "--d-over-n", "1/0", "--resolution", "2"])
@example(argv=["regime-map", "--resolution", "1000000"])
@example(argv=["regime-map", "--d-over-n", "1e400"])
@example(argv=["report", "--beta-h", "0.3", "--beta-c", "1e300", "--omega-h", "0.3",
               "--omega-c", "1e308", "--simple", "4,5"])
@example(argv=["report", "--beta-h", "-1e-3", "--beta-c", "3", "--omega-h", "1",
               "--omega-c", "0.5", "--otto"])
@example(argv=["report", "--beta-h", "6", "--beta-c", "7", "--omega-h", "2",
               "--omega-c", "3", "--simple", "99999999,1"])
@example(argv=["lp-bound", "--beta-h", "1", "--beta-c", "3", "--omega-h", "1",
               "--omega-c", "0.5", "--catalyst-dim", "1000000000000"])
@example(argv=["coherence-check", "--trials", "1", "--catalyst-dims", "100000"])
# argv shapes at the subcommand dispatch: no subcommand, an ambiguous
# abbreviation, `--flag=value`, and flags after `--`
@example(argv=["bogus"])
@example(argv=["report", "--bet", "1", "--omega-h", "1", "--omega-c", "0.5", "--otto"])
@example(argv=["report", "--beta-h=6", "--beta-c=7", "--omega-h=2", "--omega-c=3",
               "--simple=2,3"])
@example(argv=["report", "--", "--beta-h", "1", "--beta-c", "3", "--omega-h", "1",
               "--omega-c", "0.5", "--otto"])
def test_cli_boundary(argv):
    code, out, err = run(argv)
    if code == 0:
        assert err == ""
        if argv[0] in ("table24", "regime-map", "fig5"):
            assert_strict_csv(out)
        else:
            json.loads(out, parse_constant=reject_constant)
    elif code == 3 and argv[0] == "optimize":
        assert err == ""
        assert json.loads(out, parse_constant=reject_constant)["engine_regime"] is False
    else:
        assert code in (2, 3, 4), (code, err)
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err


BOUNDARY = st.sampled_from(["-h", "--", "--bet", "--beta-h=1", "-x", "-1e-3", "-inf", "", "x y"])


@st.composite
def spliced_argv(draw):
    """An ARGV draw with boundary tokens and repeated flags spliced in."""
    command, *rest = draw(ARGV)
    for _ in range(draw(st.integers(0, 3))):
        position = draw(st.integers(0, len(rest)))
        flags = [index for index, token in enumerate(rest) if token.startswith("--")]
        if flags and draw(st.booleans()):
            first = draw(st.sampled_from(flags))
            rest[position:position] = rest[first : first + 2]
        else:
            rest.insert(position, draw(BOUNDARY))
    return [command, *rest]


@settings(max_examples=500)
@given(argv=spliced_argv())
@example(argv=["report", "--beta-h", "1", "--beta-h", "-inf", "--otto", "--otto"])
@example(argv=["report", "--perm", "-x"])
@example(argv=["report", "--output", "", "--simple", "x y"])
def test_exact_parse_agrees_with_argparse(argv):
    """Whenever the exact parse takes an argv, argparse takes it too and gives
    the same namespace (compared by repr, so NaN values match); when it
    declines, it leaves the namespace for argparse untouched."""
    command = build_parser().commands[argv[0]]
    namespace = argparse.Namespace(command=argv[0])
    exact = command._exact_parse(argv[1:], namespace)
    if exact is None:
        assert vars(namespace) == {"command": argv[0]}
        return
    expected = argparse.ArgumentParser.parse_args(
        command, argv[1:], argparse.Namespace(command=argv[0])
    )
    assert repr(exact) == repr(expected)
