"""The exit-code contract under mutated input: 0, 1 or 2 and never a
traceback.

Each example mutates one fixture document (with its golden-sweep extra
definitions) at the byte level: bytes are inserted, deleted or replaced
by punctuation, keywords, names and the invalid UTF-8 bytes 0xff and
0xc3.  The document then runs through that fixture's golden-sweep
commands in-process.  No exception may escape `main`, the exit code
must be 0, 1 or 2, and every exit 2 prints exactly one stderr line,
starting with ``error:``.
"""

from __future__ import annotations

import contextlib
import io

from hypothesis import HealthCheck, given, settings, strategies as st

from lfoc.cli import main
from lfoc.fixtures import FIXTURES, fixture_path
from test_golden import SWEEP

FRAGMENTS = (
    b"{", b"}", b"[", b"]", b"(", b")", b";", b":", b",", b".", b"@", b"=",
    b"->", b"=>", b"//", b'"', b" ", b"\n",
    b"base", b"set", b"graph", b"import", b"obj", b"mor", b"footprint", b"feature",
    b"expr", b"structure", b"carrier", b"sketch", b"context", b"constraint", b"rule",
    b"via", b"v", b"e", b"top", b"bot", b"and", b"or", b"not", b"exists", b"forall",
    b"given", b"into",
    b"p", b"q1", b"x1", b"pv", b"pe", b"alice", b"P1", b"Smiths",
    b"\xff", b"\xc3",
)

DOCUMENTS = {name: (fixture_path(name).read_text(encoding="utf-8")
                    + SWEEP[name][0]).encode("utf-8")
             for name in FIXTURES}


def _contract(argv: list[str]) -> int:
    """Run `main` on argv, require exit 0, 1 or 2 with no exception and
    one stderr line starting with ``error:`` on exit 2, and return the
    code."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), (argv, code)
    if code == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), (argv, lines)
    return code


@st.composite
def mutated(draw):
    name = draw(st.sampled_from(FIXTURES))
    data = DOCUMENTS[name]
    for _ in range(draw(st.integers(1, 3))):
        pos = draw(st.integers(0, len(data)))
        op = draw(st.sampled_from(("insert", "delete", "replace")))
        piece = b"" if op == "delete" else draw(st.sampled_from(FRAGMENTS))
        cut = 0 if op == "insert" else draw(st.integers(1, 4))
        data = data[:pos] + piece + data[pos + cut:]
    return name, data


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutated())
def test_mutated_documents_keep_the_exit_code_contract(tmp_path, example):
    name, data = example
    path = tmp_path / f"{name}.lfoc"
    path.write_bytes(data)
    for command in SWEEP[name][1]:
        _contract([command[0], str(path), *command[1:]])


# The numeric flags of the registry and saturation commands, as the
# golden sweep passes them, given other values: negative, zero, empty,
# not an integer, or signed with "+".  Set registries are also bounded
# at 1 000 to 5 000 elements, which they refuse at once; graph registries
# and saturation budgets stay at most 3, as a graph registry far past the
# cap is refused only after walking up to the cap's number of carriers.
NUMERIC = {
    "saturate": ("--max-steps", "--max-elements", "--max-vertices", "--max-edges"),
    "sound": ("--max-carrier",),
    "entail": ("--max-carrier",),
}
FLAGGED = [(name, command) for name in FIXTURES for command in SWEEP[name][1]
           if command[0] in NUMERIC]
NUMBERS = st.one_of(st.integers(-5000, -1).map(str), st.integers(0, 3).map(str),
                    st.integers(0, 3).map("+{}".format))
LARGE = st.integers(1000, 5000).map(str)
OTHERS = st.sampled_from(("", " ", "x", "1.5", "1e3", "--", "-", "+", "0x2", "2,", ","))


@st.composite
def flagged(draw):
    name, command = draw(st.sampled_from(FLAGGED))
    flag = draw(st.sampled_from(NUMERIC[command[0]]))
    values = [NUMBERS, OTHERS]
    if flag == "--max-carrier" and name in ("fol", "alc"):
        values.append(LARGE)
    parts = draw(st.lists(st.one_of(values), min_size=1,
                          max_size=2 if flag == "--max-carrier" else 1))
    value = ",".join(parts)
    argv = list(command[1:])
    if flag in argv:
        del argv[argv.index(flag):argv.index(flag) + 2]
    together = draw(st.booleans())
    argv += [f"{flag}={value}"] if together else [flag, value]
    negative = any(p.strip().startswith("-") and p.strip()[1:].isdigit() for p in parts)
    return name, command[0], argv, negative


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(flagged())
def test_mutated_numeric_flags_keep_the_exit_code_contract(tmp_path, example):
    name, command, argv, negative = example
    path = tmp_path / f"{name}.lfoc"
    path.write_bytes(DOCUMENTS[name])
    code = _contract([command, str(path), *argv])
    if negative:
        assert code == 2, argv


# The other flags and the positional arguments of the golden sweep's
# commands, mutated at the argument level: a flag's value replaced by a
# name or literal of any fixture, or by an odd string; a flag dropped,
# repeated or unknown; the subcommand renamed; the document replaced by a
# missing path, a directory or another fixture; an extra positional.
# Numeric flags keep their sweep values, so every run stays small.
NUMERIC_FLAGS = {flag for flags in NUMERIC.values() for flag in flags}
COMMANDS = sorted({command[0] for _, commands in SWEEP.values() for command in commands})
NAMED = sorted({(flag, value) for _, commands in SWEEP.values() for command in commands
                for flag, value in zip(command[1:], command[2:])
                if flag.startswith("--") and not value.startswith("--")
                and flag not in NUMERIC_FLAGS})
FLAGS = sorted({flag for flag, _ in NAMED} | {"--max"})
VALUES = st.one_of(st.sampled_from(sorted({value for _, value in NAMED})),
                   st.sampled_from(("", " ", "-", "--", "-x", "x,", ",", "[", "[]", "[p->",
                                    "[a->b; a->c]", "é", "missing.lfoc")))


@st.composite
def reworded(draw):
    name, command = draw(st.sampled_from([(name, command) for name in FIXTURES
                                          for command in SWEEP[name][1]]))
    head, argv = command[0], list(command[1:])
    document = "{doc}"
    for _ in range(draw(st.integers(1, 2))):
        op = draw(st.sampled_from(("value", "drop", "repeat", "unknown", "command",
                                   "document", "positional")))
        # positions of the flags this mutation may touch
        flags = [i for i, a in enumerate(argv) if a.startswith("--") and a not in NUMERIC_FLAGS]
        if op in ("value", "drop") and flags:
            i = draw(st.sampled_from(flags))
            width = 1 if i + 1 == len(argv) or argv[i + 1].startswith("--") else 2
            if op == "drop":
                del argv[i:i + width]
            elif width == 2:
                argv[i + 1] = draw(VALUES)
        elif op == "repeat":
            argv += [draw(st.sampled_from(FLAGS)), draw(VALUES)]
        elif op == "unknown":
            argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(("--bogus", "-z"))))
        elif op == "command":
            head = draw(st.sampled_from(COMMANDS + ["bogus", ""]))
        elif op == "document":
            document = draw(st.sampled_from(("{missing}", "{dir}", "", *FIXTURES)))
        elif op == "positional":
            argv.append(draw(VALUES))
    return name, [head, document, *argv]


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(reworded())
def test_mutated_arguments_keep_the_exit_code_contract(tmp_path, example):
    name, argv = example
    paths = {"{missing}": str(tmp_path / "missing.lfoc"), "{dir}": str(tmp_path)}
    for fixture in FIXTURES:
        paths[fixture] = str(tmp_path / f"{fixture}.lfoc")
        (tmp_path / f"{fixture}.lfoc").write_bytes(DOCUMENTS[fixture])
    paths["{doc}"] = paths[name]
    _contract([paths.get(a, a) if i == 1 else a for i, a in enumerate(argv)])
