"""`jsonio.dump`, the iterative JSON writer, against the stdlib encoder.

On generated values, on every payload of the golden sweep and on a
payload nested 400 deep, `dump` must write exactly the bytes of
`json.dumps(x, sort_keys=True, indent=2) + "\\n"`.  A payload nested past
the recursion limit is written too, in time linear in its size.
"""

from __future__ import annotations

import json
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

import test_golden
from lfoc import jsonio
from lfoc.fixtures import FIXTURES


def oracle(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2) + "\n"


TEXT = st.one_of(
    st.text(st.characters(exclude_categories=())),  # lone surrogates included
    st.text(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\x80é€ \U0001f600'), max_size=8),
)
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-10 ** 40, 10 ** 40), TEXT)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(TEXT, inner, max_size=4),
    max_leaves=30)


@settings(max_examples=400, deadline=None)
@given(VALUES)
def test_generated_values_dump_like_the_stdlib(value):
    assert jsonio.dump(value) == oracle(value)


def test_golden_sweep_payloads_dump_like_the_stdlib(tmp_path, monkeypatch):
    payloads = []
    real = jsonio.dump
    monkeypatch.setattr(jsonio, "dump", lambda data: payloads.append(data) or real(data))
    for name in FIXTURES:
        test_golden.render(name, tmp_path)
    assert len(payloads) > 50
    for data in payloads:
        assert real(data) == oracle(data)


def nested(depth: int):
    value: object = []
    for i in range(depth):
        value = {"k": value, "n": i} if i % 2 else [i, value]
    return value


def test_deep_payload_dumps_like_the_stdlib():
    value = nested(400)
    assert jsonio.dump(value) == oracle(value)


def test_payload_past_the_recursion_limit_is_written_quickly():
    depth = 1200
    assert depth > sys.getrecursionlimit()
    value: list = []
    for _ in range(depth):
        value = [value]
    start = time.process_time()
    text = jsonio.dump(value)
    assert time.process_time() - start < 1.0
    opening = "".join("  " * i + "[\n" for i in range(depth))
    closing = "".join("  " * i + "]\n" for i in reversed(range(depth)))
    assert text == opening + "  " * depth + "[]\n" + closing


@pytest.mark.parametrize("value", [1.5, (1, 2), {1: "x"}, {"a": {None: 1}}, b"x", {"s": {1, 2}}])
def test_values_outside_the_payload_types_are_refused(value):
    with pytest.raises(TypeError):
        jsonio.dump(value)
