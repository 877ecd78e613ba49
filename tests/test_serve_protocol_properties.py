"""Property tests: the wire protocol refuses bad input only as ProtocolError.

Whatever bytes a client sends, :func:`decode_line` returns a payload
with a known ``op`` or raises :class:`ProtocolError`; whatever JSON
object a submit carries, :meth:`SubmitSpec.from_payload` returns a spec
or raises :class:`ProtocolError`.  Any other exception would escape the
daemon's connection handler and drop the connection with no reply.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import ProtocolError, SubmitSpec, decode_line
from repro.serve.protocol import MAX_LINE_BYTES, OPS

_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)

_fields = {
    "op": st.just("submit") | st.sampled_from(OPS) | _json,
    "job": st.text(max_size=6) | st.integers() | _json,
    "gpus": st.integers(-2, 64) | _json,
    "pattern": st.sampled_from(
        ["ring", "chain", "tree", "star", "alltoall", "single", "Ring", "nope"]
    )
    | _json,
    "workload": st.sampled_from(["resnet-50", "vgg-16", "zz"]) | _json,
    "sensitive": _json,
    "tenant": st.text(max_size=4) | _json,
    "wait": _json,
}

_payloads = st.fixed_dictionaries({}, optional=_fields).filter(
    # Oversized requests are refused on their size before this runs.
    lambda p: not (isinstance(p.get("gpus"), int) and p["gpus"] > 64)
)


@settings(max_examples=60, deadline=None)
@given(
    line=st.binary(max_size=64)
    | _json.map(lambda v: json.dumps(v).encode())
    | st.builds(
        lambda op, rest: json.dumps({"op": op, **rest}).encode(),
        st.sampled_from(OPS) | _json,
        st.dictionaries(st.text(max_size=4), _json, max_size=3),
    )
)
def test_decode_line_returns_a_known_op_or_raises_protocol_error(line):
    try:
        payload = decode_line(line)
    except ProtocolError:
        return
    assert isinstance(payload, dict)
    assert payload["op"] in OPS


@pytest.mark.parametrize(
    "line",
    [
        b"[" * 100_000,                      # too deep for the parser
        b'{"op": "ping", "x": ' + b"[" * 100_000 + b"}",
        b"9" * 5000,                         # past the int digit limit
        b"\xff\xfe",                         # not UTF-8
    ],
)
def test_decode_line_hostile_lines_raise_protocol_error(line):
    assert len(line) < MAX_LINE_BYTES
    with pytest.raises(ProtocolError):
        decode_line(line)


@settings(max_examples=60, deadline=None)
@given(payload=_payloads)
def test_submit_spec_returns_a_spec_or_raises_protocol_error(payload):
    try:
        spec = SubmitSpec.from_payload(payload)
    except ProtocolError:
        return
    assert spec.num_gpus >= 1
    assert spec.request().num_gpus == spec.num_gpus
