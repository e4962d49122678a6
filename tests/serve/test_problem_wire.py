"""One problem description on the serve wire: a ``GemmSpec`` crosses it
whole, footprint ratios included, so the daemon solves the problem the
client asked about (docs/serving.md, "Protocol")."""

import math
import re

import pytest

from repro.core.errors import ProtocolError
from repro.gpusim.config import A100
from repro.serve.client import ServeClient
from repro.serve.protocol import parse_problem_params, spec_from_params, spec_to_params
from repro.serve.registry import artifact_key
from repro.serve.server import DEFAULT_SPACE, ReproServer
from repro.tensor.operation import GemmSpec
from repro.tuning.measure import Measurer
from repro.tuning.space import SpaceOptions, enumerate_space, restrict_space
from repro.workloads.suite import OPERATOR_SUITE

CONV_OPS = ("Conv_RN50_3x3", "Conv_VGG_3x3")


class TestSpecParams:
    @pytest.mark.parametrize("name", sorted(OPERATOR_SUITE))
    def test_every_suite_spec_round_trips(self, name):
        spec = OPERATOR_SUITE[name]
        assert spec_from_params(spec_to_params(spec)) == spec

    def test_the_conv_ops_carry_a_footprint(self):
        for name in CONV_OPS:
            params = spec_to_params(OPERATOR_SUITE[name])
            assert params["a_footprint_ratio"] < 1.0

    def test_absent_fields_take_the_defaults(self):
        assert spec_from_params({"m": 64, "n": 32, "k": 16}) == GemmSpec("serve", 1, 64, 32, 16)
        p = parse_problem_params({"m": 64, "n": 32, "k": 16, "name": "x", "batch": 2})
        assert p == {"spec": GemmSpec("x", 2, 64, 32, 16), "space": None, "variant": "alcop"}

    @pytest.mark.parametrize("ratio", [0, -0.5, 1.5, math.nan, math.inf, "half", None, [1]])
    def test_a_ratio_outside_zero_one_is_a_protocol_error(self, ratio):
        for field in ("a_footprint_ratio", "b_footprint_ratio"):
            with pytest.raises(ProtocolError):
                spec_from_params({"m": 64, "n": 64, "k": 64, field: ratio})

    def test_an_unknown_dtype_is_a_protocol_error(self):
        with pytest.raises(ProtocolError, match="dtype"):
            spec_from_params({"m": 64, "n": 64, "k": 64, "dtype": "int3"})


def _field_error(field):
    """The start of the ProtocolError message that names ``field``."""
    if field in ("m", "n", "k"):
        return f"problem dimension '{field}' must be an integer"
    if field in ("batch", "space"):
        return f"{field} must be an integer"
    return f"{field} must be a number"


class TestNumbersOnTheWire:
    """A bool is no number, and a fraction is no integer: each is refused
    by name instead of being read as 1 or truncated. An integral float and
    an integer string still read as the integer."""

    @pytest.mark.parametrize("field,value", [
        ("m", True), ("n", False), ("k", 64.7), ("m", 0.5), ("n", math.inf),
        ("k", math.nan), ("batch", True), ("batch", 2.5), ("space", True),
        ("space", 16.5), ("a_footprint_ratio", True), ("b_footprint_ratio", False),
    ])
    def test_a_bool_or_a_fraction_is_refused_by_name(self, field, value):
        with pytest.raises(ProtocolError, match=re.escape(_field_error(field))):
            parse_problem_params({"m": 64, "n": 64, "k": 64, field: value})

    @pytest.mark.parametrize("field,value,means", [
        ("m", 64.0, 64), ("n", "64", 64), ("batch", 2.0, 2), ("batch", "2", 2),
        ("space", 16.0, 16), ("space", "16", 16), ("a_footprint_ratio", 1, 1.0),
        ("b_footprint_ratio", "0.5", 0.5),
    ])
    def test_an_integral_float_or_a_number_string_is_accepted(self, field, value, means):
        base = {"m": 64, "n": 64, "k": 64}
        assert parse_problem_params({**base, field: value}) == parse_problem_params(
            {**base, field: means})


@pytest.fixture(scope="module")
def daemon(tmp_path_factory):
    server = ReproServer(socket_path=str(tmp_path_factory.mktemp("wire") / "d.sock"))
    server.start()
    try:
        client = ServeClient(socket_path=server.socket_path, timeout=300)
        assert client.wait_until_ready(timeout=10)
        yield server
    finally:
        server.stop()
        server.shutdown(timeout=10)


class TestConvolutionsOnTheWire:
    @pytest.mark.parametrize("name", CONV_OPS)
    def test_a_served_conv_compile_is_the_in_process_best(self, daemon, name):
        """The daemon solves the convolution, not the dense GEMM of its
        shape: its answer is the in-process bounded search's."""
        spec = OPERATOR_SUITE[name]
        client = ServeClient(socket_path=daemon.socket_path, timeout=300)
        reply = client.compile(spec)
        space = restrict_space(
            enumerate_space(spec, A100, SpaceOptions(max_size=DEFAULT_SPACE)), "alcop")
        cfg, latency = Measurer(A100).best(spec, space)
        assert reply["spec"] == spec_to_params(spec)
        assert reply["key"] == artifact_key(A100, spec, "alcop", False, DEFAULT_SPACE)
        assert reply["config"] == cfg.as_dict()
        assert reply["latency_us"] == latency

    def test_measure_echoes_the_spec_it_measured(self, daemon):
        spec = OPERATOR_SUITE["Conv_RN50_3x3"]
        cfgs = enumerate_space(spec, A100, SpaceOptions(max_size=DEFAULT_SPACE))[:2]
        client = ServeClient(socket_path=daemon.socket_path, timeout=300)
        reply = client.measure(spec, cfgs)
        assert reply["spec"] == spec_to_params(spec)
        assert reply["latencies"] == Measurer(A100).measure_many(spec, cfgs)
