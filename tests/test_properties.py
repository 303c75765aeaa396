"""Property tests: the physical invariants on generated inputs (hypothesis, derandomized)."""

import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (
    enumerate_joint,
    oracle_analytic_joint,
    oracle_precision,
    precision,
    quality_factor,
    random_density,
    random_direction,
    random_strength,
)

from weakbell import (
    BellChainConfig,
    BobStage,
    Direction,
    InvalidParameterError,
    InvalidStateError,
    MeasurementStrength,
    PhysicalityError,
    PointerState,
    analytic_joint,
    optimal_from_central,
)
from weakbell.channel import DIR_X, DIR_Z
from weakbell.cli import MAX_RANGE_POINTS, main, parse_command_line, parse_range
from weakbell.montecarlo import ZERO_MASS
from weakbell.pointer import _fraction_texts

SPACING = 1.0 / 64
PROPERTY = settings(derandomize=True, deadline=None, max_examples=40)

amplitudes = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


@PROPERTY
@given(
    half=st.lists(amplitudes, min_size=64, max_size=64),
    target=st.floats(min_value=0.05, max_value=0.95),
)
def test_optimal_from_central_lands_on_the_unit_circle(half, target):
    half = np.array(half)
    assume(float(np.sum(half * half)) > 1e-6)
    state = optimal_from_central(np.concatenate([half[::-1], half]), target, grid_spacing=SPACING)
    f, g = quality_factor(state), precision(state)
    assert abs(f * f + g * g - 1.0) < 1e-9


@PROPERTY
@given(half=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=8, max_size=400))
def test_any_pointer_stays_inside_the_unit_circle(half):
    half = np.array(half)
    assume(float(np.sum(half * half)) > 1e-6)
    samples = np.concatenate([half[::-1], half])
    samples /= np.sqrt(float(np.sum(samples * samples)) * SPACING)
    state = PointerState(samples, SPACING)
    f, g = quality_factor(state), precision(state)
    assert f * f + g * g <= 1.0 + 1e-12


@settings(derandomize=True, deadline=None, max_examples=200)
@given(
    half=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=200),
    spacing_exponent=st.integers(min_value=1, max_value=60),
)
def test_precision_equals_the_masked_quadrature_on_any_grid(half, spacing_exponent):
    # grids narrower and wider than (-1, 1) at every spacing from 1/2 to 2^-60
    spacing = 2.0**-spacing_exponent
    half = np.array(half)
    assume(float(np.sum(half * half)) > 1e-6)
    samples = np.concatenate([half[::-1], half])
    samples /= np.sqrt(float(np.sum(samples * samples)) * spacing)
    state = PointerState(samples, spacing)
    assert precision(state) == oracle_precision(state)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(
    k=st.integers(min_value=1, max_value=16),
    half=st.integers(min_value=1, max_value=2**23),
    j=st.integers(min_value=0, max_value=2**23 - 1),
)
# either side of (2 half - 1) 5^13 = 10^15 at h = 2^-12
@example(k=12, half=409_600, j=204_800)
@example(k=12, half=409_601, j=204_800)
def test_fraction_texts_write_repr_of_every_position_they_admit(k, half, j):
    cells = 2**k
    texts = _fraction_texts(half, cells)
    if not ((2 * half - 1) * 5 ** (k + 1) < 10**15 and 1 / (2 * cells) >= 1e-4):
        assert texts is None
        return
    assert len(texts) == cells
    for node in (0, j % half, half - 1):
        assert f"{node // cells}{texts[node % cells]}" == repr((node + 0.5) * 2.0**-k)


def _joint_array(joint: dict, n_stages: int) -> np.ndarray:
    """P indexed [x, y_1..y_n, a, b_1..b_n], outcome index 0 for +1."""
    out = np.zeros((2,) * (2 * n_stages + 2))
    for (x, *rest), prob in joint.items():
        ys, a, bs = rest[:n_stages], rest[n_stages], rest[n_stages + 1 :]
        out[(x, *ys, (1 - a) // 2, *((1 - b) // 2 for b in bs))] = prob
    return out


def _assert_constant_along(marginal: np.ndarray, axis: int) -> None:
    first = np.broadcast_to(marginal.take([0], axis=axis), marginal.shape)
    np.testing.assert_allclose(marginal, first, rtol=0.0, atol=1e-12)


@settings(derandomize=True, deadline=None, max_examples=30)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n_stages=st.integers(min_value=1, max_value=3),
    mixed_state=st.booleans(),
)
def test_analytic_joint_is_a_no_signalling_distribution(seed, n_stages, mixed_state):
    rng = np.random.default_rng(seed)
    stages = tuple(
        BobStage(
            random_direction(rng), random_direction(rng), random_strength(rng), bias=rng.uniform(0.05, 0.95)
        )
        for _ in range(n_stages)
    )
    initial = random_density(rng, dim=4) if mixed_state else None
    cfg = BellChainConfig(random_direction(rng), random_direction(rng), stages=stages, initial_state=initial)
    joint = analytic_joint(cfg)
    # the broadcast read-out repeats the key-by-key one bit for bit, in key order
    assert list(joint.items()) == list(oracle_analytic_joint(cfg).items())

    oracle = enumerate_joint(cfg)
    assert joint.keys() == oracle.keys()
    assert max(abs(joint[key] - oracle[key]) for key in oracle) < 1e-12

    probs = _joint_array(joint, n_stages)
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert probs.min() >= 0.0

    # condition on the inputs: divide by p(x) prod p(y_k)
    inputs = np.full((2,) * (n_stages + 1), 0.5)
    for k, stage in enumerate(stages, 1):
        shape = [1] * (n_stages + 1)
        shape[k] = 2
        inputs = inputs * np.array([1.0 - stage.bias, stage.bias]).reshape(shape)
    conditional = probs / inputs.reshape(inputs.shape + (1,) * (n_stages + 1))
    y_axes = tuple(range(1, n_stages + 1))
    b_axes = tuple(range(n_stages + 2, 2 * n_stages + 2))
    # Alice's marginal ignores every Bob's input
    alice = conditional.sum(axis=b_axes)
    for axis in y_axes:
        _assert_constant_along(alice, axis)
    # Bobs 1..k together ignore Alice's input and the later Bobs' inputs
    for k in range(1, n_stages + 1):
        bobs = conditional.sum(axis=(n_stages + 1, *b_axes[k:]))
        for axis in (0, *y_axes[k:]):
            _assert_constant_along(bobs, axis)


def _accepted_edge(g: float) -> float:
    """The largest F that MeasurementStrength accepts beside precision g, by bisection on the bits of F in [0, 2]."""

    def accepted(bits):
        try:
            MeasurementStrength(float(np.int64(bits).view(np.float64)), g)
        except (InvalidStateError, PhysicalityError):
            return False
        return True

    lo, hi = 0, int(np.float64(2.0).view(np.int64))
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if accepted(mid) else (lo, mid)
    return float(np.int64(lo).view(np.float64))


@settings(derandomize=True, deadline=None, max_examples=100)
@given(
    g=st.one_of(st.sampled_from([0.0, 1e-5, 3.159e-5, 1.0]), st.floats(min_value=0.0, max_value=1.0)),
    ulps=st.sampled_from([-1, 0, 1]),
    n_stages=st.integers(min_value=1, max_value=4),
    biases=st.lists(st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)), min_size=8, max_size=8),
)
@example(g=0.5, ulps=0, n_stages=8, biases=[0.5] * 8)
def test_no_joint_cell_of_an_accepted_pair_is_below_zero_mass(g, ulps, n_stages, biases):
    # Alice on Z/X, then the pair on Z/X and a strong Bob alternately.  A
    # pair is (F, G) at the accepted edge, or 1 ulp of F on either side; its
    # conditional map leaves the excess e = F^2 + G^2 - 1 as a negative
    # eigenvalue ~e/8 of a state Alice steered across Bob's direction, which
    # the strong Bob reads on the tangent, (-cos t, 0, sin t) or
    # (sin t, 0, -cos t) with t = atan2(G, F), as a cell of -e/128 at
    # unbiased inputs and -e/32 with every input fixed: -3.2e-16 at most
    edge = _accepted_edge(g)
    if ulps > 0:
        with pytest.raises((InvalidStateError, PhysicalityError)):
            MeasurementStrength(math.nextafter(edge, math.inf), g)
        return
    strength = MeasurementStrength(edge if ulps == 0 else math.nextafter(edge, -math.inf), g)
    t = math.atan2(strength.precision, strength.quality_factor)
    tangents = Direction(-math.cos(t), 0.0, math.sin(t)), Direction(math.sin(t), 0.0, -math.cos(t))
    strong = MeasurementStrength(0.0, 1.0)
    stages = tuple(
        BobStage(DIR_Z, DIR_X, strength, bias=b) if k % 2 == 0 else BobStage(*tangents, strong, bias=b)
        for k, b in enumerate(biases[:n_stages])
    )
    joint = analytic_joint(BellChainConfig(DIR_Z, DIR_X, stages=stages))
    assert min(joint.values()) >= -ZERO_MASS


range_text = st.one_of(
    st.text(max_size=30),
    st.text(alphabet="0123456789.:-+eEinfa", max_size=30),
    st.builds(
        lambda a, b, c: f"{a!r}:{b!r}:{c!r}",
        st.floats(allow_nan=True),
        st.floats(allow_nan=True),
        st.floats(allow_nan=True),
    ),
)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(spec=range_text)
def test_parse_range_fuzz_raises_only_invalid_parameter(spec):
    try:
        values = parse_range(spec)
    except InvalidParameterError:
        return
    assert 1 <= len(values) <= MAX_RANGE_POINTS
    assert all(np.isfinite(values))
    assert values == sorted(values)


# --- config files --------------------------------------------------------------------

# values a key=value line can carry unchanged: no surrounding blanks, no line breaks
config_values = st.one_of(
    st.booleans(),
    st.integers(min_value=-(10**20), max_value=10**20),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(alphabet="0123456789.:-+eEinfaxyz_/", max_size=12),
    st.sampled_from(["single", "double", "true", "off", "0.5", "0.1:0.3:0.1", "-"]),
)
CONFIG_COMMANDS = {
    "protocol": (["protocol", "--n", "3"], ["n", "bias", "auto_bias", "auto-bias", "limit", "out", "seed"]),
    "montecarlo": (["montecarlo", "--scenario", "single"], ["g", "trials", "seed", "scenario", "out", "n"]),
    "tradeoff": (["tradeoff", "--family", "optimal"], ["g", "delta", "spacing", "family", "out"]),
}


def _config_line_text(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return value if isinstance(value, str) else repr(value)


def _parsed(argv):
    """repr of every namespace entry, or None when the command line is refused."""
    try:
        args = parse_command_line(argv)
    except (SystemExit, InvalidParameterError):
        return None
    return {key: repr(value) for key, value in vars(args).items() if key != "config"}


@settings(derandomize=True, deadline=None, max_examples=200)
@given(
    command=st.sampled_from(sorted(CONFIG_COMMANDS)),
    data=st.data(),
)
def test_json_and_key_value_configs_give_the_same_namespace(tmp_path_factory, command, data):
    base, keys = CONFIG_COMMANDS[command]
    config = data.draw(st.dictionaries(st.sampled_from(keys), config_values, max_size=4))
    folder = tmp_path_factory.mktemp("cfg")
    as_json = folder / "c.json"
    as_json.write_text(json.dumps(config))
    as_lines = folder / "c.cfg"
    as_lines.write_text("".join(f"{key} = {_config_line_text(value)}\n" for key, value in config.items()))
    from_json = _parsed([*base, "--config", str(as_json)])
    from_lines = _parsed([*base, "--config", str(as_lines)])
    assert from_json == from_lines


config_text = st.one_of(
    st.text(max_size=80),
    st.text(max_size=80).map(lambda t: "{" + t),
    st.dictionaries(st.sampled_from(["n", "bias", "limit", "auto_bias", "out", "x"]), st.text(max_size=8))
    .map(lambda d: "".join(f"{k}={v}\n" for k, v in d.items())),
    st.recursive(
        st.none() | st.booleans() | st.floats() | st.text(max_size=6),
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
        max_leaves=8,
    ).map(lambda v: json.dumps({"bias": v})),
)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(text=config_text)
def test_any_config_text_exits_0_or_2(tmp_path_factory, text):
    folder = tmp_path_factory.mktemp("cfg")
    cfg = folder / "any.cfg"
    cfg.write_text(text, encoding="utf-8", errors="surrogatepass")
    code = main(["protocol", "--n", "2", "--config", str(cfg), "--out", str(folder / "p.csv")])
    assert code in (0, 2)
