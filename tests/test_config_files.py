"""Property tests for the cascade config format: bad values fail loudly.

Arbitrary text, and a valid config with one value replaced, either parse to
a valid ``CascadeConfig`` or raise a package error; no other exception
escapes ``parse_cascade_config``.  The runs are derandomized with fixed
example counts, so the suite is deterministic.
"""

import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from amscascade.cascade import CascadeConfig, format_cascade_config, parse_cascade_config
from amscascade.errors import AmsCascadeError

PROPERTY_SETTINGS = settings(
    max_examples=300,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

VALUES = st.one_of(
    st.sampled_from(
        ["nan", "inf", "-inf", "1e400", "-1", "0", "1.5", "1e-300", "9" * 5000,
         "true", "false", "ams2", "AMS3", "foo", "fresh", "warmstart", "training",
         "held-out", "1_0", "", "="]
    ),
    st.text(max_size=8),
)

VALID = format_cascade_config(CascadeConfig(u0=0.5, validation_source="training"))


def _parse(text):
    """parse_cascade_config on ``text``; None when it is rejected.

    Only the package's own errors may escape, and an accepted config has
    finite numeric fields.
    """
    try:
        config = parse_cascade_config(text)
    except AmsCascadeError:
        return None
    for value in (config.b_reg, config.learner.min_child_weight,
                  config.learner.learning_rate, config.learner.subsample):
        assert math.isfinite(value)
    assert config.u0 is None or math.isfinite(config.u0)
    return config


def test_valid_config_parses():
    assert _parse(VALID) == CascadeConfig(u0=0.5, validation_source="training")


@PROPERTY_SETTINGS
@given(st.text(max_size=200))
def test_arbitrary_text_fails_as_package_error(text):
    _parse(text)


@PROPERTY_SETTINGS
@given(data=st.data())
def test_one_replaced_value_fails_as_package_error(data):
    lines = VALID.splitlines()
    k = data.draw(st.integers(0, 2**16), label="line") % len(lines)
    key = lines[k].partition("=")[0]
    lines[k] = f"{key}= {data.draw(VALUES, label='new value')}"
    _parse("\n".join(lines) + "\n")
