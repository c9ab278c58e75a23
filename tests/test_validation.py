"""The configuration field checker, on every field of the dataclasses
that declare their bounds. The cases come from ``dataclasses.fields``
and the annotations, so a field added later is covered as well."""

import math
import re
import types
import typing
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gdapred.errors import ConfigurationError
from gdapred.kge import KgeTrainConfig
from gdapred.learn import GaussianNaiveBayes, MLPClassifier, RandomForestClassifier

FIELDS = [(cls, f) for cls in (KgeTrainConfig, RandomForestClassifier,
                               GaussianNaiveBayes, MLPClassifier)
          for f in fields(cls)]

#: plain annotation -> (values of that kind, values of another kind)
SCALARS = {
    int: (st.integers(-3, 10**6),
          st.text() | st.booleans() | st.floats() | st.just(10**30)
          | st.lists(st.integers(), max_size=2)),
    float: (st.floats(-2, 2) | st.floats(-1e6, 1e6) | st.integers(-3, 100),
            st.text() | st.booleans()
            | st.sampled_from([math.nan, math.inf, -math.inf, 10**400])
            | st.lists(st.floats(), max_size=2)),
    str: (st.text(), st.integers() | st.booleans() | st.lists(st.text(), max_size=2)),
}


def kinds(hint):
    """Values of the kind ``hint`` names, and values of another kind: a
    scalar for a list, a list for a scalar."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is types.UnionType:  # X | None
        right, wrong = kinds(args[0])
        return st.none() | right, wrong
    if origin is tuple:
        right, wrong = kinds(args[0])
        return (st.lists(right, max_size=3),
                right | st.text() | st.lists(wrong, min_size=1, max_size=2))
    return SCALARS[hint]


@pytest.mark.parametrize("cls, f", FIELDS,
                         ids=[f"{cls.__name__}.{f.name}" for cls, f in FIELDS])
@settings(max_examples=50)
@given(data=st.data())
def test_every_field_is_checked_against_its_annotation(cls, f, data):
    hint = typing.get_type_hints(cls)[f.name]
    right, wrong = kinds(hint)
    with pytest.raises(ConfigurationError, match=re.escape(f.name)):
        cls(**{f.name: data.draw(wrong, label="wrong kind")})
    value = data.draw(st.just(f.default) | right, label="right kind")
    ok = f.metadata.get("bound", ("", lambda v: True))[1]
    if value is None or all(map(ok, value if isinstance(value, (list, tuple))
                                else [value])):
        stored = getattr(cls(**{f.name: value}), f.name)
        assert stored == (tuple(value) if typing.get_origin(hint) is tuple else value)
    else:
        with pytest.raises(ConfigurationError, match=re.escape(f.name)):
            cls(**{f.name: value})
