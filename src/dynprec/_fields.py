"""The kind of a config field, read from its annotation, and the type rule built on it.

``PduConfig``, ``accel.SipConfig``, ``accel.AccelConfig`` and
``accel.EnergyModel`` check their fields with ``check_field_types``; the
CLI picks the keys it parses as integers or reals with ``field_kind``.
"""

from __future__ import annotations

import dataclasses
import numbers


def field_kind(f: dataclasses.Field) -> str:
    """The name of the field's annotation, such as ``"int"`` or ``"float"``.

    Under postponed evaluation the annotation is already that string.
    """
    return getattr(f.type, "__name__", f.type)


def check_field_types(config) -> None:
    """Refuse a config value that is not of its field's kind, naming the field.

    An ``int`` field takes only a Python ``int`` that is not a ``bool``; a
    ``float`` field takes any real number but a ``bool``. A report then
    prints each field as the type it is declared.
    """
    for f in dataclasses.fields(config):
        v, kind = getattr(config, f.name), field_kind(f)
        if kind == "int" and (isinstance(v, bool) or not isinstance(v, int)):
            raise ValueError(f"{f.name} must be an integer, got {v!r}")
        if kind == "float" and (isinstance(v, bool) or not isinstance(v, numbers.Real)):
            raise ValueError(f"{f.name} must be a real number, got {v!r}")
