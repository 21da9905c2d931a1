"""Failure modes that callers are expected to handle explicitly."""

import json
import numbers


class FactorizationError(RuntimeError):
    """A matrix factorization (SVD/QR) did not converge.

    Carries enough context (node/site) to locate the offending tensor.
    """


class MemoryCapExceeded(RuntimeError):
    """A gate application would push the state past the configured entry cap."""


# Document checks the circuit and topology loaders share: a file of the wrong
# shape is a ValueError, which the CLI maps to exit 2, never a TypeError.
# `Gate` and `Circuit` check their qubits and qubit count with `doc_int` too.


def doc_loads(text: str):
    """`json.loads(text)`; nesting past the interpreter's recursion limit
    (about 1000 containers) is a ValueError too."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("the document is nested too deeply to read") from None


def doc_field(obj, key: str, kind=object):
    """`obj[key]`, for an object `obj` whose `key` holds a `kind`."""
    if not isinstance(obj, dict) or not isinstance(obj.get(key), kind):
        raise ValueError(f"expected an object with a {kind.__name__} {key!r}, got {obj!r:.60}")
    return obj[key]


def doc_int(value, what: str) -> int:
    """`value` as an int if it is an integer (numpy's too): a float or a
    bool is not rounded to one."""
    if type(value) is int:  # the common case, without the slower ABC check
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)
