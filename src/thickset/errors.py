"""The package's two exception types.

Every refusal is one ``ThicksetError`` whose message says what was refused
and why; it derives from ValueError, so callers may catch the builtin.
``ConfigError`` marks an experiment config that fails the schema.
"""


class ThicksetError(ValueError):
    """An input the package refuses, named by the message."""


class ConfigError(ThicksetError):
    """An experiment configuration fails schema validation."""
