"""Exception types shared across the pipeline, and the rule a config
value is checked by."""

import numbers
from argparse import ArgumentTypeError


class TransferenceError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(TransferenceError):
    """Tensor dimensions do not agree for the requested operation."""


class NumericError(TransferenceError):
    """Non-finite values where finite ones are required."""


class ContractError(TransferenceError):
    """A documented precondition was violated by the caller."""


class ConfigError(TransferenceError):
    """Invalid configuration value or combination."""


class DataError(TransferenceError):
    """A corpus or model cannot be built from the given data."""


class AlignmentError(DataError):
    """Parallel files disagree on line counts."""


class TrainingError(TransferenceError):
    """Training failed (non-finite gradients, divergence, ...)."""


class CheckpointError(TransferenceError):
    """Checkpoint files or parameter sets are inconsistent."""


class StageError(TransferenceError):
    """A pipeline stage failed; carries the stage name and the cause."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause


class Setting:
    """A config value's rule: a number of type ``kind``, not a bool, that
    ``holds`` as ``rule`` says (or None, spelt by a text in ``none``).
    ``check`` parses no text; a call parses text first, for the INI and CLI."""

    def __init__(self, kind: type, rule: str = "", holds=None, none=()):
        self.kind, self.rule, self.holds, self.none = kind, rule, holds, none
        self.__name__ = kind.__name__  # argparse's "invalid int value"

    def check(self, value):
        if value is None and self.none:
            return value
        if isinstance(value, bool) or not isinstance(
                value, numbers.Integral if self.kind is int else numbers.Real):
            raise ValueError(value)
        if self.rule and not self.holds(value):  # argparse shows this message
            raise ArgumentTypeError(f"must be {self.rule}, got {value}")
        return value

    def __call__(self, value):
        if isinstance(value, str):
            value = None if value in self.none else self.kind(value)
        return self.check(value)


def at_least(kind: type, low) -> Setting:
    return Setting(kind, f">= {low}", lambda value: value >= low)


def checked(name: str, parse, value):
    """``parse(value)``, or a ConfigError naming ``name``."""
    try:
        return parse(value)
    except ArgumentTypeError as exc:
        raise ConfigError(f"{name} {exc}") from None
    except ValueError:
        raise ConfigError(f"{name}: bad value {value!r}") from None


def check_fields(obj, rules: dict[str, Setting]) -> None:
    """Check each field of ``obj`` by its rule; a ConfigError names it."""
    for name, rule in rules.items():
        checked(name, rule.check, getattr(obj, name))
