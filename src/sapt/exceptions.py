"""Error types shared across the package."""


class ContractError(ValueError):
    """An argument violated a documented precondition."""


class ConfigError(ValueError):
    """A run configuration is inconsistent or out of range."""


class DataFormatError(ValueError):
    """A data file could not be parsed or failed validation."""
