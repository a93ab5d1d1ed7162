"""Exception types shared across the package: one per exit code of ``reldet``."""


class ContractError(ValueError):
    """An input or argument breaks a documented rule (shape, domain, size limit
    or file format); the CLI exits 2."""


class NumericError(RuntimeError):
    """A non-finite value appeared where finite math was required; the CLI exits 3."""


class IntegrityError(RuntimeError):
    """Persisted data is inconsistent with its manifest or invariants; the CLI exits 4."""
