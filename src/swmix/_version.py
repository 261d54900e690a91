"""Single source of the package version string; pyproject.toml reads it from here."""

__version__ = "0.1.0"
