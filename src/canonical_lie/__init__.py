"""Canonical elements of parabolic subalgebras of so(n), in exact arithmetic.

The package decides which conjugacy classes of so(n) grade a parabolic
subalgebra of so(n, C) canonically, constructs the parabolic with its
nilradical and descending series, enumerates all canonical classes, and
cross-validates the generation-based decision procedure against the
closed-form spectral classification.  Every computation is exact over the
rationals; there is no floating point anywhere.

Each name in `__all__` loads its module on first use (PEP 562), so `import
canonical_lie` loads none.  `python -m canonical_lie` imports the package
before its `__main__` turns the cyclic collector off, and CPython counts the
objects allocated while the collector is paused too, so a package that
loaded its modules then made a collection either way.  Now the CLI loads
them with the collector off, and a library caller with its collector as set.
"""

# the names of `__all__`, by the module that defines them
_HOMES = {
    "exactlin": "RatMatrix parse_rational rref",
    "liegraded": "GradingMap GradingViolation LieTable LieTableError NotMonomial",
    "sonreal": "InvalidSpectrum NotSkew RealizationViolation Spectrum TooSmall grading "
    "spectrum_from_matrix",
    "canonical": "NotCanonical OracleRecord ParabolicData Verdict VerdictReason condition1 "
    "enumerate_canonical half_integral_count half_integral_spectra oracle_record parabolic_of "
    "prop3_check prop3_report strict_generation_report theorem1_report theorem2_check",
}
_HOME = {name: module for module, names in _HOMES.items() for name in names.split()}

__version__ = "0.1.0"

__all__ = sorted(_HOME)


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f"{__name__}.{module}"), name)
    return value
