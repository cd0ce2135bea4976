"""``scipy.special``, imported on first use.  With scipy 1.17 that import
loads its array-API layer (numpy.f2py, numpy.testing, charset_normalizer),
about 0.3 s and most of a CLI run that calls no special function, so the
modules that call one import this module as ``_sps``: ``summarize``,
``simulate`` and a usage error never load scipy, and a fit loads it at its
first call.  The first lookup of a name binds scipy's own function here, so
later lookups are plain attribute reads of the same object."""


def __getattr__(name):
    if name.startswith("__"):  # module protocol probes: __path__, __all__
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from scipy import special
    globals()[name] = value = getattr(special, name)
    return value
