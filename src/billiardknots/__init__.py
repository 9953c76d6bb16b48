"""Kauffman bracket and Jones polynomials of billiard-table knot diagrams.

Two routes to every bracket value: closed-form term expansions evaluated
against a crossing-sign sequence (fast), and an exhaustive skein state sum
over the combinatorial diagram (the oracle the expansions are checked
against).

``import billiardknots`` loads none of the submodules.  Each public name is
bound on first use from its home module in ``_HOME`` (a module
``__getattr__``, PEP 562), so a process compiles and runs only the modules
its calls need: ``diagram(...).assign_signs(...).writhe()`` loads only
``billiard`` and ``signseq``, and a closed-form bracket never loads the
oracle.  A submodule is loaded on first access as an attribute, too.
"""

__version__ = "0.1.0"

#: Public name -> the submodule that defines it.
_HOME = {
    "BilliardDiagram": "billiard",
    "SignedDiagram": "billiard",
    "TableSpec": "billiard",
    "diagram": "billiard",
    "DELTA": "laurent",
    "LaurentPoly": "laurent",
    "QuarterPoly": "laurent",
    "coefficient_string": "laurent",
    "delta_power": "laurent",
    "jones_normalize": "laurent",
    "bracket_all_signs": "oracle",
    "bracket_bruteforce": "oracle",
    "sign_sequences": "oracle",
    "b_terms": "recursions",
    "bt_terms": "recursions",
    "compositions": "recursions",
    "expand_block": "recursions",
    "f_terms": "recursions",
    "h_terms": "recursions",
    "padovan": "recursions",
    "writhe_recursive": "recursions",
    "parse_signs": "signseq",
    "CompiledTermSum": "terms",
    "Factor": "terms",
    "TermSum": "terms",
    "count_domino_tilings": "tiling",
    "enumerate_term_tilings": "tiling",
    "tiling_to_term": "tiling",
}

_SUBMODULES = ("billiard", "cli", "laurent", "oracle", "recursions", "signseq", "terms", "tiling")

__all__ = sorted(_HOME)


def _load(module: str):
    # __import__ rather than importlib.import_module: only the former is
    # listed by ``python -X importtime``.  A non-empty fromlist makes it
    # return the submodule itself.
    return __import__(f"{__name__}.{module}", fromlist=["*"])


def __getattr__(name: str):
    if name in _SUBMODULES:
        return _load(name)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_load(_HOME[name]), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
