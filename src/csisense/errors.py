"""The toolkit's exception types, one per exit code that is not an I/O error
(OSError, exit 3), and the typed reader of its JSON documents, which raises
ConfigError."""

from types import UnionType


class ConfigError(Exception):
    """Input csisense cannot use, whether from a flag, a scenario, a dataset or
    a model file (exit 2)."""


class NonFiniteLoss(Exception):
    """Training loss became NaN or infinite (exit 4)."""


def read_json(value, kind, what: str, path: str = ""):
    """`value`, parsed JSON, read by `kind`, usually a table giving the kind of
    each key of an object; `what` names the document.  A value not of its
    kind, a key missing from the object or from the table raises ConfigError
    naming its key path, such as receivers[0].boresight.

    Kinds: bool, int and str; float, a JSON number, read as a float (a boolean
    is no number or integer); float | None; [kind, ...], a list of any length,
    and [kind, kind], one value per kind, both read as tuples; and a table,
    read as a dict.  A table key ending in "?" may be left out of the object,
    and is then left out of the dict.
    """
    if isinstance(kind, dict):
        if type(value) is not dict:
            raise ConfigError(f"{path or what} must be a JSON object, "
                              f"got {type(value).__name__}")
        names = {key.rstrip("?"): key for key in kind}
        unknown = [key for key in value if key not in names]
        missing = [key for key in kind if not key.endswith("?") and key not in value]
        at = lambda key: f"{path}.{key}" if path else key
        if unknown or missing:
            raise ConfigError(f"{'unknown' if unknown else 'missing'} {what} key "
                              f"{at((unknown + missing)[0])!r}")
        return {key: read_json(v, kind[names[key]], what, at(key)) for key, v in value.items()}
    if isinstance(kind, list):
        n = None if kind[-1] is ... else len(kind)
        if type(value) is not list or n not in (None, len(value)):
            raise ConfigError(f"{path} must be a JSON list"
                              f"{'' if n is None else f' of {n} values'}, got {value!r}")
        return tuple(read_json(v, kind[0] if n is None else kind[i], what, f"{path}[{i}]")
                     for i, v in enumerate(value))
    if isinstance(kind, UnionType):    # float | None
        return None if value is None else read_json(value, kind.__args__[0], what, path)
    if type(value) not in ((int, float) if kind is float else (kind,)):
        name = {bool: "boolean", int: "integer", float: "number", str: "string"}[kind]
        raise ConfigError(f"{path} must be a JSON {name}, got {value!r}")
    if kind is float:
        try:
            return float(value)
        except OverflowError:
            raise ConfigError(f"{path} is beyond the float range, got {value!r}") from None
    return value
