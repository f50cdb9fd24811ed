"""The shared ``name[:key=value,...]`` spec grammar, spec class and registry.

Three registries address pluggable components by name plus parameters:
defenses (:mod:`repro.defenses`), simulation engines
(:mod:`repro.sim.engines`) and attack patterns (:mod:`repro.attacks`).
Each accepts parameterized selections from the CLI and from serialized
sweep grids, and they must agree on the grammar — a value that
round-trips through a defense label must round-trip identically through
an engine or attack label, because all three feed canonical cache keys.
This module is that single grammar and the one implementation behind
all three kinds:

* :func:`parse_name_params` (the ``name:k=v,...`` parser) and
  :func:`render_value` (its loss-free inverse for canonical labels);
* :class:`Spec`, the frozen ``(name, params)`` value each kind
  subclasses (:class:`~repro.defenses.DefenseSpec`,
  :class:`~repro.sim.engines.EngineSpec`,
  :class:`~repro.attacks.AttackSpec`);
* :class:`Registry` and :class:`RegisteredEntry`, the name → entry map
  each kind subclasses, with duplicate rejection and fail-fast lookup;
* :class:`SpecParam` / :func:`introspect_params` (a callable's keyword
  parameters as a validated table) and :func:`check_params` (fail-fast
  unknown/missing/type errors, worded per registry ``kind``).

Values are coerced on parse (``"4"`` → 4, ``"2.5"`` → 2.5,
``"true"``/``"false"`` → bool, ``"none"`` → None); anything else stays a
string, and quoting (``mode='8'``) keeps a string verbatim.  Sweep
execution backends (:mod:`repro.exp.backend`) are named too, but take no
parameters and have no spec.
"""

from __future__ import annotations

import inspect
import types
import typing
from dataclasses import dataclass
from typing import Callable, ClassVar, Mapping

from repro.errors import ConfigError, ReproError


def parse_value(raw: str) -> object:
    """Coerce one CLI parameter string to a Python value.

    ``"4"`` → 4, ``"2.5"`` → 2.5, ``"true"``/``"false"`` → bool,
    ``"none"`` → None; anything else stays a string.  Quote a value
    (``mode='8'``) to keep it a string verbatim.
    """
    if len(raw) >= 2 and raw[0] == raw[-1] and raw[0] in ("'", '"'):
        return raw[1:-1]
    lowered = raw.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    if lowered in ("none", "null"):
        return None
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        pass
    return raw


def render_value(value: object) -> str:
    """Inverse of :func:`parse_value`: quote strings that would
    otherwise coerce to a different value — or split differently, or
    lose surrounding whitespace — when parsed back (numeric-looking
    values, separators, quotes, leading or trailing blanks)."""
    if isinstance(value, str) and (
        parse_value(value) != value
        or value != value.strip()
        or any(ch in value for ch in ",=:'\"")
    ):
        quote = '"' if "'" in value else "'"
        return f"{quote}{value}{quote}"
    return str(value)


def split_params(text: str) -> list[str]:
    """Split ``k=v,k=v`` on commas, honouring quoted values."""
    items: list[str] = []
    buffer: list[str] = []
    quote: str | None = None
    for ch in text:
        if quote is not None:
            buffer.append(ch)
            if ch == quote:
                quote = None
        elif ch in ("'", '"'):
            quote = ch
            buffer.append(ch)
        elif ch == ",":
            items.append("".join(buffer))
            buffer = []
        else:
            buffer.append(ch)
    items.append("".join(buffer))
    return items


def parse_name_params(text: str, kind: str) -> tuple[str, dict]:
    """Parse the CLI syntax ``name`` or ``name:key=value,key=value``.

    ``kind`` names the registry ("defense", "engine", ...) in error
    messages.  Values are coerced by :func:`parse_value`.
    """
    text = text.strip()
    name, _, param_text = text.partition(":")
    name = name.strip()
    if not name:
        raise ConfigError(f"{kind} spec {text!r} has no name")
    params: dict[str, object] = {}
    if param_text.strip():
        for item in split_params(param_text):
            key, sep, raw = item.partition("=")
            key = key.strip()
            if not sep or not key:
                raise ConfigError(
                    f"malformed {kind} parameter {item!r} in {text!r}; "
                    "expected key=value"
                )
            params[key] = parse_value(raw.strip())
    return name, params


def annotation_accepts(annotation: object, value: object) -> bool:
    """True when ``value`` fits a simple annotation (lenient otherwise).

    Understands the scalar types and PEP 604 / ``Optional`` unions over
    them; ints are accepted for float params (standard numeric widening).
    """
    if isinstance(annotation, (types.UnionType,)) or \
            typing.get_origin(annotation) is typing.Union:
        return any(
            annotation_accepts(member, value)
            for member in typing.get_args(annotation)
        )
    if annotation is type(None):
        return value is None
    if annotation is bool:
        return isinstance(value, bool)
    if annotation is float:
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if annotation is int:
        return isinstance(value, int) and not isinstance(value, bool)
    if annotation is str:
        return isinstance(value, str)
    return True  # unknown/complex annotation: no opinion


@dataclass(frozen=True)
class SpecParam:
    """One keyword parameter a registered builder/constructor accepts."""

    name: str
    default: object = None
    required: bool = False
    #: Resolved type annotation, or None when the signature left it off.
    annotation: object = None

    @property
    def human(self) -> str:
        return f"{self.name} (required)" if self.required \
            else f"{self.name}={self.default}"

    def accepts(self, value: object) -> bool:
        if self.annotation is None:
            return True
        return annotation_accepts(self.annotation, value)


def introspect_params(
    func: Callable, skip: int, kind: str, owner: str | None = None
) -> tuple[SpecParam, ...]:
    """A callable's keyword parameters as a :class:`SpecParam` table.

    ``skip`` positional parameters are ignored (2 for defense builders'
    ``(bank_index, config)``, 1 for engine constructors' ``self``);
    ``*args``/``**kwargs`` are rejected so every valid parameter is
    nameable in errors and listings.
    """
    signature = inspect.signature(func)
    try:
        hints = typing.get_type_hints(func)
    except Exception:
        hints = {}  # unresolvable annotations: skip value validation
    params = []
    for parameter in list(signature.parameters.values())[skip:]:
        if parameter.kind in (
            inspect.Parameter.VAR_POSITIONAL, inspect.Parameter.VAR_KEYWORD
        ):
            raise ConfigError(
                f"{kind} {owner or func!r} must declare explicit "
                "keyword parameters (no *args/**kwargs)"
            )
        required = parameter.default is inspect.Parameter.empty
        params.append(SpecParam(
            name=parameter.name,
            default=None if required else parameter.default,
            required=required,
            annotation=hints.get(parameter.name),
        ))
    return tuple(params)


def check_params(
    kind: str,
    name: str,
    known: tuple[SpecParam, ...],
    params: Mapping[str, object],
) -> None:
    """Fail fast on unknown/missing/mistyped parameters.

    The single wording both registries raise with, so a typo'd defense
    and a typo'd engine die with the same shape of message.
    """
    known_names = {p.name for p in known}
    unknown = sorted(set(params) - known_names)
    if unknown:
        valid = ", ".join(sorted(known_names)) or "(none)"
        raise ReproError(
            f"unknown parameter(s) {', '.join(unknown)} for {kind} "
            f"{name!r}; valid parameters: {valid}"
        )
    missing = sorted(
        p.name for p in known if p.required and p.name not in params
    )
    if missing:
        raise ReproError(
            f"{kind} {name!r} requires parameter(s): {', '.join(missing)}"
        )
    for param in known:
        if param.name in params and not param.accepts(params[param.name]):
            value = params[param.name]
            expected = getattr(
                param.annotation, "__name__", str(param.annotation)
            )
            raise ReproError(
                f"{kind} {name!r} parameter {param.name}="
                f"{value!r} has the wrong type "
                f"({type(value).__name__}; expected {expected})"
            )


@dataclass(frozen=True)
class Spec:
    """A serializable selection from one registry: name + parameters.

    Params are stored as a sorted tuple of ``(key, value)`` pairs so two
    specs naming the same configuration always compare (and hash, and
    serialize) identically regardless of construction order.  A spec's
    serialized form (and hence every cache key derived from it) depends
    only on its own ``name`` and ``params`` — never on what else is
    registered — and resolution checks both against the registry, so a
    typo dies before any simulation runs.  Each kind subclasses this and
    sets :attr:`registry`, the process-wide registry it resolves
    against.
    """

    name: str
    params: tuple[tuple[str, object], ...] = ()

    #: The kind's process-wide registry (set by each subclass).
    registry: ClassVar["Registry"]

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError(f"{self.registry.kind} name must be non-empty")
        object.__setattr__(
            self, "params", tuple(sorted(dict(self.params).items()))
        )

    # -- construction --------------------------------------------------
    @classmethod
    def of(cls, name: str, **params: object):
        """Convenience constructor: ``DefenseSpec.of("moat", eth=8)``."""
        return cls(name=name, params=tuple(params.items()))

    @classmethod
    def from_string(cls, text: str):
        """Parse the CLI syntax ``name`` or ``name:key=value,key=value``."""
        name, params = parse_name_params(text, cls.registry.kind)
        return cls.of(name, **params)

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]):
        """Inverse of :meth:`to_dict`."""
        name = payload.get("name")
        params = payload.get("params", {})
        if not isinstance(name, str) or not isinstance(params, Mapping):
            raise ConfigError(
                f"malformed {cls.registry.kind} payload: {payload!r}"
            )
        return cls.of(name, **dict(params))

    # -- identity ------------------------------------------------------
    @property
    def params_dict(self) -> dict[str, object]:
        return dict(self.params)

    @property
    def label(self) -> str:
        """Canonical human/cache label: ``name[:k=v,...]`` (sorted keys).

        String values that would parse back as a different value are
        quoted (``mode='8'``), keeping the label loss-free.
        """
        if not self.params:
            return self.name
        rendered = ",".join(
            f"{k}={render_value(v)}" for k, v in self.params
        )
        return f"{self.name}:{rendered}"

    def to_string(self) -> str:
        """CLI-syntax form; ``from_string(to_string())`` round-trips for
        every value the syntax can express — scalars, and strings without
        commas or quotes (build exotic specs with :meth:`of` instead)."""
        return self.label

    def to_dict(self) -> dict:
        """JSON-able form; feeds cache keys, so registry-independent."""
        return {"name": self.name, "params": self.params_dict}

    # -- resolution ----------------------------------------------------
    def validate(self, registry: "Registry | None" = None):
        """Check name and params against the registry; return the entry."""
        registry = registry or self.registry
        entry = registry.entry(self.name)
        check_params(registry.kind, self.name, entry.params, self.params_dict)
        return entry

    @classmethod
    def resolve(cls, designator: "Spec | str", registry=None):
        """Normalize a spec or a ``name:k=v`` string to a validated spec."""
        if isinstance(designator, str):
            designator = cls.from_string(designator)
        elif not isinstance(designator, cls):
            raise ConfigError(
                f"cannot resolve {designator!r} as {cls.__name__}; pass "
                "a spec or a 'name:key=value' string"
            )
        designator.validate(registry)
        return designator


@dataclass(frozen=True)
class RegisteredEntry:
    """Registry entry: the registered ``target`` (a defense builder, an
    engine class or an attack generator) plus its parameter table."""

    name: str
    target: Callable
    summary: str = ""
    params: tuple[SpecParam, ...] = ()


class Registry:
    """Name → :class:`RegisteredEntry` map with duplicate rejection.

    Subclasses set the nouns and :attr:`entry_type`, and implement
    :meth:`_params`, which checks a target and returns its table.
    """

    #: Singular and plural nouns in errors ("unknown defense 'x';
    #: registered defenses: ...").
    kind: ClassVar[str] = "component"
    plural: ClassVar[str] = "components"
    entry_type: ClassVar[type[RegisteredEntry]] = RegisteredEntry

    def __init__(self) -> None:
        self._entries: dict[str, RegisteredEntry] = {}

    def register(
        self, name: str, summary: str = "", **extra: object
    ) -> Callable[[Callable], Callable]:
        """Decorator registering its target under ``name``.

        The target's keyword parameters (introspected by :meth:`_params`)
        become the spec's valid params; ``extra`` fills the entry type's
        own fields.
        """
        if not name:
            raise ConfigError(f"{self.kind} name must be non-empty")

        def decorator(target: Callable) -> Callable:
            if name in self._entries:
                raise ConfigError(
                    f"{self.kind} {name!r} is already registered "
                    f"(by {self._entries[name].target!r})"
                )
            self._entries[name] = self.entry_type(
                name=name,
                target=target,
                summary=summary,
                params=self._params(name, target),
                **extra,
            )
            return target

        return decorator

    def _params(self, name: str, target: Callable) -> tuple[SpecParam, ...]:
        raise NotImplementedError

    def entry(self, name: str) -> RegisteredEntry:
        try:
            return self._entries[name]
        except KeyError:
            known = ", ".join(self.names()) or "(none)"
            raise ReproError(
                f"unknown {self.kind} {name!r}; registered {self.plural}: "
                f"{known}"
            ) from None

    def names(self) -> tuple[str, ...]:
        return tuple(sorted(self._entries))

    def entries(self) -> tuple[RegisteredEntry, ...]:
        return tuple(self._entries[name] for name in self.names())

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __len__(self) -> int:
        return len(self._entries)
