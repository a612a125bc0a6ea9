"""Value sorts of the Rel data model.

The paper's data model (Addendum A) assumes a set ``Values`` of constant
values. Rel distinguishes *values* (integers, floats, strings, booleans)
from *entities* (Section 2: "things, not strings"), which are represented by
internal identifiers disjoint from all values. We also support *symbols*
(``:Name``), the paper's mechanism for passing relation names as parameters
to control relations (Section 3.4).

Python scalars serve directly as values: ``int``, ``float``, ``str`` and
``bool``. :class:`Entity` and :class:`Symbol` are library classes. A total
order across the heterogeneous sorts is provided by :func:`sort_key`, so that
relations can be stored sorted and compared deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, Tuple


class UnknownValueError(TypeError):
    """Raised when an object that is not a Rel value enters the data model."""


@dataclass(frozen=True, slots=True)
class Symbol:
    """A Rel symbol literal, written ``:Name`` in the surface syntax.

    Symbols are first-class constants used to pass relation *names* as
    parameters, most prominently to the control relations ``insert`` and
    ``delete`` (Section 3.4 of the paper)::

        def insert(:ClosedOrders, x) : ...
    """

    name: str

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f":{self.name}"


@dataclass(frozen=True, slots=True)
class Entity:
    """An entity identifier: a "thing, not a string" (Section 2).

    Entities live in a *namespace* (the concept they instantiate, e.g.
    ``"Product"``) and carry a *key* that is unique within the namespace.
    Two entities are equal iff both namespace and key coincide; entities are
    never equal to plain values, which realizes GNF's requirement that
    identifiers be disjoint from values.
    """

    namespace: str
    key: Any

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"#{self.namespace}({self.key!r})"


class EntityRegistry:
    """Registry enforcing the unique-identifier property of GNF.

    Condition (2) of graph normal form requires every entity in the database
    to be represented by an identifier unique *within the entire database*:
    disjoint concepts must not share identifiers. The registry hands out
    :class:`Entity` values and refuses to mint the same key under two
    different namespaces unless explicitly allowed.
    """

    def __init__(self, *, strict: bool = True) -> None:
        self._strict = strict
        self._by_key: Dict[Any, str] = {}
        self._entities: Dict[Tuple[str, Any], Entity] = {}

    def mint(self, namespace: str, key: Any) -> Entity:
        """Create (or fetch) the entity for ``key`` in ``namespace``.

        In strict mode, minting the same key under a different namespace
        raises ``ValueError`` — this is exactly the GNF violation where a
        product and an order share an identifier.
        """
        entity = self.check(namespace, key)
        self._by_key.setdefault(key, namespace)
        self._entities.setdefault((namespace, key), entity)
        return entity

    def check(self, namespace: str, key: Any) -> Entity:
        """The entity :meth:`mint` would return, raising as it would, but
        without claiming ``key``: a caller whose write may still be
        refused mints only once it is stored."""
        existing = self._entities.get((namespace, key))
        if existing is not None:
            return existing
        if self._strict and key in self._by_key and self._by_key[key] != namespace:
            raise ValueError(
                f"unique identifier property violated: key {key!r} already "
                f"identifies a {self._by_key[key]!r}, cannot reuse it for "
                f"a {namespace!r}"
            )
        return Entity(namespace, key)

    def lookup(self, namespace: str, key: Any) -> Entity | None:
        """Return the entity for ``key`` in ``namespace`` if minted."""
        return self._entities.get((namespace, key))

    def entities(self, namespace: str | None = None) -> Iterator[Entity]:
        """Iterate all minted entities, optionally for one namespace."""
        for (ns, _), ent in self._entities.items():
            if namespace is None or ns == namespace:
                yield ent

    def __len__(self) -> int:
        return len(self._entities)


#: Rank of each value sort in the global total order. Booleans come before
#: integers so that ``True``/``1`` (equal under Python ``==``) still order
#: deterministically; we therefore rank by *exact type* first.
_TYPE_RANKS: Dict[type, int] = {
    bool: 0,
    int: 1,
    float: 1,  # ints and floats compare numerically, like in Rel
    str: 2,
    Symbol: 3,
    Entity: 4,
}


def type_rank(value: Any) -> int:
    """Return the sort rank of ``value`` in the global value order."""
    rank = _TYPE_RANKS.get(type(value))
    if rank is None:
        # Second-order elements (relations) sort after all first-order values.
        from repro.model.relation import Relation

        if isinstance(value, Relation):
            return 9
        raise UnknownValueError(f"not a Rel value: {value!r} ({type(value).__name__})")
    return rank


def is_value(obj: Any) -> bool:
    """Check whether ``obj`` is a first-order Rel value."""
    return type(obj) in _TYPE_RANKS


def sort_key(value: Any) -> Tuple[Any, ...]:
    """Total-order key for heterogeneous values.

    Values sort first by sort rank, then within the sort by natural order.
    Entities order by (namespace, key repr); relations by their sorted tuple
    listing. The result is usable as a ``sorted(..., key=...)`` key for any
    mix of Rel values.
    """
    rank = type_rank(value)
    if rank == 0:
        return (0, value)
    if rank == 1:
        return (1, value)
    if rank == 2:
        return (2, value)
    if isinstance(value, Symbol):
        return (3, value.name)
    if isinstance(value, Entity):
        return (4, value.namespace, repr(value.key))
    # Relation (second-order element): order by its canonical listing
    # (memoized on the relation object — they are immutable).
    return value._canonical_sort_key()


def tuple_sort_key(tup: Tuple[Any, ...]) -> Tuple[Any, ...]:
    """Total-order key for tuples: by arity, then pointwise value order."""
    return (len(tup),) + tuple(sort_key(v) for v in tup)


#: Stand-ins for the Booleans inside value/row keys. They are tuples (no
#: raw tuple can be a scalar value, so they collide with nothing), compare
#: by value, and keep ``True``/``1`` — merged by Python's ``==`` — distinct
#: in keyed storage.
BOOL_TRUE_KEY = ("\x00bool", True)
BOOL_FALSE_KEY = ("\x00bool", False)


def value_key(value: Any) -> Any:
    """The value-semantics identity of one value: itself, except Booleans,
    which are tagged so ``True ≠ 1`` while ``1 == 1.0`` (Python's numeric
    equality matches Rel's everywhere but the Boolean sort)."""
    if type(value) is bool:
        return BOOL_TRUE_KEY if value else BOOL_FALSE_KEY
    return value


def row_key(tup: Any) -> Tuple[Any, ...]:
    """The value-semantics identity of a tuple (pointwise :func:`value_key`;
    the tuple itself when no Boolean is present). Two tuples are the same
    Rel row iff their keys are ``==``; the keys hash consistently and are
    usable in any dict/set. Relation elements key by their own (already
    value-semantic) equality."""
    for v in tup:
        if type(v) is bool:
            return tuple(
                (BOOL_TRUE_KEY if x else BOOL_FALSE_KEY)
                if type(x) is bool else x
                for x in tup
            )
    return tup if type(tup) is tuple else tuple(tup)


def value_repr(value: Any) -> str:
    """Render a value the way the paper writes it (strings quoted)."""
    if isinstance(value, str):
        return f'"{value}"'
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float) and value.is_integer():
        return f"{value:.1f}"
    return repr(value)
