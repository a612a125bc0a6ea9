"""Prefix-trie storage for relations.

Partial application (Section 4.3) is the workhorse operation of Rel:
``OrderProductQuantity["O1"]`` returns all suffixes of tuples starting with
``"O1"``. A prefix trie answers such lookups in time proportional to the
result. (The leapfrog triejoin builds its own sorted tries:
:func:`repro.joins.leapfrog.build_sorted_trie`.)

Children are keyed by :func:`repro.model.values.value_key` — the engine's
value semantics — so a relation holding both ``True`` and ``1`` in a column
keeps two branches, and descending with ``1`` never lands on the Boolean's
branch. Each node remembers the actual element that labels its incoming
edge for suffix reconstruction.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Sequence, Tuple

from repro.model.values import value_key

Tup = Tuple[Any, ...]


class TrieNode:
    """One node of the relation trie.

    ``children`` maps the *value key* of the next tuple element to the
    child node; ``elem`` is the actual element labelling the edge into the
    node (``None`` only at the root); ``terminal`` marks that a tuple
    *ends* at this node (needed because relations may hold tuples of mixed
    arity, so a tuple may be a strict prefix of another).
    """

    __slots__ = ("children", "elem", "terminal")

    def __init__(self, elem: Any = None) -> None:
        self.children: Dict[Any, "TrieNode"] = {}
        self.elem = elem
        self.terminal: bool = False


class RelationTrie:
    """An immutable prefix trie over a set of tuples."""

    __slots__ = ("root", "_count")

    def __init__(self, tuples: Iterable[Tup] = ()) -> None:
        self.root = TrieNode()
        self._count = 0
        for tup in tuples:
            self._insert(tup)

    def _insert(self, tup: Tup) -> None:
        node = self.root
        for elem in tup:
            key = value_key(elem)
            child = node.children.get(key)
            if child is None:
                child = TrieNode(elem)
                node.children[key] = child
            node = child
        if not node.terminal:
            node.terminal = True
            self._count += 1

    @classmethod
    def from_sorted(cls, tuples: Iterable[Tup]) -> "RelationTrie":
        """Bulk build from tuples in (any) sorted order.

        Consecutive sorted tuples share long prefixes; this inserter keeps
        the previous tuple's node path and only descends below the first
        position where the new tuple diverges — per element, the common
        case is one equality check instead of a ``value_key`` call plus a
        dict probe. The columnar plane feeds this from a numpy lexsort
        (``Relation._index``); the result is identical to inserting one by
        one in any order."""
        trie = cls()
        root = trie.root
        prev: Tup = ()
        path: List[TrieNode] = []  # path[i] holds prev[:i+1]'s node
        count = 0
        for tup in tuples:
            shared = 0
            limit = min(len(prev), len(tup))
            # Identity short-circuits the common case; equal-but-distinct
            # objects fall through to the value_key comparison.
            while shared < limit and (
                    prev[shared] is tup[shared]
                    or value_key(prev[shared]) == value_key(tup[shared])):
                shared += 1
            del path[shared:]
            node = path[-1] if path else root
            for elem in tup[shared:]:
                key = value_key(elem)
                child = node.children.get(key)
                if child is None:
                    child = TrieNode(elem)
                    node.children[key] = child
                node = child
                path.append(node)
            if not node.terminal:
                node.terminal = True
                count += 1
            prev = tup
        trie._count = count
        return trie

    @classmethod
    def from_relation(cls, rel: Any) -> "RelationTrie":
        """Build directly from a :class:`~repro.model.relation.Relation`,
        column-backed or not. Typed relations (including columnar-native
        ones, which never built a keyed dict) are bulk-loaded through
        :meth:`from_sorted` using the vectors' lexsort permutation; untyped
        ones fall back to one-by-one insertion."""
        cols = rel.columns()
        rows = rel.rows()
        if not isinstance(rows, list):
            rows = list(rows)
        if cols is not None:
            order = cols.row_order().tolist()
            return cls.from_sorted(rows[i] for i in order)
        return cls(rows)

    def __len__(self) -> int:
        return self._count

    def __contains__(self, tup: Sequence[Any]) -> bool:
        node = self._descend(tuple(tup))
        return node is not None and node.terminal

    def _descend(self, prefix: Tup) -> TrieNode | None:
        node = self.root
        for elem in prefix:
            node = node.children.get(value_key(elem))
            if node is None:
                return None
        return node

    def suffixes(self, prefix: Tup) -> Iterator[Tup]:
        """Yield every suffix ``s`` such that ``prefix + s`` is stored."""
        node = self._descend(prefix)
        if node is None:
            return
        yield from self._walk(node, ())

    def _walk(self, node: TrieNode, acc: Tup) -> Iterator[Tup]:
        if node.terminal:
            yield acc
        for child in node.children.values():
            yield from self._walk(child, acc + (child.elem,))

    def tuples(self) -> Iterator[Tup]:
        """Iterate all stored tuples."""
        yield from self._walk(self.root, ())
