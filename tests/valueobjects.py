"""The contract shared by leavitt's slotted value objects (``Path``,
``RationalTailSpec``, ``Monomial`` and the chen basis elements), which
replaced frozen dataclasses and must still behave like them."""

import pickle


def check_value_object(cls, fields, other_fields, text, strangers=()):
    """Equal fields give equal objects with equal hashes; changing any one
    field to its entry in ``other_fields`` gives an unequal object; objects
    of other classes (``strangers``) are unequal; ``repr`` is ``text``; a
    pickle round-trip gives an equal object that carries no cached hash."""
    a, b = cls(*fields), cls(*fields)
    assert a == b and not a != b
    assert hash(a) == hash(b) == hash(tuple(fields))  # the dataclass's hash
    for i, other in enumerate(other_fields):
        changed = list(fields)
        changed[i] = other
        c = cls(*changed)
        assert a != c and not a == c
    for s in strangers:
        assert s.__class__ is not cls
        assert a != s and s != a
    assert repr(a) == text
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(a, protocol))
        assert back.__class__ is cls and back == a
        assert back._hash is None  # rebuilt from the fields, hash not carried
        assert hash(back) == hash(a)
