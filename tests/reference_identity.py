"""Object, motion and unit identity as each class once wrote it out: a frozen reference.

The functions below are the ``__eq__`` and ``__hash__`` methods that
``ObjectNode``, ``MotionNode`` and ``FunctionalUnit`` each defined before
one base class derived equality and hashing from a single ``_identity``
per class. ``object_hash`` is the formula ``ObjectNode.__init__`` cached;
the other functions are copied unchanged. ``tests/test_model.py`` asserts
that the classes compare and hash as these do. Do not edit them to follow
the library; they are the reference.
"""
from foon.model import FunctionalUnit


def object_eq(self, other):
    if other.__class__ is not self.__class__:
        return NotImplemented
    return (self._hash == other._hash and self.name == other.name
            and self.states == other.states and self.ingredients == other.ingredients)


def object_hash(self):
    return hash((self.name, self.states, self.ingredients))


def motion_eq(self, other):
    if other.__class__ is not self.__class__:
        return NotImplemented
    return self.label == other.label


def motion_hash(self):
    return hash((self.label,))


def unit_eq(self, other):
    if not isinstance(other, FunctionalUnit):
        return NotImplemented
    return (self.motion.label == other.motion.label
            and frozenset(self.inputs) == frozenset(other.inputs)
            and frozenset(self.outputs) == frozenset(other.outputs))


def unit_hash(self):
    return hash((frozenset(self.inputs), self.motion.label, frozenset(self.outputs)))
