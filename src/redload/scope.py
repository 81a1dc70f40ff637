"""Redundancy scope resolution.

The scope of a redundancy pair is the outermost loop, on the common
root-prefix of the two contexts, whose latest header pass happened strictly
between the two loads. When the contexts differ only the shared prefix up
to (and including) their lowest common ancestor is searched.
"""

from itertools import takewhile

from .cct import LOOP


def resolve_scope(tree, old_handle, t_old, new_handle, t_new):
    """Loop handle of the enclosing redundancy scope, or None.

    Both handles must come from `tree`; t_old < t_new is required. Walks
    root-to-leaf so the first qualifying loop is the outermost one.
    """
    if t_old >= t_new:
        raise ValueError(f"t_old {t_old} is not before t_new {t_new}")
    path = tree.root_path(old_handle)
    if new_handle != old_handle:
        # Two root paths share exactly the nodes of their common prefix.
        path = takewhile(set(tree.root_path(new_handle)).__contains__, path)
    for node in path:
        if node.kind == LOOP and t_old < node.last_pass_ts < t_new:
            return node.handle
    return None


class ScopeBudget:
    """The scope of each pair key, resolved once: a detector calls
    `resolve` at a pair row's first redundant instance."""

    def __init__(self, tree):
        self.tree = tree
        self.scopes = {}        # pair key -> scope handle or None

    @property
    def traversals(self):
        """resolve_scope runs so far: one per resolved pair key."""
        return len(self.scopes)

    def resolve(self, key, old_handle, t_old, new_handle, t_new):
        scope = resolve_scope(self.tree, old_handle, t_old, new_handle, t_new)
        self.scopes[key] = scope
        return scope
