"""Per-thread loop-extended calling context tree.

Contexts are paths Root -> Function -> ... -> Loop -> ... -> LoadSite,
interned so equal paths share one node and one dense integer handle.
A per-thread counter ticks on every monitored load and on every
loop-header pass but one whose loop node's last pass is the latest tick
(it orders against every load as that pass does); loop nodes remember the
counter value of their latest pass, which is what scope resolution
consumes.
"""

from .errors import MalformedTraceError

ROOT = 0
FUNCTION = 1
LOOP = 2
LOADSITE = 3


class ContextNode:
    __slots__ = ("kind", "ident", "parent", "handle", "children",
                 "last_pass_ts")

    def __init__(self, kind, ident, parent, handle):
        self.kind = kind
        self.ident = ident          # site_id or loop_id; 0 for the root
        self.parent = parent        # ContextNode or None for the root
        self.handle = handle
        self.children = {}          # (kind, ident) -> ContextNode
        self.last_pass_ts = -1      # loop nodes only


class ContextTree:
    """One tree per thread stream; not safe for sharing across workers."""

    def __init__(self):
        self.root = ContextNode(ROOT, 0, None, 0)
        self.nodes = [self.root]    # handle -> node
        self.cursor = self.root
        self.timestamp = 0
        self._paths = {}            # handle -> structural path, once asked

    def _child(self, node, kind, ident):
        key = (kind, ident)
        child = node.children.get(key)
        if child is None:
            child = ContextNode(kind, ident, node, len(self.nodes))
            self.nodes.append(child)
            node.children[key] = child
        return child

    def on_call(self, site_id):
        self.cursor = self._child(self.cursor, FUNCTION, site_id)
        return self.cursor.handle

    def on_return(self, site_id):
        # Unwind lazily past any loop nodes still on the path, then leave
        # the innermost open frame, which must be the call at `site_id`.
        node = self.cursor
        while node.kind == LOOP:
            node = node.parent
        if node.kind != FUNCTION:
            raise MalformedTraceError("return with no open frame")
        if node.ident != site_id:
            raise MalformedTraceError(
                f"return at site_id {site_id} does not match its call at "
                f"site_id {node.ident}")
        self.cursor = node.parent
        return self.cursor.handle

    def on_loop_head(self, loop_id):
        # A pass of a loop already on the current frame's loop stack pops
        # back to it; anything else is a descent into a (possibly new)
        # nested loop node. Loops in outer frames are never popped to.
        node = self.cursor
        while node.kind == LOOP and node.ident != loop_id:
            node = node.parent
        if node.kind != LOOP:
            node = self._child(self.cursor, LOOP, loop_id)
        if node.last_pass_ts != self.timestamp:
            self.timestamp += 1
            node.last_pass_ts = self.timestamp
        self.cursor = node
        return node.handle

    def current_load_context(self, site_id):
        """Handle of the load-site child under the cursor plus a fresh
        timestamp; the cursor does not move (load sites are leaves)."""
        self.timestamp += 1
        node = (self.cursor.children.get((LOADSITE, site_id))
                or self._child(self.cursor, LOADSITE, site_id))
        return node.handle, self.timestamp

    def root_path(self, handle):
        """Node list from the root down to the handle's node; the
        orientation scope search wants."""
        if not 0 <= handle < len(self.nodes):
            raise KeyError(f"unknown context handle {handle}")
        node = self.nodes[handle]
        path = []
        while node is not None:
            path.append(node)
            node = node.parent
        path.reverse()
        return path

    def structural_path(self, handle):
        """(kind, ident) tuples root-first, excluding the root.

        Thread-independent identity of a context; equal paths in different
        threads' trees compare equal. Each handle's path is built once, so
        every allocation at one context shares one tuple.
        """
        path = self._paths.get(handle)
        if path is None:
            path = self._paths[handle] = tuple(
                (n.kind, n.ident) for n in self.root_path(handle)[1:])
        return path
