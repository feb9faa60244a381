"""Style rules and selector matching.

A deliberately small CSS subset sufficient to drive the *style
recalculation* stage of the render pipeline: simple selectors (tag,
``.class``, ``#id``) and descendant combinators of simple selectors.
The style stage's compute cost in :mod:`repro.browser.render` is
proportional to the selector-matching work counted here, which is how
CSS-heavy pages become slower to load than structurally similar
CSS-light ones.

The *modelled* work is the naive elements x rules recalculation; the
matcher itself does less.  Like real engines' rule maps, it buckets
rules by their key (rightmost) simple selector and fully matches an
element only against the buckets its id, classes and tag select, plus
the rules whose key has none of the three.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.browser.dom import DomNode


@dataclass(frozen=True)
class SimpleSelector:
    """A simple selector: optional tag, classes, and id."""

    tag: str | None = None
    classes: frozenset[str] = frozenset()
    element_id: str | None = None

    def matches(self, node: DomNode) -> bool:
        """Whether the selector matches a DOM element."""
        if node.is_text:
            return False
        if self.tag is not None and node.tag != self.tag:
            return False
        if self.element_id is not None:
            if node.attributes.get("id") != self.element_id:
                return False
        if self.classes:
            node_classes = set(node.attributes.get("class", "").split())
            if not self.classes <= node_classes:
                return False
        return True


@dataclass(frozen=True)
class Selector:
    """A descendant-combinator chain of simple selectors.

    ``div .headline a`` is three simple selectors; the last one (the
    *key* selector) must match the node and the preceding ones must
    match ancestors in order.
    """

    parts: tuple[SimpleSelector, ...]

    @property
    def key(self) -> SimpleSelector:
        """The rightmost simple selector."""
        return self.parts[-1]

    def matches(self, node: DomNode, ancestors: list[DomNode]) -> bool:
        """Match against a node given its ancestor chain (outermost first)."""
        if not self.key.matches(node):
            return False
        remaining = self.parts[:-1]
        if not remaining:
            return True
        position = 0
        for ancestor in ancestors:
            if position < len(remaining) and remaining[position].matches(ancestor):
                position += 1
        return position == len(remaining)


def parse_selector(text: str) -> Selector:
    """Parse a selector string like ``div.card a`` or ``#main .item``."""
    parts = []
    for chunk in text.split():
        parts.append(_parse_simple(chunk))
    if not parts:
        raise ValueError("empty selector")
    return Selector(parts=tuple(parts))


def _parse_simple(chunk: str) -> SimpleSelector:
    tag: str | None = None
    classes: set[str] = set()
    element_id: str | None = None
    token = ""
    mode = "tag"
    for char in chunk + "\0":
        if char in ".#\0":
            if token:
                if mode == "tag":
                    tag = token.lower()
                elif mode == "class":
                    classes.add(token)
                else:
                    element_id = token
            token = ""
            mode = "class" if char == "." else "id" if char == "#" else mode
        else:
            token += char
    return SimpleSelector(
        tag=tag, classes=frozenset(classes), element_id=element_id
    )


@dataclass(frozen=True)
class StyleRule:
    """One CSS rule: a selector and its declaration count.

    Only the *number* of declarations matters for the cost model.
    """

    selector: Selector
    declarations: int = 1


@dataclass
class Stylesheet:
    """An ordered collection of style rules."""

    rules: list[StyleRule] = field(default_factory=list)

    @classmethod
    def from_selectors(cls, selectors: list[str], declarations: int = 3) -> "Stylesheet":
        """Build a sheet from selector strings, all with equal weight."""
        return cls(
            rules=[
                StyleRule(selector=parse_selector(text), declarations=declarations)
                for text in selectors
            ]
        )

    def __len__(self) -> int:
        return len(self.rules)


@dataclass(frozen=True)
class StyleMatchStats:
    """Work performed by a full style recalculation pass.

    Attributes:
        elements: Element nodes visited.
        candidate_checks: (element, rule) key-selector checks of the
            naive pass, i.e. elements x rules.  This is a calibrated
            cost-model input, so it keeps that meaning although the
            indexed matcher checks far fewer pairs: it is computed, not
            enumerated.
        matches: Rules that fully matched some element.
        applied_declarations: Total declarations applied.
    """

    elements: int
    candidate_checks: int
    matches: int
    applied_declarations: int


def _bucket(key: SimpleSelector) -> tuple[str, str] | None:
    """The rule-map bucket of a key selector: its id, else one of its
    classes, else its tag; ``None`` for the universal bucket.

    Every part of the key must match for the rule to match, so any one
    part is a sound bucket; the most selective one keeps buckets small.
    """
    if key.element_id is not None:
        return ("id", key.element_id)
    if key.classes:
        return ("class", min(key.classes))
    if key.tag is not None:
        return ("tag", key.tag)
    return None


def match_styles(root: DomNode, sheet: Stylesheet) -> StyleMatchStats:
    """Run selector matching over a whole document.

    The sheet's rules are indexed once by :func:`_bucket`; each element
    runs the full :meth:`Selector.matches` only on the rules of its id,
    class and tag buckets and the universal bucket, in rule order.  The
    counts equal the naive elements x rules pass exactly (``#text`` and
    other ``#``-pseudo nodes are not elements), and
    ``candidate_checks`` is that pass's count, ``elements x rules``.
    The returned stats feed the style-phase cost model.
    """
    rules = sheet.rules
    buckets: dict[tuple[str, str] | None, list[int]] = {}
    for index, rule in enumerate(rules):
        buckets.setdefault(_bucket(rule.selector.key), []).append(index)
    universal = buckets.get(None, [])

    def candidates(node: DomNode) -> list[StyleRule]:
        # Every rule sits in one bucket, so distinct keys draw each
        # candidate once; a repeated class name must not repeat a key.
        keys = [("tag", node.tag)]
        element_id = node.attributes.get("id")
        if element_id is not None:
            keys.append(("id", element_id))
        class_names = dict.fromkeys(node.attributes.get("class", "").split())
        keys.extend(("class", name) for name in class_names)
        indices = list(universal)
        for key in keys:
            indices.extend(buckets.get(key, ()))
        return [rules[index] for index in sorted(indices)]

    elements = 0
    matches = 0
    applied = 0
    ancestors: list[DomNode] = []

    def visit(node: DomNode) -> None:
        nonlocal elements, matches, applied
        is_element = not node.is_text and not node.tag.startswith("#")
        if is_element:
            elements += 1
            for rule in candidates(node):
                if rule.selector.matches(node, ancestors):
                    matches += 1
                    applied += rule.declarations
            ancestors.append(node)
        for child in node.children:
            visit(child)
        if is_element:
            ancestors.pop()

    visit(root)
    return StyleMatchStats(
        elements=elements,
        candidate_checks=elements * len(rules),
        matches=matches,
        applied_declarations=applied,
    )
