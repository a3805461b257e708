"""Canned-text templates: partially hollowed sentences (EGP).

A template keeps function words and punctuation verbatim and replaces each
content word (verb/noun/adjective) with a slot that remembers the truncated
tag and the original word. Filling every slot with its own original word
reconstructs the source sentence exactly.

A ``TemplateStore`` is its ``templates`` dict (id -> skeleton, in build
order) and a ``by_length`` view (length -> ids, in that order) built with it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

from .errors import TableError, load_rows, read_jsonl, write_jsonl
from .pos import PosTag, TaggedSentence, is_content, tag_of


@dataclass(frozen=True)
class Slot:
    tag: PosTag
    original: str


@dataclass(frozen=True)
class Literal:
    surface: str


@dataclass(frozen=True)
class EgpSkeleton:
    items: tuple[Slot | Literal, ...]
    source_id: str

    def __len__(self) -> int:
        return len(self.items)

    @property
    def slots(self) -> tuple[Slot, ...]:
        return tuple(it for it in self.items if isinstance(it, Slot))

    def identity_fill(self) -> tuple[str, ...]:
        return tuple(
            it.original if isinstance(it, Slot) else it.surface for it in self.items
        )


def extract_template(
    ts: TaggedSentence, source_id: str, shared: dict | None = None
) -> EgpSkeleton:
    """Hollow out content words; ValueError if the sentence has none. An item
    is made once per ``shared``, keyed by its strings."""
    shared = {} if shared is None else shared
    items: list[Slot | Literal] = []
    for surface, tag in ts.tokens:
        if is_content(tag):
            key = tag.truncated, surface
            item = shared.get(key) or Slot(tag_of(tag.truncated), surface)
        else:
            key = surface
            item = shared.get(key) or Literal(surface)
        items.append(shared.setdefault(key, item))
    if not any(isinstance(it, Slot) for it in items):
        raise ValueError(f"sentence {source_id} has no content words")
    return EgpSkeleton(items=tuple(items), source_id=source_id)


class TemplateStore:
    def __init__(self, templates: dict[str, EgpSkeleton]):
        self.templates = templates
        self.by_length: dict[int, list[str]] = {}
        for tid, template in templates.items():
            self.by_length.setdefault(len(template), []).append(tid)

    def __len__(self) -> int:
        return len(self.templates)

    @classmethod
    def from_sentences(cls, corpus: list[TaggedSentence]) -> "TemplateStore":
        """Build a store, skipping sentences without a content word. A
        template's source is ``sentences:i``, its sentence's 0-based place in
        the corpus, however the corpus was read: a resource directory's corpus
        is always sentences.txt, and pinned digests hold those bytes."""
        templates: dict[str, EgpSkeleton] = {}
        shared: dict[tuple[str, str] | str, Slot | Literal] = {}
        for i, ts in enumerate(corpus):
            if any(is_content(tag) for _, tag in ts.tokens):
                tid = f"t{len(templates):06d}"
                templates[tid] = extract_template(ts, f"sentences:{i}", shared)
        return cls(templates)

    def save(self, path: str | Path) -> None:
        write_jsonl(path, (
            {"id": tid, "source_id": t.source_id, "items": [
                {"t": "slot", "tag": it.tag.full, "orig": it.original}
                if isinstance(it, Slot)
                else {"t": "lit", "w": it.surface}
                for it in t.items
            ]}
            for tid, t in self.templates.items()
        ))

    @classmethod
    def load(cls, path: str | Path) -> "TemplateStore":
        templates: dict[str, EgpSkeleton] = {}
        shared: dict[tuple[str, str] | str, Slot | Literal] = {}

        def text(obj, key: str) -> str:
            if not isinstance(obj[key], str):
                raise ValueError(f"{key} {obj[key]!r} is not a string")
            return obj[key]

        def add(obj) -> None:
            items: list[Slot | Literal] = []
            for it in obj["items"]:  # one object per (tag, orig) or surface
                if it["t"] == "slot":
                    key = text(it, "tag"), text(it, "orig")
                    item = shared.get(key) or Slot(tag_of(key[0]), key[1])
                elif it["t"] == "lit":
                    key = text(it, "w")
                    item = shared.get(key) or Literal(key)
                else:
                    raise ValueError(f"unknown item type {it['t']!r}")
                items.append(shared.setdefault(key, item))
            if not any(isinstance(it, Slot) for it in items):
                raise ValueError("template has no slot")
            tid = text(obj, "id")
            if tid in templates:
                raise ValueError(f"duplicate template id {tid!r}")
            templates[tid] = EgpSkeleton(tuple(items), text(obj, "source_id"))

        load_rows(read_jsonl(path), path, "bad template row", add)
        return cls(templates)


def select_template(
    store: TemplateStore, n: int, rng: random.Random
) -> EgpSkeleton:
    """Uniform pick among length-n templates, nearest length as fallback."""
    if not len(store):
        raise TableError("template store is empty")
    ids = store.by_length.get(n)
    if not ids:
        # nearest available length; ties resolve to the smaller one
        n = min(store.by_length, key=lambda ln: (abs(ln - n), ln))
        ids = store.by_length[n]
    return store.templates[rng.choice(ids)]
